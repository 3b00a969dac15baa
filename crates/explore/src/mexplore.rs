//! Machine-level systematic exploration through the
//! [`hmtx_machine::SchedulePolicy`] seam.
//!
//! Exploration is CHESS-style iterative context bounding over *divergence
//! lists*: a schedule is described by the steps at which it departs from
//! the deterministic min-clock baseline (`picks`, as replayed by
//! [`hmtx_machine::ReplayPolicy`]). The root run carries no divergences;
//! while a run executes, the policy records every scheduling point past its
//! last divergence where at least two cores were enabled and interleaving
//! could matter (the chosen core's next event conflicts with an
//! alternative's — same line with a write, MTX control, same queue). Each
//! recorded `(step, alternative core)` spawns a child divergence list, and
//! [`explore`] runs children breadth-first up to the preemption bound
//! (= divergence count). Breadth-first order finds every failure at its
//! fewest divergences, so failing schedules need no shrinking.
//!
//! A target is one [`MachineSpec`]: a loaded, ready-to-run machine template
//! plus the reference its runs are held to. Every schedule runs on a
//! clone of the template, so state never leaks between schedules.
//! Assembly kernels are compared against the [`hmtx_isa::run_serial_tm`]
//! sequential TM interpreter — at every group commit the tracked words of
//! the machine's committed-prefix view must equal the oracle's snapshot for
//! that VID, and halted runs must reproduce the oracle's final memory and
//! output. Workload runs (generated runtime code spin-waits on the runtime
//! control block, which a sequential TM interpreter cannot follow) are
//! checked for protocol invariants and termination only, with the
//! Sequential-paradigm output as the end-state reference.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use hmtx_core::{MemorySystem, Rules};
use hmtx_isa::{assemble, run_serial_tm, Program, TmRefState};
use hmtx_machine::{CoreEvent, Machine, ReplayPolicy, RunEvent, SchedulePolicy, ThreadContext};
use hmtx_runtime::{loop_env, run_loop, start, Paradigm};
use hmtx_types::{Addr, MachineConfig, SeedBug, SimError, ThreadId, Vid};
use hmtx_workloads::Workload;

use crate::kernel::AsmKernel;
use crate::Failure;

/// Branch points recorded during a run: `(step, alternative cores)` pairs,
/// each an extension candidate for iterative context bounding.
pub type BranchPoints = Vec<(u64, Vec<usize>)>;

/// Per-run cap on recorded branch points: bounds the search's branching
/// factor. A run that hits it still replays correctly, but the divergences
/// it could not record are never explored, so a search that extends such a
/// run is no longer exhaustive ([`MachineReport::truncated`]). At 64, handoff's
/// spin loop overran it in the unreduced space to bound 4; both kernels'
/// unreduced spaces to bound 4 fit under 128. Workload runs do not.
const MAX_BRANCH_POINTS: usize = 128;

/// Instruction-step budget for the serial TM oracle.
const ORACLE_STEPS: u64 = 1_000_000;

/// What a target's committed state is held to.
#[derive(Debug)]
pub(crate) enum Reference {
    /// Assembly kernels: the serial TM oracle's per-commit snapshots and
    /// final output.
    SerialTm {
        /// The oracle's run over the kernel's programs.
        oracle: TmRefState,
        /// Initial memory words (the expectation before any commit).
        init: Vec<(u64, u64)>,
        /// Word addresses the comparison checks.
        tracked: Vec<u64>,
    },
    /// Workloads: the Sequential-paradigm committed output.
    Output(Vec<u64>),
}

/// A machine-level exploration target.
#[derive(Debug)]
pub struct MachineSpec {
    /// Kernel/workload name (stamped into corpus seeds).
    pub name: String,
    /// The loaded machine every schedule starts from (cloned per run).
    pub template: Machine,
    /// Instruction budget per run.
    budget: u64,
    /// What every run is held to.
    pub(crate) reference: Reference,
}

impl MachineSpec {
    /// Builds an [`AsmKernel`] target (quick configuration, one core per
    /// thread, optional planted defect) and runs its serial TM oracle.
    ///
    /// # Errors
    ///
    /// Returns assembly errors and oracle interpretation errors (deadlock,
    /// unsupported instructions, step budget).
    pub fn from_kernel(
        kernel: &AsmKernel,
        budget: u64,
        seed_bug: Option<SeedBug>,
    ) -> Result<Self, SimError> {
        let programs = kernel
            .threads
            .iter()
            .map(|t| assemble(t).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        let mut cfg = MachineConfig::test_default();
        cfg.num_cores = programs.len().max(2);
        cfg.hmtx.seed_bug = seed_bug;
        let mut template = Machine::new(cfg);
        for &(addr, value) in &kernel.init {
            template
                .mem_mut()
                .memory_mut()
                .write_word(Addr(addr), value);
        }
        for (i, p) in programs.iter().enumerate() {
            template.load_thread(i, ThreadContext::new(ThreadId(i), Arc::clone(p)));
        }
        let refs: Vec<&Program> = programs.iter().map(Arc::as_ref).collect();
        let init: HashMap<u64, u64> = kernel.init.iter().copied().collect();
        let oracle = run_serial_tm(&refs, ORACLE_STEPS, &init)?;
        Ok(MachineSpec {
            name: kernel.name.to_string(),
            template,
            budget,
            reference: Reference::SerialTm {
                oracle,
                init: kernel.init.clone(),
                tracked: kernel.tracked.clone(),
            },
        })
    }

    /// Builds a workload target: the generated `paradigm` code on the quick
    /// configuration (with an optional planted defect), held to the
    /// Sequential paradigm's committed output on the real protocol.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the reference run or code generation
    /// fails — code generation bugs, not schedule-dependent outcomes.
    pub fn from_workload(
        body: &dyn Workload,
        paradigm: Paradigm,
        budget: u64,
        seed_bug: Option<SeedBug>,
    ) -> Result<Self, SimError> {
        let mut cfg = MachineConfig::test_default();
        let reference = run_loop(Paradigm::Sequential, body, &cfg, budget)?
            .1
            .outputs;
        cfg.hmtx.seed_bug = seed_bug;
        let (cfg, env) = loop_env(paradigm, &cfg)?;
        let template = start(paradigm, body, cfg, &env)?;
        Ok(MachineSpec {
            name: body.meta().name.to_string(),
            template,
            budget,
            reference: Reference::Output(reference),
        })
    }
}

impl Reference {
    /// Checks a run that ended quiescent — halted (`halted`) or after a
    /// misspeculation aborted all speculative state: protocol invariants,
    /// then the tracked words of the committed prefix against the oracle
    /// snapshot for `committed` (the initial memory when nothing
    /// committed), then, for halted runs, the final output.
    fn check(&self, machine: &Machine, committed: u16, halted: bool) -> Option<Failure> {
        let context = match self {
            Reference::Output(_) if !halted => "after abort",
            _ => "at end of run",
        };
        if let Some(v) = machine.mem().first_violation(Rules::Protocol) {
            return Some(Failure::invariant(context, &v));
        }
        let oracle = |detail: String| Some(Failure::new("oracle", detail));
        match self {
            Reference::SerialTm {
                oracle: tm,
                init,
                tracked,
            } => {
                // Oracle snapshots clone the full interpreter memory,
                // initial words included, so only a missing snapshot
                // falls back to the initial image.
                let snap = tm.commits.iter().find(|c| c.vid == committed);
                let init_val = |addr: u64| init.iter().find(|(a, _)| *a == addr).map_or(0, |p| p.1);
                for &addr in tracked {
                    let got = machine.mem().peek_word(Addr(addr), Vid(committed));
                    let want = snap
                        .and_then(|s| s.memory.get(&addr).copied())
                        .unwrap_or_else(|| init_val(addr));
                    if got != want {
                        return oracle(format!(
                            "end of run (v{committed} committed): word {addr:#x} is {got}, \
                             oracle says {want}"
                        ));
                    }
                }
                if !halted {
                    return None;
                }
                let mut got = machine.committed_output().to_vec();
                let mut want = tm.output.clone();
                got.sort_unstable();
                want.sort_unstable();
                if got != want {
                    oracle(format!("halted with output {got:?}, oracle says {want:?}"))
                } else if committed as usize != tm.commits.len() {
                    oracle(format!(
                        "halted having committed v{committed}, oracle committed {}",
                        tm.commits.len()
                    ))
                } else {
                    None
                }
            }
            Reference::Output(reference) if halted && machine.committed_output() != reference => {
                oracle(format!(
                    "halted with {} outputs, sequential reference has {}",
                    machine.committed_output().len(),
                    reference.len()
                ))
            }
            Reference::Output(_) => None,
        }
    }
}

/// Result of executing one machine schedule.
#[derive(Debug, Clone)]
pub struct MachineOutcome {
    /// The divergence list that produced this run.
    pub picks: Vec<(u64, usize)>,
    /// Highest VID committed.
    pub committed: u16,
    /// Misspeculation that ended the run (legal; committed prefix is still
    /// checked against the reference).
    pub misspec: Option<String>,
    /// Failure, if any.
    pub failure: Option<Failure>,
    /// The run offered more branch points than the per-run cap (128); the
    /// rest were dropped.
    pub truncated: bool,
}

/// Aggregate result of exploring one machine spec.
#[derive(Debug, Clone)]
pub struct MachineReport {
    /// Schedules executed.
    pub runs: usize,
    /// Whether the bounded space drained: no run cap was hit and no
    /// extended run dropped branch points.
    pub exhausted: bool,
    /// Whether some extended run dropped branch points at the per-run cap,
    /// leaving part of the bounded space unexplored.
    pub truncated: bool,
    /// Runs that ended in (legal) misspeculation.
    pub misspecs: usize,
    /// Runs that halted cleanly.
    pub halts: usize,
    /// Failing outcomes, in exploration order.
    pub failures: Vec<MachineOutcome>,
}

/// The recording replay policy: replays `divergences`, records branch
/// points past the last divergence, and hooks per-commit checks.
struct ExplorePolicy<'a> {
    /// Picks the core at every step, exactly as `hmtx-run --replay` would.
    replay: ReplayPolicy,
    /// First step at which new branch points may be recorded (one past the
    /// last divergence — iterative context bounding only ever extends a
    /// schedule *after* its existing divergences).
    frontier_after: u64,
    reduce: bool,
    branches: BranchPoints,
    /// Set once a branch point is dropped at [`MAX_BRANCH_POINTS`].
    truncated: bool,
    reference: &'a Reference,
    violations: Vec<Failure>,
}

impl fmt::Debug for ExplorePolicy<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExplorePolicy")
            .field("replay", &self.replay)
            .field("branches", &self.branches.len())
            .finish()
    }
}

impl SchedulePolicy for ExplorePolicy<'_> {
    fn pick(&mut self, step: u64, enabled: &[CoreEvent]) -> usize {
        let idx = self.replay.pick(step, enabled);
        if step >= self.frontier_after && enabled.len() >= 2 && !self.truncated {
            let chosen = enabled[idx];
            let alts: Vec<usize> = enabled
                .iter()
                .enumerate()
                .filter(|&(i, e)| {
                    i != idx && (!self.reduce || e.event.conflicts_with(&chosen.event))
                })
                .map(|(_, e)| e.core)
                .collect();
            if !alts.is_empty() {
                if self.branches.len() < MAX_BRANCH_POINTS {
                    self.branches.push((step, alts));
                } else {
                    self.truncated = true;
                }
            }
        }
        idx
    }

    fn observe_commit(
        &mut self,
        vid: Vid,
        mem: &MemorySystem,
        _committed_output: &[u64],
    ) -> Result<(), SimError> {
        if let Some(v) = mem.first_violation(Rules::Protocol) {
            self.violations.push(Failure::invariant(
                &format!("after commit of v{}", vid.0),
                &v,
            ));
            return Ok(());
        }
        let Reference::SerialTm {
            oracle, tracked, ..
        } = self.reference
        else {
            return Ok(());
        };
        let Some(snap) = oracle.commits.iter().find(|c| c.vid == vid.0) else {
            self.violations.push(Failure::new(
                "oracle",
                format!("machine committed v{} but the oracle never did", vid.0),
            ));
            return Ok(());
        };
        for &addr in tracked {
            let got = mem.peek_word(Addr(addr), vid);
            let want = *snap.memory.get(&addr).unwrap_or(&0);
            if got != want {
                self.violations.push(Failure::new(
                    "oracle",
                    format!(
                        "after commit of v{}: word {addr:#x} is {got}, oracle says {want}",
                        vid.0
                    ),
                ));
                return Ok(());
            }
        }
        Ok(())
    }
}

/// Executes one schedule (divergence list) of `spec` on a clone of its
/// template. Returns the outcome plus the branch points recorded past the
/// last divergence (each an extension candidate for iterative context
/// bounding). A panic inside the machine becomes a `"panic"` failure.
pub fn run_one(
    spec: &MachineSpec,
    picks: &[(u64, usize)],
    reduce: bool,
) -> (MachineOutcome, BranchPoints) {
    catch_unwind(AssertUnwindSafe(|| run_inner(spec, picks, reduce))).unwrap_or_else(|payload| {
        let outcome = MachineOutcome {
            picks: picks.to_vec(),
            committed: 0,
            misspec: None,
            failure: Some(Failure::from_panic(payload)),
            truncated: false,
        };
        (outcome, Vec::new())
    })
}

fn run_inner(
    spec: &MachineSpec,
    picks: &[(u64, usize)],
    reduce: bool,
) -> (MachineOutcome, BranchPoints) {
    let mut policy = ExplorePolicy {
        frontier_after: picks.iter().map(|&(step, _)| step + 1).max().unwrap_or(0),
        replay: ReplayPolicy::new(picks),
        reduce,
        branches: Vec::new(),
        truncated: false,
        reference: &spec.reference,
        violations: Vec::new(),
    };
    let mut machine = spec.template.clone();
    let event = machine.run_with_policy(spec.budget, &mut policy);
    let committed = machine.mem().last_committed().0;
    let mut misspec = None;
    let failure = match policy.violations.into_iter().next() {
        Some(v) => Some(v),
        None => match event {
            Err(e) => Some(Failure::new("sim-error", e.to_string())),
            Ok(RunEvent::BudgetExhausted) => Some(Failure::new(
                "budget",
                format!("instruction budget ({}) exhausted", spec.budget),
            )),
            Ok(RunEvent::Misspeculation { cause, cycle }) => {
                // Legal: the machine already aborted all speculative state
                // (the runtime's recovery ladder would re-dispatch here);
                // the committed prefix must still be sound.
                misspec = Some(format!("{cause:?} at cycle {cycle}"));
                spec.reference.check(&machine, committed, false)
            }
            Ok(RunEvent::AllHalted) => spec.reference.check(&machine, committed, true),
        },
    };
    let outcome = MachineOutcome {
        picks: picks.to_vec(),
        committed,
        misspec,
        failure,
        truncated: policy.truncated,
    };
    (outcome, policy.branches)
}

/// Explores `spec` breadth-first up to `preemptions` divergences per
/// schedule, stopping after `cap` runs. Failing runs are not extended.
/// `visit` sees every outcome, in exploration order.
pub fn explore(
    spec: &MachineSpec,
    preemptions: u32,
    reduce: bool,
    cap: usize,
    mut visit: impl FnMut(&MachineOutcome),
) -> MachineReport {
    let mut report = MachineReport {
        runs: 0,
        exhausted: true,
        truncated: false,
        misspecs: 0,
        halts: 0,
        failures: Vec::new(),
    };
    let mut queue: VecDeque<Vec<(u64, usize)>> = [Vec::new()].into();
    while let Some(picks) = queue.pop_front() {
        if report.runs >= cap {
            report.exhausted = false;
            break;
        }
        let (outcome, branches) = run_one(spec, &picks, reduce);
        report.runs += 1;
        visit(&outcome);
        if outcome.failure.is_none() && picks.len() < preemptions as usize {
            if outcome.truncated {
                report.truncated = true;
                report.exhausted = false;
            }
            for (step, alts) in branches {
                for core in alts {
                    let mut child = picks.clone();
                    child.push((step, core));
                    queue.push_back(child);
                }
            }
        }
        if outcome.misspec.is_some() {
            report.misspecs += 1;
        } else if outcome.failure.is_none() {
            report.halts += 1;
        }
        if outcome.failure.is_some() {
            report.failures.push(outcome);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{asm_kernels, ADDR_A, ADDR_B};

    fn kernel_spec(name: &str, seed_bug: Option<SeedBug>) -> MachineSpec {
        let kernel = asm_kernels().into_iter().find(|k| k.name == name).unwrap();
        MachineSpec::from_kernel(&kernel, 50_000, seed_bug).unwrap()
    }

    fn workload_spec(name: &str, paradigm: Paradigm, seed_bug: Option<SeedBug>) -> MachineSpec {
        let suite = hmtx_workloads::suite(hmtx_workloads::Scale::Quick);
        let body = suite.iter().find(|w| w.meta().name == name).unwrap();
        MachineSpec::from_workload(body.as_ref(), paradigm, 50_000_000, seed_bug).unwrap()
    }

    fn assert_clean(report: &MachineReport) {
        assert!(
            report.failures.is_empty(),
            "first failure: {} (picks {:?})",
            report.failures[0].failure.as_ref().unwrap(),
            report.failures[0].picks
        );
    }

    #[test]
    fn handoff_is_clean_to_preemption_bound_three() {
        let report = explore(&kernel_spec("handoff", None), 3, true, 10_000, |_| {});
        assert!(report.exhausted, "bounded space must drain");
        assert!(report.runs > 1, "branch points must be found");
        assert_clean(&report);
        assert!(report.halts >= 1);
    }

    #[test]
    fn race_detect_misspeculates_on_some_schedules_and_stays_sound() {
        let report = explore(&kernel_spec("race_detect", None), 3, true, 10_000, |_| {});
        assert!(report.exhausted);
        assert_clean(&report);
        assert!(report.halts >= 1, "store-first schedules commit");
    }

    #[test]
    fn machine_kernels_explore_clean_to_bound_four_reduced_and_unreduced() {
        for kernel in asm_kernels() {
            let spec = kernel_spec(kernel.name, None);
            for reduce in [true, false] {
                let report = explore(&spec, 4, reduce, usize::MAX, |_| {});
                assert!(report.exhausted);
                assert_clean(&report);
            }
        }
    }

    #[test]
    fn oracle_knows_the_handoff_answer() {
        let Reference::SerialTm { oracle, .. } = kernel_spec("handoff", None).reference else {
            panic!("kernels are held to the serial TM oracle");
        };
        assert_eq!(oracle.output, vec![8]);
        assert_eq!(oracle.commits.len(), 2);
        let last = oracle.commits.last().unwrap();
        assert_eq!(last.memory.get(&ADDR_A), Some(&7));
        assert_eq!(last.memory.get(&ADDR_B), Some(&8));
    }

    #[test]
    fn runs_are_deterministic_per_divergence_list() {
        let spec = kernel_spec("race_detect", None);
        let (first, b1) = run_one(&spec, &[], true);
        let (second, b2) = run_one(&spec, &[], true);
        assert_eq!(first.committed, second.committed);
        assert_eq!(first.misspec, second.misspec);
        assert_eq!(b1, b2);
        assert!(!b1.is_empty(), "the race must present a branch point");
    }

    #[test]
    fn the_cap_cuts_exploration_short_in_breadth_first_order() {
        let spec = kernel_spec("race_detect", None);
        let mut all = Vec::new();
        let full = explore(&spec, 3, true, usize::MAX, |o| all.push(o.picks.clone()));
        assert!(full.exhausted);
        assert_eq!(full.runs, all.len());
        assert!(
            all.windows(2).all(|w| w[0].len() <= w[1].len()),
            "breadth-first: divergence counts never decrease: {all:?}"
        );
        let mut capped = Vec::new();
        let report = explore(&spec, 3, true, 3, |o| capped.push(o.picks.clone()));
        assert!(!report.exhausted, "the cap cuts enumeration short");
        assert_eq!(capped, all[..3].to_vec());
    }

    #[test]
    fn workload_exploration_terminates_under_a_bound() {
        let report = explore(
            &workload_spec("052.alvinn", Paradigm::Doacross, None),
            1,
            true,
            4,
            |_| {},
        );
        assert!(report.runs >= 1 && report.runs <= 4);
        assert_clean(&report);
    }

    #[test]
    fn workload_exploration_honours_no_reduce() {
        let spec = workload_spec("052.alvinn", Paradigm::Doall, None);
        let reduced = explore(&spec, 1, true, 10_000, |_| {});
        let full = explore(&spec, 1, false, reduced.runs + 1, |_| {});
        assert!(reduced.runs < 10_000, "the reduced search ran to its end");
        assert!(
            full.runs > reduced.runs,
            "unreduced {} runs, reduced {}",
            full.runs,
            reduced.runs
        );
    }

    #[test]
    fn a_run_that_drops_branch_points_is_not_exhaustive() {
        let spec = workload_spec("052.alvinn", Paradigm::Doall, None);
        let report = explore(&spec, 1, false, usize::MAX, |_| {});
        assert!(!report.exhausted, "dropped divergences were never explored");
        assert!(report.truncated, "the first run offers > 128 branch points");
        // At the bound the extensions are not extended again, so the cap
        // cannot cut anything short there.
        let bounded = explore(&spec, 0, false, usize::MAX, |_| {});
        assert!(bounded.exhausted && !bounded.truncated);
    }

    #[test]
    fn workload_specs_carry_the_planted_defect() {
        let bug = Some(SeedBug::StaleMigrationReplica);
        let spec = workload_spec("052.alvinn", Paradigm::Doall, bug);
        assert_eq!(spec.template.config().hmtx.seed_bug, bug);
        let failure = run_one(&spec, &[], true)
            .0
            .failure
            .expect("the defect bites");
        assert_eq!(failure.kind, "invariant", "{failure}");
    }

    #[test]
    fn machine_invariant_failures_name_their_rule() {
        let bug = Some(SeedBug::StaleMigrationReplica);
        let report = explore(&kernel_spec("race_detect", bug), 3, true, 10_000, |_| {});
        let first = report
            .failures
            .first()
            .expect("the planted defect is found");
        assert_eq!(first.picks, vec![(1, 0)]);
        let failure = first.failure.as_ref().unwrap();
        assert_eq!(failure.kind, "invariant");
        assert_eq!(
            failure.rule(),
            "at most one responding version hits per VID"
        );
        assert!(
            !failure.detail.contains("Violation {"),
            "{}",
            failure.detail
        );
    }
}
