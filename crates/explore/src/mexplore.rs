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
//! the frontier explores children breadth-first up to the preemption bound
//! (= divergence count). Every run executes on a fresh machine, so state
//! never leaks between schedules.
//!
//! Oracles: assembly kernels are compared against the
//! [`hmtx_isa::run_serial_tm`] sequential TM interpreter — at every group
//! commit the tracked words of the machine's committed-prefix view must
//! equal the oracle's snapshot for that VID, and halted runs must reproduce
//! the oracle's final memory and output. Workload runs (generated runtime
//! code spin-waits on the runtime control block, which a sequential TM
//! interpreter cannot follow) are checked for protocol invariants and
//! termination only, with the Sequential-paradigm output as the end-state
//! reference.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use hmtx_core::MemorySystem;
use hmtx_isa::{assemble, run_serial_tm, Program, TmRefState};
use hmtx_machine::{CoreEvent, Machine, RunEvent, SchedulePolicy, ThreadContext};
use hmtx_runtime::{build_paradigm, LoopBody, LoopEnv, Paradigm};
use hmtx_types::{Addr, MachineConfig, SeedBug, SimError, ThreadId, Vid};

use crate::frontier;
use crate::kernel::AsmKernel;
use crate::Failure;

/// Branch points recorded during a run: `(step, alternative cores)` pairs,
/// each an extension candidate for iterative context bounding.
pub type BranchPoints = Vec<(u64, Vec<usize>)>;

/// Per-run cap on recorded branch points: bounds the frontier's branching
/// factor; exploration that hits it still replays correctly, it just stops
/// proposing new divergences for that run.
const MAX_BRANCH_POINTS: usize = 64;

/// Instruction-step budget for the serial TM oracle.
const ORACLE_STEPS: u64 = 1_000_000;

/// A fully prepared machine-level exploration target.
pub struct MachineSpec {
    /// Kernel/workload name (stamped into corpus seeds).
    pub name: String,
    /// Assembled guest programs, thread `i` on core `i`.
    pub programs: Vec<Arc<Program>>,
    /// Machine configuration every run starts from.
    pub cfg: MachineConfig,
    /// Initial memory words.
    pub init: Vec<(u64, u64)>,
    /// Word addresses the oracle comparison checks.
    pub tracked: Vec<u64>,
    /// Instruction budget per run.
    pub budget: u64,
}

impl MachineSpec {
    /// Assembles an [`AsmKernel`] into a spec (quick configuration, one
    /// core per thread, optional planted defect).
    ///
    /// # Errors
    ///
    /// Returns assembly errors.
    pub fn from_kernel(
        kernel: &AsmKernel,
        budget: u64,
        seed_bug: Option<SeedBug>,
    ) -> Result<Self, SimError> {
        let mut programs = Vec::with_capacity(kernel.threads.len());
        for t in &kernel.threads {
            programs.push(Arc::new(assemble(t)?));
        }
        let mut cfg = MachineConfig::test_default();
        cfg.num_cores = kernel.threads.len().max(2);
        cfg.hmtx.seed_bug = seed_bug;
        Ok(MachineSpec {
            name: kernel.name.to_string(),
            programs,
            cfg,
            init: kernel.init.clone(),
            tracked: kernel.tracked.clone(),
            budget,
        })
    }

    /// Runs the serial TM oracle over this spec's programs.
    ///
    /// # Errors
    ///
    /// Propagates oracle interpretation errors (deadlock, unsupported
    /// instructions, step budget).
    pub fn oracle(&self) -> Result<TmRefState, SimError> {
        let refs: Vec<&Program> = self.programs.iter().map(Arc::as_ref).collect();
        let init: HashMap<u64, u64> = self.init.iter().copied().collect();
        run_serial_tm(&refs, ORACLE_STEPS, &init)
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
    /// checked against the oracle).
    pub misspec: Option<String>,
    /// Failure, if any.
    pub failure: Option<Failure>,
}

/// Aggregate result of exploring one machine spec.
#[derive(Debug, Clone)]
pub struct MachineReport {
    /// Schedules executed.
    pub runs: usize,
    /// Whether the bounded space drained before the run cap.
    pub exhausted: bool,
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
    divergences: BTreeMap<u64, usize>,
    /// First step at which new branch points may be recorded (one past the
    /// last divergence — iterative context bounding only ever extends a
    /// schedule *after* its existing divergences).
    frontier_after: u64,
    reduce: bool,
    branches: Vec<(u64, Vec<usize>)>,
    oracle: Option<&'a TmRefState>,
    tracked: &'a [u64],
    violations: Vec<Failure>,
}

impl fmt::Debug for ExplorePolicy<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExplorePolicy")
            .field("divergences", &self.divergences)
            .field("branches", &self.branches.len())
            .finish()
    }
}

impl<'a> ExplorePolicy<'a> {
    fn new(
        picks: &[(u64, usize)],
        reduce: bool,
        oracle: Option<&'a TmRefState>,
        tracked: &'a [u64],
    ) -> Self {
        let divergences: BTreeMap<u64, usize> = picks.iter().copied().collect();
        let frontier_after = divergences.keys().next_back().map_or(0, |s| s + 1);
        ExplorePolicy {
            divergences,
            frontier_after,
            reduce,
            branches: Vec::new(),
            oracle,
            tracked,
            violations: Vec::new(),
        }
    }
}

impl SchedulePolicy for ExplorePolicy<'_> {
    fn pick(&mut self, step: u64, enabled: &[CoreEvent]) -> usize {
        let idx = match self.divergences.get(&step) {
            Some(&core) => enabled.iter().position(|e| e.core == core).unwrap_or(0),
            None => 0,
        };
        if step >= self.frontier_after
            && enabled.len() >= 2
            && self.branches.len() < MAX_BRANCH_POINTS
        {
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
                self.branches.push((step, alts));
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
        let violations = mem.check_invariants();
        if let Some(v) = violations.first() {
            self.violations.push(Failure::invariant(
                &format!("after commit of v{}", vid.0),
                v,
            ));
            return Ok(());
        }
        if let Some(oracle) = self.oracle {
            let Some(snap) = oracle.commits.iter().find(|c| c.vid == vid.0) else {
                self.violations.push(Failure {
                    kind: "oracle",
                    detail: format!("machine committed v{} but the oracle never did", vid.0),
                });
                return Ok(());
            };
            for &addr in self.tracked {
                let got = mem.peek_word(Addr(addr), vid);
                let want = *snap.memory.get(&addr).unwrap_or(&0);
                if got != want {
                    self.violations.push(Failure {
                        kind: "oracle",
                        detail: format!(
                            "after commit of v{}: word {addr:#x} is {got}, oracle says {want}",
                            vid.0
                        ),
                    });
                    return Ok(());
                }
            }
        }
        Ok(())
    }
}

/// Executes one schedule (divergence list) of `spec` on a fresh machine.
/// Returns the outcome plus the branch points recorded past the last
/// divergence (each an extension candidate for iterative context bounding).
pub fn run_one(
    spec: &MachineSpec,
    picks: &[(u64, usize)],
    oracle: Option<&TmRefState>,
    reduce: bool,
) -> (MachineOutcome, BranchPoints) {
    let result = catch_unwind(AssertUnwindSafe(|| run_inner(spec, picks, oracle, reduce)));
    match result {
        Ok(pair) => pair,
        Err(payload) => (
            MachineOutcome {
                picks: picks.to_vec(),
                committed: 0,
                misspec: None,
                failure: Some(Failure::from_panic(payload)),
            },
            Vec::new(),
        ),
    }
}

fn run_inner(
    spec: &MachineSpec,
    picks: &[(u64, usize)],
    oracle: Option<&TmRefState>,
    reduce: bool,
) -> (MachineOutcome, BranchPoints) {
    let mut machine = Machine::new(spec.cfg.clone());
    for (addr, value) in &spec.init {
        machine.mem_mut().memory_mut().write_word(Addr(*addr), *value);
    }
    for (i, p) in spec.programs.iter().enumerate() {
        machine.load_thread(i, ThreadContext::new(ThreadId(i), Arc::clone(p)));
    }
    let mut policy = ExplorePolicy::new(picks, reduce, oracle, &spec.tracked);
    let event = machine.run_with_policy(spec.budget, &mut policy);
    let mut outcome = MachineOutcome {
        picks: picks.to_vec(),
        committed: machine.mem().last_committed().0,
        misspec: None,
        failure: None,
    };
    if let Some(v) = policy.violations.first() {
        outcome.failure = Some(v.clone());
        return (outcome, policy.branches);
    }
    match event {
        Err(e) => {
            outcome.failure = Some(Failure {
                kind: "sim-error",
                detail: e.to_string(),
            });
        }
        Ok(RunEvent::BudgetExhausted) => {
            outcome.failure = Some(Failure {
                kind: "budget",
                detail: format!("instruction budget ({}) exhausted", spec.budget),
            });
        }
        Ok(RunEvent::Misspeculation { cause, cycle }) => {
            outcome.misspec = Some(format!("{cause:?} at cycle {cycle}"));
            // The machine already aborted all speculative state; the
            // committed prefix must be sound and must match the oracle's
            // prefix for the last committed VID.
            check_quiescent(&machine, oracle, spec, outcome.committed, &mut outcome);
        }
        Ok(RunEvent::AllHalted) => {
            check_quiescent(&machine, oracle, spec, outcome.committed, &mut outcome);
            if outcome.failure.is_none() {
                if let Some(oracle) = oracle {
                    let mut got = machine.committed_output().to_vec();
                    let mut want = oracle.output.clone();
                    got.sort_unstable();
                    want.sort_unstable();
                    if got != want {
                        outcome.failure = Some(Failure {
                            kind: "oracle",
                            detail: format!("halted with output {got:?}, oracle says {want:?}"),
                        });
                    } else if outcome.committed as usize != oracle.commits.len() {
                        outcome.failure = Some(Failure {
                            kind: "oracle",
                            detail: format!(
                                "halted having committed v{}, oracle committed {}",
                                outcome.committed,
                                oracle.commits.len()
                            ),
                        });
                    }
                }
            }
        }
    }
    (outcome, policy.branches)
}

/// Quiescent-point checks shared by halted and aborted runs: protocol
/// invariants, then the tracked words of the committed prefix against the
/// oracle snapshot for `committed` (or the initial memory when nothing
/// committed).
fn check_quiescent(
    machine: &Machine,
    oracle: Option<&TmRefState>,
    spec: &MachineSpec,
    committed: u16,
    outcome: &mut MachineOutcome,
) {
    let violations = machine.mem().check_invariants();
    if let Some(v) = violations.first() {
        outcome.failure = Some(Failure::invariant("at end of run", v));
        return;
    }
    let Some(oracle) = oracle else { return };
    // Nothing committed yet: the expectation is the initial memory image
    // (oracle snapshots clone the full interpreter memory, initial words
    // included, so the snapshot arm needs no init fallback).
    let snap = oracle.commits.iter().find(|c| c.vid == committed);
    let init_val = |addr: u64| {
        spec.init
            .iter()
            .find(|(a, _)| *a == addr)
            .map_or(0, |(_, v)| *v)
    };
    for &addr in &spec.tracked {
        let got = machine.mem().peek_word(Addr(addr), Vid(committed));
        let want = match snap {
            Some(s) => s.memory.get(&addr).copied().unwrap_or_else(|| init_val(addr)),
            None => init_val(addr),
        };
        if got != want {
            outcome.failure = Some(Failure {
                kind: "oracle",
                detail: format!(
                    "end of run (v{committed} committed): word {addr:#x} is {got}, \
                     oracle says {want}"
                ),
            });
            return;
        }
    }
}

/// Explores a machine spec to the preemption bound.
pub fn explore_spec(
    spec: &MachineSpec,
    oracle: Option<&TmRefState>,
    preemptions: u32,
    reduce: bool,
    cap: usize,
    jobs: usize,
) -> MachineReport {
    let (outcomes, exhausted) =
        frontier::run_frontier(vec![Vec::new()], jobs, cap, |picks: &Vec<(u64, usize)>| {
            let (outcome, branches) = run_one(spec, picks, oracle, reduce);
            let children = if picks.len() < preemptions as usize && outcome.failure.is_none() {
                branches
                    .iter()
                    .flat_map(|(step, alts)| {
                        alts.iter().map(|&core| {
                            let mut d = picks.clone();
                            d.push((*step, core));
                            d
                        })
                    })
                    .collect()
            } else {
                Vec::new()
            };
            (outcome, children)
        });
    summarize(outcomes, exhausted)
}

fn summarize(outcomes: Vec<MachineOutcome>, exhausted: bool) -> MachineReport {
    let mut report = MachineReport {
        runs: outcomes.len(),
        exhausted,
        misspecs: 0,
        halts: 0,
        failures: Vec::new(),
    };
    for o in outcomes {
        if o.misspec.is_some() {
            report.misspecs += 1;
        } else if o.failure.is_none() {
            report.halts += 1;
        }
        if o.failure.is_some() {
            report.failures.push(o);
        }
    }
    report
}

/// Assembles, oracles, and explores a built-in assembly kernel.
///
/// # Errors
///
/// Returns assembly or oracle errors.
pub fn explore_kernel(
    kernel: &AsmKernel,
    preemptions: u32,
    reduce: bool,
    cap: usize,
    jobs: usize,
    seed_bug: Option<SeedBug>,
    budget: u64,
) -> Result<MachineReport, SimError> {
    let spec = MachineSpec::from_kernel(kernel, budget, seed_bug)?;
    let oracle = spec.oracle()?;
    Ok(explore_spec(&spec, Some(&oracle), preemptions, reduce, cap, jobs))
}

/// Explores a workload's generated parallel code under schedule
/// perturbation: protocol invariants at every commit, termination within
/// the budget, and — for runs that halt — the Sequential-paradigm committed
/// output as the reference. Runs serially (workload bodies are trait
/// objects without a `Sync` bound).
///
/// # Errors
///
/// Returns [`SimError`] when the baseline (zero-divergence) setup fails —
/// code generation bugs, not schedule-dependent outcomes.
pub fn explore_workload(
    body: &dyn LoopBody,
    paradigm: Paradigm,
    preemptions: u32,
    cap: usize,
    budget: u64,
) -> Result<MachineReport, SimError> {
    let cfg = MachineConfig::test_default();
    // Reference output: the sequential paradigm on the untouched scheduler.
    let reference = hmtx_runtime::run_loop(Paradigm::Sequential, body, &cfg, budget)?
        .1
        .outputs;

    let mut queue: std::collections::VecDeque<Vec<(u64, usize)>> = [Vec::new()].into();
    let mut outcomes = Vec::new();
    let mut exhausted = true;
    while let Some(picks) = queue.pop_front() {
        if outcomes.len() >= cap {
            exhausted = false;
            break;
        }
        let (outcome, branches) = run_workload_once(body, paradigm, &cfg, &picks, budget, &reference);
        let extend = picks.len() < preemptions as usize && outcome.failure.is_none();
        if extend {
            for (step, alts) in &branches {
                for &core in alts {
                    let mut d = picks.clone();
                    d.push((*step, core));
                    queue.push_back(d);
                }
            }
        }
        outcomes.push(outcome);
    }
    Ok(summarize(outcomes, exhausted))
}

fn run_workload_once(
    body: &dyn LoopBody,
    paradigm: Paradigm,
    cfg: &MachineConfig,
    picks: &[(u64, usize)],
    budget: u64,
    reference: &[u64],
) -> (MachineOutcome, BranchPoints) {
    let inner = || -> Result<(MachineOutcome, BranchPoints), SimError> {
        let workers = match paradigm {
            Paradigm::Sequential | Paradigm::Dswp => 1,
            Paradigm::Doall | Paradigm::Doacross => cfg.num_cores,
            Paradigm::PsDswp => cfg.num_cores.saturating_sub(1).max(1),
        };
        let env =
            LoopEnv::new(cfg.hmtx.max_vid().0, workers).with_pipeline_window(cfg.pipeline_window);
        let mut machine = Machine::new(cfg.clone());
        body.build_image(&mut machine, &env);
        let generated = build_paradigm(paradigm, body, &env, 1)?;
        for (i, t) in generated.threads.into_iter().enumerate() {
            machine.load_thread(t.core, ThreadContext::new(ThreadId(i), t.program));
        }
        let mut policy = ExplorePolicy::new(picks, true, None, &[]);
        let event = machine.run_with_policy(budget, &mut policy)?;
        let mut outcome = MachineOutcome {
            picks: picks.to_vec(),
            committed: machine.mem().last_committed().0,
            misspec: None,
            failure: None,
        };
        if let Some(v) = policy.violations.first() {
            outcome.failure = Some(v.clone());
            return Ok((outcome, policy.branches));
        }
        match event {
            RunEvent::BudgetExhausted => {
                outcome.failure = Some(Failure {
                    kind: "budget",
                    detail: format!("instruction budget ({budget}) exhausted"),
                });
            }
            RunEvent::Misspeculation { cause, cycle } => {
                // Legal: the runtime's recovery ladder would re-dispatch
                // here; for exploration the post-abort hierarchy just has
                // to be sound.
                outcome.misspec = Some(format!("{cause:?} at cycle {cycle}"));
                if let Some(v) = machine.mem().check_invariants().first() {
                    outcome.failure = Some(Failure::invariant("after abort", v));
                }
            }
            RunEvent::AllHalted => {
                if let Some(v) = machine.mem().check_invariants().first() {
                    outcome.failure = Some(Failure::invariant("at end of run", v));
                } else if machine.committed_output() != reference {
                    outcome.failure = Some(Failure {
                        kind: "oracle",
                        detail: format!(
                            "halted with {} outputs, sequential reference has {}",
                            machine.committed_output().len(),
                            reference.len()
                        ),
                    });
                }
            }
        }
        Ok((outcome, policy.branches))
    };
    match catch_unwind(AssertUnwindSafe(inner)) {
        Ok(Ok(pair)) => pair,
        Ok(Err(e)) => (
            MachineOutcome {
                picks: picks.to_vec(),
                committed: 0,
                misspec: None,
                failure: Some(Failure {
                    kind: "sim-error",
                    detail: e.to_string(),
                }),
            },
            Vec::new(),
        ),
        Err(payload) => (
            MachineOutcome {
                picks: picks.to_vec(),
                committed: 0,
                misspec: None,
                failure: Some(Failure::from_panic(payload)),
            },
            Vec::new(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{asm_kernels, ADDR_A, ADDR_B};

    fn kernel(name: &str) -> AsmKernel {
        asm_kernels().into_iter().find(|k| k.name == name).unwrap()
    }

    #[test]
    fn handoff_is_clean_to_preemption_bound_three() {
        let report = explore_kernel(&kernel("handoff"), 3, true, 10_000, 2, None, 20_000).unwrap();
        assert!(report.exhausted, "bounded space must drain");
        assert!(report.runs > 1, "branch points must be found");
        assert!(
            report.failures.is_empty(),
            "first failure: {}",
            report.failures[0].failure.as_ref().unwrap()
        );
        assert!(report.halts >= 1);
    }

    #[test]
    fn race_detect_misspeculates_on_some_schedules_and_stays_sound() {
        let report =
            explore_kernel(&kernel("race_detect"), 3, true, 10_000, 2, None, 20_000).unwrap();
        assert!(report.exhausted);
        assert!(
            report.failures.is_empty(),
            "first failure: {}",
            report.failures[0].failure.as_ref().unwrap()
        );
        assert!(report.halts >= 1, "store-first schedules commit");
    }

    #[test]
    fn oracle_knows_the_handoff_answer() {
        let spec = MachineSpec::from_kernel(&kernel("handoff"), 20_000, None).unwrap();
        let oracle = spec.oracle().unwrap();
        assert_eq!(oracle.output, vec![8]);
        assert_eq!(oracle.commits.len(), 2);
        let last = oracle.commits.last().unwrap();
        assert_eq!(last.memory.get(&ADDR_A), Some(&7));
        assert_eq!(last.memory.get(&ADDR_B), Some(&8));
    }

    #[test]
    fn runs_are_deterministic_per_divergence_list() {
        let spec = MachineSpec::from_kernel(&kernel("race_detect"), 20_000, None).unwrap();
        let oracle = spec.oracle().unwrap();
        let (first, b1) = run_one(&spec, &[], Some(&oracle), true);
        let (second, b2) = run_one(&spec, &[], Some(&oracle), true);
        assert_eq!(first.committed, second.committed);
        assert_eq!(first.misspec, second.misspec);
        assert_eq!(b1, b2);
        assert!(!b1.is_empty(), "the race must present a branch point");
    }

    #[test]
    fn workload_exploration_terminates_under_a_bound() {
        let suite = hmtx_workloads::suite(hmtx_workloads::Scale::Quick);
        let body = suite
            .iter()
            .find(|w| w.meta().name.contains("alvinn"))
            .unwrap();
        let report =
            explore_workload(body.as_ref(), Paradigm::Doacross, 1, 4, 50_000_000).unwrap();
        assert!(report.runs >= 1 && report.runs <= 4);
        assert!(
            report.failures.is_empty(),
            "first failure: {}",
            report.failures[0].failure.as_ref().unwrap()
        );
    }

    #[test]
    fn machine_invariant_failures_name_their_rule() {
        let bug = Some(SeedBug::StaleMigrationReplica);
        let report =
            explore_kernel(&kernel("race_detect"), 3, true, 10_000, 2, bug, 50_000).unwrap();
        let first = report
            .failures
            .first()
            .expect("the planted defect is found");
        assert_eq!(first.picks, vec![(7, 0)]);
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
