//! The run harness: dispatches a parallelized loop onto a machine, handles
//! misspeculation recovery, and reports timing/statistics.
//!
//! Both paradigm runs, [`run_loop`] and [`run_hytm`](crate::run_hytm), go
//! through one misspeculation loop: the same set-up, the same
//! budget/livelock/invariant checks, the same count of how often the
//! *same* first uncommitted transaction `n0` has failed, the same clean-up
//! (VID reset, control-block resync, every core cleared) and the same
//! report. After the clean-up each hands the rung choice to its own
//! ladder: `run_loop` to the retry ladder below, `run_hytm` to the
//! demotion ladder of [`crate::hytm`]. Every instruction either ladder
//! retires counts against the run's budget.
//!
//! # The retry ladder
//!
//! Misspeculation is a modeled architectural event, never a fatal error.
//! The retry ladder escalates on how often `n0` has already failed:
//!
//! 1. **Parallel re-dispatch** ([`RecoveryRung::Parallel`]) — optimistically
//!    restart the paradigm from the first uncommitted transaction, up to
//!    `MachineConfig::recovery_parallel_retries` times per stuck `n0`.
//! 2. **Serialized re-execution** ([`RecoveryRung::SingleTx`]) — run `n0`
//!    alone with the full begin/commit protocol; a genuine cross-iteration
//!    conflict cannot recur with no concurrent transactions, so this rung
//!    normally guarantees one transaction of forward progress.
//! 3. **Non-speculative sequential fallback** ([`RecoveryRung::NonSpec`]) —
//!    if even the serialized rung misspeculates (possible under injected
//!    faults), execute the rest of the loop as plain sequential code with no
//!    transactions at all. Fault injection only targets speculative
//!    accesses, so this rung is immune by construction and the run always
//!    terminates.
//!
//! Exceeding `MachineConfig::max_recoveries` reports
//! [`SimError::Livelock`]; `SimError::BadProgram` is reserved for genuine
//! bugs (e.g. misspeculation *during* non-speculative execution).

use std::ops::RangeInclusive;

use hmtx_core::{faults, AccessKind, AccessRequest, AccessResponse, MisspecCause, Rules};
use hmtx_machine::{Machine, MachineStats, RunEvent, ThreadContext};
use hmtx_types::{ConfigError, CoreId, Cycle, MachineConfig, SimError, ThreadId, Vid, MAX_CORES};

use crate::body::LoopBody;
use crate::emit::{build_paradigm, GeneratedThreads, Paradigm};
use crate::env::{rcb, LoopEnv};
use crate::hytm::Demotion;

/// Attempts to rewrite the runtime control block before giving up; each
/// failed attempt drains all speculative state first, so in a correct
/// protocol the second attempt already cannot conflict.
const RCB_RESYNC_ATTEMPTS: u32 = 8;

/// Stream tag for the deterministic VID-space squeeze (chaos testing).
const VID_SQUEEZE_STREAM: u64 = 0x5649_4453_5155_455A;

/// Stream tag for the deterministic cache-capacity squeeze (chaos testing).
const CACHE_SQUEEZE_STREAM: u64 = 0x4341_4348_4553_515A;

/// Sentinel VID the begin guard's VID-exhaustion watchdog aborts with
/// (HyTM mode). Real VIDs are at most `2^12 - 1 = 4095` (`vid_bits` is
/// validated to `2..=12`), so the sentinel can never collide with one.
/// Defined in `hmtx-types` so the static analyzer recognizes the idiom.
pub use hmtx_types::VID_EXHAUSTION_SENTINEL;

/// Which rung of the recovery ladder a recovery used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryRung {
    /// Parallel re-dispatch of the paradigm from the first uncommitted
    /// transaction.
    Parallel,
    /// Serialized re-execution of the first uncommitted transaction alone,
    /// then parallel re-dispatch from the next one.
    SingleTx,
    /// Fully non-speculative sequential execution of the remaining
    /// iterations (terminal: the run finishes on this rung).
    NonSpec,
    /// HyTM demotion: the stuck transaction (or a whole storming group) ran
    /// on the SMTX-style instrumented software slow path, then the fast
    /// path resumed (non-terminal, unlike [`RecoveryRung::NonSpec`]).
    SoftwareSlowPath,
}

impl RecoveryRung {
    /// Short display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryRung::Parallel => "parallel",
            RecoveryRung::SingleTx => "single-tx",
            RecoveryRung::NonSpec => "non-spec",
            RecoveryRung::SoftwareSlowPath => "software-slow-path",
        }
    }
}

/// Why a HyTM transaction was demoted to the software slow path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemotionCause {
    /// The read or write set outgrew the configured fast-path bounds (or
    /// the cache hierarchy itself): `SpecOverflow`.
    Capacity,
    /// The begin guard's watchdog expired waiting for VID space (§4.6
    /// reset starvation under a squeezed VID range).
    VidExhaustion,
    /// `K` consecutive aborts of the same transaction by genuine conflicts.
    AbortStorm,
    /// A fault-planner injected conflict (chaos testing).
    InjectedFault,
}

impl DemotionCause {
    /// Short display name used in reports and the recovery summary.
    pub fn name(self) -> &'static str {
        match self {
            DemotionCause::Capacity => "capacity",
            DemotionCause::VidExhaustion => "vid-exhaustion",
            DemotionCause::AbortStorm => "abort-storm",
            DemotionCause::InjectedFault => "injected-fault",
        }
    }

    /// All causes, in the order reports tabulate them.
    pub const ALL: [DemotionCause; 4] = [
        DemotionCause::Capacity,
        DemotionCause::VidExhaustion,
        DemotionCause::AbortStorm,
        DemotionCause::InjectedFault,
    ];

    /// Classifies an abort as an *immediate* demotion cause, if it is one.
    /// Conflict-class aborts return `None` here; they only demote once `K`
    /// consecutive failures of one transaction make them an
    /// [`DemotionCause::AbortStorm`].
    pub fn immediate(cause: &MisspecCause) -> Option<Self> {
        match cause {
            MisspecCause::SpecOverflow { .. } => Some(DemotionCause::Capacity),
            MisspecCause::ExplicitAbort { vid } if vid.0 == VID_EXHAUSTION_SENTINEL => {
                Some(DemotionCause::VidExhaustion)
            }
            MisspecCause::InjectedConflict { .. } => Some(DemotionCause::InjectedFault),
            _ => None,
        }
    }
}

/// One recovery, as recorded in [`RunReport::recovery_log`].
#[derive(Debug, Clone)]
pub struct RecoveryRecord {
    /// The architectural cause of the abort.
    pub cause: MisspecCause,
    /// Cycle at which the misspeculation was detected.
    pub cycle: Cycle,
    /// How many times the same first-uncommitted transaction had failed when
    /// this recovery ran (1 = first failure at this point).
    pub depth: u64,
    /// The ladder rung the runtime chose.
    pub rung: RecoveryRung,
    /// HyTM only: why this recovery demoted to the software slow path
    /// (`None` for fast-path retries and every non-HyTM run).
    pub demotion: Option<DemotionCause>,
}

/// Fast/slow-path mix of one HyTM run (`None` on every other paradigm).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HytmMix {
    /// Transactions committed on the HMTX fast path.
    pub fast_commits: u64,
    /// Transactions committed on the software slow path.
    pub slow_commits: u64,
    /// Demotions by cause, indexed as [`DemotionCause::ALL`].
    pub demotions_by_cause: [u64; 4],
    /// Fast-path re-dispatches that did *not* demote (backoff retries).
    pub fast_retries: u64,
    /// Total stall cycles charged by the exponential backoff.
    pub backoff_cycles: u64,
    /// Times the storm breaker serialized a whole group on the slow path.
    pub storm_serializations: u64,
}

impl HytmMix {
    /// Total demotions across all causes.
    #[must_use]
    pub fn demotions(&self) -> u64 {
        self.demotions_by_cause.iter().sum()
    }
}

/// Result of running a parallelized loop to completion.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Paradigm that ran.
    pub paradigm: Paradigm,
    /// Completion time in cycles.
    pub cycles: Cycle,
    /// Retired instructions.
    pub instructions: u64,
    /// Times the machine aborted and the runtime re-dispatched.
    pub recoveries: u64,
    /// Causes of each recovery (the run fails with [`SimError::Livelock`]
    /// after `MachineConfig::max_recoveries` recoveries).
    pub recovery_causes: Vec<MisspecCause>,
    /// Every recovery's cause, depth, and chosen ladder rung, in order.
    pub recovery_log: Vec<RecoveryRecord>,
    /// Committed program output.
    pub outputs: Vec<u64>,
    /// Machine statistics snapshot.
    pub machine_stats: MachineStats,
    /// HyTM fast/slow-path mix (`None` unless the `hytm` mode ran).
    pub hytm: Option<HytmMix>,
}

/// Speedup of `cycles` relative to `baseline_cycles` (values above 1.0 mean
/// faster than the baseline). The single definition every experiment's
/// speedup column goes through.
#[must_use]
pub fn speedup(baseline_cycles: Cycle, cycles: Cycle) -> f64 {
    baseline_cycles as f64 / cycles.max(1) as f64
}

/// Rejects a machine whose core count a thread layout cannot place its
/// threads on (`cores` is the range it can), as a named
/// [`SimError::Config`] returned before any thread is loaded.
///
/// # Errors
///
/// [`SimError::Config`] naming `layout`, the range and the machine's core
/// count.
pub fn check_cores(
    layout: &str,
    cores: RangeInclusive<usize>,
    cfg: &MachineConfig,
) -> Result<(), SimError> {
    let n = cfg.num_cores;
    if cores.contains(&n) {
        return Ok(());
    }
    let limit = if n < *cores.start() {
        format!("needs at least {} cores", cores.start())
    } else {
        format!("supports at most {} cores", cores.end())
    };
    Err(SimError::Config(ConfigError::new(format!(
        "{layout} {limit}; the machine has {n}"
    ))))
}

/// Applies the deterministic pre-run squeezes of the fault configuration:
/// a shrunk usable VID space (forcing §4.6 overflow/reset traffic) and
/// halved L1 ways/capacity (forcing §5.4 overflow traffic). Both are pure
/// functions of the fault seed. Returns the (possibly modified) machine
/// configuration and the usable VID ceiling for the loop environment.
pub fn squeezed_config(cfg: &MachineConfig) -> (MachineConfig, u16) {
    let mut run_cfg = cfg.clone();
    let mut max_vid = cfg.hmtx.max_vid().0;
    if let Some(f) = cfg.faults {
        if f.vid_squeeze && max_vid > 4 {
            let span = (max_vid - 4) as u64 + 1;
            max_vid = 4 + faults::derive(f.seed, VID_SQUEEZE_STREAM, span) as u16;
        }
        if f.cache_squeeze {
            // One or two halvings of the L1, seed-chosen. Ways and size
            // shrink together so the set count (and its power-of-two
            // validation) is preserved.
            let halvings = 1 + faults::derive(f.seed, CACHE_SQUEEZE_STREAM, 2);
            for _ in 0..halvings {
                if run_cfg.l1.ways > 1 {
                    run_cfg.l1.ways /= 2;
                    run_cfg.l1.size_bytes /= 2;
                }
            }
        }
    }
    (run_cfg, max_vid)
}

/// The machine configuration and loop environment a [`run_loop`] of
/// `paradigm` starts from: the core count checked, the fault plan's
/// squeezes applied ([`squeezed_config`]) and the worker pool sized.
///
/// # Errors
///
/// [`SimError::Config`] when `paradigm` cannot run on `cfg`'s cores.
pub fn loop_env(
    paradigm: Paradigm,
    cfg: &MachineConfig,
) -> Result<(MachineConfig, LoopEnv), SimError> {
    check_cores(paradigm.name(), paradigm.min_cores()..=MAX_CORES, cfg)?;
    let (run_cfg, max_vid) = squeezed_config(cfg);
    let env = LoopEnv::new(max_vid, paradigm.workers(run_cfg.num_cores))
        .with_pipeline_window(run_cfg.pipeline_window);
    Ok((run_cfg, env))
}

/// A fresh machine built from `cfg` with `body`'s image in memory and
/// `paradigm`'s threads loaded from the first transaction: the state every
/// paradigm run starts in (`cfg` and `env` as [`loop_env`] or
/// [`hytm_env`](crate::hytm_env) return them).
///
/// # Errors
///
/// [`SimError::Config`] for an invalid machine configuration, or the code
/// generation error of an invalid loop.
pub fn start(
    paradigm: Paradigm,
    body: &dyn LoopBody,
    cfg: MachineConfig,
    env: &LoopEnv,
) -> Result<Machine, SimError> {
    let mut machine = Machine::try_new(cfg)?;
    body.build_image(&mut machine, env);
    load(&mut machine, build_paradigm(paradigm, body, env, 1)?);
    Ok(machine)
}

/// Runs `body` under `paradigm` on a fresh machine built from `cfg`,
/// recovering from every misspeculation on the retry ladder (see the
/// module docs).
///
/// Returns the machine (for memory verification and statistics) together
/// with the report.
///
/// # Errors
///
/// Returns [`SimError::Config`] for an invalid machine configuration,
/// [`SimError`] for guest-program bugs, when the instruction budget is
/// exceeded, or — as [`SimError::Livelock`] — when the run recovers
/// `cfg.max_recoveries` times without completing.
pub fn run_loop(
    paradigm: Paradigm,
    body: &dyn LoopBody,
    cfg: &MachineConfig,
    budget: u64,
) -> Result<(Machine, RunReport), SimError> {
    let (run_cfg, env) = loop_env(paradigm, cfg)?;
    drive(paradigm, body, run_cfg, env, budget, None)
}

/// A paradigm run in progress: the machine and what a ladder needs to
/// re-dispatch onto it.
pub(crate) struct Run<'a> {
    pub(crate) paradigm: Paradigm,
    pub(crate) body: &'a dyn LoopBody,
    pub(crate) env: LoopEnv,
    pub(crate) machine: Machine,
    /// Instructions the whole run may retire, whatever rung retires them.
    pub(crate) budget: u64,
}

impl Run<'_> {
    /// Runs the machine on what is left of the budget until every thread
    /// halts (`None`) or a misspeculation aborts it (its cause and cycle);
    /// running out of budget is `SimError::InstructionBudgetExceeded`.
    pub(crate) fn run(&mut self) -> Result<Option<(MisspecCause, Cycle)>, SimError> {
        let left = self
            .budget
            .saturating_sub(self.machine.stats().instructions);
        match self.machine.run(left)? {
            RunEvent::AllHalted => Ok(None),
            RunEvent::Misspeculation { cause, cycle } => Ok(Some((cause, cycle))),
            RunEvent::BudgetExhausted => Err(SimError::InstructionBudgetExceeded {
                budget: self.budget,
            }),
        }
    }

    /// Loads the paradigm's generated threads starting at transaction `n0`.
    pub(crate) fn dispatch(&mut self, n0: u64) -> Result<(), SimError> {
        let generated = build_paradigm(self.paradigm, self.body, &self.env, n0)?;
        load(&mut self.machine, generated);
        Ok(())
    }

    /// The clean-up after an abort, which has already flushed all
    /// speculative state and queues: frees the VID space (everything
    /// uncommitted is gone, so every outstanding VID is committed),
    /// re-synchronizes the control block to `committed` and clears every
    /// core.
    fn clean_up(&mut self, committed: u64, cycle: Cycle) -> Result<(), SimError> {
        if self.machine.mem().last_committed() > Vid::NON_SPECULATIVE {
            self.machine.vid_reset();
        }
        resync_rcb(&mut self.machine, &self.env, committed, cycle)?;
        self.unload_all();
        Ok(())
    }

    pub(crate) fn unload_all(&mut self) {
        for core in 0..self.machine.config().num_cores {
            self.machine.unload_thread(core);
        }
    }
}

/// The one misspeculation loop behind [`run_loop`] and
/// [`run_hytm`](crate::run_hytm): starts the machine, runs it, and on each
/// abort counts the recovery, checks for livelock and the protocol
/// invariants, tracks how often the same transaction `n0` has failed,
/// cleans up and climbs a ladder — the demotion ladder when `demotion` is
/// given, else the retry ladder.
pub(crate) fn drive(
    paradigm: Paradigm,
    body: &dyn LoopBody,
    cfg: MachineConfig,
    env: LoopEnv,
    budget: u64,
    mut demotion: Option<Demotion>,
) -> Result<(Machine, RunReport), SimError> {
    let machine = start(paradigm, body, cfg, &env)?;
    let mut run = Run {
        paradigm,
        body,
        env,
        machine,
        budget,
    };

    let mut recoveries = 0u64;
    let mut recovery_causes = Vec::new();
    let mut recovery_log: Vec<RecoveryRecord> = Vec::new();
    let mut stuck_n0 = 0u64;
    let mut depth = 0u64;
    while let Some((cause, cycle)) = run.run()? {
        recoveries += 1;
        if recoveries > run.machine.config().max_recoveries {
            return Err(SimError::Livelock {
                recoveries,
                last_cause: format!("{cause:?}"),
            });
        }
        if recovery_log
            .last()
            .is_some_and(|r| r.rung == RecoveryRung::NonSpec)
        {
            // Fault injection never targets non-speculative execution, so
            // this is a genuine simulator/program bug.
            return Err(SimError::BadProgram(format!(
                "misspeculation during non-speculative fallback: {cause:?}"
            )));
        }
        // The machine already aborted all speculative state; the hierarchy
        // is quiescent, so fault schedules can be validated against the
        // protocol invariants here.
        chaos_invariant_check(&run.machine)?;

        let slow_commits = demotion.as_ref().map_or(0, |d| d.mix.slow_commits);
        let committed = run.machine.mem().stats().commits + slow_commits;
        let n0 = committed + 1;
        if n0 == stuck_n0 {
            depth += 1;
        } else {
            stuck_n0 = n0;
            depth = 1;
        }
        run.clean_up(committed, cycle)?;
        let (rung, why) = match &mut demotion {
            None => (retry(&mut run, n0, depth)?, None),
            Some(d) => d.climb(&mut run, &cause, n0, depth)?,
        };
        if rung == RecoveryRung::SoftwareSlowPath {
            // The slab committed `n0` and more: the count starts afresh,
            // and the record reads depth 0.
            stuck_n0 = 0;
            depth = 0;
        }
        recovery_causes.push(cause);
        recovery_log.push(RecoveryRecord {
            cause,
            cycle,
            depth,
            rung,
            demotion: why,
        });
    }

    chaos_invariant_check(&run.machine)?;
    let machine = run.machine;
    if let Some(expected) = body.expected_outputs() {
        let got = machine.committed_output().len() as u64;
        debug_assert_eq!(expected, got, "workload output count mismatch");
    }

    let report = RunReport {
        paradigm,
        cycles: machine.cycles(),
        instructions: machine.stats().instructions,
        recoveries,
        recovery_causes,
        recovery_log,
        outputs: machine.committed_output().to_vec(),
        machine_stats: *machine.stats(),
        hytm: demotion.map(|d| HytmMix {
            fast_commits: machine.mem().stats().commits,
            ..d.mix
        }),
    };
    Ok((machine, report))
}

/// When the fault configuration asks for it, scan the hierarchy for
/// protocol invariant violations (quiescent points only).
fn chaos_invariant_check(machine: &Machine) -> Result<(), SimError> {
    if !machine.config().faults.is_some_and(|f| f.check_invariants) {
        return Ok(());
    }
    match machine.mem().first_violation(Rules::Protocol) {
        None => Ok(()),
        Some(v) => Err(SimError::BadProgram(format!(
            "protocol invariant violated after recovery: {v:?}"
        ))),
    }
}

/// Loads generated thread programs onto their cores.
fn load(machine: &mut Machine, generated: GeneratedThreads) {
    for (i, t) in generated.threads.into_iter().enumerate() {
        machine.load_thread(t.core, ThreadContext::new(ThreadId(i), t.program));
    }
}

/// Re-synchronizes the runtime control block with the true commit count via
/// plain non-speculative stores, charging normal memory latency. A store
/// that hits lingering speculative marks retries after draining all
/// speculative state (a conflict here means some cache still holds
/// speculative versions — exactly what an abort flush removes).
pub(crate) fn resync_rcb(
    machine: &mut Machine,
    env: &LoopEnv,
    committed: u64,
    cycle: Cycle,
) -> Result<(), SimError> {
    let mut attempts = 0u32;
    'resync: loop {
        let now = machine.cycles().max(cycle);
        for (offset, value) in [(rcb::LAST_COMMITTED, committed), (rcb::VID_BASE, committed)] {
            let req = AccessRequest {
                core: CoreId(0),
                addr: env.rcb.offset(offset),
                kind: AccessKind::Write(value),
                vid: Vid::NON_SPECULATIVE,
                wrong_path: false,
            };
            match machine.mem_mut().access(now, &req)? {
                AccessResponse::Done { .. } => {}
                AccessResponse::Misspec { .. } => {
                    attempts += 1;
                    if attempts >= RCB_RESYNC_ATTEMPTS {
                        return Err(SimError::BadProgram(
                            "runtime control block still conflicting after draining \
                             speculative state"
                                .into(),
                        ));
                    }
                    machine.machine_abort(now);
                    continue 'resync;
                }
            }
        }
        return Ok(());
    }
}

/// Runs transaction `n0` alone (both stages inline, full begin/commit
/// protocol). Returns `None` on success or the misspeculation that stopped
/// it; either way every core is left unloaded.
pub(crate) fn run_single_tx(
    run: &mut Run<'_>,
    n0: u64,
) -> Result<Option<(MisspecCause, Cycle)>, SimError> {
    run.unload_all();
    load(
        &mut run.machine,
        crate::emit::build_single_tx(run.body, &run.env, n0)?,
    );
    let outcome = run.run()?;
    run.unload_all();
    Ok(outcome)
}

/// The retry ladder of [`run_loop`] (see the module docs): parallel
/// re-dispatch while `depth` is within the retry budget, then serialized
/// re-execution of the stuck transaction, then — if even that
/// misspeculates — fully non-speculative sequential execution of the
/// remaining loop.
fn retry(run: &mut Run<'_>, n0: u64, depth: u64) -> Result<RecoveryRung, SimError> {
    // Rung 1: optimistic parallel re-dispatch (also used when every
    // iteration already committed and only the epilogue needs to re-run).
    if n0 > run.body.iterations() || depth <= run.machine.config().recovery_parallel_retries {
        run.dispatch(n0)?;
        return Ok(RecoveryRung::Parallel);
    }

    // Rung 2: serialized re-execution of the stuck transaction.
    let Some((_cause, misspec_cycle)) = run_single_tx(run, n0)? else {
        run.dispatch(n0 + 1)?;
        return Ok(RecoveryRung::SingleTx);
    };

    // Rung 3: even a lone transaction misspeculated (an injected fault, or
    // cache pressure no re-execution can relieve). Finish the loop fully
    // non-speculatively; injection never targets non-speculative accesses,
    // so this always terminates.
    let committed = run.machine.mem().stats().commits;
    run.clean_up(committed, misspec_cycle)?;
    let seq = crate::emit::build_sequential(run.body, &run.env, committed + 1)?;
    load(&mut run.machine, seq);
    Ok(RecoveryRung::NonSpec)
}
