//! The run harness: dispatches a parallelized loop onto a machine, handles
//! misspeculation recovery, and reports timing/statistics.
//!
//! # The recovery ladder
//!
//! Misspeculation is a modeled architectural event, never a fatal error. On
//! each abort the runtime re-synchronizes the control block and climbs an
//! escalation ladder keyed on how often the *same* transaction `n0` has
//! already failed:
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
use crate::emit::{build_paradigm, Paradigm};
use crate::env::{rcb, LoopEnv};

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

/// Runs `body` under `paradigm` on a fresh machine built from `cfg`.
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
    check_cores(paradigm.name(), paradigm.min_cores()..=MAX_CORES, cfg)?;
    let workers = paradigm.workers(cfg.num_cores);
    let (run_cfg, max_vid) = squeezed_config(cfg);
    let env = LoopEnv::new(max_vid, workers).with_pipeline_window(run_cfg.pipeline_window);
    let mut machine = Machine::try_new(run_cfg)?;
    body.build_image(&mut machine, &env);

    dispatch(paradigm, body, &env, &mut machine, 1)?;

    let mut recoveries = 0u64;
    let mut recovery_causes = Vec::new();
    let mut recovery_log: Vec<RecoveryRecord> = Vec::new();
    let mut stuck_n0 = 0u64;
    let mut depth = 0u64;
    let mut nonspec = false;
    let mut spent = 0u64;
    loop {
        let before = machine.stats().instructions;
        let event = machine.run(budget.saturating_sub(spent))?;
        spent += machine.stats().instructions - before;
        match event {
            RunEvent::AllHalted => break,
            RunEvent::BudgetExhausted => {
                return Err(SimError::InstructionBudgetExceeded { budget });
            }
            RunEvent::Misspeculation { cause, cycle } => {
                recoveries += 1;
                if recoveries > cfg.max_recoveries {
                    return Err(SimError::Livelock {
                        recoveries,
                        last_cause: format!("{cause:?}"),
                    });
                }
                if nonspec {
                    // Fault injection never targets non-speculative
                    // execution, so this is a genuine simulator/program bug.
                    return Err(SimError::BadProgram(format!(
                        "misspeculation during non-speculative fallback: {cause:?}"
                    )));
                }
                // The machine already aborted all speculative state; the
                // hierarchy is quiescent, so fault schedules can be
                // validated against the protocol invariants here.
                chaos_invariant_check(cfg, &machine)?;

                let committed = machine.mem().stats().commits;
                let n0 = committed + 1;
                if n0 == stuck_n0 {
                    depth += 1;
                } else {
                    stuck_n0 = n0;
                    depth = 1;
                }
                let rung = recover(
                    paradigm,
                    body,
                    &env,
                    &mut machine,
                    cycle,
                    n0,
                    depth,
                    cfg.recovery_parallel_retries,
                )?;
                if rung == RecoveryRung::NonSpec {
                    nonspec = true;
                }
                recovery_causes.push(cause);
                recovery_log.push(RecoveryRecord {
                    cause,
                    cycle,
                    depth,
                    rung,
                    demotion: None,
                });
            }
        }
    }

    chaos_invariant_check(cfg, &machine)?;
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
        hytm: None,
    };
    Ok((machine, report))
}

/// When the fault configuration asks for it, scan the hierarchy for
/// protocol invariant violations (quiescent points only).
///
/// # Errors
///
/// Returns [`SimError::BadProgram`] naming the first violation found.
pub fn chaos_invariant_check(cfg: &MachineConfig, machine: &Machine) -> Result<(), SimError> {
    if !cfg.faults.is_some_and(|f| f.check_invariants) {
        return Ok(());
    }
    match machine.mem().first_violation(Rules::Protocol) {
        None => Ok(()),
        Some(v) => Err(SimError::BadProgram(format!(
            "protocol invariant violated after recovery: {v:?}"
        ))),
    }
}

/// Loads the generated thread programs onto their cores.
fn dispatch(
    paradigm: Paradigm,
    body: &dyn LoopBody,
    env: &LoopEnv,
    machine: &mut Machine,
    n0: u64,
) -> Result<(), SimError> {
    let generated = build_paradigm(paradigm, body, env, n0)?;
    for (i, t) in generated.threads.into_iter().enumerate() {
        machine.load_thread(t.core, ThreadContext::new(ThreadId(i), t.program));
    }
    Ok(())
}

/// Re-synchronizes the runtime control block with the true commit count via
/// plain non-speculative stores, charging normal memory latency. A store
/// that hits lingering speculative marks retries after draining all
/// speculative state (a conflict here means some cache still holds
/// speculative versions — exactly what an abort flush removes).
pub fn resync_rcb(
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
    machine: &mut Machine,
    body: &dyn LoopBody,
    env: &LoopEnv,
    n0: u64,
) -> Result<Option<(MisspecCause, Cycle)>, SimError> {
    for core in 0..machine.config().num_cores {
        machine.unload_thread(core);
    }
    let single = crate::emit::build_single_tx(body, env, n0)?;
    for (i, t) in single.threads.into_iter().enumerate() {
        machine.load_thread(t.core, ThreadContext::new(ThreadId(i), t.program));
    }
    let outcome = match machine.run(u64::MAX)? {
        RunEvent::AllHalted => None,
        RunEvent::Misspeculation { cause, cycle } => Some((cause, cycle)),
        RunEvent::BudgetExhausted => unreachable!("unlimited budget"),
    };
    for core in 0..machine.config().num_cores {
        machine.unload_thread(core);
    }
    Ok(outcome)
}

/// Recovery after an abort: the machine has already flushed all speculative
/// state and queues. Free the VID space, re-synchronize the runtime control
/// block, and climb the recovery ladder (see the module docs): parallel
/// re-dispatch while `depth` is within the retry budget, then serialized
/// re-execution of the stuck transaction, then — if even that misspeculates
/// — fully non-speculative sequential execution of the remaining loop.
#[allow(clippy::too_many_arguments)]
fn recover(
    paradigm: Paradigm,
    body: &dyn LoopBody,
    env: &LoopEnv,
    machine: &mut Machine,
    cycle: Cycle,
    n0: u64,
    depth: u64,
    parallel_retries: u64,
) -> Result<RecoveryRung, SimError> {
    // Free the VID space: everything uncommitted was just aborted, so every
    // outstanding VID is either committed or gone.
    if machine.mem().last_committed() > Vid::NON_SPECULATIVE {
        machine.vid_reset();
    }
    resync_rcb(machine, env, n0 - 1, cycle)?;
    for core in 0..machine.config().num_cores {
        machine.unload_thread(core);
    }

    // Rung 1: optimistic parallel re-dispatch (also used when every
    // iteration already committed and only the epilogue needs to re-run).
    if n0 > body.iterations() || depth <= parallel_retries {
        dispatch(paradigm, body, env, machine, n0)?;
        return Ok(RecoveryRung::Parallel);
    }

    // Rung 2: serialized re-execution of the stuck transaction.
    match run_single_tx(machine, body, env, n0)? {
        None => {
            dispatch(paradigm, body, env, machine, n0 + 1)?;
            Ok(RecoveryRung::SingleTx)
        }
        Some((_cause, misspec_cycle)) => {
            // Rung 3: even a lone transaction misspeculated (an injected
            // fault, or cache pressure no re-execution can relieve). Finish
            // the loop fully non-speculatively; injection never targets
            // non-speculative accesses, so this always terminates.
            let committed = machine.mem().stats().commits;
            if machine.mem().last_committed() > Vid::NON_SPECULATIVE {
                machine.vid_reset();
            }
            resync_rcb(machine, env, committed, misspec_cycle)?;
            let seq = crate::emit::build_sequential(body, env, committed + 1)?;
            for (i, t) in seq.threads.into_iter().enumerate() {
                machine.load_thread(t.core, ThreadContext::new(ThreadId(i), t.program));
            }
            Ok(RecoveryRung::NonSpec)
        }
    }
}
