//! The multicore machine: in-order cores interpreting the mini-ISA over the
//! HMTX memory system, with pluggable scheduling (deterministic min-clock by
//! default, see [`crate::schedule`]), branch prediction with wrong-path
//! execution, hardware queues, transaction-buffered output, and timer
//! interrupts.

use std::sync::Arc;

use hmtx_core::{
    AccessKind, AccessRequest, AccessResponse, FaultPlan, FaultSite, MemorySystem, MisspecCause,
};
use hmtx_isa::{Instr, Operand, Program, Reg};
use hmtx_types::{
    Addr, BlockedCore, CoreId, Cycle, MachineConfig, QueueId, SimError, ThreadId, Vid,
    CORE_KEY_BITS, CYCLE_CEILING, VID_EXHAUSTION_SENTINEL,
};

use crate::predictor::BranchPredictor;
use crate::queue::{ConsumeOutcome, ProduceOutcome, QueueSet};
use crate::schedule::{CoreEvent, EventSummary, JitterPolicy, MinClock, SchedulePolicy};

/// Cycles a core waits before retrying a blocked queue operation.
const RETRY_QUANTUM: u64 = 4;

/// Cycles charged for migrating a thread context between cores.
const MIGRATION_COST: u64 = 100;

/// Base of the per-core kernel scratch region touched by the interrupt
/// handler (disjoint from any guest data by construction).
const KERNEL_REGION_BASE: u64 = 0xFFFF_0000_0000;

/// No core: the initial previous-step core, and a clean lazy-stats slot.
const NO_CORE: usize = usize::MAX;

/// The scheduler's packed pick key: the clock in the high 48 bits, the core
/// index in the low [`CORE_KEY_BITS`], so `u64` order is `(clock, core)`
/// order — the min-clock pick with its lowest-core tie-break. Clocks at or
/// past [`CYCLE_CEILING`] clamp to it: such a core is out of the run (see
/// [`SimError::CycleLimit`]) and only ever compares above every live clock.
/// `MachineConfig::validate` bounds the core count so the index fits.
#[inline]
fn clock_key(clock: Cycle, core: usize) -> u64 {
    (clock.min(CYCLE_CEILING) << CORE_KEY_BITS) | core as u64
}

/// Keys at or above this belong to a core whose clock hit the ceiling.
const CEILING_KEY: u64 = CYCLE_CEILING << CORE_KEY_BITS;

/// The packed key of `core`'s next interrupt deadline. A deadline at or
/// past the ceiling — including the disabled-interrupt sentinel
/// `u64::MAX` — can never be reached by a live clock, so it maps to
/// `u64::MAX` (never) instead of being shifted.
#[inline]
fn interrupt_key(deadline: Cycle, core: usize) -> u64 {
    if deadline >= CYCLE_CEILING {
        u64::MAX
    } else {
        clock_key(deadline, core)
    }
}

/// Maximum retained marker events (markers are a diagnostic facility; the
/// log is bounded so marker-heavy runs don't grow without bound).
const MARKER_LOG_CAP: usize = 200_000;

/// An architectural thread context, bound to at most one core at a time.
///
/// Threads can migrate between cores mid-transaction (§5.2): their
/// speculative data is found in other caches through the VID.
#[derive(Debug, Clone)]
pub struct ThreadContext {
    /// Software thread ID.
    pub tid: ThreadId,
    /// The 32 general-purpose registers.
    pub regs: [u64; Reg::COUNT],
    /// Program counter (instruction index).
    pub pc: usize,
    /// The program this thread executes.
    pub program: Arc<Program>,
    /// The per-thread VID register set by `beginMTX` (§3.1).
    pub vid: Vid,
    /// Recovery entry point registered by `initMTX`.
    pub recovery_pc: Option<usize>,
    /// Set once the thread executes `halt` (or runs off the program end).
    pub halted: bool,
}

impl ThreadContext {
    /// Creates a thread at `pc` 0 with zeroed registers.
    pub fn new(tid: ThreadId, program: Arc<Program>) -> Self {
        ThreadContext {
            tid,
            regs: [0; Reg::COUNT],
            pc: 0,
            program,
            vid: Vid::NON_SPECULATIVE,
            recovery_pc: None,
            halted: false,
        }
    }
}

/// A marker event recorded by the `marker` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkerEvent {
    /// Cycle at which the marker executed.
    pub cycle: Cycle,
    /// Core that executed it.
    pub core: CoreId,
    /// Thread that executed it.
    pub tid: ThreadId,
    /// Marker payload.
    pub id: u32,
}

/// Why [`Machine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEvent {
    /// Every loaded thread halted.
    AllHalted,
    /// Misspeculation was detected (or `abortMTX` executed); all speculative
    /// state has been flushed and queues drained. The runtime must
    /// re-dispatch from the last committed point.
    Misspeculation {
        /// The detected cause.
        cause: MisspecCause,
        /// Cycle of detection.
        cycle: Cycle,
    },
    /// The instruction budget was exhausted (likely livelock or an
    /// underestimated budget).
    BudgetExhausted,
}

/// Aggregate machine statistics (memory statistics live in
/// [`MemorySystem::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Instructions retired (correct path only).
    pub instructions: u64,
    /// Conditional branches retired.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredictions: u64,
    /// Wrong-path instructions interpreted after mispredictions.
    pub wrong_path_instructions: u64,
    /// Timer interrupts serviced.
    pub interrupts: u64,
    /// Explicit `abortMTX` executions.
    pub explicit_aborts: u64,
    /// Extra-latency faults injected into queue operations (chaos testing).
    pub injected_queue_delays: u64,
    /// Forced wrong-path load storms injected on retired branches (chaos
    /// testing).
    pub injected_wrong_path_storms: u64,
    /// Scheduling decisions that advanced a core: instruction steps
    /// (including blocked queue retries) and serviced timer interrupts.
    pub steps: u64,
    /// Steps whose core differs from the previous step's core (the
    /// machine's first step is not a switch).
    pub core_switches: u64,
}

impl MachineStats {
    /// Branch misprediction rate in `[0, 1]`.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.branches as f64
        }
    }

    /// Fraction of retired instructions that are branches.
    pub fn branch_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.branches as f64 / self.instructions as f64
        }
    }
}

/// Per-core activity counters (pipeline balance analysis).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired on this core.
    pub instructions: u64,
    /// Cycles spent stalled on queue operations (full/empty retries).
    pub queue_stall_cycles: u64,
    /// The core's local clock at the end of the run.
    pub ready_at: Cycle,
}

enum StepOutcome {
    Continue,
    /// The thread halted (`halt`, or ran off the end of its program).
    Halted,
}

/// Why a step ended the run. Both cases are rare, so they travel boxed:
/// the hot `Result<StepOutcome, Box<Stop>>` then fits in two registers
/// instead of round-tripping a large value through the stack every step.
enum Stop {
    Misspec(MisspecCause),
    Error(SimError),
}

impl From<SimError> for Box<Stop> {
    fn from(e: SimError) -> Self {
        Box::new(Stop::Error(e))
    }
}

fn misspec(cause: MisspecCause) -> Box<Stop> {
    Box::new(Stop::Misspec(cause))
}

/// The simulated multicore machine.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use hmtx_isa::{ProgramBuilder, Reg};
/// use hmtx_machine::{Machine, RunEvent, ThreadContext};
/// use hmtx_types::{MachineConfig, ThreadId};
///
/// let mut b = ProgramBuilder::new();
/// b.li(Reg::R1, 123).out(Reg::R1).halt();
/// let program = Arc::new(b.build()?);
///
/// let mut m = Machine::new(MachineConfig::test_default());
/// m.load_thread(0, ThreadContext::new(ThreadId(0), program));
/// assert_eq!(m.run(1_000)?, RunEvent::AllHalted);
/// assert_eq!(m.committed_output(), &[123]);
/// # Ok::<(), hmtx_types::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: MachineConfig,
    mem: MemorySystem,
    threads: Vec<Option<ThreadContext>>,
    ready_at: Vec<Cycle>,
    next_interrupt: Vec<Cycle>,
    predictors: Vec<BranchPredictor>,
    queues: QueueSet,
    /// Speculative `out` values not yet committed, sorted by VID
    /// (a sorted vec: VIDs are tiny and drains are prefix drains).
    pending_outputs: Vec<(u16, Vec<u64>)>,
    committed_output: Vec<u64>,
    marker_log: Vec<MarkerEvent>,
    stats: MachineStats,
    core_stats: Vec<CoreStats>,
    high_water: Cycle,
    /// The core whose latest clock advance is not yet published to
    /// `core_stats[..].ready_at` and `high_water` ([`NO_CORE`] when both
    /// are current). See [`Machine::bump`].
    unsettled: usize,
    /// The core of the previous step (`core_switches` bookkeeping).
    prev_core: usize,
    /// Per core, its latest blocked queue retry in this run, stamped with
    /// the retired-instruction count at that moment (deadlock detection).
    retries: Vec<Option<(u64, BlockedCore)>>,
    faults: Option<FaultPlan>,
    /// Debug builds keep the eagerly published clocks beside the lazy ones
    /// and check that they agree whenever a run returns.
    #[cfg(debug_assertions)]
    eager: EagerClocks,
}

/// What `core_stats[..].ready_at` and `high_water` would hold had every
/// clock advance published them at once (see [`Machine::bump`]).
#[cfg(debug_assertions)]
#[derive(Debug, Clone)]
struct EagerClocks {
    core_ready: Vec<Cycle>,
    high_water: Cycle,
}

impl Machine {
    /// Builds a machine with `cfg.num_cores` cores and 64 hardware queues.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use [`Self::try_new`] to get
    /// a diagnostic instead.
    pub fn new(cfg: MachineConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a machine for `cfg`, reporting an invalid configuration as an
    /// error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the machine configuration or any
    /// cache geometry is invalid.
    pub fn try_new(cfg: MachineConfig) -> Result<Self, SimError> {
        let n = cfg.num_cores;
        let first_interrupt = if cfg.interrupt_period > 0 {
            cfg.interrupt_period
        } else {
            u64::MAX
        };
        Ok(Machine {
            mem: MemorySystem::try_new(cfg.clone())?,
            threads: (0..n).map(|_| None).collect(),
            ready_at: vec![0; n],
            next_interrupt: vec![first_interrupt; n],
            predictors: (0..n).map(|_| BranchPredictor::new()).collect(),
            queues: QueueSet::new(64, cfg.queue_capacity, cfg.queue_latency),
            pending_outputs: Vec::new(),
            committed_output: Vec::new(),
            marker_log: Vec::new(),
            stats: MachineStats::default(),
            core_stats: vec![CoreStats::default(); n],
            high_water: 0,
            unsettled: NO_CORE,
            prev_core: NO_CORE,
            retries: vec![None; n],
            #[cfg(debug_assertions)]
            eager: EagerClocks {
                core_ready: vec![0; n],
                high_water: 0,
            },
            // The machine draws from its own fault plan, independent of the
            // memory system's: both are deterministic in the shared seed.
            faults: cfg.faults.map(FaultPlan::new),
            cfg,
        })
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The memory system.
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable access to the memory system (initial image construction).
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Machine-level statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Per-core activity counters (for pipeline-balance analysis).
    pub fn core_stats(&self) -> &[CoreStats] {
        &self.core_stats
    }

    /// The hardware queues.
    pub fn queues(&self) -> &QueueSet {
        &self.queues
    }

    /// Output values committed so far (§4.7 transaction-buffered output).
    pub fn committed_output(&self) -> &[u64] {
        &self.committed_output
    }

    /// Marker events recorded so far.
    pub fn marker_log(&self) -> &[MarkerEvent] {
        &self.marker_log
    }

    /// The completion time: the largest cycle any core has reached.
    pub fn cycles(&self) -> Cycle {
        self.high_water
    }

    /// Places a thread on a core.
    ///
    /// # Panics
    ///
    /// Panics if the core already has a thread or is out of range.
    pub fn load_thread(&mut self, core: usize, thread: ThreadContext) {
        assert!(self.threads[core].is_none(), "core {core} already occupied");
        self.threads[core] = Some(thread);
    }

    /// Removes the thread from a core (if any).
    pub fn unload_thread(&mut self, core: usize) -> Option<ThreadContext> {
        self.threads[core].take()
    }

    /// The thread currently on `core`.
    pub fn thread(&self, core: usize) -> Option<&ThreadContext> {
        self.threads[core].as_ref()
    }

    /// Migrates the thread on `from` to the (empty) core `to`, charging a
    /// context-switch cost. Speculative state needs no special handling: the
    /// thread's data is found in other caches through its VID (§5.2).
    ///
    /// # Panics
    ///
    /// Panics if `from` has no thread or `to` is occupied.
    pub fn migrate_thread(&mut self, from: usize, to: usize) {
        assert!(self.threads[to].is_none(), "target core occupied");
        let t = self.threads[from].take().expect("no thread to migrate");
        self.threads[to] = Some(t);
        self.settle();
        self.ready_at[to] = self.ready_at[to]
            .max(self.ready_at[from])
            .saturating_add(MIGRATION_COST);
    }

    /// Runs until every thread halts, misspeculation aborts the machine, or
    /// `budget` instructions have retired.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for guest-program bugs (unaligned access,
    /// malformed VIDs, out-of-order commits), a core clock reaching
    /// [`CYCLE_CEILING`] ([`SimError::CycleLimit`]), or a queue deadlock
    /// ([`SimError::Deadlock`]).
    pub fn run(&mut self, budget: u64) -> Result<RunEvent, SimError> {
        if crate::schedule::general_path_forced() {
            return self.run_with_policy(budget, &mut JitterPolicy::new(0, 0));
        }
        self.run_with_policy(budget, &mut MinClock)
    }

    /// Runs like [`Machine::run`], but lets `policy` choose which enabled
    /// core steps at each scheduling point (the seam behind `hmtx-explore`
    /// and `hmtx-run --replay`).
    ///
    /// At every decision the policy sees the enabled cores sorted by
    /// `(ready_at, core)` — index 0 is the default min-clock choice, so
    /// [`MinClock`] reproduces [`Machine::run`] exactly. When the policy
    /// runs a core ahead of an earlier-clocked peer, the chosen core's
    /// clock is first warped up to the latest previously scheduled event so
    /// the memory system always observes non-decreasing timestamps (a no-op
    /// under [`MinClock`]: the minimum clock never regresses).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] as [`Machine::run`] does, or any error raised by
    /// the policy's `observe_commit` hook.
    pub fn run_with_policy(
        &mut self,
        budget: u64,
        policy: &mut dyn SchedulePolicy,
    ) -> Result<RunEvent, SimError> {
        self.retries.fill(None);
        let result = if policy.is_min_clock() {
            self.run_min_clock(budget, policy)
        } else {
            self.run_general(budget, policy)
        };
        self.settle();
        #[cfg(debug_assertions)]
        {
            let published: Vec<Cycle> = self.core_stats.iter().map(|c| c.ready_at).collect();
            assert_eq!(published, self.eager.core_ready, "lazy per-core clocks");
            assert_eq!(
                self.high_water, self.eager.high_water,
                "lazy completion time"
            );
        }
        result
    }

    /// The general scheduling loop: materializes the sorted `enabled` list
    /// at every decision and lets `policy` pick from it.
    fn run_general(
        &mut self,
        budget: u64,
        policy: &mut dyn SchedulePolicy,
    ) -> Result<RunEvent, SimError> {
        let start_instructions = self.stats.instructions;
        let mut enabled: Vec<CoreEvent> = Vec::with_capacity(self.threads.len());
        let mut sched_now: Cycle = 0;
        let mut step_ordinal: u64 = 0;
        let with_summaries = policy.needs_summaries();
        loop {
            self.collect_enabled(&mut enabled, with_summaries);
            if enabled.is_empty() {
                return Ok(RunEvent::AllHalted);
            }
            if self.stats.instructions - start_instructions >= budget {
                return Ok(RunEvent::BudgetExhausted);
            }
            let idx = policy.pick(step_ordinal, &enabled).min(enabled.len() - 1);
            step_ordinal += 1;
            let core = enabled[idx].core;
            // Time warp: keep scheduled timestamps monotone under arbitrary
            // policies (see run_with_policy docs).
            if self.ready_at[core] < sched_now {
                self.settle();
                self.ready_at[core] = sched_now;
            }
            sched_now = self.ready_at[core];
            if sched_now >= CYCLE_CEILING {
                return Err(self.cycle_limit(core));
            }
            self.stats.steps += 1;
            self.count_switch(core);
            if self.ready_at[core] >= self.next_interrupt[core] {
                self.service_interrupt(core)?;
                continue;
            }
            let committed_before = self.mem.last_committed();
            if let Err(stop) = self.step(core) {
                return self.stopped(core, *stop);
            }
            let committed_after = self.mem.last_committed();
            if committed_after > committed_before {
                policy.observe_commit(committed_after, &self.mem, &self.committed_output)?;
            }
        }
    }

    /// The allocation-free fast path behind [`Machine::run_with_policy`]
    /// for policies whose pick is always the min-clock core
    /// ([`SchedulePolicy::is_min_clock`]): instead of materializing and
    /// sorting the `enabled` list at every decision, take the smallest
    /// packed [`clock_key`] directly. The schedule — and therefore every
    /// simulated cycle count and output byte — is identical to the general
    /// path; the time warp is skipped because the minimum clock never
    /// regresses.
    fn run_min_clock(
        &mut self,
        budget: u64,
        policy: &mut dyn SchedulePolicy,
    ) -> Result<RunEvent, SimError> {
        let start_instructions = self.stats.instructions;
        let observes = policy.observes_commits();
        // Per core, a key mask: 0 while the core is enabled, `u64::MAX`
        // (never the minimum) once it is not. While `run` holds `&mut self`
        // the only possible transition is the stepped core halting,
        // reported by `step` — so the Option/halted checks run once here
        // instead of on every rescan.
        let mut disabled: Vec<u64> = self
            .threads
            .iter()
            .map(|t| {
                if t.as_ref().is_some_and(|t| !t.halted) {
                    0
                } else {
                    u64::MAX
                }
            })
            .collect();
        let mut live = disabled.iter().filter(|&&d| d == 0).count();
        loop {
            if live == 0 {
                return Ok(RunEvent::AllHalted);
            }
            // Branch-free two-min over the packed keys; the runner-up key
            // lets the inner loop below keep stepping the winner without
            // rescanning.
            let mut best = u64::MAX;
            let mut second = u64::MAX;
            for (i, (&clock, &off)) in self.ready_at.iter().zip(&disabled).enumerate() {
                let k = clock_key(clock, i) | off;
                second = second.min(best.max(k));
                best = best.min(k);
            }
            let core = (best & ((1 << CORE_KEY_BITS) - 1)) as usize;
            if self.stats.instructions - start_instructions >= budget {
                return Ok(RunEvent::BudgetExhausted);
            }
            if best >= CEILING_KEY {
                return Err(self.cycle_limit_among(&disabled));
            }
            // The inner loop's first pass steps `core`: the checks above
            // passed.
            self.count_switch(core);
            // Run the picked core until the runner-up overtakes it. Between
            // steps only this core's clock moves (monotonically forward), so
            // the global argmin stays `core` while its key is below the
            // cached runner-up key. Machine-wide stalls (VID reset) can only
            // move other cores *later*, which at worst ends this inner run
            // early and falls back to a rescan — never a wrong pick. The
            // pending-interrupt deadline and the clock ceiling fold into the
            // same bound, so the steady state pays one comparison per step.
            let mut int_key = interrupt_key(self.next_interrupt[core], core);
            let mut bound = second.min(int_key).min(CEILING_KEY);
            loop {
                if self.stats.instructions - start_instructions >= budget {
                    return Ok(RunEvent::BudgetExhausted);
                }
                let k = clock_key(self.ready_at[core], core);
                if k >= bound {
                    if k >= second {
                        break; // overtaken by the runner-up
                    }
                    if k >= CEILING_KEY {
                        return Err(self.cycle_limit_among(&disabled));
                    }
                    // The interrupt is due.
                    self.stats.steps += 1;
                    self.service_interrupt(core)?;
                    int_key = interrupt_key(self.next_interrupt[core], core);
                    bound = second.min(int_key).min(CEILING_KEY);
                    continue;
                }
                self.stats.steps += 1;
                let outcome = if observes {
                    let committed_before = self.mem.last_committed();
                    let outcome = self.step(core);
                    let committed_after = self.mem.last_committed();
                    if committed_after > committed_before {
                        policy.observe_commit(
                            committed_after,
                            &self.mem,
                            &self.committed_output,
                        )?;
                    }
                    outcome
                } else {
                    self.step(core)
                };
                match outcome {
                    Ok(StepOutcome::Continue) => {}
                    Ok(StepOutcome::Halted) => {
                        disabled[core] = u64::MAX;
                        live -= 1;
                        break;
                    }
                    Err(stop) => return self.stopped(core, *stop),
                }
            }
        }
    }

    /// Ends a run on a step's [`Stop`]: a misspeculation flushes all
    /// speculative state at the stepping core's clock.
    fn stopped(&mut self, core: usize, stop: Stop) -> Result<RunEvent, SimError> {
        match stop {
            Stop::Misspec(cause) => {
                let cycle = self.ready_at[core];
                self.machine_abort(cycle);
                Ok(RunEvent::Misspeculation { cause, cycle })
            }
            Stop::Error(e) => Err(e),
        }
    }

    /// Counts a step of `core` in `core_switches` if the previous step ran
    /// on another core.
    fn count_switch(&mut self, core: usize) {
        if core != self.prev_core {
            self.stats.core_switches += u64::from(self.prev_core != NO_CORE);
            self.prev_core = core;
        }
    }

    /// The fast path's [`SimError::CycleLimit`]: every enabled core is at
    /// or past the ceiling (the minimum key is), where clamped keys order
    /// by core alone, so name the core the general path would pick — the
    /// smallest exact `(ready_at, core)` among the enabled ones.
    fn cycle_limit_among(&self, disabled: &[u64]) -> SimError {
        let core = (0..self.ready_at.len())
            .filter(|&i| disabled[i] == 0)
            .min_by_key(|&i| (self.ready_at[i], i))
            .unwrap_or(0);
        self.cycle_limit(core)
    }

    /// The [`SimError::CycleLimit`] naming `core`.
    fn cycle_limit(&self, core: usize) -> SimError {
        SimError::CycleLimit {
            core,
            pc: self.threads[core].as_ref().map_or(0, |t| t.pc),
            cycle: self.ready_at[core],
        }
    }

    /// Flushes all speculative state: memory system, queues, buffered
    /// speculative output. Threads are left as-is for the runtime to
    /// re-dispatch (the paper's recovery-code jump).
    pub fn machine_abort(&mut self, cycle: Cycle) {
        let latency = self.mem.abort_all(cycle);
        self.settle();
        let until = cycle.saturating_add(latency);
        for r in &mut self.ready_at {
            *r = (*r).max(until);
        }
        self.queues.flush();
        self.pending_outputs.clear();
    }

    /// Stalls every core for `cycles` past the current completion time
    /// (HyTM backoff: the charge survives thread unload/re-dispatch because
    /// per-core clocks persist across loads). A no-op for `cycles == 0`.
    pub fn stall_all(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        self.settle();
        let until = self.high_water.saturating_add(cycles);
        for r in &mut self.ready_at {
            *r = (*r).max(until);
        }
    }

    /// Performs a VID reset (§4.6) at the current completion time,
    /// stalling every core for the reset latency. The runtime must have
    /// committed every outstanding transaction first.
    pub fn vid_reset(&mut self) {
        self.settle();
        let now = self.high_water;
        let latency = self.mem.vid_reset(now);
        let until = now.saturating_add(latency);
        for r in &mut self.ready_at {
            *r = (*r).max(until);
        }
    }

    /// Fills `out` with the enabled (loaded, non-halted) cores, sorted by
    /// `(ready_at, core)` so index 0 is the min-clock default pick. With
    /// `with_summaries` false (the policy never reads them, see
    /// [`SchedulePolicy::needs_summaries`]) the per-core instruction decode
    /// is skipped and every event is [`EventSummary::Other`].
    fn collect_enabled(&self, out: &mut Vec<CoreEvent>, with_summaries: bool) {
        out.clear();
        for (i, t) in self.threads.iter().enumerate() {
            if t.as_ref().is_some_and(|t| !t.halted) {
                out.push(CoreEvent {
                    core: i,
                    ready_at: self.ready_at[i],
                    event: if with_summaries {
                        self.event_summary(i)
                    } else {
                        EventSummary::Other
                    },
                });
            }
        }
        out.sort_unstable_by_key(|e| (e.ready_at, e.core));
    }

    /// Summarizes what the next instruction of the thread on `core` would
    /// do, at the resolution the explorer's reduction needs (effective line
    /// addresses are resolved against current register values).
    fn event_summary(&self, core: usize) -> EventSummary {
        let t = self.threads[core].as_ref().unwrap();
        let Some(instr) = t.program.get(t.pc) else {
            return EventSummary::Other;
        };
        match *instr {
            Instr::Load { base, disp, .. } => EventSummary::Mem {
                line: Addr(t.regs[base.index()].wrapping_add(disp as u64))
                    .line()
                    .0,
                write: false,
            },
            Instr::Store { base, disp, .. } => EventSummary::Mem {
                line: Addr(t.regs[base.index()].wrapping_add(disp as u64))
                    .line()
                    .0,
                write: true,
            },
            Instr::BeginMtx { .. }
            | Instr::CommitMtx { .. }
            | Instr::AbortMtx { .. }
            | Instr::VidReset => EventSummary::Mtx,
            Instr::Produce { q, .. } => EventSummary::Queue {
                q: q.0,
                produce: true,
                would_block: self.queues.produce_would_block(q),
            },
            Instr::Consume { q, .. } => EventSummary::Queue {
                q: q.0,
                produce: false,
                would_block: self.queues.consume_would_block(self.ready_at[core], q),
            },
            _ => EventSummary::Other,
        }
    }

    /// Advances `core`'s clock by `cycles` (saturating: the run ends at
    /// [`CYCLE_CEILING`] long before `u64::MAX`).
    ///
    /// `core_stats[core].ready_at` is the clock after the core's latest
    /// advance, and `high_water` the largest such clock. Both are published
    /// lazily: `core` stays "unsettled" while it keeps advancing, and
    /// [`Machine::settle`] publishes its clock — which only grows through
    /// `bump` meanwhile — when another core advances, before any clock
    /// changes outside `bump` (queue waits, stalls, aborts, resets,
    /// migration, time warps), and when a run returns.
    #[inline(always)]
    fn bump(&mut self, core: usize, cycles: u64) {
        if self.unsettled != core {
            self.settle();
            self.unsettled = core;
        }
        self.ready_at[core] = self.ready_at[core].saturating_add(cycles);
        #[cfg(debug_assertions)]
        {
            self.eager.core_ready[core] = self.ready_at[core];
            self.eager.high_water = self.eager.high_water.max(self.ready_at[core]);
        }
    }

    /// Publishes the unsettled core's clock (see [`Machine::bump`]).
    fn settle(&mut self) {
        if let Some(&clock) = self.ready_at.get(self.unsettled) {
            self.core_stats[self.unsettled].ready_at = clock;
            self.high_water = self.high_water.max(clock);
            self.unsettled = NO_CORE;
        }
    }

    /// Records that `core` retried a blocked queue operation and checks for
    /// a deadlock: every live core's latest retry happened at the current
    /// retired-instruction count, so none can unblock another. Runs only on
    /// the retry path; retiring steps pay nothing.
    fn note_retry(
        &mut self,
        core: usize,
        pc: usize,
        q: QueueId,
        produce: bool,
    ) -> Result<(), SimError> {
        let now = self.stats.instructions;
        let blocked = BlockedCore {
            core,
            pc,
            queue: q.0,
            produce,
        };
        self.retries[core] = Some((now, blocked));
        let live = |c: usize| self.threads[c].as_ref().is_some_and(|t| !t.halted);
        let stuck = |c: usize| matches!(self.retries[c], Some((at, _)) if at == now);
        if (0..self.threads.len()).all(|c| !live(c) || stuck(c)) {
            let cores = (0..self.threads.len())
                .filter(|&c| live(c))
                .filter_map(|c| self.retries[c].map(|(_, b)| b))
                .collect();
            return Err(SimError::Deadlock(cores));
        }
        Ok(())
    }

    fn service_interrupt(&mut self, core: usize) -> Result<(), SimError> {
        hmtx_core::stats::inc(&mut self.stats.interrupts);
        let now = self.ready_at[core];
        // The OS handler's PC lies outside the program text segment, so its
        // accesses carry VID 0 regardless of the thread's VID register
        // (§5.2) and must not disturb speculative state.
        let base = KERNEL_REGION_BASE + (core as u64) * 4096;
        for k in 0..8u64 {
            let addr = Addr(base + k * 64);
            let kind = if k % 2 == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write(now ^ k)
            };
            let req = AccessRequest {
                core: CoreId(core),
                addr,
                kind,
                vid: Vid::NON_SPECULATIVE,
                wrong_path: false,
            };
            match self.mem.access(now, &req)? {
                AccessResponse::Done { .. } => {}
                AccessResponse::Misspec { cause, .. } => {
                    unreachable!("kernel region is disjoint from guest data: {cause:?}")
                }
            }
        }
        self.bump(core, self.cfg.interrupt_handler_instrs);
        self.next_interrupt[core] = self.ready_at[core].saturating_add(self.cfg.interrupt_period);
        Ok(())
    }

    fn reg(&self, core: usize, r: Reg) -> u64 {
        self.threads[core].as_ref().unwrap().regs[r.index()]
    }

    /// The VID operand `r` of MTX instruction `instr` on `core`. A VID wider
    /// than the configured VID width is a guest bug.
    fn vid_operand(&self, core: usize, r: Reg, instr: &str) -> Result<Vid, SimError> {
        let raw = self.reg(core, r);
        if raw > u64::from(self.cfg.hmtx.max_vid().0) {
            return Err(SimError::BadProgram(format!(
                "{instr} with VID {raw} exceeds the {}-bit limit",
                self.cfg.hmtx.vid_bits
            )));
        }
        Ok(Vid(raw as u16))
    }

    fn set_reg(&mut self, core: usize, r: Reg, v: u64) {
        self.threads[core].as_mut().unwrap().regs[r.index()] = v;
    }

    fn operand(&self, core: usize, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.reg(core, r),
            Operand::Imm(i) => i as u64,
        }
    }

    /// Executes one instruction of the thread on `core`. The register-only
    /// instructions — the bulk of every workload — are decoded here, inlined
    /// into the scheduling loops; everything else goes to [`Self::step_mem`].
    #[inline(always)]
    fn step(&mut self, core: usize) -> Result<StepOutcome, Box<Stop>> {
        // The arms below hold this one borrow for the whole instruction and
        // update `pc` themselves. `self.stats` and `self.ready_at` are
        // disjoint fields, so they stay accessible while `t` is live.
        let t = self.threads[core].as_mut().unwrap();
        let pc = t.pc;
        let Some(&instr) = t.program.get(pc) else {
            t.halted = true;
            return Ok(StepOutcome::Halted);
        };
        hmtx_core::stats::inc(&mut self.stats.instructions);
        hmtx_core::stats::inc(&mut self.core_stats[core].instructions);

        let (next_pc, cycles) = match instr {
            Instr::Li { rd, imm } => {
                t.regs[rd.index()] = imm as u64;
                (pc + 1, 1)
            }
            Instr::Mov { rd, rs } => {
                t.regs[rd.index()] = t.regs[rs.index()];
                (pc + 1, 1)
            }
            Instr::Alu { op, rd, rs, rhs } => {
                let a = t.regs[rs.index()];
                let b = match rhs {
                    Operand::Reg(r) => t.regs[r.index()],
                    Operand::Imm(i) => i as u64,
                };
                t.regs[rd.index()] = op.apply(a, b);
                (pc + 1, 1)
            }
            Instr::Jump { target } => (target, 1),
            Instr::Compute { amount } => {
                let cycles = match amount {
                    Operand::Reg(r) => t.regs[r.index()],
                    Operand::Imm(i) => i as u64,
                };
                (pc + 1, cycles.max(1))
            }
            _ => return self.step_mem(core, pc, instr),
        };
        t.pc = next_pc;
        self.bump(core, cycles);
        Ok(StepOutcome::Continue)
    }

    /// [`Self::step`] for memory, control, MTX, queue and output
    /// instructions (already counted as retired).
    #[inline(never)]
    fn step_mem(&mut self, core: usize, pc: usize, instr: Instr) -> Result<StepOutcome, Box<Stop>> {
        let now = self.ready_at[core];
        let t = self.threads[core].as_mut().unwrap();
        let vid = t.vid;
        let tid = t.tid;
        match instr {
            Instr::Load { rd, base, disp } => {
                let addr = Addr(t.regs[base.index()].wrapping_add(disp as u64));
                let req = AccessRequest {
                    core: CoreId(core),
                    addr,
                    kind: AccessKind::Read,
                    vid,
                    wrong_path: false,
                };
                match self.mem.access(now, &req)? {
                    AccessResponse::Done { value, latency, .. } => {
                        t.regs[rd.index()] = value;
                        t.pc = pc + 1;
                        self.bump(core, latency);
                        return Ok(StepOutcome::Continue);
                    }
                    AccessResponse::Misspec { cause, latency } => {
                        // `pc` stays put on a misspeculation, as in the
                        // early return of the cold tail.
                        self.bump(core, latency);
                        return Err(misspec(cause));
                    }
                }
            }
            Instr::Store { rs, base, disp } => {
                let addr = Addr(t.regs[base.index()].wrapping_add(disp as u64));
                let value = t.regs[rs.index()];
                let req = AccessRequest {
                    core: CoreId(core),
                    addr,
                    kind: AccessKind::Write(value),
                    vid,
                    wrong_path: false,
                };
                match self.mem.access(now, &req)? {
                    AccessResponse::Done { latency, .. } => {
                        t.pc = pc + 1;
                        self.bump(core, latency);
                        return Ok(StepOutcome::Continue);
                    }
                    AccessResponse::Misspec { cause, latency } => {
                        self.bump(core, latency);
                        return Err(misspec(cause));
                    }
                }
            }
            _ => {}
        }

        let mut next_pc = pc + 1;
        let mut outcome = StepOutcome::Continue;
        match instr {
            Instr::Branch {
                cond,
                rs,
                rhs,
                target,
            } => {
                let a = self.reg(core, rs);
                let b = self.operand(core, rhs);
                let taken = cond.eval(a, b);
                let predicted = self.predictors[core].predict_and_update(pc as u64, taken);
                hmtx_core::stats::inc(&mut self.stats.branches);
                self.bump(core, 1);
                if taken {
                    next_pc = target;
                }
                if predicted != taken {
                    hmtx_core::stats::inc(&mut self.stats.mispredictions);
                    self.bump(core, self.cfg.mispredict_penalty);
                    let wrong_pc = if taken { pc + 1 } else { target };
                    if let Some(cause) = self.run_wrong_path(core, wrong_pc, vid, now)? {
                        return Err(misspec(cause));
                    }
                } else if vid.is_speculative()
                    && self
                        .faults
                        .as_mut()
                        .is_some_and(|p| p.fire(FaultSite::WrongPathStorm))
                {
                    // Injected wrong-path storm: squash a correctly
                    // predicted branch as if mispredicted, forcing the §5.1
                    // SLA machinery to absorb a burst of squashed loads.
                    // Speculative contexts only: the non-speculative
                    // fallback rung stays immune by construction.
                    hmtx_core::stats::inc(&mut self.stats.injected_wrong_path_storms);
                    self.mem.note_fault(now, FaultSite::WrongPathStorm.name());
                    self.bump(core, self.cfg.mispredict_penalty);
                    let wrong_pc = if taken { pc + 1 } else { target };
                    if let Some(cause) = self.run_wrong_path(core, wrong_pc, vid, now)? {
                        return Err(misspec(cause));
                    }
                }
            }
            Instr::Halt => {
                self.threads[core].as_mut().unwrap().halted = true;
                self.bump(core, 1);
                outcome = StepOutcome::Halted;
            }
            Instr::BeginMtx { rvid } => {
                self.threads[core].as_mut().unwrap().vid =
                    self.vid_operand(core, rvid, "beginMTX")?;
                self.bump(core, 1);
            }
            Instr::CommitMtx { rvid } => {
                let commit_vid = self.vid_operand(core, rvid, "commitMTX")?;
                let latency = self.mem.commit(now, commit_vid)?;
                self.bump(core, latency);
                self.threads[core].as_mut().unwrap().vid = Vid::NON_SPECULATIVE;
                self.flush_outputs(commit_vid);
            }
            Instr::AbortMtx { rvid } => {
                // The VID-exhaustion sentinel is the one VID beyond the
                // width software may name: the HyTM watchdog's escape.
                let vid = if self.reg(core, rvid) == u64::from(VID_EXHAUSTION_SENTINEL) {
                    Vid(VID_EXHAUSTION_SENTINEL)
                } else {
                    self.vid_operand(core, rvid, "abortMTX")?
                };
                hmtx_core::stats::inc(&mut self.stats.explicit_aborts);
                self.bump(core, 1);
                return Err(misspec(MisspecCause::ExplicitAbort { vid }));
            }
            Instr::InitMtx { handler } => {
                self.threads[core].as_mut().unwrap().recovery_pc = Some(handler);
                self.bump(core, 1);
            }
            Instr::VidReset => {
                let latency = self.mem.vid_reset(now);
                // The reset broadcast stalls every core (the §4.6 pipeline
                // stall), not just the issuer.
                self.settle();
                let until = now.saturating_add(latency);
                for r in &mut self.ready_at {
                    *r = (*r).max(until);
                }
                self.bump(core, 1);
            }
            Instr::Produce { q, rs } => {
                let value = self.reg(core, rs);
                match self.queues.produce(now, q, value) {
                    ProduceOutcome::Accepted => {
                        self.bump(core, 1);
                        self.inject_queue_delay(core, now)?;
                    }
                    ProduceOutcome::Full => {
                        next_pc = pc; // retry the same instruction
                        self.stats.instructions -= 1;
                        self.core_stats[core].instructions -= 1;
                        hmtx_core::stats::add(
                            &mut self.core_stats[core].queue_stall_cycles,
                            RETRY_QUANTUM,
                        );
                        self.bump(core, RETRY_QUANTUM);
                        self.note_retry(core, pc, q, true)?;
                    }
                }
            }
            Instr::Consume { rd, q } => match self.queues.consume(now, q) {
                ConsumeOutcome::Ready(v) => {
                    self.set_reg(core, rd, v);
                    self.bump(core, 1);
                    self.inject_queue_delay(core, now)?;
                }
                ConsumeOutcome::NotYet(at) => {
                    next_pc = pc;
                    self.stats.instructions -= 1;
                    self.core_stats[core].instructions -= 1;
                    hmtx_core::stats::add(
                        &mut self.core_stats[core].queue_stall_cycles,
                        at.saturating_sub(self.ready_at[core]),
                    );
                    self.settle();
                    self.ready_at[core] = at;
                    self.high_water = self.high_water.max(at);
                    #[cfg(debug_assertions)]
                    {
                        self.eager.high_water = self.eager.high_water.max(at);
                    }
                }
                ConsumeOutcome::Empty => {
                    next_pc = pc;
                    self.stats.instructions -= 1;
                    self.core_stats[core].instructions -= 1;
                    hmtx_core::stats::add(
                        &mut self.core_stats[core].queue_stall_cycles,
                        RETRY_QUANTUM,
                    );
                    self.bump(core, RETRY_QUANTUM);
                    self.note_retry(core, pc, q, false)?;
                }
            },
            Instr::Out { rs } => {
                let value = self.reg(core, rs);
                if vid.is_non_speculative() {
                    self.committed_output.push(value);
                } else {
                    let slot = match self
                        .pending_outputs
                        .binary_search_by_key(&vid.0, |(k, _)| *k)
                    {
                        Ok(i) => i,
                        Err(i) => {
                            self.pending_outputs.insert(i, (vid.0, Vec::new()));
                            i
                        }
                    };
                    self.pending_outputs[slot].1.push(value);
                }
                self.bump(core, 1);
            }
            Instr::Marker { id } => {
                if self.marker_log.len() < MARKER_LOG_CAP {
                    self.marker_log.push(MarkerEvent {
                        cycle: now,
                        core: CoreId(core),
                        tid,
                        id,
                    });
                }
                self.bump(core, 1);
            }
            // Register-only instructions are executed by `step`; loads and
            // stores returned from the first match above.
            Instr::Li { .. }
            | Instr::Mov { .. }
            | Instr::Alu { .. }
            | Instr::Jump { .. }
            | Instr::Compute { .. }
            | Instr::Load { .. }
            | Instr::Store { .. } => unreachable!("handled on the fast path"),
        }
        self.threads[core].as_mut().unwrap().pc = next_pc;
        Ok(outcome)
    }

    /// Chaos fault: charge a completed queue operation deterministic extra
    /// latency. Pure timing — never affects committed results.
    fn inject_queue_delay(&mut self, core: usize, now: Cycle) -> Result<(), SimError> {
        let Some(plan) = self.faults.as_mut() else {
            return Ok(());
        };
        if !plan.fire(FaultSite::QueueDelay) {
            return Ok(());
        }
        let extra = plan.magnitude(FaultSite::QueueDelay, self.cfg.queue_latency.max(8));
        hmtx_core::stats::inc(&mut self.stats.injected_queue_delays);
        self.mem.note_fault(now, FaultSite::QueueDelay.name());
        hmtx_core::stats::add(&mut self.core_stats[core].queue_stall_cycles, extra);
        self.bump(core, extra);
        Ok(())
    }

    /// Interprets up to `wrong_path_depth` instructions down the mispredicted
    /// path: register writes go to a shadow file, loads are issued as
    /// branch-speculative (§5.1), and any store, control-flow, queue, or MTX
    /// instruction ends the wrong path.
    fn run_wrong_path(
        &mut self,
        core: usize,
        start_pc: usize,
        vid: Vid,
        now: Cycle,
    ) -> Result<Option<MisspecCause>, SimError> {
        let mut shadow = self.threads[core].as_ref().unwrap().regs;
        let program = Arc::clone(&self.threads[core].as_ref().unwrap().program);
        let mut pc = start_pc;
        for _ in 0..self.cfg.wrong_path_depth {
            let Some(instr) = program.get(pc) else { break };
            hmtx_core::stats::inc(&mut self.stats.wrong_path_instructions);
            match *instr {
                Instr::Li { rd, imm } => shadow[rd.index()] = imm as u64,
                Instr::Mov { rd, rs } => shadow[rd.index()] = shadow[rs.index()],
                Instr::Alu { op, rd, rs, rhs } => {
                    let b = match rhs {
                        Operand::Reg(r) => shadow[r.index()],
                        Operand::Imm(i) => i as u64,
                    };
                    shadow[rd.index()] = op.apply(shadow[rs.index()], b);
                }
                Instr::Load { rd, base, disp } => {
                    let addr = Addr(shadow[base.index()].wrapping_add(disp as u64));
                    if !addr.word_in_line() {
                        // A wrong-path address can be garbage; real hardware
                        // would squash the fault. Stop following the path.
                        break;
                    }
                    let req = AccessRequest {
                        core: CoreId(core),
                        addr,
                        kind: AccessKind::Read,
                        vid,
                        wrong_path: true,
                    };
                    match self.mem.access(now, &req)? {
                        AccessResponse::Done { value, .. } => shadow[rd.index()] = value,
                        AccessResponse::Misspec { cause, .. } => return Ok(Some(cause)),
                    }
                }
                Instr::Marker { .. } | Instr::Out { .. } | Instr::Compute { .. } => {}
                Instr::Jump { target } => {
                    pc = target;
                    continue;
                }
                Instr::Branch {
                    cond,
                    rs,
                    rhs,
                    target,
                } => {
                    // The wrong path keeps fetching under (shadow) branch
                    // resolution: resolve against shadow registers, which is
                    // what an OoO core's in-flight state would provide.
                    let a = shadow[rs.index()];
                    let bval = match rhs {
                        Operand::Reg(r) => shadow[r.index()],
                        Operand::Imm(i) => i as u64,
                    };
                    if cond.eval(a, bval) {
                        pc = target;
                        continue;
                    }
                }
                // Stores retire at commit, so squashed stores never reach the
                // cache; MTX/queue/halt instructions end the modeled window.
                _ => break,
            }
            pc += 1;
        }
        Ok(None)
    }

    /// Moves buffered output of every VID `<= vid` to the committed stream.
    fn flush_outputs(&mut self, vid: Vid) {
        let n = self
            .pending_outputs
            .iter()
            .take_while(|(k, _)| *k <= vid.0)
            .count();
        for (_, mut vals) in self.pending_outputs.drain(..n) {
            self.committed_output.append(&mut vals);
        }
    }
}
