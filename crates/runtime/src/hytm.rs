//! HyTM — the hybrid execution mode: transactions run on the HMTX fast
//! path under configurable capacity bounds, and demote *per transaction*
//! to an SMTX-style instrumented software slow path when the hardware path
//! degrades (DESIGN.md §11).
//!
//! [`run_hytm`] runs the same misspeculation loop as
//! [`run_loop`](crate::run_loop); only the ladder it climbs after each
//! abort's clean-up differs. The demotion ladder, per abort of the first
//! uncommitted transaction:
//!
//! 1. **Fast-path retry with backoff** — conflict-class aborts re-dispatch
//!    the paradigm after a seeded-deterministic exponential stall, up to
//!    `HytmConfig::demote_after_aborts` consecutive failures.
//! 2. **Software slow path** — `SpecOverflow` (capacity), the VID-exhaustion
//!    watchdog sentinel, an injected fault, or `K` consecutive conflict
//!    aborts demote the stuck transaction: it executes non-speculatively
//!    with the SMTX cost model charged (transaction management plus
//!    per-record log/validation instructions), then the fast path resumes
//!    at the next transaction.
//! 3. **Storm breaker** — `HytmConfig::storm_threshold` consecutive
//!    demotions with no intervening fast-path commit serialize a whole
//!    group of `HytmConfig::storm_group` transactions on the slow path in
//!    one slab, so a capacity squeeze or conflict burst cannot thrash the
//!    ladder one transaction at a time.
//!
//! Unlike the retry ladder's terminal `NonSpec` rung, the slow path here is
//! *bounded*: only the demoted transaction (or storming group) is
//! serialized, and hardware speculation resumes immediately after — the
//! progress guarantee of Alistarh et al.'s hybrid TM formalization.

use std::sync::Arc;

use hmtx_core::{faults, MisspecCause};
use hmtx_isa::{Cond, Program, ProgramBuilder};
use hmtx_machine::{Machine, ThreadContext};
use hmtx_types::{HytmConfig, MachineConfig, SimError, SmtxConfig, ThreadId};

use crate::body::LoopBody;
use crate::emit::Paradigm;
use crate::env::{regs, LoopEnv};
use crate::runner::{
    drive, loop_env, resync_rcb, DemotionCause, HytmMix, RecoveryRung, Run, RunReport,
};

/// Stream tag for the deterministic backoff jitter.
const BACKOFF_STREAM: u64 = 0x4859_544D_424F_4646; // "HYTMBOFF"

/// The machine configuration and loop environment a [`run_hytm`] of
/// `paradigm` starts from: [`loop_env`]'s, with
/// [`HytmConfig::paper_default`]'s bounds enabled if `cfg.hytm` is
/// disabled, and the begin guard's VID-exhaustion watchdog armed.
///
/// # Errors
///
/// [`SimError::Config`] when `paradigm` cannot run on `cfg`'s cores.
pub fn hytm_env(
    paradigm: Paradigm,
    cfg: &MachineConfig,
) -> Result<(MachineConfig, LoopEnv), SimError> {
    let mut base = cfg.clone();
    if !base.hytm.enabled {
        base.hytm = HytmConfig::paper_default();
    }
    let (run_cfg, env) = loop_env(paradigm, &base)?;
    let env = env.with_vid_watchdog(run_cfg.hytm.watchdog_spins);
    Ok((run_cfg, env))
}

/// Runs `body` under `paradigm` in the hybrid `hytm` mode: the HMTX fast
/// path bounded by [`HytmConfig`], with per-transaction demotion to the
/// SMTX-instrumented software slow path (see the module docs for the
/// ladder). If `cfg.hytm` is disabled, the run enables
/// [`HytmConfig::paper_default`]'s bounds.
///
/// The returned [`RunReport`] carries the fast/slow-path mix in
/// [`RunReport::hytm`], and every demotion appears in the recovery log as a
/// [`RecoveryRung::SoftwareSlowPath`] record with its [`DemotionCause`].
///
/// # Errors
///
/// Returns [`SimError::Config`] for an invalid machine configuration,
/// [`SimError`] for guest-program bugs, budget exhaustion, or — as
/// [`SimError::Livelock`] — when the run recovers `cfg.max_recoveries`
/// times without completing.
pub fn run_hytm(
    paradigm: Paradigm,
    body: &dyn LoopBody,
    cfg: &MachineConfig,
    budget: u64,
) -> Result<(Machine, RunReport), SimError> {
    let (run_cfg, env) = hytm_env(paradigm, cfg)?;
    drive(
        paradigm,
        body,
        run_cfg,
        env,
        budget,
        Some(Demotion::default()),
    )
}

/// The demotion ladder's state across one run (its knobs are the
/// machine's `hytm` and `smtx` configuration).
#[derive(Default)]
pub(crate) struct Demotion {
    /// The mix so far; `slow_commits` also counts the transactions the
    /// hardware never committed.
    pub(crate) mix: HytmMix,
    consecutive_demotions: u64,
    /// Total completed transactions at the end of the previous demotion's
    /// slow-path slab; fast-path progress past it resets the storm counter.
    demotion_frontier: u64,
}

impl Demotion {
    /// Picks and starts the next rung for the first uncommitted
    /// transaction `n0`, which has now failed `depth` times in a row; every
    /// core is empty and the control block reads `n0 - 1` committed.
    /// Returns the rung and, for a demotion, its cause.
    pub(crate) fn climb(
        &mut self,
        run: &mut Run<'_>,
        cause: &MisspecCause,
        n0: u64,
        depth: u64,
    ) -> Result<(RecoveryRung, Option<DemotionCause>), SimError> {
        let hytm = run.machine.config().hytm;
        // Classify: immediate demotion causes bypass the retry budget;
        // conflicts demote only as a K-deep abort storm. Epilogue-only
        // failures (everything committed) always re-dispatch in parallel,
        // as in the retry ladder.
        let demotion = if n0 > run.body.iterations() {
            None
        } else {
            DemotionCause::immediate(cause).or_else(|| {
                (depth >= hytm.demote_after_aborts).then_some(DemotionCause::AbortStorm)
            })
        };
        let Some(cause_class) = demotion else {
            let stall = backoff_cycles(&hytm, n0, depth);
            run.machine.stall_all(stall);
            self.mix.backoff_cycles += stall;
            self.mix.fast_retries += 1;
            run.dispatch(n0)?;
            return Ok((RecoveryRung::Parallel, None));
        };

        let idx = DemotionCause::ALL
            .iter()
            .position(|c| *c == cause_class)
            .expect("cause in ALL");
        self.mix.demotions_by_cause[idx] += 1;
        let committed = n0 - 1;
        if committed > self.demotion_frontier {
            // Fast-path commits happened since the last demotion: the storm
            // broke on its own.
            self.consecutive_demotions = 0;
        }
        self.consecutive_demotions += 1;
        let group = if self.consecutive_demotions >= hytm.storm_threshold {
            self.mix.storm_serializations += 1;
            self.consecutive_demotions = 0;
            hytm.storm_group
        } else {
            1
        };
        let (done, stopped) = run_slow_range(run, n0, group)?;
        self.mix.slow_commits += done;
        let now_committed = committed + done;
        self.demotion_frontier = now_committed;
        let now = run.machine.cycles();
        resync_rcb(&mut run.machine, &run.env, now_committed, now)?;
        if !stopped && now_committed < run.body.iterations() {
            run.dispatch(now_committed + 1)?;
        }
        Ok((RecoveryRung::SoftwareSlowPath, demotion))
    }
}

/// Seeded-deterministic exponential backoff with jitter: doubling from the
/// base per extra failure of the same transaction, clamped to the cap,
/// plus a jitter in `[0, base)` derived from `(seed, n0, depth)`.
fn backoff_cycles(hytm: &HytmConfig, n0: u64, depth: u64) -> u64 {
    let exp = depth.saturating_sub(1).min(20);
    let stall = hytm.backoff_cap_cycles.min(
        hytm.backoff_base_cycles
            .checked_shl(exp as u32)
            .unwrap_or(u64::MAX),
    );
    let jitter = if hytm.backoff_base_cycles > 1 {
        faults::derive(
            hytm.backoff_seed,
            BACKOFF_STREAM ^ (n0.wrapping_mul(0x9E37_79B9).wrapping_add(depth)),
            hytm.backoff_base_cycles,
        )
    } else {
        0
    };
    stall + jitter
}

/// Builds the bounded, SMTX-instrumented, non-speculative slow-path range:
/// transactions `n0 .. n0 + count` (clamped to the loop bound, honoring the
/// early-stop flag), both stages inline on core 0, with the SMTX cost model
/// charged per iteration — transaction-management instructions up front and
/// `log_append + (validate_read + apply_write) / 2` instructions per
/// validated speculative access after the body runs.
fn build_slow_range(
    body: &dyn LoopBody,
    env: &LoopEnv,
    smtx: &SmtxConfig,
    n0: u64,
    count: u64,
) -> Result<Arc<Program>, SimError> {
    let per_record =
        smtx.log_append_instrs + (smtx.validate_read_instrs + smtx.apply_write_instrs).div_ceil(2);
    let mut b = ProgramBuilder::new();
    let head = b.new_label();
    let done = b.new_label();
    b.li(regs::RCB, env.rcb.0 as i64);
    b.li(regs::MAX_VID, env.max_vid as i64);
    b.li(regs::SLOT, env.produced_slot.0 as i64);
    b.li(regs::N, n0 as i64);
    b.li(regs::STOP, 0);
    b.li(regs::BOUND, n0.saturating_add(count) as i64);
    b.bind(head)?;
    b.branch_imm(Cond::GeU, regs::N, body.iterations() as i64 + 1, done);
    b.branch(Cond::GeU, regs::N, regs::BOUND, done);
    b.li(regs::STOP, 0);
    b.compute(smtx.tx_mgmt_instrs);
    body.emit_stage1(&mut b, env);
    body.emit_stage2(&mut b, env);
    b.add(regs::T0, regs::SPEC_LOADS, regs::SPEC_STORES);
    b.mul(regs::T0, regs::T0, per_record as i64);
    b.compute_reg(regs::T0);
    b.branch_imm(Cond::Ne, regs::STOP, 0, done);
    b.addi(regs::N, regs::N, 1);
    b.jump(head);
    b.bind(done)?;
    b.halt();
    Ok(Arc::new(b.build()?))
}

/// Runs the slow-path range and reads back how far it got. Returns
/// `(completed, stopped)` — the number of transactions finished and whether
/// the early-stop flag ended the loop. Every core is left unloaded.
fn run_slow_range(run: &mut Run<'_>, n0: u64, count: u64) -> Result<(u64, bool), SimError> {
    let smtx = run.machine.config().smtx;
    let program = build_slow_range(run.body, &run.env, &smtx, n0, count)?;
    run.machine
        .load_thread(0, ThreadContext::new(ThreadId(0), program));
    if let Some((cause, _)) = run.run()? {
        // The slow path uses no transactions and injection never targets
        // non-speculative accesses.
        return Err(SimError::BadProgram(format!(
            "misspeculation on the HyTM software slow path: {cause:?}"
        )));
    }
    let t = run
        .machine
        .thread(0)
        .ok_or_else(|| SimError::BadProgram("HyTM slow-path thread vanished".into()))?;
    let n_final = t.regs[regs::N.index()];
    let stopped = t.regs[regs::STOP.index()] != 0;
    let completed = if stopped {
        n_final - n0 + 1
    } else {
        n_final - n0
    };
    run.unload_all();
    Ok((completed, stopped))
}
