//! HyTM — the hybrid execution mode: transactions run on the HMTX fast
//! path under configurable capacity bounds, and demote *per transaction*
//! to an SMTX-style instrumented software slow path when the hardware path
//! degrades (DESIGN.md §11).
//!
//! The demotion ladder, per abort of the first uncommitted transaction:
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
//! Unlike the PR 2 recovery ladder's terminal `NonSpec` rung, the slow path
//! here is *bounded*: only the demoted transaction (or storming group) is
//! serialized, and hardware speculation resumes immediately after — the
//! progress guarantee of Alistarh et al.'s hybrid TM formalization.

use std::sync::Arc;

use hmtx_core::faults;
use hmtx_isa::{Cond, ProgramBuilder};
use hmtx_machine::{Machine, RunEvent, ThreadContext};
use hmtx_runtime::env::regs;
use hmtx_runtime::{
    build_paradigm, chaos_invariant_check, check_cores, resync_rcb, squeezed_config, DemotionCause,
    HytmMix, LoopBody, LoopEnv, Paradigm, RecoveryRecord, RecoveryRung, RunReport,
};
use hmtx_types::{HytmConfig, MachineConfig, SimError, SmtxConfig, ThreadId, Vid, MAX_CORES};

/// Stream tag for the deterministic backoff jitter.
const BACKOFF_STREAM: u64 = 0x4859_544D_424F_4646; // "HYTMBOFF"

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
) -> Result<Arc<hmtx_isa::Program>, SimError> {
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
fn run_slow_range(
    machine: &mut Machine,
    body: &dyn LoopBody,
    env: &LoopEnv,
    smtx: &SmtxConfig,
    n0: u64,
    count: u64,
    budget: u64,
) -> Result<(u64, bool), SimError> {
    let program = build_slow_range(body, env, smtx, n0, count)?;
    machine.load_thread(0, ThreadContext::new(ThreadId(0), program));
    match machine.run(budget)? {
        RunEvent::AllHalted => {}
        RunEvent::BudgetExhausted => return Err(SimError::InstructionBudgetExceeded { budget }),
        RunEvent::Misspeculation { cause, .. } => {
            // The slow path uses no transactions and injection never
            // targets non-speculative accesses.
            return Err(SimError::BadProgram(format!(
                "misspeculation on the HyTM software slow path: {cause:?}"
            )));
        }
    }
    let t = machine
        .thread(0)
        .ok_or_else(|| SimError::BadProgram("HyTM slow-path thread vanished".into()))?;
    let n_final = t.regs[regs::N.index()];
    let stopped = t.regs[regs::STOP.index()] != 0;
    let completed = if stopped {
        n_final - n0 + 1
    } else {
        n_final - n0
    };
    for core in 0..machine.config().num_cores {
        machine.unload_thread(core);
    }
    Ok((completed, stopped))
}

/// Loads the paradigm's generated threads starting at transaction `n0`.
fn dispatch_fast(
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
    let mut base = cfg.clone();
    if !base.hytm.enabled {
        base.hytm = HytmConfig::paper_default();
    }
    check_cores(paradigm.name(), paradigm.min_cores()..=MAX_CORES, &base)?;
    let workers = paradigm.workers(base.num_cores);
    let (run_cfg, max_vid) = squeezed_config(&base);
    let hytm = run_cfg.hytm;
    let smtx = run_cfg.smtx;
    let env = LoopEnv::new(max_vid, workers)
        .with_pipeline_window(run_cfg.pipeline_window)
        .with_vid_watchdog(hytm.watchdog_spins);
    let mut machine = Machine::try_new(run_cfg)?;
    body.build_image(&mut machine, &env);

    dispatch_fast(paradigm, body, &env, &mut machine, 1)?;

    let mut mix = HytmMix::default();
    let mut recoveries = 0u64;
    let mut recovery_causes = Vec::new();
    let mut recovery_log: Vec<RecoveryRecord> = Vec::new();
    let mut stuck_n0 = 0u64;
    let mut depth = 0u64;
    let mut slow_done = 0u64;
    let mut consecutive_demotions = 0u64;
    // Total completed transactions at the end of the previous demotion's
    // slow-path slab; fast-path progress past it resets the storm counter.
    let mut demotion_frontier = 0u64;
    loop {
        let spent = machine.stats().instructions;
        let event = machine.run(budget.saturating_sub(spent))?;
        match event {
            RunEvent::AllHalted => break,
            RunEvent::BudgetExhausted => {
                return Err(SimError::InstructionBudgetExceeded { budget });
            }
            RunEvent::Misspeculation { cause, cycle } => {
                recoveries += 1;
                if recoveries > base.max_recoveries {
                    return Err(SimError::Livelock {
                        recoveries,
                        last_cause: format!("{cause:?}"),
                    });
                }
                chaos_invariant_check(&base, &machine)?;

                let committed = machine.mem().stats().commits + slow_done;
                let n0 = committed + 1;
                if n0 == stuck_n0 {
                    depth += 1;
                } else {
                    stuck_n0 = n0;
                    depth = 1;
                }

                // Shared cleanup: free the VID space, repair the control
                // block, clear every core.
                if machine.mem().last_committed() > Vid::NON_SPECULATIVE {
                    machine.vid_reset();
                }
                resync_rcb(&mut machine, &env, committed, cycle)?;
                for core in 0..machine.config().num_cores {
                    machine.unload_thread(core);
                }

                // Classify: immediate demotion causes bypass the retry
                // budget; conflicts demote only as a K-deep abort storm.
                // Epilogue-only failures (everything committed) always
                // re-dispatch in parallel, as in the base ladder.
                let demotion = if n0 > body.iterations() {
                    None
                } else {
                    DemotionCause::immediate(&cause).or_else(|| {
                        (depth >= hytm.demote_after_aborts).then_some(DemotionCause::AbortStorm)
                    })
                };

                let rung = match demotion {
                    None => {
                        let stall = backoff_cycles(&hytm, n0, depth);
                        machine.stall_all(stall);
                        mix.backoff_cycles += stall;
                        mix.fast_retries += 1;
                        dispatch_fast(paradigm, body, &env, &mut machine, n0)?;
                        RecoveryRung::Parallel
                    }
                    Some(cause_class) => {
                        let idx = DemotionCause::ALL
                            .iter()
                            .position(|c| *c == cause_class)
                            .expect("cause in ALL");
                        mix.demotions_by_cause[idx] += 1;
                        if committed > demotion_frontier {
                            // Fast-path commits happened since the last
                            // demotion: the storm broke on its own.
                            consecutive_demotions = 0;
                        }
                        consecutive_demotions += 1;
                        let group = if consecutive_demotions >= hytm.storm_threshold {
                            mix.storm_serializations += 1;
                            consecutive_demotions = 0;
                            hytm.storm_group
                        } else {
                            1
                        };
                        let spent = machine.stats().instructions;
                        let (done, stopped) = run_slow_range(
                            &mut machine,
                            body,
                            &env,
                            &smtx,
                            n0,
                            group,
                            budget.saturating_sub(spent),
                        )?;
                        slow_done += done;
                        mix.slow_commits += done;
                        let now_committed = committed + done;
                        demotion_frontier = now_committed;
                        stuck_n0 = 0;
                        depth = 0;
                        let now = machine.cycles();
                        resync_rcb(&mut machine, &env, now_committed, now)?;
                        if !stopped && now_committed < body.iterations() {
                            dispatch_fast(paradigm, body, &env, &mut machine, now_committed + 1)?;
                        }
                        RecoveryRung::SoftwareSlowPath
                    }
                };
                recovery_causes.push(cause);
                recovery_log.push(RecoveryRecord {
                    cause,
                    cycle,
                    depth,
                    rung,
                    demotion,
                });
            }
        }
    }

    chaos_invariant_check(&base, &machine)?;
    if let Some(expected) = body.expected_outputs() {
        let got = machine.committed_output().len() as u64;
        debug_assert_eq!(expected, got, "workload output count mismatch");
    }

    mix.fast_commits = machine.mem().stats().commits;
    let report = RunReport {
        paradigm,
        cycles: machine.cycles(),
        instructions: machine.stats().instructions,
        recoveries,
        recovery_causes,
        recovery_log,
        outputs: machine.committed_output().to_vec(),
        machine_stats: *machine.stats(),
        hytm: Some(mix),
    };
    Ok((machine, report))
}
