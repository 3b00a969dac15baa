//! End-to-end paradigm tests: every paradigm must produce the sequential
//! result, VID wraparound must reset cleanly, and true conflicts must
//! recover with forward progress.

use hmtx_core::{AccessKind, AccessRequest};
use hmtx_isa::{Cond, ProgramBuilder, Reg};
use hmtx_machine::Machine;
use hmtx_types::{Addr, CoreId, MachineConfig, SimError, Vid};

use crate::body::LoopBody;
use crate::emit::Paradigm;
use crate::env::{rcb, regs, LoopEnv};
use crate::runner::{resync_rcb, run_loop, run_single_tx, RecoveryRung, Run};

const CELLS: u64 = 0x0010_0000;

fn cfg() -> MachineConfig {
    MachineConfig::test_default()
}

/// Conflict-free: stage 1 passes `n`, stage 2 writes `3n` into cell `n`.
struct FillCells {
    iters: u64,
}

impl LoopBody for FillCells {
    fn iterations(&self) -> u64 {
        self.iters
    }
    fn build_image(&self, _m: &mut Machine, _env: &LoopEnv) {}
    fn emit_stage1(&self, b: &mut ProgramBuilder, _env: &LoopEnv) {
        b.mov(regs::ITEM, regs::N);
    }
    fn emit_stage2(&self, b: &mut ProgramBuilder, _env: &LoopEnv) {
        b.shl(Reg::R1, regs::ITEM, 6);
        b.addi(Reg::R1, Reg::R1, CELLS as i64);
        b.mul(Reg::R2, regs::ITEM, 3);
        b.store(Reg::R2, Reg::R1, 0);
    }
}

/// Loop-carried: stage 1 keeps a running sum in a state slot; stage 2
/// writes the prefix sum into cell `n` and emits it as output.
struct ChainSum {
    iters: u64,
}

impl LoopBody for ChainSum {
    fn iterations(&self) -> u64 {
        self.iters
    }
    fn build_image(&self, _m: &mut Machine, _env: &LoopEnv) {}
    fn emit_stage1(&self, b: &mut ProgramBuilder, env: &LoopEnv) {
        b.li(Reg::R1, env.state_slot(0).0 as i64);
        b.load(Reg::R2, Reg::R1, 0);
        b.add(Reg::R2, Reg::R2, regs::N);
        b.store(Reg::R2, Reg::R1, 0);
        b.mov(regs::ITEM, Reg::R2);
    }
    fn emit_stage2(&self, b: &mut ProgramBuilder, _env: &LoopEnv) {
        b.sub(Reg::R3, regs::N, 0); // R3 = n
        b.shl(Reg::R3, Reg::R3, 6);
        b.addi(Reg::R3, Reg::R3, CELLS as i64);
        b.store(regs::ITEM, Reg::R3, 0);
        b.out(regs::ITEM);
    }
    fn expected_outputs(&self) -> Option<u64> {
        Some(self.iters)
    }
}

/// Deliberately conflicting: every stage-2 transaction read-modify-writes
/// one shared accumulator.
struct SharedAccum {
    iters: u64,
}

impl LoopBody for SharedAccum {
    fn iterations(&self) -> u64 {
        self.iters
    }
    fn build_image(&self, _m: &mut Machine, _env: &LoopEnv) {}
    fn emit_stage1(&self, b: &mut ProgramBuilder, _env: &LoopEnv) {
        b.mov(regs::ITEM, regs::N);
    }
    fn emit_stage2(&self, b: &mut ProgramBuilder, _env: &LoopEnv) {
        b.li(Reg::R1, CELLS as i64);
        b.load(Reg::R2, Reg::R1, 0);
        b.add(Reg::R2, Reg::R2, regs::ITEM);
        b.store(Reg::R2, Reg::R1, 0);
    }
}

/// Early exit: stage 1 stops the loop at iteration `stop_at`.
struct EarlyStop {
    stop_at: u64,
}

impl LoopBody for EarlyStop {
    fn iterations(&self) -> u64 {
        1_000_000 // effectively unbounded; STOP terminates
    }
    fn build_image(&self, _m: &mut Machine, _env: &LoopEnv) {}
    fn emit_stage1(&self, b: &mut ProgramBuilder, _env: &LoopEnv) {
        b.mov(regs::ITEM, regs::N);
        let cont = b.new_label();
        b.branch_imm(Cond::LtU, regs::N, self.stop_at as i64, cont);
        b.li(regs::STOP, 1);
        b.bind(cont).unwrap();
    }
    fn emit_stage2(&self, b: &mut ProgramBuilder, _env: &LoopEnv) {
        b.out(regs::ITEM);
    }
}

fn check_cells(machine: &Machine, iters: u64, f: impl Fn(u64) -> u64) {
    for n in 1..=iters {
        assert_eq!(
            machine.mem().peek_word(Addr(CELLS + n * 64), Vid(0)),
            f(n),
            "cell {n}"
        );
    }
}

#[test]
fn fill_cells_all_paradigms_match_sequential() {
    for paradigm in [
        Paradigm::Sequential,
        Paradigm::Doall,
        Paradigm::Doacross,
        Paradigm::Dswp,
        Paradigm::PsDswp,
    ] {
        let body = FillCells { iters: 40 };
        let (machine, report) = run_loop(paradigm, &body, &cfg(), 10_000_000).unwrap_or_else(|e| {
            panic!("{} failed: {e}", paradigm.name());
        });
        assert_eq!(
            report.recoveries,
            0,
            "{} should not misspeculate",
            paradigm.name()
        );
        check_cells(&machine, 40, |n| 3 * n);
    }
}

#[test]
fn chain_sum_loop_carried_state_via_versioned_memory() {
    let mut seq_outputs = None;
    for paradigm in [
        Paradigm::Sequential,
        Paradigm::Doacross,
        Paradigm::Dswp,
        Paradigm::PsDswp,
    ] {
        let body = ChainSum { iters: 30 };
        let (machine, report) = run_loop(paradigm, &body, &cfg(), 10_000_000).unwrap_or_else(|e| {
            panic!("{} failed: {e}", paradigm.name());
        });
        assert_eq!(report.recoveries, 0, "{}", paradigm.name());
        check_cells(&machine, 30, |n| n * (n + 1) / 2);
        match &seq_outputs {
            None => seq_outputs = Some(report.outputs),
            Some(expected) => {
                assert_eq!(
                    &report.outputs,
                    expected,
                    "{} output order",
                    paradigm.name()
                )
            }
        }
    }
}

#[test]
fn true_conflicts_recover_with_forward_progress() {
    let body = SharedAccum { iters: 25 };
    let (machine, report) = run_loop(Paradigm::PsDswp, &body, &cfg(), 50_000_000).unwrap();
    assert_eq!(
        machine.mem().peek_word(Addr(CELLS), Vid(0)),
        (1..=25).sum::<u64>(),
        "serializable final value despite conflicts"
    );
    assert!(
        report.recoveries > 0,
        "shared accumulator must actually conflict"
    );
}

#[test]
fn vid_wraparound_resets_and_completes() {
    let mut c = cfg();
    c.hmtx.vid_bits = 4; // max VID 15 -> many resets over 100 iterations
    let body = FillCells { iters: 100 };
    let (machine, report) = run_loop(Paradigm::PsDswp, &body, &c, 50_000_000).unwrap();
    assert_eq!(report.recoveries, 0);
    assert!(
        machine.mem().stats().vid_resets >= 5,
        "expected many VID resets, got {}",
        machine.mem().stats().vid_resets
    );
    check_cells(&machine, 100, |n| 3 * n);
}

#[test]
fn early_stop_terminates_pipeline() {
    let body = EarlyStop { stop_at: 17 };
    let (_, report) = run_loop(Paradigm::PsDswp, &body, &cfg(), 10_000_000).unwrap();
    assert_eq!(report.outputs, (1..=17).collect::<Vec<u64>>());
}

#[test]
fn doall_scales_against_sequential() {
    let body = FillCells { iters: 200 };
    let (_, seq) = run_loop(Paradigm::Sequential, &body, &cfg(), 50_000_000).unwrap();
    let body = FillCells { iters: 200 };
    let (_, par) = run_loop(Paradigm::Doall, &body, &cfg(), 50_000_000).unwrap();
    // The loop body is tiny, so overheads dominate; just require overlap.
    assert!(
        par.cycles < seq.cycles * 2,
        "DOALL wildly slower: {} vs {}",
        par.cycles,
        seq.cycles
    );
}

#[test]
fn committed_transactions_match_iterations() {
    let body = FillCells { iters: 40 };
    let (machine, _) = run_loop(Paradigm::PsDswp, &body, &cfg(), 10_000_000).unwrap();
    assert_eq!(machine.mem().stats().commits, 40);
}

#[test]
fn recovery_frees_vid_space_after_abort() {
    // A 4-bit VID space (15 usable VIDs) cannot cover 40 iterations plus
    // the re-executions that conflicts force unless every recovery actually
    // returns aborted VIDs to the allocator via a reset.
    let mut c = cfg();
    c.hmtx.vid_bits = 4;
    let body = SharedAccum { iters: 40 };
    let (machine, report) = run_loop(Paradigm::PsDswp, &body, &c, 100_000_000).unwrap();
    assert!(report.recoveries > 0, "shared accumulator must conflict");
    assert!(
        machine.mem().stats().vid_resets > 0,
        "recovery must free the VID space"
    );
    assert_eq!(
        machine.mem().peek_word(Addr(CELLS), Vid(0)),
        (1..=40).sum::<u64>(),
        "serializable final value despite conflicts in a tiny VID space"
    );
}

#[test]
fn rcb_resync_drains_speculative_pollution_and_writes_true_values() {
    let c = cfg();
    let env = LoopEnv::new(c.hmtx.max_vid().0, 2).with_pipeline_window(c.pipeline_window);
    let mut machine = Machine::new(c);
    // Pollute the control block line with a lingering speculative store, as
    // a crashed worker would leave behind.
    let req = AccessRequest {
        core: CoreId(1),
        addr: env.rcb.offset(rcb::LAST_COMMITTED),
        kind: AccessKind::Write(99),
        vid: Vid(3),
        wrong_path: false,
    };
    machine.mem_mut().access(0, &req).unwrap();
    resync_rcb(&mut machine, &env, 7, 0).unwrap();
    assert_eq!(
        machine
            .mem()
            .peek_word(env.rcb.offset(rcb::LAST_COMMITTED), Vid(0)),
        7,
        "last-committed slot must hold the true commit count"
    );
    assert_eq!(
        machine
            .mem()
            .peek_word(env.rcb.offset(rcb::VID_BASE), Vid(0)),
        7,
        "VID base must match the commit count after a reset"
    );
}

#[test]
fn serialized_rung_commits_the_stuck_transaction_exactly_once() {
    let c = cfg();
    let env = LoopEnv::new(c.hmtx.max_vid().0, 2).with_pipeline_window(c.pipeline_window);
    let mut machine = Machine::new(c);
    let body = ChainSum { iters: 5 };
    body.build_image(&mut machine, &env);
    let before = machine.mem().stats().commits;
    let mut run = Run {
        paradigm: Paradigm::PsDswp,
        body: &body,
        env,
        machine,
        budget: u64::MAX,
    };
    let outcome = run_single_tx(&mut run, 1).unwrap();
    let machine = run.machine;
    assert!(outcome.is_none(), "a lone transaction cannot conflict");
    assert_eq!(
        machine.mem().stats().commits,
        before + 1,
        "exactly one commit"
    );
    assert_eq!(
        machine.committed_output(),
        &[1],
        "transaction 1 emits its output exactly once"
    );
    check_cells(&machine, 1, |n| n * (n + 1) / 2);
}

#[test]
fn ladder_escalates_to_single_tx_when_parallel_retries_exhausted() {
    let mut c = cfg();
    c.recovery_parallel_retries = 0;
    let body = SharedAccum { iters: 10 };
    let (machine, report) = run_loop(Paradigm::PsDswp, &body, &c, 50_000_000).unwrap();
    assert_eq!(
        machine.mem().peek_word(Addr(CELLS), Vid(0)),
        (1..=10).sum::<u64>()
    );
    assert!(report.recoveries > 0);
    assert_eq!(report.recovery_log.len() as u64, report.recoveries);
    assert!(
        report
            .recovery_log
            .iter()
            .all(|r| r.rung == RecoveryRung::SingleTx || r.rung == RecoveryRung::Parallel),
        "no injected faults, so the non-speculative rung must never engage"
    );
    assert!(
        report
            .recovery_log
            .iter()
            .any(|r| r.rung == RecoveryRung::SingleTx),
        "zero parallel retries must escalate straight to the serialized rung"
    );
}

#[test]
fn serialized_rung_counts_against_the_budget() {
    let mut c = cfg();
    c.recovery_parallel_retries = 0;
    let body = SharedAccum { iters: 10 };
    let (_, report) = run_loop(Paradigm::PsDswp, &body, &c, 50_000_000).unwrap();
    assert!(report
        .recovery_log
        .iter()
        .any(|r| r.rung == RecoveryRung::SingleTx));
    // Exactly the instructions the run retired, serialized rungs included,
    // suffice; one fewer is a named budget error, not a longer run.
    let total = report.instructions;
    let (_, again) = run_loop(Paradigm::PsDswp, &body, &c, total).unwrap();
    assert_eq!(again.instructions, total);
    match run_loop(Paradigm::PsDswp, &body, &c, total - 1).unwrap_err() {
        SimError::InstructionBudgetExceeded { budget } => assert_eq!(budget, total - 1),
        other => panic!("expected InstructionBudgetExceeded, got {other:?}"),
    }
}

#[test]
fn livelock_reported_after_max_recoveries() {
    let mut c = cfg();
    c.max_recoveries = 1;
    c.recovery_parallel_retries = 1_000_000; // never escalate, so conflicts recur
    let body = SharedAccum { iters: 20 };
    let err = run_loop(Paradigm::PsDswp, &body, &c, 500_000_000).unwrap_err();
    match err {
        SimError::Livelock { recoveries, .. } => assert_eq!(recoveries, 2),
        other => panic!("expected Livelock, got {other:?}"),
    }
}

#[test]
fn interrupts_with_pipeline_still_correct() {
    let mut c = cfg();
    c.interrupt_period = 2_000;
    let body = ChainSum { iters: 30 };
    let (machine, report) = run_loop(Paradigm::PsDswp, &body, &c, 20_000_000).unwrap();
    assert_eq!(
        report.recoveries, 0,
        "interrupts must not fault transactions"
    );
    check_cells(&machine, 30, |n| n * (n + 1) / 2);
}
