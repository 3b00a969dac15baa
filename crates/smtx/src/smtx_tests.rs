//! SMTX baseline tests: correctness of the pipeline, and the Figure 2
//! phenomenon — minimal validation is cheap, heavy validation makes the
//! commit process the bottleneck.

use hmtx_isa::{ProgramBuilder, Reg};
use hmtx_machine::Machine;
use hmtx_runtime::env::regs;
use hmtx_runtime::{run_loop, LoopBody, LoopEnv, Paradigm};
use hmtx_types::{Addr, MachineConfig, Vid};

use crate::emit::RwSetMode;
use crate::runner::run_smtx;

const CELLS: u64 = 0x0010_0000;

fn cfg() -> MachineConfig {
    MachineConfig::test_default()
}

/// A loop whose stage 2 touches `touches` lines per iteration and reports
/// its true access counts (for maximal validation).
struct TouchLines {
    iters: u64,
    touches: u64,
}

impl LoopBody for TouchLines {
    fn iterations(&self) -> u64 {
        self.iters
    }
    fn build_image(&self, _m: &mut Machine, _env: &LoopEnv) {}
    fn emit_stage1(&self, b: &mut ProgramBuilder, _env: &LoopEnv) {
        b.mov(regs::ITEM, regs::N);
        b.li(regs::SPEC_LOADS, 1);
        b.li(regs::SPEC_STORES, 1);
    }
    fn emit_stage2(&self, b: &mut ProgramBuilder, _env: &LoopEnv) {
        // Touch `touches` lines in a private per-iteration block.
        let head = b.new_label();
        let done = b.new_label();
        b.mul(Reg::R1, regs::ITEM, 64 * self.touches as i64);
        b.addi(Reg::R1, Reg::R1, CELLS as i64);
        b.li(Reg::R2, 0);
        b.bind(head).unwrap();
        b.branch_imm(hmtx_isa::Cond::GeU, Reg::R2, self.touches as i64, done);
        b.load(Reg::R3, Reg::R1, 0);
        b.add(Reg::R3, Reg::R3, regs::ITEM);
        b.store(Reg::R3, Reg::R1, 0);
        b.addi(Reg::R1, Reg::R1, 64);
        b.addi(Reg::R2, Reg::R2, 1);
        b.jump(head);
        b.bind(done).unwrap();
        // True per-iteration counts for maximal validation.
        b.li(regs::SPEC_LOADS, self.touches as i64);
        b.li(regs::SPEC_STORES, self.touches as i64);
    }
    fn minimal_rw_counts(&self) -> (u64, u64) {
        (2, 1)
    }
}

#[test]
fn smtx_pipeline_computes_correct_result() {
    let body = TouchLines {
        iters: 20,
        touches: 4,
    };
    let (machine, report) = run_smtx(&body, &cfg(), RwSetMode::Minimal, 10_000_000).unwrap();
    // Cell (n * touches + k) accumulated n once.
    for n in 1..=20u64 {
        for k in 0..4u64 {
            assert_eq!(
                machine
                    .mem()
                    .peek_word(Addr(CELLS + (n * 4 + k) * 64), Vid(0)),
                n,
                "iteration {n}, line {k}"
            );
        }
    }
    assert!(report.cycles > 0);
}

#[test]
fn validation_overhead_grows_with_rw_set_mode() {
    let run = |mode| {
        let body = TouchLines {
            iters: 30,
            touches: 32,
        };
        let (_, report) = run_smtx(&body, &cfg(), mode, 100_000_000).unwrap();
        report.cycles
    };
    let minimal = run(RwSetMode::Minimal);
    let substantial = run(RwSetMode::Substantial);
    let maximal = run(RwSetMode::Maximal);
    assert!(
        minimal < substantial && substantial < maximal,
        "validation cost must be monotone: {minimal} < {substantial} < {maximal}"
    );
}

#[test]
fn figure2_shape_minimal_speeds_up_substantial_slows_down() {
    // A loop with enough per-iteration work to parallelize profitably, but a
    // large enough footprint that full validation swamps the commit core.
    struct Workish;
    impl LoopBody for Workish {
        fn iterations(&self) -> u64 {
            40
        }
        fn build_image(&self, _m: &mut Machine, _env: &LoopEnv) {}
        fn emit_stage1(&self, b: &mut ProgramBuilder, _env: &LoopEnv) {
            b.mov(regs::ITEM, regs::N);
            b.li(regs::SPEC_LOADS, 1);
            b.li(regs::SPEC_STORES, 1);
        }
        fn emit_stage2(&self, b: &mut ProgramBuilder, _env: &LoopEnv) {
            b.compute(400);
            let head = b.new_label();
            let done = b.new_label();
            b.mul(Reg::R1, regs::ITEM, 64 * 24);
            b.addi(Reg::R1, Reg::R1, CELLS as i64);
            b.li(Reg::R2, 0);
            b.bind(head).unwrap();
            b.branch_imm(hmtx_isa::Cond::GeU, Reg::R2, 24, done);
            b.store(Reg::R2, Reg::R1, 0);
            b.addi(Reg::R1, Reg::R1, 64);
            b.addi(Reg::R2, Reg::R2, 1);
            b.jump(head);
            b.bind(done).unwrap();
            b.li(regs::SPEC_LOADS, 24);
            b.li(regs::SPEC_STORES, 24);
        }
    }

    let (_, seq) = run_loop(Paradigm::Sequential, &Workish, &cfg(), 100_000_000).unwrap();
    let (_, min) = run_smtx(&Workish, &cfg(), RwSetMode::Minimal, 100_000_000).unwrap();
    let (_, max) = run_smtx(&Workish, &cfg(), RwSetMode::Maximal, 100_000_000).unwrap();
    let min_speedup = seq.cycles as f64 / min.cycles as f64;
    let max_speedup = seq.cycles as f64 / max.cycles as f64;
    assert!(
        min_speedup > max_speedup,
        "more validation must not be faster: {min_speedup:.2} vs {max_speedup:.2}"
    );
    assert!(
        min_speedup > 1.0,
        "minimal-validation SMTX should speed up ({min_speedup:.2}x)"
    );
}

#[test]
fn smtx_runs_are_deterministic() {
    let run = || {
        let body = TouchLines {
            iters: 15,
            touches: 8,
        };
        let (m, r) = run_smtx(&body, &cfg(), RwSetMode::Maximal, 50_000_000).unwrap();
        (r.cycles, r.instructions, m.mem().stats().l1_misses)
    };
    assert_eq!(run(), run());
}

#[test]
fn pipeline_structure_has_commit_core_and_log_shipping() {
    use hmtx_isa::Instr;
    use hmtx_runtime::LoopEnv;
    let body = TouchLines {
        iters: 10,
        touches: 4,
    };
    let env = LoopEnv::new(63, 2);
    let g = crate::emit::build_smtx_pipeline(&body, &env, &cfg().smtx, RwSetMode::Maximal).unwrap();
    // stage 1 + 2 workers + commit process.
    assert_eq!(g.threads.len(), 4);
    assert_eq!(g.threads[3].core, 3, "commit process on its own core");
    let count =
        |p: &hmtx_isa::Program, f: fn(&Instr) -> bool| p.instrs().iter().filter(|i| f(i)).count();
    for t in &g.threads {
        assert_eq!(
            count(&t.program, |i| matches!(i, Instr::BeginMtx { .. })),
            0,
            "SMTX never uses HMTX instructions"
        );
        assert_eq!(
            count(&t.program, |i| matches!(i, Instr::CommitMtx { .. })),
            0
        );
    }
    // Workers and stage 1 ship logs (stores) and post to the commit queue.
    for t in &g.threads[..3] {
        assert!(count(&t.program, |i| matches!(i, Instr::Store { .. })) >= 1);
        assert!(count(&t.program, |i| matches!(i, Instr::Produce { .. })) >= 1);
    }
    // The commit process only loads (validation reads), never stores.
    let commit = &g.threads[3].program;
    assert!(count(commit, |i| matches!(i, Instr::Load { .. })) >= 1);
    assert_eq!(count(commit, |i| matches!(i, Instr::Store { .. })), 0);
    assert!(count(commit, |i| matches!(i, Instr::Consume { .. })) >= 1);
}

#[test]
fn smtx_uses_one_fewer_worker_than_hmtx() {
    // With 4 cores: HMTX gets 3 stage-2 workers, SMTX only 2 (the commit
    // process eats a core) — the paper's structural handicap.
    let body = TouchLines {
        iters: 30,
        touches: 16,
    };
    let (machine, _) = run_smtx(&body, &cfg(), RwSetMode::Minimal, 100_000_000).unwrap();
    // All four cores were occupied (stage1, 2 workers, commit).
    assert!(machine.stats().instructions > 0);
    let (_, hmtx_report) =
        hmtx_runtime::run_loop(hmtx_runtime::Paradigm::PsDswp, &body, &cfg(), 100_000_000).unwrap();
    let (_, smtx_report) = run_smtx(&body, &cfg(), RwSetMode::Minimal, 100_000_000).unwrap();
    assert!(
        hmtx_report.cycles < smtx_report.cycles,
        "3 workers + hardware validation must beat 2 workers + software"
    );
}
