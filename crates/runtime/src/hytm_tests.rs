//! HyTM tests: the demotion ladder keeps the fast path under generous
//! bounds, demotes under a capacity squeeze, and always computes the
//! sequential result.

use hmtx_isa::{ProgramBuilder, Reg};
use hmtx_machine::Machine;
use hmtx_types::{Addr, HytmConfig, MachineConfig, Vid};

use crate::body::LoopBody;
use crate::emit::Paradigm;
use crate::env::{regs, LoopEnv};
use crate::hytm::run_hytm;
use crate::runner::{DemotionCause, RecoveryRung};

const CELLS: u64 = 0x0010_0000;

/// A loop whose stage 2 touches `touches` lines per iteration and reports
/// its true access counts (what the slow path's SMTX cost model charges).
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
}

/// A config with the hybrid mode enabled at the given set bounds.
fn hytm_cfg(max_read: u32, max_write: u32) -> MachineConfig {
    let mut c = MachineConfig::test_default();
    c.hytm = HytmConfig {
        enabled: true,
        max_read_lines: max_read,
        max_write_lines: max_write,
        ..HytmConfig::paper_default()
    };
    c
}

/// Checks the TouchLines accumulation invariant on a finished machine.
fn assert_touch_lines_output(machine: &Machine, iters: u64, touches: u64) {
    for n in 1..=iters {
        for k in 0..touches {
            assert_eq!(
                machine
                    .mem()
                    .peek_word(Addr(CELLS + (n * touches + k) * 64), Vid(0)),
                n,
                "iteration {n}, line {k}"
            );
        }
    }
}

#[test]
fn hytm_generous_bounds_stay_on_the_fast_path() {
    let body = TouchLines {
        iters: 20,
        touches: 4,
    };
    let (machine, report) =
        run_hytm(Paradigm::PsDswp, &body, &hytm_cfg(64, 64), 10_000_000).unwrap();
    assert_touch_lines_output(&machine, 20, 4);
    let mix = report.hytm.expect("hytm mix present");
    assert_eq!(mix.demotions(), 0, "no demotions under generous bounds");
    assert_eq!(mix.slow_commits, 0);
    assert_eq!(mix.fast_commits, 20);
}

#[test]
fn hytm_capacity_squeeze_demotes_and_still_computes_the_result() {
    // Each iteration writes 4 lines; a 2-line write bound trips
    // SpecOverflow on every transaction, so all progress is slow-path.
    let body = TouchLines {
        iters: 12,
        touches: 4,
    };
    let (machine, report) =
        run_hytm(Paradigm::PsDswp, &body, &hytm_cfg(64, 2), 50_000_000).unwrap();
    assert_touch_lines_output(&machine, 12, 4);
    let mix = report.hytm.expect("hytm mix present");
    assert!(mix.demotions() > 0, "the squeeze must demote: {mix:?}");
    let capacity = DemotionCause::ALL
        .iter()
        .position(|c| *c == DemotionCause::Capacity)
        .unwrap();
    assert!(
        mix.demotions_by_cause[capacity] > 0,
        "demotions classified as capacity: {mix:?}"
    );
    assert_eq!(
        mix.fast_commits + mix.slow_commits,
        12,
        "every transaction committed exactly once: {mix:?}"
    );
    // Demotions are visible in the recovery log with their cause.
    assert!(report
        .recovery_log
        .iter()
        .any(|r| r.rung == RecoveryRung::SoftwareSlowPath
            && r.demotion == Some(DemotionCause::Capacity)));
}

#[test]
fn hytm_runs_are_deterministic() {
    let run = || {
        let body = TouchLines {
            iters: 15,
            touches: 4,
        };
        let (m, r) = run_hytm(Paradigm::PsDswp, &body, &hytm_cfg(8, 2), 50_000_000).unwrap();
        (r.cycles, r.instructions, r.hytm, m.mem().stats().l1_misses)
    };
    assert_eq!(run(), run());
}

#[test]
fn hytm_spec_overflow_boundary_sweep_never_panics_or_livelocks() {
    // Satellite: the SpecOverflow boundary. Across vid widths and set
    // bounds spanning "always trips" to "never trips", every combination
    // must either finish on the fast path or demote cleanly — and the
    // committed result must be identical throughout.
    let body = TouchLines {
        iters: 10,
        touches: 4,
    };
    for vid_bits in [2u32, 4, 8] {
        for bound in [1u32, 2, 4, 5, 64] {
            let mut c = hytm_cfg(bound, bound);
            c.hmtx.vid_bits = vid_bits;
            let (machine, report) = run_hytm(Paradigm::PsDswp, &body, &c, 100_000_000)
                .unwrap_or_else(|e| panic!("vid_bits={vid_bits} bound={bound}: {e:?}"));
            assert_touch_lines_output(&machine, 10, 4);
            let mix = report.hytm.expect("hytm mix present");
            assert_eq!(
                mix.fast_commits + mix.slow_commits,
                10,
                "vid_bits={vid_bits} bound={bound}: {mix:?}"
            );
            // Stage 2 writes 4 data lines: a bound under 4 cannot hold
            // the write set, so the run must demote.
            if bound < 4 {
                assert!(
                    mix.demotions() > 0,
                    "vid_bits={vid_bits} bound={bound} must demote: {mix:?}"
                );
            }
        }
    }
}
