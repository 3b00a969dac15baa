//! Golden and negative tests for the `hmtx-analysis` static verifier.
//!
//! Golden half: every program set the shipped emitters can generate — all 8
//! workloads under every HMTX paradigm, the single-transaction recovery
//! shape, and every SMTX read/write-set mode — must verify with zero
//! diagnostics. A flag on freshly emitted code is a bug in the emitter or a
//! false positive in the analyzer; either must fail CI.
//!
//! Negative half: a corpus of deliberately broken programs, at least two per
//! rule, pinning each rule's id and the exact (core, pc) it anchors to.

use hmtx::analysis::{verify_program, verify_set, VerifyReport};
use hmtx::isa::{Cond, Program, ProgramBuilder, Reg};
use hmtx::runtime::{build_paradigm, emit, verify_generated, LoopEnv, Paradigm};
use hmtx::smtx::emit::build_smtx_pipeline;
use hmtx::smtx::RwSetMode;
use hmtx::types::{MachineConfig, QueueId, Severity};
use hmtx::workloads::{suite, Scale};

// ---------------------------------------------------------------------------
// Golden: shipped emitters produce verifiably clean code.
// ---------------------------------------------------------------------------

#[test]
fn all_hmtx_paradigm_emitters_verify_clean() {
    let cfg = MachineConfig::paper_default();
    let max_vid = cfg.hmtx.max_vid().0;
    for workload in suite(Scale::Quick) {
        let name = workload.meta().name;
        for paradigm in [
            Paradigm::Sequential,
            Paradigm::Doall,
            Paradigm::Doacross,
            Paradigm::Dswp,
            Paradigm::PsDswp,
        ] {
            let workers = match paradigm {
                Paradigm::Sequential | Paradigm::Dswp => 1,
                Paradigm::Doall | Paradigm::Doacross => cfg.num_cores,
                Paradigm::PsDswp => cfg.num_cores.saturating_sub(1).max(1),
            };
            let env = LoopEnv::new(max_vid, workers).with_pipeline_window(cfg.pipeline_window);
            let generated =
                build_paradigm(paradigm, workload.as_ref(), &env, 1).expect("emission succeeds");
            let report = verify_generated(&generated);
            assert!(
                report.is_clean(),
                "{name}/{} flagged:\n{}",
                paradigm.name(),
                report.render_text()
            );
        }
    }
}

#[test]
fn single_tx_recovery_shape_verifies_clean() {
    let cfg = MachineConfig::paper_default();
    let env = LoopEnv::new(cfg.hmtx.max_vid().0, 1).with_pipeline_window(cfg.pipeline_window);
    for workload in suite(Scale::Quick) {
        let generated =
            emit::build_single_tx(workload.as_ref(), &env, 3).expect("emission succeeds");
        let report = verify_generated(&generated);
        assert!(
            report.is_clean(),
            "{}/single-tx flagged:\n{}",
            workload.meta().name,
            report.render_text()
        );
    }
}

#[test]
fn all_smtx_pipeline_emitters_verify_clean() {
    let cfg = MachineConfig::paper_default();
    let workers = cfg.num_cores.saturating_sub(2).max(1);
    let env = LoopEnv::new(cfg.hmtx.max_vid().0, workers);
    for workload in suite(Scale::Quick) {
        for mode in [
            RwSetMode::Minimal,
            RwSetMode::Substantial,
            RwSetMode::Maximal,
        ] {
            let generated = build_smtx_pipeline(workload.as_ref(), &env, &cfg.smtx, mode)
                .expect("emission succeeds");
            let report = verify_generated(&generated);
            assert!(
                report.is_clean(),
                "{}/smtx-{} flagged:\n{}",
                workload.meta().name,
                mode.name(),
                report.render_text()
            );
        }
    }
}

#[test]
fn hytm_watchdog_emitters_verify_clean() {
    // The HyTM fast path arms the VID-exhaustion watchdog, whose
    // sentinel-abort escape (`li T0, 0x7FFF; abortMTX T0`) the analyzer
    // resolves via constant propagation.
    let cfg = MachineConfig::paper_default();
    for workload in suite(Scale::Quick) {
        let paradigm = workload.meta().paradigm;
        let (_, env) = hmtx::runtime::hytm_env(paradigm, &cfg).expect("paper cores fit");
        assert!(env.vid_watchdog.is_some(), "run_hytm arms the watchdog");
        let generated =
            build_paradigm(paradigm, workload.as_ref(), &env, 1).expect("emission succeeds");
        let report = verify_generated(&generated);
        assert!(
            report.is_clean(),
            "{}/hytm-{} flagged:\n{}",
            workload.meta().name,
            paradigm.name(),
            report.render_text()
        );
    }
}

#[test]
fn vcli_all_workloads_gate_is_clean() {
    let opts = hmtx::vcli::Options {
        all_workloads: true,
        ..hmtx::vcli::Options::default()
    };
    let report = hmtx::vcli::run(&opts).expect("vcli runs");
    assert_eq!(report.exit_code(), 0, "{}", report.output);
    assert_eq!(report.diagnostics, 0);
    // 8 workloads × (5 paradigms + single-tx + hytm + 3 smtx modes).
    assert!(
        report.output.contains("80 set(s) verified"),
        "{}",
        report.output
    );
    assert!(report.output.contains("/hytm-"), "{}", report.output);
}

// ---------------------------------------------------------------------------
// Negative corpus: every rule fires, with the expected id, severity, and pc.
// ---------------------------------------------------------------------------

fn prog(f: impl FnOnce(&mut ProgramBuilder)) -> Program {
    let mut b = ProgramBuilder::new();
    f(&mut b);
    b.build().expect("corpus program assembles")
}

/// Asserts `report` contains `rule` at exactly (`core`, `pc`) with the
/// given severity.
#[track_caller]
fn expect_flag(report: &VerifyReport, rule: &str, severity: Severity, core: usize, pc: usize) {
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == rule && d.severity == severity && d.core == core && d.pc == pc),
        "expected {severity}: [{rule}] at core {core} pc {pc}, got:\n{}",
        report.render_text()
    );
}

fn verify_two(p0: &Program, p1: &Program) -> VerifyReport {
    verify_set(&[p0, p1])
}

#[test]
fn corpus_mtx_halt_speculative() {
    // Explicit halt inside an open MTX.
    let p = prog(|b| {
        b.li(Reg::R1, 1).begin_mtx(Reg::R1).halt();
    });
    expect_flag(
        &verify_program(&p),
        "mtx-halt-speculative",
        Severity::Error,
        0,
        2,
    );

    // Falling off the end inside an open MTX (implicit exit).
    let p = prog(|b| {
        b.li(Reg::R1, 1).begin_mtx(Reg::R1).li(Reg::R2, 5);
    });
    expect_flag(
        &verify_program(&p),
        "mtx-halt-speculative",
        Severity::Error,
        0,
        2,
    );
}

#[test]
fn corpus_mtx_begin_while_speculative() {
    let p = prog(|b| {
        b.li(Reg::R1, 1)
            .begin_mtx(Reg::R1)
            .li(Reg::R2, 2)
            .begin_mtx(Reg::R2)
            .commit_mtx(Reg::R2)
            .halt();
    });
    expect_flag(
        &verify_program(&p),
        "mtx-begin-while-speculative",
        Severity::Error,
        0,
        3,
    );

    let p = prog(|b| {
        b.li(Reg::R1, 1)
            .begin_mtx(Reg::R1)
            .begin_mtx(Reg::R1)
            .commit_mtx(Reg::R1)
            .halt();
    });
    expect_flag(
        &verify_program(&p),
        "mtx-begin-while-speculative",
        Severity::Error,
        0,
        2,
    );
}

#[test]
fn corpus_mtx_vid_mismatch() {
    // Commit names a register holding a different (known) VID.
    let p = prog(|b| {
        b.li(Reg::R1, 1)
            .li(Reg::R2, 2)
            .begin_mtx(Reg::R1)
            .commit_mtx(Reg::R2)
            .halt();
    });
    expect_flag(
        &verify_program(&p),
        "mtx-vid-mismatch",
        Severity::Error,
        0,
        3,
    );

    let p = prog(|b| {
        b.li(Reg::R1, 3)
            .begin_mtx(Reg::R1)
            .li(Reg::R2, 4)
            .commit_mtx(Reg::R2)
            .halt();
    });
    expect_flag(
        &verify_program(&p),
        "mtx-vid-mismatch",
        Severity::Error,
        0,
        3,
    );
}

#[test]
fn corpus_mtx_vid_clobber() {
    let p = prog(|b| {
        b.li(Reg::R1, 1)
            .begin_mtx(Reg::R1)
            .li(Reg::R1, 2)
            .commit_mtx(Reg::R1)
            .halt();
    });
    expect_flag(
        &verify_program(&p),
        "mtx-vid-clobber",
        Severity::Error,
        0,
        2,
    );

    let p = prog(|b| {
        b.li(Reg::R1, 1)
            .begin_mtx(Reg::R1)
            .addi(Reg::R1, Reg::R1, 1)
            .commit_mtx(Reg::R1)
            .halt();
    });
    expect_flag(
        &verify_program(&p),
        "mtx-vid-clobber",
        Severity::Error,
        0,
        2,
    );
}

#[test]
fn corpus_mtx_double_commit() {
    let p = prog(|b| {
        b.li(Reg::R1, 1)
            .begin_mtx(Reg::R1)
            .commit_mtx(Reg::R1)
            .commit_mtx(Reg::R1)
            .halt();
    });
    expect_flag(
        &verify_program(&p),
        "mtx-double-commit",
        Severity::Error,
        0,
        3,
    );

    let p = prog(|b| {
        b.li(Reg::R1, 1)
            .begin_mtx(Reg::R1)
            .commit_mtx(Reg::R1)
            .mov(Reg::R2, Reg::R1)
            .commit_mtx(Reg::R1)
            .halt();
    });
    expect_flag(
        &verify_program(&p),
        "mtx-double-commit",
        Severity::Error,
        0,
        4,
    );
}

#[test]
fn corpus_mtx_vidreset_speculative() {
    let p = prog(|b| {
        b.li(Reg::R1, 1)
            .begin_mtx(Reg::R1)
            .vid_reset()
            .commit_mtx(Reg::R1)
            .halt();
    });
    expect_flag(
        &verify_program(&p),
        "mtx-vidreset-speculative",
        Severity::Error,
        0,
        2,
    );

    let p = prog(|b| {
        b.li(Reg::R1, 1)
            .begin_mtx(Reg::R1)
            .compute(1)
            .vid_reset()
            .commit_mtx(Reg::R1)
            .halt();
    });
    expect_flag(
        &verify_program(&p),
        "mtx-vidreset-speculative",
        Severity::Error,
        0,
        3,
    );
}

#[test]
fn corpus_mtx_state_divergence() {
    // One branch arm begins an MTX, the other does not; the join sees both.
    let p = prog(|b| {
        let skip = b.new_label();
        b.li(Reg::R1, 1);
        b.branch_imm(Cond::Eq, Reg::R1, 0, skip);
        b.li(Reg::R2, 1);
        b.begin_mtx(Reg::R2);
        b.bind(skip).unwrap();
        b.halt();
    });
    expect_flag(
        &verify_program(&p),
        "mtx-state-divergence",
        Severity::Error,
        0,
        4,
    );

    let p = prog(|b| {
        let skip = b.new_label();
        b.li(Reg::R2, 1);
        b.branch_imm(Cond::Eq, Reg::R2, 1, skip);
        b.begin_mtx(Reg::R2);
        b.bind(skip).unwrap();
        b.halt();
    });
    expect_flag(
        &verify_program(&p),
        "mtx-state-divergence",
        Severity::Error,
        0,
        3,
    );
}

#[test]
fn corpus_mtx_init_speculative() {
    let p = prog(|b| {
        let h = b.new_label();
        b.li(Reg::R1, 1);
        b.begin_mtx(Reg::R1);
        b.init_mtx(h);
        b.commit_mtx(Reg::R1);
        b.bind(h).unwrap();
        b.halt();
    });
    expect_flag(
        &verify_program(&p),
        "mtx-init-speculative",
        Severity::Warning,
        0,
        2,
    );

    let p = prog(|b| {
        let h = b.new_label();
        b.li(Reg::R1, 2);
        b.begin_mtx(Reg::R1);
        b.compute(1);
        b.init_mtx(h);
        b.commit_mtx(Reg::R1);
        b.bind(h).unwrap();
        b.halt();
    });
    expect_flag(
        &verify_program(&p),
        "mtx-init-speculative",
        Severity::Warning,
        0,
        3,
    );
}

#[test]
fn corpus_mtx_end_without_begin() {
    let p = prog(|b| {
        b.li(Reg::R1, 1).commit_mtx(Reg::R1).halt();
    });
    expect_flag(
        &verify_program(&p),
        "mtx-end-without-begin",
        Severity::Warning,
        0,
        1,
    );

    let p = prog(|b| {
        b.li(Reg::R1, 1).abort_mtx(Reg::R1);
    });
    expect_flag(
        &verify_program(&p),
        "mtx-end-without-begin",
        Severity::Warning,
        0,
        1,
    );
}

#[test]
fn corpus_mtx_never_committed() {
    // Begins and leaves (VID 0) but nobody in the set ever commits.
    let p = prog(|b| {
        b.li(Reg::R1, 1)
            .begin_mtx(Reg::R1)
            .li(Reg::R2, 0)
            .begin_mtx(Reg::R2)
            .halt();
    });
    expect_flag(
        &verify_set(&[&p]),
        "mtx-never-committed",
        Severity::Error,
        0,
        1,
    );

    let p = prog(|b| {
        b.compute(1)
            .li(Reg::R1, 4)
            .begin_mtx(Reg::R1)
            .li(Reg::R2, 0)
            .begin_mtx(Reg::R2)
            .halt();
    });
    expect_flag(
        &verify_set(&[&p]),
        "mtx-never-committed",
        Severity::Error,
        0,
        2,
    );
}

#[test]
fn corpus_reg_use_before_def() {
    let p = prog(|b| {
        b.add(Reg::R3, Reg::R1, Reg::R2).out(Reg::R3).halt();
    });
    expect_flag(
        &verify_program(&p),
        "reg-use-before-def",
        Severity::Warning,
        0,
        0,
    );

    let p = prog(|b| {
        b.li(Reg::R1, 5).store(Reg::R1, Reg::R2, 0).halt();
    });
    expect_flag(
        &verify_program(&p),
        "reg-use-before-def",
        Severity::Warning,
        0,
        1,
    );
}

#[test]
fn corpus_queue_no_consumer() {
    let p = prog(|b| {
        b.li(Reg::R1, 1).produce(QueueId(0), Reg::R1).halt();
    });
    expect_flag(
        &verify_set(&[&p]),
        "queue-no-consumer",
        Severity::Error,
        0,
        1,
    );

    let p0 = prog(|b| {
        b.li(Reg::R1, 1).produce(QueueId(3), Reg::R1).halt();
    });
    let p1 = prog(|b| {
        b.li(Reg::R1, 1).out(Reg::R1).halt();
    });
    expect_flag(
        &verify_two(&p0, &p1),
        "queue-no-consumer",
        Severity::Error,
        0,
        1,
    );
}

#[test]
fn corpus_queue_no_producer() {
    let p = prog(|b| {
        b.consume(Reg::R1, QueueId(0)).out(Reg::R1).halt();
    });
    expect_flag(
        &verify_set(&[&p]),
        "queue-no-producer",
        Severity::Error,
        0,
        0,
    );

    let p0 = prog(|b| {
        b.li(Reg::R1, 1).out(Reg::R1).halt();
    });
    let p1 = prog(|b| {
        b.consume(Reg::R1, QueueId(5)).halt();
    });
    expect_flag(
        &verify_two(&p0, &p1),
        "queue-no-producer",
        Severity::Error,
        1,
        0,
    );
}

#[test]
fn corpus_queue_multi_consumer() {
    let p0 = prog(|b| {
        b.li(Reg::R1, 1)
            .produce(QueueId(0), Reg::R1)
            .produce(QueueId(0), Reg::R1)
            .halt();
    });
    let p1 = prog(|b| {
        b.consume(Reg::R1, QueueId(0)).halt();
    });
    let p2 = prog(|b| {
        b.consume(Reg::R1, QueueId(0)).halt();
    });
    let report = verify_set(&[&p0, &p1, &p2]);
    expect_flag(&report, "queue-multi-consumer", Severity::Warning, 2, 0);

    let p2 = prog(|b| {
        b.li(Reg::R1, 1).consume(Reg::R2, QueueId(0)).halt();
    });
    let report = verify_set(&[&p0, &p1, &p2]);
    expect_flag(&report, "queue-multi-consumer", Severity::Warning, 2, 1);
}

#[test]
fn corpus_queue_deadlock_cycle() {
    // Two cores each consume before producing for the other.
    let p0 = prog(|b| {
        b.consume(Reg::R1, QueueId(1))
            .li(Reg::R2, 1)
            .produce(QueueId(0), Reg::R2)
            .halt();
    });
    let p1 = prog(|b| {
        b.consume(Reg::R1, QueueId(0))
            .li(Reg::R2, 1)
            .produce(QueueId(1), Reg::R2)
            .halt();
    });
    expect_flag(
        &verify_two(&p0, &p1),
        "queue-deadlock-cycle",
        Severity::Error,
        0,
        0,
    );

    // Three-core ring, everyone waiting on the previous core.
    let ring = |qin: usize, qout: usize| {
        prog(move |b| {
            b.consume(Reg::R1, QueueId(qin))
                .li(Reg::R2, 1)
                .produce(QueueId(qout), Reg::R2)
                .halt();
        })
    };
    let (p0, p1, p2) = (ring(2, 0), ring(0, 1), ring(1, 2));
    expect_flag(
        &verify_set(&[&p0, &p1, &p2]),
        "queue-deadlock-cycle",
        Severity::Error,
        0,
        0,
    );
}

#[test]
fn corpus_queue_rate_mismatch() {
    // Producer sends 1, consumer demands 2 — consumer blocks forever.
    let p0 = prog(|b| {
        b.li(Reg::R1, 1).produce(QueueId(0), Reg::R1).halt();
    });
    let p1 = prog(|b| {
        b.consume(Reg::R1, QueueId(0))
            .consume(Reg::R2, QueueId(0))
            .halt();
    });
    expect_flag(
        &verify_two(&p0, &p1),
        "queue-rate-mismatch",
        Severity::Error,
        1,
        0,
    );

    // Producer's best case (1) is below the consumer's demand (2).
    let p0 = prog(|b| {
        let skip = b.new_label();
        b.li(Reg::R1, 1);
        b.branch_imm(Cond::Eq, Reg::R1, 1, skip);
        b.produce(QueueId(0), Reg::R1);
        b.bind(skip).unwrap();
        b.halt();
    });
    expect_flag(
        &verify_two(&p0, &p1),
        "queue-rate-mismatch",
        Severity::Error,
        1,
        0,
    );
}

#[test]
fn corpus_queue_rate_surplus() {
    // Producer always sends 2, consumer takes at most 1 — words pile up.
    let p0 = prog(|b| {
        b.li(Reg::R1, 1)
            .produce(QueueId(0), Reg::R1)
            .produce(QueueId(0), Reg::R1)
            .halt();
    });
    let p1 = prog(|b| {
        b.consume(Reg::R1, QueueId(0)).halt();
    });
    expect_flag(
        &verify_two(&p0, &p1),
        "queue-rate-surplus",
        Severity::Warning,
        0,
        1,
    );

    let p1 = prog(|b| {
        let skip = b.new_label();
        b.li(Reg::R1, 1);
        b.branch_imm(Cond::Eq, Reg::R1, 1, skip);
        b.consume(Reg::R2, QueueId(0));
        b.bind(skip).unwrap();
        b.halt();
    });
    expect_flag(
        &verify_two(&p0, &p1),
        "queue-rate-surplus",
        Severity::Warning,
        0,
        1,
    );
}

#[test]
fn corpus_model_checker_counterexamples() {
    // Model-checker-sourced entries (shared with `hmtx-modelcheck`, which
    // rediscovers and replays them at the protocol level): the lowered
    // trace leaves its transactions open at the violating access, so the
    // verifier flags every speculative core and the set.
    use hmtx::analysis::{lower_counterexample, model_counterexamples};
    let entries = model_counterexamples();
    assert!(entries.len() >= 2, "corpus must hold at least two entries");
    for entry in &entries {
        let programs = lower_counterexample(&entry.ops);
        let refs: Vec<&Program> = programs.iter().collect();
        let report = verify_set(&refs);
        match entry.name {
            // core 0: li,begin,li,ld,halt; core 1: li,begin,li,ld,halt.
            "read-migration-replica" => {
                expect_flag(&report, "mtx-halt-speculative", Severity::Error, 0, 4);
                expect_flag(&report, "mtx-halt-speculative", Severity::Error, 1, 4);
                expect_flag(&report, "mtx-never-committed", Severity::Error, 0, 1);
            }
            // core 0: li,begin,li,ld,halt; core 1: li,begin,li,li,st,halt.
            "dirty-migration-replica" => {
                expect_flag(&report, "mtx-halt-speculative", Severity::Error, 0, 4);
                expect_flag(&report, "mtx-halt-speculative", Severity::Error, 1, 5);
                expect_flag(&report, "mtx-never-committed", Severity::Error, 0, 1);
            }
            other => panic!("unpinned corpus entry `{other}`"),
        }
    }
}

#[test]
fn corpus_spec_store_escape() {
    // Core 1 writes the same 64-byte line that core 0 wrote speculatively.
    let p0 = prog(|b| {
        b.li(Reg::R1, 1)
            .li(Reg::R2, 0x100000)
            .begin_mtx(Reg::R1)
            .store(Reg::R1, Reg::R2, 0)
            .commit_mtx(Reg::R1)
            .halt();
    });
    let p1 = prog(|b| {
        b.li(Reg::R3, 0x100008)
            .li(Reg::R4, 7)
            .store(Reg::R4, Reg::R3, 0)
            .halt();
    });
    expect_flag(
        &verify_two(&p0, &p1),
        "spec-store-escape",
        Severity::Warning,
        1,
        2,
    );

    // Same core, same symbolic address (r6+8), inside then outside the MTX.
    let p = prog(|b| {
        b.li(Reg::R1, 1)
            .li(Reg::R5, 0x200000)
            .load(Reg::R6, Reg::R5, 0)
            .begin_mtx(Reg::R1)
            .store(Reg::R1, Reg::R6, 8)
            .commit_mtx(Reg::R1)
            .store(Reg::R1, Reg::R6, 8)
            .halt();
    });
    expect_flag(
        &verify_set(&[&p]),
        "spec-store-escape",
        Severity::Warning,
        0,
        6,
    );
}
