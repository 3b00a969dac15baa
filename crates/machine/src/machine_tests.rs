//! Machine-level behavioural tests: interpretation, pipelines over hardware
//! queues, MTX instructions end to end, interrupts, migration, wrong-path
//! execution, and output buffering.

use std::sync::Arc;

use hmtx_core::MisspecCause;
use hmtx_isa::{Cond, Program, ProgramBuilder, Reg};
use hmtx_types::{Addr, MachineConfig, QueueId, SimError, ThreadId, Vid, VID_EXHAUSTION_SENTINEL};

use crate::machine::{Machine, RunEvent, ThreadContext};

fn cfg() -> MachineConfig {
    MachineConfig::test_default()
}

fn build(f: impl FnOnce(&mut ProgramBuilder)) -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    f(&mut b);
    Arc::new(b.build().expect("valid program"))
}

#[test]
fn arithmetic_and_memory_round_trip() {
    let p = build(|b| {
        b.li(Reg::R1, 0x1000);
        b.li(Reg::R2, 77);
        b.store(Reg::R2, Reg::R1, 0);
        b.load(Reg::R3, Reg::R1, 0);
        b.addi(Reg::R3, Reg::R3, 1);
        b.out(Reg::R3);
        b.halt();
    });
    let mut m = Machine::new(cfg());
    m.load_thread(0, ThreadContext::new(ThreadId(0), p));
    assert_eq!(m.run(100).unwrap(), RunEvent::AllHalted);
    assert_eq!(m.committed_output(), &[78]);
    assert!(m.cycles() > 0);
}

#[test]
fn loop_with_branches_counts_instructions() {
    let p = build(|b| {
        let head = b.new_label();
        b.li(Reg::R1, 0);
        b.bind(head).unwrap();
        b.addi(Reg::R1, Reg::R1, 1);
        b.branch_imm(Cond::Lt, Reg::R1, 100, head);
        b.halt();
    });
    let mut m = Machine::new(cfg());
    m.load_thread(0, ThreadContext::new(ThreadId(0), p));
    m.run(10_000).unwrap();
    assert_eq!(m.stats().branches, 100);
    assert!(m.stats().instructions >= 202);
}

#[test]
fn budget_exhaustion_detected() {
    let p = build(|b| {
        let head = b.new_label();
        b.bind(head).unwrap();
        b.jump(head);
    });
    let mut m = Machine::new(cfg());
    m.load_thread(0, ThreadContext::new(ThreadId(0), p));
    assert_eq!(m.run(1_000).unwrap(), RunEvent::BudgetExhausted);
}

#[test]
fn producer_consumer_pipeline() {
    // Stage 1 produces 1..=20 then a 0 sentinel; stage 2 sums until 0.
    let q = QueueId(0);
    let mut pb = ProgramBuilder::new();
    let head = pb.new_label();
    let done = pb.new_label();
    pb.li(Reg::R1, 1);
    pb.bind(head).unwrap();
    pb.produce(q, Reg::R1);
    pb.addi(Reg::R1, Reg::R1, 1);
    pb.branch_imm(Cond::GeU, Reg::R1, 21, done);
    pb.jump(head);
    pb.bind(done).unwrap();
    pb.li(Reg::R2, 0);
    pb.produce(q, Reg::R2);
    pb.halt();
    let producer = Arc::new(pb.build().unwrap());

    let mut cb = ProgramBuilder::new();
    let chead = cb.new_label();
    let cdone = cb.new_label();
    cb.li(Reg::R2, 0);
    cb.bind(chead).unwrap();
    cb.consume(Reg::R1, q);
    cb.branch_imm(Cond::Eq, Reg::R1, 0, cdone);
    cb.add(Reg::R2, Reg::R2, Reg::R1);
    cb.jump(chead);
    cb.bind(cdone).unwrap();
    cb.out(Reg::R2);
    cb.halt();
    let consumer = Arc::new(cb.build().unwrap());

    let mut m = Machine::new(cfg());
    m.load_thread(0, ThreadContext::new(ThreadId(0), producer));
    m.load_thread(1, ThreadContext::new(ThreadId(1), consumer));
    assert_eq!(m.run(100_000).unwrap(), RunEvent::AllHalted);
    assert_eq!(m.committed_output(), &[210]);
}

#[test]
fn mtx_instructions_commit_speculative_state() {
    // beginMTX(1); store; commitMTX(1) — the store becomes committed.
    let p = build(|b| {
        b.li(Reg::R10, 1);
        b.begin_mtx(Reg::R10);
        b.li(Reg::R1, 0x2000);
        b.li(Reg::R2, 5);
        b.store(Reg::R2, Reg::R1, 0);
        b.commit_mtx(Reg::R10);
        b.halt();
    });
    let mut m = Machine::new(cfg());
    m.load_thread(0, ThreadContext::new(ThreadId(0), p));
    assert_eq!(m.run(1_000).unwrap(), RunEvent::AllHalted);
    assert_eq!(m.mem().peek_word(Addr(0x2000), Vid(0)), 5);
    assert_eq!(m.mem().stats().commits, 1);
}

#[test]
fn speculative_output_is_buffered_until_commit() {
    let p = build(|b| {
        b.li(Reg::R10, 1);
        b.begin_mtx(Reg::R10);
        b.li(Reg::R1, 42);
        b.out(Reg::R1);
        b.li(Reg::R0, 0);
        b.begin_mtx(Reg::R0); // leave the TX without committing
        b.li(Reg::R2, 7);
        b.out(Reg::R2); // non-speculative: committed immediately
        b.commit_mtx(Reg::R10);
        b.halt();
    });
    let mut m = Machine::new(cfg());
    m.load_thread(0, ThreadContext::new(ThreadId(0), p));
    m.run(1_000).unwrap();
    // The non-speculative 7 surfaced before VID 1's buffered 42.
    assert_eq!(m.committed_output(), &[7, 42]);
}

#[test]
fn abort_mtx_flushes_and_reports() {
    let p = build(|b| {
        b.li(Reg::R10, 1);
        b.begin_mtx(Reg::R10);
        b.li(Reg::R1, 0x2000);
        b.store(Reg::R1, Reg::R1, 0);
        b.li(Reg::R9, 2);
        b.abort_mtx(Reg::R9);
        b.halt();
    });
    let mut m = Machine::new(cfg());
    m.load_thread(0, ThreadContext::new(ThreadId(0), p));
    match m.run(1_000).unwrap() {
        RunEvent::Misspeculation {
            cause: MisspecCause::ExplicitAbort { vid },
            ..
        } => {
            assert_eq!(vid, Vid(2));
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(
        m.mem().peek_word(Addr(0x2000), Vid(0)),
        0,
        "speculative store flushed"
    );
    assert_eq!(m.stats().explicit_aborts, 1);
}

#[test]
fn raw_violation_across_threads_aborts_machine() {
    // Thread B (VID 2) reads a line; thread A (VID 1) then writes it.
    let reader = build(|b| {
        b.li(Reg::R10, 2);
        b.begin_mtx(Reg::R10);
        b.li(Reg::R1, 0x3000);
        b.load(Reg::R2, Reg::R1, 0);
        // Signal thread A to proceed.
        b.produce(QueueId(0), Reg::R2);
        b.compute(10_000);
        b.halt();
    });
    let writer = build(|b| {
        b.consume(Reg::R3, QueueId(0)); // wait for the read to happen
        b.li(Reg::R10, 1);
        b.begin_mtx(Reg::R10);
        b.li(Reg::R1, 0x3000);
        b.li(Reg::R2, 1);
        b.store(Reg::R2, Reg::R1, 0);
        b.halt();
    });
    let mut m = Machine::new(cfg());
    m.load_thread(0, ThreadContext::new(ThreadId(0), reader));
    m.load_thread(1, ThreadContext::new(ThreadId(1), writer));
    match m.run(100_000).unwrap() {
        RunEvent::Misspeculation {
            cause: MisspecCause::StoreBelowHighVid { .. },
            ..
        } => {}
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn interrupts_do_not_disturb_transactions() {
    let mut c = cfg();
    c.interrupt_period = 500;
    c.interrupt_handler_instrs = 50;
    // A long transaction with many loads/stores, spanning many interrupts.
    let p = build(|b| {
        let head = b.new_label();
        b.li(Reg::R10, 1);
        b.begin_mtx(Reg::R10);
        b.li(Reg::R1, 0x4000);
        b.li(Reg::R2, 0);
        b.bind(head).unwrap();
        b.store(Reg::R2, Reg::R1, 0);
        b.load(Reg::R3, Reg::R1, 0);
        b.addi(Reg::R1, Reg::R1, 64);
        b.addi(Reg::R2, Reg::R2, 1);
        b.branch_imm(Cond::Lt, Reg::R2, 50, head);
        b.commit_mtx(Reg::R10);
        b.halt();
    });
    let mut m = Machine::new(c);
    m.load_thread(0, ThreadContext::new(ThreadId(0), p));
    assert_eq!(m.run(100_000).unwrap(), RunEvent::AllHalted);
    assert!(m.stats().interrupts > 0, "interrupts must actually fire");
    assert_eq!(
        m.mem().stats().aborts,
        0,
        "no misspeculation from interrupts"
    );
    for i in 0..50u64 {
        assert_eq!(m.mem().peek_word(Addr(0x4000 + i * 64), Vid(0)), i);
    }
}

#[test]
fn thread_migration_mid_transaction() {
    let p = build(|b| {
        b.li(Reg::R10, 1);
        b.begin_mtx(Reg::R10);
        b.li(Reg::R1, 0x5000);
        b.li(Reg::R2, 9);
        b.store(Reg::R2, Reg::R1, 0);
        b.marker(1); // migration point
        b.load(Reg::R3, Reg::R1, 0);
        b.out(Reg::R3);
        b.commit_mtx(Reg::R10);
        b.halt();
    });
    let mut m = Machine::new(cfg());
    m.load_thread(0, ThreadContext::new(ThreadId(0), p));
    // Run until the marker, then migrate the thread to core 3.
    loop {
        m.run(1).unwrap();
        if !m.marker_log().is_empty() {
            break;
        }
    }
    m.migrate_thread(0, 3);
    assert_eq!(m.run(10_000).unwrap(), RunEvent::AllHalted);
    assert_eq!(
        m.committed_output(),
        &[9],
        "speculative data found after migration"
    );
    assert_eq!(m.mem().peek_word(Addr(0x5000), Vid(0)), 9);
}

#[test]
fn mispredicted_branches_execute_wrong_path_loads() {
    // A data-dependent branch pattern the predictor cannot learn, guarding
    // loads; wrong paths issue branch-speculative loads.
    let p = build(|b| {
        let head = b.new_label();
        let skip = b.new_label();
        let back = b.new_label();
        b.li(Reg::R1, 0x6000); // pointer
        b.li(Reg::R2, 0); // i
        b.li(Reg::R5, 0x9E3779B9); // hash constant
        b.li(Reg::R6, 0); // x
        b.bind(head).unwrap();
        // x = (x + const) * 2654435761 — pseudo-random
        b.add(Reg::R6, Reg::R6, Reg::R5);
        b.mul(Reg::R6, Reg::R6, 2654435761);
        b.shr(Reg::R7, Reg::R6, 13);
        b.and(Reg::R7, Reg::R7, 1);
        b.branch_imm(Cond::Eq, Reg::R7, 0, skip);
        b.load(Reg::R3, Reg::R1, 0);
        b.load(Reg::R4, Reg::R1, 64);
        b.jump(back);
        b.bind(skip).unwrap();
        b.load(Reg::R3, Reg::R1, 128);
        b.load(Reg::R4, Reg::R1, 192);
        b.bind(back).unwrap();
        b.addi(Reg::R2, Reg::R2, 1);
        b.branch_imm(Cond::Lt, Reg::R2, 500, head);
        b.halt();
    });
    let mut m = Machine::new(cfg());
    m.load_thread(0, ThreadContext::new(ThreadId(0), p));
    m.run(100_000).unwrap();
    assert!(
        m.stats().mispredictions > 50,
        "unpredictable branch must mispredict"
    );
    assert!(
        m.mem().stats().wrong_path_loads > 0,
        "mispredictions must issue wrong-path loads"
    );
}

#[test]
fn bad_vid_is_a_program_error() {
    let p = build(|b| {
        b.li(Reg::R10, 1 << 12); // far beyond 6-bit VIDs
        b.begin_mtx(Reg::R10);
        b.halt();
    });
    let mut m = Machine::new(cfg());
    m.load_thread(0, ThreadContext::new(ThreadId(0), p));
    match m.run(100) {
        Err(SimError::BadProgram(msg)) => assert!(msg.contains("beginMTX")),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn commit_and_abort_vids_wider_than_the_vid_width_are_program_errors() {
    // 65537 truncated to 16 bits is VID 1: the wide operand must not commit
    // (or abort) VID 1 in its place.
    for instr in ["commitMTX", "abortMTX"] {
        let p = build(|b| {
            b.li(Reg::R10, 1);
            b.begin_mtx(Reg::R10);
            b.li(Reg::R1, 0x2000);
            b.store(Reg::R1, Reg::R1, 0);
            b.li(Reg::R11, 65_537);
            if instr == "commitMTX" {
                b.commit_mtx(Reg::R11);
            } else {
                b.abort_mtx(Reg::R11);
            }
            b.halt();
        });
        let mut m = Machine::new(cfg());
        m.load_thread(0, ThreadContext::new(ThreadId(0), p));
        match m.run(1_000) {
            Err(SimError::BadProgram(msg)) => {
                assert!(msg.contains(instr) && msg.contains("65537"), "{msg}")
            }
            other => panic!("{instr}: unexpected {other:?}"),
        }
        assert_eq!(m.mem().stats().commits, 0, "{instr} committed nothing");
    }
    // The VID-exhaustion sentinel stays a legal abortMTX operand.
    let p = build(|b| {
        b.li(Reg::R11, i64::from(VID_EXHAUSTION_SENTINEL));
        b.abort_mtx(Reg::R11);
        b.halt();
    });
    let mut m = Machine::new(cfg());
    m.load_thread(0, ThreadContext::new(ThreadId(0), p));
    match m.run(1_000) {
        Ok(RunEvent::Misspeculation {
            cause: MisspecCause::ExplicitAbort { vid },
            ..
        }) => assert_eq!(vid, Vid(VID_EXHAUSTION_SENTINEL)),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn deterministic_across_runs() {
    let mk = || {
        let p = build(|b| {
            let head = b.new_label();
            b.li(Reg::R1, 0x7000);
            b.li(Reg::R2, 0);
            b.bind(head).unwrap();
            b.store(Reg::R2, Reg::R1, 0);
            b.addi(Reg::R1, Reg::R1, 64);
            b.addi(Reg::R2, Reg::R2, 1);
            b.branch_imm(Cond::Lt, Reg::R2, 64, head);
            b.halt();
        });
        let mut m = Machine::new(cfg());
        m.load_thread(0, ThreadContext::new(ThreadId(0), p));
        m.run(100_000).unwrap();
        (
            m.cycles(),
            m.stats().instructions,
            m.mem().stats().l1_misses,
        )
    };
    assert_eq!(mk(), mk());
}

#[test]
fn run_resumes_after_budget() {
    let p = build(|b| {
        let head = b.new_label();
        b.li(Reg::R1, 0);
        b.bind(head).unwrap();
        b.addi(Reg::R1, Reg::R1, 1);
        b.branch_imm(Cond::Lt, Reg::R1, 1000, head);
        b.out(Reg::R1);
        b.halt();
    });
    let mut m = Machine::new(cfg());
    m.load_thread(0, ThreadContext::new(ThreadId(0), p));
    assert_eq!(m.run(100).unwrap(), RunEvent::BudgetExhausted);
    assert_eq!(m.run(100_000).unwrap(), RunEvent::AllHalted);
    assert_eq!(m.committed_output(), &[1000]);
}

#[test]
fn produce_blocks_until_consumer_drains() {
    // Queue capacity from the test config is 64; a producer pushing 100
    // values must stall until the consumer catches up — and nothing is lost.
    let producer = build(|b| {
        let head = b.new_label();
        b.li(Reg::R1, 1);
        b.bind(head).unwrap();
        b.produce(QueueId(2), Reg::R1);
        b.addi(Reg::R1, Reg::R1, 1);
        b.branch_imm(Cond::LtU, Reg::R1, 101, head);
        b.halt();
    });
    let consumer = build(|b| {
        let head = b.new_label();
        let done = b.new_label();
        b.li(Reg::R2, 0);
        b.li(Reg::R3, 0);
        b.bind(head).unwrap();
        b.consume(Reg::R1, QueueId(2));
        b.compute(50); // slow consumer forces the queue to fill
        b.add(Reg::R2, Reg::R2, Reg::R1);
        b.addi(Reg::R3, Reg::R3, 1);
        b.branch_imm(Cond::LtU, Reg::R3, 100, head);
        b.out(Reg::R2);
        b.bind(done).unwrap();
        b.halt();
    });
    let mut m = Machine::new(cfg());
    m.load_thread(0, ThreadContext::new(ThreadId(0), producer));
    m.load_thread(1, ThreadContext::new(ThreadId(1), consumer));
    assert_eq!(m.run(1_000_000).unwrap(), RunEvent::AllHalted);
    assert_eq!(m.committed_output(), &[(1..=100u64).sum::<u64>()]);
    let (_, _, full_stalls, _) = m.queues().stats();
    assert!(full_stalls > 0, "the producer must have hit a full queue");
}

#[test]
fn vidreset_instruction_resets_the_vid_space() {
    // Commit VID 1, reset from guest code, then reuse VID 1.
    let p = build(|b| {
        b.li(Reg::R10, 1);
        b.begin_mtx(Reg::R10);
        b.li(Reg::R1, 0x9000);
        b.li(Reg::R2, 5);
        b.store(Reg::R2, Reg::R1, 0);
        b.commit_mtx(Reg::R10);
        b.vid_reset();
        b.begin_mtx(Reg::R10); // VID 1 again
        b.li(Reg::R2, 6);
        b.store(Reg::R2, Reg::R1, 8);
        b.commit_mtx(Reg::R10);
        b.halt();
    });
    let mut m = Machine::new(cfg());
    m.load_thread(0, ThreadContext::new(ThreadId(0), p));
    assert_eq!(m.run(10_000).unwrap(), RunEvent::AllHalted);
    assert_eq!(m.mem().stats().vid_resets, 1);
    assert_eq!(m.mem().stats().commits, 2);
    assert_eq!(m.mem().peek_word(Addr(0x9000), Vid(0)), 5);
    assert_eq!(m.mem().peek_word(Addr(0x9008), Vid(0)), 6);
}

#[test]
fn compute_reg_charges_data_dependent_cycles() {
    let run_with = |n: i64| {
        let p = build(|b| {
            b.li(Reg::R1, n);
            b.compute_reg(Reg::R1);
            b.halt();
        });
        let mut m = Machine::new(cfg());
        m.load_thread(0, ThreadContext::new(ThreadId(0), p));
        m.run(100).unwrap();
        m.cycles()
    };
    let short = run_with(10);
    let long = run_with(5_000);
    assert!(long > short + 4_000, "{short} vs {long}");
}

#[test]
fn outputs_commit_in_vid_order_not_execution_order() {
    // Two threads buffer output under different VIDs; commits in VID order
    // must surface VID 1's output before VID 2's even though VID 2 emitted
    // first.
    let t2 = build(|b| {
        b.li(Reg::R10, 2);
        b.begin_mtx(Reg::R10);
        b.li(Reg::R1, 22);
        b.out(Reg::R1);
        b.li(Reg::R0, 0);
        b.begin_mtx(Reg::R0);
        // Tell thread 1 to proceed.
        b.produce(QueueId(5), Reg::R1);
        // Wait for thread 1's commit before committing VID 2.
        b.consume(Reg::R2, QueueId(6));
        b.commit_mtx(Reg::R10);
        b.halt();
    });
    let t1 = build(|b| {
        b.consume(Reg::R3, QueueId(5)); // VID 2 emitted already
        b.li(Reg::R10, 1);
        b.begin_mtx(Reg::R10);
        b.li(Reg::R1, 11);
        b.out(Reg::R1);
        b.commit_mtx(Reg::R10);
        b.produce(QueueId(6), Reg::R1);
        b.halt();
    });
    let mut m = Machine::new(cfg());
    m.load_thread(0, ThreadContext::new(ThreadId(0), t2));
    m.load_thread(1, ThreadContext::new(ThreadId(1), t1));
    assert_eq!(m.run(100_000).unwrap(), RunEvent::AllHalted);
    assert_eq!(m.committed_output(), &[11, 22]);
}

#[test]
fn interrupt_handler_is_charged_time() {
    let p = build(|b| {
        b.compute(20_000);
        b.halt();
    });
    let quiet = {
        let mut m = Machine::new(cfg());
        m.load_thread(0, ThreadContext::new(ThreadId(0), p.clone()));
        m.run(10_000).unwrap();
        m.cycles()
    };
    let noisy = {
        let mut c = cfg();
        c.interrupt_period = 1_000;
        c.interrupt_handler_instrs = 500;
        let mut m = Machine::new(c);
        m.load_thread(0, ThreadContext::new(ThreadId(0), p));
        m.run(10_000).unwrap();
        assert!(m.stats().interrupts > 0);
        m.cycles()
    };
    assert!(
        noisy > quiet,
        "interrupt handlers must cost cycles: {quiet} vs {noisy}"
    );
}

#[test]
fn core_stats_reveal_pipeline_balance() {
    // An unbalanced producer/consumer: the fast side must show queue stalls.
    let q = QueueId(9);
    let fast_producer = build(|b| {
        let head = b.new_label();
        b.li(Reg::R1, 0);
        b.bind(head).unwrap();
        b.produce(q, Reg::R1);
        b.addi(Reg::R1, Reg::R1, 1);
        b.branch_imm(Cond::LtU, Reg::R1, 200, head);
        b.halt();
    });
    let slow_consumer = build(|b| {
        let head = b.new_label();
        b.li(Reg::R2, 0);
        b.bind(head).unwrap();
        b.consume(Reg::R1, q);
        b.compute(100);
        b.addi(Reg::R2, Reg::R2, 1);
        b.branch_imm(Cond::LtU, Reg::R2, 200, head);
        b.halt();
    });
    let mut m = Machine::new(cfg());
    m.load_thread(0, ThreadContext::new(ThreadId(0), fast_producer));
    m.load_thread(1, ThreadContext::new(ThreadId(1), slow_consumer));
    assert_eq!(m.run(1_000_000).unwrap(), RunEvent::AllHalted);
    let cs = m.core_stats();
    assert!(cs[0].instructions > 0);
    assert!(cs[1].instructions > 0);
    assert!(
        cs[0].queue_stall_cycles > cs[1].queue_stall_cycles,
        "the fast producer stalls on the full queue: {} vs {}",
        cs[0].queue_stall_cycles,
        cs[1].queue_stall_cycles
    );
    assert_eq!(
        cs.iter().map(|c| c.instructions).sum::<u64>(),
        m.stats().instructions,
        "per-core instructions sum to the machine total"
    );
}

#[test]
fn huge_compute_ends_the_run_at_the_clock_ceiling() {
    // `compute` of u64::MAX cycles used to wrap the clock (the run then
    // reported 3 cycles); a second one hung, servicing a bogus interrupt on
    // every step once the wrapped clock met the disabled-interrupt sentinel.
    for computes in [1, 2] {
        for interrupts in [false, true] {
            let p = build(|b| {
                b.li(Reg::R1, -1);
                for _ in 0..computes {
                    b.compute_reg(Reg::R1);
                }
                b.li(Reg::R2, 7).out(Reg::R2).halt();
            });
            let mut c = cfg();
            if interrupts {
                c.interrupt_period = 1_000;
            }
            let mut m = Machine::new(c);
            m.load_thread(0, ThreadContext::new(ThreadId(0), p));
            let err = m.run(1_000).unwrap_err();
            assert_eq!(
                err,
                SimError::CycleLimit {
                    core: 0,
                    pc: 2,
                    cycle: u64::MAX
                },
                "{computes} compute(s), interrupts {interrupts}"
            );
            assert!(m.committed_output().is_empty());
            assert_eq!(m.cycles(), u64::MAX, "the clock saturates, never wraps");
        }
    }
}

#[test]
fn clock_ceiling_names_the_earliest_stuck_core() {
    // Both cores end past the ceiling; the error names the one the
    // min-clock schedule would step next, on either scheduling path.
    let far = |n: i64| {
        build(move |b| {
            b.li(Reg::R1, n);
            b.compute_reg(Reg::R1);
            b.compute_reg(Reg::R1);
            b.halt();
        })
    };
    let run = |general: bool| {
        let mut m = Machine::new(cfg());
        m.load_thread(0, ThreadContext::new(ThreadId(0), far(-1)));
        m.load_thread(1, ThreadContext::new(ThreadId(1), far(1 << 48)));
        if general {
            crate::with_general_path(|| m.run(1_000))
        } else {
            m.run(1_000)
        }
        .unwrap_err()
    };
    let expected = SimError::CycleLimit {
        core: 1,
        pc: 2,
        cycle: 1 + (1 << 48),
    };
    assert_eq!(run(false), expected);
    assert_eq!(run(true), expected);
}

#[test]
fn consume_with_no_producer_is_a_named_deadlock() {
    let p = build(|b| {
        b.consume(Reg::R1, QueueId(0));
        b.halt();
    });
    let mut m = Machine::new(cfg());
    m.load_thread(0, ThreadContext::new(ThreadId(0), p));
    let err = m.run(1_000).unwrap_err();
    assert_eq!(
        err,
        SimError::Deadlock(vec![hmtx_types::BlockedCore {
            core: 0,
            pc: 0,
            queue: 0,
            produce: false
        }])
    );
    assert_eq!(m.stats().instructions, 0);
}

#[test]
fn cross_waiting_cores_deadlock_and_name_every_queue() {
    // Core 0 fills q3 past capacity with no consumer, core 1 waits on q5
    // that nobody feeds: once both have retried, neither can ever move.
    let filler = build(|b| {
        let head = b.new_label();
        b.li(Reg::R1, 1);
        b.bind(head).unwrap();
        b.produce(QueueId(3), Reg::R1);
        b.jump(head);
    });
    let waiter = build(|b| {
        b.compute(50);
        b.consume(Reg::R2, QueueId(5));
        b.halt();
    });
    let mut m = Machine::new(cfg());
    m.load_thread(0, ThreadContext::new(ThreadId(0), filler));
    m.load_thread(2, ThreadContext::new(ThreadId(1), waiter));
    let Err(SimError::Deadlock(blocked)) = m.run(1_000_000) else {
        panic!("expected a deadlock");
    };
    let named: Vec<_> = blocked
        .iter()
        .map(|b| (b.core, b.pc, b.queue, b.produce))
        .collect();
    assert_eq!(named, vec![(0, 1, 3, true), (2, 1, 5, false)]);
}

#[test]
fn a_slow_producer_is_not_a_deadlock() {
    // The consumer retries on an empty queue for a long time, but the
    // producer keeps retiring instructions, so the run completes.
    let producer = build(|b| {
        let head = b.new_label();
        b.li(Reg::R1, 0);
        b.bind(head).unwrap();
        b.addi(Reg::R1, Reg::R1, 1);
        b.branch_imm(Cond::LtU, Reg::R1, 500, head);
        b.produce(QueueId(1), Reg::R1);
        b.halt();
    });
    let consumer = build(|b| {
        b.consume(Reg::R2, QueueId(1));
        b.out(Reg::R2);
        b.halt();
    });
    let mut m = Machine::new(cfg());
    m.load_thread(0, ThreadContext::new(ThreadId(0), producer));
    m.load_thread(1, ThreadContext::new(ThreadId(1), consumer));
    assert_eq!(m.run(100_000).unwrap(), RunEvent::AllHalted);
    assert_eq!(m.committed_output(), &[500]);
    assert!(m.core_stats()[1].queue_stall_cycles > 0);
}

#[test]
fn published_core_clock_skips_a_trailing_queue_wait() {
    // `CoreStats::ready_at` is the clock after the core's last advance
    // through the interpreter; a consume that waits for an in-flight value
    // moves the clock without publishing it. Core 1 advances and then
    // waits back to back; core 0 then retires the budget's last
    // instruction.
    let producer = build(|b| {
        b.li(Reg::R1, 9);
        b.produce(QueueId(0), Reg::R1);
        b.compute(10);
        b.li(Reg::R2, 0);
        b.halt();
    });
    let consumer = build(|b| {
        b.compute(3);
        b.li(Reg::R3, 0);
        b.consume(Reg::R4, QueueId(0));
        b.halt();
    });
    let mut m = Machine::new(cfg());
    m.load_thread(0, ThreadContext::new(ThreadId(0), producer));
    m.load_thread(1, ThreadContext::new(ThreadId(1), consumer));
    assert_eq!(m.run(6).unwrap(), RunEvent::BudgetExhausted);
    let stats = m.core_stats()[1];
    assert_eq!(stats.ready_at, 4, "the li's clock, not the wait's");
    assert_eq!(stats.queue_stall_cycles, 1 + cfg().queue_latency - 4);
    assert_eq!(m.cycles(), 1 + cfg().queue_latency, "the wait still counts");
}

#[test]
fn schedule_counters_count_steps_and_switches() {
    // Two independent 3-instruction threads alternate under min-clock.
    let p = build(|b| {
        b.li(Reg::R1, 1).li(Reg::R2, 2).halt();
    });
    for general in [false, true] {
        let mut m = Machine::new(cfg());
        m.load_thread(0, ThreadContext::new(ThreadId(0), p.clone()));
        m.load_thread(1, ThreadContext::new(ThreadId(1), p.clone()));
        if general {
            crate::with_general_path(|| m.run(100)).unwrap();
        } else {
            m.run(100).unwrap();
        }
        assert_eq!(m.stats().steps, 6);
        assert_eq!(m.stats().core_switches, 5, "0,1,0,1,0,1");
    }
}

#[test]
fn core_counts_beyond_the_packed_key_are_rejected() {
    let mut c = cfg();
    c.num_cores = hmtx_types::MAX_CORES + 1;
    assert!(matches!(Machine::try_new(c), Err(SimError::Config(_))));
}
