//! The multicore machine simulator for the HMTX reproduction.
//!
//! The paper evaluates HMTX in gem5 full-system mode on a 4-core
//! out-of-order Alpha. What the HMTX memory system observes is the stream of
//! VID-labeled loads, stores, and commit/abort operations, plus the
//! wrong-path loads produced by branch misprediction. This crate provides a
//! deterministic event-driven machine producing exactly those streams:
//!
//! * in-order cores interpreting the [`hmtx_isa`] mini-ISA, scheduled by
//!   smallest local clock by default (fully deterministic interleaving) —
//!   the pick point is a pluggable [`SchedulePolicy`] so replay and
//!   systematic exploration policies slot in (see [`schedule`]);
//! * a gshare branch predictor per core, with bounded wrong-path
//!   interpretation feeding branch-speculative loads to the caches (§5.1);
//! * hardware produce/consume queues for DSWP pipelines;
//! * timer interrupts whose handler performs non-speculative memory accesses
//!   from outside the guest text segment (§5.2);
//! * transaction-buffered program output (§4.7).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use hmtx_isa::{Cond, ProgramBuilder, Reg};
//! use hmtx_machine::{Machine, RunEvent, ThreadContext};
//! use hmtx_types::{MachineConfig, ThreadId};
//!
//! // Sum 0..10 into r2, print it.
//! let mut b = ProgramBuilder::new();
//! let head = b.new_label();
//! b.li(Reg::R1, 0).li(Reg::R2, 0);
//! b.bind(head)?;
//! b.add(Reg::R2, Reg::R2, Reg::R1);
//! b.addi(Reg::R1, Reg::R1, 1);
//! b.branch_imm(Cond::Lt, Reg::R1, 10, head);
//! b.out(Reg::R2).halt();
//!
//! let mut m = Machine::new(MachineConfig::test_default());
//! m.load_thread(0, ThreadContext::new(ThreadId(0), Arc::new(b.build()?)));
//! assert_eq!(m.run(10_000)?, RunEvent::AllHalted);
//! assert_eq!(m.committed_output(), &[45]);
//! # Ok::<(), hmtx_types::SimError>(())
//! ```

#![warn(missing_docs)]

pub mod machine;
pub mod predictor;
pub mod queue;
pub mod schedule;

pub use machine::{CoreStats, Machine, MachineStats, MarkerEvent, RunEvent, ThreadContext};
pub use predictor::{BranchPredictor, Gshare};
pub use queue::{ConsumeOutcome, ProduceOutcome, QueueSet};
pub use schedule::{
    with_general_path, CoreEvent, EventSummary, JitterPolicy, MinClock, ReplayPolicy,
    SchedulePolicy, ScheduleSeed,
};

// The experiment harness and the simulation server run complete
// simulations on host threads, moving machines and their statistics
// between workers and their result caches. Keep them thread-safe by construction: no
// `Rc`, no interior mutability, no borrowed lifetimes in simulation state.
const _: () = {
    const fn assert_send_sync<T: Send + Sync + 'static>() {}
    assert_send_sync::<Machine>();
    assert_send_sync::<MachineStats>();
    assert_send_sync::<CoreStats>();
    assert_send_sync::<MarkerEvent>();
    // The explorer ships policies and seeds across its worker threads.
    assert_send_sync::<MinClock>();
    assert_send_sync::<JitterPolicy>();
    assert_send_sync::<ReplayPolicy>();
    assert_send_sync::<ScheduleSeed>();
};

#[cfg(test)]
mod machine_tests;
