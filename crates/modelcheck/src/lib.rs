//! Explicit-state model checker for the MOESI+HMTX transition relation.
//!
//! The checker exhausts every reachable state of a small, finite protocol
//! model — `cores` private L1s × `lines` cache lines × transactions
//! `1..=2^vid_bits - 1`, with line data abstracted to one VID-stamped word —
//! and evaluates on **every** state:
//!
//! * the six global invariants of [`hmtx_core::MemorySystem::check_invariants`];
//! * the extended rules of `check_model_invariants` (modVID-ordering commit
//!   safety, no-duplicate-Exclusive-after-abort);
//! * uncommitted-value-forwarding serializability against the serial
//!   last-writer-wins oracle of [`hmtx_explore::opexplore::reference`] at
//!   every group commit, and drain/VID-reset cleanliness at end of run.
//!
//! Crucially, the step function is not a re-implementation: each state holds
//! a forked [`hmtx_explore::OpMachine`], which drives the *same*
//! [`hmtx_core::MemorySystem`] (with the same [`hmtx_core::transitions`]
//! rules) that the simulator runs. There is no abstract automaton to drift
//! out of sync with the implementation — the checker explores the
//! implementation itself, with data, timing, and statistics abstracted away
//! only in the *visited-state encoding* ([`canon`]).
//!
//! Counterexamples are action traces, found breadth-first and so at minimal
//! depth; [`lower()`] turns them into replayable
//! [`hmtx_machine::ScheduleSeed`]s that `hmtx-run --replay` reproduces
//! step-for-step through [`hmtx_explore::execute_order_checked`]. This is
//! the only op-level search: `hmtx-model --kernel NAME` checks the
//! hand-written op kernels the same way.

#![warn(missing_docs)]

pub mod canon;
pub mod checker;
pub mod lower;

pub use checker::{check, check_kernel, failure_rule};
pub use lower::lower;
