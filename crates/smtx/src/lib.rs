//! SMTX — the *software* multithreaded-transaction baseline (Raman et al.,
//! ASPLOS 2010) that the paper compares HMTX against (Figures 2 and 8).
//!
//! SMTX runs speculative pipeline parallelism on commodity hardware:
//! processes hold private (copy-on-write) versions of memory, uncommitted
//! values are forwarded between pipeline stages through software queues, and
//! a dedicated **commit process** receives a log record for every validated
//! speculative load and store, re-checks loads against committed state, and
//! applies stores. Its defining cost is communication proportional to the
//! read/write-set size — plus an entire core consumed by the commit process.
//!
//! This crate reproduces that execution model on the same simulated
//! machine, using no HMTX instructions at all:
//!
//! * stage 1 forwards each work item through a hardware queue (modeling the
//!   software value-forwarding queues);
//! * every worker appends one log record per validated access to a private
//!   log region (real stores, real cache pressure) and posts a per-iteration
//!   message to the commit core;
//! * the commit core reads every record back (cache-to-cache traffic) and
//!   charges validation instructions per record.
//!
//! [`RwSetMode`] selects how much validation runs: `Minimal` models the
//! expert-minimized read/write sets of the paper's SMTX ports, `Substantial`
//! models validation on shared-data accesses (Figure 2's second bar), and
//! `Maximal` validates every load and store like the HMTX configuration.

#![warn(missing_docs)]

pub mod emit;
pub mod runner;

pub use emit::{RwSetMode, SMTX_MAX_WORKERS};
pub use runner::{run_smtx, SmtxReport};

#[cfg(test)]
mod smtx_tests;
