//! The HMTX protocol engine — the primary contribution of *Hardware
//! Multithreaded Transactions* (ASPLOS 2018) — implemented over the
//! `hmtx-mem` substrate.
//!
//! A multithreaded transaction (MTX) lets several threads collaborate on one
//! transaction that commits or aborts atomically. The protocol versions
//! memory: every cache line carries `(modVID, highVID)`, speculative
//! accesses are labeled with their transaction's VID, and the coherence
//! rules of §4 provide the two defining MTX properties:
//!
//! 1. **Group transaction commit** — all speculative modifications from all
//!    threads of a transaction, spread across caches, commit together
//!    ([`MemorySystem::commit`]).
//! 2. **Uncommitted value forwarding** — uncommitted stores from one
//!    pipeline stage are visible to later stages and later transactions in
//!    VID order ([`MemorySystem::access`]).
//!
//! The engine also implements the resilience machinery of §5: speculative
//! load acknowledgments that keep branch-misprediction wrong-path loads from
//! causing false misspeculation, lazy commit/abort processing, VID
//! overflow/reset, and safe overflow of `S-O(0,·)` lines past the last-level
//! cache.
//!
//! # Examples
//!
//! ```
//! use hmtx_core::{AccessKind, AccessRequest, AccessResponse, MemorySystem};
//! use hmtx_types::{Addr, CoreId, MachineConfig, Vid};
//!
//! let mut mem = MemorySystem::new(MachineConfig::test_default());
//! // Thread on core 0, inside transaction VID 1, stores speculatively:
//! let store = AccessRequest {
//!     core: CoreId(0),
//!     addr: Addr(0x100),
//!     kind: AccessKind::Write(42),
//!     vid: Vid(1),
//!     wrong_path: false,
//! };
//! mem.access(0, &store)?;
//! // A thread on another core, same transaction, sees the uncommitted value:
//! let load = AccessRequest {
//!     core: CoreId(1),
//!     addr: Addr(0x100),
//!     kind: AccessKind::Read,
//!     vid: Vid(1),
//!     wrong_path: false,
//! };
//! match mem.access(10_000, &load)? {
//!     AccessResponse::Done { value, .. } => assert_eq!(value, 42),
//!     other => panic!("unexpected {other:?}"),
//! }
//! mem.commit(20_000, Vid(1))?;
//! # Ok::<(), hmtx_types::SimError>(())
//! ```

#![warn(missing_docs)]

mod decisions;
pub mod faults;
pub mod invariants;
pub mod protocol;
pub mod stats;
pub mod trace;
pub mod transitions;

pub use faults::{FaultPlan, FaultSite};
pub use invariants::{Rules, Violation};
pub use protocol::{AccessKind, AccessRequest, AccessResponse, MemorySystem, MisspecCause};
pub use stats::{LatencyHistogram, MemStats, RwSetTotals};
pub use trace::{render_trace, ServedFrom, TraceEvent, Tracer};
pub use transitions::{apply_abort, apply_commit, apply_vid_reset, version_hits, Outcome};

// The parallel experiment runner moves whole memory systems (inside
// `Machine`) across host threads; keep the simulation state `Send + Sync`
// by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync + 'static>() {}
    assert_send_sync::<MemorySystem>();
    assert_send_sync::<MemStats>();
    assert_send_sync::<RwSetTotals>();
};

#[cfg(test)]
mod decisions_tests;
#[cfg(test)]
mod protocol_tests;
