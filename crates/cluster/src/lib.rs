//! `hmtx-cluster`: cluster-scale serving for the HMTX simulation service.
//!
//! One `hmtx-serve` node caches and simulates; this crate scales that
//! horizontally. [`hmtx-router`](RouterHandle) speaks the exact same
//! length-prefixed frame protocol as a backend, consistent-hashes each
//! job's content-addressed key across N backends ([`Ring`]), drives every
//! client and backend socket from one readiness loop, health-checks the
//! fleet, and fails over along the ring with seeded deterministic backoff.
//! Because each key has one home node, the cluster's effective cache is the
//! **sum** of the per-node caches (minus nothing: partitions are disjoint),
//! and the single-flight coalescing guarantee keeps holding cluster-wide —
//! all copies of a key funnel to one node's one flight.
//!
//! Clients need no changes: `stats` answers the fleet-wide counter sum,
//! jobs answer with byte-identical frames to what a lone backend would
//! produce (the router splices frames verbatim in both directions), and
//! the new `cluster` request itemizes per-backend health and counters.

#![warn(missing_docs)]

pub mod ring;
pub mod router;

pub use ring::{fnv1a_64, Ring, DEFAULT_REPLICAS};
pub use router::{RouterConfig, RouterCounters, RouterHandle};
