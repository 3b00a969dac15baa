//! `hmtx-serve`: deterministic simulation-as-a-service.
//!
//! A multi-threaded TCP server that runs HMTX simulation jobs on demand.
//! Requests name a job as an [`hmtx_types::JobSpec`] (workload, paradigm,
//! machine configuration, fault plan, scale); the spec canonicalizes to a
//! content-addressed key, and results flow through a two-tier cache
//! (in-memory LRU over an on-disk store) so identical jobs get
//! **byte-identical** reports whether computed or replayed.
//!
//! The serving layer is production-shaped without leaving the standard
//! library: a poll(2)-based readiness loop (thousands of idle connections
//! cost buffers, not threads), a configurable worker pool over a bounded
//! admission queue with explicit backpressure (`busy` + retry hint),
//! request coalescing (identical concurrent specs simulate once),
//! per-request deadlines, graceful drain on SIGTERM/`shutdown`, and a
//! `stats` endpoint with cache and latency counters. Admission, coalescing
//! and the counters are the loop thread's own state; workers only
//! simulate. `hmtx-router` (crates/cluster) consistent-hashes
//! keys across many such nodes over the same frame protocol.
//!
//! # Example
//!
//! ```no_run
//! use hmtx_server::{Client, ServerConfig, ServerHandle};
//! use hmtx_types::{BenchRef, JobSpec, WireBase, WireParadigm, WireScale};
//!
//! let handle = ServerHandle::start("127.0.0.1:0", ServerConfig::default())?;
//! let mut client = Client::connect(&handle.addr().to_string())?;
//! let spec = JobSpec::new(
//!     BenchRef::Suite(7),
//!     WireParadigm::Paper,
//!     WireScale::Quick,
//!     WireBase::Test,
//! );
//! let response = client.job(&spec, None)?;
//! assert_eq!(hmtx_server::response_type(&response).as_deref(), Some("result"));
//! handle.drain();
//! handle.wait();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod proto;
pub mod ready;
pub mod server;
pub mod signals;

pub use cache::{shard_index, ReportCache, Tier};
pub use client::{
    backoff_ms, busy_retry_after, fnv1a_64, parse_response, response_type, spec_jitter_seed, Client,
};
pub use proto::{write_frame, Request, MAX_FRAME};
pub use server::{ServerConfig, ServerHandle, DEFAULT_DEADLINE_MS};
pub use signals::install_drain_handlers;
