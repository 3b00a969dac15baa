//! Shared vocabulary types for the HMTX (Hardware Multithreaded Transactions)
//! reproduction.
//!
//! This crate defines the newtypes used across every other crate in the
//! workspace — version IDs ([`Vid`]), guest addresses ([`Addr`],
//! [`LineAddr`]), core/thread identifiers — together with the architectural
//! configuration structures that mirror Table 2 of the paper.
//!
//! # Examples
//!
//! ```
//! use hmtx_types::{Addr, LineAddr, Vid, MachineConfig};
//!
//! let cfg = MachineConfig::paper_default();
//! assert_eq!(cfg.num_cores, 4);
//!
//! let a = Addr(0x1234);
//! assert_eq!(a.line(), LineAddr(0x1234 >> 6));
//! assert!(Vid::NON_SPECULATIVE.is_non_speculative());
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod config;
pub mod diag;
pub mod error;
pub mod hash;
pub mod ids;
pub mod json;
pub mod model;
pub mod wire;

pub use config::{
    CacheConfig, FaultConfig, HmtxConfig, HytmConfig, Interconnect, MachineConfig, SeedBug,
    SmtxConfig, VictimPolicy, CORE_KEY_BITS, CYCLE_CEILING, LINE_SIZE, LINE_SIZE_BITS, MAX_CORES,
};
pub use diag::{Diagnostic, Severity};
pub use error::{BlockedCore, ConfigError, SimError};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{Addr, CoreId, Cycle, LineAddr, QueueId, ThreadId, Vid, VID_EXHAUSTION_SENTINEL};
pub use json::{Json, JsonError};
pub use model::{ModelCheckConfig, ModelCheckReport, ModelViolation};
pub use wire::{
    content_key, diagnostic_to_json, BenchRef, FaultSpec, JobSpec, StatsSnapshot, WireBase,
    WireError, WireParadigm, WireScale, WireVariant,
};
