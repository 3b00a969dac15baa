//! The 8-benchmark workload suite of the HMTX paper, rebuilt as synthetic
//! analogues that run on the simulated machine.
//!
//! The paper evaluates 7 SPEC benchmarks and MiBench's ispell (Table 1).
//! Since the original binaries/inputs cannot run on this simulator, each
//! benchmark is replaced by a kernel with the same *parallelization shape*:
//! the same paradigm (DOALL for 052.alvinn, PS-DSWP for the rest), the same
//! kind of loop-carried dependence in stage 1 (pointer chasing for li,
//! stream cursors for gzip/parser/bzip2/hmmer/ispell, a PRNG for crafty),
//! the same style of stage-2 data structure traffic, and per-transaction
//! footprints scaled down ~100–1000x while preserving the suite's *relative*
//! ordering (bzip2 largest, ispell smallest — Figure 9).
//!
//! # Examples
//!
//! ```
//! use hmtx_runtime::{run_loop, Paradigm};
//! use hmtx_types::MachineConfig;
//! use hmtx_workloads::{suite, Scale};
//!
//! let workloads = suite(Scale::Quick);
//! assert_eq!(workloads.len(), 8);
//! let ispell = &workloads[7];
//! let (machine, report) =
//!     run_loop(Paradigm::PsDswp, ispell.as_ref(), &MachineConfig::test_default(), 50_000_000)?;
//! assert_eq!(report.recoveries, 0);
//! assert!(machine.mem().stats().commits > 0);
//! # Ok::<(), hmtx_types::SimError>(())
//! ```

#![warn(missing_docs)]

pub mod alvinn;
pub mod bzip2;
pub mod crafty;
pub mod emitlib;
pub mod gzip;
pub mod heap;
pub mod hmmer;
pub mod ispell;
pub mod li;
pub mod meta;
pub mod parser;
pub mod suite;

pub use meta::{paper_table1, PaperRow, WorkloadMeta};
pub use suite::{meta_for, resolve_workload, suite, Scale, Workload};
