//! Parallelization runtime for the HMTX reproduction: given a loop body
//! (the [`LoopBody`] trait), generates guest programs that execute it under
//! the paradigms of Figure 1 — Sequential, DOALL, DOACROSS, DSWP, and
//! PS-DSWP — using the HMTX instructions of §3 (`beginMTX`/`commitMTX`/
//! `abortMTX`), ordered commits, VID wraparound with §4.6 resets, and
//! host-side misspeculation recovery — on the retry ladder of
//! [`run_loop`] or the HyTM demotion ladder of [`run_hytm`].
//!
//! # Examples
//!
//! A trivial loop that sums `n` into a memory cell, parallelized PS-DSWP:
//!
//! ```
//! use hmtx_isa::ProgramBuilder;
//! use hmtx_machine::Machine;
//! use hmtx_runtime::{run_loop, LoopBody, LoopEnv, Paradigm, env::regs};
//! use hmtx_types::{Addr, MachineConfig, Vid};
//!
//! struct Sum;
//! impl LoopBody for Sum {
//!     fn iterations(&self) -> u64 { 50 }
//!     fn build_image(&self, _m: &mut Machine, _env: &LoopEnv) {}
//!     fn emit_stage1(&self, b: &mut ProgramBuilder, _env: &LoopEnv) {
//!         b.mov(regs::ITEM, regs::N); // the "work item" is just n
//!     }
//!     fn emit_stage2(&self, b: &mut ProgramBuilder, _env: &LoopEnv) {
//!         // Store 2*n into this iteration's own cell (disjoint lines).
//!         b.shl(hmtx_isa::Reg::R1, regs::ITEM, 6);
//!         b.addi(hmtx_isa::Reg::R1, hmtx_isa::Reg::R1, 0x100000);
//!         b.add(hmtx_isa::Reg::R2, regs::ITEM, regs::ITEM);
//!         b.store(hmtx_isa::Reg::R2, hmtx_isa::Reg::R1, 0);
//!     }
//! }
//!
//! let cfg = MachineConfig::test_default();
//! let (machine, report) = run_loop(Paradigm::PsDswp, &Sum, &cfg, 10_000_000)?;
//! assert_eq!(machine.mem().peek_word(Addr(0x100000 + 5 * 64), Vid(0)), 10);
//! assert_eq!(report.recoveries, 0);
//! # Ok::<(), hmtx_types::SimError>(())
//! ```

#![warn(missing_docs)]

pub mod body;
pub mod emit;
pub mod env;
pub mod hytm;
pub mod runner;

pub use body::LoopBody;
pub use emit::{
    build_paradigm, build_paradigm_verified, verify_generated, GeneratedThread, GeneratedThreads,
    Paradigm,
};
pub use env::LoopEnv;
pub use hytm::{hytm_env, run_hytm};
pub use runner::{
    check_cores, loop_env, run_loop, speedup, squeezed_config, start, DemotionCause, HytmMix,
    RecoveryRecord, RecoveryRung, RunReport, VID_EXHAUSTION_SENTINEL,
};

#[cfg(test)]
mod emit_tests;
#[cfg(test)]
mod hytm_tests;
#[cfg(test)]
mod runtime_tests;
