//! Static MTX well-formedness and race analyzer for HMTX mini-ISA programs.
//!
//! This crate builds a control-flow graph and a joint constant/definedness/
//! MTX-protocol dataflow over [`hmtx_isa::Program`]s and reports
//! [`Diagnostic`]s for protocol misuse (unbalanced or clobbered
//! transactions, §4.5/§4.6 reset misplacement), register discipline
//! (use-before-def), hardware-queue deadlocks and rate mismatches, and
//! speculative-store escapes. It is the engine behind the `hmtx-verify`
//! binary, `runtime::build_paradigm_verified`, and the
//! [`BuildVerified`] builder hook.
//!
//! Two entry points:
//!
//! * [`verify_program`] — per-program rules only. Safe on a fragment that
//!   is one stage of a pipeline (queue matching and set-wide commit
//!   obligations are *not* checked, since the peers are absent).
//! * [`verify_set`] — everything, treating program `i` as core `i`, the way
//!   `runtime::run_loop` launches a paradigm's threads.
//!
//! The analysis is conservative in both directions by design — see
//! `DESIGN.md` ("Static validation layer") for the exact/approximate split
//! per rule. The acceptance bar is: zero diagnostics on every shipped
//! workload emitter, and every rule demonstrably firing on the negative
//! corpus in `tests/verify_workloads.rs`.
//!
//! # Examples
//!
//! ```
//! use hmtx_analysis::{verify_set, BuildVerified};
//! use hmtx_isa::{ProgramBuilder, Reg};
//!
//! // A transaction that can never commit: halting while speculative.
//! let mut b = ProgramBuilder::new();
//! b.li(Reg::R1, 1);
//! b.begin_mtx(Reg::R1);
//! b.halt();
//! let p = b.build().unwrap();
//! let report = verify_set(&[&p]);
//! // Two errors: the halt itself, and the set-wide commit obligation.
//! assert_eq!(report.error_count(), 2);
//! assert_eq!(report.diagnostics[0].rule, "mtx-never-committed");
//! assert_eq!(report.diagnostics[1].rule, "mtx-halt-speculative");
//!
//! // The same program through the opt-in builder hook.
//! let mut b = ProgramBuilder::new();
//! b.li(Reg::R1, 1);
//! b.begin_mtx(Reg::R1);
//! b.halt();
//! assert!(b.build_verified().is_err());
//! ```

#![warn(missing_docs)]

pub mod cfg;
pub mod corpus;
pub mod dataflow;
pub mod escape;
pub mod mtx;
pub mod queues;
pub mod report;

use hmtx_isa::{Program, ProgramBuilder};
use hmtx_types::{Diagnostic, Severity, SimError};

pub use cfg::{Block, Cfg};
pub use corpus::{lower_counterexample, model_counterexamples, CounterOp, ModelCounterexample};
pub use dataflow::{AbsVal, MtxState, State};
pub use mtx::{ProgramFacts, QueueOpFact, QueueOpKind, StoreFact};
pub use report::VerifyReport;

/// Verifies a single program with the per-program rules (MTX protocol,
/// register discipline). Set-level rules — queue matching, deadlock, rates,
/// store escape, and the "somebody must commit" obligation — are skipped:
/// on a lone pipeline stage they would be false positives.
pub fn verify_program(program: &Program) -> VerifyReport {
    let cfg = Cfg::build(program);
    let mut diags = Vec::new();
    let _ = mtx::analyze_program(0, program, &cfg, &mut diags);
    VerifyReport::new(diags, vec![cfg])
}

/// Verifies a complete program set; program `i` runs on core `i`. Runs
/// every rule, per-program and set-level.
pub fn verify_set(programs: &[&Program]) -> VerifyReport {
    let cfgs: Vec<Cfg> = programs.iter().map(|p| Cfg::build(p)).collect();
    let mut diags = Vec::new();
    let facts: Vec<ProgramFacts> = programs
        .iter()
        .zip(cfgs.iter())
        .enumerate()
        .map(|(core, (p, cfg))| mtx::analyze_program(core, p, cfg, &mut diags))
        .collect();

    // Set-level commit obligation: if any core opens a speculative MTX,
    // *some* core in the set must be able to commit or abort — otherwise
    // the window of uncommitted VIDs only grows and the run livelocks.
    // Per-core balance would be wrong: PS-DSWP stage 1 begins transactions
    // its consumers commit.
    let any_commit = facts.iter().any(|f| f.has_commit_or_abort);
    if !any_commit {
        if let Some((core, pc)) = facts
            .iter()
            .enumerate()
            .find_map(|(c, f)| f.first_spec_begin.map(|pc| (c, pc)))
        {
            diags.push(Diagnostic {
                severity: Severity::Error,
                rule: "mtx-never-committed",
                core,
                pc,
                message: "a speculative MTX begins here but no program in the set contains \
                          commitMTX or abortMTX; the transaction can never retire"
                    .to_string(),
            });
        }
    }

    queues::check_set(programs, &cfgs, &facts, &mut diags);
    escape::check_set(&facts, &mut diags);
    VerifyReport::new(diags, cfgs)
}

/// Opt-in extension: build a [`ProgramBuilder`] and statically verify the
/// result in one step. Lives here (not on the builder) because `hmtx-isa`
/// cannot depend on the analysis that depends on it.
pub trait BuildVerified {
    /// Resolves labels like [`ProgramBuilder::build`], then rejects the
    /// program with [`SimError::Verification`] if the per-program verifier
    /// reports *any* diagnostic (warnings included — freshly emitted code
    /// has no excuse for suspicious constructs).
    fn build_verified(self) -> Result<Program, SimError>;
}

impl BuildVerified for ProgramBuilder {
    fn build_verified(self) -> Result<Program, SimError> {
        let program = self.build()?;
        let report = verify_program(&program);
        if report.is_clean() {
            Ok(program)
        } else {
            Err(SimError::Verification(report.into_error_payload()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmtx_isa::Reg;

    #[test]
    fn build_verified_accepts_clean_programs() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 1);
        b.begin_mtx(Reg::R1);
        b.li(Reg::R2, 0x100000);
        b.li(Reg::R3, 7);
        b.store(Reg::R3, Reg::R2, 0);
        b.commit_mtx(Reg::R1);
        b.halt();
        assert!(b.build_verified().is_ok());
    }

    #[test]
    fn build_verified_rejects_on_warning_too() {
        let mut b = ProgramBuilder::new();
        b.mov(Reg::R1, Reg::R9); // use-before-def warning
        b.halt();
        let err = b.build_verified().unwrap_err();
        match err {
            SimError::Verification(diags) => {
                assert_eq!(diags.len(), 1);
                assert_eq!(diags[0].rule, "reg-use-before-def");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn build_verified_propagates_label_errors() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.jump(l); // never bound
        assert!(matches!(b.build_verified(), Err(SimError::BadProgram(_))));
    }

    #[test]
    fn never_committed_is_a_set_rule_not_a_program_rule() {
        // Stage-1 shape: begin, leave, halt — clean alone...
        let mk = || {
            let mut b = ProgramBuilder::new();
            b.li(Reg::R1, 1);
            b.begin_mtx(Reg::R1);
            b.li(Reg::R2, 0);
            b.begin_mtx(Reg::R2);
            b.halt();
            b.build().unwrap()
        };
        let p = mk();
        assert!(verify_program(&p).is_clean());
        // ...but as a whole set, nobody ever commits.
        let report = verify_set(&[&p]);
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.diagnostics[0].rule, "mtx-never-committed");
        assert_eq!(report.diagnostics[0].pc, 1);

        // Adding a committer anywhere in the set clears it.
        let mut c = ProgramBuilder::new();
        c.li(Reg::R1, 1);
        c.begin_mtx(Reg::R1);
        c.commit_mtx(Reg::R1);
        c.halt();
        let committer = c.build().unwrap();
        let report = verify_set(&[&p, &committer]);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
    }
}
