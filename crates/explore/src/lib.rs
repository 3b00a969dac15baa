//! Systematic schedule exploration with a serializability oracle.
//!
//! The paper's central claim (§4, Figure 7) is that uncommitted value
//! forwarding plus group commit still yields serializable MTX group
//! commits. The chaos suite (`tests/chaos.rs`) samples the interleaving
//! space randomly; this crate supplies the pieces that check it
//! *systematically* on small kernels:
//!
//! * **op-level** ([`opexplore`]) — transactions as fixed op lists driven
//!   straight into the memory system by [`OpMachine`], with the protocol
//!   invariants checked after every op and a serial last-writer-wins oracle
//!   at every group commit. The model checker (`hmtx-model`, crate
//!   `hmtx-modelcheck`) searches every interleaving of these kernels
//!   breadth-first; [`execute_order_checked`] replays one of its traces;
//! * **machine-level** ([`mexplore`]) — whole guest programs on the full
//!   machine through the [`hmtx_machine::SchedulePolicy`] seam, searched
//!   breadth-first with iterative context bounding (CHESS-style divergence
//!   extension) and the [`hmtx_isa::run_serial_tm`] sequential TM
//!   interpreter as the oracle. `hmtx-explore` drives this level.
//!
//! Breadth-first search finds a failing machine schedule at its fewest
//! divergences; `hmtx-explore --corpus-dir` pins it as a replayable
//! [`hmtx_machine::ScheduleSeed`] ([`seed`]), and `hmtx-run --replay` and
//! `tests/explore_corpus.rs` replay seeds byte-deterministically.

#![warn(missing_docs)]

pub mod kernel;
pub mod mexplore;
pub mod opexplore;
pub mod seed;

pub use kernel::{
    asm_kernels, model_kernel, op_kernels, resolve_kernel, AsmKernel, OpKernel, OpSpec,
};
pub use opexplore::{execute_order_checked, model_machine_config, OpMachine};

/// Why a schedule is considered failing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Stable failure class: `"invariant"`, `"oracle"`, `"drain"`,
    /// `"sim-error"`, `"budget"`, or `"panic"`.
    pub kind: &'static str,
    /// Human-readable detail.
    pub detail: String,
    /// The stable rule id, fixed when the failure is built.
    rule: &'static str,
}

impl Failure {
    /// A failure of class `kind`: oracle and drain failures map to their
    /// respective properties, and the remaining kinds are themselves the
    /// rule. Invariant failures are built by [`Failure::invariant`].
    #[must_use]
    pub fn new(kind: &'static str, detail: String) -> Self {
        let rule = match kind {
            "oracle" => "forwarded values serialize",
            "drain" => "drain leaves no speculative lines",
            other => other,
        };
        Failure { kind, detail, rule }
    }

    /// The stable rule id of this failure: the violated invariant's rule
    /// for invariant failures (see [`Failure::new`] for the rest). The
    /// model checker deduplicates counterexamples and the CLI names
    /// violations by this id.
    #[must_use]
    pub fn rule(&self) -> &'static str {
        self.rule
    }

    /// The `"invariant"` failure for violation `v`, rendered as
    /// `{context}: {rule}: {detail}`.
    #[must_use]
    pub fn invariant(context: &str, v: &hmtx_core::Violation) -> Self {
        Failure {
            kind: "invariant",
            detail: format!("{context}: {}: {}", v.rule, v.detail),
            rule: v.rule,
        }
    }

    /// The `"panic"` failure for a caught panic payload: debug assertions
    /// inside the protocol (e.g. hit-uniqueness) classify as failures
    /// instead of tearing down the search.
    #[must_use]
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> Self {
        let detail = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into());
        Failure::new("panic", detail)
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_keep_the_rule_they_were_built_with() {
        let v = hmtx_core::Violation {
            rule: "modVID <= highVID",
            detail: "L1[0]: L0x1 S-O(3,1)".to_string(),
        };
        // A context holding `": "` does not move the rule.
        let f = Failure::invariant("after op 1 (note: tx0)", &v);
        assert_eq!(f.rule(), "modVID <= highVID");
        assert_eq!(
            f.detail,
            "after op 1 (note: tx0): modVID <= highVID: L1[0]: L0x1 S-O(3,1)"
        );
        for (kind, rule) in [
            ("oracle", "forwarded values serialize"),
            ("drain", "drain leaves no speculative lines"),
            ("sim-error", "sim-error"),
            ("budget", "budget"),
        ] {
            assert_eq!(Failure::new(kind, "x: y".to_string()).rule(), rule);
        }
        let panic = Failure::from_panic(Box::new("boom: now"));
        assert_eq!((panic.kind, panic.rule()), ("panic", "panic"));
    }
}
