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
}

impl Failure {
    /// The stable rule id of this failure: invariant failures carry the
    /// violated rule in their rendered detail (`{context}: {rule}: {detail}`),
    /// oracle and drain failures map to their respective properties, and the
    /// remaining kinds are themselves the rule. The model checker
    /// deduplicates counterexamples and the CLI names violations by this id.
    #[must_use]
    pub fn rule(&self) -> String {
        match self.kind {
            "oracle" => "forwarded values serialize".to_string(),
            "drain" => "drain leaves no speculative lines".to_string(),
            "invariant" => self
                .detail
                .split(": ")
                .nth(1)
                .unwrap_or(self.kind)
                .to_string(),
            other => other.to_string(),
        }
    }

    /// The `"invariant"` failure for violation `v`, rendered as
    /// `{context}: {rule}: {detail}` so that [`Failure::rule`] reads the
    /// rule back.
    #[must_use]
    pub fn invariant(context: &str, v: &hmtx_core::Violation) -> Self {
        Failure {
            kind: "invariant",
            detail: format!("{context}: {}: {}", v.rule, v.detail),
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
        Failure {
            kind: "panic",
            detail,
        }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}
