//! Negative-corpus programs sourced from `hmtx-model` counterexamples.
//!
//! Each entry pins one violation trace the protocol model checker found
//! under the planted `stale-migration-replica` defect, together with the
//! kernel name and op order needed to reproduce it with the checker or
//! `hmtx-run --replay`. [`lower_counterexample`] renders the trace as one
//! guest program per core; because a counterexample trace stops at the
//! violating access, the rendered transactions never commit, and the static
//! verifier flags every speculative core (`mtx-halt-speculative`) plus the
//! set (`mtx-never-committed`) — the static shadow of the protocol-level
//! violation.
//!
//! The corpus is shared: `tests/verify_workloads.rs` pins the static rules
//! and anchors, and the `hmtx-modelcheck` tests re-run the checker on each
//! entry's kernel, confirm the recorded rule is rediscovered, and replay
//! the recorded order to the same violation.

use hmtx_isa::{Program, ProgramBuilder, Reg};

/// One access of a counterexample trace, in schedule order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterOp {
    /// Core that issued the access.
    pub core: usize,
    /// VID of the issuing transaction (MTXs may span cores).
    pub vid: u16,
    /// Word address.
    pub addr: u64,
    /// `Some(value)` for a store, `None` for a load.
    pub write: Option<u64>,
}

/// One model-checker-sourced counterexample.
#[derive(Debug, Clone)]
pub struct ModelCounterexample {
    /// Corpus entry name.
    pub name: &'static str,
    /// Invariant rule the checker reports for this trace.
    pub model_rule: &'static str,
    /// Planted defect that makes the trace violating.
    pub seed_bug: &'static str,
    /// Kernel the trace runs over (resolvable by
    /// `hmtx_explore::resolve_kernel`).
    pub kernel: &'static str,
    /// Transaction-major op ids of the trace within `kernel`.
    pub order: Vec<usize>,
    /// The same trace as explicit accesses (self-contained, so this crate
    /// needs no kernel machinery).
    pub ops: Vec<CounterOp>,
}

/// The pinned corpus. Provenance: each trace is the counterexample
/// `hmtx-model --seed-bug stale-migration-replica` reports for the named
/// kernel (first violation, breadth-first minimal depth).
#[must_use]
pub fn model_counterexamples() -> Vec<ModelCounterexample> {
    vec![
        // Two transactions read the same line: the §4.3 read migration
        // leaves a live SpecExclusive replica in the supplier's cache, so
        // both L1s answer for VID 0.
        ModelCounterexample {
            name: "read-migration-replica",
            model_rule: "at most one responding version hits per VID",
            seed_bug: "stale-migration-replica",
            kernel: "model-c2-l2-v2",
            order: vec![0, 4],
            ops: vec![
                CounterOp {
                    core: 0,
                    vid: 1,
                    addr: 0x4_0000,
                    write: None,
                },
                CounterOp {
                    core: 1,
                    vid: 2,
                    addr: 0x4_0000,
                    write: None,
                },
            ],
        },
        // One multithreaded transaction writes on core 1 and reads its own
        // uncommitted value from core 0: migrating the dirty version leaves
        // a duplicate SpecModified replica behind.
        ModelCounterexample {
            name: "dirty-migration-replica",
            model_rule: "at most one responding version hits per VID",
            seed_bug: "stale-migration-replica",
            kernel: "migrated_line",
            order: vec![0, 1],
            ops: vec![
                CounterOp {
                    core: 1,
                    vid: 1,
                    addr: 0x4_0000,
                    write: Some(0),
                },
                CounterOp {
                    core: 0,
                    vid: 1,
                    addr: 0x4_0000,
                    write: None,
                },
            ],
        },
    ]
}

/// Renders a counterexample trace as one guest program per core
/// (`0..=max core` in the trace; cores without accesses get a bare `halt`).
/// Each core begins its transaction's MTX before its first access and —
/// deliberately, because the trace ends at the violation — never commits.
///
/// # Panics
///
/// Panics if the trace is empty or a core changes VID mid-trace (no pinned
/// corpus entry does either).
#[must_use]
pub fn lower_counterexample(ops: &[CounterOp]) -> Vec<Program> {
    let cores = ops
        .iter()
        .map(|o| o.core + 1)
        .max()
        .expect("non-empty trace");
    (0..cores)
        .map(|core| {
            let mut b = ProgramBuilder::new();
            let mut begun: Option<u16> = None;
            for op in ops.iter().filter(|o| o.core == core) {
                match begun {
                    None => {
                        b.li(Reg::R1, i64::from(op.vid));
                        b.begin_mtx(Reg::R1);
                        begun = Some(op.vid);
                    }
                    Some(v) => assert_eq!(v, op.vid, "one VID per core in the pinned corpus"),
                }
                b.li(Reg::R2, op.addr as i64);
                match op.write {
                    Some(value) => {
                        b.li(Reg::R3, value as i64);
                        b.store(Reg::R3, Reg::R2, 0);
                    }
                    None => {
                        b.load(Reg::R3, Reg::R2, 0);
                    }
                }
            }
            b.halt();
            b.build().expect("corpus program assembles")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_set;

    #[test]
    fn every_entry_lowers_to_a_flagged_program_set() {
        for entry in model_counterexamples() {
            let programs = lower_counterexample(&entry.ops);
            let refs: Vec<&Program> = programs.iter().collect();
            let report = verify_set(&refs);
            assert!(
                report
                    .diagnostics
                    .iter()
                    .any(|d| d.rule == "mtx-halt-speculative"),
                "{}: a truncated counterexample must leave an open MTX:\n{}",
                entry.name,
                report.render_text()
            );
            assert_eq!(entry.order.len(), entry.ops.len(), "{}", entry.name);
        }
    }
}
