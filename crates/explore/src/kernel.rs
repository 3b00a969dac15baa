//! The kernels whose interleavings are checked systematically.
//!
//! Two granularities:
//!
//! * [`OpKernel`] — a transaction is a fixed list of labeled loads/stores
//!   driven straight into the [`hmtx_core::MemorySystem`] (the same model
//!   as `tests/proptest_serializability.rs`) by
//!   [`crate::opexplore::OpMachine`]; the model checker (`hmtx-model`)
//!   visits every reachable state, and the reference is a trivial serial
//!   last-writer-wins replay.
//! * [`AsmKernel`] — whole guest programs on the full machine, scheduled
//!   by `hmtx-explore` through the [`hmtx_machine::SchedulePolicy`] seam
//!   and checked against the [`hmtx_isa::run_serial_tm`] sequential TM
//!   oracle.

/// One memory operation of an [`OpKernel`] transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpec {
    /// Issuing core.
    pub core: usize,
    /// Word address.
    pub addr: u64,
    /// `Some(value)` for a store, `None` for a load.
    pub write: Option<u64>,
}

/// An op-level kernel: transaction `i` carries VID `i + 1` and commits in
/// VID order as soon as its ops (and all earlier transactions) are done.
#[derive(Debug, Clone)]
pub struct OpKernel {
    /// Kernel name (corpus seeds reference it).
    pub name: &'static str,
    /// Ops per transaction, in program order.
    pub txs: Vec<Vec<OpSpec>>,
    /// Word addresses the oracle comparison checks.
    pub tracked: Vec<u64>,
}

impl OpKernel {
    /// Total op count.
    pub fn len(&self) -> usize {
        self.txs.iter().map(Vec::len).sum()
    }

    /// Whether the kernel has no ops.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolves a global op id (transaction-major) to `(tx, op)`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn locate(&self, id: usize) -> (usize, OpSpec) {
        let mut rest = id;
        for (tx, ops) in self.txs.iter().enumerate() {
            if rest < ops.len() {
                return (tx, ops[rest]);
            }
            rest -= ops.len();
        }
        panic!("op id {id} out of range for kernel {}", self.name);
    }
}

/// A machine-level kernel: assembly programs, one per thread/core.
#[derive(Debug, Clone)]
pub struct AsmKernel {
    /// Kernel name.
    pub name: &'static str,
    /// Assembly source, one program per thread (thread `i` on core `i`).
    pub threads: Vec<&'static str>,
    /// Initial memory words `(addr, value)`.
    pub init: Vec<(u64, u64)>,
    /// Word addresses compared against the oracle at each commit and at
    /// the end of halting runs.
    pub tracked: Vec<u64>,
}

/// Shared addresses used by the built-in kernels (same region as the
/// pinned PR 1 counterexample).
pub const ADDR_A: u64 = 0x4_0000;
/// Second shared line.
pub const ADDR_B: u64 = 0x4_0040;
/// Third shared line.
pub const ADDR_C: u64 = 0x4_0080;

/// The value the pinned PR 1 counterexample stored.
pub const BIG: u64 = 14448302813484138936;

/// The built-in op-level kernels.
pub fn op_kernels() -> Vec<OpKernel> {
    let r = |core, addr| OpSpec {
        core,
        addr,
        write: None,
    };
    let w = |core, addr, value| OpSpec {
        core,
        addr,
        write: Some(value),
    };
    vec![
        // The pinned PR 1 counterexample schedule's ops, grouped by
        // transaction: a version written by tx 1 migrates between caches
        // through speculative reads, then tx 2 writes the same line last.
        // Clean on the real protocol under every interleaving; under
        // `--seed-bug stale-migration-replica` the migration leaves a live
        // duplicate and the invariant scan fires.
        OpKernel {
            name: "migrated_line",
            txs: vec![
                vec![w(1, ADDR_A, 0), r(0, ADDR_A), r(3, ADDR_A)],
                vec![r(1, ADDR_B), r(0, ADDR_B), r(2, ADDR_B), w(3, ADDR_A, BIG)],
            ],
            tracked: vec![ADDR_A, ADDR_B],
        },
        // Forwarding chain: each transaction reads what the previous one
        // wrote (uncommitted value forwarding, §3 property 2) and writes
        // the next line.
        OpKernel {
            name: "forwarding_chain",
            txs: vec![
                vec![w(0, ADDR_A, 11)],
                vec![r(1, ADDR_A), w(1, ADDR_B, 22)],
                vec![r(2, ADDR_B), w(2, ADDR_C, 33)],
            ],
            tracked: vec![ADDR_A, ADDR_B, ADDR_C],
        },
        // Write skew: both transactions read both lines and each writes
        // one of them; later-VID reads of an earlier-VID write target force
        // the §4.2/4.3 version-splitting paths, and some interleavings
        // misspeculate (an earlier VID writing under a later VID's read).
        OpKernel {
            name: "write_skew",
            txs: vec![
                vec![r(0, ADDR_A), r(0, ADDR_B), w(0, ADDR_A, 1)],
                vec![r(1, ADDR_A), r(1, ADDR_B), w(1, ADDR_B, 2)],
            ],
            tracked: vec![ADDR_A, ADDR_B],
        },
    ]
}

/// Base value of the model checker's write payloads: transaction `vid`
/// stores `MODEL_VALUE_BASE + vid` into every line it writes. The payload
/// depends only on the VID — never on the line or the core — which is what
/// makes the checker's line-permutation symmetry reduction sound.
pub const MODEL_VALUE_BASE: u64 = 0xD000;

/// Builds the model checker's kernel for a [`hmtx_types::ModelCheckConfig`]:
/// `2^vid_bits - 1` transactions, where transaction `t` (VID `t + 1`) runs
/// on core `t % cores` and, for each of the `lines` lines in ascending
/// order, reads it and then writes `MODEL_VALUE_BASE + vid`. Every pair of
/// transactions conflicts on every line, so the interleaving space
/// exercises version splitting, uncommitted value forwarding, migration,
/// and misspeculation.
///
/// The kernel's name is [`hmtx_types::ModelCheckConfig::kernel_name`], so
/// counterexample seeds lowered from the checker carry everything a replay
/// needs to reconstruct the kernel (see [`resolve_kernel`]).
pub fn model_kernel(cfg: &hmtx_types::ModelCheckConfig) -> OpKernel {
    assert!(
        cfg.cores >= 1 && cfg.lines >= 1 && cfg.vid_bits >= 1,
        "degenerate model"
    );
    let tracked: Vec<u64> = (0..cfg.lines).map(|l| ADDR_A + 0x40 * l as u64).collect();
    let txs: Vec<Vec<OpSpec>> = (0..cfg.max_vid() as usize)
        .map(|t| {
            let core = t % cfg.cores;
            let vid = t as u64 + 1;
            tracked
                .iter()
                .flat_map(|&addr| {
                    [
                        OpSpec {
                            core,
                            addr,
                            write: None,
                        },
                        OpSpec {
                            core,
                            addr,
                            write: Some(MODEL_VALUE_BASE + vid),
                        },
                    ]
                })
                .collect()
        })
        .collect();
    OpKernel {
        name: Box::leak(cfg.kernel_name().into_boxed_str()),
        txs,
        tracked,
    }
}

/// Resolves an op-kernel by name: a built-in from [`op_kernels`], or a
/// model-checker kernel (`model-cN-lK-vV`) rebuilt from its encoded
/// configuration. Returns `None` for unknown names.
pub fn resolve_kernel(name: &str) -> Option<OpKernel> {
    if let Some(k) = op_kernels().into_iter().find(|k| k.name == name) {
        return Some(k);
    }
    let cfg = hmtx_types::ModelCheckConfig::parse_kernel_name(name)?;
    Some(model_kernel(&cfg))
}

/// The built-in machine-level kernels. Both are two-thread MTX kernels with
/// commit order enforced by queue tokens under **every** schedule (the
/// machine faults on out-of-order `commitMTX`, so kernels must synchronize
/// commits the way generated runtime code does).
pub fn asm_kernels() -> Vec<AsmKernel> {
    vec![
        // Transactional hand-off: tx 1 stores A and signals; tx 2 reads A
        // (possibly through uncommitted value forwarding, before tx 1
        // commits), derives B from it, and commits second. Every schedule
        // must commit both transactions with A=7, B=8, output [8].
        AsmKernel {
            name: "handoff",
            threads: vec![
                r"
                    li r10, 1
                    beginMTX r10
                    li r1, 0x40000
                    li r2, 7
                    st r2, (r1)
                    li r3, 1
                    produce q0, r3
                    commitMTX r10
                    li r3, 2
                    produce q1, r3
                    halt
                ",
                r"
                    consume r9, q0
                    li r10, 2
                    beginMTX r10
                    li r1, 0x40000
                    ld r4, (r1)
                    li r5, 0x40040
                    add r6, r4, 1
                    st r6, (r5)
                    consume r9, q1
                    commitMTX r10
                    out r6
                    halt
                ",
            ],
            init: Vec::new(),
            tracked: vec![ADDR_A, ADDR_B],
        },
        // Race detection: tx 2 reads A with *no* ordering against tx 1's
        // store of A. Schedules where the read lands first must
        // misspeculate (a VID-1 write under a VID-2 read mark, §4.4);
        // schedules where the store lands first must forward 5 and commit.
        // Either way no invariant or oracle violation is allowed. The
        // commit token goes out only after tx 1 commits (as `handoff` does
        // with q1), so tx 2 can never commit first.
        AsmKernel {
            name: "race_detect",
            threads: vec![
                r"
                    li r10, 1
                    beginMTX r10
                    li r1, 0x40000
                    li r2, 5
                    st r2, (r1)
                    commitMTX r10
                    li r3, 1
                    produce q0, r3
                    halt
                ",
                r"
                    li r10, 2
                    beginMTX r10
                    li r1, 0x40000
                    ld r4, (r1)
                    li r5, 0x40040
                    st r4, (r5)
                    consume r9, q0
                    commitMTX r10
                    out r4
                    halt
                ",
            ],
            init: Vec::new(),
            tracked: vec![ADDR_A, ADDR_B],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_ids_are_transaction_major() {
        let k = &op_kernels()[0];
        assert_eq!(k.len(), 7);
        assert_eq!(k.locate(0).0, 0);
        assert_eq!(k.locate(2).0, 0);
        assert_eq!(k.locate(3).0, 1);
        assert_eq!(k.locate(6), (1, k.txs[1][3]));
    }

    #[test]
    fn builtin_kernels_assemble() {
        for k in asm_kernels() {
            for t in &k.threads {
                hmtx_isa::assemble(t).unwrap_or_else(|e| panic!("{}: {e}", k.name));
            }
        }
    }
}
