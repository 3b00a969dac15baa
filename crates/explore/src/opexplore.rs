//! Op-level execution: [`OpMachine`], the forkable executor of an
//! [`OpKernel`] that `hmtx-model` (crate `hmtx-modelcheck`) steps through
//! every reachable state, and [`execute_order_checked`], which replays one
//! recorded order through the same machine for `hmtx-run --replay`.
//!
//! An order is a sequence of *global op ids* (transaction-major indices
//! into the kernel, see [`OpKernel::locate`]) that is a program-order
//! prefix of a full run: each transaction's ops appear in program order
//! with no gaps, and a transaction commits once all its ops (and all
//! earlier transactions) are done. The protocol invariants are checked
//! after every op and a serial last-writer-wins oracle at every group
//! commit.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hmtx_core::{AccessKind, AccessRequest, AccessResponse, MemorySystem, MisspecCause, Rules};
use hmtx_types::{Addr, CoreId, MachineConfig, SeedBug, Vid, LINE_SIZE};

use crate::kernel::OpKernel;
use crate::Failure;

/// Result of replaying one op order.
#[derive(Debug, Clone)]
pub struct OpOutcome {
    /// The schedule (global op ids, in execution order).
    pub order: Vec<usize>,
    /// Highest VID committed.
    pub committed: u16,
    /// Misspeculation that ended the run early (not a failure: aborting is
    /// a legal protocol outcome as long as committed state stays sound).
    pub misspec: Option<String>,
    /// Invariant/oracle/panic failure, if any.
    pub failure: Option<Failure>,
}

/// Serial last-writer-wins reference: the committed word at `addr` after
/// transactions `1..=upto_vid`, executed atomically in VID order,
/// restricted to the ops issued in `order` (0 if none of them writes it).
pub fn reference(kernel: &OpKernel, order: &[usize], upto_vid: u16, addr: u64) -> u64 {
    // The last write wins: the one of the latest transaction, and within a
    // transaction the latest in `order`.
    let mut last: Option<(usize, u64)> = None;
    for &id in order {
        let (tx, op) = kernel.locate(id);
        if let Some(value) = op
            .write
            .filter(|_| op.addr == addr && tx < upto_vid as usize)
        {
            if last.is_none_or(|(t, _)| tx >= t) {
                last = Some((tx, value));
            }
        }
    }
    last.map_or(0, |(_, value)| value)
}

/// The machine configuration the model checker and [`execute_order_checked`]
/// share: the test geometry compacted to the kernel's lines (see
/// `compact_sets`), core count covering every core the kernel names, and
/// a VID space of at least `txs + 1`. Checker and replay **must** build
/// identical configurations or counterexamples would not reproduce.
pub fn model_machine_config(kernel: &OpKernel, seed_bug: Option<SeedBug>) -> MachineConfig {
    let mut cfg = MachineConfig::test_default();
    let lines = touched_lines(kernel);
    for cache in [&mut cfg.l1, &mut cfg.l2] {
        cache.size_bytes = compact_sets(&lines, cache.num_sets()) * cache.ways * LINE_SIZE;
    }
    let max_core = kernel
        .txs
        .iter()
        .flatten()
        .map(|op| op.core)
        .max()
        .unwrap_or(0);
    cfg.num_cores = max_core + 1;
    let need_bits = (usize::BITS - kernel.txs.len().leading_zeros()).max(2);
    cfg.hmtx.vid_bits = cfg.hmtx.vid_bits.max(need_bits);
    cfg.hmtx.seed_bug = seed_bug;
    cfg
}

/// Every line the kernel can touch (tracked words and op addresses), sorted.
fn touched_lines(kernel: &OpKernel) -> Vec<u64> {
    let ops = kernel.txs.iter().flatten().map(|op| op.addr);
    let mut lines: Vec<u64> = kernel
        .tracked
        .iter()
        .copied()
        .chain(ops)
        .map(|a| Addr(a).line().0)
        .collect();
    lines.sort_unstable();
    lines.dedup();
    lines
}

/// The smallest power-of-two set count, at most `full`, under which two of
/// `lines` share a set exactly when they do with `full` sets. A model
/// touches only these lines, so every set they map to keeps the same ways
/// and the same occupants — and with them the same versions, LRU ranks and
/// overflow decisions — while a fork copies a few slots instead of the
/// whole test geometry. Directory banks are chosen by address, not set,
/// and the canonical state encoding never reads set indices.
fn compact_sets(lines: &[u64], full: usize) -> usize {
    let conflict = |sets: usize, a: u64, b: u64| (a ^ b) & (sets as u64 - 1) == 0;
    let same_conflicts = |sets: usize| {
        lines.iter().enumerate().all(|(i, &a)| {
            lines[i + 1..]
                .iter()
                .all(|&b| conflict(sets, a, b) == conflict(full, a, b))
        })
    };
    let mut sets = 1;
    while sets < full && !same_conflicts(sets) {
        sets *= 2;
    }
    sets
}

/// An incremental, forkable executor of an [`OpKernel`] with the model
/// checker's *strict* checking discipline: the six protocol invariants plus
/// the extended model rules (`check_model_invariants`) after **every** op,
/// the serial last-writer-wins oracle at every group commit, and a drain +
/// VID-reset epilogue on finished runs.
///
/// A transaction auto-commits only once **all** its kernel ops have been
/// issued, so every trace is a program-order prefix of a full run. That is
/// exactly the transition relation the model checker explores, so any
/// action trace the checker records replays here step-for-step —
/// [`execute_order_checked`] is the replay entry point.
///
/// `clone_from` reuses the target's buffers: the model checker forks into
/// machines it has finished with.
#[derive(Debug)]
pub struct OpMachine {
    /// The live memory system (cloning forks the whole simulation state).
    pub mem: MemorySystem,
    /// Ops issued so far, per transaction.
    pub next: Vec<usize>,
    /// Highest VID committed.
    pub committed: u16,
    /// Terminal misspeculation, if any. Misspeculation aborts everything;
    /// no further steps are legal.
    pub misspec: Option<MisspecCause>,
    /// Issued global op ids, in order (the replayable trace).
    pub trace: Vec<usize>,
    now: u64,
}

impl Clone for OpMachine {
    fn clone(&self) -> Self {
        // A fork is stepped next: leave room for that step's op.
        let mut trace = Vec::with_capacity(self.trace.len() + 1);
        trace.extend_from_slice(&self.trace);
        OpMachine {
            mem: self.mem.clone(),
            next: self.next.clone(),
            committed: self.committed,
            misspec: self.misspec,
            trace,
            now: self.now,
        }
    }

    /// Every field is named, so a new one fails to compile here instead of
    /// being skipped.
    fn clone_from(&mut self, source: &Self) {
        let OpMachine {
            mem,
            next,
            committed,
            misspec,
            trace,
            now,
        } = self;
        mem.clone_from(&source.mem);
        next.clone_from(&source.next);
        *committed = source.committed;
        *misspec = source.misspec;
        trace.clone_from(&source.trace);
        *now = source.now;
    }
}

impl OpMachine {
    /// A fresh machine over [`model_machine_config`] for the kernel.
    pub fn new(kernel: &OpKernel, seed_bug: Option<SeedBug>) -> Self {
        OpMachine {
            mem: MemorySystem::new(model_machine_config(kernel, seed_bug)),
            next: vec![0; kernel.txs.len()],
            committed: 0,
            misspec: None,
            trace: Vec::new(),
            now: 100,
        }
    }

    /// Transactions that still have ops to issue (empty once terminal).
    pub fn enabled(&self, kernel: &OpKernel) -> Vec<usize> {
        self.enabled_iter(kernel).collect()
    }

    /// [`Self::enabled`], without collecting it.
    pub fn enabled_iter<'a>(&'a self, kernel: &'a OpKernel) -> impl Iterator<Item = usize> + 'a {
        let txs = if self.misspec.is_some() {
            0
        } else {
            kernel.txs.len()
        };
        (0..txs).filter(|&t| self.next[t] < kernel.txs[t].len())
    }

    /// Whether no further steps are possible (all ops issued, or aborted).
    pub fn terminal(&self, kernel: &OpKernel) -> bool {
        self.enabled(kernel).is_empty()
    }

    /// The six protocol invariants, then the extended model rules; the
    /// first violation fails, prefixed with `context()` (rendered only
    /// then: nearly every check passes).
    fn strict_check(&self, context: impl FnOnce() -> String) -> Result<(), Failure> {
        match self.mem.first_violation(Rules::Strict) {
            None => Ok(()),
            Some(v) => Err(Failure::invariant(&context(), &v)),
        }
    }

    /// Commits every transaction whose ops are all issued (in VID order),
    /// checking invariants and the oracle after each commit.
    ///
    /// # Errors
    ///
    /// Returns the first failed check.
    pub fn settle(&mut self, kernel: &OpKernel) -> Result<(), Failure> {
        while self.misspec.is_none()
            && (self.committed as usize) < kernel.txs.len()
            && self.next[self.committed as usize] == kernel.txs[self.committed as usize].len()
        {
            let vid = Vid(self.committed + 1);
            self.mem
                .commit(self.now, vid)
                .map_err(|e| Failure::new("sim-error", format!("commit of v{}: {e}", vid.0)))?;
            self.committed += 1;
            let ctx = || format!("after commit of v{}", self.committed);
            self.strict_check(ctx)?;
            for &addr in &kernel.tracked {
                let got = self.mem.peek_word(Addr(addr), Vid(self.committed));
                let want = reference(kernel, &self.trace, self.committed, addr);
                if got != want {
                    return Err(Failure::new(
                        "oracle",
                        format!(
                            "{}: forwarded values serialize: \
                             word {addr:#x} is {got}, oracle says {want}",
                            ctx()
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Issues transaction `tx`'s next op, settles commits, and runs the
    /// strict checks. Legal only on non-terminal states with `tx` enabled.
    ///
    /// # Errors
    ///
    /// Returns the first failed check (misspeculation is *not* a failure;
    /// it marks the machine terminal).
    pub fn step(&mut self, kernel: &OpKernel, tx: usize) -> Result<(), Failure> {
        assert!(self.misspec.is_none(), "step on an aborted machine");
        let op = kernel.txs[tx][self.next[tx]];
        let id = kernel.txs.iter().take(tx).map(Vec::len).sum::<usize>() + self.next[tx];
        let req = AccessRequest {
            core: CoreId(op.core),
            addr: Addr(op.addr),
            kind: match op.write {
                Some(value) => AccessKind::Write(value),
                None => AccessKind::Read,
            },
            vid: Vid(tx as u16 + 1),
            wrong_path: false,
        };
        self.now += 10;
        self.next[tx] += 1;
        self.trace.push(id);
        match self
            .mem
            .access(self.now, &req)
            .map_err(|e| Failure::new("sim-error", e.to_string()))?
        {
            AccessResponse::Done { .. } => {}
            AccessResponse::Misspec { cause, .. } => {
                self.mem.abort_all(self.now);
                self.misspec = Some(cause);
                return self.strict_check(|| "after abort".to_string());
            }
        }
        self.strict_check(|| {
            format!(
                "after op {id} (tx{tx} core{} {} {:#x})",
                op.core,
                if op.write.is_some() { "st" } else { "ld" },
                op.addr
            )
        })?;
        self.settle(kernel)
    }

    /// End-of-run checks on a terminal state (the machine itself is left
    /// untouched; the drain and the VID reset run on a copy): the committed
    /// image, drained on fully committed runs, must match the oracle, and
    /// on fully committed runs a VID reset must leave a clean hierarchy.
    ///
    /// # Errors
    ///
    /// Returns the first failed check.
    pub fn finish(&self, kernel: &OpKernel) -> Result<(), Failure> {
        self.finish_into(kernel, None)
    }

    /// [`Self::finish`], running the drain and the VID reset in `spare`
    /// (overwritten with `clone_from`) instead of a fresh copy.
    ///
    /// # Errors
    ///
    /// Returns the first failed check.
    pub fn finish_into(
        &self,
        kernel: &OpKernel,
        spare: Option<&mut MemorySystem>,
    ) -> Result<(), Failure> {
        let fully_committed = (self.committed as usize) == kernel.txs.len();
        let mut end = &self.mem;
        let mut owned;
        if self.misspec.is_none() && fully_committed {
            let copy = match spare {
                Some(spare) => {
                    spare.clone_from(&self.mem);
                    spare
                }
                None => {
                    owned = self.mem.clone();
                    &mut owned
                }
            };
            copy.vid_reset(self.now + 10);
            if let Some(v) = copy.first_violation(Rules::Strict) {
                return Err(Failure::invariant("after vid-reset", &v));
            }
            copy.clone_from(&self.mem);
            copy.drain_committed()
                .map_err(|v| Failure::new("drain", v.join("; ")))?;
            end = copy;
        }
        for &addr in &kernel.tracked {
            let got = end.peek_word(Addr(addr), Vid(self.committed));
            let want = reference(kernel, &self.trace, self.committed, addr);
            if got != want {
                return Err(Failure::new(
                    "oracle",
                    format!(
                        "at end of run (v{} committed): forwarded values serialize: \
                         word {addr:#x} is {got}, oracle says {want}",
                        self.committed
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// Replays an order as a *prefix* trace under the model checker's strict
/// semantics (see [`OpMachine`]); this is how `hmtx-run --replay` executes
/// counterexample seeds lowered from `hmtx-model`. The order must follow
/// each transaction's program order with no gaps; replay stops at the first
/// misspeculation (matching the checker's terminal-abort rule).
pub fn execute_order_checked(
    kernel: &OpKernel,
    order: &[usize],
    seed_bug: Option<SeedBug>,
) -> OpOutcome {
    let mut outcome = OpOutcome {
        order: order.to_vec(),
        committed: 0,
        misspec: None,
        failure: None,
    };
    let run = || {
        let mut m = OpMachine::new(kernel, seed_bug);
        let result = replay(kernel, &mut m, order);
        (
            m.committed,
            m.misspec.map(|cause| format!("{cause:?}")),
            result.err(),
        )
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok((committed, misspec, failure)) => {
            outcome.committed = committed;
            outcome.misspec = misspec;
            outcome.failure = failure;
        }
        Err(payload) => outcome.failure = Some(Failure::from_panic(payload)),
    }
    outcome
}

/// Steps `m` through `order`, then runs the end-of-run checks.
fn replay(kernel: &OpKernel, m: &mut OpMachine, order: &[usize]) -> Result<(), Failure> {
    m.settle(kernel)?;
    for &id in order {
        if m.misspec.is_some() {
            break;
        }
        let (tx, _) = kernel.locate(id);
        let expected: usize = kernel.txs.iter().take(tx).map(Vec::len).sum::<usize>() + m.next[tx];
        if id != expected {
            return Err(Failure::new(
                "sim-error",
                format!(
                    "order is not a program-order prefix: op {id} arrived when \
                     tx{tx} is at op {expected}"
                ),
            ));
        }
        m.step(kernel, tx)?;
    }
    m.finish(kernel)
}

/// Every full program-order interleaving of the kernel's transactions, as
/// global op ids (a small exhaustive reference for the tests).
#[cfg(test)]
pub(crate) fn full_orders(kernel: &OpKernel) -> Vec<Vec<usize>> {
    fn extend(
        kernel: &OpKernel,
        next: &mut [usize],
        order: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if order.len() == kernel.len() {
            out.push(order.clone());
            return;
        }
        for tx in 0..kernel.txs.len() {
            if next[tx] < kernel.txs[tx].len() {
                let base: usize = kernel.txs.iter().take(tx).map(Vec::len).sum();
                order.push(base + next[tx]);
                next[tx] += 1;
                extend(kernel, next, order, out);
                next[tx] -= 1;
                order.pop();
            }
        }
    }
    let mut out = Vec::new();
    extend(
        kernel,
        &mut vec![0; kernel.txs.len()],
        &mut Vec::new(),
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{op_kernels, OpSpec, ADDR_A, ADDR_B};

    fn kernel(name: &'static str) -> OpKernel {
        op_kernels().into_iter().find(|k| k.name == name).unwrap()
    }

    #[test]
    fn serial_order_of_every_kernel_is_clean() {
        for k in op_kernels() {
            let serial: Vec<usize> = (0..k.len()).collect();
            let o = execute_order_checked(&k, &serial, None);
            assert!(o.failure.is_none(), "{}: {:?}", k.name, o.failure);
            assert!(
                o.misspec.is_none(),
                "{}: serial order cannot conflict",
                k.name
            );
            assert_eq!(o.committed as usize, k.txs.len());
        }
    }

    #[test]
    fn reference_is_last_writer_wins_in_vid_order() {
        let k = kernel("migrated_line");
        let full: Vec<usize> = (0..k.len()).collect();
        assert_eq!(reference(&k, &full, 1, ADDR_A), 0);
        assert_eq!(reference(&k, &full, 2, ADDR_A), crate::kernel::BIG);
        assert_eq!(reference(&k, &full, 2, ADDR_B), 0);
        // VID order, not issue order, decides; unissued ops never write.
        let tx1_first: Vec<usize> = (3..7).chain(0..3).collect();
        assert_eq!(reference(&k, &tx1_first, 2, ADDR_A), crate::kernel::BIG);
        assert_eq!(reference(&k, &tx1_first, 1, ADDR_A), 0);
        assert_eq!(reference(&k, &full[..6], 2, ADDR_A), 0);
    }

    #[test]
    fn planted_seed_bug_is_detected_and_real_protocol_is_clean() {
        // Every full interleaving of the migrated-line kernel replays clean
        // on the real protocol; with the planted migration defect some
        // interleaving must fail a strict check.
        let k = kernel("migrated_line");
        let orders = full_orders(&k);
        assert_eq!(orders.len(), 35); // C(7, 3): 3 + 4 ops
        for order in &orders {
            let o = execute_order_checked(&k, order, None);
            assert!(o.failure.is_none(), "{order:?}: {:?}", o.failure);
        }
        let bug = Some(hmtx_types::SeedBug::StaleMigrationReplica);
        assert!(
            orders
                .iter()
                .any(|order| execute_order_checked(&k, order, bug).failure.is_some()),
            "the planted migration defect must be rediscovered"
        );
    }

    /// Every cache's abstract view with set indices erased, in canonical
    /// order.
    #[allow(clippy::type_complexity)]
    fn views_without_sets(
        m: &OpMachine,
    ) -> Vec<Vec<(usize, u64, u8, u16, u16, u16, bool, bool, u8, u64)>> {
        m.mem
            .caches()
            .map(|cache| {
                let mut view: Vec<_> = cache
                    .abstract_view()
                    .iter()
                    .map(|l| {
                        let mut key = l.sort_key();
                        key.0 = 0; // the set index
                        key
                    })
                    .collect();
                view.sort_unstable();
                view
            })
            .collect()
    }

    #[test]
    fn compact_model_geometry_behaves_like_the_test_geometry() {
        let model = |cores, lines, vid_bits| {
            crate::kernel::model_kernel(&hmtx_types::ModelCheckConfig {
                cores,
                lines,
                vid_bits,
                ..hmtx_types::ModelCheckConfig::default()
            })
        };
        let mut kernels = vec![model(2, 2, 2), model(3, 3, 2), model(2, 2, 3)];
        kernels.extend(op_kernels());
        for k in &kernels {
            let compact = OpMachine::new(k, None);
            let mut full_cfg = model_machine_config(k, None);
            full_cfg.l1 = MachineConfig::test_default().l1;
            full_cfg.l2 = MachineConfig::test_default().l2;
            let full = OpMachine {
                mem: MemorySystem::new(full_cfg.clone()),
                ..compact.clone()
            };
            let cfg = compact.mem.config();
            assert!(cfg.l2.num_sets() < full_cfg.l2.num_sets(), "{}", k.name);
            let lines = touched_lines(k);
            for cache in [cfg.l1, cfg.l2, full_cfg.l1, full_cfg.l2] {
                let mut sets: Vec<usize> = lines
                    .iter()
                    .map(|&l| hmtx_types::LineAddr(l).set_index(cache.num_sets()))
                    .collect();
                sets.sort_unstable();
                sets.dedup();
                assert_eq!(sets.len(), lines.len(), "{}: {cache:?}", k.name);
            }

            // The same seeded random orders through both geometries.
            for seed in 1..=16u64 {
                let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let (mut a, mut b) = (compact.clone(), full.clone());
                assert_eq!(a.settle(k), b.settle(k));
                loop {
                    let enabled = a.enabled(k);
                    assert_eq!(enabled, b.enabled(k), "{}", k.name);
                    if enabled.is_empty() {
                        assert_eq!(a.finish(k), b.finish(k), "{}", k.name);
                        break;
                    }
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let tx = enabled[(rng % enabled.len() as u64) as usize];
                    let (ra, rb) = (a.step(k, tx), b.step(k, tx));
                    let at = format!("{} seed {seed} trace {:?}", k.name, a.trace);
                    assert_eq!(ra, rb, "{at}");
                    assert_eq!(a.committed, b.committed, "{at}");
                    assert_eq!(a.misspec, b.misspec, "{at}");
                    assert_eq!(views_without_sets(&a), views_without_sets(&b), "{at}");
                    if ra.is_err() {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn oracle_catches_a_wrong_reference() {
        // Sanity-check the checker itself: a one-transaction kernel that
        // stores and then loads a tracked word. Replayed honestly it is
        // clean; with the store erased from the recorded trace the
        // reference no longer sees it, and the commit-time oracle must
        // flag the word the execution did write.
        let op = |write| OpSpec {
            core: 0,
            addr: ADDR_A,
            write,
        };
        let k = OpKernel {
            name: "tamper",
            txs: vec![vec![op(Some(42)), op(None)]],
            tracked: vec![ADDR_A],
        };
        let good = execute_order_checked(&k, &[0, 1], None);
        assert!(good.failure.is_none(), "{:?}", good.failure);
        assert_eq!(good.committed, 1);

        let mut m = OpMachine::new(&k, None);
        m.step(&k, 0).unwrap();
        m.trace.clear();
        let f = m.step(&k, 0).unwrap_err();
        assert_eq!(f.kind, "oracle", "{f}");
        assert!(f.detail.contains("is 42, oracle says 0"), "{f}");
    }
}
