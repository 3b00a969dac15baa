//! Set-level hardware-queue checks.
//!
//! Looks at every `produce`/`consume` across all programs of a verified set
//! (program index = core index, mirroring how `runtime::run_loop` launches
//! them) and reports:
//!
//! | rule | severity | meaning |
//! |------|----------|---------|
//! | `queue-no-consumer` | error | a queue is produced but nobody consumes it |
//! | `queue-no-producer` | error | a queue is consumed but nobody produces it |
//! | `queue-multi-consumer` | warning | several cores consume the same queue |
//! | `queue-deadlock-cycle` | error | a wait-for cycle of queues with no injector |
//! | `queue-rate-mismatch` | error | statically fewer items produced than consumed |
//! | `queue-rate-surplus` | warning | statically more items produced than consumed |
//!
//! The rate rules only fire for queues whose every operation sits outside
//! any CFG cycle: once an op is inside a loop the static trip count is
//! unknowable here and the rule stays silent (conservative, no false
//! positives on the shipped pipeline emitters, whose queue traffic is all
//! inside loops).
//!
//! Deadlock detection builds the core-level wait-for graph (consumer core →
//! producer core per queue) and, for each strongly connected component,
//! checks whether any member can reach a `produce` of a cycle queue along a
//! CFG path that does not first block on a `consume` of a cycle queue — the
//! DOACROSS token ring is exactly such a case (worker 0's first-iteration
//! skip path injects the first token), so it is *not* flagged.

use std::collections::{BTreeMap, BTreeSet};

use hmtx_isa::{Instr, Program};
use hmtx_types::{Diagnostic, QueueId, Severity};

use crate::cfg::{scc, Cfg};
use crate::mtx::{ProgramFacts, QueueOpFact, QueueOpKind};

/// Runs every queue rule over the set. `facts[i]` / `cfgs[i]` /
/// `programs[i]` describe core `i`.
pub fn check_set(
    programs: &[&Program],
    cfgs: &[Cfg],
    facts: &[ProgramFacts],
    diags: &mut Vec<Diagnostic>,
) {
    // Queue -> per-core op lists.
    let mut by_queue: BTreeMap<QueueId, Vec<(usize, QueueOpFact)>> = BTreeMap::new();
    for (core, f) in facts.iter().enumerate() {
        for op in &f.queue_ops {
            by_queue.entry(op.q).or_default().push((core, *op));
        }
    }

    for (q, ops) in &by_queue {
        let producers: BTreeSet<usize> = ops
            .iter()
            .filter(|(_, o)| o.kind == QueueOpKind::Produce)
            .map(|(c, _)| *c)
            .collect();
        let consumers: BTreeSet<usize> = ops
            .iter()
            .filter(|(_, o)| o.kind == QueueOpKind::Consume)
            .map(|(c, _)| *c)
            .collect();
        let first = |kind: QueueOpKind| {
            ops.iter()
                .filter(|(_, o)| o.kind == kind)
                .min_by_key(|(c, o)| (*c, o.pc))
                .map(|(c, o)| (*c, o.pc))
        };
        if consumers.is_empty() {
            let (core, pc) = first(QueueOpKind::Produce).expect("queue has ops");
            diags.push(Diagnostic {
                severity: Severity::Error,
                rule: "queue-no-consumer",
                core,
                pc,
                message: format!(
                    "{q} is produced here but no core in the set ever consumes it; the \
                     producer will block once the queue fills"
                ),
            });
        }
        if producers.is_empty() {
            let (core, pc) = first(QueueOpKind::Consume).expect("queue has ops");
            diags.push(Diagnostic {
                severity: Severity::Error,
                rule: "queue-no-producer",
                core,
                pc,
                message: format!(
                    "{q} is consumed here but no core in the set ever produces it; this \
                     consume blocks forever"
                ),
            });
        }
        if consumers.len() > 1 {
            let mut it = consumers.iter();
            let _first_core = it.next();
            let second = *it.next().expect("len > 1");
            let pc = ops
                .iter()
                .filter(|(c, o)| *c == second && o.kind == QueueOpKind::Consume)
                .map(|(_, o)| o.pc)
                .min()
                .expect("second consumer has a consume");
            diags.push(Diagnostic {
                severity: Severity::Warning,
                rule: "queue-multi-consumer",
                core: second,
                pc,
                message: format!(
                    "{q} is consumed by {} different cores ({:?}); hardware queues are \
                     single-reader FIFOs, so interleaving is timing-dependent",
                    consumers.len(),
                    consumers.iter().collect::<Vec<_>>()
                ),
            });
        }
    }

    check_deadlock_cycles(programs, &by_queue, facts.len(), diags);
    check_rates(cfgs, &by_queue, diags);
}

fn check_deadlock_cycles(
    programs: &[&Program],
    by_queue: &BTreeMap<QueueId, Vec<(usize, QueueOpFact)>>,
    ncores: usize,
    diags: &mut Vec<Diagnostic>,
) {
    // Wait-for graph on cores: consumer -> each producer of that queue.
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); ncores];
    for ops in by_queue.values() {
        let producers: Vec<usize> = ops
            .iter()
            .filter(|(_, o)| o.kind == QueueOpKind::Produce)
            .map(|(c, _)| *c)
            .collect();
        for (c, o) in ops {
            if o.kind == QueueOpKind::Consume {
                for &p in &producers {
                    adj[*c].insert(p);
                }
            }
        }
    }
    let adj_vec: Vec<Vec<usize>> = adj.iter().map(|s| s.iter().copied().collect()).collect();
    let (scc_of, scc_count) = scc(&adj_vec);

    for s in 0..scc_count {
        let members: BTreeSet<usize> = (0..ncores).filter(|c| scc_of[*c] == s).collect();
        let cyclic = members.len() > 1 || members.iter().any(|&c| adj_vec[c].contains(&c));
        if !cyclic {
            continue;
        }
        // Queues that are part of the cycle: consumed inside the SCC and
        // produced *only* inside it (an outside producer can always feed
        // the cycle from elsewhere).
        let cycle_queues: BTreeSet<QueueId> = by_queue
            .iter()
            .filter(|(_, ops)| {
                let producers: BTreeSet<usize> = ops
                    .iter()
                    .filter(|(_, o)| o.kind == QueueOpKind::Produce)
                    .map(|(c, _)| *c)
                    .collect();
                let consumed_inside = ops
                    .iter()
                    .any(|(c, o)| o.kind == QueueOpKind::Consume && members.contains(c));
                consumed_inside && !producers.is_empty() && producers.is_subset(&members)
            })
            .map(|(q, _)| *q)
            .collect();
        if cycle_queues.is_empty() {
            continue;
        }
        // An "injector" breaks the cycle: some member can reach a produce of
        // a cycle queue without first blocking on a consume of one.
        let has_injector = members
            .iter()
            .any(|&c| can_produce_before_consuming(programs[c], &cycle_queues));
        if has_injector {
            continue;
        }
        let (core, pc) = members
            .iter()
            .flat_map(|&c| {
                by_queue
                    .iter()
                    .filter(|(q, _)| cycle_queues.contains(q))
                    .flat_map(move |(_, ops)| {
                        ops.iter()
                            .filter(move |(oc, o)| *oc == c && o.kind == QueueOpKind::Consume)
                            .map(|(oc, o)| (*oc, o.pc))
                    })
            })
            .min()
            .expect("cycle has a consume");
        diags.push(Diagnostic {
            severity: Severity::Error,
            rule: "queue-deadlock-cycle",
            core,
            pc,
            message: format!(
                "cores {:?} wait on each other through queues {:?} and no core can produce \
                 a first item before blocking on a consume: every queue starts empty, so \
                 the set deadlocks",
                members.iter().collect::<Vec<_>>(),
                cycle_queues
                    .iter()
                    .map(|q| q.to_string())
                    .collect::<Vec<_>>()
            ),
        });
    }
}

/// CFG path search at instruction granularity: can execution reach a
/// `produce` of a queue in `queues` from the entry without first executing a
/// `consume` of any queue in `queues`?
fn can_produce_before_consuming(program: &Program, queues: &BTreeSet<QueueId>) -> bool {
    let code = program.instrs();
    let len = code.len();
    if len == 0 {
        return false;
    }
    let mut visited = vec![false; len];
    let mut stack = vec![0usize];
    while let Some(pc) = stack.pop() {
        if pc >= len || visited[pc] {
            continue;
        }
        visited[pc] = true;
        match code[pc] {
            Instr::Produce { q, .. } if queues.contains(&q) => return true,
            Instr::Consume { q, .. } if queues.contains(&q) => continue, // path blocks here
            Instr::Branch { target, .. } => {
                stack.push(target);
                stack.push(pc + 1);
            }
            Instr::Jump { target } => stack.push(target),
            Instr::Halt | Instr::AbortMtx { .. } => {}
            _ => stack.push(pc + 1),
        }
    }
    false
}

fn check_rates(
    cfgs: &[Cfg],
    by_queue: &BTreeMap<QueueId, Vec<(usize, QueueOpFact)>>,
    diags: &mut Vec<Diagnostic>,
) {
    const INF: u64 = u64::MAX / 4;
    for (q, ops) in by_queue {
        if ops.iter().any(|(_, o)| o.in_cycle) {
            continue; // loop trip counts are not statically known here
        }
        let has = |kind: QueueOpKind| ops.iter().any(|(_, o)| o.kind == kind);
        if !has(QueueOpKind::Produce) || !has(QueueOpKind::Consume) {
            continue; // already reported as queue-no-producer/consumer
        }
        let mut total = BTreeMap::new(); // kind -> (min_sum, max_sum)
        for kind in [QueueOpKind::Produce, QueueOpKind::Consume] {
            let mut min_sum = 0u64;
            let mut max_sum = 0u64;
            for (core, cfg) in cfgs.iter().enumerate() {
                let blocks_with: BTreeMap<usize, u64> = ops
                    .iter()
                    .filter(|(c, o)| *c == core && o.kind == kind)
                    .fold(BTreeMap::new(), |mut m, (_, o)| {
                        *m.entry(o.block).or_insert(0) += 1;
                        m
                    });
                let (lo, hi) = path_count_range(cfg, &blocks_with);
                min_sum = min_sum.saturating_add(if lo >= INF { 0 } else { lo });
                max_sum = max_sum.saturating_add(hi.min(INF));
            }
            total.insert(kind as usize, (min_sum, max_sum));
        }
        let (p_min, p_max) = total[&(QueueOpKind::Produce as usize)];
        let (c_min, c_max) = total[&(QueueOpKind::Consume as usize)];
        if p_max < c_min {
            let (core, pc) = ops
                .iter()
                .filter(|(_, o)| o.kind == QueueOpKind::Consume)
                .map(|(c, o)| (*c, o.pc))
                .min()
                .expect("c_min > 0 implies a consume");
            diags.push(Diagnostic {
                severity: Severity::Error,
                rule: "queue-rate-mismatch",
                core,
                pc,
                message: format!(
                    "{q}: every execution consumes at least {c_min} item(s) but at most \
                     {p_max} are ever produced; the last consume blocks forever"
                ),
            });
        } else if p_min > c_max {
            let (core, pc) = ops
                .iter()
                .filter(|(_, o)| o.kind == QueueOpKind::Produce)
                .map(|(c, o)| (*c, o.pc))
                .min()
                .expect("p_min > 0 implies a produce");
            diags.push(Diagnostic {
                severity: Severity::Warning,
                rule: "queue-rate-surplus",
                core,
                pc,
                message: format!(
                    "{q}: every execution produces at least {p_min} item(s) but at most \
                     {c_max} are ever consumed; leftover items (or a full-queue stall) \
                     are likely unintended"
                ),
            });
        }
    }
}

/// `(min, max)` number of ops (counted per block via `count_of`) on any
/// entry-to-exit path. Works on the SCC condensation, which is a DAG whose
/// scc ids are reverse-topological; cyclic SCCs are assumed to contain no
/// counted ops (callers guarantee this). Returns `(INF, 0)`-style bounds
/// when no exit is reachable.
fn path_count_range(cfg: &Cfg, count_of: &BTreeMap<usize, u64>) -> (u64, u64) {
    const INF: u64 = u64::MAX / 4;
    if cfg.blocks.is_empty() {
        return (0, 0);
    }
    let n = cfg.scc_count;
    let mut cnt = vec![0u64; n];
    let mut can_exit = vec![false; n];
    let mut succs: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for b in &cfg.blocks {
        let s = cfg.scc_of[b.id];
        cnt[s] += count_of.get(&b.id).copied().unwrap_or(0);
        if b.succs.is_empty() || b.implicit_exit {
            can_exit[s] = true;
        }
        for &t in &b.succs {
            let ts = cfg.scc_of[t];
            if ts != s {
                succs[s].insert(ts);
            }
        }
    }
    // Reverse-topological ids: process successors (lower ids) first.
    let mut lo = vec![INF; n];
    let mut hi = vec![0u64; n];
    let mut reaches_exit = vec![false; n];
    for s in 0..n {
        let mut best_lo = if can_exit[s] { Some(0u64) } else { None };
        let mut best_hi = if can_exit[s] { Some(0u64) } else { None };
        for &t in &succs[s] {
            if reaches_exit[t] {
                best_lo = Some(best_lo.map_or(lo[t], |b| b.min(lo[t])));
                best_hi = Some(best_hi.map_or(hi[t], |b| b.max(hi[t])));
            }
        }
        if let (Some(bl), Some(bh)) = (best_lo, best_hi) {
            reaches_exit[s] = true;
            lo[s] = cnt[s].saturating_add(bl);
            hi[s] = cnt[s].saturating_add(bh);
        }
    }
    let entry = cfg.scc_of[cfg.block_of[0]];
    if reaches_exit[entry] {
        (lo[entry], hi[entry])
    } else {
        (INF, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mtx::analyze_program;
    use hmtx_isa::{Cond, ProgramBuilder, Reg};

    fn verify(programs: Vec<Program>) -> Vec<Diagnostic> {
        let cfgs: Vec<Cfg> = programs.iter().map(Cfg::build).collect();
        let mut diags = Vec::new();
        let facts: Vec<ProgramFacts> = programs
            .iter()
            .zip(cfgs.iter())
            .enumerate()
            .map(|(core, (p, cfg))| analyze_program(core, p, cfg, &mut Vec::new()))
            .collect();
        let refs: Vec<&Program> = programs.iter().collect();
        check_set(&refs, &cfgs, &facts, &mut diags);
        diags
    }

    fn rules(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn unmatched_queues_are_errors() {
        let mut a = ProgramBuilder::new();
        a.li(Reg::R1, 7);
        a.produce(QueueId(3), Reg::R1);
        a.halt();
        let mut b = ProgramBuilder::new();
        b.consume(Reg::R2, QueueId(4));
        b.halt();
        let diags = verify(vec![a.build().unwrap(), b.build().unwrap()]);
        assert!(rules(&diags).contains(&"queue-no-consumer"), "{diags:?}");
        assert!(rules(&diags).contains(&"queue-no-producer"), "{diags:?}");
        let nc = diags
            .iter()
            .find(|d| d.rule == "queue-no-consumer")
            .unwrap();
        assert_eq!((nc.core, nc.pc), (0, 1));
        let np = diags
            .iter()
            .find(|d| d.rule == "queue-no-producer")
            .unwrap();
        assert_eq!((np.core, np.pc), (1, 0));
    }

    #[test]
    fn mutual_consume_first_deadlocks() {
        // Core 0: consume q0 then produce q1; core 1: consume q1 then
        // produce q0. Both queues start empty -> deadlock.
        let mut a = ProgramBuilder::new();
        a.consume(Reg::R1, QueueId(0));
        a.produce(QueueId(1), Reg::R1);
        a.halt();
        let mut b = ProgramBuilder::new();
        b.consume(Reg::R1, QueueId(1));
        b.produce(QueueId(0), Reg::R1);
        b.halt();
        let diags = verify(vec![a.build().unwrap(), b.build().unwrap()]);
        assert!(rules(&diags).contains(&"queue-deadlock-cycle"), "{diags:?}");
        let d = diags
            .iter()
            .find(|d| d.rule == "queue-deadlock-cycle")
            .unwrap();
        assert_eq!((d.core, d.pc), (0, 0));
    }

    #[test]
    fn token_ring_with_skip_path_is_clean() {
        // DOACROSS-style: each core consumes its own token queue and
        // produces the next core's, but core 0 skips the consume on a flag
        // (first iteration) -> it can inject the first token.
        let make = |my_q: usize, next_q: usize, skip: bool| {
            let mut b = ProgramBuilder::new();
            let after = b.new_label();
            if skip {
                b.li(Reg::R19, 1);
                b.branch_imm(Cond::Ne, Reg::R19, 0, after);
            }
            b.consume(Reg::R1, QueueId(my_q));
            b.bind(after).unwrap();
            b.li(Reg::R2, 5);
            b.produce(QueueId(next_q), Reg::R2);
            b.halt();
            b.build().unwrap()
        };
        let diags = verify(vec![make(0, 1, true), make(1, 0, false)]);
        assert!(
            !rules(&diags).contains(&"queue-deadlock-cycle"),
            "{diags:?}"
        );
    }

    #[test]
    fn straight_line_rate_mismatch_is_detected() {
        let mut a = ProgramBuilder::new();
        a.li(Reg::R1, 7);
        a.produce(QueueId(2), Reg::R1);
        a.halt();
        let mut b = ProgramBuilder::new();
        b.consume(Reg::R2, QueueId(2));
        b.consume(Reg::R3, QueueId(2));
        b.halt();
        let diags = verify(vec![a.build().unwrap(), b.build().unwrap()]);
        let d = diags
            .iter()
            .find(|d| d.rule == "queue-rate-mismatch")
            .unwrap();
        assert_eq!((d.core, d.pc), (1, 0));
        assert!(d.message.contains("at least 2"), "{}", d.message);
    }

    #[test]
    fn surplus_is_a_warning() {
        let mut a = ProgramBuilder::new();
        a.li(Reg::R1, 7);
        a.produce(QueueId(2), Reg::R1);
        a.produce(QueueId(2), Reg::R1);
        a.halt();
        let mut b = ProgramBuilder::new();
        b.consume(Reg::R2, QueueId(2));
        b.halt();
        let diags = verify(vec![a.build().unwrap(), b.build().unwrap()]);
        let d = diags
            .iter()
            .find(|d| d.rule == "queue-rate-surplus")
            .unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!((d.core, d.pc), (0, 1));
    }

    #[test]
    fn looped_queue_traffic_is_exempt_from_rate_rules() {
        // Producer loops 10 times, consumer once: rates differ but ops sit
        // in cycles, so the static rule must stay silent.
        let mut a = ProgramBuilder::new();
        let head = a.new_label();
        a.li(Reg::R1, 0);
        a.bind(head).unwrap();
        a.produce(QueueId(2), Reg::R1);
        a.addi(Reg::R1, Reg::R1, 1);
        a.branch_imm(Cond::LtU, Reg::R1, 10, head);
        a.halt();
        let mut b = ProgramBuilder::new();
        b.consume(Reg::R2, QueueId(2));
        b.halt();
        let diags = verify(vec![a.build().unwrap(), b.build().unwrap()]);
        assert!(
            !rules(&diags).iter().any(|r| r.starts_with("queue-rate")),
            "{diags:?}"
        );
    }

    #[test]
    fn branchy_counts_use_min_and_max() {
        // Producer: 1 produce always, 1 more on a branch -> min 1, max 2.
        // Consumer: exactly 2 -> no mismatch possible to prove; silent.
        let mut a = ProgramBuilder::new();
        let skip = a.new_label();
        a.li(Reg::R1, 7);
        a.produce(QueueId(2), Reg::R1);
        a.branch_imm(Cond::Eq, Reg::R1, 0, skip);
        a.produce(QueueId(2), Reg::R1);
        a.bind(skip).unwrap();
        a.halt();
        let mut b = ProgramBuilder::new();
        b.consume(Reg::R2, QueueId(2));
        b.consume(Reg::R3, QueueId(2));
        b.halt();
        let diags = verify(vec![a.build().unwrap(), b.build().unwrap()]);
        assert!(
            !rules(&diags).iter().any(|r| r.starts_with("queue-rate")),
            "min/max overlap must not fire: {diags:?}"
        );
    }

    #[test]
    fn multi_consumer_is_a_warning() {
        let mut a = ProgramBuilder::new();
        a.li(Reg::R1, 7);
        a.produce(QueueId(2), Reg::R1);
        a.produce(QueueId(2), Reg::R1);
        a.halt();
        let mk_consumer = || {
            let mut b = ProgramBuilder::new();
            b.consume(Reg::R2, QueueId(2));
            b.halt();
            b.build().unwrap()
        };
        let diags = verify(vec![a.build().unwrap(), mk_consumer(), mk_consumer()]);
        let d = diags
            .iter()
            .find(|d| d.rule == "queue-multi-consumer")
            .unwrap();
        assert_eq!(d.core, 2, "anchored at the second consumer");
    }
}
