//! Breadth-first exhaustive search over the protocol model.

use std::collections::VecDeque;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};

use hmtx_explore::opexplore::OpMachine;
use hmtx_explore::{model_kernel, Failure, OpKernel};
use hmtx_types::{FxHashSet, ModelCheckConfig, ModelCheckReport, ModelViolation};

use crate::canon::Encoder;

/// The stable rule id of a failed check (see [`Failure::rule`]).
pub fn failure_rule(f: &Failure) -> &'static str {
    f.rule()
}

/// Runs the checker on the model kernel described by `cfg`.
pub fn check(cfg: &ModelCheckConfig) -> ModelCheckReport {
    let kernel = model_kernel(cfg);
    check_kernel(&kernel, cfg)
}

fn render_trace(kernel: &OpKernel, order: &[usize]) -> Vec<String> {
    order
        .iter()
        .map(|&id| {
            let (tx, op) = kernel.locate(id);
            format!(
                "op {id}: tx{tx} vid{} core{} {} {:#x}{}",
                tx + 1,
                op.core,
                if op.write.is_some() { "st" } else { "ld" },
                op.addr,
                op.write.map_or(String::new(), |v| format!(" = {v:#x}")),
            )
        })
        .collect()
}

/// Exhausts the reachable states of `kernel` (any op kernel, not just the
/// model family) under the strict [`OpMachine`] transition relation and
/// returns the report. `cfg` supplies the planted defect, the symmetry
/// switch, the state cap, and the core count used for symmetry (the
/// kernel's own core span when checking a non-model kernel).
///
/// Machines the search has finished with (duplicate children, failed
/// children, expanded terminal states) become spares: the next fork
/// overwrites one with `clone_from`, reusing its buffers, and a fresh
/// `clone()` happens only when there is none.
pub fn check_kernel(kernel: &OpKernel, cfg: &ModelCheckConfig) -> ModelCheckReport {
    search(kernel, cfg, |encoder, m| encoder.state_hash(kernel, m))
}

/// The search of [`check_kernel`], with each state's visited key given by
/// `key` (the canonical fingerprint in every build; tests also run it on
/// the exact encoding the fingerprint compacts).
fn search<K: Eq + Hash>(
    kernel: &OpKernel,
    cfg: &ModelCheckConfig,
    key: impl Fn(&Encoder, &OpMachine) -> K,
) -> ModelCheckReport {
    let cores = kernel
        .txs
        .iter()
        .flatten()
        .map(|op| op.core + 1)
        .max()
        .unwrap_or(1)
        .max(cfg.cores);
    let encoder = Encoder::new(kernel, cores, cfg.symmetry);

    let mut report = ModelCheckReport {
        kernel: kernel.name.to_string(),
        config: *cfg,
        reachable: 0,
        transitions: 0,
        frontier_peak: 0,
        exhausted: true,
        violations: Vec::new(),
    };
    let mut seen_rules: FxHashSet<&'static str> = FxHashSet::default();
    let mut record = |report: &mut ModelCheckReport, m: &OpMachine, f: &Failure| {
        let rule = failure_rule(f);
        if seen_rules.insert(rule) {
            report.violations.push(ModelViolation {
                rule: rule.to_string(),
                detail: f.detail.clone(),
                depth: m.trace.len(),
                trace: render_trace(kernel, &m.trace),
                order: m.trace.clone(),
            });
        }
    };

    let mut root = OpMachine::new(kernel, cfg.seed_bug);
    if let Err(f) = root.settle(kernel) {
        record(&mut report, &root, &f);
        return report;
    }
    let mut visited: FxHashSet<K> = FxHashSet::default();
    visited.insert(key(&encoder, &root));
    report.reachable = 1;

    // Boxed, so a machine moves between the queue and the spares as a
    // pointer, and neither buffer holds machines inline.
    let mut queue: VecDeque<Box<OpMachine>> = VecDeque::new();
    queue.push_back(Box::new(root));
    report.frontier_peak = 1;
    let mut spares: Vec<Box<OpMachine>> = Vec::new();
    let mut enabled: Vec<usize> = Vec::new();

    while let Some(state) = queue.pop_front() {
        enabled.clear();
        enabled.extend(state.enabled_iter(kernel));
        if enabled.is_empty() {
            // Terminal: end-of-run drain, final oracle, VID-reset epilogue.
            let spare = spares.last_mut().map(|spare| &mut spare.mem);
            let outcome = catch_unwind(AssertUnwindSafe(|| state.finish_into(kernel, spare)));
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(f)) => record(&mut report, &state, &f),
                Err(payload) => record(&mut report, &state, &Failure::from_panic(payload)),
            }
            spares.push(state);
            continue;
        }
        // Every child but the last forks a copy; the last steps the parent
        // itself, which nothing reads after its children.
        let last = enabled.len() - 1;
        let mut parent = Some(state);
        for (i, &tx) in enabled.iter().enumerate() {
            report.transitions += 1;
            let mut child = if i == last {
                parent.take().expect("the parent outlives its last child")
            } else {
                let parent = parent.as_ref().expect("the parent outlives its last child");
                match spares.pop() {
                    Some(mut spare) => {
                        spare.clone_from(parent);
                        spare
                    }
                    None => Box::new(OpMachine::clone(parent)),
                }
            };
            let stepped = catch_unwind(AssertUnwindSafe(|| child.step(kernel, tx)));
            let failure = match stepped {
                Ok(Ok(())) => None,
                Ok(Err(f)) => Some(f),
                Err(payload) => Some(Failure::from_panic(payload)),
            };
            if let Some(f) = failure {
                record(&mut report, &child, &f);
                spares.push(child);
                continue;
            }
            if visited.insert(key(&encoder, &child)) {
                report.reachable += 1;
                queue.push_back(child);
                report.frontier_peak = report.frontier_peak.max(queue.len());
                if cfg.max_states > 0 && report.reachable >= cfg.max_states {
                    report.exhausted = false;
                    return report;
                }
            } else {
                spares.push(child);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmtx_explore::execute_order_checked;
    use hmtx_mem::Cache;
    use hmtx_types::{SeedBug, Vid};

    #[test]
    fn smoke_config_exhausts_clean() {
        let cfg = ModelCheckConfig::default(); // 2 cores × 2 lines × vid_bits 2
        let report = check(&cfg);
        assert!(report.exhausted, "{report}");
        assert!(report.is_clean(), "{report}");
        assert!(report.reachable > 100, "suspiciously small: {report}");
    }

    /// `(reachable, transitions, frontier_peak)` of a report.
    fn counts(report: &ModelCheckReport) -> (usize, usize, usize) {
        (report.reachable, report.transitions, report.frontier_peak)
    }

    #[test]
    fn symmetry_never_changes_the_verdict_or_grows_the_state_count() {
        // The reduction is sound (it can only merge isomorphic-future
        // states), so it must preserve the verdict and never *increase*
        // the canonical state count. It is not idle: although the VID
        // order pins every transaction's remaining ops to their cores and
        // lines, misspeculated terminal states whose two finished cores
        // hold mirror-image copies do merge — 3 of them at c3-l2-v2 and
        // at c3-l3-v2 (DESIGN.md §12.4). The exact counts are pinned so that any
        // change to the model geometry or the canonical encoding that
        // merges or splits a single state shows up here.
        let model = |cores, lines| ModelCheckConfig {
            cores,
            lines,
            ..ModelCheckConfig::default()
        };
        for (cfg, sym_counts, asym_counts) in [
            (model(2, 2), (543, 770, 92), (543, 770, 92)),
            (model(3, 2), (620, 825, 108), (623, 825, 108)),
            (model(2, 3), (1733, 2636, 192), (1733, 2636, 192)),
            (model(3, 3), (1945, 2775, 227), (1948, 2775, 227)),
        ] {
            let sym = check(&cfg);
            let asym = check(&ModelCheckConfig {
                symmetry: false,
                ..cfg
            });
            assert!(sym.is_clean() && asym.is_clean(), "{sym}\n{asym}");
            assert!(sym.exhausted && asym.exhausted, "{sym}\n{asym}");
            assert_eq!(counts(&sym), sym_counts, "{sym}");
            assert_eq!(counts(&asym), asym_counts, "{asym}");
        }
    }

    #[test]
    fn fingerprint_search_matches_an_exact_visited_set() {
        // The fingerprint compacts the exact key (progress plus the
        // stabilizer-minimal sorted encoding); a false merge would shrink
        // a count or hide a violation, a split would grow one.
        let model = |cores, lines| ModelCheckConfig {
            cores,
            lines,
            ..ModelCheckConfig::default()
        };
        let mut cfgs = Vec::new();
        for cfg in [model(2, 2), model(3, 2), model(2, 3), model(3, 3)] {
            cfgs.push(cfg);
            cfgs.push(ModelCheckConfig {
                symmetry: false,
                ..cfg
            });
        }
        cfgs.push(ModelCheckConfig {
            seed_bug: Some(SeedBug::StaleMigrationReplica),
            ..model(2, 2)
        });
        cfgs.push(ModelCheckConfig {
            vid_bits: 3,
            max_states: 50_000,
            ..model(2, 2)
        });
        for cfg in cfgs {
            let kernel = model_kernel(&cfg);
            let fingerprint = check_kernel(&kernel, &cfg);
            let exact = search(&kernel, &cfg, |encoder, m| encoder.exact_key(&kernel, m));
            assert_eq!(counts(&fingerprint), counts(&exact), "{exact}");
            assert_eq!(fingerprint.exhausted, exact.exhausted, "{exact}");
            assert_eq!(fingerprint.violations, exact.violations, "{exact}");
            assert_eq!(
                fingerprint.is_clean(),
                cfg.seed_bug.is_none(),
                "{fingerprint}"
            );
        }
    }

    #[test]
    fn max_states_cuts_the_search_off() {
        let report = check(&ModelCheckConfig {
            max_states: 10,
            ..ModelCheckConfig::default()
        });
        assert!(!report.exhausted);
        assert_eq!(report.reachable, 10);
        let v3 = check(&ModelCheckConfig {
            vid_bits: 3,
            max_states: 500,
            ..ModelCheckConfig::default()
        });
        assert!(!v3.exhausted && v3.is_clean(), "{v3}");
        assert_eq!(counts(&v3), (500, 678, 395), "{v3}");
        // The 50k cut-off EXPERIMENTS.md reports: a change to the encoding
        // that merges or splits a v3 state moves these counts.
        let v3 = check(&ModelCheckConfig {
            vid_bits: 3,
            max_states: 50_000,
            ..ModelCheckConfig::default()
        });
        assert!(!v3.exhausted && v3.is_clean(), "{v3}");
        assert_eq!(counts(&v3), (50_000, 122_391, 26_874), "{v3}");
    }

    #[test]
    fn shared_counterexample_corpus_is_rediscovered_and_replays() {
        // The pinned corpus in `hmtx_analysis::corpus` records traces this
        // checker found; re-running the checker must rediscover each
        // entry's rule, the stored ops must still match the kernel, and
        // the recorded order must replay to the same violation.
        for entry in hmtx_analysis::model_counterexamples() {
            let kernel = hmtx_explore::resolve_kernel(entry.kernel)
                .unwrap_or_else(|| panic!("{}: kernel `{}` resolves", entry.name, entry.kernel));
            let bug = SeedBug::from_name(entry.seed_bug);
            assert!(bug.is_some(), "{}: seed bug resolves", entry.name);

            // Stored ops are the kernel's ops at the recorded ids.
            for (&id, op) in entry.order.iter().zip(&entry.ops) {
                let (tx, spec) = kernel.locate(id);
                assert_eq!(op.core, spec.core, "{} op {id}", entry.name);
                assert_eq!(op.addr, spec.addr, "{} op {id}", entry.name);
                assert_eq!(op.write, spec.write, "{} op {id}", entry.name);
                assert_eq!(usize::from(op.vid), tx + 1, "{} op {id}", entry.name);
            }

            let cfg = ModelCheckConfig {
                seed_bug: bug,
                ..ModelCheckConfig::default()
            };
            let report = check_kernel(&kernel, &cfg);
            assert!(
                report.violations.iter().any(|v| v.rule == entry.model_rule),
                "{}: rule `{}` must be rediscovered, got {report}",
                entry.name,
                entry.model_rule
            );

            let replay = execute_order_checked(&kernel, &entry.order, bug);
            let f = replay
                .failure
                .unwrap_or_else(|| panic!("{}: pinned order must still violate", entry.name));
            assert_eq!(failure_rule(&f), entry.model_rule, "{}: {f}", entry.name);
        }
    }

    #[test]
    fn op_kernels_exhaust_clean_and_the_planted_defect_is_found_at_minimal_depth() {
        // Every interleaving of every hand-written op kernel, with no
        // preemption bound and the strict checks after every op. The
        // counts are pinned so a change to the kernels, the model geometry
        // or the encoding that merges or splits a state shows up here.
        let cfg = ModelCheckConfig::default();
        let pinned = [
            ("migrated_line", (27, 35, 5)),
            ("forwarding_chain", (34, 41, 12)),
            ("write_skew", (38, 42, 11)),
        ];
        let kernels = hmtx_explore::op_kernels();
        let names: Vec<&str> = kernels.iter().map(|k| k.name).collect();
        assert_eq!(names, pinned.map(|(name, _)| name));
        for (kernel, (name, want)) in kernels.iter().zip(pinned) {
            let report = check_kernel(kernel, &cfg);
            assert!(report.exhausted && report.is_clean(), "{report}");
            assert_eq!(counts(&report), want, "{report}");
            assert!(
                report.to_string().starts_with(&format!("model {name}: ")),
                "{report}"
            );
        }

        // The planted defect, found breadth-first: the first counterexample
        // is already as short as any (no shrinking needed), well under the
        // 7 ops of the originally recorded schedule, and the defect is the
        // knob, not the order: without it the same order replays clean.
        let migrated_line = &kernels[0];
        let bug = Some(SeedBug::StaleMigrationReplica);
        let report = check_kernel(
            migrated_line,
            &ModelCheckConfig {
                seed_bug: bug,
                ..cfg
            },
        );
        let first = report
            .violations
            .first()
            .expect("the planted defect is found");
        assert_eq!(
            (first.depth, first.order.as_slice()),
            (2, &[0, 1][..]),
            "{report}"
        );
        let buggy = execute_order_checked(migrated_line, &first.order, bug);
        assert_eq!(buggy.failure.map(|f| f.detail), Some(first.detail.clone()));
        let clean = execute_order_checked(migrated_line, &first.order, None);
        assert!(clean.failure.is_none(), "{:?}", clean.failure);
    }

    #[test]
    fn planted_defect_is_rediscovered_with_a_replayable_trace() {
        let cfg = ModelCheckConfig {
            seed_bug: Some(SeedBug::StaleMigrationReplica),
            ..ModelCheckConfig::default()
        };
        let kernel = model_kernel(&cfg);
        let report = check_kernel(&kernel, &cfg);
        assert!(
            !report.is_clean(),
            "the planted migration defect must be rediscovered: {report}"
        );
        assert_eq!(counts(&report), (51, 103, 10), "{report}");
        let first = &report.violations[0];
        assert_eq!(first.rule, "at most one responding version hits per VID");
        assert_eq!(first.depth, 2, "{first:?}");
        // The context and the cache names are rendered only on failure.
        assert_eq!(
            first.detail,
            "after op 4 (tx1 core1 ld 0x40000): at most one responding version hits per VID: \
             L0x1000 vid v0: [(\"L1[0]\", SpecExclusive, Vid(0), Vid(2)), \
             (\"L1[1]\", SpecExclusive, Vid(0), Vid(2))]"
        );
        assert_eq!(
            first.trace,
            [
                "op 0: tx0 vid1 core0 ld 0x40000",
                "op 4: tx1 vid2 core1 ld 0x40000"
            ]
        );
        // Every counterexample replays to the same violated rule.
        for v in &report.violations {
            let replay = execute_order_checked(&kernel, &v.order, cfg.seed_bug);
            let f = replay
                .failure
                .unwrap_or_else(|| panic!("trace for `{}` did not replay: {v:?}", v.rule));
            assert_eq!(failure_rule(&f), v.rule, "{f}");
        }
    }

    #[test]
    fn clone_from_matches_clone_on_every_reachable_state() {
        let cfg = ModelCheckConfig {
            cores: 3,
            lines: 3,
            ..ModelCheckConfig::default()
        };
        let kernel = model_kernel(&cfg);
        let encoder = Encoder::new(&kernel, cfg.cores, cfg.symmetry);
        let hash = |m: &OpMachine| encoder.state_hash(&kernel, m);

        // Every reachable state, breadth-first.
        let mut root = OpMachine::new(&kernel, None);
        root.settle(&kernel).unwrap();
        let mut visited = FxHashSet::default();
        visited.insert(hash(&root));
        let mut states = vec![root];
        let mut i = 0;
        while i < states.len() {
            for tx in states[i].enabled(&kernel) {
                let mut child = states[i].clone();
                child.step(&kernel, tx).unwrap();
                if visited.insert(hash(&child)) {
                    states.push(child);
                }
            }
            i += 1;
        }
        assert_eq!(states.len(), 1945);

        // The donor: the state with the most stored versions, then the
        // most live read and write lines, then the longest trace.
        let size = |m: &OpMachine| {
            let stats = m.mem.stats();
            let live: usize = (1..=3)
                .map(|v| stats.live_read_lines(Vid(v)) + stats.live_write_lines(Vid(v)))
                .sum();
            let stored: usize = m.mem.caches().map(Cache::occupancy).sum();
            (stored, live, m.trace.len())
        };
        let big = states.iter().max_by_key(|m| size(m)).unwrap();
        assert!(size(big).1 > 0, "{:?}", size(big));

        let debug = |m: &OpMachine| format!("{m:?}");
        // `spare` last held the previous state's last child.
        let mut spare = big.clone();
        for state in &states {
            let fresh = state.clone();
            let mut from_big = big.clone();
            for recycled in [&mut from_big, &mut spare] {
                recycled.clone_from(state);
                assert_eq!(debug(recycled), debug(&fresh));
                assert_eq!(hash(recycled), hash(&fresh));
                let enabled = fresh.enabled(&kernel);
                if enabled.is_empty() {
                    let finished = fresh.finish(&kernel);
                    assert_eq!(
                        state.finish_into(&kernel, Some(&mut big.mem.clone())),
                        finished
                    );
                    assert_eq!(recycled.finish(&kernel), finished);
                }
                for tx in enabled {
                    recycled.clone_from(state);
                    let mut child = fresh.clone();
                    assert_eq!(recycled.step(&kernel, tx), child.step(&kernel, tx));
                    assert_eq!(debug(recycled), debug(&child));
                    assert_eq!(hash(recycled), hash(&child));
                }
            }
        }
    }
}
