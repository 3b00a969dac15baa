//! Whole-system protocol invariant checking.
//!
//! The §4.1 design argument rests on a handful of global invariants ("a
//! request incoming to a cache knows if it should hit, miss, or trigger
//! misspeculation solely by using the coherent state of each line"). This
//! module makes them executable: [`MemorySystem::check_invariants`] scans
//! every cache and returns every violation found. Property tests and
//! integration tests call it after every phase of random executions.

use std::collections::BTreeMap;

use hmtx_mem::LineState;
use hmtx_types::{LineAddr, Vid};

use crate::backend::ProtocolBackend;
use crate::protocol::MemorySystem;
use crate::transitions::Outcome;

/// One violated invariant (all fields are pre-rendered for reporting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant failed.
    pub rule: &'static str,
    /// Human-readable details (line address, states involved).
    pub detail: String,
}

impl<B: ProtocolBackend> MemorySystem<B> {
    /// Scans the entire hierarchy for protocol invariant violations:
    ///
    /// 1. `modVID <= highVID` on every version;
    /// 2. speculative states that require `modVID == 0` (`S-E`) have it;
    /// 3. for every address and every request VID, **at most one**
    ///    snoop-responding version hits (the paper's "requests will only hit
    ///    on one version of the line");
    /// 4. at most one *writable* non-speculative copy (M/E) of an address
    ///    exists anywhere;
    /// 5. at most one live `S-M` version per address exists anywhere;
    /// 6. a dirty non-speculative line (M/O) never coexists with another
    ///    M/O copy of the same address.
    ///
    /// Returns all violations (empty = healthy). The scan judges each line
    /// *as the protocol would serve it*: pending lazy commit processing
    /// (§5.3) is applied to a snapshot first, since committed-but-
    /// unprocessed versions are never served. This is a diagnostic scan with
    /// no timing model; run it at quiescent points (between accesses).
    pub fn check_invariants(&self) -> Vec<Violation> {
        let mut violations = Vec::new();
        // Per-address rules (3-6) are judged in address order, so which
        // violation comes first never depends on a hash seed.
        let mut per_addr: BTreeMap<LineAddr, Vec<(String, LineState, Vid, Vid)>> = BTreeMap::new();

        for (name, cache) in self.caches_for_scan() {
            for set_idx in 0..cache.config().num_sets() {
                for stored in cache.set_metas(set_idx) {
                    // Judge the line as the protocol would see it: apply any
                    // pending lazy commit processing (§5.3) to a snapshot
                    // first — committed-but-unprocessed versions are exactly
                    // the paper's set-CB-bit state and are never served.
                    let mut processed = *stored;
                    if processed.commit_epoch < cache.commit_epoch()
                        && B::apply_commit(&mut processed, cache.lc_vid()) == Outcome::Invalidate
                    {
                        continue;
                    }
                    let line = &processed;
                    if line.mod_vid > line.high_vid {
                        violations.push(Violation {
                            rule: "modVID <= highVID",
                            detail: format!("{name}: {} {}", line.addr, line.describe()),
                        });
                    }
                    if line.state == LineState::SpecExclusive && line.mod_vid.is_speculative() {
                        violations.push(Violation {
                            rule: "S-E implies modVID == 0",
                            detail: format!("{name}: {} {}", line.addr, line.describe()),
                        });
                    }
                    per_addr.entry(line.addr).or_default().push((
                        name.clone(),
                        line.state,
                        line.mod_vid,
                        line.high_vid,
                    ));
                }
            }
        }

        let max_vid = self.config().hmtx.max_vid().0;
        for (addr, versions) in &per_addr {
            // (3) hit uniqueness among responders, for every possible VID.
            for a in 0..=max_vid {
                let a = Vid(a);
                let hit = |(_, state, m, h): &&(String, LineState, Vid, Vid)| {
                    state.responds_to_snoops() && hits(*state, *m, *h, a)
                };
                // Count first: collecting allocates, and a clean scan
                // visits every VID of every address.
                if versions.iter().filter(hit).count() > 1 {
                    let hitters: Vec<_> = versions.iter().filter(hit).collect();
                    violations.push(Violation {
                        rule: "at most one responding version hits per VID",
                        detail: format!("{addr} vid {a}: {hitters:?}"),
                    });
                }
            }
            // (4) single writable non-speculative copy.
            let writable = versions
                .iter()
                .filter(|(_, s, _, _)| s.is_writable())
                .count();
            if writable > 1 {
                violations.push(Violation {
                    rule: "at most one writable non-speculative copy",
                    detail: format!("{addr}: {versions:?}"),
                });
            }
            // (5) single live S-M.
            let sm = versions
                .iter()
                .filter(|(_, s, _, _)| *s == LineState::SpecModified)
                .count();
            if sm > 1 {
                violations.push(Violation {
                    rule: "at most one S-M version per address",
                    detail: format!("{addr}: {versions:?}"),
                });
            }
            // (6) single dirty non-speculative owner.
            let dirty_nonspec = versions
                .iter()
                .filter(|(_, s, _, _)| matches!(s, LineState::Modified | LineState::Owned))
                .count();
            if dirty_nonspec > 1 {
                violations.push(Violation {
                    rule: "at most one dirty non-speculative owner",
                    detail: format!("{addr}: {versions:?}"),
                });
            }
        }
        violations
    }
}

impl<B: ProtocolBackend> MemorySystem<B> {
    /// Extended rules the explicit-state model checker evaluates on every
    /// reachable state, *beyond* [`Self::check_invariants`]:
    ///
    /// 1. **Commit safety** (`committed modVID never stays speculative`):
    ///    once VID `c` has committed, no served version anywhere may still
    ///    carry a speculative `modVID <= c`, and no superseded
    ///    `S-O`/`S-S (m,h)` with `h <= c` may survive — Figure 6 requires
    ///    the commit broadcast (or its lazy §5.3 processing) to have
    ///    promoted or invalidated them. Violations here mean a commit was
    ///    applied out of modVID order somewhere in the hierarchy.
    /// 2. **Exclusivity after abort** (`no duplicate Exclusive after
    ///    abort`): once any abort has happened since the last VID reset, an
    ///    `E` copy must be the *only* non-speculative copy of its address.
    ///    The PR 2 bug class (Figure 7 restoring forwarding replicas in
    ///    isolation) manifests first as `E` coexisting with `S` — the state
    ///    from which a later speculative upgrade mints the second
    ///    Exclusive head.
    ///
    /// Lines are judged exactly as in [`Self::check_invariants`]: pending
    /// lazy commit processing is applied to a snapshot first, and the §8
    /// overflow table (processed eagerly at commit) is included in the
    /// commit-safety scan.
    pub fn check_model_invariants(&self) -> Vec<Violation> {
        let mut violations = Vec::new();
        let committed = self.last_committed();
        let mut per_addr: BTreeMap<LineAddr, Vec<(String, LineState)>> = BTreeMap::new();

        let mut commit_safety = |name: &str, line: &hmtx_mem::LineMeta| {
            let superseded = matches!(
                line.state,
                LineState::SpecOwned | LineState::SpecShared
            ) && line.high_vid <= committed;
            let stale_mod = line.state.is_speculative()
                && line.mod_vid.is_speculative()
                && line.mod_vid <= committed;
            if superseded || stale_mod {
                violations.push(Violation {
                    rule: "committed modVID never stays speculative",
                    detail: format!(
                        "{name}: {} {} after commit of v{}",
                        line.addr,
                        line.describe(),
                        committed.0
                    ),
                });
            }
        };

        for (name, cache) in self.caches_for_scan() {
            for set_idx in 0..cache.config().num_sets() {
                for stored in cache.set_metas(set_idx) {
                    let mut processed = *stored;
                    if processed.commit_epoch < cache.commit_epoch()
                        && B::apply_commit(&mut processed, cache.lc_vid()) == Outcome::Invalidate
                    {
                        continue;
                    }
                    commit_safety(&name, &processed);
                    per_addr
                        .entry(processed.addr)
                        .or_default()
                        .push((name.clone(), processed.state));
                }
            }
        }
        for line in self.overflow_lines() {
            commit_safety("overflow", &line.meta);
        }

        if self.abort_seen() {
            for (addr, versions) in &per_addr {
                let exclusive = versions
                    .iter()
                    .filter(|(_, s)| *s == LineState::Exclusive)
                    .count();
                let nonspec = versions
                    .iter()
                    .filter(|(_, s)| !s.is_speculative())
                    .count();
                if exclusive >= 1 && nonspec > 1 {
                    violations.push(Violation {
                        rule: "no duplicate Exclusive after abort",
                        detail: format!("{addr}: {versions:?}"),
                    });
                }
            }
        }
        violations
    }
}

fn hits(state: LineState, m: Vid, h: Vid, a: Vid) -> bool {
    match state {
        LineState::Modified | LineState::Owned | LineState::Exclusive | LineState::Shared => true,
        LineState::SpecModified | LineState::SpecExclusive => a >= m,
        LineState::SpecOwned | LineState::SpecShared => m <= a && a < h,
    }
}

#[cfg(test)]
mod tests {
    use crate::protocol::{AccessKind, AccessRequest, AccessResponse, MemorySystem};
    use hmtx_types::{Addr, CoreId, MachineConfig, Vid};

    fn drive(mem: &mut MemorySystem, t: u64, core: usize, addr: u64, vid: u16, w: Option<u64>) {
        let req = AccessRequest {
            core: CoreId(core),
            addr: Addr(addr),
            kind: match w {
                Some(v) => AccessKind::Write(v),
                None => AccessKind::Read,
            },
            vid: Vid(vid),
            wrong_path: false,
        };
        match mem.access(t, &req).unwrap() {
            AccessResponse::Done { .. } => {}
            AccessResponse::Misspec { .. } => {
                mem.abort_all(t);
            }
        }
    }

    #[test]
    fn healthy_after_figure5_sequence() {
        let mut mem = MemorySystem::new(MachineConfig::test_default());
        drive(&mut mem, 0, 0, 0x40, 0, None);
        drive(&mut mem, 1, 0, 0x40, 1, None);
        drive(&mut mem, 2, 0, 0x40, 1, Some(111));
        drive(&mut mem, 3, 0, 0x40, 2, None);
        drive(&mut mem, 4, 0, 0x40, 2, Some(222));
        drive(&mut mem, 5, 1, 0x40, 1, None);
        assert_eq!(mem.check_invariants(), vec![]);
        mem.commit(10, Vid(1)).unwrap();
        assert_eq!(mem.check_invariants(), vec![]);
        mem.commit(11, Vid(2)).unwrap();
        assert_eq!(mem.check_invariants(), vec![]);
    }

    #[test]
    fn healthy_across_sharing_and_migration() {
        let mut mem = MemorySystem::new(MachineConfig::test_default());
        for core in 0..4 {
            drive(&mut mem, core as u64 * 10, core, 0x200, 0, None);
        }
        assert_eq!(mem.check_invariants(), vec![]);
        drive(&mut mem, 100, 2, 0x200, 0, Some(5));
        assert_eq!(mem.check_invariants(), vec![]);
        for core in 0..4 {
            drive(&mut mem, 200 + core as u64 * 10, core, 0x200, 3, None);
        }
        assert_eq!(mem.check_invariants(), vec![]);
    }

    #[test]
    fn healthy_after_abort() {
        let mut mem = MemorySystem::new(MachineConfig::test_default());
        drive(&mut mem, 0, 0, 0x300, 1, Some(1));
        drive(&mut mem, 1, 1, 0x300, 2, Some(2));
        drive(&mut mem, 2, 2, 0x340, 3, Some(3));
        mem.abort_all(10);
        assert_eq!(mem.check_invariants(), vec![]);
    }

    // -----------------------------------------------------------------------
    // Negative coverage: every invariant rule, planted directly into an L1
    // (the protocol itself never produces these states, so the scanner is
    // the only line of defense).
    // -----------------------------------------------------------------------

    use hmtx_mem::{CacheLine, LineData, LineMeta, LineState};
    use hmtx_types::LineAddr;

    /// Plants a raw line version into `core`'s L1, bypassing the protocol.
    fn plant(mem: &mut MemorySystem, core: usize, addr: u64, state: LineState, m: u16, h: u16) {
        let addr = LineAddr(addr);
        let epoch = mem.l1_mut(core).commit_epoch();
        let line = CacheLine {
            meta: LineMeta {
                addr,
                state,
                mod_vid: Vid(m),
                high_vid: Vid(h),
                phantom_high: Vid(0),
                shared_hint: false,
                commit_epoch: epoch,
                last_used: 0,
            },
            data: LineData::zeroed(),
        };
        mem.l1_mut(core).plant(line);
    }

    #[track_caller]
    fn expect_rule(mem: &MemorySystem, rule: &str) {
        let violations = mem.check_invariants();
        assert!(
            violations.iter().any(|v| v.rule == rule),
            "expected violation of `{rule}`, got {violations:?}"
        );
    }

    #[test]
    fn violation_mod_vid_above_high_vid() {
        let mut mem = MemorySystem::new(MachineConfig::test_default());
        plant(&mut mem, 0, 0x10, LineState::SpecOwned, 3, 1);
        let violations = mem.check_invariants();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "modVID <= highVID");
        assert!(violations[0].detail.contains("L1[0]"), "{violations:?}");
    }

    #[test]
    fn violation_spec_exclusive_with_nonzero_mod_vid() {
        let mut mem = MemorySystem::new(MachineConfig::test_default());
        plant(&mut mem, 1, 0x10, LineState::SpecExclusive, 2, 5);
        let violations = mem.check_invariants();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "S-E implies modVID == 0");
        assert!(violations[0].detail.contains("L1[1]"), "{violations:?}");
    }

    #[test]
    fn violation_two_responders_hit_one_vid() {
        let mut mem = MemorySystem::new(MachineConfig::test_default());
        // M responds and hits every VID; S-M responds and hits every a >= 1,
        // so they collide on VIDs 1.. without tripping the writable, S-M
        // uniqueness, or dirty-owner rules.
        plant(&mut mem, 0, 0x10, LineState::Modified, 0, 0);
        plant(&mut mem, 1, 0x10, LineState::SpecModified, 1, 1);
        let violations = mem.check_invariants();
        assert!(
            violations
                .iter()
                .all(|v| v.rule == "at most one responding version hits per VID"),
            "{violations:?}"
        );
        assert!(!violations.is_empty());
    }

    #[test]
    fn violation_two_writable_copies() {
        let mut mem = MemorySystem::new(MachineConfig::test_default());
        plant(&mut mem, 0, 0x10, LineState::Modified, 0, 0);
        plant(&mut mem, 1, 0x10, LineState::Exclusive, 0, 0);
        expect_rule(&mem, "at most one writable non-speculative copy");
    }

    #[test]
    fn violation_two_live_spec_modified() {
        let mut mem = MemorySystem::new(MachineConfig::test_default());
        plant(&mut mem, 0, 0x10, LineState::SpecModified, 2, 2);
        plant(&mut mem, 1, 0x10, LineState::SpecModified, 2, 2);
        expect_rule(&mem, "at most one S-M version per address");
    }

    #[test]
    fn per_address_violations_are_reported_in_address_order() {
        // Planted in descending address order, so neither insertion order
        // nor a hash seed can produce the ascending order asserted below.
        let lines = [0x90u64, 0x50, 0x31, 0x10];
        let mut mem = MemorySystem::new(MachineConfig::test_default());
        let mut aborted = MemorySystem::new(MachineConfig::test_default());
        aborted.abort_all(1);
        for &addr in &lines {
            plant(&mut mem, 0, addr, LineState::SpecModified, 2, 2);
            plant(&mut mem, 1, addr, LineState::SpecModified, 2, 2);
            plant(&mut aborted, 0, addr, LineState::Exclusive, 0, 0);
            plant(&mut aborted, 1, addr, LineState::Shared, 0, 0);
        }
        let prefixes = |violations: Vec<super::Violation>, rule: &str| -> Vec<String> {
            violations
                .into_iter()
                .filter(|v| v.rule == rule)
                .map(|v| v.detail.split(':').next().unwrap().to_string())
                .collect()
        };
        let sorted: Vec<String> = lines
            .iter()
            .rev()
            .map(|&a| format!("{}", LineAddr(a)))
            .collect();
        let sm = "at most one S-M version per address";
        assert_eq!(prefixes(mem.check_invariants(), sm), sorted);
        let exclusive = "no duplicate Exclusive after abort";
        assert_eq!(
            prefixes(aborted.check_model_invariants(), exclusive),
            sorted
        );
    }

    #[test]
    fn violation_two_dirty_nonspeculative_owners() {
        let mut mem = MemorySystem::new(MachineConfig::test_default());
        plant(&mut mem, 0, 0x10, LineState::Modified, 0, 0);
        plant(&mut mem, 1, 0x10, LineState::Owned, 0, 0);
        expect_rule(&mem, "at most one dirty non-speculative owner");
    }

    // ---- model-checker extended rules ----

    #[track_caller]
    fn expect_model_rule(mem: &MemorySystem, rule: &str) {
        let violations = mem.check_model_invariants();
        assert!(
            violations.iter().any(|v| v.rule == rule),
            "expected model violation of `{rule}`, got {violations:?}"
        );
    }

    #[test]
    fn model_violation_stale_speculative_mod_vid_after_commit() {
        let mut mem = MemorySystem::new(MachineConfig::test_default());
        mem.commit(1, Vid(1)).unwrap();
        plant(&mut mem, 0, 0x10, LineState::SpecModified, 1, 2);
        expect_model_rule(&mem, "committed modVID never stays speculative");
    }

    #[test]
    fn model_violation_superseded_version_survives_commit() {
        let mut mem = MemorySystem::new(MachineConfig::test_default());
        mem.commit(1, Vid(1)).unwrap();
        plant(&mut mem, 1, 0x10, LineState::SpecOwned, 0, 1);
        expect_model_rule(&mem, "committed modVID never stays speculative");
    }

    #[test]
    fn model_future_versions_survive_commit_cleanly() {
        let mut mem = MemorySystem::new(MachineConfig::test_default());
        mem.commit(1, Vid(1)).unwrap();
        plant(&mut mem, 0, 0x10, LineState::SpecModified, 2, 2);
        plant(&mut mem, 1, 0x50, LineState::SpecOwned, 0, 3);
        assert_eq!(mem.check_model_invariants(), vec![]);
    }

    #[test]
    fn model_violation_duplicate_exclusive_after_abort() {
        let mut mem = MemorySystem::new(MachineConfig::test_default());
        mem.abort_all(1);
        plant(&mut mem, 0, 0x10, LineState::Exclusive, 0, 0);
        plant(&mut mem, 1, 0x10, LineState::Shared, 0, 0);
        expect_model_rule(&mem, "no duplicate Exclusive after abort");
    }

    #[test]
    fn model_exclusive_rule_is_gated_on_abort() {
        // The same planted state without a preceding abort is judged only
        // by the six base rules (which it does not violate), so the model
        // rule stays quiet — it is specifically the post-Figure-7 scan.
        let mut mem = MemorySystem::new(MachineConfig::test_default());
        plant(&mut mem, 0, 0x10, LineState::Exclusive, 0, 0);
        plant(&mut mem, 1, 0x10, LineState::Shared, 0, 0);
        assert_eq!(mem.check_model_invariants(), vec![]);
    }

    #[test]
    fn planted_healthy_line_stays_clean() {
        let mut mem = MemorySystem::new(MachineConfig::test_default());
        plant(&mut mem, 0, 0x10, LineState::Modified, 0, 0);
        plant(&mut mem, 1, 0x20, LineState::Owned, 0, 0);
        plant(&mut mem, 2, 0x20, LineState::Shared, 0, 0);
        assert_eq!(mem.check_invariants(), vec![]);
    }
}
