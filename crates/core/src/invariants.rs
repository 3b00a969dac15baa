//! Whole-system protocol invariant checking.
//!
//! The §4.1 design argument rests on a handful of global invariants ("a
//! request incoming to a cache knows if it should hit, miss, or trigger
//! misspeculation solely by using the coherent state of each line"). This
//! module makes them executable: [`MemorySystem::check_invariants`] scans
//! every cache and returns every violation found. Property tests and
//! integration tests call it after every phase of random executions.
//!
//! Every check is one scan: a single pass over the served versions, then
//! the per-address rules over the same version list, sorted by address.
//! [`MemorySystem::first_violation`] stops that scan at its first
//! violation and renders only that one; the model checker runs it after
//! every op of every state it explores, and nearly every scan is clean, so
//! it reuses one per-thread version list and allocates nothing. Caches are
//! scanned by position and named (`L1[i]`, `L2`) only inside a violation's
//! `detail`. [`MemorySystem::check_invariants`] and
//! [`MemorySystem::check_model_invariants`] collect every violation of the
//! same scan.

use std::cell::RefCell;
use std::ops::ControlFlow;

use hmtx_mem::{LineMeta, LineState};
use hmtx_types::{LineAddr, Vid};

use crate::protocol::MemorySystem;
use crate::transitions::{self, Outcome};

/// One violated invariant (all fields are pre-rendered for reporting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant failed.
    pub rule: &'static str,
    /// Human-readable details (line address, states involved).
    pub detail: String,
}

/// The rule families a scan judges, in precedence order: protocol rules
/// come before model rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rules {
    /// The six protocol invariants of [`MemorySystem::check_invariants`].
    Protocol,
    /// The extended rules of [`MemorySystem::check_model_invariants`].
    Model,
    /// Both families: the model checker's strict discipline.
    Strict,
}

/// One served version, as the per-address rules judge it; `cache` is the
/// position of its cache in [`MemorySystem::caches`].
#[derive(Debug, Clone, Copy)]
struct Version {
    addr: LineAddr,
    cache: usize,
    state: LineState,
    mod_vid: Vid,
    high_vid: Vid,
}

impl Version {
    fn new(cache: usize, line: &LineMeta) -> Self {
        Version {
            addr: line.addr,
            cache,
            state: line.state,
            mod_vid: line.mod_vid,
            high_vid: line.high_vid,
        }
    }

    /// The closed interval of request VIDs in `0..=max` this version hits
    /// as a snoop responder (`None` if it stays silent or hits none):
    /// every VID for a non-speculative owner, `[modVID, max]` for `S-M`
    /// and `S-E`, `[modVID, highVID - 1]` for `S-O`.
    fn hit_interval(&self, max: u16) -> Option<(u16, u16)> {
        let (lo, hi) = match self.state {
            LineState::Shared | LineState::SpecShared => return None,
            LineState::Modified | LineState::Owned | LineState::Exclusive => (0, max),
            LineState::SpecModified | LineState::SpecExclusive => (self.mod_vid.0, max),
            LineState::SpecOwned => (self.mod_vid.0, self.high_vid.0.checked_sub(1)?.min(max)),
        };
        (lo <= hi).then_some((lo, hi))
    }
}

/// The buffers of one scan, kept per thread so that a clean scan
/// allocates nothing once they have grown.
#[derive(Default)]
struct Scratch {
    /// Served versions, in scan order until sorted by address.
    versions: Vec<Version>,
    /// Served versions the commit-safety rule flags, in scan order.
    stale: Vec<(usize, LineMeta)>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Whether `line` breaks commit safety once `committed` has committed.
fn is_stale(line: &LineMeta, committed: Vid) -> bool {
    let superseded = matches!(line.state, LineState::SpecOwned | LineState::SpecShared)
        && line.high_vid <= committed;
    let stale_mod =
        line.state.is_speculative() && line.mod_vid.is_speculative() && line.mod_vid <= committed;
    superseded || stale_mod
}

impl MemorySystem {
    /// Calls `f(cache, line)` for every stored version as the protocol
    /// would serve it, in cache, set and way order, until `f` breaks:
    /// pending lazy commit processing (§5.3) is applied to a snapshot
    /// first, and versions it invalidates are skipped — committed-but-
    /// unprocessed versions are exactly the paper's set-CB-bit state and
    /// are never served. `cache` is the position in [`Self::caches`].
    fn try_for_each_served_line(
        &self,
        mut f: impl FnMut(usize, &LineMeta) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        for (idx, cache) in self.caches().enumerate() {
            for set_idx in 0..cache.num_sets() {
                for stored in cache.set_metas(set_idx) {
                    let mut processed = *stored;
                    if processed.commit_epoch < cache.commit_epoch()
                        && transitions::apply_commit(&mut processed, cache.lc_vid())
                            == Outcome::Invalidate
                    {
                        continue;
                    }
                    f(idx, &processed)?;
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Versions as a violation's detail prints them:
    /// `(cache name, state, modVID, highVID)` each.
    fn named<'a>(
        &self,
        versions: impl IntoIterator<Item = &'a Version>,
    ) -> Vec<(String, LineState, Vid, Vid)> {
        versions
            .into_iter()
            .map(|v| (self.cache_name(v.cache), v.state, v.mod_vid, v.high_vid))
            .collect()
    }

    /// The one scan behind every check: judges `rules` and passes each
    /// violation, rendered, to `emit` in precedence order until `emit`
    /// breaks. Protocol rules come first: the per-version rules (1)–(2) in
    /// scan order, then, per address in address order, rule (3) per
    /// request VID and rules (4)–(6). Model rules follow: commit safety on
    /// served versions in scan order and then on the overflow table, then
    /// the duplicate-Exclusive rule per address.
    fn scan(
        &self,
        rules: Rules,
        scratch: &mut Scratch,
        mut emit: impl FnMut(Violation) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let protocol = rules != Rules::Model;
        let model = rules != Rules::Protocol;
        let committed = self.last_committed();
        let abort_seen = model && self.abort_seen();
        let keep_versions = protocol || abort_seen;
        let Scratch { versions, stale } = scratch;
        versions.clear();
        stale.clear();

        self.try_for_each_served_line(|cache, line| {
            if protocol {
                let mut report = |rule| {
                    emit(Violation {
                        rule,
                        detail: format!(
                            "{}: {} {}",
                            self.cache_name(cache),
                            line.addr,
                            line.describe()
                        ),
                    })
                };
                if line.mod_vid > line.high_vid {
                    report("modVID <= highVID")?;
                }
                if line.state == LineState::SpecExclusive && line.mod_vid.is_speculative() {
                    report("S-E implies modVID == 0")?;
                }
            }
            if model && is_stale(line, committed) {
                stale.push((cache, *line));
            }
            if keep_versions {
                versions.push(Version::new(cache, line));
            }
            ControlFlow::Continue(())
        })?;
        // Stable: within an address, versions stay in scan order, so which
        // violation comes first never depends on a hash seed.
        versions.sort_by_key(|v| v.addr);
        let by_address = || versions.chunk_by(|a, b| a.addr == b.addr);

        if protocol {
            let max_vid = self.config().hmtx.max_vid().0;
            for group in by_address() {
                let addr = group[0].addr;
                // (3) hit uniqueness among responders, for every possible
                // VID. Two responders share a hit VID exactly when their
                // hit intervals intersect; only then are VIDs enumerated,
                // to report each shared VID with all of its hitters.
                let hits = |v: &Version, a: u16| {
                    v.hit_interval(max_vid)
                        .is_some_and(|(lo, hi)| lo <= a && a <= hi)
                };
                let overlap = group.iter().enumerate().any(|(i, x)| {
                    x.hit_interval(max_vid).is_some_and(|(lo, hi)| {
                        group[i + 1..].iter().any(|y| {
                            y.hit_interval(max_vid)
                                .is_some_and(|(ylo, yhi)| lo.max(ylo) <= hi.min(yhi))
                        })
                    })
                });
                if overlap {
                    for a in 0..=max_vid {
                        if group.iter().filter(|v| hits(v, a)).count() > 1 {
                            let hitters = self.named(group.iter().filter(|v| hits(v, a)));
                            emit(Violation {
                                rule: "at most one responding version hits per VID",
                                detail: format!("{addr} vid {}: {hitters:?}", Vid(a)),
                            })?;
                        }
                    }
                }
                let count =
                    |pred: fn(LineState) -> bool| group.iter().filter(|v| pred(v.state)).count();
                for (rule, count) in [
                    // (4) single writable non-speculative copy.
                    (
                        "at most one writable non-speculative copy",
                        count(LineState::is_writable),
                    ),
                    // (5) single live S-M.
                    (
                        "at most one S-M version per address",
                        count(|s| s == LineState::SpecModified),
                    ),
                    // (6) single dirty non-speculative owner.
                    (
                        "at most one dirty non-speculative owner",
                        count(|s| matches!(s, LineState::Modified | LineState::Owned)),
                    ),
                ] {
                    if count > 1 {
                        emit(Violation {
                            rule,
                            detail: format!("{addr}: {:?}", self.named(group)),
                        })?;
                    }
                }
            }
        }

        if model {
            let commit_safety = |name: &str, line: &LineMeta| Violation {
                rule: "committed modVID never stays speculative",
                detail: format!(
                    "{name}: {} {} after commit of v{}",
                    line.addr,
                    line.describe(),
                    committed.0
                ),
            };
            for (cache, line) in stale.iter() {
                emit(commit_safety(&self.cache_name(*cache), line))?;
            }
            for line in self.overflow_lines() {
                if is_stale(&line.meta, committed) {
                    emit(commit_safety("overflow", &line.meta))?;
                }
            }
            if abort_seen {
                for group in by_address() {
                    let exclusive = group.iter().any(|v| v.state == LineState::Exclusive);
                    let nonspec = group.iter().filter(|v| !v.state.is_speculative()).count();
                    if exclusive && nonspec > 1 {
                        let named: Vec<(String, LineState)> = group
                            .iter()
                            .map(|v| (self.cache_name(v.cache), v.state))
                            .collect();
                        emit(Violation {
                            rule: "no duplicate Exclusive after abort",
                            detail: format!("{}: {named:?}", group[0].addr),
                        })?;
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Every violation of `rules`, in precedence order.
    fn collect_violations(&self, rules: Rules) -> Vec<Violation> {
        let mut violations = Vec::new();
        let _ = self.scan(rules, &mut Scratch::default(), |v| {
            violations.push(v);
            ControlFlow::Continue(())
        });
        violations
    }

    /// The first violation of `rules` — exactly the first element of
    /// [`Self::check_invariants`] for [`Rules::Protocol`], of
    /// [`Self::check_model_invariants`] for [`Rules::Model`], and for
    /// [`Rules::Strict`] the first protocol violation or else the first
    /// model violation. The scan stops there and renders only that one; a
    /// clean scan allocates nothing once this thread's buffers have grown.
    pub fn first_violation(&self, rules: Rules) -> Option<Violation> {
        let mut first = None;
        SCRATCH.with(|scratch| {
            let _ = self.scan(rules, &mut scratch.borrow_mut(), |v| {
                first = Some(v);
                ControlFlow::Break(())
            });
        });
        first
    }

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
    /// Returns all violations (empty = healthy): rules (1)–(2) in scan
    /// order, then rules (3)–(6) per address in address order. The scan
    /// judges each line *as the protocol would serve it*: pending lazy
    /// commit processing (§5.3) is applied to a snapshot first, since
    /// committed-but-unprocessed versions are never served. This is a
    /// diagnostic scan with no timing model; run it at quiescent points
    /// (between accesses).
    pub fn check_invariants(&self) -> Vec<Violation> {
        self.collect_violations(Rules::Protocol)
    }

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
    ///    The abort-coherence bug class (Figure 7 restoring forwarding
    ///    replicas in isolation) manifests first as `E` coexisting with
    ///    `S` — the state from which a later speculative upgrade mints the
    ///    second Exclusive head.
    ///
    /// Lines are judged exactly as in [`Self::check_invariants`]: pending
    /// lazy commit processing is applied to a snapshot first, and the §8
    /// overflow table (processed eagerly at commit) is included in the
    /// commit-safety scan.
    pub fn check_model_invariants(&self) -> Vec<Violation> {
        self.collect_violations(Rules::Model)
    }
}

#[cfg(test)]
mod tests {
    use super::Rules;
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

    use hmtx_mem::{Cache, CacheLine, LineData, LineMeta, LineState};
    use hmtx_types::LineAddr;

    /// A raw line version for `cache`, bypassing the protocol; with
    /// `pending`, its lazy commit processing (§5.3) is left undone.
    fn version(
        cache: &Cache,
        addr: u64,
        state: LineState,
        m: u16,
        h: u16,
        pending: bool,
    ) -> CacheLine {
        CacheLine {
            meta: LineMeta {
                addr: LineAddr(addr),
                state,
                mod_vid: Vid(m),
                high_vid: Vid(h),
                phantom_high: Vid(0),
                shared_hint: false,
                commit_epoch: cache.commit_epoch() - u64::from(pending),
                last_used: 0,
            },
            data: LineData::zeroed(),
        }
    }

    /// Plants a raw line version into `core`'s L1, bypassing the protocol.
    fn plant(mem: &mut MemorySystem, core: usize, addr: u64, state: LineState, m: u16, h: u16) {
        let line = version(mem.l1_mut(core), addr, state, m, h, false);
        mem.l1_mut(core).plant(line);
    }

    /// The first-violation scan returns exactly the first element of the
    /// collected scans, protocol rules ahead of model rules.
    #[track_caller]
    fn assert_first_violations_match(mem: &MemorySystem) {
        let protocol = mem.check_invariants().first().cloned();
        let model = mem.check_model_invariants().first().cloned();
        assert_eq!(mem.first_violation(Rules::Protocol), protocol);
        assert_eq!(mem.first_violation(Rules::Model), model);
        assert_eq!(mem.first_violation(Rules::Strict), protocol.or(model));
    }

    #[track_caller]
    fn expect_rule(mem: &MemorySystem, rule: &str) {
        let violations = mem.check_invariants();
        assert!(
            violations.iter().any(|v| v.rule == rule),
            "expected violation of `{rule}`, got {violations:?}"
        );
        assert_first_violations_match(mem);
    }

    #[test]
    fn violation_mod_vid_above_high_vid() {
        let mut mem = MemorySystem::new(MachineConfig::test_default());
        plant(&mut mem, 0, 0x10, LineState::SpecOwned, 3, 1);
        let violations = mem.check_invariants();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "modVID <= highVID");
        assert!(violations[0].detail.contains("L1[0]"), "{violations:?}");
        assert_first_violations_match(&mem);
    }

    #[test]
    fn violation_spec_exclusive_with_nonzero_mod_vid() {
        let mut mem = MemorySystem::new(MachineConfig::test_default());
        plant(&mut mem, 1, 0x10, LineState::SpecExclusive, 2, 5);
        let violations = mem.check_invariants();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "S-E implies modVID == 0");
        assert!(violations[0].detail.contains("L1[1]"), "{violations:?}");
        assert_first_violations_match(&mem);
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
        assert_first_violations_match(&mem);
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
        assert_first_violations_match(&mem);
        assert_first_violations_match(&aborted);
    }

    #[test]
    fn first_violation_puts_protocol_rules_ahead_of_model_rules() {
        // A stale speculative version (a model rule) in the first cache
        // scanned, and two live S-M versions of a later address (per-address
        // protocol rules) behind it: the protocol rules win, rule (3) first.
        let mut mem = MemorySystem::new(MachineConfig::test_default());
        mem.commit(1, Vid(1)).unwrap();
        plant(&mut mem, 0, 0x10, LineState::SpecModified, 1, 2);
        plant(&mut mem, 1, 0x50, LineState::SpecModified, 2, 2);
        plant(&mut mem, 2, 0x50, LineState::SpecModified, 2, 2);
        let first = mem
            .first_violation(Rules::Strict)
            .expect("both families fail");
        assert_eq!(first.rule, "at most one responding version hits per VID");
        assert_eq!(
            mem.first_violation(Rules::Model).map(|v| v.rule),
            Some("committed modVID never stays speculative")
        );
        assert_first_violations_match(&mem);
        // Clean scans find nothing in any family.
        let clean = MemorySystem::new(MachineConfig::test_default());
        for rules in [Rules::Protocol, Rules::Model, Rules::Strict] {
            assert_eq!(clean.first_violation(rules), None);
        }
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
        assert_first_violations_match(mem);
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
        assert_first_violations_match(&mem);
    }

    // ---- differential: the scans against their per-VID form ----
    //
    // The form the scans had before the interval test for rule 3 and the
    // flat version list: every cache named up front, versions grouped per
    // address in a `BTreeMap`, and rule 3 tested once per request VID.

    use std::collections::BTreeMap;

    use crate::invariants::Violation;
    use crate::transitions::{self, Outcome};

    fn named_caches(mem: &MemorySystem) -> Vec<(String, &Cache)> {
        mem.caches()
            .enumerate()
            .map(|(i, c)| {
                let name = if i < mem.config().num_cores {
                    format!("L1[{i}]")
                } else {
                    "L2".to_string()
                };
                (name, c)
            })
            .collect()
    }

    /// The served versions of every cache, as `(name, line)` in scan order.
    fn served(mem: &MemorySystem) -> Vec<(String, LineMeta)> {
        let mut out = Vec::new();
        for (name, cache) in named_caches(mem) {
            for set_idx in 0..cache.num_sets() {
                for stored in cache.set_metas(set_idx) {
                    let mut processed = *stored;
                    if processed.commit_epoch < cache.commit_epoch()
                        && transitions::apply_commit(&mut processed, cache.lc_vid())
                            == Outcome::Invalidate
                    {
                        continue;
                    }
                    out.push((name.clone(), processed));
                }
            }
        }
        out
    }

    fn hits(state: LineState, m: Vid, h: Vid, a: Vid) -> bool {
        match state {
            LineState::Modified | LineState::Owned | LineState::Exclusive | LineState::Shared => {
                true
            }
            LineState::SpecModified | LineState::SpecExclusive => a >= m,
            LineState::SpecOwned | LineState::SpecShared => m <= a && a < h,
        }
    }

    fn reference_check_invariants(mem: &MemorySystem) -> Vec<Violation> {
        let mut violations = Vec::new();
        let mut per_addr: BTreeMap<LineAddr, Vec<(String, LineState, Vid, Vid)>> = BTreeMap::new();
        for (name, line) in served(mem) {
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
                name,
                line.state,
                line.mod_vid,
                line.high_vid,
            ));
        }
        let max_vid = mem.config().hmtx.max_vid().0;
        for (addr, versions) in &per_addr {
            for a in 0..=max_vid {
                let a = Vid(a);
                let hitters: Vec<_> = versions
                    .iter()
                    .filter(|(_, state, m, h)| {
                        state.responds_to_snoops() && hits(*state, *m, *h, a)
                    })
                    .collect();
                if hitters.len() > 1 {
                    violations.push(Violation {
                        rule: "at most one responding version hits per VID",
                        detail: format!("{addr} vid {a}: {hitters:?}"),
                    });
                }
            }
            let count = |pred: &dyn Fn(LineState) -> bool| {
                versions.iter().filter(|(_, s, _, _)| pred(*s)).count()
            };
            let rules: [(&'static str, usize); 3] = [
                (
                    "at most one writable non-speculative copy",
                    count(&|s| s.is_writable()),
                ),
                (
                    "at most one S-M version per address",
                    count(&|s| s == LineState::SpecModified),
                ),
                (
                    "at most one dirty non-speculative owner",
                    count(&|s| matches!(s, LineState::Modified | LineState::Owned)),
                ),
            ];
            for (rule, n) in rules {
                if n > 1 {
                    violations.push(Violation {
                        rule,
                        detail: format!("{addr}: {versions:?}"),
                    });
                }
            }
        }
        violations
    }

    fn reference_check_model_invariants(mem: &MemorySystem) -> Vec<Violation> {
        let mut violations = Vec::new();
        let committed = mem.last_committed();
        let mut per_addr: BTreeMap<LineAddr, Vec<(String, LineState)>> = BTreeMap::new();
        let mut commit_safety = |name: &str, line: &LineMeta| {
            let superseded = matches!(line.state, LineState::SpecOwned | LineState::SpecShared)
                && line.high_vid <= committed;
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
        for (name, line) in served(mem) {
            commit_safety(&name, &line);
            per_addr
                .entry(line.addr)
                .or_default()
                .push((name, line.state));
        }
        for line in mem.overflow_lines() {
            commit_safety("overflow", &line.meta);
        }
        if mem.abort_seen() {
            for (addr, versions) in &per_addr {
                let exclusive = versions
                    .iter()
                    .filter(|(_, s)| *s == LineState::Exclusive)
                    .count();
                let nonspec = versions.iter().filter(|(_, s)| !s.is_speculative()).count();
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

    #[test]
    fn scans_match_the_per_vid_reference_on_random_version_sets() {
        const STATES: [LineState; 8] = [
            LineState::Modified,
            LineState::Owned,
            LineState::Exclusive,
            LineState::Shared,
            LineState::SpecModified,
            LineState::SpecOwned,
            LineState::SpecExclusive,
            LineState::SpecShared,
        ];
        let rule3 = "at most one responding version hits per VID";
        let (mut overlapping, mut disjoint) = (0, 0);
        for vid_bits in [2u32, 3, 6, 12] {
            for seed in 1..=400u64 {
                let mut rng =
                    ((seed << 4) | u64::from(vid_bits)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut next = move || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                let mut cfg = MachineConfig::test_default();
                cfg.hmtx.vid_bits = vid_bits;
                let cores = cfg.num_cores;
                let mut mem = MemorySystem::new(cfg);
                if next() % 3 == 0 {
                    mem.abort_all(1);
                }
                for c in 0..next() % 3 {
                    mem.commit(2, Vid(c as u16 + 1)).unwrap();
                }
                let max = mem.config().hmtx.max_vid().0;
                // Edge VIDs, small VIDs and the whole range, `m > h` included.
                let vid = |r: u64| match r % 4 {
                    0 => 0,
                    1 => max - (r / 4 % 2) as u16,
                    2 => (r / 4 % 4) as u16,
                    _ => (r / 4 % (u64::from(max) + 1)) as u16,
                };
                let mut responders: BTreeMap<u64, usize> = BTreeMap::new();
                for _ in 0..next() % 12 {
                    let addr = [0x10, 0x50, 0x11][(next() % 3) as usize];
                    // Every other seed plants speculative versions only,
                    // whose hit intervals are often disjoint.
                    let state = STATES[((next() % 8) | ((seed % 2) << 2)) as usize];
                    let (m, h) = (vid(next()), vid(next()));
                    let at = (next() % (cores as u64 + 1)) as usize;
                    let pending = next() % 4 == 0;
                    let cache = if at < cores {
                        mem.l1_mut(at)
                    } else {
                        mem.l2_mut()
                    };
                    let full = cache.set_metas(cache.set_index(LineAddr(addr))).len()
                        == cache.config().ways;
                    if full || (pending && cache.commit_epoch() == 0) {
                        continue;
                    }
                    cache.plant(version(cache, addr, state, m, h, pending));
                    if !pending && state.responds_to_snoops() {
                        *responders.entry(addr).or_default() += 1;
                    }
                }
                let ctx = format!("vid_bits {vid_bits} seed {seed}");
                let violations = mem.check_invariants();
                assert_eq!(violations, reference_check_invariants(&mem), "{ctx}");
                assert_eq!(
                    mem.check_model_invariants(),
                    reference_check_model_invariants(&mem),
                    "{ctx}"
                );
                assert_first_violations_match(&mem);
                if violations.iter().any(|v| v.rule == rule3) {
                    overlapping += 1;
                } else if responders.values().any(|&n| n > 1) {
                    disjoint += 1;
                }
            }
        }
        // Both sides of the interval test are exercised.
        assert!(
            overlapping > 100 && disjoint > 50,
            "{overlapping} {disjoint}"
        );
    }
}
