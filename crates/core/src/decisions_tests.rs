//! Exhaustive decision tables for [`crate::decisions`].
//!
//! Each rule is checked against its own transcription of DESIGN.md §3 and
//! docs/PROTOCOL.md §2–4, written below in the documents' terms (state
//! names as the paper prints them), over every state × every `(m, h)` with
//! `m ≤ h` × every request VID at `vid_bits` 3, for reads, writes and
//! wrong-path reads; fills and peer supply run over every peer-set shape of
//! up to three caches.

use hmtx_mem::{LineMeta, LineState};
use hmtx_types::{Addr, CoreId, LineAddr, Vid};

use crate::decisions::{self, Read, Snoop, Supply, Victim, Write};
use crate::protocol::{AccessKind, AccessRequest, MisspecCause};
use crate::transitions::version_hits;

/// The largest VID at `vid_bits` 3.
const MAX_VID: u16 = 7;

const LINE: LineAddr = LineAddr(5);

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

fn version(state: LineState, m: u16, h: u16) -> LineMeta {
    LineMeta {
        state,
        mod_vid: Vid(m),
        high_vid: Vid(h),
        commit_epoch: 3,
        last_used: 9,
        ..LineMeta::non_speculative(LINE, LineState::Exclusive)
    }
}

/// Every version: each state with every `(m, h)`, `m ≤ h ≤ 7`, with and
/// without `shared_hint`.
fn versions() -> impl Iterator<Item = LineMeta> {
    STATES.into_iter().flat_map(|state| {
        (0..=MAX_VID).flat_map(move |h| {
            (0..=h).flat_map(move |m| {
                [false, true].map(|shared_hint| LineMeta {
                    shared_hint,
                    ..version(state, m, h)
                })
            })
        })
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Write,
    WrongPathRead,
}

const KINDS: [Kind; 3] = [Kind::Read, Kind::Write, Kind::WrongPathRead];

fn request(kind: Kind, a: u16) -> AccessRequest {
    AccessRequest {
        core: CoreId(0),
        addr: Addr(LINE.base().0 + 16),
        kind: match kind {
            Kind::Write => AccessKind::Write(0xfeed),
            Kind::Read | Kind::WrongPathRead => AccessKind::Read,
        },
        vid: Vid(a),
        wrong_path: kind == Kind::WrongPathRead,
    }
}

/// The paper's name for a state: `M`, `O`, `E`, `S`, `S-M`, ...
fn name(state: LineState) -> String {
    state.to_string()
}

fn is(state: LineState, names: &[&str]) -> bool {
    names.contains(&name(state).as_str())
}

/// Whether the request needs an exclusive copy (PROTOCOL.md §2 step 4:
/// "speculative accesses and writes need an exclusive copy"; wrong-path
/// loads mark nothing).
fn exclusive(kind: Kind, a: u16) -> bool {
    kind == Kind::Write || (kind == Kind::Read && a > 0)
}

// ------------------------------------------------------------- local hits

/// PROTOCOL.md §2 "Reads", DESIGN.md §3, transcribed.
fn expected_read(wrong_path: bool, a: u16) -> Read {
    if wrong_path {
        // "data moves, nothing is marked".
        Read::Peek
    } else if a == 0 {
        Read::Plain
    } else {
        Read::Mark
    }
}

/// PROTOCOL.md §2 "Writes", DESIGN.md §3, transcribed.
fn expected_write(v: &LineMeta, y: u16) -> Write {
    let (m, h) = (v.mod_vid.0, v.high_vid.0);
    let addr = LINE.base();
    let o_or_s = is(v.state, &["O", "S"]);
    let latest = is(v.state, &["S-M", "S-E"]);
    if y == 0 {
        // A non-speculative write to a line a live transaction touched.
        return if is(v.state, &["S-M", "S-O", "S-E", "S-S"]) {
            Write::Abort(MisspecCause::NonSpecWriteConflict { addr })
        } else {
            Write::Plain { upgrade: o_or_s }
        };
    }
    if is(v.state, &["S-O", "S-S"]) {
        // "hit S-O/S-S → misspeculate".
        Write::Abort(MisspecCause::StoreToSupersededVersion {
            addr,
            store_vid: Vid(y),
        })
    } else if latest && y < h {
        // "hit S-M/S-E with y < h → misspeculate".
        Write::Abort(MisspecCause::StoreBelowHighVid {
            addr,
            store_vid: Vid(y),
            high_vid: Vid(h),
        })
    } else if latest && y == m {
        // "y == m → in-place update"; replicas invalidated if shared.
        Write::InPlace {
            invalidate_ss: v.shared_hint,
        }
    } else if latest {
        // "otherwise split: retained as S-O(m, y)".
        Write::Split {
            retained_m: Vid(m),
            upgrade: false,
        }
    } else {
        // "hit non-speculative M/E (after upgrade if O/S): the same split
        // with m = 0".
        Write::Split {
            retained_m: Vid(0),
            upgrade: o_or_s,
        }
    }
}

#[test]
fn every_local_hit_follows_the_access_rules() {
    let mut checked = 0;
    for v in versions() {
        for a in 0..=MAX_VID {
            for kind in KINDS {
                let req = request(kind, a);
                let what = format!(
                    "{kind:?} by VID {a} on {} (shared_hint {})",
                    v.describe(),
                    v.shared_hint
                );
                if kind == Kind::Write {
                    assert_eq!(
                        decisions::write(&v, req.vid),
                        expected_write(&v, a),
                        "{what}"
                    );
                    if a > 0 {
                        assert_eq!(decisions::spec_write(&v, req.vid), expected_write(&v, a));
                    }
                } else {
                    let wrong_path = kind == Kind::WrongPathRead;
                    assert_eq!(
                        decisions::read(&req),
                        expected_read(wrong_path, a),
                        "{what}"
                    );
                    // "Of O/S: upgrade first"; marking follows.
                    let upgrade = is(v.state, &["O", "S"]);
                    assert_eq!(decisions::upgrades(v.state), upgrade, "{what}");
                }
                checked += 1;
            }
        }
    }
    // 8 states × 36 (m, h) pairs × 2 hints × 8 VIDs × 3 kinds.
    assert_eq!(checked, 8 * 36 * 2 * 8 * 3);
}

/// DESIGN.md §3: "E→S-E(0,a), M→S-M(0,a); reads to an existing version
/// raise its h to max(h, a)"; superseded versions take no mark. The SLA is
/// owed exactly when the read marked the line (PROTOCOL.md §2).
fn expected_mark(v: &LineMeta, a: u16) -> (String, bool) {
    let (m, h) = (v.mod_vid.0, v.high_vid.0);
    match name(v.state).as_str() {
        "M" => (format!("S-M({m},{a})"), true),
        "E" => (format!("S-E({m},{a})"), true),
        "S-M" | "S-E" if a > h => (format!("{}({m},{a})", v.state), true),
        _ => (v.describe(), false),
    }
}

#[test]
fn every_speculative_read_marks_per_figure_4() {
    for v in versions() {
        for a in 1..=MAX_VID {
            let mut marked = v;
            let sla = decisions::mark_read(&mut marked, Vid(a));
            assert_eq!(
                (marked.describe(), sla),
                expected_mark(&v, a),
                "VID {a} reads {}",
                v.describe()
            );
            assert_eq!(
                LineMeta {
                    state: v.state,
                    high_vid: v.high_vid,
                    ..marked
                },
                v,
                "a read changes only state and highVID"
            );
        }
    }
}

#[test]
fn every_split_retains_the_old_version_and_creates_the_new() {
    for v in versions() {
        for y in 1..=MAX_VID {
            for retained_m in [0, v.mod_vid.0] {
                let mut retained = LineMeta {
                    phantom_high: Vid(MAX_VID),
                    ..v
                };
                let created = decisions::split(&mut retained, Vid(retained_m), Vid(y));
                assert_eq!(retained.describe(), format!("S-O({retained_m},{y})"));
                assert_eq!(created.describe(), format!("S-M({y},{y})"));
                assert_eq!(
                    (retained.shared_hint, retained.phantom_high),
                    (v.shared_hint, Vid(MAX_VID)),
                    "the retained version keeps its marks"
                );
                assert_eq!(
                    (created.shared_hint, created.phantom_high),
                    (false, Vid(0)),
                    "the new version starts unshared and unmarked"
                );
                assert_eq!(
                    (created.addr, created.commit_epoch, created.last_used),
                    (v.addr, v.commit_epoch, v.last_used)
                );
            }
        }
    }
}

#[test]
fn phantom_marks_record_filtered_wrong_path_loads() {
    for phantom in 0..=MAX_VID {
        let v = LineMeta {
            phantom_high: Vid(phantom),
            ..version(LineState::SpecModified, 1, 2)
        };
        for a in 0..=MAX_VID {
            // A wrong-path load would have marked with its VID (a
            // non-speculative one marks nothing).
            let mut read = v;
            decisions::note_phantom_read(&mut read, Vid(a));
            let want = if a > 0 { phantom.max(a) } else { phantom };
            assert_eq!(read.phantom_high, Vid(want));
            // A store below a phantom mark is an abort the SLA filter
            // avoided (Table 1); the mark is spent.
            let mut stored = v;
            let avoided = decisions::note_phantom_store(&mut stored, Vid(a));
            assert_eq!(avoided, phantom > a);
            let left = if phantom > a { 0 } else { phantom };
            assert_eq!(stored.phantom_high, Vid(left));
        }
    }
}

// -------------------------------------------------------- fills and supply

/// PROTOCOL.md §2 step 4 and the MOESI fill rules, transcribed: the state
/// a version installs after arriving from the L2, memory or a migrating
/// peer copy, and whether other copies are purged first.
fn expected_fill(source: LineState, shared: bool, exclusive: bool, dirty_purged: bool) -> String {
    if is(source, &["S-M", "S-O", "S-E", "S-S"]) {
        // Speculative versions migrate as they are.
        return name(source);
    }
    let dirty = is(source, &["M", "O"]) || dirty_purged;
    let state = match (exclusive, shared, dirty) {
        (true, _, true) => "M",
        (true, _, false) => "E",
        (false, true, true) => "O",
        (false, true, false) => "S",
        (false, false, true) => "M",
        (false, false, false) => "E",
    };
    state.to_string()
}

#[test]
fn every_fill_installs_the_documented_state() {
    for source in STATES {
        for shared in [false, true] {
            for exclusive in [false, true] {
                let purges = decisions::fill_purges(source, shared, exclusive);
                assert_eq!(
                    purges,
                    exclusive && shared && is(source, &["M", "O", "E", "S"]),
                    "purge for {source} (shared {shared}, exclusive {exclusive})"
                );
                // Only a purge can find a dirty copy.
                for dirty_purged in [false, purges] {
                    assert_eq!(
                        name(decisions::fill_state(
                            source,
                            shared,
                            exclusive,
                            dirty_purged
                        )),
                        expected_fill(source, shared, exclusive, dirty_purged),
                        "{source} (shared {shared}, exclusive {exclusive}, dirty {dirty_purged})"
                    );
                }
            }
        }
    }
}

/// What one peer L1 holds of the line: nothing, one version, or the
/// Figure 5 pair of a latest version with its superseded backup.
fn peer_shapes() -> Vec<Vec<LineMeta>> {
    let mut shapes = vec![Vec::new()];
    for state in STATES {
        let pairs: &[(u16, u16)] = if state.is_speculative() {
            &[(0, 2), (1, 3), (3, 3)]
        } else {
            &[(0, 0)]
        };
        for &(m, h) in pairs {
            shapes.push(vec![version(state, m, h)]);
        }
    }
    shapes.push(vec![
        version(LineState::SpecModified, 2, 2),
        version(LineState::SpecOwned, 0, 2),
    ]);
    shapes
}

/// PROTOCOL.md §2 step 3, transcribed: the first peer whose hitting version
/// answers snoops supplies (`S` and `S-S` stay silent), any copy raises
/// the shared wire, and any `S-M` asserts "speculatively modified".
fn expected_snoop(peers: &[&Vec<LineMeta>], a: u16) -> Snoop {
    let mut want = Snoop::default();
    for (p, held) in peers.iter().enumerate() {
        want.shared |= !held.is_empty();
        want.spec_modified |= held.iter().any(|v| name(v.state) == "S-M");
        let hit = held.iter().position(|v| version_hits(v, Vid(a)));
        if want.supplier.is_none() {
            if let Some(way) = hit.filter(|&w| !is(held[w].state, &["S", "S-S"])) {
                want.supplier = Some((p, way));
            }
        }
    }
    want
}

/// PROTOCOL.md §2 "Reads", transcribed: how a supplier hands over its
/// version.
fn expected_supply(supplier: LineState, kind: Kind, a: u16) -> Supply {
    match (supplier.is_speculative(), kind) {
        (false, _) if exclusive(kind, a) => Supply::Migrate,
        (false, _) => Supply::Share,
        (true, Kind::Write) => Supply::Migrate,
        (true, Kind::WrongPathRead) => Supply::Peek,
        (true, Kind::Read) => Supply::MigrateLeavingReplica,
    }
}

#[test]
fn every_peer_set_shape_snoops_supplies_and_fills_as_documented() {
    let shapes = peer_shapes();
    let mut supplied = 0;
    let mut from_memory = 0;
    for a0 in &shapes {
        for a1 in &shapes {
            for a2 in &shapes {
                let peers = [a0, a1, a2];
                for a in 0..=MAX_VID {
                    let mut snoop = Snoop::default();
                    for (p, held) in peers.iter().enumerate() {
                        let hit = held.iter().position(|v| version_hits(v, Vid(a)));
                        snoop.peer(p, held, LINE, hit);
                    }
                    assert_eq!(snoop, expected_snoop(&peers, a), "{peers:?} for VID {a}");
                    for kind in KINDS {
                        let req = request(kind, a);
                        let excl = exclusive(kind, a);
                        if let Some((p, way)) = snoop.supplier {
                            supplied += 1;
                            let v = peers[p][way];
                            let plan = decisions::supply(v.state, &req);
                            assert_eq!(plan, expected_supply(v.state, kind, a));
                            if plan == Supply::Migrate {
                                // The migrating copy installs writable:
                                // dirty if it or any purged copy was.
                                let purges = decisions::fill_purges(v.state, true, excl);
                                let dirty = purges
                                    && peers.iter().enumerate().any(|(q, held)| {
                                        q != p && held.iter().any(|l| is(l.state, &["M", "O"]))
                                    });
                                let got = decisions::fill_state(v.state, true, excl, dirty);
                                let want = if v.state.is_speculative() {
                                    name(v.state)
                                } else if is(v.state, &["M", "O"]) || dirty {
                                    "M".to_string()
                                } else {
                                    "E".to_string()
                                };
                                assert_eq!(name(got), want, "{peers:?}: {kind:?} by VID {a}");
                            }
                        } else {
                            // Memory answers with its E copy, purging the
                            // silent copies first for an exclusive request.
                            from_memory += 1;
                            let purges =
                                decisions::fill_purges(LineState::Exclusive, snoop.shared, excl);
                            assert_eq!(purges, excl && snoop.shared);
                            let dirty = purges
                                && peers
                                    .iter()
                                    .any(|held| held.iter().any(|l| is(l.state, &["M", "O"])));
                            let mut filled = version(LineState::Exclusive, 0, 0);
                            filled.state =
                                decisions::fill_state(filled.state, snoop.shared, excl, dirty);
                            if snoop.spec_modified {
                                decisions::wrap_pre_speculative(&mut filled, Vid(a));
                            }
                            // §5.4: under the assertion, memory holds the
                            // pre-speculative image, valid below a + 1.
                            let want = if snoop.spec_modified {
                                format!("S-O(0,{})", a + 1)
                            } else {
                                format!(
                                    "{}(0,0)",
                                    expected_fill(LineState::Exclusive, snoop.shared, excl, dirty)
                                )
                            };
                            assert_eq!(filled.describe(), want, "{peers:?}: {kind:?} by VID {a}");
                        }
                    }
                }
            }
        }
    }
    assert!(supplied > 0 && from_memory > 0);
}

#[test]
fn the_local_cache_and_the_l2_only_assert() {
    for held in peer_shapes() {
        let mut snoop = Snoop::default();
        snoop.assert_from(held.iter(), LINE);
        let other_line = held.iter().map(|l| LineMeta {
            addr: LineAddr(6),
            ..*l
        });
        snoop.assert_from(other_line.collect::<Vec<_>>().iter(), LINE);
        assert_eq!(
            snoop,
            Snoop {
                spec_modified: held.iter().any(|v| name(v.state) == "S-M"),
                ..Snoop::default()
            },
            "{held:?}"
        );
    }
}

#[test]
fn read_sharing_downgrades_the_supplier_and_hands_out_s() {
    // MOESI read sharing (PROTOCOL.md §2): M → O, E → S, O stays O.
    for (supplier, after) in [("M", "O"), ("O", "O"), ("E", "S")] {
        let state = STATES.into_iter().find(|&s| name(s) == supplier).unwrap();
        let mut v = LineMeta {
            phantom_high: Vid(4),
            ..version(state, 0, 0)
        };
        let copy = decisions::share(&mut v);
        assert_eq!(name(v.state), after);
        assert!(v.shared_hint, "the supplier notes it shared");
        assert_eq!(v.phantom_high, Vid(4));
        assert_eq!(copy.describe(), "S(0,0)");
        assert_eq!((copy.shared_hint, copy.phantom_high), (false, Vid(0)));
    }
}

#[test]
fn a_migrating_version_leaves_an_s_s_replica_only_for_a_live_range() {
    // Figure 5 instruction 4: cache 1 keeps S-S(1,2) of the S-O(1,2) it
    // supplies; a zero-width range (m == h) could never hit.
    for v in versions().filter(|v| v.state.is_speculative()) {
        let v = LineMeta {
            phantom_high: Vid(5),
            ..v
        };
        let (m, h) = (v.mod_vid.0, v.high_vid.0);
        match decisions::replica(&v) {
            Some(r) => {
                assert!(m < h, "{}", v.describe());
                assert_eq!(r.describe(), format!("S-S({m},{h})"));
                assert_eq!((r.shared_hint, r.phantom_high), (false, Vid(0)));
            }
            None => assert_eq!(m, h, "{}", v.describe()),
        }
    }
}

// ------------------------------------------------------------------ victims

/// PROTOCOL.md §4, transcribed.
fn expected_victim(v: &LineMeta, from_l1: bool, unbounded_sets: bool) -> Victim {
    let clean_nonspec = is(v.state, &["E", "S"]);
    if from_l1 {
        // "L1 victims: clean non-speculative lines vanish; everything else
        // installs into the L2".
        return if clean_nonspec {
            Victim::Drop
        } else {
            Victim::ToL2
        };
    }
    match name(v.state).as_str() {
        // "dirty non-speculative → memory".
        "M" | "O" => Victim::WriteBack,
        "E" | "S" => Victim::Drop,
        // "S-O(0,·) → memory".
        "S-O" if v.mod_vid.0 == 0 => Victim::SafeOverflow,
        // "S-S replicas drop silently".
        "S-S" => Victim::Drop,
        // "anything else aborts — unless the §8 unbounded_sets extension
        // is on".
        _ if unbounded_sets => Victim::Spill,
        _ => Victim::Abort,
    }
}

#[test]
fn every_victim_meets_its_documented_fate() {
    for v in versions() {
        for from_l1 in [false, true] {
            for unbounded_sets in [false, true] {
                assert_eq!(
                    decisions::victim(&v, from_l1, unbounded_sets),
                    expected_victim(&v, from_l1, unbounded_sets),
                    "{} evicted from {} (unbounded {unbounded_sets})",
                    v.describe(),
                    if from_l1 { "an L1" } else { "the L2" }
                );
            }
        }
    }
}
