//! Pure decision rules of the access side of the HMTX protocol: what a
//! local hit does (Figure 4, §4.1–§4.3), what a miss learns from snooping
//! (§4.1, §5.4), what state a fill installs, how a peer supplies a version,
//! and what becomes of an evicted version (§5.4).
//!
//! Like [`crate::transitions`], these functions see line metadata and the
//! request only — no caches, latency, statistics or tracing — so each rule
//! is a truth table the tests check exhaustively. `MemorySystem` carries
//! out the plans they return and charges their latency. The rules run on
//! the access path, so those longer than a few instructions are marked
//! `#[inline]`: left to the compiler's own choice, they cost perfbench's
//! model-check about 1% of its rate.

use hmtx_mem::{LineMeta, LineState};
use hmtx_types::{LineAddr, Vid};

use crate::protocol::{AccessKind, AccessRequest, MisspecCause};

impl AccessRequest {
    /// A speculative correct-path access: the kind that marks lines with
    /// its VID (wrong-path loads only move data, §5.1).
    pub(crate) fn marks(&self) -> bool {
        self.vid.is_speculative() && !self.wrong_path
    }

    /// Whether the access needs an exclusive copy of the line: every write,
    /// and every access that marks ("O, S follow the same path as M or E
    /// once acquiring exclusive access", Figure 4).
    pub(crate) fn needs_exclusive(&self) -> bool {
        matches!(self.kind, AccessKind::Write(_)) || self.marks()
    }
}

/// What a load does to the local version it hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Read {
    /// Serve the word and change nothing (a non-speculative load).
    Plain,
    /// A wrong-path load: serve the word, mark nothing, remember the
    /// would-be mark ([`note_phantom_read`]).
    Peek,
    /// A speculative load: acquire exclusivity first if the hit copy
    /// [`upgrades`], then mark the version ([`mark_read`]).
    Mark,
}

/// Decides what the load `req` does to the local version that satisfied
/// the hit rule (PROTOCOL.md §2, "Reads"); only the load decides.
pub(crate) fn read(req: &AccessRequest) -> Read {
    if req.wrong_path {
        Read::Peek
    } else if req.vid.is_non_speculative() {
        Read::Plain
    } else {
        Read::Mark
    }
}

/// What a store does to the local version it hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Write {
    /// A non-speculative store: acquire exclusivity first if `upgrade`,
    /// then store and leave the line `M`.
    Plain {
        /// The hit copy is `O` or `S`.
        upgrade: bool,
    },
    /// The owning transaction stores into its own latest version.
    InPlace {
        /// Peers may hold `S-S` replicas of the version (its
        /// `shared_hint`): invalidate them, now stale.
        invalidate_ss: bool,
    },
    /// Keep the hit version unmodified as `S-O(retained_m, y)` and create
    /// `S-M(y, y)` holding the store ([`split`]).
    Split {
        /// `modVID` of the retained version.
        retained_m: Vid,
        /// The hit copy is `O` or `S`: acquire exclusivity first.
        upgrade: bool,
    },
    /// The store misspeculates.
    Abort(MisspecCause),
}

/// Decides what a store of VID `y` does to the local version `v` that
/// satisfied the hit rule (PROTOCOL.md §2, "Writes").
#[inline]
pub(crate) fn write(v: &LineMeta, y: Vid) -> Write {
    if y.is_speculative() {
        spec_write(v, y)
    } else if v.state.is_speculative() {
        // After lazy processing, a surviving speculative version means a
        // live uncommitted transaction touched this line.
        Write::Abort(MisspecCause::NonSpecWriteConflict {
            addr: v.addr.base(),
        })
    } else {
        Write::Plain {
            upgrade: upgrades(v.state),
        }
    }
}

/// The speculative write of VID `y` on version `v`: the dependence rules of
/// §4.3 and the version split of §4.2 (Figure 4).
#[inline]
pub(crate) fn spec_write(v: &LineMeta, y: Vid) -> Write {
    let addr = v.addr.base();
    match v.state {
        // A superseded version: a logically later access exists.
        LineState::SpecOwned | LineState::SpecShared => {
            Write::Abort(MisspecCause::StoreToSupersededVersion { addr, store_vid: y })
        }
        LineState::SpecModified | LineState::SpecExclusive if y < v.high_vid => {
            Write::Abort(MisspecCause::StoreBelowHighVid {
                addr,
                store_vid: y,
                high_vid: v.high_vid,
            })
        }
        LineState::SpecModified | LineState::SpecExclusive if y == v.mod_vid => Write::InPlace {
            invalidate_ss: v.shared_hint,
        },
        LineState::SpecModified | LineState::SpecExclusive => Write::Split {
            retained_m: v.mod_vid,
            upgrade: false,
        },
        // The pre-speculative data becomes the S-O(0, y) backup.
        LineState::Modified | LineState::Owned | LineState::Exclusive | LineState::Shared => {
            Write::Split {
                retained_m: Vid::NON_SPECULATIVE,
                upgrade: upgrades(v.state),
            }
        }
    }
}

/// Whether a hit copy in `state` must gain exclusivity before a store or a
/// marking load: `O` and `S` "follow the same path as M or E once acquiring
/// exclusive access" (Figure 4).
pub(crate) fn upgrades(state: LineState) -> bool {
    !state.is_speculative() && !state.is_writable()
}

/// Marks version `v` for a speculative read of VID `a` (Figure 4):
/// `M → S-M(0,a)`, `E → S-E(0,a)`, and an `S-M`/`S-E` version raises its
/// highVID to `a`. Superseded `S-O`/`S-S` versions are read-only history
/// and take no mark. Returns whether the read marked the version, i.e.
/// whether its SLA must be sent (§5.1).
#[inline]
pub(crate) fn mark_read(v: &mut LineMeta, a: Vid) -> bool {
    match v.state {
        LineState::Modified | LineState::Exclusive => {
            v.state = if v.state == LineState::Modified {
                LineState::SpecModified
            } else {
                LineState::SpecExclusive
            };
            v.high_vid = a;
            true
        }
        LineState::SpecModified | LineState::SpecExclusive if a > v.high_vid => {
            v.high_vid = a;
            true
        }
        _ => false,
    }
}

/// Rewrites the hit version `v` into the retained `S-O(retained_m, y)` and
/// returns the metadata of the new `S-M(y, y)` version beside it.
#[inline]
pub(crate) fn split(v: &mut LineMeta, retained_m: Vid, y: Vid) -> LineMeta {
    v.state = LineState::SpecOwned;
    v.mod_vid = retained_m;
    v.high_vid = y;
    LineMeta {
        state: LineState::SpecModified,
        mod_vid: y,
        high_vid: y,
        shared_hint: false,
        phantom_high: Vid::NON_SPECULATIVE,
        ..*v
    }
}

/// Records the mark a wrong-path load of VID `a` would have left on `v`
/// had SLAs not filtered it (simulator bookkeeping for Table 1).
pub(crate) fn note_phantom_read(v: &mut LineMeta, a: Vid) {
    if a.is_speculative() && a > v.phantom_high {
        v.phantom_high = a;
    }
}

/// A store of VID `y` to `v`: if a wrong-path phantom mark above `y` is
/// there, the SLA filter avoided an abort (§5.1, Table 1). Clears the mark
/// and returns `true` in that case.
pub(crate) fn note_phantom_store(v: &mut LineMeta, y: Vid) -> bool {
    let avoided = v.phantom_high > y;
    if avoided {
        v.phantom_high = Vid::NON_SPECULATIVE;
    }
    avoided
}

/// What a miss learns from snooping (§4.1, §5.4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Snoop {
    /// The first peer L1, and its way, whose hitting version answers
    /// snoops: `S` and `S-S` copies stay silent.
    pub supplier: Option<(usize, usize)>,
    /// Some peer L1 holds a version of the line (the "shared" wire).
    pub shared: bool,
    /// Some cache holds an `S-M` version of the line: the line was
    /// speculatively modified, so memory holds only its pre-speculative
    /// image (§5.4).
    pub spec_modified: bool,
}

impl Snoop {
    /// Folds in peer L1 `p`, whose set for `line` is `set` and whose way
    /// `hit` (if any) satisfies the hit rule for the request.
    #[inline]
    pub(crate) fn peer(&mut self, p: usize, set: &[LineMeta], line: LineAddr, hit: Option<usize>) {
        self.assert_from(set.iter(), line);
        self.shared |= set.iter().any(|l| l.addr == line);
        if self.supplier.is_none() {
            if let Some(way) = hit.filter(|&w| set[w].state.responds_to_snoops()) {
                self.supplier = Some((p, way));
            }
        }
    }

    /// Folds in the §5.4 assertion of versions that cannot supply: the
    /// requester's own L1, the L2, the overflow table.
    #[inline]
    pub(crate) fn assert_from<'a>(
        &mut self,
        versions: impl IntoIterator<Item = &'a LineMeta>,
        line: LineAddr,
    ) {
        self.spec_modified |= versions
            .into_iter()
            .any(|l| l.addr == line && l.state == LineState::SpecModified);
    }
}

/// Whether a fill of a `source`-state version must first purge every other
/// non-speculative copy: the request needs exclusivity and some peer holds
/// the line (its silent `S` copies never answer, so reaching the L2 or
/// memory does not mean the line is uncached).
pub(crate) fn fill_purges(source: LineState, shared: bool, exclusive: bool) -> bool {
    exclusive && shared && !source.is_speculative()
}

/// The state a version arriving from the L2, memory (as `E`) or a
/// migrating peer copy installs in the requester's L1. Speculative versions
/// arrive unchanged. A non-speculative version is dirty if it was, or if
/// the purge [`fill_purges`] asked for invalidated a dirty copy
/// (`dirty_purged`); it installs writable (`M`/`E`) for an exclusive
/// request, else shared (`O`/`S`) when a peer holds the line, else `M`/`E`.
#[inline]
pub(crate) fn fill_state(
    source: LineState,
    shared: bool,
    exclusive: bool,
    dirty_purged: bool,
) -> LineState {
    if source.is_speculative() {
        return source;
    }
    match (source.is_dirty() || dirty_purged, shared && !exclusive) {
        (true, false) => LineState::Modified,
        (true, true) => LineState::Owned,
        (false, false) => LineState::Exclusive,
        (false, true) => LineState::Shared,
    }
}

/// Wraps a memory fill of request VID `a` made under the §5.4 assertion:
/// memory holds the pre-speculative image, valid exactly for VIDs below
/// `a + 1`, so the line installs as `S-O(0, a+1)`.
pub(crate) fn wrap_pre_speculative(v: &mut LineMeta, a: Vid) {
    v.state = LineState::SpecOwned;
    v.high_vid = a.next();
}

/// How a peer L1 supplies the version that hit there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Supply {
    /// The version migrates to the requester and fills like any other
    /// ([`fill_purges`], [`fill_state`]): a non-speculative copy for an
    /// exclusive request, a speculative one for a write.
    Migrate,
    /// Plain MOESI read sharing ([`share`]).
    Share,
    /// A wrong-path load of a speculative version reads it in place.
    Peek,
    /// A read of a speculative version: the version migrates and the peer
    /// keeps an `S-S` replica ([`replica`]) — uncommitted value forwarding
    /// (Figure 5, instruction 4).
    MigrateLeavingReplica,
}

/// Decides how a peer holding a `peer`-state version supplies `req`.
#[inline]
pub(crate) fn supply(peer: LineState, req: &AccessRequest) -> Supply {
    match (peer.is_speculative(), req.kind) {
        (false, _) if req.needs_exclusive() => Supply::Migrate,
        (false, _) => Supply::Share,
        (true, AccessKind::Write(_)) => Supply::Migrate,
        (true, AccessKind::Read) if req.wrong_path => Supply::Peek,
        (true, AccessKind::Read) => Supply::MigrateLeavingReplica,
    }
}

/// Downgrades the supplier `v` for read sharing (`M → O`, `E → S`, noting
/// that it shared) and returns the metadata of the requester's `S` copy.
#[inline]
pub(crate) fn share(v: &mut LineMeta) -> LineMeta {
    v.shared_hint = true;
    let copy = LineMeta {
        state: LineState::Shared,
        shared_hint: false,
        phantom_high: Vid::NON_SPECULATIVE,
        ..*v
    };
    match v.state {
        LineState::Modified => v.state = LineState::Owned,
        LineState::Exclusive => v.state = LineState::Shared,
        _ => {}
    }
    copy
}

/// The `S-S` replica a migrating speculative version `v` leaves behind, or
/// `None` when its range `[m, h)` is empty and could never hit.
#[inline]
pub(crate) fn replica(v: &LineMeta) -> Option<LineMeta> {
    (v.mod_vid < v.high_vid).then_some(LineMeta {
        state: LineState::SpecShared,
        shared_hint: false,
        phantom_high: Vid::NON_SPECULATIVE,
        ..*v
    })
}

/// What becomes of a version evicted from a cache (§4.1, §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Victim {
    /// Vanishes: a clean non-speculative copy, or an `S-S` replica leaving
    /// the L2 (its owner version still answers).
    Drop,
    /// Installs into the L2 (the mostly-exclusive hierarchy).
    ToL2,
    /// Leaves the L2 for memory: a dirty non-speculative line.
    WriteBack,
    /// Leaves the L2 for memory: an `S-O(0,·)` version holds the committed
    /// pre-speculative image, so it may, and the §5.4 assertion rebuilds
    /// its wrapper on a later miss.
    SafeOverflow,
    /// Moves to the §8 unbounded-sets overflow table.
    Spill,
    /// Cannot leave the hierarchy: the access misspeculates.
    Abort,
}

/// Decides the fate of version `v` evicted from an L1 (`from_l1`) or from
/// the L2, with or without the §8 unbounded-sets extension.
///
/// A clean non-speculative L1 victim is dropped rather than installed into
/// the L2, so a read-only working set never reaches the L2, while a
/// speculatively read one (`S-E`) does.
#[inline]
pub(crate) fn victim(v: &LineMeta, from_l1: bool, unbounded_sets: bool) -> Victim {
    let speculative = v.state.is_speculative();
    if !speculative && !v.state.is_dirty() {
        Victim::Drop
    } else if from_l1 {
        Victim::ToL2
    } else if !speculative {
        Victim::WriteBack
    } else if v.safe_to_overflow() {
        Victim::SafeOverflow
    } else if v.state == LineState::SpecShared {
        Victim::Drop
    } else if unbounded_sets {
        Victim::Spill
    } else {
        Victim::Abort
    }
}
