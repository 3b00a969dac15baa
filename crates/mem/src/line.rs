//! Cache lines with HMTX version metadata.
//!
//! Storage is split ECS-style: [`LineMeta`] is the plain-old-data tag/VID
//! component the protocol scans and mutates on every access, and
//! [`LineData`] is the 64-byte payload component, stored separately (see
//! [`Cache`](crate::Cache)'s payload arena). [`CacheLine`] glues the two
//! back together as the by-value exchange type used when a line moves
//! between caches, the overflow table, or main memory; it derefs to its
//! [`LineMeta`] so metadata fields read naturally (`line.addr`,
//! `line.state`, ...).

use std::fmt;
use std::ops::{Deref, DerefMut};

use hmtx_types::{LineAddr, Vid, LINE_SIZE};

/// Coherence state of one cache-line version.
///
/// The non-speculative states are the classic MOESI states (Invalid lines are
/// simply absent from the cache, so there is no `Invalid` variant). The
/// speculative states are the four HMTX additions from §4.1 of the paper.
///
/// `repr(u8)` with variant 0 first keeps an all-zero-bytes [`LineMeta`]
/// valid, which is what lets the cache allocate its flat metadata arrays as
/// untouched zero pages (see `Cache::new`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum LineState {
    /// MOESI Modified: dirty, exclusive, writable.
    Modified = 0,
    /// MOESI Owned: dirty, shared, read-only, responds to snoops.
    Owned = 1,
    /// MOESI Exclusive: clean, exclusive, writable.
    Exclusive = 2,
    /// MOESI Shared: clean, shared, read-only.
    Shared = 3,
    /// S-M: the *latest* speculative version of the line (paper §4.1).
    /// Dirty with respect to memory; commits to [`LineState::Modified`].
    SpecModified = 4,
    /// S-O: a speculatively accessed version later superseded by a write
    /// with a higher VID. Holds the data that accesses with VIDs in
    /// `[modVID, highVID)` must observe.
    SpecOwned = 5,
    /// S-E: like S-M but never modified since entering the cache
    /// (`modVID` is always zero); commits to a clean state.
    SpecExclusive = 6,
    /// S-S: a shared copy of a speculatively accessed version; never
    /// responds to snoops (an S-M/S-O/S-E copy responds instead).
    SpecShared = 7,
}

impl LineState {
    /// Returns `true` for the four HMTX speculative states.
    pub fn is_speculative(self) -> bool {
        matches!(
            self,
            LineState::SpecModified
                | LineState::SpecOwned
                | LineState::SpecExclusive
                | LineState::SpecShared
        )
    }

    /// Returns `true` if this version must eventually reach memory
    /// (dirty with respect to main memory) when it is the live version.
    pub fn is_dirty(self) -> bool {
        matches!(
            self,
            LineState::Modified | LineState::Owned | LineState::SpecModified | LineState::SpecOwned
        )
    }

    /// Returns `true` if a write may proceed without gaining exclusivity.
    pub fn is_writable(self) -> bool {
        matches!(self, LineState::Modified | LineState::Exclusive)
    }

    /// Returns `true` if this copy answers bus snoops (S-S and MOESI Shared
    /// stay silent; some owner copy or the next level answers instead).
    pub fn responds_to_snoops(self) -> bool {
        !matches!(self, LineState::SpecShared | LineState::Shared)
    }
}

impl fmt::Display for LineState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LineState::Modified => "M",
            LineState::Owned => "O",
            LineState::Exclusive => "E",
            LineState::Shared => "S",
            LineState::SpecModified => "S-M",
            LineState::SpecOwned => "S-O",
            LineState::SpecExclusive => "S-E",
            LineState::SpecShared => "S-S",
        };
        f.write_str(s)
    }
}

/// The 64 bytes of data held by one cache-line version.
///
/// Stored inline (not boxed): cloning a payload is a 64-byte copy with no
/// allocation, which is what makes version splits, peer supplies, and
/// memory fills allocation-free on the hot path.
#[derive(Clone, PartialEq, Eq)]
pub struct LineData([u8; LINE_SIZE]);

impl LineData {
    /// All-zero line (the content of never-written memory).
    pub fn zeroed() -> Self {
        LineData([0u8; LINE_SIZE])
    }

    /// Reads the aligned little-endian u64 at byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + 8 > 64`.
    pub fn read_u64(&self, offset: usize) -> u64 {
        u64::from_le_bytes(self.0[offset..offset + 8].try_into().unwrap())
    }

    /// Writes the little-endian u64 at byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + 8 > 64`.
    pub fn write_u64(&mut self, offset: usize, value: u64) {
        self.0[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// The raw bytes.
    pub fn bytes(&self) -> &[u8; LINE_SIZE] {
        &self.0
    }
}

impl Default for LineData {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl fmt::Debug for LineData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // 64 raw bytes are noise; show the 8 words.
        write!(f, "LineData[")?;
        for w in 0..8 {
            if w > 0 {
                write!(f, " ")?;
            }
            write!(f, "{:x}", self.read_u64(w * 8))?;
        }
        write!(f, "]")
    }
}

impl From<[u8; LINE_SIZE]> for LineData {
    fn from(bytes: [u8; LINE_SIZE]) -> Self {
        LineData(bytes)
    }
}

/// The tag/VID metadata of one cache-line *version* — everything the
/// protocol's scans, hit rules, and commit/abort transitions touch, and
/// nothing else. Plain old data, `Copy`, 48 bytes: a whole cache set's
/// metadata fits in a few hardware cache lines, so the per-access set walks
/// never chase a pointer.
///
/// The pair `(modVID, highVID)` follows §4.1: `modVID` is the VID of the
/// speculative write that created this version (zero for non-speculative
/// versions) and `highVID` is the highest VID that accessed it.
/// `phantom_high` is *not* hardware state: it records wrong-path
/// (branch-speculative) marks that SLAs filtered out, used to count the
/// aborts the SLA mechanism avoided (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineMeta {
    /// The line address of this version.
    pub addr: LineAddr,
    /// Coherence state.
    pub state: LineState,
    /// VID of the speculative write that created this version (`m`).
    pub mod_vid: Vid,
    /// Highest VID that accessed this version (`h`).
    pub high_vid: Vid,
    /// Highest wrong-path VID that *would have* marked this line were SLAs
    /// not filtering squashed loads (simulator-only bookkeeping, §5.1).
    pub phantom_high: Vid,
    /// Set once this cache supplied the line to a peer, so in-place
    /// speculative writes know to invalidate stale S-S copies.
    pub shared_hint: bool,
    /// Lazy commit processing stamp (§5.3); compared against the owning
    /// cache's commit epoch.
    pub commit_epoch: u64,
    /// LRU recency stamp.
    pub last_used: u64,
}

impl LineMeta {
    /// Non-speculative metadata in the given MOESI state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is speculative.
    pub fn non_speculative(addr: LineAddr, state: LineState) -> Self {
        assert!(
            !state.is_speculative(),
            "use LineMeta fields for speculative versions"
        );
        LineMeta {
            addr,
            state,
            mod_vid: Vid::NON_SPECULATIVE,
            high_vid: Vid::NON_SPECULATIVE,
            phantom_high: Vid::NON_SPECULATIVE,
            shared_hint: false,
            commit_epoch: 0,
            last_used: 0,
        }
    }

    /// The `(modVID, highVID)` tuple in the paper's notation.
    pub fn vids(&self) -> (Vid, Vid) {
        (self.mod_vid, self.high_vid)
    }

    /// Formats the version as e.g. `S-M(2,2)` for traces and tests
    /// (matching Figure 5 of the paper).
    pub fn describe(&self) -> String {
        format!("{}({},{})", self.state, self.mod_vid.0, self.high_vid.0)
    }

    /// Returns `true` if evicting this version past the last-level cache is
    /// safe (§5.4): only non-speculative versions and `S-O` versions with
    /// `modVID == 0` may leave the cache hierarchy without aborting.
    pub fn safe_to_overflow(&self) -> bool {
        !self.state.is_speculative()
            || (self.state == LineState::SpecOwned && self.mod_vid.is_non_speculative())
    }
}

/// One cache-line *version* as a by-value whole: metadata plus payload.
///
/// This is the exchange currency between caches, the §8 overflow table, and
/// main memory. Inside a [`Cache`](crate::Cache) the two halves live in
/// separate flat arrays; `CacheLine` is only assembled when a version
/// actually moves. It derefs to [`LineMeta`], so all metadata fields and
/// helpers ([`describe`](LineMeta::describe),
/// [`safe_to_overflow`](LineMeta::safe_to_overflow), ...) apply directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheLine {
    /// Tag/VID metadata.
    pub meta: LineMeta,
    /// The 64 data bytes of this version.
    pub data: LineData,
}

impl CacheLine {
    /// Creates a non-speculative line version in the given MOESI state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is speculative.
    pub fn non_speculative(addr: LineAddr, state: LineState) -> Self {
        CacheLine {
            meta: LineMeta::non_speculative(addr, state),
            data: LineData::zeroed(),
        }
    }
}

impl Deref for CacheLine {
    type Target = LineMeta;

    fn deref(&self) -> &LineMeta {
        &self.meta
    }
}

impl DerefMut for CacheLine {
    fn deref_mut(&mut self) -> &mut LineMeta {
        &mut self.meta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_predicates() {
        assert!(LineState::SpecModified.is_speculative());
        assert!(LineState::SpecShared.is_speculative());
        assert!(!LineState::Modified.is_speculative());
        assert!(LineState::Modified.is_dirty());
        assert!(LineState::Owned.is_dirty());
        assert!(LineState::SpecModified.is_dirty());
        assert!(LineState::SpecOwned.is_dirty());
        assert!(!LineState::Exclusive.is_dirty());
        assert!(!LineState::SpecExclusive.is_dirty());
        assert!(LineState::Modified.is_writable());
        assert!(LineState::Exclusive.is_writable());
        assert!(!LineState::Owned.is_writable());
        assert!(
            !LineState::SpecModified.is_writable(),
            "spec writes go through protocol checks"
        );
        assert!(!LineState::SpecShared.responds_to_snoops());
        assert!(!LineState::Shared.responds_to_snoops());
        assert!(LineState::SpecModified.responds_to_snoops());
        assert!(LineState::Owned.responds_to_snoops());
    }

    #[test]
    fn state_display_matches_paper_notation() {
        assert_eq!(LineState::SpecModified.to_string(), "S-M");
        assert_eq!(LineState::SpecOwned.to_string(), "S-O");
        assert_eq!(LineState::SpecExclusive.to_string(), "S-E");
        assert_eq!(LineState::SpecShared.to_string(), "S-S");
        assert_eq!(LineState::Modified.to_string(), "M");
    }

    #[test]
    fn line_data_word_access() {
        let mut d = LineData::zeroed();
        d.write_u64(8, 0xdead_beef);
        assert_eq!(d.read_u64(8), 0xdead_beef);
        assert_eq!(d.read_u64(0), 0);
        assert_eq!(d.read_u64(16), 0);
        d.write_u64(56, u64::MAX);
        assert_eq!(d.read_u64(56), u64::MAX);
    }

    #[test]
    #[should_panic]
    fn line_data_out_of_range_panics() {
        LineData::zeroed().read_u64(57);
    }

    #[test]
    fn describe_matches_figure5_notation() {
        let mut l = CacheLine::non_speculative(LineAddr(1), LineState::Exclusive);
        assert_eq!(l.describe(), "E(0,0)");
        l.state = LineState::SpecModified;
        l.mod_vid = Vid(2);
        l.high_vid = Vid(2);
        assert_eq!(l.describe(), "S-M(2,2)");
    }

    #[test]
    fn overflow_safety_rule() {
        let mut l = CacheLine::non_speculative(LineAddr(1), LineState::Modified);
        assert!(l.safe_to_overflow());
        l.state = LineState::SpecOwned;
        assert!(l.safe_to_overflow(), "S-O with modVID 0 is overflow-safe");
        l.mod_vid = Vid(1);
        assert!(!l.safe_to_overflow(), "S-O with modVID > 0 is not");
        l.state = LineState::SpecModified;
        l.mod_vid = Vid::NON_SPECULATIVE;
        assert!(!l.safe_to_overflow(), "S-M never overflows safely");
    }

    #[test]
    #[should_panic]
    fn non_speculative_ctor_rejects_spec_states() {
        let _ = CacheLine::non_speculative(LineAddr(0), LineState::SpecModified);
    }

    #[test]
    fn line_data_debug_is_compact() {
        let mut d = LineData::zeroed();
        d.write_u64(0, 0xab);
        let s = format!("{d:?}");
        assert!(s.starts_with("LineData["));
        assert!(s.contains("ab"));
    }

    #[test]
    fn meta_is_all_zero_valid_and_pod_sized() {
        // The cache's flat arrays rely on zeroed `LineMeta` being a valid
        // (if meaningless) value: `LineState` discriminant 0 is `Modified`.
        assert_eq!(LineState::Modified as u8, 0);
        // Keep the scanned component compact: a whole 8-way set of metadata
        // should span at most a handful of hardware cache lines.
        assert!(std::mem::size_of::<LineMeta>() <= 48);
    }

    #[test]
    fn cache_line_derefs_to_meta() {
        let mut l = CacheLine::non_speculative(LineAddr(3), LineState::Shared);
        assert_eq!(l.addr, LineAddr(3));
        l.high_vid = Vid(4);
        assert_eq!(l.meta.high_vid, Vid(4));
        assert_eq!(l.vids(), (Vid(0), Vid(4)));
    }
}
