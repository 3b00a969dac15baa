//! Set-associative caches that hold multiple versions of the same address.
//!
//! # Data-oriented layout
//!
//! Storage is three flat parallel arrays instead of a `Vec<Vec<CacheLine>>`:
//!
//! * `metas` — `num_sets * ways` [`LineMeta`] slots (tag/VID metadata, the
//!   only thing the per-access scans read);
//! * `payloads` — one `PayloadId` per slot, pointing into
//! * `arena` — a grow-only [`LineData`] pool recycled through a free list.
//!
//! Set `s` occupies slots `[s*ways, s*ways + set_len[s])`; the live prefix
//! discipline reproduces the push / swap-remove / retain ordering of the
//! previous per-set `Vec` representation *exactly*, so victim selection,
//! way numbering, and every downstream trace stay byte-identical. The split
//! keeps the hot set walks inside a few hardware cache lines (no pointer
//! chasing, no per-line heap allocation), and the payload arena turns line
//! movement between levels into 64-byte copies.
//!
//! The cache also carries the per-cache lazy-commit registers from §5.3:
//! [`lc_vid`](Cache::lc_vid) (latest committed VID) and a commit epoch that
//! stands in for the paper's flash-set Committed Bits.

use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::fmt;

use hmtx_types::{CacheConfig, LineAddr, SimError, VictimPolicy, Vid};

use crate::line::{CacheLine, LineData, LineMeta, LineState};

/// Result of inserting a line version into a cache.
#[derive(Debug)]
pub struct InsertOutcome {
    /// The victim that had to be evicted to make room, if the set was full.
    /// The protocol layer decides what to do with it (write back to the next
    /// level, spill to memory, or abort, per §5.4).
    pub evicted: Option<CacheLine>,
    /// Set index the line landed in (useful for tests and traces).
    pub set: usize,
}

/// Handle into the payload arena. Debug builds also carry a generation,
/// bumped every time a slot is freed, so a stale id held across an
/// eviction can never silently alias the slot's next tenant; release
/// builds drop it, so a cache clone copies one array fewer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PayloadId {
    idx: u32,
    #[cfg(debug_assertions)]
    gen: u32,
}

/// Allocates a boxed slice of `n` zeroed `T` directly from the allocator,
/// so large caches get untouched zero pages instead of element-by-element
/// initialization.
///
/// # Safety
///
/// All-zero bytes must be a valid `T`. True for the slot types used here:
/// [`LineMeta`] (its `LineState` is `repr(u8)` with variant 0 valid, every
/// other field a plain integer/bool) and [`PayloadId`] (`u32`s).
unsafe fn zeroed_slice<T>(n: usize) -> Box<[T]> {
    if n == 0 || std::mem::size_of::<T>() == 0 {
        return Vec::new().into_boxed_slice();
    }
    let layout = Layout::array::<T>(n).expect("slot array size overflows");
    let ptr = alloc_zeroed(layout).cast::<T>();
    if ptr.is_null() {
        handle_alloc_error(layout);
    }
    Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, n))
}

/// The capacity a vector of `len` elements grows to on its next push.
pub fn grown(len: usize) -> usize {
    (2 * len).max(4)
}

/// A set-associative, versioned cache.
///
/// Unlike a conventional cache, one set may contain several lines with the
/// *same address* but different `(modVID, highVID)` version ranges (paper
/// §4.1). Lookups therefore take a caller-supplied predicate that encodes
/// the HMTX hit rules.
///
/// Cloning snapshots the full cache contents (the model checker forks
/// whole memory systems this way); `clone_from` reuses the target's
/// buffers.
pub struct Cache {
    cfg: CacheConfig,
    ways: usize,
    /// `num_sets - 1` (the set count is a power of two): the set index is
    /// a mask, with no division on the probe path.
    set_mask: usize,
    /// `num_sets * ways` metadata slots; set `s` lives at `s*ways ..`.
    metas: Box<[LineMeta]>,
    /// Payload handle per slot, parallel to `metas`.
    payloads: Box<[PayloadId]>,
    /// Live-slot count per set.
    set_len: Box<[u32]>,
    arena: Vec<LineData>,
    /// Generation of each arena slot (debug builds; see [`PayloadId`]).
    #[cfg(debug_assertions)]
    arena_gen: Vec<u32>,
    free: Vec<u32>,
    lc_vid: Vid,
    commit_epoch: u64,
    lru_clock: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the geometry is invalid (see
    /// [`CacheConfig::validate`]).
    pub fn new(cfg: CacheConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        let num_sets = cfg.num_sets();
        let slots = num_sets * cfg.ways;
        // SAFETY: zeroed `LineMeta` and `PayloadId` are valid values (see
        // `zeroed_slice`); slots beyond a set's `set_len` are never read.
        let (metas, payloads) = unsafe { (zeroed_slice(slots), zeroed_slice(slots)) };
        Ok(Cache {
            ways: cfg.ways,
            set_mask: num_sets - 1,
            metas,
            payloads,
            set_len: vec![0u32; num_sets].into_boxed_slice(),
            arena: Vec::new(),
            #[cfg(debug_assertions)]
            arena_gen: Vec::new(),
            free: Vec::new(),
            lc_vid: Vid::NON_SPECULATIVE,
            commit_epoch: 0,
            lru_clock: 0,
            cfg,
        })
    }

    /// The cache geometry and latency.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Access latency in cycles.
    pub fn latency(&self) -> u64 {
        self.cfg.latency
    }

    /// The latest committed VID register (LC VID, §5.3).
    pub fn lc_vid(&self) -> Vid {
        self.lc_vid
    }

    /// Updates the LC VID register (called by the protocol on commit
    /// broadcast or VID reset).
    pub fn set_lc_vid(&mut self, vid: Vid) {
        self.lc_vid = vid;
    }

    /// The current commit epoch. A line whose `commit_epoch` is older has
    /// commit processing pending (the lazy-commit stand-in for the paper's
    /// flash-set CB bits).
    pub fn commit_epoch(&self) -> u64 {
        self.commit_epoch
    }

    /// Advances the commit epoch (O(1) commit broadcast, §5.3).
    pub fn bump_commit_epoch(&mut self) {
        self.commit_epoch += 1;
    }

    /// The set index for an address.
    #[inline]
    pub fn set_index(&self, addr: LineAddr) -> usize {
        (addr.0 as usize) & self.set_mask
    }

    /// Number of sets (`set_index` is always below it).
    pub fn num_sets(&self) -> usize {
        self.set_mask + 1
    }

    #[inline]
    fn base(&self, set: usize) -> usize {
        set * self.ways
    }

    #[inline]
    fn len_of(&self, set: usize) -> usize {
        self.set_len[set] as usize
    }

    /// The metadata of the versions currently stored in `set`, in way order.
    #[inline]
    pub fn set_metas(&self, set: usize) -> &[LineMeta] {
        let base = self.base(set);
        &self.metas[base..base + self.len_of(set)]
    }

    /// Metadata of the version at `(set, way)`.
    #[inline]
    pub fn meta(&self, set: usize, way: usize) -> &LineMeta {
        &self.set_metas(set)[way]
    }

    /// Mutable metadata of the version at `(set, way)`.
    #[inline]
    pub fn meta_mut(&mut self, set: usize, way: usize) -> &mut LineMeta {
        assert!(way < self.len_of(set));
        let base = self.base(set);
        &mut self.metas[base + way]
    }

    #[inline]
    fn payload_index(&self, set: usize, way: usize) -> usize {
        assert!(way < self.len_of(set));
        let pid = self.payloads[self.base(set) + way];
        #[cfg(debug_assertions)]
        assert_eq!(
            self.arena_gen[pid.idx as usize], pid.gen,
            "stale payload id"
        );
        pid.idx as usize
    }

    /// The data payload of the version at `(set, way)`.
    #[inline]
    pub fn data(&self, set: usize, way: usize) -> &LineData {
        &self.arena[self.payload_index(set, way)]
    }

    /// Mutable data payload of the version at `(set, way)`.
    #[inline]
    pub fn data_mut(&mut self, set: usize, way: usize) -> &mut LineData {
        let idx = self.payload_index(set, way);
        &mut self.arena[idx]
    }

    /// Mutable metadata and data of the version at `(set, way)` together.
    #[inline]
    pub fn line_mut(&mut self, set: usize, way: usize) -> (&mut LineMeta, &mut LineData) {
        let idx = self.payload_index(set, way);
        let slot = self.base(set) + way;
        (&mut self.metas[slot], &mut self.arena[idx])
    }

    /// Assembles a by-value copy of the version at `(set, way)`.
    pub fn snapshot(&self, set: usize, way: usize) -> CacheLine {
        CacheLine {
            meta: *self.meta(set, way),
            data: self.data(set, way).clone(),
        }
    }

    /// Finds the way index of the unique version of `addr` in its set
    /// satisfying `pred` (the protocol's hit rule). Updates no LRU state.
    pub fn find_way(&self, addr: LineAddr, pred: impl Fn(&LineMeta) -> bool) -> Option<usize> {
        let set = self.set_index(addr);
        self.set_metas(set)
            .iter()
            .position(|l| l.addr == addr && pred(l))
    }

    /// Whether any version of `addr` is stored (allocation-free probe for
    /// the snoop "shared" wire).
    pub fn holds_addr(&self, addr: LineAddr) -> bool {
        let set = self.set_index(addr);
        self.set_metas(set).iter().any(|l| l.addr == addr)
    }

    /// All way indices holding versions of `addr`.
    pub fn ways_of(&self, addr: LineAddr) -> Vec<usize> {
        let set = self.set_index(addr);
        self.set_metas(set)
            .iter()
            .enumerate()
            .filter(|(_, l)| l.addr == addr)
            .map(|(i, _)| i)
            .collect()
    }

    /// Marks a way as most recently used.
    pub fn touch(&mut self, set: usize, way: usize) {
        self.lru_clock += 1;
        self.meta_mut(set, way).last_used = self.lru_clock;
    }

    fn alloc_payload(&mut self, data: LineData) -> PayloadId {
        if let Some(idx) = self.free.pop() {
            self.arena[idx as usize] = data;
            PayloadId {
                idx,
                #[cfg(debug_assertions)]
                gen: self.arena_gen[idx as usize],
            }
        } else {
            let idx = self.arena.len() as u32;
            self.arena.push(data);
            #[cfg(debug_assertions)]
            self.arena_gen.push(0);
            PayloadId {
                idx,
                #[cfg(debug_assertions)]
                gen: 0,
            }
        }
    }

    /// Frees a payload slot, returning its data.
    fn free_payload(&mut self, pid: PayloadId) -> LineData {
        self.release_payload(pid);
        std::mem::take(&mut self.arena[pid.idx as usize])
    }

    /// Frees a payload slot without reading its data back.
    fn release_payload(&mut self, pid: PayloadId) {
        #[cfg(debug_assertions)]
        {
            assert_eq!(self.arena_gen[pid.idx as usize], pid.gen, "double free");
            self.arena_gen[pid.idx as usize] = self.arena_gen[pid.idx as usize].wrapping_add(1);
        }
        self.free.push(pid.idx);
    }

    /// Removes slot `way` of `set` with swap-remove semantics (the last live
    /// slot moves into the hole), returning the removed version.
    fn remove_slot(&mut self, set: usize, way: usize) -> CacheLine {
        let len = self.len_of(set);
        assert!(way < len);
        let base = self.base(set);
        let meta = self.metas[base + way];
        let data = self.free_payload(self.payloads[base + way]);
        let last = len - 1;
        if way != last {
            self.metas[base + way] = self.metas[base + last];
            self.payloads[base + way] = self.payloads[base + last];
        }
        self.set_len[set] = last as u32;
        CacheLine { meta, data }
    }

    /// Appends a version at the end of its set's live prefix.
    ///
    /// # Panics
    ///
    /// Panics if the set is full.
    fn push_slot(&mut self, set: usize, line: CacheLine) {
        let len = self.len_of(set);
        assert!(len < self.ways, "set overflow");
        let base = self.base(set);
        self.metas[base + len] = line.meta;
        self.payloads[base + len] = self.alloc_payload(line.data);
        self.set_len[set] = (len + 1) as u32;
    }

    /// Removes and returns the version at `(set, way)`.
    pub fn take(&mut self, set: usize, way: usize) -> CacheLine {
        self.remove_slot(set, way)
    }

    /// Plants a version at the end of its set without touching LRU state
    /// (test helper: bypasses victim selection, panics if the set is full).
    pub fn plant(&mut self, line: CacheLine) {
        let set = self.set_index(line.meta.addr);
        self.push_slot(set, line);
    }

    /// Inserts a line version, evicting a victim chosen by `policy` if the
    /// set is full. The inserted line becomes most recently used.
    pub fn insert(&mut self, mut line: CacheLine, policy: VictimPolicy) -> InsertOutcome {
        let set = self.set_index(line.meta.addr);
        self.lru_clock += 1;
        line.meta.last_used = self.lru_clock;
        let evicted = if self.len_of(set) >= self.ways {
            let victim = choose_victim(self.set_metas(set), policy);
            Some(self.remove_slot(set, victim))
        } else {
            None
        };
        self.push_slot(set, line);
        InsertOutcome { evicted, set }
    }

    /// Walks the versions of `set` in way order, dropping those for which
    /// `f` returns [`LineFate::Invalidate`] (order-preserving compaction,
    /// matching `Vec::retain_mut`). `f` sees only metadata — the walks that
    /// use this (lazy commit processing, invalidation sweeps) never read
    /// payload bytes.
    pub fn retain_set(&mut self, set: usize, mut f: impl FnMut(&mut LineMeta) -> LineFate) {
        let base = self.base(set);
        let len = self.len_of(set);
        let mut keep = 0usize;
        for i in 0..len {
            match f(&mut self.metas[base + i]) {
                LineFate::Keep => {
                    if keep != i {
                        self.metas[base + keep] = self.metas[base + i];
                        self.payloads[base + keep] = self.payloads[base + i];
                    }
                    keep += 1;
                }
                LineFate::Invalidate => {
                    self.release_payload(self.payloads[base + i]);
                }
            }
        }
        self.set_len[set] = keep as u32;
    }

    /// Iterates over every stored line version in set/way order (used by the
    /// eager commit ablation, abort flush, VID reset, and drain walks),
    /// dropping lines for which `f` returns [`LineFate::Invalidate`].
    pub fn for_each_line_mut(&mut self, mut f: impl FnMut(&mut LineMeta, &LineData) -> LineFate) {
        for set in 0..self.set_len.len() {
            let base = self.base(set);
            let len = self.len_of(set);
            let mut keep = 0usize;
            for i in 0..len {
                let pid = self.payloads[base + i];
                let fate = f(&mut self.metas[base + i], &self.arena[pid.idx as usize]);
                match fate {
                    LineFate::Keep => {
                        if keep != i {
                            self.metas[base + keep] = self.metas[base + i];
                            self.payloads[base + keep] = self.payloads[base + i];
                        }
                        keep += 1;
                    }
                    LineFate::Invalidate => self.release_payload(pid),
                }
            }
            self.set_len[set] = keep as u32;
        }
    }

    /// Total number of line versions currently stored.
    pub fn occupancy(&self) -> usize {
        self.set_len.iter().map(|&n| n as usize).sum()
    }

    /// Total number of ways in the cache.
    pub fn capacity(&self) -> usize {
        self.cfg.num_lines()
    }

    /// Returns the protocol-visible *abstract view* of every stored
    /// version, sorted into a canonical order.
    ///
    /// The view erases everything a request cannot observe: absolute
    /// `commit_epoch` values collapse to a "pending lazy commit" flag
    /// (§5.3), absolute `last_used` timestamps collapse to per-set LRU
    /// ranks, and way order within a set is normalized by sorting. Two
    /// caches that no sequence of requests can tell apart produce
    /// identical views — which is exactly what the explicit-state model
    /// checker needs to fold equivalent states together.
    pub fn abstract_view(&self) -> Vec<AbstractLine> {
        let mut out = Vec::with_capacity(self.occupancy());
        out.extend(self.abstract_lines());
        out.sort_by_key(AbstractLine::sort_key);
        out
    }

    /// The versions of [`Self::abstract_view`] in set and way order,
    /// without collecting or sorting them.
    pub fn abstract_lines(&self) -> impl Iterator<Item = AbstractLine> + '_ {
        (0..self.num_sets()).flat_map(move |set| {
            let metas = self.set_metas(set);
            metas.iter().enumerate().map(move |(w, l)| {
                // Per-set LRU rank: the number of ways with a smaller
                // `(last_used, way)` (way index breaks exact ties, matching
                // the deterministic tie-break of `lru_index`).
                let older = metas
                    .iter()
                    .enumerate()
                    .filter(|&(v, o)| (o.last_used, v) < (l.last_used, w))
                    .count();
                AbstractLine {
                    set,
                    addr: l.addr,
                    state: l.state,
                    mod_vid: l.mod_vid,
                    high_vid: l.high_vid,
                    phantom_high: l.phantom_high,
                    shared_hint: l.shared_hint,
                    commit_pending: l.commit_epoch < self.commit_epoch,
                    lru_rank: older as u8,
                    word0: self.data(set, w).read_u64(0),
                }
            })
        })
    }
}

/// One stored line version as the protocol can observe it (see
/// [`Cache::abstract_view`]): no absolute epochs, clocks, or way indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AbstractLine {
    /// Set index the version lives in.
    pub set: usize,
    /// Line address tag.
    pub addr: LineAddr,
    /// Coherence state.
    pub state: LineState,
    /// Version-creating VID.
    pub mod_vid: Vid,
    /// Highest observing VID.
    pub high_vid: Vid,
    /// Highest wrong-path phantom mark (§5.1).
    pub phantom_high: Vid,
    /// Uncommitted-value-forwarding residue hint.
    pub shared_hint: bool,
    /// `true` if lazy commit processing (§5.3) has not yet been applied.
    pub commit_pending: bool,
    /// LRU position within the set (0 = least recently used).
    pub lru_rank: u8,
    /// First data word (the model checker abstracts line data to one
    /// deterministically stamped word).
    pub word0: u64,
}

impl AbstractLine {
    /// Canonical sort key (also usable as an encoding tuple).
    #[allow(clippy::type_complexity)]
    #[must_use]
    pub fn sort_key(&self) -> (usize, u64, u8, u16, u16, u16, bool, bool, u8, u64) {
        (
            self.set,
            self.addr.0,
            self.state as u8,
            self.mod_vid.0,
            self.high_vid.0,
            self.phantom_high.0,
            self.shared_hint,
            self.commit_pending,
            self.lru_rank,
            self.word0,
        )
    }
}

impl Clone for Cache {
    fn clone(&self) -> Self {
        Cache {
            cfg: self.cfg,
            ways: self.ways,
            set_mask: self.set_mask,
            metas: self.metas.clone(),
            payloads: self.payloads.clone(),
            set_len: self.set_len.clone(),
            arena: self.arena.clone(),
            #[cfg(debug_assertions)]
            arena_gen: self.arena_gen.clone(),
            free: self.free.clone(),
            lc_vid: self.lc_vid,
            commit_epoch: self.commit_epoch,
            lru_clock: self.lru_clock,
        }
    }

    /// Copies `source` into the existing slot arrays, arena and free list
    /// (no allocation when the geometries match and the target's buffers
    /// have about the source's room). Every field is named, so a new one
    /// fails to compile here instead of being skipped.
    fn clone_from(&mut self, source: &Self) {
        let Cache {
            cfg,
            ways,
            set_mask,
            metas,
            payloads,
            set_len,
            arena,
            #[cfg(debug_assertions)]
            arena_gen,
            free,
            lc_vid,
            commit_epoch,
            lru_clock,
        } = self;
        *cfg = source.cfg;
        *ways = source.ways;
        *set_mask = source.set_mask;
        metas.clone_from(&source.metas);
        payloads.clone_from(&source.payloads);
        set_len.clone_from(&source.set_len);
        // The arena is reused only when it has no more room than a fresh
        // clone grows to on its next push, so a recycled copy holds no
        // more memory than a stepped `clone()` would.
        if (source.arena.len()..=grown(source.arena.len())).contains(&arena.capacity()) {
            arena.clone_from(&source.arena);
        } else {
            *arena = source.arena.clone();
        }
        #[cfg(debug_assertions)]
        arena_gen.clone_from(&source.arena_gen);
        free.clone_from(&source.free);
        *lc_vid = source.lc_vid;
        *commit_epoch = source.commit_epoch;
        *lru_clock = source.lru_clock;
    }
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The slot arrays can span hundreds of thousands of entries; print
        // the registers and a summary instead of the raw storage.
        f.debug_struct("Cache")
            .field("cfg", &self.cfg)
            .field("occupancy", &self.occupancy())
            .field("lc_vid", &self.lc_vid)
            .field("commit_epoch", &self.commit_epoch)
            .field("lru_clock", &self.lru_clock)
            .finish_non_exhaustive()
    }
}

/// Whether a walked line survives (see [`Cache::for_each_line_mut`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineFate {
    /// Keep the (possibly modified) line.
    Keep,
    /// Drop the line (transition to Invalid).
    Invalidate,
}

/// Chooses an eviction victim among the (full) set per §5.4.
///
/// Preference order for [`VictimPolicy::PreferSafeOverflow`]:
/// 1. non-speculative clean lines (free to drop),
/// 2. non-speculative dirty lines (normal writeback),
/// 3. overflow-safe `S-O(0,·)` lines,
/// 4. anything else (evicting these past the LLC forces an abort),
///
/// breaking ties by LRU. [`VictimPolicy::PlainLru`] ignores state.
fn choose_victim(set: &[LineMeta], policy: VictimPolicy) -> usize {
    assert!(!set.is_empty());
    match policy {
        VictimPolicy::PlainLru => lru_index(set, |_| true),
        VictimPolicy::PreferSafeOverflow => {
            let class = |l: &LineMeta| -> u8 {
                if !l.state.is_speculative() {
                    if l.state.is_dirty() {
                        1
                    } else {
                        0
                    }
                } else if l.state == LineState::SpecOwned && l.mod_vid.is_non_speculative() {
                    2
                } else {
                    3
                }
            };
            let best_class = set.iter().map(&class).min().unwrap();
            lru_index(set, |l| class(l) == best_class)
        }
    }
}

fn lru_index(set: &[LineMeta], pred: impl Fn(&LineMeta) -> bool) -> usize {
    set.iter()
        .enumerate()
        .filter(|(_, l)| pred(l))
        .min_by_key(|(_, l)| l.last_used)
        .map(|(i, _)| i)
        .expect("predicate matched no line")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmtx_types::CacheConfig;

    fn small_cache() -> Cache {
        // 2 sets x 2 ways.
        Cache::new(CacheConfig {
            size_bytes: 2 * 2 * 64,
            ways: 2,
            latency: 1,
        })
        .unwrap()
    }

    fn line(addr: u64, state: LineState) -> CacheLine {
        CacheLine::non_speculative(LineAddr(addr), state)
    }

    #[test]
    fn insert_and_find() {
        let mut c = small_cache();
        c.insert(
            line(0, LineState::Exclusive),
            VictimPolicy::PreferSafeOverflow,
        );
        c.insert(line(1, LineState::Shared), VictimPolicy::PreferSafeOverflow);
        assert!(c.find_way(LineAddr(0), |_| true).is_some());
        assert!(c.find_way(LineAddr(1), |_| true).is_some());
        assert!(c.find_way(LineAddr(2), |_| true).is_none());
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn bad_geometry_is_an_error_not_a_panic() {
        let err = Cache::new(CacheConfig {
            size_bytes: 100,
            ways: 3,
            latency: 1,
        })
        .unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "{err:?}");
        assert!(err.to_string().contains("invalid configuration"));
    }

    #[test]
    fn same_address_multiple_versions_coexist() {
        let mut c = small_cache();
        let mut v0 = line(0, LineState::Exclusive);
        v0.state = LineState::SpecOwned;
        v0.high_vid = Vid(1);
        let mut v1 = line(0, LineState::Exclusive);
        v1.state = LineState::SpecModified;
        v1.mod_vid = Vid(1);
        v1.high_vid = Vid(1);
        c.insert(v0, VictimPolicy::PreferSafeOverflow);
        c.insert(v1, VictimPolicy::PreferSafeOverflow);
        assert_eq!(c.ways_of(LineAddr(0)).len(), 2);
    }

    #[test]
    fn lru_eviction_in_plain_mode() {
        let mut c = small_cache();
        // Set 0 holds even line addresses (2 sets).
        c.insert(line(0, LineState::Exclusive), VictimPolicy::PlainLru);
        c.insert(line(2, LineState::Exclusive), VictimPolicy::PlainLru);
        // Touch line 0 so line 2 is LRU.
        let way = c.find_way(LineAddr(0), |_| true).unwrap();
        c.touch(0, way);
        let out = c.insert(line(4, LineState::Exclusive), VictimPolicy::PlainLru);
        let evicted = out.evicted.expect("set was full");
        assert_eq!(evicted.addr, LineAddr(2));
    }

    #[test]
    fn lru_tie_break_picks_lowest_way() {
        // Two untouched lines share last_used only if planted; real inserts
        // stamp strictly increasing clocks, so force a tie via plant().
        let mut c = small_cache();
        c.plant(line(0, LineState::Exclusive));
        c.plant(line(2, LineState::Exclusive));
        // Both have last_used == 0: the victim must be way 0 (first minimum
        // in way order), i.e. line 0.
        let out = c.insert(line(4, LineState::Exclusive), VictimPolicy::PlainLru);
        assert_eq!(out.evicted.unwrap().addr, LineAddr(0));
    }

    #[test]
    fn eviction_preserves_way_order_of_survivors() {
        // swap_remove semantics: evicting way 0 moves the *last* line into
        // way 0, then the new line lands at the end.
        let mut c = small_cache();
        c.insert(line(0, LineState::Exclusive), VictimPolicy::PlainLru);
        c.insert(line(2, LineState::Exclusive), VictimPolicy::PlainLru);
        let out = c.insert(line(4, LineState::Exclusive), VictimPolicy::PlainLru);
        assert_eq!(out.evicted.unwrap().addr, LineAddr(0), "way 0 was LRU");
        let metas = c.set_metas(0);
        assert_eq!(metas[0].addr, LineAddr(2), "last line moved into the hole");
        assert_eq!(metas[1].addr, LineAddr(4), "new line appended");
    }

    #[test]
    fn victim_policy_prefers_clean_then_dirty_then_safe_spec() {
        let mut c = small_cache();
        let mut spec = line(0, LineState::Exclusive);
        spec.state = LineState::SpecModified;
        spec.mod_vid = Vid(1);
        spec.high_vid = Vid(1);
        c.insert(spec, VictimPolicy::PreferSafeOverflow);
        c.insert(
            line(2, LineState::Modified),
            VictimPolicy::PreferSafeOverflow,
        );
        // Dirty non-spec line is preferred over the S-M line even though the
        // S-M line is older.
        let out = c.insert(
            line(4, LineState::Exclusive),
            VictimPolicy::PreferSafeOverflow,
        );
        assert_eq!(out.evicted.unwrap().addr, LineAddr(2));
    }

    #[test]
    fn victim_policy_prefers_safe_overflow_over_unsafe_spec() {
        let mut c = small_cache();
        let mut sm = line(0, LineState::Exclusive);
        sm.state = LineState::SpecModified;
        sm.mod_vid = Vid(2);
        sm.high_vid = Vid(2);
        let mut so = line(2, LineState::Exclusive);
        so.state = LineState::SpecOwned;
        so.high_vid = Vid(2); // modVID 0: overflow-safe
        c.insert(sm, VictimPolicy::PreferSafeOverflow);
        c.insert(so, VictimPolicy::PreferSafeOverflow);
        let out = c.insert(
            line(4, LineState::Exclusive),
            VictimPolicy::PreferSafeOverflow,
        );
        assert_eq!(
            out.evicted.unwrap().addr,
            LineAddr(2),
            "S-O(0,2) preferred victim"
        );
    }

    #[test]
    fn take_removes_version() {
        let mut c = small_cache();
        c.insert(
            line(0, LineState::Exclusive),
            VictimPolicy::PreferSafeOverflow,
        );
        let way = c.find_way(LineAddr(0), |_| true).unwrap();
        let l = c.take(0, way);
        assert_eq!(l.addr, LineAddr(0));
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn payload_arena_recycles_freed_slots() {
        let mut c = small_cache();
        let mut a = line(0, LineState::Modified);
        a.data.write_u64(0, 7);
        c.insert(a, VictimPolicy::PlainLru);
        let way = c.find_way(LineAddr(0), |_| true).unwrap();
        let taken = c.take(0, way);
        assert_eq!(taken.data.read_u64(0), 7);
        // Reuse the freed arena slot; the old id's generation is stale.
        let mut b = line(2, LineState::Modified);
        b.data.write_u64(0, 9);
        c.insert(b, VictimPolicy::PlainLru);
        let way = c.find_way(LineAddr(2), |_| true).unwrap();
        assert_eq!(c.data(0, way).read_u64(0), 9);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn for_each_line_mut_can_invalidate() {
        let mut c = small_cache();
        c.insert(
            line(0, LineState::Exclusive),
            VictimPolicy::PreferSafeOverflow,
        );
        c.insert(
            line(1, LineState::Modified),
            VictimPolicy::PreferSafeOverflow,
        );
        c.for_each_line_mut(|l, _| {
            if l.state == LineState::Exclusive {
                LineFate::Invalidate
            } else {
                LineFate::Keep
            }
        });
        assert_eq!(c.occupancy(), 1);
        assert!(c.find_way(LineAddr(1), |_| true).is_some());
    }

    #[test]
    fn retain_set_preserves_order_like_vec_retain() {
        let mut c = small_cache();
        // 1 set of interest: set 0 gets lines 0 and 2.
        c.insert(line(0, LineState::Exclusive), VictimPolicy::PlainLru);
        c.insert(line(2, LineState::Shared), VictimPolicy::PlainLru);
        c.retain_set(0, |l| {
            if l.addr == LineAddr(0) {
                LineFate::Invalidate
            } else {
                LineFate::Keep
            }
        });
        let metas = c.set_metas(0);
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].addr, LineAddr(2), "survivor compacts to way 0");
        // The freed payload is recycled by the next insert.
        c.insert(line(4, LineState::Exclusive), VictimPolicy::PlainLru);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn commit_epoch_and_lc_vid_registers() {
        let mut c = small_cache();
        assert_eq!(c.commit_epoch(), 0);
        assert_eq!(c.lc_vid(), Vid(0));
        c.bump_commit_epoch();
        c.set_lc_vid(Vid(5));
        assert_eq!(c.commit_epoch(), 1);
        assert_eq!(c.lc_vid(), Vid(5));
    }

    #[test]
    fn capacity_reporting() {
        let c = small_cache();
        assert_eq!(c.capacity(), 4);
        assert_eq!(c.config().num_sets(), 2);
        assert_eq!(c.num_sets(), 2);
    }

    #[test]
    fn cached_set_mask_matches_the_geometry() {
        for (size_bytes, ways) in [(64, 1), (1024, 4), (64 * 1024, 8), (32 << 20, 32)] {
            let cfg = CacheConfig {
                size_bytes,
                ways,
                latency: 1,
            };
            let c = Cache::new(cfg).unwrap();
            assert_eq!(c.num_sets(), cfg.num_sets());
            for line in [0u64, 1, 63, 64, 0x1234_5678, u64::MAX] {
                assert_eq!(
                    c.set_index(LineAddr(line)),
                    LineAddr(line).set_index(cfg.num_sets()),
                    "line {line:#x} in {size_bytes} B / {ways}-way"
                );
            }
        }
    }

    #[test]
    fn debug_output_is_compact_even_for_large_caches() {
        let c = Cache::new(CacheConfig {
            size_bytes: 1024 * 1024,
            ways: 8,
            latency: 10,
        })
        .unwrap();
        let s = format!("{c:?}");
        assert!(s.len() < 500, "Debug must summarize, got {} chars", s.len());
        assert!(s.contains("occupancy"));
    }
}
