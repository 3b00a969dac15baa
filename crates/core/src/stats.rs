//! Memory-system statistics: hit/miss counters, SLA accounting, per-VID
//! read/write set tracking (Figure 9, Table 1), VID-comparator activity
//! counts for the §4.5 energy model, and the [`LatencyHistogram`] long-run
//! service-time accounting used by `hmtx-serve`.
//!
//! Counter hygiene: everything that accumulates over a run is `u64`, and
//! every accumulation in this module saturates. Per-simulation counters are
//! bounded by the instruction budget, but the serving layer keeps
//! histograms and totals alive for the lifetime of a multi-hour process —
//! a counter that wraps (or panics in debug builds) is a worse outcome
//! than one that pins at `u64::MAX`.

use hmtx_types::{hash::FxHashSet, LineAddr, Vid};

/// Saturating in-place increment for long-run `u64` counters.
#[inline]
pub fn inc(counter: &mut u64) {
    *counter = counter.saturating_add(1);
}

/// Saturating in-place add for long-run `u64` counters.
#[inline]
pub fn add(counter: &mut u64, n: u64) {
    *counter = counter.saturating_add(n);
}

/// Aggregate sizes of the read/write sets of completed transactions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RwSetTotals {
    /// Number of committed transactions measured.
    pub transactions: u64,
    /// Sum over transactions of distinct lines speculatively read.
    pub read_lines: u64,
    /// Sum over transactions of distinct lines speculatively written.
    pub write_lines: u64,
    /// Sum over transactions of distinct lines speculatively accessed
    /// (union of read and write sets).
    pub combined_lines: u64,
}

impl RwSetTotals {
    /// Average read-set size per transaction in kilobytes (64 B lines).
    pub fn avg_read_kb(&self) -> f64 {
        self.avg_kb(self.read_lines)
    }

    /// Average write-set size per transaction in kilobytes.
    pub fn avg_write_kb(&self) -> f64 {
        self.avg_kb(self.write_lines)
    }

    /// Average combined-set size per transaction in kilobytes.
    pub fn avg_combined_kb(&self) -> f64 {
        self.avg_kb(self.combined_lines)
    }

    fn avg_kb(&self, lines: u64) -> f64 {
        if self.transactions == 0 {
            0.0
        } else {
            (lines as f64) * 64.0 / 1024.0 / (self.transactions as f64)
        }
    }
}

/// Counters maintained by the [`MemorySystem`](crate::MemorySystem).
#[derive(Debug, Default)]
pub struct MemStats {
    /// Total load requests (speculative and not, excluding wrong-path).
    pub loads: u64,
    /// Total store requests.
    pub stores: u64,
    /// Loads carrying a speculative VID.
    pub spec_loads: u64,
    /// Stores carrying a speculative VID.
    pub spec_stores: u64,
    /// Wrong-path (branch-speculative, later squashed) loads issued.
    pub wrong_path_loads: u64,
    /// Requests satisfied by the local L1.
    pub l1_hits: u64,
    /// Requests that missed the local L1.
    pub l1_misses: u64,
    /// Misses satisfied by a peer L1 (cache-to-cache transfer).
    pub peer_transfers: u64,
    /// Misses satisfied by the shared L2.
    pub l2_hits: u64,
    /// Misses satisfied by main memory.
    pub mem_fills: u64,
    /// Ownership upgrades (invalidations of peer copies).
    pub upgrades: u64,
    /// Speculative load acknowledgments sent to the cache system (§5.1).
    pub slas_sent: u64,
    /// Speculative loads that needed no SLA because the line already logged
    /// their VID (§5.1).
    pub slas_skipped: u64,
    /// False misspeculations avoided by the SLA filter: stores that would
    /// have aborted had wrong-path loads marked lines (Table 1).
    pub sla_aborts_avoided: u64,
    /// Group commits processed.
    pub commits: u64,
    /// Aborts processed (all causes).
    pub aborts: u64,
    /// VID resets processed (§4.6).
    pub vid_resets: u64,
    /// Overflow-safe `S-O(0,·)` lines written back past the LLC (§5.4).
    pub safe_overflow_writebacks: u64,
    /// Lines refetched from memory in `S-O(0,a+1)` after a safe overflow.
    pub overflow_refills: u64,
    /// VID comparisons resolved by the short low-3-bit comparator (§4.5).
    pub short_vid_compares: u64,
    /// VID comparisons needing the cascaded full comparison (§4.5).
    pub cascaded_vid_compares: u64,
    /// Lines walked by eager commit processing (ablation A).
    pub eager_commit_lines_walked: u64,
    /// Directory home-bank lookups (§8 directory interconnect).
    pub directory_lookups: u64,
    /// Speculative versions spilled to the §8 unbounded-sets overflow table.
    pub unbounded_spills: u64,
    /// Speculative versions retrieved from the overflow table.
    pub unbounded_fills: u64,
    /// Spurious conflict misspeculations injected by the fault plan
    /// (chaos testing; zero unless `MachineConfig::faults` is set).
    pub injected_conflicts: u64,

    rw_totals: RwSetTotals,
    live: LiveSets,
}

/// The read and write sets of live (uncommitted) transactions, indexed
/// densely by VID: VIDs are small (`vid_bits <= 12`), so a vector slot per
/// VID replaces a tree lookup on every speculative access. A transaction
/// is live iff either of its sets is nonempty.
#[derive(Debug, Default)]
struct LiveSets {
    txs: Vec<TxSets>,
    /// Every slot below `lo` is empty, so finalization starts its
    /// ascending-VID walk here instead of at VID 0.
    lo: usize,
}

/// One transaction's distinct lines.
#[derive(Debug, Clone)]
struct TxSets {
    reads: LineSet,
    writes: LineSet,
    /// The line last added to each set ([`NO_LINE`] before the first):
    /// runs of accesses to one line skip the set probe.
    last_read: LineAddr,
    last_write: LineAddr,
}

/// No line: line addresses are byte addresses shifted right by the line
/// size, so they never reach `u64::MAX`.
const NO_LINE: LineAddr = LineAddr(u64::MAX);

impl Default for TxSets {
    fn default() -> Self {
        TxSets {
            reads: LineSet::default(),
            writes: LineSet::default(),
            last_read: NO_LINE,
            last_write: NO_LINE,
        }
    }
}

/// Lines a set holds inline before it moves to a hash table: as many as
/// the model checker's kernels give one transaction, so a forked model
/// state copies its live sets without a heap allocation.
const INLINE_LINES: usize = 4;

/// A set of distinct lines, inline while small and hashed beyond
/// [`INLINE_LINES`].
#[derive(Debug, Clone)]
enum LineSet {
    Inline {
        len: u8,
        lines: [LineAddr; INLINE_LINES],
    },
    Hashed(FxHashSet<LineAddr>),
}

impl Default for LineSet {
    fn default() -> Self {
        LineSet::Inline {
            len: 0,
            lines: [NO_LINE; INLINE_LINES],
        }
    }
}

impl LineSet {
    fn len(&self) -> usize {
        match self {
            LineSet::Inline { len, .. } => usize::from(*len),
            LineSet::Hashed(set) => set.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn contains(&self, line: LineAddr) -> bool {
        match self {
            LineSet::Inline { len, lines } => lines[..usize::from(*len)].contains(&line),
            LineSet::Hashed(set) => set.contains(&line),
        }
    }

    fn insert(&mut self, line: LineAddr) {
        match self {
            LineSet::Inline { len, lines } => {
                let n = usize::from(*len);
                if lines[..n].contains(&line) {
                    return;
                }
                if n < INLINE_LINES {
                    lines[n] = line;
                    *len += 1;
                } else {
                    let mut set: FxHashSet<LineAddr> = lines.iter().copied().collect();
                    set.insert(line);
                    *self = LineSet::Hashed(set);
                }
            }
            LineSet::Hashed(set) => {
                set.insert(line);
            }
        }
    }

    /// How many of this set's lines `other` lacks.
    fn count_not_in(&self, other: &LineSet) -> usize {
        match self {
            LineSet::Inline { len, lines } => lines[..usize::from(*len)]
                .iter()
                .filter(|&&l| !other.contains(l))
                .count(),
            LineSet::Hashed(set) => set.iter().filter(|&&l| !other.contains(l)).count(),
        }
    }
}

// `clone_from` reuses the target's vectors. `MemStats` copies its plain
// counters by struct update, which names every other field: a new field
// that is not `Copy` fails to compile there instead of being skipped. The
// live sets name every field.
impl Clone for MemStats {
    fn clone(&self) -> Self {
        MemStats {
            live: self.live.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let mut live = std::mem::take(&mut self.live);
        live.clone_from(&source.live);
        *self = MemStats { live, ..*source };
    }
}

impl Clone for LiveSets {
    fn clone(&self) -> Self {
        LiveSets {
            txs: self.txs.clone(),
            lo: self.lo,
        }
    }

    /// Reuses the target's slot vector only when it has no more room than
    /// a fresh clone grows to, so a recycled copy holds no more memory than
    /// a stepped `clone()` would.
    fn clone_from(&mut self, source: &Self) {
        let LiveSets { txs, lo } = self;
        if (source.txs.len()..=hmtx_mem::cache::grown(source.txs.len())).contains(&txs.capacity()) {
            txs.clone_from(&source.txs);
        } else {
            *txs = source.txs.clone();
        }
        *lo = source.lo;
    }
}

impl TxSets {
    fn is_live(&self) -> bool {
        !self.reads.is_empty() || !self.writes.is_empty()
    }
}

impl LiveSets {
    /// The sets of `vid`, growing the vector to cover it.
    #[inline]
    fn slot(&mut self, vid: Vid) -> &mut TxSets {
        let v = usize::from(vid.0);
        if v >= self.txs.len() {
            self.txs.resize_with(v + 1, TxSets::default);
        }
        if v < self.lo {
            self.lo = v;
        }
        &mut self.txs[v]
    }

    fn get(&self, vid: Vid) -> Option<&TxSets> {
        self.txs.get(usize::from(vid.0))
    }
}

impl MemStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a speculative read of `line` by transaction `vid`.
    pub fn record_spec_read(&mut self, vid: Vid, line: LineAddr) {
        let tx = self.live.slot(vid);
        if tx.last_read != line {
            tx.last_read = line;
            tx.reads.insert(line);
        }
    }

    /// Records a speculative write of `line` by transaction `vid`.
    pub fn record_spec_write(&mut self, vid: Vid, line: LineAddr) {
        let tx = self.live.slot(vid);
        if tx.last_write != line {
            tx.last_write = line;
            tx.writes.insert(line);
        }
    }

    /// Finalizes the read/write sets of every transaction with VID `<= lc`
    /// (called at group commit), in ascending VID order — the order the
    /// transactions logically committed in.
    pub fn finalize_committed(&mut self, lc: Vid) {
        let live = &mut self.live;
        let end = (usize::from(lc.0) + 1).min(live.txs.len());
        for v in live.lo..end {
            if !live.txs[v].is_live() {
                continue;
            }
            let tx = std::mem::take(&mut live.txs[v]);
            inc(&mut self.rw_totals.transactions);
            add(&mut self.rw_totals.read_lines, tx.reads.len() as u64);
            add(&mut self.rw_totals.write_lines, tx.writes.len() as u64);
            add(
                &mut self.rw_totals.combined_lines,
                (tx.reads.len() + tx.writes.count_not_in(&tx.reads)) as u64,
            );
        }
        live.lo = live.lo.max(end);
    }

    /// Discards the live sets of every uncommitted transaction (on abort).
    pub fn discard_uncommitted(&mut self) {
        self.live.txs.clear();
        self.live.lo = 0;
    }

    /// Distinct cache lines speculatively read so far by live transaction
    /// `vid` (HyTM fast-path capacity bound checks).
    pub fn live_read_lines(&self, vid: Vid) -> usize {
        self.live.get(vid).map_or(0, |tx| tx.reads.len())
    }

    /// Distinct cache lines speculatively written so far by live transaction
    /// `vid` (HyTM fast-path capacity bound checks).
    pub fn live_write_lines(&self, vid: Vid) -> usize {
        self.live.get(vid).map_or(0, |tx| tx.writes.len())
    }

    /// Read/write set totals over committed transactions (Figure 9).
    pub fn rw_totals(&self) -> RwSetTotals {
        self.rw_totals
    }

    /// Records one VID hit-check comparison (§4.5): `short` when the high
    /// bits of both VIDs match (the common case), `cascaded` otherwise.
    pub fn record_vid_compare(&mut self, a: Vid, b: Vid, vid_bits: u32) {
        let low_bits = vid_bits / 2;
        if (a.0 >> low_bits) == (b.0 >> low_bits) {
            inc(&mut self.short_vid_compares);
        } else {
            inc(&mut self.cascaded_vid_compares);
        }
    }
}

// ------------------------------------------------------ service latencies

/// Sub-buckets per power of two in a [`LatencyHistogram`], as a bit
/// count: each octave `[2^e, 2^(e+1))` splits into `2^6 = 64` equal-width
/// buckets, so a bucket's upper edge is within `1/64` (1.6%) of any sample
/// in it.
const SUB_BITS: u32 = 6;

/// Samples below this many microseconds get one exact bucket each.
const LINEAR_LIMIT: u64 = 2 << SUB_BITS;

/// Number of log-linear buckets in a [`LatencyHistogram`]: the exact
/// buckets below `LINEAR_LIMIT`, then 64 per octave up to `2^64`.
pub const LATENCY_BUCKETS: usize =
    LINEAR_LIMIT as usize + (63 - SUB_BITS as usize) * (1 << SUB_BITS);

/// The bucket holding `us`: exact below [`LINEAR_LIMIT`], else octave
/// `e = floor(log2 us)` and the `SUB_BITS` bits below its leading one.
fn latency_bucket(us: u64) -> usize {
    if us < LINEAR_LIMIT {
        return us as usize;
    }
    let e = 63 - us.leading_zeros();
    let shift = e - SUB_BITS;
    let sub = (us >> shift) as usize - (1 << SUB_BITS);
    LINEAR_LIMIT as usize + (shift as usize - 1) * (1 << SUB_BITS) + sub
}

/// The largest value [`latency_bucket`] maps to `bucket`.
fn latency_bucket_upper(bucket: usize) -> u64 {
    if bucket < LINEAR_LIMIT as usize {
        return bucket as u64;
    }
    let k = bucket - LINEAR_LIMIT as usize;
    let shift = (k >> SUB_BITS) as u32 + 1;
    let next = ((1u128 << SUB_BITS) + (k as u128 & ((1 << SUB_BITS) - 1)) + 1) << shift;
    u64::try_from(next - 1).unwrap_or(u64::MAX)
}

/// A fixed-footprint log-linear histogram of service times in
/// microseconds.
///
/// Built for long-running servers: recording is O(1) and allocation-free,
/// memory is constant, counts saturate rather than wrap, and quantile
/// estimation never needs the raw samples. Samples below 128 µs are
/// counted exactly; above, every power of two splits into 64 equal
/// buckets. A reported quantile is the upper edge of the bucket holding
/// the nearest-rank sample, clamped to the observed maximum, so it is
/// never below that sample and at most 1.6% above it.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Box<[u64]>,
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; LATENCY_BUCKETS].into_boxed_slice(),
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }

    /// Records one service time in microseconds.
    pub fn record_us(&mut self, us: u64) {
        inc(&mut self.buckets[latency_bucket(us)]);
        inc(&mut self.count);
        add(&mut self.sum_us, us);
        self.max_us = self.max_us.max(us);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples in microseconds (saturating).
    #[must_use]
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Largest recorded sample in microseconds.
    #[must_use]
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Mean service time in microseconds (0 when empty).
    #[must_use]
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// The nearest-rank `q`-quantile (`0.0..=1.0`) as the upper edge of
    /// the bucket that sample falls in, clamped to the observed maximum.
    /// Returns 0 when no samples were recorded.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the quantile sample, 1-based, in [1, count].
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return latency_bucket_upper(i).min(self.max_us);
            }
        }
        self.max_us
    }

    /// Merges another histogram into this one (saturating).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            add(a, *b);
        }
        add(&mut self.count, other.count);
        add(&mut self.sum_us, other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// The non-mutating form of [`LatencyHistogram::merge`]: a new histogram
    /// holding both inputs' samples (saturating). Associative and
    /// commutative, so a router can fold any number of per-backend (or
    /// per-connection) histograms in any order and report one set of
    /// quantiles over the union.
    #[must_use]
    pub fn combine(&self, other: &LatencyHistogram) -> LatencyHistogram {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// The `(p50, p99, p999)` quantile triple every latency report uses.
    #[must_use]
    pub fn quantile_triple_us(&self) -> (u64, u64, u64) {
        (
            self.quantile_us(0.50),
            self.quantile_us(0.99),
            self.quantile_us(0.999),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_sets_accumulate_distinct_lines() {
        let mut s = MemStats::new();
        s.record_spec_read(Vid(1), LineAddr(1));
        s.record_spec_read(Vid(1), LineAddr(1));
        s.record_spec_read(Vid(1), LineAddr(2));
        s.record_spec_write(Vid(1), LineAddr(2));
        s.record_spec_write(Vid(1), LineAddr(3));
        s.finalize_committed(Vid(1));
        let t = s.rw_totals();
        assert_eq!(t.transactions, 1);
        assert_eq!(t.read_lines, 2);
        assert_eq!(t.write_lines, 2);
        assert_eq!(t.combined_lines, 3, "union of {{1,2}} and {{2,3}}");
    }

    /// The VIDs whose read or write set is live, ascending.
    fn live_vids(s: &MemStats) -> Vec<u16> {
        (0..s.live.txs.len())
            .filter(|&v| s.live.txs[v].is_live())
            .map(|v| v as u16)
            .collect()
    }

    #[test]
    fn line_sets_count_distinct_lines_past_the_inline_capacity() {
        // Reads spill from the inline array to a hash table; writes stay
        // inline; the union counts each shared line once either way.
        let mut s = MemStats::new();
        let n = INLINE_LINES as u64 + 3;
        for line in (0..n).chain(0..n) {
            s.record_spec_read(Vid(1), LineAddr(line));
        }
        s.record_spec_write(Vid(1), LineAddr(1));
        s.record_spec_write(Vid(1), LineAddr(n + 10));
        assert!(matches!(s.live.txs[1].reads, LineSet::Hashed(_)));
        assert!(matches!(s.live.txs[1].writes, LineSet::Inline { .. }));
        assert_eq!(s.live_read_lines(Vid(1)), n as usize);
        assert_eq!(s.live_write_lines(Vid(1)), 2);
        s.finalize_committed(Vid(1));
        let t = s.rw_totals();
        assert_eq!((t.read_lines, t.write_lines), (n, 2));
        assert_eq!(t.combined_lines, n + 1);
    }

    #[test]
    fn live_sets_iterate_in_sorted_vid_order() {
        // Pinned: insertion order is scrambled, the live VIDs (and therefore
        // finalization) come out in ascending VID order regardless.
        let mut s = MemStats::new();
        for vid in [7u16, 2, 5, 1, 6] {
            s.record_spec_read(Vid(vid), LineAddr(u64::from(vid)));
        }
        for vid in [4u16, 3] {
            s.record_spec_write(Vid(vid), LineAddr(u64::from(vid)));
        }
        assert_eq!(live_vids(&s), vec![1, 2, 3, 4, 5, 6, 7]);
        // Finalizing through VID 4 takes exactly the four lowest, leaving
        // 5..=7 live; the walk then resumes above the finalized prefix.
        s.finalize_committed(Vid(4));
        assert_eq!(s.rw_totals().transactions, 4);
        assert_eq!(live_vids(&s), vec![5, 6, 7]);
        assert_eq!(s.live.lo, 5);
        s.finalize_committed(Vid(7));
        assert_eq!(s.rw_totals().transactions, 7);
        assert!(live_vids(&s).is_empty());
    }

    #[test]
    fn dense_sets_restart_below_the_finalized_prefix_after_a_vid_reset() {
        // After a VID reset the low VIDs come back: a record below the
        // finalized prefix must be found by the next finalization.
        let mut s = MemStats::new();
        s.record_spec_read(Vid(3), LineAddr(1));
        s.finalize_committed(Vid(3));
        s.record_spec_write(Vid(1), LineAddr(9));
        s.record_spec_read(Vid(2), LineAddr(9));
        assert_eq!(live_vids(&s), vec![1, 2]);
        s.finalize_committed(Vid(2));
        let t = s.rw_totals();
        assert_eq!((t.transactions, t.read_lines, t.write_lines), (3, 2, 1));
    }

    #[test]
    fn repeated_lines_are_counted_once_across_finalization() {
        // Runs of one line skip the set probe; a finalized transaction's
        // VID reused later must still count that line afresh.
        let mut s = MemStats::new();
        for l in [4u64, 4, 4, 5, 4, 5, 5] {
            s.record_spec_read(Vid(1), LineAddr(l));
            s.record_spec_write(Vid(1), LineAddr(l));
        }
        assert_eq!(
            (s.live_read_lines(Vid(1)), s.live_write_lines(Vid(1))),
            (2, 2)
        );
        s.finalize_committed(Vid(1));
        s.record_spec_read(Vid(1), LineAddr(5));
        s.record_spec_write(Vid(1), LineAddr(5));
        assert_eq!(
            (s.live_read_lines(Vid(1)), s.live_write_lines(Vid(1))),
            (1, 1)
        );
        s.discard_uncommitted();
        s.record_spec_read(Vid(1), LineAddr(5));
        assert_eq!(s.live_read_lines(Vid(1)), 1);
        s.finalize_committed(Vid(1));
        let t = s.rw_totals();
        let counts = (t.transactions, t.read_lines, t.write_lines);
        assert_eq!((counts, t.combined_lines), ((2, 3, 2), 3));
    }

    #[test]
    fn bound_reads_count_distinct_live_lines_per_vid() {
        let mut s = MemStats::new();
        assert_eq!(
            (s.live_read_lines(Vid(4000)), s.live_write_lines(Vid(4000))),
            (0, 0)
        );
        for l in [5u64, 6, 5, 7] {
            s.record_spec_read(Vid(2), LineAddr(l));
        }
        s.record_spec_write(Vid(2), LineAddr(5));
        s.record_spec_write(Vid(3), LineAddr(5));
        assert_eq!(s.live_read_lines(Vid(2)), 3);
        assert_eq!(s.live_write_lines(Vid(2)), 1);
        assert_eq!(s.live_read_lines(Vid(3)), 0);
        assert_eq!(s.live_write_lines(Vid(3)), 1);
        assert_eq!(s.live_read_lines(Vid(9)), 0, "beyond the dense slots");
        s.finalize_committed(Vid(2));
        assert_eq!(
            (s.live_read_lines(Vid(2)), s.live_write_lines(Vid(2))),
            (0, 0)
        );
        assert_eq!(s.live_write_lines(Vid(3)), 1, "VID 3 stays live");
        s.discard_uncommitted();
        assert_eq!(s.live_write_lines(Vid(3)), 0);
    }

    #[test]
    fn finalize_only_commits_vids_up_to_lc() {
        let mut s = MemStats::new();
        s.record_spec_read(Vid(1), LineAddr(1));
        s.record_spec_read(Vid(2), LineAddr(2));
        s.finalize_committed(Vid(1));
        assert_eq!(s.rw_totals().transactions, 1);
        s.finalize_committed(Vid(2));
        assert_eq!(s.rw_totals().transactions, 2);
    }

    #[test]
    fn kb_averages() {
        let mut s = MemStats::new();
        for l in 0..16 {
            s.record_spec_read(Vid(1), LineAddr(l));
        }
        s.finalize_committed(Vid(1));
        let t = s.rw_totals();
        assert!(
            (t.avg_read_kb() - 1.0).abs() < 1e-9,
            "16 lines * 64 B = 1 kB"
        );
        assert_eq!(t.avg_write_kb(), 0.0);
        assert!((t.avg_combined_kb() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_totals_average_zero() {
        let t = RwSetTotals::default();
        assert_eq!(t.avg_read_kb(), 0.0);
        assert_eq!(t.avg_combined_kb(), 0.0);
    }

    #[test]
    fn discard_uncommitted_drops_live_sets() {
        let mut s = MemStats::new();
        s.record_spec_read(Vid(3), LineAddr(1));
        s.record_spec_write(Vid(5), LineAddr(2));
        s.discard_uncommitted();
        assert!(live_vids(&s).is_empty());
        s.finalize_committed(Vid(10));
        assert_eq!(s.rw_totals().transactions, 0);
        // The sets are reusable after a discard.
        s.record_spec_read(Vid(1), LineAddr(1));
        s.finalize_committed(Vid(1));
        assert_eq!(s.rw_totals().transactions, 1);
    }

    #[test]
    fn saturating_helpers_pin_at_max() {
        let mut c = u64::MAX - 1;
        inc(&mut c);
        inc(&mut c);
        assert_eq!(c, u64::MAX);
        add(&mut c, 100);
        assert_eq!(c, u64::MAX);
    }

    /// SplitMix64: a seeded sample stream for the histogram tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn every_value_lands_in_a_bucket_whose_edge_bounds_it_within_1_6_percent() {
        let mut probes: Vec<u64> = (0..4096).collect();
        for e in 0..64 {
            let p = 1u64 << e;
            probes.extend([p - 1, p, p + 1, p | (p >> 1), p.wrapping_mul(3) / 2]);
        }
        probes.push(u64::MAX);
        let mut seed = 17;
        probes.extend((0..10_000).map(|_| splitmix(&mut seed) >> (splitmix(&mut seed) % 64)));
        for v in probes {
            let b = latency_bucket(v);
            assert!(b < LATENCY_BUCKETS, "{v} -> bucket {b}");
            let upper = latency_bucket_upper(b);
            assert!(upper >= v, "{v}: upper edge {upper}");
            assert!(
                (upper - v) as f64 <= v as f64 / 64.0,
                "{v}: upper edge {upper} too far"
            );
            assert_eq!(latency_bucket(upper), b, "{v}: edge leaves its bucket");
        }
        // Buckets tile the range in order.
        for b in 1..LATENCY_BUCKETS {
            assert_eq!(latency_bucket(latency_bucket_upper(b - 1) + 1), b);
        }
        assert_eq!(latency_bucket_upper(LATENCY_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_match_exact_nearest_rank_within_3_percent() {
        for seed in [1u64, 7, 42, 90_210] {
            let mut state = seed;
            let mut h = LatencyHistogram::new();
            // Log-uniform over 1 µs .. 10 s, plus a few exact repeats.
            let mut samples: Vec<u64> = (0..20_000)
                .map(|_| {
                    let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                    (10f64.powf(7.0 * u)).round().max(1.0) as u64
                })
                .collect();
            samples.extend([1, 1, 10_000_000, 10_000_000]);
            for &s in &samples {
                h.record_us(s);
            }
            samples.sort_unstable();
            for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
                let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
                let exact = samples[rank - 1];
                let got = h.quantile_us(q);
                let err = got.abs_diff(exact) as f64 / exact as f64;
                assert!(
                    err <= 0.03,
                    "seed {seed} q {q}: histogram {got}, exact {exact} ({:.2}%)",
                    err * 100.0
                );
                assert!(got >= exact, "seed {seed} q {q}: never under the sample");
            }
        }
    }

    #[test]
    fn combine_is_associative() {
        let mut state = 3;
        let mut parts: Vec<LatencyHistogram> = (0..3).map(|_| LatencyHistogram::new()).collect();
        for (i, h) in parts.iter_mut().enumerate() {
            for _ in 0..500 {
                h.record_us((splitmix(&mut state) % 1_000_000) << i);
            }
        }
        let left = parts[0].combine(&parts[1]).combine(&parts[2]);
        let right = parts[0].combine(&parts[1].combine(&parts[2]));
        assert_eq!(left.buckets, right.buckets);
        assert_eq!(
            (left.count(), left.sum_us(), left.max_us()),
            (right.count(), right.sum_us(), right.max_us())
        );
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = LatencyHistogram::new();
        // 99 fast samples around 100 µs, one slow 1 s outlier.
        for _ in 0..99 {
            h.record_us(100);
        }
        h.record_us(1_000_000);
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_us(0.50);
        assert!((100..=127).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_us(0.99);
        assert!(
            (100..=127).contains(&p99),
            "p99 rank 99 is still fast: {p99}"
        );
        assert_eq!(h.quantile_us(1.0), 1_000_000, "max clamps the top bucket");
        assert_eq!(h.max_us(), 1_000_000);
        assert!(h.mean_us() >= 100);
    }

    #[test]
    fn histogram_empty_and_zero() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.mean_us(), 0);
        h.record_us(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_us(0.5), 0, "clamped to observed max of 0");
    }

    #[test]
    fn histogram_merge_accumulates() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record_us(10);
        b.record_us(1000);
        b.record_us(1000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum_us(), 2010);
        let p99 = a.quantile_us(0.99);
        assert!((1000..=2047).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn histogram_saturates_instead_of_wrapping() {
        let mut h = LatencyHistogram::new();
        h.record_us(u64::MAX);
        h.record_us(u64::MAX);
        assert_eq!(h.sum_us(), u64::MAX, "sum pins instead of overflowing");
        assert_eq!(h.quantile_us(1.0), u64::MAX);
    }

    #[test]
    fn p999_separates_the_one_in_a_thousand_tail() {
        let mut h = LatencyHistogram::new();
        // 1995 fast samples and 5 slow ones: p99 (rank 1980) stays fast,
        // p999 (rank 1998) must land in the slow bucket.
        for _ in 0..1995 {
            h.record_us(50);
        }
        for _ in 0..5 {
            h.record_us(500_000);
        }
        let (p50, p99, p999) = h.quantile_triple_us();
        assert!((50..=63).contains(&p50), "p50 = {p50}");
        assert!((50..=63).contains(&p99), "p99 = {p99}");
        assert!(p999 >= 500_000, "p999 must see the tail: {p999}");
    }

    #[test]
    fn combine_is_empty_neutral_and_order_independent() {
        let empty = LatencyHistogram::new();
        // Empty × empty stays empty at every quantile.
        let both = empty.combine(&LatencyHistogram::new());
        assert_eq!(both.count(), 0);
        assert_eq!(both.quantile_triple_us(), (0, 0, 0));

        // Single sample: combining with empty (either side) changes nothing.
        let mut one = LatencyHistogram::new();
        one.record_us(777);
        for combined in [one.combine(&empty), empty.combine(&one)] {
            assert_eq!(combined.count(), 1);
            assert_eq!(combined.max_us(), 777);
            let (p50, p99, p999) = combined.quantile_triple_us();
            assert_eq!((p50, p99, p999), (777, 777, 777), "clamped to the max");
        }

        // Order independence over three shards.
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut c = LatencyHistogram::new();
        for i in 0..100 {
            a.record_us(10 + i);
            b.record_us(10_000 + i);
        }
        c.record_us(9_999_999);
        let abc = a.combine(&b).combine(&c);
        let cba = c.combine(&b).combine(&a);
        assert_eq!(abc.count(), cba.count());
        assert_eq!(abc.sum_us(), cba.sum_us());
        assert_eq!(abc.quantile_triple_us(), cba.quantile_triple_us());
        assert_eq!(abc.count(), 201);
    }

    #[test]
    fn combine_saturates_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record_us(u64::MAX);
        b.record_us(u64::MAX);
        let both = a.combine(&b);
        assert_eq!(both.count(), 2);
        assert_eq!(both.sum_us(), u64::MAX, "sum pins at the ceiling");
        // Force bucket-count saturation: pre-pin a bucket and combine.
        let mut pinned = LatencyHistogram::new();
        pinned.record_us(8);
        for _ in 0..3 {
            pinned = pinned.combine(&pinned); // doubles every count
        }
        assert_eq!(pinned.count(), 8);
        let mut maxed = LatencyHistogram::new();
        maxed.record_us(8);
        maxed.buckets[latency_bucket(8)] = u64::MAX;
        maxed.count = u64::MAX;
        let over = maxed.combine(&pinned);
        assert_eq!(over.count(), u64::MAX, "count saturates, never wraps");
        assert_eq!(
            over.buckets[latency_bucket(8)],
            u64::MAX,
            "bucket saturates, never wraps"
        );
    }

    #[test]
    fn vid_compare_classification() {
        let mut s = MemStats::new();
        // 6-bit VIDs: low 3 bits short-compare, high 3 bits checked for
        // equality. 5 (000_101) vs 7 (000_111): same high bits -> short.
        s.record_vid_compare(Vid(5), Vid(7), 6);
        assert_eq!(s.short_vid_compares, 1);
        // 5 (000_101) vs 60 (111_100): different high bits -> cascaded.
        s.record_vid_compare(Vid(5), Vid(60), 6);
        assert_eq!(s.cascaded_vid_compares, 1);
    }
}
