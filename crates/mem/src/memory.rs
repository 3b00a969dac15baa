//! Sparse main memory backing the cache hierarchy.

use hmtx_types::{hash::FxHashMap, Addr, LineAddr};

use crate::line::LineData;

/// Main memory, stored sparsely by line. Never-written lines read as zero.
///
/// Main memory only ever holds *committed* (non-speculative) data: the
/// protocol layer guarantees that nothing except committed lines and
/// overflow-safe `S-O(0,·)` data (which is by definition the pre-speculative
/// committed image, §5.4) is written back here.
///
/// # Examples
///
/// ```
/// use hmtx_mem::MainMemory;
/// use hmtx_types::{Addr, LineAddr};
///
/// let mut mem = MainMemory::new();
/// assert_eq!(mem.read_line(LineAddr(5)).read_u64(0), 0);
/// mem.write_word(Addr(0x140), 7);
/// assert_eq!(mem.read_word(Addr(0x140)), 7);
/// ```
#[derive(Debug, Default)]
pub struct MainMemory {
    // Fx-hashed: line addresses are simulator-internal small integers, and
    // this map sits on the miss path of every simulated memory access.
    lines: FxHashMap<LineAddr, LineData>,
    reads: u64,
    writes: u64,
}

impl Clone for MainMemory {
    fn clone(&self) -> Self {
        MainMemory {
            lines: self.lines.clone(),
            reads: self.reads,
            writes: self.writes,
        }
    }

    /// Copies `source` into the existing line map (no allocation when its
    /// table has the source's size). Every field is named, so a new one
    /// fails to compile here instead of being skipped.
    fn clone_from(&mut self, source: &Self) {
        let MainMemory {
            lines,
            reads,
            writes,
        } = self;
        lines.clone_from(&source.lines);
        *reads = source.reads;
        *writes = source.writes;
    }
}

impl MainMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a whole line (zero if never written).
    pub fn read_line(&mut self, addr: LineAddr) -> LineData {
        self.reads += 1;
        self.lines.get(&addr).cloned().unwrap_or_default()
    }

    /// Writes a whole line back.
    pub fn write_line(&mut self, addr: LineAddr, data: LineData) {
        self.writes += 1;
        self.lines.insert(addr, data);
    }

    /// Reads the aligned u64 at `addr` directly (bypassing caches; used for
    /// initial image construction and end-of-run verification, not by the
    /// simulated machine).
    pub fn read_word(&self, addr: Addr) -> u64 {
        self.lines
            .get(&addr.line())
            .map(|d| d.read_u64(addr.line_offset()))
            .unwrap_or(0)
    }

    /// Writes the aligned u64 at `addr` directly (bypassing caches).
    pub fn write_word(&mut self, addr: Addr, value: u64) {
        self.lines
            .entry(addr.line())
            .or_default()
            .write_u64(addr.line_offset(), value);
    }

    /// Number of lines that were ever written.
    pub fn resident_lines(&self) -> usize {
        self.lines.len()
    }

    /// `(reads, writes)` performed through the cached interface.
    pub fn traffic(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// A stable fingerprint of the full memory image, for comparing the
    /// final state of two runs (sequential oracle vs speculative parallel).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_range(Addr(0), Addr(u64::MAX))
    }

    /// A stable fingerprint of the lines whose base addresses fall in
    /// `[lo, hi)` — e.g. just the workload data region, excluding runtime
    /// bookkeeping words that legitimately differ between execution models.
    pub fn fingerprint_range(&self, lo: Addr, hi: Addr) -> u64 {
        // FNV-1a over (addr, data) in sorted order for determinism.
        let mut entries: Vec<_> = self
            .lines
            .iter()
            .filter(|(a, _)| a.base().0 >= lo.0 && a.base().0 < hi.0)
            .collect();
        entries.sort_by_key(|(a, _)| a.0);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (addr, data) in entries {
            // Skip all-zero lines: absent and zeroed lines are equivalent.
            if data.bytes().iter().all(|&b| b == 0) {
                continue;
            }
            for chunk in addr.0.to_le_bytes().iter().chain(data.bytes().iter()) {
                h ^= u64::from(*chunk);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_default_reads() {
        let mut m = MainMemory::new();
        assert_eq!(m.read_line(LineAddr(9)).read_u64(16), 0);
        assert_eq!(m.read_word(Addr(0x999 & !7)), 0);
    }

    #[test]
    fn word_round_trip() {
        let mut m = MainMemory::new();
        m.write_word(Addr(0x40), 1);
        m.write_word(Addr(0x48), 2);
        assert_eq!(m.read_word(Addr(0x40)), 1);
        assert_eq!(m.read_word(Addr(0x48)), 2);
        assert_eq!(m.resident_lines(), 1);
    }

    #[test]
    fn line_round_trip_counts_traffic() {
        let mut m = MainMemory::new();
        let mut d = LineData::zeroed();
        d.write_u64(0, 42);
        m.write_line(LineAddr(3), d);
        assert_eq!(m.read_line(LineAddr(3)).read_u64(0), 42);
        assert_eq!(m.traffic(), (1, 1));
    }

    #[test]
    fn fingerprint_detects_differences_and_ignores_zero_lines() {
        let mut a = MainMemory::new();
        let mut b = MainMemory::new();
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.write_word(Addr(0x100), 5);
        assert_ne!(a.fingerprint(), b.fingerprint());
        b.write_word(Addr(0x100), 5);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Writing an explicit zero line doesn't change the fingerprint.
        b.write_line(LineAddr(77), LineData::zeroed());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let mut a = MainMemory::new();
        let mut b = MainMemory::new();
        a.write_word(Addr(0x40), 1);
        a.write_word(Addr(0x80), 2);
        b.write_word(Addr(0x80), 2);
        b.write_word(Addr(0x40), 1);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
