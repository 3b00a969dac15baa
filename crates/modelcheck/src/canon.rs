//! Canonical state encoding with core/line symmetry reduction.
//!
//! The visited set stores one 64-bit fingerprint per canonical state
//! (hash compaction, Stern–Dill style). A state's encoding is the multiset
//! of its stored line versions, each packed injectively into three words,
//! after its unrelabeled progress. Its canonical fingerprint is the
//! minimum, over the core permutation × line permutation pairs that can map
//! it onto another reachable state, of the fingerprint of the encoding with
//! caches and line addresses relabeled through the permutation.
//!
//! # The fingerprint
//!
//! Each packed version gets an element hash: a wyhash-style folded
//! multiply (the 64×64→128-bit product of its first two words, each xored
//! with an odd constant, high half xor low half), xored with the third word
//! and passed through a bijective xorshift-multiply finalizer. The element
//! hashes are summed with wrapping addition, which does not depend on
//! their order, so nothing is sorted; the sum, the version count and the
//! progress prefix (`committed`, the abort flag, `next[]`) are folded
//! together with the same multiply. Two distinct multisets can only merge
//! if their sums collide, which, for element hashes that behave like
//! independent random 64-bit values, happens with probability about 2^-64
//! per pair: a false merge among the 2.9 million states of the largest
//! exhausted model is about a 2^-22 event. The checker's test
//! `fingerprint_search_matches_an_exact_visited_set` runs the same search
//! keyed by the exact encoding (progress plus the stabilizer-minimal
//! sorted packed words) and gets the same counts and violations on every
//! small model, the planted defect and the 50,000-state c2-l2-v3 cut-off.
//!
//! # Why the reduction is sound
//!
//! Two states merged by the reduction have *isomorphic futures*: the
//! encoding covers (a) every cache's protocol-visible content
//! ([`hmtx_mem::Cache::abstract_view`]: states, VID pairs, phantom marks,
//! hints, pending lazy commits, per-set LRU ranks, and the stamped data
//! word), (b) the §8 overflow table, and (c) each transaction's progress,
//! which together with the fixed kernel determines its **remaining ops**
//! and their core and line bindings. The protocol itself never branches on
//! a raw core index or address value — only on the relations the encoding
//! preserves — so a violation reachable from one member of an orbit is
//! reachable (modulo renaming) from every member. Timing (`now`,
//! latencies, statistics) is excluded: it influences reported cycle
//! counts, never a transition outcome. Line renaming does permute physical
//! set indices, which is why model geometries give every line a set of its
//! own (DESIGN.md §12).
//!
//! # Why the stabilizer suffices
//!
//! Progress (`next[]`) and `committed` are hashed unrelabeled, and a
//! transaction's VID is its identity, so a permutation can only merge two
//! states that have the same remaining ops *after* relabeling: it must fix
//! every core and line some remaining op is bound to. Those permutations
//! form a group (the stabilizer of the remaining work), and two states lie
//! in one orbit of the full core × line group exactly when they lie in one
//! orbit of the stabilizer. Minimizing over the stabilizer alone therefore
//! merges exactly the states the full search merges; for most states it is
//! the identity alone.

use std::cell::RefCell;

use hmtx_explore::{OpKernel, OpMachine};
use hmtx_types::{Addr, LineAddr};

/// All permutations of `0..n` (identity first).
pub fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..n).collect();
    fn heap(k: usize, items: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, items, out);
            if k.is_multiple_of(2) {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
    }
    heap(n, &mut items, &mut out);
    out
}

/// The permutation-invariant payload of one stored line version: state,
/// VID pair, phantom mark, hints, pending-commit flag, LRU rank, data word.
type LineBody = (u8, u16, u16, u16, bool, bool, u8, u64);

/// One line version packed injectively into three words: `[cache label <<
/// 48 | line label << 32 | state << 24 | LRU rank << 16 | shared hint << 1
/// | pending commit, modVID << 32 | highVID << 16 | phantom VID, data
/// word]`. A state's encoding is the multiset of its versions' packed words.
type Packed = [u64; 3];

/// The line label of an address outside the model's line set.
const OUT_OF_MODEL: u64 = 0xFFFF;

/// Packs `body` under cache label `cache` and line label `line`
/// (`usize::MAX` for an address outside the model's line set).
fn pack(cache: usize, line: usize, body: LineBody) -> Packed {
    let (state, mod_vid, high_vid, phantom, shared_hint, pending, lru_rank, word) = body;
    let line = if line == usize::MAX {
        OUT_OF_MODEL
    } else {
        line as u64
    };
    [
        (cache as u64) << 48
            | line << 32
            | u64::from(state) << 24
            | u64::from(lru_rank) << 16
            | u64::from(shared_hint) << 1
            | u64::from(pending),
        u64::from(mod_vid) << 32 | u64::from(high_vid) << 16 | u64::from(phantom),
        word,
    ]
}

/// The label fields of a packed version's first word: the cache label
/// at bit 48 and the line label at bit 32.
const LABELS: u64 = 0xFFFF_FFFF << 32;

/// wyhash's four odd constants. The first has bit 2 set, which no packed
/// first word has, and the second bit 48 and up, which no packed second
/// word has, so neither factor of an element's folded multiply is zero.
const K: [u64; 4] = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
];

/// The 64×64→128-bit product of `a` and `b` folded to 64 bits (high
/// half xor low half), each word first xored with its own constant.
fn mix(a: u64, b: u64) -> u64 {
    let p = u128::from(a ^ K[0]) * u128::from(b ^ K[1]);
    (p >> 64) as u64 ^ p as u64
}

/// A bijective xorshift-multiply finalizer (two odd multipliers), so a
/// change to its input always changes its output.
fn finish(mut x: u64) -> u64 {
    x ^= x >> 32;
    x = x.wrapping_mul(K[2]);
    x ^= x >> 29;
    x = x.wrapping_mul(K[3]);
    x ^ x >> 32
}

/// The hash of one packed version: a full-avalanche mix of its three
/// words. The state fingerprint sums these, so it needs them to behave
/// like independent random 64-bit values.
fn element_hash([w0, w1, w2]: Packed) -> u64 {
    finish(mix(w0, w1) ^ w2)
}

/// The unrelabeled progress prefix of `m`: `committed`, the abort flag and
/// `next[]`. Progress identifies the remaining ops, which every permutation
/// in the stabilizer leaves as they are.
fn progress(m: &OpMachine) -> u64 {
    let h = mix(u64::from(m.committed), u64::from(m.misspec.is_some()));
    m.next.iter().fold(h, |h, &n| mix(h, n as u64))
}

/// One permutation of core or line indices, stored as the label of each
/// raw index, with the set of indices it fixes.
#[derive(Debug)]
struct Relabel {
    label: Vec<usize>,
    fixed: u64,
}

impl Relabel {
    fn identity(n: usize) -> Self {
        Relabel {
            label: (0..n).collect(),
            fixed: u64::MAX,
        }
    }

    fn new(perm: &[usize]) -> Self {
        let mut label = vec![0; perm.len()];
        // Indices beyond the permuted range are fixed by definition.
        let mut fixed = u64::MAX.checked_shl(perm.len() as u32).unwrap_or(0);
        for (l, &raw) in perm.iter().enumerate() {
            label[raw] = l;
            if l == raw {
                fixed |= 1 << raw;
            }
        }
        Relabel { label, fixed }
    }

    /// Every permutation of `0..n` (identity first).
    fn all(n: usize) -> Vec<Self> {
        permutations(n).iter().map(|p| Relabel::new(p)).collect()
    }

    /// Whether the permutation fixes every index in `bound`.
    fn fixes(&self, bound: u64) -> bool {
        bound & !self.fixed == 0
    }
}

/// Precomputed encoder for one kernel: the line-address table, the cores
/// and lines each transaction's remaining ops are bound to, and the
/// permutation sets to minimize over.
#[derive(Debug)]
pub struct Encoder {
    lines: Vec<u64>,
    cores: usize,
    /// `bound[t][k]`: masks of the cores and lines transaction `t`'s ops
    /// `k..` are bound to (a trailing `(0, 0)` for a finished transaction;
    /// empty without symmetry, where the identity is the only permutation).
    bound: Vec<Vec<(u64, u64)>>,
    core_perms: Vec<Relabel>,
    line_perms: Vec<Relabel>,
    /// The packed versions of the state being hashed, reused by the next
    /// [`Encoder::state_hash`] call.
    scratch: RefCell<Vec<Packed>>,
}

impl Encoder {
    /// Builds the encoder for `kernel` over `cores` model cores. With
    /// `symmetry` off, only the identity permutation is used (the encoding
    /// still abstracts timing, so duplicate interleavings still merge).
    pub fn new(kernel: &OpKernel, cores: usize, symmetry: bool) -> Self {
        let lines = kernel.tracked.clone();
        // Cache and line labels fit their 16-bit fields (see `Packed`).
        assert!(
            cores + 1 < 1 << 16 && (lines.len() as u64) < OUT_OF_MODEL,
            "more cores or lines than the packed encoding labels"
        );
        let mut encoder = Encoder {
            cores,
            bound: Vec::new(),
            core_perms: vec![Relabel::identity(cores)],
            line_perms: vec![Relabel::identity(lines.len())],
            lines,
            scratch: RefCell::default(),
        };
        if symmetry {
            assert!(
                cores <= 64 && encoder.lines.len() <= 64,
                "symmetry reduction over more than 64 cores or lines"
            );
            encoder.core_perms = Relabel::all(cores);
            encoder.line_perms = Relabel::all(encoder.lines.len());
            encoder.bound = kernel
                .txs
                .iter()
                .map(|ops| {
                    let mut suffix = vec![(0u64, 0u64); ops.len() + 1];
                    for (k, op) in ops.iter().enumerate().rev() {
                        let (c, l) = suffix[k + 1];
                        let line = encoder.line_index(Addr(op.addr).line());
                        let line_bit = if line == usize::MAX { 0 } else { 1 << line };
                        suffix[k] = (c | 1 << op.core, l | line_bit);
                    }
                    suffix
                })
                .collect();
        }
        encoder
    }

    fn line_index(&self, line: LineAddr) -> usize {
        self.lines
            .iter()
            .position(|&a| Addr(a).line() == line)
            .unwrap_or(usize::MAX)
    }

    /// Every stored version of `m`, packed under its *raw* cache and line
    /// indices (L1[i] at `i`, the shared L2 at `cores`, the overflow table
    /// at `cores + 1`), in scan order, into `raw`.
    fn raw_lines_into(&self, m: &OpMachine, raw: &mut Vec<Packed>) {
        raw.clear();
        for (idx, cache) in m.mem.caches().enumerate() {
            for a in cache.abstract_lines() {
                raw.push(pack(
                    idx,
                    self.line_index(a.addr),
                    (
                        a.state as u8,
                        a.mod_vid.0,
                        a.high_vid.0,
                        a.phantom_high.0,
                        a.shared_hint,
                        a.commit_pending,
                        a.lru_rank,
                        a.word0,
                    ),
                ));
            }
        }
        for l in m.mem.overflow_lines() {
            raw.push(pack(
                self.cores + 1,
                self.line_index(l.meta.addr),
                (
                    l.meta.state as u8,
                    l.meta.mod_vid.0,
                    l.meta.high_vid.0,
                    l.meta.phantom_high.0,
                    l.meta.shared_hint,
                    false,
                    0,
                    l.data.read_u64(0),
                ),
            ));
        }
    }

    /// `p` with its L1 label mapped through `cp` and its line label
    /// through `lp` (the L2, the overflow table and out-of-model lines
    /// keep theirs).
    fn relabel(&self, p: Packed, cp: &[usize], lp: &[usize]) -> Packed {
        let cache = (p[0] >> 48) as usize;
        let line = p[0] >> 32 & OUT_OF_MODEL;
        let cache = if cache < self.cores { cp[cache] } else { cache };
        let line = if line == OUT_OF_MODEL {
            line
        } else {
            lp[line as usize] as u64
        };
        [
            p[0] & !LABELS | (cache as u64) << 48 | line << 32,
            p[1],
            p[2],
        ]
    }

    /// The cache contents relabeled through `cp` and `lp`, sorted: the
    /// exact encoding the fingerprint stands for.
    #[cfg(test)]
    fn relabel_into(&self, raw: &[Packed], cp: &[usize], lp: &[usize], enc: &mut Vec<Packed>) {
        enc.clear();
        enc.extend(raw.iter().map(|&p| self.relabel(p, cp, lp)));
        enc.sort_unstable();
    }

    /// The masks of the cores and lines `m`'s remaining ops are bound to:
    /// the stabilizer is the permutations that fix both.
    fn bound_masks(&self, kernel: &OpKernel, m: &OpMachine) -> (u64, u64) {
        self.bound
            .iter()
            .enumerate()
            .map(|(t, suffix)| suffix[m.next[t].min(kernel.txs[t].len())])
            .fold((0, 0), |(c, l), (tc, tl)| (c | tc, l | tl))
    }

    /// The canonical fingerprint of a model state. Its buffer is the
    /// encoder's own, reused from call to call.
    pub fn state_hash(&self, kernel: &OpKernel, m: &OpMachine) -> u64 {
        let mut raw = self.scratch.borrow_mut();
        self.raw_lines_into(m, &mut raw);
        self.fingerprint(progress(m), &raw, self.bound_masks(kernel, m))
    }

    /// The minimum, over the permutations that fix the `cores` and `lines`
    /// masks, of `progress` and the version count mixed with the wrapping
    /// sum of the relabeled versions' element hashes. The sum does not depend on the order of
    /// `raw`, so nothing is sorted.
    fn fingerprint(&self, progress: u64, raw: &[Packed], (cores, lines): (u64, u64)) -> u64 {
        let prefix = mix(progress, raw.len() as u64);
        let mut best = u64::MAX;
        for cp in self.core_perms.iter().filter(|p| p.fixes(cores)) {
            for lp in self.line_perms.iter().filter(|p| p.fixes(lines)) {
                let sum = raw
                    .iter()
                    .map(|&p| element_hash(self.relabel(p, &cp.label, &lp.label)))
                    .fold(0, u64::wrapping_add);
                best = best.min(mix(prefix, sum));
            }
        }
        best
    }

    /// The exact visited key that [`Encoder::state_hash`] compacts: the
    /// progress prefix and the stabilizer-minimal sorted encoding.
    #[cfg(test)]
    pub(crate) fn exact_key(&self, kernel: &OpKernel, m: &OpMachine) -> ExactKey {
        let mut raw = Vec::new();
        self.raw_lines_into(m, &mut raw);
        let (bound_cores, bound_lines) = self.bound_masks(kernel, m);
        let mut enc = Vec::new();
        let mut best: Option<Vec<Packed>> = None;
        for cp in self.core_perms.iter().filter(|p| p.fixes(bound_cores)) {
            for lp in self.line_perms.iter().filter(|p| p.fixes(bound_lines)) {
                self.relabel_into(&raw, &cp.label, &lp.label, &mut enc);
                if best.as_ref().is_none_or(|b| enc < *b) {
                    best = Some(enc.clone());
                }
            }
        }
        let lines = best.expect("the identity fixes every bound");
        (m.committed, m.misspec.is_some(), m.next.clone(), lines)
    }
}

/// An exact visited key: `committed`, the abort flag, `next[]` and the
/// stabilizer-minimal sorted packed encoding.
#[cfg(test)]
pub(crate) type ExactKey = (u16, bool, Vec<usize>, Vec<Packed>);

#[cfg(test)]
mod tests {
    use super::*;
    use hmtx_explore::model_kernel;
    use hmtx_types::ModelCheckConfig;
    use std::hash::{DefaultHasher, Hash, Hasher};

    #[test]
    fn permutations_enumerate_n_factorial() {
        assert_eq!(permutations(1), vec![vec![0]]);
        assert_eq!(permutations(2).len(), 2);
        assert_eq!(permutations(3).len(), 6);
        let mut unique = permutations(3);
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 6);
    }

    #[test]
    fn packing_is_injective() {
        // Packing ORs shifted fields together, so it is injective exactly
        // when no two input bits land on one output bit: set each bit of
        // each input alone (labels and VIDs get 16 bits, the state and the
        // LRU rank 8) and check that it lands on a bit of its own.
        let zero: LineBody = (0, 0, 0, 0, false, false, 0, 0);
        let mut inputs: Vec<(usize, usize, LineBody)> = Vec::new();
        for bit in 0..16 {
            inputs.push((1 << bit, 0, zero));
            inputs.push((0, 1 << bit, zero));
            inputs.push((0, 0, (0, 1 << bit, 0, 0, false, false, 0, 0)));
            inputs.push((0, 0, (0, 0, 1 << bit, 0, false, false, 0, 0)));
            inputs.push((0, 0, (0, 0, 0, 1 << bit, false, false, 0, 0)));
        }
        for bit in 0..8 {
            inputs.push((0, 0, (1 << bit, 0, 0, 0, false, false, 0, 0)));
            inputs.push((0, 0, (0, 0, 0, 0, false, false, 1 << bit, 0)));
        }
        inputs.push((0, 0, (0, 0, 0, 0, true, false, 0, 0)));
        inputs.push((0, 0, (0, 0, 0, 0, false, true, 0, 0)));
        for bit in 0..64 {
            inputs.push((0, 0, (0, 0, 0, 0, false, false, 0, 1 << bit)));
        }
        let mut landed = [0u64; 3];
        for &(cache, line, body) in &inputs {
            let packed = pack(cache, line, body);
            assert_eq!(packed.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            for (seen, word) in landed.iter_mut().zip(packed) {
                assert_eq!(*seen & word, 0, "{cache} {line} {body:?}");
                *seen |= word;
            }
        }

        // From the widest legal values (12-bit VIDs, the largest LRU rank,
        // a full data word, the overflow table's label under 64 cores),
        // changing any one input, including a line label to the
        // out-of-model marker, gives words of its own.
        let (cores, lines) = (64, 64);
        let vid = (1 << 12) - 1;
        let wide: LineBody = (7, vid, vid, vid, true, true, u8::MAX, u64::MAX);
        let mut variants = vec![(cores + 1, lines - 1, wide)];
        for cache in [0, cores - 1, cores] {
            variants.push((cache, lines - 1, wide));
        }
        for line in [0, usize::MAX] {
            variants.push((cores + 1, line, wide));
        }
        let (s, m, h, p, sh, pend, lru, word) = wide;
        for body in [
            (0, m, h, p, sh, pend, lru, word),
            (s, vid - 1, h, p, sh, pend, lru, word),
            (s, m, vid - 1, p, sh, pend, lru, word),
            (s, m, h, vid - 1, sh, pend, lru, word),
            (s, m, h, p, false, pend, lru, word),
            (s, m, h, p, sh, false, lru, word),
            (s, m, h, p, sh, pend, lru - 1, word),
            (s, m, h, p, sh, pend, lru, word - 1),
        ] {
            variants.push((cores + 1, lines - 1, body));
        }
        let packed: std::collections::HashSet<Packed> = variants
            .iter()
            .map(|&(cache, line, body)| pack(cache, line, body))
            .collect();
        assert_eq!(packed.len(), variants.len());

        // The element hash keeps every one of these versions apart too.
        let all: Vec<Packed> = inputs
            .iter()
            .chain(&variants)
            .map(|&(cache, line, body)| pack(cache, line, body))
            .collect();
        let hashes: std::collections::HashSet<u64> = all.iter().map(|&p| element_hash(p)).collect();
        assert_eq!(hashes.len(), all.len());
    }

    /// Every state c3-l3-v2 reaches, breadth-first, deduplicated by `enc`.
    fn reachable_c3_l3_v2(enc: &Encoder, kernel: &OpKernel) -> Vec<OpMachine> {
        let mut root = OpMachine::new(kernel, None);
        root.settle(kernel).unwrap();
        let mut visited = std::collections::HashSet::from([enc.state_hash(kernel, &root)]);
        let mut states = vec![root];
        let mut i = 0;
        while i < states.len() {
            for tx in states[i].enabled(kernel) {
                let mut child = states[i].clone();
                child.step(kernel, tx).unwrap();
                if visited.insert(enc.state_hash(kernel, &child)) {
                    states.push(child);
                }
            }
            i += 1;
        }
        states
    }

    #[test]
    fn flipping_any_packed_bit_changes_the_element_hash() {
        // From an empty, a full and a widest-legal version, and from every
        // version a c3-l3-v2 state stores, each of the 192 single-bit
        // flips moves the element hash.
        let cfg = ModelCheckConfig {
            cores: 3,
            lines: 3,
            ..ModelCheckConfig::default()
        };
        let kernel = model_kernel(&cfg);
        let enc = Encoder::new(&kernel, cfg.cores, true);
        let vid = (1 << 12) - 1;
        let mut bases = std::collections::BTreeSet::from([
            [0; 3],
            [u64::MAX; 3],
            pack(65, 63, (7, vid, vid, vid, true, true, u8::MAX, u64::MAX)),
        ]);
        let mut raw = Vec::new();
        for m in reachable_c3_l3_v2(&enc, &kernel) {
            enc.raw_lines_into(&m, &mut raw);
            bases.extend(&raw);
        }
        assert!(bases.len() > 20, "{}", bases.len());
        for base in bases {
            let h = element_hash(base);
            for (word, bit) in (0..3).flat_map(|w| (0..64).map(move |b| (w, b))) {
                let mut flipped = base;
                flipped[word] ^= 1 << bit;
                assert_ne!(element_hash(flipped), h, "{base:x?} word {word} bit {bit}");
            }
        }
    }

    #[test]
    fn the_fingerprint_ignores_the_order_of_stored_versions() {
        // On every reachable c3-l3-v2 state, reversing, rotating or
        // shuffling the raw versions leaves the fingerprint as it is.
        let cfg = ModelCheckConfig {
            cores: 3,
            lines: 3,
            ..ModelCheckConfig::default()
        };
        let kernel = model_kernel(&cfg);
        let enc = Encoder::new(&kernel, cfg.cores, true);
        let mut raw = Vec::new();
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut permuted_states = 0;
        for m in reachable_c3_l3_v2(&enc, &kernel) {
            enc.raw_lines_into(&m, &mut raw);
            let progress = progress(&m);
            let bound = enc.bound_masks(&kernel, &m);
            let want = enc.fingerprint(progress, &raw, bound);
            assert_eq!(want, enc.state_hash(&kernel, &m));
            if raw.len() < 2 {
                continue;
            }
            permuted_states += 1;
            let mut order = raw.clone();
            order.reverse();
            assert_eq!(enc.fingerprint(progress, &order, bound), want);
            order.rotate_left(1);
            assert_eq!(enc.fingerprint(progress, &order, bound), want);
            for i in (1..order.len()).rev() {
                seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                order.swap(i, (seed >> 33) as usize % (i + 1));
            }
            assert_eq!(enc.fingerprint(progress, &order, bound), want);
        }
        assert!(permuted_states > 1000, "{permuted_states}");
    }

    #[test]
    fn identical_states_hash_identically_and_steps_change_the_hash() {
        let cfg = ModelCheckConfig::default();
        let kernel = model_kernel(&cfg);
        let enc = Encoder::new(&kernel, cfg.cores, true);
        let a = OpMachine::new(&kernel, None);
        let b = OpMachine::new(&kernel, None);
        assert_eq!(enc.state_hash(&kernel, &a), enc.state_hash(&kernel, &b));
        let mut c = b.clone();
        c.step(&kernel, 0).unwrap();
        assert_ne!(enc.state_hash(&kernel, &a), enc.state_hash(&kernel, &c));
    }

    /// The canonical hash over the *full* core × line group, relabeling
    /// the remaining ops along with the caches: the search the stabilizer
    /// restriction replaces.
    fn full_group_hash(enc: &Encoder, kernel: &OpKernel, m: &OpMachine) -> u64 {
        let mut raw = Vec::new();
        enc.raw_lines_into(m, &mut raw);
        let mut best = u64::MAX;
        let mut lines = Vec::new();
        for cp in Relabel::all(enc.cores) {
            for lp in Relabel::all(enc.lines.len()) {
                let mut h = DefaultHasher::new();
                m.committed.hash(&mut h);
                m.misspec.is_some().hash(&mut h);
                for (t, ops) in kernel.txs.iter().enumerate() {
                    m.next[t].hash(&mut h);
                    for op in &ops[m.next[t]..] {
                        cp.label[op.core].hash(&mut h);
                        lp.label[enc.line_index(Addr(op.addr).line())].hash(&mut h);
                        op.write.hash(&mut h);
                    }
                }
                enc.relabel_into(&raw, &cp.label, &lp.label, &mut lines);
                lines.hash(&mut h);
                best = best.min(h.finish());
            }
        }
        best
    }

    #[test]
    fn stabilizer_merges_exactly_what_the_full_group_merges() {
        // Breadth-first over every state c3-l3-v2 reaches: two states share
        // a stabilizer-restricted hash exactly when they share a full-group
        // hash, and the full group does merge some of them.
        let cfg = ModelCheckConfig {
            cores: 3,
            lines: 3,
            ..ModelCheckConfig::default()
        };
        let kernel = model_kernel(&cfg);
        let enc = Encoder::new(&kernel, cfg.cores, true);
        let asym = Encoder::new(&kernel, cfg.cores, false);
        let mut root = OpMachine::new(&kernel, None);
        root.settle(&kernel).unwrap();
        let mut full_to_restricted = std::collections::HashMap::new();
        let mut restricted_to_full = std::collections::HashMap::new();
        let mut unreduced = std::collections::HashSet::new();
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(m) = queue.pop_front() {
            let full = full_group_hash(&enc, &kernel, &m);
            let restricted = enc.state_hash(&kernel, &m);
            assert_eq!(*restricted_to_full.entry(restricted).or_insert(full), full);
            if *full_to_restricted.entry(full).or_insert(restricted) != restricted {
                panic!("the restriction split a full-group orbit");
            }
            if !unreduced.insert(asym.state_hash(&kernel, &m)) {
                continue;
            }
            for tx in m.enabled(&kernel) {
                let mut child = m.clone();
                child.step(&kernel, tx).unwrap();
                queue.push_back(child);
            }
        }
        assert_eq!(unreduced.len(), 1948);
        assert_eq!(full_to_restricted.len(), 1945);
    }

    #[test]
    fn symmetric_interleavings_merge_under_the_reduction() {
        // Which states merge is covered exhaustively by
        // `stabilizer_merges_exactly_what_the_full_group_merges`; here, the
        // identity permutation is always included, so symmetry never
        // merges a state with itself differently.
        let cfg = ModelCheckConfig::default();
        let kernel = model_kernel(&cfg);
        let sym = Encoder::new(&kernel, cfg.cores, true);
        let asym = Encoder::new(&kernel, cfg.cores, false);
        let m = OpMachine::new(&kernel, None);
        // Hash is deterministic under both encoders.
        assert_eq!(sym.state_hash(&kernel, &m), sym.state_hash(&kernel, &m));
        assert_eq!(asym.state_hash(&kernel, &m), asym.state_hash(&kernel, &m));
    }
}
