//! Canonical state encoding with core/line symmetry reduction.
//!
//! The visited set stores one 64-bit hash per canonical state
//! (hash compaction, Stern–Dill style). A state's canonical hash is the
//! minimum, over the core permutation × line permutation pairs that can map
//! it onto another reachable state, of the hash of its encoding with caches
//! and line addresses relabeled through the permutation.
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
use std::hash::{DefaultHasher, Hash, Hasher};

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
/// word]`. A state's encoding is its versions' packed words, sorted.
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

/// One stored line version, pre-extracted for relabeling: `(cache, line)`
/// hold *raw* indices (`cache == cores` means the shared L2, `cache ==
/// cores + 1` the overflow table; `line == usize::MAX` an address outside
/// the model's line set).
#[derive(Debug, Clone, Copy)]
struct RawLine {
    cache: usize,
    line: usize,
    body: LineBody,
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

/// The two buffers of one [`Encoder::state_hash`] call, reused by the
/// next call.
#[derive(Debug, Default)]
struct HashScratch {
    raw: Vec<RawLine>,
    enc: Vec<Packed>,
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
    scratch: RefCell<HashScratch>,
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

    /// Every stored version of `m`, with raw cache and line indices, in
    /// scan order (the encoding sorts after relabeling), into `raw`.
    fn raw_lines_into(&self, m: &OpMachine, raw: &mut Vec<RawLine>) {
        raw.clear();
        for (idx, cache) in m.mem.caches().enumerate() {
            for a in cache.abstract_lines() {
                raw.push(RawLine {
                    cache: idx, // L1[i] at i, L2 at `cores`
                    line: self.line_index(a.addr),
                    body: (
                        a.state as u8,
                        a.mod_vid.0,
                        a.high_vid.0,
                        a.phantom_high.0,
                        a.shared_hint,
                        a.commit_pending,
                        a.lru_rank,
                        a.word0,
                    ),
                });
            }
        }
        for l in m.mem.overflow_lines() {
            raw.push(RawLine {
                cache: self.cores + 1,
                line: self.line_index(l.meta.addr),
                body: (
                    l.meta.state as u8,
                    l.meta.mod_vid.0,
                    l.meta.high_vid.0,
                    l.meta.phantom_high.0,
                    l.meta.shared_hint,
                    false,
                    0,
                    l.data.read_u64(0),
                ),
            });
        }
    }

    /// The cache contents relabeled through `cp` and `lp` and packed:
    /// caches in label order, line versions sorted within each cache.
    fn relabel_into(&self, raw: &[RawLine], cp: &[usize], lp: &[usize], enc: &mut Vec<Packed>) {
        enc.clear();
        enc.extend(raw.iter().map(|r| {
            let cache = if r.cache < self.cores {
                cp[r.cache]
            } else {
                r.cache
            };
            let line = if r.line == usize::MAX {
                usize::MAX
            } else {
                lp[r.line]
            };
            pack(cache, line, r.body)
        }));
        enc.sort_unstable();
    }

    /// The canonical hash of a model state. Its buffers are the encoder's
    /// own, reused from call to call.
    pub fn state_hash(&self, kernel: &OpKernel, m: &OpMachine) -> u64 {
        let mut scratch = self.scratch.borrow_mut();
        let HashScratch { raw, enc } = &mut *scratch;
        self.raw_lines_into(m, raw);

        // Progress identifies the remaining ops, which every permutation
        // in the stabilizer leaves as they are.
        let mut prefix = DefaultHasher::new();
        m.committed.hash(&mut prefix);
        m.misspec.is_some().hash(&mut prefix);
        m.next.hash(&mut prefix);
        let (bound_cores, bound_lines) = self
            .bound
            .iter()
            .enumerate()
            .map(|(t, suffix)| suffix[m.next[t].min(kernel.txs[t].len())])
            .fold((0, 0), |(c, l), (tc, tl)| (c | tc, l | tl));

        let mut best = u64::MAX;
        for cp in self.core_perms.iter().filter(|p| p.fixes(bound_cores)) {
            for lp in self.line_perms.iter().filter(|p| p.fixes(bound_lines)) {
                self.relabel_into(raw, &cp.label, &lp.label, enc);
                let mut h = prefix.clone();
                enc.as_flattened().hash(&mut h);
                best = best.min(h.finish());
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmtx_explore::model_kernel;
    use hmtx_types::ModelCheckConfig;

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
        for (cache, line, body) in inputs {
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
