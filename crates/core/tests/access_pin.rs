//! Pins the memory system's observable behaviour under every protocol knob.
//!
//! Each case drives one seeded stream of several thousand accesses through
//! `MemorySystem::access` — speculative and non-speculative reads and
//! writes, wrong-path loads, commits, aborts and VID resets — and folds
//! every response, latency, statistic, line state and the final memory
//! image into one FNV-1a digest. A change to how the protocol decides or
//! charges anything moves a digest; a refactor must leave all of them
//! unchanged.

use hmtx_core::{AccessKind, AccessRequest, AccessResponse, MemStats, MemorySystem};
use hmtx_types::{Addr, CacheConfig, CoreId, Interconnect, MachineConfig, VictimPolicy, Vid};

/// Accesses per stream.
const STEPS: usize = 6_000;

/// FNV-1a over everything the stream observes.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// splitmix64: a small seeded generator, so the stream needs no crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// The line pool: eight lines 2 KB apart (one set of the default 8 KB L1,
/// twice its ways) at each of three set offsets, so victims reach the L2.
fn pool() -> Vec<u64> {
    (0..8u64)
        .flat_map(|k| (0..3u64).map(move |j| (k * 32 + j) * 64))
        .collect()
}

fn test_default() -> MachineConfig {
    MachineConfig::test_default()
}

fn tiny() -> MachineConfig {
    let mut c = test_default();
    c.l1 = CacheConfig {
        size_bytes: 512,
        ways: 2,
        latency: 2,
    };
    c.l2 = CacheConfig {
        size_bytes: 1024,
        ways: 2,
        latency: 40,
    };
    c
}

fn eager() -> MachineConfig {
    let mut c = test_default();
    c.hmtx.lazy_commit = false;
    c
}

fn sla_off() -> MachineConfig {
    let mut c = test_default();
    c.hmtx.sla_enabled = false;
    c
}

fn directory() -> MachineConfig {
    let mut c = test_default();
    c.interconnect = Interconnect::Directory {
        banks: 4,
        hop_latency: 6,
    };
    c
}

fn unbounded() -> MachineConfig {
    let mut c = tiny();
    c.unbounded_sets = true;
    c
}

fn plain_lru() -> MachineConfig {
    let mut c = tiny();
    c.hmtx.victim_policy = VictimPolicy::PlainLru;
    c
}

fn hash_stats(d: &mut Digest, s: &MemStats) {
    for v in [
        s.loads,
        s.stores,
        s.spec_loads,
        s.spec_stores,
        s.wrong_path_loads,
        s.l1_hits,
        s.l1_misses,
        s.peer_transfers,
        s.l2_hits,
        s.mem_fills,
        s.upgrades,
        s.slas_sent,
        s.slas_skipped,
        s.sla_aborts_avoided,
        s.commits,
        s.aborts,
        s.vid_resets,
        s.safe_overflow_writebacks,
        s.overflow_refills,
        s.short_vid_compares,
        s.cascaded_vid_compares,
        s.eager_commit_lines_walked,
        s.directory_lookups,
        s.unbounded_spills,
        s.unbounded_fills,
        s.injected_conflicts,
    ] {
        d.u64(v);
    }
    d.str(&format!("{:?}", s.rw_totals()));
}

/// What one run saw, beyond its digest: enough to show the stream covers
/// what it claims to.
#[derive(Default)]
struct Coverage {
    misspecs: u64,
    commits: u64,
    aborts: u64,
    resets: u64,
}

/// Runs the seeded stream on `cfg` and returns its digest.
fn run(cfg: MachineConfig, seed: u64, trace: bool) -> (u64, Coverage, MemStats) {
    let cores = cfg.num_cores as u64;
    let max_vid = cfg.hmtx.max_vid().0;
    let mut mem = MemorySystem::new(cfg);
    if trace {
        mem.set_trace_capacity(1 << 16);
    }
    let lines = pool();
    let mut rng = Rng(seed);
    let mut d = Digest::new();
    let mut cov = Coverage::default();
    let mut now = 0u64;
    // Live transactions are the VIDs in (last committed, top].
    let mut top = 0u16;

    for step in 0..STEPS {
        let lc = mem.last_committed().0;
        let roll = rng.below(100);
        if roll < 12 && top > lc {
            let latency = mem.commit(now, Vid(lc + 1)).expect("in-order commit");
            cov.commits += 1;
            d.u64(latency);
            now += latency;
        } else if roll < 14 {
            let latency = mem.abort_all(now);
            cov.aborts += 1;
            top = mem.last_committed().0;
            d.u64(latency);
            now += latency;
        } else if roll < 16 || (lc == max_vid && top == lc) {
            for v in lc + 1..=top {
                d.u64(mem.commit(now, Vid(v)).expect("in-order commit"));
            }
            let latency = mem.vid_reset(now);
            cov.resets += 1;
            top = 0;
            d.u64(latency);
            now += latency;
        } else {
            let core = CoreId(rng.below(cores) as usize);
            let line = lines[rng.below(lines.len() as u64) as usize];
            let addr = Addr(line + 8 * rng.below(8));
            let vid = if rng.chance(30) {
                Vid::NON_SPECULATIVE
            } else {
                if top < max_vid && (top == lc || (top - lc < 4 && rng.chance(25))) {
                    top += 1;
                }
                if top == lc {
                    Vid::NON_SPECULATIVE
                } else {
                    Vid(lc + 1 + rng.below(u64::from(top - lc)) as u16)
                }
            };
            let kind_roll = rng.below(100);
            let (kind, wrong_path) = if kind_roll < 10 {
                (AccessKind::Read, true)
            } else if kind_roll < 60 {
                (AccessKind::Read, false)
            } else {
                (AccessKind::Write(rng.next()), false)
            };
            let req = AccessRequest {
                core,
                addr,
                kind,
                vid,
                wrong_path,
            };
            match mem.access(now, &req).expect("aligned access") {
                AccessResponse::Done {
                    value,
                    latency,
                    sla_required,
                } => {
                    d.u64(value);
                    d.u64(latency);
                    d.u64(u64::from(sla_required));
                    now += latency;
                }
                AccessResponse::Misspec { cause, latency } => {
                    cov.misspecs += 1;
                    d.str(&format!("{cause:?}"));
                    d.u64(latency);
                    now += latency;
                    let abort = mem.abort_all(now);
                    cov.aborts += 1;
                    top = mem.last_committed().0;
                    d.u64(abort);
                    now += abort;
                }
            }
        }
        now += rng.below(8);
        if step % 500 == 0 {
            let violations = mem.check_invariants();
            assert!(violations.is_empty(), "step {step}: {violations:?}");
        }
    }

    // Final view: every version of every pool line, and the word each live
    // VID reads there.
    let lc = mem.last_committed().0;
    for &line in &lines {
        for (cache, state) in mem.line_states(Addr(line)) {
            d.str(&cache);
            d.str(&state);
        }
        for vid in [0, lc + 1, top] {
            d.u64(mem.peek_word(Addr(line), Vid(vid)));
        }
    }
    for v in lc + 1..=top {
        d.u64(mem.commit(now, Vid(v)).expect("in-order commit"));
    }
    if trace {
        for event in mem.take_trace() {
            d.str(&format!("{event:?}"));
        }
    }
    mem.drain_committed().expect("everything committed");
    d.u64(mem.memory().fingerprint());
    hash_stats(&mut d, mem.stats());
    (d.0, cov, mem.stats().clone())
}

/// A pinned run: its name, its configuration, whether the tracer is on,
/// and its digest.
type Case = (&'static str, fn() -> MachineConfig, bool, u64);

#[test]
fn access_streams_match_their_pinned_digests() {
    let cases: [Case; 8] = [
        ("test_default", test_default, false, 0xa882_d28e_537f_1dab),
        (
            "test_default traced",
            test_default,
            true,
            0xd43c_6c0e_4587_14d4,
        ),
        ("tiny (overflow)", tiny, false, 0xcc19_565f_9ccf_6ad2),
        ("eager commit", eager, false, 0x4488_2ca3_64aa_ed99),
        ("sla off", sla_off, false, 0x9955_8dc1_d7c2_9d42),
        ("directory", directory, false, 0x665d_4fe1_d6bd_3eb9),
        ("unbounded_sets", unbounded, false, 0xcaf2_78c0_2c44_582f),
        ("plain-lru victims", plain_lru, false, 0x2951_8727_8065_15f4),
    ];
    let mut failures = Vec::new();
    for (name, cfg, trace, want) in cases {
        let (got, cov, stats) = run(cfg(), 0x5eed_0031, trace);
        assert!(
            cov.commits > 100 && cov.aborts > 10 && cov.resets > 10 && cov.misspecs > 10,
            "{name}: the stream must commit, abort, misspeculate and reset \
             ({} commits, {} aborts, {} misspecs, {} resets)",
            cov.commits,
            cov.aborts,
            cov.misspecs,
            cov.resets
        );
        assert!(
            stats.peer_transfers > 0 && stats.l2_hits > 0 && stats.mem_fills > 0,
            "{name}: misses must be served by peers, the L2 and memory"
        );
        if got != want {
            failures.push(format!("{name}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(
        failures.is_empty(),
        "digests moved:\n{}",
        failures.join("\n")
    );
}
