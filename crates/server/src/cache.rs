//! The two-tier report cache: a **sharded** in-memory LRU over an on-disk
//! store.
//!
//! Reports are cached by content-addressed job key ([`hmtx_types::JobSpec::key`])
//! as their exact compact-JSON bytes — the cache stores and returns *bytes*,
//! never re-serialized values, so a cached response is byte-identical to the
//! freshly computed one.
//!
//! The memory tier is split into [`shard_count`](ReportCache::shard_count)
//! independently locked LRU shards, selected by the leading hex characters
//! of the key ([`shard_index`]). Content keys are uniform hashes, so the
//! prefix spreads load evenly and two requests for different keys almost
//! never contend on the same lock. The total capacity is divided across
//! shards ([`shard_caps`]), each shard evicting LRU **within itself**
//! (logical-clock recency, O(n) eviction over a shard's slice of the
//! capacity).
//!
//! The disk tier persists every insert under `<dir>/<key>.json` via
//! write-to-temp + atomic rename, so a crashed or killed server never
//! leaves a torn report behind, and a restarted server warms itself from
//! its predecessor's work.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Which tier satisfied a lookup (drives the `mem_hits`/`disk_hits`
/// counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The in-memory LRU.
    Mem,
    /// The on-disk store.
    Disk,
}

/// Default number of memory-tier shards. Sixteen single-nibble shards keep
/// per-shard mutexes essentially uncontended at worker-pool concurrency
/// while staying trivial to reason about in tests.
pub const DEFAULT_SHARDS: usize = 16;

/// The memory shard a key lives in: its leading hex characters folded into
/// `0..shards`. Content keys are 32 uniform lowercase-hex characters, so
/// the prefix balances; non-hex bytes (hostile keys that the disk tier
/// rejects anyway) still map deterministically.
#[must_use]
pub fn shard_index(key: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let fold = key.bytes().take(2).fold(0usize, |acc, b| {
        let v = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            b'A'..=b'F' => b - b'A' + 10,
            other => other & 0x0f,
        };
        acc * 16 + v as usize
    });
    fold % shards
}

/// Splits a total capacity as evenly as possible across `shards`: the first
/// `cap % shards` shards get one extra slot, and the per-shard counts sum
/// to exactly `cap`.
#[must_use]
pub fn shard_caps(cap: usize, shards: usize) -> Vec<usize> {
    let shards = shards.max(1);
    let base = cap / shards;
    let extra = cap % shards;
    (0..shards).map(|i| base + usize::from(i < extra)).collect()
}

struct MemCache {
    cap: usize,
    tick: u64,
    map: HashMap<String, (u64, Arc<Vec<u8>>)>,
}

impl MemCache {
    fn get(&mut self, key: &str) -> Option<Arc<Vec<u8>>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(at, bytes)| {
            *at = tick;
            Arc::clone(bytes)
        })
    }

    fn put(&mut self, key: &str, bytes: Arc<Vec<u8>>) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        self.map.insert(key.to_string(), (self.tick, bytes));
        while self.map.len() > self.cap {
            // O(n) LRU eviction: fine at per-shard capacities, zero extra
            // state.
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, (at, _))| *at)
                .map(|(k, _)| k.clone());
            match oldest {
                Some(k) => {
                    self.map.remove(&k);
                }
                None => break,
            }
        }
    }
}

/// The report cache: sharded memory LRU in front of an optional disk store.
pub struct ReportCache {
    shards: Vec<Mutex<MemCache>>,
    disk: Option<PathBuf>,
    tmp_serial: AtomicU64,
}

impl ReportCache {
    /// A cache holding up to `mem_cap` reports in memory across
    /// [`DEFAULT_SHARDS`] shards, persisting to `disk_dir` when given (the
    /// directory is created on first insert).
    #[must_use]
    pub fn new(mem_cap: usize, disk_dir: Option<PathBuf>) -> Self {
        Self::with_shards(mem_cap, DEFAULT_SHARDS, disk_dir)
    }

    /// A cache with an explicit memory-shard count (tests pin 1 for a
    /// single LRU, or a prime to stress the prefix fold).
    /// The effective shard count is clamped to the capacity so a small
    /// cache never ends up with zero-capacity shards that silently drop
    /// their keys.
    #[must_use]
    pub fn with_shards(mem_cap: usize, shards: usize, disk_dir: Option<PathBuf>) -> Self {
        let shards = shards.clamp(1, mem_cap.max(1));
        ReportCache {
            shards: shard_caps(mem_cap, shards)
                .into_iter()
                .map(|cap| {
                    Mutex::new(MemCache {
                        cap,
                        tick: 0,
                        map: HashMap::new(),
                    })
                })
                .collect(),
            disk: disk_dir,
            tmp_serial: AtomicU64::new(0),
        }
    }

    /// Number of memory shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, key: &str) -> usize {
        shard_index(key, self.shards.len())
    }

    /// Total entries resident in the memory tier (sums the shards; for
    /// tests and observability, not a hot path).
    #[must_use]
    pub fn mem_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum()
    }

    /// Entries resident in one memory shard.
    #[must_use]
    pub fn shard_len(&self, shard: usize) -> usize {
        self.shards[shard].lock().unwrap().map.len()
    }

    fn disk_path(&self, key: &str) -> Option<PathBuf> {
        // Keys are 32 lowercase hex characters; refuse anything else so a
        // forged key can never traverse outside the cache directory.
        if key.len() != 32 || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        self.disk.as_ref().map(|d| d.join(format!("{key}.json")))
    }

    /// Looks the key up, promoting disk hits into the memory tier.
    pub fn get(&self, key: &str) -> Option<(Arc<Vec<u8>>, Tier)> {
        let shard = &self.shards[self.shard_of(key)];
        if let Some(bytes) = shard.lock().unwrap().get(key) {
            return Some((bytes, Tier::Mem));
        }
        let path = self.disk_path(key)?;
        match std::fs::read(&path) {
            Ok(bytes) => {
                let bytes = Arc::new(bytes);
                shard.lock().unwrap().put(key, Arc::clone(&bytes));
                Some((bytes, Tier::Disk))
            }
            Err(_) => None,
        }
    }

    /// Inserts into both tiers. Disk write errors are reported (the entry
    /// still serves from memory; a read-only cache dir degrades the server
    /// to memory-only instead of failing requests).
    ///
    /// # Errors
    ///
    /// Returns the disk-tier I/O error, if any.
    pub fn put(&self, key: &str, bytes: Arc<Vec<u8>>) -> io::Result<()> {
        self.shards[self.shard_of(key)]
            .lock()
            .unwrap()
            .put(key, Arc::clone(&bytes));
        let Some(path) = self.disk_path(key) else {
            return Ok(());
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        // Unique temp name per writer, then atomic rename: concurrent
        // inserts of the same key race benignly (identical bytes).
        let serial = self.tmp_serial.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{serial}"));
        std::fs::write(&tmp, bytes.as_slice())?;
        match std::fs::rename(&tmp, &path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> String {
        format!("{:032x}", u128::from(n))
    }

    /// A key that lands in `shard` of `shards` (brute-forced leading byte).
    fn key_in_shard(shard: usize, shards: usize, salt: u32) -> String {
        (0..=255u32)
            .map(|p| format!("{p:02x}{salt:030x}"))
            .find(|k| shard_index(k, shards) == shard)
            .expect("every shard is reachable from some two-hex prefix")
    }

    #[test]
    fn memory_tier_hits_and_evicts_lru() {
        // One shard recovers the PR 4 single-LRU semantics exactly.
        let cache = ReportCache::with_shards(2, 1, None);
        cache.put(&key(1), Arc::new(b"one".to_vec())).unwrap();
        cache.put(&key(2), Arc::new(b"two".to_vec())).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(cache.get(&key(1)).unwrap().1, Tier::Mem);
        cache.put(&key(3), Arc::new(b"three".to_vec())).unwrap();
        assert!(cache.get(&key(2)).is_none(), "LRU entry must be evicted");
        assert_eq!(*cache.get(&key(1)).unwrap().0, b"one".to_vec());
        assert_eq!(*cache.get(&key(3)).unwrap().0, b"three".to_vec());
    }

    #[test]
    fn shard_caps_sum_to_capacity_and_spread_evenly() {
        for (cap, shards) in [(0, 16), (1, 16), (15, 16), (16, 16), (100, 16), (7, 3)] {
            let caps = shard_caps(cap, shards);
            assert_eq!(caps.len(), shards);
            assert_eq!(caps.iter().sum::<usize>(), cap, "cap {cap} shards {shards}");
            let (min, max) = (caps.iter().min().unwrap(), caps.iter().max().unwrap());
            assert!(max - min <= 1, "even split: {caps:?}");
        }
    }

    #[test]
    fn shard_index_is_deterministic_prefix_based_and_in_range() {
        for shards in [1, 2, 3, 16, 17] {
            for n in 0..64u8 {
                let k = key(n);
                let s = shard_index(&k, shards);
                assert!(s < shards);
                assert_eq!(s, shard_index(&k, shards), "deterministic");
            }
        }
        // Prefix-based: keys sharing the first two characters co-locate.
        let a = "ab0000000000000000000000000000aa";
        let b = "ab1111111111111111111111111111bb";
        assert_eq!(shard_index(a, 16), shard_index(b, 16));
        // Hostile non-hex keys still map in range.
        assert!(shard_index("../../etc/passwd", 16) < 16);
        assert_eq!(shard_index("anything", 1), 0);
    }

    #[test]
    fn eviction_is_per_shard_not_global() {
        // 2 shards × 1 slot each. Filling shard 0 twice must evict within
        // shard 0 and leave shard 1's resident entry alone.
        let cache = ReportCache::with_shards(2, 2, None);
        let s0a = key_in_shard(0, 2, 1);
        let s0b = key_in_shard(0, 2, 2);
        let s1 = key_in_shard(1, 2, 3);
        cache.put(&s1, Arc::new(b"one".to_vec())).unwrap();
        cache.put(&s0a, Arc::new(b"a".to_vec())).unwrap();
        cache.put(&s0b, Arc::new(b"b".to_vec())).unwrap();
        assert!(cache.get(&s0a).is_none(), "evicted within its own shard");
        assert!(cache.get(&s0b).is_some());
        assert!(cache.get(&s1).is_some(), "other shard untouched");
        assert_eq!(cache.mem_len(), 2);
    }

    #[test]
    fn disk_tier_persists_across_instances_and_promotes() {
        let dir = std::env::temp_dir().join(format!("hmtx-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = ReportCache::new(4, Some(dir.clone()));
            cache.put(&key(7), Arc::new(b"report".to_vec())).unwrap();
        }
        let fresh = ReportCache::new(4, Some(dir.clone()));
        let (bytes, tier) = fresh.get(&key(7)).expect("disk tier must serve");
        assert_eq!((bytes.as_slice(), tier), (&b"report"[..], Tier::Disk));
        // Promoted: the second lookup is a memory hit.
        assert_eq!(fresh.get(&key(7)).unwrap().1, Tier::Mem);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_keys_never_touch_disk() {
        let dir = std::env::temp_dir().join(format!("hmtx-cache-evil-{}", std::process::id()));
        let cache = ReportCache::new(4, Some(dir.clone()));
        for evil in ["../../etc/passwd", "short", &"x".repeat(32)] {
            assert!(cache.disk_path(evil).is_none(), "{evil}");
            // Still serves from memory.
            cache.put(evil, Arc::new(b"v".to_vec())).unwrap();
            assert_eq!(cache.get(evil).unwrap().1, Tier::Mem);
        }
        assert!(!dir.exists(), "no directory may be created for bad keys");
    }

    #[test]
    fn zero_capacity_memory_tier_stays_empty() {
        let cache = ReportCache::new(0, None);
        cache.put(&key(1), Arc::new(b"one".to_vec())).unwrap();
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(cache.mem_len(), 0);
    }
}
