//! A consistent-hash ring over backend addresses.
//!
//! Each backend contributes `replicas` virtual points, hashed as
//! `"{addr}#{vnode}"` with FNV-1a-64; a job's content-addressed key hashes
//! onto the same circle and is homed at the first point clockwise. Virtual
//! points smooth the load split (with one point per backend a 3-node ring
//! routinely lands 60/30/10), and make the classic consistent-hashing
//! property exact at the granularity we need: removing a backend reassigns
//! only the keys it was homing — every other key keeps its home, which is
//! what keeps the per-backend memory caches warm through a failover.
//!
//! The ring is immutable after construction. Liveness is the router's
//! concern, not the ring's: [`Ring::candidates`] yields *every* backend in
//! ring order from the key's home, and the router walks that order past
//! whatever is down. Routing through a static ring plus a dynamic health
//! view (rather than rebuilding the ring on failure) means a backend that
//! restarts gets its exact old partition back.

pub use hmtx_server::fnv1a_64;

/// Finalizes a hash into a ring position. FNV-1a alone has weak high-bit
/// avalanche for inputs differing only in a short suffix (sequential keys
/// stripe past whole backends); the splitmix64 finalizer fixes that, so
/// ring balance does not depend on the key population being
/// hash-uniform already.
fn position(bytes: &[u8]) -> u64 {
    let mut h = fnv1a_64(bytes);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Default virtual points per backend. 64 keeps the largest/smallest
/// partition ratio under ~1.5 for small clusters while the ring stays a
/// few hundred entries — one binary search and a short walk per route.
pub const DEFAULT_REPLICAS: usize = 64;

/// An immutable consistent-hash ring over backend indexes.
#[derive(Debug, Clone)]
pub struct Ring {
    backends: Vec<String>,
    /// `(point, backend index)`, sorted by point.
    points: Vec<(u64, usize)>,
}

impl Ring {
    /// Builds a ring with `replicas` virtual points per backend
    /// (`replicas` is clamped to at least 1).
    #[must_use]
    pub fn new(backends: &[String], replicas: usize) -> Ring {
        let replicas = replicas.max(1);
        let mut points = Vec::with_capacity(backends.len() * replicas);
        for (index, addr) in backends.iter().enumerate() {
            for vnode in 0..replicas {
                points.push((position(format!("{addr}#{vnode}").as_bytes()), index));
            }
        }
        // Ties (astronomically unlikely with distinct addresses) resolve by
        // backend index so construction order never matters.
        points.sort_unstable();
        Ring {
            backends: backends.to_vec(),
            points,
        }
    }

    /// The backend addresses, in construction order (`candidates` returns
    /// indexes into this slice).
    #[must_use]
    pub fn backends(&self) -> &[String] {
        &self.backends
    }

    /// Number of backends.
    #[must_use]
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// True when the ring has no backends.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// Index of the first ring point at or after `hash` (wrapping).
    fn successor(&self, hash: u64) -> usize {
        match self.points.binary_search(&(hash, 0)) {
            Ok(i) => i,
            Err(i) if i == self.points.len() => 0,
            Err(i) => i,
        }
    }

    /// The backend that homes `key`.
    ///
    /// # Panics
    ///
    /// Panics on an empty ring.
    #[must_use]
    pub fn home(&self, key: &str) -> usize {
        assert!(!self.is_empty(), "routing on an empty ring");
        self.points[self.successor(position(key.as_bytes()))].1
    }

    /// Every backend index in ring order starting from `key`'s home: the
    /// failover sequence. Each backend appears exactly once.
    #[must_use]
    pub fn candidates(&self, key: &str) -> Vec<usize> {
        if self.is_empty() {
            return Vec::new();
        }
        let start = self.successor(position(key.as_bytes()));
        let mut seen = vec![false; self.backends.len()];
        let mut order = Vec::with_capacity(self.backends.len());
        for offset in 0..self.points.len() {
            let (_, index) = self.points[(start + offset) % self.points.len()];
            if !seen[index] {
                seen[index] = true;
                order.push(index);
                if order.len() == self.backends.len() {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    fn keys(n: usize) -> Vec<String> {
        // Shaped like real job keys: 32 lowercase hex chars.
        (0..n).map(|i| format!("{i:032x}")).collect()
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let ring = Ring::new(&addrs(3), DEFAULT_REPLICAS);
        for key in keys(100) {
            let home = ring.home(&key);
            assert!(home < 3);
            assert_eq!(home, ring.home(&key), "same key, same home");
            let c = ring.candidates(&key);
            assert_eq!(c[0], home, "candidates start at the home");
            let mut sorted = c.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "each backend exactly once");
        }
    }

    #[test]
    fn virtual_points_spread_the_keyspace() {
        let ring = Ring::new(&addrs(3), DEFAULT_REPLICAS);
        let mut counts = [0usize; 3];
        let n = 3000;
        for key in keys(n) {
            counts[ring.home(&key)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > n / 6 && c < n / 2,
                "backend {i} homes {c} of {n} keys — too lopsided: {counts:?}"
            );
        }
    }

    #[test]
    fn removing_a_backend_only_moves_its_own_keys() {
        let three = addrs(3);
        let two = three[..2].to_vec();
        let full = Ring::new(&three, DEFAULT_REPLICAS);
        let reduced = Ring::new(&two, DEFAULT_REPLICAS);
        for key in keys(1000) {
            let home = full.home(&key);
            if home < 2 {
                assert_eq!(
                    reduced.home(&key),
                    home,
                    "key {key} homed on a surviving backend must not move"
                );
            } else {
                // Keys the removed backend homed land on its ring successor —
                // exactly the next candidate the full ring already named.
                assert_eq!(reduced.home(&key), full.candidates(&key)[1]);
            }
        }
    }

    #[test]
    fn single_backend_ring_routes_everything_to_it() {
        let ring = Ring::new(&addrs(1), 4);
        for key in keys(50) {
            assert_eq!(ring.home(&key), 0);
            assert_eq!(ring.candidates(&key), vec![0]);
        }
        assert!(Ring::new(&[], 4).candidates("00").is_empty());
    }

    #[test]
    fn replicas_zero_is_clamped_not_empty() {
        let ring = Ring::new(&addrs(2), 0);
        assert_eq!(ring.candidates(&keys(1)[0]).len(), 2);
    }
}
