//! Deterministic fault injection: the seeded, replayable plan that decides
//! *when* the memory system, the machine, and the runtime inject the
//! adversarial events of §5–§8 (spurious conflicts, wrong-path load storms,
//! queue delays, VID and cache capacity squeezes).
//!
//! Every decision is a pure function of `(seed, site, per-site counter)`
//! driven by SplitMix64, so a given [`FaultConfig`] replays the identical
//! fault schedule on every run and host — which is what lets the chaos suite
//! assert that committed outputs are byte-identical to the fault-free run
//! for *any* schedule, and lets a failing seed be checked in as a
//! regression.
//!
//! # Examples
//!
//! ```
//! use hmtx_core::faults::{FaultPlan, FaultSite};
//! use hmtx_types::FaultConfig;
//!
//! let mut a = FaultPlan::new(FaultConfig::chaos(42, 500_000));
//! let mut b = FaultPlan::new(FaultConfig::chaos(42, 500_000));
//! for _ in 0..100 {
//!     assert_eq!(
//!         a.fire(FaultSite::SpuriousConflict),
//!         b.fire(FaultSite::SpuriousConflict),
//!     );
//! }
//! ```

use hmtx_types::FaultConfig;

/// An injection point class. Each site draws from its own decision stream,
/// so enabling or disabling one class never perturbs the schedule of
/// another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A speculative memory access is answered with a conflict
    /// misspeculation before touching any cache state.
    SpuriousConflict,
    /// A retired branch is forced down its wrong path as if mispredicted
    /// (§5.1 SLA stress).
    WrongPathStorm,
    /// A hardware queue operation is charged extra latency.
    QueueDelay,
}

impl FaultSite {
    /// Human-readable site name (trace events, reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::SpuriousConflict => "spurious-conflict",
            FaultSite::WrongPathStorm => "wrong-path-storm",
            FaultSite::QueueDelay => "queue-delay",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::SpuriousConflict => 0,
            FaultSite::WrongPathStorm => 1,
            FaultSite::QueueDelay => 2,
        }
    }

    fn tag(self) -> u64 {
        // Arbitrary fixed stream separators (changing one reshuffles only
        // that site's schedule).
        [
            0x5350_4543_434f_4e46, // "SPECCONF"
            0x5750_5354_4f52_4d21, // "WPSTORM!"
            0x5155_4555_4544_4c59, // "QUEUEDLY"
        ][self.index()]
    }
}

const SITE_COUNT: usize = 3;

/// SplitMix64 finalizer: a high-quality 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a deterministic value in `[0, bound)` from a seed and a stream
/// tag, without any plan state. Used for one-shot decisions such as the VID
/// and cache squeezes the runtime applies before a run starts.
pub fn derive(seed: u64, stream: u64, bound: u64) -> u64 {
    assert!(bound > 0, "empty derivation domain");
    mix(seed ^ mix(stream)) % bound
}

/// The seeded, replayable fault plan. One instance lives in the memory
/// system and one in the machine; both are deterministic functions of the
/// shared seed and their own per-site counters, so the combined schedule is
/// replayable even though the two consult their plans independently.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    counters: [u64; SITE_COUNT],
    injected: [u64; SITE_COUNT],
}

impl FaultPlan {
    /// Builds the plan for `cfg`.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan {
            cfg,
            counters: [0; SITE_COUNT],
            injected: [0; SITE_COUNT],
        }
    }

    /// The configuration this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    fn site_enabled(&self, site: FaultSite) -> bool {
        match site {
            FaultSite::SpuriousConflict => self.cfg.spurious_conflicts,
            FaultSite::WrongPathStorm => self.cfg.wrong_path_storms,
            FaultSite::QueueDelay => self.cfg.queue_delays,
        }
    }

    /// Decides whether the next visit of `site` injects a fault. Advances
    /// that site's decision stream even when the site is disabled, so
    /// toggling one fault class never reshuffles another's schedule.
    pub fn fire(&mut self, site: FaultSite) -> bool {
        let i = site.index();
        let n = self.counters[i];
        self.counters[i] += 1;
        if !self.site_enabled(site) {
            return false;
        }
        let hit = mix(self.cfg.seed ^ site.tag() ^ mix(n)) % 1_000_000 < self.cfg.rate_ppm as u64;
        if hit {
            self.injected[i] += 1;
        }
        hit
    }

    /// A deterministic magnitude in `[1, bound]` for the fault that just
    /// fired at `site` (e.g. how many extra cycles a queue delay costs).
    pub fn magnitude(&self, site: FaultSite, bound: u64) -> u64 {
        let n = self.counters[site.index()];
        1 + mix(self.cfg.seed ^ site.tag().rotate_left(17) ^ mix(n)) % bound.max(1)
    }

    /// Total faults injected at `site` so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_replays_identically() {
        let mut a = FaultPlan::new(FaultConfig::chaos(99, 100_000));
        let mut b = FaultPlan::new(FaultConfig::chaos(99, 100_000));
        for k in 0..1_000 {
            let site = match k % 3 {
                0 => FaultSite::SpuriousConflict,
                1 => FaultSite::WrongPathStorm,
                _ => FaultSite::QueueDelay,
            };
            assert_eq!(a.fire(site), b.fire(site));
            assert_eq!(a.magnitude(site, 64), b.magnitude(site, 64));
        }
        assert_eq!(
            a.injected(FaultSite::QueueDelay),
            b.injected(FaultSite::QueueDelay)
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultPlan::new(FaultConfig::chaos(1, 500_000));
        let mut b = FaultPlan::new(FaultConfig::chaos(2, 500_000));
        let divergence = (0..256)
            .filter(|_| a.fire(FaultSite::SpuriousConflict) != b.fire(FaultSite::SpuriousConflict))
            .count();
        assert!(divergence > 0, "seeds must produce distinct schedules");
    }

    #[test]
    fn rate_is_roughly_honored() {
        let mut p = FaultPlan::new(FaultConfig::chaos(7, 250_000)); // 25%
        let hits = (0..10_000)
            .filter(|_| p.fire(FaultSite::SpuriousConflict))
            .count();
        assert!(
            (1_500..=3_500).contains(&hits),
            "25% nominal rate produced {hits}/10000"
        );
        assert_eq!(p.injected(FaultSite::SpuriousConflict), hits as u64);
    }

    #[test]
    fn disabled_sites_never_fire_but_streams_stay_independent() {
        let mut cfg = FaultConfig::chaos(3, 1_000_000);
        cfg.queue_delays = false;
        let mut p = FaultPlan::new(cfg);
        let mut q = FaultPlan::new(FaultConfig::chaos(3, 1_000_000));
        for _ in 0..64 {
            assert!(!p.fire(FaultSite::QueueDelay));
            assert!(q.fire(FaultSite::QueueDelay)); // rate 100%
                                                    // The spurious-conflict stream is unaffected by the toggle.
            assert_eq!(
                p.fire(FaultSite::SpuriousConflict),
                q.fire(FaultSite::SpuriousConflict)
            );
        }
    }

    #[test]
    fn zero_rate_never_fires() {
        let mut p = FaultPlan::new(FaultConfig::chaos(11, 0));
        assert!((0..4_096).all(|_| !p.fire(FaultSite::WrongPathStorm)));
    }

    #[test]
    fn derive_is_stable_and_bounded() {
        let a = derive(42, 0xABCD, 10);
        assert_eq!(a, derive(42, 0xABCD, 10));
        assert!(a < 10);
        assert_ne!(derive(42, 1, 1 << 60), derive(43, 1, 1 << 60));
    }

    #[test]
    fn magnitude_in_range() {
        let p = FaultPlan::new(FaultConfig::chaos(5, 1));
        for bound in [1u64, 2, 64] {
            let m = p.magnitude(FaultSite::QueueDelay, bound);
            assert!((1..=bound).contains(&m), "magnitude {m} out of [1,{bound}]");
        }
    }
}
