//! Architectural configuration, mirroring Table 2 of the paper.

use crate::error::ConfigError;

/// Cache line size in bytes (Table 2: 64 B).
pub const LINE_SIZE: usize = 64;

/// `log2(LINE_SIZE)`.
pub const LINE_SIZE_BITS: u32 = 6;

/// Bits of a core index in the scheduler's packed `(clock, core)` key; the
/// clock takes the remaining 48 bits.
pub const CORE_KEY_BITS: u32 = 16;

/// Largest core count [`MachineConfig::validate`] accepts: every core index
/// must fit in [`CORE_KEY_BITS`].
pub const MAX_CORES: usize = 1 << CORE_KEY_BITS;

/// The simulated-clock ceiling: a core whose clock reaches it ends the run
/// with `SimError::CycleLimit`, so clocks never wrap (and always fit the
/// scheduler's packed key). Far above any workload: 2^48 cycles is about
/// three days at 1 GHz.
pub const CYCLE_CEILING: u64 = (1 << (64 - CORE_KEY_BITS)) - 1;

/// Geometry and latency of one cache level.
///
/// # Examples
///
/// ```
/// use hmtx_types::CacheConfig;
/// let l1 = CacheConfig::paper_l1();
/// assert_eq!(l1.size_bytes, 64 * 1024);
/// assert_eq!(l1.num_sets(), 64 * 1024 / 64 / 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Set associativity (ways per set).
    pub ways: usize,
    /// Access latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Table 2 L1: 64 KB, 8-way, 2-cycle.
    pub fn paper_l1() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            ways: 8,
            latency: 2,
        }
    }

    /// Table 2 shared L2: 32 MB, 32-way, 40-cycle.
    pub fn paper_l2() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024 * 1024,
            ways: 32,
            latency: 40,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / LINE_SIZE / self.ways
    }

    /// Number of lines implied by the geometry.
    pub fn num_lines(&self) -> usize {
        self.size_bytes / LINE_SIZE
    }

    /// Validates that the geometry is consistent (power-of-two sets, nonzero).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the size is not an exact multiple of
    /// `ways * LINE_SIZE` or the set count is not a power of two.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.ways == 0 || self.size_bytes == 0 {
            return Err(ConfigError::new("cache size and ways must be nonzero"));
        }
        if !self.size_bytes.is_multiple_of(self.ways * LINE_SIZE) {
            return Err(ConfigError::new(
                "cache size must be a multiple of ways * line size",
            ));
        }
        if !self.num_sets().is_power_of_two() {
            return Err(ConfigError::new("cache set count must be a power of two"));
        }
        Ok(())
    }
}

/// Policy used by the last-level cache when choosing an eviction victim
/// among speculative lines (paper §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VictimPolicy {
    /// Prefer non-speculative lines, then overflow-safe `S-O(0,·)` lines,
    /// and only then lines whose eviction forces an abort (the paper's
    /// recommendation).
    #[default]
    PreferSafeOverflow,
    /// Plain LRU, ignoring speculative state (ablation D baseline).
    PlainLru,
}

/// How coherence requests reach other caches.
///
/// The paper's design is a snoopy bus (§4.1); its future work (§8)
/// proposes adapting the scheme to a directory protocol "to allow for
/// efficient scaling to many more cores". Both are implemented; the
/// protocol *state machine* is identical, only request routing and timing
/// differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Interconnect {
    /// A single shared snoopy bus: every miss broadcasts; requests
    /// serialize on bus occupancy.
    #[default]
    SnoopyBus,
    /// A banked directory at the L2: misses consult the line's home bank
    /// (point-to-point hops, no global broadcast), and only per-bank
    /// occupancy serializes. Scales with core count.
    Directory {
        /// Number of independent directory banks (power of two).
        banks: usize,
        /// Latency of one network hop in cycles.
        hop_latency: u64,
    },
}

/// A deliberately planted protocol defect, used to validate the correctness
/// tooling against a known-bad protocol: `hmtx-model` must find a
/// counterexample when one is enabled. Always `None` in shipping
/// configurations; only tests and the `--seed-bug` flags of `hmtx-model`
/// and `hmtx-explore` ever set it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeedBug {
    /// §4.3 speculative-read migration leaves a live replica of the version
    /// in the supplier's cache instead of demoting it to `S-S`, so two
    /// caches answer for the same `(modVID, highVID)` range.
    StaleMigrationReplica,
}

impl SeedBug {
    /// Stable CLI/corpus name of this defect.
    pub fn name(self) -> &'static str {
        match self {
            SeedBug::StaleMigrationReplica => "stale-migration-replica",
        }
    }

    /// Parses a CLI/corpus name produced by [`SeedBug::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "stale-migration-replica" => Some(SeedBug::StaleMigrationReplica),
            _ => None,
        }
    }
}

/// Configuration of the HMTX protocol extensions themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HmtxConfig {
    /// Number of bits per cache-line VID field (`m` in §4.5; the paper uses 6).
    pub vid_bits: u32,
    /// Whether speculative load acknowledgments (§5.1) are enabled.
    /// Disabling them is ablation B: wrong-path loads then mark lines and
    /// cause false misspeculation.
    pub sla_enabled: bool,
    /// Whether commits are processed lazily (§5.3). The eager mode walks the
    /// whole cache at each commit and charges cycles per line scanned
    /// (ablation A baseline, modeling Vachharajani's scheme).
    pub lazy_commit: bool,
    /// Last-level-cache victim selection policy (§5.4).
    pub victim_policy: VictimPolicy,
    /// Bus cost in cycles of a commit/abort/VID-reset broadcast.
    pub commit_broadcast_latency: u64,
    /// Per-line cycle cost charged when the eager commit mode walks a cache.
    pub eager_commit_per_line_cost: u64,
    /// Cycle cost of sending one SLA to the cache system.
    pub sla_latency: u64,
    /// Cycle cost of a VID reset broadcast (pipeline refill after the stall).
    pub vid_reset_latency: u64,
    /// Deliberately planted protocol defect (correctness-tool validation
    /// only; see [`SeedBug`]). `None` in every real configuration.
    pub seed_bug: Option<SeedBug>,
}

impl HmtxConfig {
    /// The paper's configuration: 6-bit VIDs, SLAs on, lazy commit,
    /// overflow-aware victim selection.
    pub fn paper_default() -> Self {
        HmtxConfig {
            vid_bits: 6,
            sla_enabled: true,
            lazy_commit: true,
            victim_policy: VictimPolicy::PreferSafeOverflow,
            commit_broadcast_latency: 8,
            eager_commit_per_line_cost: 1,
            sla_latency: 2,
            vid_reset_latency: 64,
            seed_bug: None,
        }
    }

    /// Highest usable VID before a reset is required.
    pub fn max_vid(&self) -> crate::Vid {
        crate::Vid::max_for_bits(self.vid_bits)
    }
}

impl Default for HmtxConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Configuration of the SMTX software baseline's cost model.
///
/// SMTX (Raman et al.) ships read/write log entries through software queues
/// to a commit process running on a dedicated core. Each logged access costs
/// instructions on the worker (to append the record) and on the commit
/// process (to validate it against committed state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmtxConfig {
    /// Worker-side instructions to append one log record to a software queue.
    pub log_append_instrs: u64,
    /// Commit-process instructions to validate one read record.
    pub validate_read_instrs: u64,
    /// Commit-process instructions to apply one write record.
    pub apply_write_instrs: u64,
    /// Worker-side instructions to forward one uncommitted value to the next
    /// pipeline stage.
    pub forward_instrs: u64,
    /// Software queue chunk size in records (amortizes queue synchronization).
    pub queue_chunk: u64,
    /// Instructions per queue chunk synchronization (flush/poll).
    pub queue_sync_instrs: u64,
    /// Fixed software transaction-management instructions per iteration per
    /// process (version bookkeeping, TX begin/end, commit-process
    /// coordination).
    pub tx_mgmt_instrs: u64,
}

impl SmtxConfig {
    /// Cost model calibrated so that expert-minimized R/W sets give modest
    /// speedups and maximal sets give slowdowns on 4 cores (Figures 2 and 8).
    pub fn paper_default() -> Self {
        SmtxConfig {
            log_append_instrs: 6,
            validate_read_instrs: 10,
            apply_write_instrs: 8,
            forward_instrs: 8,
            queue_chunk: 32,
            queue_sync_instrs: 40,
            tx_mgmt_instrs: 90,
        }
    }
}

impl Default for SmtxConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Deterministic fault-injection configuration (chaos testing).
///
/// When attached to a [`MachineConfig`], the memory system, the machine, and
/// the runtime consult a seeded fault plan at well-defined points and inject
/// the paper's adversarial events on purpose: spurious conflict
/// misspeculations, forced VID overflow/reset pressure, cache capacity
/// squeezes, wrong-path load storms, and delayed queue operations. Every
/// decision is a pure function of `(seed, site, per-site counter)`, so a
/// given `(config, seed)` pair replays the exact same fault schedule on
/// every run and host.
///
/// # Examples
///
/// ```
/// use hmtx_types::{FaultConfig, MachineConfig};
/// let mut cfg = MachineConfig::test_default();
/// cfg.faults = Some(FaultConfig::chaos(42, 300));
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed of the deterministic fault plan.
    pub seed: u64,
    /// Probability, in parts per million, that an eligible injection point
    /// fires (applied independently per site).
    pub rate_ppm: u32,
    /// Inject spurious conflict misspeculations on speculative accesses.
    pub spurious_conflicts: bool,
    /// Force extra wrong-path load storms on retired branches (§5.1 stress).
    pub wrong_path_storms: bool,
    /// Add random extra latency to hardware queue operations.
    pub queue_delays: bool,
    /// Shrink the usable VID space so §4.6 overflow/reset traffic is forced.
    pub vid_squeeze: bool,
    /// Halve L1 ways/capacity so §5.4 overflow traffic is forced.
    pub cache_squeeze: bool,
    /// Run [`check_invariants`](../hmtx_core/struct.MemorySystem.html) after
    /// every injected fault and every recovery (slow; chaos tests only).
    pub check_invariants: bool,
}

impl FaultConfig {
    /// Everything enabled: the configuration the chaos suite runs.
    pub fn chaos(seed: u64, rate_ppm: u32) -> Self {
        FaultConfig {
            seed,
            rate_ppm,
            spurious_conflicts: true,
            wrong_path_storms: true,
            queue_delays: true,
            vid_squeeze: true,
            cache_squeeze: true,
            check_invariants: true,
        }
    }
}

/// Configuration of the hybrid-TM (`hytm`) execution mode.
///
/// HyTM bounds the HMTX fast path — per-transaction read/write-set line
/// caps on top of the architectural `vid_bits` limit — and demotes a
/// transaction that trips a bound (or storms with aborts) to an SMTX-style
/// instrumented software slow path. The bounds model a hardware TM whose
/// speculative tracking structures are smaller than the cache hierarchy,
/// the setting where Alistarh et al. show a software fallback is mandatory
/// for progress.
///
/// `enabled == false` (the default) makes every field inert, so existing
/// HMTX configurations and their cycle counts are untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HytmConfig {
    /// Master switch. When `false`, the memory system never checks the
    /// set bounds and the runtime never demotes.
    pub enabled: bool,
    /// Maximum distinct cache lines a transaction may speculatively read
    /// before the access answers with `SpecOverflow` (`0` = unbounded).
    pub max_read_lines: u32,
    /// Maximum distinct cache lines a transaction may speculatively write
    /// before the access answers with `SpecOverflow` (`0` = unbounded).
    pub max_write_lines: u32,
    /// Demote a transaction to the software slow path after this many
    /// consecutive aborts at the same transaction (the `K` of the demotion
    /// ladder). Capacity and VID-exhaustion aborts demote immediately.
    pub demote_after_aborts: u64,
    /// Base of the seeded exponential backoff charged (in stall cycles)
    /// before re-dispatching after a conflict abort.
    pub backoff_base_cycles: u64,
    /// Cap on one backoff stall (the exponential is clamped here).
    pub backoff_cap_cycles: u64,
    /// Seed of the deterministic backoff jitter stream.
    pub backoff_seed: u64,
    /// After this many consecutive demotions across *different*
    /// transactions, the storm breaker serializes a whole group on the
    /// slow path instead of demoting one transaction at a time.
    pub storm_threshold: u64,
    /// Number of consecutive transactions the storm breaker serializes on
    /// the slow path in one slab.
    pub storm_group: u64,
    /// VID-exhaustion watchdog: number of VID-space spin iterations the
    /// begin guard tolerates before aborting with the exhaustion sentinel
    /// (`0` disables the watchdog and the guard spins forever, the plain
    /// HMTX behaviour).
    pub watchdog_spins: u64,
}

impl HytmConfig {
    /// HyTM disabled: plain HMTX behaviour, all bounds inert.
    pub fn disabled() -> Self {
        HytmConfig {
            enabled: false,
            max_read_lines: 0,
            max_write_lines: 0,
            demote_after_aborts: 4,
            backoff_base_cycles: 64,
            backoff_cap_cycles: 4096,
            backoff_seed: 0x4859_544D_5F42_4F46, // "HYTM_BOF"
            storm_threshold: 4,
            storm_group: 8,
            watchdog_spins: 10_000,
        }
    }

    /// The bounded fast path the `hytm` paradigm runs: finite read/write
    /// sets sized well above the common case but small enough that capacity
    /// squeezes and pathological workloads trip them.
    pub fn paper_default() -> Self {
        HytmConfig {
            enabled: true,
            max_read_lines: 64,
            max_write_lines: 32,
            ..Self::disabled()
        }
    }

    /// Validates the knobs that interact (§11 of DESIGN.md).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if enabled with a zero demotion threshold,
    /// a zero storm group, or a backoff cap below the base.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.enabled {
            return Ok(());
        }
        if self.demote_after_aborts == 0 {
            return Err(ConfigError::new("hytm demote_after_aborts must be nonzero"));
        }
        if self.storm_threshold == 0 || self.storm_group == 0 {
            return Err(ConfigError::new(
                "hytm storm threshold and group must be nonzero",
            ));
        }
        if self.backoff_cap_cycles < self.backoff_base_cycles {
            return Err(ConfigError::new("hytm backoff cap must be >= backoff base"));
        }
        Ok(())
    }
}

impl Default for HytmConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Full machine configuration (Table 2 plus simulator knobs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of cores (Table 2 evaluates 4).
    pub num_cores: usize,
    /// Per-core L1 data cache.
    pub l1: CacheConfig,
    /// Shared L2 (last-level) cache.
    pub l2: CacheConfig,
    /// Main-memory access latency in cycles (Table 2: 200).
    pub mem_latency: u64,
    /// Bus occupancy per transaction in cycles (serializes coherent requests
    /// on the snoopy bus, or per directory bank).
    pub bus_occupancy: u64,
    /// Coherence request routing (snoopy bus or banked directory, §8).
    pub interconnect: Interconnect,
    /// When `true`, speculative lines evicted past the LLC spill into a
    /// memory-side overflow table instead of aborting (the paper's §8
    /// "unlimited read and write sets" extension). Overflow-table hits pay
    /// full memory latency plus a lookup penalty.
    pub unbounded_sets: bool,
    /// Branch misprediction penalty in cycles (pipeline flush/refill).
    pub mispredict_penalty: u64,
    /// Maximum wrong-path instructions interpreted after a misprediction
    /// (models the OoO window issuing squashed loads, §5.1).
    pub wrong_path_depth: usize,
    /// Capacity of each hardware produce/consume queue in entries.
    pub queue_capacity: usize,
    /// Latency in cycles for a produced value to become consumable.
    pub queue_latency: u64,
    /// Maximum in-flight (begun but uncommitted) transactions the runtime
    /// allows. Bounds how many live versions of a hot line (e.g. the DSWP
    /// `producedNode` slot) can pile up in one cache set; must fit within
    /// the combined associativity of the hierarchy or transactions overflow
    /// the caches and abort (§5.4).
    pub pipeline_window: u64,
    /// Timer interrupt period in cycles per core; `0` disables interrupts.
    pub interrupt_period: u64,
    /// Instructions executed by the non-speculative OS interrupt handler.
    pub interrupt_handler_instrs: u64,
    /// HMTX protocol extension configuration.
    pub hmtx: HmtxConfig,
    /// SMTX baseline cost model.
    pub smtx: SmtxConfig,
    /// Hybrid-TM fast-path bounds and fallback policy (inert unless
    /// `hytm.enabled`; see [`HytmConfig`]).
    pub hytm: HytmConfig,
    /// Deterministic fault injection (`None` = no faults, the default).
    pub faults: Option<FaultConfig>,
    /// Safety valve: a run that recovers this many times without completing
    /// is reported as [`SimError::Livelock`](crate::SimError).
    pub max_recoveries: u64,
    /// Recovery-ladder rung 1 budget: how many times the runtime re-dispatches
    /// the paradigm in parallel from the same stuck transaction before
    /// serializing it (rung 2) and, if that also misspeculates, falling back
    /// to fully non-speculative sequential execution (rung 3).
    pub recovery_parallel_retries: u64,
}

impl MachineConfig {
    /// Table 2's configuration: 4 cores, 64 KB L1, 32 MB shared L2,
    /// 200-cycle memory, 6-bit VIDs.
    pub fn paper_default() -> Self {
        MachineConfig {
            num_cores: 4,
            l1: CacheConfig::paper_l1(),
            l2: CacheConfig::paper_l2(),
            mem_latency: 200,
            bus_occupancy: 4,
            interconnect: Interconnect::SnoopyBus,
            unbounded_sets: false,
            mispredict_penalty: 14,
            wrong_path_depth: 12,
            queue_capacity: 64,
            queue_latency: 30,
            pipeline_window: 16,
            interrupt_period: 0,
            interrupt_handler_instrs: 200,
            hmtx: HmtxConfig::paper_default(),
            smtx: SmtxConfig::paper_default(),
            hytm: HytmConfig::disabled(),
            faults: None,
            max_recoveries: 1_000,
            recovery_parallel_retries: 1,
        }
    }

    /// A scaled-down configuration for fast unit/integration tests:
    /// smaller caches, same protocol behaviour.
    pub fn test_default() -> Self {
        let mut cfg = Self::paper_default();
        cfg.l1 = CacheConfig {
            size_bytes: 8 * 1024,
            ways: 4,
            latency: 2,
        };
        cfg.l2 = CacheConfig {
            size_bytes: 256 * 1024,
            ways: 8,
            latency: 40,
        };
        // 4 + 8 ways must hold every live version of a hot line.
        cfg.pipeline_window = 8;
        cfg
    }

    /// Validates the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any cache geometry is invalid, the core
    /// count is zero or above [`MAX_CORES`], or the VID width is out of the
    /// supported 2..=12 range.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_cores == 0 {
            return Err(ConfigError::new("machine must have at least one core"));
        }
        if self.num_cores > MAX_CORES {
            return Err(ConfigError::new(format!(
                "machine supports at most {MAX_CORES} cores"
            )));
        }
        self.l1.validate()?;
        self.l2.validate()?;
        if !(2..=12).contains(&self.hmtx.vid_bits) {
            return Err(ConfigError::new("vid_bits must be in 2..=12"));
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::new("queue capacity must be nonzero"));
        }
        if self.max_recoveries == 0 {
            return Err(ConfigError::new("max_recoveries must be nonzero"));
        }
        if let Some(f) = &self.faults {
            if f.rate_ppm > 1_000_000 {
                return Err(ConfigError::new("fault rate_ppm must be <= 1,000,000"));
            }
        }
        self.hytm.validate()?;
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l1_geometry() {
        let l1 = CacheConfig::paper_l1();
        assert_eq!(l1.num_sets(), 128);
        assert_eq!(l1.num_lines(), 1024);
        l1.validate().unwrap();
    }

    #[test]
    fn paper_l2_geometry() {
        let l2 = CacheConfig::paper_l2();
        assert_eq!(l2.num_sets(), 16 * 1024);
        assert_eq!(l2.num_lines(), 512 * 1024);
        l2.validate().unwrap();
    }

    #[test]
    fn invalid_geometries_rejected() {
        let bad = CacheConfig {
            size_bytes: 100,
            ways: 3,
            latency: 1,
        };
        assert!(bad.validate().is_err());
        let zero = CacheConfig {
            size_bytes: 0,
            ways: 0,
            latency: 1,
        };
        assert!(zero.validate().is_err());
        // 3 sets: not a power of two.
        let non_pow2 = CacheConfig {
            size_bytes: 3 * 64 * 2,
            ways: 2,
            latency: 1,
        };
        assert!(non_pow2.validate().is_err());
    }

    #[test]
    fn paper_machine_validates() {
        MachineConfig::paper_default().validate().unwrap();
        MachineConfig::test_default().validate().unwrap();
    }

    #[test]
    fn vid_bits_bounds_enforced() {
        let mut cfg = MachineConfig::test_default();
        cfg.hmtx.vid_bits = 1;
        assert!(cfg.validate().is_err());
        cfg.hmtx.vid_bits = 13;
        assert!(cfg.validate().is_err());
        cfg.hmtx.vid_bits = 6;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn core_count_must_fit_the_packed_schedule_key() {
        let mut cfg = MachineConfig::test_default();
        cfg.num_cores = MAX_CORES;
        cfg.validate().unwrap();
        cfg.num_cores = MAX_CORES + 1;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("at most 65536 cores"), "{err}");
        // The largest core index and the ceiling clock pack into one u64
        // key without overlapping.
        let top = (CYCLE_CEILING << CORE_KEY_BITS) | (MAX_CORES as u64 - 1);
        assert_eq!(top, u64::MAX);
        assert_eq!(top >> CORE_KEY_BITS, CYCLE_CEILING);
    }

    #[test]
    fn max_vid_tracks_width() {
        let mut h = HmtxConfig::paper_default();
        assert_eq!(h.max_vid().0, 63);
        h.vid_bits = 4;
        assert_eq!(h.max_vid().0, 15);
    }

    #[test]
    fn fault_rate_bounds_enforced() {
        let mut cfg = MachineConfig::test_default();
        cfg.faults = Some(FaultConfig::chaos(1, 1_000_001));
        assert!(cfg.validate().is_err());
        cfg.faults = Some(FaultConfig::chaos(1, 1_000_000));
        assert!(cfg.validate().is_ok());
        cfg.max_recoveries = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn chaos_config_enables_every_fault_class() {
        let f = FaultConfig::chaos(7, 250);
        assert_eq!((f.seed, f.rate_ppm), (7, 250));
        assert!(
            f.spurious_conflicts
                && f.wrong_path_storms
                && f.queue_delays
                && f.vid_squeeze
                && f.cache_squeeze
                && f.check_invariants
        );
    }

    #[test]
    fn hytm_disabled_is_inert_and_default() {
        let cfg = MachineConfig::paper_default();
        assert!(!cfg.hytm.enabled);
        assert_eq!(cfg.hytm, HytmConfig::default());
        // Nonsense knobs are fine while disabled.
        let mut h = HytmConfig::disabled();
        h.demote_after_aborts = 0;
        h.storm_group = 0;
        h.backoff_cap_cycles = 0;
        h.validate().unwrap();
    }

    #[test]
    fn hytm_enabled_knobs_validated() {
        let mut cfg = MachineConfig::test_default();
        cfg.hytm = HytmConfig::paper_default();
        cfg.validate().unwrap();
        cfg.hytm.demote_after_aborts = 0;
        assert!(cfg.validate().is_err());
        cfg.hytm.demote_after_aborts = 4;
        cfg.hytm.storm_group = 0;
        assert!(cfg.validate().is_err());
        cfg.hytm.storm_group = 8;
        cfg.hytm.backoff_cap_cycles = cfg.hytm.backoff_base_cycles - 1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn hytm_paper_default_bounds_finite() {
        let h = HytmConfig::paper_default();
        assert!(h.enabled);
        assert!(h.max_read_lines > 0 && h.max_write_lines > 0);
        assert!(h.watchdog_spins > 0);
        h.validate().unwrap();
    }

    #[test]
    fn zero_cores_rejected() {
        let mut cfg = MachineConfig::test_default();
        cfg.num_cores = 0;
        assert!(cfg.validate().is_err());
    }
}
