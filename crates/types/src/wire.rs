//! Wire-level job and response types for the `hmtx-serve` protocol.
//!
//! A [`JobSpec`] names one simulation — benchmark, execution paradigm,
//! machine configuration (base + variant), fault plan, and workload scale —
//! as plain data, independent of the crates that know how to run it. Specs
//! serialize to JSON in one **canonical** form ([`JobSpec::canonical`]):
//! fixed key order, defaults materialized, integers exact. The canonical
//! bytes are what the content-addressed job key ([`JobSpec::key`]) hashes,
//! so two requests describing the same simulation — whatever key order or
//! whitespace the client used — always land on the same cache entry.
//!
//! A variant also knows the configuration it runs
//! ([`WireVariant::apply`]); the mapping from a spec to an executable
//! simulation lives in `hmtx-bench` (`jobspec` module), so clients do not
//! need to link the simulator.

use std::fmt;

use crate::json::Json;
use crate::{CacheConfig, Diagnostic, Interconnect, MachineConfig, Severity, VictimPolicy};

/// What simulates: one of the 8 paper workload analogues by suite index, or
/// a synthetic loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchRef {
    /// `suite(scale)[index]`.
    Suite(u32),
    /// The §5.1 wrong-path hazard loop.
    SlaStress,
    /// The §8 core-count scaling loop.
    ScalingLoop,
    /// The instrumented pipeline loop behind Figure 1.
    Fig1Loop,
}

impl BenchRef {
    fn to_wire(self) -> String {
        match self {
            BenchRef::Suite(i) => format!("suite:{i}"),
            BenchRef::SlaStress => "sla-stress".into(),
            BenchRef::ScalingLoop => "scaling-loop".into(),
            BenchRef::Fig1Loop => "fig1-loop".into(),
        }
    }

    fn from_wire(s: &str) -> Result<Self, WireError> {
        if let Some(i) = s.strip_prefix("suite:") {
            let i: u32 = i
                .parse()
                .map_err(|_| WireError::new(format!("bad suite index `{i}`")))?;
            return Ok(BenchRef::Suite(i));
        }
        match s {
            "sla-stress" => Ok(BenchRef::SlaStress),
            "scaling-loop" => Ok(BenchRef::ScalingLoop),
            "fig1-loop" => Ok(BenchRef::Fig1Loop),
            _ => Err(WireError::new(format!("unknown benchmark `{s}`"))),
        }
    }
}

/// Which execution model runs the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireParadigm {
    /// Single-core sequential baseline.
    Sequential,
    /// The workload's paper paradigm on HMTX.
    Paper,
    /// Software-MTX, expert-minimized read/write sets.
    SmtxMin,
    /// Software-MTX, validation on shared accesses.
    SmtxSub,
    /// Software-MTX, every load and store validated.
    SmtxMax,
    /// Explicit DOALL.
    Doall,
    /// Explicit DOACROSS.
    Doacross,
    /// Explicit two-stage DSWP.
    Dswp,
    /// Explicit parallel-stage DSWP.
    PsDswp,
    /// Hybrid TM: bounded HMTX fast path with an SMTX software slow path.
    Hytm,
}

impl WireParadigm {
    /// The wire name (also used by CLI flags).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WireParadigm::Sequential => "seq",
            WireParadigm::Paper => "paper",
            WireParadigm::SmtxMin => "smtx-min",
            WireParadigm::SmtxSub => "smtx-sub",
            WireParadigm::SmtxMax => "smtx-max",
            WireParadigm::Doall => "doall",
            WireParadigm::Doacross => "doacross",
            WireParadigm::Dswp => "dswp",
            WireParadigm::PsDswp => "ps-dswp",
            WireParadigm::Hytm => "hytm",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on an unknown name.
    pub fn from_name(s: &str) -> Result<Self, WireError> {
        use WireParadigm::*;
        for p in [
            Sequential, Paper, SmtxMin, SmtxSub, SmtxMax, Doall, Doacross, Dswp, PsDswp, Hytm,
        ] {
            if p.name() == s {
                return Ok(p);
            }
        }
        Err(WireError::new(format!("unknown paradigm `{s}`")))
    }
}

/// Workload scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WireScale {
    /// Small test instances (seconds); the command-line default.
    #[default]
    Quick,
    /// The paper-figure instances.
    Standard,
    /// Long-transaction stress instances.
    Stress,
}

impl WireScale {
    /// The wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WireScale::Quick => "quick",
            WireScale::Standard => "standard",
            WireScale::Stress => "stress",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on an unknown name.
    pub fn from_name(s: &str) -> Result<Self, WireError> {
        match s {
            "quick" => Ok(WireScale::Quick),
            "standard" => Ok(WireScale::Standard),
            "stress" => Ok(WireScale::Stress),
            _ => Err(WireError::new(format!("unknown scale `{s}`"))),
        }
    }
}

/// Which base machine configuration the variant applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireBase {
    /// Table 2 exactly (`MachineConfig::paper_default`).
    Paper,
    /// The small test configuration (`MachineConfig::test_default`).
    Test,
}

impl WireBase {
    /// The wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WireBase::Paper => "paper",
            WireBase::Test => "test",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on an unknown name.
    pub fn from_name(s: &str) -> Result<Self, WireError> {
        match s {
            "paper" => Ok(WireBase::Paper),
            "test" => Ok(WireBase::Test),
            _ => Err(WireError::new(format!("unknown base config `{s}`"))),
        }
    }
}

/// A named configuration variant: one ablation knob, applied to the base
/// machine configuration by [`WireVariant::apply`]. A job stays a small
/// pure value instead of embedding a whole `MachineConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireVariant {
    /// The base configuration unchanged.
    Base,
    /// Ablation A: lazy vs eager commit processing (§5.3).
    Commit {
        /// Lazy commit processing when true.
        lazy: bool,
    },
    /// Ablation B: speculative load acknowledgments on/off (§5.1).
    Sla {
        /// SLAs enabled when true.
        enabled: bool,
    },
    /// Ablation C: VID field width in bits (§4.6).
    VidBits(u32),
    /// Ablation D: LLC victim policy under constrained caches (§5.4).
    Victim(VictimPolicy),
    /// §8 extension: bounded vs unbounded speculative sets.
    Bounded {
        /// Memory-side overflow table enabled when true.
        unbounded: bool,
    },
    /// §8 scaling study: the constrained fabric without core-count changes
    /// (the sequential baseline of the sweep).
    ScalingBase,
    /// §8 scaling study: the constrained fabric at a core count, snoopy bus
    /// or banked directory.
    ScalingFabric {
        /// Number of cores.
        cores: u32,
        /// Banked directory when true, snoopy bus when false.
        directory: bool,
    },
    /// §2.1 latency sensitivity: hardware queue / cross-core latency.
    QueueLatency(u64),
}

impl WireVariant {
    /// The configuration this variant runs: `base` with the variant's knob
    /// applied.
    #[must_use]
    pub fn apply(&self, base: &MachineConfig) -> MachineConfig {
        let mut c = base.clone();
        match *self {
            WireVariant::Base => {}
            WireVariant::Commit { lazy } => c.hmtx.lazy_commit = lazy,
            WireVariant::Sla { enabled } => c.hmtx.sla_enabled = enabled,
            WireVariant::VidBits(bits) => {
                c.hmtx.vid_bits = bits;
                c.pipeline_window = c.pipeline_window.min((1 << bits) - 1);
            }
            WireVariant::Victim(policy) => {
                // Constrain the hierarchy so overflow decisions matter.
                c.l1 = cache(8, 4, 2);
                c.l2 = cache(64, 8, 40);
                c.pipeline_window = 4;
                c.hmtx.victim_policy = policy;
            }
            WireVariant::Bounded { unbounded } => {
                c.l1 = cache(8, 4, 2);
                c.l2 = cache(32, 8, 40);
                c.pipeline_window = 6;
                c.unbounded_sets = unbounded;
            }
            WireVariant::ScalingBase => scaling_stress(&mut c),
            WireVariant::ScalingFabric { cores, directory } => {
                scaling_stress(&mut c);
                c.num_cores = cores as usize;
                c.interconnect = if directory {
                    Interconnect::Directory {
                        banks: 8,
                        hop_latency: 6,
                    }
                } else {
                    Interconnect::SnoopyBus
                };
            }
            WireVariant::QueueLatency(latency) => c.queue_latency = latency,
        }
        c
    }

    /// The variant's part of a job label (`vid4`, `sla-off`, `16xbus`, …).
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            WireVariant::Base => "base".into(),
            WireVariant::Commit { lazy } => {
                format!("{}-commit", if lazy { "lazy" } else { "eager" })
            }
            WireVariant::Sla { enabled } => {
                format!("sla-{}", if enabled { "on" } else { "off" })
            }
            WireVariant::VidBits(bits) => format!("vid{bits}"),
            WireVariant::Victim(VictimPolicy::PreferSafeOverflow) => "victim-safe".into(),
            WireVariant::Victim(VictimPolicy::PlainLru) => "victim-lru".into(),
            WireVariant::Bounded { unbounded } => {
                format!("{}bounded", if unbounded { "un" } else { "" })
            }
            WireVariant::ScalingBase => "scaling-base".into(),
            WireVariant::ScalingFabric { cores, directory } => {
                format!("{}x{}", cores, if directory { "directory" } else { "bus" })
            }
            WireVariant::QueueLatency(latency) => format!("qlat{latency}"),
        }
    }

    fn to_json(self) -> Json {
        let kind = |k: &str| ("kind".to_string(), Json::Str(k.into()));
        Json::Obj(match self {
            WireVariant::Base => vec![kind("base")],
            WireVariant::Commit { lazy } => {
                vec![kind("commit"), ("lazy".into(), Json::Bool(lazy))]
            }
            WireVariant::Sla { enabled } => {
                vec![kind("sla"), ("enabled".into(), Json::Bool(enabled))]
            }
            WireVariant::VidBits(bits) => {
                vec![kind("vid-bits"), ("bits".into(), Json::Uint(bits.into()))]
            }
            WireVariant::Victim(VictimPolicy::PreferSafeOverflow) => vec![kind("victim-safe")],
            WireVariant::Victim(VictimPolicy::PlainLru) => vec![kind("victim-lru")],
            WireVariant::Bounded { unbounded } => {
                vec![kind("bounded"), ("unbounded".into(), Json::Bool(unbounded))]
            }
            WireVariant::ScalingBase => vec![kind("scaling-base")],
            WireVariant::ScalingFabric { cores, directory } => vec![
                kind("scaling-fabric"),
                ("cores".into(), Json::Uint(cores.into())),
                ("directory".into(), Json::Bool(directory)),
            ],
            WireVariant::QueueLatency(latency) => vec![
                kind("queue-latency"),
                ("latency".into(), Json::Uint(latency)),
            ],
        })
    }

    fn from_json(v: &Json) -> Result<Self, WireError> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| WireError::new("variant needs a string `kind`"))?;
        let flag = |name: &str| {
            v.get(name)
                .and_then(Json::as_bool)
                .ok_or_else(|| WireError::new(format!("variant `{kind}` needs bool `{name}`")))
        };
        let uint = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| WireError::new(format!("variant `{kind}` needs uint `{name}`")))
        };
        let variant = match kind {
            "base" => WireVariant::Base,
            "commit" => WireVariant::Commit {
                lazy: flag("lazy")?,
            },
            "sla" => WireVariant::Sla {
                enabled: flag("enabled")?,
            },
            "vid-bits" => {
                let bits = uint("bits")?;
                if !(2..=16).contains(&bits) {
                    return Err(WireError::new(format!(
                        "vid bits {bits} out of range 2..=16"
                    )));
                }
                WireVariant::VidBits(bits as u32)
            }
            "victim-safe" => WireVariant::Victim(VictimPolicy::PreferSafeOverflow),
            "victim-lru" => WireVariant::Victim(VictimPolicy::PlainLru),
            "bounded" => WireVariant::Bounded {
                unbounded: flag("unbounded")?,
            },
            "scaling-base" => WireVariant::ScalingBase,
            "scaling-fabric" => {
                let cores = uint("cores")?;
                if !(1..=64).contains(&cores) {
                    return Err(WireError::new(format!("cores {cores} out of range 1..=64")));
                }
                WireVariant::ScalingFabric {
                    cores: cores as u32,
                    directory: flag("directory")?,
                }
            }
            "queue-latency" => {
                let latency = uint("latency")?;
                if latency > 1_000_000 {
                    return Err(WireError::new("queue latency over 1M cycles"));
                }
                WireVariant::QueueLatency(latency)
            }
            _ => return Err(WireError::new(format!("unknown variant kind `{kind}`"))),
        };
        // Reject stray fields so two spellings cannot alias distinct keys.
        let known: &[&str] = match kind {
            "commit" => &["kind", "lazy"],
            "sla" => &["kind", "enabled"],
            "vid-bits" => &["kind", "bits"],
            "bounded" => &["kind", "unbounded"],
            "scaling-fabric" => &["kind", "cores", "directory"],
            "queue-latency" => &["kind", "latency"],
            _ => &["kind"],
        };
        reject_unknown(v, known)?;
        Ok(variant)
    }
}

/// An ablation's cache geometry: `kb` KB, `ways`-way, `latency` cycles.
fn cache(kb: usize, ways: usize, latency: u64) -> CacheConfig {
    CacheConfig {
        size_bytes: kb * 1024,
        ways,
        latency,
    }
}

/// The §8 scaling study's stressed fabric: line-transfer-granularity bus
/// occupancy and small per-core L1s, so miss traffic grows with core count.
fn scaling_stress(c: &mut MachineConfig) {
    c.bus_occupancy = 16;
    c.l1 = cache(8, 4, 2);
    c.l2 = cache(1024, 32, 40);
    c.pipeline_window = 32;
}

/// A deterministic fault plan: the chaos configuration's seed and rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// Seed of the deterministic fault plan.
    pub seed: u64,
    /// Injection probability in parts per million.
    pub rate_ppm: u32,
}

impl FaultSpec {
    /// The highest injection rate: every decision point faults.
    pub const MAX_RATE_PPM: u32 = 1_000_000;

    /// Parses a rate in parts per million (a `--fault-rate` value): `None`
    /// unless it is an integer no higher than [`FaultSpec::MAX_RATE_PPM`].
    #[must_use]
    pub fn parse_rate(s: &str) -> Option<u32> {
        s.parse().ok().filter(|&r| r <= Self::MAX_RATE_PPM)
    }
}

/// One simulation job, as named on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobSpec {
    /// What simulates.
    pub benchmark: BenchRef,
    /// Under which execution model.
    pub paradigm: WireParadigm,
    /// At which workload scale.
    pub scale: WireScale,
    /// Which base machine configuration.
    pub base: WireBase,
    /// Which configuration variant applies to the base.
    pub variant: WireVariant,
    /// Optional deterministic fault plan.
    pub fault: Option<FaultSpec>,
}

impl JobSpec {
    /// A base-configuration spec with no variant and no faults.
    #[must_use]
    pub fn new(
        benchmark: BenchRef,
        paradigm: WireParadigm,
        scale: WireScale,
        base: WireBase,
    ) -> Self {
        JobSpec {
            benchmark,
            paradigm,
            scale,
            base,
            variant: WireVariant::Base,
            fault: None,
        }
    }

    /// The spec as canonical JSON: fixed key order, defaults materialized.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("benchmark".to_string(), Json::Str(self.benchmark.to_wire())),
            (
                "paradigm".to_string(),
                Json::Str(self.paradigm.name().into()),
            ),
            ("scale".to_string(), Json::Str(self.scale.name().into())),
            ("base".to_string(), Json::Str(self.base.name().into())),
            ("variant".to_string(), self.variant.to_json()),
        ];
        match self.fault {
            None => fields.push(("fault".into(), Json::Null)),
            Some(f) => fields.push((
                "fault".into(),
                Json::obj(vec![
                    ("seed", Json::Uint(f.seed)),
                    ("rate_ppm", Json::Uint(f.rate_ppm.into())),
                ]),
            )),
        }
        Json::Obj(fields)
    }

    /// Parses a spec from JSON. Missing `variant`/`fault` default to
    /// [`WireVariant::Base`] / no faults; unknown fields are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on missing/malformed fields.
    pub fn from_json(v: &Json) -> Result<Self, WireError> {
        reject_unknown(
            v,
            &["benchmark", "paradigm", "scale", "base", "variant", "fault"],
        )?;
        let field = |name: &str| {
            v.get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| WireError::new(format!("spec needs a string `{name}`")))
        };
        let benchmark = BenchRef::from_wire(field("benchmark")?)?;
        let paradigm = WireParadigm::from_name(field("paradigm")?)?;
        let scale = WireScale::from_name(field("scale")?)?;
        let base = WireBase::from_name(field("base")?)?;
        let variant = match v.get("variant") {
            None | Some(Json::Null) => WireVariant::Base,
            Some(var) => WireVariant::from_json(var)?,
        };
        let fault = match v.get("fault") {
            None | Some(Json::Null) => None,
            Some(f) => {
                reject_unknown(f, &["seed", "rate_ppm"])?;
                let seed = f
                    .get("seed")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| WireError::new("fault needs uint `seed`"))?;
                let rate = f
                    .get("rate_ppm")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| WireError::new("fault needs uint `rate_ppm`"))?;
                if rate > u64::from(FaultSpec::MAX_RATE_PPM) {
                    return Err(WireError::new("fault rate_ppm over 1000000"));
                }
                Some(FaultSpec {
                    seed,
                    rate_ppm: rate as u32,
                })
            }
        };
        Ok(JobSpec {
            benchmark,
            paradigm,
            scale,
            base,
            variant,
            fault,
        })
    }

    /// The canonical request bytes: compact JSON in fixed key order. Two
    /// specs are the same job if and only if their canonical bytes match.
    #[must_use]
    pub fn canonical(&self) -> String {
        self.to_json().compact()
    }

    /// The content-addressed job key: FNV-1a-128 of the canonical bytes,
    /// hex-encoded (32 characters).
    #[must_use]
    pub fn key(&self) -> String {
        content_key(self.canonical().as_bytes())
    }
}

/// FNV-1a-128 of `bytes`, hex-encoded. Used for content-addressed cache
/// keys: deterministic, dependency-free, and wide enough that accidental
/// collisions over a cache of simulation reports are not a concern
/// (the keys are not a security boundary — a client who can forge requests
/// can already request anything).
#[must_use]
pub fn content_key(bytes: &[u8]) -> String {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(PRIME);
    }
    format!("{h:032x}")
}

/// A malformed wire value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    message: String,
}

impl WireError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        WireError {
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad wire value: {}", self.message)
    }
}

impl std::error::Error for WireError {}

fn reject_unknown(v: &Json, known: &[&str]) -> Result<(), WireError> {
    if let Json::Obj(fields) = v {
        for (k, _) in fields {
            if !known.contains(&k.as_str()) {
                return Err(WireError::new(format!("unknown field `{k}`")));
            }
        }
        Ok(())
    } else {
        Err(WireError::new("expected an object"))
    }
}

// ----------------------------------------------------------- server stats

/// A snapshot of the serving counters, as exposed by the `stats` endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests received (all types).
    pub requests: u64,
    /// Job requests received.
    pub job_requests: u64,
    /// Jobs served from the in-memory cache.
    pub mem_hits: u64,
    /// Jobs served from the on-disk store.
    pub disk_hits: u64,
    /// Jobs coalesced onto an identical in-flight execution.
    pub coalesced_hits: u64,
    /// Jobs that had to simulate.
    pub misses: u64,
    /// Simulations executed to completion.
    pub executed: u64,
    /// Job requests rejected with backpressure (queue full).
    pub rejected_busy: u64,
    /// Job requests rejected because the server is draining.
    pub rejected_draining: u64,
    /// Requests whose deadline expired while waiting.
    pub deadline_timeouts: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Admission queue depth at snapshot time.
    pub queue_depth: u64,
    /// Jobs executing at snapshot time.
    pub inflight: u64,
    /// p50 service time of executed jobs, microseconds.
    pub p50_service_us: u64,
    /// p99 service time of executed jobs, microseconds.
    pub p99_service_us: u64,
    /// p999 service time of executed jobs, microseconds.
    pub p999_service_us: u64,
}

impl StatsSnapshot {
    /// Cache hits of all kinds (memory, disk, coalesced).
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.mem_hits
            .saturating_add(self.disk_hits)
            .saturating_add(self.coalesced_hits)
    }

    /// Counter-wise saturating sum, for cluster-level aggregation across
    /// backends. Every tally and gauge adds; the service-time quantiles are
    /// **not** summable across nodes and are zeroed here — an aggregator
    /// fills them from its own latency histogram (the mergeable
    /// `LatencyHistogram::combine` in `hmtx-core`).
    #[must_use]
    pub fn counter_sum(&self, other: &Self) -> Self {
        StatsSnapshot {
            requests: self.requests.saturating_add(other.requests),
            job_requests: self.job_requests.saturating_add(other.job_requests),
            mem_hits: self.mem_hits.saturating_add(other.mem_hits),
            disk_hits: self.disk_hits.saturating_add(other.disk_hits),
            coalesced_hits: self.coalesced_hits.saturating_add(other.coalesced_hits),
            misses: self.misses.saturating_add(other.misses),
            executed: self.executed.saturating_add(other.executed),
            rejected_busy: self.rejected_busy.saturating_add(other.rejected_busy),
            rejected_draining: self
                .rejected_draining
                .saturating_add(other.rejected_draining),
            deadline_timeouts: self
                .deadline_timeouts
                .saturating_add(other.deadline_timeouts),
            errors: self.errors.saturating_add(other.errors),
            queue_depth: self.queue_depth.saturating_add(other.queue_depth),
            inflight: self.inflight.saturating_add(other.inflight),
            p50_service_us: 0,
            p99_service_us: 0,
            p999_service_us: 0,
        }
    }

    /// Serializes the snapshot (fixed key order).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("requests", Json::Uint(self.requests)),
            ("job_requests", Json::Uint(self.job_requests)),
            ("cache_hits", Json::Uint(self.cache_hits())),
            ("mem_hits", Json::Uint(self.mem_hits)),
            ("disk_hits", Json::Uint(self.disk_hits)),
            ("coalesced_hits", Json::Uint(self.coalesced_hits)),
            ("misses", Json::Uint(self.misses)),
            ("executed", Json::Uint(self.executed)),
            ("rejected_busy", Json::Uint(self.rejected_busy)),
            ("rejected_draining", Json::Uint(self.rejected_draining)),
            ("deadline_timeouts", Json::Uint(self.deadline_timeouts)),
            ("errors", Json::Uint(self.errors)),
            ("queue_depth", Json::Uint(self.queue_depth)),
            ("inflight", Json::Uint(self.inflight)),
            ("p50_service_us", Json::Uint(self.p50_service_us)),
            ("p99_service_us", Json::Uint(self.p99_service_us)),
            ("p999_service_us", Json::Uint(self.p999_service_us)),
        ])
    }

    /// Parses a snapshot (the derived `cache_hits` field is ignored).
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on missing/malformed fields.
    pub fn from_json(v: &Json) -> Result<Self, WireError> {
        let uint = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| WireError::new(format!("stats needs uint `{name}`")))
        };
        Ok(StatsSnapshot {
            requests: uint("requests")?,
            job_requests: uint("job_requests")?,
            mem_hits: uint("mem_hits")?,
            disk_hits: uint("disk_hits")?,
            coalesced_hits: uint("coalesced_hits")?,
            misses: uint("misses")?,
            executed: uint("executed")?,
            rejected_busy: uint("rejected_busy")?,
            rejected_draining: uint("rejected_draining")?,
            deadline_timeouts: uint("deadline_timeouts")?,
            errors: uint("errors")?,
            queue_depth: uint("queue_depth")?,
            inflight: uint("inflight")?,
            p50_service_us: uint("p50_service_us")?,
            p99_service_us: uint("p99_service_us")?,
            // Absent in pre-cluster snapshots; default 0 keeps old recordings
            // parseable while new servers always emit it.
            p999_service_us: v.get("p999_service_us").and_then(Json::as_u64).unwrap_or(0),
        })
    }
}

// ----------------------------------------------------------- diagnostics

/// Serializes a [`Diagnostic`] for error responses.
#[must_use]
pub fn diagnostic_to_json(d: &Diagnostic) -> Json {
    Json::obj(vec![
        (
            "severity",
            Json::Str(
                match d.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                }
                .into(),
            ),
        ),
        ("rule", Json::Str(d.rule.into())),
        ("core", Json::Uint(d.core as u64)),
        ("pc", Json::Uint(d.pc as u64)),
        ("message", Json::Str(d.message.clone())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobSpec {
        JobSpec {
            benchmark: BenchRef::Suite(3),
            paradigm: WireParadigm::Paper,
            scale: WireScale::Quick,
            base: WireBase::Test,
            variant: WireVariant::Sla { enabled: false },
            fault: Some(FaultSpec {
                seed: 7,
                rate_ppm: 200,
            }),
        }
    }

    #[test]
    fn hytm_paradigm_name_round_trips() {
        assert_eq!(WireParadigm::Hytm.name(), "hytm");
        assert_eq!(WireParadigm::from_name("hytm").unwrap(), WireParadigm::Hytm);
    }

    #[test]
    fn spec_round_trips_through_json() {
        for spec in [
            sample(),
            JobSpec::new(
                BenchRef::SlaStress,
                WireParadigm::PsDswp,
                WireScale::Standard,
                WireBase::Paper,
            ),
            JobSpec {
                variant: WireVariant::ScalingFabric {
                    cores: 16,
                    directory: true,
                },
                ..JobSpec::new(
                    BenchRef::ScalingLoop,
                    WireParadigm::Doacross,
                    WireScale::Stress,
                    WireBase::Paper,
                )
            },
            JobSpec {
                variant: WireVariant::Victim(VictimPolicy::PlainLru),
                ..sample()
            },
            JobSpec {
                variant: WireVariant::QueueLatency(300),
                ..sample()
            },
            JobSpec {
                variant: WireVariant::VidBits(4),
                fault: None,
                ..sample()
            },
        ] {
            let back = JobSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.canonical(), spec.canonical());
        }
    }

    #[test]
    fn canonicalization_ignores_client_key_order_and_defaults() {
        let shuffled = Json::parse(
            r#"{"paradigm":"paper","base":"test","scale":"quick","benchmark":"suite:1"}"#,
        )
        .unwrap();
        let spec = JobSpec::from_json(&shuffled).unwrap();
        let explicit = Json::parse(
            r#"{"benchmark":"suite:1","paradigm":"paper","scale":"quick","base":"test",
                "variant":{"kind":"base"},"fault":null}"#,
        )
        .unwrap();
        let spec2 = JobSpec::from_json(&explicit).unwrap();
        assert_eq!(spec.canonical(), spec2.canonical());
        assert_eq!(spec.key(), spec2.key());
    }

    #[test]
    fn distinct_specs_get_distinct_keys() {
        let a = sample();
        let mut b = sample();
        b.fault = Some(FaultSpec {
            seed: 8,
            rate_ppm: 200,
        });
        assert_ne!(a.key(), b.key());
        assert_eq!(a.key().len(), 32);
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let bad = Json::parse(
            r#"{"benchmark":"suite:0","paradigm":"seq","scale":"quick","base":"test","extra":1}"#,
        )
        .unwrap();
        assert!(JobSpec::from_json(&bad).is_err());
        let bad_variant = Json::parse(
            r#"{"benchmark":"suite:0","paradigm":"seq","scale":"quick","base":"test",
                "variant":{"kind":"sla","enabled":true,"stray":1}}"#,
        )
        .unwrap();
        assert!(JobSpec::from_json(&bad_variant).is_err());
    }

    #[test]
    fn malformed_specs_error() {
        for bad in [
            r#"{"benchmark":"suite:x","paradigm":"seq","scale":"quick","base":"test"}"#,
            r#"{"benchmark":"suite:0","paradigm":"nope","scale":"quick","base":"test"}"#,
            r#"{"benchmark":"suite:0","paradigm":"seq","scale":"big","base":"test"}"#,
            r#"{"benchmark":"suite:0","paradigm":"seq","scale":"quick","base":"huge"}"#,
            r#"{"benchmark":"suite:0","paradigm":"seq","scale":"quick","base":"test","variant":{"kind":"vid-bits","bits":99}}"#,
            r#"{"benchmark":"suite:0","paradigm":"seq","scale":"quick","base":"test","fault":{"seed":1}}"#,
            r#"[1]"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(JobSpec::from_json(&v).is_err(), "{bad}");
        }
    }

    #[test]
    fn variants_apply_expected_knobs() {
        let base = MachineConfig::test_default();
        assert!(
            !WireVariant::Commit { lazy: false }
                .apply(&base)
                .hmtx
                .lazy_commit
        );
        assert_eq!(WireVariant::VidBits(3).apply(&base).pipeline_window, 7);
        assert!(
            WireVariant::Bounded { unbounded: true }
                .apply(&base)
                .unbounded_sets
        );
        let fabric = WireVariant::ScalingFabric {
            cores: 16,
            directory: true,
        }
        .apply(&base);
        assert_eq!(fabric.num_cores, 16);
        assert!(matches!(
            fabric.interconnect,
            Interconnect::Directory { banks: 8, .. }
        ));
    }

    #[test]
    fn fault_rates_parse_up_to_one_million_ppm() {
        assert_eq!(FaultSpec::parse_rate("0"), Some(0));
        assert_eq!(FaultSpec::parse_rate("1000000"), Some(1_000_000));
        assert_eq!(FaultSpec::parse_rate("1000001"), None);
        assert_eq!(FaultSpec::parse_rate("-1"), None);
    }

    #[test]
    fn content_key_is_stable_and_sensitive() {
        let a = content_key(b"hello");
        assert_eq!(a, content_key(b"hello"));
        assert_ne!(a, content_key(b"hello!"));
        assert_eq!(a.len(), 32);
    }

    #[test]
    fn stats_snapshot_round_trips() {
        let s = StatsSnapshot {
            requests: 10,
            job_requests: 8,
            mem_hits: 3,
            disk_hits: 1,
            coalesced_hits: 2,
            misses: 2,
            executed: 2,
            rejected_busy: 1,
            rejected_draining: 1,
            deadline_timeouts: 1,
            errors: 0,
            queue_depth: 4,
            inflight: 1,
            p50_service_us: 1000,
            p99_service_us: 9000,
            p999_service_us: 12_000,
        };
        let back = StatsSnapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        assert_eq!(s.cache_hits(), 6);
    }

    #[test]
    fn diagnostic_serializes() {
        let d = Diagnostic {
            severity: Severity::Error,
            rule: "mtx-halt-speculative",
            core: 2,
            pc: 14,
            message: "halt inside MTX".into(),
        };
        let j = diagnostic_to_json(&d);
        assert_eq!(
            j.get("rule").unwrap().as_str(),
            Some("mtx-halt-speculative")
        );
        assert_eq!(j.get("core").unwrap().as_u64(), Some(2));
    }
}
