//! The parallel, deterministic simulation job runner.
//!
//! Every experiment in this crate decomposes into *pure* simulation jobs: a
//! [`SimJob`] names a benchmark, a paradigm, a configuration variant, and a
//! scale, and running it twice produces bit-identical machines (the whole
//! simulator is deterministic and shares no state between runs). That purity
//! is what makes the harness parallel *and* reproducible:
//!
//! * each figure/table function builds the list of jobs its rows need and
//!   hands it to [`SimPool::run`], which simulates the jobs not yet cached
//!   across the pool's host threads (one shared queue under
//!   `std::thread::scope`) and returns every result in list order;
//! * rows are computed from that list, so the rendered output is
//!   byte-identical whatever `--jobs` was;
//! * identical jobs shared by several figures (e.g. the sequential baseline
//!   used by Figure 2, Figure 8, and Table 3) simulate exactly once: the
//!   pool caches each result keyed by its job.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hmtx_machine::Machine;
use hmtx_runtime::{run_loop, Paradigm, RunReport};
use hmtx_smtx::{run_hytm, run_smtx, RwSetMode};
use hmtx_types::{CacheConfig, Interconnect, MachineConfig, SimError, VictimPolicy};
use hmtx_workloads::{suite, Scale};

use crate::BUDGET;

pub mod progress;

use progress::Reporter;

// --------------------------------------------------------------------- jobs

/// What simulates: a suite workload or one of the synthetic loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// `suite(scale)[index]` — one of the 8 paper workload analogues.
    Suite(usize),
    /// The §5.1 wrong-path hazard loop (ablation B).
    SlaStress,
    /// The memory-streaming loop of the §8 core-count scaling study.
    ScalingLoop,
    /// The instrumented pipeline loop behind Figure 1's timing diagrams.
    Fig1Loop,
}

/// Which execution model runs the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobParadigm {
    /// Single-core sequential baseline.
    Sequential,
    /// The workload's paper paradigm (`meta().paradigm`) on HMTX.
    Paper,
    /// The software-MTX port with the given validation mode.
    Smtx(RwSetMode),
    /// Hybrid TM: the workload's paper paradigm on the bounded HMTX fast
    /// path with the SMTX software slow path (suite workloads only).
    Hytm,
    /// An explicitly chosen paradigm (Figure 1, synthetic loops).
    Explicit(Paradigm),
}

/// A named, hashable configuration variant. Variants are applied to the
/// pool's base configuration, so a job stays a small pure value instead of
/// embedding a whole `MachineConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigVariant {
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
    /// §8 scaling study: constrained fabric without core-count changes
    /// (the sequential baseline of the sweep).
    ScalingBase,
    /// §8 scaling study: constrained fabric at a core count, snoopy bus or
    /// banked directory.
    ScalingFabric {
        /// Number of cores.
        cores: usize,
        /// Banked directory when true, snoopy bus when false.
        directory: bool,
    },
    /// §2.1 latency sensitivity: hardware queue / cross-core latency.
    QueueLatency(u64),
}

impl ConfigVariant {
    /// Materializes the variant against the pool's base configuration.
    #[must_use]
    pub fn apply(&self, base: &MachineConfig) -> MachineConfig {
        let mut c = base.clone();
        match *self {
            ConfigVariant::Base => {}
            ConfigVariant::Commit { lazy } => c.hmtx.lazy_commit = lazy,
            ConfigVariant::Sla { enabled } => c.hmtx.sla_enabled = enabled,
            ConfigVariant::VidBits(bits) => {
                c.hmtx.vid_bits = bits;
                c.pipeline_window = c.pipeline_window.min((1 << bits) - 1);
            }
            ConfigVariant::Victim(policy) => {
                // Constrain the hierarchy so overflow decisions matter.
                c.l1 = CacheConfig {
                    size_bytes: 8 * 1024,
                    ways: 4,
                    latency: 2,
                };
                c.l2 = CacheConfig {
                    size_bytes: 64 * 1024,
                    ways: 8,
                    latency: 40,
                };
                c.pipeline_window = 4;
                c.hmtx.victim_policy = policy;
            }
            ConfigVariant::Bounded { unbounded } => {
                c.l1 = CacheConfig {
                    size_bytes: 8 * 1024,
                    ways: 4,
                    latency: 2,
                };
                c.l2 = CacheConfig {
                    size_bytes: 32 * 1024,
                    ways: 8,
                    latency: 40,
                };
                c.pipeline_window = 6;
                c.unbounded_sets = unbounded;
            }
            ConfigVariant::ScalingBase => scaling_stress(&mut c),
            ConfigVariant::ScalingFabric { cores, directory } => {
                scaling_stress(&mut c);
                c.num_cores = cores;
                c.interconnect = if directory {
                    Interconnect::Directory {
                        banks: 8,
                        hop_latency: 6,
                    }
                } else {
                    Interconnect::SnoopyBus
                };
            }
            ConfigVariant::QueueLatency(latency) => c.queue_latency = latency,
        }
        c
    }

    fn label(&self) -> String {
        match *self {
            ConfigVariant::Base => "base".into(),
            ConfigVariant::Commit { lazy } => {
                format!("{}-commit", if lazy { "lazy" } else { "eager" })
            }
            ConfigVariant::Sla { enabled } => {
                format!("sla-{}", if enabled { "on" } else { "off" })
            }
            ConfigVariant::VidBits(bits) => format!("vid{bits}"),
            ConfigVariant::Victim(VictimPolicy::PreferSafeOverflow) => "victim-safe".into(),
            ConfigVariant::Victim(VictimPolicy::PlainLru) => "victim-lru".into(),
            ConfigVariant::Bounded { unbounded } => {
                format!("{}bounded", if unbounded { "un" } else { "" })
            }
            ConfigVariant::ScalingBase => "scaling-base".into(),
            ConfigVariant::ScalingFabric { cores, directory } => {
                format!("{}x{}", cores, if directory { "directory" } else { "bus" })
            }
            ConfigVariant::QueueLatency(latency) => format!("qlat{latency}"),
        }
    }
}

/// The §8 scaling study's stressed fabric: line-transfer-granularity bus
/// occupancy and small per-core L1s, so miss traffic grows with core count.
fn scaling_stress(c: &mut MachineConfig) {
    c.bus_occupancy = 16;
    c.l1 = CacheConfig {
        size_bytes: 8 * 1024,
        ways: 4,
        latency: 2,
    };
    c.l2 = CacheConfig {
        size_bytes: 1024 * 1024,
        ways: 32,
        latency: 40,
    };
    c.pipeline_window = 32;
}

/// One pure simulation: benchmark × paradigm × configuration × scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimJob {
    /// What simulates.
    pub benchmark: Benchmark,
    /// Under which execution model.
    pub paradigm: JobParadigm,
    /// With which configuration variant.
    pub config: ConfigVariant,
    /// At which workload scale.
    pub scale: Scale,
}

impl SimJob {
    /// Shorthand constructor.
    #[must_use]
    pub fn new(
        benchmark: Benchmark,
        paradigm: JobParadigm,
        config: ConfigVariant,
        scale: Scale,
    ) -> Self {
        SimJob {
            benchmark,
            paradigm,
            config,
            scale,
        }
    }

    /// A compact human-readable identifier (progress lines, JSON reports).
    #[must_use]
    pub fn label(&self) -> String {
        let bench = match self.benchmark {
            Benchmark::Suite(i) => suite(self.scale)
                .get(i)
                .map_or_else(|| format!("suite[{i}]"), |w| w.meta().name.to_string()),
            Benchmark::SlaStress => "sla-stress".into(),
            Benchmark::ScalingLoop => "scaling-loop".into(),
            Benchmark::Fig1Loop => "fig1-loop".into(),
        };
        let paradigm = match self.paradigm {
            JobParadigm::Sequential => "seq".into(),
            JobParadigm::Paper => "hmtx".into(),
            JobParadigm::Smtx(RwSetMode::Minimal) => "smtx-min".into(),
            JobParadigm::Smtx(RwSetMode::Substantial) => "smtx-sub".into(),
            JobParadigm::Smtx(RwSetMode::Maximal) => "smtx-max".into(),
            JobParadigm::Hytm => "hytm".into(),
            JobParadigm::Explicit(p) => p.name().to_lowercase(),
        };
        let scale = match self.scale {
            Scale::Quick => "quick",
            Scale::Standard => "standard",
            Scale::Stress => "stress",
        };
        format!("{bench}:{paradigm}:{}:{scale}", self.config.label())
    }

    /// Runs the job against `base` (a fresh machine every time; no state is
    /// shared between jobs).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the simulation.
    pub fn run(&self, base: &MachineConfig) -> Result<JobResult, SimError> {
        let cfg = self.config.apply(base);
        let started = Instant::now();
        let (machine, cycles, recoveries, report) = match self.benchmark {
            Benchmark::Suite(i) => {
                let workloads = suite(self.scale);
                let w = workloads
                    .get(i)
                    .ok_or_else(|| SimError::BadProgram(format!("no suite workload {i}")))?;
                match self.paradigm {
                    JobParadigm::Smtx(mode) => {
                        let (m, r) = run_smtx(w.as_ref(), &cfg, mode, BUDGET)?;
                        (m, r.cycles, 0, None)
                    }
                    JobParadigm::Hytm => {
                        let (m, r) = run_hytm(w.meta().paradigm, w.as_ref(), &cfg, BUDGET)?;
                        (m, r.cycles, r.recoveries, Some(r))
                    }
                    _ => {
                        let paradigm = match self.paradigm {
                            JobParadigm::Sequential => Paradigm::Sequential,
                            JobParadigm::Paper => w.meta().paradigm,
                            JobParadigm::Explicit(p) => p,
                            JobParadigm::Smtx(_) | JobParadigm::Hytm => {
                                unreachable!("handled above")
                            }
                        };
                        let (m, r) = run_loop(paradigm, w.as_ref(), &cfg, BUDGET)?;
                        (m, r.cycles, r.recoveries, Some(r))
                    }
                }
            }
            Benchmark::SlaStress => {
                let body = crate::SlaStress {
                    iters: if self.scale == Scale::Quick { 24 } else { 96 },
                };
                let (m, r) = run_loop(self.explicit_paradigm()?, &body, &cfg, BUDGET)?;
                (m, r.cycles, r.recoveries, Some(r))
            }
            Benchmark::ScalingLoop => {
                let body = crate::ScalingLoop {
                    iters: if self.scale == Scale::Quick { 96 } else { 512 },
                };
                (match self.paradigm {
                    JobParadigm::Sequential => run_loop(Paradigm::Sequential, &body, &cfg, BUDGET),
                    _ => run_loop(self.explicit_paradigm()?, &body, &cfg, BUDGET),
                })
                .map(|(m, r)| (m, r.cycles, r.recoveries, Some(r)))?
            }
            Benchmark::Fig1Loop => {
                let body = crate::fig1::Fig1Loop { iters: 5 };
                let (m, r) = run_loop(self.explicit_paradigm()?, &body, &cfg, BUDGET)?;
                (m, r.cycles, r.recoveries, Some(r))
            }
        };
        Ok(JobResult {
            machine,
            cycles,
            recoveries,
            report,
            wall_seconds: started.elapsed().as_secs_f64(),
        })
    }

    fn explicit_paradigm(&self) -> Result<Paradigm, SimError> {
        match self.paradigm {
            JobParadigm::Explicit(p) => Ok(p),
            JobParadigm::Sequential => Ok(Paradigm::Sequential),
            _ => Err(SimError::BadProgram(format!(
                "synthetic benchmark {:?} needs an explicit paradigm",
                self.benchmark
            ))),
        }
    }
}

/// Everything a figure/table needs from one finished simulation.
#[derive(Debug)]
pub struct JobResult {
    /// The finished machine (memory contents, statistics, marker log).
    pub machine: Machine,
    /// Hot-loop completion time in cycles.
    pub cycles: u64,
    /// Misspeculation recoveries the runtime performed (0 for SMTX runs,
    /// which validate in software instead).
    pub recoveries: u64,
    /// The full runtime report (absent for SMTX runs).
    pub report: Option<RunReport>,
    /// Host wall-clock the simulation took, in seconds.
    pub wall_seconds: f64,
}

// --------------------------------------------------------------------- pool

/// One entry of [`SimPool::job_log`].
#[derive(Debug, Clone)]
pub struct JobLogEntry {
    /// The job's [`SimJob::label`].
    pub label: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Misspeculation recoveries.
    pub recoveries: u64,
    /// Host wall-clock seconds for this job.
    pub wall_seconds: f64,
}

/// A memoizing pool of simulation results over one base configuration.
pub struct SimPool {
    scale: Scale,
    base_cfg: MachineConfig,
    threads: usize,
    cache: Mutex<HashMap<SimJob, Arc<JobResult>>>,
    reporter: Reporter,
}

impl SimPool {
    /// A pool running jobs at `scale` against `base_cfg`, on one thread.
    #[must_use]
    pub fn new(scale: Scale, base_cfg: MachineConfig) -> Self {
        SimPool {
            scale,
            base_cfg,
            threads: 1,
            cache: Mutex::new(HashMap::new()),
            reporter: Reporter::disabled(),
        }
    }

    /// Runs each batch on up to `threads` host threads (at least one).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables the line-oriented progress stream on stderr.
    #[must_use]
    pub fn with_progress(mut self) -> Self {
        self.reporter = Reporter::stderr();
        self
    }

    /// The workload scale jobs created through this pool run at.
    #[must_use]
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The base configuration variants are applied to.
    #[must_use]
    pub fn base_cfg(&self) -> &MachineConfig {
        &self.base_cfg
    }

    /// A job bound to this pool's scale.
    #[must_use]
    pub fn job(
        &self,
        benchmark: Benchmark,
        paradigm: JobParadigm,
        config: ConfigVariant,
    ) -> SimJob {
        SimJob::new(benchmark, paradigm, config, self.scale)
    }

    /// Returns the result of every job in `jobs`, in list order.
    ///
    /// Jobs not cached yet simulate once each (duplicates included) on up
    /// to the pool's thread count, pulled in list order from one shared
    /// queue. Results land in a job-keyed cache before they are returned,
    /// so completion order never shows: the returned list, and a later
    /// call for the same jobs, are identical to a serial run.
    ///
    /// # Errors
    ///
    /// If any job fails, returns the error of the failing job with the
    /// lowest index in `jobs` (deterministic whatever the interleaving);
    /// the jobs that succeeded stay cached.
    pub fn run(&self, jobs: &[SimJob]) -> Result<Vec<Arc<JobResult>>, SimError> {
        let misses: Vec<SimJob> = {
            let cache = self.cache.lock().unwrap();
            let mut seen = HashSet::new();
            jobs.iter()
                .filter(|j| !cache.contains_key(*j) && seen.insert(**j))
                .copied()
                .collect()
        };
        let total = misses.len();
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let errors: Mutex<Vec<(usize, SimError)>> = Mutex::new(Vec::new());
        let work = || loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = misses.get(index) else { break };
            let label = job.label();
            self.reporter
                .line(&format!("start {:>3}/{total} {label}", index + 1));
            match job.run(&self.base_cfg) {
                Ok(result) => {
                    let mcyc_s = result.cycles as f64 / 1e6 / result.wall_seconds.max(1e-9);
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    self.reporter.line(&format!(
                        "done  {finished:>3}/{total} {label} wall={:.2}s cycles={} \
                         ({mcyc_s:.1} Mcyc/s)",
                        result.wall_seconds, result.cycles,
                    ));
                    self.cache.lock().unwrap().insert(*job, Arc::new(result));
                }
                Err(e) => {
                    done.fetch_add(1, Ordering::Relaxed);
                    self.reporter.line(&format!("fail  {label}: {e:?}"));
                    errors.lock().unwrap().push((index, e));
                }
            }
        };
        // The calling thread works too, beside `threads - 1` helpers.
        std::thread::scope(|s| {
            for _ in 1..self.threads.min(total) {
                s.spawn(work);
            }
            work();
        });
        // `misses` keeps list order, so its lowest index is the failing
        // job listed first in `jobs`.
        if let Some((_, e)) = errors
            .into_inner()
            .unwrap()
            .into_iter()
            .min_by_key(|(i, _)| *i)
        {
            return Err(e);
        }
        let cache = self.cache.lock().unwrap();
        Ok(jobs.iter().map(|j| Arc::clone(&cache[j])).collect())
    }

    /// Every cached result's label, cycles, and wall-clock, sorted by label
    /// (a deterministic order for reports).
    #[must_use]
    pub fn job_log(&self) -> Vec<JobLogEntry> {
        let cache = self.cache.lock().unwrap();
        let mut log: Vec<JobLogEntry> = cache
            .iter()
            .map(|(job, r)| JobLogEntry {
                label: job.label(),
                cycles: r.cycles,
                recoveries: r.recoveries,
                wall_seconds: r.wall_seconds,
            })
            .collect();
        log.sort_by(|a, b| a.label.cmp(&b.label));
        log
    }
}

// `std::thread::scope` requires this anyway, but make the guarantee
// explicit: pools (and the results inside them) may be shared across the
// worker threads of a batch.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimPool>();
    assert_send_sync::<SimJob>();
    assert_send_sync::<JobResult>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_pool() -> SimPool {
        SimPool::new(Scale::Quick, MachineConfig::test_default())
    }

    #[test]
    fn identical_jobs_simulate_once() {
        let pool = quick_pool();
        let job = pool.job(
            Benchmark::Suite(7),
            JobParadigm::Sequential,
            ConfigVariant::Base,
        );
        let first = pool.run(&[job, job]).unwrap();
        let again = pool.run(&[job]).unwrap();
        assert!(Arc::ptr_eq(&first[0], &first[1]), "a duplicate must share");
        assert!(
            Arc::ptr_eq(&first[0], &again[0]),
            "a rerun must hit the cache"
        );
        assert_eq!(pool.job_log().len(), 1);
    }

    #[test]
    fn prefetch_matches_serial_results() {
        let jobs: Vec<SimJob> = [0usize, 2, 7]
            .into_iter()
            .flat_map(|i| {
                [
                    SimJob::new(
                        Benchmark::Suite(i),
                        JobParadigm::Sequential,
                        ConfigVariant::Base,
                        Scale::Quick,
                    ),
                    SimJob::new(
                        Benchmark::Suite(i),
                        JobParadigm::Paper,
                        ConfigVariant::Base,
                        Scale::Quick,
                    ),
                ]
            })
            .collect();
        let parallel = quick_pool().with_threads(4).run(&jobs).unwrap();
        let serial = quick_pool();
        for (job, p) in jobs.iter().zip(&parallel) {
            let s = &serial.run(&[*job]).unwrap()[0];
            assert_eq!(p.cycles, s.cycles, "{}", job.label());
            assert_eq!(p.recoveries, s.recoveries, "{}", job.label());
        }
        assert_eq!(serial.job_log().len(), jobs.len());
    }

    #[test]
    fn prefetch_reports_the_lowest_index_error() {
        let pool = quick_pool().with_threads(3);
        let bad = |i: usize| {
            SimJob::new(
                Benchmark::Suite(100 + i),
                JobParadigm::Sequential,
                ConfigVariant::Base,
                Scale::Quick,
            )
        };
        let good = SimJob::new(
            Benchmark::Suite(7),
            JobParadigm::Sequential,
            ConfigVariant::Base,
            Scale::Quick,
        );
        let err = pool.run(&[bad(1), good, bad(0)]).unwrap_err();
        match err {
            SimError::BadProgram(msg) => assert!(msg.contains("101"), "{msg}"),
            other => panic!("unexpected error {other:?}"),
        }
        // The good job still completed and is cached.
        let log = pool.job_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].label, good.label());
        assert!(pool.run(&[good]).is_ok());
        assert_eq!(pool.job_log().len(), 1);
    }

    #[test]
    fn config_variants_apply_expected_knobs() {
        let base = MachineConfig::test_default();
        assert!(
            !ConfigVariant::Commit { lazy: false }
                .apply(&base)
                .hmtx
                .lazy_commit
        );
        assert_eq!(ConfigVariant::VidBits(3).apply(&base).pipeline_window, 7);
        assert!(
            ConfigVariant::Bounded { unbounded: true }
                .apply(&base)
                .unbounded_sets
        );
        let fabric = ConfigVariant::ScalingFabric {
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
}
