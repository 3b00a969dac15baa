//! The parallel, deterministic simulation job runner.
//!
//! Every experiment in this crate decomposes into *pure* simulation jobs:
//! a [`JobSpec`] — the same wire value `hmtx-serve` caches by its content
//! key — names a benchmark, a paradigm, a configuration variant, and a
//! scale, and running it twice produces bit-identical machines (the whole
//! simulator is deterministic and shares no state between runs). That
//! purity is what makes the harness parallel *and* reproducible:
//!
//! * each figure/table function builds the list of jobs its rows need and
//!   hands it to [`SimPool::run`], which simulates the jobs not yet cached
//!   across the pool's host threads (one shared queue under
//!   `std::thread::scope`) and returns every result in list order;
//! * rows are computed from that list, so the rendered output is
//!   byte-identical whatever `--jobs` was;
//! * identical jobs shared by several figures (e.g. the sequential baseline
//!   used by Figure 2, Figure 8, and Table 3) simulate exactly once: the
//!   pool caches each result keyed by its spec.
//!
//! A spec runs as a [`SimJob`] (what [`crate::materialize`] resolves it
//! to) against the base configuration its spec names.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hmtx_machine::Machine;
use hmtx_runtime::{run_hytm, run_loop, LoopBody, Paradigm, RunReport};
use hmtx_smtx::{run_smtx, RwSetMode};
use hmtx_types::{
    BenchRef, FaultSpec, JobSpec, MachineConfig, SimError, WireBase, WireParadigm, WireScale,
    WireVariant,
};
use hmtx_workloads::{suite, Scale};

use crate::jobspec::{base_config, materialize, run_job};
use crate::BUDGET;

pub mod progress;

use progress::Reporter;

// --------------------------------------------------------------------- jobs

/// Which execution model runs the benchmark: a [`WireParadigm`] resolved
/// to the runtime that executes it.
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
    /// An explicitly chosen paradigm (synthetic loops, the latency sweep).
    Explicit(Paradigm),
}

/// One pure simulation: benchmark × paradigm × configuration × scale, as
/// [`crate::materialize`] resolves it from a [`hmtx_types::JobSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimJob {
    /// What simulates.
    pub benchmark: BenchRef,
    /// Under which execution model.
    pub paradigm: JobParadigm,
    /// With which configuration variant.
    pub config: WireVariant,
    /// At which workload scale.
    pub scale: Scale,
}

impl SimJob {
    /// A compact human-readable identifier (progress lines, reports).
    #[must_use]
    pub fn label(&self) -> String {
        let bench = match self.benchmark {
            BenchRef::Suite(i) => suite(self.scale)
                .get(i as usize)
                .map_or_else(|| format!("suite[{i}]"), |w| w.meta().name.to_string()),
            BenchRef::SlaStress => "sla-stress".into(),
            BenchRef::ScalingLoop => "scaling-loop".into(),
            BenchRef::Fig1Loop => "fig1-loop".into(),
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
        let finished = |(m, r): (Machine, RunReport)| (m, r.cycles, r.recoveries, Some(r));
        let synthetic = |body: &dyn LoopBody| -> Result<_, SimError> {
            Ok(finished(run_loop(
                self.explicit_paradigm()?,
                body,
                &cfg,
                BUDGET,
            )?))
        };
        let quick = self.scale == Scale::Quick;
        let (machine, cycles, recoveries, report) = match self.benchmark {
            BenchRef::Suite(i) => {
                let workloads = suite(self.scale);
                let w = workloads
                    .get(i as usize)
                    .ok_or_else(|| SimError::BadProgram(format!("no suite workload {i}")))?;
                let run = |paradigm| run_loop(paradigm, w.as_ref(), &cfg, BUDGET);
                match self.paradigm {
                    JobParadigm::Smtx(mode) => {
                        let (m, r) = run_smtx(w.as_ref(), &cfg, mode, BUDGET)?;
                        (m, r.cycles, 0, None)
                    }
                    JobParadigm::Hytm => {
                        finished(run_hytm(w.meta().paradigm, w.as_ref(), &cfg, BUDGET)?)
                    }
                    JobParadigm::Sequential => finished(run(Paradigm::Sequential)?),
                    JobParadigm::Paper => finished(run(w.meta().paradigm)?),
                    JobParadigm::Explicit(p) => finished(run(p)?),
                }
            }
            BenchRef::SlaStress => synthetic(&crate::SlaStress {
                iters: if quick { 24 } else { 96 },
            })?,
            BenchRef::ScalingLoop => synthetic(&crate::ScalingLoop {
                iters: if quick { 96 } else { 512 },
            })?,
            BenchRef::Fig1Loop => synthetic(&crate::fig1::Fig1Loop { iters: 5 })?,
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
    /// The job's content key ([`JobSpec::key`]): what `hmtx-serve` would
    /// cache the same run under.
    pub key: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Misspeculation recoveries.
    pub recoveries: u64,
    /// Host wall-clock seconds for this job.
    pub wall_seconds: f64,
}

/// A memoizing pool of simulation results, keyed by [`JobSpec`]. A pool is
/// a workload scale, a base configuration and an optional fault plan: every
/// job it names ([`SimPool::job`]) carries all three.
pub struct SimPool {
    scale: WireScale,
    base: WireBase,
    fault: Option<FaultSpec>,
    base_cfg: MachineConfig,
    /// A base no spec can name, which every miss runs against instead.
    #[cfg(test)]
    test_base: Option<MachineConfig>,
    threads: usize,
    cache: Mutex<HashMap<JobSpec, Arc<JobResult>>>,
    reporter: Reporter,
}

impl SimPool {
    /// A pool naming jobs at `scale` on `base` with `fault`'s plan (if
    /// any), run on one thread.
    #[must_use]
    pub fn new(scale: WireScale, base: WireBase, fault: Option<FaultSpec>) -> Self {
        SimPool {
            scale,
            base,
            fault,
            base_cfg: base_config(base, fault),
            #[cfg(test)]
            test_base: None,
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

    /// Runs every job against `base` instead of the base its spec names.
    #[cfg(test)]
    pub(crate) fn with_test_base(mut self, base: MachineConfig) -> Self {
        self.test_base = Some(base);
        self
    }

    /// The workload scale jobs created through this pool run at.
    #[must_use]
    pub fn scale(&self) -> Scale {
        Scale::from(self.scale)
    }

    /// The base configuration (fault plan included) variants apply to.
    #[must_use]
    pub fn base_cfg(&self) -> &MachineConfig {
        &self.base_cfg
    }

    /// The spec of `benchmark` under `paradigm` with `variant`, at this
    /// pool's scale, base and fault plan.
    #[must_use]
    pub fn job(
        &self,
        benchmark: BenchRef,
        paradigm: WireParadigm,
        variant: WireVariant,
    ) -> JobSpec {
        JobSpec {
            benchmark,
            paradigm,
            scale: self.scale,
            base: self.base,
            variant,
            fault: self.fault,
        }
    }

    /// Simulates one spec, exactly as [`run_job`] does.
    fn simulate(&self, spec: &JobSpec) -> Result<JobResult, SimError> {
        #[cfg(test)]
        if let Some(base) = &self.test_base {
            return materialize(spec).0.run(base);
        }
        run_job(spec)
    }

    /// Returns the result of every job in `jobs`, in list order.
    ///
    /// Jobs not cached yet simulate once each (duplicates included) on up
    /// to the pool's thread count, pulled in list order from one shared
    /// queue. Results land in a spec-keyed cache before they are returned,
    /// so completion order never shows: the returned list, and a later
    /// call for the same jobs, are identical to a serial run.
    ///
    /// # Errors
    ///
    /// If any job fails, returns the error of the failing job with the
    /// lowest index in `jobs` (deterministic whatever the interleaving);
    /// the jobs that succeeded stay cached.
    pub fn run(&self, jobs: &[JobSpec]) -> Result<Vec<Arc<JobResult>>, SimError> {
        let misses: Vec<JobSpec> = {
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
            let label = materialize(job).0.label();
            self.reporter
                .line(&format!("start {:>3}/{total} {label}", index + 1));
            match self.simulate(job) {
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

    /// Every cached result's label, key, cycles, and wall-clock, sorted by
    /// label (a deterministic order for reports).
    #[must_use]
    pub fn job_log(&self) -> Vec<JobLogEntry> {
        let cache = self.cache.lock().unwrap();
        let mut log: Vec<JobLogEntry> = cache
            .iter()
            .map(|(spec, r)| JobLogEntry {
                label: materialize(spec).0.label(),
                key: spec.key(),
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
    assert_send_sync::<JobResult>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_pool() -> SimPool {
        SimPool::new(WireScale::Quick, WireBase::Test, None)
    }

    fn seq(pool: &SimPool, index: u32) -> JobSpec {
        pool.job(
            BenchRef::Suite(index),
            WireParadigm::Sequential,
            WireVariant::Base,
        )
    }

    #[test]
    fn identical_jobs_simulate_once() {
        let pool = quick_pool();
        let job = seq(&pool, 7);
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
        let pool = quick_pool();
        let jobs: Vec<JobSpec> = [0, 2, 7]
            .into_iter()
            .flat_map(|i| {
                [WireParadigm::Sequential, WireParadigm::Paper]
                    .map(|p| pool.job(BenchRef::Suite(i), p, WireVariant::Base))
            })
            .collect();
        let parallel = quick_pool().with_threads(4).run(&jobs).unwrap();
        for (job, p) in jobs.iter().zip(&parallel) {
            let s = &pool.run(&[*job]).unwrap()[0];
            let label = materialize(job).0.label();
            assert_eq!(p.cycles, s.cycles, "{label}");
            assert_eq!(p.recoveries, s.recoveries, "{label}");
        }
        assert_eq!(pool.job_log().len(), jobs.len());
    }

    #[test]
    fn prefetch_reports_the_lowest_index_error() {
        let pool = quick_pool().with_threads(3);
        let good = seq(&pool, 7);
        let err = pool
            .run(&[seq(&pool, 101), good, seq(&pool, 100)])
            .unwrap_err();
        match err {
            SimError::BadProgram(msg) => assert!(msg.contains("101"), "{msg}"),
            other => panic!("unexpected error {other:?}"),
        }
        // The good job still completed and is cached.
        let log = pool.job_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].label, materialize(&good).0.label());
        assert_eq!(log[0].key, good.key());
        assert!(pool.run(&[good]).is_ok());
        assert_eq!(pool.job_log().len(), 1);
    }

    #[test]
    fn a_pool_job_runs_like_run_job() {
        let pool = SimPool::new(
            WireScale::Quick,
            WireBase::Paper,
            Some(FaultSpec {
                seed: 3,
                rate_ppm: 500,
            }),
        );
        assert!(
            pool.base_cfg().faults.is_some(),
            "the fault plan is in the base"
        );
        let spec = pool.job(
            BenchRef::Suite(1),
            WireParadigm::Paper,
            WireVariant::Sla { enabled: false },
        );
        let direct = run_job(&spec).unwrap();
        let pooled = &pool.run(&[spec]).unwrap()[0];
        assert_eq!(pooled.cycles, direct.cycles);
        assert_eq!(pooled.recoveries, direct.recoveries);
    }
}
