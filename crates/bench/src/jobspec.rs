//! The wire-spec → simulation bridge: one public entry point shared by the
//! `experiments` CLI and the `hmtx-serve` server.
//!
//! A [`JobSpec`] (from `hmtx-types`) names a simulation as plain data;
//! [`run_job`] materializes it into a [`SimJob`] plus base
//! [`MachineConfig`], executes it, and [`render_report`] turns the result
//! into a **deterministic** JSON report: no wall-clock, no host state —
//! running the same spec twice yields byte-identical report text. That
//! determinism is what lets the server cache reports content-addressed by
//! [`JobSpec::key`] and still guarantee byte-identical responses whether a
//! job was computed or replayed from the cache.

use hmtx_core::MisspecCause;
use hmtx_runtime::Paradigm;
use hmtx_smtx::RwSetMode;
use hmtx_types::{
    BenchRef, FaultConfig, FaultSpec, JobSpec, Json, MachineConfig, SimError, WireBase,
    WireParadigm, WireScale, WireVariant,
};
use hmtx_workloads::{suite, Scale};

use crate::report::hytm_mix_json;
use crate::runner::{JobParadigm, JobResult, SimJob};

/// Schema tag of the reports produced by [`render_report`].
pub const REPORT_SCHEMA: &str = "hmtx-serve-report/1";

/// Maps a wire spec onto the executable job and the base configuration it
/// runs against (faults applied to the base; the variant applies at run
/// time, in [`SimJob::run`]).
#[must_use]
pub fn materialize(spec: &JobSpec) -> (SimJob, MachineConfig) {
    let paradigm = match spec.paradigm {
        WireParadigm::Sequential => JobParadigm::Sequential,
        WireParadigm::Paper => JobParadigm::Paper,
        WireParadigm::SmtxMin => JobParadigm::Smtx(RwSetMode::Minimal),
        WireParadigm::SmtxSub => JobParadigm::Smtx(RwSetMode::Substantial),
        WireParadigm::SmtxMax => JobParadigm::Smtx(RwSetMode::Maximal),
        WireParadigm::Doall => JobParadigm::Explicit(Paradigm::Doall),
        WireParadigm::Doacross => JobParadigm::Explicit(Paradigm::Doacross),
        WireParadigm::Dswp => JobParadigm::Explicit(Paradigm::Dswp),
        WireParadigm::PsDswp => JobParadigm::Explicit(Paradigm::PsDswp),
        WireParadigm::Hytm => JobParadigm::Hytm,
    };
    let job = SimJob {
        benchmark: spec.benchmark,
        paradigm,
        config: spec.variant,
        scale: Scale::from(spec.scale),
    };
    (job, base_config(spec.base, spec.fault))
}

/// The configuration a spec's variant applies to: its base, with its fault
/// plan (if any) switched on.
pub(crate) fn base_config(base: WireBase, fault: Option<FaultSpec>) -> MachineConfig {
    let mut cfg = match base {
        WireBase::Paper => MachineConfig::paper_default(),
        WireBase::Test => MachineConfig::test_default(),
    };
    if let Some(f) = fault {
        cfg.faults = Some(FaultConfig::chaos(f.seed, f.rate_ppm));
    }
    cfg
}

/// Runs the spec's simulation: the single job-spec → simulate path, used by
/// the `experiments` harness (each [`crate::runner::SimPool`] miss), its
/// `job` subcommand, and the `hmtx-serve` worker pool.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulation (bad suite index, paradigm
/// mismatch, verification diagnostics, …).
pub fn run_job(spec: &JobSpec) -> Result<JobResult, SimError> {
    let (job, base) = materialize(spec);
    job.run(&base)
}

/// Runs the spec and renders its deterministic report in one step.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulation.
pub fn run_job_report(spec: &JobSpec) -> Result<Json, SimError> {
    let result = run_job(spec)?;
    Ok(render_report(spec, &result))
}

/// A short stable tag per misspeculation cause class, for aggregation.
fn cause_kind(cause: &MisspecCause) -> &'static str {
    match cause {
        MisspecCause::StoreBelowHighVid { .. } => "store-below-high-vid",
        MisspecCause::StoreToSupersededVersion { .. } => "store-to-superseded",
        MisspecCause::NonSpecWriteConflict { .. } => "non-spec-write-conflict",
        MisspecCause::SpecOverflow { .. } => "spec-overflow",
        MisspecCause::SlaValueMismatch { .. } => "sla-value-mismatch",
        MisspecCause::ExplicitAbort { .. } => "explicit-abort",
        MisspecCause::InjectedConflict { .. } => "injected-conflict",
    }
}

/// Renders the deterministic report for a finished job. Everything in the
/// output is a function of the spec and the simulated machine; host
/// wall-clock (`JobResult::wall_seconds`) is deliberately excluded so the
/// bytes are reproducible and cacheable.
#[must_use]
pub fn render_report(spec: &JobSpec, result: &JobResult) -> Json {
    let (job, _) = materialize(spec);
    let stats = result.machine.stats();
    let mem = result.machine.mem().stats();
    let rw = mem.rw_totals();

    // Aggregate recovery causes into stable (kind, count) pairs.
    let mut causes: Vec<(&'static str, u64)> = Vec::new();
    if let Some(report) = &result.report {
        for cause in &report.recovery_causes {
            let kind = cause_kind(cause);
            match causes.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n = n.saturating_add(1),
                None => causes.push((kind, 1)),
            }
        }
    }
    causes.sort_by_key(|(k, _)| *k);

    let outputs = match &result.report {
        Some(report) => report.outputs.clone(),
        None => result.machine.committed_output().to_vec(),
    };
    let instructions = match &result.report {
        Some(report) => report.instructions,
        None => stats.instructions,
    };

    Json::obj(vec![
        ("schema", Json::Str(REPORT_SCHEMA.into())),
        ("key", Json::Str(spec.key())),
        ("spec", spec.to_json()),
        ("label", Json::Str(job.label())),
        ("cycles", Json::Uint(result.cycles)),
        ("instructions", Json::Uint(instructions)),
        ("recoveries", Json::Uint(result.recoveries)),
        (
            "recovery_causes",
            Json::Arr(
                causes
                    .into_iter()
                    .map(|(kind, count)| {
                        Json::obj(vec![
                            ("kind", Json::Str(kind.into())),
                            ("count", Json::Uint(count)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "outputs",
            Json::Arr(outputs.into_iter().map(Json::Uint).collect()),
        ),
        (
            "machine",
            Json::obj(vec![
                ("instructions", Json::Uint(stats.instructions)),
                ("branches", Json::Uint(stats.branches)),
                ("mispredictions", Json::Uint(stats.mispredictions)),
                (
                    "wrong_path_instructions",
                    Json::Uint(stats.wrong_path_instructions),
                ),
                ("interrupts", Json::Uint(stats.interrupts)),
                ("explicit_aborts", Json::Uint(stats.explicit_aborts)),
            ]),
        ),
        (
            "mem",
            Json::obj(vec![
                ("loads", Json::Uint(mem.loads)),
                ("stores", Json::Uint(mem.stores)),
                ("spec_loads", Json::Uint(mem.spec_loads)),
                ("spec_stores", Json::Uint(mem.spec_stores)),
                ("l1_hits", Json::Uint(mem.l1_hits)),
                ("l1_misses", Json::Uint(mem.l1_misses)),
                ("l2_hits", Json::Uint(mem.l2_hits)),
                ("mem_fills", Json::Uint(mem.mem_fills)),
                ("peer_transfers", Json::Uint(mem.peer_transfers)),
                ("slas_sent", Json::Uint(mem.slas_sent)),
                ("sla_aborts_avoided", Json::Uint(mem.sla_aborts_avoided)),
                ("commits", Json::Uint(mem.commits)),
                ("aborts", Json::Uint(mem.aborts)),
                ("vid_resets", Json::Uint(mem.vid_resets)),
            ]),
        ),
        (
            "rw_set",
            Json::obj(vec![
                ("transactions", Json::Uint(rw.transactions)),
                ("avg_read_kb", Json::Num(rw.avg_read_kb())),
                ("avg_write_kb", Json::Num(rw.avg_write_kb())),
                ("avg_combined_kb", Json::Num(rw.avg_combined_kb())),
            ]),
        ),
        (
            "hytm",
            hytm_mix_json(result.report.as_ref().and_then(|r| r.hytm.as_ref())),
        ),
    ])
}

/// The standard benchmark sweep `hmtx-load` submits: every suite workload
/// under ten paradigm/variant mixes (sequential baseline, HMTX base, the
/// hybrid `hytm` mode, lazy vs eager commit, SLAs on/off, and three VID
/// widths) — 8 × 10 = 80 jobs, every combination guaranteed runnable at
/// any scale.
#[must_use]
pub fn standard_sweep(scale: WireScale) -> Vec<JobSpec> {
    let mixes: [(WireParadigm, WireVariant); 10] = [
        (WireParadigm::Sequential, WireVariant::Base),
        (WireParadigm::Paper, WireVariant::Base),
        (WireParadigm::Hytm, WireVariant::Base),
        (WireParadigm::Paper, WireVariant::Commit { lazy: true }),
        (WireParadigm::Paper, WireVariant::Commit { lazy: false }),
        (WireParadigm::Paper, WireVariant::Sla { enabled: true }),
        (WireParadigm::Paper, WireVariant::Sla { enabled: false }),
        (WireParadigm::Paper, WireVariant::VidBits(4)),
        (WireParadigm::Paper, WireVariant::VidBits(6)),
        (WireParadigm::Paper, WireVariant::VidBits(8)),
    ];
    let workloads = suite(Scale::Quick).len() as u32;
    let mut specs = Vec::with_capacity(workloads as usize * mixes.len());
    for w in 0..workloads {
        for (paradigm, variant) in mixes {
            specs.push(JobSpec {
                benchmark: BenchRef::Suite(w),
                paradigm,
                scale,
                base: WireBase::Test,
                variant,
                fault: None,
            });
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmtx_types::FaultSpec;

    fn quick_spec(index: u32, paradigm: WireParadigm) -> JobSpec {
        JobSpec::new(
            BenchRef::Suite(index),
            paradigm,
            WireScale::Quick,
            WireBase::Test,
        )
    }

    #[test]
    fn reports_are_deterministic_and_wall_clock_free() {
        let spec = quick_spec(7, WireParadigm::Paper);
        let a = run_job_report(&spec).unwrap().compact();
        let b = run_job_report(&spec).unwrap().compact();
        assert_eq!(a, b, "same spec must render byte-identical reports");
        assert!(!a.contains("wall_seconds"), "{a}");
        assert!(a.contains(&format!("\"key\":\"{}\"", spec.key())), "{a}");
    }

    #[test]
    fn run_job_matches_the_harness_pipeline() {
        let spec = quick_spec(7, WireParadigm::Paper);
        let via_spec = run_job(&spec).unwrap();
        let (job, base) = materialize(&spec);
        let direct = job.run(&base).unwrap();
        assert_eq!(via_spec.cycles, direct.cycles);
        assert_eq!(via_spec.recoveries, direct.recoveries);
    }

    #[test]
    fn faults_and_variants_reach_the_config() {
        let mut spec = quick_spec(0, WireParadigm::Paper);
        spec.variant = WireVariant::Sla { enabled: false };
        spec.fault = Some(FaultSpec {
            seed: 11,
            rate_ppm: 400,
        });
        let (job, base) = materialize(&spec);
        let f = base.faults.expect("fault spec must map to chaos config");
        assert_eq!((f.seed, f.rate_ppm), (11, 400));
        let cfg = job.config.apply(&base);
        assert!(!cfg.hmtx.sla_enabled);
        assert!(cfg.faults.is_some(), "faults survive the variant");
    }

    #[test]
    fn smtx_jobs_render_without_a_runtime_report() {
        let spec = quick_spec(2, WireParadigm::SmtxMin);
        let report = run_job_report(&spec).unwrap();
        assert_eq!(
            report.get("schema").and_then(Json::as_str),
            Some(REPORT_SCHEMA)
        );
        assert!(report.get("cycles").and_then(Json::as_u64).unwrap() > 0);
    }

    #[test]
    fn standard_sweep_is_80_distinct_runnable_specs() {
        let sweep = standard_sweep(WireScale::Quick);
        assert_eq!(sweep.len(), 80);
        let keys: std::collections::HashSet<String> = sweep.iter().map(JobSpec::key).collect();
        assert_eq!(keys.len(), 80, "sweep keys must be distinct");
        // The sweep carries a hytm column for every workload.
        let hytm = sweep
            .iter()
            .filter(|s| s.paradigm == WireParadigm::Hytm)
            .count();
        assert_eq!(hytm, 8, "one hytm job per suite workload");
        // Spot-check that an arbitrary sweep entry actually runs.
        run_job(&sweep[9]).unwrap();
    }

    #[test]
    fn hytm_jobs_render_the_path_mix() {
        let spec = quick_spec(7, WireParadigm::Hytm);
        let report = run_job_report(&spec).unwrap();
        let mix = report.get("hytm").expect("hytm block present");
        assert!(
            mix.get("fast_commits").and_then(Json::as_u64).is_some(),
            "{report:?}"
        );
        // Non-hytm paradigms render `hytm: null`.
        let paper = run_job_report(&quick_spec(7, WireParadigm::Paper)).unwrap();
        assert!(matches!(paper.get("hytm"), Some(Json::Null)));
    }
}
