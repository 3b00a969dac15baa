//! The two closed-loop simulation workloads.
//!
//! * `sim-sweep`: repeated serial passes of the 80-job `standard_sweep` at
//!   quick scale (the job list `cyclebench` runs) — commit-heavy, almost no
//!   aborts.
//! * `sim-chaos`: the 8 suite workloads under {paper, hytm, eager commit,
//!   4 VID bits}, each with a seeded fault plan — the abort, recovery and
//!   invariant-scan paths.
//!
//! One thread runs one job at a time, and a job's time is its median pass
//! in processor time, each pass scaled to the reference host by a
//! reference run right after it (`calib`). Every job's committed outputs are
//! checked against a reference computed during set-up: the workload's
//! Sequential run (sweep) or the same job without faults (chaos).

use std::time::Instant;

use hmtx_bench::runner::{JobParadigm, JobResult};
use hmtx_bench::{materialize, render_report, run_job, standard_sweep};
use hmtx_runtime::{build_paradigm, squeezed_config, LoopEnv, Paradigm, RecoveryRung};
use hmtx_types::{BenchRef, FaultSpec, JobSpec, WireBase, WireParadigm, WireScale, WireVariant};
use hmtx_workloads::{suite, Scale};

use crate::calib::Calibration;
use crate::stats::{median, Rng};
use crate::trace::Tracer;
use crate::{finish_trace, median_setup, peak_rss_mb, probe, thread_cpu_s, Args, Outcome};

/// Fault injection rate of `sim-chaos`: commits and aborts both occur.
pub const CHAOS_RATE_PPM: u32 = 500;

/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 15;

/// Deterministic counters of one pass (identical on every pass).
#[derive(Debug, Default, Clone, PartialEq)]
struct Counts {
    jobs: u64,
    cycles: u64,
    instructions: u64,
    wrong_path: u64,
    mispredictions: u64,
    loads: u64,
    stores: u64,
    spec_loads: u64,
    spec_stores: u64,
    peer_transfers: u64,
    commits: u64,
    aborts: u64,
    vid_resets: u64,
    slas_sent: u64,
    l1_hits: u64,
    l1_misses: u64,
    l2_hits: u64,
    mem_fills: u64,
    recoveries: u64,
    rung_parallel: u64,
    rung_serialized: u64,
    rung_nonspec: u64,
    fast_commits: u64,
    slow_commits: u64,
    demotions: u64,
    fast_retries: u64,
    backoff_cycles: u64,
}

impl Counts {
    fn add(&mut self, r: &JobResult) {
        let m = r.machine.stats();
        let mem = r.machine.mem().stats();
        self.jobs += 1;
        self.cycles += r.cycles;
        self.instructions += m.instructions;
        self.wrong_path += m.wrong_path_instructions;
        self.mispredictions += m.mispredictions;
        self.loads += mem.loads;
        self.stores += mem.stores;
        self.spec_loads += mem.spec_loads;
        self.spec_stores += mem.spec_stores;
        self.peer_transfers += mem.peer_transfers;
        self.commits += mem.commits;
        self.aborts += mem.aborts;
        self.vid_resets += mem.vid_resets;
        self.slas_sent += mem.slas_sent;
        self.l1_hits += mem.l1_hits;
        self.l1_misses += mem.l1_misses;
        self.l2_hits += mem.l2_hits;
        self.mem_fills += mem.mem_fills;
        self.recoveries += r.recoveries;
        if let Some(report) = &r.report {
            for rec in &report.recovery_log {
                match rec.rung {
                    RecoveryRung::Parallel => self.rung_parallel += 1,
                    RecoveryRung::SingleTx => self.rung_serialized += 1,
                    RecoveryRung::NonSpec => self.rung_nonspec += 1,
                    RecoveryRung::SoftwareSlowPath => {}
                }
            }
            if let Some(mix) = &report.hytm {
                self.fast_commits += mix.fast_commits;
                self.slow_commits += mix.slow_commits;
                self.demotions += mix.demotions();
                self.fast_retries += mix.fast_retries;
                self.backoff_cycles += mix.backoff_cycles;
            }
        }
    }
}

fn outputs(r: &JobResult) -> Vec<u64> {
    match &r.report {
        Some(report) => report.outputs.clone(),
        None => r.machine.committed_output().to_vec(),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Builds the job's thread programs once, as the runtime's first dispatch
/// does (traced runs only: it isolates the program-generation cost that
/// `run_job` pays inside).
fn build_once(spec: &JobSpec) {
    let (job, base) = materialize(spec);
    let BenchRef::Suite(index) = spec.benchmark else {
        return;
    };
    let workloads = suite(job.scale);
    let w = workloads[index as usize].as_ref();
    let paradigm = match job.paradigm {
        JobParadigm::Sequential => Paradigm::Sequential,
        JobParadigm::Explicit(p) => p,
        JobParadigm::Paper | JobParadigm::Hytm | JobParadigm::Smtx(_) => w.meta().paradigm,
    };
    let (cfg, max_vid) = squeezed_config(&job.config.apply(&base));
    let workers = match paradigm {
        Paradigm::Sequential | Paradigm::Dswp => 1,
        Paradigm::Doall | Paradigm::Doacross => cfg.num_cores,
        Paradigm::PsDswp => cfg.num_cores.saturating_sub(1).max(1),
    };
    let env = LoopEnv::new(max_vid, workers).with_pipeline_window(cfg.pipeline_window);
    let built = build_paradigm(paradigm, w, &env, 1);
    std::hint::black_box(built.is_ok());
}

/// Runs every spec once, checking its outputs against `refs`; pushes each
/// job's time in reference-host ms to `job_ms`.
fn pass(
    specs: &[JobSpec],
    refs: &[Vec<u64>],
    tracer: &mut Tracer,
    out: &mut Outcome,
    job_ms: &mut Vec<f64>,
    cal: &mut Calibration,
) -> Counts {
    let mut counts = Counts::default();
    for (i, spec) in specs.iter().enumerate() {
        let id = i as u64;
        tracer.begin("job", id);
        if tracer.enabled() {
            let (job, _) = materialize(spec);
            tracer.span("workloads.suite", id, || drop(suite(job.scale)));
            tracer.span("runtime.build", id, || build_once(spec));
        }
        let t = thread_cpu_s();
        let result = tracer.span("bench.run_job", id, || run_job(spec));
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                tracer.end();
                out.check(false, || format!("job {i} ({}): {e}", spec.key()));
                continue;
            }
        };
        let report = tracer.span("bench.render", id, || {
            render_report(spec, &result).compact()
        });
        let job_s = thread_cpu_s() - t;
        // Scaled by a reference run right after the job (untraced only:
        // the reference is not a span).
        let scale = if tracer.enabled() {
            1.0
        } else {
            cal.local_scale(1)
        };
        job_ms.push(job_s * scale * 1e3);
        tracer.span("check", id, || {
            let got = outputs(&result);
            out.check(got == refs[i] && !report.is_empty(), || {
                format!(
                    "job {i} ({}): outputs differ from the reference",
                    spec.key()
                )
            });
        });
        counts.add(&result);
        tracer.end();
    }
    counts
}

/// Runs `specs` again and again for about `--seconds` (at least `min`
/// passes), then reports the end-to-end or per-layer metrics. Every pass
/// must produce the same counters; the per-layer counts are one pass's.
fn measure(
    args: &Args,
    tracer: &mut Tracer,
    mut out: Outcome,
    specs: &[JobSpec],
    min: usize,
    refs: &[Vec<u64>],
    tail_q: f64,
) -> Outcome {
    let mut job_ms = Vec::new();
    let mut walls = Vec::new();
    let mut c = Counts::default();
    let mut cal = Calibration::default();

    // A traced run first times its first pass untraced, the baseline for
    // the tracing overhead.
    let mut baseline_wall = None;
    if tracer.enabled() {
        let t = Instant::now();
        pass(
            specs,
            refs,
            &mut Tracer::new(false),
            &mut out,
            &mut Vec::new(),
            &mut Calibration::default(),
        );
        baseline_wall = Some(t.elapsed().as_secs_f64());
    }

    let start = Instant::now();
    loop {
        let t = Instant::now();
        let counts = pass(specs, refs, tracer, &mut out, &mut job_ms, &mut cal);
        walls.push(t.elapsed().as_secs_f64());
        if walls.len() == 1 {
            c = counts;
        } else {
            out.check(c == counts, || {
                "a repeated pass produced different simulation counters".into()
            });
        }
        let elapsed = start.elapsed().as_secs_f64();
        if walls.len() >= min && elapsed + median(&walls) > args.seconds {
            break;
        }
    }
    let total_wall: f64 = walls.iter().sum();
    let n = specs.len();
    out.notes.push(format!(
        "{} passes of {n} jobs, {:.3} s median pass, {} jobs and {} simulated cycles counted",
        walls.len(),
        median(&walls),
        c.jobs,
        c.cycles
    ));
    let passes = walls.len() as f64;

    if !tracer.enabled() {
        // Each job's median pass.
        out.notes.push(cal.note());
        let job_ms: Vec<f64> = (0..n)
            .map(|j| {
                let passes: Vec<f64> = job_ms.iter().skip(j).step_by(n).copied().collect();
                median(&passes)
            })
            .collect();
        let pass_s = job_ms.iter().sum::<f64>() / 1e3;
        out.set("cpu_s", pass_s);
        out.set("sim_mips", c.instructions as f64 / pass_s / 1e6);
        let p50 = out.percentile(&job_ms, 0.5, "job time, median pass (ms)");
        let tail = out.percentile(&job_ms, tail_q, "job time, median pass (ms)");
        out.set("op_p50_ms", p50);
        out.set("op_tail_ms", tail);
        out.set("ops_per_s", c.jobs as f64 / pass_s);
        out.set("rss_mb", peak_rss_mb("self"));
        return out;
    }

    // Per-layer metrics.
    let traced_passes_wall = total_wall;
    let spans = tracer.summary();
    let per_pass = |name: &str| spans.get(name).map_or(0.0, |s| s.1) / passes;
    let run_job_s = per_pass("bench.run_job");
    let suite_s = per_pass("workloads.suite");
    let build_s = per_pass("runtime.build");
    out.set("workloads.suite_s", suite_s);
    out.set("runtime.build_s", build_s);
    out.set("runtime.dispatches", (c.jobs + c.recoveries) as f64);
    out.set("runtime.recoveries", c.recoveries as f64);
    out.set("runtime.rung_parallel", c.rung_parallel as f64);
    out.set("runtime.rung_serialized", c.rung_serialized as f64);
    out.set("runtime.rung_nonspec", c.rung_nonspec as f64);
    out.set("bench.run_job_s", run_job_s);
    // run_job rebuilds the suite and the thread programs inside; those
    // costs are timed separately above and taken out of its self time.
    out.set("bench.run_job_self_s", run_job_s - suite_s - build_s);
    out.set("bench.render_s", per_pass("bench.render"));
    out.set("machine.sim_cycles", c.cycles as f64);
    out.set("machine.instructions", c.instructions as f64);
    out.set("machine.wrong_path_instructions", c.wrong_path as f64);
    out.set("machine.mispredictions", c.mispredictions as f64);
    out.set(
        "machine.useful_ratio",
        ratio(c.instructions, c.instructions + c.wrong_path),
    );
    out.set(
        "machine.host_ns_per_instr",
        run_job_s * 1e9 / c.instructions.max(1) as f64,
    );
    out.set("core.loads", c.loads as f64);
    out.set("core.stores", c.stores as f64);
    out.set("core.spec_loads", c.spec_loads as f64);
    out.set("core.spec_stores", c.spec_stores as f64);
    out.set("core.peer_transfers", c.peer_transfers as f64);
    out.set("core.commits", c.commits as f64);
    out.set("core.aborts", c.aborts as f64);
    out.set("core.vid_resets", c.vid_resets as f64);
    out.set("core.slas_sent", c.slas_sent as f64);
    out.set("core.commit_ratio", ratio(c.commits, c.commits + c.aborts));
    out.set(
        "core.host_ns_per_access",
        run_job_s * 1e9 / (c.loads + c.stores).max(1) as f64,
    );
    out.set("mem.l1_hits", c.l1_hits as f64);
    out.set("mem.l1_misses", c.l1_misses as f64);
    out.set("mem.l2_hits", c.l2_hits as f64);
    out.set("mem.mem_fills", c.mem_fills as f64);
    out.set(
        "mem.l1_hit_ratio",
        ratio(c.l1_hits, c.l1_hits + c.l1_misses),
    );
    out.set("smtx.fast_commits", c.fast_commits as f64);
    out.set("smtx.slow_commits", c.slow_commits as f64);
    out.set("smtx.demotions", c.demotions as f64);
    out.set("smtx.fast_retries", c.fast_retries as f64);
    out.set("smtx.backoff_cycles", c.backoff_cycles as f64);
    out.set(
        "smtx.fast_path_ratio",
        ratio(c.fast_commits, c.fast_commits + c.slow_commits),
    );

    // The protocol probe replays the pass's access mix through the memory
    // system alone.
    let t = Instant::now();
    let mix = probe::Mix {
        loads: c.loads,
        stores: c.stores,
        spec_loads: c.spec_loads,
        spec_stores: c.spec_stores,
        commits: c.commits,
        aborts: c.aborts,
    };
    let (_, base) = materialize(&specs[0]);
    probe::run(args.seed, &base, &mix, tracer, &mut out);
    let probe_wall = t.elapsed().as_secs_f64();

    let overhead = walls[0] - baseline_wall.unwrap_or(0.0);
    finish_trace(&mut out, tracer, traced_passes_wall + probe_wall, overhead);
    out
}

/// The 80-job sweep at quick scale, in its fixed order.
fn sweep_specs() -> Vec<JobSpec> {
    standard_sweep(WireScale::Quick)
}

/// The reported tail of the sweep's 80 job times: the highest percentile
/// with at least ten jobs beyond it.
const SWEEP_TAIL_Q: f64 = 0.85;

pub fn sweep(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    // Set-up: the job list and each workload's Sequential reference.
    let ((specs, refs), setup_s) =
        median_setup(SETUP_REPS, Some(&mut Calibration::default()), || {
            let specs = sweep_specs();
            let workloads = suite(Scale::Quick).len() as u32;
            let seq: Vec<Result<Vec<u64>, String>> = (0..workloads)
                .map(|w| {
                    let spec = JobSpec::new(
                        BenchRef::Suite(w),
                        WireParadigm::Sequential,
                        WireScale::Quick,
                        WireBase::Test,
                    );
                    run_job(&spec)
                        .map(|r| outputs(&r))
                        .map_err(|e| e.to_string())
                })
                .collect();
            (specs, seq)
        });
    let seq: Vec<Vec<u64>> = refs.into_iter().collect::<Result<_, _>>()?;
    let refs: Vec<Vec<u64>> = specs
        .iter()
        .map(|s| match s.benchmark {
            BenchRef::Suite(w) => seq[w as usize].clone(),
            _ => Vec::new(),
        })
        .collect();
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);
    Ok(measure(args, tracer, out, &specs, 3, &refs, SWEEP_TAIL_Q))
}

/// Batches in the chaos job list: 512 jobs, each with its own fault plan.
const CHAOS_BATCHES: usize = 16;

/// The reported tail of the chaos list's 512 job times (51 jobs beyond
/// it): which jobs are slowest depends on the seeded fault plans, and the
/// p95 moved with them from seed to seed.
const CHAOS_TAIL_Q: f64 = 0.9;

/// One chaos batch: every suite workload under four mixes, each job with a
/// fault plan drawn from `rng`.
fn chaos_batch(rng: &mut Rng) -> Vec<JobSpec> {
    let mixes = [
        (WireParadigm::Paper, WireVariant::Base),
        (WireParadigm::Hytm, WireVariant::Base),
        (WireParadigm::Paper, WireVariant::Commit { lazy: false }),
        (WireParadigm::Paper, WireVariant::VidBits(4)),
    ];
    let workloads = suite(Scale::Quick).len() as u32;
    let mut specs = Vec::new();
    for w in 0..workloads {
        for (paradigm, variant) in mixes {
            specs.push(JobSpec {
                benchmark: BenchRef::Suite(w),
                paradigm,
                scale: WireScale::Quick,
                base: WireBase::Test,
                variant,
                fault: Some(FaultSpec {
                    seed: rng.next_u64(),
                    rate_ppm: CHAOS_RATE_PPM,
                }),
            });
        }
    }
    specs
}

pub fn chaos(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    // Set-up: the seeded job list (every job with its own fault plan, so a
    // run averages over many plans) and each mix's fault-free reference.
    let ((specs, refs), setup_s) =
        median_setup(SETUP_REPS, Some(&mut Calibration::default()), || {
            let mut rng = Rng::stream(args.seed, 0xC4A05);
            let specs: Vec<JobSpec> = (0..CHAOS_BATCHES)
                .flat_map(|_| chaos_batch(&mut rng))
                .collect();
            let refs: Vec<Result<Vec<u64>, String>> = specs[..specs.len() / CHAOS_BATCHES]
                .iter()
                .map(|s| {
                    let clean = JobSpec { fault: None, ..*s };
                    run_job(&clean)
                        .map(|r| outputs(&r))
                        .map_err(|e| e.to_string())
                })
                .collect();
            (specs, refs)
        });
    let refs: Vec<Vec<u64>> = refs.into_iter().collect::<Result<_, _>>()?;
    // Every batch lists the same mixes in the same order.
    let refs: Vec<Vec<u64>> = (0..specs.len())
        .map(|i| refs[i % refs.len()].clone())
        .collect();
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);
    Ok(measure(args, tracer, out, &specs, 3, &refs, CHAOS_TAIL_Q))
}
