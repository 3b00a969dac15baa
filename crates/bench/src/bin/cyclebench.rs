//! Committed-simulated-cycles/sec microbench over the standard 80-job sweep.
//!
//! Usage:
//!
//! ```text
//! cyclebench [--reps N] [--json PATH] [--baseline CPS] [--gate PATH] [--threshold R]
//! ```
//!
//! Runs the standard 80-job sweep ([`hmtx_bench::standard_sweep`], the same
//! job list `hmtx-load` submits) serially, sums the committed simulated
//! cycles of every job, and reports `cycles / wall_seconds` for the best of
//! `--reps` repetitions (default 3; best-of filters scheduler noise).
//!
//! It also sums two deterministic schedule counters over the sweep
//! (`MachineStats::steps` and `MachineStats::core_switches`): scheduling
//! decisions that advanced a core, and those that changed core. Like the
//! cycle total they are identical on every host and every rep.
//!
//! `--json PATH` writes the measurement (plus the optional `--baseline`
//! cycles/sec for speedup bookkeeping) as a `BENCH_pr6.json`-style report.
//!
//! `--gate PATH` is the tier-1 regression mode: re-measure, read the
//! baseline report at PATH, and exit nonzero if the fresh cycles/sec falls
//! below `--threshold` (default 0.8, i.e. a >20% regression) times the
//! recorded value. The simulated cycle *count* must also match the recorded
//! total exactly — the sweep is deterministic, so any drift means the
//! simulation changed, not just the machine speed.

use std::num::NonZeroUsize;
use std::time::Instant;

use hmtx_bench::{run_job, standard_sweep};
use hmtx_types::cli::{Args, UsageError};
use hmtx_types::{Json, WireScale};

const USAGE: &str = "usage: cyclebench [--reps N] [--json PATH] [--baseline CPS] \
    [--gate PATH] [--threshold RATIO]";

#[derive(Default)]
struct Opts {
    reps: usize,
    json_path: Option<String>,
    baseline: Option<f64>,
    gate_path: Option<String>,
    threshold: f64,
}

fn parse_args(mut args: Args) -> Result<Opts, UsageError> {
    let mut opts = Opts {
        reps: 3,
        threshold: 0.8,
        ..Opts::default()
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--reps" => opts.reps = args.parse::<NonZeroUsize>(&arg)?.get(),
            "--json" => opts.json_path = Some(args.value(&arg)?),
            "--baseline" => opts.baseline = Some(args.parse(&arg)?),
            "--gate" => opts.gate_path = Some(args.value(&arg)?),
            "--threshold" => {
                opts.threshold =
                    args.parse_with(&arg, |v| v.parse().ok().filter(|r| (0.0..=1.0).contains(r)))?;
            }
            _ => return Err(UsageError::unknown(&arg)),
        }
    }
    Ok(opts)
}

struct Measurement {
    jobs: usize,
    total_cycles: u64,
    /// Summed `MachineStats::{steps, core_switches}`.
    steps: u64,
    core_switches: u64,
    best_wall_seconds: f64,
    reps: usize,
}

impl Measurement {
    fn cycles_per_sec(&self) -> f64 {
        self.total_cycles as f64 / self.best_wall_seconds
    }
}

/// Runs the sweep `reps` times; every rep must commit the same total cycle
/// count (the sweep is deterministic), and the fastest rep is the score.
fn measure(reps: usize) -> Measurement {
    let sweep = standard_sweep(WireScale::Quick);
    let mut totals = (0u64, 0u64, 0u64);
    let mut best = f64::INFINITY;
    for rep in 0..reps {
        let started = Instant::now();
        let (mut cycles, mut steps, mut switches) = (0u64, 0u64, 0u64);
        for spec in &sweep {
            let result = run_job(spec).unwrap_or_else(|e| {
                eprintln!("cyclebench: job {} failed: {e:?}", spec.key());
                std::process::exit(1);
            });
            cycles += result.cycles;
            steps += result.machine.stats().steps;
            switches += result.machine.stats().core_switches;
        }
        let wall = started.elapsed().as_secs_f64();
        if rep == 0 {
            totals = (cycles, steps, switches);
        } else if (cycles, steps, switches) != totals {
            eprintln!(
                "cyclebench: nondeterministic sweep: rep {rep} committed {cycles} \
                 cycles in {steps} steps ({switches} core switches), rep 0 \
                 committed {} in {} ({})",
                totals.0, totals.1, totals.2
            );
            std::process::exit(1);
        }
        best = best.min(wall);
        eprintln!(
            "cyclebench: rep {rep}: {cycles} cycles in {wall:.3}s ({:.0} cycles/s)",
            cycles as f64 / wall
        );
    }
    Measurement {
        jobs: sweep.len(),
        total_cycles: totals.0,
        steps: totals.1,
        core_switches: totals.2,
        best_wall_seconds: best,
        reps,
    }
}

fn render(m: &Measurement, baseline_cps: Option<f64>) -> Json {
    let mut pairs = vec![
        ("schema", Json::Str("hmtx-cyclebench/1".into())),
        ("sweep", Json::Str("standard-80-job".into())),
        ("scale", Json::Str("quick".into())),
        ("jobs", Json::Uint(m.jobs as u64)),
        ("reps", Json::Uint(m.reps as u64)),
        ("total_committed_cycles", Json::Uint(m.total_cycles)),
        ("schedule_steps", Json::Uint(m.steps)),
        ("core_switches", Json::Uint(m.core_switches)),
        ("best_wall_seconds", Json::Num(m.best_wall_seconds)),
        ("cycles_per_sec", Json::Num(m.cycles_per_sec())),
    ];
    if let Some(base) = baseline_cps {
        pairs.push(("baseline_cycles_per_sec", Json::Num(base)));
        pairs.push((
            "speedup_over_baseline",
            Json::Num(m.cycles_per_sec() / base),
        ));
    }
    Json::obj(pairs)
}

fn gate(path: &str, threshold: f64, fresh: &Measurement) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cyclebench: reading {path}: {e}");
        std::process::exit(1);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("cyclebench: parsing {path}: {e}");
        std::process::exit(1);
    });
    let recorded_cycles = doc
        .get("total_committed_cycles")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| {
            eprintln!("cyclebench: {path} has no total_committed_cycles");
            std::process::exit(1);
        });
    let recorded_cps = doc
        .get("cycles_per_sec")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| {
            eprintln!("cyclebench: {path} has no cycles_per_sec");
            std::process::exit(1);
        });
    if fresh.total_cycles != recorded_cycles {
        eprintln!(
            "cyclebench: GATE FAIL: sweep committed {} cycles but {path} recorded {} \
             — the simulation itself changed; regenerate the baseline in this PR",
            fresh.total_cycles, recorded_cycles
        );
        std::process::exit(1);
    }
    let fresh_cps = fresh.cycles_per_sec();
    let floor = recorded_cps * threshold;
    if fresh_cps < floor {
        eprintln!(
            "cyclebench: GATE FAIL: {fresh_cps:.0} cycles/s is below {threshold:.2}x \
             the recorded {recorded_cps:.0} cycles/s (floor {floor:.0})"
        );
        std::process::exit(1);
    }
    eprintln!(
        "cyclebench: gate ok: {fresh_cps:.0} cycles/s >= {threshold:.2}x recorded \
         {recorded_cps:.0} cycles/s"
    );
    std::process::exit(0);
}

fn main() {
    let opts = parse_args(Args::from_env()).unwrap_or_else(|e| e.exit("cyclebench", USAGE));
    let m = measure(opts.reps);
    println!(
        "cyclebench: {} jobs, {} committed cycles, best {:.3}s, {:.0} cycles/s",
        m.jobs,
        m.total_cycles,
        m.best_wall_seconds,
        m.cycles_per_sec()
    );
    println!(
        "cyclebench: schedule: {} steps, {} core switches",
        m.steps, m.core_switches
    );

    if let Some(path) = &opts.json_path {
        let report = render(&m, opts.baseline);
        if let Err(e) = std::fs::write(path, report.pretty()) {
            eprintln!("cyclebench: writing {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = &opts.gate_path {
        gate(path, opts.threshold, &m);
    }
}
