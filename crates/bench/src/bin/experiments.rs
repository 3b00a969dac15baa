//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! experiments [fig1|fig2|fig8|fig9|table1|table2|table3|ablations|extensions|all]
//!             [--quick] [--jobs N] [--json PATH] [--progress]
//!             [--faults SEED] [--fault-rate PPM]
//! ```
//!
//! `--quick` uses the small test-scale workloads and caches (for smoke
//! runs); the default is the standard benchmark scale on the paper's
//! Table 2 configuration. `--faults SEED` runs every simulation under the
//! deterministic chaos fault plan of that seed, injecting at `--fault-rate`
//! parts per million (default 200, at most 1,000,000).
//!
//! `--jobs N` runs each section's batch of simulations on `N` host threads
//! (one shared queue of pure simulation jobs). The printed output is
//! byte-identical for every `N`: sections run in order, and each computes
//! its rows from its batch in list order. Every section renders before
//! anything is printed, so a failed simulation exits 1 with nothing on
//! stdout. `--json PATH` additionally writes a machine-readable report
//! (every row, plus each simulation's content key and wall-clock);
//! `--progress` streams per-job status lines to stderr.
//!
//! ```text
//! experiments job SPEC.json
//! ```
//!
//! runs a single wire-format job spec (the same `hmtx_types::JobSpec` the
//! `hmtx-serve` server accepts; pass `-` to read it from stdin) through
//! `hmtx_bench::run_job` and prints the deterministic report to stdout —
//! byte-identical to what the server would cache and serve for that spec.

use std::num::NonZeroUsize;

use hmtx_bench::runner::SimPool;
use hmtx_bench::{report::build_report, Section};
use hmtx_types::cli::{positional, Args, UsageError};
use hmtx_types::{FaultSpec, JobSpec, Json, WireBase, WireScale};

const USAGE: &str = "usage: experiments \
    [fig1|fig2|fig8|fig9|table1|table2|table3|ablations|extensions|all] \
    [--quick] [--jobs N] [--json PATH] [--progress] [--faults SEED] [--fault-rate PPM]\n       \
    experiments job SPEC.json   (run one wire-format job spec; `-` = stdin)";

#[derive(Default)]
struct Opts {
    sections: Vec<Section>,
    quick: bool,
    progress: bool,
    jobs: usize,
    json_path: Option<String>,
    fault_seed: Option<u64>,
    fault_rate_ppm: u32,
}

fn parse_args(mut args: Args) -> Result<Opts, UsageError> {
    let mut opts = Opts {
        sections: Section::ALL.to_vec(),
        jobs: 1,
        fault_rate_ppm: 200,
        ..Opts::default()
    };
    let mut what: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--progress" => opts.progress = true,
            "--jobs" => opts.jobs = args.parse::<NonZeroUsize>(&arg)?.get(),
            "--faults" => opts.fault_seed = Some(args.parse(&arg)?),
            "--fault-rate" => opts.fault_rate_ppm = args.parse_with(&arg, FaultSpec::parse_rate)?,
            "--json" => opts.json_path = Some(args.value(&arg)?),
            _ => {
                if what.replace(positional(arg)?).is_some() {
                    return Err(UsageError::new("more than one section given"));
                }
            }
        }
    }
    if let Some(name) = what.filter(|w| w != "all") {
        let section = Section::from_name(&name)
            .ok_or_else(|| UsageError::new(format!("unknown section `{name}`")))?;
        opts.sections = vec![section];
    }
    Ok(opts)
}

/// `experiments job SPEC.json` — one spec through the shared
/// `hmtx_bench::run_job` path, report on stdout.
fn run_single_job(path: &str) -> ! {
    let text = if path == "-" {
        use std::io::Read;
        let mut buf = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
            eprintln!("experiments: reading stdin: {e}");
            std::process::exit(1);
        }
        buf
    } else {
        match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("experiments: reading {path}: {e}");
                std::process::exit(1);
            }
        }
    };
    let spec = Json::parse(&text)
        .map_err(|e| e.to_string())
        .and_then(|v| JobSpec::from_json(&v).map_err(|e| e.to_string()))
        .unwrap_or_else(|e| {
            eprintln!("experiments: bad job spec: {e}");
            std::process::exit(1);
        });
    match hmtx_bench::run_job_report(&spec) {
        Ok(report) => {
            println!("{}", report.compact());
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("experiments: job failed: {e:?}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("job") {
        let [path] = &args[1..] else {
            UsageError::new("job takes one SPEC.json path").exit("experiments", USAGE)
        };
        let path = positional(path.clone()).unwrap_or_else(|e| e.exit("experiments", USAGE));
        run_single_job(&path);
    }
    let opts = parse_args(Args::new(args)).unwrap_or_else(|e| e.exit("experiments", USAGE));
    let (scale, base) = if opts.quick {
        (WireScale::Quick, WireBase::Test)
    } else {
        (WireScale::Standard, WireBase::Paper)
    };
    let fault = opts.fault_seed.map(|seed| FaultSpec {
        seed,
        rate_ppm: opts.fault_rate_ppm,
    });
    if let Some(f) = fault {
        eprintln!(
            "experiments: chaos mode on (seed {}, rate {} ppm); \
             results measure degraded-mode performance, not the paper's numbers",
            f.seed, f.rate_ppm
        );
    }
    let mut pool = SimPool::new(scale, base, fault).with_threads(opts.jobs);
    if opts.progress {
        pool = pool.with_progress();
    }
    let fail = |e| -> ! {
        eprintln!("experiments: simulation failed: {e:?}");
        std::process::exit(1);
    };

    // Render every section before printing any, so a failed simulation
    // leaves stdout empty.
    let text: String = opts
        .sections
        .iter()
        .map(|s| s.render(&pool))
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| fail(e));
    print!("{text}");

    if let Some(path) = opts.json_path {
        let report = build_report(&pool, &opts.sections).unwrap_or_else(|e| fail(e));
        if let Err(e) = std::fs::write(&path, report.pretty()) {
            eprintln!("experiments: writing {path}: {e}");
            std::process::exit(1);
        }
    }
}
