//! `hmtx-explore`: systematic schedule exploration with a serializability
//! oracle.
//!
//! Enumerates interleavings of small two-thread machine kernels breadth-first
//! under a preemption bound and checks protocol invariants plus a sequential
//! TM oracle at every group commit. With `--corpus-dir DIR`, the first
//! failing kernel schedule (found at its fewest divergences) is pinned into
//! `DIR` as a seed that `hmtx-run --replay` replays. Also drives bounded
//! exploration of the 8 benchmark workloads' generated parallel code
//! (invariants + termination + sequential-output reference). Op kernels
//! are checked exhaustively by `hmtx-model --kernel NAME` instead.
//!
//! ```text
//! hmtx-explore --list
//! hmtx-explore --all-kernels --preemptions 3 --expect-exhausted
//! hmtx-explore --kernel race_detect --preemptions 4 --no-reduce
//! hmtx-explore --workload 052.alvinn --bound 8 --json
//! ```
//!
//! Workloads are named as in the suite, by any unambiguous substring, or
//! as `suite:N`. Exits 0 when every target explores clean (or as the
//! `--expect-*` flags demand), 1 on a failure or an unmet expectation,
//! and 2 on a usage error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hmtx_explore::mexplore::{explore, MachineOutcome, MachineReport, MachineSpec};
use hmtx_explore::{asm_kernels, resolve_kernel, seed, AsmKernel};
use hmtx_machine::ScheduleSeed;
use hmtx_runtime::Paradigm;
use hmtx_types::cli::{Args, UsageError};
use hmtx_types::{Json, SeedBug, SimError};
use hmtx_workloads::{paper_table1, resolve_workload, suite, Scale};

#[derive(Default)]
struct Opts {
    list: bool,
    kernels: Vec<AsmKernel>,
    /// Suite indices.
    workloads: Vec<usize>,
    paradigm: Option<Paradigm>,
    preemptions: u32,
    bound: usize,
    json: bool,
    no_reduce: bool,
    seed_bug: Option<SeedBug>,
    corpus_dir: Option<PathBuf>,
    expect_failure: bool,
    expect_exhausted: bool,
    budget: Option<u64>,
}

const USAGE: &str = "usage: hmtx-explore [--list] [--kernel NAME]... [--all-kernels] \
    [--workload NAME]... [--all-workloads] [--paradigm P] [--preemptions N] \
    [--bound N] [--json] [--no-reduce] [--seed-bug NAME] [--corpus-dir DIR] \
    [--expect-failure] [--expect-exhausted] [--budget N]";

fn parse_args(mut args: Args) -> Result<Opts, UsageError> {
    let mut opts = Opts {
        preemptions: 3,
        bound: 100_000,
        ..Opts::default()
    };
    let (mut all_kernels, mut all_workloads) = (false, false);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => opts.list = true,
            "--kernel" => opts.kernels.push(machine_kernel(&args.value(&arg)?)?),
            "--all-kernels" => all_kernels = true,
            "--workload" => opts.workloads.push(resolve_workload(&args.value(&arg)?)?),
            "--all-workloads" => all_workloads = true,
            "--paradigm" => opts.paradigm = Some(args.parse_with(&arg, Paradigm::from_name)?),
            "--preemptions" => opts.preemptions = args.parse(&arg)?,
            "--bound" => opts.bound = args.parse(&arg)?,
            "--json" => opts.json = true,
            "--no-reduce" => opts.no_reduce = true,
            "--seed-bug" => opts.seed_bug = Some(args.parse_with(&arg, SeedBug::from_name)?),
            "--corpus-dir" => opts.corpus_dir = Some(args.value(&arg)?.into()),
            "--expect-failure" => opts.expect_failure = true,
            "--expect-exhausted" => opts.expect_exhausted = true,
            "--budget" => opts.budget = Some(args.parse(&arg)?),
            _ => return Err(UsageError::unknown(&arg)),
        }
    }
    if all_kernels {
        opts.kernels.extend(asm_kernels());
    }
    if all_workloads {
        opts.workloads.extend(0..paper_table1().len());
    }
    if !opts.list && opts.kernels.is_empty() && opts.workloads.is_empty() {
        return Err(UsageError::new("nothing to explore"));
    }
    Ok(opts)
}

/// The machine kernel called `name`; op kernels belong to `hmtx-model`.
fn machine_kernel(name: &str) -> Result<AsmKernel, UsageError> {
    if let Some(k) = asm_kernels().into_iter().find(|k| k.name == name) {
        return Ok(k);
    }
    Err(UsageError::new(if resolve_kernel(name).is_some() {
        format!("`{name}` is an op kernel; check it with `hmtx-model --kernel {name}`")
    } else {
        format!("unknown kernel `{name}` (try --list)")
    }))
}

/// One exploration target: a built spec, its display name, and its mode
/// (`"machine"` kernels can be pinned as corpus seeds, workloads cannot).
struct Target {
    name: String,
    mode: &'static str,
    spec: MachineSpec,
}

/// One explored target's result.
struct TargetResult {
    target: String,
    mode: &'static str,
    report: MachineReport,
    pinned: Option<PathBuf>,
}

impl TargetResult {
    fn first_failure(&self) -> Option<String> {
        let first = self.report.failures.first()?;
        Some(format!(
            "{} (picks {:?})",
            first.failure.as_ref()?,
            first.picks
        ))
    }

    fn to_json(&self) -> Json {
        let opt_str = |s: Option<String>| s.map_or(Json::Null, Json::Str);
        Json::obj(vec![
            ("target", Json::Str(self.target.clone())),
            ("mode", Json::Str(self.mode.to_string())),
            ("runs", Json::Uint(self.report.runs as u64)),
            ("exhausted", Json::Bool(self.report.exhausted)),
            ("truncated", Json::Bool(self.report.truncated)),
            ("misspecs", Json::Uint(self.report.misspecs as u64)),
            ("failures", Json::Uint(self.report.failures.len() as u64)),
            ("first_failure", opt_str(self.first_failure())),
            (
                "pinned",
                opt_str(self.pinned.as_ref().map(|p| p.display().to_string())),
            ),
        ])
    }
}

/// Builds every requested target, so that a target that cannot be built
/// is an error before any schedule runs.
fn targets(opts: &Opts) -> Result<Vec<Target>, SimError> {
    let mut out = Vec::new();
    for kernel in &opts.kernels {
        out.push(Target {
            name: kernel.name.to_string(),
            mode: "machine",
            spec: MachineSpec::from_kernel(kernel, opts.budget.unwrap_or(50_000), opts.seed_bug)?,
        });
    }
    let workloads = suite(Scale::Quick);
    for &index in &opts.workloads {
        let w = &workloads[index];
        let paradigm = opts.paradigm.unwrap_or(w.meta().paradigm);
        let budget = opts.budget.unwrap_or(50_000_000);
        out.push(Target {
            name: format!("{} [{}]", w.meta().name, paradigm.name()),
            mode: "workload",
            spec: MachineSpec::from_workload(w.as_ref(), paradigm, budget, opts.seed_bug)?,
        });
    }
    Ok(out)
}

/// Pins `failing`, a schedule of kernel `name`, into `dir`.
fn pin(opts: &Opts, dir: &Path, name: &str, failing: &MachineOutcome) -> Result<PathBuf, SimError> {
    let stored = ScheduleSeed {
        kind: "machine".into(),
        name: name.to_string(),
        seed_bug: opts.seed_bug.map(|b| b.name().to_string()),
        picks: failing.picks.clone(),
        order: Vec::new(),
        note: format!(
            "pinned by hmtx-explore: {}",
            failing
                .failure
                .as_ref()
                .expect("a failing outcome carries its failure")
        ),
    };
    seed::write_seed(dir, &seed::corpus_stem(name, opts.seed_bug), &stored)
        .map_err(|e| SimError::BadProgram(format!("writing corpus seed: {e}")))
}

fn list() {
    println!("machine kernels:");
    for k in asm_kernels() {
        println!("  {} ({} threads)", k.name, k.threads.len());
    }
    println!("workloads (quick scale):");
    for w in suite(Scale::Quick) {
        println!("  {} [{}]", w.meta().name, w.meta().paradigm.name());
    }
}

fn run(opts: &Opts) -> Result<Vec<TargetResult>, SimError> {
    let mut results = Vec::new();
    for t in targets(opts)? {
        let report = explore(
            &t.spec,
            opts.preemptions,
            !opts.no_reduce,
            opts.bound,
            |_| {},
        );
        let pinned = match (&opts.corpus_dir, report.failures.first()) {
            (Some(dir), Some(first)) if t.mode == "machine" => {
                Some(pin(opts, dir, &t.spec.name, first)?)
            }
            _ => None,
        };
        results.push(TargetResult {
            target: t.name,
            mode: t.mode,
            report,
            pinned,
        });
    }
    Ok(results)
}

fn verdict(opts: &Opts, results: &[TargetResult]) -> Result<(), String> {
    let failing = results.iter().find(|r| !r.report.failures.is_empty());
    match failing {
        None if opts.expect_failure => return Err("expected a failure, found none".into()),
        Some(r) if !opts.expect_failure => {
            return Err(format!(
                "{}: {}",
                r.target,
                r.first_failure().as_deref().unwrap_or("failure")
            ))
        }
        _ => {}
    }
    if let Some(r) = results.iter().find(|r| !r.report.exhausted) {
        if opts.expect_exhausted {
            let why = if r.report.truncated {
                "a run dropped branch points"
            } else {
                "hit the run cap"
            };
            return Err(format!("expected exhaustive enumeration, {why}"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = parse_args(Args::from_env()).unwrap_or_else(|e| e.exit("hmtx-explore", USAGE));
    if opts.list {
        list();
        if opts.kernels.is_empty() && opts.workloads.is_empty() {
            return ExitCode::SUCCESS;
        }
    }
    let results = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hmtx-explore: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.json {
        let doc = Json::obj(vec![(
            "targets",
            Json::Arr(results.iter().map(TargetResult::to_json).collect()),
        )]);
        println!("{}", doc.pretty());
    } else {
        for r in &results {
            let capped = !r.report.exhausted && r.report.runs >= opts.bound;
            let truncated = " (truncated: a run offered more branch points than it records)";
            let status: String = [
                (r.report.exhausted, ", exhausted"),
                (capped, " (capped)"),
                (r.report.truncated, truncated),
            ]
            .iter()
            .filter_map(|&(on, text)| on.then_some(text))
            .collect();
            println!(
                "{} ({}): {} runs{status}, {} misspecs, {} failures",
                r.target,
                r.mode,
                r.report.runs,
                r.report.misspecs,
                r.report.failures.len()
            );
            if let Some(f) = r.first_failure() {
                println!("  first failure: {f}");
            }
            if let Some(path) = &r.pinned {
                println!("  pinned -> {}", path.display());
            }
        }
    }
    match verdict(&opts, &results) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("hmtx-explore: {msg}");
            ExitCode::FAILURE
        }
    }
}
