//! `hmtx-explore`: systematic schedule exploration with a serializability
//! oracle.
//!
//! Enumerates interleavings of small two-thread machine kernels under a
//! preemption bound, checks protocol invariants plus a sequential TM oracle
//! at every group commit, greedily shrinks failing schedules, and writes
//! them to the replayable corpus (`tests/corpus/`, replayed by
//! `hmtx-run --replay` and `tests/explore_corpus.rs`). Also drives bounded
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

use std::path::PathBuf;
use std::process::ExitCode;

use hmtx_explore::{asm_kernels, mexplore, resolve_kernel, seed, shrink, AsmKernel};
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
    jobs: usize,
    json: bool,
    no_reduce: bool,
    seed_bug: Option<SeedBug>,
    shrink: bool,
    corpus_dir: PathBuf,
    expect_failure: bool,
    expect_exhausted: bool,
    max_shrunk_len: Option<usize>,
    budget: Option<u64>,
}

const USAGE: &str = "usage: hmtx-explore [--list] [--kernel NAME]... [--all-kernels] \
    [--workload NAME]... [--all-workloads] [--paradigm P] [--preemptions N] \
    [--bound N] [--jobs N] [--json] [--no-reduce] [--seed-bug NAME] [--shrink] \
    [--corpus-dir DIR] [--expect-failure] [--expect-exhausted] \
    [--max-shrunk-len N] [--budget N]";

fn parse_args(mut args: Args) -> Result<Opts, UsageError> {
    let mut opts = Opts {
        preemptions: 3,
        bound: 100_000,
        jobs: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
        corpus_dir: PathBuf::from("tests/corpus"),
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
            "--jobs" => opts.jobs = args.parse(&arg)?,
            "--json" => opts.json = true,
            "--no-reduce" => opts.no_reduce = true,
            "--seed-bug" => opts.seed_bug = Some(args.parse_with(&arg, SeedBug::from_name)?),
            "--shrink" => opts.shrink = true,
            "--corpus-dir" => opts.corpus_dir = args.value(&arg)?.into(),
            "--expect-failure" => opts.expect_failure = true,
            "--expect-exhausted" => opts.expect_exhausted = true,
            "--max-shrunk-len" => opts.max_shrunk_len = Some(args.parse(&arg)?),
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

/// One explored target's result, normalized across the two modes.
struct TargetResult {
    target: String,
    mode: &'static str,
    runs: usize,
    exhausted: bool,
    misspecs: usize,
    failures: usize,
    first_failure: Option<String>,
    shrunk: Option<(usize, PathBuf)>,
}

impl TargetResult {
    fn new(target: String, mode: &'static str, report: &mexplore::MachineReport) -> Self {
        TargetResult {
            target,
            mode,
            runs: report.runs,
            exhausted: report.exhausted,
            misspecs: report.misspecs,
            failures: report.failures.len(),
            first_failure: report
                .failures
                .first()
                .map(|f| format!("{} (picks {:?})", f.failure.as_ref().unwrap(), f.picks)),
            shrunk: None,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("target", Json::Str(self.target.clone())),
            ("mode", Json::Str(self.mode.to_string())),
            ("runs", Json::Uint(self.runs as u64)),
            ("exhausted", Json::Bool(self.exhausted)),
            ("misspecs", Json::Uint(self.misspecs as u64)),
            ("failures", Json::Uint(self.failures as u64)),
            (
                "first_failure",
                self.first_failure
                    .as_ref()
                    .map_or(Json::Null, |s| Json::Str(s.clone())),
            ),
            (
                "shrunk",
                self.shrunk.as_ref().map_or(Json::Null, |(len, path)| {
                    Json::obj(vec![
                        ("len", Json::Uint(*len as u64)),
                        ("seed", Json::Str(path.display().to_string())),
                    ])
                }),
            ),
        ])
    }
}

fn explore_asm_kernel(opts: &Opts, kernel: &AsmKernel) -> Result<TargetResult, SimError> {
    let budget = opts.budget.unwrap_or(50_000);
    let spec = mexplore::MachineSpec::from_kernel(kernel, budget, opts.seed_bug)?;
    let oracle = spec.oracle()?;
    let report = mexplore::explore_spec(
        &spec,
        Some(&oracle),
        opts.preemptions,
        !opts.no_reduce,
        opts.bound,
        opts.jobs,
    );
    let mut result = TargetResult::new(kernel.name.to_string(), "machine", &report);
    if opts.shrink {
        if let Some(first) = report.failures.first() {
            let kind = first.failure.as_ref().unwrap().kind;
            let (kept, _attempts) = shrink::shrink_items(&first.picks, |candidate| {
                let (o, _) = mexplore::run_one(&spec, candidate, Some(&oracle), !opts.no_reduce);
                o.failure.is_some_and(|f| f.kind == kind)
            });
            let stored = ScheduleSeed {
                kind: "machine".into(),
                name: kernel.name.to_string(),
                seed_bug: opts.seed_bug.map(|b| b.name().to_string()),
                picks: kept.clone(),
                order: Vec::new(),
                note: format!("pinned by hmtx-explore: {}", first.failure.as_ref().unwrap()),
            };
            let stem = seed::corpus_stem(kernel.name, opts.seed_bug);
            let path = seed::write_seed(&opts.corpus_dir, &stem, &stored)
                .map_err(|e| SimError::BadProgram(format!("writing corpus seed: {e}")))?;
            result.shrunk = Some((kept.len(), path));
        }
    }
    Ok(result)
}

fn explore_workload(opts: &Opts, index: usize) -> Result<TargetResult, SimError> {
    let workloads = suite(Scale::Quick);
    let w = &workloads[index];
    let paradigm = opts.paradigm.unwrap_or(w.meta().paradigm);
    let budget = opts.budget.unwrap_or(50_000_000);
    let report =
        mexplore::explore_workload(w.as_ref(), paradigm, opts.preemptions, opts.bound, budget)?;
    let target = format!("{} [{}]", w.meta().name, paradigm.name());
    Ok(TargetResult::new(target, "workload", &report))
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
    let kernels = opts.kernels.iter().map(|k| explore_asm_kernel(opts, k));
    let workloads = opts.workloads.iter().map(|&w| explore_workload(opts, w));
    kernels.chain(workloads).collect()
}

fn verdict(opts: &Opts, results: &[TargetResult]) -> Result<(), String> {
    let any_failure = results.iter().any(|r| r.failures > 0);
    let all_exhausted = results.iter().all(|r| r.exhausted);
    if opts.expect_failure && !any_failure {
        return Err("expected a failure, found none".into());
    }
    if !opts.expect_failure && any_failure {
        let r = results.iter().find(|r| r.failures > 0).unwrap();
        return Err(format!(
            "{}: {}",
            r.target,
            r.first_failure.as_deref().unwrap_or("failure")
        ));
    }
    if opts.expect_exhausted && !all_exhausted {
        return Err("expected exhaustive enumeration, hit the run cap".into());
    }
    if let Some(max) = opts.max_shrunk_len {
        for r in results {
            if let Some((len, _)) = &r.shrunk {
                if *len > max {
                    return Err(format!(
                        "{}: shrunk schedule has {len} elements, limit {max}",
                        r.target
                    ));
                }
            }
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
            println!(
                "{} ({}): {} runs{}, {} misspecs, {} failures",
                r.target,
                r.mode,
                r.runs,
                if r.exhausted { ", exhausted" } else { " (capped)" },
                r.misspecs,
                r.failures
            );
            if let Some(f) = &r.first_failure {
                println!("  first failure: {f}");
            }
            if let Some((len, path)) = &r.shrunk {
                println!("  shrunk to {len} elements -> {}", path.display());
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
