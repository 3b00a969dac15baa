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

use std::path::PathBuf;
use std::process::ExitCode;

use hmtx_explore::{asm_kernels, mexplore, resolve_kernel, seed, shrink};
use hmtx_machine::ScheduleSeed;
use hmtx_types::{Json, SeedBug, SimError};
use hmtx_workloads::{suite, Scale};

#[derive(Debug)]
struct Opts {
    list: bool,
    kernels: Vec<String>,
    all_kernels: bool,
    workloads: Vec<String>,
    all_workloads: bool,
    paradigm: Option<hmtx_runtime::Paradigm>,
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

impl Default for Opts {
    fn default() -> Self {
        Opts {
            list: false,
            kernels: Vec::new(),
            all_kernels: false,
            workloads: Vec::new(),
            all_workloads: false,
            paradigm: None,
            preemptions: 3,
            bound: 100_000,
            jobs: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            json: false,
            no_reduce: false,
            seed_bug: None,
            shrink: false,
            corpus_dir: PathBuf::from("tests/corpus"),
            expect_failure: false,
            expect_exhausted: false,
            max_shrunk_len: None,
            budget: None,
        }
    }
}

const USAGE: &str = "usage: hmtx-explore [--list] [--kernel NAME]... [--all-kernels] \
    [--workload NAME]... [--all-workloads] [--paradigm P] [--preemptions N] \
    [--bound N] [--jobs N] [--json] [--no-reduce] [--seed-bug NAME] [--shrink] \
    [--corpus-dir DIR] [--expect-failure] [--expect-exhausted] \
    [--max-shrunk-len N] [--budget N]";

fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Opts, SimError> {
    let mut opts = Opts::default();
    let mut it = args.into_iter();
    let bad = |msg: String| SimError::BadProgram(msg);
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next()
            .ok_or_else(|| SimError::BadProgram(format!("{flag} needs a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => opts.list = true,
            "--kernel" => opts.kernels.push(need(&mut it, "--kernel")?),
            "--all-kernels" => opts.all_kernels = true,
            "--workload" => opts.workloads.push(need(&mut it, "--workload")?),
            "--all-workloads" => opts.all_workloads = true,
            "--paradigm" => {
                let v = need(&mut it, "--paradigm")?;
                opts.paradigm = Some(match v.as_str() {
                    "sequential" => hmtx_runtime::Paradigm::Sequential,
                    "doall" => hmtx_runtime::Paradigm::Doall,
                    "doacross" => hmtx_runtime::Paradigm::Doacross,
                    "dswp" => hmtx_runtime::Paradigm::Dswp,
                    "ps-dswp" | "psdswp" => hmtx_runtime::Paradigm::PsDswp,
                    _ => return Err(bad(format!("unknown paradigm `{v}`"))),
                });
            }
            "--preemptions" => {
                let v = need(&mut it, "--preemptions")?;
                opts.preemptions = v
                    .parse()
                    .map_err(|_| bad(format!("bad preemption bound `{v}`")))?;
            }
            "--bound" => {
                let v = need(&mut it, "--bound")?;
                opts.bound = v.parse().map_err(|_| bad(format!("bad bound `{v}`")))?;
            }
            "--jobs" => {
                let v = need(&mut it, "--jobs")?;
                opts.jobs = v.parse().map_err(|_| bad(format!("bad job count `{v}`")))?;
            }
            "--json" => opts.json = true,
            "--no-reduce" => opts.no_reduce = true,
            "--seed-bug" => {
                let v = need(&mut it, "--seed-bug")?;
                opts.seed_bug =
                    Some(SeedBug::from_name(&v).ok_or_else(|| bad(format!(
                        "unknown seed bug `{v}` (try `stale-migration-replica`)"
                    )))?);
            }
            "--shrink" => opts.shrink = true,
            "--corpus-dir" => opts.corpus_dir = PathBuf::from(need(&mut it, "--corpus-dir")?),
            "--expect-failure" => opts.expect_failure = true,
            "--expect-exhausted" => opts.expect_exhausted = true,
            "--max-shrunk-len" => {
                let v = need(&mut it, "--max-shrunk-len")?;
                opts.max_shrunk_len =
                    Some(v.parse().map_err(|_| bad(format!("bad length `{v}`")))?);
            }
            "--budget" => {
                let v = need(&mut it, "--budget")?;
                opts.budget = Some(v.parse().map_err(|_| bad(format!("bad budget `{v}`")))?);
            }
            other => return Err(bad(format!("unknown argument `{other}`\n{USAGE}"))),
        }
    }
    Ok(opts)
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

fn corpus_stem(kernel: &str, seed_bug: Option<SeedBug>) -> String {
    match seed_bug {
        Some(bug) => format!("regression_{}", bug.name().replace('-', "_")),
        None => format!("regression_{kernel}"),
    }
}

fn explore_asm_kernel(
    opts: &Opts,
    kernel: &hmtx_explore::AsmKernel,
) -> Result<TargetResult, SimError> {
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
    let mut result = TargetResult {
        target: kernel.name.to_string(),
        mode: "machine",
        runs: report.runs,
        exhausted: report.exhausted,
        misspecs: report.misspecs,
        failures: report.failures.len(),
        first_failure: report.failures.first().map(|f| {
            format!("{} (picks {:?})", f.failure.as_ref().unwrap(), f.picks)
        }),
        shrunk: None,
    };
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
            let path = seed::write_seed(&opts.corpus_dir, &corpus_stem(kernel.name, opts.seed_bug), &stored)
                .map_err(|e| SimError::BadProgram(format!("writing corpus seed: {e}")))?;
            result.shrunk = Some((kept.len(), path));
        }
    }
    Ok(result)
}

fn explore_one_workload(opts: &Opts, name: &str) -> Result<TargetResult, SimError> {
    let workloads = suite(Scale::Quick);
    let w = workloads
        .iter()
        .find(|w| w.meta().name == name || w.meta().name.contains(name))
        .ok_or_else(|| {
            SimError::BadProgram(format!(
                "unknown workload `{name}` (valid: {})",
                workloads
                    .iter()
                    .map(|w| w.meta().name)
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })?;
    let paradigm = opts.paradigm.unwrap_or(w.meta().paradigm);
    let budget = opts.budget.unwrap_or(50_000_000);
    let report =
        mexplore::explore_workload(w.as_ref(), paradigm, opts.preemptions, opts.bound, budget)?;
    Ok(TargetResult {
        target: format!("{} [{}]", w.meta().name, paradigm.name()),
        mode: "workload",
        runs: report.runs,
        exhausted: report.exhausted,
        misspecs: report.misspecs,
        failures: report.failures.len(),
        first_failure: report.failures.first().map(|f| {
            format!("{} (picks {:?})", f.failure.as_ref().unwrap(), f.picks)
        }),
        shrunk: None,
    })
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
    let asm_ks = asm_kernels();
    let mut wanted: Vec<String> = opts.kernels.clone();
    if opts.all_kernels {
        wanted.extend(asm_ks.iter().map(|k| k.name.to_string()));
    }
    for name in &wanted {
        if let Some(k) = asm_ks.iter().find(|k| k.name == name) {
            results.push(explore_asm_kernel(opts, k)?);
        } else if resolve_kernel(name).is_some() {
            return Err(SimError::BadProgram(format!(
                "`{name}` is an op kernel; check it with `hmtx-model --kernel {name}`"
            )));
        } else {
            return Err(SimError::BadProgram(format!(
                "unknown kernel `{name}` (try --list)"
            )));
        }
    }
    let mut workload_names: Vec<String> = opts.workloads.clone();
    if opts.all_workloads {
        workload_names.extend(suite(Scale::Quick).iter().map(|w| w.meta().name.to_string()));
    }
    for name in &workload_names {
        results.push(explore_one_workload(opts, name)?);
    }
    Ok(results)
}

fn verdict(opts: &Opts, results: &[TargetResult]) -> Result<(), String> {
    if results.is_empty() && !opts.list {
        return Err(format!("nothing to explore\n{USAGE}"));
    }
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
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hmtx-explore: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.list {
        list();
        if opts.kernels.is_empty() && opts.workloads.is_empty() && !opts.all_kernels {
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
