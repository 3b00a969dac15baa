//! `hmtx-model`: exhaustive explicit-state verification of the MOESI+HMTX
//! transition relation on a bounded model.
//!
//! ```text
//! hmtx-model [--cores N] [--lines K] [--vid-bits V] [--kernel NAME]
//!            [--seed-bug NAME] [--no-symmetry] [--max-states N]
//!            [--seed-out FILE] [--json]
//! ```
//!
//! Exit codes: `0` clean (every reachable state satisfies every property),
//! `1` at least one violation (counterexamples printed, and lowered to a
//! replayable seed with `--seed-out`), `2` usage error.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

use hmtx_explore::{model_kernel, resolve_kernel, OpKernel};
use hmtx_modelcheck::{check_kernel, lower};
use hmtx_types::cli::{Args, UsageError};
use hmtx_types::{Diagnostic, Json, ModelCheckConfig, ModelCheckReport, SeedBug, Severity};

/// The most cores or lines a symmetry-reduced model may have.
const MAX_SYMMETRIC: usize = 10;

const USAGE: &str = "usage: hmtx-model [--cores N] [--lines K] [--vid-bits V] [--kernel NAME] \
    [--seed-bug NAME] [--no-symmetry] [--max-states N] [--seed-out FILE] [--json]";

struct Options {
    cfg: ModelCheckConfig,
    kernel: OpKernel,
    seed_out: Option<String>,
    json: bool,
}

fn parse_args(mut args: Args) -> Result<Options, UsageError> {
    let mut cfg = ModelCheckConfig::default();
    let mut kernel = None;
    let mut seed_out = None;
    let mut json = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cores" => cfg.cores = args.parse(&arg)?,
            "--lines" => cfg.lines = args.parse(&arg)?,
            "--vid-bits" => cfg.vid_bits = args.parse(&arg)?,
            "--max-states" => cfg.max_states = args.parse(&arg)?,
            "--seed-bug" => cfg.seed_bug = Some(args.parse_with(&arg, SeedBug::from_name)?),
            "--kernel" => kernel = Some(args.value(&arg)?),
            "--seed-out" => seed_out = Some(args.value(&arg)?),
            "--no-symmetry" => cfg.symmetry = false,
            "--json" => json = true,
            _ => return Err(UsageError::unknown(&arg)),
        }
    }
    if cfg.cores == 0 || cfg.lines == 0 || !(1..=12).contains(&cfg.vid_bits) {
        return Err(UsageError::new(
            "cores/lines must be nonzero and vid-bits in 1..=12",
        ));
    }
    // The symmetry reduction enumerates every core and every line
    // permutation up front: 11! of them would exhaust memory.
    if cfg.symmetry && cfg.cores.max(cfg.lines) > MAX_SYMMETRIC {
        return Err(UsageError::new(format!(
            "symmetry reduction supports at most {MAX_SYMMETRIC} cores and {MAX_SYMMETRIC} lines; \
             pass --no-symmetry for larger models"
        )));
    }
    let kernel = match kernel {
        None => model_kernel(&cfg),
        Some(name) => resolve_kernel(&name)
            .ok_or_else(|| UsageError::new(format!("unknown kernel `{name}`")))?,
    };
    Ok(Options {
        cfg,
        kernel,
        seed_out,
        json,
    })
}

/// The stable `&'static str` form of a rule for `Diagnostic` (whose rule
/// field is a static id by design).
fn static_rule(rule: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        "modVID <= highVID",
        "S-E implies modVID == 0",
        "at most one responding version hits per VID",
        "at most one writable non-speculative copy",
        "at most one S-M version per address",
        "at most one dirty non-speculative owner",
        "committed modVID never stays speculative",
        "no duplicate Exclusive after abort",
        "forwarded values serialize",
        "drain leaves no speculative lines",
        "panic",
        "sim-error",
    ];
    KNOWN
        .iter()
        .find(|&&k| k == rule)
        .copied()
        .unwrap_or("model-violation")
}

fn render_json(kernel: &OpKernel, report: &ModelCheckReport) -> String {
    let diagnostics: Vec<String> = report
        .violations
        .iter()
        .map(|v| {
            let core = v
                .order
                .last()
                .map(|&id| kernel.locate(id).1.core)
                .unwrap_or(0);
            Diagnostic {
                severity: Severity::Error,
                rule: static_rule(&v.rule),
                core,
                pc: v.depth,
                message: format!("{} (trace: {})", v.detail, v.trace.join("; ")),
            }
            .render_json()
        })
        .collect();
    format!(
        "{{\"kernel\":{},\"cores\":{},\"lines\":{},\"vid_bits\":{},\"symmetry\":{},\
         \"reachable\":{},\"transitions\":{},\"frontier_peak\":{},\"exhausted\":{},\
         \"diagnostics\":[{}]}}",
        Json::Str(kernel.name.to_string()).compact(),
        report.config.cores,
        report.config.lines,
        report.config.vid_bits,
        report.config.symmetry,
        report.reachable,
        report.transitions,
        report.frontier_peak,
        report.exhausted,
        diagnostics.join(",")
    )
}

fn main() -> ExitCode {
    let opts = parse_args(Args::from_env()).unwrap_or_else(|e| e.exit("hmtx-model", USAGE));
    let kernel = &opts.kernel;
    let report = check_kernel(kernel, &opts.cfg);

    if let (Some(path), Some(v)) = (&opts.seed_out, report.violations.first()) {
        let seed = lower(kernel, &opts.cfg, v);
        let mut text = seed.to_json().pretty();
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("hmtx-model: cannot write `{path}`: {e}");
            return ExitCode::from(2);
        }
        eprintln!("hmtx-model: counterexample seed written to {path}");
    }

    let text = if opts.json {
        render_json(kernel, &report)
    } else {
        report.to_string()
    };
    // A reader that closed stdout early (`| head -1`) ends the run quietly;
    // the verdict still sets the exit status.
    if let Err(e) = writeln!(std::io::stdout().lock(), "{text}") {
        if e.kind() != ErrorKind::BrokenPipe {
            eprintln!("hmtx-model: cannot write stdout: {e}");
            return ExitCode::from(2);
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
