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

use std::process::ExitCode;

use hmtx_explore::{model_kernel, resolve_kernel, OpKernel};
use hmtx_modelcheck::{check_kernel, lower};
use hmtx_types::{Diagnostic, Json, ModelCheckConfig, ModelCheckReport, SeedBug, Severity};

/// The most cores or lines a symmetry-reduced model may have.
const MAX_SYMMETRIC: usize = 10;

struct Options {
    cfg: ModelCheckConfig,
    kernel: Option<String>,
    seed_out: Option<String>,
    json: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        cfg: ModelCheckConfig::default(),
        kernel: None,
        seed_out: None,
        json: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--cores" => {
                opts.cfg.cores = value("--cores")?
                    .parse()
                    .map_err(|_| "bad --cores".to_string())?;
            }
            "--lines" => {
                opts.cfg.lines = value("--lines")?
                    .parse()
                    .map_err(|_| "bad --lines".to_string())?;
            }
            "--vid-bits" => {
                opts.cfg.vid_bits = value("--vid-bits")?
                    .parse()
                    .map_err(|_| "bad --vid-bits".to_string())?;
            }
            "--max-states" => {
                opts.cfg.max_states = value("--max-states")?
                    .parse()
                    .map_err(|_| "bad --max-states".to_string())?;
            }
            "--seed-bug" => {
                let name = value("--seed-bug")?;
                opts.cfg.seed_bug =
                    Some(SeedBug::from_name(&name).ok_or(format!("unknown seed bug `{name}`"))?);
            }
            "--kernel" => opts.kernel = Some(value("--kernel")?),
            "--seed-out" => opts.seed_out = Some(value("--seed-out")?),
            "--no-symmetry" => opts.cfg.symmetry = false,
            "--json" => opts.json = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if opts.cfg.cores == 0 || opts.cfg.lines == 0 || !(1..=12).contains(&opts.cfg.vid_bits) {
        return Err("cores/lines must be nonzero and vid-bits in 1..=12".into());
    }
    // The symmetry reduction enumerates every core and every line
    // permutation up front: 11! of them would exhaust memory.
    if opts.cfg.symmetry && opts.cfg.cores.max(opts.cfg.lines) > MAX_SYMMETRIC {
        return Err(format!(
            "symmetry reduction supports at most {MAX_SYMMETRIC} cores and {MAX_SYMMETRIC} lines; \
             pass --no-symmetry for larger models"
        ));
    }
    Ok(opts)
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hmtx-model: {e}");
            eprintln!(
                "usage: hmtx-model [--cores N] [--lines K] [--vid-bits V] [--kernel NAME] \
                 [--seed-bug NAME] [--no-symmetry] [--max-states N] [--seed-out FILE] [--json]"
            );
            return ExitCode::from(2);
        }
    };
    let kernel = match &opts.kernel {
        None => model_kernel(&opts.cfg),
        Some(name) => match resolve_kernel(name) {
            Some(k) => k,
            None => {
                eprintln!("hmtx-model: unknown kernel `{name}`");
                return ExitCode::from(2);
            }
        },
    };
    let report = check_kernel(&kernel, &opts.cfg);

    if let (Some(path), Some(v)) = (&opts.seed_out, report.violations.first()) {
        let seed = lower(&kernel, &opts.cfg, v);
        let mut text = seed.to_json().pretty();
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("hmtx-model: cannot write `{path}`: {e}");
            return ExitCode::from(2);
        }
        eprintln!("hmtx-model: counterexample seed written to {path}");
    }

    if opts.json {
        println!("{}", render_json(&kernel, &report));
    } else {
        println!("{report}");
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
