//! Implementation of the `hmtx-verify` command-line tool: statically verify
//! assembled program sets, or every shipped workload emitter, with
//! `hmtx-analysis`.
//!
//! Two modes:
//!
//! * `hmtx-verify thread0.asm [thread1.asm ...]` — assemble the files (one
//!   per core, in order) and run the full rule set over them as one set.
//! * `hmtx-verify --all-workloads [--scale quick|standard|stress]` — emit
//!   all 8 benchmark workloads under every HMTX paradigm (plus the
//!   single-transaction recovery shape) and every SMTX read/write-set mode,
//!   and verify each generated set. This is the CI gate wired into
//!   `scripts/tier1.sh`: a diagnostic in freshly emitted code is always a
//!   bug, either in the emitter or in the analyzer.
//!
//! Exit status (via [`VcliReport::exit_code`]): 0 clean, 1 diagnostics
//! found; the binary maps usage and assembly errors to 2.

use hmtx_analysis::{verify_set, VerifyReport};
use hmtx_isa::{assemble, Program};
use hmtx_runtime::{
    build_paradigm, emit, hytm_env, loop_env, verify_generated, GeneratedThreads, LoopEnv, Paradigm,
};
use hmtx_smtx::emit::build_smtx_pipeline;
use hmtx_smtx::RwSetMode;
use hmtx_types::cli::{Args, UsageError};
use hmtx_types::{MachineConfig, SimError, WireScale};
use hmtx_workloads::{suite, Scale};

use crate::cli::read_source;

/// Every paradigm `--all-workloads` emits, in report order.
const PARADIGMS: [Paradigm; 5] = [
    Paradigm::Sequential,
    Paradigm::Doall,
    Paradigm::Doacross,
    Paradigm::Dswp,
    Paradigm::PsDswp,
];

/// Parsed command-line options.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Assembly source text, one entry per core (core `i` = file `i`).
    pub programs: Vec<String>,
    /// Verify every workload emitter instead of assembly files.
    pub all_workloads: bool,
    /// Workload scale for `--all-workloads` (default quick).
    pub scale: Scale,
    /// Emit the report as JSON.
    pub json: bool,
    /// Also print the CFG-annotated disassembly of each verified program.
    pub disasm: bool,
}

/// Outcome of a verify run, pre-rendered for printing.
#[derive(Debug)]
pub struct VcliReport {
    /// Rendered output (text or JSON).
    pub output: String,
    /// Total diagnostics across all verified sets.
    pub diagnostics: usize,
    /// How many of them are errors.
    pub errors: usize,
}

impl VcliReport {
    /// Process exit code: 0 when clean, 1 when any diagnostic was reported.
    pub fn exit_code(&self) -> i32 {
        if self.diagnostics == 0 {
            0
        } else {
            1
        }
    }
}

/// The `hmtx-verify` usage lines.
pub const USAGE: &str = "usage: hmtx-verify [--json] [--disasm] thread0.asm \
    [thread1.asm ...]\n       hmtx-verify --all-workloads [--scale quick|standard|stress] \
    [--json]";

/// Parses the command line (everything after the program name) and reads
/// the assembly files it names.
///
/// # Errors
///
/// Returns a [`UsageError`] on malformed flags, unreadable files, or
/// missing or conflicting inputs.
pub fn parse_args(mut args: Args) -> Result<Options, UsageError> {
    let mut opts = Options::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--all-workloads" => opts.all_workloads = true,
            "--json" => opts.json = true,
            "--disasm" => opts.disasm = true,
            "--scale" => {
                opts.scale = args
                    .parse_with(&arg, |v| WireScale::from_name(v).ok())?
                    .into();
            }
            _ => opts.programs.push(read_source(arg)?),
        }
    }
    match (opts.programs.is_empty(), opts.all_workloads) {
        (true, false) => Err(UsageError::new("no assembly programs given")),
        (false, true) => Err(UsageError::new(
            "--all-workloads and assembly files are mutually exclusive",
        )),
        _ => Ok(opts),
    }
}

/// One verified set: a label plus its report (and the programs, for
/// `--disasm`).
struct SetResult {
    label: String,
    report: VerifyReport,
    programs: Vec<Program>,
}

impl SetResult {
    fn generated(label: String, generated: &GeneratedThreads) -> Self {
        SetResult {
            label,
            report: verify_generated(generated),
            programs: generated
                .threads
                .iter()
                .map(|t| (*t.program).clone())
                .collect(),
        }
    }
}

/// Runs the configured verification.
///
/// # Errors
///
/// Returns [`SimError`] on assembly failures; diagnostics are *not* errors
/// (they are the tool's output).
pub fn run(opts: &Options) -> Result<VcliReport, SimError> {
    let results = if opts.all_workloads {
        verify_all_workloads(opts.scale)?
    } else {
        let programs: Vec<Program> = opts
            .programs
            .iter()
            .map(|text| assemble(text))
            .collect::<Result<_, _>>()?;
        let refs: Vec<&Program> = programs.iter().collect();
        vec![SetResult {
            label: format!("{} program(s)", programs.len()),
            report: verify_set(&refs),
            programs,
        }]
    };

    let diagnostics: usize = results.iter().map(|r| r.report.diagnostics.len()).sum();
    let errors: usize = results.iter().map(|r| r.report.error_count()).sum();
    let output = if opts.json {
        render_json(&results)
    } else {
        render_text(&results, opts.disasm)
    };
    Ok(VcliReport {
        output,
        diagnostics,
        errors,
    })
}

/// Emits and verifies every shipped workload under every paradigm and SMTX
/// mode, with the environments `runtime::run_loop`, `runtime::run_hytm` and
/// `smtx::run_smtx` build from the paper-default machine configuration.
fn verify_all_workloads(scale: Scale) -> Result<Vec<SetResult>, SimError> {
    let cfg = MachineConfig::paper_default();
    let max_vid = cfg.hmtx.max_vid().0;
    let mut results = Vec::new();
    for workload in suite(scale) {
        let name = workload.meta().name;
        let body = workload.as_ref();
        for paradigm in PARADIGMS {
            let (_, env) = loop_env(paradigm, &cfg)?;
            let generated = build_paradigm(paradigm, body, &env, 1)?;
            let label = format!("{name}/{}", paradigm.name());
            results.push(SetResult::generated(label, &generated));
        }
        // The recovery ladder's single-transaction shape.
        {
            let env = LoopEnv::new(max_vid, 1).with_pipeline_window(cfg.pipeline_window);
            let generated = emit::build_single_tx(body, &env, 1)?;
            let label = format!("{name}/single-tx");
            results.push(SetResult::generated(label, &generated));
        }
        // The HyTM fast path: the workload's own paradigm emitted with the
        // VID-exhaustion watchdog armed, in the environment `run_hytm` runs
        // it in (the watchdog's sentinel-abort escape is the idiom the
        // analyzer's `mtx` pass resolves via constant propagation).
        {
            let paradigm = workload.meta().paradigm;
            let (_, env) = hytm_env(paradigm, &cfg)?;
            let generated = build_paradigm(paradigm, body, &env, 1)?;
            let label = format!("{name}/hytm-{}", paradigm.name());
            results.push(SetResult::generated(label, &generated));
        }
        for mode in [
            RwSetMode::Minimal,
            RwSetMode::Substantial,
            RwSetMode::Maximal,
        ] {
            let workers = cfg.num_cores.saturating_sub(2).max(1);
            let env = LoopEnv::new(max_vid, workers);
            let generated = build_smtx_pipeline(body, &env, &cfg.smtx, mode)?;
            let label = format!("{name}/smtx-{}", mode.name());
            results.push(SetResult::generated(label, &generated));
        }
    }
    Ok(results)
}

fn render_text(results: &[SetResult], disasm: bool) -> String {
    let mut out = String::new();
    for r in results {
        if r.report.is_clean() {
            out.push_str(&format!("OK   {}\n", r.label));
        } else {
            out.push_str(&format!(
                "FAIL {} ({} error(s), {} warning(s))\n",
                r.label,
                r.report.error_count(),
                r.report.warning_count()
            ));
            for line in r.report.render_text().lines() {
                out.push_str(&format!("     {line}\n"));
            }
        }
        if disasm {
            for (core, p) in r.programs.iter().enumerate() {
                out.push_str(&format!("--- {} core {core} ---\n", r.label));
                out.push_str(&r.report.annotated_disassembly(core, p));
            }
        }
    }
    let total: usize = results.iter().map(|r| r.report.diagnostics.len()).sum();
    out.push_str(&format!(
        "{} set(s) verified, {} diagnostic(s)\n",
        results.len(),
        total
    ));
    out
}

fn render_json(results: &[SetResult]) -> String {
    let body: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{\"set\":\"{}\",\"report\":{}}}",
                r.label,
                r.report.render_json()
            )
        })
        .collect();
    format!("{{\"sets\":[{}]}}\n", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_args_wants_input() {
        let err = |args: &[&str]| {
            parse_args(Args::new(args.to_vec()))
                .unwrap_err()
                .to_string()
        };
        assert_eq!(err(&[]), "no assembly programs given");
        assert_eq!(err(&["--scale"]), "--scale needs a value");
        assert_eq!(
            err(&["--scale", "huge"]),
            "invalid value `huge` for --scale"
        );
        assert_eq!(err(&["--all-wrkloads"]), "unknown flag `--all-wrkloads`");
        let args = Args::new(["--all-workloads", "--scale", "standard", "--json"]);
        let opts = parse_args(args).unwrap();
        assert!(opts.all_workloads);
        assert!(opts.json);
        assert_eq!(opts.scale, Scale::Standard);
    }

    #[test]
    fn clean_program_set_exits_zero() {
        let opts = Options {
            programs: vec![
                "li r1, 1\nproduce q0, r1\nhalt".to_string(),
                "consume r2, q0\nout r2\nhalt".to_string(),
            ],
            ..Options::default()
        };
        let report = run(&opts).unwrap();
        assert_eq!(report.exit_code(), 0, "{}", report.output);
        assert!(report.output.contains("OK"), "{}", report.output);
    }

    #[test]
    fn broken_program_exits_one_with_rule_in_output() {
        let opts = Options {
            programs: vec!["li r1, 1\nbeginMTX r1\nhalt".to_string()],
            ..Options::default()
        };
        let report = run(&opts).unwrap();
        assert_eq!(report.exit_code(), 1);
        assert!(report.errors >= 1);
        assert!(
            report.output.contains("mtx-halt-speculative"),
            "{}",
            report.output
        );
    }

    #[test]
    fn json_mode_renders_machine_readable_report() {
        let opts = Options {
            programs: vec!["li r1, 1\nbeginMTX r1\nhalt".to_string()],
            json: true,
            ..Options::default()
        };
        let report = run(&opts).unwrap();
        assert!(
            report.output.starts_with("{\"sets\":["),
            "{}",
            report.output
        );
        assert!(
            report.output.contains("\"rule\":\"mtx-halt-speculative\""),
            "{}",
            report.output
        );
    }

    #[test]
    fn disasm_mode_annotates_blocks() {
        let opts = Options {
            programs: vec!["li r1, 1\nhalt".to_string()],
            disasm: true,
            ..Options::default()
        };
        let report = run(&opts).unwrap();
        assert!(report.output.contains("; B0"), "{}", report.output);
    }
}
