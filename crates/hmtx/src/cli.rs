//! Implementation of the `hmtx-run` command-line tool: assemble one guest
//! program per hardware thread and run them on the simulated HMTX machine.

use std::path::Path;
use std::sync::Arc;

use hmtx_isa::assemble;
use hmtx_machine::{
    Machine, MinClock, ReplayPolicy, RunEvent, SchedulePolicy, ScheduleSeed, ThreadContext,
};
use hmtx_types::cli::{positional, Args, UsageError};
use hmtx_types::{Addr, FaultConfig, FaultSpec, MachineConfig, SeedBug, SimError, ThreadId, Vid};

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Assembly source text, one entry per thread (thread `i` on core `i`).
    pub programs: Vec<String>,
    /// Core count (defaults to the number of programs, minimum 2).
    pub cores: Option<usize>,
    /// Initial memory words, `(addr, value)`.
    pub init: Vec<(u64, u64)>,
    /// Words to dump (committed view) after the run.
    pub dump: Vec<u64>,
    /// Protocol trace capacity (0 = off).
    pub trace: usize,
    /// Instruction budget.
    pub budget: u64,
    /// Use the small test configuration instead of Table 2's.
    pub quick: bool,
    /// Deterministic fault-injection seed (`None` = no injection).
    pub fault_seed: Option<u64>,
    /// Fault probability per decision point, in parts per million.
    pub fault_rate_ppm: u32,
    /// Path to a `ScheduleSeed` JSON file (`hmtx-explore` corpus format):
    /// the run replays that schedule instead of min-clock.
    pub replay: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            programs: Vec::new(),
            cores: None,
            init: Vec::new(),
            dump: Vec::new(),
            trace: 0,
            budget: 100_000_000,
            quick: false,
            fault_seed: None,
            fault_rate_ppm: 200,
            replay: None,
        }
    }
}

/// Result of a CLI run, pre-rendered for printing.
#[derive(Debug)]
pub struct CliReport {
    /// How the run ended.
    pub outcome: String,
    /// Completion cycle.
    pub cycles: u64,
    /// Committed program output (`out` instructions).
    pub outputs: Vec<u64>,
    /// `(addr, committed value)` for each requested dump.
    pub dumps: Vec<(u64, u64)>,
    /// Rendered statistics block.
    pub stats: String,
    /// Rendered protocol trace (empty if tracing off).
    pub trace: String,
}

/// The `hmtx-run` usage line (the `--remote` form is [`crate::remote::USAGE`]).
pub const USAGE: &str = "usage: hmtx-run [--cores N] [--trace N] [--budget N] [--quick] \
    [--faults SEED] [--fault-rate PPM] [--replay SEED.json] \
    [--mem addr=value]... [--dump addr]... thread0.asm [thread1.asm ...]";

/// Parses the command line (everything after the program name) and reads
/// the assembly files it names.
///
/// # Errors
///
/// Returns a [`UsageError`] on malformed flags, unreadable files, or a
/// command line with nothing to run.
pub fn parse_args(mut args: Args) -> Result<Options, UsageError> {
    let mut opts = Options::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cores" => opts.cores = Some(args.parse(&arg)?),
            "--trace" => opts.trace = args.parse(&arg)?,
            "--budget" => opts.budget = args.parse(&arg)?,
            "--mem" => opts.init.push(args.parse_with(&arg, |v| {
                let (addr, value) = v.split_once('=')?;
                Some((word(addr)?, word(value)?))
            })?),
            "--dump" => opts.dump.push(args.parse_with(&arg, word)?),
            "--quick" => opts.quick = true,
            "--faults" => opts.fault_seed = Some(args.parse_with(&arg, word)?),
            "--fault-rate" => opts.fault_rate_ppm = args.parse_with(&arg, FaultSpec::parse_rate)?,
            "--replay" => opts.replay = Some(args.value(&arg)?),
            _ => opts.programs.push(read_source(arg)?),
        }
    }
    // `ops` replay seeds name their kernel, so `--replay` alone is a
    // complete invocation; assembly programs are only mandatory without it.
    if opts.programs.is_empty() && opts.replay.is_none() {
        return Err(UsageError::new("no assembly programs given"));
    }
    Ok(opts)
}

/// The text of the assembly file a positional argument names.
pub(crate) fn read_source(arg: String) -> Result<String, UsageError> {
    let path = positional(arg)?;
    std::fs::read_to_string(&path)
        .map_err(|e| UsageError::new(format!("cannot read `{path}`: {e}")))
}

/// A decimal or `0x`-prefixed hexadecimal word.
fn word(s: &str) -> Option<u64> {
    let s = s.trim();
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Replays an `"ops"` schedule seed: the named op kernel (a hand-written
/// corpus kernel or an `hmtx-model` model kernel) re-executed in the stored
/// order under the model checker's strict prefix semantics
/// ([`hmtx_explore::execute_order_checked`]: invariants after every op, the
/// serializability oracle at every commit). Any violation surfaces as an
/// error carrying the violated rule and the checker's detail, so the
/// process exits nonzero — exactly what a lowered counterexample should do.
fn replay_ops_seed(seed: &ScheduleSeed) -> Result<CliReport, SimError> {
    let bad = |msg: String| SimError::BadProgram(msg);
    let kernel = hmtx_explore::resolve_kernel(&seed.name)
        .ok_or_else(|| bad(format!("unknown op kernel `{}`", seed.name)))?;
    let outcome = hmtx_explore::execute_order_checked(&kernel, &seed.order, seed_bug(seed)?);
    if let Some(f) = &outcome.failure {
        return Err(SimError::Replay(format!(
            "ops replay of `{}` violated [{}]: {}",
            seed.name,
            f.rule(),
            f.detail
        )));
    }
    let mut stats = format!(
        "kernel: {} ({} ops over {} transactions)\nsemantics: strict prefix (model checker)\n\
         replayed ops: {}\ncommitted transactions: {}",
        seed.name,
        kernel.len(),
        kernel.txs.len(),
        seed.order.len(),
        outcome.committed,
    );
    if let Some(cause) = &outcome.misspec {
        stats.push_str(&format!("\nmisspeculation: {cause}"));
    }
    if !seed.note.is_empty() {
        stats.push_str(&format!("\nnote: {}", seed.note));
    }
    Ok(CliReport {
        outcome: match &outcome.misspec {
            Some(cause) => format!("ops replay misspeculated ({cause}), invariants clean"),
            None => "ops replay clean".to_string(),
        },
        cycles: 0,
        outputs: Vec::new(),
        dumps: Vec::new(),
        stats,
        trace: String::new(),
    })
}

/// The planted defect a seed replays under, if it names one.
fn seed_bug(seed: &ScheduleSeed) -> Result<Option<SeedBug>, SimError> {
    let known = |name: &str| {
        SeedBug::from_name(name)
            .ok_or_else(|| SimError::BadProgram(format!("unknown seed bug `{name}`")))
    };
    seed.seed_bug.as_deref().map(known).transpose()
}

/// Assembles and runs the configured programs.
///
/// # Errors
///
/// Returns [`SimError`] on assembly failures or guest-program bugs.
pub fn run(opts: &Options) -> Result<CliReport, SimError> {
    let bad = |msg: String| SimError::BadProgram(msg);
    let schedule = match &opts.replay {
        None => None,
        Some(path) => {
            let seed = hmtx_explore::seed::read_seed(Path::new(path))?;
            match seed.kind.as_str() {
                // Op-kernel seeds (the op corpus and `hmtx-model`
                // counterexamples) carry their whole program:
                // replay them directly, no assembly involved.
                "ops" => return replay_ops_seed(&seed),
                "machine" => {}
                other => {
                    return Err(bad(format!(
                        "`{path}` is a `{other}` seed; hmtx-run replays \
                         `machine` and `ops` seeds"
                    )));
                }
            }
            Some(seed)
        }
    };
    if opts.programs.is_empty() {
        return Err(bad(
            "replaying a `machine` seed needs the original assembly programs".into(),
        ));
    }
    let mut cfg = if opts.quick {
        MachineConfig::test_default()
    } else {
        MachineConfig::paper_default()
    };
    cfg.num_cores = opts.cores.unwrap_or_else(|| opts.programs.len().max(2));
    if let Some(seed) = opts.fault_seed {
        cfg.faults = Some(FaultConfig::chaos(seed, opts.fault_rate_ppm));
    }
    if let Some(seed) = &schedule {
        cfg.hmtx.seed_bug = seed_bug(seed)?;
    }
    if cfg.num_cores < opts.programs.len() {
        return Err(SimError::BadProgram(format!(
            "{} programs need at least that many cores (got --cores {})",
            opts.programs.len(),
            cfg.num_cores
        )));
    }

    // An invalid geometry (e.g. a non-power-of-two set count) surfaces as a
    // diagnostic on stderr and a nonzero exit, not a panic.
    let mut machine = Machine::try_new(cfg)?;
    if opts.trace > 0 {
        machine.mem_mut().set_trace_capacity(opts.trace);
    }
    for (addr, value) in &opts.init {
        machine
            .mem_mut()
            .memory_mut()
            .write_word(Addr(*addr), *value);
    }
    for (i, text) in opts.programs.iter().enumerate() {
        let program = Arc::new(assemble(text)?);
        machine.load_thread(i, ThreadContext::new(ThreadId(i), program));
    }

    let mut policy: Box<dyn SchedulePolicy> = match &schedule {
        Some(seed) => Box::new(ReplayPolicy::from_seed(seed)),
        None => Box::new(MinClock),
    };
    let outcome = match machine.run_with_policy(opts.budget, policy.as_mut())? {
        RunEvent::AllHalted => "all threads halted".to_string(),
        RunEvent::Misspeculation { cause, cycle } => {
            format!("misspeculation at cycle {cycle}: {cause:?}")
        }
        RunEvent::BudgetExhausted => format!("instruction budget ({}) exhausted", opts.budget),
    };

    let mem_stats = machine.mem().stats();
    let mut stats = format!(
        "instructions: {}\nbranches: {} ({:.2}% mispredicted)\n\
         loads/stores: {}/{} (speculative {}/{})\n\
         L1 hits/misses: {}/{}\ncommits: {}  aborts: {}  vid resets: {}\nSLAs sent: {}",
        machine.stats().instructions,
        machine.stats().branches,
        machine.stats().mispredict_rate() * 100.0,
        mem_stats.loads,
        mem_stats.stores,
        mem_stats.spec_loads,
        mem_stats.spec_stores,
        mem_stats.l1_hits,
        mem_stats.l1_misses,
        mem_stats.commits,
        mem_stats.aborts,
        mem_stats.vid_resets,
        mem_stats.slas_sent,
    );
    if opts.fault_seed.is_some() {
        stats.push_str(&format!(
            "\ninjected faults: {} conflicts, {} queue delays, {} wrong-path storms",
            mem_stats.injected_conflicts,
            machine.stats().injected_queue_delays,
            machine.stats().injected_wrong_path_storms,
        ));
    }
    let trace = if opts.trace > 0 {
        hmtx_core::render_trace(&machine.mem_mut().take_trace())
    } else {
        String::new()
    };
    let dumps = opts
        .dump
        .iter()
        .map(|a| (*a, machine.mem().peek_word(Addr(*a), Vid(0))))
        .collect();

    Ok(CliReport {
        outcome,
        cycles: machine.cycles(),
        outputs: machine.committed_output().to_vec(),
        dumps,
        stats,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts_with(src: &str) -> Options {
        Options {
            programs: vec![src.to_string()],
            quick: true,
            ..Options::default()
        }
    }

    #[test]
    fn runs_a_single_threaded_program() {
        let report = run(&opts_with(
            r"
                li r1, 6
                li r2, 7
                mul r3, r1, r2
                out r3
                halt
            ",
        ))
        .unwrap();
        assert_eq!(report.outputs, vec![42]);
        assert!(report.outcome.contains("halted"));
        assert!(report.cycles > 0);
    }

    #[test]
    fn mem_init_and_dump_round_trip() {
        let mut opts = opts_with(
            r"
                li r1, 0x100000
                ld r2, (r1)
                add r2, r2, 5
                st r2, 8(r1)
                halt
            ",
        );
        opts.init.push((0x100000, 37));
        opts.dump.push(0x100008);
        let report = run(&opts).unwrap();
        assert_eq!(report.dumps, vec![(0x100008, 42)]);
    }

    #[test]
    fn transactional_program_with_trace() {
        let mut opts = opts_with(
            r"
                li r10, 1
                beginMTX r10
                li r1, 0x100000
                li r2, 9
                st r2, (r1)
                commitMTX r10
                halt
            ",
        );
        opts.trace = 32;
        opts.dump.push(0x100000);
        let report = run(&opts).unwrap();
        assert_eq!(report.dumps, vec![(0x100000, 9)]);
        assert!(report.trace.contains("commit v1"), "{}", report.trace);
        assert!(report.stats.contains("commits: 1"));
    }

    #[test]
    fn two_thread_pipeline() {
        let producer = r"
                li r1, 11
                produce q0, r1
                halt
        ";
        let consumer = r"
                consume r2, q0
                out r2
                halt
        ";
        let opts = Options {
            programs: vec![producer.to_string(), consumer.to_string()],
            quick: true,
            ..Options::default()
        };
        let report = run(&opts).unwrap();
        assert_eq!(report.outputs, vec![11]);
    }

    #[test]
    fn parse_args_handles_flags_and_errors() {
        let err = |args: &[&str]| {
            parse_args(Args::new(args.to_vec()))
                .unwrap_err()
                .to_string()
        };
        assert_eq!(err(&[]), "no assembly programs given");
        assert_eq!(err(&["--cores"]), "--cores needs a value");
        assert_eq!(err(&["--mem", "nope"]), "invalid value `nope` for --mem");
        assert_eq!(err(&["--faults"]), "--faults needs a value");
        assert_eq!(
            err(&["--fault-rate", "abc"]),
            "invalid value `abc` for --fault-rate"
        );
        // Above 1,000,000 ppm is not a probability.
        assert_eq!(
            err(&["--fault-rate", "1000001"]),
            "invalid value `1000001` for --fault-rate"
        );
        // A misspelt flag is a usage error, not a file to assemble.
        assert_eq!(err(&["--trce", "5", "a.asm"]), "unknown flag `--trce`");
        let opts = parse_args(Args::new([
            "--mem", "0x10=7", "--dump", "16", "--replay", "s.json",
        ]))
        .unwrap();
        assert_eq!((opts.init, opts.dump), (vec![(16, 7)], vec![16]));
    }

    #[test]
    fn fault_injection_flags_reach_the_machine() {
        let mut opts = opts_with(
            r"
                li r10, 1
                beginMTX r10
                li r1, 0x100000
                li r2, 9
                st r2, (r1)
                commitMTX r10
                halt
            ",
        );
        opts.fault_seed = Some(7);
        opts.fault_rate_ppm = 1_000_000; // every eligible access faults
        let report = run(&opts).unwrap();
        assert!(
            report.outcome.contains("misspeculation"),
            "a certain-fire fault plan must abort the transaction: {}",
            report.outcome
        );
        assert!(report.stats.contains("injected faults"), "{}", report.stats);
    }

    fn replay_args(seed: &std::path::Path) -> Options {
        parse_args(Args::new([
            "--replay".to_string(),
            seed.display().to_string(),
        ]))
        .unwrap()
    }

    fn write_seed(tag: &str, seed: &ScheduleSeed) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("hmtx-cli-{}-{tag}.json", std::process::id()));
        std::fs::write(&path, seed.to_json().pretty()).unwrap();
        path
    }

    #[test]
    fn ops_seed_replays_clean_without_programs() {
        let cfg = hmtx_types::ModelCheckConfig::default();
        let kernel = hmtx_explore::model_kernel(&cfg);
        let seed = ScheduleSeed {
            kind: "ops".to_string(),
            name: kernel.name.to_string(),
            seed_bug: None,
            picks: Vec::new(),
            order: (0..kernel.len()).collect(),
            note: "serial order".to_string(),
        };
        let path = write_seed("clean", &seed);
        let opts = replay_args(&path);
        let report = run(&opts).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(report.outcome, "ops replay clean");
        assert!(report.stats.contains("strict prefix"), "{}", report.stats);
        assert!(
            report.stats.contains("committed transactions: 3"),
            "{}",
            report.stats
        );
    }

    #[test]
    fn lowered_model_counterexample_replays_to_the_same_rule() {
        // End-to-end differential check: the model checker finds the planted
        // defect, lowers the trace to a seed, and `hmtx-run --replay` on
        // that seed reproduces the *same* violated invariant, with the
        // checker's own detail, and exits nonzero — for the config-derived
        // model kernel and for a hand-written corpus kernel alike.
        let cfg = hmtx_types::ModelCheckConfig {
            seed_bug: Some(SeedBug::StaleMigrationReplica),
            ..hmtx_types::ModelCheckConfig::default()
        };
        let migrated_line = hmtx_explore::resolve_kernel("migrated_line").unwrap();
        for kernel in [hmtx_explore::model_kernel(&cfg), migrated_line] {
            let report = hmtx_modelcheck::check_kernel(&kernel, &cfg);
            let v = report.violations.first().unwrap_or_else(|| {
                panic!("{}: the planted defect must be rediscovered", kernel.name)
            });
            let seed = hmtx_modelcheck::lower(&kernel, &cfg, v);
            let path = write_seed(&format!("defect-{}", kernel.name), &seed);
            let opts = replay_args(&path);
            let err = run(&opts).unwrap_err().to_string();
            std::fs::remove_file(&path).ok();
            assert!(
                err.contains(&format!("[{}]", v.rule)),
                "{}: replay must name the violated rule `{}`: {err}",
                kernel.name,
                v.rule
            );
            assert!(
                err.contains(&v.detail),
                "{}: replay must report the checker's detail `{}`: {err}",
                kernel.name,
                v.detail
            );
        }
    }

    #[test]
    fn unknown_ops_kernel_is_an_error() {
        let seed = ScheduleSeed {
            kind: "ops".to_string(),
            name: "no-such-kernel".to_string(),
            seed_bug: None,
            picks: Vec::new(),
            order: vec![0],
            note: String::new(),
        };
        let path = write_seed("unknown", &seed);
        let opts = replay_args(&path);
        let err = run(&opts).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("unknown op kernel"), "{err}");
    }

    #[test]
    fn too_few_cores_is_an_error() {
        let opts = Options {
            programs: vec!["halt".into(), "halt".into(), "halt".into()],
            cores: Some(2),
            quick: true,
            ..Options::default()
        };
        assert!(run(&opts).is_err());
    }
}
