//! Differential test: `hmtx-explore`'s in-process schedule replay and
//! `hmtx-run --replay` must agree on every explored schedule.
//!
//! The in-process side clones the explorer's machine template; the CLI
//! side builds its machine from the kernel's assembly (quick configuration,
//! one core per thread with a floor of two, same budget). Both replay the
//! same divergence list through [`ReplayPolicy`]; the test drives every
//! schedule the explorer's breadth-first search visits at preemption bound
//! 2 through both paths and compares outcome, completion cycle, committed
//! output, and the committed view of every tracked word.

use hmtx_explore::mexplore::{explore, MachineSpec};
use hmtx_explore::{asm_kernels, seed};
use hmtx_machine::{ReplayPolicy, RunEvent, ScheduleSeed};
use hmtx_types::{Addr, Vid};

const BUDGET: u64 = 50_000;

/// Replays one divergence list in-process on a clone of the explorer's
/// machine template, reporting the same fields `hmtx::cli::run` reports.
fn replay_locally(
    spec: &MachineSpec,
    tracked: &[u64],
    picks: &[(u64, usize)],
) -> (String, u64, Vec<u64>, Vec<(u64, u64)>) {
    let mut machine = spec.template.clone();
    let mut policy = ReplayPolicy::new(picks);
    let outcome = match machine.run_with_policy(BUDGET, &mut policy).unwrap() {
        RunEvent::AllHalted => "all threads halted".to_string(),
        RunEvent::Misspeculation { cause, cycle } => {
            format!("misspeculation at cycle {cycle}: {cause:?}")
        }
        RunEvent::BudgetExhausted => format!("instruction budget ({BUDGET}) exhausted"),
    };
    let dumps = tracked
        .iter()
        .map(|a| (*a, machine.mem().peek_word(Addr(*a), Vid(0))))
        .collect();
    (
        outcome,
        machine.cycles(),
        machine.committed_output().to_vec(),
        dumps,
    )
}

#[test]
fn explorer_and_cli_replay_agree_on_every_schedule() {
    let dir = std::env::temp_dir().join(format!("hmtx_differential_{}", std::process::id()));
    for kernel in asm_kernels() {
        let spec = MachineSpec::from_kernel(&kernel, BUDGET, None).unwrap();
        let mut schedules = Vec::new();
        let report = explore(&spec, 2, true, usize::MAX, |o| schedules.push(o.clone()));
        assert!(
            report.exhausted && report.failures.is_empty(),
            "{}: {:?}",
            kernel.name,
            report.failures.first()
        );
        assert!(
            schedules.len() > 1,
            "{}: expected branching, got {} schedule(s)",
            kernel.name,
            schedules.len()
        );
        for (i, explored) in schedules.iter().enumerate() {
            let picks = &explored.picks;
            let stored = ScheduleSeed {
                kind: "machine".into(),
                name: kernel.name.to_string(),
                seed_bug: None,
                picks: picks.clone(),
                order: Vec::new(),
                note: "differential test".into(),
            };
            let path = seed::write_seed(&dir, &format!("{}_{i}", kernel.name), &stored).unwrap();

            let opts = hmtx::cli::Options {
                programs: kernel.threads.iter().map(|t| t.to_string()).collect(),
                quick: true,
                replay: Some(path.display().to_string()),
                dump: kernel.tracked.clone(),
                budget: BUDGET,
                ..hmtx::cli::Options::default()
            };
            let cli = hmtx::cli::run(&opts).unwrap();
            let (outcome, cycles, outputs, dumps) = replay_locally(&spec, &kernel.tracked, picks);
            assert_eq!(cli.outcome, outcome, "{} picks {picks:?}", kernel.name);
            assert_eq!(cli.cycles, cycles, "{} picks {picks:?}", kernel.name);
            assert_eq!(cli.outputs, outputs, "{} picks {picks:?}", kernel.name);
            assert_eq!(cli.dumps, dumps, "{} picks {picks:?}", kernel.name);
            assert_eq!(
                explored.misspec.is_some(),
                cli.outcome.starts_with("misspeculation"),
                "{} picks {picks:?}: explorer and replay disagree on the outcome",
                kernel.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
