//! Harness for running a loop under the SMTX baseline.

use hmtx_machine::{Machine, MachineStats, RunEvent, ThreadContext};
use hmtx_types::{Cycle, MachineConfig, SimError, ThreadId};

use hmtx_runtime::{check_cores, LoopBody, LoopEnv};

use crate::emit::{build_smtx_pipeline, RwSetMode, SMTX_MAX_WORKERS};

/// Result of an SMTX pipeline run.
#[derive(Debug, Clone)]
pub struct SmtxReport {
    /// Validation mode that ran.
    pub mode: RwSetMode,
    /// Completion time in cycles.
    pub cycles: Cycle,
    /// Retired instructions (including all validation work).
    pub instructions: u64,
    /// Committed program output (unordered across workers; SMTX buffers and
    /// reorders output in the real system, which this model does not).
    pub outputs: Vec<u64>,
    /// Machine statistics snapshot.
    pub machine_stats: MachineStats,
}

/// Runs `body` as an SMTX pipeline on commodity hardware (no HMTX
/// instructions): stage 1 + `num_cores - 2` workers + the commit process.
///
/// # Errors
///
/// Returns [`SimError::Config`] on fewer than 3 or more than
/// [`SMTX_MAX_WORKERS`]` + 2` cores, before any thread is loaded, or on an
/// invalid machine configuration, and
/// [`SimError`] for guest-program bugs or budget exhaustion. SMTX
/// runs never abort in this model (the paper's benchmarks never
/// misspeculate; conflict-freedom is the workload's responsibility).
pub fn run_smtx(
    body: &dyn LoopBody,
    cfg: &MachineConfig,
    mode: RwSetMode,
    budget: u64,
) -> Result<(Machine, SmtxReport), SimError> {
    // Stage 1, the workers and the commit process each need a core.
    check_cores("SMTX", 3..=SMTX_MAX_WORKERS + 2, cfg)?;
    let workers = cfg.num_cores - 2;
    let env = LoopEnv::new(cfg.hmtx.max_vid().0, workers);
    let mut machine = Machine::try_new(cfg.clone())?;
    body.build_image(&mut machine, &env);

    let generated = build_smtx_pipeline(body, &env, &cfg.smtx, mode)?;
    for (i, t) in generated.threads.into_iter().enumerate() {
        machine.load_thread(t.core, ThreadContext::new(ThreadId(i), t.program));
    }

    match machine.run(budget)? {
        RunEvent::AllHalted => {}
        RunEvent::BudgetExhausted => return Err(SimError::InstructionBudgetExceeded { budget }),
        RunEvent::Misspeculation { cause, .. } => {
            return Err(SimError::BadProgram(format!(
                "SMTX run uses no transactions yet misspeculated: {cause:?}"
            )))
        }
    }

    let report = SmtxReport {
        mode,
        cycles: machine.cycles(),
        instructions: machine.stats().instructions,
        outputs: machine.committed_output().to_vec(),
        machine_stats: *machine.stats(),
    };
    Ok((machine, report))
}
