//! Program generation for each parallelization paradigm (Figure 1):
//! Sequential, DOALL, DOACROSS, DSWP, and PS-DSWP, all driving the same
//! [`LoopBody`] through the HMTX instructions of §3.
//!
//! The orchestration protocol generated around the workload body:
//!
//! * The VID of global transaction `n` (1-based) is `n - vid_base`, where
//!   `vid_base` lives in the runtime control block and records the
//!   transaction number at the last VID reset.
//! * **Begin guard** — a transaction may begin only when
//!   `n - vid_base <= max_vid`; otherwise the thread spins (this is the
//!   §4.6 pipeline stall while the VID space drains).
//! * **Commit protocol** — commits happen in global order: spin until
//!   `last_committed == n - 1`, `commitMTX(vid)`, and if `vid == max_vid`
//!   issue the VID reset and advance `vid_base` before publishing
//!   `last_committed = n`.
//! * Stage 1 communicates each work item to stage 2 with a single
//!   speculative store to `produced_slot` (the paper's `producedNode`,
//!   §3.2); only the transaction *number* travels through a hardware queue.

use std::sync::Arc;

use hmtx_isa::{Cond, Label, Program, ProgramBuilder};
use hmtx_types::{QueueId, SimError};

use crate::body::LoopBody;
use crate::env::{rcb, regs, LoopEnv};

/// The parallel execution paradigms of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Paradigm {
    /// Single-threaded, no transactions (the speedup baseline).
    Sequential,
    /// Independent iterations, one transaction each, round-robin across
    /// workers.
    Doall,
    /// Each worker runs whole iterations; the loop-carried state flows
    /// through versioned memory, gated by a token ring.
    Doacross,
    /// Two-stage pipeline: one sequential stage, one worker.
    Dswp,
    /// Parallel-stage DSWP: one sequential stage, many workers.
    PsDswp,
}

impl Paradigm {
    /// Short display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Paradigm::Sequential => "Sequential",
            Paradigm::Doall => "DOALL",
            Paradigm::Doacross => "DOACROSS",
            Paradigm::Dswp => "DSWP",
            Paradigm::PsDswp => "PS-DSWP",
        }
    }

    /// The fewest cores the paradigm's thread layout can place its threads
    /// on: the (PS-)DSWP pipelines put the sequential stage on core 0 and
    /// their workers beside it.
    pub fn min_cores(self) -> usize {
        match self {
            Paradigm::Dswp | Paradigm::PsDswp => 2,
            Paradigm::Sequential | Paradigm::Doall | Paradigm::Doacross => 1,
        }
    }

    /// Parallel-stage workers the layout runs on `num_cores` cores.
    pub fn workers(self, num_cores: usize) -> usize {
        match self {
            Paradigm::Sequential | Paradigm::Dswp => 1,
            Paradigm::Doall | Paradigm::Doacross => num_cores,
            Paradigm::PsDswp => num_cores.saturating_sub(1).max(1),
        }
    }

    /// Parses a command-line spelling: the lower-cased [`Paradigm::name`],
    /// or `psdswp` for PS-DSWP.
    pub fn from_name(name: &str) -> Option<Paradigm> {
        match name {
            "sequential" => Some(Paradigm::Sequential),
            "doall" => Some(Paradigm::Doall),
            "doacross" => Some(Paradigm::Doacross),
            "dswp" => Some(Paradigm::Dswp),
            "ps-dswp" | "psdswp" => Some(Paradigm::PsDswp),
            _ => None,
        }
    }
}

/// A generated parallelization: one program per hardware thread, with the
/// core each should be loaded on.
#[derive(Debug, Clone)]
pub struct GeneratedThreads {
    /// `(core, initial N register value, first-iteration flag, program)`.
    pub threads: Vec<GeneratedThread>,
}

/// One generated guest thread.
#[derive(Debug, Clone)]
pub struct GeneratedThread {
    /// Core to load the thread on.
    pub core: usize,
    /// The program.
    pub program: Arc<Program>,
}

/// Emits the standard prologue: runtime constant registers.
fn emit_prologue(b: &mut ProgramBuilder, env: &LoopEnv, n0: u64) {
    b.li(regs::RCB, env.rcb.0 as i64);
    b.li(regs::MAX_VID, env.max_vid as i64);
    b.li(regs::SLOT, env.produced_slot.0 as i64);
    b.li(regs::N, n0 as i64);
    b.li(regs::STOP, 0);
}

/// Emits the begin guard (spin until `n - vid_base <= max_vid`), leaving the
/// VID in [`regs::VID`], then `beginMTX(vid)`.
fn emit_begin_guarded(b: &mut ProgramBuilder, env: &LoopEnv) -> Result<(), SimError> {
    let spin = b.new_label();
    let window = env.pipeline_window.min(env.max_vid as u64);
    if let Some(spins) = env.vid_watchdog {
        // HyTM watchdog budget, reset on every guard entry. Only VID-space
        // spins consume it — the pipeline-window spin always drains on its
        // own as predecessors commit.
        b.li(regs::BOUND, spins as i64);
    }
    b.bind(spin)?;
    // Depth bound: at most `pipeline_window` live transactions, so the live
    // versions of any hot line fit in the hierarchy's associativity.
    b.load(regs::T0, regs::RCB, rcb::LAST_COMMITTED);
    b.sub(regs::T1, regs::N, regs::T0);
    b.branch_imm(Cond::GeU, regs::T1, window as i64 + 1, spin);
    // VID-space bound (§4.6): wait for a reset once the VIDs are exhausted.
    b.load(regs::T0, regs::RCB, rcb::VID_BASE);
    b.sub(regs::VID, regs::N, regs::T0);
    match env.vid_watchdog {
        None => {
            b.branch_imm(Cond::GeU, regs::VID, env.max_vid as i64 + 1, spin);
        }
        Some(_) => {
            // Bounded spin: when the budget runs dry the thread aborts with
            // the exhaustion sentinel VID, which the HyTM runtime classifies
            // as `DemotionCause::VidExhaustion` and routes to the software
            // slow path instead of waiting forever for a reset.
            let proceed = b.new_label();
            b.branch_imm(Cond::LtU, regs::VID, env.max_vid as i64 + 1, proceed);
            b.addi(regs::BOUND, regs::BOUND, -1);
            b.branch_imm(Cond::Ne, regs::BOUND, 0, spin);
            b.li(regs::T0, crate::runner::VID_EXHAUSTION_SENTINEL as i64);
            b.abort_mtx(regs::T0);
            b.bind(proceed)?;
        }
    }
    b.begin_mtx(regs::VID);
    Ok(())
}

/// Emits just the VID computation and `beginMTX` (no spin): used by pipeline
/// workers, which only receive transaction numbers that stage 1 already
/// guarded.
fn emit_begin_unguarded(b: &mut ProgramBuilder) {
    b.load(regs::T0, regs::RCB, rcb::VID_BASE);
    b.sub(regs::VID, regs::N, regs::T0);
    b.begin_mtx(regs::VID);
}

/// Emits the ordered-commit protocol (assumes the thread left the
/// transaction with `beginMTX(0)` already, `VID`/`N` still set).
fn emit_commit_protocol(b: &mut ProgramBuilder, env: &LoopEnv) -> Result<(), SimError> {
    let spin = b.new_label();
    let no_reset = b.new_label();
    b.bind(spin)?;
    b.load(regs::T0, regs::RCB, rcb::LAST_COMMITTED);
    b.sub(regs::T1, regs::N, 1);
    b.branch(Cond::Ne, regs::T0, regs::T1, spin);
    b.commit_mtx(regs::VID);
    b.branch_imm(Cond::Ne, regs::VID, env.max_vid as i64, no_reset);
    b.vid_reset();
    b.store(regs::N, regs::RCB, rcb::VID_BASE);
    b.bind(no_reset)?;
    b.store(regs::N, regs::RCB, rcb::LAST_COMMITTED);
    Ok(())
}

/// Emits `beginMTX(0)` (leave speculative execution without committing).
fn emit_leave_tx(b: &mut ProgramBuilder) {
    b.li(regs::T0, 0);
    b.begin_mtx(regs::T0);
}

/// Builds the single-threaded non-transactional baseline, starting at
/// iteration `n0` (1 for a whole-loop run). The runner's last recovery rung
/// uses `n0 > 1` to finish a partially committed loop fully
/// non-speculatively: iterations `1..n0` already committed, so their state
/// is ordinary committed memory the sequential program reads directly.
pub fn build_sequential(
    body: &dyn LoopBody,
    env: &LoopEnv,
    n0: u64,
) -> Result<GeneratedThreads, SimError> {
    let mut b = ProgramBuilder::new();
    let head = b.new_label();
    let done = b.new_label();
    emit_prologue(&mut b, env, n0);
    b.bind(head)?;
    b.branch_imm(Cond::GeU, regs::N, body.iterations() as i64 + 1, done);
    b.li(regs::STOP, 0);
    body.emit_stage1(&mut b, env);
    body.emit_stage2(&mut b, env);
    b.branch_imm(Cond::Ne, regs::STOP, 0, done);
    b.addi(regs::N, regs::N, 1);
    b.jump(head);
    b.bind(done)?;
    b.halt();
    Ok(GeneratedThreads {
        threads: vec![GeneratedThread {
            core: 0,
            program: Arc::new(b.build()?),
        }],
    })
}

/// Builds the DOALL parallelization: `workers` threads, each owning the
/// iterations congruent to its index, every iteration one transaction.
pub fn build_doall(
    body: &dyn LoopBody,
    env: &LoopEnv,
    n0: u64,
) -> Result<GeneratedThreads, SimError> {
    let w_count = env.workers;
    let mut threads = Vec::new();
    for w in 0..w_count {
        // First n >= n0 with (n - 1) % w_count == w's lane; lanes are
        // assigned relative to n0 so recovery rebalances cleanly.
        let n_start = n0 + w as u64;
        let mut b = ProgramBuilder::new();
        let head = b.new_label();
        let done = b.new_label();
        emit_prologue(&mut b, env, n_start);
        b.li(regs::STRIDE, w_count as i64);
        b.bind(head)?;
        b.branch_imm(Cond::GeU, regs::N, body.iterations() as i64 + 1, done);
        emit_begin_guarded(&mut b, env)?;
        b.li(regs::STOP, 0);
        body.emit_stage1(&mut b, env);
        body.emit_stage2(&mut b, env);
        emit_leave_tx(&mut b);
        emit_commit_protocol(&mut b, env)?;
        b.add(regs::N, regs::N, regs::STRIDE);
        b.jump(head);
        b.bind(done)?;
        b.halt();
        threads.push(GeneratedThread {
            core: w,
            program: Arc::new(b.build()?),
        });
    }
    Ok(GeneratedThreads { threads })
}

/// Builds the DOACROSS parallelization: whole iterations per worker, with a
/// token ring enforcing that iteration `n` only starts once `n - 1` has
/// performed its loop-carried writes (which then flow through versioned
/// memory).
pub fn build_doacross(
    body: &dyn LoopBody,
    env: &LoopEnv,
    n0: u64,
) -> Result<GeneratedThreads, SimError> {
    let w_count = env.workers;
    let mut threads = Vec::new();
    for w in 0..w_count {
        let n_start = n0 + w as u64;
        let mut b = ProgramBuilder::new();
        let head = b.new_label();
        let done = b.new_label();
        let skiptok = b.new_label();
        emit_prologue(&mut b, env, n_start);
        b.li(regs::STRIDE, w_count as i64);
        b.li(regs::FIRST, if w == 0 { 1 } else { 0 });
        b.bind(head)?;
        b.branch_imm(Cond::GeU, regs::N, body.iterations() as i64 + 1, done);
        b.branch_imm(Cond::Ne, regs::FIRST, 0, skiptok);
        b.consume(regs::T0, QueueId(w));
        b.bind(skiptok)?;
        b.li(regs::FIRST, 0);
        emit_begin_guarded(&mut b, env)?;
        b.li(regs::STOP, 0);
        body.emit_stage1(&mut b, env);
        body.emit_stage2(&mut b, env);
        // Pass the baton: iteration n+1 (on the next worker) may now read
        // this iteration's uncommitted state through versioned memory.
        b.produce(QueueId((w + 1) % w_count), regs::N);
        emit_leave_tx(&mut b);
        emit_commit_protocol(&mut b, env)?;
        b.add(regs::N, regs::N, regs::STRIDE);
        b.jump(head);
        b.bind(done)?;
        b.halt();
        threads.push(GeneratedThread {
            core: w,
            program: Arc::new(b.build()?),
        });
    }
    Ok(GeneratedThreads { threads })
}

/// Builds a (PS-)DSWP parallelization: one sequential stage-1 thread on core
/// 0 and `env.workers` stage-2 workers on cores `1..`.
pub fn build_psdswp(
    body: &dyn LoopBody,
    env: &LoopEnv,
    n0: u64,
) -> Result<GeneratedThreads, SimError> {
    let w_count = env.workers;
    let mut threads = Vec::new();

    // ---- stage 1 ----
    {
        let mut b = ProgramBuilder::new();
        let head = b.new_label();
        let finish = b.new_label();
        let cont = b.new_label();
        let route: Vec<Label> = (0..w_count).map(|_| b.new_label()).collect();
        emit_prologue(&mut b, env, n0);
        b.bind(head)?;
        b.branch_imm(Cond::GeU, regs::N, body.iterations() as i64 + 1, finish);
        emit_begin_guarded(&mut b, env)?;
        b.li(regs::STOP, 0);
        body.emit_stage1(&mut b, env);
        // The paper's producedNode idiom: one speculative store publishes
        // the item; the worker's load inside the same MTX finds this VID's
        // version (§3.2).
        b.store(regs::ITEM, regs::SLOT, 0);
        emit_leave_tx(&mut b);
        // Route the transaction number to worker (n-1) % W.
        b.sub(regs::T0, regs::N, 1);
        b.rem(regs::T0, regs::T0, w_count as i64);
        for (w, label) in route.iter().enumerate() {
            b.branch_imm(Cond::Eq, regs::T0, w as i64, *label);
        }
        for (w, label) in route.iter().enumerate() {
            b.bind(*label)?;
            b.produce(QueueId(w), regs::N);
            b.jump(cont);
        }
        b.bind(cont)?;
        b.branch_imm(Cond::Ne, regs::STOP, 0, finish);
        b.addi(regs::N, regs::N, 1);
        b.jump(head);
        b.bind(finish)?;
        b.li(regs::T0, 0);
        for w in 0..w_count {
            b.produce(QueueId(w), regs::T0);
        }
        b.halt();
        threads.push(GeneratedThread {
            core: 0,
            program: Arc::new(b.build()?),
        });
    }

    // ---- stage 2 workers ----
    for w in 0..w_count {
        let mut b = ProgramBuilder::new();
        let head = b.new_label();
        let done = b.new_label();
        emit_prologue(&mut b, env, 0);
        b.bind(head)?;
        b.consume(regs::N, QueueId(w));
        b.branch_imm(Cond::Eq, regs::N, 0, done);
        emit_begin_unguarded(&mut b);
        b.load(regs::ITEM, regs::SLOT, 0);
        body.emit_stage2(&mut b, env);
        emit_leave_tx(&mut b);
        emit_commit_protocol(&mut b, env)?;
        b.jump(head);
        b.bind(done)?;
        b.halt();
        threads.push(GeneratedThread {
            core: 1 + w,
            program: Arc::new(b.build()?),
        });
    }
    Ok(GeneratedThreads { threads })
}

/// Builds a program that executes exactly transaction `n` (both stages
/// inline) with the full begin/commit protocol, then halts. The runner uses
/// this after an abort to guarantee forward progress: the first uncommitted
/// transaction re-executes alone, so a true inter-iteration conflict cannot
/// repeat indefinitely.
pub fn build_single_tx(
    body: &dyn LoopBody,
    env: &LoopEnv,
    n: u64,
) -> Result<GeneratedThreads, SimError> {
    let mut b = ProgramBuilder::new();
    emit_prologue(&mut b, env, n);
    emit_begin_guarded(&mut b, env)?;
    b.li(regs::STOP, 0);
    body.emit_stage1(&mut b, env);
    body.emit_stage2(&mut b, env);
    emit_leave_tx(&mut b);
    emit_commit_protocol(&mut b, env)?;
    b.halt();
    Ok(GeneratedThreads {
        threads: vec![GeneratedThread {
            core: 0,
            program: Arc::new(b.build()?),
        }],
    })
}

/// Builds the thread programs for `paradigm` starting at transaction `n0`.
pub fn build_paradigm(
    paradigm: Paradigm,
    body: &dyn LoopBody,
    env: &LoopEnv,
    n0: u64,
) -> Result<GeneratedThreads, SimError> {
    match paradigm {
        Paradigm::Sequential => build_sequential(body, env, n0),
        Paradigm::Doall => build_doall(body, env, n0),
        Paradigm::Doacross => build_doacross(body, env, n0),
        Paradigm::Dswp | Paradigm::PsDswp => build_psdswp(body, env, n0),
    }
}

/// Like [`build_paradigm`], but statically verifies the generated set with
/// `hmtx-analysis` (the full rule set: MTX protocol, queue matching and
/// deadlock, store escape) and rejects it with
/// [`SimError::Verification`] on *any* diagnostic. Opt-in: emission-time
/// cost is a few passes over each program, so hot recovery paths keep
/// calling [`build_paradigm`].
pub fn build_paradigm_verified(
    paradigm: Paradigm,
    body: &dyn LoopBody,
    env: &LoopEnv,
    n0: u64,
) -> Result<GeneratedThreads, SimError> {
    let generated = build_paradigm(paradigm, body, env, n0)?;
    let report = verify_generated(&generated);
    if report.is_clean() {
        Ok(generated)
    } else {
        Err(SimError::Verification(report.into_error_payload()))
    }
}

/// Verifies an already-generated thread set, mapping each thread onto its
/// target core the way `run_loop` will launch it (gaps are empty programs).
pub fn verify_generated(generated: &GeneratedThreads) -> hmtx_analysis::VerifyReport {
    let ncores = generated
        .threads
        .iter()
        .map(|t| t.core + 1)
        .max()
        .unwrap_or(0);
    let empty = Program::default();
    let mut per_core: Vec<&Program> = vec![&empty; ncores];
    for t in &generated.threads {
        per_core[t.core] = &t.program;
    }
    hmtx_analysis::verify_set(&per_core)
}

#[cfg(test)]
mod tests {
    use super::Paradigm::{self, *};

    #[test]
    fn paradigm_names_parse_back_lower_cased() {
        for p in [Sequential, Doall, Doacross, Dswp, PsDswp] {
            assert_eq!(Paradigm::from_name(&p.name().to_lowercase()), Some(p));
        }
        assert_eq!(Paradigm::from_name("psdswp"), Some(PsDswp));
        assert_eq!(Paradigm::from_name("DSWP"), None);
    }
}
