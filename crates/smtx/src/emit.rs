//! Guest-program generation for the SMTX pipeline: stage 1, stage-2
//! workers, and the commit process.

use std::sync::Arc;

use hmtx_isa::{Cond, ProgramBuilder, Reg};
use hmtx_runtime::env::{regs, LoopEnv};
use hmtx_runtime::{GeneratedThread, GeneratedThreads, LoopBody};
use hmtx_types::{ConfigError, QueueId, SimError, SmtxConfig};

/// Queue carrying `(worker_tag << 56) | record_count` messages (and
/// all-ones sentinels) to the commit process.
const COMMIT_QUEUE: QueueId = QueueId(15);

/// The commit process's per-source log read offsets, indexed by source
/// (workers `0..W`, then stage 1). The first six are `r4..r9`, so
/// pipelines of up to five workers (the 4-core runs of the experiments
/// among them) simulate exactly as before; the rest are registers the
/// commit process leaves alone (it uses `r2`, `r10..r13` and the runtime
/// scratch pair).
const OFFSET_REGS: [Reg; SMTX_MAX_WORKERS + 1] = [
    Reg::R4,
    Reg::R5,
    Reg::R6,
    Reg::R7,
    Reg::R8,
    Reg::R9,
    Reg::R0,
    Reg::R1,
    Reg::R3,
    Reg::R14,
    Reg::R15,
    Reg::R16,
    Reg::R17,
    Reg::R18,
];

/// The most stage-2 workers the pipeline layout places: their queues stay
/// below `COMMIT_QUEUE`, the stage-1 log region (after the workers')
/// stays below the workload region, and every source has an offset
/// register in `OFFSET_REGS`.
pub const SMTX_MAX_WORKERS: usize = 13;

// Worker queues `0..W` stay clear of the commit queue.
const _: () = assert!(SMTX_MAX_WORKERS <= COMMIT_QUEUE.0);

/// Log regions are 64 KiB rings; offsets wrap with this mask (8-byte
/// records).
const LOG_OFFSET_MASK: i64 = 0xFFF8;

/// How much speculation validation the SMTX port performs (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RwSetMode {
    /// Expert-minimized read/write sets: a handful of records per iteration
    /// regardless of how much memory the iteration touches.
    Minimal,
    /// Validation on shared-data accesses (roughly a quarter of the
    /// iteration's traffic) — Figure 2's "substantial" configuration.
    Substantial,
    /// Every load and store validated, matching the HMTX evaluation.
    Maximal,
}

impl RwSetMode {
    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            RwSetMode::Minimal => "minimal",
            RwSetMode::Substantial => "substantial",
            RwSetMode::Maximal => "maximal",
        }
    }
}

/// Rewrites `SPEC_LOADS`/`SPEC_STORES` after a body according to the mode.
fn emit_mode_counts(b: &mut ProgramBuilder, mode: RwSetMode, body: &dyn LoopBody) {
    match mode {
        RwSetMode::Minimal => {
            let (l, s) = body.minimal_rw_counts();
            b.li(regs::SPEC_LOADS, l as i64);
            b.li(regs::SPEC_STORES, s as i64);
        }
        RwSetMode::Substantial => {
            b.shr(regs::SPEC_LOADS, regs::SPEC_LOADS, 2);
            b.shr(regs::SPEC_STORES, regs::SPEC_STORES, 2);
            b.or(regs::SPEC_LOADS, regs::SPEC_LOADS, 1);
            b.or(regs::SPEC_STORES, regs::SPEC_STORES, 1);
        }
        RwSetMode::Maximal => {}
    }
}

/// Emits the per-iteration log shipping: `SPEC_LOADS + SPEC_STORES` record
/// appends into this source's private log ring (base held in `RCB`, offset
/// in `SLOT`), chunk-synchronization cost, and the tagged count message to
/// the commit queue.
fn emit_log_shipping(
    b: &mut ProgramBuilder,
    smtx: &SmtxConfig,
    source_tag: u64,
) -> Result<(), SimError> {
    let loop_head = b.new_label();
    let loop_done = b.new_label();
    // R12 = records remaining, R13 = total records.
    b.add(Reg::R13, regs::SPEC_LOADS, regs::SPEC_STORES);
    b.mov(Reg::R12, Reg::R13);
    b.bind(loop_head)?;
    b.branch_imm(Cond::Eq, Reg::R12, 0, loop_done);
    b.add(regs::T0, regs::RCB, regs::SLOT);
    b.store(Reg::R12, regs::T0, 0);
    b.addi(regs::SLOT, regs::SLOT, 8);
    b.and(regs::SLOT, regs::SLOT, LOG_OFFSET_MASK);
    b.compute(smtx.log_append_instrs);
    b.sub(Reg::R12, Reg::R12, 1);
    b.jump(loop_head);
    b.bind(loop_done)?;
    // Queue-synchronization cost per chunk of records.
    b.alu(
        hmtx_isa::AluOp::Div,
        regs::T0,
        Reg::R13,
        smtx.queue_chunk as i64,
    );
    b.mul(regs::T0, regs::T0, smtx.queue_sync_instrs as i64);
    b.compute_reg(regs::T0);
    // Message: (tag << 56) | count.
    b.li(regs::T0, (source_tag << 56) as i64);
    b.or(regs::T0, regs::T0, Reg::R13);
    b.produce(COMMIT_QUEUE, regs::T0);
    Ok(())
}

/// Builds the SMTX pipeline: stage 1 on core 0, `workers` stage-2 workers on
/// cores `1..=workers`, and the commit process on core `workers + 1`.
pub fn build_smtx_pipeline(
    body: &dyn LoopBody,
    env: &LoopEnv,
    smtx: &SmtxConfig,
    mode: RwSetMode,
) -> Result<GeneratedThreads, SimError> {
    let w_count = env.workers;
    if !(1..=SMTX_MAX_WORKERS).contains(&w_count) {
        return Err(SimError::Config(ConfigError::new(format!(
            "the SMTX pipeline places 1..={SMTX_MAX_WORKERS} workers, not {w_count}"
        ))));
    }
    let mut threads = Vec::new();

    // ---- stage 1 (core 0) ----
    {
        let mut b = ProgramBuilder::new();
        let head = b.new_label();
        let finish = b.new_label();
        let cont = b.new_label();
        let route: Vec<_> = (0..w_count).map(|_| b.new_label()).collect();
        b.li(regs::RCB, env.smtx_log_region(w_count).0 as i64); // stage-1 log
        b.li(regs::SLOT, 0); // log offset
        b.li(regs::N, 1);
        b.bind(head)?;
        b.branch_imm(Cond::GeU, regs::N, body.iterations() as i64 + 1, finish);
        b.li(regs::STOP, 0);
        b.compute(smtx.tx_mgmt_instrs); // software MTX bookkeeping
        body.emit_stage1(&mut b, env);
        emit_mode_counts(&mut b, mode, body);
        // Value forwarding: each speculative store's value is sent to the
        // next stage in software.
        b.mul(regs::T0, regs::SPEC_STORES, smtx.forward_instrs as i64);
        b.compute_reg(regs::T0);
        emit_log_shipping(&mut b, smtx, w_count as u64)?;
        // Route (n, item) to worker (n-1) % W.
        b.sub(regs::T0, regs::N, 1);
        b.rem(regs::T0, regs::T0, w_count as i64);
        for (w, label) in route.iter().enumerate() {
            b.branch_imm(Cond::Eq, regs::T0, w as i64, *label);
        }
        for (w, label) in route.iter().enumerate() {
            b.bind(*label)?;
            b.produce(QueueId(w), regs::N);
            b.produce(QueueId(w), regs::ITEM);
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
        b.li(regs::T0, -1);
        b.produce(COMMIT_QUEUE, regs::T0);
        b.halt();
        threads.push(GeneratedThread {
            core: 0,
            program: Arc::new(b.build()?),
        });
    }

    // ---- stage-2 workers (cores 1..=W) ----
    for w in 0..w_count {
        let mut b = ProgramBuilder::new();
        let head = b.new_label();
        let done = b.new_label();
        b.li(regs::RCB, env.smtx_log_region(w).0 as i64);
        b.li(regs::SLOT, 0);
        b.bind(head)?;
        b.consume(regs::N, QueueId(w));
        b.branch_imm(Cond::Eq, regs::N, 0, done);
        b.consume(regs::ITEM, QueueId(w));
        b.compute(smtx.tx_mgmt_instrs); // software MTX bookkeeping
        body.emit_stage2(&mut b, env);
        emit_mode_counts(&mut b, mode, body);
        emit_log_shipping(&mut b, smtx, w as u64)?;
        b.jump(head);
        b.bind(done)?;
        b.li(regs::T0, -1);
        b.produce(COMMIT_QUEUE, regs::T0);
        b.halt();
        threads.push(GeneratedThread {
            core: 1 + w,
            program: Arc::new(b.build()?),
        });
    }

    // ---- commit process (core W + 1) ----
    {
        let sources = w_count + 1; // workers + stage 1
        let per_record = (smtx.validate_read_instrs + smtx.apply_write_instrs).div_ceil(2);
        let mut b = ProgramBuilder::new();
        let head = b.new_label();
        let sentinel = b.new_label();
        let done = b.new_label();
        let handlers: Vec<_> = (0..sources).map(|_| b.new_label()).collect();
        // OFFSET_REGS: per-source log read offsets; R10: live sources.
        for &ptr in &OFFSET_REGS[..sources] {
            b.li(ptr, 0);
        }
        b.li(Reg::R10, sources as i64);
        b.bind(head)?;
        b.consume(regs::T0, COMMIT_QUEUE);
        b.li(regs::T1, -1);
        b.branch(Cond::Eq, regs::T0, regs::T1, sentinel);
        b.shr(Reg::R11, regs::T0, 56);
        b.li(regs::T1, 0x00FF_FFFF_FFFF_FFFF);
        b.and(Reg::R12, regs::T0, regs::T1);
        for (s, label) in handlers.iter().enumerate() {
            b.branch_imm(Cond::Eq, Reg::R11, s as i64, *label);
        }
        b.jump(head); // unknown tag: ignore (cannot happen)
        for (s, label) in handlers.iter().enumerate() {
            let ptr = OFFSET_REGS[s];
            let vloop = b.new_label();
            let vdone = b.new_label();
            b.bind(*label)?;
            b.li(Reg::R13, env.smtx_log_region(s).0 as i64);
            b.bind(vloop)?;
            b.branch_imm(Cond::Eq, Reg::R12, 0, vdone);
            b.add(regs::T1, Reg::R13, ptr);
            b.load(Reg::R2, regs::T1, 0);
            b.compute(per_record);
            b.addi(ptr, ptr, 8);
            b.and(ptr, ptr, LOG_OFFSET_MASK);
            b.sub(Reg::R12, Reg::R12, 1);
            b.jump(vloop);
            b.bind(vdone)?;
            b.jump(head);
        }
        b.bind(sentinel)?;
        b.sub(Reg::R10, Reg::R10, 1);
        b.branch_imm(Cond::Ne, Reg::R10, 0, head);
        b.jump(done);
        b.bind(done)?;
        b.halt();
        threads.push(GeneratedThread {
            core: 1 + w_count,
            program: Arc::new(b.build()?),
        });
    }

    Ok(GeneratedThreads { threads })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmtx_runtime::env::WORKLOAD_REGION_BASE;

    #[test]
    fn the_largest_pipeline_fits_its_queues_logs_and_registers() {
        let env = LoopEnv::new(63, SMTX_MAX_WORKERS);
        // The stage-1 log (source W, the last) ends below workload data.
        let last = env.smtx_log_region(SMTX_MAX_WORKERS).0 + LOG_OFFSET_MASK as u64 + 8;
        assert!(last <= WORKLOAD_REGION_BASE, "log region ends at {last:#x}");
        // One distinct offset register per source, none the commit process
        // uses for anything else.
        let busy = [
            Reg::R2,
            Reg::R10,
            Reg::R11,
            Reg::R12,
            Reg::R13,
            regs::T0,
            regs::T1,
        ];
        for (i, r) in OFFSET_REGS.iter().enumerate() {
            assert!(!busy.contains(r), "{r} is commit-process scratch");
            assert!(!OFFSET_REGS[..i].contains(r), "{r} repeats");
        }
    }
}
