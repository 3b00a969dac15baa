//! Per-program MTX protocol and register-discipline checks.
//!
//! Runs a forward fixpoint of the joint [`State`] over the CFG, then a final
//! reporting pass over the converged block inputs. Rules (per program):
//!
//! | rule | severity | meaning |
//! |------|----------|---------|
//! | `mtx-halt-speculative` | error | control leaves the program inside a speculative MTX |
//! | `mtx-begin-while-speculative` | error | `beginMTX(v≠0)` without leaving the previous MTX |
//! | `mtx-vid-mismatch` | error | `commitMTX`/`abortMTX` names a different VID than the begin |
//! | `mtx-vid-clobber` | error | the VID register is overwritten while its MTX is pending |
//! | `mtx-double-commit` | error | the same VID register committed twice with no new begin |
//! | `mtx-vidreset-speculative` | error | `vidreset` while speculative (§4.6 requires drained state) |
//! | `mtx-state-divergence` | error | paths merge with incompatible MTX states |
//! | `mtx-init-speculative` | warning | `initMTX` inside a speculative region |
//! | `mtx-end-without-begin` | warning | commit/abort with no MTX ever begun on the path |
//! | `reg-use-before-def` | warning | read of a register no path has written (reads zero) |
//!
//! The pass deliberately understands three runtime idioms so that every
//! shipped emitter verifies clean (see `crates/runtime/src/emit.rs`):
//! `li T0, 0; beginMTX T0` is *leaving* a transaction (constant propagation
//! resolves the zero); halting in the [`MtxState::Left`] state is legal —
//! PS-DSWP stage 1 begins transactions that its consumers commit; and
//! `li T0, 0x7FFF; abortMTX T0` is the HyTM VID-exhaustion watchdog
//! (constant propagation resolves the sentinel), which legally aborts in
//! any MTX state to re-enter through the software slow path.

use hmtx_isa::{Instr, Program, Reg};
use hmtx_types::{Diagnostic, QueueId, Severity, VID_EXHAUSTION_SENTINEL};

use crate::cfg::Cfg;
use crate::dataflow::{reg_reads, reg_write, transfer_regs, AbsVal, MtxState, State};

/// Kind of hardware-queue operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueOpKind {
    /// `produce q, rs`.
    Produce,
    /// `consume rd, q`.
    Consume,
}

/// One queue operation, located for the set-level queue checks.
#[derive(Debug, Clone, Copy)]
pub struct QueueOpFact {
    /// Which queue.
    pub q: QueueId,
    /// Instruction index.
    pub pc: usize,
    /// Containing CFG block.
    pub block: usize,
    /// Produce or consume.
    pub kind: QueueOpKind,
    /// Whether the op lies on a CFG cycle (disables static rate counting).
    pub in_cycle: bool,
}

/// One store, located for the set-level speculative-escape check.
#[derive(Debug, Clone, Copy)]
pub struct StoreFact {
    /// Instruction index.
    pub pc: usize,
    /// The store executes inside a speculative MTX region.
    pub in_mtx: bool,
    /// Base register.
    pub base: Reg,
    /// Displacement.
    pub disp: i64,
    /// 64-byte line index when the effective address is a known constant.
    pub line: Option<u64>,
}

/// Facts one program contributes to the set-level checks.
#[derive(Debug, Clone, Default)]
pub struct ProgramFacts {
    /// pc of the first speculative `beginMTX` (operand not known-zero).
    pub first_spec_begin: Option<usize>,
    /// The program contains any `commitMTX` or `abortMTX`.
    pub has_commit_or_abort: bool,
    /// Every queue operation in the program.
    pub queue_ops: Vec<QueueOpFact>,
    /// Every (reachable) store in the program.
    pub stores: Vec<StoreFact>,
}

struct Ctx<'a> {
    core: usize,
    program_has_commit: bool,
    diags: &'a mut Vec<Diagnostic>,
    facts: &'a mut ProgramFacts,
    reads: Vec<Reg>,
}

impl Ctx<'_> {
    fn diag(&mut self, severity: Severity, rule: &'static str, pc: usize, message: String) {
        self.diags.push(Diagnostic {
            severity,
            rule,
            core: self.core,
            pc,
            message,
        });
    }
}

/// Runs the per-program pass: emits diagnostics into `diags` and returns the
/// facts the set-level checks need.
pub fn analyze_program(
    core: usize,
    program: &Program,
    cfg: &Cfg,
    diags: &mut Vec<Diagnostic>,
) -> ProgramFacts {
    let mut facts = ProgramFacts::default();
    for (pc, i) in program.instrs().iter().enumerate() {
        match *i {
            Instr::Produce { q, .. } => facts.queue_ops.push(QueueOpFact {
                q,
                pc,
                block: cfg.block_of[pc],
                kind: QueueOpKind::Produce,
                in_cycle: cfg.pc_in_cycle(pc),
            }),
            Instr::Consume { q, .. } => facts.queue_ops.push(QueueOpFact {
                q,
                pc,
                block: cfg.block_of[pc],
                kind: QueueOpKind::Consume,
                in_cycle: cfg.pc_in_cycle(pc),
            }),
            Instr::CommitMtx { .. } | Instr::AbortMtx { .. } => facts.has_commit_or_abort = true,
            _ => {}
        }
    }
    if program.is_empty() {
        return facts;
    }

    let program_has_commit = program
        .instrs()
        .iter()
        .any(|i| matches!(i, Instr::CommitMtx { .. }));

    // Phase 1: fixpoint of block output states (no diagnostics).
    let nblocks = cfg.blocks.len();
    let mut outs: Vec<Option<State>> = vec![None; nblocks];
    let mut ins: Vec<Option<State>> = vec![None; nblocks];
    ins[0] = Some(State::entry());
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nblocks];
    for b in &cfg.blocks {
        for &s in &b.succs {
            preds[s].push(b.id);
        }
    }

    let mut worklist: Vec<usize> = vec![0];
    let mut on_list = vec![false; nblocks];
    on_list[0] = true;
    let mut silent = Ctx {
        core,
        program_has_commit,
        diags: &mut Vec::new(),
        facts: &mut ProgramFacts::default(),
        reads: Vec::new(),
    };
    while let Some(b) = worklist.pop() {
        on_list[b] = false;
        let mut state = ins[b].clone().expect("worklist block has an in-state");
        for pc in cfg.blocks[b].start..cfg.blocks[b].end {
            step(&mut state, pc, &program.instrs()[pc], &mut silent, false);
        }
        if outs[b].as_ref() == Some(&state) {
            continue;
        }
        outs[b] = Some(state.clone());
        for &s in &cfg.blocks[b].succs {
            let changed = match &mut ins[s] {
                Some(existing) => {
                    let before = existing.clone();
                    let _ = existing.join(&state);
                    *existing != before
                }
                slot @ None => {
                    *slot = Some(state.clone());
                    true
                }
            };
            if changed && !on_list[s] {
                on_list[s] = true;
                worklist.push(s);
            }
        }
    }

    // Phase 2: one reporting pass per reachable block over converged inputs.
    let mut ctx = Ctx {
        core,
        program_has_commit,
        diags,
        facts: &mut facts,
        reads: Vec::new(),
    };
    for b in 0..nblocks {
        let Some(in_state) = &ins[b] else {
            continue; // unreachable code is not analyzed
        };
        // Re-merge predecessors to localize any protocol divergence.
        let mut diverged = false;
        if b == 0 {
            let mut acc = State::entry();
            for &p in &preds[b] {
                if let Some(o) = &outs[p] {
                    diverged |= acc.join(o);
                }
            }
        } else {
            let mut acc: Option<State> = None;
            for &p in &preds[b] {
                if let Some(o) = &outs[p] {
                    match &mut acc {
                        Some(a) => diverged |= a.join(o),
                        None => acc = Some(o.clone()),
                    }
                }
            }
        }
        if diverged {
            let pc = cfg.blocks[b].start;
            ctx.diag(
                Severity::Error,
                "mtx-state-divergence",
                pc,
                "paths merging here disagree on the MTX state (one is inside a speculative \
                 transaction, the other is not, or they name different VID registers)"
                    .to_string(),
            );
        }
        let mut state = in_state.clone();
        for pc in cfg.blocks[b].start..cfg.blocks[b].end {
            step(&mut state, pc, &program.instrs()[pc], &mut ctx, true);
        }
        if cfg.blocks[b].implicit_exit {
            if let MtxState::Spec { reg, begin_pc } = state.mtx {
                let pc = cfg.blocks[b].end - 1;
                ctx.diag(
                    Severity::Error,
                    "mtx-halt-speculative",
                    pc,
                    format!(
                        "control falls off the end of the program inside the speculative MTX \
                         begun at pc {begin_pc} (beginMTX {reg}); the transaction can never \
                         commit"
                    ),
                );
            }
        }
    }
    facts
}

/// Transfers one instruction. With `emit`, also records diagnostics and
/// per-instruction facts into `ctx`.
fn step(state: &mut State, pc: usize, instr: &Instr, ctx: &mut Ctx<'_>, emit: bool) {
    if emit {
        ctx.reads.clear();
        reg_reads(instr, &mut ctx.reads);
        let mut seen: u32 = 0;
        for i in 0..ctx.reads.len() {
            let r = ctx.reads[i];
            if state.is_defined(r) || seen & (1 << r.index()) != 0 {
                continue;
            }
            seen |= 1 << r.index();
            ctx.diag(
                Severity::Warning,
                "reg-use-before-def",
                pc,
                format!("{instr} reads {r}, which no path has written (it holds the architectural zero)"),
            );
        }
    }

    match *instr {
        Instr::BeginMtx { rvid } => {
            let leaving = state.regs[rvid.index()] == AbsVal::Const(0);
            if leaving {
                if let MtxState::Spec { reg, begin_pc } = state.mtx {
                    state.mtx = MtxState::Left { reg, begin_pc };
                }
                // beginMTX(0) outside a transaction is a no-op; keep state.
            } else {
                if emit {
                    if let MtxState::Spec { reg, begin_pc } = state.mtx {
                        ctx.diag(
                            Severity::Error,
                            "mtx-begin-while-speculative",
                            pc,
                            format!(
                                "beginMTX {rvid} while the MTX begun at pc {begin_pc} \
                                 (beginMTX {reg}) is still speculative; leave it first with \
                                 beginMTX(0) or commit it"
                            ),
                        );
                    }
                }
                state.mtx = MtxState::Spec {
                    reg: rvid,
                    begin_pc: pc,
                };
                if emit && ctx.facts.first_spec_begin.is_none() {
                    ctx.facts.first_spec_begin = Some(pc);
                }
            }
        }
        Instr::CommitMtx { rvid } => {
            match state.mtx {
                MtxState::Spec { reg, begin_pc } | MtxState::Left { reg, begin_pc } => {
                    if emit && reg != rvid && !same_known_value(state, reg, rvid) {
                        ctx.diag(
                            Severity::Error,
                            "mtx-vid-mismatch",
                            pc,
                            format!(
                                "commitMTX {rvid} but the pending MTX was begun at pc \
                                 {begin_pc} with beginMTX {reg}"
                            ),
                        );
                    }
                }
                MtxState::Committed { reg } => {
                    if emit && reg == rvid {
                        ctx.diag(
                            Severity::Error,
                            "mtx-double-commit",
                            pc,
                            format!(
                                "commitMTX {rvid} but this VID register was already committed \
                                 with no beginMTX in between"
                            ),
                        );
                    }
                }
                MtxState::Fresh => {
                    if emit {
                        ctx.diag(
                            Severity::Warning,
                            "mtx-end-without-begin",
                            pc,
                            format!("commitMTX {rvid} but no MTX was ever begun on this path"),
                        );
                    }
                }
                MtxState::Idle => {}
            }
            state.mtx = MtxState::Committed { reg: rvid };
        }
        Instr::AbortMtx { rvid } => {
            // The HyTM watchdog idiom aborts with the VID-exhaustion
            // sentinel (`li T0, 0x7FFF; abortMTX T0`) to escape a starved
            // VID-space spin and re-enter through the software slow path
            // (see `hmtx_runtime::emit`). The sentinel deliberately names
            // no pending VID and is legal in any MTX state, so constant
            // propagation suppresses both naming rules for it.
            let sentinel =
                state.regs[rvid.index()] == AbsVal::Const(u64::from(VID_EXHAUSTION_SENTINEL));
            match state.mtx {
                _ if sentinel => {}
                MtxState::Spec { reg, begin_pc } | MtxState::Left { reg, begin_pc } => {
                    if emit && reg != rvid && !same_known_value(state, reg, rvid) {
                        ctx.diag(
                            Severity::Error,
                            "mtx-vid-mismatch",
                            pc,
                            format!(
                                "abortMTX {rvid} but the pending MTX was begun at pc \
                                 {begin_pc} with beginMTX {reg}"
                            ),
                        );
                    }
                }
                MtxState::Fresh => {
                    if emit {
                        ctx.diag(
                            Severity::Warning,
                            "mtx-end-without-begin",
                            pc,
                            format!("abortMTX {rvid} but no MTX was ever begun on this path"),
                        );
                    }
                }
                MtxState::Committed { .. } | MtxState::Idle => {}
            }
            // Terminator: the block has no successors, so no state to carry.
        }
        Instr::VidReset if emit => {
            if let MtxState::Spec { begin_pc, .. } = state.mtx {
                ctx.diag(
                    Severity::Error,
                    "mtx-vidreset-speculative",
                    pc,
                    format!(
                        "vidreset inside the speculative MTX begun at pc {begin_pc}; §4.6 \
                         requires all outstanding commits drained before renumbering"
                    ),
                );
            }
        }
        Instr::InitMtx { .. } if emit => {
            if let MtxState::Spec { begin_pc, .. } = state.mtx {
                ctx.diag(
                    Severity::Warning,
                    "mtx-init-speculative",
                    pc,
                    format!(
                        "initMTX inside the speculative MTX begun at pc {begin_pc}; the \
                         recovery pc update itself becomes speculative state"
                    ),
                );
            }
        }
        Instr::Halt if emit => {
            if let MtxState::Spec { reg, begin_pc } = state.mtx {
                ctx.diag(
                    Severity::Error,
                    "mtx-halt-speculative",
                    pc,
                    format!(
                        "halt inside the speculative MTX begun at pc {begin_pc} \
                         (beginMTX {reg}); the transaction can never commit"
                    ),
                );
            }
        }
        Instr::Store { base, disp, .. } if emit => {
            let line = state.regs[base.index()]
                .as_const()
                .map(|b| b.wrapping_add(disp as u64) >> 6);
            ctx.facts.stores.push(StoreFact {
                pc,
                in_mtx: matches!(state.mtx, MtxState::Spec { .. }),
                base,
                disp,
                line,
            });
        }
        _ => {}
    }

    if let Some(rd) = reg_write(instr) {
        match state.mtx {
            MtxState::Spec { reg, begin_pc } if rd == reg && emit => {
                ctx.diag(
                    Severity::Error,
                    "mtx-vid-clobber",
                    pc,
                    format!(
                        "{instr} overwrites {reg}, the VID register of the speculative MTX \
                         begun at pc {begin_pc}"
                    ),
                );
            }
            MtxState::Left { reg, begin_pc } if rd == reg && ctx.program_has_commit && emit => {
                ctx.diag(
                    Severity::Error,
                    "mtx-vid-clobber",
                    pc,
                    format!(
                        "{instr} overwrites {reg} while the MTX begun at pc {begin_pc} is \
                         pending (left but not committed); the later commitMTX {reg} will \
                         name the wrong VID"
                    ),
                );
            }
            MtxState::Committed { reg } if rd == reg => {
                // The committed VID is gone; forget it so a later commit of a
                // recomputed value is not misread as a double commit.
                state.mtx = MtxState::Idle;
            }
            _ => {}
        }
    }

    transfer_regs(state, instr);
}

/// Both registers hold the same known constant, so naming either is fine.
fn same_known_value(state: &State, a: Reg, b: Reg) -> bool {
    match (
        state.regs[a.index()].as_const(),
        state.regs[b.index()].as_const(),
    ) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmtx_isa::ProgramBuilder;

    fn analyze(p: &Program) -> (Vec<Diagnostic>, ProgramFacts) {
        let cfg = Cfg::build(p);
        let mut diags = Vec::new();
        let facts = analyze_program(0, p, &cfg, &mut diags);
        (diags, facts)
    }

    fn rules(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn clean_begin_commit_produces_no_diagnostics() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R3, 0x100000);
        b.li(Reg::R1, 1);
        b.begin_mtx(Reg::R1);
        b.li(Reg::R2, 7);
        b.store(Reg::R2, Reg::R3, 0);
        b.commit_mtx(Reg::R1);
        b.halt();
        let (diags, facts) = analyze(&b.build().unwrap());
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(facts.first_spec_begin, Some(2));
        assert!(facts.has_commit_or_abort);
        assert_eq!(facts.stores.len(), 1);
        assert!(facts.stores[0].in_mtx);
        assert_eq!(facts.stores[0].line, Some(0x100000 >> 6));
    }

    #[test]
    fn halt_while_speculative_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 1);
        b.begin_mtx(Reg::R1);
        b.halt();
        let (diags, _) = analyze(&b.build().unwrap());
        assert!(rules(&diags).contains(&"mtx-halt-speculative"), "{diags:?}");
        let d = diags
            .iter()
            .find(|d| d.rule == "mtx-halt-speculative")
            .unwrap();
        assert_eq!(d.pc, 2);
        assert!(d.message.contains("pc 1"));
    }

    #[test]
    fn leave_then_halt_is_legal_ps_dswp_stage1() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 1);
        b.begin_mtx(Reg::R1); // speculative
        b.li(Reg::R2, 0);
        b.begin_mtx(Reg::R2); // leave: constant zero
        b.halt();
        let (diags, _) = analyze(&b.build().unwrap());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn hytm_watchdog_sentinel_abort_is_legal_anywhere() {
        // The watchdog fires before any MTX was begun on the path
        // (`li T0, 0x7FFF; abortMTX T0`): no `mtx-end-without-begin`.
        let mut b = ProgramBuilder::new();
        let proceed = b.new_label();
        b.li(Reg::R2, 1);
        b.branch_imm(hmtx_isa::Cond::Eq, Reg::R2, 1, proceed);
        b.li(Reg::R1, VID_EXHAUSTION_SENTINEL as i64);
        b.abort_mtx(Reg::R1);
        b.bind(proceed).unwrap();
        b.halt();
        let (diags, _) = analyze(&b.build().unwrap());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn sentinel_abort_inside_a_pending_mtx_is_not_a_vid_mismatch() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 2);
        b.begin_mtx(Reg::R1);
        b.li(Reg::R2, VID_EXHAUSTION_SENTINEL as i64);
        b.abort_mtx(Reg::R2); // watchdog escape, not a naming bug
        let (diags, _) = analyze(&b.build().unwrap());
        assert!(!rules(&diags).contains(&"mtx-vid-mismatch"), "{diags:?}");
    }

    #[test]
    fn non_sentinel_abort_without_begin_still_warns() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 3);
        b.abort_mtx(Reg::R1);
        let (diags, _) = analyze(&b.build().unwrap());
        assert!(
            rules(&diags).contains(&"mtx-end-without-begin"),
            "{diags:?}"
        );
    }

    #[test]
    fn vid_clobber_inside_mtx_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 1);
        b.begin_mtx(Reg::R1);
        b.li(Reg::R1, 9); // clobber
        b.commit_mtx(Reg::R1);
        b.halt();
        let (diags, _) = analyze(&b.build().unwrap());
        let d = diags.iter().find(|d| d.rule == "mtx-vid-clobber").unwrap();
        assert_eq!(d.pc, 2);
    }

    #[test]
    fn use_before_def_is_a_warning_with_the_reading_pc() {
        let mut b = ProgramBuilder::new();
        b.mov(Reg::R2, Reg::R5); // r5 never written
        b.halt();
        let (diags, _) = analyze(&b.build().unwrap());
        let d = diags
            .iter()
            .find(|d| d.rule == "reg-use-before-def")
            .unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.pc, 0);
        assert!(d.message.contains("r5"), "{}", d.message);
    }

    #[test]
    fn divergent_merge_is_flagged_once() {
        let mut b = ProgramBuilder::new();
        let join = b.new_label();
        let skip = b.new_label();
        b.li(Reg::R1, 1);
        b.branch_imm(hmtx_isa::Cond::Eq, Reg::R2, 0, skip);
        b.begin_mtx(Reg::R1); // only one path begins
        b.bind(skip).unwrap();
        b.bind(join).unwrap();
        b.li(Reg::R3, 1);
        b.halt();
        let (diags, _) = analyze(&b.build().unwrap());
        let n = rules(&diags)
            .iter()
            .filter(|r| **r == "mtx-state-divergence")
            .count();
        assert_eq!(n, 1, "{diags:?}");
    }

    #[test]
    fn unreachable_code_is_not_analyzed() {
        let mut b = ProgramBuilder::new();
        b.halt();
        b.mov(Reg::R2, Reg::R5); // unreachable use-before-def
        let (diags, _) = analyze(&b.build().unwrap());
        assert!(diags.is_empty(), "{diags:?}");
    }
}
