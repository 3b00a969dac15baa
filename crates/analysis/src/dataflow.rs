//! Abstract domains shared by the per-program passes.
//!
//! Three facts are tracked jointly in one forward dataflow state:
//!
//! * a per-register constant lattice ([`AbsVal`]) — needed to recognise the
//!   runtime's `li T0, 0; beginMTX T0` "leave transaction" idiom and to
//!   resolve store addresses for the escape check;
//! * a per-register *defined on every path* bit — reads outside it observe
//!   the architectural zero a thread starts with, which is legal but almost
//!   always a bug in emitted code (`reg-use-before-def`);
//! * the MTX protocol state ([`MtxState`]) — drives the `mtx-*` rules.

use hmtx_isa::{Instr, Operand, Reg};

/// Abstract register value. There is no explicit bottom: the analysis only
/// visits reachable code, and thread registers start as architectural zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsVal {
    /// Known constant on every path reaching this point.
    Const(u64),
    /// Not a single compile-time constant.
    Unknown,
}

impl AbsVal {
    /// Join of two values (equal constants survive, anything else widens).
    pub fn join(self, other: AbsVal) -> AbsVal {
        match (self, other) {
            (AbsVal::Const(a), AbsVal::Const(b)) if a == b => AbsVal::Const(a),
            _ => AbsVal::Unknown,
        }
    }

    /// The constant, if known.
    pub fn as_const(self) -> Option<u64> {
        match self {
            AbsVal::Const(c) => Some(c),
            AbsVal::Unknown => None,
        }
    }
}

/// MTX protocol state of one core along one control path (§3.1/§4.5 of the
/// paper as embodied by `crates/machine`).
///
/// `Left` models the PS-DSWP stage-1 idiom: the core executed
/// `beginMTX(0)` to return to non-speculative execution while its earlier
/// transaction stays *pending* for another core to commit. `Idle` is the
/// don't-know top element produced by merging heterogeneous paths; every
/// operation is allowed from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MtxState {
    /// No MTX instruction executed yet on this path.
    Fresh,
    /// Inside a speculative MTX begun at `begin_pc` with `beginMTX(reg)`.
    Spec {
        /// Register that held the VID at the begin.
        reg: Reg,
        /// pc of the `beginMTX`.
        begin_pc: usize,
    },
    /// Began an MTX, then returned to non-speculative via `beginMTX(0)`;
    /// the transaction is still pending (uncommitted).
    Left {
        /// Register that held the VID at the original begin.
        reg: Reg,
        /// pc of the original `beginMTX`.
        begin_pc: usize,
    },
    /// The most recent MTX was committed with `commitMTX(reg)`.
    Committed {
        /// Register named by the commit.
        reg: Reg,
    },
    /// Merged / unknown non-speculative state; checks are suppressed.
    Idle,
}

impl MtxState {
    /// Joins two path states. Returns the merged state plus `true` when the
    /// merge is a protocol divergence worth reporting: one path is inside a
    /// speculative MTX and the other is not (or names a different VID
    /// register), so whatever follows the join point cannot be correct on
    /// both paths.
    pub fn join(self, other: MtxState) -> (MtxState, bool) {
        use MtxState::*;
        if self == other {
            return (self, false);
        }
        match (self, other) {
            // Same begin site reached with consistent facts: keep the
            // earlier begin_pc for stable diagnostics.
            (
                Spec {
                    reg: a,
                    begin_pc: pa,
                },
                Spec {
                    reg: b,
                    begin_pc: pb,
                },
            ) if a == b => (
                Spec {
                    reg: a,
                    begin_pc: pa.min(pb),
                },
                false,
            ),
            (Spec { .. }, _) | (_, Spec { .. }) => (Idle, true),
            (
                Left {
                    reg: a,
                    begin_pc: pa,
                },
                Left {
                    reg: b,
                    begin_pc: pb,
                },
            ) if a == b => (
                Left {
                    reg: a,
                    begin_pc: pa.min(pb),
                },
                false,
            ),
            _ => (Idle, false),
        }
    }
}

/// Joint dataflow state at a program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    /// Abstract value of each register.
    pub regs: [AbsVal; Reg::COUNT],
    /// Bit `r` set: register `r` has been written on *every* path here.
    pub defined: u32,
    /// MTX protocol state.
    pub mtx: MtxState,
}

impl State {
    /// The state a thread starts in: all registers architectural zero,
    /// nothing program-defined, no MTX activity.
    pub fn entry() -> State {
        State {
            regs: [AbsVal::Const(0); Reg::COUNT],
            defined: 0,
            mtx: MtxState::Fresh,
        }
    }

    /// Whether `r` has a definition on every path.
    pub fn is_defined(&self, r: Reg) -> bool {
        self.defined & (1 << r.index()) != 0
    }

    /// Records a write of `r` with abstract value `v`.
    pub fn define(&mut self, r: Reg, v: AbsVal) {
        self.regs[r.index()] = v;
        self.defined |= 1 << r.index();
    }

    /// Abstract value of operand `o`.
    pub fn operand(&self, o: Operand) -> AbsVal {
        match o {
            Operand::Reg(r) => self.regs[r.index()],
            Operand::Imm(i) => AbsVal::Const(i as u64),
        }
    }

    /// Joins another path's state into this one. Returns `true` when the
    /// MTX-state merge is a reportable divergence (see [`MtxState::join`]).
    #[must_use]
    pub fn join(&mut self, other: &State) -> bool {
        for (mine, theirs) in self.regs.iter_mut().zip(other.regs.iter()) {
            *mine = mine.join(*theirs);
        }
        self.defined &= other.defined;
        let (merged, diverged) = self.mtx.join(other.mtx);
        self.mtx = merged;
        diverged
    }
}

/// Appends every register `instr` reads to `out`.
pub fn reg_reads(instr: &Instr, out: &mut Vec<Reg>) {
    match *instr {
        Instr::Mov { rs, .. } | Instr::Out { rs } | Instr::Produce { rs, .. } => out.push(rs),
        Instr::Alu { rs, rhs, .. } => {
            out.push(rs);
            if let Operand::Reg(r) = rhs {
                out.push(r);
            }
        }
        Instr::Load { base, .. } => out.push(base),
        Instr::Store { rs, base, .. } => {
            out.push(rs);
            out.push(base);
        }
        Instr::Branch { rs, rhs, .. } => {
            out.push(rs);
            if let Operand::Reg(r) = rhs {
                out.push(r);
            }
        }
        Instr::Compute { amount } => {
            if let Operand::Reg(r) = amount {
                out.push(r);
            }
        }
        Instr::BeginMtx { rvid } | Instr::CommitMtx { rvid } | Instr::AbortMtx { rvid } => {
            out.push(rvid)
        }
        Instr::Li { .. }
        | Instr::Jump { .. }
        | Instr::Halt
        | Instr::InitMtx { .. }
        | Instr::VidReset
        | Instr::Consume { .. }
        | Instr::Marker { .. } => {}
    }
}

/// The register `instr` writes, if any.
pub fn reg_write(instr: &Instr) -> Option<Reg> {
    match *instr {
        Instr::Li { rd, .. }
        | Instr::Mov { rd, .. }
        | Instr::Alu { rd, .. }
        | Instr::Load { rd, .. }
        | Instr::Consume { rd, .. } => Some(rd),
        _ => None,
    }
}

/// Constant-propagation transfer for `instr` (register effects only; the
/// caller handles diagnostics and MTX state).
pub fn transfer_regs(state: &mut State, instr: &Instr) {
    match *instr {
        Instr::Li { rd, imm } => state.define(rd, AbsVal::Const(imm as u64)),
        Instr::Mov { rd, rs } => {
            let v = state.regs[rs.index()];
            state.define(rd, v);
        }
        Instr::Alu { op, rd, rs, rhs } => {
            let v = match (
                state.regs[rs.index()].as_const(),
                state.operand(rhs).as_const(),
            ) {
                (Some(a), Some(b)) => AbsVal::Const(op.apply(a, b)),
                _ => AbsVal::Unknown,
            };
            state.define(rd, v);
        }
        Instr::Load { rd, .. } | Instr::Consume { rd, .. } => state.define(rd, AbsVal::Unknown),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmtx_isa::AluOp;

    #[test]
    fn constants_fold_through_alu() {
        let mut s = State::entry();
        transfer_regs(
            &mut s,
            &Instr::Li {
                rd: Reg::R1,
                imm: 6,
            },
        );
        transfer_regs(
            &mut s,
            &Instr::Alu {
                op: AluOp::Mul,
                rd: Reg::R2,
                rs: Reg::R1,
                rhs: Operand::Imm(7),
            },
        );
        assert_eq!(s.regs[2], AbsVal::Const(42));
        assert!(s.is_defined(Reg::R2));
    }

    #[test]
    fn loads_widen_to_unknown() {
        let mut s = State::entry();
        transfer_regs(
            &mut s,
            &Instr::Load {
                rd: Reg::R3,
                base: Reg::R0,
                disp: 0,
            },
        );
        assert_eq!(s.regs[3], AbsVal::Unknown);
        assert!(s.is_defined(Reg::R3));
    }

    #[test]
    fn join_intersects_defined_and_widens_differing_consts() {
        let mut a = State::entry();
        a.define(Reg::R1, AbsVal::Const(1));
        a.define(Reg::R2, AbsVal::Const(5));
        let mut b = State::entry();
        b.define(Reg::R1, AbsVal::Const(2));
        let diverged = a.join(&b);
        assert!(!diverged);
        assert_eq!(a.regs[1], AbsVal::Unknown);
        assert!(a.is_defined(Reg::R1));
        assert!(!a.is_defined(Reg::R2), "defined only on one path");
        assert_eq!(
            a.regs[2],
            AbsVal::Unknown,
            "5 on one path, architectural 0 on the other"
        );
    }

    #[test]
    fn mtx_join_flags_spec_vs_nonspec() {
        let spec = MtxState::Spec {
            reg: Reg::R24,
            begin_pc: 3,
        };
        let (merged, d) = spec.join(MtxState::Fresh);
        assert_eq!(merged, MtxState::Idle);
        assert!(d);

        let (merged, d) = spec.join(spec);
        assert_eq!(merged, spec);
        assert!(!d);

        let other = MtxState::Spec {
            reg: Reg::R1,
            begin_pc: 9,
        };
        let (_, d) = spec.join(other);
        assert!(d, "different VID registers diverge");
    }

    #[test]
    fn mtx_join_left_and_committed_coalesce_silently() {
        let left = MtxState::Left {
            reg: Reg::R24,
            begin_pc: 2,
        };
        let (m, d) = left.join(MtxState::Committed { reg: Reg::R24 });
        assert_eq!(m, MtxState::Idle);
        assert!(!d);
        let (m, d) = MtxState::Fresh.join(left);
        assert_eq!(m, MtxState::Idle);
        assert!(!d);
    }

    #[test]
    fn reads_and_writes_enumerate_operands() {
        let mut reads = Vec::new();
        reg_reads(
            &Instr::Store {
                rs: Reg::R1,
                base: Reg::R2,
                disp: 8,
            },
            &mut reads,
        );
        assert_eq!(reads, vec![Reg::R1, Reg::R2]);
        assert_eq!(
            reg_write(&Instr::Consume {
                rd: Reg::R5,
                q: hmtx_types::QueueId(1),
            }),
            Some(Reg::R5)
        );
        assert_eq!(reg_write(&Instr::Halt), None);
    }
}
