//! Speculative-store escape check (`spec-store-escape`, warning).
//!
//! An MTX buffers its stores in the cache hierarchy under a speculative VID;
//! a *non-speculative* store from elsewhere in the set that hits the same
//! 64-byte line bypasses that versioning and races the eventual group
//! commit (§4 of the paper: non-speculative writes below `highVID` squash).
//! Such a store is usually a bug in emitted code, so it gets a warning.
//!
//! Aliasing is deliberately conservative to stay false-positive-free:
//!
//! * both addresses constant-foldable → compare 64-byte line indices across
//!   the whole set;
//! * otherwise → same `(core, base register, displacement)` with a
//!   non-constant base, i.e. the same symbolic address expression reused
//!   outside the transaction on the same core.
//!
//! Unknown-vs-constant pairs do **not** alias: claiming so would flag every
//! runtime-control-block store in the shipped emitters.

use hmtx_isa::Reg;
use hmtx_types::{Diagnostic, Severity};

use std::collections::BTreeMap;

use crate::mtx::ProgramFacts;

/// Runs the escape check over the set.
pub fn check_set(facts: &[ProgramFacts], diags: &mut Vec<Diagnostic>) {
    // First speculative store per constant line, across the set.
    let mut spec_lines: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    // First speculative store per symbolic (core, base, disp) key.
    let mut spec_sym: BTreeMap<(usize, usize, i64), usize> = BTreeMap::new();
    for (core, f) in facts.iter().enumerate() {
        for s in f.stores.iter().filter(|s| s.in_mtx) {
            match s.line {
                Some(line) => {
                    spec_lines.entry(line).or_insert((core, s.pc));
                }
                None => {
                    spec_sym
                        .entry((core, s.base.index(), s.disp))
                        .or_insert(s.pc);
                }
            }
        }
    }
    if spec_lines.is_empty() && spec_sym.is_empty() {
        return;
    }

    for (core, f) in facts.iter().enumerate() {
        for s in f.stores.iter().filter(|s| !s.in_mtx) {
            match s.line {
                Some(line) => {
                    if let Some(&(mcore, mpc)) = spec_lines.get(&line) {
                        diags.push(Diagnostic {
                            severity: Severity::Warning,
                            rule: "spec-store-escape",
                            core,
                            pc: s.pc,
                            message: format!(
                                "non-speculative store to line 0x{line:x} (64-byte units) \
                                 which the MTX store at core {mcore} pc {mpc} writes \
                                 speculatively; the non-speculative write races the group \
                                 commit"
                            ),
                        });
                    }
                }
                None => {
                    let key = (core, s.base.index(), s.disp);
                    if let Some(&mpc) = spec_sym.get(&key) {
                        diags.push(Diagnostic {
                            severity: Severity::Warning,
                            rule: "spec-store-escape",
                            core,
                            pc: s.pc,
                            message: format!(
                                "non-speculative store through {}{:+} which the MTX store \
                                 at pc {mpc} on this core also writes speculatively",
                                Reg::from_index(key.1),
                                s.disp
                            ),
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::mtx::analyze_program;
    use hmtx_isa::{Program, ProgramBuilder, Reg};

    fn facts_of(programs: &[Program]) -> Vec<ProgramFacts> {
        programs
            .iter()
            .enumerate()
            .map(|(core, p)| analyze_program(core, p, &Cfg::build(p), &mut Vec::new()))
            .collect()
    }

    #[test]
    fn const_line_escape_is_flagged_across_cores() {
        let mut a = ProgramBuilder::new();
        a.li(Reg::R1, 1);
        a.begin_mtx(Reg::R1);
        a.li(Reg::R2, 0x100000);
        a.li(Reg::R3, 7);
        a.store(Reg::R3, Reg::R2, 0); // speculative, line 0x4000
        a.commit_mtx(Reg::R1);
        a.halt();
        let mut b = ProgramBuilder::new();
        b.li(Reg::R2, 0x100008);
        b.li(Reg::R3, 9);
        b.store(Reg::R3, Reg::R2, 0); // non-speculative, same line
        b.halt();
        let facts = facts_of(&[a.build().unwrap(), b.build().unwrap()]);
        let mut diags = Vec::new();
        check_set(&facts, &mut diags);
        let d = diags
            .iter()
            .find(|d| d.rule == "spec-store-escape")
            .unwrap();
        assert_eq!((d.core, d.pc), (1, 2));
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn distinct_lines_do_not_alias() {
        let mut a = ProgramBuilder::new();
        a.li(Reg::R1, 1);
        a.begin_mtx(Reg::R1);
        a.li(Reg::R2, 0x100000);
        a.store(Reg::R2, Reg::R2, 0);
        a.commit_mtx(Reg::R1);
        a.li(Reg::R4, 0x10000);
        a.store(Reg::R2, Reg::R4, 0); // different line, non-speculative
        a.halt();
        let facts = facts_of(&[a.build().unwrap()]);
        let mut diags = Vec::new();
        check_set(&facts, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn symbolic_base_reuse_on_same_core_is_flagged() {
        let mut a = ProgramBuilder::new();
        a.consume(Reg::R5, hmtx_types::QueueId(0)); // unknown base
        a.li(Reg::R1, 1);
        a.begin_mtx(Reg::R1);
        a.store(Reg::R1, Reg::R5, 8); // speculative via r5+8
        a.li(Reg::R6, 0);
        a.begin_mtx(Reg::R6); // leave
        a.commit_mtx(Reg::R1);
        a.store(Reg::R1, Reg::R5, 8); // same symbolic address, non-spec
        a.halt();
        let facts = facts_of(&[a.build().unwrap()]);
        let mut diags = Vec::new();
        check_set(&facts, &mut diags);
        let d = diags
            .iter()
            .find(|d| d.rule == "spec-store-escape")
            .unwrap();
        assert_eq!((d.core, d.pc), (0, 7));
        assert!(d.message.contains("r5+8"), "{}", d.message);
    }

    #[test]
    fn unknown_vs_const_does_not_alias() {
        let mut a = ProgramBuilder::new();
        a.consume(Reg::R5, hmtx_types::QueueId(0));
        a.li(Reg::R1, 1);
        a.begin_mtx(Reg::R1);
        a.store(Reg::R1, Reg::R5, 0); // speculative, unknown address
        a.commit_mtx(Reg::R1);
        a.li(Reg::R2, 0x10000);
        a.store(Reg::R1, Reg::R2, 0); // constant RCB store
        a.halt();
        let facts = facts_of(&[a.build().unwrap()]);
        let mut diags = Vec::new();
        check_set(&facts, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
