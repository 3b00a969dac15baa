//! Figure 1: execution timing diagrams of Sequential, DOACROSS, DSWP, and
//! PS-DSWP for the first iterations of a loop.
//!
//! A small instrumented loop emits `marker` instructions at the boundaries
//! of each pipeline stage; the machine's marker log is reconstructed into
//! per-core work intervals and rendered as an ASCII Gantt chart shaped like
//! the paper's figure (`n3` = stage-1 work of iteration 3, `w3` = stage-2
//! work).

use hmtx_isa::{ProgramBuilder, Reg};
use hmtx_machine::Machine;
use hmtx_runtime::env::{regs, LoopEnv};
use hmtx_runtime::{LoopBody, Paradigm};
use hmtx_types::{BenchRef, SimError, WireParadigm, WireVariant};

use crate::runner::SimPool;

const MARK_S1_BEGIN: u32 = 10;
const MARK_S1_END: u32 = 11;
const MARK_S2_BEGIN: u32 = 20;
const MARK_S2_END: u32 = 21;

/// The paradigms Figure 1 diagrams, in render order, with their wire names.
const PARADIGMS: [(Paradigm, WireParadigm); 4] = [
    (Paradigm::Sequential, WireParadigm::Sequential),
    (Paradigm::Doacross, WireParadigm::Doacross),
    (Paradigm::Dswp, WireParadigm::Dswp),
    (Paradigm::PsDswp, WireParadigm::PsDswp),
];

/// The instrumented linked-list-style loop used for the diagram.
pub(crate) struct Fig1Loop {
    pub(crate) iters: u64,
}

impl LoopBody for Fig1Loop {
    fn iterations(&self) -> u64 {
        self.iters
    }
    fn build_image(&self, _m: &mut Machine, _env: &LoopEnv) {}
    fn emit_stage1(&self, b: &mut ProgramBuilder, env: &LoopEnv) {
        b.marker(MARK_S1_BEGIN);
        // "find the next node": a loop-carried pointer update.
        b.li(Reg::R1, env.state_slot(0).0 as i64);
        b.load(Reg::R2, Reg::R1, 0);
        b.addi(Reg::R2, Reg::R2, 1);
        b.store(Reg::R2, Reg::R1, 0);
        b.mov(regs::ITEM, Reg::R2);
        b.compute(60);
        b.li(regs::SPEC_LOADS, 1);
        b.li(regs::SPEC_STORES, 1);
        b.marker(MARK_S1_END);
    }
    fn emit_stage2(&self, b: &mut ProgramBuilder, _env: &LoopEnv) {
        b.marker(MARK_S2_BEGIN);
        // "work(node)": several times more expensive than stage 1.
        b.compute(220);
        b.shl(Reg::R3, regs::N, 6);
        b.addi(Reg::R3, Reg::R3, 0x0010_0000);
        b.store(regs::ITEM, Reg::R3, 0);
        b.li(regs::SPEC_LOADS, 1);
        b.li(regs::SPEC_STORES, 1);
        b.marker(MARK_S2_END);
    }
}

/// A reconstructed work interval.
#[derive(Debug, Clone)]
struct Interval {
    core: usize,
    start: u64,
    end: u64,
    stage1: bool,
    seq: usize, // per-core occurrence index of this stage
}

/// Renders the lane diagram of `paradigm`'s finished run.
fn render_paradigm(paradigm: Paradigm, machine: &Machine) -> String {
    // Pair begin/end markers per core.
    let mut open: std::collections::HashMap<(usize, u32), u64> = std::collections::HashMap::new();
    let mut per_core_count: std::collections::HashMap<(usize, bool), usize> =
        std::collections::HashMap::new();
    let mut intervals: Vec<Interval> = Vec::new();
    for ev in machine.marker_log() {
        match ev.id {
            MARK_S1_BEGIN | MARK_S2_BEGIN => {
                open.insert((ev.core.0, ev.id), ev.cycle);
            }
            MARK_S1_END | MARK_S2_END => {
                let begin_id = ev.id - 1;
                if let Some(start) = open.remove(&(ev.core.0, begin_id)) {
                    let stage1 = begin_id == MARK_S1_BEGIN;
                    let seq = per_core_count.entry((ev.core.0, stage1)).or_insert(0);
                    intervals.push(Interval {
                        core: ev.core.0,
                        start,
                        end: ev.cycle,
                        stage1,
                        seq: *seq,
                    });
                    *seq += 1;
                }
            }
            _ => {}
        }
    }
    if intervals.is_empty() {
        return format!("{}: (no marker events)\n", paradigm.name());
    }

    // Iteration numbering: stage-1 intervals on a core are consecutive
    // occurrences of that core's lane; map occurrence -> iteration number.
    let cores: Vec<usize> = {
        let mut c: Vec<usize> = intervals.iter().map(|i| i.core).collect();
        c.sort_unstable();
        c.dedup();
        c
    };
    let lane_of = |core: usize| cores.iter().position(|c| *c == core).unwrap();
    let iter_label = |iv: &Interval| -> usize {
        match paradigm {
            Paradigm::Sequential => iv.seq + 1,
            // DOALL/DOACROSS: core lanes own n = lane+1, lane+1+W, ...
            Paradigm::Doall | Paradigm::Doacross => lane_of(iv.core) + cores.len() * iv.seq + 1,
            // DSWP/PS-DSWP: stage 1 on core 0 in order; stage-2 workers
            // round-robin.
            Paradigm::Dswp | Paradigm::PsDswp => {
                if iv.stage1 {
                    iv.seq + 1
                } else {
                    let workers = cores.len() - 1;
                    (lane_of(iv.core) - 1) + workers * iv.seq + 1
                }
            }
        }
    };

    let t_end = intervals.iter().map(|i| i.end).max().unwrap();
    let t_begin = intervals.iter().map(|i| i.start).min().unwrap();
    let width = 72usize;
    let scale = ((t_end - t_begin).max(1) as f64) / width as f64;
    let mut out = format!("{} (cycles {t_begin}..{t_end}):\n", paradigm.name());
    for &core in &cores {
        let mut row = vec![' '; width + 4];
        for iv in intervals.iter().filter(|i| i.core == core) {
            let s = (((iv.start - t_begin) as f64) / scale) as usize;
            let e = ((((iv.end - t_begin) as f64) / scale) as usize).max(s + 1);
            let label = format!("{}{}", if iv.stage1 { 'n' } else { 'w' }, iter_label(iv));
            for (k, cell) in row.iter_mut().enumerate().take(e.min(width)).skip(s) {
                let li = k - s;
                *cell = label
                    .chars()
                    .nth(li)
                    .unwrap_or(if iv.stage1 { '-' } else { '=' });
            }
        }
        out.push_str(&format!(
            "  core{core} |{}\n",
            row.into_iter().collect::<String>()
        ));
    }
    out
}

/// Regenerates the whole Figure 1 (all four paradigms).
///
/// # Errors
///
/// Propagates [`SimError`] from any simulation run.
pub fn fig1(pool: &SimPool) -> Result<String, SimError> {
    let mut out = String::from(
        "Figure 1: execution timing of the first 5 iterations\n\
         (n = stage-1 work, w = stage-2 work; '-'/'=' continue an interval)\n\n",
    );
    let jobs = PARADIGMS.map(|(_, p)| pool.job(BenchRef::Fig1Loop, p, WireVariant::Base));
    for ((paradigm, _), result) in PARADIGMS.into_iter().zip(pool.run(&jobs)?) {
        out.push_str(&render_paradigm(paradigm, &result.machine));
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmtx_types::{WireBase, WireScale};

    fn pool() -> SimPool {
        SimPool::new(WireScale::Quick, WireBase::Test, None)
    }

    #[test]
    fn fig1_renders_all_paradigms() {
        let text = fig1(&pool()).unwrap();
        for name in ["Sequential", "DOACROSS", "DSWP", "PS-DSWP"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        assert!(text.contains("n1"));
        assert!(text.contains("w1"));
    }

    /// The number of core lanes in `name`'s diagram of Figure 1.
    fn lanes(name: &str) -> usize {
        let text = fig1(&pool()).unwrap();
        let diagram = text
            .split("\n\n")
            .find(|d| d.starts_with(&format!("{name} (")))
            .unwrap_or_else(|| panic!("no {name} diagram in:\n{text}"));
        diagram
            .lines()
            .filter(|l| l.trim_start().starts_with("core"))
            .count()
    }

    #[test]
    fn psdswp_uses_more_lanes_than_dswp() {
        assert_eq!(lanes("DSWP"), 2);
        assert!(lanes("PS-DSWP") > 2);
    }

    #[test]
    fn sequential_is_one_lane() {
        assert_eq!(lanes("Sequential"), 1);
    }
}
