//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§6) from fresh simulations, plus the ablations
//! called out in `DESIGN.md`.
//!
//! Experiments are expressed as wire-format [`hmtx_types::JobSpec`]s — the
//! same job vocabulary `hmtx-serve` caches by content key — executed
//! through a memoizing [`runner::SimPool`]. Each `fig*`/`table*` function (and
//! [`ablations`], [`extensions`]) builds the one list of jobs its rows
//! need, runs it with [`runner::SimPool::run`] — which simulates the jobs
//! not yet cached across host threads and returns every result in list
//! order — and computes structured rows from that list. The rendered
//! output is therefore byte-identical whatever the thread count, and a
//! simulation shared by several figures runs exactly once.
//! [`Section::render`] formats a section as the text the `experiments`
//! binary prints (and `EXPERIMENTS.md` records); [`report`] serializes the
//! same rows as JSON.

#![warn(missing_docs)]

use std::sync::Arc;

use hmtx_machine::Machine;
use hmtx_power::{geomean, PowerModel};
use hmtx_runtime::speedup;
use hmtx_types::{
    BenchRef, JobSpec, MachineConfig, SimError, VictimPolicy, WireParadigm, WireVariant,
};
use hmtx_workloads::{suite, Workload, WorkloadMeta};

pub mod fig1;
pub mod jobspec;
pub mod report;
pub mod runner;

pub use jobspec::{materialize, render_report, run_job, run_job_report, standard_sweep};

use runner::{JobResult, SimPool};

/// Instruction budget for harness runs (generous; guards livelock only).
pub const BUDGET: u64 = 20_000_000_000;

// ------------------------------------------------------------ the sections

/// One printable section of the `experiments` output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Table 2 (the architectural configuration; no simulations).
    Table2,
    /// Figure 1 timing diagrams.
    Fig1,
    /// Figure 2 SMTX speedups.
    Fig2,
    /// Figure 8 hot-loop speedups.
    Fig8,
    /// Figure 9 read/write set sizes.
    Fig9,
    /// Table 1 speculative execution statistics.
    Table1,
    /// Table 3 area/power/energy.
    Table3,
    /// Ablations A–D.
    Ablations,
    /// §8 extensions and the §2.1 latency sweep.
    Extensions,
}

impl Section {
    /// Every section, in the canonical output order of `experiments all`.
    pub const ALL: [Section; 9] = [
        Section::Table2,
        Section::Fig1,
        Section::Fig2,
        Section::Fig8,
        Section::Fig9,
        Section::Table1,
        Section::Table3,
        Section::Ablations,
        Section::Extensions,
    ];

    /// The CLI name (`experiments <name>`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Section::Table2 => "table2",
            Section::Fig1 => "fig1",
            Section::Fig2 => "fig2",
            Section::Fig8 => "fig8",
            Section::Fig9 => "fig9",
            Section::Table1 => "table1",
            Section::Table3 => "table3",
            Section::Ablations => "ablations",
            Section::Extensions => "extensions",
        }
    }

    /// Parses a CLI name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Section> {
        Section::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Runs this section's simulations on `pool` and renders the text
    /// `experiments` prints for it: each of its tables, followed by a
    /// blank line.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from any simulation run.
    pub fn render(&self, pool: &SimPool) -> Result<String, SimError> {
        let tables = match self {
            Section::Table2 => vec![render_table2(pool.base_cfg())],
            Section::Fig1 => vec![fig1::fig1(pool)?],
            Section::Fig2 => vec![render_fig2(&fig2(pool)?)],
            Section::Fig8 => {
                let (rows, summary) = fig8(pool)?;
                vec![render_fig8(&rows, &summary)]
            }
            Section::Fig9 => vec![render_fig9(&fig9(pool)?)],
            Section::Table1 => vec![render_table1(&table1(pool)?)],
            Section::Table3 => vec![render_table3(&table3(pool)?)],
            Section::Ablations => ablations(pool)?.iter().map(render_ablation).collect(),
            Section::Extensions => {
                let e = extensions(pool)?;
                vec![
                    render_ablation(&e.unbounded),
                    render_scaling(&e.scaling),
                    render_latency(&e.latency),
                ]
            }
        };
        Ok(tables.into_iter().map(|t| t + "\n").collect())
    }
}

/// The base-configuration job of suite workload `index` under `paradigm`.
fn suite_job(pool: &SimPool, index: usize, paradigm: WireParadigm) -> JobSpec {
    pool.job(BenchRef::Suite(index as u32), paradigm, WireVariant::Base)
}

/// Every suite workload's metadata, with the result of its
/// base-configuration run under `paradigm`.
fn suite_runs(
    pool: &SimPool,
    paradigm: WireParadigm,
) -> Result<Vec<(WorkloadMeta, Arc<JobResult>)>, SimError> {
    let ws = suite(pool.scale());
    let jobs: Vec<JobSpec> = (0..ws.len())
        .map(|i| suite_job(pool, i, paradigm))
        .collect();
    Ok(ws.iter().map(|w| w.meta()).zip(pool.run(&jobs)?).collect())
}

/// Suite indices of the workloads with an SMTX port to compare against.
fn comparable(ws: &[Box<dyn Workload>]) -> Vec<usize> {
    (0..ws.len())
        .filter(|&i| ws[i].meta().smtx_comparable)
        .collect()
}

/// Suite indices the ablations run on (130.li and 256.bzip2 for commit
/// processing; 130.li and 186.crafty for SLAs; see `suite()` ordering).
const ABLATION_COMMIT_BENCHES: [usize; 2] = [1, 5];
const ABLATION_SLA_BENCHES: [usize; 2] = [1, 3];
/// 197.parser.
const VID_WIDTH_BENCH: usize = 4;
const VID_WIDTH_SWEEP: [u32; 5] = [3, 4, 5, 6, 8];
/// 256.bzip2: the largest footprint.
const VICTIM_BENCH: usize = 5;
const SCALING_CORES: [u32; 4] = [4, 8, 16, 32];
/// ispell: tiny iterations, so per-iteration communication dominates.
const LATENCY_BENCH: usize = 7;
const LATENCY_SWEEP: [u64; 4] = [10, 30, 100, 300];

// ------------------------------------------------------------------ Figure 2

/// One bar pair of Figure 2: SMTX whole-program speedup with minimal vs
/// substantial read/write sets.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Benchmark name.
    pub name: String,
    /// Whole-program speedup with the expert-minimized R/W set.
    pub minimal: f64,
    /// Whole-program speedup with validation on shared data accesses.
    pub substantial: f64,
}

/// Whole-program speedup via Amdahl's law from the hot-loop speedup and the
/// benchmark's hot-loop fraction (Table 1).
pub fn whole_program_speedup(hot_fraction: f64, hot_speedup: f64) -> f64 {
    1.0 / ((1.0 - hot_fraction) + hot_fraction / hot_speedup)
}

/// Regenerates Figure 2 over the SMTX-comparable benchmarks.
///
/// # Errors
///
/// Propagates [`SimError`] from any simulation run.
pub fn fig2(pool: &SimPool) -> Result<Vec<Fig2Row>, SimError> {
    let ws = suite(pool.scale());
    let comparable = comparable(&ws);
    let jobs: Vec<JobSpec> = comparable
        .iter()
        .flat_map(|&i| {
            [
                WireParadigm::Sequential,
                WireParadigm::SmtxMin,
                WireParadigm::SmtxSub,
            ]
            .map(|p| suite_job(pool, i, p))
        })
        .collect();
    let results = pool.run(&jobs)?;
    Ok(comparable
        .iter()
        .zip(results.chunks_exact(3))
        .map(|(&i, r)| {
            let meta = ws[i].meta();
            let f = meta.paper.hot_loop_fraction;
            Fig2Row {
                name: meta.name.to_string(),
                minimal: whole_program_speedup(f, speedup(r[0].cycles, r[1].cycles)),
                substantial: whole_program_speedup(f, speedup(r[0].cycles, r[2].cycles)),
            }
        })
        .collect())
}

/// Renders Figure 2 as a text table.
pub fn render_fig2(rows: &[Fig2Row]) -> String {
    let mut out = String::from(
        "Figure 2: SMTX whole-program speedup over sequential (4 cores)\n\
         benchmark        minimal R/W set   substantial R/W set\n",
    );
    let full = rows
        .iter()
        .map(|r| r.minimal.max(r.substantial))
        .fold(1.0f64, f64::max);
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>15.2}x {:>19.2}x  |{}\n",
            r.name,
            r.minimal,
            r.substantial,
            bar(r.substantial, full)
        ));
    }
    let g_min = geomean(&rows.iter().map(|r| r.minimal).collect::<Vec<_>>());
    let g_sub = geomean(&rows.iter().map(|r| r.substantial).collect::<Vec<_>>());
    out.push_str(&format!(
        "{:<16} {g_min:>15.2}x {g_sub:>19.2}x\n",
        "geomean"
    ));
    out
}

// ------------------------------------------------------------------ Figure 8

/// One bar pair of Figure 8: hot-loop speedups over sequential.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Benchmark name.
    pub name: String,
    /// SMTX (minimal R/W set) hot-loop speedup, if the benchmark has an
    /// SMTX port.
    pub smtx: Option<f64>,
    /// HMTX (maximal R/W set: every load and store validated) speedup.
    pub hmtx: f64,
    /// HyTM (bounded HMTX fast path with SMTX software fallback) speedup.
    pub hytm: f64,
    /// HyTM fast/slow-path mix for this workload.
    pub hytm_mix: Option<hmtx_runtime::HytmMix>,
}

/// Summary of Figure 8's geomeans.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Summary {
    /// HMTX geomean over all 8 benchmarks (paper: 1.99x).
    pub hmtx_all: f64,
    /// HMTX geomean over the 6 SMTX-comparable benchmarks (paper: 2.02x).
    pub hmtx_comparable: f64,
    /// SMTX geomean over the comparable benchmarks (paper: 1.44x).
    pub smtx_comparable: f64,
    /// HyTM geomean over all 8 benchmarks.
    pub hytm_all: f64,
}

/// Regenerates Figure 8.
///
/// # Errors
///
/// Propagates [`SimError`] from any simulation run.
pub fn fig8(pool: &SimPool) -> Result<(Vec<Fig8Row>, Fig8Summary), SimError> {
    let ws = suite(pool.scale());
    let n = ws.len();
    let comparable = comparable(&ws);
    // The slowest paradigm first: the pool deals jobs out in list order,
    // so a batch that ends on short jobs leaves no thread idle for long.
    let jobs: Vec<JobSpec> = [
        WireParadigm::Hytm,
        WireParadigm::Paper,
        WireParadigm::Sequential,
    ]
    .into_iter()
    .flat_map(|p| (0..n).map(move |i| suite_job(pool, i, p)))
    .chain(
        comparable
            .iter()
            .map(|&i| suite_job(pool, i, WireParadigm::SmtxMin)),
    )
    .collect();
    let results = pool.run(&jobs)?;
    let (hytm, rest) = results.split_at(n);
    let (hmtx, rest) = rest.split_at(n);
    let (seq, smtx) = rest.split_at(n);
    let rows: Vec<Fig8Row> = ws
        .iter()
        .enumerate()
        .map(|(i, w)| Fig8Row {
            name: w.meta().name.to_string(),
            smtx: comparable
                .iter()
                .position(|&c| c == i)
                .map(|k| speedup(seq[i].cycles, smtx[k].cycles)),
            hmtx: speedup(seq[i].cycles, hmtx[i].cycles),
            hytm: speedup(seq[i].cycles, hytm[i].cycles),
            hytm_mix: hytm[i].report.as_ref().and_then(|r| r.hytm),
        })
        .collect();
    let hmtx_all: Vec<f64> = rows.iter().map(|r| r.hmtx).collect();
    let hytm_all: Vec<f64> = rows.iter().map(|r| r.hytm).collect();
    let hmtx_comp: Vec<f64> = rows
        .iter()
        .filter(|r| r.smtx.is_some())
        .map(|r| r.hmtx)
        .collect();
    let smtx_comp: Vec<f64> = rows.iter().filter_map(|r| r.smtx).collect();
    let summary = Fig8Summary {
        hmtx_all: geomean(&hmtx_all),
        hmtx_comparable: geomean(&hmtx_comp),
        smtx_comparable: geomean(&smtx_comp),
        hytm_all: geomean(&hytm_all),
    };
    Ok((rows, summary))
}

/// A proportional ASCII bar (40 columns = `full`).
fn bar(value: f64, full: f64) -> String {
    let cols = ((value / full) * 40.0).round().max(0.0) as usize;
    "#".repeat(cols.min(60))
}

/// Renders Figure 8 as a text table with proportional bars.
pub fn render_fig8(rows: &[Fig8Row], s: &Fig8Summary) -> String {
    let mut out = String::from(
        "Figure 8: hot-loop speedup over sequential (4 cores)\n\
         benchmark        SMTX (min R/W)    HMTX (max R/W)    HyTM (hybrid)\n",
    );
    let full = rows.iter().map(|r| r.hmtx).fold(1.0f64, f64::max);
    for r in rows {
        let smtx = r
            .smtx
            .map_or("     --".to_string(), |v| format!("{v:>6.2}x"));
        out.push_str(&format!(
            "{:<16} {:>14} {:>16.2}x {:>15.2}x  |{}\n",
            r.name,
            smtx,
            r.hmtx,
            r.hytm,
            bar(r.hmtx, full)
        ));
    }
    out.push_str(&format!(
        "{:<16} {:>13.2}x {:>16.2}x {:>15}\n",
        "geomean (comp.)", s.smtx_comparable, s.hmtx_comparable, "--"
    ));
    out.push_str(&format!(
        "{:<16} {:>14} {:>16.2}x {:>15.2}x\n",
        "geomean (all)", "--", s.hmtx_all, s.hytm_all
    ));
    out
}

// ------------------------------------------------------------------ Figure 9

/// One bar triple of Figure 9: average per-transaction set sizes in kB.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Benchmark name.
    pub name: String,
    /// Average read-set size (kB).
    pub read_kb: f64,
    /// Average write-set size (kB).
    pub write_kb: f64,
    /// Average combined-set size (kB).
    pub combined_kb: f64,
}

/// Regenerates Figure 9 from the HMTX runs' per-VID distinct-line tracking.
///
/// # Errors
///
/// Propagates [`SimError`] from any simulation run.
pub fn fig9(pool: &SimPool) -> Result<Vec<Fig9Row>, SimError> {
    Ok(suite_runs(pool, WireParadigm::Paper)?
        .iter()
        .map(|(w, r)| {
            let t = r.machine.mem().stats().rw_totals();
            Fig9Row {
                name: w.name.to_string(),
                read_kb: t.avg_read_kb(),
                write_kb: t.avg_write_kb(),
                combined_kb: t.avg_combined_kb(),
            }
        })
        .collect())
}

/// Renders Figure 9 as a text table.
pub fn render_fig9(rows: &[Fig9Row]) -> String {
    let mut out = String::from(
        "Figure 9: average read/write set size per transaction (kB)\n\
         benchmark             read     write  combined\n",
    );
    let full = rows.iter().map(|r| r.combined_kb).fold(1.0f64, f64::max);
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>9.2} {:>9.2} {:>9.2}  |{}\n",
            r.name,
            r.read_kb,
            r.write_kb,
            r.combined_kb,
            bar(r.combined_kb, full)
        ));
    }
    let g = geomean(
        &rows
            .iter()
            .map(|r| r.combined_kb.max(1e-3))
            .collect::<Vec<_>>(),
    );
    out.push_str(&format!(
        "{:<16} {:>9} {:>9} {:>9.2}\n",
        "geomean", "", "", g
    ));
    out
}

// ------------------------------------------------------------------ Table 1

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// Paradigm name.
    pub paradigm: &'static str,
    /// Average speculative accesses per transaction.
    pub spec_accesses_per_tx: f64,
    /// Aborts avoided via SLA per transaction.
    pub sla_aborts_avoided_per_tx: f64,
    /// Fraction of speculative loads needing an SLA.
    pub loads_needing_sla: f64,
    /// Fraction of instructions that are branches.
    pub branch_fraction: f64,
    /// Branch misprediction rate.
    pub mispredict_rate: f64,
}

/// Regenerates Table 1's measured columns from the HMTX runs.
///
/// # Errors
///
/// Propagates [`SimError`] from any simulation run.
pub fn table1(pool: &SimPool) -> Result<Vec<Table1Row>, SimError> {
    Ok(suite_runs(pool, WireParadigm::Paper)?
        .iter()
        .map(|(w, r)| {
            let mem = r.machine.mem().stats();
            let ms = r.machine.stats();
            let txs = mem.commits.max(1) as f64;
            Table1Row {
                name: w.name.to_string(),
                paradigm: w.paradigm.name(),
                spec_accesses_per_tx: (mem.spec_loads + mem.spec_stores) as f64 / txs,
                sla_aborts_avoided_per_tx: mem.sla_aborts_avoided as f64 / txs,
                loads_needing_sla: mem.slas_sent as f64 / (mem.spec_loads.max(1)) as f64,
                branch_fraction: ms.branch_fraction(),
                mispredict_rate: ms.mispredict_rate(),
            }
        })
        .collect())
}

/// Renders Table 1 as text.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::from(
        "Table 1: speculative execution statistics (measured)\n\
         benchmark        paradigm    spec acc/TX  SLA-avoided/TX  %loads SLA  %branch  mispred%\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:<10} {:>12.1} {:>15.3} {:>10.2}% {:>7.1}% {:>8.2}%\n",
            r.name,
            r.paradigm,
            r.spec_accesses_per_tx,
            r.sla_aborts_avoided_per_tx,
            r.loads_needing_sla * 100.0,
            r.branch_fraction * 100.0,
            r.mispredict_rate * 100.0
        ));
    }
    out
}

// ------------------------------------------------------------------ Table 2

/// Renders Table 2 (the architectural configuration).
pub fn render_table2(cfg: &MachineConfig) -> String {
    format!(
        "Table 2: architectural configuration\n\
         Cores                  {} (in-order, min-clock scheduled)\n\
         Clock                  2.0 GHz\n\
         L1 D-cache             {} KB, {}-way, {}-cycle\n\
         Shared L2              {} MB, {}-way, {}-cycle\n\
         Line size              64 B\n\
         Base protocol          MOESI (snoopy)\n\
         Memory latency         {} cycles\n\
         VID width              {} bits (max VID {})\n\
         Branch predictor       gshare(14) + loop predictor\n",
        cfg.num_cores,
        cfg.l1.size_bytes / 1024,
        cfg.l1.ways,
        cfg.l1.latency,
        cfg.l2.size_bytes / 1024 / 1024,
        cfg.l2.ways,
        cfg.l2.latency,
        cfg.mem_latency,
        cfg.hmtx.vid_bits,
        cfg.hmtx.max_vid().0,
    )
}

// ------------------------------------------------------------------ Table 3

/// One row of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Hardware platform description.
    pub hardware: &'static str,
    /// Execution model description.
    pub exec_model: String,
    /// Die area (mm²).
    pub area_mm2: f64,
    /// Leakage (W).
    pub leakage_w: f64,
    /// Geomean runtime dynamic power (W).
    pub dynamic_w: f64,
    /// Geomean energy (J).
    pub energy_j: f64,
}

/// Regenerates Table 3: area/leakage and geomean dynamic power/energy for
/// sequential, SMTX (minimal), and HMTX (maximal) execution on commodity
/// and HMTX-extended hardware.
///
/// # Errors
///
/// Propagates [`SimError`] from any simulation run.
pub fn table3(pool: &SimPool) -> Result<Vec<Table3Row>, SimError> {
    let cfg = pool.base_cfg();
    let commodity = PowerModel::commodity(cfg);
    let hmtx_hw = PowerModel::with_hmtx(cfg);

    let ws = suite(pool.scale());
    let n = ws.len();
    let jobs: Vec<JobSpec> = [WireParadigm::Sequential, WireParadigm::Paper]
        .into_iter()
        .flat_map(|p| (0..n).map(move |i| suite_job(pool, i, p)))
        .chain(
            comparable(&ws)
                .into_iter()
                .map(|i| suite_job(pool, i, WireParadigm::SmtxMin)),
        )
        .collect();
    let results = pool.run(&jobs)?;
    let (seq_runs, rest) = results.split_at(n);
    let (hmtx_runs, smtx_runs) = rest.split_at(n);
    let comparable: Vec<bool> = ws.iter().map(|w| w.meta().smtx_comparable).collect();

    let eval = |model: &PowerModel, runs: &[Arc<JobResult>], mask: Option<&[bool]>| {
        let reports: Vec<_> = runs
            .iter()
            .enumerate()
            .filter(|(i, _)| mask.is_none_or(|m| m[*i]))
            .map(|(_, r)| model.evaluate(&r.machine))
            .collect();
        let dyn_w = geomean(&reports.iter().map(|r| r.dynamic_w).collect::<Vec<_>>());
        let energy = geomean(&reports.iter().map(|r| r.energy_j).collect::<Vec<_>>());
        (dyn_w, energy)
    };

    let mut rows = Vec::new();
    for (model, hw) in [(&commodity, "Commodity"), (&hmtx_hw, "Commodity+HMTX")] {
        let mut push = |exec_model: String, d: f64, e: f64| {
            rows.push(Table3Row {
                hardware: hw,
                exec_model,
                area_mm2: model.area_mm2(),
                leakage_w: model.leakage_w(),
                dynamic_w: d,
                energy_j: e,
            });
        };
        let (d, e) = eval(model, seq_runs, None);
        push("Sequential (All)".into(), d, e);
        let (d, e) = eval(model, seq_runs, Some(&comparable));
        push("Sequential (Comp.)".into(), d, e);
        let (d, e) = eval(model, smtx_runs, None);
        push("SMTX, Min R/W".into(), d, e);
        if model.is_hmtx() {
            let (d, e) = eval(model, hmtx_runs, None);
            push("HMTX, Max R/W (All)".into(), d, e);
            let (d, e) = eval(model, hmtx_runs, Some(&comparable));
            push("HMTX, Max R/W (Comp.)".into(), d, e);
        }
    }
    Ok(rows)
}

/// Renders Table 3 as text.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut out = String::from(
        "Table 3: area, power, and energy (geomeans over benchmark runs)\n\
         hardware         exec model              area(mm^2)  leak(W)  dyn(W)  energy(J)\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:<22} {:>10.1} {:>8.3} {:>7.2} {:>10.4}\n",
            r.hardware, r.exec_model, r.area_mm2, r.leakage_w, r.dynamic_w, r.energy_j
        ));
    }
    out
}

// ------------------------------------------------------------------ Ablations

/// Result of one ablation comparison.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration label.
    pub label: String,
    /// Hot-loop cycles.
    pub cycles: u64,
    /// Extra detail (aborts, resets, lines walked...).
    pub detail: String,
}

/// One ablation table: a heading and one row per configuration compared.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// The heading `experiments` prints above the rows.
    pub title: &'static str,
    /// The table's key in the JSON report.
    pub key: &'static str,
    /// One row per compared configuration.
    pub rows: Vec<AblationRow>,
}

/// An ablation table before it runs: one labelled job per row, and what
/// each row's detail column reports.
struct AblationSpec {
    title: &'static str,
    key: &'static str,
    runs: Vec<(String, JobSpec)>,
    detail: fn(&JobResult) -> String,
}

impl AblationSpec {
    fn jobs(&self) -> impl Iterator<Item = JobSpec> + '_ {
        self.runs.iter().map(|(_, job)| *job)
    }

    /// The table, from its jobs' results in [`AblationSpec::jobs`] order.
    fn finish(self, results: &[Arc<JobResult>]) -> Ablation {
        Ablation {
            title: self.title,
            key: self.key,
            rows: (self.runs.into_iter().zip(results))
                .map(|((label, _), r)| AblationRow {
                    label,
                    cycles: r.cycles,
                    detail: (self.detail)(r),
                })
                .collect(),
        }
    }
}

/// Runs every table's jobs as one batch.
fn run_ablations(pool: &SimPool, specs: Vec<AblationSpec>) -> Result<Vec<Ablation>, SimError> {
    let jobs: Vec<JobSpec> = specs.iter().flat_map(AblationSpec::jobs).collect();
    let results = pool.run(&jobs)?;
    let mut rest = &results[..];
    Ok(specs
        .into_iter()
        .map(|spec| {
            let (mine, tail) = rest.split_at(spec.runs.len());
            rest = tail;
            spec.finish(mine)
        })
        .collect())
}

/// Ablations A–D, in print order, from one batch of simulations.
///
/// # Errors
///
/// Propagates [`SimError`] from any simulation run.
pub fn ablations(pool: &SimPool) -> Result<Vec<Ablation>, SimError> {
    run_ablations(
        pool,
        vec![
            commit_ablation(pool),
            sla_ablation(pool),
            vid_width_ablation(pool),
            victim_ablation(pool),
        ],
    )
}

/// Ablation A (§5.3): lazy vs eager commit processing on the two
/// largest-set benchmarks.
fn commit_ablation(pool: &SimPool) -> AblationSpec {
    let ws = suite(pool.scale());
    AblationSpec {
        title: "Ablation A (5.3): lazy vs eager commit processing",
        key: "commit",
        runs: ABLATION_COMMIT_BENCHES
            .into_iter()
            .flat_map(|idx| {
                [true, false].map(|lazy| {
                    (
                        format!(
                            "{} / {} commit",
                            ws[idx].meta().name,
                            if lazy { "lazy" } else { "eager" }
                        ),
                        pool.job(
                            BenchRef::Suite(idx as u32),
                            WireParadigm::Paper,
                            WireVariant::Commit { lazy },
                        ),
                    )
                })
            })
            .collect(),
        detail: |r| {
            format!(
                "lines walked at commit: {}",
                r.machine.mem().stats().eager_commit_lines_walked
            )
        },
    }
}

/// A loop engineered so that wrong paths stray into *neighboring, still
/// in-flight* transactions' write regions — the §5.1 hazard in distilled
/// form. Each iteration's workspace is one cache line, laid out
/// **descending** (like stack frames), and the stage-2 inner loop has a
/// data-dependent trip count the predictor cannot learn; a mispredicted
/// loop-cap exit makes the wrong path load one line past the workspace —
/// the line the *previous* (lower-VID, concurrently running) transaction is
/// still writing. With SLAs those squashed loads never mark the line; with
/// SLAs disabled they do, and the earlier transaction's store becomes a
/// false RAW violation.
pub(crate) struct SlaStress {
    pub(crate) iters: u64,
}

/// Top of the descending workspace stack.
const SLA_STRESS_TOP: u64 = hmtx_runtime::env::WORKLOAD_REGION_BASE + 0x4_0000;

impl hmtx_runtime::LoopBody for SlaStress {
    fn iterations(&self) -> u64 {
        self.iters
    }
    fn build_image(&self, _m: &mut Machine, _env: &hmtx_runtime::LoopEnv) {}
    fn emit_stage1(&self, b: &mut hmtx_isa::ProgramBuilder, _env: &hmtx_runtime::LoopEnv) {
        use hmtx_runtime::env::regs;
        b.mov(regs::ITEM, regs::N);
        b.li(regs::SPEC_LOADS, 1);
        b.li(regs::SPEC_STORES, 1);
    }
    fn emit_stage2(&self, b: &mut hmtx_isa::ProgramBuilder, _env: &hmtx_runtime::LoopEnv) {
        use hmtx_isa::{Cond, Reg};
        use hmtx_runtime::env::regs;
        // R1 = this iteration's one-line workspace (descending layout).
        b.mul(Reg::R1, regs::N, 64);
        b.li(Reg::R2, SLA_STRESS_TOP as i64);
        b.sub(Reg::R1, Reg::R2, Reg::R1);
        b.mul(Reg::R2, regs::ITEM, 0x9E37_79B9);
        // 16 bursts of a data-dependent-length read-modify-write loop over
        // the workspace words.
        for _ in 0..16 {
            let head = b.new_label();
            let done = b.new_label();
            b.li(Reg::R3, 0);
            b.bind(head).unwrap();
            b.shl(Reg::R4, Reg::R3, 3);
            b.add(Reg::R4, Reg::R4, Reg::R1);
            b.load(Reg::R5, Reg::R4, 0);
            b.add(Reg::R5, Reg::R5, Reg::R2);
            b.store(Reg::R5, Reg::R4, 0);
            hmtx_workloads::emitlib::xorshift_step(b, Reg::R2, Reg::R6);
            b.addi(Reg::R3, Reg::R3, 1);
            // Cap: a data-dependent exit the predictor cannot learn; its
            // wrong path re-enters the body with R3 == 8 and loads one line
            // past the workspace — the previous iteration's line.
            b.branch_imm(Cond::GeU, Reg::R3, 8, done);
            b.and(Reg::R6, Reg::R2, 7);
            b.branch_imm(Cond::Ne, Reg::R6, 0, head);
            b.bind(done).unwrap();
        }
        b.li(regs::SPEC_LOADS, 40);
        b.li(regs::SPEC_STORES, 40);
    }
}

/// Ablation B (§5.1): SLAs on vs off. Run on the two most
/// misprediction-heavy benchmarks plus the distilled `sla-stress` hazard
/// loop (whose wrong paths actually alias concurrent transactions' lines).
fn sla_ablation(pool: &SimPool) -> AblationSpec {
    let ws = suite(pool.scale());
    AblationSpec {
        title: "Ablation B (5.1): speculative load acknowledgments on/off",
        key: "sla",
        runs: ABLATION_SLA_BENCHES
            .into_iter()
            .map(|idx| {
                (
                    ws[idx].meta().name,
                    BenchRef::Suite(idx as u32),
                    WireParadigm::Paper,
                )
            })
            .chain([("sla-stress", BenchRef::SlaStress, WireParadigm::PsDswp)])
            .flat_map(|(name, benchmark, paradigm)| {
                [true, false].map(|enabled| {
                    (
                        format!("{name} / SLA {}", if enabled { "on" } else { "off" }),
                        pool.job(benchmark, paradigm, WireVariant::Sla { enabled }),
                    )
                })
            })
            .collect(),
        detail: |r| {
            format!(
                "recoveries: {}, aborts avoided: {}",
                r.recoveries,
                r.machine.mem().stats().sla_aborts_avoided
            )
        },
    }
}

/// Ablation C (§4.6): VID width sweep — narrower VIDs mean more reset
/// stalls.
fn vid_width_ablation(pool: &SimPool) -> AblationSpec {
    let name = suite(pool.scale())[VID_WIDTH_BENCH].meta().name;
    AblationSpec {
        title: "Ablation C (4.6): VID width sweep",
        key: "vid_width",
        runs: VID_WIDTH_SWEEP
            .into_iter()
            .map(|bits| {
                (
                    format!("{name} / {bits}-bit VIDs"),
                    pool.job(
                        BenchRef::Suite(VID_WIDTH_BENCH as u32),
                        WireParadigm::Paper,
                        WireVariant::VidBits(bits),
                    ),
                )
            })
            .collect(),
        detail: |r| format!("VID resets: {}", r.machine.mem().stats().vid_resets),
    }
}

/// Ablation D (§5.4): LLC victim policy — preferring overflow-safe
/// `S-O(0,·)` lines vs plain LRU, on constrained caches.
fn victim_ablation(pool: &SimPool) -> AblationSpec {
    let name = suite(pool.scale())[VICTIM_BENCH].meta().name;
    AblationSpec {
        title: "Ablation D (5.4): LLC victim policy under cache pressure",
        key: "victim",
        runs: [VictimPolicy::PreferSafeOverflow, VictimPolicy::PlainLru]
            .map(|policy| {
                (
                    format!("{name} / {policy:?}"),
                    pool.job(
                        BenchRef::Suite(VICTIM_BENCH as u32),
                        WireParadigm::Paper,
                        WireVariant::Victim(policy),
                    ),
                )
            })
            .into(),
        detail: |r| {
            format!(
                "recoveries: {}, safe overflows: {}, refills: {}",
                r.recoveries,
                r.machine.mem().stats().safe_overflow_writebacks,
                r.machine.mem().stats().overflow_refills
            )
        },
    }
}

/// Renders an ablation table.
pub fn render_ablation(table: &Ablation) -> String {
    let mut out = format!("{}\n", table.title);
    for r in &table.rows {
        out.push_str(&format!(
            "{:<36} {:>12} cycles   {}\n",
            r.label, r.cycles, r.detail
        ));
    }
    out
}

// ----------------------------------------- §8 extensions (future work)

/// The §8 extensions and the §2.1 latency sweep.
#[derive(Debug, Clone)]
pub struct Extensions {
    /// Bounded vs unbounded read/write sets.
    pub unbounded: Ablation,
    /// PS-DSWP scaling with core count, snoopy bus vs banked directory.
    pub scaling: Vec<ScalingRow>,
    /// DOACROSS vs PS-DSWP under rising cross-core latency.
    pub latency: Vec<LatencyRow>,
}

/// §8 extension: unbounded read/write sets. The same run that aborts on
/// speculative cache overflow completes (more slowly) when versions spill
/// into the memory-side overflow table.
fn unbounded_ablation(pool: &SimPool) -> AblationSpec {
    let name = suite(pool.scale())[VICTIM_BENCH].meta().name;
    AblationSpec {
        title: "Extension (8): unbounded read/write sets via memory-side overflow",
        key: "unbounded",
        runs: [false, true]
            .map(|unbounded| {
                (
                    format!(
                        "{name} / {} sets",
                        if unbounded { "unbounded" } else { "bounded" }
                    ),
                    pool.job(
                        BenchRef::Suite(VICTIM_BENCH as u32),
                        WireParadigm::Paper,
                        WireVariant::Bounded { unbounded },
                    ),
                )
            })
            .into(),
        detail: |r| {
            format!(
                "recoveries: {}, spills: {}, refills: {}",
                r.recoveries,
                r.machine.mem().stats().unbounded_spills,
                r.machine.mem().stats().unbounded_fills
            )
        },
    }
}

/// One point of the core-count scaling experiment.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Interconnect label.
    pub interconnect: &'static str,
    /// Core count.
    pub cores: u32,
    /// Hot-loop speedup over 1-core sequential.
    pub speedup: f64,
}

/// A memory-streaming loop sized for many-core scaling studies: enough
/// iterations to keep 31 workers busy for many waves, and a per-iteration
/// footprint that misses the L1 (fabric traffic grows with core count).
pub(crate) struct ScalingLoop {
    pub(crate) iters: u64,
}

const SCALING_REGION: u64 = hmtx_runtime::env::WORKLOAD_REGION_BASE + 0x10_0000;
const SCALING_LINES: u64 = 32;

impl hmtx_runtime::LoopBody for ScalingLoop {
    fn iterations(&self) -> u64 {
        self.iters
    }
    fn build_image(&self, _m: &mut Machine, _env: &hmtx_runtime::LoopEnv) {}
    fn emit_stage1(&self, b: &mut hmtx_isa::ProgramBuilder, _env: &hmtx_runtime::LoopEnv) {
        use hmtx_runtime::env::regs;
        b.mov(regs::ITEM, regs::N);
        b.li(regs::SPEC_LOADS, 1);
        b.li(regs::SPEC_STORES, 1);
    }
    fn emit_stage2(&self, b: &mut hmtx_isa::ProgramBuilder, _env: &hmtx_runtime::LoopEnv) {
        use hmtx_isa::Reg;
        use hmtx_runtime::env::regs;
        // Stream this iteration's private block (SCALING_LINES lines).
        b.mul(Reg::R1, regs::N, (SCALING_LINES * 64) as i64);
        b.addi(Reg::R1, Reg::R1, SCALING_REGION as i64);
        hmtx_workloads::emitlib::counted_loop(b, Reg::R0, SCALING_LINES, |b| {
            b.shl(Reg::R2, Reg::R0, 6);
            b.add(Reg::R2, Reg::R2, Reg::R1);
            b.load(Reg::R3, Reg::R2, 0);
            b.add(Reg::R3, Reg::R3, regs::N);
            b.store(Reg::R3, Reg::R2, 0);
        })
        .unwrap();
        b.compute(120);
        b.li(regs::SPEC_LOADS, SCALING_LINES as i64);
        b.li(regs::SPEC_STORES, SCALING_LINES as i64);
    }
}

/// One point of the inter-core latency sensitivity experiment (§2.1).
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Hardware queue / cross-core latency in cycles.
    pub latency: u64,
    /// DOACROSS hot-loop speedup.
    pub doacross: f64,
    /// PS-DSWP hot-loop speedup.
    pub psdswp: f64,
}

/// Regenerates the extensions from one batch of simulations:
///
/// * bounded vs unbounded read/write sets (see `unbounded_ablation`);
/// * PS-DSWP scaling with core count under the snoopy bus vs the banked
///   directory (§8). The bus serializes every line transfer globally and
///   saturates as cores grow; the banked directory keeps scaling;
/// * §2.1's motivating claim, measured: DOACROSS pays the inter-core
///   latency on every iteration (its loop-carried value crosses cores each
///   time), while pipeline parallelism pays it only at pipeline fill.
///   Sweeping the cross-core communication latency should crush DOACROSS
///   and barely touch PS-DSWP.
///
/// # Errors
///
/// Propagates [`SimError`] from any simulation run.
pub fn extensions(pool: &SimPool) -> Result<Extensions, SimError> {
    let unbounded = unbounded_ablation(pool);
    let fabrics: Vec<(&'static str, u32, bool)> = SCALING_CORES
        .into_iter()
        .flat_map(|cores| [("snoopy bus", cores, false), ("directory", cores, true)])
        .collect();
    let latency_bench = BenchRef::Suite(LATENCY_BENCH as u32);
    let jobs: Vec<JobSpec> = unbounded
        .jobs()
        .chain([pool.job(
            BenchRef::ScalingLoop,
            WireParadigm::Sequential,
            WireVariant::ScalingBase,
        )])
        .chain(fabrics.iter().map(|&(_, cores, directory)| {
            pool.job(
                BenchRef::ScalingLoop,
                WireParadigm::PsDswp,
                WireVariant::ScalingFabric { cores, directory },
            )
        }))
        .chain([suite_job(pool, LATENCY_BENCH, WireParadigm::Sequential)])
        .chain(LATENCY_SWEEP.into_iter().flat_map(|cycles| {
            [WireParadigm::Doacross, WireParadigm::PsDswp]
                .map(|p| pool.job(latency_bench, p, WireVariant::QueueLatency(cycles)))
        }))
        .collect();
    let results = pool.run(&jobs)?;
    let (unbounded_runs, rest) = results.split_at(unbounded.runs.len());
    let (scaling, latency) = rest.split_at(1 + fabrics.len());
    Ok(Extensions {
        unbounded: unbounded.finish(unbounded_runs),
        scaling: fabrics
            .iter()
            .zip(&scaling[1..])
            .map(|(&(interconnect, cores, _), r)| ScalingRow {
                interconnect,
                cores,
                speedup: speedup(scaling[0].cycles, r.cycles),
            })
            .collect(),
        latency: LATENCY_SWEEP
            .into_iter()
            .zip(latency[1..].chunks_exact(2))
            .map(|(l, r)| LatencyRow {
                latency: l,
                doacross: speedup(latency[0].cycles, r[0].cycles),
                psdswp: speedup(latency[0].cycles, r[1].cycles),
            })
            .collect(),
    })
}

/// Renders the scaling experiment.
pub fn render_scaling(rows: &[ScalingRow]) -> String {
    let mut out = String::from(
        "Extension (8): PS-DSWP scaling, snoopy bus vs banked directory\n         cores      snoopy bus       directory\n",
    );
    for cores in SCALING_CORES {
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.cores == cores && r.interconnect == label)
                .map(|r| r.speedup)
                .unwrap_or(f64::NAN)
        };
        out.push_str(&format!(
            "{cores:>5} {:>14.2}x {:>14.2}x\n",
            get("snoopy bus"),
            get("directory")
        ));
    }
    out
}

/// Renders the latency sensitivity sweep.
pub fn render_latency(rows: &[LatencyRow]) -> String {
    let mut out = String::from(
        "Latency sensitivity (2.1): DOACROSS vs PS-DSWP under rising\n         cross-core communication latency\n         latency(cycles)    DOACROSS     PS-DSWP\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>15} {:>10.2}x {:>10.2}x\n",
            r.latency, r.doacross, r.psdswp
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmtx_types::{WireBase, WireScale};

    fn quick_pool() -> SimPool {
        SimPool::new(WireScale::Quick, WireBase::Test, None)
    }

    #[test]
    fn whole_program_speedup_amdahl() {
        assert!((whole_program_speedup(1.0, 2.0) - 2.0).abs() < 1e-12);
        assert!((whole_program_speedup(0.5, 2.0) - 4.0 / 3.0).abs() < 1e-12);
        assert!(whole_program_speedup(0.855, 2.0) < 2.0);
    }

    #[test]
    fn fig2_minimal_beats_substantial() {
        let rows = fig2(&quick_pool()).unwrap();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(
                r.minimal > r.substantial,
                "{}: {} <= {}",
                r.name,
                r.minimal,
                r.substantial
            );
        }
        let text = render_fig2(&rows);
        assert!(text.contains("geomean"));
    }

    #[test]
    fn fig9_bzip2_dominates_ispell() {
        let rows = fig9(&quick_pool()).unwrap();
        let bzip2 = rows.iter().find(|r| r.name == "256.bzip2").unwrap();
        let ispell = rows.iter().find(|r| r.name == "ispell").unwrap();
        assert!(bzip2.combined_kb > 5.0 * ispell.combined_kb);
        assert!(!render_fig9(&rows).is_empty());
    }

    #[test]
    fn table1_measures_plausible_shapes() {
        let rows = table1(&quick_pool()).unwrap();
        assert_eq!(rows.len(), 8);
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        // crafty must mispredict more than alvinn, like Table 1.
        assert!(by_name("186.crafty").mispredict_rate > by_name("052.alvinn").mispredict_rate);
        // li transactions must be much bigger than ispell's.
        assert!(
            by_name("130.li").spec_accesses_per_tx > 5.0 * by_name("ispell").spec_accesses_per_tx
        );
        assert!(!render_table1(&rows).is_empty());
    }

    #[test]
    fn sla_ablation_shows_false_misspeculation_without_slas() {
        let pool = quick_pool();
        let rows = run_ablations(&pool, vec![sla_ablation(&pool)]).unwrap()[0]
            .rows
            .clone();
        let on = rows
            .iter()
            .find(|r| r.label == "sla-stress / SLA on")
            .unwrap();
        let off = rows
            .iter()
            .find(|r| r.label == "sla-stress / SLA off")
            .unwrap();
        assert!(
            on.detail.contains("recoveries: 0"),
            "SLAs must filter the squashed loads: {}",
            on.detail
        );
        assert!(
            !on.detail.contains("aborts avoided: 0"),
            "the stress loop must generate avoided aborts: {}",
            on.detail
        );
        assert!(
            !off.detail.contains("recoveries: 0"),
            "without SLAs the squashed loads must cause false misspeculation: {}",
            off.detail
        );
        assert!(
            off.cycles > on.cycles,
            "false misspeculation must cost time"
        );
    }

    #[test]
    fn victim_ablation_shows_overflow_policy_matters() {
        let pool = quick_pool();
        let rows = run_ablations(&pool, vec![victim_ablation(&pool)]).unwrap()[0]
            .rows
            .clone();
        assert_eq!(rows.len(), 2);
        let safe = &rows[0];
        let lru = &rows[1];
        assert!(
            safe.cycles <= lru.cycles,
            "preferring S-O(0) victims must not be slower: {} vs {}",
            safe.cycles,
            lru.cycles
        );
    }

    #[test]
    fn vid_width_ablation_narrower_vids_reset_more() {
        let pool = quick_pool();
        let rows = run_ablations(&pool, vec![vid_width_ablation(&pool)]).unwrap()[0]
            .rows
            .clone();
        let resets = |label_bits: &str| {
            rows.iter()
                .find(|r| r.label.contains(label_bits))
                .unwrap()
                .detail
                .rsplit(' ')
                .next()
                .unwrap()
                .parse::<u64>()
                .unwrap()
        };
        assert!(resets("3-bit") > resets("6-bit"));
        assert_eq!(resets("8-bit"), 0);
    }

    #[test]
    fn unbounded_sets_eliminate_overflow_recoveries() {
        // Standard-scale bzip2: its footprint genuinely exceeds the
        // ablation's constrained caches (the quick instance fits them).
        let pool = SimPool::new(WireScale::Standard, WireBase::Test, None);
        let rows = run_ablations(&pool, vec![unbounded_ablation(&pool)]).unwrap()[0]
            .rows
            .clone();
        let bounded = &rows[0];
        let unbounded = &rows[1];
        assert!(
            unbounded.detail.contains("recoveries: 0"),
            "{}",
            unbounded.detail
        );
        assert!(
            !unbounded.detail.contains("spills: 0"),
            "{}",
            unbounded.detail
        );
        // With any overflow recoveries at all, bounded must be slower.
        if !bounded.detail.contains("recoveries: 0") {
            assert!(bounded.cycles > unbounded.cycles);
        }
    }

    #[test]
    fn directory_scales_past_the_snoopy_bus() {
        let rows = extensions(&quick_pool()).unwrap().scaling;
        let get = |label: &str, cores: u32| {
            rows.iter()
                .find(|r| r.interconnect == label && r.cores == cores)
                .unwrap()
                .speedup
        };
        // Both fabrics must actually parallelize...
        assert!(get("snoopy bus", 8) > 2.0);
        assert!(get("directory", 8) > 2.0);
        // ...and at 32 cores the directory must be ahead.
        assert!(
            get("directory", 32) > get("snoopy bus", 32),
            "directory {} vs bus {}",
            get("directory", 32),
            get("snoopy bus", 32)
        );
        assert!(!render_scaling(&rows).is_empty());
    }

    #[test]
    fn doacross_is_latency_sensitive_and_psdswp_is_not() {
        let rows = extensions(&quick_pool()).unwrap().latency;
        let first = &rows[0];
        let last = rows.last().unwrap();
        // DOACROSS degrades substantially across the sweep...
        assert!(
            last.doacross < first.doacross * 0.8,
            "DOACROSS {} -> {}",
            first.doacross,
            last.doacross
        );
        // ...while PS-DSWP barely moves.
        assert!(
            last.psdswp > first.psdswp * 0.8,
            "PS-DSWP {} -> {}",
            first.psdswp,
            last.psdswp
        );
        assert!(!render_latency(&rows).is_empty());
    }

    #[test]
    fn table2_renders_configuration() {
        let text = render_table2(&MachineConfig::paper_default());
        assert!(text.contains("32 MB"));
        assert!(text.contains("64 KB"));
        assert!(text.contains("6 bits"));
    }

    /// Each section names its simulations once and runs them as one
    /// batch: rendering every section a second time (and building the JSON
    /// report, which reruns each section function) simulates nothing new,
    /// and no two distinct jobs share a label.
    #[test]
    fn every_section_simulates_each_job_once() {
        let pool = quick_pool().with_threads(2);
        let render_all = || {
            Section::ALL
                .iter()
                .map(|s| s.render(&pool).unwrap())
                .collect::<String>()
        };
        let first = render_all();
        let simulated = pool.job_log().len();
        assert!(simulated > 20, "sections unexpectedly small: {simulated}");
        assert_eq!(render_all(), first);
        report::build_report(&pool, &Section::ALL).unwrap();
        let log = pool.job_log();
        assert_eq!(log.len(), simulated, "a second pass simulated again");
        let labels: std::collections::HashSet<&str> =
            log.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels.len(), log.len(), "two jobs share a label");
        let (_, fig8_summary) = fig8(&pool).unwrap();
        assert!(fig8_summary.hmtx_all > 1.0, "HMTX must speed up overall");
    }

    /// A section whose simulations fail returns the error instead of
    /// panicking (so `experiments` can exit 1 before printing anything).
    #[test]
    fn a_section_on_a_failing_pool_returns_the_error() {
        // Jobs whose variant replaces the L1 (ablation D, the scaling
        // study) still run, but every section has a job on the base L1.
        // No spec can name this base, so the pool swaps it in.
        let mut cfg = MachineConfig::test_default();
        cfg.l1.ways = 0;
        let pool = quick_pool().with_test_base(cfg).with_threads(2);
        for section in Section::ALL {
            if section == Section::Table2 {
                continue; // renders the configuration; runs nothing
            }
            assert!(
                section.render(&pool).is_err(),
                "{} rendered on an invalid cache geometry",
                section.name()
            );
        }
    }
}
