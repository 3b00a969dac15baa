//! The `model-check` workload: rounds of the explicit-state checker on
//! three configurations, plus one breadth-first search the benchmark drives
//! itself through `OpMachine` and `Encoder` so each state expansion and its
//! clone, step and hash calls can be timed.
//!
//! The workload takes no seed: the checker's inputs are fixed.

use std::collections::{HashSet, VecDeque};
use std::time::Instant;

use hmtx_explore::{model_kernel, OpKernel, OpMachine};
use hmtx_modelcheck::canon::Encoder;
use hmtx_modelcheck::check;
use hmtx_types::{ModelCheckConfig, SeedBug};

use crate::calib::Calibration;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{finish_trace, median_setup, peak_rss_mb, thread_cpu_s, Args, Outcome};

/// State budget of the cut-off `c2-l2-v3` search (each state holds a whole
/// memory system, about 110 KB, so this also bounds memory).
pub const V3_STATE_BUDGET: usize = 500;

/// Driven searches per untraced run.
const DRIVEN_SEARCHES: usize = 21;

/// Share of `--seconds` spent on rounds of checks; the driven searches
/// take about the rest.
const ROUNDS_SHARE: f64 = 0.8;

/// Reference runs timed between two checks.
const REFERENCE_REPS: usize = 3;

/// Transitions timed between two reference runs in a driven search.
const BLOCK: usize = 32;

/// The three checks of one round: `(name, config, planted defect expected)`.
fn configs() -> [(&'static str, ModelCheckConfig, bool); 3] {
    let base = ModelCheckConfig::default();
    [
        (
            "c3-l3-v2",
            ModelCheckConfig {
                cores: 3,
                lines: 3,
                ..base
            },
            false,
        ),
        (
            "c2-l2-v3",
            ModelCheckConfig {
                vid_bits: 3,
                max_states: V3_STATE_BUDGET,
                ..base
            },
            false,
        ),
        (
            "c2-l2-v2+stale-migration-replica",
            ModelCheckConfig {
                seed_bug: Some(SeedBug::StaleMigrationReplica),
                ..base
            },
            true,
        ),
    ]
}

/// The core count the checker encodes states over (as `check_kernel`
/// derives it).
fn encoder_cores(kernel: &OpKernel, cfg: &ModelCheckConfig) -> usize {
    kernel
        .txs
        .iter()
        .flatten()
        .map(|op| op.core + 1)
        .max()
        .unwrap_or(1)
        .max(cfg.cores)
}

/// Totals of one round of checks.
#[derive(Debug, Default, PartialEq)]
struct Round {
    states: usize,
    transitions: usize,
    frontier_peak: usize,
}

/// One round of the three checks. With `cal`, also returns the round's
/// processor time in reference-host seconds: each check is scaled by the
/// mean of the reference runs timed right before and after it.
fn round(
    tracer: &mut Tracer,
    out: &mut Outcome,
    first_states: &mut Option<usize>,
    mut cal: Option<&mut Calibration>,
) -> (Round, f64) {
    let mut r = Round::default();
    let mut round_s = 0.0;
    let mut before = cal.as_mut().map_or(1.0, |c| c.local_scale(REFERENCE_REPS));
    for (i, (name, cfg, planted)) in configs().into_iter().enumerate() {
        let t = thread_cpu_s();
        let report = tracer.span("modelcheck.check", i as u64, || check(&cfg));
        let cpu = thread_cpu_s() - t;
        let after = cal.as_mut().map_or(1.0, |c| c.local_scale(REFERENCE_REPS));
        round_s += cpu * (before + after) / 2.0;
        before = after;
        let ok = if planted {
            !report.is_clean()
        } else {
            report.is_clean() && (report.exhausted || cfg.max_states == report.reachable)
        };
        out.check(ok, || {
            format!("model check {name}: unexpected verdict: {report}")
        });
        if i == 0 {
            *first_states = Some(report.reachable);
        }
        r.states += report.reachable;
        r.transitions += report.transitions;
        r.frontier_peak = r.frontier_peak.max(report.frontier_peak);
    }
    (r, round_s)
}

/// Breadth-first search of `cfg` through the public stepping API; returns
/// (states, processor ms of each transition: clone, step and hash of one
/// child). Mirrors the checker's loop. With `cal`, transitions are timed in
/// blocks of [`BLOCK`], each scaled by a reference run right after it.
fn driven_bfs(
    cfg: &ModelCheckConfig,
    tracer: &mut Tracer,
    out: &mut Outcome,
    mut cal: Option<&mut Calibration>,
) -> (usize, Vec<f64>) {
    let kernel = model_kernel(cfg);
    let encoder = Encoder::new(&kernel, encoder_cores(&kernel, cfg), cfg.symmetry);
    let mut root = OpMachine::new(&kernel, cfg.seed_bug);
    if let Err(f) = root.settle(&kernel) {
        out.check(false, || format!("driven search: root failed: {f:?}"));
        return (0, Vec::new());
    }
    let mut visited: HashSet<u64> = HashSet::new();
    visited.insert(encoder.state_hash(&kernel, &root));
    let mut queue = VecDeque::from([root]);
    let mut transition_ms = Vec::new();
    let mut block = 0;
    let mut id = 0u64;
    while let Some(state) = queue.pop_front() {
        tracer.begin("explore.expand", id);
        let enabled = tracer.span("explore.enabled", id, || state.enabled(&kernel));
        if enabled.is_empty() {
            let finished = tracer.span("explore.finish", id, || state.finish(&kernel));
            out.check(finished.is_ok(), || format!("driven search: {finished:?}"));
        }
        for tx in enabled {
            let t = thread_cpu_s();
            let mut child = tracer.span("explore.clone", id, || state.clone());
            let stepped = tracer.span("explore.step", id, || child.step(&kernel, tx));
            if let Err(f) = stepped {
                out.check(false, || format!("driven search: step failed: {f:?}"));
                continue;
            }
            let h = tracer.span("modelcheck.hash", id, || {
                encoder.state_hash(&kernel, &child)
            });
            transition_ms.push((thread_cpu_s() - t) * 1e3);
            if visited.insert(h) {
                queue.push_back(child);
            }
        }
        tracer.end();
        id += 1;
        if let Some(cal) = cal.as_mut() {
            if transition_ms.len() - block >= BLOCK || queue.is_empty() {
                let scale = cal.local_scale(1);
                transition_ms[block..].iter_mut().for_each(|t| *t *= scale);
                block = transition_ms.len();
            }
        }
    }
    (visited.len(), transition_ms)
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up: each configuration's kernel, encoder and root machine.
    let (_, setup_s) = median_setup(101, Some(&mut Calibration::default()), || {
        for (_, cfg, _) in configs() {
            let kernel = model_kernel(&cfg);
            let encoder = Encoder::new(&kernel, encoder_cores(&kernel, &cfg), cfg.symmetry);
            let root = OpMachine::new(&kernel, cfg.seed_bug);
            std::hint::black_box((encoder.state_hash(&kernel, &root), root));
        }
    });
    let exhaustive = configs()[0].1;

    if !tracer.enabled() {
        let mut cal = Calibration::default();
        let mut cpus = Vec::new();
        let mut first: Option<Round> = None;
        let mut first_states = None;
        let start = Instant::now();
        loop {
            let (r, cpu) = round(tracer, &mut out, &mut first_states, Some(&mut cal));
            cpus.push(cpu);
            match &first {
                None => first = Some(r),
                Some(f) => out.check(*f == r, || "a repeated round explored differently".into()),
            }
            let elapsed = start.elapsed().as_secs_f64();
            if cpus.len() >= 3 && elapsed + median(&cpus) > args.seconds * ROUNDS_SHARE {
                break;
            }
        }
        let r = first.expect("at least one round");
        out.notes.push(format!(
            "{} rounds, {:.3} s median round (processor time, scaled), {} states and {} transitions \
             per round",
            cpus.len(),
            median(&cpus),
            r.states,
            r.transitions
        ));

        // Transition times: every driven search takes the same transitions in
        // the same order, and each transition's time is its median over the
        // searches. Whole state expansions are bimodal, one child or
        // several, so single transitions are timed.
        let mut searches: Vec<Vec<f64>> = Vec::new();
        for _ in 0..DRIVEN_SEARCHES {
            let (states, transition_ms) = driven_bfs(
                &exhaustive,
                &mut Tracer::new(false),
                &mut out,
                Some(&mut cal),
            );
            out.check(Some(states) == first_states, || {
                format!("driven search found {states} states, the checker {first_states:?}")
            });
            searches.push(transition_ms);
        }
        out.notes.push(cal.note());
        let transition_ms: Vec<f64> = (0..searches[0].len())
            .map(|i| {
                let times: Vec<f64> = searches.iter().filter_map(|s| s.get(i).copied()).collect();
                median(&times)
            })
            .collect();
        let p50 = out.percentile(&transition_ms, 0.5, "transition, median search (ms)");
        let tail = out.percentile(&transition_ms, 0.99, "transition, median search (ms)");
        let round_s = median(&cpus);
        out.set("setup_s", setup_s);
        out.set("cpu_s", round_s);
        // Each transition issues one simulated load or store.
        out.set("sim_mips", r.transitions as f64 / round_s / 1e6);
        out.set("op_p50_ms", p50);
        out.set("op_tail_ms", tail);
        out.set("ops_per_s", r.states as f64 / round_s);
        out.set("rss_mb", peak_rss_mb("self"));
        return Ok(out);
    }

    // Traced: one round of checks, one untraced and one traced driven
    // search (their difference is the tracing overhead).
    let t = Instant::now();
    let mut first_states = None;
    let (r, _) = round(tracer, &mut out, &mut first_states, None);
    let round_wall = t.elapsed().as_secs_f64();
    let t = Instant::now();
    driven_bfs(&exhaustive, &mut Tracer::new(false), &mut out, None);
    let untraced = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (states, _) = driven_bfs(&exhaustive, tracer, &mut out, None);
    let traced = t.elapsed().as_secs_f64();
    out.check(Some(states) == first_states, || {
        format!("driven search found {states} states, the checker {first_states:?}")
    });

    let spans = tracer.summary();
    let mean_us = |name: &str| {
        spans
            .get(name)
            .map_or(0.0, |s| s.1 / s.0.max(1) as f64 * 1e6)
    };
    out.set("modelcheck.states", r.states as f64);
    out.set("modelcheck.transitions", r.transitions as f64);
    out.set("modelcheck.frontier_peak", r.frontier_peak as f64);
    out.set("modelcheck.states_per_s", r.states as f64 / round_wall);
    out.set(
        "modelcheck.dedup_ratio",
        1.0 - (r.states as f64 - 3.0) / r.transitions.max(1) as f64,
    );
    out.set("modelcheck.hash_us", mean_us("modelcheck.hash"));
    out.set("explore.clone_us", mean_us("explore.clone"));
    out.set("explore.step_us", mean_us("explore.step"));
    out.set("explore.enabled_us", mean_us("explore.enabled"));
    finish_trace(&mut out, tracer, round_wall + traced, traced - untraced);
    Ok(out)
}
