//! Chaos suite: deterministic fault injection must never change committed
//! results. For any seeded fault schedule — spurious conflicts, wrong-path
//! load storms, queue delays, VID-space squeezes, cache-capacity squeezes —
//! the recovery ladder must deliver outputs byte-identical to the
//! fault-free run, keep the protocol invariants clean, and never report
//! `BadProgram` for a recoverable condition.

use hmtx::runtime::{run_hytm, run_loop, DemotionCause, RecoveryRung, RunReport};
use hmtx::types::{FaultConfig, HytmConfig, MachineConfig, SimError};
use hmtx::workloads::{suite, Scale, Workload};
use proptest::prelude::*;

const BUDGET: u64 = 2_000_000_000;

/// Suite indices of the benchmarks the chaos suite drives: alvinn (DOALL),
/// parser (PS-DSWP), ispell (PS-DSWP) — cheap at quick scale and covering
/// both paradigm families.
const CHAOS_BENCHES: [usize; 3] = [0, 4, 7];

/// Fault schedules that historically exposed recovery bugs, pinned so they
/// run forever (the vendored proptest stub does not persist regressions).
/// Each seed is run against every chaos benchmark at two rates.
const REGRESSION_SEEDS: [u64; 8] = [
    1,
    7,
    42,
    12345,
    0xDEAD_BEEF,
    0x00FF_00FF_00FF_00FF,
    0x0123_4567_89AB_CDEF,
    u64::MAX,
];

fn fault_free(bench: &dyn Workload) -> RunReport {
    let cfg = MachineConfig::test_default();
    let (_, report) =
        run_loop(bench.meta().paradigm, bench, &cfg, BUDGET).expect("fault-free run must complete");
    report
}

/// Runs `bench` under the full chaos fault plan and checks the differential
/// contract against the fault-free `baseline`.
fn assert_chaos_matches(bench: &dyn Workload, baseline: &RunReport, seed: u64, rate_ppm: u32) {
    let name = bench.meta().name;
    let mut cfg = MachineConfig::test_default();
    cfg.faults = Some(FaultConfig::chaos(seed, rate_ppm));
    let result = run_loop(bench.meta().paradigm, bench, &cfg, BUDGET);
    let (_, report) = match result {
        Ok(r) => r,
        Err(SimError::BadProgram(msg)) => panic!(
            "{name} seed {seed} rate {rate_ppm}: recoverable fault schedule \
             ended in BadProgram: {msg}"
        ),
        Err(e) => panic!("{name} seed {seed} rate {rate_ppm}: {e}"),
    };
    assert_eq!(
        report.outputs, baseline.outputs,
        "{name} seed {seed} rate {rate_ppm}: committed outputs must be \
         byte-identical to the fault-free run"
    );
    assert_eq!(
        report.recovery_log.len() as u64,
        report.recoveries,
        "{name} seed {seed}: every recovery must be logged"
    );
    // The ladder is strictly ordered: nothing runs after the terminal
    // non-speculative rung.
    if let Some(pos) = report
        .recovery_log
        .iter()
        .position(|r| r.rung == RecoveryRung::NonSpec)
    {
        assert_eq!(
            pos,
            report.recovery_log.len() - 1,
            "{name} seed {seed}: non-speculative fallback must be terminal"
        );
    }
}

#[test]
fn chaos_differential_100_schedules_per_benchmark() {
    let benches = suite(Scale::Quick);
    for &i in &CHAOS_BENCHES {
        let bench = benches[i].as_ref();
        let baseline = fault_free(bench);
        for seed in 0..100u64 {
            assert_chaos_matches(bench, &baseline, seed, 200);
        }
    }
}

#[test]
fn chaos_regression_seeds_stay_green() {
    let benches = suite(Scale::Quick);
    for &i in &CHAOS_BENCHES {
        let bench = benches[i].as_ref();
        let baseline = fault_free(bench);
        for &seed in &REGRESSION_SEEDS {
            for rate in [200, 2_000] {
                assert_chaos_matches(bench, &baseline, seed, rate);
            }
        }
    }
}

#[test]
fn chaos_actually_injects_and_recovers() {
    // Guard against the suite silently testing nothing: across a handful of
    // schedules at an aggressive rate, faults must fire and the ladder must
    // actually run.
    let benches = suite(Scale::Quick);
    let bench = benches[7].as_ref(); // ispell
    let baseline = fault_free(bench);
    let mut total_injected = 0u64;
    let mut total_recoveries = 0u64;
    for seed in 0..10u64 {
        let mut cfg = MachineConfig::test_default();
        cfg.faults = Some(FaultConfig::chaos(seed, 2_000));
        let (machine, report) =
            run_loop(bench.meta().paradigm, bench, &cfg, BUDGET).expect("chaos run must complete");
        assert_eq!(report.outputs, baseline.outputs, "seed {seed}");
        total_injected += machine.mem().stats().injected_conflicts
            + machine.stats().injected_queue_delays
            + machine.stats().injected_wrong_path_storms;
        total_recoveries += report.recoveries;
    }
    assert!(total_injected > 0, "no faults injected at 2000 ppm");
    assert!(
        total_recoveries > 0,
        "injected conflicts must force recovery"
    );
}

#[test]
fn injected_runs_replay_identically() {
    // Same seed, same config -> same cycle count, same statistics, same
    // recovery log. This is what makes a failing schedule debuggable.
    let benches = suite(Scale::Quick);
    let bench = benches[4].as_ref(); // parser
    let mut cfg = MachineConfig::test_default();
    cfg.faults = Some(FaultConfig::chaos(99, 1_000));
    let (m1, r1) = run_loop(bench.meta().paradigm, bench, &cfg, BUDGET).unwrap();
    let (m2, r2) = run_loop(bench.meta().paradigm, bench, &cfg, BUDGET).unwrap();
    assert_eq!(r1.cycles, r2.cycles);
    assert_eq!(r1.recoveries, r2.recoveries);
    assert_eq!(r1.outputs, r2.outputs);
    assert_eq!(
        m1.mem().stats().injected_conflicts,
        m2.mem().stats().injected_conflicts
    );
    assert_eq!(
        r1.recovery_log.iter().map(|r| r.cycle).collect::<Vec<_>>(),
        r2.recovery_log.iter().map(|r| r.cycle).collect::<Vec<_>>()
    );
}

// ---------------------------------------------------------- HyTM fallback

/// The hytm-mode differential: a fault plan (and/or capacity squeeze) may
/// demote transactions to the software slow path, but committed outputs
/// must stay byte-identical to the fault-free hytm run — and to the plain
/// HMTX run, since the slow path computes the same loop.
fn assert_hytm_chaos_matches(
    bench: &dyn Workload,
    baseline: &RunReport,
    cfg: &MachineConfig,
    label: &str,
) -> RunReport {
    let name = bench.meta().name;
    let result = run_hytm(bench.meta().paradigm, bench, cfg, BUDGET);
    let (_, report) = match result {
        Ok(r) => r,
        Err(SimError::BadProgram(msg)) => {
            panic!("{name} {label}: recoverable fallback storm ended in BadProgram: {msg}")
        }
        Err(e) => panic!("{name} {label}: {e}"),
    };
    assert_eq!(
        report.outputs, baseline.outputs,
        "{name} {label}: committed outputs must be byte-identical to the \
         fault-free run"
    );
    assert_eq!(
        report.recovery_log.len() as u64,
        report.recoveries,
        "{name} {label}: every recovery must be logged"
    );
    // Every slow-path record carries its demotion cause; fast-path retries
    // carry none.
    for r in &report.recovery_log {
        assert_eq!(
            r.rung == RecoveryRung::SoftwareSlowPath,
            r.demotion.is_some(),
            "{name} {label}: demotion cause iff slow-path rung: {r:?}"
        );
    }
    report
}

/// Pinned fallback-storm schedule 1: a capacity squeeze. Write bounds far
/// below the workloads' footprints plus the fault planner's cache squeeze
/// force `SpecOverflow` demotions on most transactions.
#[test]
fn hytm_fallback_storm_capacity_squeeze_seed_stays_green() {
    const SEED: u64 = 0xCA9A_51F7;
    let benches = suite(Scale::Quick);
    for &i in &CHAOS_BENCHES {
        let bench = benches[i].as_ref();
        let mut cfg = MachineConfig::test_default();
        cfg.hytm = HytmConfig {
            enabled: true,
            max_read_lines: 6,
            max_write_lines: 2,
            ..HytmConfig::paper_default()
        };
        let baseline = run_hytm(bench.meta().paradigm, bench, &cfg, BUDGET)
            .expect("fault-free hytm run must complete")
            .1;
        assert_eq!(
            baseline.outputs,
            fault_free(bench).outputs,
            "hytm and plain HMTX must commit identical outputs"
        );
        cfg.faults = Some(FaultConfig::chaos(SEED, 500));
        let report = assert_hytm_chaos_matches(bench, &baseline, &cfg, "capacity-squeeze");
        let mix = report.hytm.expect("hytm mix present");
        let capacity = DemotionCause::ALL
            .iter()
            .position(|c| *c == DemotionCause::Capacity)
            .unwrap();
        assert!(
            mix.demotions_by_cause[capacity] > 0,
            "{}: the squeeze must force capacity demotions: {mix:?}",
            bench.meta().name
        );
    }
}

/// Pinned fallback-storm schedule 2: a spurious-conflict burst. An
/// aggressive injected-conflict rate demotes transactions immediately
/// (injected faults bypass the retry budget), driving the storm breaker.
#[test]
fn hytm_fallback_storm_spurious_conflict_burst_seed_stays_green() {
    const SEED: u64 = 0x5B00_B157;
    let benches = suite(Scale::Quick);
    let mut any_injected_demotion = false;
    for &i in &CHAOS_BENCHES {
        let bench = benches[i].as_ref();
        let mut cfg = MachineConfig::test_default();
        cfg.hytm = HytmConfig::paper_default();
        let baseline = run_hytm(bench.meta().paradigm, bench, &cfg, BUDGET)
            .expect("fault-free hytm run must complete")
            .1;
        cfg.faults = Some(FaultConfig {
            seed: SEED,
            rate_ppm: 3_000,
            spurious_conflicts: true,
            wrong_path_storms: false,
            queue_delays: false,
            vid_squeeze: false,
            cache_squeeze: false,
            check_invariants: true,
        });
        let report = assert_hytm_chaos_matches(bench, &baseline, &cfg, "conflict-burst");
        let mix = report.hytm.expect("hytm mix present");
        let injected = DemotionCause::ALL
            .iter()
            .position(|c| *c == DemotionCause::InjectedFault)
            .unwrap();
        any_injected_demotion |= mix.demotions_by_cause[injected] > 0;
    }
    assert!(
        any_injected_demotion,
        "a 3000 ppm conflict burst must demote at least one transaction \
         across the chaos benchmarks"
    );
}

#[test]
fn hytm_chaos_differential_sweep() {
    // The full chaos plan against the hybrid mode: whatever mix of faults
    // fires, fast path + slow path together must reproduce the fault-free
    // outputs.
    let benches = suite(Scale::Quick);
    for &i in &CHAOS_BENCHES {
        let bench = benches[i].as_ref();
        let mut cfg = MachineConfig::test_default();
        cfg.hytm = HytmConfig {
            enabled: true,
            max_read_lines: 16,
            max_write_lines: 8,
            ..HytmConfig::paper_default()
        };
        let baseline = run_hytm(bench.meta().paradigm, bench, &cfg, BUDGET)
            .expect("fault-free hytm run must complete")
            .1;
        for seed in 0..20u64 {
            let mut faulty = cfg.clone();
            faulty.faults = Some(FaultConfig::chaos(seed, 400));
            assert_hytm_chaos_matches(bench, &baseline, &faulty, &format!("seed {seed}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Property: for ANY fault seed and rate, committed outputs equal the
    /// fault-free run. (The stub proptest does not shrink or persist; pin
    /// any failure it finds into `REGRESSION_SEEDS` above.)
    #[test]
    fn any_fault_schedule_preserves_outputs(
        seed in any::<u64>(),
        rate_ppm in 50u32..5_000,
        which in 0usize..3,
    ) {
        let benches = suite(Scale::Quick);
        let bench = benches[CHAOS_BENCHES[which]].as_ref();
        let baseline = fault_free(bench);
        assert_chaos_matches(bench, &baseline, seed, rate_ppm);
    }
}
