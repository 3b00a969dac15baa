//! The min-clock fast path must schedule exactly like the general policy
//! loop. Every job below runs twice — once through `Machine::run`'s fast
//! path, once under `with_general_path`, which sends every run through the
//! general loop with an index-0 policy that does not claim to be
//! min-clock — and the two finished machines must agree on simulated
//! cycles, committed output, machine, per-core and memory statistics (or
//! both runs must fail with the same error).

use hmtx_bench::materialize;
use hmtx_bench::runner::JobResult;
use hmtx_machine::with_general_path;
use hmtx_types::{
    BenchRef, FaultSpec, JobSpec, MachineConfig, SimError, WireBase, WireParadigm, WireScale,
};

const SUITE_WORKLOADS: u32 = 8;

fn run(spec: &JobSpec, tweak: impl Fn(&mut MachineConfig)) -> Result<JobResult, SimError> {
    let (job, mut base) = materialize(spec);
    tweak(&mut base);
    job.run(&base)
}

/// Runs `spec` on both paths, compares them, and returns the fast path's
/// result (an error only if both failed identically).
fn paths_agree(
    spec: &JobSpec,
    tweak: impl Fn(&mut MachineConfig) + Copy,
    what: &str,
) -> Result<JobResult, SimError> {
    let (fast, general) = match (run(spec, tweak), with_general_path(|| run(spec, tweak))) {
        (Ok(f), Ok(g)) => (f, g),
        (Err(f), Err(g)) => {
            assert_eq!(f, g, "{what}: both paths fail, with the same error");
            return Err(f);
        }
        (f, g) => panic!(
            "{what}: fast path {:?}, general path {:?}",
            f.map(|r| r.cycles),
            g.map(|r| r.cycles)
        ),
    };
    let (f, g) = (&fast.machine, &general.machine);
    assert_eq!(fast.cycles, general.cycles, "{what}: hot-loop cycles");
    assert_eq!(f.cycles(), g.cycles(), "{what}: machine cycles");
    assert_eq!(f.committed_output(), g.committed_output(), "{what}: output");
    assert_eq!(f.stats(), g.stats(), "{what}: machine stats");
    assert_eq!(f.core_stats(), g.core_stats(), "{what}: core stats");
    assert_eq!(
        format!("{:?}", f.mem().stats()),
        format!("{:?}", g.mem().stats()),
        "{what}: memory stats"
    );
    assert_eq!(fast.recoveries, general.recoveries, "{what}: recoveries");
    assert!(f.stats().steps >= f.stats().instructions, "{what}: steps");
    Ok(fast)
}

fn assert_paths_agree(
    spec: &JobSpec,
    tweak: impl Fn(&mut MachineConfig) + Copy,
    what: &str,
) -> JobResult {
    paths_agree(spec, tweak, what).unwrap_or_else(|e| panic!("{what}: {e}"))
}

fn spec(workload: u32, paradigm: WireParadigm) -> JobSpec {
    JobSpec::new(
        BenchRef::Suite(workload),
        paradigm,
        WireScale::Quick,
        WireBase::Test,
    )
}

#[test]
fn fast_path_equals_general_path_on_every_suite_workload() {
    for w in 0..SUITE_WORKLOADS {
        for paradigm in [
            WireParadigm::Paper,
            WireParadigm::Hytm,
            WireParadigm::SmtxMin,
        ] {
            for cores in [4, 8] {
                let what = format!("workload {w} {paradigm:?} {cores} cores");
                // SMTX on eight cores runs six workers, whose log offsets
                // once overlapped the commit process's own registers and
                // deadlocked it; every run here must now complete.
                assert_paths_agree(&spec(w, paradigm), |c| c.num_cores = cores, &what);
            }
        }
    }
}

#[test]
fn fast_path_equals_general_path_under_faults() {
    let mut recoveries = 0;
    for w in [0, 4, 7] {
        for paradigm in [WireParadigm::Paper, WireParadigm::Hytm] {
            let mut s = spec(w, paradigm);
            s.fault = Some(FaultSpec {
                seed: 0xC0FFEE ^ u64::from(w),
                rate_ppm: 2_000,
            });
            let what = format!("faulted workload {w} {paradigm:?}");
            recoveries += assert_paths_agree(&s, |_| {}, &what).recoveries;
        }
    }
    assert!(recoveries > 0, "the plans must exercise the abort path");
}

#[test]
fn fast_path_equals_general_path_with_interrupts() {
    for w in 0..SUITE_WORKLOADS {
        let result = assert_paths_agree(
            &spec(w, WireParadigm::Paper),
            |c| {
                c.interrupt_period = 700;
                c.interrupt_handler_instrs = 40;
            },
            &format!("interrupted workload {w}"),
        );
        assert!(result.machine.stats().interrupts > 0, "workload {w}");
    }
}
