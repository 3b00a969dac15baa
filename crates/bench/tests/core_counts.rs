//! Every wire paradigm at every core count a `scaling-fabric` spec can
//! name a small sample of ends in `Ok` or a named `SimError`, within a
//! fixed host-time bound, and never panics. A runtime whose thread layout
//! cannot place its threads on the machine says so with
//! `SimError::Config` before any thread is loaded.

use std::ops::RangeInclusive;
use std::sync::mpsc;
use std::time::Duration;

use hmtx_bench::run_job_report;
use hmtx_types::{BenchRef, JobSpec, SimError, WireBase, WireParadigm, WireScale, WireVariant};

const PARADIGMS: [WireParadigm; 10] = [
    WireParadigm::Sequential,
    WireParadigm::Paper,
    WireParadigm::SmtxMin,
    WireParadigm::SmtxSub,
    WireParadigm::SmtxMax,
    WireParadigm::Doall,
    WireParadigm::Doacross,
    WireParadigm::Dswp,
    WireParadigm::PsDswp,
    WireParadigm::Hytm,
];

/// Host-time bound per job: quick-scale jobs finish in well under a
/// second; a hang or a runaway schedule trips this.
const BOUND: Duration = Duration::from_secs(60);

fn fabric(workload: u32, paradigm: WireParadigm, cores: u32) -> JobSpec {
    let mut spec = JobSpec::new(
        BenchRef::Suite(workload),
        paradigm,
        WireScale::Quick,
        WireBase::Test,
    );
    spec.variant = WireVariant::ScalingFabric {
        cores,
        directory: false,
    };
    spec
}

/// Runs `spec` on its own thread: `Ok(outcome)` when it finished within
/// [`BOUND`], `Err` naming a panic or a timeout.
fn bounded(spec: JobSpec) -> Result<Result<(), SimError>, String> {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(run_job_report(&spec).map(|_| ()));
    });
    match rx.recv_timeout(BOUND) {
        Ok(outcome) => {
            let _ = worker.join();
            Ok(outcome)
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => Err("panicked".into()),
        Err(mpsc::RecvTimeoutError::Timeout) => Err(format!("still running after {BOUND:?}")),
    }
}

/// The core counts each paradigm's layout places: DSWP-family pipelines
/// put a sequential stage beside their workers; SMTX adds a commit process
/// and fits at most 13 workers.
fn placeable(paradigm: WireParadigm) -> RangeInclusive<u32> {
    match paradigm {
        WireParadigm::SmtxMin | WireParadigm::SmtxSub | WireParadigm::SmtxMax => 3..=15,
        WireParadigm::Dswp | WireParadigm::PsDswp => 2..=64,
        // Workload 1 is PS-DSWP, so `paper` and HyTM need a second core.
        WireParadigm::Paper | WireParadigm::Hytm => 2..=64,
        _ => 1..=64,
    }
}

#[test]
fn every_paradigm_and_core_count_ends_in_a_named_outcome() {
    let mut failures = Vec::new();
    for paradigm in PARADIGMS {
        for cores in [1, 2, 3, 8, 16] {
            let what = format!("{} on {cores} cores", paradigm.name());
            match bounded(fabric(1, paradigm, cores)) {
                Err(how) => failures.push(format!("{what}: {how}")),
                Ok(Ok(())) if !placeable(paradigm).contains(&cores) => {
                    failures.push(format!("{what}: ran on a machine it cannot place"));
                }
                Ok(Ok(())) => {}
                Ok(Err(SimError::Config(e))) if !placeable(paradigm).contains(&cores) => {
                    assert!(e.to_string().contains("cores"), "{what}: {e}");
                }
                Ok(Err(e)) => failures.push(format!("{what}: {e}")),
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
