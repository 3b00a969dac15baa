//! The repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--serve-bin PATH --router-bin PATH]
//! ```
//!
//! Runs one workload for about `S` seconds, checks every output, prints
//! one line per metric and, as its last line, a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` runs the same workload with spans recorded around
//! each call into the system and reports the per-layer metrics instead,
//! writing the spans to `perfbench/out/`. Exits 1 when any output is wrong
//! or any operation failed, 2 on bad arguments. See `perfbench/README.md`.

mod calib;
mod model;
mod probe;
mod serve;
mod sim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use calib::Calibration;
use trace::Tracer;

/// End-to-end metrics: every workload reports each of these.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("sim_mips", "Minstr/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A workload that does not exercise
/// a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.suite_s", "s"),
    ("runtime.build_s", "s"),
    ("runtime.dispatches", "count"),
    ("runtime.recoveries", "count"),
    ("runtime.rung_parallel", "count"),
    ("runtime.rung_serialized", "count"),
    ("runtime.rung_nonspec", "count"),
    ("bench.run_job_s", "s"),
    ("bench.run_job_self_s", "s"),
    ("bench.render_s", "s"),
    ("machine.sim_cycles", "cycles"),
    ("machine.instructions", "count"),
    ("machine.wrong_path_instructions", "count"),
    ("machine.mispredictions", "count"),
    ("machine.useful_ratio", "ratio"),
    ("machine.host_ns_per_instr", "ns"),
    ("core.loads", "count"),
    ("core.stores", "count"),
    ("core.spec_loads", "count"),
    ("core.spec_stores", "count"),
    ("core.peer_transfers", "count"),
    ("core.commits", "count"),
    ("core.aborts", "count"),
    ("core.vid_resets", "count"),
    ("core.slas_sent", "count"),
    ("core.commit_ratio", "ratio"),
    ("core.host_ns_per_access", "ns"),
    ("core.probe_access_ns", "ns"),
    ("core.probe_commit_ns", "ns"),
    ("core.probe_abort_ns", "ns"),
    ("core.invariant_scan_us", "us"),
    ("mem.l1_hits", "count"),
    ("mem.l1_misses", "count"),
    ("mem.l2_hits", "count"),
    ("mem.mem_fills", "count"),
    ("mem.l1_hit_ratio", "ratio"),
    ("smtx.fast_commits", "count"),
    ("smtx.slow_commits", "count"),
    ("smtx.demotions", "count"),
    ("smtx.fast_retries", "count"),
    ("smtx.backoff_cycles", "cycles"),
    ("smtx.fast_path_ratio", "ratio"),
    ("server.decode_us", "us"),
    ("types.key_us", "us"),
    ("server.cache_get_us", "us"),
    ("server.encode_us", "us"),
    ("bench.execute_ms", "ms"),
    ("router.hop_us", "us"),
    ("server.unattributed_ms", "ms"),
    ("server.mem_hits", "count"),
    ("server.misses", "count"),
    ("server.coalesced_hits", "count"),
    ("server.executed", "count"),
    ("server.rejected_busy", "count"),
    ("server.errors", "count"),
    ("server.hit_ratio", "ratio"),
    ("router.forwarded", "count"),
    ("router.failovers", "count"),
    ("loadgen.p50_ms", "ms"),
    ("loadgen.p99_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.max_rps", "1/s"),
    ("modelcheck.states", "count"),
    ("modelcheck.transitions", "count"),
    ("modelcheck.frontier_peak", "count"),
    ("modelcheck.states_per_s", "1/s"),
    ("modelcheck.dedup_ratio", "ratio"),
    ("modelcheck.hash_us", "us"),
    ("explore.clone_us", "us"),
    ("explore.step_us", "us"),
    ("explore.enabled_us", "us"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
];

pub const WORKLOADS: &[&str] = &["sim-sweep", "sim-chaos", "serve-zipf", "model-check"];

/// Everything one workload run produces.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted, correctness checks included.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one checked operation; a failed check is reported by name.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    /// A percentile that must be supported by at least ten samples beyond
    /// it; otherwise the run fails instead of printing a number.
    pub fn percentile(&mut self, sample: &[f64], q: f64, what: &str) -> f64 {
        match stats::supported(sample, q, what) {
            Ok(p) => {
                self.notes.push(format!(
                    "{what}: p{} = {:.4} (n = {}, {} beyond)",
                    q * 100.0,
                    p.value,
                    sample.len(),
                    p.beyond
                ));
                p.value
            }
            Err(e) => {
                self.check(false, || e);
                0.0
            }
        }
    }
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: Option<PathBuf>,
    pub router_bin: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut router_bin = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--router-bin" => router_bin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        serve_bin,
        router_bin,
    })
}

/// Peak resident set of a process in MB (`VmHWM` from `/proc`), 0 when
/// unreadable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `struct timespec` of clock_gettime(2) on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Processor time the calling thread has used, in seconds. Unlike wall
/// time it leaves out the time the thread waited for a processor: other
/// processes on a shared host, and the time the hypervisor ran another
/// guest on its virtual CPU.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, exclusively borrowed `timespec`, the layout
    // clock_gettime(2) writes; it keeps no pointer after returning.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Repeats a set-up `reps` times and returns the last result with the
/// median set-up time in seconds. With `cal` a set-up is timed in the
/// benchmark thread's processor time, scaled by a reference run right after
/// it; without, in elapsed time (for set-ups that wait on other processes).
pub fn median_setup<T>(
    reps: usize,
    mut cal: Option<&mut Calibration>,
    mut f: impl FnMut() -> T,
) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let s = match cal.as_mut() {
            Some(cal) => {
                let t = thread_cpu_s();
                last = Some(f());
                let s = thread_cpu_s() - t;
                s * cal.local_scale(1)
            }
            None => {
                let t = Instant::now();
                last = Some(f());
                t.elapsed().as_secs_f64()
            }
        };
        times.push(s);
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Records the traced run's attribution check: spans must account for the
/// traced wall time up to the tracing overhead.
pub fn finish_trace(out: &mut Outcome, tracer: &Tracer, traced_wall_s: f64, overhead_s: f64) {
    let unattributed = traced_wall_s - tracer.self_total_s();
    out.set("trace.wall_s", traced_wall_s);
    out.set("trace.overhead_s", overhead_s);
    out.set("trace.unattributed_s", unattributed);
    out.notes.push(format!(
        "trace: wall {traced_wall_s:.4} s, spans cover {:.4} s, unattributed {unattributed:.4} s, \
         tracing overhead {overhead_s:.4} s",
        tracer.self_total_s()
    ));
    let within = unattributed.abs() <= overhead_s.abs().max(0.01 * traced_wall_s);
    out.check(within, || {
        format!("span self times leave {unattributed:.4} s of the traced wall unattributed")
    });
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 \
                 [--serve-bin PATH --router-bin PATH]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "sim-sweep" => sim::sweep(&args, &mut tracer),
        "sim-chaos" => sim::chaos(&args, &mut tracer),
        "serve-zipf" => serve::run(&args, &mut tracer),
        "model-check" => model::run(&args, &mut tracer),
        _ => unreachable!("validated in parse_args"),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if args.trace {
        let path = PathBuf::from(format!(
            "perfbench/out/trace-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("spans written to {}", path.display());
    }

    for n in &out.notes {
        println!("{n}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => panic!(
                "{}: end-to-end metric {name} was not measured",
                args.workload
            ),
        };
        println!("{name} = {value} {unit}");
        fields.push(format!(
            r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
            json_num(value)
        ));
    }
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "fail_ratio = {fail_ratio} ratio ({} of {} operations)",
        out.failed, out.attempted
    );
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmtx_types::Json;

    /// BENCHMARK.json and the metric tables here must name the same
    /// metrics with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(entries)) = doc.get(key) else {
                panic!("{key} is a list");
            };
            let listed: Vec<(String, String)> = entries
                .iter()
                .map(|e| {
                    (
                        e.get("name").and_then(Json::as_str).unwrap().to_string(),
                        e.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads is a list");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
