//! The `serve-zipf` workload: open-loop load on `hmtx-router` in front of
//! two `hmtx-serve --mem-only` backends, all three run as child processes.
//!
//! Keys are the quick-scale sweep crossed with fault plans. A warm-up
//! requests every key once, so each one misses and simulates; each
//! backend's memory cache holds the whole universe, so the measured phases,
//! whose keys follow a Zipf law, are all cache hits and time the hit path:
//! frame decode, key hashing, cache lookup, encode and the router hop.
//! (Misses in the measured phase made its tail percentile jump between the
//! hit and the miss latency from run to run.) Requests are sent on a fixed
//! schedule
//! and pipelined on at most `nproc` connections (one thread each), and each
//! latency runs from the request's scheduled send time. A fixed rate below
//! saturation gives the end-to-end latencies; a short ladder of higher
//! rates gives the highest rate that meets the latency limit.
//!
//! Every `result` must be byte-identical to the in-process
//! `run_job` + `render_report` bytes of its spec.
//!
//! End to end it reports what serving costs in processor time, scaled to
//! the reference host (`calib`): requests answered per processor second of
//! the router and backends over the measured phases, and the in-process
//! execution a miss pays. The open-loop latencies are per-layer metrics:
//! on a shared two-processor host their p50 moved by a fifth and their p99
//! by a factor of ten between runs of the same code.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hmtx_bench::{render_report, run_job, standard_sweep};
use hmtx_cluster::{Ring, DEFAULT_REPLICAS};
use hmtx_server::proto::{result_response, write_frame, Request};
use hmtx_server::{Client, ReportCache};
use hmtx_types::{FaultSpec, JobSpec, Json, WireScale};

use crate::calib::Calibration;
use crate::stats::{median, Rng, Zipf};
use crate::trace::Tracer;
use crate::{finish_trace, median_setup, peak_rss_mb, thread_cpu_s, Args, Outcome};

/// Fault plans crossed with the 80 sweep specs (the first is fault-free).
const FAULT_PLANS: usize = 8;
const FAULT_RATE_PPM: u32 = 500;
/// Zipf exponent of key popularity.
const ZIPF_S: f64 = 1.2;
/// Per-backend memory cache (reports) and shard count. Each backend can
/// hold the whole universe, so nothing is evicted.
const MEM_CACHE: usize = 80 * FAULT_PLANS;
const SHARDS: usize = 4;
/// Admission queue per backend: deep enough that no request is refused
/// below saturation.
const QUEUE_CAP: usize = 4096;
/// Offered rate of the measured phase, requests per second.
pub const RATE: f64 = 400.0;
/// Ladder rates, as multiples of [`RATE`].
const LADDER: &[f64] = &[1.0, 2.0, 4.0, 8.0];
/// The reported tail percentile of the in-process executions.
const TAIL_Q: f64 = 0.95;
/// How often the reference is timed while the serving tier serves.
const REFERENCE_EVERY: Duration = Duration::from_millis(25);
/// Clock ticks per second of `/proc/<pid>/stat` (Linux's fixed `USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// Processor seconds a process has used, user and system, all threads
/// (exited ones too), from `/proc`; 0 when unreadable.
fn process_cpu_s(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| {
            // Fields after the command name start at field 3 (`state`);
            // utime and stime are fields 14 and 15.
            let rest = s.get(s.rfind(')')? + 2..)?;
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
            Some(ticks / TICKS_PER_S)
        })
        .unwrap_or(0.0)
}
/// The p99 latency limit a ladder rate must meet, in ms.
pub const P99_LIMIT_MS: f64 = 20.0;
/// A rate fails when the generator's lateness grows by more than this
/// between the first and last tenth of its sends, in ms.
const LAG_GROWTH_MS: f64 = 5.0;
/// Rate of the warm-up, which requests every key of the universe once.
const WARMUP_RATE: f64 = 400.0;
/// Share of the measured time spent at the fixed rate; the ladder gets the
/// rest.
const FIXED_SHARE: f64 = 0.7;

/// Seed of the key universe's fault plans. The universe is the same on
/// every run, so every run checks and executes the same jobs; `--seed`
/// drives the popularity order and the request sequence.
const UNIVERSE_SEED: u64 = 0xFA17;

/// The key universe, in a fixed order.
fn universe() -> Vec<JobSpec> {
    let mut rng = Rng::new(UNIVERSE_SEED);
    let plans: Vec<Option<FaultSpec>> = (0..FAULT_PLANS)
        .map(|i| {
            (i > 0).then(|| FaultSpec {
                seed: rng.next_u64(),
                rate_ppm: FAULT_RATE_PPM,
            })
        })
        .collect();
    let mut keys = Vec::new();
    for plan in plans {
        for spec in standard_sweep(WireScale::Quick) {
            keys.push(JobSpec {
                fault: plan,
                ..spec
            });
        }
    }
    keys
}

/// The children: two backends and the router. Dropping it kills and reaps
/// all of them, so every exit path stops them.
struct Cluster {
    children: Vec<(Child, BufReader<ChildStdout>)>,
    backends: Vec<String>,
    router: String,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for (child, _) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Cluster {
    fn spawn(&mut self, bin: &Path, args: &[String]) -> Result<String, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        self.children.push((child, stdout));
        read.map_err(|e| format!("{}: {e}", bin.display()))?;
        line.trim()
            .strip_prefix("listening on ")
            .map(String::from)
            .ok_or_else(|| format!("{}: unexpected first line {line:?}", bin.display()))
    }

    fn start(serve: &Path, router: &Path) -> Result<Cluster, String> {
        let mut c = Cluster {
            children: Vec::new(),
            backends: Vec::new(),
            router: String::new(),
        };
        for _ in 0..2 {
            let args: Vec<String> = [
                "--addr",
                "127.0.0.1:0",
                "--mem-only",
                "--workers",
                "1",
                "--mem-cache",
                &MEM_CACHE.to_string(),
                "--shards",
                &SHARDS.to_string(),
                "--queue-cap",
                &QUEUE_CAP.to_string(),
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let addr = c.spawn(serve, &args)?;
            c.backends.push(addr);
        }
        let args = vec![
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--backends".to_string(),
            c.backends.join(","),
        ];
        c.router = c.spawn(router, &args)?;
        let mut client = Client::connect(&c.router).map_err(|e| format!("router: {e}"))?;
        if !client.ping().map_err(|e| format!("router ping: {e}"))? {
            return Err("router did not answer ping".into());
        }
        Ok(c)
    }

    /// Processor seconds the children have used so far.
    fn cpu_s(&self) -> f64 {
        self.children
            .iter()
            .map(|(c, _)| process_cpu_s(c.id()))
            .sum()
    }

    fn child_rss_mb(&self) -> f64 {
        self.children
            .iter()
            .map(|(c, _)| peak_rss_mb(&c.id().to_string()))
            .sum()
    }

    /// The router's `cluster` frame.
    fn counters(&self) -> Result<Json, String> {
        let mut client = Client::connect(&self.router).map_err(|e| e.to_string())?;
        let bytes = client
            .request(&Request::Cluster)
            .map_err(|e| e.to_string())?;
        hmtx_server::parse_response(&bytes)
    }
}

/// What one open-loop phase observed.
#[derive(Default)]
struct Phase {
    offered: f64,
    sent: usize,
    latencies_ms: Vec<f64>,
    lags_ms: Vec<f64>,
    /// Responses that were not `result` frames, or never arrived.
    failures: usize,
    /// Responses that differed from an earlier response for the same key.
    mismatches: usize,
    /// Host seconds from the first scheduled send to the last response.
    span_s: f64,
    lag_growth_ms: f64,
    first: HashMap<usize, Vec<u8>>,
}

impl Phase {
    fn achieved(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.span_s.max(1e-9)
    }
}

/// `struct pollfd` of poll(2).
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

/// Waits up to `timeout_ms` for any of `socks` to become readable and
/// returns which are.
fn readable(socks: &[TcpStream], timeout_ms: i32) -> Vec<bool> {
    use std::os::fd::AsRawFd;
    let mut fds: Vec<PollFd> = socks
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `pollfd` structs, the layout poll(2) expects; the kernel writes only
    // their `revents` fields and keeps no pointer after returning.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
    if n <= 0 {
        return vec![false; socks.len()];
    }
    fds.iter().map(|f| f.revents != 0).collect()
}

/// Requests sent on one connection and not yet answered, oldest first.
type Pending = Mutex<VecDeque<(Instant, usize)>>;

/// The sending thread: sleeps until each request is due, then writes it to
/// connection `i mod lanes`. Returns each send's lateness in ms.
fn send_all(
    socks: &[TcpStream],
    pending: &[Pending],
    frames: &[Vec<u8>],
    stream: &[usize],
    t0: Instant,
    rate: f64,
) -> Result<Vec<f64>, String> {
    let mut lags = Vec::with_capacity(stream.len());
    for (i, &key) in stream.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        lags.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let lane = i % socks.len();
        // Queue before writing: the answer can arrive before write returns.
        pending[lane]
            .lock()
            .expect("receiver never panics holding the lock")
            .push_back((due, key));
        (&socks[lane])
            .write_all(&frames[key])
            .map_err(|e| format!("send: {e}"))?;
    }
    Ok(lags)
}

/// The receiving thread: reads answers from every connection as they
/// arrive, until `expected` have come back or `give_up` passes.
fn receive_all(
    socks: &[TcpStream],
    pending: &[Pending],
    expected: usize,
    give_up: Instant,
) -> Result<(Phase, Instant), String> {
    let mut phase = Phase::default();
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); socks.len()];
    let mut chunk = vec![0u8; 64 * 1024];
    let mut last_rx = Instant::now();
    let mut received = 0;
    while received < expected && Instant::now() < give_up {
        for (lane, ready) in readable(socks, 100).into_iter().enumerate() {
            if !ready {
                continue;
            }
            let n = (&socks[lane])
                .read(&mut chunk)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("the router closed a connection".into());
            }
            let rx = Instant::now();
            let buf = &mut bufs[lane];
            buf.extend_from_slice(&chunk[..n]);
            let mut at = 0;
            while buf.len() - at >= 4 {
                let len = u32::from_be_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
                if buf.len() - at < 4 + len {
                    break;
                }
                let frame = &buf[at + 4..at + 4 + len];
                at += 4 + len;
                let Some((due, key)) = pending[lane]
                    .lock()
                    .expect("sender never panics holding the lock")
                    .pop_front()
                else {
                    return Err("an answer without a request".into());
                };
                received += 1;
                last_rx = rx;
                phase
                    .latencies_ms
                    .push(rx.saturating_duration_since(due).as_secs_f64() * 1e3);
                if !frame.starts_with(br#"{"type":"result""#) {
                    phase.failures += 1;
                } else if let Some(seen) = phase.first.get(&key) {
                    phase.mismatches += usize::from(seen.as_slice() != frame);
                } else {
                    phase.first.insert(key, frame.to_vec());
                }
            }
            buf.drain(..at);
        }
    }
    phase.failures += expected - received;
    Ok((phase, last_rx))
}

/// Offers `stream` at `rate`, pipelined over `lanes` connections: one
/// thread sends on schedule, one receives.
fn open_loop(
    addr: &str,
    frames: &[Vec<u8>],
    stream: &[usize],
    rate: f64,
    lanes: usize,
) -> Result<Phase, String> {
    let socks: Vec<TcpStream> = (0..lanes)
        .map(|_| {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            Ok(s)
        })
        .collect::<Result<_, String>>()?;
    let pending: Vec<Pending> = (0..lanes).map(|_| Mutex::new(VecDeque::new())).collect();
    let t0 = Instant::now() + Duration::from_millis(20);
    let give_up = t0 + Duration::from_secs_f64(stream.len() as f64 / rate + 20.0);
    let (sent, received) = std::thread::scope(|s| {
        let receiver = s.spawn(|| receive_all(&socks, &pending, stream.len(), give_up));
        let sent = send_all(&socks, &pending, frames, stream, t0, rate);
        (sent, receiver.join())
    });
    let lags = sent?;
    let (mut phase, last) =
        received.unwrap_or_else(|_| Err("the receiving thread panicked".into()))?;
    phase.offered = rate;
    phase.sent = lags.len();
    phase.span_s = last.saturating_duration_since(t0).as_secs_f64();
    // Lateness growth: the last tenth of sends against the first tenth.
    let n = lags.len();
    if n >= 20 {
        let tenth = n / 10;
        phase.lag_growth_ms = median(&lags[n - tenth..]) - median(&lags[..tenth]);
    }
    phase.lags_ms = lags;
    Ok(phase)
}

fn counter(doc: &Json, path: &[&str]) -> f64 {
    let mut v = doc;
    for p in path {
        match v.get(p) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_u64().map_or(0.0, |n| n as f64)
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let serve_bin = args.serve_bin.as_deref().ok_or("--serve-bin is required")?;
    let router_bin = args
        .router_bin
        .as_deref()
        .ok_or("--router-bin is required")?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let lanes = nproc.min(2);
    let mut out = Outcome::default();
    out.check(lanes <= nproc, || {
        format!("{lanes} load threads exceed nproc {nproc}")
    });

    // Set-up: the key universe and request frames, and the cluster start
    // (started several times; the last one serves).
    let ((keys, frames, cluster), setup_s) = median_setup(15, None, || {
        let keys = universe();
        let frames: Vec<Vec<u8>> = keys
            .iter()
            .map(|spec| {
                let mut f = Vec::new();
                let req = Request::Job {
                    spec: *spec,
                    deadline_ms: None,
                };
                write_frame(&mut f, &req.to_bytes()).expect("frame fits");
                f
            })
            .collect();
        let cluster = Cluster::start(serve_bin, router_bin);
        (keys, frames, cluster)
    });
    let cluster = cluster?;
    out.set("setup_s", setup_s);
    // The popularity order is fixed, like the universe; the seed drives
    // the request sequence drawn from it.
    let zipf = Zipf::new(keys.len(), ZIPF_S, &mut Rng::new(UNIVERSE_SEED));
    let mut rng = Rng::stream(args.seed, 0x21FF);
    let mut draw = |n: usize| -> Vec<usize> { (0..n).map(|_| zipf.sample(&mut rng)).collect() };

    let fixed_s = args.seconds * FIXED_SHARE;
    let step_s = args.seconds * (1.0 - FIXED_SHARE) / LADDER.len() as f64;
    let warm_stream = Rng::stream(args.seed, 0x3A53).permutation(keys.len());
    let fixed_stream = draw((RATE * fixed_s) as usize);
    let ladder_streams: Vec<(f64, Vec<usize>)> = LADDER
        .iter()
        .map(|m| (RATE * m, draw((RATE * m * step_s) as usize)))
        .collect();
    let traced_start = Instant::now();

    let warm = tracer.span("serve.warmup", 0, || {
        open_loop(&cluster.router, &frames, &warm_stream, WARMUP_RATE, lanes)
    })?;
    let before = if tracer.enabled() {
        Some(cluster.counters()?)
    } else {
        None
    };
    let serving_cpu_before = cluster.cpu_s();
    // While the tier serves, a thread times the reference now and then: the
    // tier's processor time is scaled by their median.
    let stop = AtomicBool::new(false);
    let (phases, serving_cal) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut cal = Calibration::default();
            while !stop.load(Ordering::Relaxed) {
                cal.local_scale(1);
                std::thread::sleep(REFERENCE_EVERY);
            }
            cal
        });
        let phases = (|| -> Result<_, String> {
            let fixed = tracer.span("serve.fixed", 0, || {
                open_loop(&cluster.router, &frames, &fixed_stream, RATE, lanes)
            })?;
            let after = if tracer.enabled() {
                Some(cluster.counters()?)
            } else {
                None
            };
            let mut ladder = Vec::new();
            for (i, (rate, stream)) in ladder_streams.iter().enumerate() {
                let p = tracer.span("serve.ladder", i as u64, || {
                    open_loop(&cluster.router, &frames, stream, *rate, lanes)
                })?;
                ladder.push(p);
            }
            Ok((fixed, after, ladder))
        })();
        stop.store(true, Ordering::Relaxed);
        let cal = sampler.join().expect("the reference thread does not panic");
        (phases, cal)
    });
    let (fixed, after, ladder) = phases?;
    let serving_cpu = cluster.cpu_s() - serving_cpu_before;
    let answered =
        fixed.latencies_ms.len() + ladder.iter().map(|p| p.latencies_ms.len()).sum::<usize>();

    // The fixed phase must be clean; ladder rates past saturation may be
    // refused (that only fails the rate), but never answer wrong bytes.
    out.attempted += (warm.sent + fixed.sent) as u64;
    out.failed += (warm.failures + warm.mismatches + fixed.failures + fixed.mismatches) as u64;
    if warm.failures > 0 {
        out.notes
            .push(format!("FAILED: warm-up: {} failed", warm.failures));
    }
    if fixed.failures + fixed.mismatches > 0 {
        out.notes.push(format!(
            "FAILED: fixed rate: {} failed, {} differing responses",
            fixed.failures, fixed.mismatches
        ));
    }
    let ladder_mismatches: usize = ladder.iter().map(|p| p.mismatches).sum();
    out.check(ladder_mismatches == 0, || {
        format!("{ladder_mismatches} ladder responses differed for one key")
    });

    // The highest ladder rate meeting the limit with no growing backlog.
    let mut max_rps = 0.0;
    for p in &ladder {
        let s = crate::stats::sorted(p.latencies_ms.clone());
        let p99 = crate::stats::quantile(&s, 0.99).map_or(f64::INFINITY, |q| q.value);
        let meets = p.failures == 0
            && p.sent > 0
            && p99 <= P99_LIMIT_MS
            && p.achieved() >= 0.95 * p.offered
            && p.lag_growth_ms <= LAG_GROWTH_MS;
        out.notes.push(format!(
            "ladder {:.0} req/s: achieved {:.1}, p99 {p99:.3} ms, lag growth {:.3} ms, \
             {} failed -> {}",
            p.offered,
            p.achieved(),
            p.lag_growth_ms,
            p.failures,
            if meets { "meets" } else { "misses" }
        ));
        if meets {
            max_rps = p.achieved();
        } else {
            break;
        }
    }

    let rss_mb = peak_rss_mb("self") + cluster.child_rss_mb();
    let end = if tracer.enabled() {
        Some(cluster.counters()?)
    } else {
        None
    };
    let backends = cluster.backends.clone();
    drop(cluster);
    let load_wall = traced_start.elapsed().as_secs_f64();

    // Every distinct key served must match its in-process bytes exactly.
    let mut served: HashMap<usize, Vec<u8>> = HashMap::new();
    for p in std::iter::once(&warm)
        .chain(std::iter::once(&fixed))
        .chain(&ladder)
    {
        for (k, bytes) in &p.first {
            served.entry(*k).or_insert_with(|| bytes.clone());
        }
    }
    // Every key of the universe runs in-process (the same jobs on every
    // run), and each one served is checked against it.
    let mut exec_s: Vec<Vec<f64>> = Vec::new();
    let mut cal = Calibration::default();
    let mut instructions = 0u64;
    let mut reports: HashMap<usize, Vec<u8>> = HashMap::new();
    let reference_start = Instant::now();
    tracer.begin("serve.reference", 0);
    for (k, spec) in keys.iter().enumerate() {
        let t = thread_cpu_s();
        let result = tracer.span("bench.execute", k as u64, || {
            run_job(spec).map(|r| {
                (
                    render_report(spec, &r).compact(),
                    r.machine.stats().instructions,
                )
            })
        });
        let run_s = thread_cpu_s() - t;
        // Scaled by a reference run right after it (untraced only: the
        // reference is not a span).
        let scale = if tracer.enabled() {
            1.0
        } else {
            cal.local_scale(1)
        };
        exec_s.push(vec![run_s * scale]);
        match result {
            Ok((report, instr)) => {
                instructions += instr;
                if let Some(got) = served.get(&k) {
                    let want = result_response(&spec.key(), report.as_bytes());
                    out.check(want == *got, || {
                        format!(
                            "served bytes for {} differ from the in-process report",
                            spec.key()
                        )
                    });
                }
                reports.insert(k, report.into_bytes());
            }
            Err(e) => out.check(false, || format!("in-process {}: {e}", spec.key())),
        }
    }
    tracer.end();
    let reference_wall = reference_start.elapsed().as_secs_f64();
    if !tracer.enabled() {
        // Two more in-process runs of every key; each key's median run is
        // its cost.
        for (k, spec) in keys.iter().enumerate().chain(keys.iter().enumerate()) {
            let t = thread_cpu_s();
            let again = run_job(spec).map(|r| render_report(spec, &r).compact());
            let run_s = thread_cpu_s() - t;
            exec_s[k].push(run_s * cal.local_scale(1));
            let same = again.ok().map(String::into_bytes) == reports.get(&k).cloned();
            out.check(same, || {
                format!("a repeated in-process run of {} differs", spec.key())
            });
        }
    }
    let s = crate::stats::sorted(fixed.latencies_ms.clone());
    let q = |p: f64| crate::stats::quantile(&s, p).map_or(0.0, |q| q.value);
    out.notes.push(format!(
        "serving tier: {answered} answers in {serving_cpu:.2} processor s of the router and \
         backends over the fixed phase and the ladder"
    ));
    let latency_p50 = out.percentile(&fixed.latencies_ms, 0.5, "request latency (ms)");
    let latency_p99 = out.percentile(&fixed.latencies_ms, 0.99, "request latency (ms)");
    out.notes.push(format!(
        "fixed rate latency (ms): p10 {:.3}, p25 {:.3}, p75 {:.3}, p90 {:.3}",
        q(0.1),
        q(0.25),
        q(0.75),
        q(0.9)
    ));
    out.notes.push(format!(
        "fixed rate {:.0} req/s on {lanes} connections: {} sent, {} answered in {:.3} s \
         ({:.1} req/s), {} distinct keys checked against in-process reports",
        fixed.offered,
        fixed.sent,
        fixed.latencies_ms.len(),
        fixed.span_s,
        fixed.achieved(),
        served.len()
    ));

    if !tracer.enabled() {
        out.notes.push(cal.note());
        let exec_ms: Vec<f64> = exec_s.iter().map(|s| median(s) * 1e3).collect();
        let exec_total_s = exec_ms.iter().sum::<f64>() / 1e3;
        out.set("cpu_s", exec_total_s);
        out.set("sim_mips", instructions as f64 / exec_total_s / 1e6);
        let p50 = out.percentile(&exec_ms, 0.5, "in-process execution (ms)");
        let tail = out.percentile(&exec_ms, TAIL_Q, "in-process execution (ms)");
        out.set("op_p50_ms", p50);
        out.set("op_tail_ms", tail);
        out.notes
            .push(format!("serving tier {}", serving_cal.note()));
        let serving_s = serving_cpu.max(1.0 / TICKS_PER_S) * serving_cal.scale();
        out.set("ops_per_s", answered as f64 / serving_s);
        out.set("rss_mb", rss_mb);
        return Ok(out);
    }

    // Per-layer: serving counters over the fixed phase.
    let (before, after, end) = (
        before.expect("traced"),
        after.expect("traced"),
        end.expect("traced"),
    );
    let delta = |path: &[&str]| counter(&after, path) - counter(&before, path);
    let mem_hits = delta(&["aggregate", "mem_hits"]);
    let misses = delta(&["aggregate", "misses"]);
    let coalesced = delta(&["aggregate", "coalesced_hits"]);
    out.set("server.mem_hits", mem_hits);
    out.set("server.misses", misses);
    out.set("server.coalesced_hits", coalesced);
    out.set("server.executed", delta(&["aggregate", "executed"]));
    out.set(
        "server.rejected_busy",
        counter(&end, &["aggregate", "rejected_busy"]),
    );
    out.set("server.errors", counter(&end, &["aggregate", "errors"]));
    let hit_ratio = (mem_hits + coalesced) / (mem_hits + coalesced + misses).max(1.0);
    out.set("server.hit_ratio", hit_ratio);
    out.set("router.forwarded", delta(&["router", "forwarded"]));
    out.set("router.failovers", counter(&end, &["router", "failovers"]));
    let lag = crate::stats::sorted(fixed.lags_ms.clone());
    out.set(
        "loadgen.lag_p99_ms",
        crate::stats::quantile(&lag, 0.99).map_or(0.0, |q| q.value),
    );
    out.set("loadgen.max_rps", max_rps);
    out.set("loadgen.p50_ms", latency_p50);
    out.set("loadgen.p99_ms", latency_p99);
    let execute_ms = exec_s.iter().map(|s| s[0]).sum::<f64>() / exec_s.len().max(1) as f64 * 1e3;
    out.set("bench.execute_ms", execute_ms);

    // Stage costs in-process on the fixed phase's key stream: once
    // untraced (the overhead baseline), once traced.
    let ring = Ring::new(&backends, DEFAULT_REPLICAS);
    let stage_untraced = Instant::now();
    stages(
        &keys,
        &frames,
        &fixed_stream,
        &reports,
        &ring,
        &mut Tracer::new(false),
    );
    let stage_untraced = stage_untraced.elapsed().as_secs_f64();
    let stage_traced = Instant::now();
    tracer.begin("serve.stages", 0);
    let (decode, key, get, encode) = stages(&keys, &frames, &fixed_stream, &reports, &ring, tracer);
    tracer.end();
    let stage_traced = stage_traced.elapsed().as_secs_f64();
    out.set("server.decode_us", decode);
    out.set("types.key_us", key);
    out.set("server.cache_get_us", get);
    out.set("server.encode_us", encode);

    // The router hop, on hits: routed minus direct round trip.
    let hop_start = Instant::now();
    let hop_us = tracer.span("serve.hop", 0, || hop(serve_bin, router_bin, &keys, &zipf))?;
    let hop_wall = hop_start.elapsed().as_secs_f64();
    out.set("router.hop_us", hop_us);

    let mean_latency =
        fixed.latencies_ms.iter().sum::<f64>() / fixed.latencies_ms.len().max(1) as f64;
    let hit_path_ms = (decode + key + get + encode) / 1e3;
    let explained = hit_ratio * hit_path_ms + (1.0 - hit_ratio) * execute_ms + hop_us / 1e3;
    out.set("server.unattributed_ms", mean_latency - explained);

    finish_trace(
        &mut out,
        tracer,
        load_wall + reference_wall + stage_traced + hop_wall,
        stage_traced - stage_untraced,
    );
    Ok(out)
}

/// Mean in-process cost per request of each hit-path stage, in µs:
/// frame decode, content key, cache lookup (each backend's cache, filled
/// on a miss as a worker would), and response encode + frame write.
fn stages(
    keys: &[JobSpec],
    frames: &[Vec<u8>],
    stream: &[usize],
    reports: &HashMap<usize, Vec<u8>>,
    ring: &Ring,
    tracer: &mut Tracer,
) -> (f64, f64, f64, f64) {
    let caches: Vec<ReportCache> = (0..2)
        .map(|_| ReportCache::with_shards(MEM_CACHE, SHARDS, None))
        .collect();
    let (mut decode, mut key_t, mut get, mut encode) = (0.0, 0.0, 0.0, 0.0);
    let mut hits = 0usize;
    let mut sink = Vec::with_capacity(8192);
    for (i, &k) in stream.iter().enumerate() {
        let id = i as u64;
        tracer.begin("serve.request", id);
        let t = Instant::now();
        let parsed = tracer.span("server.decode", id, || Request::parse(&frames[k][4..]));
        decode += t.elapsed().as_secs_f64();
        let spec = match parsed {
            Ok(Request::Job { spec, .. }) => spec,
            _ => keys[k],
        };
        let t = Instant::now();
        let key = tracer.span("types.key", id, || spec.key());
        key_t += t.elapsed().as_secs_f64();
        let cache = &caches[ring.home(&key)];
        let t = Instant::now();
        let found = tracer.span("server.cache_get", id, || cache.get(&key));
        get += t.elapsed().as_secs_f64();
        match found {
            Some((bytes, _)) => {
                hits += 1;
                let t = Instant::now();
                tracer.span("server.encode", id, || {
                    sink.clear();
                    write_frame(&mut sink, &result_response(&key, &bytes)).expect("frame fits");
                });
                encode += t.elapsed().as_secs_f64();
            }
            None => {
                if let Some(report) = reports.get(&k) {
                    let _ = cache.put(&key, Arc::new(report.clone()));
                }
            }
        }
        tracer.end();
    }
    let n = stream.len().max(1) as f64;
    (
        decode / n * 1e6,
        key_t / n * 1e6,
        get / n * 1e6,
        encode / hits.max(1) as f64 * 1e6,
    )
}

/// Starts a fresh cluster, warms the hottest keys, then times closed-loop
/// round trips for them routed and sent straight to their home backend.
/// Returns the difference of the medians in µs.
fn hop(serve_bin: &Path, router_bin: &Path, keys: &[JobSpec], zipf: &Zipf) -> Result<f64, String> {
    const HOT: usize = 16;
    const ROUNDS: usize = 25;
    let cluster = Cluster::start(serve_bin, router_bin)?;
    let ring = Ring::new(&cluster.backends, DEFAULT_REPLICAS);
    let io = |e: std::io::Error| e.to_string();
    let mut routed = Client::connect(&cluster.router).map_err(io)?;
    let mut direct: Vec<Client> = cluster
        .backends
        .iter()
        .map(|b| Client::connect(b))
        .collect::<Result<_, _>>()
        .map_err(io)?;
    let hot: Vec<&JobSpec> = (0..HOT).map(|r| &keys[zipf.item_at_rank(r)]).collect();
    for spec in &hot {
        routed.job(spec, None).map_err(io)?;
    }
    let (mut via_router, mut straight) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        for spec in &hot {
            let t = Instant::now();
            routed.job(spec, None).map_err(io)?;
            via_router.push(t.elapsed().as_secs_f64() * 1e6);
            let home = ring.home(&spec.key());
            let t = Instant::now();
            direct[home].job(spec, None).map_err(io)?;
            straight.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(median(&via_router) - median(&straight))
}
