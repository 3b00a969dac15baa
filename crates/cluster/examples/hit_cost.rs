//! Per-request serving cost of `hmtx-router` over two `hmtx-serve`
//! backends, per process, for two builds run alternately.
//!
//! ```text
//! cargo run --release -p hmtx-cluster --example hit_cost -- \
//!     --base OTHER/target/release [--bin target/release] \
//!     [--pairs 10] [--requests 4000] [--rate 1000] [--keys 80]
//! ```
//!
//! Each run starts two `hmtx-serve --mem-only --workers 1 --mem-cache 8192`
//! and an `hmtx-router` over them, all from one build directory. The
//! working set is `--keys` specs: the 80 quick-scale sweep specs, then the
//! same crossed with fault plans of seed 1, 2, ... at 500 ppm. The warm-up
//! requests each once through the router, so each backend caches its keys.
//! It then sends `--requests` job frames that cycle over the working set,
//! one every `1/--rate` seconds on one connection, and checks each answer
//! byte for byte against the warm-up's. Every measured request repeats a
//! warmed key; the router answers it by itself only if its result tier
//! still holds the key, which the default 80 keys fit and a working set
//! several times the tier's 1,024 frames does not (each arrival then
//! evicted before it cycles back, and forwarded). The `cluster` frame's
//! `router.hits`, read around the stream, counts the share the router
//! answered (`null` for a build without the tier).
//!
//! Around the stream it reads, per process, the processor time of its
//! threads (`/proc/PID/task/*/schedstat`, first field, in ns) and their
//! voluntary and involuntary context switches (`/proc/PID/task/*/status`),
//! and divides each by the requests sent. Every thread of these processes
//! lives for the whole run, so the per-thread files miss nothing.
//! `ops_per_cpu_s` is requests answered per processor second of all three
//! processes, as serve-zipf's `ops_per_s` counts them.
//!
//! A pair runs both builds, `--base` first in even pairs and `--bin` first
//! in odd ones. Prints one JSON line per run, then a JSON summary: per build
//! and process, the median and quartiles of each figure over the runs, and
//! how many pairs `--bin` used less processor time in.

use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use hmtx_bench::standard_sweep;
use hmtx_server::{parse_response, response_type, Client, Request};
use hmtx_types::cli::{Args, UsageError};
use hmtx_types::{FaultSpec, JobSpec, Json, WireScale};

const USAGE: &str = "usage: hit_cost --base DIR [--bin DIR] [--pairs N] [--requests N] \
    [--rate PER_S] [--keys N]";

/// The processes of one run, in report order.
const PROCS: [&str; 3] = ["router", "backend0", "backend1"];

struct Opts {
    base: PathBuf,
    bin: PathBuf,
    pairs: usize,
    requests: usize,
    rate: f64,
    keys: usize,
}

fn parse_args(mut args: Args) -> Result<Opts, UsageError> {
    let mut opts = Opts {
        base: PathBuf::new(),
        bin: PathBuf::from("target/release"),
        pairs: 10,
        requests: 4000,
        rate: 1000.0,
        keys: 80,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--base" => opts.base = args.value(&arg)?.into(),
            "--bin" => opts.bin = args.value(&arg)?.into(),
            "--pairs" => opts.pairs = args.parse(&arg)?,
            "--requests" => opts.requests = args.parse(&arg)?,
            "--rate" => opts.rate = args.parse(&arg)?,
            "--keys" => opts.keys = args.parse(&arg)?,
            _ => return Err(UsageError::unknown(&arg)),
        }
    }
    if opts.base.as_os_str().is_empty() {
        return Err(UsageError::new("--base is required"));
    }
    if opts.pairs == 0 || opts.requests == 0 || opts.rate <= 0.0 || opts.keys == 0 {
        return Err(UsageError::new(
            "--pairs, --requests, --rate and --keys must be positive",
        ));
    }
    Ok(opts)
}

/// A child server process; its stdout stays open so it never sees `EPIPE`.
struct Proc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Proc {
    /// Starts `bin` with `args` and reads its `listening on ADDR` line.
    fn spawn(bin: &Path, args: &[&str]) -> io::Result<Proc> {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!("{}: no address", bin.display())));
        };
        Ok(Proc {
            addr: addr.to_string(),
            child,
            _stdout: stdout,
        })
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Processor time and context switches of every thread of a process.
#[derive(Debug, Default, Clone, Copy)]
struct Usage {
    cpu_ns: u64,
    voluntary: u64,
    involuntary: u64,
}

fn usage(pid: u32) -> Usage {
    let mut u = Usage::default();
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return u;
    };
    let field = |v: &str| v.trim().parse::<u64>().unwrap_or(0);
    for task in tasks.flatten() {
        let dir = task.path();
        if let Ok(s) = std::fs::read_to_string(dir.join("schedstat")) {
            u.cpu_ns += s.split_whitespace().next().map_or(0, field);
        }
        for line in std::fs::read_to_string(dir.join("status"))
            .unwrap_or_default()
            .lines()
        {
            if let Some(v) = line.strip_prefix("voluntary_ctxt_switches:") {
                u.voluntary += field(v);
            } else if let Some(v) = line.strip_prefix("nonvoluntary_ctxt_switches:") {
                u.involuntary += field(v);
            }
        }
    }
    u
}

/// The first `n` specs of the quick sweep crossed with fault plans, the
/// fault-free plan first.
fn working_set(n: usize) -> Vec<JobSpec> {
    let sweep = standard_sweep(WireScale::Quick);
    (0u64..)
        .flat_map(|plan| {
            let fault = (plan > 0).then_some(FaultSpec {
                seed: plan,
                rate_ppm: 500,
            });
            sweep.iter().map(move |&spec| JobSpec { fault, ..spec })
        })
        .take(n)
        .collect()
}

/// The router's `hits` counter, `None` for a build without one.
fn router_hits(client: &mut Client) -> Result<Option<u64>, String> {
    let answer = client
        .request(&Request::Cluster)
        .map_err(|e| e.to_string())?;
    let cluster = parse_response(&answer)?;
    Ok(cluster.get("router").and_then(|r| r.get("hits")?.as_u64()))
}

/// One run: per process in [`PROCS`] order, processor µs, voluntary and
/// involuntary context switches per request; and the requests the router
/// answered by itself.
struct Run {
    procs: Vec<[f64; 3]>,
    router_hits: Option<u64>,
}

fn run(dir: &Path, opts: &Opts) -> Result<Run, String> {
    let (requests, rate) = (opts.requests, opts.rate);
    let serve = dir.join("hmtx-serve");
    let backend_args = [
        "--addr",
        "127.0.0.1:0",
        "--mem-only",
        "--workers",
        "1",
        "--mem-cache",
        "8192",
    ];
    let backends = (0..2)
        .map(|_| Proc::spawn(&serve, &backend_args))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("hmtx-serve: {e}"))?;
    let list = format!("{},{}", backends[0].addr, backends[1].addr);
    let router_args = ["--addr", "127.0.0.1:0", "--backends", list.as_str()];
    let router = Proc::spawn(&dir.join("hmtx-router"), &router_args)
        .map_err(|e| format!("hmtx-router: {e}"))?;

    let specs = working_set(opts.keys);
    let mut client = Client::connect(&router.addr).map_err(|e| e.to_string())?;
    let mut warm = Vec::with_capacity(specs.len());
    for spec in &specs {
        let answer = client.job(spec, None).map_err(|e| e.to_string())?;
        if response_type(&answer).as_deref() != Some("result") {
            return Err(format!("warm-up of {} did not answer a result", spec.key()));
        }
        warm.push(answer);
    }

    let pids = [
        router.child.id(),
        backends[0].child.id(),
        backends[1].child.id(),
    ];
    let hits_before = router_hits(&mut client)?;
    let before: Vec<Usage> = pids.iter().map(|&p| usage(p)).collect();
    let t0 = Instant::now();
    for i in 0..requests {
        let due = t0 + Duration::from_secs_f64(i as f64 / rate);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let k = i % specs.len();
        if client.job(&specs[k], None).map_err(|e| e.to_string())? != warm[k] {
            return Err(format!(
                "request {i} on {} differs from its warm-up",
                specs[k].key()
            ));
        }
    }
    let after: Vec<Usage> = pids.iter().map(|&p| usage(p)).collect();
    let hits_after = router_hits(&mut client)?;
    let n = requests as f64;
    let procs = before
        .iter()
        .zip(&after)
        .map(|(b, a)| {
            [
                a.cpu_ns.saturating_sub(b.cpu_ns) as f64 / 1e3 / n,
                a.voluntary.saturating_sub(b.voluntary) as f64 / n,
                a.involuntary.saturating_sub(b.involuntary) as f64 / n,
            ]
        })
        .collect();
    let router_hits = hits_before.zip(hits_after).map(|(b, a)| a - b);
    Ok(Run { procs, router_hits })
}

fn total_cpu_us(run: &Run) -> f64 {
    run.procs.iter().map(|p| p[0]).sum()
}

/// Linearly interpolated quantile of `xs`.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let at = q * (s.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (at - lo as f64)
}

fn spread(xs: &[f64]) -> Json {
    Json::obj(vec![
        ("median", Json::Num(quantile(xs, 0.5))),
        ("q1", Json::Num(quantile(xs, 0.25))),
        ("q3", Json::Num(quantile(xs, 0.75))),
    ])
}

/// Medians and quartiles of every figure of every process over `runs`.
fn summary(runs: &[Run]) -> Json {
    let figures = ["cpu_us_per_req", "voluntary_per_req", "involuntary_per_req"];
    let mut fields: Vec<(&str, Json)> = PROCS
        .iter()
        .enumerate()
        .map(|(p, name)| {
            let per = (0..3)
                .map(|f| {
                    let xs: Vec<f64> = runs.iter().map(|r| r.procs[p][f]).collect();
                    (figures[f], spread(&xs))
                })
                .collect();
            (*name, Json::obj(per))
        })
        .collect();
    let totals: Vec<f64> = runs.iter().map(total_cpu_us).collect();
    let ops: Vec<f64> = totals.iter().map(|us| 1e6 / us).collect();
    fields.push(("total_cpu_us_per_req", spread(&totals)));
    fields.push(("ops_per_cpu_s", spread(&ops)));
    Json::obj(fields)
}

fn run_json(build: &str, pair: usize, run: &Run) -> Json {
    let mut fields = vec![
        ("build", Json::Str(build.into())),
        ("pair", Json::Uint(pair as u64)),
    ];
    for (name, p) in PROCS.iter().zip(&run.procs) {
        fields.push((
            name,
            Json::obj(vec![
                ("cpu_us_per_req", Json::Num(p[0])),
                ("voluntary_per_req", Json::Num(p[1])),
                ("involuntary_per_req", Json::Num(p[2])),
            ]),
        ));
    }
    let total = total_cpu_us(run);
    fields.push(("total_cpu_us_per_req", Json::Num(total)));
    fields.push(("ops_per_cpu_s", Json::Num(1e6 / total)));
    let hits = run.router_hits.map_or(Json::Null, Json::Uint);
    fields.push(("router_hits", hits));
    Json::obj(fields)
}

fn main() {
    let opts = parse_args(Args::from_env()).unwrap_or_else(|e| e.exit("hit_cost", USAGE));
    let (mut base_runs, mut bin_runs) = (Vec::new(), Vec::new());
    for pair in 0..opts.pairs {
        let mut order = [("base", &opts.base), ("bin", &opts.bin)];
        if pair % 2 == 1 {
            order.reverse();
        }
        for (build, dir) in order {
            let r = run(dir, &opts).unwrap_or_else(|e| {
                eprintln!("hit_cost: {build} ({}): {e}", dir.display());
                std::process::exit(1);
            });
            println!("{}", run_json(build, pair, &r).compact());
            if build == "base" {
                base_runs.push(r);
            } else {
                bin_runs.push(r);
            }
        }
    }
    let wins = base_runs
        .iter()
        .zip(&bin_runs)
        .filter(|(b, n)| total_cpu_us(n) < total_cpu_us(b))
        .count();
    let report = Json::obj(vec![
        ("requests", Json::Uint(opts.requests as u64)),
        ("rate_per_s", Json::Num(opts.rate)),
        ("keys", Json::Uint(opts.keys as u64)),
        ("pairs", Json::Uint(opts.pairs as u64)),
        ("base", summary(&base_runs)),
        ("bin", summary(&bin_runs)),
        ("bin_wins_pairs", Json::Uint(wins as u64)),
    ]);
    println!("{}", report.compact());
}
