//! `hmtx-load` — load generator and cache-benchmark client for
//! `hmtx-serve`.
//!
//! ```text
//! hmtx-load --addr HOST:PORT [--clients N] [--rounds N] [--scale S]
//!           [--limit N] [--deadline-ms N] [--retries N] [--json PATH] [--check]
//! ```
//!
//! Submits the standard 80-job sweep ([`hmtx_bench::standard_sweep`]) over
//! `N` concurrent client connections, `--rounds` times. With the default
//! two rounds, round 0 measures the **cold** cache (every job simulates)
//! and round 1 the **warm** cache (every job replays), so one invocation
//! produces the cold-vs-warm comparison directly. `busy` backpressure is
//! retried with the server's hint.
//!
//! `--check` additionally verifies that every response is a `result` and
//! that responses for the same spec are **byte-identical across rounds**,
//! exiting nonzero otherwise. `--json PATH` writes the measurements
//! (per-round wall/throughput/latency quantiles and server counter deltas).
//!
//! `--sustained` switches to **open-loop** load: arrivals are scheduled on
//! a fixed clock at `--rate` per second for `--duration-s` seconds,
//! independent of how fast the server answers. Each arrival's latency is
//! measured from its *scheduled* time, so queueing delay when the server
//! falls behind shows up in the tail instead of silently throttling the
//! offered rate (the closed-loop coordinated-omission trap). The report
//! carries offered vs achieved throughput and p50/p99/p999.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hmtx_core::LatencyHistogram;
use hmtx_server::{response_type, Client};
use hmtx_types::cli::{Args, UsageError};
use hmtx_types::{JobSpec, Json, StatsSnapshot, WireScale};

const USAGE: &str = "usage: hmtx-load --addr HOST:PORT [--clients N] [--rounds N] \
    [--scale quick|standard|stress] [--limit N] [--deadline-ms N] \
    [--retries N] [--json PATH] [--check] \
    [--sustained --rate R --duration-s D]";

#[derive(Default)]
struct Opts {
    addr: String,
    clients: usize,
    rounds: usize,
    scale: WireScale,
    limit: Option<usize>,
    deadline_ms: Option<u64>,
    retries: u32,
    json_path: Option<String>,
    check: bool,
    sustained: bool,
    rate: f64,
    duration_s: f64,
}

fn parse_args(mut args: Args) -> Result<Opts, UsageError> {
    let mut addr = None;
    let mut opts = Opts {
        clients: 4,
        rounds: 2,
        retries: 60,
        rate: 200.0,
        duration_s: 10.0,
        ..Opts::default()
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(args.value(&arg)?),
            "--clients" => opts.clients = args.parse::<NonZeroUsize>(&arg)?.get(),
            "--rounds" => opts.rounds = args.parse::<NonZeroUsize>(&arg)?.get(),
            "--scale" => opts.scale = args.parse_with(&arg, |v| WireScale::from_name(v).ok())?,
            "--limit" => opts.limit = Some(args.parse(&arg)?),
            "--deadline-ms" => opts.deadline_ms = Some(args.parse(&arg)?),
            "--retries" => opts.retries = args.parse(&arg)?,
            "--json" => opts.json_path = Some(args.value(&arg)?),
            "--check" => opts.check = true,
            "--sustained" => opts.sustained = true,
            "--rate" => opts.rate = args.parse(&arg)?,
            "--duration-s" => opts.duration_s = args.parse(&arg)?,
            _ => return Err(UsageError::unknown(&arg)),
        }
    }
    opts.addr = addr.ok_or_else(|| UsageError::new("--addr is required"))?;
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if opts.sustained && !(positive(opts.rate) && positive(opts.duration_s)) {
        return Err(UsageError::new(
            "--sustained needs a positive --rate and --duration-s",
        ));
    }
    Ok(opts)
}

struct RoundResult {
    wall_seconds: f64,
    ok: usize,
    latencies: LatencyHistogram,
    responses: Vec<Option<Vec<u8>>>,
    stats_delta: Option<(StatsSnapshot, StatsSnapshot)>,
}

fn main() {
    let opts = parse_args(Args::from_env()).unwrap_or_else(|e| e.exit("hmtx-load", USAGE));
    let mut specs = hmtx_bench::standard_sweep(opts.scale);
    if let Some(n) = opts.limit {
        specs.truncate(n);
    }
    if specs.is_empty() {
        UsageError::new("nothing to submit").exit("hmtx-load", USAGE);
    }

    if opts.sustained {
        run_sustained(&opts, &specs);
        return;
    }

    let mut round_results: Vec<RoundResult> = Vec::with_capacity(opts.rounds);
    for round in 0..opts.rounds {
        let before = Client::connect(&opts.addr).and_then(|mut c| c.stats()).ok();
        let responses: Mutex<Vec<Option<Vec<u8>>>> = Mutex::new(vec![None; specs.len()]);
        let latencies: Mutex<LatencyHistogram> = Mutex::new(LatencyHistogram::new());
        let started = Instant::now();
        std::thread::scope(|s| {
            for worker in 0..opts.clients.min(specs.len()) {
                let specs = &specs;
                let responses = &responses;
                let latencies = &latencies;
                let addr = &opts.addr;
                s.spawn(move || {
                    let Ok(mut client) = Client::connect(addr) else {
                        return;
                    };
                    for (i, spec) in specs.iter().enumerate() {
                        if i % opts.clients != worker {
                            continue;
                        }
                        let req_started = Instant::now();
                        let Ok(response) =
                            client.job_with_retry(spec, opts.deadline_ms, opts.retries)
                        else {
                            return;
                        };
                        let us =
                            u64::try_from(req_started.elapsed().as_micros()).unwrap_or(u64::MAX);
                        latencies.lock().unwrap().record_us(us);
                        responses.lock().unwrap()[i] = Some(response);
                    }
                });
            }
        });
        let wall_seconds = started.elapsed().as_secs_f64();
        let after = Client::connect(&opts.addr).and_then(|mut c| c.stats()).ok();
        let responses = responses.into_inner().unwrap();
        let ok = responses
            .iter()
            .filter(|r| {
                r.as_deref()
                    .is_some_and(|b| response_type(b).as_deref() == Some("result"))
            })
            .count();
        eprintln!(
            "hmtx-load: round {round}: {ok}/{} ok in {wall_seconds:.2}s",
            specs.len()
        );
        round_results.push(RoundResult {
            wall_seconds,
            ok,
            latencies: latencies.into_inner().unwrap(),
            responses,
            stats_delta: before.zip(after),
        });
    }

    let mut failures = 0usize;
    if opts.check {
        for (i, spec) in specs.iter().enumerate() {
            let first = round_results[0].responses[i].as_deref();
            for (round, result) in round_results.iter().enumerate() {
                let got = result.responses[i].as_deref();
                if got.map(|b| response_type(b).as_deref() != Some("result")) != Some(false) {
                    eprintln!(
                        "hmtx-load: check failed: round {round} spec {} did not get a result",
                        spec.key()
                    );
                    failures += 1;
                } else if got != first {
                    eprintln!(
                        "hmtx-load: check failed: spec {} differs between rounds 0 and {round}",
                        spec.key()
                    );
                    failures += 1;
                }
            }
        }
        if failures == 0 {
            eprintln!(
                "hmtx-load: check ok: {} specs byte-identical across {} rounds",
                specs.len(),
                round_results.len()
            );
        }
    }

    if let Some(path) = &opts.json_path {
        let report = render_report(&specs.len(), opts.clients, &round_results);
        if let Err(e) = std::fs::write(path, report.pretty()) {
            eprintln!("hmtx-load: writing {path}: {e}");
            std::process::exit(1);
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

/// Open-loop sustained load: arrival `i` is *scheduled* at
/// `start + i/rate` regardless of server speed. `clients` threads claim
/// arrival indexes from one shared counter, sleep until their arrival's
/// scheduled time (or not at all once the generator is behind), and cycle
/// round-robin through the sweep's specs. Latency runs from the scheduled
/// time, so a saturated server's queueing shows up as tail latency and a
/// shortfall of `achieved_rps` against `offered_rps` — never as a quietly
/// slower offered rate.
fn run_sustained(opts: &Opts, specs: &[JobSpec]) {
    let (rate, duration_s) = (opts.rate, opts.duration_s);
    let next_arrival = AtomicUsize::new(0);
    let ok = AtomicUsize::new(0);
    let still_busy = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    let latencies: Mutex<LatencyHistogram> = Mutex::new(LatencyHistogram::new());
    let before = Client::connect(&opts.addr).and_then(|mut c| c.stats()).ok();

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(duration_s);
    std::thread::scope(|s| {
        for _ in 0..opts.clients {
            let next_arrival = &next_arrival;
            let ok = &ok;
            let still_busy = &still_busy;
            let failed = &failed;
            let latencies = &latencies;
            s.spawn(move || {
                let mut client = match Client::connect(&opts.addr) {
                    Ok(c) => c,
                    Err(_) => return,
                };
                loop {
                    let i = next_arrival.fetch_add(1, Ordering::Relaxed);
                    let scheduled = start + Duration::from_secs_f64(i as f64 / rate);
                    if scheduled >= deadline {
                        break;
                    }
                    let now = Instant::now();
                    if scheduled > now {
                        std::thread::sleep(scheduled - now);
                    }
                    let spec = &specs[i % specs.len()];
                    match client.job_with_retry(spec, opts.deadline_ms, opts.retries) {
                        Ok(response) => {
                            let us =
                                u64::try_from(scheduled.elapsed().as_micros()).unwrap_or(u64::MAX);
                            latencies.lock().unwrap().record_us(us);
                            match response_type(&response).as_deref() {
                                Some("result") => ok.fetch_add(1, Ordering::Relaxed),
                                Some("busy") => still_busy.fetch_add(1, Ordering::Relaxed),
                                _ => failed.fetch_add(1, Ordering::Relaxed),
                            };
                        }
                        Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                            // Reconnect; a dropped connection must not
                            // silently retire this generator thread.
                            match Client::connect(&opts.addr) {
                                Ok(c) => client = c,
                                Err(_) => return,
                            }
                        }
                    }
                }
            });
        }
    });
    let wall_seconds = start.elapsed().as_secs_f64();
    let after = Client::connect(&opts.addr).and_then(|mut c| c.stats()).ok();

    let ok = ok.into_inner();
    let still_busy = still_busy.into_inner();
    let failed = failed.into_inner();
    let latencies = latencies.into_inner().unwrap();
    let scheduled_arrivals = next_arrival
        .into_inner()
        .min((rate * duration_s).ceil() as usize);
    let achieved_rps = if wall_seconds > 0.0 {
        ok as f64 / wall_seconds
    } else {
        0.0
    };
    let (p50, p99, p999) = latencies.quantile_triple_us();
    eprintln!(
        "hmtx-load: sustained {rate:.0}/s for {duration_s:.1}s: \
         {ok}/{scheduled_arrivals} ok ({still_busy} busy, {failed} failed), \
         achieved {achieved_rps:.1}/s, p50 {p50}us p99 {p99}us p999 {p999}us"
    );

    let mut fields = vec![
        ("schema", Json::Str("hmtx-load-sustained/1".into())),
        ("clients", Json::Uint(opts.clients as u64)),
        ("offered_rps", Json::Num(rate)),
        ("duration_s", Json::Num(duration_s)),
        ("wall_seconds", Json::Num(wall_seconds)),
        ("scheduled_arrivals", Json::Uint(scheduled_arrivals as u64)),
        ("ok", Json::Uint(ok as u64)),
        ("still_busy", Json::Uint(still_busy as u64)),
        ("failed", Json::Uint(failed as u64)),
        ("achieved_rps", Json::Num(achieved_rps)),
        ("p50_us", Json::Uint(p50)),
        ("p99_us", Json::Uint(p99)),
        ("p999_us", Json::Uint(p999)),
    ];
    if let (Some(before), Some(after)) = (before, after) {
        let delta =
            |get: fn(&StatsSnapshot) -> u64| Json::Uint(get(&after).saturating_sub(get(&before)));
        fields.push((
            "server_delta",
            Json::obj(vec![
                ("cache_hits", delta(StatsSnapshot::cache_hits)),
                ("mem_hits", delta(|s| s.mem_hits)),
                ("misses", delta(|s| s.misses)),
                ("executed", delta(|s| s.executed)),
                ("rejected_busy", delta(|s| s.rejected_busy)),
            ]),
        ));
    }
    let report = Json::obj(fields);
    if let Some(path) = &opts.json_path {
        if let Err(e) = std::fs::write(path, report.pretty()) {
            eprintln!("hmtx-load: writing {path}: {e}");
            std::process::exit(1);
        }
    } else {
        print!("{}", report.pretty());
    }
    if opts.check && (ok == 0 || failed > 0) {
        eprintln!("hmtx-load: sustained check failed: ok={ok} failed={failed}");
        std::process::exit(1);
    }
}

fn render_report(jobs: &usize, clients: usize, rounds: &[RoundResult]) -> Json {
    let round_json: Vec<Json> = rounds
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let throughput = if r.wall_seconds > 0.0 {
                r.ok as f64 / r.wall_seconds
            } else {
                0.0
            };
            let mut fields = vec![
                ("round", Json::Uint(i as u64)),
                ("jobs", Json::Uint(*jobs as u64)),
                ("ok", Json::Uint(r.ok as u64)),
                ("wall_seconds", Json::Num(r.wall_seconds)),
                ("throughput_jobs_per_s", Json::Num(throughput)),
                ("p50_us", Json::Uint(r.latencies.quantile_us(0.50))),
                ("p99_us", Json::Uint(r.latencies.quantile_us(0.99))),
                ("p999_us", Json::Uint(r.latencies.quantile_us(0.999))),
            ];
            if let Some((before, after)) = &r.stats_delta {
                let delta = |get: fn(&StatsSnapshot) -> u64| {
                    Json::Uint(get(after).saturating_sub(get(before)))
                };
                fields.push((
                    "server_delta",
                    Json::obj(vec![
                        ("cache_hits", delta(StatsSnapshot::cache_hits)),
                        ("mem_hits", delta(|s| s.mem_hits)),
                        ("disk_hits", delta(|s| s.disk_hits)),
                        ("coalesced_hits", delta(|s| s.coalesced_hits)),
                        ("misses", delta(|s| s.misses)),
                        ("executed", delta(|s| s.executed)),
                        ("rejected_busy", delta(|s| s.rejected_busy)),
                    ]),
                ));
            }
            Json::obj(fields)
        })
        .collect();

    let mut top = vec![
        ("schema", Json::Str("hmtx-load-report/1".into())),
        ("clients", Json::Uint(clients as u64)),
        ("rounds", Json::Arr(round_json)),
    ];
    if rounds.len() >= 2 {
        let cold = &rounds[0];
        let warm = &rounds[rounds.len() - 1];
        let speedup = if warm.wall_seconds > 0.0 {
            cold.wall_seconds / warm.wall_seconds
        } else {
            0.0
        };
        top.push((
            "summary",
            Json::obj(vec![
                ("cold_wall_seconds", Json::Num(cold.wall_seconds)),
                ("warm_wall_seconds", Json::Num(warm.wall_seconds)),
                ("warm_over_cold_speedup", Json::Num(speedup)),
            ]),
        ));
    }
    Json::obj(top)
}
