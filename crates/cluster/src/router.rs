//! The routing core behind the `hmtx-router` binary.
//!
//! A router fronts N `hmtx-serve` backends speaking the same length-prefix
//! frame protocol the backends speak, so clients (`hmtx-load`, `hmtx-run
//! --remote`) point at it unchanged. Job frames are forwarded **verbatim**
//! to the backend that homes the spec's content-addressed key on the
//! consistent-hash [`Ring`], and the backend's response frame is spliced
//! back verbatim — the router never re-serializes either direction, so the
//! byte-identity guarantee of the caching tiers survives routing. Nor does
//! it parse a response: a `draining` backend is recognized by the exact
//! bytes of [`proto::DRAINING`], the only draining frame a backend emits.
//!
//! Failure handling is two layered views over one static ring:
//!
//! * a **health checker** pings every backend on an interval and keeps an
//!   up/down flag per backend (down also flushes its connection pool);
//! * a **forward loop** walks the key's candidate sequence — live backends
//!   in ring order first, then known-down ones (the health view may be
//!   stale, and probing is how a restarted backend gets rediscovered
//!   between ticks). Exhausting every candidate starts a new round after a
//!   seeded, jittered exponential backoff derived from the job spec, so
//!   concurrent clients retrying the same outage de-synchronize
//!   deterministically. A `draining` response counts as down (the backend
//!   announced it is leaving); a `busy` response is forwarded to the client
//!   **without** failover — backpressure is per-home-node state, and
//!   bouncing the job elsewhere would break single-flight coalescing on
//!   its home.
//!
//! `stats` answers with the counter-wise sum of every reachable backend's
//! snapshot ([`StatsSnapshot::counter_sum`]) with the quantile fields
//! filled from the router's own forward-latency histogram, so `hmtx-load`
//! works against a router exactly as against a single node. `cluster`
//! additionally itemizes per-backend snapshots, liveness, and the router's
//! own counters.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hmtx_core::LatencyHistogram;
use hmtx_server::proto::{self, FrameBuf, Request};
use hmtx_server::{backoff_ms, spec_jitter_seed, Client};
use hmtx_types::{Json, StatsSnapshot};

use crate::pool::Pool;
use crate::ring::{Ring, DEFAULT_REPLICAS};

/// Router configuration. `backends` is the only required field.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Backend addresses (`host:port` each).
    pub backends: Vec<String>,
    /// Virtual ring points per backend.
    pub replicas: usize,
    /// Interval between health-check sweeps.
    pub health_interval: Duration,
    /// Full candidate-sequence rounds to retry (with backoff between
    /// rounds) before a job is declared unrouteable.
    pub failover_retries: u32,
    /// Base backoff between retry rounds (grows exponentially, jittered by
    /// the job spec's seed).
    pub retry_base_ms: u64,
}

impl RouterConfig {
    /// Defaults for everything but the backend list.
    #[must_use]
    pub fn new(backends: Vec<String>) -> RouterConfig {
        RouterConfig {
            backends,
            replicas: DEFAULT_REPLICAS,
            health_interval: Duration::from_millis(150),
            failover_retries: 4,
            retry_base_ms: 20,
        }
    }
}

/// The router's own counters (distinct from the backends' serving stats).
#[derive(Default)]
struct RouterMetrics {
    forwarded: AtomicU64,
    failovers: AtomicU64,
    retry_rounds: AtomicU64,
    unrouteable: AtomicU64,
    forward: Mutex<LatencyHistogram>,
}

/// A copyable snapshot of the router counters, for tests and the
/// `cluster` frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterCounters {
    /// Job frames answered by a backend (any response type).
    pub forwarded: u64,
    /// Jobs answered by a backend other than their home node.
    pub failovers: u64,
    /// Backed-off full-candidate retry rounds taken.
    pub retry_rounds: u64,
    /// Jobs no backend could answer within the retry budget.
    pub unrouteable: u64,
}

struct Backend {
    pool: Pool,
    up: AtomicBool,
}

struct Shared {
    ring: Ring,
    backends: Vec<Backend>,
    cfg: RouterConfig,
    metrics: RouterMetrics,
    draining: AtomicBool,
    active_conns: AtomicUsize,
    addr: SocketAddr,
}

impl Shared {
    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            // Wake the blocking accept loop so it observes the flag.
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// A running router: listener plus health-checker, over a fixed backend
/// set.
pub struct RouterHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    health: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// Binds `addr` and starts the accept loop and health checker.
    ///
    /// # Errors
    ///
    /// Propagates bind errors; an empty backend list is
    /// [`io::ErrorKind::InvalidInput`].
    pub fn start(addr: &str, cfg: RouterConfig) -> io::Result<RouterHandle> {
        if cfg.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "hmtx-router needs at least one backend",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let ring = Ring::new(&cfg.backends, cfg.replicas);
        let backends = cfg
            .backends
            .iter()
            .map(|a| Backend {
                pool: Pool::new(a),
                // Optimistic until the first health sweep says otherwise:
                // a cold router must not reject its first requests.
                up: AtomicBool::new(true),
            })
            .collect();
        let shared = Arc::new(Shared {
            ring,
            backends,
            cfg,
            metrics: RouterMetrics::default(),
            draining: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            addr: local,
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        let health = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || health_loop(&shared))
        };
        Ok(RouterHandle {
            shared,
            accept: Some(accept),
            health: Some(health),
        })
    }

    /// The bound listen address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The current health view of backend `index` (test visibility).
    #[must_use]
    pub fn backend_up(&self, index: usize) -> bool {
        self.shared.backends[index].up.load(Ordering::SeqCst)
    }

    /// A snapshot of the router's own counters.
    #[must_use]
    pub fn counters(&self) -> RouterCounters {
        counters(&self.shared.metrics)
    }

    /// Begins a graceful drain: stop accepting, answer `draining` to new
    /// jobs, finish in-flight forwards.
    pub fn drain(&self) {
        self.shared.begin_drain();
    }

    /// Blocks until the accept loop, health checker, and every connection
    /// thread have exited (connections idle out within their read
    /// timeout once draining).
    pub fn wait(mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        if let Some(t) = self.health.take() {
            let _ = t.join();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.shared.active_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

fn counters(m: &RouterMetrics) -> RouterCounters {
    RouterCounters {
        forwarded: m.forwarded.load(Ordering::Relaxed),
        failovers: m.failovers.load(Ordering::Relaxed),
        retry_rounds: m.retry_rounds.load(Ordering::Relaxed),
        unrouteable: m.unrouteable.load(Ordering::Relaxed),
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.active_conns.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            serve_conn(&shared, stream);
            shared.active_conns.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

fn health_loop(shared: &Arc<Shared>) {
    while !shared.draining.load(Ordering::SeqCst) {
        for backend in &shared.backends {
            let alive = probe(backend);
            let was = backend.up.swap(alive, Ordering::SeqCst);
            if was && !alive {
                backend.pool.clear();
            }
        }
        // Sleep in slices so drain is observed promptly.
        let mut left = shared.cfg.health_interval;
        while !left.is_zero() && !shared.draining.load(Ordering::SeqCst) {
            let step = left.min(Duration::from_millis(50));
            std::thread::sleep(step);
            left -= step;
        }
    }
}

/// One liveness probe: dial-or-reuse, bounded ping, return to pool.
fn probe(backend: &Backend) -> bool {
    let Ok(mut client) = backend.pool.checkout() else {
        return false;
    };
    if client.set_read_timeout(Some(Duration::from_millis(500))).is_err() {
        return false;
    }
    let ponged = client.ping().unwrap_or(false);
    if ponged && client.set_read_timeout(None).is_ok() {
        backend.pool.checkin(client);
    }
    ponged
}

fn serve_conn(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // The timeout is an idle tick, not a deadline: it lets the thread
    // notice a drain between requests. A frame that straddles a tick stays
    // buffered in `rbuf` and completes on a later read.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut rbuf = FrameBuf::new();
    let mut out = Vec::new();
    loop {
        // Serve every complete frame already buffered (pipelined frames
        // that arrived in one segment), in order, answering each before
        // the next is forwarded. (An oversized prefix stops this loop and
        // fails the `fill` below, closing the connection.)
        while let Ok(Some(frame)) = rbuf.next_frame() {
            out.clear();
            handle_frame(shared, frame, &mut out);
            if stream.write_all(&out).is_err() {
                return;
            }
        }
        match rbuf.fill(&mut stream) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Answers one client frame (length prefix included), appending the
/// response frame to `out`.
fn handle_frame(shared: &Shared, frame: &[u8], out: &mut Vec<u8>) {
    let response = match Request::parse(&frame[4..]) {
        Ok(Request::Job { spec, .. }) => {
            if shared.draining.load(Ordering::SeqCst) {
                proto::DRAINING.to_vec()
            } else if route_job(shared, frame, &spec, out) {
                return;
            } else {
                unrouteable(shared, &spec)
            }
        }
        Ok(Request::Stats) => proto::stats_response(&aggregate_stats(shared)),
        Ok(Request::Cluster) => cluster_response(shared),
        Ok(Request::Ping) => proto::pong_response(),
        Ok(Request::Shutdown) => {
            shared.begin_drain();
            proto::ok_response()
        }
        Err(message) => proto::error_response(&message, &[]),
    };
    proto::push_response(out, &response);
}

/// Forwards a job frame along its key's candidate backends, splicing the
/// first non-`draining` answer into `out` verbatim. The answer is never
/// parsed: `draining` is recognized by its exact bytes, and every other
/// frame (`result`, `busy`, `timeout`, `error`) goes to the client as the
/// backend wrote it. Returns `false` when no backend answered within the
/// retry budget.
fn route_job(shared: &Shared, frame: &[u8], spec: &hmtx_types::JobSpec, out: &mut Vec<u8>) -> bool {
    let key = spec.key();
    let candidates = shared.ring.candidates(&key);
    let home = candidates[0];
    let start = Instant::now();
    for attempt in 0..=shared.cfg.failover_retries {
        if attempt > 0 {
            shared.metrics.retry_rounds.fetch_add(1, Ordering::Relaxed);
            // Derived only on the retry path: it hashes the key once more.
            let seed = spec_jitter_seed(spec);
            let wait = backoff_ms(shared.cfg.retry_base_ms, attempt - 1, seed);
            std::thread::sleep(Duration::from_millis(wait));
        }
        // Live candidates in ring order, then known-down ones: stale health
        // state must not hide a recovered backend for a whole round.
        let up = |i: &&usize| shared.backends[**i].up.load(Ordering::SeqCst);
        let order: Vec<usize> = candidates
            .iter()
            .filter(up)
            .chain(candidates.iter().filter(|i| !up(i)))
            .copied()
            .collect();
        for index in order {
            let backend = &shared.backends[index];
            match forward_once(backend, frame, out) {
                Ok(true) => {}
                // Unreachable, or answered `draining` (the backend
                // announced its exit): treat as down and keep walking the
                // ring.
                Ok(false) | Err(_) => {
                    backend.up.store(false, Ordering::SeqCst);
                    backend.pool.clear();
                    continue;
                }
            }
            backend.up.store(true, Ordering::SeqCst);
            shared.metrics.forwarded.fetch_add(1, Ordering::Relaxed);
            if index != home {
                shared.metrics.failovers.fetch_add(1, Ordering::Relaxed);
            }
            let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            shared.metrics.forward.lock().unwrap().record_us(us);
            return true;
        }
    }
    false
}

fn unrouteable(shared: &Shared, spec: &hmtx_types::JobSpec) -> Vec<u8> {
    shared.metrics.unrouteable.fetch_add(1, Ordering::Relaxed);
    proto::error_response(
        "no backend reachable for job",
        &[Json::obj(vec![("key", Json::Str(spec.key()))])],
    )
}

/// One forward attempt against one backend: appends the answer frame to
/// `out` and returns `true`, or returns `false` (appending nothing) when
/// the backend answered `draining`. A failure on a *pooled* connection
/// gets a single fresh-dial retry first: a stale socket left over from a
/// backend restart must not read as a dead backend.
fn forward_once(backend: &Backend, frame: &[u8], out: &mut Vec<u8>) -> io::Result<bool> {
    if let Some(mut client) = backend.pool.take_idle() {
        if let Ok(answered) = relay(&mut client, frame, out) {
            backend.pool.checkin(client);
            return Ok(answered);
        }
        backend.pool.clear();
    }
    let mut client = Client::connect(backend.pool.addr())?;
    let answered = relay(&mut client, frame, out)?;
    backend.pool.checkin(client);
    Ok(answered)
}

fn relay(client: &mut Client, frame: &[u8], out: &mut Vec<u8>) -> io::Result<bool> {
    let response = client.exchange(frame)?;
    if &response[4..] == proto::DRAINING {
        return Ok(false);
    }
    out.extend_from_slice(response);
    Ok(true)
}

/// Counter-wise sum of every reachable backend's snapshot, quantiles from
/// the router's forward-latency histogram.
fn aggregate_stats(shared: &Shared) -> StatsSnapshot {
    let mut sum = StatsSnapshot::default();
    for backend in &shared.backends {
        if let Some(snapshot) = backend_stats(backend) {
            sum = sum.counter_sum(&snapshot);
        }
    }
    let (p50, p99, p999) = shared.metrics.forward.lock().unwrap().quantile_triple_us();
    sum.p50_service_us = p50;
    sum.p99_service_us = p99;
    sum.p999_service_us = p999;
    sum
}

fn backend_stats(backend: &Backend) -> Option<StatsSnapshot> {
    let mut client = backend.pool.checkout().ok()?;
    client
        .set_read_timeout(Some(Duration::from_millis(1_000)))
        .ok()?;
    let snapshot = client.stats().ok()?;
    if client.set_read_timeout(None).is_ok() {
        backend.pool.checkin(client);
    }
    Some(snapshot)
}

/// The `cluster` frame: per-backend liveness and stats, the aggregate,
/// and the router's own counters.
fn cluster_response(shared: &Shared) -> Vec<u8> {
    let mut backends = Vec::with_capacity(shared.backends.len());
    let mut up_count = 0u64;
    for backend in &shared.backends {
        let up = backend.up.load(Ordering::SeqCst);
        let stats = backend_stats(backend);
        if up {
            up_count += 1;
        }
        backends.push(Json::obj(vec![
            ("addr", Json::Str(backend.pool.addr().to_string())),
            ("up", Json::Bool(up)),
            (
                "stats",
                stats.as_ref().map_or(Json::Null, StatsSnapshot::to_json),
            ),
        ]));
    }
    let c = counters(&shared.metrics);
    let (p50, p99, p999) = shared.metrics.forward.lock().unwrap().quantile_triple_us();
    Json::obj(vec![
        ("type", Json::Str("cluster".into())),
        ("backends", Json::Arr(backends)),
        ("aggregate", aggregate_stats(shared).to_json()),
        (
            "router",
            Json::obj(vec![
                ("forwarded", Json::Uint(c.forwarded)),
                ("failovers", Json::Uint(c.failovers)),
                ("retry_rounds", Json::Uint(c.retry_rounds)),
                ("unrouteable", Json::Uint(c.unrouteable)),
                ("p50_forward_us", Json::Uint(p50)),
                ("p99_forward_us", Json::Uint(p99)),
                ("p999_forward_us", Json::Uint(p999)),
                ("backends_up", Json::Uint(up_count)),
                (
                    "backends_total",
                    Json::Uint(shared.backends.len() as u64),
                ),
            ]),
        ),
    ])
    .compact()
    .into_bytes()
}
