//! The routing core behind the `hmtx-router` binary.
//!
//! A router fronts N `hmtx-serve` backends over the same frame protocol,
//! so clients point at it unchanged. A job frame goes **verbatim** to the
//! backend that homes the spec's content key on the consistent-hash
//! [`Ring`], and the answer frame comes back verbatim and unparsed: a
//! `draining` backend is recognized by the exact bytes of
//! [`proto::DRAINING`].
//!
//! The router is a [`Service`] of the server's readiness loop
//! ([`hmtx_server::ready`]): one thread holds every client connection, and
//! a forward is a pending slot on a nonblocking backend socket, so a slow
//! backend parks only the requests waiting on it. The loop owns the idle
//! backend sockets; the one call that may block it is a dial, bounded by
//! `DIAL_TIMEOUT`. Health checks are loop work too ([`Service::tick`]):
//! each interval the loop reads every backend's `ping` probe without
//! waiting and sends the next, keeping an up/down flag per backend.
//!
//! A forward walks the key's candidates, live ones in ring order first,
//! then known-down ones (the health view may be stale). A failed reused
//! socket gets one fresh dial before its backend counts as down. After
//! every candidate fails, a new round starts after a seeded, jittered
//! backoff (the slot's deadline), up to `FAILOVER_RETRIES` rounds.
//! `draining` counts as down; `busy` is forwarded without failover:
//! retrying elsewhere would break single-flight on the key's home. A job
//! forward expires `DEADLINE_MARGIN` after the job's own `deadline_ms` has
//! run out, counted from when its frame went to the backend awaited: that
//! backend took the job and never answered, so it is marked down and the
//! client gets `timeout`. A job that names no deadline expires likewise at
//! the servers' default ([`DEFAULT_DEADLINE_MS`]), but its backend stays
//! up: the router cannot see a backend's `--deadline-ms`, which may be
//! longer.
//!
//! A result is immutable per content key, so the router keeps the last
//! `RESULT_FRAMES` `result` frames it forwarded (a memory-only
//! [`ReportCache`] keyed by content key) and answers a repeated key by
//! itself, without a backend socket. Only a frame that is exactly the
//! `result` envelope of the forward's own key is stored
//! ([`proto::is_result_for`]); no entry ever goes stale.
//!
//! `stats` sums every reachable backend's snapshot
//! ([`StatsSnapshot::counter_sum`]) and the router's own hits, with
//! quantiles from the router's own forward latencies, and `cluster`
//! itemizes backends and counters; both ask each backend in turn, giving
//! each `STATS_TIMEOUT` to answer.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hmtx_core::LatencyHistogram;
use hmtx_server::proto::{self, Request};
use hmtx_server::ready::{self, Peer, Service, Waker};
use hmtx_server::{backoff_ms, parse_response, ReportCache, DEFAULT_DEADLINE_MS};
use hmtx_types::{Json, StatsSnapshot};

use crate::ring::{fnv1a_64, Ring, DEFAULT_REPLICAS};

/// The longest one backend dial may block the readiness loop. A refused
/// connection returns at once; this bounds an unreachable host.
const DIAL_TIMEOUT: Duration = Duration::from_millis(250);

/// How long one backend gets to answer the router's `stats` exchange.
const STATS_TIMEOUT: Duration = Duration::from_secs(1);

/// How long a health probe waits for its `pong`.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);

/// Backed-off rounds over all candidates before a job is unrouteable.
const FAILOVER_RETRIES: u32 = 4;

/// Base of the exponential, key-jittered backoff between rounds, in ms.
const RETRY_BASE_MS: u64 = 20;

/// Idle sockets kept per backend; a burst's surplus closes after use.
const IDLE_CAP: usize = 8;

/// Result frames the router answers by itself: about 1 MB, since a quick-
/// or standard-scale `result` frame is 0.75–1.1 KB. Split over the cache's
/// default sixteen shards, an eviction scans 64 entries.
const RESULT_FRAMES: usize = 1024;

/// How long past a job's deadline the router waits for its backend. The
/// backend answers `timeout` at the deadline itself, so the router's own
/// expiry fires only for a backend that does not answer at all.
const DEADLINE_MARGIN: Duration = Duration::from_secs(1);

/// Router configuration. `backends` is the only required field.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Backend addresses (`host:port` each).
    pub backends: Vec<String>,
    /// Interval between health-probe rounds.
    pub health_interval: Duration,
}

impl RouterConfig {
    /// The default health interval (150 ms) over `backends`.
    #[must_use]
    pub fn new(backends: Vec<String>) -> RouterConfig {
        RouterConfig {
            backends,
            health_interval: Duration::from_millis(150),
        }
    }
}

/// The router's own counters (distinct from the backends' serving stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterCounters {
    /// Job frames answered by a backend (any response type).
    pub forwarded: u64,
    /// Job frames the router answered from its own result tier.
    pub hits: u64,
    /// Jobs answered by a backend other than their home node.
    pub failovers: u64,
    /// Backed-off full-candidate retry rounds taken.
    pub retry_rounds: u64,
    /// Jobs no backend could answer within the retry budget.
    pub unrouteable: u64,
}

/// State the loop shares with the handle.
struct Shared {
    /// The health view, per backend.
    up: Vec<AtomicBool>,
    counters: Mutex<RouterCounters>,
    draining: AtomicBool,
    /// Wakes the readiness loop.
    wake: Waker,
}

impl Shared {
    fn new(backends: usize) -> io::Result<Shared> {
        Ok(Shared {
            // Optimistic until the first probe says otherwise: a cold
            // router must not reject its first requests.
            up: (0..backends).map(|_| AtomicBool::new(true)).collect(),
            counters: Mutex::default(),
            draining: AtomicBool::new(false),
            wake: Waker::new()?,
        })
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.wake.wake();
    }
}

/// A running router: the readiness loop over a fixed backend set.
pub struct RouterHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    event: JoinHandle<()>,
}

impl RouterHandle {
    /// Binds `addr` and starts the readiness loop.
    ///
    /// # Errors
    ///
    /// Propagates bind and waker errors; an empty backend list is
    /// [`io::ErrorKind::InvalidInput`].
    pub fn start(addr: &str, cfg: RouterConfig) -> io::Result<RouterHandle> {
        if cfg.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "hmtx-router needs at least one backend",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared::new(cfg.backends.len())?);
        let event = {
            let shared = Arc::clone(&shared);
            let mut router = Router::new(cfg, Arc::clone(&shared));
            std::thread::spawn(move || ready::event_loop(&mut router, &listener, &shared.wake))
        };
        Ok(RouterHandle {
            shared,
            addr,
            event,
        })
    }

    /// The bound listen address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current health view of backend `index` (test visibility).
    #[must_use]
    pub fn backend_up(&self, index: usize) -> bool {
        self.shared.up[index].load(Ordering::SeqCst)
    }

    /// A snapshot of the router's own counters.
    #[must_use]
    pub fn counters(&self) -> RouterCounters {
        *self.shared.counters.lock().unwrap()
    }

    /// Begins a graceful drain: stop accepting, answer `draining` to new
    /// jobs, finish in-flight forwards.
    pub fn drain(&self) {
        self.shared.begin_drain();
    }

    /// Blocks until the readiness loop has answered every pending slot and
    /// closed its connections. Call [`RouterHandle::drain`] first (or, in a
    /// binary, let a signal begin it) — otherwise this blocks until
    /// something else does.
    pub fn wait(self) {
        let _ = self.event.join();
    }
}

/// A frame sent to one backend, its answer awaited on the socket.
struct Link {
    backend: usize,
    peer: Peer,
    /// Taken from the idle set: a failure earns one fresh dial.
    reused: bool,
    /// When the frame went out whole; the backend's deadline for a job
    /// starts once it has read it.
    sent: Instant,
}

impl Link {
    /// Writes `frame` to `backend` over `peer`, as far as the socket takes
    /// it now.
    fn open(backend: usize, peer: Peer, reused: bool, frame: &[u8]) -> io::Result<Link> {
        let mut link = Link {
            backend,
            peer,
            reused,
            sent: Instant::now(),
        };
        link.peer.wbuf.extend_from_slice(frame);
        link.peer.flush()?;
        Ok(link)
    }

    /// Moves the exchange on once its socket turned ready; `Ok(true)` once
    /// the whole answer frame is buffered.
    fn step(&mut self) -> io::Result<bool> {
        if self.peer.has_unflushed() {
            self.peer.flush()?;
            if !self.peer.has_unflushed() {
                self.sent = Instant::now();
            }
            return Ok(false);
        }
        if !self.peer.fill()? {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.peer.rbuf.has_frame()
    }
}

/// A request parked on backend sockets.
struct Pending {
    slot: Slot,
    kind: Kind,
}

/// `frame` on its way to one backend at a time over `link`.
struct Slot {
    frame: Vec<u8>,
    link: Option<Link>,
    /// The answer bound of a stats exchange in flight, or the end of a
    /// job's retry backoff (a job's own expiry is [`Forward::expiry`]).
    deadline: Option<Instant>,
}

enum Kind {
    Job(Forward),
    /// `stats` or `cluster`: one snapshot per backend asked so far.
    Stats {
        cluster: bool,
        snapshots: Vec<Option<StatsSnapshot>>,
    },
}

/// A job on its way along its key's candidates.
struct Forward {
    key: String,
    candidates: Vec<usize>,
    /// This round's candidates, live ones first; `next` is the next to try.
    order: Vec<usize>,
    next: usize,
    round: u32,
    started: Instant,
    /// The job's own `deadline_ms`; `None` for the servers' default.
    deadline: Option<Duration>,
}

impl Forward {
    /// When the client gets `timeout` if the backend behind `link` has not
    /// answered.
    fn expiry(&self, link: &Link) -> Instant {
        let deadline = self
            .deadline
            .unwrap_or(Duration::from_millis(DEFAULT_DEADLINE_MS));
        link.sent + deadline + DEADLINE_MARGIN
    }
}

/// The router as the readiness loop runs it: the shared state plus what
/// only the loop thread touches.
struct Router {
    shared: Arc<Shared>,
    cfg: RouterConfig,
    ring: Ring,
    idle: Vec<Vec<Peer>>,
    /// Each backend's `ping` in flight, on a socket of its own.
    probes: Vec<Option<Link>>,
    /// When the next probe round is due.
    next_probe: Instant,
    /// Whole `result` frames by content key, prefix included.
    results: ReportCache,
    /// Forward latency, for the `stats` quantiles.
    forward: LatencyHistogram,
}

impl Service for Router {
    type Pending = Pending;

    fn handle(&mut self, frame: &[u8], out: &mut Vec<u8>) -> Option<Pending> {
        let response = match Request::parse(&frame[4..]) {
            Ok(Request::Job { spec, deadline_ms }) if !self.draining() => {
                let key = spec.key();
                if let Some((answer, _)) = self.results.get(&key) {
                    out.extend_from_slice(&answer);
                    self.shared.counters.lock().unwrap().hits += 1;
                    return None;
                }
                let candidates = self.ring.candidates(&key);
                let forward = Forward {
                    key,
                    order: self.round_order(&candidates),
                    candidates,
                    next: 0,
                    round: 0,
                    started: Instant::now(),
                    deadline: deadline_ms.map(Duration::from_millis),
                };
                return self.park(Kind::Job(forward), frame.to_vec(), out);
            }
            Ok(Request::Job { .. }) => proto::DRAINING.to_vec(),
            Ok(request @ (Request::Stats | Request::Cluster)) => {
                let mut stats = Vec::new();
                proto::push_response(&mut stats, &Request::Stats.to_bytes());
                let kind = Kind::Stats {
                    cluster: request == Request::Cluster,
                    snapshots: Vec::new(),
                };
                return self.park(kind, stats, out);
            }
            Ok(Request::Ping) => proto::pong_response(),
            Ok(Request::Shutdown) => {
                self.shared.begin_drain();
                proto::ok_response()
            }
            Err(message) => proto::error_response(&message, &[]),
        };
        proto::push_response(out, &response);
        None
    }

    fn socket<'a>(&self, pending: &'a Pending) -> Option<&'a Peer> {
        pending.slot.link.as_ref().map(|l| &l.peer)
    }

    fn deadline(&self, pending: &Pending) -> Option<Instant> {
        match &pending.kind {
            Kind::Job(f) => {
                (pending.slot.link.as_ref().map(|l| f.expiry(l))).or(pending.slot.deadline)
            }
            Kind::Stats { .. } => pending.slot.deadline,
        }
    }

    fn resolve(&mut self, pending: &mut Pending, now: Instant, out: &mut Vec<u8>) -> bool {
        let Pending { slot, kind } = pending;
        match kind {
            Kind::Job(f) => self.forward(f, slot, now, out),
            Kind::Stats { cluster, snapshots } => {
                if !self.sweep(snapshots, slot, now) {
                    return false;
                }
                let response = if *cluster {
                    self.cluster_response(snapshots)
                } else {
                    proto::stats_response(&self.aggregate_stats(snapshots))
                };
                proto::push_response(out, &response);
                true
            }
        }
    }

    fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// Runs a probe round whenever one is due, until drain.
    fn tick(&mut self, now: Instant) -> Option<Instant> {
        if now >= self.next_probe && !self.draining() {
            self.probe_round(now);
            self.next_probe = now + self.cfg.health_interval;
        }
        (!self.draining()).then_some(self.next_probe)
    }
}

impl Router {
    fn new(cfg: RouterConfig, shared: Arc<Shared>) -> Router {
        Router {
            ring: Ring::new(&cfg.backends, DEFAULT_REPLICAS),
            idle: cfg.backends.iter().map(|_| Vec::new()).collect(),
            probes: cfg.backends.iter().map(|_| None).collect(),
            next_probe: Instant::now(),
            results: ReportCache::new(RESULT_FRAMES, None),
            forward: LatencyHistogram::new(),
            cfg,
            shared,
        }
    }

    /// Settles each backend's `ping` in flight without waiting (a `pong` is
    /// up; an error, any other frame, or `PROBE_TIMEOUT` of silence is down),
    /// then sends the next on the socket a `pong` came back on, or a new one.
    fn probe_round(&mut self, now: Instant) {
        let (mut ping, pong) = (Vec::new(), proto::pong_response());
        proto::push_response(&mut ping, &Request::Ping.to_bytes());
        let is_pong = |frame: Option<&[u8]>| frame.is_some_and(|f| f[4..] == pong);
        for backend in 0..self.probes.len() {
            let mut kept = None;
            if let Some(mut l) = self.probes[backend].take() {
                match l.step() {
                    Ok(false) if now < l.sent + PROBE_TIMEOUT => {
                        self.probes[backend] = Some(l);
                        continue;
                    }
                    Ok(true) if is_pong(l.peer.rbuf.next_frame().ok().flatten()) => {
                        self.shared.up[backend].store(true, Ordering::SeqCst);
                        kept = Some(l.peer);
                    }
                    _ => self.mark_down(backend),
                }
            }
            let peer = kept.map_or_else(|| dial(&self.cfg.backends[backend]), Ok);
            match peer.and_then(|peer| Link::open(backend, peer, false, &ping)) {
                Ok(link) => self.probes[backend] = Some(link),
                Err(_) => self.mark_down(backend),
            }
        }
    }

    /// Starts a request at once; parks it only if it must wait.
    fn park(&mut self, kind: Kind, frame: Vec<u8>, out: &mut Vec<u8>) -> Option<Pending> {
        let slot = Slot {
            frame,
            link: None,
            deadline: None,
        };
        let mut pending = Pending { slot, kind };
        (!self.resolve(&mut pending, Instant::now(), out)).then_some(pending)
    }

    /// Live candidates in ring order, then known-down ones: stale health
    /// state must not hide a recovered backend for a whole round.
    fn round_order(&self, candidates: &[usize]) -> Vec<usize> {
        let up = |i: &&usize| self.shared.up[**i].load(Ordering::SeqCst);
        candidates
            .iter()
            .filter(up)
            .chain(candidates.iter().filter(|i| !up(i)))
            .copied()
            .collect()
    }

    /// Writes `frame` to `backend` over an idle socket, or a fresh dial when
    /// `fresh`, the backend is down, or none is idle. A reused socket that
    /// fails the write is retried once on a fresh dial. `None`: the backend
    /// is unreachable.
    fn send(&mut self, backend: usize, frame: &[u8], fresh: bool) -> Option<Link> {
        let idle = &mut self.idle[backend];
        if fresh || !self.shared.up[backend].load(Ordering::SeqCst) {
            idle.clear();
        }
        let (peer, reused) = match idle.pop() {
            Some(peer) => (peer, true),
            None => (dial(&self.cfg.backends[backend]).ok()?, false),
        };
        match Link::open(backend, peer, reused, frame) {
            Ok(link) => Some(link),
            Err(_) if reused => self.send(backend, frame, true),
            Err(_) => None,
        }
    }

    /// Returns a socket whose answer was consumed whole to the idle set.
    fn checkin(&mut self, link: Link) {
        let idle = &mut self.idle[link.backend];
        if link.peer.rbuf.buffered() == 0 && idle.len() < IDLE_CAP {
            idle.push(link.peer);
        }
    }

    fn mark_down(&mut self, backend: usize) {
        self.shared.up[backend].store(false, Ordering::SeqCst);
        self.idle[backend].clear();
    }

    /// Drives a job forward as far as it goes without blocking; `true` once
    /// its answer is in `out`. The answer is never parsed: `draining` is
    /// recognized by its exact bytes, and every other frame (`result`,
    /// `busy`, `timeout`, `error`) goes to the client as the backend wrote
    /// it. A `result` for this forward's key is also kept in the result
    /// tier. Once the forward expires, the client gets `timeout`.
    fn forward(&mut self, f: &mut Forward, s: &mut Slot, now: Instant, out: &mut Vec<u8>) -> bool {
        if let Some(mut l) = s.link.take() {
            match l.step() {
                Ok(false) if now < f.expiry(&l) => {
                    s.link = Some(l);
                    return false;
                }
                Ok(false) => {
                    // Past the job's own deadline the backend is broken;
                    // past only the default, it may run a longer one.
                    if f.deadline.is_some() {
                        self.mark_down(l.backend);
                    }
                    proto::push_response(out, &proto::timeout_response(&f.key));
                    return true;
                }
                Ok(true) => match l.peer.rbuf.next_frame() {
                    Ok(Some(answer)) if &answer[4..] != proto::DRAINING => {
                        if proto::is_result_for(&answer[4..], &f.key) {
                            let _ = self.results.put(&f.key, Arc::new(answer.to_vec()));
                        }
                        out.extend_from_slice(answer);
                        self.shared.up[l.backend].store(true, Ordering::SeqCst);
                        {
                            let mut c = self.shared.counters.lock().unwrap();
                            c.forwarded += 1;
                            c.failovers += u64::from(l.backend != f.candidates[0]);
                        }
                        let us = u64::try_from(f.started.elapsed().as_micros());
                        self.forward.record_us(us.unwrap_or(u64::MAX));
                        self.checkin(l);
                        return true;
                    }
                    // The backend announced its exit: treat it as down.
                    _ => self.mark_down(l.backend),
                },
                // A stale reused socket (left over from a backend restart)
                // must not read as a dead backend: one fresh dial first.
                Err(_) if l.reused => {
                    s.link = self.send(l.backend, &s.frame, true);
                    if s.link.is_some() {
                        return false;
                    }
                    self.mark_down(l.backend);
                }
                Err(_) => self.mark_down(l.backend),
            }
        }
        loop {
            if let Some(at) = s.deadline {
                if now < at {
                    return false;
                }
                s.deadline = None;
                f.order = self.round_order(&f.candidates);
                f.next = 0;
            }
            while let Some(&backend) = f.order.get(f.next) {
                f.next += 1;
                s.link = self.send(backend, &s.frame, false);
                if s.link.is_some() {
                    return false;
                }
                self.mark_down(backend);
            }
            if f.round == FAILOVER_RETRIES {
                self.shared.counters.lock().unwrap().unrouteable += 1;
                let key = Json::obj(vec![("key", Json::Str(f.key.clone()))]);
                let error = proto::error_response("no backend reachable for job", &[key]);
                proto::push_response(out, &error);
                return true;
            }
            self.shared.counters.lock().unwrap().retry_rounds += 1;
            let wait = backoff_ms(RETRY_BASE_MS, f.round, fnv1a_64(f.key.as_bytes()));
            f.round += 1;
            s.deadline = Some(now + Duration::from_millis(wait));
        }
    }

    /// Drives a stats sweep; `true` once every backend is asked. Each gets
    /// `STATS_TIMEOUT` to answer, and one that fails or times out counts as
    /// no snapshot.
    fn sweep(&mut self, got: &mut Vec<Option<StatsSnapshot>>, s: &mut Slot, now: Instant) -> bool {
        if let Some(mut l) = s.link.take() {
            match l.step() {
                Ok(false) if s.deadline.is_some_and(|d| now < d) => {
                    s.link = Some(l);
                    return false;
                }
                Ok(true) => {
                    let answer = l.peer.rbuf.next_frame().ok().flatten();
                    got.push(answer.and_then(|a| parse_stats(&a[4..])));
                    self.checkin(l);
                }
                _ => got.push(None),
            }
        }
        while got.len() < self.idle.len() {
            s.link = self.send(got.len(), &s.frame, false);
            if s.link.is_some() {
                s.deadline = Some(now + STATS_TIMEOUT);
                return false;
            }
            got.push(None);
        }
        true
    }
}

/// Dials `addr` for the loop: nonblocking once connected, and blocking the
/// loop for at most [`DIAL_TIMEOUT`] per resolved address.
fn dial(addr: &str) -> io::Result<Peer> {
    let mut last = io::Error::new(io::ErrorKind::InvalidInput, "no address resolved");
    for sa in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sa, DIAL_TIMEOUT) {
            Ok(stream) => {
                stream.set_nonblocking(true)?;
                stream.set_nodelay(true)?;
                return Ok(Peer::new(stream));
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}

fn parse_stats(payload: &[u8]) -> Option<StatsSnapshot> {
    let v = parse_response(payload).ok()?;
    StatsSnapshot::from_json(v.get("stats")?).ok()
}

impl Router {
    /// Counter-wise sum of the backends' snapshots plus the router's own
    /// hits (each a job request answered from memory), quantiles from the
    /// router's forward-latency histogram.
    fn aggregate_stats(&self, snapshots: &[Option<StatsSnapshot>]) -> StatsSnapshot {
        let hits = self.shared.counters.lock().unwrap().hits;
        let mut sum = StatsSnapshot {
            requests: hits,
            job_requests: hits,
            mem_hits: hits,
            ..StatsSnapshot::default()
        };
        for snapshot in snapshots.iter().flatten() {
            sum = sum.counter_sum(snapshot);
        }
        (sum.p50_service_us, sum.p99_service_us, sum.p999_service_us) =
            self.forward.quantile_triple_us();
        sum
    }

    /// The `cluster` frame: per-backend liveness and stats, the aggregate,
    /// and the router's own counters.
    fn cluster_response(&self, snapshots: &[Option<StatsSnapshot>]) -> Vec<u8> {
        let shared = &self.shared;
        let up: Vec<bool> = shared.up.iter().map(|u| u.load(Ordering::SeqCst)).collect();
        let backends = (self.cfg.backends.iter().zip(&up).zip(snapshots))
            .map(|((addr, &up), stats)| {
                Json::obj(vec![
                    ("addr", Json::Str(addr.clone())),
                    ("up", Json::Bool(up)),
                    (
                        "stats",
                        stats.as_ref().map_or(Json::Null, StatsSnapshot::to_json),
                    ),
                ])
            })
            .collect();
        let c = *shared.counters.lock().unwrap();
        let up_count = up.iter().filter(|&&u| u).count() as u64;
        let (p50, p99, p999) = self.forward.quantile_triple_us();
        Json::obj(vec![
            ("type", Json::Str("cluster".into())),
            ("backends", Json::Arr(backends)),
            ("aggregate", self.aggregate_stats(snapshots).to_json()),
            (
                "router",
                Json::obj(vec![
                    ("forwarded", Json::Uint(c.forwarded)),
                    ("hits", Json::Uint(c.hits)),
                    ("failovers", Json::Uint(c.failovers)),
                    ("retry_rounds", Json::Uint(c.retry_rounds)),
                    ("unrouteable", Json::Uint(c.unrouteable)),
                    ("p50_forward_us", Json::Uint(p50)),
                    ("p99_forward_us", Json::Uint(p99)),
                    ("p999_forward_us", Json::Uint(p999)),
                    ("backends_up", Json::Uint(up_count)),
                    ("backends_total", Json::Uint(up.len() as u64)),
                ]),
            ),
        ])
        .compact()
        .into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmtx_server::{response_type, Client, ServerConfig, ServerHandle};
    use hmtx_types::{BenchRef, JobSpec, WireBase, WireParadigm, WireScale};

    /// A router over one backend, driven by hand so a test picks `now`.
    fn router_over(backend: String) -> Router {
        let shared = Shared::new(1).expect("waker");
        Router::new(RouterConfig::new(vec![backend]), Arc::new(shared))
    }

    fn job_frame(spec: &JobSpec, deadline_ms: Option<u64>) -> Vec<u8> {
        let mut frame = Vec::new();
        let job = Request::Job {
            spec: *spec,
            deadline_ms,
        };
        proto::push_response(&mut frame, &job.to_bytes());
        frame
    }

    fn timeout_frame(spec: &JobSpec) -> Vec<u8> {
        let mut frame = Vec::new();
        proto::push_response(&mut frame, &proto::timeout_response(&spec.key()));
        frame
    }

    fn spec() -> JobSpec {
        let suite = BenchRef::Suite(3);
        JobSpec::new(suite, WireParadigm::Paper, WireScale::Quick, WireBase::Test)
    }

    /// The expiry runs from the frame's send to the backend awaited, so
    /// time spent reaching it (dials, backoff) does not eat into the
    /// deadline that backend counts; past it, the backend is down.
    #[test]
    fn a_forward_expires_its_deadline_after_the_send() {
        // Accepts through the backlog and never reads.
        let silent = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut router = router_over(silent.local_addr().expect("addr").to_string());
        let (spec, mut out) = (spec(), Vec::new());
        let frame = job_frame(&spec, Some(200));
        let mut pending = router
            .handle(&frame, &mut out)
            .expect("waits on its backend");
        let sent = pending.slot.link.as_ref().expect("sent").sent;
        let expiry = sent + Duration::from_millis(200) + DEADLINE_MARGIN;
        assert_eq!(router.deadline(&pending), Some(expiry));

        let early = expiry - Duration::from_millis(1);
        assert!(!router.resolve(&mut pending, early, &mut out));
        assert!(out.is_empty() && router.shared.up[0].load(Ordering::SeqCst));
        assert!(router.resolve(&mut pending, expiry, &mut out));
        assert_eq!(out, timeout_frame(&spec));
        assert!(!router.shared.up[0].load(Ordering::SeqCst));
    }

    /// A job with no `deadline_ms` expires at the servers' default, but a
    /// backend started with a longer `--deadline-ms` is still inside its
    /// own deadline then: it stays up and goes on to answer the job.
    #[test]
    fn a_job_without_a_deadline_leaves_its_backend_up_at_the_default() {
        let cfg = ServerConfig {
            default_deadline_ms: 200_000,
            execute_delay: Duration::from_millis(300),
            ..ServerConfig::default()
        };
        let backend = ServerHandle::start("127.0.0.1:0", cfg).expect("bind");
        let addr = backend.addr().to_string();
        let mut router = router_over(addr.clone());
        let (spec, mut out) = (spec(), Vec::new());
        let frame = job_frame(&spec, None);
        let mut pending = router
            .handle(&frame, &mut out)
            .expect("waits on its backend");
        let sent = pending.slot.link.as_ref().expect("sent").sent;
        let expiry = sent + Duration::from_millis(DEFAULT_DEADLINE_MS) + DEADLINE_MARGIN;
        assert_eq!(router.deadline(&pending), Some(expiry));

        assert!(router.resolve(&mut pending, expiry, &mut out));
        assert_eq!(out, timeout_frame(&spec));
        assert!(router.shared.up[0].load(Ordering::SeqCst));
        let answer = Client::connect(&addr).expect("connect").job(&spec, None);
        assert_eq!(
            response_type(&answer.expect("job")).as_deref(),
            Some("result")
        );
        backend.drain();
        backend.wait();
    }
}
