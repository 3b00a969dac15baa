//! The `hmtx-serve` server: bounded admission, single-flight execution,
//! two-tier caching, graceful drain.
//!
//! Request state belongs to the readiness loop's thread ([`crate::ready`];
//! the server is one [`Service`] of it): the in-flight map, the serving
//! counters and each job's outcome are plain fields of the loop's
//! `Server`, touched by no other thread. The workers share with it only
//! the work queue, the [`ReportCache`], a completion channel, the drain
//! flag and the loop's waker.
//!
//! Request lifecycle for a `job`:
//!
//! 1. **Cache probe** — memory then disk; a hit answers immediately with the
//!    stored bytes spliced into the response envelope.
//! 2. **Admission** — an identical in-flight job coalesces onto the same
//!    cell; a full queue answers `busy` with a retry hint; otherwise the job
//!    enqueues and the miss is counted.
//! 3. **Wait with deadline** — the connection parks on a `Wait` slot of the
//!    loop. A timeout answers `timeout`, but the job keeps running and its
//!    report still lands in the cache — a retry is a hit.
//! 4. **Execution** — a worker runs [`hmtx_bench::run_job_report`], caches
//!    the report bytes, sends the outcome back and pokes the waker. The
//!    loop takes each completion before it answers anything: it counts the
//!    execution, drops the key from the in-flight map and sets the cell its
//!    waiters hold. The bytes are cached before the key leaves the map, so
//!    a request that finds no flight finds the bytes, and no key ever
//!    simulates twice while it is cached.
//!
//! **Drain** ([`ServerHandle::drain`], a `shutdown` request, or SIGTERM in
//! the binary): the listener stops accepting, queued and executing jobs
//! finish and answer normally, and new job requests answer `draining`.
//! [`ServerHandle::wait`] returns once the loop has answered every waiter
//! and the workers have gone idle.

use std::cell::OnceCell;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hmtx_core::stats::inc;
use hmtx_core::LatencyHistogram;
use hmtx_types::{JobSpec, StatsSnapshot};

use crate::cache::{ReportCache, Tier, DEFAULT_SHARDS};
use crate::proto::{self, Request};
use crate::ready::{self, Service, Waker};

/// The deadline of a job request that names none, unless
/// [`ServerConfig::default_deadline_ms`] sets another.
pub const DEFAULT_DEADLINE_MS: u64 = 120_000;

/// Server tunables. The defaults suit an interactive session; tests shrink
/// the queue and add an artificial execution delay to exercise backpressure
/// deterministically.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing simulations.
    pub workers: usize,
    /// Admission queue capacity; a full queue answers `busy`.
    pub queue_cap: usize,
    /// In-memory cache capacity, in reports (split across `shards`).
    pub mem_cache_cap: usize,
    /// Memory-cache shard count.
    pub shards: usize,
    /// On-disk report store (`None` = memory-only).
    pub cache_dir: Option<PathBuf>,
    /// Deadline applied to job requests that carry none, in milliseconds.
    pub default_deadline_ms: u64,
    /// Retry hint returned with `busy` responses, in milliseconds.
    pub retry_after_ms: u64,
    /// Artificial delay before each execution — a test knob that makes
    /// queue-full and coalescing windows deterministic on any machine.
    pub execute_delay: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            queue_cap: 64,
            mem_cache_cap: 512,
            shards: DEFAULT_SHARDS,
            cache_dir: None,
            default_deadline_ms: DEFAULT_DEADLINE_MS,
            retry_after_ms: 250,
            execute_delay: Duration::ZERO,
        }
    }
}

/// The outcome of one execution: the report bytes, or a rendered error
/// response.
type Outcome = Result<Arc<Vec<u8>>, Vec<u8>>;

/// A finished execution, as a worker reports it to the loop: the key, the
/// outcome and the service time.
type Completion = (String, Outcome, Duration);

/// What the loop and the workers share; nothing else crosses threads.
struct Shared {
    /// Admitted jobs no worker has taken yet.
    queue: Mutex<VecDeque<(String, JobSpec)>>,
    work: Condvar,
    cache: ReportCache,
    draining: AtomicBool,
    wake: Waker,
}

impl Shared {
    fn queue(&self) -> MutexGuard<'_, VecDeque<(String, JobSpec)>> {
        // Nothing that can panic runs under this lock.
        self.queue.lock().expect("work queue lock poisoned")
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // Notify under the lock, so no worker can sit between its draining
        // check and its wait and miss the wakeup.
        let _queue = self.queue();
        self.work.notify_all();
        self.wake.wake();
    }
}

/// A running server: its bound address and the handles to stop it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    event: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins graceful drain: stop accepting, finish in-flight work, answer
    /// `draining` to new job requests.
    pub fn drain(&self) {
        self.shared.begin_drain();
    }

    /// Waits for drain to complete (in-flight waiters answered, workers
    /// exited). Call [`ServerHandle::drain`] first — otherwise this blocks
    /// until something else does.
    pub fn wait(self) {
        for t in std::iter::once(self.event).chain(self.workers) {
            let _ = t.join();
        }
    }

    /// Starts a server on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port).
    ///
    /// # Errors
    ///
    /// Propagates bind errors and waker creation failures.
    pub fn start(addr: &str, cfg: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            cache: ReportCache::with_shards(cfg.mem_cache_cap, cfg.shards, cfg.cache_dir.clone()),
            draining: AtomicBool::new(false),
            wake: Waker::new()?,
        });
        let (done, completions) = mpsc::channel();

        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let done = done.clone();
                let delay = cfg.execute_delay;
                std::thread::spawn(move || worker_loop(&shared, &done, delay))
            })
            .collect();

        let event = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut server = Server {
                    cfg,
                    shared: Arc::clone(&shared),
                    completions,
                    flights: HashMap::new(),
                    stats: StatsSnapshot::default(),
                    service: LatencyHistogram::new(),
                };
                ready::event_loop(&mut server, &listener, &shared.wake);
            })
        };

        Ok(ServerHandle {
            shared,
            addr,
            event,
            workers,
        })
    }
}

fn worker_loop(shared: &Shared, done: &Sender<Completion>, delay: Duration) {
    loop {
        let (key, spec) = {
            let mut queue = shared.queue();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.work.wait(queue).expect("work queue lock poisoned");
            }
        };
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        let started = Instant::now();
        let outcome = match hmtx_bench::run_job_report(&spec) {
            Ok(report) => {
                let bytes = Arc::new(report.compact().into_bytes());
                // Cache before reporting: the loop drops the key from its
                // in-flight map only on this report, so a request that
                // finds no flight finds these bytes.
                let _ = shared.cache.put(&key, Arc::clone(&bytes));
                Ok(bytes)
            }
            Err(e) => Err(proto::sim_error_response(&e)),
        };
        // A loop that has already exited (its waiters all answered) has
        // dropped the receiver; the report is cached all the same.
        let _ = done.send((key, outcome, started.elapsed()));
        shared.wake.wake();
    }
}

/// The server as the readiness loop sees it, owned by the loop's thread.
struct Server {
    cfg: ServerConfig,
    shared: Arc<Shared>,
    completions: Receiver<Completion>,
    /// Admitted jobs not yet completed, by key; each waiter holds its cell.
    flights: HashMap<String, Rc<OnceCell<Outcome>>>,
    /// The counters; the gauges and quantiles are filled in per snapshot.
    stats: StatsSnapshot,
    service: LatencyHistogram,
}

/// A request parked on an admitted (possibly coalesced) job: the server's
/// pending slot in the readiness loop.
struct Wait {
    cell: Rc<OnceCell<Outcome>>,
    key: String,
    deadline: Instant,
}

impl Server {
    /// Takes every completion the workers have sent: counts it, drops its
    /// key from the in-flight map and sets the cell its waiters hold.
    fn settle(&mut self) {
        while let Ok((key, outcome, took)) = self.completions.try_recv() {
            if outcome.is_ok() {
                inc(&mut self.stats.executed);
                self.service
                    .record_us(u64::try_from(took.as_micros()).unwrap_or(u64::MAX));
            }
            if let Some(cell) = self.flights.remove(&key) {
                let _ = cell.set(outcome);
            }
        }
    }

    fn snapshot(&self) -> StatsSnapshot {
        let queue_depth = self.shared.queue().len();
        let (p50, p99, p999) = self.service.quantile_triple_us();
        StatsSnapshot {
            queue_depth: queue_depth as u64,
            // Every flight is queued, executing, or reported and not yet
            // settled, and `handle` settles first.
            inflight: (self.flights.len() - queue_depth) as u64,
            p50_service_us: p50,
            p99_service_us: p99,
            p999_service_us: p999,
            ..self.stats
        }
    }

    fn admit_job(
        &mut self,
        spec: &JobSpec,
        deadline_ms: Option<u64>,
        out: &mut Vec<u8>,
    ) -> Option<Wait> {
        let key = spec.key();
        if let Some((bytes, tier)) = self.shared.cache.get(&key) {
            inc(match tier {
                Tier::Mem => &mut self.stats.mem_hits,
                Tier::Disk => &mut self.stats.disk_hits,
            });
            proto::push_result_frame(out, &key, &bytes);
            return None;
        }
        if self.draining() {
            inc(&mut self.stats.rejected_draining);
            proto::push_response(out, proto::DRAINING);
            return None;
        }
        let cell = if let Some(cell) = self.flights.get(&key) {
            inc(&mut self.stats.coalesced_hits);
            Rc::clone(cell)
        } else {
            let mut queue = self.shared.queue();
            if queue.len() >= self.cfg.queue_cap {
                inc(&mut self.stats.rejected_busy);
                proto::push_response(out, &proto::busy_response(self.cfg.retry_after_ms));
                return None;
            }
            queue.push_back((key.clone(), *spec));
            self.shared.work.notify_one();
            inc(&mut self.stats.misses);
            let cell = Rc::default();
            self.flights.insert(key.clone(), Rc::clone(&cell));
            cell
        };
        let deadline = Instant::now()
            + Duration::from_millis(deadline_ms.unwrap_or(self.cfg.default_deadline_ms));
        Some(Wait {
            cell,
            key,
            deadline,
        })
    }
}

/// A [`Wait`] watches no socket: it is resolved every round, which the
/// worker's wake makes prompt.
impl Service for Server {
    type Pending = Wait;

    /// Everything here is non-blocking except short queue lock holds and
    /// (worst case) a disk-tier cache read.
    fn handle(&mut self, frame: &[u8], out: &mut Vec<u8>) -> Option<Wait> {
        self.settle();
        inc(&mut self.stats.requests);
        let response = match Request::parse(&frame[4..]) {
            Err(message) => {
                inc(&mut self.stats.errors);
                proto::error_response(&message, &[])
            }
            Ok(Request::Ping) => proto::pong_response(),
            Ok(Request::Shutdown) => {
                self.begin_drain();
                proto::ok_response()
            }
            Ok(Request::Stats) => proto::stats_response(&self.snapshot()),
            // Only `hmtx-router` aggregates cluster stats; a lone backend says
            // so instead of pretending to be a one-node cluster.
            Ok(Request::Cluster) => proto::error_response(
                "cluster stats are served by hmtx-router, not a backend",
                &[],
            ),
            Ok(Request::Job { spec, deadline_ms }) => {
                inc(&mut self.stats.job_requests);
                return self.admit_job(&spec, deadline_ms, out);
            }
        };
        proto::push_response(out, &response);
        None
    }

    fn deadline(&self, wait: &Wait) -> Option<Instant> {
        Some(wait.deadline)
    }

    /// Answers once the job's outcome is in or the deadline has passed.
    fn resolve(&mut self, wait: &mut Wait, now: Instant, out: &mut Vec<u8>) -> bool {
        self.settle();
        if let Some(outcome) = wait.cell.get() {
            match outcome {
                Ok(bytes) => proto::push_result_frame(out, &wait.key, bytes),
                Err(error) => {
                    inc(&mut self.stats.errors);
                    proto::push_response(out, error);
                }
            }
            return true;
        }
        if now >= wait.deadline {
            inc(&mut self.stats.deadline_timeouts);
            proto::push_response(out, &proto::timeout_response(&wait.key));
            return true;
        }
        false
    }

    fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    fn begin_drain(&self) {
        self.shared.begin_drain();
    }
}
