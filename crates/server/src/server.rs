//! The `hmtx-serve` server: bounded admission, sharded single-flight
//! execution, two-tier caching, graceful drain.
//!
//! Request lifecycle for a `job`:
//!
//! 1. **Cache probe** — memory then disk; a hit answers immediately with the
//!    stored bytes spliced into the response envelope.
//! 2. **Admission** — under the key's *shard* lock (the memory cache's
//!    prefix shard): an identical in-flight job coalesces onto the same
//!    `JobCell`; a full queue answers `busy` with a retry hint; otherwise
//!    the job enqueues and the miss is counted. No lock is global.
//! 3. **Wait with deadline** — the connection parks on a `Wait` slot of the
//!    readiness loop ([`crate::ready`]; the server is one [`Service`] of
//!    it). A timeout answers `timeout`, but the job keeps running and its
//!    report still lands in the cache — a retry is a hit.
//! 4. **Execution** — a worker runs [`hmtx_bench::run_job_report`] and
//!    caches the report bytes *before* publishing the cell and leaving the
//!    in-flight shard, so a requester that misses the in-flight shard
//!    re-probes the cache under the same lock and cannot race into a
//!    duplicate simulation. The worker then pokes the loop's waker.
//!
//! **Drain** ([`ServerHandle::drain`], a `shutdown` request, or SIGTERM in
//! the binary): the listener stops accepting, queued and executing jobs
//! finish and answer normally, and new job requests answer `draining`.
//! [`ServerHandle::wait`] returns once the loop has answered every waiter
//! and the workers have gone idle.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hmtx_types::JobSpec;

use crate::cache::{ReportCache, Tier, DEFAULT_SHARDS};
use crate::metrics::{bump, Metrics};
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
    /// Memory-cache and single-flight shard count.
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

/// The published outcome of one execution: the report bytes, or a rendered
/// error response (shared by every coalesced waiter).
pub(crate) type CellOutcome = Result<Arc<Vec<u8>>, Arc<Vec<u8>>>;

/// One admitted job: requests for the same key share a cell, and the cell's
/// state is published exactly once by the executing worker. Waiters are
/// event-loop pending slots, woken through the loop's waker rather than a
/// condvar.
pub(crate) struct JobCell {
    pub(crate) key: String,
    spec: JobSpec,
    /// `None` until finished.
    pub(crate) state: Mutex<Option<CellOutcome>>,
}

struct Sched {
    queue: VecDeque<Arc<JobCell>>,
    executing: u64,
}

pub(crate) struct Inner {
    pub(crate) cfg: ServerConfig,
    pub(crate) metrics: Metrics,
    cache: ReportCache,
    sched: Mutex<Sched>,
    /// Per-shard single-flight registries, indexed like the cache shards.
    flights: Vec<Mutex<HashMap<String, Arc<JobCell>>>>,
    work: Condvar,
    pub(crate) draining: AtomicBool,
    pub(crate) wake: Waker,
}

impl Inner {
    pub(crate) fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // Notify under the lock, so no worker can sit between its draining
        // check and its wait and miss the wakeup.
        let _sched = self.sched.lock().unwrap();
        self.work.notify_all();
        self.wake.wake();
    }

    pub(crate) fn queue_gauges(&self) -> (u64, u64) {
        let sched = self.sched.lock().unwrap();
        (sched.queue.len() as u64, sched.executing)
    }
}

/// A running server: its bound address and the handles to stop it.
pub struct ServerHandle {
    inner: Arc<Inner>,
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
        self.inner.begin_drain();
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
        let shards = cfg.shards.max(1);
        let inner = Arc::new(Inner {
            cache: ReportCache::with_shards(cfg.mem_cache_cap, shards, cfg.cache_dir.clone()),
            metrics: Metrics::new(),
            sched: Mutex::new(Sched {
                queue: VecDeque::new(),
                executing: 0,
            }),
            flights: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            work: Condvar::new(),
            draining: AtomicBool::new(false),
            wake: Waker::new()?,
            cfg,
        });

        let workers = (0..inner.cfg.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();

        let event = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || ready::event_loop(&mut &*inner, &listener, &inner.wake))
        };

        Ok(ServerHandle {
            inner,
            addr,
            event,
            workers,
        })
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let cell = {
            let mut sched = inner.sched.lock().unwrap();
            loop {
                if let Some(cell) = sched.queue.pop_front() {
                    sched.executing += 1;
                    break Some(cell);
                }
                if inner.draining.load(Ordering::SeqCst) {
                    break None;
                }
                sched = inner.work.wait(sched).unwrap();
            }
        };
        let Some(cell) = cell else { return };
        execute(inner, &cell);
    }
}

fn execute(inner: &Inner, cell: &JobCell) {
    if !inner.cfg.execute_delay.is_zero() {
        std::thread::sleep(inner.cfg.execute_delay);
    }
    let started = Instant::now();
    let result = match hmtx_bench::run_job_report(&cell.spec) {
        Ok(report) => {
            let bytes = Arc::new(report.compact().into_bytes());
            // Cache BEFORE leaving the in-flight shard: a requester that
            // sees the key absent from its flight shard re-probes the cache
            // under the same shard lock and is guaranteed to find these
            // bytes.
            let _ = inner.cache.put(&cell.key, Arc::clone(&bytes));
            bump(&inner.metrics.executed);
            let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            inner.metrics.record_service_us(us);
            Ok(bytes)
        }
        Err(e) => Err(Arc::new(proto::sim_error_response(&e))),
    };
    {
        let shard = inner.cache.shard_of(&cell.key);
        let mut flight = inner.flights[shard].lock().unwrap();
        flight.remove(&cell.key);
    }
    {
        let mut sched = inner.sched.lock().unwrap();
        sched.executing = sched.executing.saturating_sub(1);
    }
    *cell.state.lock().unwrap() = Some(result);
    // Hand the published result back to the readiness loop.
    inner.wake.wake();
}

/// A request parked on an admitted (possibly coalesced) job cell: the
/// server's pending slot in the readiness loop.
pub(crate) struct Wait {
    cell: Arc<JobCell>,
    key: String,
    deadline: Instant,
}

/// The server as the readiness loop sees it. A [`Wait`] watches no socket:
/// it is resolved every round, which the worker's wake makes prompt.
impl Service for &Inner {
    type Pending = Wait;

    /// Everything here is non-blocking except short shard/scheduler lock
    /// holds and (worst case) a disk-tier cache read.
    fn handle(&mut self, frame: &[u8], out: &mut Vec<u8>) -> Option<Wait> {
        bump(&self.metrics.requests);
        let response = match Request::parse(&frame[4..]) {
            Err(message) => {
                bump(&self.metrics.errors);
                proto::error_response(&message, &[])
            }
            Ok(Request::Ping) => proto::pong_response(),
            Ok(Request::Shutdown) => {
                self.begin_drain();
                proto::ok_response()
            }
            Ok(Request::Stats) => {
                let (queue_depth, executing) = self.queue_gauges();
                proto::stats_response(&self.metrics.snapshot(queue_depth, executing))
            }
            // Only `hmtx-router` aggregates cluster stats; a lone backend says
            // so instead of pretending to be a one-node cluster.
            Ok(Request::Cluster) => proto::error_response(
                "cluster stats are served by hmtx-router, not a backend",
                &[],
            ),
            Ok(Request::Job { spec, deadline_ms }) => {
                bump(&self.metrics.job_requests);
                return admit_job(self, &spec, deadline_ms, out);
            }
        };
        proto::push_response(out, &response);
        None
    }

    fn deadline(&self, wait: &Wait) -> Option<Instant> {
        Some(wait.deadline)
    }

    /// Answers once the cell has published or the deadline has passed.
    fn resolve(&mut self, wait: &mut Wait, now: Instant, out: &mut Vec<u8>) -> bool {
        if let Some(outcome) = wait.cell.state.lock().unwrap().as_ref() {
            match outcome {
                Ok(bytes) => proto::push_result_frame(out, &wait.key, bytes),
                Err(error_bytes) => {
                    bump(&self.metrics.errors);
                    proto::push_response(out, error_bytes);
                }
            }
            return true;
        }
        if now >= wait.deadline {
            bump(&self.metrics.deadline_timeouts);
            proto::push_response(out, &proto::timeout_response(&wait.key));
            return true;
        }
        false
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn begin_drain(&self) {
        Inner::begin_drain(self);
    }
}

fn cache_answer(inner: &Inner, key: &str, bytes: &[u8], tier: Tier, out: &mut Vec<u8>) {
    match tier {
        Tier::Mem => bump(&inner.metrics.mem_hits),
        Tier::Disk => bump(&inner.metrics.disk_hits),
    }
    proto::push_result_frame(out, key, bytes);
}

fn admit_job(
    inner: &Inner,
    spec: &JobSpec,
    deadline_ms: Option<u64>,
    out: &mut Vec<u8>,
) -> Option<Wait> {
    let key = spec.key();

    // Fast path: cached report, no shard-registry involvement.
    if let Some((bytes, tier)) = inner.cache.get(&key) {
        cache_answer(inner, &key, &bytes, tier, out);
        return None;
    }
    if inner.draining.load(Ordering::SeqCst) {
        bump(&inner.metrics.rejected_draining);
        proto::push_response(out, proto::DRAINING);
        return None;
    }

    // Admission, under the key's shard lock.
    let shard = inner.cache.shard_of(&key);
    let cell = {
        let mut flight = inner.flights[shard].lock().unwrap();
        if let Some(cell) = flight.get(&key) {
            bump(&inner.metrics.coalesced_hits);
            Arc::clone(cell)
        } else if let Some((bytes, tier)) = inner.cache.get(&key) {
            // The job finished between the unlocked probe and here; the
            // worker caches before leaving the flight shard, so this
            // re-probe closes the race window completely.
            cache_answer(inner, &key, &bytes, tier, out);
            return None;
        } else {
            let mut sched = inner.sched.lock().unwrap();
            if sched.queue.len() >= inner.cfg.queue_cap {
                bump(&inner.metrics.rejected_busy);
                proto::push_response(out, &proto::busy_response(inner.cfg.retry_after_ms));
                return None;
            }
            bump(&inner.metrics.misses);
            let cell = Arc::new(JobCell {
                key: key.clone(),
                spec: *spec,
                state: Mutex::new(None),
            });
            sched.queue.push_back(Arc::clone(&cell));
            flight.insert(key.clone(), Arc::clone(&cell));
            inner.work.notify_one();
            cell
        }
    };

    let deadline = Instant::now()
        + Duration::from_millis(deadline_ms.unwrap_or(inner.cfg.default_deadline_ms));
    Some(Wait {
        cell,
        key,
        deadline,
    })
}
