//! Serving counters behind the `stats` endpoint.
//!
//! Counters are relaxed atomics — they are monotone tallies, not
//! synchronization — and service times feed an
//! [`hmtx_core::LatencyHistogram`] (log-linear microsecond buckets, within
//! 1.6% of the sample, saturating), so a multi-day serve session can
//! neither overflow a counter nor grow unbounded timing state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hmtx_core::LatencyHistogram;
use hmtx_types::StatsSnapshot;

/// The server's counters. All methods are cheap and callable from any
/// thread.
#[derive(Default)]
pub struct Metrics {
    /// Requests received (all types).
    pub requests: AtomicU64,
    /// Job requests received.
    pub job_requests: AtomicU64,
    /// Jobs served from the in-memory cache.
    pub mem_hits: AtomicU64,
    /// Jobs served from the on-disk store.
    pub disk_hits: AtomicU64,
    /// Jobs coalesced onto an identical in-flight execution.
    pub coalesced_hits: AtomicU64,
    /// Jobs that had to simulate.
    pub misses: AtomicU64,
    /// Simulations executed to completion.
    pub executed: AtomicU64,
    /// Jobs rejected with backpressure.
    pub rejected_busy: AtomicU64,
    /// Jobs rejected because the server is draining.
    pub rejected_draining: AtomicU64,
    /// Requests whose deadline expired while waiting.
    pub deadline_timeouts: AtomicU64,
    /// Requests answered with an error.
    pub errors: AtomicU64,
    service: Mutex<LatencyHistogram>,
}

impl Metrics {
    /// Fresh zeroed metrics.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one executed job's service time.
    pub fn record_service_us(&self, us: u64) {
        self.service.lock().unwrap().record_us(us);
    }

    /// Snapshots every counter; `queue_depth` and `inflight` are sampled by
    /// the caller (they live in the scheduler, not here).
    #[must_use]
    pub fn snapshot(&self, queue_depth: u64, inflight: u64) -> StatsSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let (p50, p99, p999) = self.service.lock().unwrap().quantile_triple_us();
        StatsSnapshot {
            requests: get(&self.requests),
            job_requests: get(&self.job_requests),
            mem_hits: get(&self.mem_hits),
            disk_hits: get(&self.disk_hits),
            coalesced_hits: get(&self.coalesced_hits),
            misses: get(&self.misses),
            executed: get(&self.executed),
            rejected_busy: get(&self.rejected_busy),
            rejected_draining: get(&self.rejected_draining),
            deadline_timeouts: get(&self.deadline_timeouts),
            errors: get(&self.errors),
            queue_depth,
            inflight,
            p50_service_us: p50,
            p99_service_us: p99,
            p999_service_us: p999,
        }
    }
}

/// Bumps a counter (saturating is unnecessary for `fetch_add` on `u64`
/// tallies, but keep one spelling for every increment site).
pub fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters_and_quantiles() {
        let m = Metrics::new();
        bump(&m.requests);
        bump(&m.requests);
        bump(&m.job_requests);
        bump(&m.mem_hits);
        m.record_service_us(100);
        m.record_service_us(100);
        m.record_service_us(100_000);
        let s = m.snapshot(3, 1);
        assert_eq!(s.requests, 2);
        assert_eq!(s.job_requests, 1);
        assert_eq!(s.cache_hits(), 1);
        assert_eq!((s.queue_depth, s.inflight), (3, 1));
        assert!(s.p50_service_us >= 100 && s.p50_service_us < 100_000);
        assert!(s.p99_service_us >= 100_000);
    }
}
