//! A small blocking client for the `hmtx-serve` protocol, used by the
//! `hmtx-load` generator, the `hmtx-run --remote` mode, and the
//! integration tests.

use std::io::{self, Write};
use std::net::TcpStream;
use std::time::Duration;

use hmtx_types::{JobSpec, Json, StatsSnapshot};

use crate::proto::{self, FrameBuf, Request};

/// One connection to a server. Requests are serial per connection (the
/// protocol has no multiplexing; open more connections for concurrency).
/// Responses are read through a per-connection [`FrameBuf`], so a response
/// that fits it costs one `read(2)`.
pub struct Client {
    stream: TcpStream,
    rbuf: FrameBuf,
}

impl Client {
    /// Connects to `addr` (`host:port`).
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            rbuf: FrameBuf::new(),
        })
    }

    /// Sends one request and reads its response frame's payload.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; an EOF before the response is an error.
    pub fn request(&mut self, req: &Request) -> io::Result<Vec<u8>> {
        let mut frame = Vec::new();
        proto::push_frame(&mut frame, &req.to_bytes())?;
        self.stream.write_all(&frame)?;
        Ok(self.read_response()?[4..].to_vec())
    }

    /// Reads until one whole response frame is buffered and pops it.
    fn read_response(&mut self) -> io::Result<&[u8]> {
        self.rbuf.read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-request")
        })
    }

    /// Bytes received past the last response. A conforming server answers
    /// each request with exactly one frame, so this is 0 between requests;
    /// anything else (a late answer after a read timeout) would pair the
    /// next request with the wrong response.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.rbuf.buffered()
    }

    /// Submits a job; returns the raw response bytes (result, busy,
    /// draining, timeout, or error — see the protocol docs).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn job(&mut self, spec: &JobSpec, deadline_ms: Option<u64>) -> io::Result<Vec<u8>> {
        self.request(&Request::Job {
            spec: *spec,
            deadline_ms,
        })
    }

    /// Submits a job, sleeping out `busy` responses up to `max_retries`
    /// times. Each wait starts from the server's `retry_after_ms` hint and
    /// backs off exponentially per attempt (capped at
    /// [`RETRY_BACKOFF_CAP_MS`]), plus a deterministic jitter derived from
    /// the job spec so a fleet of loaders retrying the same instant
    /// de-synchronizes instead of re-stampeding the server. Returns the
    /// final raw response bytes — possibly still `busy` if retries ran out.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn job_with_retry(
        &mut self,
        spec: &JobSpec,
        deadline_ms: Option<u64>,
        max_retries: u32,
    ) -> io::Result<Vec<u8>> {
        let jitter_seed = spec_jitter_seed(spec);
        let mut attempt = 0;
        loop {
            let response = self.job(spec, deadline_ms)?;
            match busy_retry_after(&response) {
                Some(retry_after_ms) if attempt < max_retries => {
                    let wait = backoff_ms(retry_after_ms, attempt, jitter_seed);
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(wait));
                }
                _ => return Ok(response),
            }
        }
    }

    /// Bounds how long a single response read may block (`None` removes the
    /// bound). `hmtx-router`'s health checker uses this so a hung backend
    /// costs one timeout, not a stuck checker.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Fetches the serving counters.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a malformed response is an
    /// [`io::ErrorKind::InvalidData`] error.
    pub fn stats(&mut self) -> io::Result<StatsSnapshot> {
        let response = self.request(&Request::Stats)?;
        parse_response(&response)
            .ok()
            .and_then(|v| v.get("stats").map(StatsSnapshot::from_json))
            .and_then(Result::ok)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed stats response"))
    }

    /// Liveness probe: true iff the server answered `pong`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn ping(&mut self) -> io::Result<bool> {
        let response = self.request(&Request::Ping)?;
        Ok(response_type(&response).as_deref() == Some("pong"))
    }

    /// Asks the server to begin graceful drain.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.request(&Request::Shutdown).map(|_| ())
    }
}

/// Parses a raw response frame as JSON.
///
/// # Errors
///
/// Returns a message when the frame is not valid UTF-8 JSON.
pub fn parse_response(bytes: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "response is not UTF-8".to_string())?;
    Json::parse(text).map_err(|e| e.to_string())
}

/// The response's `type` field, if it parses.
#[must_use]
pub fn response_type(bytes: &[u8]) -> Option<String> {
    parse_response(bytes)
        .ok()?
        .get("type")
        .and_then(Json::as_str)
        .map(String::from)
}

/// If the response is `busy`, its `retry_after_ms` hint.
#[must_use]
pub fn busy_retry_after(bytes: &[u8]) -> Option<u64> {
    let v = parse_response(bytes).ok()?;
    if v.get("type").and_then(Json::as_str) != Some("busy") {
        return None;
    }
    v.get("retry_after_ms").and_then(Json::as_u64)
}

/// Ceiling on one backed-off busy wait. The server's hint still wins when
/// it is larger — the cap bounds the client's exponential growth, not the
/// server's explicit request.
pub const RETRY_BACKOFF_CAP_MS: u64 = 2_000;

/// The wait before retry number `attempt` (0-based): the server's hint,
/// doubled per prior attempt up to the cap, plus a jitter in
/// `[0, hint)` derived from `(seed, attempt)`.
#[must_use]
pub fn backoff_ms(retry_after_ms: u64, attempt: u32, seed: u64) -> u64 {
    let base = retry_after_ms.max(1);
    let grown = base.checked_shl(attempt.min(20)).unwrap_or(u64::MAX);
    let backed = grown.min(RETRY_BACKOFF_CAP_MS.max(base));
    let jitter = hmtx_core::faults::derive(seed, u64::from(attempt), base);
    backed.saturating_add(jitter)
}

/// A deterministic jitter seed for `spec`: FNV-1a over its canonical
/// content key, so distinct jobs land on distinct backoff schedules while
/// replays of the same job stay reproducible.
#[must_use]
pub fn spec_jitter_seed(spec: &JobSpec) -> u64 {
    fnv1a_64(spec.key().as_bytes())
}

/// FNV-1a over `bytes`, the cheap hash family the job keys, jitter seeds
/// and `hmtx-router`'s ring positions use.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmtx_types::{BenchRef, WireBase, WireParadigm, WireScale};

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        // Growth: doubling from the hint until the cap.
        assert!(backoff_ms(10, 0, 7) < backoff_ms(10, 3, 7) + 10);
        for attempt in 0..40 {
            let w = backoff_ms(10, attempt, 7);
            assert!(w >= 10, "never below the hint: {w}");
            assert!(
                w <= RETRY_BACKOFF_CAP_MS + 10,
                "cap plus jitter bounds the wait: {w}"
            );
            // Deterministic: same inputs, same wait.
            assert_eq!(w, backoff_ms(10, attempt, 7));
        }
        // A hint above the cap is honored as-is.
        assert!(backoff_ms(5_000, 0, 7) >= 5_000);
        // Zero hints still make progress.
        assert!(backoff_ms(0, 0, 7) >= 1);
    }

    #[test]
    fn distinct_specs_get_distinct_jitter_seeds() {
        let a = JobSpec::new(
            BenchRef::Suite(0),
            WireParadigm::Paper,
            WireScale::Quick,
            WireBase::Test,
        );
        let b = JobSpec::new(
            BenchRef::Suite(1),
            WireParadigm::Paper,
            WireScale::Quick,
            WireBase::Test,
        );
        assert_ne!(spec_jitter_seed(&a), spec_jitter_seed(&b));
        assert_eq!(spec_jitter_seed(&a), spec_jitter_seed(&a));
    }
}
