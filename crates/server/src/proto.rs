//! The `hmtx-serve` wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — is one frame: a 4-byte big-endian
//! length followed by that many bytes of UTF-8 JSON. Frames over
//! [`MAX_FRAME`] bytes are rejected before allocation, so a hostile client
//! cannot ask the server to buffer gigabytes.
//!
//! Requests (`"type"` selects the operation):
//!
//! ```text
//! {"type":"job","spec":{...JobSpec...},"deadline_ms":2000}   // deadline optional
//! {"type":"stats"}
//! {"type":"cluster"}                                         // router-aggregated stats
//! {"type":"ping"}
//! {"type":"shutdown"}                                        // begin graceful drain
//! ```
//!
//! Responses:
//!
//! ```text
//! {"type":"result","key":"<32 hex>","report":{...}}   // report bytes spliced verbatim
//! {"type":"busy","retry_after_ms":N}                  // admission queue full
//! {"type":"draining"}                                 // server is draining
//! {"type":"timeout","key":"<32 hex>"}                 // deadline expired (job still runs)
//! {"type":"error","message":"...","diagnostics":[..]} // simulation failed
//! {"type":"stats","stats":{...StatsSnapshot...}}
//! {"type":"cluster","backends":[...],"aggregate":{...}}      // from hmtx-router only
//! {"type":"pong"} / {"type":"ok"}
//! ```
//!
//! The `result` envelope is assembled by **splicing the cached report bytes
//! verbatim** into the frame — the report is never re-parsed or
//! re-serialized on the hot path, which is what makes the determinism
//! guarantee ("same request bytes → same response bytes, cached or not")
//! hold at the byte level rather than merely semantically.

use std::io::{self, Read, Write};

use hmtx_types::{diagnostic_to_json, JobSpec, Json, SimError};

/// Frames larger than this are a protocol error (16 MiB).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    // One contiguous write: a separate 4-byte prefix write would hand
    // Nagle + delayed-ACK a ~40ms stall per frame on loopback.
    let mut frame = Vec::with_capacity(4 + payload.len());
    push_frame(&mut frame, payload)?;
    w.write_all(&frame)?;
    w.flush()
}

/// Appends one length-prefixed frame holding `payload` to `out`: the
/// in-memory form of [`write_frame`], for callers that assemble output in
/// a buffer of their own.
///
/// # Errors
///
/// Rejects payloads over [`MAX_FRAME`], leaving `out` untouched.
pub fn push_frame(out: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// The `error` payload a server sends in place of an answer too large to
/// frame. Error messages can echo request bytes (an unknown `type` string
/// from a frame just under [`MAX_FRAME`]), so an answer may outgrow the
/// request it answers.
pub const OVERSIZED: &[u8] =
    br#"{"type":"error","message":"response exceeds MAX_FRAME","diagnostics":[]}"#;

/// Appends `payload` to `out` as one response frame, or the frame of
/// [`OVERSIZED`] when `payload` exceeds [`MAX_FRAME`]. Never fails: the
/// connection gets exactly one answer per request and stays in step.
pub fn push_response(out: &mut Vec<u8>, payload: &[u8]) {
    if push_frame(out, payload).is_err() {
        push_frame(out, OVERSIZED).expect("OVERSIZED fits a frame");
    }
}

/// Initial [`FrameBuf`] capacity: a request or a cached report answer
/// (about 1 KB) arrives whole in one `read(2)`.
const FRAME_BUF_INITIAL: usize = 4 * 1024;

/// An emptied [`FrameBuf`] larger than this shrinks back to
/// [`FRAME_BUF_INITIAL`].
const FRAME_BUF_KEEP: usize = 64 * 1024;

/// A per-connection read buffer that splits a byte stream into frames.
///
/// [`FrameBuf::fill`] issues **one** `read(2)` into the free tail, so a
/// frame that fits the buffer costs one syscall, not one for the prefix and
/// one for the payload; [`FrameBuf::next_frame`] then pops complete frames
/// without copying them. Bytes of an incomplete frame stay buffered across
/// reads (and across read timeouts), and several pipelined frames that
/// arrive in one segment are popped one by one, in order. A length prefix
/// over [`MAX_FRAME`] is refused before the buffer grows for it.
#[derive(Debug)]
pub struct FrameBuf {
    /// Backing storage; only `start..end` holds unconsumed bytes.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Default for FrameBuf {
    fn default() -> Self {
        FrameBuf::new()
    }
}

impl FrameBuf {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> FrameBuf {
        FrameBuf {
            buf: vec![0; FRAME_BUF_INITIAL],
            start: 0,
            end: 0,
        }
    }

    /// Unconsumed bytes: a partial frame, or frames not yet popped.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// The total length (prefix included) of the frame at the head of the
    /// buffer, once its prefix has arrived.
    fn head_len(&self) -> io::Result<Option<usize>> {
        if self.buffered() < 4 {
            return Ok(None);
        }
        let p = &self.buf[self.start..self.start + 4];
        let len = u32::from_be_bytes([p[0], p[1], p[2], p[3]]) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds MAX_FRAME"),
            ));
        }
        Ok(Some(4 + len))
    }

    /// Whether a complete frame is buffered.
    ///
    /// # Errors
    ///
    /// Refuses an oversized head prefix like [`FrameBuf::next_frame`].
    pub fn has_frame(&self) -> io::Result<bool> {
        Ok(self.head_len()?.is_some_and(|len| self.buffered() >= len))
    }

    /// Pops the next complete frame, length prefix included (the payload is
    /// `&frame[4..]`), or `None` until one has fully arrived.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on a length prefix over
    /// [`MAX_FRAME`]; the stream cannot be resynchronized after that.
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        match self.head_len()? {
            Some(len) if self.buffered() >= len => {
                let at = self.start;
                self.start += len;
                Ok(Some(&self.buf[at..at + len]))
            }
            _ => Ok(None),
        }
    }

    /// Reads from `r` until a whole frame is buffered, then pops it like
    /// [`FrameBuf::next_frame`]. `Ok(None)` is a clean end of stream at a
    /// frame boundary; an end of stream inside a frame is
    /// [`io::ErrorKind::UnexpectedEof`].
    ///
    /// # Errors
    ///
    /// Propagates read errors other than `Interrupted` (buffered bytes are
    /// kept) and refuses an oversized head prefix.
    pub fn read_frame(&mut self, r: &mut impl Read) -> io::Result<Option<&[u8]>> {
        while !self.has_frame()? {
            match self.fill(r) {
                Ok(0) if self.buffered() == 0 => return Ok(None),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "EOF inside a frame",
                    ))
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.next_frame()
    }

    /// Reads once from `r` into the free tail, first making room for the
    /// whole head frame when its prefix is known. Returns the bytes read;
    /// 0 is end of stream.
    ///
    /// # Errors
    ///
    /// Propagates the read's error (including `WouldBlock`/`TimedOut` on
    /// nonblocking or timed sockets; buffered bytes are kept) and refuses
    /// an oversized head prefix like [`FrameBuf::next_frame`].
    pub fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            if self.buf.len() > FRAME_BUF_KEEP {
                // One large frame passed; do not pin its buffer forever.
                self.buf = vec![0; FRAME_BUF_INITIAL];
            }
        }
        let head = self.head_len()?.unwrap_or(0);
        if self.start + head > self.buf.len() || self.end == self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            let needed = head.max(self.end + 1);
            if needed > self.buf.len() {
                self.buf.resize(needed.max(2 * self.buf.len()), 0);
            }
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Free space left behind the buffered bytes. Zero right after
    /// [`FrameBuf::fill`] means the read filled the buffer, so the socket
    /// may hold more; anything else was a short read that took all there
    /// was.
    #[must_use]
    pub fn tail_room(&self) -> usize {
        self.buf.len() - self.end
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or replay) one job.
    Job {
        /// What to simulate.
        spec: JobSpec,
        /// Per-request deadline override in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Snapshot the serving counters.
    Stats,
    /// Cluster-wide stats: per-backend snapshots plus the aggregate.
    /// Answered by `hmtx-router`; a lone backend answers `error`.
    Cluster,
    /// Liveness probe.
    Ping,
    /// Begin graceful drain: finish in-flight jobs, reject new ones.
    Shutdown,
}

impl Request {
    /// Serializes the request.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let json = match self {
            Request::Job { spec, deadline_ms } => {
                let mut fields = vec![
                    ("type".to_string(), Json::Str("job".into())),
                    ("spec".to_string(), spec.to_json()),
                ];
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms".into(), Json::Uint(*ms)));
                }
                Json::Obj(fields)
            }
            Request::Stats => Json::obj(vec![("type", Json::Str("stats".into()))]),
            Request::Cluster => Json::obj(vec![("type", Json::Str("cluster".into()))]),
            Request::Ping => Json::obj(vec![("type", Json::Str("ping".into()))]),
            Request::Shutdown => Json::obj(vec![("type", Json::Str("shutdown".into()))]),
        };
        json.compact().into_bytes()
    }

    /// Parses a request frame.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed input (the server turns
    /// it into an `error` response rather than dropping the connection).
    pub fn parse(payload: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "frame is not UTF-8".to_string())?;
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| "request needs a string `type`".to_string())?;
        match ty {
            "job" => {
                let spec = v
                    .get("spec")
                    .ok_or_else(|| "job request needs a `spec`".to_string())?;
                let spec = JobSpec::from_json(spec).map_err(|e| e.to_string())?;
                let deadline_ms = match v.get("deadline_ms") {
                    None | Some(Json::Null) => None,
                    Some(d) => Some(
                        d.as_u64()
                            .ok_or_else(|| "`deadline_ms` must be a uint".to_string())?,
                    ),
                };
                Ok(Request::Job { spec, deadline_ms })
            }
            "stats" => Ok(Request::Stats),
            "cluster" => Ok(Request::Cluster),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type `{other}`")),
        }
    }
}

const RESULT_HEAD: &[u8] = br#"{"type":"result","key":""#;
const RESULT_MID: &[u8] = br#"","report":"#;

fn push_result(out: &mut Vec<u8>, key: &str, report_bytes: &[u8]) {
    out.extend_from_slice(RESULT_HEAD);
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(RESULT_MID);
    out.extend_from_slice(report_bytes);
    out.push(b'}');
}

/// Assembles a `result` response, splicing the report bytes verbatim.
#[must_use]
pub fn result_response(key: &str, report_bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(report_bytes.len() + 64);
    push_result(&mut out, key, report_bytes);
    out
}

/// Appends the frame of [`result_response`] to `out`, built in place: a
/// cache hit goes from the cached report straight into the connection's
/// output buffer. An envelope over [`MAX_FRAME`] is answered with
/// [`OVERSIZED`] instead, as in [`push_response`].
pub fn push_result_frame(out: &mut Vec<u8>, key: &str, report_bytes: &[u8]) {
    let len = RESULT_HEAD.len() + key.len() + RESULT_MID.len() + report_bytes.len() + 1;
    if len > MAX_FRAME {
        push_response(out, OVERSIZED);
        return;
    }
    out.extend_from_slice(&(len as u32).to_be_bytes());
    push_result(out, key, report_bytes);
}

/// Whether `payload` is the `result` envelope of `key` as
/// [`result_response`] builds it: the exact head bytes, then `key`, then
/// the start of the report. Checks the envelope without parsing the
/// report, so a router can tell a result from every other answer (and
/// from a result for another key) by bytes alone.
#[must_use]
pub fn is_result_for(payload: &[u8], key: &str) -> bool {
    payload
        .strip_prefix(RESULT_HEAD)
        .and_then(|rest| rest.strip_prefix(key.as_bytes()))
        .is_some_and(|rest| rest.starts_with(RESULT_MID))
}

/// A `busy` backpressure response.
#[must_use]
pub fn busy_response(retry_after_ms: u64) -> Vec<u8> {
    format!(r#"{{"type":"busy","retry_after_ms":{retry_after_ms}}}"#).into_bytes()
}

/// The exact payload of every `draining` rejection a server emits. A
/// router recognizes a draining backend by comparing bytes, without
/// parsing.
pub const DRAINING: &[u8] = br#"{"type":"draining"}"#;

/// A `timeout` response (the job keeps running and will cache).
#[must_use]
pub fn timeout_response(key: &str) -> Vec<u8> {
    format!(r#"{{"type":"timeout","key":"{key}"}}"#).into_bytes()
}

/// An `error` response from a failed simulation (verification diagnostics
/// are carried structurally).
#[must_use]
pub fn error_response(message: &str, diagnostics: &[Json]) -> Vec<u8> {
    Json::obj(vec![
        ("type", Json::Str("error".into())),
        ("message", Json::Str(message.into())),
        ("diagnostics", Json::Arr(diagnostics.to_vec())),
    ])
    .compact()
    .into_bytes()
}

/// Renders a [`SimError`] as an `error` response.
#[must_use]
pub fn sim_error_response(e: &SimError) -> Vec<u8> {
    match e {
        SimError::Verification(diags) => {
            let rendered: Vec<Json> = diags.iter().map(diagnostic_to_json).collect();
            error_response("verification failed", &rendered)
        }
        other => error_response(&format!("{other:?}"), &[]),
    }
}

/// A `stats` response.
#[must_use]
pub fn stats_response(snapshot: &hmtx_types::StatsSnapshot) -> Vec<u8> {
    Json::obj(vec![
        ("type", Json::Str("stats".into())),
        ("stats", snapshot.to_json()),
    ])
    .compact()
    .into_bytes()
}

/// The `pong` liveness reply.
#[must_use]
pub fn pong_response() -> Vec<u8> {
    br#"{"type":"pong"}"#.to_vec()
}

/// The generic acknowledgment (shutdown accepted).
#[must_use]
pub fn ok_response() -> Vec<u8> {
    br#"{"type":"ok"}"#.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmtx_types::{BenchRef, WireBase, WireParadigm, WireScale};

    fn spec() -> JobSpec {
        JobSpec::new(
            BenchRef::Suite(1),
            WireParadigm::Paper,
            WireScale::Quick,
            WireBase::Test,
        )
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = buf.as_slice();
        let mut frames = FrameBuf::new();
        assert_eq!(
            frames.read_frame(&mut r).unwrap().unwrap(),
            b"\0\0\0\x05hello"
        );
        assert_eq!(frames.read_frame(&mut r).unwrap().unwrap(), b"\0\0\0\0");
        assert_eq!(frames.read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = FrameBuf::new().read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_answers_become_one_short_error_frame() {
        assert_eq!(
            OVERSIZED,
            error_response("response exceeds MAX_FRAME", &[]).as_slice()
        );
        let too_big = vec![b' '; MAX_FRAME + 1];
        let mut out = b"kept".to_vec();
        let err = push_frame(&mut out, &too_big).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(out, b"kept", "a refused frame appends nothing");

        let mut expected = Vec::new();
        push_frame(&mut expected, OVERSIZED).unwrap();
        let mut out = Vec::new();
        push_response(&mut out, &too_big);
        assert_eq!(out, expected);
        let mut out = Vec::new();
        push_result_frame(&mut out, "k", &too_big);
        assert_eq!(out, expected);
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Job {
                spec: spec(),
                deadline_ms: Some(2500),
            },
            Request::Job {
                spec: spec(),
                deadline_ms: None,
            },
            Request::Stats,
            Request::Cluster,
            Request::Ping,
            Request::Shutdown,
        ] {
            let back = Request::parse(&req.to_bytes()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn malformed_requests_error_politely() {
        for bad in [
            &b"not json"[..],
            br#"{"spec":{}}"#,
            br#"{"type":"job"}"#,
            br#"{"type":"warp"}"#,
            br#"{"type":"job","spec":{"benchmark":"suite:0"}}"#,
        ] {
            assert!(Request::parse(bad).is_err());
        }
    }

    #[test]
    fn result_envelope_splices_report_bytes_verbatim() {
        let report = br#"{"cycles":42}"#;
        let resp = result_response("abc123", report);
        let text = String::from_utf8(resp).unwrap();
        assert_eq!(
            text,
            r#"{"type":"result","key":"abc123","report":{"cycles":42}}"#
        );
        // And the spliced envelope is still valid JSON.
        Json::parse(&text).unwrap();
    }

    #[test]
    fn only_a_result_envelope_of_the_same_key_is_a_result_for_it() {
        let report = br#"{"type":"draining"}"#;
        assert!(is_result_for(&result_response("abc", report), "abc"));
        assert!(is_result_for(&result_response("abc", b""), "abc"));
        for other in [
            result_response("abcd", report),
            result_response("ab", report),
            result_response("xyz", report),
            timeout_response("abc"),
            busy_response(5),
            DRAINING.to_vec(),
            error_response("abc", &[]),
            br#"{"type":"result","key":"abc"}"#.to_vec(),
            br#"{"key":"abc","type":"result","report":{}}"#.to_vec(),
        ] {
            assert!(
                !is_result_for(&other, "abc"),
                "{}",
                String::from_utf8_lossy(&other)
            );
        }
    }

    #[test]
    fn canned_responses_parse() {
        for bytes in [
            busy_response(250),
            DRAINING.to_vec(),
            timeout_response("deadbeef"),
            error_response("boom", &[]),
            pong_response(),
            ok_response(),
        ] {
            Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        }
    }
}
