//! End-to-end tests for `hmtx-serve`: an in-process server on an ephemeral
//! port, driven by real TCP clients.
//!
//! Covers the acceptance criteria of the serving layer:
//! (a) byte-identical responses for identical specs — computed, memory-hit,
//!     disk-hit, and coalesced;
//! (b) cache-hit accounting: hit count equals the duplicates submitted;
//! (c) backpressure: `busy` when the admission queue saturates;
//! (d) graceful drain: in-flight jobs complete, new ones are rejected;
//! plus deadline-timeout behavior (the timed-out job still caches).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use hmtx_server::{response_type, Client, ServerConfig, ServerHandle};
use hmtx_types::{
    BenchRef, JobSpec, StatsSnapshot, WireBase, WireParadigm, WireScale, WireVariant,
};

static PORT_SALT: AtomicUsize = AtomicUsize::new(0);

fn start(cfg: ServerConfig) -> ServerHandle {
    // Ephemeral port; the handle reports what was bound.
    PORT_SALT.fetch_add(1, Ordering::Relaxed);
    ServerHandle::start("127.0.0.1:0", cfg).expect("bind")
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(&handle.addr().to_string()).expect("connect")
}

fn spec(index: u32) -> JobSpec {
    JobSpec::new(
        BenchRef::Suite(index),
        WireParadigm::Paper,
        WireScale::Quick,
        WireBase::Test,
    )
}

/// A family of distinct cheap specs (VID-width variants of one workload).
fn variant_spec(bits: u32) -> JobSpec {
    JobSpec {
        variant: WireVariant::VidBits(bits),
        ..spec(7)
    }
}

/// Every job request lands in exactly one outcome counter, and nothing
/// executes that did not miss.
fn assert_outcomes_sum(stats: &StatsSnapshot) {
    assert_eq!(
        stats.job_requests,
        stats.mem_hits
            + stats.disk_hits
            + stats.coalesced_hits
            + stats.misses
            + stats.rejected_busy
            + stats.rejected_draining,
        "job outcomes must sum to job requests: {stats:?}"
    );
    assert!(stats.executed <= stats.misses, "{stats:?}");
}

fn temp_cache_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hmtx-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn identical_specs_get_byte_identical_responses_across_all_tiers() {
    let dir = temp_cache_dir("tiers");
    let handle = start(ServerConfig {
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);
    let s = spec(7);

    let computed = client.job(&s, None).expect("computed");
    assert_eq!(response_type(&computed).as_deref(), Some("result"));
    let mem_hit = client.job(&s, None).expect("mem hit");
    assert_eq!(computed, mem_hit, "memory hit must be byte-identical");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.executed, 1);
    assert_eq!(stats.mem_hits, 1);
    assert_eq!(stats.misses, 1);

    handle.drain();
    handle.wait();

    // A fresh server over the same disk store: cold memory, warm disk.
    let handle2 = start(ServerConfig {
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client2 = connect(&handle2);
    let disk_hit = client2.job(&s, None).expect("disk hit");
    assert_eq!(computed, disk_hit, "disk hit must be byte-identical");
    let stats2 = client2.stats().expect("stats");
    assert_eq!((stats2.disk_hits, stats2.executed), (1, 0));
    assert_outcomes_sum(&stats);
    assert_outcomes_sum(&stats2);
    handle2.drain();
    handle2.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_hits_equal_duplicates_submitted() {
    let handle = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    // 3 distinct specs, submitted 3× each = 6 duplicates.
    let specs = [variant_spec(4), variant_spec(6), variant_spec(8)];
    let mut client = connect(&handle);
    let mut first: Vec<Vec<u8>> = Vec::new();
    for s in &specs {
        first.push(client.job(s, None).expect("first"));
    }
    for round in 0..2 {
        for (i, s) in specs.iter().enumerate() {
            let bytes = client.job(s, None).expect("dup");
            assert_eq!(bytes, first[i], "round {round} spec {i}");
        }
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.cache_hits(), 6, "one hit per duplicate");
    assert_eq!(stats.executed, 3);
    assert_eq!(stats.misses, 3);
    handle.drain();
    handle.wait();
}

#[test]
fn concurrent_identical_specs_coalesce_to_one_execution() {
    let handle = start(ServerConfig {
        workers: 1,
        execute_delay: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let s = spec(3);
    let n = 4;
    let responses: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let handle = &handle;
                scope.spawn(move || {
                    let mut client = connect(handle);
                    client.job(&s, None).expect("job")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &responses[1..] {
        assert_eq!(r, &responses[0], "coalesced responses must be identical");
    }
    let mut client = connect(&handle);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.executed, 1, "identical concurrent specs run once");
    assert_eq!(
        stats.cache_hits() + stats.misses,
        n,
        "every request is a miss, a coalesce, or a late cache hit"
    );
    assert_eq!(stats.misses, 1);
    assert_outcomes_sum(&stats);
    handle.drain();
    handle.wait();
}

#[test]
fn saturated_admission_queue_answers_busy_with_retry_hint() {
    let handle = start(ServerConfig {
        workers: 1,
        queue_cap: 1,
        retry_after_ms: 123,
        execute_delay: Duration::from_millis(400),
        ..ServerConfig::default()
    });
    // 4 distinct slow jobs into a queue of 1 over 1 worker: at least one
    // must be rejected while the first executes and the second queues.
    let specs = [
        variant_spec(4),
        variant_spec(5),
        variant_spec(6),
        variant_spec(7),
    ];
    let responses: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|s| {
                let handle = &handle;
                scope.spawn(move || {
                    let mut client = connect(handle);
                    client.job(s, None).expect("job")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let busy: Vec<&Vec<u8>> = responses
        .iter()
        .filter(|r| response_type(r).as_deref() == Some("busy"))
        .collect();
    assert!(!busy.is_empty(), "queue of 1 must reject some of 4 jobs");
    for b in &busy {
        assert_eq!(hmtx_server::busy_retry_after(b), Some(123));
    }
    let mut client = connect(&handle);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.rejected_busy as usize, busy.len());
    assert_outcomes_sum(&stats);
    handle.drain();
    handle.wait();
}

#[test]
fn graceful_drain_finishes_inflight_and_rejects_new() {
    let handle = start(ServerConfig {
        workers: 1,
        execute_delay: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let slow = spec(1);
    let inflight = std::thread::scope(|scope| {
        let worker = {
            let handle = &handle;
            scope.spawn(move || {
                let mut client = connect(handle);
                client.job(&slow, None).expect("inflight job")
            })
        };
        // Let the job get admitted, then drain via the protocol.
        std::thread::sleep(Duration::from_millis(100));
        let mut client = connect(&handle);
        client.shutdown().expect("shutdown");
        // New job requests on a live connection now answer `draining`.
        let rejected = client.job(&spec(2), None).expect("rejected job");
        assert_eq!(response_type(&rejected).as_deref(), Some("draining"));
        let stats = client.stats().expect("stats while draining");
        assert_eq!(stats.rejected_draining, 1);
        assert_outcomes_sum(&stats);
        worker.join().unwrap()
    });
    assert_eq!(
        response_type(&inflight).as_deref(),
        Some("result"),
        "in-flight job must complete through the drain"
    );
    // And the drain completes: wait() returns.
    handle.wait();
}

#[test]
fn deadline_timeout_answers_but_job_still_caches() {
    let handle = start(ServerConfig {
        workers: 1,
        execute_delay: Duration::from_millis(400),
        ..ServerConfig::default()
    });
    let s = spec(5);
    let mut client = connect(&handle);
    let timed_out = client.job(&s, Some(50)).expect("timeout job");
    assert_eq!(response_type(&timed_out).as_deref(), Some("timeout"));
    // Give the worker time to finish and cache.
    std::thread::sleep(Duration::from_millis(600));
    let retry = client.job(&s, Some(5_000)).expect("retry");
    assert_eq!(response_type(&retry).as_deref(), Some("result"));
    let stats = client.stats().expect("stats");
    assert_eq!(stats.deadline_timeouts, 1);
    assert_eq!(stats.executed, 1, "the retry must hit, not re-run");
    assert_eq!(stats.cache_hits(), 1);
    assert_outcomes_sum(&stats);
    handle.drain();
    handle.wait();
}

/// Readiness-loop pin: hundreds of idle connections must not pin hundreds
/// of threads (thread-per-connection did; the poll loop holds them all on
/// one thread), and the server must keep answering through the crowd.
#[test]
fn idle_connections_do_not_pin_threads() {
    fn thread_count() -> usize {
        std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
    }
    let handle = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let before = thread_count();
    let idle: Vec<Client> = (0..300).map(|_| connect(&handle)).collect();
    // Give the event loop a beat to accept everything.
    std::thread::sleep(Duration::from_millis(300));
    let with_idle = thread_count();
    assert!(
        with_idle < before + 50,
        "300 idle connections grew threads {before} -> {with_idle}; \
         thread-per-connection would add ~300"
    );
    // The server still serves real work through the idle crowd.
    let mut client = connect(&handle);
    let response = client.job(&spec(4), None).expect("job through idle crowd");
    assert_eq!(response_type(&response).as_deref(), Some("result"));
    assert!(client.ping().expect("ping"));
    drop(idle);
    handle.drain();
    handle.wait();
}

/// Backpressure + client backoff (the `hmtx-load` path): a 1-worker server
/// with a tiny queue rejects a burst with `busy`, and `job_with_retry`
/// (seeded jittered exponential backoff from the server's hint) must
/// absorb every rejection — all jobs eventually answer `result`.
#[test]
fn busy_responses_are_retried_with_backoff_until_success() {
    let handle = start(ServerConfig {
        workers: 1,
        queue_cap: 1,
        retry_after_ms: 40,
        execute_delay: Duration::from_millis(120),
        ..ServerConfig::default()
    });
    let specs: Vec<JobSpec> = (3..9).map(variant_spec).collect();
    let responses: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|s| {
                let handle = &handle;
                scope.spawn(move || {
                    let mut client = connect(handle);
                    client.job_with_retry(s, None, 60).expect("job with retry")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(
            response_type(r).as_deref(),
            Some("result"),
            "spec {i} must be retried through busy to a result"
        );
    }
    let mut client = connect(&handle);
    let stats = client.stats().expect("stats");
    assert!(
        stats.rejected_busy > 0,
        "6 slow jobs through queue_cap=1 must trip backpressure at least once"
    );
    assert_eq!(
        stats.executed,
        specs.len() as u64,
        "each spec runs exactly once"
    );
    assert_outcomes_sum(&stats);
    handle.drain();
    handle.wait();
}

/// The PR 4 coalescing guarantee, extended to the sharded cache: many
/// connections hammering the same key concurrently (plus a second key in a
/// different shard) still execute each key exactly once.
#[test]
fn sharded_single_flight_survives_same_key_hammering() {
    let handle = start(ServerConfig {
        workers: 2,
        shards: 16,
        execute_delay: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let hot = spec(3);
    let other = spec(6);
    let n = 12;
    let responses: Vec<(usize, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let handle = &handle;
                let s = if i % 4 == 0 { &other } else { &hot };
                scope.spawn(move || {
                    let mut client = connect(handle);
                    (i, client.job(s, None).expect("job"))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let hot_first = responses.iter().find(|(i, _)| i % 4 != 0).unwrap();
    let other_first = responses.iter().find(|(i, _)| i % 4 == 0).unwrap();
    for (i, r) in &responses {
        assert_eq!(response_type(r).as_deref(), Some("result"), "conn {i}");
        let expect = if i % 4 == 0 {
            &other_first.1
        } else {
            &hot_first.1
        };
        assert_eq!(r, expect, "conn {i} must see the coalesced bytes");
    }
    let mut client = connect(&handle);
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.executed, 2,
        "two distinct keys, two executions, no duplicates under hammering"
    );
    assert_eq!(stats.misses, 2);
    assert_eq!(
        stats.cache_hits() + stats.misses,
        n as u64,
        "every request is a miss, a coalesce, or a late cache hit"
    );
    assert_outcomes_sum(&stats);
    handle.drain();
    handle.wait();
}

#[test]
fn malformed_and_failing_jobs_answer_errors() {
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);
    // A spec naming a suite index that does not exist fails in simulation.
    let bad = spec(99);
    let response = client.job(&bad, None).expect("bad job");
    assert_eq!(response_type(&response).as_deref(), Some("error"));
    // Liveness survives the error.
    assert!(client.ping().expect("ping"));
    let stats = client.stats().expect("stats");
    assert_eq!(stats.errors, 1);
    assert_outcomes_sum(&stats);
    handle.drain();
    handle.wait();
}

#[test]
fn an_unplaceable_job_answers_error_and_the_only_worker_keeps_serving() {
    let handle = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);
    // SMTX needs a core each for stage 1, a worker and the commit process;
    // on two cores it once panicked the worker that ran it, and every later
    // miss on a one-worker server timed out.
    let two_core_smtx = JobSpec {
        paradigm: WireParadigm::SmtxMin,
        variant: WireVariant::ScalingFabric {
            cores: 2,
            directory: false,
        },
        ..spec(1)
    };
    let response = client.job(&two_core_smtx, Some(30_000)).expect("smtx job");
    assert_eq!(response_type(&response).as_deref(), Some("error"));
    let text = String::from_utf8(response).expect("utf-8");
    assert!(text.contains("needs at least 3 cores"), "{text}");
    let good = client.job(&spec(2), Some(30_000)).expect("good job");
    assert_eq!(response_type(&good).as_deref(), Some("result"));
    handle.drain();
    handle.wait();
}

/// A VID width the wire accepts but the machine rejects (13 bits) answers
/// a named `error` at once; it once panicked the worker that ran it, so the
/// request waited out its deadline and the server had no worker left.
#[test]
fn an_invalid_vid_width_answers_error_and_the_only_worker_keeps_serving() {
    let handle = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);
    let started = Instant::now();
    let response = client.job(&variant_spec(13), Some(2_000)).expect("job");
    let took = started.elapsed();
    let text = String::from_utf8(response).expect("utf-8");
    assert!(text.starts_with(r#"{"type":"error""#), "{text}");
    assert!(text.contains("vid_bits"), "{text}");
    assert!(took < Duration::from_millis(500), "the error took {took:?}");
    let good = client.job(&spec(2), Some(30_000)).expect("good job");
    assert_eq!(response_type(&good).as_deref(), Some("result"));
    handle.drain();
    handle.wait();
}

#[test]
fn pipelined_frames_and_a_trailing_eof_in_one_write_are_all_answered() {
    use std::io::Write;
    use std::net::{Shutdown, TcpStream};

    use hmtx_server::proto::{self, Request};

    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);
    let direct: Vec<Vec<u8>> = [spec(0), spec(1)]
        .iter()
        .map(|s| client.job(s, None).expect("warm"))
        .collect();
    // Hits, a ping and EOF arrive in one segment. The readiness loop reads
    // once, serves every frame, and learns of the EOF on a later poll.
    let mut burst = Vec::new();
    for req in [
        Request::Job {
            spec: spec(0),
            deadline_ms: None,
        },
        Request::Ping,
        Request::Job {
            spec: spec(1),
            deadline_ms: None,
        },
    ] {
        proto::push_frame(&mut burst, &req.to_bytes()).expect("frame fits");
    }
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    raw.write_all(&burst).expect("burst");
    raw.shutdown(Shutdown::Write).expect("half-close");
    let mut answers = Vec::new();
    let mut frames = proto::FrameBuf::new();
    while let Some(frame) = frames.read_frame(&mut raw).expect("read") {
        answers.push(frame[4..].to_vec());
    }
    assert_eq!(
        answers,
        vec![direct[0].clone(), proto::pong_response(), direct[1].clone()]
    );
    handle.drain();
    handle.wait();
}

/// A request whose `error` answer would outgrow `MAX_FRAME` (an unknown
/// `type` just under it, echoed by the message) gets one short `error`
/// frame instead; the connection stays in step and the readiness loop,
/// which serves every connection, keeps running.
#[test]
fn an_error_too_large_to_frame_answers_a_short_error_and_serving_goes_on() {
    use std::io::Write;
    use std::net::TcpStream;

    use hmtx_server::proto::{self, FrameBuf, Request};
    use hmtx_server::MAX_FRAME;

    let handle = start(ServerConfig::default());
    let mut payload = br#"{"type":""#.to_vec();
    payload.resize(MAX_FRAME - 22, b'x');
    payload.extend_from_slice(br#""}"#);
    let mut wire = Vec::new();
    proto::push_frame(&mut wire, &payload).expect("request fits");
    proto::push_frame(&mut wire, &Request::Ping.to_bytes()).expect("frame fits");
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    raw.write_all(&wire).expect("send");
    let mut rx = FrameBuf::new();
    let mut answer = || rx.read_frame(&mut raw).expect("read").expect("answer")[4..].to_vec();
    assert_eq!(answer(), proto::OVERSIZED);
    assert_eq!(answer(), proto::pong_response());
    assert!(connect(&handle).ping().expect("a second connection"));
    handle.drain();
    handle.wait();
}
