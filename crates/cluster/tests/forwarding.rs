//! The router's forwarding contract, pinned through a real `hmtx-router`:
//! client frames are assembled in a per-connection buffer (pipelined
//! frames, frames split anywhere, frames that straddle an idle tick), and
//! backend answers splice back verbatim without being parsed. `draining`
//! is recognized by its exact bytes; a `result` that merely contains the
//! word is forwarded as-is. Only a `result` for the forward's own key
//! enters the router's result tier, which then answers that key without a
//! backend; a forward to a backend that never answers expires; and a
//! backend that never answers its health probe is marked down without
//! holding up a drain.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use hmtx_cluster::{Ring, RouterConfig, RouterHandle, DEFAULT_REPLICAS};
use hmtx_server::proto::{self, FrameBuf, Request};
use hmtx_server::{response_type, Client, ServerConfig, ServerHandle};
use hmtx_types::{BenchRef, JobSpec, WireBase, WireParadigm, WireScale, WireVariant};

fn spec(workload: u32) -> JobSpec {
    JobSpec::new(
        BenchRef::Suite(workload),
        WireParadigm::Paper,
        WireScale::Quick,
        WireBase::Test,
    )
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    proto::push_frame(&mut out, payload).expect("frame fits");
    out
}

fn job_frame(s: &JobSpec) -> Vec<u8> {
    framed(
        &Request::Job {
            spec: *s,
            deadline_ms: None,
        }
        .to_bytes(),
    )
}

fn router_over(addrs: Vec<String>) -> RouterHandle {
    let mut cfg = RouterConfig::new(addrs);
    cfg.health_interval = Duration::from_millis(50);
    RouterHandle::start("127.0.0.1:0", cfg).expect("bind router")
}

/// A raw client socket and the buffer its answers are read through.
fn connect(addr: &str) -> (TcpStream, FrameBuf) {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).expect("nodelay");
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    (s, FrameBuf::new())
}

/// Reads the next answer's payload off a raw socket.
fn read_payload(s: &mut TcpStream, rx: &mut FrameBuf) -> Vec<u8> {
    rx.read_frame(s).expect("read").expect("an answer, not EOF")[4..].to_vec()
}

/// One real backend behind a router, with `specs` already cached so every
/// job below is a hit.
struct Fixture {
    backend: ServerHandle,
    router: RouterHandle,
    /// Direct answers for each cached spec, the byte-identity reference.
    direct: Vec<Vec<u8>>,
}

impl Fixture {
    fn new(specs: &[JobSpec]) -> Fixture {
        let backend = ServerHandle::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let mut c = Client::connect(&backend.addr().to_string()).expect("connect");
        let direct = specs.iter().map(|s| c.job(s, None).expect("job")).collect();
        let router = router_over(vec![backend.addr().to_string()]);
        Fixture {
            backend,
            router,
            direct,
        }
    }

    fn router_addr(&self) -> String {
        self.router.addr().to_string()
    }

    fn stop(self) {
        self.router.drain();
        self.router.wait();
        self.backend.drain();
        self.backend.wait();
    }
}

#[test]
fn pipelined_frames_in_one_write_are_answered_in_order() {
    let specs = [spec(0), spec(3), spec(5)];
    let fx = Fixture::new(&specs);
    let (mut s, mut rx) = connect(&fx.router_addr());
    let mut burst = Vec::new();
    for sp in &specs {
        burst.extend_from_slice(&job_frame(sp));
    }
    burst.extend_from_slice(&framed(&Request::Ping.to_bytes()));
    burst.extend_from_slice(&job_frame(&specs[0]));
    s.write_all(&burst).expect("one write");
    for (i, want) in fx.direct.iter().enumerate() {
        assert_eq!(
            &read_payload(&mut s, &mut rx),
            want,
            "answer {i} out of order"
        );
    }
    assert_eq!(read_payload(&mut s, &mut rx), proto::pong_response());
    assert_eq!(&read_payload(&mut s, &mut rx), &fx.direct[0]);
    fx.stop();
}

#[test]
fn frames_split_at_every_byte_boundary_are_answered() {
    let specs = [spec(2)];
    let fx = Fixture::new(&specs);
    let (mut s, mut rx) = connect(&fx.router_addr());
    let job = job_frame(&specs[0]);
    for cut in 1..job.len() {
        s.write_all(&job[..cut]).expect("head");
        s.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(1));
        s.write_all(&job[cut..]).expect("tail");
        assert_eq!(
            read_payload(&mut s, &mut rx),
            fx.direct[0],
            "split at byte {cut}"
        );
    }
    let ping = framed(&Request::Ping.to_bytes());
    for cut in 1..ping.len() {
        s.write_all(&ping[..cut]).expect("head");
        std::thread::sleep(Duration::from_millis(1));
        s.write_all(&ping[cut..]).expect("tail");
        assert_eq!(
            read_payload(&mut s, &mut rx),
            proto::pong_response(),
            "ping split at {cut}"
        );
    }
    fx.stop();
}

#[test]
fn a_frame_paused_across_an_idle_tick_is_still_answered() {
    let fx = Fixture::new(&[]);
    let (mut s, mut rx) = connect(&fx.router_addr());
    let ping = framed(&Request::Ping.to_bytes());
    // The router's idle tick is 500 ms; the pause outlasts it.
    s.write_all(&ping[..2]).expect("head");
    std::thread::sleep(Duration::from_millis(700));
    s.write_all(&ping[2..]).expect("tail");
    assert_eq!(read_payload(&mut s, &mut rx), proto::pong_response());
    fx.stop();
}

/// 144 distinct valid specs: 9 VID widths (4..=12) × 8 suite workloads ×
/// 2 paradigms.
fn vid_specs() -> impl Iterator<Item = JobSpec> {
    (4..=12).flat_map(|bits| {
        (0..8).flat_map(move |w| {
            [WireParadigm::Paper, WireParadigm::Hytm].map(|paradigm| JobSpec {
                paradigm,
                variant: WireVariant::VidBits(bits),
                ..spec(w)
            })
        })
    })
}

#[test]
fn a_pooled_client_carries_many_requests_without_leftover_bytes() {
    let specs: Vec<JobSpec> = vid_specs().collect();
    let fx = Fixture::new(&specs);
    let mut c = Client::connect(&fx.router_addr()).expect("connect");
    // The first round forwards every key over the pooled backend socket;
    // the second answers each from the router's result tier.
    for round in 0..2 {
        for (s, want) in specs.iter().zip(&fx.direct) {
            assert_eq!(&c.job(s, None).expect("job"), want, "round {round}");
            assert_eq!(c.buffered(), 0, "round {round}: bytes past the answer");
        }
        assert!(c.ping().expect("ping"));
        assert_eq!(c.buffered(), 0);
    }
    let stats = c.stats().expect("stats");
    assert_eq!(c.buffered(), 0);
    // 144 routed hits on the backend, none paired with another request's
    // answer, then 144 hits in the router itself.
    let n = specs.len() as u64;
    let counters = fx.router.counters();
    assert_eq!((counters.forwarded, counters.hits), (n, n));
    assert_eq!(stats.mem_hits, 2 * n, "the aggregate counts both tiers");
    fx.stop();
}

/// A scripted backend: answers `ping` with `pong` (so health checks pass)
/// and every other frame with `answer`, counting the job frames it saw.
fn scripted_backend(answer: Vec<u8>) -> (String, Arc<AtomicU64>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let jobs = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&jobs);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let answer = answer.clone();
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || {
                let mut frames = FrameBuf::new();
                while let Ok(Some(frame)) = frames.read_frame(&mut stream) {
                    let reply = if Request::parse(&frame[4..]) == Ok(Request::Ping) {
                        proto::pong_response()
                    } else {
                        seen.fetch_add(1, Ordering::SeqCst);
                        answer.clone()
                    };
                    if proto::write_frame(&mut stream, &reply).is_err() {
                        return;
                    }
                }
            });
        }
    });
    (addr, jobs)
}

/// A spec whose ring home among `addrs` is `addrs[home]`. Ring placement
/// depends on the ephemeral ports in `addrs`, so the search spans all of
/// [`vid_specs`]: that none of them homes on a given one of two backends is
/// about a 2^-144 event.
fn spec_homed_on(addrs: &[String], home: usize) -> JobSpec {
    let ring = Ring::new(addrs, DEFAULT_REPLICAS);
    vid_specs()
        .find(|s| ring.home(&s.key()) == home)
        .expect("some spec homes on each of two backends")
}

#[test]
fn a_draining_answer_fails_over_to_the_next_backend() {
    let (fake, jobs) = scripted_backend(proto::DRAINING.to_vec());
    let real = ServerHandle::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addrs = vec![fake, real.addr().to_string()];
    let s = spec_homed_on(&addrs, 0);
    let router = router_over(addrs);
    let mut c = Client::connect(&router.addr().to_string()).expect("connect");
    let response = c.job(&s, None).expect("job");
    assert_eq!(response_type(&response).as_deref(), Some("result"));
    assert_eq!(
        jobs.load(Ordering::SeqCst),
        1,
        "the home backend was asked first"
    );
    let counters = router.counters();
    assert_eq!(counters.failovers, 1);
    assert_eq!(counters.forwarded, 1);
    router.drain();
    router.wait();
    real.drain();
    real.wait();
}

#[test]
fn a_result_mentioning_draining_is_forwarded_verbatim() {
    let s = spec(1);
    let answer = proto::result_response(&s.key(), br#"{"type":"draining"}"#);
    let (fake, jobs) = scripted_backend(answer.clone());
    let router = router_over(vec![fake]);
    let mut c = Client::connect(&router.addr().to_string()).expect("connect");
    for _ in 0..3 {
        assert_eq!(c.job(&s, None).expect("job"), answer);
    }
    assert_eq!(
        jobs.load(Ordering::SeqCst),
        1,
        "a result for the key is kept"
    );
    let counters = router.counters();
    assert_eq!((counters.forwarded, counters.failovers), (1, 0));
    assert_eq!(counters.hits, 2);
    assert!(
        router.backend_up(0),
        "a result never marks its backend down"
    );
    router.drain();
    router.wait();
}

/// A key the router has forwarded once is answered by the router itself,
/// byte-identically, and the aggregate `stats` counts each of those
/// answers as a memory hit.
#[test]
fn a_repeated_key_reaches_its_backend_once() {
    let s = spec(3);
    let answer = proto::result_response(&s.key(), br#"{"cycles":7}"#);
    let (fake, jobs) = scripted_backend(answer.clone());
    let router = router_over(vec![fake]);
    let mut c = Client::connect(&router.addr().to_string()).expect("connect");
    for i in 0..20 {
        assert_eq!(c.job(&s, None).expect("job"), answer, "request {i}");
    }
    assert_eq!(jobs.load(Ordering::SeqCst), 1);
    let counters = router.counters();
    assert_eq!((counters.forwarded, counters.hits), (1, 19));
    // The scripted backend answers `stats` with its result frame, so the
    // router's own hits are all the aggregate holds.
    let stats = c.stats().expect("stats");
    assert_eq!(
        (stats.requests, stats.job_requests, stats.mem_hits),
        (19, 19, 19)
    );
    router.drain();
    router.wait();
}

/// A key warmed through the router is still answered, byte-identically,
/// after its only backend has drained and exited.
#[test]
fn a_warmed_key_outlives_its_backend() {
    let s = spec(5);
    let fx = Fixture::new(&[s]);
    let mut c = Client::connect(&fx.router_addr()).expect("connect");
    assert_eq!(c.job(&s, None).expect("job"), fx.direct[0]);
    fx.backend.drain();
    fx.backend.wait();
    for i in 0..3 {
        assert_eq!(c.job(&s, None).expect("job"), fx.direct[0], "request {i}");
    }
    let counters = fx.router.counters();
    assert_eq!((counters.forwarded, counters.hits), (1, 3));
    fx.router.drain();
    fx.router.wait();
}

/// `busy` and `error` answers reach the client verbatim and are never
/// stored: the backend sees every request.
#[test]
fn busy_and_error_answers_are_never_stored() {
    let s = spec(4);
    for answer in [proto::busy_response(5), proto::error_response("boom", &[])] {
        let (fake, jobs) = scripted_backend(answer.clone());
        let router = router_over(vec![fake]);
        let mut c = Client::connect(&router.addr().to_string()).expect("connect");
        for _ in 0..3 {
            assert_eq!(c.job(&s, None).expect("job"), answer);
        }
        assert_eq!(jobs.load(Ordering::SeqCst), 3);
        let counters = router.counters();
        assert_eq!((counters.forwarded, counters.hits), (3, 0));
        router.drain();
        router.wait();
    }
}

/// A `result` envelope naming another key is forwarded verbatim on every
/// request and never stored under either key.
#[test]
fn a_result_for_another_key_is_never_stored() {
    let (asked, named) = (spec(1), spec(2));
    let answer = proto::result_response(&named.key(), b"{}");
    let (fake, jobs) = scripted_backend(answer.clone());
    let router = router_over(vec![fake]);
    let mut c = Client::connect(&router.addr().to_string()).expect("connect");
    for s in [asked, asked, named, asked] {
        assert_eq!(c.job(&s, None).expect("job"), answer);
    }
    // `named` was asked once and its answer stored; `asked` never.
    assert_eq!(c.job(&named, None).expect("job"), answer);
    assert_eq!(jobs.load(Ordering::SeqCst), 4);
    let counters = router.counters();
    assert_eq!((counters.forwarded, counters.hits), (4, 1));
    router.drain();
    router.wait();
}

/// The router answers an unparseable request itself; when that `error`
/// would outgrow `MAX_FRAME` (an unknown `type` just under it, echoed by
/// the message), it sends one short `error` frame instead, keeps the
/// connection in step and keeps serving.
#[test]
fn an_error_too_large_to_frame_answers_a_short_error_through_the_router() {
    let fx = Fixture::new(&[]);
    let (mut s, mut rx) = connect(&fx.router_addr());
    let mut payload = br#"{"type":""#.to_vec();
    payload.resize(proto::MAX_FRAME - 22, b'x');
    payload.extend_from_slice(br#""}"#);
    let mut wire = framed(&payload);
    wire.extend_from_slice(&framed(&Request::Ping.to_bytes()));
    s.write_all(&wire).expect("send");
    assert_eq!(read_payload(&mut s, &mut rx), proto::OVERSIZED);
    assert_eq!(read_payload(&mut s, &mut rx), proto::pong_response());
    let mut other = Client::connect(&fx.router_addr()).expect("connect");
    assert!(other.ping().expect("a second connection"));
    fx.stop();
}

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// The router serves every client connection from one readiness loop:
/// hundreds of idle connections add no threads, and a job still routes
/// through the crowd.
#[test]
fn router_idle_connections_do_not_pin_threads() {
    let specs = [spec(4)];
    let fx = Fixture::new(&specs);
    let before = thread_count();
    let idle: Vec<Client> = (0..300)
        .map(|_| Client::connect(&fx.router_addr()).expect("connect"))
        .collect();
    // Give the loop a beat to accept everything.
    std::thread::sleep(Duration::from_millis(300));
    let with_idle = thread_count();
    assert!(
        with_idle < before + 50,
        "300 idle router connections grew threads {before} -> {with_idle}; \
         thread-per-connection would add ~300"
    );
    let mut c = Client::connect(&fx.router_addr()).expect("connect");
    let answer = c.job(&specs[0], None).expect("job through the crowd");
    assert_eq!(answer, fx.direct[0]);
    assert!(c.ping().expect("ping"));
    drop(idle);
    fx.stop();
}

/// Drain does not wait on idle connections: the loop closes them at once
/// (the client reads EOF) instead of on a per-connection read-timeout tick.
#[test]
fn drain_with_an_idle_client_returns_promptly_and_closes_it() {
    let fx = Fixture::new(&[]);
    let (mut s, mut rx) = connect(&fx.router_addr());
    let ping = framed(&Request::Ping.to_bytes());
    s.write_all(&ping).expect("ping");
    assert_eq!(read_payload(&mut s, &mut rx), proto::pong_response());
    let started = std::time::Instant::now();
    fx.router.drain();
    fx.router.wait();
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(250),
        "drain + wait took {took:?} with one idle client"
    );
    assert!(
        rx.read_frame(&mut s).expect("clean EOF").is_none(),
        "the idle client sees EOF"
    );
    fx.backend.drain();
    fx.backend.wait();
}

/// A forward in flight when drain begins is answered before its connection
/// closes; a job arriving on another connection meanwhile answers
/// `draining`, and both connections then see EOF.
#[test]
fn drain_answers_the_forward_in_flight_and_rejects_new_jobs() {
    let backend = ServerHandle::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            execute_delay: Duration::from_millis(400),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let router = router_over(vec![backend.addr().to_string()]);
    let (mut slow, mut slow_rx) = connect(&router.addr().to_string());
    let (mut late, mut late_rx) = connect(&router.addr().to_string());
    // A ping round trip: the router has accepted `late` before drain.
    let ping = framed(&Request::Ping.to_bytes());
    late.write_all(&ping).expect("ping");
    let pong = read_payload(&mut late, &mut late_rx);
    assert_eq!(pong, proto::pong_response());
    let job = job_frame(&spec(6));
    slow.write_all(&job).expect("send the slow job");
    // Drain only once the backend has admitted the forwarded job.
    let mut probe = Client::connect(&backend.addr().to_string()).expect("connect");
    while probe.stats().expect("stats").misses == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    router.drain();
    let job = job_frame(&spec(7));
    late.write_all(&job).expect("send after drain");
    assert_eq!(read_payload(&mut late, &mut late_rx), proto::DRAINING);
    let answer = read_payload(&mut slow, &mut slow_rx);
    assert_eq!(response_type(&answer).as_deref(), Some("result"));
    router.wait();
    for (s, rx) in [(&mut slow, &mut slow_rx), (&mut late, &mut late_rx)] {
        assert!(rx.read_frame(s).expect("clean EOF").is_none());
    }
    backend.drain();
    backend.wait();
}

/// A backend that answers `ping` (so health checks keep it up) and holds
/// every other frame unanswered until `release` is set, then answers it
/// with `answer`.
fn silent_backend(answer: Vec<u8>, release: Arc<AtomicBool>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let (answer, release) = (answer.clone(), Arc::clone(&release));
            std::thread::spawn(move || {
                let mut frames = FrameBuf::new();
                while let Ok(Some(frame)) = frames.read_frame(&mut stream) {
                    let reply = if Request::parse(&frame[4..]) == Ok(Request::Ping) {
                        proto::pong_response()
                    } else {
                        while !release.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        answer.clone()
                    };
                    if proto::write_frame(&mut stream, &reply).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// A backend that never answers parks only the connections waiting on it:
/// other connections' pings and jobs homed elsewhere answer promptly, and
/// `stats` answers once the silent backend's one-second bound runs out.
#[test]
fn a_silent_backend_parks_only_its_own_forwards() {
    let release = Arc::new(AtomicBool::new(false));
    let s_silent = spec(1);
    let held = proto::result_response(&s_silent.key(), b"{}");
    let silent = silent_backend(held.clone(), Arc::clone(&release));
    let real = ServerHandle::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addrs = vec![silent, real.addr().to_string()];
    let (home_silent, home_real) = (spec_homed_on(&addrs, 0), spec_homed_on(&addrs, 1));
    let expected = Client::connect(&addrs[1])
        .expect("connect")
        .job(&home_real, None)
        .expect("warm the real backend");
    let router = router_over(addrs);
    let (mut stuck, mut stuck_rx) = connect(&router.addr().to_string());
    stuck.write_all(&job_frame(&home_silent)).expect("send");

    let mut other = Client::connect(&router.addr().to_string()).expect("connect");
    for _ in 0..5 {
        let started = std::time::Instant::now();
        assert!(other.ping().expect("ping"));
        assert_eq!(other.job(&home_real, None).expect("job"), expected);
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "a ping and a cached hit took {:?} beside a parked forward",
            started.elapsed()
        );
    }
    let started = std::time::Instant::now();
    let stats = other.stats().expect("stats");
    let took = started.elapsed();
    assert!(
        took >= Duration::from_millis(900) && took < Duration::from_millis(2_500),
        "stats took {took:?}: one second for the silent backend, then the real one"
    );
    assert_eq!(stats.mem_hits, 5, "the real backend's snapshot is summed");

    stuck
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("timeout");
    assert!(
        stuck_rx.read_frame(&mut stuck).is_err(),
        "the forward to the silent backend is still pending"
    );
    release.store(true, Ordering::SeqCst);
    stuck
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    assert_eq!(read_payload(&mut stuck, &mut stuck_rx), held);
    router.drain();
    router.wait();
    real.drain();
    real.wait();
}

/// A backend that takes a job and never answers: the router answers
/// `timeout` once the job's own deadline plus the router's margin (1 s)
/// has passed, and a drain then finishes while the backend stays silent.
#[test]
fn a_silent_backend_times_out_at_the_forward_deadline() {
    let silent = silent_backend(Vec::new(), Arc::new(AtomicBool::new(false)));
    let router = router_over(vec![silent]);
    let (mut stuck, mut stuck_rx) = connect(&router.addr().to_string());
    stuck
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let s = spec(1);
    let job = Request::Job {
        spec: s,
        deadline_ms: Some(200),
    };
    let started = Instant::now();
    stuck.write_all(&framed(&job.to_bytes())).expect("send");
    assert_eq!(
        read_payload(&mut stuck, &mut stuck_rx),
        proto::timeout_response(&s.key())
    );
    let took = started.elapsed();
    assert!(
        took >= Duration::from_millis(1_200) && took < Duration::from_millis(3_000),
        "the timeout came after {took:?}; want the 200 ms deadline plus the 1 s margin"
    );
    assert_eq!(router.counters().forwarded, 0);

    timed_drain(router);
}

/// Runs `drain()` + `wait()` on another thread and returns how long they
/// took; a drain that hangs fails after five seconds instead.
fn timed_drain(router: RouterHandle) -> Duration {
    let started = Instant::now();
    let (done, waited) = mpsc::channel();
    std::thread::spawn(move || {
        router.drain();
        router.wait();
        let _ = done.send(());
    });
    waited
        .recv_timeout(Duration::from_secs(5))
        .expect("drain + wait return");
    started.elapsed()
}

/// A backend that takes connections (through the listen backlog) and never
/// reads: its `ping` probe goes unanswered for the probe timeout (500 ms),
/// which marks it down, and a job homed on it then goes straight to the
/// live backend.
#[test]
fn a_hung_backend_is_probed_down_and_its_jobs_fail_over() {
    let hung = TcpListener::bind("127.0.0.1:0").expect("bind");
    let real = ServerHandle::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addrs = vec![
        hung.local_addr().expect("addr").to_string(),
        real.addr().to_string(),
    ];
    let s = spec_homed_on(&addrs, 0);
    let expected = Client::connect(&addrs[1])
        .expect("connect")
        .job(&s, None)
        .expect("warm the live backend");
    let started = Instant::now();
    let router = router_over(addrs);
    // The probe timeout plus three 50 ms intervals.
    while router.backend_up(0) {
        assert!(
            started.elapsed() < Duration::from_millis(650),
            "the hung backend still counts as up after {:?}",
            started.elapsed()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut c = Client::connect(&router.addr().to_string()).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let started = Instant::now();
    assert_eq!(c.job(&s, None).expect("job"), expected);
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "the failover took {:?}",
        started.elapsed()
    );
    assert_eq!(router.counters().failovers, 1);
    timed_drain(router);
    real.drain();
    real.wait();
}

/// Drain does not wait on a health probe: with a `ping` unanswered on a
/// hung backend's socket, `drain()` + `wait()` still return at once.
#[test]
fn drain_returns_promptly_beside_a_hung_backend() {
    let hung = TcpListener::bind("127.0.0.1:0").expect("bind");
    let router = router_over(vec![hung.local_addr().expect("addr").to_string()]);
    // Let the first probe go out and sit unanswered.
    std::thread::sleep(Duration::from_millis(100));
    let took = timed_drain(router);
    assert!(
        took < Duration::from_millis(250),
        "drain + wait took {took:?} beside a hung backend"
    );
    drop(hung);
}
