//! Command-line contract of `hmtx-router`: the error paths, where parsing
//! fails before any socket is bound, and the behaviour of a running router
//! process at its fd limit and on SIGTERM.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use hmtx_server::proto::{self, FrameBuf, Request};

const ROUTER: &str = env!("CARGO_BIN_EXE_hmtx-router");

/// Runs `bin` with `args` and checks the usage-error contract shared by
/// every workspace binary: exit status 2, nothing on stdout, and stderr
/// naming `needle` above the usage line. A binary still running after
/// 10 s (an accepted flag, so it is serving) is killed and fails the test.
fn usage_error(bin: &str, args: &[&str], needle: &str) -> String {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning the binary");
    let started = Instant::now();
    while child.try_wait().expect("wait").is_none() {
        if started.elapsed() > Duration::from_secs(10) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{args:?}: still running after 10 s, not a usage error");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("collecting the output");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    assert!(
        stderr.contains(needle),
        "{args:?}: `{needle}` not in {stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{args:?}: no usage line in {stderr}"
    );
    stderr
}

/// An unknown flag, `flag` without its value, and `flag` with a value that
/// does not parse, each after `prefix`.
fn flag_contract(bin: &str, prefix: &[&str], flag: &str) {
    for tail in [&["--bogus"][..], &[flag], &[flag, "x1"]] {
        let args: Vec<&str> = prefix.iter().chain(tail).copied().collect();
        usage_error(bin, &args, tail[0]);
    }
}

const PREFIX: [&str; 4] = ["--backends", "127.0.0.1:9", "--addr", "127.0.0.1:0"];

#[test]
fn usage_errors_exit_2() {
    flag_contract(ROUTER, &PREFIX, "--health-interval-ms");
    usage_error(ROUTER, &["--addr", "127.0.0.1:0"], "--backends is required");
    // A zero interval would probe on every poll and spin a processor.
    let zero: Vec<&str> = PREFIX
        .iter()
        .copied()
        .chain(["--health-interval-ms", "0"])
        .collect();
    usage_error(ROUTER, &zero, "invalid value `0` for --health-interval-ms");
    // Ring replicas and the retry budget are constants, not flags.
    for flag in ["--replicas", "--retries", "--retry-base-ms"] {
        let args: Vec<&str> = PREFIX.iter().copied().chain([flag, "4"]).collect();
        usage_error(ROUTER, &args, &format!("unknown flag `{flag}`"));
    }
}

/// A router process, killed and reaped on drop so a failed assertion
/// leaves nothing running.
struct Proc(Child);

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `hmtx-router` over an unreachable backend through `sh -c`, whose
/// `limits` (a shell prefix such as `ulimit -n 40;`) apply to it alone, and
/// returns it with the address from its `listening on` line.
fn spawn_router(limits: &str) -> (Proc, String, BufReader<ChildStdout>) {
    let script = format!("{limits} exec \"$0\" \"$@\"");
    let mut child = Command::new("sh")
        .args(["-c", &script, ROUTER])
        .args(PREFIX)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning hmtx-router");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read stdout");
    let addr = line.strip_prefix("listening on ").map(str::trim);
    let addr = addr.unwrap_or_else(|| panic!("no address in {line:?}"));
    (Proc(child), addr.to_string(), stdout)
}

/// Processor time `pid` has used: utime plus stime from `/proc/PID/stat`,
/// in the kernel's 100 Hz clock ticks.
fn cpu_time(pid: u32) -> Duration {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("stat");
    // Past the parenthesised command name, field 3 (state) comes first.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 2..]
        .split(' ')
        .collect();
    let ticks: u64 = fields[11..13]
        .iter()
        .map(|f| f.parse::<u64>().expect("ticks"))
        .sum();
    Duration::from_millis(ticks * 10)
}

/// Out of file descriptors, the router stops polling its listener instead
/// of spinning on it: newcomers wait in the backlog, and once connections
/// close, a waiting client is accepted and answered.
#[test]
fn at_its_fd_limit_the_router_waits_instead_of_spinning() {
    let (router, addr, _stdout) = spawn_router("ulimit -n 40;");
    let mut clients: Vec<TcpStream> = (0..60)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    // Let the router accept what its 40 fds allow.
    std::thread::sleep(Duration::from_millis(200));
    let before = cpu_time(router.0.id());
    std::thread::sleep(Duration::from_secs(2));
    let spent = cpu_time(router.0.id()).saturating_sub(before);
    assert!(
        spent < Duration::from_millis(200),
        "the router used {spent:?} of processor time in 2 s at its fd limit"
    );
    clients.drain(..30);
    let mut waiting = clients.pop().expect("a client past the limit");
    waiting
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout");
    proto::write_frame(&mut waiting, &Request::Ping.to_bytes()).expect("ping");
    let mut rx = FrameBuf::new();
    let answer = rx.read_frame(&mut waiting).expect("an answer in time");
    assert_eq!(&answer.expect("not EOF")[4..], proto::pong_response());
}

/// SIGTERM drains a running `hmtx-router` at once: it exits 0 within a
/// second, reporting `drained, exiting` on stderr.
#[test]
fn hmtx_router_drains_on_sigterm() {
    let (mut router, _, _stdout) = spawn_router("");
    let pid = router.0.id().to_string();
    let sent = Command::new("kill").args(["-TERM", &pid]).status();
    assert!(sent.expect("running kill").success());
    let started = Instant::now();
    let status = loop {
        if let Some(status) = router.0.try_wait().expect("wait") {
            break status;
        }
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "hmtx-router still running 1 s after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    let mut pipe = router.0.stderr.take().expect("stderr");
    pipe.read_to_string(&mut stderr).expect("read stderr");
    assert!(status.success(), "{status}: {stderr}");
    assert!(stderr.contains("drained, exiting"), "{stderr}");
}
