//! Command-line contract of `hmtx-serve` and `hmtx-load`: the error paths,
//! where parsing fails before any socket is bound or dialled, and the
//! drain of a running `hmtx-serve` on SIGTERM.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const SERVE: &str = env!("CARGO_BIN_EXE_hmtx-serve");
const LOAD: &str = env!("CARGO_BIN_EXE_hmtx-load");

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

#[test]
fn hmtx_serve_usage_errors_exit_2() {
    flag_contract(SERVE, &["--addr", "127.0.0.1:0", "--mem-only"], "--workers");
}

#[test]
fn hmtx_load_usage_errors_exit_2() {
    flag_contract(LOAD, &["--addr", "127.0.0.1:9"], "--clients");
    usage_error(LOAD, &["--clients", "2"], "--addr is required");
    usage_error(
        LOAD,
        &["--addr", "127.0.0.1:9", "--rounds", "0"],
        "--rounds",
    );
    usage_error(
        LOAD,
        &["--addr", "127.0.0.1:9", "--sustained", "--rate", "0"],
        "--rate",
    );
}

/// SIGTERM drains a running `hmtx-serve` at once: it exits 0 within a
/// second, reporting `drained, exiting` on stderr.
#[test]
fn hmtx_serve_drains_on_sigterm() {
    let mut child = Command::new(SERVE)
        .args(["--addr", "127.0.0.1:0", "--mem-only", "--workers", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning hmtx-serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read stdout");
    assert!(line.starts_with("listening on "), "{line}");
    let pid = child.id().to_string();
    let sent = Command::new("kill").args(["-TERM", &pid]).status();
    assert!(sent.expect("running kill").success());
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        if started.elapsed() > Duration::from_secs(1) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("hmtx-serve still running 1 s after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    let mut pipe = child.stderr.take().expect("stderr");
    pipe.read_to_string(&mut stderr).expect("read stderr");
    assert!(status.success(), "{status}: {stderr}");
    assert!(stderr.contains("drained, exiting"), "{stderr}");
}
