//! Command-line tests for `hmtx-model`: argument validation happens before
//! any model is built, and every usage error exits 2.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

fn hmtx_model(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hmtx-model"))
        .args(args)
        .output()
        .expect("spawning hmtx-model")
}

/// Runs `bin` with `args` and checks the usage-error contract shared by
/// every workspace binary: exit status 2, nothing on stdout, and stderr
/// naming `needle` above the usage line.
fn usage_error(bin: &str, args: &[&str], needle: &str) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("spawning the binary");
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
fn usage_errors_exit_2() {
    let model = env!("CARGO_BIN_EXE_hmtx-model");
    flag_contract(model, &["--lines", "2"], "--cores");
    usage_error(model, &["--kernel", "nope"], "unknown kernel `nope`");
    usage_error(model, &["--seed-bug", "nope"], "--seed-bug");
}

#[test]
fn oversized_symmetric_models_are_a_usage_error() {
    // Symmetry enumerates n! core and line permutations; past 10 cores or
    // lines that would exhaust memory, so the model is refused up front.
    for args in [
        ["--cores", "11", "--max-states", "10"],
        ["--lines", "11", "--max-states", "10"],
        ["--cores", "40", "--max-states", "10"],
        ["--lines", "65", "--max-states", "10"],
    ] {
        let out = hmtx_model(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("at most 10 cores and 10 lines") && stderr.contains("--no-symmetry"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn large_models_run_without_symmetry_and_small_ones_with_it() {
    for args in [
        &["--cores", "40", "--no-symmetry", "--max-states", "10"][..],
        &["--lines", "40", "--no-symmetry", "--max-states", "10"],
        &["--cores", "3", "--lines", "3"],
    ] {
        let out = hmtx_model(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stdout}");
        assert!(stdout.contains("no violations"), "{args:?}: {stdout}");
    }
}

#[test]
fn a_closed_stdout_ends_the_run_quietly_with_the_verdict() {
    let args = ["--vid-bits", "3", "--max-states", "50000"];
    let verdict = hmtx_model(&args).status.code();
    let spawn = || {
        Command::new(env!("CARGO_BIN_EXE_hmtx-model"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawning hmtx-model")
    };
    // As `| head -1` does: read one line, then drop the pipe.
    let mut child = spawn();
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("reading the first line");
    assert!(!line.is_empty(), "no first line");
    // And closed before the first write, so the write surely fails.
    let mut closed = spawn();
    drop(closed.stdout.take());
    for child in [child, closed] {
        let out = child.wait_with_output().expect("waiting for hmtx-model");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), verdict, "stderr: {stderr}");
        assert!(stderr.is_empty(), "stderr: {stderr}");
    }
}
