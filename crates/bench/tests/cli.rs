//! Command-line contract of `experiments` and `cyclebench`: every usage
//! error exits 2 before any simulation starts.

use std::process::Command;

const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_experiments");
const CYCLEBENCH: &str = env!("CARGO_BIN_EXE_cyclebench");

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
fn experiments_usage_errors_exit_2() {
    flag_contract(EXPERIMENTS, &["fig2", "--quick"], "--jobs");
    usage_error(EXPERIMENTS, &["--jobs", "0"], "--jobs");
    usage_error(
        EXPERIMENTS,
        &["--faults", "1", "--fault-rate", "1000001"],
        "invalid value `1000001` for --fault-rate",
    );
    usage_error(EXPERIMENTS, &["fig99"], "unknown section `fig99`");
    usage_error(EXPERIMENTS, &["fig2", "fig8"], "more than one section");
    for job in [&["job"][..], &["job", "a.json", "b.json"]] {
        usage_error(EXPERIMENTS, job, "job takes one SPEC.json path");
    }
    usage_error(EXPERIMENTS, &["job", "--quick"], "unknown flag `--quick`");
}

#[test]
fn cyclebench_usage_errors_exit_2() {
    flag_contract(CYCLEBENCH, &[], "--reps");
    usage_error(CYCLEBENCH, &["--threshold", "1.5"], "--threshold");
}
