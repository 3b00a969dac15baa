//! Command-line contract of `hmtx-explore`: a usage error exits 2, never
//! the 1 that means "failure found".

use std::process::Command;

const EXPLORE: &str = env!("CARGO_BIN_EXE_hmtx-explore");

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
    flag_contract(EXPLORE, &["--kernel", "handoff"], "--preemptions");
    usage_error(EXPLORE, &[], "nothing to explore");
    usage_error(EXPLORE, &["--kernel", "nope"], "unknown kernel `nope`");
    usage_error(
        EXPLORE,
        &["--kernel", "migrated_line"],
        "hmtx-model --kernel migrated_line",
    );
    usage_error(
        EXPLORE,
        &["--all-kernels", "--paradigm", "warp"],
        "--paradigm",
    );
    // Exploration is serial and breadth-first: no worker count, no shrinker.
    for gone in ["--jobs", "--shrink", "--max-shrunk-len"] {
        usage_error(EXPLORE, &["--all-kernels", gone, "1"], gone);
    }
}

#[test]
fn ambiguous_workloads_are_a_usage_error_listing_the_candidates() {
    let stderr = usage_error(EXPLORE, &["--workload", "i"], "ambiguous workload `i`");
    for name in ["052.alvinn", "130.li", "164.gzip", "ispell"] {
        assert!(stderr.contains(name), "{name} not listed: {stderr}");
    }
    usage_error(EXPLORE, &["--workload", "nope"], "unknown workload `nope`");
}
