//! Command-line contract of `hmtx-run` (local and `--remote`) and
//! `hmtx-verify`: every usage error exits 2 before any work starts.

use std::process::Command;

const RUN: &str = env!("CARGO_BIN_EXE_hmtx-run");
const VERIFY: &str = env!("CARGO_BIN_EXE_hmtx-verify");

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
fn hmtx_run_usage_errors_exit_2() {
    flag_contract(RUN, &[], "--cores");
    // A misspelt flag is not an assembly file to read.
    usage_error(RUN, &["--trce", "5", "x.asm"], "unknown flag `--trce`");
    usage_error(RUN, &[], "no assembly programs given");
}

#[test]
fn hmtx_run_remote_usage_errors_exit_2_without_connecting() {
    // Nothing listens on the discard port; parsing fails before connecting.
    flag_contract(
        RUN,
        &["--remote", "127.0.0.1:9", "--workload", "li"],
        "--deadline-ms",
    );
    usage_error(
        RUN,
        &["--remote", "127.0.0.1:9", "--workload", "i"],
        "ambiguous workload `i`",
    );
    usage_error(RUN, &["--remote", "127.0.0.1:9"], "--workload");
}

#[test]
fn hmtx_verify_usage_errors_exit_2() {
    // `--scale` takes a name, not a number; the contract is the same.
    flag_contract(VERIFY, &["--all-workloads"], "--scale");
    usage_error(VERIFY, &["-h"], "unknown flag `-h`");
    let asm = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../asm_examples/figure3_stage1.asm"
    );
    usage_error(VERIFY, &["--all-workloads", asm], "mutually exclusive");
    usage_error(VERIFY, &["no-such.asm"], "cannot read `no-such.asm`");
}

/// Runs `hmtx-run --budget 1000` on one assembly program, killing it after
/// 10 s; returns its exit code and stderr.
fn run_asm_bounded(name: &str, asm: &str) -> (Option<i32>, String) {
    let path = std::env::temp_dir().join(format!("hmtx-cli-{}-{name}.asm", std::process::id()));
    std::fs::write(&path, asm).expect("writing the program");
    let mut child = Command::new(RUN)
        .args(["--budget", "1000"])
        .arg(&path)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawning hmtx-run");
    let started = std::time::Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("polling hmtx-run") {
            break status;
        }
        if started.elapsed() > std::time::Duration::from_secs(10) {
            child.kill().ok();
            panic!("{name}: hmtx-run did not finish within 10 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).ok();
    std::fs::remove_file(&path).ok();
    (status.code(), stderr)
}

#[test]
fn hmtx_run_ends_runaway_clocks_and_queue_deadlocks_with_named_errors() {
    // A `compute` of u64::MAX cycles used to wrap the clock; two of them
    // hung the run.
    let (code, stderr) = run_asm_bounded(
        "compute",
        "li r1, -1\ncompute r1\ncompute r1\nli r2, 7\nout r2\nhalt\n",
    );
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("reached the simulated-clock ceiling"),
        "{stderr}"
    );
    // A consume nothing will ever feed used to spin past any budget.
    let (code, stderr) = run_asm_bounded("consume", "consume r1, q0\nhalt\n");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("queue deadlock: core 0 pc 0: consume on empty q0"),
        "{stderr}"
    );
}
