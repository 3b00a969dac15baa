//! Command-line tests for `hmtx-model`: argument validation happens before
//! any model is built.

use std::process::{Command, Output};

fn hmtx_model(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hmtx-model"))
        .args(args)
        .output()
        .expect("spawning hmtx-model")
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
