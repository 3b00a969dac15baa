//! The runner's line-oriented status stream — the harness's first
//! observability hook.
//!
//! Every event is one self-contained `[runner] ...` line on stderr (stdout
//! stays reserved for the byte-stable figure/table output):
//!
//! ```text
//! [runner] start   3/18 130.li:smtx-min:base:quick
//! [runner] done    3/18 130.li:smtx-min:base:quick wall=0.42s cycles=1234567 (2.9 Mcyc/s)
//! [runner] fail  256.bzip2:hmtx:base:standard: InstructionBudgetExceeded { .. }
//! ```
//!
//! Counts are per batch (one [`crate::runner::SimPool::run`] call): `start`
//! numbers a job by its place in the batch's queue, `done` counts finished
//! jobs. Lines are written atomically (one `writeln!` per event behind
//! stderr's lock), so interleaved workers never shear a line — safe to
//! `grep` or tail from scripts.

use std::io::Write;

/// A sink for runner status lines. Disabled by default; enable with
/// [`crate::runner::SimPool::with_progress`] (the `--progress` flag of the
/// `experiments` binary).
pub struct Reporter {
    enabled: bool,
}

impl Reporter {
    /// A reporter that drops every line.
    #[must_use]
    pub fn disabled() -> Self {
        Reporter { enabled: false }
    }

    /// A reporter writing `[runner]` lines to stderr.
    #[must_use]
    pub fn stderr() -> Self {
        Reporter { enabled: true }
    }

    /// Whether lines are being emitted.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Emits one status line (no-op when disabled).
    pub fn line(&self, msg: &str) {
        if self.enabled {
            // Ignore a broken stderr rather than killing a worker thread.
            let _ = writeln!(std::io::stderr().lock(), "[runner] {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_reporter_is_silent_and_cheap() {
        let r = Reporter::disabled();
        assert!(!r.is_enabled());
        r.line("never shown");
    }

    #[test]
    fn stderr_reporter_is_enabled() {
        assert!(Reporter::stderr().is_enabled());
    }
}
