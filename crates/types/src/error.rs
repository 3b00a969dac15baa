//! Error types shared across the workspace.

use std::error::Error;
use std::fmt;

/// An invalid configuration was supplied.
///
/// # Examples
///
/// ```
/// use hmtx_types::{CacheConfig, ConfigError};
/// let bad = CacheConfig { size_bytes: 100, ways: 3, latency: 1 };
/// let err: ConfigError = bad.validate().unwrap_err();
/// assert!(err.to_string().contains("multiple"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// Creates a configuration error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.message)
    }
}

impl Error for ConfigError {}

/// A simulation failed in a way that is a bug in the *guest program*
/// (not a misspeculation, which is a modeled architectural event).
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum SimError {
    /// The machine could not be constructed because its configuration is
    /// invalid (bad cache geometry, zero cores, ...).
    Config(ConfigError),
    /// A guest memory access crossed a cache-line boundary.
    UnalignedAccess { addr: u64 },
    /// A guest program ran past its instruction budget (likely livelock).
    InstructionBudgetExceeded { budget: u64 },
    /// Guest code referenced an undefined queue, register, or label.
    BadProgram(String),
    /// A transaction commit was requested out of consecutive VID order.
    NonConsecutiveCommit { expected: u16, got: u16 },
    /// The runtime recovered `recoveries` times without completing the run
    /// (see `MachineConfig::max_recoveries`): the program is livelocked.
    Livelock { recoveries: u64, last_cause: String },
    /// Static verification rejected the program before it ran (see the
    /// `hmtx-analysis` crate). Carries every diagnostic the verifier
    /// produced, errors first.
    Verification(Vec<crate::Diagnostic>),
    /// A replayed schedule seed (`hmtx-run --replay`) reproduced a
    /// protocol violation. This is the *expected* outcome when replaying
    /// a model-checker counterexample; the message names the violated
    /// rule.
    Replay(String),
    /// A core's simulated clock reached [`crate::CYCLE_CEILING`] (for
    /// example after `compute` of a huge register value). Names the core,
    /// the pc it would execute next and its clock.
    CycleLimit { core: usize, pc: usize, cycle: u64 },
    /// Every live core is retrying a full or empty hardware queue and no
    /// instruction retired since: the guest program can never make
    /// progress. Names each blocked core, in core order.
    Deadlock(Vec<BlockedCore>),
}

/// One core of a [`SimError::Deadlock`]: the queue operation it retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedCore {
    /// The blocked core.
    pub core: usize,
    /// The pc of its `produce`/`consume`.
    pub pc: usize,
    /// The queue it waits on.
    pub queue: usize,
    /// `true` for a `produce` into a full queue, `false` for a `consume`
    /// from an empty one.
    pub produce: bool,
}

impl fmt::Display for BlockedCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (op, state) = if self.produce {
            ("produce", "full")
        } else {
            ("consume", "empty")
        };
        write!(
            f,
            "core {} pc {}: {op} on {state} q{}",
            self.core, self.pc, self.queue
        )
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "{e}"),
            SimError::UnalignedAccess { addr } => {
                write!(
                    f,
                    "guest access at 0x{addr:x} crosses a cache line boundary"
                )
            }
            SimError::InstructionBudgetExceeded { budget } => {
                write!(f, "guest program exceeded instruction budget of {budget}")
            }
            SimError::BadProgram(msg) => write!(f, "malformed guest program: {msg}"),
            SimError::NonConsecutiveCommit { expected, got } => {
                write!(
                    f,
                    "commit of v{got} violates consecutive order (expected v{expected})"
                )
            }
            SimError::Livelock {
                recoveries,
                last_cause,
            } => {
                write!(
                    f,
                    "livelock: {recoveries} recoveries without completing (last cause: {last_cause})"
                )
            }
            SimError::Verification(diags) => {
                let errors = diags
                    .iter()
                    .filter(|d| d.severity == crate::Severity::Error)
                    .count();
                write!(
                    f,
                    "static verification failed: {} diagnostic(s), {errors} error(s)",
                    diags.len()
                )?;
                if let Some(first) = diags.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            SimError::Replay(msg) => write!(f, "replay failed: {msg}"),
            SimError::CycleLimit { core, pc, cycle } => write!(
                f,
                "core {core} at pc {pc}: clock {cycle} reached the simulated-clock \
                 ceiling of {} cycles",
                crate::CYCLE_CEILING
            ),
            SimError::Deadlock(blocked) => {
                write!(f, "queue deadlock: ")?;
                for (i, b) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{b}")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_without_period() {
        let e = ConfigError::new("cache set count must be a power of two");
        let s = e.to_string();
        assert!(s.starts_with("invalid configuration"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn sim_error_messages() {
        assert!(SimError::UnalignedAccess { addr: 0x3f }
            .to_string()
            .contains("0x3f"));
        assert!(SimError::InstructionBudgetExceeded { budget: 10 }
            .to_string()
            .contains("10"));
        assert!(SimError::NonConsecutiveCommit {
            expected: 2,
            got: 4
        }
        .to_string()
        .contains("v4"));
        assert!(SimError::BadProgram("no label".into())
            .to_string()
            .contains("no label"));
        let e = SimError::Livelock {
            recoveries: 1_000,
            last_cause: "StoreBelowHighVid".into(),
        };
        assert!(e.to_string().contains("1000 recoveries"));
        assert!(e.to_string().contains("StoreBelowHighVid"));
    }

    #[test]
    fn clock_and_deadlock_errors_name_their_cores() {
        let e = SimError::CycleLimit {
            core: 1,
            pc: 2,
            cycle: u64::MAX,
        };
        let s = e.to_string();
        assert!(s.contains("core 1 at pc 2"), "{s}");
        assert!(s.contains(&crate::CYCLE_CEILING.to_string()), "{s}");
        let e = SimError::Deadlock(vec![
            BlockedCore {
                core: 0,
                pc: 3,
                queue: 7,
                produce: false,
            },
            BlockedCore {
                core: 2,
                pc: 5,
                queue: 1,
                produce: true,
            },
        ]);
        assert_eq!(
            e.to_string(),
            "queue deadlock: core 0 pc 3: consume on empty q7; \
             core 2 pc 5: produce on full q1"
        );
    }

    #[test]
    fn verification_error_counts_errors_and_shows_first() {
        let e = SimError::Verification(vec![
            crate::Diagnostic {
                severity: crate::Severity::Error,
                rule: "mtx-halt-speculative",
                core: 0,
                pc: 4,
                message: "halt inside MTX".into(),
            },
            crate::Diagnostic {
                severity: crate::Severity::Warning,
                rule: "reg-use-before-def",
                core: 1,
                pc: 2,
                message: "r3 read before def".into(),
            },
        ]);
        let s = e.to_string();
        assert!(s.contains("2 diagnostic(s), 1 error(s)"), "{s}");
        assert!(s.contains("mtx-halt-speculative"), "{s}");
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConfigError>();
        assert_send_sync::<SimError>();
    }
}
