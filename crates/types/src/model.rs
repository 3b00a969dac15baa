//! Configuration and report types for the explicit-state protocol model
//! checker (`hmtx-model`, crate `hmtx-modelcheck`).
//!
//! These live in `hmtx-types` so the checker, the CLI layer, and the test
//! harnesses share one vocabulary without depending on the checker crate.

use std::fmt;

use crate::SeedBug;

/// Bounds of the finite protocol model the checker exhausts.
///
/// The model is `cores` L1 caches × `lines` distinct cache lines ×
/// transactions numbered `1..=max_vid(vid_bits)`, with data abstracted to
/// one deterministically stamped word per line. Every field participates in
/// the reachable-state count reported per configuration (EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelCheckConfig {
    /// Number of cores (private L1s) in the model.
    pub cores: usize,
    /// Number of distinct cache lines the transactions touch.
    pub lines: usize,
    /// VID register width; transactions are `1..=2^vid_bits - 1`.
    pub vid_bits: u32,
    /// Optional planted defect, threaded into the simulated memory system
    /// so the checker can prove it finds real bugs.
    pub seed_bug: Option<SeedBug>,
    /// Apply core/line symmetry reduction to the visited set (sound for
    /// the symmetric properties the checker evaluates; on by default).
    pub symmetry: bool,
    /// Hard cap on explored states (0 = unbounded). A stopped search
    /// reports `exhausted = false`.
    pub max_states: usize,
}

impl Default for ModelCheckConfig {
    fn default() -> Self {
        ModelCheckConfig {
            cores: 2,
            lines: 2,
            vid_bits: 2,
            seed_bug: None,
            symmetry: true,
            max_states: 0,
        }
    }
}

impl ModelCheckConfig {
    /// The largest VID (and transaction count) of the model: `2^vid_bits - 1`.
    #[must_use]
    pub fn max_vid(&self) -> u16 {
        ((1u32 << self.vid_bits.min(15)) - 1) as u16
    }

    /// The canonical kernel name for this configuration, e.g. `model-c2-l2-v2`.
    ///
    /// The name is self-describing so a lowered `ScheduleSeed` carries
    /// everything a replay needs to reconstruct the op kernel.
    #[must_use]
    pub fn kernel_name(&self) -> String {
        format!("model-c{}-l{}-v{}", self.cores, self.lines, self.vid_bits)
    }

    /// Parses a kernel name produced by [`Self::kernel_name`].
    #[must_use]
    pub fn parse_kernel_name(name: &str) -> Option<ModelCheckConfig> {
        let rest = name.strip_prefix("model-c")?;
        let (cores, rest) = rest.split_once("-l")?;
        let (lines, vid_bits) = rest.split_once("-v")?;
        Some(ModelCheckConfig {
            cores: cores.parse().ok()?,
            lines: lines.parse().ok()?,
            vid_bits: vid_bits.parse().ok()?,
            ..ModelCheckConfig::default()
        })
    }
}

/// One property violation found during the search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelViolation {
    /// The violated rule id — one of `MemorySystem::check_invariants`'s six
    /// rules, or a checker-level rule (`committed modVID never stays
    /// speculative`, `no duplicate Exclusive after abort`,
    /// `forwarded values serialize`).
    pub rule: String,
    /// Human-readable details (line states, expected vs observed values).
    pub detail: String,
    /// Search depth (number of actions from the initial state).
    pub depth: usize,
    /// The action trace from the initial state, one rendered action per
    /// element; lowering turns this into a replayable `ScheduleSeed`.
    pub trace: Vec<String>,
    /// Transaction-major op order (indices into the model kernel) executed
    /// along the trace — the `order` field of the lowered seed.
    pub order: Vec<usize>,
}

/// The result of one exhaustive search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelCheckReport {
    /// The name of the kernel searched: the config-derived model kernel
    /// ([`ModelCheckConfig::kernel_name`]) or an explicitly chosen one.
    pub kernel: String,
    /// The configuration searched.
    pub config: ModelCheckConfig,
    /// Distinct canonical states reached.
    pub reachable: usize,
    /// Total transitions (edges) executed.
    pub transitions: usize,
    /// Peak BFS frontier size.
    pub frontier_peak: usize,
    /// `true` if the search ran to fixpoint (no `max_states` cutoff).
    pub exhausted: bool,
    /// Every violation found (empty = the configuration is verified).
    pub violations: Vec<ModelViolation>,
}

impl ModelCheckReport {
    /// Whether the searched state space satisfied every property.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for ModelCheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "model {}: {} reachable states, {} transitions, frontier peak {}, {}",
            self.kernel,
            self.reachable,
            self.transitions,
            self.frontier_peak,
            if self.exhausted {
                "exhausted"
            } else {
                "CUT OFF"
            },
        )?;
        if self.violations.is_empty() {
            write!(f, "no violations")
        } else {
            for v in &self.violations {
                writeln!(
                    f,
                    "VIOLATION [{}] at depth {}: {}",
                    v.rule, v.depth, v.detail
                )?;
                for step in &v.trace {
                    writeln!(f, "    {step}")?;
                }
            }
            write!(f, "{} violation(s)", self.violations.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_name_round_trips() {
        let cfg = ModelCheckConfig {
            cores: 3,
            lines: 2,
            vid_bits: 4,
            ..ModelCheckConfig::default()
        };
        let parsed = ModelCheckConfig::parse_kernel_name(&cfg.kernel_name()).unwrap();
        assert_eq!(parsed.cores, 3);
        assert_eq!(parsed.lines, 2);
        assert_eq!(parsed.vid_bits, 4);
    }

    #[test]
    fn kernel_name_rejects_foreign_names() {
        assert_eq!(ModelCheckConfig::parse_kernel_name("migrated_line"), None);
        assert_eq!(ModelCheckConfig::parse_kernel_name("model-cX-l2-v2"), None);
    }

    #[test]
    fn clean_report_displays_reachable_count() {
        let r = ModelCheckReport {
            kernel: ModelCheckConfig::default().kernel_name(),
            config: ModelCheckConfig::default(),
            reachable: 42,
            transitions: 99,
            frontier_peak: 7,
            exhausted: true,
            violations: Vec::new(),
        };
        assert!(r.is_clean());
        let text = r.to_string();
        assert!(text.contains("42 reachable states"), "{text}");
        assert!(text.contains("no violations"), "{text}");
    }
}
