//! The scheduler seam: pluggable policies for the machine's event-pick
//! point.
//!
//! [`Machine::run`](crate::Machine::run) advances the core with the smallest
//! local clock — a fully deterministic interleaving, but only *one* of the
//! many interleavings real hardware could produce. This module extracts that
//! pick into the [`SchedulePolicy`] trait so other schedulers plug in
//! without touching the interpreter:
//!
//! * [`MinClock`] — the default deterministic policy (byte-identical to the
//!   historical behaviour);
//! * [`JitterPolicy`] — a seeded policy that deterministically perturbs the
//!   pick, in the spirit of the chaos suite's fault plans;
//! * [`ReplayPolicy`] — replays a recorded list of divergences from the
//!   min-clock baseline, the substrate of `hmtx-explore`'s systematic
//!   schedule enumeration and of `hmtx-run --replay`.
//!
//! A policy picks among the *enabled* cores, each described by a
//! [`CoreEvent`] summarising what its next instruction would do (the memory
//! line it touches, whether a queue operation would block, MTX control).
//! The summaries are what lets an explorer branch only where interleaving
//! can matter: two next-events on different lines commute.
//!
//! When a controlled policy runs a core ahead of peers with earlier local
//! clocks, the machine *warps* the chosen core's clock up to the latest
//! previously scheduled event before stepping it, so the timestamps the
//! memory system observes stay non-decreasing (the protocol's trace and
//! statistics bookkeeping assume monotone time). Under [`MinClock`] the warp
//! is provably a no-op: the minimum clock never regresses.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;

use hmtx_core::MemorySystem;
use hmtx_types::{Cycle, Json, SimError, Vid};

/// What the next instruction of an enabled core would do, at the resolution
/// the explorer's partial-order reduction needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventSummary {
    /// A load or store to the given cache line.
    Mem {
        /// Line index ([`hmtx_types::Addr::line`]).
        line: u64,
        /// `true` for a store.
        write: bool,
    },
    /// An MTX control instruction (`beginMTX`/`commitMTX`/`abortMTX`/
    /// `vidReset`), which orders against everything.
    Mtx,
    /// A hardware queue operation.
    Queue {
        /// Queue index.
        q: usize,
        /// `true` for `produce`, `false` for `consume`.
        produce: bool,
        /// Whether the operation would stall right now (full/empty).
        would_block: bool,
    },
    /// Anything else (ALU, branches, output, ...): commutes with every
    /// other core's next event.
    Other,
}

impl EventSummary {
    /// Whether two co-enabled next-events can be order-sensitive. Memory
    /// operations conflict when they touch the same line and at least one
    /// writes; MTX control conflicts with everything; queue operations
    /// conflict on the same queue.
    pub fn conflicts_with(&self, other: &EventSummary) -> bool {
        match (self, other) {
            (
                EventSummary::Mem { line: a, write: wa },
                EventSummary::Mem { line: b, write: wb },
            ) => a == b && (*wa || *wb),
            (EventSummary::Mtx, _) | (_, EventSummary::Mtx) => true,
            (EventSummary::Queue { q: a, .. }, EventSummary::Queue { q: b, .. }) => a == b,
            _ => false,
        }
    }
}

/// One enabled core at a scheduling point, sorted by `(ready_at, core)` so
/// index 0 is always the min-clock (default) choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreEvent {
    /// Core index.
    pub core: usize,
    /// The core's local clock.
    pub ready_at: Cycle,
    /// Summary of its next instruction.
    pub event: EventSummary,
}

/// A pluggable scheduling policy: picks which enabled core steps next.
pub trait SchedulePolicy: fmt::Debug {
    /// Picks an index into `enabled` (non-empty, sorted by
    /// `(ready_at, core)`). Out-of-range picks are clamped by the machine.
    /// `step` is the 0-based ordinal of this scheduling decision within the
    /// current [`run_with_policy`](crate::Machine::run_with_policy) call.
    fn pick(&mut self, step: u64, enabled: &[CoreEvent]) -> usize;

    /// Whether this policy reads the per-core [`EventSummary`] in the
    /// `enabled` list. Computing a summary means decoding the next
    /// instruction of every enabled core at every scheduling decision — the
    /// dominant per-decision cost — so policies that only look at
    /// `(ready_at, core)` (or at nothing, like [`MinClock`]) return `false`
    /// and receive [`EventSummary::Other`] placeholders instead. The pick
    /// sequence itself is unaffected either way.
    fn needs_summaries(&self) -> bool {
        true
    }

    /// Whether this policy always picks index 0 — i.e. it is
    /// observationally equivalent to [`MinClock`] as far as core choice
    /// goes. The machine uses this to skip building and sorting the
    /// `enabled` list entirely and compute the min-clock core with a
    /// plain scan; `observe_commit` is still invoked either way, so
    /// commit observers may return `true` as long as their `pick` is
    /// always 0. The schedule produced is identical on both paths.
    fn is_min_clock(&self) -> bool {
        false
    }

    /// Whether [`observe_commit`](Self::observe_commit) does anything. The
    /// min-clock fast path reads the committed VID before and after every
    /// step to detect commits; policies whose `observe_commit` is the
    /// default no-op return `false` so that bookkeeping can be skipped.
    /// Must be `true` for any policy that overrides `observe_commit`.
    fn observes_commits(&self) -> bool {
        true
    }

    /// Called after each successful `commitMTX`, with the newly committed
    /// VID, the quiescent memory system, and the committed output stream.
    /// An error aborts the run. The default does nothing — observers such
    /// as `hmtx-explore` hook per-commit invariant checks and oracle
    /// comparisons here.
    fn observe_commit(
        &mut self,
        vid: Vid,
        mem: &MemorySystem,
        committed_output: &[u64],
    ) -> Result<(), SimError> {
        let _ = (vid, mem, committed_output);
        Ok(())
    }
}

/// The default deterministic policy: always the smallest local clock
/// (ties broken by core index). Byte-identical to the historical scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinClock;

impl SchedulePolicy for MinClock {
    fn pick(&mut self, _step: u64, _enabled: &[CoreEvent]) -> usize {
        0
    }

    fn needs_summaries(&self) -> bool {
        false
    }

    fn is_min_clock(&self) -> bool {
        true
    }

    fn observes_commits(&self) -> bool {
        false
    }
}

thread_local! {
    static GENERAL_PATH: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with every [`Machine::run`](crate::Machine::run) on this
/// thread scheduled through the general `run_with_policy` loop, by a
/// [`JitterPolicy`] at rate 0 (always index 0, but not declared min-clock),
/// instead of the min-clock fast path. The two produce the same schedule; this is the seam differential
/// tests use to prove it on whole runtime runs (recovery ladders, HyTM
/// demotion, faults), whose machines are built and run out of reach.
pub fn with_general_path<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            GENERAL_PATH.set(self.0);
        }
    }
    let _restore = Restore(GENERAL_PATH.replace(true));
    f()
}

/// Whether [`with_general_path`] is active on this thread.
pub(crate) fn general_path_forced() -> bool {
    GENERAL_PATH.get()
}

/// A seeded policy that deterministically perturbs the min-clock pick:
/// with probability `rate_ppm` per decision it schedules a uniformly chosen
/// enabled core instead of the earliest one. The same `(seed, rate)` pair
/// replays the same schedule on every host, like the chaos fault plans.
#[derive(Debug, Clone)]
pub struct JitterPolicy {
    state: u64,
    rate_ppm: u32,
}

impl JitterPolicy {
    /// Creates a jitter policy from a seed and a perturbation rate.
    pub fn new(seed: u64, rate_ppm: u32) -> Self {
        JitterPolicy {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
            rate_ppm,
        }
    }

    fn next(&mut self) -> u64 {
        // SplitMix64, same generator family as the fault plans.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl SchedulePolicy for JitterPolicy {
    fn pick(&mut self, _step: u64, enabled: &[CoreEvent]) -> usize {
        let roll = self.next() % 1_000_000;
        if roll < u64::from(self.rate_ppm) {
            (self.next() % enabled.len() as u64) as usize
        } else {
            0
        }
    }

    fn needs_summaries(&self) -> bool {
        false
    }
}

/// Replays a recorded schedule: at each decision ordinal present in the
/// divergence map, schedule the named core (if still enabled); everywhere
/// else, fall back to min-clock. Missing/disabled cores degrade to the
/// default pick rather than failing, so shrunk prefixes stay replayable.
#[derive(Debug, Clone, Default)]
pub struct ReplayPolicy {
    divergences: BTreeMap<u64, usize>,
}

impl ReplayPolicy {
    /// Builds a replay policy from `(decision ordinal, core)` pairs.
    pub fn new(picks: &[(u64, usize)]) -> Self {
        ReplayPolicy {
            divergences: picks.iter().copied().collect(),
        }
    }

    /// Builds a replay policy from a stored seed's pick list.
    pub fn from_seed(seed: &ScheduleSeed) -> Self {
        Self::new(&seed.picks)
    }
}

impl SchedulePolicy for ReplayPolicy {
    fn pick(&mut self, step: u64, enabled: &[CoreEvent]) -> usize {
        match self.divergences.get(&step) {
            Some(&core) => enabled.iter().position(|e| e.core == core).unwrap_or(0),
            None => 0,
        }
    }

    fn needs_summaries(&self) -> bool {
        false
    }
}

/// A replayable schedule, as written to `tests/corpus/` and consumed by
/// `hmtx-run --replay`.
///
/// Two kinds exist: `"machine"` seeds replay machine-level scheduling
/// divergences (`picks`, pinned by the explorer's shrinker), `"ops"` seeds
/// replay an op-level interleaving (`order`, a sequence of
/// transaction-major global op ids, lowered from a model-checker
/// counterexample).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScheduleSeed {
    /// `"machine"` or `"ops"`.
    pub kind: String,
    /// Kernel/workload name the seed applies to.
    pub name: String,
    /// Planted protocol defect required to reproduce (config knob name).
    pub seed_bug: Option<String>,
    /// Machine kind: `(decision ordinal, core)` divergences from min-clock.
    pub picks: Vec<(u64, usize)>,
    /// Ops kind: the issued global op ids, in execution order.
    pub order: Vec<usize>,
    /// Free-form provenance note (what failed, when it was pinned).
    pub note: String,
}

impl ScheduleSeed {
    /// Serializes the seed (fixed key order, replayable byte-for-byte).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::Str(self.kind.clone())),
            ("name", Json::Str(self.name.clone())),
            (
                "seed_bug",
                match &self.seed_bug {
                    Some(s) => Json::Str(s.clone()),
                    None => Json::Null,
                },
            ),
            (
                "picks",
                Json::Arr(
                    self.picks
                        .iter()
                        .map(|(s, c)| Json::Arr(vec![Json::Uint(*s), Json::Uint(*c as u64)]))
                        .collect(),
                ),
            ),
            (
                "order",
                Json::Arr(self.order.iter().map(|t| Json::Uint(*t as u64)).collect()),
            ),
            ("note", Json::Str(self.note.clone())),
        ])
    }

    /// Parses a seed serialized by [`ScheduleSeed::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadProgram`] on missing or malformed fields.
    pub fn from_json(v: &Json) -> Result<Self, SimError> {
        let bad = |msg: &str| SimError::BadProgram(format!("schedule seed: {msg}"));
        let text = |name: &str| {
            v.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(&format!("needs string `{name}`")))
        };
        let kind = text("kind")?;
        if kind != "machine" && kind != "ops" {
            return Err(bad(&format!("unknown kind `{kind}`")));
        }
        let seed_bug = match v.get("seed_bug") {
            None | Some(Json::Null) => None,
            Some(s) => Some(
                s.as_str()
                    .ok_or_else(|| bad("seed_bug must be a string or null"))?
                    .to_string(),
            ),
        };
        let mut picks = Vec::new();
        for p in v
            .get("picks")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("needs array `picks`"))?
        {
            let pair = p.as_arr().ok_or_else(|| bad("picks entries are pairs"))?;
            match pair {
                [s, c] => picks.push((
                    s.as_u64().ok_or_else(|| bad("pick step must be uint"))?,
                    c.as_u64().ok_or_else(|| bad("pick core must be uint"))? as usize,
                )),
                _ => return Err(bad("picks entries are [step, core] pairs")),
            }
        }
        let mut order = Vec::new();
        for t in v
            .get("order")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("needs array `order`"))?
        {
            order.push(t.as_u64().ok_or_else(|| bad("order entries are uints"))? as usize);
        }
        Ok(ScheduleSeed {
            kind,
            name: text("name")?,
            seed_bug,
            picks,
            order,
            note: text("note")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(core: usize, ready_at: Cycle) -> CoreEvent {
        CoreEvent {
            core,
            ready_at,
            event: EventSummary::Other,
        }
    }

    #[test]
    fn min_clock_always_picks_first() {
        let mut p = MinClock;
        assert_eq!(p.pick(0, &[ev(2, 5), ev(0, 9)]), 0);
        assert_eq!(p.pick(99, &[ev(1, 0)]), 0);
    }

    #[test]
    fn replay_diverges_only_at_recorded_steps() {
        let mut p = ReplayPolicy::new(&[(1, 3)]);
        let enabled = [ev(0, 5), ev(3, 9)];
        assert_eq!(p.pick(0, &enabled), 0);
        assert_eq!(p.pick(1, &enabled), 1);
        assert_eq!(p.pick(2, &enabled), 0);
        // A recorded core that is no longer enabled degrades to default.
        let mut p = ReplayPolicy::new(&[(0, 7)]);
        assert_eq!(p.pick(0, &enabled), 0);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let enabled = [ev(0, 0), ev(1, 0), ev(2, 0)];
        let run = |seed| {
            let mut p = JitterPolicy::new(seed, 500_000);
            (0..32).map(|s| p.pick(s, &enabled)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        assert!(run(7).iter().any(|&i| i != 0), "rate 50% must perturb");
    }

    #[test]
    fn conflict_relation() {
        let w = |line| EventSummary::Mem { line, write: true };
        let r = |line| EventSummary::Mem { line, write: false };
        assert!(w(0x40).conflicts_with(&r(0x40)));
        assert!(!r(0x40).conflicts_with(&r(0x40)), "two reads commute");
        assert!(!w(0x40).conflicts_with(&w(0x80)), "different lines commute");
        assert!(EventSummary::Mtx.conflicts_with(&r(0x40)));
        assert!(EventSummary::Mtx.conflicts_with(&EventSummary::Mtx));
        let q0 = EventSummary::Queue {
            q: 0,
            produce: true,
            would_block: false,
        };
        let q1 = EventSummary::Queue {
            q: 1,
            produce: false,
            would_block: false,
        };
        assert!(q0.conflicts_with(&q0));
        assert!(!q0.conflicts_with(&q1));
        assert!(!EventSummary::Other.conflicts_with(&w(0x40)));
        // MTX control orders against everything, queue and ALU events too.
        for other in [q0, q1, EventSummary::Other] {
            assert!(EventSummary::Mtx.conflicts_with(&other), "{other:?}");
            assert!(other.conflicts_with(&EventSummary::Mtx), "{other:?}");
        }
    }

    #[test]
    fn seed_round_trips_through_json() {
        let seed = ScheduleSeed {
            kind: "machine".into(),
            name: "race_detect".into(),
            seed_bug: None,
            picks: vec![(3, 1), (9, 0)],
            order: vec![],
            note: "pinned by hmtx-explore".into(),
        };
        let back = ScheduleSeed::from_json(&seed.to_json()).unwrap();
        assert_eq!(back, seed);
        let ops = ScheduleSeed {
            kind: "ops".into(),
            name: "migrated_line".into(),
            seed_bug: Some("stale-migration-replica".into()),
            picks: vec![],
            order: vec![0, 0, 1, 1],
            note: String::new(),
        };
        let back = ScheduleSeed::from_json(&ops.to_json()).unwrap();
        assert_eq!(back, ops);
    }

    #[test]
    fn malformed_seeds_are_rejected() {
        for bad in [
            r#"{"kind":"nope","name":"x","seed_bug":null,"picks":[],"order":[],"note":""}"#,
            r#"{"kind":"ops","name":"x","seed_bug":null,"picks":[[1]],"order":[],"note":""}"#,
            r#"{"kind":"ops","name":"x","seed_bug":null,"picks":[],"order":["a"],"note":""}"#,
            r#"{"kind":"ops","seed_bug":null,"picks":[],"order":[],"note":""}"#,
            r#"[]"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(ScheduleSeed::from_json(&v).is_err(), "{bad}");
        }
    }
}
