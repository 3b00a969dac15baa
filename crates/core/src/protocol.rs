//! The HMTX memory system: per-core L1 caches, a shared snoopy bus, a shared
//! L2, and main memory, governed by the MOESI protocol extended with the
//! speculative states and version rules of §4 of the paper.
//!
//! # Structure of an access
//!
//! 1. Pending lazy commit processing is applied to every version of the
//!    requested address in the local L1 set (§5.3).
//! 2. The local L1 is probed with the hit predicate of §4.1 (non-speculative
//!    requests probe with the cache's LC VID).
//! 3. On a miss, the request is broadcast on the bus: peer L1s are snooped
//!    (S-S and S copies stay silent), then the shared L2, then main memory.
//!    An S-M line that holds the same address but does not satisfy the hit
//!    predicate asserts *speculatively-modified-elsewhere*, which makes a
//!    memory fill return in `S-O(0, vid+1)` per §5.4.
//! 4. Speculative writes enforce the dependence rules of §4.3, creating a
//!    new `S-M(y,y)` version and retaining the unmodified copy in
//!    `S-O(m,y)`, or aborting on a VID-order violation.
//!
//! The hierarchy is mostly-exclusive: a version supplied by the L2 migrates
//! into the requesting L1, and L1 evictions are installed into the L2. This
//! keeps every `(address, modVID)` version single-homed per level, which is
//! what guarantees the "requests hit exactly one version" property the paper
//! relies on.

use std::cell::RefCell;
use std::collections::BTreeMap;

use hmtx_mem::cache::LineFate;
use hmtx_mem::{Bus, Cache, CacheLine, LineData, LineMeta, LineState, MainMemory};
use hmtx_types::{
    Addr, CoreId, Cycle, FxHashMap, FxHashSet, Interconnect, LineAddr, MachineConfig, SimError, Vid,
};

use crate::faults::{FaultPlan, FaultSite};
use crate::stats::MemStats;
use crate::trace::{ServedFrom, TraceEvent, Tracer};
use crate::transitions::{self, Outcome};

thread_local! {
    /// The copy counts and dirty owners of
    /// `MemorySystem::restore_coherence_after_abort`, kept per thread so
    /// that an abort reuses their tables.
    static ABORT_SCRATCH: RefCell<(FxHashMap<LineAddr, u32>, FxHashSet<LineAddr>)> =
        RefCell::default();
}

/// Kind of memory access, with the store payload inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// An 8-byte load.
    Read,
    /// An 8-byte store of the given value.
    Write(u64),
}

/// One memory request from a core.
#[derive(Debug, Clone, Copy)]
pub struct AccessRequest {
    /// Issuing core (selects the L1).
    pub core: CoreId,
    /// Byte address; the 8-byte word must not cross a line boundary.
    pub addr: Addr,
    /// Load or store.
    pub kind: AccessKind,
    /// The VID register value of the issuing thread context (zero for
    /// non-speculative execution).
    pub vid: Vid,
    /// `true` for branch-speculative (wrong-path) loads that will be
    /// squashed: they move data around the caches but must not mark lines
    /// with their VID (§5.1). Wrong-path stores never reach the cache.
    pub wrong_path: bool,
}

/// Why a misspeculation was signaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisspecCause {
    /// A store with VID below the line's highVID (§4.3: a logically later
    /// access already observed this line).
    StoreBelowHighVid {
        /// Conflicting address.
        addr: Addr,
        /// VID of the store.
        store_vid: Vid,
        /// highVID of the line it hit.
        high_vid: Vid,
    },
    /// A store hit a superseded (`S-O`/`S-S`) version.
    StoreToSupersededVersion {
        /// Conflicting address.
        addr: Addr,
        /// VID of the store.
        store_vid: Vid,
    },
    /// A non-speculative write touched a line with live speculative marks.
    NonSpecWriteConflict {
        /// Conflicting address.
        addr: Addr,
    },
    /// A speculative line that may not leave the hierarchy was evicted past
    /// the last-level cache (§5.4).
    SpecOverflow {
        /// Evicted address.
        addr: Addr,
    },
    /// An SLA's recorded value no longer matches the line (§5.1).
    SlaValueMismatch {
        /// Conflicting address.
        addr: Addr,
        /// VID of the acknowledged load.
        vid: Vid,
    },
    /// Software signaled misspeculation via `abortMTX` (e.g. control-flow
    /// speculation failed its late check, §3.2).
    ExplicitAbort {
        /// The VID passed to `abortMTX`.
        vid: Vid,
    },
    /// A deterministic fault plan injected a spurious conflict on a
    /// speculative access (chaos testing; no cache state was touched).
    InjectedConflict {
        /// Address of the faulted access.
        addr: Addr,
        /// VID of the faulted access.
        vid: Vid,
    },
}

/// Result of a memory access.
#[derive(Debug, Clone, Copy)]
pub enum AccessResponse {
    /// The access completed.
    Done {
        /// Loaded value (for writes, the value written).
        value: u64,
        /// Cycles until the requesting core may proceed.
        latency: u64,
        /// `true` if a speculative load acknowledgment must be sent when the
        /// load retires (§5.1): the access marked a line that had not yet
        /// logged this VID.
        sla_required: bool,
    },
    /// The access detected misspeculation; the machine must abort.
    Misspec {
        /// Why.
        cause: MisspecCause,
        /// Cycles consumed detecting the conflict.
        latency: u64,
    },
}

/// The full HMTX memory system: the paper's MOESI+HMTX protocol, whose
/// per-line transition rules live in [`crate::transitions`]. Cloning
/// snapshots the entire simulation state — the explicit-state model
/// checker forks states this way, and `clone_from` reuses the target's
/// buffers.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MachineConfig,
    l1s: Vec<Cache>,
    l2: Cache,
    memory: MainMemory,
    bus: Bus,
    banks: Vec<Bus>,
    /// §8 overflow table. A `BTreeMap` so commit/abort walks process
    /// entries in sorted `(address, modVID)` order — writeback and latency
    /// accounting must not depend on hash iteration order.
    overflow: BTreeMap<(LineAddr, Vid), CacheLine>,
    stats: MemStats,
    faults: Option<FaultPlan>,
    tracer: Tracer,
    last_served: ServedFrom,
    last_committed: Vid,
    abort_seen_since_reset: bool,
}

impl Clone for MemorySystem {
    fn clone(&self) -> Self {
        MemorySystem {
            cfg: self.cfg.clone(),
            l1s: self.l1s.clone(),
            l2: self.l2.clone(),
            memory: self.memory.clone(),
            bus: self.bus.clone(),
            banks: self.banks.clone(),
            overflow: self.overflow.clone(),
            stats: self.stats.clone(),
            faults: self.faults.clone(),
            tracer: self.tracer.clone(),
            last_served: self.last_served,
            last_committed: self.last_committed,
            abort_seen_since_reset: self.abort_seen_since_reset,
        }
    }

    /// Copies `source` into the existing caches, memory, statistics and
    /// bank list (no allocation when the geometries match). Every field is
    /// named, so a new one fails to compile here instead of being skipped.
    fn clone_from(&mut self, source: &Self) {
        let MemorySystem {
            cfg,
            l1s,
            l2,
            memory,
            bus,
            banks,
            overflow,
            stats,
            faults,
            tracer,
            last_served,
            last_committed,
            abort_seen_since_reset,
        } = self;
        cfg.clone_from(&source.cfg);
        l1s.clone_from(&source.l1s);
        l2.clone_from(&source.l2);
        memory.clone_from(&source.memory);
        bus.clone_from(&source.bus);
        banks.clone_from(&source.banks);
        overflow.clone_from(&source.overflow);
        stats.clone_from(&source.stats);
        faults.clone_from(&source.faults);
        tracer.clone_from(&source.tracer);
        *last_served = source.last_served;
        *last_committed = source.last_committed;
        *abort_seen_since_reset = source.abort_seen_since_reset;
    }
}

impl MemorySystem {
    /// Builds the memory system for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use [`Self::try_new`] to get
    /// a diagnostic instead.
    pub fn new(cfg: MachineConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the memory system for `cfg`, reporting an invalid
    /// configuration as an error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the machine configuration or any
    /// cache geometry is invalid.
    pub fn try_new(cfg: MachineConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        let mut l1s = Vec::with_capacity(cfg.num_cores);
        for _ in 0..cfg.num_cores {
            l1s.push(Cache::new(cfg.l1)?);
        }
        let l2 = Cache::new(cfg.l2)?;
        let banks = match cfg.interconnect {
            Interconnect::SnoopyBus => Vec::new(),
            Interconnect::Directory { banks, .. } => {
                if !banks.is_power_of_two() {
                    return Err(SimError::Config(hmtx_types::ConfigError::new(
                        "directory banks must be a power of two",
                    )));
                }
                (0..banks).map(|_| Bus::new(cfg.bus_occupancy)).collect()
            }
        };
        Ok(MemorySystem {
            bus: Bus::new(cfg.bus_occupancy),
            banks,
            overflow: BTreeMap::new(),
            faults: cfg.faults.map(FaultPlan::new),
            tracer: Tracer::default(),
            last_served: ServedFrom::L1,
            l1s,
            l2,
            memory: MainMemory::new(),
            stats: MemStats::new(),
            last_committed: Vid::NON_SPECULATIVE,
            abort_seen_since_reset: false,
            cfg,
        })
    }

    /// The machine configuration this system was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Main memory (for building the initial image and final verification).
    pub fn memory(&self) -> &MainMemory {
        &self.memory
    }

    /// Mutable main memory (initial image construction only).
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.memory
    }

    /// The highest VID committed since the last reset.
    pub fn last_committed(&self) -> Vid {
        self.last_committed
    }

    /// Whether any abort has occurred since the last VID reset. The model
    /// checker's exclusivity-after-abort rule is gated on this.
    pub fn abort_seen(&self) -> bool {
        self.abort_seen_since_reset
    }

    /// The shared bus (snoopy-mode data requests and control broadcasts),
    /// for bandwidth statistics.
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// Iterates the hierarchy's caches for diagnostic scans (invariant
    /// checking, the model checker's canonical state encoding): the L1s in
    /// core order, then the shared L2. [`Self::cache_name`] names a cache by
    /// its position here.
    pub fn caches(&self) -> impl Iterator<Item = &Cache> + '_ {
        self.l1s.iter().chain(std::iter::once(&self.l2))
    }

    /// The report name of the cache at position `idx` of [`Self::caches`]:
    /// `L1[i]` for a core's L1, `L2` for the shared L2.
    pub fn cache_name(&self, idx: usize) -> String {
        if idx < self.l1s.len() {
            format!("L1[{idx}]")
        } else {
            "L2".to_string()
        }
    }

    /// Test-only mutable access to a core's private L1, so invariant tests
    /// can plant line states the protocol itself refuses to produce.
    #[cfg(test)]
    pub(crate) fn l1_mut(&mut self, core: usize) -> &mut Cache {
        &mut self.l1s[core]
    }

    /// Test-only mutable access to the shared L2 (see [`Self::l1_mut`]).
    #[cfg(test)]
    pub(crate) fn l2_mut(&mut self) -> &mut Cache {
        &mut self.l2
    }

    /// Iterates the §8 overflow table's spilled versions in sorted
    /// `(address, modVID)` order (diagnostic view; the model checker folds
    /// these into its canonical state encoding).
    pub fn overflow_lines(&self) -> impl Iterator<Item = &CacheLine> + '_ {
        self.overflow.values()
    }

    /// Performs one memory access at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnalignedAccess`] if the 8-byte word crosses a
    /// cache-line boundary — a guest program bug, not a modeled event.
    pub fn access(&mut self, now: Cycle, req: &AccessRequest) -> Result<AccessResponse, SimError> {
        // Deterministic fault injection: a spurious conflict answers the
        // access with a misspeculation *before* any cache state is touched,
        // so recovery needs nothing beyond the ordinary abort path. Only
        // speculative correct-path accesses are eligible — non-speculative
        // execution (including the runtime's sequential fallback rung and
        // its control-block resync stores) is immune by construction, which
        // is what guarantees every fault schedule terminates.
        if req.vid.is_speculative() && !req.wrong_path {
            if let Some(plan) = self.faults.as_mut() {
                if plan.fire(FaultSite::SpuriousConflict) {
                    crate::stats::inc(&mut self.stats.injected_conflicts);
                    let cause = MisspecCause::InjectedConflict {
                        addr: req.addr,
                        vid: req.vid,
                    };
                    let latency = self.cfg.l1.latency;
                    if self.tracer.enabled() {
                        self.tracer.record(TraceEvent::FaultInjected {
                            cycle: now,
                            site: FaultSite::SpuriousConflict.name(),
                        });
                        self.tracer.record(TraceEvent::Misspec {
                            cycle: now,
                            cause: format!("{cause:?}"),
                        });
                    }
                    return Ok(AccessResponse::Misspec { cause, latency });
                }
            }
        }
        if !self.cfg.hytm.enabled && !self.tracer.enabled() {
            // Nothing to check or record: return `access_impl`'s result
            // directly. (Unwrapping and rebuilding it costs a copy of the
            // response through the stack on every access.)
            return self.access_impl(now, req);
        }
        let mut response = self.access_impl(now, req)?;
        // HyTM capacity bounds (§11): with `hytm.enabled`, a speculative
        // correct-path access whose transaction's distinct-line read or
        // write set now exceeds the configured cap answers `SpecOverflow`,
        // exactly as if the line had been evicted past the LLC — the
        // runtime's ordinary abort path cleans up any cache state this
        // access installed, so partial effects are safe. `0` = unbounded.
        if self.cfg.hytm.enabled
            && req.vid.is_speculative()
            && !req.wrong_path
            && matches!(response, AccessResponse::Done { .. })
        {
            let is_write = matches!(req.kind, AccessKind::Write(_));
            let (live, bound) = if is_write {
                (
                    self.stats.live_write_lines(req.vid),
                    self.cfg.hytm.max_write_lines,
                )
            } else {
                (
                    self.stats.live_read_lines(req.vid),
                    self.cfg.hytm.max_read_lines,
                )
            };
            if bound != 0 && live > bound as usize {
                let latency = match response {
                    AccessResponse::Done { latency, .. } => latency,
                    AccessResponse::Misspec { latency, .. } => latency,
                };
                response = AccessResponse::Misspec {
                    cause: MisspecCause::SpecOverflow {
                        addr: req.addr.line().base(),
                    },
                    latency,
                };
            }
        }
        if self.tracer.enabled() {
            match &response {
                AccessResponse::Done { latency, .. } => {
                    self.tracer.record(TraceEvent::Access {
                        cycle: now,
                        core: req.core,
                        addr: req.addr,
                        vid: req.vid,
                        write: matches!(req.kind, AccessKind::Write(_)),
                        served: self.last_served,
                        latency: *latency,
                    });
                }
                AccessResponse::Misspec { cause, .. } => {
                    self.tracer.record(TraceEvent::Misspec {
                        cycle: now,
                        cause: format!("{cause:?}"),
                    });
                }
            }
        }
        Ok(response)
    }

    /// Enables protocol tracing with the given buffer capacity (0 disables).
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.tracer.set_capacity(capacity);
    }

    /// Takes the buffered trace events (the tracer stays enabled).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.tracer.take()
    }

    /// Records a machine-level injected fault (queue delay, wrong-path
    /// storm) in the protocol trace, so one trace shows the full schedule.
    pub fn note_fault(&mut self, now: Cycle, site: &'static str) {
        self.tracer
            .record(TraceEvent::FaultInjected { cycle: now, site });
    }

    fn access_impl(&mut self, now: Cycle, req: &AccessRequest) -> Result<AccessResponse, SimError> {
        self.last_served = ServedFrom::L1;
        if !req.addr.word_in_line() {
            return Err(SimError::UnalignedAccess { addr: req.addr.0 });
        }
        debug_assert!(
            req.vid <= self.cfg.hmtx.max_vid(),
            "VID exceeds configured width"
        );
        let is_write = matches!(req.kind, AccessKind::Write(_));
        debug_assert!(
            !(is_write && req.wrong_path),
            "squashed stores never reach the cache"
        );

        if req.wrong_path {
            crate::stats::inc(&mut self.stats.wrong_path_loads);
        } else if is_write {
            crate::stats::inc(&mut self.stats.stores);
            if req.vid.is_speculative() {
                crate::stats::inc(&mut self.stats.spec_stores);
            }
        } else {
            crate::stats::inc(&mut self.stats.loads);
            if req.vid.is_speculative() {
                crate::stats::inc(&mut self.stats.spec_loads);
            }
        }

        // Ablation B: with SLAs disabled, branch-speculative loads mark
        // lines with their VID immediately (the behaviour §5.1 exists to
        // avoid), so wrong-path loads go down the regular marking path.
        let normalized;
        let req = if req.wrong_path && !self.cfg.hmtx.sla_enabled {
            normalized = AccessRequest {
                wrong_path: false,
                ..*req
            };
            &normalized
        } else {
            req
        };

        let line = req.addr.line();
        let c = req.core.0;
        let lookup = if req.vid.is_speculative() {
            req.vid
        } else {
            self.l1s[c].lc_vid()
        };

        // Fast path: one fused walk over the set does the lazy-commit
        // staleness check, the §4.5 comparator accounting, and the hit
        // search together. The separate-walk slow path runs only when the
        // set still has unprocessed commit work, which happens at most once
        // per set per commit.
        let cache = &self.l1s[c];
        let set = cache.set_index(line);
        let epoch = cache.commit_epoch();
        let low_bits = self.cfg.hmtx.vid_bits / 2;
        let mut stale = false;
        let mut hit: Option<usize> = None;
        let mut short = 0u64;
        let mut cascaded = 0u64;
        for (i, l) in cache.set_metas(set).iter().enumerate() {
            if l.commit_epoch < epoch {
                stale = true;
                break;
            }
            if l.addr == line {
                // Inline of `MemStats::record_vid_compare`, buffered locally
                // so a stale set can discard partial counts and recount
                // after commit processing rewrites the set.
                if (lookup.0 >> low_bits) == (l.mod_vid.0 >> low_bits) {
                    short += 1;
                } else {
                    cascaded += 1;
                }
                if transitions::version_hits(l, lookup) {
                    debug_assert!(
                        hit.is_none(),
                        "hit predicate matched two versions of {line:?}"
                    );
                    hit = Some(i);
                }
            }
        }
        if stale {
            Self::process_addr(&mut self.l1s[c], line);
            self.count_compares(c, line, lookup);
            hit = find_hit(&self.l1s[c], line, lookup);
        } else {
            crate::stats::add(&mut self.stats.short_vid_compares, short);
            crate::stats::add(&mut self.stats.cascaded_vid_compares, cascaded);
        }

        if let Some(way) = hit {
            crate::stats::inc(&mut self.stats.l1_hits);
            self.l1s[c].touch(set, way);
            return Ok(self.local_access(now, req, lookup, set, way, 0));
        }
        crate::stats::inc(&mut self.stats.l1_misses);
        self.miss(now, req, lookup)
    }

    /// Handles an access whose version is present in the local L1 at
    /// `(set, way)`. `extra_latency` accounts for bus work already
    /// performed (fills).
    #[allow(clippy::too_many_arguments)]
    fn local_access(
        &mut self,
        now: Cycle,
        req: &AccessRequest,
        lookup: Vid,
        set: usize,
        way: usize,
        extra_latency: u64,
    ) -> AccessResponse {
        let c = req.core.0;
        let line = req.addr.line();
        let offset = req.addr.line_offset();
        let l1_latency = self.cfg.l1.latency;
        let base_latency = extra_latency + l1_latency;

        match req.kind {
            AccessKind::Read => {
                // Wrong-path loads read data but never change marking state.
                if req.wrong_path {
                    let (v, d) = self.l1s[c].line_mut(set, way);
                    if req.vid.is_speculative() && req.vid > v.phantom_high {
                        v.phantom_high = req.vid;
                    }
                    let value = d.read_u64(offset);
                    return AccessResponse::Done {
                        value,
                        latency: base_latency,
                        sla_required: false,
                    };
                }
                if req.vid.is_non_speculative() {
                    let value = self.l1s[c].data(set, way).read_u64(offset);
                    return AccessResponse::Done {
                        value,
                        latency: base_latency,
                        sla_required: false,
                    };
                }
                // Speculative read: may need conversion / marking.
                let state = self.l1s[c].meta(set, way).state;
                let mut latency = base_latency;
                match state {
                    LineState::Owned | LineState::Shared => {
                        // Gain exclusivity before speculative conversion
                        // ("O, S follow the same path as M or E once
                        // acquiring exclusive access", Figure 4).
                        let done = self.fabric_acquire(now, line);
                        latency += done.saturating_sub(now);
                        crate::stats::inc(&mut self.stats.upgrades);
                        let dirty = self.invalidate_nonspec_copies(line, Some(c));
                        let v = self.l1s[c].meta_mut(set, way);
                        v.state = if dirty || state == LineState::Owned {
                            LineState::Modified
                        } else {
                            LineState::Exclusive
                        };
                    }
                    _ => {}
                }
                let (v, d) = self.l1s[c].line_mut(set, way);
                let mut sla_required = false;
                match v.state {
                    LineState::Modified => {
                        v.state = LineState::SpecModified;
                        v.high_vid = req.vid;
                        sla_required = true;
                    }
                    LineState::Exclusive => {
                        v.state = LineState::SpecExclusive;
                        v.high_vid = req.vid;
                        sla_required = true;
                    }
                    LineState::SpecModified | LineState::SpecExclusive => {
                        if req.vid > v.high_vid {
                            v.high_vid = req.vid;
                            sla_required = true;
                        }
                    }
                    // Superseded versions are read-only history; reads inside
                    // their range need no marking (§4.1).
                    LineState::SpecOwned | LineState::SpecShared => {}
                    LineState::Owned | LineState::Shared => unreachable!("upgraded above"),
                }
                let value = d.read_u64(offset);
                self.record_sla(sla_required);
                self.stats.record_spec_read(req.vid, line);
                AccessResponse::Done {
                    value,
                    latency,
                    sla_required,
                }
            }
            AccessKind::Write(value) => {
                if req.vid.is_non_speculative() {
                    return self.nonspec_write(now, c, line, set, way, offset, value, base_latency);
                }
                self.spec_write(
                    now,
                    req.vid,
                    c,
                    line,
                    set,
                    way,
                    offset,
                    value,
                    base_latency,
                    lookup,
                )
            }
        }
    }

    /// Non-speculative (VID 0) write hitting a local version.
    #[allow(clippy::too_many_arguments)]
    fn nonspec_write(
        &mut self,
        now: Cycle,
        c: usize,
        line: LineAddr,
        set: usize,
        way: usize,
        offset: usize,
        value: u64,
        base_latency: u64,
    ) -> AccessResponse {
        let state = self.l1s[c].meta(set, way).state;
        if state.is_speculative() {
            // After lazy processing, a surviving speculative version means a
            // live uncommitted transaction touched this line.
            return AccessResponse::Misspec {
                cause: MisspecCause::NonSpecWriteConflict { addr: line.base() },
                latency: base_latency,
            };
        }
        let mut latency = base_latency;
        if !state.is_writable() {
            let done = self.fabric_acquire(now, line);
            latency += done.saturating_sub(now);
            crate::stats::inc(&mut self.stats.upgrades);
            self.invalidate_nonspec_copies(line, Some(c));
        }
        let (v, d) = self.l1s[c].line_mut(set, way);
        v.state = LineState::Modified;
        d.write_u64(offset, value);
        AccessResponse::Done {
            value,
            latency,
            sla_required: false,
        }
    }

    /// Speculative write hitting a local version: the dependence-enforcement
    /// core of §4.3 and the version-splitting of §4.2.
    #[allow(clippy::too_many_arguments)]
    fn spec_write(
        &mut self,
        now: Cycle,
        y: Vid,
        c: usize,
        line: LineAddr,
        set: usize,
        way: usize,
        offset: usize,
        value: u64,
        base_latency: u64,
        lookup: Vid,
    ) -> AccessResponse {
        let _ = lookup;
        let mut latency = base_latency;
        let state = self.l1s[c].meta(set, way).state;
        match state {
            LineState::SpecOwned | LineState::SpecShared => AccessResponse::Misspec {
                cause: MisspecCause::StoreToSupersededVersion {
                    addr: line.base(),
                    store_vid: y,
                },
                latency,
            },
            LineState::SpecModified | LineState::SpecExclusive => {
                let (m, h) = self.l1s[c].meta(set, way).vids();
                if y < h {
                    return AccessResponse::Misspec {
                        cause: MisspecCause::StoreBelowHighVid {
                            addr: line.base(),
                            store_vid: y,
                            high_vid: h,
                        },
                        latency,
                    };
                }
                self.note_phantom_store(c, set, way, y);
                if y == m {
                    // Same transaction already owns the latest version:
                    // write in place, invalidating any stale S-S copies that
                    // other threads of this MTX may hold (uncommitted value
                    // forwarding handed them out).
                    if self.l1s[c].meta(set, way).shared_hint {
                        let done = self.fabric_acquire(now, line);
                        latency += done.saturating_sub(now);
                        self.invalidate_ss_copies(line, m, Some(c));
                        self.l1s[c].meta_mut(set, way).shared_hint = false;
                    }
                    self.l1s[c].data_mut(set, way).write_u64(offset, value);
                    self.stats.record_spec_write(y, line);
                    return AccessResponse::Done {
                        value,
                        latency,
                        sla_required: false,
                    };
                }
                // y >= h and y != m: split — the current version is retained
                // unmodified in S-O(m, y); a new S-M(y, y) version holds the
                // store (Figure 4).
                let epoch = self.l1s[c].commit_epoch();
                let (v, d) = self.l1s[c].line_mut(set, way);
                v.state = LineState::SpecOwned;
                v.high_vid = y;
                let mut fresh = CacheLine {
                    meta: *v,
                    data: d.clone(),
                };
                fresh.state = LineState::SpecModified;
                fresh.mod_vid = y;
                fresh.high_vid = y;
                fresh.shared_hint = false;
                fresh.phantom_high = Vid::NON_SPECULATIVE;
                fresh.commit_epoch = epoch;
                fresh.data.write_u64(offset, value);
                if self.tracer.enabled() {
                    let retained = self.l1s[c].meta(set, way).describe();
                    self.tracer.record(TraceEvent::Split {
                        cycle: now,
                        addr: line.base(),
                        retained,
                        created: fresh.describe(),
                    });
                }
                self.stats.record_spec_write(y, line);
                match self.install_l1(c, fresh) {
                    Ok(()) => AccessResponse::Done {
                        value,
                        latency,
                        sla_required: false,
                    },
                    Err(cause) => AccessResponse::Misspec { cause, latency },
                }
            }
            // Non-speculative version: gain exclusivity if needed, then keep
            // the pre-speculative data as the S-O(0, y) backup and create
            // S-M(y, y) with the store applied.
            LineState::Owned | LineState::Shared | LineState::Modified | LineState::Exclusive => {
                if !state.is_writable() {
                    let done = self.fabric_acquire(now, line);
                    latency += done.saturating_sub(now);
                    crate::stats::inc(&mut self.stats.upgrades);
                    self.invalidate_nonspec_copies(line, Some(c));
                }
                self.note_phantom_store(c, set, way, y);
                let epoch = self.l1s[c].commit_epoch();
                let (v, d) = self.l1s[c].line_mut(set, way);
                v.state = LineState::SpecOwned;
                v.mod_vid = Vid::NON_SPECULATIVE;
                v.high_vid = y;
                let mut fresh = CacheLine {
                    meta: *v,
                    data: d.clone(),
                };
                fresh.state = LineState::SpecModified;
                fresh.mod_vid = y;
                fresh.high_vid = y;
                fresh.shared_hint = false;
                fresh.phantom_high = Vid::NON_SPECULATIVE;
                fresh.commit_epoch = epoch;
                fresh.data.write_u64(offset, value);
                if self.tracer.enabled() {
                    let retained = self.l1s[c].meta(set, way).describe();
                    self.tracer.record(TraceEvent::Split {
                        cycle: now,
                        addr: line.base(),
                        retained,
                        created: fresh.describe(),
                    });
                }
                self.stats.record_spec_write(y, line);
                match self.install_l1(c, fresh) {
                    Ok(()) => AccessResponse::Done {
                        value,
                        latency,
                        sla_required: false,
                    },
                    Err(cause) => AccessResponse::Misspec { cause, latency },
                }
            }
        }
    }

    /// Counts an abort avoided by the SLA filter: a store with VID `y` to a
    /// version carrying a wrong-path phantom mark above `y` would have
    /// aborted had the squashed load marked the line (§5.1, Table 1).
    fn note_phantom_store(&mut self, c: usize, set: usize, way: usize, y: Vid) {
        let v = self.l1s[c].meta_mut(set, way);
        if v.phantom_high > y {
            v.phantom_high = Vid::NON_SPECULATIVE;
            crate::stats::inc(&mut self.stats.sla_aborts_avoided);
        }
    }

    /// The L1-miss path: snoop peers, then L2, then main memory.
    fn miss(
        &mut self,
        now: Cycle,
        req: &AccessRequest,
        lookup: Vid,
    ) -> Result<AccessResponse, SimError> {
        let c = req.core.0;
        let line = req.addr.line();
        let is_write = matches!(req.kind, AccessKind::Write(_));
        let bus_done = self.fabric_acquire(now, line);
        let bus_latency = bus_done.saturating_sub(now);
        let peer_hop = match self.cfg.interconnect {
            Interconnect::SnoopyBus => 0,
            // Home bank forwards the request to the owning cache.
            Interconnect::Directory { hop_latency, .. } => hop_latency,
        };

        // Snoop peer L1s (processing pending commits first), collecting the
        // responder, the "shared" wire, and the §5.4 S-M assertion.
        let mut supplier: Option<(usize, usize)> = None;
        let mut shared_seen = false;
        let mut spec_mod_assert = false;
        for p in 0..self.l1s.len() {
            if p == c {
                // Local assertion still counts (a local S-M that failed the
                // hit predicate proves the line was speculatively modified).
                spec_mod_assert |= asserts_spec_modified(&self.l1s[p], line);
                continue;
            }
            Self::process_addr(&mut self.l1s[p], line);
            spec_mod_assert |= asserts_spec_modified(&self.l1s[p], line);
            if self.l1s[p].holds_addr(line) {
                shared_seen = true;
            }
            if supplier.is_none() {
                if let Some(way) = find_hit(&self.l1s[p], line, lookup) {
                    let set = self.l1s[p].set_index(line);
                    if self.l1s[p].meta(set, way).state.responds_to_snoops() {
                        supplier = Some((p, way));
                    }
                }
            }
        }

        if let Some((p, way)) = supplier {
            crate::stats::inc(&mut self.stats.peer_transfers);
            self.last_served = ServedFrom::Peer;
            let latency = bus_latency + peer_hop + self.cfg.l1.latency;
            return Ok(self.supply_from_peer(now, req, lookup, p, way, latency));
        }

        // L2 probe.
        Self::process_addr(&mut self.l2, line);
        spec_mod_assert |= asserts_spec_modified(&self.l2, line);
        if let Some(way) = find_hit(&self.l2, line, lookup) {
            crate::stats::inc(&mut self.stats.l2_hits);
            self.last_served = ServedFrom::L2;
            let set = self.l2.set_index(line);
            let mut version = self.l2.take(set, way);
            // Migrate into the L1 (mostly-exclusive hierarchy), adjusting
            // non-speculative sharing states.
            if !version.state.is_speculative() {
                version.state = nonspec_fill_state(version.state, shared_seen, is_write);
                if is_write || req.vid.is_speculative() && !req.wrong_path {
                    // Exclusive access required: purge other non-spec copies.
                    if shared_seen {
                        crate::stats::inc(&mut self.stats.upgrades);
                        let dirty = self.invalidate_nonspec_copies(line, Some(c));
                        if dirty {
                            version.state = LineState::Modified;
                        }
                    }
                    if version.state == LineState::Shared {
                        version.state = LineState::Exclusive;
                    } else if version.state == LineState::Owned {
                        version.state = LineState::Modified;
                    }
                }
            }
            version.commit_epoch = self.l1s[c].commit_epoch();
            let latency = bus_latency + self.cfg.l2.latency;
            return Ok(self.finish_fill(now, req, lookup, version, latency));
        }

        // §8 unbounded-sets extension: the memory-side overflow table holds
        // speculative versions that did not fit in the hierarchy.
        if self.cfg.unbounded_sets {
            spec_mod_assert |= self
                .overflow
                .values()
                .any(|l| l.addr == line && l.state == LineState::SpecModified);
            let key = self
                .overflow
                .iter()
                .find(|((a, _), l)| *a == line && transitions::version_hits(l, lookup))
                .map(|(k, _)| *k);
            if let Some(key) = key {
                let mut version = self.overflow.remove(&key).unwrap();
                crate::stats::inc(&mut self.stats.unbounded_fills);
                self.last_served = ServedFrom::OverflowTable;
                version.commit_epoch = self.l1s[c].commit_epoch();
                // Full memory round-trip plus the software table lookup.
                let latency = bus_latency + self.cfg.l2.latency + self.cfg.mem_latency + 40;
                return Ok(self.finish_fill(now, req, lookup, version, latency));
            }
        }

        // Main memory.
        crate::stats::inc(&mut self.stats.mem_fills);
        self.last_served = ServedFrom::Memory;
        let data = self.memory.read_line(line);
        let latency = bus_latency + self.cfg.l2.latency + self.cfg.mem_latency;
        let mut version = CacheLine::non_speculative(line, LineState::Exclusive);
        version.data = data;
        version.commit_epoch = self.l1s[c].commit_epoch();
        // Exclusive-requiring accesses must purge the silent non-speculative
        // S copies peers may hold (they never answer snoops, so reaching
        // memory does not mean the line is uncached).
        if shared_seen && (is_write || (req.vid.is_speculative() && !req.wrong_path)) {
            crate::stats::inc(&mut self.stats.upgrades);
            if self.invalidate_nonspec_copies(line, Some(c)) {
                version.state = LineState::Modified;
            }
        }
        if spec_mod_assert {
            // §5.4: the line was speculatively modified somewhere, so the
            // memory copy is the pre-speculative image: wrap it in
            // S-O(0, vid+1) so exactly the VIDs it is valid for can hit it.
            crate::stats::inc(&mut self.stats.overflow_refills);
            version.state = LineState::SpecOwned;
            version.high_vid = lookup.next();
            // Merge with any local non-hitting S-O(0, h') to preserve hit
            // uniqueness (ranges [0,h') and [0,vid+1) would overlap).
            let set = self.l1s[c].set_index(line);
            if let Some(w) = self.l1s[c].set_metas(set).iter().position(|l| {
                l.addr == line && l.state == LineState::SpecOwned && l.mod_vid.is_non_speculative()
            }) {
                let existing = self.l1s[c].meta_mut(set, w);
                if existing.high_vid < version.high_vid {
                    existing.high_vid = version.high_vid;
                }
                let way = w;
                self.l1s[c].touch(set, way);
                return Ok(self.local_access(now, req, lookup, set, way, latency));
            }
        } else if shared_seen && !is_write && (req.vid.is_non_speculative() || req.wrong_path) {
            version.state = LineState::Shared;
        }
        Ok(self.finish_fill(now, req, lookup, version, latency))
    }

    /// Supplies a version found in peer L1 `p` to requester `req.core`.
    fn supply_from_peer(
        &mut self,
        now: Cycle,
        req: &AccessRequest,
        lookup: Vid,
        p: usize,
        way: usize,
        latency: u64,
    ) -> AccessResponse {
        let c = req.core.0;
        let line = req.addr.line();
        let set = self.l1s[p].set_index(line);
        let is_write = matches!(req.kind, AccessKind::Write(_));
        let peer_state = self.l1s[p].meta(set, way).state;

        if !peer_state.is_speculative() {
            if is_write || (req.vid.is_speculative() && !req.wrong_path) {
                // Exclusive access: migrate the version, invalidating every
                // non-speculative copy in the system.
                let mut version = self.l1s[p].take(set, way);
                crate::stats::inc(&mut self.stats.upgrades);
                let dirty = self.invalidate_nonspec_copies(line, Some(c));
                version.state = if version.state.is_dirty() || dirty {
                    LineState::Modified
                } else {
                    LineState::Exclusive
                };
                version.commit_epoch = self.l1s[c].commit_epoch();
                return self.finish_fill(now, req, lookup, version, latency);
            }
            // Plain MOESI read sharing: peer downgrades, requester gets S.
            let (supplier, sdata) = self.l1s[p].line_mut(set, way);
            supplier.shared_hint = true;
            let mut copy = CacheLine {
                meta: *supplier,
                data: sdata.clone(),
            };
            match supplier.state {
                LineState::Modified => supplier.state = LineState::Owned,
                LineState::Exclusive => supplier.state = LineState::Shared,
                _ => {}
            }
            copy.state = LineState::Shared;
            copy.shared_hint = false;
            copy.phantom_high = Vid::NON_SPECULATIVE;
            copy.commit_epoch = self.l1s[c].commit_epoch();
            return self.finish_fill(now, req, lookup, copy, latency);
        }

        // Speculative version at the peer.
        if is_write {
            // Migrate the version for exclusive access; its S-S copies (if
            // any) become stale only if the write is in-place, which the
            // local write path invalidates via shared_hint.
            let mut version = self.l1s[p].take(set, way);
            version.commit_epoch = self.l1s[c].commit_epoch();
            return self.finish_fill(now, req, lookup, version, latency);
        }
        // Speculative-version read: the version migrates to the requester
        // ("Peer Requestor Receives Line in Local State", Figure 4), leaving
        // an S-S copy behind so the supplier can keep reading it. Figure 5
        // instruction 4: Cache 2 receives S-O(1,2), Cache 1 keeps S-S(1,2).
        // This is uncommitted value forwarding across caches (§3, property 2).
        if req.wrong_path {
            let (supplier, sdata) = self.l1s[p].line_mut(set, way);
            if req.vid.is_speculative() && req.vid > supplier.phantom_high {
                supplier.phantom_high = req.vid;
            }
            let value = sdata.read_u64(req.addr.line_offset());
            return AccessResponse::Done {
                value,
                latency,
                sla_required: false,
            };
        }
        let mut version = self.l1s[p].take(set, way);
        let mut sla_required = false;
        if req.vid.is_speculative()
            && matches!(
                version.state,
                LineState::SpecModified | LineState::SpecExclusive
            )
            && req.vid > version.high_vid
        {
            version.high_vid = req.vid;
            sla_required = true;
        }
        let mut residue = version.clone();
        residue.state = LineState::SpecShared;
        residue.shared_hint = false;
        residue.phantom_high = Vid::NON_SPECULATIVE;
        version.commit_epoch = self.l1s[c].commit_epoch();
        if self.cfg.hmtx.seed_bug == Some(hmtx_types::SeedBug::StaleMigrationReplica) {
            // Planted defect (correctness-tool validation only): keep the
            // supplier's copy live in its original state instead of the S-S
            // demotion, so two caches own the same version.
            let _ = self.install_l1(p, version.clone());
        } else if residue.mod_vid < residue.high_vid {
            // A zero-width range (m == h) can never hit; don't bother.
            version.shared_hint = true;
            let _ = self.install_l1(p, residue);
        }
        let value = version.data.read_u64(req.addr.line_offset());
        if req.vid.is_speculative() {
            self.record_sla(sla_required);
            self.stats.record_spec_read(req.vid, line);
        }
        match self.install_l1(c, version) {
            Ok(()) => AccessResponse::Done {
                value,
                latency,
                sla_required,
            },
            Err(cause) => AccessResponse::Misspec { cause, latency },
        }
    }

    /// Installs a fetched version into the requester's L1 and completes the
    /// access against it.
    fn finish_fill(
        &mut self,
        now: Cycle,
        req: &AccessRequest,
        lookup: Vid,
        version: CacheLine,
        latency: u64,
    ) -> AccessResponse {
        let c = req.core.0;
        let line = version.addr;
        if let Err(cause) = self.install_l1(c, version) {
            return AccessResponse::Misspec { cause, latency };
        }
        let way = find_hit(&self.l1s[c], line, lookup)
            .expect("freshly installed version must satisfy the hit predicate");
        let set = self.l1s[c].set_index(line);
        self.l1s[c].touch(set, way);
        self.local_access(now, req, lookup, set, way, latency)
    }

    /// Installs a version into L1 `c`, merging duplicates of the same
    /// `(address, modVID)` version and spilling any victim to the L2.
    fn install_l1(&mut self, c: usize, version: CacheLine) -> Result<(), MisspecCause> {
        let set = self.l1s[c].set_index(version.addr);
        Self::process_set(&mut self.l1s[c], set);
        if let Some(w) = merge_target(self.l1s[c].set_metas(set), &version.meta) {
            let (em, ed) = self.l1s[c].line_mut(set, w);
            merge_into(em, ed, version);
            self.l1s[c].touch(set, w);
            return Ok(());
        }
        let out = self.l1s[c].insert(version, self.cfg.hmtx.victim_policy);
        if let Some(victim) = out.evicted {
            // Clean non-speculative victims vanish silently; everything else
            // is installed into the L2 ("any of the versions can be written
            // back to the next level cache", §4.1).
            if victim.state.is_speculative() || victim.state.is_dirty() {
                self.install_l2(victim)?;
            }
        }
        Ok(())
    }

    /// Installs a version into the shared L2, spilling victims to memory or
    /// aborting per §5.4.
    fn install_l2(&mut self, version: CacheLine) -> Result<(), MisspecCause> {
        let set = self.l2.set_index(version.addr);
        Self::process_set(&mut self.l2, set);
        if let Some(w) = merge_target(self.l2.set_metas(set), &version.meta) {
            let (em, ed) = self.l2.line_mut(set, w);
            merge_into(em, ed, version);
            return Ok(());
        }
        let out = self.l2.insert(version, self.cfg.hmtx.victim_policy);
        if let Some(victim) = out.evicted {
            if !victim.state.is_speculative() {
                if victim.state.is_dirty() {
                    self.memory.write_line(victim.addr, victim.data);
                }
            } else if victim.safe_to_overflow() {
                // S-O(0,·): holds the committed pre-speculative image, safe
                // to spill; the S-M assertion will reconstruct its state on
                // a future miss (§5.4).
                crate::stats::inc(&mut self.stats.safe_overflow_writebacks);
                self.memory.write_line(victim.addr, victim.data);
            } else if victim.state == LineState::SpecShared {
                // A replica; the owner version still answers. Dropping it
                // loses no information.
            } else if self.cfg.unbounded_sets {
                // §8 extension: spill the speculative version into the
                // memory-side overflow table instead of aborting.
                crate::stats::inc(&mut self.stats.unbounded_spills);
                self.overflow.insert((victim.addr, victim.mod_vid), victim);
            } else {
                return Err(MisspecCause::SpecOverflow {
                    addr: victim.addr.base(),
                });
            }
        }
        Ok(())
    }

    /// Group commit of every transaction with VID `<= vid` (§4.4/§5.3).
    /// Returns the latency of the commit broadcast.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NonConsecutiveCommit`] if `vid` is not the
    /// successor of the last committed VID (software must commit in order,
    /// §4.7).
    pub fn commit(&mut self, now: Cycle, vid: Vid) -> Result<u64, SimError> {
        if vid != self.last_committed.next() {
            return Err(SimError::NonConsecutiveCommit {
                expected: self.last_committed.next().0,
                got: vid.0,
            });
        }
        self.last_committed = vid;
        let bus_done = self.bus.acquire(now);
        let mut latency = bus_done.saturating_sub(now) + self.cfg.hmtx.commit_broadcast_latency;
        let lazy = self.cfg.hmtx.lazy_commit;
        let mut walked = 0u64;
        for cache in self.l1s.iter_mut().chain(std::iter::once(&mut self.l2)) {
            cache.set_lc_vid(vid);
            if lazy {
                cache.bump_commit_epoch();
            } else {
                // Eager ablation: walk the entire cache now, charging cycles
                // per line (the naive scheme of §4.4 / Vachharajani).
                cache.bump_commit_epoch();
                let epoch = cache.commit_epoch();
                cache.for_each_line_mut(|l, _| {
                    walked += 1;
                    l.commit_epoch = epoch;
                    match transitions::apply_commit(l, vid) {
                        Outcome::Keep => LineFate::Keep,
                        Outcome::Invalidate => LineFate::Invalidate,
                    }
                });
            }
        }
        crate::stats::add(&mut self.stats.eager_commit_lines_walked, walked);
        latency += walked * self.cfg.hmtx.eager_commit_per_line_cost;
        latency += self.process_overflow_commit(vid);
        self.tracer.record(TraceEvent::Commit { cycle: now, vid });
        crate::stats::inc(&mut self.stats.commits);
        self.stats.finalize_committed(vid);
        Ok(latency)
    }

    /// Applies commit processing to the §8 overflow table (a
    /// software-managed structure, so it is walked rather than flash-set).
    /// Committed dirty data drains to memory. Returns the walk latency.
    fn process_overflow_commit(&mut self, lc: Vid) -> u64 {
        if self.overflow.is_empty() {
            return 0;
        }
        let walked = self.overflow.len() as u64;
        let mut dirty: Vec<(LineAddr, LineData)> = Vec::new();
        self.overflow
            .retain(|_, line| match transitions::apply_commit(line, lc) {
                Outcome::Invalidate => false,
                Outcome::Keep => {
                    if line.state.is_speculative() {
                        true
                    } else {
                        if line.state.is_dirty() {
                            dirty.push((line.addr, line.data.clone()));
                        }
                        false
                    }
                }
            });
        for (a, d) in dirty {
            self.memory.write_line(a, d);
        }
        walked * self.cfg.hmtx.eager_commit_per_line_cost
    }

    /// Aborts every uncommitted transaction: all speculative state is
    /// flushed (§4.4). Pending commit processing is applied first so that
    /// committed-but-unprocessed lines survive. Returns the abort latency.
    pub fn abort_all(&mut self, now: Cycle) -> u64 {
        let bus_done = self.bus.acquire(now);
        let latency = bus_done.saturating_sub(now) + self.cfg.hmtx.commit_broadcast_latency;
        for cache in self.l1s.iter_mut().chain(std::iter::once(&mut self.l2)) {
            let lc = cache.lc_vid();
            cache.bump_commit_epoch();
            let epoch = cache.commit_epoch();
            cache.for_each_line_mut(|l, _| {
                l.commit_epoch = epoch;
                if transitions::apply_commit(l, lc) == Outcome::Invalidate {
                    return LineFate::Invalidate;
                }
                match transitions::apply_abort(l) {
                    Outcome::Keep => LineFate::Keep,
                    Outcome::Invalidate => LineFate::Invalidate,
                }
            });
        }
        let lc = self.last_committed;
        let mut dirty: Vec<(LineAddr, LineData)> = Vec::new();
        self.overflow.retain(|_, line| {
            if transitions::apply_commit(line, lc) == Outcome::Invalidate {
                return false;
            }
            if transitions::apply_abort(line) == Outcome::Invalidate {
                return false;
            }
            if line.state.is_dirty() {
                dirty.push((line.addr, line.data.clone()));
            }
            false
        });
        for (a, d) in dirty {
            self.memory.write_line(a, d);
        }
        self.restore_coherence_after_abort();
        self.tracer.record(TraceEvent::Abort { cycle: now });
        crate::stats::inc(&mut self.stats.aborts);
        self.stats.discard_uncommitted();
        self.abort_seen_since_reset = true;
        latency
    }

    /// Restores single-owner MOESI coherence after abort processing.
    ///
    /// Figure 7 restores each surviving version in isolation, which is
    /// correct for the sole copy of a line but not once uncommitted value
    /// forwarding has replicated version-0 data: the forwarding head
    /// `S-E(0,h)`/`S-M(0,h)` reverts to E/M while its `S-S(0,h)` residues in
    /// peer caches revert to S. An E or M copy coexisting with S copies
    /// breaks the exclusivity assumption of every upgrade path (they only
    /// purge *non-speculative* peers), which lets a later speculative
    /// upgrade mint a second `S-E` head — and the next abort then leaves two
    /// Exclusive copies of one line. All replicas hold identical version-0
    /// bytes, so demoting E to S and keeping a single dirty owner (extra
    /// dirty replicas become S) loses no data.
    fn restore_coherence_after_abort(&mut self) {
        ABORT_SCRATCH.with(|scratch| {
            let (copies, owner_seen) = &mut *scratch.borrow_mut();
            copies.clear();
            owner_seen.clear();
            for cache in self.l1s.iter().chain(std::iter::once(&self.l2)) {
                for set in 0..cache.num_sets() {
                    for l in cache.set_metas(set) {
                        *copies.entry(l.addr).or_insert(0) += 1;
                    }
                }
            }
            for cache in self.l1s.iter_mut().chain(std::iter::once(&mut self.l2)) {
                cache.for_each_line_mut(|l, _| {
                    if copies.get(&l.addr).copied().unwrap_or(0) > 1 {
                        match l.state {
                            LineState::Exclusive => l.state = LineState::Shared,
                            LineState::Modified | LineState::Owned => {
                                l.state = if owner_seen.insert(l.addr) {
                                    LineState::Owned
                                } else {
                                    LineState::Shared
                                };
                            }
                            _ => {}
                        }
                    }
                    LineFate::Keep
                });
            }
        });
    }

    /// VID reset (§4.6): requires every outstanding transaction to have
    /// committed. Clears all line VIDs and LC VID registers so numbering can
    /// restart at 1. Returns the reset latency.
    pub fn vid_reset(&mut self, now: Cycle) -> u64 {
        let bus_done = self.bus.acquire(now);
        let latency = bus_done.saturating_sub(now) + self.cfg.hmtx.vid_reset_latency;
        for cache in self.l1s.iter_mut().chain(std::iter::once(&mut self.l2)) {
            let lc = cache.lc_vid();
            cache.bump_commit_epoch();
            let epoch = cache.commit_epoch();
            cache.for_each_line_mut(|l, _| {
                l.commit_epoch = epoch;
                if transitions::apply_commit(l, lc) == Outcome::Invalidate {
                    return LineFate::Invalidate;
                }
                match transitions::apply_vid_reset(l) {
                    Outcome::Keep => LineFate::Keep,
                    Outcome::Invalidate => LineFate::Invalidate,
                }
            });
            cache.set_lc_vid(Vid::NON_SPECULATIVE);
        }
        let lc_before = self.last_committed;
        self.process_overflow_commit(lc_before);
        debug_assert!(
            self.overflow.is_empty(),
            "VID reset requires every outstanding transaction to have committed"
        );
        self.tracer.record(TraceEvent::VidReset { cycle: now });
        self.last_committed = Vid::NON_SPECULATIVE;
        self.abort_seen_since_reset = false;
        crate::stats::inc(&mut self.stats.vid_resets);
        latency
    }

    /// Verifies a speculative load acknowledgment (§5.1): the value loaded
    /// must still match the line's current content for this VID.
    ///
    /// In this in-order simulator the check always passes on real execution
    /// paths; the entry point exists to model (and test) the architectural
    /// check itself.
    pub fn verify_sla(&mut self, addr: Addr, vid: Vid, value: u64) -> Option<MisspecCause> {
        let line = addr.line();
        let offset = addr.line_offset();
        for cache in self.l1s.iter().chain(std::iter::once(&self.l2)) {
            if let Some(way) = find_hit(cache, line, vid) {
                let set = cache.set_index(line);
                let v = cache.meta(set, way);
                if v.state.responds_to_snoops() || cache.ways_of(line).len() == 1 {
                    if cache.data(set, way).read_u64(offset) != value {
                        return Some(MisspecCause::SlaValueMismatch { addr, vid });
                    }
                    return None;
                }
            }
        }
        if self.memory.read_word(addr) != value {
            return Some(MisspecCause::SlaValueMismatch { addr, vid });
        }
        None
    }

    /// Applies pending commit processing everywhere, writes every dirty
    /// committed line back to memory, and empties the caches. Used at the
    /// end of a run so [`MainMemory::fingerprint`] reflects the final
    /// committed image.
    ///
    /// # Errors
    ///
    /// Returns the descriptions of any live speculative lines, which would
    /// indicate uncommitted transactions (a harness bug).
    pub fn drain_committed(&mut self) -> Result<(), Vec<String>> {
        let mut leftovers = Vec::new();
        // Collect dirty lines first, then clear.
        let mut dirty: Vec<(LineAddr, LineData)> = Vec::new();
        for cache in self.l1s.iter_mut().chain(std::iter::once(&mut self.l2)) {
            let lc = cache.lc_vid();
            cache.for_each_line_mut(|l, d| {
                if transitions::apply_commit(l, lc) == Outcome::Invalidate {
                    return LineFate::Invalidate;
                }
                if l.state.is_speculative() {
                    leftovers.push(l.describe());
                } else if l.state.is_dirty() {
                    dirty.push((l.addr, d.clone()));
                }
                LineFate::Invalidate
            });
        }
        self.process_overflow_commit(self.last_committed);
        for (_, line) in std::mem::take(&mut self.overflow) {
            leftovers.push(line.describe());
        }
        for (addr, data) in dirty {
            self.memory.write_line(addr, data);
        }
        if !leftovers.is_empty() {
            return Err(leftovers);
        }
        Ok(())
    }

    /// Reports the stored versions of `addr` across the hierarchy in the
    /// paper's Figure 5 notation, e.g. `[("L1[0]", "S-O(0,1)"), ...]`.
    pub fn line_states(&self, addr: Addr) -> Vec<(String, String)> {
        let line = addr.line();
        let mut out = Vec::new();
        for (i, cache) in self.l1s.iter().enumerate() {
            let set = cache.set_index(line);
            for l in cache.set_metas(set) {
                if l.addr == line {
                    out.push((format!("L1[{i}]"), l.describe()));
                }
            }
        }
        let set = self.l2.set_index(line);
        for l in self.l2.set_metas(set) {
            if l.addr == line {
                out.push(("L2".to_string(), l.describe()));
            }
        }
        out
    }

    /// Reads the word at `addr` as seen by VID `vid` without disturbing any
    /// state (test/diagnostic helper; does not model latency or marking).
    pub fn peek_word(&self, addr: Addr, vid: Vid) -> u64 {
        let line = addr.line();
        let offset = addr.line_offset();
        for cache in self.l1s.iter().chain(std::iter::once(&self.l2)) {
            // Non-speculative peeks use the cache's LC VID, like real
            // VID-0 accesses (§5.3).
            let vid = if vid.is_speculative() {
                vid
            } else {
                cache.lc_vid()
            };
            if let Some(way) = find_hit(cache, line, vid) {
                let set = cache.set_index(line);
                if cache.meta(set, way).state.responds_to_snoops() {
                    return cache.data(set, way).read_u64(offset);
                }
            }
        }
        // Fall back to any silent copy, then memory.
        for cache in self.l1s.iter().chain(std::iter::once(&self.l2)) {
            let vid = if vid.is_speculative() {
                vid
            } else {
                cache.lc_vid()
            };
            if let Some(way) = find_hit(cache, line, vid) {
                let set = cache.set_index(line);
                return cache.data(set, way).read_u64(offset);
            }
        }
        self.memory.read_word(addr)
    }

    // ---- internal helpers ----

    /// Applies pending lazy-commit processing to every version of `line` in
    /// its set.
    fn process_addr(cache: &mut Cache, line: LineAddr) {
        let set = cache.set_index(line);
        Self::process_set(cache, set);
    }

    /// Applies pending lazy-commit processing to a whole set.
    fn process_set(cache: &mut Cache, set: usize) {
        let epoch = cache.commit_epoch();
        let lc = cache.lc_vid();
        cache.retain_set(set, |l| {
            if l.commit_epoch >= epoch {
                return LineFate::Keep;
            }
            l.commit_epoch = epoch;
            match transitions::apply_commit(l, lc) {
                Outcome::Keep => LineFate::Keep,
                Outcome::Invalidate => LineFate::Invalidate,
            }
        });
    }

    /// Invalidates every non-speculative copy of `line` outside `except`,
    /// in peer L1s and the L2. Returns whether any invalidated copy was
    /// dirty (the dirty bit migrates to the new owner).
    fn invalidate_nonspec_copies(&mut self, line: LineAddr, except: Option<usize>) -> bool {
        let mut dirty = false;
        for (i, cache) in self.l1s.iter_mut().enumerate() {
            if Some(i) == except {
                continue;
            }
            let set = cache.set_index(line);
            cache.retain_set(set, |l| {
                if l.addr == line && !l.state.is_speculative() {
                    dirty |= l.state.is_dirty();
                    LineFate::Invalidate
                } else {
                    LineFate::Keep
                }
            });
        }
        let set = self.l2.set_index(line);
        self.l2.retain_set(set, |l| {
            if l.addr == line && !l.state.is_speculative() {
                dirty |= l.state.is_dirty();
                LineFate::Invalidate
            } else {
                LineFate::Keep
            }
        });
        dirty
    }

    /// Invalidates every S-S replica of version `(line, m)` outside
    /// `except` (stale after an in-place write by the owning transaction).
    fn invalidate_ss_copies(&mut self, line: LineAddr, m: Vid, except: Option<usize>) {
        for (i, cache) in self.l1s.iter_mut().enumerate() {
            if Some(i) == except {
                continue;
            }
            let set = cache.set_index(line);
            cache.retain_set(set, |l| {
                if l.addr == line && l.state == LineState::SpecShared && l.mod_vid == m {
                    LineFate::Invalidate
                } else {
                    LineFate::Keep
                }
            });
        }
        let set = self.l2.set_index(line);
        self.l2.retain_set(set, |l| {
            if l.addr == line && l.state == LineState::SpecShared && l.mod_vid == m {
                LineFate::Invalidate
            } else {
                LineFate::Keep
            }
        });
    }

    /// Records §4.5 comparator activity for an L1 probe.
    fn count_compares(&mut self, c: usize, line: LineAddr, lookup: Vid) {
        let set = self.l1s[c].set_index(line);
        let bits = self.cfg.hmtx.vid_bits;
        let cache = &self.l1s[c];
        let stats = &mut self.stats;
        for l in cache.set_metas(set) {
            if l.addr == line {
                stats.record_vid_compare(lookup, l.mod_vid, bits);
            }
        }
    }

    /// Acquires the coherence fabric for a data request on `line` issued at
    /// `now`, returning when the request's routing completes. On the snoopy
    /// bus every request serializes globally; with a banked directory only
    /// the line's home bank serializes and point-to-point hops are charged
    /// (§8's scaling extension).
    fn fabric_acquire(&mut self, now: Cycle, line: LineAddr) -> Cycle {
        match self.cfg.interconnect {
            Interconnect::SnoopyBus => self.bus.acquire(now),
            Interconnect::Directory { hop_latency, .. } => {
                let bank = (line.0 as usize) & (self.banks.len() - 1);
                crate::stats::inc(&mut self.stats.directory_lookups);
                // Requester -> home bank -> (owner handled by caller).
                self.banks[bank].acquire(now) + 2 * hop_latency
            }
        }
    }

    fn record_sla(&mut self, required: bool) {
        if required {
            crate::stats::inc(&mut self.stats.slas_sent);
        } else {
            crate::stats::inc(&mut self.stats.slas_skipped);
        }
    }
}

/// Finds the way holding the version of `line` that the hit predicate
/// selects for `lookup`, if any. Debug builds assert hit uniqueness.
fn find_hit(cache: &Cache, line: LineAddr, lookup: Vid) -> Option<usize> {
    let set = cache.set_index(line);
    let lines = cache.set_metas(set);
    let mut found: Option<usize> = None;
    for (i, l) in lines.iter().enumerate() {
        if l.addr == line && transitions::version_hits(l, lookup) {
            debug_assert!(
                found.is_none(),
                "hit predicate matched two versions: {} and {}",
                lines[found.unwrap()].describe(),
                l.describe()
            );
            found = Some(i);
            #[cfg(not(debug_assertions))]
            break;
        }
    }
    found
}

/// Whether any S-M version of `line` in `cache` fails to satisfy requests —
/// the §5.4 assertion that the line was speculatively modified, so a memory
/// fill must be wrapped in `S-O(0, vid+1)`.
fn asserts_spec_modified(cache: &Cache, line: LineAddr) -> bool {
    let set = cache.set_index(line);
    cache
        .set_metas(set)
        .iter()
        .any(|l| l.addr == line && l.state == LineState::SpecModified)
}

/// Adjusts a non-speculative state for supply to a reader.
fn nonspec_fill_state(state: LineState, shared_seen: bool, is_write: bool) -> LineState {
    if is_write {
        return state;
    }
    match state {
        LineState::Modified | LineState::Owned => {
            if shared_seen {
                LineState::Owned
            } else {
                LineState::Modified
            }
        }
        LineState::Exclusive | LineState::Shared => {
            if shared_seen {
                LineState::Shared
            } else {
                LineState::Exclusive
            }
        }
        other => other,
    }
}

/// Picks the way an incoming version should merge into: an existing version
/// with the same `(address, modVID)` (a replica of the same version).
fn merge_target(lines: &[LineMeta], incoming: &LineMeta) -> Option<usize> {
    lines.iter().position(|l| {
        l.addr == incoming.addr && l.mod_vid == incoming.mod_vid && same_family(l, incoming)
    })
}

fn same_family(a: &LineMeta, b: &LineMeta) -> bool {
    // Only merge replicas within the speculative family (an S-S copy with
    // its owner, or two S-S copies). Distinct non-speculative states or a
    // speculative/non-speculative pair are different lines logically.
    a.state.is_speculative() == b.state.is_speculative()
}

/// Merges `incoming` into `existing`: owner states win over S-S replicas,
/// and the wider `highVID` range is kept.
fn merge_into(existing: &mut LineMeta, existing_data: &mut LineData, incoming: CacheLine) {
    let CacheLine {
        meta: incoming,
        data: incoming_data,
    } = incoming;
    let existing_is_owner = existing.state.responds_to_snoops();
    let incoming_is_owner = incoming.state.responds_to_snoops();
    if incoming_is_owner && !existing_is_owner {
        let high = existing.high_vid.max(incoming.high_vid);
        *existing = incoming;
        *existing_data = incoming_data;
        existing.high_vid = high;
    } else {
        if incoming.high_vid > existing.high_vid {
            existing.high_vid = incoming.high_vid;
        }
        if incoming_is_owner {
            existing.state = incoming.state;
            *existing_data = incoming_data;
        }
        if incoming.phantom_high > existing.phantom_high {
            existing.phantom_high = incoming.phantom_high;
        }
    }
}
