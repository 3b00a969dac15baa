//! The HMTX memory system: per-core L1 caches, a shared snoopy bus, a shared
//! L2, and main memory, governed by the MOESI protocol extended with the
//! speculative states and version rules of §4 of the paper.
//!
//! # Structure of an access
//!
//! Every decision an access makes is a pure rule of the crate-private
//! `decisions` module, truth-tabled there against docs/PROTOCOL.md; this
//! module carries the rules out and charges their latency.
//!
//! 1. Pending lazy commit processing is applied to every version of the
//!    requested address in the local L1 set (§5.3, the commit rules of
//!    [`crate::transitions`]).
//! 2. The local L1 is probed with the hit predicate of §4.1 (non-speculative
//!    requests probe with the cache's LC VID). A hit does what
//!    `decisions::read` or `decisions::write` plans: reads mark per
//!    Figure 4 (`decisions::mark_read`), and speculative writes enforce the
//!    dependence rules of §4.3 (`decisions::spec_write`), creating a new
//!    `S-M(y,y)` version and retaining the unmodified copy in `S-O(m,y)`
//!    (`decisions::split`), or aborting on a VID-order violation.
//! 3. On a miss, the request is broadcast on the bus: peer L1s are snooped
//!    (`decisions::Snoop`: S-S and S copies stay silent), then the shared
//!    L2, then main memory. An S-M line that holds the same address but
//!    does not satisfy the hit predicate asserts
//!    *speculatively-modified-elsewhere*, which makes a memory fill return
//!    in `S-O(0, vid+1)` per §5.4 (`decisions::wrap_pre_speculative`).
//! 4. A peer supplies as `decisions::supply` plans; a fill purges other
//!    copies and takes the state `decisions::fill_purges` and
//!    `decisions::fill_state` decide, and then completes as a local hit.
//! 5. Each version a fill evicts meets its `decisions::victim` fate.
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

use crate::decisions::{self, Read, Snoop, Supply, Victim, Write};
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
        if req.marks() {
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
        match response {
            AccessResponse::Done { latency, .. } if self.cfg.hytm.enabled && req.marks() => {
                let (live, bound) = match req.kind {
                    AccessKind::Write(_) => (
                        self.stats.live_write_lines(req.vid),
                        self.cfg.hytm.max_write_lines,
                    ),
                    AccessKind::Read => (
                        self.stats.live_read_lines(req.vid),
                        self.cfg.hytm.max_read_lines,
                    ),
                };
                if bound != 0 && live > bound as usize {
                    let addr = req.addr.line().base();
                    let cause = MisspecCause::SpecOverflow { addr };
                    response = AccessResponse::Misspec { cause, latency };
                }
            }
            _ => {}
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
        let lookup = self.lookup(req);

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
            Self::process_set(&mut self.l1s[c], set);
            for l in self.l1s[c].set_metas(set).iter().filter(|l| l.addr == line) {
                self.stats
                    .record_vid_compare(lookup, l.mod_vid, self.cfg.hmtx.vid_bits);
            }
            hit = find_hit(&self.l1s[c], line, lookup);
        } else {
            crate::stats::add(&mut self.stats.short_vid_compares, short);
            crate::stats::add(&mut self.stats.cascaded_vid_compares, cascaded);
        }

        if let Some(way) = hit {
            crate::stats::inc(&mut self.stats.l1_hits);
            self.l1s[c].touch(set, way);
            return Ok(self.local_access(now, req, set, way, self.cfg.l1.latency));
        }
        crate::stats::inc(&mut self.stats.l1_misses);
        self.miss(now, req, lookup)
    }

    /// The VID `req` probes caches with: its own, or for a non-speculative
    /// request the LC VID of its core's L1, so that it sees the newest
    /// committed version (§5.3).
    fn lookup(&self, req: &AccessRequest) -> Vid {
        if req.vid.is_speculative() {
            req.vid
        } else {
            self.l1s[req.core.0].lc_vid()
        }
    }

    /// Carries out `req` on the version at `(set, way)` of its core's L1: a
    /// load as [`decisions::read`] plans it, a store through
    /// [`Self::write_hit`]. `latency` is what the access has cost so far,
    /// this L1's probe included.
    fn local_access(
        &mut self,
        now: Cycle,
        req: &AccessRequest,
        set: usize,
        way: usize,
        mut latency: u64,
    ) -> AccessResponse {
        if let AccessKind::Write(value) = req.kind {
            return self.write_hit(now, req, set, way, latency, value);
        }
        let c = req.core.0;
        let offset = req.addr.line_offset();
        match decisions::read(req) {
            Read::Plain => {
                return done(self.l1s[c].data(set, way).read_u64(offset), latency, false)
            }
            Read::Peek => {
                let (v, d) = self.l1s[c].line_mut(set, way);
                decisions::note_phantom_read(v, req.vid);
                return done(d.read_u64(offset), latency, false);
            }
            Read::Mark => {}
        }
        if decisions::upgrades(self.l1s[c].meta(set, way).state) {
            latency += self.acquire_exclusive(now, c, set, way);
        }
        let (v, d) = self.l1s[c].line_mut(set, way);
        let sla_required = decisions::mark_read(v, req.vid);
        let value = d.read_u64(offset);
        self.record_sla(sla_required);
        self.stats.record_spec_read(req.vid, req.addr.line());
        done(value, latency, sla_required)
    }

    /// Carries out the store of `value` by `req` on the version at
    /// `(set, way)` of its core's L1 as [`decisions::write`] plans it.
    fn write_hit(
        &mut self,
        now: Cycle,
        req: &AccessRequest,
        set: usize,
        way: usize,
        mut latency: u64,
        value: u64,
    ) -> AccessResponse {
        let c = req.core.0;
        let line = req.addr.line();
        let offset = req.addr.line_offset();
        match decisions::write(self.l1s[c].meta(set, way), req.vid) {
            Write::Abort(cause) => return AccessResponse::Misspec { cause, latency },
            Write::Plain { upgrade } => {
                if upgrade {
                    latency += self.acquire_exclusive(now, c, set, way);
                }
                let (v, d) = self.l1s[c].line_mut(set, way);
                v.state = LineState::Modified;
                d.write_u64(offset, value);
            }
            Write::InPlace { invalidate_ss } => {
                if decisions::note_phantom_store(self.l1s[c].meta_mut(set, way), req.vid) {
                    crate::stats::inc(&mut self.stats.sla_aborts_avoided);
                }
                if invalidate_ss {
                    latency += self.fabric_latency(now, line);
                    let m = self.l1s[c].meta(set, way).mod_vid;
                    self.invalidate_copies(line, c, |l| {
                        l.state == LineState::SpecShared && l.mod_vid == m
                    });
                    self.l1s[c].meta_mut(set, way).shared_hint = false;
                }
                self.l1s[c].data_mut(set, way).write_u64(offset, value);
                self.stats.record_spec_write(req.vid, line);
            }
            Write::Split {
                retained_m,
                upgrade,
            } => {
                if upgrade {
                    latency += self.acquire_exclusive(now, c, set, way);
                }
                if decisions::note_phantom_store(self.l1s[c].meta_mut(set, way), req.vid) {
                    crate::stats::inc(&mut self.stats.sla_aborts_avoided);
                }
                let (v, d) = self.l1s[c].line_mut(set, way);
                let mut fresh = CacheLine {
                    meta: decisions::split(v, retained_m, req.vid),
                    data: d.clone(),
                };
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
                self.stats.record_spec_write(req.vid, line);
                if let Err(cause) = self.install(Some(c), fresh) {
                    return AccessResponse::Misspec { cause, latency };
                }
            }
        }
        done(value, latency, false)
    }

    /// Gains exclusivity for the `O` or `S` copy at `(set, way)` of L1 `c`:
    /// purges every other non-speculative copy and leaves this one `M` or
    /// `E` ([`decisions::fill_state`]). Returns the fabric latency.
    fn acquire_exclusive(&mut self, now: Cycle, c: usize, set: usize, way: usize) -> u64 {
        let line = self.l1s[c].meta(set, way).addr;
        let latency = self.fabric_latency(now, line);
        let dirty = self.purge(line, c);
        let v = self.l1s[c].meta_mut(set, way);
        v.state = decisions::fill_state(v.state, true, true, dirty);
        latency
    }

    /// The L1-miss path: snoop peers, then the L2, then the §8 overflow
    /// table, then main memory.
    fn miss(
        &mut self,
        now: Cycle,
        req: &AccessRequest,
        lookup: Vid,
    ) -> Result<AccessResponse, SimError> {
        let c = req.core.0;
        let line = req.addr.line();
        let bus_latency = self.fabric_latency(now, line);
        let peer_hop = match self.cfg.interconnect {
            Interconnect::SnoopyBus => 0,
            // Home bank forwards the request to the owning cache.
            Interconnect::Directory { hop_latency, .. } => hop_latency,
        };

        // Snoop peer L1s, processing their pending commits first. The local
        // L1 asserts too: its S-M that failed the hit rule proves the line
        // was speculatively modified.
        let mut snoop = Snoop::default();
        for p in 0..self.l1s.len() {
            let set = self.l1s[p].set_index(line);
            if p == c {
                snoop.assert_from(self.l1s[p].set_metas(set), line);
                continue;
            }
            Self::process_set(&mut self.l1s[p], set);
            let hit = match snoop.supplier {
                None => find_hit(&self.l1s[p], line, lookup),
                Some(_) => None,
            };
            snoop.peer(p, self.l1s[p].set_metas(set), line, hit);
        }
        if let Some((p, way)) = snoop.supplier {
            crate::stats::inc(&mut self.stats.peer_transfers);
            self.last_served = ServedFrom::Peer;
            let latency = bus_latency + peer_hop + self.cfg.l1.latency;
            return Ok(self.supply_from_peer(now, req, p, way, latency));
        }

        // L2 probe: a hit migrates the version into the L1.
        let set = self.l2.set_index(line);
        Self::process_set(&mut self.l2, set);
        snoop.assert_from(self.l2.set_metas(set), line);
        if let Some(way) = find_hit(&self.l2, line, lookup) {
            crate::stats::inc(&mut self.stats.l2_hits);
            self.last_served = ServedFrom::L2;
            let mut version = self.l2.take(set, way);
            self.settle_fill(&mut version, req, snoop.shared);
            let latency = bus_latency + self.cfg.l2.latency;
            return Ok(self.finish_fill(now, req, version, latency));
        }

        // §8 unbounded-sets extension: the memory-side overflow table holds
        // speculative versions that did not fit in the hierarchy.
        if self.cfg.unbounded_sets {
            let mut spilled = self.overflow.range((line, Vid(0))..=(line, Vid(u16::MAX)));
            snoop.assert_from(spilled.clone().map(|(_, l)| &l.meta), line);
            if let Some(key) = spilled
                .find(|(_, l)| transitions::version_hits(l, lookup))
                .map(|(key, _)| *key)
            {
                let version = self.overflow.remove(&key).expect("found above");
                crate::stats::inc(&mut self.stats.unbounded_fills);
                self.last_served = ServedFrom::OverflowTable;
                // Full memory round-trip plus the software table lookup.
                let latency = bus_latency + self.cfg.l2.latency + self.cfg.mem_latency + 40;
                return Ok(self.finish_fill(now, req, version, latency));
            }
        }

        // Main memory.
        crate::stats::inc(&mut self.stats.mem_fills);
        self.last_served = ServedFrom::Memory;
        let latency = bus_latency + self.cfg.l2.latency + self.cfg.mem_latency;
        let mut version = CacheLine::non_speculative(line, LineState::Exclusive);
        version.data = self.memory.read_line(line);
        self.settle_fill(&mut version, req, snoop.shared);
        if snoop.spec_modified {
            crate::stats::inc(&mut self.stats.overflow_refills);
            decisions::wrap_pre_speculative(&mut version, lookup);
            // Merge with any local non-hitting S-O(0, h') to preserve hit
            // uniqueness (ranges [0,h') and [0,vid+1) would overlap).
            let set = self.l1s[c].set_index(line);
            if let Some(way) = self.l1s[c].set_metas(set).iter().position(|l| {
                l.addr == line && l.state == LineState::SpecOwned && l.mod_vid.is_non_speculative()
            }) {
                let existing = self.l1s[c].meta_mut(set, way);
                existing.high_vid = existing.high_vid.max(version.high_vid);
                self.l1s[c].touch(set, way);
                return Ok(self.local_access(now, req, set, way, latency + self.cfg.l1.latency));
            }
        }
        Ok(self.finish_fill(now, req, version, latency))
    }

    /// Carries out how peer L1 `p` supplies its version at `way` to `req`
    /// ([`decisions::supply`]).
    fn supply_from_peer(
        &mut self,
        now: Cycle,
        req: &AccessRequest,
        p: usize,
        way: usize,
        latency: u64,
    ) -> AccessResponse {
        let c = req.core.0;
        let offset = req.addr.line_offset();
        let set = self.l1s[p].set_index(req.addr.line());
        match decisions::supply(self.l1s[p].meta(set, way).state, req) {
            Supply::Migrate => {
                let mut version = self.l1s[p].take(set, way);
                self.settle_fill(&mut version, req, true);
                self.finish_fill(now, req, version, latency)
            }
            Supply::Share => {
                let (supplier, data) = self.l1s[p].line_mut(set, way);
                let copy = CacheLine {
                    meta: decisions::share(supplier),
                    data: data.clone(),
                };
                self.finish_fill(now, req, copy, latency)
            }
            Supply::Peek => {
                let (supplier, data) = self.l1s[p].line_mut(set, way);
                decisions::note_phantom_read(supplier, req.vid);
                done(data.read_u64(offset), latency, false)
            }
            Supply::MigrateLeavingReplica => {
                let mut version = self.l1s[p].take(set, way);
                let sla_required =
                    req.vid.is_speculative() && decisions::mark_read(&mut version, req.vid);
                let residue = decisions::replica(&version);
                version.commit_epoch = self.l1s[c].commit_epoch();
                if self.cfg.hmtx.seed_bug == Some(hmtx_types::SeedBug::StaleMigrationReplica) {
                    // Planted defect (correctness-tool validation only): keep
                    // the supplier's copy live in its original state instead
                    // of the S-S demotion, so two caches own the same version.
                    let _ = self.install(Some(p), version.clone());
                } else if let Some(meta) = residue {
                    version.shared_hint = true;
                    let data = version.data.clone();
                    let _ = self.install(Some(p), CacheLine { meta, data });
                }
                let value = version.data.read_u64(offset);
                if req.vid.is_speculative() {
                    self.record_sla(sla_required);
                    self.stats.record_spec_read(req.vid, version.addr);
                }
                match self.install(Some(c), version) {
                    Ok(()) => done(value, latency, sla_required),
                    Err(cause) => AccessResponse::Misspec { cause, latency },
                }
            }
        }
    }

    /// Gives a version fetched for `req` the state it installs in the
    /// requester's L1, first purging the other non-speculative copies when
    /// the fill needs exclusivity ([`decisions::fill_purges`],
    /// [`decisions::fill_state`]). `shared`: some peer L1 holds the line.
    fn settle_fill(&mut self, version: &mut LineMeta, req: &AccessRequest, shared: bool) {
        let exclusive = req.needs_exclusive();
        let dirty = decisions::fill_purges(version.state, shared, exclusive)
            && self.purge(version.addr, req.core.0);
        version.state = decisions::fill_state(version.state, shared, exclusive, dirty);
    }

    /// Installs a fetched version into the requester's L1 and completes the
    /// access against it.
    fn finish_fill(
        &mut self,
        now: Cycle,
        req: &AccessRequest,
        mut version: CacheLine,
        latency: u64,
    ) -> AccessResponse {
        let c = req.core.0;
        let line = version.addr;
        version.commit_epoch = self.l1s[c].commit_epoch();
        if let Err(cause) = self.install(Some(c), version) {
            return AccessResponse::Misspec { cause, latency };
        }
        let way = find_hit(&self.l1s[c], line, self.lookup(req))
            .expect("freshly installed version must satisfy the hit predicate");
        let set = self.l1s[c].set_index(line);
        self.l1s[c].touch(set, way);
        self.local_access(now, req, set, way, latency + self.cfg.l1.latency)
    }

    /// Installs a version into L1 `c`, or into the L2 when `c` is `None`.
    /// A replica of the same `(address, modVID)` version already in the set
    /// absorbs it (an L1 replica also becomes most recently used); otherwise
    /// it is inserted, and the version it evicts meets its
    /// [`decisions::victim`] fate.
    fn install(&mut self, c: Option<usize>, version: CacheLine) -> Result<(), MisspecCause> {
        let policy = self.cfg.hmtx.victim_policy;
        let cache = match c {
            Some(c) => &mut self.l1s[c],
            None => &mut self.l2,
        };
        let set = cache.set_index(version.addr);
        Self::process_set(cache, set);
        if let Some(w) = merge_target(cache.set_metas(set), &version.meta) {
            let (em, ed) = cache.line_mut(set, w);
            merge_into(em, ed, version);
            if c.is_some() {
                cache.touch(set, w);
            }
            return Ok(());
        }
        let Some(victim) = cache.insert(version, policy).evicted else {
            return Ok(());
        };
        match decisions::victim(&victim, c.is_some(), self.cfg.unbounded_sets) {
            Victim::Drop => {}
            Victim::ToL2 => return self.install(None, victim),
            Victim::WriteBack => self.memory.write_line(victim.addr, victim.data),
            Victim::SafeOverflow => {
                crate::stats::inc(&mut self.stats.safe_overflow_writebacks);
                self.memory.write_line(victim.addr, victim.data);
            }
            Victim::Spill => {
                crate::stats::inc(&mut self.stats.unbounded_spills);
                self.overflow.insert((victim.addr, victim.mod_vid), victim);
            }
            Victim::Abort => {
                return Err(MisspecCause::SpecOverflow {
                    addr: victim.addr.base(),
                })
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
        let mut walked = 0u64;
        for cache in self.l1s.iter_mut().chain(std::iter::once(&mut self.l2)) {
            cache.set_lc_vid(vid);
            if self.cfg.hmtx.lazy_commit {
                cache.bump_commit_epoch();
            } else {
                // Eager ablation: walk the entire cache now, charging cycles
                // per line (the naive scheme of §4.4 / Vachharajani).
                walked += cache.occupancy() as u64;
                walk_committed(cache, |_, _| LineFate::Keep);
            }
        }
        crate::stats::add(&mut self.stats.eager_commit_lines_walked, walked);
        latency += walked * self.cfg.hmtx.eager_commit_per_line_cost;
        latency += self.walk_overflow(vid, |l| l.state.is_speculative());
        self.tracer.record(TraceEvent::Commit { cycle: now, vid });
        crate::stats::inc(&mut self.stats.commits);
        self.stats.finalize_committed(vid);
        Ok(latency)
    }

    /// Applies commit processing against `lc` to the §8 overflow table (a
    /// software-managed structure, so it is walked rather than flash-set),
    /// then lets `stays` decide whether each surviving version stays. A
    /// version that leaves is written back to memory if it is then dirty
    /// and non-speculative: committed data, or data an abort restored.
    /// Returns the walk latency.
    fn walk_overflow(&mut self, lc: Vid, mut stays: impl FnMut(&mut LineMeta) -> bool) -> u64 {
        if self.overflow.is_empty() {
            return 0;
        }
        let walked = self.overflow.len() as u64;
        let memory = &mut self.memory;
        self.overflow.retain(|_, line| {
            if transitions::apply_commit(line, lc) == Outcome::Invalidate {
                return false;
            }
            if stays(line) {
                return true;
            }
            if !line.state.is_speculative() && line.state.is_dirty() {
                memory.write_line(line.addr, line.data.clone());
            }
            false
        });
        walked * self.cfg.hmtx.eager_commit_per_line_cost
    }

    /// Aborts every uncommitted transaction: all speculative state is
    /// flushed (§4.4). Pending commit processing is applied first so that
    /// committed-but-unprocessed lines survive. Returns the abort latency.
    pub fn abort_all(&mut self, now: Cycle) -> u64 {
        let bus_done = self.bus.acquire(now);
        let latency = bus_done.saturating_sub(now) + self.cfg.hmtx.commit_broadcast_latency;
        for cache in self.l1s.iter_mut().chain(std::iter::once(&mut self.l2)) {
            walk_committed(cache, |l, _| fate(transitions::apply_abort(l)));
        }
        // Every version leaves the table; an aborted one stays speculative
        // and so is not written back.
        self.walk_overflow(self.last_committed, |l| {
            transitions::apply_abort(l);
            false
        });
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
            walk_committed(cache, |l, _| fate(transitions::apply_vid_reset(l)));
            cache.set_lc_vid(Vid::NON_SPECULATIVE);
        }
        self.walk_overflow(self.last_committed, |l| l.state.is_speculative());
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
        // The overflow table drains first, so a cached copy of a line
        // overwrites its spilled one in memory.
        self.walk_overflow(self.last_committed, |l| l.state.is_speculative());
        let mut leftovers = Vec::new();
        let memory = &mut self.memory;
        for cache in self.l1s.iter_mut().chain(std::iter::once(&mut self.l2)) {
            walk_committed(cache, |l, d| {
                if l.state.is_speculative() {
                    leftovers.push(l.describe());
                } else if l.state.is_dirty() {
                    memory.write_line(l.addr, d.clone());
                }
                LineFate::Invalidate
            });
        }
        for (_, line) in std::mem::take(&mut self.overflow) {
            leftovers.push(line.describe());
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
        for (i, cache) in self.caches().enumerate() {
            let set = cache.set_index(line);
            for l in cache.set_metas(set).iter().filter(|l| l.addr == line) {
                out.push((self.cache_name(i), l.describe()));
            }
        }
        out
    }

    /// Reads the word at `addr` as seen by VID `vid` without disturbing any
    /// state (test/diagnostic helper; does not model latency or marking).
    /// The version that answers snoops wins, then any silent copy, then
    /// memory.
    pub fn peek_word(&self, addr: Addr, vid: Vid) -> u64 {
        let line = addr.line();
        for answering in [true, false] {
            for cache in self.caches() {
                // Non-speculative peeks use the cache's LC VID, like real
                // VID-0 accesses (§5.3).
                let vid = if vid.is_speculative() {
                    vid
                } else {
                    cache.lc_vid()
                };
                if let Some(way) = find_hit(cache, line, vid) {
                    let set = cache.set_index(line);
                    if !answering || cache.meta(set, way).state.responds_to_snoops() {
                        return cache.data(set, way).read_u64(addr.line_offset());
                    }
                }
            }
        }
        self.memory.read_word(addr)
    }

    // ---- internal helpers ----

    /// Applies pending lazy-commit processing to a whole set.
    fn process_set(cache: &mut Cache, set: usize) {
        let (lc, epoch) = (cache.lc_vid(), cache.commit_epoch());
        cache.retain_set(set, |l| catch_up(l, lc, epoch));
    }

    /// Counts an ownership upgrade and invalidates every non-speculative
    /// copy of `line` outside L1 `c`. Returns whether an invalidated copy
    /// was dirty (the dirty bit migrates to the new owner).
    fn purge(&mut self, line: LineAddr, c: usize) -> bool {
        crate::stats::inc(&mut self.stats.upgrades);
        self.invalidate_copies(line, c, |l| !l.state.is_speculative())
    }

    /// Invalidates every version of `line` that `doomed` selects in the
    /// L1s other than `except` and in the L2. Returns whether any
    /// invalidated version was dirty.
    fn invalidate_copies(
        &mut self,
        line: LineAddr,
        except: usize,
        doomed: impl Fn(&LineMeta) -> bool,
    ) -> bool {
        let mut dirty = false;
        let peers = self.l1s.iter_mut().enumerate();
        let peers = peers.filter(|(i, _)| *i != except).map(|(_, cache)| cache);
        for cache in peers.chain(std::iter::once(&mut self.l2)) {
            let set = cache.set_index(line);
            cache.retain_set(set, |l| {
                if l.addr == line && doomed(l) {
                    dirty |= l.state.is_dirty();
                    LineFate::Invalidate
                } else {
                    LineFate::Keep
                }
            });
        }
        dirty
    }

    /// Acquires the coherence fabric for a data request on `line` issued at
    /// `now`, returning how long the request's routing takes. On the snoopy
    /// bus every request serializes globally; with a banked directory only
    /// the line's home bank serializes and point-to-point hops are charged
    /// (§8's scaling extension).
    fn fabric_latency(&mut self, now: Cycle, line: LineAddr) -> u64 {
        let done = match self.cfg.interconnect {
            Interconnect::SnoopyBus => self.bus.acquire(now),
            Interconnect::Directory { hop_latency, .. } => {
                let bank = (line.0 as usize) & (self.banks.len() - 1);
                crate::stats::inc(&mut self.stats.directory_lookups);
                // Requester -> home bank -> (owner handled by caller).
                self.banks[bank].acquire(now) + 2 * hop_latency
            }
        };
        done.saturating_sub(now)
    }

    fn record_sla(&mut self, required: bool) {
        if required {
            crate::stats::inc(&mut self.stats.slas_sent);
        } else {
            crate::stats::inc(&mut self.stats.slas_skipped);
        }
    }
}

/// Brings one line up to date with the commits its cache has seen: the
/// commit rules (Figure 6) against the cache's LC VID, once per commit
/// epoch (§5.3).
#[inline]
fn catch_up(l: &mut LineMeta, lc: Vid, epoch: u64) -> LineFate {
    if l.commit_epoch >= epoch {
        return LineFate::Keep;
    }
    l.commit_epoch = epoch;
    fate(transitions::apply_commit(l, lc))
}

/// Applies pending commit processing to every line of `cache`, then lets
/// `then` decide the fate of each line that survives it.
fn walk_committed(cache: &mut Cache, mut then: impl FnMut(&mut LineMeta, &LineData) -> LineFate) {
    cache.bump_commit_epoch();
    let (lc, epoch) = (cache.lc_vid(), cache.commit_epoch());
    cache.for_each_line_mut(|l, d| match catch_up(l, lc, epoch) {
        LineFate::Keep => then(l, d),
        LineFate::Invalidate => LineFate::Invalidate,
    });
}

/// A completed access.
fn done(value: u64, latency: u64, sla_required: bool) -> AccessResponse {
    AccessResponse::Done {
        value,
        latency,
        sla_required,
    }
}

#[inline]
fn fate(outcome: Outcome) -> LineFate {
    match outcome {
        Outcome::Keep => LineFate::Keep,
        Outcome::Invalidate => LineFate::Invalidate,
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
