//! The protocol probe: a seeded access stream replayed through
//! `MemorySystem::access`/`commit`/`abort_all` alone, so the protocol's host
//! cost per access, commit and abort is measured apart from the
//! interpreter and the scheduler.
//!
//! The stream follows the VID-order rules the runtime keeps: one
//! transaction is live at a time, VIDs rise from 1, transactions commit in
//! VID order, and the VID space is reset when it wraps. Its load/store and
//! speculative/non-speculative mix and its abort share follow the counters
//! of the pass it stands in for.

use std::time::Instant;

use hmtx_core::{AccessKind, AccessRequest, AccessResponse, MemorySystem};
use hmtx_types::{Addr, CoreId, MachineConfig, Vid};

use crate::stats::Rng;
use crate::trace::Tracer;
use crate::Outcome;

/// The memory-system counters the stream's mix is drawn from.
pub struct Mix {
    pub loads: u64,
    pub stores: u64,
    pub spec_loads: u64,
    pub spec_stores: u64,
    pub commits: u64,
    pub aborts: u64,
}

/// Accesses replayed per probe.
const ACCESSES: u64 = 200_000;
/// Lines the stream touches: several times the L1, inside the L2.
const LINES: u64 = 1024;
const REGION: u64 = 0x4000_0000;
/// Floor on the abort share, so abort cost is measured even on a
/// commit-only mix.
const MIN_ABORT_SHARE: f64 = 1.0 / 64.0;
/// Transactions between invariant scans.
const SCAN_EVERY: u64 = 64;

fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn run(seed: u64, base: &MachineConfig, mix: &Mix, tracer: &mut Tracer, out: &mut Outcome) {
    let mut cfg = base.clone();
    cfg.faults = None;
    let cores = cfg.num_cores.max(1);
    let max_vid = cfg.hmtx.max_vid().0.max(1);
    let mut mem = MemorySystem::new(cfg);
    let mut rng = Rng::stream(seed, 0x9A0BE);

    let spec_ops = mix.spec_loads + mix.spec_stores;
    let spec_share = share(spec_ops, mix.loads + mix.stores).max(0.01);
    let spec_store_share = share(mix.spec_stores, spec_ops);
    let plain_store_share = share(
        mix.stores - mix.spec_stores,
        (mix.loads + mix.stores).saturating_sub(spec_ops),
    );
    let tx_ops = (spec_ops / mix.commits.max(1)).clamp(1, 64);
    let plain_per_tx = ((tx_ops as f64) * (1.0 - spec_share) / spec_share).min(256.0) as u64;
    let abort_share = share(mix.aborts, mix.commits + mix.aborts).max(MIN_ABORT_SHARE);

    let mut now = 1_000u64;
    let mut vid = 1u16;
    let (mut access_ns, mut accesses) = (0u128, 0u64);
    let (mut commit_ns, mut commits) = (0u128, 0u64);
    let (mut abort_ns, mut aborts) = (0u128, 0u64);
    let (mut scan_ns, mut scans) = (0u128, 0u64);
    let mut misspecs = 0u64;
    let mut txs = 0u64;

    tracer.begin("core.probe", seed);
    while accesses < ACCESSES {
        // Non-speculative work between transactions.
        let t = Instant::now();
        tracer.begin("core.probe_access", txs);
        for _ in 0..plain_per_tx {
            let req = request(&mut rng, 0, Vid::NON_SPECULATIVE, plain_store_share);
            if let Ok(AccessResponse::Done { latency, .. }) = mem.access(now, &req) {
                now += latency.max(1);
            }
        }
        // One transaction on its VID's core.
        let core = (usize::from(vid) - 1) % cores;
        let mut misspec = false;
        for _ in 0..tx_ops {
            let req = request(&mut rng, core, Vid(vid), spec_store_share);
            match mem.access(now, &req) {
                Ok(AccessResponse::Done { latency, .. }) => now += latency.max(1),
                Ok(AccessResponse::Misspec { latency, .. }) => {
                    now += latency.max(1);
                    misspec = true;
                    break;
                }
                Err(e) => {
                    out.check(false, || format!("protocol probe access: {e}"));
                    tracer.end();
                    tracer.end();
                    return;
                }
            }
        }
        tracer.end();
        access_ns += t.elapsed().as_nanos();
        accesses += plain_per_tx + tx_ops;
        txs += 1;

        if misspec || rng.unit() < abort_share {
            misspecs += u64::from(misspec);
            let t = Instant::now();
            tracer.span("core.probe_abort", txs, || mem.abort_all(now));
            abort_ns += t.elapsed().as_nanos();
            aborts += 1;
            now += 10;
        } else {
            let t = Instant::now();
            let committed = tracer.span("core.probe_commit", txs, || mem.commit(now, Vid(vid)));
            commit_ns += t.elapsed().as_nanos();
            commits += 1;
            now += 10;
            if let Err(e) = committed {
                out.check(false, || format!("protocol probe commit of v{vid}: {e}"));
                break;
            }
            if vid == max_vid {
                tracer.span("core.probe_vid_reset", txs, || mem.vid_reset(now));
                now += 10;
                vid = 1;
            } else {
                vid += 1;
            }
        }
        if txs.is_multiple_of(SCAN_EVERY) {
            let t = Instant::now();
            let violations = tracer.span("core.invariant_scan", txs, || mem.check_invariants());
            scan_ns += t.elapsed().as_nanos();
            scans += 1;
            out.check(violations.is_empty(), || {
                format!("protocol probe invariant: {:?}", violations.first())
            });
        }
    }
    tracer.end();

    let per = |ns: u128, n: u64| ns as f64 / n.max(1) as f64;
    out.set("core.probe_access_ns", per(access_ns, accesses));
    out.set("core.probe_commit_ns", per(commit_ns, commits));
    out.set("core.probe_abort_ns", per(abort_ns, aborts));
    out.set("core.invariant_scan_us", per(scan_ns, scans) / 1e3);
    out.notes.push(format!(
        "protocol probe: {accesses} accesses in {txs} transactions ({tx_ops} speculative + \
         {plain_per_tx} plain each), {commits} commits, {aborts} aborts ({misspecs} from \
         conflicts), {scans} invariant scans"
    ));
}

fn request(rng: &mut Rng, core: usize, vid: Vid, store_share: f64) -> AccessRequest {
    let line = rng.below(LINES);
    let word = rng.below(8);
    let kind = if rng.unit() < store_share {
        AccessKind::Write(rng.next_u64())
    } else {
        AccessKind::Read
    };
    AccessRequest {
        core: CoreId(core),
        addr: Addr(REGION + line * 64 + word * 8),
        kind,
        vid,
        wrong_path: false,
    }
}
