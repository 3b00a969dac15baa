//! Behavioural tests for the protocol engine: the Figure 5 trace, the
//! dependence cases of §4.3, group commit, SLA filtering, overflow, and
//! VID reset.

use hmtx_types::{Addr, CoreId, MachineConfig, SimError, Vid};

use crate::protocol::{AccessKind, AccessRequest, AccessResponse, MemorySystem, MisspecCause};

fn cfg() -> MachineConfig {
    MachineConfig::test_default()
}

fn eager_cfg() -> MachineConfig {
    let mut c = cfg();
    c.hmtx.lazy_commit = false;
    c
}

fn read(core: usize, addr: u64, vid: u16) -> AccessRequest {
    AccessRequest {
        core: CoreId(core),
        addr: Addr(addr),
        kind: AccessKind::Read,
        vid: Vid(vid),
        wrong_path: false,
    }
}

fn write(core: usize, addr: u64, vid: u16, value: u64) -> AccessRequest {
    AccessRequest {
        core: CoreId(core),
        addr: Addr(addr),
        kind: AccessKind::Write(value),
        vid: Vid(vid),
        wrong_path: false,
    }
}

fn wrong_path_read(core: usize, addr: u64, vid: u16) -> AccessRequest {
    AccessRequest {
        wrong_path: true,
        ..read(core, addr, vid)
    }
}

/// Drives an access that must succeed, returning (value, sla_required).
fn ok(mem: &mut MemorySystem, t: u64, req: AccessRequest) -> (u64, bool) {
    match mem.access(t, &req).expect("well-formed access") {
        AccessResponse::Done {
            value,
            sla_required,
            ..
        } => (value, sla_required),
        AccessResponse::Misspec { cause, .. } => panic!("unexpected misspeculation: {cause:?}"),
    }
}

/// Drives an access that must misspeculate, returning the cause.
fn misspec(mem: &mut MemorySystem, t: u64, req: AccessRequest) -> MisspecCause {
    match mem.access(t, &req).expect("well-formed access") {
        AccessResponse::Done { .. } => panic!("expected misspeculation"),
        AccessResponse::Misspec { cause, .. } => cause,
    }
}

fn states(mem: &MemorySystem, addr: u64) -> Vec<(String, String)> {
    let mut v = mem.line_states(Addr(addr));
    v.sort();
    v
}

// ---------------------------------------------------------------- Figure 5

/// Reproduces Figure 5 of the paper instruction by instruction: the exact
/// `(state, modVID, highVID)` evolution of address 0xa across two caches,
/// for two pipeline stages of the linked-list example.
#[test]
fn figure5_cache_state_trace() {
    let a = 0x40u64; // "0xa" in the figure; any line-aligned address works.
    let mut mem = MemorySystem::new(eager_cfg());

    // Initial condition of the figure: Cache 1 holds the line in E.
    ok(&mut mem, 0, read(0, a, 0));
    assert_eq!(states(&mem, a), vec![("L1[0]".into(), "E(0,0)".into())]);

    // (1) Thread 1: beginMTX(1); r1 = M[0xa].
    ok(&mut mem, 10, read(0, a, 1));
    assert_eq!(states(&mem, a), vec![("L1[0]".into(), "S-E(0,1)".into())]);

    // (2) Thread 1: M[0xa] = M[r1]  (speculative store, VID 1).
    ok(&mut mem, 20, write(0, a, 1, 111));
    assert_eq!(
        states(&mem, a),
        vec![
            ("L1[0]".into(), "S-M(1,1)".into()),
            ("L1[0]".into(), "S-O(0,1)".into())
        ]
    );

    // (3) Thread 1, next iteration: beginMTX(2); r1 = M[0xa]; M[0xa] = ...
    let (v, _) = ok(&mut mem, 30, read(0, a, 2));
    assert_eq!(v, 111, "VID 2 sees VID 1's uncommitted store");
    ok(&mut mem, 40, write(0, a, 2, 222));
    assert_eq!(
        states(&mem, a),
        vec![
            ("L1[0]".into(), "S-M(2,2)".into()),
            ("L1[0]".into(), "S-O(0,1)".into()),
            ("L1[0]".into(), "S-O(1,2)".into()),
        ]
    );

    // (4) Thread 2: beginMTX(1); r1 = M[0xa] — hits the S-O(1,2) version on
    // the bus; the response migrates in S-O(1,2) and Cache 1 keeps S-S(1,2).
    let (v, _) = ok(&mut mem, 50, read(1, a, 1));
    assert_eq!(v, 111, "VID 1 must see its own version, not VID 2's");
    assert_eq!(
        states(&mem, a),
        vec![
            ("L1[0]".into(), "S-M(2,2)".into()),
            ("L1[0]".into(), "S-O(0,1)".into()),
            ("L1[0]".into(), "S-S(1,2)".into()),
            ("L1[1]".into(), "S-O(1,2)".into()),
        ]
    );

    // (5) Thread 2: commitMTX(1).
    mem.commit(60, Vid(1)).unwrap();
    assert_eq!(
        states(&mem, a),
        vec![
            ("L1[0]".into(), "S-M(2,2)".into()),
            ("L1[0]".into(), "S-S(0,2)".into()),
            ("L1[1]".into(), "S-O(0,2)".into()),
        ]
    );

    // Committing VID 2 finishes the story: only the committed M line remains.
    mem.commit(70, Vid(2)).unwrap();
    assert_eq!(states(&mem, a), vec![("L1[0]".into(), "M(0,0)".into())]);
    assert_eq!(mem.peek_word(Addr(a), Vid(0)), 222);
}

// ----------------------------------------------------- §4.3 dependence cases

#[test]
fn flow_dependence_store_first_forwards_value() {
    let mut mem = MemorySystem::new(cfg());
    ok(&mut mem, 0, write(0, 0x100, 1, 7));
    let (v, _) = ok(&mut mem, 10, read(1, 0x100, 2));
    assert_eq!(v, 7, "uncommitted value forwarding");
}

#[test]
fn flow_dependence_load_first_detects_violation() {
    let mut mem = MemorySystem::new(cfg());
    ok(&mut mem, 0, read(1, 0x100, 2)); // l_y first (y = 2)
    let cause = misspec(&mut mem, 10, write(0, 0x100, 1, 7)); // s_x (x = 1)
    match cause {
        MisspecCause::StoreBelowHighVid {
            store_vid,
            high_vid,
            ..
        } => {
            assert_eq!(store_vid, Vid(1));
            assert_eq!(high_vid, Vid(2));
        }
        other => panic!("unexpected cause {other:?}"),
    }
}

#[test]
fn anti_dependence_load_first_is_preserved() {
    let mut mem = MemorySystem::new(cfg());
    mem.memory_mut().write_word(Addr(0x100), 5);
    let (v, _) = ok(&mut mem, 0, read(0, 0x100, 1)); // l_x
    assert_eq!(v, 5);
    ok(&mut mem, 10, write(1, 0x100, 2, 9)); // s_y, y > x: no violation
    let (v, _) = ok(&mut mem, 20, read(0, 0x100, 1));
    assert_eq!(v, 5, "VID 1 must keep seeing the pre-VID-2 value");
    let (v, _) = ok(&mut mem, 30, read(1, 0x100, 2));
    assert_eq!(v, 9);
}

#[test]
fn anti_dependence_store_first_avoids_false_misspeculation() {
    let mut mem = MemorySystem::new(cfg());
    mem.memory_mut().write_word(Addr(0x100), 5);
    ok(&mut mem, 0, write(1, 0x100, 2, 9)); // s_y first
    let (v, _) = ok(&mut mem, 10, read(0, 0x100, 1)); // l_x: hits the S-O backup
    assert_eq!(v, 5, "earlier VID reads the unmodified copy");
}

#[test]
fn output_dependence_in_order_keeps_latest() {
    let mut mem = MemorySystem::new(cfg());
    ok(&mut mem, 0, write(0, 0x100, 1, 1));
    ok(&mut mem, 10, write(1, 0x100, 2, 2));
    mem.commit(20, Vid(1)).unwrap();
    mem.commit(30, Vid(2)).unwrap();
    assert_eq!(mem.peek_word(Addr(0x100), Vid(0)), 2);
}

#[test]
fn output_dependence_out_of_order_detects_violation() {
    let mut mem = MemorySystem::new(cfg());
    ok(&mut mem, 0, write(1, 0x100, 2, 2)); // s_y first
    let cause = misspec(&mut mem, 10, write(0, 0x100, 1, 1)); // s_x
                                                              // The store lands either on the S-M(2,2) version (VID below highVID) or
                                                              // on the S-O(0,2) backup (superseded); both are the §4.3 conservative
                                                              // output-dependence trigger.
    assert!(matches!(
        cause,
        MisspecCause::StoreBelowHighVid { .. } | MisspecCause::StoreToSupersededVersion { .. }
    ));
}

// ------------------------------------------------ group commit & abort

#[test]
fn group_commit_spans_multiple_caches() {
    // Two threads of the same transaction write different lines from
    // different cores; one commit makes both visible.
    let mut mem = MemorySystem::new(cfg());
    ok(&mut mem, 0, write(0, 0x100, 1, 10));
    ok(&mut mem, 10, write(1, 0x180, 1, 20));
    mem.commit(20, Vid(1)).unwrap();
    assert_eq!(mem.peek_word(Addr(0x100), Vid(0)), 10);
    assert_eq!(mem.peek_word(Addr(0x180), Vid(0)), 20);
    mem.drain_committed().expect("no speculative leftovers");
    assert_eq!(mem.memory().read_word(Addr(0x100)), 10);
    assert_eq!(mem.memory().read_word(Addr(0x180)), 20);
}

#[test]
fn abort_discards_speculative_state_and_keeps_committed() {
    let mut mem = MemorySystem::new(cfg());
    mem.memory_mut().write_word(Addr(0x100), 5);
    ok(&mut mem, 0, write(0, 0x100, 1, 10));
    mem.commit(10, Vid(1)).unwrap();
    ok(&mut mem, 20, write(1, 0x100, 2, 99));
    ok(&mut mem, 30, write(0, 0x180, 3, 77));
    mem.abort_all(40);
    assert_eq!(
        mem.peek_word(Addr(0x100), Vid(0)),
        10,
        "committed VID 1 survives"
    );
    assert_eq!(
        mem.peek_word(Addr(0x180), Vid(0)),
        0,
        "uncommitted VID 3 flushed"
    );
    mem.drain_committed().expect("caches clean after abort");
    assert_eq!(mem.memory().read_word(Addr(0x100)), 10);
    assert_eq!(mem.memory().read_word(Addr(0x180)), 0);
}

#[test]
fn commits_must_be_consecutive() {
    let mut mem = MemorySystem::new(cfg());
    ok(&mut mem, 0, write(0, 0x100, 1, 1));
    ok(&mut mem, 0, write(0, 0x140, 2, 2));
    let err = mem.commit(10, Vid(2)).unwrap_err();
    assert_eq!(
        err,
        SimError::NonConsecutiveCommit {
            expected: 1,
            got: 2
        }
    );
    mem.commit(20, Vid(1)).unwrap();
    mem.commit(30, Vid(2)).unwrap();
}

#[test]
fn lazy_and_eager_commit_reach_the_same_final_state() {
    let run = |lazy: bool| {
        let mut c = cfg();
        c.hmtx.lazy_commit = lazy;
        let mut mem = MemorySystem::new(c);
        for i in 0..8u64 {
            let vid = (i + 1) as u16;
            ok(
                &mut mem,
                i * 100,
                write((i % 4) as usize, 0x100 + 0x40 * i, vid, i + 1),
            );
            ok(
                &mut mem,
                i * 100 + 10,
                read(((i + 1) % 4) as usize, 0x100 + 0x40 * i, vid),
            );
            mem.commit(i * 100 + 20, Vid(vid)).unwrap();
        }
        mem.drain_committed().unwrap();
        mem.memory().fingerprint()
    };
    assert_eq!(run(true), run(false));
}

// --------------------------------------------------------- SLA (§5.1)

#[test]
fn sla_marks_only_unlogged_lines() {
    let mut mem = MemorySystem::new(cfg());
    let (_, sla1) = ok(&mut mem, 0, read(0, 0x100, 1));
    assert!(sla1, "first speculative load of a line needs an SLA");
    let (_, sla2) = ok(&mut mem, 10, read(0, 0x100, 1));
    assert!(!sla2, "line already logged this VID");
    ok(&mut mem, 20, write(0, 0x140, 1, 5));
    let (_, sla3) = ok(&mut mem, 30, read(0, 0x140, 1));
    assert!(!sla3, "a store with the same VID already logged the line");
    assert_eq!(mem.stats().slas_sent, 1);
    assert_eq!(mem.stats().slas_skipped, 2);
}

#[test]
fn wrong_path_load_does_not_mark_and_store_avoids_abort() {
    let mut mem = MemorySystem::new(cfg());
    // A squashed load from VID 2 touches the line...
    ok(&mut mem, 0, wrong_path_read(1, 0x100, 2));
    // ...then a store from VID 1 writes it. Without SLAs this would be a
    // false RAW violation; with SLAs it proceeds.
    ok(&mut mem, 10, write(0, 0x100, 1, 7));
    assert_eq!(mem.stats().sla_aborts_avoided, 1);
    mem.commit(20, Vid(1)).unwrap();
    assert_eq!(mem.peek_word(Addr(0x100), Vid(0)), 7);
}

#[test]
fn without_sla_wrong_path_load_causes_false_misspeculation() {
    let mut c = cfg();
    c.hmtx.sla_enabled = false;
    let mut mem = MemorySystem::new(c);
    ok(&mut mem, 0, wrong_path_read(1, 0x100, 2));
    let cause = misspec(&mut mem, 10, write(0, 0x100, 1, 7));
    assert!(matches!(cause, MisspecCause::StoreBelowHighVid { .. }));
    assert_eq!(mem.stats().sla_aborts_avoided, 0);
}

#[test]
fn sla_verification_detects_value_mismatch() {
    let mut mem = MemorySystem::new(cfg());
    let (v, sla) = ok(&mut mem, 0, read(0, 0x100, 1));
    assert!(sla);
    assert!(mem.verify_sla(Addr(0x100), Vid(1), v).is_none());
    assert!(matches!(
        mem.verify_sla(Addr(0x100), Vid(1), v + 1),
        Some(MisspecCause::SlaValueMismatch { .. })
    ));
}

// ------------------------------------------- non-speculative interactions

#[test]
fn nonspec_reads_see_latest_committed_version() {
    let mut mem = MemorySystem::new(cfg());
    mem.memory_mut().write_word(Addr(0x100), 5);
    ok(&mut mem, 0, write(0, 0x100, 1, 10));
    // VID 0 on another core still sees the committed 5.
    let (v, _) = ok(&mut mem, 10, read(1, 0x100, 0));
    assert_eq!(v, 5);
    mem.commit(20, Vid(1)).unwrap();
    let (v, _) = ok(&mut mem, 30, read(1, 0x100, 0));
    assert_eq!(v, 10);
}

#[test]
fn nonspec_write_to_speculative_line_conflicts() {
    let mut mem = MemorySystem::new(cfg());
    ok(&mut mem, 0, read(0, 0x100, 2));
    let cause = misspec(&mut mem, 10, write(1, 0x100, 0, 1));
    assert!(matches!(
        cause,
        MisspecCause::StoreBelowHighVid { .. } | MisspecCause::NonSpecWriteConflict { .. }
    ));
}

#[test]
fn nonspec_writes_to_disjoint_lines_are_plain_moesi() {
    let mut mem = MemorySystem::new(cfg());
    ok(&mut mem, 0, write(0, 0x200, 0, 1));
    let (v, _) = ok(&mut mem, 10, read(1, 0x200, 0));
    assert_eq!(v, 1);
    ok(&mut mem, 20, write(1, 0x200, 0, 2));
    let (v, _) = ok(&mut mem, 30, read(0, 0x200, 0));
    assert_eq!(v, 2);
    assert_eq!(mem.stats().aborts, 0);
}

// ---------------------------------------------------- same-VID MTX sharing

#[test]
fn same_vid_threads_share_uncommitted_state_across_cores() {
    let mut mem = MemorySystem::new(cfg());
    ok(&mut mem, 0, write(0, 0x100, 1, 1));
    let (v, _) = ok(&mut mem, 10, read(1, 0x100, 1));
    assert_eq!(v, 1);
    // The same transaction writes again from the second core (in place).
    ok(&mut mem, 20, write(1, 0x100, 1, 2));
    let (v, _) = ok(&mut mem, 30, read(0, 0x100, 1));
    assert_eq!(v, 2, "second write visible to the first thread");
    mem.commit(40, Vid(1)).unwrap();
    assert_eq!(mem.peek_word(Addr(0x100), Vid(0)), 2);
}

#[test]
fn later_vid_keeps_older_version_after_superseding_write() {
    let mut mem = MemorySystem::new(cfg());
    ok(&mut mem, 0, write(0, 0x100, 1, 1));
    let (v, _) = ok(&mut mem, 10, read(1, 0x100, 2));
    assert_eq!(v, 1);
    ok(&mut mem, 20, write(1, 0x100, 2, 2));
    // VID 1 re-reads its own version (now superseded): still 1.
    let (v, _) = ok(&mut mem, 30, read(0, 0x100, 1));
    assert_eq!(v, 1);
    // VID 2 and above see 2.
    let (v, _) = ok(&mut mem, 40, read(2, 0x100, 3));
    assert_eq!(v, 2);
}

// ----------------------------------------------------------- overflow §5.4

fn tiny_cfg() -> MachineConfig {
    let mut c = cfg();
    c.l1 = hmtx_types::CacheConfig {
        size_bytes: 512,
        ways: 2,
        latency: 2,
    };
    c.l2 = hmtx_types::CacheConfig {
        size_bytes: 1024,
        ways: 2,
        latency: 40,
    };
    c
}

#[test]
fn safe_overflow_spills_so_lines_and_refills_from_memory() {
    let mut mem = MemorySystem::new(tiny_cfg());
    // Pre-speculative committed values.
    for i in 0..12u64 {
        mem.memory_mut().write_word(Addr(i * 64), 100 + i);
    }
    // One transaction speculatively overwrites many lines; each write leaves
    // an S-O(0,1) backup, and the tiny hierarchy must spill some of them.
    for i in 0..12u64 {
        ok(&mut mem, i * 10, write(0, i * 64, 1, 200 + i));
    }
    assert!(
        mem.stats().safe_overflow_writebacks > 0,
        "tiny caches must have spilled S-O(0,·) backups"
    );
    // Non-speculative reads from another core still see committed values
    // (possibly refilled from memory under the S-M assertion).
    for i in 0..12u64 {
        let (v, _) = ok(&mut mem, 1_000 + i * 10, read(1, i * 64, 0));
        assert_eq!(v, 100 + i, "committed value of line {i}");
    }
    assert!(
        mem.stats().overflow_refills > 0,
        "at least one §5.4 S-O(0,a+1) refill"
    );
    // The transaction's own view is intact.
    for i in 0..12u64 {
        let (v, _) = ok(&mut mem, 2_000 + i * 10, read(0, i * 64, 1));
        assert_eq!(v, 200 + i);
    }
}

#[test]
fn unsafe_overflow_forces_abort() {
    let mut mem = MemorySystem::new(tiny_cfg());
    // Keep writing distinct lines in one transaction until the S-M versions
    // themselves no longer fit anywhere (S-O backups spill safely first).
    let mut aborted = false;
    for i in 0..200u64 {
        match mem.access(i * 10, &write(0, i * 64, 1, i)).unwrap() {
            AccessResponse::Done { .. } => {}
            AccessResponse::Misspec { cause, .. } => {
                assert!(matches!(cause, MisspecCause::SpecOverflow { .. }));
                aborted = true;
                break;
            }
        }
    }
    assert!(
        aborted,
        "speculative footprint exceeding the hierarchy must abort"
    );
}

// ------------------------------------------------------------ VID reset §4.6

#[test]
fn vid_reset_allows_vid_reuse() {
    let mut mem = MemorySystem::new(cfg());
    ok(&mut mem, 0, write(0, 0x100, 1, 11));
    mem.commit(10, Vid(1)).unwrap();
    ok(&mut mem, 20, write(0, 0x140, 2, 22));
    mem.commit(30, Vid(2)).unwrap();
    mem.vid_reset(40);
    // VID numbering restarts at 1; old committed data is untouched.
    assert_eq!(mem.peek_word(Addr(0x100), Vid(0)), 11);
    ok(&mut mem, 50, write(0, 0x180, 1, 33));
    mem.commit(60, Vid(1)).unwrap();
    assert_eq!(mem.peek_word(Addr(0x180), Vid(0)), 33);
    assert_eq!(mem.peek_word(Addr(0x140), Vid(0)), 22);
    assert_eq!(mem.stats().vid_resets, 1);
}

#[test]
fn vid_reset_after_abort_clears_everything_speculative() {
    let mut mem = MemorySystem::new(cfg());
    ok(&mut mem, 0, write(0, 0x100, 1, 11));
    mem.commit(5, Vid(1)).unwrap();
    ok(&mut mem, 10, write(0, 0x140, 2, 22));
    mem.abort_all(20);
    mem.vid_reset(30);
    assert_eq!(mem.peek_word(Addr(0x100), Vid(0)), 11);
    assert_eq!(mem.peek_word(Addr(0x140), Vid(0)), 0, "aborted write gone");
    ok(&mut mem, 40, write(1, 0x140, 1, 44));
    mem.commit(50, Vid(1)).unwrap();
    assert_eq!(mem.peek_word(Addr(0x140), Vid(0)), 44);
}

#[test]
fn abort_demotes_forwarding_replicas_to_a_coherent_state() {
    // Uncommitted value forwarding replicates version-0 data: after core 1
    // reads core 0's S-E(0,1) head, core 0 keeps an S-S residue. Figure 7
    // applied per line would restore E beside S — and that broken
    // exclusivity let a later speculative upgrade mint a *second* S-E head,
    // so the next abort left two Exclusive copies of one line.
    let a = 0x200u64;
    let mut mem = MemorySystem::new(cfg());
    ok(&mut mem, 0, read(0, a, 1));
    assert_eq!(states(&mem, a), vec![("L1[0]".into(), "S-E(0,1)".into())]);
    ok(&mut mem, 10, read(1, a, 2));
    mem.abort_all(20);
    assert_eq!(
        states(&mem, a),
        vec![
            ("L1[0]".into(), "S(0,0)".into()),
            ("L1[1]".into(), "S(0,0)".into()),
        ],
        "no replica may keep exclusivity after abort"
    );

    // Replay the historical failure: re-speculate on the warm copies, abort
    // again, and demand a clean protocol state.
    ok(&mut mem, 30, read(1, a, 1));
    ok(&mut mem, 40, read(0, a, 2));
    mem.abort_all(50);
    let violations = mem.check_invariants();
    assert!(violations.is_empty(), "{violations:?}");
}

// ---------------------------------------------------------------- misc

#[test]
fn unaligned_access_is_a_guest_bug() {
    let mut mem = MemorySystem::new(cfg());
    let err = mem.access(0, &read(0, 0x13d, 0)).unwrap_err();
    assert!(matches!(err, SimError::UnalignedAccess { .. }));
}

#[test]
fn rw_set_statistics_track_distinct_lines_per_tx() {
    let mut mem = MemorySystem::new(cfg());
    ok(&mut mem, 0, read(0, 0x1000, 1));
    ok(&mut mem, 1, read(0, 0x1040, 1));
    ok(&mut mem, 2, read(0, 0x1040, 1)); // duplicate
    ok(&mut mem, 3, write(0, 0x1080, 1, 1));
    mem.commit(10, Vid(1)).unwrap();
    let t = mem.stats().rw_totals();
    assert_eq!(t.transactions, 1);
    assert_eq!(t.read_lines, 2);
    assert_eq!(t.write_lines, 1);
    assert_eq!(t.combined_lines, 3);
}

#[test]
fn migration_between_cores_preserves_transaction_view() {
    // §5.2: threads can migrate between cores; their speculative data is
    // found through the VID. Start a TX on core 0, continue it on core 3.
    let mut mem = MemorySystem::new(cfg());
    ok(&mut mem, 0, write(0, 0x100, 1, 1));
    ok(&mut mem, 1, write(0, 0x140, 1, 2));
    let (v, _) = ok(&mut mem, 100, read(3, 0x100, 1));
    assert_eq!(v, 1);
    ok(&mut mem, 110, write(3, 0x100, 1, 3));
    mem.commit(200, Vid(1)).unwrap();
    assert_eq!(mem.peek_word(Addr(0x100), Vid(0)), 3);
    assert_eq!(mem.peek_word(Addr(0x140), Vid(0)), 2);
}

// --------------------------------------------- §8 extensions

fn directory_cfg() -> MachineConfig {
    let mut c = cfg();
    c.interconnect = hmtx_types::Interconnect::Directory {
        banks: 4,
        hop_latency: 6,
    };
    c
}

#[test]
fn directory_interconnect_preserves_protocol_semantics() {
    // The Figure 5 sequence behaves identically under the directory fabric.
    let mut mem = MemorySystem::new(directory_cfg());
    ok(&mut mem, 0, write(0, 0x100, 1, 7));
    let (v, _) = ok(&mut mem, 10, read(1, 0x100, 2));
    assert_eq!(v, 7, "uncommitted value forwarding over the directory");
    ok(&mut mem, 20, read(2, 0x100, 1));
    mem.commit(30, Vid(1)).unwrap();
    mem.commit(40, Vid(2)).unwrap();
    assert_eq!(mem.peek_word(Addr(0x100), Vid(0)), 7);
    assert!(mem.stats().directory_lookups > 0);
}

#[test]
fn directory_detects_violations_like_the_bus() {
    let mut mem = MemorySystem::new(directory_cfg());
    ok(&mut mem, 0, read(1, 0x100, 2));
    let cause = misspec(&mut mem, 10, write(0, 0x100, 1, 7));
    assert!(matches!(cause, MisspecCause::StoreBelowHighVid { .. }));
}

#[test]
fn directory_misses_do_not_serialize_across_banks() {
    // Two cores missing on lines homed at different banks must not queue
    // behind each other the way the snoopy bus forces them to.
    let run = |cfg: MachineConfig| {
        let mut mem = MemorySystem::new(cfg);
        let mut total = 0u64;
        for i in 0..16u64 {
            // Same issue time: on the bus these serialize.
            match mem
                .access(1000, &read((i % 4) as usize, 0x10_000 + i * 64, 0))
                .unwrap()
            {
                AccessResponse::Done { latency, .. } => total += latency,
                other => panic!("{other:?}"),
            }
        }
        total
    };
    let bus_total = run(cfg());
    let dir_total = run(directory_cfg());
    assert!(
        dir_total < bus_total,
        "banked directory must beat the serialized bus: {dir_total} vs {bus_total}"
    );
}

fn unbounded_cfg() -> MachineConfig {
    let mut c = tiny_cfg();
    c.unbounded_sets = true;
    c
}

#[test]
fn unbounded_sets_spill_and_refill_instead_of_aborting() {
    // The same access pattern that forces SpecOverflow in
    // `unsafe_overflow_forces_abort` completes when unbounded sets are on.
    let mut mem = MemorySystem::new(unbounded_cfg());
    for i in 0..200u64 {
        ok(&mut mem, i * 10, write(0, i * 64, 1, 1000 + i));
    }
    assert!(
        mem.stats().unbounded_spills > 0,
        "tiny caches must spill S-M lines"
    );
    // The transaction's own view survives the spills.
    for i in 0..200u64 {
        let (v, _) = ok(&mut mem, 5_000 + i * 10, read(1, i * 64, 1));
        assert_eq!(v, 1000 + i, "line {i}");
    }
    assert!(
        mem.stats().unbounded_fills > 0,
        "reads must retrieve spilled versions"
    );
    mem.commit(100_000, Vid(1)).unwrap();
    mem.drain_committed().expect("clean drain");
    for i in 0..200u64 {
        assert_eq!(mem.memory().read_word(Addr(i * 64)), 1000 + i);
    }
}

#[test]
fn unbounded_sets_abort_cleanly_with_spilled_state() {
    let mut mem = MemorySystem::new(unbounded_cfg());
    for i in 0..64u64 {
        mem.memory_mut().write_word(Addr(i * 64), 7);
    }
    for i in 0..64u64 {
        ok(&mut mem, i * 10, write(0, i * 64, 1, 99));
    }
    assert!(mem.stats().unbounded_spills > 0);
    mem.abort_all(10_000);
    mem.drain_committed().expect("clean");
    for i in 0..64u64 {
        assert_eq!(
            mem.memory().read_word(Addr(i * 64)),
            7,
            "line {i} must roll back"
        );
    }
}

#[test]
fn unbounded_spilled_sm_still_asserts_for_lower_vids() {
    // A spilled S-M must still force §5.4's S-O(0, a+1) wrap for lower-VID
    // readers falling through to memory.
    let mut mem = MemorySystem::new(unbounded_cfg());
    mem.memory_mut().write_word(Addr(0), 5);
    ok(&mut mem, 0, write(0, 0, 2, 9));
    // Push the S-M for line 0 out of the hierarchy.
    for i in 1..200u64 {
        ok(&mut mem, i * 10, write(0, i * 64, 2, i));
    }
    let (v, _) = ok(&mut mem, 10_000, read(1, 0, 1));
    assert_eq!(v, 5, "VID 1 must see the committed value, not VID 2's");
    let (v, _) = ok(&mut mem, 10_010, read(2, 0, 2));
    assert_eq!(v, 9, "VID 2 must still find its spilled version");
}

// ------------------------------------------ line granularity (§7.1)

#[test]
fn false_sharing_on_one_line_is_conservatively_aborted() {
    // HMTX versions at cache-line granularity (vs Vachharajani's bytes):
    // two transactions writing *different words* of the same line out of
    // order are treated as an output dependence violation.
    let mut mem = MemorySystem::new(cfg());
    ok(&mut mem, 0, write(1, 0x108, 2, 22)); // word 1 of line 0x100, VID 2
    let cause = misspec(&mut mem, 10, write(0, 0x100, 1, 11)); // word 0, VID 1
    assert!(matches!(
        cause,
        MisspecCause::StoreBelowHighVid { .. } | MisspecCause::StoreToSupersededVersion { .. }
    ));
}

#[test]
fn false_sharing_in_vid_order_is_fine() {
    // In VID order the same pattern is harmless: the later write just makes
    // a new version of the line carrying both words.
    let mut mem = MemorySystem::new(cfg());
    ok(&mut mem, 0, write(0, 0x100, 1, 11));
    ok(&mut mem, 10, write(1, 0x108, 2, 22));
    mem.commit(20, Vid(1)).unwrap();
    mem.commit(30, Vid(2)).unwrap();
    assert_eq!(mem.peek_word(Addr(0x100), Vid(0)), 11);
    assert_eq!(mem.peek_word(Addr(0x108), Vid(0)), 22);
}

// ------------------------------------------------------------- tracing

#[test]
fn trace_records_the_figure5_story() {
    use crate::trace::{ServedFrom, TraceEvent};
    let mut mem = MemorySystem::new(eager_cfg());
    mem.set_trace_capacity(64);
    ok(&mut mem, 0, read(0, 0x40, 0));
    ok(&mut mem, 10, read(0, 0x40, 1));
    ok(&mut mem, 20, write(0, 0x40, 1, 111));
    ok(&mut mem, 30, read(0, 0x40, 2));
    ok(&mut mem, 40, write(0, 0x40, 2, 222));
    ok(&mut mem, 50, read(1, 0x40, 1));
    mem.commit(60, Vid(1)).unwrap();
    mem.commit(70, Vid(2)).unwrap();

    let events = mem.take_trace();
    // Two splits (one per speculative store), a peer transfer for thread 2's
    // read, and two commits.
    let splits: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Split {
                retained, created, ..
            } => Some((retained.clone(), created.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(
        splits,
        vec![
            ("S-O(0,1)".to_string(), "S-M(1,1)".to_string()),
            ("S-O(1,2)".to_string(), "S-M(2,2)".to_string()),
        ]
    );
    assert!(events.iter().any(|e| matches!(
        e,
        TraceEvent::Access {
            served: ServedFrom::Peer,
            vid: Vid(1),
            ..
        }
    )));
    let commits: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Commit { vid, .. } => Some(*vid),
            _ => None,
        })
        .collect();
    assert_eq!(commits, vec![Vid(1), Vid(2)]);
    // The rendered trace is human-readable.
    let text = crate::trace::render_trace(&events);
    assert!(text.contains("split"));
    assert!(text.contains("commit v1"));
}

#[test]
fn trace_records_misspeculation() {
    use crate::trace::TraceEvent;
    let mut mem = MemorySystem::new(cfg());
    mem.set_trace_capacity(16);
    ok(&mut mem, 0, read(1, 0x100, 2));
    let _ = misspec(&mut mem, 10, write(0, 0x100, 1, 7));
    mem.abort_all(20);
    let events = mem.take_trace();
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::Misspec { .. })));
    assert!(events.iter().any(|e| matches!(e, TraceEvent::Abort { .. })));
}

// ------------------------------------------- plain MOESI corners (VID 0)

#[test]
fn moesi_read_sharing_downgrades_the_owner() {
    let mut mem = MemorySystem::new(cfg());
    ok(&mut mem, 0, write(0, 0x500, 0, 9)); // core0: M
    assert_eq!(states(&mem, 0x500), vec![("L1[0]".into(), "M(0,0)".into())]);
    ok(&mut mem, 10, read(1, 0x500, 0)); // share
    assert_eq!(
        states(&mem, 0x500),
        vec![
            ("L1[0]".into(), "O(0,0)".into()),
            ("L1[1]".into(), "S(0,0)".into())
        ]
    );
    // A third reader is served without disturbing ownership.
    ok(&mut mem, 20, read(2, 0x500, 0));
    let s = states(&mem, 0x500);
    assert!(s.contains(&("L1[0]".into(), "O(0,0)".into())), "{s:?}");
}

#[test]
fn moesi_write_invalidates_all_sharers() {
    let mut mem = MemorySystem::new(cfg());
    ok(&mut mem, 0, write(0, 0x500, 0, 9));
    ok(&mut mem, 10, read(1, 0x500, 0));
    ok(&mut mem, 20, read(2, 0x500, 0));
    ok(&mut mem, 30, write(3, 0x500, 0, 10)); // upgrade from core3
    let s = states(&mem, 0x500);
    assert_eq!(s, vec![("L1[3]".into(), "M(0,0)".into())], "{s:?}");
    let (v, _) = ok(&mut mem, 40, read(0, 0x500, 0));
    assert_eq!(v, 10);
}

#[test]
fn moesi_clean_exclusive_fill_from_memory() {
    let mut mem = MemorySystem::new(cfg());
    mem.memory_mut().write_word(Addr(0x600), 5);
    ok(&mut mem, 0, read(0, 0x600, 0));
    assert_eq!(states(&mem, 0x600), vec![("L1[0]".into(), "E(0,0)".into())]);
    // A second reader turns both into shared copies.
    ok(&mut mem, 10, read(1, 0x600, 0));
    assert_eq!(
        states(&mem, 0x600),
        vec![
            ("L1[0]".into(), "S(0,0)".into()),
            ("L1[1]".into(), "S(0,0)".into())
        ]
    );
}

#[test]
fn moesi_dirty_data_survives_eviction_to_memory() {
    // Write a value, then stream enough conflicting lines through the tiny
    // hierarchy to evict it all the way to memory; the value must survive.
    let mut mem = MemorySystem::new(tiny_cfg());
    ok(&mut mem, 0, write(0, 0x0, 0, 1234));
    for i in 1..200u64 {
        ok(&mut mem, i * 10, read(0, i * 64, 0));
    }
    let (v, _) = ok(&mut mem, 10_000, read(1, 0x0, 0));
    assert_eq!(v, 1234);
}

#[test]
fn spec_read_of_shared_line_gains_exclusivity_first() {
    // Figure 4's note: O and S follow the same path as M or E once
    // acquiring exclusive access.
    let mut mem = MemorySystem::new(cfg());
    ok(&mut mem, 0, write(0, 0x700, 0, 3));
    ok(&mut mem, 10, read(1, 0x700, 0)); // O@0, S@1
    ok(&mut mem, 20, read(1, 0x700, 1)); // speculative read on the S copy
    let s = states(&mem, 0x700);
    assert_eq!(s.len(), 1, "other copies invalidated: {s:?}");
    assert!(
        s[0].1.starts_with("S-M(0,1)") || s[0].1.starts_with("S-E(0,1)"),
        "{s:?}"
    );
    let upgrades = mem.stats().upgrades;
    assert!(upgrades >= 1);
}

// ------------------------------------------- proptest regression (PR 1)

/// Pins the shrunk counterexample from
/// `tests/proptest_serializability.proptest-regressions` as a deterministic
/// unit test (the vendored proptest stub cannot replay upstream `cc` seeds).
///
/// Schedule (committing each transaction as soon as it and all earlier ones
/// have finished, exactly as the property test drives it):
///
/// 1. tx1 @ core1: write 0x40000 = 0
/// 2. tx2 @ core1: read  0x40040
/// 3. tx1 @ core0: read  0x40000   (tx1's S-M version migrates to core 0)
/// 4. tx1 @ core3: read  0x40000   (and on to core 3) → commit(1)
/// 5. tx2 @ core0: read  0x40040
/// 6. tx2 @ core2: read  0x40040
/// 7. tx2 @ core3: write 0x40000 = BIG → commit(2)
///
/// Serial VID order ends with 0x40000 = BIG (tx2's write lands last): tx2's
/// later-VID store to the line tx1 speculatively wrote and migrated across
/// cores must split off a fresh S-M(2,2) version (§4.3) rather than losing
/// the store or the migrated tx1 version. Pinned here so the schedule keeps
/// running even though the vendored proptest cannot replay `cc` seeds.
#[test]
fn regression_later_vid_write_to_migrated_line_is_not_lost() {
    const A: u64 = 0x4_0000;
    const B: u64 = 0x4_0040;
    const BIG: u64 = 14448302813484138936;
    for lazy in [true, false] {
        let mut c = cfg();
        c.hmtx.lazy_commit = lazy;
        let mut mem = MemorySystem::new(c);
        ok(&mut mem, 10, write(1, A, 1, 0));
        ok(&mut mem, 20, read(1, B, 2));
        ok(&mut mem, 30, read(0, A, 1));
        ok(&mut mem, 40, read(3, A, 1));
        mem.commit(50, Vid(1)).unwrap();
        ok(&mut mem, 60, read(0, B, 2));
        ok(&mut mem, 70, read(2, B, 2));
        ok(&mut mem, 80, write(3, A, 2, BIG));
        mem.commit(90, Vid(2)).unwrap();
        let violations = mem.check_invariants();
        assert!(violations.is_empty(), "lazy={lazy}: {violations:?}");
        mem.drain_committed().expect("no speculative leftovers");
        assert_eq!(
            mem.memory().read_word(Addr(A)),
            BIG,
            "lazy={lazy}: tx2's committed write must win over tx1's"
        );
        assert_eq!(mem.memory().read_word(Addr(B)), 0, "lazy={lazy}");
    }
}

// ------------------------------------- wrong-path SLA acknowledgment §5.1

/// Wrong-path loads are acknowledged without an SLA: the squashed load
/// reads the line's current content and leaves no read mark, and a later
/// §5.1 verification of the acknowledged value behaves exactly like a
/// correct-path check — passing while the content is unchanged, reporting
/// `SlaValueMismatch` once a lower-VID store (legal, because no mark was
/// left) rewrites the line.
#[test]
fn wrong_path_load_acknowledgment_is_verifiable_but_sla_free() {
    let mut mem = MemorySystem::new(cfg());
    mem.memory_mut().write_word(Addr(0x100), 5);
    let (v, sla) = ok(&mut mem, 0, wrong_path_read(1, 0x100, 2));
    assert_eq!(v, 5);
    assert!(!sla, "wrong-path loads never request an SLA");
    assert_eq!(mem.stats().slas_sent, 0);
    // Replayed on the correct path, the acknowledged value still verifies...
    assert!(mem.verify_sla(Addr(0x100), Vid(2), 5).is_none());
    // ...until VID 1 stores to the unmarked line, after which the stale
    // acknowledgment is detected and the fresh forwarded value verifies.
    ok(&mut mem, 10, write(0, 0x100, 1, 7));
    assert_eq!(mem.stats().sla_aborts_avoided, 1);
    assert!(matches!(
        mem.verify_sla(Addr(0x100), Vid(2), 5),
        Some(MisspecCause::SlaValueMismatch { .. })
    ));
    assert!(mem.verify_sla(Addr(0x100), Vid(2), 7).is_none());
}

/// A wrong-path load served by a peer's uncommitted version is also
/// acknowledged SLA-free: forwarding still answers with the speculative
/// data, but neither side records a VID mark for the squashed reader, so
/// the whole group commits as if the load never happened.
#[test]
fn wrong_path_load_forwarded_from_a_peer_leaves_no_marks() {
    let mut mem = MemorySystem::new(cfg());
    ok(&mut mem, 0, write(0, 0x100, 1, 7));
    let (v, sla) = ok(&mut mem, 10, wrong_path_read(1, 0x100, 3));
    assert_eq!(v, 7, "forwarding also serves squashed loads");
    assert!(!sla, "peer-supplied wrong-path loads need no SLA");
    let s = states(&mem, 0x100);
    assert!(
        s.iter().all(|(_, st)| !st.contains(",3)")),
        "no VID-3 mark may survive the squashed load: {s:?}"
    );
    // An intervening VID-2 store to the same line stays legal.
    ok(&mut mem, 20, write(2, 0x100, 2, 9));
    mem.commit(30, Vid(1)).unwrap();
    mem.commit(40, Vid(2)).unwrap();
    mem.commit(50, Vid(3)).unwrap();
    let violations = mem.check_invariants();
    assert!(violations.is_empty(), "{violations:?}");
    mem.drain_committed().unwrap();
    assert_eq!(mem.memory().read_word(Addr(0x100)), 9);
}

// -------------------------------------------- VID exhaustion mid-run §4.6

/// Exhausting the VID space mid-run with a tiny `vid_bits`: a group that
/// occupies every available VID (with cross-VID forwarding inside it)
/// commits in order, the §4.6 reset restarts numbering, and the reused
/// VID 1 builds correctly on the previous group's committed data.
#[test]
fn vid_space_exhaustion_resets_and_reuses_vids_against_committed_data() {
    let mut c = cfg();
    c.hmtx.vid_bits = 2; // max_vid = 3: the whole VID space is one group.
    let mut mem = MemorySystem::new(c);
    ok(&mut mem, 0, write(0, 0x100, 1, 11));
    let (v, _) = ok(&mut mem, 10, read(1, 0x100, 2));
    assert_eq!(v, 11, "forwarding inside the exhausting group");
    ok(&mut mem, 20, write(1, 0x140, 2, 22));
    ok(&mut mem, 30, write(2, 0x180, 3, 33));
    mem.commit(40, Vid(1)).unwrap();
    mem.commit(50, Vid(2)).unwrap();
    mem.commit(60, Vid(3)).unwrap();
    let latency = mem.vid_reset(70);
    assert!(latency > 0, "the reset broadcast takes time");
    assert_eq!(mem.stats().vid_resets, 1);
    assert_eq!(mem.last_committed(), Vid(0), "numbering restarts");
    // The reused VID 1 reads the old group's data and overwrites one line.
    let (v, _) = ok(&mut mem, 80, read(3, 0x100, 1));
    assert_eq!(v, 11, "committed data survives the reset");
    ok(&mut mem, 90, write(3, 0x140, 1, 44));
    mem.commit(100, Vid(1)).unwrap();
    let violations = mem.check_invariants();
    assert!(violations.is_empty(), "{violations:?}");
    mem.drain_committed().unwrap();
    assert_eq!(mem.memory().read_word(Addr(0x100)), 11);
    assert_eq!(mem.memory().read_word(Addr(0x140)), 44);
    assert_eq!(mem.memory().read_word(Addr(0x180)), 33);
}

// ------------------------------------ speculative read-set eviction §5.4

/// Read marks may not silently leave the hierarchy: an `S-E(0,·)` victim is
/// not `safe_to_overflow` (dropping it would blind conflict detection), so
/// a transaction whose read set outgrows the tiny hierarchy must abort with
/// `SpecOverflow` — after the caches demonstrably held a useful number of
/// marks.
#[test]
fn read_set_eviction_pressure_aborts_rather_than_dropping_marks() {
    let mut mem = MemorySystem::new(tiny_cfg());
    for i in 0..200u64 {
        mem.memory_mut().write_word(Addr(i * 64), 100 + i);
    }
    let mut aborted_at = None;
    for i in 0..200u64 {
        match mem.access(i * 10, &read(0, i * 64, 1)).unwrap() {
            AccessResponse::Done { value, .. } => assert_eq!(value, 100 + i),
            AccessResponse::Misspec { cause, .. } => {
                assert!(matches!(cause, MisspecCause::SpecOverflow { .. }));
                aborted_at = Some(i);
                break;
            }
        }
    }
    let at = aborted_at.expect("a read set larger than the hierarchy must abort");
    assert!(
        at >= 8,
        "the hierarchy held several marks first, aborted at {at}"
    );
}

/// With the §8 unbounded-sets extension the same pressure spills read marks
/// into the overflow table instead of aborting, and the group still commits
/// and drains cleanly.
#[test]
fn unbounded_sets_spill_read_marks_instead_of_aborting() {
    let mut c = tiny_cfg();
    c.unbounded_sets = true;
    let mut mem = MemorySystem::new(c);
    for i in 0..64u64 {
        mem.memory_mut().write_word(Addr(i * 64), 100 + i);
    }
    for i in 0..64u64 {
        let (v, _) = ok(&mut mem, i * 10, read(0, i * 64, 1));
        assert_eq!(v, 100 + i);
    }
    assert!(
        mem.stats().unbounded_spills > 0,
        "the tiny hierarchy must have spilled read marks"
    );
    mem.commit(1_000, Vid(1)).unwrap();
    let violations = mem.check_invariants();
    assert!(violations.is_empty(), "{violations:?}");
    mem.drain_committed().unwrap();
    for i in 0..64u64 {
        assert_eq!(mem.memory().read_word(Addr(i * 64)), 100 + i);
    }
}
