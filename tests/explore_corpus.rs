//! Replay of the pinned exploration corpus (`tests/corpus/*.json`).
//!
//! Every pinned seed replays here, byte-deterministically, on every tier-1
//! run: the generic sweep replays each file twice and demands identical
//! outcomes, and each named `regression_*` test asserts the specific
//! behaviour its seed was pinned for. `ops` seeds are model-checker
//! counterexamples, replayed by the checker's own executor; `machine`
//! seeds are explorer divergences. Regenerate the corpus with
//! `cargo test -p hmtx-explore --test explore_corpus -- --ignored`.

use std::path::{Path, PathBuf};

use hmtx_explore::mexplore::{run_one, MachineOutcome, MachineSpec};
use hmtx_explore::opexplore::OpOutcome;
use hmtx_explore::{asm_kernels, execute_order_checked, resolve_kernel, seed};
use hmtx_machine::ScheduleSeed;
use hmtx_types::{ModelCheckConfig, SeedBug};

const MACHINE_BUDGET: u64 = 50_000;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

fn load(stem: &str) -> ScheduleSeed {
    let path = corpus_dir().join(format!("{stem}.json"));
    seed::read_seed(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn parse_bug(stored: &ScheduleSeed) -> Option<SeedBug> {
    stored
        .seed_bug
        .as_deref()
        .map(|n| SeedBug::from_name(n).unwrap_or_else(|| panic!("unknown seed bug `{n}`")))
}

fn replay_ops(stored: &ScheduleSeed) -> OpOutcome {
    let kernel =
        resolve_kernel(&stored.name).unwrap_or_else(|| panic!("no op kernel `{}`", stored.name));
    execute_order_checked(&kernel, &stored.order, parse_bug(stored))
}

fn replay_machine(stored: &ScheduleSeed) -> MachineOutcome {
    let kernel = asm_kernels()
        .into_iter()
        .find(|k| k.name == stored.name)
        .unwrap_or_else(|| panic!("no machine kernel `{}`", stored.name));
    let spec = MachineSpec::from_kernel(&kernel, MACHINE_BUDGET, parse_bug(stored)).unwrap();
    run_one(&spec, &stored.picks, true).0
}

#[test]
fn every_corpus_seed_replays_byte_deterministically() {
    let files = seed::list_seeds(&corpus_dir()).unwrap();
    assert!(!files.is_empty(), "corpus must not be empty");
    for path in files {
        let stored = seed::read_seed(&path).unwrap();
        match stored.kind.as_str() {
            "ops" => {
                let a = replay_ops(&stored);
                let b = replay_ops(&stored);
                assert_eq!(a.committed, b.committed, "{}", path.display());
                assert_eq!(a.misspec, b.misspec, "{}", path.display());
                assert_eq!(a.failure, b.failure, "{}", path.display());
            }
            "machine" => {
                let a = replay_machine(&stored);
                let b = replay_machine(&stored);
                assert_eq!(a.committed, b.committed, "{}", path.display());
                assert_eq!(a.misspec, b.misspec, "{}", path.display());
                assert_eq!(a.failure, b.failure, "{}", path.display());
            }
            other => panic!("{}: unknown seed kind `{other}`", path.display()),
        }
    }
}

/// The planted-defect counterexample: under `stale-migration-replica` a
/// speculative-read migration leaves a live duplicate of the version at the
/// supplier, and hit uniqueness fails right after the migrating load. The
/// seed is `hmtx-model`'s breadth-first counterexample on `migrated_line`,
/// so no shorter order fails; it is well under the 7 ops of the originally
/// recorded schedule and must stay clean on the real protocol.
#[test]
fn regression_stale_migration_replica() {
    let stored = load("regression_stale_migration_replica");
    assert_eq!(stored.kind, "ops");
    assert_eq!(stored.name, "migrated_line");
    assert!(stored.order.len() <= 7, "pinned length was 7 ops");

    let buggy = replay_ops(&stored);
    let failure = buggy.failure.expect("planted defect must reproduce");
    assert_eq!(failure.kind, "invariant", "{failure}");
    assert_eq!(
        failure.rule(),
        "at most one responding version hits per VID"
    );

    let mut clean_seed = stored.clone();
    clean_seed.seed_bug = None;
    let clean = replay_ops(&clean_seed);
    assert!(
        clean.failure.is_none(),
        "real protocol must be clean on the pinned schedule: {:?}",
        clean.failure
    );
}

/// A pinned `race_detect` divergence whose schedule lands the unordered
/// transactional read before the earlier transaction's store: the machine
/// must misspeculate (never commit a stale value) and the post-abort
/// hierarchy must stay sound.
#[test]
fn regression_race_detect_misspec() {
    let stored = load("regression_race_detect_misspec");
    assert_eq!(stored.kind, "machine");
    assert_eq!(stored.name, "race_detect");
    let outcome = replay_machine(&stored);
    assert!(outcome.failure.is_none(), "{:?}", outcome.failure);
    assert!(
        outcome.misspec.is_some(),
        "pinned schedule must misspeculate, got commit of v{}",
        outcome.committed
    );
}

/// A pinned divergent `handoff` schedule: even off the min-clock baseline,
/// the hand-off must commit both transactions and match the sequential TM
/// oracle (checked inside `run_one`).
#[test]
fn regression_handoff_divergent() {
    let stored = load("regression_handoff_divergent");
    assert_eq!(stored.kind, "machine");
    assert_eq!(stored.name, "handoff");
    assert!(!stored.picks.is_empty(), "the pin is a divergent schedule");
    let outcome = replay_machine(&stored);
    assert!(outcome.failure.is_none(), "{:?}", outcome.failure);
    assert!(outcome.misspec.is_none(), "hand-off is race-free");
    assert_eq!(outcome.committed, 2);
}

/// Regenerates the corpus from scratch (run with `-- --ignored`): lower the
/// model checker's planted-defect counterexample on `migrated_line` (the
/// seed `hmtx-model --kernel migrated_line --seed-bug
/// stale-migration-replica --seed-out` writes), then pin one misspeculating
/// `race_detect` divergence and one divergent clean `handoff` schedule.
#[test]
#[ignore = "corpus generator, writes into tests/corpus/"]
fn regenerate_corpus() {
    let dir = corpus_dir();

    // 1. The planted-defect counterexample, found breadth-first.
    let kernel = resolve_kernel("migrated_line").unwrap();
    let cfg = ModelCheckConfig {
        seed_bug: Some(SeedBug::StaleMigrationReplica),
        ..ModelCheckConfig::default()
    };
    let report = hmtx_modelcheck::check_kernel(&kernel, &cfg);
    let v = report
        .violations
        .first()
        .expect("the checker rediscovers the planted defect");
    seed::write_seed(
        &dir,
        "regression_stale_migration_replica",
        &hmtx_modelcheck::lower(&kernel, &cfg, v),
    )
    .unwrap();

    // 2/3. Machine-level pins, found by one level of divergence search.
    for (kernel_name, want_misspec, stem) in [
        ("race_detect", true, "regression_race_detect_misspec"),
        ("handoff", false, "regression_handoff_divergent"),
    ] {
        let kernel = asm_kernels()
            .into_iter()
            .find(|k| k.name == kernel_name)
            .unwrap();
        let spec = MachineSpec::from_kernel(&kernel, MACHINE_BUDGET, None).unwrap();
        let (root, branches) = run_one(&spec, &[], true);
        assert!(root.failure.is_none());
        let picks = branches
            .iter()
            .flat_map(|(step, alts)| alts.iter().map(move |&c| vec![(*step, c)]))
            .find(|picks| {
                let (o, _) = run_one(&spec, picks, true);
                o.failure.is_none() && o.misspec.is_some() == want_misspec
            })
            .unwrap_or_else(|| panic!("{kernel_name}: no single divergence flips the outcome"));
        seed::write_seed(
            &dir,
            stem,
            &ScheduleSeed {
                kind: "machine".into(),
                name: kernel_name.to_string(),
                seed_bug: None,
                picks,
                order: Vec::new(),
                note: format!(
                    "pinned by hmtx-explore: single divergence, {}",
                    if want_misspec {
                        "read-first schedule misspeculates"
                    } else {
                        "divergent schedule still matches the oracle"
                    }
                ),
            },
        )
        .unwrap();
    }
}
