//! Corpus seed I/O: replayable [`ScheduleSeed`]s on disk.
//!
//! `hmtx-explore --corpus-dir DIR` pins the first failing machine schedule
//! into `DIR`; the pinned corpus (`tests/corpus/`) holds such seeds next to
//! the model checker's lowered `ops` counterexamples, and
//! `tests/explore_corpus.rs` and `hmtx-run --replay` replay them
//! byte-deterministically.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use hmtx_machine::ScheduleSeed;
use hmtx_types::{Json, SeedBug, SimError};

/// The file stem `hmtx-explore --corpus-dir` pins a failing machine schedule
/// of `kernel` under: `regression_{kernel}`, plus the planted defect's
/// name when one is set, so machine seeds never overwrite each other or
/// the model checker's `regression_{bug}` op seeds.
#[must_use]
pub fn corpus_stem(kernel: &str, seed_bug: Option<SeedBug>) -> String {
    match seed_bug {
        Some(bug) => format!("regression_{kernel}_{}", bug.name().replace('-', "_")),
        None => format!("regression_{kernel}"),
    }
}

/// Reads and parses a seed file.
///
/// # Errors
///
/// Returns [`SimError::BadProgram`] when the file is unreadable or not a
/// valid seed document.
pub fn read_seed(path: &Path) -> Result<ScheduleSeed, SimError> {
    let text = fs::read_to_string(path)
        .map_err(|e| SimError::BadProgram(format!("cannot read `{}`: {e}", path.display())))?;
    let doc = Json::parse(&text)
        .map_err(|e| SimError::BadProgram(format!("`{}`: {e}", path.display())))?;
    ScheduleSeed::from_json(&doc)
}

/// Writes a seed under `dir` as `<file_stem>.json` (pretty-printed, fixed
/// key order — byte-identical for identical seeds). Creates `dir` if
/// missing. Returns the written path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_seed(dir: &Path, file_stem: &str, seed: &ScheduleSeed) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{file_stem}.json"));
    let mut text = seed.to_json().pretty();
    text.push('\n');
    fs::write(&path, text)?;
    Ok(path)
}

/// Lists the seed files under `dir`, sorted by file name.
///
/// # Errors
///
/// Propagates filesystem errors (a missing directory yields an empty list).
pub fn list_seeds(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "json") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_round_trip_through_disk_byte_identically() {
        let dir = std::env::temp_dir().join("hmtx_explore_seed_test");
        let seed = ScheduleSeed {
            kind: "ops".into(),
            name: "migrated_line".into(),
            seed_bug: Some("stale-migration-replica".into()),
            picks: vec![],
            order: vec![0, 1],
            note: "unit test".into(),
        };
        let p1 = write_seed(&dir, "roundtrip", &seed).unwrap();
        let bytes1 = std::fs::read(&p1).unwrap();
        assert_eq!(read_seed(&p1).unwrap(), seed);
        let p2 = write_seed(&dir, "roundtrip", &seed).unwrap();
        assert_eq!(bytes1, std::fs::read(&p2).unwrap());
        assert!(list_seeds(&dir).unwrap().contains(&p1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn machine_seed_stems_never_collide_with_the_pinned_corpus() {
        let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
        let pinned: Vec<String> = list_seeds(&corpus)
            .unwrap()
            .iter()
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        assert!(pinned.contains(&"regression_stale_migration_replica".to_string()));
        let bug = Some(SeedBug::StaleMigrationReplica);
        for kernel in crate::asm_kernels() {
            let stem = corpus_stem(kernel.name, bug);
            assert!(
                !pinned.contains(&stem),
                "{stem} would overwrite a pinned seed"
            );
            assert_ne!(stem, corpus_stem(kernel.name, None));
        }
        assert_eq!(
            corpus_stem("race_detect", bug),
            "regression_race_detect_stale_migration_replica"
        );
    }
}
