//! The benchmark suite: the 8 workload analogues and their registry.

use crate::meta::{paper_table1, WorkloadMeta};
use hmtx_runtime::LoopBody;
use hmtx_types::cli::UsageError;
use hmtx_types::{SimError, WireScale};

/// How large to build a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Small instances for unit/integration tests (seconds); the default.
    #[default]
    Quick,
    /// The benchmark-harness instances used for the paper figures.
    Standard,
    /// Long-transaction stress instances (hundreds of thousands of
    /// speculative accesses per transaction) for resilience tests.
    Stress,
}

impl From<WireScale> for Scale {
    fn from(scale: WireScale) -> Scale {
        match scale {
            WireScale::Quick => Scale::Quick,
            WireScale::Standard => Scale::Standard,
            WireScale::Stress => Scale::Stress,
        }
    }
}

/// A benchmark workload: a parallelizable loop plus its paper metadata.
pub trait Workload: LoopBody {
    /// Static description and the paper's reported numbers.
    fn meta(&self) -> WorkloadMeta;
}

/// Looks up the paper metadata row by benchmark name.
///
/// # Errors
///
/// Returns [`SimError::BadProgram`] listing the valid names when `name` is
/// not one of the 8 benchmarks.
pub fn meta_for(name: &str) -> Result<WorkloadMeta, SimError> {
    let table = paper_table1();
    table
        .iter()
        .find(|m| m.name == name)
        .copied()
        .ok_or_else(|| {
            let valid: Vec<&str> = table.iter().map(|m| m.name).collect();
            SimError::BadProgram(format!(
                "unknown benchmark `{name}` (valid benchmarks: {})",
                valid.join(", ")
            ))
        })
}

/// Resolves a command-line workload name to its index in [`suite`]: an
/// exact name, a substring of exactly one name (`li`, `gzip`), or a raw
/// `suite:N` index.
///
/// # Errors
///
/// A [`UsageError`] listing the valid names when `name` matches none of
/// them, or the candidates when it matches several.
pub fn resolve_workload(name: &str) -> Result<usize, UsageError> {
    let names: Vec<&str> = paper_table1().iter().map(|m| m.name).collect();
    let hits: Vec<usize> = if let Some(i) = name.strip_prefix("suite:") {
        i.parse().into_iter().filter(|&i| i < names.len()).collect()
    } else if let Some(i) = names.iter().position(|&n| n == name) {
        vec![i]
    } else {
        (0..names.len())
            .filter(|&i| names[i].contains(name))
            .collect()
    };
    let matched: Vec<&str> = hits.iter().map(|&i| names[i]).collect();
    match hits[..] {
        [i] => Ok(i),
        [] => Err(UsageError::new(format!(
            "unknown workload `{name}`; known: {} (or suite:N, N < {})",
            names.join(", "),
            names.len()
        ))),
        _ => Err(UsageError::new(format!(
            "ambiguous workload `{name}`: {}",
            matched.join(", ")
        ))),
    }
}

/// Builds the full 8-benchmark suite at the given scale, in Table 1 order.
pub fn suite(scale: Scale) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(crate::alvinn::Alvinn::new(scale)),
        Box::new(crate::li::Li::new(scale)),
        Box::new(crate::gzip::Gzip::new(scale)),
        Box::new(crate::crafty::Crafty::new(scale)),
        Box::new(crate::parser::Parser::new(scale)),
        Box::new(crate::bzip2::Bzip2::new(scale)),
        Box::new(crate::hmmer::Hmmer::new(scale)),
        Box::new(crate::ispell::Ispell::new(scale)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_table1_order_and_metadata() {
        let s = suite(Scale::Quick);
        let t = paper_table1();
        assert_eq!(s.len(), 8);
        for (w, m) in s.iter().zip(t.iter()) {
            assert_eq!(w.meta().name, m.name);
            assert_eq!(w.meta().paradigm, m.paradigm);
        }
    }

    #[test]
    fn standard_scale_is_larger_than_quick() {
        for (q, s) in suite(Scale::Quick)
            .iter()
            .zip(suite(Scale::Standard).iter())
        {
            assert!(
                q.iterations() <= s.iterations(),
                "{}: quick {} > standard {}",
                q.meta().name,
                q.iterations(),
                s.iterations()
            );
        }
    }

    #[test]
    fn meta_for_unknown_name_lists_valid_benchmarks() {
        let err = meta_for("999.nonesuch").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("999.nonesuch"), "{msg}");
        for m in paper_table1() {
            assert!(msg.contains(m.name), "missing {} in: {msg}", m.name);
        }
    }

    #[test]
    fn workload_names_resolve_exactly_and_by_substring() {
        let names: Vec<&str> = paper_table1().iter().map(|m| m.name).collect();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(resolve_workload(name).unwrap(), i);
            assert_eq!(resolve_workload(&format!("suite:{i}")).unwrap(), i);
        }
        assert_eq!(resolve_workload("li").unwrap(), 1);
        assert_eq!(resolve_workload("gzip").unwrap(), 2);
        let err = resolve_workload("i").unwrap_err().to_string();
        assert!(
            err.starts_with("ambiguous workload `i`: 052.alvinn, 130.li"),
            "{err}"
        );
        let err = resolve_workload("nope").unwrap_err().to_string();
        assert!(
            err.contains("unknown workload `nope`") && err.contains("ispell"),
            "{err}"
        );
        for bad in ["suite:8", "suite:x"] {
            let err = resolve_workload(bad).unwrap_err().to_string();
            assert!(
                err.starts_with(&format!("unknown workload `{bad}`")),
                "{err}"
            );
        }
    }

    #[test]
    fn meta_for_known_names_resolve() {
        for m in paper_table1() {
            assert_eq!(meta_for(m.name).unwrap().name, m.name);
        }
    }
}
