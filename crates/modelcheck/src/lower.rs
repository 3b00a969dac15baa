//! Lowering counterexample traces to replayable [`ScheduleSeed`]s.
//!
//! The checker's traces are transaction-major op-id sequences over a named
//! kernel, which is exactly the `"ops"` seed format of `tests/corpus/`.
//! Hand-written op kernels are found by name, and a model kernel's name
//! encodes its configuration
//! ([`hmtx_types::ModelCheckConfig::kernel_name`]), so a lowered seed is
//! fully self-contained: `hmtx-run --replay seed.json` rebuilds the kernel
//! by name and re-executes the trace under the same strict semantics
//! ([`hmtx_explore::execute_order_checked`]) the checker stepped with.

use hmtx_explore::OpKernel;
use hmtx_machine::ScheduleSeed;
use hmtx_types::{ModelCheckConfig, ModelViolation};

/// Lowers one violation to a replayable seed.
#[must_use]
pub fn lower(kernel: &OpKernel, cfg: &ModelCheckConfig, v: &ModelViolation) -> ScheduleSeed {
    ScheduleSeed {
        kind: "ops".to_string(),
        name: kernel.name.to_string(),
        seed_bug: cfg.seed_bug.map(|b| b.name().to_string()),
        picks: Vec::new(),
        order: v.order.clone(),
        note: format!(
            "lowered from hmtx-model: [{}] at depth {}: {}",
            v.rule, v.depth, v.detail
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmtx_explore::model_kernel;

    #[test]
    fn lowered_seed_round_trips_through_json() {
        let cfg = ModelCheckConfig::default();
        let kernel = model_kernel(&cfg);
        let v = ModelViolation {
            rule: "at most one S-M version per address".into(),
            detail: "synthetic".into(),
            depth: 3,
            trace: vec!["op 0".into(), "op 4".into(), "op 1".into()],
            order: vec![0, 4, 1],
        };
        let seed = lower(&kernel, &cfg, &v);
        assert_eq!(seed.kind, "ops");
        assert_eq!(seed.name, "model-c2-l2-v2");
        let parsed = ScheduleSeed::from_json(&seed.to_json()).unwrap();
        assert_eq!(parsed, seed);
        assert!(
            hmtx_explore::resolve_kernel(&parsed.name).is_some(),
            "lowered seeds must resolve back to a kernel by name"
        );
    }
}
