//! Machine-readable experiment reports (`experiments --json PATH`).
//!
//! The report mirrors the printed sections — every figure/table row, with
//! its cycle counts and speedups — plus a `sim_jobs` array giving each
//! underlying simulation's content key (the `JobSpec::key` `hmtx-serve`
//! caches it under) and wall-clock seconds, so regressions in both
//! *results* and *harness cost* diff cleanly across commits.
//!
//! JSON is emitted by a tiny handwritten serializer ([`Json`]): the
//! container has no serde, and the report's needs (ordered objects, stable
//! float formatting) are small enough that a dependency would be all cost.

use hmtx_types::{Json, SimError};

use crate::runner::SimPool;
use crate::Section;

/// A HyTM fast/slow-path mix (`null` for a run without one): Figure 8's
/// `hytm_mix` rows and the `hytm` block of a served job report.
pub(crate) fn hytm_mix_json(mix: Option<&hmtx_runtime::HytmMix>) -> Json {
    let Some(m) = mix else { return Json::Null };
    Json::obj(vec![
        ("fast_commits", Json::Uint(m.fast_commits)),
        ("slow_commits", Json::Uint(m.slow_commits)),
        ("demotions", Json::Uint(m.demotions())),
        (
            "demotions_by_cause",
            Json::obj(
                hmtx_runtime::DemotionCause::ALL
                    .iter()
                    .zip(m.demotions_by_cause.iter())
                    .map(|(c, n)| (c.name(), Json::Uint(*n)))
                    .collect(),
            ),
        ),
        ("fast_retries", Json::Uint(m.fast_retries)),
        ("backoff_cycles", Json::Uint(m.backoff_cycles)),
        ("storm_serializations", Json::Uint(m.storm_serializations)),
    ])
}

fn ablation_json(rows: &[crate::AblationRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("label", Json::Str(r.label.clone())),
                    ("cycles", Json::Uint(r.cycles)),
                    ("detail", Json::Str(r.detail.clone())),
                ])
            })
            .collect(),
    )
}

/// Assembles the JSON report for the given sections. Each section runs its
/// batch on `pool`, so after the sections have been rendered every
/// simulation is a cache hit.
///
/// # Errors
///
/// Propagates [`SimError`] from any simulation run.
pub fn build_report(pool: &SimPool, sections: &[Section]) -> Result<Json, SimError> {
    let cfg = pool.base_cfg();
    let mut top: Vec<(&'static str, Json)> = vec![
        ("schema", Json::Str("hmtx-bench-report/1".into())),
        (
            "scale",
            Json::Str(format!("{:?}", pool.scale()).to_lowercase()),
        ),
        (
            "sections",
            Json::Arr(
                sections
                    .iter()
                    .map(|s| Json::Str(s.name().into()))
                    .collect(),
            ),
        ),
    ];

    for section in sections {
        let value = match section {
            Section::Table2 => Json::obj(vec![
                ("num_cores", Json::Uint(cfg.num_cores as u64)),
                ("l1_kb", Json::Uint(cfg.l1.size_bytes as u64 / 1024)),
                ("l2_kb", Json::Uint(cfg.l2.size_bytes as u64 / 1024)),
                ("mem_latency", Json::Uint(cfg.mem_latency)),
                ("vid_bits", Json::Uint(u64::from(cfg.hmtx.vid_bits))),
            ]),
            Section::Fig1 => Json::Str(crate::fig1::fig1(pool)?),
            Section::Fig2 => Json::Arr(
                crate::fig2(pool)?
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("name", Json::Str(r.name.clone())),
                            ("minimal", Json::Num(r.minimal)),
                            ("substantial", Json::Num(r.substantial)),
                        ])
                    })
                    .collect(),
            ),
            Section::Fig8 => {
                let (rows, summary) = crate::fig8(pool)?;
                Json::obj(vec![
                    (
                        "rows",
                        Json::Arr(
                            rows.iter()
                                .map(|r| {
                                    Json::obj(vec![
                                        ("name", Json::Str(r.name.clone())),
                                        ("smtx", r.smtx.map_or(Json::Null, Json::Num)),
                                        ("hmtx", Json::Num(r.hmtx)),
                                        ("hytm", Json::Num(r.hytm)),
                                        ("hytm_mix", hytm_mix_json(r.hytm_mix.as_ref())),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "geomean",
                        Json::obj(vec![
                            ("hmtx_all", Json::Num(summary.hmtx_all)),
                            ("hmtx_comparable", Json::Num(summary.hmtx_comparable)),
                            ("smtx_comparable", Json::Num(summary.smtx_comparable)),
                            ("hytm_all", Json::Num(summary.hytm_all)),
                        ]),
                    ),
                ])
            }
            Section::Fig9 => Json::Arr(
                crate::fig9(pool)?
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("name", Json::Str(r.name.clone())),
                            ("read_kb", Json::Num(r.read_kb)),
                            ("write_kb", Json::Num(r.write_kb)),
                            ("combined_kb", Json::Num(r.combined_kb)),
                        ])
                    })
                    .collect(),
            ),
            Section::Table1 => Json::Arr(
                crate::table1(pool)?
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("name", Json::Str(r.name.clone())),
                            ("paradigm", Json::Str(r.paradigm.into())),
                            ("spec_accesses_per_tx", Json::Num(r.spec_accesses_per_tx)),
                            (
                                "sla_aborts_avoided_per_tx",
                                Json::Num(r.sla_aborts_avoided_per_tx),
                            ),
                            ("loads_needing_sla", Json::Num(r.loads_needing_sla)),
                            ("branch_fraction", Json::Num(r.branch_fraction)),
                            ("mispredict_rate", Json::Num(r.mispredict_rate)),
                        ])
                    })
                    .collect(),
            ),
            Section::Table3 => Json::Arr(
                crate::table3(pool)?
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("hardware", Json::Str(r.hardware.into())),
                            ("exec_model", Json::Str(r.exec_model.clone())),
                            ("area_mm2", Json::Num(r.area_mm2)),
                            ("leakage_w", Json::Num(r.leakage_w)),
                            ("dynamic_w", Json::Num(r.dynamic_w)),
                            ("energy_j", Json::Num(r.energy_j)),
                        ])
                    })
                    .collect(),
            ),
            Section::Ablations => Json::obj(
                crate::ablations(pool)?
                    .iter()
                    .map(|a| (a.key, ablation_json(&a.rows)))
                    .collect(),
            ),
            Section::Extensions => {
                let e = crate::extensions(pool)?;
                Json::obj(vec![
                    (e.unbounded.key, ablation_json(&e.unbounded.rows)),
                    (
                        "scaling",
                        Json::Arr(
                            e.scaling
                                .iter()
                                .map(|r| {
                                    Json::obj(vec![
                                        ("interconnect", Json::Str(r.interconnect.into())),
                                        ("cores", Json::Uint(u64::from(r.cores))),
                                        ("speedup", Json::Num(r.speedup)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "latency",
                        Json::Arr(
                            e.latency
                                .iter()
                                .map(|r| {
                                    Json::obj(vec![
                                        ("latency", Json::Uint(r.latency)),
                                        ("doacross", Json::Num(r.doacross)),
                                        ("psdswp", Json::Num(r.psdswp)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            }
        };
        top.push((section.name(), value));
    }

    let log = pool.job_log();
    let total_wall: f64 = log.iter().map(|e| e.wall_seconds).sum();
    top.push((
        "sim_jobs",
        Json::Arr(
            log.iter()
                .map(|e| {
                    Json::obj(vec![
                        ("label", Json::Str(e.label.clone())),
                        ("key", Json::Str(e.key.clone())),
                        ("cycles", Json::Uint(e.cycles)),
                        ("recoveries", Json::Uint(e.recoveries)),
                        ("wall_seconds", Json::Num(e.wall_seconds)),
                    ])
                })
                .collect(),
        ),
    ));
    top.push((
        "total",
        Json::obj(vec![
            ("sim_jobs", Json::Uint(log.len() as u64)),
            ("sim_wall_seconds", Json::Num(total_wall)),
        ]),
    ));
    Ok(Json::obj(top))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmtx_types::{BenchRef, WireBase, WireParadigm, WireScale, WireVariant};

    #[test]
    fn json_serializer_escapes_and_formats() {
        let v = Json::obj(vec![
            ("s", Json::Str("a\"b\\c\nd\u{1}".into())),
            ("n", Json::Num(1.0)),
            ("u", Json::Uint(u64::MAX)),
            ("inf", Json::Num(f64::INFINITY)),
            ("arr", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("empty", Json::Arr(vec![])),
        ]);
        let text = v.pretty();
        assert!(text.contains(r#""s": "a\"b\\c\nd\u0001""#), "{text}");
        assert!(text.contains("\"n\": 1.0"), "{text}");
        assert!(text.contains(&format!("\"u\": {}", u64::MAX)), "{text}");
        assert!(text.contains("\"inf\": null"), "{text}");
        assert!(text.contains("\"empty\": []"), "{text}");
        assert!(text.ends_with("}\n"), "{text}");
    }

    #[test]
    fn report_covers_sections_and_jobs() {
        let pool = SimPool::new(WireScale::Quick, WireBase::Test, None);
        let sections = [Section::Table2, Section::Fig2];
        let report = build_report(&pool, &sections).unwrap();
        let text = report.pretty();
        assert!(text.contains("\"fig2\""), "{text}");
        assert!(text.contains("\"minimal\""), "{text}");
        assert!(text.contains("\"vid_bits\""), "{text}");
        // Every simulation the section ran appears with its wall-clock and
        // the key the server would cache the same run under.
        assert!(text.contains("\"wall_seconds\""), "{text}");
        let Some(Json::Arr(jobs)) = report.get("sim_jobs") else {
            panic!("no sim_jobs array in {text}");
        };
        let li_seq = jobs
            .iter()
            .find(|j| j.get("label").and_then(Json::as_str) == Some("130.li:seq:base:quick"))
            .unwrap_or_else(|| panic!("no 130.li sequential job in {text}"));
        let spec = pool.job(
            BenchRef::Suite(1),
            WireParadigm::Sequential,
            WireVariant::Base,
        );
        assert_eq!(
            li_seq.get("key").and_then(Json::as_str),
            Some(spec.key().as_str())
        );
    }
}
