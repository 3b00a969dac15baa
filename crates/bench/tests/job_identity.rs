//! Job identity: the content key and report label of every job the
//! standard sweep names, the label of every ablation-only configuration
//! variant, and the served report bytes of two jobs. Labels sit inside the
//! report bytes a server caches and serves, so none of these may move when
//! the job vocabulary is refactored.

use hmtx_bench::{materialize, render_report, run_job, standard_sweep};
use hmtx_types::{
    BenchRef, FaultSpec, JobSpec, Json, VictimPolicy, WireBase, WireParadigm, WireScale,
    WireVariant,
};

/// `key label` of each quick standard-sweep spec, in sweep order.
const SWEEP: &str = "\
cc937c10b1fa328ec54aeca2b005575f 052.alvinn:seq:base:quick
6a543c9089dbb46bd79dd0d237d0a0e0 052.alvinn:hmtx:base:quick
ccedfa644ac9ec00296bf8b254672426 052.alvinn:hytm:base:quick
cfca96a109b93f229d49adfe3d2f29b0 052.alvinn:hmtx:lazy-commit:quick
6be68837b6e79dbab6ab5bb332305f57 052.alvinn:hmtx:eager-commit:quick
2d0bc14d0e731d726c827fdec9cc88ea 052.alvinn:hmtx:sla-on:quick
7fc078316c7846cdac1792db05153299 052.alvinn:hmtx:sla-off:quick
21d1fab1b5440d6d60d7fb80714031ed 052.alvinn:hmtx:vid4:quick
35a2b299b9ebf7176da4114adee7d183 052.alvinn:hmtx:vid6:quick
98bcd1cb0d5f42934a57975222fb85c9 052.alvinn:hmtx:vid8:quick
07cd97dd752fbb0f3740e3391b9e16bc 130.li:seq:base:quick
fbc2a0fbe4428db96b59647b896febb3 130.li:hmtx:base:quick
38205bb21d4cbe00e03d677072006f57 130.li:hytm:base:quick
d0d374b18ffef3520ecd8878f42d0daf 130.li:hmtx:lazy-commit:quick
b954425fe33c8afb9e6f1b1d987f4836 130.li:hmtx:eager-commit:quick
de399a2cabb54ba983050ac3a2091335 130.li:hmtx:sla-on:quick
122a0cc9d5c7ba4179a2070e2865b364 130.li:hmtx:sla-off:quick
900199f4617e054a4157064bb3c90acc 130.li:hmtx:vid4:quick
dddbdbaea04d0601484a0f0244426942 130.li:hmtx:vid6:quick
baf6edcdfb6161750a01e958ee4f35a8 130.li:hmtx:vid8:quick
11ebba265a5627e27b74bf62faa1b9a9 164.gzip:seq:base:quick
d85629223415cb979539dc04ae4a9cf2 164.gzip:hmtx:base:quick
42fe2793f320b94c6cc8d2d287756558 164.gzip:hytm:base:quick
603ffb0ecc393b0ae08bc898f590affe 164.gzip:hmtx:lazy-commit:quick
670017f569c5ddddedb7165b1ec802b5 164.gzip:hmtx:eager-commit:quick
8ee31b877ea16d7f8831437f9270b8d0 164.gzip:hmtx:sla-on:quick
b28c5f8267c0386de59666cc96ff15f7 164.gzip:hmtx:sla-off:quick
9fa232ee8f4970aa4edf4402e9063c9b 164.gzip:hmtx:vid4:quick
da364f2a144070ca029a91cd28a29785 164.gzip:hmtx:vid6:quick
09fc8a6995deff888de2e55301878fd7 164.gzip:hmtx:vid8:quick
acd398f63974434685afac5331b6c37e 186.crafty:seq:base:quick
54a45a18989d6f3d9aea6b15aa613a1d 186.crafty:hmtx:base:quick
59885da54a1348e83ce9a82a6dd3d451 186.crafty:hytm:base:quick
5a1dca52ac681911a6a4a65b5a1b0895 186.crafty:hmtx:lazy-commit:quick
5538faecaf31c00217b674139b6055c4 186.crafty:hmtx:eager-commit:quick
07b80823f505dd04aa3b4540ec2f43fb 186.crafty:hmtx:sla-on:quick
052074438cd3a9b0056c5ad503ca31ba 186.crafty:hmtx:sla-off:quick
44314bb9f76d135f2163f2d012315ff2 186.crafty:hmtx:vid4:quick
6a3ce0cc2efe30b58730537ada2f66bc 186.crafty:hmtx:vid6:quick
f0d8078814caf18a9c266919921c503e 186.crafty:hmtx:vid8:quick
0ab01ff9ecec7d82abe1bd68dbd5c43b 197.parser:seq:base:quick
c215c0b08e4d28f90becda809d19007c 197.parser:hmtx:base:quick
bf9fff06d887fc2894833268346ff2b2 197.parser:hytm:base:quick
331def07f217636fdbcd34101965349c 197.parser:hmtx:lazy-commit:quick
8240d8b71ada087bae16dc387e39bdcb 197.parser:hmtx:eager-commit:quick
ea58c0e6d9cb941b5def3db54c4bec8e 197.parser:hmtx:sla-on:quick
f13ca32bbab6f7fe9fc92ea85f7a12a5 197.parser:hmtx:sla-off:quick
d5eededc8ee146a63a5ee93425e4bfa1 197.parser:hmtx:vid4:quick
f4958ca666e2ba3b2a81de99fd759187 197.parser:hmtx:vid6:quick
7c03345a14dac8c0d9d0ee45ac195275 197.parser:hmtx:vid8:quick
59756d1ef4e9d38cb569fe80d58c93f8 256.bzip2:seq:base:quick
423f0122e440ea5b411aa92810e9572f 256.bzip2:hmtx:base:quick
7bbe421db3ba0613013bba0c4e7d7243 256.bzip2:hytm:base:quick
cc2ff992cbe5c13426b436d201d7770b 256.bzip2:hmtx:lazy-commit:quick
10dc9f62446bdcb749fce8e8eeb1992a 256.bzip2:hmtx:eager-commit:quick
86fc58a7a5dd71fdd81b1ffd3abd17d9 256.bzip2:hmtx:sla-on:quick
8b16d716605f987fed4da1587ade9c90 256.bzip2:hmtx:sla-off:quick
f7819bb4fed7e5e2759d7425368c1590 256.bzip2:hmtx:vid4:quick
902a366ad3de078a77e3fb6411473376 256.bzip2:hmtx:vid6:quick
18e0e82af997c9f8c1a9ee9b4c127c44 256.bzip2:hmtx:vid8:quick
1d154e44a9c399418842193583ba6685 456.hmmer:seq:base:quick
134f916ec1b8e18e2dd557992251af8e 456.hmmer:hmtx:base:quick
a354dc1f9a21c8c88c0334a5843ec4e4 456.hmmer:hytm:base:quick
0526deb589b71f52181aacacc7c5cd6a 456.hmmer:hmtx:lazy-commit:quick
371ba10599269505d056b45286cc7c19 456.hmmer:hmtx:eager-commit:quick
9f18927b6a7b05f43f755f29383727c4 456.hmmer:hmtx:sla-on:quick
6ecc7a0972ef6e46fb670b7b9a13b6d3 456.hmmer:hmtx:sla-off:quick
69df592d62973ec21aa869919d5611ef 456.hmmer:hmtx:vid4:quick
63dc03c9c4ab28755a08bcc75625b2c9 456.hmmer:hmtx:vid6:quick
00c1e4987137dcf97d5536c01211fe83 456.hmmer:hmtx:vid8:quick
6ba1b2dcd60e0b79723ee740b235810a ispell:seq:base:quick
63a64d6058a15d389d5cf4f97a5f9169 ispell:hmtx:base:quick
6380e880bfe52199cd817bc31f47d0dd ispell:hytm:base:quick
420d25f236078a8d23c5502a6e45a8e1 ispell:hmtx:lazy-commit:quick
e0ab015dd0760ac76f02b4b988f66a98 ispell:hmtx:eager-commit:quick
2834e25b15fbc2a178096d2bdadcc61f ispell:hmtx:sla-on:quick
a3e2133c911a0e84b7c021db27cd6f86 ispell:hmtx:sla-off:quick
60a8c3d20797359d5dd4dfbb77f46306 ispell:hmtx:vid4:quick
ab6a2326f34eb3009fe31588e8e72ce0 ispell:hmtx:vid6:quick
420aa6142a208e4639a3c8cf1cd8c3aa ispell:hmtx:vid8:quick
";

/// The compact report of 130.li under its paper paradigm.
const HMTX_REPORT: &str = r#"{"schema":"hmtx-serve-report/1","key":"fbc2a0fbe4428db96b59647b896febb3","spec":{"benchmark":"suite:1","paradigm":"paper","scale":"quick","base":"test","variant":{"kind":"base"},"fault":null},"label":"130.li:hmtx:base:quick","cycles":17149,"instructions":16396,"recoveries":0,"recovery_causes":[],"outputs":[],"machine":{"instructions":16396,"branches":3607,"mispredictions":391,"wrong_path_instructions":2828,"interrupts":0,"explicit_aborts":0},"mem":{"loads":4388,"stores":491,"spec_loads":2651,"spec_stores":473,"l1_hits":5103,"l1_misses":484,"l2_hits":10,"mem_fills":140,"peer_transfers":334,"slas_sent":194,"sla_aborts_avoided":0,"commits":18,"aborts":0,"vid_resets":0},"rw_set":{"transactions":18,"avg_read_kb":0.9236111111111112,"avg_write_kb":0.34375,"avg_combined_kb":1.0659722222222223},"hytm":null}"#;

/// The compact report of 256.bzip2 under HyTM with a fault plan that
/// demotes transactions to the software path.
const HYTM_REPORT: &str = r#"{"schema":"hmtx-serve-report/1","key":"34a748a1473bd2e4254a245934db7550","spec":{"benchmark":"suite:5","paradigm":"hytm","scale":"quick","base":"test","variant":{"kind":"base"},"fault":{"seed":1,"rate_ppm":2000}},"label":"256.bzip2:hytm:base:quick","cycles":829677,"instructions":84444,"recoveries":5,"recovery_causes":[{"kind":"injected-conflict","count":5}],"outputs":[],"machine":{"instructions":84444,"branches":15635,"mispredictions":1169,"wrong_path_instructions":8208,"interrupts":0,"explicit_aborts":0},"mem":{"loads":15454,"stores":7247,"spec_loads":877,"spec_stores":801,"l1_hits":19805,"l1_misses":4342,"l2_hits":2559,"mem_fills":1756,"peer_transfers":27,"slas_sent":107,"sla_aborts_avoided":0,"commits":0,"aborts":5,"vid_resets":0},"rw_set":{"transactions":0,"avg_read_kb":0.0,"avg_write_kb":0.0,"avg_combined_kb":0.0},"hytm":{"fast_commits":0,"slow_commits":12,"demotions":5,"demotions_by_cause":{"capacity":0,"vid-exhaustion":0,"abort-storm":0,"injected-fault":5},"fast_retries":0,"backoff_cycles":0,"storm_serializations":1}}"#;

fn quick(benchmark: BenchRef, paradigm: WireParadigm, variant: WireVariant) -> JobSpec {
    JobSpec {
        variant,
        ..JobSpec::new(benchmark, paradigm, WireScale::Quick, WireBase::Test)
    }
}

fn report(spec: &JobSpec) -> String {
    render_report(spec, &run_job(spec).expect("the job runs")).compact()
}

#[test]
fn sweep_keys_and_report_labels_are_pinned() {
    let got: String = standard_sweep(WireScale::Quick)
        .iter()
        .map(|spec| {
            let report = Json::parse(&report(spec)).unwrap();
            let label = report.get("label").and_then(Json::as_str).unwrap();
            format!("{} {label}\n", spec.key())
        })
        .collect();
    assert_eq!(got, SWEEP);
}

#[test]
fn ablation_variant_labels_are_pinned() {
    use BenchRef::{ScalingLoop, Suite};
    use WireParadigm::{Doacross, Paper, PsDswp, Sequential};
    let fabric = |cores, directory| WireVariant::ScalingFabric { cores, directory };
    for (benchmark, paradigm, variant, label) in [
        (
            Suite(5),
            Paper,
            WireVariant::Victim(VictimPolicy::PreferSafeOverflow),
            "256.bzip2:hmtx:victim-safe:quick",
        ),
        (
            Suite(5),
            Paper,
            WireVariant::Victim(VictimPolicy::PlainLru),
            "256.bzip2:hmtx:victim-lru:quick",
        ),
        (
            Suite(5),
            Paper,
            WireVariant::Bounded { unbounded: false },
            "256.bzip2:hmtx:bounded:quick",
        ),
        (
            Suite(5),
            Paper,
            WireVariant::Bounded { unbounded: true },
            "256.bzip2:hmtx:unbounded:quick",
        ),
        (
            ScalingLoop,
            Sequential,
            WireVariant::ScalingBase,
            "scaling-loop:seq:scaling-base:quick",
        ),
        (
            ScalingLoop,
            PsDswp,
            fabric(16, false),
            "scaling-loop:ps-dswp:16xbus:quick",
        ),
        (
            ScalingLoop,
            PsDswp,
            fabric(32, true),
            "scaling-loop:ps-dswp:32xdirectory:quick",
        ),
        (
            Suite(7),
            Doacross,
            WireVariant::QueueLatency(300),
            "ispell:doacross:qlat300:quick",
        ),
    ] {
        let spec = quick(benchmark, paradigm, variant);
        assert_eq!(materialize(&spec).0.label(), label);
    }
}

#[test]
fn served_report_bytes_are_pinned() {
    let hmtx = quick(BenchRef::Suite(1), WireParadigm::Paper, WireVariant::Base);
    assert_eq!(report(&hmtx), HMTX_REPORT);
    let hytm = JobSpec {
        fault: Some(FaultSpec {
            seed: 1,
            rate_ppm: 2000,
        }),
        ..quick(BenchRef::Suite(5), WireParadigm::Hytm, WireVariant::Base)
    };
    assert_eq!(report(&hytm), HYTM_REPORT);
}
