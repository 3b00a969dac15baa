//! Pins what a paradigm run reports, under both misspeculation ladders.
//!
//! Every quick suite workload runs under `run_loop` (the retry ladder) and
//! `run_hytm` (the demotion ladder), with its paper paradigm under several
//! fault plans and, fault-free, with DOALL, whose loop-carried dependences
//! are genuine conflicts. Each run's `RunReport` is folded into one FNV-1a
//! digest: cycles, instructions, recoveries, every `RecoveryRecord`, the
//! committed outputs, the machine statistics and the HyTM mix. A change to
//! how either ladder recovers, or to what the loop around it counts, moves
//! a digest; a refactor must leave all of them unchanged.

use hmtx_runtime::{
    run_hytm, run_loop, DemotionCause, LoopBody, Paradigm, RecoveryRung, RunReport,
};
use hmtx_types::{FaultConfig, HytmConfig, MachineConfig};
use hmtx_workloads::{suite, Scale};

const BUDGET: u64 = 2_000_000_000;

/// FNV-1a over everything a report carries.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn digest(report: &RunReport) -> u64 {
    let mut d = Digest::new();
    d.u64(report.cycles);
    d.u64(report.instructions);
    d.u64(report.recoveries);
    d.u64(report.recovery_log.len() as u64);
    for rec in &report.recovery_log {
        d.str(&format!("{:?}", rec.cause));
        d.u64(rec.cycle);
        d.u64(rec.depth);
        d.str(rec.rung.name());
        d.str(rec.demotion.map_or("-", DemotionCause::name));
    }
    d.str(&format!("{:?}", report.machine_stats));
    d.u64(report.outputs.len() as u64);
    for &v in &report.outputs {
        d.u64(v);
    }
    match report.hytm {
        None => d.u64(0),
        Some(mix) => {
            d.u64(1);
            d.u64(mix.fast_commits);
            d.u64(mix.slow_commits);
            for n in mix.demotions_by_cause {
                d.u64(n);
            }
            d.u64(mix.fast_retries);
            d.u64(mix.backoff_cycles);
            d.u64(mix.storm_serializations);
        }
    }
    d.0
}

/// The fault plans, by name. DOALL runs only the first.
fn plans() -> Vec<(&'static str, MachineConfig)> {
    let fault_free = MachineConfig::test_default();
    let mut chaos = fault_free.clone();
    chaos.faults = Some(FaultConfig::chaos(7, 2_000));
    // Write bounds below every workload's footprint: capacity demotions
    // back to back, so the storm breaker fires.
    let mut capacity = fault_free.clone();
    capacity.hytm = HytmConfig {
        enabled: true,
        max_read_lines: 6,
        max_write_lines: 2,
        ..HytmConfig::paper_default()
    };
    capacity.faults = Some(FaultConfig::chaos(0xCA9A_51F7, 500));
    // Eight VIDs and an impatient begin guard: the watchdog fires.
    let mut watchdog = fault_free.clone();
    watchdog.hmtx.vid_bits = 3;
    watchdog.hytm = HytmConfig {
        watchdog_spins: 200,
        ..HytmConfig::paper_default()
    };
    watchdog.faults = Some(FaultConfig::chaos(3, 1_000));
    vec![
        ("fault-free", fault_free),
        ("chaos", chaos),
        ("capacity", capacity),
        ("watchdog", watchdog),
    ]
}

/// Every pinned run, as `(label, report)`.
fn runs() -> Vec<(String, RunReport)> {
    let mut out = Vec::new();
    let plans = plans();
    for w in suite(Scale::Quick) {
        let body: &dyn LoopBody = w.as_ref();
        let name = w.meta().name;
        let paper = w.meta().paradigm;
        let mut cases: Vec<(String, Paradigm, &MachineConfig)> = plans
            .iter()
            .map(|(plan, cfg)| (format!("{}/{plan}", paper.name()), paper, cfg))
            .collect();
        if paper != Paradigm::Doall {
            cases.push(("DOALL/fault-free".into(), Paradigm::Doall, &plans[0].1));
        }
        for (case, paradigm, cfg) in cases {
            let (_, report) = run_loop(paradigm, body, cfg, BUDGET)
                .unwrap_or_else(|e| panic!("{name} loop {case}: {e}"));
            out.push((format!("{name} loop {case}"), report));
            let (_, report) = run_hytm(paradigm, body, cfg, BUDGET)
                .unwrap_or_else(|e| panic!("{name} hytm {case}: {e}"));
            out.push((format!("{name} hytm {case}"), report));
        }
    }
    out
}

/// `(label, digest)` of every run in `runs()`, in order.
const PINS: &[(&str, u64)] = &[
    ("052.alvinn loop DOALL/fault-free", 0x40ac0a86f7f31869),
    ("052.alvinn hytm DOALL/fault-free", 0xdde61821d5680af7),
    ("052.alvinn loop DOALL/chaos", 0x017981613844b9c5),
    ("052.alvinn hytm DOALL/chaos", 0x04a90c6da2b3f277),
    ("052.alvinn loop DOALL/capacity", 0x33ba508a62bcf1c1),
    ("052.alvinn hytm DOALL/capacity", 0x339c663077e615dc),
    ("052.alvinn loop DOALL/watchdog", 0x4f28b8189a487cbc),
    ("052.alvinn hytm DOALL/watchdog", 0xdbfecb03357eab6b),
    ("130.li loop PS-DSWP/fault-free", 0x22f88afff5897111),
    ("130.li hytm PS-DSWP/fault-free", 0x489927dcd242788d),
    ("130.li loop PS-DSWP/chaos", 0xe35c6f26e2ed20b6),
    ("130.li hytm PS-DSWP/chaos", 0xed55084867b9eb7c),
    ("130.li loop PS-DSWP/capacity", 0x256442a059212d83),
    ("130.li hytm PS-DSWP/capacity", 0x79450a957b4e038b),
    ("130.li loop PS-DSWP/watchdog", 0xb1eba07578d5c6f6),
    ("130.li hytm PS-DSWP/watchdog", 0x23a5b5644def95c6),
    ("130.li loop DOALL/fault-free", 0x7144feff3a3265e9),
    ("130.li hytm DOALL/fault-free", 0xdb4ef8c3e7e28c7a),
    ("164.gzip loop PS-DSWP/fault-free", 0x406b43412bfbec41),
    ("164.gzip hytm PS-DSWP/fault-free", 0x6a2dfa706dfd56d5),
    ("164.gzip loop PS-DSWP/chaos", 0x2765437a8fcbc002),
    ("164.gzip hytm PS-DSWP/chaos", 0x84ae2981d46d4f28),
    ("164.gzip loop PS-DSWP/capacity", 0x79d7686703def3e5),
    ("164.gzip hytm PS-DSWP/capacity", 0x956879fc2c0970f3),
    ("164.gzip loop PS-DSWP/watchdog", 0x4b4c8ca0936871ca),
    ("164.gzip hytm PS-DSWP/watchdog", 0x45366a8de104fb10),
    ("164.gzip loop DOALL/fault-free", 0x5759c3d8e5e2325b),
    ("164.gzip hytm DOALL/fault-free", 0xe02aa20e2e3dfd37),
    ("186.crafty loop PS-DSWP/fault-free", 0x165dab0678ada6d5),
    ("186.crafty hytm PS-DSWP/fault-free", 0xea28a72cd3f001bd),
    ("186.crafty loop PS-DSWP/chaos", 0xb25a7bfad5e80268),
    ("186.crafty hytm PS-DSWP/chaos", 0x0318c2002343416e),
    ("186.crafty loop PS-DSWP/capacity", 0xd4e091769e85fed8),
    ("186.crafty hytm PS-DSWP/capacity", 0xd087a7804b01f361),
    ("186.crafty loop PS-DSWP/watchdog", 0xe524de6d186b677d),
    ("186.crafty hytm PS-DSWP/watchdog", 0x706efdbc51b19706),
    ("186.crafty loop DOALL/fault-free", 0xbc5a5800e0230803),
    ("186.crafty hytm DOALL/fault-free", 0x2f07740f84c063b5),
    ("197.parser loop PS-DSWP/fault-free", 0x08295c0d00dffc66),
    ("197.parser hytm PS-DSWP/fault-free", 0xc389e949a3cbc95a),
    ("197.parser loop PS-DSWP/chaos", 0x31cd7c3fd9848555),
    ("197.parser hytm PS-DSWP/chaos", 0x81641a3bc87ceb77),
    ("197.parser loop PS-DSWP/capacity", 0xc53dc1e657beceac),
    ("197.parser hytm PS-DSWP/capacity", 0xf4ff621976139980),
    ("197.parser loop PS-DSWP/watchdog", 0xb45766d05929bc94),
    ("197.parser hytm PS-DSWP/watchdog", 0xb55a49caf90137e0),
    ("197.parser loop DOALL/fault-free", 0x34c0a94946e4aaf2),
    ("197.parser hytm DOALL/fault-free", 0x29fd4857bb4efce7),
    ("256.bzip2 loop PS-DSWP/fault-free", 0x47a63eadea0fcd4e),
    ("256.bzip2 hytm PS-DSWP/fault-free", 0xe00eb77ba17ccdc9),
    ("256.bzip2 loop PS-DSWP/chaos", 0xa5aafb01a1ea8b47),
    ("256.bzip2 hytm PS-DSWP/chaos", 0x81a2e65605ffac05),
    ("256.bzip2 loop PS-DSWP/capacity", 0xac3175fe3a2ef1c6),
    ("256.bzip2 hytm PS-DSWP/capacity", 0xfdd0b8c3cc656cc3),
    ("256.bzip2 loop PS-DSWP/watchdog", 0x41b6777d81b774f3),
    ("256.bzip2 hytm PS-DSWP/watchdog", 0x42b5716cd346ea1f),
    ("256.bzip2 loop DOALL/fault-free", 0xa44c6e005e4fa406),
    ("256.bzip2 hytm DOALL/fault-free", 0x907fbfc403c56d23),
    ("456.hmmer loop PS-DSWP/fault-free", 0x067fe56332b1bfcb),
    ("456.hmmer hytm PS-DSWP/fault-free", 0x03c7f281f94156a8),
    ("456.hmmer loop PS-DSWP/chaos", 0xd6f2943de7be54fc),
    ("456.hmmer hytm PS-DSWP/chaos", 0xaaa5dc9e785875b8),
    ("456.hmmer loop PS-DSWP/capacity", 0x5e0a83626d979c23),
    ("456.hmmer hytm PS-DSWP/capacity", 0x3b22f91af2931862),
    ("456.hmmer loop PS-DSWP/watchdog", 0x550ed05b3559a550),
    ("456.hmmer hytm PS-DSWP/watchdog", 0x909f198ddf9ee5c1),
    ("456.hmmer loop DOALL/fault-free", 0x215d2cd40c564b7c),
    ("456.hmmer hytm DOALL/fault-free", 0xdeff423546a85471),
    ("ispell loop PS-DSWP/fault-free", 0x84112dffb61f8123),
    ("ispell hytm PS-DSWP/fault-free", 0x1dbae5bcc0012f50),
    ("ispell loop PS-DSWP/chaos", 0x15f3dec673fef43f),
    ("ispell hytm PS-DSWP/chaos", 0x41060a20ec8f2ce5),
    ("ispell loop PS-DSWP/capacity", 0xb3cea3a3e161ffa5),
    ("ispell hytm PS-DSWP/capacity", 0x7cad08422bbff18a),
    ("ispell loop PS-DSWP/watchdog", 0xc855417d9fd5a51e),
    ("ispell hytm PS-DSWP/watchdog", 0xcf8c0af527203edb),
    ("ispell loop DOALL/fault-free", 0x525cc914a54eb1a9),
    ("ispell hytm DOALL/fault-free", 0x80b7e56a0bbe39cd),
];

#[test]
fn run_reports_match_their_pins() {
    let got: Vec<(String, u64)> = runs().iter().map(|(l, r)| (l.clone(), digest(r))).collect();
    let table: String = got
        .iter()
        .map(|(l, d)| format!("    (\"{l}\", 0x{d:016x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = PINS.iter().map(|(l, d)| (l.to_string(), *d)).collect();
    assert_eq!(got, want, "pins moved; the current table is:\n{table}");
}

#[test]
fn the_pinned_runs_cover_every_rung_and_demotion_cause() {
    let runs = runs();
    let records = || runs.iter().flat_map(|(_, r)| &r.recovery_log);
    for rung in [
        RecoveryRung::Parallel,
        RecoveryRung::SingleTx,
        RecoveryRung::NonSpec,
        RecoveryRung::SoftwareSlowPath,
    ] {
        assert!(
            records().any(|rec| rec.rung == rung),
            "no pinned run reaches the {} rung",
            rung.name()
        );
    }
    for cause in DemotionCause::ALL {
        assert!(
            records().any(|rec| rec.demotion == Some(cause)),
            "no pinned run demotes for {}",
            cause.name()
        );
    }
    assert!(
        runs.iter()
            .any(|(_, r)| r.hytm.is_some_and(|m| m.storm_serializations > 0)),
        "no pinned run serializes a storm"
    );
}
