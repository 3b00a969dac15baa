//! `hmtx-run --remote`: submit a workload simulation to a running
//! `hmtx-serve` server instead of simulating in-process.
//!
//! ```text
//! hmtx-run --remote HOST:PORT --workload NAME [--paradigm P]
//!          [--scale quick|standard|stress] [--quick|--paper-config]
//!          [--deadline-ms N] [--faults SEED] [--fault-rate PPM]
//! ```
//!
//! The spec is the same wire-format [`JobSpec`] the server caches by
//! content key, so repeated invocations of the same command are served
//! from the cache byte-identically. Workloads are named as in the suite
//! (`130.li`, `ispell`, …— any unambiguous substring works) or as a raw
//! `suite:N` index.

use hmtx_server::{parse_response, response_type, Client};
use hmtx_types::cli::{Args, UsageError};
use hmtx_types::{BenchRef, FaultSpec, JobSpec, Json, SimError, WireBase, WireParadigm, WireScale};
use hmtx_workloads::resolve_workload;

/// Parsed `--remote` mode options.
#[derive(Debug, Clone)]
pub struct RemoteOptions {
    /// Server address (`host:port`).
    pub addr: String,
    /// The job to submit.
    pub spec: JobSpec,
    /// Optional per-request deadline.
    pub deadline_ms: Option<u64>,
}

fn bad(msg: impl Into<String>) -> SimError {
    SimError::BadProgram(msg.into())
}

/// The `hmtx-run --remote` usage line.
pub const USAGE: &str = "usage: hmtx-run --remote HOST:PORT --workload NAME [--paradigm P] \
    [--scale quick|standard|stress] [--quick|--paper-config] \
    [--deadline-ms N] [--faults SEED] [--fault-rate PPM]";

/// Parses `--remote` mode arguments (everything after the program name;
/// the leading `--remote ADDR` included).
///
/// # Errors
///
/// Returns a [`UsageError`] on malformed flags or an unknown workload.
pub fn parse_remote_args(mut args: Args) -> Result<RemoteOptions, UsageError> {
    let (mut addr, mut workload, mut deadline_ms, mut fault_seed) = (None, None, None, None);
    let mut fault_rate_ppm = 200;
    let mut spec = JobSpec::new(
        BenchRef::Suite(0),
        WireParadigm::Paper,
        WireScale::Quick,
        WireBase::Test,
    );
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--remote" => addr = Some(args.value(&arg)?),
            "--workload" => workload = Some(resolve_workload(&args.value(&arg)?)?),
            "--paradigm" => {
                spec.paradigm = args.parse_with(&arg, |v| WireParadigm::from_name(v).ok())?;
            }
            "--scale" => spec.scale = args.parse_with(&arg, |v| WireScale::from_name(v).ok())?,
            "--quick" => spec.base = WireBase::Test,
            "--paper-config" => spec.base = WireBase::Paper,
            "--deadline-ms" => deadline_ms = Some(args.parse(&arg)?),
            "--faults" => fault_seed = Some(args.parse(&arg)?),
            "--fault-rate" => fault_rate_ppm = args.parse_with(&arg, FaultSpec::parse_rate)?,
            _ => return Err(UsageError::unknown(&arg)),
        }
    }
    let addr = addr.ok_or_else(|| UsageError::new("--remote needs an address"))?;
    let workload =
        workload.ok_or_else(|| UsageError::new("--remote mode needs --workload NAME"))?;
    spec.benchmark = BenchRef::Suite(workload as u32);
    spec.fault = fault_seed.map(|seed| FaultSpec {
        seed,
        rate_ppm: fault_rate_ppm,
    });
    Ok(RemoteOptions {
        addr,
        spec,
        deadline_ms,
    })
}

/// Submits the job and renders a human-readable summary of the response.
///
/// # Errors
///
/// Returns [`SimError::BadProgram`] with the failure detail on I/O errors
/// or non-`result` responses.
pub fn run_remote(opts: &RemoteOptions) -> Result<String, SimError> {
    let mut client =
        Client::connect(&opts.addr).map_err(|e| bad(format!("connecting {}: {e}", opts.addr)))?;
    let response = client
        .job_with_retry(&opts.spec, opts.deadline_ms, 60)
        .map_err(|e| bad(format!("request failed: {e}")))?;
    match response_type(&response).as_deref() {
        Some("result") => {
            let v = parse_response(&response).map_err(bad)?;
            let report = v
                .get("report")
                .ok_or_else(|| bad("result without report"))?;
            let field = |name: &str| report.get(name).and_then(Json::as_u64).unwrap_or(0);
            let mut summary = format!(
                "key:     {}\nlabel:   {}\ncycles:  {}\ninstructions: {}\nrecoveries: {}\n",
                v.get("key").and_then(Json::as_str).unwrap_or("?"),
                report.get("label").and_then(Json::as_str).unwrap_or("?"),
                field("cycles"),
                field("instructions"),
                field("recoveries"),
            );
            summary.push_str(&render_hytm_summary(report));
            summary.push_str(&format!("\nreport:\n{}", report.pretty()));
            Ok(summary)
        }
        Some("draining") => Err(bad("server is draining; retry against another instance")),
        Some("busy") => Err(bad("server is at capacity (busy after retries)")),
        Some("timeout") => Err(bad(
            "deadline expired; the job is still running server-side — retry to hit its cache",
        )),
        Some("error") => {
            let detail = parse_response(&response)
                .ok()
                .and_then(|v| v.get("message").and_then(Json::as_str).map(String::from))
                .unwrap_or_else(|| "unknown server error".into());
            Err(bad(format!("server error: {detail}")))
        }
        other => Err(bad(format!("unexpected response type {other:?}"))),
    }
}

/// The hybrid-mode recovery summary lines: the fast/slow-path split and
/// every demotion classified by cause (capacity, vid-exhaustion,
/// abort-storm, injected-fault). Empty for non-`hytm` reports, whose
/// `hytm` block is `null`.
#[must_use]
pub fn render_hytm_summary(report: &Json) -> String {
    let Some(mix) = report.get("hytm") else {
        return String::new();
    };
    if matches!(mix, Json::Null) {
        return String::new();
    }
    let n = |name: &str| mix.get(name).and_then(Json::as_u64).unwrap_or(0);
    let causes = mix
        .get("demotions_by_cause")
        .map_or_else(String::new, |by| {
            [
                "capacity",
                "vid-exhaustion",
                "abort-storm",
                "injected-fault",
            ]
            .iter()
            .map(|c| format!("{c}={}", by.get(c).and_then(Json::as_u64).unwrap_or(0)))
            .collect::<Vec<_>>()
            .join(" ")
        });
    format!(
        "path mix: {} fast / {} slow commits\n\
         demotions: {} ({causes})\n\
         fast retries: {} ({} backoff cycles), storm serializations: {}\n",
        n("fast_commits"),
        n("slow_commits"),
        n("demotions"),
        n("fast_retries"),
        n("backoff_cycles"),
        n("storm_serializations"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_args_build_a_spec() {
        let opts = parse_remote_args(Args::new([
            "--remote",
            "127.0.0.1:7870",
            "--workload",
            "ispell",
            "--paradigm",
            "seq",
            "--deadline-ms",
            "2500",
            "--faults",
            "9",
        ]))
        .unwrap();
        assert_eq!(opts.addr, "127.0.0.1:7870");
        assert_eq!(opts.spec.paradigm, WireParadigm::Sequential);
        assert_eq!(opts.deadline_ms, Some(2500));
        let fault = opts.spec.fault.unwrap();
        assert_eq!((fault.seed, fault.rate_ppm), (9, 200));
        assert_eq!(opts.spec.benchmark, BenchRef::Suite(7));
    }

    #[test]
    fn remote_args_reject_nonsense() {
        for (bad_args, error) in [
            (
                &["--remote", "addr"][..],
                "--remote mode needs --workload NAME",
            ),
            (&["--workload", "li"], "--remote needs an address"),
            (
                &["--remote", "a", "--workload", "li", "x"],
                "unknown flag `x`",
            ),
            (
                &["--remote", "a", "--workload", "li", "--paradigm", "warp"],
                "invalid value `warp` for --paradigm",
            ),
            (
                &["--remote", "a", "--workload", "i"],
                "ambiguous workload `i`",
            ),
            (
                &[
                    "--remote",
                    "a",
                    "--workload",
                    "li",
                    "--fault-rate",
                    "2000000",
                ],
                "invalid value `2000000` for --fault-rate",
            ),
        ] {
            let err = parse_remote_args(Args::new(bad_args.to_vec())).unwrap_err();
            assert!(err.to_string().starts_with(error), "{bad_args:?}: {err}");
        }
    }

    #[test]
    fn hytm_summary_prints_classified_demotion_causes() {
        let report = Json::obj(vec![(
            "hytm",
            Json::obj(vec![
                ("fast_commits", Json::Uint(17)),
                ("slow_commits", Json::Uint(3)),
                ("demotions", Json::Uint(3)),
                (
                    "demotions_by_cause",
                    Json::obj(vec![
                        ("capacity", Json::Uint(2)),
                        ("vid-exhaustion", Json::Uint(0)),
                        ("abort-storm", Json::Uint(0)),
                        ("injected-fault", Json::Uint(1)),
                    ]),
                ),
                ("fast_retries", Json::Uint(5)),
                ("backoff_cycles", Json::Uint(640)),
                ("storm_serializations", Json::Uint(1)),
            ]),
        )]);
        let summary = render_hytm_summary(&report);
        assert!(summary.contains("17 fast / 3 slow"), "{summary}");
        assert!(summary.contains("capacity=2"), "{summary}");
        assert!(summary.contains("injected-fault=1"), "{summary}");
        assert!(summary.contains("storm serializations: 1"), "{summary}");
        // Non-hytm reports stay silent.
        let plain = Json::obj(vec![("hytm", Json::Null)]);
        assert_eq!(render_hytm_summary(&plain), "");
        assert_eq!(
            render_hytm_summary(&Json::obj(Vec::<(&str, Json)>::new())),
            ""
        );
    }

    #[test]
    fn run_remote_reports_connection_failures() {
        // A port from the discard range that nothing listens on.
        let opts = RemoteOptions {
            addr: "127.0.0.1:9".into(),
            spec: JobSpec::new(
                BenchRef::Suite(0),
                WireParadigm::Paper,
                WireScale::Quick,
                WireBase::Test,
            ),
            deadline_ms: None,
        };
        let err = run_remote(&opts).unwrap_err();
        assert!(err.to_string().contains("connecting"), "{err}");
    }
}
