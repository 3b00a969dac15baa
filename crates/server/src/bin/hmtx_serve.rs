//! `hmtx-serve` — the simulation server binary.
//!
//! ```text
//! hmtx-serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!            [--mem-cache N] [--shards N] [--cache-dir DIR] [--mem-only]
//!            [--deadline-ms N] [--retry-after-ms N]
//! ```
//!
//! Prints `listening on ADDR` once bound (scripts parse this to learn an
//! ephemeral port). SIGTERM or SIGINT begins a graceful drain: in-flight
//! jobs finish and answer, new job requests answer `draining`, and the
//! process exits once the workers are idle.
//!
//! `--deadline-ms` sets the deadline of a job that names none (default
//! 120 s). Behind `hmtx-router` such a job gets `timeout` from the router
//! 1 s after the 120 s default has run out, whatever the backend's own; a
//! job that may take longer names its `deadline_ms`.
//!
//! `--mem-only` disables the disk tier entirely (otherwise a default cache
//! directory under `target/` is used when `--cache-dir` is not given) —
//! the capacity-bound configuration the cluster benchmark uses to show
//! aggregate-cache scaling.

use hmtx_server::{ServerConfig, ServerHandle};
use hmtx_types::cli::{Args, UsageError};

const USAGE: &str = "usage: hmtx-serve [--addr HOST:PORT] [--workers N] [--queue-cap N] \
    [--mem-cache N] [--shards N] [--cache-dir DIR] [--mem-only] \
    [--deadline-ms N] [--retry-after-ms N]";

fn parse_args(mut args: Args) -> Result<(String, ServerConfig), UsageError> {
    let mut addr = "127.0.0.1:7870".to_string();
    let mut cfg = ServerConfig::default();
    let mut mem_only = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.value(&arg)?,
            "--workers" => cfg.workers = args.parse(&arg)?,
            "--queue-cap" => cfg.queue_cap = args.parse(&arg)?,
            "--mem-cache" => cfg.mem_cache_cap = args.parse(&arg)?,
            "--shards" => cfg.shards = args.parse(&arg)?,
            "--cache-dir" => cfg.cache_dir = Some(args.value(&arg)?.into()),
            "--mem-only" => mem_only = true,
            "--deadline-ms" => cfg.default_deadline_ms = args.parse(&arg)?,
            "--retry-after-ms" => cfg.retry_after_ms = args.parse(&arg)?,
            _ => return Err(UsageError::unknown(&arg)),
        }
    }
    if mem_only {
        cfg.cache_dir = None;
    } else if cfg.cache_dir.is_none() {
        // Default the disk tier under target/ so repeated local sessions
        // warm each other without polluting the tree.
        cfg.cache_dir = Some("target/hmtx-serve-cache".into());
    }
    Ok((addr, cfg))
}

fn main() {
    let (addr, cfg) = parse_args(Args::from_env()).unwrap_or_else(|e| e.exit("hmtx-serve", USAGE));
    hmtx_server::install_drain_handlers();

    let handle = match ServerHandle::start(&addr, cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("hmtx-serve: binding {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", handle.addr());
    // The loop begins drain on SIGINT/SIGTERM; `wait` returns once done.
    handle.wait();
    eprintln!("hmtx-serve: drained, exiting");
}
