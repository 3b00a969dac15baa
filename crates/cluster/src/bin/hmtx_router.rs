//! `hmtx-router` — consistent-hash routing across `hmtx-serve` backends.
//!
//! ```text
//! hmtx-router --backends HOST:PORT,HOST:PORT,... [--addr HOST:PORT]
//!             [--health-interval-ms N]
//! ```
//!
//! Prints `listening on ADDR` once bound (scripts parse this to learn an
//! ephemeral port). Speaks the same frame protocol as `hmtx-serve`, so
//! `hmtx-load` and `hmtx-run --remote` point at it unchanged. SIGTERM or
//! SIGINT begins a graceful drain of the router only — backends keep
//! running (stop them with their own signals or a direct `shutdown`).

use std::num::NonZeroU64;
use std::time::Duration;

use hmtx_cluster::{RouterConfig, RouterHandle};
use hmtx_types::cli::{Args, UsageError};

const USAGE: &str = "usage: hmtx-router --backends HOST:PORT,... [--addr HOST:PORT] \
    [--health-interval-ms N]";

fn parse_args(mut args: Args) -> Result<(String, RouterConfig), UsageError> {
    let mut addr = "127.0.0.1:7871".to_string();
    let mut cfg = RouterConfig::new(Vec::new());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.value(&arg)?,
            "--backends" => {
                cfg.backends = args
                    .value(&arg)?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
            }
            "--health-interval-ms" => {
                // A zero interval would run a probe round on every poll.
                let ms = args.parse::<NonZeroU64>(&arg)?.get();
                cfg.health_interval = Duration::from_millis(ms);
            }
            _ => return Err(UsageError::unknown(&arg)),
        }
    }
    if cfg.backends.is_empty() {
        return Err(UsageError::new("--backends is required"));
    }
    Ok((addr, cfg))
}

fn main() {
    let (addr, cfg) = parse_args(Args::from_env()).unwrap_or_else(|e| e.exit("hmtx-router", USAGE));
    hmtx_server::install_drain_handlers();

    let handle = match RouterHandle::start(&addr, cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("hmtx-router: binding {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", handle.addr());
    // The loop begins drain on SIGINT/SIGTERM; `wait` returns once done.
    handle.wait();
    eprintln!("hmtx-router: drained, exiting");
}
