//! `hmtx-run`: assemble and run guest programs on the simulated HMTX
//! machine. One assembly file per hardware thread.
//!
//! ```text
//! hmtx-run [--cores N] [--trace N] [--budget N] [--quick]
//!          [--faults SEED] [--fault-rate PPM] [--replay SEED.json]
//!          [--mem addr=value]... [--dump addr]...
//!          thread0.asm [thread1.asm ...]
//! ```
//!
//! `--replay` pins the scheduler to a `ScheduleSeed` divergence list (as
//! written by `hmtx-explore` into `tests/corpus/`), reproducing one explored
//! interleaving byte-deterministically instead of the default min-clock
//! schedule.
//!
//! With `--remote HOST:PORT`, submits a suite-workload job to a running
//! `hmtx-serve` server instead of simulating locally (see `hmtx::remote`):
//!
//! ```text
//! hmtx-run --remote HOST:PORT --workload NAME [--paradigm P] [--scale S]
//!          [--quick|--paper-config] [--deadline-ms N] [--faults SEED]
//!          [--fault-rate PPM]
//! ```
//!
//! Exits 0 on success, 1 when the run (or the remote request) fails, and
//! 2 on a usage error.

use hmtx::cli::{parse_args, run, USAGE};
use hmtx::remote::{self, parse_remote_args, run_remote};
use hmtx_types::cli::Args;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--remote") {
        let opts = parse_remote_args(Args::new(args))
            .unwrap_or_else(|e| e.exit("hmtx-run", remote::USAGE));
        match run_remote(&opts) {
            Ok(summary) => println!("{summary}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let opts = parse_args(Args::new(args)).unwrap_or_else(|e| e.exit("hmtx-run", USAGE));
    match run(&opts) {
        Ok(report) => {
            println!("outcome: {}", report.outcome);
            println!("cycles:  {}", report.cycles);
            if !report.outputs.is_empty() {
                println!("output:  {:?}", report.outputs);
            }
            for (addr, value) in &report.dumps {
                println!("mem[0x{addr:x}] = {value}");
            }
            println!("\n{}", report.stats);
            if !report.trace.is_empty() {
                println!("\ntrace:\n{}", report.trace);
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}
