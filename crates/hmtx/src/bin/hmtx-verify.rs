//! `hmtx-verify`: statically verify mini-ISA program sets (MTX protocol,
//! register dataflow, queue matching/deadlock, speculative-store escape)
//! without running them.
//!
//! ```text
//! hmtx-verify [--json] [--disasm] thread0.asm [thread1.asm ...]
//! hmtx-verify --all-workloads [--scale quick|standard|stress] [--json]
//! ```
//!
//! Exits 0 when clean, 1 when any diagnostic is reported, 2 on usage
//! or assembly errors.

use hmtx::vcli::{parse_args, run, USAGE};
use hmtx_types::cli::Args;

fn main() {
    let opts = parse_args(Args::from_env()).unwrap_or_else(|e| e.exit("hmtx-verify", USAGE));
    match run(&opts) {
        Ok(report) => {
            print!("{}", report.output);
            std::process::exit(report.exit_code());
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}
