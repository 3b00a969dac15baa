//! The host-speed reference.
//!
//! On a shared host the processor a run gets is not equally fast:
//! neighbours on the same physical core or the same memory channels slow
//! every instruction, and processor time grows with them. The speed
//! switches within a fraction of a second and sometimes holds for a whole
//! run. A run therefore also times a fixed reference computation, which
//! does not call the system under test, and scales each piece of its own
//! work by [`REFERENCE_S`] over the reference run timed right next to it
//! ([`Calibration::local_scale`]). Work other processes do is scaled over
//! the median of reference runs timed while they work
//! ([`Calibration::scale`]). A change to the system moves the scaled
//! figures; a slower host moves the reference and the work alike and
//! cancels out.
//!
//! The reference is shaped like the simulator: a bytecode interpreter over
//! a hashed memory image, with data-dependent branches and a small
//! allocation per block.

use std::collections::HashMap;

use crate::stats::{median, Rng};
use crate::thread_cpu_s;

/// Processor seconds one reference run takes, as a median, on a
/// two-processor x86-64 virtual machine; the unit of every scaled time.
pub const REFERENCE_S: f64 = 0.0002;

/// Bytecode operations of one reference run.
const STEPS: usize = 50_000;

/// One run of the reference computation; returns a checksum so the work
/// cannot be optimised away.
fn reference() -> u64 {
    let mut rng = Rng::new(0x5EED);
    let program: Vec<u8> = (0..4096).map(|_| (rng.next_u64() % 6) as u8).collect();
    let mut mem: HashMap<u64, u64> = HashMap::with_capacity(1 << 14);
    let mut regs = [0u64; 8];
    let mut pc = 0usize;
    let mut block: Vec<u64> = Vec::new();
    for step in 0..STEPS {
        let op = program[pc];
        let r = step & 7;
        match op {
            0 => regs[r] = regs[r].wrapping_mul(0x9E37_79B9).wrapping_add(step as u64),
            1 => regs[r] = *mem.get(&(regs[(r + 1) & 7] & 0x3FFF)).unwrap_or(&0),
            2 => {
                mem.insert(regs[r] & 0x3FFF, regs[(r + 3) & 7]);
            }
            3 => {
                if regs[r] & 1 == 1 {
                    pc = (regs[r] as usize >> 1) & 4095;
                    continue;
                }
            }
            4 => block.push(regs[r]),
            _ => {
                if block.len() >= 16 {
                    regs[r] ^= block.iter().fold(0, |a, &b| a ^ b.rotate_left(7));
                    block = Vec::new();
                }
            }
        }
        pc = (pc + 1) & 4095;
    }
    regs.iter().fold(mem.len() as u64, |a, &b| a ^ b)
}

/// Reference timings of one run.
#[derive(Debug, Default)]
pub struct Calibration {
    samples: Vec<f64>,
}

impl Calibration {
    /// Times `reps` reference runs (processor time) and returns the factor
    /// that turns processor seconds measured next to them into
    /// reference-host seconds (over their median).
    pub fn local_scale(&mut self, reps: usize) -> f64 {
        let mut times = Vec::with_capacity(reps);
        for _ in 0..reps.max(1) {
            let t = thread_cpu_s();
            std::hint::black_box(reference());
            times.push(thread_cpu_s() - t);
        }
        self.samples.extend_from_slice(&times);
        REFERENCE_S / median(&times)
    }

    /// Factor that turns this run's processor seconds into reference-host
    /// seconds, over the median of every reference run timed so far.
    pub fn scale(&self) -> f64 {
        REFERENCE_S / median(&self.samples)
    }

    pub fn note(&self) -> String {
        format!(
            "host reference: {} runs, median {:.4} ms, scale {:.4}",
            self.samples.len(),
            median(&self.samples) * 1e3,
            self.scale()
        )
    }
}
