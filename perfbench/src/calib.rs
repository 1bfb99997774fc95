//! Host-speed calibration.
//!
//! Shared hosts change speed by up to half again within seconds (other
//! tenants contending for caches and memory), which swamps the
//! differences a benchmark is meant to catch. The replay loop therefore
//! pauses every [`WINDOW_OPS`] ops to time a fixed reference kernel, and
//! scales the replay's host time by `REF_NS / kernel time`, the kernel
//! time being a trimmed mean of the runs before, within and after the
//! replay. Reported times are host times on a host where the kernel takes
//! exactly [`REF_NS`]; the kernel is the benchmark's own code, so a change
//! to the system under test moves them as it moves raw time.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Ops per calibration window.
pub const WINDOW_OPS: u64 = 16_384;

/// The kernel time reported times are scaled to.
pub const REF_NS: f64 = 1_000_000.0;

/// Kernel iterations: about a millisecond on a 2 GHz Xeon.
const KERNEL_STEPS: u32 = 8_000;

/// Table the kernel reads and writes at random: 8 MiB, past the private
/// caches, where the contention the kernel must feel happens.
const TABLE_WORDS: usize = 1 << 20;

/// The reference kernel: random read-modify-writes over a table and
/// hash-map updates, the mix of the allocator and address-space code
/// under test.
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
    map: HashMap<u64, u64>,
    /// Generator state, carried across runs: each run touches fresh
    /// lines, so no run finds the previous one's lines in the private
    /// caches, whatever ran in between.
    x: u64,
    /// Every kernel time measured, in nanoseconds.
    runs: Vec<u64>,
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            table: vec![0; TABLE_WORDS],
            map: HashMap::with_capacity(1 << 12),
            x: 0x9e37_79b9_7f4a_7c15,
            runs: Vec::new(),
        }
    }

    /// Runs the kernel once; returns the index of this run.
    pub fn sample(&mut self) -> usize {
        let t0 = Instant::now();
        let mut x = self.x;
        let mut acc = 0u64;
        for _ in 0..KERNEL_STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 32) as usize & (TABLE_WORDS - 1);
            self.table[i] = self.table[i].wrapping_add(x);
            acc ^= self.table[(i * 7 + 3) & (TABLE_WORDS - 1)];
            *self.map.entry((x >> 52) ^ (acc & 0xfff)).or_insert(0) += 1;
        }
        black_box(acc);
        self.x = x;
        self.runs.push(t0.elapsed().as_nanos() as u64);
        self.runs.len() - 1
    }

    /// The factor that scales host time measured since run `first` to
    /// the reference host: `REF_NS` over the mean kernel time of runs
    /// `first..`, the slowest tenth dropped (a kernel run that an
    /// interrupt lands in says nothing about the replay around it).
    pub fn factor_since(&self, first: usize) -> f64 {
        let mut runs = self.runs[first..].to_vec();
        runs.sort_unstable();
        runs.truncate(runs.len() - runs.len() / 10);
        let mean = runs.iter().sum::<u64>() as f64 / runs.len().max(1) as f64;
        REF_NS / mean.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_are_positive_and_finite() {
        let mut c = Calibrator::new();
        let first = c.sample();
        for _ in 0..10 {
            c.sample();
        }
        let f = c.factor_since(first);
        assert!(f.is_finite() && f > 0.0);
        let last = c.sample();
        assert_eq!(c.factor_since(last), REF_NS / c.runs[last] as f64);
    }
}
