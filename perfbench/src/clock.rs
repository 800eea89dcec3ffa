//! Host-speed normalization.
//!
//! On a shared host the same operation's wall time swings by a third from
//! minute to minute as neighbours come and go, far more than any change
//! worth detecting. The benchmark therefore runs a fixed calibration
//! kernel, owned by the benchmark and untouched by the program, before
//! and after every timed operation, and reports each operation's time
//! scaled by `NOMINAL / kernel time`: milliseconds on a host where the
//! kernel takes exactly [`NOMINAL`]. A program change moves the
//! operation and not the kernel, so it moves the scaled time in full.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The calibration kernel's time on the reference host.
pub const NOMINAL: Duration = Duration::from_millis(10);

/// One run of the calibration kernel: a mix of the work the pipeline
/// does (arithmetic, sorting, ordered-map updates, buffer allocation and
/// fill), about 10 ms on a 2020s server core.
pub fn calibrate() -> Duration {
    let t0 = Instant::now();
    let mut x: u64 = 0x1234_5678;
    let mut total = 0u64;
    for round in 0..4u64 {
        let mut v: Vec<u64> = (0..100_000u64)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.wrapping_add(i)
            })
            .collect();
        v.sort_unstable();
        let mut m = BTreeMap::new();
        for (i, k) in v.iter().enumerate().step_by(16) {
            m.insert(k % 9973, i as u64 + round);
        }
        let bufs: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 16 << 10]).collect();
        total = total
            .wrapping_add(m.values().sum::<u64>())
            .wrapping_add(bufs.iter().map(|b| u64::from(b[100])).sum::<u64>())
            .wrapping_add(v[500]);
    }
    black_box(total);
    t0.elapsed()
}

/// Host speed around one measured interval, from the kernel runs that
/// bracket it.
#[derive(Debug, Clone, Copy)]
pub struct Speed(f64);

impl Speed {
    pub fn between(before: Duration, after: Duration) -> Speed {
        Speed(NOMINAL.as_secs_f64() * 2.0 / (before + after).as_secs_f64())
    }

    /// `d` as it would read on the reference host, in seconds.
    pub fn secs(&self, d: Duration) -> f64 {
        d.as_secs_f64() * self.0
    }
}
