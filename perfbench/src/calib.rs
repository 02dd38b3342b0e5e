//! Host-speed calibration.
//!
//! On a shared host the same binary runs up to ~1.5x slower in one minute
//! than in the next, as co-tenants contend for caches and memory
//! bandwidth. A fixed reference kernel, timed beside each rep, measures
//! that drift so the benchmark can report host time at a reference speed.
//! The kernel is the benchmark's own code (sorting and an ordered-map
//! churn over a few MB, cache- and branch-bound like the simulator), so a
//! change to the simulator cannot move it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's host seconds at the reference speed: about its median on
/// a 2-vCPU Xeon VM (Sapphire Rapids). Normalized times are seconds at
/// that speed.
pub const REFERENCE_S: f64 = 0.045;

/// Kernel runs per calibration sample (their median is the sample): one
/// 45 ms run swings by 20-30 % on a busy host.
const RUNS_PER_SAMPLE: usize = 3;

/// Runs the reference kernel once and returns its checksum.
pub fn kernel() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut v: Vec<u64> = (0..1 << 19).map(|_| next()).collect();
    v.sort_unstable();
    let mut m = BTreeMap::new();
    for i in 0..150_000u64 {
        m.insert(next() >> 40, i);
        if i % 2 == 0 {
            m.pop_first();
        }
    }
    v[v.len() / 2] ^ m.len() as u64
}

/// Host seconds of one kernel run.
pub fn measure() -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_secs_f64()
}

/// Mean host seconds of the kernel run on `threads` threads at once. A
/// rep that keeps several threads busy contends with itself as well as
/// with co-tenants, so its calibration runs with as many threads.
pub fn measure_on(threads: usize) -> f64 {
    if threads <= 1 {
        return measure();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(measure)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration kernel panicked"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// One calibration sample: the median of [`RUNS_PER_SAMPLE`] kernel runs
/// on `threads` threads.
pub fn sample(threads: usize) -> f64 {
    let runs: Vec<f64> = (0..RUNS_PER_SAMPLE).map(|_| measure_on(threads)).collect();
    crate::stats::median(&runs)
}

/// The factor that turns host seconds measured between two calibration
/// samples into reference-speed seconds, for a workload whose host time
/// follows the kernel's with exponent `sensitivity`.
pub fn speed(before_s: f64, after_s: f64, sensitivity: f64) -> f64 {
    (REFERENCE_S / ((before_s + after_s) / 2.0)).powf(sensitivity)
}
