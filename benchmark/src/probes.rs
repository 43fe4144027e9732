//! Layer probes: host nanoseconds per call of one public function, from a
//! single caller, as the median of calibrated batches. `host.calib_ns` — a
//! fixed integer loop measured the same way — sits beside them so that
//! ratios port across machines.

use std::time::{Duration, Instant};

use crate::stats::median;
use crate::sut::{Probe, PROBES};

pub struct Sample {
    pub name: &'static str,
    pub ns_per_call: f64,
}

/// Batches per probe; the median of fewer would follow the scheduler.
pub const BATCHES: usize = 15;

/// Steps of the calibration loop that make one "call".
const CALIB_STEPS: u64 = 1000;

/// A fixed integer loop: xorshift64 steps, a dependency chain the compiler
/// can neither fold nor vectorise.
fn calib(n: u64) -> Duration {
    let t = Instant::now();
    let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1D_u64);
    for _ in 0..n * CALIB_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed()
}

/// Grow the batch until one takes at least `target`, then time `BATCHES`
/// of that size.
fn measure(
    name: &'static str,
    min_batch: u64,
    batch: fn(u64) -> Duration,
    target: Duration,
) -> Sample {
    let mut n = min_batch;
    loop {
        let took = batch(n);
        if took >= target || n >= 1 << 30 {
            break;
        }
        // Aim past the target so the next try usually ends the search.
        let scale = (target.as_secs_f64() * 1.5 / took.as_secs_f64().max(1e-9)).ceil();
        n = (n as f64 * scale.clamp(2.0, 1000.0)) as u64;
    }
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| batch(n).as_nanos() as f64 / n as f64)
        .collect();
    Sample {
        name,
        ns_per_call: median(&per_call),
    }
}

/// Run every probe. `quick` shortens the batches for the smoke mode.
pub fn run(quick: bool) -> Vec<Sample> {
    let target = Duration::from_millis(if quick { 1 } else { 8 });
    let mut out = vec![measure("host.calib_ns", 1, calib, target)];
    for Probe {
        name,
        min_batch,
        batch,
    } in PROBES
    {
        out.push(measure(name, min_batch, batch, target));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_time_grows_with_the_iteration_count() {
        // black_box is a hint: confirm the loop is not folded away.
        let small = calib(200);
        let large = calib(20_000);
        assert!(large > small * 10, "{small:?} vs {large:?}");
    }

    #[test]
    fn measure_reports_a_positive_median_over_all_batches() {
        let s = measure("host.calib_ns", 1, calib, Duration::from_micros(200));
        assert!(s.ns_per_call > 0.0);
    }
}
