//! The counted compute model: what one trip of each kernel's hot loop
//! costs on the paper's ~550 MHz Pentium III nodes.
//!
//! A kernel charges `rate.of(units)` through `ThreadCtx::compute` after the
//! work it counts, and before the reduction or barrier that follows, so
//! virtual time never depends on how fast or how loaded the host is. Under
//! `TimeSource::Manual` the charges are free.
//!
//! Each rate was fixed once: the 1-node 1Thread-2CPU cell of the seed's
//! Figs. 8–11 tables (EXPERIMENTS.md, measured on the host clock × 60)
//! divided by the units that run counts. None is tuned to a claim.

use parade_net::VTime;

/// Virtual nanoseconds per unit of counted work. Only this table makes
/// one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NsPerUnit(f64);

impl NsPerUnit {
    /// The compute time of `units` trips.
    pub fn of(self, units: usize) -> VTime {
        VTime::from_nanos((units as f64 * self.0).round() as u64)
    }
}

/// NAS CG, per SpMV nonzero: class W's 13.9 s over (15 + 1 warm-up)
/// power iterations × (25 + 1 residual) SpMVs × 508 402 nonzeros
/// = 211 495 232 → 65.72 ns.
pub const CG_NONZERO: NsPerUnit = NsPerUnit(13.9e9 / (16.0 * 26.0 * 508_402.0));

/// NAS EP, per pair of deviates: class W's 34.4 s over 2^25 pairs
/// = 33 554 432 → 1 025.2 ns.
pub const EP_PAIR: NsPerUnit = NsPerUnit(34.4e9 / 33_554_432.0);

/// Helmholtz, per interior point per sweep: 49.6 s over 200 sweeps of
/// 798 × 798 interior points of the 800 × 800 grid = 127 360 800 → 389.44 ns.
pub const HELMHOLTZ_POINT: NsPerUnit = NsPerUnit(49.6e9 / (200.0 * 798.0 * 798.0));

/// MD, per pair interaction: 0.95 s over 10 steps × 512 × 511 ordered
/// pairs = 2 616 320 → 363.11 ns.
pub const MD_PAIR: NsPerUnit = NsPerUnit(0.95e9 / (10.0 * 512.0 * 511.0));

/// One spin step of the scheduling ablation's triangular loop: 1 ns, the
/// host-clock × 1 scale it was measured at before.
pub const SPIN_STEP: NsPerUnit = NsPerUnit(1.0);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_reproduce_their_calibration_cells() {
        let secs = |rate: NsPerUnit, units: usize| rate.of(units).as_secs_f64();
        assert!((secs(CG_NONZERO, 16 * 26 * 508_402) - 13.9).abs() < 1e-6);
        assert!((secs(EP_PAIR, 1 << 25) - 34.4).abs() < 1e-6);
        assert!((secs(HELMHOLTZ_POINT, 200 * 798 * 798) - 49.6).abs() < 1e-6);
        assert!((secs(MD_PAIR, 10 * 512 * 511) - 0.95).abs() < 1e-6);
        assert_eq!(SPIN_STEP.of(7), VTime::from_nanos(7));
    }
}
