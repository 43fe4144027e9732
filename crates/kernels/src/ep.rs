//! NAS EP (Embarrassingly Parallel) kernel, NPB 2.3.
//!
//! Generates `2^m` pairs of uniform deviates with the NAS LCG, converts
//! them to Gaussian deviates by the Marsaglia polar method (acceptance
//! `x₁²+x₂² ≤ 1`), and tallies them in concentric square annuli. Almost no
//! communication — the paper uses it to show ParADE's best-case
//! scalability (Figure 9).

use parade_core::{Cluster, ReduceOp, RunReport, ThreadCtx};

use crate::cost;
use crate::nasrng::NasRng;

/// log2 of the batch size (NPB `MK`).
const MK: u32 = 16;
const NK: u64 = 1 << MK;
/// Number of annuli (NPB `NQ`).
const NQ: usize = 10;
/// EP seed (NPB `S`).
const EP_SEED: u64 = 271_828_183;

/// NAS problem classes used in the paper (plus S/W for testing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpClass {
    /// 2^24 pairs.
    S,
    /// 2^25 pairs.
    W,
    /// 2^28 pairs (the paper's configuration).
    A,
    /// Custom log2 size (must be ≥ MK); no reference values.
    Custom(u32),
}

impl EpClass {
    pub fn m(self) -> u32 {
        match self {
            EpClass::S => 24,
            EpClass::W => 25,
            EpClass::A => 28,
            EpClass::Custom(m) => m,
        }
    }

    /// NPB reference sums (sx, sy) for verification, where published.
    pub fn reference(self) -> Option<(f64, f64)> {
        match self {
            EpClass::S => Some((-3.247_834_652_034_74e3, -6.958_407_078_382_297e3)),
            EpClass::W => Some((-2.863_319_731_645_753e3, -6.320_053_679_109_499e3)),
            EpClass::A => Some((-4.295_875_165_629_892e3, -1.580_732_573_678_431e4)),
            EpClass::Custom(_) => None,
        }
    }

    pub fn label(self) -> String {
        match self {
            EpClass::S => "S".into(),
            EpClass::W => "W".into(),
            EpClass::A => "A".into(),
            EpClass::Custom(m) => format!("2^{m}"),
        }
    }
}

/// EP result: Gaussian sums and annulus counts.
#[derive(Debug, Clone, PartialEq)]
pub struct EpResult {
    pub sx: f64,
    pub sy: f64,
    pub q: [u64; NQ],
    /// Total accepted pairs.
    pub gc: u64,
}

impl EpResult {
    /// NPB verification: relative error of the sums within 1e-8.
    pub fn verify(&self, class: EpClass) -> Option<bool> {
        class.reference().map(|(rx, ry)| {
            let ex = ((self.sx - rx) / rx).abs();
            let ey = ((self.sy - ry) / ry).abs();
            ex <= 1e-8 && ey <= 1e-8
        })
    }
}

/// Process one batch of `NK` pairs; batch index `kk` is 0-based.
fn ep_batch(kk: u64, x: &mut [f64]) -> (f64, f64, [u64; NQ], u64) {
    debug_assert_eq!(x.len(), 2 * NK as usize);
    let mut rng = NasRng::nas(EP_SEED).at_offset(2 * NK * kk);
    for v in x.iter_mut() {
        *v = rng.next_f64();
    }
    let (mut sx, mut sy, mut gc) = (0.0f64, 0.0f64, 0u64);
    let mut q = [0u64; NQ];
    for i in 0..NK as usize {
        let x1 = 2.0 * x[2 * i] - 1.0;
        let x2 = 2.0 * x[2 * i + 1] - 1.0;
        let t = x1 * x1 + x2 * x2;
        if t <= 1.0 {
            let t2 = (-2.0 * t.ln() / t).sqrt();
            let t3 = x1 * t2;
            let t4 = x2 * t2;
            let l = t3.abs().max(t4.abs()) as usize;
            q[l] += 1;
            sx += t3;
            sy += t4;
            gc += 1;
        }
    }
    (sx, sy, q, gc)
}

/// Sequential reference implementation.
pub fn ep_sequential(class: EpClass) -> EpResult {
    let m = class.m();
    assert!(m >= MK, "class too small: 2^{m} < batch 2^{MK}");
    let nn = 1u64 << (m - MK);
    let mut x = vec![0.0f64; 2 * NK as usize];
    let (mut sx, mut sy, mut gc) = (0.0, 0.0, 0u64);
    let mut q = [0u64; NQ];
    for kk in 0..nn {
        let (bx, by, bq, bg) = ep_batch(kk, &mut x);
        sx += bx;
        sy += by;
        gc += bg;
        for (a, b) in q.iter_mut().zip(bq) {
            *a += b;
        }
    }
    EpResult { sx, sy, q, gc }
}

/// ParADE version: batches statically divided across all threads, per-node
/// hierarchical reduction of the sums and counts at the end.
pub fn ep_parade(cluster: &Cluster, class: EpClass) -> (EpResult, RunReport) {
    let m = class.m();
    assert!(m >= MK);
    let nn = (1u64 << (m - MK)) as usize;
    let (res, report) = cluster.run_with_report(move |g| {
        g.parallel(move |tc: &ThreadCtx| {
            let mut x = vec![0.0f64; 2 * NK as usize];
            let (mut sx, mut sy, mut gc) = (0.0, 0.0, 0u64);
            let mut q = [0u64; NQ];
            for kk in tc.for_static(0..nn) {
                let (bx, by, bq, bg) = ep_batch(kk as u64, &mut x);
                tc.compute(cost::EP_PAIR.of(NK as usize));
                sx += bx;
                sy += by;
                gc += bg;
                for (a, b) in q.iter_mut().zip(bq) {
                    *a += b;
                }
            }
            // reduction(+: sx, sy) merged into one structure (§4.2), then
            // the counts.
            let sums = tc.reduce_f64s(ReduceOp::Sum, &[sx, sy]);
            let mut qg = [0i64; NQ + 1];
            for (i, &c) in q.iter().enumerate() {
                qg[i] = c as i64;
            }
            qg[NQ] = gc as i64;
            let qg: Vec<f64> = qg.iter().map(|&v| v as f64).collect();
            let totals = tc.reduce_f64s(ReduceOp::Sum, &qg);
            let mut q_out = [0u64; NQ];
            for i in 0..NQ {
                q_out[i] = totals[i] as u64;
            }
            EpResult {
                sx: sums[0],
                sy: sums[1],
                q: q_out,
                gc: totals[NQ] as u64,
            }
        })
    });
    (res, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parade_core::{NetProfile, TimeSource};

    fn test_cluster(nodes: usize, tpn: usize) -> Cluster {
        Cluster::builder()
            .nodes(nodes)
            .threads_per_node(tpn)
            .net(NetProfile::zero())
            .time(TimeSource::Manual)
            .build()
            .unwrap()
    }

    #[test]
    fn batches_are_deterministic() {
        let mut x1 = vec![0.0; 2 * NK as usize];
        let mut x2 = vec![0.0; 2 * NK as usize];
        let a = ep_batch(3, &mut x1);
        let b = ep_batch(3, &mut x2);
        assert_eq!(a, b);
        let c = ep_batch(4, &mut x1);
        assert_ne!(a.0, c.0);
    }

    #[test]
    fn parallel_matches_sequential_small() {
        let class = EpClass::Custom(18); // 4 batches
        let seq = ep_sequential(class);
        let c = test_cluster(2, 2);
        let (par, _) = ep_parade(&c, class);
        assert!((par.sx - seq.sx).abs() < 1e-9);
        assert!((par.sy - seq.sy).abs() < 1e-9);
        assert_eq!(par.q, seq.q);
        assert_eq!(par.gc, seq.gc);
    }

    #[test]
    fn annuli_counts_decrease() {
        let r = ep_sequential(EpClass::Custom(18));
        // Gaussian tails: q[0] > q[1] > ... and the far annuli are empty.
        assert!(r.q[0] > r.q[1]);
        assert!(r.q[1] > r.q[2]);
        assert_eq!(r.q[8], 0);
        assert_eq!(r.q[9], 0);
        // Acceptance rate of the polar method is π/4.
        let total = 1u64 << 18;
        let rate = r.gc as f64 / total as f64;
        assert!((rate - std::f64::consts::FRAC_PI_4).abs() < 0.01, "{rate}");
    }

    // The full NPB class S verification runs in release only (16.7M
    // deviates are slow without optimization); see tests/kernels.rs.
}
