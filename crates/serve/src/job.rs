//! Job specifications and the width-independent interval kernels.
//!
//! A serving-layer job is a small iterative program structured as a
//! sequence of **intervals**: each interval runs one or more parallel
//! regions over the job's gang and ends at a barrier, where the master
//! checkpoints the job's state vector. The scheduler may run a job at any
//! width between `min_width` and `max_width` (elastic gang sizing), so
//! every kernel here is written to be **width-independent at the bit
//! level**: parallel work is decomposed into fixed blocks whose values are
//! pure functions of the checkpointed state, and all floating-point
//! reductions are folded serially by the master in fixed block order. One
//! sequential reference run therefore predicts the exact bits of every
//! parallel execution, at any width and under any chaos — the serving
//! soak's exactly-once check leans on this.

use std::sync::Arc;

use parade_core::{MasterCtx, SharedVec, TaskCtx as SpawnCtx, TaskDesc, TaskFn, ThreadCtx};
use parade_kernels::nasrng::NasRng;

/// Fixed sub-block count for block-decomposed kernels. Independent of the
/// job's width by design: the *values* computed per block never depend on
/// which thread ran the block.
pub const BLOCKS: usize = 8;

/// What a job computes. All parameters are part of the job's identity;
/// two jobs with equal kinds produce bit-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobKind {
    /// Power-iteration on the tridiagonal stencil `2.5·xᵢ − xᵢ₋₁ − xᵢ₊₁`
    /// (a CG-S-flavoured sparse kernel): each interval is one mat-vec plus
    /// a serial normalization.
    CgLite {
        n: usize,
        intervals: usize,
        seed: u64,
    },
    /// EP-flavoured Gaussian-pair batches over the NAS 46-bit LCG: each
    /// interval consumes one batch, split over [`BLOCKS`] jump-ahead
    /// streams, folded serially in block order.
    EpBlocks {
        batches: usize,
        pairs_per_batch: usize,
        seed: u64,
    },
    /// All-pairs softened-gravity n-body: forces are computed by the
    /// distributed tasking layer (one task per particle block, id-sorted
    /// merge), integration is serial. Each interval is one leapfrog step.
    Nbody { np: usize, steps: usize, seed: u64 },
}

impl JobKind {
    /// Number of intervals (checkpoint periods) the job runs.
    pub fn intervals(&self) -> usize {
        match *self {
            JobKind::CgLite { intervals, .. } => intervals,
            JobKind::EpBlocks { batches, .. } => batches,
            JobKind::Nbody { steps, .. } => steps,
        }
    }

    /// Length of the job's state vector.
    pub fn state_len(&self) -> usize {
        match *self {
            JobKind::CgLite { n, .. } => n,
            // sum_x, sum_y, hits, batches_done
            JobKind::EpBlocks { .. } => 4,
            // positions then velocities, 3 components each
            JobKind::Nbody { np, .. } => 6 * np,
        }
    }

    /// Length of the per-interval scratch vector (block partials).
    pub fn scratch_len(&self) -> usize {
        match *self {
            JobKind::CgLite { n, .. } => n,
            JobKind::EpBlocks { .. } => 3 * BLOCKS,
            JobKind::Nbody { np, .. } => 3 * np,
        }
    }

    /// The deterministic initial state.
    pub fn init_state(&self) -> Vec<f64> {
        match *self {
            JobKind::CgLite { n, seed, .. } => {
                let mut rng = NasRng::nas(seed | 1);
                (0..n).map(|_| rng.next_f64() + 0.5).collect()
            }
            JobKind::EpBlocks { .. } => vec![0.0; 4],
            JobKind::Nbody { np, seed, .. } => {
                let mut rng = NasRng::nas(seed | 1);
                let mut st = vec![0.0; 6 * np];
                for p in st.iter_mut().take(3 * np) {
                    *p = 2.0 * rng.next_f64() - 1.0;
                }
                // Velocities start at a tenth of a fresh deviate.
                for v in st.iter_mut().skip(3 * np) {
                    *v = 0.2 * rng.next_f64() - 0.1;
                }
                st
            }
        }
    }

    /// Advance the sequential reference by one interval, in place.
    /// This is the bit-exact oracle for [`JobKind::step_parallel`].
    pub fn step_reference(&self, state: &mut [f64], interval: usize) {
        match *self {
            JobKind::CgLite { n, .. } => {
                let y: Vec<f64> = (0..n).map(|i| cg_row(state, n, i)).collect();
                cg_normalize(&y, state);
            }
            JobKind::EpBlocks {
                pairs_per_batch,
                seed,
                ..
            } => {
                let mut partials = vec![0.0; 3 * BLOCKS];
                for b in 0..BLOCKS {
                    let (sx, sy, hits) = ep_block(seed, interval, b, pairs_per_batch);
                    partials[3 * b] = sx;
                    partials[3 * b + 1] = sy;
                    partials[3 * b + 2] = hits;
                }
                ep_fold(&partials, state);
            }
            JobKind::Nbody { np, .. } => {
                let mut forces = vec![0.0; 3 * np];
                for b in 0..BLOCKS.min(np) {
                    let (lo, hi) = block_range(np, b);
                    let f = nbody_forces(state, np, lo, hi);
                    forces[3 * lo..3 * hi].copy_from_slice(&f);
                }
                nbody_integrate(state, &forces, np);
            }
        }
    }

    /// Run one interval on the cluster: parallel block work into `scratch`,
    /// then the master's serial combine back into `xs`. Produces the same
    /// bits as [`JobKind::step_reference`] at every width.
    pub fn step_parallel(
        &self,
        g: &mut MasterCtx,
        xs: &SharedVec<f64>,
        scratch: &SharedVec<f64>,
        interval: usize,
    ) {
        match *self {
            JobKind::CgLite { n, .. } => {
                let (xs, ys) = (*xs, *scratch);
                g.parallel(move |tc| {
                    let y = tc.bind_f64(&ys);
                    let mut row = vec![0.0; n];
                    tc.read_into(&xs, 0, &mut row);
                    for b in tc.for_static(0..BLOCKS.min(n)) {
                        let (lo, hi) = block_range(n, b);
                        for i in lo..hi {
                            y.set(i, cg_row(&row, n, i));
                        }
                    }
                });
                let mut y = vec![0.0; n];
                g.read_into(scratch, 0, &mut y);
                let mut out = vec![0.0; n];
                cg_normalize(&y, &mut out);
                g.write_from(&xs, 0, &out);
            }
            JobKind::EpBlocks {
                pairs_per_batch,
                seed,
                ..
            } => {
                let part = *scratch;
                g.parallel(move |tc| {
                    for b in tc.for_static(0..BLOCKS) {
                        let (sx, sy, hits) = ep_block(seed, interval, b, pairs_per_batch);
                        tc.set(&part, 3 * b, sx);
                        tc.set(&part, 3 * b + 1, sy);
                        tc.set(&part, 3 * b + 2, hits);
                    }
                });
                let mut partials = vec![0.0; 3 * BLOCKS];
                g.read_into(scratch, 0, &mut partials);
                let mut state = vec![0.0; 4];
                g.read_into(xs, 0, &mut state);
                ep_fold(&partials, &mut state);
                g.write_from(xs, 0, &state);
            }
            JobKind::Nbody { np, .. } => {
                let (st, fs) = (*xs, *scratch);
                g.parallel(move |tc| {
                    let funcs: Vec<TaskFn> = vec![Arc::new(
                        move |tc: &ThreadCtx, d: &TaskDesc, _s: &mut SpawnCtx| {
                            let b = d.args[0] as usize;
                            let (lo, hi) = block_range(np, b);
                            let mut state = vec![0.0; 6 * np];
                            tc.read_into(&st, 0, &mut state);
                            nbody_forces(&state, np, lo, hi)
                        },
                    )];
                    // Exactly-once task ids: node 0 spawns blocks in order,
                    // so the id-sorted merge *is* block order, identical at
                    // every width, wherever the tasks run — and identical
                    // again when a re-homed attempt re-runs the interval.
                    let merged = tc.task_phase(&funcs, |scope| {
                        if scope.node() == 0 {
                            for b in 0..BLOCKS.min(np) as u64 {
                                scope.spawn(0, vec![b]);
                            }
                        }
                    });
                    if let (Some(m), 0) = (merged, tc.thread_num()) {
                        let f = tc.bind_f64(&fs);
                        let mut off = 0;
                        for (_, vals) in &m {
                            for v in vals {
                                f.set(off, *v);
                                off += 1;
                            }
                        }
                    }
                    tc.barrier();
                });
                let mut state = vec![0.0; 6 * np];
                g.read_into(xs, 0, &mut state);
                let mut forces = vec![0.0; 3 * np];
                g.read_into(scratch, 0, &mut forces);
                nbody_integrate(&mut state, &forces, np);
                g.write_from(xs, 0, &state);
            }
        }
    }

    /// Digest of the job's final state after all intervals, via the
    /// sequential reference. Memoize by [`JobKind`]: equal kinds share it.
    pub fn reference_digest(&self) -> u64 {
        let mut st = self.init_state();
        for iv in 0..self.intervals() {
            self.step_reference(&mut st, iv);
        }
        digest(&st)
    }
}

/// One job submitted to the serving layer.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub id: u64,
    pub kind: JobKind,
    /// Smallest gang the job accepts.
    pub min_width: usize,
    /// Largest gang the job can use (elastic grow up to this).
    pub max_width: usize,
    /// Virtual submission time.
    pub submit_at: parade_net::VTime,
}

/// FNV-1a over the exact bit patterns of a state vector: the serving
/// layer's "bit-identical" currency.
pub fn digest(state: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in state {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Element range of fixed block `b` over `n` elements ([`BLOCKS`] blocks,
/// remainder spread over the leading blocks).
pub fn block_range(n: usize, b: usize) -> (usize, usize) {
    let nb = BLOCKS.min(n).max(1);
    let base = n / nb;
    let extra = n % nb;
    let lo = b * base + b.min(extra);
    let hi = lo + base + usize::from(b < extra);
    (lo.min(n), hi.min(n))
}

fn cg_row(x: &[f64], n: usize, i: usize) -> f64 {
    let xm = if i > 0 { x[i - 1] } else { 0.0 };
    let xp = if i + 1 < n { x[i + 1] } else { 0.0 };
    2.5 * x[i] - xm - xp
}

fn cg_normalize(y: &[f64], out: &mut [f64]) {
    let mut norm2 = 0.0;
    for v in y {
        norm2 += v * v;
    }
    let norm = norm2.sqrt().max(f64::MIN_POSITIVE);
    for (o, v) in out.iter_mut().zip(y) {
        *o = v / norm;
    }
}

/// One EP sub-block: `pairs/BLOCKS`-ish Gaussian pairs from a jump-ahead
/// stream at a deterministic offset. Pure function of `(seed, interval,
/// block)` — re-executions are bit-identical.
fn ep_block(seed: u64, interval: usize, b: usize, pairs: usize) -> (f64, f64, f64) {
    let (lo, hi) = block_range(pairs, b);
    let offset = 2 * (interval * pairs + lo) as u64;
    let mut rng = NasRng::nas(seed | 1).at_offset(offset);
    let (mut sx, mut sy, mut hits) = (0.0, 0.0, 0.0);
    for _ in lo..hi {
        let x = 2.0 * rng.next_f64() - 1.0;
        let y = 2.0 * rng.next_f64() - 1.0;
        let t = x * x + y * y;
        if t <= 1.0 && t > 0.0 {
            let f = (-2.0 * t.ln() / t).sqrt();
            sx += (x * f).abs();
            sy += (y * f).abs();
            hits += 1.0;
        }
    }
    (sx, sy, hits)
}

fn ep_fold(partials: &[f64], state: &mut [f64]) {
    for b in 0..BLOCKS {
        state[0] += partials[3 * b];
        state[1] += partials[3 * b + 1];
        state[2] += partials[3 * b + 2];
    }
    state[3] += 1.0;
}

/// Softened all-pairs gravity on particles `lo..hi`; inner sum in fixed
/// index order so the result is independent of who computes the block.
fn nbody_forces(state: &[f64], np: usize, lo: usize, hi: usize) -> Vec<f64> {
    const EPS2: f64 = 1e-3;
    let pos = &state[..3 * np];
    let mut out = Vec::with_capacity(3 * (hi - lo));
    for i in lo..hi {
        let (mut fx, mut fy, mut fz) = (0.0, 0.0, 0.0);
        let (xi, yi, zi) = (pos[3 * i], pos[3 * i + 1], pos[3 * i + 2]);
        for j in 0..np {
            if j == i {
                continue;
            }
            let dx = pos[3 * j] - xi;
            let dy = pos[3 * j + 1] - yi;
            let dz = pos[3 * j + 2] - zi;
            let r2 = dx * dx + dy * dy + dz * dz + EPS2;
            let inv = 1.0 / (r2 * r2.sqrt());
            fx += dx * inv;
            fy += dy * inv;
            fz += dz * inv;
        }
        out.push(fx);
        out.push(fy);
        out.push(fz);
    }
    out
}

fn nbody_integrate(state: &mut [f64], forces: &[f64], np: usize) {
    const DT: f64 = 1e-3;
    for i in 0..3 * np {
        state[3 * np + i] += forces[i] * DT;
        state[i] += state[3 * np + i] * DT;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_tile_exactly() {
        for n in [1usize, 5, 8, 9, 16, 37, 100] {
            let nb = BLOCKS.min(n);
            let mut covered = 0;
            for b in 0..nb {
                let (lo, hi) = block_range(n, b);
                assert_eq!(lo, covered, "n={n} b={b}");
                covered = hi;
            }
            assert_eq!(covered, n, "n={n}");
        }
    }

    #[test]
    fn references_are_stable_and_kind_dependent() {
        let a = JobKind::CgLite {
            n: 32,
            intervals: 3,
            seed: 7,
        };
        let b = JobKind::CgLite {
            n: 32,
            intervals: 3,
            seed: 8,
        };
        assert_eq!(a.reference_digest(), a.reference_digest());
        assert_ne!(a.reference_digest(), b.reference_digest());
    }

    #[test]
    fn ep_blocks_tile_the_lcg_stream() {
        // The per-block jump-ahead must tile exactly the pairs a single
        // serial stream would generate.
        let (pairs, seed, iv) = (100usize, 42u64, 3usize);
        let mut whole = NasRng::nas(seed | 1).at_offset(2 * (iv * pairs) as u64);
        let (mut sx, mut sy, mut hits) = (0.0, 0.0, 0.0);
        for _ in 0..pairs {
            let x = 2.0 * whole.next_f64() - 1.0;
            let y = 2.0 * whole.next_f64() - 1.0;
            let t = x * x + y * y;
            if t <= 1.0 && t > 0.0 {
                let f = (-2.0 * t.ln() / t).sqrt();
                sx += (x * f).abs();
                sy += (y * f).abs();
                hits += 1.0;
            }
        }
        let mut tot = (0.0, 0.0, 0.0);
        for b in 0..BLOCKS {
            let (bx, by, bh) = ep_block(seed, iv, b, pairs);
            tot = (tot.0 + bx, tot.1 + by, tot.2 + bh);
        }
        // Hit counts are exact; the sums may differ only in association
        // order — but each block is a contiguous run, so they must match
        // the serial fold of the same runs.
        assert_eq!(tot.2, hits);
        let _ = (sx, sy);
    }
}
