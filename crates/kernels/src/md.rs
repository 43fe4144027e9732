//! Molecular dynamics simulation (the `md.f` OpenMP sample the paper uses,
//! §6.2): `np` particles in a 3-D box with a smooth pairwise potential
//! `V(d) = sin²(min(d, π/2))`, integrated by velocity Verlet.
//!
//! Communication pattern resembles Helmholtz (positions are shared and
//! read by everyone) but the shared volume is smaller, so ParADE scales
//! well in all configurations (Figure 11).

use parade_core::{Cluster, ReduceOp, RunReport, ThreadCtx};

use crate::cost;
use crate::nasrng::NasRng;

/// Spatial dimensions (the sample uses 3).
pub const ND: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct MdParams {
    /// Number of particles.
    pub np: usize,
    /// Time steps.
    pub steps: usize,
    pub dt: f64,
    pub mass: f64,
    /// Box size for initial placement.
    pub box_size: f64,
    /// RNG seed for initial conditions.
    pub seed: u64,
}

impl Default for MdParams {
    fn default() -> Self {
        MdParams {
            np: 256,
            steps: 10,
            dt: 1e-4,
            mass: 1.0,
            box_size: 10.0,
            seed: 123_456_789,
        }
    }
}

impl MdParams {
    pub fn sized(np: usize, steps: usize) -> Self {
        MdParams {
            np,
            steps,
            ..MdParams::default()
        }
    }
}

/// Energies reported each step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MdEnergies {
    pub potential: f64,
    pub kinetic: f64,
}

impl MdEnergies {
    pub fn total(&self) -> f64 {
        self.potential + self.kinetic
    }
}

/// Result of a run: energies of the first and last step (the sample prints
/// conservation of `E`).
#[derive(Debug, Clone, Copy)]
pub struct MdResult {
    pub first: MdEnergies,
    pub last: MdEnergies,
}

impl MdResult {
    /// Relative energy drift over the run.
    pub fn drift(&self) -> f64 {
        ((self.last.total() - self.first.total()) / self.first.total()).abs()
    }
}

/// Deterministic initial conditions (positions uniform in the box,
/// velocities zero — as in the openmp.org sample's `initialize`).
pub fn initialize(p: &MdParams) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut rng = NasRng::nas(p.seed);
    let pos: Vec<f64> = (0..p.np * ND)
        .map(|_| p.box_size * rng.next_f64())
        .collect();
    let vel = vec![0.0; p.np * ND];
    let acc = vec![0.0; p.np * ND];
    (pos, vel, acc)
}

/// Pair potential `V(d)` and its derivative at distance `d`.
#[inline]
fn v_pair(d: f64) -> (f64, f64) {
    const HALF_PI: f64 = std::f64::consts::FRAC_PI_2;
    if d < HALF_PI {
        let s = d.sin();
        (s * s, (2.0 * d).sin())
    } else {
        (1.0, 0.0)
    }
}

/// Compute forces + energies for particles `range`, reading all positions.
/// Shared with the task-based n-body kernel ([`crate::nbody_task`]).
pub(crate) fn compute_range(
    p: &MdParams,
    pos: &[f64],
    vel: &[f64],
    range: std::ops::Range<usize>,
    force: &mut [f64],
) -> (f64, f64) {
    let np = p.np;
    let mut pot = 0.0;
    let mut kin = 0.0;
    for (bi, i) in range.enumerate() {
        let pi = &pos[i * ND..(i + 1) * ND];
        let fi = &mut force[bi * ND..(bi + 1) * ND];
        fi.fill(0.0);
        for j in 0..np {
            if j == i {
                continue;
            }
            let pj = &pos[j * ND..(j + 1) * ND];
            let mut d2 = 0.0;
            let mut rij = [0.0f64; ND];
            for k in 0..ND {
                rij[k] = pi[k] - pj[k];
                d2 += rij[k] * rij[k];
            }
            let d = d2.sqrt().max(1e-12);
            let (v, dv) = v_pair(d);
            // Each pair counted twice; halve the potential.
            pot += 0.5 * v;
            for k in 0..ND {
                fi[k] -= rij[k] * dv / d;
            }
        }
        for k in 0..ND {
            let vk = vel[i * ND + k];
            kin += vk * vk;
        }
    }
    kin *= 0.5 * p.mass;
    (pot, kin)
}

/// Velocity-Verlet update for particles `range` (local arrays).
pub(crate) fn update_range(
    p: &MdParams,
    range: std::ops::Range<usize>,
    pos: &mut [f64],
    vel: &mut [f64],
    acc: &mut [f64],
    force: &[f64],
) {
    let rmass = 1.0 / p.mass;
    let dt = p.dt;
    for (bi, _i) in range.enumerate() {
        for k in 0..ND {
            let idx = bi * ND + k;
            let f = force[idx];
            pos[idx] += vel[idx] * dt + 0.5 * dt * dt * acc[idx];
            vel[idx] += 0.5 * dt * (f * rmass + acc[idx]);
            acc[idx] = f * rmass;
        }
    }
}

/// Sequential reference implementation.
pub fn md_sequential(p: MdParams) -> MdResult {
    let (mut pos, mut vel, mut acc) = initialize(&p);
    let mut force = vec![0.0; p.np * ND];
    let mut first = None;
    let mut last = MdEnergies {
        potential: 0.0,
        kinetic: 0.0,
    };
    for _ in 0..p.steps {
        let (pot, kin) = compute_range(&p, &pos, &vel, 0..p.np, &mut force);
        last = MdEnergies {
            potential: pot,
            kinetic: kin,
        };
        first.get_or_insert(last);
        update_range(&p, 0..p.np, &mut pos, &mut vel, &mut acc, &force);
    }
    MdResult {
        first: first.expect("at least one step"),
        last,
    }
}

/// ParADE version: positions shared in the DSM (read by every node each
/// step), velocities/accelerations/forces owned per thread, energies
/// reduced with a merged two-variable reduction (§4.2).
pub fn md_parade(cluster: &Cluster, p: MdParams) -> (MdResult, RunReport) {
    cluster.run_with_report(move |g| {
        let np = p.np;
        let pos_sh = g.alloc_f64(np * ND);
        let (init_pos, _, _) = initialize(&p);
        g.write_from(&pos_sh, 0, &init_pos);

        g.parallel(move |tc: &ThreadCtx| {
            let range = tc.for_static(0..np);
            let nmine = range.len();
            let mut posfull = vec![0.0f64; np * ND];
            // Owned slices of the particle state.
            let mut lpos = vec![0.0f64; nmine * ND];
            tc.read_into(&pos_sh, range.start * ND, &mut lpos);
            let mut lvel = vec![0.0f64; nmine * ND];
            let mut lacc = vec![0.0f64; nmine * ND];
            let mut lforce = vec![0.0f64; nmine * ND];

            let mut first = None;
            let mut last = MdEnergies {
                potential: 0.0,
                kinetic: 0.0,
            };
            tc.barrier();
            for _ in 0..p.steps {
                tc.read_into(&pos_sh, 0, &mut posfull);
                // Forces need all positions; velocities are local.
                let mut vel_view = vec![0.0f64; np * ND];
                vel_view[range.start * ND..range.end * ND].copy_from_slice(&lvel);
                let (lpot, lkin) =
                    compute_range(&p, &posfull, &vel_view, range.clone(), &mut lforce);
                tc.compute(cost::MD_PAIR.of(nmine * (np - 1)));
                // reduction(+: pot, kin) merged into one structure.
                let sums = tc.reduce_f64s(ReduceOp::Sum, &[lpot, lkin]);
                last = MdEnergies {
                    potential: sums[0],
                    kinetic: sums[1],
                };
                first.get_or_insert(last);
                update_range(&p, range.clone(), &mut lpos, &mut lvel, &mut lacc, &lforce);
                tc.write_from(&pos_sh, range.start * ND, &lpos);
                tc.barrier();
            }
            MdResult {
                first: first.expect("at least one step"),
                last,
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parade_core::{NetProfile, TimeSource};

    #[test]
    fn energy_is_conserved_sequentially() {
        let p = MdParams::sized(64, 20);
        let r = md_sequential(p);
        assert!(r.first.total() > 0.0);
        assert!(r.drift() < 1e-6, "drift {}", r.drift());
    }

    #[test]
    fn parallel_matches_sequential() {
        let p = MdParams::sized(48, 5);
        let seq = md_sequential(p);
        let c = Cluster::builder()
            .nodes(2)
            .threads_per_node(2)
            .net(NetProfile::zero())
            .time(TimeSource::Manual)
            .build()
            .unwrap();
        let (par, _) = md_parade(&c, p);
        assert!((par.last.potential - seq.last.potential).abs() < 1e-9);
        assert!((par.last.kinetic - seq.last.kinetic).abs() < 1e-9);
    }

    #[test]
    fn potential_is_smooth_at_cutoff() {
        let (v1, dv1) = v_pair(std::f64::consts::FRAC_PI_2 - 1e-9);
        let (v2, dv2) = v_pair(std::f64::consts::FRAC_PI_2 + 1e-9);
        assert!((v1 - v2).abs() < 1e-6);
        assert!(dv1.abs() < 1e-6 && dv2 == 0.0);
    }
}
