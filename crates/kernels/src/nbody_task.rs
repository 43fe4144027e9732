//! Task-based n-body: the [`crate::md`] force computation recast as an
//! irregular task graph executed by the distributed work-stealing scheduler.
//!
//! Each time step is one task phase: the particle set is cut into `blocks`
//! force blocks, block `b` is spawned by node `b % nnodes`, and idle nodes
//! steal blocks from busy ones. A block task returns `[pot, kin,
//! f_x0, f_y0, f_z0, ...]` for its particles; the id-sorted merge puts the
//! blocks back in order on every node, which then applies an identical
//! velocity-Verlet update to its replicated state.
//!
//! Determinism: particle state is replicated per node from the seed and
//! advanced only from the merged (id-ordered) block results, and block ids
//! are a pure function of the block index — so the trajectory is
//! **bit-identical** for any steal schedule, seed, victim order, or chaos
//! fault pattern, and equal to [`nbody_task_sequential`], which sums block
//! partials in the same order.

use std::sync::Arc;

use parade_core::{partition, Cluster, RunReport, TaskFn};
use parade_net::sync::Mutex;

use crate::md::{compute_range, initialize, update_range, MdEnergies, MdParams, MdResult, ND};

/// Per-node replicated particle state.
struct Sim {
    pos: Vec<f64>,
    vel: Vec<f64>,
    acc: Vec<f64>,
}

/// Per-block force computation: energies first, then the force components
/// of the block's particles.
fn block_result(p: &MdParams, sim: &Sim, block: usize, blocks: usize) -> Vec<f64> {
    let range = partition(0..p.np, blocks, block);
    let mut force = vec![0.0; range.len() * ND];
    let (pot, kin) = compute_range(p, &sim.pos, &sim.vel, range, &mut force);
    let mut out = Vec::with_capacity(2 + force.len());
    out.push(pot);
    out.push(kin);
    out.extend_from_slice(&force);
    out
}

/// Apply one step from the merged block results (identical on every node).
fn apply_merged(
    p: &MdParams,
    sim: &mut Sim,
    blocks: usize,
    merged: &[(u64, Vec<f64>)],
) -> MdEnergies {
    assert_eq!(merged.len(), blocks, "one result per force block");
    let mut pot = 0.0;
    let mut kin = 0.0;
    let mut force = vec![0.0; p.np * ND];
    for (b, (_, r)) in merged.iter().enumerate() {
        pot += r[0];
        kin += r[1];
        let range = partition(0..p.np, blocks, b);
        force[range.start * ND..range.end * ND].copy_from_slice(&r[2..]);
    }
    update_range(p, 0..p.np, &mut sim.pos, &mut sim.vel, &mut sim.acc, &force);
    MdEnergies {
        potential: pot,
        kinetic: kin,
    }
}

/// Sequential reference: the same blockwise computation on one node (same
/// floating-point summation order as the distributed version).
pub fn nbody_task_sequential(p: MdParams, blocks: usize) -> MdResult {
    let (pos, vel, acc) = initialize(&p);
    let mut sim = Sim { pos, vel, acc };
    let mut first = None;
    let mut last = MdEnergies {
        potential: 0.0,
        kinetic: 0.0,
    };
    for _ in 0..p.steps {
        let merged: Vec<(u64, Vec<f64>)> = (0..blocks)
            .map(|b| (2 * b as u64 + 1, block_result(&p, &sim, b, blocks)))
            .collect();
        last = apply_merged(&p, &mut sim, blocks, &merged);
        first.get_or_insert(last);
    }
    MdResult {
        first: first.expect("at least one step"),
        last,
    }
}

/// Distributed task version: one task phase per step, block `b` spawned by
/// node `b % nnodes` (so root task ids come out as `2b + 1` and the merge
/// is in block order), stolen freely under the configured strategy.
pub fn nbody_task_parade(cluster: &Cluster, p: MdParams, blocks: usize) -> (MdResult, RunReport) {
    cluster.run_with_report(move |g| {
        g.parallel(move |tc| {
            let (pos, vel, acc) = initialize(&p);
            let sim = Arc::new(Mutex::new(Sim { pos, vel, acc }));
            let sim_body = Arc::clone(&sim);
            let funcs: Vec<TaskFn> = vec![Arc::new(move |_tc, d, _s| {
                let sim = sim_body.lock();
                block_result(&p, &sim, d.args[0] as usize, d.args[1] as usize)
            })];
            let mut first = None;
            let mut last = MdEnergies {
                potential: 0.0,
                kinetic: 0.0,
            };
            for _ in 0..p.steps {
                let merged = tc.task_phase(&funcs, |scope| {
                    let (n, nn) = (scope.node(), scope.num_nodes());
                    for b in 0..blocks {
                        if b % nn == n {
                            scope.spawn(0, vec![b as u64, blocks as u64]);
                        }
                    }
                });
                if let Some(merged) = merged {
                    last = apply_merged(&p, &mut sim.lock(), blocks, &merged);
                    first.get_or_insert(last);
                }
            }
            // Lead threads hold the result; the master's is returned.
            first.map(|f| MdResult { first: f, last })
        })
        .expect("master thread is a lead")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parade_core::{NetProfile, SchedConfig, StealStrategy, TimeSource};

    fn cluster(nodes: usize, tpn: usize, sched: SchedConfig) -> Cluster {
        Cluster::builder()
            .nodes(nodes)
            .threads_per_node(tpn)
            .net(NetProfile::zero())
            .time(TimeSource::Manual)
            .task_scheduler(sched)
            .build()
            .unwrap()
    }

    fn bits(r: &MdResult) -> [u64; 4] {
        [
            r.first.potential.to_bits(),
            r.first.kinetic.to_bits(),
            r.last.potential.to_bits(),
            r.last.kinetic.to_bits(),
        ]
    }

    #[test]
    fn task_nbody_matches_blockwise_sequential_bitwise() {
        let p = MdParams::sized(48, 4);
        let seq = nbody_task_sequential(p, 6);
        let c = cluster(3, 1, SchedConfig::default());
        let (par, _) = nbody_task_parade(&c, p, 6);
        assert_eq!(bits(&seq), bits(&par));
    }

    #[test]
    fn task_nbody_is_bit_identical_across_steal_seeds_and_strategies() {
        let p = MdParams::sized(32, 3);
        let mut all = Vec::new();
        for seed in [1u64, 0xDEAD_BEEF, 42] {
            let c = cluster(
                2,
                2,
                SchedConfig {
                    seed,
                    ..SchedConfig::default()
                },
            );
            let (r, _) = nbody_task_parade(&c, p, 8);
            all.push(bits(&r));
        }
        let c = cluster(
            2,
            2,
            SchedConfig {
                strategy: StealStrategy::Flat,
                ..SchedConfig::default()
            },
        );
        let (flat, _) = nbody_task_parade(&c, p, 8);
        all.push(bits(&flat));
        all.push(bits(&nbody_task_sequential(p, 8)));
        for w in all.windows(2) {
            assert_eq!(w[0], w[1], "steal schedule changed the trajectory");
        }
    }

    #[test]
    fn task_nbody_survives_chaos() {
        // Four nodes and the real link profile: enough steal traffic that
        // the 2 % drop rate always bites, whoever ends up stealing what.
        let p = MdParams::sized(48, 2);
        let seq = nbody_task_sequential(p, 8);
        let c = Cluster::builder()
            .nodes(4)
            .threads_per_node(2)
            .net(NetProfile::clan_via())
            .time(TimeSource::Manual)
            .chaos(parade_net::ChaosProfile::lossy(0x7A5C_5EED))
            .build()
            .unwrap();
        let (par, report) = nbody_task_parade(&c, p, 8);
        assert_eq!(bits(&seq), bits(&par), "chaos changed the trajectory");
        assert!(report.cluster.fabric_errors.is_empty());
        let h = report.cluster.link_health_totals();
        assert!(h.retransmits >= 1, "the soak must retransmit: {h:?}");
    }

    #[test]
    fn energy_is_conserved_under_tasking() {
        let p = MdParams::sized(64, 20);
        let r = nbody_task_sequential(p, 5);
        assert!(r.drift() < 1e-6, "drift {}", r.drift());
    }
}
