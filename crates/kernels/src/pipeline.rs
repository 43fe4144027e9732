//! Pipeline workload: `items × stages` dependency chains through the task
//! scheduler's `depend`/inject dataflow.
//!
//! Item `i` flows through `stages` transformation stages; stage `s` depends
//! on stage `s-1` and receives its predecessor's result through result
//! injection (the scheduler appends each dependency's output to the task's
//! args, bit-for-bit). The whole chain for item `i` is spawned by node
//! `i % nnodes` — dependency edges are resolved at the spawning (home)
//! node — but the released tasks themselves migrate freely under work
//! stealing, so different items' stages overlap across the cluster like a
//! software pipeline.
//!
//! Because every stage is a pure function of its injected input and the
//! merge is id-ordered, the output is **bit-identical** to the sequential
//! fold for any steal schedule, seed, or chaos fault pattern.

use std::sync::Arc;

use parade_core::{Cluster, RunReport, TaskFn};

#[derive(Debug, Clone, Copy)]
pub struct PipelineParams {
    /// Independent work items flowing through the pipeline.
    pub items: usize,
    /// Stages each item passes through (the length of each dep chain).
    pub stages: usize,
    /// Seed for the per-item initial values.
    pub seed: u64,
}

impl Default for PipelineParams {
    fn default() -> Self {
        PipelineParams {
            items: 16,
            stages: 4,
            seed: 0x9E37_79B9,
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic initial value for item `i`, in `[0, 1)`.
fn initial(p: &PipelineParams, item: usize) -> f64 {
    (splitmix(p.seed ^ item as u64) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The stage transformation: a pure function of the stage index and the
/// incoming value (an affine map with stage-dependent coefficients).
fn stage_fn(stage: usize, v: f64) -> f64 {
    let s = stage as f64;
    v * (1.0 + 0.5 * s) + 0.25 * (s + 1.0)
}

/// Sequential reference: fold each item through all stages.
pub fn pipeline_sequential(p: PipelineParams) -> Vec<f64> {
    (0..p.items)
        .map(|i| (0..p.stages).fold(initial(&p, i), |v, s| stage_fn(s, v)))
        .collect()
}

/// Root-task id of stage `s` of item `i` (spawned by node `i % nn` as its
/// `(i / nn) * stages + s`-th spawn); mirrors the scheduler's id scheme.
fn stage_task_id(i: usize, s: usize, stages: usize, nn: usize) -> u64 {
    let ord = ((i / nn) * stages + s) as u64;
    2 * (ord * nn as u64 + (i % nn) as u64) + 1
}

/// Distributed pipeline: one task phase; node `i % nn` spawns item `i`'s
/// whole stage chain with `depend`+inject edges; stages execute wherever
/// the steal schedule sends them.
pub fn pipeline_parade(cluster: &Cluster, p: PipelineParams) -> (Vec<f64>, RunReport) {
    cluster.run_with_report(move |g| {
        g.parallel(move |tc| {
            let funcs: Vec<TaskFn> = vec![Arc::new(|_tc, d, _s| {
                let stage = d.args[1] as usize;
                // args[2] is either the seed value (stage 0) or the
                // injected result of the previous stage.
                vec![stage_fn(stage, f64::from_bits(d.args[2]))]
            })];
            let merged = tc.task_phase(&funcs, |scope| {
                let (n, nn) = (scope.node(), scope.num_nodes());
                for i in 0..p.items {
                    if i % nn != n {
                        continue;
                    }
                    let mut prev = scope.spawn(0, vec![i as u64, 0, initial(&p, i).to_bits()]);
                    for s in 1..p.stages {
                        prev = scope.spawn_with_deps(0, vec![i as u64, s as u64], vec![prev], true);
                    }
                }
            });
            merged.map(|m| {
                assert_eq!(m.len(), p.items * p.stages, "one result per stage task");
                let nn = tc.num_nodes();
                let by_id: std::collections::HashMap<u64, f64> =
                    m.into_iter().map(|(id, r)| (id, r[0])).collect();
                (0..p.items)
                    .map(|i| by_id[&stage_task_id(i, p.stages - 1, p.stages, nn)])
                    .collect::<Vec<f64>>()
            })
        })
        .expect("master thread is a lead")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parade_core::{NetProfile, SchedConfig, StealStrategy, TimeSource};

    fn cluster(nodes: usize, sched: SchedConfig) -> Cluster {
        Cluster::builder()
            .nodes(nodes)
            .threads_per_node(1)
            .net(NetProfile::zero())
            .time(TimeSource::Manual)
            .task_scheduler(sched)
            .build()
            .unwrap()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn pipeline_matches_sequential_bitwise() {
        let p = PipelineParams::default();
        let seq = pipeline_sequential(p);
        let c = cluster(3, SchedConfig::default());
        let (par, _) = pipeline_parade(&c, p);
        assert_eq!(bits(&seq), bits(&par));
    }

    #[test]
    fn pipeline_is_bit_identical_across_steal_seeds_and_strategies() {
        let p = PipelineParams {
            items: 9,
            stages: 5,
            ..PipelineParams::default()
        };
        let mut all = vec![bits(&pipeline_sequential(p))];
        for seed in [3u64, 0xFACE, 1_000_003] {
            let c = cluster(
                4,
                SchedConfig {
                    seed,
                    ..SchedConfig::default()
                },
            );
            let (r, _) = pipeline_parade(&c, p);
            all.push(bits(&r));
        }
        let c = cluster(
            4,
            SchedConfig {
                strategy: StealStrategy::Flat,
                ..SchedConfig::default()
            },
        );
        let (flat, _) = pipeline_parade(&c, p);
        all.push(bits(&flat));
        for w in all.windows(2) {
            assert_eq!(w[0], w[1], "steal schedule changed pipeline output");
        }
    }

    #[test]
    fn pipeline_survives_chaos() {
        let p = PipelineParams {
            items: 6,
            stages: 3,
            ..PipelineParams::default()
        };
        let seq = pipeline_sequential(p);
        let c = Cluster::builder()
            .nodes(2)
            .threads_per_node(1)
            .net(NetProfile::zero())
            .time(TimeSource::Manual)
            .chaos(parade_net::ChaosProfile::lossy(11))
            .build()
            .unwrap();
        let (par, _) = pipeline_parade(&c, p);
        assert_eq!(bits(&seq), bits(&par), "chaos changed pipeline output");
    }

    #[test]
    fn stage_fn_composition_is_what_the_reference_computes() {
        let p = PipelineParams {
            items: 2,
            stages: 3,
            ..PipelineParams::default()
        };
        let out = pipeline_sequential(p);
        let hand = stage_fn(2, stage_fn(1, stage_fn(0, initial(&p, 1))));
        assert_eq!(out[1].to_bits(), hand.to_bits());
    }
}
