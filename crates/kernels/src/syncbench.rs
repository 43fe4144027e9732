//! EPCC-style directive overhead microbenchmarks (J.M. Bull's method,
//! which the paper uses for §6.1): the overhead of a directive is the
//! difference between a parallel region executing the directive
//! `reps` times and an identical reference region without it, divided by
//! the repetition count.
//!
//! Running the same measurement under `ProtocolMode::Parade` and
//! `ProtocolMode::SdsmOnly` regenerates the ParADE-vs-KDSM comparison of
//! Figures 6 and 7.

use parade_cluster::ClusterConfig;
use parade_core::{Cluster, ReduceOp, SharedScalar, ThreadCtx};

/// Directives measurable by the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Directive {
    /// `critical` enclosing a small analyzable update (Figure 6).
    Critical,
    /// `single` initializing a small shared variable (Figure 7).
    Single,
    /// `barrier`.
    Barrier,
    /// `reduction` clause.
    Reduction,
    /// `atomic`.
    Atomic,
}

impl Directive {
    pub fn label(self) -> &'static str {
        match self {
            Directive::Critical => "critical",
            Directive::Single => "single",
            Directive::Barrier => "barrier",
            Directive::Reduction => "reduction",
            Directive::Atomic => "atomic",
        }
    }
}

fn run_reps(d: Option<Directive>, tc: &ThreadCtx, s: &SharedScalar<f64>, reps: usize) -> f64 {
    let mut acc = 0.0;
    for k in 0..reps {
        match d {
            None => {
                // Reference body: the same trivial computation, no
                // synchronization construct around it.
                acc += k as f64 * 1e-9;
            }
            Some(Directive::Critical) => {
                acc = tc.critical_reduce_f64(s, ReduceOp::Sum, 1.0);
            }
            Some(Directive::Single) => {
                acc = tc.single_f64(s, |_| k as f64);
            }
            Some(Directive::Barrier) => {
                tc.barrier();
            }
            Some(Directive::Reduction) => {
                acc = tc.reduce_f64_sum(1.0);
            }
            Some(Directive::Atomic) => {
                acc = tc.atomic_add_f64(s, 1.0);
            }
        }
    }
    acc
}

fn region_time_us(cfg: &ClusterConfig, d: Option<Directive>, reps: usize) -> f64 {
    let cluster = Cluster::from_config(cfg.clone()).expect("cluster config");
    let (_, report) = cluster.run_with_report(move |g| {
        let s = g.alloc_scalar_f64();
        g.parallel(move |tc| {
            std::hint::black_box(run_reps(d, tc, &s, reps));
        });
    });
    report.exec_time.as_micros_f64()
}

/// Measured overhead of one directive.
#[derive(Debug, Clone, Copy)]
pub struct Overhead {
    pub directive: Directive,
    pub reps: usize,
    /// Microseconds per construct execution (EPCC-style difference).
    pub per_op_us: f64,
}

/// Measure `directive` under `cfg` with `reps` repetitions.
pub fn measure(cfg: &ClusterConfig, directive: Directive, reps: usize) -> Overhead {
    assert!(reps > 0 && reps < (1 << 19), "reps out of slot range");
    let t_test = region_time_us(cfg, Some(directive), reps);
    let t_ref = region_time_us(cfg, None, reps);
    Overhead {
        directive,
        reps,
        per_op_us: ((t_test - t_ref) / reps as f64).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parade_cluster::{ExecConfig, ProtocolMode};
    use parade_core::{NetProfile, TimeSource};

    fn cfg(nodes: usize, mode: ProtocolMode) -> ClusterConfig {
        ClusterConfig {
            nodes,
            exec: ExecConfig::OneThreadTwoCpu,
            protocol: mode,
            net: NetProfile::clan_via(),
            time: TimeSource::Manual,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn critical_parade_beats_sdsm_at_scale() {
        // The essence of Figure 6: on multiple nodes the collective path
        // is cheaper than the distributed-lock path.
        let reps = 30;
        let parade = measure(&cfg(4, ProtocolMode::Parade), Directive::Critical, reps);
        let sdsm = measure(&cfg(4, ProtocolMode::SdsmOnly), Directive::Critical, reps);
        assert!(
            parade.per_op_us < sdsm.per_op_us,
            "parade {} vs sdsm {}",
            parade.per_op_us,
            sdsm.per_op_us
        );
    }

    #[test]
    fn single_parade_beats_sdsm_at_scale() {
        let reps = 30;
        let parade = measure(&cfg(4, ProtocolMode::Parade), Directive::Single, reps);
        let sdsm = measure(&cfg(4, ProtocolMode::SdsmOnly), Directive::Single, reps);
        assert!(
            parade.per_op_us < sdsm.per_op_us,
            "parade {} vs sdsm {}",
            parade.per_op_us,
            sdsm.per_op_us
        );
    }

    #[test]
    fn overheads_grow_with_node_count() {
        let reps = 20;
        let d2 = measure(&cfg(2, ProtocolMode::Parade), Directive::Barrier, reps);
        let d8 = measure(&cfg(8, ProtocolMode::Parade), Directive::Barrier, reps);
        assert!(
            d8.per_op_us > d2.per_op_us,
            "2 nodes {} vs 8 nodes {}",
            d2.per_op_us,
            d8.per_op_us
        );
    }
}
