//! One job attempt on a private sub-fabric, with barrier-time checkpoints.
//!
//! Every attempt is its own [`Cluster`]: a fresh fabric at the job's gang
//! width (one compute thread per node — the serving layer's gangs are
//! node-granular), so concurrent jobs are isolated by construction and a
//! dead link takes down exactly one job. The master checkpoints the job's
//! state region through the DSM page-read path at every interval boundary;
//! a failed attempt leaves the last completed interval in the checkpoint
//! cell, and the next attempt restores from it and re-runs only the
//! interval that died.

use std::sync::{Arc, Mutex};

use parade_core::{Cluster, ClusterConfig, DsmConfig, FailedRun, RunReport};
use parade_net::{ChaosProfile, NetProfile, TimeSource};

use crate::job::JobSpec;

/// The survivable unit of progress: the interval index reached, plus the
/// raw bytes of the job's state region captured at that boundary.
#[derive(Debug, Clone, Default)]
pub struct Checkpoint {
    /// Intervals completed (the next attempt resumes here).
    pub interval: usize,
    /// Page bytes of the state region; `None` until the first boundary.
    pub state: Option<Vec<u8>>,
}

/// Shared checkpoint cell: written by the job's master at every interval
/// boundary, read by the scheduler when it re-homes the job.
pub type CkptCell = Arc<Mutex<Checkpoint>>;

pub fn fresh_cell() -> CkptCell {
    Arc::new(Mutex::new(Checkpoint::default()))
}

fn lock(cell: &CkptCell) -> std::sync::MutexGuard<'_, Checkpoint> {
    // A node death can unwind the master mid-update in principle; the
    // checkpoint is still the last fully written value either way.
    cell.lock().unwrap_or_else(|p| p.into_inner())
}

/// A successful attempt: the final state, its digest, and the run report
/// (virtual times, per-job DSM/network counters).
pub struct AttemptOutcome {
    pub state: Vec<f64>,
    pub digest: u64,
    pub report: RunReport,
}

/// The private sub-fabric of one attempt: `width` nodes of one compute
/// thread each and a 64-page pool per node.
fn attempt_cluster(width: usize, chaos: ChaosProfile) -> Cluster {
    Cluster::builder()
        .config(ClusterConfig {
            dsm: DsmConfig {
                pool_bytes: 64 * parade_dsm::PAGE_SIZE,
                ..DsmConfig::default()
            },
            ..ClusterConfig::default()
        })
        .nodes(width)
        .threads_per_node(1)
        .net(NetProfile::clan_via())
        .time(TimeSource::Manual)
        .chaos(chaos)
        .build()
        .expect("serve cluster config")
}

/// Run one attempt of `spec` at `width` nodes, resuming from `cell`.
///
/// On success the checkpoint cell holds the final interval; on a node
/// death it still holds the last *completed* interval, and the returned
/// [`FailedRun`] names the dead link so the scheduler can re-home.
pub fn run_attempt(
    spec: &JobSpec,
    width: usize,
    chaos: ChaosProfile,
    cell: &CkptCell,
) -> Result<AttemptOutcome, Box<FailedRun>> {
    let kind = spec.kind;
    let cluster = attempt_cluster(width, chaos);
    let cell2 = Arc::clone(cell);
    cluster
        .try_run_with_report(move |g| {
            let start = lock(&cell2).clone();
            let n = kind.state_len();
            let xs = g.alloc_f64(n);
            let scratch = g.alloc_f64(kind.scratch_len());
            match &start.state {
                // Re-home: the checkpointed pages become the fresh
                // sub-fabric's initial contents.
                Some(bytes) => g.restore(&xs, bytes),
                None => g.write_from(&xs, 0, &kind.init_state()),
            }
            for iv in start.interval..kind.intervals() {
                kind.step_parallel(g, &xs, &scratch, iv);
                // Barrier-time page checkpoint through the DSM read path.
                let snap = g.checkpoint(&xs);
                let mut c = lock(&cell2);
                c.interval = iv + 1;
                c.state = Some(snap);
            }
            let mut state = vec![0.0; n];
            g.read_into(&xs, 0, &mut state);
            state
        })
        .map(|(state, report)| {
            let digest = crate::job::digest(&state);
            AttemptOutcome {
                state,
                digest,
                report,
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;
    use parade_net::VTime;

    fn spec(kind: JobKind) -> JobSpec {
        JobSpec {
            id: 1,
            kind,
            min_width: 1,
            max_width: 3,
            submit_at: VTime::ZERO,
        }
    }

    #[test]
    fn every_width_matches_the_sequential_reference() {
        let kinds = [
            JobKind::CgLite {
                n: 24,
                intervals: 3,
                seed: 11,
            },
            JobKind::EpBlocks {
                batches: 2,
                pairs_per_batch: 64,
                seed: 12,
            },
            JobKind::Nbody {
                np: 10,
                steps: 2,
                seed: 13,
            },
        ];
        for kind in kinds {
            let expect = kind.reference_digest();
            for width in 1..=3 {
                let out = run_attempt(&spec(kind), width, ChaosProfile::off(), &fresh_cell())
                    .expect("no chaos, no failure");
                assert_eq!(
                    out.digest, expect,
                    "kind {kind:?} at width {width} must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn resuming_from_a_checkpoint_reproduces_the_full_run() {
        let kind = JobKind::CgLite {
            n: 16,
            intervals: 4,
            seed: 5,
        };
        let full = run_attempt(&spec(kind), 2, ChaosProfile::off(), &fresh_cell())
            .expect("clean run")
            .digest;
        // Manufacture a mid-run checkpoint by running the reference to
        // interval 2, then hand it to an attempt as if a death happened.
        let mut st = kind.init_state();
        kind.step_reference(&mut st, 0);
        kind.step_reference(&mut st, 1);
        let bytes: Vec<u8> = st.iter().flat_map(|v| v.to_le_bytes()).collect();
        let cell = fresh_cell();
        *cell.lock().unwrap() = Checkpoint {
            interval: 2,
            state: Some(bytes),
        };
        let resumed = run_attempt(&spec(kind), 2, ChaosProfile::off(), &cell)
            .expect("resume run")
            .digest;
        assert_eq!(resumed, full, "resume must not change a single bit");
    }

    /// Two jobs back to back from one thread: the second job's node pools
    /// are the first one's, recycled, and its first region lies at the
    /// offsets the first job filled. Every node's copy of it must still
    /// read zero, with no page fetched: the pools were cleared as far as
    /// the first job allocated.
    #[test]
    fn a_job_after_a_job_reads_zero_pages_without_a_fetch() {
        let words = 4 * parade_dsm::PAGE_SIZE / 8;
        let job = |fill: f64| {
            attempt_cluster(3, ChaosProfile::off()).run_with_report(move |g| {
                let xs = g.alloc_f64(words);
                g.parallel(move |tc| {
                    let mine = tc.for_static(0..words);
                    let mut seen = vec![1.0; mine.len()];
                    tc.read_into(&xs, mine.start, &mut seen);
                    assert!(
                        seen.iter().all(|&x| x == 0.0),
                        "node {} read a fresh region that is not zero",
                        tc.node()
                    );
                    tc.write_from(&xs, mine.start, &vec![fill; mine.len()]);
                });
            })
        };
        for fill in [7.0, 9.0] {
            let (_, report) = job(fill);
            assert_eq!(report.cluster.dsm_totals().page_fetches, 0, "fill {fill}");
        }
    }
}
