//! Cluster tasking from inside a parallel region: [`ThreadCtx::task_phase`]
//! and the [`TaskScope`] spawn surface.
//!
//! A *task phase* treats the whole cluster as one task pool: each node's
//! lead thread runs a `parade-tasks` scheduler over the node's
//! communicator, task bodies execute with full [`ThreadCtx`] access (DSM
//! reads/writes fault pages in as usual), and the phase ends when the
//! distributed termination detector proves every spawned task ran exactly
//! once. The phase opens with a cluster barrier, so data written before
//! the phase is visible to every task. It closes with one too when any
//! node wrote a shared page during the phase, so task-written pages are
//! visible everywhere after it (write faults record interval notices that
//! the closing barrier advertises). When no node wrote — every node learns
//! that from the phase's one all-to-all result exchange — the closing
//! barrier would carry no notice, and it stays node-local.
//!
//! That closing barrier is the phase's only release point, OpenMP's rule
//! for tasks without `depend` or `taskwait`: a task may read what was
//! written before the phase, and what tasks write is visible after it. A
//! task's result stays on the node that ran it until the merge.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use parade_net::VClock;
use parade_tasks::{run_to_merge, NodeSched, TaskCtx as SpawnCtx, TaskDesc, TaskExecutor};

use crate::ctx::ThreadCtx;

/// A task body: runs on whichever node the scheduler places it, with that
/// node's thread context (DSM access, virtual-time charging), the task's
/// descriptor (function index and args), and a spawn context for children.
/// Returns the task's result values, merged cluster-wide at the end of the
/// phase.
pub type TaskFn = Arc<dyn Fn(&ThreadCtx, &TaskDesc, &mut SpawnCtx) -> Vec<f64> + Send + Sync>;

/// Adapter between the scheduler's executor and the node runtime: bodies
/// come from the phase's function table, `wrote` asks the DSM whether this
/// node holds a write notice for the current interval.
struct CoreExecutor<'a> {
    tc: &'a ThreadCtx,
    funcs: &'a [TaskFn],
}

impl TaskExecutor for CoreExecutor<'_> {
    fn exec(&mut self, desc: &TaskDesc, sctx: &mut SpawnCtx, clock: &mut VClock) -> Vec<f64> {
        // The scheduler holds the thread's clock exclusively for the phase;
        // park it back under the thread context while the body runs so
        // ThreadCtx accessors charge the right clock, then reclaim it.
        self.tc
            .put_clock(std::mem::replace(clock, VClock::manual()));
        let f = self.funcs.get(desc.func as usize).unwrap_or_else(|| {
            panic!("task function index {} out of range", desc.func);
        });
        let r = f(self.tc, desc, sctx);
        *clock = self.tc.take_clock();
        r
    }

    fn wrote(&mut self) -> bool {
        self.tc.rt().dsm.interval_wrote()
    }
}

/// The root spawn surface of a task phase, handed to the phase body on each
/// node's lead thread.
pub struct TaskScope<'a> {
    tc: &'a ThreadCtx,
    sched: NodeSched,
}

impl TaskScope<'_> {
    pub fn node(&self) -> usize {
        self.tc.node()
    }

    pub fn num_nodes(&self) -> usize {
        self.tc.num_nodes()
    }

    /// Spawn a root task (`#pragma omp task`). Returns its id.
    pub fn spawn(&mut self, func: u32, args: Vec<u64>) -> u64 {
        let mut clock = self.tc.take_clock();
        let id = self.sched.spawn(func, args, &mut clock);
        self.tc.put_clock(clock);
        id
    }
}

impl ThreadCtx {
    /// Run a task phase: `body` executes on each node's lead thread to
    /// spawn root tasks (other threads of the team skip straight to the
    /// closing barrier), then the distributed scheduler runs every task.
    /// The closing barrier is a cluster barrier only if some node wrote a
    /// shared page during the phase.
    ///
    /// Returns `Some` of the id-sorted `(task id, result)` merge on lead
    /// threads — identical on every node regardless of steal schedule —
    /// and `None` on non-lead threads.
    pub fn task_phase(
        &self,
        funcs: &[TaskFn],
        body: impl FnOnce(&mut TaskScope),
    ) -> Option<Vec<(u64, Vec<f64>)>> {
        // Opening consistency point: pre-phase writes visible everywhere.
        self.barrier();
        let merged = if self.local_thread() == 0 {
            let sched = NodeSched::new(Arc::clone(&self.rt().comm), self.rt().task_cfg);
            let mut scope = TaskScope { tc: self, sched };
            body(&mut scope);
            let mut clock = self.take_clock();
            let mut ex = CoreExecutor { tc: self, funcs };
            let merged = run_to_merge(&mut scope.sched, &mut ex, &mut clock);
            self.put_clock(clock);
            self.rt()
                .phase_wrote
                .store(scope.sched.any_node_wrote(), Ordering::Relaxed);
            Some(merged)
        } else {
            None
        };
        // Closing consistency point: task-written pages visible everywhere.
        // Every node holds the same flag, so all of them take the DSM
        // barrier or none does.
        self.barrier_if(|| self.rt().phase_wrote.load(Ordering::Relaxed));
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::team::Cluster;
    use parade_cluster::ProtocolMode;
    use parade_net::{NetProfile, TimeSource};
    use parade_tasks::{SchedConfig, StealStrategy};

    fn test_cluster(nodes: usize, tpn: usize, sched: SchedConfig) -> Cluster {
        Cluster::builder()
            .nodes(nodes)
            .threads_per_node(tpn)
            .net(NetProfile::zero())
            .time(TimeSource::Manual)
            .task_scheduler(sched)
            .build()
            .unwrap()
    }

    fn run_square_phase(sched: SchedConfig) -> Vec<(u64, Vec<f64>)> {
        let c = test_cluster(2, 2, sched);
        c.run(|g| {
            g.parallel(move |tc| {
                let funcs: Vec<TaskFn> = vec![Arc::new(
                    |_tc: &ThreadCtx, d: &TaskDesc, _s: &mut SpawnCtx| {
                        vec![(d.args[0] * d.args[0]) as f64]
                    },
                )];
                tc.task_phase(&funcs, |scope| {
                    for i in 0..6u64 {
                        scope.spawn(0, vec![i + 10 * scope.node() as u64]);
                    }
                })
            })
            .expect("master thread is node 0's lead")
        })
    }

    #[test]
    fn task_phase_merges_identically_across_strategies() {
        let flat = run_square_phase(SchedConfig {
            strategy: StealStrategy::Flat,
            ..SchedConfig::default()
        });
        let random = run_square_phase(SchedConfig::default());
        assert_eq!(flat.len(), 12, "6 root spawns per node on 2 nodes");
        assert_eq!(flat, random);
    }

    #[test]
    fn task_bodies_read_and_write_dsm() {
        let c = test_cluster(2, 2, SchedConfig::default());
        let out = c.run(|g| {
            let xs = g.alloc_f64(64);
            for i in 0..64 {
                g.set(&xs, i, i as f64);
            }
            g.parallel(move |tc| {
                let funcs: Vec<TaskFn> = vec![Arc::new(
                    move |tc: &ThreadCtx, d: &TaskDesc, _s: &mut SpawnCtx| {
                        let (a, b) = (d.args[0] as usize, d.args[1] as usize);
                        let mut sum = 0.0;
                        for i in a..b {
                            let v = tc.get(&xs, i);
                            tc.set(&xs, i, v + 1.0);
                            sum += v;
                        }
                        vec![sum]
                    },
                )];
                let merged = tc.task_phase(&funcs, |scope| {
                    if scope.node() == 0 {
                        for blk in 0..4u64 {
                            scope.spawn(0, vec![blk * 16, (blk + 1) * 16]);
                        }
                    }
                });
                // Post-phase barrier published the increments everywhere.
                let mut total = 0.0;
                for i in tc.for_static(0..64) {
                    total += tc.get(&xs, i);
                }
                let total = tc.reduce_f64_sum(total);
                (merged, total)
            })
        });
        let (merged, total) = out;
        let merged = merged.expect("lead thread");
        let task_sum: f64 = merged.iter().map(|(_, r)| r[0]).sum();
        assert_eq!(task_sum, (0..64).sum::<usize>() as f64);
        assert_eq!(total, (0..64).sum::<usize>() as f64 + 64.0);
    }

    /// One phase on `nodes`×2 in `mode` in which the one task, spawned by
    /// the last node, writes a shared element every node cached before the
    /// phase (whichever node steals it), or, with `write` false, in which
    /// no task writes. Returns what every thread reads back after the phase
    /// and each node's DSM barriers during it.
    fn one_writer_phase(nodes: usize, mode: ProtocolMode, write: bool) -> Vec<(f64, u64)> {
        let c = Cluster::builder()
            .nodes(nodes)
            .threads_per_node(2)
            .net(NetProfile::zero())
            .time(TimeSource::Manual)
            .protocol(mode)
            .build()
            .unwrap();
        let got = Arc::new(parade_net::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        c.run(move |g| {
            let xs = g.alloc_f64(8);
            g.set(&xs, 5, 1.0);
            g.parallel(move |tc| {
                // Every node caches the page the task will write.
                assert_eq!(tc.get(&xs, 5), 1.0);
                let funcs: Vec<TaskFn> = vec![Arc::new(
                    move |tc: &ThreadCtx, d: &TaskDesc, _s: &mut SpawnCtx| {
                        if d.args[0] == 1 {
                            tc.set(&xs, 5, 42.0);
                        }
                        vec![]
                    },
                )];
                let before = tc.rt().dsm.stats.barriers.load(Ordering::Relaxed);
                tc.task_phase(&funcs, |scope| {
                    if scope.node() == scope.num_nodes() - 1 {
                        scope.spawn(0, vec![write as u64]);
                    }
                });
                let barriers = tc.rt().dsm.stats.barriers.load(Ordering::Relaxed) - before;
                sink.lock().push((tc.get(&xs, 5), barriers));
            });
        });
        let got = got.lock().clone();
        got
    }

    #[test]
    fn a_page_one_node_writes_in_a_phase_is_fresh_everywhere_after_it() {
        for nodes in [2, 4] {
            for mode in [ProtocolMode::Parade, ProtocolMode::SdsmOnly] {
                let got = one_writer_phase(nodes, mode, true);
                assert_eq!(got.len(), nodes * 2);
                for (v, barriers) in got {
                    assert_eq!(v, 42.0, "{nodes}x2 {mode:?}: a stale copy survived");
                    assert_eq!(barriers, 2, "{nodes}x2 {mode:?}: open and close");
                }
            }
        }
    }

    #[test]
    fn a_phase_no_node_writes_in_closes_without_a_dsm_barrier() {
        for mode in [ProtocolMode::Parade, ProtocolMode::SdsmOnly] {
            let got = one_writer_phase(4, mode, false);
            assert_eq!(got, vec![(1.0, 1); 8], "{mode:?}: only the opening barrier");
        }
    }
}
