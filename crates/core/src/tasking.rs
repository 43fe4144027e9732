//! Cluster tasking from inside a parallel region: [`ThreadCtx::task_phase`]
//! and the [`TaskScope`] spawn surface.
//!
//! A *task phase* treats the whole cluster as one task pool: each node's
//! lead thread runs a `parade-tasks` scheduler over the node's
//! communicator, task bodies execute with full [`ThreadCtx`] access (DSM
//! reads/writes fault pages in as usual), and the phase ends when the
//! distributed termination detector proves every spawned task ran exactly
//! once. The phase is bracketed by cluster barriers, so data written before
//! the phase is visible to every task and task-written pages are visible
//! everywhere after it (write faults record interval notices that the
//! closing barrier advertises).
//!
//! Dependency edges carry their own consistency: a task's completion
//! flushes the executing node (an HLRC release) and the flushed page ids
//! travel as *notices* along `Complete` messages and into dependent tasks,
//! which invalidate those pages before running (the acquire). `target`
//! offload maps `map(to)` onto a pre-offload flush whose notices ship with
//! the pinned task, and `map(from)` onto the completion notices applied
//! when `target_sync` observes the result — the cluster-as-device mapping.

use std::sync::Arc;

use parade_dsm::PageId;
use parade_net::VClock;
use parade_tasks::{run_to_merge, NodeSched, TaskCtx as SpawnCtx, TaskDesc, TaskExecutor};

use crate::ctx::ThreadCtx;

/// A task body: runs on whichever node the scheduler places it, with that
/// node's thread context (DSM access, virtual-time charging), the task's
/// descriptor (args, injected dependency results), and a spawn context for
/// children. Returns the task's result values, merged cluster-wide at the
/// end of the phase.
pub type TaskFn = Arc<dyn Fn(&ThreadCtx, &TaskDesc, &mut SpawnCtx) -> Vec<f64> + Send + Sync>;

/// Adapter between the scheduler's executor hooks and the node runtime:
/// bodies come from the phase's function table, `release` is a DSM flush,
/// `acquire` invalidates noticed pages.
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

    fn release(&mut self, clock: &mut VClock) -> Vec<u64> {
        self.tc
            .rt()
            .dsm
            .flush(clock)
            .into_iter()
            .map(|p| p as u64)
            .collect()
    }

    fn acquire(&mut self, notices: &[u64], clock: &mut VClock) {
        let pages: Vec<PageId> = notices.iter().map(|&n| n as PageId).collect();
        self.tc.rt().dsm.invalidate_pages(&pages, clock);
    }
}

/// The root spawn surface of a task phase, handed to the phase body on each
/// node's lead thread.
pub struct TaskScope<'a> {
    tc: &'a ThreadCtx,
    funcs: &'a [TaskFn],
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

    /// Spawn with `depend`-style edges on previously spawned ids; `inject`
    /// appends each dependency's result values to the task's args.
    pub fn spawn_with_deps(
        &mut self,
        func: u32,
        args: Vec<u64>,
        deps: Vec<u64>,
        inject: bool,
    ) -> u64 {
        let mut clock = self.tc.take_clock();
        let id = self
            .sched
            .spawn_with_deps(func, args, deps, inject, &mut clock);
        self.tc.put_clock(clock);
        id
    }

    /// `#pragma omp target device(n)`: offload a pinned task to `device`.
    /// The spawning node flushes first (the `map(to)` release) and the
    /// flush notices ship with the task, so the device invalidates its
    /// stale copies of mapped pages before the body runs.
    pub fn target(&mut self, device: usize, func: u32, args: Vec<u64>) -> u64 {
        let mut clock = self.tc.take_clock();
        let notices: Vec<u64> = self
            .tc
            .rt()
            .dsm
            .flush(&mut clock)
            .into_iter()
            .map(|p| p as u64)
            .collect();
        let id = self
            .sched
            .target_with_notices(device, func, args, notices, &mut clock);
        self.tc.put_clock(clock);
        id
    }

    /// Block until target task `id` completes; applies the device's
    /// completion notices (the `map(from)` acquire), so mapped results are
    /// fetched fresh on the next read.
    pub fn target_sync(&mut self, id: u64) {
        self.tc.end_of_interval("target_sync()");
        let mut clock = self.tc.take_clock();
        let mut ex = CoreExecutor {
            tc: self.tc,
            funcs: self.funcs,
        };
        self.sched.target_sync(id, &mut ex, &mut clock);
        self.tc.put_clock(clock);
    }

    /// `#pragma omp taskwait`: block until every root task spawned by this
    /// node has completed, executing locally queued tasks meanwhile.
    pub fn taskwait(&mut self) {
        self.tc.end_of_interval("taskwait()");
        let mut clock = self.tc.take_clock();
        let mut ex = CoreExecutor {
            tc: self.tc,
            funcs: self.funcs,
        };
        self.sched.taskwait(&mut ex, &mut clock);
        self.tc.put_clock(clock);
    }
}

impl ThreadCtx {
    /// Run a task phase: `body` executes on each node's lead thread to
    /// spawn root tasks (other threads of the team skip straight to the
    /// closing barrier), then the distributed scheduler drains the graph.
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
            let mut scope = TaskScope {
                tc: self,
                funcs,
                sched,
            };
            body(&mut scope);
            let mut clock = self.take_clock();
            let mut ex = CoreExecutor { tc: self, funcs };
            let merged = run_to_merge(&mut scope.sched, &mut ex, &mut clock);
            self.put_clock(clock);
            Some(merged)
        } else {
            None
        };
        // Closing consistency point: task-written pages visible everywhere.
        self.barrier();
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::team::Cluster;
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

    #[test]
    fn target_offload_roundtrips_through_dsm() {
        let c = test_cluster(3, 1, SchedConfig::default());
        let got = c.run(|g| {
            let xs = g.alloc_f64(8);
            g.parallel(move |tc| {
                let funcs: Vec<TaskFn> = vec![Arc::new(
                    move |tc: &ThreadCtx, _d: &TaskDesc, _s: &mut SpawnCtx| {
                        // Runs on the device node: read mapped-in values,
                        // write results back (map(from) via notices).
                        let mut out = Vec::new();
                        for i in 0..8 {
                            let v = tc.get(&xs, i);
                            tc.set(&xs, i, v * 2.0);
                            out.push(v);
                        }
                        out
                    },
                )];
                tc.task_phase(&funcs, |scope| {
                    if scope.node() == 0 {
                        // Written immediately before offload: the map(to)
                        // flush inside `target` must make these visible.
                        for i in 0..8 {
                            scope.tc.set(&xs, i, (i + 1) as f64);
                        }
                        let id = scope.target(2, 0, vec![]);
                        scope.target_sync(id);
                        // map(from): device writes visible after sync.
                        let mut sum = 0.0;
                        for i in 0..8 {
                            sum += scope.tc.get(&xs, i);
                        }
                        assert_eq!(sum, 2.0 * (1..=8).sum::<usize>() as f64);
                    }
                })
            })
        });
        let merged = got.expect("lead");
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].1, (1..=8).map(|v| v as f64).collect::<Vec<_>>());
    }

    #[test]
    fn dependency_chain_injects_results() {
        let c = test_cluster(2, 2, SchedConfig::default());
        let merged = c.run(|g| {
            g.parallel(move |tc| {
                let funcs: Vec<TaskFn> = vec![Arc::new(
                    |_tc: &ThreadCtx, d: &TaskDesc, _s: &mut SpawnCtx| {
                        if d.args[0] == 0 {
                            vec![2.0]
                        } else {
                            vec![f64::from_bits(d.args[1]) * 3.0]
                        }
                    },
                )];
                tc.task_phase(&funcs, |scope| {
                    if scope.node() == 0 {
                        let a = scope.spawn(0, vec![0]);
                        let b = scope.spawn_with_deps(0, vec![1], vec![a], true);
                        scope.spawn_with_deps(0, vec![1], vec![b], true);
                    }
                })
            })
            .expect("lead")
        });
        let vals: Vec<f64> = merged.iter().map(|(_, r)| r[0]).collect();
        assert_eq!(vals, vec![2.0, 6.0, 18.0]);
    }
}
