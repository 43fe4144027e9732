//! Cluster tasking from inside a parallel region: [`ThreadCtx::task_phase`]
//! and the [`TaskScope`] spawn surface.
//!
//! A *task phase* treats the whole cluster as one task pool: each node's
//! lead thread runs a `parade-tasks` scheduler over the node's
//! communicator, task bodies execute with full [`ThreadCtx`] access (DSM
//! reads/writes fault pages in as usual), and the phase ends when the
//! distributed termination detector proves every spawned task ran exactly
//! once. Both ends of the phase ask one question — does any node hold a
//! write notice? — and take the cluster (DSM) barrier only when the answer
//! is yes, because a barrier no node brings a notice to publishes nothing.
//! The phase opens with one `allreduce` (Max) of every node's
//! [`Dsm::interval_wrote`](parade_dsm::Dsm::interval_wrote) flag, run by
//! each node's last arriver at the node barrier; every node gets the same
//! answer, and no node leaves the allreduce before every node entered it,
//! so phases never overlap. When some node wrote before the phase, the DSM
//! barrier follows and what it wrote is visible to every task. The phase
//! closes the same way, so task-written pages are visible everywhere after
//! it (write faults record interval notices that the closing barrier
//! advertises); that answer costs no collective, because every node learns
//! whether any node wrote from the phase's one all-to-all result exchange.
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
    /// The opening barrier is a cluster barrier only if some node wrote a
    /// shared page before the phase, the closing one only if some node
    /// wrote during it.
    ///
    /// Returns `Some` of the id-sorted `(task id, result)` merge on lead
    /// threads — identical on every node and on every run — and `None` on
    /// non-lead threads.
    pub fn task_phase(
        &self,
        funcs: &[TaskFn],
        body: impl FnOnce(&mut TaskScope),
    ) -> Option<Vec<(u64, Vec<f64>)>> {
        // Opening consistency point: pre-phase writes visible everywhere.
        // One allreduce of the nodes' flags decides, identically on every
        // node, whether there is anything to publish.
        self.barrier_if(|c| self.rt().any_node_wrote(c));
        let merged = if self.local_thread() == 0 {
            let sched = NodeSched::new(Arc::clone(&self.rt().comm));
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
        self.barrier_if(|_| self.rt().phase_wrote.load(Ordering::Relaxed));
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::team::Cluster;
    use parade_cluster::ProtocolMode;
    use parade_net::{ChaosProfile, NetProfile, TimeSource};
    use std::sync::atomic::AtomicU64;

    fn test_cluster(nodes: usize, tpn: usize) -> Cluster {
        Cluster::builder()
            .nodes(nodes)
            .threads_per_node(tpn)
            .net(NetProfile::zero())
            .time(TimeSource::Manual)
            .build()
            .unwrap()
    }

    /// Root tasks per node and children per root of [`placement_phase`].
    const ROOTS: u64 = 3;
    const CHILDREN: u64 = 2;

    /// One 4×2 phase in which every node spawns [`ROOTS`] roots and every
    /// root spawns [`CHILDREN`] children. Each task returns the node that
    /// ran it and its place in that node's execution order.
    fn placement_phase(chaos: ChaosProfile) -> Vec<(u64, Vec<f64>)> {
        let c = Cluster::builder()
            .nodes(4)
            .threads_per_node(2)
            .net(NetProfile::clan_via())
            .time(TimeSource::Manual)
            .chaos(chaos)
            .build()
            .unwrap();
        c.run(|g| {
            g.parallel(move |tc| {
                // Only the lead thread runs tasks, so this counts per node.
                let seq = Arc::new(AtomicU64::new(0));
                let funcs: Vec<TaskFn> = vec![Arc::new(
                    move |tc: &ThreadCtx, d: &TaskDesc, s: &mut SpawnCtx| {
                        // Roots carry no argument, children their ordinal.
                        if d.args.is_empty() {
                            for j in 0..CHILDREN {
                                s.spawn(0, vec![j]);
                            }
                        }
                        let k = seq.fetch_add(1, Ordering::Relaxed);
                        vec![tc.node() as f64, k as f64]
                    },
                )];
                tc.task_phase(&funcs, |scope| {
                    for _ in 0..ROOTS {
                        scope.spawn(0, vec![]);
                    }
                })
            })
            .expect("master thread is node 0's lead")
        })
    }

    /// Every task ran on `(spawner + spawn ordinal) mod N`, where a node's
    /// ordinals count its roots first (its body spawns them before any
    /// task runs) and then, [`CHILDREN`] at a time, the children of the
    /// roots it ran, in the order it ran them.
    fn assert_placed_round_robin(merged: &[(u64, Vec<f64>)], what: &str) {
        let n = 4u64;
        assert_eq!(merged.len() as u64, n * ROOTS * (1 + CHILDREN), "{what}");
        let ran = |id: u64| {
            let r = &merged.iter().find(|(i, _)| *i == id).expect("merged").1;
            (r[0] as u64, r[1] as u64)
        };
        for (id, r) in merged {
            let node = r[0] as u64;
            let want = if id % 2 == 1 {
                // Root: id = 2·(ordinal·N + spawner) + 1.
                let (ord, spawner) = ((id / 2) / n, (id / 2) % n);
                (spawner + ord) % n
            } else {
                // Child j of its parent: id = parent·65 536 + 2·(j + 1).
                let (parent, j) = (id >> 16, (id & 0xFFFF) / 2 - 1);
                let (spawner, parent_seq) = ran(parent);
                let earlier_roots = merged
                    .iter()
                    .filter(|(i, r)| {
                        i % 2 == 1 && r[0] as u64 == spawner && (r[1] as u64) < parent_seq
                    })
                    .count() as u64;
                (spawner + ROOTS + earlier_roots * CHILDREN + j) % n
            };
            assert_eq!(node, want, "{what}: task {id} ran on the wrong node");
        }
    }

    #[test]
    fn every_task_runs_where_its_spawner_placed_it() {
        for run in 0..3 {
            let merged = placement_phase(ChaosProfile::off());
            assert_placed_round_robin(&merged, &format!("run {run}"));
        }
        let merged = placement_phase(ChaosProfile::lossy(0x5EED_7A5C));
        assert_placed_round_robin(&merged, "lossy chaos");
    }

    #[test]
    fn task_bodies_read_and_write_dsm() {
        let c = test_cluster(2, 2);
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
    /// phase, or, with `write` false, in which no task writes. Returns what
    /// every thread reads back after the phase and each node's DSM barriers
    /// during it.
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
                    // Nothing was written between the fork and the phase.
                    assert_eq!(barriers, 1, "{nodes}x2 {mode:?}: only the close");
                }
            }
        }
    }

    #[test]
    fn a_phase_no_node_writes_in_or_before_takes_no_dsm_barrier() {
        for mode in [ProtocolMode::Parade, ProtocolMode::SdsmOnly] {
            let got = one_writer_phase(4, mode, false);
            assert_eq!(got, vec![(1.0, 0); 8], "{mode:?}: neither end publishes");
        }
    }

    /// One phase on `nodes`×2 in `mode`, opened right after node 1 — not
    /// the master — overwrote an element every node holds a copy of. Every
    /// node spawns four tasks that read it; returns what the tasks read and
    /// node 0's DSM barriers during the phase.
    fn non_master_write_before_phase(nodes: usize, mode: ProtocolMode) -> (Vec<f64>, u64) {
        let c = Cluster::builder()
            .nodes(nodes)
            .threads_per_node(2)
            .net(NetProfile::zero())
            .time(TimeSource::Manual)
            .protocol(mode)
            .build()
            .unwrap();
        c.run(move |g| {
            let xs = g.alloc_f64(8);
            g.parallel(move |tc| {
                assert_eq!(tc.get(&xs, 5), 0.0, "every copy starts valid");
                tc.barrier();
                if tc.node() == 1 && tc.local_thread() == 0 {
                    tc.set(&xs, 5, 42.0);
                }
                let funcs: Vec<TaskFn> = vec![Arc::new(
                    move |tc: &ThreadCtx, _d: &TaskDesc, _s: &mut SpawnCtx| vec![tc.get(&xs, 5)],
                )];
                let before = tc.rt().dsm.stats.barriers.load(Ordering::Relaxed);
                let merged = tc.task_phase(&funcs, |scope| {
                    for _ in 0..4 {
                        scope.spawn(0, vec![]);
                    }
                });
                let barriers = tc.rt().dsm.stats.barriers.load(Ordering::Relaxed) - before;
                merged.map(|m| (m.into_iter().map(|(_, r)| r[0]).collect(), barriers))
            })
            .expect("master thread is node 0's lead")
        })
    }

    /// The opening decision is the cluster's, not the node's: node 1's
    /// write must open the phase with a DSM barrier on every node, or the
    /// tasks other nodes run read their stale copies (and a node that
    /// decided alone would wait in a barrier no other node enters).
    #[test]
    fn a_write_a_non_master_node_makes_before_a_phase_reaches_every_task() {
        for nodes in [2, 4] {
            for mode in [ProtocolMode::Parade, ProtocolMode::SdsmOnly] {
                let (read, barriers) = parade_testkit::watchdog::run_with_timeout(
                    "non-master-write-before-phase",
                    std::time::Duration::from_secs(60),
                    move || non_master_write_before_phase(nodes, mode),
                );
                assert_eq!(
                    read,
                    vec![42.0; 4 * nodes],
                    "{nodes}x2 {mode:?}: a stale read"
                );
                assert_eq!(barriers, 1, "{nodes}x2 {mode:?}: only the opening");
            }
        }
    }
}
