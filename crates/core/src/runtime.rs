//! Per-node runtime state shared by all of a node's compute threads: the
//! intra-node barrier, the compute-thread pool, and the slot tables behind
//! `single`/`reduction` constructs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};

use parade_net::sync::Mutex;
use parade_net::threads::{spawn_named, Joiner};

use parade_cluster::ProtocolMode;
use parade_dsm::{Dsm, RegionHandle};
use parade_mpi::{Communicator, ReduceOp};
use parade_net::{TimeSource, VClock, VTime};
use parade_trace as trace;

use crate::ctx::ThreadCtx;
use parade_net::VBarrier;

/// Erased parallel-region body.
pub(crate) type RegionFn = dyn Fn(&ThreadCtx) + Send + Sync;

/// Number of reusable construct slots (singles, reductions, dynamic loops).
/// Generation stamps make reuse safe: generations only grow, so a thread
/// that finds its slot stamped past its own generation was lapped (a
/// barrier-less `single` loop has no cap on how far) and skips.
pub(crate) const SLOTS: usize = 4096;

/// Lock-id namespace for runtime-internal DSM locks (user locks live below).
pub(crate) const INTERNAL_LOCK_BASE: u64 = 1 << 40;

/// A unique, monotonically increasing id for a construct instance,
/// identical on every thread of the cluster because regions and constructs
/// are encountered in the same program order.
pub(crate) fn construct_gen(region_no: u64, seq: u64) -> u64 {
    debug_assert!(seq < 1 << 20, "too many constructs in one region");
    region_no * (1 << 20) + seq + 1
}

/// State of one `single` slot: generation already executed on this node,
/// and the virtual time at which the executing thread released the slot
/// (the pthread-lock serialization of Figure 3).
#[derive(Clone, Copy, Default)]
pub(crate) struct SingleSlot {
    pub done_gen: u64,
    pub release_at: VTime,
}

/// Node-local combine state for hierarchical reductions.
#[derive(Default)]
pub(crate) struct ReduceState {
    pub count: usize,
    /// Raw bits of the scalar accumulator and of the last result (`f64` or
    /// `i64`: every thread of one reduction agrees on the type).
    pub acc: u64,
    pub result: u64,
    pub acc_vec: Vec<f64>,
    pub result_vec: Vec<f64>,
}

/// State of one dynamic-loop slot (node-local chunk queue).
#[derive(Clone, Copy, Default)]
pub(crate) struct DynSlot {
    pub gen: u64,
    pub next: usize,
    pub end: usize,
}

/// [`SLOTS`] construct slots, built by the first construct that indexes
/// them. Many programs run no `single`, most no dynamic loop, and the two
/// tables together — 8 192 mutexes, 224 KB to allocate, initialise and
/// free — were most of what building a node cost a short job.
pub(crate) struct SlotTable<T>(OnceLock<Box<[Mutex<T>]>>);

impl<T: Default> SlotTable<T> {
    fn new() -> Self {
        SlotTable(OnceLock::new())
    }
}

impl<T: Default> std::ops::Index<usize> for SlotTable<T> {
    type Output = Mutex<T>;

    fn index(&self, slot: usize) -> &Mutex<T> {
        let table = self
            .0
            .get_or_init(|| (0..SLOTS).map(|_| Mutex::new(T::default())).collect());
        &table[slot]
    }
}

pub(crate) struct Job {
    pub f: Arc<RegionFn>,
    pub start: VTime,
    pub region_no: u64,
}

/// Everything one node's threads share.
pub(crate) struct NodeRt {
    pub dsm: Arc<Dsm>,
    pub comm: Arc<Communicator>,
    pub node: usize,
    pub nnodes: usize,
    pub tpn: usize,
    pub mode: ProtocolMode,
    pub time: TimeSource,
    pub barrier: VBarrier,
    pub singles: SlotTable<SingleSlot>,
    pub reduce: Mutex<ReduceState>,
    pub dyn_slots: SlotTable<DynSlot>,
    /// Per-critical-name node mutex carrying the last release time.
    pub criticals: Mutex<std::collections::HashMap<u64, Arc<Mutex<VTime>>>>,
    pub region_counter: AtomicU64,
    /// Whether any node wrote a shared page during the node's last task
    /// phase: published by the lead thread before the phase's closing
    /// node barrier, read by that barrier's last arriver (the barrier's
    /// mutex orders the two). Per node, not a static: one process runs
    /// many clusters.
    pub phase_wrote: AtomicBool,
    /// Whether the team's last barrier published nothing: it took no DSM
    /// barrier, or its departure carried no entry. Read and written by the
    /// node barrier's last arriver ([`ThreadCtx::barrier`]) and cleared by
    /// a fork that takes the DSM barrier ([`run_region`]); every node
    /// holds the same value, because every input to it is the cluster's.
    /// Relaxed suffices: the node barrier's mutex orders one leader's
    /// store before the next leader's load, and a fork's store happens
    /// while the pool threads wait for its dispatch.
    pub quiet: AtomicBool,
    /// DSM scratch region for SdsmOnly-mode reductions (SLOTS × 16 B).
    pub scratch: RegionHandle,
    /// DSM flag region for SdsmOnly-mode singles (SLOTS × 8 B).
    pub flags: RegionHandle,
    pool: Mutex<Vec<mpsc::Sender<Job>>>,
}

impl NodeRt {
    pub fn new(
        dsm: Arc<Dsm>,
        comm: Arc<Communicator>,
        node: usize,
        nnodes: usize,
        tpn: usize,
        mode: ProtocolMode,
        time: TimeSource,
    ) -> Arc<NodeRt> {
        // Reserved allocations, identical on every node (performed before
        // any user allocation, so ids/offsets line up cluster-wide).
        let scratch = dsm
            .alloc_region(SLOTS * 16)
            .expect("pool too small for runtime scratch");
        let flags = dsm
            .alloc_region(SLOTS * 8)
            .expect("pool too small for runtime flags");
        Arc::new(NodeRt {
            dsm,
            comm,
            node,
            nnodes,
            tpn,
            mode,
            time,
            barrier: VBarrier::named(tpn, format!("node {node}")),
            singles: SlotTable::new(),
            reduce: Mutex::new(ReduceState::default()),
            dyn_slots: SlotTable::new(),
            criticals: Mutex::new(std::collections::HashMap::new()),
            region_counter: AtomicU64::new(0),
            phase_wrote: AtomicBool::new(false),
            quiet: AtomicBool::new(false),
            scratch,
            flags,
            pool: Mutex::new(Vec::new()),
        })
    }

    /// The node's small-data registry (message-passing update protocol).
    pub fn small(&self) -> &parade_dsm::SmallRegistry {
        self.dsm.small()
    }

    /// Global thread id of `(node, local_tid)`.
    pub fn global_tid(&self, local_tid: usize) -> usize {
        self.node * self.tpn + local_tid
    }

    pub fn total_threads(&self) -> usize {
        self.nnodes * self.tpn
    }

    pub fn critical_mutex(&self, id: u64) -> Arc<Mutex<VTime>> {
        Arc::clone(
            self.criticals
                .lock()
                .entry(id)
                .or_insert_with(|| Arc::new(Mutex::new(VTime::ZERO))),
        )
    }

    /// Whether any node wrote a shared page since its last DSM barrier:
    /// one `allreduce` (Max) of every node's
    /// [`Dsm::interval_wrote`](parade_dsm::Dsm::interval_wrote) flag, run
    /// by one thread per node. Every node gets the same answer, and no node
    /// leaves before every node has entered.
    pub fn any_node_wrote(&self, clock: &mut VClock) -> bool {
        let wrote = self.dsm.interval_wrote() as i64;
        self.comm.allreduce_i64(wrote, ReduceOp::Max, clock) != 0
    }

    /// Dispatch a region to the pool threads (local tids 1..tpn).
    pub fn dispatch(&self, f: &Arc<RegionFn>, start: VTime, region_no: u64) {
        let pool = self.pool.lock();
        debug_assert_eq!(pool.len(), self.tpn - 1);
        for tx in pool.iter() {
            tx.send(Job {
                f: Arc::clone(f),
                start,
                region_no,
            })
            .expect("pool thread exited early");
        }
    }

    /// Stop the pool (threads exit once their queues drain).
    pub fn shutdown_pool(&self) {
        self.pool.lock().clear();
    }
}

/// Spawn the node's pool threads (local tids `1..tpn`). Must be called
/// exactly once, right after `NodeRt::new`.
pub(crate) fn spawn_pool(rt: &Arc<NodeRt>) -> Vec<Joiner<()>> {
    let mut handles = Vec::new();
    let mut senders = Vec::new();
    for local_tid in 1..rt.tpn {
        let (tx, rx) = mpsc::channel::<Job>();
        senders.push(tx);
        let rt2 = Arc::clone(rt);
        handles.push(spawn_named(
            format!("parade-n{}t{}", rt.node, local_tid),
            move || {
                trace::set_identity(rt2.node, &format!("worker-{local_tid}"));
                // A pool thread that unwinds takes its node down with it
                // (the node's main thread does the same in `team.rs`).
                let _poison = rt2.barrier.poison_on_unwind();
                while let Ok(job) = rx.recv() {
                    let mut clock = VClock::new(rt2.time);
                    clock.reset_to(job.start);
                    let tc = ThreadCtx::new(Arc::clone(&rt2), local_tid, job.region_no, clock);
                    (job.f)(&tc);
                    tc.region_end();
                }
            },
        ));
    }
    *rt.pool.lock() = senders;
    handles
}

/// Run one parallel region on this node; `lead` is executed as local
/// thread 0 (on the calling thread) and its result returned.
///
/// The caller's clock is threaded through: the implied fork consistency
/// barrier, the region body, and the join barrier all advance it.
/// `publish` is the master's word on whether the fork has anything to
/// publish ([`crate::MasterCtx::parallel`]); every node gets the same word
/// with the fork command.
pub(crate) fn run_region<R>(
    rt: &Arc<NodeRt>,
    f: &Arc<RegionFn>,
    clock: &mut VClock,
    publish: bool,
    lead: impl FnOnce(&ThreadCtx) -> R,
) -> R {
    let region_no = rt.region_counter.fetch_add(1, Ordering::SeqCst) + 1;
    // Fork consistency point: master's serial writes become visible, stale
    // copies are invalidated (the release/acquire implied by the fork).
    // Since the last join only the master ran user code, so when it has
    // nothing to publish no node has, and no node takes the DSM barrier.
    // A fork that publishes sends the region's first barrier straight to
    // the DSM barrier (DESIGN.md §4, "The fork and barrier consistency
    // points").
    if publish {
        rt.dsm.barrier(clock);
        rt.quiet.store(false, Ordering::Relaxed);
    } else {
        debug_assert!(
            !rt.dsm.interval_wrote(),
            "node {} holds a write notice at a fork with nothing to publish",
            rt.node
        );
    }
    let start = clock.now();
    rt.dispatch(f, start, region_no);
    let tc = ThreadCtx::new(Arc::clone(rt), 0, region_no, take_clock(clock));
    let r = lead(&tc);
    tc.region_end();
    *clock = tc.into_clock();
    r
}

fn take_clock(clock: &mut VClock) -> VClock {
    std::mem::replace(clock, VClock::manual())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_table_is_built_by_its_first_use() {
        let table = SlotTable::<DynSlot>::new();
        assert!(table.0.get().is_none(), "an unused table costs nothing");
        table[5].lock().gen = 7;
        assert_eq!(table[5].lock().gen, 7);
        assert_eq!(table[SLOTS - 1].lock().gen, 0);
        assert_eq!(table.0.get().map(|t| t.len()), Some(SLOTS));
    }
}
