//! The fork-join team: user-facing [`Cluster`], the master context, and the
//! worker-node command loop.
//!
//! Execution model (paper §4.1): the master thread (node 0, thread 0) runs
//! the serial program; a `parallel` directive forks the region body onto
//! every computational thread of every node and joins at an implicit
//! hierarchical barrier. Worker nodes sit in a command loop: commands are
//! broadcast from the master through the MPI layer (binomial tree), so fork
//! latency scales as ⌈log₂ P⌉ like the rest of the collectives.

use std::sync::Arc;

use parade_net::sync::Mutex;
use parade_net::Bytes;

use parade_cluster::{
    launch_result, ClusterConfig, ClusterReport, ConfigError, ExecConfig, FailedRun, NodeEnv,
    ProtocolMode,
};
use parade_dsm::AllocError;
use parade_mpi::datatype::{DecodeError, Reader, Writer};
use parade_net::{NetProfile, TimeSource, VClock, VTime};
use parade_trace::{self as trace, TraceReport};

use crate::ctx::ThreadCtx;
use crate::runtime::{run_region, spawn_pool, NodeRt, RegionFn};
use crate::shared::{Pod, SharedScalar, SharedVec};

/// Commands broadcast from the master to the worker command loops.
#[derive(Debug, Clone, PartialEq)]
enum Cmd {
    AllocRegion {
        len: usize,
    },
    AllocScalar {
        len: usize,
    },
    ScalarSet {
        small_id: u32,
        bytes: Vec<u8>,
    },
    /// `publish`: whether the fork's consistency point takes the DSM
    /// barrier (see [`MasterCtx::parallel`]).
    Fork {
        region_idx: usize,
        publish: bool,
    },
    Shutdown,
}

impl Cmd {
    fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        match self {
            Cmd::AllocRegion { len } => {
                w.u8(1).u64(*len as u64);
            }
            Cmd::AllocScalar { len } => {
                w.u8(2).u64(*len as u64);
            }
            Cmd::ScalarSet { small_id, bytes } => {
                w.u8(3).u32(*small_id).lp_bytes(bytes);
            }
            Cmd::Fork {
                region_idx,
                publish,
            } => {
                // A fork with nothing to publish is a kind of its own, so
                // the publishing fork's bytes are those of every earlier
                // fork.
                w.u8(if *publish { 4 } else { 6 }).u64(*region_idx as u64);
            }
            Cmd::Shutdown => {
                w.u8(5);
            }
        }
        w.finish()
    }

    /// A malformed frame yields a [`DecodeError`], never a panic.
    fn try_decode(b: &[u8]) -> Result<Cmd, DecodeError> {
        let mut r = Reader::new(b);
        let cmd = match r.u8()? {
            1 => Cmd::AllocRegion {
                len: r.u64()? as usize,
            },
            2 => Cmd::AllocScalar {
                len: r.u64()? as usize,
            },
            3 => Cmd::ScalarSet {
                small_id: r.u32()?,
                bytes: r.lp_bytes()?.to_vec(),
            },
            k @ (4 | 6) => Cmd::Fork {
                region_idx: r.u64()? as usize,
                publish: k == 4,
            },
            5 => Cmd::Shutdown,
            k => return Err(DecodeError::BadKind(k)),
        };
        r.finish()?;
        Ok(cmd)
    }
}

/// Cross-node shared state (in-process): the region being run. Closures
/// cannot travel over the simulated wire; the *timing* of fork
/// distribution comes from the broadcast command message, while the
/// closure itself is picked up here by index. Only the last region forked
/// is held: every node picks it up when the fork command reaches it, before
/// it arrives at the region's join barrier, and the master forks the next
/// one only after that barrier.
#[derive(Default)]
struct Registry {
    /// Regions forked so far, and the last of them.
    current: Mutex<(usize, Option<Arc<RegionFn>>)>,
}

impl Registry {
    /// Make `f` the region being run; returns its index.
    fn push(&self, f: Arc<RegionFn>) -> usize {
        let mut cur = self.current.lock();
        *cur = (cur.0 + 1, Some(f));
        cur.0 - 1
    }

    fn get(&self, idx: usize) -> Arc<RegionFn> {
        let cur = self.current.lock();
        assert_eq!(idx + 1, cur.0, "region {idx} is not the one being run");
        Arc::clone(cur.1.as_ref().expect("a forked region"))
    }
}

/// Outcome report of a cluster run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The master's final virtual time — the paper's "execution time".
    pub exec_time: VTime,
    /// Final virtual time of each node's main thread.
    pub node_times: Vec<VTime>,
    /// Virtual time each node's main thread attributed to computation.
    pub node_compute: Vec<VTime>,
    /// Virtual time each node's main thread attributed to communication
    /// and synchronization waits.
    pub node_comm: Vec<VTime>,
    /// Per-node and aggregate DSM/network counters.
    pub cluster: ClusterReport,
    /// Virtual-time breakdown per construct per node, when the run was
    /// traced (`PARADE_TRACE` set, or an ambient session already active).
    pub trace: Option<TraceReport>,
}

impl RunReport {
    pub fn exec_secs(&self) -> f64 {
        self.exec_time.as_secs_f64()
    }
}

/// A simulated SMP cluster ready to run ParADE programs.
///
/// Each [`Cluster::run`] call performs a full launch: fabric, DSM
/// instances, communication threads, compute-thread pools. Only the host
/// threads under them carry over from one run to the next.
#[derive(Debug, Clone)]
pub struct Cluster {
    cfg: ClusterConfig,
}

impl Cluster {
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder {
            cfg: ClusterConfig::default(),
        }
    }

    /// A cluster over `cfg`, or the field [`ClusterConfig::validate`]
    /// rejects.
    pub fn from_config(cfg: ClusterConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Cluster { cfg })
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Run `master` as the serial program of node 0, returning its result.
    pub fn run<R, F>(&self, master: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut MasterCtx) -> R + Send + 'static,
    {
        self.run_with_report(master).0
    }

    /// Run and also return virtual times and protocol counters.
    pub fn run_with_report<R, F>(&self, master: F) -> (R, RunReport)
    where
        R: Send + 'static,
        F: FnOnce(&mut MasterCtx) -> R + Send + 'static,
    {
        match self.try_run_with_report(master) {
            Ok(out) => out,
            Err(f) => panic!("{f}"),
        }
    }

    /// Failure-tolerant run: node-program panics — including the panics a
    /// fabric fail-stop induces in blocked receives — are collected into a
    /// [`FailedRun`] instead of propagated, and the fabric and
    /// communication threads are torn down in every path. This is how the
    /// serving layer survives a job's node death and re-homes it.
    ///
    /// A thread that panics takes its whole node down — its node-mates
    /// panic at the node barrier instead of waiting there for it — and a
    /// failed run's pool threads are joined like a clean run's, whatever
    /// `threads_per_node` is: nothing of the job is left running when this
    /// returns. (The join waits for a pool thread that is still in user
    /// code to make its next runtime call.) The host threads themselves are
    /// not state of the job: those that did not panic have dropped all they
    /// held of it and wait, parked under their names in
    /// [`parade_net::threads`], for the next run to use them.
    pub fn try_run_with_report<R, F>(&self, master: F) -> Result<(R, RunReport), Box<FailedRun>>
    where
        R: Send + 'static,
        F: FnOnce(&mut MasterCtx) -> R + Send + 'static,
    {
        // `PARADE_TRACE=<path>` records the run and writes a Chrome
        // trace_event file there. `start` returns None when another session
        // is already active (e.g. a test harness tracing us from outside);
        // that session keeps collecting our events and we leave it alone.
        let trace_path = std::env::var("PARADE_TRACE").ok().filter(|p| !p.is_empty());
        let session = trace_path
            .as_ref()
            .and_then(|_| trace::start(trace::TraceConfig::from_env()));
        let registry = Arc::new(Registry::default());
        let master_cell = Arc::new(Mutex::new(Some(master)));
        let reg2 = Arc::clone(&registry);
        let launched = launch_result(self.cfg.clone(), move |env: NodeEnv| {
            let rt = NodeRt::new(
                Arc::clone(&env.dsm),
                Arc::clone(&env.comm),
                env.node,
                env.nnodes,
                env.cfg.threads_per_node(),
                env.cfg.protocol,
                env.cfg.time,
            );
            let mut threads = NodeThreads {
                rt: &rt,
                fabric: &env.fabric,
                pool: spawn_pool(&rt),
            };
            let mut clock = env.new_clock();
            let result = if env.node == 0 {
                let f = master_cell
                    .lock()
                    .take()
                    .expect("master function already taken");
                let mut mc = MasterCtx {
                    rt: Arc::clone(&rt),
                    clock: VClock::new(env.cfg.time),
                    registry: Arc::clone(&reg2),
                    allocated: false,
                };
                let r = f(&mut mc);
                mc.bcast_cmd(&Cmd::Shutdown);
                clock = mc.clock;
                Some(r)
            } else {
                worker_loop(&rt, &reg2, &mut clock);
                None
            };
            rt.shutdown_pool();
            for h in threads.pool.drain(..) {
                h.join().expect("pool thread panicked");
            }
            (result, clock.now(), clock.compute_time(), clock.comm_time())
        });
        // Finish the trace session in every path; a failed run's events
        // are still worth the file.
        let trace_report = session.map(|s| {
            let data = s.finish();
            if let Some(path) = &trace_path {
                if let Err(e) = std::fs::write(path, data.chrome_json()) {
                    eprintln!("parade: cannot write trace to {path}: {e}");
                }
            }
            data.report()
        });
        let (results, cluster_report) = launched?;
        let mut r = None;
        let mut node_times = Vec::new();
        let mut node_compute = Vec::new();
        let mut node_comm = Vec::new();
        for (res, t, cp, cm) in results {
            if let Some(v) = res {
                r = Some(v);
            }
            node_times.push(t);
            node_compute.push(cp);
            node_comm.push(cm);
        }
        let exec_time = node_times[0];
        Ok((
            r.expect("master result"),
            RunReport {
                exec_time,
                node_times,
                node_compute,
                node_comm,
                cluster: cluster_report,
                trace: trace_report,
            },
        ))
    }
}

/// Builder for [`Cluster`].
pub struct ClusterBuilder {
    cfg: ClusterConfig,
}

impl ClusterBuilder {
    pub fn nodes(mut self, n: usize) -> Self {
        self.cfg.nodes = n;
        self
    }

    pub fn threads_per_node(mut self, t: usize) -> Self {
        self.cfg.exec = ExecConfig::Custom {
            threads_per_node: t,
            comm: self.cfg.exec.comm_costs(),
        };
        self
    }

    pub fn exec(mut self, e: ExecConfig) -> Self {
        self.cfg.exec = e;
        self
    }

    pub fn protocol(mut self, p: ProtocolMode) -> Self {
        self.cfg.protocol = p;
        self
    }

    pub fn net(mut self, n: NetProfile) -> Self {
        self.cfg.net = n;
        self
    }

    pub fn time(mut self, t: TimeSource) -> Self {
        self.cfg.time = t;
        self
    }

    /// Inject faults into the fabric (see `parade_net::ChaosProfile`).
    pub fn chaos(mut self, c: parade_net::ChaosProfile) -> Self {
        self.cfg.chaos = c;
        self
    }

    /// Replace the whole configuration (the way to set the embedded
    /// per-node `dsm` knobs); later setters refine it.
    pub fn config(mut self, cfg: ClusterConfig) -> Self {
        self.cfg = cfg;
        self
    }

    pub fn build(self) -> Result<Cluster, ConfigError> {
        Cluster::from_config(self.cfg)
    }
}

/// A node's pool threads, held by its main thread for the length of the
/// node program. The success path drains `pool` itself; this is the other
/// one.
struct NodeThreads<'a> {
    rt: &'a NodeRt,
    fabric: &'a parade_net::Fabric,
    pool: Vec<parade_net::threads::Joiner<()>>,
}

impl Drop for NodeThreads<'_> {
    /// The node's main thread is unwinding: the run is dead (fail-stop),
    /// so take the node's other threads down and join them rather than
    /// leave them parked. Poisoning releases the ones at the node barrier
    /// (as a dying pool thread does for this one), the fabric shutdown the
    /// ones blocked on a message or a page, and the closed job queue the
    /// idle ones.
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.rt.barrier.poison();
            self.fabric.begin_shutdown();
            self.rt.shutdown_pool();
            for h in self.pool.drain(..) {
                // Its panic is part of the same failure, not a new one.
                let _ = h.join();
            }
        }
    }
}

fn worker_loop(rt: &Arc<NodeRt>, registry: &Registry, clock: &mut VClock) {
    loop {
        let mut b = Bytes::new();
        rt.comm.bcast_bytes(0, &mut b, clock);
        // Fail-stop: the node program's panic is what `FailedRun` reports.
        let cmd = Cmd::try_decode(&b).unwrap_or_else(|e| {
            panic!(
                "node {}: bad frame on the master's command broadcast: {e}",
                rt.node
            )
        });
        match cmd {
            Cmd::AllocRegion { len } => {
                rt.dsm.alloc_region(len).expect("worker allocation failed");
            }
            Cmd::AllocScalar { len } => {
                rt.dsm.alloc_small(len);
                rt.dsm.alloc_region(len).expect("worker allocation failed");
            }
            Cmd::ScalarSet { small_id, bytes } => {
                let h = parade_dsm::SmallHandle {
                    id: small_id,
                    len: bytes.len(),
                };
                rt.small().write_bytes(h, &bytes);
            }
            Cmd::Fork {
                region_idx,
                publish,
            } => {
                let f = registry.get(region_idx);
                let f2 = Arc::clone(&f);
                run_region(rt, &f, clock, publish, move |tc| f2(tc));
            }
            Cmd::Shutdown => break,
        }
    }
}

/// The serial (master) context: allocation, serial shared-memory access,
/// and the `parallel` directive.
pub struct MasterCtx {
    rt: Arc<NodeRt>,
    clock: VClock,
    registry: Arc<Registry>,
    /// Whether the master allocated since its last DSM barrier. Every
    /// region ends in one (the join), so this is "since the last fork".
    allocated: bool,
}

impl MasterCtx {
    fn bcast_cmd(&mut self, cmd: &Cmd) {
        let mut b = cmd.encode();
        self.rt.comm.bcast_bytes(0, &mut b, &mut self.clock);
    }

    pub fn threads_per_node(&self) -> usize {
        self.rt.tpn
    }

    pub fn num_threads(&self) -> usize {
        self.rt.total_threads()
    }

    pub fn mode(&self) -> ProtocolMode {
        self.rt.mode
    }

    /// The master's current virtual time.
    pub fn now(&self) -> VTime {
        self.clock.now()
    }

    /// Charge explicit compute cost, under either time source.
    pub fn charge(&mut self, d: VTime) {
        self.clock.charge(d);
    }

    // ---- allocation (master-driven, broadcast to all nodes) ---------------

    /// Allocate a shared vector of `n` elements in the paged DSM.
    ///
    /// # Panics
    /// If the pool cannot hold it ([`MasterCtx::try_alloc_vec`] says so
    /// instead).
    pub fn alloc_vec<T: Pod>(&mut self, n: usize) -> SharedVec<T> {
        self.try_alloc_vec(n).expect("allocation failed")
    }

    /// Allocate a shared vector of `n` elements, or say why the pool cannot
    /// hold it. The master's allocator decides: the allocation is broadcast
    /// to the other nodes only once it succeeded, so a refusal sends
    /// nothing and leaves every node's pool as it was.
    pub fn try_alloc_vec<T: Pod>(&mut self, n: usize) -> Result<SharedVec<T>, AllocError> {
        // A length past `usize` is past any pool, and refused as such.
        let len = n.saturating_mul(std::mem::size_of::<T>());
        let h = self.rt.dsm.alloc_region(len)?;
        self.bcast_cmd(&Cmd::AllocRegion { len });
        self.allocated = true;
        Ok(SharedVec::new(h, n))
    }

    pub fn alloc_f64(&mut self, n: usize) -> SharedVec<f64> {
        self.alloc_vec(n)
    }

    pub fn alloc_i64(&mut self, n: usize) -> SharedVec<i64> {
        self.alloc_vec(n)
    }

    /// Allocate a small shared scalar (dual representation: update-protocol
    /// object + DSM page for the baseline mode).
    pub fn alloc_scalar<T: Pod>(&mut self) -> SharedScalar<T> {
        self.try_alloc_scalar().expect("allocation failed")
    }

    /// [`MasterCtx::alloc_scalar`], refused as [`MasterCtx::try_alloc_vec`]
    /// refuses a vector when the pool has no page left for it.
    pub fn try_alloc_scalar<T: Pod>(&mut self) -> Result<SharedScalar<T>, AllocError> {
        let len = std::mem::size_of::<T>().max(8);
        let region = self.rt.dsm.alloc_region(len)?;
        let small = self.rt.dsm.alloc_small(len);
        self.bcast_cmd(&Cmd::AllocScalar { len });
        self.allocated = true;
        Ok(SharedScalar::new(small, region))
    }

    pub fn alloc_scalar_f64(&mut self) -> SharedScalar<f64> {
        self.alloc_scalar()
    }

    // ---- serial shared access ----------------------------------------------

    pub fn get<T: Pod>(&mut self, v: &SharedVec<T>, i: usize) -> T {
        self.rt
            .dsm
            .read(v.region, i * std::mem::size_of::<T>(), &mut self.clock)
    }

    pub fn set<T: Pod>(&mut self, v: &SharedVec<T>, i: usize, val: T) {
        self.rt
            .dsm
            .write(v.region, i * std::mem::size_of::<T>(), val, &mut self.clock)
    }

    pub fn read_into<T: Pod>(&mut self, v: &SharedVec<T>, first: usize, out: &mut [T]) {
        self.rt
            .dsm
            .read_slice(v.region, first, out, &mut self.clock)
    }

    pub fn write_from<T: Pod>(&mut self, v: &SharedVec<T>, first: usize, src: &[T]) {
        self.rt
            .dsm
            .write_slice(v.region, first, src, &mut self.clock)
    }

    /// Run `f` on elements `range` of `v` in place, see
    /// [`ThreadCtx::view`]. The serial context is borrowed for as long as
    /// the slice lives, so nothing can end the interval under it.
    pub fn view<T: Pod, R>(
        &mut self,
        v: &SharedVec<T>,
        range: std::ops::Range<usize>,
        f: impl FnOnce(&[T]) -> R,
    ) -> R {
        f(self
            .rt
            .dsm
            .view(v.region, range.start, range.len(), &mut self.clock))
    }

    /// Barrier-time checkpoint: snapshot a shared vector's bytes through
    /// the coherent read path. Taken between parallel regions, the
    /// snapshot is a consistent cut a re-homed job can be restored from.
    pub fn checkpoint<T: Pod>(&mut self, v: &SharedVec<T>) -> Vec<u8> {
        self.rt.dsm.checkpoint_region(v.region, &mut self.clock)
    }

    /// Restore a shared vector from a [`MasterCtx::checkpoint`] snapshot.
    pub fn restore<T: Pod>(&mut self, v: &SharedVec<T>, snap: &[u8]) {
        self.rt.dsm.restore_region(v.region, snap, &mut self.clock)
    }

    /// Serial scalar write. In Parade mode this is an eager update-protocol
    /// push (a broadcast command); in the baseline it is a plain DSM write
    /// made visible by the next fork barrier.
    pub fn scalar_set_f64(&mut self, s: &SharedScalar<f64>, v: f64) {
        match self.rt.mode {
            ProtocolMode::Parade => {
                self.rt.small().write_f64(s.small, 0, v);
                self.bcast_cmd(&Cmd::ScalarSet {
                    small_id: s.small.id,
                    bytes: v.to_le_bytes().to_vec(),
                });
            }
            ProtocolMode::SdsmOnly => {
                self.rt.dsm.write(s.region, 0, v, &mut self.clock);
            }
        }
    }

    /// Serial scalar read.
    pub fn scalar_get_f64(&mut self, s: &SharedScalar<f64>) -> f64 {
        match self.rt.mode {
            ProtocolMode::Parade => self.rt.small().read_f64(s.small, 0),
            ProtocolMode::SdsmOnly => self.rt.dsm.read(s.region, 0, &mut self.clock),
        }
    }

    // ---- the parallel directive ---------------------------------------------

    /// Fork a parallel region across every computational thread of the
    /// cluster; returns the master thread's result after the join barrier.
    ///
    /// The fork is a consistency point, and it takes the DSM barrier only
    /// when there is something to publish. Between the last join barrier
    /// and this fork only the master ran user code, so only the master can
    /// hold a write notice, and it decides alone: it publishes if it wrote
    /// a shared page or allocated a region since then. The allocation
    /// counts although it writes nothing, because the barrier is also what
    /// keeps a peer from naming the new pages to a node whose application
    /// thread has not allocated them yet.
    pub fn parallel<R, F>(&mut self, f: F) -> R
    where
        F: Fn(&ThreadCtx) -> R + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let f_pool = Arc::clone(&f);
        let erased: Arc<RegionFn> = Arc::new(move |tc: &ThreadCtx| {
            f_pool(tc);
        });
        let idx = self.registry.push(erased);
        let publish = self.allocated || self.rt.dsm.interval_wrote();
        self.allocated = false;
        self.bcast_cmd(&Cmd::Fork {
            region_idx: idx,
            publish,
        });
        let f_lead = Arc::clone(&f);
        let rt = Arc::clone(&self.rt);
        let reg = self.registry.get(idx);
        run_region(&rt, &reg, &mut self.clock, publish, move |tc| f_lead(tc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn test_cluster(nodes: usize, tpn: usize) -> Cluster {
        Cluster::builder()
            .nodes(nodes)
            .threads_per_node(tpn)
            .net(NetProfile::zero())
            .time(TimeSource::Manual)
            .build()
            .unwrap()
    }

    /// One command of every kind.
    fn samples() -> Vec<Cmd> {
        vec![
            Cmd::AllocRegion { len: 1 << 20 },
            Cmd::AllocScalar { len: 8 },
            Cmd::ScalarSet {
                small_id: 7,
                bytes: vec![1, 2, 3, 4, 5, 6, 7, 8],
            },
            Cmd::Fork {
                region_idx: 3,
                publish: true,
            },
            Cmd::Shutdown,
            Cmd::Fork {
                region_idx: 3,
                publish: false,
            },
        ]
    }

    #[test]
    fn cmd_codec_is_checked() {
        parade_testkit::wire::assert_codec(&samples(), Cmd::encode, Cmd::try_decode);
    }

    /// Captured at the parent of the commit that introduced the checked
    /// `Reader` (0c3e7fa), before any edit: "same bytes" as a test.
    #[test]
    fn wire_bytes_are_pinned() {
        let pinned = [
            "010000100000000000",
            "020800000000000000",
            "0307000000080000000102030405060708",
            "040300000000000000",
            "05",
            "060300000000000000",
        ];
        let got: Vec<String> = samples()
            .iter()
            .map(|c| parade_testkit::wire::hex(&c.encode()))
            .collect();
        assert_eq!(got, pinned);
    }

    /// The whole text a failed run renders — what `run_with_report` panics
    /// with and the serving layer logs — pinned character for character.
    #[test]
    fn a_failed_run_renders_count_first_node_and_message() {
        // The master panics; node 1, waiting for its next command, dies of
        // the shutdown that panic triggers.
        let failed = test_cluster(2, 1)
            .try_run_with_report(|_| panic!("injected master failure"))
            .expect_err("a panicking master must fail the run");
        assert_eq!(
            failed.to_string(),
            "cluster run failed: 2 node(s) panicked (node 0: injected master failure)"
        );
    }

    #[test]
    fn bad_command_frame_fails_the_run_naming_node_and_byte() {
        // Kind byte 0 is what the `single`-lapping bug hands the worker loop.
        let failed = test_cluster(2, 1)
            .try_run_with_report(|g| {
                let mut frame = Bytes::from(vec![0u8]);
                g.rt.comm.bcast_bytes(0, &mut frame, &mut g.clock);
            })
            .expect_err("a bad frame must fail the run");
        let worker = failed
            .panics
            .iter()
            .find(|p| p.node == 1)
            .expect("node 1 reported");
        assert_eq!(
            worker.message,
            "node 1: bad frame on the master's command broadcast: \
             unknown message kind byte 0x00"
        );
    }

    #[test]
    fn bad_dsm_reply_fails_the_run_naming_receiver_sender_and_error() {
        let failed = test_cluster(2, 1)
            .try_run_with_report(|g| {
                let xs = g.alloc_f64(8);
                // The master's write invalidates node 1's copy at the fork
                // barrier, whose departure takes node 1's first reply tag;
                // the fetch that follows listens on the second. Garbage
                // waits there, in node 1's mailbox before the region starts.
                g.set(&xs, 0, 1.0);
                g.rt.dsm.endpoint().send(
                    1,
                    parade_net::MsgClass::Ctl,
                    parade_dsm::REPLY_TAG_BASE + 1,
                    Bytes::from(vec![1u8, 2, 3]),
                    &mut g.clock,
                );
                g.parallel(move |tc| {
                    if tc.node() == 1 {
                        tc.get(&xs, 0); // INVALID on node 1: a fetch
                    }
                });
            })
            .expect_err("a bad reply must fail the run");
        let worker = failed
            .panics
            .iter()
            .find(|p| p.node == 1)
            .expect("node 1 reported");
        // Kind byte 1 is the one-page fetch reply, cut short.
        assert_eq!(
            worker.message,
            "node 1: bad dsm frame from node 0 on tag 0x100000001: \
             truncated frame: u64 needs 8 bytes, 2 left"
        );
        assert_eq!(failed.cluster.dsm[1].read_faults, 1, "node 1 faulted once");
    }

    #[test]
    fn bad_dsm_request_fails_the_run_instead_of_hanging_it() {
        // A request that does not decode panics the communication thread
        // that read it and nobody else: node 1's next barrier arrival goes
        // to a thread that is gone. The run must end, and say why.
        let failed = parade_testkit::watchdog::run_with_timeout(
            "comm-thread-panic",
            std::time::Duration::from_secs(60),
            || {
                test_cluster(2, 2)
                    .try_run_with_report(|g| {
                        let xs = g.alloc_f64(8);
                        g.parallel(move |tc| tc.barrier());
                        g.rt.dsm.endpoint().send(
                            1,
                            parade_net::MsgClass::Dsm,
                            0,
                            Bytes::from(vec![0xEEu8, 2, 3]),
                            &mut g.clock,
                        );
                        g.parallel(move |tc| {
                            if tc.node() == 1 {
                                tc.get(&xs, 0);
                            }
                        });
                    })
                    .expect_err("a bad request must fail the run")
            },
        );
        let text = failed.to_string();
        assert!(
            text.contains("(node 1: node 1: bad dsm frame from node 0 on tag 0x0: "),
            "{text}"
        );
        assert!(text.contains("0xee"), "{text}");
    }

    #[test]
    fn a_request_for_a_page_no_region_covers_fails_the_run_naming_the_page() {
        // A well-formed fetch of a page inside the pool but past every
        // allocated region, at node 0, the initial home of every page: its
        // communication thread must refuse the frame against its page
        // table and fail the run, not read memory it never built.
        let failed = parade_testkit::watchdog::run_with_timeout(
            "page-past-extent",
            std::time::Duration::from_secs(60),
            || {
                test_cluster(2, 2)
                    .try_run_with_report(|g| {
                        let xs = g.alloc_f64(8);
                        g.parallel(move |tc| tc.barrier());
                        let req = parade_dsm::DsmMsg::ReqPages(parade_dsm::PageReq {
                            first: 9_999,
                            count: 1,
                            requester: 1,
                            reply_tag: parade_dsm::REPLY_TAG_BASE,
                        });
                        g.rt.dsm.endpoint().send(
                            0,
                            parade_net::MsgClass::Dsm,
                            0,
                            req.encode(),
                            &mut g.clock,
                        );
                        g.parallel(move |tc| {
                            if tc.node() == 1 {
                                tc.get(&xs, 0);
                            }
                        });
                    })
                    .expect_err("a page past the extent must fail the run")
            },
        );
        let text = failed.to_string();
        assert!(
            text.contains(
                "(node 0: node 0: bad dsm frame from node 0 on tag 0x0: \
                 pages 9999..10000 reach past the page table's extent of "
            ),
            "{text}"
        );
    }

    #[test]
    fn panicking_pool_thread_fails_the_run_instead_of_stranding_its_node() {
        let failed = parade_testkit::watchdog::run_with_timeout(
            "pool-thread-panic",
            std::time::Duration::from_secs(60),
            || {
                test_cluster(2, 2)
                    .try_run_with_report(|g| {
                        g.parallel(|tc| {
                            if tc.thread_num() == 3 {
                                panic!("boom in node 1's pool thread");
                            }
                            tc.barrier();
                        });
                    })
                    .expect_err("the run must fail")
            },
        );
        // Node 1's main thread was parked at the node barrier, or reached
        // it later: either way it found it poisoned.
        let node1 = failed.panics.iter().find(|p| p.node == 1);
        let message = &node1.expect("node 1 reported").message;
        assert!(
            message.contains("node barrier of node 1 is broken"),
            "{message}"
        );
    }

    #[test]
    fn parallel_region_runs_all_threads() {
        let c = test_cluster(2, 2);
        let n = c.run(|g| {
            let counter = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let c2 = std::sync::Arc::clone(&counter);
            g.parallel(move |_tc| {
                c2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            });
            counter.load(std::sync::atomic::Ordering::SeqCst)
        });
        assert_eq!(n, 4);
    }

    #[test]
    fn quickstart_sum() {
        let c = test_cluster(2, 2);
        let sum = c.run(|g| {
            let xs = g.alloc_f64(1024);
            g.parallel(move |tc| {
                let v = tc.bind_f64(&xs);
                for i in tc.for_static(0..1024) {
                    v.set(i, i as f64);
                }
                tc.barrier();
                let mut local = 0.0;
                for i in tc.for_static(0..1024) {
                    local += v.get(i);
                }
                tc.reduce_f64_sum(local)
            })
        });
        assert_eq!(sum, (0..1024).sum::<usize>() as f64);
    }

    #[test]
    fn serial_writes_visible_in_region_and_back() {
        let c = test_cluster(3, 1);
        let out = c.run(|g| {
            let xs = g.alloc_i64(100);
            for i in 0..100 {
                g.set(&xs, i, i as i64);
            }
            g.parallel(move |tc| {
                for i in tc.for_static(0..100) {
                    let v = tc.get(&xs, i);
                    tc.set(&xs, i, v * 2);
                }
            });
            let mut sum = 0;
            for i in 0..100 {
                sum += g.get(&xs, i);
            }
            sum
        });
        assert_eq!(out, 2 * (0..100).sum::<i64>());
    }

    fn mode_cluster(nodes: usize, tpn: usize, mode: ProtocolMode) -> Cluster {
        Cluster::builder()
            .nodes(nodes)
            .threads_per_node(tpn)
            .net(NetProfile::zero())
            .time(TimeSource::Manual)
            .protocol(mode)
            .build()
            .unwrap()
    }

    /// A master's serial write with no allocation since the last join is
    /// the fork's only reason to publish, and it must: every thread of
    /// every node reads the new value, not its own valid-looking copy.
    #[test]
    fn a_serial_write_before_a_fork_reaches_every_thread() {
        for (nodes, tpn) in [(1, 2), (2, 2), (4, 2)] {
            for mode in [ProtocolMode::Parade, ProtocolMode::SdsmOnly] {
                let seen = Arc::new(Mutex::new(Vec::new()));
                let sink = Arc::clone(&seen);
                mode_cluster(nodes, tpn, mode).run(move |g| {
                    let xs = g.alloc_f64(8);
                    g.parallel(move |tc| assert_eq!(tc.get(&xs, 3), 0.0));
                    g.set(&xs, 3, 7.0);
                    g.parallel(move |tc| sink.lock().push(tc.get(&xs, 3)));
                });
                let seen = seen.lock().clone();
                assert_eq!(seen, vec![7.0; nodes * tpn], "{nodes}x{tpn} {mode:?}");
            }
        }
    }

    /// The fork takes the DSM barrier after an allocation or a serial
    /// write, and only then. A publishing fork sends the join straight to
    /// the DSM barrier; a region forked with neither since a join that
    /// published nothing takes none at all, because its join asks first
    /// and no node wrote.
    #[test]
    fn a_fork_with_nothing_to_publish_takes_no_dsm_barrier() {
        /// The master's DSM barriers over `f` and one empty region.
        fn barriers_of(g: &mut MasterCtx, f: impl FnOnce(&mut MasterCtx)) -> u64 {
            let before = g.rt.dsm.stats.barriers.load(Ordering::Relaxed);
            f(g);
            g.parallel(|_| {});
            g.rt.dsm.stats.barriers.load(Ordering::Relaxed) - before
        }
        for mode in [ProtocolMode::Parade, ProtocolMode::SdsmOnly] {
            let forks = mode_cluster(4, 2, mode).run(|g| {
                let xs = g.alloc_f64(8);
                let after_alloc = barriers_of(g, |_| {});
                let quiet = barriers_of(g, |_| {});
                let after_write = barriers_of(g, move |g| g.set(&xs, 0, 1.0));
                let after_scalar = barriers_of(g, |g| {
                    g.alloc_scalar_f64();
                });
                [after_alloc, quiet, after_write, after_scalar]
            });
            assert_eq!(forks, [2, 0, 2, 2], "{mode:?}: fork + join, or neither");
        }
    }

    /// The shapes and modes of the quiet-barrier tests below.
    fn quiet_shapes() -> impl Iterator<Item = (usize, usize, ProtocolMode)> {
        [(1, 4), (2, 2), (4, 2)]
            .into_iter()
            .flat_map(|(nodes, tpn)| {
                [ProtocolMode::Parade, ProtocolMode::SdsmOnly].map(move |mode| (nodes, tpn, mode))
            })
    }

    /// `f` on a `nodes`×`tpn` cluster in `mode`, under a watchdog: a node
    /// that decided alone to ask where a peer took the DSM barrier would
    /// hang rather than fail.
    fn watched<R: Send + 'static>(
        nodes: usize,
        tpn: usize,
        mode: ProtocolMode,
        f: impl FnOnce(&mut MasterCtx) -> R + Send + 'static,
    ) -> R {
        parade_testkit::watchdog::run_with_timeout(
            &format!("quiet-barrier-{nodes}x{tpn}-{mode:?}"),
            std::time::Duration::from_secs(60),
            move || mode_cluster(nodes, tpn, mode).run(f),
        )
    }

    /// This node's DSM barriers so far.
    fn dsm_barriers(tc: &ThreadCtx) -> u64 {
        tc.rt().dsm.stats.barriers.load(Ordering::Relaxed)
    }

    /// Barriers with nothing written take one DSM barrier per node, the
    /// first; every later one asks the nodes' write flags and finds none.
    #[test]
    fn quiet_barriers_take_one_dsm_barrier_then_ask() {
        const K: usize = 6;
        for (nodes, tpn, mode) in quiet_shapes() {
            let per_node = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&per_node);
            watched(nodes, tpn, mode, move |g| {
                g.parallel(move |tc| {
                    let before = dsm_barriers(tc);
                    for _ in 0..K {
                        tc.barrier();
                    }
                    if tc.local_thread() == 0 {
                        sink.lock().push(dsm_barriers(tc) - before);
                    }
                })
            });
            let got = per_node.lock().clone();
            assert_eq!(got, vec![1; nodes], "{nodes}x{tpn} {mode:?}");
        }
    }

    /// Who writes the shared value between two quiet barriers.
    #[derive(Clone, Copy, Debug)]
    enum QuietWriter {
        /// A plain store by a non-lead thread on the last node.
        LastNodeWorker,
        /// A generic `critical` (DSM lock): its notices wait in the
        /// interval until the next DSM barrier drains them.
        Critical,
        /// An `atomic`; in SdsmOnly mode a DSM lock around a page write.
        Atomic,
    }

    /// Two quiet barriers, a write by `who`, one more barrier: returns
    /// what every thread read after it (in no particular order) and each
    /// node's DSM barriers over the three.
    fn write_between_quiet_barriers(
        nodes: usize,
        tpn: usize,
        mode: ProtocolMode,
        who: QuietWriter,
    ) -> (Vec<f64>, Vec<u64>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let per_node = Arc::new(Mutex::new(Vec::new()));
        let (sink, node_sink) = (Arc::clone(&seen), Arc::clone(&per_node));
        watched(nodes, tpn, mode, move |g| {
            let xs = g.alloc_f64(8);
            let s = g.alloc_scalar_f64();
            g.parallel(move |tc| {
                let before = dsm_barriers(tc);
                tc.barrier();
                tc.barrier();
                let last = tc.node() == nodes - 1 && tc.local_thread() == tpn - 1;
                match who {
                    QuietWriter::LastNodeWorker if last => tc.set(&xs, 5, 42.0),
                    QuietWriter::Critical if last => tc.critical(3, |tc| tc.set(&xs, 5, 42.0)),
                    QuietWriter::Atomic if last => {
                        tc.atomic_add_f64(&s, 42.0);
                    }
                    _ => {}
                }
                tc.barrier();
                let v = match who {
                    QuietWriter::Atomic => tc.scalar_get(&s),
                    _ => tc.get(&xs, 5),
                };
                sink.lock().push(v);
                if tc.local_thread() == 0 {
                    node_sink.lock().push(dsm_barriers(tc) - before);
                }
            })
        });
        let seen = seen.lock().clone();
        let per_node = per_node.lock().clone();
        (seen, per_node)
    }

    /// A write made between two quiet barriers reaches every thread of
    /// every node after the next barrier, which asks, learns that a node
    /// wrote and takes the DSM barrier: one for the first barrier, none
    /// for the second, one for the third.
    #[test]
    fn a_write_between_quiet_barriers_reaches_every_thread() {
        for (nodes, tpn, mode) in quiet_shapes() {
            let mut writers = vec![QuietWriter::LastNodeWorker, QuietWriter::Critical];
            if mode == ProtocolMode::SdsmOnly {
                // In Parade mode an atomic is a collective every thread
                // reaches, and writes no page.
                writers.push(QuietWriter::Atomic);
            }
            for who in writers {
                let (seen, per_node) = write_between_quiet_barriers(nodes, tpn, mode, who);
                let shape = format!("{nodes}x{tpn} {mode:?} {who:?}");
                assert_eq!(seen, vec![42.0; nodes * tpn], "{shape}: a stale read");
                assert_eq!(per_node, vec![2; nodes], "{shape}");
            }
        }
    }

    /// A fork that takes the DSM barrier (here, after an allocation)
    /// clears the flag, so the region's first barrier goes straight to the
    /// DSM barrier; a fork with nothing to publish leaves the flag as the
    /// last join set it. Per region: the flag at the region's start, and
    /// the master's DSM barriers over the fork, one barrier and the join.
    #[test]
    fn a_publishing_fork_clears_the_quiet_flag_and_a_quiet_fork_keeps_it() {
        for (nodes, tpn, mode) in quiet_shapes() {
            let got = watched(nodes, tpn, mode, |g| {
                let one_barrier = |g: &mut MasterCtx| {
                    let before = g.rt.dsm.stats.barriers.load(Ordering::Relaxed);
                    let quiet = g.parallel(|tc| {
                        let quiet = tc.rt().quiet.load(Ordering::Relaxed);
                        tc.barrier();
                        quiet
                    });
                    // The join adds none: it follows a barrier with
                    // nothing to publish, asks, and nobody wrote.
                    (
                        quiet,
                        g.rt.dsm.stats.barriers.load(Ordering::Relaxed) - before,
                    )
                };
                let first = one_barrier(g);
                let quiet_fork = one_barrier(g);
                g.alloc_f64(8);
                let after_alloc = one_barrier(g);
                [first, quiet_fork, after_alloc]
            });
            assert_eq!(
                got,
                [(false, 1), (true, 0), (false, 2)],
                "{nodes}x{tpn} {mode:?}"
            );
        }
    }

    /// Launches whose first region writes a freshly allocated region under
    /// a DSM lock before any barrier: the fork must still be a DSM barrier.
    /// Without it a node's lock release can name the new pages to the lock
    /// manager before that node's application thread has allocated them
    /// (or even built its runtime), and the manager's communication thread
    /// refuses the frame as "past the page table's extent".
    #[test]
    fn allocate_then_fork_launches_never_outrun_a_peers_page_table() {
        for nodes in [8, 16] {
            for mode in [ProtocolMode::Parade, ProtocolMode::SdsmOnly] {
                let c = mode_cluster(nodes, 1, mode);
                for launch in 0..200 {
                    let run = c.try_run_with_report(move |g| {
                        let xs = g.alloc_f64(nodes);
                        g.parallel(move |tc| {
                            // Each launch puts the lock's manager elsewhere.
                            tc.critical(launch as u64, |tc| {
                                tc.set(&xs, tc.node(), (launch + tc.node()) as f64)
                            });
                            tc.barrier();
                        });
                        (0..nodes).map(|i| g.get(&xs, i)).sum::<f64>()
                    });
                    let got = run
                        .unwrap_or_else(|f| panic!("{nodes} nodes {mode:?} launch {launch}: {f}"))
                        .0;
                    let want = (0..nodes).map(|i| (launch + i) as f64).sum::<f64>();
                    assert_eq!(got, want, "{nodes} nodes {mode:?} launch {launch}");
                }
            }
        }
    }

    #[test]
    fn multiple_regions_and_allocs() {
        let c = test_cluster(2, 2);
        let out = c.run(|g| {
            let a = g.alloc_f64(16);
            g.parallel(move |tc| tc.par_for(0..16, |i| tc.set(&a, i, 1.0)));
            let b = g.alloc_f64(16);
            g.parallel(move |tc| {
                tc.par_for(0..16, |i| {
                    let v = tc.get(&a, i);
                    tc.set(&b, i, v + 1.0)
                })
            });
            let mut s = 0.0;
            for i in 0..16 {
                s += g.get(&b, i);
            }
            s
        });
        assert_eq!(out, 32.0);
    }

    #[test]
    fn scalar_roundtrip_both_modes() {
        for mode in [ProtocolMode::Parade, ProtocolMode::SdsmOnly] {
            let c = Cluster::builder()
                .nodes(2)
                .threads_per_node(2)
                .protocol(mode)
                .net(NetProfile::zero())
                .time(TimeSource::Manual)
                .build()
                .unwrap();
            let got = c.run(|g| {
                let s = g.alloc_scalar_f64();
                g.scalar_set_f64(&s, 2.5);
                let sums = g.parallel(move |tc| {
                    let base = tc.scalar_get(&s);
                    tc.reduce_f64_sum(base)
                });
                (g.scalar_get_f64(&s), sums)
            });
            assert_eq!(got.0, 2.5, "mode {mode:?}");
            assert_eq!(got.1, 10.0, "mode {mode:?}");
        }
    }

    #[test]
    fn atomic_updates_scalar_identically_in_both_modes() {
        for mode in [ProtocolMode::Parade, ProtocolMode::SdsmOnly] {
            let c = Cluster::builder()
                .nodes(2)
                .threads_per_node(2)
                .protocol(mode)
                .net(NetProfile::zero())
                .time(TimeSource::Manual)
                .build()
                .unwrap();
            let got = c.run(move |g| {
                let s = g.alloc_scalar_f64();
                g.scalar_set_f64(&s, 100.0);
                g.parallel(move |tc| {
                    tc.atomic_add_f64(&s, (tc.thread_num() + 1) as f64);
                });
                g.scalar_get_f64(&s)
            });
            // 100 + 1 + 2 + 3 + 4
            assert_eq!(got, 110.0, "mode {mode:?}");
        }
    }

    #[test]
    fn single_executes_once_and_propagates() {
        for mode in [ProtocolMode::Parade, ProtocolMode::SdsmOnly] {
            let c = Cluster::builder()
                .nodes(3)
                .threads_per_node(2)
                .protocol(mode)
                .net(NetProfile::zero())
                .time(TimeSource::Manual)
                .build()
                .unwrap();
            let execs = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let e2 = std::sync::Arc::clone(&execs);
            let got = c.run(move |g| {
                let s = g.alloc_scalar_f64();
                g.parallel(move |tc| {
                    let v = tc.single_f64(&s, |_| {
                        e2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        42.0
                    });
                    tc.reduce_f64_sum(v)
                })
            });
            assert_eq!(got, 42.0 * 6.0, "mode {mode:?}");
            assert_eq!(
                execs.load(std::sync::atomic::Ordering::SeqCst),
                1,
                "single body must run exactly once (mode {mode:?})"
            );
        }
    }

    #[test]
    fn critical_serializes_dsm_updates() {
        let c = test_cluster(2, 2);
        let got = c.run(|g| {
            let xs = g.alloc_i64(1);
            g.parallel(move |tc| {
                for _ in 0..5 {
                    tc.critical(1, |tc| {
                        let v = tc.get(&xs, 0);
                        tc.set(&xs, 0, v + 1);
                    });
                }
            });
            g.get(&xs, 0)
        });
        assert_eq!(got, 20);
    }

    #[test]
    fn dynamic_and_guided_schedules_cover_range() {
        let c = test_cluster(2, 2);
        let got = c.run(|g| {
            let hits = g.alloc_i64(200);
            g.parallel(move |tc| {
                tc.for_dynamic(0..200, 7, |r| {
                    for i in r {
                        let v = tc.get(&hits, i);
                        tc.set(&hits, i, v + 1);
                    }
                });
                tc.barrier();
            });

            g.parallel(move |tc| {
                let mut s = 0;
                for i in tc.for_static(0..200) {
                    s += tc.get(&hits, i);
                }
                tc.reduce_i64(parade_mpi::ReduceOp::Sum, s)
            })
        });
        assert_eq!(got, 200, "every iteration exactly once");
    }

    #[test]
    fn report_contains_times_and_counters() {
        let c = test_cluster(2, 1);
        let (_, report) = c.run_with_report(|g| {
            let xs = g.alloc_f64(1000);
            g.parallel(move |tc| {
                tc.par_for(0..1000, |i| tc.set(&xs, i, 1.0));
                let mut s = 0.0;
                for i in tc.for_static(0..1000) {
                    s += tc.get(&xs, i);
                }
                tc.reduce_f64_sum(s)
            });
        });
        assert_eq!(report.node_times.len(), 2);
        assert!(report.cluster.dsm_totals().barriers > 0);
    }

    #[test]
    fn master_directive_runs_on_global_master_only() {
        let c = test_cluster(2, 2);
        let got = c.run(|g| {
            let hits = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let h2 = std::sync::Arc::clone(&hits);
            g.parallel(move |tc| {
                tc.master(|_| {
                    h2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                });
            });
            hits.load(std::sync::atomic::Ordering::SeqCst)
        });
        assert_eq!(got, 1);
    }
}
