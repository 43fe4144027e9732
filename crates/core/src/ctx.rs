//! `ThreadCtx` — the per-thread handle inside a parallel region.
//!
//! Every OpenMP construct the ParADE translator emits maps to a method
//! here, with **two implementations** selected by the cluster's
//! [`ProtocolMode`]:
//!
//! * `Parade` — the paper's hybrid lowering: hierarchical mutual exclusion
//!   (node-local lock + inter-node collective), message-passing update
//!   protocol for small data, no implicit barriers where a collective
//!   already synchronizes (Figures 2/3, right-hand sides).
//! * `SdsmOnly` — the conventional SDSM lowering used as the baseline:
//!   distributed locks, shared flags/accumulators on DSM pages, explicit
//!   barriers (Figures 2/3, left-hand sides).
//!
//! Kernels are therefore written once and benchmarked under both modes.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parade_cluster::ProtocolMode;
use parade_mpi::{Communicator, ReduceOp};
use parade_net::{VClock, VTime};
use parade_trace::{self as trace, EventKind};

use crate::runtime::{construct_gen, NodeRt, INTERNAL_LOCK_BASE, SLOTS};
use crate::shared::{Pod, SharedScalar, SharedVec};

/// Cost of grabbing one dynamic-scheduling chunk from the node-local queue.
const DYN_CHUNK_OVERHEAD: VTime = VTime(1_000);

/// Internal lock-id sub-spaces.
const LOCK_SPACE_REDUCE: u64 = INTERNAL_LOCK_BASE;
const LOCK_SPACE_SINGLE: u64 = INTERNAL_LOCK_BASE + (1 << 20);
const LOCK_SPACE_ATOMIC: u64 = INTERNAL_LOCK_BASE + (2 << 20);

/// A scalar reduction operand: 8 bytes the node combine parks as raw bits
/// and the DSM scratch slot stores as is.
trait Reducible: Pod {
    fn fold(op: ReduceOp, a: Self, b: Self) -> Self;
    fn allreduce(comm: &Communicator, v: Self, op: ReduceOp, clock: &mut VClock) -> Self;
    fn to_bits(self) -> u64;
    fn from_bits(bits: u64) -> Self;
}

impl Reducible for f64 {
    fn fold(op: ReduceOp, a: f64, b: f64) -> f64 {
        op.fold_f64(a, b)
    }
    fn allreduce(comm: &Communicator, v: f64, op: ReduceOp, clock: &mut VClock) -> f64 {
        comm.allreduce_f64(v, op, clock)
    }
    fn to_bits(self) -> u64 {
        f64::to_bits(self)
    }
    fn from_bits(bits: u64) -> f64 {
        f64::from_bits(bits)
    }
}

impl Reducible for i64 {
    fn fold(op: ReduceOp, a: i64, b: i64) -> i64 {
        op.fold_i64(a, b)
    }
    fn allreduce(comm: &Communicator, v: i64, op: ReduceOp, clock: &mut VClock) -> i64 {
        comm.allreduce_i64(v, op, clock)
    }
    fn to_bits(self) -> u64 {
        self as u64
    }
    fn from_bits(bits: u64) -> i64 {
        bits as i64
    }
}

/// The vector an open [`ThreadCtx::view`] borrows, for the panic that
/// names it.
#[derive(Clone, Copy)]
struct ViewedVec {
    region: u32,
    len: usize,
    elem: &'static str,
}

/// Marks a view open for as long as it lives; nested views stack through
/// the mark each one displaced.
struct OpenView<'t> {
    slot: &'t Cell<Option<ViewedVec>>,
    outer: Option<ViewedVec>,
}

impl Drop for OpenView<'_> {
    fn drop(&mut self) {
        self.slot.set(self.outer);
    }
}

/// Per-thread context inside a parallel region.
pub struct ThreadCtx {
    rt: Arc<NodeRt>,
    local_tid: usize,
    region_no: u64,
    clock: RefCell<VClock>,
    /// The innermost open [`ThreadCtx::view`], if any.
    viewed: Cell<Option<ViewedVec>>,
    single_seq: Cell<u64>,
    reduce_seq: Cell<u64>,
    loop_seq: Cell<u64>,
}

impl ThreadCtx {
    pub(crate) fn new(rt: Arc<NodeRt>, local_tid: usize, region_no: u64, clock: VClock) -> Self {
        ThreadCtx {
            rt,
            local_tid,
            region_no,
            clock: RefCell::new(clock),
            viewed: Cell::new(None),
            single_seq: Cell::new(0),
            reduce_seq: Cell::new(0),
            loop_seq: Cell::new(0),
        }
    }

    pub(crate) fn into_clock(self) -> VClock {
        self.clock.into_inner()
    }

    pub(crate) fn region_end(&self) {
        // The implicit join barrier of the fork-join model.
        self.barrier();
    }

    // ---- identity ---------------------------------------------------------

    /// Global thread id (`omp_get_thread_num`).
    pub fn thread_num(&self) -> usize {
        self.rt.global_tid(self.local_tid)
    }

    /// Total threads in the team (`omp_get_num_threads`).
    pub fn num_threads(&self) -> usize {
        self.rt.total_threads()
    }

    pub fn node(&self) -> usize {
        self.rt.node
    }

    pub fn num_nodes(&self) -> usize {
        self.rt.nnodes
    }

    pub fn local_thread(&self) -> usize {
        self.local_tid
    }

    pub fn threads_per_node(&self) -> usize {
        self.rt.tpn
    }

    pub fn mode(&self) -> ProtocolMode {
        self.rt.mode
    }

    // ---- virtual time -----------------------------------------------------

    /// This thread's current virtual time.
    pub fn now(&self) -> VTime {
        self.clock.borrow().now()
    }

    /// Charge `d` of counted compute: the work a kernel did since its last
    /// charge, priced by its per-unit cost. Free under `TimeSource::Manual`
    /// (see `VClock::compute`).
    pub fn compute(&self, d: VTime) {
        self.clock.borrow_mut().compute(d);
    }

    /// Charge explicit compute cost, under either time source.
    pub fn charge(&self, d: VTime) {
        self.clock.borrow_mut().charge(d);
    }

    pub(crate) fn with_clock<R>(&self, f: impl FnOnce(&mut VClock) -> R) -> R {
        f(&mut self.clock.borrow_mut())
    }

    pub(crate) fn rt(&self) -> &Arc<NodeRt> {
        &self.rt
    }

    /// Move the clock out of the thread context (leaving a dummy). The task
    /// scheduler drives the phase with an exclusive `&mut VClock`; while it
    /// does, ThreadCtx methods must not be called — `put_clock` (or the
    /// executor's swap around a task body) restores access.
    pub(crate) fn take_clock(&self) -> VClock {
        std::mem::replace(&mut self.clock.borrow_mut(), VClock::manual())
    }

    pub(crate) fn put_clock(&self, c: VClock) {
        *self.clock.borrow_mut() = c;
    }

    // ---- shared data ------------------------------------------------------

    /// Bind a shared vector for repeated access.
    pub fn bind<'t, T: Pod>(&'t self, v: &SharedVec<T>) -> BoundVec<'t, T> {
        BoundVec { tc: self, v: *v }
    }

    /// Bind a shared `f64` vector (convenience used throughout examples).
    pub fn bind_f64<'t>(&'t self, v: &SharedVec<f64>) -> BoundVec<'t, f64> {
        self.bind(v)
    }

    /// Read one element.
    pub fn get<T: Pod>(&self, v: &SharedVec<T>, i: usize) -> T {
        self.with_clock(|c| self.rt.dsm.read(v.region, i * std::mem::size_of::<T>(), c))
    }

    /// Write one element.
    pub fn set<T: Pod>(&self, v: &SharedVec<T>, i: usize, val: T) {
        self.with_clock(|c| {
            self.rt
                .dsm
                .write(v.region, i * std::mem::size_of::<T>(), val, c)
        })
    }

    /// Bulk read `out.len()` elements starting at `first`.
    pub fn read_into<T: Pod>(&self, v: &SharedVec<T>, first: usize, out: &mut [T]) {
        self.with_clock(|c| self.rt.dsm.read_slice(v.region, first, out, c))
    }

    /// Bulk write elements starting at `first`.
    pub fn write_from<T: Pod>(&self, v: &SharedVec<T>, first: usize, src: &[T]) {
        self.with_clock(|c| self.rt.dsm.write_slice(v.region, first, src, c))
    }

    /// Run `f` on elements `range` of `v` where they live — the node's own
    /// copy of the pages, faulted in exactly as [`ThreadCtx::read_into`]
    /// would, with no copy made. `f` may read and write other shared data
    /// (`get`, `write_from`, nested views, reductions that lower to
    /// collectives), but a view is good for one interval: reaching a
    /// barrier or taking a DSM lock inside `f` — where write notices are
    /// applied and the pages under the slice may be invalidated — panics,
    /// naming `v`. Nor may `f` store into the range it is viewing.
    pub fn view<T: Pod, R>(
        &self,
        v: &SharedVec<T>,
        range: Range<usize>,
        f: impl FnOnce(&[T]) -> R,
    ) -> R {
        // The clock is released before `f` runs: `f` charges it too.
        let elems = self.with_clock(|c| self.rt.dsm.view(v.region, range.start, range.len(), c));
        let _open = OpenView {
            slot: &self.viewed,
            outer: self.viewed.replace(Some(ViewedVec {
                region: v.region.id,
                len: v.len,
                elem: std::any::type_name::<T>(),
            })),
        };
        f(elems)
    }

    /// Fail-stop where write notices are about to be applied under a view.
    /// (The baseline `single` takes its DSM lock unchecked: the barrier it
    /// ends with is reached by every thread and refuses.)
    #[inline]
    pub(crate) fn end_of_interval(&self, what: &str) {
        if let Some(v) = self.viewed.get() {
            panic!(
                "{what} inside a view of SharedVec<{}> #{} ({} elements): a view is good for \
                 one interval, the pages under it may be invalidated here",
                v.elem, v.region, v.len
            );
        }
    }

    /// Read a shared scalar (update-protocol local copy in Parade mode,
    /// DSM page in the baseline).
    pub fn scalar_get<T: Pod + ScalarPrim>(&self, s: &SharedScalar<T>) -> T {
        match self.rt.mode {
            ProtocolMode::Parade => T::small_read(self.rt.small(), s),
            ProtocolMode::SdsmOnly => self.with_clock(|c| self.rt.dsm.read(s.region, 0, c)),
        }
    }

    // ---- barriers ----------------------------------------------------------

    /// Hierarchical cluster-wide barrier: node-local barrier, then the
    /// inter-node HLRC barrier (flush + write notices + invalidations +
    /// home migration) performed by one representative per node — the
    /// last thread to reach the node barrier, from inside it.
    ///
    /// The inter-node half is the DSM barrier only when it may have
    /// something to publish. After a barrier that published nothing (the
    /// node's `quiet` flag) the representative first asks, with one
    /// `allreduce` of the nodes' write flags, whether any node wrote since,
    /// and takes the DSM barrier only if one did; otherwise the allreduce
    /// alone is the crossing, and it still holds every node until every
    /// node has arrived. After a barrier that published, the question would
    /// only add the allreduce, so the DSM barrier is taken directly.
    pub fn barrier(&self) {
        let rt = &self.rt;
        self.crossing(|c| {
            if !rt.quiet.load(Ordering::Relaxed) || rt.any_node_wrote(c) {
                rt.quiet.store(!rt.dsm.barrier(c), Ordering::Relaxed);
            }
        });
    }

    /// [`ThreadCtx::barrier`] whose inter-node half is the DSM barrier if
    /// `inter_node(clock)`, asked once, by the node barrier's last arriver,
    /// on the node-combine clock (the question may cost a collective), and
    /// nothing otherwise. Task phases cross with it: they neither read nor
    /// write the `quiet` flag. Sound only when every node gets the same
    /// answer and no node has a write notice to advertise when it is no.
    pub(crate) fn barrier_if(&self, inter_node: impl FnOnce(&mut VClock) -> bool) {
        self.crossing(|c| {
            if inter_node(c) {
                self.rt.dsm.barrier(c);
            }
        });
    }

    /// A barrier's node-local half around `lead`, its inter-node half.
    fn crossing(&self, lead: impl FnOnce(&mut VClock)) {
        self.end_of_interval("barrier()");
        if trace::enabled() {
            trace::begin(EventKind::OmpBarrier, self.now());
        }
        self.node_combine(lead);
        if trace::enabled() {
            trace::end(EventKind::OmpBarrier, self.now());
        }
    }

    /// The "combine inside the node, one thread talks to the other nodes"
    /// step every hierarchical construct shares: a node barrier whose last
    /// arriver runs `lead` on the clock it is handed (this thread's clock
    /// is borrowed for the whole crossing) before anyone is released.
    fn node_combine(&self, lead: impl FnOnce(&mut VClock)) {
        self.rt
            .barrier
            .wait_leading(&mut self.clock.borrow_mut(), lead);
    }

    // ---- work sharing -------------------------------------------------------

    /// Static loop scheduling (the paper's only supported policy): evenly
    /// divided contiguous iteration blocks.
    pub fn for_static(&self, range: Range<usize>) -> Range<usize> {
        partition(range, self.num_threads(), self.thread_num())
    }

    /// Static scheduling with a chunk size: round-robin chunks
    /// (`schedule(static, chunk)`).
    pub fn for_static_chunks(&self, range: Range<usize>, chunk: usize) -> StaticChunks {
        assert!(chunk > 0);
        StaticChunks {
            next: range.start + self.thread_num() * chunk,
            end: range.end,
            stride: self.num_threads() * chunk,
            chunk,
        }
    }

    /// `parallel for` convenience: static schedule plus the implicit
    /// end-of-loop barrier.
    pub fn par_for(&self, range: Range<usize>, mut body: impl FnMut(usize)) {
        for i in self.for_static(range) {
            body(i);
        }
        self.barrier();
    }

    /// Dynamic scheduling (`schedule(dynamic, chunk)`), an extension beyond
    /// the paper's static-only runtime (its §8 future work): iterations are
    /// split statically across nodes, then claimed chunk-by-chunk from a
    /// node-local queue — remote chunk stealing would cost a network round
    /// trip per chunk on an SMP cluster. Like every work-sharing helper it
    /// ends without a barrier: the caller adds the loop's implicit one
    /// unless the loop is `nowait`.
    pub fn for_dynamic(&self, range: Range<usize>, chunk: usize, body: impl FnMut(Range<usize>)) {
        self.dynamic_loop(range, DynPolicy::Fixed(chunk.max(1)), body);
    }

    /// Guided scheduling (`schedule(guided, min_chunk)`): chunk sizes decay
    /// with the remaining work. Ends without a barrier, like
    /// [`ThreadCtx::for_dynamic`].
    pub fn for_guided(
        &self,
        range: Range<usize>,
        min_chunk: usize,
        body: impl FnMut(Range<usize>),
    ) {
        self.dynamic_loop(range, DynPolicy::Guided(min_chunk.max(1)), body);
    }

    fn dynamic_loop(
        &self,
        range: Range<usize>,
        policy: DynPolicy,
        mut body: impl FnMut(Range<usize>),
    ) {
        let node_range = partition(range, self.rt.nnodes, self.rt.node);
        let seq = self.loop_seq.replace(self.loop_seq.get() + 1);
        let gen = construct_gen(self.region_no, seq);
        let slot = (gen as usize) % SLOTS;
        let tpn = self.rt.tpn;
        loop {
            let grabbed = {
                let mut s = self.rt.dyn_slots[slot].lock();
                if s.gen != gen {
                    s.gen = gen;
                    s.next = node_range.start;
                    s.end = node_range.end;
                }
                if s.next >= s.end {
                    None
                } else {
                    let chunk = match policy {
                        DynPolicy::Fixed(c) => c,
                        DynPolicy::Guided(min) => ((s.end - s.next) / (2 * tpn)).max(min),
                    };
                    let start = s.next;
                    s.next = (start + chunk).min(s.end);
                    Some(start..s.next)
                }
            };
            match grabbed {
                Some(r) => {
                    self.charge(DYN_CHUNK_OVERHEAD);
                    if trace::enabled() {
                        trace::instant(
                            EventKind::OmpForChunk,
                            (r.end - r.start) as u64,
                            self.now(),
                        );
                    }
                    body(r);
                }
                None => break,
            }
        }
    }

    // ---- synchronization directives -----------------------------------------

    /// Generic `critical` (arbitrary body): hierarchical mutual exclusion —
    /// a node-local mutex plus the distributed DSM lock. This is the
    /// fallback for code blocks the translator cannot analyze lexically.
    pub fn critical<R>(&self, id: u64, f: impl FnOnce(&ThreadCtx) -> R) -> R {
        assert!(
            id < INTERNAL_LOCK_BASE,
            "critical id collides with runtime locks"
        );
        self.critical_raw(id, f)
    }

    fn critical_raw<R>(&self, lock_id: u64, f: impl FnOnce(&ThreadCtx) -> R) -> R {
        self.end_of_interval("a DSM lock acquire");
        if trace::enabled() {
            trace::begin_arg(EventKind::OmpCritical, lock_id, self.now());
        }
        let m = self.rt.critical_mutex(lock_id);
        let mut last_release = m.lock();
        self.with_clock(|c| {
            c.sync_to(*last_release);
            self.rt.dsm.lock_acquire(lock_id, c);
        });
        let r = f(self);
        self.with_clock(|c| self.rt.dsm.lock_release(lock_id, c));
        *last_release = self.with_clock(|c| c.now());
        if trace::enabled() {
            trace::end(EventKind::OmpCritical, self.now());
        }
        r
    }

    /// `critical` over a small analyzable block that reduces into a shared
    /// scalar — ParADE's headline optimization (Figure 2): the pthread lock
    /// handles intra-node exclusion and a collective replaces the
    /// distributed lock. In the baseline mode this degenerates to the
    /// lock-based path of Figure 2's left side. Returns the new value.
    pub fn critical_reduce_f64(&self, s: &SharedScalar<f64>, op: ReduceOp, operand: f64) -> f64 {
        self.atomic_f64(s, op, operand)
    }

    /// `atomic` directive: atomic update of a shared scalar. In Parade mode
    /// this maps *exactly* to a collective (§4.2): thread contributions are
    /// combined within the node, allreduced across nodes, and applied to
    /// every node's local copy. All threads must reach the construct (the
    /// usual restriction of the collective lowering, §7).
    pub fn atomic_f64(&self, s: &SharedScalar<f64>, op: ReduceOp, operand: f64) -> f64 {
        match self.rt.mode {
            ProtocolMode::Parade => {
                let rt = Arc::clone(&self.rt);
                let small = s.small;
                self.hier(op, operand, move |total| {
                    let cur = rt.small().read_f64(small, 0);
                    let new = op.fold_f64(cur, total);
                    rt.small().write_f64(small, 0, new);
                    new
                })
            }
            ProtocolMode::SdsmOnly => {
                let lock_id = LOCK_SPACE_ATOMIC + s.region.id as u64;
                self.critical_raw(lock_id, |tc| {
                    tc.with_clock(|c| {
                        let cur: f64 = tc.rt.dsm.read(s.region, 0, c);
                        let new = op.fold_f64(cur, operand);
                        tc.rt.dsm.write(s.region, 0, new, c);
                        new
                    })
                })
            }
        }
    }

    /// Convenience: `#pragma omp atomic  x += v`.
    pub fn atomic_add_f64(&self, s: &SharedScalar<f64>, v: f64) -> f64 {
        self.atomic_f64(s, ReduceOp::Sum, v)
    }

    /// `reduction(op: var)` clause: every thread contributes `v`; all
    /// threads receive the combined value. Parade mode: node-local combine
    /// then `MPI_Allreduce` (§4.2). Baseline: DSM lock + shared accumulator
    /// then barrier.
    pub fn reduce_f64(&self, op: ReduceOp, v: f64) -> f64 {
        match self.rt.mode {
            ProtocolMode::Parade => self.hier(op, v, |total| total),
            ProtocolMode::SdsmOnly => self.sdsm_reduce(op, v),
        }
    }

    pub fn reduce_f64_sum(&self, v: f64) -> f64 {
        self.reduce_f64(ReduceOp::Sum, v)
    }

    /// Integer reduction.
    pub fn reduce_i64(&self, op: ReduceOp, v: i64) -> i64 {
        match self.rt.mode {
            ProtocolMode::Parade => self.hier(op, v, |total| total),
            ProtocolMode::SdsmOnly => self.sdsm_reduce(op, v),
        }
    }

    /// Multiple reduction variables merged into one structure and reduced
    /// with a user-defined operation (§4.2). `locals` is this thread's
    /// contribution; returns the elementwise-`op` combination (Parade mode
    /// does it in a single allreduce).
    pub fn reduce_f64s(&self, op: ReduceOp, locals: &[f64]) -> Vec<f64> {
        match self.rt.mode {
            ProtocolMode::Parade => {
                if trace::enabled() {
                    trace::begin(EventKind::OmpReduction, self.now());
                }
                // Node-local combine of the whole structure, then a single
                // allreduce for all variables at once.
                {
                    let mut st = self.rt.reduce.lock();
                    if st.count == 0 {
                        st.acc_vec.clear();
                        st.acc_vec.extend_from_slice(locals);
                    } else {
                        assert_eq!(st.acc_vec.len(), locals.len(), "mismatched reduction arity");
                        for (a, &b) in st.acc_vec.iter_mut().zip(locals) {
                            *a = op.fold_f64(*a, b);
                        }
                    }
                    st.count += 1;
                }
                self.node_combine(|c| {
                    // Every contribution is in and every thread parked:
                    // reduce the accumulator in place, and let the previous
                    // result's buffer be the next accumulator.
                    let mut acc = std::mem::take(&mut self.rt.reduce.lock().acc_vec);
                    self.rt.comm.allreduce_f64s(&mut acc, op, c);
                    let mut st = self.rt.reduce.lock();
                    st.acc_vec = std::mem::replace(&mut st.result_vec, acc);
                    st.count = 0;
                });
                let out = self.rt.reduce.lock().result_vec.clone();
                if trace::enabled() {
                    trace::end(EventKind::OmpReduction, self.now());
                }
                out
            }
            ProtocolMode::SdsmOnly => locals.iter().map(|&v| self.sdsm_reduce(op, v)).collect(),
        }
    }

    /// The hierarchical combine: node-local accumulate under the node lock,
    /// then one node barrier inside which its last arriver allreduces the
    /// node's sum and runs `leader_apply` once per node on the total;
    /// everyone reads the result on release.
    fn hier<T: Reducible>(&self, op: ReduceOp, v: T, leader_apply: impl FnOnce(T) -> T) -> T {
        if trace::enabled() {
            trace::begin(EventKind::OmpReduction, self.now());
        }
        {
            let mut st = self.rt.reduce.lock();
            let acc = match st.count {
                0 => v,
                _ => T::fold(op, T::from_bits(st.acc), v),
            };
            st.acc = acc.to_bits();
            st.count += 1;
        }
        self.node_combine(|c| {
            let acc = T::from_bits(self.rt.reduce.lock().acc);
            let total = T::allreduce(&self.rt.comm, acc, op, c);
            let final_v = leader_apply(total);
            let mut st = self.rt.reduce.lock();
            st.result = final_v.to_bits();
            st.count = 0;
        });
        let out = T::from_bits(self.rt.reduce.lock().result);
        if trace::enabled() {
            trace::end(EventKind::OmpReduction, self.now());
        }
        out
    }

    /// Baseline reduction: every thread locks the distributed lock and
    /// accumulates into a DSM scratch slot (twins/diffs and page transfers
    /// included), then a full barrier publishes the result (Figure 2 left).
    fn sdsm_reduce<T: Reducible>(&self, op: ReduceOp, v: T) -> T {
        if trace::enabled() {
            trace::begin(EventKind::OmpReduction, self.now());
        }
        let seq = self.reduce_seq.replace(self.reduce_seq.get() + 1);
        let gen = construct_gen(self.region_no, seq);
        let slot = (gen as usize) % SLOTS;
        let lock_id = LOCK_SPACE_REDUCE + slot as u64;
        let scratch = self.rt.scratch;
        self.critical_raw(lock_id, |tc| {
            tc.with_clock(|c| {
                let g: u64 = tc.rt.dsm.read(scratch, slot * 16, c);
                if g != gen {
                    tc.rt.dsm.write(scratch, slot * 16, gen, c);
                    tc.rt.dsm.write(scratch, slot * 16 + 8, v, c);
                } else {
                    let cur: T = tc.rt.dsm.read(scratch, slot * 16 + 8, c);
                    tc.rt
                        .dsm
                        .write(scratch, slot * 16 + 8, T::fold(op, cur, v), c);
                }
            })
        });
        self.barrier();
        let out = self.with_clock(|c| self.rt.dsm.read(scratch, slot * 16 + 8, c));
        if trace::enabled() {
            trace::end(EventKind::OmpReduction, self.now());
        }
        out
    }

    /// `single` over a small shared scalar: the earliest thread executes
    /// `f` and the result is propagated by broadcast (Parade, Figure 3
    /// right — no barrier) or by a DSM flag + lock + full barrier
    /// (baseline, Figure 3 left). All threads return the value.
    pub fn single_f64(&self, s: &SharedScalar<f64>, f: impl FnOnce(&ThreadCtx) -> f64) -> f64 {
        let out = self.single_update(&[*s], |tc| vec![f(tc)]);
        out[0]
    }

    /// Generalized `single` over several small shared scalars: the
    /// executing thread's `f` returns the new values in order; they are
    /// propagated per the active mode (broadcast / DSM flag + barrier).
    /// Every thread returns the propagated values. With no scalars it is
    /// the execute-once half of a `single` whose targets live on HLRC: no
    /// broadcast, and the caller's barrier publishes what `f` wrote.
    pub fn single_update(
        &self,
        scalars: &[SharedScalar<f64>],
        f: impl FnOnce(&ThreadCtx) -> Vec<f64>,
    ) -> Vec<f64> {
        let seq = self.single_seq.replace(self.single_seq.get() + 1);
        let gen = construct_gen(self.region_no, seq);
        let slot = (gen as usize) % SLOTS;
        if trace::enabled() {
            trace::begin(EventKind::OmpSingle, self.now());
        }
        let out = match self.rt.mode {
            ProtocolMode::Parade => {
                let mut sl = self.rt.singles[slot].lock();
                self.with_clock(|c| c.sync_to(sl.release_at));
                // Generations only grow, so a slot stamped past `gen` means a
                // node-mate lapped this thread by a multiple of SLOTS: this
                // generation was broadcast long ago and must not run again.
                if sl.done_gen < gen {
                    let mut buf = vec![0.0f64; scalars.len()];
                    if self.rt.node == 0 {
                        let vals = f(self);
                        assert_eq!(vals.len(), scalars.len(), "single value arity");
                        for (s, v) in scalars.iter().zip(&vals) {
                            self.rt.small().write_f64(s.small, 0, *v);
                        }
                        buf.copy_from_slice(&vals);
                    }
                    // Nothing to propagate: the caller's barrier, if any,
                    // is all the other nodes wait for.
                    if !scalars.is_empty() {
                        self.with_clock(|c| self.rt.comm.bcast_f64s(0, &mut buf, c));
                    }
                    if self.rt.node != 0 {
                        for (s, v) in scalars.iter().zip(&buf) {
                            self.rt.small().write_f64(s.small, 0, *v);
                        }
                    }
                    sl.done_gen = gen;
                }
                sl.release_at = self.with_clock(|c| c.now());
                drop(sl);
                scalars
                    .iter()
                    .map(|s| self.rt.small().read_f64(s.small, 0))
                    .collect()
            }
            ProtocolMode::SdsmOnly => {
                let lock_id = LOCK_SPACE_SINGLE + slot as u64;
                let flags = self.rt.flags;
                {
                    let mut sl = self.rt.singles[slot].lock();
                    self.with_clock(|c| c.sync_to(sl.release_at));
                    if sl.done_gen < gen {
                        self.with_clock(|c| self.rt.dsm.lock_acquire(lock_id, c));
                        let flag: u64 = self.with_clock(|c| self.rt.dsm.read(flags, slot * 8, c));
                        if flag < gen {
                            let vals = f(self);
                            assert_eq!(vals.len(), scalars.len(), "single value arity");
                            self.with_clock(|c| {
                                for (s, v) in scalars.iter().zip(&vals) {
                                    self.rt.dsm.write(s.region, 0, *v, c);
                                }
                                self.rt.dsm.write(flags, slot * 8, gen, c);
                            });
                        }
                        self.with_clock(|c| self.rt.dsm.lock_release(lock_id, c));
                        sl.done_gen = gen;
                    }
                    sl.release_at = self.with_clock(|c| c.now());
                }
                // Conventional lowering needs the barrier for consistency.
                self.barrier();
                scalars
                    .iter()
                    .map(|s| self.with_clock(|c| self.rt.dsm.read(s.region, 0, c)))
                    .collect()
            }
        };
        if trace::enabled() {
            trace::end(EventKind::OmpSingle, self.now());
        }
        out
    }

    /// Store to a shared scalar from *inside* a sanctioned update construct
    /// (the body of a `single` or an analyzable `critical`): the construct
    /// itself propagates the value, so this writes only the local
    /// representation (the node's update-protocol copy in Parade mode, the
    /// DSM page in the baseline — where the caller already holds the
    /// construct's lock).
    pub fn scalar_set_in_construct(&self, s: &SharedScalar<f64>, v: f64) {
        match self.rt.mode {
            ProtocolMode::Parade => self.rt.small().write_f64(s.small, 0, v),
            ProtocolMode::SdsmOnly => self.with_clock(|c| self.rt.dsm.write(s.region, 0, v, c)),
        }
    }

    /// `master` directive: only the global master thread executes.
    pub fn master(&self, f: impl FnOnce(&ThreadCtx)) {
        if self.thread_num() == 0 {
            f(self);
        }
    }
}

/// Evenly partition `range` into `n` contiguous blocks; return block `i`.
pub fn partition(range: Range<usize>, n: usize, i: usize) -> Range<usize> {
    let len = range.end.saturating_sub(range.start);
    let q = len / n;
    let r = len % n;
    let start = range.start + i * q + i.min(r);
    let size = q + usize::from(i < r);
    start..(start + size)
}

enum DynPolicy {
    Fixed(usize),
    Guided(usize),
}

/// Iterator over a thread's `schedule(static, chunk)` chunks.
pub struct StaticChunks {
    next: usize,
    end: usize,
    stride: usize,
    chunk: usize,
}

impl Iterator for StaticChunks {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        if self.next >= self.end {
            return None;
        }
        let start = self.next;
        let stop = (start + self.chunk).min(self.end);
        self.next += self.stride;
        Some(start..stop)
    }
}

/// A shared vector bound to a thread context for ergonomic access.
pub struct BoundVec<'t, T: Pod> {
    tc: &'t ThreadCtx,
    v: SharedVec<T>,
}

impl<'t, T: Pod> BoundVec<'t, T> {
    pub fn len(&self) -> usize {
        self.v.len()
    }

    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    pub fn get(&self, i: usize) -> T {
        self.tc.get(&self.v, i)
    }

    pub fn set(&self, i: usize, val: T) {
        self.tc.set(&self.v, i, val)
    }

    pub fn read_into(&self, first: usize, out: &mut [T]) {
        self.tc.read_into(&self.v, first, out)
    }

    pub fn write_from(&self, first: usize, src: &[T]) {
        self.tc.write_from(&self.v, first, src)
    }

    /// Elements `range` in place, see [`ThreadCtx::view`].
    pub fn view<R>(&self, range: Range<usize>, f: impl FnOnce(&[T]) -> R) -> R {
        self.tc.view(&self.v, range, f)
    }
}

/// Scalar primitives supported by [`SharedScalar`] fast reads.
pub trait ScalarPrim: Pod {
    fn small_read(reg: &parade_dsm::SmallRegistry, s: &SharedScalar<Self>) -> Self;
}

impl ScalarPrim for f64 {
    fn small_read(reg: &parade_dsm::SmallRegistry, s: &SharedScalar<f64>) -> f64 {
        reg.read_f64(s.small, 0)
    }
}

impl ScalarPrim for i64 {
    fn small_read(reg: &parade_dsm::SmallRegistry, s: &SharedScalar<i64>) -> i64 {
        reg.read_i64(s.small, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_exactly_without_overlap() {
        for (len, n) in [(10, 3), (0, 4), (7, 7), (5, 8), (100, 1)] {
            let mut covered = Vec::new();
            for i in 0..n {
                let r = partition(3..3 + len, n, i);
                covered.extend(r);
            }
            assert_eq!(covered, (3..3 + len).collect::<Vec<_>>(), "len={len} n={n}");
        }
    }

    #[test]
    fn partition_is_balanced() {
        for i in 0..4 {
            let r = partition(0..10, 4, i);
            let sz = r.end - r.start;
            assert!((2..=3).contains(&sz));
        }
    }

    #[test]
    fn static_chunks_interleave() {
        // 2 threads, chunk 2, range 0..10: thread 0 gets [0..2, 4..6, 8..10].
        let it = StaticChunks {
            next: 0,
            end: 10,
            stride: 4,
            chunk: 2,
        };
        let got: Vec<_> = it.collect();
        assert_eq!(got, vec![0..2, 4..6, 8..10]);
    }
}
