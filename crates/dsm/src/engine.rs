//! The per-node DSM engine: fault handling, flushes, barriers, and
//! distributed locks — everything executed by *application* threads.
//!
//! The communication-thread side (serving page requests, merging diffs,
//! the barrier master, the lock manager) lives in [`crate::server`].

use std::cell::UnsafeCell;
use std::collections::{BTreeMap, HashMap};
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};

use parade_net::sync::{Condvar, Mutex, MutexGuard};

use parade_net::{Endpoint, Match, MsgClass, Packet, VClock, VTime};
use parade_trace::{self as trace, EventKind};

use crate::bufpool::PageBuf;
use crate::config::{DsmConfig, HomePolicy};
use crate::diff::Diff;
use crate::msg::{DsmMsg, DsmReply, PageReq, REPLY_TAG_BASE};
use crate::page::{PageId, PageState, PAGE_SIZE};
use crate::smalldata::SmallRegistry;
use crate::stats::DsmStats;
use crate::store::{AllocError, PageSets, RawPool, RegionAllocator, RegionHandle};

/// Upper bound on pages coalesced into one fetch when a bulk access faults a
/// run of contiguous pages with a common home.
const MAX_FETCH_RANGE: usize = 16;

pub(crate) struct PageMeta {
    pub(crate) inner: Mutex<PageInner>,
    pub(crate) cv: Condvar,
    /// Lock-free mirror of the page state for the access fast path.
    pub(crate) fast: AtomicU8,
}

pub(crate) struct PageInner {
    pub(crate) state: PageState,
    /// Pristine copy made at the first write of an interval (non-home
    /// only); pooled, so clearing it recycles the buffer.
    pub(crate) twin: Option<PageBuf>,
    /// This node is the page's new home and waits for the old home to push
    /// the merged content (multi-writer migration).
    pub(crate) awaiting_push: bool,
    /// Barrier sequence whose push the park waits for. A page can be
    /// re-parked at interval N+1 while the push for interval N is still in
    /// flight (nothing on this node touched the page in between, so no
    /// thread blocked and the barrier completed); the stale push must
    /// refresh the bytes without unparking the newer wait.
    pub(crate) awaiting_seq: u64,
    /// `barrier_seq + 1` of the last applied push (0 = never) — resolves
    /// the race between a push arriving and the departure being applied.
    pub(crate) pushed_seq: u64,
}

impl PageMeta {
    fn new(state: PageState) -> Self {
        PageMeta {
            inner: Mutex::new(PageInner {
                state,
                twin: None,
                awaiting_push: false,
                awaiting_seq: 0,
                pushed_seq: 0,
            }),
            cv: Condvar::new(),
            fast: AtomicU8::new(state as u8),
        }
    }

    pub(crate) fn set_state(&self, inner: &mut PageInner, next: PageState) {
        debug_assert!(
            inner.state == next || inner.state.can_transition(next),
            "illegal page transition {:?} -> {:?}",
            inner.state,
            next
        );
        inner.state = next;
        self.fast.store(next as u8, Ordering::Release);
    }
}

/// The page table: room for one entry per pool page, built only as far as
/// regions have been allocated ([`Dsm::alloc_region`] extends it). A
/// launch constructs, and a teardown drops, entries for the pages its
/// regions cover, not for all 16 384 of a default pool; memory past the
/// built extent is never touched, so the OS never commits it.
///
/// Indexing past the extent panics naming the page and the extent: a page
/// no region of this node covers is a protocol bug (or a corrupt request),
/// and it fails the run like any other.
pub(crate) struct PageTable {
    /// `..extent` initialised; the rest reserved, never read or written
    /// except by [`PageTable::grow`].
    slots: Box<[UnsafeCell<MaybeUninit<PageMeta>>]>,
    /// Entries constructed so far. Stored with `Release` once they are, and
    /// loaded with `Acquire` before one is handed out.
    extent: AtomicUsize,
}

// SAFETY: entries below `extent` are only ever shared (`&PageMeta`, which is
// `Sync`), and they were fully written before the `Release` store of `extent`
// that the indexing side's `Acquire` load pairs with. Entries at or past
// `extent` are touched by `grow` alone, whose caller guarantees it is the
// only thread growing the table, and no reader can reach them.
unsafe impl Sync for PageTable {}

impl PageTable {
    fn new(pages: usize) -> PageTable {
        let raw = Box::into_raw(Box::<[PageMeta]>::new_uninit_slice(pages));
        // SAFETY: `UnsafeCell<T>` is `repr(transparent)` over `T`, so the
        // slice has the same layout either way; ownership moves exactly once.
        let slots = unsafe { Box::from_raw(raw as *mut [UnsafeCell<MaybeUninit<PageMeta>>]) };
        PageTable {
            slots,
            extent: AtomicUsize::new(0),
        }
    }

    /// Number of entries built: every page of every region allocated.
    #[inline]
    pub(crate) fn extent(&self) -> usize {
        self.extent.load(Ordering::Acquire)
    }

    /// Construct the entries up to page `to` (exclusive) and publish them.
    ///
    /// # Safety
    /// No other thread may be growing the table concurrently (the caller
    /// holds the region allocator's lock).
    unsafe fn grow(&self, to: usize) {
        let from = self.extent.load(Ordering::Relaxed);
        for slot in &self.slots[from..to] {
            // SAFETY: `slot` is at or past the extent, so no reader can
            // reach it, and the caller is the only writer.
            unsafe { (*slot.get()).write(PageMeta::new(PageState::ReadOnly)) };
        }
        self.extent.store(to, Ordering::Release);
    }

    /// The built entries.
    pub(crate) fn built(&self) -> &[PageMeta] {
        let built = self.extent();
        // SAFETY: the first `built` slots are in bounds, initialised and
        // published (see `Sync` above), and `UnsafeCell<MaybeUninit<T>>` has
        // the layout of `T`.
        unsafe { std::slice::from_raw_parts(self.slots.as_ptr().cast::<PageMeta>(), built) }
    }
}

impl std::ops::Index<PageId> for PageTable {
    type Output = PageMeta;

    #[inline]
    fn index(&self, page: PageId) -> &PageMeta {
        let built = self.extent();
        if page >= built {
            past_extent(page, built);
        }
        // SAFETY: below `built`, so in bounds (`grow` slices `slots` before
        // it publishes an extent), initialised and published.
        unsafe { (*self.slots.get_unchecked(page).get()).assume_init_ref() }
    }
}

/// Out of line, so the access fast path inlines only a compare.
#[cold]
#[inline(never)]
fn past_extent(page: PageId, built: usize) -> ! {
    panic!(
        "page {page} is past the page table's extent of {built} pages \
         (no region this node allocated covers it)"
    )
}

impl Drop for PageTable {
    fn drop(&mut self) {
        let built = *self.extent.get_mut();
        for slot in &mut self.slots[..built] {
            // SAFETY: initialised, and dropped exactly once, here.
            unsafe { slot.get_mut().assume_init_drop() };
        }
    }
}

/// The software distributed shared memory of one node.
///
/// One `Dsm` instance exists per simulated node; all of the node's compute
/// threads and its communication thread share it.
pub struct Dsm {
    node: usize,
    nnodes: usize,
    cfg: DsmConfig,
    pub(crate) pool: RawPool,
    pub(crate) pages: PageTable,
    /// Current home of every page (kept identical on all nodes; updated in
    /// lockstep at barrier departures). Zero, node 0, is every page's
    /// initial home, so the table is a zeroed allocation: for a large pool
    /// a lazily committed mapping, like the pool itself.
    pub(crate) homes: Box<[AtomicU32]>,
    alloc: Mutex<RegionAllocator>,
    pub(crate) ep: Endpoint,
    pub stats: DsmStats,
    reply_tag: AtomicU64,
    /// Interval bookkeeping, one bit per page: the DIRTY set (pending
    /// diffs at the next release), the barrier write notices (superset of
    /// dirty — also pages already flushed at lock releases), and the
    /// interval's read observations (pages fetched from remote homes — the
    /// sharer evidence shipped with barrier arrivals).
    pub(crate) sets: PageSets,
    /// Per-lock: last notice sequence this node has seen.
    lock_seen: Mutex<HashMap<u64, u64>>,
    barrier_seq: AtomicU64,
    pub(crate) server: Mutex<crate::server::ServerState>,
    small: SmallRegistry,
}

impl Drop for Dsm {
    fn drop(&mut self) {
        // Shared data lives in regions, and the pages past the last one
        // are never fetched into, pushed or written.
        let allocated = self.alloc.get_mut().allocated_bytes();
        self.pool.written_below(allocated);
    }
}

impl Dsm {
    /// Create the DSM instance for `ep`'s node. The master (node 0) is the
    /// initial home of every page, and every node's copy starts valid,
    /// `READ_ONLY` (§5.2.3 starts the others `INVALID`): pools are zero when
    /// allocated from ([`RawPool::new`]) and regions are never reused, so an
    /// unwritten page is zero everywhere (DESIGN.md, "Every copy starts valid").
    pub fn new(ep: Endpoint, cfg: DsmConfig) -> Self {
        let node = ep.id();
        let nnodes = ep.nodes();
        let npages = cfg.pool_bytes / PAGE_SIZE;
        let homes = Box::into_raw(vec![0u32; npages].into_boxed_slice());
        // SAFETY: `AtomicU32` has the size, alignment and bit validity of
        // `u32`; ownership moves exactly once.
        let homes = unsafe { Box::from_raw(homes as *mut [AtomicU32]) };
        Dsm {
            node,
            nnodes,
            cfg,
            pool: RawPool::new(npages * PAGE_SIZE),
            pages: PageTable::new(npages),
            homes,
            alloc: Mutex::new(RegionAllocator::new()),
            ep,
            stats: DsmStats::default(),
            reply_tag: AtomicU64::new(REPLY_TAG_BASE),
            sets: PageSets::new(npages),
            lock_seen: Mutex::new(HashMap::new()),
            barrier_seq: AtomicU64::new(0),
            server: Mutex::new(crate::server::ServerState::default()),
            small: SmallRegistry::new(),
        }
    }

    pub fn node(&self) -> usize {
        self.node
    }

    pub fn nnodes(&self) -> usize {
        self.nnodes
    }

    pub fn config(&self) -> &DsmConfig {
        &self.cfg
    }

    pub fn small(&self) -> &SmallRegistry {
        &self.small
    }

    pub fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    pub fn home_of(&self, page: PageId) -> usize {
        self.homes[page].load(Ordering::Acquire) as usize
    }

    pub fn page_state(&self, page: PageId) -> PageState {
        PageState::from_u8(self.pages[page].fast.load(Ordering::Acquire))
    }

    pub(crate) fn next_reply_tag(&self) -> u64 {
        self.reply_tag.fetch_add(1, Ordering::Relaxed)
    }

    /// Fail-stop on a frame that does not decode: the panic names this
    /// node, the sender and the error, and is what the failed run reports.
    pub(crate) fn expect_frame<T, E: std::fmt::Display>(
        &self,
        pkt: &Packet,
        decoded: Result<T, E>,
    ) -> T {
        decoded.unwrap_or_else(|e| {
            panic!(
                "node {}: bad dsm frame from node {} on tag {:#x}: {e}",
                self.node, pkt.src, pkt.tag
            )
        })
    }

    fn decode_reply(&self, pkt: &Packet) -> DsmReply {
        self.expect_frame(
            pkt,
            DsmReply::try_decode(&pkt.payload, self.pages.extent(), self.nnodes),
        )
    }

    // ---- allocation ------------------------------------------------------

    /// Allocate a shared region, building the page-table entries of the
    /// pages it adds.
    ///
    /// Every node must perform the same sequence of allocations, and a node
    /// only ever names — in an access, a request, a diff, a write notice or
    /// a departure — pages of regions it has itself allocated: its page
    /// table ends at the last of them, and an index past that end panics.
    /// `parade-core`'s `MasterCtx` guarantees both by broadcasting every
    /// allocation, in program order, before the master makes it itself and
    /// before any parallel region that could use it.
    pub fn alloc_region(&self, len: usize) -> Result<RegionHandle, AllocError> {
        let mut alloc = self.alloc.lock();
        let h = alloc.alloc(len, self.pool.len())?;
        // SAFETY: growth happens only here, under the allocator lock.
        unsafe { self.pages.grow(alloc.allocated_bytes() / PAGE_SIZE) };
        Ok(h)
    }

    /// Allocate a small-data object (message-passing update protocol).
    pub fn alloc_small(&self, len: usize) -> crate::smalldata::SmallHandle {
        self.small.alloc(len)
    }

    pub fn region(&self, id: u32) -> Option<RegionHandle> {
        self.alloc.lock().get(id)
    }

    // ---- typed access (the software page-fault check) --------------------

    #[inline]
    fn check_bounds<T>(&self, h: RegionHandle, byte_off: usize) {
        debug_assert!(
            byte_off + std::mem::size_of::<T>() <= h.len,
            "shared access out of bounds: off {byte_off} size {} region {}",
            std::mem::size_of::<T>(),
            h.len
        );
        debug_assert_eq!(
            (h.offset + byte_off) / PAGE_SIZE,
            (h.offset + byte_off + std::mem::size_of::<T>() - 1) / PAGE_SIZE,
            "scalar access must not straddle a page boundary"
        );
    }

    /// Read a scalar from shared memory, faulting the page in if necessary.
    #[inline]
    pub fn read<T: Copy>(&self, h: RegionHandle, byte_off: usize, clock: &mut VClock) -> T {
        self.check_bounds::<T>(h, byte_off);
        let off = h.offset + byte_off;
        let page = off / PAGE_SIZE;
        if self.pages[page].fast.load(Ordering::Acquire) < PageState::ReadOnly as u8 {
            self.read_fault(page, clock);
        }
        // SAFETY: the page is readable per the page table; bounds checked.
        unsafe { self.pool.read(off) }
    }

    /// Write a scalar to shared memory, faulting for write if necessary.
    ///
    /// Stores hold the page's table entry lock: a sibling thread may
    /// concurrently *flush* the page (lock release), snapshotting its
    /// contents for the diff and downgrading it to READ_ONLY — a store
    /// racing with that snapshot would never reach the home (the
    /// multi-threaded-SDSM release race, the store-side cousin of §5.1's
    /// atomic page update problem). The per-page lock makes the snapshot
    /// and the store mutually exclusive.
    #[inline]
    pub fn write<T: Copy>(&self, h: RegionHandle, byte_off: usize, v: T, clock: &mut VClock) {
        self.check_bounds::<T>(h, byte_off);
        let off = h.offset + byte_off;
        let page = off / PAGE_SIZE;
        let _held = self.lock_writable(page, clock);
        // SAFETY: the page is writable per the page table (held locked);
        // bounds checked.
        unsafe { self.pool.write(off, v) }
    }

    /// Lock `page`'s table entry with the page DIRTY, faulting for write
    /// first if it is not: one acquisition covers the probe, the fault and
    /// the caller's store.
    #[inline]
    fn lock_writable(&self, page: PageId, clock: &mut VClock) -> MutexGuard<'_, PageInner> {
        let inner = self.pages[page].inner.lock();
        if inner.state == PageState::Dirty {
            inner
        } else {
            self.write_fault(page, inner, clock)
        }
    }

    /// `len` elements of `T` starting at element `first`, read where they
    /// live: every covered page is faulted in exactly as a bulk read of the
    /// range would (same fetches, trace events and virtual-time charges),
    /// then the pool's own bytes are handed out — no copy.
    ///
    /// A view is good for one interval. The pages under it stay readable
    /// until this node next applies write notices (a barrier departure or a
    /// lock grant), which may invalidate them and
    /// let a later fetch overwrite the bytes: nothing here checks that, the
    /// caller must let go of the slice first (`parade-core`'s `view`
    /// closures turn a barrier or lock inside one into a panic). Nor may
    /// the caller store into the range it is viewing.
    ///
    /// There is no mutable counterpart: a store holds its page's entry lock
    /// against a sibling's release-time flush (see [`Dsm::write`]), and a
    /// `&mut [T]` over hundreds of pages would hold hundreds of them for as
    /// long as it lived — against the communication thread, and so against
    /// a remote fetch this very thread may be waiting on.
    pub fn view<'a, T: Copy>(
        &'a self,
        h: RegionHandle,
        first: usize,
        len: usize,
        clock: &mut VClock,
    ) -> &'a [T] {
        let esz = std::mem::size_of::<T>();
        assert!(
            first
                .checked_add(len)
                .and_then(|end| end.checked_mul(esz))
                .is_some_and(|end| end <= h.len),
            "shared view out of bounds: elements {first}..+{len} of {esz} bytes in a region of {}",
            h.len
        );
        if len == 0 {
            return &[];
        }
        let start = h.offset + first * esz;
        self.ensure_readable(start, len * esz, clock);
        // SAFETY: all covered pages are readable; bounds checked above.
        unsafe { self.pool.slice(start, len) }
    }

    /// Bulk-read `out.len()` elements starting at element `first` (of size
    /// `size_of::<T>()`): a copy out of [`Dsm::view`].
    pub fn read_slice<T: Copy>(
        &self,
        h: RegionHandle,
        first: usize,
        out: &mut [T],
        clock: &mut VClock,
    ) {
        out.copy_from_slice(self.view(h, first, out.len(), clock));
    }

    /// Bulk-write elements starting at element `first`. Applies the same
    /// flush-vs-store exclusion as [`Dsm::write`], page by page.
    pub fn write_slice<T: Copy>(
        &self,
        h: RegionHandle,
        first: usize,
        src: &[T],
        clock: &mut VClock,
    ) {
        if src.is_empty() {
            return;
        }
        let esz = std::mem::size_of::<T>();
        let start = h.offset + first * esz;
        let len = std::mem::size_of_val(src);
        assert!(
            first * esz + len <= h.len,
            "shared slice write out of bounds"
        );
        // SAFETY (for the block below): the touched page is writable per
        // the page table, whose entry lock is held across the store so a
        // concurrent flush snapshot cannot interleave.
        let bytes = unsafe { std::slice::from_raw_parts(src.as_ptr() as *const u8, len) };
        let mut off = start;
        let mut rel = 0usize;
        while rel < len {
            let page = off / PAGE_SIZE;
            let page_end = (page + 1) * PAGE_SIZE;
            let chunk = (page_end - off).min(len - rel);
            let held = self.lock_writable(page, clock);
            unsafe { self.pool.write_bytes(off, &bytes[rel..rel + chunk]) };
            drop(held);
            off += chunk;
            rel += chunk;
        }
    }

    /// Snapshot an entire region's bytes (a barrier-time page checkpoint).
    ///
    /// Goes through the normal coherent read path, so the checkpoint
    /// observes exactly what a serial reader at this point would — call it
    /// at an interval boundary (after [`Dsm::barrier`]) and the snapshot is
    /// a consistent cut the serving layer can re-home a failed job from.
    pub fn checkpoint_region(&self, h: RegionHandle, clock: &mut VClock) -> Vec<u8> {
        let mut out = vec![0u8; h.len];
        self.read_slice::<u8>(h, 0, &mut out, clock);
        self.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.stats
            .checkpoint_bytes
            .fetch_add(h.len as u64, Ordering::Relaxed);
        out
    }

    /// Write a checkpoint taken by [`Dsm::checkpoint_region`] back into the
    /// region (after a re-home, on the replacement cluster).
    pub fn restore_region(&self, h: RegionHandle, data: &[u8], clock: &mut VClock) {
        assert_eq!(
            data.len(),
            h.len,
            "checkpoint length does not match region length"
        );
        self.write_slice::<u8>(h, 0, data, clock);
        self.stats.restores.fetch_add(1, Ordering::Relaxed);
        self.stats
            .restore_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
    }

    /// Fault in every page covering `start .. start+len` for reading.
    ///
    /// With a safe update strategy, runs of up to `MAX_FETCH_RANGE` (16)
    /// contiguous INVALID pages sharing a home are claimed together and
    /// fetched in one round trip instead of one per page — the bulk-access
    /// fault storm a Helmholtz/CG sweep would otherwise pay per page. The
    /// torn-page model of `NaiveUnsafe` installs strictly per page, so it
    /// claims runs of one.
    pub fn ensure_readable(&self, start: usize, len: usize, clock: &mut VClock) {
        let max_run = if self.cfg.update_strategy.is_safe() {
            MAX_FETCH_RANGE
        } else {
            1
        };
        let pages = crate::page::pages_covering(start, len);
        let (mut page, last) = (*pages.start(), *pages.end());
        while page <= last {
            let first = page;
            if self.pages[first].fast.load(Ordering::Acquire) >= PageState::ReadOnly as u8 {
                page += 1;
                continue;
            }
            let home = self.home_of(first);
            if home == self.node {
                // A home copy is never INVALID; the fast flag must have
                // been racing with a migration. Take the ordinary path.
                self.read_fault(first, clock);
                page += 1;
                continue;
            }
            // Claim a run of contiguous INVALID pages with the same home.
            // Claiming marks each TRANSIENT (we own its update); a page
            // that is not INVALID at lock time ends the run.
            let mut claimed = 0usize;
            while page <= last && claimed < max_run {
                if self.home_of(page) != home {
                    break;
                }
                let meta = &self.pages[page];
                let mut inner = meta.inner.lock();
                if inner.state != PageState::Invalid {
                    break;
                }
                meta.set_state(&mut inner, PageState::Transient);
                drop(inner);
                claimed += 1;
                page += 1;
            }
            if claimed == 0 {
                // Readable already, or mid-update by a sibling thread:
                // read_fault waits it out.
                self.read_fault(first, clock);
                page += 1;
                continue;
            }
            self.stats
                .read_faults
                .fetch_add(claimed as u64, Ordering::Relaxed);
            // A run is traced by its `DsmRangeFetch` instant, a lone page
            // like any other read fault.
            if claimed == 1 {
                trace::instant(EventKind::DsmReadFault, first as u64, clock.now());
            }
            self.fetch_pages(first, claimed, clock);
            for p in first..first + claimed {
                drop(self.complete_update(p));
            }
        }
    }

    /// Wake every thread parked on a page condvar. Called by the
    /// communication thread as it exits on fabric shutdown: a parked
    /// compute thread is waiting for a protocol step (atomic page update,
    /// re-home push) that can no longer arrive, and must be released to
    /// observe the shutdown.
    ///
    /// Every waiter parks with its page `BLOCKED` (see `Dsm::park`), so
    /// only those pages are visited: a notify nobody waits for is free (the
    /// condvar counts its waiters) but must be made under the page lock,
    /// and an allocated pool can have thousands of those. Pages past the
    /// table's extent belong to no region, so nobody waits on them.
    pub fn wake_page_waiters(&self) {
        // Pairs with the fence in `park`: a waiter this scan does not see
        // as BLOCKED sees the shutdown this thread is exiting on.
        fence(Ordering::SeqCst);
        for meta in self.pages.built() {
            if meta.fast.load(Ordering::Acquire) == PageState::Blocked as u8 {
                let _g = meta.inner.lock();
                meta.cv.notify_all();
            }
        }
    }

    /// Sleep on a `BLOCKED` page until its update completes.
    ///
    /// Fails fast when the fabric has already shut down (fail-stop): a page
    /// wait entered then can never be satisfied. The state is published
    /// before the shutdown flag is read, with a fence in between and its
    /// twin in [`Dsm::wake_page_waiters`]: either that scan sees this page
    /// `BLOCKED` and notifies it (it takes the page lock, which this thread
    /// holds until it sleeps), or this thread sees the shutdown.
    fn park(&self, meta: &PageMeta, inner: &mut MutexGuard<'_, PageInner>) {
        debug_assert_eq!(inner.state, PageState::Blocked);
        fence(Ordering::SeqCst);
        if self.ep.fabric().is_shutdown() {
            panic!("dsm page wait after shutdown");
        }
        self.stats.update_waits.fetch_add(1, Ordering::Relaxed);
        meta.cv.wait(inner);
    }

    /// Publish a fetched page: the caller owned the TRANSIENT transition;
    /// waiters that piled on (BLOCKED) are woken. Only the fetch holder
    /// may complete the update; other threads can at most pile on
    /// (TRANSIENT -> BLOCKED). Hands back the page entry, READ_ONLY.
    fn complete_update(&self, page: PageId) -> MutexGuard<'_, PageInner> {
        let meta = &self.pages[page];
        let mut inner = meta.inner.lock();
        debug_assert!(
            matches!(inner.state, PageState::Transient | PageState::Blocked),
            "fetch holder lost page {page}: {:?}",
            inner.state
        );
        let had_waiters = inner.state == PageState::Blocked;
        meta.set_state(&mut inner, PageState::ReadOnly);
        if had_waiters {
            meta.cv.notify_all();
        }
        inner
    }

    // ---- fault handling (§5.2.3 + §5.1) -----------------------------------

    /// The read-fault path of the SIGSEGV handler analogue.
    fn read_fault(&self, page: PageId, clock: &mut VClock) {
        self.stats.read_faults.fetch_add(1, Ordering::Relaxed);
        trace::instant(EventKind::DsmReadFault, page as u64, clock.now());
        drop(self.fault_in(page, self.pages[page].inner.lock(), clock));
    }

    /// The write-fault path: ensures a valid page, makes a twin (unless we
    /// are the home — homes merge diffs directly into their copy and need
    /// no twin), and marks the page DIRTY with a write notice. Takes the
    /// caller's hold on the page entry and hands it back with the page
    /// DIRTY, so the faulting store cannot lose a race with a sibling's
    /// flush between the fault and the store.
    fn write_fault<'a>(
        &'a self,
        page: PageId,
        inner: MutexGuard<'a, PageInner>,
        clock: &mut VClock,
    ) -> MutexGuard<'a, PageInner> {
        self.stats.write_faults.fetch_add(1, Ordering::Relaxed);
        trace::instant(EventKind::DsmWriteFault, page as u64, clock.now());
        let mut inner = self.fault_in(page, inner, clock);
        if inner.state == PageState::ReadOnly {
            if self.home_of(page) != self.node {
                let mut twin = PageBuf::take();
                // SAFETY: page is valid (ReadOnly) and we hold the page
                // lock; concurrent word writes by the application would be
                // its own race either way.
                unsafe { self.pool.copy_page_out(page, &mut twin) };
                inner.twin = Some(twin);
                self.stats.twins_created.fetch_add(1, Ordering::Relaxed);
                trace::instant(EventKind::DsmTwin, page as u64, clock.now());
            }
            self.pages[page].set_state(&mut inner, PageState::Dirty);
            self.sets.mark_written(page);
        }
        inner
    }

    /// Make `page` readable, starting from and handing back the caller's
    /// hold on its entry: wait out a sibling's update, or claim the page
    /// (TRANSIENT) and fetch it from its home.
    fn fault_in<'a>(
        &'a self,
        page: PageId,
        mut inner: MutexGuard<'a, PageInner>,
        clock: &mut VClock,
    ) -> MutexGuard<'a, PageInner> {
        let meta = &self.pages[page];
        loop {
            match inner.state {
                PageState::ReadOnly | PageState::Dirty => return inner,
                PageState::Transient | PageState::Blocked => {
                    // Another thread is updating: mark that it has waiters
                    // and sleep — the §5.1 atomic-page-update machinery.
                    meta.set_state(&mut inner, PageState::Blocked);
                    self.park(meta, &mut inner);
                }
                PageState::Invalid => {
                    meta.set_state(&mut inner, PageState::Transient);
                    drop(inner);
                    self.fetch_pages(page, 1, clock);
                    return self.complete_update(page);
                }
            }
        }
    }

    /// Fetch `count` contiguous pages homed on one node in a single round
    /// trip and install them through the "system path" while application
    /// threads are held off by the TRANSIENT state. Caller owns the
    /// TRANSIENT transition of every page in the range.
    fn fetch_pages(&self, first: PageId, count: usize, clock: &mut VClock) {
        trace::begin_arg(EventKind::DsmFetch, first as u64, clock.now());
        // Concurrent faulters may have piled on (BLOCKED) but cannot
        // advance a page further.
        debug_assert!(
            (first..first + count).all(|p| matches!(
                self.page_state(p),
                PageState::Transient | PageState::Blocked
            )),
            "fetch without owning the update for pages {first}..+{count}"
        );
        let home = self.home_of(first);
        assert_ne!(
            home, self.node,
            "page {first} INVALID on its own home node {}",
            self.node
        );
        let tag = self.next_reply_tag();
        if count > 1 {
            trace::instant(EventKind::DsmRangeFetch, count as u64, clock.now());
        }
        let req = DsmMsg::ReqPages(PageReq {
            first,
            count: count as u32,
            requester: self.node,
            reply_tag: tag,
        });
        self.ep.send(home, MsgClass::Dsm, 0, req.encode(), clock);
        let pkt = self
            .ep
            .recv(MsgClass::Ctl, Match::tagged(tag), clock)
            .expect("fetch reply after shutdown");
        let DsmReply::Pages {
            first: replied,
            data,
        } = self.decode_reply(&pkt)
        else {
            unreachable!("unexpected reply to page request");
        };
        assert_eq!(replied, first);
        assert_eq!(data.len(), count * PAGE_SIZE, "short page reply");
        self.stats
            .page_fetches
            .fetch_add(count as u64, Ordering::Relaxed);
        if count > 1 {
            self.stats.range_fetches.fetch_add(1, Ordering::Relaxed);
            self.stats
                .range_fetch_pages
                .fetch_add(count as u64, Ordering::Relaxed);
        }
        self.stats
            .fetch_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        // A fetched copy makes this node a sharer of the page; the read
        // set rides the next barrier arrival into the protocol table.
        for p in first..first + count {
            self.sets.mark_read(p);
        }
        let per_page = self.cfg.update_strategy.per_update_overhead();
        clock.charge_comm(VTime::from_nanos(per_page.as_nanos() * count as u64));
        if self.cfg.update_strategy.is_safe() {
            for (k, page) in data.chunks_exact(PAGE_SIZE).enumerate() {
                // SAFETY: we hold the TRANSIENT transition for every page
                // in the range, so the system path installs the copy
                // before any reader gets through.
                unsafe { self.pool.copy_page_in(first + k, page) };
            }
        } else {
            // NaiveUnsafe: simulate a conventional single-threaded SDSM
            // that makes the page accessible *before* the copy finishes —
            // other threads' fast paths will read a torn page. The store
            // deliberately bypasses `set_state` (and so the
            // `can_transition` discipline): publishing READ_ONLY out of
            // the fast flag while `inner.state` is still TRANSIENT *is*
            // the modelled bug.
            debug_assert_eq!(count, 1, "the torn-page model is per page");
            self.pages[first]
                .fast
                .store(PageState::ReadOnly as u8, Ordering::Release);
            let start = first * PAGE_SIZE;
            for (i, chunk) in data.chunks(256).enumerate() {
                // SAFETY: bounds are within the page.
                unsafe { self.pool.write_bytes(start + i * 256, chunk) };
                std::thread::yield_now();
            }
        }
        trace::end(EventKind::DsmFetch, clock.now());
    }

    // ---- release operations ----------------------------------------------

    /// Flush all dirty pages: compute diffs against twins, group them by
    /// home, ship one `DiffBatch` per destination node, wait for one ack
    /// per batch, downgrade to READ_ONLY. Returns the list of flushed
    /// pages (the release's write notices).
    pub fn flush(&self, clock: &mut VClock) -> Vec<PageId> {
        let (dirty, held) = self.flush_holding(false, clock);
        debug_assert!(held.is_empty());
        dirty
    }

    /// [`Dsm::flush`], except that with `hold_fresh` the diff of a fresh
    /// page (one no departure has named, so still homed on node 0) is
    /// handed back instead of shipped: the departure decides whether it
    /// goes anywhere (see [`Dsm::settle_fresh`]). Held diffs come back
    /// ascending by page.
    fn flush_holding(
        &self,
        hold_fresh: bool,
        clock: &mut VClock,
    ) -> (Vec<PageId>, Vec<(PageId, Diff)>) {
        trace::begin(EventKind::DsmFlush, clock.now());
        // The drain returns pages ascending, so diff batch layout and
        // fabric-level send order are deterministic.
        let dirty: Vec<PageId> = self.sets.drain_dirty();
        let mut by_home: BTreeMap<usize, (Vec<PageId>, Vec<Diff>)> = BTreeMap::new();
        let mut held = Vec::new();
        for &page in &dirty {
            let meta = &self.pages[page];
            let mut inner = meta.inner.lock();
            debug_assert_eq!(inner.state, PageState::Dirty);
            let home = self.home_of(page);
            if home != self.node {
                let twin = inner
                    .twin
                    .take()
                    .expect("dirty non-home page must have a twin");
                let mut cur = PageBuf::take();
                // SAFETY: page is valid; we hold the page lock.
                unsafe { self.pool.copy_page_out(page, &mut cur) };
                let diff = Diff::create(&twin, &cur);
                meta.set_state(&mut inner, PageState::ReadOnly);
                drop(inner);
                if !diff.is_empty() {
                    if hold_fresh && !self.sets.is_named(page) {
                        held.push((page, diff));
                    } else {
                        let (pages, diffs) = by_home.entry(home).or_default();
                        pages.push(page);
                        diffs.push(diff);
                    }
                }
            } else {
                // Home copy already contains our writes.
                meta.set_state(&mut inner, PageState::ReadOnly);
            }
        }
        // Wait for all diffs to be merged before the release completes
        // (ensures barrier arrival implies diff visibility at homes).
        let pending_acks = self.ship_diffs(by_home, clock);
        self.await_diff_acks(&pending_acks, clock);
        trace::end(EventKind::DsmFlush, clock.now());
        (dirty, held)
    }

    /// Ship grouped diffs: one `DiffBatch` message (answered by one ack)
    /// per destination home. Returns the reply tags to wait on.
    ///
    /// Counters are bumped only after the fabric accepts a message, so a
    /// fail-stopped link cannot over-count `diffs_sent`.
    fn ship_diffs(
        &self,
        by_home: BTreeMap<usize, (Vec<PageId>, Vec<Diff>)>,
        clock: &mut VClock,
    ) -> Vec<u64> {
        let mut pending = Vec::new();
        for (home, (pages, diffs)) in by_home {
            let payload: u64 = diffs.iter().map(|d| d.payload_bytes() as u64).sum();
            let tag = self.next_reply_tag();
            let npages = pages.len() as u64;
            for d in &diffs {
                trace::instant(EventKind::DsmDiff, d.payload_bytes() as u64, clock.now());
            }
            let msg = DsmMsg::DiffBatch {
                requester: self.node,
                reply_tag: tag,
                pages,
                diffs,
            };
            let wire = msg.encode();
            let wire_len = wire.len() as u64;
            if let Err(e) = self.ep.send_checked(home, MsgClass::Dsm, 0, wire, clock) {
                panic!("{e}");
            }
            self.stats.diffs_sent.fetch_add(npages, Ordering::Relaxed);
            self.stats.diff_batches.fetch_add(1, Ordering::Relaxed);
            self.stats.diff_bytes.fetch_add(wire_len, Ordering::Relaxed);
            self.stats
                .diff_payload_bytes
                .fetch_add(payload, Ordering::Relaxed);
            trace::instant(EventKind::DsmDiffBatch, npages, clock.now());
            pending.push(tag);
        }
        pending
    }

    fn await_diff_acks(&self, tags: &[u64], clock: &mut VClock) {
        for &tag in tags {
            let _ = self
                .ep
                .recv(MsgClass::Ctl, Match::tagged(tag), clock)
                .expect("diff ack after shutdown");
        }
    }

    // ---- barrier (§5.2.2) --------------------------------------------------

    /// Whether this node wrote a shared page since its last barrier: the
    /// interval's write notices are non-empty. Read-only; the next
    /// [`Dsm::barrier`] still advertises and takes them. A barrier at which
    /// no node wrote would carry no notice, invalidate nothing and move no
    /// home, which is what lets a caller that knows every node's answer
    /// skip it.
    pub fn interval_wrote(&self) -> bool {
        self.sets.any_notice()
    }

    /// Inter-node barrier with HLRC release semantics: flush, send write
    /// notices piggybacked on the arrival message, apply the departure's
    /// invalidations and home migrations.
    ///
    /// Exactly one thread per node may call this at a time (the cluster
    /// layer funnels through the node's elected representative: whichever
    /// thread reaches the node barrier last calls it from inside it).
    ///
    /// Returns whether the departure carried any entry, that is whether
    /// some node wrote a shared page since the last barrier. Every member
    /// receives the same departure, so every node gets the same answer.
    pub fn barrier(&self, clock: &mut VClock) -> bool {
        trace::begin(EventKind::DsmBarrier, clock.now());
        let (_, held) = self.flush_holding(self.holds_fresh_diffs(), clock);
        let notices = self.sets.drain_notices();
        let reads = self.sets.drain_reads();
        let (seq, entries) = self.tree_round(notices, reads, clock);
        self.apply_depart(seq, &entries, held, clock);
        self.stats.barriers.fetch_add(1, Ordering::Relaxed);
        trace::end(EventKind::DsmBarrier, clock.now());
        !entries.is_empty()
    }

    /// Whether a barrier holds the diffs of fresh pages: with migratory
    /// homes. Under fixed homes (the SDSM baseline) node 0 keeps every
    /// page, so every diff ships to it at once, as at any release.
    fn holds_fresh_diffs(&self) -> bool {
        self.cfg.home_policy != HomePolicy::Fixed
    }

    /// One round of the hierarchical barrier: arrive with `notices` and
    /// `reads`, wait for the departure. Returns its sequence and entries.
    fn tree_round(
        &self,
        notices: Vec<PageId>,
        reads: Vec<PageId>,
        clock: &mut VClock,
    ) -> (u64, Vec<crate::msg::DepartEntry>) {
        let seq = self.barrier_seq.fetch_add(1, Ordering::SeqCst);
        let tag = self.next_reply_tag();
        let arrive = DsmMsg::BarrierArrive {
            seq,
            node: self.node,
            reply_tag: tag,
            notices,
            reads,
        };
        // The arrival goes to our own communication thread, which
        // aggregates its subtree and sends one `BarrierUp` toward the root.
        self.ep
            .send(self.node, MsgClass::Dsm, 0, arrive.encode(), clock);
        let pkt = self
            .ep
            .recv(MsgClass::Ctl, Match::tagged(tag), clock)
            .expect("barrier depart after shutdown");
        let DsmReply::BarrierDepart { seq: dseq, entries } = self.decode_reply(&pkt) else {
            unreachable!("unexpected reply to barrier arrive");
        };
        assert_eq!(dseq, seq, "barrier sequence mismatch");
        (seq, entries)
    }

    /// The fresh-page half of a departure, run before anything else in it.
    /// Marks every page the departure names as named, and returns which of
    /// them were fresh (one flag per entry).
    ///
    /// A fresh page is homed on node 0 and every node's copy started zero,
    /// so a single writer's copy *is* the merged copy: when the departure
    /// hands the page to it (a non-update entry naming one writer), its held
    /// diff is dropped and nothing ships. Any other entry on a fresh page
    /// (several writers, or an update entry, whose home stays put) needs the
    /// old home's merged copy, so this node ships its held diffs for those
    /// pages there and waits for the acks; then every node takes one more
    /// tree round, so no node pushes a page or serves a `PushReq` until the
    /// old home has merged every held diff (DESIGN.md §3e). Every node
    /// decides alike from the same departure.
    fn settle_fresh(
        &self,
        entries: &[crate::msg::DepartEntry],
        held: Vec<(PageId, Diff)>,
        clock: &mut VClock,
    ) -> Vec<bool> {
        let holds = self.holds_fresh_diffs();
        let mut held = held.into_iter().peekable();
        let mut by_home: BTreeMap<usize, (Vec<PageId>, Vec<Diff>)> = BTreeMap::new();
        let mut merge_first = false;
        let mut fresh = Vec::with_capacity(entries.len());
        for e in entries {
            let is_fresh = self.sets.mark_named(e.page);
            fresh.push(is_fresh);
            let ship = holds && is_fresh && (e.multi_writer || e.update);
            merge_first |= ship;
            // Held pages are notices of this node, so the departure names
            // each of them; both lists are ascending.
            if let Some((_, diff)) = held.next_if(|&(page, _)| page == e.page) {
                if ship {
                    let (pages, diffs) = by_home.entry(e.old_home).or_default();
                    pages.push(e.page);
                    diffs.push(diff);
                }
            }
        }
        debug_assert!(held.next().is_none(), "held diff for an unnamed page");
        if merge_first {
            let pending_acks = self.ship_diffs(by_home, clock);
            self.await_diff_acks(&pending_acks, clock);
            self.tree_round(Vec::new(), Vec::new(), clock);
        }
        fresh
    }

    /// Apply a barrier departure: settle held diffs of fresh pages, update
    /// the home table, invalidate copies made stale by other nodes' writes,
    /// park pages awaiting a migration push, and push merged pages we no
    /// longer host.
    fn apply_depart(
        &self,
        seq: u64,
        entries: &[crate::msg::DepartEntry],
        held: Vec<(PageId, Diff)>,
        clock: &mut VClock,
    ) {
        let fresh = self.settle_fresh(entries, held, clock);
        let mut migrated_any = false;
        for (e, fresh) in entries.iter().zip(fresh) {
            self.homes[e.page].store(e.new_home as u32, Ordering::Release);
            if e.new_home != e.old_home {
                migrated_any = true;
                if e.new_home == self.node {
                    self.stats.home_migrations.fetch_add(1, Ordering::Relaxed);
                    trace::instant(EventKind::DsmMigrate, e.page as u64, clock.now());
                }
            }
            let meta = &self.pages[e.page];
            if e.update {
                // Update protocol: the home (never migrated on an update
                // entry) pushes its merged copy to every sharer; sharers
                // park on BLOCKED for the push; any other cached copy is
                // stale and invalidates as usual. A push and an invalidate
                // + refetch install the same merged bytes, so results are
                // independent of how accurate the sharer set was.
                debug_assert_eq!(e.new_home, e.old_home, "update entry migrated");
                if self.node == e.new_home {
                    let data = self.page_bytes(e.page);
                    for &s in &e.sharers {
                        debug_assert_ne!(s, self.node, "home listed as its own sharer");
                        let msg = DsmMsg::PagePush {
                            page: e.page,
                            barrier_seq: seq,
                            data: data.clone(),
                        };
                        self.ep.send(s, MsgClass::Dsm, 0, msg.encode(), clock);
                        self.stats.pushes_sent.fetch_add(1, Ordering::Relaxed);
                        self.stats.update_pushes.fetch_add(1, Ordering::Relaxed);
                        trace::instant(EventKind::DsmPush, e.page as u64, clock.now());
                    }
                } else if e.sharers.contains(&self.node) {
                    let mut inner = meta.inner.lock();
                    if inner.pushed_seq != seq + 1 {
                        // Park until the home's push lands. Application
                        // threads are held at the barrier, so the page
                        // cannot be mid-update here; a historical sharer
                        // whose copy was since invalidated simply regains
                        // a valid copy from the push. BLOCKED is legal too:
                        // the previous interval's park whose push has not
                        // landed yet (no local thread touched the page, so
                        // nobody blocked and the barrier completed) — the
                        // park simply rolls forward to this interval's push.
                        debug_assert!(
                            matches!(
                                inner.state,
                                PageState::Invalid | PageState::ReadOnly | PageState::Blocked
                            ),
                            "update-push target page {} busy at barrier: {:?}",
                            e.page,
                            inner.state
                        );
                        inner.awaiting_push = true;
                        inner.awaiting_seq = seq;
                        meta.set_state(&mut inner, PageState::Blocked);
                    }
                } else {
                    self.drop_stale_copy(e.page, clock);
                }
                continue;
            }
            if self.node == e.new_home {
                if e.new_home != e.old_home {
                    let mut inner = meta.inner.lock();
                    // Single-writer migration: we wrote every diff, so a
                    // readable copy is the merged copy. Multi-writer: even a
                    // readable copy misses the other writers' words and must
                    // wait for the old home's merged push.
                    let complete = !e.multi_writer && inner.state.readable();
                    if inner.pushed_seq != seq + 1 && !complete {
                        // Park until the old home pushes the merged content.
                        // Application threads are held at the barrier, so
                        // the page cannot be mid-update or carry unflushed
                        // writes here.
                        debug_assert!(
                            matches!(inner.state, PageState::Invalid | PageState::ReadOnly),
                            "migration target page {} busy at barrier: {:?}",
                            e.page,
                            inner.state
                        );
                        inner.awaiting_push = true;
                        inner.awaiting_seq = seq;
                        meta.set_state(&mut inner, PageState::Blocked);
                        if !e.multi_writer {
                            // We were the interval's only writer yet our
                            // copy is invalid: a lock-grant write notice
                            // named a page we ourselves dirtied (false
                            // sharing), shipping the diff and invalidating
                            // our copy mid-interval. The old home still
                            // holds the merged bytes — ask it to push them;
                            // it has no way to know we need them.
                            drop(inner);
                            let msg = DsmMsg::PushReq {
                                page: e.page,
                                barrier_seq: seq,
                                requester: self.node,
                            };
                            self.ep
                                .send(e.old_home, MsgClass::Dsm, 0, msg.encode(), clock);
                        }
                    }
                }
                // Otherwise our copy is complete (single writer with a
                // readable copy, or the push already arrived) — nothing
                // to do.
            } else if self.node == e.old_home {
                if fresh && !e.multi_writer {
                    // A fresh page handed to its single writer: no diff
                    // came here, so this copy is the zero placeholder (and
                    // any lock-release diffs), not the merged copy. The
                    // bytes stay until the new home has its own copy, for
                    // a `PushReq`.
                    self.drop_stale_copy(e.page, clock);
                } else if e.multi_writer && e.new_home != e.old_home {
                    // The old home holds the fully merged copy — still
                    // valid. Push it to the new home.
                    let msg = DsmMsg::PagePush {
                        page: e.page,
                        barrier_seq: seq,
                        data: self.page_bytes(e.page),
                    };
                    self.ep
                        .send(e.new_home, MsgClass::Dsm, 0, msg.encode(), clock);
                    self.stats.pushes_sent.fetch_add(1, Ordering::Relaxed);
                    trace::instant(EventKind::DsmPush, e.page as u64, clock.now());
                }
            } else {
                // Someone else wrote the page and we are not its (old or
                // new) home.
                self.drop_stale_copy(e.page, clock);
            }
        }
        if migrated_any {
            // Wake our communication thread so it re-examines deferred
            // requests for pages that just became ours.
            self.ep
                .send(self.node, MsgClass::Dsm, 0, DsmMsg::Nudge.encode(), clock);
        }
    }

    // ---- distributed locks (baseline SDSM synchronization, §2.2/6.1) ------

    /// Manager node of a lock.
    pub fn lock_manager(&self, lock: u64) -> usize {
        (lock % self.nnodes as u64) as usize
    }

    /// Acquire a distributed lock; applies the write notices piggybacked on
    /// the grant (lazy release consistency on the lock chain).
    pub fn lock_acquire(&self, lock: u64, clock: &mut VClock) {
        self.stats.lock_acquires.fetch_add(1, Ordering::Relaxed);
        trace::begin_arg(EventKind::DsmLock, lock, clock.now());
        let mgr = self.lock_manager(lock);
        let last_seen = self.lock_seen.lock().get(&lock).copied().unwrap_or(0);
        let tag = self.next_reply_tag();
        let msg = DsmMsg::LockAcq {
            lock,
            node: self.node,
            reply_tag: tag,
            last_seen,
        };
        self.ep.send(mgr, MsgClass::Dsm, 0, msg.encode(), clock);
        let pkt = self
            .ep
            .recv(MsgClass::Ctl, Match::tagged(tag), clock)
            .expect("lock grant after shutdown");
        let DsmReply::LockGrant { cur_seq, notices } = self.decode_reply(&pkt) else {
            unreachable!("unexpected reply to lock acquire");
        };
        self.apply_lock_notices(lock, cur_seq, &notices, clock);
        trace::end(EventKind::DsmLock, clock.now());
    }

    /// Release a distributed lock: flush modified pages (diffs to homes)
    /// and hand the accumulated write notices to the manager.
    pub fn lock_release(&self, lock: u64, clock: &mut VClock) {
        let flushed = self.flush(clock);
        let mgr = self.lock_manager(lock);
        let msg = DsmMsg::LockRel {
            lock,
            node: self.node,
            notices: flushed,
        };
        self.ep.send(mgr, MsgClass::Dsm, 0, msg.encode(), clock);
    }

    fn apply_lock_notices(&self, lock: u64, cur_seq: u64, notices: &[PageId], clock: &mut VClock) {
        self.lock_seen.lock().insert(lock, cur_seq);
        self.invalidate_pages(notices, clock);
    }

    /// This node's copy of `page`, taken under the page lock. The caller
    /// knows the bytes are the merged ones: this node is, or was through
    /// the last barrier, the page's home, and an old home never drops its
    /// merged copy. The one old home that invalidates its copy, node 0 on
    /// handing a fresh page to its single writer, keeps the bytes: nothing
    /// refills an invalid copy but a fetch from the new home, which
    /// defers it until the new home holds the page.
    pub(crate) fn page_bytes(&self, page: PageId) -> parade_net::Bytes {
        let mut buf = vec![0u8; PAGE_SIZE];
        let _inner = self.pages[page].inner.lock();
        // SAFETY: valid, as above, and we hold the page lock.
        unsafe { self.pool.copy_page_out(page, &mut buf) };
        parade_net::Bytes::from(buf)
    }

    /// A write notice named `page`, written elsewhere: a valid copy here is
    /// stale. One already invalid takes no lock (one atomic load), which
    /// keeps departure application cheap on large write sets (real HLRC
    /// likewise only mprotects resident stale copies).
    fn drop_stale_copy(&self, page: PageId, clock: &VClock) {
        let meta = &self.pages[page];
        if meta.fast.load(Ordering::Acquire) != PageState::Invalid as u8 {
            let mut inner = meta.inner.lock();
            if inner.state.readable() {
                self.invalidate(meta, &mut inner, page, clock);
            }
        }
    }

    /// Drop this node's copy of `page`: the next access fetches it.
    fn invalidate(&self, meta: &PageMeta, inner: &mut PageInner, page: PageId, clock: &VClock) {
        inner.twin = None;
        meta.set_state(inner, PageState::Invalid);
        self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
        trace::instant(EventKind::DsmInvalidate, page as u64, clock.now());
    }

    /// Apply a lock grant's write notices: invalidate cached copies of
    /// `pages` so the next access refetches from the home.
    fn invalidate_pages(&self, pages: &[PageId], clock: &mut VClock) {
        let mut by_home: BTreeMap<usize, (Vec<PageId>, Vec<Diff>)> = BTreeMap::new();
        for &page in pages {
            if self.home_of(page) == self.node {
                continue; // home copies have all diffs merged
            }
            let meta = &self.pages[page];
            let mut inner = meta.inner.lock();
            match inner.state {
                PageState::ReadOnly => self.invalidate(meta, &mut inner, page, clock),
                PageState::Dirty => {
                    // We hold un-released local writes on a page another
                    // node modified (page-granularity false sharing on a
                    // lazily-consistent page). Ship our diff to the home
                    // first so the writes survive, then invalidate; the
                    // next access refetches the merged copy.
                    let twin = inner
                        .twin
                        .take()
                        .expect("dirty non-home page must have a twin");
                    let mut cur = PageBuf::take();
                    // SAFETY: page is valid; we hold the page lock.
                    unsafe { self.pool.copy_page_out(page, &mut cur) };
                    let diff = Diff::create(&twin, &cur);
                    self.sets.unmark_dirty(page);
                    self.invalidate(meta, &mut inner, page, clock);
                    drop(inner);
                    if !diff.is_empty() {
                        let (pages, diffs) = by_home.entry(self.home_of(page)).or_default();
                        pages.push(page);
                        diffs.push(diff);
                    }
                }
                // A fetch in flight returns the home copy, which already
                // includes the releaser's diffs (they were acked before the
                // release notice was sent).
                PageState::Transient | PageState::Blocked | PageState::Invalid => {}
            }
        }
        let pending_acks = self.ship_diffs(by_home, clock);
        self.await_diff_acks(&pending_acks, clock);
    }
}

#[doc(hidden)]
impl Dsm {
    #[allow(dead_code)]
    fn _assert_send_sync()
    where
        Dsm: Send + Sync,
    {
    }
}
