//! The node-local shared memory pool and region allocation.
//!
//! Every node holds a full-size local copy of the shared address space —
//! the analogue of the per-process virtual mapping of a real page-based
//! SDSM. Whether a given page's bytes are *meaningful* on a node is decided
//! by the page table, not by the pool.

use std::cell::UnsafeCell;

use crate::page::{PageId, PAGE_SIZE};

/// Raw byte pool with interior mutability.
///
/// # Safety contract
///
/// The pool itself performs no synchronization. The DSM protocol layer
/// guarantees that:
///
/// * a page's bytes are only bulk-replaced (fetch, push, diff apply) while
///   its page-table entry is `TRANSIENT`/owned by the updater, with readers
///   held off via the table, and
/// * concurrent word-level writes to the *same* location only happen if the
///   application itself races — exactly the situation of a real SDSM, where
///   such races are application bugs.
///
/// Reads/writes use raw-pointer `read_volatile`/`write_volatile` on small
/// scalars so racing accesses (which the simulated platform permits) do not
/// get miscompiled into anything worse than a stale/torn value.
pub struct RawPool {
    bytes: Box<[UnsafeCell<u8>]>,
}

// SAFETY: see the struct-level contract; synchronization is provided by the
// page table above this layer.
unsafe impl Sync for RawPool {}
unsafe impl Send for RawPool {}

impl RawPool {
    pub fn new(len: usize) -> Self {
        assert!(len.is_multiple_of(PAGE_SIZE), "pool must be page aligned");
        // Allocate as zeroed `u8` (calloc path: the OS commits pages
        // lazily) and reinterpret as `UnsafeCell<u8>`, which is
        // `repr(transparent)` over `u8`.
        let raw = Box::into_raw(vec![0u8; len].into_boxed_slice());
        // SAFETY: UnsafeCell<u8> has the same in-memory representation as
        // u8 (documented guarantee), and we transfer ownership exactly once.
        let bytes = unsafe { Box::from_raw(raw as *mut [UnsafeCell<u8>]) };
        RawPool { bytes }
    }

    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    pub fn pages(&self) -> usize {
        self.bytes.len() / PAGE_SIZE
    }

    fn ptr(&self, offset: usize) -> *mut u8 {
        debug_assert!(offset < self.bytes.len());
        self.bytes[offset].get()
    }

    /// Read a `Copy` scalar at `offset`.
    ///
    /// # Safety
    /// `offset + size_of::<T>()` must be within the pool, and the caller
    /// (the DSM protocol) must hold read rights per the page table.
    pub unsafe fn read<T: Copy>(&self, offset: usize) -> T {
        debug_assert!(offset + std::mem::size_of::<T>() <= self.bytes.len());
        (self.ptr(offset) as *const T).read_unaligned()
    }

    /// Write a `Copy` scalar at `offset`.
    ///
    /// # Safety
    /// As [`RawPool::read`], with write rights.
    pub unsafe fn write<T: Copy>(&self, offset: usize, v: T) {
        debug_assert!(offset + std::mem::size_of::<T>() <= self.bytes.len());
        (self.ptr(offset) as *mut T).write_unaligned(v);
    }

    /// Copy a page's bytes out into `out`.
    ///
    /// # Safety
    /// Caller must hold read rights on the page.
    pub unsafe fn copy_page_out(&self, page: PageId, out: &mut [u8]) {
        assert_eq!(out.len(), PAGE_SIZE);
        std::ptr::copy_nonoverlapping(self.ptr(page * PAGE_SIZE), out.as_mut_ptr(), PAGE_SIZE);
    }

    /// Overwrite a page's bytes from `src` (the "system path" of the atomic
    /// page update solutions — the protocol keeps application threads off
    /// the page while this runs).
    ///
    /// # Safety
    /// Caller must be the page's unique updater (TRANSIENT holder).
    pub unsafe fn copy_page_in(&self, page: PageId, src: &[u8]) {
        assert_eq!(src.len(), PAGE_SIZE);
        std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr(page * PAGE_SIZE), PAGE_SIZE);
    }

    /// Copy an arbitrary byte range out.
    ///
    /// # Safety
    /// Caller must hold read rights on all covered pages.
    pub unsafe fn read_bytes(&self, offset: usize, out: &mut [u8]) {
        assert!(offset + out.len() <= self.bytes.len());
        std::ptr::copy_nonoverlapping(self.ptr(offset), out.as_mut_ptr(), out.len());
    }

    /// Copy an arbitrary byte range in.
    ///
    /// # Safety
    /// Caller must hold write rights on all covered pages.
    pub unsafe fn write_bytes(&self, offset: usize, src: &[u8]) {
        assert!(offset + src.len() <= self.bytes.len());
        std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr(offset), src.len());
    }
}

/// A shared-memory region handed out by the allocator. Handles are plain
/// data: they can be captured by parallel-region closures and resolved
/// against any node's pool (every node performs identical allocations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionHandle {
    pub id: u32,
    /// Byte offset of the region in the pool (page aligned).
    pub offset: usize,
    /// Region length in bytes.
    pub len: usize,
}

impl RegionHandle {
    pub fn first_page(&self) -> PageId {
        self.offset / PAGE_SIZE
    }

    pub fn last_page(&self) -> PageId {
        if self.len == 0 {
            self.first_page()
        } else {
            (self.offset + self.len - 1) / PAGE_SIZE
        }
    }

    pub fn page_count(&self) -> usize {
        self.last_page() - self.first_page() + 1
    }
}

/// Deterministic bump allocator for shared regions.
///
/// Regions are page aligned so distinct regions never share a page; this
/// keeps home migration per-region-page and avoids cross-region false
/// sharing (false sharing *within* a region is preserved — it is part of
/// the system being studied).
#[derive(Debug, Default)]
pub struct RegionAllocator {
    next_offset: usize,
    regions: Vec<RegionHandle>,
}

impl RegionAllocator {
    pub fn new() -> Self {
        RegionAllocator::default()
    }

    pub fn alloc(&mut self, len: usize, pool_len: usize) -> Result<RegionHandle, AllocError> {
        let offset = self.next_offset;
        let padded = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        if offset + padded > pool_len {
            return Err(AllocError {
                requested: len,
                available: pool_len - offset,
            });
        }
        let h = RegionHandle {
            id: self.regions.len() as u32,
            offset,
            len,
        };
        self.next_offset += padded;
        self.regions.push(h);
        Ok(h)
    }

    pub fn get(&self, id: u32) -> Option<RegionHandle> {
        self.regions.get(id as usize).copied()
    }

    pub fn allocated_bytes(&self) -> usize {
        self.next_offset
    }

    pub fn count(&self) -> usize {
        self.regions.len()
    }
}

/// Sharded per-page protocol bookkeeping: the node's dirty set and the
/// current interval's write/read notice sets, split into power-of-two lock
/// shards keyed by page id.
///
/// One node-global lock here would serialize every write fault on every
/// application thread and every diff-batch merge bookkeeping step. A page
/// maps to shard `page & (SHARDS - 1)`, so concurrent faults on different
/// pages almost always hit different shards. Draining (release/barrier
/// time) is done shard by shard and then sorted, so drain order — and
/// therefore everything downstream: diff batch layout, write notices,
/// departure entries — does not depend on the shard count.
pub struct PageShards {
    shards: Box<[parade_net::sync::Mutex<ShardSets>]>,
    mask: usize,
    /// Per-shard diff-merge counts (home side), for the `dsm.shard` trace
    /// event and shard-balance assertions in tests.
    pub merges: crate::stats::ShardStats,
}

#[derive(Debug, Default)]
struct ShardSets {
    /// Pages this node holds dirty (twin taken, diff owed at release).
    dirty: std::collections::HashSet<PageId>,
    /// Pages written during the current interval (barrier write notices).
    notices: std::collections::HashSet<PageId>,
    /// Pages fetched during the current interval (barrier read notices —
    /// the sharer evidence behind adaptive protocol selection).
    reads: std::collections::HashSet<PageId>,
}

/// Lock shards per node (a power of two: the shard index is a mask).
pub const SHARDS: usize = 16;

impl Default for PageShards {
    fn default() -> Self {
        PageShards::new()
    }
}

impl PageShards {
    pub fn new() -> PageShards {
        Self::with_shards(SHARDS)
    }

    fn with_shards(n: usize) -> PageShards {
        assert!(n.is_power_of_two(), "shard index is a mask");
        PageShards {
            shards: (0..n)
                .map(|_| parade_net::sync::Mutex::new(ShardSets::default()))
                .collect(),
            mask: n - 1,
            merges: crate::stats::ShardStats::new(n),
        }
    }

    #[inline]
    pub fn shard_of(&self, page: PageId) -> usize {
        page & self.mask
    }

    pub fn len(&self) -> usize {
        self.shards.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    #[inline]
    fn with<R>(&self, page: PageId, f: impl FnOnce(&mut ShardSets) -> R) -> R {
        f(&mut self.shards[self.shard_of(page)].lock())
    }

    /// Mark a page dirty and note the write for the current interval.
    pub fn mark_written(&self, page: PageId) {
        self.with(page, |s| {
            s.dirty.insert(page);
            s.notices.insert(page);
        });
    }

    /// Drop a page from the dirty set (it is being flushed out of band);
    /// returns whether it was dirty.
    pub fn unmark_dirty(&self, page: PageId) -> bool {
        self.with(page, |s| s.dirty.remove(&page))
    }

    /// Note a page fetch for the current interval's read notices.
    pub fn mark_read(&self, page: PageId) {
        self.with(page, |s| {
            s.reads.insert(page);
        });
    }

    fn drain_sorted(&self, pick: impl Fn(&mut ShardSets) -> Vec<PageId>) -> Vec<PageId> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            out.extend(pick(&mut shard.lock()));
        }
        out.sort_unstable();
        out
    }

    /// Take the dirty set (sorted — deterministic release order).
    pub fn drain_dirty(&self) -> Vec<PageId> {
        self.drain_sorted(|s| s.dirty.drain().collect())
    }

    /// Take the interval's write notices (sorted).
    pub fn drain_notices(&self) -> Vec<PageId> {
        self.drain_sorted(|s| s.notices.drain().collect())
    }

    /// Take the interval's read notices (sorted).
    pub fn drain_reads(&self) -> Vec<PageId> {
        self.drain_sorted(|s| s.reads.drain().collect())
    }

    /// Record a home-side diff merge into `page`'s shard; returns the
    /// shard index (for tracing).
    pub fn record_merge(&self, page: PageId) -> usize {
        let shard = self.shard_of(page);
        self.merges.bump(shard);
        shard
    }
}

/// Shared pool exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocError {
    pub requested: usize,
    pub available: usize,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shared pool exhausted: requested {} bytes, {} available (raise DsmConfig::pool_bytes)",
            self.requested, self.available
        )
    }
}

impl std::error::Error for AllocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_scalar_roundtrip() {
        let pool = RawPool::new(2 * PAGE_SIZE);
        unsafe {
            pool.write::<f64>(16, 3.75);
            pool.write::<i64>(4096, -42);
            assert_eq!(pool.read::<f64>(16), 3.75);
            assert_eq!(pool.read::<i64>(4096), -42);
        }
    }

    #[test]
    fn pool_page_copy_roundtrip() {
        let pool = RawPool::new(2 * PAGE_SIZE);
        let src: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        let mut out = vec![0u8; PAGE_SIZE];
        unsafe {
            pool.copy_page_in(1, &src);
            pool.copy_page_out(1, &mut out);
        }
        assert_eq!(src, out);
        // Page 0 untouched.
        unsafe {
            pool.copy_page_out(0, &mut out);
        }
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn allocator_is_page_aligned_and_deterministic() {
        let pool_len = 10 * PAGE_SIZE;
        let mut a = RegionAllocator::new();
        let r1 = a.alloc(100, pool_len).unwrap();
        let r2 = a.alloc(PAGE_SIZE + 1, pool_len).unwrap();
        let r3 = a.alloc(0, pool_len).unwrap();
        assert_eq!(r1.offset, 0);
        assert_eq!(r2.offset, PAGE_SIZE);
        assert_eq!(r2.page_count(), 2);
        assert_eq!(r3.offset, 3 * PAGE_SIZE);
        assert_eq!(a.get(1), Some(r2));
        // A second allocator replays identically.
        let mut b = RegionAllocator::new();
        assert_eq!(b.alloc(100, pool_len).unwrap(), r1);
        assert_eq!(b.alloc(PAGE_SIZE + 1, pool_len).unwrap(), r2);
    }

    #[test]
    fn allocator_reports_exhaustion() {
        let mut a = RegionAllocator::new();
        let err = a.alloc(3 * PAGE_SIZE, 2 * PAGE_SIZE).unwrap_err();
        assert_eq!(err.available, 2 * PAGE_SIZE);
        assert!(a.alloc(2 * PAGE_SIZE, 2 * PAGE_SIZE).is_ok());
    }

    #[test]
    fn shards_distribute_by_low_page_bits() {
        let s = PageShards::new();
        assert_eq!(s.len(), SHARDS);
        for p in 0..64 {
            assert_eq!(s.shard_of(p), p % SHARDS);
        }
        let single = PageShards::with_shards(1);
        assert_eq!(single.len(), 1);
        assert_eq!(single.shard_of(12345), 0);
    }

    #[test]
    fn shards_drain_sorted_regardless_of_insertion_order() {
        for nshards in [1usize, 4, SHARDS] {
            let s = PageShards::with_shards(nshards);
            for &p in &[31usize, 2, 17, 4, 9, 0, 25] {
                s.mark_written(p);
                s.mark_read(p + 1);
            }
            assert_eq!(s.drain_dirty(), vec![0, 2, 4, 9, 17, 25, 31]);
            assert_eq!(s.drain_notices(), vec![0, 2, 4, 9, 17, 25, 31]);
            assert_eq!(s.drain_reads(), vec![1, 3, 5, 10, 18, 26, 32]);
            // Drains empty the sets.
            assert!(s.drain_dirty().is_empty());
            assert!(s.drain_notices().is_empty());
            assert!(s.drain_reads().is_empty());
        }
    }

    #[test]
    fn shards_unmark_and_merge_counters() {
        let s = PageShards::with_shards(4);
        s.mark_written(5);
        assert!(s.unmark_dirty(5));
        assert!(!s.unmark_dirty(5));
        // The write notice survives an out-of-band flush.
        assert_eq!(s.drain_notices(), vec![5]);
        assert_eq!(s.record_merge(6), 2);
        assert_eq!(s.record_merge(10), 2);
        assert_eq!(s.record_merge(3), 3);
        assert_eq!(s.merges.snapshot(), vec![0, 0, 2, 1]);
    }

    /// Shard-count independence: sibling threads hammering overlapping and
    /// distinct pages concurrently (marks, out-of-band unmarks, home-side
    /// merges) leave a store whose drains and merge total are the same
    /// over one lock as over `SHARDS` — everything the release path
    /// derives from the store is therefore layout-independent.
    #[test]
    fn concurrent_marks_drain_identically_over_one_lock_and_many() {
        const THREADS: usize = 4;
        const PAGES: usize = 96;
        let run = |nshards: usize| {
            let s = PageShards::with_shards(nshards);
            let marked = std::sync::Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let (s, marked) = (&s, &marked);
                    scope.spawn(move || {
                        for round in 0..50 {
                            for p in (0..PAGES).filter(|p| (p + round) % THREADS == t) {
                                s.mark_written(p);
                                s.mark_read(PAGES + p);
                                s.record_merge(p);
                            }
                        }
                        marked.wait();
                        // Each thread flushes its own residue class out of
                        // band: the dirty bit goes, the notice stays.
                        for p in (0..PAGES).filter(|p| p % (2 * THREADS) == t) {
                            s.unmark_dirty(p);
                        }
                    });
                }
            });
            let merges: u64 = s.merges.snapshot().iter().sum();
            (s.drain_dirty(), s.drain_notices(), s.drain_reads(), merges)
        };
        let single = run(1);
        assert_eq!(run(SHARDS), single);
        let kept: Vec<PageId> = (0..PAGES)
            .filter(|p| p % (2 * THREADS) >= THREADS)
            .collect();
        assert_eq!(single.0, kept, "unmarked classes leave the dirty set");
        assert_eq!(single.1, (0..PAGES).collect::<Vec<_>>());
        assert_eq!(single.2, (PAGES..2 * PAGES).collect::<Vec<_>>());
        assert_eq!(single.3, (50 * PAGES) as u64);
    }

    #[test]
    fn region_page_ranges() {
        let r = RegionHandle {
            id: 0,
            offset: 2 * PAGE_SIZE,
            len: PAGE_SIZE + 8,
        };
        assert_eq!(r.first_page(), 2);
        assert_eq!(r.last_page(), 3);
        assert_eq!(r.page_count(), 2);
    }
}
