//! The node-local shared memory pool and region allocation.
//!
//! Every node holds a full-size local copy of the shared address space —
//! the analogue of the per-process virtual mapping of a real page-based
//! SDSM. Whether a given page's bytes are *meaningful* on a node is decided
//! by the page table, not by the pool.

use std::cell::{RefCell, UnsafeCell};
use std::sync::atomic::{AtomicU64, Ordering};

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
///
/// # Alignment
///
/// The pool is a slice of `u64` words, so its base is 8-aligned because of
/// what it is made of, on any allocator. Regions start on page boundaries
/// ([`RegionAllocator`]), so element `i` of a region of `T` sits at a
/// multiple of `align_of::<T>()` for every `T` up to 8 bytes of alignment:
/// what [`RawPool::slice`] hands out as `&[T]`. (Asking the allocator for
/// the alignment instead — a `Layout` aligned above its minimum — makes
/// std's `alloc_zeroed` a `posix_memalign` plus a `memset`, which commits
/// every page of a pool that `calloc` maps lazily: 64 MB per node.)
pub struct RawPool {
    words: Box<[UnsafeCell<u64>]>,
    /// Every byte from this offset on is still zero, as allocated: all a
    /// recycled pool has to clear again is what comes before it.
    clean_from: usize,
}

/// Pools of at most this many bytes retire to the dropping thread's spare
/// list; larger ones are lazily committed mappings and go back to the OS.
const SPARE_MAX_LEN: usize = 1 << 20;
/// Per-thread spare-list cap; beyond this, dropped pools are freed.
const SPARE_CAP: usize = 16;

/// Bytes per word of the pool's backing store.
const WORD: usize = std::mem::size_of::<u64>();

/// A retired pool's words and the `clean_from` it retired with.
type Spare = (Box<[UnsafeCell<u64>]>, usize);

thread_local! {
    /// Small pools dropped by this thread, contents unspecified below each
    /// one's `clean_from`. A host that launches clusters by the hundred
    /// (`parade-serve`: one 64-page pool per node per job) otherwise sends
    /// each through `calloc` and `free`, and whether glibc then trims and
    /// re-faults the heap under them or only clears recycled memory is
    /// decided anew in every process by the order of unrelated frees: 8 or
    /// 40 000 page faults per 400 jobs.
    static SPARE: RefCell<Vec<Spare>> = const { RefCell::new(Vec::new()) };
}

// SAFETY: see the struct-level contract; synchronization is provided by the
// page table above this layer.
unsafe impl Sync for RawPool {}
unsafe impl Send for RawPool {}

impl Drop for RawPool {
    fn drop(&mut self) {
        if self.len() > SPARE_MAX_LEN {
            return;
        }
        let spare = (std::mem::take(&mut self.words), self.clean_from);
        // `Err`: the thread is exiting and its list is gone; free the pool.
        let _ = SPARE.try_with(move |s| {
            let mut s = s.borrow_mut();
            if s.len() < SPARE_CAP {
                s.push(spare);
            }
        });
    }
}

impl RawPool {
    pub fn new(len: usize) -> Self {
        assert!(len.is_multiple_of(PAGE_SIZE), "pool must be page aligned");
        let spare = SPARE.with(|s| {
            let mut s = s.borrow_mut();
            let found = s.iter().position(|(w, _)| w.len() * WORD == len);
            found.map(|i| s.swap_remove(i))
        });
        if let Some((mut words, written)) = spare {
            // A serve job allocates a few pages of its 64: clearing them
            // all would keep every spare pool wholly resident.
            // SAFETY: `words` is exclusively owned and `len >= written`
            // bytes long; `UnsafeCell<u64>` is `repr(transparent)` over `u64`.
            unsafe { words.as_mut_ptr().cast::<u8>().write_bytes(0, written) };
            debug_assert!(
                // SAFETY: exclusively owned, as above.
                words[written / WORD..]
                    .iter()
                    .all(|w| unsafe { *w.get() } == 0),
                "a pool was written past where its owner said it stopped"
            );
            return RawPool {
                words,
                clean_from: len,
            };
        }
        // Allocate as zeroed `u64` (calloc path: the OS commits pages
        // lazily) and reinterpret as `UnsafeCell<u64>`, which is
        // `repr(transparent)` over `u64`.
        let raw = Box::into_raw(vec![0u64; len / WORD].into_boxed_slice());
        // SAFETY: UnsafeCell<u64> has the same in-memory representation as
        // u64 (documented guarantee), and we transfer ownership exactly once.
        let words = unsafe { Box::from_raw(raw as *mut [UnsafeCell<u64>]) };
        RawPool {
            words,
            clean_from: len,
        }
    }

    /// The owner's word, given as it lets the pool go, that it wrote
    /// nothing at or past byte `offset`. Unless this is called the whole
    /// pool counts as written.
    pub(crate) fn written_below(&mut self, offset: usize) {
        assert!(offset <= self.len());
        self.clean_from = offset;
    }

    pub fn len(&self) -> usize {
        self.words.len() * WORD
    }

    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    pub fn pages(&self) -> usize {
        self.len() / PAGE_SIZE
    }

    fn ptr(&self, offset: usize) -> *mut u8 {
        debug_assert!(offset <= self.len());
        // SAFETY: `offset` is within (or one past) the allocation: every
        // caller is an `unsafe fn` whose contract says so, and `Dsm` has
        // indexed its page table with `offset / PAGE_SIZE` by then.
        unsafe {
            UnsafeCell::raw_get(self.words.as_ptr())
                .cast::<u8>()
                .add(offset)
        }
    }

    /// `len` elements of `T` starting at byte `offset`, in place.
    ///
    /// # Safety
    /// Caller must hold read rights on all covered pages, and nothing may
    /// store into the range while the slice is alive (the DSM layers above
    /// bound that to one interval, see `Dsm::view`).
    pub unsafe fn slice<T: Copy>(&self, offset: usize, len: usize) -> &[T] {
        assert!(len
            .checked_mul(std::mem::size_of::<T>())
            .and_then(|bytes| bytes.checked_add(offset))
            .is_some_and(|end| end <= self.len()));
        assert!(
            std::mem::align_of::<T>() <= WORD && offset.is_multiple_of(std::mem::align_of::<T>()),
            "pool offset {offset} is not aligned for {}",
            std::any::type_name::<T>()
        );
        std::slice::from_raw_parts(self.ptr(offset).cast::<T>(), len)
    }

    /// Read a `Copy` scalar at `offset`.
    ///
    /// # Safety
    /// `offset + size_of::<T>()` must be within the pool, and the caller
    /// (the DSM protocol) must hold read rights per the page table.
    pub unsafe fn read<T: Copy>(&self, offset: usize) -> T {
        debug_assert!(offset + std::mem::size_of::<T>() <= self.len());
        (self.ptr(offset) as *const T).read_unaligned()
    }

    /// Write a `Copy` scalar at `offset`.
    ///
    /// # Safety
    /// As [`RawPool::read`], with write rights.
    pub unsafe fn write<T: Copy>(&self, offset: usize, v: T) {
        debug_assert!(offset + std::mem::size_of::<T>() <= self.len());
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

    /// Copy an arbitrary byte range in.
    ///
    /// # Safety
    /// Caller must hold write rights on all covered pages.
    pub unsafe fn write_bytes(&self, offset: usize, src: &[u8]) {
        assert!(offset + src.len() <= self.len());
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

/// One bit per pool page, packed into `AtomicU64` words.
struct PageBitmap {
    words: Box<[AtomicU64]>,
}

impl PageBitmap {
    fn new(pages: usize) -> PageBitmap {
        PageBitmap {
            words: (0..pages.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    fn set(&self, page: PageId) {
        self.words[page / 64].fetch_or(1 << (page % 64), Ordering::AcqRel);
    }

    /// Clear `page`'s bit; returns whether it was set.
    #[inline]
    fn clear(&self, page: PageId) -> bool {
        let bit = 1u64 << (page % 64);
        self.words[page / 64].fetch_and(!bit, Ordering::AcqRel) & bit != 0
    }

    /// Whether any bit is set. A plain scan: it takes nothing.
    fn any(&self) -> bool {
        self.words.iter().any(|w| w.load(Ordering::Acquire) != 0)
    }

    /// Take every set bit, word by word: ascending page order for free.
    fn drain(&self) -> Vec<PageId> {
        let mut out = Vec::new();
        for (w, word) in self.words.iter().enumerate() {
            // Empty words (almost all of them, at almost every release)
            // cost one plain load, not a locked swap.
            if word.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let mut bits = word.swap(0, Ordering::AcqRel);
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        out
    }
}

/// Dense per-page interval bookkeeping: the node's dirty set and the
/// current interval's write/read notice sets, one bitmap each, sized by
/// the pool's page count.
///
/// A write fault marks with two `fetch_or`s and no lock, so concurrent
/// faults on different pages never serialize (and faults on pages sharing
/// a word only contend for a cache line). A drain swaps each non-empty
/// word to zero: a concurrent mark lands either before the swap (drained
/// now) or after it (drained at the next release) — the same two outcomes
/// a locked set has — and the result comes out in ascending page order,
/// which is what keeps diff batch layout, write notices and departure
/// entries deterministic. (DESIGN.md §3e has the memory-ordering argument:
/// marks happen under the page's table-entry lock, which carries it.)
pub struct PageSets {
    /// Pages this node holds dirty (twin taken, diff owed at release).
    dirty: PageBitmap,
    /// Pages written during the current interval (barrier write notices).
    notices: PageBitmap,
    /// Pages fetched during the current interval (barrier read notices —
    /// the sharer evidence behind adaptive protocol selection).
    reads: PageBitmap,
}

impl PageSets {
    pub fn new(pages: usize) -> PageSets {
        PageSets {
            dirty: PageBitmap::new(pages),
            notices: PageBitmap::new(pages),
            reads: PageBitmap::new(pages),
        }
    }

    /// Mark a page dirty and note the write for the current interval.
    #[inline]
    pub fn mark_written(&self, page: PageId) {
        self.dirty.set(page);
        self.notices.set(page);
    }

    /// Drop a page from the dirty set (it is being flushed out of band);
    /// returns whether it was dirty.
    pub fn unmark_dirty(&self, page: PageId) -> bool {
        self.dirty.clear(page)
    }

    /// Note a page fetch for the current interval's read notices.
    pub fn mark_read(&self, page: PageId) {
        self.reads.set(page);
    }

    /// Take the dirty set (ascending — deterministic release order).
    pub fn drain_dirty(&self) -> Vec<PageId> {
        self.dirty.drain()
    }

    /// Whether the current interval has a write notice (a page written
    /// since the last barrier), without taking it.
    pub fn any_notice(&self) -> bool {
        self.notices.any()
    }

    /// Take the interval's write notices (ascending).
    pub fn drain_notices(&self) -> Vec<PageId> {
        self.notices.drain()
    }

    /// Take the interval's read notices (ascending).
    pub fn drain_reads(&self) -> Vec<PageId> {
        self.reads.drain()
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

/// Resident set of this process in bytes (`/proc/self/statm`, field 2, in
/// pages); `None` where there is no procfs.
#[cfg(test)]
pub(crate) fn resident_bytes() -> Option<usize> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: usize = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parade_testkit::prelude::*;

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
    fn a_recycled_pool_comes_back_zeroed() {
        // A length no other test of this thread uses.
        let len = 3 * PAGE_SIZE;
        let pool = RawPool::new(len);
        unsafe { pool.write::<u64>(PAGE_SIZE + 8, u64::MAX) };
        let first = pool.ptr(0);
        drop(pool);
        let again = RawPool::new(len);
        assert_eq!(
            again.ptr(0),
            first,
            "the spare pool is taken, not a new one"
        );
        assert_eq!(unsafe { again.read::<u64>(PAGE_SIZE + 8) }, 0);
        // Pools too large to keep go back to the allocator.
        drop(RawPool::new(SPARE_MAX_LEN + PAGE_SIZE));
        SPARE.with(|s| {
            let s = s.borrow();
            assert!(s.iter().all(|(w, _)| w.len() * WORD <= SPARE_MAX_LEN))
        });
    }

    #[test]
    fn a_recycled_pool_is_cleared_only_as_far_as_its_owner_wrote() {
        let len = 5 * PAGE_SIZE;
        let mut alloc = RegionAllocator::new();
        let mut pool = RawPool::new(len);
        let region = alloc.alloc(PAGE_SIZE + 100, len).unwrap();
        let ones = vec![0xffu8; region.len];
        unsafe { pool.write_bytes(region.offset, &ones) };
        let first = pool.ptr(0);
        pool.written_below(alloc.allocated_bytes());
        drop(pool);
        let mut again = RawPool::new(len);
        assert_eq!(again.ptr(0), first);
        let all = unsafe { again.slice::<u8>(0, len) };
        assert!(all.iter().all(|&b| b == 0), "every byte reads 0");
        // Nothing past the old allocation was touched: a byte planted there
        // behind the owner's back (in a release build; a debug build checks
        // the tail and says so) is still there on the next reuse.
        if !cfg!(debug_assertions) {
            unsafe { again.write::<u8>(alloc.allocated_bytes(), 7) };
            again.written_below(alloc.allocated_bytes());
            drop(again);
            let third = RawPool::new(len);
            assert_eq!(unsafe { third.read::<u8>(alloc.allocated_bytes()) }, 7);
        }
    }

    /// Alignment is what the pool is made of, not what the allocator
    /// happened to return: base and every region offset, fresh or recycled.
    #[test]
    fn pool_base_and_region_offsets_are_word_aligned() {
        // A length no other test of this thread uses, small enough to retire
        // to the spare list.
        let len = 7 * PAGE_SIZE;
        let mut first_base = None;
        for round in ["fresh", "recycled"] {
            let pool = RawPool::new(len);
            let base = pool.ptr(0);
            assert_eq!(base as usize % WORD, 0, "{round} pool base {base:p}");
            if let Some(first) = first_base.replace(base) {
                assert_eq!(base, first, "the second pool is the first one, recycled");
            }
            let mut alloc = RegionAllocator::new();
            for region_len in [1, 8, PAGE_SIZE - 1, PAGE_SIZE + 1, 0, 3] {
                let r = alloc.alloc(region_len, len).unwrap();
                assert_eq!(r.offset % WORD, 0, "{round}: region {r:?}");
                // A typed slice of the region is aligned for its type.
                let words = unsafe { pool.slice::<u64>(r.offset, region_len / WORD) };
                assert_eq!(words.as_ptr() as usize % std::mem::align_of::<u64>(), 0);
                assert!(words.iter().all(|&w| w == 0));
            }
            unsafe { pool.write::<u64>(PAGE_SIZE, u64::MAX) };
        }
    }

    #[test]
    #[should_panic(expected = "not aligned for f64")]
    fn a_misaligned_typed_slice_is_refused() {
        let pool = RawPool::new(PAGE_SIZE);
        let _ = unsafe { pool.slice::<f64>(4, 1) };
    }

    /// The default 64 MB pool is mapped, not committed: an allocation path
    /// that clears it by hand (an over-aligned `alloc_zeroed` is one) costs
    /// every node of every cluster 64 MB of resident memory.
    #[test]
    fn a_fresh_default_pool_commits_no_memory() {
        const POOL: usize = 64 << 20;
        const ALLOWED: usize = 1 << 20;
        // Sibling tests allocate while this one measures; a memset shows in
        // every attempt, their noise does not.
        let attempts = (0..5).map(|_| {
            let before = resident_bytes()?;
            let pool = RawPool::new(POOL);
            unsafe { pool.write::<u64>(POOL - 8, 1) }; // one page, at the far end
            Some(resident_bytes()?.saturating_sub(before))
        });
        let Some(grew) = attempts.min().flatten() else {
            return; // no procfs here
        };
        assert!(
            grew < ALLOWED,
            "a fresh {POOL}-byte pool raised the resident set by {grew} bytes"
        );
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
    fn sets_drain_ascending_regardless_of_insertion_order() {
        let s = PageSets::new(130);
        for &p in &[65usize, 2, 128, 64, 9, 0, 63] {
            s.mark_written(p);
            s.mark_read(p + 1);
        }
        assert_eq!(s.drain_dirty(), vec![0, 2, 9, 63, 64, 65, 128]);
        assert_eq!(s.drain_notices(), vec![0, 2, 9, 63, 64, 65, 128]);
        assert_eq!(s.drain_reads(), vec![1, 3, 10, 64, 65, 66, 129]);
        // Drains empty the sets.
        assert!(s.drain_dirty().is_empty());
        assert!(s.drain_notices().is_empty());
        assert!(s.drain_reads().is_empty());
    }

    #[test]
    fn any_notice_looks_without_taking() {
        let s = PageSets::new(130);
        assert!(!s.any_notice());
        s.mark_read(3);
        assert!(!s.any_notice(), "a fetch is no write notice");
        s.mark_written(128);
        assert!(s.any_notice());
        assert!(s.any_notice(), "asking takes nothing");
        s.drain_dirty();
        assert!(s.any_notice(), "a flush leaves the notice for the barrier");
        assert_eq!(s.drain_notices(), vec![128]);
        assert!(!s.any_notice());
    }

    #[test]
    fn unmark_keeps_the_write_notice() {
        let s = PageSets::new(8);
        s.mark_written(5);
        assert!(s.unmark_dirty(5));
        assert!(!s.unmark_dirty(5));
        // The write notice survives an out-of-band flush.
        assert_eq!(s.drain_notices(), vec![5]);
        assert!(s.drain_dirty().is_empty());
    }

    /// One step of the model-based property: (operation, page).
    type Op = (u8, usize);

    /// Pool sizes straddling word boundaries, and op sequences biased
    /// toward the pages where an off-by-one would live: 63/64/65 and the
    /// pool's last page.
    fn sets_script(r: &mut TestRng) -> (usize, Vec<Op>) {
        let pages = *r.choose(&[66usize, 128, 129, 200]);
        let edge = [0, 63, 64, 65, pages - 1];
        let ops = (0..r.range_usize(0, 120))
            .map(|_| {
                let page = if r.below(3) == 0 {
                    *r.choose(&edge)
                } else {
                    r.range_usize(0, pages - 1)
                };
                (r.below(6) as u8, page)
            })
            .collect();
        (pages, ops)
    }

    prop!(fn sets_agree_with_a_btreeset_model((pages, ops) in sets_script) {
        use std::collections::BTreeSet;
        let take = |m: &mut BTreeSet<PageId>| std::mem::take(m).into_iter().collect::<Vec<_>>();
        // Shrinking may take the pool to nothing and a page out of it;
        // fold both back in.
        let pages = pages.max(1);
        let s = PageSets::new(pages);
        let (mut dirty, mut notices, mut reads) = (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
        for (op, page) in ops {
            let page = page % pages;
            match op {
                0 => {
                    s.mark_written(page);
                    dirty.insert(page);
                    notices.insert(page);
                }
                1 => assert_eq!(s.unmark_dirty(page), dirty.remove(&page)),
                2 => {
                    s.mark_read(page);
                    reads.insert(page);
                }
                3 => assert_eq!(s.drain_dirty(), take(&mut dirty)),
                4 => assert_eq!(s.drain_notices(), take(&mut notices)),
                _ => assert_eq!(s.drain_reads(), take(&mut reads)),
            }
        }
        assert_eq!(s.drain_dirty(), take(&mut dirty));
        assert_eq!(s.drain_notices(), take(&mut notices));
        assert_eq!(s.drain_reads(), take(&mut reads));
    });

    /// Sibling threads hammering overlapping and distinct pages
    /// concurrently (marks, out-of-band unmarks) — pages sharing a bitmap
    /// word included, so the `fetch_or`/`fetch_and` pairs really contend —
    /// leave exactly the sets a sequential run would: no mark is lost to a
    /// neighbour's read-modify-write.
    #[test]
    fn concurrent_marks_lose_nothing() {
        const THREADS: usize = 4;
        const PAGES: usize = 96;
        // Written pages 0..96 straddle the 63/64/65 word boundary; read
        // pages 96..192 end on the pool's last page.
        let s = PageSets::new(2 * PAGES);
        let marked = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (s, marked) = (&s, &marked);
                scope.spawn(move || {
                    for round in 0..50 {
                        for p in (0..PAGES).filter(|p| (p + round) % THREADS == t) {
                            s.mark_written(p);
                            s.mark_read(PAGES + p);
                        }
                    }
                    marked.wait();
                    // Each thread flushes its own residue class out of
                    // band: the dirty bit goes, the notice stays.
                    for p in (0..PAGES).filter(|p| p % (2 * THREADS) == t) {
                        assert!(s.unmark_dirty(p));
                    }
                });
            }
        });
        let kept: Vec<PageId> = (0..PAGES)
            .filter(|p| p % (2 * THREADS) >= THREADS)
            .collect();
        assert_eq!(
            s.drain_dirty(),
            kept,
            "unmarked classes leave the dirty set"
        );
        assert_eq!(s.drain_notices(), (0..PAGES).collect::<Vec<_>>());
        assert_eq!(s.drain_reads(), (PAGES..2 * PAGES).collect::<Vec<_>>());
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
