//! Barrier-time per-page protocol selection (invalidate vs. update) and
//! the §5.2.2 migratory home rule.
//!
//! The paper fixes the update/invalidate split at a static 256 B size
//! threshold. This module makes the split dynamic *per page*: the barrier
//! root keeps a [`ProtocolTable`] of every page's sharer history, and each
//! departure decides — page by page — whether cached copies should be
//! invalidated (classic HLRC write notice) or receive a push of the merged
//! page from its home (update protocol). A page whose sharer set keeps
//! re-faulting the same data after every barrier is cheaper to update in
//! place, so a written page updates once it has at least [`MIN_SHARERS`]
//! sharers besides its home, however many nodes wrote it: the home merges
//! every writer's diff before it pushes, so a page shared by two writers
//! (CG's partition-boundary pages) reaches its readers the same way as a
//! single-writer one. A page below the threshold, or one whose home the
//! interval moves, invalidates and clears its sharer set; a migratory page
//! bouncing between writers therefore stays on invalidate.
//!
//! The rule's known cost: a pushed reader never re-faults, so a reader
//! that stops reading an update page goes on receiving its pushes until
//! the page's home next moves (see
//! `a_reader_that_leaves_is_pushed_until_the_home_moves`).
//!
//! Everything is decided from the aggregated, *sorted* arrival data the
//! root already holds, so the decision stream is a pure function of the
//! program's barrier history: runs replay bit-identically regardless of
//! real-time message schedules, and the equivalence suite can assert
//! update ≡ invalidate on results.

use crate::config::ProtoSelect;
use crate::page::PageId;

/// Minimum observed sharers (excluding the home) for an update flip.
pub const MIN_SHARERS: usize = 2;

/// Per-page history at the barrier root. The sharer list stays sorted by
/// node and is at most a cluster's worth of entries long — in practice one
/// to four — so a sorted `Vec` beats any tree.
#[derive(Debug, Default, Clone)]
struct PageHist {
    /// Nodes observed reading the page since the last invalidate decision.
    sharers: Vec<usize>,
    /// Previous decision for this page (for flip counting).
    last_update: bool,
}

impl PageHist {
    fn add_sharers(&mut self, readers: &[usize]) {
        for &n in readers {
            if let Err(i) = self.sharers.binary_search(&n) {
                self.sharers.insert(i, n);
            }
        }
    }
}

/// Migratory home placement for a written page (§5.2.2): a single writer
/// takes the page; several writers leave it with the old home if that is
/// one of them, else with the smallest writer. `writers` must be the
/// root's sorted interval writer list.
pub fn pick_home(writers: &[usize], old_home: usize) -> usize {
    debug_assert!(writers.windows(2).all(|w| w[0] < w[1]));
    if writers.len() == 1 || !writers.contains(&old_home) {
        writers[0]
    } else {
        old_home
    }
}

/// What the departure should prescribe for one written page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoDecision {
    /// `true` → the home pushes the merged page to `sharers`; everyone
    /// else invalidates. `false` → classic invalidate write notice.
    pub update: bool,
    /// Sorted push set (empty unless `update`). Never contains the home.
    pub sharers: Vec<usize>,
    /// Did the page change protocol relative to its previous decision?
    pub flipped: bool,
}

/// Root-side sharer history driving [`ProtoSelect`] (see module docs):
/// indexed by page id and grown to the highest page the barriers have
/// named so far.
#[derive(Debug, Default)]
pub struct ProtocolTable {
    pages: Vec<PageHist>,
}

impl ProtocolTable {
    pub fn new() -> ProtocolTable {
        ProtocolTable::default()
    }

    fn hist(&mut self, page: PageId) -> &mut PageHist {
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, PageHist::default);
        }
        &mut self.pages[page]
    }

    /// Fold one interval's readers of `page` into its sharer history.
    /// Called for *every* page with readers, written or not — a page read
    /// in this interval and written in the next must already know its
    /// audience when the write decision is made.
    pub fn note_readers(&mut self, page: PageId, readers: &[usize]) {
        self.hist(page).add_sharers(readers);
    }

    /// Decide the coherence action for one written page. `readers` is the
    /// interval's sorted reader list for the page (often empty); `new_home`
    /// the home the departure will install (possibly unchanged).
    pub fn decide(
        &mut self,
        mode: ProtoSelect,
        page: PageId,
        readers: &[usize],
        old_home: usize,
        new_home: usize,
    ) -> ProtoDecision {
        let hist = self.hist(page);
        hist.add_sharers(readers);
        // A migrated page's merged bytes land at the *new* home via the
        // existing migration push; sharer pushes would race it, so a
        // migration interval always invalidates.
        let update = mode == ProtoSelect::Update
            && new_home == old_home
            && hist.sharers.iter().filter(|&&n| n != new_home).count() >= MIN_SHARERS;
        let flipped = update != hist.last_update;
        hist.last_update = update;
        let sharers = if update {
            hist.sharers
                .iter()
                .copied()
                .filter(|&n| n != new_home)
                .collect()
        } else {
            // Cached copies are dropped, so the sharer history restarts
            // from the refaults that follow.
            hist.sharers.clear();
            Vec::new()
        };
        ProtoDecision {
            update,
            sharers,
            flipped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const U: ProtoSelect = ProtoSelect::Update;

    #[test]
    fn fresh_multi_writer_tie_keeps_legacy_home_rule() {
        // Multi-writer {1, 3}, old home 5 (not a writer): smallest writer.
        assert_eq!(pick_home(&[1, 3], 5), 1);
        // Multi-writer containing the old home: home keeps the page.
        assert_eq!(pick_home(&[0, 2], 2), 2);
        // Single writer takes the page.
        assert_eq!(pick_home(&[2], 0), 2);
        // Node 0 out-writes home node 1, then nodes {0, 1, 2} write: the
        // home is one of the writers and keeps the page, whatever the
        // intervals before it wrote.
        assert_eq!(pick_home(&[0], 1), 0);
        assert_eq!(pick_home(&[0, 1, 2], 1), 1);
    }

    #[test]
    fn single_writer_with_sharers_flips_to_update() {
        let mut t = ProtocolTable::new();
        // Interval 1: nodes 1, 2, 3 read page 4 (home 0, no writer yet).
        t.note_readers(4, &[1, 2, 3]);
        // Interval 2: node 0 writes; three sharers ≥ MIN_SHARERS → update.
        let d = t.decide(U, 4, &[], 0, 0);
        assert!(d.update);
        assert_eq!(d.sharers, vec![1, 2, 3]);
        assert!(d.flipped, "first update decision is a flip");
        // Steady state: same decision, no new flip.
        let d2 = t.decide(U, 4, &[2], 0, 0);
        assert!(d2.update && !d2.flipped);
    }

    #[test]
    fn too_few_sharers_stays_invalidate() {
        let mut t = ProtocolTable::new();
        t.note_readers(4, &[1]);
        let d = t.decide(U, 4, &[], 0, 0);
        assert!(!d.update, "one sharer is below MIN_SHARERS");
        assert!(!d.flipped);
        // The invalidate cleared the set: a second reader alone, an
        // interval later, does not reach the threshold.
        assert!(!t.decide(U, 4, &[2], 0, 0).update);
        assert!(t.decide(U, 4, &[1, 2], 0, 0).update);
    }

    #[test]
    fn multi_writer_with_sharers_flips_to_update() {
        // Nodes 0 and 1 both write page 5 (home 0, which keeps it); nodes
        // 1, 2 and 3 read it. Node 1 is a writer and a sharer: it is
        // pushed the merged page like the other non-home sharers.
        let mut t = ProtocolTable::new();
        t.note_readers(5, &[1, 2, 3]);
        let d = t.decide(U, 5, &[], 0, pick_home(&[0, 1], 0));
        assert!(d.update && d.flipped);
        assert_eq!(d.sharers, vec![1, 2, 3]);
    }

    #[test]
    fn home_is_never_in_the_push_set() {
        let mut t = ProtocolTable::new();
        t.note_readers(4, &[0, 1, 2]);
        let d = t.decide(U, 4, &[], 1, 1);
        assert!(d.update);
        assert_eq!(d.sharers, vec![0, 2], "home 1 excluded");
    }

    #[test]
    fn migration_interval_always_invalidates() {
        let mut t = ProtocolTable::new();
        t.note_readers(4, &[1, 2, 3]);
        let d = t.decide(U, 4, &[], 0, 2);
        assert!(!d.update, "home moved 0 → 2: must invalidate");
        assert!(d.sharers.is_empty());
    }

    #[test]
    fn invalidate_mode_ignores_history() {
        let mut t = ProtocolTable::new();
        t.note_readers(4, &[1, 2, 3]);
        let d = t.decide(ProtoSelect::Invalidate, 4, &[], 0, 0);
        assert!(!d.update && d.sharers.is_empty());
    }

    /// The rule's known cost, pinned: pushes keep readers' copies valid,
    /// so they never re-fault and the root never learns that one stopped
    /// reading. Its pushes go on until the page's home moves.
    #[test]
    fn a_reader_that_leaves_is_pushed_until_the_home_moves() {
        // Node 0 writes page 4 (its home) every interval; nodes 1, 2 and
        // 3 read it, and node 3 stops after decision LEFT - 1.
        const LEFT: usize = 3;
        const MIGRATION: usize = 10;
        let mut t = ProtocolTable::new();
        t.note_readers(4, &[1, 2, 3]);
        let mut wasted = 0;
        for i in 1..MIGRATION {
            let d = t.decide(U, 4, &[], 0, 0);
            assert!(d.update, "decision {i}");
            wasted += (i >= LEFT && d.sharers.contains(&3)) as usize;
        }
        assert_eq!(
            wasted,
            MIGRATION - LEFT,
            "every push to node 3 after it left"
        );
        // Node 4 writes the page alone and takes its home: invalidate, and
        // the sharer set is cleared.
        let d = t.decide(U, 4, &[], 0, 4);
        assert!(!d.update && d.flipped);
        // Only nodes 1 and 2 re-fault: node 3 is dropped.
        let d = t.decide(U, 4, &[1, 2], 4, 4);
        assert!(d.update && d.flipped);
        assert_eq!(d.sharers, [1, 2]);
    }

    #[test]
    fn decide_stream_is_deterministic() {
        // Same sorted inputs → same decision stream, independent of call
        // interleaving with other pages.
        let run = |other_first: bool| {
            let mut t = ProtocolTable::new();
            let mut log = Vec::new();
            for i in 0..6usize {
                if other_first {
                    t.note_readers(100 + i, &[3]);
                }
                t.note_readers(4, &[1, 2]);
                log.push(t.decide(U, 4, &[1, 2], 0, 0));
                if !other_first {
                    t.note_readers(100 + i, &[3]);
                }
            }
            log
        };
        assert_eq!(run(false), run(true));
    }
}
