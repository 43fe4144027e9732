//! Barrier-time per-page protocol selection (invalidate vs. update) and
//! the §5.2.2 migratory home rule.
//!
//! The paper fixes the update/invalidate split at a static 256 B size
//! threshold. This module makes the split dynamic *per page*: the barrier
//! root keeps a [`ProtocolTable`] of every page's writer and sharer
//! history, and each departure decides — page by page — whether cached
//! copies should be invalidated (classic HLRC write notice) or receive a
//! push of the merged page from its home (update protocol). A page whose
//! sharer set keeps re-faulting the same data after every barrier is
//! cheaper to update in place, so a written page updates once it has at
//! least [`MIN_SHARERS`] sharers besides its home, however many nodes
//! wrote it: the home merges every writer's diff before it pushes, so a
//! page shared by two writers (CG's partition-boundary pages) reaches its
//! readers the same way as a single-writer one. An interval that moves
//! the page's home always invalidates; a migratory page bouncing between
//! writers therefore stays on invalidate.
//!
//! An update page is re-probed now and then: a probation demotes one update
//! decision to an invalidate so that readers which left stop receiving
//! pushes. A probation that finds the same readers again was wasted, so
//! the page's next one waits twice as long (see [`PROBATION`]); a page
//! whose readers never change, like CG's vectors, is probed ever more
//! rarely, and one whose readers move is probed every `PROBATION`
//! decisions.
//!
//! Everything is decided from the aggregated, *sorted* arrival data the
//! root already holds, so the decision stream is a pure function of the
//! program's barrier history: runs replay bit-identically regardless of
//! real-time message schedules, and the equivalence suite can assert
//! adaptive ≡ all-invalidate ≡ all-update on results.

use crate::config::ProtoSelect;
use crate::page::PageId;

/// Update decisions between probation rounds, to begin with: the
/// `PROBATION`-th update decision in a row for a page is demoted to an
/// invalidate that clears the sharer set, forcing still-interested readers
/// to re-fault (and thereby re-measure real readership) before the page
/// can flip back.
///
/// The page's next decision compares the re-measured set with the cleared
/// one. If it is an update to the same set, the period doubles
/// (`PROBATION`, 2·`PROBATION`, 4·`PROBATION`, …); a smaller, larger or
/// other set, or an invalidate, puts it back to `PROBATION`. A reader that
/// leaves is still dropped at the next probation: it receives at most one
/// period of wasted pushes, about as many as the useful pushes of the
/// rounds that grew the period. That bounds `AllUpdate`'s pathology of
/// pushing to a departed reader forever.
pub const PROBATION: u32 = 4;

/// Minimum observed sharers (excluding the home) for an update flip.
pub const MIN_SHARERS: usize = 2;

/// Per-page history at the barrier root. The sharer list stays sorted by
/// node and is at most a cluster's worth of entries long — in practice one
/// to four — so a sorted `Vec` beats any tree.
#[derive(Debug, Default, Clone)]
struct PageHist {
    /// Nodes observed reading the page since the last invalidate decision.
    sharers: Vec<usize>,
    /// Update decisions since the last probation invalidate.
    update_streak: u32,
    /// Previous decision for this page (for flip counting).
    last_update: bool,
    /// Update decisions per probation round: `PROBATION`, doubled each
    /// time a probation re-measures the same sharer set (0 reads as
    /// `PROBATION`).
    period: u32,
    /// The sharer set the last probation cleared, until the page's next
    /// decision compares the re-measured set with it.
    probed: Option<Vec<usize>>,
}

impl PageHist {
    fn period(&self) -> u32 {
        self.period.max(PROBATION)
    }

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

impl ProtoDecision {
    fn invalidate(flipped: bool) -> ProtoDecision {
        ProtoDecision {
            update: false,
            sharers: Vec::new(),
            flipped,
        }
    }
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
        let migrated = new_home != old_home;
        let want_update = match mode {
            ProtoSelect::AllInvalidate => false,
            // A migrated page's merged bytes land at the *new* home via the
            // existing migration push; sharer pushes would race it, so a
            // migration interval always invalidates.
            _ if migrated => false,
            ProtoSelect::AllUpdate => true,
            ProtoSelect::Adaptive => {
                hist.sharers.iter().filter(|&&n| n != new_home).count() >= MIN_SHARERS
            }
        };
        // The first decision after a probation settles the next period:
        // the same readers came back, so the probation was wasted and the
        // next one waits twice as long; anything else starts over.
        if let Some(probed) = hist.probed.take() {
            hist.period = if want_update && probed == hist.sharers {
                hist.period().saturating_mul(2)
            } else {
                PROBATION
            };
        }
        let probation =
            mode == ProtoSelect::Adaptive && want_update && hist.update_streak + 1 >= hist.period();
        if want_update && !probation {
            hist.update_streak += 1;
            let flipped = !hist.last_update;
            hist.last_update = true;
            ProtoDecision {
                update: true,
                sharers: hist
                    .sharers
                    .iter()
                    .copied()
                    .filter(|&n| n != new_home)
                    .collect(),
                flipped,
            }
        } else {
            // Invalidate: cached copies are dropped, so the sharer history
            // restarts from the refaults that follow. `AllUpdate` keeps its
            // ever-growing set (its defining pathology); plain
            // adaptive/legacy invalidates clear it, and a probation sets it
            // aside for the next decision to compare with.
            hist.update_streak = 0;
            if probation {
                hist.probed = Some(std::mem::take(&mut hist.sharers));
            } else {
                hist.period = PROBATION;
                if mode != ProtoSelect::AllUpdate {
                    hist.sharers.clear();
                }
            }
            let flipped = hist.last_update;
            hist.last_update = false;
            ProtoDecision::invalidate(flipped)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ProtoSelect = ProtoSelect::Adaptive;

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
        let d = t.decide(A, 4, &[], 0, 0);
        assert!(d.update);
        assert_eq!(d.sharers, vec![1, 2, 3]);
        assert!(d.flipped, "first update decision is a flip");
        // Steady state: same decision, no new flip.
        let d2 = t.decide(A, 4, &[2], 0, 0);
        assert!(d2.update && !d2.flipped);
    }

    #[test]
    fn too_few_sharers_stays_invalidate() {
        let mut t = ProtocolTable::new();
        t.note_readers(4, &[1]);
        let d = t.decide(A, 4, &[], 0, 0);
        assert!(!d.update, "one sharer is below MIN_SHARERS");
        assert!(!d.flipped);
    }

    #[test]
    fn multi_writer_with_sharers_flips_to_update() {
        // Nodes 0 and 1 both write page 5 (home 0, which keeps it); nodes
        // 1, 2 and 3 read it. Node 1 is a writer and a sharer: it is
        // pushed the merged page like the other non-home sharers.
        let mut t = ProtocolTable::new();
        t.note_readers(5, &[1, 2, 3]);
        let d = t.decide(A, 5, &[], 0, pick_home(&[0, 1], 0));
        assert!(d.update && d.flipped);
        assert_eq!(d.sharers, vec![1, 2, 3]);
    }

    #[test]
    fn home_is_never_in_the_push_set() {
        let mut t = ProtocolTable::new();
        t.note_readers(4, &[0, 1, 2]);
        let d = t.decide(A, 4, &[], 1, 1);
        assert!(d.update);
        assert_eq!(d.sharers, vec![0, 2], "home 1 excluded");
    }

    #[test]
    fn probation_invalidates_every_fourth_update_decision() {
        let mut t = ProtocolTable::new();
        t.note_readers(4, &[1, 2]);
        let mut updates = 0;
        let mut invals = 0;
        for i in 0..PROBATION {
            // Readers keep re-reading each interval, so after each
            // probation clear the set re-fills.
            let d = t.decide(A, 4, &[1, 2], 0, 0);
            if d.update {
                updates += 1;
            } else {
                invals += 1;
                assert_eq!(i, PROBATION - 1, "only the 4th decision demotes");
                assert!(d.flipped);
            }
        }
        assert_eq!((updates, invals), (PROBATION - 1, 1));
        // The probation interval's readers refill the set → flips back.
        let d = t.decide(A, 4, &[1, 2], 0, 0);
        assert!(d.update && d.flipped);
    }

    #[test]
    fn probation_without_refault_falls_back_for_good() {
        let mut t = ProtocolTable::new();
        t.note_readers(4, &[1, 2]);
        for _ in 0..PROBATION - 1 {
            assert!(t.decide(A, 4, &[], 0, 0).update);
        }
        // Probation clears sharers; nobody re-reads → invalidate forever.
        assert!(!t.decide(A, 4, &[], 0, 0).update);
        for _ in 0..3 {
            let d = t.decide(A, 4, &[], 0, 0);
            assert!(!d.update && !d.flipped);
        }
    }

    #[test]
    fn migration_interval_always_invalidates() {
        let mut t = ProtocolTable::new();
        t.note_readers(4, &[1, 2, 3]);
        let d = t.decide(A, 4, &[], 0, 2);
        assert!(!d.update, "home moved 0 → 2: must invalidate");
        assert!(d.sharers.is_empty());
    }

    #[test]
    fn static_modes_ignore_history() {
        let mut t = ProtocolTable::new();
        t.note_readers(4, &[1, 2, 3]);
        let d = t.decide(ProtoSelect::AllInvalidate, 4, &[], 0, 0);
        assert!(!d.update && d.sharers.is_empty());
        // AllUpdate pushes even to a single sharer, and its sharer set
        // only ever grows (no probation).
        let mut u = ProtocolTable::new();
        u.note_readers(4, &[1]);
        for _ in 0..2 * PROBATION {
            let d = u.decide(ProtoSelect::AllUpdate, 4, &[], 0, 0);
            assert!(d.update);
            assert_eq!(d.sharers, vec![1]);
        }
        u.note_readers(4, &[2]);
        let d = u.decide(ProtoSelect::AllUpdate, 4, &[], 0, 0);
        assert_eq!(d.sharers, vec![1, 2], "AllUpdate accumulates forever");
    }

    /// Drive `n` write decisions of page 4 (node 0 writes and is home)
    /// under `mode`. Pushes keep the readers' copies valid, so they
    /// re-fault only in the interval after a probation, as `refault(i)`
    /// (`refault(0)`: the first readers). Returns the probation decisions
    /// (counted from 1) and every decision's push set.
    fn drive(
        mode: ProtoSelect,
        n: u32,
        refault: impl Fn(u32) -> Vec<usize>,
    ) -> (Vec<u32>, Vec<Vec<usize>>) {
        let mut t = ProtocolTable::new();
        t.note_readers(4, &refault(0));
        let (mut probes, mut pushes) = (Vec::new(), Vec::new());
        for i in 1..=n {
            let readers = if probes.last() == Some(&(i - 1)) {
                refault(i)
            } else {
                Vec::new()
            };
            let d = t.decide(mode, 4, &readers, 0, 0);
            if !d.update {
                probes.push(i);
            }
            pushes.push(d.sharers);
        }
        (probes, pushes)
    }

    #[test]
    fn stable_readers_double_the_probation_period() {
        let (probes, pushes) = drive(A, 60, |_| vec![1, 2]);
        assert_eq!(probes, [4, 12, 28, 60]);
        for (i, p) in pushes.iter().enumerate() {
            let expect: &[usize] = if probes.contains(&(i as u32 + 1)) {
                &[]
            } else {
                &[1, 2]
            };
            assert_eq!(p, expect, "decision {}", i + 1);
        }
    }

    #[test]
    fn a_reader_that_leaves_resets_the_period() {
        // Reader 3 stops reading at decision 14, in a period of 16.
        const LEFT: u32 = 14;
        let (probes, pushes) = drive(A, 40, |i| if i < LEFT { vec![1, 2, 3] } else { vec![1, 2] });
        assert_eq!(probes, [4, 12, 28, 32, 40], "16 → back to 4 → 8");
        let wasted = pushes[LEFT as usize - 1..]
            .iter()
            .filter(|p| p.contains(&3))
            .count();
        assert_eq!(wasted, 14, "decisions 14..=27");
        assert!(wasted <= 16, "no more than the period it left in");
        assert!(pushes[28..].iter().all(|p| !p.contains(&3)));
    }

    #[test]
    fn a_new_reader_resets_the_period() {
        // Reader 3 first shows up in the re-measure after decision 28.
        let (probes, pushes) = drive(A, 40, |i| if i < 14 { vec![1, 2] } else { vec![1, 2, 3] });
        assert_eq!(probes, [4, 12, 28, 32, 40]);
        assert_eq!(pushes[28], [1, 2, 3], "decision 29 pushes to it");
    }

    #[test]
    fn fixed_modes_decide_as_without_the_backoff() {
        let moving = |i: u32| if i < 14 { vec![1, 2, 3] } else { vec![1, 2] };
        let (probes, pushes) = drive(ProtoSelect::AllUpdate, 40, moving);
        assert!(probes.is_empty());
        assert!(pushes.iter().all(|p| p == &[1, 2, 3]));
        let (probes, pushes) = drive(ProtoSelect::AllInvalidate, 40, moving);
        assert_eq!(probes, (1..=40).collect::<Vec<_>>());
        assert!(pushes.iter().all(|p| p.is_empty()));
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
                log.push(t.decide(A, 4, &[1, 2], 0, 0));
                if !other_first {
                    t.note_readers(100 + i, &[3]);
                }
            }
            log
        };
        assert_eq!(run(false), run(true));
    }
}
