//! Pages, page states, and the state machine of paper Figure 5.

/// Size of a shared-memory page. The paper's testbed uses IA-32 4 KiB pages.
pub const PAGE_SIZE: usize = 4096;

/// Index of a page within the shared pool.
pub type PageId = usize;

/// Page state (paper §5.2.3, Figure 5); copies start `READ_ONLY` ([`crate::Dsm::new`]).
///
/// `TRANSIENT` and `BLOCKED` exist because ParADE is *multi-threaded*: they
/// solve the atomic page update problem (§5.1) by making threads that touch
/// a page mid-update wait until the updating thread finishes, instead of
/// reading a half-copied page through the prematurely-writable mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PageState {
    /// Stale (a write notice named the page); access faults and fetches.
    Invalid = 0,
    /// A thread is fetching/updating this page; the update is not complete.
    Transient = 1,
    /// Like `Transient`, but other threads are queued waiting for the
    /// update to complete and must be woken afterwards.
    Blocked = 2,
    /// Valid and clean: reads hit locally, writes fault (to create a twin
    /// and a write notice).
    ReadOnly = 3,
    /// Valid and locally modified during the current interval.
    Dirty = 4,
}

impl PageState {
    pub fn from_u8(v: u8) -> PageState {
        match v {
            0 => PageState::Invalid,
            1 => PageState::Transient,
            2 => PageState::Blocked,
            3 => PageState::ReadOnly,
            4 => PageState::Dirty,
            _ => unreachable!("invalid page state {v}"),
        }
    }

    /// Reads are locally satisfiable in these states.
    pub fn readable(self) -> bool {
        matches!(self, PageState::ReadOnly | PageState::Dirty)
    }

    /// Writes are locally satisfiable only when already dirty.
    pub fn writable(self) -> bool {
        matches!(self, PageState::Dirty)
    }

    /// Whether `self -> next` is a legal transition of the Figure 5 state
    /// machine (used by debug assertions and property tests).
    pub fn can_transition(self, next: PageState) -> bool {
        use PageState::*;
        match (self, next) {
            // Fault on an absent page begins an update.
            (Invalid, Transient) => true,
            // More threads pile up on an in-flight update.
            (Transient, Blocked) => true,
            // Update completes (no waiters / with waiters to wake).
            (Transient, ReadOnly) | (Blocked, ReadOnly) => true,
            // A write fault upgrades a clean page (twin creation).
            (ReadOnly, Dirty) => true,
            // Flush at a release point downgrades to clean.
            (Dirty, ReadOnly) => true,
            // Write notices invalidate clean or merged copies.
            (ReadOnly, Invalid) | (Dirty, Invalid) => true,
            // A freshly fetched page may be dirtied immediately (write
            // fault that triggered the fetch).
            (Transient, Dirty) | (Blocked, Dirty) => true,
            // A new home awaiting a migration push parks the page — from
            // Invalid, or from ReadOnly when the new home was itself one
            // of the writers (its copy misses the other writers' diffs
            // until the old home pushes the merged page).
            (Invalid, Blocked) | (ReadOnly, Blocked) => true,
            _ => false,
        }
    }
}

/// Map a byte offset in the pool to its page.
pub fn page_of(offset: usize) -> PageId {
    offset / PAGE_SIZE
}

/// First byte offset of `page`.
pub fn page_start(page: PageId) -> usize {
    page * PAGE_SIZE
}

/// The inclusive page range covering `offset .. offset + len`.
pub fn pages_covering(offset: usize, len: usize) -> std::ops::RangeInclusive<PageId> {
    if len == 0 {
        let p = page_of(offset);
        return p..=p;
    }
    page_of(offset)..=page_of(offset + len - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_roundtrip() {
        for s in [
            PageState::Invalid,
            PageState::Transient,
            PageState::Blocked,
            PageState::ReadOnly,
            PageState::Dirty,
        ] {
            assert_eq!(PageState::from_u8(s as u8), s);
        }
    }

    #[test]
    fn readable_writable() {
        assert!(PageState::ReadOnly.readable());
        assert!(PageState::Dirty.readable());
        assert!(!PageState::Invalid.readable());
        assert!(!PageState::Transient.readable());
        assert!(PageState::Dirty.writable());
        assert!(!PageState::ReadOnly.writable());
    }

    #[test]
    fn figure5_transitions() {
        use PageState::*;
        assert!(Invalid.can_transition(Transient));
        assert!(Transient.can_transition(Blocked));
        assert!(Blocked.can_transition(ReadOnly));
        assert!(ReadOnly.can_transition(Dirty));
        assert!(Dirty.can_transition(ReadOnly));
        assert!(ReadOnly.can_transition(Invalid));
        // Illegal examples.
        assert!(!Invalid.can_transition(Dirty));
        assert!(!Invalid.can_transition(ReadOnly));
        assert!(!Dirty.can_transition(Transient));
        assert!(!ReadOnly.can_transition(Transient));
    }

    #[test]
    fn page_math() {
        assert_eq!(page_of(0), 0);
        assert_eq!(page_of(PAGE_SIZE - 1), 0);
        assert_eq!(page_of(PAGE_SIZE), 1);
        assert_eq!(page_start(3), 3 * PAGE_SIZE);
        assert_eq!(pages_covering(0, PAGE_SIZE), 0..=0);
        assert_eq!(pages_covering(0, PAGE_SIZE + 1), 0..=1);
        assert_eq!(pages_covering(PAGE_SIZE - 1, 2), 0..=1);
        assert_eq!(pages_covering(100, 0), 0..=0);
    }
}
