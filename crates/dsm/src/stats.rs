//! Per-node DSM protocol counters.

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Live counters (lock-free, updated by protocol code).
        #[derive(Debug, Default)]
        pub struct DsmStats {
            $($(#[$doc])* pub $name: AtomicU64,)+
        }

        /// A point-in-time copy of [`DsmStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct DsmStatsSnapshot {
            $(pub $name: u64,)+
        }

        impl DsmStats {
            pub fn snapshot(&self) -> DsmStatsSnapshot {
                DsmStatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }
        }

        impl DsmStatsSnapshot {
            /// Elementwise sum (for cluster-wide aggregation).
            pub fn merge(&mut self, other: &DsmStatsSnapshot) {
                $(self.$name += other.$name;)+
            }

            /// `(name, value)` pairs in declaration order, for generic
            /// rendering and JSON emission.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)+]
            }
        }
    };
}

counters! {
    /// Read faults taken (page not locally readable).
    read_faults,
    /// Write faults taken (page not locally writable).
    write_faults,
    /// Pages fetched from a remote home.
    page_fetches,
    /// Bytes of page data fetched.
    fetch_bytes,
    /// Twins created on first write to a non-home page.
    twins_created,
    /// Diffs shipped to homes (one per dirty page, inside `DiffBatch`es).
    diffs_sent,
    /// Wire bytes of diff messages shipped (encoded message payloads —
    /// what the fabric actually carries, for overhead attribution).
    diff_bytes,
    /// Modified bytes carried inside those diffs (run data only; the
    /// wire-vs-payload gap is the protocol's framing overhead).
    diff_payload_bytes,
    /// DiffBatch messages sent (one per destination home per release).
    diff_batches,
    /// Fetches of two or more contiguous pages (coalesced bulk-read
    /// misses); a one-page fetch is a plain read or write fault.
    range_fetches,
    /// Pages those fetches carried (also counted in `page_fetches`).
    range_fetch_pages,
    /// Pages invalidated by write notices.
    invalidations,
    /// Home migrations applied (counted at the node gaining home-ship).
    home_migrations,
    /// Global barriers completed.
    barriers,
    /// Distributed lock acquisitions.
    lock_acquires,
    /// Requests serviced by this node's communication thread.
    serviced_requests,
    /// Full pages pushed to migrated homes.
    pushes_sent,
    /// Threads that blocked on an in-flight page update
    /// (TRANSIENT/BLOCKED waits — the §5.1 machinery at work).
    update_waits,
    /// Always 0 since the stride prefetcher was deleted; kept, with
    /// `prefetch_hits`, only because `benchmark/src/sut.rs` names both. The
    /// next `[benchmark]` PR drops them and the `dsm.prefetch_*` columns.
    prefetch_pages,
    /// Always 0; see `prefetch_pages`.
    prefetch_hits,
    /// Pages whose merged copy the home pushed to sharers under the update
    /// protocol (also counted in `pushes_sent`).
    update_pushes,
    /// Barrier-time protocol flips decided for pages (invalidate↔update;
    /// counted at the root making the decision).
    proto_flips,
    /// Diffs merged into this node's home copies (cluster-wide it equals
    /// `diffs_sent`: every diff merges exactly once).
    diff_merges,
    /// Region checkpoints taken (barrier-time snapshots for re-homing).
    checkpoints,
    /// Bytes captured into checkpoints.
    checkpoint_bytes,
    /// Region restores applied from a checkpoint after a re-home.
    restores,
    /// Bytes written back by restores.
    restore_bytes,
}

impl DsmStats {
    pub fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_merge() {
        let s = DsmStats::default();
        s.read_faults.fetch_add(3, Ordering::Relaxed);
        s.diff_bytes.fetch_add(100, Ordering::Relaxed);
        let mut a = s.snapshot();
        assert_eq!(a.read_faults, 3);
        let b = s.snapshot();
        a.merge(&b);
        assert_eq!(a.read_faults, 6);
        assert_eq!(a.diff_bytes, 200);
        assert_eq!(a.barriers, 0);
    }
}
