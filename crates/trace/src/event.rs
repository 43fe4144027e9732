//! The typed event taxonomy.
//!
//! Every layer of the runtime emits events from one shared enum so the
//! collector can attribute virtual time per construct without string
//! matching. Span kinds carry a Begin/End pair; instant kinds are single
//! points with an argument (page number, byte count, round index, ...).

use parade_net::VTime;

/// What happened. Grouped by the runtime layer that emits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    // --- DSM protocol (application-thread side) ---
    /// Read fault taken (instant; arg = page).
    DsmReadFault,
    /// Write fault taken (instant; arg = page).
    DsmWriteFault,
    /// Twin created on first write to a non-home page (instant; arg = page).
    DsmTwin,
    /// Remote page fetch round-trip (span; arg = page).
    DsmFetch,
    /// Diff shipped to a home (instant; arg = payload bytes).
    DsmDiff,
    /// Per-home diff batch shipped at a release (instant; arg = pages).
    DsmDiffBatch,
    /// Coalesced contiguous-page fetch round-trip (instant; arg = pages).
    DsmRangeFetch,
    /// Page invalidated by a write notice (instant; arg = page).
    DsmInvalidate,
    /// Home migration applied locally (instant; arg = page).
    DsmMigrate,
    /// Full page pushed to a migrated home (instant; arg = page).
    DsmPush,
    /// Dirty-page flush: twin/diff/ship for all dirty pages (span).
    DsmFlush,
    /// SDSM global barrier: arrive + release + write-notice apply (span).
    DsmBarrier,
    /// Distributed lock acquire round-trip(s) (span; arg = lock id).
    DsmLock,
    // --- MPI-like message passing ---
    /// Dissemination barrier (span).
    MpiBarrier,
    /// Binomial-tree broadcast (span; arg = bytes).
    MpiBcast,
    /// Binomial-tree reduction to root (span).
    MpiReduce,
    /// Recursive-doubling allreduce, ⌈log₂P⌉ rounds (span).
    MpiAllreduce,
    /// Gather to root (span; arg = bytes contributed).
    MpiGather,
    /// One send/recv step of a collective (instant; arg = round/mask).
    CollRound,
    // --- OpenMP-level constructs (core runtime) ---
    /// Team barrier, hybrid or SDSM-only (span).
    OmpBarrier,
    /// Critical section incl. distributed lock when cross-node (span).
    OmpCritical,
    /// Reduction, hierarchical or lock-based (span).
    OmpReduction,
    /// Single construct incl. result propagation (span).
    OmpSingle,
    /// One dynamic-loop chunk grab (instant; arg = chunk length).
    OmpForChunk,
    // --- Cluster plumbing ---
    /// Comm thread servicing one request (span; arg = queueing delay ns).
    CommService,
    // --- Fabric reliability (chaos fault injection) ---
    /// One retransmission on the reliable channel (instant; arg = dst node).
    NetRetransmit,
    // --- Task scheduler (parade-tasks) ---
    /// Task created and enqueued or shipped (instant; arg = task id).
    TaskSpawn,
    /// Tasks obtained from a steal reply (instant; arg = tasks stolen).
    TaskSteal,
    /// One task body executing, release included (span; arg = task id).
    TaskExec,
    /// One node's share of a task phase, from the end of its root body to
    /// the merged result: execution, stealing, termination and the result
    /// exchange (span; `task.exec` spans nest inside).
    TaskPhase,
    // --- Static analyzer (paradec check) ---
    /// One MIR pipeline stage: lowering or a dataflow pass (span; arg =
    /// stage id, see `parade-mir`'s `span_arg`).
    CheckAnalyze,
}

impl EventKind {
    /// All kinds, in declaration order (stable for reports).
    pub const ALL: [EventKind; 31] = [
        EventKind::DsmReadFault,
        EventKind::DsmWriteFault,
        EventKind::DsmTwin,
        EventKind::DsmFetch,
        EventKind::DsmDiff,
        EventKind::DsmDiffBatch,
        EventKind::DsmRangeFetch,
        EventKind::DsmInvalidate,
        EventKind::DsmMigrate,
        EventKind::DsmPush,
        EventKind::DsmFlush,
        EventKind::DsmBarrier,
        EventKind::DsmLock,
        EventKind::MpiBarrier,
        EventKind::MpiBcast,
        EventKind::MpiReduce,
        EventKind::MpiAllreduce,
        EventKind::MpiGather,
        EventKind::CollRound,
        EventKind::OmpBarrier,
        EventKind::OmpCritical,
        EventKind::OmpReduction,
        EventKind::OmpSingle,
        EventKind::OmpForChunk,
        EventKind::CommService,
        EventKind::NetRetransmit,
        EventKind::TaskSpawn,
        EventKind::TaskSteal,
        EventKind::TaskExec,
        EventKind::TaskPhase,
        EventKind::CheckAnalyze,
    ];

    /// Stable dotted name, used in Chrome traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::DsmReadFault => "dsm.read_fault",
            EventKind::DsmWriteFault => "dsm.write_fault",
            EventKind::DsmTwin => "dsm.twin",
            EventKind::DsmFetch => "dsm.fetch",
            EventKind::DsmDiff => "dsm.diff",
            EventKind::DsmDiffBatch => "dsm.diff_batch",
            EventKind::DsmRangeFetch => "dsm.range_fetch",
            EventKind::DsmInvalidate => "dsm.invalidate",
            EventKind::DsmMigrate => "dsm.migrate",
            EventKind::DsmPush => "dsm.push",
            EventKind::DsmFlush => "dsm.flush",
            EventKind::DsmBarrier => "dsm.barrier",
            EventKind::DsmLock => "dsm.lock",
            EventKind::MpiBarrier => "mpi.barrier",
            EventKind::MpiBcast => "mpi.bcast",
            EventKind::MpiReduce => "mpi.reduce",
            EventKind::MpiAllreduce => "mpi.allreduce",
            EventKind::MpiGather => "mpi.gather",
            EventKind::CollRound => "mpi.coll_round",
            EventKind::OmpBarrier => "omp.barrier",
            EventKind::OmpCritical => "omp.critical",
            EventKind::OmpReduction => "omp.reduction",
            EventKind::OmpSingle => "omp.single",
            EventKind::OmpForChunk => "omp.for_chunk",
            EventKind::CommService => "comm.service",
            EventKind::NetRetransmit => "net.retransmit",
            EventKind::TaskSpawn => "task.spawn",
            EventKind::TaskSteal => "task.steal",
            EventKind::TaskExec => "task.exec",
            EventKind::TaskPhase => "task.phase",
            EventKind::CheckAnalyze => "check.analyze",
        }
    }

    /// Layer category ("dsm", "mpi", "omp", "comm") for Chrome `cat`.
    pub fn category(self) -> &'static str {
        match self {
            EventKind::DsmReadFault
            | EventKind::DsmWriteFault
            | EventKind::DsmTwin
            | EventKind::DsmFetch
            | EventKind::DsmDiff
            | EventKind::DsmDiffBatch
            | EventKind::DsmRangeFetch
            | EventKind::DsmInvalidate
            | EventKind::DsmMigrate
            | EventKind::DsmPush
            | EventKind::DsmFlush
            | EventKind::DsmBarrier
            | EventKind::DsmLock => "dsm",
            EventKind::MpiBarrier
            | EventKind::MpiBcast
            | EventKind::MpiReduce
            | EventKind::MpiAllreduce
            | EventKind::MpiGather
            | EventKind::CollRound => "mpi",
            EventKind::OmpBarrier
            | EventKind::OmpCritical
            | EventKind::OmpReduction
            | EventKind::OmpSingle
            | EventKind::OmpForChunk => "omp",
            EventKind::CommService => "comm",
            EventKind::NetRetransmit => "net",
            EventKind::TaskSpawn
            | EventKind::TaskSteal
            | EventKind::TaskExec
            | EventKind::TaskPhase => "task",
            EventKind::CheckAnalyze => "check",
        }
    }

    /// True for kinds recorded as Begin/End pairs.
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::DsmFetch
                | EventKind::DsmFlush
                | EventKind::DsmBarrier
                | EventKind::DsmLock
                | EventKind::MpiBarrier
                | EventKind::MpiBcast
                | EventKind::MpiReduce
                | EventKind::MpiAllreduce
                | EventKind::MpiGather
                | EventKind::OmpBarrier
                | EventKind::OmpCritical
                | EventKind::OmpReduction
                | EventKind::OmpSingle
                | EventKind::CommService
                | EventKind::TaskExec
                | EventKind::TaskPhase
                | EventKind::CheckAnalyze
        )
    }
}

/// Span begin / span end / instant marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    Begin,
    End,
    Instant,
}

/// One recorded event. 32 bytes; rings store these by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub kind: EventKind,
    pub phase: Phase,
    /// Kind-specific argument (page, bytes, round, queue delay, ...).
    pub arg: u64,
    /// Virtual timestamp from the emitting thread's `VClock`.
    pub vtime: VTime,
    /// Monotonic host timestamp (ns since the process's first event), for
    /// debugging skew.
    pub wall_ns: u64,
}

/// Who recorded a ring: simulated node id + role label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Identity {
    /// Simulated node id; `u32::MAX` when the thread never tagged itself.
    pub node: u32,
    pub name: String,
}

impl Identity {
    pub const UNTAGGED_NODE: u32 = u32::MAX;

    pub fn untagged() -> Identity {
        Identity {
            node: Identity::UNTAGGED_NODE,
            name: "untagged".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_is_consistent() {
        assert_eq!(EventKind::ALL.len(), 31);
        let mut names = std::collections::HashSet::new();
        for k in EventKind::ALL {
            assert!(names.insert(k.name()), "duplicate name {}", k.name());
            assert!(k.name().starts_with(k.category()));
            assert!(["dsm", "mpi", "omp", "comm", "net", "task", "check"].contains(&k.category()));
        }
    }

    #[test]
    fn span_vs_instant_split() {
        let spans = EventKind::ALL.iter().filter(|k| k.is_span()).count();
        assert_eq!(spans, 17);
        assert!(EventKind::TaskExec.is_span());
        assert!(EventKind::TaskPhase.is_span());
        assert!(!EventKind::TaskSpawn.is_span());
        assert!(EventKind::OmpBarrier.is_span());
        assert!(!EventKind::DsmDiff.is_span());
        assert!(!EventKind::DsmDiffBatch.is_span());
        assert!(!EventKind::DsmRangeFetch.is_span());
        assert!(!EventKind::NetRetransmit.is_span());
    }
}
