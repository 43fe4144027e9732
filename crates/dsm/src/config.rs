//! DSM configuration: protocol variants and the knobs that realize the
//! paper's experimental configurations.

use parade_net::VTime;

/// Home placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HomePolicy {
    /// ParADE's variant: at barrier time a page's home migrates to its
    /// single writer; with multiple writers the current home keeps the page
    /// if it wrote, otherwise the writer with the smallest node id wins
    /// (§5.2.2).
    Migratory,
    /// Conventional HLRC: homes are fixed at first touch (master node), as
    /// in the KDSM baseline.
    Fixed,
}

/// Strategy for solving the atomic page update problem (§5.1).
///
/// In a multi-threaded SDSM, making a page writable in order to install a
/// fetched copy also lets *other* application threads through — they can
/// read a half-updated page. The paper describes four working solutions
/// (all create a second, system-only access path to the physical page) and
/// reports they perform comparably on Linux. `NaiveUnsafe` models the
/// broken single-threaded-era behaviour for demonstration and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateStrategy {
    /// `mmap()` a file twice: application view write-protected, system view
    /// writable (the conventional method; poor on AIX per the paper).
    MmapFile,
    /// System V `shmget`/`shmat` double attachment.
    SysvShm,
    /// The authors' new `mdup()` system call: duplicate page-table entries
    /// for an anonymous region.
    Mdup,
    /// Fork a child sharing the memory; the child provides the second path.
    ForkChild,
    /// No protection during the update: other threads may observe a torn
    /// page (the bug the above strategies fix).
    NaiveUnsafe,
}

impl UpdateStrategy {
    /// Extra virtual time charged per page update, modelling each method's
    /// bookkeeping on the paper's Linux cluster (they are comparable; the
    /// differences are small constants).
    pub fn per_update_overhead(self) -> VTime {
        match self {
            UpdateStrategy::MmapFile => VTime::from_nanos(2_000),
            UpdateStrategy::SysvShm => VTime::from_nanos(2_200),
            UpdateStrategy::Mdup => VTime::from_nanos(1_400),
            UpdateStrategy::ForkChild => VTime::from_nanos(2_800),
            UpdateStrategy::NaiveUnsafe => VTime::from_nanos(600),
        }
    }

    pub fn is_safe(self) -> bool {
        !matches!(self, UpdateStrategy::NaiveUnsafe)
    }

    pub const ALL_SAFE: [UpdateStrategy; 4] = [
        UpdateStrategy::MmapFile,
        UpdateStrategy::SysvShm,
        UpdateStrategy::Mdup,
        UpdateStrategy::ForkChild,
    ];
}

/// Per-page protocol selection policy: which coherence action a barrier
/// departure prescribes for a written page's cached copies.
///
/// The paper fixes the update/invalidate split at a 256 B size threshold
/// (the translator's `DEFAULT_SMALL_THRESHOLD`). `Update` makes that split
/// dynamic per page: the barrier root tracks each page's reader history in
/// virtual time and flips pages between the invalidate protocol (HLRC
/// write notices) and an update protocol (the home broadcasts the merged
/// page to its sharer set, which parks on `BLOCKED` instead of
/// refaulting). Decisions depend only on that history, never on real-time
/// schedules, so results stay bit-identical across modes — the update push
/// and the invalidate refetch install the same merged bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoSelect {
    /// The sharer-threshold rule (the default): a written page with
    /// ≥ [`MIN_SHARERS`](crate::MIN_SHARERS) observed sharers besides its
    /// home is pushed to them, with one writer or several. An interval
    /// that moves the page's home, or a page below the threshold,
    /// invalidates and clears the sharer set.
    Update,
    /// Every written page invalidates its cached copies: the paper's HLRC,
    /// kept as the measurable baseline and run by the `SdsmOnly` cluster.
    Invalidate,
}

/// Cost model of the per-node communication thread.
///
/// `service_penalty` is the scheduling delay before the communication
/// thread can service a request — the knob behind the paper's three
/// execution configurations: with a dedicated CPU (1Thread-2CPU) the
/// penalty is nil; when the communication thread competes with computation
/// for a single CPU (1Thread-1CPU) every remote request eats a scheduling
/// delay, which is why that configuration degrades as node count grows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommCosts {
    /// Scheduling delay before servicing each request.
    pub service_penalty: VTime,
    /// Fixed CPU cost of decoding + handling one message.
    pub base: VTime,
    /// Per-byte CPU cost of copying payload (page copies, diff applies).
    pub per_byte_ns: f64,
}

impl CommCosts {
    pub fn dedicated_cpu() -> Self {
        CommCosts {
            service_penalty: VTime::ZERO,
            base: VTime::from_nanos(1_000),
            per_byte_ns: 3.3,
        }
    }

    pub fn shared_cpu_busy() -> Self {
        // One CPU runs both the computation and the communication thread:
        // a request typically waits out a chunk of the computation thread's
        // scheduling quantum before the communication thread runs.
        CommCosts {
            service_penalty: VTime::from_micros(500),
            base: VTime::from_nanos(1_000),
            per_byte_ns: 3.3,
        }
    }

    pub fn shared_cpu_light() -> Self {
        // Two compute threads + communication thread on two CPUs: the
        // scheduler usually finds a CPU quickly (I/O-boosted wakeup).
        CommCosts {
            service_penalty: VTime::from_micros(30),
            base: VTime::from_nanos(1_000),
            per_byte_ns: 3.3,
        }
    }

    pub fn handling(self, payload_bytes: usize) -> VTime {
        self.base + VTime::from_nanos((self.per_byte_ns * payload_bytes as f64).round() as u64)
    }
}

/// Full DSM configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsmConfig {
    /// Shared pool size per node (virtual; pages are committed lazily by
    /// the OS).
    pub pool_bytes: usize,
    pub home_policy: HomePolicy,
    pub update_strategy: UpdateStrategy,
    pub comm: CommCosts,
    /// Per-page invalidate/update protocol selection (see [`ProtoSelect`]).
    pub proto_select: ProtoSelect,
}

impl Default for DsmConfig {
    fn default() -> Self {
        DsmConfig {
            pool_bytes: 64 << 20,
            home_policy: HomePolicy::Migratory,
            update_strategy: UpdateStrategy::MmapFile,
            comm: CommCosts::dedicated_cpu(),
            proto_select: ProtoSelect::Update,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DsmConfig::default();
        assert_eq!(c.home_policy, HomePolicy::Migratory);
        assert!(c.update_strategy.is_safe());
    }

    #[test]
    fn safe_strategies_cost_comparably() {
        // Paper: "all the methods achieve comparable performance".
        let costs: Vec<u64> = UpdateStrategy::ALL_SAFE
            .iter()
            .map(|s| s.per_update_overhead().as_nanos())
            .collect();
        let max = *costs.iter().max().unwrap();
        let min = *costs.iter().min().unwrap();
        assert!(max <= 2 * min, "strategies should be within 2x: {costs:?}");
    }

    #[test]
    fn comm_cost_presets_order() {
        let busy = CommCosts::shared_cpu_busy();
        let light = CommCosts::shared_cpu_light();
        let dedicated = CommCosts::dedicated_cpu();
        assert!(busy.service_penalty > light.service_penalty);
        assert!(light.service_penalty > dedicated.service_penalty);
        assert!(busy.handling(4096) > busy.handling(16));
    }
}
