//! SMP-aware collective topology: which communicator ranks share a node.
//!
//! ParADE targets clusters *of SMPs*: several ranks may be co-located on
//! one physical node, where message passing through the fabric is strictly
//! worse than combining through shared memory. A [`CollectiveTopology`]
//! records that placement as a partition of the communicator's ranks into
//! groups (one group per SMP node). Each group's lowest rank is its
//! **leader**; two-level collectives combine within a group through a
//! shared-memory exchange (built on [`VBarrier`], so virtual time is
//! reconciled exactly like an intra-node pthread barrier) and only the
//! leaders talk over the fabric.
//!
//! The topology owns the per-group shared state, so one instance must be
//! created per communicator world and shared (via `Arc`) by every rank's
//! [`crate::Communicator`].

use std::collections::HashMap;

use parade_net::sync::{Condvar, Mutex};
use parade_net::{Bytes, VBarrier, VClock, VTime};

/// Placement of communicator ranks onto SMP nodes, plus the shared-memory
/// exchange state used by the two-level collective algorithms.
pub struct CollectiveTopology {
    /// rank → index of its group.
    group_of: Vec<usize>,
    /// rank → position within its (ascending-sorted) group.
    member_idx: Vec<usize>,
    groups: Vec<Group>,
    /// Leader rank of every group, ascending. The inter-node phase runs
    /// over these ranks only.
    leaders: Vec<usize>,
    /// rank → position in `leaders` (leaders only).
    leader_pos: Vec<Option<usize>>,
}

struct Group {
    /// Member ranks, ascending; `members[0]` is the leader.
    members: Vec<usize>,
    shared: GroupShared,
}

/// Shared-memory exchange state for one group: an intra-node barrier for
/// the combine, and per-collective round slots for contributions flowing
/// up to the leader and the result flowing back down.
struct GroupShared {
    barrier: VBarrier,
    rounds: Mutex<HashMap<u64, RoundState>>,
    cv: Condvar,
}

struct RoundState {
    /// Per-member contribution, indexed by position within the group.
    contrib: Vec<Option<Vec<u8>>>,
    /// Leader's result and the virtual time it was published at.
    result: Option<(Bytes, VTime)>,
    /// Members that have consumed the result; the round is reclaimed once
    /// all of them have.
    taken: usize,
}

impl RoundState {
    fn new(n: usize) -> Self {
        RoundState {
            contrib: vec![None; n],
            result: None,
            taken: 0,
        }
    }
}

impl CollectiveTopology {
    /// Every rank on its own node: no co-location, no shared-memory phase.
    pub fn flat(size: usize) -> Self {
        CollectiveTopology::uniform(size, 1)
    }

    /// Consecutive ranks share a node in blocks of `width` (the last block
    /// may be smaller when `size` is not a multiple).
    pub fn uniform(size: usize, width: usize) -> Self {
        assert!(width > 0, "group width must be positive");
        let groups = (0..size)
            .step_by(width)
            .map(|lo| (lo..(lo + width).min(size)).collect())
            .collect();
        CollectiveTopology::from_groups(size, groups)
    }

    /// Explicit placement: `groups` must partition `0..size` into
    /// non-empty sets (order within and between groups is irrelevant; each
    /// group is sorted and the group list is ordered by leader rank).
    pub fn from_groups(size: usize, groups: Vec<Vec<usize>>) -> Self {
        let mut sorted: Vec<Vec<usize>> = groups
            .into_iter()
            .map(|mut g| {
                assert!(!g.is_empty(), "empty rank group");
                g.sort_unstable();
                g
            })
            .collect();
        sorted.sort_unstable_by_key(|g| g[0]);
        let mut group_of = vec![usize::MAX; size];
        let mut member_idx = vec![0usize; size];
        for (gi, g) in sorted.iter().enumerate() {
            for (mi, &r) in g.iter().enumerate() {
                assert!(r < size, "rank {r} out of range for size {size}");
                assert!(
                    group_of[r] == usize::MAX,
                    "rank {r} appears in more than one group"
                );
                group_of[r] = gi;
                member_idx[r] = mi;
            }
        }
        assert!(
            group_of.iter().all(|&g| g != usize::MAX),
            "groups must cover every rank in 0..{size}"
        );
        let leaders: Vec<usize> = sorted.iter().map(|g| g[0]).collect();
        let mut leader_pos = vec![None; size];
        for (p, &l) in leaders.iter().enumerate() {
            leader_pos[l] = Some(p);
        }
        let groups = sorted
            .into_iter()
            .map(|members| {
                let n = members.len();
                Group {
                    members,
                    shared: GroupShared {
                        barrier: VBarrier::new(n),
                        rounds: Mutex::new(HashMap::new()),
                        cv: Condvar::new(),
                    },
                }
            })
            .collect();
        CollectiveTopology {
            group_of,
            member_idx,
            groups,
            leaders,
            leader_pos,
        }
    }

    /// Number of ranks covered by this topology.
    pub fn size(&self) -> usize {
        self.group_of.len()
    }

    /// Number of SMP-node groups (= number of leaders).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// True when every group is a singleton: there is nothing to combine
    /// through shared memory, so the communicator skips the group phase and
    /// runs the fabric phase over every rank.
    pub fn is_flat(&self) -> bool {
        self.groups.len() == self.group_of.len()
    }

    /// Leader ranks, ascending.
    pub fn leaders(&self) -> &[usize] {
        &self.leaders
    }

    pub fn group_of(&self, rank: usize) -> usize {
        self.group_of[rank]
    }

    /// Member ranks of `rank`'s group, ascending.
    pub fn group_members(&self, rank: usize) -> &[usize] {
        &self.groups[self.group_of[rank]].members
    }

    /// The elected leader of `rank`'s group (its lowest rank).
    pub fn leader_of(&self, rank: usize) -> usize {
        self.groups[self.group_of[rank]].members[0]
    }

    pub fn is_leader(&self, rank: usize) -> bool {
        self.leader_of(rank) == rank
    }

    /// Position of `rank` within its group's sorted member list.
    pub(crate) fn member_index(&self, rank: usize) -> usize {
        self.member_idx[rank]
    }

    /// Position of leader `rank` in [`CollectiveTopology::leaders`].
    pub(crate) fn leader_position(&self, rank: usize) -> usize {
        self.leader_pos[rank].expect("rank is not a group leader")
    }

    // ---- shared-memory exchange ----------------------------------------

    /// Upward half of the intra-group combine: deposit this rank's
    /// contribution (if any) for collective `seq`, then synchronize the
    /// whole group through the shared-memory barrier. Returns the group's
    /// contributions (in member order) on the leader, `None` elsewhere.
    pub(crate) fn deposit_and_sync(
        &self,
        rank: usize,
        seq: u64,
        contrib: Option<Vec<u8>>,
        clock: &mut VClock,
    ) -> Option<Vec<Option<Vec<u8>>>> {
        let g = &self.groups[self.group_of[rank]];
        {
            let mut rounds = g.shared.rounds.lock();
            let st = rounds
                .entry(seq)
                .or_insert_with(|| RoundState::new(g.members.len()));
            if let Some(c) = contrib {
                st.contrib[self.member_idx[rank]] = Some(c);
            }
        }
        g.shared.barrier.wait(clock);
        if self.is_leader(rank) {
            let mut rounds = g.shared.rounds.lock();
            let st = rounds.get_mut(&seq).expect("round state deposited");
            Some(std::mem::take(&mut st.contrib))
        } else {
            None
        }
    }

    /// Downward half, leader side: publish the result of collective `seq`
    /// (stamped with the leader's current virtual time) and wake the
    /// group. Returns the leader's own copy.
    pub(crate) fn publish(
        &self,
        rank: usize,
        seq: u64,
        result: Bytes,
        clock: &mut VClock,
    ) -> Bytes {
        debug_assert!(self.is_leader(rank));
        let g = &self.groups[self.group_of[rank]];
        let mut rounds = g.shared.rounds.lock();
        let st = rounds.get_mut(&seq).expect("round state deposited");
        st.result = Some((result, clock.now()));
        g.shared.cv.notify_all();
        Self::take_locked(&mut rounds, g.members.len(), seq).0
    }

    /// Downward half, non-leader side: wait for the leader to publish,
    /// advance this rank's clock to the publish time, take the result.
    pub(crate) fn collect(&self, rank: usize, seq: u64, clock: &mut VClock) -> Bytes {
        debug_assert!(!self.is_leader(rank));
        let g = &self.groups[self.group_of[rank]];
        let mut rounds = g.shared.rounds.lock();
        while rounds.get(&seq).is_none_or(|st| st.result.is_none()) {
            g.shared.cv.wait(&mut rounds);
        }
        let (b, at) = Self::take_locked(&mut rounds, g.members.len(), seq);
        drop(rounds);
        clock.sync_to(at);
        b
    }

    fn take_locked(
        rounds: &mut HashMap<u64, RoundState>,
        members: usize,
        seq: u64,
    ) -> (Bytes, VTime) {
        let st = rounds.get_mut(&seq).expect("round state present");
        let (b, at) = st.result.clone().expect("result published");
        st.taken += 1;
        if st.taken == members {
            rounds.remove(&seq);
        }
        (b, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_blocks_and_leaders() {
        let t = CollectiveTopology::uniform(10, 4);
        assert_eq!(t.size(), 10);
        assert_eq!(t.num_groups(), 3);
        assert_eq!(t.leaders(), &[0, 4, 8]);
        assert_eq!(t.group_members(5), &[4, 5, 6, 7]);
        assert_eq!(t.group_members(9), &[8, 9]);
        assert_eq!(t.leader_of(9), 8);
        assert!(t.is_leader(4));
        assert!(!t.is_leader(5));
        assert!(!t.is_flat());
        assert_eq!(t.leader_position(8), 2);
        assert_eq!(t.member_index(6), 2);
    }

    #[test]
    fn flat_topology_is_flat() {
        let t = CollectiveTopology::flat(5);
        assert!(t.is_flat());
        assert_eq!(t.num_groups(), 5);
        assert_eq!(t.leaders(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn from_groups_sorts_members_and_groups() {
        let t = CollectiveTopology::from_groups(6, vec![vec![5, 3], vec![0, 4, 1], vec![2]]);
        assert_eq!(t.leaders(), &[0, 2, 3]);
        assert_eq!(t.group_members(4), &[0, 1, 4]);
        assert_eq!(t.group_members(5), &[3, 5]);
        assert_eq!(t.leader_of(5), 3);
    }

    #[test]
    #[should_panic(expected = "more than one group")]
    fn duplicate_rank_rejected() {
        CollectiveTopology::from_groups(3, vec![vec![0, 1], vec![1, 2]]);
    }

    #[test]
    #[should_panic(expected = "cover every rank")]
    fn missing_rank_rejected() {
        CollectiveTopology::from_groups(3, vec![vec![0, 1]]);
    }

    #[test]
    fn exchange_moves_contributions_up_and_result_down() {
        use std::sync::Arc;
        let t = Arc::new(CollectiveTopology::uniform(3, 3));
        let handles: Vec<_> = (0..3)
            .map(|rank| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    let mut clk = VClock::manual();
                    let up = t.deposit_and_sync(rank, 7, Some(vec![rank as u8]), &mut clk);
                    if rank == 0 {
                        let up = up.expect("leader sees contributions");
                        let all: Vec<u8> =
                            up.into_iter().map(|c| c.expect("deposited")[0]).collect();
                        assert_eq!(all, vec![0, 1, 2]);
                        t.publish(rank, 7, Bytes::copy_from_slice(&[9]), &mut clk)
                    } else {
                        assert!(up.is_none());
                        t.collect(rank, 7, &mut clk)
                    }
                })
            })
            .collect();
        for h in handles {
            assert_eq!(&h.join().unwrap()[..], &[9]);
        }
        // All rounds reclaimed.
        assert!(t.groups[0].shared.rounds.lock().is_empty());
    }
}
