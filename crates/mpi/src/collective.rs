//! Collective operations.
//!
//! ParADE only strictly needs `MPI_Bcast` and `MPI_Allreduce` (§5.3), plus
//! barrier for the runtime; `reduce`, `gather` and `allgather` are provided
//! for the MPI baseline versions of the benchmarks. Algorithms are the
//! classic tree/dissemination schemes so message counts grow as
//! `O(P log P)` — the property that makes collectives cheaper than
//! lock-based SDSM synchronization as the node count grows.

use parade_net::Bytes;

use parade_net::VClock;
use parade_trace::{self as trace, EventKind};

use crate::comm::Communicator;
use crate::datatype;
use crate::topology::CollectiveTopology;

/// Reduction operators for typed allreduce/reduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Prod,
    Min,
    Max,
}

impl ReduceOp {
    pub fn fold_f64(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Prod => a * b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    pub fn fold_i64(self, a: i64, b: i64) -> i64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Prod => a.wrapping_mul(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

// Phase labels inside one collective sequence number.
const PH_BARRIER_BASE: u8 = 0; // rounds 0..15 (phase = round)
const PH_BCAST: u8 = 0;
const PH_REDUCE: u8 = 1;
const PH_ALLRED_BCAST: u8 = 2;
const PH_GATHER: u8 = 3;

/// The ranks a fabric phase runs over, addressed by position, and this
/// rank's position among them: every rank of the communicator, or the
/// group leaders of an SMP topology.
#[derive(Clone, Copy)]
struct Ranks<'a> {
    /// `None`: every rank, at its own position.
    leaders: Option<&'a [usize]>,
    n: usize,
    pos: usize,
}

impl<'a> Ranks<'a> {
    fn all(c: &Communicator) -> Self {
        Ranks {
            leaders: None,
            n: c.size(),
            pos: c.rank(),
        }
    }

    /// Only leaders take part: `rank` must lead its group.
    fn leaders(t: &'a CollectiveTopology, rank: usize) -> Self {
        Ranks {
            leaders: Some(t.leaders()),
            n: t.leaders().len(),
            pos: t.leader_position(rank),
        }
    }

    fn at(self, pos: usize) -> usize {
        self.leaders.map_or(pos, |l| l[pos])
    }
}

impl Communicator {
    /// The topology to run two-level algorithms over, when one is attached
    /// and actually groups ranks. With every rank its own chassis there is
    /// nothing to combine through shared memory, so the fabric phase runs
    /// over all ranks directly.
    fn hier(&self) -> Option<&CollectiveTopology> {
        self.topo.as_deref().filter(|t| !t.is_flat())
    }

    /// Barrier: dissemination over the fabric — ⌈log₂ P⌉ rounds, every
    /// participant sends and receives one small message per round. With an
    /// SMP topology: ranks arrive through their group's shared-memory
    /// barrier, only the elected leaders run the dissemination rounds
    /// (`O(L log L)` fabric messages for `L` leaders), and the release
    /// fans back out through shared memory.
    pub fn barrier(&self, clock: &mut VClock) {
        let mut st = self.coll_guard.lock();
        let seq = st.seq;
        st.seq += 1;
        let size = self.size();
        if size == 1 {
            return;
        }
        let rank = self.rank();
        trace::begin(EventKind::MpiBarrier, clock.now());
        if let Some(t) = self.hier() {
            t.deposit_and_sync(rank, seq, None, clock);
            if t.is_leader(rank) {
                self.dissemination_barrier(Ranks::leaders(t, rank), seq, clock);
                t.publish(rank, seq, Bytes::new(), clock);
            } else {
                let _ = t.collect(rank, seq, clock);
            }
        } else {
            self.dissemination_barrier(Ranks::all(self), seq, clock);
        }
        trace::end(EventKind::MpiBarrier, clock.now());
    }

    /// Broadcast of raw bytes from `root`: binomial tree over the fabric
    /// participants — all ranks, or with an SMP topology the group leaders,
    /// with shared-memory distribution inside each group. Non-root
    /// callers' `buf` is replaced with the received payload.
    pub fn bcast_bytes(&self, root: usize, buf: &mut Bytes, clock: &mut VClock) {
        let mut st = self.coll_guard.lock();
        let seq = st.seq;
        st.seq += 1;
        trace::begin_arg(EventKind::MpiBcast, buf.len() as u64, clock.now());
        if let Some(t) = self.hier() {
            self.hier_bcast(t, root, buf, seq, clock);
        } else {
            self.tree_bcast(Ranks::all(self), root, buf, seq, PH_BCAST, clock);
        }
        trace::end(EventKind::MpiBcast, clock.now());
    }

    fn hier_bcast(
        &self,
        t: &CollectiveTopology,
        root: usize,
        buf: &mut Bytes,
        seq: u64,
        clock: &mut VClock,
    ) {
        let rank = self.rank();
        // Only the root deposits data; everyone joins the group barrier.
        let contrib = (rank == root).then(|| buf.to_vec());
        let folded = t.deposit_and_sync(rank, seq, contrib, clock);
        if t.is_leader(rank) {
            let mut folded = folded.expect("leader sees group contributions");
            let mut b = if t.group_of(rank) == t.group_of(root) {
                Bytes::from(folded[t.member_index(root)].take().expect("root deposited"))
            } else {
                Bytes::new()
            };
            let root_pos = t.leader_position(t.leader_of(root));
            self.tree_bcast(
                Ranks::leaders(t, rank),
                root_pos,
                &mut b,
                seq,
                PH_BCAST,
                clock,
            );
            *buf = t.publish(rank, seq, b, clock);
        } else {
            *buf = t.collect(rank, seq, clock);
        }
    }

    /// Broadcast a `f64` slice in place.
    pub fn bcast_f64s(&self, root: usize, xs: &mut [f64], clock: &mut VClock) {
        let mut buf = if self.rank() == root {
            datatype::f64s_to_bytes(xs)
        } else {
            Bytes::new()
        };
        self.bcast_bytes(root, &mut buf, clock);
        if self.rank() != root {
            datatype::read_f64s_into(&buf, xs);
        }
    }

    /// Binomial-tree reduction to `root` with a user combiner.
    ///
    /// `buf` holds this rank's contribution on entry; on exit at the root it
    /// holds the combined value, elsewhere it is unspecified. `combine`
    /// folds a peer's encoded contribution into `buf`.
    pub fn reduce_with(
        &self,
        root: usize,
        buf: &mut Vec<u8>,
        combine: &dyn Fn(&mut Vec<u8>, &[u8]),
        clock: &mut VClock,
    ) {
        let mut st = self.coll_guard.lock();
        let seq = st.seq;
        st.seq += 1;
        trace::begin(EventKind::MpiReduce, clock.now());
        self.tree_reduce(Ranks::all(self), root, buf, combine, seq, clock);
        trace::end(EventKind::MpiReduce, clock.now());
    }

    /// Allreduce with a user combiner: binomial reduce to rank 0 followed by
    /// binomial broadcast (2⌈log₂ P⌉ rounds). The paper merges multiple
    /// `reduction` clause variables into one structure and reduces them with
    /// a user-defined operation — this is that hook.
    pub fn allreduce_with(
        &self,
        buf: &mut Vec<u8>,
        combine: &dyn Fn(&mut Vec<u8>, &[u8]),
        clock: &mut VClock,
    ) {
        let mut st = self.coll_guard.lock();
        let seq = st.seq;
        st.seq += 1;
        if self.size() == 1 {
            return;
        }
        trace::begin(EventKind::MpiAllreduce, clock.now());
        if let Some(t) = self.hier() {
            self.hier_allreduce(t, buf, combine, seq, clock);
        } else {
            let all = Ranks::all(self);
            self.tree_reduce(all, 0, buf, combine, seq, clock);
            let mut b = Bytes::copy_from_slice(buf);
            self.tree_bcast(all, 0, &mut b, seq, PH_ALLRED_BCAST, clock);
            buf.clear();
            buf.extend_from_slice(&b);
        }
        trace::end(EventKind::MpiAllreduce, clock.now());
    }

    fn hier_allreduce(
        &self,
        t: &CollectiveTopology,
        buf: &mut Vec<u8>,
        combine: &dyn Fn(&mut Vec<u8>, &[u8]),
        seq: u64,
        clock: &mut VClock,
    ) {
        let rank = self.rank();
        let folded = t.deposit_and_sync(rank, seq, Some(std::mem::take(buf)), clock);
        let result = if t.is_leader(rank) {
            // Fold the group's contributions in member order (the leader is
            // member 0), reduce across leaders to leader position 0, then
            // broadcast the total back over the leader tree.
            let mut contribs = folded.expect("leader sees group contributions").into_iter();
            let mut acc = contribs
                .next()
                .expect("group is non-empty")
                .expect("every member deposits");
            for c in contribs {
                combine(&mut acc, &c.expect("every member deposits"));
            }
            let leaders = Ranks::leaders(t, rank);
            self.tree_reduce(leaders, 0, &mut acc, combine, seq, clock);
            let mut b = Bytes::from(acc);
            self.tree_bcast(leaders, 0, &mut b, seq, PH_ALLRED_BCAST, clock);
            t.publish(rank, seq, b, clock)
        } else {
            t.collect(rank, seq, clock)
        };
        buf.extend_from_slice(&result);
    }

    // ---- fabric-phase algorithms ---------------------------------------
    //
    // The message-passing halves of the collectives, run over `ranks`.
    // Only the listed ranks call these.

    /// Dissemination barrier.
    fn dissemination_barrier(&self, ranks: Ranks<'_>, seq: u64, clock: &mut VClock) {
        let Ranks { n, pos, .. } = ranks;
        let mut round: u8 = 0;
        let mut dist = 1usize;
        while dist < n {
            let dst = ranks.at((pos + dist) % n);
            let src = ranks.at((pos + n - dist) % n);
            self.coll_send(dst, seq, PH_BARRIER_BASE + round, Bytes::new(), clock);
            let _ = self.coll_recv(src, seq, PH_BARRIER_BASE + round, clock);
            trace::instant(EventKind::CollRound, round as u64, clock.now());
            dist <<= 1;
            round += 1;
        }
    }

    /// Binomial-tree broadcast from position `root_pos`.
    fn tree_bcast(
        &self,
        ranks: Ranks<'_>,
        root_pos: usize,
        buf: &mut Bytes,
        seq: u64,
        phase: u8,
        clock: &mut VClock,
    ) {
        let Ranks { n, pos, .. } = ranks;
        let rel = (pos + n - root_pos) % n;
        let mut mask = 1usize;
        while mask < n {
            if rel & mask != 0 {
                let src = ranks.at((rel - mask + root_pos) % n);
                *buf = self.coll_recv(src, seq, phase, clock);
                trace::instant(EventKind::CollRound, mask as u64, clock.now());
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if rel + mask < n {
                let dst = ranks.at((rel + mask + root_pos) % n);
                self.coll_send(dst, seq, phase, buf.clone(), clock);
                trace::instant(EventKind::CollRound, mask as u64, clock.now());
            }
            mask >>= 1;
        }
    }

    /// Binomial-tree reduction to position `root_pos`; `combine` folds a
    /// peer's encoded contribution into `buf`.
    fn tree_reduce(
        &self,
        ranks: Ranks<'_>,
        root_pos: usize,
        buf: &mut Vec<u8>,
        combine: &dyn Fn(&mut Vec<u8>, &[u8]),
        seq: u64,
        clock: &mut VClock,
    ) {
        let Ranks { n, pos, .. } = ranks;
        let rel = (pos + n - root_pos) % n;
        let mut mask = 1usize;
        while mask < n {
            if rel & mask == 0 {
                let peer = rel | mask;
                if peer < n {
                    let src = ranks.at((peer + root_pos) % n);
                    let contrib = self.coll_recv(src, seq, PH_REDUCE, clock);
                    combine(buf, &contrib);
                    trace::instant(EventKind::CollRound, mask as u64, clock.now());
                }
            } else {
                let dst = ranks.at(((rel & !mask) + root_pos) % n);
                self.coll_send(dst, seq, PH_REDUCE, Bytes::copy_from_slice(buf), clock);
                trace::instant(EventKind::CollRound, mask as u64, clock.now());
                break;
            }
            mask <<= 1;
        }
    }

    /// Elementwise allreduce on an `f64` slice.
    pub fn allreduce_f64s(&self, xs: &mut [f64], op: ReduceOp, clock: &mut VClock) {
        let mut buf = datatype::f64s_to_bytes(xs).to_vec();
        let combine = move |acc: &mut Vec<u8>, other: &[u8]| {
            let mut a = datatype::bytes_to_f64s(acc);
            let b = datatype::bytes_to_f64s(other);
            for (x, y) in a.iter_mut().zip(b) {
                *x = op.fold_f64(*x, y);
            }
            acc.clear();
            acc.extend_from_slice(&datatype::f64s_to_bytes(&a));
        };
        self.allreduce_with(&mut buf, &combine, clock);
        datatype::read_f64s_into(&buf, xs);
    }

    /// Allreduce a single `f64`.
    pub fn allreduce_f64(&self, x: f64, op: ReduceOp, clock: &mut VClock) -> f64 {
        let mut xs = [x];
        self.allreduce_f64s(&mut xs, op, clock);
        xs[0]
    }

    /// Elementwise allreduce on an `i64` slice.
    pub fn allreduce_i64s(&self, xs: &mut [i64], op: ReduceOp, clock: &mut VClock) {
        let mut buf = datatype::i64s_to_bytes(xs).to_vec();
        let combine = move |acc: &mut Vec<u8>, other: &[u8]| {
            let mut a = datatype::bytes_to_i64s(acc);
            let b = datatype::bytes_to_i64s(other);
            for (x, y) in a.iter_mut().zip(b) {
                *x = op.fold_i64(*x, y);
            }
            acc.clear();
            acc.extend_from_slice(&datatype::i64s_to_bytes(&a));
        };
        self.allreduce_with(&mut buf, &combine, clock);
        let out = datatype::bytes_to_i64s(&buf);
        xs.copy_from_slice(&out);
    }

    /// Allreduce a single `i64`.
    pub fn allreduce_i64(&self, x: i64, op: ReduceOp, clock: &mut VClock) -> i64 {
        let mut xs = [x];
        self.allreduce_i64s(&mut xs, op, clock);
        xs[0]
    }

    /// Gather byte strings at `root` (linear). Returns `Some(parts)` indexed
    /// by rank at the root, `None` elsewhere.
    pub fn gather_bytes(&self, root: usize, data: Bytes, clock: &mut VClock) -> Option<Vec<Bytes>> {
        let mut st = self.coll_guard.lock();
        let seq = st.seq;
        st.seq += 1;
        let size = self.size();
        let rank = self.rank();
        trace::begin_arg(EventKind::MpiGather, data.len() as u64, clock.now());
        let out = if rank == root {
            let mut parts: Vec<Bytes> = vec![Bytes::new(); size];
            parts[root] = data;
            for (r, part) in parts.iter_mut().enumerate() {
                if r != root {
                    *part = self.coll_recv(r, seq, PH_GATHER, clock);
                }
            }
            Some(parts)
        } else {
            self.coll_send(root, seq, PH_GATHER, data, clock);
            None
        };
        trace::end(EventKind::MpiGather, clock.now());
        out
    }

    /// Allgather byte strings: gather at rank 0, then broadcast the
    /// concatenation (with a tiny length header per rank).
    pub fn allgather_bytes(&self, data: Bytes, clock: &mut VClock) -> Vec<Bytes> {
        let parts = self.gather_bytes(0, data, clock);
        let mut blob = Bytes::new();
        if self.rank() == 0 {
            blob = datatype::encode_parts(&parts.expect("root gathers"));
        }
        self.bcast_bytes(0, &mut blob, clock);
        // Fail-stop: the rank's panic is what the failed run reports.
        datatype::decode_parts(&blob)
            .unwrap_or_else(|e| panic!("rank {}: bad allgather blob from rank 0: {e}", self.rank()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parade_net::{Fabric, MsgClass, NetProfile};
    use std::sync::Arc;

    fn run_all<R: Send + 'static>(
        n: usize,
        f: impl Fn(Arc<Communicator>, &mut VClock) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        run_on(Fabric::new(n, NetProfile::clan_via()), None, f)
    }

    fn run_on<R: Send + 'static>(
        fabric: Arc<Fabric>,
        topo: Option<Arc<CollectiveTopology>>,
        f: impl Fn(Arc<Communicator>, &mut VClock) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let f = Arc::new(f);
        let handles: Vec<_> = (0..fabric.nodes())
            .map(|i| {
                let comm = Arc::new(match &topo {
                    Some(t) => Communicator::with_topology(fabric.endpoint(i), Arc::clone(t)),
                    None => Communicator::new(fabric.endpoint(i)),
                });
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    let mut clk = VClock::manual();
                    f(comm, &mut clk)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn barrier_completes_at_various_sizes() {
        for n in [1, 2, 3, 4, 5, 8] {
            run_all(n, |c, clk| {
                for _ in 0..3 {
                    c.barrier(clk);
                }
            });
        }
    }

    #[test]
    fn collectives_survive_a_lossy_fabric() {
        use parade_net::{ChaosKnobs, ChaosProfile, VTime};
        let chaos = ChaosProfile {
            base: ChaosKnobs {
                drop: 0.10,
                duplicate: 0.05,
                reorder: 0.10,
                delay: 0.20,
                delay_jitter: VTime::from_micros(30),
            },
            ..ChaosProfile::lossy(0x5EED)
        };
        let fabric = Fabric::with_chaos(4, NetProfile::clan_via(), chaos);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let comm = Arc::new(Communicator::new(fabric.endpoint(i)));
                std::thread::spawn(move || {
                    let mut clk = VClock::manual();
                    let mut out = Vec::new();
                    for round in 0..10 {
                        comm.barrier(&mut clk);
                        let mut xs = vec![(comm.rank() + round) as f64; 4];
                        comm.bcast_f64s(round % comm.size(), &mut xs, &mut clk);
                        let s = comm.allreduce_f64(xs[0], ReduceOp::Sum, &mut clk);
                        out.push(s);
                    }
                    out
                })
            })
            .collect();
        let results: Vec<Vec<f64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every rank agrees, and the values match the chaos-free formula:
        // rank (round % 4) broadcasts (root + round), summed over 4 ranks.
        for (rank, r) in results.iter().enumerate() {
            for (round, v) in r.iter().enumerate() {
                let expect = 4.0 * ((round % 4) + round) as f64;
                assert_eq!(*v, expect, "rank {rank} round {round}");
            }
        }
        let h = fabric.stats().link_health_totals();
        assert!(
            h.retransmits + h.dup_drops + h.reseq_holds > 0,
            "a 10%-loss fabric must exercise the reliable channel: {h:?}"
        );
    }

    #[test]
    fn bcast_delivers_root_data() {
        for n in [1, 2, 3, 4, 7, 8] {
            let out = run_all(n, |c, clk| {
                let mut xs = if c.rank() == 2 % c.size() {
                    vec![1.0, 2.0, 3.0]
                } else {
                    vec![0.0; 3]
                };
                c.bcast_f64s(2 % c.size(), &mut xs, clk);
                xs
            });
            for xs in out {
                assert_eq!(xs, vec![1.0, 2.0, 3.0], "n={n}");
            }
        }
    }

    #[test]
    fn allreduce_sum_matches_sequential() {
        for n in [1, 2, 3, 4, 5, 8] {
            let out = run_all(n, |c, clk| {
                let mine = vec![c.rank() as f64, 1.0, -(c.rank() as f64)];
                let mut xs = mine;
                c.allreduce_f64s(&mut xs, ReduceOp::Sum, clk);
                xs
            });
            let expect = vec![
                (0..n).sum::<usize>() as f64,
                n as f64,
                -((0..n).sum::<usize>() as f64),
            ];
            for xs in out {
                assert_eq!(xs, expect, "n={n}");
            }
        }
    }

    #[test]
    fn allreduce_min_max() {
        let out = run_all(5, |c, clk| {
            let lo = c.allreduce_i64(c.rank() as i64 * 3, ReduceOp::Min, clk);
            let hi = c.allreduce_i64(c.rank() as i64 * 3, ReduceOp::Max, clk);
            (lo, hi)
        });
        for (lo, hi) in out {
            assert_eq!((lo, hi), (0, 12));
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = run_all(4, |c, clk| {
            c.gather_bytes(1, Bytes::from(vec![c.rank() as u8; 2]), clk)
        });
        for (r, parts) in out.into_iter().enumerate() {
            if r == 1 {
                let parts = parts.unwrap();
                for (i, p) in parts.iter().enumerate() {
                    assert_eq!(&p[..], &[i as u8; 2]);
                }
            } else {
                assert!(parts.is_none());
            }
        }
    }

    #[test]
    fn allgather_everyone_gets_everything() {
        let out = run_all(3, |c, clk| {
            c.allgather_bytes(Bytes::from(vec![c.rank() as u8 + 10]), clk)
        });
        for parts in out {
            assert_eq!(parts.len(), 3);
            for (i, p) in parts.iter().enumerate() {
                assert_eq!(&p[..], &[i as u8 + 10]);
            }
        }
    }

    #[test]
    fn collectives_advance_virtual_time_with_cluster_size() {
        // A barrier on more nodes must take at least as long (same profile).
        let t2 = run_all(2, |c, clk| {
            c.barrier(clk);
            clk.now()
        });
        let t8 = run_all(8, |c, clk| {
            c.barrier(clk);
            clk.now()
        });
        let m2 = t2.into_iter().max().unwrap();
        let m8 = t8.into_iter().max().unwrap();
        assert!(m8 > m2, "8-node barrier {m8} should exceed 2-node {m2}");
    }

    /// One deterministic workload of mixed collectives; values are exact in
    /// f64 so any fold order yields bit-identical results.
    fn mixed_workload(c: &Communicator, clk: &mut VClock) -> Vec<u64> {
        let p = c.size();
        let mut seen = Vec::new();
        for round in 0..3 {
            c.barrier(clk);
            let s = c.allreduce_f64((c.rank() * 2 + round) as f64, ReduceOp::Sum, clk);
            seen.push(s.to_bits());
            let root = (round * 3) % p;
            let mut xs: Vec<f64> = if c.rank() == root {
                (0..p).map(|i| (round * 31 + i) as f64 * 0.5).collect()
            } else {
                vec![0.0; p]
            };
            c.bcast_f64s(root, &mut xs, clk);
            seen.extend(xs.iter().map(|x| x.to_bits()));
            let hi = c.allreduce_i64((c.rank() as i64) - round as i64, ReduceOp::Max, clk);
            seen.push(hi as u64);
        }
        seen
    }

    #[test]
    fn two_level_collectives_match_single_level_results() {
        for (n, groups) in [
            (4, vec![vec![0, 1], vec![2, 3]]),
            (5, vec![vec![0, 1, 2], vec![3, 4]]),
            (6, vec![vec![0, 3], vec![1, 4, 5], vec![2]]),
            (7, vec![vec![0, 1, 2, 3, 4, 5, 6]]),
            (8, vec![vec![0, 1], vec![2], vec![3, 4, 5], vec![6, 7]]),
        ] {
            let flat = run_all(n, |c, clk| mixed_workload(&c, clk));
            let topo = Arc::new(CollectiveTopology::from_groups(n, groups.clone()));
            let fabric = Fabric::new(n, NetProfile::clan_via());
            let hier = run_on(fabric, Some(topo), |c, clk| mixed_workload(&c, clk));
            assert_eq!(hier, flat, "n={n} groups={groups:?}");
        }
    }

    #[test]
    fn two_level_barrier_sends_only_leader_messages() {
        // 8 ranks in two groups of 4: exactly L·⌈log₂L⌉ = 2 fabric
        // messages per barrier, all from the leaders; running the rounds
        // over all ranks would send 8·3 = 24.
        let topo = Arc::new(CollectiveTopology::uniform(8, 4));
        let fabric = Fabric::new(8, NetProfile::clan_via());
        let stats = Arc::clone(&fabric);
        run_on(fabric, Some(topo), |c, clk| {
            for _ in 0..5 {
                c.barrier(clk);
            }
        });
        let coll = |i: usize| stats.stats().node(i).class_totals(MsgClass::Coll).msgs;
        assert_eq!(coll(0), 5, "leader 0 sends one message per barrier");
        assert_eq!(coll(4), 5, "leader 4 sends one message per barrier");
        for i in [1, 2, 3, 5, 6, 7] {
            assert_eq!(coll(i), 0, "non-leader {i} must stay off the fabric");
        }
    }

    #[test]
    fn singleton_topology_runs_over_all_ranks() {
        // All-singleton groups: the fabric phase runs over every rank
        // (same messages, no shared-memory combine overhead).
        let topo = Arc::new(CollectiveTopology::flat(4));
        let fabric = Fabric::new(4, NetProfile::clan_via());
        let stats = Arc::clone(&fabric);
        let out = run_on(fabric, Some(topo), |c, clk| {
            c.barrier(clk);
            c.allreduce_i64(c.rank() as i64, ReduceOp::Sum, clk)
        });
        assert!(out.iter().all(|&s| s == 6));
        // Dissemination over all 4 ranks: every rank sends ⌈log₂4⌉ = 2.
        let total: u64 = (0..4)
            .map(|i| stats.stats().node(i).class_totals(MsgClass::Coll).msgs)
            .sum();
        assert!(total >= 8, "the barrier alone sends 8 messages: {total}");
    }

    #[test]
    fn two_level_collectives_agree_on_closed_forms() {
        // Non-power-of-two world, non-uniform groups; check against the
        // sequential formulas rather than another run.
        let topo = Arc::new(CollectiveTopology::from_groups(
            6,
            vec![vec![0, 1, 2, 3], vec![4, 5]],
        ));
        let fabric = Fabric::new(6, NetProfile::clan_via());
        let out = run_on(fabric, Some(topo), |c, clk| {
            let sum = c.allreduce_f64(c.rank() as f64, ReduceOp::Sum, clk);
            let min = c.allreduce_i64(10 - c.rank() as i64, ReduceOp::Min, clk);
            let mut xs = if c.rank() == 5 {
                vec![2.5, -1.0]
            } else {
                vec![0.0; 2]
            };
            c.bcast_f64s(5, &mut xs, clk);
            c.barrier(clk);
            (sum, min, xs)
        });
        for (sum, min, xs) in out {
            assert_eq!(sum, 15.0);
            assert_eq!(min, 5);
            assert_eq!(xs, vec![2.5, -1.0]);
        }
    }

    #[test]
    fn struct_reduce_user_op() {
        // Paper §4.2: several reduction variables merged into one struct and
        // reduced with a user-defined operation. Emulate (sum, max) pairs.
        let out = run_all(4, |c, clk| {
            let mut buf =
                crate::datatype::f64s_to_bytes(&[c.rank() as f64, c.rank() as f64]).to_vec();
            let combine = |acc: &mut Vec<u8>, other: &[u8]| {
                let a = crate::datatype::bytes_to_f64s(acc);
                let b = crate::datatype::bytes_to_f64s(other);
                let merged = [a[0] + b[0], a[1].max(b[1])];
                acc.clear();
                acc.extend_from_slice(&crate::datatype::f64s_to_bytes(&merged));
            };
            c.allreduce_with(&mut buf, &combine, clk);
            crate::datatype::bytes_to_f64s(&buf)
        });
        for xs in out {
            assert_eq!(xs, vec![6.0, 3.0]);
        }
    }
}
