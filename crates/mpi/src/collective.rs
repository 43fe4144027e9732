//! Collective operations.
//!
//! ParADE only strictly needs `MPI_Bcast` and `MPI_Allreduce` (§5.3), plus
//! barrier for the runtime; `allgather` serves the MPI baseline version of
//! CG. Two schedules carry them all, each ⌈log₂ P⌉ rounds deep, so message
//! counts grow as `O(P log P)` — the property that makes collectives
//! cheaper than lock-based SDSM synchronization as the node count grows:
//!
//! * the broadcast walks a binomial tree from its root;
//! * every other collective is one recursive-doubling exchange with a
//!   combiner: the allreduce folds values, the allgather concatenates
//!   length-prefixed parts, and the barrier swaps empty payloads.

use parade_net::Bytes;

use parade_net::VClock;
use parade_trace::{self as trace, EventKind};

use crate::comm::Communicator;
use crate::datatype;

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

/// The broadcast's phase label inside its sequence number; the exchange
/// labels its messages with the round.
const PH_BCAST: u8 = 0;

impl Communicator {
    /// Barrier: the exchange over empty payloads — ⌈log₂ P⌉ rounds, and no
    /// rank leaves before every rank has entered.
    pub fn barrier(&self, clock: &mut VClock) {
        self.exchange(EventKind::MpiBarrier, &mut Vec::new(), &|_, _| {}, clock);
    }

    /// Broadcast of raw bytes from `root`: binomial tree over the ranks.
    /// Non-root callers' `buf` is replaced with the received payload.
    pub fn bcast_bytes(&self, root: usize, buf: &mut Bytes, clock: &mut VClock) {
        let mut st = self.coll_guard.lock();
        let seq = st.seq;
        st.seq += 1;
        trace::begin_arg(EventKind::MpiBcast, buf.len() as u64, clock.now());
        let size = self.size();
        let rel = (self.rank() + size - root) % size;
        let mut mask = 1usize;
        while mask < size {
            if rel & mask != 0 {
                let src = (rel - mask + root) % size;
                *buf = self.coll_recv(src, seq, PH_BCAST, clock);
                trace::instant(EventKind::CollRound, mask as u64, clock.now());
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if rel + mask < size {
                let dst = (rel + mask + root) % size;
                self.coll_send(dst, seq, PH_BCAST, buf.clone(), clock);
                trace::instant(EventKind::CollRound, mask as u64, clock.now());
            }
            mask >>= 1;
        }
        trace::end(EventKind::MpiBcast, clock.now());
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

    /// Allreduce with a user combiner: the exchange, ⌈log₂ P⌉ rounds.
    /// Every rank computes, bit for bit, the fold a binomial reduce to rank
    /// 0 computes, for any combiner. The paper merges multiple `reduction`
    /// clause variables into one structure and reduces them with a
    /// user-defined operation — this is that hook.
    pub fn allreduce_with(
        &self,
        buf: &mut Vec<u8>,
        combine: &dyn Fn(&mut Vec<u8>, &[u8]),
        clock: &mut VClock,
    ) {
        self.exchange(EventKind::MpiAllreduce, buf, combine, clock);
    }

    /// The exchange under every collective but the broadcast: recursive
    /// doubling, ⌈log₂ P⌉ rounds, traced as one `kind` span. Entering round
    /// k (m = 2^k) a rank holds the fold of its aligned block
    /// `[r & !(m-1), +m) ∩ [0, P)` and swaps it with the sibling block's,
    /// folding lower block first — the binomial reduce's order.
    fn exchange(
        &self,
        kind: EventKind,
        buf: &mut Vec<u8>,
        combine: &dyn Fn(&mut Vec<u8>, &[u8]),
        clock: &mut VClock,
    ) {
        let mut st = self.coll_guard.lock();
        let seq = st.seq;
        st.seq += 1;
        let (size, rank) = (self.size(), self.rank());
        if size == 1 {
            return;
        }
        trace::begin(kind, clock.now());
        let (mut m, mut round) = (1usize, 0u8);
        while m < size {
            let sibling = (rank & !(m - 1)) ^ m;
            let partner = rank ^ m;
            if sibling < size {
                // A lower-block rank past `size - m` has no partner; the
                // upper block's first rank sends it the fold instead.
                let extra = if rank & (2 * m - 1) == m {
                    size - m..rank
                } else {
                    0..0
                };
                let fold = Bytes::copy_from_slice(buf);
                for dst in (partner < size).then_some(partner).into_iter().chain(extra) {
                    self.coll_send(dst, seq, round, fold.clone(), clock);
                }
                let src = if partner < size { partner } else { sibling };
                let other = self.coll_recv(src, seq, round, clock);
                if rank & m == 0 {
                    combine(buf, &other);
                } else {
                    let upper = std::mem::replace(buf, other.to_vec());
                    combine(buf, &upper);
                }
                trace::instant(EventKind::CollRound, round as u64, clock.now());
            }
            m <<= 1;
            round += 1;
        }
        trace::end(kind, clock.now());
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

    /// Allgather byte strings: the exchange over length-prefixed parts with
    /// concatenation as the combiner. The lower block goes first, so every
    /// rank ends with the parts in rank order.
    pub fn allgather_bytes(&self, data: Bytes, clock: &mut VClock) -> Vec<Bytes> {
        let mut blob = datatype::encode_parts(&[data]).to_vec();
        let concat = |acc: &mut Vec<u8>, other: &[u8]| acc.extend_from_slice(other);
        self.exchange(EventKind::MpiGather, &mut blob, &concat, clock);
        // Other ranks' bytes: fail-stop, the rank's panic is what the failed
        // run reports.
        datatype::decode_parts(&blob, self.size())
            .unwrap_or_else(|e| panic!("rank {}: bad allgather blob: {e}", self.rank()))
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
        run_on(Fabric::new(n, NetProfile::clan_via()), f)
    }

    fn run_on<R: Send + 'static>(
        fabric: Arc<Fabric>,
        f: impl Fn(Arc<Communicator>, &mut VClock) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let f = Arc::new(f);
        let handles: Vec<_> = (0..fabric.nodes())
            .map(|i| {
                let comm = Arc::new(Communicator::new(fabric.endpoint(i)));
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
        // 3 and 6 ranks have partnerless lower-block ranks, which the upper
        // block's first rank serves with extra exchange messages.
        for n in [3, 4, 6] {
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
            let fabric = Fabric::with_chaos(n, NetProfile::clan_via(), chaos);
            let results = run_on(Arc::clone(&fabric), |comm, clk| {
                let mut out = Vec::new();
                for round in 0..10 {
                    comm.barrier(clk);
                    let mut xs = vec![(comm.rank() + round) as f64; 4];
                    comm.bcast_f64s(round % comm.size(), &mut xs, clk);
                    let sum = comm.allreduce_f64(xs[0], ReduceOp::Sum, clk);
                    let mine = Bytes::from(vec![comm.rank() as u8; round % 3]);
                    out.push((sum, comm.allgather_bytes(mine, clk)));
                }
                out
            });
            // Every rank agrees, and the values match the chaos-free formula:
            // rank (round % n) broadcasts (root + round), summed over n ranks;
            // rank r's part is `round % 3` copies of r.
            for (rank, r) in results.iter().enumerate() {
                for (round, (v, parts)) in r.iter().enumerate() {
                    let expect = (n * ((round % n) + round)) as f64;
                    assert_eq!(*v, expect, "n={n} rank {rank} round {round}");
                    let want: Vec<Bytes> = (0..n)
                        .map(|src| Bytes::from(vec![src as u8; round % 3]))
                        .collect();
                    assert_eq!(*parts, want, "n={n} rank {rank} round {round}");
                }
            }
            let h = fabric.stats().link_health_totals();
            assert!(
                h.retransmits + h.dup_drops + h.reseq_holds > 0,
                "a 10%-loss fabric must exercise the reliable channel (n={n}): {h:?}"
            );
        }
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

    /// Rank `r`'s allgather part: `r % 3 * r` bytes, empty at every third.
    fn part(r: usize) -> Bytes {
        Bytes::from(vec![r as u8; r % 3 * r])
    }

    #[test]
    fn allgather_returns_every_part_in_rank_order() {
        for p in 1..=17usize {
            let out = run_all(p, |c, clk| c.allgather_bytes(part(c.rank()), clk));
            let want: Vec<Bytes> = (0..p).map(part).collect();
            for (rank, parts) in out.iter().enumerate() {
                assert_eq!(*parts, want, "P={p} rank {rank}");
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

    /// `Coll` messages sent by all ranks while `f` runs once on each.
    fn coll_msgs<R: Send + 'static>(
        p: usize,
        f: impl Fn(Arc<Communicator>, &mut VClock) -> R + Send + Sync + 'static,
    ) -> (Vec<R>, u64) {
        let fabric = Fabric::new(p, NetProfile::clan_via());
        let out = run_on(Arc::clone(&fabric), f);
        let stats = fabric.stats();
        let msgs = (0..p)
            .map(|i| stats.node(i).class_totals(MsgClass::Coll).msgs)
            .sum();
        (out, msgs)
    }

    /// Messages of one allreduce: in round k (m = 2^k) every rank whose
    /// sibling block `(r & !(m-1)) ^ m` is non-empty receives exactly one.
    fn allreduce_msgs(p: usize) -> u64 {
        let rounds = (0..).map(|k| 1usize << k).take_while(|&m| m < p);
        rounds
            .map(|m| (0..p).filter(|r| (r & !(m - 1)) ^ m < p).count() as u64)
            .sum()
    }

    #[test]
    fn allreduce_folds_in_binomial_order() {
        // Neither commutative nor associative: the string records the tree.
        let combine = |acc: &mut Vec<u8>, other: &[u8]| {
            let s = format!(
                "({},{})",
                String::from_utf8_lossy(acc),
                String::from_utf8_lossy(other)
            );
            *acc = s.into_bytes();
        };
        for p in 1..=17usize {
            // The binomial reduce to rank 0, run sequentially.
            let mut vals: Vec<Vec<u8>> = (0..p).map(|r| r.to_string().into_bytes()).collect();
            let mut mask = 1;
            while mask < p {
                for lo in (0..p - mask).step_by(2 * mask) {
                    let upper = vals[lo + mask].clone();
                    combine(&mut vals[lo], &upper);
                }
                mask <<= 1;
            }
            let out = run_all(p, move |c, clk| {
                let mut buf = c.rank().to_string().into_bytes();
                c.allreduce_with(&mut buf, &combine, clk);
                buf
            });
            for (rank, got) in out.iter().enumerate() {
                assert_eq!(
                    String::from_utf8_lossy(got),
                    String::from_utf8_lossy(&vals[0]),
                    "P={p} rank {rank}"
                );
            }
        }
    }

    #[test]
    fn allreduce_is_as_deep_as_the_barrier() {
        // ⌈log₂P⌉ rounds like the barrier, not a reduce followed by a
        // broadcast (twice as deep).
        for p in 2..=17usize {
            let slowest = |ts: Vec<parade_net::VTime>| ts.into_iter().max().unwrap();
            let barrier = slowest(run_all(p, |c, clk| {
                c.barrier(clk);
                clk.now()
            }));
            let allreduce = slowest(run_all(p, |c, clk| {
                c.allreduce_f64(1.0, ReduceOp::Sum, clk);
                clk.now()
            }));
            assert!(
                allreduce.as_nanos() * 100 <= barrier.as_nanos() * 105,
                "P={p}: allreduce {allreduce:?} vs barrier {barrier:?}"
            );
        }
    }

    #[test]
    fn allgather_is_as_deep_as_the_barrier_plus_its_wire_time() {
        // The exchange of empty payloads is the barrier. Each of the
        // ⌈log₂P⌉ rounds on a rank's critical path carries at most the
        // whole blob; a gather at one rank and a broadcast would add P - 1
        // serial receives and the broadcast's own rounds on top.
        let profile = NetProfile::clan_via();
        for p in 2..=17usize {
            let slowest = |ts: Vec<parade_net::VTime>| ts.into_iter().max().unwrap();
            let barrier = slowest(run_all(p, |c, clk| {
                c.barrier(clk);
                clk.now()
            }));
            let allgather = slowest(run_all(p, |c, clk| {
                c.allgather_bytes(part(c.rank()), clk);
                clk.now()
            }));
            let blob: Vec<Bytes> = (0..p).map(part).collect();
            let blob = datatype::encode_parts(&blob).len();
            let rounds = p.next_power_of_two().trailing_zeros() as u64;
            let wire = profile.remote.transfer(blob) - profile.remote.latency;
            let bound = barrier.as_nanos() + rounds * wire.as_nanos();
            assert!(
                allgather.as_nanos() <= bound,
                "P={p}: allgather {allgather:?} vs barrier {barrier:?} + {rounds} x {wire:?}"
            );
        }
    }

    #[test]
    fn message_counts_and_results_equal_the_closed_forms() {
        // Powers of two and not: the binomial broadcast sends one message per
        // non-root rank; the exchange under the barrier, the allreduce and
        // the allgather one to each rank whose sibling block is non-empty.
        let counts: Vec<u64> = (2..=9).map(allreduce_msgs).collect();
        assert_eq!(counts, [2, 5, 8, 13, 16, 20, 24, 33]);
        for p in 2..=9usize {
            let p64 = p as u64;

            // ⌈log₂P⌉ rounds of one wire latency and one receive on the
            // slowest rank, at every P (a send leaves before its own charge).
            let (ts, msgs) = coll_msgs(p, |c, clk| {
                c.barrier(clk);
                clk.now()
            });
            assert_eq!(msgs, allreduce_msgs(p), "barrier, P={p}");
            let profile = NetProfile::clan_via();
            let round = profile.remote.latency + profile.per_msg_cpu;
            let rounds = p.next_power_of_two().trailing_zeros() as u64;
            assert_eq!(
                ts.into_iter().max().unwrap().as_nanos(),
                rounds * round.as_nanos(),
                "barrier depth, P={p}"
            );

            let (out, msgs) = coll_msgs(p, |c, clk| c.allgather_bytes(part(c.rank()), clk));
            assert_eq!(msgs, allreduce_msgs(p), "allgather, P={p}");
            let want: Vec<Bytes> = (0..p).map(part).collect();
            assert!(out.iter().all(|parts| *parts == want), "allgather, P={p}");

            let root = 2 % p;
            let (out, msgs) = coll_msgs(p, move |c, clk| {
                let mut xs = [0.0; 3];
                if c.rank() == root {
                    xs = [0.1, -2.5, 1e300];
                }
                c.bcast_f64s(root, &mut xs, clk);
                xs.map(f64::to_bits)
            });
            assert_eq!(msgs, p64 - 1, "bcast, P={p}");
            assert!(
                out.iter()
                    .all(|xs| *xs == [0.1, -2.5, 1e300].map(f64::to_bits)),
                "bcast, P={p}"
            );

            // Multiples of 0.25: every partial sum is exact, so the tree's
            // fold order and the sequential one agree to the bit.
            let mine = |r: usize| (r * r) as f64 * 0.25 - 3.0;
            let (out, msgs) = coll_msgs(p, move |c, clk| {
                c.allreduce_f64(mine(c.rank()), ReduceOp::Sum, clk)
                    .to_bits()
            });
            assert_eq!(msgs, allreduce_msgs(p), "allreduce, P={p}");
            let seq = (1..p).fold(mine(0), |acc, r| ReduceOp::Sum.fold_f64(acc, mine(r)));
            assert!(
                out.iter().all(|&bits| bits == seq.to_bits()),
                "allreduce, P={p}"
            );

            let (out, msgs) = coll_msgs(p, |c, clk| {
                let r = c.rank() as i64;
                (
                    c.allreduce_i64(7 - 3 * r, ReduceOp::Min, clk),
                    c.allreduce_i64(r * r, ReduceOp::Max, clk),
                )
            });
            assert_eq!(msgs, 2 * allreduce_msgs(p), "two allreduces, P={p}");
            let top = p as i64 - 1;
            assert!(
                out.iter().all(|&mm| mm == (7 - 3 * top, top * top)),
                "min/max, P={p}"
            );
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
