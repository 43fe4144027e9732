//! Regression tests for two multi-threaded-SDSM protocol races found (and
//! fixed) during bring-up — the store-side cousins of the paper's §5.1
//! atomic page update problem. Both produced silent data corruption in
//! NAS CG under the baseline (SdsmOnly) mode before the fixes.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parade::core::Cluster;
use parade::net::TimeSource;
use parade::prelude::*;
use parade_testkit::prelude::run_with_timeout;

fn cluster(nodes: usize, tpn: usize, mode: ProtocolMode) -> Cluster {
    Cluster::builder()
        .nodes(nodes)
        .threads_per_node(tpn)
        .protocol(mode)
        .net(NetProfile::zero())
        .time(TimeSource::Manual)
        .build()
        .unwrap()
}

/// Race 1: a lock release flushes the node's dirty pages (snapshotting
/// them for diffs) while a *sibling thread* keeps storing through the
/// write fast path. A store landing between the snapshot and the
/// READ_ONLY downgrade used to vanish: it was neither in the shipped diff
/// nor in the twin taken at the next write fault.
#[test]
fn sibling_stores_survive_concurrent_lock_release_flush() {
    for trial in 0..5 {
        let c = cluster(2, 2, ProtocolMode::SdsmOnly);
        let n = 2048usize; // 4 pages of f64
        let rounds = 30usize;
        let ok = c.run(move |g| {
            let v = g.alloc_f64(n);
            let total = g.alloc_scalar_f64();
            g.parallel(move |tc| {
                // Thread 0 of node 0 churns lock acquire/release (each
                // release flushes every dirty page of the node) while its
                // sibling thread writes vector elements back-to-back.
                if tc.local_thread() == 0 {
                    for _ in 0..rounds {
                        tc.atomic_add_f64(&total, 1.0);
                    }
                } else {
                    // Writers: every element of the node's half, many
                    // passes, final pass writes the checkable value.
                    let mine = parade::core::partition(0..n, tc.num_nodes(), tc.node());
                    for pass in 0..rounds {
                        for i in mine.clone() {
                            tc.set(&v, i, (pass * n + i) as f64);
                        }
                    }
                    // Siblings of the atomic loop must still participate
                    // in the collectives it issued.
                    for _ in 0..rounds {
                        tc.atomic_add_f64(&total, 1.0);
                    }
                }
                if tc.local_thread() == 0 {
                    // Match the writers' atomic participation.
                }
                tc.barrier();
                // Every thread verifies the final pass from its own node's
                // (possibly refetched) copy.
                let mut bad = 0usize;
                for i in 0..n {
                    let want = ((rounds - 1) * n + i) as f64;
                    if tc.get(&v, i) != want {
                        bad += 1;
                    }
                }
                tc.reduce_f64_sum(bad as f64)
            })
        });
        assert_eq!(ok, 0.0, "trial {trial}: lost sibling stores");
    }
}

/// Race 2: the write notices piggybacked on a lock grant can name a page
/// the acquirer itself holds dirty (page-granularity false sharing). The
/// old code dropped the acquirer's modifications; the fix ships the local
/// diff to the home before invalidating.
#[test]
fn false_sharing_dirty_page_survives_acquire_invalidation() {
    let c = cluster(2, 1, ProtocolMode::SdsmOnly);
    let rounds = 20usize;
    let (a, b) = c.run(move |g| {
        // One page; node 0 owns word 0, node 1 owns word 256.
        let v = g.alloc_f64(512);
        g.parallel(move |tc| {
            let my_slot = if tc.node() == 0 { 0 } else { 256 };
            for round in 0..rounds {
                // Dirty my word...
                tc.set(&v, my_slot, (round + 1) as f64);
                // ...then acquire the lock the other node keeps releasing
                // with notices naming this very page.
                tc.critical(5, |tc| {
                    let c0 = tc.get(&v, 511);
                    tc.set(&v, 511, c0 + 1.0);
                });
            }
            tc.barrier();
            (tc.get(&v, 0), tc.get(&v, 256))
        })
    });
    assert_eq!(
        a, rounds as f64,
        "node 0's false-shared writes were dropped"
    );
    assert_eq!(
        b, rounds as f64,
        "node 1's false-shared writes were dropped"
    );
}

/// The counter inside the critical section itself must see every
/// increment across nodes (basic LRC lock-chain correctness under the
/// same false-sharing pressure).
#[test]
fn critical_counter_exact_under_false_sharing() {
    for mode in [ProtocolMode::SdsmOnly, ProtocolMode::Parade] {
        let c = cluster(3, 2, mode);
        let rounds = 15usize;
        let total = c.run(move |g| {
            let v = g.alloc_f64(512);
            g.parallel(move |tc| {
                // Each thread also dirties a thread-specific word of the
                // same page outside the critical section.
                let slot = 8 * tc.thread_num();
                for r in 0..rounds {
                    tc.set(&v, slot, r as f64);
                    tc.critical(9, |tc| {
                        let c0 = tc.get(&v, 500);
                        tc.set(&v, 500, c0 + 1.0);
                    });
                }
                tc.barrier();
            });
            g.get(&v, 500)
        });
        assert_eq!(
            total,
            (3 * 2 * rounds) as f64,
            "mode {mode:?}: critical increments lost"
        );
    }
}

/// Race 4 (lock-free page store): the per-node dirty/notice bookkeeping
/// is marked by sibling threads concurrently, with no lock — and, all 16
/// pages here sharing one bitmap word, on one cache line. Every round's
/// sum and the final bytes are the closed form of what was written, and
/// every diff shipped is merged exactly once. (That no concurrent mark is
/// lost is itself a `store.rs` unit property.)
#[test]
fn page_store_merges_every_concurrent_write() {
    const PAGES: usize = 16;
    const SLOTS: usize = PAGES * 512;
    const ROUNDS: usize = 6;
    let c = Cluster::builder()
        .nodes(3)
        .threads_per_node(2)
        .net(NetProfile::zero())
        .time(TimeSource::Manual)
        .build()
        .unwrap();
    let nt = 3 * 2;
    let (bits, report) = c.run_with_report(move |g| {
        let v = g.alloc_f64(SLOTS);
        g.parallel(move |tc| {
            let (t, nt) = (tc.thread_num(), tc.num_threads());
            let mut sums = Vec::new();
            for round in 0..ROUNDS {
                // Every thread writes its own words of every page, so
                // each release ships every page from every node at once.
                for p in 0..PAGES {
                    for k in 0..4 {
                        let s = p * 512 + t + k * nt;
                        tc.set(&v, s, (round * 10_000 + s) as f64);
                    }
                }
                tc.barrier();
                let mut acc = 0.0;
                for i in 0..SLOTS {
                    acc += tc.get(&v, i);
                }
                sums.push(tc.reduce_f64_sum(acc).to_bits());
            }
            let mut bits: Vec<u64> = (0..SLOTS).map(|i| tc.get(&v, i).to_bits()).collect();
            bits.extend(sums);
            bits
        })
    });
    // Slots `p * 512 + j` for `j < 4 * nt` are written each round (thread
    // `j % nt`, word `j / nt`); everything else stays zero.
    let value = |round: usize, i: usize| {
        if i % 512 < 4 * nt {
            (round * 10_000 + i) as f64
        } else {
            0.0
        }
    };
    let mut want: Vec<u64> = (0..SLOTS).map(|i| value(ROUNDS - 1, i).to_bits()).collect();
    for round in 0..ROUNDS {
        let sum: f64 = (0..SLOTS).map(|i| value(round, i)).sum();
        want.push((sum * nt as f64).to_bits());
    }
    assert_eq!(bits, want, "final bytes or a round's sum diverged");
    let d = report.cluster.dsm_totals();
    assert!(d.diff_merges > 0, "the workload must actually merge diffs");
    assert_eq!(
        d.diff_merges, d.diffs_sent,
        "every diff merges exactly once"
    );
}

/// Race 5 (page store, cont.): a demand fetch racing a `DiffBatch`
/// merge of the very same page. Node 1 ships batches to home 0 at every
/// lock release while node 0's threads read the words being merged and
/// node 2 refetches the page after each lock-grant invalidation. Whatever
/// interleaving the host schedules, whole words and the final merged
/// state must survive.
#[test]
fn fault_racing_same_page_batch_merge_keeps_words_whole() {
    let rounds = 25usize;
    for trial in 0..6 {
        let c = Cluster::builder()
            .nodes(3)
            .threads_per_node(2)
            .net(NetProfile::zero())
            .time(TimeSource::Manual)
            .build()
            .unwrap();
        let bad = c.run(move |g| {
            let v = g.alloc_f64(1024); // two pages, homed on node 0
            g.parallel(move |tc| {
                if tc.node() == 1 && tc.local_thread() == 0 {
                    // Writer: dirty both pages, then release (shipping
                    // one batch to home 0) — over and over.
                    for round in 0..rounds {
                        for i in 0..64 {
                            tc.set(&v, i * 16 + 1, (round * 64 + i) as f64);
                        }
                        tc.critical(3, |_| {});
                    }
                } else {
                    // Home threads read the words mid-merge; node 2
                    // refaults after each lock-grant invalidation.
                    for _ in 0..rounds {
                        let mut acc = 0.0;
                        for i in 0..64 {
                            acc += tc.get(&v, i * 16 + 1);
                        }
                        std::hint::black_box(acc);
                        tc.critical(3, |_| {});
                    }
                }
                tc.barrier();
                let mut bad = 0usize;
                for i in 0..64 {
                    if tc.get(&v, i * 16 + 1) != ((rounds - 1) * 64 + i) as f64 {
                        bad += 1;
                    }
                }
                tc.reduce_f64_sum(bad as f64)
            })
        });
        assert_eq!(bad, 0.0, "trial {trial}: torn or lost merge");
    }
}

/// Race 6 (`single` lapping): `single` takes no barrier in ParADE mode,
/// so one thread of a node can run a whole barrier-less loop of them
/// before its node-mate starts, and the 4096 generation-stamped slots
/// wrap. A lapped thread used to find a *newer* stamp in its slot, take
/// it for "not done", and re-run a generation that had been broadcast
/// long ago: stray broadcasts nobody matched (`bad command kind 0` at
/// 10 000 constructs on 4x2, a deadlock at 20 000 on 2x2). Holding node
/// 0's second thread back makes the lap certain instead of scheduler
/// luck; every construct must still run exactly once.
#[test]
fn lapped_single_generations_are_not_rerun() {
    for (nodes, reps) in [(4usize, 10_000usize), (2, 20_000)] {
        let name = format!("single-lap-{nodes}x2");
        let (runs, last) = run_with_timeout(&name, Duration::from_secs(120), move || {
            let c = cluster(nodes, 2, ProtocolMode::Parade);
            let runs = Arc::new(AtomicUsize::new(0));
            let lead_done = Arc::new(AtomicBool::new(false));
            let (runs2, lead_done2) = (Arc::clone(&runs), Arc::clone(&lead_done));
            let last = c.run(move |g| {
                let s = g.alloc_scalar_f64();
                g.parallel(move |tc| {
                    let held = tc.node() == 0 && tc.local_thread() == 1;
                    while held && !lead_done2.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    for i in 0..reps {
                        tc.single_f64(&s, |_| {
                            runs2.fetch_add(1, Ordering::Relaxed);
                            i as f64
                        });
                    }
                    if tc.thread_num() == 0 {
                        lead_done2.store(true, Ordering::Release);
                    }
                });
                g.scalar_get_f64(&s)
            });
            (runs.load(Ordering::Relaxed), last)
        });
        assert_eq!(runs, reps, "{name}: a construct ran twice or not at all");
        assert_eq!(last, (reps - 1) as f64, "{name}: last broadcast value");
    }
}

/// Race 3: the hierarchical barrier's root aggregates one local arrival
/// plus one `BarrierUp` per tree child, in whatever real-time order its
/// communication thread happens to service them. Everything the departure
/// decides — migration entries, the departure's virtual timestamp, and
/// the master-last release order (PR 4's rule, preserved by the tree
/// path) — must be independent of that order. An early version charged
/// service time in handling order, which leaked host scheduling into
/// virtual time.
#[test]
fn tree_barrier_departure_is_independent_of_aggregation_order() {
    use parade::dsm::{spawn_comm_thread, Dsm, DsmConfig, DsmMsg, PAGE_SIZE};
    use parade::net::{Fabric, Match, MsgClass, VClock, VTime};

    // In a 4-node binomial tree, root 0's children are nodes 1 (subtree
    // {1}) and 2 (subtree {2, 3}). Page 5 is multi-written by {1, 3} with
    // old home 0, so the migratory rule picks the smallest writer; page 9
    // has the single writer 2. Page 5 is fresh (no departure named it
    // before), so its writers ship their held diffs to node 0 after the
    // departure and every node then takes one more, empty, round (seq 1):
    // the members' half of it is scripted here too, with its own tags.
    let up_from_1 = [
        DsmMsg::BarrierUp {
            seq: 0,
            members: vec![(1, 70)],
            writers: vec![(5, 1)],
            readers: vec![],
        },
        DsmMsg::BarrierUp {
            seq: 1,
            members: vec![(1, 80)],
            writers: vec![],
            readers: vec![],
        },
    ];
    let up_from_2 = [
        DsmMsg::BarrierUp {
            seq: 0,
            members: vec![(2, 71), (3, 72)],
            writers: vec![(9, 2), (5, 3)],
            readers: vec![],
        },
        DsmMsg::BarrierUp {
            seq: 1,
            members: vec![(2, 81), (3, 82)],
            writers: vec![],
            readers: vec![],
        },
    ];

    let run = |ups_before_arrive: bool| {
        let fabric = Fabric::new(4, NetProfile::clan_via());
        let cfg = DsmConfig {
            pool_bytes: 64 * PAGE_SIZE,
            ..DsmConfig::default()
        };
        let dsm = Arc::new(Dsm::new(fabric.endpoint(0), cfg));
        // The region the simulated members wrote pages 5 and 9 of.
        dsm.alloc_region(16 * PAGE_SIZE).unwrap();
        let comm = spawn_comm_thread(Arc::clone(&dsm));
        let up_at = VTime::from_micros(40);
        let (e1, e2) = (fabric.endpoint(1), fabric.endpoint(2));
        let (up_from_1, up_from_2) = (up_from_1.clone(), up_from_2.clone());
        let send_ups = move || {
            // The virtual send instants are pinned; only the *real-time*
            // order in which the root services the burst varies.
            for up in &up_from_2 {
                e2.send_at(0, MsgClass::Dsm, 0, up.encode(), up_at);
            }
            std::thread::sleep(Duration::from_millis(15));
            for up in &up_from_1 {
                e1.send_at(0, MsgClass::Dsm, 0, up.encode(), up_at);
            }
        };
        let feeder = if ups_before_arrive {
            send_ups();
            std::thread::sleep(Duration::from_millis(15));
            None
        } else {
            Some(std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                send_ups();
            }))
        };
        let mut clk = VClock::manual();
        dsm.barrier(&mut clk);
        if let Some(h) = feeder {
            h.join().unwrap();
        }
        // Master-last: by the time the root's own caller is past the
        // barrier, every remote member's departures (of both rounds) must
        // already be queued.
        let remotes: Vec<_> = [(1usize, 70u64), (2, 71), (3, 72)]
            .into_iter()
            .map(|(node, tag)| {
                let ep = fabric.endpoint(node);
                assert_eq!(
                    ep.queued(MsgClass::Ctl),
                    2,
                    "node {node}'s departures must be queued before the \
                     master's caller resumes"
                );
                [tag, tag + 10].map(|tag| {
                    let pkt = ep.recv_raw(MsgClass::Ctl, Match::tagged(tag)).unwrap();
                    (pkt.arrive_at, pkt.payload.to_vec())
                })
            })
            .collect();
        let outcome = (clk.now(), remotes, dsm.home_of(5), dsm.home_of(9));
        fabric.begin_shutdown();
        comm.join().unwrap();
        outcome
    };

    let (t_a, departs_a, h5, h9) = run(true);
    assert_eq!(h5, 1, "multi-writer page migrates to the smallest writer");
    assert_eq!(h9, 2, "single-writer page migrates to its writer");
    let (t_b, departs_b, ..) = run(false);
    assert_eq!(
        t_a, t_b,
        "the root's departure time must not depend on service order"
    );
    assert_eq!(
        departs_a, departs_b,
        "departure payloads and stamps must not depend on service order"
    );
}
