//! Multi-node protocol tests: a miniature in-crate cluster harness (one
//! application thread plus one communication thread per node) driving the
//! full HLRC protocol over the simulated fabric.

use std::sync::Arc;

use parade_net::{Fabric, NetProfile, VClock};

use crate::config::{DsmConfig, HomePolicy, UpdateStrategy};
use crate::engine::Dsm;
use crate::page::{PageState, PAGE_SIZE};
use crate::server::spawn_comm_thread;
use crate::store::RegionHandle;

fn small_cfg() -> DsmConfig {
    DsmConfig {
        pool_bytes: 64 * PAGE_SIZE,
        ..DsmConfig::default()
    }
}

/// Run `f` as the application thread of every node; returns per-node
/// results.
fn run_nodes<R: Send + 'static>(
    n: usize,
    cfg: DsmConfig,
    profile: NetProfile,
    f: impl Fn(Arc<Dsm>, &mut VClock) -> R + Send + Sync + 'static,
) -> Vec<R> {
    let fabric = Fabric::new(n, profile);
    let dsms: Vec<Arc<Dsm>> = (0..n)
        .map(|i| Arc::new(Dsm::new(fabric.endpoint(i), cfg)))
        .collect();
    let comm_handles: Vec<_> = dsms
        .iter()
        .map(|d| spawn_comm_thread(Arc::clone(d)))
        .collect();
    let f = Arc::new(f);
    let app_handles: Vec<_> = dsms
        .iter()
        .map(|d| {
            let d = Arc::clone(d);
            let f = Arc::clone(&f);
            std::thread::spawn(move || {
                let mut clock = VClock::manual();
                f(d, &mut clock)
            })
        })
        .collect();
    let results = app_handles.into_iter().map(|h| h.join().unwrap()).collect();
    fabric.begin_shutdown();
    for h in comm_handles {
        h.join().unwrap();
    }
    results
}

fn alloc_on(d: &Dsm, len: usize) -> RegionHandle {
    d.alloc_region(len).unwrap()
}

#[test]
fn master_writes_propagate_after_barrier() {
    let out = run_nodes(3, small_cfg(), NetProfile::zero(), |d, clk| {
        let r = alloc_on(&d, 4 * 1024);
        if d.node() == 0 {
            for i in 0..512 {
                d.write::<f64>(r, i * 8, i as f64 * 1.5, clk);
            }
        }
        d.barrier(clk);
        let mut sum = 0.0;
        for i in 0..512 {
            sum += d.read::<f64>(r, i * 8, clk);
        }
        sum
    });
    let expect: f64 = (0..512).map(|i| i as f64 * 1.5).sum();
    for s in out {
        assert_eq!(s, expect);
    }
}

#[test]
fn a_second_run_on_recycled_pools_starts_from_zero() {
    // Both runs build their `Dsm`s on this thread and drop them here, so
    // the second gets the first one's pools back: cleared as far as the
    // region went, which is all the first could have written.
    let cfg = DsmConfig {
        pool_bytes: 6 * PAGE_SIZE,
        ..DsmConfig::default()
    };
    for round in 0..2 {
        let out = run_nodes(2, cfg, NetProfile::zero(), |d, clk| {
            let r = alloc_on(&d, PAGE_SIZE + 64);
            // Node 1's read is a fetch from node 0, which must have
            // allocated the region too.
            d.barrier(clk);
            let fresh = d.read::<u64>(r, PAGE_SIZE + 8, clk);
            d.barrier(clk);
            if d.node() == 1 {
                d.write::<u64>(r, PAGE_SIZE + 8, u64::MAX, clk);
            }
            d.barrier(clk);
            (fresh, d.read::<u64>(r, PAGE_SIZE + 8, clk))
        });
        assert_eq!(out, vec![(0, u64::MAX); 2], "round {round}");
    }
}

#[test]
fn checkpoint_round_trips_across_nodes() {
    // Node 1 writes an interval's worth of state; node 0 checkpoints at the
    // barrier, node 1 then scribbles over the region, and node 0's restore
    // brings every node back to the checkpointed cut.
    let out = run_nodes(3, small_cfg(), NetProfile::zero(), |d, clk| {
        let r = alloc_on(&d, 3 * PAGE_SIZE);
        d.barrier(clk);
        if d.node() == 1 {
            for i in 0..64 {
                d.write::<f64>(r, i * 8, i as f64 + 0.25, clk);
            }
        }
        d.barrier(clk);
        let snap = (d.node() == 0).then(|| d.checkpoint_region(r, clk));
        d.barrier(clk);
        if d.node() == 1 {
            for i in 0..64 {
                d.write::<f64>(r, i * 8, -1.0, clk);
            }
        }
        d.barrier(clk);
        if let Some(snap) = &snap {
            d.restore_region(r, snap, clk);
        }
        d.barrier(clk);
        let mut sum = 0.0;
        for i in 0..64 {
            sum += d.read::<f64>(r, i * 8, clk);
        }
        if d.node() == 0 {
            let s = d.stats.snapshot();
            assert_eq!(s.checkpoints, 1);
            assert_eq!(s.checkpoint_bytes, 3 * PAGE_SIZE as u64);
            assert_eq!(s.restores, 1);
            assert_eq!(s.restore_bytes, 3 * PAGE_SIZE as u64);
        }
        sum
    });
    let expect: f64 = (0..64).map(|i| i as f64 + 0.25).sum();
    for s in out {
        assert_eq!(s, expect);
    }
}

#[test]
fn non_master_writes_visible_everywhere() {
    let out = run_nodes(4, small_cfg(), NetProfile::zero(), |d, clk| {
        let r = alloc_on(&d, 1024);
        d.barrier(clk);
        if d.node() == 2 {
            d.write::<i64>(r, 0, 777, clk);
        }
        d.barrier(clk);
        d.read::<i64>(r, 0, clk)
    });
    assert_eq!(out, vec![777, 777, 777, 777]);
}

#[test]
fn home_migrates_to_single_writer() {
    let out = run_nodes(3, small_cfg(), NetProfile::zero(), |d, clk| {
        let r = alloc_on(&d, 64);
        d.barrier(clk);
        if d.node() == 1 {
            d.write::<i64>(r, 0, 1, clk);
        }
        d.barrier(clk);
        let home = d.home_of(r.first_page());
        let v = d.read::<i64>(r, 0, clk);
        (home, v)
    });
    for (home, v) in out {
        assert_eq!(home, 1, "single writer should become home");
        assert_eq!(v, 1);
    }
}

/// Exercise a barrier with overlapping multi-writer pages on a ragged
/// tree: the migration decisions must be the literal §5.2.2 outcome, the
/// contents every write, and the whole run reproducible.
#[test]
fn tree_barrier_decides_homes_by_the_migratory_rule() {
    let run = || {
        // 6 nodes: non-power-of-two, so the binomial tree is ragged.
        run_nodes(6, small_cfg(), NetProfile::clan_via(), |d, clk| {
            let r = alloc_on(&d, 8 * PAGE_SIZE);
            d.barrier(clk);
            let node = d.node();
            // Page 0: single writer. Page 1: all write (multi-writer,
            // disjoint words). Page 2: writers {1, 4} (old home loses).
            if node == 2 {
                d.write::<i64>(r, 0, 42, clk);
            }
            d.write::<i64>(r, PAGE_SIZE + node * 8, node as i64 + 1, clk);
            if node == 1 || node == 4 {
                d.write::<i64>(r, 2 * PAGE_SIZE + node * 8, node as i64, clk);
            }
            d.barrier(clk);
            let homes: Vec<usize> = (0..3).map(|p| d.home_of(r.first_page() + p)).collect();
            let mut vals = vec![d.read::<i64>(r, 0, clk)];
            for n in 0..6 {
                vals.push(d.read::<i64>(r, PAGE_SIZE + n * 8, clk));
            }
            vals.push(d.read::<i64>(r, 2 * PAGE_SIZE + 8, clk));
            vals.push(d.read::<i64>(r, 2 * PAGE_SIZE + 32, clk));
            d.barrier(clk);
            (homes, vals)
        })
    };
    let a = run();
    assert_eq!(a, run(), "the tree barrier must be deterministic");
    for (homes, vals) in &a {
        // Single writer takes the page; a home that wrote keeps it among
        // many writers; otherwise the smallest writer id wins.
        assert_eq!(homes, &[2, 0, 1]);
        assert_eq!(vals, &[42, 1, 2, 3, 4, 5, 6, 1, 4]);
    }
}

/// Steady-state barriers must scale like the tree depth, not
/// linearly in the node count: the critical path is ⌈log₂N⌉ hops.
#[test]
fn tree_barrier_vtime_scales_sublinearly() {
    let barrier_cost = |nodes: usize| {
        let out = run_nodes(nodes, small_cfg(), NetProfile::clan_via(), |d, clk| {
            d.barrier(clk); // warm-up: first barrier includes nothing extra here
            let t0 = clk.now();
            for _ in 0..4 {
                d.barrier(clk);
            }
            (clk.now().saturating_sub(t0)).as_nanos() / 4
        });
        out[0]
    };
    let c4 = barrier_cost(4);
    let c8 = barrier_cost(8);
    let c16 = barrier_cost(16);
    // Steady-state barriers (no protocol traffic in flight) are fully
    // deterministic: the sorted service fold erases real-time racing.
    assert_eq!(c8, barrier_cost(8), "steady barrier vtime must be exact");
    // Successive doubling must cost well under 2x (a master servicing N
    // arrivals serially would give ratios near 2).
    assert!(
        (c8 as f64) < (c4 as f64) * 1.7,
        "4->8 nodes ratio too steep: {c4} -> {c8}"
    );
    assert!(
        (c16 as f64) < (c8 as f64) * 1.7,
        "8->16 nodes ratio too steep: {c8} -> {c16}"
    );
}

#[test]
fn fixed_home_policy_never_migrates() {
    let cfg = DsmConfig {
        home_policy: HomePolicy::Fixed,
        ..small_cfg()
    };
    let out = run_nodes(3, cfg, NetProfile::zero(), |d, clk| {
        let r = alloc_on(&d, 64);
        d.barrier(clk);
        if d.node() == 2 {
            d.write::<i64>(r, 0, 5, clk);
        }
        d.barrier(clk);
        (d.home_of(r.first_page()), d.read::<i64>(r, 0, clk))
    });
    for (home, v) in out {
        assert_eq!(home, 0, "fixed-home policy must keep the master home");
        assert_eq!(v, 5);
    }
}

#[test]
fn multi_writer_same_page_merges_and_migrates_with_push() {
    // Nodes 1 and 2 write disjoint words of one page; old home 0 did not
    // write, so the page migrates to node 1 (smallest writer id) and node 0
    // pushes the merged content.
    let out = run_nodes(3, small_cfg(), NetProfile::zero(), |d, clk| {
        let r = alloc_on(&d, 1024);
        d.barrier(clk);
        match d.node() {
            1 => d.write::<i64>(r, 0, 11, clk),
            2 => d.write::<i64>(r, 512, 22, clk),
            _ => {}
        }
        d.barrier(clk);
        let a = d.read::<i64>(r, 0, clk);
        let b = d.read::<i64>(r, 512, clk);
        (d.home_of(r.first_page()), a, b)
    });
    for (home, a, b) in &out {
        assert_eq!(*home, 1, "min-writer-id should become home");
        assert_eq!((*a, *b), (11, 22), "merged writes must be visible");
    }
    // Old home pushed exactly once (node 0).
}

#[test]
fn current_home_keeps_page_when_it_also_writes() {
    let out = run_nodes(3, small_cfg(), NetProfile::zero(), |d, clk| {
        let r = alloc_on(&d, 1024);
        d.barrier(clk);
        // Home of the page starts at node 0 and node 0 writes too.
        match d.node() {
            0 => d.write::<i64>(r, 0, 1, clk),
            2 => d.write::<i64>(r, 512, 2, clk),
            _ => {}
        }
        d.barrier(clk);
        (
            d.home_of(r.first_page()),
            d.read::<i64>(r, 0, clk),
            d.read::<i64>(r, 512, clk),
        )
    });
    for (home, a, b) in out {
        assert_eq!(home, 0, "writing home has priority");
        assert_eq!((a, b), (1, 2));
    }
}

#[test]
fn repeated_owner_writes_after_migration_do_not_fetch() {
    // After the home migrates to the writer, its subsequent intervals need
    // no page traffic at all (locality exploitation, §5.2.2).
    let out = run_nodes(2, small_cfg(), NetProfile::zero(), |d, clk| {
        let r = alloc_on(&d, 64);
        // The home's write notice invalidates node 1's copy.
        if d.node() == 0 {
            d.write::<i64>(r, 0, 1, clk);
        }
        d.barrier(clk);
        assert_eq!(d.page_state(r.first_page()).readable(), d.node() == 0);
        for round in 0..5 {
            if d.node() == 1 {
                d.write::<i64>(r, 0, round + 100, clk);
            }
            d.barrier(clk);
        }
        d.stats.snapshot()
    });
    let s1 = &out[1];
    // First write faults and fetches once; after migration the page stays
    // home-resident at node 1.
    assert_eq!(s1.page_fetches, 1, "only the initial fetch is allowed");
    assert_eq!(s1.diffs_sent, 1, "only the pre-migration interval diffs");
}

#[test]
fn invalidation_counts_reflect_write_notices() {
    // Node 1 writes; node 2 (neither old nor new home) must invalidate its
    // cached copy, while node 0 — the old home with the merged diff — keeps
    // its copy valid and up to date. Node 0 writes the page first, so a
    // departure has named it: a fresh page's diff would not reach node 0.
    let out = run_nodes(3, small_cfg(), NetProfile::zero(), |d, clk| {
        let r = alloc_on(&d, 64);
        d.barrier(clk);
        if d.node() == 0 {
            d.write::<i64>(r, 8, 1, clk);
        }
        d.barrier(clk);
        // Everyone caches the page.
        let _ = d.read::<i64>(r, 0, clk);
        d.barrier(clk);
        if d.node() == 1 {
            d.write::<i64>(r, 0, 9, clk);
        }
        d.barrier(clk);
        let state = d.page_state(r.first_page());
        let snap = d.stats.snapshot();
        let v = d.read::<i64>(r, 0, clk);
        (snap, state, v)
    });
    let (s2, st2, v2) = &out[2];
    assert!(s2.invalidations >= 1, "node 2 should invalidate its copy");
    assert_eq!(*st2, PageState::Invalid);
    assert_eq!(*v2, 9, "refetch must observe the write");
    let (s0, st0, v0) = &out[0];
    assert_eq!(s0.invalidations, 0, "old home keeps its merged copy");
    assert_eq!(*st0, PageState::ReadOnly);
    assert_eq!(*v0, 9, "old home's merged copy is current");
}

#[test]
fn dsm_lock_protects_shared_counter() {
    let n = 4;
    let rounds = 10;
    let out = run_nodes(n, small_cfg(), NetProfile::zero(), move |d, clk| {
        let r = alloc_on(&d, 64);
        d.barrier(clk);
        for _ in 0..rounds {
            d.lock_acquire(7, clk);
            let v = d.read::<i64>(r, 0, clk);
            d.write::<i64>(r, 0, v + 1, clk);
            d.lock_release(7, clk);
        }
        d.barrier(clk);
        d.read::<i64>(r, 0, clk)
    });
    for v in out {
        assert_eq!(v, (n * rounds) as i64);
    }
}

/// What a caught panic said.
fn panic_text(r: std::thread::Result<()>) -> String {
    let payload = r.expect_err("must panic");
    payload
        .downcast_ref::<String>()
        .expect("formatted panic")
        .clone()
}

#[test]
fn a_bad_frame_names_the_receiver_the_sender_and_the_error() {
    use parade_net::{Bytes, MsgClass};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let fabric = Fabric::new(2, NetProfile::zero());
    let dsms: Vec<Dsm> = (0..2)
        .map(|i| Dsm::new(fabric.endpoint(i), small_cfg()))
        .collect();
    let mut clock = VClock::manual();

    // A request the comm thread cannot parse: a one-page fetch cut short.
    dsms[1]
        .endpoint()
        .send(0, MsgClass::Dsm, 0, Bytes::from(vec![1u8, 42]), &mut clock);
    let pkt = dsms[0].endpoint().try_recv(MsgClass::Dsm).expect("sent");
    let mut srv = crate::server::CommServer::new(small_cfg().comm);
    let said = panic_text(catch_unwind(AssertUnwindSafe(|| {
        dsms[0].handle_packet(pkt, &mut srv)
    })));
    assert_eq!(
        said,
        "node 0: bad dsm frame from node 1 on tag 0x0: \
         truncated frame: u64 needs 8 bytes, 1 left"
    );

    // Node 1 takes a lock whose grant, from node 0 (its manager), names
    // the region's page: the write notice invalidates node 1's copy.
    let r = alloc_on(&dsms[0], 64);
    assert_eq!(alloc_on(&dsms[1], 64), r);
    let tag = crate::msg::REPLY_TAG_BASE;
    let grant = crate::msg::DsmReply::LockGrant {
        cur_seq: 1,
        notices: vec![r.first_page()],
    };
    dsms[0]
        .endpoint()
        .send(1, MsgClass::Ctl, tag, grant.encode(), &mut clock);
    dsms[1].lock_acquire(0, &mut clock);
    assert_eq!(dsms[1].page_state(r.first_page()), PageState::Invalid);
    // A reply the faulting thread cannot parse, waiting under the tag node
    // 1's fetch will listen on.
    dsms[0].endpoint().send(
        1,
        MsgClass::Ctl,
        tag + 1,
        Bytes::from(vec![0xEEu8]),
        &mut clock,
    );
    let said = panic_text(catch_unwind(AssertUnwindSafe(|| {
        dsms[1].read::<i64>(r, 0, &mut clock);
    })));
    assert_eq!(
        said,
        "node 1: bad dsm frame from node 0 on tag 0x100000001: \
         unknown message kind byte 0xee"
    );
}

/// Node `from` hands node 0's comm thread one request; what does node 0
/// say? Both nodes' tables hold the 16 pages of one region.
fn node0_says(from: usize, msg: crate::msg::DsmMsg) -> String {
    use parade_net::MsgClass;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let fabric = Fabric::new(2, NetProfile::zero());
    let dsms: Vec<Dsm> = (0..2)
        .map(|i| Dsm::new(fabric.endpoint(i), small_cfg()))
        .collect();
    for d in &dsms {
        alloc_on(d, 16 * PAGE_SIZE);
    }
    let mut clock = VClock::manual();
    dsms[from]
        .endpoint()
        .send(0, MsgClass::Dsm, 0, msg.encode(), &mut clock);
    let pkt = dsms[0].endpoint().try_recv(MsgClass::Dsm).expect("sent");
    let mut srv = crate::server::CommServer::new(small_cfg().comm);
    panic_text(catch_unwind(AssertUnwindSafe(|| {
        dsms[0].handle_packet(pkt, &mut srv)
    })))
}

#[test]
fn a_barrier_naming_a_page_or_node_out_of_range_is_a_bad_frame() {
    use crate::msg::DsmMsg;

    let up = |members: Vec<(usize, u64)>, readers: Vec<(usize, usize)>| DsmMsg::BarrierUp {
        seq: 0,
        members,
        writers: vec![(2, 1)],
        readers,
    };
    // A reader-only page past the extent (the protocol table would grow
    // to it), a reader node past the cluster (a push target), a member
    // past the cluster (a departure target), and the root's own arrival:
    // each refused by the decoder, which takes the receiver's extent and
    // node count.
    assert_eq!(
        node0_says(1, up(vec![(1, 9)], vec![(40, 1)])),
        "node 0: bad dsm frame from node 1 on tag 0x0: \
         pages 40..41 reach past the page table's extent of 16 pages"
    );
    assert_eq!(
        node0_says(1, up(vec![(1, 9)], vec![(2, 7)])),
        "node 0: bad dsm frame from node 1 on tag 0x0: \
         frame names node 7 of a 2-node cluster"
    );
    assert_eq!(
        node0_says(1, up(vec![(5, 9)], vec![])),
        "node 0: bad dsm frame from node 1 on tag 0x0: \
         frame names node 5 of a 2-node cluster"
    );
    let arrive = DsmMsg::BarrierArrive {
        seq: 0,
        node: 0,
        reply_tag: 9,
        notices: vec![16],
        reads: vec![],
    };
    assert_eq!(
        node0_says(0, arrive),
        "node 0: bad dsm frame from node 0 on tag 0x0: \
         pages 16..17 reach past the page table's extent of 16 pages"
    );
}

/// A fetch is decoded against the page table too, so the server never
/// walks a range straight off the wire: a range past the extent fails the
/// comm thread by name, before any page-table lookup. (The decoder's other
/// refusals are `msg.rs`'s `requests_are_held_to_the_table_and_the_cluster`.)
#[test]
fn a_fetch_past_the_extent_is_a_bad_frame() {
    use crate::msg::{DsmMsg, PageReq, REPLY_TAG_BASE};

    let past = DsmMsg::ReqPages(PageReq {
        first: 10,
        count: 10,
        requester: 1,
        reply_tag: REPLY_TAG_BASE,
    });
    assert_eq!(
        node0_says(1, past),
        "node 0: bad dsm frame from node 1 on tag 0x0: \
         pages 10..20 reach past the page table's extent of 16 pages"
    );
}

#[test]
fn concurrent_faults_on_one_node_fetch_once() {
    // Two threads of the same node fault the same page simultaneously: the
    // TRANSIENT/BLOCKED machinery must coalesce them into a single fetch.
    let out = run_nodes(2, small_cfg(), NetProfile::clan_via(), |d, clk| {
        let r = alloc_on(&d, 1024);
        if d.node() == 0 {
            for i in 0..128 {
                d.write::<f64>(r, i * 8, 2.0, clk);
            }
        }
        d.barrier(clk);
        if d.node() == 1 {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let d = Arc::clone(&d);
                    std::thread::spawn(move || {
                        let mut clk = VClock::manual();
                        let mut s = 0.0;
                        for i in 0..128 {
                            s += d.read::<f64>(r, i * 8, &mut clk);
                        }
                        s
                    })
                })
                .collect();
            for w in workers {
                assert_eq!(w.join().unwrap(), 256.0);
            }
        }
        d.barrier(clk);
        d.stats.snapshot()
    });
    let s1 = &out[1];
    assert_eq!(
        s1.page_fetches, 1,
        "waiters must not issue duplicate fetches"
    );
}

#[test]
fn naive_update_strategy_exhibits_torn_reads() {
    // The atomic page update problem (§5.1): with the naive strategy the
    // page becomes readable before the copy completes, so a concurrent
    // reader can observe a half-updated page. The safe strategies never
    // allow this (readers block on TRANSIENT).
    fn torn_observations(strategy: UpdateStrategy, trials: usize) -> usize {
        let mut torn = 0;
        for _ in 0..trials {
            let out = run_nodes(
                2,
                DsmConfig {
                    update_strategy: strategy,
                    ..small_cfg()
                },
                NetProfile::zero(),
                |d, clk| {
                    let r = alloc_on(&d, PAGE_SIZE);
                    if d.node() == 0 {
                        for i in 0..PAGE_SIZE / 8 {
                            d.write::<i64>(r, i * 8, 1, clk);
                        }
                    }
                    d.barrier(clk);
                    let mut saw_torn = false;
                    if d.node() == 1 {
                        let last = PAGE_SIZE - 8;
                        let d2 = Arc::clone(&d);
                        // Trigger the fetch from a sibling thread.
                        let t = std::thread::spawn(move || {
                            let mut c = VClock::manual();
                            d2.read::<i64>(r, 0, &mut c)
                        });
                        // Spin until the page looks readable, then check the
                        // *last* word immediately.
                        loop {
                            let st = d.page_state(r.first_page());
                            if st == PageState::ReadOnly || st == PageState::Dirty {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                        let v = d.read::<i64>(r, last, clk);
                        if v == 0 {
                            saw_torn = true;
                        }
                        t.join().unwrap();
                    }
                    d.barrier(clk);
                    saw_torn
                },
            );
            if out[1] {
                torn += 1;
            }
        }
        torn
    }

    assert_eq!(
        torn_observations(UpdateStrategy::MmapFile, 5),
        0,
        "safe strategy must never show a torn page"
    );
    let torn = torn_observations(UpdateStrategy::NaiveUnsafe, 10);
    assert!(
        torn > 0,
        "naive strategy should expose the atomic-page-update race"
    );
}

#[test]
fn fetch_advances_virtual_time_by_round_trip() {
    let profile = NetProfile::clan_via();
    let out = run_nodes(2, small_cfg(), profile, |d, clk| {
        let r = alloc_on(&d, 64);
        if d.node() == 0 {
            d.write::<i64>(r, 0, 3, clk);
        }
        d.barrier(clk);
        let before = clk.now();
        if d.node() == 1 {
            let _ = d.read::<i64>(r, 0, clk);
        }
        clk.now().saturating_sub(before)
    });
    let rtt = out[1];
    // At least two one-way latencies plus the page transfer.
    let min = parade_net::VTime::from_nanos(2 * 7_500);
    assert!(rtt >= min, "fetch rtt {rtt} below network minimum {min}");
}

#[test]
fn slice_operations_roundtrip_across_nodes() {
    let out = run_nodes(3, small_cfg(), NetProfile::zero(), |d, clk| {
        let r = alloc_on(&d, 3000 * 8);
        d.barrier(clk);
        if d.node() == 1 {
            let data: Vec<f64> = (0..3000).map(|i| i as f64 * 0.5).collect();
            d.write_slice(r, 0, &data, clk);
        }
        d.barrier(clk);
        let mut buf = vec![0.0f64; 3000];
        d.read_slice(r, 0, &mut buf, clk);
        buf.iter().sum::<f64>()
    });
    let expect: f64 = (0..3000).map(|i| i as f64 * 0.5).sum();
    for s in out {
        assert_eq!(s, expect);
    }
}

#[test]
fn single_node_cluster_degenerates_gracefully() {
    let out = run_nodes(1, small_cfg(), NetProfile::zero(), |d, clk| {
        let r = alloc_on(&d, 1024);
        for i in 0..16 {
            d.write::<i64>(r, i * 8, i as i64, clk);
        }
        d.barrier(clk);
        d.lock_acquire(0, clk);
        d.lock_release(0, clk);
        (0..16).map(|i| d.read::<i64>(r, i * 8, clk)).sum::<i64>()
    });
    assert_eq!(out[0], 120);
    // No remote traffic should have been generated... besides local
    // messages, which the stats count but the fabric marks as local.
}

#[test]
fn interleaved_lock_and_barrier_phases() {
    // Lock-flushed pages must still appear in barrier write notices so
    // non-participants get invalidated.
    let out = run_nodes(3, small_cfg(), NetProfile::zero(), |d, clk| {
        let r = alloc_on(&d, 64);
        d.barrier(clk);
        if d.node() == 2 {
            // Everyone caches first.
        }
        let _ = d.read::<i64>(r, 0, clk);
        d.barrier(clk);
        if d.node() == 1 {
            d.lock_acquire(9, clk);
            d.write::<i64>(r, 0, 42, clk);
            d.lock_release(9, clk);
        }
        d.barrier(clk);
        d.read::<i64>(r, 0, clk)
    });
    assert_eq!(out, vec![42, 42, 42]);
}

// ---------------------------------------------------------------------------
// Release-path batching and range fetches
// ---------------------------------------------------------------------------

#[test]
fn release_sends_one_batch_message_per_home() {
    // N dirty pages all homed on the peer: the release must ship exactly
    // one DSM message and wait on exactly one ack, regardless of N.
    const N: usize = 8;
    let cfg = DsmConfig {
        home_policy: HomePolicy::Fixed,
        ..small_cfg()
    };
    let out = run_nodes(2, cfg, NetProfile::zero(), |d, clk| {
        let r = alloc_on(&d, N * PAGE_SIZE);
        d.barrier(clk);
        if d.node() == 1 {
            for p in 0..N {
                d.write::<i64>(r, p * PAGE_SIZE, p as i64 + 1, clk);
            }
            // Writes fetched pages; quiesce, then measure the flush alone.
            let before = d.endpoint().local_stats().snapshot();
            let flushed = d.flush(clk);
            let after = d.endpoint().local_stats().snapshot();
            assert_eq!(flushed.len(), N);
            assert_eq!(
                after.sent.msgs - before.sent.msgs,
                1,
                "one DiffBatch on the wire, not one Diff per page"
            );
            assert_eq!(
                after.received.msgs - before.received.msgs,
                1,
                "one DiffBatchAck back, not one ack per page"
            );
        }
        d.barrier(clk);
        let sum: i64 = (0..N).map(|p| d.read::<i64>(r, p * PAGE_SIZE, clk)).sum();
        (d.stats.snapshot(), sum)
    });
    let (s1, _) = &out[1];
    assert_eq!(s1.diff_batches, 1, "single destination home, single batch");
    assert_eq!(s1.diffs_sent, N as u64, "per-page diff count is preserved");
    assert!(
        s1.diff_bytes > s1.diff_payload_bytes,
        "wire bytes include framing over the modified-run payload"
    );
    assert!(s1.diff_payload_bytes >= (N * 8) as u64);
    let expect: i64 = (1..=N as i64).sum();
    for (_, sum) in &out {
        assert_eq!(*sum, expect, "home merged every page's diff");
    }
}

#[test]
fn disjoint_writer_diffs_merge_at_home_through_batches() {
    // Nodes 1 and 2 write disjoint halves of the same N pages homed at
    // node 0. Each release is one batch; the home merges both batches run
    // by run and everyone reads the union.
    const N: usize = 4;
    let cfg = DsmConfig {
        home_policy: HomePolicy::Fixed,
        ..small_cfg()
    };
    let out = run_nodes(3, cfg, NetProfile::zero(), |d, clk| {
        let r = alloc_on(&d, N * PAGE_SIZE);
        d.barrier(clk);
        match d.node() {
            1 => {
                for p in 0..N {
                    d.write::<i64>(r, p * PAGE_SIZE, 100 + p as i64, clk);
                }
            }
            2 => {
                for p in 0..N {
                    d.write::<i64>(r, p * PAGE_SIZE + PAGE_SIZE / 2, 200 + p as i64, clk);
                }
            }
            _ => {}
        }
        d.barrier(clk);
        let mut vals = Vec::new();
        for p in 0..N {
            vals.push((
                d.read::<i64>(r, p * PAGE_SIZE, clk),
                d.read::<i64>(r, p * PAGE_SIZE + PAGE_SIZE / 2, clk),
            ));
        }
        (d.stats.snapshot(), vals)
    });
    for (node, (snap, vals)) in out.iter().enumerate() {
        for (p, &(a, b)) in vals.iter().enumerate() {
            assert_eq!(
                (a, b),
                (100 + p as i64, 200 + p as i64),
                "node {node} page {p} must see both writers' words"
            );
        }
        if node == 1 || node == 2 {
            assert_eq!(snap.diff_batches, 1, "writer {node} released one batch");
            assert_eq!(snap.diffs_sent, N as u64);
        }
    }
}

#[test]
fn contiguous_fetches_coalesce_into_one_range_request() {
    const N: usize = 8;
    let cfg = DsmConfig {
        home_policy: HomePolicy::Fixed,
        ..small_cfg()
    };
    let out = run_nodes(2, cfg, NetProfile::zero(), |d, clk| {
        let r = alloc_on(&d, N * PAGE_SIZE);
        if d.node() == 0 {
            let data: Vec<f64> = (0..N * PAGE_SIZE / 8).map(|i| i as f64).collect();
            d.write_slice(r, 0, &data, clk);
        }
        d.barrier(clk);
        if d.node() == 1 {
            let mut buf = vec![0.0f64; N * PAGE_SIZE / 8];
            d.read_slice(r, 0, &mut buf, clk);
            let expect: f64 = (0..buf.len()).map(|i| i as f64).sum();
            assert_eq!(buf.iter().sum::<f64>(), expect);
        }
        d.barrier(clk);
        d.stats.snapshot()
    });
    let s1 = &out[1];
    assert_eq!(s1.range_fetches, 1, "8 contiguous pages, one round trip");
    assert_eq!(s1.range_fetch_pages, N as u64);
    assert_eq!(s1.page_fetches, N as u64);
    assert_eq!(s1.fetch_bytes, (N * PAGE_SIZE) as u64);
}

#[test]
fn range_fetch_splits_at_home_boundaries() {
    // Pages 0..4 migrate to node 0, pages 4..8 to node 1; node 2's sweep
    // over all eight pages must issue one range request per home.
    const N: usize = 8;
    let out = run_nodes(3, small_cfg(), NetProfile::zero(), |d, clk| {
        let r = alloc_on(&d, N * PAGE_SIZE);
        d.barrier(clk);
        let words = PAGE_SIZE / 8;
        match d.node() {
            0 => {
                let data: Vec<f64> = (0..4 * words).map(|i| i as f64).collect();
                d.write_slice(r, 0, &data, clk);
            }
            1 => {
                let data: Vec<f64> = (0..4 * words).map(|i| (4 * words + i) as f64).collect();
                d.write_slice(r, 4 * words, &data, clk);
            }
            _ => {}
        }
        d.barrier(clk);
        let homes: Vec<usize> = (0..N).map(|p| d.home_of(r.first_page() + p)).collect();
        if d.node() == 2 {
            let mut buf = vec![0.0f64; N * words];
            d.read_slice(r, 0, &mut buf, clk);
            let expect: f64 = (0..N * words).map(|i| i as f64).sum();
            assert_eq!(buf.iter().sum::<f64>(), expect);
        }
        d.barrier(clk);
        (d.stats.snapshot(), homes)
    });
    let (s2, homes) = &out[2];
    assert_eq!(&homes[..4], &[0, 0, 0, 0], "first half migrated to node 0");
    assert_eq!(&homes[4..], &[1, 1, 1, 1], "second half migrated to node 1");
    assert_eq!(s2.range_fetches, 2, "one coalesced fetch per home");
    assert_eq!(s2.range_fetch_pages, N as u64);
}

// ---------------------------------------------------------------------------
// Randomized stress tests (deterministic: driven by the 46-bit NAS LCG via
// parade-testkit, so every run replays the identical op sequence).
// ---------------------------------------------------------------------------

/// Each node writes TestRng-derived values at TestRng-derived offsets inside
/// its own word stripe (word % nnodes == node). After a barrier every node
/// must observe the same merged image, and that image must equal a local
/// replay of the very same seeded streams.
#[test]
fn randomized_disjoint_writes_converge_reproducibly() {
    use parade_testkit::rng::TestRng;

    const NODES: usize = 4;
    const WORDS: usize = 4096 / 8 * 4; // 4 pages of i64 words
    const ROUNDS: usize = 3;
    const OPS_PER_ROUND: usize = 48;
    const BASE_SEED: u64 = 0xD5A0_2003;

    // Replay the per-node streams to build the expected final image. Within a
    // round a node may hit the same word twice; program order wins, and
    // stripes are disjoint across nodes, so a sequential replay is exact.
    let mut model = vec![0i64; WORDS];
    for node in 0..NODES {
        let mut rng = TestRng::derive(BASE_SEED, node as u64);
        let stripe: Vec<usize> = (0..WORDS).filter(|w| w % NODES == node).collect();
        for _round in 0..ROUNDS {
            for _ in 0..OPS_PER_ROUND {
                let w = stripe[rng.range_usize(0, stripe.len() - 1)];
                let v = rng.next_u64() as i64;
                model[w] = v;
            }
        }
    }
    let expected_sum: i64 = model.iter().fold(0i64, |a, &v| a.wrapping_add(v));

    let run_once = || {
        run_nodes(NODES, small_cfg(), NetProfile::zero(), |d, clk| {
            let r = alloc_on(&d, WORDS * 8);
            d.barrier(clk);
            let node = d.node();
            let mut rng = TestRng::derive(BASE_SEED, node as u64);
            let stripe: Vec<usize> = (0..WORDS).filter(|w| w % NODES == node).collect();
            for _round in 0..ROUNDS {
                for _ in 0..OPS_PER_ROUND {
                    let w = stripe[rng.range_usize(0, stripe.len() - 1)];
                    let v = rng.next_u64() as i64;
                    d.write::<i64>(r, w * 8, v, clk);
                }
                d.barrier(clk);
            }
            (0..WORDS)
                .map(|w| d.read::<i64>(r, w * 8, clk))
                .fold(0i64, |a, v| a.wrapping_add(v))
        })
    };

    let first = run_once();
    for (node, &sum) in first.iter().enumerate() {
        assert_eq!(sum, expected_sum, "node {node} diverged from seeded replay");
    }
    // Run-to-run reproducibility: a second cluster with the same seeds must
    // land on the identical image.
    let second = run_once();
    assert_eq!(first, second, "same seeds must reproduce the same image");
}

/// Lock-protected read-modify-writes at TestRng-chosen counter slots. The
/// per-slot totals are exactly computable by replaying the seeded streams,
/// so any lost update or stale read shows up as an exact-count mismatch.
#[test]
fn randomized_lock_protected_counters_are_exact() {
    use parade_testkit::rng::TestRng;

    const NODES: usize = 3;
    const SLOTS: usize = 4;
    const OPS: usize = 24;
    const BASE_SEED: u64 = 0x10C4_BEEF;

    let mut expected = vec![0i64; SLOTS];
    for node in 0..NODES {
        let mut rng = TestRng::derive(BASE_SEED, node as u64);
        for _ in 0..OPS {
            let slot = rng.range_usize(0, SLOTS - 1);
            let inc = rng.range_i64(1, 9);
            expected[slot] += inc;
        }
    }

    let out = run_nodes(NODES, small_cfg(), NetProfile::zero(), |d, clk| {
        let r = alloc_on(&d, SLOTS * 8);
        d.barrier(clk);
        let mut rng = TestRng::derive(BASE_SEED, d.node() as u64);
        for _ in 0..OPS {
            let slot = rng.range_usize(0, SLOTS - 1);
            let inc = rng.range_i64(1, 9);
            d.lock_acquire(slot as u64, clk);
            let cur = d.read::<i64>(r, slot * 8, clk);
            d.write::<i64>(r, slot * 8, cur + inc, clk);
            d.lock_release(slot as u64, clk);
        }
        d.barrier(clk);
        (0..SLOTS)
            .map(|s| d.read::<i64>(r, s * 8, clk))
            .collect::<Vec<i64>>()
    });
    for (node, counters) in out.iter().enumerate() {
        assert_eq!(counters, &expected, "node {node} observed wrong totals");
    }
}

#[test]
fn teardown_releases_a_thread_parked_on_a_blocked_page() {
    use parade_testkit::prelude::run_with_timeout;
    use std::time::Duration;

    // The default pool: 16 384 pages, of which the page table builds the
    // region's 40 and the teardown scan must find the one somebody sleeps on.
    let cfg = DsmConfig::default();
    assert_eq!(cfg.pool_bytes / PAGE_SIZE, 16_384);
    run_with_timeout(
        "teardown wakes page waiter",
        Duration::from_secs(60),
        move || {
            let fabric = Fabric::new(2, NetProfile::zero());
            let dsms: Vec<Arc<Dsm>> = (0..2)
                .map(|i| Arc::new(Dsm::new(fabric.endpoint(i), cfg)))
                .collect();
            let comm: Vec<_> = dsms
                .iter()
                .map(|d| spawn_comm_thread(Arc::clone(d)))
                .collect();
            // Node 0 is the initial home of every page. Its write, released
            // under a lock node 1 then takes, invalidates node 1's copy.
            let region = alloc_on(&dsms[0], 40 * PAGE_SIZE);
            let d = Arc::clone(&dsms[1]);
            assert_eq!(alloc_on(&d, 40 * PAGE_SIZE), region);
            let page = region.last_page();
            let mut clock = VClock::manual();
            dsms[0].lock_acquire(1, &mut clock);
            dsms[0].write::<f64>(region, region.len - 8, 1.0, &mut clock);
            dsms[0].lock_release(1, &mut clock);
            d.lock_acquire(1, &mut clock);
            assert_eq!(d.page_state(page), PageState::Invalid);
            // A fetch that will never complete holds the page TRANSIENT.
            let meta = &d.pages[page];
            meta.set_state(&mut meta.inner.lock(), PageState::Transient);
            let reader = {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    let mut clock = VClock::manual();
                    d.read::<f64>(region, region.len - 8, &mut clock)
                })
            };
            // The reader marks the page BLOCKED under the page lock and gives
            // the lock up only by sleeping, so once both are seen it is parked.
            while d.page_state(page) != PageState::Blocked {
                std::thread::yield_now();
            }
            drop(meta.inner.lock());
            fabric.begin_shutdown();
            for h in comm {
                h.join().unwrap();
            }
            // Woken, it finds the fabric down and unwinds (fail-stop).
            assert!(reader.join().is_err(), "the read cannot have completed");
        },
    );
}

// ---------------------------------------------------------------------------
// The page table is built as regions are allocated
// ---------------------------------------------------------------------------

/// A `Dsm` builds no page-table entry before a region needs it: two of the
/// default 64 MB pool (16 384 pages each) raise the resident set by less
/// than 256 KB, where building every entry up front cost about 1.3 MB a
/// node.
#[test]
fn a_default_pool_dsm_builds_no_page_table_up_front() {
    const ALLOWED: usize = 256 << 10;
    let fabric = Fabric::new(2, NetProfile::zero());
    // Sibling tests allocate while this one measures; building the table
    // shows in every attempt, their noise does not.
    let attempts = (0..5).map(|_| {
        let before = crate::store::resident_bytes()?;
        let dsms: Vec<Dsm> = (0..2)
            .map(|i| Dsm::new(fabric.endpoint(i), DsmConfig::default()))
            .collect();
        let grew = crate::store::resident_bytes()?.saturating_sub(before);
        drop(dsms);
        Some(grew)
    });
    let Some(grew) = attempts.min().flatten() else {
        return; // no procfs here
    };
    assert!(
        grew < ALLOWED,
        "two default-pool Dsms raised the resident set by {grew} bytes"
    );
}

#[test]
fn the_page_table_extent_is_the_allocated_pages_on_every_node() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let out = run_nodes(3, small_cfg(), NetProfile::zero(), |d, clk| {
        assert_eq!(d.pages.extent(), 0, "a fresh table is empty");
        // 1 page, 1, 2, none (an empty region), 3.
        let extents: Vec<usize> = [1, PAGE_SIZE, PAGE_SIZE + 1, 0, 3 * PAGE_SIZE - 8]
            .into_iter()
            .map(|len| {
                alloc_on(&d, len);
                d.pages.extent()
            })
            .collect();
        // Faults, fetches, diffs, write notices and barriers build nothing.
        let r = d.region(4).expect("allocated");
        d.barrier(clk);
        d.write::<i64>(r, d.node() * 8, 1, clk);
        d.barrier(clk);
        let sum: i64 = (0..3).map(|n| d.read::<i64>(r, n * 8, clk)).sum();
        assert_eq!(sum, 3);
        assert_eq!(d.pages.extent(), 7);
        // One past the extent is no page of this node.
        let past = catch_unwind(AssertUnwindSafe(|| d.page_state(7)));
        assert_eq!(
            panic_text(past.map(drop)),
            "page 7 is past the page table's extent of 7 pages \
             (no region this node allocated covers it)"
        );
        extents
    });
    for extents in out {
        assert_eq!(extents, vec![1, 2, 4, 4, 7]);
    }
}

// ---------------------------------------------------------------------------
// Every copy starts valid: a page no write notice has named is zero on every
// node, so nobody fetches it
// ---------------------------------------------------------------------------

#[test]
fn a_never_written_region_reads_zero_everywhere_without_a_fetch() {
    let out = run_nodes(3, small_cfg(), NetProfile::zero(), |d, clk| {
        let r = alloc_on(&d, 5 * PAGE_SIZE);
        let states: Vec<PageState> = (r.first_page()..=r.last_page())
            .map(|p| d.page_state(p))
            .collect();
        assert_eq!(states, vec![PageState::ReadOnly; 5]);
        d.barrier(clk);
        let sum: u64 = (0..r.len / 8).map(|i| d.read::<u64>(r, i * 8, clk)).sum();
        d.barrier(clk);
        (sum, d.stats.snapshot())
    });
    for (node, (sum, s)) in out.iter().enumerate() {
        assert_eq!(*sum, 0, "node {node}");
        assert_eq!((s.page_fetches, s.read_faults), (0, 0), "node {node}");
    }
}

#[test]
fn a_master_write_before_the_fork_reaches_every_node() {
    // The master's serial phase writes the middle page of three; the
    // barrier that forks the team carries the write notice.
    let out = run_nodes(3, small_cfg(), NetProfile::zero(), |d, clk| {
        let r = alloc_on(&d, 3 * PAGE_SIZE);
        if d.node() == 0 {
            d.write::<f64>(r, PAGE_SIZE + 16, 2.5, clk);
        }
        d.barrier(clk);
        let read: Vec<f64> = [16, PAGE_SIZE + 16, 2 * PAGE_SIZE + 16]
            .iter()
            .map(|&at| d.read::<f64>(r, at, clk))
            .collect();
        (read, d.stats.snapshot().page_fetches)
    });
    for (node, (read, fetches)) in out.iter().enumerate() {
        assert_eq!(read, &[0.0, 2.5, 0.0], "node {node}");
        // Only the written page travels, and only to the nodes it is not
        // homed on.
        assert_eq!(*fetches, (node != 0) as u64, "node {node}");
    }
}

#[test]
fn a_write_ordered_only_by_a_lock_grant_reaches_the_next_acquirer() {
    use std::sync::atomic::{AtomicBool, Ordering};

    // Node 0 writes under lock 2 (managed by node 2) and releases; only
    // then does node 1 acquire. No barrier lies between the write and the
    // read, so the grant's write notice alone must invalidate node 1's
    // valid zero copy.
    let released = Arc::new(AtomicBool::new(false));
    let out = run_nodes(3, small_cfg(), NetProfile::zero(), move |d, clk| {
        let r = alloc_on(&d, 64);
        // Every table holds the region before a frame names its page.
        d.barrier(clk);
        let seen = match d.node() {
            0 => {
                d.lock_acquire(2, clk);
                d.write::<i64>(r, 8, 42, clk);
                d.lock_release(2, clk);
                released.store(true, Ordering::Release);
                None
            }
            1 => {
                while !released.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                d.lock_acquire(2, clk);
                let v = d.read::<i64>(r, 8, clk);
                d.lock_release(2, clk);
                Some((v, d.stats.snapshot().page_fetches))
            }
            _ => None,
        };
        d.barrier(clk);
        seen
    });
    assert_eq!(out[1], Some((42, 1)));
}

#[test]
fn a_region_allocated_after_writes_starts_valid_and_zero() {
    let out = run_nodes(3, small_cfg(), NetProfile::zero(), |d, clk| {
        let a = alloc_on(&d, 2 * PAGE_SIZE);
        d.barrier(clk);
        d.write::<u64>(a, d.node() * PAGE_SIZE / 2, u64::MAX, clk);
        d.barrier(clk);
        let before = d.stats.snapshot().page_fetches;
        let b = alloc_on(&d, 2 * PAGE_SIZE);
        let valid = (b.first_page()..=b.last_page()).all(|p| d.page_state(p).readable());
        let sum: u64 = (0..b.len / 8).map(|i| d.read::<u64>(b, i * 8, clk)).sum();
        d.barrier(clk);
        (valid, sum, d.stats.snapshot().page_fetches - before)
    });
    assert_eq!(out, vec![(true, 0, 0); 3]);
}

/// A page frame is held to whole pages: a short `PagePush` fails the
/// comm thread by name, before anything is copied into the pool.
#[test]
fn a_short_page_push_is_a_bad_frame() {
    use crate::msg::DsmMsg;

    let push = DsmMsg::PagePush {
        page: 2,
        barrier_seq: 0,
        data: parade_net::Bytes::from(vec![0u8; 16]),
    };
    assert_eq!(
        node0_says(1, push),
        "node 0: bad dsm frame from node 1 on tag 0x0: \
         page data of 16 bytes is not one 4096-byte page"
    );
}
