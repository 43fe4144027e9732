//! Departure-stream golden: a scripted 4-node barrier history driven
//! through `handle_packet` (no threads, no real-time schedule), with every
//! `BarrierUp` and `BarrierDepart` payload compared byte-for-byte against
//! `depart_golden.txt`.
//!
//! The golden was recorded at the commit *before* the page bookkeeping
//! went dense (hashed writer/reader maps in the tree barrier, tree maps in
//! the protocol table), so it pins the wire: whatever the in-memory shape
//! of the merge, the bytes a barrier puts on the fabric do not move.

use std::fmt::Write as _;

use parade_net::{Fabric, Match, MsgClass, NetProfile, VClock};
use parade_testkit::wire::hex;

use crate::config::DsmConfig;
use crate::engine::Dsm;
use crate::msg::{DsmMsg, DsmReply, REPLY_TAG_BASE};
use crate::page::{PageId, PAGE_SIZE};
use crate::server::CommServer;

const NODES: usize = 4;
const PAGES: usize = 128;

/// One node's contribution to one barrier: (write notices, read notices),
/// both sorted as `Dsm::barrier` produces them.
type Arrival = (&'static [PageId], &'static [PageId]);

/// The scripted history. Each barrier lists the order the nodes arrive in
/// (so subtree contributions reach the merge both sorted and unsorted) and
/// every node's notices.
///
/// * 0 — single writers (3 → node 1, 5 → node 2), a readers-only page 10;
/// * 1 — multi-writer *with* the old home (page 3: nodes 1, 2; home 1),
///   multi-writer *without* it (page 7: nodes 2, 3; home 0), word-boundary
///   pages 63/64/65 and the pool's last page, readers-only page 11;
/// * 2 — page 10 written by its home with three recorded sharers: the
///   update flip; node 3 writes page 7 alone and takes it;
/// * 3, 4 — the update streak continues; page 7 contested again by nodes
///   2 and 3, and its home, node 3, keeps it;
/// * 5 — the fourth update decision: probation invalidate, sharers
///   re-measured from this interval's readers;
/// * 6 — nodes 1 and 2 re-fault page 10 after the probation: it flips back
///   to update;
/// * 7 — an empty barrier.
const HISTORY: [([usize; NODES], [Arrival; NODES]); 8] = [
    (
        [0, 1, 2, 3],
        [(&[], &[]), (&[3], &[10]), (&[5], &[10]), (&[], &[10])],
    ),
    (
        [3, 1, 0, 2],
        [
            (&[63, 64], &[3, 11]),
            (&[3, 64, 127], &[]),
            (&[3, 7, 65], &[5]),
            (&[7, 64, 65, 127], &[3]),
        ],
    ),
    (
        [2, 3, 1, 0],
        [(&[10], &[]), (&[], &[]), (&[], &[]), (&[7], &[])],
    ),
    (
        [1, 0, 3, 2],
        [(&[10], &[]), (&[], &[]), (&[], &[10]), (&[7], &[])],
    ),
    (
        [3, 2, 1, 0],
        [(&[10], &[7]), (&[], &[7]), (&[7], &[]), (&[7], &[])],
    ),
    (
        [0, 2, 1, 3],
        [(&[10], &[]), (&[], &[10]), (&[], &[10]), (&[], &[])],
    ),
    (
        [1, 3, 2, 0],
        [(&[10], &[]), (&[], &[10]), (&[], &[10]), (&[], &[])],
    ),
    (
        [2, 0, 3, 1],
        [(&[], &[]), (&[], &[]), (&[], &[]), (&[], &[])],
    ),
];

/// Run the history; returns the recorded stream and the dsm instances (for
/// end-state assertions).
fn run_history() -> (String, Vec<Dsm>) {
    let fabric = Fabric::new(NODES, NetProfile::zero());
    let cfg = DsmConfig {
        pool_bytes: PAGES * PAGE_SIZE,
        ..DsmConfig::default()
    };
    let dsms: Vec<Dsm> = (0..NODES)
        .map(|i| Dsm::new(fabric.endpoint(i), cfg))
        .collect();
    // Every node's table covers the whole pool, as one region.
    for d in &dsms {
        d.alloc_region(PAGES * PAGE_SIZE).unwrap();
    }
    let mut servers: Vec<CommServer> = (0..NODES).map(|_| CommServer::new(cfg.comm)).collect();
    let mut clock = VClock::manual();
    let mut out = String::new();
    for (seq, (order, arrivals)) in HISTORY.iter().enumerate() {
        let seq = seq as u64;
        let tag = |node: usize| REPLY_TAG_BASE + seq * NODES as u64 + node as u64;
        let mut ups: Vec<String> = Vec::new();
        for &node in order {
            let (notices, reads) = arrivals[node];
            let arrive = DsmMsg::BarrierArrive {
                seq,
                node,
                reply_tag: tag(node),
                notices: notices.to_vec(),
                reads: reads.to_vec(),
            };
            dsms[node]
                .endpoint()
                .send(node, MsgClass::Dsm, 0, arrive.encode(), &mut clock);
            // Pump every comm "thread" until the fabric is quiet.
            loop {
                let mut handled = false;
                for &n in order {
                    while let Some(pkt) = dsms[n].endpoint().try_recv(MsgClass::Dsm) {
                        if matches!(
                            DsmMsg::try_decode(&pkt.payload),
                            Ok(DsmMsg::BarrierUp { .. })
                        ) {
                            ups.push(format!("{} -> {n} {}", pkt.src, hex(&pkt.payload)));
                        }
                        dsms[n].handle_packet(pkt, &mut servers[n]);
                        handled = true;
                    }
                }
                if !handled {
                    break;
                }
            }
        }
        // One up per non-root node; ordered by sender, not by pump order.
        ups.sort();
        for line in &ups {
            writeln!(out, "up {seq} {line}").unwrap();
        }
        let departs: Vec<_> = (0..NODES)
            .map(|n| {
                dsms[n]
                    .endpoint()
                    .try_recv_match(MsgClass::Ctl, Match::tagged(tag(n)), &mut clock)
                    .unwrap_or_else(|| panic!("barrier {seq}: node {n} got no departure"))
                    .payload
            })
            .collect();
        assert!(
            departs.iter().all(|d| d[..] == departs[0][..]),
            "barrier {seq}: members received different departures"
        );
        writeln!(out, "depart {seq} {}", hex(&departs[0])).unwrap();
        let Ok(DsmReply::BarrierDepart { seq: dseq, entries }) = DsmReply::try_decode(&departs[0])
        else {
            panic!("barrier {seq}: not a departure");
        };
        assert_eq!(dseq, seq);
        // The home-table half of `apply_depart`, on every node: the root
        // decides the next interval against the homes this one installed.
        for e in &entries {
            for d in &dsms {
                d.homes[e.page].store(e.new_home as u32, std::sync::atomic::Ordering::Release);
            }
        }
    }
    (out, dsms)
}

#[test]
fn barrier_up_and_depart_payloads_match_the_frozen_golden() {
    let (got, dsms) = run_history();
    assert_eq!(
        got,
        include_str!("depart_golden.txt"),
        "barrier wire payloads drifted from the frozen golden"
    );
    // The history ends where its comments say it does.
    let home = |p: PageId| dsms[0].home_of(p);
    assert_eq!((home(3), home(5), home(7), home(10)), (1, 2, 3, 0));
    assert_eq!((home(63), home(64), home(65), home(127)), (0, 0, 2, 1));
    // update flip (2), probation demotion (5), flip back (6).
    assert_eq!(dsms[0].stats.snapshot().proto_flips, 3);
}
