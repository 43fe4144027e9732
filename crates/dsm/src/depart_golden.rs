//! Departure-stream golden: a scripted 4-node barrier history driven
//! through `handle_packet` (no threads, no real-time schedule), with every
//! `BarrierUp` and `BarrierDepart` payload compared byte-for-byte against
//! `depart_golden.txt`. Each line holds the payload's decoded form, then
//! ` : ` and its hex: a codec change may move the hex column, never the
//! decoded one.
//!
//! The golden was recorded at the commit *before* the page bookkeeping
//! went dense (hashed writer/reader maps in the tree barrier, tree maps in
//! the protocol table), so it pins the wire: whatever the in-memory shape
//! of the merge, the decoded payloads do not move, and the bytes move only
//! with a codec change. Two entries were re-pinned since, when the update
//! rule stopped requiring a single writer: page 3 in departure 1 and page
//! 7 in departure 4 now carry the update flag and their two sharers. Page
//! 10's entries in departures 5 and 6 were re-pinned when the rule lost
//! its periodic probation invalidate: both now push to the unchanged
//! sharers 1, 2 and 3. The hex column moved once, with the decoded column unchanged,
//! when page lists started to travel as runs of consecutive pages (see the
//! `msg` module doc): this history's scattered pages make most runs one
//! page long, so its payloads grew from 1 916 to 2 088 bytes.

use std::fmt::Write as _;

use parade_net::{Fabric, Match, MsgClass, NetProfile, VClock};
use parade_testkit::wire::hex;

use crate::config::DsmConfig;
use crate::engine::Dsm;
use crate::msg::{DepartEntry, DsmMsg, DsmReply, REPLY_TAG_BASE};
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
/// * 1 — multi-writer *with* the old home (page 3: nodes 1, 2; home 1,
///   which keeps it and pushes it to its readers 0 and 3: an update),
///   multi-writer *without* it (page 7: nodes 2, 3; home 0), word-boundary
///   pages 63/64/65 and the pool's last page, readers-only page 11;
/// * 2 — page 10 written by its home with three recorded sharers: the
///   update flip; node 3 writes page 7 alone and takes it;
/// * 3, 4 — the update streak continues; page 7 contested again by nodes
///   2 and 3, and its home, node 3, keeps it; in 4 it has readers 0 and
///   1 and updates;
/// * 5, 6 — nodes 1 and 2 read page 10 again: it stays on update, pushed
///   to all three sharers (node 3 stopped reading, but a pushed reader
///   never re-faults, so the root cannot tell);
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
                        if let Ok(up @ DsmMsg::BarrierUp { .. }) =
                            DsmMsg::try_decode(&pkt.payload, PAGES, NODES)
                        {
                            let (src, wire) = (pkt.src, hex(&pkt.payload));
                            ups.push(format!("{src} -> {n} {} : {wire}", decoded_up(&up)));
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
        let Ok(DsmReply::BarrierDepart { seq: dseq, entries }) =
            DsmReply::try_decode(&departs[0], PAGES, NODES)
        else {
            panic!("barrier {seq}: not a departure");
        };
        assert_eq!(dseq, seq);
        let decoded: Vec<String> = entries.iter().map(decoded_entry).collect();
        writeln!(
            out,
            "depart {seq} [{}] : {}",
            decoded.join(", "),
            hex(&departs[0])
        )
        .unwrap();
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

/// A decoded `BarrierUp`: members as `node@tag`, notices as `page:node`.
fn decoded_up(up: &DsmMsg) -> String {
    let DsmMsg::BarrierUp {
        seq,
        members,
        writers,
        readers,
    } = up
    else {
        unreachable!("not a BarrierUp");
    };
    let pairs = |list: &[(PageId, usize)]| {
        let items: Vec<String> = list.iter().map(|(p, n)| format!("{p}:{n}")).collect();
        items.join(", ")
    };
    let members: Vec<String> = members.iter().map(|(n, t)| format!("{n}@{t:#x}")).collect();
    format!(
        "seq {seq} members [{}] writers [{}] readers [{}]",
        members.join(", "),
        pairs(writers),
        pairs(readers)
    )
}

/// A decoded departure entry: `page:old>new`, then `m` (multi-writer),
/// `u` (update) and the push set when there is one.
fn decoded_entry(e: &DepartEntry) -> String {
    let mut s = format!("{}:{}>{}", e.page, e.old_home, e.new_home);
    if e.multi_writer {
        s.push_str(" m");
    }
    if e.update {
        s.push_str(" u");
    }
    if !e.sharers.is_empty() {
        write!(s, " {:?}", e.sharers).unwrap();
    }
    s
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
    // Page 10's update flip (2); the multi-writer updates of page 3 (1)
    // and page 7 (4).
    assert_eq!(dsms[0].stats.snapshot().proto_flips, 3);
}
