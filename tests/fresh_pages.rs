//! A fresh page takes its home from its first writers (DESIGN.md §3b,
//! §3e): a barrier holds the diff of a page no departure has named yet,
//! drops it when the departure hands the page to its single writer, and
//! ships it to node 0 only when several nodes wrote the page (then takes
//! one more round before any push). Every program here runs at 2×2 and
//! 4×2, under both ParADE protocol selections and the SDSM baseline (fixed
//! homes, eager diffs), and every thread must read back every value.

mod fresh;

use std::time::Duration;

use fresh::{every_value, half_writers, PAGES, PAGE_F64};
use parade::core::{Cluster, RunReport};
use parade::dsm::ProtoSelect;
use parade::net::ChaosProfile;
use parade::prelude::ProtocolMode;
use parade_testkit::prelude::*;

const WATCHDOG: Duration = Duration::from_secs(120);

const SHAPES: [(usize, usize); 2] = [(2, 2), (4, 2)];

const MODES: [(ProtocolMode, ProtoSelect); 3] = [
    (ProtocolMode::Parade, ProtoSelect::Update),
    (ProtocolMode::Parade, ProtoSelect::Invalidate),
    (ProtocolMode::SdsmOnly, ProtoSelect::Invalidate),
];

type Program = fn(&Cluster) -> (Vec<Vec<u64>>, RunReport);

/// Run `program` on every shape and mode; check that every thread read
/// `want(nodes × threads)`, and hand each ParADE run's report to `check`.
fn each_shape_and_mode(
    name: &'static str,
    program: Program,
    want_len: fn(usize) -> usize,
    check: fn(usize, &RunReport),
) {
    run_with_timeout(name, WATCHDOG, move || {
        for (nodes, tpn) in SHAPES {
            for (mode, proto) in MODES {
                let c = fresh::cluster(nodes, tpn, mode, proto, ChaosProfile::off());
                let (seen, report) = program(&c);
                let want = every_value(want_len(nodes * tpn));
                assert_eq!(seen.len(), nodes * tpn);
                for (tid, got) in seen.iter().enumerate() {
                    assert!(
                        *got == want,
                        "{name} at {nodes}x{tpn} {mode:?}/{proto:?}: thread {tid} read {} \
                         wrong values",
                        got.iter().zip(&want).filter(|(g, w)| g != w).count()
                    );
                }
                if mode == ProtocolMode::Parade {
                    check(nodes, &report);
                }
            }
        }
    });
}

/// (a) One writing node per page: the departure hands each page to its
/// writer, no diff ships anywhere, and node 0 reads the writers' values
/// (its zero copy was invalidated, not kept as the merged copy).
#[test]
fn a_fresh_page_with_one_writer_ships_no_diff() {
    each_shape_and_mode(
        "fresh-one-writer",
        fresh::one_writer_per_page,
        |threads| threads * 2 * PAGE_F64,
        |_, report| assert_eq!(report.cluster.dsm_totals().diffs_sent, 0),
    );
}

/// (b) Two nodes write disjoint halves of every page: each writer other
/// than node 0 ships its held diff once, after the departure, and every
/// reader (node 0, the new home and a bystander) sees both halves.
#[test]
fn a_fresh_page_with_two_writers_merges_at_node_0() {
    each_shape_and_mode(
        "fresh-two-writers",
        fresh::two_writers_per_page,
        |_| PAGES * PAGE_F64,
        |nodes, report| {
            let shippers = half_writers(nodes).iter().filter(|&&w| w != 0).count();
            assert_eq!(
                report.cluster.dsm_totals().diffs_sent,
                (PAGES * shippers) as u64
            );
        },
    );
}

/// (c) An eager lock-release diff and a held diff meet on the same fresh
/// pages: node 0 merges the first at the release and, with two writing
/// nodes, the second after the departure; with one, the writer's copy is
/// the merged one.
#[test]
fn a_lock_release_diff_and_a_held_diff_merge() {
    each_shape_and_mode(
        "fresh-lock-and-held",
        fresh::lock_and_plain_writer,
        |_| PAGES * PAGE_F64,
        |nodes, report| {
            // The release's diffs, then the held ones of a second writer.
            let held = if nodes > 2 { PAGES } else { 0 };
            assert_eq!(
                report.cluster.dsm_totals().diffs_sent,
                (PAGES + held) as u64
            );
        },
    );
}

/// (c) The single writer's copy was invalidated mid-interval by a grant
/// naming its own pages: it takes their homes without a copy, and node 0,
/// which invalidated its own, still answers each `PushReq` with the merged
/// bytes.
#[test]
fn a_single_writer_invalidated_by_a_grant_is_pushed_its_pages() {
    each_shape_and_mode(
        "fresh-push-req",
        fresh::lock_writer_invalidated_by_its_grant,
        |_| PAGES * PAGE_F64,
        |_, report| {
            let d = report.cluster.dsm_totals();
            assert_eq!(d.diffs_sent, PAGES as u64, "the release's diffs only");
            assert_eq!(d.pushes_sent, PAGES as u64, "one PushReq answer a page");
        },
    );
}

/// A 4×2 static-schedule first touch whose node partitions fall inside
/// pages 1, 3 and 5 of an 8-page region, then a second write of the same
/// elements. The first barrier ships diffs only for those straddling
/// pages; the second ships what it did before fresh pages held their
/// diffs.
#[test]
fn first_touch_ships_only_straddling_pages_and_the_steady_state_is_unchanged() {
    const N: usize = 4000; // 1000 elements a node: 8000 B, not a page multiple.
    let run = |twice: bool| {
        let c = fresh::cluster(
            4,
            2,
            ProtocolMode::Parade,
            ProtoSelect::Update,
            ChaosProfile::off(),
        );
        let (_, report) = c.run_with_report(move |g| {
            let v = g.alloc_f64(N);
            g.parallel(move |tc| {
                for i in tc.for_static(0..N) {
                    tc.set(&v, i, i as f64 + 1.0);
                }
                if twice {
                    tc.barrier();
                    for i in tc.for_static(0..N) {
                        tc.set(&v, i, i as f64 + 2.0);
                    }
                }
            });
        });
        let d = report.cluster.dsm_totals();
        (d.diffs_sent, d.diff_batches, report.cluster.traffic.msgs)
    };
    let (diffs1, batches1, msgs1) = run(false);
    let (diffs2, batches2, msgs2) = run(true);
    // Page 1 is written by nodes 0 and 1, page 3 by 1 and 2, page 5 by 2
    // and 3: five held diffs in three batches (node 1: pages 1 and 3;
    // node 2: 3 and 5; node 3: 5). Every diff of pages 2, 4, 6 and 7 stays
    // with its single writer. Shipping every diff to node 0 took 9 diffs
    // in the same 3 batches and 43 messages; the 11 more are the extra
    // round (3N - 1 at N = 4) that straddling pages cost.
    assert_eq!((diffs1, batches1, msgs1), (5, 3, 54), "first barrier");
    // The second written barrier, as when every diff shipped to node 0:
    // each straddling page's second writer diffs it to the home the first
    // barrier chose.
    assert_eq!(
        (diffs2 - diffs1, batches2 - batches1, msgs2 - msgs1),
        (3, 3, 23),
        "second written barrier"
    );
}
