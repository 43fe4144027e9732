//! `view` — the zero-copy bulk read — against `read_into`, the copy it
//! replaced as the DSM's one bulk-read path: same elements, same faults
//! and fetches, and a fail-stop where a view would outlive its interval.

use std::fmt::Debug;
use std::time::Duration;

use parade::core::{Cluster, FailedRun, Pod, RunReport, SharedVec, ThreadCtx, TimeSource};
use parade::dsm::PAGE_SIZE;
use parade_testkit::prelude::*;

fn cluster(nodes: usize, tpn: usize) -> Cluster {
    Cluster::builder()
        .nodes(nodes)
        .threads_per_node(tpn)
        .time(TimeSource::Manual)
        .build()
        .unwrap()
}

/// How a region reads its range.
#[derive(Clone, Copy, PartialEq)]
enum Via {
    /// Every thread: `view`, with a `read_into` of the same range inside.
    Both,
    /// Thread 0 of the last node only (its pages are homed on node 0
    /// whenever there is more than one node), one call.
    ViewOnly,
    ReadIntoOnly,
}

/// Fill a vector of `n` elements serially on the master, then read
/// `first..first + len` of it in a parallel region as `via` says, checking
/// every element read against `make`.
fn read_range<T: Pod + PartialEq + Debug>(
    (nodes, tpn): (usize, usize),
    (n, first, len): (usize, usize, usize),
    via: Via,
    make: fn(usize) -> T,
) -> RunReport {
    let ((), report) = cluster(nodes, tpn).run_with_report(move |g| {
        let v = g.alloc_vec::<T>(n);
        let all: Vec<T> = (0..n).map(make).collect();
        g.write_from(&v, 0, &all);
        g.parallel(move |tc| {
            let want: Vec<T> = (first..first + len).map(make).collect();
            let mut out = want.clone();
            if via == Via::Both {
                tc.view(&v, first..first + len, |elems| {
                    assert_eq!(elems, &want[..], "view vs what was written");
                    out.fill(make(usize::MAX));
                    tc.read_into(&v, first, &mut out);
                    assert_eq!(elems, &out[..], "view vs read_into");
                });
            } else if tc.node() == tc.num_nodes() - 1 && tc.local_thread() == 0 {
                if via == Via::ViewOnly {
                    tc.view(&v, first..first + len, |elems| assert_eq!(elems, &want[..]));
                } else {
                    tc.read_into(&v, first, &mut out);
                    assert_eq!(out, want);
                }
            }
        });
    });
    report
}

fn view_equals_read_into<T: Pod + PartialEq + Debug>(
    range: (usize, usize, usize),
    make: fn(usize) -> T,
) {
    for shape in [(1, 1), (2, 2)] {
        read_range(shape, range, Via::Both, make);
        let stats = |via| {
            let s = read_range(shape, range, via, make).cluster.dsm_totals();
            [
                s.read_faults,
                s.page_fetches,
                s.range_fetches,
                s.fetch_bytes,
            ]
        };
        assert_eq!(
            stats(Via::ViewOnly),
            stats(Via::ReadIntoOnly),
            "read_faults, page_fetches, range_fetches, fetch_bytes on {shape:?}"
        );
    }
}

/// (element type, bytes in the vector, first, len), the last two as raw
/// draws the property folds into the vector: ranges are biased toward page
/// boundaries and toward nothing at all.
fn view_case(r: &mut TestRng) -> (u8, usize, usize, usize) {
    let bytes = r.range_usize(8, 5 * PAGE_SIZE);
    let near_a_page = |r: &mut TestRng| {
        (r.range_usize(0, 6) * PAGE_SIZE + r.range_usize(0, 17)).saturating_sub(8)
    };
    let first = match r.below(3) {
        0 => near_a_page(r),
        _ => r.range_usize(0, bytes + 1),
    };
    let len = match r.below(4) {
        0 => 0,
        1 => near_a_page(r),
        _ => r.range_usize(0, bytes + 1),
    };
    (r.below(3) as u8, bytes, first, len)
}

prop!(cases = 24, fn view_reads_what_read_into_reads((kind, bytes, first, len) in view_case) {
    run_with_timeout("view-vs-read-into", Duration::from_secs(60), move || {
        // Byte draws to elements of the drawn type, folded into the vector
        // (shrinking takes every number toward zero on its own).
        let fold = |esz: usize| {
            let n = (bytes / esz).max(1);
            let first = (first / esz) % (n + 1);
            (n, first, (len / esz).min(n - first))
        };
        match kind {
            0 => view_equals_read_into::<u8>(fold(1), |i| (i % 251) as u8),
            1 => view_equals_read_into::<u32>(fold(4), |i| (i as u32).wrapping_mul(2_654_435_761)),
            _ => view_equals_read_into::<f64>(fold(8), |i| i as f64 * 0.5 - 7.0),
        }
    });
});

/// What a run that must fail says: `region` runs on every thread, over a
/// vector of 1000 `f64`s.
fn failure_of(
    name: &'static str,
    shape: (usize, usize),
    region: impl Fn(&ThreadCtx, SharedVec<f64>) + Send + Sync + 'static,
) -> String {
    run_with_timeout(name, Duration::from_secs(60), move || {
        let failed: Box<FailedRun> = cluster(shape.0, shape.1)
            .try_run_with_report(move |g| {
                let v = g.alloc_f64(1000);
                g.parallel(move |tc| region(tc, v));
            })
            .expect_err("the run must fail");
        failed.to_string()
    })
}

#[test]
fn an_out_of_range_view_fails_the_run_in_every_profile() {
    for range in [0..1001, 1000..1001, 1001..1001, usize::MAX - 1..usize::MAX] {
        let text = failure_of("view-out-of-range", (1, 1), move |tc, v| {
            tc.view(&v, range.clone(), |_| ());
        });
        assert!(text.contains("shared view out of bounds"), "{text}");
    }
}

/// The panic names the vector: element type, region id, length.
fn names_the_vector(text: &str, what: &str) {
    let named = format!("{what} inside a view of SharedVec<f64> #");
    assert!(
        text.contains(&named) && text.contains(" (1000 elements)"),
        "{text}"
    );
}

#[test]
fn a_barrier_inside_a_view_fails_the_run_naming_the_vector() {
    let text = failure_of("barrier-in-view", (2, 2), |tc, v| {
        tc.view(&v, 0..10, |_| tc.barrier());
    });
    names_the_vector(&text, "barrier()");
}

#[test]
fn a_dsm_lock_inside_a_view_fails_the_run_naming_the_vector() {
    // The `critical` the translator could not analyse: node mutex + DSM lock.
    let text = failure_of("critical-in-view", (2, 2), |tc, v| {
        tc.bind(&v).view(0..10, |_| tc.critical(7, |_| ()));
    });
    names_the_vector(&text, "a DSM lock acquire");
}

#[test]
fn views_nest_and_close_in_order() {
    cluster(2, 2).run(|g| {
        let a = g.alloc_f64(600);
        let b = g.alloc_vec::<u32>(600);
        g.parallel(move |tc| {
            let mine = tc.for_static(0..600);
            tc.write_from(&a, mine.start, &vec![1.5; mine.len()]);
            tc.barrier();
            let sum = tc.view(&a, 0..600, |xs| {
                // A nested view, a store to another vector and a collective
                // are all fine inside a view; none ends the interval.
                tc.view(&b, mine.clone(), |ys| assert!(ys.iter().all(|&y| y == 0)));
                tc.write_from(&b, mine.start, &vec![7u32; mine.len()]);
                tc.reduce_f64_sum(xs[mine.clone()].iter().sum())
            });
            assert_eq!(sum, 900.0);
            // Both views are closed: the barrier goes through.
            tc.barrier();
            tc.view(&b, 0..600, |ys| assert!(ys.iter().all(|&y| y == 7)));
        });
        // The serial context reads in place too.
        assert_eq!(g.view(&a, 100..500, |xs| xs.iter().sum::<f64>()), 600.0);
    });
}
