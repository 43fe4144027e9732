//! Programs that write a fresh region: one no barrier has named yet, so
//! every page of it is still homed on node 0 and every node's copy is
//! zero. Shared by `tests/fresh_pages.rs` (each shape and protocol mode)
//! and `tests/chaos.rs` (bit-identical on a lossy wire).
//!
//! Each program returns what every thread read after the barrier, as raw
//! `f64` bits in global thread order, with the run's report. The values
//! are collected on the host, not in shared memory, so the programs write
//! nothing but the region under test.

use std::sync::{Arc, Mutex};

use parade::core::{Cluster, ClusterConfig, RunReport, ThreadCtx};
use parade::dsm::{DsmConfig, ProtoSelect, PAGE_SIZE};
use parade::net::{ChaosProfile, NetProfile, TimeSource};
use parade::prelude::ProtocolMode;

/// `f64` elements in one page.
pub const PAGE_F64: usize = PAGE_SIZE / 8;

/// Pages of the region the shared-page programs write.
pub const PAGES: usize = 16;

/// The DSM lock the lock-writing programs take.
const LOCK: u64 = 7;

/// A `nodes` × `tpn` cluster on the benchmark's clock and network.
pub fn cluster(
    nodes: usize,
    tpn: usize,
    mode: ProtocolMode,
    proto: ProtoSelect,
    chaos: ChaosProfile,
) -> Cluster {
    Cluster::builder()
        .config(ClusterConfig {
            dsm: DsmConfig {
                proto_select: proto,
                ..DsmConfig::default()
            },
            ..ClusterConfig::default()
        })
        .nodes(nodes)
        .threads_per_node(tpn)
        .protocol(mode)
        .net(NetProfile::clan_via())
        .time(TimeSource::Manual)
        .chaos(chaos)
        .build()
        .expect("cluster")
}

/// The value every program stores at element `i`: non-zero, so a read of
/// the zero placeholder never passes for it.
pub fn value(i: usize) -> f64 {
    i as f64 * 0.25 + 1.0
}

/// Allocate `len(team size)` elements, run `body` on every thread, take a
/// barrier, and have every thread read the whole region back.
fn run_region(
    c: &Cluster,
    len: impl Fn(usize) -> usize + Send + 'static,
    body: impl Fn(&ThreadCtx, &parade::core::SharedVec<f64>) + Send + Sync + 'static,
) -> (Vec<Vec<u64>>, RunReport) {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let out = Arc::clone(&seen);
    let (_, report) = c.run_with_report(move |g| {
        let n = len(g.num_threads());
        let v = g.alloc_f64(n);
        g.parallel(move |tc| {
            body(tc, &v);
            tc.barrier();
            let mut read = vec![0.0; n];
            tc.read_into(&v, 0, &mut read);
            let bits = read.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            out.lock().unwrap().push((tc.thread_num(), bits));
        });
    });
    let mut seen = std::mem::take(&mut *seen.lock().unwrap());
    seen.sort_unstable_by_key(|&(tid, _)| tid);
    (seen.into_iter().map(|(_, bits)| bits).collect(), report)
}

/// (a) Every page of the region has one writing node: each thread writes
/// its own two pages.
pub fn one_writer_per_page(c: &Cluster) -> (Vec<Vec<u64>>, RunReport) {
    run_region(
        c,
        |threads| threads * 2 * PAGE_F64,
        |tc, v| {
            for i in tc.for_static(0..v.len()) {
                tc.set(v, i, value(i));
            }
        },
    )
}

/// The two nodes that write a page's halves in (b): two nodes other than
/// node 0 where there are three or more, else nodes 0 and 1.
pub fn half_writers(nodes: usize) -> [usize; 2] {
    if nodes >= 3 {
        [1, 2]
    } else {
        [0, 1]
    }
}

/// Which half of its page element `i` lies in.
pub fn half(i: usize) -> usize {
    (i % PAGE_F64) / (PAGE_F64 / 2)
}

/// (b) Two nodes write disjoint halves of every page ([`half_writers`]),
/// one thread each.
pub fn two_writers_per_page(c: &Cluster) -> (Vec<Vec<u64>>, RunReport) {
    run_region(
        c,
        |_| PAGES * PAGE_F64,
        |tc, v| {
            let writers = half_writers(tc.num_nodes());
            if tc.local_thread() != 0 {
                return;
            }
            for (h, &node) in writers.iter().enumerate() {
                if tc.node() == node {
                    for i in (0..v.len()).filter(|&i| half(i) == h) {
                        tc.set(v, i, value(i));
                    }
                }
            }
        },
    )
}

/// (c) Node 1 writes the first half of every page under a DSM lock (its
/// release ships that diff at once); the last node writes the second half
/// after that, with no lock, so its diff is held to the barrier. On two
/// nodes both are node 1.
pub fn lock_and_plain_writer(c: &Cluster) -> (Vec<Vec<u64>>, RunReport) {
    run_region(
        c,
        |_| PAGES * PAGE_F64,
        |tc, v| {
            if tc.local_thread() != 0 {
                return;
            }
            if tc.node() == 1 {
                tc.critical(LOCK, |tc| {
                    for i in (0..v.len()).filter(|&i| half(i) == 0) {
                        tc.set(v, i, value(i));
                    }
                });
            }
            if tc.node() == tc.num_nodes() - 1 {
                for i in (0..v.len()).filter(|&i| half(i) == 1) {
                    tc.set(v, i, value(i));
                }
            }
        },
    )
}

/// (c) The `PushReq` repair: node 1 writes the whole region under a DSM
/// lock, then takes the lock again. That grant carries node 1's own write
/// notices and invalidates its copy, so at the barrier the single writer
/// takes the home of pages it holds no copy of, and asks node 0 for them.
pub fn lock_writer_invalidated_by_its_grant(c: &Cluster) -> (Vec<Vec<u64>>, RunReport) {
    run_region(
        c,
        |_| PAGES * PAGE_F64,
        |tc, v| {
            if tc.local_thread() != 0 || tc.node() != 1 {
                return;
            }
            tc.critical(LOCK, |tc| {
                for i in 0..v.len() {
                    tc.set(v, i, value(i));
                }
            });
            tc.critical(LOCK, |_| {});
        },
    )
}

/// What every thread must read back: every program writes every element.
pub fn every_value(len: usize) -> Vec<u64> {
    (0..len).map(|i| value(i).to_bits()).collect()
}
