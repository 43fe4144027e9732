//! Release-path microbenchmarks: what a barrier/lock release actually costs
//! once diffs are batched per home.
//!
//! Two kinds of results land in `BENCH_dsm.json`:
//!
//! * `release/...` and `barrier/...` — **deterministic simulated metrics**
//!   (virtual time and fabric message counts), recorded via
//!   `Bench::record`. Virtual time is machine-independent, so CI gates on
//!   the `release/` family against a committed baseline
//!   (`scripts/bench_baseline/BENCH_dsm.json`, enforced by the
//!   `bench_gate` binary).
//! * `tasks/...` — **deterministic simulated metrics** of the distributed
//!   work-stealing task scheduler (spawn-sync latency, per-task steal and
//!   n-body phase costs at 4–64 nodes), driven single-threaded round-robin
//!   so virtual time replays identically everywhere. Gated like `coll/`,
//!   including the doubling shape rule on the `_{N}n` families.
//! * `wall/...` — host wall-clock latency of the same release path,
//!   median-of-N. Informational only: wall time is not gated.
//!
//! `cargo bench -p parade-bench --bench dsm [filter]`; set
//! `PARADE_BENCH_JSON=<dir>` to write the JSON.

use std::sync::Arc;

use parade_dsm::{spawn_comm_thread, Dsm, DsmConfig, HomePolicy, ProtoSelect, PAGE_SIZE};
use parade_mpi::{CollectiveTopology, Communicator, ReduceOp};
use parade_net::{Fabric, NetProfile, VClock};
use parade_tasks::{NodeSched, SchedConfig, StealStrategy, Step, TaskCtx, TaskDesc};
use parade_testkit::bench::{Bench, BenchOpts};

/// Node counts for the `coll/` scaling families. The 256-node rung spawns
/// hundreds of OS threads, so it only runs in release-mode bench builds.
fn coll_sizes() -> &'static [usize] {
    if cfg!(debug_assertions) {
        &[16, 32, 64, 128]
    } else {
        &[16, 32, 64, 128, 256]
    }
}

/// Miniature cluster harness: one application thread plus one communication
/// thread per node (the cluster_tests pattern, usable outside the crate).
fn run_nodes<R: Send + 'static>(
    n: usize,
    cfg: DsmConfig,
    profile: NetProfile,
    f: impl Fn(Arc<Dsm>, &mut VClock) -> R + Send + Sync + 'static,
) -> Vec<R> {
    run_nodes_counted(n, cfg, profile, f).0
}

/// Like [`run_nodes`], but also return the total messages all nodes sent —
/// summed *after* the communication threads joined, so in-flight replies
/// and barrier-departure fan-outs are all accounted for and the count is a
/// pure function of the protocol (no snapshot race).
fn run_nodes_counted<R: Send + 'static>(
    n: usize,
    cfg: DsmConfig,
    profile: NetProfile,
    f: impl Fn(Arc<Dsm>, &mut VClock) -> R + Send + Sync + 'static,
) -> (Vec<R>, u64) {
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
    let total_msgs = dsms
        .iter()
        .map(|d| d.endpoint().local_stats().snapshot().sent.msgs)
        .sum();
    (results, total_msgs)
}

fn release_cfg(pages: usize) -> DsmConfig {
    DsmConfig {
        pool_bytes: (pages + 8) * PAGE_SIZE,
        // Fixed homes keep every page on node 0, so node 1's release has a
        // single destination — the pure batching scenario.
        home_policy: HomePolicy::Fixed,
        ..DsmConfig::default()
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct ReleaseMetrics {
    /// Virtual nanoseconds node 1 spends inside `flush`.
    flush_vtime_ns: u64,
    /// DSM messages node 1 sent during the flush.
    flush_msgs: u64,
    /// Replies node 1 waited on during the flush.
    flush_acks: u64,
    /// Wire bytes of the shipped diff messages.
    diff_wire_bytes: u64,
    /// Modified bytes carried inside those diffs.
    diff_payload_bytes: u64,
}

/// One 2-node release with `pages` dirty pages homed on the peer; fully
/// deterministic (single blocking request stream, virtual clocks).
fn release_metrics(pages: usize) -> ReleaseMetrics {
    let out = run_nodes(
        2,
        release_cfg(pages),
        NetProfile::clan_via(),
        move |d, clk| {
            let r = d.alloc_region(pages * PAGE_SIZE).unwrap();
            d.barrier(clk);
            let mut m = ReleaseMetrics::default();
            if d.node() == 1 {
                for p in 0..pages {
                    // Touch two words per page (non-zero, so every page
                    // yields a diff): a sparse, realistic release.
                    d.write::<i64>(r, p * PAGE_SIZE, p as i64 + 1, clk);
                    d.write::<i64>(r, p * PAGE_SIZE + 1024, p as i64 + 1, clk);
                }
                let net0 = d.endpoint().local_stats().snapshot();
                let s0 = d.stats.snapshot();
                let t0 = clk.now();
                d.flush(clk);
                let t1 = clk.now();
                let net1 = d.endpoint().local_stats().snapshot();
                let s1 = d.stats.snapshot();
                m = ReleaseMetrics {
                    flush_vtime_ns: t1.saturating_sub(t0).as_nanos(),
                    flush_msgs: net1.sent.msgs - net0.sent.msgs,
                    flush_acks: net1.received.msgs - net0.received.msgs,
                    diff_wire_bytes: s1.diff_bytes - s0.diff_bytes,
                    diff_payload_bytes: s1.diff_payload_bytes - s0.diff_payload_bytes,
                };
            }
            d.barrier(clk);
            m
        },
    );
    out[1]
}

/// Virtual time of one all-writers barrier round at `nodes` nodes (each node
/// dirties its own stripe of pages). Cross-node barriers carry a small
/// arrival-ordering jitter in virtual time, so these are informational.
fn barrier_vtime_ns(nodes: usize, pages_per_node: usize) -> u64 {
    let total = nodes * pages_per_node;
    let cfg = DsmConfig {
        pool_bytes: (total + 8) * PAGE_SIZE,
        home_policy: HomePolicy::Fixed,
        ..DsmConfig::default()
    };
    let out = run_nodes(nodes, cfg, NetProfile::clan_via(), move |d, clk| {
        let r = d.alloc_region(total * PAGE_SIZE).unwrap();
        d.barrier(clk);
        let node = d.node();
        for p in 0..pages_per_node {
            let page = node * pages_per_node + p;
            d.write::<i64>(r, page * PAGE_SIZE, page as i64, clk);
        }
        let t0 = clk.now();
        d.barrier(clk);
        clk.now().saturating_sub(t0).as_nanos()
    });
    // The master's view: it waits for everyone, so it sees the full cost.
    out[0]
}

fn record_release_family(b: &mut Bench) {
    for &pages in &[1usize, 8, 32] {
        let m = release_metrics(pages);
        b.record(
            &format!("release/flush_vtime_ns_{pages}p_batched"),
            m.flush_vtime_ns as f64,
        );
        b.record(
            &format!("release/flush_vtime_ns_per_page_{pages}p_batched"),
            m.flush_vtime_ns as f64 / pages as f64,
        );
        b.record(
            &format!("release/flush_msgs_{pages}p_batched"),
            m.flush_msgs as f64,
        );
        b.record(
            &format!("release/flush_acks_{pages}p_batched"),
            m.flush_acks as f64,
        );
        b.record(
            &format!("release/diff_wire_bytes_{pages}p_batched"),
            m.diff_wire_bytes as f64,
        );
        b.record(
            &format!("release/diff_payload_bytes_{pages}p_batched"),
            m.diff_payload_bytes as f64,
        );
    }
}

fn record_barrier_family(b: &mut Bench) {
    for &nodes in &[2usize, 4, 8] {
        b.record(
            &format!("barrier/vtime_ns_{nodes}n_4p"),
            barrier_vtime_ns(nodes, 4) as f64,
        );
    }
}

/// Virtual time of one steady-state DSM barrier (no dirty pages, no
/// protocol traffic in flight) at `nodes` nodes. Fully deterministic: tree
/// contributions are charged in a sorted fold, so real-time service order
/// cannot leak into the metric.
fn dsm_barrier_steady_vtime_ns(nodes: usize) -> u64 {
    let cfg = DsmConfig {
        pool_bytes: 16 * PAGE_SIZE,
        ..DsmConfig::default()
    };
    const ITERS: u64 = 4;
    let out = run_nodes(nodes, cfg, NetProfile::clan_via(), move |d, clk| {
        d.barrier(clk); // warm-up: align all clocks on the first departure
        let t0 = clk.now();
        for _ in 0..ITERS {
            d.barrier(clk);
        }
        clk.now().saturating_sub(t0).as_nanos() / ITERS
    });
    out[0]
}

/// Virtual time per operation of the MPI two-level collectives, measured
/// thread-per-rank over an SMP topology of 4-rank chassis. Deterministic:
/// the intra-chassis combine reconciles clocks like a pthread barrier and
/// the leader phases are tag-matched. Reported as the slowest rank's view.
fn mpi_coll_vtime_ns(ranks: usize, op: &'static str) -> u64 {
    let fabric = Fabric::new(ranks, NetProfile::clan_via());
    let topo = Arc::new(CollectiveTopology::uniform(ranks, 4));
    const ITERS: u64 = 4;
    let handles: Vec<_> = (0..ranks)
        .map(|r| {
            let comm = Communicator::with_topology(fabric.endpoint(r), Arc::clone(&topo));
            std::thread::spawn(move || {
                let mut clk = VClock::manual();
                let mut buf = vec![0.5f64; 256];
                comm.barrier(&mut clk); // warm-up alignment
                let t0 = clk.now();
                for _ in 0..ITERS {
                    match op {
                        "barrier" => comm.barrier(&mut clk),
                        "bcast" => comm.bcast_f64s(0, &mut buf, &mut clk),
                        "allreduce" => {
                            let _ = comm.allreduce_f64(r as f64, ReduceOp::Sum, &mut clk);
                        }
                        _ => unreachable!(),
                    }
                }
                clk.now().saturating_sub(t0).as_nanos() / ITERS
            })
        })
        .collect();
    let worst = handles.into_iter().map(|h| h.join().unwrap()).max();
    fabric.begin_shutdown();
    worst.unwrap()
}

/// The `coll/` scaling families: gated by `bench_gate` against the
/// committed baseline *and* against the ⌈log₂N⌉ shape rule (successive
/// node-count doublings must cost < 1.7x).
fn record_coll_family(b: &mut Bench) {
    for &n in coll_sizes() {
        b.record(
            &format!("coll/dsm_barrier_vtime_ns_{n}n"),
            dsm_barrier_steady_vtime_ns(n) as f64,
        );
        for op in ["barrier", "bcast", "allreduce"] {
            b.record(
                &format!("coll/{op}_vtime_ns_{n}n"),
                mpi_coll_vtime_ns(n, op) as f64,
            );
        }
    }
}

/// Node counts for the `tasks/` scaling families. Single-threaded
/// round-robin driving, so even 64 schedulers are cheap in debug builds.
const TASK_SIZES: &[usize] = &[4, 8, 16, 32, 64];

/// Drive `nnodes` task schedulers round-robin from this thread until every
/// node holds the merged phase result. One deterministic schedule: message
/// delivery order is fixed by the polling order and the seeded victim
/// choice, so the virtual clocks replay identically on every host.
/// Returns (slowest node's virtual time in ns, merged task count).
fn task_phase_vtime_ns(
    nnodes: usize,
    cfg: SchedConfig,
    spawn: impl Fn(&mut NodeSched, &mut VClock),
) -> (u64, usize) {
    let fabric = Fabric::new(nnodes, NetProfile::clan_via());
    let mut scheds: Vec<NodeSched> = (0..nnodes)
        .map(|n| NodeSched::new(Arc::new(Communicator::new(fabric.endpoint(n))), cfg))
        .collect();
    let mut clocks: Vec<VClock> = (0..nnodes).map(|_| VClock::manual()).collect();
    // The task bodies carry no virtual cost: the families below measure
    // pure scheduling overhead (ship/steal/complete/merge protocol).
    let mut ex = |d: &TaskDesc, _t: &mut TaskCtx, _c: &mut VClock| vec![d.id as f64];
    for n in 0..nnodes {
        spawn(&mut scheds[n], &mut clocks[n]);
        scheds[n].body_done();
    }
    type IdResults = Vec<(u64, Vec<f64>)>;
    let mut merged: Vec<Option<IdResults>> = vec![None; nnodes];
    while merged.iter().any(|m| m.is_none()) {
        for n in 0..nnodes {
            if merged[n].is_none() && scheds[n].step(&mut ex, &mut clocks[n]) == Step::Finished {
                merged[n] = scheds[n].take_merged();
            }
        }
    }
    let ntasks = merged[0].as_ref().expect("merged").len();
    let vtime = clocks.iter().map(|c| c.now().as_nanos()).max().unwrap_or(0);
    fabric.begin_shutdown();
    (vtime, ntasks)
}

fn flat_cfg() -> SchedConfig {
    SchedConfig {
        strategy: StealStrategy::Flat,
        ..SchedConfig::default()
    }
}

/// The `tasks/` families: deterministic virtual-time costs of the
/// distributed work-stealing scheduler, gated like `coll/`.
///
/// * `spawn_sync` — fixed latency of a minimal phase (one task, two
///   nodes): spawn, ship, execute, token termination, result merge.
/// * `steal_vtime_ns_per_task_{N}n` — steal throughput: node 0 spawns
///   8·N tasks and every other node acquires work exclusively by random
///   stealing. Per-task cost must stay flat as the cluster doubles — the
///   victim serves steals in batches, so a regression to one-task-per-
///   round-trip shipping breaks the 1.7x shape bound.
/// * `nbody_vtime_ns_per_task_{N}n` — the n-body kernel's phase shape:
///   2·N force blocks spawned round-robin by their owner nodes under flat
///   placement, merged once per step. Per-task cost must stay flat as
///   nodes and blocks double together.
fn record_tasks_family(b: &mut Bench) {
    let (vt, nt) = task_phase_vtime_ns(2, flat_cfg(), |s, c| {
        if s.node() == 0 {
            s.spawn(0, vec![1], c);
        }
    });
    assert_eq!(nt, 1);
    b.record("tasks/spawn_sync_vtime_ns_2n", vt as f64);

    for &n in TASK_SIZES {
        let total = 8 * n;
        let (vt, nt) = task_phase_vtime_ns(n, SchedConfig::default(), move |s, c| {
            if s.node() == 0 {
                for i in 0..total as u64 {
                    s.spawn(0, vec![i], c);
                }
            }
        });
        assert_eq!(nt, total);
        b.record(
            &format!("tasks/steal_vtime_ns_per_task_{n}n"),
            vt as f64 / total as f64,
        );
    }

    for &n in TASK_SIZES {
        let blocks = 2 * n;
        let (vt, nt) = task_phase_vtime_ns(n, flat_cfg(), move |s, c| {
            let nn = s.node();
            for blk in 0..blocks as u64 {
                if blk as usize % n == nn {
                    s.spawn(0, vec![blk, blocks as u64], c);
                }
            }
        });
        assert_eq!(nt, blocks);
        b.record(
            &format!("tasks/nbody_vtime_ns_per_task_{n}n"),
            vt as f64 / blocks as f64,
        );
    }
}

/// Per-page-at-a-time read sweep over `pages` remote pages (all homed on
/// node 0 under `Fixed`): the fault storm a naive stencil sweep pays. With
/// stride prefetch the predictor confirms the unit stride after a few
/// demand misses and turns the remaining faults into ranged speculative
/// fetches plus local hits. Single requester + hierarchical barrier keep
/// the virtual times and message counts deterministic.
#[derive(Debug, Clone, Copy, Default)]
struct SweepMetrics {
    sweep_vtime_ns: u64,
    /// DSM/Ctl messages node 1 sent during the sweep (fetch round trips).
    sweep_msgs: u64,
    range_fetches: u64,
    prefetch_hits: u64,
}

fn sweep_metrics(pages: usize, prefetch: bool) -> SweepMetrics {
    let cfg = DsmConfig {
        pool_bytes: (pages + 8) * PAGE_SIZE,
        home_policy: HomePolicy::Fixed,
        stride_prefetch: prefetch,
        ..DsmConfig::default()
    };
    let out = run_nodes(2, cfg, NetProfile::clan_via(), move |d, clk| {
        let r = d.alloc_region(pages * PAGE_SIZE).unwrap();
        d.barrier(clk);
        let mut m = SweepMetrics::default();
        if d.node() == 1 {
            let mut buf = vec![0i64; PAGE_SIZE / 8];
            let net0 = d.endpoint().local_stats().snapshot();
            let s0 = d.stats.snapshot();
            let t0 = clk.now();
            for p in 0..pages {
                // One call per page: the access stream the predictor sees.
                d.read_slice::<i64>(r, p * (PAGE_SIZE / 8), &mut buf, clk);
            }
            let t1 = clk.now();
            let net1 = d.endpoint().local_stats().snapshot();
            let s1 = d.stats.snapshot();
            m = SweepMetrics {
                sweep_vtime_ns: t1.saturating_sub(t0).as_nanos(),
                sweep_msgs: net1.sent.msgs - net0.sent.msgs,
                range_fetches: s1.range_fetches - s0.range_fetches,
                prefetch_hits: s1.prefetch_hits - s0.prefetch_hits,
            };
        }
        d.barrier(clk);
        m
    });
    out[1]
}

fn record_fault_storm_family(b: &mut Bench) {
    const PAGES: usize = 64;
    let demand = sweep_metrics(PAGES, false);
    let pf = sweep_metrics(PAGES, true);
    b.record(
        "fault_storm/sweep_vtime_ns_64p_demand",
        demand.sweep_vtime_ns as f64,
    );
    b.record(
        "fault_storm/sweep_vtime_ns_64p_prefetch",
        pf.sweep_vtime_ns as f64,
    );
    b.record(
        "fault_storm/sweep_msgs_64p_demand",
        demand.sweep_msgs as f64,
    );
    b.record("fault_storm/sweep_msgs_64p_prefetch", pf.sweep_msgs as f64);
    b.record("fault_storm/range_fetch_trips_64p", pf.range_fetches as f64);
    b.record("fault_storm/prefetch_hits_64p", pf.prefetch_hits as f64);
    assert!(
        pf.prefetch_hits > 0,
        "unit-stride sweep must produce prefetch hits"
    );
    // The gated margin: prefetch must beat the demand-paged sweep. Lower is
    // better, so a lost win raises the ratio past the baseline band.
    let ratio = pf.sweep_vtime_ns as f64 / demand.sweep_vtime_ns as f64 * 100.0;
    assert!(ratio < 100.0, "prefetch sweep slower than demand paging");
    b.record("fault_storm/vtime_ratio_pct", ratio);
}

#[derive(Debug, Clone, Copy, Default)]
struct AdaptMetrics {
    /// Slowest node's virtual time over the measured intervals.
    vtime_ns: u64,
    /// Messages all nodes sent over the measured intervals.
    msgs: u64,
}

/// Drive `intervals` write/read rounds under one [`ProtoSelect`] mode and
/// return the steady-state cost. Reader turns are staggered by barriers so
/// every request stream has a single concurrent client — virtual times and
/// message counts replay exactly.
///
/// * `migratory: false` — write-broadcast: node 0 (the fixed home) writes
///   every page, nodes 1 and 2 re-read them each interval. Update pushes
///   replace both readers' refetch round trips.
/// * `migratory: true` — producer/consumer pair: after one all-nodes read
///   interval poisons the sharer history, only nodes 1 and 2 touch the
///   pages (alternating writer/reader). `AllUpdate` keeps pushing to the
///   stale sharers 3..6 forever (its sharer set never clears); adaptive
///   re-measures readership at probation and pushes to the live pair only.
fn adapt_run(select: ProtoSelect, migratory: bool, intervals: usize) -> (u64, u64) {
    let nodes = if migratory { 6 } else { 4 };
    const PAGES: usize = 4;
    let cfg = DsmConfig {
        pool_bytes: (PAGES + 8) * PAGE_SIZE,
        home_policy: HomePolicy::Fixed,
        stride_prefetch: false,
        proto_select: select,
        ..DsmConfig::default()
    };
    let (out, total_msgs) = run_nodes_counted(nodes, cfg, NetProfile::clan_via(), move |d, clk| {
        let r = d.alloc_region(PAGES * PAGE_SIZE).unwrap();
        d.barrier(clk);
        let node = d.node();
        let mut buf = vec![0i64; PAGE_SIZE / 8];
        for i in 0..intervals {
            let (writer, readers): (usize, &[usize]) = if migratory {
                if i == 0 {
                    // Poison interval: everyone reads once.
                    (0, &[1, 2, 3, 4, 5])
                } else if i % 2 == 1 {
                    (1, &[2])
                } else {
                    (2, &[1])
                }
            } else {
                (0, &[1, 2])
            };
            if node == writer {
                for p in 0..PAGES {
                    d.write::<i64>(r, p * PAGE_SIZE, (i * PAGES + p) as i64 + 1, clk);
                }
            }
            d.barrier(clk); // the write notices drive this barrier's decision
            for &rd in readers {
                if node == rd {
                    for p in 0..PAGES {
                        d.read_slice::<i64>(r, p * (PAGE_SIZE / 8), &mut buf, clk);
                    }
                }
                d.barrier(clk);
            }
        }
        clk.now().as_nanos()
    });
    (out.into_iter().max().unwrap_or(0), total_msgs)
}

fn adapt_metrics(select: ProtoSelect, migratory: bool) -> AdaptMetrics {
    const WARM: usize = 2;
    const MEASURED: usize = 8;
    // Message counts are summed after full quiesce, so the measured-phase
    // cost is the difference of two complete runs — no mid-run snapshot
    // can race the root's departure fan-out.
    let (vt_full, msgs_full) = adapt_run(select, migratory, WARM + MEASURED);
    let (vt_warm, msgs_warm) = adapt_run(select, migratory, WARM);
    AdaptMetrics {
        vtime_ns: vt_full.saturating_sub(vt_warm),
        msgs: msgs_full - msgs_warm,
    }
}

fn record_adapt_family(b: &mut Bench) {
    // Write-broadcast: adaptive must beat all-invalidate.
    let ad = adapt_metrics(ProtoSelect::Adaptive, false);
    let inv = adapt_metrics(ProtoSelect::AllInvalidate, false);
    b.record("adapt/bcast_msgs_adaptive", ad.msgs as f64);
    b.record("adapt/bcast_msgs_invalidate", inv.msgs as f64);
    // Virtual times of concurrent push/fetch traffic carry sub-percent
    // service-order jitter, so they live in the ungated `adapt_info/`
    // family; the gated margins are the exact message counts and ratios.
    b.record("adapt_info/bcast_vtime_ns_adaptive", ad.vtime_ns as f64);
    b.record("adapt_info/bcast_vtime_ns_invalidate", inv.vtime_ns as f64);
    let ratio = ad.msgs as f64 / inv.msgs as f64 * 100.0;
    assert!(
        ratio < 100.0,
        "adaptive sent {} msgs vs all-invalidate {} on the broadcast workload",
        ad.msgs,
        inv.msgs
    );
    b.record("adapt/bcast_msg_ratio_pct", ratio);

    // Producer/consumer with stale sharers: adaptive must beat all-update.
    let ad = adapt_metrics(ProtoSelect::Adaptive, true);
    let upd = adapt_metrics(ProtoSelect::AllUpdate, true);
    b.record("adapt/migratory_msgs_adaptive", ad.msgs as f64);
    b.record("adapt/migratory_msgs_update", upd.msgs as f64);
    b.record("adapt_info/migratory_vtime_ns_adaptive", ad.vtime_ns as f64);
    b.record("adapt_info/migratory_vtime_ns_update", upd.vtime_ns as f64);
    let ratio = ad.msgs as f64 / upd.msgs as f64 * 100.0;
    assert!(
        ratio < 100.0,
        "adaptive sent {} msgs vs all-update {} on the migratory workload",
        ad.msgs,
        upd.msgs
    );
    b.record("adapt/migratory_msg_ratio_pct", ratio);
}

fn bench_wall_flush(b: &mut Bench) {
    b.bench("wall/release_32p_batched", || {
        std::hint::black_box(release_metrics(32));
    });
}

fn main() {
    let mut b = Bench::from_args("dsm").with_opts(BenchOpts {
        samples: 7,
        warmup_batches: 1,
        target_batch_ns: 50_000_000,
        max_iters_per_batch: 16,
    });
    record_release_family(&mut b);
    record_barrier_family(&mut b);
    record_coll_family(&mut b);
    record_tasks_family(&mut b);
    record_fault_storm_family(&mut b);
    record_adapt_family(&mut b);
    bench_wall_flush(&mut b);
    b.finish();
}
