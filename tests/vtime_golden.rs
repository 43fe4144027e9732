//! Exact golden of the deterministic virtual-time families.
//!
//! `tests/golden/vtime.tsv` holds one `name<TAB>integer` row per metric
//! that is a pure function of the protocol — virtual nanoseconds, fabric
//! message counts, wire byte counts: `release/` ([`release_metrics`]),
//! `coll/` ([`dsm_barrier_steady_vtime_ns`], [`mpi_coll_vtime_ns`]),
//! `tasks/` ([`tasks_rows`]), `adapt/` ([`adapt_msgs`]) and `kernel/`
//! ([`helmholtz_rows`]). Every row is compared with `==`, and the `_{N}n` families are also held to the
//! ⌈log₂N⌉ shape rule ([`SHAPE_RATIO`]), so a collective that silently
//! went O(N) fails even in a re-pinned file.
//!
//! A mismatch prints the whole fresh table in golden format: re-pinning on
//! purpose is pasting it over the file — from
//! `cargo test --release --test vtime_golden`, because the 256-node rung
//! spawns hundreds of OS threads and only runs in optimised builds.

use std::sync::Arc;

use parade::core::Cluster;
use parade::dsm::{spawn_comm_thread, Dsm, DsmConfig, HomePolicy, ProtoSelect, PAGE_SIZE};
use parade::kernels::helmholtz::{helmholtz_parade, HelmholtzParams};
use parade::mpi::{Communicator, ReduceOp};
use parade::net::{Fabric, NetProfile, TimeSource, VClock};
use parade_tasks::{NodeSched, SchedConfig, StealStrategy, Step, TaskCtx, TaskDesc};

const GOLDEN: &str = include_str!("golden/vtime.tsv");

/// Max allowed cost ratio between successive node-count doublings of a
/// `_{N}n` scaling family (log₂N scaling sits near 1.2; flat linear
/// scaling sits near 2.0).
const SHAPE_RATIO: f64 = 1.7;

/// Node counts of the `coll/` scaling families.
const COLL_SIZES: &[usize] = &[16, 32, 64, 128, 256];

/// The rung [`COLL_SIZES`] ends on runs only in optimised builds.
fn runs_here(nodes: usize) -> bool {
    nodes < 256 || !cfg!(debug_assertions)
}

/// Node counts of the `tasks/` scaling families. Single-threaded
/// round-robin driving, so even 64 schedulers are cheap in debug builds.
const TASK_SIZES: &[usize] = &[4, 8, 16, 32, 64];

// ---- drivers -------------------------------------------------------------

/// Miniature cluster harness: one application thread plus one communication
/// thread per node (the cluster_tests pattern, usable outside the crate).
/// Also returns the total messages all nodes sent — summed *after* the
/// communication threads joined, so in-flight replies and barrier-departure
/// fan-outs are all accounted for and the count is a pure function of the
/// protocol (no snapshot race).
fn run_nodes<R: Send + 'static>(
    n: usize,
    cfg: DsmConfig,
    f: impl Fn(Arc<Dsm>, &mut VClock) -> R + Send + Sync + 'static,
) -> (Vec<R>, u64) {
    let fabric = Fabric::new(n, NetProfile::clan_via());
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

/// One 2-node release with `pages` dirty pages homed on the peer; fully
/// deterministic (single blocking request stream, virtual clocks). Returns
/// node 1's flush: virtual ns, messages sent, replies awaited, wire bytes
/// of the shipped diff messages, modified bytes carried inside them.
fn release_metrics(pages: usize) -> Vec<u64> {
    let cfg = DsmConfig {
        pool_bytes: (pages + 8) * PAGE_SIZE,
        // Fixed homes keep every page on node 0, so node 1's release has a
        // single destination — the pure batching scenario.
        home_policy: HomePolicy::Fixed,
        ..DsmConfig::default()
    };
    let (mut out, _) = run_nodes(2, cfg, move |d, clk| {
        let r = d.alloc_region(pages * PAGE_SIZE).unwrap();
        d.barrier(clk);
        let mut m = Vec::new();
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
            m = vec![
                t1.saturating_sub(t0).as_nanos(),
                net1.sent.msgs - net0.sent.msgs,
                net1.received.msgs - net0.received.msgs,
                s1.diff_bytes - s0.diff_bytes,
                s1.diff_payload_bytes - s0.diff_payload_bytes,
            ];
        }
        d.barrier(clk);
        m
    });
    out.swap_remove(1)
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
    let (out, _) = run_nodes(nodes, cfg, move |d, clk| {
        d.barrier(clk); // warm-up: align all clocks on the first departure
        let t0 = clk.now();
        for _ in 0..ITERS {
            d.barrier(clk);
        }
        clk.now().saturating_sub(t0).as_nanos() / ITERS
    });
    // The master's view: it waits for everyone, so it sees the full cost.
    out[0]
}

/// Virtual time per operation of the MPI collectives, measured
/// thread-per-rank and reported as the slowest rank's view. Deterministic:
/// every receive is matched by (source, tag), so arrival order cannot
/// leak in. Closed forms on `clan_via` (1 500 ns send CPU + 7 500 ns
/// latency + 9 ns/byte): a barrier is ⌈log₂P⌉ rounds of one empty
/// message, 9 000 × ⌈log₂P⌉; an 8-byte allreduce is ⌈log₂P⌉ rounds of
/// recursive doubling, 9 072 × ⌈log₂P⌉. Successive broadcasts
/// overlap (the root does not wait for the leaves), so the `bcast` rows
/// are an amortised per-operation cost.
fn mpi_coll_vtime_ns(ranks: usize, op: &'static str) -> u64 {
    let fabric = Fabric::new(ranks, NetProfile::clan_via());
    const ITERS: u64 = 4;
    let handles: Vec<_> = (0..ranks)
        .map(|r| {
            let comm = Communicator::new(fabric.endpoint(r));
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

/// Drive `nnodes` task schedulers round-robin from this thread until every
/// node holds the merged phase result, which must hold `ntasks` tasks. One
/// deterministic schedule: message delivery order is fixed by the polling
/// order and the seeded victim choice, so the virtual clocks replay
/// identically on every host. Returns the slowest node's virtual time in ns.
fn task_phase_vtime_ns(
    nnodes: usize,
    cfg: SchedConfig,
    ntasks: usize,
    spawn: impl Fn(&mut NodeSched, &mut VClock),
) -> u64 {
    let fabric = Fabric::new(nnodes, NetProfile::clan_via());
    let mut scheds: Vec<NodeSched> = (0..nnodes)
        .map(|n| NodeSched::new(Arc::new(Communicator::new(fabric.endpoint(n))), cfg))
        .collect();
    let mut clocks: Vec<VClock> = (0..nnodes).map(|_| VClock::manual()).collect();
    // The task bodies carry no virtual cost: the families below measure
    // pure scheduling overhead (ship, steal, termination and merge).
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
    assert_eq!(merged[0].as_ref().expect("merged").len(), ntasks);
    let vtime = clocks.iter().map(|c| c.now().as_nanos()).max().unwrap_or(0);
    fabric.begin_shutdown();
    vtime
}

/// Tasks per node of the steal-only phase and of the n-body phase.
const STEAL_TASKS_PER_NODE: usize = 8;
const NBODY_BLOCKS_PER_NODE: usize = 2;

/// The `tasks/` rows: whole-phase virtual time of
///
/// * `spawn_sync` — a minimal phase (one task, two nodes): spawn, execute,
///   token termination, result merge (flat placement keeps a node's first
///   spawn at home, so nothing is shipped);
/// * `steal` — node 0 spawns 8·N tasks and every other node acquires work
///   exclusively by random stealing. Per-task cost must stay flat as the
///   cluster doubles — the victim serves steals in batches, so a regression
///   to one-task-per-round-trip shipping breaks the shape bound;
/// * `nbody` — the n-body kernel's phase shape: 2·N force blocks spawned
///   round-robin by their owner nodes under flat placement, merged once per
///   step. Per-task cost must stay flat as nodes and blocks double together;
/// * `nbody_steal` — the same phase under the default scheduler, which
///   steals: the scheduler the `task_nbody` benchmark workload runs. Each
///   node has run its own two blocks before a thief's request reaches it,
///   so every steal misses and no task moves.
fn tasks_rows(rows: &mut Rows) {
    let flat = SchedConfig {
        strategy: StealStrategy::Flat,
        ..SchedConfig::default()
    };
    let vt = task_phase_vtime_ns(2, flat, 1, |s, c| {
        if s.node() == 0 {
            s.spawn(0, vec![1], c);
        }
    });
    rows.push(("tasks/spawn_sync_vtime_ns_2n".into(), vt));
    for &n in TASK_SIZES {
        let total = STEAL_TASKS_PER_NODE * n;
        let vt = task_phase_vtime_ns(n, SchedConfig::default(), total, move |s, c| {
            if s.node() == 0 {
                for i in 0..total as u64 {
                    s.spawn(0, vec![i], c);
                }
            }
        });
        rows.push((format!("tasks/steal_vtime_ns_{n}n"), vt));
    }
    for (family, cfg) in [("nbody", flat), ("nbody_steal", SchedConfig::default())] {
        for &n in TASK_SIZES {
            let blocks = NBODY_BLOCKS_PER_NODE * n;
            let vt = task_phase_vtime_ns(n, cfg, blocks, move |s, c| {
                let nn = s.node();
                for blk in 0..blocks as u64 {
                    if blk as usize % n == nn {
                        s.spawn(0, vec![blk, blocks as u64], c);
                    }
                }
            });
            rows.push((format!("tasks/{family}_vtime_ns_{n}n"), vt));
        }
    }
}

/// Messages all nodes sent over `intervals` write/read rounds under one
/// [`ProtoSelect`] mode. Reader turns are staggered by barriers so every
/// request stream has a single concurrent client — the count replays
/// exactly.
///
/// * `migratory: false` — write-broadcast: node 0 (the fixed home) writes
///   every page, nodes 1 and 2 re-read them each interval. Update pushes
///   replace both readers' refetch round trips: after the first, no reader
///   refetches again.
/// * `migratory: true` — producer/consumer pair: after one all-nodes read
///   interval poisons the sharer history, only nodes 1 and 2 touch the
///   pages (alternating writer/reader). Homes are fixed, so the update
///   mode's sharer set never clears and it keeps pushing to the stale
///   sharers 3..6: the rule's known cost, and the reason invalidate sends
///   fewer messages on this pattern.
fn adapt_run_msgs(select: ProtoSelect, migratory: bool, intervals: usize) -> u64 {
    let nodes = if migratory { 6 } else { 4 };
    const PAGES: usize = 4;
    let cfg = DsmConfig {
        pool_bytes: (PAGES + 8) * PAGE_SIZE,
        home_policy: HomePolicy::Fixed,
        proto_select: select,
        ..DsmConfig::default()
    };
    let (_, total_msgs) = run_nodes(nodes, cfg, move |d, clk| {
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
    });
    total_msgs
}

/// Steady-state messages of eight intervals after two warm-up ones. Counts
/// are summed after full quiesce, so the measured-phase cost is the
/// difference of two complete runs — no mid-run snapshot can race the
/// root's departure fan-out.
fn adapt_msgs(select: ProtoSelect, migratory: bool) -> u64 {
    const WARM: usize = 2;
    const MEASURED: usize = 8;
    adapt_run_msgs(select, migratory, WARM + MEASURED) - adapt_run_msgs(select, migratory, WARM)
}

/// The paper's Helmholtz, 200 × 200 × 20 iterations on one node of two
/// threads (the `stencil_local` shape in small): the master's virtual ns
/// and the write faults of the run. No page is remote, so both are a pure
/// function of which byte ranges the kernel reads and writes, in which
/// order — recorded at PR 24's parent, before the kernel moved onto views.
///
/// Then 128 × 128 × 5 iterations on four nodes of two threads (the
/// `stencil_dsm` shape in small): the page fetches and fabric messages of
/// the run. Every node starts with a valid zero copy of every page, so no
/// node fetches a page of a fresh array before its first write: 53 and
/// 276 here, where starting INVALID off node 0 took 125 and 420.
fn helmholtz_rows(rows: &mut Rows) {
    let cluster = Cluster::builder()
        .nodes(1)
        .threads_per_node(2)
        .time(TimeSource::Manual)
        .build()
        .unwrap();
    let (_, report) = helmholtz_parade(&cluster, HelmholtzParams::sized(200, 200, 20));
    let faults = report.cluster.dsm_totals().write_faults;
    rows.push((
        "kernel/helmholtz_1x2_vtime_ns".into(),
        report.exec_time.as_nanos(),
    ));
    rows.push(("kernel/helmholtz_1x2_write_faults".into(), faults));
    let cluster = Cluster::builder()
        .nodes(4)
        .threads_per_node(2)
        .time(TimeSource::Manual)
        .build()
        .unwrap();
    let (_, report) = helmholtz_parade(&cluster, HelmholtzParams::sized(128, 128, 5));
    rows.push((
        "kernel/helmholtz_4x2_page_fetches".into(),
        report.cluster.dsm_totals().page_fetches,
    ));
    rows.push((
        "kernel/helmholtz_4x2_msgs".into(),
        report.cluster.traffic.msgs,
    ));
}

// ---- the table -------------------------------------------------------------

type Rows = Vec<(String, u64)>;

/// Every row this profile computes, in golden order.
fn fresh_rows() -> Rows {
    let mut rows = Rows::new();
    for pages in [1usize, 8, 32] {
        let names = [
            "flush_vtime_ns",
            "flush_msgs",
            "flush_acks",
            "diff_wire_bytes",
            "diff_payload_bytes",
        ];
        for (name, v) in names.iter().zip(release_metrics(pages)) {
            rows.push((format!("release/{name}_{pages}p_batched"), v));
        }
    }
    for &n in COLL_SIZES.iter().filter(|&&n| runs_here(n)) {
        let barrier = dsm_barrier_steady_vtime_ns(n);
        rows.push((format!("coll/dsm_barrier_vtime_ns_{n}n"), barrier));
        for op in ["barrier", "bcast", "allreduce"] {
            rows.push((format!("coll/{op}_vtime_ns_{n}n"), mpi_coll_vtime_ns(n, op)));
        }
    }
    tasks_rows(&mut rows);
    for (name, select, migratory) in [
        ("bcast_msgs_update", ProtoSelect::Update, false),
        ("bcast_msgs_invalidate", ProtoSelect::Invalidate, false),
        ("migratory_msgs_invalidate", ProtoSelect::Invalidate, true),
        ("migratory_msgs_update", ProtoSelect::Update, true),
    ] {
        rows.push((format!("adapt/{name}"), adapt_msgs(select, migratory)));
    }
    helmholtz_rows(&mut rows);
    rows
}

fn parse_golden(doc: &str) -> Result<Rows, String> {
    let mut rows = Rows::new();
    for (i, line) in doc.lines().enumerate() {
        let bad = |why: &str| format!("vtime.tsv line {}: {why}: {line:?}", i + 1);
        let (name, value) = line.split_once('\t').ok_or_else(|| bad("no tab"))?;
        let value = value.parse().map_err(|_| bad("value is not a u64"))?;
        if rows.iter().any(|(n, _)| n == name) {
            return Err(bad("duplicate row"));
        }
        rows.push((name.to_string(), value));
    }
    Ok(rows)
}

fn render(rows: &Rows) -> String {
    rows.iter().map(|(n, v)| format!("{n}\t{v}\n")).collect()
}

// ---- the shape rule ----------------------------------------------------------

/// Split a scaling-family metric name `<family>_<N>n` into its family stem
/// and node count; `None` for names not of that shape.
fn split_scaled(name: &str) -> Option<(&str, u64)> {
    let stem_digits = name.strip_suffix('n')?;
    let digit_start = stem_digits
        .rfind(|c: char| !c.is_ascii_digit())
        .map(|i| i + 1)?;
    let (stem, digits) = stem_digits.split_at(digit_start);
    let stem = stem.strip_suffix('_')?;
    Some((stem, digits.parse().ok()?))
}

/// Every (N, 2N) pair of a `_{N}n` family whose cost grew by
/// [`SHAPE_RATIO`] or more, described for the failure message.
fn shape_violations(points: &[(String, f64)]) -> Vec<String> {
    let mut bad = Vec::new();
    for (lo_name, lo) in points {
        let Some((stem, n)) = split_scaled(lo_name) else {
            continue;
        };
        let doubled = format!("{stem}_{}n", 2 * n);
        let Some((_, hi)) = points.iter().find(|(name, _)| *name == doubled) else {
            continue;
        };
        if *lo > 0.0 && hi / lo >= SHAPE_RATIO {
            bad.push(format!("{stem}: {n}n -> {}n costs {:.2}x", 2 * n, hi / lo));
        }
    }
    bad
}

/// The families the shape rule covers: `coll/` as stored, `tasks/` per task.
fn shaped(rows: &Rows) -> Vec<(String, f64)> {
    rows.iter()
        .filter_map(|(name, v)| {
            let (stem, n) = split_scaled(name)?;
            let per = match stem {
                "tasks/steal_vtime_ns" => STEAL_TASKS_PER_NODE * n as usize,
                "tasks/nbody_vtime_ns" | "tasks/nbody_steal_vtime_ns" => {
                    NBODY_BLOCKS_PER_NODE * n as usize
                }
                _ if stem.starts_with("coll/") => 1,
                _ => return None,
            };
            Some((name.clone(), *v as f64 / per as f64))
        })
        .collect()
}

#[test]
fn golden_file_parses_and_rejects_malformed_rows() {
    let all = parse_golden(GOLDEN).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(render(&all), GOLDEN, "vtime.tsv is not in canonical form");
    let rows_of = |family: &str| all.iter().filter(|(n, _)| n.starts_with(family)).count();
    assert_eq!(
        ["release/", "coll/", "tasks/", "adapt/", "kernel/"].map(rows_of),
        [15, 20, 16, 4, 4],
        "a family lost or gained a row"
    );
    for bad in ["coll/x_16n 5\n", "coll/x_16n\t5.5\n", "a\t1\na\t2\n"] {
        assert!(parse_golden(bad).is_err(), "{bad:?} parsed");
    }
}

#[test]
fn shape_rule_separates_linear_from_logarithmic_scaling() {
    let family = |factor: f64| -> Vec<(String, f64)> {
        (0..5)
            .map(|k| {
                (
                    format!("coll/x_vtime_ns_{}n", 16 << k),
                    1e4 * factor.powi(k),
                )
            })
            .collect()
    };
    assert_eq!(shape_violations(&family(1.2)), Vec::<String>::new());
    let linear = shape_violations(&family(2.0));
    assert_eq!(linear.len(), 4, "{linear:?}");
    assert!(linear[0].starts_with("coll/x_vtime_ns: 16n -> 32n"));
    // Per-task normalisation: a steal phase whose total doubles with the
    // task count is flat, not linear.
    let rows: Rows = TASK_SIZES
        .iter()
        .map(|&n| {
            (
                format!("tasks/steal_vtime_ns_{n}n"),
                5_000 * (STEAL_TASKS_PER_NODE * n) as u64,
            )
        })
        .collect();
    assert_eq!(shape_violations(&shaped(&rows)), Vec::<String>::new());
    assert_eq!(
        split_scaled("coll/bcast_vtime_ns_16n"),
        Some(("coll/bcast_vtime_ns", 16))
    );
    assert_eq!(split_scaled("adapt/bcast_msgs_update"), None);
    assert_eq!(split_scaled("coll/bcastn"), None);
}

#[test]
fn virtual_time_families_equal_the_golden_exactly() {
    let fresh = fresh_rows();
    // All of the file, except that a debug build skips the 256-node rung:
    // a row that vanished from either side fails like a changed value.
    let mut want = parse_golden(GOLDEN).unwrap_or_else(|e| panic!("{e}"));
    want.retain(|(name, _)| split_scaled(name).is_none_or(|(_, n)| runs_here(n as usize)));
    assert!(
        fresh == want,
        "virtual-time rows drifted from tests/golden/vtime.tsv; fresh table{}:\n{}",
        if cfg!(debug_assertions) {
            " (debug build: no 256-node rows; re-pin from --release)"
        } else {
            ""
        },
        render(&fresh),
    );

    let value = |name: &str| fresh.iter().find(|(n, _)| n == name).expect(name).1;
    assert!(
        value("adapt/bcast_msgs_update") < value("adapt/bcast_msgs_invalidate"),
        "update must beat invalidate on the write-broadcast workload"
    );
    let bad = shape_violations(&shaped(&fresh));
    assert!(
        bad.is_empty(),
        "scaling pairs at or over the {SHAPE_RATIO}x doubling bound (flat-algorithm fallback?): {bad:?}"
    );
}
