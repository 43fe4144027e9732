//! Cross-crate integration tests: whole-cluster runs spanning the DSM,
//! MPI, runtime, kernels, and translator.

use parade::core::{Cluster, ClusterConfig, ExecConfig};
use parade::kernels::cg::{cg_mpi, cg_parade, cg_sequential, CgClass};
use parade::kernels::ep::{ep_parade, ep_sequential, EpClass};
use parade::kernels::helmholtz::{helmholtz_parade, helmholtz_sequential, HelmholtzParams};
use parade::kernels::md::{md_parade, md_sequential, MdParams};
use parade::net::TimeSource;
use parade::prelude::*;
use parade::translator::{parse, Interp};

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

#[test]
fn cg_class_s_verifies_sequentially() {
    let r = cg_sequential(CgClass::S);
    assert!(
        r.verify(CgClass::S),
        "zeta {} vs reference {}",
        r.zeta,
        CgClass::S.params().zeta_verify
    );
    assert!(r.rnorm < 1e-10);
}

#[test]
fn cg_class_s_verifies_on_cluster_in_both_modes() {
    for mode in [ProtocolMode::Parade, ProtocolMode::SdsmOnly] {
        let c = cluster(3, 2, mode);
        let (r, report) = cg_parade(&c, CgClass::S);
        assert!(r.verify(CgClass::S), "mode {mode:?}: zeta {}", r.zeta);
        let d = report.cluster.dsm_totals();
        assert!(d.page_fetches > 0, "CG must move pages across nodes");
        assert!(d.barriers > 0);
    }
}

#[test]
fn cg_pure_mpi_baseline_verifies() {
    let cfg = ClusterConfig {
        nodes: 4,
        net: NetProfile::clan_via(),
        time: TimeSource::Manual,
        ..ClusterConfig::default()
    };
    let (r, vt) = cg_mpi(cfg, CgClass::S);
    assert!(r.verify(CgClass::S), "zeta {}", r.zeta);
    // With a real network profile the allgathers/allreduces cost time.
    assert!(vt > parade::net::VTime::ZERO);
}

#[test]
fn cg_migratory_home_reduces_traffic() {
    let mk = |policy| {
        let cfg = ClusterConfig {
            nodes: 4,
            exec: ExecConfig::OneThreadTwoCpu,
            net: NetProfile::zero(),
            time: TimeSource::Manual,
            dsm: DsmConfig {
                home_policy: policy,
                ..DsmConfig::default()
            },
            ..ClusterConfig::default()
        };
        let (r, report) = cg_parade(
            &Cluster::from_config(cfg).expect("cluster config"),
            CgClass::S,
        );
        assert!(r.verify(CgClass::S));
        report.cluster.dsm_totals()
    };
    let migr = mk(parade::dsm::HomePolicy::Migratory);
    let fixed = mk(parade::dsm::HomePolicy::Fixed);
    assert!(
        migr.diffs_sent < fixed.diffs_sent,
        "migratory {} vs fixed {} diffs",
        migr.diffs_sent,
        fixed.diffs_sent
    );
}

/// The bulk-fetch shape of a CG class-S sweep is pinned: whole-vector
/// reads must coalesce their cold misses into `ReqPageRange` trips.
/// A drift in either counter means the adaptive hot path changed shape —
/// rerun `figures -- adapt-smoke` and re-pin deliberately.
#[test]
fn cg_bulk_fetch_counters_are_pinned() {
    let cfg = ClusterConfig {
        nodes: 4,
        exec: ExecConfig::OneThreadTwoCpu,
        net: NetProfile::clan_via(),
        time: TimeSource::Manual,
        ..ClusterConfig::default()
    };
    let (r, report) = cg_parade(
        &Cluster::from_config(cfg).expect("cluster config"),
        CgClass::S,
    );
    assert!(r.verify(CgClass::S), "zeta {}", r.zeta);
    let d = report.cluster.dsm_totals();
    assert_eq!(
        (d.range_fetches, d.range_fetch_pages),
        (17, 181),
        "bulk-fetch shape drifted (range trips, pages)",
    );
}

/// CG class S writes its partition-boundary pages from two nodes, and
/// every other node reads them after each barrier. The update mode pushes
/// them like its single-writer pages, so it must run well ahead of the
/// invalidate mode's refetches and send fewer messages; both modes must
/// keep coalescing bulk reads.
#[test]
fn cg_update_runs_ahead_of_invalidate_with_fewer_messages() {
    use parade::dsm::{DsmConfig, ProtoSelect};
    let run = |proto_select| {
        let cfg = ClusterConfig {
            nodes: 8,
            net: NetProfile::clan_via(),
            time: TimeSource::Manual,
            dsm: DsmConfig {
                proto_select,
                ..DsmConfig::default()
            },
            ..ClusterConfig::default()
        };
        let (r, report) = cg_parade(&Cluster::from_config(cfg).expect("cluster"), CgClass::S);
        assert!(r.verify(CgClass::S), "{proto_select:?}: zeta {}", r.zeta);
        assert!(
            report.cluster.dsm_totals().range_fetches > 0,
            "{proto_select:?}: bulk fetch path dead"
        );
        (report.exec_secs(), report.cluster.traffic.msgs)
    };
    let (update, update_msgs) = run(ProtoSelect::Update);
    let (invalidate, invalidate_msgs) = run(ProtoSelect::Invalidate);
    assert!(
        update <= 0.6 * invalidate,
        "update {update:.3} s vs invalidate {invalidate:.3} s"
    );
    assert!(
        update_msgs < invalidate_msgs,
        "update {update_msgs} vs invalidate {invalidate_msgs} messages"
    );
}

#[test]
fn ep_parallel_matches_sequential_and_scales_traffic_free() {
    let class = EpClass::Custom(19);
    let seq = ep_sequential(class);
    let c = cluster(4, 2, ProtocolMode::Parade);
    let (par, report) = ep_parade(&c, class);
    assert!((par.sx - seq.sx).abs() < 1e-9);
    assert!((par.sy - seq.sy).abs() < 1e-9);
    assert_eq!(par.q, seq.q);
    // EP shares almost nothing: no page traffic at all.
    assert_eq!(report.cluster.dsm_totals().page_fetches, 0);
}

#[test]
fn helmholtz_parallel_matches_sequential() {
    let p = HelmholtzParams::sized(40, 40, 60);
    let seq = helmholtz_sequential(p);
    for mode in [ProtocolMode::Parade, ProtocolMode::SdsmOnly] {
        let c = cluster(2, 2, mode);
        let (par, _) = helmholtz_parade(&c, p);
        assert_eq!(par.iters, seq.iters, "mode {mode:?}");
        assert!(
            (par.error - seq.error).abs() <= 1e-12 + 1e-9 * seq.error,
            "mode {mode:?}: {} vs {}",
            par.error,
            seq.error
        );
    }
}

#[test]
fn md_parallel_matches_sequential_across_cluster_shapes() {
    let p = MdParams::sized(40, 4);
    let seq = md_sequential(p);
    for (nodes, tpn) in [(1, 1), (2, 1), (2, 2), (4, 2)] {
        let c = cluster(nodes, tpn, ProtocolMode::Parade);
        let (par, _) = md_parade(&c, p);
        assert!(
            (par.last.total() - seq.last.total()).abs() < 1e-9,
            "{nodes}x{tpn}"
        );
    }
}

#[test]
fn parade_beats_sdsm_on_synchronization_heavy_run() {
    // The headline claim: for synchronization-dominated work the hybrid
    // runtime outperforms the conventional SDSM lowering.
    let run = |mode| {
        let cfg = ClusterConfig {
            nodes: 4,
            exec: ExecConfig::OneThreadTwoCpu,
            protocol: mode,
            net: NetProfile::clan_via(),
            time: TimeSource::Manual,
            ..ClusterConfig::default()
        };
        let cluster = Cluster::from_config(cfg).expect("cluster config");
        let (_, report) = cluster.run_with_report(|g| {
            let s = g.alloc_scalar_f64();
            g.parallel(move |tc| {
                for _ in 0..50 {
                    tc.atomic_add_f64(&s, 1.0);
                }
            });
            g.scalar_get_f64(&s)
        });
        report.exec_time
    };
    let parade = run(ProtocolMode::Parade);
    let sdsm = run(ProtocolMode::SdsmOnly);
    assert!(
        parade < sdsm,
        "hybrid {parade} should beat lock-based {sdsm}"
    );
}

#[test]
fn one_thread_one_cpu_is_slowest_on_communication_heavy_work() {
    // Figure 8's configuration ordering on a fetch-heavy workload.
    let run = |exec: ExecConfig| {
        let cfg = ClusterConfig {
            nodes: 4,
            exec,
            net: NetProfile::clan_via(),
            time: TimeSource::Manual,
            ..ClusterConfig::default()
        };
        let cluster = Cluster::from_config(cfg).expect("cluster config");
        let n = 64 * 512; // 64 pages
        let (_, report) = cluster.run_with_report(move |g| {
            let v = g.alloc_f64(n);
            g.parallel(move |tc| {
                // Round-robin writers force steady cross-node fetches.
                for round in 0..6 {
                    let writer = round % tc.num_nodes();
                    if tc.node() == writer && tc.local_thread() == 0 {
                        for p in 0..64 {
                            tc.set(&v, p * 512, round as f64);
                        }
                    }
                    tc.barrier();
                    let mut acc = 0.0;
                    for p in 0..64 {
                        acc += tc.get(&v, p * 512);
                    }
                    std::hint::black_box(acc);
                    tc.barrier();
                }
            });
        });
        report.exec_time
    };
    let t11 = run(ExecConfig::OneThreadOneCpu);
    let t12 = run(ExecConfig::OneThreadTwoCpu);
    assert!(
        t11 > t12,
        "1T1C ({t11}) must be slower than 1T2C ({t12}) when communication dominates"
    );
}

#[test]
fn translated_openmp_program_runs_on_cluster() {
    let src = r#"
int main() {
    int i;
    double dot = 0.0;
    double a[300];
    double b[300];
    #pragma omp parallel for
    for (i = 0; i < 300; i++) { a[i] = i; b[i] = 2.0; }
    #pragma omp parallel for reduction(+: dot)
    for (i = 0; i < 300; i++) dot += a[i] * b[i];
    printf("%.1f\n", dot);
    return 0;
}
"#;
    let prog = parse(src).unwrap();
    let c = cluster(2, 2, ProtocolMode::Parade);
    let out = Interp::new(prog).run(&c).unwrap();
    let expect: f64 = (0..300).map(|i| i as f64 * 2.0).sum();
    assert_eq!(out.stdout.trim(), format!("{expect:.1}"));
}

#[test]
fn run_report_virtual_times_are_consistent() {
    let c = cluster(3, 1, ProtocolMode::Parade);
    let (_, report) = c.run_with_report(|g| {
        let v = g.alloc_f64(1000);
        g.parallel(move |tc| {
            tc.par_for(0..1000, |i| tc.set(&v, i, 1.0));
        });
    });
    assert_eq!(report.node_times.len(), 3);
    // All nodes end at a barrier-coordinated shutdown; times are nonzero
    // and within the same order of magnitude.
    for &t in &report.node_times {
        assert!(t > parade::net::VTime::ZERO);
    }
}

// ---------------------------------------------------------------------------
// Tree barrier + collectives: pinned fabric message counts.
// ---------------------------------------------------------------------------

/// Total fabric messages for a fixed collective-only workload: 8 team
/// barriers plus one reduction. With `write`, the master allocates one
/// shared word and global thread 0 writes it before each barrier, so every
/// barrier has something to publish; without, no shared page is touched.
fn collective_message_count(nodes: usize, tpn: usize, write: bool) -> u64 {
    let c = Cluster::builder()
        .nodes(nodes)
        .threads_per_node(tpn)
        .net(NetProfile::zero())
        .time(TimeSource::Manual)
        .build()
        .unwrap();
    let (_, report) = c.run_with_report(move |g| {
        let word = write.then(|| g.alloc_f64(1));
        g.parallel(move |tc| {
            for i in 0..8 {
                if let Some(word) = word.filter(|_| tc.thread_num() == 0) {
                    tc.set(&word, 0, i as f64);
                }
                tc.barrier();
            }
            tc.reduce_f64_sum(1.0)
        })
    });
    report.cluster.traffic.msgs
}

/// The exact wire cost of the tree barrier and collectives is pinned: an
/// extra per-arrival hop sneaking back in changes these totals and must
/// fail CI, not drift silently.
#[test]
fn collective_message_counts_are_pinned() {
    // Per DSM barrier round at N nodes the tree costs 3N-1 messages (N
    // local arrivals handed to each node's own communication thread, N-1
    // aggregated BarrierUps, N departures). The writing workload takes 10
    // rounds: the fork (the master allocated), the 8 explicit barriers
    // (each follows a write) and the join (it follows a barrier that
    // published, so it does not ask). Global thread 0 writes on node 0,
    // the word's home, so no diff or page crosses the fabric. On top come
    // the master's three command broadcasts (allocation, fork, shutdown;
    // N-1 messages each) and the reduction's one recursive-doubling
    // allreduce, N·log₂N messages at a power of two N (8 at 4 nodes, 24
    // at 8).
    let w44 = collective_message_count(4, 4, true);
    // 10·11 + 3·3 + 8 and 10·23 + 3·7 + 24.
    assert_eq!(w44, 127, "writing, 4 nodes x 4 threads");
    assert_eq!(
        collective_message_count(8, 2, true),
        275,
        "writing, 8 nodes x 2 threads"
    );
    // The quiet workload takes one round, the first barrier. Its fork has
    // nothing to publish, and the first barrier publishes nothing, so the
    // 7 barriers after it and the join each ask with one write-flag
    // allreduce (N·log₂N messages) and find that no node wrote. Two
    // command broadcasts (fork, shutdown) and the reduction's allreduce
    // complete it: 11 + 8·8 + 2·3 + 8 and 23 + 8·24 + 2·7 + 24. An asked
    // barrier costs 8 messages against the tree's 11 at 4 nodes, and 24
    // against 23 at 8.
    let q44 = collective_message_count(4, 4, false);
    assert_eq!(q44, 89, "quiet, 4 nodes x 4 threads");
    assert_eq!(
        collective_message_count(8, 2, false),
        253,
        "quiet, 8 nodes x 2 threads"
    );
    for (write, c44) in [(true, w44), (false, q44)] {
        assert_eq!(
            collective_message_count(4, 1, write),
            c44,
            "compute threads funnel through the node barrier: fabric traffic \
             must not depend on threads-per-node"
        );
    }
}
