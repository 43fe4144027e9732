//! NAS verification tests. The full-class runs are `#[ignore]`d so plain
//! `cargo test` stays fast in debug builds; run them with
//! `cargo test --release -- --ignored`.

use parade::core::{Cluster, ProtocolMode};
use parade::kernels::cg::{cg_parade, cg_sequential, CgClass};
use parade::kernels::ep::{ep_parade, ep_sequential, EpClass};
use parade::kernels::helmholtz::{helmholtz_parade, helmholtz_sequential, HelmholtzParams};
use parade::net::{NetProfile, TimeSource};

/// Small cluster used by the debug-speed smoke tests below.
fn smoke_cluster() -> Cluster {
    Cluster::builder()
        .nodes(2)
        .threads_per_node(2)
        .net(NetProfile::clan_via())
        .time(TimeSource::Manual)
        .build()
        .unwrap()
}

#[test]
fn cg_class_s_zeta_matches_npb() {
    let r = cg_sequential(CgClass::S);
    assert!(
        (r.zeta - 8.5971775078648).abs() <= 1e-10,
        "zeta = {}",
        r.zeta
    );
}

#[test]
#[ignore = "release-speed run: cargo test --release -- --ignored"]
fn cg_class_w_zeta_matches_npb() {
    let r = cg_sequential(CgClass::W);
    assert!(
        (r.zeta - 10.362595087124).abs() <= 1e-10,
        "zeta = {}",
        r.zeta
    );
}

#[test]
#[ignore = "release-speed run: cargo test --release -- --ignored"]
fn cg_class_a_zeta_matches_npb() {
    let r = cg_sequential(CgClass::A);
    assert!(
        (r.zeta - 17.130235054029).abs() <= 1e-10,
        "zeta = {}",
        r.zeta
    );
}

#[test]
#[ignore = "release-speed run: cargo test --release -- --ignored"]
fn ep_class_s_sums_match_npb() {
    let r = ep_sequential(EpClass::S);
    assert_eq!(r.verify(EpClass::S), Some(true), "sx={} sy={}", r.sx, r.sy);
}

// ---------------------------------------------------------------------------
// Debug-speed smoke tests: tiny instances of each kernel run the full
// parallel (DSM + collectives) code path on every plain `cargo test`.
// ---------------------------------------------------------------------------

#[test]
fn cg_class_s_parallel_smoke_matches_npb() {
    let cluster = smoke_cluster();
    let (r, _) = cg_parade(&cluster, CgClass::S);
    assert!(
        (r.zeta - 8.5971775078648).abs() <= 1e-10,
        "zeta = {}",
        r.zeta
    );
}

#[test]
fn ep_custom_parallel_smoke_matches_sequential() {
    // Custom(18) = 4 batches: enough to exercise batch partitioning across
    // 2 nodes x 2 threads while staying debug-fast. No NPB reference exists
    // for custom sizes, so the sequential run is the oracle.
    let class = EpClass::Custom(18);
    let seq = ep_sequential(class);
    let cluster = smoke_cluster();
    let (par, _) = ep_parade(&cluster, class);
    // The hierarchical allreduce sums in a different order than the
    // sequential loop, so the Gaussian sums may differ in the last ulp;
    // the counts must match exactly.
    assert_eq!(par.q, seq.q, "annulus counts diverged");
    assert_eq!(par.gc, seq.gc, "accepted-pair counts diverged");
    assert!(
        ((par.sx - seq.sx) / seq.sx).abs() <= 1e-12,
        "sx diverged: parallel {} vs sequential {}",
        par.sx,
        seq.sx
    );
    assert!(
        ((par.sy - seq.sy) / seq.sy).abs() <= 1e-12,
        "sy diverged: parallel {} vs sequential {}",
        par.sy,
        seq.sy
    );
}

#[test]
fn helmholtz_tiny_parallel_smoke_matches_sequential() {
    let p = HelmholtzParams::sized(32, 32, 50);
    let seq = helmholtz_sequential(p);
    let cluster = smoke_cluster();
    let (par, _) = helmholtz_parade(&cluster, p);
    assert_eq!(par.iters, seq.iters, "iteration counts diverged");
    assert!(
        (par.error - seq.error).abs() <= 1e-12 * seq.error.abs().max(1.0),
        "residuals diverged: parallel {} vs sequential {}",
        par.error,
        seq.error
    );
    assert!(
        (par.solution_error - seq.solution_error).abs()
            <= 1e-12 * seq.solution_error.abs().max(1.0),
        "solution errors diverged: parallel {} vs sequential {}",
        par.solution_error,
        seq.solution_error
    );
}

/// The grid never sees the reduction: whatever the machine shape and the
/// lowering, every point is computed from the same operands in the same
/// order as the sequential sweep, so the solution is the same bits — on
/// grids with no interior, threads with no rows, rows that straddle pages
/// and blocks that share them.
#[test]
fn helmholtz_grid_is_bit_equal_to_sequential_on_every_shape() {
    for (n, m) in [(3, 3), (2, 5), (5, 3), (7, 9), (37, 29), (40, 40)] {
        let mut p = HelmholtzParams::sized(n, m, 6);
        p.tol = 1e-30; // never converge early: the iteration counts agree
        let seq = helmholtz_sequential(p);
        for (nodes, tpn) in [(1, 1), (1, 2), (2, 2), (4, 2)] {
            for mode in [ProtocolMode::Parade, ProtocolMode::SdsmOnly] {
                let cluster = Cluster::builder()
                    .nodes(nodes)
                    .threads_per_node(tpn)
                    .protocol(mode)
                    .time(TimeSource::Manual)
                    .build()
                    .unwrap();
                let (par, _) = helmholtz_parade(&cluster, p);
                let what = format!("{n} x {m} on {nodes} x {tpn}, {mode:?}");
                assert_eq!(par.iters, seq.iters, "{what}: iterations");
                assert_eq!(
                    par.solution_error.to_bits(),
                    seq.solution_error.to_bits(),
                    "{what}: solution error {:e} vs sequential {:e}",
                    par.solution_error,
                    seq.solution_error
                );
            }
        }
    }
}

#[test]
#[ignore = "release-speed run: cargo test --release -- --ignored"]
fn ep_class_a_parallel_verifies_on_8_nodes() {
    let cluster = Cluster::builder()
        .nodes(8)
        .threads_per_node(2)
        .net(NetProfile::clan_via())
        .time(TimeSource::Manual)
        .build()
        .unwrap();
    let (r, _) = parade::kernels::ep::ep_parade(&cluster, EpClass::A);
    assert_eq!(r.verify(EpClass::A), Some(true), "sx={} sy={}", r.sx, r.sy);
}
