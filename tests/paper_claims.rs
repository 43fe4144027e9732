//! The paper's §6 claims, asserted on its figures at the default sweep of
//! 1, 2, 4 and 8 nodes: Figs. 6 and 7, the §5.1 update strategies and the
//! VIA-vs-TCP ablation on the manual clock; Figs. 8–11 and the home
//! ablation on counted compute.
//!
//! These assert the *claims* EXPERIMENTS.md quotes under each figure, not
//! its digits. The kernel figures run class W sizes — about 26 s in a
//! release build — so they are ignored in debug builds; `scripts/ci.sh`
//! runs them with `--release`. Claims that do not hold are written up
//! under EXPERIMENTS.md "Deviations & limitations" instead.

use parade::kernels::figures::{
    ablation_fabric, ablation_home, fig10, fig11, fig6, fig7, fig8, fig9, update_methods,
    FigureOpts, Table,
};
use parade::net::NetProfile;

/// Column `col` of every row, as a number (`"12.77x"` and `"infx"` parse).
fn column(t: &Table, col: usize) -> Vec<f64> {
    t.rows
        .iter()
        .map(|r| {
            let cell = r[col].trim_end_matches('x');
            cell.parse()
                .unwrap_or_else(|e| panic!("{}: cell {cell:?}: {e}", t.title))
        })
        .collect()
}

#[test]
fn fig6_sdsm_over_parade_exceeds_one_and_grows_with_every_node_step() {
    let t = fig6(&FigureOpts::default());
    assert_eq!(column(&t, 0), [1.0, 2.0, 4.0, 8.0]);
    let ratio = column(&t, 3);
    assert!(ratio[0] > 1.0, "{}", t.markdown());
    for w in ratio.windows(2) {
        assert!(w[1] > w[0], "the gap must widen: {}", t.markdown());
    }
}

#[test]
fn fig7_single_is_free_on_one_node_and_its_gap_grows() {
    let t = fig7(&FigureOpts::default());
    assert_eq!(column(&t, 0), [1.0, 2.0, 4.0, 8.0]);
    let (parade, sdsm, ratio) = (column(&t, 1), column(&t, 2), column(&t, 3));
    assert_eq!(parade[0], 0.0, "{}", t.markdown());
    let gap: Vec<f64> = sdsm.iter().zip(&parade).map(|(s, p)| s - p).collect();
    for w in gap.windows(2) {
        assert!(w[1] > w[0], "SDSM - ParADE must grow: {}", t.markdown());
    }
    // The ratio itself dips at 4 nodes; only its ends are ordered.
    assert!(ratio[3] > ratio[1], "{}", t.markdown());
}

#[test]
fn section_5_1_safe_update_strategies_finish_within_five_percent() {
    let t = update_methods(&FigureOpts::default());
    let exec = column(&t, 1);
    assert_eq!(exec.len(), 4, "{}", t.markdown());
    let lo = exec.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = exec.iter().copied().fold(0.0, f64::max);
    assert!(hi <= lo * 1.05, "{}", t.markdown());
}

#[test]
fn tcp_over_via_lies_between_the_profiles_cpu_and_latency_ratios() {
    let t = ablation_fabric(&FigureOpts::default());
    assert_eq!(column(&t, 0), [1.0, 2.0, 4.0, 8.0]);
    let (via, tcp) = (column(&t, 1), column(&t, 2));
    // One node sends nothing over the fabric.
    assert_eq!(via[0], tcp[0], "{}", t.markdown());
    let (v, e) = (NetProfile::clan_via(), NetProfile::fast_ethernet_tcp());
    let cpu = e.per_msg_cpu.as_nanos() as f64 / v.per_msg_cpu.as_nanos() as f64;
    let latency = e.remote.latency.as_nanos() as f64 / v.remote.latency.as_nanos() as f64;
    for i in 1..via.len() {
        let ratio = tcp[i] / via[i];
        assert!(
            cpu < ratio && ratio < latency,
            "TCP/VIA {ratio:.2} outside ({cpu:.2}, {latency:.2}): {}",
            t.markdown()
        );
    }
}

/// Figs. 9–11: two compute threads beat one thread sharing its CPU with
/// communication at every node count, and every configuration gets faster
/// with every node step.
fn assert_hybrid_scales(t: &Table) {
    assert_eq!(column(t, 0), [1.0, 2.0, 4.0, 8.0]);
    let (one_cpu, two_threads) = (column(t, 1), column(t, 3));
    for (two, one) in two_threads.iter().zip(&one_cpu) {
        assert!(
            two < one,
            "2Thread-2CPU must beat 1Thread-1CPU: {}",
            t.markdown()
        );
    }
    for col in 1..=3 {
        for w in column(t, col).windows(2) {
            assert!(
                w[1] < w[0],
                "{} must fall: {}",
                t.headers[col],
                t.markdown()
            );
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn fig8_one_cpu_gap_widens_with_the_node_count() {
    let t = fig8(&FigureOpts::default());
    assert_eq!(column(&t, 0), [1.0, 2.0, 4.0, 8.0]);
    let (one_cpu, two_cpu) = (column(&t, 1), column(&t, 2));
    let gap: Vec<f64> = one_cpu.iter().zip(&two_cpu).map(|(a, b)| a / b).collect();
    for w in gap.windows(2) {
        assert!(
            w[1] > w[0],
            "1T-1CPU / 1T-2CPU must widen: {}",
            t.markdown()
        );
    }
    // `fig8` asserts that the pure-MPI CG verifies; its time falls at every
    // node step.
    assert_eq!(t.headers[4], "pure MPI (s)");
    for w in column(&t, 4).windows(2) {
        assert!(w[1] < w[0], "pure MPI must fall: {}", t.markdown());
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn fig9_ep_hybrid_beats_one_cpu_and_scales() {
    assert_hybrid_scales(&fig9(&FigureOpts::default()));
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn fig10_helmholtz_hybrid_beats_one_cpu_and_scales() {
    assert_hybrid_scales(&fig10(&FigureOpts::default()));
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn fig11_md_hybrid_beats_one_cpu_and_scales() {
    assert_hybrid_scales(&fig11(&FigureOpts::default()));
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn migratory_home_beats_fixed_from_four_nodes_with_fewer_diffs() {
    let t = ablation_home(&FigureOpts::default());
    assert_eq!(column(&t, 0), [2.0, 4.0, 8.0]);
    let (migr, fixed) = (column(&t, 1), column(&t, 2));
    let (migr_diffs, fixed_diffs) = (column(&t, 5), column(&t, 6));
    for i in 1..migr.len() {
        assert!(migr[i] < fixed[i], "{}", t.markdown());
        assert!(migr_diffs[i] < fixed_diffs[i], "{}", t.markdown());
    }
}

/// EP moves no pages, and counted compute reads no host clock, so its
/// figure is a function of the program alone.
#[test]
fn a_counted_figure_repeats_to_the_last_digit() {
    let opts = FigureOpts::quick();
    assert_eq!(fig9(&opts).markdown(), fig9(&opts).markdown());
}
