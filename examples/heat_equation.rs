//! The Helmholtz/Jacobi application of the paper's §6.2 (Figure 10),
//! runnable at any size and cluster shape:
//!
//! ```text
//! cargo run --release --example heat_equation -- [nodes] [grid] [iters]
//! ```
//!
//! Prints convergence, the solution error against the manufactured exact
//! solution, and the virtual execution time under each of the paper's
//! three execution configurations.

use parade::core::{Cluster, ClusterConfig, ExecConfig};
use parade::kernels::helmholtz::{helmholtz_parade, helmholtz_sequential, HelmholtzParams};
use parade::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let nodes: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(4);
    let grid: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(120);
    let iters: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(200);

    let p = HelmholtzParams::sized(grid, grid, iters);
    println!("Helmholtz {grid}x{grid}, up to {iters} Jacobi iterations\n");

    let seq = helmholtz_sequential(p);
    println!(
        "sequential reference: {} iters, residual {:.3e}, rms error {:.3e}\n",
        seq.iters, seq.error, seq.solution_error
    );

    println!("| configuration | virtual time | residual | page fetches | reductions/iter |");
    println!("|---------------|--------------|----------|--------------|-----------------|");
    for exec in ExecConfig::PAPER_CONFIGS {
        let cfg = ClusterConfig {
            nodes,
            exec,
            net: NetProfile::clan_via(),
            ..ClusterConfig::default()
        };
        let cluster = Cluster::from_config(cfg).expect("cluster config");
        let (r, report) = helmholtz_parade(&cluster, p);
        assert!((r.error - seq.error).abs() <= 1e-9 * seq.error.max(1e-30));
        let d = report.cluster.dsm_totals();
        println!(
            "| {:13} | {:>12} | {:.2e} | {:>12} | 1 allreduce     |",
            exec.label(),
            format!("{}", report.exec_time),
            r.error,
            d.page_fetches
        );
    }
    println!(
        "\nThe per-iteration convergence check (a competitively updated shared\n\
         variable) is lowered to a reduction collective — the optimization that\n\
         makes this application scale nearly linearly in the paper (Fig. 10)."
    );
}
