//! The MD application of the paper's §6.2 (Figure 11): a simple molecular
//! dynamics simulation in continuous real space.
//!
//! ```text
//! cargo run --release --example molecular_dynamics -- [nodes] [particles] [steps]
//! ```

use parade::core::{Cluster, ClusterConfig, ExecConfig};
use parade::kernels::md::{md_parade, md_sequential, MdParams};
use parade::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let nodes: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(4);
    let np: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(256);
    let steps: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(10);

    let p = MdParams::sized(np, steps);
    println!("MD: {np} particles, {steps} velocity-Verlet steps\n");

    let seq = md_sequential(p);
    println!(
        "sequential reference: E0 = {:.6}, E_end = {:.6}, drift = {:.2e}\n",
        seq.first.total(),
        seq.last.total(),
        seq.drift()
    );

    println!("| configuration | virtual time | E_end      | energy drift |");
    println!("|---------------|--------------|------------|--------------|");
    for exec in ExecConfig::PAPER_CONFIGS {
        let cfg = ClusterConfig {
            nodes,
            exec,
            net: NetProfile::clan_via(),
            ..ClusterConfig::default()
        };
        let cluster = Cluster::from_config(cfg).expect("cluster config");
        let (r, report) = md_parade(&cluster, p);
        assert!(
            (r.last.total() - seq.last.total()).abs() < 1e-9,
            "parallel MD diverged from the sequential reference"
        );
        println!(
            "| {:13} | {:>12} | {:>10.6} | {:.2e}    |",
            exec.label(),
            format!("{}", report.exec_time),
            r.last.total(),
            r.drift()
        );
    }
    println!(
        "\nPositions are shared through the DSM and read by every node each\n\
         step; the potential/kinetic energies are a two-variable reduction\n\
         merged into a single collective (paper §4.2). Less shared data than\n\
         Helmholtz, hence the good scaling in all configurations (Fig. 11)."
    );
}
