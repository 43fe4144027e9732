//! Diagnostic: run the Helmholtz kernel on a few cluster shapes and print
//! the unified [`StatsReport`] — virtual-time split, protocol counters,
//! per-node traffic, and (with `PARADE_TRACE=<path>`) the per-construct
//! virtual-time breakdown. Set `PARADE_STATS_JSON=1` to also write
//! `STATS_<label>.json` files for offline comparison.
use parade_cluster::{ClusterConfig, ExecConfig};
use parade_core::{Cluster, StatsReport};
use parade_kernels::helmholtz::{helmholtz_parade, HelmholtzParams};

fn main() {
    let p = HelmholtzParams::sized(1200, 1200, 20);
    for (nodes, exec) in [
        (2, ExecConfig::OneThreadOneCpu),
        (4, ExecConfig::OneThreadOneCpu),
        (4, ExecConfig::TwoThreadTwoCpu),
    ] {
        let cfg = ClusterConfig {
            nodes,
            exec,
            time: parade_net::TimeSource::ThreadCpu { scale: 1.0 },
            ..ClusterConfig::default()
        };
        let cluster = Cluster::from_config(cfg).expect("cluster config");
        let (_, report) = helmholtz_parade(&cluster, p);
        let stats = StatsReport::from_run(format!("helmholtz-{nodes}n-{}", exec.label()), &report);
        println!("{}", stats.render());
        stats.emit_json();
    }
}
