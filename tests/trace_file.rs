//! `PARADE_TRACE=<path>` end to end: the runtime starts its own trace
//! session, writes the Chrome trace file when the run ends, and hands the
//! aggregation back in the run's report.
//!
//! The only test of its binary: the variable it sets is process-wide.

use parade::cluster::{ClusterConfig, ExecConfig};
use parade::core::{Cluster, NetProfile, TimeSource};
use parade::kernels::helmholtz::{helmholtz_parade, HelmholtzParams};
use parade::trace::{validate_json, EventKind};

#[test]
fn parade_trace_writes_a_valid_file_and_attributes_every_node() {
    let path = std::env::temp_dir().join(format!("parade_trace_file_{}.json", std::process::id()));
    std::env::set_var("PARADE_TRACE", &path);
    let cluster = Cluster::from_config(ClusterConfig {
        nodes: 2,
        exec: ExecConfig::TwoThreadTwoCpu,
        net: NetProfile::clan_via(),
        time: TimeSource::Manual,
        ..ClusterConfig::default()
    })
    .expect("cluster config");
    let mut p = HelmholtzParams::sized(100, 100, 20);
    p.tol = 1e-30;
    let (_, report) = helmholtz_parade(&cluster, p);

    let body = std::fs::read_to_string(&path).expect("the run writes its trace file");
    std::fs::remove_file(&path).ok();
    validate_json(&body).expect("the trace file is well-formed JSON");
    let trace = report.trace.expect("a traced run carries its report");
    assert!(!trace.is_empty());
    let max_node = report.node_times.iter().copied().max().unwrap();
    for node in 0..2u32 {
        assert!(
            trace
                .spans
                .iter()
                .any(|s| s.node == node && s.kind == EventKind::OmpBarrier && s.count > 0),
            "node {node} must show omp.barrier spans"
        );
        assert!(
            trace.attributed_ns(node) <= max_node.as_nanos(),
            "attributed time cannot exceed the largest node clock"
        );
    }
}
