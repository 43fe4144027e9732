//! Demonstrates the migratory-home optimization of the HLRC protocol
//! (paper §5.2.2): a page repeatedly written by one node migrates to that
//! node, after which its accesses are purely local.
//!
//! ```text
//! cargo run --release --example home_migration
//! ```

use parade::core::{Cluster, ClusterConfig};
use parade::dsm::HomePolicy;
use parade::prelude::*;

fn run(policy: HomePolicy) -> (u64, u64, u64, VTime) {
    let cfg = ClusterConfig {
        nodes: 4,
        dsm: DsmConfig {
            home_policy: policy,
            ..DsmConfig::default()
        },
        net: NetProfile::clan_via(),
        ..ClusterConfig::default()
    };
    let cluster = Cluster::from_config(cfg).expect("cluster config");
    let rounds = 50usize;
    let n = 16 * 1024; // 32 pages of f64
    let (_, report) = cluster.run_with_report(move |g| {
        let v = g.alloc_f64(n);
        g.parallel(move |tc| {
            // Each thread owns a contiguous block and updates it every
            // round — the regular scientific-loop pattern the paper's
            // migratory home targets. With a fixed home (master node),
            // every round ships diffs back to node 0; with migration the
            // pages move to their writers after the first barrier.
            let mine = tc.for_static(0..n);
            let mut buf = vec![0.0f64; mine.len()];
            for round in 0..rounds {
                tc.read_into(&v, mine.start, &mut buf);
                for x in buf.iter_mut() {
                    *x += round as f64;
                }
                tc.write_from(&v, mine.start, &buf);
                tc.barrier();
            }
        });
    });
    let d = report.cluster.dsm_totals();
    (
        d.page_fetches,
        d.diffs_sent,
        d.home_migrations,
        report.exec_time,
    )
}

fn main() {
    println!("Workload: 4 nodes, 32 shared pages, each page written by one");
    println!("node every iteration for 50 barriered rounds.\n");
    let (f_fetch, f_diff, f_migr, f_time) = run(HomePolicy::Fixed);
    let (m_fetch, m_diff, m_migr, m_time) = run(HomePolicy::Migratory);
    println!("| home policy | page fetches | diffs sent | migrations | virtual time |");
    println!("|-------------|--------------|------------|------------|--------------|");
    println!("| fixed       | {f_fetch:>12} | {f_diff:>10} | {f_migr:>10} | {f_time:>12} |");
    println!("| migratory   | {m_fetch:>12} | {m_diff:>10} | {m_migr:>10} | {m_time:>12} |");
    println!();
    println!(
        "Migratory homes eliminate the steady-state diff traffic: after the\n\
         first barrier each page's home is its writer, so subsequent rounds\n\
         run without any page communication (paper §5.2.2)."
    );
    assert!(m_diff < f_diff, "migration should reduce diff traffic");
    assert!(m_time < f_time, "migration should reduce execution time");
}
