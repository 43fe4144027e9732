//! The 1000-job serving soak: a deterministic stream of small jobs through
//! a 12-node machine, one in seven scheduled to lose a node mid-run, on a
//! lossy wire (`PARADE_CHAOS` when set, else a pinned lossy schedule).
//!
//! It is the only test of its binary because it counts the process's host
//! threads at the end: threads outlive the jobs they ran, parked for the
//! next one, and must not grow with the job count. Optimized builds only
//! (`cargo test --release --test serve_soak`): a debug build takes minutes.

use std::time::Duration;

use parade::net::ChaosProfile;
use parade::serve::{soak, SoakConfig};
use parade_testkit::prelude::run_with_timeout;

const MACHINE_NODES: usize = 12;

/// `Threads:` of `/proc/self/status`; `None` where there is no such file.
fn host_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
    line.trim().parse().ok()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "1000 jobs: run with --release")]
fn thousand_jobs_survive_scheduled_deaths_exactly_once() {
    let env = ChaosProfile::from_env();
    let chaos = if env.is_active() {
        env
    } else {
        ChaosProfile::lossy(0x5E17_E5EED)
    };
    let cfg = SoakConfig {
        jobs: 1000,
        machine_nodes: MACHINE_NODES,
        death_every: 7,
        chaos,
        ..SoakConfig::default()
    };
    let s = run_with_timeout("serve-soak-1000", Duration::from_secs(600), move || {
        soak(&cfg)
    });
    assert_eq!(
        s.completed_once, s.jobs,
        "a job was lost or run twice: {s:?}"
    );
    assert_eq!(
        s.digest_mismatches, 0,
        "a job's result was corrupted: {s:?}"
    );
    assert!(s.rehomed_jobs >= 1, "the death schedule never fired: {s:?}");
    // A main and a comm thread per machine node, and four for the
    // process's own.
    let bound = 2 * MACHINE_NODES + 4;
    if let Some(n) = host_threads() {
        assert!(
            n <= bound,
            "{n} host threads are alive after the soak, over the {bound} a \
             {MACHINE_NODES}-node machine accounts for"
        );
    }
}
