//! Names, units and directions of everything the benchmark reports.
//!
//! `BENCHMARK.json` at the repository root carries the same tables for the
//! driver; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Workload names are permanent; the index is the span files' workload id.
pub const WORKLOADS: [&str; 7] = [
    "cg_dsm",
    "stencil_dsm",
    "stencil_local",
    "sync_directives",
    "task_nbody",
    "serve_mix",
    "translate_corpus",
];

/// Reported for every workload, from the untraced timed reps.
pub const END_TO_END: [Metric; 5] = [
    lower("wall_s", "s"),
    lower("cpu_s", "s"),
    lower("sim_s", "s"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `<crate>.<metric>`, in the three groups of the README:
/// counters per untraced rep, the traced pass, and the layer probes.
pub const PER_LAYER: [Metric; 65] = [
    // 1. Counters per rep, read off the public run reports.
    lower("net.msgs", "count"),
    lower("net.bytes", "B"),
    lower("net.retransmits", "count"),
    lower("dsm.read_faults", "count"),
    lower("dsm.write_faults", "count"),
    lower("dsm.page_fetches", "count"),
    lower("dsm.fetch_bytes", "B"),
    lower("dsm.range_fetches", "count"),
    lower("dsm.twins_created", "count"),
    lower("dsm.diffs_sent", "count"),
    lower("dsm.diff_bytes", "B"),
    lower("dsm.diff_batches", "count"),
    lower("dsm.invalidations", "count"),
    lower("dsm.home_migrations", "count"),
    lower("dsm.barriers", "count"),
    lower("dsm.lock_acquires", "count"),
    lower("dsm.serviced_requests", "count"),
    lower("dsm.update_waits", "count"),
    lower("dsm.update_pushes", "count"),
    lower("dsm.prefetch_pages", "count"),
    higher("dsm.prefetch_hits", "count"),
    higher("dsm.prefetch_hit_ratio", "ratio"),
    lower("dsm.checkpoint_bytes", "B"),
    lower("core.comm_share", "ratio"),
    lower("serve.rehomes", "count"),
    lower("serve.attempts_per_job", "ratio"),
    lower("serve.sim_wait_mean_s", "s"),
    lower("serve.sim_job_p50_s", "s"),
    lower("serve.sim_job_p95_s", "s"),
    lower("serve.host_us_per_job", "us"),
    // 2. The traced pass.
    lower("dsm.self_sim_s", "s"),
    lower("dsm.comm_service_sim_s", "s"),
    lower("mpi.self_sim_s", "s"),
    lower("core.self_sim_s", "s"),
    lower("tasks.self_sim_s", "s"),
    lower("tasks.spawned", "count"),
    lower("tasks.stolen", "count"),
    lower("tasks.steal_ratio", "ratio"),
    lower("trace.events", "count"),
    lower("trace.dropped", "count"),
    lower("trace.overhead_ratio", "ratio"),
    lower("translator.parse_s", "s"),
    lower("check.analyze_s", "s"),
    lower("mir.lower_s", "s"),
    lower("translator.emit_s", "s"),
    lower("translator.interp_s", "s"),
    higher("translator.interp_iters_per_s", "1/s"),
    // 3. Layer probes: host ns per call beside a fixed calibration loop.
    lower("host.calib_ns", "ns"),
    lower("dsm.diff_create_sparse_ns", "ns"),
    lower("dsm.diff_create_dense_ns", "ns"),
    lower("dsm.diff_apply_ns", "ns"),
    lower("dsm.diff_codec_ns", "ns"),
    lower("net.pingpong_ns", "ns"),
    lower("net.vbarrier_ns", "ns"),
    lower("mpi.allreduce_ns", "ns"),
    lower("mpi.bcast_ns", "ns"),
    lower("mpi.barrier_ns", "ns"),
    lower("core.shared_get_ns", "ns"),
    lower("core.shared_set_ns", "ns"),
    lower("core.fork_join_ns", "ns"),
    lower("cluster.launch_ns", "ns"),
    lower("tasks.spawn_exec_ns", "ns"),
    lower("kernels.cg_seq_s", "s"),
    lower("kernels.stencil_seq_s", "s"),
    lower("kernels.nbody_seq_s", "s"),
];

pub fn per_layer(name: &str) -> Option<&'static Metric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Numbers the simulator reproduces exactly for one seed and one rep count;
/// `compare` lists them when they differ (it does not fail on them). A change
/// meant only to speed up the simulator must leave all of them alone.
pub const EXPECTED_EXACT: [(&str, &str); 8] = [
    ("stencil_local", "sim_s"),
    ("stencil_local", "net.msgs"),
    ("sync_directives", "sim_s"),
    ("sync_directives", "net.msgs"),
    ("cg_dsm", "net.msgs"),
    ("cg_dsm", "dsm.page_fetches"),
    ("stencil_dsm", "net.msgs"),
    ("stencil_dsm", "dsm.write_faults"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn names_ok(names: &[&str]) {
        let mut seen = std::collections::BTreeSet::new();
        for n in names {
            assert!(seen.insert(*n), "{n} listed twice");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = WORKLOADS.to_vec();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        names_ok(&all);
        for (w, m) in EXPECTED_EXACT {
            assert!(WORKLOADS.contains(&w));
            assert!(per_layer(m).is_some() || END_TO_END.iter().any(|e| e.name == m));
        }
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn table(ms: &[Metric]) -> Vec<(String, String, String)> {
        ms.iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    match m.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    }
                    .to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(listed(&doc, "end_to_end"), table(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), table(&PER_LAYER));
        for m in doc.get("end_to_end").and_then(Value::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
