//! `compare <a.json> <b.json>`: is run B worse than run A beyond the bounds?
//!
//! One row per workload × end-to-end metric with both values, the relative
//! difference and the bound `BENCHMARK.json` fixed. A row fails when B is
//! worse than A by more than its bound, or when a workload's fail share
//! rose. Counters the simulator must reproduce exactly are listed when they
//! differ, and do not fail the compare: they call for an explanation, not a
//! rejection.

use crate::json::Value;
use crate::parent::fail_share;
use crate::schema::{Better, END_TO_END, EXPECTED_EXACT, WORKLOADS};

pub struct Outcome {
    pub report: String,
    pub passed: bool,
}

/// The bound of every end-to-end metric, from `BENCHMARK.json`.
fn bounds(benchmark: &Value) -> Result<Vec<f64>, String> {
    let listed = benchmark
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no `end_to_end` list")?;
    END_TO_END
        .iter()
        .map(|m| {
            listed
                .iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some(m.name))
                .and_then(|e| e.get("bound"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("BENCHMARK.json: no bound for `{}`", m.name))
        })
        .collect()
}

fn value_of(run: &Value, workload: &str, metric: &str) -> Option<f64> {
    let w = run.path(&["workloads", workload])?;
    ["end_to_end", "per_layer"]
        .iter()
        .find_map(|group| w.path(&[group, metric, "value"]))
        .and_then(Value::as_f64)
}

pub fn compare(a: &Value, b: &Value, benchmark: &Value) -> Result<Outcome, String> {
    let bounds = bounds(benchmark)?;
    // The seed picks inputs (job mix, corpus, particles, stencil rows), so
    // runs of two seeds measure two problems.
    let seed = |run: &Value| run.path(&["provenance", "seed"]).and_then(Value::as_f64);
    if let (Some(sa), Some(sb)) = (seed(a), seed(b)) {
        if sa != sb {
            return Err(format!(
                "the runs have different seeds ({sa} and {sb}): not comparable"
            ));
        }
    }
    let mut report = String::new();
    let mut passed = true;
    for run in [a, b] {
        if run.get("comparable").and_then(Value::as_bool) != Some(true) {
            report.push_str("note: a run is marked \"comparable\": false (smoke mode)\n");
        }
    }
    report.push_str(&format!(
        "{:<17} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "a", "b", "rel.diff", "bound"
    ));
    for workload in WORKLOADS {
        for (m, bound) in END_TO_END.iter().zip(&bounds) {
            let row = match (value_of(a, workload, m.name), value_of(b, workload, m.name)) {
                (Some(va), Some(vb)) => {
                    let rel = (vb - va) / va.abs().max(f64::MIN_POSITIVE);
                    let worse = match m.better {
                        Better::Lower => rel,
                        Better::Higher => -rel,
                    };
                    let ok = worse <= *bound;
                    passed &= ok;
                    format!(
                        "{workload:<17} {:<12} {va:>14.6} {vb:>14.6} {:>+8.2}% {:>6.0}%  {}\n",
                        m.name,
                        rel * 100.0,
                        bound * 100.0,
                        if ok { "ok" } else { "WORSE" },
                    )
                }
                _ => {
                    passed = false;
                    format!(
                        "{workload:<17} {:<12} missing from a run  MISSING\n",
                        m.name
                    )
                }
            };
            report.push_str(&row);
        }
        let share = |run: &Value| run.path(&["workloads", workload]).map_or(1.0, fail_share);
        let (fa, fb) = (share(a), share(b));
        // Bound absolute 0: any rise fails.
        let ok = fb <= fa;
        passed &= ok;
        report.push_str(&format!(
            "{workload:<17} {:<12} {fa:>14.6} {fb:>14.6} {:>9} {:>7}  {}\n",
            "fail_share",
            "",
            "0",
            if ok { "ok" } else { "ROSE" },
        ));
    }
    let drifted: Vec<String> = EXPECTED_EXACT
        .iter()
        .filter_map(|(w, m)| {
            let (va, vb) = (value_of(a, w, m)?, value_of(b, w, m)?);
            (va != vb).then(|| format!("  {w} {m}: {va} vs {vb}\n"))
        })
        .collect();
    if !drifted.is_empty() {
        report.push_str("expected exact, but differ (does not fail the compare):\n");
        report.extend(drifted);
    }
    report.push_str(if passed {
        "compare: every metric within its bound\n"
    } else {
        "compare: FAILED\n"
    });
    Ok(Outcome { report, passed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark() -> Value {
        let list = END_TO_END
            .iter()
            .map(|m| {
                let mut o = Value::obj();
                o.set("name", m.name);
                o.set("bound", 0.1);
                o
            })
            .collect();
        let mut doc = Value::obj();
        doc.set("end_to_end", Value::Arr(list));
        doc
    }

    /// A run where every end-to-end metric of every workload reads `v`.
    fn run(v: f64, failed: u64) -> Value {
        let mut workloads = Value::obj();
        for w in WORKLOADS {
            let mut e2e = Value::obj();
            for m in &END_TO_END {
                let mut o = Value::obj();
                o.set("value", v);
                e2e.set(m.name, o);
            }
            let mut msgs = Value::obj();
            msgs.set("value", 406.0);
            let mut layer = Value::obj();
            layer.set("net.msgs", msgs);
            let mut doc = Value::obj();
            doc.set("attempted", 10u64);
            doc.set("failed", failed);
            doc.set("end_to_end", e2e);
            doc.set("per_layer", layer);
            workloads.set(w, doc);
        }
        let mut doc = Value::obj();
        doc.set("comparable", true);
        doc.set("workloads", workloads);
        doc
    }

    /// Overwrite `workloads.<w>.<group>.<metric>.value`.
    fn set(run: &mut Value, path: [&str; 3], v: f64) {
        let mut cur = run;
        for key in ["workloads"].into_iter().chain(path) {
            let Value::Obj(fields) = cur else {
                unreachable!()
            };
            cur = &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1;
        }
        cur.set("value", v);
    }

    #[test]
    fn within_the_bound_passes_and_better_always_passes() {
        let a = run(1.0, 0);
        assert!(compare(&a, &run(1.09, 0), &benchmark()).unwrap().passed);
        assert!(compare(&a, &run(0.5, 0), &benchmark()).unwrap().passed);
    }

    #[test]
    fn one_metric_beyond_its_bound_fails() {
        let a = run(1.0, 0);
        let mut b = run(1.0, 0);
        set(&mut b, ["task_nbody", "end_to_end", "cpu_s"], 1.2);
        let out = compare(&a, &b, &benchmark()).unwrap();
        assert!(!out.passed);
        assert_eq!(out.report.matches("WORSE").count(), 1, "{}", out.report);
    }

    #[test]
    fn a_risen_fail_share_fails_even_when_times_improve() {
        let out = compare(&run(1.0, 0), &run(0.9, 1), &benchmark()).unwrap();
        assert!(!out.passed);
        assert!(out.report.contains("ROSE"));
        // Already failing before and no worse now: not this change's fault.
        assert!(
            compare(&run(1.0, 1), &run(1.0, 1), &benchmark())
                .unwrap()
                .passed
        );
    }

    #[test]
    fn exact_counters_are_listed_but_do_not_fail() {
        let a = run(1.0, 0);
        let mut b = run(1.0, 0);
        set(&mut b, ["stencil_local", "per_layer", "net.msgs"], 407.0);
        let out = compare(&a, &b, &benchmark()).unwrap();
        assert!(out.passed);
        assert!(out.report.contains("stencil_local net.msgs: 406 vs 407"));
    }

    #[test]
    fn runs_of_different_seeds_are_refused() {
        let with_seed = |seed: u64| {
            let mut provenance = Value::obj();
            provenance.set("seed", seed);
            let mut doc = run(1.0, 0);
            doc.set("provenance", provenance);
            doc
        };
        assert!(compare(&with_seed(1), &with_seed(1), &benchmark()).is_ok());
        assert!(compare(&with_seed(1), &with_seed(2), &benchmark()).is_err());
    }

    #[test]
    fn a_missing_metric_or_bound_is_reported() {
        let a = run(1.0, 0);
        let mut b = run(1.0, 0);
        b.set("workloads", Value::obj());
        assert!(!compare(&a, &b, &benchmark()).unwrap().passed);
        assert!(compare(&a, &a, &Value::obj()).is_err());
    }
}
