//! One workload, measured inside its own process.
//!
//! The harness re-executes itself once per workload so that peak RSS,
//! thread-local page-buffer pools and trace sessions do not leak from one
//! workload into the next. The child is confined to one CPU (see `os.rs`),
//! sets up, warms up, runs the timed reps closed-loop from this single thread
//! (the only other threads are the ones the simulated cluster spawns),
//! optionally runs one traced rep, and prints one JSON line. Host times
//! (`wall_s`, `cpu_s`, `setup_s`) are the fastest of their samples;
//! simulated time and counters are medians.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;
use crate::os;
use crate::schema::{self, END_TO_END, WORKLOADS};
use crate::spans::Spans;
use crate::stats::{fastest, median};
use crate::sut;

/// How long to keep measuring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Until this many seconds of timed reps have passed (the driver's
    /// `--seconds`), but never fewer than [`MIN_REPS`].
    Seconds(f64),
    /// Exactly this many timed reps, so that two runs of `run` with one seed
    /// summarise the same reps.
    Reps(usize),
}

#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    pub quick: bool,
}

/// A median over fewer timed reps is not worth bounding.
pub const MIN_REPS: usize = 7;

/// Set-up cycles per run, one before the reps and the others after them;
/// `setup_s` is the fastest. A set-up of milliseconds is cycled further,
/// until [`SETUP_MIN_SECONDS`] have been measured or [`SETUP_MAX_CYCLES`]
/// done.
const SETUP_CYCLES: usize = 3;
const SETUP_MIN_SECONDS: f64 = 0.25;
const SETUP_MAX_CYCLES: usize = 64;

/// Untimed reps between set-up and the first timed rep.
const WARMUP_REPS: usize = 2;

/// Failure messages echoed to stderr per run.
const MAX_FAILURE_LINES: usize = 10;

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM".to_string())
}

fn metric(value: f64, unit: &str, samples: usize) -> Value {
    let mut m = Value::obj();
    m.set("value", value);
    m.set("unit", unit);
    m.set("samples", samples as u64);
    m
}

/// The values of the reps that ran input `k` of `inputs`.
fn of_input(values: &[f64], k: usize, inputs: usize) -> Vec<f64> {
    values.iter().skip(k).step_by(inputs).copied().collect()
}

/// One number for a per-rep series: `summary` over the reps of each input,
/// averaged over the inputs. With one input that is the summary of all
/// reps; with several it does not depend on how often the cycle ran, where
/// a summary of all reps would.
fn typical(values: &[f64], inputs: usize, summary: fn(&[f64]) -> f64) -> f64 {
    let per_input = (0..inputs).map(|k| summary(&of_input(values, k, inputs)));
    per_input.sum::<f64>() / inputs as f64
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    shown: usize,
}

impl Tally {
    fn add(&mut self, workload: &str, out: &sut::RepOutcome) {
        self.attempted += out.ops;
        self.failed += out.failures.len() as u64;
        for why in &out.failures {
            if self.shown < MAX_FAILURE_LINES {
                eprintln!("{workload}: FAILED {why}");
                self.shown += 1;
            }
        }
    }
}

/// Where span files go: `benchmark/out/`, beside the sources.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Measure one workload and return the child's result document.
pub fn run(args: &ChildArgs) -> Result<Value, String> {
    let name = args.workload.as_str();
    let workload_id = WORKLOADS
        .iter()
        .position(|w| *w == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    // Ops of the timed reps, and ops of the warm-up and traced reps: only
    // the first feed `attempted`/`failed`, either makes the run incorrect.
    let mut tally = Tally::default();
    let mut untimed = Tally::default();

    // Set-up: input generation and the single-threaded sequential reference
    // that verification compares against, and nothing else. One cycle now,
    // the others after the reps (below): a burst of interference that covers
    // this one does not cover those.
    let timed_setup = || {
        let t = Instant::now();
        let w = sut::setup(name, args.seed, args.quick);
        let s = t.elapsed().as_secs_f64();
        w.map(|w| (s, w))
            .ok_or_else(|| format!("{name}: set-up failed"))
    };
    let (first, mut workload) = timed_setup()?;
    let mut setup_s = vec![first];
    for index in 0..WARMUP_REPS {
        untimed.add(name, &workload.rep(index, &mut Spans::disabled()));
    }
    let inputs = workload.inputs();

    // Timed reps, tracing off.
    let mut wall_s = Vec::new();
    let mut cpu_s = Vec::new();
    let mut sim_s = Vec::new();
    let mut counters: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let started = Instant::now();
    loop {
        let cpu_before = os::process_cpu_seconds()?;
        let t = Instant::now();
        let out = workload.rep(wall_s.len(), &mut Spans::disabled());
        wall_s.push(t.elapsed().as_secs_f64());
        cpu_s.push(os::process_cpu_seconds()? - cpu_before);
        sim_s.push(out.sim_s);
        for (k, v) in &out.counters {
            counters.entry(k).or_default().push(*v);
        }
        tally.add(name, &out);
        // Never before every input has run once.
        let done = match args.budget {
            Budget::Reps(n) => wall_s.len() >= n,
            Budget::Seconds(s) => started.elapsed().as_secs_f64() >= s && wall_s.len() >= MIN_REPS,
        };
        if done && wall_s.len() >= inputs {
            break;
        }
    }
    let reps = wall_s.len();
    // Read before the traced pass: its rings are not the workload's memory.
    let rss = peak_rss_mb()?;

    let mut per_layer = Value::obj();
    let mut layer = |name: &str, value: f64, samples: usize| {
        let unit = schema::per_layer(name).map_or("", |m| m.unit);
        per_layer.set(name, metric(value, unit, samples));
    };
    for (k, vs) in &counters {
        layer(k, typical(vs, inputs, median), vs.len());
    }
    if let Some((k, v)) = workload.seq_baseline() {
        layer(k, v, 1);
    }

    if args.trace {
        // One extra rep with the product's tracer on and the harness's own
        // spans around every call into a layer. End-to-end numbers never
        // come from this rep; its slowdown is the tracing overhead.
        let mut spans = Spans::enabled();
        let tracing = sut::trace_start();
        if tracing.is_none() {
            eprintln!("{name}: a trace session is already active; traced metrics are zero");
        }
        let t = Instant::now();
        let out = spans.scope("rep", |s| workload.rep(reps, s));
        let traced_wall = t.elapsed().as_secs_f64();
        untimed.add(name, &out);
        for (k, v) in tracing
            .map(|t| t.finish(workload.nodes()))
            .unwrap_or_default()
        {
            layer(k, v, 1);
        }
        // Against the untraced reps of the same input.
        let untraced = median(&of_input(&wall_s, reps % inputs, inputs));
        layer("trace.overhead_ratio", traced_wall / untraced, 1);
        for (k, v) in workload.span_metrics(&spans) {
            layer(k, v, 1);
        }
        let dir = out_dir();
        let path = dir.join(format!("trace_{name}.json"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans.to_json(name, workload_id).pretty()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    // The remaining set-up cycles. The workload goes first, and each cycle's
    // inputs before the next, so that one set of inputs is resident at a time.
    drop(workload);
    while !args.quick
        && setup_s.len() < SETUP_MAX_CYCLES
        && (setup_s.len() < SETUP_CYCLES || setup_s.iter().sum::<f64>() < SETUP_MIN_SECONDS)
    {
        setup_s.push(timed_setup()?.0);
    }

    let mut end_to_end = Value::obj();
    for m in &END_TO_END {
        let (value, samples) = match m.name {
            "wall_s" => (typical(&wall_s, inputs, fastest), reps),
            "cpu_s" => (typical(&cpu_s, inputs, fastest), reps),
            "sim_s" => (typical(&sim_s, inputs, median), reps),
            "setup_s" => (fastest(&setup_s), setup_s.len()),
            "peak_rss_mb" => (rss, 1),
            other => unreachable!("end-to-end metric `{other}` has no source"),
        };
        end_to_end.set(m.name, metric(value, m.unit, samples));
    }

    let mut doc = Value::obj();
    doc.set("workload", name);
    doc.set("correct", tally.failed == 0 && untimed.failed == 0);
    doc.set("attempted", tally.attempted);
    doc.set("failed", tally.failed);
    doc.set("untimed_failed", untimed.failed);
    doc.set("reps", reps as u64);
    doc.set("end_to_end", end_to_end);
    doc.set("per_layer", per_layer);
    Ok(doc)
}

/// The probes, in their own child for the same isolation.
pub fn run_probes(quick: bool) -> Value {
    let mut per_layer = Value::obj();
    for s in crate::probes::run(quick) {
        let unit = schema::per_layer(s.name).map_or("ns", |m| m.unit);
        per_layer.set(s.name, metric(s.ns_per_call, unit, crate::probes::BATCHES));
    }
    let mut doc = Value::obj();
    doc.set("per_layer", per_layer);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb().unwrap() > 1.0);
    }

    #[test]
    fn typical_is_the_mean_of_the_per_input_summaries() {
        assert_eq!(typical(&[3.0, 1.0, 2.0], 1, median), 2.0);
        assert_eq!(typical(&[3.0, 1.0, 2.0], 1, fastest), 1.0);
        // Input 0 ran as reps 0, 2, 4 and input 1 as reps 1, 3.
        let reps = [1.0, 10.0, 2.0, 20.0, 3.0];
        assert_eq!(of_input(&reps, 1, 2), [10.0, 20.0]);
        assert_eq!(typical(&reps, 2, median), (2.0 + 15.0) / 2.0);
        assert_eq!(typical(&reps, 2, fastest), (1.0 + 10.0) / 2.0);
        // One more turn of the cycle with the same values moves nothing.
        assert_eq!(
            typical(&[1.0, 10.0, 1.0, 10.0, 1.0], 2, median),
            typical(&[1.0, 10.0], 2, median)
        );
    }

    #[test]
    fn quick_child_reports_every_end_to_end_metric() {
        let doc = run(&ChildArgs {
            workload: "sync_directives".to_string(),
            seed: 3,
            budget: Budget::Reps(1),
            trace: false,
            quick: true,
        })
        .unwrap();
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        for m in &END_TO_END {
            let v = doc
                .path(&["end_to_end", m.name, "value"])
                .and_then(Value::as_f64);
            assert!(v.is_some_and(|v| v > 0.0), "{}: {v:?}", m.name);
        }
        assert!(doc.path(&["per_layer", "net.msgs", "value"]).is_some());
        assert!(run(&ChildArgs {
            workload: "nope".to_string(),
            seed: 0,
            budget: Budget::Reps(1),
            trace: false,
            quick: true,
        })
        .is_err());
    }
}
