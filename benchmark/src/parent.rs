//! The parent side: spawn one child per workload under a watchdog, merge
//! their results, stamp provenance, print every metric by name and unit.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::child::{Budget, ChildArgs};
use crate::json::{self, Value};
use crate::schema::{END_TO_END, PER_LAYER, WORKLOADS};

/// Product environment switches that would change what is measured: fault
/// injection, the tracer, and the product's own JSON emitters.
const SCRUBBED_ENV: [&str; 4] = [
    "PARADE_CHAOS",
    "PARADE_TRACE",
    "PARADE_STATS_JSON",
    "PARADE_BENCH_JSON",
];

/// A child that has not finished this long after its own time budget is
/// taken to hang; every op it was given counts as failed.
const WATCHDOG_GRACE: Duration = Duration::from_secs(60);

/// The child cannot say how many ops it lost; one failed op marks the run.
fn lost_child(workload: &str, why: &str) -> Value {
    eprintln!("{workload}: child lost: {why}");
    let mut doc = Value::obj();
    doc.set("workload", workload);
    doc.set("correct", false);
    doc.set("attempted", 1u64);
    doc.set("failed", 1u64);
    doc.set("reps", 0u64);
    doc.set("lost", why);
    doc.set("end_to_end", Value::obj());
    doc.set("per_layer", Value::obj());
    doc
}

/// Re-execute this binary with `args`, wait under the watchdog, and parse
/// the last line it printed.
fn spawn(label: &str, args: &[String], budget: Duration) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(args).stdin(Stdio::null()).stdout(Stdio::piped());
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    // Drain the pipe while the child runs so it can never block on a full one.
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let deadline = Instant::now() + budget + WATCHDOG_GRACE;
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break Some(status),
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?;
    let status = status.ok_or_else(|| format!("{label}: killed by the watchdog"))?;
    if !status.success() {
        return Err(format!("{label}: {status}"));
    }
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    json::parse(line).map_err(|e| format!("{label}: {e}"))
}

fn child_cli(a: &ChildArgs) -> (Vec<String>, Duration) {
    let mut v = vec![
        "--child".to_string(),
        a.workload.clone(),
        "--seed".to_string(),
        a.seed.to_string(),
        "--trace".to_string(),
        u8::from(a.trace).to_string(),
    ];
    // Set-up cycles, warm-ups and the traced rep come on top of the timed
    // reps; the watchdog grace covers them.
    let budget = match a.budget {
        Budget::Seconds(s) => {
            v.extend(["--seconds".to_string(), s.to_string()]);
            Duration::from_secs_f64(s * 2.0)
        }
        Budget::Reps(n) => {
            v.extend(["--reps".to_string(), n.to_string()]);
            Duration::from_secs_f64(n as f64 * 2.0)
        }
    };
    if a.quick {
        v.push("--quick".to_string());
    }
    (v, budget)
}

pub fn run_workload(a: &ChildArgs) -> Value {
    let (cli, budget) = child_cli(a);
    spawn(&a.workload, &cli, budget).unwrap_or_else(|why| lost_child(&a.workload, &why))
}

pub fn run_probes(quick: bool) -> Value {
    let mut cli = vec!["--child".to_string(), "probes".to_string()];
    if quick {
        cli.push("--quick".to_string());
    }
    spawn("probes", &cli, Duration::from_secs(30)).unwrap_or_else(|why| lost_child("probes", &why))
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub struct RunArgs {
    pub seed: u64,
    /// Timed reps per workload.
    pub reps: usize,
    pub trace: bool,
    pub quick: bool,
}

/// Run every workload and the probes; return the full result document.
pub fn run_all(a: &RunArgs) -> Value {
    let mut provenance = Value::obj();
    provenance.set("seed", a.seed);
    provenance.set(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as u64,
    );
    provenance.set("rustc", first_line_of("rustc", &["-V"]));
    provenance.set("git_head", first_line_of("git", &["rev-parse", "HEAD"]));
    provenance.set("reps", a.reps as u64);
    provenance.set("trace", a.trace);
    provenance.set("quick", a.quick);

    let mut workloads = Value::obj();
    for name in WORKLOADS {
        eprintln!("running {name} ...");
        let doc = run_workload(&ChildArgs {
            workload: name.to_string(),
            seed: a.seed,
            budget: Budget::Reps(a.reps),
            trace: a.trace,
            quick: a.quick,
        });
        workloads.set(name, doc);
    }
    eprintln!("running probes ...");
    let probes = run_probes(a.quick);

    let mut doc = Value::obj();
    doc.set("schema", "parade-benchmark/1");
    // The smoke mode shrinks every problem: its numbers mean nothing
    // beside a full run's.
    doc.set("comparable", !a.quick);
    doc.set("provenance", provenance);
    doc.set("workloads", workloads);
    doc.set(
        "probes",
        probes.get("per_layer").cloned().unwrap_or_else(Value::obj),
    );
    doc
}

/// Failed ÷ attempted operations of one workload's result.
pub fn fail_share(w: &Value) -> f64 {
    let n = |k| w.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    n("failed") / n("attempted").max(1.0)
}

fn print_metric(name: &str, m: &Value) {
    let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
    let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
    let samples = m.get("samples").and_then(Value::as_f64).unwrap_or(0.0);
    println!("  {name:<34} {value:>16.6} {unit:<6} n={samples}");
}

/// Every metric of a `run` document, by name, with unit and sample count.
pub fn print_table(doc: &Value) {
    let p = |k| {
        doc.path(&["provenance", k])
            .map_or(String::new(), Value::compact)
    };
    println!(
        "parade-benchmark seed={} nproc={} rustc={} git={} comparable={}",
        p("seed"),
        p("nproc"),
        p("rustc"),
        p("git_head"),
        doc.get("comparable").map_or(String::new(), Value::compact),
    );
    for name in WORKLOADS {
        let Some(w) = doc.path(&["workloads", name]) else {
            continue;
        };
        println!(
            "\n{name}: correct={} attempted={} failed={} reps={}",
            w.get("correct").map_or(String::new(), Value::compact),
            w.get("attempted").map_or(String::new(), Value::compact),
            w.get("failed").map_or(String::new(), Value::compact),
            w.get("reps").map_or(String::new(), Value::compact),
        );
        for m in &END_TO_END {
            if let Some(v) = w.path(&["end_to_end", m.name]) {
                print_metric(m.name, v);
            }
        }
        println!(
            "  {:<34} {:>16.6} {:<6}",
            "fail_share",
            fail_share(w),
            "ratio"
        );
        for m in &PER_LAYER {
            if let Some(v) = w.path(&["per_layer", m.name]) {
                print_metric(m.name, v);
            }
        }
    }
    print_probes(doc.get("probes").unwrap_or(&Value::Null));
}

/// The layer probes of a `run` document or of `probes`, by name.
pub fn print_probes(probes: &Value) {
    println!("\nprobes:");
    for m in &PER_LAYER {
        if let Some(v) = probes.get(m.name) {
            print_metric(m.name, v);
        }
    }
}

/// The driver's contract: one workload, one JSON line last on stdout with
/// exactly `correct`, `attempted`, `failed` and `metrics` — every end-to-end
/// metric with `--trace 0`, every per-layer metric with `--trace 1`.
pub fn driver(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let doc = run_workload(&ChildArgs {
        workload: workload.to_string(),
        seed,
        budget: Budget::Seconds(seconds),
        trace,
        quick: false,
    });
    if let Some(why) = doc.get("lost").and_then(Value::as_str) {
        return Err(format!("{workload}: no result: {why}"));
    }
    let mut metrics = Value::obj();
    let mut report = |name: &str, unit: &str, value: f64| {
        let mut o = Value::obj();
        o.set("value", value);
        o.set("unit", unit);
        metrics.set(name, o);
    };
    let mut correct = doc.get("correct").and_then(Value::as_bool).unwrap_or(false);
    if trace {
        let probes = run_probes(false);
        correct &= probes.get("lost").is_none();
        for m in &PER_LAYER {
            // A layer this workload never enters reports zero work.
            let value = [&doc, &probes]
                .iter()
                .find_map(|d| d.path(&["per_layer", m.name, "value"]))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            report(m.name, m.unit, value);
        }
    } else {
        for m in &END_TO_END {
            let value = doc
                .path(&["end_to_end", m.name, "value"])
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{workload}: child reported no `{}`", m.name))?;
            report(m.name, m.unit, value);
        }
    }
    let mut out = Value::obj();
    out.set("correct", correct);
    for k in ["attempted", "failed"] {
        out.set(k, doc.get(k).cloned().unwrap_or(Value::Num(0.0)));
    }
    out.set("metrics", metrics);
    println!("{}", out.compact());
    Ok(())
}
