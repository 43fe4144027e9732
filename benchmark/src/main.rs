//! The ParADE benchmark.
//!
//! ```text
//! parade-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line (BENCHMARK.json's command)
//! parade-benchmark run [--seed N] [--trace] [--quick] [--out FILE]
//! parade-benchmark probes [--quick]
//! parade-benchmark compare A.json B.json
//! ```
//!
//! See `benchmark/README.md` for what each workload and metric is for.

mod child;
mod compare;
mod gen;
mod json;
mod os;
mod parent;
mod probes;
mod schema;
mod spans;
mod stats;
mod sut;

use std::process::ExitCode;

use child::{Budget, ChildArgs};
use json::Value;

const USAGE: &str = "usage:
  parade-benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>
  parade-benchmark run [--seed <u64>] [--trace] [--quick] [--out <file>]
  parade-benchmark probes [--quick]
  parade-benchmark compare <a.json> <b.json>";

/// Timed reps per workload of `run`: fixed, so that two runs with one seed
/// summarise the same reps. The smoke mode does one.
const RUN_REPS: usize = 10;

/// Command line: positionals, `--key value` options and bare `--flag`s.
struct Cli {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Cli {
        let mut cli = Cli {
            positional: Vec::new(),
            options: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.strip_prefix("--") {
                Some(key) => {
                    let value = args.next_if(|v| !v.starts_with("--"));
                    cli.options.push((key.to_string(), value));
                }
                None => cli.positional.push(a),
            }
        }
        cli
    }

    fn value(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    /// `--key`, `--key 1` and `--key true` are on; absent or `--key 0` is off.
    fn flag(&self, key: &str) -> bool {
        self.options
            .iter()
            .any(|(k, v)| k == key && !matches!(v.as_deref(), Some("0" | "false")))
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.value(key)
            .map(|v| v.parse().map_err(|_| format!("--{key}: cannot read `{v}`")))
            .transpose()
    }

    /// Refuse an option this form of the command does not take.
    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .options
            .iter()
            .find(|(k, _)| !allowed.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option --{k}\n{USAGE}")),
            None => Ok(()),
        }
    }

    /// `--seconds <s>` of the driver's form and of the internal child.
    fn seconds(&self) -> Result<Option<f64>, String> {
        match self.number::<f64>("seconds")? {
            Some(s) if !(s > 0.0 && s <= 600.0) => Err(format!("--seconds: {s} is out of range")),
            s => Ok(s),
        }
    }
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<ExitCode, String> {
    let cli = Cli::parse(std::env::args().skip(1));
    let seed = cli.number::<u64>("seed")?.unwrap_or(1);
    let quick = cli.flag("quick");

    // Internal: one workload (or the probes) measured in this process.
    if let Some(name) = cli.value("child") {
        cli.only(&["child", "seed", "seconds", "reps", "trace", "quick"])?;
        // Before the first thread is spawned: host times are those of one CPU.
        os::pin_to_one_cpu()?;
        let doc = if name == "probes" {
            child::run_probes(quick)
        } else {
            child::run(&ChildArgs {
                workload: name.to_string(),
                seed,
                budget: match (cli.seconds()?, cli.number::<usize>("reps")?) {
                    (Some(s), _) => Budget::Seconds(s),
                    (None, Some(n)) => Budget::Reps(n),
                    (None, None) => return Err("--child needs --seconds or --reps".to_string()),
                },
                trace: cli.flag("trace"),
                quick,
            })?
        };
        println!("{}", doc.compact());
        return Ok(ExitCode::SUCCESS);
    }

    // The driver's contract.
    if let Some(workload) = cli.value("workload") {
        cli.only(&["workload", "seed", "seconds", "trace"])?;
        let seconds = cli.seconds()?.ok_or("--workload needs --seconds")?;
        parent::driver(workload, seed, seconds, cli.flag("trace"))?;
        return Ok(ExitCode::SUCCESS);
    }

    match cli.positional.first().map(String::as_str) {
        Some("run") => {
            cli.only(&["seed", "trace", "quick", "out"])?;
            let doc = parent::run_all(&parent::RunArgs {
                seed,
                reps: if quick { 1 } else { RUN_REPS },
                trace: cli.flag("trace"),
                quick,
            });
            parent::print_table(&doc);
            let path = match cli.value("out") {
                Some(p) => std::path::PathBuf::from(p),
                None => child::out_dir().join(format!("run_{seed}.json")),
            };
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("\nwrote {}", path.display());
            let all_correct = doc.get("workloads").is_some_and(|w| {
                w.fields()
                    .iter()
                    .all(|(_, d)| d.get("correct").and_then(Value::as_bool) == Some(true))
            });
            Ok(if all_correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("probes") => {
            cli.only(&["quick"])?;
            let doc = parent::run_probes(quick);
            if let Some(why) = doc.get("lost").and_then(Value::as_str) {
                return Err(format!("probes: {why}"));
            }
            parent::print_probes(doc.get("per_layer").unwrap_or(&Value::Null));
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => {
            cli.only(&[])?;
            let [_, a, b] = cli.positional.as_slice() else {
                return Err(format!("compare takes two files\n{USAGE}"));
            };
            let benchmark = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
            let out = compare::compare(&read_json(a)?, &read_json(b)?, &read_json(benchmark)?)?;
            print!("{}", out.report);
            Ok(if out.passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|why| {
        eprintln!("{why}");
        ExitCode::from(2)
    })
}
