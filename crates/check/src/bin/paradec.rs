//! `paradec` — the ParADE OpenMP translator CLI.
//!
//! ```text
//! paradec check <file.c> [--json] [--trace FILE]
//! paradec translate <file.c> [--mode parade|sdsm] [--threshold N] [--no-check]
//! paradec run <file.c> [--nodes N] [--threads T] [--mode parade|sdsm]
//!                      [--trace FILE] [--oracle] [--no-check]
//! ```
//!
//! `check` runs the static analyzer and prints its diagnostics; any
//! `error[PCnnn]` makes it exit non-zero. The analyzer lowers to MIR and
//! runs the dataflow-based lints (PC001–PC009); `--json` prints one JSON
//! object per diagnostic on stdout. `translate` prints the translated C
//! source (Figures 2/3 style) and `run` interprets the program on a
//! simulated cluster — both run the analyzer first and refuse programs
//! with errors unless `--no-check` is given. `run --oracle` additionally
//! enables the happens-before race oracle inside the interpreter and
//! reports any data races the execution actually exhibited.

use parade_check::{check_program, has_errors, Severity};
use parade_core::{Cluster, NetProfile, ProtocolMode};
use parade_translator::emit::{translate, EmitMode};
use parade_translator::interp::Interp;
use parade_translator::parser::parse;

fn usage() -> ! {
    eprintln!(
        "usage:\n  paradec check <file.c> [--json] [--trace FILE]\n  \
         paradec translate <file.c> [--mode parade|sdsm] [--threshold N] [--no-check]\n  \
         paradec run <file.c> [--nodes N] [--threads T] [--mode parade|sdsm] [--trace FILE] [--oracle] [--no-check]\n\
  --json:       print one JSON object per diagnostic on stdout\n\
  --trace FILE: record the run (or `check` analysis) and write a Chrome\n\
                trace_event file (open in chrome://tracing or Perfetto);\n\
                for `run`, same as PARADE_TRACE=FILE\n\
  --oracle:     detect data races at runtime (vector-clock happens-before)\n\
  --no-check:   skip the static analyzer gate before translate/run"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    let cmd = args[0].as_str();
    let file = &args[1];
    let mut mode = "parade".to_string();
    let mut nodes = 2usize;
    let mut threads = 2usize;
    let mut threshold = parade_translator::analysis::DEFAULT_SMALL_THRESHOLD;
    let mut trace_path: Option<String> = None;
    let mut oracle = false;
    let mut no_check = false;
    let mut json = false;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--mode" => {
                i += 1;
                mode = args.get(i).unwrap_or_else(|| usage()).clone();
            }
            "--nodes" => {
                i += 1;
                nodes = args
                    .get(i)
                    .unwrap_or_else(|| usage())
                    .parse()
                    .expect("bad --nodes");
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .unwrap_or_else(|| usage())
                    .parse()
                    .expect("bad --threads");
            }
            "--trace" => {
                i += 1;
                trace_path = Some(args.get(i).unwrap_or_else(|| usage()).clone());
            }
            "--threshold" => {
                i += 1;
                threshold = args
                    .get(i)
                    .unwrap_or_else(|| usage())
                    .parse()
                    .expect("bad --threshold");
            }
            "--oracle" => oracle = true,
            "--no-check" => no_check = true,
            "--json" => json = true,
            _ => usage(),
        }
        i += 1;
    }

    let src = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("paradec: cannot read {file}: {e}");
        std::process::exit(1);
    });
    let prog = match parse(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("paradec: {file}: {e}");
            std::process::exit(1);
        }
    };

    // The analyzer gates everything; `--no-check` demotes a failing gate to
    // a warning so known-racy programs can still be run (e.g. to watch the
    // oracle catch them).
    if cmd == "check" || !no_check {
        // `check --trace` records the analyzer's own `check.analyze` spans
        // (MIR lowering plus each dataflow pass) in its own session; `run`
        // instead hands the path to the runtime via PARADE_TRACE above.
        let session = if cmd == "check" && trace_path.is_some() {
            parade_trace::start(parade_trace::TraceConfig::from_env())
        } else {
            None
        };
        let diags = check_program(&prog);
        if let Some(session) = session {
            let path = trace_path.as_ref().expect("trace path");
            let data = session.finish();
            if let Err(e) = std::fs::write(path, data.chrome_json()) {
                eprintln!("paradec: cannot write trace {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("[paradec] trace written to {path}");
        }
        if json {
            for d in &diags {
                println!("{}", d.render_json(file));
            }
        } else {
            for d in &diags {
                eprintln!("{}", d.render(file));
            }
        }
        let errors = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let warnings = diags.len() - errors;
        if cmd == "check" {
            if diags.is_empty() {
                if !json {
                    println!(
                        "{file}: ok ({} top-level items, {} includes)",
                        prog.items.len(),
                        prog.includes.len()
                    );
                }
            } else {
                eprintln!("{file}: {errors} error(s), {warnings} warning(s)");
            }
            std::process::exit(if has_errors(&diags) { 1 } else { 0 });
        }
        if has_errors(&diags) {
            eprintln!(
                "paradec: {file}: {errors} error(s) from `paradec check`; \
                 pass --no-check to {cmd} anyway"
            );
            std::process::exit(1);
        }
    }

    match cmd {
        "translate" => {
            let emit_mode = match mode.as_str() {
                "sdsm" => EmitMode::Sdsm,
                _ => EmitMode::Parade,
            };
            match translate(&prog, emit_mode, threshold) {
                Ok(out) => print!("{out}"),
                Err(e) => {
                    eprintln!("paradec: {file}: {e}");
                    std::process::exit(1);
                }
            }
        }
        "run" => {
            if let Some(path) = &trace_path {
                // The runtime reads this when the cluster launches.
                std::env::set_var("PARADE_TRACE", path);
            }
            let protocol = match mode.as_str() {
                "sdsm" => ProtocolMode::SdsmOnly,
                _ => ProtocolMode::Parade,
            };
            let cluster = Cluster::builder()
                .nodes(nodes)
                .threads_per_node(threads)
                .protocol(protocol)
                .net(NetProfile::clan_via())
                .build()
                .expect("cluster config");
            let mut interp = Interp::new(prog).with_threshold(threshold);
            if oracle {
                interp = interp.with_oracle();
            }
            match interp.run(&cluster) {
                Ok(out) => {
                    print!("{}", out.stdout);
                    if let Some(path) = &trace_path {
                        eprintln!("[paradec] trace written to {path}");
                    }
                    for r in &out.races {
                        eprintln!("[paradec] race: {r}");
                    }
                    if oracle && out.races.is_empty() {
                        eprintln!("[paradec] oracle: no data races observed");
                    }
                    eprintln!("[paradec] exit code {}", out.exit);
                    let code = if out.exit != 0 {
                        out.exit as i32
                    } else if out.races.is_empty() {
                        0
                    } else {
                        1
                    };
                    std::process::exit(code);
                }
                Err(e) => {
                    eprintln!("paradec: {file}: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    }
}
