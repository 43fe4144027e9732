//! Run golden for the interpreter.
//!
//! `tests/corpus/expected_runs.jsonl` holds one line per (program, cluster
//! shape): exit code and exact stdout. It was generated at the commit
//! *before* the interpreter was moved from a name-keyed environment to the
//! symbol-resolved form, so it pins that the rewrite changed no observable
//! behaviour:
//!
//! - every program under `tests/corpus/{clean,conform,racy}` that
//!   `paradec check` lets run, and every `examples/openmp/*.c`, on
//!   1 node × 1 thread; the clean bucket and the examples also on 2 × 2;
//! - three programs carried below that end by printing `omp_get_wtime()`.
//!   Under the manual clock on 1 × 1 that is a deterministic number made of
//!   the runtime calls the program issued (allocations, faults, collectives,
//!   barriers), so it pins that the interpreter issues the same calls in
//!   the same order, not only that it prints the same results.
//!
//! The oracle verdicts of the same corpus are pinned by `check_corpus.rs`.

use std::path::{Path, PathBuf};
use std::time::Duration;

use parade::check::{check_source, has_errors};
use parade::core::Cluster;
use parade::net::TimeSource;
use parade::trace::json_string;
use parade::translator::{parse, Interp};
use parade_testkit::prelude::run_with_timeout;

/// (name in the golden, source). Each ends with its own simulated time.
const TIMED: &[(&str, &str)] = &[
    (
        "timed/reduction_loop",
        r#"
int main() {
    int i;
    double a[512];
    double sum;
    #pragma omp parallel for
    for (i = 0; i < 512; i++) {
        a[i] = 0.25 * i;
    }
    sum = 0.0;
    #pragma omp parallel for reduction(+ : sum)
    for (i = 0; i < 512; i++) {
        sum += a[i] * a[i];
    }
    printf("%.6f\n", sum);
    printf("%.9f\n", omp_get_wtime());
    return 0;
}
"#,
    ),
    (
        "timed/critical_update",
        r#"
int main() {
    int i;
    double total;
    double big[64];
    total = 0.0;
    big[0] = 0.0;
    #pragma omp parallel for
    for (i = 0; i < 32; i++) {
        #pragma omp critical
        {
            total = total + 0.5;
        }
        #pragma omp critical(slots)
        {
            big[0] = big[0] + i;
        }
    }
    printf("%.3f %.1f\n", total, big[0]);
    printf("%.9f\n", omp_get_wtime());
    return 0;
}
"#,
    ),
    (
        "timed/single",
        r#"
int main() {
    double tol;
    double seen;
    double grid[16];
    tol = 0.0;
    seen = 0.0;
    #pragma omp parallel
    {
        #pragma omp single
        {
            tol = 0.125;
        }
        #pragma omp single
        {
            grid[3] = tol * 8.0;
        }
        #pragma omp atomic
        seen += tol + grid[3];
    }
    printf("%.3f %.3f\n", tol, seen);
    printf("%.9f\n", omp_get_wtime());
    return 0;
}
"#,
    ),
];

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn c_files(dir: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(repo().join(dir))
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    files
}

/// One golden line: the program's exit code and stdout (or its runtime
/// error) on `nodes` × `threads`.
fn run_line(name: &str, src: &str, nodes: usize, threads: usize) -> String {
    let prog = parse(src).unwrap_or_else(|e| panic!("{name}: parse error: {e}"));
    let result = run_with_timeout(name, Duration::from_secs(60), move || {
        let cluster = Cluster::builder()
            .nodes(nodes)
            .threads_per_node(threads)
            .time(TimeSource::Manual)
            .build()
            .expect("cluster config");
        Interp::new(prog).run(&cluster)
    });
    let outcome = match result {
        Ok(out) => format!(
            "\"exit\":{},\"stdout\":{}",
            out.exit,
            json_string(&out.stdout)
        ),
        Err(e) => format!("\"error\":{}", json_string(&e.message)),
    };
    format!(
        "{{\"program\":{},\"nodes\":{nodes},\"threads\":{threads},{outcome}}}\n",
        json_string(name)
    )
}

#[test]
fn corpus_and_example_runs_match_the_frozen_golden() {
    let mut got = String::new();
    for dir in [
        "tests/corpus/clean",
        "tests/corpus/conform",
        "tests/corpus/racy",
        "examples/openmp",
    ] {
        for f in c_files(dir) {
            let name = format!("{dir}/{}", f.file_name().unwrap().to_string_lossy());
            let src = std::fs::read_to_string(&f).expect("read program");
            let diags = check_source(&src).unwrap_or_else(|e| panic!("{name}: parse error: {e}"));
            if has_errors(&diags) {
                continue; // `paradec run` refuses it
            }
            got.push_str(&run_line(&name, &src, 1, 1));
            if matches!(dir, "tests/corpus/clean" | "examples/openmp") {
                got.push_str(&run_line(&name, &src, 2, 2));
            }
        }
    }
    for (name, src) in TIMED {
        got.push_str(&run_line(name, src, 1, 1));
    }
    let want = std::fs::read_to_string(repo().join("tests/corpus/expected_runs.jsonl"))
        .expect("read run golden");
    assert_eq!(got, want, "interpreter runs drifted from the frozen golden");
}
