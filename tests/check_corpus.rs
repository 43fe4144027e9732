//! Static-vs-dynamic agreement on the analyzer corpus.
//!
//! `tests/corpus/` holds three buckets of small OpenMP programs:
//!
//! - `racy/` — programs with real data races. The static analyzer must
//!   report at least one error, AND the interpreter's happens-before
//!   oracle must observe a race when the program actually runs. Because
//!   the oracle is vector-clock based, detection does not depend on the
//!   scheduler exhibiting the bad interleaving — the absence of a
//!   happens-before edge is enough.
//! - `clean/` — correct programs. The analyzer must stay silent and the
//!   oracle must observe nothing over repeated runs.
//! - `conform/` — programs the analyzer must flag but that are not
//!   oracle-checkable: reduction/privatization misuse the runtime
//!   privatizes away, barrier divergence that would deadlock a real run,
//!   and structural errors the interpreter rejects outright. These are
//!   checked statically only.
//!
//! Together the buckets pin the contract from `ISSUE`/DESIGN: no static
//! false negatives on racy programs, no static noise on clean ones, and
//! the documented false-positive budget lives entirely in `conform/`.

use std::path::{Path, PathBuf};
use std::time::Duration;

use parade::check::{check_source, has_errors, LintId};
use parade::core::Cluster;
use parade::net::TimeSource;
use parade::prelude::*;
use parade::translator::{parse, Interp, RunOutput};
use parade_testkit::prelude::run_with_timeout;

fn corpus_dir(bucket: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(bucket)
}

fn corpus_files(bucket: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir(bucket))
        .expect("corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "empty corpus bucket {bucket}");
    files
}

fn cluster() -> Cluster {
    Cluster::builder()
        .nodes(2)
        .threads_per_node(2)
        .protocol(ProtocolMode::Parade)
        .net(NetProfile::zero())
        .time(TimeSource::Manual)
        .build()
        .expect("cluster config")
}

fn run_with_oracle(name: &str, src: &str) -> RunOutput {
    let prog = parse(src).unwrap_or_else(|e| panic!("{name}: parse error: {e}"));
    let name = name.to_string();
    run_with_timeout(&name.clone(), Duration::from_secs(60), move || {
        let c = cluster();
        Interp::new(prog)
            .with_oracle()
            .run(&c)
            .unwrap_or_else(|e| panic!("{name}: runtime error: {e}"))
    })
}

#[test]
fn racy_programs_flagged_by_both_static_pass_and_oracle() {
    for f in corpus_files("racy") {
        let name = f.file_name().unwrap().to_string_lossy().to_string();
        let src = std::fs::read_to_string(&f).expect("read corpus file");
        let diags = check_source(&src).unwrap_or_else(|e| panic!("{name}: parse error: {e}"));
        assert!(
            has_errors(&diags),
            "{name}: static pass missed the race (diags: {diags:?})"
        );
        let out = run_with_oracle(&name, &src);
        assert_eq!(out.exit, 0, "{name}: program failed: {}", out.stdout);
        assert!(
            !out.races.is_empty(),
            "{name}: happens-before oracle observed no race"
        );
    }
}

#[test]
fn clean_programs_pass_both_static_pass_and_oracle() {
    for f in corpus_files("clean") {
        let name = f.file_name().unwrap().to_string_lossy().to_string();
        let src = std::fs::read_to_string(&f).expect("read corpus file");
        let diags = check_source(&src).unwrap_or_else(|e| panic!("{name}: parse error: {e}"));
        assert!(diags.is_empty(), "{name}: static false positive: {diags:?}");
        for trial in 0..3 {
            let out = run_with_oracle(&name, &src);
            assert_eq!(out.exit, 0, "{name}: program failed: {}", out.stdout);
            assert!(
                out.races.is_empty(),
                "{name} (trial {trial}): oracle false positive: {:?}",
                out.races
            );
        }
    }
}

#[test]
fn conform_programs_flagged_statically() {
    // file -> the lint that must appear (other lints may ride along).
    let expect: &[(&str, LintId)] = &[
        ("barrier_in_single.c", LintId::BarrierPlacement),
        ("barrier_thread_dep.c", LintId::BarrierDivergence),
        ("barrier_in_for.c", LintId::BarrierPlacement),
        ("reduction_wrong_op.c", LintId::ReductionMisuse),
        ("reduction_read_outside.c", LintId::ReductionMisuse),
        ("private_uninit.c", LintId::PrivateUninitRead),
        ("orphan_for.c", LintId::DirectiveStructure),
        ("nested_parallel.c", LintId::DirectiveStructure),
        ("non_canonical.c", LintId::DirectiveStructure),
        ("bad_atomic.c", LintId::DirectiveStructure),
        ("unknown_clause_var.c", LintId::DirectiveStructure),
        ("barrier_divergent_break.c", LintId::BarrierDivergence),
    ];
    let files = corpus_files("conform");
    assert_eq!(
        files.len(),
        expect.len(),
        "conform bucket and expectation table out of sync"
    );
    for f in &files {
        let name = f.file_name().unwrap().to_string_lossy().to_string();
        let src = std::fs::read_to_string(f).expect("read corpus file");
        let diags = check_source(&src).unwrap_or_else(|e| panic!("{name}: parse error: {e}"));
        let want = expect
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name}: not in expectation table"))
            .1;
        assert!(
            diags.iter().any(|d| d.lint == want),
            "{name}: expected {} among {diags:?}",
            want.code()
        );
    }
}

#[test]
fn whole_corpus_diagnostics_match_the_frozen_golden() {
    // `expected_diagnostics.jsonl` holds, per program (a `# <path>` line,
    // buckets and files in sorted order), the exact `paradec check --json`
    // lines — spans, messages and order — frozen at the commit where the
    // MIR analyzer and the since-deleted lexical AST analyzer still agreed
    // byte-for-byte on PC001-PC007 (PC009 is MIR's own).
    let mut got = String::new();
    for bucket in ["clean", "conform", "racy"] {
        for f in corpus_files(bucket) {
            let name = f.file_name().unwrap().to_string_lossy();
            let path = format!("tests/corpus/{bucket}/{name}");
            let src = std::fs::read_to_string(&f).expect("read corpus file");
            got.push_str(&format!("# {path}\n"));
            for d in check_source(&src).unwrap_or_else(|e| panic!("{path}: parse error: {e}")) {
                got.push_str(&d.render_json(&path));
                got.push('\n');
            }
        }
    }
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/expected_diagnostics.jsonl");
    let want = std::fs::read_to_string(golden).expect("read corpus golden");
    assert_eq!(
        got, want,
        "corpus diagnostics drifted from the frozen golden"
    );
}

#[test]
fn racy_verdicts_survive_repeated_runs() {
    // The oracle is happens-before based, so a race must be reported on
    // EVERY run, not just unlucky interleavings. Spot-check the two
    // subtlest programs.
    for name in ["nowait_read.c", "loop_carried.c"] {
        let path = corpus_dir("racy").join(name);
        let src = std::fs::read_to_string(&path).expect("read corpus file");
        for trial in 0..3 {
            let out = run_with_oracle(name, &src);
            assert!(
                !out.races.is_empty(),
                "{name} (trial {trial}): oracle missed the race"
            );
        }
    }
}
