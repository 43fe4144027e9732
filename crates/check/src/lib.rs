//! # parade-check — static OpenMP race & conformance analyzer
//!
//! A lint pass over the translator's lowered MIR that runs before the program ever
//! touches the simulated cluster (`paradec check`, and automatically ahead
//! of `paradec run`/`translate`). The ParADE paper's translator decides
//! *how* to lower each directive (collective vs lock, §4.2/§5.2.1); this
//! crate decides whether the program *means* anything under the OpenMP
//! relaxed-consistency contract at all — unsynchronized shared writes,
//! loop-carried dependences under `omp for`, misused reductions, misplaced
//! barriers (PC004, structural) and barriers the team can disagree on
//! reaching (PC009, from `parade_mir::divergent_blocks` alone), and
//! structural misuse the runtime would reject.
//!
//! Every diagnostic carries a stable lint id (`PC001`–`PC009`), a severity,
//! and the source span of the offending construct:
//!
//! ```text
//! examples/racy.c:9:5: error[PC001]: unsynchronized write to shared variable `sum` …
//! ```
//!
//! The static verdicts are cross-checked dynamically by the happens-before
//! oracle in `parade_translator::oracle` (FastTrack-style vector-clock race
//! detection inside the interpreter); `tests/check_corpus.rs` at the
//! workspace root asserts the two agree on a corpus of small OpenMP
//! programs.

pub mod diag;
mod mir_lints;
mod region;

pub use diag::{has_errors, sort_diags, Diag, LintId, Severity};

use parade_mir::{lower_program, span_arg, vt_now};
use parade_trace::EventKind;
use parade_translator::analysis::{only_main_may_hold_directives, Symbols};
use parade_translator::ast::*;
use parade_translator::{parse, ParseError};

/// Parse and check; parse errors are returned, not converted to lints.
pub fn check_source(src: &str) -> Result<Vec<Diag>, ParseError> {
    Ok(check_program(&parse(src)?))
}

/// The analyzer: lower to MIR and replay the detectors from the marker
/// stream, plus the flow-sensitive PC009. Diagnostics come back
/// sorted by source position, duplicates removed.
pub fn check_program(prog: &Program) -> Vec<Diag> {
    parade_trace::begin_arg(EventKind::CheckAnalyze, span_arg::LOWER, vt_now());
    let funcs = lower_program(prog);
    parade_trace::end(EventKind::CheckAnalyze, vt_now());
    let mut diags = Vec::new();
    for f in &funcs {
        mir_lints::check_func(f, &mut diags);
    }
    // The translator subset, in the words the executor and the C printer
    // refuse it with.
    for item in &prog.items {
        let Item::Func(f) = item else { continue };
        if let (true, Some(span)) = (f.name != "main", f.body.first_directive()) {
            let why = only_main_may_hold_directives(&f.name);
            diags.push(Diag::new(LintId::DirectiveStructure, span, why));
        }
    }
    sort_diags(&mut diags);
    diags
}

pub(crate) fn kind_name(k: &DirKind) -> &'static str {
    match k {
        DirKind::Parallel => "parallel",
        DirKind::For => "for",
        DirKind::ParallelFor => "parallel for",
        DirKind::Critical(_) => "critical",
        DirKind::Atomic => "atomic",
        DirKind::Single => "single",
        DirKind::Master => "master",
        DirKind::Barrier => "barrier",
    }
}

/// PC007: every variable named in a data-scoping clause must resolve to a
/// declaration, and reduction variables must be scalars.
pub(crate) fn check_clause_vars(dir: &Directive, syms: &Symbols, diags: &mut Vec<Diag>) {
    for c in &dir.clauses {
        let (vars, clause): (&Vec<String>, &str) = match c {
            Clause::Private(v) => (v, "private"),
            Clause::Shared(v) => (v, "shared"),
            Clause::FirstPrivate(v) => (v, "firstprivate"),
            Clause::LastPrivate(v) => (v, "lastprivate"),
            Clause::Reduction(_, v) => (v, "reduction"),
            _ => continue,
        };
        for name in vars {
            match syms.get(name) {
                None => diags.push(Diag::new(
                    LintId::DirectiveStructure,
                    dir.span,
                    format!("unknown variable `{name}` in `{clause}` clause"),
                )),
                Some(d) if clause == "reduction" && d.is_array() => {
                    diags.push(Diag::new(
                        LintId::DirectiveStructure,
                        dir.span,
                        format!("reduction variable `{name}` must be a scalar"),
                    ));
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<&'static str> {
        let mut c: Vec<&'static str> = check_source(src)
            .expect("parse")
            .iter()
            .map(|d| d.lint.code())
            .collect();
        c.dedup();
        c
    }

    /// A directive in a helper function gets one verdict: `check` reports
    /// PC007 at it, and `translate` and the executor refuse the program in
    /// the same words.
    #[test]
    fn check_translate_and_run_refuse_a_directive_outside_main_alike() {
        use parade_core::{Cluster, NetProfile, TimeSource};
        use parade_translator::analysis::only_main_may_hold_directives;
        use parade_translator::{translate_default, EmitMode, Interp};

        let src = r#"
void f() {
    double s = 0.0;
    #pragma omp parallel
    {
        #pragma omp critical
        { s += 1.0; }
    }
}
int main() {
    f();
    return 0;
}
"#;
        let want = only_main_may_hold_directives("f");
        let diags = check_source(src).unwrap();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(
            (
                diags[0].lint.code(),
                diags[0].span.line,
                diags[0].message.as_str()
            ),
            ("PC007", 4, want.as_str())
        );
        let prog = parse(src).unwrap();
        for mode in [EmitMode::Parade, EmitMode::Sdsm] {
            let e = translate_default(&prog, mode).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (4, want.as_str()));
        }
        let cluster = Cluster::builder()
            .nodes(2)
            .threads_per_node(2)
            .net(NetProfile::zero())
            .time(TimeSource::Manual)
            .build()
            .unwrap();
        let e = Interp::new(prog).run(&cluster).unwrap_err();
        assert_eq!(e.message, want);
    }

    #[test]
    fn clean_reduction_loop_has_no_diags() {
        let src = r#"
int main() {
    int i; double sum; double a[64];
    sum = 0.0;
    #pragma omp parallel for reduction(+ : sum)
    for (i = 0; i < 64; i++) sum += a[i];
    return 0;
}
"#;
        assert!(codes(src).is_empty(), "{:?}", check_source(src).unwrap());
    }

    #[test]
    fn pc001_shared_scalar_write() {
        let src = r#"
int main() {
    int i; double t; double a[64];
    #pragma omp parallel for
    for (i = 0; i < 64; i++) { t = a[i]; a[i] = t * 2.0; }
    return 0;
}
"#;
        assert_eq!(codes(src), vec!["PC001"]);
    }

    #[test]
    fn pc001_array_write_without_disjoint_subscript() {
        let src = r#"
int main() {
    double a[8];
    #pragma omp parallel
    { a[0] = 1.0; }
    return 0;
}
"#;
        assert_eq!(codes(src), vec!["PC001"]);
    }

    #[test]
    fn pc001_thread_num_subscript_is_disjoint() {
        let src = r#"
int main() {
    double a[8];
    #pragma omp parallel
    { a[omp_get_thread_num()] = 1.0; }
    return 0;
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn pc002_loop_carried_read() {
        let src = r#"
int main() {
    int i; double a[64];
    #pragma omp parallel for
    for (i = 1; i < 64; i++) a[i] = a[i - 1] + 1.0;
    return 0;
}
"#;
        assert_eq!(codes(src), vec!["PC002"]);
    }

    #[test]
    fn stencil_reading_only_same_index_is_clean() {
        let src = r#"
int main() {
    int i; double a[64]; double b[64];
    #pragma omp parallel for
    for (i = 0; i < 64; i++) b[i] = a[i] * 0.5;
    return 0;
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn jacobi_two_array_stencil_is_clean() {
        // Reads neighbours of `a`, writes `b`: offsets differ but across
        // different arrays — no dependence.
        let src = r#"
int main() {
    int i; double a[64]; double b[64];
    #pragma omp parallel for
    for (i = 1; i < 63; i++) b[i] = 0.5 * (a[i - 1] + a[i + 1]);
    return 0;
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn pc003_wrong_operator() {
        let src = r#"
int main() {
    int i; double p;
    #pragma omp parallel for reduction(* : p)
    for (i = 0; i < 8; i++) p += 1.0;
    return 0;
}
"#;
        assert_eq!(codes(src), vec!["PC003"]);
    }

    #[test]
    fn pc003_read_outside_update() {
        let src = r#"
int main() {
    int i; double s; double a[8];
    #pragma omp parallel for reduction(+ : s)
    for (i = 0; i < 8; i++) { a[i] = s; s += 1.0; }
    return 0;
}
"#;
        assert_eq!(codes(src), vec!["PC003"]);
    }

    #[test]
    fn pc003_minmax_update_is_sanctioned() {
        let src = r#"
int main() {
    int i; double m; double a[8];
    #pragma omp parallel for reduction(min : m)
    for (i = 0; i < 8; i++) m = fmin(m, a[i]);
    return 0;
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn pc004_barrier_in_single() {
        let src = r#"
int main() {
    double x;
    #pragma omp parallel
    {
        #pragma omp single
        {
            x = 1.0;
            #pragma omp barrier
        }
    }
    return 0;
}
"#;
        assert_eq!(codes(src), vec!["PC004"]);
    }

    #[test]
    fn pc009_barrier_under_thread_dependent_condition() {
        let src = r#"
int main() {
    #pragma omp parallel
    {
        if (omp_get_thread_num() == 0) {
            #pragma omp barrier
        }
    }
    return 0;
}
"#;
        assert_eq!(codes(src), vec!["PC009"]);
    }

    /// Barriers under a condition every thread of the team decides alike:
    /// a private variable each thread assigns the same constant, a
    /// `firstprivate` copy, a loop bound of the first kind, and a shared
    /// flag one thread sets in a `single` (whose exit barrier publishes
    /// it to the team).
    const UNIFORM_BARRIERS: [&str; 4] = [
        r#"
int main() {
    int k;
    double s;
    s = 0.0;
    #pragma omp parallel private(k)
    {
        k = 1;
        if (k > 0) {
            #pragma omp barrier
        }
        #pragma omp critical
        { s += 1.0; }
    }
    printf("%f\n", s);
    return 0;
}
"#,
        r#"
int main() {
    int k;
    double s;
    k = 1;
    s = 0.0;
    #pragma omp parallel firstprivate(k)
    {
        if (k > 0) {
            #pragma omp barrier
        }
        #pragma omp critical
        { s += 1.0; }
    }
    printf("%f\n", s);
    return 0;
}
"#,
        r#"
int main() {
    int j;
    int n;
    double s;
    s = 0.0;
    #pragma omp parallel private(j, n)
    {
        n = 4;
        for (j = 0; j < n; j = j + 1) {
            #pragma omp barrier
        }
        #pragma omp critical
        { s += 1.0; }
    }
    printf("%f\n", s);
    return 0;
}
"#,
        r#"
int main() {
    int done;
    double s;
    done = 0;
    s = 0.0;
    #pragma omp parallel
    {
        #pragma omp single
        { done = 1; }
        if (done > 0) {
            #pragma omp barrier
        }
        #pragma omp critical
        { s += 1.0; }
    }
    printf("%f\n", s);
    return 0;
}
"#,
    ];

    #[test]
    fn barriers_under_uniform_conditions_check_clean() {
        for src in UNIFORM_BARRIERS {
            assert!(codes(src).is_empty(), "{:?}", check_source(src).unwrap());
        }
    }

    /// What the analyzer accepts, the runtime runs: every thread reaches
    /// each of those barriers, so the team finishes at 2 × 2.
    #[test]
    fn barriers_under_uniform_conditions_run_to_completion() {
        use parade_core::{Cluster, NetProfile, ProtocolMode, TimeSource};
        use parade_testkit::prelude::run_with_timeout;
        use parade_translator::Interp;
        use std::time::Duration;

        for (i, src) in UNIFORM_BARRIERS.into_iter().enumerate() {
            let out = run_with_timeout(&format!("uniform-barrier-{i}"), Duration::from_secs(60), {
                move || {
                    let cluster = Cluster::builder()
                        .nodes(2)
                        .threads_per_node(2)
                        .protocol(ProtocolMode::Parade)
                        .net(NetProfile::zero())
                        .time(TimeSource::Manual)
                        .build()
                        .unwrap();
                    Interp::new(parse(src).unwrap()).run(&cluster).unwrap()
                }
            });
            assert_eq!(
                (out.exit, out.stdout.as_str()),
                (0, "4.000000\n"),
                "program {i}"
            );
        }
    }

    /// A private variable set where only some threads run — a `master`
    /// body, a work-shared loop body a thread may get no iteration of —
    /// keeps its own value on the rest of the team, so a barrier under a
    /// condition on it deadlocks.
    #[test]
    fn pc009_barrier_on_a_private_set_by_some_threads() {
        for body in [
            "#pragma omp master\n        { k = 1; }",
            "#pragma omp for\n        for (i = 0; i < 1; i++) { k = 1; }",
        ] {
            let src = format!(
                r#"
int main() {{
    int i;
    int k;
    #pragma omp parallel private(k)
    {{
        {body}
        if (k > 0) {{
            #pragma omp barrier
        }}
    }}
    return 0;
}}
"#
            );
            assert_eq!(codes(&src), vec!["PC009"], "{src}");
        }
    }

    #[test]
    fn pc005_read_after_nowait() {
        let src = r#"
int main() {
    int i; int j; double a[64]; double b[64];
    #pragma omp parallel
    {
        #pragma omp for nowait
        for (i = 0; i < 64; i++) a[i] = 1.0;
        #pragma omp for
        for (j = 0; j < 64; j++) b[j] = a[63 - j];
    }
    return 0;
}
"#;
        assert_eq!(codes(src), vec!["PC005"]);
    }

    #[test]
    fn pc005_cleared_by_barrier() {
        let src = r#"
int main() {
    int i; int j; double a[64]; double b[64];
    #pragma omp parallel
    {
        #pragma omp for nowait
        for (i = 0; i < 64; i++) a[i] = 1.0;
        #pragma omp barrier
        #pragma omp for
        for (j = 0; j < 64; j++) b[j] = a[63 - j];
    }
    return 0;
}
"#;
        assert!(codes(src).is_empty());
    }

    #[test]
    fn pc006_private_read_before_write() {
        let src = r#"
int main() {
    double t; double x;
    #pragma omp parallel private(t)
    {
        #pragma omp critical
        { x = x + t; }
        t = 0.0;
    }
    return 0;
}
"#;
        let ds = check_source(src).unwrap();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].lint, LintId::PrivateUninitRead);
        assert_eq!(ds[0].severity, Severity::Warning);
    }

    #[test]
    fn pc007_orphaned_for() {
        let src = r#"
int main() {
    int i; double a[8];
    #pragma omp for
    for (i = 0; i < 8; i++) a[i] = 1.0;
    return 0;
}
"#;
        assert_eq!(codes(src), vec!["PC007"]);
    }

    #[test]
    fn pc007_nested_parallel_and_unknown_clause_var() {
        let src = r#"
int main() {
    double x;
    #pragma omp parallel private(nosuch)
    {
        #pragma omp parallel
        { x = 1.0; }
    }
    return 0;
}
"#;
        let ds = check_source(src).unwrap();
        assert!(
            ds.iter().all(|d| d.lint == LintId::DirectiveStructure),
            "{ds:?}"
        );
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn pc007_non_canonical_ws_loop() {
        let src = r#"
int main() {
    int i; double a[8];
    #pragma omp parallel for
    for (i = 8; i > 0; i = i - 1) a[i - 1] = 1.0;
    return 0;
}
"#;
        assert_eq!(codes(src), vec!["PC007"]);
    }

    #[test]
    fn pc007_malformed_atomic() {
        let src = r#"
int main() {
    double x; double y;
    #pragma omp parallel
    {
        #pragma omp atomic
        x = y;
    }
    return 0;
}
"#;
        assert_eq!(codes(src), vec!["PC007"]);
    }

    #[test]
    fn exit_gate_predicate() {
        let ds = check_source(
            r#"
int main() {
    double t;
    #pragma omp parallel private(t)
    { double u; u = t; }
    return 0;
}
"#,
        )
        .unwrap();
        // A lone warning must not trip the gate.
        assert_eq!(ds.len(), 1);
        assert!(!has_errors(&ds));
    }

    #[test]
    fn pc009_barrier_after_divergent_break() {
        // The barrier is under no condition (the divergent `if` closed at
        // the `break`): only the CFG shows that threads disagree on how
        // many iterations reach it.
        let src = r#"
int main() {
    int i; int s;
    #pragma omp parallel private(i, s)
    {
        s = 0;
        for (i = 0; i < 8; i = i + 1) {
            if (omp_get_thread_num() > 0) { break; }
            #pragma omp barrier
            s = s + 1;
        }
    }
    return 0;
}
"#;
        assert_eq!(codes(src), vec!["PC009"]);
    }

    #[test]
    fn pc009_silent_on_uniform_break() {
        let src = r#"
int main() {
    int i; int s; int n;
    n = 64;
    #pragma omp parallel private(i, s)
    {
        s = 0;
        for (i = 0; i < 8; i = i + 1) {
            if (n > 32) { break; }
            #pragma omp barrier
            s = s + 1;
        }
    }
    return 0;
}
"#;
        assert!(codes(src).is_empty(), "{:?}", check_source(src).unwrap());
    }

    #[test]
    fn pc009_firstprivate_entry_is_uniform() {
        // `firstprivate` copies start with the same value on every
        // thread, so a branch on one does not diverge.
        let src = r#"
int main() {
    int i; int k;
    k = 1;
    #pragma omp parallel firstprivate(k) private(i)
    {
        for (i = 0; i < 8; i = i + 1) {
            if (k > 0) { break; }
            #pragma omp barrier
        }
    }
    return 0;
}
"#;
        assert!(codes(src).is_empty(), "{:?}", check_source(src).unwrap());
    }

    #[test]
    fn diags_are_position_sorted() {
        let src = r#"
int main() {
    int i; double a[8]; double s;
    #pragma omp parallel
    {
        s = 1.0;
        a[0] = 2.0;
    }
    return 0;
}
"#;
        let ds = check_source(src).unwrap();
        assert_eq!(ds.len(), 2);
        assert!(ds[0].span.line <= ds[1].span.line);
    }
}
