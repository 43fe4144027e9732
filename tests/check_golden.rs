//! Golden tests for the analyzer's negative paths: the exact rendered
//! diagnostic (`file:line:col: severity[PCnnn]: message` prefix) for every
//! lint id, plus the parse errors that fire before the analyzer gets a
//! look (unsupported directives and clauses are front-end rejections, not
//! lints).

use parade::check::{check_source, has_errors, Diag, LintId, Severity};

/// Render like `paradec check` does and keep only `file:line:col:
/// severity[code]` — messages may be tuned without re-blessing every test,
/// while positions and codes are pinned exactly.
fn rendered_heads(diags: &[Diag]) -> Vec<String> {
    diags
        .iter()
        .map(|d| {
            let full = d.render("prog.c");
            let end = full.find("]: ").expect("renders a lint code") + 1;
            full[..end].to_string()
        })
        .collect()
}

#[test]
fn pc001_golden() {
    let diags = check_source(
        "int main() {\n    double sum;\n    #pragma omp parallel\n    {\n        sum = sum + 1.0;\n    }\n    return 0;\n}\n",
    )
    .unwrap();
    assert_eq!(rendered_heads(&diags), vec!["prog.c:5:9: error[PC001]"]);
    assert!(diags[0].message.contains("`sum`"), "{}", diags[0].message);
}

#[test]
fn pc002_golden() {
    let diags = check_source(
        "int main() {\n    int i;\n    double a[64];\n    #pragma omp parallel for\n    for (i = 1; i < 64; i++) {\n        a[i] = a[i - 1];\n    }\n    return 0;\n}\n",
    )
    .unwrap();
    // Reported at the directive, not the statement: the dependence is a
    // property of the distributed loop.
    assert_eq!(rendered_heads(&diags), vec!["prog.c:4:5: error[PC002]"]);
    assert!(
        diags[0].message.contains("`a[i]`") && diags[0].message.contains("`a[i-1]`"),
        "{}",
        diags[0].message
    );
}

#[test]
fn pc003_golden() {
    let diags = check_source(
        "int main() {\n    int i;\n    double p;\n    #pragma omp parallel for reduction(* : p)\n    for (i = 0; i < 8; i++) {\n        p += 1.0;\n    }\n    return 0;\n}\n",
    )
    .unwrap();
    assert_eq!(rendered_heads(&diags), vec!["prog.c:6:9: error[PC003]"]);
    assert!(
        diags[0].message.contains('*') && diags[0].message.contains('+'),
        "names both operators: {}",
        diags[0].message
    );
}

#[test]
fn pc004_golden() {
    let diags = check_source(
        "int main() {\n    double x;\n    #pragma omp parallel\n    {\n        #pragma omp single\n        {\n            x = 1.0;\n            #pragma omp barrier\n        }\n    }\n    return 0;\n}\n",
    )
    .unwrap();
    assert_eq!(rendered_heads(&diags), vec!["prog.c:8:13: error[PC004]"]);
    assert!(diags[0].message.contains("single"), "{}", diags[0].message);
}

#[test]
fn pc005_golden() {
    let diags = check_source(
        "int main() {\n    int i;\n    int j;\n    double a[64];\n    double b[64];\n    #pragma omp parallel\n    {\n        #pragma omp for nowait\n        for (i = 0; i < 64; i++) {\n            a[i] = 1.0;\n        }\n        #pragma omp for\n        for (j = 0; j < 64; j++) {\n            b[j] = a[63 - j];\n        }\n    }\n    return 0;\n}\n",
    )
    .unwrap();
    // Anchored on the statement that touches the unjoined data.
    assert_eq!(rendered_heads(&diags), vec!["prog.c:12:9: error[PC005]"]);
    assert!(
        diags[0].message.contains("`a`") && diags[0].message.contains("line 8"),
        "{}",
        diags[0].message
    );
}

#[test]
fn pc006_golden() {
    let diags = check_source(
        "int main() {\n    double t;\n    double out[16];\n    #pragma omp parallel private(t)\n    {\n        out[omp_get_thread_num()] = t;\n        t = 0.0;\n    }\n    return 0;\n}\n",
    )
    .unwrap();
    assert_eq!(rendered_heads(&diags), vec!["prog.c:6:9: warning[PC006]"]);
    assert!(
        diags[0].message.contains("firstprivate(t)"),
        "suggests the fix: {}",
        diags[0].message
    );
    assert!(!has_errors(&diags), "PC006 alone must not gate");
}

#[test]
fn pc007_orphan_golden() {
    let diags = check_source(
        "int main() {\n    int i;\n    double a[8];\n    #pragma omp for\n    for (i = 0; i < 8; i++) {\n        a[i] = 1.0;\n    }\n    return 0;\n}\n",
    )
    .unwrap();
    assert_eq!(rendered_heads(&diags), vec!["prog.c:4:5: error[PC007]"]);
    assert!(
        diags[0].message.contains("outside a parallel region"),
        "{}",
        diags[0].message
    );
}

#[test]
fn pc007_bad_nesting_golden() {
    // A work-sharing loop inside a `single` — illegal nesting.
    let diags = check_source(
        "int main() {\n    int i;\n    double a[8];\n    #pragma omp parallel\n    {\n        #pragma omp single\n        {\n            #pragma omp for\n            for (i = 0; i < 8; i++) {\n                a[i] = 1.0;\n            }\n        }\n    }\n    return 0;\n}\n",
    )
    .unwrap();
    assert_eq!(rendered_heads(&diags), vec!["prog.c:8:13: error[PC007]"]);
    assert!(
        diags[0].message.contains("nested inside `single`"),
        "{}",
        diags[0].message
    );
}

#[test]
fn pc007_unknown_clause_var_golden() {
    let diags = check_source(
        "int main() {\n    double x;\n    #pragma omp parallel private(ghost)\n    {\n        #pragma omp atomic\n        x += 1.0;\n    }\n    return 0;\n}\n",
    )
    .unwrap();
    assert_eq!(rendered_heads(&diags), vec!["prog.c:3:5: error[PC007]"]);
    assert!(
        diags[0].message.contains("`ghost`") && diags[0].message.contains("private"),
        "{}",
        diags[0].message
    );
}

/// A barrier inside a loop a thread-dependent `break` can leave early:
/// lexically legal (PC004 is silent), but the MIR divergence analysis
/// proves threads can disagree on reaching it.
const PC009_SRC: &str = "int main() {\n    int i;\n    int s;\n    #pragma omp parallel private(i, s)\n    {\n        s = 0;\n        for (i = 0; i < 8; i = i + 1) {\n            if (omp_get_thread_num() > 0) {\n                break;\n            }\n            #pragma omp barrier\n            s = s + 1;\n        }\n    }\n    return 0;\n}\n";

#[test]
fn pc009_golden() {
    let diags = check_source(PC009_SRC).unwrap();
    assert_eq!(rendered_heads(&diags), vec!["prog.c:11:13: error[PC009]"]);
    assert!(
        diags[0].message.contains("thread-divergent"),
        "{}",
        diags[0].message
    );
}

#[test]
fn json_output_golden() {
    // `--json` shape is machine-consumed: pin every field byte-for-byte.
    let diags = check_source(PC009_SRC).unwrap();
    assert_eq!(diags.len(), 1);
    assert_eq!(
        diags[0].render_json("prog.c"),
        r#"{"file":"prog.c","lint":"PC009","name":"barrier-divergence-deadlock","severity":"error","line":11,"col":13,"message":"barrier in thread-divergent control flow: the divergence analysis proves threads of the team can disagree on reaching it; threads that arrive wait forever"}"#
    );
}

#[test]
fn multi_error_ordering_golden() {
    // Three diagnostics at three positions, emitted sorted by (line, col,
    // lint id).
    let src = "int main() {\n    double s;\n    double t;\n    #pragma omp parallel private(t)\n    {\n        t = t + 1.0;\n        s = s + 1.0;\n        #pragma omp single\n        {\n            s = 2.0;\n            #pragma omp barrier\n        }\n    }\n    return 0;\n}\n";
    let diags = check_source(src).unwrap();
    assert_eq!(
        rendered_heads(&diags),
        vec![
            "prog.c:6:9: warning[PC006]",
            "prog.c:7:9: error[PC001]",
            "prog.c:11:13: error[PC004]",
        ]
    );
    let pos: Vec<_> = diags.iter().map(|d| (d.span.line, d.span.col)).collect();
    let mut sorted = pos.clone();
    sorted.sort();
    assert_eq!(pos, sorted, "diagnostics not in ascending source order");
}

#[test]
fn every_lint_id_is_exercised_above() {
    // Companion assertion: the suite covers the whole taxonomy.
    assert_eq!(LintId::ALL.len(), 8);
    for l in LintId::ALL {
        let sev = l.severity();
        match l {
            LintId::PrivateUninitRead => assert_eq!(sev, Severity::Warning),
            _ => assert_eq!(sev, Severity::Error),
        }
    }
}

// ---- front-end rejections (not lints) ------------------------------------

#[test]
fn unsupported_directive_is_a_parse_error() {
    // OpenMP 1.0 has no `sections` here and no tasking at all.
    for dir in ["sections", "task", "taskwait", "target"] {
        let src = format!("int main() {{\n#pragma omp {dir}\n{{ }}\nreturn 0; }}");
        let err = check_source(&src).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("line 2: unsupported OpenMP directive '{dir}'")
        );
    }
}

#[test]
fn unknown_clause_is_a_parse_error() {
    for (clause, name) in [
        ("collapse(2)", "collapse"),
        ("depend(out: a)", "depend"),
        ("map(tofrom: a)", "map"),
        ("device(0)", "device"),
    ] {
        let src = format!(
            "int main() {{ int i; double a[8];\n#pragma omp parallel for {clause}\nfor (i = 0; i < 8; i++) a[i] = 1.0;\nreturn 0; }}"
        );
        let err = check_source(&src).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("line 2: unsupported clause '{name}'")
        );
    }
}

#[test]
fn bad_reduction_operator_is_a_parse_error() {
    let err = check_source(
        "int main() { int i; double s;\n#pragma omp parallel for reduction(- : s)\nfor (i = 0; i < 8; i++) s = s - 1.0;\nreturn 0; }",
    )
    .unwrap_err();
    assert!(err.to_string().contains("reduction"), "{err}");
}
