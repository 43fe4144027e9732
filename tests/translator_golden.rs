//! Golden tests of the translator output for the paper's Figure 2
//! (critical) and Figure 3 (single), in both runtime dialects. These pin
//! the exact shape of the emitted code; update deliberately if the
//! emitter changes.

use parade::translator::{parse, translate_default, EmitMode};

const FIG2_SOURCE: &str = r#"int main() {
    double sum = 0.0;
    double local = 1.5;
    #pragma omp parallel firstprivate(local)
    {
        #pragma omp critical
        { sum = sum + local; }
    }
    return 0;
}
"#;

const FIG3_SOURCE: &str = r#"int main() {
    double tol = 0.0;
    #pragma omp parallel
    {
        #pragma omp single
        { tol = 1e-7; }
    }
    return 0;
}
"#;

fn emitted(src: &str, mode: EmitMode) -> String {
    translate_default(&parse(src).unwrap(), mode).unwrap()
}

#[test]
fn figure2_parade_translation() {
    let out = emitted(FIG2_SOURCE, EmitMode::Parade);
    // Hierarchical mutual exclusion: pthread lock intra-node...
    assert!(
        out.contains("pthread_mutex_lock(&__parade_node_mutex);"),
        "{out}"
    );
    assert!(
        out.contains("__parade_local_acc_double(&sum, PARADE_SUM, local__fp);"),
        "{out}"
    );
    assert!(
        out.contains("pthread_mutex_unlock(&__parade_node_mutex);"),
        "{out}"
    );
    // ...collective update inter-node, no SDSM lock anywhere.
    assert!(
        out.contains("parade_allreduce_double(&sum, PARADE_SUM);"),
        "{out}"
    );
    assert!(!out.contains("sdsm_lock"), "{out}");
    // Region extraction happened.
    assert!(
        out.contains("static void __parade_region_0(void *__arg)"),
        "{out}"
    );
    assert!(
        out.contains("parade_parallel(__parade_region_0, &__a0);"),
        "{out}"
    );
}

#[test]
fn figure2_sdsm_translation() {
    let out = emitted(FIG2_SOURCE, EmitMode::Sdsm);
    assert!(out.contains("sdsm_lock(0);"), "{out}");
    assert!(out.contains("(*sum) = ((*sum) + local__fp);"), "{out}");
    assert!(out.contains("sdsm_unlock(0);"), "{out}");
    assert!(!out.contains("allreduce"), "{out}");
    assert!(!out.contains("pthread"), "{out}");
}

#[test]
fn figure3_parade_translation() {
    let out = emitted(FIG3_SOURCE, EmitMode::Parade);
    assert!(out.contains("if (parade_single_begin(0))"), "{out}");
    assert!(out.contains("if (parade_node() == 0)"), "{out}");
    assert!(out.contains("parade_bcast(&tol, sizeof(tol), 0);"), "{out}");
    // The ParADE single avoids the barrier entirely.
    assert!(!out.contains("parade_barrier();"), "{out}");
    assert!(!out.contains("sdsm_barrier();"), "{out}");
}

#[test]
fn figure3_sdsm_translation() {
    let out = emitted(FIG3_SOURCE, EmitMode::Sdsm);
    assert!(out.contains("sdsm_lock(0);"), "{out}");
    assert!(out.contains("if (!sdsm_flag_test_and_set(0))"), "{out}");
    assert!(out.contains("sdsm_barrier();"), "{out}");
}

#[test]
fn both_modes_emit_parsable_structure() {
    for mode in [EmitMode::Parade, EmitMode::Sdsm] {
        for src in [FIG2_SOURCE, FIG3_SOURCE] {
            let out = emitted(src, mode);
            // Braces balance (a cheap well-formedness check).
            let opens = out.matches('{').count();
            let closes = out.matches('}').count();
            assert_eq!(opens, closes, "mode {mode:?}\n{out}");
        }
    }
}

#[test]
fn threshold_controls_the_protocol_split() {
    // At threshold 0 nothing is "small": ParADE must fall back to the
    // lock path even for a scalar critical (§5.2.1 threshold semantics).
    let prog = parse(FIG2_SOURCE).unwrap();
    let out = parade::translator::translate(&prog, EmitMode::Parade, 0).unwrap();
    assert!(out.contains("parade_lock(0);"), "{out}");
    assert!(!out.contains("allreduce"), "{out}");
}

/// Every corpus program and example, translated in both modes, against its
/// file under `tests/golden/emit/<dir>/<stem>.<mode>.c` (or `.err`, the
/// error text, for a program the emitter refuses). A mismatch writes the
/// fresh text under the test's target tmpdir and names the first line that
/// differs; copy that file over the golden only for a deliberate change.
#[test]
fn every_corpus_translation_matches_its_golden() {
    let root = env!("CARGO_MANIFEST_DIR");
    let fresh = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_emit");
    let mut compared = 0;
    let mut refused = 0;
    let mut mismatches = Vec::new();
    for (dir, tag) in [
        ("tests/corpus/clean", "clean"),
        ("tests/corpus/racy", "racy"),
        ("tests/corpus/conform", "conform"),
        ("examples/openmp", "openmp"),
    ] {
        let mut paths: Vec<_> = std::fs::read_dir(format!("{root}/{dir}"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "c"))
            .collect();
        paths.sort();
        for path in paths {
            let stem = path.file_stem().unwrap().to_str().unwrap();
            let prog = parse(&std::fs::read_to_string(&path).unwrap())
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            for (mode, mode_tag) in [(EmitMode::Parade, "parade"), (EmitMode::Sdsm, "sdsm")] {
                let (actual, ext) = match translate_default(&prog, mode) {
                    Ok(text) => (text, "c"),
                    Err(e) => {
                        refused += 1;
                        (format!("{e}\n"), "err")
                    }
                };
                compared += 1;
                let name = format!("{tag}/{stem}.{mode_tag}.{ext}");
                let expected = std::fs::read_to_string(format!("{root}/tests/golden/emit/{name}"))
                    .unwrap_or_default();
                if actual == expected {
                    continue;
                }
                let out = fresh.join(&name);
                std::fs::create_dir_all(out.parent().unwrap()).unwrap();
                std::fs::write(&out, &actual).unwrap();
                let line = actual
                    .lines()
                    .zip(expected.lines())
                    .position(|(a, e)| a != e)
                    .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
                mismatches.push(format!(
                    "{name}: first difference at line {}; fresh text in {}",
                    line + 1,
                    out.display()
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
    assert_eq!((compared, refused), (80, 6), "translations, refusals");
}
