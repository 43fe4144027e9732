//! The scoping rules the resolved interpreter must keep — the ones the
//! name-keyed scope maps used to implement implicitly — and the integer
//! corner cases of `binop`, each through [`Interp::run`].

use parade_core::{Cluster, NetProfile, TimeSource};

use crate::interp::{Interp, RuntimeError};
use crate::parser::parse;

fn run_on(src: &str, nodes: usize, tpn: usize) -> Result<(i64, String), RuntimeError> {
    let cluster = Cluster::builder()
        .nodes(nodes)
        .threads_per_node(tpn)
        .net(NetProfile::zero())
        .time(TimeSource::Manual)
        .build()
        .unwrap();
    let prog = parse(src).unwrap_or_else(|e| panic!("parse error: {e}"));
    let out = Interp::new(prog).run(&cluster)?;
    Ok((out.exit, out.stdout))
}

fn stdout(src: &str, nodes: usize, tpn: usize) -> String {
    run_on(src, nodes, tpn)
        .unwrap_or_else(|e| panic!("runtime error: {e}"))
        .1
}

#[test]
fn inner_block_shadowing_ends_with_the_block() {
    let (exit, out) = run_on(
        r#"
int main() {
    int x = 1;
    int i;
    {
        int x = 2;
        x = x + 10;
        printf("%d\n", x);
    }
    printf("%d\n", x);
    for (i = 0; i < 3; i++) {
        int x = 100 + i;
        if (i == 1) break;
    }
    printf("%d %d\n", x, i);
    while (1) {
        int x = 7;
        { int x = 8; x = x + 1; }
        break;
    }
    return x;
}
"#,
        1,
        1,
    )
    .unwrap();
    assert_eq!(out, "12\n1\n1 1\n");
    assert_eq!(exit, 1);
}

#[test]
fn return_out_of_a_block_restores_the_callers_bindings() {
    let out = stdout(
        r#"
int pick(int a) {
    int y = 5;
    {
        int y = 7;
        if (a > 0) return y;
    }
    return y;
}
int main() {
    int y = 3;
    printf("%d %d %d\n", pick(1), pick(0), y);
    return 0;
}
"#,
        1,
        1,
    );
    assert_eq!(out, "7 5 3\n");
}

#[test]
fn a_name_shared_in_main_is_privatized_per_region_by_its_clauses() {
    let out = stdout(
        r#"
int main() {
    int i;
    double a[8];
    double s = 1.0;
    double t = 2.0;
    double last = 0.0;
    double sum = 10.0;
    #pragma omp parallel for
    for (i = 0; i < 8; i++) a[i] = s;
    #pragma omp parallel for private(s) firstprivate(t) lastprivate(last) reduction(+ : sum)
    for (i = 0; i < 8; i++) {
        s = i;
        last = t + s;
        sum += a[i] + s;
    }
    printf("%.1f %.1f %.1f %.1f\n", s, t, last, sum);
    return 0;
}
"#,
        2,
        2,
    );
    // `s` is shared storage in the first region, a discarded private copy
    // in the second; `last` comes from the final iteration, `sum` folds in.
    assert_eq!(out, "1.0 2.0 9.0 46.0\n");
}

#[test]
fn the_work_shared_loop_variable_is_private_even_when_listed_shared() {
    let out = stdout(
        r#"
int main() {
    int i;
    double a[16];
    i = 99;
    #pragma omp parallel shared(i)
    {
        #pragma omp for
        for (i = 0; i < 16; i++) a[i] = i * 2.0;
    }
    printf("%d %.1f\n", i, a[15]);
    return 0;
}
"#,
        2,
        2,
    );
    assert_eq!(out, "99 30.0\n");
}

#[test]
fn a_callee_sees_globals_but_not_its_callers_locals() {
    let out = stdout(
        r#"
double g = 4.0;
double twice() {
    double v = g * 2.0;
    g = g + 1.0;
    return v;
}
int main() {
    double v = 1.0;
    double r = twice();
    printf("%.1f %.1f %.1f\n", v, r, g);
    return 0;
}
"#,
        1,
        1,
    );
    assert_eq!(out, "1.0 8.0 5.0\n");

    let err = run_on(
        r#"
double peek() { return hidden + 1.0; }
int main() {
    double hidden = 1.0;
    double r = peek();
    return 0;
}
"#,
        1,
        1,
    )
    .unwrap_err();
    assert_eq!(err.message, "undefined variable hidden");
}

#[test]
fn recursion_keeps_one_set_of_locals_per_activation() {
    let out = stdout(
        r#"
int fact(int n) {
    if (n <= 1) return 1;
    return n * fact(n - 1);
}
int fib(int n) {
    int a;
    int b;
    if (n < 2) return n;
    a = fib(n - 1);
    b = fib(n - 2);
    return a + b;
}
int main() {
    printf("%d %d\n", fact(10), fib(15));
    return 0;
}
"#,
        1,
        1,
    );
    assert_eq!(out, "3628800 610\n");
}

#[test]
fn a_call_that_can_only_fail_fails_when_reached_not_when_resolved() {
    let dead = "int main() { if (0) nosuch(1); return 4; }";
    assert_eq!(run_on(dead, 1, 1).unwrap().0, 4);
    for (src, want) in [
        (
            "int main() { nosuch(1); return 0; }",
            "call to undefined function nosuch",
        ),
        (
            "int f(int a) { return a; } int main() { return f(1, 2); }",
            "f expects 1 arguments, got 2",
        ),
        (
            "int main() { return sqrt(1.0, 2.0); }",
            "bad arity for builtin sqrt",
        ),
    ] {
        assert_eq!(run_on(src, 1, 1).unwrap_err().message, want);
    }
}

// ---- integer corner cases: a value or a RuntimeError, never a panic ----------

const MIN_AND_MINUS_ONE: &str = "long m; long d; m = -9223372036854775807 - 1; d = 0 - 1;";

#[test]
fn dividing_the_most_negative_integer_by_minus_one_wraps() {
    let src = format!("int main() {{ {MIN_AND_MINUS_ONE} printf(\"%d\\n\", m / d); return 0; }}");
    assert_eq!(stdout(&src, 1, 1), "-9223372036854775808\n");
}

#[test]
fn remainder_of_the_most_negative_integer_by_minus_one_is_zero() {
    let src = format!("int main() {{ {MIN_AND_MINUS_ONE} printf(\"%d\\n\", m % d); return 0; }}");
    assert_eq!(stdout(&src, 1, 1), "0\n");
}

#[test]
fn negating_the_most_negative_integer_wraps() {
    let src = format!("int main() {{ {MIN_AND_MINUS_ONE} printf(\"%d\\n\", -m); return 0; }}");
    assert_eq!(stdout(&src, 1, 1), "-9223372036854775808\n");
}

// ---- C's conversions: what an int holds, and what storing into one yields ---

#[test]
fn an_int_reduction_private_starts_as_an_int() {
    // The private copy starts at the operator's identity *as an int*, so the
    // division truncates from the first iteration on: 0 → 2 → 4 → 6 → 8 on
    // one thread, 2 per iteration on any other team, as in C.
    let region = r#"
int main() {
    int i;
    int n;
    n = 0;
    #pragma omp parallel for reduction(+ : n)
    for (i = 0; i < 4; i++) n = (n + 3) / 2 * 2;
    printf("%d\n", n);
    return 0;
}
"#;
    for (nodes, tpn) in [(1, 1), (2, 2), (4, 2)] {
        assert_eq!(stdout(region, nodes, tpn), "8\n", "{nodes} x {tpn}");
    }
    let elision = region.replace("#pragma omp parallel for reduction(+ : n)", "");
    assert_eq!(stdout(&elision, 1, 1), "8\n", "serial elision");
}

#[test]
fn an_assignment_evaluates_to_the_value_stored() {
    for (what, decls, store) in [
        ("int local", "int k; double y;", "k"),
        ("int array element", "int a[3]; int k; double y;", "a[1]"),
    ] {
        let src = format!(
            "int main() {{ {decls} y = ({store} = 2.5) * 2; k = {store}; \
             printf(\"%d %f\\n\", k, y); return 0; }}"
        );
        assert_eq!(stdout(&src, 1, 1), "2 4.000000\n", "{what}");
    }
    // A global scalar lives on the paged DSM (HLRC).
    let hlrc = "int k; double y; int main() { y = (k = 2.5) * 2; \
                printf(\"%d %f\\n\", k, y); return 0; }";
    assert_eq!(stdout(hlrc, 2, 2), "2 4.000000\n", "HLRC scalar");
}
