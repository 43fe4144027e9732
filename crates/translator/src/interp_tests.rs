//! End-to-end interpreter tests: OpenMP C source → parse → analyze →
//! execute on a simulated ParADE cluster.

use parade_core::{Cluster, NetProfile, ProtocolMode, TimeSource};

use crate::interp::Interp;
use crate::parser::parse;

fn cluster(nodes: usize, tpn: usize, mode: ProtocolMode) -> Cluster {
    Cluster::builder()
        .nodes(nodes)
        .threads_per_node(tpn)
        .protocol(mode)
        .net(NetProfile::zero())
        .time(TimeSource::Manual)
        .build()
        .unwrap()
}

fn run_src(src: &str, nodes: usize, tpn: usize, mode: ProtocolMode) -> (i64, String) {
    let prog = parse(src).unwrap_or_else(|e| panic!("parse error: {e}"));
    let out = Interp::new(prog)
        .run(&cluster(nodes, tpn, mode))
        .unwrap_or_else(|e| panic!("runtime error: {e}"));
    (out.exit, out.stdout)
}

#[test]
fn serial_arithmetic_and_printf() {
    let (exit, out) = run_src(
        r#"
int main() {
    int i;
    double s = 0.0;
    for (i = 1; i <= 4; i++) s += i * 0.5;
    printf("s = %.2f\n", s);
    return 7;
}
"#,
        1,
        1,
        ProtocolMode::Parade,
    );
    assert_eq!(exit, 7);
    assert_eq!(out, "s = 5.00\n");
}

#[test]
fn user_functions_and_builtins() {
    let (exit, out) = run_src(
        r#"
double square(double x) { return x * x; }
int main() {
    double v = square(3.0) + sqrt(16.0) + fabs(-1.0);
    printf("%d\n", v);
    return 0;
}
"#,
        1,
        1,
        ProtocolMode::Parade,
    );
    assert_eq!(exit, 0);
    assert_eq!(out, "14\n");
}

#[test]
fn parallel_for_reduction_sums() {
    for mode in [ProtocolMode::Parade, ProtocolMode::SdsmOnly] {
        let (_, out) = run_src(
            r#"
int main() {
    int i;
    double sum = 0.0;
    double a[100];
    #pragma omp parallel for
    for (i = 0; i < 100; i++) a[i] = i + 1;
    #pragma omp parallel for reduction(+: sum)
    for (i = 0; i < 100; i++) sum += a[i];
    printf("%.1f\n", sum);
    return 0;
}
"#,
            2,
            2,
            mode,
        );
        assert_eq!(out, "5050.0\n", "mode {mode:?}");
    }
}

#[test]
fn integer_reduction_is_exact_past_2_pow_53() {
    // 8 x (2^53 + 1) = 2^56 + 8: a double fold rounds it to 2^56.
    let src = include_str!("../../../tests/corpus/clean/reduction_long.c");
    for mode in [ProtocolMode::Parade, ProtocolMode::SdsmOnly] {
        for (nodes, tpn) in [(1, 1), (2, 2), (4, 2)] {
            let (_, out) = run_src(src, nodes, tpn, mode);
            assert_eq!(out, "72057594037927944\n", "{nodes}x{tpn} {mode:?}");
        }
    }
}

#[test]
fn shared_integer_scalars_on_hlrc_are_exact_past_2_pow_53() {
    // 2^53 + 1 + 2 = 2^53 + 3: a double store rounds it to 2^53 + 2 (or
    // 2^53 + 4) on its way through the shared page.
    let global = r#"
long t = 9007199254740993;
int main() {
    t = t + 2;
    printf("%ld\n", t);
    return 0;
}
"#;
    let master = r#"
int main() {
    long t = 9007199254740993;
    #pragma omp parallel
    {
        #pragma omp master
        {
            t = t + 2;
        }
    }
    printf("%ld\n", t);
    return 0;
}
"#;
    for (name, src) in [("global", global), ("master", master)] {
        for mode in [ProtocolMode::Parade, ProtocolMode::SdsmOnly] {
            for (nodes, tpn) in [(1, 1), (2, 2)] {
                let (_, out) = run_src(src, nodes, tpn, mode);
                assert_eq!(out, "9007199254740995\n", "{name} {nodes}x{tpn} {mode:?}");
            }
        }
    }
}

#[test]
fn atomic_counts_all_threads() {
    for mode in [ProtocolMode::Parade, ProtocolMode::SdsmOnly] {
        let (_, out) = run_src(
            r#"
int main() {
    double hits = 0.0;
    #pragma omp parallel
    {
        #pragma omp atomic
        hits += 1.0;
    }
    printf("%d\n", hits);
    return 0;
}
"#,
            3,
            2,
            mode,
        );
        assert_eq!(out, "6\n", "mode {mode:?}");
    }
}

#[test]
fn critical_analyzable_maps_to_collective() {
    // Every thread contributes its id+1 through an analyzable critical.
    let (_, out) = run_src(
        r#"
int main() {
    double total = 0.0;
    #pragma omp parallel
    {
        double mine;
        mine = omp_get_thread_num() + 1;
        #pragma omp critical
        { total = total + mine; }
    }
    printf("%d\n", total);
    return 0;
}
"#,
        2,
        2,
        ProtocolMode::Parade,
    );
    assert_eq!(out, "10\n");
}

#[test]
fn critical_with_array_write_uses_lock_path() {
    for mode in [ProtocolMode::Parade, ProtocolMode::SdsmOnly] {
        let (_, out) = run_src(
            r#"
int main() {
    double slots[8];
    int n = 4;
    #pragma omp parallel
    {
        #pragma omp critical
        { slots[0] = slots[0] + 1.0; slots[1] = slots[1] + 2.0; }
    }
    printf("%.0f %.0f\n", slots[0], slots[1]);
    return 0;
}
"#,
            2,
            2,
            mode,
        );
        assert_eq!(out, "4 8\n", "mode {mode:?}");
    }
}

#[test]
fn single_executes_once_and_value_propagates() {
    for mode in [ProtocolMode::Parade, ProtocolMode::SdsmOnly] {
        let (_, out) = run_src(
            r#"
int main() {
    double tol = 0.0;
    double seen = 0.0;
    #pragma omp parallel
    {
        #pragma omp single
        { tol = 1e-3; }
        #pragma omp atomic
        seen += tol;
    }
    printf("%.3f\n", seen);
    return 0;
}
"#,
            2,
            2,
            mode,
        );
        assert_eq!(out, "0.004\n", "mode {mode:?}");
    }
}

#[test]
fn master_and_barrier_directives() {
    let (_, out) = run_src(
        r#"
int main() {
    double flag = 0.0;
    double total = 0.0;
    #pragma omp parallel
    {
        #pragma omp master
        { flag = 5.0; }
        #pragma omp barrier
        #pragma omp atomic
        total += flag;
    }
    printf("%.0f\n", total);
    return 0;
}
"#,
        2,
        2,
        ProtocolMode::Parade,
    );
    // `flag` is written by a plain store inside the region -> HLRC storage;
    // after the barrier every thread reads 5.
    assert_eq!(out, "20\n");
}

#[test]
fn firstprivate_and_lastprivate() {
    let (_, out) = run_src(
        r#"
int main() {
    int i;
    double base = 10.0;
    double lastval = 0.0;
    double a[40];
    #pragma omp parallel for firstprivate(base) lastprivate(lastval)
    for (i = 0; i < 40; i++) {
        lastval = base + i;
        a[i] = lastval;
    }
    printf("%.0f %.0f\n", lastval, a[39]);
    return 0;
}
"#,
        2,
        2,
        ProtocolMode::Parade,
    );
    assert_eq!(out, "49 49\n");
}

#[test]
fn schedules_produce_identical_results() {
    for sched in ["static", "static, 3", "dynamic, 5", "guided, 2"] {
        let src = format!(
            r#"
int main() {{
    int i;
    double sum = 0.0;
    #pragma omp parallel for reduction(+: sum) schedule({sched})
    for (i = 0; i < 200; i++) sum += i;
    printf("%.0f\n", sum);
    return 0;
}}
"#
        );
        let (_, out) = run_src(&src, 2, 2, ProtocolMode::Parade);
        assert_eq!(out, "19900\n", "schedule({sched})");
    }
}

#[test]
fn mini_jacobi_converges() {
    // A 1-D Jacobi relaxation: the translated program exercises shared
    // arrays (HLRC), reductions (collectives), and serial control between
    // regions — the Helmholtz pattern of §6.2 in miniature.
    let src = r#"
int main() {
    int i, it;
    double unew[64];
    double u[64];
    double err = 0.0;
    #pragma omp parallel for
    for (i = 0; i < 64; i++) u[i] = 0.0;
    u[0] = 1.0;
    u[63] = 1.0;
    for (it = 0; it < 200; it++) {
        err = 0.0;
        #pragma omp parallel for reduction(+: err)
        for (i = 1; i < 63; i++) {
            double r;
            r = 0.5 * (u[i-1] + u[i+1]) - u[i];
            unew[i] = u[i] + r;
            err += r * r;
        }
        #pragma omp parallel for
        for (i = 1; i < 63; i++) u[i] = unew[i];
    }
    printf("mid=%.4f err=%.6f\n", u[32], sqrt(err));
    return 0;
}
"#;
    for mode in [ProtocolMode::Parade, ProtocolMode::SdsmOnly] {
        let (_, out) = run_src(src, 2, 2, mode);
        // Steady state of the discrete Laplace equation with unit boundary
        // conditions is u = 1 everywhere; Jacobi information diffuses about
        // √t points in t sweeps, so after 200 sweeps the midpoint (32 away
        // from the boundary) has only started to rise.
        let mid: f64 = out
            .split("mid=")
            .nth(1)
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(mid > 0.01 && mid <= 1.0, "mode {mode:?}: {out}");
    }
}

#[test]
fn modes_agree_bitwise_on_deterministic_program() {
    let src = r#"
int main() {
    int i;
    double sum = 0.0;
    double a[128];
    #pragma omp parallel for
    for (i = 0; i < 128; i++) a[i] = sin(i * 0.1);
    #pragma omp parallel for reduction(+: sum)
    for (i = 0; i < 128; i++) sum += a[i] * a[i];
    printf("%.9f\n", sum);
    return 0;
}
"#;
    let (_, a) = run_src(src, 2, 2, ProtocolMode::Parade);
    let (_, b) = run_src(src, 2, 2, ProtocolMode::SdsmOnly);
    assert_eq!(a, b);
}

#[test]
fn omp_query_functions() {
    let (_, out) = run_src(
        r#"
int main() {
    double maxid = 0.0;
    #pragma omp parallel
    {
        double me;
        me = omp_get_thread_num();
        #pragma omp critical
        { maxid = maxid + me; }
    }
    printf("%d\n", maxid);
    return 0;
}
"#,
        2,
        3,
        ProtocolMode::Parade,
    );
    // Thread ids 0..5 sum to 15.
    assert_eq!(out, "15\n");
}

#[test]
fn runtime_errors_are_reported() {
    let prog = parse(
        r#"
int main() {
    double a[4];
    a[9] = 1.0;
    return 0;
}
"#,
    )
    .unwrap();
    let err = Interp::new(prog)
        .run(&cluster(1, 1, ProtocolMode::Parade))
        .unwrap_err();
    assert!(err.message.contains("out of bounds"), "{err}");
}

#[test]
fn int_semantics_division_and_modulo() {
    let (_, out) = run_src(
        r#"
int main() {
    int a = 17, b = 5;
    printf("%d %d %d\n", a / b, a % b, a * b);
    return 0;
}
"#,
        1,
        1,
        ProtocolMode::Parade,
    );
    assert_eq!(out, "3 2 85\n");
}

/// The run's error for `src` on `nodes` × `tpn`, under a watchdog.
fn run_err(name: &str, src: &str, nodes: usize, tpn: usize) -> String {
    let prog = parse(src).unwrap_or_else(|e| panic!("parse error: {e}"));
    let timeout = std::time::Duration::from_secs(60);
    parade_testkit::prelude::run_with_timeout(name, timeout, move || {
        Interp::new(prog)
            .run(&cluster(nodes, tpn, ProtocolMode::Parade))
            .expect_err("the run must fail")
            .to_string()
    })
}

/// Unbounded recursion is a named runtime error, not a stack overflow
/// that aborts the process: in serial code, and on the master thread of a
/// parallel region. (An error on any other thread is not yet reported.)
#[test]
fn unbounded_recursion_is_a_named_runtime_error() {
    const DOWN: &str = "int down(int n) { if (n < 0) { return 0; } return down(n + 1) + 1; }";
    let serial = format!("{DOWN}\nint main() {{ printf(\"%d\\n\", down(0)); return 0; }}");
    let master = format!(
        "{DOWN}
int main() {{
    int k;
    #pragma omp parallel private(k)
    {{
        k = 0;
        if (omp_get_thread_num() == 0) {{
            k = down(0);
        }}
    }}
    return 0;
}}"
    );
    for (name, src, nodes, tpn) in [
        ("serial", &serial, 1, 1),
        ("master thread", &master, 1, 1),
        ("master thread of 2x2", &master, 2, 2),
    ] {
        let err = run_err(name, src, nodes, tpn);
        assert!(
            err.starts_with("runtime error: call to down() at call depth ")
                && err.ends_with(" passes the 1024 KiB call stack limit"),
            "{name}: {err}"
        );
    }
}

/// A shared array past the pool is refused by name before any node
/// allocates, with the bytes it asks for and the pool's size, also when
/// its byte count does not fit a `usize`.
#[test]
fn a_shared_array_past_the_pool_is_a_named_runtime_error() {
    let pool = cluster(1, 1, ProtocolMode::Parade)
        .config()
        .dsm_config()
        .pool_bytes;
    for (elems, asked) in [
        ("2000000000", "16000000000 bytes".to_string()),
        (
            "4000000000000000000",
            format!("more than {} bytes", usize::MAX),
        ),
    ] {
        let src = format!(
            "int main() {{
    int i;
    double a[{elems}];
    #pragma omp parallel for
    for (i = 0; i < 4; i++) {{
        a[i] = 1.0;
    }}
    return 0;
}}"
        );
        assert_eq!(
            run_err("pool", &src, 2, 2),
            format!(
                "runtime error: shared variable `a` needs {asked}, \
                 more than the {pool}-byte shared pool"
            )
        );
    }
}

/// A 2 × 2 cluster whose shared pool holds 64 pages, 24 of them the
/// runtime's own scratch.
fn small_pool_cluster() -> Cluster {
    let mut cfg = cluster(2, 2, ProtocolMode::Parade).config().clone();
    cfg.dsm.pool_bytes = 64 * parade_dsm::PAGE_SIZE;
    Cluster::from_config(cfg).unwrap()
}

/// A parallel region takes nothing from the shared pool: 300 regions with
/// an execute-once `single` each run on a 64-page pool.
#[test]
fn parallel_regions_take_nothing_from_the_pool() {
    let src = r#"
int main() {
    int r;
    double n[1];
    n[0] = 0.0;
    for (r = 0; r < 300; r++) {
        #pragma omp parallel
        {
            #pragma omp single
            {
                n[0] = n[0] + 1.0;
            }
        }
    }
    printf("%f\n", n[0]);
    return 0;
}
"#;
    let prog = parse(src).unwrap_or_else(|e| panic!("parse error: {e}"));
    let out = Interp::new(prog)
        .run(&small_pool_cluster())
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(out.stdout, "300.000000\n");
}

/// A `lastprivate` region reuses the run's one scratch: 300 of them run on
/// a 64-page pool, and each hands its last iteration's value back.
#[test]
fn lastprivate_regions_take_nothing_from_the_pool() {
    let src = r#"
int main() {
    int r;
    int i;
    double last = 0.0;
    double total = 0.0;
    for (r = 0; r < 300; r++) {
        #pragma omp parallel for lastprivate(last)
        for (i = 0; i < 8; i++) {
            last = r + i;
        }
        total = total + last;
    }
    printf("%f %f\n", last, total);
    return 0;
}
"#;
    let prog = parse(src).unwrap_or_else(|e| panic!("parse error: {e}"));
    let out = Interp::new(prog)
        .run(&small_pool_cluster())
        .unwrap_or_else(|e| panic!("{e}"));
    // `last` is 299 + 7; `total` is the sum over r of r + 7.
    assert_eq!(out.stdout, "306.000000 46950.000000\n");
}

/// Variables that each fit the pool but together overflow it: the one the
/// allocator refuses is a runtime error naming it, its bytes and the bytes
/// left, and no node allocates it.
#[test]
fn shared_variables_past_what_the_pool_has_left_are_a_named_runtime_error() {
    let src = r#"
int main() {
    int i;
    double a[12288];
    double b[12288];
    #pragma omp parallel for
    for (i = 0; i < 4; i++) {
        a[i] = 1.0;
        b[i] = 1.0;
    }
    return 0;
}
"#;
    let prog = parse(src).unwrap_or_else(|e| panic!("parse error: {e}"));
    let err = Interp::new(prog)
        .run(&small_pool_cluster())
        .expect_err("`b` does not fit")
        .to_string();
    assert_eq!(
        err,
        "runtime error: shared variable `b` needs 98304 bytes, \
         but 65536 bytes of the 262144-byte shared pool are left"
    );
}
