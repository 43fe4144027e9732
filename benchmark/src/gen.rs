//! Seeded input generation: the RNG and the mini-C OpenMP corpus.
//!
//! The corpus is scaled variants of six programs the repository already
//! ships (`examples/openmp/{relax,pi,dot}.c` and
//! `tests/corpus/clean/{jacobi_step,reduction_sum,critical_update}.c`).
//! The seed picks sizes, constants and program order. Sizes move by a few
//! percent only, so total interpreter work — and with it every end-to-end
//! number — stays comparable from seed to seed.
//!
//! Every program prints results that do not depend on the thread count
//! (sums are printed to fewer digits than reduction order can disturb), so
//! the 1-node × 1-thread run is a valid reference for the 2 × 2 run. The
//! last line a program prints is `@wtime <seconds>`: its own
//! `omp_get_wtime()`, which under the manual clock is the simulated time the
//! program took. The harness strips that line before comparing output.

/// SplitMix64: small, seedable, and good enough to pick sizes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// The `i`-th seed derived from `seed`, well mixed whatever pattern the seeds
/// themselves follow: the seeds of the job mixes `serve_mix` cycles through.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    Rng::new(seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

pub struct Program {
    /// `<kind>_<index>`, for span files and failure messages.
    pub name: String,
    pub source: String,
    /// Loop iterations the program executes, known from its sizes.
    pub trips: u64,
}

/// Prefix of the line carrying the program's own simulated time.
pub const WTIME_PREFIX: &str = "@wtime ";

const EPILOGUE: &str = "    printf(\"@wtime %.9f\\n\", omp_get_wtime());\n    return 0;\n}\n";

/// Largest size per kind; the seed takes off up to ~3 %. `shrink` divides
/// them for the smoke mode.
fn size(rng: &mut Rng, base: u64, shrink: u64) -> u64 {
    let base = base / shrink;
    base - rng.below(base / 32 + 1)
}

fn relax(rng: &mut Rng, shrink: u64) -> (String, u64) {
    let n = size(rng, 4096, shrink);
    let iters = 12;
    let left = rng.pick(&[0.5, 1.0, 1.5, 2.0]);
    let right = rng.pick(&[0.5, 1.0, 1.5, 2.0]);
    let src = format!(
        "#include <stdio.h>\n#include <math.h>\n\nint main() {{\n    int i;\n    int it;\n    \
         double u[{n}];\n    double unew[{n}];\n    double err;\n\n    \
         #pragma omp parallel for\n    for (i = 0; i < {n}; i++) {{\n        u[i] = 0.0;\n    }}\n    \
         u[0] = {left:?};\n    u[{last}] = {right:?};\n\n    \
         for (it = 0; it < {iters}; it++) {{\n        err = 0.0;\n        \
         #pragma omp parallel for reduction(+ : err)\n        for (i = 1; i < {last}; i++) {{\n            \
         unew[i] = 0.5 * (u[i - 1] + u[i + 1]);\n            \
         err += (unew[i] - u[i]) * (unew[i] - u[i]);\n        }}\n        \
         #pragma omp parallel for\n        for (i = 1; i < {last}; i++) {{\n            u[i] = unew[i];\n        }}\n    }}\n    \
         printf(\"residual = %.6e\\n\", sqrt(err));\n{EPILOGUE}",
        last = n - 1,
    );
    (src, n + iters * 2 * (n - 2))
}

fn pi(rng: &mut Rng, shrink: u64) -> (String, u64) {
    let n = size(rng, 65536, shrink);
    let src = format!(
        "#include <stdio.h>\n\nint main() {{\n    int i;\n    int n;\n    double h;\n    double x;\n    double pi;\n\n    \
         n = {n};\n    h = 1.0 / n;\n    pi = 0.0;\n    \
         #pragma omp parallel for private(x) reduction(+ : pi)\n    for (i = 0; i < n; i++) {{\n        \
         x = h * (i + 0.5);\n        pi += 4.0 / (1.0 + x * x);\n    }}\n    pi = pi * h;\n    \
         printf(\"pi ~= %.8f\\n\", pi);\n{EPILOGUE}"
    );
    (src, n)
}

fn dot(rng: &mut Rng, shrink: u64) -> (String, u64) {
    let n = size(rng, 16384, shrink);
    let c = 0.001 * (1 + rng.below(8)) as f64;
    let src = format!(
        "#include <stdio.h>\n#include <math.h>\n\nint main() {{\n    int i;\n    double a[{n}];\n    double b[{n}];\n    \
         double dot;\n    double norm;\n    double checks;\n\n    \
         #pragma omp parallel for\n    for (i = 0; i < {n}; i++) {{\n        a[i] = {c:?} * i;\n        b[i] = 1.0 - {c:?} * i;\n    }}\n\n    \
         dot = 0.0;\n    #pragma omp parallel for reduction(+ : dot)\n    for (i = 0; i < {n}; i++) {{\n        dot += a[i] * b[i];\n    }}\n\n    \
         norm = 0.0;\n    #pragma omp parallel for reduction(max : norm)\n    for (i = 0; i < {n}; i++) {{\n        norm = fmax(norm, fabs(a[i]));\n    }}\n\n    \
         checks = 0.0;\n    #pragma omp parallel\n    {{\n        #pragma omp critical\n        {{\n            \
         checks = checks + 1.0 / omp_get_num_threads();\n        }}\n    }}\n    \
         printf(\"dot = %.6e, max|a| = %.6f, checks = %.6f\\n\", dot, norm, checks);\n{EPILOGUE}"
    );
    (src, 3 * n)
}

fn jacobi_step(rng: &mut Rng, shrink: u64) -> (String, u64) {
    let n = size(rng, 8192, shrink);
    let sweeps = 6;
    let c = rng.pick(&[0.25, 0.5, 1.0, 2.0]);
    let src = format!(
        "#include <stdio.h>\n\nint main() {{\n    int i;\n    int s;\n    double a[{n}];\n    double b[{n}];\n    \
         #pragma omp parallel for\n    for (i = 0; i < {n}; i++) {{\n        a[i] = {c:?} * i;\n        b[i] = 0.0;\n    }}\n    \
         for (s = 0; s < {sweeps}; s++) {{\n        \
         #pragma omp parallel for\n        for (i = 1; i < {last}; i++) {{\n            b[i] = 0.5 * (a[i - 1] + a[i + 1]);\n        }}\n        \
         #pragma omp parallel for\n        for (i = 1; i < {last}; i++) {{\n            a[i] = b[i];\n        }}\n    }}\n    \
         printf(\"%f\\n\", b[{mid}]);\n{EPILOGUE}",
        last = n - 1,
        mid = n / 2,
    );
    (src, n + sweeps * 2 * (n - 2))
}

fn reduction_sum(rng: &mut Rng, shrink: u64) -> (String, u64) {
    let n = size(rng, 32768, shrink);
    let c = rng.pick(&[0.25, 0.5, 1.0, 2.0]);
    let src = format!(
        "#include <stdio.h>\n\nint main() {{\n    int i;\n    double sum;\n    double a[{n}];\n    \
         #pragma omp parallel for\n    for (i = 0; i < {n}; i++) {{\n        a[i] = {c:?};\n    }}\n    sum = 0.0;\n    \
         #pragma omp parallel for reduction(+ : sum)\n    for (i = 0; i < {n}; i++) {{\n        sum += a[i];\n    }}\n    \
         printf(\"%f\\n\", sum);\n{EPILOGUE}"
    );
    (src, 2 * n)
}

fn critical_update(rng: &mut Rng, shrink: u64) -> (String, u64) {
    // A multiple of every team size in use (1 and 4 threads): `critical`
    // lowers to a collective, and a work-shared loop whose trip count does
    // not divide evenly deadlocks it (see README, known product bugs).
    let k = 8 * size(rng, 32, shrink.min(4));
    let w = rng.pick(&[0.25, 0.5, 1.0, 2.0]);
    let src = format!(
        "#include <stdio.h>\n\nint main() {{\n    int i;\n    double sum;\n    sum = 0.0;\n    \
         #pragma omp parallel for\n    for (i = 0; i < {k}; i++) {{\n        #pragma omp critical\n        {{\n            \
         sum = sum + {w:?};\n        }}\n    }}\n    printf(\"%f\\n\", sum);\n{EPILOGUE}"
    );
    (src, k)
}

type Template = fn(&mut Rng, u64) -> (String, u64);

const KINDS: [(&str, Template); 6] = [
    ("relax", relax),
    ("pi", pi),
    ("dot", dot),
    ("jacobi_step", jacobi_step),
    ("reduction_sum", reduction_sum),
    ("critical_update", critical_update),
];

/// `per_kind` programs of each kind, shuffled.
pub fn corpus(seed: u64, per_kind: usize, shrink: u64) -> Vec<Program> {
    let mut rng = Rng::new(seed);
    let mut programs = Vec::new();
    for (kind, template) in KINDS {
        for i in 0..per_kind {
            let (source, trips) = template(&mut rng, shrink);
            programs.push(Program {
                name: format!("{kind}_{i}"),
                source,
                trips,
            });
        }
    }
    // Fisher–Yates.
    for i in (1..programs.len()).rev() {
        programs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    programs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(c: &[Program]) -> String {
        c.iter()
            .map(|p| format!("// {}\n{}", p.name, p.source))
            .collect()
    }

    #[test]
    fn same_seed_same_programs_different_seed_different() {
        let a = corpus(7, 3, 1);
        let b = corpus(7, 3, 1);
        assert_eq!(text(&a).into_bytes(), text(&b).into_bytes());
        assert_ne!(text(&a), text(&corpus(8, 3, 1)));
        assert_eq!(a.len(), 18);
    }

    #[test]
    fn total_work_moves_little_with_the_seed() {
        let trips = |seed| -> u64 { corpus(seed, 4, 1).iter().map(|p| p.trips).sum() };
        let base = trips(1) as f64;
        for seed in 2..40 {
            let rel = (trips(seed) as f64 - base).abs() / base;
            assert!(rel < 0.02, "seed {seed}: total trips off by {rel}");
        }
    }

    #[test]
    fn sub_seeds_are_distinct_and_repeatable() {
        let a: Vec<u64> = (0..16).map(|i| sub_seed(42, i)).collect();
        let b: Vec<u64> = (0..16).map(|i| sub_seed(42, i)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 16);
        assert_ne!(sub_seed(42, 0), sub_seed(43, 0));
    }

    #[test]
    fn every_program_ends_with_the_wtime_line() {
        for p in corpus(3, 1, 16) {
            assert!(p
                .source
                .contains("printf(\"@wtime %.9f\\n\", omp_get_wtime());"));
            assert!(p.trips > 0);
        }
    }
}
