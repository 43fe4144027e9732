#!/usr/bin/env bash
# Tier-1 CI entry point. The workspace is hermetic: it builds and tests
# with zero external crates, so everything below runs with --offline and
# must pass on a machine with no network access at all.
#
#   scripts/ci.sh          # build + test (tier-1 gate)
#   scripts/ci.sh --quick  # debug build + test only (skips release build)
#
# Optional extras run only when the tool is installed:
#   cargo fmt --check      # style gate (rustfmt component)
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
  QUICK=1
fi

echo "== cargo build --release --offline =="
if [[ "$QUICK" == "0" ]]; then
  cargo build --release --offline
else
  echo "(skipped: --quick)"
fi

echo "== cargo test -q --offline --workspace =="
cargo test -q --offline --workspace

echo "== cargo build --offline --bins =="
cargo build --offline --workspace --bins

echo "== benchmark package: build + unit tests + smoke run =="
# benchmark/ is a package of its own (own [workspace], path dependencies on
# crates/*), so the workspace commands above never compile it — and it is
# what the pipeline judges every PR with. Its smoke run verifies every
# workload's result in-process; the exit status is the whole check.
BENCHMARK_TMP="$(mktemp -d)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
  run --quick --out "$BENCHMARK_TMP/run.json" > /dev/null
rm -rf "$BENCHMARK_TMP"

echo "== cargo clippy --offline --workspace -- -D warnings =="
if cargo clippy --version >/dev/null 2>&1; then
  cargo clippy --offline --workspace --all-targets -- -D warnings
else
  echo "(skipped: clippy not installed)"
fi

echo "== cargo doc --offline --no-deps --workspace, warnings denied (no broken doc link) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== scripts/unused_pub.sh (every pub fn has a caller) =="
scripts/unused_pub.sh

echo "== paradec check + run + translate over examples/openmp (analyzer, interpreter and emitter smoke) =="
for f in examples/openmp/*.c; do
  cargo run -q --offline -p parade-check --bin paradec -- check "$f"
  cargo run -q --offline -p parade-check --bin paradec -- \
    run "$f" --nodes 2 --threads 2 > /dev/null
  for mode in parade sdsm; do
    cargo run -q --offline -p parade-check --bin paradec -- \
      translate "$f" --mode "$mode" > /dev/null
  done
done
echo "== examples/openmp against libgomp: cc -fopenmp at 1 and 4 threads vs paradec run at 1x1 and 2x2 =="
# The host's OpenMP compiler is the reference implementation: each example
# built with `cc -fopenmp` must print what the release paradec prints, and
# exit with the same status, at the same team size. No compiler fails the
# step; it is not skipped.
if ! command -v cc >/dev/null 2>&1; then
  echo "libgomp reference step: no 'cc' on PATH (it needs a C compiler with -fopenmp)" >&2
  exit 1
fi
CC_TMP="$(mktemp -d)"
for f in examples/openmp/*.c; do
  name="$(basename "$f" .c)"
  cc -fopenmp -O1 -o "$CC_TMP/$name" "$f" -lm
  for shape in "1 1 1" "4 2 2"; do
    read -r omp nodes threads <<<"$shape"
    want=0
    OMP_NUM_THREADS="$omp" "$CC_TMP/$name" > "$CC_TMP/want" || want=$?
    got=0
    cargo run -q --release --offline -p parade-check --bin paradec -- \
      run "$f" --nodes "$nodes" --threads "$threads" > "$CC_TMP/got" 2>/dev/null || got=$?
    if [[ "$want" != "$got" ]] || ! diff -u "$CC_TMP/want" "$CC_TMP/got"; then
      echo "$f: paradec at ${nodes}x${threads} (exit $got) differs from cc -fopenmp at OMP_NUM_THREADS=$omp (exit $want)" >&2
      exit 1
    fi
  done
done
rm -rf "$CC_TMP"
echo "== examples/*.rs, optimized (exit status only) =="
for f in examples/*.rs; do
  cargo run -q --release --offline --example "$(basename "$f" .rs)" > /dev/null
done

# The analyzer gate must also FAIL closed: a racy program exits non-zero.
RACY_TMP="$(mktemp -d)"
cat > "$RACY_TMP/racy.c" <<'EOF'
int main() {
    int i;
    double sum;
    sum = 0.0;
    #pragma omp parallel for
    for (i = 0; i < 64; i++) {
        sum += 1.0;
    }
    return 0;
}
EOF
if cargo run -q --offline -p parade-check --bin paradec -- check "$RACY_TMP/racy.c" \
    2>"$RACY_TMP/err"; then
  echo "paradec check accepted a racy program" >&2
  exit 1
fi
grep -q "error\[PC001\]" "$RACY_TMP/err"
rm -rf "$RACY_TMP"

# The flow-sensitive lints must also FAIL closed: the deadlocking corpus
# programs exit non-zero with the expected code, and their clean twins pass.
DEADLOCK_TMP="$(mktemp -d)"
if cargo run -q --offline -p parade-check --bin paradec -- \
    check tests/corpus/conform/barrier_divergent_break.c 2>"$DEADLOCK_TMP/err"; then
  echo "paradec check accepted a divergent-barrier deadlock" >&2
  exit 1
fi
grep -q "error\[PC009\]" "$DEADLOCK_TMP/err"
if cargo run -q --offline -p parade-check --bin paradec -- \
    check tests/corpus/conform/barrier_thread_dep.c 2>"$DEADLOCK_TMP/err"; then
  echo "paradec check accepted a barrier under a thread-dependent if" >&2
  exit 1
fi
grep -q "error\[PC009\]" "$DEADLOCK_TMP/err"
# A private variable set only where some threads run (a `master` body)
# keeps its own value on the rest of the team: a barrier under it deadlocks.
cat > "$DEADLOCK_TMP/master_private.c" <<'EOF'
int main() {
    int k;
    #pragma omp parallel private(k)
    {
        #pragma omp master
        { k = 1; }
        if (k > 0) {
            #pragma omp barrier
        }
    }
    return 0;
}
EOF
if cargo run -q --offline -p parade-check --bin paradec -- \
    check "$DEADLOCK_TMP/master_private.c" 2>"$DEADLOCK_TMP/err"; then
  echo "paradec check accepted a barrier under a value only the master set" >&2
  exit 1
fi
grep -q "error\[PC009\]" "$DEADLOCK_TMP/err"
cargo run -q --offline -p parade-check --bin paradec -- \
  check tests/corpus/clean/barrier_uniform_break.c >/dev/null
# ...and accept: a barrier under a condition on a private variable that
# every thread assigns the same value is legal, and runs to the end.
cat > "$DEADLOCK_TMP/uniform_private.c" <<'EOF'
int main() {
    int k;
    #pragma omp parallel private(k)
    {
        k = 1;
        if (k > 0) {
            #pragma omp barrier
        }
    }
    return 0;
}
EOF
cargo run -q --offline -p parade-check --bin paradec -- \
  run "$DEADLOCK_TMP/uniform_private.c" --nodes 2 --threads 2 >/dev/null
rm -rf "$DEADLOCK_TMP"

# The front end accepts OpenMP 1.0 only: every command refuses a tasking
# directive with the parser's message.
TASK_TMP="$(mktemp -d)"
cat > "$TASK_TMP/task.c" <<'EOF'
int main() {
    double x;
    x = 0.0;
    #pragma omp parallel
    {
        #pragma omp task
        x = 1.0;
    }
    return 0;
}
EOF
for cmd in check translate run; do
  if cargo run -q --offline -p parade-check --bin paradec -- "$cmd" "$TASK_TMP/task.c" \
      >/dev/null 2>"$TASK_TMP/err"; then
    echo "paradec $cmd accepted an OpenMP task" >&2
    exit 1
  fi
  grep -q "unsupported OpenMP directive 'task'" "$TASK_TMP/err"
done
rm -rf "$TASK_TMP"

# ...and a work-sharing loop's own reduction clause, even past the analyzer
# gate: the clause is not lowered, and the loop would run its updates as
# plain shared writes (a wrong sum at every shape but 1x1).
RED_TMP="$(mktemp -d)"
cat > "$RED_TMP/loop_reduction.c" <<'EOF'
#include <stdio.h>
int main() {
    int i; int it; double err; double a[64];
    for (i = 0; i < 64; i++) {
        a[i] = 0.01;
    }
    #pragma omp parallel private(it)
    {
        for (it = 0; it < 2; it++) {
            #pragma omp single
            {
                err = 0.0;
            }
            #pragma omp for reduction(+:err)
            for (i = 0; i < 64; i++) {
                err += a[i];
            }
        }
    }
    printf("%f\n", err);
    return 0;
}
EOF
if cargo run -q --offline -p parade-check --bin paradec -- run "$RED_TMP/loop_reduction.c" \
    --no-check --nodes 2 --threads 2 >/dev/null 2>"$RED_TMP/err"; then
  echo "paradec run --no-check accepted a work-sharing loop's reduction clause" >&2
  exit 1
fi
grep -q "unsupported clause 'reduction' on '#pragma omp for'" "$RED_TMP/err"
rm -rf "$RED_TMP"

# A program error fails the run by name: unbounded recursion, a shared
# array past the pool and one past what the pool has left exit non-zero,
# but none aborts the process (134, a stack overflow) or panics it (101),
# and stderr names the error.
ERR_TMP="$(mktemp -d)"
cat > "$ERR_TMP/recursive_main.c" <<'EOF'
int main() {
    return main() + 1;
}
EOF
cat > "$ERR_TMP/huge_shared.c" <<'EOF'
int main() {
    int i;
    double a[2000000000];
    #pragma omp parallel for
    for (i = 0; i < 4; i++) {
        a[i] = 1.0;
    }
    return 0;
}
EOF
for name in recursive_main huge_shared; do
  status=0
  cargo run -q --offline -p parade-check --bin paradec -- run "$ERR_TMP/$name.c" \
    --nodes 2 --threads 2 >/dev/null 2>"$ERR_TMP/$name.err" || status=$?
  if [[ "$status" == 0 || "$status" == 134 || "$status" == 101 ]]; then
    echo "paradec run $name.c exited $status" >&2
    cat "$ERR_TMP/$name.err" >&2
    exit 1
  fi
done
grep -q "call to main() at call depth [0-9]* passes the 1024 KiB call stack limit" \
  "$ERR_TMP/recursive_main.err"
grep -q "shared variable \`a\` needs 16000000000 bytes" "$ERR_TMP/huge_shared.err"

# The shared pool at 2x2, with the optimized paradec: 20 000 parallel
# regions take nothing from it, 20 000 `lastprivate` loops nothing past
# their one scratch, and of two arrays that each fit it but not together,
# the second fails the run by name instead of panicking it.
cat > "$ERR_TMP/many_regions.c" <<'EOF'
#include <stdio.h>
int main() {
    int r;
    double n[1];
    n[0] = 0.0;
    for (r = 0; r < 20000; r++) {
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
EOF
cat > "$ERR_TMP/many_lastprivates.c" <<'EOF'
#include <stdio.h>
int main() {
    int r;
    int i;
    double last = 0.0;
    for (r = 0; r < 20000; r++) {
        #pragma omp parallel for lastprivate(last)
        for (i = 0; i < 8; i++) {
            last = r + i;
        }
    }
    printf("%f\n", last);
    return 0;
}
EOF
cat > "$ERR_TMP/two_arrays.c" <<'EOF'
int main() {
    int i;
    double a[5000000];
    double b[5000000];
    #pragma omp parallel for
    for (i = 0; i < 4; i++) {
        a[i] = 1.0;
        b[i] = 1.0;
    }
    return 0;
}
EOF
cargo run -q --release --offline -p parade-check --bin paradec -- run \
  "$ERR_TMP/many_regions.c" --nodes 2 --threads 2 > "$ERR_TMP/many_regions.out"
grep -qx "20000.000000" "$ERR_TMP/many_regions.out"
cargo run -q --release --offline -p parade-check --bin paradec -- run \
  "$ERR_TMP/many_lastprivates.c" --nodes 2 --threads 2 > "$ERR_TMP/many_lastprivates.out"
grep -qx "20006.000000" "$ERR_TMP/many_lastprivates.out"
status=0
cargo run -q --release --offline -p parade-check --bin paradec -- run \
  "$ERR_TMP/two_arrays.c" --nodes 2 --threads 2 >/dev/null 2>"$ERR_TMP/two_arrays.err" || status=$?
if [[ "$status" == 0 || "$status" == 134 || "$status" == 101 ]]; then
  echo "paradec run two_arrays.c exited $status" >&2
  cat "$ERR_TMP/two_arrays.err" >&2
  exit 1
fi
grep -q "shared variable \`b\` needs 40000000 bytes" "$ERR_TMP/two_arrays.err"
rm -rf "$ERR_TMP"

echo "== serving soak, optimized (1000 jobs; ignored in the debug test step) =="
# tests/serve_soak.rs: every job completes exactly once, bit-identical to
# its sequential reference, with >=1 re-home and no growth in host threads.
cargo test -q --release --offline --test serve_soak

echo "== paper claims, optimized (Figs. 8-11 and the home ablation; ignored in the debug test step) =="
# tests/paper_claims.rs: the kernel figures at class W sizes on counted
# compute, about 20 s; the manual-clock claims already ran above.
cargo test -q --release --offline --test paper_claims

echo "== virtual-time golden, optimized (the only place its 256-node rung runs) =="
# tests/vtime_golden.rs compares release/, coll/, tasks/ and adapt/ with ==
# against tests/golden/vtime.tsv; the workspace test step above already ran
# it in a debug build, up to 128 nodes.
cargo test -q --release --offline --test vtime_golden

if cargo fmt --version >/dev/null 2>&1; then
  echo "== cargo fmt --check =="
  cargo fmt --check
else
  echo "== cargo fmt --check skipped (rustfmt not installed) =="
fi

echo "ci: OK"
