//! Helmholtz equation solver (the `jacobi.f` OpenMP sample the paper uses,
//! §6.2): solves `(∂²/∂x² + ∂²/∂y² - α)u = f` on a regular mesh with a
//! Jacobi iteration + over-relaxation.
//!
//! Each iteration copies `u` into `uold`, applies the 5-point stencil, and
//! reduces the residual — the "shared variable updated competitively to
//! check the threshold" that ParADE turns into a reduction collective,
//! making the program scale nearly linearly (Figure 10).

use parade_core::{Cluster, RunReport, ThreadCtx};

use crate::cost;

/// Problem setup (defaults follow the openmp.org driver: α=0.0543,
/// ω=0.9, tol=1e-7).
#[derive(Debug, Clone, Copy)]
pub struct HelmholtzParams {
    pub n: usize,
    pub m: usize,
    pub alpha: f64,
    pub omega: f64,
    pub tol: f64,
    pub max_iters: usize,
}

impl Default for HelmholtzParams {
    fn default() -> Self {
        HelmholtzParams {
            n: 200,
            m: 200,
            alpha: 0.0543,
            omega: 0.9,
            tol: 1e-7,
            max_iters: 1000,
        }
    }
}

impl HelmholtzParams {
    pub fn sized(n: usize, m: usize, max_iters: usize) -> Self {
        HelmholtzParams {
            n,
            m,
            max_iters,
            ..HelmholtzParams::default()
        }
    }

    fn dx(&self) -> f64 {
        2.0 / (self.n as f64 - 1.0)
    }

    fn dy(&self) -> f64 {
        2.0 / (self.m as f64 - 1.0)
    }

    /// Driver right-hand side for the manufactured solution
    /// `u = (1-x²)(1-y²)`.
    fn rhs(&self, i: usize, j: usize) -> f64 {
        let x = -1.0 + self.dx() * i as f64;
        let y = -1.0 + self.dy() * j as f64;
        -self.alpha * (1.0 - x * x) * (1.0 - y * y) - 2.0 * (1.0 - x * x) - 2.0 * (1.0 - y * y)
    }

    /// The exact solution at grid point (i, j).
    pub fn exact(&self, i: usize, j: usize) -> f64 {
        let x = -1.0 + self.dx() * i as f64;
        let y = -1.0 + self.dy() * j as f64;
        (1.0 - x * x) * (1.0 - y * y)
    }
}

/// Outcome of a solve.
#[derive(Debug, Clone, Copy)]
pub struct HelmholtzResult {
    /// Final residual (the loop's convergence variable).
    pub error: f64,
    /// Iterations executed.
    pub iters: usize,
    /// RMS error against the manufactured exact solution.
    pub solution_error: f64,
}

fn stencil_coeffs(p: &HelmholtzParams) -> (f64, f64, f64) {
    let ax = 1.0 / (p.dx() * p.dx());
    let ay = 1.0 / (p.dy() * p.dy());
    let b = -2.0 * ax - 2.0 * ay - p.alpha;
    (ax, ay, b)
}

/// Sequential reference solver.
pub fn helmholtz_sequential(p: HelmholtzParams) -> HelmholtzResult {
    let (n, m) = (p.n, p.m);
    let (ax, ay, b) = stencil_coeffs(&p);
    let mut u = vec![0.0f64; n * m];
    let mut uold = vec![0.0f64; n * m];
    let f: Vec<f64> = (0..n * m).map(|k| p.rhs(k / m, k % m)).collect();
    let mut error = 10.0 * p.tol;
    let mut iters = 0;
    while iters < p.max_iters && error > p.tol {
        uold.copy_from_slice(&u);
        error = 0.0;
        for i in 1..n - 1 {
            for j in 1..m - 1 {
                let resid = (ax * (uold[(i - 1) * m + j] + uold[(i + 1) * m + j])
                    + ay * (uold[i * m + j - 1] + uold[i * m + j + 1])
                    + b * uold[i * m + j]
                    - f[i * m + j])
                    / b;
                u[i * m + j] = uold[i * m + j] - p.omega * resid;
                error += resid * resid;
            }
        }
        error = error.sqrt() / (n * m) as f64;
        iters += 1;
    }
    HelmholtzResult {
        error,
        iters,
        solution_error: rms_error(&p, &u),
    }
}

fn rms_error(p: &HelmholtzParams, u: &[f64]) -> f64 {
    let (n, m) = (p.n, p.m);
    let mut e = 0.0;
    for i in 0..n {
        for j in 0..m {
            let d = u[i * m + j] - p.exact(i, j);
            e += d * d;
        }
    }
    (e / (n * m) as f64).sqrt()
}

/// ParADE solver: rows partitioned across threads; `u`/`uold` live in the
/// DSM (neighbour rows travel between adjacent nodes); the per-iteration
/// residual is a reduction collective.
pub fn helmholtz_parade(cluster: &Cluster, p: HelmholtzParams) -> (HelmholtzResult, RunReport) {
    let (n, m) = (p.n, p.m);
    cluster.run_with_report(move |g| {
        let u = g.alloc_f64(n * m);
        let uold = g.alloc_f64(n * m);
        let fv = g.alloc_f64(n * m);

        let (error, iters) = g.parallel(move |tc: &ThreadCtx| {
            let rows = tc.for_static(0..n);
            let (ax, ay, b) = stencil_coeffs(&p);
            // Initialize owned rows of f and u.
            {
                let mut finit = vec![0.0f64; rows.len() * m];
                for (bi, i) in rows.clone().enumerate() {
                    for j in 0..m {
                        finit[bi * m + j] = p.rhs(i, j);
                    }
                }
                tc.write_from(&fv, rows.start * m, &finit);
                tc.write_from(&u, rows.start * m, &vec![0.0; rows.len() * m]);
            }
            tc.barrier();

            // Interior row span owned by this thread.
            let lo = rows.start.max(1);
            let hi = rows.end.min(n - 1);
            let points = hi.saturating_sub(lo) * (m - 2);
            let mut fl = vec![0.0f64; rows.len() * m];
            tc.read_into(&fv, rows.start * m, &mut fl);

            let mut error = 10.0 * p.tol;
            let mut iters = 0usize;
            let block = rows.start * m..rows.end * m;
            // Owned rows plus the neighbour's row above and below.
            let above = rows.start.saturating_sub(1);
            let below = (rows.end + 1).min(n);
            // The one row being computed; every other operand is read where
            // the DSM keeps it.
            let mut row = vec![0.0f64; m];
            while iters < p.max_iters && error > p.tol {
                // uold = u (owned rows), pool to pool.
                tc.view(&u, block.clone(), |ub| {
                    tc.write_from(&uold, block.start, ub)
                });
                tc.barrier();
                let local_err = tc.view(&uold, above * m..below * m, |old| {
                    let old_row = |i: usize| &old[(i - above) * m..(i - above + 1) * m];
                    let mut local_err = 0.0;
                    for i in rows.clone() {
                        if i < lo || i >= hi {
                            // A boundary row keeps its values, and is stored
                            // all the same: the owned block is written whole.
                            tc.write_from(&u, i * m, old_row(i));
                            continue;
                        }
                        let (up, mid, dn) = (old_row(i - 1), old_row(i), old_row(i + 1));
                        let f = &fl[(i - rows.start) * m..(i - rows.start + 1) * m];
                        row[0] = mid[0];
                        row[m - 1] = mid[m - 1];
                        for j in 1..m - 1 {
                            let resid = (ax * (up[j] + dn[j])
                                + ay * (mid[j - 1] + mid[j + 1])
                                + b * mid[j]
                                - f[j])
                                / b;
                            row[j] = mid[j] - p.omega * resid;
                            local_err += resid * resid;
                        }
                        tc.write_from(&u, i * m, &row);
                    }
                    local_err
                });
                tc.compute(cost::HELMHOLTZ_POINT.of(points));
                // The competitively-updated threshold variable becomes one
                // reduction collective per iteration (§6.2).
                error = tc.reduce_f64_sum(local_err).sqrt() / (n * m) as f64;
                tc.barrier();
                iters += 1;
            }
            (error, iters)
        });

        // RMS error against the exact solution, computed serially.
        HelmholtzResult {
            error,
            iters,
            solution_error: g.view(&u, 0..n * m, |ufinal| rms_error(&p, ufinal)),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_converges_toward_exact_solution() {
        // Jacobi converges at 1 - O(h²) per sweep, so use a small grid
        // with plenty of iterations.
        let p = HelmholtzParams::sized(24, 24, 2000);
        let r = helmholtz_sequential(p);
        assert!(r.iters > 10);
        assert!(r.solution_error < 0.05, "rms {}", r.solution_error);
    }

    #[test]
    fn rhs_is_symmetric() {
        let p = HelmholtzParams::sized(21, 21, 1);
        assert!((p.rhs(3, 7) - p.rhs(7, 3)).abs() < 1e-12);
        assert!((p.exact(0, 5)).abs() < 1e-12, "boundary is zero");
    }
}
