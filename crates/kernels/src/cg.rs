//! NAS CG (Conjugate Gradient) kernel, NPB 2.3.
//!
//! Estimates the smallest eigenvalue of a sparse symmetric positive
//! definite matrix by inverse power iteration, each step solving `Az = x`
//! with 25 conjugate-gradient iterations. The random matrix generator
//! (`makea`/`sprnvc`/`vecset`/`sparse`) is ported faithfully from NPB 2.3
//! so the published verification values of ζ hold.
//!
//! CG is the paper's communication-heavy benchmark (Figure 8): the search
//! direction `p` is read in full by every node each iteration (page
//! traffic), and the dot products become allreduce collectives.

use parade_core::{Cluster, MasterCtx, ReduceOp, RunReport, SharedVec, ThreadCtx};

use crate::cost;
use crate::nasrng::NasRng;

/// NAS CG problem classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CgClass {
    S,
    W,
    A,
}

/// Class parameters: (na, nonzer, shift, niter) and the published ζ.
#[derive(Debug, Clone, Copy)]
pub struct CgParams {
    pub na: usize,
    pub nonzer: usize,
    pub shift: f64,
    pub niter: usize,
    pub zeta_verify: f64,
}

impl CgClass {
    pub fn params(self) -> CgParams {
        match self {
            CgClass::S => CgParams {
                na: 1400,
                nonzer: 7,
                shift: 10.0,
                niter: 15,
                zeta_verify: 8.597_177_507_864_8,
            },
            CgClass::W => CgParams {
                na: 7000,
                nonzer: 8,
                shift: 12.0,
                niter: 15,
                zeta_verify: 10.362_595_087_124,
            },
            CgClass::A => CgParams {
                na: 14000,
                nonzer: 11,
                shift: 20.0,
                niter: 15,
                zeta_verify: 17.130_235_054_029,
            },
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            CgClass::S => "S",
            CgClass::W => "W",
            CgClass::A => "A",
        }
    }
}

const RCOND: f64 = 0.1;
const CGITMAX: usize = 25;

/// Sparse matrix in CSR form (0-based).
#[derive(Debug, Clone)]
pub struct Csr {
    pub n: usize,
    pub a: Vec<f64>,
    pub colidx: Vec<u32>,
    pub rowstr: Vec<u64>,
}

impl Csr {
    pub fn nnz(&self) -> usize {
        self.a.len()
    }

    /// `out = A * v` over rows `rows` (half-open).
    pub fn spmv_rows(&self, v: &[f64], rows: std::ops::Range<usize>, out: &mut [f64]) {
        for (oi, i) in rows.enumerate() {
            let mut sum = 0.0;
            for k in self.rowstr[i] as usize..self.rowstr[i + 1] as usize {
                sum += self.a[k] * v[self.colidx[k] as usize];
            }
            out[oi] = sum;
        }
    }
}

/// The NPB random-sparse-matrix generator. Indexing follows the original
/// 1-based Fortran/C layout internally and converts to 0-based CSR at the
/// end.
pub fn makea(class: CgClass) -> Csr {
    let p = class.params();
    let n = p.na;
    let nonzer = p.nonzer;
    let nz = n * (nonzer + 1) * (nonzer + 1) + n * (nonzer + 2);
    // The NPB driver warms the stream once (`zeta = randlc(&tran, amult)`)
    // before calling makea.
    let mut rng = NasRng::nas(crate::nasrng::NAS_SEED);
    let _zeta0 = rng.next_f64();

    let mut arow = vec![0usize; nz + 1];
    let mut acol = vec![0usize; nz + 1];
    let mut aelt = vec![0f64; nz + 1];
    let mut v = vec![0f64; n + 2];
    let mut iv = vec![0usize; n + 2];
    let mut mark = vec![false; n + 2];
    let mut nzloc = vec![0usize; n + 2];

    let (firstrow, lastrow, firstcol, lastcol) = (1usize, n, 1usize, n);
    let mut size = 1.0f64;
    let ratio = RCOND.powf(1.0 / n as f64);
    let mut nnza = 0usize;

    for iouter in 1..=n {
        let mut nzv = nonzer;
        sprnvc(
            n, &mut nzv, &mut v, &mut iv, &mut mark, &mut nzloc, &mut rng,
        );
        vecset(&mut v, &mut iv, &mut nzv, iouter, 0.5);
        for ivelt in 1..=nzv {
            let jcol = iv[ivelt];
            if jcol >= firstcol && jcol <= lastcol {
                let scale = size * v[ivelt];
                for ivelt1 in 1..=nzv {
                    let irow = iv[ivelt1];
                    if irow >= firstrow && irow <= lastrow {
                        nnza += 1;
                        assert!(nnza <= nz, "space for matrix elements exceeded");
                        acol[nnza] = jcol;
                        arow[nnza] = irow;
                        aelt[nnza] = v[ivelt1] * scale;
                    }
                }
            }
        }
        size *= ratio;
    }

    // Add the identity * (rcond - shift) to the diagonal.
    for i in firstrow..=lastrow {
        if i >= firstcol && i <= lastcol {
            nnza += 1;
            assert!(nnza <= nz);
            acol[nnza] = i;
            arow[nnza] = i;
            aelt[nnza] = RCOND - p.shift;
        }
    }

    sparse(
        n, &arow, &acol, &aelt, nnza, firstrow, lastrow, &mut v, &mut mark, &mut nzloc,
    )
}

/// Generate a sparse vector of `*nzv` random (value, index) pairs with
/// distinct indices (NPB `sprnvc`).
fn sprnvc(
    n: usize,
    nzv: &mut usize,
    v: &mut [f64],
    iv: &mut [usize],
    mark: &mut [bool],
    nzloc: &mut [usize],
    rng: &mut NasRng,
) {
    let target = *nzv;
    let mut nn1 = 1usize;
    while nn1 < n {
        nn1 <<= 1;
    }
    let mut nzrow = 0usize;
    let mut got = 0usize;
    while got < target {
        let vecelt = rng.next_f64();
        let vecloc = rng.next_f64();
        let i = (vecloc * nn1 as f64) as usize + 1;
        if i > n {
            continue;
        }
        if !mark[i] {
            mark[i] = true;
            nzrow += 1;
            nzloc[nzrow] = i;
            got += 1;
            v[got] = vecelt;
            iv[got] = i;
        }
    }
    for &i in &nzloc[1..=nzrow] {
        mark[i] = false;
    }
    *nzv = got;
}

/// Force value `val` at index `i` (NPB `vecset`).
fn vecset(v: &mut [f64], iv: &mut [usize], nzv: &mut usize, i: usize, val: f64) {
    let mut set = false;
    for k in 1..=*nzv {
        if iv[k] == i {
            v[k] = val;
            set = true;
        }
    }
    if !set {
        *nzv += 1;
        v[*nzv] = val;
        iv[*nzv] = i;
    }
}

/// Assemble the triples into CSR, summing duplicates (NPB `sparse`).
#[allow(clippy::too_many_arguments)]
fn sparse(
    n: usize,
    arow: &[usize],
    acol: &[usize],
    aelt: &[f64],
    nnza: usize,
    firstrow: usize,
    lastrow: usize,
    x: &mut [f64],
    mark: &mut [bool],
    nzloc: &mut [usize],
) -> Csr {
    let nrows = lastrow - firstrow + 1;
    let mut rowstr = vec![0usize; nrows + 2];
    let mut a = vec![0f64; nnza + 1];
    let mut colidx = vec![0usize; nnza + 1];

    for &row in &arow[1..=nnza] {
        let j = (row - firstrow + 1) + 1;
        rowstr[j] += 1;
    }
    rowstr[1] = 1;
    for j in 2..=nrows + 1 {
        rowstr[j] += rowstr[j - 1];
    }

    // Bucket sort triples by row.
    for nza in 1..=nnza {
        let j = arow[nza] - firstrow + 1;
        let k = rowstr[j];
        a[k] = aelt[nza];
        colidx[k] = acol[nza];
        rowstr[j] += 1;
    }
    for j in (1..=nrows).rev() {
        rowstr[j + 1] = rowstr[j];
    }
    rowstr[1] = 1;

    // Merge duplicate column entries within each row.
    let mut nza = 0usize;
    for i in 1..=n {
        x[i] = 0.0;
        mark[i] = false;
    }
    let mut jajp1 = rowstr[1];
    for j in 1..=nrows {
        let mut nzrow = 0usize;
        for k in jajp1..rowstr[j + 1] {
            let i = colidx[k];
            x[i] += a[k];
            if !mark[i] && x[i] != 0.0 {
                mark[i] = true;
                nzrow += 1;
                nzloc[nzrow] = i;
            }
        }
        for &i in &nzloc[1..=nzrow] {
            mark[i] = false;
            let xi = x[i];
            x[i] = 0.0;
            if xi != 0.0 {
                nza += 1;
                a[nza] = xi;
                colidx[nza] = i;
            }
        }
        jajp1 = rowstr[j + 1];
        rowstr[j + 1] = nza + rowstr[1];
    }

    // Convert to 0-based CSR.
    let mut out_rowstr = vec![0u64; nrows + 1];
    for j in 1..=nrows + 1 {
        out_rowstr[j - 1] = (rowstr[j] - 1) as u64;
    }
    let mut out_a = vec![0f64; nza];
    let mut out_col = vec![0u32; nza];
    for k in 1..=nza {
        out_a[k - 1] = a[k];
        out_col[k - 1] = (colidx[k] - 1) as u32;
    }
    // rowstr[0] must be 0 after conversion.
    debug_assert_eq!(out_rowstr[0], 0);
    Csr {
        n,
        a: out_a,
        colidx: out_col,
        rowstr: out_rowstr,
    }
}

/// Result of a CG run.
#[derive(Debug, Clone, Copy)]
pub struct CgResult {
    pub zeta: f64,
    /// Residual norm of the last conjugate-gradient solve.
    pub rnorm: f64,
}

impl CgResult {
    /// NPB verification: |ζ - ζ_ref| ≤ 1e-10.
    pub fn verify(&self, class: CgClass) -> bool {
        (self.zeta - class.params().zeta_verify).abs() <= 1e-10
    }
}

/// One conjugate-gradient solve (25 iterations), sequential.
fn conj_grad_seq(
    m: &Csr,
    x: &[f64],
    z: &mut [f64],
    p: &mut [f64],
    q: &mut [f64],
    r: &mut [f64],
) -> f64 {
    let n = m.n;
    z[..n].fill(0.0);
    r[..n].copy_from_slice(&x[..n]);
    p[..n].copy_from_slice(&x[..n]);
    let mut rho: f64 = r.iter().map(|v| v * v).sum();
    for _ in 0..CGITMAX {
        m.spmv_rows(p, 0..n, q);
        let d: f64 = p.iter().zip(q.iter()).map(|(a, b)| a * b).sum();
        let alpha = rho / d;
        for j in 0..n {
            z[j] += alpha * p[j];
            r[j] -= alpha * q[j];
        }
        let rho0 = rho;
        rho = r.iter().map(|v| v * v).sum();
        let beta = rho / rho0;
        for j in 0..n {
            p[j] = r[j] + beta * p[j];
        }
    }
    // Residual ||x - A z||.
    m.spmv_rows(z, 0..n, q);
    let sum: f64 = x.iter().zip(q.iter()).map(|(a, b)| (a - b) * (a - b)).sum();
    sum.sqrt()
}

/// Sequential reference CG (full NPB driver: untimed warm-up iteration,
/// then `niter` power iterations).
pub fn cg_sequential(class: CgClass) -> CgResult {
    let p = class.params();
    let m = makea(class);
    cg_sequential_on(&m, p.shift, p.niter)
}

/// Run the CG driver on a prebuilt matrix.
pub fn cg_sequential_on(m: &Csr, shift: f64, niter: usize) -> CgResult {
    let n = m.n;
    let mut x = vec![1.0f64; n];
    let mut z = vec![0f64; n];
    let mut pv = vec![0f64; n];
    let mut q = vec![0f64; n];
    let mut r = vec![0f64; n];
    // Untimed warm-up iteration.
    let _ = conj_grad_seq(m, &x, &mut z, &mut pv, &mut q, &mut r);
    let _t1: f64 = x.iter().zip(z.iter()).map(|(a, b)| a * b).sum();
    let t2: f64 = 1.0 / z.iter().map(|v| v * v).sum::<f64>().sqrt();
    for j in 0..n {
        x[j] = t2 * z[j];
    }
    // Reset for the timed part.
    x.fill(1.0);
    let mut zeta = 0.0;
    let mut rnorm = 0.0;
    for _ in 0..niter {
        rnorm = conj_grad_seq(m, &x, &mut z, &mut pv, &mut q, &mut r);
        let t1: f64 = x.iter().zip(z.iter()).map(|(a, b)| a * b).sum();
        let t2: f64 = 1.0 / z.iter().map(|v| v * v).sum::<f64>().sqrt();
        zeta = shift + 1.0 / t1;
        for j in 0..n {
            x[j] = t2 * z[j];
        }
    }
    CgResult { zeta, rnorm }
}

/// Shared-memory layout of the ParADE CG program.
struct CgShared {
    a: SharedVec<f64>,
    colidx: SharedVec<u32>,
    rowstr: SharedVec<u64>,
    x: SharedVec<f64>,
    z: SharedVec<f64>,
    p: SharedVec<f64>,
    q: SharedVec<f64>,
    r: SharedVec<f64>,
}

fn upload_matrix(g: &mut MasterCtx, m: &Csr) -> CgShared {
    let n = m.n;
    let sh = CgShared {
        a: g.alloc_f64(m.nnz()),
        colidx: g.alloc_vec::<u32>(m.nnz()),
        rowstr: g.alloc_vec::<u64>(n + 1),
        x: g.alloc_f64(n),
        z: g.alloc_f64(n),
        p: g.alloc_f64(n),
        q: g.alloc_f64(n),
        r: g.alloc_f64(n),
    };
    g.write_from(&sh.a, 0, &m.a);
    g.write_from(&sh.colidx, 0, &m.colidx);
    g.write_from(&sh.rowstr, 0, &m.rowstr);
    sh
}

/// ParADE CG: rows statically partitioned across threads, `p` (and `z` for
/// the residual) shared through the DSM, dot products through hierarchical
/// allreduce. The matrix pages are read-only after generation and localize
/// after the first touch; the owned segments of `x/z/q/r` localize via
/// migratory home.
pub fn cg_parade(cluster: &Cluster, class: CgClass) -> (CgResult, RunReport) {
    let prm = class.params();
    let m = makea(class);
    cg_parade_on(cluster, m, prm.shift, prm.niter)
}

/// Run the ParADE CG driver on a prebuilt matrix.
pub fn cg_parade_on(cluster: &Cluster, m: Csr, shift: f64, niter: usize) -> (CgResult, RunReport) {
    let n = m.n;
    cluster.run_with_report(move |g| {
        let sh = upload_matrix(g, &m);
        drop(m);
        let zeta_s = g.alloc_scalar_f64();
        let rnorm_s = g.alloc_scalar_f64();
        let (x, z, p, q, r) = (sh.x, sh.z, sh.p, sh.q, sh.r);
        let (a, colidx, rowstr) = (sh.a, sh.colidx, sh.rowstr);

        g.parallel(move |tc: &ThreadCtx| {
            let rows = tc.for_static(0..n);
            let nrows = rows.len();
            let lo = rows.start;

            // Local views of the owned row block and scratch for the full
            // `p`/`z` vectors (bulk reads model the page fetch traffic).
            let mut rowptr = vec![0u64; nrows + 1];
            tc.read_into(&rowstr, lo, &mut rowptr);
            let k0 = rowptr[0] as usize;
            let knnz = rowptr[nrows] as usize - k0;
            let mut la = vec![0f64; knnz];
            let mut lcol = vec![0u32; knnz];
            tc.read_into(&a, k0, &mut la);
            tc.read_into(&colidx, k0, &mut lcol);

            let mut pfull = vec![0f64; n];
            let mut lz = vec![0f64; nrows];
            let mut lr = vec![0f64; nrows];
            let mut lp = vec![0f64; nrows];
            let mut lq = vec![0f64; nrows];
            let mut lx = vec![1.0f64; nrows];

            let spmv = |src: &[f64], out: &mut [f64], la: &[f64], lcol: &[u32], rowptr: &[u64]| {
                for i in 0..out.len() {
                    let mut s = 0.0;
                    for k in rowptr[i] as usize - k0..rowptr[i + 1] as usize - k0 {
                        s += la[k] * src[lcol[k] as usize];
                    }
                    out[i] = s;
                }
            };

            let mut zeta = 0.0;
            let mut rnorm = 0.0;
            // `it == 0` is the untimed warm-up iteration; x resets after.
            for it in 0..=niter {
                // conj_grad
                lz.fill(0.0);
                lr.copy_from_slice(&lx);
                lp.copy_from_slice(&lx);
                // Publish p for everyone's SpMV.
                tc.write_from(&p, lo, &lp);
                let mut rho = tc.reduce_f64_sum(lr.iter().map(|v| v * v).sum());
                tc.barrier();
                for _ in 0..CGITMAX {
                    tc.read_into(&p, 0, &mut pfull);
                    spmv(&pfull, &mut lq, &la, &lcol, &rowptr);
                    tc.compute(cost::CG_NONZERO.of(knnz));
                    let d = tc.reduce_f64_sum(lp.iter().zip(lq.iter()).map(|(a, b)| a * b).sum());
                    let alpha = rho / d;
                    for j in 0..nrows {
                        lz[j] += alpha * lp[j];
                        lr[j] -= alpha * lq[j];
                    }
                    let rho0 = rho;
                    rho = tc.reduce_f64_sum(lr.iter().map(|v| v * v).sum());
                    let beta = rho / rho0;
                    for j in 0..nrows {
                        lp[j] = lr[j] + beta * lp[j];
                    }
                    // Publish the new p before the next SpMV.
                    tc.write_from(&p, lo, &lp);
                    tc.barrier();
                }
                // Residual ||x - A z||: needs the full z.
                tc.write_from(&z, lo, &lz);
                tc.barrier();
                let mut zfull = vec![0f64; n];
                tc.read_into(&z, 0, &mut zfull);
                spmv(&zfull, &mut lq, &la, &lcol, &rowptr);
                tc.compute(cost::CG_NONZERO.of(knnz));
                let sum = tc.reduce_f64_sum(
                    lx.iter()
                        .zip(lq.iter())
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum(),
                );
                rnorm = sum.sqrt();

                // Power-iteration bookkeeping.
                let t = tc.reduce_f64s(
                    ReduceOp::Sum,
                    &[
                        lx.iter().zip(lz.iter()).map(|(a, b)| a * b).sum(),
                        lz.iter().map(|v| v * v).sum(),
                    ],
                );
                let t1 = t[0];
                let t2 = 1.0 / t[1].sqrt();
                zeta = shift + 1.0 / t1;
                for j in 0..nrows {
                    lx[j] = t2 * lz[j];
                }
                if it == 0 {
                    // End of warm-up: reset x.
                    lx.fill(1.0);
                    zeta = 0.0;
                }
            }
            // Publish final x (so the master could inspect it) and the
            // scalars via the update protocol.
            tc.write_from(&x, lo, &lx);
            tc.master(|tc| {
                let _ = tc;
            });
            tc.atomic_f64(&zeta_s, ReduceOp::Max, zeta);
            tc.atomic_f64(&rnorm_s, ReduceOp::Max, rnorm);
        });
        let zeta = g.scalar_get_f64(&zeta_s);
        let rnorm = g.scalar_get_f64(&rnorm_s);
        // Silence unused warnings for the shared q/r handles kept for
        // parity with the NPB layout.
        let _ = (q, r);
        CgResult { zeta, rnorm }
    })
}

/// Pure message-passing CG (the MPI baseline of the paper's related-work
/// discussion [8]: SDSM versions achieve about half the MPI performance).
/// One rank per node, rows partitioned per rank, `p`/`z` exchanged by
/// allgather, dot products by allreduce — no shared memory at all.
pub fn cg_mpi(cfg: parade_cluster::ClusterConfig, class: CgClass) -> (CgResult, parade_net::VTime) {
    let prm = class.params();
    let m = std::sync::Arc::new(makea(class));
    let shift = prm.shift;
    let niter = prm.niter;
    let n = m.n;
    let (results, _report) = parade_cluster::launch(cfg, move |env| {
        use parade_core::partition;
        use parade_mpi::datatype;
        let mut clk = env.new_clock();
        let rows = partition(0..n, env.nnodes, env.node);
        let nrows = rows.len();
        let knnz = (m.rowstr[rows.end] - m.rowstr[rows.start]) as usize;
        let comm = env.comm;

        // Allgather helper: exchange each rank's row block of `local`,
        // producing the full vector.
        let allgather_rows = |local: &[f64], full: &mut [f64], clk: &mut parade_net::VClock| {
            let parts = comm.allgather_bytes(datatype::f64s_to_bytes(local), clk);
            for (r, part) in parts.iter().enumerate() {
                let rr = partition(0..n, comm.size(), r);
                datatype::read_f64s_into(part, &mut full[rr.start..rr.end]);
            }
        };

        let mut lx = vec![1.0f64; nrows];
        let mut lz = vec![0f64; nrows];
        let mut lr = vec![0f64; nrows];
        let mut lp = vec![0f64; nrows];
        let mut lq = vec![0f64; nrows];
        let mut pfull = vec![0f64; n];
        let mut zeta = 0.0;
        let mut rnorm = 0.0;
        for it in 0..=niter {
            lz.fill(0.0);
            lr.copy_from_slice(&lx);
            lp.copy_from_slice(&lx);
            let mut rho = comm.allreduce_f64(
                lr.iter().map(|v| v * v).sum(),
                parade_mpi::ReduceOp::Sum,
                &mut clk,
            );
            for _ in 0..CGITMAX {
                allgather_rows(&lp, &mut pfull, &mut clk);
                m.spmv_rows(&pfull, rows.clone(), &mut lq);
                clk.compute(cost::CG_NONZERO.of(knnz));
                let d = comm.allreduce_f64(
                    lp.iter().zip(lq.iter()).map(|(a, b)| a * b).sum(),
                    parade_mpi::ReduceOp::Sum,
                    &mut clk,
                );
                let alpha = rho / d;
                for j in 0..nrows {
                    lz[j] += alpha * lp[j];
                    lr[j] -= alpha * lq[j];
                }
                let rho0 = rho;
                rho = comm.allreduce_f64(
                    lr.iter().map(|v| v * v).sum(),
                    parade_mpi::ReduceOp::Sum,
                    &mut clk,
                );
                let beta = rho / rho0;
                for j in 0..nrows {
                    lp[j] = lr[j] + beta * lp[j];
                }
            }
            let mut zfull = vec![0f64; n];
            allgather_rows(&lz, &mut zfull, &mut clk);
            m.spmv_rows(&zfull, rows.clone(), &mut lq);
            clk.compute(cost::CG_NONZERO.of(knnz));
            let sum = comm.allreduce_f64(
                lx.iter()
                    .zip(lq.iter())
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum(),
                parade_mpi::ReduceOp::Sum,
                &mut clk,
            );
            rnorm = sum.sqrt();
            let t = {
                let t1: f64 = lx.iter().zip(lz.iter()).map(|(a, b)| a * b).sum();
                let t2: f64 = lz.iter().map(|v| v * v).sum();
                let mut buf = [t1, t2];
                comm.allreduce_f64s(&mut buf, parade_mpi::ReduceOp::Sum, &mut clk);
                buf
            };
            zeta = shift + 1.0 / t[0];
            let t2 = 1.0 / t[1].sqrt();
            for j in 0..nrows {
                lx[j] = t2 * lz[j];
            }
            if it == 0 {
                lx.fill(1.0);
                zeta = 0.0;
            }
        }
        (CgResult { zeta, rnorm }, clk.now())
    });
    let mut max_t = parade_net::VTime::ZERO;
    let mut res = results[0].0;
    for (r, t) in results {
        max_t = max_t.max(t);
        res = r;
    }
    (res, max_t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makea_class_s_shape() {
        let m = makea(CgClass::S);
        assert_eq!(m.n, 1400);
        assert_eq!(m.rowstr.len(), 1401);
        assert_eq!(m.rowstr[0], 0);
        assert_eq!(*m.rowstr.last().unwrap() as usize, m.nnz());
        // Every row non-empty, has a diagonal entry, and indices in range.
        for i in 0..m.n {
            let (s, e) = (m.rowstr[i] as usize, m.rowstr[i + 1] as usize);
            assert!(e > s, "row {i} empty");
            assert!(
                m.colidx[s..e].iter().any(|&c| c as usize == i),
                "row {i} lacks diagonal"
            );
            for &c in &m.colidx[s..e] {
                assert!((c as usize) < m.n);
            }
        }
    }

    #[test]
    fn makea_is_symmetric() {
        let m = makea(CgClass::S);
        // Spot-check symmetry on a sample of entries.
        let find = |i: usize, j: usize| -> Option<f64> {
            let (s, e) = (m.rowstr[i] as usize, m.rowstr[i + 1] as usize);
            (s..e).find(|&k| m.colidx[k] as usize == j).map(|k| m.a[k])
        };
        let mut checked = 0;
        for i in (0..m.n).step_by(97) {
            let (s, e) = (m.rowstr[i] as usize, m.rowstr[i + 1] as usize);
            for k in s..e {
                let j = m.colidx[k] as usize;
                let aij = m.a[k];
                let aji = find(j, i).expect("missing symmetric entry");
                assert!((aij - aji).abs() < 1e-12);
                checked += 1;
            }
        }
        assert!(checked > 100);
    }

    // Full ζ verification (classes S and W) lives in tests/kernels.rs and
    // runs in release mode.
}
