//! # parade-kernels — the paper's workloads
//!
//! Everything §6 of the paper measures, each with a sequential reference
//! implementation and a ParADE (runtime API) implementation:
//!
//! * [`ep`] — NAS EP class S/W/A (Figure 9), with the NPB verification
//!   sums;
//! * [`cg`] — NAS CG class S/W/A (Figure 8), with a faithful port of the
//!   NPB `makea` sparse-matrix generator and published ζ verification;
//! * [`helmholtz`] — the openmp.org Jacobi/Helmholtz sample (Figure 10);
//! * [`md`] — the openmp.org molecular dynamics sample (Figure 11);
//! * [`syncbench`] — EPCC-style directive overhead measurements
//!   (Figures 6 and 7);
//! * [`nasrng`] — the NPB 46-bit LCG with O(log n) jump-ahead;
//! * [`cost`] — the counted compute model: one per-unit cost per kernel,
//!   charged for the loop trips each one runs;
//! * [`figures`] — the §6 figures and the ablations as tables, printed by
//!   the `figures` binary.
//!
//! Two irregular workloads exercise the task scheduler (`parade-tasks`):
//!
//! * [`nbody_task`] — the MD force computation as a stolen task graph,
//!   bit-identical across steal schedules;
//! * [`pipeline`] — `items × stages` dependency chains with result
//!   injection, a software pipeline across the cluster.

pub mod cg;
pub mod cost;
pub mod ep;
pub mod figures;
pub mod helmholtz;
pub mod md;
pub mod nasrng;
pub mod nbody_task;
pub mod pipeline;
pub mod syncbench;
