//! # ParADE — Parallel Application Development Environment
//!
//! A reproduction of *"ParADE: An OpenMP Programming Environment for SMP
//! Cluster Systems"* (Kee, Kim, Ha — SC 2003) as a pure-Rust library.
//!
//! ParADE runs OpenMP-style programs on a cluster of SMP nodes by combining
//! a multi-threaded software distributed shared memory (SDSM) with a variant
//! of home-based lazy release consistency (HLRC, with migratory homes) and
//! explicit message-passing collectives for synchronization and work-sharing
//! directives over small data structures.
//!
//! Because the original system ran on real cluster hardware with
//! `mprotect`/`SIGSEGV` paging and a VIA interconnect, this reproduction
//! simulates the cluster in-process: every node is a set of real OS threads
//! with a private address-space copy, the interconnect is a message fabric
//! with a virtual-time cost model, and shared-memory accesses go through
//! typed handles that run the same page-fault protocol in software. See
//! `DESIGN.md` for the full substitution table.
//!
//! ## Crate map
//!
//! * [`net`] — simulated interconnect, virtual clocks, network profiles.
//! * [`mpi`] — thread-safe mini-MPI (send/recv, barrier, bcast, allreduce…).
//! * [`dsm`] — the multi-threaded SDSM: pages, twins/diffs, HLRC protocol,
//!   migratory homes, distributed locks (baseline), small-data objects.
//! * [`cluster`] — node engine: the fabric, one DSM and communication
//!   thread per node, the SPMD launch of node programs, execution
//!   configurations.
//! * [`core`] — the ParADE runtime API (the paper's programming interface):
//!   the fork/join team and compute-thread pools, `parallel`,
//!   work-sharing, `critical`/`atomic`/`single`/reductions.
//! * [`translator`] — the OpenMP translator: mini-C + OpenMP 1.0 frontend,
//!   directive lowering, translated-source emitter, interpreter.
//! * [`mir`] — basic-block MIR for the mini-C frontend: CFG lowering,
//!   worklist-fixpoint dataflow (reaching definitions, liveness,
//!   postdominators), and thread-divergence analysis.
//! * [`check`] — static OpenMP race & conformance analyzer (`paradec
//!   check`): lints PC001–PC009 with spans and stable ids, run
//!   flow-sensitively over [`mir`] and cross-checked against the
//!   interpreter's happens-before race oracle.
//! * [`kernels`] — NAS CG/EP, Helmholtz, MD, and syncbench workloads.
//! * [`serve`] — multi-job serving layer: gang scheduling with FIFO +
//!   backfill admission and elastic widths, per-job sub-fabric isolation,
//!   and checkpoint/re-home survival of injected node death.
//! * [`trace`] — virtual-time event tracing: per-thread rings, Chrome
//!   `trace_event` export, per-construct overhead attribution
//!   (`PARADE_TRACE=<path>`).
//!
//! ## Quickstart
//!
//! ```
//! use parade::prelude::*;
//!
//! let cluster = Cluster::builder()
//!     .nodes(2)
//!     .threads_per_node(2)
//!     .build()
//!     .unwrap();
//! let sum = cluster.run(|g| {
//!     let xs = g.alloc_f64(1024);
//!     g.parallel(move |tc| {
//!         let v = tc.bind_f64(&xs);
//!         for i in tc.for_static(0..1024) {
//!             v.set(i, i as f64);
//!         }
//!         tc.barrier();
//!         let mut local = 0.0;
//!         for i in tc.for_static(0..1024) {
//!             local += v.get(i);
//!         }
//!         tc.reduce_f64_sum(local)
//!     })
//! });
//! assert_eq!(sum, (0..1024).sum::<i64>() as f64);
//! ```

pub use parade_check as check;
pub use parade_cluster as cluster;
pub use parade_core as core;
pub use parade_dsm as dsm;
pub use parade_kernels as kernels;
pub use parade_mir as mir;
pub use parade_mpi as mpi;
pub use parade_net as net;
pub use parade_serve as serve;
pub use parade_trace as trace;
pub use parade_translator as translator;

/// Convenient re-exports for application code.
pub mod prelude {
    pub use parade_cluster::{ClusterConfig, ConfigError, ExecConfig, ProtocolMode};
    pub use parade_core::{Cluster, MasterCtx, RunReport, ThreadCtx};
    pub use parade_dsm::{DsmConfig, ProtoSelect, RegionHandle, SmallHandle};
    pub use parade_mpi::ReduceOp;
    pub use parade_net::{NetProfile, VTime};
}
