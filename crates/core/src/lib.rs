//! # parade-core — the ParADE runtime API
//!
//! The programming interface of the ParADE environment (paper §3–§5): an
//! OpenMP-style fork-join model executing on a simulated SMP cluster with a
//! **hybrid execution model** underneath — message-passing collectives for
//! synchronization and work-sharing directives over small data, and the
//! HLRC software DSM for everything else. The same program runs under the
//! conventional-SDSM baseline mode for apples-to-apples comparison
//! (`ProtocolMode::SdsmOnly`).
//!
//! ```
//! use parade_core::Cluster;
//! use parade_net::{NetProfile, TimeSource};
//!
//! let cluster = Cluster::builder()
//!     .nodes(2)
//!     .threads_per_node(2)
//!     .net(NetProfile::zero())
//!     .time(TimeSource::Manual)
//!     .build()
//!     .unwrap();
//! let pi_ish = cluster.run(|g| {
//!     g.parallel(|tc| {
//!         let mut local = 0.0;
//!         for i in tc.for_static(0..100_000) {
//!             let x = (i as f64 + 0.5) / 100_000.0;
//!             local += 4.0 / (1.0 + x * x);
//!         }
//!         tc.reduce_f64_sum(local) / 100_000.0
//!     })
//! });
//! assert!((pi_ish - std::f64::consts::PI).abs() < 1e-4);
//! ```

mod ctx;
mod report;
mod runtime;
mod shared;
mod tasking;
mod team;

pub use ctx::{partition, BoundVec, ScalarPrim, StaticChunks, ThreadCtx};
pub use report::StatsReport;
pub use shared::{Pod, SharedScalar, SharedVec};
pub use tasking::{TaskFn, TaskScope};
pub use team::{Cluster, ClusterBuilder, MasterCtx, RunReport};

// Re-exports so downstream code needs only this crate for common use.
pub use parade_cluster::{
    ClusterConfig, ConfigError, ExecConfig, FailedRun, NodePanic, ProtocolMode,
};
pub use parade_dsm::{DsmConfig, ProtoSelect};
pub use parade_mpi::ReduceOp;
pub use parade_net::{FabricError, NetProfile, NodeTraffic, TimeSource, VTime};
pub use parade_tasks::{TaskCtx, TaskDesc};
pub use parade_trace::TraceReport;
