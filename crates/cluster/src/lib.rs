//! # parade-cluster — the simulated SMP cluster engine
//!
//! Builds the pieces of one simulated cluster run: the message fabric, one
//! DSM instance and communication thread per node, and an SPMD launch of a
//! node program. [`ClusterConfig`] gathers every experimental knob,
//! including the paper's three execution configurations
//! (`1Thread-1CPU` / `1Thread-2CPU` / `2Thread-2CPU`, §6.2) expressed as
//! compute-thread counts plus communication-thread service costs.

mod config;
mod launch;

pub use config::{ClusterConfig, ConfigError, ExecConfig, ProtocolMode};
pub use launch::{launch, launch_result, ClusterReport, FailedRun, NodeEnv, NodePanic};
