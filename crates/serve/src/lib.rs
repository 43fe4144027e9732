//! # parade-serve — the multi-job serving layer
//!
//! Serves many concurrent jobs on one simulated cluster. Each job is an
//! interval-structured parallel program; the scheduler gang-places it on
//! free machine nodes (FIFO + EASY-style backfill, elastic widths), runs
//! it on a private sub-fabric so jobs cannot interfere, and survives
//! injected node death: the master checkpoints the job's state pages at
//! every interval boundary through the DSM read path, and when a link
//! dies mid-interval the scheduler re-homes the checkpointed pages onto a
//! replacement node and re-runs only the interval that died.
//!
//! Two invariants make this safely testable at a thousand-job scale:
//!
//! * **Width-independent arithmetic** (see [`job`]) — every kernel's
//!   result is a pure function of its checkpointed state, at any gang
//!   width and under any chaos. One sequential
//!   reference predicts the exact bits of every parallel execution.
//! * **Exactly-once completion** — a job is admitted once, completes
//!   once (asserted), and interval re-execution after a re-home replays
//!   deterministic task ids whose id-sorted merge is identical to the
//!   run that died.
//!
//! ```
//! use parade_serve::{serve, JobKind, JobSpec, ServeConfig};
//! use parade_net::VTime;
//!
//! let jobs = vec![JobSpec {
//!     id: 0,
//!     kind: JobKind::CgLite { n: 16, intervals: 2, seed: 1 },
//!     min_width: 1,
//!     max_width: 2,
//!     submit_at: VTime::ZERO,
//! }];
//! let report = serve(&ServeConfig::default(), jobs);
//! assert_eq!(report.outcomes.len(), 1);
//! assert_eq!(report.outcomes[0].completions, 1);
//! ```

pub mod job;
pub mod quiet;
pub mod run;
pub mod sched;
pub mod soak;

pub use job::{digest, JobKind, JobSpec, BLOCKS};
pub use quiet::Quiet;
pub use run::{run_attempt, AttemptOutcome, Checkpoint, CkptCell};
pub use sched::{serve, JobOutcome, LinkDeath, ServeConfig, ServeReport};
pub use soak::{job_mix, soak, SoakConfig, SoakSummary};
