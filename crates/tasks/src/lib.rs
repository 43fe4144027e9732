//! # parade-tasks — distributed OpenMP-style tasking
//!
//! A task graph (spawn / taskwait / `depend(in/out)` dependencies) executed
//! across the simulated cluster with **per-node deques and randomized work
//! stealing** over the parade-mpi point-to-point layer, following "The
//! OpenMP Cluster Programming Model" and "Experiences with task-based
//! programming using cluster nodes as OpenMP devices": every SMP node runs
//! one scheduler, idle nodes send steal requests to seeded random victims,
//! and quiescence is detected with Safra's token algorithm so a task phase
//! terminates exactly when every spawned task has executed exactly once.
//!
//! Determinism contract: task **ids are schedule-independent** (a pure
//! function of the spawning node and spawn ordinal), task bodies are pure
//! functions of their descriptor, and the phase result is the id-sorted
//! merge of all task results, which every node builds itself from one
//! all-to-all exchange of per-node results — so the merged result is
//! bit-identical on every node and across steal schedules, seeds, victim
//! orders, and chaos fault schedules (the reliable channel delivers
//! scheduler messages exactly once per link). The same exchange tells
//! every node whether any node wrote a shared page during the phase
//! ([`NodeSched::any_node_wrote`]), which is what lets parade-core close a
//! phase nobody wrote in without a DSM barrier.
//!
//! `target`-style offload rides the same machinery: a *pinned* task is
//! shipped to its device node, never stolen, and synchronized individually
//! (`target_sync`); its data motion is carried by DSM release notices that
//! completions propagate along dependency edges (the [`TaskExecutor`]
//! `release`/`acquire` hooks — the cluster-as-device mapping of
//! `map(to/from)` clauses onto page invalidations lives in parade-core).

mod sched;
mod wire;

pub use sched::{run_to_merge, NodeSched, SchedConfig, StealStrategy, Step, TaskCtx, TaskExecutor};
pub use wire::{SchedMsg, TaskDesc, TAG_SCHED};
