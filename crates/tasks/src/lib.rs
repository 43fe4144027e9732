//! # parade-tasks — distributed OpenMP-style tasking
//!
//! Independent tasks spawned across the simulated cluster and run by
//! **per-node deques fed by ship-at-spawn placement** over the parade-mpi
//! point-to-point layer: every SMP node runs one scheduler and hands each
//! task it spawns, when it spawns it, to the next node of its own
//! round-robin (itself first), and quiescence is detected with Safra's
//! token algorithm, so a task phase terminates exactly when every spawned
//! task has executed exactly once. A task is spawn, place, run, merge: it
//! has no dependency edges and no device pin, it never moves after its
//! placement, and its result stays on the node that ran it until the
//! phase's merge.
//!
//! Determinism contract: task **ids are schedule-independent** (a pure
//! function of the spawning node and spawn ordinal), task bodies are pure
//! functions of their descriptor, and the phase result is the id-sorted
//! merge of all task results, which every node builds itself from one
//! all-to-all exchange of per-node results — so the merged result is
//! bit-identical on every node, on every run and under every chaos fault
//! schedule (the reliable channel delivers scheduler messages exactly once
//! per link). The same exchange tells every node whether any node wrote a
//! shared page during the phase ([`NodeSched::any_node_wrote`]), which is
//! what lets parade-core close a phase nobody wrote in without a DSM
//! barrier.

mod sched;
mod wire;

pub use sched::{run_to_merge, NodeSched, Step, TaskCtx, TaskExecutor};
pub use wire::{SchedMsg, TaskDesc, TAG_SCHED};
