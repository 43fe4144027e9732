//! # parade-dsm — multi-threaded software distributed shared memory
//!
//! The SDSM at the core of ParADE (paper §5): page-based shared memory with
//! a variant of **home-based lazy release consistency** (HLRC):
//!
//! * page states `INVALID / TRANSIENT / BLOCKED / READ_ONLY / DIRTY`
//!   (Figure 5) — `TRANSIENT`/`BLOCKED` solve the *atomic page update
//!   problem* unique to multi-threaded SDSMs (§5.1);
//! * twins and word-granularity diffs shipped to page homes at release
//!   points;
//! * write notices combined into a single message and piggybacked on
//!   barrier arrivals; the master answers with departures that carry
//!   invalidations and **migratory home** decisions (§5.2.2);
//! * distributed queueing locks for the conventional SDSM
//!   synchronization path (the KDSM-style baseline of §6.1);
//! * a small-data object registry for the message-passing update protocol
//!   (§5.2.1) — objects under the 256-byte threshold bypass HLRC entirely.
//!
//! Hardware paging (`mprotect`/SIGSEGV) is replaced by a software fault
//! check on typed accesses: one atomic load on the hit path, the identical
//! protocol on the miss path (see DESIGN.md for the substitution argument).

mod adapt;
mod bufpool;
mod config;
mod diff;
mod engine;
mod msg;
mod page;
mod server;
mod smalldata;
mod stats;
mod store;

pub use adapt::{ProtoDecision, ProtocolTable, MIN_SHARERS};
pub use bufpool::PageBuf;
pub use config::{CommCosts, DsmConfig, HomePolicy, ProtoSelect, UpdateStrategy};
pub use diff::{Diff, DiffError, DiffRun};
pub use engine::Dsm;
pub use msg::{DepartEntry, DsmMsg, DsmReply, PageReq, REPLY_TAG_BASE};
pub use page::{page_of, page_start, pages_covering, PageId, PageState, PAGE_SIZE};
pub use server::{spawn_comm_thread, CommServer, ServerState};
pub use smalldata::{SmallHandle, SmallRegistry};
pub use stats::{DsmStats, DsmStatsSnapshot};
pub use store::{AllocError, PageSets, RawPool, RegionAllocator, RegionHandle};

#[cfg(test)]
mod cluster_tests;
#[cfg(test)]
mod depart_golden;
