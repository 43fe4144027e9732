//! # parade-net — simulated cluster interconnect
//!
//! The substrate beneath the ParADE runtime: an in-process message fabric
//! connecting simulated SMP nodes, with a **virtual-time** cost model
//! (latency + per-byte bandwidth + per-message CPU, distinct intra-node and
//! inter-node link costs).
//!
//! Design notes:
//!
//! * Messages are demultiplexed into per-class mailboxes ([`MsgClass`]) so
//!   SDSM protocol traffic, MPI point-to-point, MPI collectives, and cluster
//!   control never interfere — mirroring the paper's dedicated communication
//!   thread and its thread-safe MPI requirement (§5.3).
//! * No real-time delay is ever injected; the fabric stamps each packet with
//!   a virtual arrival time and receivers reconcile their [`VClock`]s, which
//!   makes simulations both fast and accurate on an oversubscribed host.
//! * Seeded fault injection ([`ChaosProfile`], `PARADE_CHAOS`) turns the
//!   wire lossy; the fabric then runs a reliable channel (link sequence
//!   numbers, virtual-time retransmit timers with exponential backoff,
//!   receive-side dedup/resequencing) so every receiver still observes
//!   exactly-once, in-order delivery — or a structured [`FabricError`]
//!   naming the dead link when the retry budget runs out.
//! * Host threads are named after the node and role they simulate and are
//!   kept across launches ([`threads`]): the crate every layer already
//!   depends on is where node, communication and pool threads come from.

mod buffer;
mod chaos;
mod fabric;
mod packet;
mod profile;
pub mod reliable;
mod stats;
pub mod sync;
pub mod threads;
mod vbarrier;
mod vtime;

pub use buffer::Bytes;
pub use chaos::{ChaosKnobs, ChaosProfile};
pub use fabric::{Disconnected, Endpoint, Fabric, Match, RetransmitHook};
pub use packet::{MsgClass, Packet};
pub use profile::{LinkCost, NetProfile};
pub use reliable::FabricError;
pub use stats::{LinkHealth, NetStats, NodeNetStats, NodeTraffic, Traffic};
pub use vbarrier::VBarrier;
pub use vtime::{TimeSource, VClock, VTime};
