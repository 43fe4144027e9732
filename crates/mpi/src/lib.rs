//! # parade-mpi — a thread-safe mini-MPI
//!
//! The ParADE runtime needs a high-performance, **thread-safe** message
//! passing library: application threads and the per-node communication
//! thread issue requests concurrently (paper §5.3). The authors implemented
//! a minimal MPI subset directly on VIA and fell back to MPI/Pro on TCP/IP;
//! this crate is that subset over the simulated fabric of [`parade_net`]:
//!
//! * typed point-to-point send/receive with tag matching,
//! * `bcast` (binomial tree),
//! * one recursive-doubling exchange, ⌈log₂P⌉ rounds, folding in the
//!   binomial tree's order, under `allreduce` (built-in and user-defined
//!   combiners), `allgather` (concatenation in rank order) and `barrier`
//!   (empty payloads),
//! * little-endian wire-format helpers shared with the SDSM protocol.

mod collective;
mod comm;
pub mod datatype;

pub use collective::ReduceOp;
pub use comm::Communicator;
