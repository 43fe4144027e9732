//! The MIR: the one front-end IR every directive decision is read from.
//!
//! [`lower::lower_func`] turns a function's AST into a [`MirFunc`] — basic
//! blocks in lexical creation order, explicit branch/loop edges,
//! linearized access events and paired construct markers. Two readers
//! consume it:
//!
//! - the translator's `analysis::Lowering::plan` decides, from `main`'s
//!   MIR, the storage class of every shared variable and the
//!   collective-vs-lock lowering of every `critical`, `atomic` and
//!   `single`; the resolver applies those decisions once, to the form
//!   both backends (the executor and the C printer) read;
//! - `parade-check` replays its lints over the marker stream and runs
//!   `parade-mir`'s dataflow analyses over the CFG.

pub mod body;
pub mod lower;

pub use body::{
    AccessEvent, Block, BlockId, Eval, Marker, MirFunc, MirStmt, SiblingInfo, SiblingKind,
    Terminator, UpdateInfo, WsInfo,
};
pub use lower::{lower_func, lower_program};
