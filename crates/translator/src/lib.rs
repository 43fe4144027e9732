//! # parade-translator — the ParADE OpenMP translator
//!
//! The bridge between the OpenMP abstraction and the hybrid programming
//! interfaces of the ParADE runtime (paper §4). The original modifies the
//! Omni compiler's C-front; this reproduction implements a self-contained
//! pipeline over a mini-C subset:
//!
//! 1. [`token`]/[`parser`] — lex and parse C with `#pragma omp` directives
//!    (OpenMP 1.0 subset: `parallel`, `for`, `parallel for`, `critical`,
//!    `atomic`, `single`, `master`, `barrier`; clauses `private`, `shared`,
//!    `firstprivate`, `lastprivate`, `reduction`, `schedule`, `nowait`,
//!    `num_threads`);
//! 2. [`mir`] — the one front-end IR: each function lowered to basic blocks
//!    with linearized access events and paired construct markers. The
//!    plan below and `parade-check`'s lints both read it;
//! 3. [`analysis`] — variable scope classification (default shared) and the
//!    hybrid-protocol plan read from `main`'s MIR: the storage class of
//!    every shared variable, and collective vs lock lowering per directive
//!    by lexical analyzability and the 256-byte small-data threshold (§4.2,
//!    §5.2.1);
//! 4. `resolve` — the one lowering: the AST and the plan of `main` become
//!    a symbol-resolved tree, once. Both backends below read it, so they
//!    cannot disagree on a directive's lowering;
//! 5. [`emit`] — the C backend: prints the resolved tree as translated C
//!    against the ParADE API or against a conventional SDSM API (the two
//!    sides of Figures 2 and 3);
//! 6. [`interp`] — the executing backend: runs the resolved tree directly
//!    on the `parade-core` runtime, so translated OpenMP programs run
//!    end-to-end on the simulated cluster.
//!
//! The `paradec` binary wraps all of this:
//!
//! ```text
//! paradec translate examples/jacobi.c --mode parade
//! paradec run examples/jacobi.c --nodes 4 --threads 2
//! ```

pub mod analysis;
pub mod ast;
pub mod emit;
pub mod interp;
pub mod mir;
pub mod oracle;
pub mod parser;
mod resolve;
pub mod token;

pub use analysis::DEFAULT_SMALL_THRESHOLD;
pub use emit::{translate, translate_default, EmitMode};
pub use interp::{Interp, RunOutput, RuntimeError};
pub use oracle::{RaceKind, RaceReport};
pub use parser::parse;
pub use token::{ParseError, Span};

#[cfg(test)]
mod interp_tests;
#[cfg(test)]
mod resolve_tests;
