//! MIR data structures: basic blocks, terminators, linearized access
//! events, and the structural markers the lint walk consumes.
//!
//! The MIR serves two consumers at once:
//!
//! - **Linear**: blocks are created in lexical order, so iterating blocks
//!   by id and statements in order visits the source in lexical order. The
//!   marker stream (`ParallelEnter`, `WsEnter`, `Sibling`, …) carries the
//!   structure the PC001–PC007 detectors need.
//! - **CFG**: terminators give explicit branch/loop edges for the
//!   dataflow analyses (reaching definitions, postdominators, divergence)
//!   behind PC009. A sequential `if`/`while`/`for` leaves no marker: its
//!   condition is the `Branch` terminator, the one place the divergence
//!   analysis reads it.

use std::fmt;

use crate::analysis::{RegionClassification, Symbols};
use crate::ast::{Directive, Expr, RedOp, Span};

/// Index of a basic block inside one [`MirFunc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// One variable access, in AST evaluation order.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessEvent {
    /// Scalar read.
    ReadVar(String),
    /// Scalar write (assignment target).
    WriteVar(String),
    /// Array element read; subscripts kept for the work-sharing
    /// dependence test.
    ReadIndexed(String, Vec<Expr>),
    /// Array element write.
    WriteIndexed(String, Vec<Expr>),
    /// The read half of a compound array assignment (`a[i] += e`): logged
    /// for the dependence test when the array is shared, but not a
    /// standalone read event.
    LogReadIndexed(String, Vec<Expr>),
    /// A definition that is not a checked write (declarations, the
    /// work-shared loop variable binding).
    MarkWritten(String),
}

/// A statement-level `x ⊕= e` / `x = fmin(x, e)` — the combining form a
/// `reduction` clause sanctions. The lint applies it only when the target
/// is actually scoped `reduction`.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateInfo {
    pub target: String,
    pub op: RedOp,
    pub operand: Expr,
    /// Events of the operand alone (all a sanctioned update exposes).
    pub operand_events: Vec<AccessEvent>,
}

/// One side-effecting evaluation (statement expression, declaration
/// initializer, condition, loop bounds), fully linearized.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Eval {
    /// Source span for span-carrying statements; `None` for conditions
    /// and compiler-introduced evals, which must not move the analyzer's
    /// current-span cursor.
    pub span: Option<Span>,
    /// Statement-level reduction-update recognition.
    pub update: Option<UpdateInfo>,
    /// Linearized access events, in AST evaluation order.
    pub events: Vec<AccessEvent>,
    /// The name of every function the evaluation calls.
    pub calls: Vec<String>,
    /// The expression calls `omp_get_thread_num()` somewhere.
    pub thread_num: bool,
    /// Scalar definitions (dataflow def sites).
    pub defs: Vec<String>,
    /// Scalar uses (dataflow).
    pub uses: Vec<String>,
    /// Force the defs tainted in the divergence analysis (work-shared
    /// loop variables take per-thread values whatever their bounds read).
    pub tainted_def: bool,
}

/// What a sibling statement is, for the nowait-pending bookkeeping
/// (PC005) that runs per statement list.
#[derive(Debug, Clone, PartialEq)]
pub enum SiblingKind {
    /// `#pragma omp barrier` as an immediate child: joins the list's
    /// pending nowait writes before anything else.
    Barrier,
    /// A `for`/`single` with a body and `nowait`: its shared write
    /// targets go pending after the use check.
    WsNowait {
        writes: Vec<String>,
        loop_var: Option<String>,
    },
    /// A `for`/`single` with a body and no `nowait`: the implicit
    /// barrier at construct exit joins the team.
    WsJoin,
    Other,
}

/// Start of one statement in a statement list.
#[derive(Debug, Clone, PartialEq)]
pub struct SiblingInfo {
    /// First source position in the statement subtree.
    pub span: Option<Span>,
    /// Every variable the subtree mentions (reads and writes).
    pub uses: Vec<String>,
    pub kind: SiblingKind,
}

/// Canonical work-shared loop info (`None` on a `WsEnter` = the loop is
/// not in canonical form).
#[derive(Debug, Clone, PartialEq)]
pub struct WsInfo {
    pub var: String,
}

/// Structural markers: the lexical events the marker-driven lint walk
/// replays. `pair` ids tie an `*Enter` to its `*Exit` so a walker that
/// declines to enter a construct can skip to the matching exit.
#[derive(Debug, Clone, PartialEq)]
pub enum Marker {
    /// `parallel` / `parallel for` entry; `class` is `None` when the
    /// directive has no statement to apply to.
    ParallelEnter {
        dir: Directive,
        class: Option<RegionClassification>,
        pair: u32,
    },
    ParallelExit {
        pair: u32,
    },
    /// Work-sharing loop entry (`for`, or the loop of `parallel for`).
    WsEnter {
        dir: Directive,
        canon: Option<WsInfo>,
        has_body: bool,
        from_parallel_for: bool,
        pair: u32,
    },
    /// After the bounds evaluation: bind the loop variable and open the
    /// dependence-log frame.
    WsBody {
        var: String,
    },
    WsExit {
        pair: u32,
    },
    /// `single`/`master`/`critical`/`atomic` entry. `atomic_ok` is the
    /// malformed-atomic precheck (always true for the other kinds).
    ProtectEnter {
        dir: Directive,
        atomic_ok: bool,
        pair: u32,
    },
    ProtectExit {
        pair: u32,
    },
    Barrier {
        dir: Directive,
    },
    /// Statement-list bracketing (PC005 pending frames).
    BlockStart,
    BlockEnd,
    Sibling(SiblingInfo),
}

impl Marker {
    /// The pair id this marker *closes*, if it is an exit marker.
    pub fn exit_pair(&self) -> Option<u32> {
        match self {
            Marker::ParallelExit { pair }
            | Marker::WsExit { pair }
            | Marker::ProtectExit { pair } => Some(*pair),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum MirStmt {
    Eval(Eval),
    Marker(Marker),
}

#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    Goto(BlockId),
    /// Conditional edge. `reads`/`thread_num` describe the controlling
    /// expression for the divergence analysis.
    Branch {
        reads: Vec<String>,
        thread_num: bool,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    Return,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub stmts: Vec<MirStmt>,
    pub term: Terminator,
}

/// One lowered function: blocks in lexical creation order (bb0 = entry),
/// plus its flat symbol table.
#[derive(Debug, Clone)]
pub struct MirFunc {
    pub name: String,
    pub blocks: Vec<Block>,
    pub syms: Symbols,
}

impl MirFunc {
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    pub fn successors(&self, b: BlockId) -> Vec<BlockId> {
        match &self.blocks[b.index()].term {
            Terminator::Goto(t) => vec![*t],
            Terminator::Branch {
                then_bb, else_bb, ..
            } => {
                if then_bb == else_bb {
                    vec![*then_bb]
                } else {
                    vec![*then_bb, *else_bb]
                }
            }
            Terminator::Return => vec![],
        }
    }

    /// Compact textual dump for tests and debugging.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "fn {}:", self.name);
        for (i, blk) in self.blocks.iter().enumerate() {
            let _ = writeln!(out, "  bb{i}:");
            for s in &blk.stmts {
                match s {
                    MirStmt::Eval(e) => {
                        let _ = writeln!(
                            out,
                            "    eval defs={:?} uses={:?} events={}",
                            e.defs,
                            e.uses,
                            e.events.len()
                        );
                    }
                    MirStmt::Marker(m) => {
                        let tag = match m {
                            Marker::ParallelEnter { .. } => "parallel.enter".into(),
                            Marker::ParallelExit { .. } => "parallel.exit".into(),
                            Marker::WsEnter { .. } => "ws.enter".into(),
                            Marker::WsBody { var } => format!("ws.body({var})"),
                            Marker::WsExit { .. } => "ws.exit".into(),
                            Marker::ProtectEnter { .. } => "protect.enter".into(),
                            Marker::ProtectExit { .. } => "protect.exit".into(),
                            Marker::Barrier { .. } => "barrier".into(),
                            Marker::BlockStart => "block.start".into(),
                            Marker::BlockEnd => "block.end".into(),
                            Marker::Sibling(_) => "sibling".into(),
                        };
                        let _ = writeln!(out, "    marker {tag}");
                    }
                }
            }
            let term = match &blk.term {
                Terminator::Goto(t) => format!("goto {t}"),
                Terminator::Branch {
                    then_bb, else_bb, ..
                } => format!("branch {then_bb} {else_bb}"),
                Terminator::Return => "return".into(),
            };
            let _ = writeln!(out, "    -> {term}");
        }
        out
    }
}
