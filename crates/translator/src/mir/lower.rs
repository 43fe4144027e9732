//! AST → MIR lowering.
//!
//! Two invariants make the MIR a substrate for the lexical lints while
//! still carrying a real CFG (the frozen `tests/corpus` diagnostics pin
//! both):
//!
//! 1. **Linear order = lexical order.** Blocks are created in source
//!    order (for a `for` loop: init, header/cond, step, body, exit — all
//!    three loop expressions are evaluated before the body), so iterating
//!    blocks by id and statements in order walks the source
//!    statement-for-statement.
//! 2. **Access events follow evaluation order** (rhs before lhs,
//!    subscripts before the element access, the compound read before the
//!    write), which fixes the order diagnostics are emitted in.
//!
//! Work-shared loops are lowered without a backedge: their iterations
//! are divided among threads, so the loop structure carries no
//! intra-thread control divergence, and modelling the backedge would
//! only manufacture spurious CFG divergence. Their body, like a `single`
//! or `master` body, sits behind a thread-dependent `Branch` that
//! rejoins after it: a thread may run it or not (one thread runs a
//! `single`; a thread the schedule gives no iteration skips the loop
//! body). A sequential `if`/`while`/
//! `for` leaves no marker: its condition's reads and any
//! `omp_get_thread_num()` call ride on the `Branch` terminator, which is
//! where the divergence analysis reads them. Unreachable code after
//! `break`/`continue`/`return` still lowers (into a fresh, predecessor-
//! less block) because the lexical analyzer walks it and may diagnose.

use crate::analysis::{
    as_minmax_update, as_scalar_update, classify_region, flatten_single, loop_of, Symbols,
};
use crate::ast::{
    stmt_span, stmt_uses, stmt_write_targets, DirKind, Directive, Expr, FuncDef, Item, Program,
    Span, Stmt,
};

use super::body::{
    AccessEvent, Block, BlockId, Eval, Marker, MirFunc, MirStmt, SiblingInfo, SiblingKind,
    Terminator, UpdateInfo, WsInfo,
};

/// Lower every function of a program.
pub fn lower_program(prog: &Program) -> Vec<MirFunc> {
    prog.items
        .iter()
        .filter_map(|i| match i {
            Item::Func(f) => Some(lower_func(prog, f)),
            _ => None,
        })
        .collect()
}

/// Lower one function.
pub fn lower_func(prog: &Program, f: &FuncDef) -> MirFunc {
    let syms = Symbols::collect(prog, f);
    let mut lw = Lowerer {
        blocks: vec![Block {
            stmts: Vec::new(),
            term: Terminator::Return,
        }],
        sealed: vec![false],
        cur: BlockId(0),
        next_pair: 0,
        loops: Vec::new(),
        syms: &syms,
    };
    lw.stmt(&f.body);
    MirFunc {
        name: f.name.clone(),
        blocks: lw.blocks,
        syms,
    }
}

/// One enclosing sequential loop, for `break`/`continue` targets.
struct LoopCtx {
    continue_to: BlockId,
    /// Blocks sealed by `break`, patched to `Goto(exit)` at loop end.
    breaks: Vec<BlockId>,
}

struct Lowerer<'a> {
    blocks: Vec<Block>,
    /// Whether each block's terminator has been decided (the default
    /// `Return` stands for "falls off the end of the function").
    sealed: Vec<bool>,
    cur: BlockId,
    next_pair: u32,
    loops: Vec<LoopCtx>,
    syms: &'a Symbols,
}

impl Lowerer<'_> {
    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block {
            stmts: Vec::new(),
            term: Terminator::Return,
        });
        self.sealed.push(false);
        id
    }

    fn start_block(&mut self) -> BlockId {
        let b = self.new_block();
        self.cur = b;
        b
    }

    fn push(&mut self, s: MirStmt) {
        self.blocks[self.cur.index()].stmts.push(s);
    }

    fn marker(&mut self, m: Marker) {
        self.push(MirStmt::Marker(m));
    }

    fn pair(&mut self) -> u32 {
        self.next_pair += 1;
        self.next_pair - 1
    }

    fn set_term(&mut self, b: BlockId, t: Terminator) {
        self.blocks[b.index()].term = t;
        self.sealed[b.index()] = true;
    }

    fn goto_if_open(&mut self, b: BlockId, to: BlockId) {
        if !self.sealed[b.index()] {
            self.set_term(b, Terminator::Goto(to));
        }
    }

    fn push_expr_eval(&mut self, e: &Expr, span: Option<Span>) {
        let mut events = Vec::new();
        expr_events(e, &mut events);
        self.push(MirStmt::Eval(finish_eval(span, None, events, &[e], false)));
    }

    // ---- statements -------------------------------------------------------

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Decl(d) => {
                let mut events = Vec::new();
                if let Some(init) = &d.init {
                    expr_events(init, &mut events);
                }
                events.push(AccessEvent::MarkWritten(d.name.clone()));
                let init: Vec<&Expr> = d.init.iter().collect();
                self.push(MirStmt::Eval(finish_eval(
                    Some(d.span),
                    None,
                    events,
                    &init,
                    false,
                )));
            }
            Stmt::Expr(e, sp) => {
                let mut events = Vec::new();
                expr_events(e, &mut events);
                let update = as_scalar_update(e)
                    .or_else(|| as_minmax_update(e))
                    .map(|u| {
                        let mut operand_events = Vec::new();
                        expr_events(&u.operand, &mut operand_events);
                        UpdateInfo {
                            target: u.target,
                            op: u.op,
                            operand: u.operand,
                            operand_events,
                        }
                    });
                self.push(MirStmt::Eval(finish_eval(
                    Some(*sp),
                    update,
                    events,
                    &[e],
                    false,
                )));
            }
            Stmt::If(c, a, b) => self.lower_if(c, a, b.as_deref()),
            Stmt::While(c, b) => self.lower_while(c, b),
            Stmt::For {
                init, cond, step, ..
            } => self.lower_for(s, init, cond, step),
            Stmt::Block(ss) => {
                self.marker(Marker::BlockStart);
                for child in ss {
                    self.marker(Marker::Sibling(sibling_info(child)));
                    self.stmt(child);
                }
                self.marker(Marker::BlockEnd);
            }
            Stmt::Return(e) => {
                if let Some(e) = e {
                    self.push_expr_eval(e, None);
                }
                let b = self.cur;
                self.set_term(b, Terminator::Return);
                self.start_block();
            }
            Stmt::Break => {
                let b = self.cur;
                match self.loops.last_mut() {
                    Some(ctx) => {
                        ctx.breaks.push(b);
                        // Terminator patched to Goto(exit) at loop end.
                        self.sealed[b.index()] = true;
                    }
                    // `break` outside any sequential loop (illegal inside a
                    // bare work-shared body): treat as function exit.
                    None => self.set_term(b, Terminator::Return),
                }
                self.start_block();
            }
            Stmt::Continue => {
                let to = self.loops.last().map(|c| c.continue_to);
                let b = self.cur;
                match to {
                    Some(t) => self.set_term(b, Terminator::Goto(t)),
                    None => self.set_term(b, Terminator::Return),
                }
                self.start_block();
            }
            Stmt::Omp(d, body) => self.directive(d, body.as_deref()),
            Stmt::Empty => {}
        }
    }

    /// Evaluate a sequential condition; its reads and whether it calls
    /// `omp_get_thread_num()` go on the `Branch` it terminates.
    fn push_cond(&mut self, c: &Expr) -> (Vec<String>, bool) {
        self.push_expr_eval(c, None);
        let mut reads = Vec::new();
        c.vars(&mut reads);
        (reads, c.calls_thread_num())
    }

    fn lower_if(&mut self, c: &Expr, a: &Stmt, b: Option<&Stmt>) {
        let (reads, tn) = self.push_cond(c);
        self.branch(reads, tn, a, b);
    }

    /// End the current block in a `Branch` to `a` (and `b`, if any),
    /// rejoining after them.
    fn branch(&mut self, reads: Vec<String>, thread_num: bool, a: &Stmt, b: Option<&Stmt>) {
        let branch_at = self.cur;
        let then_bb = self.start_block();
        self.stmt(a);
        let then_end = self.cur;
        let else_part = b.map(|b| {
            let bb = self.start_block();
            self.stmt(b);
            (bb, self.cur)
        });
        let join = self.new_block();
        let else_bb = else_part.map(|(bb, _)| bb).unwrap_or(join);
        self.set_term(
            branch_at,
            Terminator::Branch {
                reads,
                thread_num,
                then_bb,
                else_bb,
            },
        );
        self.goto_if_open(then_end, join);
        if let Some((_, end)) = else_part {
            self.goto_if_open(end, join);
        }
        self.cur = join;
    }

    fn lower_while(&mut self, c: &Expr, b: &Stmt) {
        let header = self.new_block();
        let pre = self.cur;
        self.goto_if_open(pre, header);
        self.cur = header;
        let (reads, tn) = self.push_cond(c);
        let body_bb = self.start_block();
        self.loops.push(LoopCtx {
            continue_to: header,
            breaks: Vec::new(),
        });
        self.stmt(b);
        let body_end = self.cur;
        let ctx = self.loops.pop().expect("loop ctx");
        let exit = self.new_block();
        self.set_term(
            header,
            Terminator::Branch {
                reads,
                thread_num: tn,
                then_bb: body_bb,
                else_bb: exit,
            },
        );
        self.goto_if_open(body_end, header);
        for bb in ctx.breaks {
            self.blocks[bb.index()].term = Terminator::Goto(exit);
        }
        self.cur = exit;
    }

    fn lower_for(
        &mut self,
        whole: &Stmt,
        init: &Option<Expr>,
        cond: &Option<Expr>,
        step: &Option<Expr>,
    ) {
        if let Some(e) = init {
            self.push_expr_eval(e, None);
        }
        let header = self.new_block();
        let pre = self.cur;
        self.goto_if_open(pre, header);
        self.cur = header;
        let (reads, tn) = cond
            .as_ref()
            .map_or((Vec::new(), false), |c| self.push_cond(c));
        // The step block is created (and its expression evaluated) before
        // the body — the lexical lints' init/cond/step-then-body order;
        // CFG edges still run header → body → step → header.
        let step_bb = self.start_block();
        if let Some(e) = step {
            self.push_expr_eval(e, None);
        }
        self.set_term(step_bb, Terminator::Goto(header));
        let body_bb = self.new_block();
        self.cur = body_bb;
        self.loops.push(LoopCtx {
            continue_to: step_bb,
            breaks: Vec::new(),
        });
        self.stmt(whole_body(whole));
        let body_end = self.cur;
        let ctx = self.loops.pop().expect("loop ctx");
        let exit = self.new_block();
        match cond {
            Some(_) => self.set_term(
                header,
                Terminator::Branch {
                    reads,
                    thread_num: tn,
                    then_bb: body_bb,
                    else_bb: exit,
                },
            ),
            None => self.set_term(header, Terminator::Goto(body_bb)),
        }
        self.goto_if_open(body_end, step_bb);
        for bb in ctx.breaks {
            self.blocks[bb.index()].term = Terminator::Goto(exit);
        }
        self.cur = exit;
    }

    // ---- directives -------------------------------------------------------

    fn directive(&mut self, d: &Directive, body: Option<&Stmt>) {
        match &d.kind {
            DirKind::Parallel | DirKind::ParallelFor => {
                let pair = self.pair();
                let class = body.map(|b| classify_region(d, b, self.syms));
                // Cut blocks at the region boundary so a region's scope
                // starts exactly at the `ParallelEnter`: the divergence
                // analysis injects per-thread entry defs at the scope
                // entry, and outer statements sharing the block would
                // kill them.
                let enter_bb = self.new_block();
                self.goto_if_open(self.cur, enter_bb);
                self.cur = enter_bb;
                self.marker(Marker::ParallelEnter {
                    dir: d.clone(),
                    class,
                    pair,
                });
                if let Some(b) = body {
                    if matches!(d.kind, DirKind::ParallelFor) {
                        self.ws(d, b, true);
                    } else {
                        self.stmt(b);
                    }
                }
                self.marker(Marker::ParallelExit { pair });
                let after = self.new_block();
                self.goto_if_open(self.cur, after);
                self.cur = after;
            }
            DirKind::For => match body {
                Some(b) => self.ws(d, b, false),
                None => {
                    let pair = self.pair();
                    self.marker(Marker::WsEnter {
                        dir: d.clone(),
                        canon: None,
                        has_body: false,
                        from_parallel_for: false,
                        pair,
                    });
                    self.marker(Marker::WsExit { pair });
                }
            },
            DirKind::Single | DirKind::Master | DirKind::Critical(_) | DirKind::Atomic => {
                let pair = self.pair();
                let atomic_ok = if matches!(d.kind, DirKind::Atomic) {
                    matches!(
                        body.map(flatten_single),
                        Some(Stmt::Expr(e, _))
                            if as_scalar_update(e).is_some() || as_minmax_update(e).is_some()
                    )
                } else {
                    true
                };
                self.marker(Marker::ProtectEnter {
                    dir: d.clone(),
                    atomic_ok,
                    pair,
                });
                match body {
                    Some(b) if matches!(d.kind, DirKind::Single | DirKind::Master) => {
                        self.branch(Vec::new(), true, b, None)
                    }
                    Some(b) => self.stmt(b),
                    None => {}
                }
                self.marker(Marker::ProtectExit { pair });
            }
            DirKind::Barrier => self.marker(Marker::Barrier { dir: d.clone() }),
        }
    }

    /// A work-sharing loop (`for`, or the loop of `parallel for`).
    fn ws(&mut self, d: &Directive, body: &Stmt, from_parallel_for: bool) {
        let pair = self.pair();
        let canon = loop_of(body);
        self.marker(Marker::WsEnter {
            dir: d.clone(),
            canon: canon.as_ref().map(|l| WsInfo { var: l.var.clone() }),
            has_body: true,
            from_parallel_for,
            pair,
        });
        let body = match &canon {
            Some(l) => {
                // Bounds evaluation: reads of lo/hi, then the loop-variable
                // binding. The variable's value is per-thread whatever the
                // bounds read, hence `tainted_def`.
                let mut events = Vec::new();
                expr_events(&l.lo, &mut events);
                expr_events(&l.hi, &mut events);
                let mut ev = finish_eval(None, None, events, &[&l.lo, &l.hi], true);
                if !ev.defs.contains(&l.var) {
                    ev.defs.push(l.var.clone());
                }
                self.push(MirStmt::Eval(ev));
                self.marker(Marker::WsBody { var: l.var.clone() });
                &l.body
            }
            // Non-canonical: the analyzer diagnoses and skips, but the raw
            // body still lowers so the serial walk can reach nested
            // directives the way the AST outer walk does.
            None => body,
        };
        self.branch(Vec::new(), true, body, None);
        self.marker(Marker::WsExit { pair });
    }
}

fn whole_body(s: &Stmt) -> &Stmt {
    match s {
        Stmt::For { body, .. } => body,
        _ => unreachable!("lower_for is only called on Stmt::For"),
    }
}

/// PC005 bookkeeping for one statement in a list.
fn sibling_info(s: &Stmt) -> SiblingInfo {
    let mut uses = Vec::new();
    stmt_uses(s, &mut uses);
    let kind = match s {
        Stmt::Omp(d, _) if matches!(d.kind, DirKind::Barrier) => SiblingKind::Barrier,
        Stmt::Omp(d, Some(b)) if matches!(d.kind, DirKind::For | DirKind::Single) => {
            if d.nowait() {
                let mut writes = Vec::new();
                stmt_write_targets(b, &mut writes);
                SiblingKind::WsNowait {
                    writes,
                    loop_var: loop_of(b).map(|l| l.var),
                }
            } else {
                SiblingKind::WsJoin
            }
        }
        _ => SiblingKind::Other,
    };
    SiblingInfo {
        span: stmt_span(s),
        uses,
        kind,
    }
}

/// Linearize an expression into access events, mirroring the analyzer's
/// evaluation order exactly (rhs first, subscripts before the element,
/// the compound read-half before the write).
pub fn expr_events(e: &Expr, out: &mut Vec<AccessEvent>) {
    match e {
        Expr::Assign(op, lhs, rhs) => {
            expr_events(rhs, out);
            match lhs.as_ref() {
                Expr::Ident(n) => {
                    if op.is_some() {
                        out.push(AccessEvent::ReadVar(n.clone()));
                    }
                    out.push(AccessEvent::WriteVar(n.clone()));
                }
                Expr::Index(n, idxs) => {
                    for ix in idxs {
                        expr_events(ix, out);
                    }
                    if op.is_some() {
                        out.push(AccessEvent::LogReadIndexed(n.clone(), idxs.clone()));
                    }
                    out.push(AccessEvent::WriteIndexed(n.clone(), idxs.clone()));
                }
                other => expr_events(other, out),
            }
        }
        Expr::Ident(n) => out.push(AccessEvent::ReadVar(n.clone())),
        Expr::Index(n, idxs) => {
            for ix in idxs {
                expr_events(ix, out);
            }
            out.push(AccessEvent::ReadIndexed(n.clone(), idxs.clone()));
        }
        Expr::Call(_, args) => {
            for a in args {
                expr_events(a, out);
            }
        }
        Expr::Unary(_, a) => expr_events(a, out),
        Expr::Binary(_, a, b) => {
            expr_events(a, out);
            expr_events(b, out);
        }
        Expr::Cond(c, a, b) => {
            expr_events(c, out);
            expr_events(a, out);
            expr_events(b, out);
        }
        Expr::Int(_) | Expr::Float(_) | Expr::Str(_) => {}
    }
}

/// The [`Eval`] of `exprs` (whose linearized `events` the caller built).
fn finish_eval(
    span: Option<Span>,
    update: Option<UpdateInfo>,
    events: Vec<AccessEvent>,
    exprs: &[&Expr],
    tainted_def: bool,
) -> Eval {
    let mut calls = Vec::new();
    for e in exprs {
        e.calls(&mut calls);
    }
    let thread_num = exprs.iter().any(|e| e.calls_thread_num());
    let mut defs = Vec::new();
    let mut uses = Vec::new();
    for ev in &events {
        match ev {
            AccessEvent::ReadVar(n) if !uses.contains(n) => uses.push(n.clone()),
            AccessEvent::WriteVar(n) | AccessEvent::MarkWritten(n) if !defs.contains(n) => {
                defs.push(n.clone())
            }
            _ => {}
        }
    }
    Eval {
        span,
        update,
        events,
        calls,
        thread_num,
        defs,
        uses,
        tainted_def,
    }
}
