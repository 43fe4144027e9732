//! Directive analysis: variable classification and protocol selection.
//!
//! This is where the ParADE translator earns its keep (§4, §5.2.1): for
//! every synchronization or work-sharing directive it decides between the
//! *message-passing update protocol* (collectives; requires the enclosed
//! block to be lexically analyzable and its shared data to fit under the
//! small-data threshold) and the conventional SDSM path (distributed lock
//! and/or barrier).
//!
//! The decisions are read from `main`'s MIR ([`crate::mir`]), the same IR
//! `parade-check` lints, and applied once, by the resolver, to the form
//! both backends (the executor and the C printer) read.

use std::collections::{HashMap, HashSet};

use crate::ast::*;
use crate::mir::{AccessEvent, Eval, Marker, MirFunc, MirStmt, UpdateInfo};

/// Default small-data threshold in bytes (§5.2.1: 256 B on the paper's
/// Linux cluster).
pub const DEFAULT_SMALL_THRESHOLD: usize = 256;

/// The translator subset lets only `main` hold OpenMP directives. The
/// executor, the C printer and `parade-check` refuse function `func` in
/// these words.
pub fn only_main_may_hold_directives(func: &str) -> String {
    format!(
        "function {func} contains OpenMP directives; only main may (translator subset restriction)"
    )
}

/// Storage class decided by the protocol-classification pre-pass (§3:
/// "ParADE classifies data structures according to their size and applies
/// different protocols"). A variable in no class is a master local.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// Large data: paged DSM, HLRC invalidate protocol.
    SharedArr,
    /// Small scalar, message-passing update protocol.
    ScalarUpdate,
    /// Scalar forced onto the paged DSM (written by plain stores or inside
    /// lock-path constructs).
    ScalarHlrc,
}

/// Scope of a variable with respect to a parallel region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarScope {
    Shared,
    Private,
    FirstPrivate,
    LastPrivate,
    Reduction(RedOp),
}

/// All declarations visible to the translator, keyed by name.
/// (The subset forbids shadowing of shared variables inside regions, which
/// keeps this flat map sound.)
#[derive(Debug, Default, Clone)]
pub struct Symbols {
    pub decls: HashMap<String, Decl>,
}

impl Symbols {
    /// Collect globals plus every local declaration of `f`.
    pub fn collect(prog: &Program, f: &FuncDef) -> Symbols {
        let mut s = Symbols::default();
        for item in &prog.items {
            if let Item::Global(d) = item {
                s.decls.insert(d.name.clone(), d.clone());
            }
        }
        for p in &f.params {
            s.decls.insert(
                p.name.clone(),
                Decl {
                    ty: p.ty.clone(),
                    name: p.name.clone(),
                    dims: vec![],
                    init: None,
                    span: Span::default(),
                },
            );
        }
        collect_stmt(&f.body, &mut s);
        s
    }

    pub fn get(&self, name: &str) -> Option<&Decl> {
        self.decls.get(name)
    }

    pub fn byte_size(&self, name: &str) -> usize {
        self.get(name).map(|d| d.byte_size()).unwrap_or(8)
    }
}

fn collect_stmt(s: &Stmt, out: &mut Symbols) {
    match s {
        Stmt::Decl(d) => {
            out.decls.insert(d.name.clone(), d.clone());
        }
        Stmt::Block(ss) => {
            for s in ss {
                collect_stmt(s, out);
            }
        }
        Stmt::If(_, a, b) => {
            collect_stmt(a, out);
            if let Some(b) = b {
                collect_stmt(b, out);
            }
        }
        Stmt::While(_, b) => collect_stmt(b, out),
        Stmt::For { body, .. } => collect_stmt(body, out),
        Stmt::Omp(_, Some(b)) => collect_stmt(b, out),
        _ => {}
    }
}

/// Variable classification for one parallel region.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionClassification {
    pub scopes: HashMap<String, VarScope>,
    /// Variables declared inside the region body (always private).
    pub region_locals: HashSet<String>,
}

impl RegionClassification {
    pub fn scope_of(&self, name: &str) -> VarScope {
        if self.region_locals.contains(name) {
            return VarScope::Private;
        }
        self.scopes.get(name).copied().unwrap_or(VarScope::Shared)
    }
}

/// Classify every variable referenced by a region (OpenMP defaults: shared
/// unless privatized; region-local declarations and directive loop
/// variables are private).
pub fn classify_region(dir: &Directive, body: &Stmt, syms: &Symbols) -> RegionClassification {
    let mut c = RegionClassification::default();
    // The controlling variable of a work-shared loop defaults to private;
    // establish that before the shared-by-default pass.
    if matches!(dir.kind, DirKind::ParallelFor | DirKind::For) {
        if let Some(l) = loop_of(body) {
            c.scopes.insert(l.var, VarScope::Private);
        }
    }
    let mut used = Vec::new();
    stmt_uses(body, &mut used);
    let mut locals = HashSet::new();
    region_local_decls(body, &mut locals);
    for v in used {
        if syms.get(&v).is_some() && !locals.contains(&v) {
            c.scopes.entry(v).or_insert(VarScope::Shared);
        }
    }
    for v in dir.privates() {
        c.scopes.insert(v, VarScope::Private);
    }
    for v in dir.firstprivates() {
        c.scopes.insert(v, VarScope::FirstPrivate);
    }
    for v in dir.lastprivates() {
        c.scopes.insert(v, VarScope::LastPrivate);
    }
    for (op, v) in dir.reductions() {
        c.scopes.insert(v, VarScope::Reduction(op));
    }
    c.region_locals = locals;
    c
}

fn region_local_decls(s: &Stmt, out: &mut HashSet<String>) {
    match s {
        Stmt::Decl(d) => {
            out.insert(d.name.clone());
        }
        Stmt::Block(ss) => {
            for s in ss {
                region_local_decls(s, out);
            }
        }
        Stmt::If(_, a, b) => {
            region_local_decls(a, out);
            if let Some(b) = b {
                region_local_decls(b, out);
            }
        }
        Stmt::While(_, b) => region_local_decls(b, out),
        Stmt::For { body, .. } => region_local_decls(body, out),
        Stmt::Omp(_, Some(b)) => region_local_decls(b, out),
        _ => {}
    }
}

/// A recognized scalar accumulation `x = x ⊕ e` / `x ⊕= e`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarUpdate {
    pub target: String,
    pub op: RedOp,
    pub operand: Expr,
}

/// Try to recognize an expression as a scalar reduction-style update of a
/// shared scalar.
pub fn as_scalar_update(e: &Expr) -> Option<ScalarUpdate> {
    let red = |b: BinOp| match b {
        BinOp::Add => Some(RedOp::Add),
        BinOp::Mul => Some(RedOp::Mul),
        _ => None,
    };
    match e {
        // x += e, x *= e
        Expr::Assign(Some(op), lhs, rhs) => {
            let Expr::Ident(name) = lhs.as_ref() else {
                return None;
            };
            let op = red(*op)?;
            operand_independent(name, rhs)?;
            Some(ScalarUpdate {
                target: name.clone(),
                op,
                operand: rhs.as_ref().clone(),
            })
        }
        // x = x + e  |  x = e + x  |  x = x * e ...
        Expr::Assign(None, lhs, rhs) => {
            let Expr::Ident(name) = lhs.as_ref() else {
                return None;
            };
            let Expr::Binary(bop, a, b) = rhs.as_ref() else {
                return None;
            };
            let op = red(*bop)?;
            let operand = if matches!(a.as_ref(), Expr::Ident(n) if n == name) {
                b.as_ref()
            } else if matches!(b.as_ref(), Expr::Ident(n) if n == name) {
                a.as_ref()
            } else {
                return None;
            };
            operand_independent(name, operand)?;
            Some(ScalarUpdate {
                target: name.clone(),
                op,
                operand: operand.clone(),
            })
        }
        _ => None,
    }
}

/// `x = fmin(x, e)` / `x = fmax(x, e)` — the combining form of min/max
/// reductions (the [`as_scalar_update`] analogue for `RedOp::Min`/`Max`).
pub fn as_minmax_update(e: &Expr) -> Option<ScalarUpdate> {
    let Expr::Assign(None, lhs, rhs) = e else {
        return None;
    };
    let Expr::Ident(name) = lhs.as_ref() else {
        return None;
    };
    let Expr::Call(f, args) = rhs.as_ref() else {
        return None;
    };
    let op = match f.as_str() {
        "fmin" => RedOp::Min,
        "fmax" => RedOp::Max,
        _ => return None,
    };
    if args.len() != 2 {
        return None;
    }
    let is_self = |a: &Expr| matches!(a, Expr::Ident(n) if n == name);
    let other = if is_self(&args[0]) {
        &args[1]
    } else if is_self(&args[1]) {
        &args[0]
    } else {
        return None;
    };
    operand_independent(name, other)?;
    Some(ScalarUpdate {
        target: name.clone(),
        op,
        operand: other.clone(),
    })
}

/// `atomic` bodies arrive as `{ x += e; }` or bare `x += e;` — strip a
/// single-statement block down to the statement.
pub fn flatten_single(s: &Stmt) -> &Stmt {
    if let Stmt::Block(ss) = s {
        let real: Vec<&Stmt> = ss.iter().filter(|s| !matches!(s, Stmt::Empty)).collect();
        if real.len() == 1 {
            return real[0];
        }
    }
    s
}

/// The operand of an update must not itself mention the target (otherwise
/// the collective reduction semantics would differ from serialization).
fn operand_independent(name: &str, e: &Expr) -> Option<()> {
    let mut vars = Vec::new();
    e.vars(&mut vars);
    if vars.iter().any(|v| v == name) {
        None
    } else {
        Some(())
    }
}

/// How a `critical` block is lowered.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CriticalLowering {
    /// Hierarchical pthread lock + collective update (Figure 2 right).
    Collective(Vec<UpdateInfo>),
    /// Conventional distributed lock (Figure 2 left / fallback).
    Lock,
}

/// How a `single` block is lowered.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SingleLowering {
    /// Earliest thread executes under the node lock; the written small
    /// scalars are broadcast — no barrier (Figure 3 right).
    Broadcast(Vec<String>),
    /// Conventional: distributed lock + DSM flag + barrier (Figure 3 left).
    LockFlagBarrier,
}

/// How an `atomic` is lowered.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AtomicLowering {
    /// One collective update of a small scalar.
    Collective(UpdateInfo),
    /// Distributed lock around the update (its target lives on HLRC).
    Lock(UpdateInfo),
}

/// The lexical verdict on one `critical`, `atomic` or `single`: `None`
/// where the body does not have the shape its collective lowering needs.
#[derive(Debug)]
enum Site {
    Critical(Option<Vec<UpdateInfo>>),
    Atomic(Option<UpdateInfo>),
    Single(Option<Vec<String>>),
}

impl Site {
    fn is_collective(&self) -> bool {
        match self {
            Site::Critical(updates) => updates.is_some(),
            // An `atomic` never forces its target onto a DSM page.
            Site::Atomic(_) => true,
            Site::Single(targets) => targets.is_some(),
        }
    }
}

/// The storage class of every shared variable of one function and the
/// final lowering of its `critical`, `atomic` and `single` constructs,
/// planned from the function's MIR. A construct whose body has the
/// collective shape still takes the lock / flag + barrier path when a
/// target is not on the update protocol: a scalar also written by a plain
/// store or inside a lock-path construct lives on a DSM page, where a
/// collective update would never be seen. The resolver is the one reader:
/// it looks each construct up by directive, once per program.
#[derive(Debug, Default)]
pub(crate) struct Lowering {
    symbols: Symbols,
    storage: HashMap<String, StorageKind>,
    /// Classification of every `parallel` / `parallel for` with a body.
    regions: HashMap<Span, RegionClassification>,
    sites: HashMap<Span, Site>,
}

impl Lowering {
    /// Plan `func` (lowered from `prog`) for the small-data `threshold`
    /// (bytes). One walk over the marker stream:
    /// - arrays shared by a region go to the paged DSM, shared scalars to
    ///   the update protocol, and globals start on HLRC (callees may touch
    ///   them from inside regions);
    /// - a scalar written inside a region (a `WriteVar` event, or the
    ///   binding of a work-shared loop variable) is forced onto HLRC,
    ///   unless the write sits in a construct with a collective shape.
    pub fn plan(prog: &Program, func: MirFunc, threshold: usize) -> Lowering {
        let mut plan = Lowering::default();
        for item in &prog.items {
            if let Item::Global(d) = item {
                let kind = if d.is_array() {
                    StorageKind::SharedArr
                } else {
                    StorageKind::ScalarHlrc
                };
                plan.storage.insert(d.name.clone(), kind);
            }
        }
        let syms = &func.syms;
        let stmts: Vec<(usize, &MirStmt)> = func
            .blocks
            .iter()
            .enumerate()
            .flat_map(|(b, blk)| blk.stmts.iter().map(move |s| (b, s)))
            .collect();
        // Enclosing regions, innermost last.
        let mut classes: Vec<Option<&RegionClassification>> = Vec::new();
        // Enclosing `critical`/`atomic`/`single` pairs and whether each has
        // the collective shape. The outermost one decides whether the
        // writes inside it force HLRC.
        let mut protects: Vec<(u32, bool)> = Vec::new();
        for (at, &(_, s)) in stmts.iter().enumerate() {
            let forcing = !classes.is_empty() && protects.first().is_none_or(|p| !p.1);
            match s {
                MirStmt::Eval(e) if forcing => {
                    for ev in &e.events {
                        if let AccessEvent::WriteVar(n) = ev {
                            plan.force_hlrc(n);
                        }
                    }
                }
                MirStmt::Eval(_) => {}
                MirStmt::Marker(m) => match m {
                    Marker::WsBody { var } if forcing => plan.force_hlrc(var),
                    Marker::ParallelEnter { dir, class, .. } => {
                        if let Some(class) = class {
                            if classes.is_empty() {
                                plan.add_shared(class, syms);
                            }
                            plan.regions.insert(dir.span, class.clone());
                        }
                        classes.push(class.as_ref());
                    }
                    Marker::ParallelExit { .. } => {
                        classes.pop();
                    }
                    Marker::ProtectEnter {
                        dir,
                        atomic_ok,
                        pair,
                    } => {
                        let end = at + stmts[at..]
                            .iter()
                            .position(|(_, s)| {
                                matches!(s, MirStmt::Marker(m) if m.exit_pair() == Some(*pair))
                            })
                            .expect("every ProtectEnter has its ProtectExit");
                        let body = &stmts[at..=end];
                        let class = classes.last().copied().flatten();
                        let site = match &dir.kind {
                            DirKind::Critical(_) => Site::Critical(
                                class.and_then(|c| critical_updates(body, c, syms, threshold)),
                            ),
                            DirKind::Single => Site::Single(
                                class.and_then(|c| single_targets(body, c, syms, threshold)),
                            ),
                            DirKind::Atomic => Site::Atomic(
                                atomic_ok
                                    .then(|| evals(body).find_map(|e| e.update.clone()))
                                    .flatten(),
                            ),
                            _ => continue,
                        };
                        protects.push((*pair, site.is_collective()));
                        plan.sites.insert(dir.span, site);
                    }
                    Marker::ProtectExit { pair } if protects.last().map(|p| p.0) == Some(*pair) => {
                        protects.pop();
                    }
                    _ => {}
                },
            }
        }
        plan.symbols = func.syms;
        plan
    }

    fn add_shared(&mut self, class: &RegionClassification, syms: &Symbols) {
        for (name, scope) in &class.scopes {
            let (VarScope::Shared, Some(d)) = (scope, syms.get(name)) else {
                continue;
            };
            let entry = self.storage.entry(name.clone()).or_insert(if d.is_array() {
                StorageKind::SharedArr
            } else {
                StorageKind::ScalarUpdate
            });
            if d.is_array() {
                *entry = StorageKind::SharedArr;
            }
        }
    }

    fn force_hlrc(&mut self, name: &str) {
        if let Some(k) = self.storage.get_mut(name) {
            if *k == StorageKind::ScalarUpdate {
                *k = StorageKind::ScalarHlrc;
            }
        }
    }

    /// Declarations visible in the function.
    pub fn symbols(&self) -> &Symbols {
        &self.symbols
    }

    /// Storage class of every shared variable.
    pub fn storage(&self) -> &HashMap<String, StorageKind> {
        &self.storage
    }

    /// Variable classification of the region `dir` opens.
    pub fn region(&self, dir: &Directive) -> &RegionClassification {
        self.regions
            .get(&dir.span)
            .expect("every region with a body is classified")
    }

    /// Is `name` a shared scalar on the update protocol?
    fn on_update_protocol(&self, name: &str) -> bool {
        self.storage.get(name) == Some(&StorageKind::ScalarUpdate)
    }

    pub fn critical(&self, dir: &Directive) -> CriticalLowering {
        match self.sites.get(&dir.span) {
            Some(Site::Critical(Some(updates)))
                if updates.iter().all(|u| self.on_update_protocol(&u.target)) =>
            {
                CriticalLowering::Collective(updates.clone())
            }
            _ => CriticalLowering::Lock,
        }
    }

    /// `Err` says what is wrong with a body that is no scalar update.
    pub fn atomic(&self, dir: &Directive) -> Result<AtomicLowering, &'static str> {
        let Some(Site::Atomic(Some(u))) = self.sites.get(&dir.span) else {
            return Err("atomic body must be a single scalar update statement");
        };
        Ok(if self.on_update_protocol(&u.target) {
            AtomicLowering::Collective(u.clone())
        } else {
            AtomicLowering::Lock(u.clone())
        })
    }

    pub fn single(&self, dir: &Directive) -> SingleLowering {
        match self.sites.get(&dir.span) {
            Some(Site::Single(Some(targets)))
                if targets.iter().all(|t| self.on_update_protocol(t)) =>
            {
                SingleLowering::Broadcast(targets.clone())
            }
            _ => SingleLowering::LockFlagBarrier,
        }
    }
}

/// The evaluations of a construct (`body` runs from its enter marker to
/// its exit marker).
fn evals<'a>(body: &'a [(usize, &'a MirStmt)]) -> impl Iterator<Item = &'a Eval> {
    body.iter().filter_map(|(_, s)| match s {
        MirStmt::Eval(e) => Some(e),
        _ => None,
    })
}

/// The evaluations of a lexically analyzable construct body (§4.2):
/// straight-line statements, no nested construct or condition, and no
/// call but to math builtins. `None` otherwise.
///
/// Straight-line means the body adds no block: a `critical` body shares
/// its markers' block, and a `single` body is the one block between the
/// one-thread branch and its rejoin.
fn analyzable<'a>(body: &'a [(usize, &'a MirStmt)]) -> Option<Vec<&'a Eval>> {
    let one_sided = matches!(
        body[0].1,
        MirStmt::Marker(Marker::ProtectEnter { dir, .. })
            if matches!(dir.kind, DirKind::Single)
    );
    let (first, last) = (body[0].0, body[body.len() - 1].0);
    let plain = body[1..body.len() - 1].iter().all(|(_, s)| {
        matches!(
            s,
            MirStmt::Eval(_)
                | MirStmt::Marker(Marker::BlockStart | Marker::BlockEnd | Marker::Sibling(_))
        )
    });
    let evals: Vec<&Eval> = evals(body).collect();
    let calls_only_math = evals
        .iter()
        .all(|e| e.calls.iter().all(|c| is_math_builtin(c)));
    (last - first == 2 * one_sided as usize && plain && calls_only_math).then_some(evals)
}

/// `critical` (§4.2 + §5.2.1 + §7): every statement a scalar accumulation
/// on a shared scalar, together under the threshold.
fn critical_updates(
    body: &[(usize, &MirStmt)],
    class: &RegionClassification,
    syms: &Symbols,
    threshold: usize,
) -> Option<Vec<UpdateInfo>> {
    let mut updates = Vec::new();
    let mut bytes = 0;
    for e in analyzable(body)? {
        let u = e.update.as_ref()?;
        if !matches!(class.scope_of(&u.target), VarScope::Shared)
            || syms.get(&u.target).is_some_and(|d| d.is_array())
        {
            return None;
        }
        bytes += syms.byte_size(&u.target);
        updates.push(u.clone());
    }
    (!updates.is_empty() && bytes <= threshold).then_some(updates)
}

/// `single`: writes only scalars (the shared ones together under the
/// threshold); returns the shared ones, to broadcast.
fn single_targets(
    body: &[(usize, &MirStmt)],
    class: &RegionClassification,
    syms: &Symbols,
    threshold: usize,
) -> Option<Vec<String>> {
    let mut targets: Vec<String> = Vec::new();
    let mut bytes = 0;
    for e in analyzable(body)? {
        for ev in &e.events {
            match ev {
                AccessEvent::WriteVar(n) if matches!(class.scope_of(n), VarScope::Shared) => {
                    if syms.get(n).is_some_and(|d| d.is_array()) {
                        return None;
                    }
                    bytes += syms.byte_size(n);
                    if !targets.contains(n) {
                        targets.push(n.clone());
                    }
                }
                AccessEvent::WriteIndexed(..) | AccessEvent::MarkWritten(_) => return None,
                _ => {}
            }
        }
    }
    (bytes <= threshold).then_some(targets)
}

/// A canonical `for` loop recognized by the work-sharing lowering.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonLoop {
    pub var: String,
    pub lo: Expr,
    /// Exclusive upper bound.
    pub hi: Expr,
    /// Positive stride.
    pub step: i64,
    pub body: Stmt,
}

/// Find the `for` loop a work-sharing directive applies to.
pub fn loop_of(body: &Stmt) -> Option<CanonLoop> {
    let Stmt::For {
        init,
        cond,
        step,
        body,
    } = body
    else {
        return None;
    };
    // init: i = lo
    let Some(Expr::Assign(None, lhs, lo)) = init else {
        return None;
    };
    let Expr::Ident(var) = lhs.as_ref() else {
        return None;
    };
    // cond: i < hi  or  i <= hi
    let Some(Expr::Binary(cmp, cl, ch)) = cond else {
        return None;
    };
    if !matches!(cl.as_ref(), Expr::Ident(n) if n == var) {
        return None;
    }
    let hi = match cmp {
        BinOp::Lt => ch.as_ref().clone(),
        BinOp::Le => Expr::Binary(
            BinOp::Add,
            Box::new(ch.as_ref().clone()),
            Box::new(Expr::Int(1)),
        ),
        _ => return None,
    };
    // step: i++  |  i += c  |  i = i + c
    let stride = match step {
        Some(Expr::Assign(Some(BinOp::Add), sl, sr)) if matches!(sl.as_ref(), Expr::Ident(n) if n == var) => {
            match sr.as_ref() {
                Expr::Int(c) if *c > 0 => *c,
                _ => return None,
            }
        }
        Some(Expr::Assign(None, sl, sr)) if matches!(sl.as_ref(), Expr::Ident(n) if n == var) => {
            match sr.as_ref() {
                Expr::Binary(BinOp::Add, a, b) if matches!(a.as_ref(), Expr::Ident(n) if n == var) => {
                    match b.as_ref() {
                        Expr::Int(c) if *c > 0 => *c,
                        _ => return None,
                    }
                }
                _ => return None,
            }
        }
        _ => return None,
    };
    Some(CanonLoop {
        var: var.clone(),
        lo: lo.as_ref().clone(),
        hi,
        step: stride,
        body: body.as_ref().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::lower_func;
    use crate::parser::parse;

    fn region_of(src: &str) -> (Directive, Stmt, Symbols) {
        let prog = parse(src).unwrap();
        let f = prog.func("main").unwrap().clone();
        let syms = Symbols::collect(&prog, &f);
        fn find(s: &Stmt) -> Option<(Directive, Stmt)> {
            match s {
                Stmt::Omp(d, Some(b))
                    if matches!(d.kind, DirKind::Parallel | DirKind::ParallelFor) =>
                {
                    Some((d.clone(), b.as_ref().clone()))
                }
                Stmt::Block(ss) => ss.iter().find_map(find),
                _ => None,
            }
        }
        let (d, b) = find(&f.body).expect("region found");
        (d, b, syms)
    }

    #[test]
    fn default_scope_is_shared() {
        let (d, b, syms) = region_of(
            "int main() { double x; int i;\n#pragma omp parallel private(i)\n{ x = 1.0; i = 2; }\nreturn 0; }",
        );
        let c = classify_region(&d, &b, &syms);
        assert_eq!(c.scope_of("x"), VarScope::Shared);
        assert_eq!(c.scope_of("i"), VarScope::Private);
    }

    #[test]
    fn region_locals_are_private() {
        let (d, b, syms) = region_of(
            "int main() { double x;\n#pragma omp parallel\n{ double t; t = 1.0; x = t; }\nreturn 0; }",
        );
        let c = classify_region(&d, &b, &syms);
        assert_eq!(c.scope_of("t"), VarScope::Private);
        assert_eq!(c.scope_of("x"), VarScope::Shared);
    }

    #[test]
    fn parallel_for_loop_var_is_private() {
        let (d, b, syms) = region_of(
            "int main() { int i; double a[100];\n#pragma omp parallel for\nfor (i = 0; i < 100; i++) a[i] = 1.0;\nreturn 0; }",
        );
        let c = classify_region(&d, &b, &syms);
        assert_eq!(c.scope_of("i"), VarScope::Private);
    }

    #[test]
    fn scalar_update_patterns() {
        let u = as_scalar_update(&parse_expr("x += y * 2.0")).unwrap();
        assert_eq!(u.target, "x");
        assert_eq!(u.op, RedOp::Add);
        let u = as_scalar_update(&parse_expr("x = x + 1.0")).unwrap();
        assert_eq!(u.op, RedOp::Add);
        let u = as_scalar_update(&parse_expr("x = y + x")).unwrap();
        assert_eq!(u.target, "x");
        assert!(as_scalar_update(&parse_expr("x = x - 1.0")).is_none());
        assert!(as_scalar_update(&parse_expr("x = x + x")).is_none());
        assert!(as_scalar_update(&parse_expr("a[0] += 1.0")).is_none());
    }

    fn parse_expr(s: &str) -> Expr {
        let prog = parse(&format!(
            "int main() {{ double x, y; double a[4]; {s}; return 0; }}"
        ))
        .unwrap();
        let f = prog.func("main").unwrap();
        let Stmt::Block(ss) = &f.body else { panic!() };
        ss.iter()
            .find_map(|st| match st {
                Stmt::Expr(e, _) => Some(e.clone()),
                _ => None,
            })
            .unwrap()
    }

    /// `main`'s plan, and its first `critical`/`atomic`/`single`/`master`
    /// whose kind `pick` accepts.
    fn plan_of(src: &str, pick: fn(&DirKind) -> bool) -> (Lowering, Directive) {
        let prog = parse(src).unwrap();
        let mir = lower_func(&prog, prog.func("main").unwrap());
        let dir = mir
            .blocks
            .iter()
            .flat_map(|b| &b.stmts)
            .find_map(|s| match s {
                MirStmt::Marker(Marker::ProtectEnter { dir, .. }) if pick(&dir.kind) => {
                    Some(dir.clone())
                }
                _ => None,
            })
            .expect("construct found");
        (Lowering::plan(&prog, mir, DEFAULT_SMALL_THRESHOLD), dir)
    }

    fn is_critical(k: &DirKind) -> bool {
        matches!(k, DirKind::Critical(_))
    }

    #[test]
    fn critical_small_scalar_becomes_collective() {
        let (plan, crit) = plan_of(
            r#"int main() { double sum; double local;
#pragma omp parallel
{
#pragma omp critical
{ sum = sum + local; }
}
return 0; }"#,
            is_critical,
        );
        match plan.critical(&crit) {
            CriticalLowering::Collective(us) => {
                assert_eq!(us.len(), 1);
                assert_eq!(us[0].target, "sum");
            }
            other => panic!("expected collective, got {other:?}"),
        }
    }

    #[test]
    fn critical_with_call_falls_back_to_lock() {
        let (plan, crit) = plan_of(
            r#"int main() { double sum;
#pragma omp parallel
{
#pragma omp critical
{ sum = sum + compute(); }
}
return 0; }
double compute() { return 1.0; }"#,
            is_critical,
        );
        assert_eq!(plan.critical(&crit), CriticalLowering::Lock);
    }

    #[test]
    fn critical_large_array_falls_back_to_lock() {
        let (plan, crit) = plan_of(
            r#"int main() { double big[1000]; double s;
#pragma omp parallel
{
#pragma omp critical
{ big[0] = big[0] + 1.0; }
}
return 0; }"#,
            is_critical,
        );
        assert_eq!(plan.critical(&crit), CriticalLowering::Lock);
    }

    #[test]
    fn single_small_write_broadcasts() {
        let (plan, single) = plan_of(
            r#"int main() { double tol;
#pragma omp parallel
{
#pragma omp single
{ tol = 1e-7; }
}
return 0; }"#,
            |k| matches!(k, DirKind::Single),
        );
        assert_eq!(
            plan.single(&single),
            SingleLowering::Broadcast(vec!["tol".to_string()])
        );
    }

    #[test]
    fn single_array_init_needs_barrier_path() {
        let (plan, single) = plan_of(
            r#"int main() { double a[100];
#pragma omp parallel
{
#pragma omp single
{ a[0] = 1.0; }
}
return 0; }"#,
            |k| matches!(k, DirKind::Single),
        );
        assert_eq!(plan.single(&single), SingleLowering::LockFlagBarrier);
    }

    /// The shape `check` accepts for `atomic` (PC007) is the shape the
    /// lowering takes collectively: braced, and `fmin`/`fmax` updates too.
    #[test]
    fn atomic_takes_every_update_shape_check_accepts() {
        for (body, op) in [
            ("{ x += 2.0; }", RedOp::Add),
            ("x = fmin(x, 2.0);", RedOp::Min),
            ("{ x = fmax(3.0, x); }", RedOp::Max),
        ] {
            let src = format!(
                "int main() {{ double x;\n#pragma omp parallel\n{{\n#pragma omp atomic\n{body}\n}}\nreturn 0; }}"
            );
            let (plan, atomic) = plan_of(&src, |k| matches!(k, DirKind::Atomic));
            match plan.atomic(&atomic) {
                Ok(AtomicLowering::Collective(u)) => {
                    assert_eq!((u.target.as_str(), u.op), ("x", op))
                }
                other => panic!("{body}: {other:?}"),
            }
        }
        let (plan, atomic) = plan_of(
            "int main() { double x; double y;\n#pragma omp parallel\n{\n#pragma omp atomic\nx = y;\n}\nreturn 0; }",
            |k| matches!(k, DirKind::Atomic),
        );
        assert!(plan.atomic(&atomic).is_err());
    }

    /// A plain store in a region, or any write inside a lock-path
    /// construct, puts a shared scalar on a DSM page; writes inside a
    /// collective-shaped construct do not.
    #[test]
    fn writes_outside_collective_constructs_force_hlrc() {
        let (plan, crit) = plan_of(
            r#"int main() { double s; double t; double u; double v; double a[8];
#pragma omp parallel
{
t = 1.0;
#pragma omp critical
{ s += 1.0; a[0] = 2.0; }
#pragma omp critical(sum)
{ u += v; }
}
return 0; }"#,
            is_critical,
        );
        assert_eq!(plan.critical(&crit), CriticalLowering::Lock);
        let kind = |n: &str| plan.storage()[n];
        assert_eq!(kind("a"), StorageKind::SharedArr);
        assert_eq!(kind("s"), StorageKind::ScalarHlrc);
        assert_eq!(kind("t"), StorageKind::ScalarHlrc);
        assert_eq!(kind("u"), StorageKind::ScalarUpdate);
        assert_eq!(kind("v"), StorageKind::ScalarUpdate);
    }

    #[test]
    fn canonical_loop_extraction() {
        let prog = parse(
            "int main() { int i; double a[10]; for (i = 0; i < 10; i++) a[i] = 1.0; return 0; }",
        )
        .unwrap();
        let f = prog.func("main").unwrap();
        let Stmt::Block(ss) = &f.body else { panic!() };
        let floop = ss.iter().find(|s| matches!(s, Stmt::For { .. })).unwrap();
        let l = loop_of(floop).unwrap();
        assert_eq!(l.var, "i");
        assert_eq!(l.lo, Expr::Int(0));
        assert_eq!(l.hi, Expr::Int(10));
        assert_eq!(l.step, 1);
    }

    #[test]
    fn le_bound_becomes_exclusive() {
        let prog = parse(
            "int main() { int i; double a[11]; for (i = 1; i <= 10; i += 2) a[i] = 1.0; return 0; }",
        )
        .unwrap();
        let f = prog.func("main").unwrap();
        let Stmt::Block(ss) = &f.body else { panic!() };
        let floop = ss.iter().find(|s| matches!(s, Stmt::For { .. })).unwrap();
        let l = loop_of(floop).unwrap();
        assert_eq!(l.step, 2);
        assert_eq!(
            l.hi,
            Expr::Binary(BinOp::Add, Box::new(Expr::Int(10)), Box::new(Expr::Int(1)))
        );
    }
}
