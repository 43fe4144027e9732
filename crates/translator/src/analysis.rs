//! Directive analysis: variable classification and protocol selection.
//!
//! This is where the ParADE translator earns its keep (§4, §5.2.1): for
//! every synchronization or work-sharing directive it decides between the
//! *message-passing update protocol* (collectives; requires the enclosed
//! block to be lexically analyzable and its shared data to fit under the
//! small-data threshold) and the conventional SDSM path (distributed lock
//! and/or barrier).

use std::collections::{HashMap, HashSet};

use crate::ast::*;

/// Default small-data threshold in bytes (§5.2.1: 256 B on the paper's
/// Linux cluster).
pub const DEFAULT_SMALL_THRESHOLD: usize = 256;

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

    pub fn shared_vars(&self) -> Vec<String> {
        self.scopes
            .iter()
            .filter(|(_, s)| matches!(s, VarScope::Shared))
            .map(|(n, _)| n.clone())
            .collect()
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
        if let Some(var) = loop_of(body).and_then(|l| l.var()) {
            c.scopes.insert(var, VarScope::Private);
        }
    }
    let mut used = Vec::new();
    stmt_vars(body, &mut used);
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

fn stmt_vars(s: &Stmt, out: &mut Vec<String>) {
    match s {
        Stmt::Decl(d) => {
            if let Some(e) = &d.init {
                e.vars(out);
            }
        }
        Stmt::Expr(e, _) => e.vars(out),
        Stmt::If(c, a, b) => {
            c.vars(out);
            stmt_vars(a, out);
            if let Some(b) = b {
                stmt_vars(b, out);
            }
        }
        Stmt::While(c, b) => {
            c.vars(out);
            stmt_vars(b, out);
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            for e in [init, cond, step].into_iter().flatten() {
                e.vars(out);
            }
            stmt_vars(body, out);
        }
        Stmt::Block(ss) => {
            for s in ss {
                stmt_vars(s, out);
            }
        }
        Stmt::Return(Some(e)) => e.vars(out),
        Stmt::Omp(_, Some(b)) => stmt_vars(b, out),
        _ => {}
    }
}

fn stmt_calls(s: &Stmt, out: &mut Vec<String>) {
    match s {
        Stmt::Decl(d) => {
            if let Some(e) = &d.init {
                e.calls(out);
            }
        }
        Stmt::Expr(e, _) => e.calls(out),
        Stmt::If(c, a, b) => {
            c.calls(out);
            stmt_calls(a, out);
            if let Some(b) = b {
                stmt_calls(b, out);
            }
        }
        Stmt::While(c, b) => {
            c.calls(out);
            stmt_calls(b, out);
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            for e in [init, cond, step].into_iter().flatten() {
                e.calls(out);
            }
            stmt_calls(body, out);
        }
        Stmt::Block(ss) => {
            for s in ss {
                stmt_calls(s, out);
            }
        }
        Stmt::Return(Some(e)) => e.calls(out),
        Stmt::Omp(_, Some(b)) => stmt_calls(b, out),
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
            } else if matches!(b.as_ref(), Expr::Ident(n) if n == name) && op != RedOp::Mul {
                // commutative + only for safety with mul ordering
                a.as_ref()
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

/// How a `critical` (or `atomic`) block is lowered.
#[derive(Debug, Clone, PartialEq)]
pub enum CriticalLowering {
    /// Hierarchical pthread lock + collective update (Figure 2 right).
    Collective(Vec<ScalarUpdate>),
    /// Conventional distributed lock (Figure 2 left / fallback).
    Lock,
}

/// Decide the lowering of a critical block (§4.2 + §5.2.1 + §7):
/// lexically analyzable (no non-builtin calls), every statement a scalar
/// accumulation on a shared scalar, and the touched shared data under the
/// threshold.
fn analyze_critical(
    body: &Stmt,
    class: &RegionClassification,
    syms: &Symbols,
    threshold: usize,
) -> CriticalLowering {
    let mut calls = Vec::new();
    stmt_calls(body, &mut calls);
    if calls.iter().any(|c| !is_math_builtin(c)) {
        return CriticalLowering::Lock;
    }
    let stmts: Vec<&Stmt> = match body {
        Stmt::Block(ss) => ss.iter().collect(),
        other => vec![other],
    };
    let mut updates = Vec::new();
    let mut touched = 0usize;
    for s in stmts {
        match s {
            Stmt::Empty => {}
            Stmt::Expr(e, _) => match as_scalar_update(e) {
                Some(u) => {
                    if !matches!(class.scope_of(&u.target), VarScope::Shared) {
                        return CriticalLowering::Lock;
                    }
                    if syms.get(&u.target).map(|d| d.is_array()).unwrap_or(false) {
                        return CriticalLowering::Lock;
                    }
                    touched += syms.byte_size(&u.target);
                    updates.push(u);
                }
                None => return CriticalLowering::Lock,
            },
            _ => return CriticalLowering::Lock,
        }
    }
    if updates.is_empty() || touched > threshold {
        return CriticalLowering::Lock;
    }
    CriticalLowering::Collective(updates)
}

/// How a `single` block is lowered.
#[derive(Debug, Clone, PartialEq)]
pub enum SingleLowering {
    /// Earliest thread executes under the node lock; the written small
    /// scalars are broadcast — no barrier (Figure 3 right).
    Broadcast(Vec<String>),
    /// Conventional: distributed lock + DSM flag + barrier (Figure 3 left).
    LockFlagBarrier,
}

/// Decide the lowering of a single block: analyzable and writing only
/// small shared scalars → broadcast path.
fn analyze_single(
    body: &Stmt,
    class: &RegionClassification,
    syms: &Symbols,
    threshold: usize,
) -> SingleLowering {
    let mut calls = Vec::new();
    stmt_calls(body, &mut calls);
    if calls.iter().any(|c| !is_math_builtin(c)) {
        return SingleLowering::LockFlagBarrier;
    }
    let mut writes = Vec::new();
    if collect_scalar_writes(body, &mut writes).is_err() {
        return SingleLowering::LockFlagBarrier;
    }
    let mut total = 0usize;
    let mut targets = Vec::new();
    for w in writes {
        if !matches!(class.scope_of(&w), VarScope::Shared) {
            // Private writes are fine but irrelevant for propagation.
            continue;
        }
        if syms.get(&w).map(|d| d.is_array()).unwrap_or(false) {
            return SingleLowering::LockFlagBarrier;
        }
        total += syms.byte_size(&w);
        if !targets.contains(&w) {
            targets.push(w);
        }
    }
    if total > threshold {
        return SingleLowering::LockFlagBarrier;
    }
    SingleLowering::Broadcast(targets)
}

/// Collect scalar assignment targets; `Err` on array writes or control
/// flow that defeats lexical analysis.
fn collect_scalar_writes(s: &Stmt, out: &mut Vec<String>) -> Result<(), ()> {
    match s {
        Stmt::Empty => Ok(()),
        Stmt::Expr(e, _) => expr_writes(e, out),
        Stmt::Block(ss) => {
            for s in ss {
                collect_scalar_writes(s, out)?;
            }
            Ok(())
        }
        _ => Err(()),
    }
}

fn expr_writes(e: &Expr, out: &mut Vec<String>) -> Result<(), ()> {
    match e {
        Expr::Assign(_, lhs, rhs) => {
            match lhs.as_ref() {
                Expr::Ident(n) => out.push(n.clone()),
                Expr::Index(..) => return Err(()),
                _ => return Err(()),
            }
            expr_writes(rhs, out)
        }
        Expr::Binary(_, a, b) => {
            expr_writes(a, out)?;
            expr_writes(b, out)
        }
        Expr::Unary(_, a) => expr_writes(a, out),
        Expr::Cond(c, a, b) => {
            expr_writes(c, out)?;
            expr_writes(a, out)?;
            expr_writes(b, out)
        }
        Expr::Call(_, args) => {
            for a in args {
                expr_writes(a, out)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// How an `atomic` is lowered.
#[derive(Debug, Clone, PartialEq)]
pub enum AtomicLowering {
    /// One collective update of a small scalar.
    Collective(ScalarUpdate),
    /// Distributed lock around the update (its target lives on HLRC).
    Lock(ScalarUpdate),
}

/// The final lowering of every `critical`, `atomic` and `single` of one
/// function: the lexical analyses above, demoted to the lock / flag +
/// barrier path when a target is not on the update protocol (a scalar also
/// written by a plain store or a lock-path construct lives on a DSM page,
/// where a collective update would never be seen). The emitter and the
/// executor's resolver both decide through here.
#[derive(Debug, Default)]
pub struct Lowering {
    symbols: Symbols,
    storage: HashMap<String, StorageKind>,
    threshold: usize,
}

impl Lowering {
    /// Plan `f` of `prog` for the small-data `threshold` (bytes).
    pub fn plan(prog: &Program, f: &FuncDef, threshold: usize) -> Lowering {
        let symbols = Symbols::collect(prog, f);
        let storage = plan_storage(prog, f, &symbols, threshold);
        Lowering {
            symbols,
            storage,
            threshold,
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

    /// Is `name` a shared scalar on the update protocol?
    fn on_update_protocol(&self, name: &str) -> bool {
        self.storage.get(name) == Some(&StorageKind::ScalarUpdate)
    }

    pub fn critical(&self, body: &Stmt, class: &RegionClassification) -> CriticalLowering {
        match analyze_critical(body, class, &self.symbols, self.threshold) {
            CriticalLowering::Collective(updates)
                if updates.iter().all(|u| self.on_update_protocol(&u.target)) =>
            {
                CriticalLowering::Collective(updates)
            }
            _ => CriticalLowering::Lock,
        }
    }

    /// `Err` names what is wrong with a body that is no scalar update.
    pub fn atomic(&self, body: Option<&Stmt>) -> Result<AtomicLowering, &'static str> {
        let Some(Stmt::Expr(e, _)) = body else {
            return Err("atomic body must be an expression statement");
        };
        let u = as_scalar_update(e).ok_or("atomic body must be a scalar update")?;
        Ok(if self.on_update_protocol(&u.target) {
            AtomicLowering::Collective(u)
        } else {
            AtomicLowering::Lock(u)
        })
    }

    pub fn single(&self, body: &Stmt, class: &RegionClassification) -> SingleLowering {
        match analyze_single(body, class, &self.symbols, self.threshold) {
            SingleLowering::Broadcast(targets)
                if targets.iter().all(|t| self.on_update_protocol(t)) =>
            {
                SingleLowering::Broadcast(targets)
            }
            _ => SingleLowering::LockFlagBarrier,
        }
    }
}

/// Decide the storage/protocol of every variable (globals + `f`'s locals):
/// arrays shared by any region go to the paged DSM; shared scalars use the
/// update protocol unless written by plain stores or lock-path constructs,
/// which force HLRC.
fn plan_storage(
    prog: &Program,
    f: &FuncDef,
    syms: &Symbols,
    threshold: usize,
) -> HashMap<String, StorageKind> {
    let mut kinds: HashMap<String, StorageKind> = HashMap::new();
    // Globals are conservatively shared (callees may touch them from
    // inside regions).
    for item in &prog.items {
        if let Item::Global(d) = item {
            kinds.insert(
                d.name.clone(),
                if d.is_array() {
                    StorageKind::SharedArr
                } else {
                    StorageKind::ScalarHlrc
                },
            );
        }
    }
    let mut regions = Vec::new();
    collect_regions(&f.body, &mut regions);
    for (dir, body) in regions {
        let class = classify_region(dir, body, syms);
        for name in class.shared_vars() {
            let Some(d) = syms.get(&name) else { continue };
            let entry = kinds.entry(name.clone()).or_insert(if d.is_array() {
                StorageKind::SharedArr
            } else {
                StorageKind::ScalarUpdate
            });
            if d.is_array() {
                *entry = StorageKind::SharedArr;
            }
        }
        // Plain writes (outside analyzable constructs) force HLRC.
        let mut forced = Vec::new();
        forced_hlrc_writes(body, &class, syms, threshold, &mut forced);
        for name in forced {
            if let Some(k) = kinds.get_mut(&name) {
                if *k == StorageKind::ScalarUpdate {
                    *k = StorageKind::ScalarHlrc;
                }
            }
        }
    }
    kinds
}

fn collect_regions<'a>(s: &'a Stmt, out: &mut Vec<(&'a Directive, &'a Stmt)>) {
    match s {
        Stmt::Omp(d, Some(b)) if matches!(d.kind, DirKind::Parallel | DirKind::ParallelFor) => {
            out.push((d, b));
        }
        Stmt::Block(ss) => {
            for s in ss {
                collect_regions(s, out);
            }
        }
        Stmt::If(_, a, b) => {
            collect_regions(a, out);
            if let Some(b) = b {
                collect_regions(b, out);
            }
        }
        Stmt::While(_, b) => collect_regions(b, out),
        Stmt::For { body, .. } => collect_regions(body, out),
        _ => {}
    }
}

/// Scalar shared variables written by plain assignments or inside
/// lock-lowered constructs within a region body.
fn forced_hlrc_writes(
    s: &Stmt,
    class: &RegionClassification,
    syms: &Symbols,
    threshold: usize,
    out: &mut Vec<String>,
) {
    match s {
        Stmt::Expr(e, _) => expr_plain_writes(e, out),
        Stmt::Decl(d) => {
            if let Some(e) = &d.init {
                expr_plain_writes(e, out);
            }
        }
        Stmt::Block(ss) => {
            for s in ss {
                forced_hlrc_writes(s, class, syms, threshold, out);
            }
        }
        Stmt::If(c, a, b) => {
            expr_plain_writes(c, out);
            forced_hlrc_writes(a, class, syms, threshold, out);
            if let Some(b) = b {
                forced_hlrc_writes(b, class, syms, threshold, out);
            }
        }
        Stmt::While(c, b) => {
            expr_plain_writes(c, out);
            forced_hlrc_writes(b, class, syms, threshold, out);
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            for e in [init, cond, step].into_iter().flatten() {
                expr_plain_writes(e, out);
            }
            forced_hlrc_writes(body, class, syms, threshold, out);
        }
        Stmt::Omp(dir, Some(body)) => match &dir.kind {
            DirKind::Critical(_) => {
                if let CriticalLowering::Lock = analyze_critical(body, class, syms, threshold) {
                    // Writes inside a lock-path critical go to the DSM.
                    all_scalar_writes(body, out);
                }
            }
            DirKind::Atomic => { /* collective path, never forces */ }
            DirKind::Single => {
                if let SingleLowering::LockFlagBarrier =
                    analyze_single(body, class, syms, threshold)
                {
                    all_scalar_writes(body, out);
                }
            }
            _ => forced_hlrc_writes(body, class, syms, threshold, out),
        },
        _ => {}
    }
}

fn expr_plain_writes(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Assign(_, lhs, rhs) => {
            if let Expr::Ident(n) = lhs.as_ref() {
                out.push(n.clone());
            }
            expr_plain_writes(rhs, out);
        }
        Expr::Binary(_, a, b) => {
            expr_plain_writes(a, out);
            expr_plain_writes(b, out);
        }
        Expr::Unary(_, a) => expr_plain_writes(a, out),
        Expr::Cond(c, a, b) => {
            expr_plain_writes(c, out);
            expr_plain_writes(a, out);
            expr_plain_writes(b, out);
        }
        Expr::Call(_, args) => {
            for a in args {
                expr_plain_writes(a, out);
            }
        }
        _ => {}
    }
}

fn all_scalar_writes(s: &Stmt, out: &mut Vec<String>) {
    match s {
        Stmt::Expr(e, _) => expr_plain_writes(e, out),
        Stmt::Block(ss) => {
            for s in ss {
                all_scalar_writes(s, out);
            }
        }
        Stmt::If(_, a, b) => {
            all_scalar_writes(a, out);
            if let Some(b) = b {
                all_scalar_writes(b, out);
            }
        }
        Stmt::While(_, b) => all_scalar_writes(b, out),
        Stmt::For { body, .. } => all_scalar_writes(body, out),
        Stmt::Omp(_, Some(b)) => all_scalar_writes(b, out),
        _ => {}
    }
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

impl CanonLoop {
    pub fn var(&self) -> Option<String> {
        Some(self.var.clone())
    }
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

    #[test]
    fn critical_small_scalar_becomes_collective() {
        let (d, b, syms) = region_of(
            r#"int main() { double sum; double local;
#pragma omp parallel
{
#pragma omp critical
{ sum = sum + local; }
}
return 0; }"#,
        );
        let c = classify_region(&d, &b, &syms);
        // Find the critical inside the region body.
        fn find_crit(s: &Stmt) -> Option<&Stmt> {
            match s {
                Stmt::Omp(d, Some(b)) if matches!(d.kind, DirKind::Critical(_)) => Some(b),
                Stmt::Block(ss) => ss.iter().find_map(find_crit),
                Stmt::Omp(_, Some(b)) => find_crit(b),
                _ => None,
            }
        }
        let crit = find_crit(&b).unwrap();
        match analyze_critical(crit, &c, &syms, DEFAULT_SMALL_THRESHOLD) {
            CriticalLowering::Collective(us) => {
                assert_eq!(us.len(), 1);
                assert_eq!(us[0].target, "sum");
            }
            other => panic!("expected collective, got {other:?}"),
        }
    }

    #[test]
    fn critical_with_call_falls_back_to_lock() {
        let (d, b, syms) = region_of(
            r#"int main() { double sum;
#pragma omp parallel
{
#pragma omp critical
{ sum = sum + compute(); }
}
return 0; }
double compute() { return 1.0; }"#,
        );
        let c = classify_region(&d, &b, &syms);
        fn find_crit(s: &Stmt) -> Option<&Stmt> {
            match s {
                Stmt::Omp(d, Some(b)) if matches!(d.kind, DirKind::Critical(_)) => Some(b),
                Stmt::Block(ss) => ss.iter().find_map(find_crit),
                Stmt::Omp(_, Some(b)) => find_crit(b),
                _ => None,
            }
        }
        let crit = find_crit(&b).unwrap();
        assert_eq!(
            analyze_critical(crit, &c, &syms, DEFAULT_SMALL_THRESHOLD),
            CriticalLowering::Lock
        );
    }

    #[test]
    fn critical_large_array_falls_back_to_lock() {
        let (d, b, syms) = region_of(
            r#"int main() { double big[1000]; double s;
#pragma omp parallel
{
#pragma omp critical
{ big[0] = big[0] + 1.0; }
}
return 0; }"#,
        );
        let c = classify_region(&d, &b, &syms);
        fn find_crit(s: &Stmt) -> Option<&Stmt> {
            match s {
                Stmt::Omp(d, Some(b)) if matches!(d.kind, DirKind::Critical(_)) => Some(b),
                Stmt::Block(ss) => ss.iter().find_map(find_crit),
                Stmt::Omp(_, Some(b)) => find_crit(b),
                _ => None,
            }
        }
        let crit = find_crit(&b).unwrap();
        let _ = &syms;
        assert_eq!(
            analyze_critical(crit, &c, &syms, DEFAULT_SMALL_THRESHOLD),
            CriticalLowering::Lock
        );
    }

    #[test]
    fn single_small_write_broadcasts() {
        let (d, b, syms) = region_of(
            r#"int main() { double tol;
#pragma omp parallel
{
#pragma omp single
{ tol = 1e-7; }
}
return 0; }"#,
        );
        let c = classify_region(&d, &b, &syms);
        fn find_single(s: &Stmt) -> Option<&Stmt> {
            match s {
                Stmt::Omp(d, Some(b)) if matches!(d.kind, DirKind::Single) => Some(b),
                Stmt::Block(ss) => ss.iter().find_map(find_single),
                Stmt::Omp(_, Some(b)) => find_single(b),
                _ => None,
            }
        }
        let single = find_single(&b).unwrap();
        assert_eq!(
            analyze_single(single, &c, &syms, DEFAULT_SMALL_THRESHOLD),
            SingleLowering::Broadcast(vec!["tol".to_string()])
        );
    }

    #[test]
    fn single_array_init_needs_barrier_path() {
        let (d, b, syms) = region_of(
            r#"int main() { double a[100];
#pragma omp parallel
{
#pragma omp single
{ a[0] = 1.0; }
}
return 0; }"#,
        );
        let c = classify_region(&d, &b, &syms);
        fn find_single(s: &Stmt) -> Option<&Stmt> {
            match s {
                Stmt::Omp(d, Some(b)) if matches!(d.kind, DirKind::Single) => Some(b),
                Stmt::Block(ss) => ss.iter().find_map(find_single),
                Stmt::Omp(_, Some(b)) => find_single(b),
                _ => None,
            }
        }
        let single = find_single(&b).unwrap();
        assert_eq!(
            analyze_single(single, &c, &syms, DEFAULT_SMALL_THRESHOLD),
            SingleLowering::LockFlagBarrier
        );
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
