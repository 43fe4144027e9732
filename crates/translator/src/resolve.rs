//! The resolved form of a program: what [`crate::interp::Interp::new`]
//! lowers the AST to, once, and what the interpreter then executes. The C
//! printer ([`crate::emit`]) prints the same form; what only it reads sits
//! off the interpreter's hot nodes (`RExpr`, `RStmt`), behind boxes.
//!
//! Resolved **statically**: every identifier is an interned [`Sym`], string
//! literals live in a table ([`StrId`]), builtins are enum variants, user
//! functions are indices, and everything a directive's lowering depends on
//! — the region's variable classification, the canonical form of a
//! work-shared loop, collective-vs-lock for `critical`/`atomic`,
//! broadcast-vs-flag for `single`, the storage class of every shared
//! variable — is taken here from `analysis.rs`'s plan of `main`'s MIR, not
//! decided at each execution.
//! Calls that can only fail (undefined callee, wrong arity, a callee with
//! directives) become [`RExpr::Fail`] nodes, so the error still surfaces
//! only if the call is reached.
//!
//! Left **dynamic**: which storage a `Sym` denotes. The same name is a
//! master local in serial code, a fresh private in one region and shared
//! DSM storage in the next, depending on the region's clauses, and a callee
//! sees the shared variables of `main` by name. So a `Sym` indexes dense
//! per-frame tables (see `interp::Env`) instead of being a fixed slot.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use parade_core::ReduceOp;

use crate::analysis::{
    loop_of, only_main_may_hold_directives, AtomicLowering, CriticalLowering, Lowering,
    SingleLowering, StorageKind, VarScope,
};
use crate::ast::*;
use crate::mir::{lower_func, UpdateInfo};

macro_rules! ids {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {$(
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) struct $name(u32);

        impl $name {
            pub(crate) fn idx(self) -> usize {
                self.0 as usize
            }
        }
    )*};
}

ids! {
    /// An interned identifier.
    Sym,
    /// A string literal in [`Code`]'s table.
    StrId,
    /// A user function.
    FuncId,
    /// A `parallel` / `parallel for` region.
    RegionId,
    /// An array shape in [`Code`]'s table (empty for scalars).
    DimsId,
}

impl StrId {
    /// The empty literal, so truthiness of a string value needs no table.
    pub(crate) const EMPTY: StrId = StrId(0);
}

/// The OpenMP query API.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OmpFn {
    ThreadNum,
    NumThreads,
    Wtime,
}

pub(crate) enum RExpr {
    Int(i64),
    Float(f64),
    Str(StrId),
    Var(Sym),
    Index(Sym, Box<[RExpr]>),
    Unary(UnOp, Box<RExpr>),
    Binary(BinOp, Box<RExpr>, Box<RExpr>),
    Cond(Box<RExpr>, Box<RExpr>, Box<RExpr>),
    /// The target is a `Var` or an `Index`; anything else fails when run.
    Assign(Option<BinOp>, Box<RExpr>, Box<RExpr>),
    Call(FuncId, Box<[RExpr]>),
    /// Arity is checked after the arguments ran, as a C library call would.
    Math(MathFn, Box<[RExpr]>),
    Omp(OmpFn),
    Printf(StrId, Box<[RExpr]>),
    /// A call that fails before evaluating any argument.
    Fail(Box<RFail>),
}

pub(crate) struct RFail {
    pub(crate) message: Box<str>,
    /// The call as written, for the C printer.
    pub(crate) callee: Box<str>,
    pub(crate) args: Box<[RExpr]>,
}

/// Type and extent of a declaration.
pub(crate) struct Shape {
    pub(crate) ty: Type,
    pub(crate) dims: DimsId,
    pub(crate) elems: usize,
    pub(crate) is_array: bool,
}

pub(crate) struct RDecl {
    pub(crate) sym: Sym,
    pub(crate) shape: Shape,
    pub(crate) init: Option<RExpr>,
    pub(crate) span: Span,
}

pub(crate) enum RStmt {
    Empty,
    Decl(RDecl),
    Expr(RExpr, Span),
    If(RExpr, Box<RStmt>, Option<Box<RStmt>>),
    While(RExpr, Box<RStmt>),
    For {
        init: Option<RExpr>,
        cond: Option<RExpr>,
        step: Option<RExpr>,
        body: Box<RStmt>,
    },
    Block(Box<[RStmt]>),
    Return(Option<RExpr>),
    Break,
    Continue,
    Parallel(RegionId),
    Omp(Box<RDirective>),
}

/// A directive other than `parallel` / `parallel for`.
pub(crate) struct RDirective {
    /// Kept for the wording of diagnostics.
    pub(crate) kind: DirKind,
    pub(crate) span: Span,
    pub(crate) op: ROmp,
}

pub(crate) enum ROmp {
    Barrier,
    Master(RStmt),
    For(RLoop),
    Critical {
        /// The message-passing lowering, when the block is analyzable,
        /// small, and every target lives on the update protocol.
        collective: Option<Box<[RUpdate]>>,
        lock: RLock,
        body: RStmt,
    },
    Atomic(RAtomic),
    Single {
        /// Targets of the broadcast lowering (all on the update protocol);
        /// `None` is the execute-once + barrier lowering.
        broadcast: Option<Box<[Sym]>>,
        body: RStmt,
    },
}

/// `target ⊕= operand` as one collective.
pub(crate) struct RUpdate {
    pub(crate) target: Sym,
    pub(crate) op: ReduceOp,
    pub(crate) operand: RExpr,
}

/// A cluster lock and the name the oracle knows it by.
pub(crate) struct RLock {
    pub(crate) id: u64,
    pub(crate) key: Box<str>,
}

pub(crate) enum RAtomic {
    /// Not a scalar update statement.
    Bad(&'static str),
    /// The body is what the SDSM dialect of the C printer locks around.
    Collective(RUpdate, RStmt),
    /// The target lives on the paged DSM.
    Lock(RLock, RStmt),
}

/// A work-shared loop: `for`, or the loop of a `parallel for`.
pub(crate) struct RLoop {
    /// `None` when the loop is not in canonical form.
    pub(crate) canon: Option<RCanon>,
    pub(crate) sched: Sched,
    pub(crate) nowait: bool,
    pub(crate) lastprivates: Box<[Sym]>,
}

pub(crate) struct RCanon {
    pub(crate) var: Sym,
    pub(crate) lo: RExpr,
    /// Exclusive.
    pub(crate) hi: RExpr,
    pub(crate) step: i64,
    pub(crate) body: RStmt,
}

/// How a thread's copy of a privatized variable starts out.
pub(crate) enum RPrivate {
    /// `private`, `lastprivate`, the work-shared loop variable.
    Zero(Shape),
    /// `firstprivate`: the `slot`-th value captured at the fork.
    First { slot: usize, ty: Type },
    /// `reduction`: the operator's identity.
    Reduction { identity: f64, ty: Type },
}

pub(crate) enum RBody {
    Stmt(RStmt),
    Loop(RLoop),
}

pub(crate) struct RRegion {
    pub(crate) span: Span,
    /// Every declared variable the region reaches through the master's
    /// storage (any scope but private), by name: the C printer's argument
    /// struct.
    pub(crate) captures: Box<[(Sym, Shape, VarScope)]>,
    /// Read on the master at the fork, in clause order.
    pub(crate) firstprivates: Box<[Sym]>,
    pub(crate) reductions: Box<[(ReduceOp, Sym)]>,
    pub(crate) lastprivates: Box<[Sym]>,
    /// What each thread binds before the body, by name.
    pub(crate) privates: Box<[(Sym, RPrivate)]>,
    pub(crate) body: RBody,
}

pub(crate) struct RParam {
    pub(crate) sym: Sym,
    pub(crate) ty: Type,
}

pub(crate) struct RFunc {
    pub(crate) name: Box<str>,
    /// The first directive of a function other than `main`. Such a
    /// function is not resolved (`body` is empty) and every call to it
    /// fails.
    pub(crate) omp: Option<Span>,
    pub(crate) ret: Type,
    pub(crate) params: Box<[RParam]>,
    pub(crate) body: RStmt,
}

pub(crate) struct Stored {
    pub(crate) sym: Sym,
    pub(crate) kind: StorageKind,
    pub(crate) shape: Shape,
}

/// A resolved program.
pub(crate) struct Code {
    names: Vec<Box<str>>,
    strings: Vec<Box<str>>,
    dims: Vec<Box<[usize]>>,
    pub(crate) funcs: Vec<RFunc>,
    pub(crate) main: Option<FuncId>,
    pub(crate) globals: Vec<RDecl>,
    pub(crate) regions: Vec<RRegion>,
    /// Shared variables in allocation order (by name).
    pub(crate) storage: Vec<Stored>,
}

impl Code {
    pub(crate) fn nsyms(&self) -> usize {
        self.names.len()
    }

    pub(crate) fn name(&self, s: Sym) -> &str {
        &self.names[s.idx()]
    }

    pub(crate) fn string(&self, s: StrId) -> &str {
        &self.strings[s.idx()]
    }

    pub(crate) fn dims(&self, d: DimsId) -> &[usize] {
        &self.dims[d.idx()]
    }
}

/// Lower `prog` for the small-data `threshold` (bytes).
pub(crate) fn resolve(prog: &Program, threshold: usize) -> Code {
    let mut func_srcs: Vec<&FuncDef> = Vec::new();
    let mut func_ids: HashMap<&str, FuncId> = HashMap::new();
    for item in &prog.items {
        if let Item::Func(f) = item {
            // Like `Program::func`, the first definition of a name wins.
            func_ids
                .entry(f.name.as_str())
                .or_insert(FuncId(func_srcs.len() as u32));
            func_srcs.push(f);
        }
    }
    let main = func_ids.get("main").copied();
    let plan = match main {
        Some(id) => Lowering::plan(prog, lower_func(prog, func_srcs[id.idx()]), threshold),
        None => Lowering::default(),
    };
    let mut r = Resolver {
        plan,
        omp: func_srcs.iter().map(|f| f.body.first_directive()).collect(),
        func_srcs,
        func_ids,
        sym_ids: HashMap::new(),
        code: Code {
            names: Vec::new(),
            strings: vec!["".into()],
            dims: Vec::new(),
            funcs: Vec::new(),
            main,
            globals: Vec::new(),
            regions: Vec::new(),
            storage: Vec::new(),
        },
    };
    for item in &prog.items {
        if let Item::Global(d) = item {
            let d = r.decl(d);
            r.code.globals.push(d);
        }
    }
    for (at, f) in r.func_srcs.clone().into_iter().enumerate() {
        // Only `main` may hold directives; calls to any other function that
        // does are `Fail` nodes, so its body is never needed.
        let omp = r.omp[at].filter(|_| Some(FuncId(at as u32)) != main);
        let body = match omp {
            None => r.stmt(&f.body),
            Some(_) => RStmt::Empty,
        };
        let params = f
            .params
            .iter()
            .map(|p| RParam {
                sym: r.sym(&p.name),
                ty: p.ty.clone(),
            })
            .collect();
        r.code.funcs.push(RFunc {
            name: f.name.as_str().into(),
            omp,
            ret: f.ret.clone(),
            params,
            body,
        });
    }
    // Deterministic allocation order.
    let mut names: Vec<String> = r.plan.storage().keys().cloned().collect();
    names.sort();
    for name in names {
        if let Some(d) = r.plan.symbols().get(&name).cloned() {
            let stored = Stored {
                sym: r.sym(&name),
                kind: r.plan.storage()[&name],
                shape: r.shape(&d),
            };
            r.code.storage.push(stored);
        }
    }
    r.code
}

struct Resolver<'p> {
    /// Declarations, storage classes and directive lowerings of `main`.
    plan: Lowering,
    /// The first directive of each function.
    omp: Vec<Option<Span>>,
    func_srcs: Vec<&'p FuncDef>,
    func_ids: HashMap<&'p str, FuncId>,
    sym_ids: HashMap<String, Sym>,
    code: Code,
}

impl Resolver<'_> {
    fn sym(&mut self, name: &str) -> Sym {
        if let Some(s) = self.sym_ids.get(name) {
            return *s;
        }
        let s = Sym(self.code.names.len() as u32);
        self.code.names.push(name.into());
        self.sym_ids.insert(name.to_string(), s);
        s
    }

    fn syms(&mut self, names: &[String]) -> Box<[Sym]> {
        names.iter().map(|n| self.sym(n)).collect()
    }

    fn string(&mut self, s: &str) -> StrId {
        if s.is_empty() {
            return StrId::EMPTY;
        }
        self.code.strings.push(s.into());
        StrId(self.code.strings.len() as u32 - 1)
    }

    fn shape(&mut self, d: &Decl) -> Shape {
        self.code.dims.push(d.dims.as_slice().into());
        Shape {
            ty: d.ty.clone(),
            dims: DimsId(self.code.dims.len() as u32 - 1),
            elems: d.total_elems(),
            is_array: d.is_array(),
        }
    }

    fn decl(&mut self, d: &Decl) -> RDecl {
        RDecl {
            sym: self.sym(&d.name),
            shape: self.shape(d),
            init: d.init.as_ref().map(|e| self.expr(e)),
            span: d.span,
        }
    }

    fn ty_of(&self, name: &str) -> Type {
        self.plan
            .symbols()
            .get(name)
            .map(|d| d.ty.clone())
            .unwrap_or(Type::Double)
    }

    // ---- expressions -------------------------------------------------------

    fn boxed(&mut self, e: &Expr) -> Box<RExpr> {
        Box::new(self.expr(e))
    }

    fn exprs(&mut self, es: &[Expr]) -> Box<[RExpr]> {
        es.iter().map(|e| self.expr(e)).collect()
    }

    fn expr(&mut self, e: &Expr) -> RExpr {
        match e {
            Expr::Int(v) => RExpr::Int(*v),
            Expr::Float(v) => RExpr::Float(*v),
            Expr::Str(s) => RExpr::Str(self.string(s)),
            Expr::Ident(n) => RExpr::Var(self.sym(n)),
            Expr::Index(n, idx) => RExpr::Index(self.sym(n), self.exprs(idx)),
            Expr::Unary(op, a) => RExpr::Unary(*op, self.boxed(a)),
            Expr::Binary(op, a, b) => RExpr::Binary(*op, self.boxed(a), self.boxed(b)),
            Expr::Cond(c, a, b) => RExpr::Cond(self.boxed(c), self.boxed(a), self.boxed(b)),
            Expr::Assign(op, l, r) => RExpr::Assign(*op, self.boxed(l), self.boxed(r)),
            Expr::Call(name, args) => self.call(name, args),
        }
    }

    fn call(&mut self, name: &str, args: &[Expr]) -> RExpr {
        let fail = |r: &mut Self, msg: String| {
            RExpr::Fail(Box::new(RFail {
                message: msg.into(),
                callee: name.into(),
                args: r.exprs(args),
            }))
        };
        match name {
            "printf" => {
                return match args.first() {
                    Some(Expr::Str(fmt)) => RExpr::Printf(self.string(fmt), self.exprs(&args[1..])),
                    _ => fail(self, "printf needs a literal format string".into()),
                }
            }
            "omp_get_thread_num" => return RExpr::Omp(OmpFn::ThreadNum),
            "omp_get_num_threads" => return RExpr::Omp(OmpFn::NumThreads),
            "omp_get_wtime" => return RExpr::Omp(OmpFn::Wtime),
            _ => {}
        }
        if let Some(f) = MathFn::from_name(name) {
            return RExpr::Math(f, self.exprs(args));
        }
        let Some(&id) = self.func_ids.get(name) else {
            return fail(self, format!("call to undefined function {name}"));
        };
        let params = self.func_srcs[id.idx()].params.len();
        if params != args.len() {
            let msg = format!("{name} expects {params} arguments, got {}", args.len());
            return fail(self, msg);
        }
        if self.omp[id.idx()].is_some() {
            return fail(self, only_main_may_hold_directives(name));
        }
        RExpr::Call(id, self.exprs(args))
    }

    // ---- statements ----------------------------------------------------------

    fn stmt(&mut self, s: &Stmt) -> RStmt {
        match s {
            Stmt::Empty => RStmt::Empty,
            Stmt::Decl(d) => RStmt::Decl(self.decl(d)),
            Stmt::Expr(e, span) => RStmt::Expr(self.expr(e), *span),
            Stmt::If(c, a, b) => RStmt::If(
                self.expr(c),
                Box::new(self.stmt(a)),
                b.as_ref().map(|b| Box::new(self.stmt(b))),
            ),
            Stmt::While(c, b) => RStmt::While(self.expr(c), Box::new(self.stmt(b))),
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => RStmt::For {
                init: init.as_ref().map(|e| self.expr(e)),
                cond: cond.as_ref().map(|e| self.expr(e)),
                step: step.as_ref().map(|e| self.expr(e)),
                body: Box::new(self.stmt(body)),
            },
            Stmt::Block(ss) => RStmt::Block(ss.iter().map(|s| self.stmt(s)).collect()),
            Stmt::Return(e) => RStmt::Return(e.as_ref().map(|e| self.expr(e))),
            Stmt::Break => RStmt::Break,
            Stmt::Continue => RStmt::Continue,
            Stmt::Omp(dir, body) => self.directive(dir, body.as_deref()),
        }
    }

    fn directive(&mut self, dir: &Directive, body: Option<&Stmt>) -> RStmt {
        fn need(body: Option<&Stmt>) -> &Stmt {
            body.expect("the parser attaches a body")
        }
        let op = match &dir.kind {
            DirKind::Parallel | DirKind::ParallelFor => {
                let region = self.region(dir, need(body));
                self.code.regions.push(region);
                return RStmt::Parallel(RegionId(self.code.regions.len() as u32 - 1));
            }
            DirKind::Barrier => ROmp::Barrier,
            DirKind::Master => ROmp::Master(self.stmt(need(body))),
            DirKind::For => ROmp::For(self.wloop(dir, need(body))),
            DirKind::Critical(name) => {
                let name = name.as_deref().unwrap_or("<anonymous>");
                let collective = match self.plan.critical(dir) {
                    CriticalLowering::Collective(updates) => {
                        Some(updates.iter().map(|u| self.update(u)).collect())
                    }
                    CriticalLowering::Lock => None,
                };
                ROmp::Critical {
                    collective,
                    lock: lock(format!("critical:{name}"), name),
                    body: self.stmt(need(body)),
                }
            }
            DirKind::Atomic => ROmp::Atomic(match self.plan.atomic(dir) {
                Ok(AtomicLowering::Collective(u)) => {
                    RAtomic::Collective(self.update(&u), self.stmt(need(body)))
                }
                Ok(AtomicLowering::Lock(u)) => RAtomic::Lock(
                    lock(format!("atomic:{}", u.target), &u.target),
                    self.stmt(need(body)),
                ),
                Err(why) => RAtomic::Bad(why),
            }),
            DirKind::Single => {
                let broadcast = match self.plan.single(dir) {
                    SingleLowering::Broadcast(targets) => Some(self.syms(&targets)),
                    SingleLowering::LockFlagBarrier => None,
                };
                ROmp::Single {
                    broadcast,
                    body: self.stmt(need(body)),
                }
            }
        };
        RStmt::Omp(Box::new(RDirective {
            kind: dir.kind.clone(),
            span: dir.span,
            op,
        }))
    }

    fn update(&mut self, u: &UpdateInfo) -> RUpdate {
        RUpdate {
            target: self.sym(&u.target),
            op: red_to_mpi(u.op),
            operand: self.expr(&u.operand),
        }
    }

    fn wloop(&mut self, dir: &Directive, body: &Stmt) -> RLoop {
        RLoop {
            canon: loop_of(body).map(|cl| RCanon {
                var: self.sym(&cl.var),
                lo: self.expr(&cl.lo),
                hi: self.expr(&cl.hi),
                step: cl.step,
                body: self.stmt(&cl.body),
            }),
            sched: dir.schedule(),
            nowait: dir.nowait(),
            lastprivates: self.syms(&dir.lastprivates()),
        }
    }

    fn region(&mut self, dir: &Directive, body: &Stmt) -> RRegion {
        let class = self.plan.region(dir).clone();
        let firstprivates = dir.firstprivates();
        let mut scopes: Vec<(&String, &VarScope)> = class.scopes.iter().collect();
        scopes.sort_by_key(|(name, _)| *name);
        let mut privates = Vec::new();
        for &(name, scope) in &scopes {
            let how = match scope {
                VarScope::Shared => continue,
                VarScope::Private | VarScope::LastPrivate => {
                    let Some(d) = self.plan.symbols().get(name).cloned() else {
                        continue;
                    };
                    RPrivate::Zero(self.shape(&d))
                }
                VarScope::FirstPrivate => RPrivate::First {
                    slot: firstprivates
                        .iter()
                        .position(|n| n == name)
                        .expect("classified firstprivate by this clause"),
                    ty: self.ty_of(name),
                },
                VarScope::Reduction(op) => RPrivate::Reduction {
                    identity: op.identity_f64(),
                    ty: self.ty_of(name),
                },
            };
            privates.push((self.sym(name), how));
        }
        let mut region = RRegion {
            span: dir.span,
            captures: Box::default(),
            firstprivates: self.syms(&firstprivates),
            reductions: dir
                .reductions()
                .iter()
                .map(|(op, name)| (red_to_mpi(*op), self.sym(name)))
                .collect(),
            lastprivates: self.syms(&dir.lastprivates()),
            privates: privates.into(),
            body: match dir.kind {
                DirKind::ParallelFor => RBody::Loop(self.wloop(dir, body)),
                _ => RBody::Stmt(self.stmt(body)),
            },
        };
        let mut captures = Vec::new();
        for (name, _) in scopes {
            let scope = class.scope_of(name);
            let Some(d) = self.plan.symbols().get(name).cloned() else {
                continue;
            };
            if scope != VarScope::Private {
                captures.push((self.sym(name), self.shape(&d), scope));
            }
        }
        region.captures = captures.into();
        region
    }
}

/// The cluster lock named `name`, known to the oracle as `key`.
fn lock(key: String, name: &str) -> RLock {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut h);
    RLock {
        // Stay inside the user lock-id space.
        id: h.finish() % (1 << 30),
        key: key.into(),
    }
}

pub(crate) fn red_to_mpi(op: RedOp) -> ReduceOp {
    match op {
        RedOp::Add => ReduceOp::Sum,
        RedOp::Mul => ReduceOp::Prod,
        RedOp::Min => ReduceOp::Min,
        RedOp::Max => ReduceOp::Max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::DEFAULT_SMALL_THRESHOLD;
    use crate::emit::{translate_default, EmitMode};
    use crate::parser::parse;

    /// Collective-lowered `[critical, atomic, single]` sites under `s`.
    fn count_sites(s: &RStmt, n: &mut [usize; 3]) {
        match s {
            RStmt::If(_, a, b) => {
                count_sites(a, n);
                if let Some(b) = b {
                    count_sites(b, n);
                }
            }
            RStmt::While(_, body) | RStmt::For { body, .. } => count_sites(body, n),
            RStmt::Block(ss) => ss.iter().for_each(|s| count_sites(s, n)),
            RStmt::Omp(d) => match &d.op {
                ROmp::Master(body) => count_sites(body, n),
                ROmp::For(l) => count_loop_sites(l, n),
                ROmp::Critical {
                    collective, body, ..
                } => {
                    n[0] += usize::from(collective.is_some());
                    count_sites(body, n);
                }
                ROmp::Atomic(a) => n[1] += usize::from(matches!(a, RAtomic::Collective(..))),
                ROmp::Single { broadcast, body } => {
                    n[2] += usize::from(broadcast.is_some());
                    count_sites(body, n);
                }
                ROmp::Barrier => {}
            },
            _ => {}
        }
    }

    fn count_loop_sites(l: &RLoop, n: &mut [usize; 3]) {
        if let Some(c) = &l.canon {
            count_sites(&c.body, n);
        }
    }

    fn resolved_sites(prog: &Program) -> [usize; 3] {
        let code = resolve(prog, DEFAULT_SMALL_THRESHOLD);
        let mut n = [0; 3];
        for f in &code.funcs {
            count_sites(&f.body, &mut n);
        }
        for r in &code.regions {
            match &r.body {
                RBody::Stmt(s) => count_sites(s, &mut n),
                RBody::Loop(l) => count_loop_sites(l, &mut n),
            }
        }
        n
    }

    /// The same three counts, from the comment the emitter opens each
    /// collective lowering with.
    fn emitted_sites(text: &str) -> [usize; 3] {
        [
            "/* critical: lexically analyzable",
            "/* atomic -> collective */",
            "/* single: small shared data",
        ]
        .map(|marker| text.matches(marker).count())
    }

    /// `single` writes an array, so it takes the flag + barrier path and its
    /// plain store forces `s` onto HLRC; the `critical` on `s` is lexically
    /// a collective update but must then take the lock, in the emitted
    /// text as in the executor.
    #[test]
    fn emitted_translation_demotes_a_critical_whose_target_is_on_hlrc() {
        let prog = parse(
            r#"int main() {
    double a[64];
    double s = 0.0;
    #pragma omp parallel
    {
        #pragma omp single
        { a[0] = 1.0; s = 2.0; }
        #pragma omp critical
        { s += 1.0; }
    }
    return 0;
}
"#,
        )
        .unwrap();
        assert_eq!(resolved_sites(&prog), [0, 0, 0]);
        let out = translate_default(&prog, EmitMode::Parade).unwrap();
        assert_eq!(emitted_sites(&out), [0, 0, 0], "{out}");
        assert!(out.contains("parade_lock(0);"), "{out}");
        assert!(!out.contains("parade_allreduce_double(&s"), "{out}");
    }

    /// Also pins, over the whole corpus, how many sites each construct
    /// lowers collectively and how many variables land in each storage
    /// class, so a change to either decision shows up here by number.
    #[test]
    fn emitter_and_executor_lower_the_same_sites_collectively() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut compared = 0;
        // [critical, atomic, single]
        let mut total = [0; 3];
        // [SharedArr, ScalarUpdate, ScalarHlrc]
        let mut storage = [0; 3];
        for dir in [
            "tests/corpus/clean",
            "tests/corpus/conform",
            "tests/corpus/racy",
            "examples/openmp",
        ] {
            for entry in std::fs::read_dir(format!("{root}/{dir}")).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().is_none_or(|e| e != "c") {
                    continue;
                }
                let prog = parse(&std::fs::read_to_string(&path).unwrap())
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                for s in &resolve(&prog, DEFAULT_SMALL_THRESHOLD).storage {
                    storage[match s.kind {
                        StorageKind::SharedArr => 0,
                        StorageKind::ScalarUpdate => 1,
                        StorageKind::ScalarHlrc => 2,
                    }] += 1;
                }
                // Only the `conform` corpus may hold programs the emitter
                // rejects; those have no translation to compare.
                let out = match translate_default(&prog, EmitMode::Parade) {
                    Ok(out) => out,
                    Err(_) if dir == "tests/corpus/conform" => continue,
                    Err(e) => panic!("{}: emitter rejects it: {e}", path.display()),
                };
                let resolved = resolved_sites(&prog);
                assert_eq!(emitted_sites(&out), resolved, "{}\n{out}", path.display());
                compared += 1;
                for (t, r) in total.iter_mut().zip(resolved) {
                    *t += r;
                }
            }
        }
        assert!(compared >= 30, "only {compared} programs compared");
        // `clean/atomic_block.c` and `clean/atomic_minmax.c` add three
        // collective atomics and three update-protocol scalars to the
        // [3, 1, 1] and [29, 12, 13] of the corpus without them;
        // `racy/guided_nowait.c` adds two shared arrays and its loop
        // variable's HLRC scalar.
        assert_eq!(total, [3, 4, 1], "collective sites");
        assert_eq!(storage, [31, 15, 14], "storage classes");
    }
}
