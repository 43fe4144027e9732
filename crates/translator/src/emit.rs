//! Source-to-source backend: prints the translated C program.
//!
//! Mirrors the paper's translator output (§4, Figures 2 and 3): parallel
//! regions become extracted thread functions invoked through the ParADE
//! runtime; synchronization and work-sharing directives are rewritten
//! either to the hybrid message-passing form ([`EmitMode::Parade`]) or to
//! the conventional SDSM form ([`EmitMode::Sdsm`]) used for the baseline
//! comparison. It prints the resolved form the interpreter executes
//! (`resolve.rs`), so every collective-vs-lock choice in the text is the
//! executor's.

use parade_core::ReduceOp;

use crate::analysis::{only_main_may_hold_directives, VarScope, DEFAULT_SMALL_THRESHOLD};
use crate::ast::{BinOp, Item, Program, Sched, Type, UnOp};
use crate::resolve::{
    red_to_mpi, resolve, Code, OmpFn, RAtomic, RBody, RDecl, RDirective, RExpr, RFunc, RLoop, ROmp,
    RPrivate, RRegion, RStmt, RUpdate, RegionId, Shape, Sym,
};
use crate::token::{ParseError, Span};

/// Which runtime dialect to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmitMode {
    /// ParADE hybrid: collectives for small-data directives.
    Parade,
    /// Conventional SDSM: distributed locks + barriers (KDSM-style).
    Sdsm,
}

impl EmitMode {
    fn barrier(self) -> &'static str {
        match self {
            EmitMode::Parade => "parade_barrier();",
            EmitMode::Sdsm => "sdsm_barrier();",
        }
    }
}

/// Translate a parsed program to C source against the ParADE (or baseline
/// SDSM) runtime API.
pub fn translate(prog: &Program, mode: EmitMode, threshold: usize) -> Result<String, ParseError> {
    let code = resolve(prog, threshold);
    let mut p = Printer {
        code: &code,
        mode,
        out: String::new(),
        regions: String::new(),
        scopes: None,
        region_count: 0,
        lock_count: 0,
        single_count: 0,
        indent: 0,
    };
    p.program(prog)?;
    Ok(p.out)
}

/// Translate with the paper's default 256-byte threshold.
pub fn translate_default(prog: &Program, mode: EmitMode) -> Result<String, ParseError> {
    translate(prog, mode, DEFAULT_SMALL_THRESHOLD)
}

/// The scope of each [`Sym`] (by index) the region being printed
/// captures; every other name is the thread's own.
type Scopes = [Option<VarScope>];

struct Printer<'c> {
    code: &'c Code,
    mode: EmitMode,
    out: String,
    /// Extracted region functions, appended after the program.
    regions: String,
    /// `None` outside any parallel region.
    scopes: Option<Box<Scopes>>,
    region_count: usize,
    lock_count: usize,
    single_count: usize,
    indent: usize,
}

fn refuse<T>(span: Span, message: String) -> Result<T, ParseError> {
    Err(ParseError {
        line: span.line,
        message,
    })
}

impl<'c> Printer<'c> {
    fn line(&mut self, s: impl AsRef<str>) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(s.as_ref());
        self.out.push('\n');
    }

    fn name(&self, s: Sym) -> &'c str {
        self.code.name(s)
    }

    fn program(&mut self, prog: &Program) -> Result<(), ParseError> {
        self.line(match self.mode {
            EmitMode::Parade => "/* translated by paradec — ParADE hybrid runtime */",
            EmitMode::Sdsm => "/* translated by paradec — conventional SDSM runtime */",
        });
        for inc in &prog.includes {
            self.line(format!("#include {inc}"));
        }
        match self.mode {
            EmitMode::Parade => {
                self.line("#include \"parade_rt.h\"");
                self.line("#include <pthread.h>");
            }
            EmitMode::Sdsm => self.line("#include \"sdsm_rt.h\""),
        }
        self.line("");
        // Globals and functions, in source order.
        let code = self.code;
        let (mut globals, mut funcs) = (code.globals.iter(), code.funcs.iter());
        for item in &prog.items {
            match item {
                Item::Global(_) => {
                    let text = self.decl(globals.next().expect("resolved in order"));
                    self.line(format!("{text};"));
                }
                Item::Func(_) => self.func(funcs.next().expect("resolved in order"))?,
            }
        }
        if !self.regions.is_empty() {
            self.out
                .push_str("\n/* ---- extracted parallel regions ---- */\n");
            let regions = std::mem::take(&mut self.regions);
            self.out.push_str(&regions);
        }
        Ok(())
    }

    fn func(&mut self, f: &RFunc) -> Result<(), ParseError> {
        if let Some(span) = f.omp {
            return refuse(span, only_main_may_hold_directives(&f.name));
        }
        let params: Vec<String> = (f.params.iter())
            .map(|p| format!("{} {}", type_text(&p.ty), self.name(p.sym)))
            .collect();
        let params = if params.is_empty() {
            "void".into()
        } else {
            params.join(", ")
        };
        self.line(format!("{} {}({})", type_text(&f.ret), f.name, params));
        self.stmt(&f.body)?;
        self.line("");
        Ok(())
    }

    fn stmt(&mut self, s: &RStmt) -> Result<(), ParseError> {
        match s {
            RStmt::Block(ss) => {
                self.line("{");
                self.indent += 1;
                for s in ss.iter() {
                    self.stmt(s)?;
                }
                self.indent -= 1;
                self.line("}");
            }
            RStmt::Decl(d) => {
                let text = self.decl(d);
                self.line(format!("{text};"));
            }
            RStmt::Expr(e, _) => {
                let text = self.expr(e);
                self.line(format!("{text};"));
            }
            RStmt::If(c, a, b) => {
                let cond = self.expr(c);
                self.line(format!("if ({cond})"));
                self.stmt(a)?;
                if let Some(b) = b {
                    self.line("else");
                    self.stmt(b)?;
                }
            }
            RStmt::While(c, b) => {
                let cond = self.expr(c);
                self.line(format!("while ({cond})"));
                self.stmt(b)?;
            }
            RStmt::For {
                init,
                cond,
                step,
                body,
            } => {
                let text = |e: &Option<RExpr>| e.as_ref().map(|e| self.expr(e)).unwrap_or_default();
                let (i, c, st) = (text(init), text(cond), text(step));
                self.line(format!("for ({i}; {c}; {st})"));
                self.stmt(body)?;
            }
            RStmt::Return(e) => {
                let text = e
                    .as_ref()
                    .map(|e| format!("return {};", self.expr(e)))
                    .unwrap_or_else(|| "return;".into());
                self.line(text);
            }
            RStmt::Break => self.line("break;"),
            RStmt::Continue => self.line("continue;"),
            RStmt::Empty => self.line(";"),
            RStmt::Parallel(id) => self.parallel_region(*id)?,
            RStmt::Omp(d) => self.directive(d)?,
        }
        Ok(())
    }

    fn directive(&mut self, d: &RDirective) -> Result<(), ParseError> {
        match (&d.op, self.scopes.is_some()) {
            (ROmp::Barrier, _) => {
                self.line(self.mode.barrier());
                Ok(())
            }
            (ROmp::Master(body), true) => {
                self.line("if (parade_thread_num() == 0)");
                self.stmt(body)
            }
            (ROmp::For(lp), true) => self.worksharing_for(d.span, lp),
            (
                ROmp::Critical {
                    collective, body, ..
                },
                true,
            ) => self.critical(collective.as_deref(), body),
            (ROmp::Atomic(a), true) => self.atomic(d.span, a),
            (ROmp::Single { broadcast, body }, true) => self.single(broadcast.as_deref(), body),
            (_, false) => refuse(
                d.span,
                format!("directive {:?} outside a parallel region", d.kind),
            ),
        }
    }

    // ---- parallel region extraction (§4.1) --------------------------------

    fn parallel_region(&mut self, id: RegionId) -> Result<(), ParseError> {
        let code = self.code;
        let r = &code.regions[id.idx()];
        let n = self.region_count;
        self.region_count += 1;

        // Call site: fill the argument struct and fork.
        self.line(format!(
            "/* parallel region {n}: fork-join via the ParADE runtime */"
        ));
        self.line("{");
        self.indent += 1;
        self.line(format!("struct __parade_region_{n}_args __a{n};"));
        for (s, ..) in r.captures.iter() {
            let name = self.name(*s);
            self.line(format!("__a{n}.{name} = &{name};"));
        }
        self.line(format!("parade_parallel(__parade_region_{n}, &__a{n});"));
        self.indent -= 1;
        self.line("}");

        // The region function goes into a swapped-out buffer, and then
        // ahead of the functions of the regions nested in it.
        let mut scopes = vec![None; code.nsyms()];
        for (s, _, scope) in r.captures.iter() {
            scopes[s.idx()] = Some(*scope);
        }
        let at = self.regions.len();
        let call_site = std::mem::take(&mut self.out);
        let indent = std::mem::replace(&mut self.indent, 0);
        let outer = self.scopes.replace(scopes.into());
        self.region_function(n, r)?;
        self.scopes = outer;
        self.indent = indent;
        let function = std::mem::replace(&mut self.out, call_site);
        self.regions.insert_str(at, &function);
        Ok(())
    }

    fn region_function(&mut self, n: usize, r: &RRegion) -> Result<(), ParseError> {
        let ty = |shape: &Shape| type_text(&shape.ty);
        self.line(format!("struct __parade_region_{n}_args {{"));
        for (s, shape, _) in r.captures.iter() {
            let field = self.pointer_decl(*s, shape);
            self.line(format!("    {field};"));
        }
        self.line("};");
        self.line(format!("static void __parade_region_{n}(void *__arg)"));
        self.line("{");
        self.indent += 1;
        self.line(format!(
            "struct __parade_region_{n}_args *__a = (struct __parade_region_{n}_args *)__arg;"
        ));
        // Bind captured pointers.
        for (s, shape, _) in r.captures.iter() {
            let binding = self.pointer_decl(*s, shape);
            self.line(format!("{binding} = __a->{};", self.name(*s)));
        }
        // Private copies (a lastprivate's is its `__lp` local, below).
        for (s, how) in r.privates.iter() {
            if let (RPrivate::Zero(shape), None) = (how, self.scope(*s)) {
                let decl = self.shape_decl(self.name(*s), shape);
                self.line(format!("{decl};  /* private */"));
            }
        }
        for (s, shape, scope) in r.captures.iter() {
            let name = self.name(*s);
            match scope {
                VarScope::FirstPrivate => self.line(format!(
                    "{} {name}__fp = *{name};  /* firstprivate */",
                    ty(shape)
                )),
                VarScope::LastPrivate => {
                    let decl = self.shape_decl(&format!("{name}__lp"), shape);
                    self.line(format!("{decl};  /* lastprivate */"));
                }
                _ => {}
            }
        }
        for (s, shape, scope) in r.captures.iter() {
            if let VarScope::Reduction(op) = scope {
                self.line(format!(
                    "{} {}__red = {};  /* reduction({}) local */",
                    ty(shape),
                    self.name(*s),
                    red_identity_text(red_to_mpi(*op), shape.ty.is_float()),
                    op.c_token()
                ));
            }
        }

        // For `parallel for`, the body is the loop itself.
        match &r.body {
            RBody::Loop(lp) => self.worksharing_for(r.span, lp)?,
            RBody::Stmt(s) => self.stmt(s)?,
        }

        // Reduction epilogue.
        for (s, shape, scope) in r.captures.iter() {
            let VarScope::Reduction(op) = scope else {
                continue;
            };
            let (name, op) = (self.name(*s), red_to_mpi(*op));
            if self.mode == EmitMode::Parade {
                let kind = if shape.ty.is_float() {
                    "double"
                } else {
                    "long"
                };
                self.line(format!(
                    "parade_atomic_{kind}({name}, PARADE_{}, {name}__red);  /* reduction -> collective */",
                    red_tag(op)
                ));
                continue;
            }
            let lk = self.next_lock();
            self.line(format!("sdsm_lock({lk});"));
            self.line(format!(
                "*{name} = {};",
                red_combine(op, &format!("*{name}"), &format!("{name}__red"))
            ));
            self.line(format!("sdsm_unlock({lk});"));
            self.line("sdsm_barrier();");
        }
        self.indent -= 1;
        self.line("}");
        self.line("");
        Ok(())
    }

    fn scope(&self, s: Sym) -> Option<VarScope> {
        self.scopes.as_ref().and_then(|t| t[s.idx()])
    }

    /// `ty (*name)dims`: a captured variable seen through its pointer.
    fn pointer_decl(&self, s: Sym, shape: &Shape) -> String {
        self.shape_decl(&format!("(*{})", self.name(s)), shape)
    }

    fn shape_decl(&self, name: &str, shape: &Shape) -> String {
        let dims: String = self
            .code
            .dims(shape.dims)
            .iter()
            .map(|n| format!("[{n}]"))
            .collect();
        format!("{} {name}{dims}", type_text(&shape.ty))
    }

    fn next_lock(&mut self) -> usize {
        self.lock_count += 1;
        self.lock_count - 1
    }

    // ---- work-sharing for (§4.3) -------------------------------------------

    fn worksharing_for(&mut self, span: Span, lp: &RLoop) -> Result<(), ParseError> {
        let Some(cl) = &lp.canon else {
            return refuse(span, "work-shared loop is not in canonical form".into());
        };
        let lo = self.expr(&cl.lo);
        let hi = self.expr(&cl.hi);
        let var = self.name(cl.var);
        let chunk = format!("for ({var} = __lo; {var} < __hi; {var} += {})", cl.step);
        self.line("{");
        self.indent += 1;
        self.line("long __lo, __hi;");
        self.line(match lp.sched {
            Sched::Static => {
                format!("parade_loop_static({lo}, {hi}, &__lo, &__hi);  /* static schedule */")
            }
            Sched::StaticChunk(c) => {
                format!("parade_loop_static_chunk({lo}, {hi}, {c}, &__lo, &__hi);")
            }
            Sched::Dynamic(c) => format!("parade_loop_dynamic_init({lo}, {hi}, {c});"),
            Sched::Guided(c) => format!("parade_loop_guided_init({lo}, {hi}, {c});"),
        });
        let dynamic = matches!(lp.sched, Sched::Dynamic(_) | Sched::Guided(_));
        if dynamic {
            self.line("while (parade_loop_next(&__lo, &__hi)) {");
            self.indent += 1;
        }
        self.line(chunk);
        self.stmt(&cl.body)?;
        // The thread whose chunk held the last iteration (its loop
        // variable ran past `hi`) stores each lastprivate back.
        let last: Vec<&str> = (lp.lastprivates.iter())
            .filter(|s| self.scope(**s) == Some(VarScope::LastPrivate))
            .map(|s| self.name(*s))
            .collect();
        if !last.is_empty() {
            self.line(format!(
                "if (__lo < __hi && {var} >= {hi}) {{  /* this thread ran the last iteration */"
            ));
            for name in last {
                self.line(format!("    *{name} = {name}__lp;"));
            }
            self.line("}");
        }
        if dynamic {
            self.indent -= 1;
            self.line("}");
        }
        self.indent -= 1;
        self.line("}");
        if !lp.nowait {
            self.line(format!(
                "{}  /* implicit barrier of omp for */",
                self.mode.barrier()
            ));
        }
        Ok(())
    }

    // ---- critical / atomic (§4.2, Figure 2) --------------------------------

    fn critical(&mut self, collective: Option<&[RUpdate]>, body: &RStmt) -> Result<(), ParseError> {
        match (self.mode, collective) {
            (EmitMode::Parade, Some(updates)) => {
                self.line("/* critical: lexically analyzable, small data ->");
                self.line("   hierarchical pthread lock + collective update (Fig. 2) */");
                self.line("pthread_mutex_lock(&__parade_node_mutex);");
                for u in updates {
                    let operand = self.expr(&u.operand);
                    self.line(format!(
                        "__parade_local_acc_double(&{t}, PARADE_{op}, {operand});",
                        t = self.name(u.target),
                        op = red_tag(u.op)
                    ));
                }
                self.line("pthread_mutex_unlock(&__parade_node_mutex);");
                for u in updates {
                    self.line(format!(
                        "parade_allreduce_double(&{t}, PARADE_{op});",
                        t = self.name(u.target),
                        op = red_tag(u.op)
                    ));
                }
                Ok(())
            }
            (EmitMode::Parade, None) => self.parade_lock_fallback(
                "/* critical: not analyzable, or a target on HLRC -> hierarchical lock fallback */",
                body,
            ),
            (EmitMode::Sdsm, _) => {
                self.line("/* critical: conventional SDSM lock (Fig. 2 left) */");
                self.sdsm_locked(body)
            }
        }
    }

    fn atomic(&mut self, span: Span, a: &RAtomic) -> Result<(), ParseError> {
        match (self.mode, a) {
            (_, RAtomic::Bad(why)) => refuse(span, why.to_string()),
            (EmitMode::Parade, RAtomic::Collective(u, _)) => {
                let operand = self.expr(&u.operand);
                self.line(format!(
                    "parade_atomic_double(&{t}, PARADE_{op}, {operand});  /* atomic -> collective */",
                    t = self.name(u.target),
                    op = red_tag(u.op)
                ));
                Ok(())
            }
            (EmitMode::Parade, RAtomic::Lock(_, body)) => self.parade_lock_fallback(
                "/* atomic: target on HLRC -> hierarchical lock fallback */",
                body,
            ),
            (EmitMode::Sdsm, RAtomic::Collective(_, body) | RAtomic::Lock(_, body)) => {
                self.sdsm_locked(body)
            }
        }
    }

    /// `body` under a fresh distributed lock.
    fn sdsm_locked(&mut self, body: &RStmt) -> Result<(), ParseError> {
        let lk = self.next_lock();
        self.line(format!("sdsm_lock({lk});"));
        self.stmt(body)?;
        self.line(format!("sdsm_unlock({lk});"));
        Ok(())
    }

    /// `body` under the node mutex and a fresh distributed lock.
    fn parade_lock_fallback(&mut self, comment: &str, body: &RStmt) -> Result<(), ParseError> {
        let lk = self.next_lock();
        self.line(comment);
        self.line("pthread_mutex_lock(&__parade_node_mutex);");
        self.line(format!("parade_lock({lk});"));
        self.stmt(body)?;
        self.line(format!("parade_unlock({lk});"));
        self.line("pthread_mutex_unlock(&__parade_node_mutex);");
        Ok(())
    }

    // ---- single (Figure 3) ---------------------------------------------------

    fn single(&mut self, broadcast: Option<&[Sym]>, body: &RStmt) -> Result<(), ParseError> {
        let sid = self.single_count;
        self.single_count += 1;
        if self.mode == EmitMode::Sdsm {
            let lk = self.next_lock();
            self.line("/* single: conventional SDSM translation (Fig. 3 left):");
            self.line("   lock + shared flag + barrier */");
            self.line(format!("sdsm_lock({lk});"));
            self.line(format!("if (!sdsm_flag_test_and_set({sid})) {{"));
            self.indent += 1;
            self.stmt(body)?;
            self.indent -= 1;
            self.line("}");
            self.line(format!("sdsm_unlock({lk});"));
            self.line("sdsm_barrier();");
            return Ok(());
        }
        if broadcast.is_some() {
            self.line("/* single: small shared data -> pthread lock +");
            self.line("   broadcast, no barrier (Fig. 3) */");
            self.line("pthread_mutex_lock(&__parade_node_mutex);");
        } else {
            self.line("/* single: large or HLRC data -> execute-once + barrier */");
        }
        self.line(format!("if (parade_single_begin({sid})) {{"));
        self.indent += 1;
        if broadcast.is_some() {
            self.line("if (parade_node() == 0)");
        }
        self.stmt(body)?;
        for t in broadcast.unwrap_or_default() {
            let t = self.name(*t);
            self.line(format!("parade_bcast(&{t}, sizeof({t}), 0);"));
        }
        self.line(format!("parade_single_end({sid});"));
        self.indent -= 1;
        self.line("}");
        self.line(match broadcast {
            Some(_) => "pthread_mutex_unlock(&__parade_node_mutex);",
            None => "parade_barrier();",
        });
        Ok(())
    }

    // ---- declarations and expressions ------------------------------------------

    /// A declaration's initializer names variables as written, even inside
    /// a region.
    fn decl(&self, d: &RDecl) -> String {
        let mut s = self.shape_decl(self.name(d.sym), &d.shape);
        if let Some(init) = &d.init {
            s = format!("{s} = {}", self.expr_in(init, None));
        }
        s
    }

    fn expr(&self, e: &RExpr) -> String {
        self.expr_in(e, self.scopes.as_deref())
    }

    fn expr_in(&self, e: &RExpr, scopes: Option<&Scopes>) -> String {
        let sub = |e: &RExpr| self.expr_in(e, scopes);
        let call = |callee: &str, args: &[RExpr]| {
            let args: Vec<String> = args.iter().map(sub).collect();
            format!("{callee}({})", args.join(", "))
        };
        match e {
            RExpr::Int(v) => v.to_string(),
            RExpr::Float(v) => {
                let s = format!("{v}");
                if s.contains('.') || s.contains('e') || s.contains("inf") {
                    s
                } else {
                    format!("{s}.0")
                }
            }
            RExpr::Str(s) => format!("{:?}", self.code.string(*s)),
            RExpr::Var(s) => self.var(*s, false, scopes),
            RExpr::Index(s, idx) => {
                let parts: Vec<String> = idx.iter().map(sub).collect();
                format!("{}[{}]", self.var(*s, true, scopes), parts.join("]["))
            }
            RExpr::Unary(UnOp::Neg, a) => format!("(-{})", sub(a)),
            RExpr::Unary(UnOp::Not, a) => format!("(!{})", sub(a)),
            RExpr::Binary(op, a, b) => format!("({} {} {})", sub(a), bin_text(*op), sub(b)),
            RExpr::Cond(c, a, b) => format!("({} ? {} : {})", sub(c), sub(a), sub(b)),
            RExpr::Assign(None, l, r) => format!("{} = {}", sub(l), sub(r)),
            RExpr::Assign(Some(o), l, r) => format!("{} {}= {}", sub(l), bin_text(*o), sub(r)),
            RExpr::Call(f, args) => call(&self.code.funcs[f.idx()].name, args),
            RExpr::Math(f, args) => call(f.name(), args),
            RExpr::Omp(OmpFn::ThreadNum) => "omp_get_thread_num()".into(),
            RExpr::Omp(OmpFn::NumThreads) => "omp_get_num_threads()".into(),
            RExpr::Omp(OmpFn::Wtime) => "omp_get_wtime()".into(),
            RExpr::Printf(fmt, args) => {
                let mut parts = vec![format!("{:?}", self.code.string(*fmt))];
                parts.extend(args.iter().map(sub));
                format!("printf({})", parts.join(", "))
            }
            RExpr::Fail(f) => call(&f.callee, &f.args),
        }
    }

    /// A name inside a region function: a shared variable through its
    /// captured pointer, a firstprivate, lastprivate or reduction variable
    /// by its thread's stand-in (an array element of the first and the
    /// last of those through the array's own name).
    fn var(&self, s: Sym, indexed: bool, scopes: Option<&Scopes>) -> String {
        let name = self.name(s);
        match (scopes.and_then(|t| t[s.idx()]), indexed) {
            (Some(VarScope::Shared), _) => format!("(*{name})"),
            (Some(VarScope::LastPrivate), _) => format!("{name}__lp"),
            (Some(VarScope::FirstPrivate), false) => format!("{name}__fp"),
            (Some(VarScope::Reduction(_)), false) => format!("{name}__red"),
            _ => name.to_string(),
        }
    }
}

fn type_text(t: &Type) -> &'static str {
    match t {
        Type::Int => "int",
        Type::Long => "long",
        Type::Double => "double",
        Type::Void => "void",
    }
}

fn bin_text(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Gt => ">",
        BinOp::Le => "<=",
        BinOp::Ge => ">=",
        BinOp::And => "&&",
        BinOp::Or => "||",
    }
}

fn red_tag(op: ReduceOp) -> &'static str {
    match op {
        ReduceOp::Sum => "SUM",
        ReduceOp::Prod => "PROD",
        ReduceOp::Min => "MIN",
        ReduceOp::Max => "MAX",
    }
}

/// `a ⊕ b` in C.
fn red_combine(op: ReduceOp, a: &str, b: &str) -> String {
    match op {
        ReduceOp::Sum => format!("{a} + {b}"),
        ReduceOp::Prod => format!("{a} * {b}"),
        ReduceOp::Min => format!("fmin({a}, {b})"),
        ReduceOp::Max => format!("fmax({a}, {b})"),
    }
}

fn red_identity_text(op: ReduceOp, float: bool) -> &'static str {
    match (op, float) {
        (ReduceOp::Sum, true) => "0.0",
        (ReduceOp::Prod, true) => "1.0",
        (ReduceOp::Min, true) => "INFINITY",
        (ReduceOp::Max, true) => "-INFINITY",
        (ReduceOp::Sum, false) => "0",
        (ReduceOp::Prod, false) => "1",
        (ReduceOp::Min, false) => "LONG_MAX",
        (ReduceOp::Max, false) => "LONG_MIN",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const CRITICAL_SRC: &str = r#"
int main() {
    double sum = 0.0;
    double local = 1.0;
    #pragma omp parallel firstprivate(local)
    {
        #pragma omp critical
        { sum = sum + local; }
    }
    return 0;
}
"#;

    #[test]
    fn critical_parade_uses_collective() {
        let prog = parse(CRITICAL_SRC).unwrap();
        let out = translate_default(&prog, EmitMode::Parade).unwrap();
        assert!(
            out.contains("pthread_mutex_lock(&__parade_node_mutex);"),
            "{out}"
        );
        assert!(
            out.contains("parade_allreduce_double(&sum, PARADE_SUM);"),
            "{out}"
        );
        assert!(!out.contains("sdsm_lock"), "{out}");
    }

    #[test]
    fn critical_sdsm_uses_lock() {
        let prog = parse(CRITICAL_SRC).unwrap();
        let out = translate_default(&prog, EmitMode::Sdsm).unwrap();
        assert!(out.contains("sdsm_lock(0);"), "{out}");
        assert!(out.contains("sdsm_unlock(0);"), "{out}");
        assert!(!out.contains("allreduce"), "{out}");
    }

    const SINGLE_SRC: &str = r#"
int main() {
    double tol = 0.0;
    #pragma omp parallel
    {
        #pragma omp single
        { tol = 1e-7; }
    }
    return 0;
}
"#;

    #[test]
    fn single_parade_broadcasts_without_barrier() {
        let prog = parse(SINGLE_SRC).unwrap();
        let out = translate_default(&prog, EmitMode::Parade).unwrap();
        assert!(out.contains("parade_bcast(&tol"), "{out}");
        assert!(out.contains("parade_single_begin(0)"), "{out}");
        // No barrier in the single's lowering (the region's join barrier is
        // inside parade_parallel, not emitted here).
        assert!(!out.contains("parade_barrier();  /* implicit"), "{out}");
    }

    #[test]
    fn single_sdsm_has_flag_and_barrier() {
        let prog = parse(SINGLE_SRC).unwrap();
        let out = translate_default(&prog, EmitMode::Sdsm).unwrap();
        assert!(out.contains("sdsm_flag_test_and_set(0)"), "{out}");
        assert!(out.contains("sdsm_barrier();"), "{out}");
    }

    #[test]
    fn parallel_for_extracts_region_and_schedules() {
        let src = r#"
int main() {
    int i;
    double a[100];
    double sum = 0.0;
    #pragma omp parallel for reduction(+: sum)
    for (i = 0; i < 100; i++) sum += a[i];
    return 0;
}
"#;
        let prog = parse(src).unwrap();
        let out = translate_default(&prog, EmitMode::Parade).unwrap();
        assert!(out.contains("struct __parade_region_0_args"), "{out}");
        assert!(out.contains("parade_parallel(__parade_region_0"), "{out}");
        assert!(out.contains("parade_loop_static(0, 100"), "{out}");
        assert!(out.contains("double sum__red = 0.0;"), "{out}");
        assert!(
            out.contains("parade_atomic_double(sum, PARADE_SUM, sum__red);"),
            "{out}"
        );
        assert!(out.contains("sum__red += (*a)[i]"), "{out}");
    }

    #[test]
    fn atomic_maps_exactly_to_collective() {
        let src = r#"
int main() {
    double x = 0.0;
    #pragma omp parallel
    {
        #pragma omp atomic
        x += 2.0;
    }
    return 0;
}
"#;
        let prog = parse(src).unwrap();
        let out = translate_default(&prog, EmitMode::Parade).unwrap();
        assert!(
            out.contains("parade_atomic_double(&x, PARADE_SUM, 2.0);"),
            "{out}"
        );
    }

    #[test]
    fn threshold_zero_forces_lock_path() {
        let prog = parse(CRITICAL_SRC).unwrap();
        let out = translate(&prog, EmitMode::Parade, 0).unwrap();
        assert!(out.contains("parade_lock(0);"), "{out}");
        assert!(!out.contains("allreduce"), "{out}");
    }

    #[test]
    fn dynamic_schedule_emits_chunk_loop() {
        let src = r#"
int main() {
    int i;
    double a[64];
    #pragma omp parallel for schedule(dynamic, 4)
    for (i = 0; i < 64; i++) a[i] = 1.0;
    return 0;
}
"#;
        let prog = parse(src).unwrap();
        let out = translate_default(&prog, EmitMode::Parade).unwrap();
        assert!(out.contains("parade_loop_dynamic_init(0, 64, 4);"), "{out}");
        assert!(
            out.contains("while (parade_loop_next(&__lo, &__hi))"),
            "{out}"
        );
    }

    /// `lastprivate(x)`: the body writes a private `x__lp`, and the thread
    /// whose chunk held the last iteration stores it through the captured
    /// pointer, as the executor's publishing thread does (it prints
    /// `14.000000` for this program).
    #[test]
    fn lastprivate_writes_a_private_and_stores_it_back() {
        let src = r#"
int main() {
    int i;
    double x = 0.0;
    double a[8];
    #pragma omp parallel for lastprivate(x)
    for (i = 0; i < 8; i++) { x = i * 2.0; a[i] = x; }
    printf("%f\n", x);
    return 0;
}
"#;
        let prog = parse(src).unwrap();
        for mode in [EmitMode::Parade, EmitMode::Sdsm] {
            let out = translate_default(&prog, mode).unwrap();
            assert!(out.contains("    double (*x) = __a->x;"), "{out}");
            assert!(
                out.contains("    double x__lp;  /* lastprivate */"),
                "{out}"
            );
            assert!(out.contains("x__lp = (i * 2.0);"), "{out}");
            assert!(out.contains("(*a)[i] = x__lp;"), "{out}");
            assert!(
                out.contains(
                    "if (__lo < __hi && i >= 8) {  /* this thread ran the last iteration */\n\
                     \x20           *x = x__lp;\n"
                ),
                "{out}"
            );
            assert!(!out.contains(" x = (i * 2.0);"), "{out}");
        }
    }

    #[test]
    fn nowait_suppresses_barrier() {
        let src = r#"
int main() {
    int i;
    double a[8];
    #pragma omp parallel
    {
        #pragma omp for nowait
        for (i = 0; i < 8; i++) a[i] = 1.0;
    }
    return 0;
}
"#;
        let prog = parse(src).unwrap();
        let out = translate_default(&prog, EmitMode::Parade).unwrap();
        assert!(!out.contains("implicit barrier"), "{out}");
    }
}
