//! Source-to-source backend: emits the translated C program.
//!
//! Mirrors the paper's translator output (§4, Figures 2 and 3): parallel
//! regions become extracted thread functions invoked through the ParADE
//! runtime; synchronization and work-sharing directives are rewritten
//! either to the hybrid message-passing form ([`EmitMode::Parade`]) or to
//! the conventional SDSM form ([`EmitMode::Sdsm`]) used for the baseline
//! comparison.

use std::fmt::Write as _;

use crate::analysis::{
    loop_of, AtomicLowering, CriticalLowering, Lowering, RegionClassification, SingleLowering,
    VarScope, DEFAULT_SMALL_THRESHOLD,
};
use crate::ast::*;
use crate::mir::lower_func;
use crate::token::ParseError;

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
    let mut e = Emitter {
        mode,
        threshold,
        out: String::new(),
        regions: String::new(),
        region_count: 0,
        lock_count: 0,
        single_count: 0,
        indent: 0,
        prog,
    };
    e.program()?;
    Ok(e.out)
}

/// Translate with the paper's default 256-byte threshold.
pub fn translate_default(prog: &Program, mode: EmitMode) -> Result<String, ParseError> {
    translate(prog, mode, DEFAULT_SMALL_THRESHOLD)
}

struct Emitter<'p> {
    mode: EmitMode,
    threshold: usize,
    out: String,
    regions: String,
    region_count: usize,
    lock_count: usize,
    single_count: usize,
    indent: usize,
    prog: &'p Program,
}

impl<'p> Emitter<'p> {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn program(&mut self) -> Result<(), ParseError> {
        let header = match self.mode {
            EmitMode::Parade => "/* translated by paradec — ParADE hybrid runtime */",
            EmitMode::Sdsm => "/* translated by paradec — conventional SDSM runtime */",
        };
        self.line(header);
        for inc in &self.prog.includes {
            self.line(&format!("#include {inc}"));
        }
        match self.mode {
            EmitMode::Parade => {
                self.line("#include \"parade_rt.h\"");
                self.line("#include <pthread.h>");
            }
            EmitMode::Sdsm => self.line("#include \"sdsm_rt.h\""),
        }
        self.line("");
        // Two passes: emit function bodies (collecting extracted regions),
        // then append region functions.
        for item in &self.prog.items {
            match item {
                Item::Global(d) => {
                    let decl = decl_text(d);
                    self.line(&format!("{decl};"));
                }
                Item::Func(f) => self.func(f)?,
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

    fn func(&mut self, f: &FuncDef) -> Result<(), ParseError> {
        let params = if f.params.is_empty() {
            "void".to_string()
        } else {
            f.params
                .iter()
                .map(|p| format!("{} {}", type_text(&p.ty), p.name))
                .collect::<Vec<_>>()
                .join(", ")
        };
        self.line(&format!("{} {}({})", type_text(&f.ret), f.name, params));
        let plan = Lowering::plan(self.prog, lower_func(self.prog, f), self.threshold);
        self.stmt(&f.body, &plan, None)?;
        self.line("");
        Ok(())
    }

    fn stmt(
        &mut self,
        s: &Stmt,
        plan: &Lowering,
        region: Option<&RegionClassification>,
    ) -> Result<(), ParseError> {
        match s {
            Stmt::Block(ss) => {
                self.line("{");
                self.indent += 1;
                for s in ss {
                    self.stmt(s, plan, region)?;
                }
                self.indent -= 1;
                self.line("}");
            }
            Stmt::Decl(d) => {
                self.line(&format!("{};", decl_text(d)));
            }
            Stmt::Expr(e, _) => {
                let text = self.expr(e, region);
                self.line(&format!("{text};"));
            }
            Stmt::If(c, a, b) => {
                let cond = self.expr(c, region);
                self.line(&format!("if ({cond})"));
                self.stmt(a, plan, region)?;
                if let Some(b) = b {
                    self.line("else");
                    self.stmt(b, plan, region)?;
                }
            }
            Stmt::While(c, b) => {
                let cond = self.expr(c, region);
                self.line(&format!("while ({cond})"));
                self.stmt(b, plan, region)?;
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                let i = init
                    .as_ref()
                    .map(|e| self.expr(e, region))
                    .unwrap_or_default();
                let c = cond
                    .as_ref()
                    .map(|e| self.expr(e, region))
                    .unwrap_or_default();
                let st = step
                    .as_ref()
                    .map(|e| self.expr(e, region))
                    .unwrap_or_default();
                self.line(&format!("for ({i}; {c}; {st})"));
                self.stmt(body, plan, region)?;
            }
            Stmt::Return(e) => {
                let text = e
                    .as_ref()
                    .map(|e| format!("return {};", self.expr(e, region)))
                    .unwrap_or_else(|| "return;".into());
                self.line(&text);
            }
            Stmt::Break => self.line("break;"),
            Stmt::Continue => self.line("continue;"),
            Stmt::Empty => self.line(";"),
            Stmt::Omp(dir, body) => self.directive(dir, body.as_deref(), plan, region)?,
        }
        Ok(())
    }

    fn directive(
        &mut self,
        dir: &Directive,
        body: Option<&Stmt>,
        plan: &Lowering,
        region: Option<&RegionClassification>,
    ) -> Result<(), ParseError> {
        match (&dir.kind, region) {
            (DirKind::Parallel | DirKind::ParallelFor, _) => {
                self.parallel_region(dir, body.expect("region body"), plan)
            }
            (DirKind::Barrier, _) => {
                self.line(self.mode.barrier());
                Ok(())
            }
            (DirKind::Master, Some(_)) => {
                self.line("if (parade_thread_num() == 0)");
                self.stmt(body.expect("master body"), plan, region)?;
                Ok(())
            }
            (DirKind::For, Some(class)) => {
                self.worksharing_for(dir, body.expect("loop"), plan, class)
            }
            (DirKind::Critical(_), Some(class)) => {
                self.critical(dir, body.expect("critical body"), plan, class)
            }
            (DirKind::Atomic, Some(class)) => {
                self.atomic(dir, body.expect("atomic body"), plan, class)
            }
            (DirKind::Single, Some(class)) => {
                self.single(dir, body.expect("single body"), plan, class)
            }
            // Tasking constructs are emitted with serial elision: an
            // undeferred task executed inline is a legal task schedule, and
            // program order subsumes every `depend` edge. The distributed
            // work-stealing schedule lives in the runtime (parade-tasks),
            // not in the generated C.
            (DirKind::Task, _) => {
                let deps = dir.depends();
                if deps.is_empty() {
                    self.line("/* task: serial elision (undeferred execution) */");
                } else {
                    let list = deps
                        .iter()
                        .map(|(k, v)| format!("{}:{v}", k.c_token()))
                        .collect::<Vec<_>>()
                        .join(", ");
                    self.line(&format!(
                        "/* task depend({list}): program order subsumes the edges */"
                    ));
                }
                self.stmt(body.expect("task body"), plan, region)
            }
            (DirKind::Taskwait, _) => {
                self.line("/* taskwait: no-op under serial elision */");
                Ok(())
            }
            (DirKind::Target, _) => {
                let dev = dir
                    .device()
                    .map(|e| format!(" device({})", self.expr(e, region)))
                    .unwrap_or_default();
                let maps = dir.maps();
                let map_text = if maps.is_empty() {
                    String::new()
                } else {
                    format!(
                        " map({})",
                        maps.iter()
                            .map(|(k, v)| format!("{}:{v}", k.c_token()))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                };
                self.line(&format!(
                    "/* target{dev}{map_text}: host fallback (the runtime \
                     offloads via pinned tasks + DSM notices) */"
                ));
                self.stmt(body.expect("target body"), plan, region)
            }
            (kind, None) => Err(ParseError {
                line: dir.line(),
                message: format!("directive {kind:?} outside a parallel region"),
            }),
        }
    }

    // ---- parallel region extraction (§4.1) --------------------------------

    fn parallel_region(
        &mut self,
        dir: &Directive,
        body: &Stmt,
        plan: &Lowering,
    ) -> Result<(), ParseError> {
        let id = self.region_count;
        self.region_count += 1;
        let class = plan.region(dir);

        // Captured variables: everything shared / firstprivate /
        // lastprivate / reduction that is declared outside.
        let mut captured: Vec<(String, VarScope, Decl)> = Vec::new();
        let mut names: Vec<&String> = class.scopes.keys().collect();
        names.sort();
        for name in names {
            let scope = class.scope_of(name);
            if matches!(scope, VarScope::Private) {
                continue;
            }
            if let Some(d) = plan.symbols().get(name) {
                captured.push((name.clone(), scope, d.clone()));
            }
        }

        // Call site: fill the argument struct and fork.
        self.line(&format!(
            "/* parallel region {id}: fork-join via the ParADE runtime */"
        ));
        self.line("{");
        self.indent += 1;
        self.line(&format!("struct __parade_region_{id}_args __a{id};"));
        for (name, _, _) in &captured {
            self.line(&format!("__a{id}.{name} = &{name};"));
        }
        self.line(&format!("parade_parallel(__parade_region_{id}, &__a{id});"));
        self.indent -= 1;
        self.line("}");

        // Region function, built into a side buffer.
        let mut r = String::new();
        let _ = writeln!(r, "struct __parade_region_{id}_args {{");
        for (name, _, d) in &captured {
            let _ = writeln!(r, "    {} (*{name}){};", type_text(&d.ty), dims_text(d));
        }
        let _ = writeln!(r, "}};");
        let _ = writeln!(r, "static void __parade_region_{id}(void *__arg)");

        // Emit the body through a nested emitter so indentation restarts.
        let mut inner = Emitter {
            mode: self.mode,
            threshold: self.threshold,
            out: String::new(),
            regions: String::new(),
            region_count: self.region_count,
            lock_count: self.lock_count,
            single_count: self.single_count,
            indent: 0,
            prog: self.prog,
        };
        inner.line("{");
        inner.indent += 1;
        inner.line(&format!(
            "struct __parade_region_{id}_args *__a = (struct __parade_region_{id}_args *)__arg;"
        ));
        // Bind captured pointers.
        for (name, _, d) in &captured {
            inner.line(&format!(
                "{} (*{name}){} = __a->{name};",
                type_text(&d.ty),
                dims_text(d)
            ));
        }
        // Private copies.
        let mut privs: Vec<&String> = class
            .scopes
            .iter()
            .filter(|(_, s)| matches!(s, VarScope::Private))
            .map(|(n, _)| n)
            .collect();
        privs.sort();
        for name in privs {
            if let Some(d) = plan.symbols().get(name) {
                inner.line(&format!("{};  /* private */", decl_text(d)));
            }
        }
        // Firstprivate initialization.
        for (name, scope, d) in &captured {
            if matches!(scope, VarScope::FirstPrivate) {
                inner.line(&format!(
                    "{} {name}__fp = *{name};  /* firstprivate */",
                    type_text(&d.ty)
                ));
            }
        }
        // Reduction locals.
        for (name, scope, d) in &captured {
            if let VarScope::Reduction(op) = scope {
                inner.line(&format!(
                    "{} {name}__red = {};  /* reduction({}) local */",
                    type_text(&d.ty),
                    red_identity_text(*op),
                    op.c_token()
                ));
            }
        }

        // For `parallel for`, the body is the loop itself.
        match dir.kind {
            DirKind::ParallelFor => {
                inner.worksharing_for(dir, body, plan, class)?;
            }
            _ => inner.stmt(body, plan, Some(class))?,
        }

        // Reduction epilogue.
        for (name, scope, _) in &captured {
            if let VarScope::Reduction(op) = scope {
                match self.mode {
                    EmitMode::Parade => inner.line(&format!(
                        "parade_atomic_double({name}, PARADE_{}, {name}__red);  /* reduction -> collective */",
                        red_tag(*op)
                    )),
                    EmitMode::Sdsm => {
                        let lk = inner.lock_count;
                        inner.lock_count += 1;
                        inner.line(&format!("sdsm_lock({lk});"));
                        inner.line(&format!("*{name} = *{name} {} {name}__red;", red_c_op(*op)));
                        inner.line(&format!("sdsm_unlock({lk});"));
                        inner.line("sdsm_barrier();");
                    }
                }
            }
        }
        inner.indent -= 1;
        inner.line("}");

        self.lock_count = inner.lock_count;
        self.single_count = inner.single_count;
        self.region_count = inner.region_count;
        r.push_str(&inner.out);
        r.push('\n');
        self.regions.push_str(&r);
        self.regions.push_str(&inner.regions);
        Ok(())
    }

    // ---- work-sharing for (§4.3) -------------------------------------------

    fn worksharing_for(
        &mut self,
        dir: &Directive,
        body: &Stmt,
        plan: &Lowering,
        class: &RegionClassification,
    ) -> Result<(), ParseError> {
        let Some(cl) = loop_of(body) else {
            return Err(ParseError {
                line: dir.line(),
                message: "work-shared loop is not in canonical form".into(),
            });
        };
        let lo = self.expr(&cl.lo, Some(class));
        let hi = self.expr(&cl.hi, Some(class));
        let var = &cl.var;
        self.line("{");
        self.indent += 1;
        self.line("long __lo, __hi;");
        match dir.schedule() {
            Sched::Static => self.line(&format!(
                "parade_loop_static({lo}, {hi}, &__lo, &__hi);  /* static schedule */"
            )),
            Sched::StaticChunk(c) => self.line(&format!(
                "parade_loop_static_chunk({lo}, {hi}, {c}, &__lo, &__hi);"
            )),
            Sched::Dynamic(c) => self.line(&format!("parade_loop_dynamic_init({lo}, {hi}, {c});")),
            Sched::Guided(c) => self.line(&format!("parade_loop_guided_init({lo}, {hi}, {c});")),
        }
        match dir.schedule() {
            Sched::Dynamic(_) | Sched::Guided(_) => {
                self.line("while (parade_loop_next(&__lo, &__hi)) {");
                self.indent += 1;
                self.line(&format!(
                    "for ({var} = __lo; {var} < __hi; {var} += {})",
                    cl.step
                ));
                self.stmt(&cl.body, plan, Some(class))?;
                self.indent -= 1;
                self.line("}");
            }
            _ => {
                self.line(&format!(
                    "for ({var} = __lo; {var} < __hi; {var} += {})",
                    cl.step
                ));
                self.stmt(&cl.body, plan, Some(class))?;
            }
        }
        self.indent -= 1;
        self.line("}");
        if !dir.nowait() {
            self.line(&format!(
                "{}  /* implicit barrier of omp for */",
                self.mode.barrier()
            ));
        }
        Ok(())
    }

    // ---- critical / atomic (§4.2, Figure 2) --------------------------------

    fn critical(
        &mut self,
        dir: &Directive,
        body: &Stmt,
        plan: &Lowering,
        class: &RegionClassification,
    ) -> Result<(), ParseError> {
        match (self.mode, plan.critical(dir)) {
            (EmitMode::Parade, CriticalLowering::Collective(updates)) => {
                self.line("/* critical: lexically analyzable, small data ->");
                self.line("   hierarchical pthread lock + collective update (Fig. 2) */");
                self.line("pthread_mutex_lock(&__parade_node_mutex);");
                for u in &updates {
                    let operand = self.expr(&u.operand, Some(class));
                    self.line(&format!(
                        "__parade_local_acc_double(&{t}, PARADE_{op}, {operand});",
                        t = u.target,
                        op = red_tag(u.op)
                    ));
                }
                self.line("pthread_mutex_unlock(&__parade_node_mutex);");
                for u in &updates {
                    self.line(&format!(
                        "parade_allreduce_double(&{t}, PARADE_{op});",
                        t = u.target,
                        op = red_tag(u.op)
                    ));
                }
                Ok(())
            }
            (EmitMode::Parade, CriticalLowering::Lock) => self.parade_lock_fallback(
                "/* critical: not analyzable, or a target on HLRC -> hierarchical lock fallback */",
                body,
                plan,
                class,
            ),
            (EmitMode::Sdsm, _) => {
                let lk = self.lock_count;
                self.lock_count += 1;
                self.line("/* critical: conventional SDSM lock (Fig. 2 left) */");
                self.line(&format!("sdsm_lock({lk});"));
                self.stmt(body, plan, Some(class))?;
                self.line(&format!("sdsm_unlock({lk});"));
                Ok(())
            }
        }
    }

    fn atomic(
        &mut self,
        dir: &Directive,
        body: &Stmt,
        plan: &Lowering,
        class: &RegionClassification,
    ) -> Result<(), ParseError> {
        let lowering = plan.atomic(dir).map_err(|why| ParseError {
            line: dir.line(),
            message: why.into(),
        })?;
        match (self.mode, lowering) {
            (EmitMode::Parade, AtomicLowering::Collective(u)) => {
                let operand = self.expr(&u.operand, Some(class));
                self.line(&format!(
                    "parade_atomic_double(&{t}, PARADE_{op}, {operand});  /* atomic -> collective */",
                    t = u.target,
                    op = red_tag(u.op)
                ));
                Ok(())
            }
            (EmitMode::Parade, AtomicLowering::Lock(_)) => self.parade_lock_fallback(
                "/* atomic: target on HLRC -> hierarchical lock fallback */",
                body,
                plan,
                class,
            ),
            (EmitMode::Sdsm, _) => {
                let lk = self.lock_count;
                self.lock_count += 1;
                self.line(&format!("sdsm_lock({lk});"));
                self.stmt(body, plan, Some(class))?;
                self.line(&format!("sdsm_unlock({lk});"));
                Ok(())
            }
        }
    }

    /// `body` under the node mutex and a fresh distributed lock.
    fn parade_lock_fallback(
        &mut self,
        comment: &str,
        body: &Stmt,
        plan: &Lowering,
        class: &RegionClassification,
    ) -> Result<(), ParseError> {
        let lk = self.lock_count;
        self.lock_count += 1;
        self.line(comment);
        self.line("pthread_mutex_lock(&__parade_node_mutex);");
        self.line(&format!("parade_lock({lk});"));
        self.stmt(body, plan, Some(class))?;
        self.line(&format!("parade_unlock({lk});"));
        self.line("pthread_mutex_unlock(&__parade_node_mutex);");
        Ok(())
    }

    // ---- single (Figure 3) ---------------------------------------------------

    fn single(
        &mut self,
        dir: &Directive,
        body: &Stmt,
        plan: &Lowering,
        class: &RegionClassification,
    ) -> Result<(), ParseError> {
        let sid = self.single_count;
        self.single_count += 1;
        match (self.mode, plan.single(dir)) {
            (EmitMode::Parade, SingleLowering::Broadcast(targets)) => {
                self.line("/* single: small shared data -> pthread lock +");
                self.line("   broadcast, no barrier (Fig. 3) */");
                self.line("pthread_mutex_lock(&__parade_node_mutex);");
                self.line(&format!("if (parade_single_begin({sid})) {{"));
                self.indent += 1;
                self.line("if (parade_node() == 0)");
                self.stmt(body, plan, Some(class))?;
                for t in &targets {
                    self.line(&format!("parade_bcast(&{t}, sizeof({t}), 0);"));
                }
                self.line(&format!("parade_single_end({sid});"));
                self.indent -= 1;
                self.line("}");
                self.line("pthread_mutex_unlock(&__parade_node_mutex);");
                Ok(())
            }
            (EmitMode::Parade, SingleLowering::LockFlagBarrier) => {
                self.line("/* single: large or HLRC data -> execute-once + barrier */");
                self.line(&format!("if (parade_single_begin({sid})) {{"));
                self.indent += 1;
                self.stmt(body, plan, Some(class))?;
                self.line(&format!("parade_single_end({sid});"));
                self.indent -= 1;
                self.line("}");
                self.line("parade_barrier();");
                Ok(())
            }
            (EmitMode::Sdsm, _) => {
                let lk = self.lock_count;
                self.lock_count += 1;
                self.line("/* single: conventional SDSM translation (Fig. 3 left):");
                self.line("   lock + shared flag + barrier */");
                self.line(&format!("sdsm_lock({lk});"));
                self.line(&format!("if (!sdsm_flag_test_and_set({sid})) {{"));
                self.indent += 1;
                self.stmt(body, plan, Some(class))?;
                self.indent -= 1;
                self.line("}");
                self.line(&format!("sdsm_unlock({lk});"));
                self.line("sdsm_barrier();");
                Ok(())
            }
        }
    }

    // ---- expressions -----------------------------------------------------------

    fn expr(&self, e: &Expr, region: Option<&RegionClassification>) -> String {
        match e {
            Expr::Int(v) => v.to_string(),
            Expr::Float(v) => {
                let s = format!("{v}");
                if s.contains('.') || s.contains('e') || s.contains("inf") {
                    s
                } else {
                    format!("{s}.0")
                }
            }
            Expr::Str(s) => format!("{s:?}"),
            Expr::Ident(n) => self.var_ref(n, region),
            Expr::Index(n, idx) => {
                let parts: Vec<String> = idx.iter().map(|i| self.expr(i, region)).collect();
                format!("{}[{}]", self.array_ref(n, region), parts.join("]["))
            }
            Expr::Call(f, args) => {
                let parts: Vec<String> = args.iter().map(|a| self.expr(a, region)).collect();
                format!("{f}({})", parts.join(", "))
            }
            Expr::Unary(op, a) => {
                let t = self.expr(a, region);
                match op {
                    UnOp::Neg => format!("(-{t})"),
                    UnOp::Not => format!("(!{t})"),
                }
            }
            Expr::Binary(op, a, b) => {
                format!(
                    "({} {} {})",
                    self.expr(a, region),
                    bin_text(*op),
                    self.expr(b, region)
                )
            }
            Expr::Cond(c, a, b) => format!(
                "({} ? {} : {})",
                self.expr(c, region),
                self.expr(a, region),
                self.expr(b, region)
            ),
            Expr::Assign(op, l, r) => {
                let lhs = self.expr(l, region);
                let rhs = self.expr(r, region);
                match op {
                    None => format!("{lhs} = {rhs}"),
                    Some(o) => format!("{lhs} {}= {rhs}", bin_text(*o)),
                }
            }
        }
    }

    /// A scalar reference: shared captured scalars are accessed through
    /// their pointer inside a region function.
    fn var_ref(&self, name: &str, region: Option<&RegionClassification>) -> String {
        if let Some(class) = region {
            match class.scope_of(name) {
                VarScope::Shared if !class.region_locals.contains(name) => {
                    return format!("(*{name})");
                }
                VarScope::FirstPrivate => return format!("{name}__fp"),
                VarScope::Reduction(_) => return format!("{name}__red"),
                _ => {}
            }
        }
        name.to_string()
    }

    fn array_ref(&self, name: &str, region: Option<&RegionClassification>) -> String {
        if let Some(class) = region {
            if matches!(class.scope_of(name), VarScope::Shared)
                && !class.region_locals.contains(name)
            {
                return format!("(*{name})");
            }
        }
        name.to_string()
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

fn dims_text(d: &Decl) -> String {
    d.dims.iter().map(|n| format!("[{n}]")).collect()
}

fn decl_text(d: &Decl) -> String {
    let mut s = format!("{} {}{}", type_text(&d.ty), d.name, dims_text(d));
    if let Some(init) = &d.init {
        let e = Emitter {
            mode: EmitMode::Parade,
            threshold: DEFAULT_SMALL_THRESHOLD,
            out: String::new(),
            regions: String::new(),
            region_count: 0,
            lock_count: 0,
            single_count: 0,
            indent: 0,
            prog: &EMPTY_PROG,
        };
        let _ = write!(s, " = {}", e.expr(init, None));
    }
    s
}

static EMPTY_PROG: Program = Program {
    includes: Vec::new(),
    items: Vec::new(),
};

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

fn red_tag(op: RedOp) -> &'static str {
    match op {
        RedOp::Add => "SUM",
        RedOp::Mul => "PROD",
        RedOp::Min => "MIN",
        RedOp::Max => "MAX",
    }
}

fn red_c_op(op: RedOp) -> &'static str {
    match op {
        RedOp::Add => "+",
        RedOp::Mul => "*",
        RedOp::Min | RedOp::Max => "/* min/max */",
    }
}

fn red_identity_text(op: RedOp) -> &'static str {
    match op {
        RedOp::Add => "0.0",
        RedOp::Mul => "1.0",
        RedOp::Min => "INFINITY",
        RedOp::Max => "-INFINITY",
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

    #[test]
    fn tasking_constructs_elide_serially() {
        let src = r#"
int main() {
    double x = 0.0;
    double buf[8];
    #pragma omp parallel
    {
        #pragma omp task depend(out: x)
        x = 1.0;
        #pragma omp taskwait
    }
    #pragma omp target device(1) map(tofrom: buf)
    { buf[0] = 2.0; }
    return 0;
}
"#;
        let prog = parse(src).unwrap();
        let out = translate_default(&prog, EmitMode::Parade).unwrap();
        assert!(out.contains("task depend(out:x)"), "{out}");
        assert!(
            out.contains("taskwait: no-op under serial elision"),
            "{out}"
        );
        assert!(out.contains("target device(1) map(tofrom:buf)"), "{out}");
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
