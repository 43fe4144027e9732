//! Abstract syntax of the mini-C + OpenMP 1.0 subset.

pub use crate::token::Span;

/// Scalar and array types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    Int,
    Long,
    Double,
    Void,
}

impl Type {
    /// Size in bytes (used by the small-data threshold analysis, §5.2.1).
    pub fn size(&self) -> usize {
        match self {
            Type::Int => 4,
            Type::Long | Type::Double => 8,
            Type::Void => 0,
        }
    }

    pub fn is_float(&self) -> bool {
        matches!(self, Type::Double)
    }
}

/// A variable declaration (scalar or fixed-size array).
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    pub ty: Type,
    pub name: String,
    /// Array dimensions (empty for scalars). Dimensions are constant
    /// expressions folded at parse time.
    pub dims: Vec<usize>,
    pub init: Option<Expr>,
    /// Source position of the declarator.
    pub span: Span,
}

impl Decl {
    /// Saturates at `usize::MAX`: an array that large cannot be
    /// allocated, and saying so is the interpreter's job.
    pub fn total_elems(&self) -> usize {
        self.dims
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d))
            .unwrap_or(usize::MAX)
            .max(1)
    }

    pub fn byte_size(&self) -> usize {
        self.total_elems().saturating_mul(self.ty.size())
    }

    pub fn is_array(&self) -> bool {
        !self.dims.is_empty()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    And,
    Or,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Int(i64),
    Float(f64),
    Str(String),
    Ident(String),
    /// `a[i]` or `a[i][j]` (row-major).
    Index(String, Vec<Expr>),
    Call(String, Vec<Expr>),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `cond ? a : b`
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `lhs = rhs`, `lhs += rhs`, … (`op` is `None` for plain assignment).
    Assign(Option<BinOp>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Variables read by this expression (no dedup).
    pub fn vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Ident(n) => out.push(n.clone()),
            Expr::Index(n, idx) => {
                out.push(n.clone());
                for e in idx {
                    e.vars(out);
                }
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.vars(out);
                }
            }
            Expr::Unary(_, e) => e.vars(out),
            Expr::Binary(_, a, b) => {
                a.vars(out);
                b.vars(out);
            }
            Expr::Cond(c, a, b) => {
                c.vars(out);
                a.vars(out);
                b.vars(out);
            }
            Expr::Assign(_, l, r) => {
                l.vars(out);
                r.vars(out);
            }
            Expr::Int(_) | Expr::Float(_) | Expr::Str(_) => {}
        }
    }

    /// Does this expression call `omp_get_thread_num()` anywhere?
    pub fn calls_thread_num(&self) -> bool {
        let mut calls = Vec::new();
        self.calls(&mut calls);
        calls.iter().any(|c| c == "omp_get_thread_num")
    }

    /// Function names called anywhere in this expression.
    pub fn calls(&self, out: &mut Vec<String>) {
        match self {
            Expr::Call(name, args) => {
                out.push(name.clone());
                for a in args {
                    a.calls(out);
                }
            }
            Expr::Index(_, idx) => {
                for e in idx {
                    e.calls(out);
                }
            }
            Expr::Unary(_, e) => e.calls(out),
            Expr::Binary(_, a, b) => {
                a.calls(out);
                b.calls(out);
            }
            Expr::Cond(c, a, b) => {
                c.calls(out);
                a.calls(out);
                b.calls(out);
            }
            Expr::Assign(_, l, r) => {
                l.calls(out);
                r.calls(out);
            }
            _ => {}
        }
    }
}

/// Reduction operators of the `reduction` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedOp {
    Add,
    Mul,
    Min,
    Max,
}

impl RedOp {
    pub fn identity_f64(self) -> f64 {
        match self {
            RedOp::Add => 0.0,
            RedOp::Mul => 1.0,
            RedOp::Min => f64::INFINITY,
            RedOp::Max => f64::NEG_INFINITY,
        }
    }

    pub fn c_token(self) -> &'static str {
        match self {
            RedOp::Add => "+",
            RedOp::Mul => "*",
            RedOp::Min => "min",
            RedOp::Max => "max",
        }
    }
}

/// Loop schedules of the `schedule` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sched {
    Static,
    StaticChunk(usize),
    Dynamic(usize),
    Guided(usize),
}

/// OpenMP 1.0 clauses.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    Private(Vec<String>),
    Shared(Vec<String>),
    FirstPrivate(Vec<String>),
    LastPrivate(Vec<String>),
    Reduction(RedOp, Vec<String>),
    Schedule(Sched),
    NumThreads(Expr),
    NoWait,
}

/// OpenMP 1.0 directive kinds supported by the translator.
#[derive(Debug, Clone, PartialEq)]
pub enum DirKind {
    Parallel,
    For,
    ParallelFor,
    Critical(Option<String>),
    Atomic,
    Single,
    Master,
    Barrier,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Directive {
    pub kind: DirKind,
    pub clauses: Vec<Clause>,
    pub span: Span,
}

impl Directive {
    pub fn clause_vars(&self, pick: impl Fn(&Clause) -> Option<&Vec<String>>) -> Vec<String> {
        self.clauses
            .iter()
            .filter_map(pick)
            .flatten()
            .cloned()
            .collect()
    }

    pub fn privates(&self) -> Vec<String> {
        self.clause_vars(|c| match c {
            Clause::Private(v) => Some(v),
            _ => None,
        })
    }

    pub fn firstprivates(&self) -> Vec<String> {
        self.clause_vars(|c| match c {
            Clause::FirstPrivate(v) => Some(v),
            _ => None,
        })
    }

    pub fn lastprivates(&self) -> Vec<String> {
        self.clause_vars(|c| match c {
            Clause::LastPrivate(v) => Some(v),
            _ => None,
        })
    }

    pub fn reductions(&self) -> Vec<(RedOp, String)> {
        let mut out = Vec::new();
        for c in &self.clauses {
            if let Clause::Reduction(op, vars) = c {
                for v in vars {
                    out.push((*op, v.clone()));
                }
            }
        }
        out
    }

    pub fn schedule(&self) -> Sched {
        for c in &self.clauses {
            if let Clause::Schedule(s) = c {
                return *s;
            }
        }
        Sched::Static
    }

    pub fn nowait(&self) -> bool {
        self.clauses.iter().any(|c| matches!(c, Clause::NoWait))
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    Decl(Decl),
    /// An expression statement with the source position of its first token.
    Expr(Expr, Span),
    If(Expr, Box<Stmt>, Option<Box<Stmt>>),
    While(Expr, Box<Stmt>),
    /// `for (init; cond; step) body` — init/step are expressions (or
    /// declarations folded by the parser into a preceding Decl).
    For {
        init: Option<Expr>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Box<Stmt>,
    },
    Block(Vec<Stmt>),
    Return(Option<Expr>),
    Break,
    Continue,
    /// A directive applied to the following statement (block directives).
    Omp(Directive, Option<Box<Stmt>>),
    Empty,
}

impl Stmt {
    /// The span of the first directive in the statement, in source order.
    pub fn first_directive(&self) -> Option<Span> {
        match self {
            Stmt::Omp(dir, _) => Some(dir.span),
            Stmt::Block(ss) => ss.iter().find_map(Stmt::first_directive),
            Stmt::If(_, a, b) => a
                .first_directive()
                .or_else(|| b.as_ref().and_then(|b| b.first_directive())),
            Stmt::While(_, b) | Stmt::For { body: b, .. } => b.first_directive(),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    pub ty: Type,
    pub name: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    pub ret: Type,
    pub name: String,
    pub params: Vec<Param>,
    pub body: Stmt,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    Func(FuncDef),
    Global(Decl),
}

#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    pub includes: Vec<String>,
    pub items: Vec<Item>,
}

impl Program {
    pub fn func(&self, name: &str) -> Option<&FuncDef> {
        self.items.iter().find_map(|i| match i {
            Item::Func(f) if f.name == name => Some(f),
            _ => None,
        })
    }
}

/// Every variable mentioned by a statement (reads and writes), including
/// nested directive bodies. Shared by the analyzers' overlap tests and the
/// MIR lowering's per-sibling use summaries.
pub fn stmt_uses(s: &Stmt, out: &mut Vec<String>) {
    match s {
        Stmt::Decl(d) => {
            if let Some(e) = &d.init {
                e.vars(out);
            }
        }
        Stmt::Expr(e, _) => e.vars(out),
        Stmt::If(c, a, b) => {
            c.vars(out);
            stmt_uses(a, out);
            if let Some(b) = b {
                stmt_uses(b, out);
            }
        }
        Stmt::While(c, b) => {
            c.vars(out);
            stmt_uses(b, out);
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
            stmt_uses(body, out);
        }
        Stmt::Block(ss) => {
            for s in ss {
                stmt_uses(s, out);
            }
        }
        Stmt::Return(Some(e)) => e.vars(out),
        Stmt::Omp(_, Some(b)) => stmt_uses(b, out),
        _ => {}
    }
}

/// Assignment targets (scalar and array names) anywhere in a statement,
/// including nested directive bodies.
pub fn stmt_write_targets(s: &Stmt, out: &mut Vec<String>) {
    fn expr_targets(e: &Expr, out: &mut Vec<String>) {
        match e {
            Expr::Assign(_, lhs, rhs) => {
                match lhs.as_ref() {
                    Expr::Ident(n) | Expr::Index(n, _) => out.push(n.clone()),
                    other => expr_targets(other, out),
                }
                if let Expr::Index(_, idxs) = lhs.as_ref() {
                    for ix in idxs {
                        expr_targets(ix, out);
                    }
                }
                expr_targets(rhs, out);
            }
            Expr::Unary(_, a) => expr_targets(a, out),
            Expr::Binary(_, a, b) => {
                expr_targets(a, out);
                expr_targets(b, out);
            }
            Expr::Cond(c, a, b) => {
                expr_targets(c, out);
                expr_targets(a, out);
                expr_targets(b, out);
            }
            Expr::Call(_, args) => {
                for a in args {
                    expr_targets(a, out);
                }
            }
            Expr::Index(_, idxs) => {
                for ix in idxs {
                    expr_targets(ix, out);
                }
            }
            _ => {}
        }
    }
    match s {
        Stmt::Decl(d) => {
            if let Some(e) = &d.init {
                expr_targets(e, out);
            }
        }
        Stmt::Expr(e, _) => expr_targets(e, out),
        Stmt::If(c, a, b) => {
            expr_targets(c, out);
            stmt_write_targets(a, out);
            if let Some(b) = b {
                stmt_write_targets(b, out);
            }
        }
        Stmt::While(c, b) => {
            expr_targets(c, out);
            stmt_write_targets(b, out);
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            for e in [init, cond, step].into_iter().flatten() {
                expr_targets(e, out);
            }
            stmt_write_targets(body, out);
        }
        Stmt::Block(ss) => {
            for s in ss {
                stmt_write_targets(s, out);
            }
        }
        Stmt::Omp(_, Some(b)) => stmt_write_targets(b, out),
        _ => {}
    }
}

/// First source position inside a statement, for diagnostics on statements
/// that carry no span of their own.
pub fn stmt_span(s: &Stmt) -> Option<Span> {
    match s {
        Stmt::Decl(d) => Some(d.span),
        Stmt::Expr(_, sp) => Some(*sp),
        Stmt::Omp(d, _) => Some(d.span),
        Stmt::If(_, a, b) => stmt_span(a).or_else(|| b.as_deref().and_then(stmt_span)),
        Stmt::While(_, b) | Stmt::For { body: b, .. } => stmt_span(b),
        Stmt::Block(ss) => ss.iter().find_map(stmt_span),
        _ => None,
    }
}

/// The builtin functions the translator treats as side-effect-free math:
/// calls to them do not break lexical analyzability (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MathFn {
    Sqrt,
    Fabs,
    Sin,
    Cos,
    Tan,
    Exp,
    Log,
    Floor,
    Ceil,
    Pow,
    Fmin,
    Fmax,
}

impl MathFn {
    const ALL: [MathFn; 12] = [
        MathFn::Sqrt,
        MathFn::Fabs,
        MathFn::Sin,
        MathFn::Cos,
        MathFn::Tan,
        MathFn::Exp,
        MathFn::Log,
        MathFn::Floor,
        MathFn::Ceil,
        MathFn::Pow,
        MathFn::Fmin,
        MathFn::Fmax,
    ];

    pub fn from_name(name: &str) -> Option<MathFn> {
        MathFn::ALL.into_iter().find(|f| f.name() == name)
    }

    /// The C name.
    pub fn name(self) -> &'static str {
        match self {
            MathFn::Sqrt => "sqrt",
            MathFn::Fabs => "fabs",
            MathFn::Sin => "sin",
            MathFn::Cos => "cos",
            MathFn::Tan => "tan",
            MathFn::Exp => "exp",
            MathFn::Log => "log",
            MathFn::Floor => "floor",
            MathFn::Ceil => "ceil",
            MathFn::Pow => "pow",
            MathFn::Fmin => "fmin",
            MathFn::Fmax => "fmax",
        }
    }

    pub fn arity(self) -> usize {
        match self {
            MathFn::Pow | MathFn::Fmin | MathFn::Fmax => 2,
            _ => 1,
        }
    }

    /// The value for arguments `x` (and `y`, for the two-argument ones).
    pub fn apply(self, x: f64, y: f64) -> f64 {
        match self {
            MathFn::Sqrt => x.sqrt(),
            MathFn::Fabs => x.abs(),
            MathFn::Sin => x.sin(),
            MathFn::Cos => x.cos(),
            MathFn::Tan => x.tan(),
            MathFn::Exp => x.exp(),
            MathFn::Log => x.ln(),
            MathFn::Floor => x.floor(),
            MathFn::Ceil => x.ceil(),
            MathFn::Pow => x.powf(y),
            MathFn::Fmin => x.min(y),
            MathFn::Fmax => x.max(y),
        }
    }
}

pub fn is_math_builtin(name: &str) -> bool {
    MathFn::from_name(name).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decl_sizes() {
        let d = Decl {
            ty: Type::Double,
            name: "a".into(),
            dims: vec![10, 4],
            init: None,
            span: Span::default(),
        };
        assert_eq!(d.total_elems(), 40);
        assert_eq!(d.byte_size(), 320);
        assert!(d.is_array());
        let s = Decl {
            ty: Type::Int,
            name: "x".into(),
            dims: vec![],
            init: None,
            span: Span::default(),
        };
        assert_eq!(s.byte_size(), 4);
    }

    #[test]
    fn expr_vars_and_calls() {
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Index("a".into(), vec![Expr::Ident("i".into())])),
            Box::new(Expr::Call("sqrt".into(), vec![Expr::Ident("x".into())])),
        );
        let mut vars = Vec::new();
        e.vars(&mut vars);
        assert_eq!(vars, vec!["a".to_string(), "i".into(), "x".into()]);
        let mut calls = Vec::new();
        e.calls(&mut calls);
        assert_eq!(calls, vec!["sqrt".to_string()]);
    }

    #[test]
    fn directive_clause_helpers() {
        let d = Directive {
            kind: DirKind::ParallelFor,
            clauses: vec![
                Clause::Private(vec!["i".into(), "j".into()]),
                Clause::Reduction(RedOp::Add, vec!["err".into()]),
                Clause::Schedule(Sched::Dynamic(8)),
                Clause::NoWait,
            ],
            span: Span::at_line(1),
        };
        assert_eq!(d.privates(), vec!["i".to_string(), "j".into()]);
        assert_eq!(d.reductions(), vec![(RedOp::Add, "err".to_string())]);
        assert_eq!(d.schedule(), Sched::Dynamic(8));
        assert!(d.nowait());
    }

    #[test]
    fn stmt_helpers_cover_nested_directives() {
        let body = Stmt::Omp(
            Directive {
                kind: DirKind::Critical(None),
                clauses: vec![],
                span: Span::new(4, 9),
            },
            Some(Box::new(Stmt::Expr(
                Expr::Assign(
                    Some(BinOp::Add),
                    Box::new(Expr::Ident("sum".into())),
                    Box::new(Expr::Index("a".into(), vec![Expr::Ident("i".into())])),
                ),
                Span::new(5, 13),
            ))),
        );
        let s = Stmt::Block(vec![Stmt::Empty, body]);
        let mut uses = Vec::new();
        stmt_uses(&s, &mut uses);
        assert_eq!(uses, vec!["sum".to_string(), "a".into(), "i".into()]);
        let mut writes = Vec::new();
        stmt_write_targets(&s, &mut writes);
        assert_eq!(writes, vec!["sum".to_string()]);
        assert_eq!(stmt_span(&s), Some(Span::new(4, 9)));
    }

    #[test]
    fn builtins() {
        for f in MathFn::ALL {
            assert_eq!(MathFn::from_name(f.name()), Some(f));
        }
        assert!(is_math_builtin("sqrt"));
        assert!(!is_math_builtin("compute"));
        assert!(!is_math_builtin("printf"));
    }
}
