//! Recursive-descent parser for the mini-C + OpenMP subset.

use crate::ast::*;
use crate::token::{err, lex, ParseError, Spanned, Tok};

pub fn parse(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    p.program()
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn line(&self) -> usize {
        self.toks[self.pos].line
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span()
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> Result<(), ParseError> {
        if self.peek() == t {
            self.bump();
            Ok(())
        } else {
            err(self.line(), format!("expected {t}, found {}", self.peek()))
        }
    }

    fn eat_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => err(self.line(), format!("expected identifier, found {other}")),
        }
    }

    fn try_type(&mut self) -> Option<Type> {
        // Skip storage qualifiers.
        while matches!(self.peek(), Tok::KwStatic | Tok::KwConst) {
            self.bump();
        }
        let ty = match self.peek() {
            Tok::KwInt => Type::Int,
            Tok::KwLong => Type::Long,
            Tok::KwDouble | Tok::KwFloat => Type::Double,
            Tok::KwVoid => Type::Void,
            _ => return None,
        };
        self.bump();
        // `long int`, `long long`.
        if ty == Type::Long {
            while matches!(self.peek(), Tok::KwInt | Tok::KwLong) {
                self.bump();
            }
        }
        Some(ty)
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut prog = Program::default();
        loop {
            match self.peek().clone() {
                Tok::Eof => break,
                Tok::Include(s) => {
                    self.bump();
                    prog.includes.push(s);
                }
                _ => {
                    let span = self.span();
                    let Some(ty) = self.try_type() else {
                        return err(
                            span.line,
                            format!("expected declaration, found {}", self.peek()),
                        );
                    };
                    let name = self.eat_ident()?;
                    if *self.peek() == Tok::LParen {
                        prog.items.push(Item::Func(self.func_def(ty, name)?));
                    } else {
                        for d in self.decl_rest(ty, name, span)? {
                            prog.items.push(Item::Global(d));
                        }
                    }
                }
            }
        }
        Ok(prog)
    }

    fn func_def(&mut self, ret: Type, name: String) -> Result<FuncDef, ParseError> {
        self.eat(&Tok::LParen)?;
        let mut params = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                let line = self.line();
                let Some(ty) = self.try_type() else {
                    return err(line, "expected parameter type");
                };
                if ty == Type::Void && *self.peek() == Tok::RParen {
                    break; // f(void)
                }
                let pname = self.eat_ident()?;
                params.push(Param { ty, name: pname });
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.eat(&Tok::RParen)?;
        let body = self.block()?;
        Ok(FuncDef {
            ret,
            name,
            params,
            body,
        })
    }

    /// Continue a declaration after `type name` has been consumed; handles
    /// array dims, initializers, and comma-separated declarators.
    fn decl_rest(&mut self, ty: Type, first: String, span: Span) -> Result<Vec<Decl>, ParseError> {
        let mut out = Vec::new();
        let mut name = first;
        let mut dspan = span;
        loop {
            let mut dims = Vec::new();
            while *self.peek() == Tok::LBracket {
                self.bump();
                let line = self.line();
                let e = self.expr()?;
                let n = const_fold(&e).ok_or(ParseError {
                    line,
                    message: "array dimension must be a constant expression".into(),
                })?;
                if n <= 0 {
                    return err(line, "array dimension must be positive");
                }
                dims.push(n as usize);
                self.eat(&Tok::RBracket)?;
            }
            let init = if *self.peek() == Tok::Assign {
                self.bump();
                Some(self.assign_expr()?)
            } else {
                None
            };
            out.push(Decl {
                ty: ty.clone(),
                name,
                dims,
                init,
                span: dspan,
            });
            if *self.peek() == Tok::Comma {
                self.bump();
                dspan = self.span();
                name = self.eat_ident()?;
            } else {
                break;
            }
        }
        self.eat(&Tok::Semi)?;
        Ok(out)
    }

    fn block(&mut self) -> Result<Stmt, ParseError> {
        self.eat(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while *self.peek() != Tok::RBrace {
            if *self.peek() == Tok::Eof {
                return err(self.line(), "unterminated block");
            }
            self.stmt_into(&mut stmts)?;
        }
        self.bump();
        Ok(Stmt::Block(stmts))
    }

    /// Parse one statement; declarations may expand to several.
    fn stmt_into(&mut self, out: &mut Vec<Stmt>) -> Result<(), ParseError> {
        let span = self.span();
        if let Some(ty) = self.try_type() {
            let name = self.eat_ident()?;
            for d in self.decl_rest(ty, name, span)? {
                out.push(Stmt::Decl(d));
            }
            return Ok(());
        }
        out.push(self.stmt()?);
        Ok(())
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek().clone() {
            Tok::LBrace => self.block(),
            Tok::Semi => {
                self.bump();
                Ok(Stmt::Empty)
            }
            Tok::PragmaOmp => self.omp(),
            Tok::KwIf => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let cond = self.expr()?;
                self.eat(&Tok::RParen)?;
                let then = Box::new(self.stmt()?);
                let els = if *self.peek() == Tok::KwElse {
                    self.bump();
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If(cond, then, els))
            }
            Tok::KwWhile => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let cond = self.expr()?;
                self.eat(&Tok::RParen)?;
                Ok(Stmt::While(cond, Box::new(self.stmt()?)))
            }
            Tok::KwFor => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let init = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.eat(&Tok::Semi)?;
                let cond = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.eat(&Tok::Semi)?;
                let step = if *self.peek() == Tok::RParen {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.eat(&Tok::RParen)?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body: Box::new(self.stmt()?),
                })
            }
            Tok::KwReturn => {
                self.bump();
                let e = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Return(e))
            }
            Tok::KwBreak => {
                self.bump();
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Break)
            }
            Tok::KwContinue => {
                self.bump();
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Continue)
            }
            _ => {
                let span = self.span();
                let e = self.expr()?;
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Expr(e, span))
            }
        }
    }

    // ---- OpenMP pragmas ---------------------------------------------------

    fn omp(&mut self) -> Result<Stmt, ParseError> {
        let span = self.span();
        let line = span.line;
        self.eat(&Tok::PragmaOmp)?;
        let word = self.eat_ident()?;
        let kind = match word.as_str() {
            "parallel" => {
                if matches!(self.peek(), Tok::Ident(s) if s == "for") {
                    self.bump();
                    DirKind::ParallelFor
                } else {
                    DirKind::Parallel
                }
            }
            "for" => DirKind::For,
            "critical" => {
                let name = if *self.peek() == Tok::LParen {
                    self.bump();
                    let n = self.eat_ident()?;
                    self.eat(&Tok::RParen)?;
                    Some(n)
                } else {
                    None
                };
                DirKind::Critical(name)
            }
            "atomic" => DirKind::Atomic,
            "single" => DirKind::Single,
            "master" => DirKind::Master,
            "barrier" => DirKind::Barrier,
            other => return err(line, format!("unsupported OpenMP directive '{other}'")),
        };
        let mut clauses = Vec::new();
        while *self.peek() != Tok::PragmaEnd {
            clauses.push(self.clause()?);
        }
        self.eat(&Tok::PragmaEnd)?;
        if kind == DirKind::For && clauses.iter().any(|c| matches!(c, Clause::Reduction(..))) {
            // The loop's own reduction is not lowered: each thread's update
            // would run as a plain shared write.
            return err(
                line,
                "unsupported clause 'reduction' on '#pragma omp for'; \
                 use '#pragma omp parallel for reduction(...)'",
            );
        }
        let dir = Directive {
            kind: kind.clone(),
            clauses,
            span,
        };
        let body = match kind {
            DirKind::Barrier => None,
            _ => Some(Box::new(self.stmt()?)),
        };
        Ok(Stmt::Omp(dir, body))
    }

    fn clause(&mut self) -> Result<Clause, ParseError> {
        let line = self.line();
        // Allow comma separators between clauses.
        if *self.peek() == Tok::Comma {
            self.bump();
        }
        let word = self.eat_ident()?;
        match word.as_str() {
            "private" => Ok(Clause::Private(self.var_list()?)),
            "shared" => Ok(Clause::Shared(self.var_list()?)),
            "firstprivate" => Ok(Clause::FirstPrivate(self.var_list()?)),
            "lastprivate" => Ok(Clause::LastPrivate(self.var_list()?)),
            "nowait" => Ok(Clause::NoWait),
            "num_threads" => {
                self.eat(&Tok::LParen)?;
                let e = self.expr()?;
                self.eat(&Tok::RParen)?;
                Ok(Clause::NumThreads(e))
            }
            "reduction" => {
                self.eat(&Tok::LParen)?;
                let op = match self.bump() {
                    Tok::Plus => RedOp::Add,
                    Tok::Star => RedOp::Mul,
                    Tok::Ident(s) if s == "min" => RedOp::Min,
                    Tok::Ident(s) if s == "max" => RedOp::Max,
                    other => return err(line, format!("unsupported reduction operator {other}")),
                };
                self.eat(&Tok::Colon)?;
                let mut vars = vec![self.eat_ident()?];
                while *self.peek() == Tok::Comma {
                    self.bump();
                    vars.push(self.eat_ident()?);
                }
                self.eat(&Tok::RParen)?;
                Ok(Clause::Reduction(op, vars))
            }
            "schedule" => {
                self.eat(&Tok::LParen)?;
                let which = self.eat_ident()?;
                let chunk = if *self.peek() == Tok::Comma {
                    self.bump();
                    match self.bump() {
                        Tok::Int(v) if v > 0 => Some(v as usize),
                        other => {
                            return err(line, format!("bad schedule chunk {other}"));
                        }
                    }
                } else {
                    None
                };
                self.eat(&Tok::RParen)?;
                let s = match (which.as_str(), chunk) {
                    ("static", None) => Sched::Static,
                    ("static", Some(c)) => Sched::StaticChunk(c),
                    ("dynamic", c) => Sched::Dynamic(c.unwrap_or(1)),
                    ("guided", c) => Sched::Guided(c.unwrap_or(1)),
                    _ => return err(line, format!("unsupported schedule kind '{which}'")),
                };
                Ok(Clause::Schedule(s))
            }
            other => err(line, format!("unsupported clause '{other}'")),
        }
    }

    fn var_list(&mut self) -> Result<Vec<String>, ParseError> {
        self.eat(&Tok::LParen)?;
        let mut vars = vec![self.eat_ident()?];
        while *self.peek() == Tok::Comma {
            self.bump();
            vars.push(self.eat_ident()?);
        }
        self.eat(&Tok::RParen)?;
        Ok(vars)
    }

    // ---- expressions (precedence climbing) --------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.assign_expr()
    }

    fn assign_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.ternary()?;
        let op = match self.peek() {
            Tok::Assign => None,
            Tok::PlusAssign => Some(BinOp::Add),
            Tok::MinusAssign => Some(BinOp::Sub),
            Tok::StarAssign => Some(BinOp::Mul),
            Tok::SlashAssign => Some(BinOp::Div),
            _ => return Ok(lhs),
        };
        let line = self.line();
        self.bump();
        if !matches!(lhs, Expr::Ident(_) | Expr::Index(..)) {
            return err(line, "assignment target must be a variable or element");
        }
        let rhs = self.assign_expr()?;
        Ok(Expr::Assign(op, Box::new(lhs), Box::new(rhs)))
    }

    fn ternary(&mut self) -> Result<Expr, ParseError> {
        let c = self.logic_or()?;
        if *self.peek() == Tok::Question {
            self.bump();
            let a = self.assign_expr()?;
            self.eat(&Tok::Colon)?;
            let b = self.assign_expr()?;
            Ok(Expr::Cond(Box::new(c), Box::new(a), Box::new(b)))
        } else {
            Ok(c)
        }
    }

    fn logic_or(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.logic_and()?;
        while *self.peek() == Tok::OrOr {
            self.bump();
            let r = self.logic_and()?;
            e = Expr::Binary(BinOp::Or, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn logic_and(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.equality()?;
        while *self.peek() == Tok::AndAnd {
            self.bump();
            let r = self.equality()?;
            e = Expr::Binary(BinOp::And, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn equality(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.relational()?;
        loop {
            let op = match self.peek() {
                Tok::Eq => BinOp::Eq,
                Tok::Ne => BinOp::Ne,
                _ => break,
            };
            self.bump();
            let r = self.relational()?;
            e = Expr::Binary(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn relational(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.additive()?;
        loop {
            let op = match self.peek() {
                Tok::Lt => BinOp::Lt,
                Tok::Gt => BinOp::Gt,
                Tok::Le => BinOp::Le,
                Tok::Ge => BinOp::Ge,
                _ => break,
            };
            self.bump();
            let r = self.additive()?;
            e = Expr::Binary(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let r = self.multiplicative()?;
            e = Expr::Binary(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Rem,
                _ => break,
            };
            self.bump();
            let r = self.unary()?;
            e = Expr::Binary(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Tok::Minus => {
                self.bump();
                Ok(Expr::Unary(UnOp::Neg, Box::new(self.unary()?)))
            }
            Tok::Not => {
                self.bump();
                Ok(Expr::Unary(UnOp::Not, Box::new(self.unary()?)))
            }
            Tok::Plus => {
                self.bump();
                self.unary()
            }
            Tok::PlusPlus | Tok::MinusMinus => {
                // Prefix increment: desugar to compound assignment.
                let op = if self.bump() == Tok::PlusPlus {
                    BinOp::Add
                } else {
                    BinOp::Sub
                };
                let target = self.unary()?;
                Ok(Expr::Assign(
                    Some(op),
                    Box::new(target),
                    Box::new(Expr::Int(1)),
                ))
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            match self.peek().clone() {
                Tok::LBracket => {
                    let Expr::Ident(name) = e.clone() else {
                        return err(self.line(), "indexing is only supported on named arrays");
                    };
                    let mut idx = Vec::new();
                    while *self.peek() == Tok::LBracket {
                        self.bump();
                        idx.push(self.expr()?);
                        self.eat(&Tok::RBracket)?;
                    }
                    e = Expr::Index(name, idx);
                }
                Tok::PlusPlus | Tok::MinusMinus => {
                    // Postfix; only valid as a statement-level expression in
                    // our subset, desugared like the prefix form.
                    let op = if self.bump() == Tok::PlusPlus {
                        BinOp::Add
                    } else {
                        BinOp::Sub
                    };
                    e = Expr::Assign(Some(op), Box::new(e), Box::new(Expr::Int(1)));
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        match self.bump() {
            Tok::Int(v) => Ok(Expr::Int(v)),
            Tok::Float(v) => Ok(Expr::Float(v)),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::LParen => {
                let e = self.expr()?;
                self.eat(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                if *self.peek() == Tok::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if *self.peek() != Tok::RParen {
                        loop {
                            args.push(self.assign_expr()?);
                            if *self.peek() == Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.eat(&Tok::RParen)?;
                    Ok(Expr::Call(name, args))
                } else {
                    Ok(Expr::Ident(name))
                }
            }
            other => err(line, format!("unexpected token {other}")),
        }
    }
}

/// Fold integer constant expressions (array dimensions).
fn const_fold(e: &Expr) -> Option<i64> {
    match e {
        Expr::Int(v) => Some(*v),
        Expr::Unary(UnOp::Neg, x) => const_fold(x).map(|v| -v),
        Expr::Binary(op, a, b) => {
            let (a, b) = (const_fold(a)?, const_fold(b)?);
            Some(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a.checked_div(b)?,
                _ => return None,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal_main() {
        let p = parse("int main() { return 0; }").unwrap();
        let f = p.func("main").unwrap();
        assert_eq!(f.ret, Type::Int);
        assert_eq!(f.params.len(), 0);
    }

    #[test]
    fn parse_decls_and_arrays() {
        let p = parse("double a[10][20]; int i, j = 3;").unwrap();
        assert_eq!(p.items.len(), 3);
        match &p.items[0] {
            Item::Global(d) => {
                assert_eq!(d.dims, vec![10, 20]);
                assert_eq!(d.byte_size(), 1600);
            }
            _ => panic!(),
        }
        match &p.items[2] {
            Item::Global(d) => assert_eq!(d.init, Some(Expr::Int(3))),
            _ => panic!(),
        }
    }

    #[test]
    fn parse_constant_dims() {
        let p = parse("double a[4*8];").unwrap();
        match &p.items[0] {
            Item::Global(d) => assert_eq!(d.dims, vec![32]),
            _ => panic!(),
        }
    }

    #[test]
    fn parse_parallel_for_with_clauses() {
        let src = r#"
            int main() {
                int i; double sum = 0.0; double a[100];
                #pragma omp parallel for private(i) reduction(+: sum) schedule(static, 4)
                for (i = 0; i < 100; i++) sum += a[i];
                return 0;
            }
        "#;
        let p = parse(src).unwrap();
        let f = p.func("main").unwrap();
        let Stmt::Block(stmts) = &f.body else {
            panic!()
        };
        let omp = stmts
            .iter()
            .find_map(|s| match s {
                Stmt::Omp(d, b) => Some((d, b)),
                _ => None,
            })
            .expect("pragma parsed");
        assert_eq!(omp.0.kind, DirKind::ParallelFor);
        assert_eq!(omp.0.privates(), vec!["i".to_string()]);
        assert_eq!(omp.0.reductions(), vec![(RedOp::Add, "sum".to_string())]);
        assert_eq!(omp.0.schedule(), Sched::StaticChunk(4));
        assert!(matches!(omp.1.as_deref(), Some(Stmt::For { .. })));
    }

    #[test]
    fn parse_critical_with_name_and_atomic() {
        let src = r#"
            int main() {
                double x = 0;
                #pragma omp parallel
                {
                    #pragma omp critical (lk)
                    { x = x + 1.0; }
                    #pragma omp atomic
                    x += 2.0;
                    #pragma omp barrier
                }
                return 0;
            }
        "#;
        let p = parse(src).unwrap();
        assert!(p.func("main").is_some());
    }

    #[test]
    fn parse_expressions_precedence() {
        let p = parse("int main() { int x; x = 1 + 2 * 3 < 7 && 1; return x; }").unwrap();
        let f = p.func("main").unwrap();
        let Stmt::Block(ss) = &f.body else { panic!() };
        let Stmt::Expr(Expr::Assign(None, _, rhs), _) = &ss[1] else {
            panic!("{ss:?}")
        };
        // ((1 + (2*3)) < 7) && 1
        let Expr::Binary(BinOp::And, l, _) = rhs.as_ref() else {
            panic!()
        };
        assert!(matches!(l.as_ref(), Expr::Binary(BinOp::Lt, _, _)));
    }

    #[test]
    fn parse_increment_desugars() {
        let p = parse("int main() { int i = 0; i++; ++i; i += 2; return i; }").unwrap();
        let f = p.func("main").unwrap();
        let Stmt::Block(ss) = &f.body else { panic!() };
        assert!(matches!(
            &ss[1],
            Stmt::Expr(Expr::Assign(Some(BinOp::Add), _, _), _)
        ));
        assert!(matches!(
            &ss[2],
            Stmt::Expr(Expr::Assign(Some(BinOp::Add), _, _), _)
        ));
    }

    #[test]
    fn parse_errors_are_located() {
        let e = parse("int main() {\n  int x = ;\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(parse("#pragma omp sections\nint main(){}").is_err());
    }

    /// A work-sharing loop's own `reduction` is refused, and the message
    /// points at the combined directive, whose clause is honoured.
    #[test]
    fn a_loop_reduction_inside_a_region_is_refused_by_name() {
        let src = "int main() {\n  int i; double s; double a[8];\n  s = 0.0;\n  \
                   #pragma omp parallel\n  {\n    #pragma omp for reduction(+:s)\n    \
                   for (i = 0; i < 8; i++) s += a[i];\n  }\n  return 0;\n}";
        let e = parse(src).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (
                6,
                "unsupported clause 'reduction' on '#pragma omp for'; \
                 use '#pragma omp parallel for reduction(...)'"
            )
        );
        let combined = src.replace("parallel\n  {\n    #pragma omp for", "parallel for");
        let combined = combined.replace("s += a[i];\n  }", "s += a[i];");
        assert!(parse(&combined).is_ok(), "{combined}");
    }

    #[test]
    fn parse_ternary_and_calls() {
        let p = parse("int main() { double y; y = sqrt(2.0) > 1.0 ? 1.0 : 0.0; return 0; }");
        assert!(p.is_ok());
    }
}
