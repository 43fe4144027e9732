//! Per-region detectors: everything that needs a `RegionClassification`.
//!
//! [`RegionCx`] is the semantic core — the access-event state machine
//! (scopes, protection stack, work-shared loop frames) plus every
//! diagnostic the detectors emit. The marker-driven walk in
//! [`crate::mir_lints`] feeds it the events of `parade_mir`'s lowered form
//! and adds the flow-sensitive PC009 on top: whether the team can
//! disagree on reaching a point is `divergent_blocks`' answer alone.
//!
//! The detectors:
//!
//! - **PC001** shared-write-race — writes to shared data with no enclosing
//!   synchronization and no thread-disjoint subscript;
//! - **PC002** loop-carried-dependence — cross-iteration conflicts under a
//!   work-shared loop (`a[i]` written, `a[i-1]` read);
//! - **PC003** reduction-misuse — reduction variables touched outside
//!   their combining update, or combined with the wrong operator;
//! - **PC004** barrier-placement — barriers inside a one-thread construct
//!   or a work-sharing loop body (structural placement only);
//! - **PC005** nowait-unsynchronized-access — data written by a `nowait`
//!   loop touched by a block sibling before any joining barrier;
//! - **PC006** private-read-before-write — `private` variables read while
//!   still uninitialized (should likely be `firstprivate`);
//! - **PC007** directive-structure — bad nesting and malformed constructs
//!   *inside* the region (orphans are the serial walk's job).

use std::collections::{HashMap, HashSet};

use parade_translator::analysis::{RegionClassification, Symbols, VarScope};
use parade_translator::ast::*;

use crate::diag::{Diag, LintId};

/// Affine shape of one subscript expression relative to a loop variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Off {
    /// `i + c` (c may be 0 or negative) — injective in the loop variable.
    Affine(i64),
    /// A compile-time constant.
    Const(i64),
    /// Anything else.
    Unknown,
}

/// Classify `e` as an affine function of `v`, a constant, or unknown.
fn offset_in(e: &Expr, v: &str) -> Off {
    match e {
        Expr::Int(c) => Off::Const(*c),
        Expr::Ident(n) if n == v => Off::Affine(0),
        Expr::Binary(op @ (BinOp::Add | BinOp::Sub), a, b) => {
            let (a, b) = (offset_in(a, v), offset_in(b, v));
            let neg = matches!(op, BinOp::Sub);
            match (a, b) {
                (Off::Affine(x), Off::Const(c)) => Off::Affine(if neg { x - c } else { x + c }),
                (Off::Const(c), Off::Affine(x)) if !neg => Off::Affine(c + x),
                (Off::Const(x), Off::Const(y)) => Off::Const(if neg { x - y } else { x + y }),
                _ => Off::Unknown,
            }
        }
        _ => Off::Unknown,
    }
}

/// `i * c` / `c * i` with a nonzero constant: injective, though not an
/// offset we can compare (stride changes the image set).
fn is_scaled(e: &Expr, v: &str) -> bool {
    if let Expr::Binary(BinOp::Mul, a, b) = e {
        let m = |x: &Expr, y: &Expr| {
            matches!(x, Expr::Ident(n) if n == v) && matches!(y, Expr::Int(c) if *c != 0)
        };
        return m(a, b) || m(b, a);
    }
    false
}

/// One active work-shared loop: induction variable plus the access log the
/// dependence test runs over at loop exit.
struct WsFrame {
    var: String,
    dir_span: Span,
    writes: HashMap<String, Vec<Vec<Off>>>,
    reads: HashMap<String, Vec<Vec<Off>>>,
}

/// What a statement-level combining update (`x ⊕= e`, `x = fmin(x, e)`)
/// means for its target under the region's scoping.
pub(crate) enum UpdateVerdict {
    /// Target is not reduction-scoped: scan the whole expression normally.
    NotReduction,
    /// The sanctioned combining update: only the operand's reads are
    /// visible to the other detectors, and the target counts as written.
    Sanctioned,
    /// Mismatched operator — diagnosed; nothing further to scan.
    WrongOp,
}

pub(crate) struct RegionCx<'a> {
    pub(crate) class: RegionClassification,
    pub(crate) syms: &'a Symbols,
    diags: &'a mut Vec<Diag>,
    pub(crate) cur_span: Span,
    /// Enclosing one-thread constructs (`single`, `master`, `critical`,
    /// `atomic`): writes under them are synchronized.
    pub(crate) protect: Vec<&'static str>,
    ws: Vec<WsFrame>,
    tracked: HashSet<String>,
    written: HashSet<String>,
    warned_uninit: HashSet<String>,
}

impl<'a> RegionCx<'a> {
    pub(crate) fn new(
        class: RegionClassification,
        syms: &'a Symbols,
        diags: &'a mut Vec<Diag>,
        span: Span,
    ) -> RegionCx<'a> {
        // Clause-private (and lastprivate) variables enter the region with
        // indeterminate values — track first accesses for PC006.
        let tracked: HashSet<String> = class
            .scopes
            .iter()
            .filter(|(n, s)| {
                matches!(s, VarScope::Private | VarScope::LastPrivate)
                    && !class.region_locals.contains(*n)
            })
            .map(|(n, _)| n.clone())
            .collect();
        RegionCx {
            class,
            syms,
            diags,
            cur_span: span,
            protect: Vec::new(),
            ws: Vec::new(),
            tracked,
            written: HashSet::new(),
            warned_uninit: HashSet::new(),
        }
    }

    pub(crate) fn diag(&mut self, lint: LintId, msg: String) {
        self.diags.push(Diag::new(lint, self.cur_span, msg));
    }

    /// PC007 clause-variable validation against the function's symbols.
    pub(crate) fn clause_vars(&mut self, d: &Directive) {
        crate::check_clause_vars(d, self.syms, self.diags);
    }

    pub(crate) fn diag_at(&mut self, lint: LintId, span: Span, msg: String) {
        self.diags.push(Diag::new(lint, span, msg));
    }

    /// Region scope of `n`, treating active work-shared loop variables as
    /// implicitly private (OpenMP 1.0 §2.4.1 — even when the `for` sits
    /// inside a `parallel` and the region classification left them shared).
    pub(crate) fn scope(&self, n: &str) -> VarScope {
        if self.ws.iter().any(|f| f.var == n) {
            return VarScope::Private;
        }
        self.class.scope_of(n)
    }

    pub(crate) fn protected(&self) -> bool {
        !self.protect.is_empty()
    }

    // ---- variable events --------------------------------------------------

    pub(crate) fn mark_written(&mut self, n: &str) {
        self.written.insert(n.to_string());
    }

    fn priv_read(&mut self, n: &str) {
        if self.tracked.contains(n)
            && !self.written.contains(n)
            && self.warned_uninit.insert(n.to_string())
        {
            self.diag(
                LintId::PrivateUninitRead,
                format!(
                    "private variable `{n}` is read before any write in the region; \
                     it enters the region uninitialized — did you mean `firstprivate({n})`?"
                ),
            );
        }
    }

    pub(crate) fn read_var(&mut self, n: &str) {
        if let VarScope::Reduction(op) = self.scope(n) {
            self.diag(
                LintId::ReductionMisuse,
                format!(
                    "reduction variable `{n}` (reduction({}: {n})) is read outside its \
                     combining update; its value is unspecified until the region ends",
                    op.c_token()
                ),
            );
        }
        self.priv_read(n);
    }

    pub(crate) fn read_indexed(&mut self, n: &str, idxs: &[Expr]) {
        if let VarScope::Reduction(op) = self.scope(n) {
            self.diag(
                LintId::ReductionMisuse,
                format!(
                    "reduction variable `{n}` (reduction({}: {n})) is read outside its \
                     combining update",
                    op.c_token()
                ),
            );
        }
        if matches!(self.scope(n), VarScope::Shared) {
            self.log_access(n, idxs, false);
        }
        self.priv_read(n);
    }

    pub(crate) fn write_var(&mut self, n: &str) {
        match self.scope(n) {
            VarScope::Reduction(op) => self.diag(
                LintId::ReductionMisuse,
                format!(
                    "reduction variable `{n}` (reduction({}: {n})) is overwritten outside \
                     its combining update",
                    op.c_token()
                ),
            ),
            VarScope::Shared if !self.protected() && self.syms.get(n).is_some() => self.diag(
                LintId::SharedWriteRace,
                format!(
                    "unsynchronized write to shared variable `{n}` in a parallel region; \
                     every thread writes it — guard with `critical`/`atomic` or privatize"
                ),
            ),
            _ => {}
        }
        self.mark_written(n);
    }

    pub(crate) fn write_indexed(&mut self, n: &str, idxs: &[Expr]) {
        match self.scope(n) {
            VarScope::Reduction(op) => self.diag(
                LintId::ReductionMisuse,
                format!(
                    "reduction variable `{n}` (reduction({}: {n})) is overwritten outside \
                     its combining update",
                    op.c_token()
                ),
            ),
            VarScope::Shared if self.syms.get(n).is_some() => {
                self.log_access(n, idxs, true);
                if !self.protected() && !self.disjoint_subscript(idxs) {
                    self.diag(
                        LintId::SharedWriteRace,
                        format!(
                            "write to shared array `{n}` is not provably distinct across \
                             threads: no subscript is injective in the work-shared loop \
                             variable or derived from omp_get_thread_num()"
                        ),
                    );
                }
            }
            _ => {}
        }
        self.mark_written(n);
    }

    /// True if some subscript makes the element choice thread-disjoint.
    fn disjoint_subscript(&self, idxs: &[Expr]) -> bool {
        idxs.iter().any(|ix| {
            if ix.calls_thread_num() {
                return true;
            }
            match self.ws.last() {
                Some(f) => matches!(offset_in(ix, &f.var), Off::Affine(_)) || is_scaled(ix, &f.var),
                None => false,
            }
        })
    }

    /// Record an array access for the innermost work-shared loop's
    /// dependence test.
    pub(crate) fn log_access(&mut self, n: &str, idxs: &[Expr], is_write: bool) {
        let Some(frame) = self.ws.last() else {
            return;
        };
        let offs: Vec<Off> = idxs.iter().map(|ix| offset_in(ix, &frame.var)).collect();
        let frame = self.ws.last_mut().unwrap();
        let log = if is_write {
            &mut frame.writes
        } else {
            &mut frame.reads
        };
        log.entry(n.to_string()).or_default().push(offs);
    }

    // ---- diagnostics -------------------------------------------------------

    /// What a combining update to `target` with operator `op` means here;
    /// emits the wrong-operator PC003 itself.
    pub(crate) fn update_verdict(&mut self, target: &str, op: RedOp) -> UpdateVerdict {
        let VarScope::Reduction(declared) = self.scope(target) else {
            return UpdateVerdict::NotReduction;
        };
        if op == declared {
            UpdateVerdict::Sanctioned
        } else {
            self.diag(
                LintId::ReductionMisuse,
                format!(
                    "reduction variable `{target}` is declared \
                     `reduction({}: {target})` but combined with `{}`; the \
                     partial results will be merged with the declared operator",
                    declared.c_token(),
                    op.c_token()
                ),
            );
            UpdateVerdict::WrongOp
        }
    }

    /// PC005: `v` (written by the nowait loop at `loop_span`) touched at
    /// `at` with no intervening barrier.
    pub(crate) fn diag_nowait(&mut self, v: &str, loop_span: Span, at: Span) {
        self.diag_at(
            LintId::NowaitUnsyncRead,
            at,
            format!(
                "`{v}` is written by the nowait loop at line {} and accessed \
                 here with no intervening barrier; threads may still be in \
                 that loop",
                loop_span.line
            ),
        );
    }

    pub(crate) fn diag_nested_parallel(&mut self) {
        self.diag(
            LintId::DirectiveStructure,
            "nested parallel regions are not supported by the ParADE runtime".into(),
        );
    }

    /// PC007 gate for `for`/`single` nesting. `label` is the construct as
    /// it should read in the message. True if diagnosed.
    pub(crate) fn check_ws_nesting(&mut self, label: &str) -> bool {
        if let Some(ctx) = self.bad_ws_nesting() {
            self.diag(
                LintId::DirectiveStructure,
                format!("{label} may not be nested inside {ctx}"),
            );
            return true;
        }
        false
    }

    /// PC007 gate for `master` (legal under `protect`, not under `ws`).
    pub(crate) fn check_master_nesting(&mut self) -> bool {
        if !self.ws.is_empty() {
            self.diag(
                LintId::DirectiveStructure,
                "`master` may not be nested inside a work-sharing loop".into(),
            );
            return true;
        }
        false
    }

    pub(crate) fn diag_non_canonical_ws(&mut self) {
        self.diag(
            LintId::DirectiveStructure,
            "work-shared loop is not in canonical form \
             (`for (i = lo; i < hi; i += c)` with a positive constant stride)"
                .into(),
        );
    }

    pub(crate) fn diag_malformed_atomic(&mut self) {
        self.diag(
            LintId::DirectiveStructure,
            "`atomic` must apply to a single scalar update statement \
             (`x += e`, `x = x + e`, `x = fmin(x, e)`, …)"
                .into(),
        );
    }

    /// The structural PC004 rules for an explicit barrier: inside a
    /// one-thread construct, or inside a work-sharing loop body. True if
    /// either fired (which gates PC009).
    pub(crate) fn barrier_checks(&mut self) -> bool {
        if let Some(ctx) = self.protect.last().copied() {
            self.diag(
                LintId::BarrierPlacement,
                format!(
                    "barrier inside `{ctx}` construct: threads that do not \
                     execute the construct never reach it, deadlocking the team"
                ),
            );
            true
        } else if !self.ws.is_empty() {
            self.diag(
                LintId::BarrierPlacement,
                "barrier inside a work-sharing loop body: iterations are divided \
                 among threads, so threads hit it a different number of times"
                    .into(),
            );
            true
        } else {
            false
        }
    }

    /// PC009: `what` sits in a block the divergence analysis
    /// proved thread-divergent.
    pub(crate) fn diag_barrier_divergence(&mut self, what: &str) {
        self.diag(
            LintId::BarrierDivergence,
            format!(
                "{what} in thread-divergent control flow: the divergence analysis \
                 proves threads of the team can disagree on reaching it; threads \
                 that arrive wait forever"
            ),
        );
    }

    // ---- work-shared loop frames ------------------------------------------

    pub(crate) fn ws_push(&mut self, var: String, dir_span: Span) {
        self.ws.push(WsFrame {
            var,
            dir_span,
            writes: HashMap::new(),
            reads: HashMap::new(),
        });
    }

    /// Pop the innermost work-shared loop frame and run its PC002
    /// dependence test.
    pub(crate) fn ws_pop_report(&mut self) {
        let frame = self.ws.pop().expect("ws frame");
        self.report_dependences(frame);
    }

    /// Context that makes a nested work-sharing construct illegal.
    fn bad_ws_nesting(&self) -> Option<String> {
        if !self.ws.is_empty() {
            return Some("another work-sharing construct".into());
        }
        self.protect.last().map(|c| format!("`{c}`"))
    }

    /// PC002: cross-iteration conflicts recorded while walking a
    /// work-shared loop body.
    fn report_dependences(&mut self, f: WsFrame) {
        let empty = Vec::new();
        let mut names: Vec<&String> = f.writes.keys().collect();
        names.sort();
        for arr in names {
            let writes = &f.writes[arr];
            let reads = f.reads.get(arr).unwrap_or(&empty);
            let mut conflict = None;
            for w in writes {
                for r in reads {
                    if offsets_conflict(w, r) {
                        conflict = Some((w.clone(), r.clone(), "reads"));
                        break;
                    }
                }
                if conflict.is_some() {
                    break;
                }
            }
            if conflict.is_none() {
                'outer: for (i, w) in writes.iter().enumerate() {
                    for w2 in &writes[i + 1..] {
                        if offsets_conflict(w, w2) {
                            conflict = Some((w.clone(), w2.clone(), "also writes"));
                            break 'outer;
                        }
                    }
                }
            }
            if let Some((a, b, verb)) = conflict {
                self.diags.push(Diag::new(
                    LintId::LoopCarriedDependence,
                    f.dir_span,
                    format!(
                        "loop-carried dependence on `{arr}`: an iteration writes \
                         {} while another iteration {verb} {}; iterations of a \
                         work-shared loop run on different threads with no ordering",
                        fmt_access(arr, &f.var, &a),
                        fmt_access(arr, &f.var, &b),
                    ),
                ));
            }
        }
    }
}

/// Two access vectors of the same array conflict across iterations when no
/// dimension keeps them always-apart (distinct constants) and some
/// dimension moves between iterations (differing affine offsets, or an
/// affine offset against a constant).
fn offsets_conflict(a: &[Off], b: &[Off]) -> bool {
    let disjoint = a
        .iter()
        .zip(b)
        .any(|p| matches!(p, (Off::Const(x), Off::Const(y)) if x != y));
    if disjoint {
        return false;
    }
    a.iter().zip(b).any(|p| {
        matches!(p, (Off::Affine(x), Off::Affine(y)) if x != y)
            || matches!(
                p,
                (Off::Affine(_), Off::Const(_)) | (Off::Const(_), Off::Affine(_))
            )
    })
}

fn fmt_access(arr: &str, var: &str, offs: &[Off]) -> String {
    let mut s = format!("`{arr}");
    for o in offs {
        match o {
            Off::Affine(0) => s.push_str(&format!("[{var}]")),
            Off::Affine(c) if *c > 0 => s.push_str(&format!("[{var}+{c}]")),
            Off::Affine(c) => s.push_str(&format!("[{var}-{}]", -c)),
            Off::Const(c) => s.push_str(&format!("[{c}]")),
            Off::Unknown => s.push_str("[…]"),
        }
    }
    s.push('`');
    s
}
