//! Structured diagnostics: stable lint ids, severity, source spans.

use std::fmt;

use parade_trace::json_string;
use parade_translator::Span;

/// Diagnostic severity. `Error` diagnostics make `paradec check` exit
/// non-zero; `Warning`s are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable lint identifiers. Codes are append-only: new lints get new
/// numbers, retired lints leave holes (PC008 and PC010, the task lints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LintId {
    /// PC001 — write to a shared variable inside a parallel region with no
    /// synchronization and no iteration-disjoint subscript.
    SharedWriteRace,
    /// PC002 — loop-carried dependence under a work-sharing directive
    /// (`a[i±k]` read against an `a[i]` write).
    LoopCarriedDependence,
    /// PC003 — reduction variable read or written outside its combining
    /// update, or updated with a mismatched operator.
    ReductionMisuse,
    /// PC004 — barrier in a structurally wrong place: inside
    /// `single`/`master`/`critical`/`atomic`, or inside a work-sharing
    /// loop body.
    BarrierPlacement,
    /// PC005 — `nowait` loop followed by an access to data it wrote,
    /// before any joining barrier.
    NowaitUnsyncRead,
    /// PC006 — clause-private variable read before any write (likely
    /// should be `firstprivate`).
    PrivateUninitRead,
    /// PC007 — directive structure: bad nesting, orphaned constructs,
    /// non-canonical work-shared loops, malformed atomic bodies, unknown
    /// clause variables.
    DirectiveStructure,
    /// PC009 — barrier (or implicitly-joining work-sharing construct)
    /// placed in a CFG-divergent block: the dataflow divergence analysis
    /// proves threads of the team can disagree on reaching it, under a
    /// thread-dependent `if` or loop bound, or after a thread-dependent
    /// `break`. The one divergence verdict; silent on a barrier PC004
    /// already reports.
    BarrierDivergence,
}

impl LintId {
    pub const ALL: [LintId; 8] = [
        LintId::SharedWriteRace,
        LintId::LoopCarriedDependence,
        LintId::ReductionMisuse,
        LintId::BarrierPlacement,
        LintId::NowaitUnsyncRead,
        LintId::PrivateUninitRead,
        LintId::DirectiveStructure,
        LintId::BarrierDivergence,
    ];

    /// The stable code, e.g. `PC001`.
    pub fn code(self) -> &'static str {
        match self {
            LintId::SharedWriteRace => "PC001",
            LintId::LoopCarriedDependence => "PC002",
            LintId::ReductionMisuse => "PC003",
            LintId::BarrierPlacement => "PC004",
            LintId::NowaitUnsyncRead => "PC005",
            LintId::PrivateUninitRead => "PC006",
            LintId::DirectiveStructure => "PC007",
            LintId::BarrierDivergence => "PC009",
        }
    }

    /// Human-readable lint name (kebab-case, for docs and `--explain`).
    pub fn name(self) -> &'static str {
        match self {
            LintId::SharedWriteRace => "shared-write-race",
            LintId::LoopCarriedDependence => "loop-carried-dependence",
            LintId::ReductionMisuse => "reduction-misuse",
            LintId::BarrierPlacement => "barrier-placement",
            LintId::NowaitUnsyncRead => "nowait-unsynchronized-access",
            LintId::PrivateUninitRead => "private-read-before-write",
            LintId::DirectiveStructure => "directive-structure",
            LintId::BarrierDivergence => "barrier-divergence-deadlock",
        }
    }

    /// Default severity of the lint.
    pub fn severity(self) -> Severity {
        match self {
            LintId::PrivateUninitRead => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for LintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// One diagnostic produced by the analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct Diag {
    pub lint: LintId,
    pub severity: Severity,
    pub span: Span,
    pub message: String,
}

impl Diag {
    pub fn new(lint: LintId, span: Span, message: impl Into<String>) -> Diag {
        Diag {
            lint,
            severity: lint.severity(),
            span,
            message: message.into(),
        }
    }

    /// Render as `file:line:col: severity[PCnnn]: message`.
    pub fn render(&self, file: &str) -> String {
        format!(
            "{file}:{}: {}[{}]: {}",
            self.span,
            self.severity,
            self.lint.code(),
            self.message
        )
    }

    /// Render as one JSON object (machine-readable `paradec check --json`).
    pub fn render_json(&self, file: &str) -> String {
        format!(
            r#"{{"file":{},"lint":"{}","name":"{}","severity":"{}","line":{},"col":{},"message":{}}}"#,
            json_string(file),
            self.lint.code(),
            self.lint.name(),
            self.severity,
            self.span.line,
            self.span.col,
            json_string(&self.message)
        )
    }
}

/// Canonical diagnostic order: (line, col, lint id, message), then dedup.
/// Both analyzer backends sort with this so their outputs are comparable
/// byte-for-byte.
pub fn sort_diags(diags: &mut Vec<Diag>) {
    diags.sort_by(|a, b| {
        (a.span.line, a.span.col, a.lint, &a.message).cmp(&(
            b.span.line,
            b.span.col,
            b.lint,
            &b.message,
        ))
    });
    diags.dedup();
}

/// True if any diagnostic is `Error` severity (the check-gate predicate).
pub fn has_errors(diags: &[Diag]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let codes: Vec<&str> = LintId::ALL.iter().map(|l| l.code()).collect();
        assert_eq!(
            codes,
            vec!["PC001", "PC002", "PC003", "PC004", "PC005", "PC006", "PC007", "PC009"]
        );
    }

    #[test]
    fn json_rendering_escapes_and_is_stable() {
        let d = Diag::new(
            LintId::BarrierDivergence,
            Span::new(7, 13),
            "threads \"may\" diverge",
        );
        assert_eq!(
            d.render_json("dir/prog.c"),
            r#"{"file":"dir/prog.c","lint":"PC009","name":"barrier-divergence-deadlock","severity":"error","line":7,"col":13,"message":"threads \"may\" diverge"}"#
        );
    }

    #[test]
    fn render_includes_span_and_code() {
        let d = Diag::new(
            LintId::SharedWriteRace,
            Span::new(12, 5),
            "write to shared `x`",
        );
        assert_eq!(
            d.render("prog.c"),
            "prog.c:12:5: error[PC001]: write to shared `x`"
        );
    }

    #[test]
    fn only_private_uninit_is_warning() {
        for l in LintId::ALL {
            let expect = if l == LintId::PrivateUninitRead {
                Severity::Warning
            } else {
                Severity::Error
            };
            assert_eq!(l.severity(), expect, "{}", l.code());
        }
    }
}
