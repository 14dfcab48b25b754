//! Source spans and user-facing diagnostics.
//!
//! [`Span`] is a start–end range (1-based, inclusive) so diagnostics can
//! underline whole expressions rather than a single character.
//! [`LangError`] is the hard-failure type returned by the parser and
//! translator; [`Diagnostic`] is the richer, lint-coded form emitted by
//! the static analyzer (`sppl-analyze`), carrying a stable [`LintCode`]
//! and a [`Severity`].

use std::fmt;

/// A region of the source text: 1-based `line:col` start and an
/// inclusive end position (`end_line:end_col` is the last column the
/// region covers). A *point* span has `end == start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// 1-based start line (0 when unknown).
    pub line: usize,
    /// 1-based start column (0 when unknown).
    pub col: usize,
    /// 1-based end line (equals `line` for single-line spans).
    pub end_line: usize,
    /// 1-based end column (equals `col` for point spans).
    pub end_col: usize,
}

impl Span {
    /// A point span at a known position.
    pub fn new(line: usize, col: usize) -> Span {
        Span {
            line,
            col,
            end_line: line,
            end_col: col,
        }
    }

    /// A range span from `line:col` to `end_line:end_col` (inclusive).
    pub fn range(line: usize, col: usize, end_line: usize, end_col: usize) -> Span {
        Span {
            line,
            col,
            end_line,
            end_col,
        }
    }

    /// A placeholder for errors with no source location (e.g. raised
    /// by the inference engine during translation).
    pub fn unknown() -> Span {
        Span {
            line: 0,
            col: 0,
            end_line: 0,
            end_col: 0,
        }
    }

    /// True when this is the [`Span::unknown`] placeholder.
    pub fn is_unknown(&self) -> bool {
        self.line == 0
    }

    /// The smallest span covering both `self` and `other` (unknown spans
    /// are ignored; covering two unknowns is unknown).
    pub fn cover(self, other: Span) -> Span {
        if self.is_unknown() {
            return other;
        }
        if other.is_unknown() {
            return self;
        }
        let (line, col) = if (other.line, other.col) < (self.line, self.col) {
            (other.line, other.col)
        } else {
            (self.line, self.col)
        };
        let (end_line, end_col) = if (other.end_line, other.end_col) > (self.end_line, self.end_col)
        {
            (other.end_line, other.end_col)
        } else {
            (self.end_line, self.end_col)
        };
        Span::range(line, col, end_line, end_col)
    }

    /// Renders the full range, e.g. `3:7-12` (or `3:7` for a point).
    pub fn display_range(&self) -> String {
        if self.is_unknown() {
            "<unknown>".to_string()
        } else if (self.line, self.col) == (self.end_line, self.end_col) {
            format!("{}:{}", self.line, self.col)
        } else if self.line == self.end_line {
            format!("{}:{}-{}", self.line, self.col, self.end_col)
        } else {
            format!(
                "{}:{}-{}:{}",
                self.line, self.col, self.end_line, self.end_col
            )
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "<unknown>")
        } else {
            write!(f, "{}:{}", self.line, self.col)
        }
    }
}

/// A compilation error with a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LangError {
    /// Where the problem was detected.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl LangError {
    /// Creates an error at a position.
    pub fn new<S: Into<String>>(span: Span, message: S) -> LangError {
        LangError {
            span,
            message: message.into(),
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.span, self.message)
    }
}

impl std::error::Error for LangError {}

/// Diagnostic severity: errors reject the program, warnings do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The program may be wasteful or suspicious but still compiles.
    Warning,
    /// The program cannot compile (or is guaranteed to fail at runtime).
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

/// Stable lint codes emitted by the static analyzer. The `E`/`W` prefix
/// mirrors the default [`Severity`]; codes are append-only and never
/// renumbered (tooling may match on them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintCode {
    /// `E000` — the program does not parse.
    Syntax,
    /// `E001` — use of a variable, array element, function, or
    /// distribution that is not defined at this point.
    UseBeforeDefine,
    /// `E002` — redefinition of a random variable or shadowing of a
    /// constant (restriction R1).
    Redefinition,
    /// `E003` — constant-evaluable array index out of bounds.
    IndexOutOfBounds,
    /// `E004` — `condition(E)` where `E` is statically unsatisfiable
    /// (probability 0 under the inferred supports).
    UnsatisfiableCondition,
    /// `E005` — every branch of an `if`/`switch` is statically dead.
    AllBranchesDead,
    /// `E006` — invalid distribution parameters: non-constant (R4),
    /// non-finite, or statically out of the family's range.
    InvalidParameter,
    /// `E007` — constant arithmetic produced a non-finite value that is
    /// then used where a finite number is required.
    NonFiniteConstant,
    /// `E008` — an expression the translator rejects for a reason no
    /// other code names: a polynomial degree past the bound, an
    /// unsupported exponent, a math call with the wrong number of
    /// arguments, a comparison of two random expressions (R3), …
    RejectedExpression,
    /// `W101` — a constant that is assigned but never read.
    UnusedVariable,
    /// `W102` — an `if`/`elif`/`switch` branch whose guard is disjoint
    /// from the inferred supports (the branch is pruned).
    DeadBranch,
    /// `W103` — a guard that is statically always true (subsequent arms
    /// and the `else` are unreachable).
    TautologicalGuard,
    /// `W104` — a transform applied outside its domain of definition on
    /// part of the inferred support (`log`/`sqrt` of a possibly-negative
    /// value, reciprocal of a possibly-zero value).
    InvalidTransformDomain,
    /// `W105` — `condition(E)` where `E` is statically always true
    /// (the command is a no-op).
    TrivialCondition,
}

impl LintCode {
    /// The stable textual code, e.g. `"E004"`.
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::Syntax => "E000",
            LintCode::UseBeforeDefine => "E001",
            LintCode::Redefinition => "E002",
            LintCode::IndexOutOfBounds => "E003",
            LintCode::UnsatisfiableCondition => "E004",
            LintCode::AllBranchesDead => "E005",
            LintCode::InvalidParameter => "E006",
            LintCode::NonFiniteConstant => "E007",
            LintCode::RejectedExpression => "E008",
            LintCode::UnusedVariable => "W101",
            LintCode::DeadBranch => "W102",
            LintCode::TautologicalGuard => "W103",
            LintCode::InvalidTransformDomain => "W104",
            LintCode::TrivialCondition => "W105",
        }
    }

    /// The default severity of this lint.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::Syntax
            | LintCode::UseBeforeDefine
            | LintCode::Redefinition
            | LintCode::IndexOutOfBounds
            | LintCode::UnsatisfiableCondition
            | LintCode::AllBranchesDead
            | LintCode::InvalidParameter
            | LintCode::NonFiniteConstant
            | LintCode::RejectedExpression => Severity::Error,
            LintCode::UnusedVariable
            | LintCode::DeadBranch
            | LintCode::TautologicalGuard
            | LintCode::InvalidTransformDomain
            | LintCode::TrivialCondition => Severity::Warning,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A span-carrying, lint-coded analyzer diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable lint code.
    pub code: LintCode,
    /// Error or warning.
    pub severity: Severity,
    /// The source region the diagnostic underlines.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic with the code's default severity.
    pub fn new<S: Into<String>>(code: LintCode, span: Span, message: S) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            message: message.into(),
        }
    }

    /// Renders `line:col-col: severity[CODE]: message`, the format used
    /// by `sppl-lint` and the golden corpus tests.
    pub fn render(&self) -> String {
        format!(
            "{}: {}[{}]: {}",
            self.span.display_range(),
            self.severity,
            self.code,
            self.message
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<Diagnostic> for LangError {
    fn from(d: Diagnostic) -> LangError {
        LangError::new(d.span, format!("[{}] {}", d.code, d.message))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = LangError::new(Span::new(3, 7), "unexpected token");
        assert_eq!(e.to_string(), "3:7: unexpected token");
        let u = LangError::new(Span::unknown(), "boom");
        assert!(u.to_string().starts_with("<unknown>"));
    }

    #[test]
    fn span_cover_and_range_display() {
        let a = Span::range(1, 5, 1, 9);
        let b = Span::new(2, 3);
        let c = a.cover(b);
        assert_eq!(c, Span::range(1, 5, 2, 3));
        assert_eq!(c.display_range(), "1:5-2:3");
        assert_eq!(a.display_range(), "1:5-9");
        assert_eq!(b.display_range(), "2:3");
        assert_eq!(a.cover(Span::unknown()), a);
        assert_eq!(Span::unknown().cover(b), b);
    }

    #[test]
    fn lint_codes_are_stable() {
        assert_eq!(LintCode::UnsatisfiableCondition.as_str(), "E004");
        assert_eq!(LintCode::DeadBranch.as_str(), "W102");
        assert_eq!(LintCode::DeadBranch.severity(), Severity::Warning);
        assert_eq!(LintCode::UseBeforeDefine.severity(), Severity::Error);
    }

    #[test]
    fn diagnostic_renders_code_and_range() {
        let d = Diagnostic::new(
            LintCode::DeadBranch,
            Span::range(4, 4, 4, 11),
            "branch guard is disjoint from the inferred support",
        );
        assert_eq!(
            d.render(),
            "4:4-11: warning[W102]: branch guard is disjoint from the inferred support"
        );
        let e: LangError = d.into();
        assert!(e.message.starts_with("[W102] "));
        assert_eq!(e.span.line, 4);
    }
}
