//! Static semantic analysis for SPPL programs: the pass that runs
//! between parsing and translation.
//!
//! The analyzer abstractly interprets a parsed [`Program`] without
//! building any sum-product expression:
//!
//! * **Name resolution / def-use** — use-before-define (`E001`),
//!   redefinition of random variables (`E002`, restriction R1),
//!   constant-evaluable array indices with bounds checks (`E003`), and
//!   never-read constants (`W101`).
//! * **Domain inference** — a per-variable *support lattice* (finite
//!   sets ∪ interval unions, the same [`sppl_sets::OutcomeSet`] algebra
//!   the runtime uses) is propagated through distributions, transforms,
//!   and branch guards. Every inferred support over-approximates the
//!   true one, so "definitely unsatisfiable" verdicts are sound.
//! * **Satisfiability lints** — statically-unsatisfiable
//!   `condition`/`observe` events (`E004`), dead `if`/`elif`/`switch`
//!   branches (`W102`), tautological guards (`W103`, `W105`), all
//!   branches dead (`E005`), invalid distribution parameters (`E006`),
//!   non-finite constant arithmetic (`E007`), and partial transforms
//!   applied where their argument may lie outside the domain of
//!   definition (`W104`: `log`/`sqrt` of a possibly-negative value,
//!   division by a possibly-zero value).
//! * **Every other rejected expression** (`E008`) — a polynomial past
//!   the degree bound, an unsupported exponent, a math call with the
//!   wrong number of arguments, a comparison of two random expressions
//!   (R3), and the like.
//!
//! Expressions are evaluated by the translator's own evaluator
//! ([`sppl_lang::eval`], over [`sppl_lang::ops`] and the family table
//! [`sppl_lang::dists`]), so the analyzer accepts the expressions the
//! translator accepts, and reports each one it rejects with the
//! translator's text at the translator's span.
//!
//! [`compile_model`] is the pipeline face: parse → [`analyze`] → prune
//! dead branches → translate. Analyzer errors become structured
//! [`LangError`]s with source spans; dead branches are pruned before
//! translation by *gutting* their bodies while keeping the guard
//! expressions, so the translator builds the exact same branch events
//! and every query answer is bit-identical to the unpruned compile.
//!
//! ```
//! use sppl_analyze::check;
//!
//! let diags = check("X ~ normal(0, 1)\ncondition(X > 1 and X < 0)");
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].code.as_str(), "E004");
//! ```

#![forbid(unsafe_code)]

mod cache;
mod env;
mod eval;
mod pmap;
mod sat;
mod walk;

pub use cache::{ast_digest, source_text_digest, CompileCache, CompileCacheStats};

use std::collections::HashSet;

use sppl_core::{Factory, Model};
use sppl_lang::ast::Program;

// Re-export the diagnostic vocabulary so downstream users need only this
// crate for linting.
pub use sppl_lang::diagnostics::{Diagnostic, LangError, LintCode, Severity, Span};

use walk::{VoteKind, Walker};

/// The result of analyzing a program.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// All diagnostics, sorted by source position then code, deduplicated.
    pub diagnostics: Vec<Diagnostic>,
    /// The program with provably-dead branch bodies emptied (guards are
    /// kept, so translation is answer-preserving to the bit). Identical
    /// to the input when nothing could be pruned; only used for
    /// translation when the analysis produced no errors.
    pub pruned: Program,
}

impl Analysis {
    /// True when no error-severity diagnostic was produced.
    pub fn is_clean(&self) -> bool {
        self.first_error().is_none()
    }

    /// The first error-severity diagnostic in source order, if any.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
    }
}

/// Runs the full analysis over a parsed program.
pub fn analyze(program: &Program) -> Analysis {
    let mut w = Walker::new();
    w.exec_all(&program.commands);
    for (name, span) in w.unused_consts() {
        w.diags.push(Diagnostic::new(
            LintCode::UnusedVariable,
            span,
            format!("variable `{name}` is assigned but never used"),
        ));
    }
    // Vote-based lints: a program point inside a loop is visited once per
    // unrolled iteration; these lints require every visit to agree.
    let votes: Vec<_> = w.votes.iter().map(|(k, f)| (*k, *f)).collect();
    let mut prunable: HashSet<walk::VoteKey> = HashSet::new();
    for (key, fate) in votes {
        if fate.visits == 0 || fate.yes != fate.visits {
            continue;
        }
        let (span, idx, kind) = key;
        match kind {
            VoteKind::ArmDead => {
                w.diags.push(Diagnostic::new(
                    LintCode::DeadBranch,
                    span,
                    "branch guard is disjoint from the inferred support",
                ));
                if fate.removable {
                    prunable.insert(key);
                }
            }
            VoteKind::ElseDead => {
                w.diags.push(Diagnostic::new(
                    LintCode::DeadBranch,
                    span,
                    "else branch is unreachable: the arm guards cover the whole support",
                ));
                if fate.removable {
                    prunable.insert(key);
                }
            }
            VoteKind::CaseDead => {
                w.diags.push(Diagnostic::new(
                    LintCode::DeadBranch,
                    span,
                    format!("switch case #{idx} is disjoint from the subject's support"),
                ));
            }
            VoteKind::Taut => {
                w.diags.push(Diagnostic::new(
                    LintCode::TautologicalGuard,
                    span,
                    "branch guard is statically always true; later branches are unreachable",
                ));
            }
            VoteKind::Trivial => {
                w.diags.push(Diagnostic::new(
                    LintCode::TrivialCondition,
                    span,
                    "condition is statically always true and has no effect",
                ));
            }
        }
    }
    w.diags.sort_by(|a, b| {
        let key = |d: &Diagnostic| {
            (
                d.span.line,
                d.span.col,
                d.span.end_line,
                d.span.end_col,
                d.code,
                d.message.clone(),
            )
        };
        key(a).cmp(&key(b))
    });
    w.diags.dedup();
    let pruned = Program {
        commands: walk::prune_commands(&program.commands, &|key| prunable.contains(key)),
    };
    Analysis {
        diagnostics: w.diags,
        pruned,
    }
}

/// Parses and analyzes `source`, returning every diagnostic. A syntax
/// error is reported as a single `E000` diagnostic.
pub fn check(source: &str) -> Vec<Diagnostic> {
    match sppl_lang::parse(source) {
        Ok(program) => analyze(&program).diagnostics,
        Err(e) => vec![Diagnostic::new(LintCode::Syntax, e.span, e.message)],
    }
}

/// Parses, analyzes, prunes, and translates a program into a fresh,
/// ready-to-query [`Model`] session. The analyzer runs first: malformed
/// programs fail here with a span-carrying [`LangError`] (message
/// prefixed by the lint code) instead of panicking or failing deep
/// inside translation, and the bodies of branches the analyzer proved
/// dead are pruned before translation (bit-identically — see
/// [`Analysis::pruned`]).
///
/// Every call parses, analyzes and translates from scratch, into a
/// fresh factory. A [`CompileCache`] skips translation for a program it
/// has seen, in this process or, with a directory, in an earlier one.
///
/// # Errors
///
/// Returns [`LangError`] for syntax errors, analyzer errors
/// (`E001`–`E008`), restriction violations (R1–R4), or inference
/// failures during translation (e.g. conditioning on a
/// zero-probability event).
///
/// ```
/// use sppl_analyze::compile_model;
/// use sppl_core::prelude::*;
///
/// let model = compile_model("X ~ normal(0, 1)\nZ = X**2 + 1").unwrap();
/// // Z ≤ 2 ⇔ X² ≤ 1.
/// assert!((model.prob(&var("Z").le(2.0)).unwrap() - 0.6826894921370859).abs() < 1e-9);
///
/// // Malformed programs fail with a structured, span-carrying error.
/// let err = compile_model("X ~ normal(0, 1)\ncondition(X > 2 and X < 1)").unwrap_err();
/// assert_eq!(err.span.line, 2);
/// assert!(err.message.starts_with("[E004]"));
/// ```
pub fn compile_model(source: &str) -> Result<Model, LangError> {
    let program = sppl_lang::parse(source)?;
    let analysis = analyze(&program);
    if let Some(d) = analysis.first_error() {
        return Err(d.clone().into());
    }
    let factory = Factory::new();
    let root = sppl_lang::translate(&factory, &analysis.pruned)?;
    Ok(Model::new(factory, root))
}

/// Lets `Model::compile(source)` read naturally at call sites: the trait
/// exists only because [`Model`] lives in `sppl-core` (which cannot
/// depend on the parser or this analyzer), and is implemented exactly
/// once, for `Model`. Bring it into scope (it is in the `sppl::prelude`)
/// and compile SPPL source — analyzer included — straight into a
/// session.
pub trait CompileModel: Sized {
    /// Parses, analyzes, and translates `source` into a fresh session —
    /// see [`compile_model`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`compile_model`].
    ///
    /// ```
    /// use sppl_core::prelude::*;
    /// use sppl_analyze::CompileModel;
    ///
    /// let model = Model::compile("X ~ normal(0, 1)").unwrap();
    /// assert!((model.prob(&var("X").le(0.0)).unwrap() - 0.5).abs() < 1e-12);
    /// ```
    fn compile(source: &str) -> Result<Self, LangError>;
}

impl CompileModel for Model {
    fn compile(source: &str) -> Result<Model, LangError> {
        compile_model(source)
    }
}
