//! The SPPL surface language: lexer, parser, translator, and reverse
//! translation (Sec. 5, Lst. 2–4, Appx. E of the paper).
//!
//! Programs are imperative generative models:
//!
//! ```text
//! Nationality ~ choice({'India': 0.5, 'USA': 0.5})
//! if (Nationality == 'India') {
//!     Perfect ~ bernoulli(0.10)
//!     if (Perfect == 1) { GPA ~ atomic(10) }
//!     else              { GPA ~ uniform(0, 10) }
//! } else {
//!     Perfect ~ bernoulli(0.15)
//!     if (Perfect == 1) { GPA ~ atomic(4) }
//!     else              { GPA ~ uniform(0, 4) }
//! }
//! ```
//!
//! [`parse`] produces an AST, [`translate()`] lowers it to a sum-product
//! expression (`→SPE`, Lst. 3), and [`untranslate()`] renders any SPE back
//! into SPPL source (`→SPPL`, Lst. 8) such that retranslating preserves
//! the distribution (Eq. 46).
//!
//! What an expression means is defined once, for the translator and the
//! static analyzer in `sppl-analyze` alike: [`eval`] is the one walk over
//! an expression, which both passes run with their own [`eval::Scope`];
//! [`dists`] holds the distribution family table, and [`ops`] the
//! operations on constants and random values. A failure reads the same
//! in both passes.
//!
//! # Example
//!
//! ```
//! use sppl_core::prelude::*;
//! use sppl_lang::compile;
//!
//! let f = Factory::new();
//! let model = compile(&f, "X ~ normal(0, 1)\nZ = X**2 + 1").unwrap();
//! let e = Event::le(Transform::id(Var::new("Z")), 2.0); // Z ≤ 2 ⇔ X² ≤ 1
//! assert!((model.prob(&e).unwrap() - 0.6826894921370859).abs() < 1e-9);
//! ```

pub mod ast;
pub mod diagnostics;
pub mod dists;
pub mod eval;
pub mod lexer;
pub mod ops;
pub mod parser;
pub mod translate;
pub mod untranslate;

pub use ast::{BinOp, CmpOp, Command, Expr, Program, Target, UnOp};
pub use diagnostics::{Diagnostic, LangError, LintCode, Severity, Span};
pub use parser::parse;
pub use translate::translate;
pub use untranslate::untranslate;

use sppl_core::{Factory, Spe, SpplError};

/// Parses and translates a program in one call.
///
/// This is the low-level surface: it hands back a bare expression
/// interned in *your* factory, and it does **not** run the static
/// analyzer. Most applications want `sppl_analyze::compile_model` (or
/// `Model::compile` via the `CompileModel` trait there), which lints
/// the program first and returns a ready-to-query session instead.
///
/// # Errors
///
/// Returns [`LangError`] for syntax errors, restriction violations
/// (R1–R4), or inference failures during translation (e.g. conditioning
/// on a zero-probability event).
pub fn compile(factory: &Factory, source: &str) -> Result<Spe, LangError> {
    let program = parse(source)?;
    translate(factory, &program)
}

impl From<SpplError> for LangError {
    fn from(err: SpplError) -> LangError {
        LangError::new(Span::unknown(), format!("inference error: {err}"))
    }
}
