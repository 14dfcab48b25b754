//! The analyzer's scope for the one expression evaluator
//! ([`sppl_lang::eval`]), which the translator also runs. A name means
//! what the abstract environment says, and a constant it lost at a join
//! is unknown; every failure becomes a diagnostic under the quiet and
//! branch-context policies, and evaluation goes on; a partial transform
//! is checked against the inferred support of its argument (`W104`).

use std::convert::Infallible;

use sppl_core::transform::Transform;
use sppl_lang::diagnostics::{LintCode, Span};
use sppl_lang::eval::{Scope, Val};
use sppl_lang::ops::Partial;
use sppl_sets::{Interval, OutcomeSet};

use crate::env::ConstVal;
use crate::walk::Walker;

/// A result of the evaluator under the analyzer's scope, which goes on
/// after every failure and so never stops.
pub(crate) fn unstopped<T>(r: Result<T, Infallible>) -> T {
    r.unwrap_or_else(|never| match never {})
}

/// The `W104` check of a partial transform: the argument values where it
/// is undefined, and the message when the argument may take one.
fn undefined_at(partial: Partial) -> (OutcomeSet, &'static str) {
    let negative = || OutcomeSet::from(Interval::below(0.0, false).expect("0 is a valid bound"));
    match partial {
        Partial::Recip => (
            OutcomeSet::real_point(0.0),
            "division by a possibly zero random value",
        ),
        Partial::Sqrt => (negative(), "sqrt of a possibly negative random value"),
        Partial::EvenRoot => (negative(), "even root of a possibly negative random value"),
        Partial::Log => (
            OutcomeSet::from(Interval::below(0.0, true).expect("0 is a valid bound")),
            "log of a possibly non-positive random value",
        ),
    }
}

impl Scope for Walker {
    type Stop = Infallible;

    fn lookup(&mut self, name: &str) -> Option<Val> {
        if let Some(c) = self.env.consts.get(name).cloned() {
            self.mark_used(name);
            return Some(match c {
                ConstVal::Known(v) => Val::Const(v),
                ConstVal::Unknown => Val::Unknown,
            });
        }
        (self.env.is_defined(name) || self.env.maybe_rvs.contains(name))
            .then(|| Val::Rv(Transform::id(name)))
    }

    fn array(&self, name: &str) -> Option<Option<usize>> {
        self.env.arrays.get(name).copied()
    }

    fn sampled(&self, array: &str, element: &str) -> bool {
        self.env.is_defined(element)
            || self.env.maybe_rvs.contains(element)
            || self.env.havoc_arrays.contains(array)
    }

    fn fail(&mut self, code: LintCode, span: Span, message: String) -> Result<(), Infallible> {
        self.diag(code, span, message);
        Ok(())
    }

    /// An element access with an unknown index makes the array havoc, so
    /// its element accesses stay permissive.
    fn unknown_index(&mut self, array: &str) {
        self.env.havoc_arrays.insert(array.to_string());
    }

    /// `W104`: warns when the inferred support of `operand` overlaps
    /// where the transform is undefined.
    fn partial(&mut self, operand: &Transform, partial: Partial, span: Span) {
        let (bad, what) = undefined_at(partial);
        let resolved = self.env.resolve_transform(operand);
        if let Some(v) = resolved.the_var() {
            let overlap = resolved
                .preimage(&bad)
                .intersection(&self.env.support_of(v.name()));
            if !overlap.is_empty() {
                self.diag(LintCode::InvalidTransformDomain, span, what);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_large_integer_support_is_its_interval_hull() {
        let program = sppl_lang::parse("X ~ randint(0, 10000000)").expect("parses");
        let mut w = Walker::new();
        w.exec_all(&program.commands);
        assert!(w.diags.is_empty(), "{:?}", w.diags);
        assert_eq!(
            w.env.support_of("X"),
            OutcomeSet::from(Interval::closed(0.0, 1e7))
        );
    }
}
