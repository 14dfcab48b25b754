//! Abstract expression evaluation. Every operation on constants and
//! random values, and every distribution call, is evaluated by the
//! translator's own functions (`sppl_lang::ops`, `sppl_lang::dists`);
//! this module adds what only the analyzer knows. A value can be unknown
//! ([`AbsValue::Top`]), a failed operation becomes a catalogued
//! [`LintCode`] diagnostic with the translator's text or a silent `Top`,
//! and a partial transform is checked against the inferred support of
//! its argument (`W104`).

use sppl_core::event::Event;
use sppl_core::transform::Transform;
use sppl_core::var::Var;
use sppl_lang::ast::{BinOp, CmpOp, Expr, UnOp};
use sppl_lang::diagnostics::{LintCode, Span};
use sppl_lang::dists::Family;
use sppl_lang::ops::{self, EvalError, Link, Partial, Value};
use sppl_sets::{Interval, OutcomeSet};

use crate::env::ConstVal;
use crate::walk::Walker;

/// The analyzer's counterpart of the translator's `Evaluated`.
#[derive(Debug, Clone)]
pub(crate) enum AbsValue {
    /// A known compile-time constant.
    Const(Value),
    /// A transform of random variables (not yet resolved to base vars).
    Rv(Transform),
    /// A distribution whose samples lie in the given support.
    Dist(OutcomeSet),
    /// A predicate.
    Event(Event),
    /// Unknown value (lost at a join, or a form the analyzer does not
    /// model); suppresses all downstream diagnostics.
    Top,
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

impl Walker {
    pub(crate) fn eval(&mut self, expr: &Expr) -> AbsValue {
        match expr {
            Expr::Num(n, _) => AbsValue::Const(Value::Num(*n)),
            Expr::Str(s, _) => AbsValue::Const(Value::Str(s.clone())),
            Expr::Bool(b, _) => AbsValue::Const(Value::Bool(*b)),
            Expr::Ident(name, span) => self.eval_ident(name, *span),
            Expr::List(items, _) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    match self.eval(item) {
                        AbsValue::Const(v) => out.push(v),
                        _ => return AbsValue::Top,
                    }
                }
                AbsValue::Const(Value::List(out))
            }
            Expr::Dict(..) => AbsValue::Top,
            Expr::Index(recv, idx, span) => self.eval_index(recv, idx, *span),
            Expr::Call {
                func,
                args,
                kwargs,
                span,
            } => self.eval_call(func, args, kwargs, *span),
            Expr::MethodCall { recv, method, .. } => self.eval_method(recv, method),
            Expr::Unary(op, inner, _) => {
                let v = self.eval(inner);
                match (op, v) {
                    (UnOp::Neg, AbsValue::Const(Value::Num(n))) => AbsValue::Const(Value::Num(-n)),
                    (UnOp::Neg, AbsValue::Rv(t)) => AbsValue::Rv(t.neg()),
                    (UnOp::Not, v) => match self.coerce_event(v) {
                        Some(e) => AbsValue::Event(e.negate()),
                        None => AbsValue::Top,
                    },
                    (_, _) => AbsValue::Top,
                }
            }
            Expr::Binary(op, lhs, rhs, span) => {
                let a = self.eval(lhs);
                let b = self.eval(rhs);
                self.eval_binary(*op, a, b, *span)
            }
            Expr::Compare(first, chain, span) => self.eval_compare(first, chain, *span),
        }
    }

    /// Use of a name: constants, random variables, then use-before-define.
    fn eval_ident(&mut self, name: &str, span: Span) -> AbsValue {
        if let Some(c) = self.env.consts.get(name).cloned() {
            self.mark_used(name);
            return match c {
                ConstVal::Known(v) => AbsValue::Const(v),
                ConstVal::Unknown => AbsValue::Top,
            };
        }
        if self.env.is_defined(name) || self.env.maybe_rvs.contains(name) {
            return AbsValue::Rv(Transform::id(Var::new(name)));
        }
        if self.env.arrays.contains_key(name) {
            self.diag(
                LintCode::UseBeforeDefine,
                span,
                format!("array `{name}` cannot be used without an index"),
            );
            return AbsValue::Top;
        }
        self.diag(
            LintCode::UseBeforeDefine,
            span,
            format!("use of undefined variable `{name}`"),
        );
        AbsValue::Top
    }

    fn eval_index(&mut self, recv: &Expr, idx: &Expr, span: Span) -> AbsValue {
        if let Expr::Ident(name, _) = recv {
            if self.env.arrays.contains_key(name) {
                return match self.element_name(name, idx, span) {
                    Some(element) => {
                        if self.env.is_defined(&element)
                            || self.env.maybe_rvs.contains(&element)
                            || self.env.havoc_arrays.contains(name)
                        {
                            AbsValue::Rv(Transform::id(Var::new(&element)))
                        } else {
                            self.diag(
                                LintCode::UseBeforeDefine,
                                span,
                                format!("array element {element} is not yet sampled"),
                            );
                            AbsValue::Top
                        }
                    }
                    None => AbsValue::Top,
                };
            }
        }
        // Constant list indexing.
        let list = match self.eval(recv) {
            AbsValue::Const(Value::List(vs)) => vs,
            _ => return AbsValue::Top,
        };
        match self.eval(idx) {
            AbsValue::Const(Value::Num(n)) if n.fract() == 0.0 => {
                let i = n as i64;
                if i < 0 || i as usize >= list.len() {
                    self.diag(
                        LintCode::IndexOutOfBounds,
                        span,
                        format!("index {i} out of bounds (len {})", list.len()),
                    );
                    return AbsValue::Top;
                }
                AbsValue::Const(list[i as usize].clone())
            }
            _ => AbsValue::Top,
        }
    }

    /// Resolves `name[idx]` to the element's variable name, checking
    /// declared bounds. `None` when the index is unknown (the enclosing
    /// array is marked havoc so element accesses stay permissive).
    pub(crate) fn element_name(&mut self, name: &str, idx: &Expr, span: Span) -> Option<String> {
        let size = *self.env.arrays.get(name)?;
        match self.eval(idx) {
            AbsValue::Const(Value::Num(n)) if n.fract() == 0.0 => {
                let i = n as i64;
                if let Some(size) = size {
                    if i < 0 || i as usize >= size {
                        self.diag(
                            LintCode::IndexOutOfBounds,
                            span,
                            format!("index {i} out of bounds for array {name} of size {size}"),
                        );
                        return None;
                    }
                }
                Some(format!("{name}[{i}]"))
            }
            _ => {
                self.env.havoc_arrays.insert(name.to_string());
                None
            }
        }
    }

    fn eval_method(&mut self, recv: &Expr, method: &str) -> AbsValue {
        match self.eval(recv) {
            AbsValue::Const(v) => ops::method(&v, method).map_or(AbsValue::Top, AbsValue::Const),
            _ => AbsValue::Top,
        }
    }

    fn eval_binary(&mut self, op: BinOp, a: AbsValue, b: AbsValue, span: Span) -> AbsValue {
        use AbsValue::{Const, Rv};
        match op {
            BinOp::And | BinOp::Or => {
                let (Some(ea), Some(eb)) = (self.coerce_event(a), self.coerce_event(b)) else {
                    return AbsValue::Top;
                };
                AbsValue::Event(match op {
                    BinOp::And => Event::and(vec![ea, eb]),
                    _ => Event::or(vec![ea, eb]),
                })
            }
            _ => match (a, b) {
                (Const(Value::Num(x)), Const(Value::Num(y))) => {
                    let v = ops::arith(op, x, y);
                    self.settle(v, span)
                        .map_or(AbsValue::Top, |v| Const(Value::Num(v)))
                }
                (Rv(t), Const(Value::Num(c))) => {
                    self.partial_op(t.clone(), ops::rv_const_op(op, t, c, false), span)
                }
                (Const(Value::Num(c)), Rv(t)) => {
                    self.partial_op(t.clone(), ops::rv_const_op(op, t, c, true), span)
                }
                (Rv(ta), Rv(tb)) => ops::rv_rv_op(op, ta, tb).map_or(AbsValue::Top, Rv),
                _ => AbsValue::Top,
            },
        }
    }

    /// The value of a shared operation, or `None` after the diagnostic
    /// its error earns: `E007` for a non-finite constant, none otherwise
    /// (the translator reports the rest with its own message).
    fn settle<T>(&mut self, r: Result<T, EvalError>, span: Span) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(EvalError::NonFinite(msg)) => {
                self.diag(LintCode::NonFiniteConstant, span, msg);
                None
            }
            Err(_) => None,
        }
    }

    /// The result of a transform of the random value `t`, after the
    /// `W104` check of where the transform is undefined.
    fn partial_op(
        &mut self,
        t: Transform,
        r: Result<(Transform, Option<Partial>), EvalError>,
        span: Span,
    ) -> AbsValue {
        let Ok((out, partial)) = r else {
            return AbsValue::Top;
        };
        if let Some(partial) = partial {
            let (bad, what) = undefined_at(partial);
            self.check_domain(&t, bad, what, span);
        }
        AbsValue::Rv(out)
    }

    /// `W104`: warn when a partial transform is applied to a value whose
    /// inferred support overlaps the transform's undefined/bad region.
    fn check_domain(&mut self, t: &Transform, bad: OutcomeSet, what: &str, span: Span) {
        let resolved = self.env.resolve_transform(t);
        if let Some(v) = resolved.the_var() {
            let overlap = resolved
                .preimage(&bad)
                .intersection(&self.env.support_of(v.name()));
            if !overlap.is_empty() {
                self.diag(LintCode::InvalidTransformDomain, span, what);
            }
        }
    }

    fn eval_compare(&mut self, first: &Expr, chain: &[(CmpOp, Expr)], span: Span) -> AbsValue {
        let mut operands = vec![self.eval(first)];
        for (_, e) in chain {
            operands.push(self.eval(e));
        }
        let links = chain
            .iter()
            .enumerate()
            .map(|(i, (op, _))| self.compare_pair(*op, &operands[i], &operands[i + 1], span))
            .collect::<Option<Vec<_>>>();
        match links.map(ops::chain) {
            Some(Some(e)) => AbsValue::Event(e),
            Some(None) => AbsValue::Const(Value::Bool(true)),
            None => AbsValue::Top,
        }
    }

    fn compare_pair(
        &mut self,
        op: CmpOp,
        lhs: &AbsValue,
        rhs: &AbsValue,
        span: Span,
    ) -> Option<Link> {
        use AbsValue::{Const, Rv};
        match (lhs, rhs) {
            (Const(a), Const(b)) => ops::static_compare(op, a, b).ok().map(Link::Static),
            (Rv(t), Const(v)) => {
                let e = ops::rv_compare(op, t, v, false);
                self.settle(e, span).map(Link::Event)
            }
            (Const(v), Rv(t)) => {
                let e = ops::rv_compare(op, t, v, true);
                self.settle(e, span).map(Link::Event)
            }
            _ => None,
        }
    }

    fn eval_call(
        &mut self,
        func: &str,
        args: &[Expr],
        kwargs: &[(String, Expr)],
        span: Span,
    ) -> AbsValue {
        if ops::is_math(func) {
            if args.len() != 1 || !kwargs.is_empty() {
                return AbsValue::Top;
            }
            return match self.eval(&args[0]) {
                AbsValue::Const(Value::Num(x)) => {
                    let v = ops::math_const(func, x);
                    self.settle(v, span)
                        .map_or(AbsValue::Top, |v| AbsValue::Const(Value::Num(v)))
                }
                AbsValue::Rv(t) => self.partial_op(t.clone(), ops::math_rv(func, t), span),
                _ => AbsValue::Top,
            };
        }
        match func {
            "range" => {
                let (lo, hi) = match args.len() {
                    1 => (Some(0), self.eval_integer(&args[0])),
                    2 => (self.eval_integer(&args[0]), self.eval_integer(&args[1])),
                    _ => return AbsValue::Top,
                };
                let (Some(lo), Some(hi)) = (lo, hi) else {
                    return AbsValue::Top;
                };
                if hi < lo {
                    return AbsValue::Top;
                }
                AbsValue::Const(Value::List(
                    (lo..hi).map(|i| Value::Num(i as f64)).collect(),
                ))
            }
            "binspace" => {
                let mut bounds = Vec::new();
                for a in args {
                    match self.eval_number(a) {
                        Some(Some(v)) => bounds.push(v),
                        _ => return AbsValue::Top,
                    }
                }
                let mut n = None;
                for (k, v) in kwargs {
                    match self.eval_number(v) {
                        Some(Some(v)) if k == "n" => n = Some(v),
                        _ => return AbsValue::Top,
                    }
                }
                ops::binspace(&bounds, n).map_or(AbsValue::Top, AbsValue::Const)
            }
            "array" => AbsValue::Top,
            _ => self.eval_distribution(func, args, kwargs, span),
        }
    }

    /// Evaluates an expression expected to be a constant number.
    /// `Some(Some(v))` known, `Some(None)` unknown, `None` invalid
    /// (non-numeric or random — an R4 violation for parameters).
    fn eval_number(&mut self, e: &Expr) -> Option<Option<f64>> {
        match self.eval(e) {
            AbsValue::Const(Value::Num(n)) => Some(Some(n)),
            AbsValue::Top => Some(None),
            _ => None,
        }
    }

    pub(crate) fn eval_integer(&mut self, e: &Expr) -> Option<i64> {
        match self.eval(e) {
            AbsValue::Const(Value::Num(n)) if n.fract() == 0.0 => Some(n as i64),
            _ => None,
        }
    }

    fn eval_distribution(
        &mut self,
        func: &str,
        args: &[Expr],
        kwargs: &[(String, Expr)],
        span: Span,
    ) -> AbsValue {
        let mut pos = Vec::new();
        let mut dict = None;
        let mut r4_violation = false;
        for a in args {
            if let Expr::Dict(items, _) = a {
                let mut pairs = Vec::new();
                for (k, v) in items {
                    let key = match self.eval(k) {
                        AbsValue::Const(c) => c,
                        _ => return AbsValue::Top,
                    };
                    let w = self.eval_number(v).unwrap_or_else(|| {
                        r4_violation = true;
                        None
                    });
                    pairs.push((key, w));
                }
                dict = Some(pairs);
            } else {
                pos.push(self.eval_param(a, &mut r4_violation));
            }
        }
        let mut named = Vec::new();
        for (k, v) in kwargs {
            named.push((k.as_str(), self.eval_param(v, &mut r4_violation)));
        }
        let family = match Family::named(func) {
            Ok(family) => family,
            Err(e) => {
                self.diag(LintCode::UseBeforeDefine, span, e.to_string());
                return AbsValue::Top;
            }
        };
        match family.build(&pos, &named, dict.as_deref()) {
            Ok(spec) => AbsValue::Dist(spec.support()),
            Err(e) => {
                if !r4_violation && e != EvalError::Unknown {
                    self.diag(LintCode::InvalidParameter, span, e.to_string());
                }
                AbsValue::Dist(family.widest_support())
            }
        }
    }

    /// A distribution parameter, `None` when unknown; a random or
    /// non-numeric one violates R4.
    fn eval_param(&mut self, e: &Expr, r4_violation: &mut bool) -> Option<f64> {
        self.eval_number(e).unwrap_or_else(|| {
            self.diag(
                LintCode::InvalidParameter,
                e.span(),
                "distribution parameters must be compile-time constants (R4)",
            );
            *r4_violation = true;
            None
        })
    }

    /// Coerces a value to a predicate by the translator's truthiness
    /// rules. `None` when unknown.
    pub(crate) fn coerce_event(&mut self, v: AbsValue) -> Option<Event> {
        match v {
            AbsValue::Event(e) => Some(e),
            AbsValue::Const(c) => ops::const_truth(&c),
            AbsValue::Rv(t) => Some(ops::rv_truth(t)),
            _ => None,
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
