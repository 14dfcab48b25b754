//! The meaning of an expression: one walk over [`Expr`] that the
//! translator and the static analyzer in `sppl-analyze` both run, so a
//! program means the same to both passes and a rejected expression is
//! rejected with the same text, at the same span.
//!
//! A pass supplies a [`Scope`]: what a name or an array element means at
//! this point, and what becomes of a failure. The translator stops at the
//! first failure and returns it as its `LangError`; the analyzer records
//! every failure as a diagnostic and goes on with [`Val::Unknown`], the
//! value its scope also gives a constant it lost at a join. An unknown
//! operand makes an unknown result, and no verdict.
//!
//! The operations on values are [`crate::ops`], and a distribution call
//! is built by the family table in [`crate::dists`].

use sppl_core::event::Event;
use sppl_core::transform::Transform;

use crate::ast::{BinOp, CmpOp, Expr, Target, UnOp};
use crate::diagnostics::{LintCode, Span};
use crate::dists::{DistSpec, Family};
use crate::ops::{self, invalid, EvalError, Link, Partial, Value};

/// The value of an expression.
#[derive(Debug, Clone)]
pub enum Val {
    /// A compile-time constant.
    Const(Value),
    /// A transform of random variables.
    Rv(Transform),
    /// A distribution, the right-hand side of `~`.
    Dist(DistSpec),
    /// A distribution call whose parameters are not all known and valid:
    /// only its family is known, which a sample reads. As an operand it
    /// is unknown.
    Family(Family),
    /// A predicate.
    Event(Event),
    /// A value the analyzer does not know: a constant lost at a join, or
    /// the value of an expression whose failure it reported.
    Unknown,
}

/// What a pass tells the evaluator about the program point it is at.
pub trait Scope {
    /// What stops an evaluation at a failure.
    type Stop;

    /// The value `name` has here, a constant or a random variable;
    /// `None` when it has none.
    fn lookup(&mut self, name: &str) -> Option<Val>;

    /// The size of the array `name` declares: `None` when it declares
    /// none, `Some(None)` when its size is not known.
    fn array(&self, name: &str) -> Option<Option<usize>>;

    /// Whether `element` of `array` has been sampled.
    fn sampled(&self, array: &str, element: &str) -> bool;

    /// Receives a failure with its lint code. `Err` stops the evaluation;
    /// `Ok` goes on, and the failed expression's value is unknown.
    fn fail(&mut self, code: LintCode, span: Span, message: String) -> Result<(), Self::Stop>;

    /// An element of `array` was named with an index that is not known.
    fn unknown_index(&mut self, _array: &str) {}

    /// A transform of `operand` is built at `span` that is undefined
    /// where `partial` says.
    fn partial(&mut self, _operand: &Transform, _partial: Partial, _span: Span) {}
}

type Eval<S> = Result<Val, <S as Scope>::Stop>;

/// The message both passes give a distribution parameter that is not a
/// constant number.
const NOT_CONSTANT: &str = "distribution parameters must be compile-time constants (R4)";

/// The value of `expr`.
pub fn eval<S: Scope>(scope: &mut S, expr: &Expr) -> Eval<S> {
    match expr {
        Expr::Num(n, _) => Ok(Val::Const(Value::Num(*n))),
        Expr::Str(s, _) => Ok(Val::Const(Value::Str(s.clone()))),
        Expr::Bool(b, _) => Ok(Val::Const(Value::Bool(*b))),
        Expr::Ident(name, span) => match scope.lookup(name) {
            Some(v) => Ok(v),
            None if scope.array(name).is_some() => failed(
                scope,
                LintCode::UseBeforeDefine,
                *span,
                format!("array `{name}` cannot be used without an index"),
            ),
            None => failed(
                scope,
                LintCode::UseBeforeDefine,
                *span,
                format!("use of undefined variable `{name}`"),
            ),
        },
        Expr::List(items, _) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                match operand(scope, item)? {
                    Val::Const(v) => out.push(v),
                    Val::Unknown => return Ok(Val::Unknown),
                    other => {
                        let message = format!("list elements must be constants, got {other:?}");
                        return rejected(scope, item.span(), message);
                    }
                }
            }
            Ok(Val::Const(Value::List(out)))
        }
        Expr::Dict(_, span) => rejected(
            scope,
            *span,
            "dict literals are only valid as the argument of choice(...) or discrete(...)",
        ),
        Expr::Index(recv, idx, span) => index(scope, recv, idx, *span),
        Expr::Call {
            func,
            args,
            kwargs,
            span,
        } => call(scope, func, args, kwargs, *span),
        Expr::MethodCall {
            recv, method, span, ..
        } => {
            let r = operand(scope, recv)?;
            let out = match &r {
                Val::Const(v) => ops::method(v, method),
                _ => None,
            };
            match (out, r) {
                (Some(v), _) => Ok(Val::Const(v)),
                (None, Val::Unknown) => Ok(Val::Unknown),
                (None, r) => rejected(scope, *span, format!("unknown method .{method}() on {r:?}")),
            }
        }
        Expr::Unary(op, inner, span) => match (op, operand(scope, inner)?) {
            (_, Val::Unknown) => Ok(Val::Unknown),
            (UnOp::Neg, Val::Const(Value::Num(n))) => Ok(Val::Const(Value::Num(-n))),
            (UnOp::Neg, Val::Rv(t)) => Ok(Val::Rv(t.neg())),
            (UnOp::Not, v) => {
                Ok(truth(scope, v, *span)?.map_or(Val::Unknown, |e| Val::Event(e.negate())))
            }
            (op, v) => rejected(scope, *span, format!("cannot apply {op:?} to {v:?}")),
        },
        Expr::Binary(op, lhs, rhs, span) => {
            let a = operand(scope, lhs)?;
            let b = operand(scope, rhs)?;
            binary(scope, *op, a, b, *span)
        }
        Expr::Compare(first, chain, span) => {
            let mut operands = vec![operand(scope, first)?];
            for (_, e) in chain {
                operands.push(operand(scope, e)?);
            }
            let links = chain
                .iter()
                .enumerate()
                .map(|(i, (op, _))| link(scope, *op, &operands[i], &operands[i + 1], *span))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(match links.into_iter().collect::<Option<Vec<_>>>() {
                Some(links) => ops::chain(links).map_or(Val::Const(Value::Bool(true)), Val::Event),
                None => Val::Unknown,
            })
        }
    }
}

/// The value of `expr` as an operand. A distribution call known only by
/// its family is unknown there: its own failure, if it has one, is the
/// verdict.
fn operand<S: Scope>(scope: &mut S, expr: &Expr) -> Eval<S> {
    match eval(scope, expr)? {
        Val::Family(_) => Ok(Val::Unknown),
        v => Ok(v),
    }
}

/// `expr` as a predicate. `None` when it is unknown, or after its failure.
pub fn event<S: Scope>(scope: &mut S, expr: &Expr) -> Result<Option<Event>, S::Stop> {
    let v = operand(scope, expr)?;
    truth(scope, v, expr.span())
}

/// `expr` as a constant integer. `None` when it is unknown, or after its
/// failure.
pub fn integer<S: Scope>(scope: &mut S, expr: &Expr) -> Result<Option<i64>, S::Stop> {
    match operand(scope, expr)? {
        Val::Const(Value::Num(n)) if n.fract() == 0.0 => Ok(Some(n as i64)),
        Val::Unknown => Ok(None),
        other => {
            rejected(
                scope,
                expr.span(),
                format!("expected a constant integer, got {other:?}"),
            )?;
            Ok(None)
        }
    }
}

/// The variable a `=` or `~` at `span` defines: `X`, or the element
/// `X[i]` by the index rule of a read. `None` when the index is unknown,
/// or after its failure.
pub fn target<S: Scope>(
    scope: &mut S,
    target: &Target,
    span: Span,
) -> Result<Option<String>, S::Stop> {
    match target {
        Target::Var(name) => Ok(Some(name.clone())),
        Target::Indexed(name, idx) => element(scope, name, idx, span),
    }
}

/// The element `array[idx]`, after the checks that the array is declared
/// and the index is in bounds.
fn element<S: Scope>(
    scope: &mut S,
    array: &str,
    idx: &Expr,
    span: Span,
) -> Result<Option<String>, S::Stop> {
    let Some(size) = scope.array(array) else {
        let message = format!("array {array} is not declared (use {array} = array(n))");
        scope.fail(LintCode::UseBeforeDefine, span, message)?;
        return Ok(None);
    };
    let Some(i) = integer(scope, idx)? else {
        scope.unknown_index(array);
        return Ok(None);
    };
    match size {
        Some(size) if i < 0 || i as usize >= size => {
            let message = format!("index {i} out of bounds for array {array} of size {size}");
            scope.fail(LintCode::IndexOutOfBounds, span, message)?;
            Ok(None)
        }
        _ => Ok(Some(format!("{array}[{i}]"))),
    }
}

/// `recv[idx]`: a sampled element of a declared array, or an item of a
/// constant list.
fn index<S: Scope>(scope: &mut S, recv: &Expr, idx: &Expr, span: Span) -> Eval<S> {
    if let Expr::Ident(name, _) = recv {
        if scope.array(name).is_some() {
            let Some(element) = element(scope, name, idx, span)? else {
                return Ok(Val::Unknown);
            };
            if scope.sampled(name, &element) {
                return Ok(Val::Rv(Transform::id(element.as_str())));
            }
            let message = format!("array element {element} is not yet sampled");
            return failed(scope, LintCode::UseBeforeDefine, span, message);
        }
    }
    let list = match operand(scope, recv)? {
        Val::Const(Value::List(vs)) => vs,
        Val::Unknown => return Ok(Val::Unknown),
        other => {
            let message = format!("cannot index into {other:?} (expected list or declared array)");
            return rejected(scope, span, message);
        }
    };
    let Some(i) = integer(scope, idx)? else {
        return Ok(Val::Unknown);
    };
    match usize::try_from(i).ok().and_then(|i| list.get(i)) {
        Some(v) => Ok(Val::Const(v.clone())),
        None => {
            let message = format!("index {i} out of bounds (len {})", list.len());
            failed(scope, LintCode::IndexOutOfBounds, span, message)
        }
    }
}

/// `a op b` for an arithmetic or logical operator.
fn binary<S: Scope>(scope: &mut S, op: BinOp, a: Val, b: Val, span: Span) -> Eval<S> {
    use Val::{Const, Rv};
    if matches!(op, BinOp::And | BinOp::Or) {
        let ea = truth(scope, a, span)?;
        let eb = truth(scope, b, span)?;
        let (Some(ea), Some(eb)) = (ea, eb) else {
            return Ok(Val::Unknown);
        };
        return Ok(Val::Event(match op {
            BinOp::And => Event::and(vec![ea, eb]),
            _ => Event::or(vec![ea, eb]),
        }));
    }
    match (a, b) {
        (Val::Unknown, _) | (_, Val::Unknown) => Ok(Val::Unknown),
        (Const(Value::Num(x)), Const(Value::Num(y))) => {
            let r = ops::arith(op, x, y).map(|v| Const(Value::Num(v)));
            settled(scope, r, span)
        }
        (Rv(t), Const(Value::Num(c))) => {
            let r = ops::rv_const_op(op, t, c, false, |t, p| scope.partial(t, p, span));
            settled(scope, r.map(Rv), span)
        }
        (Const(Value::Num(c)), Rv(t)) => {
            let r = ops::rv_const_op(op, t, c, true, |t, p| scope.partial(t, p, span));
            settled(scope, r.map(Rv), span)
        }
        (Rv(ta), Rv(tb)) => settled(scope, ops::rv_rv_op(op, ta, tb).map(Rv), span),
        (a, b) => {
            let message = format!("unsupported operands for {op:?}: {a:?} and {b:?}");
            rejected(scope, span, message)
        }
    }
}

/// One link `lhs op rhs` of a comparison chain. `None` when an operand
/// is unknown, or after the link's failure.
fn link<S: Scope>(
    scope: &mut S,
    op: CmpOp,
    lhs: &Val,
    rhs: &Val,
    span: Span,
) -> Result<Option<Link>, S::Stop> {
    let r = match (lhs, rhs) {
        (Val::Unknown, _) | (_, Val::Unknown) => return Ok(None),
        (Val::Const(a), Val::Const(b)) => ops::static_compare(op, a, b).map(Link::Static),
        (Val::Rv(t), Val::Const(v)) => ops::rv_compare(op, t, v, false).map(Link::Event),
        (Val::Const(v), Val::Rv(t)) => ops::rv_compare(op, t, v, true).map(Link::Event),
        (Val::Rv(_), Val::Rv(_)) => Err(invalid(
            "comparisons between two random expressions are not expressible (R3)",
        )),
        (a, b) => Err(invalid(format!("cannot compare {a:?} with {b:?}"))),
    };
    settle(scope, r, span)
}

/// The call `func(args…, key=value…)`: a math function, `range`,
/// `binspace` or a distribution.
fn call<S: Scope>(
    scope: &mut S,
    func: &str,
    args: &[Expr],
    kwargs: &[(String, Expr)],
    span: Span,
) -> Eval<S> {
    if ops::is_math(func) {
        let ([arg], []) = (args, kwargs) else {
            return rejected(scope, span, format!("{func}(x) takes exactly one argument"));
        };
        return match operand(scope, arg)? {
            Val::Const(Value::Num(x)) => {
                let r = ops::math_const(func, x).map(|v| Val::Const(Value::Num(v)));
                settled(scope, r, span)
            }
            Val::Rv(t) => {
                let r = ops::math_rv(func, t, |t, p| scope.partial(t, p, span));
                settled(scope, r.map(Val::Rv), span)
            }
            Val::Unknown => Ok(Val::Unknown),
            other => rejected(
                scope,
                span,
                format!("{func} expects a number, got {other:?}"),
            ),
        };
    }
    match func {
        "range" => {
            let bounds = match args {
                [hi] => (Some(0), integer(scope, hi)?),
                [lo, hi] => (integer(scope, lo)?, integer(scope, hi)?),
                _ => return rejected(scope, span, "range takes one or two arguments"),
            };
            let (Some(lo), Some(hi)) = bounds else {
                return Ok(Val::Unknown);
            };
            Ok(Val::Const(Value::List(
                (lo..hi).map(|i| Value::Num(i as f64)).collect(),
            )))
        }
        "binspace" => {
            let mut bounds = Vec::new();
            for a in args {
                let Some(bound) = number(scope, a)? else {
                    return Ok(Val::Unknown);
                };
                bounds.push(bound);
            }
            let mut n = None;
            for (k, v) in kwargs {
                if k != "n" {
                    return rejected(scope, span, format!("unknown keyword {k} for binspace"));
                }
                let Some(v) = number(scope, v)? else {
                    return Ok(Val::Unknown);
                };
                n = Some(v);
            }
            settled(scope, ops::binspace(&bounds, n).map(Val::Const), span)
        }
        "array" => rejected(scope, span, "array(n) is only valid as `name = array(n)`"),
        _ => distribution(scope, func, args, kwargs, span),
    }
}

/// `expr` as a constant number. `None` when it is unknown, or after its
/// failure.
fn number<S: Scope>(scope: &mut S, expr: &Expr) -> Result<Option<f64>, S::Stop> {
    match operand(scope, expr)? {
        Val::Const(Value::Num(n)) => Ok(Some(n)),
        Val::Unknown => Ok(None),
        other => {
            let message = format!("expected a constant number (R4), got {other:?}");
            rejected(scope, expr.span(), message)?;
            Ok(None)
        }
    }
}

/// A distribution call, built by the family table. Its parameters must
/// be constants (restriction R4); a call whose parameters are unknown or
/// invalid keeps its family.
fn distribution<S: Scope>(
    scope: &mut S,
    func: &str,
    args: &[Expr],
    kwargs: &[(String, Expr)],
    span: Span,
) -> Eval<S> {
    // Set when a parameter is not a constant: the call's own verdict
    // would only repeat that failure.
    let mut not_constant = false;
    // A distribution is no constant, whether or not its own parameters
    // are known.
    let mut param = |scope: &mut S, e: &Expr| -> Result<Option<f64>, S::Stop> {
        match eval(scope, e)? {
            Val::Const(Value::Num(n)) => Ok(Some(n)),
            Val::Unknown => Ok(None),
            _ => {
                not_constant = true;
                scope
                    .fail(LintCode::InvalidParameter, e.span(), NOT_CONSTANT.into())
                    .map(|()| None)
            }
        }
    };
    let mut pos = Vec::new();
    let mut dict = None;
    for a in args {
        let Expr::Dict(items, _) = a else {
            pos.push(param(scope, a)?);
            continue;
        };
        let mut pairs = Vec::new();
        for (k, v) in items {
            let key = match operand(scope, k)? {
                Val::Const(c) => c,
                Val::Unknown => return Ok(Val::Unknown),
                other => {
                    return rejected(
                        scope,
                        k.span(),
                        format!("dict key must be constant: {other:?}"),
                    )
                }
            };
            pairs.push((key, param(scope, v)?));
        }
        dict = Some(pairs);
    }
    let mut named = Vec::new();
    for (k, v) in kwargs {
        named.push((k.as_str(), param(scope, v)?));
    }
    let family = match Family::named(func) {
        Ok(family) => family,
        Err(e) => return settled(scope, Err(e), span),
    };
    match family.build(&pos, &named, dict.as_deref()) {
        Ok(spec) => Ok(Val::Dist(spec)),
        Err(e) => {
            if !not_constant && e != EvalError::Unknown {
                scope.fail(LintCode::InvalidParameter, span, e.to_string())?;
            }
            Ok(Val::Family(family))
        }
    }
}

/// `v` as a predicate, by the truth rules of [`ops::const_truth`] and
/// [`ops::rv_truth`]. `None` when it is unknown, or after its failure.
fn truth<S: Scope>(scope: &mut S, v: Val, span: Span) -> Result<Option<Event>, S::Stop> {
    let holds = match v {
        Val::Event(e) => return Ok(Some(e)),
        Val::Rv(t) => return Ok(Some(ops::rv_truth(t))),
        Val::Unknown | Val::Family(_) => return Ok(None),
        Val::Const(ref c) => ops::const_truth(c),
        Val::Dist(_) => None,
    };
    if holds.is_none() {
        rejected(scope, span, format!("expected a predicate, got {v:?}"))?;
    }
    Ok(holds)
}

/// The value of a value operation, or the unknown value after its
/// failure.
fn settled<S: Scope>(scope: &mut S, r: Result<Val, EvalError>, span: Span) -> Eval<S> {
    Ok(settle(scope, r, span)?.unwrap_or(Val::Unknown))
}

/// The result of a value operation, or `None` after its failure is
/// reported under the code its kind earns. An unknown operand
/// ([`EvalError::Unknown`]) is no verdict, and reports nothing.
fn settle<S: Scope, T>(
    scope: &mut S,
    r: Result<T, EvalError>,
    span: Span,
) -> Result<Option<T>, S::Stop> {
    let e = match r {
        Ok(v) => return Ok(Some(v)),
        Err(EvalError::Unknown) => return Ok(None),
        Err(e) => e,
    };
    let code = match e {
        EvalError::UnknownName(_) => LintCode::UseBeforeDefine,
        EvalError::NonFinite(_) => LintCode::NonFiniteConstant,
        _ => LintCode::RejectedExpression,
    };
    scope.fail(code, span, e.to_string())?;
    Ok(None)
}

/// Reports a failure; the expression's value is then unknown.
fn failed<S: Scope>(scope: &mut S, code: LintCode, span: Span, message: String) -> Eval<S> {
    scope.fail(code, span, message)?;
    Ok(Val::Unknown)
}

/// Reports an expression the language rejects for a reason no other
/// lint code names.
fn rejected<S: Scope>(scope: &mut S, span: Span, message: impl Into<String>) -> Eval<S> {
    failed(scope, LintCode::RejectedExpression, span, message.into())
}
