//! The meaning of constant and random-value expressions: what each
//! operator, comparison, `switch` case and built-in does to compile-time
//! constants and to transforms of random variables.
//!
//! The one expression evaluator in [`crate::eval`], which the translator
//! and the static analyzer in `sppl-analyze` both run, calls these
//! functions, so a program means the same to both passes and a rejected
//! one is rejected with the same text. The evaluator reports an
//! [`EvalError`] at its expression's span under the lint code its kind
//! earns; an unknown operand gets no verdict.

use std::fmt;

use sppl_core::event::Event;
use sppl_core::transform::Transform;
use sppl_num::Polynomial;
use sppl_sets::{Interval, OutcomeSet};

use crate::ast::{BinOp, CmpOp};

/// A compile-time constant value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A real number.
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// A list of constants.
    List(Vec<Value>),
    /// A `binspace` bin `[lo, hi)` (closed at `hi` when `last`).
    Bin {
        /// Lower edge.
        lo: f64,
        /// Upper edge.
        hi: f64,
        /// Whether this is the final (closed) bin.
        last: bool,
    },
}

impl Value {
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Bool(_) => "boolean",
            Value::List(_) => "list",
            Value::Bin { .. } => "bin",
        }
    }
}

/// Why an expression has no value. The message is the text both passes
/// report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A call names no function or distribution.
    UnknownName(String),
    /// A constant is NaN or infinite where a finite number is needed, or
    /// an operation on constants is undefined.
    NonFinite(String),
    /// Any other expression the language rejects.
    Invalid(String),
    /// An operand's value is not known, so there is no verdict. Only the
    /// analyzer, which loses constants at joins, passes unknown values.
    Unknown,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownName(m) | EvalError::NonFinite(m) | EvalError::Invalid(m) => {
                f.write_str(m)
            }
            EvalError::Unknown => f.write_str("value not known"),
        }
    }
}

impl std::error::Error for EvalError {}

pub(crate) fn invalid(msg: impl Into<String>) -> EvalError {
    EvalError::Invalid(msg.into())
}

pub(crate) fn non_finite(msg: impl Into<String>) -> EvalError {
    EvalError::NonFinite(msg.into())
}

/// Where a transform of `t` is undefined: the values of `t` it cannot
/// take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partial {
    /// A reciprocal: undefined at `t = 0`.
    Recip,
    /// A square root: undefined for `t < 0`.
    Sqrt,
    /// An even root other than the square root: undefined for `t < 0`.
    EvenRoot,
    /// A logarithm: undefined for `t ≤ 0`.
    Log,
}

/// `x op y` on two constant numbers.
pub fn arith(op: BinOp, x: f64, y: f64) -> Result<f64, EvalError> {
    let v = match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div if y == 0.0 => return Err(invalid("division by zero")),
        BinOp::Div => x / y,
        BinOp::Pow => x.powf(y),
        BinOp::And | BinOp::Or => return Err(invalid("logical operators require boolean events")),
    };
    if v.is_nan() {
        return Err(non_finite(
            "constant arithmetic produces NaN (undefined value)",
        ));
    }
    Ok(v)
}

/// Whether `func` is a one-argument math function, which applies to
/// constants ([`math_const`]) and to random values ([`math_rv`]).
pub fn is_math(func: &str) -> bool {
    matches!(func, "exp" | "ln" | "log" | "sqrt" | "abs")
}

fn unknown_math(func: &str) -> EvalError {
    EvalError::UnknownName(format!("unknown math function `{func}`"))
}

/// `func(x)` on a constant.
pub fn math_const(func: &str, x: f64) -> Result<f64, EvalError> {
    let v = match func {
        "exp" => x.exp(),
        "ln" | "log" => x.ln(),
        "sqrt" => x.sqrt(),
        "abs" => x.abs(),
        other => return Err(unknown_math(other)),
    };
    if v.is_nan() {
        return Err(non_finite(format!(
            "{func}({x}) is undefined (argument outside the domain)"
        )));
    }
    Ok(v)
}

/// `func(t)` on a random value. When the result is undefined for some
/// values of `t`, `partial` hears `t` and where, before `t` is consumed.
pub fn math_rv(
    func: &str,
    t: Transform,
    partial: impl FnOnce(&Transform, Partial),
) -> Result<Transform, EvalError> {
    Ok(match func {
        "exp" => t.exp(),
        "ln" | "log" => {
            partial(&t, Partial::Log);
            t.ln()
        }
        "sqrt" => {
            partial(&t, Partial::Sqrt);
            t.sqrt()
        }
        "abs" => t.abs(),
        other => return Err(unknown_math(other)),
    })
}

/// `t op c`, or `c op t` when `flipped`. When the result is undefined
/// for some values of `t`, `partial` hears `t` and where, before `t` is
/// consumed; a failed operation tells it nothing.
pub fn rv_const_op(
    op: BinOp,
    t: Transform,
    c: f64,
    flipped: bool,
    partial: impl FnOnce(&Transform, Partial),
) -> Result<Transform, EvalError> {
    Ok(match (op, flipped) {
        (BinOp::Add, _) => t.add_const(c),
        (BinOp::Sub, false) => t.add_const(-c),
        (BinOp::Sub, true) => t.neg().add_const(c),
        (BinOp::Mul, _) => t.mul_const(c),
        (BinOp::Div, false) if c == 0.0 => return Err(invalid("division by zero")),
        (BinOp::Div, false) => t.mul_const(1.0 / c),
        (BinOp::Div, true) => {
            partial(&t, Partial::Recip);
            t.recip().mul_const(c)
        }
        (BinOp::Pow, false) => power(t, c, partial)?,
        (BinOp::Pow, true) if c <= 0.0 || c == 1.0 => {
            return Err(invalid(format!(
                "exponential base must be positive and ≠ 1, got {c}"
            )))
        }
        (BinOp::Pow, true) => t.exp_base(c),
        (BinOp::And | BinOp::Or, _) => {
            return Err(invalid(
                "logical operators apply to events, not random values",
            ))
        }
    })
}

/// The largest degree a polynomial of a random value may reach, by one
/// exponent (`X ** n`), by composition (`(X ** a) ** b` has degree
/// `a·b`) or by products (`X ** a * X ** b` has degree `a + b`). The
/// preimages of a degree-`n` polynomial are solved numerically, and that
/// cost grows about as `n³`: on a 2-vCPU box, `Y = (X ** a) ** b` with
/// `condition(Y > 0.5)` compiled in 0.7 / 115 / 1,094 ms at degree
/// 100 / 400 / 900, and a single `X ** 4000` took 18 s to analyze. No
/// program here goes past degree 3.
const MAX_DEGREE: u32 = 100;

/// Rejects a polynomial of `degree` past [`MAX_DEGREE`]; callers check
/// before the polynomial is built.
fn check_degree(degree: f64) -> Result<(), EvalError> {
    if degree > f64::from(MAX_DEGREE) {
        return Err(invalid(format!(
            "polynomial degree {degree} is too large: polynomials go up to degree {MAX_DEGREE}"
        )));
    }
    Ok(())
}

/// A polynomial's degree (0 for the zero polynomial), as the bound's
/// arithmetic takes it: in `f64`, so a huge exponent cannot overflow.
fn degree(p: &Polynomial) -> f64 {
    p.degree().unwrap_or(0) as f64
}

/// `t ** c`: integer powers and their reciprocals, and the roots `1/n`.
fn power(
    t: Transform,
    c: f64,
    partial: impl FnOnce(&Transform, Partial),
) -> Result<Transform, EvalError> {
    if c.fract() == 0.0 {
        // `pow_int` builds the monomial `x^|c|` before composing it with
        // `t`, so a constant or zero `t` counts as degree 1: `|c|` itself
        // stays bounded.
        check_degree(degree(&poly_view(&t).1).max(1.0) * c.abs())?;
    }
    Ok(if c >= 0.0 && c.fract() == 0.0 {
        t.pow_int(c as u32)
    } else if c == 0.5 {
        partial(&t, Partial::Sqrt);
        t.sqrt()
    } else if c == -1.0 {
        partial(&t, Partial::Recip);
        t.recip()
    } else if c < 0.0 && c.fract() == 0.0 {
        partial(&t, Partial::Recip);
        t.pow_int((-c) as u32).recip()
    } else if c > 0.0
        && c < 1.0
        && (1.0 / c).fract().abs() < 1e-12
        && 1.0 / c <= f64::from(u32::MAX)
    {
        let n = (1.0 / c) as u32;
        if n % 2 == 0 {
            partial(&t, Partial::EvenRoot);
        }
        t.root(n)
    } else {
        return Err(invalid(format!(
            "unsupported exponent {c}: use integers, 0.5, or 1/n"
        )));
    })
}

/// `ta op tb` on two random values: defined exactly when both are
/// polynomials of the *same* inner transform (so the result is still
/// univariate, restriction R3).
pub fn rv_rv_op(op: BinOp, ta: Transform, tb: Transform) -> Result<Transform, EvalError> {
    let (ia, pa) = poly_view(&ta);
    let (ib, pb) = poly_view(&tb);
    if ia != ib {
        return Err(invalid(if ta.vars() != tb.vars() {
            "multivariate transforms are not expressible (R3): \
             operands mention different variables"
        } else {
            "cannot combine these transforms exactly; rewrite as a polynomial \
             of a single subexpression"
        }));
    }
    let p = match op {
        BinOp::Add => pa.add(&pb),
        BinOp::Sub => pa.sub(&pb),
        BinOp::Mul => {
            check_degree(degree(&pa) + degree(&pb))?;
            pa.mul(&pb)
        }
        BinOp::Div | BinOp::Pow => {
            return Err(invalid(format!(
                "{op:?} between two random expressions is not supported (R3)"
            )))
        }
        BinOp::And | BinOp::Or => {
            return Err(invalid(
                "logical operators apply to events, not random values",
            ))
        }
    };
    Ok(Transform::poly(ia.clone(), p))
}

/// Splits a transform into `(inner, polynomial)` so that
/// `t = polynomial(inner)`.
fn poly_view(t: &Transform) -> (&Transform, Polynomial) {
    match t {
        Transform::Poly(inner, p) => (inner, p.clone()),
        other => (other, Polynomial::identity()),
    }
}

/// `a op b` on two constants.
pub fn static_compare(op: CmpOp, a: &Value, b: &Value) -> Result<bool, EvalError> {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => Ok(match op {
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::In => return Err(invalid("`in` requires a list on the right")),
        }),
        (Value::Str(x), Value::Str(y)) => match op {
            CmpOp::Eq => Ok(x == y),
            CmpOp::Ne => Ok(x != y),
            _ => Err(invalid("strings only support == and !=")),
        },
        (Value::Bool(x), Value::Bool(y)) => match op {
            CmpOp::Eq => Ok(x == y),
            CmpOp::Ne => Ok(x != y),
            _ => Err(invalid("booleans only support == and !=")),
        },
        (v, Value::List(items)) if op == CmpOp::In => Ok(items.contains(v)),
        (Value::Num(x), Value::Bin { lo, hi, last }) if op == CmpOp::In => {
            Ok(in_bin(*x, *lo, *hi, *last))
        }
        (a, b) => Err(invalid(format!(
            "cannot compare {} with {}",
            a.type_name(),
            b.type_name()
        ))),
    }
}

/// The event `t op v`, or `v op t` when `flipped`: a random value
/// compared with a constant.
pub fn rv_compare(op: CmpOp, t: &Transform, v: &Value, flipped: bool) -> Result<Event, EvalError> {
    let op = if flipped {
        match op {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    } else {
        op
    };
    // Interval endpoints must be real: NaN violates the interval
    // invariants and ±inf cannot be an equality atom.
    if let Value::Num(r) = v {
        if !r.is_finite() {
            return Err(non_finite(format!(
                "comparison against a non-finite constant ({r})"
            )));
        }
    }
    Ok(match (op, v) {
        (CmpOp::Lt, Value::Num(r)) => Event::lt(t.clone(), *r),
        (CmpOp::Le, Value::Num(r)) => Event::le(t.clone(), *r),
        (CmpOp::Gt, Value::Num(r)) => Event::gt(t.clone(), *r),
        (CmpOp::Ge, Value::Num(r)) => Event::ge(t.clone(), *r),
        (CmpOp::Eq, Value::Num(r)) => Event::eq_real(t.clone(), *r),
        (CmpOp::Ne, Value::Num(r)) => Event::eq_real(t.clone(), *r).negate(),
        (CmpOp::Eq, Value::Str(s)) => Event::eq_str(t.clone(), s),
        (CmpOp::Ne, Value::Str(s)) => Event::eq_str(t.clone(), s).negate(),
        (CmpOp::Eq, Value::Bool(b)) => Event::eq_real(t.clone(), f64::from(*b)),
        (CmpOp::Ne, Value::Bool(b)) => Event::eq_real(t.clone(), f64::from(*b)).negate(),
        (CmpOp::In, Value::List(items)) => Event::in_set(t.clone(), values_to_set(items)?),
        (CmpOp::In, Value::Bin { lo, hi, last }) => {
            Event::in_set(t.clone(), bin_set(*lo, *hi, *last))
        }
        (op, v) => {
            return Err(invalid(format!(
                "unsupported comparison {op:?} against {}",
                v.type_name()
            )))
        }
    })
}

/// One link `a op b` of a comparison chain `a op₁ b op₂ c …`.
#[derive(Debug)]
pub enum Link {
    /// Two constants compared: [`static_compare`].
    Static(bool),
    /// A random value compared with a constant: [`rv_compare`].
    Event(Event),
}

/// A comparison chain's value from its links: the conjunction of its
/// events, or [`Event::never`] when a constant link fails. `None` when
/// every link is a constant that holds: the chain is the constant `true`.
pub fn chain(links: Vec<Link>) -> Option<Event> {
    let mut events = Vec::new();
    for link in links {
        match link {
            Link::Event(e) => events.push(e),
            Link::Static(true) => {}
            Link::Static(false) => return Some(Event::never()),
        }
    }
    (!events.is_empty()).then(|| Event::and(events))
}

/// The membership set `[a, b, …]` of an `in` comparison.
fn values_to_set(items: &[Value]) -> Result<OutcomeSet, EvalError> {
    let mut out = OutcomeSet::empty();
    for item in items {
        let piece = match item {
            Value::Num(n) if !n.is_finite() => {
                return Err(non_finite("membership sets must contain finite numbers"))
            }
            Value::Num(n) => OutcomeSet::real_point(*n),
            Value::Str(s) => OutcomeSet::strings([s.as_str()]),
            Value::Bool(b) => OutcomeSet::real_point(f64::from(*b)),
            Value::Bin { lo, hi, last } => bin_set(*lo, *hi, *last),
            Value::List(_) => return Err(invalid("nested lists are not valid membership sets")),
        };
        out = out.union(&piece);
    }
    Ok(out)
}

fn in_bin(x: f64, lo: f64, hi: f64, last: bool) -> bool {
    x >= lo && (x < hi || (last && x <= hi))
}

fn bin_set(lo: f64, hi: f64, last: bool) -> OutcomeSet {
    let iv = if last {
        Interval::closed(lo, hi)
    } else {
        Interval::closed_open(lo, hi)
    };
    OutcomeSet::from(iv)
}

/// The guard of the `switch` case `case` on the random subject `t`.
pub fn case_event(t: &Transform, case: &Value) -> Result<Event, EvalError> {
    match case {
        Value::Num(n) if !n.is_finite() => {
            Err(non_finite("switch case values must be finite numbers"))
        }
        Value::Num(n) => Ok(Event::eq_real(t.clone(), *n)),
        Value::Str(s) => Ok(Event::eq_str(t.clone(), s)),
        Value::Bool(b) => Ok(Event::eq_real(t.clone(), f64::from(*b))),
        Value::Bin { lo, hi, last } => Ok(Event::in_set(t.clone(), bin_set(*lo, *hi, *last))),
        Value::List(_) => Err(invalid("switch case values cannot be nested lists")),
    }
}

/// Whether the `switch` case `case` matches the constant subject.
pub fn static_case_matches(subject: &Value, case: &Value) -> bool {
    match (subject, case) {
        (Value::Num(x), Value::Bin { lo, hi, last }) => in_bin(*x, *lo, *hi, *last),
        (a, b) => a == b,
    }
}

/// The most bins `binspace` makes. Each bin is one `switch` case, and
/// no program here uses more than 10.
const MAX_BINS: usize = 10_000;

/// `binspace(lo, hi, n=k)`: `k` equal bins from `lo` to `hi`, given the
/// positional `bounds` and the `n` keyword.
pub fn binspace(bounds: &[f64], n: Option<f64>) -> Result<Value, EvalError> {
    let &[lo, hi] = bounds else {
        return Err(invalid("binspace(lo, hi, n=k) requires two bounds"));
    };
    let n = n.ok_or_else(|| invalid("binspace requires n=k"))?;
    if n > MAX_BINS as f64 {
        return Err(invalid(format!(
            "binspace makes at most {MAX_BINS} bins, got n={n}"
        )));
    }
    let n = n as usize;
    if !lo.is_finite() || !hi.is_finite() {
        return Err(non_finite("binspace bounds must be finite"));
    }
    if n == 0 || hi <= lo {
        return Err(invalid("binspace requires n >= 1 and lo < hi"));
    }
    let step = (hi - lo) / n as f64;
    let bins: Vec<Value> = (0..n)
        .map(|i| Value::Bin {
            lo: lo + step * i as f64,
            hi: if i + 1 == n {
                hi
            } else {
                lo + step * (i + 1) as f64
            },
            last: i + 1 == n,
        })
        .collect();
    if bins
        .iter()
        .any(|b| matches!(b, Value::Bin { lo, hi, .. } if lo >= hi))
    {
        return Err(invalid(format!(
            "binspace({lo}, {hi}, n={n}) has bins too narrow to represent: \
             use fewer bins or a wider range"
        )));
    }
    Ok(Value::List(bins))
}

/// The method call `recv.name()`: a bin's `.mean()`, `.lo()` and
/// `.hi()`, and a list's `.len()`. `None` for any other.
pub fn method(recv: &Value, name: &str) -> Option<Value> {
    Some(Value::Num(match (recv, name) {
        (Value::Bin { lo, hi, .. }, "mean") => (lo + hi) / 2.0,
        (Value::Bin { lo, .. }, "lo") => *lo,
        (Value::Bin { hi, .. }, "hi") => *hi,
        (Value::List(vs), "len") => vs.len() as f64,
        _ => return None,
    }))
}

/// A constant as a predicate: `true` and nonzero numbers always hold,
/// `false` and zero never do. `None` for other constants.
pub fn const_truth(v: &Value) -> Option<Event> {
    let holds = match v {
        Value::Bool(b) => *b,
        Value::Num(n) => *n != 0.0,
        _ => return None,
    };
    Some(if holds {
        Event::always()
    } else {
        Event::never()
    })
}

/// A random value as a predicate: it holds where the value is nonzero.
pub fn rv_truth(t: Transform) -> Event {
    Event::eq_real(t, 0.0).negate()
}
