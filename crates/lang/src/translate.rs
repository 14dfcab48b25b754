//! Translation from SPPL programs to sum-product expressions — the
//! `→SPE` relation of Lst. 3, with the restriction checks R1–R4.
//!
//! The translator threads a state through the command sequence:
//!
//! * `spe` — the sum-product expression over the random variables sampled
//!   so far (the paper's "current S"),
//! * `consts` — compile-time constants (loop indices, parameter tables,
//!   switch binders),
//! * `arrays` — declared random-variable arrays,
//! * `rvs` — names of defined random variables (for R1/R2 checks).
//!
//! The `(IfElse)` rule conditions the current expression on the guard and
//! its negation, translates each branch, and mixes the results with the
//! guard probabilities; `for` unrolls; `switch` desugars per Eq. 4. An
//! `if`/`elif` chain and a `switch` are both first-match chains, whose
//! per-arm guards [`first_match_guards`] builds.
//!
//! Operators, comparisons and built-ins are evaluated by [`crate::ops`],
//! and distribution calls by the family table in [`crate::dists`]; the
//! static analyzer calls the same functions.

use std::collections::{BTreeSet, HashMap};

use sppl_core::condition::condition;
use sppl_core::event::Event;
use sppl_core::spe::{Factory, Node, Spe};
use sppl_core::transform::Transform;
use sppl_core::var::Var;
use sppl_dists::Distribution;
use sppl_sets::OutcomeSet;

use crate::ast::{BinOp, CmpOp, Command, Expr, Program, Target, UnOp};
use crate::diagnostics::{LangError, Span};
use crate::dists::{DistSpec, Family};
pub use crate::ops::Value;
use crate::ops::{self, EvalError, Link};

/// One `if`/`elif`/`switch` branch: guard event, body, and the optional
/// constant binding a `switch` case introduces.
type Branch = (Event, Vec<Command>, Option<(String, Value)>);

/// Translates a parsed program into a sum-product expression.
///
/// # Errors
///
/// Returns a [`LangError`] on restriction violations (R1–R4), undefined
/// variables, non-constant distribution parameters, or inference failures
/// (e.g. a `condition` with probability zero).
pub fn translate(factory: &Factory, program: &Program) -> Result<Spe, LangError> {
    let mut t = Translator::new(factory);
    t.exec_all(&program.commands)?;
    t.finish()
}

/// Result of evaluating an expression in the current state.
#[derive(Debug, Clone)]
enum Evaluated {
    /// A compile-time constant.
    Const(Value),
    /// A (transform of a) random variable.
    Rv(Transform),
    /// A distribution object (right-hand side of `~`).
    Dist(DistSpec),
    /// A predicate.
    Event(Event),
}

#[derive(Debug, Clone)]
struct State {
    spe: Option<Spe>,
    consts: HashMap<String, Value>,
    arrays: HashMap<String, usize>,
    rvs: BTreeSet<String>,
}

/// The stateful program translator. Use [`translate`] for the common
/// one-shot case; the struct is public so callers can inspect the state
/// (e.g. to enumerate defined variables).
pub struct Translator<'f> {
    factory: &'f Factory,
    state: State,
}

fn err<S: Into<String>>(span: Span, msg: S) -> LangError {
    LangError::new(span, msg.into())
}

/// Reports a value operation's error at `span`.
fn at(span: Span) -> impl Fn(EvalError) -> LangError {
    move |e| err(span, e.to_string())
}

impl<'f> Translator<'f> {
    /// Creates a translator with an empty state.
    pub fn new(factory: &'f Factory) -> Translator<'f> {
        Translator {
            factory,
            state: State {
                spe: None,
                consts: HashMap::new(),
                arrays: HashMap::new(),
                rvs: BTreeSet::new(),
            },
        }
    }

    /// Runs a sequence of commands.
    pub fn exec_all(&mut self, commands: &[Command]) -> Result<(), LangError> {
        for c in commands {
            self.exec(c)?;
        }
        Ok(())
    }

    /// The translated expression, if any random variable was sampled.
    pub fn finish(self) -> Result<Spe, LangError> {
        self.state
            .spe
            .ok_or_else(|| err(Span::unknown(), "program defines no random variables"))
    }

    /// The names of the random variables defined so far.
    pub fn random_variables(&self) -> impl Iterator<Item = &str> {
        self.state.rvs.iter().map(String::as_str)
    }

    fn exec(&mut self, cmd: &Command) -> Result<(), LangError> {
        match cmd {
            Command::Skip => Ok(()),
            Command::Assign { target, expr, span } => self.exec_assign(target, expr, *span),
            Command::Sample { target, expr, span } => self.exec_sample(target, expr, *span),
            Command::Condition { expr, span } => {
                let ev = self.eval_event(expr)?;
                let spe =
                    self.state.spe.as_ref().ok_or_else(|| {
                        err(*span, "condition before any random variable is defined")
                    })?;
                let conditioned = condition(self.factory, spe, &ev)
                    .map_err(|e| err(*span, format!("condition failed: {e}")))?;
                self.state.spe = Some(conditioned);
                Ok(())
            }
            Command::If {
                arms,
                otherwise,
                span,
            } => {
                let raw = arms
                    .iter()
                    .map(|(guard, _)| self.eval_event(guard))
                    .collect::<Result<Vec<_>, _>>()?;
                let (guards, else_guard) = first_match_guards(&raw);
                let mut branches: Vec<Branch> = guards
                    .into_iter()
                    .zip(arms)
                    .map(|(guard, (_, body))| (guard, body.clone(), None))
                    .collect();
                let else_body = otherwise.clone().unwrap_or_default();
                branches.push((else_guard, else_body, None));
                self.exec_branches(branches, *span)
            }
            Command::For {
                var,
                lo,
                hi,
                body,
                span,
            } => {
                let lo = self.eval_integer(lo)?;
                let hi = self.eval_integer(hi)?;
                if hi < lo {
                    return Err(err(*span, format!("empty range({lo}, {hi})")));
                }
                let saved = self.state.consts.get(var).cloned();
                for i in lo..hi {
                    self.state.consts.insert(var.clone(), Value::Num(i as f64));
                    self.exec_all(body)?;
                }
                match saved {
                    Some(v) => self.state.consts.insert(var.clone(), v),
                    None => self.state.consts.remove(var),
                };
                Ok(())
            }
            Command::Switch {
                subject,
                binder,
                values,
                body,
                span,
            } => {
                let subject_eval = self.eval(subject)?;
                let values = match self.eval(values)? {
                    Evaluated::Const(Value::List(vs)) => vs,
                    other => {
                        return Err(err(
                            *span,
                            format!("switch cases must be a constant list, got {other:?}"),
                        ))
                    }
                };
                match subject_eval {
                    Evaluated::Const(v) => {
                        // Static dispatch: run the matching case only.
                        for case in &values {
                            if ops::static_case_matches(&v, case) {
                                let saved = self.state.consts.get(binder).cloned();
                                self.state.consts.insert(binder.clone(), case.clone());
                                self.exec_all(body)?;
                                match saved {
                                    Some(s) => self.state.consts.insert(binder.clone(), s),
                                    None => self.state.consts.remove(binder),
                                };
                                return Ok(());
                            }
                        }
                        Err(err(*span, "no switch case matches the constant subject"))
                    }
                    Evaluated::Rv(t) => {
                        let raw = values
                            .iter()
                            .map(|case| ops::case_event(&t, case).map_err(at(*span)))
                            .collect::<Result<Vec<_>, _>>()?;
                        // The first matching case runs, so a repeated
                        // value's later case gets an empty guard.
                        let (guards, else_guard) = first_match_guards(&raw);
                        let mut branches: Vec<Branch> = guards
                            .into_iter()
                            .zip(values)
                            .map(|(guard, case)| {
                                (guard, body.clone(), Some((binder.clone(), case)))
                            })
                            .collect();
                        // Implicit empty else catches uncovered support.
                        branches.push((else_guard, vec![], None));
                        self.exec_branches(branches, *span)
                    }
                    other => Err(err(
                        *span,
                        format!("switch subject must be a random variable, got {other:?}"),
                    )),
                }
            }
        }
    }

    /// Shared machinery of `(IfElse)` (Lst. 3) for `if`/`elif`/`else` and
    /// desugared `switch`: condition the current expression on each branch
    /// event, translate the branch body, and mix by branch probability.
    fn exec_branches(&mut self, branches: Vec<Branch>, span: Span) -> Result<(), LangError> {
        // Survivors accumulate in source order, and `?` surfaces the
        // earliest failing branch's error.
        let mut survivors: Vec<(State, f64)> = Vec::new();
        for branch in &branches {
            if let Some(survivor) = self.eval_branch(branch, span)? {
                survivors.push(survivor);
            }
        }
        match survivors.len() {
            0 => Err(err(span, "all branches have probability zero")),
            1 => {
                let (state, _) = survivors.pop_checked();
                self.state = state;
                Ok(())
            }
            _ => {
                // R2: all branches must define the same random variables.
                let rvs = survivors[0].0.rvs.clone();
                for (s, _) in &survivors[1..] {
                    if s.rvs != rvs {
                        let missing: Vec<String> =
                            rvs.symmetric_difference(&s.rvs).cloned().collect();
                        return Err(err(
                            span,
                            format!(
                                "branches must define identical variables (R2); \
                                 differing: {}",
                                missing.join(", ")
                            ),
                        ));
                    }
                }
                let parts: Result<Vec<(Spe, f64)>, LangError> = survivors
                    .iter()
                    .map(|(s, w)| {
                        s.spe
                            .clone()
                            .map(|spe| (spe, *w))
                            .ok_or_else(|| err(span, "branching before any random variable"))
                    })
                    .collect();
                let mixed = self
                    .factory
                    .sum(parts?)
                    .map_err(|e| err(span, format!("branch mixture failed: {e}")))?;
                let consts = std::mem::take(&mut self.state.consts);
                let arrays = std::mem::take(&mut self.state.arrays);
                self.state = State {
                    spe: Some(mixed),
                    consts,
                    arrays,
                    rvs,
                };
                Ok(())
            }
        }
    }

    /// One branch of `exec_branches`: guard probability, conditioning,
    /// body translation. Returns `None` for a zero-probability branch
    /// (pruned from the mixture) and the surviving `(state, logprob)`
    /// otherwise.
    fn eval_branch(&self, branch: &Branch, span: Span) -> Result<Option<(State, f64)>, LangError> {
        let (event, body, binding) = branch;
        let ln_p = self.branch_logprob(event, span)?;
        if ln_p == f64::NEG_INFINITY {
            return Ok(None);
        }
        let mut child = self.state.clone();
        if let Some(spe) = &self.state.spe {
            if !is_always(event) {
                child.spe = Some(
                    condition(self.factory, spe, event)
                        .map_err(|e| err(span, format!("branch condition failed: {e}")))?,
                );
            }
        }
        if let Some((name, value)) = binding {
            child.consts.insert(name.clone(), value.clone());
        }
        let mut sub = Translator {
            factory: self.factory,
            state: child,
        };
        sub.exec_all(body)?;
        let mut done = sub.state;
        if let Some((name, _)) = binding {
            done.consts.remove(name);
        }
        Ok(Some((done, ln_p)))
    }

    /// Probability of a branch event under the current expression
    /// (handles the no-variables-yet corner where only static guards are
    /// possible).
    fn branch_logprob(&self, event: &Event, span: Span) -> Result<f64, LangError> {
        if is_always(event) {
            return Ok(0.0);
        }
        if is_never(event) {
            return Ok(f64::NEG_INFINITY);
        }
        match &self.state.spe {
            Some(spe) => self
                .factory
                .logprob(spe, event)
                .map_err(|e| err(span, format!("guard probability failed: {e}"))),
            None => Err(err(
                span,
                "guard references random variables before any exist",
            )),
        }
    }

    fn exec_assign(&mut self, target: &Target, expr: &Expr, span: Span) -> Result<(), LangError> {
        // Array declaration: `X = array(n)`.
        if let Expr::Call { func, args, .. } = expr {
            if func == "array" {
                let Target::Var(name) = target else {
                    return Err(err(span, "array declaration target must be a scalar name"));
                };
                if args.len() != 1 {
                    return Err(err(span, "array(n) takes exactly one argument"));
                }
                let n = self.eval_integer(&args[0])?;
                if n < 0 {
                    return Err(err(span, "array size must be nonnegative"));
                }
                self.state.arrays.insert(name.clone(), n as usize);
                return Ok(());
            }
        }
        let name = self.resolve_target(target, span)?;
        match self.eval(expr)? {
            Evaluated::Const(v) => {
                if self.state.rvs.contains(&name) {
                    return Err(err(
                        span,
                        format!("cannot rebind random variable {name} as a constant (R1)"),
                    ));
                }
                self.state.consts.insert(name, v);
                Ok(())
            }
            Evaluated::Rv(t) => {
                self.check_fresh(&name, span)?;
                let base = t.the_var().ok_or_else(|| {
                    err(
                        span,
                        "transform must involve exactly one variable (R3)".to_string(),
                    )
                })?;
                let spe = self.state.spe.clone().ok_or_else(|| {
                    err(
                        span,
                        "transform references a variable before any are defined",
                    )
                })?;
                let attached = attach_derived(self.factory, &spe, &Var::new(&name), &base, &t)
                    .map_err(|e| err(span, format!("cannot attach transform: {e}")))?;
                self.state.spe = Some(attached);
                self.state.rvs.insert(name);
                Ok(())
            }
            Evaluated::Dist(_) => Err(err(
                span,
                "distributions are sampled with `~`, not assigned with `=`",
            )),
            Evaluated::Event(_) => Err(err(
                span,
                "events cannot be assigned to variables; use condition(...)",
            )),
        }
    }

    fn exec_sample(&mut self, target: &Target, expr: &Expr, span: Span) -> Result<(), LangError> {
        let name = self.resolve_target(target, span)?;
        self.check_fresh(&name, span)?;
        let spec = match self.eval(expr)? {
            Evaluated::Dist(d) => d,
            other => {
                return Err(err(
                    span,
                    format!("right-hand side of `~` must be a distribution, got {other:?}"),
                ))
            }
        };
        let var = Var::new(&name);
        let leaf = match spec {
            DistSpec::Simple(dist) => self.factory.leaf(var, dist),
            DistSpec::NumericMixture(locs) => {
                let parts: Vec<(Spe, f64)> = locs
                    .iter()
                    .map(|(loc, w)| {
                        (
                            self.factory
                                .leaf(var.clone(), Distribution::Atomic { loc: *loc }),
                            w.ln(),
                        )
                    })
                    .collect();
                self.factory
                    .sum(parts)
                    .map_err(|e| err(span, format!("invalid discrete distribution: {e}")))?
            }
        };
        self.state.spe = Some(match self.state.spe.take() {
            None => leaf,
            Some(spe) => self
                .factory
                .product(vec![spe, leaf])
                .map_err(|e| err(span, format!("cannot extend model: {e}")))?,
        });
        self.state.rvs.insert(name);
        Ok(())
    }

    fn check_fresh(&self, name: &str, span: Span) -> Result<(), LangError> {
        if self.state.rvs.contains(name) {
            return Err(err(
                span,
                format!("variable {name} is already defined (R1)"),
            ));
        }
        if self.state.consts.contains_key(name) {
            return Err(err(span, format!("variable {name} shadows a constant")));
        }
        Ok(())
    }

    fn resolve_target(&mut self, target: &Target, span: Span) -> Result<String, LangError> {
        match target {
            Target::Var(name) => Ok(name.clone()),
            Target::Indexed(name, idx) => {
                let size = *self.state.arrays.get(name).ok_or_else(|| {
                    err(
                        span,
                        format!("array {name} is not declared (use {name} = array(n))"),
                    )
                })?;
                let i = self.eval_integer(idx)?;
                if i < 0 || i as usize >= size {
                    return Err(err(
                        span,
                        format!("index {i} out of bounds for array {name} of size {size}"),
                    ));
                }
                Ok(format!("{name}[{i}]"))
            }
        }
    }

    fn eval_integer(&mut self, expr: &Expr) -> Result<i64, LangError> {
        match self.eval(expr)? {
            Evaluated::Const(Value::Num(n)) if n.fract() == 0.0 => Ok(n as i64),
            other => Err(err(
                expr.span(),
                format!("expected a constant integer, got {other:?}"),
            )),
        }
    }

    fn eval_event(&mut self, expr: &Expr) -> Result<Event, LangError> {
        let v = self.eval(expr)?;
        self.coerce_event(v, expr.span())
    }

    fn coerce_event(&self, v: Evaluated, span: Span) -> Result<Event, LangError> {
        match v {
            Evaluated::Event(e) => Ok(e),
            Evaluated::Rv(t) => Ok(ops::rv_truth(t)),
            other => match &other {
                Evaluated::Const(c) => ops::const_truth(c),
                _ => None,
            }
            .ok_or_else(|| err(span, format!("expected a predicate, got {other:?}"))),
        }
    }

    // ----- expression evaluation -----

    fn eval(&mut self, expr: &Expr) -> Result<Evaluated, LangError> {
        match expr {
            Expr::Num(n, _) => Ok(Evaluated::Const(Value::Num(*n))),
            Expr::Str(s, _) => Ok(Evaluated::Const(Value::Str(s.clone()))),
            Expr::Bool(b, _) => Ok(Evaluated::Const(Value::Bool(*b))),
            Expr::Ident(name, span) => self.eval_ident(name, *span),
            Expr::List(items, _) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    match self.eval(item)? {
                        Evaluated::Const(v) => out.push(v),
                        other => {
                            return Err(err(
                                item.span(),
                                format!("list elements must be constants, got {other:?}"),
                            ))
                        }
                    }
                }
                Ok(Evaluated::Const(Value::List(out)))
            }
            Expr::Dict(_, span) => Err(err(
                *span,
                "dict literals are only valid as the argument of choice(...) or discrete(...)",
            )),
            Expr::Index(recv, idx, span) => self.eval_index(recv, idx, *span),
            Expr::Call {
                func,
                args,
                kwargs,
                span,
            } => self.eval_call(func, args, kwargs, *span),
            Expr::MethodCall {
                recv, method, span, ..
            } => self.eval_method(recv, method, *span),
            Expr::Unary(op, inner, span) => {
                let v = self.eval(inner)?;
                match (op, v) {
                    (UnOp::Neg, Evaluated::Const(Value::Num(n))) => {
                        Ok(Evaluated::Const(Value::Num(-n)))
                    }
                    (UnOp::Neg, Evaluated::Rv(t)) => Ok(Evaluated::Rv(t.neg())),
                    (UnOp::Not, v) => Ok(Evaluated::Event(self.coerce_event(v, *span)?.negate())),
                    (op, v) => Err(err(*span, format!("cannot apply {op:?} to {v:?}"))),
                }
            }
            Expr::Binary(op, lhs, rhs, span) => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                self.eval_binary(*op, a, b, *span)
            }
            Expr::Compare(first, chain, span) => self.eval_compare(first, chain, *span),
        }
    }

    fn eval_ident(&self, name: &str, span: Span) -> Result<Evaluated, LangError> {
        if let Some(v) = self.state.consts.get(name) {
            return Ok(Evaluated::Const(v.clone()));
        }
        if self.state.rvs.contains(name) {
            return Ok(Evaluated::Rv(Transform::id(Var::new(name))));
        }
        Err(err(span, format!("undefined variable {name}")))
    }

    fn eval_index(&mut self, recv: &Expr, idx: &Expr, span: Span) -> Result<Evaluated, LangError> {
        // Array-of-random-variables access: `Z[i]` where Z is declared.
        if let Expr::Ident(name, _) = recv {
            if self.state.arrays.contains_key(name) {
                let element =
                    self.resolve_target(&Target::Indexed(name.clone(), idx.clone()), span)?;
                if self.state.rvs.contains(&element) {
                    return Ok(Evaluated::Rv(Transform::id(Var::new(&element))));
                }
                return Err(err(
                    span,
                    format!("array element {element} is not yet sampled"),
                ));
            }
        }
        // Constant list indexing (possibly nested).
        let list = match self.eval(recv)? {
            Evaluated::Const(Value::List(vs)) => vs,
            other => {
                return Err(err(
                    span,
                    format!("cannot index into {other:?} (expected list or declared array)"),
                ))
            }
        };
        let i = self.eval_integer(idx)?;
        if i < 0 || i as usize >= list.len() {
            return Err(err(
                span,
                format!("index {i} out of bounds (len {})", list.len()),
            ));
        }
        Ok(Evaluated::Const(list[i as usize].clone()))
    }

    fn eval_method(
        &mut self,
        recv: &Expr,
        method: &str,
        span: Span,
    ) -> Result<Evaluated, LangError> {
        let r = self.eval(recv)?;
        if let Evaluated::Const(v) = &r {
            if let Some(out) = ops::method(v, method) {
                return Ok(Evaluated::Const(out));
            }
        }
        Err(err(span, format!("unknown method .{method}() on {r:?}")))
    }

    fn eval_binary(
        &self,
        op: BinOp,
        a: Evaluated,
        b: Evaluated,
        span: Span,
    ) -> Result<Evaluated, LangError> {
        use Evaluated::{Const, Event as Ev, Rv};
        match op {
            BinOp::And | BinOp::Or => {
                let ea = self.coerce_event(a, span)?;
                let eb = self.coerce_event(b, span)?;
                Ok(Ev(match op {
                    BinOp::And => Event::and(vec![ea, eb]),
                    _ => Event::or(vec![ea, eb]),
                }))
            }
            _ => match (a, b) {
                (Const(Value::Num(x)), Const(Value::Num(y))) => {
                    ops::arith(op, x, y).map(|v| Const(Value::Num(v)))
                }
                (Rv(t), Const(Value::Num(c))) => {
                    ops::rv_const_op(op, t, c, false).map(|(t, _)| Rv(t))
                }
                (Const(Value::Num(c)), Rv(t)) => {
                    ops::rv_const_op(op, t, c, true).map(|(t, _)| Rv(t))
                }
                (Rv(ta), Rv(tb)) => ops::rv_rv_op(op, ta, tb).map(Rv),
                (a, b) => {
                    return Err(err(
                        span,
                        format!("unsupported operands for {op:?}: {a:?} and {b:?}"),
                    ))
                }
            }
            .map_err(at(span)),
        }
    }

    fn eval_compare(
        &mut self,
        first: &Expr,
        chain: &[(CmpOp, Expr)],
        span: Span,
    ) -> Result<Evaluated, LangError> {
        let mut operands = vec![self.eval(first)?];
        for (_, e) in chain {
            operands.push(self.eval(e)?);
        }
        let links = chain
            .iter()
            .enumerate()
            .map(|(i, (op, _))| compare_pair(*op, &operands[i], &operands[i + 1], span))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ops::chain(links).map_or(Evaluated::Const(Value::Bool(true)), Evaluated::Event))
    }

    fn eval_call(
        &mut self,
        func: &str,
        args: &[Expr],
        kwargs: &[(String, Expr)],
        span: Span,
    ) -> Result<Evaluated, LangError> {
        // Math functions over constants or random transforms.
        if ops::is_math(func) {
            if args.len() != 1 || !kwargs.is_empty() {
                return Err(err(span, format!("{func}(x) takes exactly one argument")));
            }
            return match self.eval(&args[0])? {
                Evaluated::Const(Value::Num(x)) => ops::math_const(func, x)
                    .map(|v| Evaluated::Const(Value::Num(v)))
                    .map_err(at(span)),
                Evaluated::Rv(t) => ops::math_rv(func, t)
                    .map(|(t, _)| Evaluated::Rv(t))
                    .map_err(at(span)),
                other => Err(err(span, format!("{func} expects a number, got {other:?}"))),
            };
        }
        match func {
            "range" => {
                let lo;
                let hi;
                match args.len() {
                    1 => {
                        lo = 0;
                        hi = self.eval_integer(&args[0])?;
                    }
                    2 => {
                        lo = self.eval_integer(&args[0])?;
                        hi = self.eval_integer(&args[1])?;
                    }
                    _ => return Err(err(span, "range takes one or two arguments")),
                }
                Ok(Evaluated::Const(Value::List(
                    (lo..hi).map(|i| Value::Num(i as f64)).collect(),
                )))
            }
            "binspace" => {
                let mut bounds = Vec::new();
                for a in args {
                    bounds.push(self.eval_number(a)?);
                }
                let mut n = None;
                for (k, v) in kwargs {
                    if k != "n" {
                        return Err(err(span, format!("unknown keyword {k} for binspace")));
                    }
                    n = Some(self.eval_number(v)?);
                }
                ops::binspace(&bounds, n)
                    .map(Evaluated::Const)
                    .map_err(at(span))
            }
            "array" => Err(err(span, "array(n) is only valid as `name = array(n)`")),
            _ => self.eval_distribution(func, args, kwargs, span),
        }
    }

    fn eval_number(&mut self, e: &Expr) -> Result<f64, LangError> {
        match self.eval(e)? {
            Evaluated::Const(Value::Num(n)) => Ok(n),
            other => Err(err(
                e.span(),
                format!("expected a constant number (R4), got {other:?}"),
            )),
        }
    }

    /// Distribution constructors. Parameters must be compile-time
    /// constants (restriction R4).
    fn eval_distribution(
        &mut self,
        func: &str,
        args: &[Expr],
        kwargs: &[(String, Expr)],
        span: Span,
    ) -> Result<Evaluated, LangError> {
        // Gather numeric parameters by position and keyword.
        let mut pos = Vec::new();
        let mut dict = None;
        for a in args {
            if let Expr::Dict(items, _) = a {
                let mut pairs = Vec::new();
                for (k, v) in items {
                    let key = match self.eval(k)? {
                        Evaluated::Const(c) => c,
                        other => {
                            return Err(err(
                                k.span(),
                                format!("dict key must be constant: {other:?}"),
                            ))
                        }
                    };
                    pairs.push((key, Some(self.eval_number(v)?)));
                }
                dict = Some(pairs);
            } else {
                pos.push(Some(self.eval_number(a)?));
            }
        }
        let mut named = Vec::new();
        for (k, v) in kwargs {
            named.push((k.as_str(), Some(self.eval_number(v)?)));
        }
        Family::named(func)
            .and_then(|family| family.build(&pos, &named, dict.as_deref()))
            .map(Evaluated::Dist)
            .map_err(at(span))
    }
}

fn compare_pair(
    op: CmpOp,
    lhs: &Evaluated,
    rhs: &Evaluated,
    span: Span,
) -> Result<Link, LangError> {
    use Evaluated::{Const, Rv};
    match (lhs, rhs) {
        (Const(a), Const(b)) => ops::static_compare(op, a, b)
            .map(Link::Static)
            .map_err(at(span)),
        (Rv(t), Const(v)) => ops::rv_compare(op, t, v, false)
            .map(Link::Event)
            .map_err(at(span)),
        (Const(v), Rv(t)) => ops::rv_compare(op, t, v, true)
            .map(Link::Event)
            .map_err(at(span)),
        (Rv(_), Rv(_)) => Err(err(
            span,
            "comparisons between two random expressions are not expressible (R3)",
        )),
        (a, b) => Err(err(span, format!("cannot compare {a:?} with {b:?}"))),
    }
}

/// The effective guards of a first-match chain — an `if`/`elif` chain or
/// a desugared `switch` — whose arms carry the guards `g₀ … g_{K−1}`.
/// Returns one event per arm, where arm `i` fires when `g_i` holds and
/// no earlier guard did, and the `else` event, which fires when no guard
/// held.
///
/// When every guard is one literal `t ∈ S_i` on the same transform `t`,
/// the chain is solved once, with a running "not yet matched" set `rem`:
/// arm `i` gets the single literal `t ∈ rem ∩ S_i` and the `else` gets
/// `t ∈ rem`. Any other chain gets the conjunctions `¬g₀ ∧ … ∧ ¬g_{i−1} ∧
/// g_i` and `¬g₀ ∧ … ∧ ¬g_{K−1}`, whose arm `i` re-solves `i + 1`
/// literals. Preimages distribute over `∩`, so both forms denote the
/// same outcomes; the literal form only avoids the cubic re-solving.
pub fn first_match_guards(guards: &[Event]) -> (Vec<Event>, Event) {
    let Some((t, first, rest)) = single_subject(guards) else {
        let mut arms = Vec::with_capacity(guards.len());
        let mut negations: Vec<Event> = Vec::with_capacity(guards.len());
        for guard in guards {
            let mut parts = negations.clone();
            parts.push(guard.clone());
            arms.push(Event::and(parts));
            negations.push(guard.negate());
        }
        return (arms, Event::and(negations));
    };
    // Arm 0 keeps its guard verbatim, so a one-arm chain's `else` is
    // exactly `¬g₀`.
    let mut arms = vec![Event::In(t.clone(), first.clone())];
    let mut rem = first.complement();
    for set in rest {
        arms.push(Event::In(t.clone(), rem.intersection(set)));
        rem = rem.difference(set);
    }
    (arms, Event::In(t.clone(), rem))
}

/// The shared transform, first guard set and remaining guard sets of a
/// chain whose every guard is one `t ∈ S` literal on the same `t`;
/// `None` for an empty chain or any other guard shape.
fn single_subject(guards: &[Event]) -> Option<(&Transform, &OutcomeSet, Vec<&OutcomeSet>)> {
    let (Event::In(t, first), rest) = guards.split_first()? else {
        return None;
    };
    let rest = rest
        .iter()
        .map(|guard| match guard {
            Event::In(u, set) if u == t => Some(set),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    Some((t, first, rest))
}

fn is_always(e: &Event) -> bool {
    matches!(e, Event::And(v) if v.is_empty())
}

fn is_never(e: &Event) -> bool {
    matches!(e, Event::Or(v) if v.is_empty())
}

/// The `(Transform-*)` rules of Lst. 3: attach a derived variable
/// `name := t(base)` to the leaf owning `base`.
fn attach_derived(
    factory: &Factory,
    spe: &Spe,
    name: &Var,
    base: &Var,
    t: &Transform,
) -> Result<Spe, sppl_core::SpplError> {
    match spe.node() {
        Node::Leaf { var, dist, env, .. } => {
            let resolved = if base == var {
                t.clone()
            } else if let Some(base_t) = env.get(base) {
                t.substitute(base, base_t)
            } else {
                return Err(sppl_core::SpplError::UnknownVariable {
                    var: base.name().into(),
                });
            };
            let mut new_env = env.clone();
            new_env = new_env.with(name.clone(), resolved);
            factory.leaf_env(var.clone(), dist.clone(), new_env)
        }
        Node::Sum { children, .. } => {
            let parts: Result<Vec<(Spe, f64)>, _> = children
                .iter()
                .map(|(c, w)| attach_derived(factory, c, name, base, t).map(|s| (s, *w)))
                .collect();
            factory.sum(parts?)
        }
        Node::Product { children, .. } => {
            let mut out = Vec::with_capacity(children.len());
            let mut attached = false;
            for c in children {
                if !attached && c.scope().contains(base) {
                    out.push(attach_derived(factory, c, name, base, t)?);
                    attached = true;
                } else {
                    out.push(c.clone());
                }
            }
            if !attached {
                return Err(sppl_core::SpplError::UnknownVariable {
                    var: base.name().into(),
                });
            }
            factory.product(out)
        }
    }
}

trait PopChecked<T> {
    fn pop_checked(self) -> T;
}

impl<T> PopChecked<T> for Vec<T> {
    fn pop_checked(mut self) -> T {
        self.pop().expect("nonempty by construction")
    }
}
