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
//! Expressions are evaluated by the one evaluator in [`crate::eval`],
//! which the static analyzer also runs; the translator's [`Scope`] stops
//! at the first failure.

use std::collections::{BTreeSet, HashMap};

use sppl_core::condition::condition;
use sppl_core::event::Event;
use sppl_core::spe::{Factory, Node, Spe};
use sppl_core::transform::Transform;
use sppl_core::var::Var;
use sppl_dists::Distribution;
use sppl_sets::OutcomeSet;

use crate::ast::{Command, Expr, Program, Target};
use crate::diagnostics::{LangError, LintCode, Span};
use crate::dists::DistSpec;
use crate::eval::{self, Scope, Val};
pub use crate::ops::Value;
use crate::ops::{self, EvalError};

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
    let mut t = Translator {
        factory,
        state: State::default(),
    };
    t.exec_all(&program.commands)?;
    t.state
        .spe
        .ok_or_else(|| err(Span::unknown(), "program defines no random variables"))
}

#[derive(Debug, Clone, Default)]
struct State {
    spe: Option<Spe>,
    consts: HashMap<String, Value>,
    arrays: HashMap<String, usize>,
    rvs: BTreeSet<String>,
}

/// The stateful program translator behind [`translate`].
struct Translator<'f> {
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

/// A result of the evaluator, which is `None` only when a value is not
/// known or after a failure; the translator knows every value, and its
/// scope stops at the first failure.
fn known<T>(v: Option<T>, span: Span) -> Result<T, LangError> {
    v.ok_or_else(|| err(span, EvalError::Unknown.to_string()))
}

impl Scope for Translator<'_> {
    type Stop = LangError;

    fn lookup(&mut self, name: &str) -> Option<Val> {
        if let Some(v) = self.state.consts.get(name) {
            return Some(Val::Const(v.clone()));
        }
        self.state
            .rvs
            .contains(name)
            .then(|| Val::Rv(Transform::id(name)))
    }

    fn array(&self, name: &str) -> Option<Option<usize>> {
        self.state.arrays.get(name).map(|&size| Some(size))
    }

    fn sampled(&self, _array: &str, element: &str) -> bool {
        self.state.rvs.contains(element)
    }

    fn fail(&mut self, _code: LintCode, span: Span, message: String) -> Result<(), LangError> {
        Err(err(span, message))
    }
}

impl Translator<'_> {
    fn exec_all(&mut self, commands: &[Command]) -> Result<(), LangError> {
        for c in commands {
            self.exec(c)?;
        }
        Ok(())
    }

    fn exec(&mut self, cmd: &Command) -> Result<(), LangError> {
        match cmd {
            Command::Skip => Ok(()),
            Command::Assign { target, expr, span } => self.exec_assign(target, expr, *span),
            Command::Sample { target, expr, span } => self.exec_sample(target, expr, *span),
            Command::Condition { expr, span } => {
                let ev = known(eval::event(self, expr)?, expr.span())?;
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
                    .map(|(guard, _)| known(eval::event(self, guard)?, guard.span()))
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
                let lo = known(eval::integer(self, lo)?, lo.span())?;
                let hi = known(eval::integer(self, hi)?, hi.span())?;
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
                let subject_eval = eval::eval(self, subject)?;
                let values = match eval::eval(self, values)? {
                    Val::Const(Value::List(vs)) => vs,
                    other => {
                        return Err(err(
                            *span,
                            format!("switch cases must be a constant list, got {other:?}"),
                        ))
                    }
                };
                match subject_eval {
                    Val::Const(v) => {
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
                    Val::Rv(t) => {
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
                let n = known(eval::integer(self, &args[0])?, args[0].span())?;
                if n < 0 {
                    return Err(err(span, "array size must be nonnegative"));
                }
                self.state.arrays.insert(name.clone(), n as usize);
                return Ok(());
            }
        }
        let name = known(eval::target(self, target, span)?, span)?;
        match eval::eval(self, expr)? {
            Val::Const(v) => {
                if self.state.rvs.contains(&name) {
                    return Err(err(
                        span,
                        format!("cannot rebind random variable {name} as a constant (R1)"),
                    ));
                }
                self.state.consts.insert(name, v);
                Ok(())
            }
            Val::Rv(t) => {
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
            Val::Dist(_) | Val::Family(_) => Err(err(
                span,
                "distributions are sampled with `~`, not assigned with `=`",
            )),
            Val::Event(_) => Err(err(
                span,
                "events cannot be assigned to variables; use condition(...)",
            )),
            Val::Unknown => known(None, span),
        }
    }

    fn exec_sample(&mut self, target: &Target, expr: &Expr, span: Span) -> Result<(), LangError> {
        let name = known(eval::target(self, target, span)?, span)?;
        self.check_fresh(&name, span)?;
        let spec = match eval::eval(self, expr)? {
            Val::Dist(spec) => spec,
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
