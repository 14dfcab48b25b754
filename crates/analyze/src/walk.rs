//! The command walker: an abstract interpreter over [`Program`] that
//! mirrors the translator's control flow (branch events, joins, loop
//! unrolling, switch desugaring) without building any sum-product
//! expression.
//!
//! Branch-liveness facts are collected as *votes*: a program point inside
//! a loop is visited once per unrolled iteration, and a "dead branch" /
//! "tautological guard" lint is only emitted when every visit agreed.
//! Pruning *guts* a dead branch (empties its body) rather than deleting
//! the arm: the guard expression — and therefore every sibling branch
//! event the translator builds from its negation — survives verbatim, so
//! the translated expression is bit-identical by construction (the
//! translator never evaluates the body of a probability-zero branch, and
//! "dead" is decided on symbolic sets, so the runtime guard probability
//! is exactly zero).
//!
//! A branch forks the environment once per may-live arm. The fork is
//! O(1) (the maps that grow with the program are persistent), each arm
//! starts with an empty [`Env::changed`] log, and [`Env::join`] visits
//! only the names the arms logged, so an arm costs what it changes, not
//! the size of the program before it. The join, and an all-dead
//! branch, carry the enclosing arm's log forward, so an outer join
//! still sees what that arm changed.

use std::collections::HashMap;

use sppl_core::event::Event;
use sppl_lang::ast::{Command, Expr, Target};
use sppl_lang::diagnostics::{Diagnostic, LintCode, Severity, Span};
use sppl_lang::ops::{case_event, static_case_matches, Value};
use sppl_lang::translate::first_match_guards;
use sppl_sets::OutcomeSet;

use crate::env::{ConstVal, Env};
use crate::eval::AbsValue;
use crate::sat;

/// How many loop iterations the analyzer will unroll in total before
/// degrading to a single havoc pass over the body.
const UNROLL_FUEL: i128 = 10_000;

/// What a vote at a span is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum VoteKind {
    /// An `if`/`elif` arm is dead (keyed by the guard's span + index).
    ArmDead,
    /// An explicit `else` body is dead (keyed by the `if` span).
    ElseDead,
    /// A `switch` case is dead (keyed by the values expression + index).
    CaseDead,
    /// A guard is statically always true (`W103`).
    Taut,
    /// A `condition(...)` is statically always true (`W105`).
    Trivial,
}

pub(crate) type VoteKey = (Span, usize, VoteKind);

/// Aggregated verdict for one program point across all visits.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Fate {
    pub visits: u32,
    pub yes: u32,
    /// Whether this vote kind supports pruning at all: dead `if` arms and
    /// `else` bodies can be gutted; a `switch` case's body is shared by
    /// every case, so it never can.
    pub removable: bool,
}

struct BranchPlan<'a> {
    /// Resolved branch event; `None` when unknown (always may-live).
    effective: Option<Event>,
    body: &'a [Command],
    binding: Option<(&'a str, ConstVal)>,
    vote: Option<(VoteKey, bool)>,
}

pub(crate) struct Walker {
    pub(crate) env: Env,
    pub(crate) diags: Vec<Diagnostic>,
    /// Suppress diagnostics (havoc passes over loop bodies whose bounds
    /// are unknown); votes are still recorded.
    pub(crate) quiet: bool,
    /// Depth of possibly-dead branch context. The translator never
    /// evaluates the body of a probability-zero branch, so error-level
    /// findings inside a possibly-dead branch degrade to warnings.
    branch_depth: u32,
    /// Constant definitions for the unused-variable lint:
    /// name → (first definition, ever read).
    const_defs: HashMap<String, (Span, bool)>,
    pub(crate) votes: HashMap<VoteKey, Fate>,
    fuel: i128,
}

impl Walker {
    pub(crate) fn new() -> Walker {
        Walker {
            env: Env::new(),
            diags: Vec::new(),
            quiet: false,
            branch_depth: 0,
            const_defs: HashMap::new(),
            votes: HashMap::new(),
            fuel: UNROLL_FUEL,
        }
    }

    /// Emits a diagnostic, applying the quiet and branch-context
    /// policies.
    pub(crate) fn diag<S: Into<String>>(&mut self, code: LintCode, span: Span, message: S) {
        if self.quiet {
            return;
        }
        let mut d = Diagnostic::new(code, span, message.into());
        if d.severity == Severity::Error && self.branch_depth > 0 {
            // The surrounding branch may have probability zero at
            // runtime, in which case the translator never reaches this
            // point: report, but do not fail the compile.
            d.severity = Severity::Warning;
        }
        self.diags.push(d);
    }

    pub(crate) fn mark_used(&mut self, name: &str) {
        if let Some(entry) = self.const_defs.get_mut(name) {
            entry.1 = true;
        }
    }

    fn register_def(&mut self, name: &str, span: Span) {
        self.const_defs
            .entry(name.to_string())
            .or_insert((span, false));
    }

    /// Names whose constant definition was never read.
    pub(crate) fn unused_consts(&self) -> Vec<(String, Span)> {
        self.const_defs
            .iter()
            .filter(|(_, (_, used))| !used)
            .map(|(name, (span, _))| (name.clone(), *span))
            .collect()
    }

    fn vote(&mut self, key: VoteKey, yes: bool, removable: bool) {
        let fate = self.votes.entry(key).or_insert(Fate {
            visits: 0,
            yes: 0,
            removable: true,
        });
        fate.visits += 1;
        if yes {
            fate.yes += 1;
        }
        fate.removable &= removable;
    }

    pub(crate) fn exec_all(&mut self, commands: &[Command]) {
        for c in commands {
            self.exec(c);
        }
    }

    fn exec(&mut self, cmd: &Command) {
        match cmd {
            Command::Skip => {}
            Command::Assign { target, expr, span } => self.exec_assign(target, expr, *span),
            Command::Sample { target, expr, span } => self.exec_sample(target, expr, *span),
            Command::Condition { expr, span } => self.exec_condition(expr, *span),
            Command::If {
                arms,
                otherwise,
                span,
            } => self.exec_if(arms, otherwise.as_deref(), *span),
            Command::For {
                var,
                lo,
                hi,
                body,
                span: _,
            } => self.exec_for(var, lo, hi, body),
            Command::Switch {
                subject,
                binder,
                values,
                body,
                span: _,
            } => self.exec_switch(subject, binder, values, body),
        }
    }

    fn exec_assign(&mut self, target: &Target, expr: &Expr, span: Span) {
        // Array declaration: `X = array(n)`.
        if let Expr::Call { func, args, .. } = expr {
            if func == "array" {
                let Target::Var(name) = target else {
                    return; // the translator rejects this form
                };
                if args.len() != 1 {
                    return;
                }
                let size = match self.eval_integer(&args[0]) {
                    Some(n) if n >= 0 => Some(n as usize),
                    Some(_) => return, // negative size: translator error
                    None => None,
                };
                if size.is_none() {
                    self.env.havoc_arrays.insert(name.clone());
                }
                self.env.arrays.insert(name.clone(), size);
                return;
            }
        }
        let Some(name) = self.resolve_target(target, span) else {
            return;
        };
        match self.eval(expr) {
            AbsValue::Const(v) => {
                if self.env.is_defined(&name) {
                    self.diag(
                        LintCode::Redefinition,
                        span,
                        format!("cannot rebind random variable {name} as a constant (R1)"),
                    );
                    return;
                }
                self.register_def(&name, span);
                self.env.consts.insert(name, ConstVal::Known(v));
            }
            AbsValue::Top => {
                if self.env.is_defined(&name) {
                    self.diag(
                        LintCode::Redefinition,
                        span,
                        format!("variable {name} is already defined (R1)"),
                    );
                    return;
                }
                self.register_def(&name, span);
                self.env.consts.insert(name, ConstVal::Unknown);
            }
            AbsValue::Rv(t) => {
                if self.check_fresh(&name, span) {
                    return;
                }
                let resolved = self.env.resolve_transform(&t);
                match resolved.the_var() {
                    Some(base) => {
                        let base = base.name().to_string();
                        self.env.define_derived(&name, &base, resolved);
                    }
                    // R3 violation (multi-variable transform): the
                    // translator reports it; stay permissive here.
                    None => self.env.define_base(&name, OutcomeSet::all()),
                }
            }
            // `X = normal(0,1)` / `X = (Y > 0)`: translator errors with
            // its own message; define the name to avoid cascading E001s.
            AbsValue::Dist(support) => self.env.define_base(&name, support),
            AbsValue::Event(_) => self.env.define_base(&name, OutcomeSet::all()),
        }
    }

    fn exec_sample(&mut self, target: &Target, expr: &Expr, span: Span) {
        let Some(name) = self.resolve_target(target, span) else {
            // Element of a havoc array (or unresolvable index): walk the
            // RHS for its own diagnostics, then give up on the binding.
            self.eval(expr);
            return;
        };
        if self.check_fresh(&name, span) {
            return;
        }
        match self.eval(expr) {
            AbsValue::Dist(support) => self.env.define_base(&name, support),
            // Not a distribution (translator error) or unknown: keep the
            // name defined so later uses do not cascade.
            _ => self.env.define_base(&name, OutcomeSet::all()),
        }
    }

    /// The translator's `check_fresh` as a lint; `true` means the name
    /// is definitely taken (diagnostic emitted, skip the definition).
    fn check_fresh(&mut self, name: &str, span: Span) -> bool {
        if self.env.is_defined(name) {
            self.diag(
                LintCode::Redefinition,
                span,
                format!("variable {name} is already defined (R1)"),
            );
            return true;
        }
        if let Some(ConstVal::Known(_)) = self.env.consts.get(name) {
            self.diag(
                LintCode::Redefinition,
                span,
                format!("variable {name} shadows a constant"),
            );
            return true;
        }
        // `ConstVal::Unknown` may not exist at runtime: stay silent and
        // let the definition proceed (the translator decides).
        false
    }

    fn resolve_target(&mut self, target: &Target, span: Span) -> Option<String> {
        match target {
            Target::Var(name) => Some(name.clone()),
            Target::Indexed(name, idx) => {
                if !self.env.arrays.contains_key(name) {
                    self.diag(
                        LintCode::UseBeforeDefine,
                        span,
                        format!("array {name} is not declared (use {name} = array(n))"),
                    );
                    return None;
                }
                self.element_name(name, idx, span)
            }
        }
    }

    fn exec_condition(&mut self, expr: &Expr, span: Span) {
        let v = self.eval(expr);
        let Some(e) = self.coerce_event(v) else {
            return;
        };
        let resolved = sat::resolve_event(&e, &self.env);
        if !sat::may_sat(&resolved, &self.env) {
            self.diag(
                LintCode::UnsatisfiableCondition,
                span,
                "condition is statically unsatisfiable (the event is disjoint \
                 from the inferred support)",
            );
            // Refining would empty the supports and drown everything
            // after this point in follow-on diagnostics.
            return;
        }
        let trivially_true = !sat::may_sat(&resolved.negate(), &self.env);
        self.vote((span, 0, VoteKind::Trivial), trivially_true, false);
        sat::refine(&mut self.env, &resolved);
    }

    fn exec_if(
        &mut self,
        arms: &[(Expr, Vec<Command>)],
        otherwise: Option<&[Command]>,
        span: Span,
    ) {
        // Evaluate every guard in the pre-branch environment, exactly as
        // the translator does.
        let guards: Vec<Option<Event>> = arms
            .iter()
            .map(|(g, _)| {
                let v = self.eval(g);
                self.coerce_event(v)
                    .map(|e| sat::resolve_event(&e, &self.env))
            })
            .collect();
        let (effective, else_guard) = first_match(&guards);
        let mut plans: Vec<BranchPlan> = Vec::new();
        for (i, (((gexpr, body), guard), effective)) in
            arms.iter().zip(&guards).zip(effective).enumerate()
        {
            if let Some(g) = guard {
                let has_later = i + 1 < arms.len() || otherwise.is_some();
                if has_later {
                    let taut = !sat::may_sat(&g.negate(), &self.env);
                    self.vote((gexpr.span(), i, VoteKind::Taut), taut, false);
                }
            }
            plans.push(BranchPlan {
                effective,
                body,
                binding: None,
                vote: Some(((gexpr.span(), i, VoteKind::ArmDead), true)),
            });
        }
        // The implicit else: no known guard held. Only an explicit else
        // body gets a vote (there is nothing to lint or prune in an
        // absent one).
        let else_known = guards.iter().all(Option::is_some);
        plans.push(BranchPlan {
            effective: else_known.then_some(else_guard),
            body: otherwise.unwrap_or(&[]),
            binding: None,
            vote: otherwise.map(|_| ((span, 0, VoteKind::ElseDead), true)),
        });
        self.walk_branches(plans, span);
    }

    fn exec_switch(&mut self, subject: &Expr, binder: &str, values: &Expr, body: &[Command]) {
        let subject_eval = self.eval(subject);
        let vals = match self.eval(values) {
            AbsValue::Const(Value::List(vs)) => Some(vs),
            _ => None,
        };
        match (subject_eval, vals) {
            (AbsValue::Const(v), Some(vals)) => {
                // Static dispatch: only the matching case runs.
                for case in &vals {
                    if static_case_matches(&v, case) {
                        self.env
                            .consts
                            .insert(binder.to_string(), ConstVal::Known(case.clone()));
                        self.exec_all(body);
                        self.env.consts.remove(binder);
                        return;
                    }
                }
                // No match: translator error; nothing runs.
            }
            (AbsValue::Rv(t), Some(vals)) => {
                let resolved = self.env.resolve_transform(&t);
                let guards: Vec<Option<Event>> = vals
                    .iter()
                    .map(|case| case_event(&resolved, case).ok())
                    .collect();
                // First match, as in the translator: a repeated value's
                // later case is dead.
                let (effective, else_guard) = first_match(&guards);
                let mut plans: Vec<BranchPlan> = Vec::new();
                for (i, (case, effective)) in vals.iter().zip(effective).enumerate() {
                    plans.push(BranchPlan {
                        effective,
                        body,
                        binding: Some((binder, ConstVal::Known(case.clone()))),
                        vote: Some(((values.span(), i, VoteKind::CaseDead), false)),
                    });
                }
                // Implicit empty else catches uncovered support.
                plans.push(BranchPlan {
                    effective: Some(else_guard),
                    body: &[],
                    binding: None,
                    vote: None,
                });
                self.walk_branches(plans, subject.span());
            }
            // Unknown subject or case list: one havoc pass over the body.
            (AbsValue::Top, _) | (_, None) => self.havoc_block(body, &[binder]),
            // Const/Dist/Event subjects with known values: the
            // translator rejects them; the body never runs.
            _ => {}
        }
    }

    fn exec_for(&mut self, var: &str, lo: &Expr, hi: &Expr, body: &[Command]) {
        let (Some(lo), Some(hi)) = (self.eval_integer(lo), self.eval_integer(hi)) else {
            self.havoc_block(body, &[var]);
            return;
        };
        if hi < lo {
            return; // empty range: translator error, body never runs
        }
        let count = i128::from(hi) - i128::from(lo);
        if count > self.fuel {
            self.havoc_block(body, &[var]);
            return;
        }
        self.fuel -= count;
        let saved = self.env.consts.get(var).cloned();
        for i in lo..hi {
            self.env
                .consts
                .insert(var.to_string(), ConstVal::Known(Value::Num(i as f64)));
            self.exec_all(body);
        }
        match saved {
            Some(v) => self.env.consts.insert(var.to_string(), v),
            None => self.env.consts.remove(var),
        };
    }

    /// Shared machinery for `if`/`elif`/`else` and desugared `switch`:
    /// decide liveness per branch, walk the may-live bodies in refined
    /// child environments, and join the results.
    fn walk_branches(&mut self, plans: Vec<BranchPlan>, span: Span) {
        let parent = self.env.clone();
        let mut survivors: Vec<Env> = Vec::new();
        for plan in plans {
            let live = match &plan.effective {
                Some(e) => sat::may_sat(e, &parent),
                None => true,
            };
            if let Some((key, removable)) = plan.vote {
                self.vote(key, !live, removable);
            }
            if !live {
                continue;
            }
            self.env = parent.fork();
            let definitely_entered = matches!(&plan.effective, Some(e) if event_is_always(e));
            if let Some(e) = &plan.effective {
                sat::refine(&mut self.env, e);
            }
            if let Some((name, value)) = &plan.binding {
                self.env.consts.insert((*name).to_string(), value.clone());
            }
            if !definitely_entered {
                self.branch_depth += 1;
            }
            self.exec_all(plan.body);
            if !definitely_entered {
                self.branch_depth -= 1;
            }
            if let Some((name, _)) = &plan.binding {
                self.env.consts.remove(*name);
            }
            survivors.push(std::mem::take(&mut self.env));
        }
        if survivors.is_empty() {
            self.diag(
                LintCode::AllBranchesDead,
                span,
                "all branches are statically dead (every guard is disjoint \
                 from the inferred support)",
            );
            self.env = parent;
            return;
        }
        self.env = Env::join(&parent, survivors);
    }

    /// Walks a body whose iteration structure is unknown: one quiet pass
    /// for votes and use tracking, then conservative damage to the
    /// environment (constants it wrote become unknown, variables it
    /// defined become maybe-defined, arrays it touched become havoc).
    fn havoc_block(&mut self, body: &[Command], binders: &[&str]) {
        let saved = self.env.clone();
        let was_quiet = self.quiet;
        self.quiet = true;
        for b in binders {
            self.env.consts.insert((*b).to_string(), ConstVal::Unknown);
        }
        self.exec_all(body);
        self.quiet = was_quiet;
        let pass = std::mem::replace(&mut self.env, saved);
        for (name, val) in &pass.consts {
            if binders.contains(&name.as_str()) {
                continue;
            }
            if self.env.consts.get(name) != Some(val) {
                self.env.consts.insert(name.clone(), ConstVal::Unknown);
            }
        }
        for (name, size) in &pass.arrays {
            match self.env.arrays.get(name) {
                Some(existing) if existing == size => {}
                Some(_) => {
                    self.env.arrays.insert(name.clone(), None);
                    self.env.havoc_arrays.insert(name.clone());
                }
                None => {
                    self.env.arrays.insert(name.clone(), *size);
                    self.env.havoc_arrays.insert(name.clone());
                }
            }
        }
        for name in pass.defined() {
            if !self.env.is_defined(name) {
                self.env.maybe_rvs.insert(name.clone());
            }
        }
        self.env.havoc_arrays.extend(pass.havoc_arrays);
        self.env.maybe_rvs.extend(pass.maybe_rvs);
        // Supports of pre-existing variables keep their pre-loop values:
        // conditioning inside the body only narrows them, so the saved
        // sets remain over-approximations.
    }
}

/// The translator's [`first_match_guards`] over a chain whose guards the
/// analyzer may not know: an unknown guard's arm stays unknown (`None`,
/// always may-live) and excludes nothing from later arms, and the
/// returned `else` event is "no known guard held".
fn first_match(guards: &[Option<Event>]) -> (Vec<Option<Event>>, Event) {
    let known: Vec<Event> = guards.iter().flatten().cloned().collect();
    let (solved, otherwise) = first_match_guards(&known);
    let mut solved = solved.into_iter();
    let arms = guards
        .iter()
        .map(|guard| guard.as_ref().and_then(|_| solved.next()))
        .collect();
    (arms, otherwise)
}

fn event_is_always(e: &Event) -> bool {
    match e {
        Event::In(..) => false,
        Event::And(children) => children.iter().all(event_is_always),
        Event::Or(children) => children.iter().any(event_is_always),
    }
}

/// Guts (empties the body of) every arm and `else` block that all visits
/// proved dead; recurses into live bodies. The guards themselves are
/// kept, so the translator builds the exact same branch events — a
/// gutted branch has guard probability exactly zero at runtime and is
/// skipped before its (now empty) body would run, making the pruned
/// translation bit-identical to the original.
pub(crate) fn prune_commands(
    cmds: &[Command],
    prunable: &dyn Fn(&VoteKey) -> bool,
) -> Vec<Command> {
    cmds.iter()
        .map(|c| match c {
            Command::If {
                arms,
                otherwise,
                span,
            } => {
                let new_arms: Vec<(Expr, Vec<Command>)> = arms
                    .iter()
                    .enumerate()
                    .map(|(i, (g, b))| {
                        let body = if prunable(&(g.span(), i, VoteKind::ArmDead)) {
                            Vec::new()
                        } else {
                            prune_commands(b, prunable)
                        };
                        (g.clone(), body)
                    })
                    .collect();
                let new_else = otherwise.as_ref().map(|b| {
                    if prunable(&(*span, 0, VoteKind::ElseDead)) {
                        Vec::new()
                    } else {
                        prune_commands(b, prunable)
                    }
                });
                Command::If {
                    arms: new_arms,
                    otherwise: new_else,
                    span: *span,
                }
            }
            Command::For {
                var,
                lo,
                hi,
                body,
                span,
            } => Command::For {
                var: var.clone(),
                lo: lo.clone(),
                hi: hi.clone(),
                body: prune_commands(body, prunable),
                span: *span,
            },
            Command::Switch {
                subject,
                binder,
                values,
                body,
                span,
            } => Command::Switch {
                subject: subject.clone(),
                binder: binder.clone(),
                values: values.clone(),
                body: prune_commands(body, prunable),
                span: *span,
            },
            other => other.clone(),
        })
        .collect()
}
