//! The abstract state threaded through the analysis: per-variable support
//! over-approximations, compile-time constants, arrays, and the
//! derived-variable map.
//!
//! Soundness contract: every support in [`Env::supports`] is an
//! **over-approximation** of the variable's true support at that program
//! point. Verdicts of the form "definitely unsatisfiable" / "definitely
//! dead" are therefore sound, while "may be satisfiable" is best-effort.
//!
//! The three maps that grow with the program (`rvs`, `supports`,
//! `derived`) are persistent ([`PMap`]), so forking the environment for
//! a branch arm is O(1). Every change to them goes through
//! [`Env::define_base`], [`Env::define_derived`] or [`Env::narrow`],
//! which log the name in [`Env::changed`]. An arm starts with an empty
//! log, and [`Env::join`] visits only the names the arms logged (plus
//! the parent's [`Env::unbound`] names, whose entries it drops): every
//! other name keeps the parent's entry, which is what the per-name join
//! gives a name no arm changed.

use std::collections::{BTreeSet, HashMap};

use sppl_core::transform::Transform;
use sppl_lang::ops::Value;
use sppl_sets::OutcomeSet;

use crate::pmap::{PMap, PSet};

/// A compile-time constant as the analyzer sees it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ConstVal {
    /// The exact value is known.
    Known(Value),
    /// The name is (possibly) defined but its value was lost at a join.
    Unknown,
}

/// The abstract environment at a program point.
#[derive(Clone, Default)]
pub(crate) struct Env {
    /// Compile-time constants.
    pub consts: HashMap<String, ConstVal>,
    /// Declared arrays; `None` size when lost at a join.
    pub arrays: HashMap<String, Option<usize>>,
    /// Arrays whose element set is unknown (declared inside an
    /// un-unrollable loop): uses and definitions of their elements are
    /// accepted without use-before-define / redefinition checks.
    pub havoc_arrays: BTreeSet<String>,
    /// Every definitely-defined random-variable name (base and derived).
    rvs: PSet<String>,
    /// Names defined on only *some* of the possibly-live paths of a
    /// join. Uses and redefinitions of these are accepted silently: the
    /// translator decides at runtime (a definitely-multi-survivor join
    /// is an R2 violation it reports itself).
    pub maybe_rvs: BTreeSet<String>,
    /// Over-approximate support of each *base* random variable.
    supports: PMap<String, OutcomeSet>,
    /// Derived variable → (base variable, transform over that base).
    derived: PMap<String, (String, Transform)>,
    /// Names with a `supports` entry that are not in `rvs`: a
    /// maybe-defined name or a havoc-array element that a condition or
    /// guard narrowed. A join of several arms drops their entries.
    unbound: BTreeSet<String>,
    /// Names whose `rvs`, `supports` or `derived` entry changed since
    /// the innermost enclosing branch arm began.
    changed: PSet<String>,
}

impl Env {
    pub(crate) fn new() -> Env {
        Env::default()
    }

    /// A copy for one branch arm: O(1), with an empty change log.
    pub(crate) fn fork(&self) -> Env {
        Env {
            changed: PSet::default(),
            ..self.clone()
        }
    }

    /// Whether `name` is a definitely-defined random variable.
    pub(crate) fn is_defined(&self, name: &str) -> bool {
        self.rvs.contains(name)
    }

    /// The definitely-defined random-variable names, in order.
    pub(crate) fn defined(&self) -> impl Iterator<Item = &String> {
        self.rvs.iter()
    }

    /// The transform over its base variable that defines `name`, when
    /// `name` is derived.
    pub(crate) fn derived_transform(&self, name: &str) -> Option<&Transform> {
        self.derived.get(name).map(|(_, t)| t)
    }

    /// The over-approximate support of `name` (`all` when untracked —
    /// always a safe answer).
    pub(crate) fn support_of(&self, name: &str) -> OutcomeSet {
        self.supports
            .get(name)
            .cloned()
            .unwrap_or_else(OutcomeSet::all)
    }

    /// Defines `name` as a base random variable with the given support.
    pub(crate) fn define_base(&mut self, name: &str, support: OutcomeSet) {
        self.bind(name);
        self.derived.remove(name);
        self.supports.insert(name.to_string(), support);
    }

    /// Defines `name` as `t(base)`.
    pub(crate) fn define_derived(&mut self, name: &str, base: &str, t: Transform) {
        self.bind(name);
        self.supports.remove(name);
        self.derived.insert(name.to_string(), (base.to_string(), t));
    }

    /// Makes `name` definitely defined, and logs it.
    fn bind(&mut self, name: &str) {
        self.rvs.insert(name.to_string());
        self.maybe_rvs.remove(name);
        self.unbound.remove(name);
        self.changed.insert(name.to_string());
    }

    /// Replaces the support of `name` with a narrower one, and logs it.
    pub(crate) fn narrow(&mut self, name: &str, support: OutcomeSet) {
        if !self.rvs.contains(name) {
            self.unbound.insert(name.to_string());
        }
        self.changed.insert(name.to_string());
        self.supports.insert(name.to_string(), support);
    }

    /// Rewrites a transform so it only mentions base variables.
    pub(crate) fn resolve_transform(&self, t: &Transform) -> Transform {
        let mut out = t.clone();
        for v in t.vars() {
            if let Some(bt) = self.derived_transform(v.name()) {
                out = out.substitute(&v, bt);
            }
        }
        out
    }

    /// Joins the environments of the possibly-live branches of an
    /// `if`/`switch`, mirroring the translator's semantics: a single
    /// survivor keeps its whole state; multiple survivors discard
    /// branch-local constant/array changes (the translator `mem::take`s
    /// the pre-branch maps) — except that, because the analyzer only
    /// knows *may*-liveness, values that might survive degrade to
    /// [`ConstVal::Unknown`] rather than disappearing (never a false
    /// use-before-define).
    ///
    /// Each survivor forked from `parent` with an empty
    /// [`Env::changed`] log. Only the logged names and the parent's
    /// [`Env::unbound`] names are visited. The result carries the
    /// parent's log, so an enclosing join still sees what its arm
    /// changed before this branch: a single survivor adds its own log,
    /// and several add every name they keep defined (`define_*` logs
    /// it). A name whose entries they drop had none when the enclosing
    /// arm began, or was narrowed in that arm (and logged), or is in the
    /// enclosing parent's `unbound`, which the enclosing join visits.
    pub(crate) fn join(parent: &Env, mut survivors: Vec<Env>) -> Env {
        let mut changed = parent.changed.clone();
        if survivors.len() == 1 {
            let mut out = survivors.pop().expect("nonempty");
            for name in out.changed.iter() {
                changed.insert(name.clone());
            }
            out.changed = changed;
            return out;
        }
        let mut out = Env {
            consts: parent.consts.clone(),
            arrays: parent.arrays.clone(),
            havoc_arrays: parent.havoc_arrays.clone(),
            rvs: parent.rvs.clone(),
            maybe_rvs: survivors
                .iter()
                .flat_map(|s| s.maybe_rvs.iter().cloned())
                .collect(),
            supports: parent.supports.clone(),
            derived: parent.derived.clone(),
            unbound: BTreeSet::new(),
            changed,
        };
        // Constants: a name whose value any branch changed (or
        // introduced) may or may not survive the join at runtime.
        for s in &survivors {
            for (name, val) in &s.consts {
                if out.consts.get(name) != Some(val) {
                    out.consts.insert(name.clone(), ConstVal::Unknown);
                }
            }
            for (name, size) in &s.arrays {
                match out.arrays.get(name) {
                    Some(existing) if existing == size => {}
                    Some(_) => {
                        out.arrays.insert(name.clone(), None);
                    }
                    None => {
                        out.arrays.insert(name.clone(), *size);
                    }
                }
            }
            out.havoc_arrays.extend(s.havoc_arrays.iter().cloned());
        }
        // Random variables: a name defined on every path keeps it, with
        // the union of the supports; derived entries survive only when
        // every branch agrees. Any other name loses its entries.
        let mut names: BTreeSet<String> = parent.unbound.clone();
        for s in &survivors {
            names.extend(s.changed.iter().cloned());
        }
        for name in names {
            // Defined on only some paths: the translator reports a
            // definite mismatch as an R2 violation, but the analyzer only
            // knows *may*-liveness, so the name is merely maybe-defined.
            if !survivors.iter().all(|s| s.rvs.contains(&name)) {
                if survivors.iter().any(|s| s.rvs.contains(&name)) {
                    out.maybe_rvs.insert(name.clone());
                }
                out.supports.remove(&name);
                out.derived.remove(&name);
                continue;
            }
            let mut agreed: Option<(String, Transform)> = None;
            let mut all_derived = true;
            let mut support: Option<OutcomeSet> = None;
            for s in &survivors {
                match s.derived.get(&name) {
                    Some(d) => match &agreed {
                        None => agreed = Some(d.clone()),
                        Some(a) if a == d => {}
                        Some(_) => {
                            all_derived = false;
                            support = Some(OutcomeSet::all());
                        }
                    },
                    None => {
                        all_derived = false;
                        let piece = s.support_of(&name);
                        support = Some(match support {
                            None => piece,
                            Some(acc) => acc.union(&piece),
                        });
                    }
                }
            }
            match (all_derived, agreed) {
                (true, Some(d)) => {
                    out.define_derived(&name, &d.0, d.1.clone());
                }
                _ => {
                    // Mixed derived/base across branches degrades to an
                    // unconstrained base variable.
                    let sup = if survivors.iter().any(|s| s.derived.contains_key(&name)) {
                        OutcomeSet::all()
                    } else {
                        support.unwrap_or_else(OutcomeSet::all)
                    };
                    out.define_base(&name, sup);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{check, compile_model};

    /// `condition(V > 0)` narrows `V` while it is only maybe-defined. The
    /// join after the `A` branch drops that entry, so the later `V < -1`
    /// guard is not reported dead: a join that kept the parent's entry
    /// for every unchanged name would flag it `W102`.
    #[test]
    fn a_join_drops_what_a_condition_learned_about_a_maybe_defined_name() {
        let source = "\
X ~ uniform(0, 1)
Y ~ uniform(0, 1)
condition((X < 0.5 and Y < 0.5) or (X > 0.5 and Y > 0.5))
if (X < 0.5 and Y > 0.5) { W ~ normal(0, 1) } else { V ~ normal(0, 1) }
condition(V > 0)
if (X > 0.3) { A ~ normal(0, 1) } else { A ~ normal(1, 1) }
if (V < -1) { B ~ normal(0, 1) } else { B ~ normal(0, 2) }
";
        assert_eq!(check(source), vec![]);
        let model = compile_model(source).expect("compiles");
        assert_eq!(
            model.model_digest().to_string(),
            "f9efeec7bf2992cacb09579fc897a6a3"
        );
    }

    /// `W` is defined in only the first arm of the outer `if`, so after
    /// it `W` is maybe-defined and `condition(W > 0)` is accepted. The
    /// outer join learns that only if the nested branch's join hands
    /// the first arm's log on: the names logged before the nested
    /// branch, and what a single surviving nested arm logged.
    #[test]
    fn a_nested_branch_carries_the_enclosing_arms_log() {
        let defined_before = "\
X ~ uniform(0, 1)
if (X < 0.5) {
    W ~ normal(0, 1)
    if (X < 0.25) { A ~ normal(0, 1) } else { A ~ normal(1, 1) }
} else {
    V ~ normal(0, 1)
}
condition(W > 0)
";
        assert_eq!(check(defined_before), vec![]);
        let defined_by_the_survivor = "\
X ~ uniform(0, 1)
if (X < 0.5) {
    if (X > 2) { Z ~ normal(0, 1) } else { W ~ normal(0, 1) }
} else {
    V ~ normal(0, 1)
}
condition(W > 0)
";
        let codes: Vec<&str> = check(defined_by_the_survivor)
            .iter()
            .map(|d| d.code.as_str())
            .collect();
        assert_eq!(codes, ["W102"]);
    }
}
