//! The abstract state threaded through the analysis: per-variable support
//! over-approximations, compile-time constants, arrays, and the
//! derived-variable map.
//!
//! Soundness contract: every support in [`Env::supports`] is an
//! **over-approximation** of the variable's true support at that program
//! point. Verdicts of the form "definitely unsatisfiable" / "definitely
//! dead" are therefore sound, while "may be satisfiable" is best-effort.

use std::collections::{BTreeSet, HashMap};

use sppl_core::transform::Transform;
use sppl_lang::ops::Value;
use sppl_sets::OutcomeSet;

/// A compile-time constant as the analyzer sees it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ConstVal {
    /// The exact value is known.
    Known(Value),
    /// The name is (possibly) defined but its value was lost at a join.
    Unknown,
}

/// The abstract environment at a program point.
#[derive(Debug, Clone, Default)]
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
    pub rvs: BTreeSet<String>,
    /// Names defined on only *some* of the possibly-live paths of a
    /// join. Uses and redefinitions of these are accepted silently: the
    /// translator decides at runtime (a definitely-multi-survivor join
    /// is an R2 violation it reports itself).
    pub maybe_rvs: BTreeSet<String>,
    /// Over-approximate support of each *base* random variable.
    pub supports: HashMap<String, OutcomeSet>,
    /// Derived variable → (base variable, transform over that base).
    pub derived: HashMap<String, (String, Transform)>,
}

impl Env {
    pub(crate) fn new() -> Env {
        Env::default()
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
        self.rvs.insert(name.to_string());
        self.maybe_rvs.remove(name);
        self.derived.remove(name);
        self.supports.insert(name.to_string(), support);
    }

    /// Defines `name` as `t(base)`.
    pub(crate) fn define_derived(&mut self, name: &str, base: &str, t: Transform) {
        self.rvs.insert(name.to_string());
        self.maybe_rvs.remove(name);
        self.supports.remove(name);
        self.derived.insert(name.to_string(), (base.to_string(), t));
    }

    /// Rewrites a transform so it only mentions base variables.
    pub(crate) fn resolve_transform(&self, t: &Transform) -> Transform {
        let mut out = t.clone();
        for v in t.vars() {
            if let Some((_, bt)) = self.derived.get(v.name()) {
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
    pub(crate) fn join(parent: &Env, mut survivors: Vec<Env>) -> Env {
        if survivors.len() == 1 {
            return survivors.pop().expect("nonempty");
        }
        let mut out = Env {
            consts: parent.consts.clone(),
            arrays: parent.arrays.clone(),
            havoc_arrays: parent.havoc_arrays.clone(),
            rvs: BTreeSet::new(),
            maybe_rvs: survivors
                .iter()
                .flat_map(|s| s.maybe_rvs.iter().cloned())
                .collect(),
            supports: HashMap::new(),
            derived: HashMap::new(),
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
        // Random variables: union of names; supports union per base var;
        // derived entries survive only when every branch agrees.
        let names: BTreeSet<String> = survivors.iter().flat_map(|s| s.rvs.clone()).collect();
        for name in names {
            // Defined on only some paths: the translator reports a
            // definite mismatch as an R2 violation, but the analyzer only
            // knows *may*-liveness, so the name is merely maybe-defined.
            if !survivors.iter().all(|s| s.rvs.contains(&name)) {
                out.maybe_rvs.insert(name);
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
