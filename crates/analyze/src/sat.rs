//! Over-approximate event satisfiability and support refinement.
//!
//! Every query works per-variable: a literal `t(x) ∈ V` constrains `x`
//! to `preimage(t, V)`, conjunctions intersect the constraints of a
//! variable, disjunctions union them. Cross-variable correlation is
//! ignored, which makes "satisfiable" answers best-effort but keeps
//! every *unsatisfiable* answer sound (the abstract supports already
//! over-approximate the true ones).

use std::collections::HashMap;

use sppl_core::event::Event;
use sppl_sets::OutcomeSet;

use crate::env::Env;

/// Rewrites derived variables to their base-variable transforms so that
/// satisfiability can be decided against base supports only.
pub(crate) fn resolve_event(e: &Event, env: &Env) -> Event {
    let mut out = e.clone();
    for v in e.vars() {
        if let Some(t) = env.derived_transform(v.name()) {
            out = out.substitute(&v, t);
        }
    }
    out
}

/// `false` means the (resolved) event is **definitely** unsatisfiable
/// under the environment's supports; `true` means it may hold.
pub(crate) fn may_sat(e: &Event, env: &Env) -> bool {
    match e {
        Event::In(t, v) => match t.the_var() {
            Some(var) => !t
                .preimage(v)
                .intersection(&env.support_of(var.name()))
                .is_empty(),
            // Multi-variable transforms (piecewise): stay conservative.
            None => true,
        },
        Event::And(children) => {
            if !children.iter().all(|c| may_sat(c, env)) {
                return false;
            }
            // Sharpen: conjoin all literals that constrain the same
            // variable before intersecting with its support.
            let mut per_var: HashMap<String, OutcomeSet> = HashMap::new();
            for c in children {
                if let Event::In(t, v) = c {
                    if let Some(var) = t.the_var() {
                        let pre = t.preimage(v);
                        per_var
                            .entry(var.name().to_string())
                            .and_modify(|acc| *acc = acc.intersection(&pre))
                            .or_insert(pre);
                    }
                }
            }
            per_var
                .iter()
                .all(|(name, set)| !set.intersection(&env.support_of(name)).is_empty())
        }
        Event::Or(children) => children.iter().any(|c| may_sat(c, env)),
    }
}

/// Assumes the (resolved) event holds and narrows the supports of the
/// variables it mentions. Sound: the refined supports still
/// over-approximate the true conditional supports.
pub(crate) fn refine(env: &mut Env, e: &Event) {
    match e {
        Event::In(t, v) => {
            if let Some(var) = t.the_var() {
                let name = var.name();
                let narrowed = env.support_of(name).intersection(&t.preimage(v));
                env.narrow(name, narrowed);
            }
        }
        Event::And(children) => {
            for c in children {
                refine(env, c);
            }
        }
        Event::Or(children) => {
            if children.is_empty() {
                return;
            }
            // Each disjunct refines a copy; the result per variable is
            // the union over disjuncts.
            let snapshots: Vec<Env> = children
                .iter()
                .map(|c| {
                    let mut child_env = env.clone();
                    refine(&mut child_env, c);
                    child_env
                })
                .collect();
            for var in e.vars() {
                let name = var.name();
                let mut acc: Option<OutcomeSet> = None;
                for snap in &snapshots {
                    let s = snap.support_of(name);
                    acc = Some(match acc {
                        None => s,
                        Some(a) => a.union(&s),
                    });
                }
                if let Some(set) = acc {
                    env.narrow(name, set);
                }
            }
        }
    }
}
