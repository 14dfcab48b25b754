//! The distribution semantics `P⟦S⟧ e` (Lst. 1f): exact event
//! probabilities, computed in log space with memoization over the
//! deduplicated DAG.
//!
//! Each node rule has one definition, which the arena evaluator and
//! [`condition`](mod@crate::condition) call too: a leaf measures the solved
//! outcome set of the event through the one leaf kernel,
//! [`Distribution::log_measure`](sppl_dists::Distribution::log_measure);
//! a product routes each clause's constraints to the factor that owns
//! their variables (`Clause::event_in`); a sum mixes its children by
//! weight; and leaves and products reject a variable outside their scope
//! with one scope check (`spe::check_scope`).
//!
//! Disjunctions at `Product` nodes are handled by decomposing the event
//! into pairwise-disjoint clauses (`disjoin`, Appx. D.1) and summing clause
//! probabilities — semantically identical to the paper's
//! inclusion–exclusion rule but linear in the number of disjoint clauses.

use std::collections::HashMap;

use sppl_num::float::logsumexp;

use crate::digest::Fingerprint;
use crate::disjoin::{solve_and_disjoin, Clause};
use crate::error::SpplError;
use crate::event::Event;
use crate::spe::{check_scope, leaf_event_outcomes, Factory, Node, Spe};

/// Memoization storage for probability queries: either a per-call local
/// table (safe because the queried expression pins all its descendants for
/// the duration of the call) or the factory's persistent sharded table,
/// whose entries pin their key nodes so pointer keys can never be reused.
///
/// The pinned variant holds only a factory reference — every lookup and
/// insert is a single sharded-lock operation, never held across the
/// recursion, so concurrent queries interleave freely (see
/// [`ShardedMap`](crate::sync_map::ShardedMap) on why racing fills are
/// benign).
pub(crate) enum ProbMemo<'a> {
    /// Fresh per-call table.
    Local(HashMap<(usize, Fingerprint), f64>),
    /// The factory's persistent, key-pinning concurrent table.
    Pinned(&'a Factory),
    /// Memoization disabled (the Sec. 5.1 ablation).
    Off,
}

impl ProbMemo<'_> {
    fn get(&self, key: &(usize, Fingerprint)) -> Option<f64> {
        match self {
            ProbMemo::Local(m) => m.get(key).copied(),
            ProbMemo::Pinned(factory) => {
                let hit = factory.prob_cache.get(key).map(|(_, v)| v);
                if hit.is_some() {
                    factory.prob_counters.hit();
                } else {
                    factory.prob_counters.miss();
                }
                hit
            }
            ProbMemo::Off => None,
        }
    }

    fn insert(&mut self, spe: &Spe, key: (usize, Fingerprint), value: f64) {
        match self {
            ProbMemo::Local(m) => {
                m.insert(key, value);
            }
            ProbMemo::Pinned(factory) => {
                // First-write-wins: threads querying one shared factory
                // may race to fill one subproblem; all of them adopt the
                // entry that landed first (values are pure, so any winner
                // is the bit-identical answer) instead of overwriting
                // each other.
                factory.prob_cache.get_or_insert(key, (spe.clone(), value));
            }
            ProbMemo::Off => {}
        }
    }
}

impl Spe {
    /// Natural log of the probability of `event` (`-∞` for probability
    /// zero). Uses a fresh memo table; for repeated queries over the same
    /// expression prefer [`Factory::logprob`].
    ///
    /// # Errors
    ///
    /// * [`SpplError::UnknownVariable`] if the event mentions a variable
    ///   outside the expression's scope;
    /// * [`SpplError::MultivariateTransform`] if a literal violates R3.
    pub fn logprob(&self, event: &Event) -> Result<f64, SpplError> {
        let mut memo = ProbMemo::Local(HashMap::new());
        logprob_memo(self, event, &mut memo)
    }

    /// The probability of `event`, clamped to `[0, 1]`.
    ///
    /// The clamp matters near probability one: summing the log-space
    /// contributions of a near-exhaustive event can round a hair above
    /// zero, and `exp` would then report a probability strictly greater
    /// than one.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Spe::logprob`].
    pub fn prob(&self, event: &Event) -> Result<f64, SpplError> {
        Ok(self.logprob(event)?.exp().clamp(0.0, 1.0))
    }
}

impl Factory {
    /// Like [`Spe::logprob`] but memoized persistently in the factory, so
    /// repeated queries (and the translator's `(IfElse)` rule) reuse
    /// results across calls.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Spe::logprob`].
    pub fn logprob(&self, spe: &Spe, event: &Event) -> Result<f64, SpplError> {
        if !self.options().memoize {
            return spe.logprob(event);
        }
        let mut memo = ProbMemo::Pinned(self);
        logprob_memo(spe, event, &mut memo)
    }
}

pub(crate) fn logprob_memo(
    spe: &Spe,
    event: &Event,
    memo: &mut ProbMemo<'_>,
) -> Result<f64, SpplError> {
    let key = (spe.ptr_id(), event.fingerprint());
    if let Some(v) = memo.get(&key) {
        return Ok(v);
    }
    let value = match spe.node() {
        Node::Leaf {
            var,
            dist,
            env,
            scope,
        } => {
            check_scope(scope, &event.vars())?;
            dist.log_measure(&leaf_event_outcomes(var, env, event))
        }
        Node::Sum { children, .. } => {
            let mut terms = Vec::with_capacity(children.len());
            for (child, lw) in children {
                terms.push(lw + logprob_memo(child, event, memo)?);
            }
            logsumexp(&terms)
        }
        Node::Product { children, scope } => {
            check_scope(scope, &event.vars())?;
            let clauses = solve_and_disjoin(event)?;
            let mut terms = Vec::with_capacity(clauses.len());
            for clause in &clauses {
                terms.push(clause_logprob(children, clause, memo)?);
            }
            logsumexp(&terms)
        }
    };
    memo.insert(spe, key, value);
    Ok(value)
}

/// Probability of a single conjunction clause under a product: route each
/// per-variable constraint to the unique child owning the variable
/// ([`Clause::event_in`]) and multiply (sum logs).
pub(crate) fn clause_logprob(
    children: &[Spe],
    clause: &Clause,
    memo: &mut ProbMemo<'_>,
) -> Result<f64, SpplError> {
    let mut total = 0.0;
    for child in children {
        if let Some(routed) = clause.event_in(child.scope()) {
            total += logprob_memo(child, &routed, memo)?;
        }
        if total == f64::NEG_INFINITY {
            break;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::Transform;
    use crate::var::Var;
    use sppl_dists::{Cdf, DistInt, DistReal, DistStr, Distribution};
    use sppl_num::float::approx_eq;
    use sppl_sets::Interval;

    fn factory() -> Factory {
        Factory::new()
    }

    fn normal(f: &Factory, name: &str, mu: f64, sigma: f64) -> Spe {
        f.leaf(
            Var::new(name),
            Distribution::Real(DistReal::new(Cdf::normal(mu, sigma), Interval::all()).unwrap()),
        )
    }

    #[test]
    fn leaf_interval_probability() {
        let f = factory();
        let x = normal(&f, "X", 0.0, 1.0);
        let e = Event::le(Transform::id(Var::new("X")), 0.0);
        assert!(approx_eq(x.prob(&e).unwrap(), 0.5, 1e-12));
    }

    #[test]
    fn leaf_transformed_event() {
        let f = factory();
        let x = normal(&f, "X", 0.0, 1.0);
        // X² ≤ 1 ⇔ -1 ≤ X ≤ 1.
        let e = Event::le(Transform::id(Var::new("X")).pow_int(2), 1.0);
        assert!(approx_eq(x.prob(&e).unwrap(), 0.6826894921370859, 1e-9));
    }

    #[test]
    fn leaf_env_derived_event() {
        let f = factory();
        let x = Var::new("X");
        let z = Var::new("Z");
        let leaf = f
            .leaf_env(
                x.clone(),
                Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
                crate::spe::Env::new().with(z.clone(), Transform::id(x).pow_int(2)),
            )
            .unwrap();
        let e = Event::le(Transform::id(z), 1.0);
        assert!(approx_eq(leaf.prob(&e).unwrap(), 0.6826894921370859, 1e-9));
    }

    #[test]
    fn sum_mixture_probability() {
        let f = factory();
        let a = normal(&f, "X", -5.0, 1.0);
        let b = normal(&f, "X", 5.0, 1.0);
        let mix = f.sum(vec![(a, 0.25f64.ln()), (b, 0.75f64.ln())]).unwrap();
        // X < 0 catches essentially all of component a and none of b.
        let e = Event::lt(Transform::id(Var::new("X")), 0.0);
        assert!(approx_eq(mix.prob(&e).unwrap(), 0.25, 1e-6));
    }

    #[test]
    fn product_independent_conjunction() {
        let f = factory();
        let x = normal(&f, "X", 0.0, 1.0);
        let y = normal(&f, "Y", 0.0, 1.0);
        let p = f.product(vec![x, y]).unwrap();
        let e = Event::and(vec![
            Event::le(Transform::id(Var::new("X")), 0.0),
            Event::le(Transform::id(Var::new("Y")), 0.0),
        ]);
        assert!(approx_eq(p.prob(&e).unwrap(), 0.25, 1e-12));
    }

    #[test]
    fn product_disjunction_inclusion_exclusion() {
        let f = factory();
        let x = normal(&f, "X", 0.0, 1.0);
        let y = normal(&f, "Y", 0.0, 1.0);
        let p = f.product(vec![x, y]).unwrap();
        // P[X ≤ 0 ∨ Y ≤ 0] = 1 - P[X > 0]P[Y > 0] = 0.75.
        let e = Event::or(vec![
            Event::le(Transform::id(Var::new("X")), 0.0),
            Event::le(Transform::id(Var::new("Y")), 0.0),
        ]);
        assert!(approx_eq(p.prob(&e).unwrap(), 0.75, 1e-12));
    }

    #[test]
    fn nominal_and_integer_leaves() {
        let f = factory();
        let n = f.leaf(
            Var::new("N"),
            Distribution::Str(DistStr::new([("a", 0.3), ("b", 0.7)]).unwrap()),
        );
        let e = Event::eq_str(Transform::id(Var::new("N")), "a");
        assert!(approx_eq(n.prob(&e).unwrap(), 0.3, 1e-12));

        let k = f.leaf(
            Var::new("K"),
            Distribution::Int(DistInt::new(Cdf::poisson(2.0), 0.0, f64::INFINITY).unwrap()),
        );
        let e2 = Event::le(Transform::id(Var::new("K")), 1.0);
        let want = Cdf::poisson(2.0).cdf(1.0);
        assert!(approx_eq(k.prob(&e2).unwrap(), want, 1e-12));
    }

    #[test]
    fn unknown_variable_rejected() {
        let f = factory();
        let x = normal(&f, "X", 0.0, 1.0);
        let e = Event::le(Transform::id(Var::new("Nope")), 0.0);
        assert!(matches!(x.prob(&e), Err(SpplError::UnknownVariable { .. })));
    }

    #[test]
    fn true_and_false_events() {
        let f = factory();
        let x = normal(&f, "X", 0.0, 1.0);
        assert!(approx_eq(x.prob(&Event::always()).unwrap(), 1.0, 1e-12));
        assert_eq!(x.prob(&Event::never()).unwrap(), 0.0);
    }

    #[test]
    fn measure_zero_point_event() {
        let f = factory();
        let x = normal(&f, "X", 0.0, 1.0);
        let e = Event::eq_real(Transform::id(Var::new("X")), 0.0);
        assert_eq!(x.prob(&e).unwrap(), 0.0);
        // But an atom has positive point mass.
        let a = f.leaf(Var::new("A"), Distribution::Atomic { loc: 4.0 });
        let e2 = Event::eq_real(Transform::id(Var::new("A")), 4.0);
        assert!(approx_eq(a.prob(&e2).unwrap(), 1.0, 1e-12));
    }

    #[test]
    fn prob_clamps_float_roundup_above_one() {
        // These two log-weights normalize so that summing the components'
        // exhaustive-event contributions in log space lands one ulp above
        // zero: exp gives 1.0000000000000002 before clamping.
        let f = factory();
        let a = normal(&f, "X", 0.0, 1.0);
        let b = normal(&f, "X", 1.0, 1.0);
        let mix = f
            .sum(vec![(a, -4.198707985930569), (b, -2.3727541696914796)])
            .unwrap();
        let e = Event::in_interval(Transform::id(Var::new("X")), Interval::all());
        let lp = mix.logprob(&e).unwrap();
        assert!(lp > 0.0, "expected log-space round-up above zero, got {lp}");
        let p = mix.prob(&e).unwrap();
        assert_eq!(p, 1.0, "prob must clamp {lp}.exp() = {} to one", lp.exp());
    }

    #[test]
    fn factory_logprob_caches() {
        let f = factory();
        let x = normal(&f, "X", 0.0, 1.0);
        let e = Event::le(Transform::id(Var::new("X")), 1.0);
        let p1 = f.logprob(&x, &e).unwrap();
        let p2 = f.logprob(&x, &e).unwrap();
        assert_eq!(p1, p2);
        assert!(f.prob_cache.len() > 0);
    }
}
