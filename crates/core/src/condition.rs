//! Exact conditioning of sum-product expressions on positive-probability
//! events — the constructive proof of the closure theorem (Thm. 4.1,
//! Lst. 6).
//!
//! `condition(S, e)` returns an SPE `S'` with
//! `P⟦S'⟧ e' = P⟦S⟧(e ⊓ e') / P⟦S⟧ e` for every event `e'`.
//! Results are memoized in the [`Factory`] keyed by
//! (physical node, event fingerprint), so deduplicated subgraphs are
//! conditioned once (Sec. 5.1's memoization optimization).
//!
//! Conditioning applies the node rules of [`prob`](crate::prob), not a
//! copy of them: the same scope check, the same product router for each
//! clause, and leaf-piece and clause weights from the same leaf kernel,
//! so a posterior's mixture weights are the prior's probabilities bit
//! for bit.
//!
//! # Concurrency
//!
//! [`condition`] runs on the calling thread, but many threads may
//! condition over one shared [`Factory`] at once (server workers do).
//! Memo fills go through first-write-wins insertion, so callers racing
//! on one subproblem all return the entry that landed first and
//! converge on a single physical cached posterior.

use sppl_dists::Distribution;
use sppl_sets::OutcomeSet;

use crate::disjoin::{solve_and_disjoin, Clause};
use crate::error::SpplError;
use crate::event::Event;
use crate::prob::clause_logprob;
use crate::spe::{check_scope, leaf_event_outcomes, Env, Factory, Node, Spe};
use crate::var::Var;

/// Conditions `spe` on `event` (Thm. 4.1). Memoized: a pointer-keyed
/// probe, then compute-and-fill (first-write-wins). Exactly one hit or
/// one miss is counted per call.
///
/// # Errors
///
/// * [`SpplError::ZeroProbability`] when `P⟦spe⟧ event = 0`;
/// * [`SpplError::UnknownVariable`] when the event mentions a variable
///   outside the scope;
/// * [`SpplError::MultivariateTransform`] for R3 violations.
pub fn condition(factory: &Factory, spe: &Spe, event: &Event) -> Result<Spe, SpplError> {
    if !factory.options().memoize {
        return condition_uncached(factory, spe, event);
    }
    let key = (spe.ptr_id(), event.fingerprint());
    if let Some((_, cached)) = factory.cond_cache.get(&key) {
        factory.cond_counters.hit();
        return cached;
    }
    factory.cond_counters.miss();
    let result = condition_uncached(factory, spe, event);
    // First-write-wins: threads that computed the same subproblem
    // concurrently all return the entry that landed first, so callers
    // across threads share one physical posterior.
    let (_, winner) = factory.cond_cache.get_or_insert(key, (spe.clone(), result));
    winner
}

fn condition_uncached(factory: &Factory, spe: &Spe, event: &Event) -> Result<Spe, SpplError> {
    match spe.node() {
        Node::Leaf {
            var,
            dist,
            env,
            scope,
        } => {
            check_scope(scope, &event.vars())?;
            let outcomes = leaf_event_outcomes(var, env, event);
            condition_leaf(factory, var, dist, env, &outcomes, event)
        }
        Node::Sum { children, .. } => {
            // Reweight each child by its probability of the event and
            // condition the survivors (Lst. 6b).
            let mut parts = Vec::with_capacity(children.len());
            for (child, lw) in children {
                let lp = factory.logprob(child, event)?;
                if lp > f64::NEG_INFINITY {
                    parts.push((condition(factory, child, event)?, lw + lp));
                }
            }
            if parts.is_empty() {
                return Err(SpplError::ZeroProbability {
                    event: event.to_string(),
                });
            }
            factory.sum(parts)
        }
        Node::Product { children, scope } => {
            check_scope(scope, &event.vars())?;
            let clauses = solve_and_disjoin(event)?;
            match clauses.len() {
                0 => Err(SpplError::ZeroProbability {
                    event: event.to_string(),
                }),
                1 => condition_product_clause(factory, children, &clauses[0], event),
                _ => {
                    let mut weights = Vec::with_capacity(clauses.len());
                    {
                        let mut memo = if factory.options().memoize {
                            crate::prob::ProbMemo::Pinned(factory)
                        } else {
                            crate::prob::ProbMemo::Off
                        };
                        for clause in &clauses {
                            weights.push(clause_logprob(children, clause, &mut memo)?);
                        }
                    }
                    // One product per disjoint hyperrectangle (Lst. 6c),
                    // mixed by the clause probabilities.
                    let mut parts = Vec::with_capacity(clauses.len());
                    for (clause, lw) in clauses.iter().zip(weights) {
                        if lw > f64::NEG_INFINITY {
                            parts.push((
                                condition_product_clause(factory, children, clause, event)?,
                                lw,
                            ));
                        }
                    }
                    if parts.is_empty() {
                        return Err(SpplError::ZeroProbability {
                            event: event.to_string(),
                        });
                    }
                    factory.sum(parts)
                }
            }
        }
    }
}

/// Conditions each factor of a product on the clause constraints that fall
/// in its scope (the single-hyperrectangle case of Lst. 6c), routed as in
/// the probability rule ([`Clause::event_in`]).
fn condition_product_clause(
    factory: &Factory,
    children: &[Spe],
    clause: &Clause,
    original: &Event,
) -> Result<Spe, SpplError> {
    let out = children
        .iter()
        .map(|child| match clause.event_in(child.scope()) {
            None => Ok(child.clone()),
            Some(sub) => condition(factory, child, &sub).map_err(|e| match e {
                SpplError::ZeroProbability { .. } => SpplError::ZeroProbability {
                    event: original.to_string(),
                },
                other => other,
            }),
        })
        .collect::<Result<Vec<Spe>, SpplError>>()?;
    factory.product(out)
}

/// Conditions a leaf on the solved outcome set of its base variable
/// (Lst. 6a): truncation for positive-length pieces, atom extraction for
/// integer points, restriction for nominal values; a union of pieces
/// becomes a mixture weighted by the pieces' prior probabilities, each
/// measured by the leaf kernel the probability rule uses.
fn condition_leaf(
    factory: &Factory,
    var: &Var,
    dist: &Distribution,
    env: &Env,
    outcomes: &OutcomeSet,
    event: &Event,
) -> Result<Spe, SpplError> {
    let mut parts: Vec<(Spe, f64)> = Vec::new();
    for piece in outcomes.pieces() {
        let lw = dist.log_measure(&piece);
        if lw > f64::NEG_INFINITY {
            let restricted = restrict_dist(dist, &piece)?;
            let leaf = factory.leaf_env(var.clone(), restricted, env.clone())?;
            parts.push((leaf, lw));
        }
    }
    if parts.is_empty() {
        return Err(SpplError::ZeroProbability {
            event: event.to_string(),
        });
    }
    factory.sum(parts)
}

/// Restricts a primitive distribution to a single piece (one interval, one
/// point, or a string set) known to carry positive mass.
fn restrict_dist(dist: &Distribution, piece: &OutcomeSet) -> Result<Distribution, SpplError> {
    match dist {
        Distribution::Real(d) => {
            let iv = piece
                .reals()
                .intervals()
                .first()
                .ok_or_else(|| SpplError::Numeric {
                    message: "empty real piece".into(),
                })?;
            d.truncate(iv)
                .map(Distribution::Real)
                .ok_or_else(|| SpplError::Numeric {
                    message: format!("zero-mass truncation to {iv}"),
                })
        }
        Distribution::Int(d) => {
            let iv = piece
                .reals()
                .intervals()
                .first()
                .ok_or_else(|| SpplError::Numeric {
                    message: "empty integer piece".into(),
                })?;
            if iv.is_point() {
                Ok(Distribution::Atomic { loc: iv.lo() })
            } else {
                d.truncate(iv)
                    .map(Distribution::Int)
                    .ok_or_else(|| SpplError::Numeric {
                        message: format!("zero-mass truncation to {iv}"),
                    })
            }
        }
        Distribution::Str(d) => d
            .restrict(piece.strs())
            .map(Distribution::Str)
            .ok_or_else(|| SpplError::Numeric {
                message: "zero-mass nominal restriction".into(),
            }),
        Distribution::Atomic { loc } => Ok(Distribution::Atomic { loc: *loc }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::Transform;
    use sppl_dists::{Cdf, DistInt, DistReal, DistStr};
    use sppl_num::float::approx_eq;
    use sppl_sets::Interval;

    fn normal(f: &Factory, name: &str) -> Spe {
        f.leaf(
            Var::new(name),
            Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
        )
    }

    #[test]
    fn leaf_truncation() {
        let f = Factory::new();
        let x = normal(&f, "X");
        let e = Event::ge(Transform::id(Var::new("X")), 0.0);
        let post = condition(&f, &x, &e).unwrap();
        assert!(approx_eq(post.prob(&e).unwrap(), 1.0, 1e-12));
        let mid = Event::ge(Transform::id(Var::new("X")), 1.0);
        // P[X ≥ 1 | X ≥ 0] = 2 P[X ≥ 1].
        let prior = x.prob(&mid).unwrap();
        assert!(approx_eq(post.prob(&mid).unwrap(), 2.0 * prior, 1e-9));
    }

    #[test]
    fn leaf_union_becomes_mixture() {
        let f = Factory::new();
        let x = normal(&f, "X");
        // |X| ≥ 1 splits into two tails.
        let e = Event::ge(Transform::id(Var::new("X")).abs(), 1.0);
        let post = condition(&f, &x, &e).unwrap();
        assert!(matches!(post.node(), Node::Sum { .. }));
        assert!(approx_eq(post.prob(&e).unwrap(), 1.0, 1e-9));
        // Posterior probability of the left tail is 1/2 by symmetry.
        let left = Event::le(Transform::id(Var::new("X")), -1.0);
        assert!(approx_eq(post.prob(&left).unwrap(), 0.5, 1e-9));
    }

    #[test]
    fn integer_leaf_atoms() {
        let f = Factory::new();
        let k = f.leaf(
            Var::new("K"),
            Distribution::Int(DistInt::new(Cdf::poisson(3.0), 0.0, f64::INFINITY).unwrap()),
        );
        // Condition on K ∈ {1, 4}.
        let e = Event::In(
            Transform::id(Var::new("K")),
            OutcomeSet::real_points([1.0, 4.0]),
        );
        let post = condition(&f, &k, &e).unwrap();
        let p1 = post
            .prob(&Event::eq_real(Transform::id(Var::new("K")), 1.0))
            .unwrap();
        let p = Cdf::poisson(3.0);
        let want = p.pmf(1.0) / (p.pmf(1.0) + p.pmf(4.0));
        assert!(approx_eq(p1, want, 1e-12));
    }

    #[test]
    fn nominal_leaf_restriction() {
        let f = Factory::new();
        let n = f.leaf(
            Var::new("N"),
            Distribution::Str(DistStr::new([("a", 0.2), ("b", 0.3), ("c", 0.5)]).unwrap()),
        );
        let e = Event::In(
            Transform::id(Var::new("N")),
            OutcomeSet::strings(["a", "b"]),
        );
        let post = condition(&f, &n, &e).unwrap();
        let pa = post
            .prob(&Event::eq_str(Transform::id(Var::new("N")), "a"))
            .unwrap();
        assert!(approx_eq(pa, 0.4, 1e-12));
    }

    #[test]
    fn zero_probability_event_errors() {
        let f = Factory::new();
        let x = normal(&f, "X");
        let e = Event::gt(Transform::id(Var::new("X")).pow_int(2), -1.0).negate(); // X² ≤ -1: impossible
        assert!(matches!(
            condition(&f, &x, &e),
            Err(SpplError::ZeroProbability { .. })
        ));
    }

    #[test]
    fn sum_reweighting() {
        let f = Factory::new();
        let a = f.leaf(
            Var::new("X"),
            Distribution::Real(
                DistReal::new(Cdf::uniform(0.0, 1.0), Interval::closed(0.0, 1.0)).unwrap(),
            ),
        );
        let b = f.leaf(
            Var::new("X"),
            Distribution::Real(
                DistReal::new(Cdf::uniform(0.0, 4.0), Interval::closed(0.0, 4.0)).unwrap(),
            ),
        );
        let mix = f.sum(vec![(a, 0.5f64.ln()), (b, 0.5f64.ln())]).unwrap();
        // Condition on X > 1: only the second component survives.
        let e = Event::gt(Transform::id(Var::new("X")), 1.0);
        let post = condition(&f, &mix, &e).unwrap();
        assert!(approx_eq(post.prob(&e).unwrap(), 1.0, 1e-12));
        let above2 = Event::gt(Transform::id(Var::new("X")), 2.0);
        // Posterior is U(1,4), so P[X > 2] = 2/3.
        assert!(approx_eq(post.prob(&above2).unwrap(), 2.0 / 3.0, 1e-9));
    }

    #[test]
    fn product_clause_routing() {
        let f = Factory::new();
        let p = f.product(vec![normal(&f, "X"), normal(&f, "Y")]).unwrap();
        let e = Event::and(vec![
            Event::ge(Transform::id(Var::new("X")), 0.0),
            Event::le(Transform::id(Var::new("Y")), 0.0),
        ]);
        let post = condition(&f, &p, &e).unwrap();
        assert!(approx_eq(post.prob(&e).unwrap(), 1.0, 1e-12));
        // Y marginal is a lower truncation.
        let ey = Event::le(Transform::id(Var::new("Y")), -1.0);
        let prior_y = normal(&f, "Y").prob(&ey).unwrap();
        assert!(approx_eq(post.prob(&ey).unwrap(), 2.0 * prior_y, 1e-9));
    }

    #[test]
    fn product_disjunction_becomes_sum_of_products() {
        let f = Factory::new();
        let p = f.product(vec![normal(&f, "X"), normal(&f, "Y")]).unwrap();
        // The Fig. 5 shape: union of overlapping half-planes.
        let e = Event::or(vec![
            Event::ge(Transform::id(Var::new("X")), 0.0),
            Event::ge(Transform::id(Var::new("Y")), 0.0),
        ]);
        let post = condition(&f, &p, &e).unwrap();
        assert!(matches!(post.node(), Node::Sum { .. }));
        assert!(approx_eq(post.prob(&e).unwrap(), 1.0, 1e-9));
        // Closure check (Thm. 4.1): P[S'](e') = P[S](e ∧ e')/P[S](e).
        let probe = Event::and(vec![
            Event::ge(Transform::id(Var::new("X")), 1.0),
            Event::le(Transform::id(Var::new("Y")), 0.5),
        ]);
        let joint = p.prob(&Event::and(vec![e.clone(), probe.clone()])).unwrap();
        let pe = p.prob(&e).unwrap();
        assert!(approx_eq(post.prob(&probe).unwrap(), joint / pe, 1e-9));
    }

    #[test]
    fn conditioning_is_idempotent() {
        let f = Factory::new();
        let x = normal(&f, "X");
        let e = Event::ge(Transform::id(Var::new("X")), 0.5);
        let once = condition(&f, &x, &e).unwrap();
        let twice = condition(&f, &once, &e).unwrap();
        // Both represent N(0,1) truncated to [0.5, ∞); dedup makes them
        // the same physical node.
        assert!(once.same(&twice));
    }

    #[test]
    fn transformed_conditioning_on_env_var() {
        // Leaf X ~ N(0,1) with Z = X²; condition on Z ≤ 1.
        let f = Factory::new();
        let x = Var::new("X");
        let z = Var::new("Z");
        let leaf = f
            .leaf_env(
                x.clone(),
                Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
                Env::new().with(z.clone(), Transform::id(x.clone()).pow_int(2)),
            )
            .unwrap();
        let e = Event::le(Transform::id(z.clone()), 1.0);
        let post = condition(&f, &leaf, &e).unwrap();
        assert!(approx_eq(post.prob(&e).unwrap(), 1.0, 1e-9));
        // X is now confined to [-1, 1].
        let ex = Event::in_interval(Transform::id(x), Interval::closed(-1.0, 1.0));
        assert!(approx_eq(post.prob(&ex).unwrap(), 1.0, 1e-9));
    }
}
