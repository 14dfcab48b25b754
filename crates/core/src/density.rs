//! The generalized (lexicographic) density semantics `P₀⟦S⟧` (Lst. 1d) and
//! `condition0`/`constrain` for measure-zero equality constraints
//! (Remark 4.2, Lst. 7, Appx. D.3).
//!
//! A density value is a pair `(degree, weight)`: the degree counts the
//! continuous dimensions participating in the weight, adapting
//! "lexicographic likelihood weighting" to exact inference. Mixtures keep
//! only the children of minimal degree among those with positive weight.
//!
//! The density and `constrain` share each node rule rather than restate
//! it: one lexicographic sum rule picks the kept children, one router
//! hands each product factor the part of the assignment in its scope, and
//! out-of-scope variables meet the scope check every query uses.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use sppl_dists::Distribution;
use sppl_num::float::logsumexp;
use sppl_sets::Outcome;

use crate::digest::{Digester, Encoder, Fingerprint};
use crate::error::SpplError;
use crate::spe::{check_scope, Env, Factory, Node, Spe};
use crate::var::Var;

/// A measure-zero constraint: an exact value for each listed variable
/// (the event `⊓ᵢ (Id(xᵢ) in {rsᵢ})`).
pub type Assignment = BTreeMap<Var, Outcome>;

/// A generalized density: `degree` continuous dimensions, `ln_weight`
/// natural-log weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Density {
    /// Number of continuous dimensions contributing to the weight.
    pub degree: u64,
    /// Natural log of the weight (`-∞` for zero).
    pub ln_weight: f64,
}

impl Density {
    /// The multiplicative unit (empty product).
    pub fn one() -> Density {
        Density {
            degree: 0,
            ln_weight: 0.0,
        }
    }

    /// True when the weight is zero.
    pub fn is_zero(&self) -> bool {
        self.ln_weight == f64::NEG_INFINITY
    }
}

impl Spe {
    /// The generalized density `P₀⟦S⟧` of a pointwise assignment
    /// (Lst. 1d). Variables in the assignment must be *base* (leaf)
    /// variables; derived variables are rejected per Remark 4.2.
    ///
    /// # Errors
    ///
    /// * [`SpplError::UnknownVariable`] for out-of-scope variables;
    /// * [`SpplError::TransformedConstraint`] for derived variables.
    pub fn logdensity(&self, assignment: &Assignment) -> Result<Density, SpplError> {
        check_scope(self.scope(), assignment.keys())?;
        logdensity_inner(self, assignment, &mut DensityMemo::new())
    }
}

/// Per-call density memo over the shared DAG, keyed by (node, assignment).
type DensityMemo = HashMap<(usize, Fingerprint), Density>;

fn assignment_fingerprint(assignment: &Assignment) -> Fingerprint {
    let mut d = Digester::new();
    d.u8(crate::digest::TAG_ASSIGNMENT_STREAM);
    d.len(assignment.len());
    for (v, o) in assignment {
        d.str(v.name());
        match o {
            Outcome::Real(r) => {
                d.u8(0);
                d.f64(*r);
            }
            Outcome::Str(s) => {
                d.u8(1);
                d.str(s);
            }
        }
    }
    Fingerprint::from_u128(d.finish())
}

fn logdensity_inner(
    spe: &Spe,
    assignment: &Assignment,
    memo: &mut DensityMemo,
) -> Result<Density, SpplError> {
    let key = (spe.ptr_id(), assignment_fingerprint(assignment));
    if let Some(&d) = memo.get(&key) {
        return Ok(d);
    }
    let out = match spe.node() {
        Node::Leaf { var, dist, env, .. } => leaf_density(var, dist, env, assignment)?,
        Node::Sum { children, .. } => {
            let mut parts = Vec::with_capacity(children.len());
            for (child, lw) in children {
                let d = logdensity_inner(child, assignment, memo)?;
                parts.push((d.degree, lw + d.ln_weight));
            }
            match lexicographic_min(&parts) {
                None => Density {
                    degree: 1,
                    ln_weight: f64::NEG_INFINITY,
                },
                Some((degree, kept)) => {
                    let terms: Vec<f64> = kept.iter().map(|&i| parts[i].1).collect();
                    Density {
                        degree,
                        ln_weight: logsumexp(&terms),
                    }
                }
            }
        }
        Node::Product { children, .. } => {
            let mut degree = 0;
            let mut ln_weight = 0.0;
            for child in children {
                if let Some(restricted) = assignment_in(assignment, child.scope()) {
                    let d = logdensity_inner(child, &restricted, memo)?;
                    degree += d.degree;
                    ln_weight += d.ln_weight;
                }
            }
            Density { degree, ln_weight }
        }
    };
    memo.insert(key, out);
    Ok(out)
}

/// The lexicographic sum rule (Lst. 1d) over each child's
/// `(degree, weighted log density)`: the minimal degree among children of
/// positive weight, and those children of that degree, in stored order.
/// `None` when no child has positive weight.
fn lexicographic_min(parts: &[(u64, f64)]) -> Option<(u64, Vec<usize>)> {
    let positive = |w: f64| w > f64::NEG_INFINITY;
    let degree = parts.iter().filter(|p| positive(p.1)).map(|p| p.0).min()?;
    let kept = (0..parts.len())
        .filter(|&i| parts[i].0 == degree && positive(parts[i].1))
        .collect();
    Some((degree, kept))
}

/// The product rule's router for assignments: the part of `assignment`
/// in a factor's `scope`, or `None` when the factor is unconstrained.
fn assignment_in(assignment: &Assignment, scope: &BTreeSet<Var>) -> Option<Assignment> {
    let restricted: Assignment = assignment
        .iter()
        .filter(|(v, _)| scope.contains(v))
        .map(|(v, o)| (v.clone(), o.clone()))
        .collect();
    (!restricted.is_empty()).then_some(restricted)
}

fn leaf_density(
    var: &Var,
    dist: &Distribution,
    env: &Env,
    assignment: &Assignment,
) -> Result<Density, SpplError> {
    let mut result = Density::one();
    for (v, outcome) in assignment {
        if v == var {
            let (degree, w) = dist.density(outcome);
            result.degree += degree;
            result.ln_weight += w.ln();
        } else if env.get(v).is_some() {
            return Err(SpplError::TransformedConstraint {
                var: v.name().into(),
            });
        }
        // Variables outside this leaf's scope were filtered by the caller.
    }
    Ok(result)
}

/// `condition0` (Lst. 7): conditions on a conjunction of possibly
/// measure-zero equality constraints on base variables, e.g.
/// `{X = 3, N = "usa"}`. This is the paper's `constrain` query.
///
/// # Errors
///
/// * [`SpplError::ZeroProbability`] when the assignment has zero density;
/// * [`SpplError::TransformedConstraint`] for derived variables;
/// * [`SpplError::UnknownVariable`] for out-of-scope variables.
pub fn constrain(factory: &Factory, spe: &Spe, assignment: &Assignment) -> Result<Spe, SpplError> {
    check_scope(spe.scope(), assignment.keys())?;
    // Per-call memo tables over the shared DAG: without them, constrain
    // would redo work once per *path* to each deduplicated node, turning
    // linear-size expressions (e.g. long HMMs) into exponential work.
    let mut memos = ConstrainMemos::default();
    constrain_inner(factory, spe, assignment, &mut memos)
}

/// Memoization for one `constrain` call (nodes stay alive for the call's
/// duration, so plain pointer keys are safe here).
#[derive(Default)]
struct ConstrainMemos {
    density: DensityMemo,
    result: HashMap<(usize, Fingerprint), Result<Spe, SpplError>>,
}

fn constrain_inner(
    factory: &Factory,
    spe: &Spe,
    assignment: &Assignment,
    memos: &mut ConstrainMemos,
) -> Result<Spe, SpplError> {
    if !factory.options().memoize {
        // The Sec. 5.1 ablation: redo work once per path to each shared
        // node (tree-sized instead of DAG-sized traversals).
        return constrain_compute(factory, spe, assignment, memos);
    }
    let key = (spe.ptr_id(), assignment_fingerprint(assignment));
    if let Some(cached) = memos.result.get(&key) {
        return cached.clone();
    }
    let out = constrain_compute(factory, spe, assignment, memos);
    memos.result.insert(key, out.clone());
    out
}

fn constrain_compute(
    factory: &Factory,
    spe: &Spe,
    assignment: &Assignment,
    memos: &mut ConstrainMemos,
) -> Result<Spe, SpplError> {
    match spe.node() {
        Node::Leaf { var, dist, env, .. } => {
            match assignment.get(var) {
                None => {
                    // No constraint on the base variable; any constraint on
                    // a derived variable is rejected.
                    for v in assignment.keys() {
                        if env.get(v).is_some() {
                            return Err(SpplError::TransformedConstraint {
                                var: v.name().into(),
                            });
                        }
                    }
                    Ok(spe.clone())
                }
                Some(outcome) => {
                    let (_, w) = dist.density(outcome);
                    if w == 0.0 {
                        return Err(SpplError::ZeroProbability {
                            event: format!("{var} = {outcome}"),
                        });
                    }
                    let new_dist = match (dist, outcome) {
                        (Distribution::Str(d), Outcome::Str(s)) => {
                            let restricted = d
                                .restrict(&sppl_sets::StringSet::finite([s.as_str()]))
                                .ok_or_else(|| SpplError::ZeroProbability {
                                    event: format!("{var} = {outcome}"),
                                })?;
                            Distribution::Str(restricted)
                        }
                        (_, Outcome::Real(r)) => Distribution::Atomic { loc: *r },
                        (_, Outcome::Str(_)) => {
                            return Err(SpplError::ZeroProbability {
                                event: format!("{var} = {outcome}"),
                            })
                        }
                    };
                    factory.leaf_env(var.clone(), new_dist, env.clone())
                }
            }
        }
        Node::Sum { children, .. } => {
            // Every child's density first, then constrain the positive
            // children of minimal degree, in stored child order.
            if !factory.options().memoize {
                memos.density.clear();
            }
            let mut densities = Vec::with_capacity(children.len());
            for (child, lw) in children {
                let d = logdensity_inner(child, assignment, &mut memos.density)?;
                densities.push((d.degree, lw + d.ln_weight));
            }
            let Some((_, kept)) = lexicographic_min(&densities) else {
                return Err(SpplError::ZeroProbability {
                    event: format!("{assignment:?}"),
                });
            };
            let mut parts = Vec::with_capacity(kept.len());
            for i in kept {
                parts.push((
                    constrain_inner(factory, &children[i].0, assignment, memos)?,
                    densities[i].1,
                ));
            }
            factory.sum(parts)
        }
        Node::Product { children, .. } => {
            // Each factor takes the part of the assignment in its scope.
            let mut out = Vec::with_capacity(children.len());
            for child in children {
                out.push(match assignment_in(assignment, child.scope()) {
                    None => child.clone(),
                    Some(restricted) => constrain_inner(factory, child, &restricted, memos)?,
                });
            }
            factory.product(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::transform::Transform;
    use sppl_dists::{Cdf, DistInt, DistReal, DistStr};
    use sppl_num::float::approx_eq;
    use sppl_sets::Interval;

    fn assignment(pairs: &[(&str, Outcome)]) -> Assignment {
        pairs
            .iter()
            .map(|(n, o)| (Var::new(n), o.clone()))
            .collect()
    }

    #[test]
    fn leaf_density_values() {
        let f = Factory::new();
        let x = f.leaf(
            Var::new("X"),
            Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
        );
        let d = x
            .logdensity(&assignment(&[("X", Outcome::Real(0.0))]))
            .unwrap();
        assert_eq!(d.degree, 1);
        assert!(approx_eq(d.ln_weight.exp(), 0.3989422804014327, 1e-10));
    }

    #[test]
    fn mixture_density_lexicographic() {
        // Mixture of an atom at 0 and N(0,1): at X=0 the atom (degree 0)
        // dominates lexicographically.
        let f = Factory::new();
        let atom = f.leaf(Var::new("X"), Distribution::Atomic { loc: 0.0 });
        let norm = f.leaf(
            Var::new("X"),
            Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
        );
        let mix = f
            .sum(vec![(atom, 0.3f64.ln()), (norm, 0.7f64.ln())])
            .unwrap();
        let d = mix
            .logdensity(&assignment(&[("X", Outcome::Real(0.0))]))
            .unwrap();
        assert_eq!(d.degree, 0);
        assert!(approx_eq(d.ln_weight.exp(), 0.3, 1e-12));
        // Away from the atom, only the continuous component contributes.
        let d2 = mix
            .logdensity(&assignment(&[("X", Outcome::Real(1.0))]))
            .unwrap();
        assert_eq!(d2.degree, 1);
    }

    #[test]
    fn product_density_sums_degrees() {
        let f = Factory::new();
        let x = f.leaf(
            Var::new("X"),
            Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
        );
        let n = f.leaf(
            Var::new("N"),
            Distribution::Str(DistStr::new([("a", 0.25), ("b", 0.75)]).unwrap()),
        );
        let p = f.product(vec![x, n]).unwrap();
        let d = p
            .logdensity(&assignment(&[
                ("X", Outcome::Real(0.0)),
                ("N", Outcome::from("a")),
            ]))
            .unwrap();
        assert_eq!(d.degree, 1);
        assert!(approx_eq(
            d.ln_weight.exp(),
            0.3989422804014327 * 0.25,
            1e-10
        ));
    }

    #[test]
    fn constrain_continuous_makes_atom() {
        let f = Factory::new();
        let x = f.leaf(
            Var::new("X"),
            Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
        );
        let post = constrain(&f, &x, &assignment(&[("X", Outcome::Real(1.5))])).unwrap();
        let e = Event::eq_real(Transform::id(Var::new("X")), 1.5);
        assert!(approx_eq(post.prob(&e).unwrap(), 1.0, 1e-12));
    }

    #[test]
    fn constrain_mixture_prefers_atoms() {
        let f = Factory::new();
        let atom = f.leaf(Var::new("X"), Distribution::Atomic { loc: 2.0 });
        let norm = f.leaf(
            Var::new("X"),
            Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
        );
        let mix = f
            .sum(vec![(atom.clone(), 0.5f64.ln()), (norm, 0.5f64.ln())])
            .unwrap();
        let post = constrain(&f, &mix, &assignment(&[("X", Outcome::Real(2.0))])).unwrap();
        // Only the atom branch survives (degree 0 < 1).
        assert!(post.same(&atom));
    }

    #[test]
    fn constrain_integer_and_string() {
        let f = Factory::new();
        let k = f.leaf(
            Var::new("K"),
            Distribution::Int(DistInt::new(Cdf::poisson(2.0), 0.0, f64::INFINITY).unwrap()),
        );
        let n = f.leaf(
            Var::new("N"),
            Distribution::Str(DistStr::new([("x", 0.5), ("y", 0.5)]).unwrap()),
        );
        let p = f.product(vec![k, n]).unwrap();
        let post = constrain(
            &f,
            &p,
            &assignment(&[("K", Outcome::Real(3.0)), ("N", Outcome::from("y"))]),
        )
        .unwrap();
        let ek = Event::eq_real(Transform::id(Var::new("K")), 3.0);
        let en = Event::eq_str(Transform::id(Var::new("N")), "y");
        assert!(approx_eq(post.prob(&ek).unwrap(), 1.0, 1e-12));
        assert!(approx_eq(post.prob(&en).unwrap(), 1.0, 1e-12));
    }

    #[test]
    fn constrain_zero_density_errors() {
        let f = Factory::new();
        let u = f.leaf(
            Var::new("X"),
            Distribution::Real(
                DistReal::new(Cdf::uniform(0.0, 1.0), Interval::closed(0.0, 1.0)).unwrap(),
            ),
        );
        assert!(matches!(
            constrain(&f, &u, &assignment(&[("X", Outcome::Real(5.0))])),
            Err(SpplError::ZeroProbability { .. })
        ));
    }

    #[test]
    fn constrain_transformed_var_rejected() {
        let f = Factory::new();
        let x = Var::new("X");
        let z = Var::new("Z");
        let leaf = f
            .leaf_env(
                x.clone(),
                Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
                Env::new().with(z.clone(), Transform::id(x).pow_int(2)),
            )
            .unwrap();
        assert!(matches!(
            constrain(&f, &leaf, &assignment(&[("Z", Outcome::Real(1.0))])),
            Err(SpplError::TransformedConstraint { .. })
        ));
    }

    #[test]
    fn unknown_variable_rejected() {
        let f = Factory::new();
        let x = f.leaf(Var::new("X"), Distribution::Atomic { loc: 0.0 });
        assert!(matches!(
            constrain(&f, &x, &assignment(&[("Q", Outcome::Real(0.0))])),
            Err(SpplError::UnknownVariable { .. })
        ));
    }

    #[test]
    fn bayes_rule_through_constrain() {
        // Two-component mixture over (N, X): N selects the component, X is
        // continuous; constraining X reweights N by the likelihoods.
        let f = Factory::new();
        let comp = |name: &str, mu: f64, w: f64| {
            let n = f.leaf(
                Var::new("N"),
                Distribution::Str(DistStr::new([(name, 1.0)]).unwrap()),
            );
            let x = f.leaf(
                Var::new("X"),
                Distribution::Real(DistReal::new(Cdf::normal(mu, 1.0), Interval::all()).unwrap()),
            );
            (f.product(vec![n, x]).unwrap(), w.ln())
        };
        let mix = f
            .sum(vec![comp("a", -1.0, 0.5), comp("b", 1.0, 0.5)])
            .unwrap();
        let post = constrain(&f, &mix, &assignment(&[("X", Outcome::Real(1.0))])).unwrap();
        let pa = post
            .prob(&Event::eq_str(Transform::id(Var::new("N")), "a"))
            .unwrap();
        // Likelihood ratio: φ(2)/φ(0) vs 1.
        let phi = |z: f64| (-z * z / 2.0f64).exp();
        let want = phi(2.0) / (phi(2.0) + phi(0.0));
        assert!(approx_eq(pa, want, 1e-9), "{pa} vs {want}");
    }
}
