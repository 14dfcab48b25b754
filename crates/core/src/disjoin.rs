//! Solved-DNF clauses and the `disjoin` decomposition (Lst. 5, Appx. D.1).
//!
//! A [`Clause`] is a conjunction with at most one containment constraint
//! per variable — a generalized hyperrectangle (the product of per-variable
//! outcome sets). Any event solves into a disjunction of clauses
//! ([`solve_event`]), and [`disjoin`] rewrites that disjunction so the
//! clauses are *pairwise disjoint* (Prop. D.6), which is what `condition`
//! needs to turn a `Product` into a `Sum`-of-`Product` (Fig. 5).

use std::collections::{BTreeMap, BTreeSet};

use sppl_sets::{Outcome, OutcomeSet};

use crate::error::SpplError;
use crate::event::Event;
use crate::transform::Transform;
use crate::var::Var;

/// A conjunction of per-variable containment constraints
/// (`⊓ᵢ (Id(xᵢ) in vᵢ)`); variables not present are unconstrained.
#[derive(Debug, Clone, PartialEq)]
pub struct Clause {
    constraints: BTreeMap<Var, OutcomeSet>,
}

impl Clause {
    /// The unconstrained clause (denotes the whole space).
    pub fn universe() -> Clause {
        Clause {
            constraints: BTreeMap::new(),
        }
    }

    /// Builds a clause from explicit constraints; returns `None` if any
    /// constraint is empty (the clause denotes ∅).
    pub fn new(constraints: BTreeMap<Var, OutcomeSet>) -> Option<Clause> {
        if constraints.values().any(OutcomeSet::is_empty) {
            return None;
        }
        Some(Clause { constraints })
    }

    /// The per-variable constraints.
    pub fn constraints(&self) -> &BTreeMap<Var, OutcomeSet> {
        &self.constraints
    }

    /// The constraint on `var` (`None` = unconstrained).
    pub fn constraint(&self, var: &Var) -> Option<&OutcomeSet> {
        self.constraints.get(var)
    }

    /// True when the clause constrains no variable.
    pub fn is_universe(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Conjunction of two clauses; `None` when the intersection is empty.
    pub fn intersect(&self, other: &Clause) -> Option<Clause> {
        let mut out = self.constraints.clone();
        for (var, set) in &other.constraints {
            let merged = match out.get(var) {
                Some(existing) => existing.intersection(set),
                None => set.clone(),
            };
            if merged.is_empty() {
                return None;
            }
            out.insert(var.clone(), merged);
        }
        Some(Clause { constraints: out })
    }

    /// True when the two clauses denote disjoint regions (Def. D.5).
    pub fn is_disjoint(&self, other: &Clause) -> bool {
        self.intersect(other).is_none()
    }

    /// Set difference `self \ other` as a list of pairwise-disjoint
    /// clauses (axis-aligned slab peeling).
    pub fn subtract(&self, other: &Clause) -> Vec<Clause> {
        if self.is_disjoint(other) {
            return vec![self.clone()];
        }
        let mut out = Vec::new();
        let mut remaining = self.clone();
        for (var, dset) in &other.constraints {
            let cset = remaining
                .constraints
                .get(var)
                .cloned()
                .unwrap_or_else(OutcomeSet::all);
            let outside = cset.intersection(&dset.complement());
            if !outside.is_empty() {
                let mut piece = remaining.clone();
                piece.constraints.insert(var.clone(), outside);
                out.push(piece);
            }
            // Not disjoint, so the inside is nonempty.
            let inside = cset.intersection(dset);
            debug_assert!(!inside.is_empty());
            remaining.constraints.insert(var.clone(), inside);
        }
        // `remaining` is now contained in `other` — dropped.
        out
    }

    /// Renders the clause back into an [`Event`].
    pub fn to_event(&self) -> Event {
        Event::and(
            self.constraints
                .iter()
                .map(|(var, set)| Event::In(Transform::id(var.clone()), set.clone()))
                .collect(),
        )
    }

    /// The product rule's router: the clause's constraints on the
    /// variables in `scope`, as the conjunction a factor with that scope
    /// answers. `None` when the clause leaves all of them free.
    pub(crate) fn event_in(&self, scope: &BTreeSet<Var>) -> Option<Event> {
        let literals: Vec<Event> = self
            .constraints
            .iter()
            .filter(|(var, _)| scope.contains(var))
            .map(|(var, set)| Event::In(Transform::id(var.clone()), set.clone()))
            .collect();
        (!literals.is_empty()).then(|| Event::and(literals))
    }

    /// Membership of a full assignment.
    pub fn contains(&self, assignment: &BTreeMap<Var, Outcome>) -> Option<bool> {
        for (var, set) in &self.constraints {
            let value = assignment.get(var)?;
            if !set.contains(value) {
                return Some(false);
            }
        }
        Some(true)
    }
}

/// Solves an arbitrary event into a disjunction of clauses: transforms are
/// inverted into per-variable constraints (`normalize`, Lst. 5a) and the
/// boolean structure is put into DNF. Clauses denoting ∅ are dropped, so an
/// unsatisfiable event yields an empty vector.
///
/// # Errors
///
/// Returns [`SpplError::MultivariateTransform`] if a literal's transform
/// mentions several variables (restriction R3).
pub fn solve_event(event: &Event) -> Result<Vec<Clause>, SpplError> {
    match event {
        Event::In(t, v) => {
            let vars = t.vars();
            if vars.len() != 1 {
                return Err(SpplError::MultivariateTransform {
                    transform: format!("{t:?}"),
                });
            }
            let var = vars.into_iter().next().expect("len checked");
            let pre = t.preimage(v);
            if pre.is_empty() {
                return Ok(vec![]);
            }
            let mut constraints = BTreeMap::new();
            constraints.insert(var, pre);
            Ok(vec![Clause { constraints }])
        }
        Event::And(es) => {
            let mut acc = vec![Clause::universe()];
            for e in es {
                let clauses = solve_event(e)?;
                let mut next = Vec::new();
                for a in &acc {
                    for c in &clauses {
                        if let Some(m) = a.intersect(c) {
                            next.push(m);
                        }
                    }
                }
                acc = next;
                if acc.is_empty() {
                    break;
                }
            }
            Ok(acc)
        }
        Event::Or(es) => {
            let mut acc = Vec::new();
            for e in es {
                acc.extend(solve_event(e)?);
            }
            Ok(acc)
        }
    }
}

/// `disjoin` (Lst. 5b): rewrites a disjunction of clauses into an
/// equivalent disjunction of *pairwise-disjoint* clauses.
pub fn disjoin(clauses: Vec<Clause>) -> Vec<Clause> {
    let mut out: Vec<Clause> = Vec::new();
    for clause in clauses {
        let mut pieces = vec![clause];
        for existing in &out {
            let mut next = Vec::new();
            for p in pieces {
                next.extend(p.subtract(existing));
            }
            pieces = next;
            if pieces.is_empty() {
                break;
            }
        }
        out.extend(pieces);
    }
    out
}

/// Solves and disjoins an event in one step.
pub fn solve_and_disjoin(event: &Event) -> Result<Vec<Clause>, SpplError> {
    Ok(disjoin(solve_event(event)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sppl_sets::Interval;

    fn x() -> Var {
        Var::new("X")
    }

    fn y() -> Var {
        Var::new("Y")
    }

    fn iv(lo: f64, hi: f64) -> OutcomeSet {
        OutcomeSet::from(Interval::closed(lo, hi))
    }

    fn clause(pairs: &[(Var, OutcomeSet)]) -> Clause {
        Clause::new(pairs.iter().cloned().collect()).expect("nonempty clause")
    }

    #[test]
    fn intersect_and_disjointness() {
        let a = clause(&[(x(), iv(0.0, 5.0))]);
        let b = clause(&[(x(), iv(3.0, 8.0)), (y(), iv(0.0, 1.0))]);
        let m = a.intersect(&b).unwrap();
        assert_eq!(m.constraint(&x()).unwrap(), &iv(3.0, 5.0));
        assert_eq!(m.constraint(&y()).unwrap(), &iv(0.0, 1.0));
        let c = clause(&[(x(), iv(6.0, 7.0))]);
        assert!(a.is_disjoint(&c));
    }

    #[test]
    fn subtract_peels_slabs() {
        // [0,10]×[0,10] minus [2,4]×[3,5] → 3 disjoint pieces... actually
        // slab peeling over 2 constrained dims gives 2 pieces + core strip.
        let big = clause(&[(x(), iv(0.0, 10.0)), (y(), iv(0.0, 10.0))]);
        let hole = clause(&[(x(), iv(2.0, 4.0)), (y(), iv(3.0, 5.0))]);
        let pieces = big.subtract(&hole);
        assert!(!pieces.is_empty());
        // Pieces are pairwise disjoint, disjoint from the hole, and
        // together with the hole cover `big` at probe points.
        for (i, p) in pieces.iter().enumerate() {
            assert!(p.is_disjoint(&hole));
            for q in &pieces[i + 1..] {
                assert!(p.is_disjoint(q));
            }
        }
        for xs in 0..=10 {
            for ys in 0..=10 {
                let mut a = BTreeMap::new();
                a.insert(x(), Outcome::Real(xs as f64));
                a.insert(y(), Outcome::Real(ys as f64));
                let in_big = big.contains(&a).unwrap();
                let in_hole = hole.contains(&a).unwrap();
                let in_pieces = pieces.iter().any(|p| p.contains(&a).unwrap());
                assert_eq!(in_pieces, in_big && !in_hole, "({xs},{ys})");
            }
        }
    }

    #[test]
    fn subtract_disjoint_returns_self() {
        let a = clause(&[(x(), iv(0.0, 1.0))]);
        let b = clause(&[(x(), iv(5.0, 6.0))]);
        assert_eq!(a.subtract(&b), vec![a.clone()]);
    }

    #[test]
    fn disjoin_overlapping_rectangles() {
        // The Fig. 5 situation: two overlapping boxes become disjoint ones.
        let a = clause(&[(x(), iv(0.0, 4.0)), (y(), iv(0.0, 4.0))]);
        let b = clause(&[(x(), iv(2.0, 6.0)), (y(), iv(2.0, 6.0))]);
        let parts = disjoin(vec![a.clone(), b.clone()]);
        assert!(parts.len() >= 2);
        for (i, p) in parts.iter().enumerate() {
            for q in &parts[i + 1..] {
                assert!(p.is_disjoint(q), "{p:?} vs {q:?}");
            }
        }
        // Coverage test on a grid.
        for xs in 0..=6 {
            for ys in 0..=6 {
                let mut asg = BTreeMap::new();
                asg.insert(x(), Outcome::Real(xs as f64));
                asg.insert(y(), Outcome::Real(ys as f64));
                let original = a.contains(&asg).unwrap() || b.contains(&asg).unwrap();
                let disjoined = parts.iter().any(|p| p.contains(&asg).unwrap());
                assert_eq!(original, disjoined, "({xs},{ys})");
            }
        }
    }

    #[test]
    fn solve_event_inverts_transforms() {
        // X² ≤ 4 ∧ Y > 0
        let e = Event::and(vec![
            Event::le(Transform::id(x()).pow_int(2), 4.0),
            Event::gt(Transform::id(y()), 0.0),
        ]);
        let clauses = solve_event(&e).unwrap();
        assert_eq!(clauses.len(), 1);
        let c = &clauses[0];
        assert!(c.constraint(&x()).unwrap().contains_real(-1.5));
        assert!(!c.constraint(&x()).unwrap().contains_real(3.0));
        assert!(c.constraint(&y()).unwrap().contains_real(0.5));
    }

    #[test]
    fn solve_event_unsatisfiable() {
        // X < 0 ∧ X > 1 is empty.
        let e = Event::and(vec![
            Event::lt(Transform::id(x()), 0.0),
            Event::gt(Transform::id(x()), 1.0),
        ]);
        assert!(solve_event(&e).unwrap().is_empty());
        // X² < -1 is empty via the transform solver.
        let e2 = Event::lt(Transform::id(x()).pow_int(2), -1.0);
        assert!(solve_event(&e2).unwrap().is_empty());
    }

    #[test]
    fn solve_event_dnf_distribution() {
        // (A ∨ B) ∧ C → two clauses.
        let a = Event::lt(Transform::id(x()), 0.0);
        let b = Event::gt(Transform::id(x()), 1.0);
        let c = Event::gt(Transform::id(y()), 0.0);
        let e = Event::and(vec![Event::or(vec![a, b]), c]);
        let clauses = solve_event(&e).unwrap();
        assert_eq!(clauses.len(), 2);
    }

    #[test]
    fn example_d3_solved_dnf() {
        // {X² ≥ 9} ∧ {|Y| < 1} → X ∈ (-∞,-3]∪[3,∞), Y ∈ (-1,1).
        let e = Event::and(vec![
            Event::ge(Transform::id(x()).pow_int(2), 9.0),
            Event::lt(Transform::id(y()).abs(), 1.0),
        ]);
        let clauses = solve_event(&e).unwrap();
        assert_eq!(clauses.len(), 1);
        let cx = clauses[0].constraint(&x()).unwrap();
        assert!(cx.contains_real(-3.0) && cx.contains_real(3.0) && !cx.contains_real(0.0));
        let cy = clauses[0].constraint(&y()).unwrap();
        assert!(cy.contains_real(0.0) && !cy.contains_real(1.0));
    }

    #[test]
    fn multivariate_literal_rejected() {
        // A transform mentioning two vars via piecewise guards.
        let t = Transform::piecewise(vec![(
            Transform::id(x()),
            Event::gt(Transform::id(y()), 0.0),
        )]);
        let e = Event::gt(t, 0.0);
        assert!(matches!(
            solve_event(&e),
            Err(SpplError::MultivariateTransform { .. })
        ));
    }
}
