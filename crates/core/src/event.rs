//! The `Event` domain: predicates on (possibly transformed) variables
//! (Lst. 1c / Lst. 9d), with negation (Lst. 14), valuation, and a fluent
//! construction DSL.
//!
//! An event denotes a measurable subset of the multivariate outcome space.
//! `Event::And(vec![])` is the trivially true event and `Event::Or(vec![])`
//! the trivially false one (see [`Event::and`] / [`Event::or`] for why
//! these are the right identities for fold-style construction).
//!
//! # The event DSL
//!
//! Events are most conveniently built from [`var`] and the comparison
//! methods on [`Transform`], combined with the `&`, `|`, and `!`
//! operators:
//!
//! ```
//! use sppl_core::prelude::*;
//!
//! // ((Nationality = "India") ∧ (GPA ≤ 4)) ∨ (GPA² > 81)
//! let e = (var("Nationality").eq("India") & var("GPA").le(4.0))
//!     | var("GPA").pow_int(2).gt(81.0);
//! assert_eq!(e.vars().len(), 2);
//!
//! // The same predicate, spelled with the explicit constructors:
//! let verbose = Event::or(vec![
//!     Event::and(vec![
//!         Event::eq_str(Transform::id(Var::new("Nationality")), "India"),
//!         Event::le(Transform::id(Var::new("GPA")), 4.0),
//!     ]),
//!     Event::gt(Transform::id(Var::new("GPA")).pow_int(2), 81.0),
//! ]);
//! assert_eq!(e, verbose);
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{BitAnd, BitOr, Not};

use sppl_sets::{Interval, Outcome, OutcomeSet};

use crate::digest::Fingerprint;
use crate::transform::Transform;
use crate::var::Var;

/// The entry point of the event DSL: the identity transform of a named
/// variable, ready for comparison ([`Transform::le`], [`Transform::eq`],
/// …) or further transformation ([`Transform::pow_int`],
/// [`Transform::abs`], …).
///
/// ```
/// use sppl_core::prelude::*;
///
/// assert_eq!(
///     var("GPA").le(4.0),
///     Event::le(Transform::id(Var::new("GPA")), 4.0),
/// );
/// ```
pub fn var<S: AsRef<str>>(name: S) -> Transform {
    Transform::id(Var::new(name))
}

/// A constant an event literal compares a transform against: a real
/// number or a nominal string. Exists so [`Transform::eq`] and
/// [`Transform::ne`] accept both `4.0` and `"India"` through one generic
/// parameter; rarely named directly.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A real constant (also covers integer-valued variables).
    Real(f64),
    /// A nominal constant.
    Str(String),
}

impl From<f64> for Scalar {
    fn from(x: f64) -> Scalar {
        Scalar::Real(x)
    }
}

impl From<i32> for Scalar {
    fn from(x: i32) -> Scalar {
        Scalar::Real(f64::from(x))
    }
}

impl From<&str> for Scalar {
    fn from(s: &str) -> Scalar {
        Scalar::Str(s.to_string())
    }
}

impl From<String> for Scalar {
    fn from(s: String) -> Scalar {
        Scalar::Str(s)
    }
}

/// Comparison methods turning a transform into an [`Event`] literal — the
/// fluent half of the event DSL (the other half is the `&`/`|`/`!`
/// operators on `Event`). Each consumes the transform, so chains read
/// left to right: `var("X").pow_int(2).le(4.0)`.
///
/// These methods shadow the `PartialOrd`/`PartialEq` method names on
/// purpose (`t.le(4.0)` is the DSL; `t1 <= t2` on two transforms is
/// meaningless and not implemented), hence the lint allow.
#[allow(clippy::should_implement_trait)]
impl Transform {
    /// `self < r`.
    ///
    /// ```
    /// use sppl_core::prelude::*;
    /// assert_eq!(var("X").lt(1.0), Event::lt(var("X"), 1.0));
    /// ```
    pub fn lt(self, r: f64) -> Event {
        Event::lt(self, r)
    }

    /// `self <= r`.
    ///
    /// ```
    /// use sppl_core::prelude::*;
    /// assert_eq!(var("X").le(1.0), Event::le(var("X"), 1.0));
    /// ```
    pub fn le(self, r: f64) -> Event {
        Event::le(self, r)
    }

    /// `self > r`.
    ///
    /// ```
    /// use sppl_core::prelude::*;
    /// assert_eq!(var("X").gt(1.0), Event::gt(var("X"), 1.0));
    /// ```
    pub fn gt(self, r: f64) -> Event {
        Event::gt(self, r)
    }

    /// `self >= r`.
    ///
    /// ```
    /// use sppl_core::prelude::*;
    /// assert_eq!(var("X").ge(1.0), Event::ge(var("X"), 1.0));
    /// ```
    pub fn ge(self, r: f64) -> Event {
        Event::ge(self, r)
    }

    /// `self == v` for a real or nominal constant — the DSL face of
    /// [`Event::eq_real`] / [`Event::eq_str`].
    ///
    /// ```
    /// use sppl_core::prelude::*;
    /// assert_eq!(var("N").eq("India"), Event::eq_str(var("N"), "India"));
    /// assert_eq!(var("Z").eq(1.0), Event::eq_real(var("Z"), 1.0));
    /// assert_eq!(var("Z").eq(1), Event::eq_real(var("Z"), 1.0));
    /// ```
    pub fn eq(self, v: impl Into<Scalar>) -> Event {
        match v.into() {
            Scalar::Real(r) => Event::eq_real(self, r),
            Scalar::Str(s) => Event::eq_str(self, &s),
        }
    }

    /// `self != v`: the negation of [`Transform::eq`].
    ///
    /// ```
    /// use sppl_core::prelude::*;
    /// assert_eq!(var("N").ne("India"), var("N").eq("India").negate());
    /// ```
    pub fn ne(self, v: impl Into<Scalar>) -> Event {
        self.eq(v).negate()
    }

    /// `self ∈ iv` for an interval.
    ///
    /// ```
    /// use sppl_core::prelude::*;
    /// let e = var("GPA").in_interval(Interval::open(8.0, 10.0));
    /// assert_eq!(e, Event::in_interval(var("GPA"), Interval::open(8.0, 10.0)));
    /// ```
    pub fn in_interval(self, iv: Interval) -> Event {
        Event::in_interval(self, iv)
    }

    /// `self ∈ v` for an arbitrary outcome set.
    ///
    /// ```
    /// use sppl_core::prelude::*;
    /// let e = var("X").in_set(OutcomeSet::real_points([1.0, 2.0]));
    /// assert_eq!(e.vars().len(), 1);
    /// ```
    pub fn in_set(self, v: OutcomeSet) -> Event {
        Event::in_set(self, v)
    }

    /// `self ∈ {s₁, s₂, …}` for a set of nominal outcomes.
    ///
    /// ```
    /// use sppl_core::prelude::*;
    /// let e = var("N").one_of(["India", "USA"]);
    /// assert_eq!(e, Event::in_set(var("N"), OutcomeSet::strings(["India", "USA"])));
    /// ```
    pub fn one_of<I, S>(self, items: I) -> Event
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Event::in_set(self, OutcomeSet::strings(items))
    }
}

/// A predicate on program variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Containment `(t in v)`: the transform's value lies in the set.
    In(Transform, OutcomeSet),
    /// Conjunction; empty conjunction is `true`.
    And(Vec<Event>),
    /// Disjunction; empty disjunction is `false`.
    Or(Vec<Event>),
}

impl Event {
    /// The trivially true event.
    pub fn always() -> Event {
        Event::And(vec![])
    }

    /// The trivially false event.
    pub fn never() -> Event {
        Event::Or(vec![])
    }

    /// Containment in an arbitrary outcome set.
    pub fn in_set(t: Transform, v: OutcomeSet) -> Event {
        Event::In(t, v)
    }

    /// `t < r`.
    pub fn lt(t: Transform, r: f64) -> Event {
        Event::In(t, OutcomeSet::from(Interval::open(f64::NEG_INFINITY, r)))
    }

    /// `t <= r`.
    pub fn le(t: Transform, r: f64) -> Event {
        Event::In(
            t,
            OutcomeSet::from(Interval::below(r, true).expect("valid upper bound")),
        )
    }

    /// `t > r`.
    pub fn gt(t: Transform, r: f64) -> Event {
        Event::In(t, OutcomeSet::from(Interval::open(r, f64::INFINITY)))
    }

    /// `t >= r`.
    pub fn ge(t: Transform, r: f64) -> Event {
        Event::In(
            t,
            OutcomeSet::from(Interval::above(r, true).expect("valid lower bound")),
        )
    }

    /// `t == r` (a real point constraint).
    pub fn eq_real(t: Transform, r: f64) -> Event {
        Event::In(t, OutcomeSet::real_point(r))
    }

    /// `t == s` (a nominal constraint).
    pub fn eq_str(t: Transform, s: &str) -> Event {
        Event::In(t, OutcomeSet::strings([s]))
    }

    /// `a < t < b` style interval constraint.
    pub fn in_interval(t: Transform, iv: Interval) -> Event {
        Event::In(t, OutcomeSet::from(iv))
    }

    /// Flattening conjunction.
    ///
    /// Nested conjunctions are spliced in and a singleton collapses to
    /// its sole operand. **Empty-collection semantics**: `and(vec![])` is
    /// [`Event::always`], the trivially true event — the identity of
    /// conjunction — so fold-style construction (`events.fold(and)`, the
    /// DSL's `&` chains, conditioning on "no constraints") degrades to a
    /// no-op rather than an unspecified edge.
    ///
    /// ```
    /// use sppl_core::prelude::*;
    /// assert_eq!(Event::and(vec![]), Event::always());
    /// assert_eq!(Event::and(vec![]).satisfied_by(&Default::default()), Some(true));
    /// ```
    pub fn and(events: Vec<Event>) -> Event {
        let mut out = Vec::new();
        for e in events {
            match e {
                Event::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        if out.len() == 1 {
            out.pop().expect("len checked")
        } else {
            Event::And(out)
        }
    }

    /// Flattening disjunction.
    ///
    /// Nested disjunctions are spliced in and a singleton collapses to
    /// its sole operand. **Empty-collection semantics**: `or(vec![])` is
    /// [`Event::never`], the trivially false event — the identity of
    /// disjunction — mirroring [`Event::and`]'s treatment of the empty
    /// conjunction. (Conditioning on `or(vec![])` therefore fails with
    /// [`ZeroProbability`](crate::error::SpplError::ZeroProbability), as
    /// it must: the empty disjunction denotes the empty set.)
    ///
    /// ```
    /// use sppl_core::prelude::*;
    /// assert_eq!(Event::or(vec![]), Event::never());
    /// assert_eq!(Event::or(vec![]).satisfied_by(&Default::default()), Some(false));
    /// ```
    pub fn or(events: Vec<Event>) -> Event {
        let mut out = Vec::new();
        for e in events {
            match e {
                Event::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        if out.len() == 1 {
            out.pop().expect("len checked")
        } else {
            Event::Or(out)
        }
    }

    /// The variables mentioned by the event (`vars`, Lst. 11).
    pub fn vars(&self) -> BTreeSet<Var> {
        match self {
            Event::In(t, _) => t.vars(),
            Event::And(es) | Event::Or(es) => es.iter().flat_map(Event::vars).collect(),
        }
    }

    /// Logical negation by De Morgan's laws (`negate`, Lst. 14).
    pub fn negate(&self) -> Event {
        match self {
            Event::In(t, v) => Event::In(t.clone(), v.complement()),
            Event::And(es) => Event::Or(es.iter().map(Event::negate).collect()),
            Event::Or(es) => Event::And(es.iter().map(Event::negate).collect()),
        }
    }

    /// Substitutes a variable with a transform in every literal
    /// (the workhorse of `subsenv`, Lst. 13).
    pub fn substitute(&self, var: &Var, replacement: &Transform) -> Event {
        match self {
            Event::In(t, v) => Event::In(t.substitute(var, replacement), v.clone()),
            Event::And(es) => {
                Event::And(es.iter().map(|e| e.substitute(var, replacement)).collect())
            }
            Event::Or(es) => Event::Or(es.iter().map(|e| e.substitute(var, replacement)).collect()),
        }
    }

    /// The valuation `E⟦e⟧ x` (Lst. 1c) for an event whose literals all
    /// mention exactly the variable `var`: the set of outcomes of `var`
    /// satisfying the predicate. Literals over *other* variables denote
    /// the empty set along this dimension, matching the `Contains` rule.
    pub fn outcomes_for(&self, var: &Var) -> OutcomeSet {
        match self {
            Event::In(t, v) => {
                if t.vars().iter().all(|x| x == var) && !t.vars().is_empty() {
                    t.preimage(v)
                } else {
                    OutcomeSet::empty()
                }
            }
            Event::And(es) => {
                let mut acc = OutcomeSet::all();
                for e in es {
                    acc = acc.intersection(&e.outcomes_for(var));
                }
                acc
            }
            Event::Or(es) => {
                let mut acc = OutcomeSet::empty();
                for e in es {
                    acc = acc.union(&e.outcomes_for(var));
                }
                acc
            }
        }
    }

    /// Evaluates the predicate under a complete assignment of its
    /// variables. Returns `None` if a needed variable is missing or a
    /// transform is undefined at the assigned value.
    pub fn satisfied_by(&self, assignment: &BTreeMap<Var, Outcome>) -> Option<bool> {
        match self {
            Event::In(t, v) => {
                let vars = t.vars();
                let var = vars.iter().next()?;
                match assignment.get(var)? {
                    Outcome::Real(r) => {
                        let y = t.eval(*r)?;
                        Some(if y.is_infinite() {
                            v.reals().contains(y)
                        } else {
                            v.contains_real(y)
                        })
                    }
                    Outcome::Str(s) => {
                        if matches!(t, Transform::Id(_)) {
                            Some(v.contains_str(s))
                        } else {
                            Some(false)
                        }
                    }
                }
            }
            Event::And(es) => {
                for e in es {
                    if !e.satisfied_by(assignment)? {
                        return Some(false);
                    }
                }
                Some(true)
            }
            Event::Or(es) => {
                for e in es {
                    if e.satisfied_by(assignment)? {
                        return Some(true);
                    }
                }
                Some(false)
            }
        }
    }

    /// The 128-bit structural [`Fingerprint`] of the event, used as a
    /// memoization and [`SharedCache`](crate::cache::SharedCache) key.
    /// Computed by the explicit, versioned hash in [`crate::digest`]
    /// (never `std`'s unstable `DefaultHasher`), so the value is identical
    /// across processes and builds of one
    /// [`DIGEST_VERSION`](crate::digest::DIGEST_VERSION) — the property
    /// that lets persisted cache snapshots key on it.
    pub fn fingerprint(&self) -> Fingerprint {
        crate::digest::event_fingerprint(self)
    }

    /// The canonical structural form: conjunctions and disjunctions are
    /// recursively flattened, their children sorted by fingerprint, and
    /// duplicates removed, so any two constructions of the same predicate
    /// — regardless of operand order or nesting — share one fingerprint.
    /// Literal sets are untouched (they are already canonical).
    ///
    /// This is the memo key of every [`Model`](crate::model::Model)
    /// query, and the event the arena evaluates: canonicalization is
    /// purely structural (associativity, commutativity, idempotence of
    /// `∧`/`∨`), so the canonical event denotes the same set of outcomes.
    pub fn canonical(&self) -> Event {
        fn normalize(es: &[Event], conjunction: bool) -> Vec<Event> {
            let mut out: Vec<Event> = Vec::with_capacity(es.len());
            for e in es {
                match (e.canonical(), conjunction) {
                    (Event::And(inner), true) | (Event::Or(inner), false) => out.extend(inner),
                    (other, _) => out.push(other),
                }
            }
            out.sort_by_cached_key(Event::fingerprint);
            out.dedup();
            out
        }
        match self {
            Event::In(t, v) => Event::In(t.clone(), v.clone()),
            Event::And(es) => {
                let mut out = normalize(es, true);
                if out.len() == 1 {
                    out.pop().expect("len checked")
                } else {
                    Event::And(out)
                }
            }
            Event::Or(es) => {
                let mut out = normalize(es, false);
                if out.len() == 1 {
                    out.pop().expect("len checked")
                } else {
                    Event::Or(out)
                }
            }
        }
    }
}

/// `a & b` is the conjunction `a ∧ b` (via the flattening
/// [`Event::and`], so chains stay shallow).
///
/// ```
/// use sppl_core::prelude::*;
/// let e = var("X").gt(0.0) & var("Y").gt(0.0) & var("Z").gt(0.0);
/// assert!(matches!(e, Event::And(ref parts) if parts.len() == 3));
/// ```
impl BitAnd for Event {
    type Output = Event;

    fn bitand(self, rhs: Event) -> Event {
        Event::and(vec![self, rhs])
    }
}

/// `a | b` is the disjunction `a ∨ b` (via the flattening
/// [`Event::or`]).
///
/// ```
/// use sppl_core::prelude::*;
/// let e = var("X").gt(0.0) | var("X").lt(-1.0) | var("X").eq(-0.5);
/// assert!(matches!(e, Event::Or(ref parts) if parts.len() == 3));
/// ```
impl BitOr for Event {
    type Output = Event;

    fn bitor(self, rhs: Event) -> Event {
        Event::or(vec![self, rhs])
    }
}

/// `!e` is the logical negation (De Morgan via [`Event::negate`]).
///
/// ```
/// use sppl_core::prelude::*;
/// assert_eq!(!var("X").le(0.0), var("X").le(0.0).negate());
/// ```
impl Not for Event {
    type Output = Event;

    fn not(self) -> Event {
        self.negate()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::In(t, v) => write!(f, "({t:?} in {v})"),
            Event::And(es) if es.is_empty() => write!(f, "true"),
            Event::Or(es) if es.is_empty() => write!(f, "false"),
            Event::And(es) => {
                let parts: Vec<String> = es.iter().map(|e| e.to_string()).collect();
                write!(f, "({})", parts.join(" ∧ "))
            }
            Event::Or(es) => {
                let parts: Vec<String> = es.iter().map(|e| e.to_string()).collect();
                write!(f, "({})", parts.join(" ∨ "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Var {
        Var::new("X")
    }

    fn y() -> Var {
        Var::new("Y")
    }

    #[test]
    fn negation_involution_on_literals() {
        let e = Event::lt(Transform::id(x()), 3.0);
        let back = e.negate().negate();
        // Same denotation (canonical sets), same structure.
        assert_eq!(e, back);
    }

    #[test]
    fn de_morgan_shape() {
        let e = Event::and(vec![
            Event::lt(Transform::id(x()), 1.0),
            Event::gt(Transform::id(y()), 2.0),
        ]);
        match e.negate() {
            Event::Or(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn outcomes_for_intersections() {
        // (X > 0) ∧ (X < 2) over X.
        let e = Event::and(vec![
            Event::gt(Transform::id(x()), 0.0),
            Event::lt(Transform::id(x()), 2.0),
        ]);
        let v = e.outcomes_for(&x());
        assert!(v.contains_real(1.0));
        assert!(!v.contains_real(0.0) && !v.contains_real(2.0));
    }

    #[test]
    fn outcomes_for_foreign_literal_is_empty() {
        let e = Event::gt(Transform::id(y()), 0.0);
        assert!(e.outcomes_for(&x()).is_empty());
    }

    #[test]
    fn transformed_outcomes() {
        // X² ≤ 4 over X gives [-2, 2].
        let e = Event::le(Transform::id(x()).pow_int(2), 4.0);
        let v = e.outcomes_for(&x());
        assert!(v.contains_real(-2.0) && v.contains_real(2.0) && v.contains_real(0.0));
        assert!(!v.contains_real(2.1));
    }

    #[test]
    fn satisfied_by_assignments() {
        let e = Event::and(vec![
            Event::gt(Transform::id(x()), 0.0),
            Event::eq_str(Transform::id(y()), "hot"),
        ]);
        let mut a = BTreeMap::new();
        a.insert(x(), Outcome::Real(1.0));
        a.insert(y(), Outcome::from("hot"));
        assert_eq!(e.satisfied_by(&a), Some(true));
        a.insert(y(), Outcome::from("cold"));
        assert_eq!(e.satisfied_by(&a), Some(false));
        a.remove(&y());
        assert_eq!(e.satisfied_by(&a), None);
    }

    #[test]
    fn truth_constants() {
        let a = BTreeMap::new();
        assert_eq!(Event::always().satisfied_by(&a), Some(true));
        assert_eq!(Event::never().satisfied_by(&a), Some(false));
        assert!(Event::always().outcomes_for(&x()).reals().is_all());
    }

    #[test]
    fn flattening_builders() {
        let e = Event::and(vec![
            Event::and(vec![Event::lt(Transform::id(x()), 1.0)]),
            Event::gt(Transform::id(y()), 0.0),
        ]);
        match e {
            Event::And(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected flattened And, got {other:?}"),
        }
    }

    #[test]
    fn fingerprints_differ() {
        let a = Event::lt(Transform::id(x()), 1.0);
        let b = Event::lt(Transform::id(x()), 2.0);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.fingerprint(),
            Event::lt(Transform::id(x()), 1.0).fingerprint()
        );
    }

    #[test]
    fn canonical_is_order_insensitive() {
        let a = Event::lt(Transform::id(x()), 1.0);
        let b = Event::gt(Transform::id(y()), 0.0);
        let ab = Event::And(vec![a.clone(), b.clone()]);
        let ba = Event::And(vec![b.clone(), a.clone()]);
        assert_ne!(ab.fingerprint(), ba.fingerprint());
        assert_eq!(ab.canonical().fingerprint(), ba.canonical().fingerprint());
        // Nested disjunctions flatten before sorting.
        let nested = Event::Or(vec![b.clone(), Event::Or(vec![a.clone()])]);
        let flat = Event::Or(vec![a.clone(), b.clone()]);
        assert_eq!(
            nested.canonical().fingerprint(),
            flat.canonical().fingerprint()
        );
    }

    #[test]
    fn canonical_dedups_and_collapses_singletons() {
        let a = Event::lt(Transform::id(x()), 1.0);
        let twice = Event::And(vec![a.clone(), a.clone()]);
        assert_eq!(twice.canonical(), a);
        // Constants survive canonicalization.
        assert_eq!(Event::always().canonical(), Event::always());
        assert_eq!(Event::never().canonical(), Event::never());
    }

    #[test]
    fn empty_and_is_true_empty_or_is_false() {
        // The documented identities of fold-style construction.
        assert_eq!(Event::and(vec![]), Event::always());
        assert_eq!(Event::or(vec![]), Event::never());
        let empty = BTreeMap::new();
        assert_eq!(Event::and(vec![]).satisfied_by(&empty), Some(true));
        assert_eq!(Event::or(vec![]).satisfied_by(&empty), Some(false));
        // Identities in folds: and([e]) == e, or([e]) == e, and folding
        // from the identity yields the same event.
        let e = Event::lt(Transform::id(x()), 1.0);
        assert_eq!(Event::and(vec![e.clone()]), e);
        assert_eq!(Event::or(vec![e.clone()]), e);
        assert_eq!(Event::and(vec![Event::always(), e.clone()]), e);
        // always() is And([]) which splices away; never() = Or([]) splices
        // away inside or-folds likewise.
        assert_eq!(Event::or(vec![Event::never(), e.clone()]), e);
        // Valuation: the empty conjunction covers everything, the empty
        // disjunction nothing.
        assert!(Event::and(vec![]).outcomes_for(&x()).reals().is_all());
        assert!(Event::or(vec![]).outcomes_for(&x()).is_empty());
    }

    #[test]
    fn dsl_matches_explicit_constructors() {
        assert_eq!(var("X").lt(1.0), Event::lt(Transform::id(x()), 1.0));
        assert_eq!(var("X").le(1.0), Event::le(Transform::id(x()), 1.0));
        assert_eq!(var("X").gt(1.0), Event::gt(Transform::id(x()), 1.0));
        assert_eq!(var("X").ge(1.0), Event::ge(Transform::id(x()), 1.0));
        assert_eq!(var("X").eq(2.0), Event::eq_real(Transform::id(x()), 2.0));
        assert_eq!(var("X").eq(2), Event::eq_real(Transform::id(x()), 2.0));
        assert_eq!(
            var("N").eq("hot"),
            Event::eq_str(Transform::id(Var::new("N")), "hot")
        );
        assert_eq!(
            var("N").eq(String::from("hot")),
            Event::eq_str(Transform::id(Var::new("N")), "hot")
        );
        assert_eq!(var("N").ne("hot"), var("N").eq("hot").negate());
        assert_eq!(
            var("X").in_interval(Interval::open(0.0, 1.0)),
            Event::in_interval(Transform::id(x()), Interval::open(0.0, 1.0))
        );
        assert_eq!(
            var("N").one_of(["a", "b"]),
            Event::in_set(
                Transform::id(Var::new("N")),
                OutcomeSet::strings(["a", "b"])
            )
        );
        // DSL entry composes with the transform combinators.
        assert_eq!(
            var("X").pow_int(2).le(4.0),
            Event::le(Transform::id(x()).pow_int(2), 4.0)
        );
    }

    #[test]
    fn operator_overloads_build_flattened_events() {
        let a = var("X").lt(1.0);
        let b = var("Y").gt(2.0);
        let c = var("X").eq(0.0);
        assert_eq!(
            a.clone() & b.clone(),
            Event::and(vec![a.clone(), b.clone()])
        );
        assert_eq!(a.clone() | b.clone(), Event::or(vec![a.clone(), b.clone()]));
        // Chained operators flatten instead of nesting.
        match a.clone() & b.clone() & c.clone() {
            Event::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flat And, got {other:?}"),
        }
        match a.clone() | b.clone() | c.clone() {
            Event::Or(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flat Or, got {other:?}"),
        }
        assert_eq!(!a.clone(), a.negate());
        // Mixed precedence: `&` binds tighter than `|` in Rust, matching
        // the conventional reading of ∧ over ∨.
        let mixed = a.clone() & b.clone() | c.clone();
        assert_eq!(mixed, Event::or(vec![Event::and(vec![a, b]), c]));
    }

    #[test]
    fn vars_collects_across_nesting() {
        let e = Event::or(vec![
            Event::lt(Transform::id(x()), 1.0),
            Event::and(vec![Event::gt(Transform::id(y()), 0.0)]),
        ]);
        let vs = e.vars();
        assert!(vs.contains(&x()) && vs.contains(&y()));
    }
}
