//! The sum domain `Outcome = Real + String` and sets of outcomes.

use std::fmt;

use crate::interval::Interval;
use crate::real_set::RealSet;
use crate::string_set::StringSet;

/// A single outcome: a real number or a string (the paper's
/// `Outcome ≔ Real + String`, with injections written `↓Real` / `↓String`).
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A real value (possibly ±∞).
    Real(f64),
    /// A nominal (string) value.
    Str(String),
}

impl Outcome {
    /// The real value if this outcome is real.
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Outcome::Real(r) => Some(*r),
            Outcome::Str(_) => None,
        }
    }

    /// The string if this outcome is nominal.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Outcome::Real(_) => None,
            Outcome::Str(s) => Some(s),
        }
    }
}

impl From<f64> for Outcome {
    fn from(r: f64) -> Outcome {
        Outcome::Real(r)
    }
}

impl From<&str> for Outcome {
    fn from(s: &str) -> Outcome {
        Outcome::Str(s.to_owned())
    }
}

impl From<String> for Outcome {
    fn from(s: String) -> Outcome {
        Outcome::Str(s)
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Real(r) => write!(f, "{r}"),
            Outcome::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// A measurable set of outcomes: the disjoint union of a real part and a
/// string part. This is the normalized form of the paper's `Outcomes`
/// domain (Lst. 1a) with the union/intersection/complement invariants of
/// Appx. B maintained by construction.
///
/// ```
/// use sppl_sets::{Interval, OutcomeSet, StringSet};
/// let v = OutcomeSet::from(Interval::closed(0.0, 1.0))
///     .union(&OutcomeSet::strings(["yes"]));
/// assert!(v.contains_real(0.5));
/// assert!(v.contains_str("yes"));
/// assert!(!v.contains_str("no"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OutcomeSet {
    reals: RealSet,
    strings: StringSet,
}

impl OutcomeSet {
    /// The empty set.
    pub fn empty() -> OutcomeSet {
        OutcomeSet {
            reals: RealSet::empty(),
            strings: StringSet::empty(),
        }
    }

    /// All outcomes: `(-∞, ∞)` plus every string.
    pub fn all() -> OutcomeSet {
        OutcomeSet {
            reals: RealSet::all(),
            strings: StringSet::all(),
        }
    }

    /// A set with only a real part.
    pub fn from_reals(reals: RealSet) -> OutcomeSet {
        OutcomeSet {
            reals,
            strings: StringSet::empty(),
        }
    }

    /// A set with only a string part.
    pub fn from_strings(strings: StringSet) -> OutcomeSet {
        OutcomeSet {
            reals: RealSet::empty(),
            strings,
        }
    }

    /// A finite set of strings.
    pub fn strings<I, S>(items: I) -> OutcomeSet
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        OutcomeSet::from_strings(StringSet::finite(items))
    }

    /// A single real point.
    pub fn real_point(x: f64) -> OutcomeSet {
        OutcomeSet::from_reals(RealSet::point(x))
    }

    /// A finite set of real points.
    pub fn real_points<I: IntoIterator<Item = f64>>(xs: I) -> OutcomeSet {
        OutcomeSet::from_reals(RealSet::points(xs))
    }

    /// The full real line (no strings).
    pub fn all_reals() -> OutcomeSet {
        OutcomeSet::from_reals(RealSet::all())
    }

    /// The real component.
    pub fn reals(&self) -> &RealSet {
        &self.reals
    }

    /// The string component.
    pub fn strs(&self) -> &StringSet {
        &self.strings
    }

    /// True when no outcome is a member.
    pub fn is_empty(&self) -> bool {
        self.reals.is_empty() && self.strings.is_empty()
    }

    /// Membership of a real value.
    pub fn contains_real(&self, x: f64) -> bool {
        self.reals.contains(x)
    }

    /// Membership of a string value.
    pub fn contains_str(&self, s: &str) -> bool {
        self.strings.contains(s)
    }

    /// Membership of an [`Outcome`].
    pub fn contains(&self, o: &Outcome) -> bool {
        match o {
            Outcome::Real(r) => self.contains_real(*r),
            Outcome::Str(s) => self.contains_str(s),
        }
    }

    /// Set union.
    pub fn union(&self, other: &OutcomeSet) -> OutcomeSet {
        OutcomeSet {
            reals: self.reals.union(&other.reals),
            strings: self.strings.union(&other.strings),
        }
    }

    /// Set intersection.
    pub fn intersection(&self, other: &OutcomeSet) -> OutcomeSet {
        OutcomeSet {
            reals: self.reals.intersection(&other.reals),
            strings: self.strings.intersection(&other.strings),
        }
    }

    /// Complement relative to [`OutcomeSet::all`].
    pub fn complement(&self) -> OutcomeSet {
        OutcomeSet {
            reals: self.reals.complement(),
            strings: self.strings.complement(),
        }
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &OutcomeSet) -> OutcomeSet {
        self.intersection(&other.complement())
    }

    /// True when the two sets share no outcome.
    pub fn is_disjoint(&self, other: &OutcomeSet) -> bool {
        self.intersection(other).is_empty()
    }

    /// Splits the set into its "atomic" disjoint pieces: one per real
    /// interval/point plus (if nonempty) the whole string part. Used when
    /// conditioning a leaf on a union produces a `Sum` over pieces
    /// (Lst. 6a of the paper).
    pub fn pieces(&self) -> Vec<OutcomeSet> {
        let mut out: Vec<OutcomeSet> = self
            .reals
            .intervals()
            .iter()
            .map(|iv| OutcomeSet::from(*iv))
            .collect();
        if !self.strings.is_empty() {
            out.push(OutcomeSet::from_strings(self.strings.clone()));
        }
        out
    }
}

impl From<Interval> for OutcomeSet {
    fn from(iv: Interval) -> OutcomeSet {
        OutcomeSet::from_reals(RealSet::from(iv))
    }
}

impl From<RealSet> for OutcomeSet {
    fn from(rs: RealSet) -> OutcomeSet {
        OutcomeSet::from_reals(rs)
    }
}

impl From<StringSet> for OutcomeSet {
    fn from(ss: StringSet) -> OutcomeSet {
        OutcomeSet::from_strings(ss)
    }
}

impl fmt::Display for OutcomeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.reals.is_empty(), self.strings.is_empty()) {
            (true, true) => write!(f, "∅"),
            (false, true) => write!(f, "{}", self.reals),
            (true, false) => write!(f, "{}", self.strings),
            (false, false) => write!(f, "{} ∪ {}", self.reals, self.strings),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_membership() {
        let v = OutcomeSet::from(Interval::closed(0.0, 2.0)).union(&OutcomeSet::strings(["x"]));
        assert!(v.contains(&Outcome::Real(1.0)));
        assert!(v.contains(&Outcome::from("x")));
        assert!(!v.contains(&Outcome::from("y")));
        assert!(!v.contains(&Outcome::Real(3.0)));
    }

    #[test]
    fn complement_spans_both_components() {
        let v = OutcomeSet::strings(["a"]);
        let c = v.complement();
        assert!(c.contains_real(0.0)); // reals were empty, complement is all reals
        assert!(!c.contains_str("a"));
        assert!(c.contains_str("b"));
    }

    #[test]
    fn de_morgan() {
        let a = OutcomeSet::from(Interval::closed(0.0, 5.0));
        let b = OutcomeSet::strings(["s"]);
        let lhs = a.union(&b).complement();
        let rhs = a.complement().intersection(&b.complement());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn pieces_enumerates_atoms() {
        let v = OutcomeSet::from_reals(RealSet::from_intervals(vec![
            Interval::closed(0.0, 1.0),
            Interval::point(5.0),
        ]))
        .union(&OutcomeSet::strings(["s"]));
        let pieces = v.pieces();
        assert_eq!(pieces.len(), 3);
        for p in &pieces {
            for q in &pieces {
                if p != q {
                    assert!(p.is_disjoint(q));
                }
            }
        }
    }

    #[test]
    fn display() {
        assert_eq!(OutcomeSet::empty().to_string(), "∅");
        let v = OutcomeSet::real_point(1.0).union(&OutcomeSet::strings(["a"]));
        assert_eq!(v.to_string(), "{1} ∪ {a}");
    }
}
