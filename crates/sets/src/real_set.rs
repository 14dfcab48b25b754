//! Canonical finite unions of real intervals.

use std::fmt;

use crate::interval::Interval;

/// A set of reals represented as a sorted vector of pairwise-disjoint,
/// non-mergeable intervals (points are degenerate intervals).
///
/// This is the normalized form of the paper's `Outcomes` syntax restricted
/// to the real component: `∅`, `{r₁ … rₘ}`, `((b₁ r₁) (r₂ b₂))` and unions
/// thereof, with the Appx. B invariants (operands of a canonical union are
/// pairwise disjoint) maintained automatically.
///
/// ```
/// use sppl_sets::{Interval, RealSet};
/// let s = RealSet::from_intervals(vec![
///     Interval::closed(0.0, 1.0),
///     Interval::open(1.0, 2.0), // merges with [0,1]
///     Interval::closed(5.0, 6.0),
/// ]);
/// assert_eq!(s.intervals().len(), 2);
/// assert!(s.contains(1.5));
/// assert!(!s.contains(3.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RealSet {
    intervals: Vec<Interval>,
}

impl RealSet {
    /// The empty set.
    pub fn empty() -> RealSet {
        RealSet { intervals: vec![] }
    }

    /// The full real line `(-∞, ∞)` (infinite points excluded).
    pub fn all() -> RealSet {
        RealSet {
            intervals: vec![Interval::all()],
        }
    }

    /// A single point.
    pub fn point(x: f64) -> RealSet {
        RealSet {
            intervals: vec![Interval::point(x)],
        }
    }

    /// A finite set of points.
    pub fn points<I: IntoIterator<Item = f64>>(xs: I) -> RealSet {
        RealSet::from_intervals(xs.into_iter().map(Interval::point))
    }

    /// Canonicalizing constructor from arbitrary intervals.
    pub fn from_intervals<I: IntoIterator<Item = Interval>>(it: I) -> RealSet {
        let mut iv: Vec<Interval> = it.into_iter().collect();
        iv.sort_by(|a, b| {
            a.lo()
                .partial_cmp(&b.lo())
                .unwrap()
                .then_with(|| b.lo_closed().cmp(&a.lo_closed()))
        });
        let mut out: Vec<Interval> = Vec::with_capacity(iv.len());
        for next in iv {
            match out.last_mut() {
                Some(prev) if prev.mergeable(&next) => *prev = prev.merge(&next),
                _ => out.push(next),
            }
        }
        RealSet { intervals: out }
    }

    /// The canonical disjoint intervals, sorted ascending.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// True when the set is exactly `(-∞, ∞)`.
    pub fn is_all(&self) -> bool {
        self.intervals.len() == 1 && self.intervals[0] == Interval::all()
    }

    /// True when every member is an isolated point.
    pub fn is_finite(&self) -> bool {
        self.intervals.iter().all(Interval::is_point)
    }

    /// Membership test.
    pub fn contains(&self, x: f64) -> bool {
        // Binary search would do; linear is fine for the small sets SPPL
        // produces (#intervals is bounded by event syntax size).
        self.intervals.iter().any(|i| i.contains(x))
    }

    /// Set union.
    pub fn union(&self, other: &RealSet) -> RealSet {
        RealSet::from_intervals(self.intervals.iter().chain(other.intervals.iter()).copied())
    }

    /// Set intersection (pairwise on canonical pieces).
    pub fn intersection(&self, other: &RealSet) -> RealSet {
        let mut out = Vec::new();
        for a in &self.intervals {
            for b in &other.intervals {
                if let Some(c) = a.intersect(b) {
                    out.push(c);
                }
            }
        }
        RealSet::from_intervals(out)
    }

    /// Complement relative to the open real line `(-∞, ∞)`.
    ///
    /// Isolated infinite points (`{±∞}`) are dropped, matching the paper's
    /// `complement` (Lst. 10) which always produces intervals open at ±∞.
    pub fn complement(&self) -> RealSet {
        let mut out = Vec::new();
        let mut cursor = f64::NEG_INFINITY;
        let mut cursor_closed = false; // whether `cursor` itself is excluded from complement
        for iv in &self.intervals {
            if iv.is_point() && iv.lo().is_infinite() {
                continue; // infinite points live outside the complement universe
            }
            if let Some(gap) = Interval::new(cursor, cursor_closed, iv.lo(), !iv.lo_closed()) {
                out.push(gap);
            }
            cursor = iv.hi();
            cursor_closed = !iv.hi_closed();
        }
        if let Some(tail) = Interval::new(cursor, cursor_closed, f64::INFINITY, false) {
            out.push(tail);
        }
        RealSet::from_intervals(out)
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &RealSet) -> RealSet {
        self.intersection(&other.complement())
    }

    /// True when the two sets share no element.
    pub fn is_disjoint(&self, other: &RealSet) -> bool {
        self.intersection(other).is_empty()
    }
}

impl Eq for RealSet {}

impl From<Interval> for RealSet {
    fn from(iv: Interval) -> RealSet {
        RealSet {
            intervals: vec![iv],
        }
    }
}

impl FromIterator<Interval> for RealSet {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> RealSet {
        RealSet::from_intervals(iter)
    }
}

impl fmt::Display for RealSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        let parts: Vec<String> = self.intervals.iter().map(|i| i.to_string()).collect();
        write!(f, "{}", parts.join(" ∪ "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalization_merges_touching() {
        let s = RealSet::from_intervals(vec![
            Interval::open(0.0, 1.0),
            Interval::point(1.0),
            Interval::open(1.0, 2.0),
        ]);
        assert_eq!(s.intervals().len(), 1);
        assert_eq!(s.intervals()[0], Interval::open(0.0, 2.0));
    }

    #[test]
    fn open_adjacent_do_not_merge() {
        let s = RealSet::from_intervals(vec![Interval::open(0.0, 1.0), Interval::open(1.0, 2.0)]);
        assert_eq!(s.intervals().len(), 2);
        assert!(!s.contains(1.0));
    }

    #[test]
    fn union_intersection_basic() {
        let a = RealSet::from(Interval::closed(0.0, 5.0));
        let b = RealSet::from(Interval::closed(3.0, 8.0));
        let u = a.union(&b);
        assert_eq!(u.intervals(), &[Interval::closed(0.0, 8.0)]);
        let i = a.intersection(&b);
        assert_eq!(i.intervals(), &[Interval::closed(3.0, 5.0)]);
    }

    #[test]
    fn complement_of_closed_interval() {
        let a = RealSet::from(Interval::closed(0.0, 1.0));
        let c = a.complement();
        assert_eq!(c.intervals().len(), 2);
        assert!(c.contains(-1.0));
        assert!(!c.contains(0.0));
        assert!(!c.contains(1.0));
        assert!(c.contains(1.0000001));
        // Complement is an involution on finite-free sets.
        assert_eq!(c.complement(), a);
    }

    #[test]
    fn complement_of_points_matches_paper() {
        // complement {r1 r2} = (-inf,r1) ∪ (r1,r2) ∪ (r2,inf)  (Lst. 10)
        let s = RealSet::points([1.0, 2.0]);
        let c = s.complement();
        assert_eq!(c.intervals().len(), 3);
        assert!(!c.contains(1.0) && !c.contains(2.0) && c.contains(1.5));
    }

    #[test]
    fn complement_drops_infinite_points() {
        let s = RealSet::points([f64::NEG_INFINITY, 3.0]);
        let c = s.complement();
        // Complement excludes 3 but is otherwise the whole line.
        assert!(c.contains(-1e308));
        assert!(!c.contains(3.0));
        assert_eq!(c.intervals().len(), 2);
    }

    #[test]
    fn empty_and_all() {
        assert!(RealSet::empty().complement().is_all());
        assert!(RealSet::all().complement().is_empty());
        assert!(RealSet::empty().is_finite());
    }

    #[test]
    fn difference_and_disjoint() {
        let a = RealSet::from(Interval::closed(0.0, 10.0));
        let b = RealSet::from(Interval::open(2.0, 4.0));
        let d = a.difference(&b);
        assert!(d.contains(2.0) && d.contains(4.0) && !d.contains(3.0));
        assert!(!a.is_disjoint(&b));
        assert!(b.is_disjoint(&RealSet::point(2.0)));
    }

    #[test]
    fn points_dedup() {
        let s = RealSet::points([3.0, 1.0, 3.0]);
        assert_eq!(s.intervals().len(), 2);
    }

    #[test]
    fn display_forms() {
        assert_eq!(RealSet::empty().to_string(), "∅");
        let s = RealSet::from_intervals(vec![Interval::point(1.0), Interval::open(2.0, 3.0)]);
        assert_eq!(s.to_string(), "{1} ∪ (2, 3)");
    }
}
