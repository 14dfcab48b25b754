//! A single real interval with open or closed endpoints.

use std::fmt;

/// A real interval `⟨lo, hi⟩` where each endpoint is independently open or
/// closed. Degenerate intervals (`lo == hi`, both closed) represent single
/// points — including the extended points `±∞`, which the transform solver
/// produces as preimages (e.g. `1/x = 0` has preimage `{-∞, +∞}`) and which
/// all probability distributions assign measure zero.
///
/// Invariants (checked on construction):
/// * `lo <= hi`, neither is NaN;
/// * if `lo == hi` both endpoints are closed (a point);
/// * an infinite endpoint of a non-degenerate interval is open
///   (`(-∞, 3]` is fine, `[-∞, 3]` is expressed as `(-∞, 3] ∪ {-∞}`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
    lo_closed: bool,
    hi_closed: bool,
}

impl Interval {
    /// General constructor. Returns `None` for empty combinations
    /// (`lo > hi`, or `lo == hi` with an open side).
    pub fn new(lo: f64, lo_closed: bool, hi: f64, hi_closed: bool) -> Option<Interval> {
        assert!(
            !lo.is_nan() && !hi.is_nan(),
            "interval endpoints must not be NaN"
        );
        if lo > hi {
            return None;
        }
        if lo == hi {
            if lo_closed && hi_closed {
                return Some(Interval {
                    lo,
                    hi,
                    lo_closed: true,
                    hi_closed: true,
                });
            }
            return None;
        }
        let lo_closed = lo_closed && lo.is_finite();
        let hi_closed = hi_closed && hi.is_finite();
        Some(Interval {
            lo,
            hi,
            lo_closed,
            hi_closed,
        })
    }

    /// Closed interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn closed(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, true, hi, true).expect("closed interval requires lo <= hi")
    }

    /// Open interval `(lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn open(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, false, hi, false).expect("open interval requires lo < hi")
    }

    /// Half-open `[lo, hi)`.
    pub fn closed_open(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, true, hi, false).expect("closed-open interval requires lo < hi")
    }

    /// Half-open `(lo, hi]`.
    pub fn open_closed(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, false, hi, true).expect("open-closed interval requires lo < hi")
    }

    /// The degenerate interval `{x}` (also accepts ±∞ as a point).
    pub fn point(x: f64) -> Interval {
        assert!(!x.is_nan(), "point must not be NaN");
        Interval {
            lo: x,
            hi: x,
            lo_closed: true,
            hi_closed: true,
        }
    }

    /// The whole real line `(-∞, +∞)`.
    pub fn all() -> Interval {
        Interval::open(f64::NEG_INFINITY, f64::INFINITY)
    }

    /// `(-∞, hi⟩`.
    pub fn below(hi: f64, hi_closed: bool) -> Option<Interval> {
        Interval::new(f64::NEG_INFINITY, false, hi, hi_closed)
    }

    /// `⟨lo, +∞)`.
    pub fn above(lo: f64, lo_closed: bool) -> Option<Interval> {
        Interval::new(lo, lo_closed, f64::INFINITY, false)
    }

    /// Lower endpoint.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Whether the lower endpoint is included.
    pub fn lo_closed(&self) -> bool {
        self.lo_closed
    }

    /// Whether the upper endpoint is included.
    pub fn hi_closed(&self) -> bool {
        self.hi_closed
    }

    /// True when the interval is a single point.
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Membership test.
    pub fn contains(&self, x: f64) -> bool {
        let above_lo = x > self.lo || (x == self.lo && self.lo_closed);
        let below_hi = x < self.hi || (x == self.hi && self.hi_closed);
        above_lo && below_hi
    }

    /// Intersection with another interval, `None` if disjoint.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let (lo, lo_closed) = if self.lo > other.lo {
            (self.lo, self.lo_closed)
        } else if other.lo > self.lo {
            (other.lo, other.lo_closed)
        } else {
            (self.lo, self.lo_closed && other.lo_closed)
        };
        let (hi, hi_closed) = if self.hi < other.hi {
            (self.hi, self.hi_closed)
        } else if other.hi < self.hi {
            (other.hi, other.hi_closed)
        } else {
            (self.hi, self.hi_closed && other.hi_closed)
        };
        Interval::new(lo, lo_closed, hi, hi_closed)
    }

    /// True when the union of the two intervals is a single interval
    /// (they overlap or touch with at least one closed shared endpoint).
    ///
    /// Infinite points (`{±∞}`) never merge into half-infinite intervals:
    /// a non-degenerate interval is always open at an infinite endpoint,
    /// and gluing would silently violate that invariant.
    pub fn mergeable(&self, other: &Interval) -> bool {
        let (a, b) = if self.lo <= other.lo {
            (self, other)
        } else {
            (other, self)
        };
        if a.is_point() && b.is_point() {
            return a.lo == b.lo;
        }
        if a.is_point() {
            // `a.lo <= b.lo`, so the point sits at or before b's lower edge.
            return b.contains(a.lo) || (a.lo == b.lo && a.lo.is_finite());
        }
        if b.is_point() {
            return a.contains(b.lo) || (b.lo == a.hi && b.lo.is_finite());
        }
        if b.lo < a.hi {
            return true;
        }
        if b.lo == a.hi {
            return b.lo_closed || a.hi_closed;
        }
        false
    }

    /// Union of two mergeable intervals.
    ///
    /// # Panics
    ///
    /// Panics if the intervals are not [`mergeable`](Interval::mergeable).
    pub fn merge(&self, other: &Interval) -> Interval {
        assert!(self.mergeable(other), "cannot merge disjoint intervals");
        let (lo, lo_closed) = if self.lo < other.lo {
            (self.lo, self.lo_closed)
        } else if other.lo < self.lo {
            (other.lo, other.lo_closed)
        } else {
            (self.lo, self.lo_closed || other.lo_closed)
        };
        let (hi, hi_closed) = if self.hi > other.hi {
            (self.hi, self.hi_closed)
        } else if other.hi > self.hi {
            (other.hi, other.hi_closed)
        } else {
            (self.hi, self.hi_closed || other.hi_closed)
        };
        Interval {
            lo,
            hi,
            lo_closed,
            hi_closed,
        }
    }
}

impl Eq for Interval {}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_point() {
            return write!(f, "{{{}}}", self.lo);
        }
        let l = if self.lo_closed { '[' } else { '(' };
        let r = if self.hi_closed { ']' } else { ')' };
        write!(f, "{}{}, {}{}", l, self.lo, self.hi, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_rules() {
        assert!(Interval::new(2.0, true, 1.0, true).is_none());
        assert!(Interval::new(1.0, true, 1.0, false).is_none());
        assert!(Interval::new(1.0, true, 1.0, true).unwrap().is_point());
        // Infinite endpoints forced open for non-degenerate intervals.
        let i = Interval::new(f64::NEG_INFINITY, true, 0.0, true).unwrap();
        assert!(!i.lo_closed());
    }

    #[test]
    fn membership() {
        let i = Interval::closed_open(0.0, 1.0);
        assert!(i.contains(0.0));
        assert!(i.contains(0.5));
        assert!(!i.contains(1.0));
        assert!(!Interval::all().contains(f64::INFINITY));
        assert!(Interval::point(f64::INFINITY).contains(f64::INFINITY));
    }

    #[test]
    fn intersection() {
        let a = Interval::closed(0.0, 5.0);
        let b = Interval::open(3.0, 8.0);
        let c = a.intersect(&b).unwrap();
        assert_eq!(c, Interval::open_closed(3.0, 5.0));
        assert!(a.intersect(&Interval::closed(6.0, 7.0)).is_none());
        // Touching at a shared closed point.
        let p = a.intersect(&Interval::closed(5.0, 9.0)).unwrap();
        assert_eq!(p, Interval::point(5.0));
        // Touching open/closed is empty.
        assert!(Interval::open(0.0, 5.0)
            .intersect(&Interval::closed(5.0, 9.0))
            .is_none());
    }

    #[test]
    fn merging() {
        let a = Interval::closed_open(0.0, 1.0);
        let b = Interval::closed(1.0, 2.0);
        assert!(a.mergeable(&b));
        assert_eq!(a.merge(&b), Interval::closed(0.0, 2.0));
        let c = Interval::open(1.0, 2.0);
        assert!(!a.mergeable(&c)); // both open at 1
        let point = Interval::point(1.0);
        assert!(a.mergeable(&point));
        assert_eq!(a.merge(&point), Interval::closed(0.0, 1.0));
    }

    #[test]
    fn infinite_points_never_glue_into_intervals() {
        // {+∞} must stay a separate member: a non-degenerate interval is
        // always open at an infinite endpoint, so merging would corrupt
        // the invariant (and downstream preimage computations).
        let ray = Interval::open(0.0, f64::INFINITY);
        let inf = Interval::point(f64::INFINITY);
        assert!(!ray.mergeable(&inf));
        let neg_ray = Interval::open(f64::NEG_INFINITY, 0.0);
        let neg_inf = Interval::point(f64::NEG_INFINITY);
        assert!(!neg_ray.mergeable(&neg_inf));
        // Identical infinite points still deduplicate.
        assert!(inf.mergeable(&Interval::point(f64::INFINITY)));
        assert_eq!(
            inf.merge(&Interval::point(f64::INFINITY)),
            Interval::point(f64::INFINITY)
        );
    }

    #[test]
    fn display() {
        assert_eq!(Interval::closed(0.0, 1.0).to_string(), "[0, 1]");
        assert_eq!(Interval::open(0.0, 1.0).to_string(), "(0, 1)");
        assert_eq!(Interval::point(2.5).to_string(), "{2.5}");
    }
}
