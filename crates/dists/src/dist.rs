//! Restricted primitive distributions (`Distribution` domain, Lst. 9e) and
//! their measure semantics (`D`, Lst. 1e).

use rand::Rng;

use sppl_sets::{Interval, Outcome, OutcomeSet, StringSet};

use crate::cdf::Cdf;

/// The most points [`DistInt::support_points`] lists. Listing costs time
/// and memory linear in the count, so a larger finite support is given
/// by its interval hull in [`Distribution::support_set`].
const MAX_SUPPORT_POINTS: f64 = 10_000.0;

/// A continuous real distribution: a base [`Cdf`] restricted to an interval
/// of positive probability (the paper's `DistR(F r₁ r₂)`).
#[derive(Debug, Clone, PartialEq)]
pub struct DistReal {
    cdf: Cdf,
    support: Interval,
    f_lo: f64,
    f_hi: f64,
}

impl DistReal {
    /// Restricts `cdf` to `support`. Returns `None` when the restriction
    /// has zero probability (`F(hi) == F(lo)`).
    pub fn new(cdf: Cdf, support: Interval) -> Option<DistReal> {
        assert!(!cdf.is_discrete(), "DistReal requires a continuous CDF");
        let f_lo = cdf.cdf(support.lo());
        let f_hi = cdf.cdf(support.hi());
        if f_hi <= f_lo {
            return None;
        }
        Some(DistReal {
            cdf,
            support,
            f_lo,
            f_hi,
        })
    }

    /// The base CDF.
    pub fn cdf(&self) -> &Cdf {
        &self.cdf
    }

    /// The restricted support.
    pub fn support(&self) -> Interval {
        self.support
    }

    /// Total probability mass of the restriction under the base CDF.
    pub fn mass(&self) -> f64 {
        self.f_hi - self.f_lo
    }

    /// Probability of an interval under the restricted distribution.
    pub fn measure_interval(&self, iv: &Interval) -> f64 {
        match self.support.intersect(iv) {
            None => 0.0,
            Some(part) => {
                let p = self.cdf.cdf(part.hi()) - self.cdf.cdf(part.lo());
                (p / self.mass()).clamp(0.0, 1.0)
            }
        }
    }

    /// Probability of an outcome set (string parts and isolated points have
    /// measure zero under a continuous distribution).
    pub fn measure(&self, v: &OutcomeSet) -> f64 {
        let mut p = 0.0;
        for iv in v.reals().intervals() {
            if !iv.is_point() {
                p += self.measure_interval(iv);
            }
        }
        p.clamp(0.0, 1.0)
    }

    /// Further truncation to `iv`. `None` if the intersection has zero mass.
    pub fn truncate(&self, iv: &Interval) -> Option<DistReal> {
        let part = self.support.intersect(iv)?;
        DistReal::new(self.cdf.clone(), part)
    }

    /// Normalized density at `x` (zero outside the support).
    pub fn pdf(&self, x: f64) -> f64 {
        if self.support.contains(x) {
            self.cdf.pdf(x) / self.mass()
        } else {
            0.0
        }
    }

    /// Samples via the truncated integral probability transform
    /// (Prop. A.1): `u ~ Uniform(F(lo), F(hi))`, `x = F⁻¹(u)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u = self.f_lo + rng.gen::<f64>() * self.mass();
        self.cdf
            .quantile(u.clamp(0.0, 1.0))
            .clamp(self.support.lo(), self.support.hi())
    }
}

/// An integer-valued distribution: a discrete base [`Cdf`] restricted to
/// the integers in `[lo, hi]` (the paper's `DistI(F r₁ r₂)`).
#[derive(Debug, Clone, PartialEq)]
pub struct DistInt {
    cdf: Cdf,
    k_lo: f64,
    k_hi: f64,
    f_below: f64,
    f_hi: f64,
}

impl DistInt {
    /// Restricts `cdf` to the integers in `[lo, hi]` (endpoints may be
    /// ±∞). Returns `None` when the restriction has zero probability.
    pub fn new(cdf: Cdf, lo: f64, hi: f64) -> Option<DistInt> {
        assert!(cdf.is_discrete(), "DistInt requires a discrete CDF");
        let (s_lo, s_hi) = cdf.support();
        let k_lo = lo.ceil().max(s_lo);
        let k_hi = hi.floor().min(s_hi);
        if k_hi < k_lo {
            return None;
        }
        let f_below = if k_lo.is_finite() {
            cdf.cdf(k_lo - 1.0)
        } else {
            0.0
        };
        let f_hi = cdf.cdf(k_hi);
        if f_hi <= f_below {
            return None;
        }
        Some(DistInt {
            cdf,
            k_lo,
            k_hi,
            f_below,
            f_hi,
        })
    }

    /// The base CDF.
    pub fn cdf(&self) -> &Cdf {
        &self.cdf
    }

    /// Smallest supported integer.
    pub fn lo(&self) -> f64 {
        self.k_lo
    }

    /// Largest supported integer (may be +∞).
    pub fn hi(&self) -> f64 {
        self.k_hi
    }

    /// Total probability mass of the restriction under the base CDF.
    pub fn mass(&self) -> f64 {
        self.f_hi - self.f_below
    }

    /// Normalized probability mass at integer `k`.
    pub fn pmf(&self, k: f64) -> f64 {
        if !sppl_num::float::is_integer(k) || k < self.k_lo || k > self.k_hi {
            return 0.0;
        }
        ((self.cdf.cdf(k) - self.cdf.cdf(k - 1.0)) / self.mass()).clamp(0.0, 1.0)
    }

    /// Probability of the integers inside `iv` under the restriction.
    pub fn measure_interval(&self, iv: &Interval) -> f64 {
        // Largest integer excluded from below / included from above.
        let lo_excl = if iv.lo_closed() {
            iv.lo().ceil() - 1.0
        } else {
            iv.lo().floor()
        };
        let hi_incl = if iv.hi_closed() {
            iv.hi().floor()
        } else if sppl_num::float::is_integer(iv.hi()) {
            iv.hi() - 1.0
        } else {
            iv.hi().floor()
        };
        let lo_excl = lo_excl.max(self.k_lo - 1.0);
        let hi_incl = hi_incl.min(self.k_hi);
        if hi_incl < lo_excl + 1.0 {
            return 0.0;
        }
        let f_lo = if lo_excl.is_finite() {
            self.cdf.cdf(lo_excl)
        } else {
            0.0
        };
        ((self.cdf.cdf(hi_incl) - f_lo) / self.mass()).clamp(0.0, 1.0)
    }

    /// Probability of an outcome set (sums interval pieces and integer
    /// points; strings have measure zero).
    pub fn measure(&self, v: &OutcomeSet) -> f64 {
        let mut p = 0.0;
        for iv in v.reals().intervals() {
            if iv.is_point() {
                p += self.pmf(iv.lo());
            } else {
                p += self.measure_interval(iv);
            }
        }
        p.clamp(0.0, 1.0)
    }

    /// Further truncation to `iv`. `None` on zero mass.
    pub fn truncate(&self, iv: &Interval) -> Option<DistInt> {
        // Translate open endpoints into integer-inclusive bounds.
        let lo = if iv.lo_closed() {
            iv.lo().ceil()
        } else {
            iv.lo().floor() + 1.0
        };
        let hi = if iv.hi_closed() {
            iv.hi().floor()
        } else if sppl_num::float::is_integer(iv.hi()) {
            iv.hi() - 1.0
        } else {
            iv.hi().floor()
        };
        DistInt::new(self.cdf.clone(), lo.max(self.k_lo), hi.min(self.k_hi))
    }

    /// The supported integers, if at most 10,000 of them (used to
    /// enumerate atoms).
    pub fn support_points(&self) -> Option<Vec<f64>> {
        let n = self.k_hi - self.k_lo;
        if n + 1.0 > MAX_SUPPORT_POINTS {
            return None;
        }
        Some((0..=n as usize).map(|i| self.k_lo + i as f64).collect())
    }

    /// Samples an integer via the truncated integral probability transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u = self.f_below + rng.gen::<f64>() * self.mass();
        self.cdf
            .quantile(u.clamp(0.0, 1.0))
            .clamp(self.k_lo, self.k_hi)
    }
}

/// A categorical distribution over strings (the paper's
/// `DistS((s₁ w₁) … (sₘ wₘ))`), kept normalized with positive weights.
#[derive(Debug, Clone, PartialEq)]
pub struct DistStr {
    items: Vec<(String, f64)>,
}

impl DistStr {
    /// Builds a categorical distribution, dropping zero weights and
    /// normalizing. Returns `None` when the total weight is not positive.
    pub fn new<I, S>(items: I) -> Option<DistStr>
    where
        I: IntoIterator<Item = (S, f64)>,
        S: Into<String>,
    {
        let mut out: Vec<(String, f64)> = Vec::new();
        let mut total = 0.0;
        for (s, w) in items {
            assert!(
                w >= 0.0 && w.is_finite(),
                "categorical weights must be >= 0"
            );
            if w > 0.0 {
                total += w;
                out.push((s.into(), w));
            }
        }
        if total <= 0.0 {
            return None;
        }
        for (_, w) in &mut out {
            *w /= total;
        }
        Some(DistStr { items: out })
    }

    /// Rebuilds a categorical from weights that are *already* normalized
    /// (e.g. read back from the serialized wire form), storing them
    /// bit-exactly instead of re-dividing by their total — `new` would
    /// perturb the stored bits whenever the total is `≈ 1.0` but not
    /// exactly `1.0`. Returns `None` when any weight is not in `(0, 1]`
    /// or the total strays from one by more than a sloppy tolerance
    /// (corrupt input, not float drift).
    pub fn from_normalized<I, S>(items: I) -> Option<DistStr>
    where
        I: IntoIterator<Item = (S, f64)>,
        S: Into<String>,
    {
        let mut out: Vec<(String, f64)> = Vec::new();
        let mut total = 0.0;
        for (s, w) in items {
            if !(w > 0.0 && w <= 1.0) {
                return None;
            }
            total += w;
            out.push((s.into(), w));
        }
        if out.is_empty() || (total - 1.0).abs() > 1e-6 {
            return None;
        }
        Some(DistStr { items: out })
    }

    /// The supported strings and their normalized weights.
    pub fn items(&self) -> &[(String, f64)] {
        &self.items
    }

    /// Probability mass of a single string.
    pub fn pmf(&self, s: &str) -> f64 {
        self.items
            .iter()
            .find(|(name, _)| name == s)
            .map_or(0.0, |(_, w)| *w)
    }

    /// Probability of the string component of an outcome set.
    pub fn measure_strings(&self, v: &StringSet) -> f64 {
        self.items
            .iter()
            .filter(|(s, _)| v.contains(s))
            .map(|(_, w)| *w)
            .sum::<f64>()
            .clamp(0.0, 1.0)
    }

    /// Probability of an outcome set (real parts have measure zero).
    pub fn measure(&self, v: &OutcomeSet) -> f64 {
        self.measure_strings(v.strs())
    }

    /// Restriction (conditioning) to a string set; `None` on zero mass.
    pub fn restrict(&self, v: &StringSet) -> Option<DistStr> {
        DistStr::new(
            self.items
                .iter()
                .filter(|(s, _)| v.contains(s))
                .map(|(s, w)| (s.clone(), *w)),
        )
    }

    /// Samples a string.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> &str {
        let mut u = rng.gen::<f64>();
        for (s, w) in &self.items {
            if u < *w {
                return s;
            }
            u -= w;
        }
        &self.items.last().expect("nonempty by construction").0
    }
}

/// A primitive univariate distribution at an SPE leaf.
#[derive(Debug, Clone, PartialEq)]
pub enum Distribution {
    /// Continuous real distribution.
    Real(DistReal),
    /// Integer-valued distribution.
    Int(DistInt),
    /// Nominal distribution over strings.
    Str(DistStr),
    /// A point mass at a real location (`atom(r)`).
    Atomic {
        /// The location carrying all the mass.
        loc: f64,
    },
}

impl Distribution {
    /// Probability of an outcome set (the paper's `D⟦d⟧ v`, Lst. 1e).
    pub fn measure(&self, v: &OutcomeSet) -> f64 {
        match self {
            Distribution::Real(d) => d.measure(v),
            Distribution::Int(d) => d.measure(v),
            Distribution::Str(d) => d.measure(v),
            Distribution::Atomic { loc } => {
                if v.contains_real(*loc) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Natural log of [`measure`](Distribution::measure) (`-∞` for
    /// probability zero): the one leaf kernel every inference path calls,
    /// so a leaf's log-probability is computed in exactly one place.
    pub fn log_measure(&self, v: &OutcomeSet) -> f64 {
        self.measure(v).ln()
    }

    /// Generalized density at a single outcome, as the pair
    /// `(degree, weight)` of the lexicographic semantics (Lst. 1d): the
    /// degree counts continuous dimensions participating in the weight.
    pub fn density(&self, o: &Outcome) -> (u64, f64) {
        match (self, o) {
            (Distribution::Real(d), Outcome::Real(r)) => (1, d.pdf(*r)),
            (Distribution::Real(_), Outcome::Str(_)) => (1, 0.0),
            _ => {
                let w = self.measure(&match o {
                    Outcome::Real(r) => OutcomeSet::real_point(*r),
                    Outcome::Str(s) => OutcomeSet::strings([s.as_str()]),
                });
                (u64::from(w == 0.0), w)
            }
        }
    }

    /// Samples an outcome.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Outcome {
        match self {
            Distribution::Real(d) => Outcome::Real(d.sample(rng)),
            Distribution::Int(d) => Outcome::Real(d.sample(rng)),
            Distribution::Str(d) => Outcome::Str(d.sample(rng).to_owned()),
            Distribution::Atomic { loc } => Outcome::Real(*loc),
        }
    }

    /// The set of outcomes with positive probability, over-approximated
    /// by the support interval for a continuous distribution and by the
    /// closed interval hull for an integer one with more than 10,000
    /// points.
    pub fn support_set(&self) -> OutcomeSet {
        match self {
            Distribution::Real(d) => OutcomeSet::from(d.support()),
            Distribution::Int(d) => match d.support_points() {
                Some(pts) => OutcomeSet::real_points(pts),
                None => OutcomeSet::from(
                    Interval::new(d.lo(), true, d.hi(), d.hi().is_finite())
                        .unwrap_or_else(Interval::all),
                ),
            },
            Distribution::Str(d) => OutcomeSet::strings(d.items().iter().map(|(s, _)| s.clone())),
            Distribution::Atomic { loc } => OutcomeSet::real_point(*loc),
        }
    }

    /// True when the distribution is continuous.
    pub fn is_continuous(&self) -> bool {
        matches!(self, Distribution::Real(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sppl_num::float::approx_eq;
    use sppl_sets::RealSet;

    fn std_normal() -> DistReal {
        DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()
    }

    #[test]
    fn real_measure_and_truncate() {
        let d = std_normal();
        assert!(approx_eq(d.measure_interval(&Interval::all()), 1.0, 1e-12));
        let half = d.truncate(&Interval::above(0.0, true).unwrap()).unwrap();
        assert!(approx_eq(half.mass(), 0.5, 1e-12));
        // Truncated measure doubles.
        let p = half.measure_interval(&Interval::closed(0.0, 1.0));
        let q = d.measure_interval(&Interval::closed(0.0, 1.0));
        assert!(approx_eq(p, 2.0 * q, 1e-10));
    }

    #[test]
    fn real_zero_mass_truncation_fails() {
        let u = DistReal::new(Cdf::uniform(0.0, 1.0), Interval::closed(0.0, 1.0)).unwrap();
        assert!(u.truncate(&Interval::closed(2.0, 3.0)).is_none());
    }

    #[test]
    fn real_points_have_measure_zero() {
        let d = std_normal();
        let v = OutcomeSet::real_points([0.0, 1.0]);
        assert_eq!(d.measure(&v), 0.0);
        assert_eq!(d.measure(&OutcomeSet::strings(["x"])), 0.0);
    }

    #[test]
    fn real_union_measure_adds() {
        let d = std_normal();
        let v = OutcomeSet::from_reals(RealSet::from_intervals(vec![
            Interval::closed(-1.0, 0.0),
            Interval::closed(1.0, 2.0),
        ]));
        let direct = d.measure_interval(&Interval::closed(-1.0, 0.0))
            + d.measure_interval(&Interval::closed(1.0, 2.0));
        assert!(approx_eq(d.measure(&v), direct, 1e-12));
    }

    #[test]
    fn int_pmf_and_measure() {
        let d = DistInt::new(Cdf::poisson(3.0), 0.0, f64::INFINITY).unwrap();
        assert!(approx_eq(d.pmf(2.0), Cdf::poisson(3.0).pmf(2.0), 1e-12));
        assert_eq!(d.pmf(2.5), 0.0);
        // Open vs closed interval endpoints matter for integers.
        let open = d.measure_interval(&Interval::open(0.0, 3.0)); // {1, 2}
        let closed = d.measure_interval(&Interval::closed(0.0, 3.0)); // {0,1,2,3}
        let p = Cdf::poisson(3.0);
        assert!(approx_eq(open, p.pmf(1.0) + p.pmf(2.0), 1e-12));
        assert!(approx_eq(
            closed,
            p.pmf(0.0) + p.pmf(1.0) + p.pmf(2.0) + p.pmf(3.0),
            1e-12
        ));
    }

    #[test]
    fn int_truncation_renormalizes() {
        let d = DistInt::new(Cdf::binomial(10, 0.5), 0.0, 10.0).unwrap();
        let t = d.truncate(&Interval::closed(4.0, 6.0)).unwrap();
        let total: f64 = (4..=6).map(|k| t.pmf(k as f64)).sum();
        assert!(approx_eq(total, 1.0, 1e-12));
        assert_eq!(t.pmf(3.0), 0.0);
    }

    #[test]
    fn int_support_points() {
        let d = DistInt::new(Cdf::binomial(3, 0.5), 0.0, 3.0).unwrap();
        assert_eq!(d.support_points().unwrap(), vec![0.0, 1.0, 2.0, 3.0]);
        let p = DistInt::new(Cdf::poisson(1.0), 0.0, f64::INFINITY).unwrap();
        assert!(p.support_points().is_none());
    }

    #[test]
    fn int_support_past_the_point_cap_is_the_interval_hull() {
        let n = MAX_SUPPORT_POINTS;
        let at_cap = DistInt::new(Cdf::discrete_uniform(1, n as i64), 1.0, n).unwrap();
        assert_eq!(at_cap.support_points().map(|p| p.len()), Some(n as usize));
        let past = DistInt::new(Cdf::discrete_uniform(0, n as i64), 0.0, n).unwrap();
        assert!(past.support_points().is_none());
        assert_eq!(
            Distribution::Int(past).support_set(),
            OutcomeSet::from(Interval::closed(0.0, n))
        );
    }

    #[test]
    fn str_measure_and_restrict() {
        let d = DistStr::new([("a", 0.2), ("b", 0.3), ("c", 0.5)]).unwrap();
        assert!(approx_eq(d.pmf("b"), 0.3, 1e-12));
        assert_eq!(d.pmf("zz"), 0.0);
        let v = StringSet::cofinite(["a"]);
        assert!(approx_eq(d.measure_strings(&v), 0.8, 1e-12));
        let r = d.restrict(&StringSet::finite(["a", "c"])).unwrap();
        assert!(approx_eq(r.pmf("a"), 0.2 / 0.7, 1e-12));
        assert!(d.restrict(&StringSet::finite(["zz"])).is_none());
    }

    #[test]
    fn str_rejects_all_zero() {
        assert!(DistStr::new([("a", 0.0)]).is_none());
    }

    #[test]
    fn atomic_measure() {
        let d = Distribution::Atomic { loc: 4.0 };
        assert_eq!(
            d.measure(&OutcomeSet::from(Interval::closed(0.0, 10.0))),
            1.0
        );
        assert_eq!(d.measure(&OutcomeSet::from(Interval::open(4.0, 10.0))), 0.0);
        assert_eq!(d.measure(&OutcomeSet::real_point(4.0)), 1.0);
    }

    #[test]
    fn density_degrees() {
        let real = Distribution::Real(std_normal());
        let (deg, w) = real.density(&Outcome::Real(0.0));
        assert_eq!(deg, 1);
        assert!(approx_eq(w, 0.3989422804014327, 1e-10));
        let atom = Distribution::Atomic { loc: 2.0 };
        assert_eq!(atom.density(&Outcome::Real(2.0)), (0, 1.0));
        assert_eq!(atom.density(&Outcome::Real(3.0)), (1, 0.0));
    }

    #[test]
    fn sampling_respects_truncation() {
        let mut rng = StdRng::seed_from_u64(7);
        let d = std_normal().truncate(&Interval::closed(1.0, 2.0)).unwrap();
        for _ in 0..500 {
            let x = d.sample(&mut rng);
            assert!((1.0..=2.0).contains(&x), "sample escaped truncation: {x}");
        }
        let di = DistInt::new(Cdf::poisson(5.0), 2.0, 4.0).unwrap();
        for _ in 0..500 {
            let k = di.sample(&mut rng);
            assert!((2.0..=4.0).contains(&k) && k == k.floor());
        }
    }

    #[test]
    fn sampling_frequencies_match_measure() {
        let mut rng = StdRng::seed_from_u64(42);
        let d = std_normal();
        let iv = Interval::closed(-1.0, 0.5);
        let n = 20_000;
        let hits = (0..n).filter(|_| iv.contains(d.sample(&mut rng))).count() as f64;
        let p = d.measure_interval(&iv);
        assert!(
            (hits / n as f64 - p).abs() < 0.02,
            "{} vs {}",
            hits / n as f64,
            p
        );
    }
}
