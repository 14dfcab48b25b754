//! Dense univariate polynomials with real-root isolation.
//!
//! The SPPL transform solver (Appx. C.2 of the paper) needs three
//! polynomial primitives: limits at ±∞ (`polyLim`), the set of points where
//! a polynomial equals a value (`polySolve`), and the region where it is
//! below a value (`polyLte`). All three reduce to finding *all real roots*
//! of a polynomial. The reference implementation delegates to SymPy for
//! degree ≤ 2 and to numeric routines above; here we use exact closed forms
//! for degrees ≤ 2 and a derivative-recursion isolation scheme above: the
//! real roots of `p′` split the line into segments on which `p` is
//! monotone, and a safeguarded bisection finds the at-most-one root in each
//! segment.

use crate::float::{midpoint, total_cmp};
use crate::roots::solve_monotone;

/// A dense univariate polynomial, coefficients in ascending degree order
/// (`coeffs[i]` multiplies `x^i`).
///
/// The representation is kept *trimmed*: the leading coefficient is nonzero
/// unless the polynomial is the zero polynomial (represented by an empty
/// coefficient vector).
///
/// ```
/// use sppl_num::Polynomial;
/// let p = Polynomial::new(vec![6.0, 1.0, -1.0]); // 6 + x - x²
/// assert_eq!(p.degree(), Some(2));
/// let roots = p.real_roots();
/// assert_eq!(roots.len(), 2);
/// assert!((roots[0] + 2.0).abs() < 1e-9 && (roots[1] - 3.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Creates a polynomial from ascending coefficients, trimming trailing
    /// (near-)zero leading terms.
    pub fn new(coeffs: Vec<f64>) -> Self {
        let mut p = Polynomial { coeffs };
        p.trim();
        p
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Polynomial { coeffs: vec![] }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: f64) -> Self {
        Polynomial::new(vec![c])
    }

    /// The identity polynomial `x`.
    pub fn identity() -> Self {
        Polynomial::new(vec![0.0, 1.0])
    }

    fn trim(&mut self) {
        while let Some(&c) = self.coeffs.last() {
            if c == 0.0 {
                self.coeffs.pop();
            } else {
                break;
            }
        }
    }

    /// Ascending coefficients; empty for the zero polynomial.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// True when this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// True when this is a constant (degree ≤ 0).
    pub fn is_constant(&self) -> bool {
        self.coeffs.len() <= 1
    }

    /// Returns the constant value if `self` is constant (zero polynomial
    /// evaluates to 0).
    pub fn as_constant(&self) -> Option<f64> {
        match self.coeffs.len() {
            0 => Some(0.0),
            1 => Some(self.coeffs[0]),
            _ => None,
        }
    }

    /// Horner evaluation. Infinite inputs use the limit behaviour.
    pub fn eval(&self, x: f64) -> f64 {
        if x.is_infinite() {
            let (neg, pos) = self.limits();
            return if x > 0.0 { pos } else { neg };
        }
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    /// Formal derivative.
    pub fn derivative(&self) -> Polynomial {
        if self.coeffs.len() <= 1 {
            return Polynomial::zero();
        }
        Polynomial::new(
            self.coeffs
                .iter()
                .enumerate()
                .skip(1)
                .map(|(i, &c)| c * i as f64)
                .collect(),
        )
    }

    /// Polynomial sum.
    pub fn add(&self, other: &Polynomial) -> Polynomial {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut out = vec![0.0; n];
        for (i, &c) in self.coeffs.iter().enumerate() {
            out[i] += c;
        }
        for (i, &c) in other.coeffs.iter().enumerate() {
            out[i] += c;
        }
        Polynomial::new(out)
    }

    /// Polynomial difference `self - other`.
    pub fn sub(&self, other: &Polynomial) -> Polynomial {
        self.add(&other.scale(-1.0))
    }

    /// Scalar multiple.
    pub fn scale(&self, k: f64) -> Polynomial {
        Polynomial::new(self.coeffs.iter().map(|&c| c * k).collect())
    }

    /// Adds a constant term.
    pub fn shift(&self, k: f64) -> Polynomial {
        let mut coeffs = self.coeffs.clone();
        if coeffs.is_empty() {
            coeffs.push(k);
        } else {
            coeffs[0] += k;
        }
        Polynomial::new(coeffs)
    }

    /// Polynomial product.
    pub fn mul(&self, other: &Polynomial) -> Polynomial {
        if self.is_zero() || other.is_zero() {
            return Polynomial::zero();
        }
        let mut out = vec![0.0; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            for (j, &b) in other.coeffs.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        Polynomial::new(out)
    }

    /// Composition `self(inner(x))`, by Horner over polynomials.
    pub fn compose(&self, inner: &Polynomial) -> Polynomial {
        let mut acc = Polynomial::zero();
        for &c in self.coeffs.iter().rev() {
            acc = acc.mul(inner).shift(c);
        }
        acc
    }

    /// Limits at `-∞` and `+∞` respectively (`polyLim` in the paper,
    /// Lst. 21). Constants return their own value on both sides.
    pub fn limits(&self) -> (f64, f64) {
        match self.degree() {
            None => (0.0, 0.0),
            Some(0) => (self.coeffs[0], self.coeffs[0]),
            Some(d) => {
                let lead = self.coeffs[d];
                let pos = if lead > 0.0 {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                };
                let neg = if d % 2 == 0 { pos } else { -pos };
                (neg, pos)
            }
        }
    }

    /// All real roots, sorted ascending, de-duplicated. Multiple roots are
    /// reported once. Returns an empty vector for nonzero constants.
    ///
    /// # Panics
    ///
    /// Panics on the zero polynomial, whose root set is all of ℝ.
    pub fn real_roots(&self) -> Vec<f64> {
        assert!(!self.is_zero(), "the zero polynomial has uncountable roots");
        match self.degree() {
            None => unreachable!(),
            Some(0) => vec![],
            Some(1) => vec![-self.coeffs[0] / self.coeffs[1]],
            Some(2) => quadratic_roots(self.coeffs[0], self.coeffs[1], self.coeffs[2]),
            Some(_) => self.roots_by_isolation(),
        }
    }

    /// Root isolation via derivative recursion + safeguarded bisection.
    fn roots_by_isolation(&self) -> Vec<f64> {
        let scale = self
            .coeffs
            .iter()
            .fold(0.0f64, |m, c| m.max(c.abs()))
            .max(1.0);
        let tol = 1e-9 * scale;
        let crit = {
            let d = self.derivative();
            if d.is_zero() {
                vec![]
            } else {
                d.real_roots()
            }
        };
        // Breakpoints partition ℝ into monotone segments.
        let mut breaks = vec![f64::NEG_INFINITY];
        breaks.extend(crit.iter().copied());
        breaks.push(f64::INFINITY);
        let mut roots: Vec<f64> = Vec::new();
        // Touching roots at critical points.
        for &c in &crit {
            if self.eval(c).abs() <= tol {
                roots.push(polish_root(self, c));
            }
        }
        // Crossing roots within each monotone segment.
        for w in breaks.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let flo = self.eval(lo);
            let fhi = self.eval(hi);
            if flo == 0.0 && lo.is_finite() {
                continue; // handled as critical/touching or previous segment
            }
            if flo.signum() != fhi.signum() && flo != 0.0 && fhi != 0.0 {
                if let Some(r) = solve_monotone(|x| self.eval(x), 0.0, lo, hi) {
                    roots.push(polish_root(self, r));
                }
            }
        }
        roots.sort_by(|a, b| total_cmp(*a, *b));
        roots.dedup_by(|a, b| (*a - *b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())));
        roots
    }

    /// `polySolve` (Lst. 22): the set of extended reals where the
    /// polynomial equals `r`; `r` may be ±∞, in which case the answer is a
    /// subset of `{-∞, +∞}` determined by the limits.
    pub fn solve_eq(&self, r: f64) -> Vec<f64> {
        if r.is_infinite() {
            let (neg, pos) = self.limits();
            let mut out = vec![];
            if neg == r {
                out.push(f64::NEG_INFINITY);
            }
            if pos == r {
                out.push(f64::INFINITY);
            }
            return out;
        }
        let shifted = self.shift(-r);
        if shifted.is_zero() {
            // Equal everywhere: callers treat this separately; we signal by
            // returning the empty set (no isolated solutions).
            return vec![];
        }
        shifted.real_roots()
    }

    /// `polyLte` (Lst. 23): the region where `p(x) (< | ≤) r`, returned as
    /// a [`SignRegions`] description (strict open segments plus the
    /// boundary root points).
    ///
    /// # Panics
    ///
    /// Panics on constant polynomials (degree ≤ 0): the region is then all
    /// of ℝ or empty and callers are expected to branch on
    /// [`Polynomial::as_constant`] first.
    pub fn solve_lte(&self, r: f64) -> SignRegions {
        assert!(
            self.degree().is_some_and(|d| d >= 1),
            "solve_lte requires a non-constant polynomial"
        );
        if r == f64::NEG_INFINITY {
            // Nothing is < -inf; p(x) ≤ -inf only where p limits to -inf,
            // i.e. at infinite points — callers treat those as measure-zero
            // points from solve_eq.
            return SignRegions {
                below: vec![],
                boundary: self.solve_eq(r),
            };
        }
        if r == f64::INFINITY {
            let (neg, pos) = self.limits();
            let mut boundary = vec![];
            if neg == f64::INFINITY {
                boundary.push(f64::NEG_INFINITY);
            }
            if pos == f64::INFINITY {
                boundary.push(f64::INFINITY);
            }
            return SignRegions {
                below: vec![(f64::NEG_INFINITY, f64::INFINITY)],
                boundary,
            };
        }
        let shifted = self.shift(-r);
        let roots = shifted.real_roots();
        let mut breaks = vec![f64::NEG_INFINITY];
        breaks.extend(roots.iter().copied());
        breaks.push(f64::INFINITY);
        let mut below = Vec::new();
        for w in breaks.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if lo == hi {
                continue;
            }
            let m = midpoint(lo, hi);
            if shifted.eval(m) < 0.0 {
                below.push((lo, hi));
            }
        }
        // Merge adjacent strict segments that share a root where the
        // polynomial only touches from below (cannot happen: touching from
        // below means value 0 at the shared root, which is the boundary) —
        // segments stay separate; the closure operation downstream glues
        // them through boundary points when the comparison is non-strict.
        SignRegions {
            below,
            boundary: roots,
        }
    }
}

/// Result of [`Polynomial::solve_lte`]: open segments where the polynomial
/// is strictly below the threshold, plus the boundary points where it
/// equals the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct SignRegions {
    /// Maximal open intervals `(lo, hi)` (endpoints may be ±∞) with
    /// `p(x) < r` strictly in the interior.
    pub below: Vec<(f64, f64)>,
    /// Points with `p(x) == r` (for finite thresholds these are the real
    /// roots of `p - r`; for infinite thresholds, the infinite endpoints
    /// attaining the limit).
    pub boundary: Vec<f64>,
}

/// Numerically stable quadratic roots (ascending order).
fn quadratic_roots(c0: f64, c1: f64, c2: f64) -> Vec<f64> {
    debug_assert!(c2 != 0.0);
    let disc = c1 * c1 - 4.0 * c2 * c0;
    if disc < 0.0 {
        return vec![];
    }
    if disc == 0.0 {
        return vec![-c1 / (2.0 * c2)];
    }
    let sq = disc.sqrt();
    // Citardauq trick: avoid cancellation.
    let q = -0.5 * (c1 + c1.signum() * sq);
    let (r1, r2) = if c1 == 0.0 {
        let r = (sq / (2.0 * c2)).abs();
        (-r, r)
    } else {
        (q / c2, c0 / q)
    };
    let mut out = vec![r1, r2];
    out.sort_by(|a, b| total_cmp(*a, *b));
    out.dedup_by(|a, b| (*a - *b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs())));
    out
}

/// One or two Newton polish steps to tighten an approximate root.
fn polish_root(p: &Polynomial, mut x: f64) -> f64 {
    if !x.is_finite() {
        return x;
    }
    let d = p.derivative();
    for _ in 0..3 {
        let fx = p.eval(x);
        let dx = d.eval(x);
        if dx.abs() < 1e-300 {
            break;
        }
        let step = fx / dx;
        if !step.is_finite() || step.abs() > 1.0 {
            break;
        }
        x -= step;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::approx_eq;

    #[test]
    fn eval_and_degree() {
        let p = Polynomial::new(vec![1.0, 2.0, 3.0]); // 1 + 2x + 3x²
        assert_eq!(p.degree(), Some(2));
        assert_eq!(p.eval(0.0), 1.0);
        assert_eq!(p.eval(2.0), 17.0);
    }

    #[test]
    fn trim_removes_leading_zeros() {
        let p = Polynomial::new(vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(p.degree(), Some(1));
        assert!(Polynomial::new(vec![0.0, 0.0]).is_zero());
    }

    #[test]
    fn arithmetic() {
        let p = Polynomial::new(vec![1.0, 1.0]); // 1 + x
        let q = Polynomial::new(vec![-1.0, 1.0]); // -1 + x
        assert_eq!(p.mul(&q), Polynomial::new(vec![-1.0, 0.0, 1.0])); // x² - 1
        assert_eq!(p.add(&q), Polynomial::new(vec![0.0, 2.0]));
        assert_eq!(p.sub(&p), Polynomial::zero());
        assert_eq!(p.mul(&p), Polynomial::new(vec![1.0, 2.0, 1.0]));
    }

    #[test]
    fn compose_matches_pointwise() {
        let p = Polynomial::new(vec![0.0, 0.0, 1.0]); // x²
        let q = Polynomial::new(vec![1.0, 1.0]); // x + 1
        let c = p.compose(&q); // (x+1)²
        for &x in &[-2.0, 0.0, 0.5, 3.0] {
            assert!(approx_eq(c.eval(x), p.eval(q.eval(x)), 1e-12));
        }
    }

    #[test]
    fn limits_by_parity() {
        let even = Polynomial::new(vec![0.0, 0.0, 1.0]);
        assert_eq!(even.limits(), (f64::INFINITY, f64::INFINITY));
        let odd = Polynomial::new(vec![0.0, 1.0]);
        assert_eq!(odd.limits(), (f64::NEG_INFINITY, f64::INFINITY));
        let neg_odd = Polynomial::new(vec![0.0, -1.0, 0.0, -2.0]);
        assert_eq!(neg_odd.limits(), (f64::INFINITY, f64::NEG_INFINITY));
    }

    #[test]
    fn eval_at_infinity_uses_limits() {
        let p = Polynomial::new(vec![5.0, 0.0, -1.0]); // 5 - x²
        assert_eq!(p.eval(f64::INFINITY), f64::NEG_INFINITY);
        assert_eq!(p.eval(f64::NEG_INFINITY), f64::NEG_INFINITY);
    }

    #[test]
    fn linear_and_quadratic_roots() {
        assert_eq!(Polynomial::new(vec![-6.0, 2.0]).real_roots(), vec![3.0]);
        let r = Polynomial::new(vec![6.0, -5.0, 1.0]).real_roots(); // (x-2)(x-3)
        assert!(approx_eq(r[0], 2.0, 1e-12) && approx_eq(r[1], 3.0, 1e-12));
        assert!(Polynomial::new(vec![1.0, 0.0, 1.0]).real_roots().is_empty());
    }

    #[test]
    fn double_root_detected_once() {
        let r = Polynomial::new(vec![1.0, -2.0, 1.0]).real_roots(); // (x-1)²
        assert_eq!(r.len(), 1);
        assert!(approx_eq(r[0], 1.0, 1e-9));
    }

    #[test]
    fn cubic_roots() {
        // (x+1)x(x-2) = x³ - x² - 2x
        let p = Polynomial::new(vec![0.0, -2.0, -1.0, 1.0]);
        let r = p.real_roots();
        assert_eq!(r.len(), 3);
        assert!(approx_eq(r[0], -1.0, 1e-8));
        assert!(approx_eq(r[1], 0.0, 1e-8));
        assert!(approx_eq(r[2], 2.0, 1e-8));
    }

    #[test]
    fn paper_cubic_from_fig4() {
        // -x³ + x² + 6x = 2 has three real solutions (Fig. 4 uses [0,2]).
        let p = Polynomial::new(vec![0.0, 6.0, 1.0, -1.0]);
        let roots = p.solve_eq(2.0);
        assert_eq!(roots.len(), 3);
        for r in &roots {
            assert!(approx_eq(p.eval(*r), 2.0, 1e-7), "p({r}) = {}", p.eval(*r));
        }
    }

    #[test]
    fn quintic_with_touching_root() {
        // x²(x-1)(x-2)(x-3): roots 0 (double), 1, 2, 3.
        let p = Polynomial::new(vec![0.0, 0.0, 1.0])
            .mul(&Polynomial::new(vec![-1.0, 1.0]))
            .mul(&Polynomial::new(vec![-2.0, 1.0]))
            .mul(&Polynomial::new(vec![-3.0, 1.0]));
        let r = p.real_roots();
        assert_eq!(r.len(), 4, "{r:?}");
        for (got, want) in r.iter().zip([0.0, 1.0, 2.0, 3.0]) {
            assert!(approx_eq(*got, want, 1e-6), "{got} vs {want}");
        }
    }

    #[test]
    fn solve_eq_infinite_targets() {
        let p = Polynomial::new(vec![0.0, 1.0]); // x
        assert_eq!(p.solve_eq(f64::INFINITY), vec![f64::INFINITY]);
        assert_eq!(p.solve_eq(f64::NEG_INFINITY), vec![f64::NEG_INFINITY]);
        let sq = Polynomial::new(vec![0.0, 0.0, 1.0]); // x²
        assert_eq!(
            sq.solve_eq(f64::INFINITY),
            vec![f64::NEG_INFINITY, f64::INFINITY]
        );
    }

    #[test]
    fn solve_lte_quadratic() {
        // x² ≤ 4 on [-2, 2].
        let p = Polynomial::new(vec![0.0, 0.0, 1.0]);
        let sr = p.solve_lte(4.0);
        assert_eq!(sr.below.len(), 1);
        assert!(approx_eq(sr.below[0].0, -2.0, 1e-9));
        assert!(approx_eq(sr.below[0].1, 2.0, 1e-9));
        assert_eq!(sr.boundary.len(), 2);
    }

    #[test]
    #[should_panic]
    fn solve_lte_rejects_constants() {
        Polynomial::constant(3.0).solve_lte(2.0);
    }

    #[test]
    fn solve_lte_infinity() {
        let p = Polynomial::new(vec![0.0, 1.0]);
        let sr = p.solve_lte(f64::INFINITY);
        assert_eq!(sr.below, vec![(f64::NEG_INFINITY, f64::INFINITY)]);
        let none = p.solve_lte(f64::NEG_INFINITY);
        assert!(none.below.is_empty());
    }

    #[test]
    fn touching_root_excluded_from_strict_region() {
        // (x-1)² < 0 nowhere; boundary {1}.
        let p = Polynomial::new(vec![1.0, -2.0, 1.0]);
        let sr = p.solve_lte(0.0);
        assert!(sr.below.is_empty());
        assert_eq!(sr.boundary.len(), 1);
        assert!(approx_eq(sr.boundary[0], 1.0, 1e-9));
    }
}
