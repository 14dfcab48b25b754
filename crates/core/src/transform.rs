//! The `Transform` domain: univariate (many-to-one) numeric
//! transformations of random variables, with a symbolic preimage solver.
//!
//! This corresponds to Lst. 1b / Lst. 9c of the paper and its Appx. C:
//! [`Transform::eval`] is the valuation `T` (Lst. 17), and
//! [`Transform::preimage`] implements `preimg` (Lst. 19) — the key
//! operation enabling exact inference on transformed variables, satisfying
//!
//! ```text
//! r ∈ preimg t v  ⟺  T⟦t⟧(r) ∈ v        (for real outcomes)
//! s ∈ preimg t v  ⟺  t = Id(x) ∧ s ∈ v  (for string outcomes)
//! ```
//!
//! Transforms nest structurally (`Poly(Exp(Id(X), e), [0, 1, 1])` denotes
//! `exp(X) + exp(X)²`), and every constructor inverts intervals exactly:
//! polynomials via real-root isolation (`sppl-num`), the monotone
//! primitives in closed form.

use std::collections::BTreeSet;

use sppl_num::Polynomial;
use sppl_sets::{Interval, OutcomeSet, RealSet};

use crate::event::Event;
use crate::var::Var;

/// A univariate numeric transformation of a random variable.
///
/// Build with the combinators ([`Transform::id`], [`Transform::poly`],
/// [`Transform::exp`], …) which perform light algebraic simplification
/// (e.g. polynomial-of-polynomial flattening).
#[derive(Debug, Clone, PartialEq)]
pub enum Transform {
    /// The base variable `Id(x)`.
    Id(Var),
    /// `1 / t` (extended-real convention: `1/0 = ±∞`, `1/±∞ = 0`).
    Reciprocal(Box<Transform>),
    /// `|t|`.
    Abs(Box<Transform>),
    /// `t^(1/n)` for `t ≥ 0`, `n ≥ 1`.
    Root(Box<Transform>, u32),
    /// `base^t` with `base > 0`, `base ≠ 1`.
    Exp(Box<Transform>, f64),
    /// `log_base(t)` for `t > 0`, with `base > 0`, `base ≠ 1`.
    Log(Box<Transform>, f64),
    /// `p(t)` for a real polynomial `p`.
    Poly(Box<Transform>, Polynomial),
    /// Piecewise combination: the first case whose guard holds applies.
    /// All guards and branches must be over the same single variable.
    Piecewise(Vec<(Transform, Event)>),
}

impl Eq for Transform {}

impl Transform {
    /// The identity transform on a variable.
    pub fn id<V: Into<Var>>(v: V) -> Transform {
        Transform::Id(v.into())
    }

    /// Polynomial of a transform; flattens nested polynomials and erases
    /// the identity polynomial.
    pub fn poly(inner: Transform, p: Polynomial) -> Transform {
        if p == Polynomial::identity() {
            return inner;
        }
        match inner {
            Transform::Poly(t, q) => Transform::Poly(t, p.compose(&q)),
            other => Transform::Poly(Box::new(other), p),
        }
    }

    /// `self + c`.
    pub fn add_const(self, c: f64) -> Transform {
        if c == 0.0 {
            return self;
        }
        Transform::poly(self, Polynomial::new(vec![c, 1.0]))
    }

    /// `self * c`.
    pub fn mul_const(self, c: f64) -> Transform {
        if c == 1.0 {
            return self;
        }
        Transform::poly(self, Polynomial::new(vec![0.0, c]))
    }

    /// `-self`. An inherent method (not `std::ops::Neg`) so call sites
    /// don't need the trait in scope.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Transform {
        self.mul_const(-1.0)
    }

    /// `self^n` for a nonnegative integer power.
    pub fn pow_int(self, n: u32) -> Transform {
        let mut monomial = vec![0.0; n as usize + 1];
        monomial[n as usize] = 1.0;
        Transform::poly(self, Polynomial::new(monomial))
    }

    /// `1 / self`.
    pub fn recip(self) -> Transform {
        Transform::Reciprocal(Box::new(self))
    }

    /// `|self|`.
    pub fn abs(self) -> Transform {
        Transform::Abs(Box::new(self))
    }

    /// `self^(1/n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn root(self, n: u32) -> Transform {
        assert!(n >= 1, "root index must be at least 1");
        if n == 1 {
            return self;
        }
        Transform::Root(Box::new(self), n)
    }

    /// `√self`.
    pub fn sqrt(self) -> Transform {
        self.root(2)
    }

    /// `base^self`.
    ///
    /// # Panics
    ///
    /// Panics unless `base > 0` and `base ≠ 1`.
    pub fn exp_base(self, base: f64) -> Transform {
        assert!(
            base > 0.0 && base != 1.0,
            "exp base must be positive and ≠ 1"
        );
        Transform::Exp(Box::new(self), base)
    }

    /// `e^self`.
    pub fn exp(self) -> Transform {
        self.exp_base(std::f64::consts::E)
    }

    /// `log_base(self)`.
    ///
    /// # Panics
    ///
    /// Panics unless `base > 0` and `base ≠ 1`.
    pub fn log_base(self, base: f64) -> Transform {
        assert!(
            base > 0.0 && base != 1.0,
            "log base must be positive and ≠ 1"
        );
        Transform::Log(Box::new(self), base)
    }

    /// Natural logarithm of `self`.
    pub fn ln(self) -> Transform {
        self.log_base(std::f64::consts::E)
    }

    /// Piecewise combination of guarded transforms.
    pub fn piecewise(cases: Vec<(Transform, Event)>) -> Transform {
        Transform::Piecewise(cases)
    }

    /// The set of variables appearing in the transform (`vars`, Lst. 11).
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<Var>) {
        match self {
            Transform::Id(v) => {
                out.insert(v.clone());
            }
            Transform::Reciprocal(t)
            | Transform::Abs(t)
            | Transform::Root(t, _)
            | Transform::Exp(t, _)
            | Transform::Log(t, _)
            | Transform::Poly(t, _) => t.collect_vars(out),
            Transform::Piecewise(cases) => {
                for (t, e) in cases {
                    t.collect_vars(out);
                    out.extend(e.vars());
                }
            }
        }
    }

    /// The unique variable, if the transform mentions exactly one.
    pub fn the_var(&self) -> Option<Var> {
        let vs = self.vars();
        if vs.len() == 1 {
            vs.into_iter().next()
        } else {
            None
        }
    }

    /// Replaces every occurrence of `Id(var)` with `replacement`
    /// (used by `subsenv` to rewrite events on derived variables as events
    /// on the leaf variable).
    pub fn substitute(&self, var: &Var, replacement: &Transform) -> Transform {
        match self {
            Transform::Id(v) => {
                if v == var {
                    replacement.clone()
                } else {
                    self.clone()
                }
            }
            Transform::Reciprocal(t) => {
                Transform::Reciprocal(Box::new(t.substitute(var, replacement)))
            }
            Transform::Abs(t) => Transform::Abs(Box::new(t.substitute(var, replacement))),
            Transform::Root(t, n) => Transform::Root(Box::new(t.substitute(var, replacement)), *n),
            Transform::Exp(t, b) => Transform::Exp(Box::new(t.substitute(var, replacement)), *b),
            Transform::Log(t, b) => Transform::Log(Box::new(t.substitute(var, replacement)), *b),
            Transform::Poly(t, p) => {
                Transform::Poly(Box::new(t.substitute(var, replacement)), p.clone())
            }
            Transform::Piecewise(cases) => Transform::Piecewise(
                cases
                    .iter()
                    .map(|(t, e)| {
                        (
                            t.substitute(var, replacement),
                            e.substitute(var, replacement),
                        )
                    })
                    .collect(),
            ),
        }
    }

    /// The valuation `T⟦t⟧` (Lst. 17): evaluates the transform at a point
    /// of the base variable. Returns `None` outside the domain (e.g. the
    /// logarithm of a non-positive inner value) or when no piecewise guard
    /// matches. Extended-real conventions: `1/0 = +∞` (from the right),
    /// `1/±∞ = 0`, `b^{-∞} = 0`.
    pub fn eval(&self, x: f64) -> Option<f64> {
        match self {
            Transform::Id(_) => Some(x),
            Transform::Reciprocal(t) => {
                let y = t.eval(x)?;
                if y == 0.0 {
                    Some(f64::INFINITY)
                } else if y.is_infinite() {
                    Some(0.0)
                } else {
                    Some(1.0 / y)
                }
            }
            Transform::Abs(t) => Some(t.eval(x)?.abs()),
            Transform::Root(t, n) => {
                let y = t.eval(x)?;
                if y < 0.0 {
                    None
                } else {
                    Some(y.powf(1.0 / f64::from(*n)))
                }
            }
            Transform::Exp(t, b) => Some(b.powf(t.eval(x)?)),
            Transform::Log(t, b) => {
                let y = t.eval(x)?;
                if y <= 0.0 {
                    if y == 0.0 {
                        // log(0) = -inf (base > 1) / +inf (base < 1)
                        Some(if *b > 1.0 {
                            f64::NEG_INFINITY
                        } else {
                            f64::INFINITY
                        })
                    } else {
                        None
                    }
                } else {
                    Some(y.ln() / b.ln())
                }
            }
            Transform::Poly(t, p) => Some(p.eval(t.eval(x)?)),
            Transform::Piecewise(cases) => {
                let var = self.the_var()?;
                for (t, guard) in cases {
                    if guard.outcomes_for(&var).contains_real(x) {
                        return t.eval(x);
                    }
                }
                None
            }
        }
    }

    /// `preimg t v` (Lst. 19): the set of base-variable values whose image
    /// lies in `v`. String outcomes survive only through the identity.
    pub fn preimage(&self, v: &OutcomeSet) -> OutcomeSet {
        match self {
            Transform::Id(_) => v.clone(),
            Transform::Piecewise(_) => self.preimage_piecewise(v),
            _ => {
                let inner_target = self.invert_outer(v.reals());
                self.inner().preimage(&OutcomeSet::from_reals(inner_target))
            }
        }
    }

    /// The immediate sub-transform (identity for `Id` and `Piecewise`,
    /// which are handled before this is reached).
    fn inner(&self) -> &Transform {
        match self {
            Transform::Reciprocal(t)
            | Transform::Abs(t)
            | Transform::Root(t, _)
            | Transform::Exp(t, _)
            | Transform::Log(t, _)
            | Transform::Poly(t, _) => t,
            Transform::Id(_) | Transform::Piecewise(_) => self,
        }
    }

    /// Inverts only the *outermost* constructor, mapping a target set of
    /// outputs to the required set of inner-transform values.
    fn invert_outer(&self, target: &RealSet) -> RealSet {
        match self {
            Transform::Id(_) => target.clone(),
            Transform::Reciprocal(_) => invert_reciprocal(target),
            Transform::Abs(_) => invert_abs(target),
            Transform::Root(_, n) => invert_root(target, *n),
            Transform::Exp(_, b) => invert_exp(target, *b),
            Transform::Log(_, b) => invert_log(target, *b),
            Transform::Poly(_, p) => invert_poly(target, p),
            Transform::Piecewise(_) => unreachable!("piecewise handled in preimage"),
        }
    }
}

impl Transform {
    /// Preimage for piecewise transforms: the union over cases of the
    /// branch preimage intersected with the guard region.
    fn preimage_piecewise(&self, v: &OutcomeSet) -> OutcomeSet {
        let Transform::Piecewise(cases) = self else {
            unreachable!()
        };
        let var = self
            .the_var()
            .expect("piecewise transform must be univariate");
        let mut acc = OutcomeSet::empty();
        for (t, guard) in cases {
            let region = guard.outcomes_for(&var);
            acc = acc.union(&t.preimage(v).intersection(&region));
        }
        acc
    }
}

/// Splits a target set into non-degenerate intervals and points, inverts
/// each through `f_interval` / `f_point`, and unions the results.
fn invert_piecewise<FI, FP>(target: &RealSet, f_interval: FI, f_point: FP) -> RealSet
where
    FI: Fn(&Interval) -> RealSet,
    FP: Fn(f64) -> RealSet,
{
    let mut acc = RealSet::empty();
    for iv in target.intervals() {
        let part = if iv.is_point() {
            f_point(iv.lo())
        } else {
            f_interval(iv)
        };
        acc = acc.union(&part);
    }
    acc
}

fn invert_reciprocal(target: &RealSet) -> RealSet {
    invert_piecewise(
        target,
        |iv| {
            let mut acc = RealSet::empty();
            // Positive branch: 1/y maps (0, ∞) to (0, ∞), decreasing.
            if let Some(pos) = iv.intersect(&Interval::open(0.0, f64::INFINITY)) {
                let lo = if pos.hi() == f64::INFINITY {
                    0.0
                } else {
                    1.0 / pos.hi()
                };
                let hi = if pos.lo() == 0.0 {
                    f64::INFINITY
                } else {
                    1.0 / pos.lo()
                };
                if let Some(out) = Interval::new(lo, pos.hi_closed(), hi, pos.lo_closed()) {
                    acc = acc.union(&RealSet::from(out));
                }
            }
            // Negative branch: decreasing on (-∞, 0).
            if let Some(neg) = iv.intersect(&Interval::open(f64::NEG_INFINITY, 0.0)) {
                let lo = if neg.hi() == 0.0 {
                    f64::NEG_INFINITY
                } else {
                    1.0 / neg.hi()
                };
                let hi = if neg.lo() == f64::NEG_INFINITY {
                    0.0
                } else {
                    1.0 / neg.lo()
                };
                if let Some(out) = Interval::new(lo, neg.hi_closed(), hi, neg.lo_closed()) {
                    acc = acc.union(&RealSet::from(out));
                }
            }
            // Output 0 is attained only at inner = ±∞.
            if iv.contains(0.0) {
                acc = acc.union(&RealSet::points([f64::NEG_INFINITY, f64::INFINITY]));
            }
            acc
        },
        |r| {
            if r == 0.0 {
                // eval(±∞) = 0, so both infinities map to the output 0.
                RealSet::points([f64::NEG_INFINITY, f64::INFINITY])
            } else if r == f64::INFINITY {
                // eval(0) = +∞ by convention, so only +∞ has a preimage.
                RealSet::point(0.0)
            } else if r == f64::NEG_INFINITY {
                RealSet::empty()
            } else {
                RealSet::point(1.0 / r)
            }
        },
    )
}

fn invert_abs(target: &RealSet) -> RealSet {
    invert_piecewise(
        target,
        |iv| {
            let mut acc = RealSet::empty();
            if let Some(pos) =
                iv.intersect(&Interval::new(0.0, true, f64::INFINITY, false).unwrap())
            {
                if let Some(right) =
                    Interval::new(pos.lo(), pos.lo_closed(), pos.hi(), pos.hi_closed())
                {
                    acc = acc.union(&RealSet::from(right));
                }
                if let Some(left) =
                    Interval::new(-pos.hi(), pos.hi_closed(), -pos.lo(), pos.lo_closed())
                {
                    acc = acc.union(&RealSet::from(left));
                }
            }
            acc
        },
        |r| {
            if r < 0.0 {
                RealSet::empty()
            } else if r == 0.0 {
                RealSet::point(0.0)
            } else {
                RealSet::points([-r, r])
            }
        },
    )
}

fn invert_root(target: &RealSet, n: u32) -> RealSet {
    let nf = f64::from(n);
    let power = |y: f64| -> f64 {
        if y.is_infinite() {
            y
        } else {
            y.powf(nf)
        }
    };
    invert_piecewise(
        target,
        |iv| match iv.intersect(&Interval::new(0.0, true, f64::INFINITY, false).unwrap()) {
            None => RealSet::empty(),
            Some(pos) => {
                match Interval::new(
                    power(pos.lo()),
                    pos.lo_closed(),
                    power(pos.hi()),
                    pos.hi_closed(),
                ) {
                    Some(out) => RealSet::from(out),
                    None => RealSet::empty(),
                }
            }
        },
        |r| {
            if r < 0.0 {
                RealSet::empty()
            } else {
                RealSet::point(power(r))
            }
        },
    )
}

fn invert_exp(target: &RealSet, base: f64) -> RealSet {
    let logb = |y: f64| -> f64 {
        if y == 0.0 {
            if base > 1.0 {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            }
        } else if y == f64::INFINITY {
            if base > 1.0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            }
        } else {
            y.ln() / base.ln()
        }
    };
    invert_piecewise(
        target,
        |iv| {
            // Outputs of base^t live in (0, ∞); include the boundary 0 as
            // the -∞ limit point when the target contains it.
            let mut acc = RealSet::empty();
            if let Some(pos) = iv.intersect(&Interval::open(0.0, f64::INFINITY)) {
                let (a, ac) = (logb(pos.lo()), pos.lo_closed());
                let (b, bc) = (logb(pos.hi()), pos.hi_closed());
                let out = if base > 1.0 {
                    Interval::new(a, ac, b, bc)
                } else {
                    Interval::new(b, bc, a, ac)
                };
                if let Some(out) = out {
                    acc = acc.union(&RealSet::from(out));
                }
            }
            if iv.contains(0.0) {
                acc = acc.union(&RealSet::point(if base > 1.0 {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                }));
            }
            acc
        },
        |r| {
            if r < 0.0 {
                RealSet::empty()
            } else {
                RealSet::point(logb(r))
            }
        },
    )
}

fn invert_log(target: &RealSet, base: f64) -> RealSet {
    let expb = |y: f64| -> f64 {
        if y == f64::NEG_INFINITY {
            if base > 1.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else if y == f64::INFINITY {
            if base > 1.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            base.powf(y)
        }
    };
    invert_piecewise(
        target,
        |iv| {
            let (a, ac) = (expb(iv.lo()), iv.lo_closed());
            let (b, bc) = (expb(iv.hi()), iv.hi_closed());
            let out = if base > 1.0 {
                Interval::new(a, ac, b, bc)
            } else {
                Interval::new(b, bc, a, ac)
            };
            match out {
                Some(out) => RealSet::from(out),
                None => RealSet::empty(),
            }
        },
        |r| RealSet::point(expb(r)),
    )
}

fn invert_poly(target: &RealSet, p: &Polynomial) -> RealSet {
    if let Some(c) = p.as_constant() {
        // Constant image: everything or nothing.
        return if target.contains(c) {
            RealSet::all().union(&RealSet::points([f64::NEG_INFINITY, f64::INFINITY]))
        } else {
            RealSet::empty()
        };
    }
    invert_piecewise(
        target,
        |iv| {
            // {y : p(y) ∈ ⟨a,b⟩} = region(p ≤ᵇ b) ∩ ¬region(p <ᵃ a).
            let upper = if iv.hi() == f64::INFINITY {
                RealSet::all()
            } else {
                poly_lte_region(p, iv.hi(), !iv.hi_closed())
            };
            let lower = if iv.lo() == f64::NEG_INFINITY {
                RealSet::all()
            } else {
                // want p > a (strict) when lo is open: complement of p ≤ a
                // want p ≥ a when lo is closed: complement of p < a
                poly_lte_region(p, iv.lo(), iv.lo_closed()).complement()
            };
            let mut region = upper.intersection(&lower);
            // Infinite endpoints of the target correspond to inner ±∞
            // limit points.
            for inf in [f64::NEG_INFINITY, f64::INFINITY] {
                if iv.contains(inf) {
                    region = region.union(&RealSet::points(p.solve_eq(inf)));
                }
            }
            region
        },
        |r| RealSet::points(p.solve_eq(r)),
    )
}

/// The region where `p(x) < r` (strict) or `p(x) ≤ r` (non-strict), as a
/// canonical `RealSet` built from [`Polynomial::solve_lte`].
fn poly_lte_region(p: &Polynomial, r: f64, strict: bool) -> RealSet {
    let sr = p.solve_lte(r);
    let mut parts: Vec<Interval> = sr
        .below
        .iter()
        .filter_map(|&(lo, hi)| Interval::new(lo, false, hi, false))
        .collect();
    if !strict {
        parts.extend(sr.boundary.iter().map(|&b| Interval::point(b)));
    }
    RealSet::from_intervals(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sppl_num::float::approx_eq;

    fn x() -> Var {
        Var::new("X")
    }

    fn set(iv: Interval) -> OutcomeSet {
        OutcomeSet::from(iv)
    }

    /// `pow_int` writes the monomial directly; its coefficients are the
    /// bits that multiplying `x` by itself `n` times gives.
    #[test]
    fn pow_int_is_the_repeated_product_to_the_bit() {
        let bits = |t: &Transform| match t {
            Transform::Poly(_, p) => p.coeffs().iter().map(|c| c.to_bits()).collect(),
            _ => Vec::new(),
        };
        let mut product = Polynomial::constant(1.0);
        for n in 0..=64u32 {
            let expected = Transform::poly(Transform::id(x()), product.clone());
            let got = Transform::id(x()).pow_int(n);
            assert_eq!(got, expected, "x^{n}");
            assert_eq!(bits(&got), bits(&expected), "x^{n}");
            product = product.mul(&Polynomial::identity());
        }
    }

    /// Soundness probe: x ∈ preimg(t, v) ⟺ t(x) ∈ v on a grid.
    fn check_soundness(t: &Transform, v: &OutcomeSet) {
        let pre = t.preimage(v);
        for i in -200..=200 {
            let xv = i as f64 / 8.0;
            let lhs = pre.contains_real(xv);
            let rhs = t.eval(xv).is_some_and(|y| {
                if y.is_infinite() {
                    v.reals().contains(y)
                } else {
                    v.contains_real(y)
                }
            });
            assert_eq!(lhs, rhs, "t={t:?} v={v} x={xv} t(x)={:?}", t.eval(xv));
        }
    }

    #[test]
    fn identity_preimage_is_itself() {
        let t = Transform::id(x());
        let v = set(Interval::closed(1.0, 2.0)).union(&OutcomeSet::strings(["s"]));
        assert_eq!(t.preimage(&v), v);
    }

    #[test]
    fn strings_blocked_by_non_identity() {
        let t = Transform::id(x()).abs();
        let v = OutcomeSet::strings(["s"]);
        assert!(t.preimage(&v).is_empty());
    }

    #[test]
    fn poly_square_interval() {
        // X² ∈ [1, 4]  ⇒  X ∈ [-2,-1] ∪ [1,2]
        let t = Transform::id(x()).pow_int(2);
        let pre = t.preimage(&set(Interval::closed(1.0, 4.0)));
        let ivs = pre.reals().intervals();
        assert_eq!(ivs.len(), 2, "{pre}");
        assert!(approx_eq(ivs[0].lo(), -2.0, 1e-9) && approx_eq(ivs[0].hi(), -1.0, 1e-9));
        assert!(approx_eq(ivs[1].lo(), 1.0, 1e-9) && approx_eq(ivs[1].hi(), 2.0, 1e-9));
        check_soundness(&t, &set(Interval::closed(1.0, 4.0)));
        check_soundness(&t, &set(Interval::open(1.0, 4.0)));
    }

    #[test]
    fn example_3_2_reciprocal() {
        // 1/X ∈ [1, 2]  ⇒  X ∈ [1/2, 1]  (Example 3.2 of the paper).
        let t = Transform::id(x()).recip();
        let pre = t.preimage(&set(Interval::closed(1.0, 2.0)));
        let ivs = pre.reals().intervals();
        assert_eq!(ivs.len(), 1);
        assert!(approx_eq(ivs[0].lo(), 0.5, 1e-12));
        assert!(approx_eq(ivs[0].hi(), 1.0, 1e-12));
        check_soundness(&t, &set(Interval::closed(1.0, 2.0)));
    }

    #[test]
    fn reciprocal_spanning_zero() {
        // 1/X ∈ [-1, 1]  ⇒  X ∈ (-∞,-1] ∪ [1,∞)  (plus ±∞ for the 0 image).
        let t = Transform::id(x()).recip();
        let v = set(Interval::closed(-1.0, 1.0));
        check_soundness(&t, &v);
        let pre = t.preimage(&v);
        assert!(pre.contains_real(5.0) && pre.contains_real(-5.0));
        assert!(!pre.contains_real(0.5) && !pre.contains_real(0.0));
    }

    #[test]
    fn reciprocal_point_images() {
        let t = Transform::id(x()).recip();
        let pre = t.preimage(&OutcomeSet::real_point(0.0));
        assert!(pre.reals().contains(f64::INFINITY));
        assert!(pre.reals().contains(f64::NEG_INFINITY));
        let pre2 = t.preimage(&OutcomeSet::real_point(4.0));
        assert!(pre2.contains_real(0.25));
    }

    #[test]
    fn abs_preimage() {
        let t = Transform::id(x()).abs();
        let v = set(Interval::closed_open(1.0, 2.0));
        let pre = t.preimage(&v);
        assert!(pre.contains_real(1.0) && pre.contains_real(-1.0));
        assert!(pre.contains_real(1.9) && pre.contains_real(-1.9));
        assert!(!pre.contains_real(2.0) && !pre.contains_real(-2.0));
        check_soundness(&t, &v);
        // |X| < 1 ⇒ (-1, 1)
        let v2 = set(Interval::closed_open(0.0, 1.0));
        check_soundness(&t, &v2);
    }

    #[test]
    fn sqrt_preimage() {
        let t = Transform::id(x()).sqrt();
        // √X ∈ [1, 3] ⇒ X ∈ [1, 9]
        let pre = t.preimage(&set(Interval::closed(1.0, 3.0)));
        let ivs = pre.reals().intervals();
        assert_eq!(ivs.len(), 1);
        assert!(approx_eq(ivs[0].lo(), 1.0, 1e-12) && approx_eq(ivs[0].hi(), 9.0, 1e-12));
        check_soundness(&t, &set(Interval::closed(1.0, 3.0)));
        // Negative targets are unreachable.
        assert!(t.preimage(&set(Interval::closed(-2.0, -1.0))).is_empty());
    }

    #[test]
    fn exp_preimage() {
        let t = Transform::id(x()).exp();
        // e^X ≤ 1 ⇒ X ≤ 0 (with the 0-image at -∞ when 0 included).
        let v = set(Interval::open_closed(0.0, 1.0));
        let pre = t.preimage(&v);
        assert!(pre.contains_real(0.0) && pre.contains_real(-10.0));
        assert!(!pre.contains_real(0.1));
        check_soundness(&t, &v);
    }

    #[test]
    fn log_preimage() {
        let t = Transform::id(x()).ln();
        // ln X ∈ [0, 1] ⇒ X ∈ [1, e]
        let v = set(Interval::closed(0.0, 1.0));
        let pre = t.preimage(&v);
        let ivs = pre.reals().intervals();
        assert_eq!(ivs.len(), 1);
        assert!(approx_eq(ivs[0].lo(), 1.0, 1e-12));
        assert!(approx_eq(ivs[0].hi(), std::f64::consts::E, 1e-12));
        check_soundness(&t, &v);
        // Entire line target keeps the domain restriction X > 0.
        let all = t.preimage(&OutcomeSet::all_reals());
        assert!(!all.contains_real(0.0) && !all.contains_real(-1.0) && all.contains_real(3.0));
    }

    #[test]
    fn composed_transform() {
        // (ln X)² ∈ [1, 4] ⇒ ln X ∈ [-2,-1] ∪ [1,2] ⇒ X ∈ [e⁻², e⁻¹] ∪ [e, e²]
        let t = Transform::id(x()).ln().pow_int(2);
        let v = set(Interval::closed(1.0, 4.0));
        let pre = t.preimage(&v);
        assert_eq!(pre.reals().intervals().len(), 2);
        check_soundness(&t, &v);
    }

    #[test]
    fn fig4_cubic_preimage() {
        // -X³ + X² + 6X ∈ [0, 2], from the paper's Fig. 4 / Appx. C.3:
        // preimage ≈ [-2.174, -2] ∪ [0, 0.321] (within the X < 1 branch).
        let t = Transform::poly(
            Transform::id(x()),
            Polynomial::new(vec![0.0, 6.0, 1.0, -1.0]),
        );
        let v = set(Interval::closed(0.0, 2.0));
        let pre = t.preimage(&v);
        check_soundness(&t, &v);
        // Expect three solution intervals across the whole line.
        let ivs = pre.reals().intervals();
        assert_eq!(ivs.len(), 3, "{pre}");
        assert!(approx_eq(ivs[0].lo(), -2.175, 2e-3));
        assert!(approx_eq(ivs[0].hi(), -2.0, 1e-9));
        assert!(approx_eq(ivs[1].lo(), 0.0, 1e-9));
        assert!(approx_eq(ivs[1].hi(), 0.3216, 2e-3));
    }

    #[test]
    fn poly_constant_transform() {
        let t = Transform::Poly(Box::new(Transform::id(x())), Polynomial::constant(5.0));
        assert!(t
            .preimage(&set(Interval::closed(4.0, 6.0)))
            .contains_real(123.0));
        assert!(t.preimage(&set(Interval::closed(6.0, 7.0))).is_empty());
    }

    #[test]
    fn piecewise_eval_and_preimage() {
        // Z = -X if X < 0 else X²  (so Z = |X| for X<0, X² above)
        let guard_neg = Event::lt(Transform::id(x()), 0.0);
        let guard_pos = guard_neg.negate();
        let t = Transform::piecewise(vec![
            (Transform::id(x()).neg(), guard_neg),
            (Transform::id(x()).pow_int(2), guard_pos),
        ]);
        assert_eq!(t.eval(-3.0), Some(3.0));
        assert_eq!(t.eval(2.0), Some(4.0));
        let v = set(Interval::closed(0.0, 4.0));
        let pre = t.preimage(&v);
        assert!(pre.contains_real(-4.0) && pre.contains_real(2.0) && !pre.contains_real(-5.0));
        check_soundness(&t, &v);
    }

    #[test]
    fn substitution_composes() {
        let y = Var::new("Y");
        // t = Y + 1, Y := X²  ⇒  X² + 1
        let t = Transform::id(y.clone()).add_const(1.0);
        let s = t.substitute(&y, &Transform::id(x()).pow_int(2));
        assert_eq!(s.eval(2.0), Some(5.0));
        assert_eq!(s.vars().into_iter().collect::<Vec<_>>(), vec![x()]);
    }

    #[test]
    fn poly_flattening() {
        // 2*(3x + 1) + 5 should flatten into a single polynomial layer.
        let t = Transform::id(x())
            .mul_const(3.0)
            .add_const(1.0)
            .mul_const(2.0)
            .add_const(5.0);
        match &t {
            Transform::Poly(inner, p) => {
                assert!(matches!(**inner, Transform::Id(_)));
                assert_eq!(p.coeffs(), &[7.0, 6.0]);
            }
            other => panic!("expected flattened polynomial, got {other:?}"),
        }
    }

    #[test]
    fn eval_domain_violations() {
        assert_eq!(Transform::id(x()).ln().eval(-1.0), None);
        assert_eq!(Transform::id(x()).sqrt().eval(-1.0), None);
        assert_eq!(Transform::id(x()).ln().eval(0.0), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn fingerprint_distinguishes_structure() {
        use crate::digest::transform_fingerprint as h;
        let a = Transform::id(x()).pow_int(2);
        let b = Transform::id(x()).pow_int(3);
        assert_ne!(h(&a), h(&b));
        assert_eq!(h(&a), h(&Transform::id(x()).pow_int(2)));
        // Structurally different spellings of different functions stay
        // apart even through nesting.
        assert_ne!(h(&Transform::id(x()).abs()), h(&Transform::id(x()).recip()));
        assert_ne!(
            h(&Transform::id(x()).ln().pow_int(2)),
            h(&Transform::id(x()).pow_int(2).ln())
        );
    }
}
