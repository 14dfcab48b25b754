//! The distribution families of the surface language, in one table:
//! names and aliases, parameter names, positions and defaults, the checks
//! the parameters must pass, and each family's widest support.
//!
//! The translator builds every `X ~ family(…)` through [`Family::build`],
//! and the static analyzer in `sppl-analyze` infers the sampled
//! variable's support from the same call, so both passes accept the same
//! calls and reject the rest with the same text. The analyzer can lose a
//! parameter's value at a join: a call with an unknown parameter gets no
//! verdict, and its samples lie in [`Family::widest_support`].

use sppl_dists::{Cdf, DistInt, DistReal, DistStr, Distribution};
use sppl_sets::{Interval, OutcomeSet, StringSet};

use crate::ops::{invalid, non_finite, EvalError, Value};

/// 2^53. Past it in magnitude an `f64` no longer holds every integer, so
/// an integer parameter's cast to `u64` or `i64` is no longer exact.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// The value of a distribution call: the right-hand side of `~`.
#[derive(Debug, Clone)]
pub enum DistSpec {
    /// A primitive distribution.
    Simple(Distribution),
    /// A numeric categorical `discrete({v: w, …})` as normalized
    /// `(location, weight)` pairs; it lowers to a mixture of atoms.
    NumericMixture(Vec<(f64, f64)>),
}

impl DistSpec {
    /// The outcomes a sample can take, over-approximated as
    /// [`Distribution::support_set`] does.
    pub fn support(&self) -> OutcomeSet {
        match self {
            DistSpec::Simple(d) => d.support_set(),
            DistSpec::NumericMixture(locs) => OutcomeSet::real_points(locs.iter().map(|(x, _)| *x)),
        }
    }
}

/// A distribution family of the surface language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Normal,
    Uniform,
    Exponential,
    Gamma,
    Beta,
    Cauchy,
    Laplace,
    Logistic,
    StudentT,
    Bernoulli,
    Binomial,
    Poisson,
    Geometric,
    Randint,
    Atomic,
    Choice,
    Discrete,
}

/// A call's numeric parameters, positional and keyword.
struct Params<'a> {
    pos: &'a [Option<f64>],
    named: &'a [(&'a str, Option<f64>)],
}

impl Params<'_> {
    /// The parameter given by the first of the keywords `keys` present
    /// (a repeated keyword's last value wins), else the one at position
    /// `i`. `None` when absent.
    fn get(&self, keys: &[&str], i: usize) -> Option<Option<f64>> {
        keys.iter()
            .find_map(|k| self.named.iter().rev().find(|(n, _)| n == k))
            .map(|(_, v)| *v)
            .or_else(|| self.pos.get(i).copied())
    }

    /// A required parameter; `missing` is the error when it is absent.
    fn req(&self, keys: &[&str], i: usize, missing: &str) -> Result<f64, EvalError> {
        self.get(keys, i)
            .ok_or_else(|| invalid(missing))?
            .ok_or(EvalError::Unknown)
    }

    /// An optional parameter with its default.
    fn opt(&self, keys: &[&str], i: usize, default: f64) -> Result<f64, EvalError> {
        self.get(keys, i)
            .unwrap_or(Some(default))
            .ok_or(EvalError::Unknown)
    }
}

impl Family {
    /// The family `func` names, aliases included.
    ///
    /// # Errors
    ///
    /// [`EvalError::UnknownName`] when `func` names no family.
    pub fn named(func: &str) -> Result<Family, EvalError> {
        use Family::*;
        Ok(match func {
            "normal" | "gaussian" => Normal,
            "uniform" => Uniform,
            "exponential" => Exponential,
            "gamma" => Gamma,
            "beta" => Beta,
            "cauchy" => Cauchy,
            "laplace" => Laplace,
            "logistic" => Logistic,
            "student_t" | "studentt" => StudentT,
            "bernoulli" => Bernoulli,
            "binomial" => Binomial,
            "poisson" => Poisson,
            "geometric" => Geometric,
            "randint" | "discrete_uniform" => Randint,
            "atomic" | "atom" => Atomic,
            "choice" => Choice,
            "discrete" => Discrete,
            _ => {
                return Err(EvalError::UnknownName(format!(
                    "unknown function or distribution `{func}`"
                )))
            }
        })
    }

    /// The union of the supports of every instance of the family: where
    /// a sample lies whatever the parameters are.
    pub fn widest_support(self) -> OutcomeSet {
        use Family::*;
        match self {
            Normal | Uniform | Cauchy | Laplace | Logistic | StudentT | Randint | Atomic
            | Discrete => OutcomeSet::all_reals(),
            Exponential | Gamma | Beta | Binomial | Poisson | Geometric => {
                OutcomeSet::from(Interval::above(0.0, true).expect("0 is a valid bound"))
            }
            Bernoulli => OutcomeSet::real_points([0.0, 1.0]),
            Choice => OutcomeSet::from_strings(StringSet::all()),
        }
    }

    /// The distribution `family(pos…, key=value…)`, where `dict` is the
    /// `{outcome: weight}` argument of `choice` and `discrete`. Every
    /// parameter must be finite, and every weight nonnegative.
    ///
    /// # Errors
    ///
    /// [`EvalError::Unknown`] when a parameter the family needs is
    /// `None`; otherwise the error that names the first failed check.
    pub fn build(
        self,
        pos: &[Option<f64>],
        named: &[(&str, Option<f64>)],
        dict: Option<&[(Value, Option<f64>)]>,
    ) -> Result<DistSpec, EvalError> {
        // NaN and ±inf would slip past the range checks below (NaN
        // compares false with everything) and break interval invariants
        // downstream.
        for p in pos.iter().chain(named.iter().map(|(_, v)| v)).flatten() {
            if !p.is_finite() {
                return Err(non_finite(format!(
                    "distribution parameters must be finite, got {p}"
                )));
            }
        }
        for (k, w) in dict.into_iter().flatten() {
            if let Some(w) = w {
                if !w.is_finite() {
                    return Err(non_finite(format!(
                        "distribution weights must be finite, got {w}"
                    )));
                }
                if *w < 0.0 {
                    return Err(invalid(format!(
                        "distribution weights must be nonnegative, got {w}"
                    )));
                }
            }
            if let Value::Num(n) = k {
                if !n.is_finite() {
                    return Err(non_finite(format!(
                        "distribution outcomes must be finite, got {n}"
                    )));
                }
            }
        }
        let p = Params { pos, named };
        let dist = match self {
            Family::Normal => {
                let mu = p.req(&["mu", "loc", "mean"], 0, "normal requires a mean")?;
                let sigma = p.req(&["sigma", "scale", "std"], 1, "normal requires a scale")?;
                if sigma <= 0.0 {
                    return Err(invalid(format!(
                        "normal scale must be positive, got {sigma}"
                    )));
                }
                real(Cdf::normal(mu, sigma))?
            }
            Family::Uniform => {
                let a = p.req(&["a", "lo", "loc"], 0, "uniform requires a lower bound")?;
                let b = p.req(&["b", "hi"], 1, "uniform requires an upper bound")?;
                if b <= a {
                    return Err(invalid(format!("uniform requires lo < hi, got [{a}, {b}]")));
                }
                // The density divides by the width.
                if !(b - a).is_finite() {
                    return Err(invalid(format!(
                        "uniform requires a finite width hi - lo, got [{a}, {b}]"
                    )));
                }
                DistReal::new(Cdf::uniform(a, b), Interval::closed(a, b))
                    .map(Distribution::Real)
                    .ok_or_else(|| invalid("uniform restriction has zero mass"))?
            }
            Family::Exponential => {
                let rate = p.req(
                    &["rate", "lam", "lambda_"],
                    0,
                    "exponential requires a rate",
                )?;
                if rate <= 0.0 {
                    return Err(invalid("exponential rate must be positive"));
                }
                real(Cdf::exponential(rate))?
            }
            Family::Gamma => {
                let shape = p.req(&["shape", "a", "k"], 0, "gamma requires a shape")?;
                let scale = p.opt(&["scale", "theta"], 1, 1.0)?;
                if shape <= 0.0 || scale <= 0.0 {
                    return Err(invalid("gamma parameters must be positive"));
                }
                real(Cdf::gamma(shape, scale))?
            }
            Family::Beta => {
                let a = p.req(&["a", "alpha"], 0, "beta requires a")?;
                let b = p.req(&["b", "beta"], 1, "beta requires b")?;
                let scale = p.opt(&["scale"], 2, 1.0)?;
                if a <= 0.0 || b <= 0.0 || scale <= 0.0 {
                    return Err(invalid("beta parameters must be positive"));
                }
                real(Cdf::beta_scaled(a, b, scale))?
            }
            Family::Cauchy | Family::Laplace | Family::Logistic => {
                let (name, cdf): (&str, fn(f64, f64) -> Cdf) = match self {
                    Family::Cauchy => ("cauchy", Cdf::cauchy),
                    Family::Laplace => ("laplace", Cdf::laplace),
                    _ => ("logistic", Cdf::logistic),
                };
                let loc = p.req(&["loc"], 0, &format!("{name} requires loc"))?;
                let scale = p.req(&["scale"], 1, &format!("{name} requires scale"))?;
                if scale <= 0.0 {
                    return Err(invalid(format!("{name} scale must be positive")));
                }
                real(cdf(loc, scale))?
            }
            Family::StudentT => {
                let df = p.req(&["df"], 0, "student_t requires df")?;
                if df <= 0.0 {
                    return Err(invalid("student_t df must be positive"));
                }
                real(Cdf::student_t(df))?
            }
            Family::Bernoulli => {
                let prob = p.req(&["p"], 0, "bernoulli requires p")?;
                if !(0.0..=1.0).contains(&prob) {
                    return Err(invalid(format!("bernoulli p must be in [0,1], got {prob}")));
                }
                int(Cdf::binomial(1, prob))?
            }
            Family::Binomial => {
                let n = p.req(&["n"], 0, "binomial requires n")?;
                let prob = p.req(&["p"], 1, "binomial requires p")?;
                if n < 0.0 || n.fract() != 0.0 {
                    return Err(invalid("binomial n must be a nonnegative integer"));
                }
                if n > MAX_EXACT_INT {
                    return Err(invalid(format!("binomial n must be at most 2^53, got {n}")));
                }
                if !(0.0..=1.0).contains(&prob) {
                    return Err(invalid("binomial p must be in [0,1]"));
                }
                int(Cdf::binomial(n as u64, prob))?
            }
            Family::Poisson => {
                let mu = p.req(&["mu", "lam", "rate", "mean"], 0, "poisson requires a mean")?;
                if mu <= 0.0 {
                    return Err(invalid(format!("poisson mean must be positive, got {mu}")));
                }
                int(Cdf::poisson(mu))?
            }
            Family::Geometric => {
                let prob = p.req(&["p"], 0, "geometric requires p")?;
                if prob <= 0.0 || prob > 1.0 {
                    return Err(invalid("geometric p must be in (0,1]"));
                }
                int(Cdf::geometric(prob))?
            }
            Family::Randint => {
                let lo = p.req(&["lo"], 0, "randint requires lo")?;
                let hi = p.req(&["hi"], 1, "randint requires hi")?;
                if lo.fract() != 0.0 || hi.fract() != 0.0 || hi < lo {
                    return Err(invalid("randint requires integer lo <= hi"));
                }
                if lo.abs() > MAX_EXACT_INT || hi.abs() > MAX_EXACT_INT {
                    return Err(invalid(format!(
                        "randint bounds must be at most 2^53 in magnitude, got [{lo}, {hi}]"
                    )));
                }
                int(Cdf::discrete_uniform(lo as i64, hi as i64))?
            }
            Family::Atomic => Distribution::Atomic {
                loc: p.req(&["loc"], 0, "atomic requires a location")?,
            },
            Family::Choice => {
                let pairs =
                    dict.ok_or_else(|| invalid("choice requires a dict {value: weight}"))?;
                let mut items = Vec::new();
                for (k, w) in pairs {
                    let w = w.ok_or(EvalError::Unknown)?;
                    match k {
                        Value::Str(s) => items.push((s.clone(), w)),
                        other => {
                            return Err(invalid(format!(
                                "choice keys must be strings, got {}",
                                other.type_name()
                            )))
                        }
                    }
                }
                Distribution::Str(
                    DistStr::new(items)
                        .ok_or_else(|| invalid("choice weights must include a positive entry"))?,
                )
            }
            Family::Discrete => {
                let pairs =
                    dict.ok_or_else(|| invalid("discrete requires a dict {value: weight}"))?;
                let mut locs = Vec::new();
                for (k, w) in pairs {
                    let w = w.ok_or(EvalError::Unknown)?;
                    match k {
                        Value::Num(n) => {
                            if w > 0.0 {
                                locs.push((*n, w));
                            }
                        }
                        other => {
                            return Err(invalid(format!(
                                "discrete keys must be numbers, got {}",
                                other.type_name()
                            )))
                        }
                    }
                }
                let total: f64 = locs.iter().map(|(_, w)| w).sum();
                if total <= 0.0 {
                    return Err(invalid("discrete weights must include a positive entry"));
                }
                for (_, w) in &mut locs {
                    *w /= total;
                }
                return Ok(DistSpec::NumericMixture(locs));
            }
        };
        Ok(DistSpec::Simple(dist))
    }
}

fn real(cdf: Cdf) -> Result<Distribution, EvalError> {
    let (lo, hi) = cdf.support();
    let iv = Interval::new(lo, lo.is_finite(), hi, hi.is_finite()).unwrap_or_else(Interval::all);
    DistReal::new(cdf, iv)
        .map(Distribution::Real)
        .ok_or_else(|| invalid("distribution support has zero mass"))
}

fn int(cdf: Cdf) -> Result<Distribution, EvalError> {
    let (lo, hi) = cdf.support();
    DistInt::new(cdf, lo, hi)
        .map(Distribution::Int)
        .ok_or_else(|| invalid("integer distribution has empty support"))
}
