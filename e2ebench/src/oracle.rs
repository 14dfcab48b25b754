//! Reference answers computed without the engine: closed-form mixture
//! CDFs, HMM forward–backward smoothing, chain forward passes, and
//! decision-tree box sums. None of this shares code with the crates under
//! test; it uses its own error function and its own recursions.

use std::collections::BTreeMap;

use crate::gen::{ChainNet, Component, Fairness, Hmm, Mixture, Population, Tree};

/// `erfc(x)`: power series below 2.5, Lentz continued fraction above.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    if x > 40.0 {
        return 0.0;
    }
    if x < 2.5 {
        // erf(x) = 2/sqrt(pi) * sum_n (-1)^n x^(2n+1) / (n! (2n+1)).
        let mut term = x;
        let mut sum = x;
        let x2 = x * x;
        let mut n = 0.0;
        while term.abs() > 1e-17 * sum.abs() {
            n += 1.0;
            term *= -x2 / n;
            sum += term / (2.0 * n + 1.0);
        }
        return 1.0 - sum * std::f64::consts::FRAC_2_SQRT_PI;
    }
    // erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...)))).
    let tiny = 1e-300;
    let mut f = x;
    let mut c = x;
    let mut d = 0.0;
    for k in 1..200 {
        let a = f64::from(k) / 2.0;
        d = x + a * d;
        if d.abs() < tiny {
            d = tiny;
        }
        c = x + a / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (-x * x).exp() / (f * std::f64::consts::PI.sqrt())
}

/// `P(N(mu, sd) <= x)`.
pub fn normal_cdf(x: f64, mu: f64, sd: f64) -> f64 {
    0.5 * erfc(-(x - mu) / (sd * std::f64::consts::SQRT_2))
}

/// `P(lo < N(mu, sd) < hi)`, computed on the tail that keeps precision.
pub fn normal_mass(lo: f64, hi: f64, mu: f64, sd: f64) -> f64 {
    if hi <= lo {
        return 0.0;
    }
    let upper = |x: f64| 0.5 * erfc((x - mu) / (sd * std::f64::consts::SQRT_2));
    if lo > mu {
        upper(lo) - upper(hi)
    } else {
        normal_cdf(hi, mu, sd) - normal_cdf(lo, mu, sd)
    }
}

fn normal_pdf(x: f64, mu: f64) -> f64 {
    (-(x - mu) * (x - mu) / 2.0).exp() / (std::f64::consts::TAU).sqrt()
}

fn poisson_pmf(k: f64, mu: f64) -> f64 {
    let log_fact: f64 = (2..=k as u64).map(|i| (i as f64).ln()).sum();
    (k * mu.ln() - mu - log_fact).exp()
}

/// `P(Y <= c)` under a mixture.
pub fn mixture_cdf(m: &Mixture, c: f64) -> f64 {
    let total: f64 = m.weights.iter().sum();
    m.weights
        .iter()
        .zip(&m.components)
        .map(|(w, comp)| {
            w * match *comp {
                Component::Normal(mu, sd) => normal_cdf(c, mu, sd),
                Component::Uniform(lo, hi) => ((c - lo) / (hi - lo)).clamp(0.0, 1.0),
            }
        })
        .sum::<f64>()
        / total
}

/// HMM smoothing given observations: `P(Z[t] = 1 | x, y)` for every `t`,
/// and `P(Z[t] = 1, Z[t+1] = 1 | x, y)` for every `t < n - 1`, by a
/// scaled forward–backward pass per regime, mixed by regime evidence.
pub fn hmm_smoothing(h: &Hmm, xs: &[f64], ys: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let n = h.n;
    let mut single = vec![0.0; n];
    let mut pair = vec![0.0; n.saturating_sub(1)];
    let mut regimes = Vec::new();
    for s in 0..2 {
        let emit =
            |t: usize, z: usize| normal_pdf(xs[t], h.mu_x[s][z]) * poisson_pmf(ys[t], h.mu_y[s][z]);
        let trans = |zp: usize, z: usize| if z == 1 { h.p_tr[zp] } else { 1.0 - h.p_tr[zp] };
        let mut alpha = vec![[0.0; 2]; n];
        let mut scale = vec![0.0; n];
        for t in 0..n {
            for z in 0..2 {
                let prior = if t == 0 {
                    0.5
                } else {
                    (0..2).map(|zp| alpha[t - 1][zp] * trans(zp, z)).sum()
                };
                alpha[t][z] = prior * emit(t, z);
            }
            scale[t] = alpha[t][0] + alpha[t][1];
            alpha[t][0] /= scale[t];
            alpha[t][1] /= scale[t];
        }
        let mut beta = vec![[1.0; 2]; n];
        for t in (0..n.saturating_sub(1)).rev() {
            for z in 0..2 {
                beta[t][z] = (0..2)
                    .map(|z2| trans(z, z2) * emit(t + 1, z2) * beta[t + 1][z2])
                    .sum::<f64>()
                    / scale[t + 1];
            }
        }
        let log_evidence: f64 = scale.iter().map(|c| c.ln()).sum();
        let prior = if s == 1 { h.p_sep } else { 1.0 - h.p_sep };
        let single_s: Vec<f64> = (0..n).map(|t| alpha[t][1] * beta[t][1]).collect();
        let pair_s: Vec<f64> = (0..n.saturating_sub(1))
            .map(|t| alpha[t][1] * trans(1, 1) * emit(t + 1, 1) * beta[t + 1][1] / scale[t + 1])
            .collect();
        regimes.push((prior.ln() + log_evidence, single_s, pair_s));
    }
    let top = regimes[0].0.max(regimes[1].0);
    let weights: Vec<f64> = regimes.iter().map(|r| (r.0 - top).exp()).collect();
    let total: f64 = weights.iter().sum();
    for (w, (_, single_s, pair_s)) in weights.iter().zip(&regimes) {
        for (acc, v) in single.iter_mut().zip(single_s) {
            *acc += w / total * v;
        }
        for (acc, v) in pair.iter_mut().zip(pair_s) {
            *acc += w / total * v;
        }
    }
    (single, pair)
}

/// `P(O[t] = v for every (t, v) in fixed)` on the chain network, by a
/// forward pass over the hidden states.
pub fn chain_prob(c: &ChainNet, fixed: &BTreeMap<usize, bool>) -> f64 {
    let mut alpha = [1.0 - c.p0, c.p0];
    for t in 0..c.n {
        if t > 0 {
            let prev = alpha;
            alpha = [
                prev[0] * (1.0 - c.stay[0]) + prev[1] * (1.0 - c.stay[1]),
                prev[0] * c.stay[0] + prev[1] * c.stay[1],
            ];
        }
        if let Some(&v) = fixed.get(&t) {
            for (z, a) in alpha.iter_mut().enumerate() {
                *a *= if v { c.emit[z] } else { 1.0 - c.emit[z] };
            }
        }
    }
    alpha[0] + alpha[1]
}

/// `P(box)` for an independent population: `sex` fixed to `sex` (or
/// free), and each feature inside its open interval.
fn independent_box(pop: &Population, sex: Option<bool>, bounds: &[(f64, f64); 3]) -> f64 {
    let Population::Independent { p_sex, features } = pop else {
        unreachable!("closed form only for the independent population");
    };
    let p = match sex {
        Some(true) => *p_sex,
        Some(false) => 1.0 - p_sex,
        None => 1.0,
    };
    features
        .iter()
        .zip(bounds)
        .map(|(&(mu, sd), &(lo, hi))| normal_mass(lo, hi, mu, sd))
        .product::<f64>()
        * p
}

/// `P(hire = 1 and box)` for an independent population, summing the
/// tree's hire leaves over their path boxes intersected with `outer`.
pub fn hire_mass(f: &Fairness, sex: bool, outer: &[(f64, f64); 3]) -> f64 {
    fn walk(t: &Tree, pop: &Population, sex: bool, bounds: [(f64, f64); 3]) -> f64 {
        match t {
            Tree::Leaf { hire } => {
                if *hire {
                    independent_box(pop, Some(sex), &bounds)
                } else {
                    0.0
                }
            }
            Tree::Split {
                feature,
                threshold,
                left,
                right,
            } => match feature {
                None => walk(if sex { left } else { right }, pop, sex, bounds),
                Some(i) => {
                    let mut lb = bounds;
                    lb[*i].1 = lb[*i].1.min(*threshold);
                    let mut rb = bounds;
                    rb[*i].0 = rb[*i].0.max(*threshold);
                    walk(left, pop, sex, lb) + walk(right, pop, sex, rb)
                }
            },
        }
    }
    walk(&f.tree, &f.population, sex, *outer)
}

/// `P(box)` for an independent population (no classifier involved).
pub fn box_mass(f: &Fairness, sex: bool, outer: &[(f64, f64); 3]) -> f64 {
    independent_box(&f.population, Some(sex), outer)
}

/// Relative-or-absolute closeness used by every reference check.
pub fn close(engine: f64, reference: f64, rel: f64) -> bool {
    if engine == reference {
        return true;
    }
    (engine - reference).abs() <= rel * reference.abs().max(1e-300) + 1e-14
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn erfc_matches_known_values() {
        // Reference values of erfc to 16 digits.
        let cases = [
            (0.0, 1.0),
            (0.5, 0.479_500_122_186_953_5),
            (1.0, 0.157_299_207_050_285_13),
            (2.0, 0.004_677_734_981_047_266),
            (3.0, 2.209_049_699_858_544e-5),
            (5.0, 1.537_459_794_428_035e-12),
            (-1.0, 1.842_700_792_949_715),
            (f64::INFINITY, 0.0),
            (f64::NEG_INFINITY, 2.0),
        ];
        for (x, want) in cases {
            let got = erfc(x);
            assert!(close(got, want, 1e-12), "erfc({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn chain_forward_pass_sums_to_one() {
        let mut rng = Rng::derive(2, "chain", 0);
        let c = ChainNet::draw(&mut rng, 6);
        for t in 0..6 {
            let one: BTreeMap<usize, bool> = [(t, true)].into();
            let zero: BTreeMap<usize, bool> = [(t, false)].into();
            assert!(close(
                chain_prob(&c, &one) + chain_prob(&c, &zero),
                1.0,
                1e-14
            ));
        }
    }

    #[test]
    fn smoothing_marginals_are_probabilities() {
        let mut rng = Rng::derive(5, "hmm", 0);
        let h = Hmm::draw(&mut rng, 8);
        let (xs, ys) = h.simulate(&mut rng);
        let (single, pair) = hmm_smoothing(&h, &xs, &ys);
        for (t, p) in pair.iter().enumerate() {
            assert!(*p >= 0.0 && *p <= single[t].min(single[t + 1]) + 1e-12);
        }
    }

    #[test]
    fn mixture_cdf_is_monotone_from_zero_to_one() {
        let mut rng = Rng::derive(9, "mix", 0);
        let m = Mixture::draw(&mut rng, 6, false);
        assert!(mixture_cdf(&m, -1e3) < 1e-12);
        assert!(close(mixture_cdf(&m, 1e3), 1.0, 1e-12));
        let mut last = 0.0;
        for i in -40..40 {
            let v = mixture_cdf(&m, f64::from(i));
            assert!(v >= last);
            last = v;
        }
    }
}
