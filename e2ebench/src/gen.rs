//! Seeded program and input families. Each generator renders SPPL source
//! for the program under test and keeps the constants it drew, so the
//! references in [`crate::oracle`] can answer the same questions without
//! touching the engine.

use crate::rng::Rng;

/// One mixture component of `Y`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Component {
    /// `normal(mu, sd)`.
    Normal(f64, f64),
    /// `uniform(lo, hi)`.
    Uniform(f64, f64),
}

impl Component {
    fn source(&self) -> String {
        match *self {
            Component::Normal(mu, sd) => format!("normal({mu}, {sd})"),
            Component::Uniform(lo, hi) => format!("uniform({lo}, {hi})"),
        }
    }
}

/// A K-way mixture over `Y`, selected by `M`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mixture {
    /// Rendered as a `switch` over a numeric `M` when true, as an
    /// `if`/`elif` chain over a string-valued `M` otherwise.
    pub switch: bool,
    /// Unnormalized component weights.
    pub weights: Vec<f64>,
    /// Components, one per weight.
    pub components: Vec<Component>,
}

impl Mixture {
    /// A seeded K-way mixture. The `if`/`elif` form alternates normal and
    /// uniform components; the `switch` form indexes arrays of normal
    /// parameters by `M`.
    pub fn draw(rng: &mut Rng, k: usize, switch: bool) -> Mixture {
        let weights = (0..k).map(|_| rng.real(0.5, 4.0, 3)).collect();
        let components = (0..k)
            .map(|i| {
                let centre = rng.real(-20.0, 20.0, 3);
                let width = rng.real(0.5, 5.0, 3);
                if switch || i % 2 == 0 {
                    Component::Normal(centre, width)
                } else {
                    Component::Uniform(centre, crate::rng::round(centre + width, 3))
                }
            })
            .collect();
        Mixture {
            switch,
            weights,
            components,
        }
    }

    /// SPPL source.
    pub fn source(&self) -> String {
        let k = self.weights.len();
        let mut out = String::new();
        if self.switch {
            let table: Vec<String> = self
                .weights
                .iter()
                .enumerate()
                .map(|(i, w)| format!("{i}: {w}"))
                .collect();
            out.push_str(&format!("M ~ discrete({{{}}})\n", table.join(", ")));
            let (locs, scales): (Vec<String>, Vec<String>) = self
                .components
                .iter()
                .map(|c| match *c {
                    Component::Normal(mu, sd) => (mu.to_string(), sd.to_string()),
                    Component::Uniform(..) => unreachable!("switch mixtures draw normals only"),
                })
                .unzip();
            out.push_str(&format!(
                "loc = [{}]\nscale = [{}]\n",
                locs.join(", "),
                scales.join(", ")
            ));
            out.push_str(&format!(
                "switch M cases (m in range(0, {k})) {{ Y ~ normal(loc[m], scale[m]) }}\n"
            ));
        } else {
            let table: Vec<String> = self
                .weights
                .iter()
                .enumerate()
                .map(|(i, w)| format!("'c{i}': {w}"))
                .collect();
            out.push_str(&format!("M ~ choice({{{}}})\n", table.join(", ")));
            for (i, c) in self.components.iter().enumerate() {
                let kw = if i == 0 { "if" } else { "elif" };
                out.push_str(&format!("{kw} (M == 'c{i}') {{ Y ~ {} }}\n", c.source()));
            }
        }
        out
    }
}

/// The Fig. 3 hierarchical HMM with seeded horizon and constants.
#[derive(Debug, Clone, PartialEq)]
pub struct Hmm {
    /// Horizon.
    pub n: usize,
    /// `P(separated = 1)`.
    pub p_sep: f64,
    /// Normal emission means, indexed `[separated][z]`.
    pub mu_x: [[f64; 2]; 2],
    /// Poisson emission means, indexed `[separated][z]`.
    pub mu_y: [[f64; 2]; 2],
    /// `P(Z[t] = 1 | Z[t-1] = zp)`, indexed by `zp`.
    pub p_tr: [f64; 2],
}

impl Hmm {
    /// Seeded constants around the paper's `mu_x = [[5,7],[5,15]]`,
    /// `mu_y = [[5,8],[3,8]]`, `p_transition = [0.2, 0.8]`.
    pub fn draw(rng: &mut Rng, n: usize) -> Hmm {
        Hmm {
            n,
            p_sep: rng.real(0.3, 0.5, 3),
            mu_x: [
                [rng.real(4.5, 5.5, 3), rng.real(6.5, 7.5, 3)],
                [rng.real(4.5, 5.5, 3), rng.real(14.0, 16.0, 3)],
            ],
            mu_y: [
                [rng.real(4.5, 5.5, 3), rng.real(7.5, 8.5, 3)],
                [rng.real(2.5, 3.5, 3), rng.real(7.5, 8.5, 3)],
            ],
            p_tr: [rng.real(0.1, 0.3, 3), rng.real(0.7, 0.9, 3)],
        }
    }

    /// SPPL source (Fig. 3a).
    pub fn source(&self) -> String {
        let [[a, b], [c, d]] = self.mu_x;
        let [[e, f], [g, h]] = self.mu_y;
        let [p0, p1] = self.p_tr;
        format!(
            "mu_x = [[{a}, {b}], [{c}, {d}]]
mu_y = [[{e}, {f}], [{g}, {h}]]
p_transition = [{p0}, {p1}]
Z = array({n})
X = array({n})
Y = array({n})
separated ~ bernoulli(p={ps})
switch separated cases (s in [0, 1]) {{
    Z[0] ~ bernoulli(p=0.5)
    switch Z[0] cases (z in [0, 1]) {{
        X[0] ~ normal(mu_x[s][z], 1)
        Y[0] ~ poisson(mu_y[s][z])
    }}
    for t in range(1, {n}) {{
        switch Z[t-1] cases (zp in [0, 1]) {{
            Z[t] ~ bernoulli(p=p_transition[zp])
        }}
        switch Z[t] cases (z in [0, 1]) {{
            X[t] ~ normal(mu_x[s][z], 1)
            Y[t] ~ poisson(mu_y[s][z])
        }}
    }}
}}
",
            n = self.n,
            ps = self.p_sep
        )
    }

    /// An observed trace `(x, y)` simulated from the generative process.
    pub fn simulate(&self, rng: &mut Rng) -> (Vec<f64>, Vec<f64>) {
        let s = usize::from(rng.f64() < self.p_sep);
        let mut z = usize::from(rng.f64() < 0.5);
        let mut xs = Vec::with_capacity(self.n);
        let mut ys = Vec::with_capacity(self.n);
        for t in 0..self.n {
            if t > 0 {
                z = usize::from(rng.f64() < self.p_tr[z]);
            }
            xs.push(crate::rng::round(self.mu_x[s][z] + rng.normal(), 4));
            ys.push(rng.poisson(self.mu_y[s][z]) as f64);
        }
        (xs, ys)
    }
}

/// The Fig. 8 chain network with seeded constants: hidden `S[t]`, noisy
/// binary emissions `O[t]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainNet {
    /// Length.
    pub n: usize,
    /// `P(S[0] = 1)`.
    pub p0: f64,
    /// `P(S[t] = 1 | S[t-1] = zp)`, indexed by `zp`.
    pub stay: [f64; 2],
    /// `P(O[t] = 1 | S[t] = z)`, indexed by `z`.
    pub emit: [f64; 2],
}

impl ChainNet {
    /// Seeded constants around the paper's rare-event chain.
    pub fn draw(rng: &mut Rng, n: usize) -> ChainNet {
        ChainNet {
            n,
            p0: rng.real(0.005, 0.02, 4),
            stay: [rng.real(0.005, 0.02, 4), rng.real(0.7, 0.8, 4)],
            emit: [rng.real(0.02, 0.05, 4), rng.real(0.65, 0.75, 4)],
        }
    }

    /// SPPL source.
    pub fn source(&self) -> String {
        let n = self.n;
        let [s0, s1] = self.stay;
        let [e0, e1] = self.emit;
        format!(
            "stay = [{s0}, {s1}]
emit = [{e0}, {e1}]
S = array({n})
O = array({n})
S[0] ~ bernoulli(p={p0})
switch S[0] cases (z in [0, 1]) {{ O[0] ~ bernoulli(p=emit[z]) }}
for t in range(1, {n}) {{
    switch S[t-1] cases (zp in [0, 1]) {{ S[t] ~ bernoulli(p=stay[zp]) }}
    switch S[t] cases (z in [0, 1]) {{ O[t] ~ bernoulli(p=emit[z]) }}
}}
",
            p0 = self.p0
        )
    }
}

/// The population features a decision tree may split on.
pub const FEATURES: [&str; 3] = ["age", "education", "capital_gain"];

/// The Table 2 population families.
#[derive(Debug, Clone, PartialEq)]
pub enum Population {
    /// Independent features: `sex ~ bernoulli(p)` and one normal
    /// `(mean, sd)` per entry of [`FEATURES`].
    Independent {
        /// `P(sex = 1)`.
        p_sex: f64,
        /// `(mean, sd)` per feature.
        features: [(f64, f64); 3],
    },
    /// `sex → capital_gain → (age, education)`, with a seeded cut.
    BayesNet {
        /// `P(sex = 1)`.
        p_sex: f64,
        /// Capital-gain cut between the two age/education regimes.
        cut: f64,
        /// Shifts applied to the reference means.
        shift: f64,
    },
}

impl Population {
    /// Independent population with seeded parameters near the adult-income
    /// statistics.
    pub fn independent(rng: &mut Rng) -> Population {
        Population::Independent {
            p_sex: rng.real(0.3, 0.36, 4),
            features: [
                (rng.real(37.0, 40.0, 3), rng.real(13.0, 14.0, 3)),
                (rng.real(9.5, 10.5, 3), rng.real(2.4, 2.7, 3)),
                (rng.real(1000.0, 1150.0, 2), rng.real(7000.0, 7600.0, 2)),
            ],
        }
    }

    /// Bayes-net population with seeded parameters.
    pub fn bayes_net(rng: &mut Rng) -> Population {
        Population::BayesNet {
            p_sex: rng.real(0.3, 0.36, 4),
            cut: rng.real(7000.0, 7600.0, 2),
            shift: rng.real(-0.5, 0.5, 3),
        }
    }

    /// SPPL source defining `sex`, `age`, `education`, `capital_gain`.
    pub fn source(&self) -> String {
        match self {
            Population::Independent { p_sex, features } => {
                let [(ma, sa), (me, se), (mc, sc)] = *features;
                format!(
                    "sex ~ bernoulli(p={p_sex})
age ~ normal({ma}, {sa})
education ~ normal({me}, {se})
capital_gain ~ normal({mc}, {sc})
"
                )
            }
            Population::BayesNet { p_sex, cut, shift } => {
                let s = shift;
                format!(
                    "sex ~ bernoulli(p={p_sex})
if (sex == 1) {{
    capital_gain ~ normal({c1}, 4924.5)
}} else {{
    capital_gain ~ normal({c0}, 8326.03)
}}
if (capital_gain < {cut}) {{
    age ~ normal({a0}, 13.66)
    education ~ normal({e0}, 2.55)
}} else {{
    age ~ normal({a1}, 13.99)
    education ~ normal({e1}, 2.81)
}}
",
                    c1 = crate::rng::round(568.41 + 100.0 * s, 3),
                    c0 = crate::rng::round(1329.37 + 100.0 * s, 3),
                    a0 = crate::rng::round(38.42 + s, 3),
                    e0 = crate::rng::round(10.01 + s, 3),
                    a1 = crate::rng::round(38.84 + s, 3),
                    e1 = crate::rng::round(10.88 + s, 3),
                )
            }
        }
    }
}

/// A decision-tree classifier assigning `hire`.
#[derive(Debug, Clone, PartialEq)]
pub enum Tree {
    /// `feature < threshold` goes left; feature `sex` tests `sex == 1`.
    Split {
        /// Index into [`FEATURES`], or `None` for a `sex` split.
        feature: Option<usize>,
        /// Threshold (ignored for `sex`).
        threshold: f64,
        /// Branch taken when the test holds.
        left: Box<Tree>,
        /// Branch taken otherwise.
        right: Box<Tree>,
    },
    /// `hire ~ atomic(hire)`.
    Leaf {
        /// The decision.
        hire: bool,
    },
}

/// Threshold ranges per entry of [`FEATURES`].
const RANGES: [(f64, f64); 3] = [(25.0, 55.0), (6.0, 14.0), (200.0, 9000.0)];

impl Tree {
    /// A tree with exactly `conditionals` internal nodes. Its shape —
    /// which feature each node splits on and each leaf's decision — is
    /// fixed by `conditionals` and `with_sex`, like the paper's DT4–DT44
    /// rows; only the thresholds come from `rng`.
    pub fn draw(rng: &mut Rng, conditionals: usize, with_sex: bool) -> Tree {
        let mut shape = Rng::derive(conditionals as u64, "tree-shape", u64::from(with_sex));
        Tree::grow(&mut shape, rng, conditionals, with_sex)
    }

    fn grow(shape: &mut Rng, rng: &mut Rng, conditionals: usize, with_sex: bool) -> Tree {
        if conditionals == 0 {
            return Tree::Leaf {
                hire: shape.f64() < 0.5,
            };
        }
        let feature = if with_sex && shape.f64() < 0.2 {
            None
        } else {
            Some(shape.below(0, FEATURES.len()))
        };
        let threshold = match feature {
            Some(f) => rng.real(RANGES[f].0, RANGES[f].1, 2),
            None => 0.5,
        };
        let left = shape.below(0, conditionals);
        Tree::Split {
            feature,
            threshold,
            left: Box::new(Tree::grow(shape, rng, left, with_sex)),
            right: Box::new(Tree::grow(shape, rng, conditionals - 1 - left, with_sex)),
        }
    }

    /// SPPL source assigning `hire`.
    pub fn source(&self) -> String {
        let mut out = String::new();
        self.render(0, &mut out);
        out
    }

    fn render(&self, depth: usize, out: &mut String) {
        let pad = "    ".repeat(depth);
        match self {
            Tree::Leaf { hire } => {
                out.push_str(&format!("{pad}hire ~ atomic({})\n", u8::from(*hire)));
            }
            Tree::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                let test = match feature {
                    Some(f) => format!("{} < {threshold}", FEATURES[*f]),
                    None => "sex == 1".to_string(),
                };
                out.push_str(&format!("{pad}if ({test}) {{\n"));
                left.render(depth + 1, out);
                out.push_str(&format!("{pad}}} else {{\n"));
                right.render(depth + 1, out);
                out.push_str(&format!("{pad}}}\n"));
            }
        }
    }
}

/// A fairness task: a population plus a classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Fairness {
    /// Data-generating model.
    pub population: Population,
    /// Classifier.
    pub tree: Tree,
}

impl Fairness {
    /// SPPL source.
    pub fn source(&self) -> String {
        format!("{}{}", self.population.source(), self.tree.source())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_pure_functions_of_the_seed() {
        let render = |seed| {
            let mut rng = Rng::derive(seed, "gen", 0);
            let mut out = Mixture::draw(&mut rng, 5, false).source();
            out += &Mixture::draw(&mut rng, 5, true).source();
            out += &Hmm::draw(&mut rng, 4).source();
            out += &ChainNet::draw(&mut rng, 4).source();
            out += &Fairness {
                population: Population::bayes_net(&mut rng),
                tree: Tree::draw(&mut rng, 6, true),
            }
            .source();
            out
        };
        assert_eq!(render(3), render(3));
        assert_ne!(render(3), render(4));
    }

    #[test]
    fn trees_have_the_requested_size() {
        fn count(t: &Tree) -> usize {
            match t {
                Tree::Leaf { .. } => 0,
                Tree::Split { left, right, .. } => 1 + count(left) + count(right),
            }
        }
        let mut rng = Rng::derive(1, "tree", 0);
        for k in [0, 1, 7, 30] {
            assert_eq!(count(&Tree::draw(&mut rng, k, true)), k);
        }
    }
}
