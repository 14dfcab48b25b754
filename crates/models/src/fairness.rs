//! Fairness-verification benchmarks (Sec. 6.1, Table 2): decision-tree
//! classifiers over population models, with the ε-fairness ratio of
//! Eq. (7).
//!
//! The populations follow the FairSquare adult-income benchmarks
//! (independent features, and two Bayes-net variants introducing
//! sex → capital-gain → age/education dependencies); the decision trees
//! `DT4 … DT44` are generated deterministically with the same conditional
//! counts as the paper's rows, standing in for the FairSquare programs,
//! which are not part of this repository (README.md, "Substitutes for the
//! paper's tools and programs").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sppl_core::event::Event;
use sppl_core::transform::Transform;
use sppl_core::var::Var;
use sppl_core::{Spe, SpplError};

use crate::ModelSource;

/// Population (data-generating) models from the FairSquare suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Population {
    /// Independent features.
    Independent,
    /// `sex → capital_gain`, `capital_gain → age/education`.
    BayesNet1,
    /// Deeper network: `sex → education → age`, both → capital gain.
    BayesNet2,
}

impl Population {
    /// Display name matching Table 2.
    pub fn name(&self) -> &'static str {
        match self {
            Population::Independent => "Independent",
            Population::BayesNet1 => "Bayes Net. 1",
            Population::BayesNet2 => "Bayes Net. 2",
        }
    }

    /// SPPL source sampling `sex`, `age`, `education`, `capital_gain`.
    pub fn source(&self) -> String {
        match self {
            Population::Independent => "
sex ~ bernoulli(p=0.3307)
age ~ normal(38.5816, 13.64)
education ~ normal(10.0806, 2.57)
capital_gain ~ normal(1077.65, 7385.29)
"
            .to_string(),
            Population::BayesNet1 => "
sex ~ bernoulli(p=0.3307)
if (sex == 1) {
    capital_gain ~ normal(568.41, 4924.50)
} else {
    capital_gain ~ normal(1329.37, 8326.03)
}
if (capital_gain < 7298.0) {
    age ~ normal(38.42, 13.66)
    education ~ normal(10.01, 2.55)
} else {
    age ~ normal(38.84, 13.99)
    education ~ normal(10.88, 2.81)
}
"
            .to_string(),
            Population::BayesNet2 => "
sex ~ bernoulli(p=0.3307)
if (sex == 1) {
    education ~ normal(9.92, 2.51)
} else {
    education ~ normal(10.16, 2.60)
}
if (education < 10.0) {
    age ~ normal(36.81, 13.35)
} else {
    age ~ normal(40.11, 13.75)
}
if (sex == 1) {
    if (education < 10.0) {
        capital_gain ~ normal(531.15, 4711.0)
    } else {
        capital_gain ~ normal(612.25, 5133.0)
    }
} else {
    if (education < 10.0) {
        capital_gain ~ normal(1174.33, 7791.0)
    } else {
        capital_gain ~ normal(1483.55, 8878.0)
    }
}
"
            .to_string(),
        }
    }
}

/// Decision-tree classifier families (rows of Table 2). The suffix is the
/// number of conditionals; `Dt16A` additionally splits on `sex`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionTree {
    /// 4 conditionals.
    Dt4,
    /// 14 conditionals.
    Dt14,
    /// 16 conditionals.
    Dt16,
    /// 16 conditionals including explicit `sex` splits.
    Dt16A,
    /// 44 conditionals.
    Dt44,
}

impl DecisionTree {
    /// Display name matching Table 2.
    pub fn name(&self) -> &'static str {
        match self {
            DecisionTree::Dt4 => "DT4",
            DecisionTree::Dt14 => "DT14",
            DecisionTree::Dt16 => "DT16",
            DecisionTree::Dt16A => "DT16a",
            DecisionTree::Dt44 => "DT44",
        }
    }

    /// Number of internal decision nodes.
    pub fn conditionals(&self) -> usize {
        match self {
            DecisionTree::Dt4 => 4,
            DecisionTree::Dt14 => 14,
            DecisionTree::Dt16 | DecisionTree::Dt16A => 16,
            DecisionTree::Dt44 => 44,
        }
    }

    fn uses_sex(&self) -> bool {
        matches!(self, DecisionTree::Dt16A)
    }

    fn seed(&self) -> u64 {
        match self {
            DecisionTree::Dt4 => 41,
            DecisionTree::Dt14 => 1402,
            DecisionTree::Dt16 => 1601,
            DecisionTree::Dt16A => 1617,
            DecisionTree::Dt44 => 4407,
        }
    }

    /// Generates the tree structure (deterministic per variant).
    pub fn spec(&self) -> TreeNode {
        let mut rng = StdRng::seed_from_u64(self.seed());
        gen_tree_spec(&mut rng, self.conditionals(), self.uses_sex(), 0.0)
    }

    /// Generates the tree's SPPL source (assigns the `hire` variable).
    pub fn source(&self) -> String {
        let mut out = String::new();
        render_tree(&self.spec(), 0, &mut out);
        out
    }
}

/// A decision-tree classifier over the population features.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeNode {
    /// Internal split: left branch when the predicate holds.
    Split {
        /// Feature name (`age`, `education`, `capital_gain`, or `sex`).
        feature: &'static str,
        /// For numeric features: take the left branch when
        /// `feature < threshold`; for `sex`: left when `sex == 1`
        /// (threshold is ignored and set to 0.5).
        threshold: f64,
        /// Branch taken when the predicate holds.
        left: Box<TreeNode>,
        /// Branch taken otherwise.
        right: Box<TreeNode>,
    },
    /// Terminal decision.
    Leaf {
        /// Whether the applicant is hired.
        hire: bool,
    },
}

impl TreeNode {
    /// Evaluates the tree on a concrete applicant.
    pub fn decide(&self, sex: f64, age: f64, education: f64, capital_gain: f64) -> bool {
        match self {
            TreeNode::Leaf { hire } => *hire,
            TreeNode::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                let taken = match *feature {
                    "sex" => sex == 1.0,
                    "age" => age < *threshold,
                    "education" => education < *threshold,
                    "capital_gain" => capital_gain < *threshold,
                    other => unreachable!("unknown feature {other}"),
                };
                if taken {
                    left.decide(sex, age, education, capital_gain)
                } else {
                    right.decide(sex, age, education, capital_gain)
                }
            }
        }
    }

    /// Number of internal nodes.
    pub fn conditionals(&self) -> usize {
        match self {
            TreeNode::Leaf { .. } => 0,
            TreeNode::Split { left, right, .. } => 1 + left.conditionals() + right.conditionals(),
        }
    }
}

/// Feature split candidates: (name, low threshold, high threshold).
const FEATURES: [(&str, f64, f64); 3] = [
    ("age", 25.0, 55.0),
    ("education", 6.0, 14.0),
    ("capital_gain", 200.0, 9000.0),
];

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

/// Recursively generates a decision-tree spec with exactly `n`
/// conditionals. Leaf decisions are biased by the path taken (`bias`):
/// arriving through high-capital-gain or non-minority branches raises the
/// hire probability, which — because capital gain correlates with sex in
/// the Bayes-net populations — makes some generated classifiers unfair,
/// mirroring the Fair/Unfair mix of the paper's Table 2.
fn gen_tree_spec(rng: &mut StdRng, n: usize, uses_sex: bool, bias: f64) -> TreeNode {
    if n == 0 {
        return TreeNode::Leaf {
            hire: rng.gen::<f64>() < 0.5 + bias,
        };
    }
    // Choose a split: occasionally on sex for the α-variant.
    let (feature, threshold) = if uses_sex && rng.gen::<f64>() < 0.25 {
        ("sex", 0.5)
    } else {
        let (feat, lo, hi) = FEATURES[rng.gen_range(0..FEATURES.len())];
        let frac: f64 = rng.gen();
        // Round to two decimals so the source rendering is exact.
        let threshold = ((lo + frac * (hi - lo)) * 100.0).round() / 100.0;
        (feat, threshold)
    };
    let left = rng.gen_range(0..n);
    let right = n - 1 - left;
    // Taking the "privileged" branch direction shifts the leaf bias.
    let shift = match feature {
        "capital_gain" => 0.22,
        "sex" => 0.3,
        _ => 0.05,
    };
    TreeNode::Split {
        feature,
        threshold,
        left: Box::new(gen_tree_spec(
            rng,
            left,
            uses_sex,
            (bias - shift).max(-0.45),
        )),
        right: Box::new(gen_tree_spec(
            rng,
            right,
            uses_sex,
            (bias + shift).min(0.45),
        )),
    }
}

/// Renders a tree spec as SPPL source.
fn render_tree(node: &TreeNode, depth: usize, out: &mut String) {
    match node {
        TreeNode::Leaf { hire } => {
            indent(out, depth);
            out.push_str(&format!("hire ~ atomic({})\n", i32::from(*hire)));
        }
        TreeNode::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            let split = if *feature == "sex" {
                "(sex == 1)".to_string()
            } else {
                format!("({feature} < {threshold})")
            };
            indent(out, depth);
            out.push_str(&format!("if {split} {{\n"));
            render_tree(left, depth + 1, out);
            indent(out, depth);
            out.push_str("} else {\n");
            render_tree(right, depth + 1, out);
            indent(out, depth);
            out.push_str("}\n");
        }
    }
}

/// A complete fairness verification task: population + decision program.
#[derive(Debug, Clone)]
pub struct FairnessTask {
    /// Task name, e.g. `DT14/Bayes Net. 1`.
    pub name: String,
    /// Which decision tree.
    pub tree: DecisionTree,
    /// Which population model.
    pub population: Population,
    /// The combined SPPL program.
    pub model: ModelSource,
    /// The fairness tolerance ε of Eq. (7).
    pub epsilon: f64,
}

/// Builds one task.
pub fn task(tree: DecisionTree, population: Population) -> FairnessTask {
    let source = format!("{}\n{}", population.source(), tree.source());
    FairnessTask {
        name: format!("{}/{}", tree.name(), population.name()),
        tree,
        population,
        model: ModelSource::new(format!("{}-{}", tree.name(), population.name()), source),
        epsilon: 0.15,
    }
}

/// All fifteen Table 2 tasks.
pub fn all_tasks() -> Vec<FairnessTask> {
    let trees = [
        DecisionTree::Dt4,
        DecisionTree::Dt14,
        DecisionTree::Dt16,
        DecisionTree::Dt16A,
        DecisionTree::Dt44,
    ];
    let pops = [
        Population::Independent,
        Population::BayesNet1,
        Population::BayesNet2,
    ];
    trees
        .iter()
        .flat_map(|t| pops.iter().map(|p| task(*t, *p)))
        .collect()
}

/// The `hire` event `D(A)`.
pub fn hired() -> Event {
    Event::eq_real(Transform::id(Var::new("hire")), 1.0)
}

/// The minority predicate `φ_m(A)`: `sex == 1`.
pub fn minority() -> Event {
    Event::eq_real(Transform::id(Var::new("sex")), 1.0)
}

/// The qualification predicate `φ_q(A)`: `age > 18`.
pub fn qualified() -> Event {
    Event::gt(Transform::id(Var::new("age")), 18.0)
}

/// Computes the exact fairness ratio of Eq. (7):
/// `P[hire | minority ∧ qualified] / P[hire | ¬minority ∧ qualified]`.
///
/// # Errors
///
/// Propagates probability-query errors from the engine.
pub fn fairness_ratio(spe: &Spe) -> Result<f64, SpplError> {
    let num_joint = spe.prob(&Event::and(vec![hired(), minority(), qualified()]))?;
    let num_cond = spe.prob(&Event::and(vec![minority(), qualified()]))?;
    let den_joint = spe.prob(&Event::and(vec![hired(), minority().negate(), qualified()]))?;
    let den_cond = spe.prob(&Event::and(vec![minority().negate(), qualified()]))?;
    Ok((num_joint / num_cond) / (den_joint / den_cond))
}

/// The paper's fairness judgment: `ratio > 1 - ε`.
pub fn is_fair(ratio: f64, epsilon: f64) -> bool {
    ratio > 1.0 - epsilon
}

#[cfg(test)]
mod tests {
    use super::*;
    use sppl_core::Factory;

    #[test]
    fn tree_generation_is_deterministic() {
        assert_eq!(DecisionTree::Dt14.source(), DecisionTree::Dt14.source());
        assert_ne!(DecisionTree::Dt14.source(), DecisionTree::Dt16.source());
    }

    #[test]
    fn tree_has_requested_conditionals() {
        for dt in [DecisionTree::Dt4, DecisionTree::Dt44] {
            let src = dt.source();
            let count = src.matches("if ").count();
            assert_eq!(count, dt.conditionals(), "{src}");
        }
    }

    #[test]
    fn dt16a_mentions_sex() {
        assert!(DecisionTree::Dt16A.source().contains("sex == 1"));
        assert!(!DecisionTree::Dt16.source().contains("sex == 1"));
    }

    #[test]
    fn all_fifteen_tasks_compile_and_judge() {
        // Compile the three smallest tasks end-to-end (the rest are
        // exercised by the bench harness).
        let f = Factory::new();
        for t in all_tasks().into_iter().take(3) {
            let spe = t
                .model
                .compile(&f)
                .unwrap_or_else(|e| panic!("{} failed: {e}\n{}", t.name, t.model.source));
            let ratio = fairness_ratio(&spe).unwrap();
            assert!(ratio.is_finite() && ratio >= 0.0, "{}: {ratio}", t.name);
        }
        assert_eq!(all_tasks().len(), 15);
    }

    #[test]
    fn judgment_threshold() {
        assert!(is_fair(0.9, 0.15));
        assert!(!is_fair(0.8, 0.15));
    }
}
