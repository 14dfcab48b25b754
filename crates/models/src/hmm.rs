//! The hierarchical hidden Markov model of Sec. 2.2 / Fig. 3, used for
//! the smoothing demo (Fig. 3b), the Table 1 compression measurement, and
//! the Markov Switching benchmarks of Tables 3–4.

use rand::Rng;

use sppl_core::density::Assignment;
use sppl_core::event::Event;
use sppl_core::transform::Transform;
use sppl_core::var::Var;
use sppl_sets::Outcome;

use crate::ModelSource;

/// The Fig. 3a program with `n_step` time points: Bernoulli hidden states
/// `Z[t]`, Normal observations `X[t]`, Poisson observations `Y[t]`, and a
/// top-level `separated` switch controlling how far apart the two regimes
/// are. Means follow the paper's tables `mu_x = [[5,7],[5,15]]`,
/// `mu_y = [[5,8],[3,8]]`.
pub fn hierarchical_hmm(n_step: usize) -> ModelSource {
    let source = format!(
        "
mu_x = [[5, 7], [5, 15]]
mu_y = [[5, 8], [3, 8]]
p_transition = [0.2, 0.8]

Z = array({n})
X = array({n})
Y = array({n})

separated ~ bernoulli(p=0.4)
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
        n = n_step
    );
    ModelSource::new(format!("HierarchicalHMM-{n_step}"), source)
}

/// Ground-truth simulation of the generative process (used to make the
/// observed series of Fig. 3b without going through the SPE sampler).
pub struct HmmTrace {
    /// Hidden regime indicator.
    pub separated: u8,
    /// Hidden states.
    pub z: Vec<u8>,
    /// Normal observations.
    pub x: Vec<f64>,
    /// Poisson observations.
    pub y: Vec<f64>,
}

/// Simulates a trace from the Fig. 3a process.
pub fn simulate_trace<R: Rng + ?Sized>(rng: &mut R, n_step: usize) -> HmmTrace {
    let mu_x = [[5.0, 7.0], [5.0, 15.0]];
    let mu_y = [[5.0, 8.0], [3.0, 8.0]];
    let p_transition = [0.2, 0.8];
    let s = usize::from(rng.gen::<f64>() < 0.4);
    let mut z = Vec::with_capacity(n_step);
    let mut x = Vec::with_capacity(n_step);
    let mut y = Vec::with_capacity(n_step);
    let mut state = usize::from(rng.gen::<f64>() < 0.5);
    for t in 0..n_step {
        if t > 0 {
            state = usize::from(rng.gen::<f64>() < p_transition[state]);
        }
        z.push(state as u8);
        x.push(mu_x[s][state] + normal_sample(rng));
        y.push(poisson_sample(rng, mu_y[s][state]));
    }
    HmmTrace {
        separated: s as u8,
        z,
        x,
        y,
    }
}

fn normal_sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Box–Muller.
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

fn poisson_sample<R: Rng + ?Sized>(rng: &mut R, mu: f64) -> f64 {
    // Knuth's method (mu is small here).
    let l = (-mu).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k as f64;
        }
        k += 1;
    }
}

/// The measure-zero observation assignment `{X[t] = x_t, Y[t] = y_t}` for
/// smoothing (used with `constrain`).
pub fn observation_assignment(x: &[f64], y: &[f64]) -> Assignment {
    let mut a = Assignment::new();
    for (t, (&xv, &yv)) in x.iter().zip(y).enumerate() {
        a.insert(Var::indexed("X", t), Outcome::Real(xv));
        a.insert(Var::indexed("Y", t), Outcome::Real(yv));
    }
    a
}

/// The smoothing query `Z[t] = 1`.
pub fn hidden_state_event(t: usize) -> Event {
    Event::eq_real(Transform::id(Var::indexed("Z", t)), 1.0)
}

/// The full batch of smoothing queries `Z[t] = 1` for `t = 0..n_step`,
/// in time order — the input to
/// [`Model::logprob_many`](sppl_core::Model::logprob_many) on the
/// smoothing posterior.
pub fn smoothing_queries(n_step: usize) -> Vec<Event> {
    (0..n_step).map(hidden_state_event).collect()
}

/// Pairwise regime-persistence queries `Z[t] = 1 ∧ Z[t+1] = 1` for
/// `t = 0..n_step-1` — a second, disjoint family of smoothing marginals
/// used to widen batches for the batch-inference benchmarks and stress
/// tests.
pub fn pairwise_queries(n_step: usize) -> Vec<Event> {
    (0..n_step.saturating_sub(1))
        .map(|t| Event::and(vec![hidden_state_event(t), hidden_state_event(t + 1)]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sppl_core::density::constrain;
    use sppl_core::stats::{graph_stats, physical_node_count};
    use sppl_core::{Factory, Model};

    #[test]
    fn five_step_smoothing_tracks_truth() {
        let f = Factory::new();
        let n = 5;
        let m = hierarchical_hmm(n).compile(&f).unwrap();
        // A separated trace with an obvious regime flip.
        let x = [5.1, 4.9, 15.2, 14.8, 15.0];
        let y = [5.0, 3.0, 8.0, 8.0, 9.0];
        let post = constrain(&f, &m, &observation_assignment(&x, &y)).unwrap();
        let model = Model::new(f, post);
        let series = model.prob_many(&smoothing_queries(n)).unwrap();
        assert!(series[0] < 0.5, "Z[0] should look low, got {}", series[0]);
        assert!(series[3] > 0.9, "Z[3] should look high, got {}", series[3]);
        // A warm batch is answered entirely from cache, bit-identically.
        let warm = model.prob_many(&smoothing_queries(n)).unwrap();
        assert_eq!(series, warm);
        assert_eq!(model.stats().hits, n as u64);
    }

    #[test]
    fn expression_grows_linearly() {
        let f = Factory::new();
        let sizes: Vec<usize> = [4, 8]
            .iter()
            .map(|&n| physical_node_count(&hierarchical_hmm(n).compile(&f).unwrap()))
            .collect();
        // Doubling the horizon should roughly double the optimized size,
        // not square it.
        assert!(
            sizes[1] < 3 * sizes[0],
            "expected linear growth, got {sizes:?}"
        );
    }

    #[test]
    fn compression_ratio_explodes() {
        let f = Factory::new();
        let m = hierarchical_hmm(10).compile(&f).unwrap();
        let stats = graph_stats(&m);
        assert!(
            stats.compression_ratio() > 50.0,
            "tree/physical = {}",
            stats.compression_ratio()
        );
    }

    #[test]
    fn pairwise_queries_shape_and_semantics() {
        assert!(pairwise_queries(0).is_empty());
        assert!(pairwise_queries(1).is_empty());
        let qs = pairwise_queries(5);
        assert_eq!(qs.len(), 4);
        // P[Z_t=1 ∧ Z_{t+1}=1] ≤ P[Z_t=1] on any posterior.
        let f = Factory::new();
        let m = hierarchical_hmm(5).compile(&f).unwrap();
        let model = Model::new(f, m);
        let joint = model.prob(&qs[0]).unwrap();
        let single = model.prob(&hidden_state_event(0)).unwrap();
        assert!(joint > 0.0 && joint <= single);
    }

    #[test]
    fn trace_simulation_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = simulate_trace(&mut rng, 20);
        assert_eq!(t.z.len(), 20);
        assert_eq!(t.x.len(), 20);
        assert!(t.y.iter().all(|&v| v >= 0.0 && v == v.floor()));
    }
}
