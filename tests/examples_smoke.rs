//! Smoke tests mirroring `examples/quickstart.rs`,
//! `examples/hmm_smoothing.rs`, and `examples/parallel_serving.rs` end to
//! end, so the example workflows are exercised by `cargo test` in-process
//! (CI additionally runs the actual example binaries via
//! `cargo run --example`). Like the examples, they run on the
//! session-first `Model` API and the event DSL.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sppl::models::hmm;
use sppl::prelude::*;

const INDIAN_GPA: &str = r#"
Nationality ~ choice({'India': 0.5, 'USA': 0.5})
if (Nationality == 'India') {
    Perfect ~ bernoulli(p=0.10)
    if (Perfect == 1) { GPA ~ atomic(10) } else { GPA ~ uniform(0, 10) }
} else {
    Perfect ~ bernoulli(p=0.15)
    if (Perfect == 1) { GPA ~ atomic(4) } else { GPA ~ uniform(0, 4) }
}
"#;

/// The full quickstart workflow: compile → prior query → condition →
/// posterior query → sample, with the paper's Fig. 2 numbers.
#[test]
fn quickstart_flow_matches_paper_figures() {
    let model = Model::compile(INDIAN_GPA).expect("quickstart model compiles");

    // Prior: P[GPA <= 4] = 0.5·(0.9·0.4) + 0.5·(0.15 + 0.85) = 0.68, with
    // an atom at 4 (approaching from below loses the USA point mass).
    let p_le_4 = model.prob(&var("GPA").le(4.0)).unwrap();
    assert!((p_le_4 - 0.68).abs() < 1e-9, "P[GPA <= 4] = {p_le_4}");
    let p_lt_4 = model.prob(&var("GPA").le(3.9999)).unwrap();
    assert!(p_le_4 - p_lt_4 > 0.07, "missing atom at GPA = 4");

    // Posterior of Fig. 2f/2g — a Model, straight from `condition`.
    let evidence = (var("Nationality").eq("USA") & var("GPA").gt(3.0))
        | var("GPA").in_interval(Interval::open(8.0, 10.0));
    let posterior = model.condition(&evidence).expect("P[e] > 0");
    let p_india = posterior.prob(&var("Nationality").eq("India")).unwrap();
    assert!((p_india - 0.3318).abs() < 1e-3, "P[India | e] = {p_india}");
    assert!(
        (posterior.prob(&Event::always()).unwrap() - 1.0).abs() < 1e-9,
        "posterior is normalized"
    );

    // Sampling from the posterior respects the evidence.
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..20 {
        let s = posterior.sample(&mut rng);
        let gpa = s.real(&Var::new("GPA")).expect("GPA sampled");
        let usa = s
            .str(&Var::new("Nationality"))
            .expect("Nationality sampled")
            == "USA";
        assert!(
            (usa && gpa > 3.0) || (8.0 < gpa && gpa < 10.0),
            "sample violates evidence: usa={usa} gpa={gpa}"
        );
    }
}

/// The HMM smoothing workflow at a reduced trace length: translate,
/// simulate, constrain on observations, and query every hidden state.
#[test]
fn hmm_smoothing_flow_recovers_hidden_states() {
    let n_step = 20;
    let model = hmm::hierarchical_hmm(n_step)
        .session()
        .expect("HMM compiles");

    let stats = graph_stats(model.root());
    assert!(
        stats.compression_ratio() > 1.0,
        "factorized SPE should be smaller than its tree expansion"
    );

    let mut rng = StdRng::seed_from_u64(20260609);
    let trace = hmm::simulate_trace(&mut rng, n_step);
    assert_eq!(trace.z.len(), n_step);

    let posterior = model
        .constrain(&hmm::observation_assignment(&trace.x, &trace.y))
        .expect("observations have positive density");

    let mut correct = 0;
    for t in 0..n_step {
        let p = posterior
            .prob(&hmm::hidden_state_event(t))
            .expect("smoothing query");
        assert!((0.0..=1.0 + 1e-12).contains(&p), "P[Z_{t}=1] = {p}");
        correct += usize::from(u8::from(p > 0.5) == trace.z[t]);
    }
    // Exact smoothing should beat chance by a wide margin.
    assert!(
        correct * 2 > n_step,
        "MAP state matches truth at only {correct}/{n_step} steps"
    );
}

/// The parallel-serving workflow at a reduced trace length: two sessions
/// over the same model share a bounded cache (posteriors inherit it);
/// their batches agree bit-for-bit.
#[test]
fn parallel_serving_flow_shares_answers_across_sessions() {
    let n_step = 12;
    let cache = Arc::new(SharedCache::new(1024));
    let open_session = || {
        let model = hmm::hierarchical_hmm(n_step)
            .session()
            .expect("HMM compiles")
            .with_shared_cache(Arc::clone(&cache));
        let x: Vec<f64> = (0..n_step).map(|t| 5.0 + f64::from(t as u32 % 3)).collect();
        let y: Vec<f64> = (0..n_step).map(|t| f64::from(4 + (t as u32 % 4))).collect();
        model
            .constrain(&hmm::observation_assignment(&x, &y))
            .expect("positive density")
    };
    let mut batch = hmm::smoothing_queries(n_step);
    batch.extend(hmm::pairwise_queries(n_step));

    let session1 = open_session();
    let answers1 = session1.logprob_many(&batch).expect("batch");
    let misses_before = cache.stats().misses;

    let session2 = open_session();
    assert_eq!(session1.model_digest(), session2.model_digest());
    let answers2 = session2.logprob_many(&batch).expect("batch");
    assert!(answers1
        .iter()
        .zip(&answers2)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    assert_eq!(
        cache.stats().misses,
        misses_before,
        "second session must be pure shared-cache hits"
    );
}
