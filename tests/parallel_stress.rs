//! End-to-end inference stress: the real HMM smoothing workload
//! (translate → constrain → wide batched queries) run again after
//! `clear_caches`, through a shared cross-session cache, and through
//! session clones on several threads, asserting exact agreement with
//! the first session and the tree walker.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sppl::models::hmm;
use sppl::prelude::*;

const N_STEP: usize = 24;

/// The observations of a fixed simulated trace.
fn observations() -> Assignment {
    let mut rng = StdRng::seed_from_u64(99);
    let trace = hmm::simulate_trace(&mut rng, N_STEP);
    hmm::observation_assignment(&trace.x, &trace.y)
}

/// One smoothing session: translate, optionally attach a shared cache,
/// and condition on [`observations`]. The posterior comes back as a
/// queryable [`Model`] inheriting the cache.
fn smoothing_model(cache: Option<&Arc<SharedCache>>) -> Model {
    let mut model = hmm::hierarchical_hmm(N_STEP)
        .session()
        .expect("HMM compiles");
    if let Some(cache) = cache {
        model = model.with_shared_cache(Arc::clone(cache));
    }
    model.constrain(&observations()).expect("positive density")
}

/// Smoothing marginals plus pairwise persistence queries: a 47-event
/// batch of genuinely distinct posterior questions.
fn wide_batch() -> Vec<Event> {
    let mut events = hmm::smoothing_queries(N_STEP);
    events.extend(hmm::pairwise_queries(N_STEP));
    events
}

#[test]
fn smoothing_after_clear_caches_matches_tree_walker() {
    let posterior = smoothing_model(None);
    let events = wide_batch();
    assert!(events.len() >= 40);
    let reference: Vec<f64> = events
        .iter()
        .map(|e| posterior.root().logprob(&e.canonical()).unwrap())
        .collect();
    let prior = hmm::hierarchical_hmm(N_STEP)
        .session()
        .expect("HMM compiles");
    for round in 0..2 {
        // A cleared factory recomputes every constrained node; the
        // rebuilt posterior must match the first session's content and
        // the tree walker's bits.
        prior.clear_caches();
        let again = prior.constrain(&observations()).expect("positive density");
        assert_eq!(again.model_digest(), posterior.model_digest());
        let answers = again.logprob_many(&events).unwrap();
        assert_eq!(answers.len(), reference.len());
        for (i, (a, r)) in answers.iter().zip(&reference).enumerate() {
            assert_eq!(
                a.to_bits(),
                r.to_bits(),
                "event {i} diverged in round {round}"
            );
        }
        // Probabilities too, through the same clamp.
        let probs = again.prob_many(&events).unwrap();
        for (p, r) in probs.iter().zip(&reference) {
            assert_eq!(p.to_bits(), r.exp().clamp(0.0, 1.0).to_bits());
        }
    }
}

#[test]
fn shared_cache_serves_second_session_without_reevaluation() {
    let cache = Arc::new(SharedCache::new(4096));
    let session1 = smoothing_model(Some(&cache));
    let events = wide_batch();
    let reference = session1.logprob_many(&events).unwrap();

    // A second session over the same model content: the posterior is
    // rebuilt from scratch in its own factory, but every query is served
    // the first session's exact bits from the shared cache.
    let session2 = smoothing_model(Some(&cache));
    assert_eq!(session1.model_digest(), session2.model_digest());
    let misses_before = cache.stats().misses;
    let got = session2.logprob_many(&events).unwrap();
    for (g, r) in got.iter().zip(&reference) {
        assert_eq!(g.to_bits(), r.to_bits());
    }
    assert_eq!(
        cache.stats().misses,
        misses_before,
        "second session must be answered entirely from the shared cache"
    );
    assert_eq!(cache.evictions(), 0);
}

#[test]
fn cloned_sessions_share_caches_across_threads() {
    // The "millions of users" shape: one posterior session cloned into
    // several request threads, every thread answering the same working
    // set; totals must add up and answers must be bit-identical.
    let posterior = smoothing_model(None);
    let events = wide_batch();
    let reference = posterior.logprob_many(&events).unwrap();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let session = posterior.clone();
            let events = &events;
            let reference = &reference;
            s.spawn(move || {
                let got = session.logprob_many(events).unwrap();
                for (g, r) in got.iter().zip(reference) {
                    assert_eq!(g.to_bits(), r.to_bits());
                }
            });
        }
    });
    let stats = posterior.stats();
    // First pass filled the cache; the 4 cloned threads were pure hits.
    assert_eq!(stats.misses, events.len() as u64);
    assert_eq!(stats.hits, 4 * events.len() as u64);
}
