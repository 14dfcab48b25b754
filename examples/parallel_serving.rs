//! Serving-shaped inference: two independent sessions (each its own
//! [`Model`] with its own factory, as two request handlers would hold)
//! answer wide query batches — each batch one `logprob_many` call, whose
//! misses share a single batched arena pass — sharing one bounded
//! cross-session LRU cache keyed by the model's content digest.
//! Conditioning returns posterior models that inherit the cache
//! automatically.
//!
//! Run with `cargo run --release --example parallel_serving`.

use std::sync::Arc;
use std::time::Instant;

use sppl::models::hmm;
use sppl::prelude::*;

const N_STEP: usize = 30;

/// One "session": translate the model, attach the shared cache, and
/// condition on the observations — the posterior `Model` keeps the cache.
fn open_session(cache: &Arc<SharedCache>) -> Model {
    let model = hmm::hierarchical_hmm(N_STEP)
        .session()
        .expect("model compiles")
        .with_shared_cache(Arc::clone(cache));
    // Fixed synthetic observations so both sessions see the same model.
    let x: Vec<f64> = (0..N_STEP).map(|t| 5.0 + f64::from(t as u32 % 3)).collect();
    let y: Vec<f64> = (0..N_STEP).map(|t| f64::from(4 + (t as u32 % 4))).collect();
    model
        .constrain(&hmm::observation_assignment(&x, &y))
        .expect("positive density")
}

fn main() {
    let cache = Arc::new(SharedCache::new(10_000));
    let mut batch = hmm::smoothing_queries(N_STEP);
    batch.extend(hmm::pairwise_queries(N_STEP));
    println!("batch: {} posterior marginals per session\n", batch.len());

    // Session 1 pays for the evaluations and fills the shared cache.
    let session1 = open_session(&cache);
    let t = Instant::now();
    let answers1 = session1.logprob_many(&batch).expect("batch");
    println!(
        "session 1 (cold): {:5.1} ms  shared cache {:?}",
        t.elapsed().as_secs_f64() * 1000.0,
        cache.stats(),
    );

    // Session 2 compiles its own copy of the model; its digest matches,
    // so every query is served session 1's exact bits from the shared
    // cache without touching the evaluator.
    let session2 = open_session(&cache);
    assert_eq!(session1.model_digest(), session2.model_digest());
    let t = Instant::now();
    let answers2 = session2.logprob_many(&batch).expect("batch");
    println!(
        "session 2 (shared-cache warm): {:5.1} ms  shared cache {:?}",
        t.elapsed().as_secs_f64() * 1000.0,
        cache.stats(),
    );
    assert!(answers1
        .iter()
        .zip(&answers2)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    println!(
        "\nboth sessions agree bit-for-bit on all {} answers",
        batch.len()
    );

    let s = cache.stats();
    println!(
        "shared cache: {} hits / {} misses / {} entries / {} evictions (hit rate {:.0}%)",
        s.hits,
        s.misses,
        s.entries,
        cache.evictions(),
        s.hit_rate() * 100.0,
    );
}
