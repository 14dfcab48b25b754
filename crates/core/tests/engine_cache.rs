//! Cache invariants of a [`Model`]'s query route: repeated queries are
//! bit-identical hits, canonicalization folds structurally equivalent
//! events onto one entry, a batch mixing every kind of answer matches
//! per-event calls, `clear_caches` empties the session and its factory,
//! and an attached [`SharedCache`] is the session's one store, under its
//! capacity bound.

use std::sync::Arc;

use sppl_core::prelude::*;

fn normal(f: &Factory, name: &str, mu: f64) -> Spe {
    f.leaf(
        Var::new(name),
        Distribution::Real(DistReal::new(Cdf::normal(mu, 1.0), Interval::all()).unwrap()),
    )
}

/// X ⊗ Y session (independent standard normals).
fn engine() -> Model {
    let f = Factory::new();
    let p = f
        .product(vec![normal(&f, "X", 0.0), normal(&f, "Y", 0.0)])
        .unwrap();
    Model::new(f, p)
}

fn le(name: &str, v: f64) -> Event {
    Event::le(Transform::id(Var::new(name)), v)
}

#[test]
fn repeated_query_is_a_bit_identical_hit() {
    let engine = engine();
    let e = Event::and(vec![le("X", 0.3), le("Y", -0.7)]);
    let cold = engine.logprob(&e).unwrap();
    let s1 = engine.stats();
    assert_eq!((s1.hits, s1.misses, s1.entries), (0, 1, 1));

    let warm = engine.logprob(&e).unwrap();
    let s2 = engine.stats();
    assert_eq!(cold.to_bits(), warm.to_bits());
    assert_eq!((s2.hits, s2.misses, s2.entries), (1, 1, 1));
}

#[test]
fn repeated_condition_is_a_hit_returning_the_same_node() {
    let engine = engine();
    let e = le("X", 0.0);
    let p1 = engine.condition(&e).unwrap();
    let before = engine.factory().cond_cache_stats();
    let p2 = engine.condition(&e).unwrap();
    let after = engine.factory().cond_cache_stats();
    assert!(
        p1.root().same(p2.root()),
        "cached posterior must be the same physical node"
    );
    assert_eq!(
        (after.hits, after.misses),
        (before.hits + 1, before.misses),
        "a repeated step is one hit in the factory's conditioning memo"
    );
}

#[test]
fn structurally_equal_events_share_one_entry() {
    let engine = engine();
    let a = le("X", 0.0);
    let b = le("Y", 0.0);
    // Same predicate, built separately in opposite operand order and with
    // gratuitous nesting — raw fingerprints differ, canonical ones agree.
    let e1 = Event::And(vec![a.clone(), b.clone()]);
    let e2 = Event::And(vec![b.clone(), Event::And(vec![a.clone()])]);
    assert_ne!(e1.fingerprint(), e2.fingerprint());

    let v1 = engine.logprob(&e1).unwrap();
    let v2 = engine.logprob(&e2).unwrap();
    assert_eq!(v1.to_bits(), v2.to_bits());
    let s = engine.stats();
    assert_eq!(
        (s.hits, s.misses, s.entries),
        (1, 1, 1),
        "canonicalization must fold both spellings onto one cache entry"
    );
}

#[test]
fn clear_caches_resets_stats_and_entries() {
    // A mixture: conditioning weighs its children through the factory's
    // node-level memo (queries never touch it), so the clear has a
    // filled node memo to sweep.
    let f = Factory::new();
    let mixture = f
        .sum(vec![
            (normal(&f, "X", -1.0), 0.5f64.ln()),
            (normal(&f, "X", 1.0), 0.5f64.ln()),
        ])
        .unwrap();
    let engine = Model::new(f, mixture);
    let e = le("X", 1.0);
    engine.logprob(&e).unwrap();
    engine.logprob(&e).unwrap();
    engine.condition(&e).unwrap();
    assert!(engine.stats().entries > 0);
    assert!(engine.factory().prob_cache_stats().entries > 0);

    engine.clear_caches();
    assert_eq!(engine.stats(), CacheStats::default());
    assert_eq!(engine.factory().prob_cache_stats(), CacheStats::default());
    assert_eq!(engine.factory().cond_cache_stats(), CacheStats::default());

    // The engine still answers (and repopulates) after a clear.
    let again = engine.logprob(&e).unwrap();
    assert_eq!(again.to_bits(), engine.logprob(&e).unwrap().to_bits());
    let s = engine.stats();
    assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
}

#[test]
fn batched_stats_account_every_lookup() {
    let engine = engine();
    let queries: Vec<Event> = (0..8).map(|i| le("X", f64::from(i) / 4.0)).collect();
    let cold = engine.logprob_many(&queries).unwrap();
    let warm = engine.logprob_many(&queries).unwrap();
    assert_eq!(cold, warm);
    let s = engine.stats();
    assert_eq!((s.hits, s.misses, s.entries), (8, 8, 8));
    // The second pass was answered entirely from cache.
    assert!((s.hit_rate() - 0.5).abs() < 1e-12);
}

/// A session over a shared cache holding `memo_hit`, which the session
/// asked itself, and `shared_hit`, which another session over the same
/// model filled.
fn primed(memo_hit: &Event, shared_hit: &Event) -> Model {
    let cache = Arc::new(SharedCache::new(64));
    engine()
        .with_shared_cache(Arc::clone(&cache))
        .logprob(shared_hit)
        .unwrap();
    let model = engine().with_shared_cache(cache);
    model.logprob(memo_hit).unwrap();
    model
}

#[test]
fn mixed_batch_matches_per_event_calls() {
    let memo_hit = le("X", 0.5);
    let shared_hit = Event::and(vec![le("X", 0.25), le("Y", -0.5)]);
    let fresh = [le("Y", 1.0), Event::or(vec![le("X", -1.0), le("Y", 2.0)])];

    // Memo hit, shared-cache hit, two fresh misses, and a repeat within
    // the call: bit-identical to per-event calls and to the tree walker,
    // with the same accounting.
    let events = vec![
        fresh[0].clone(),
        memo_hit.clone(),
        shared_hit.clone(),
        fresh[1].clone(),
        fresh[0].clone(),
    ];
    let batched = primed(&memo_hit, &shared_hit);
    let single = primed(&memo_hit, &shared_hit);
    let before = batched.stats();
    let got = batched.logprob_many(&events).unwrap();
    for (e, g) in events.iter().zip(&got) {
        let want = single.logprob(e).unwrap();
        let tree = batched.root().logprob(&e.canonical()).unwrap();
        assert_eq!(g.to_bits(), want.to_bits(), "{e}");
        assert_eq!(g.to_bits(), tree.to_bits(), "{e}");
    }
    let after = batched.stats();
    assert_eq!(after, single.stats());
    // Both stored answers and the in-call repeat hit; the two fresh
    // events miss.
    assert_eq!(
        (after.hits - before.hits, after.misses - before.misses),
        (3, 2)
    );

    // Unknown variables: the earliest error, and the same hits and
    // misses as per-event calls.
    let events = vec![
        le("X", 2.0),
        memo_hit.clone(),
        le("Nope", 0.0),
        shared_hit.clone(),
        le("Zzz", 1.0),
    ];
    let batched = primed(&memo_hit, &shared_hit);
    let single = primed(&memo_hit, &shared_hit);
    let err = batched.logprob_many(&events).unwrap_err();
    let per_event: Vec<Result<f64, SpplError>> = events.iter().map(|e| single.logprob(e)).collect();
    let first = per_event
        .into_iter()
        .find_map(Result::err)
        .expect("an unknown variable fails");
    assert_eq!(err, first);
    assert!(matches!(&err, SpplError::UnknownVariable { var } if var.as_str() == "Nope"));
    let (b, s) = (batched.stats(), single.stats());
    assert_eq!((b.hits, b.misses), (s.hits, s.misses));
}

#[test]
fn an_attached_shared_cache_bounds_what_a_session_keeps() {
    let cache = Arc::new(SharedCache::new(4));
    let model = engine().with_shared_cache(Arc::clone(&cache));
    let tree = |e: &Event| model.root().logprob(&e.canonical()).unwrap();
    let events: Vec<Event> = (0..64).map(|i| le("X", f64::from(i) / 16.0)).collect();
    for e in &events {
        assert_eq!(model.logprob(e).unwrap().to_bits(), tree(e).to_bits());
    }
    let s = model.stats();
    assert_eq!((s.hits, s.misses, s.entries), (0, 64, 0));
    assert!(cache.stats().entries <= 4);

    // The first answer went out of the cache long ago: asked again, it
    // is evaluated again, to the same bits.
    let again = model.logprob(&events[0]).unwrap();
    assert_eq!(again.to_bits(), tree(&events[0]).to_bits());
    let s = model.stats();
    assert_eq!((s.hits, s.misses, s.entries), (0, 65, 0));
}
