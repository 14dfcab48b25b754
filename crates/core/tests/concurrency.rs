//! Concurrency guarantees of the core: `Send + Sync` bounds hold at
//! compile time, threads sharing one `Model` answer bit-for-bit like the
//! tree walker, threads conditioning one factory converge on one
//! posterior, the intern table keeps its pointer-identity invariant
//! under racing builders, and a racing `clear_caches` never makes a
//! session serve a wrong entry.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use sppl_core::prelude::*;

/// Compile-time `Send + Sync` witnesses: if any of these regress (say a
/// `RefCell` sneaks back into a cache), this test file stops compiling.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<Spe>();
    assert_send_sync::<Factory>();
    assert_send_sync::<Model>();
    assert_send_sync::<SharedCache>();
    assert_send_sync::<Event>();
    assert_send_sync::<SpplError>();
};

fn normal(f: &Factory, name: &str, mu: f64) -> Spe {
    f.leaf(
        Var::new(name),
        Distribution::Real(DistReal::new(Cdf::normal(mu, 1.0), Interval::all()).unwrap()),
    )
}

/// A three-variable mixture-of-products model with enough structure that
/// queries exercise sums, products, and the disjoin path.
fn build_model(f: &Factory) -> Spe {
    let mk = |mu: f64| -> Spe {
        f.product(vec![
            normal(f, "X", mu),
            normal(f, "Y", -mu),
            f.leaf(
                Var::new("K"),
                Distribution::Int(
                    DistInt::new(Cdf::poisson(2.0 + mu.abs()), 0.0, f64::INFINITY).unwrap(),
                ),
            ),
        ])
        .unwrap()
    };
    f.sum(vec![
        (mk(0.0), 0.5f64.ln()),
        (mk(2.0), 0.3f64.ln()),
        (mk(-1.0), 0.2f64.ln()),
    ])
    .unwrap()
}

fn model() -> Model {
    let f = Factory::new();
    let m = build_model(&f);
    Model::new(f, m)
}

/// A wide batch of distinct events mixing conjunctions, disjunctions, and
/// transformed literals.
fn batch(n: usize) -> Vec<Event> {
    (0..n)
        .map(|i| {
            let t = i as f64 / 8.0 - 2.0;
            let x = Transform::id(Var::new("X"));
            let y = Transform::id(Var::new("Y"));
            let k = Transform::id(Var::new("K"));
            match i % 4 {
                0 => Event::le(x, t),
                1 => Event::and(vec![Event::le(x, t), Event::gt(y, -t)]),
                2 => Event::or(vec![
                    Event::le(x.pow_int(2), t.abs() + 0.5),
                    Event::le(k, 3.0),
                ]),
                _ => Event::and(vec![Event::le(y.abs(), t.abs() + 0.1), Event::gt(k, 1.0)]),
            }
        })
        .collect()
}

/// Four threads share one cold `Model` and ask overlapping batches at
/// once, racing the arena's first compile and the memo inserts. Every
/// answer must equal the tree walker's bits, and every event of every
/// batch must count exactly one hit or one miss.
#[test]
fn threads_sharing_one_model_batches_match_tree_walker() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 4;
    const WIDTH: usize = 64;
    let model = model();
    let events = batch(128);
    let reference: Vec<u64> = events
        .iter()
        .map(|e| model.root().logprob(&e.canonical()).unwrap().to_bits())
        .collect();
    let start = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let model = model.clone();
            let (events, reference, start) = (&events, &reference, &start);
            s.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    // Neighbouring threads' windows overlap by half.
                    let lo = t * WIDTH / 2 + round * 8;
                    let window: Vec<Event> = (lo..lo + WIDTH)
                        .map(|i| events[i % events.len()].clone())
                        .collect();
                    let got = model.logprob_many(&window).unwrap();
                    for (i, g) in (lo..lo + WIDTH).zip(&got) {
                        let j = i % events.len();
                        assert_eq!(g.to_bits(), reference[j], "event {j} diverged");
                    }
                }
            });
        }
    });
    let stats = model.stats();
    assert_eq!(stats.hits + stats.misses, (THREADS * ROUNDS * WIDTH) as u64);
    assert!(stats.entries <= events.len());
}

#[test]
fn many_threads_querying_one_engine_agree() {
    let eng = model();
    let events = batch(64);
    let reference = eng.logprob_many(&events).unwrap();
    std::thread::scope(|s| {
        for t in 0..8 {
            let eng = eng.clone();
            let events = &events;
            let reference = &reference;
            s.spawn(move || {
                // Stagger starting offsets so threads collide on different
                // cache shards over time.
                for i in 0..events.len() {
                    let j = (i + t * 7) % events.len();
                    let got = eng.logprob(&events[j]).unwrap();
                    assert_eq!(got.to_bits(), reference[j].to_bits());
                }
            });
        }
    });
}

#[test]
fn concurrent_interning_preserves_pointer_identity() {
    let f = Factory::new();
    let handles: Vec<Spe> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..8).map(|_| s.spawn(|| build_model(&f))).collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for h in &handles[1..] {
        assert!(
            h.same(&handles[0]),
            "racing builders of identical structure must intern one node"
        );
    }
}

/// Clearing under races: readers hammer one session while a writer
/// repeatedly clears all caches.
/// Every answer must stay bit-identical to the reference (no stale or
/// torn entry may ever be served), and a final quiescent clear must leave
/// empty statistics.
#[test]
fn clear_caches_racing_queries_never_serves_stale_entries() {
    let eng = model();
    let events = batch(48);
    let reference = eng.logprob_many(&events).unwrap();
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        for t in 0..4 {
            let eng = eng.clone();
            let events = &events;
            let reference = &reference;
            let stop = &stop;
            s.spawn(move || {
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let j = i % events.len();
                    let got = eng.logprob(&events[j]).unwrap();
                    assert_eq!(
                        got.to_bits(),
                        reference[j].to_bits(),
                        "query {j} diverged while racing clear_caches"
                    );
                    i += 1;
                }
            });
        }
        // Clear through both entry points, repeatedly, while the readers
        // run.
        let clearer = {
            let eng = eng.clone();
            let stop = &stop;
            s.spawn(move || {
                for k in 0..200 {
                    if k % 2 == 0 {
                        eng.clear_caches();
                    } else {
                        eng.factory().clear_caches();
                    }
                    std::thread::yield_now();
                }
                stop.store(true, Ordering::Relaxed);
            })
        };
        clearer.join().unwrap();
    });

    // Quiescent clear: everything must read as empty...
    eng.clear_caches();
    assert_eq!(eng.stats(), CacheStats::default());
    assert_eq!(eng.factory().prob_cache_stats(), CacheStats::default());
    assert_eq!(eng.factory().cond_cache_stats(), CacheStats::default());
    // ...and the session still answers correctly afterwards.
    let again = eng.logprob_many(&events).unwrap();
    for (a, r) in again.iter().zip(&reference) {
        assert_eq!(a.to_bits(), r.to_bits());
    }
}

#[test]
fn conditioning_races_queries_without_deadlock() {
    let eng = model();
    let x = Transform::id(Var::new("X"));
    let y = Transform::id(Var::new("Y"));
    let chain = [Event::le(x.clone(), 1.5), Event::gt(y.clone(), -2.0)];
    let expected_posterior = eng.condition_chain(&chain).unwrap();
    let probe = Event::and(vec![Event::le(x, 0.0), Event::le(y, 0.0)]);
    let expected_probe = expected_posterior.prob(&probe).unwrap();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let eng = eng.clone();
            let chain = &chain;
            let probe = &probe;
            s.spawn(move || {
                for _ in 0..50 {
                    let post = eng.condition_chain(chain).unwrap();
                    let p = post.prob(probe).unwrap();
                    assert_eq!(p.to_bits(), expected_probe.to_bits());
                }
            });
        }
    });
}

#[test]
fn shared_cache_concurrent_engines_stay_consistent() {
    let cache = Arc::new(SharedCache::new(256));
    let engines: Vec<Model> = (0..3)
        .map(|_| {
            let f = Factory::new();
            let m = build_model(&f);
            Model::new(f, m).with_shared_cache(Arc::clone(&cache))
        })
        .collect();
    let events = batch(64);
    // Prefill through the first session: the reference values land in the
    // shared cache, so every other session is served those exact bits
    // rather than recomputing. (Separately compiled factories now agree
    // bit for bit on their own — digest-canonical sum order — so the
    // shared cache is pure speedup; this test keeps the consistency
    // discipline pinned regardless.)
    let reference = engines[0].logprob_many(&events).unwrap();
    std::thread::scope(|s| {
        for eng in &engines {
            let eng = eng.clone();
            let events = &events;
            let reference = &reference;
            s.spawn(move || {
                let got = eng.logprob_many(events).unwrap();
                for (g, r) in got.iter().zip(reference) {
                    assert_eq!(g.to_bits(), r.to_bits());
                }
            });
        }
    });
    let stats = cache.stats();
    assert!(stats.entries > 0 && stats.entries <= 256);
    assert!(
        stats.hits > 0,
        "later sessions must be served from the shared cache"
    );
}

// ---------------------------------------------------------------------------
// Conditioning one factory from several threads.
// ---------------------------------------------------------------------------

/// A mixture of `n` two-variable products; at n = 24 one `condition`
/// call does real per-child and per-clause work.
fn wide_mixture(f: &Factory, n: usize) -> Spe {
    let w = (1.0 / n as f64).ln();
    let comps: Vec<(Spe, f64)> = (0..n)
        .map(|i| {
            let mu = i as f64 / 3.0 - 4.0;
            let c = f
                .product(vec![normal(f, "X", mu), normal(f, "Y", -mu)])
                .unwrap();
            (c, w)
        })
        .collect();
    f.sum(comps).unwrap()
}

fn wide_evidence() -> Event {
    let x = Transform::id(Var::new("X"));
    let y = Transform::id(Var::new("Y"));
    Event::or(vec![
        Event::le(x.clone(), 0.25),
        Event::and(vec![Event::gt(x, -1.0), Event::gt(y, 1.5)]),
    ])
}

fn wide_probe() -> Event {
    let x = Transform::id(Var::new("X"));
    let y = Transform::id(Var::new("Y"));
    Event::and(vec![Event::le(x, 1.0), Event::le(y, 1.0)])
}

/// `Factory::clear_caches` racing three threads' `condition` calls must
/// neither deadlock nor perturb an answer: the memo tables are pure
/// caches, so a clear mid-call only costs recomputation, and
/// first-write-wins fills make every posterior intern to the same
/// physical node as the quiescent reference.
#[test]
fn factory_clear_racing_condition_stays_bit_identical() {
    let f = Factory::new();
    let m = wide_mixture(&f, 24);
    let evidence = wide_evidence();
    let reference = condition(&f, &m, &evidence).unwrap();
    let probe = wide_probe();
    let want = f.logprob(&reference, &probe).unwrap().to_bits();
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        for _ in 0..3 {
            let f = &f;
            let m = &m;
            let evidence = &evidence;
            let reference = &reference;
            let probe = &probe;
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let post = condition(f, m, evidence).unwrap();
                    assert!(
                        post.same(reference),
                        "posterior must intern to the reference node even \
                         while caches are being cleared"
                    );
                    assert_eq!(f.logprob(&post, probe).unwrap().to_bits(), want);
                }
            });
        }
        let clearer = {
            let f = &f;
            let stop = &stop;
            s.spawn(move || {
                for _ in 0..150 {
                    f.clear_caches();
                    std::thread::yield_now();
                }
                stop.store(true, Ordering::Relaxed);
            })
        };
        clearer.join().unwrap();
    });

    // Still answers correctly once quiet.
    let again = condition(&f, &m, &evidence).unwrap();
    assert!(again.same(&reference));
}
