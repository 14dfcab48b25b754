//! The session memo behind [`Model`]'s query route, plus the cache
//! statistics the rest of the crate shares and the worker count servers
//! size to.
//!
//! `prob`/`condition` are memoized *within* a call over the deduplicated
//! DAG ([`Factory::logprob`], [`condition`](crate::condition::condition));
//! a [`Model`] adds the *across-call* layer the paper's workflow implies
//! (Fig. 7a: translate once, then answer many queries). Every
//! `logprob`/`prob` question, single or batched, takes one route:
//!
//! 1. each event is [canonicalized](crate::event::Event::canonical), so
//!    structurally equivalent events built in different operand orders
//!    share one key;
//! 2. the session memo answers repeats in one hash lookup, then an
//!    attached [`SharedCache`] answers what other sessions over the same
//!    model content already computed;
//! 3. every remaining miss of the call goes through one batched pass of
//!    the session's arena — a flat, topologically ordered compile of the
//!    model, built on the first miss and shared by content digest across
//!    sessions, whose answers are bit-identical to the tree walker
//!    [`Spe::logprob`];
//! 4. each result is published under the same keys, with the shared
//!    cache's stored value authoritative.
//!
//! Conditioning chains ([`Model::condition_chain`]) are memoized the same
//! way: every prefix posterior is cached under the chained canonical
//! fingerprints.
//!
//! # Concurrency
//!
//! A session (and the factory underneath) is `Send + Sync`: every table
//! is a sharded lock map and every counter an atomic, so clones of one
//! [`Model`] can query from many threads at once.
//!
//! # Invalidation
//!
//! Invalidation is tied to [`Factory::clear_caches`] through the factory's
//! [cache generation](Factory::cache_generation): clearing the factory —
//! directly or via [`Model::clear_caches`] — drops the session's entries
//! and resets its statistics. Every entry is tagged with the generation
//! current when its computation began and is served only while that tag
//! matches, so a clear racing against in-flight queries can never
//! resurrect a pre-clear entry.
//!
//! # Example
//!
//! ```
//! use sppl_core::prelude::*;
//!
//! let f = Factory::new();
//! let x = f.leaf(
//!     Var::new("X"),
//!     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
//! );
//! let model = Model::new(f, x);
//! let e = var("X").le(0.0);
//! let cold = model.prob(&e).unwrap();
//! let warm = model.prob(&e).unwrap();
//! assert_eq!(cold.to_bits(), warm.to_bits());
//! assert_eq!(model.stats().hits, 1);
//! // The answer is the tree walker's, bit for bit.
//! assert_eq!(cold.to_bits(), model.root().prob(&e.canonical()).unwrap().to_bits());
//! ```
//!
//! [`Model`]: crate::model::Model
//! [`Model::condition_chain`]: crate::model::Model::condition_chain
//! [`Model::clear_caches`]: crate::model::Model::clear_caches
//! [`SharedCache`]: crate::cache::SharedCache

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::arena::ArenaModel;
use crate::digest::Fingerprint;
use crate::spe::{Factory, Spe};
use crate::sync_map::ShardedMap;

/// Hit/miss/entry statistics for a memoization cache. Every cache layer
/// reports this shape; for the sharded
/// [`SharedCache`](crate::cache::SharedCache) the counts are aggregated
/// across all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a fresh evaluation.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (zero when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The worker count for servers sizing their request workers:
/// `SPPL_THREADS` when set to a positive integer, otherwise the
/// machine's available parallelism (one when even that is unknown).
/// Nothing in this crate fans out over threads: queries, `condition`,
/// `constrain` and translation all run on the calling thread, and
/// throughput comes from many sessions or server workers at once.
pub fn default_threads() -> usize {
    std::env::var("SPPL_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// A session's memo (see the [module docs](self)): the arena, the
/// whole-query result tables, and their statistics. Owned by the
/// session state behind [`Model`](crate::model::Model)'s `Arc`, so clones
/// share it and posteriors get their own.
pub(crate) struct Memo {
    /// Arena-compiled form of the session's root, built on the first miss.
    arena: OnceLock<Arc<ArenaModel>>,
    /// Canonical event fingerprint → (generation tag, log-probability).
    logprob_cache: ShardedMap<Fingerprint, (u64, f64)>,
    /// Chain prefix key → (generation tag, posterior).
    cond_cache: ShardedMap<Fingerprint, (u64, Spe)>,
    hits: AtomicU64,
    misses: AtomicU64,
    seen_generation: AtomicU64,
}

impl Memo {
    /// An empty memo in sync with a factory at `generation`.
    pub(crate) fn new(generation: u64) -> Memo {
        Memo {
            arena: OnceLock::new(),
            logprob_cache: ShardedMap::new(),
            cond_cache: ShardedMap::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            seen_generation: AtomicU64::new(generation),
        }
    }

    /// Drops every entry when `factory`'s caches were cleared behind our
    /// back (memo keys pin no nodes, so stale entries would outlive the
    /// node-level tables they were derived from), then returns the
    /// generation new entries must be tagged with. Generation tags make
    /// this airtight under races: even before a lagging thread syncs,
    /// tagged lookups refuse entries from older generations.
    pub(crate) fn sync(&self, factory: &Factory) -> u64 {
        let current = factory.cache_generation();
        let mut seen = self.seen_generation.load(Ordering::SeqCst);
        // Only ever advance: a lagging thread that read an older factory
        // generation before a concurrent bump must not drag
        // `seen_generation` backwards (that would wipe freshly valid
        // entries and reset statistics a second time). Exactly one thread
        // wins the CAS per bump and performs the sweep.
        while seen < current {
            match self.seen_generation.compare_exchange(
                seen,
                current,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    self.logprob_cache.clear();
                    self.cond_cache.clear();
                    self.hits.store(0, Ordering::Relaxed);
                    self.misses.store(0, Ordering::Relaxed);
                    break;
                }
                Err(actual) => seen = actual,
            }
        }
        factory.cache_generation()
    }

    /// The log-probability memoized under `key`, if it was stored in
    /// `generation`.
    pub(crate) fn logprob(&self, key: &Fingerprint, generation: u64) -> Option<f64> {
        let (tag, value) = self.logprob_cache.get(key)?;
        (tag == generation).then_some(value)
    }

    /// Memoizes `value` under `key`, tagged with `generation` — the one
    /// read *before* computing, so an entry a racing clear made stale is
    /// never served.
    pub(crate) fn put_logprob(&self, key: Fingerprint, generation: u64, value: f64) {
        self.logprob_cache.insert(key, (generation, value));
    }

    /// The posterior memoized under chain key `key`, if it was stored in
    /// `generation`.
    pub(crate) fn posterior(&self, key: &Fingerprint, generation: u64) -> Option<Spe> {
        let (tag, posterior) = self.cond_cache.get(key)?;
        (tag == generation).then_some(posterior)
    }

    /// Memoizes `posterior` under chain key `key`, tagged like
    /// [`Memo::put_logprob`].
    pub(crate) fn put_posterior(&self, key: Fingerprint, generation: u64, posterior: Spe) {
        self.cond_cache.insert(key, (generation, posterior));
    }

    /// Adds one call's lookups to the statistics.
    pub(crate) fn count(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// The arena compile of `root`, built on first use (digest-equal
    /// sessions share one through the arena registry).
    pub(crate) fn arena(&self, root: &Spe) -> &ArenaModel {
        self.arena.get_or_init(|| ArenaModel::compile(root))
    }

    /// Hits and misses across the `logprob` and `condition` paths, and
    /// the entries both tables hold.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.logprob_cache.len() + self.cond_cache.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::cache::SharedCache;
    use crate::error::SpplError;
    use crate::event::Event;
    use crate::model::Model;
    use crate::transform::Transform;
    use crate::var::Var;
    use sppl_dists::{Cdf, DistReal, Distribution};
    use sppl_num::float::approx_eq;
    use sppl_sets::Interval;

    fn normal(f: &Factory, name: &str, mu: f64) -> Spe {
        f.leaf(
            Var::new(name),
            Distribution::Real(DistReal::new(Cdf::normal(mu, 1.0), Interval::all()).unwrap()),
        )
    }

    fn model_xy() -> Model {
        let f = Factory::new();
        let p = f
            .product(vec![normal(&f, "X", 0.0), normal(&f, "Y", 0.0)])
            .unwrap();
        Model::new(f, p)
    }

    fn le(name: &str, v: f64) -> Event {
        Event::le(Transform::id(Var::new(name)), v)
    }

    /// The tree walker's answer: the reference every route result equals.
    fn tree(model: &Model, e: &Event) -> f64 {
        model.root().logprob(&e.canonical()).unwrap()
    }

    #[test]
    fn matches_direct_logprob() {
        let model = model_xy();
        let e = Event::and(vec![le("X", 0.0), le("Y", 0.0)]);
        assert_eq!(
            model.logprob(&e).unwrap().to_bits(),
            tree(&model, &e).to_bits()
        );
        assert!(approx_eq(model.prob(&e).unwrap(), 0.25, 1e-12));
    }

    #[test]
    fn batched_equals_individual() {
        let model = model_xy();
        let events = vec![le("X", 0.0), le("Y", 1.0), le("X", -1.0)];
        let batch = model.logprob_many(&events).unwrap();
        for (e, lp) in events.iter().zip(&batch) {
            assert_eq!(lp.to_bits(), tree(&model, e).to_bits());
        }
        let probs = model.prob_many(&events).unwrap();
        for (lp, p) in batch.iter().zip(&probs) {
            assert_eq!(lp.exp().clamp(0.0, 1.0).to_bits(), p.to_bits());
        }
    }

    #[test]
    fn condition_chain_matches_conjunction() {
        let model = model_xy();
        let e1 = le("X", 0.0);
        let e2 = le("Y", 0.0);
        let chained = model.condition_chain(&[e1.clone(), e2.clone()]).unwrap();
        let joint = model
            .condition(&Event::and(vec![e1.clone(), e2.clone()]))
            .unwrap();
        let probe = Event::and(vec![le("X", -1.0), le("Y", -1.0)]);
        assert!(approx_eq(
            chained.prob(&probe).unwrap(),
            joint.prob(&probe).unwrap(),
            1e-12
        ));
        // Empty chain is the prior.
        assert!(model
            .condition_chain(&[])
            .unwrap()
            .root()
            .same(model.root()));
    }

    #[test]
    fn chain_prefixes_are_cached() {
        let model = model_xy();
        let chain = [le("X", 0.0), le("Y", 0.0)];
        let a = model.condition_chain(&chain).unwrap();
        let before = model.stats();
        let b = model.condition_chain(&chain).unwrap();
        let after = model.stats();
        assert!(a.root().same(b.root()));
        assert_eq!(after.hits, before.hits + 2);
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn zero_probability_chain_errors() {
        let model = model_xy();
        let impossible = Event::in_interval(
            Transform::id(Var::new("X")).pow_int(2),
            Interval::open(f64::NEG_INFINITY, 0.0),
        );
        assert!(matches!(
            model.condition_chain(&[le("Y", 0.0), impossible]),
            Err(SpplError::ZeroProbability { .. })
        ));
    }

    #[test]
    fn unknown_variable_propagates() {
        let model = model_xy();
        assert!(matches!(
            model.logprob(&le("Nope", 0.0)),
            Err(SpplError::UnknownVariable { .. })
        ));
    }

    #[test]
    fn shared_cache_crosses_engines() {
        let cache = Arc::new(SharedCache::new(64));
        let a = {
            let f = Factory::new();
            let p = f
                .product(vec![normal(&f, "X", 0.0), normal(&f, "Y", 0.0)])
                .unwrap();
            Model::new(f, p).with_shared_cache(Arc::clone(&cache))
        };
        let b = {
            let f = Factory::new();
            let p = f
                .product(vec![normal(&f, "Y", 0.0), normal(&f, "X", 0.0)])
                .unwrap();
            Model::new(f, p).with_shared_cache(Arc::clone(&cache))
        };
        assert_eq!(
            a.model_digest(),
            b.model_digest(),
            "same model content must share one digest across factories"
        );
        let e = Event::and(vec![le("X", 0.25), le("Y", -0.5)]);
        let va = a.logprob(&e).unwrap();
        let before = cache.stats();
        let vb = b.logprob(&e).unwrap();
        let after = cache.stats();
        assert_eq!(va.to_bits(), vb.to_bits());
        assert_eq!(
            after.hits,
            before.hits + 1,
            "session b must hit the shared cache"
        );
        // Session b recorded a memo miss; the shared cache answered it.
        assert_eq!(b.stats().misses, 1);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn hit_rate_reporting() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            entries: 1,
        };
        assert!(approx_eq(s.hit_rate(), 0.75, 1e-12));
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
