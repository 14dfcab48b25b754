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
//! 2. the session's one result store answers in one lookup — its own
//!    map, or, when a [`SharedCache`] is attached, that cache in place of
//!    it, so sessions over the same model content share answers under
//!    the cache's LRU bound — and a repeat within the call shares its
//!    first occurrence's answer;
//! 3. every remaining miss of the call goes through one batched pass of
//!    the session's arena — a flat, topologically ordered compile of the
//!    model, built by the session on its first miss, whose answers are
//!    bit-identical to the tree walker [`Spe::logprob`];
//! 4. each result is stored once, in the same store, with the shared
//!    cache's stored value authoritative.
//!
//! Conditioning ([`Model::condition_chain`]) keeps no session table: each
//! step is the factory's (node, canonical event) memo, so repeating a
//! chain costs one lookup per step and hands back the same posterior.
//!
//! # Concurrency
//!
//! A session (and the factory underneath) is `Send + Sync`: every table
//! is a sharded lock map and every counter an atomic, so clones of one
//! [`Model`] can query from many threads at once.
//!
//! # Clearing
//!
//! A stored answer is a pure value of the session's fixed root and the
//! event, so nothing ever goes stale and no clear is needed for
//! correctness. [`Model::clear_caches`] releases memory: it drops the
//! session's own map, resets its statistics, and clears the factory's
//! node-level memos ([`Factory::clear_caches`], which leaves every
//! session's map alone).
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
//! [`Factory::logprob`]: crate::spe::Factory::logprob
//! [`Factory::clear_caches`]: crate::spe::Factory::clear_caches

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::arena::ArenaModel;
use crate::cache::SharedCache;
use crate::digest::{Fingerprint, ModelDigest};
use crate::spe::Spe;
use crate::sync_map::ShardedMap;

/// Hit/miss/entry statistics for a memoization cache. Every cache layer
/// reports this shape; for the sharded [`SharedCache`] the counts are
/// aggregated across all shards.
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

/// The attached shared cache and the session's model digest, its half
/// of every key; `None` when the session keeps its own map.
pub(crate) type Shared<'a> = Option<(&'a SharedCache, ModelDigest)>;

/// A session's memo (see the [module docs](self)): the arena, the
/// session's own answers, and their statistics. Owned by the session
/// state behind [`Model`](crate::model::Model)'s `Arc`, so clones share
/// it and posteriors get their own.
#[derive(Default)]
pub(crate) struct Memo {
    /// Arena-compiled form of the session's root, built on the first miss.
    arena: OnceLock<ArenaModel>,
    /// Canonical event fingerprint → log-probability, for a session with
    /// no shared cache attached.
    own: ShardedMap<Fingerprint, f64>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Memo {
    /// The answer stored under `key`: in the shared cache when one is
    /// attached, else in the session's own map.
    pub(crate) fn get(&self, shared: Shared<'_>, key: Fingerprint) -> Option<f64> {
        match shared {
            Some((cache, digest)) => cache.get(digest, key),
            None => self.own.get(&key),
        }
    }

    /// Stores `value` under `key` in the store [`Memo::get`] reads and
    /// returns the value now authoritative there (a shared cache keeps
    /// its first write).
    pub(crate) fn put(&self, shared: Shared<'_>, key: Fingerprint, value: f64) -> f64 {
        match shared {
            Some((cache, digest)) => cache.insert(digest, key, value),
            None => {
                self.own.insert(key, value);
                value
            }
        }
    }

    /// Adds one call's lookups to the statistics.
    pub(crate) fn count(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// The arena compile of `root`, built on first use.
    pub(crate) fn arena(&self, root: &Spe) -> &ArenaModel {
        self.arena.get_or_init(|| ArenaModel::build(root))
    }

    /// Hits and misses of the `logprob` route, and the entries of the
    /// session's own map.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.own.len(),
        }
    }

    /// Drops the session's own answers and resets its statistics.
    pub(crate) fn clear(&self) {
        self.own.clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::error::SpplError;
    use crate::event::Event;
    use crate::model::Model;
    use crate::spe::Factory;
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
        // Each repeated step is one hit in the factory's conditioning
        // memo and hands back the same posterior.
        let model = model_xy();
        let chain = [le("X", 0.0), le("Y", 0.0)];
        let a = model.condition_chain(&chain).unwrap();
        let before = model.factory().cond_cache_stats();
        let b = model.condition_chain(&chain).unwrap();
        let after = model.factory().cond_cache_stats();
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
        // The shared cache is session b's one store: its answer is a hit.
        let s = b.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 0, 0));
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
