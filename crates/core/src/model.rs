//! The session-first [`Model`] handle: one cheaply-cloneable object that
//! owns a compiled sum-product expression together with everything needed
//! to query it fast, and — the point — stays closed under conditioning.
//!
//! The paper's central theorem (Thm. 4.1) says sum-product expressions
//! are closed under conditioning: the posterior of an SPE is again an
//! SPE. A public API should mirror that closure, so here
//! [`Model::condition`] and [`Model::constrain`] return *another
//! `Model`*, not a bare expression. The posterior model shares its
//! parent's [`Factory`] (pointer-identically, via `Arc`), so the intern
//! table and the node-level `prob`/`condition` memos stay warm across a
//! whole conditioning chain; and it inherits the parent's
//! [`SharedCache`] attachment, so whole-query results keep flowing
//! between sessions (keys never collide across distinct posteriors —
//! the model half of the key is the [deep content digest](Spe::digest),
//! which differs whenever the distribution does).
//!
//! A `Model` is `Clone + Send + Sync` and all methods take `&self`:
//! clone it into as many threads or request handlers as needed — clones
//! share one session state behind one `Arc`, and therefore one memo.
//!
//! Every query — [`Model::logprob`], [`Model::prob`] and their batch
//! forms — takes one route (the [`engine`](crate::engine) module docs
//! spell it out): canonicalize each event, answer it from the session's
//! one result store (its own map, or the attached [`SharedCache`] in
//! place of it), and send every remaining miss of the call through one
//! batched pass of the session's arena compile, whose answers equal the
//! tree walker [`Spe::logprob`] bit for bit.
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
//! let y = f.leaf(
//!     Var::new("Y"),
//!     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
//! );
//! let joint = f.product(vec![x, y]).unwrap();
//! let model = Model::new(f, joint);
//!
//! // Query the prior…
//! let p = model.prob(&(var("X").le(0.0) & var("Y").le(0.0))).unwrap();
//! assert!((p - 0.25).abs() < 1e-12);
//!
//! // …condition, and query the posterior through the same kind of handle.
//! let posterior = model.condition(&var("X").le(0.0)).unwrap();
//! assert!(std::sync::Arc::ptr_eq(model.factory_arc(), posterior.factory_arc()));
//! assert!((posterior.prob(&var("X").gt(0.0)).unwrap()).abs() < 1e-12);
//! ```

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use rand::Rng;

use crate::cache::SharedCache;
use crate::condition::condition;
use crate::density::{constrain, Assignment};
use crate::digest::{Fingerprint, ModelDigest};
use crate::engine::{CacheStats, Memo};
use crate::error::SpplError;
use crate::event::Event;
use crate::simulate::Sample;
use crate::spe::{Factory, Spe};

/// A queryable probabilistic-model session (see the [module docs](self)):
/// `Arc<Factory>` + root [`Spe`] + a memoized query route, closed under
/// [`condition`](Model::condition) / [`constrain`](Model::constrain).
#[derive(Clone)]
pub struct Model {
    inner: Arc<Inner>,
}

/// A session's state, shared by every clone of its [`Model`].
struct Inner {
    factory: Arc<Factory>,
    root: Spe,
    /// Deep model digest, computed on first use.
    digest: OnceLock<ModelDigest>,
    /// Optional cross-session result cache.
    shared: Option<Arc<SharedCache>>,
    memo: Memo,
}

impl Model {
    /// Wraps a factory and the root expression it built into a session.
    /// Accepts an owned [`Factory`] or an `Arc<Factory>` shared with
    /// other sessions.
    ///
    /// ```
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let model = Model::new(f, x);
    /// assert!(model.root().is_leaf());
    /// ```
    pub fn new(factory: impl Into<Arc<Factory>>, root: Spe) -> Model {
        Model::session(factory.into(), root, None)
    }

    fn session(factory: Arc<Factory>, root: Spe, shared: Option<Arc<SharedCache>>) -> Model {
        Model {
            inner: Arc::new(Inner {
                factory,
                root,
                digest: OnceLock::new(),
                shared,
                memo: Memo::default(),
            }),
        }
    }

    /// Attaches a cross-session [`SharedCache`] as the returned session's
    /// one result store, in place of a map of its own: queries look up
    /// and fill the shared cache, keyed by this model's
    /// [deep digest](Spe::digest), so sessions over separately compiled
    /// copies of the same model share entries, and what a session keeps
    /// is bounded by the cache's capacity. Posteriors derived from the
    /// returned model inherit the attachment. The returned session starts
    /// with fresh statistics; the factory's node-level memos are
    /// unaffected.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let cache = Arc::new(SharedCache::new(128));
    /// let model = Model::new(f, x).with_shared_cache(Arc::clone(&cache));
    /// model.prob(&var("X").le(0.0)).unwrap();
    /// assert_eq!(cache.stats().entries, 1);
    /// ```
    pub fn with_shared_cache(self, cache: Arc<SharedCache>) -> Model {
        Model::session(
            Arc::clone(&self.inner.factory),
            self.inner.root.clone(),
            Some(cache),
        )
    }

    /// The attached shared cache, if any.
    pub fn shared_cache(&self) -> Option<&Arc<SharedCache>> {
        self.inner.shared.as_ref()
    }

    /// The factory this session builds in (for node-level cache
    /// statistics, or to construct further expressions over the same
    /// intern table).
    pub fn factory(&self) -> &Factory {
        &self.inner.factory
    }

    /// The shared factory handle. Posteriors returned by
    /// [`Model::condition`] / [`Model::constrain`] satisfy
    /// `Arc::ptr_eq(parent.factory_arc(), posterior.factory_arc())`.
    pub fn factory_arc(&self) -> &Arc<Factory> {
        &self.inner.factory
    }

    /// The compiled sum-product expression queries are answered against.
    pub fn root(&self) -> &Spe {
        &self.inner.root
    }

    /// The root expression's deep content digest — the model half of the
    /// [`SharedCache`] key and the identity under which snapshots persist
    /// results. Equal for any two sessions over identical model content,
    /// across factories, processes, and builds of one
    /// [`DIGEST_VERSION`](crate::digest::DIGEST_VERSION). Computed on
    /// first use and then cached.
    pub fn model_digest(&self) -> ModelDigest {
        *self.inner.digest.get_or_init(|| self.inner.root.digest())
    }

    /// Natural log of the probability of `event`, memoized across calls
    /// (and across sessions when a shared cache is attached). A
    /// one-event [`Model::logprob_many`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Spe::logprob`].
    ///
    /// ```
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let model = Model::new(f, x);
    /// let lp = model.logprob(&var("X").le(0.0)).unwrap();
    /// assert!((lp - 0.5f64.ln()).abs() < 1e-12);
    /// ```
    pub fn logprob(&self, event: &Event) -> Result<f64, SpplError> {
        Ok(self.logprob_many(std::slice::from_ref(event))?[0])
    }

    /// The probability of `event`, clamped to `[0, 1]` (see [`Spe::prob`]
    /// for why the clamp matters near one).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Spe::logprob`].
    ///
    /// ```
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let model = Model::new(f, x);
    /// assert!((model.prob(&var("X").le(0.0)).unwrap() - 0.5).abs() < 1e-12);
    /// ```
    pub fn prob(&self, event: &Event) -> Result<f64, SpplError> {
        Ok(self.logprob(event)?.exp().clamp(0.0, 1.0))
    }

    /// Natural log of the probability of every event. Each event is
    /// canonicalized and looked up once in the session's one result
    /// store — the attached [`SharedCache`], or else the session's own
    /// map; every remaining miss goes through one batched pass of the
    /// session's arena compile (built on the first miss), and each result
    /// is stored once under the same key — the shared cache's stored
    /// value wins. Every event counts one hit or one miss in
    /// [`Model::stats`]: a stored answer or a repeat within the call is
    /// a hit, an evaluated event a miss, exactly as on separate calls.
    /// Answers equal the tree walker [`Spe::logprob`] on the canonical
    /// event, bit for bit.
    ///
    /// # Errors
    ///
    /// The earliest failing event's error, under the same conditions as
    /// [`Spe::logprob`].
    ///
    /// ```
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let model = Model::new(f, x);
    /// let lps = model.logprob_many(&[var("X").le(0.0), var("X").gt(0.0)]).unwrap();
    /// assert_eq!(lps.len(), 2);
    /// ```
    pub fn logprob_many(&self, events: &[Event]) -> Result<Vec<f64>, SpplError> {
        let Inner {
            root, shared, memo, ..
        } = &*self.inner;
        let shared = shared.as_ref().map(|cache| (&**cache, self.model_digest()));
        let mut out = Vec::with_capacity(events.len());
        // This call's misses in order, their keys, and the first slot of
        // each key; `fills` maps output positions to those slots.
        let mut misses: Vec<Event> = Vec::new();
        let mut keys: Vec<Fingerprint> = Vec::new();
        let mut slots: HashMap<Fingerprint, usize> = HashMap::new();
        let mut fills: Vec<(usize, usize)> = Vec::new();
        let (mut hits, mut missed) = (0, 0);
        for event in events {
            let canonical = event.canonical();
            let key = canonical.fingerprint();
            if let Some(&slot) = slots.get(&key) {
                hits += 1;
                fills.push((out.len(), slot));
                out.push(f64::NAN);
            } else if let Some(value) = memo.get(shared, key) {
                hits += 1;
                out.push(value);
            } else {
                missed += 1;
                slots.insert(key, misses.len());
                fills.push((out.len(), misses.len()));
                out.push(f64::NAN);
                keys.push(key);
                misses.push(canonical);
            }
        }
        memo.count(hits, missed);
        if misses.is_empty() {
            return Ok(out);
        }
        let mut values = memo.arena(root).logprob_many(&misses)?;
        for (value, key) in values.iter_mut().zip(keys) {
            *value = memo.put(shared, key, *value);
        }
        for (at, slot) in fills {
            out[at] = values[slot];
        }
        Ok(out)
    }

    /// Batched [`Model::prob`] with the same clamping.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::logprob_many`].
    ///
    /// ```
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let model = Model::new(f, x);
    /// let ps = model.prob_many(&[var("X").le(0.0), var("X").gt(0.0)]).unwrap();
    /// assert!((ps[0] + ps[1] - 1.0).abs() < 1e-12);
    /// ```
    pub fn prob_many(&self, events: &[Event]) -> Result<Vec<f64>, SpplError> {
        Ok(self
            .logprob_many(events)?
            .into_iter()
            .map(|lp| lp.exp().clamp(0.0, 1.0))
            .collect())
    }

    /// Conditions the model on a positive-probability `event` (Thm. 4.1)
    /// and returns the posterior **as another `Model`** — the closure
    /// property, surfaced. The posterior shares this session's factory
    /// pointer-identically (one intern table, warm node-level memos) and
    /// inherits its [`SharedCache`] attachment, so a conditioning chain
    /// never cools the caches. Conditioning itself is memoized by the
    /// factory under (node, canonical event): a repeat is one lookup, and
    /// two posteriors conditioned on the same event share one underlying
    /// expression.
    ///
    /// # Errors
    ///
    /// Same conditions as [`condition`]; in particular
    /// [`SpplError::ZeroProbability`] when `P(event) = 0`.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let model = Model::new(f, x);
    /// let posterior = model.condition(&var("X").gt(0.0)).unwrap();
    /// assert!(Arc::ptr_eq(model.factory_arc(), posterior.factory_arc()));
    /// assert!((posterior.prob(&var("X").gt(0.0)).unwrap() - 1.0).abs() < 1e-9);
    /// ```
    pub fn condition(&self, event: &Event) -> Result<Model, SpplError> {
        self.condition_chain(std::slice::from_ref(event))
    }

    /// Sequentially conditions on each event in turn — the filtering
    /// workflow `S | e₁ | e₂ | …` — returning the final posterior as a
    /// `Model`. Each step is [`condition`] on the canonical event, whose
    /// factory memo answers a step already taken in one lookup, so
    /// extending an already-computed chain pays only for the new suffix.
    /// **Empty-chain semantics**: `condition_chain(&[])` is the identity
    /// — it returns a model over this session's own root (matching
    /// [`Event::and`]'s empty conjunction being trivially true).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::condition`].
    ///
    /// ```
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let model = Model::new(f, x);
    /// let chained = model
    ///     .condition_chain(&[var("X").gt(-1.0), var("X").lt(1.0)])
    ///     .unwrap();
    /// let joint = model
    ///     .condition(&(var("X").gt(-1.0) & var("X").lt(1.0)))
    ///     .unwrap();
    /// let probe = var("X").le(0.5);
    /// assert!((chained.prob(&probe).unwrap() - joint.prob(&probe).unwrap()).abs() < 1e-12);
    /// // The empty chain is the identity.
    /// assert!(model.condition_chain(&[]).unwrap().root().same(model.root()));
    /// ```
    pub fn condition_chain(&self, events: &[Event]) -> Result<Model, SpplError> {
        let posterior = events
            .iter()
            .try_fold(self.root().clone(), |current, event| {
                condition(self.factory(), &current, &event.canonical())
            })?;
        Ok(self.child(posterior))
    }

    /// Conditions on a conjunction of (possibly measure-zero) equality
    /// observations on base variables — the paper's `constrain` query
    /// (Lst. 7) — returning the posterior as a `Model` with the same
    /// factory/shared-cache inheritance as [`Model::condition`].
    ///
    /// # Errors
    ///
    /// Same conditions as the free [`constrain`] function.
    ///
    /// ```
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let y = f.leaf(
    ///     Var::new("Y"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let joint = f.product(vec![x, y]).unwrap();
    /// let model = Model::new(f, joint);
    /// let mut obs = Assignment::new();
    /// obs.insert(Var::new("X"), Outcome::Real(0.7));
    /// let posterior = model.constrain(&obs).unwrap();
    /// // X is observed; Y's marginal is untouched.
    /// assert!((posterior.prob(&var("Y").le(0.0)).unwrap() - 0.5).abs() < 1e-12);
    /// ```
    pub fn constrain(&self, assignment: &Assignment) -> Result<Model, SpplError> {
        Ok(self.child(constrain(self.factory(), self.root(), assignment)?))
    }

    /// Draws one joint ancestral sample of every variable in scope
    /// (Prop. A.1).
    ///
    /// ```
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let model = Model::new(f, x);
    /// let mut rng = StdRng::seed_from_u64(1);
    /// assert!(model.sample(&mut rng).real(&Var::new("X")).is_some());
    /// ```
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Sample {
        self.root().sample(rng)
    }

    /// Draws `n` independent joint samples.
    ///
    /// ```
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let model = Model::new(f, x);
    /// let mut rng = StdRng::seed_from_u64(1);
    /// assert_eq!(model.sample_many(&mut rng, 3).len(), 3);
    /// ```
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Sample> {
        self.root().sample_many(rng, n)
    }

    /// Query statistics for this session: a hit for every event its one
    /// result store (or an earlier event of the same call) answered, a
    /// miss for every event evaluated, and the entries of its own map —
    /// zero when a [`SharedCache`] is attached, which keeps the answers
    /// instead. Shared by all clones of this handle, *not* by posteriors
    /// — each posterior model has its own. Conditioning is counted by the
    /// factory: see [`Factory::cond_cache_stats`], and
    /// [`Factory::prob_cache_stats`] for the node-level probability
    /// table; for the cross-session layer, see [`SharedCache::stats`].
    pub fn stats(&self) -> CacheStats {
        self.inner.memo.stats()
    }

    /// Clears this session's own map and statistics and the shared
    /// factory's node-level memos, to release memory: every entry is a
    /// pure value, so no answer changes. Sibling sessions and posteriors
    /// over the same factory keep their own maps. An attached
    /// [`SharedCache`] is not touched — its entries are shared with
    /// other sessions; clear it explicitly via [`SharedCache::clear`] if
    /// the memory must go.
    pub fn clear_caches(&self) {
        self.inner.factory.clear_caches();
        self.inner.memo.clear();
    }

    /// A posterior session over `root`, sharing this session's factory
    /// and shared-cache attachment.
    fn child(&self, root: Spe) -> Model {
        Model::session(
            Arc::clone(&self.inner.factory),
            root,
            self.inner.shared.clone(),
        )
    }
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model")
            .field("scope", &self.root().scope())
            .field("stats", &self.stats())
            .field("shared_cache", &self.shared_cache().is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::var;
    use sppl_dists::{Cdf, DistReal, Distribution};
    use sppl_num::float::approx_eq;
    use sppl_sets::Interval;

    fn normal(f: &Factory, name: &str, mu: f64) -> Spe {
        f.leaf(
            crate::var::Var::new(name),
            Distribution::Real(DistReal::new(Cdf::normal(mu, 1.0), Interval::all()).unwrap()),
        )
    }

    fn xy_model() -> Model {
        let f = Factory::new();
        let p = f
            .product(vec![normal(&f, "X", 0.0), normal(&f, "Y", 0.0)])
            .unwrap();
        Model::new(f, p)
    }

    #[test]
    fn model_is_send_sync_clone() {
        fn assert_bounds<T: Send + Sync + Clone>() {}
        assert_bounds::<Model>();
    }

    #[test]
    fn clones_share_engine_caches() {
        let model = xy_model();
        let clone = model.clone();
        let e = var("X").le(0.0);
        model.prob(&e).unwrap();
        let stats = clone.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        clone.prob(&e).unwrap();
        assert_eq!(model.stats().hits, 1, "clone's query must hit the cache");
    }

    #[test]
    fn posterior_shares_factory_pointer() {
        let model = xy_model();
        let posterior = model.condition(&var("X").le(0.0)).unwrap();
        assert!(Arc::ptr_eq(model.factory_arc(), posterior.factory_arc()));
        let deeper = posterior.condition(&var("Y").le(0.0)).unwrap();
        assert!(Arc::ptr_eq(model.factory_arc(), deeper.factory_arc()));
    }

    #[test]
    fn condition_matches_bayes() {
        let model = xy_model();
        let e = var("X").le(0.0) & var("Y").le(0.0);
        let posterior = model.condition(&var("X").le(0.0)).unwrap();
        // P(Y ≤ 0 | X ≤ 0) = P(X ≤ 0 ∧ Y ≤ 0) / P(X ≤ 0).
        let lhs = posterior.prob(&var("Y").le(0.0)).unwrap();
        let rhs = model.prob(&e).unwrap() / model.prob(&var("X").le(0.0)).unwrap();
        assert!(approx_eq(lhs, rhs, 1e-12));
    }

    #[test]
    fn repeated_conditioning_reuses_memoized_posterior() {
        let model = xy_model();
        let e = var("X").le(0.0);
        let a = model.condition(&e).unwrap();
        let b = model.condition(&e).unwrap();
        assert!(
            a.root().same(b.root()),
            "memoized conditioning must hand both posteriors one expression"
        );
        assert_eq!(a.model_digest(), b.model_digest());
    }

    #[test]
    fn posterior_digest_differs_from_parent() {
        let model = xy_model();
        let posterior = model.condition(&var("X").le(0.0)).unwrap();
        assert_ne!(
            model.model_digest(),
            posterior.model_digest(),
            "distinct distributions must key the shared cache distinctly"
        );
    }

    #[test]
    fn shared_cache_inherited_by_posteriors() {
        let cache = Arc::new(SharedCache::new(64));
        let model = xy_model().with_shared_cache(Arc::clone(&cache));
        let posterior = model.condition(&var("X").le(0.0)).unwrap();
        assert!(posterior.shared_cache().is_some());
        posterior.prob(&var("Y").le(0.0)).unwrap();
        // The posterior's query landed in the shared cache under its own
        // digest.
        assert!(cache.stats().entries >= 1);
    }

    #[test]
    fn zero_probability_condition_errors() {
        let model = xy_model();
        let impossible = var("X").pow_int(2).lt(0.0);
        assert!(matches!(
            model.condition(&impossible),
            Err(SpplError::ZeroProbability { .. })
        ));
    }

    #[test]
    fn empty_condition_chain_is_identity() {
        let model = xy_model();
        let same = model.condition_chain(&[]).unwrap();
        assert!(same.root().same(model.root()));
        assert!(Arc::ptr_eq(model.factory_arc(), same.factory_arc()));
    }

    #[test]
    fn debug_is_informative() {
        let model = xy_model();
        let s = format!("{model:?}");
        assert!(s.contains("Model") && s.contains("scope"));
    }
}
