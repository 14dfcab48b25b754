//! Query dispatch: request coalescing (singleflight) layered under
//! batching windows, plus a windowless path for batched requests.
//!
//! Three mechanisms turn concurrent wire traffic into fewer, larger
//! evaluations without changing a single answered bit:
//!
//! 1. **Coalescing.** Every in-flight query owns a *slot* keyed by
//!    [`QueryKey`] — the same `(model digest, canonical event
//!    fingerprint)` pair that keys the
//!    [`SharedCache`](sppl_core::SharedCache). A query arriving while an
//!    identical one is already in flight parks on that slot (condvar)
//!    instead of evaluating, and the one result fans back out to every
//!    waiter. The `coalesced` counter in `stats` counts the parked
//!    queries.
//! 2. **Batching windows** (single queries). The first query to arrive
//!    while no window is open becomes the *window leader*: it waits out
//!    a short window (bounded by `max_batch`), takes everything that
//!    accumulated, groups it by model, and answers each group with one
//!    [`logprob_many`](sppl_core::Model::logprob_many) call — the
//!    model's one query route, whose misses share a single batched
//!    arena pass, so a window feeds the evaluator the wide inputs single
//!    queries never could. Followers simply park on their slots.
//! 3. **Batched requests.** A request that brings its own events
//!    ([`Dispatcher::logprob_many`]) has nothing to wait for: each
//!    distinct event is probed and claimed (or coalesced) like a single
//!    query, the request's own misses are evaluated at once as one
//!    batch, and only then does it park on slots owned by other
//!    requests. A request never waits while holding unevaluated slots,
//!    so no wait cycle can form.
//!
//! Bit-identity holds by construction: `logprob_many` answers each event
//! exactly as a per-event [`logprob`](sppl_core::Model::logprob) call
//! would (same route, same [`SharedCache`] keys), `prob` is
//! derived from the coalesced log-probability by exactly the
//! `exp().clamp(0.0, 1.0)` the model applies, and a batch-level error
//! falls back to per-event evaluation so each waiter sees precisely the
//! `Result` a direct call would produce.
//!
//! [`SharedCache`]: sppl_core::SharedCache

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use sppl_core::{Event, Model, SpplError};

use crate::protocol::{batch_hist_bucket, query_key, QueryKey};

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Monotonic serve-layer counters, shared between the dispatcher and the
/// server's `stats` op. All counters are cumulative since startup.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Requests decoded (including ones that later failed).
    pub requests: AtomicU64,
    /// Error responses sent.
    pub errors: AtomicU64,
    /// Queries that parked on another request's in-flight slot (a
    /// repeat within one batched request is not counted).
    pub coalesced: AtomicU64,
    /// Batches evaluated: one per batching window of single queries,
    /// plus one per batched request that had misses of its own.
    pub batches: AtomicU64,
    /// Queries evaluated in those batches: a window's queries, or a
    /// batched request's distinct misses (shared-cache hits and
    /// coalesced events are not evaluated, so not counted).
    pub batched_queries: AtomicU64,
    /// Largest batch any one window or batched request evaluated.
    pub max_batch: AtomicU64,
    /// Batches per batch-size bucket (see
    /// [`BATCH_HIST_BUCKETS`](crate::protocol::BATCH_HIST_BUCKETS)).
    pub batch_hist: [AtomicU64; 7],
    /// Background snapshot saves completed.
    pub snapshot_saves: AtomicU64,
    /// Same-model groups of two or more events, from a window or a
    /// batched request, answered by one [`Model::logprob_many`] call
    /// (one batched pass over their misses).
    pub arena_batches: AtomicU64,
}

impl ServeCounters {
    /// Fresh zeroed counters.
    pub fn new() -> ServeCounters {
        ServeCounters::default()
    }

    /// The batch histogram as plain values.
    pub fn hist_values(&self) -> [u64; 7] {
        let mut out = [0u64; 7];
        for (slot, counter) in out.iter_mut().zip(self.batch_hist.iter()) {
            *slot = counter.load(Ordering::Relaxed);
        }
        out
    }
}

/// One in-flight evaluation: waiters park on `ready` until `result` is
/// set by whoever evaluates the key.
struct Slot {
    result: Mutex<Option<Result<f64, SpplError>>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn complete(&self, result: Result<f64, SpplError>) {
        let mut guard = lock(&self.result);
        if guard.is_none() {
            *guard = Some(result);
        }
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<f64, SpplError> {
        let mut guard = lock(&self.result);
        loop {
            if let Some(result) = guard.as_ref() {
                return result.clone();
            }
            guard = self
                .ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Where a query's answer comes from, decided on arrival.
enum Claim {
    /// A finished evaluation, found in the shared cache.
    Cached(f64),
    /// Another request's in-flight evaluation of the same key.
    Coalesced(Arc<Slot>),
    /// A fresh slot this caller owns and must see evaluated.
    Owned(Arc<Slot>),
}

impl Claim {
    /// The answer; blocks until the slot's evaluation completes.
    fn wait(&self) -> Result<f64, SpplError> {
        match self {
            Claim::Cached(value) => Ok(*value),
            Claim::Coalesced(slot) | Claim::Owned(slot) => slot.wait(),
        }
    }
}

/// One enqueued query awaiting a batching window.
struct Pending {
    key: QueryKey,
    model: Arc<Model>,
    event: Event,
    slot: Arc<Slot>,
}

struct Window {
    pending: Vec<Pending>,
    leader_active: bool,
}

/// The dispatcher: coalesces identical in-flight queries and merges
/// distinct ones into batched evaluations.
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use sppl_analyze::compile_model;
/// use sppl_core::{var, SharedCache};
/// use sppl_serve::dispatch::Dispatcher;
///
/// let cache = Arc::new(SharedCache::new(1024));
/// let model = Arc::new(
///     compile_model("X ~ normal(0, 1)").unwrap().with_shared_cache(Arc::clone(&cache)),
/// );
/// let dispatcher = Dispatcher::new(Duration::from_micros(200), 32);
/// let event = var("X").le(0.5);
/// let served = dispatcher.logprob(&model, &event).unwrap();
/// assert_eq!(served.to_bits(), model.logprob(&event).unwrap().to_bits());
///
/// // A batched request skips the window and is evaluated whole.
/// let events = [var("X").le(-1.0), var("X").gt(2.0), event];
/// let served = dispatcher.logprob_many(&model, &events).unwrap();
/// let direct = model.logprob_many(&events).unwrap();
/// assert!(served.iter().zip(&direct).all(|(s, d)| s.to_bits() == d.to_bits()));
/// ```
pub struct Dispatcher {
    slots: Mutex<HashMap<QueryKey, Arc<Slot>>>,
    window: Mutex<Window>,
    arrivals: Condvar,
    window_len: Duration,
    max_batch: usize,
    counters: Arc<ServeCounters>,
}

impl Dispatcher {
    /// A dispatcher whose windows of single queries stay open for
    /// `window_len` or until `max_batch` queries accumulate, whichever
    /// is first. The leader closes its window before evaluating, so a
    /// query arriving during that evaluation leads a window of its own.
    /// A zero `window_len` therefore evaluates every single query alone
    /// (identical in-flight queries still coalesce). Batched requests
    /// ([`Dispatcher::logprob_many`]) use neither setting: each is
    /// evaluated whole.
    pub fn new(window_len: Duration, max_batch: usize) -> Dispatcher {
        Dispatcher::with_counters(window_len, max_batch, Arc::new(ServeCounters::new()))
    }

    /// Like [`Dispatcher::new`], sharing externally owned counters.
    pub fn with_counters(
        window_len: Duration,
        max_batch: usize,
        counters: Arc<ServeCounters>,
    ) -> Dispatcher {
        Dispatcher {
            slots: Mutex::new(HashMap::new()),
            window: Mutex::new(Window {
                pending: Vec::new(),
                leader_active: false,
            }),
            arrivals: Condvar::new(),
            window_len,
            max_batch: max_batch.max(1),
            counters,
        }
    }

    /// The shared counters.
    pub fn counters(&self) -> &Arc<ServeCounters> {
        &self.counters
    }

    /// The log-probability of `event` under `model`, served through the
    /// coalescing and batching layers. Bit-identical to
    /// [`Model::logprob`].
    ///
    /// # Errors
    ///
    /// Exactly the [`SpplError`] the direct call would produce.
    pub fn logprob(&self, model: &Arc<Model>, event: &Event) -> Result<f64, SpplError> {
        let key = query_key(model.model_digest(), event);
        let claim = self.claim(model, key);
        if let Claim::Owned(slot) = &claim {
            self.enqueue(Pending {
                key,
                model: Arc::clone(model),
                event: event.clone(),
                slot: Arc::clone(slot),
            });
        }
        claim.wait()
    }

    /// The probability of `event` under `model`: the coalesced
    /// log-probability pushed through the engine's own
    /// `exp().clamp(0.0, 1.0)`, hence bit-identical to
    /// [`Model::prob`].
    ///
    /// # Errors
    ///
    /// Exactly the [`SpplError`] the direct call would produce.
    pub fn prob(&self, model: &Arc<Model>, event: &Event) -> Result<f64, SpplError> {
        Ok(self.logprob(model, event)?.exp().clamp(0.0, 1.0))
    }

    /// The log-probability of every event of one batched request under
    /// `model`, bit-identical to [`Model::logprob_many`]. No window:
    /// each distinct event is answered from the shared cache, coalesced
    /// onto another request's in-flight evaluation, or claimed; the
    /// claimed misses are evaluated at once as one batch, and only then
    /// does the request wait on the evaluations it coalesced onto. A
    /// repeat within the request shares its first occurrence's answer.
    ///
    /// # Errors
    ///
    /// The earliest failing event's error, exactly as
    /// [`Model::logprob_many`] (and a per-event [`Model::logprob`] on
    /// that event) would produce it.
    pub fn logprob_many(
        &self,
        model: &Arc<Model>,
        events: &[Event],
    ) -> Result<Vec<f64>, SpplError> {
        let digest = model.model_digest();
        // One claim per distinct key; `at` maps each event to its claim.
        let mut firsts: HashMap<QueryKey, usize> = HashMap::new();
        let mut claims: Vec<Claim> = Vec::new();
        let mut at = Vec::with_capacity(events.len());
        let mut owned = Vec::new();
        for event in events {
            let key = query_key(digest, event);
            let next = claims.len();
            let index = *firsts.entry(key).or_insert(next);
            at.push(index);
            if index < next {
                continue;
            }
            let claim = self.claim(model, key);
            if let Claim::Owned(slot) = &claim {
                owned.push(Pending {
                    key,
                    model: Arc::clone(model),
                    event: event.clone(),
                    slot: Arc::clone(slot),
                });
            }
            claims.push(claim);
        }
        self.execute(owned);
        let answers: Vec<Result<f64, SpplError>> = claims.iter().map(Claim::wait).collect();
        at.into_iter().map(|i| answers[i].clone()).collect()
    }

    /// Batched [`Dispatcher::prob`]: [`Dispatcher::logprob_many`] with
    /// the engine's own clamping, hence bit-identical to
    /// [`Model::prob_many`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Dispatcher::logprob_many`].
    pub fn prob_many(&self, model: &Arc<Model>, events: &[Event]) -> Result<Vec<f64>, SpplError> {
        Ok(self
            .logprob_many(model, events)?
            .into_iter()
            .map(|lp| lp.exp().clamp(0.0, 1.0))
            .collect())
    }

    /// Decides where `key`'s answer comes from. A finished evaluation in
    /// the shared cache answers at once (`probe` records no miss — the
    /// evaluation behind a slot does); otherwise the caller coalesces
    /// onto the key's in-flight slot or owns a fresh one.
    fn claim(&self, model: &Model, key: QueryKey) -> Claim {
        if let Some(value) = model
            .shared_cache()
            .and_then(|cache| cache.probe(key.0, key.1))
        {
            return Claim::Cached(value);
        }
        let mut slots = lock(&self.slots);
        if let Some(slot) = slots.get(&key) {
            self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
            return Claim::Coalesced(Arc::clone(slot));
        }
        let slot = Arc::new(Slot::new());
        slots.insert(key, Arc::clone(&slot));
        Claim::Owned(slot)
    }

    fn enqueue(&self, pending: Pending) {
        let mut window = lock(&self.window);
        window.pending.push(pending);
        if window.leader_active {
            if window.pending.len() >= self.max_batch {
                self.arrivals.notify_all();
            }
            return;
        }
        window.leader_active = true;
        self.lead_window(window);
    }

    /// Runs one batching window to completion; the calling thread is the
    /// leader and holds the window lock on entry.
    fn lead_window(&self, mut window: MutexGuard<'_, Window>) {
        let deadline = Instant::now() + self.window_len;
        loop {
            if window.pending.len() >= self.max_batch {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            window = self
                .arrivals
                .wait_timeout(window, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        let batch = std::mem::take(&mut window.pending);
        window.leader_active = false;
        drop(window);
        self.execute(batch);
    }

    /// Evaluates one batch (a window's queries, or a batched request's
    /// own misses), grouped by model, and completes every slot. Every
    /// pending query is completed even if an evaluation panics (the drop
    /// guard answers the rest with an internal error rather than leaving
    /// waiters parked forever).
    fn execute(&self, batch: Vec<Pending>) {
        if batch.is_empty() {
            return;
        }
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .batched_queries
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.counters
            .max_batch
            .fetch_max(batch.len() as u64, Ordering::Relaxed);
        self.counters.batch_hist[batch_hist_bucket(batch.len())].fetch_add(1, Ordering::Relaxed);

        let guard = FlushGuard {
            dispatcher: self,
            remaining: batch,
        };
        // Group by model digest, preserving arrival order within groups.
        // Indices into `guard.remaining` so the guard keeps ownership.
        let mut groups: Vec<(Vec<usize>, Arc<Model>)> = Vec::new();
        for (i, p) in guard.remaining.iter().enumerate() {
            match groups.iter_mut().find(|(_, m)| m.model_digest() == p.key.0) {
                Some((indices, _)) => indices.push(i),
                None => groups.push((vec![i], Arc::clone(&p.model))),
            }
        }
        for (indices, model) in groups {
            let events: Vec<Event> = indices
                .iter()
                .map(|&i| guard.remaining[i].event.clone())
                .collect();
            let results = self.evaluate_group(&model, &events);
            for (&i, result) in indices.iter().zip(results) {
                guard.finish(i, result);
            }
        }
        guard.flush_rest_ok();
    }

    /// Evaluates one same-model group with one [`Model::logprob_many`]
    /// call. On a batch-level error, re-evaluate per event so each query
    /// gets its own precise `Result`.
    fn evaluate_group(&self, model: &Arc<Model>, events: &[Event]) -> Vec<Result<f64, SpplError>> {
        match model.logprob_many(events) {
            Ok(values) => {
                if events.len() > 1 {
                    self.counters.arena_batches.fetch_add(1, Ordering::Relaxed);
                }
                values.into_iter().map(Ok).collect()
            }
            Err(err) if events.len() == 1 => vec![Err(err)],
            Err(_) => events.iter().map(|e| model.logprob(e)).collect(),
        }
    }

    /// Removes the key's slot (so later arrivals hit the now-warm cache
    /// instead of a dead slot) and wakes every waiter.
    fn finish_pending(&self, pending: &Pending, result: Result<f64, SpplError>) {
        lock(&self.slots).remove(&pending.key);
        pending.slot.complete(result);
    }
}

/// Completes any not-yet-finished pending queries on drop, so a panic in
/// an evaluation path cannot strand parked waiters.
struct FlushGuard<'a> {
    dispatcher: &'a Dispatcher,
    remaining: Vec<Pending>,
}

impl FlushGuard<'_> {
    fn finish(&self, index: usize, result: Result<f64, SpplError>) {
        self.dispatcher
            .finish_pending(&self.remaining[index], result);
    }

    fn flush_rest_ok(mut self) {
        self.remaining.clear();
    }
}

impl Drop for FlushGuard<'_> {
    fn drop(&mut self) {
        for pending in self.remaining.drain(..) {
            self.dispatcher.finish_pending(
                &pending,
                Err(SpplError::Internal {
                    message: "batched evaluation aborted".to_string(),
                }),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sppl_analyze::compile_model;
    use sppl_core::{var, SharedCache};
    use std::sync::Barrier;

    fn model_with_cache(capacity: usize) -> (Arc<Model>, Arc<SharedCache>) {
        let cache = Arc::new(SharedCache::new(capacity));
        let model = compile_model("X ~ normal(0, 1)\nY ~ bernoulli(p=0.5)")
            .unwrap()
            .with_shared_cache(Arc::clone(&cache));
        (Arc::new(model), cache)
    }

    #[test]
    fn single_query_matches_direct_call() {
        let (served, _) = model_with_cache(256);
        let direct = Arc::new(compile_model("X ~ normal(0, 1)\nY ~ bernoulli(p=0.5)").unwrap());
        let dispatcher = Dispatcher::new(Duration::from_micros(100), 8);
        for event in [
            var("X").le(0.25),
            var("X").gt(1.5),
            var("Y").eq(1.0),
            var("X").le(0.25) & var("Y").eq(0.0),
        ] {
            let got = dispatcher.logprob(&served, &event).unwrap();
            let want = direct.logprob(&event).unwrap();
            assert_eq!(got.to_bits(), want.to_bits());
            let got_p = dispatcher.prob(&served, &event).unwrap();
            let want_p = direct.prob(&event).unwrap();
            assert_eq!(got_p.to_bits(), want_p.to_bits());
        }
    }

    #[test]
    fn racing_identical_queries_evaluate_once() {
        let (model, cache) = model_with_cache(256);
        // A long window so every racer lands in one in-flight evaluation.
        let dispatcher = Arc::new(Dispatcher::new(Duration::from_millis(150), 64));
        let n = 8;
        let barrier = Arc::new(Barrier::new(n));
        let event = var("X").le(0.125);
        let results: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    let dispatcher = Arc::clone(&dispatcher);
                    let model = Arc::clone(&model);
                    let barrier = Arc::clone(&barrier);
                    let event = event.clone();
                    scope.spawn(move || {
                        barrier.wait();
                        dispatcher.logprob(&model, &event).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let first = results[0];
        assert!(results.iter().all(|r| r.to_bits() == first.to_bits()));
        // Exactly one underlying evaluation: one shared-cache miss, and
        // every other racer either coalesced onto the slot or hit the
        // now-warm cache.
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "exactly one evaluation expected");
        let coalesced = dispatcher.counters().coalesced.load(Ordering::Relaxed);
        assert!(coalesced >= 1, "contended load must coalesce");
        // Every racer is a window leader (at least one), coalesced onto
        // the slot, or served by the now-warm cache.
        assert!(
            coalesced + stats.hits < n as u64,
            "leaders are counted in neither tally"
        );
    }

    #[test]
    fn distinct_queries_share_a_window() {
        let (model, _) = model_with_cache(256);
        let dispatcher = Arc::new(Dispatcher::new(Duration::from_millis(150), 64));
        let n = 6;
        let barrier = Arc::new(Barrier::new(n));
        let direct = Arc::new(compile_model("X ~ normal(0, 1)\nY ~ bernoulli(p=0.5)").unwrap());
        std::thread::scope(|scope| {
            for i in 0..n {
                let dispatcher = Arc::clone(&dispatcher);
                let model = Arc::clone(&model);
                let direct = Arc::clone(&direct);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let event = var("X").le(i as f64 / 4.0);
                    barrier.wait();
                    let got = dispatcher.logprob(&model, &event).unwrap();
                    let want = direct.logprob(&event).unwrap();
                    assert_eq!(got.to_bits(), want.to_bits());
                });
            }
        });
        let counters = dispatcher.counters();
        assert_eq!(counters.batched_queries.load(Ordering::Relaxed), n as u64);
        // All six distinct queries land within the 150 ms window, so far
        // fewer windows than queries run (usually exactly one).
        assert!(counters.batches.load(Ordering::Relaxed) < n as u64);
        assert!(counters.max_batch.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn errors_fan_out_to_every_waiter() {
        let (model, _) = model_with_cache(256);
        let dispatcher = Arc::new(Dispatcher::new(Duration::from_millis(100), 64));
        let n = 4;
        let barrier = Arc::new(Barrier::new(n));
        let event = var("Z").le(0.5); // Z is not in scope.
        std::thread::scope(|scope| {
            for _ in 0..n {
                let dispatcher = Arc::clone(&dispatcher);
                let model = Arc::clone(&model);
                let barrier = Arc::clone(&barrier);
                let event = event.clone();
                scope.spawn(move || {
                    barrier.wait();
                    let got = dispatcher.logprob(&model, &event);
                    let want = model.logprob(&event);
                    assert_eq!(got, want);
                    assert!(got.is_err());
                });
            }
        });
    }

    #[test]
    fn batched_request_evaluates_each_distinct_key_once() {
        let (model, cache) = model_with_cache(256);
        let direct = compile_model("X ~ normal(0, 1)\nY ~ bernoulli(p=0.5)").unwrap();
        // A window closes only when it holds two queries, so the single
        // query stays in flight until the test releases it.
        let dispatcher = Dispatcher::new(Duration::from_secs(600), 2);
        let counters = dispatcher.counters();
        let in_flight = var("X").gt(0.75);
        let release = var("X").gt(1.5);
        let (a, b, c) = (var("X").le(-0.5), var("Y").eq(1.0), var("X").le(0.25));
        let batch = [
            a.clone(),
            b.clone(),
            a,
            in_flight.clone(),
            c,
            b,
            in_flight.clone(),
        ];
        let key = query_key(model.model_digest(), &in_flight);
        let (single, served) = std::thread::scope(|scope| {
            let single = scope.spawn(|| dispatcher.logprob(&model, &in_flight).unwrap());
            while !lock(&dispatcher.slots).contains_key(&key) {
                std::thread::yield_now();
            }
            let batched = scope.spawn(|| dispatcher.logprob_many(&model, &batch).unwrap());
            // Once the batch has coalesced onto the single's slot, a
            // second single query fills the window and releases both.
            while counters.coalesced.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            dispatcher.logprob(&model, &release).unwrap();
            (single.join().unwrap(), batched.join().unwrap())
        });
        let want = direct.logprob_many(&batch).unwrap();
        assert_eq!(served.len(), batch.len());
        for (got, want) in served.iter().zip(&want) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        assert_eq!(single.to_bits(), want[3].to_bits());
        // One evaluation per distinct key: a, b, c, the in-flight one and
        // the release.
        assert_eq!(cache.stats().misses, 5);
        // Only the in-flight key coalesced; repeats within the batch are
        // answered from their first occurrence.
        assert_eq!(counters.coalesced.load(Ordering::Relaxed), 1);
        // The batch's three misses in one call, and the window of two.
        assert_eq!(counters.batches.load(Ordering::Relaxed), 2);
        assert_eq!(counters.batched_queries.load(Ordering::Relaxed), 5);
        assert_eq!(counters.max_batch.load(Ordering::Relaxed), 3);
        assert_eq!(counters.arena_batches.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn batched_prob_and_logprob_match_model_many() {
        let (model, _) = model_with_cache(256);
        let direct = compile_model("X ~ normal(0, 1)\nY ~ bernoulli(p=0.5)").unwrap();
        let dispatcher = Dispatcher::new(Duration::from_millis(100), 8);
        let events: Vec<Event> = (0..12)
            .map(|i| var("X").le(i as f64 / 3.0 - 2.0))
            .chain([var("Y").eq(0.0), var("X").gt(1.0) | var("Y").eq(1.0)])
            .collect();
        let got = dispatcher.prob_many(&model, &events).unwrap();
        let want = direct.prob_many(&events).unwrap();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
        // Asked again, every answer is a shared-cache hit, same bits.
        let got = dispatcher.logprob_many(&model, &events).unwrap();
        let want = direct.logprob_many(&events).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
        assert_eq!(dispatcher.counters().batches.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn crossing_batched_requests_do_not_deadlock() {
        let (model, cache) = model_with_cache(1024);
        let direct = compile_model("X ~ normal(0, 1)\nY ~ bernoulli(p=0.5)").unwrap();
        let dispatcher = Dispatcher::new(Duration::from_millis(50), 64);
        let events: Vec<Event> = (0..12).map(|i| var("X").le(i as f64 / 4.0 - 1.5)).collect();
        let want = direct.logprob_many(&events).unwrap();
        let n = 4;
        let barrier = Barrier::new(n);
        std::thread::scope(|scope| {
            for t in 0..n {
                let (dispatcher, model, barrier) = (&dispatcher, &model, &barrier);
                let (events, want) = (&events, &want);
                scope.spawn(move || {
                    // Each request asks the same keys in a different
                    // order, so requests can coalesce onto one another's
                    // slots in both directions.
                    let mut order: Vec<usize> = (0..events.len()).collect();
                    order.rotate_left(t * 3);
                    if t % 2 == 1 {
                        order.reverse();
                    }
                    let batch: Vec<Event> = order.iter().map(|&i| events[i].clone()).collect();
                    barrier.wait();
                    let got = dispatcher.logprob_many(model, &batch).unwrap();
                    for (&i, g) in order.iter().zip(&got) {
                        assert_eq!(g.to_bits(), want[i].to_bits());
                    }
                });
            }
        });
        assert_eq!(cache.stats().misses, events.len() as u64);
    }

    #[test]
    fn zero_window_still_answers() {
        let (model, _) = model_with_cache(256);
        let dispatcher = Dispatcher::new(Duration::ZERO, 4);
        let event = var("X").gt(0.0);
        let direct = compile_model("X ~ normal(0, 1)\nY ~ bernoulli(p=0.5)").unwrap();
        let got = dispatcher.logprob(&model, &event).unwrap();
        assert_eq!(got.to_bits(), direct.logprob(&event).unwrap().to_bits());
    }
}
