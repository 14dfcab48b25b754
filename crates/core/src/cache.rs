//! A bounded, sharded, persistable LRU cache for whole-query results —
//! the cross-session (and, via snapshots, cross-*process*) store that an
//! attached [`Model`](crate::model::Model) keeps its answers in, in place
//! of a map of its own.
//!
//! A serving deployment answers queries against the same compiled model
//! from many sessions: each session may have its own
//! [`Factory`](crate::spe::Factory), but the hot query working set is
//! shared. The [`SharedCache`] is one process-wide table keyed by
//! `(`[`ModelDigest`]`, `[`Fingerprint`]`)` —
//! [`Spe::digest`](crate::spe::Spe::digest) is a deep, *versioned*
//! content digest (see [`crate::digest`]), so sessions over separately
//! compiled copies of the same model hit the same entries, in this
//! process or the next one. Capacity is bounded with least-recently-used
//! eviction, and hit/miss/eviction counts are exposed for monitoring.
//!
//! # Sharding
//!
//! The table is split into a fixed number of independent shards
//! (currently 16) selected by key hash, each an exact LRU under its own
//! mutex. Recency bookkeeping makes even `get` a write, and every query
//! of an attached session lands here, so a single-mutex design would
//! serialize a many-core fan-out. With sharding, concurrent lookups
//! contend only when their keys collide on a shard. Global recency across shards is *approximate*: when the
//! cache is over capacity, a round-robin eviction clock walks the shards
//! and evicts the victim shard's least-recently-used entry, so eviction
//! pressure spreads evenly and an entry's survival time approximates
//! global LRU without any cross-shard ordering. Within one shard,
//! eviction order is exact LRU.
//!
//! [`CacheStats`] returned by [`SharedCache::stats`] (and the eviction
//! counter) are **aggregated across all shards** — one hit/miss/entry
//! count for the whole cache, not per shard.
//!
//! # Persistence
//!
//! [`SharedCache::save_snapshot`] writes every entry to a small
//! versioned, length-prefixed binary file through [`crate::store`], and
//! [`SharedCache::load_snapshot`] reads one back — typically at process
//! start, so a serving process restarts *warm*: queries whose `(model
//! digest, fingerprint)` keys were computed by the previous process are
//! answered from the snapshot without touching the evaluator. This is
//! sound precisely because both key halves are versioned content hashes:
//! a model recompiled from the same source in the new process has the
//! same digest bit for bit. The envelope carries
//! [`DIGEST_VERSION`]; a snapshot written
//! under a different encoding scheme (or a corrupted file) is rejected
//! with [`SpplError::Snapshot`] and the cache stays as it was — a
//! version mismatch loads as *empty*, never as wrong answers. See
//! [Snapshot format](#snapshot-format).
//!
//! Entries are pure values (`ln P⟦S⟧ e` is a function of the model content
//! and the event alone), so there is no invalidation protocol: neither
//! [`Factory::clear_caches`](crate::spe::Factory::clear_caches) nor
//! [`Model::clear_caches`](crate::model::Model::clear_caches) touches a
//! shared cache, and [`SharedCache::clear`] exists only to release
//! memory.
//!
//! Since sum-child evaluation order became content-canonical (see
//! [`Factory::sum`](crate::spe::Factory::sum)), separately compiled
//! copies of one model produce bit-identical answers on their own; the
//! cache no longer papers over any last-ulp divergence — sharing now
//! buys only speed, and first-write-wins insertion (see
//! [`SharedCache::insert`]) is retained as defense in depth.
//!
//! # Snapshot format
//!
//! All integers little-endian. The file is a [`crate::store`] envelope
//! (magic, both versions, trailing checksum) around the entry count and
//! the records:
//!
//! ```text
//! magic          8 bytes   b"SPPLSNAP"                           (envelope)
//! format version u32       SNAPSHOT_FORMAT_VERSION (currently 1) (envelope)
//! digest version u32       DIGEST_VERSION of the writing build   (envelope)
//! entry count    u64       number of 40-byte records that follow
//! records        40 bytes each:
//!     model digest   16 bytes  ModelDigest::to_le_bytes
//!     fingerprint    16 bytes  Fingerprint::to_le_bytes
//!     value          8 bytes   f64::to_bits of the log-probability
//! checksum       16 bytes   keyed Sip128 over everything before it (envelope)
//! ```
//!
//! A reader rejects (with [`SpplError::Snapshot`]) any file the envelope
//! refuses (another magic or version, a checksum mismatch, so a bit flip
//! in a stored *value* is caught, not loaded as a wrong probability),
//! whose length disagrees with the entry count, or whose values include
//! a NaN.
//! Records are written least-recently-used first, so a sequential
//! reload approximately reproduces recency.
//!
//! [`DIGEST_VERSION`]: crate::digest::DIGEST_VERSION
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use sppl_core::prelude::*;
//!
//! let cache = Arc::new(SharedCache::new(1024));
//! let build = || {
//!     let f = Factory::new();
//!     let x = f.leaf(
//!         Var::new("X"),
//!         Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
//!     );
//!     Model::new(f, x).with_shared_cache(Arc::clone(&cache))
//! };
//! let (a, b) = (build(), build()); // two sessions, two factories
//! let e = Event::le(Transform::id(Var::new("X")), 0.0);
//! a.logprob(&e).unwrap();
//! b.logprob(&e).unwrap(); // answered from the shared cache
//! assert_eq!(cache.stats().hits, 1);
//!
//! // Persist the warm state and restore it into a fresh cache (in a real
//! // deployment: a fresh *process*).
//! let path = std::env::temp_dir().join(format!("sppl-doc-snap-{}.bin", std::process::id()));
//! cache.save_snapshot(&path).unwrap();
//! let restored = Arc::new(SharedCache::new(1024));
//! assert_eq!(restored.load_snapshot(&path).unwrap(), 1);
//! let c = Model::new(Factory::new(), build().root().clone())
//!     .with_shared_cache(Arc::clone(&restored));
//! c.logprob(&e).unwrap(); // pure hit: no evaluator work in this "process"
//! assert_eq!(restored.stats(), CacheStats { hits: 1, misses: 0, entries: 1 });
//! std::fs::remove_file(&path).ok();
//! ```

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::digest::{Fingerprint, ModelDigest};
use crate::engine::CacheStats;
use crate::error::SpplError;
use crate::store::{self, Format};

/// Cache key: (deep model digest, canonical event fingerprint). Both
/// halves are versioned content hashes ([`crate::digest`]), which is what
/// makes the key meaningful across processes.
type Key = (ModelDigest, Fingerprint);

/// Number of independent LRU shards. Enough that a cold fan-out across
/// tens of threads rarely contends; small enough that `clear`/`save`
/// sweeps and the round-robin eviction clock stay cheap.
const SHARDS: usize = 16;

/// Version of the snapshot body layout (entry count + record shape).
/// Orthogonal to [`DIGEST_VERSION`](crate::digest::DIGEST_VERSION),
/// which versions the meaning of the keys inside; the envelope checks
/// both at load.
const SNAPSHOT_FORMAT_VERSION: u32 = 1;

/// The envelope every snapshot is written in ([`crate::store`]).
const SNAPSHOT: Format = Format {
    magic: *b"SPPLSNAP",
    version: SNAPSHOT_FORMAT_VERSION,
    name: "SharedCache snapshot",
};

/// Bytes per record: 16 (digest) + 16 (fingerprint) + 8 (value bits).
const RECORD_BYTES: usize = 40;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One shard: an exact LRU. `map` holds values tagged with their
/// last-use tick; `order` indexes keys by tick so the least-recently-used
/// entry is the first `order` entry. Ticks are per-shard and unique
/// (assigned under the shard lock), so `order` is a faithful recency
/// queue within the shard.
#[derive(Default)]
struct Shard {
    map: HashMap<Key, (f64, u64)>,
    order: BTreeMap<u64, Key>,
    tick: u64,
}

impl Shard {
    /// Refreshes recency of an existing entry and returns its value.
    fn touch(&mut self, key: &Key) -> Option<f64> {
        let entry = self.map.get_mut(key)?;
        self.order.remove(&entry.1);
        self.tick += 1;
        self.order.insert(self.tick, *key);
        entry.1 = self.tick;
        Some(entry.0)
    }

    /// Inserts a key known to be absent.
    fn insert_new(&mut self, key: Key, value: f64) {
        self.tick += 1;
        self.order.insert(self.tick, key);
        self.map.insert(key, (value, self.tick));
    }

    /// Evicts this shard's least-recently-used entry, if any.
    fn pop_lru(&mut self) -> bool {
        if let Some((&oldest_tick, &oldest_key)) = self.order.iter().next() {
            self.order.remove(&oldest_tick);
            self.map.remove(&oldest_key);
            true
        } else {
            false
        }
    }
}

/// A bounded, sharded, persistable cross-session LRU cache of `logprob`
/// results (see the [module docs](self)).
///
/// Lookups touch exactly one shard's mutex, so concurrent cold traffic
/// from many cores scales with the shard count instead of serializing on
/// one lock. Within a shard, recency is exact LRU; across shards, a
/// round-robin eviction clock approximates global recency. All
/// statistics ([`SharedCache::stats`], [`SharedCache::evictions`]) are
/// aggregated across shards.
pub struct SharedCache {
    capacity: usize,
    shards: Box<[Mutex<Shard>]>,
    /// Total entries across shards (kept outside the shard locks so the
    /// capacity check never takes more than one shard lock at a time).
    entries: AtomicUsize,
    /// Round-robin eviction clock: the next shard asked to give up its
    /// LRU entry when the cache is over capacity.
    clock: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SharedCache {
    /// A cache bounded to `capacity` entries (at least one).
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero — a zero-capacity cache would turn
    /// every insert into an eviction; drop the cache instead.
    pub fn new(capacity: usize) -> SharedCache {
        assert!(capacity > 0, "SharedCache capacity must be positive");
        SharedCache {
            capacity,
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            entries: AtomicUsize::new(0),
            clock: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The shard holding `key` (pure arithmetic on the key's own hash
    /// bits — the fingerprint is already a high-quality hash, so no
    /// second hashing pass is needed).
    fn shard(&self, key: &Key) -> &Mutex<Shard> {
        let mix = key.0.as_u128() ^ key.1.as_u128();
        let h = (mix as u64) ^ ((mix >> 64) as u64);
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Looks up a cached log-probability, refreshing its recency within
    /// its shard.
    pub fn get(&self, model_digest: ModelDigest, fingerprint: Fingerprint) -> Option<f64> {
        let key = (model_digest, fingerprint);
        let found = lock(self.shard(&key)).touch(&key);
        match found {
            Some(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Like [`get`](SharedCache::get), except an *absent* key records no
    /// miss (a found key still counts as a hit and refreshes recency).
    ///
    /// This is the serving fast path: a front-end probes before routing a
    /// query into its coalescing/batching machinery, and the evaluation
    /// that follows an empty probe records the miss itself — counting the
    /// probe too would tally every cold query twice.
    pub fn probe(&self, model_digest: ModelDigest, fingerprint: Fingerprint) -> Option<f64> {
        let key = (model_digest, fingerprint);
        let found = lock(self.shard(&key)).touch(&key);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Stores a log-probability, evicting least-recently-used entries
    /// (round-robin across shards) when the cache is full, and returns
    /// the value now authoritative for the key.
    ///
    /// First write wins: when the key is already present, only its
    /// recency is refreshed — the stored value is kept and returned.
    /// Callers must serve the *returned* value, not the one they
    /// computed. (With content-canonical sum ordering two sessions racing
    /// on one key compute identical bits anyway; this discipline keeps
    /// the consistency guarantee independent of that invariant.)
    pub fn insert(&self, model_digest: ModelDigest, fingerprint: Fingerprint, value: f64) -> f64 {
        let key = (model_digest, fingerprint);
        {
            let mut shard = lock(self.shard(&key));
            if let Some(existing) = shard.touch(&key) {
                return existing;
            }
            shard.insert_new(key, value);
            // Count while still holding the shard lock: `clear` subtracts
            // each shard's length under that shard's lock, so every
            // mutation of `entries` is serialized against the shard that
            // owns the entry — the counter can never underflow.
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        self.evict_to_capacity();
        value
    }

    /// Brings the cache back under its capacity bound by advancing the
    /// round-robin clock and evicting the LRU entry of each visited
    /// shard. Never holds two shard locks at once (an insert into shard A
    /// may evict from shard B; lock-ordering freedom rules out deadlock).
    fn evict_to_capacity(&self) {
        while self.entries.load(Ordering::Relaxed) > self.capacity {
            let mut evicted = false;
            // One full sweep is always enough to find a victim unless
            // concurrent clears/evictions drained the shards first.
            for _ in 0..self.shards.len() {
                let idx = self.clock.fetch_add(1, Ordering::Relaxed) % self.shards.len();
                let popped = {
                    let mut shard = lock(&self.shards[idx]);
                    let popped = shard.pop_lru();
                    if popped {
                        // Decrement under the lock (see `insert` for why).
                        self.entries.fetch_sub(1, Ordering::Relaxed);
                    }
                    popped
                };
                if popped {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    evicted = true;
                    break;
                }
            }
            if !evicted {
                break;
            }
        }
    }

    /// Hit/miss/entry statistics, **aggregated across all shards** (the
    /// same shape every other cache layer reports): one combined count
    /// for the whole cache, not per shard.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
        }
    }

    /// Number of entries evicted to respect the capacity bound,
    /// aggregated across all shards.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Drops every entry and resets all statistics. Never required for
    /// correctness (entries are pure values); releases memory.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut shard = lock(shard);
            let removed = shard.map.len();
            shard.map.clear();
            shard.order.clear();
            shard.tick = 0;
            self.entries.fetch_sub(removed, Ordering::Relaxed);
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Writes every entry to `path` in the versioned binary format
    /// described in the [module docs](self) and returns the number of
    /// records written. Entries are serialized least-recently-used first
    /// (per shard, walking shards in index order), so a later
    /// [`load_snapshot`](SharedCache::load_snapshot) approximately
    /// reproduces recency.
    ///
    /// The write goes through [`store::write_atomic`]: a process killed
    /// mid-save leaves the previous snapshot untouched and loadable, and
    /// a save that returned `Ok` survives a power loss. Concurrent saves
    /// to the *same* path race on its one staging file; give each writer
    /// its own target path.
    ///
    /// # Errors
    ///
    /// [`SpplError::Snapshot`] when the snapshot cannot be staged,
    /// renamed into place, or made durable (the previous snapshot, if
    /// any, is left intact unless the rename already happened).
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<usize, SpplError> {
        let mut count: u64 = 0;
        let bytes = store::seal(&SNAPSHOT, |buf| {
            let count_at = buf.len();
            buf.extend_from_slice(&0u64.to_le_bytes());
            for shard in self.shards.iter() {
                let shard = lock(shard);
                for key in shard.order.values() {
                    let (value, _) = shard.map[key];
                    buf.extend_from_slice(&key.0.to_le_bytes());
                    buf.extend_from_slice(&key.1.to_le_bytes());
                    buf.extend_from_slice(&value.to_bits().to_le_bytes());
                    count += 1;
                }
            }
            buf[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
        });
        store::write_atomic(&[(path.as_ref(), &bytes)])?;
        Ok(count as usize)
    }

    /// Reads a snapshot written by [`save_snapshot`](SharedCache::save_snapshot)
    /// — usually by a *previous process* — and fills this cache with its
    /// entries, returning how many were loaded. Existing entries win over
    /// snapshot entries for the same key (first write wins, as with
    /// [`insert`](SharedCache::insert)); loading stops silently once the
    /// cache is at capacity. Loaded entries do not count as hits or
    /// misses.
    ///
    /// # Errors
    ///
    /// [`SpplError::Snapshot`] when the file cannot be read, the envelope
    /// refuses it (magic, either version — a
    /// [`DIGEST_VERSION`](crate::digest::DIGEST_VERSION) bump makes every
    /// older snapshot unreadable *by design*, its keys mean something
    /// else — or the checksum), the length disagrees with the entry
    /// count, or a value is NaN. On error **nothing is loaded**: the
    /// cache keeps exactly the entries it had, so a fresh cache degrades
    /// to cold, never to wrong.
    pub fn load_snapshot(&self, path: impl AsRef<Path>) -> Result<usize, SpplError> {
        let path = path.as_ref();
        let reject = |reason: String| SpplError::Snapshot {
            message: format!("{}: {reason}", SNAPSHOT.name),
        };
        let bytes = std::fs::read(path)
            .map_err(|e| reject(format!("cannot read {}: {e}", path.display())))?;
        let body = store::open(&SNAPSHOT, &bytes)?;
        if body.len() < 8 {
            return Err(reject("body too short for the entry count".into()));
        }
        let (count, records) = body.split_at(8);
        let count = u64::from_le_bytes(count.try_into().expect("8 bytes"));
        if count.checked_mul(RECORD_BYTES as u64) != Some(records.len() as u64) {
            return Err(reject(format!(
                "{} record bytes disagree with entry count {count}",
                records.len()
            )));
        }
        // Parse and validate every record before touching the cache, so a
        // corrupt tail cannot leave a half-loaded state.
        let mut parsed: Vec<(Key, f64)> = Vec::with_capacity(records.len() / RECORD_BYTES);
        for (i, record) in records.chunks_exact(RECORD_BYTES).enumerate() {
            let digest = ModelDigest::from_le_bytes(record[..16].try_into().expect("16 bytes"));
            let fingerprint =
                Fingerprint::from_le_bytes(record[16..32].try_into().expect("16 bytes"));
            let value = f64::from_bits(u64::from_le_bytes(
                record[32..].try_into().expect("8 bytes"),
            ));
            if value.is_nan() {
                return Err(reject(format!("record {i} holds NaN")));
            }
            parsed.push(((digest, fingerprint), value));
        }
        let mut loaded = 0;
        for (key, value) in parsed {
            if self.entries.load(Ordering::Relaxed) >= self.capacity {
                break;
            }
            let mut shard = lock(self.shard(&key));
            if shard.touch(&key).is_none() {
                shard.insert_new(key, value);
                // Counted under the shard lock (see `insert`).
                self.entries.fetch_add(1, Ordering::Relaxed);
                loaded += 1;
            }
        }
        Ok(loaded)
    }
}

impl std::fmt::Debug for SharedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SharedCache")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("evictions", &self.evictions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn md(x: u128) -> ModelDigest {
        ModelDigest::from_u128(x)
    }

    fn fp(x: u128) -> Fingerprint {
        Fingerprint::from_u128(x)
    }

    /// Fingerprints that all land in one shard (digest 0), `n` apart in
    /// shard-index space so recency behavior is exact within the shard.
    fn same_shard_fp(i: u128) -> Fingerprint {
        fp(i * (SHARDS as u128))
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = SharedCache::new(0);
    }

    #[test]
    fn hit_miss_and_stats() {
        let c = SharedCache::new(8);
        assert_eq!(c.get(md(1), fp(1)), None);
        c.insert(md(1), fp(1), -0.5);
        assert_eq!(c.get(md(1), fp(1)), Some(-0.5));
        assert_eq!(c.get(md(2), fp(1)), None, "digest is part of the key");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn bound_is_respected_and_eviction_is_lru_within_a_shard() {
        let c = SharedCache::new(3);
        c.insert(md(0), same_shard_fp(1), 1.0);
        c.insert(md(0), same_shard_fp(2), 2.0);
        c.insert(md(0), same_shard_fp(3), 3.0);
        // Touch 1 so 2 becomes the least recently used.
        assert_eq!(c.get(md(0), same_shard_fp(1)), Some(1.0));
        c.insert(md(0), same_shard_fp(4), 4.0);
        assert_eq!(c.stats().entries, 3);
        assert_eq!(c.evictions(), 1);
        assert_eq!(
            c.get(md(0), same_shard_fp(2)),
            None,
            "LRU entry must be the one evicted"
        );
        assert_eq!(c.get(md(0), same_shard_fp(1)), Some(1.0));
        assert_eq!(c.get(md(0), same_shard_fp(3)), Some(3.0));
        assert_eq!(c.get(md(0), same_shard_fp(4)), Some(4.0));
    }

    #[test]
    fn reinserting_existing_key_keeps_first_value_without_eviction() {
        let c = SharedCache::new(2);
        c.insert(md(0), same_shard_fp(1), 1.0);
        c.insert(md(0), same_shard_fp(2), 2.0);
        // A racing recomputation must not displace what other sessions
        // were already served.
        assert_eq!(c.insert(md(0), same_shard_fp(1), 10.0), 1.0);
        assert_eq!(c.stats().entries, 2);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get(md(0), same_shard_fp(1)), Some(1.0));
        // The reinsert still refreshed recency: key 2 is now the LRU.
        c.insert(md(0), same_shard_fp(3), 3.0);
        assert_eq!(c.get(md(0), same_shard_fp(2)), None);
        assert_eq!(c.get(md(0), same_shard_fp(1)), Some(1.0));
    }

    #[test]
    fn entries_never_exceed_capacity_under_churn() {
        let c = SharedCache::new(16);
        for i in 0..1000u128 {
            c.insert(md(i % 7), fp(i), i as f64);
            assert!(c.stats().entries <= 16);
        }
        assert_eq!(c.evictions(), 1000 - 16);
    }

    #[test]
    fn eviction_clock_spreads_over_shards() {
        // Keys spread across every shard; the round-robin clock must keep
        // the *global* bound while each shard keeps a share.
        let c = SharedCache::new(SHARDS * 2);
        for i in 0..(SHARDS as u128 * 10) {
            c.insert(md(i), fp(i * 31 + 7), i as f64);
        }
        assert_eq!(c.stats().entries, SHARDS * 2);
        assert_eq!(c.evictions() as usize, SHARDS * 10 - SHARDS * 2);
    }

    #[test]
    fn clear_resets_everything() {
        let c = SharedCache::new(4);
        c.insert(md(1), fp(1), 0.0);
        c.get(md(1), fp(1));
        c.get(md(1), fp(2));
        c.clear();
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
        assert_eq!(c.get(md(1), fp(1)), None);
    }

    #[test]
    fn concurrent_use_stays_bounded() {
        let c = std::sync::Arc::new(SharedCache::new(32));
        std::thread::scope(|s| {
            for t in 0..4u128 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..500u128 {
                        c.insert(md(t), fp(i), (t * i) as f64);
                        c.get(md(t), fp(i.wrapping_sub(3)));
                    }
                });
            }
        });
        assert!(c.stats().entries <= 32);
    }

    fn snap_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sppl-cache-test-{tag}-{}.bin", std::process::id()))
    }

    #[test]
    fn snapshot_round_trips() {
        let path = snap_path("roundtrip");
        let a = SharedCache::new(64);
        a.insert(md(1), fp(10), -0.25);
        a.insert(md(2), fp(20), f64::NEG_INFINITY); // log 0 is a legal value
        a.insert(md(1), fp(30), -1.5);
        assert_eq!(a.save_snapshot(&path).unwrap(), 3);

        let b = SharedCache::new(64);
        assert_eq!(b.load_snapshot(&path).unwrap(), 3);
        assert_eq!(b.get(md(1), fp(10)), Some(-0.25));
        assert_eq!(b.get(md(2), fp(20)), Some(f64::NEG_INFINITY));
        assert_eq!(b.get(md(1), fp(30)), Some(-1.5));
        // Loading counted no hits/misses; the three gets were all hits.
        let s = b.stats();
        assert_eq!((s.hits, s.misses, s.entries), (3, 0, 3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_respects_capacity_and_existing_entries() {
        let path = snap_path("capacity");
        let a = SharedCache::new(64);
        for i in 0..10u128 {
            a.insert(md(i), fp(i), i as f64);
        }
        a.save_snapshot(&path).unwrap();

        // Capacity 4: only four records fit.
        let small = SharedCache::new(4);
        assert_eq!(small.load_snapshot(&path).unwrap(), 4);
        assert_eq!(small.stats().entries, 4);

        // An existing entry wins over the snapshot's value for its key.
        let warm = SharedCache::new(64);
        warm.insert(md(3), fp(3), 99.0);
        let loaded = warm.load_snapshot(&path).unwrap();
        assert_eq!(loaded, 9, "the already-present key is not re-loaded");
        assert_eq!(warm.get(md(3), fp(3)), Some(99.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_and_mismatched_snapshots_load_as_empty() {
        // Envelope corruption (truncation, bit flips, magic and version
        // skew) is `store`'s corruption matrix; these are the cases only
        // the snapshot body can get wrong, each behind a valid checksum.
        let c = SharedCache::new(8);
        c.insert(md(1), fp(1), -1.0);
        let path = snap_path("corrupt");
        c.save_snapshot(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        let resealed = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut body = store::open(&SNAPSHOT, &good).unwrap().to_vec();
            edit(&mut body);
            store::seal(&SNAPSHOT, |buf| buf.extend_from_slice(&body))
        };

        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("count/length disagreement", resealed(&|b| b[0] = 9)),
            ("truncated record", resealed(&|b| b.truncate(b.len() - 1))),
            ("body shorter than its count", resealed(&|b| b.truncate(3))),
            (
                "nan value behind a recomputed checksum",
                // Even a snapshot whose checksum *matches* must not hand
                // the cache a NaN (an adversarially rewritten file).
                resealed(&|b| b[8 + 32..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes())),
            ),
        ];
        for (what, bytes) in cases {
            std::fs::write(&path, &bytes).unwrap();
            let fresh = SharedCache::new(8);
            let err = fresh.load_snapshot(&path).unwrap_err();
            assert!(
                matches!(err, SpplError::Snapshot { .. }),
                "{what}: wrong error {err:?}"
            );
            assert_eq!(
                fresh.stats().entries,
                0,
                "{what}: rejected snapshot must load as empty"
            );
        }
        // A missing file is also a surfaced error, not a panic.
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            SharedCache::new(8).load_snapshot(&path),
            Err(SpplError::Snapshot { .. })
        ));
    }
}
