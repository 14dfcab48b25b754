//! A sharded, lock-based concurrent hash map for the factory and engine
//! memo tables.
//!
//! The inference memo tables used to live behind `RefCell`s, which made
//! the whole core `!Sync`. Each table is now split into a fixed number of
//! independently `RwLock`ed shards selected by key hash, so concurrent
//! batch queries mostly touch different shards: reads take a shared lock,
//! writes an exclusive lock, and no lock is ever held across a recursive
//! inference step (lookups and inserts are single operations). Two threads
//! racing to fill the same key may both compute the value; both results
//! are bit-identical (inference is a pure function of the immutable DAG
//! and the event), so the second insert is a harmless overwrite — the
//! usual memo-table tradeoff that buys lock-free recursion.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::digest::stable_hash64;

/// Shard count: enough to make contention unlikely at the batch widths
/// the engine fans out (tens of threads), small enough to keep `len`/
/// `clear` sweeps cheap.
const SHARDS: usize = 16;

/// Poison-recovering lock acquisition: every shard is valid after a
/// panic (map operations are single calls), so propagating the poison
/// would only cascade an unrelated test panic into every later query.
/// Policy lives here once; `cache.rs` carries the same rationale for its
/// mutex.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// A concurrent hash map sharded over [`SHARDS`] rwlocks.
pub(crate) struct ShardedMap<K, V> {
    shards: Box<[RwLock<HashMap<K, V>>]>,
}

impl<K: Eq + Hash, V: Clone> ShardedMap<K, V> {
    pub(crate) fn new() -> ShardedMap<K, V> {
        ShardedMap {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        // Shard selection only needs within-process consistency, but the
        // crate-wide rule stands: every hash is the explicit vendored one.
        &self.shards[(stable_hash64(key) as usize) % self.shards.len()]
    }

    /// Clones the value for `key`, if present.
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        read(self.shard(key)).get(key).cloned()
    }

    /// Inserts (or overwrites) `key`.
    pub(crate) fn insert(&self, key: K, value: V) {
        write(self.shard(&key)).insert(key, value);
    }

    /// First-write-wins insert: stores `value` only when `key` is absent
    /// and returns a clone of the entry's winning value. The memo-fill
    /// discipline for threads sharing one factory: callers racing on
    /// one subproblem all adopt whichever (bit-identical) result landed
    /// first, so every caller observes a single stable cached value —
    /// in particular one *physical* posterior node, not per-thread
    /// clones of equal content.
    pub(crate) fn get_or_insert(&self, key: K, value: V) -> V {
        write(self.shard(&key)).entry(key).or_insert(value).clone()
    }

    /// Runs `f` with exclusive access to the shard holding `key` — the
    /// atomic find-or-insert used by the intern table.
    pub(crate) fn with_shard_mut<R>(&self, key: &K, f: impl FnOnce(&mut HashMap<K, V>) -> R) -> R {
        f(&mut write(self.shard(key)))
    }

    /// Removes every entry.
    pub(crate) fn clear(&self) {
        for shard in self.shards.iter() {
            write(shard).clear();
        }
    }

    /// Total entries across shards (a racy snapshot under concurrency).
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| read(s).len()).sum()
    }

    /// Folds over a snapshot of every value (shard by shard; values may
    /// change concurrently between shards, like `len`).
    pub(crate) fn fold_values<A>(&self, init: A, mut f: impl FnMut(A, &V) -> A) -> A {
        let mut acc = init;
        for shard in self.shards.iter() {
            let shard = read(shard);
            for value in shard.values() {
                acc = f(acc, value);
            }
        }
        acc
    }
}

impl<K: Eq + Hash, V: Clone> Default for ShardedMap<K, V> {
    fn default() -> Self {
        ShardedMap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let m: ShardedMap<u64, String> = ShardedMap::new();
        assert_eq!(m.len(), 0);
        for i in 0..100u64 {
            m.insert(i, i.to_string());
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&42).as_deref(), Some("42"));
        assert_eq!(m.get(&1000), None);
        m.clear();
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn with_shard_mut_is_atomic_find_or_insert() {
        let m: ShardedMap<u64, Vec<u64>> = ShardedMap::new();
        let v = m.with_shard_mut(&7, |shard| {
            let bucket = shard.entry(7).or_default();
            bucket.push(1);
            bucket.clone()
        });
        assert_eq!(v, vec![1]);
        assert_eq!(m.get(&7), Some(vec![1]));
    }

    #[test]
    fn get_or_insert_is_first_write_wins() {
        let m: ShardedMap<u64, String> = ShardedMap::new();
        assert_eq!(m.get_or_insert(7, "first".into()), "first");
        // A later writer does not overwrite; it adopts the winner.
        assert_eq!(m.get_or_insert(7, "second".into()), "first");
        assert_eq!(m.get(&7).as_deref(), Some("first"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn concurrent_inserts_land() {
        let m: ShardedMap<u64, u64> = ShardedMap::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..250 {
                        m.insert(t * 1000 + i, i);
                    }
                });
            }
        });
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&3249), Some(249));
    }
}
