//! The cache-and-restart protocol the `fig3_hmm` and `fig8_rare_events`
//! bins share, driven by `--cache-snapshot PATH`:
//!
//! 1. a separate session over the run's [`SharedCache`] answers the
//!    batch. On a cold start it fills the cache; when the snapshot file
//!    was written by an earlier process, every lookup must be a hit,
//!    because that process computed the same answers under the same
//!    content digests;
//! 2. the cache is saved to the snapshot path;
//! 3. a fresh session over a fresh cache restored from that snapshot
//!    (new factory, new pointers: everything a restarted server would
//!    rebuild) replays the batch as pure hits.
//!
//! Every answer must equal the bins' cold pass bit for bit. CI runs a
//! bin twice with one path to prove the same property across two real
//! processes.

use std::sync::Arc;

use sppl_core::{CacheStats, Event, Model, SharedCache};

use crate::args::BenchArgs;
use crate::json::JsonObject;
use crate::{bits_match, fmt_secs, timed};

/// Capacity of the run's shared cache and of the restored one.
const CAPACITY: usize = 1 << 16;

/// What one run of the protocol measured.
pub struct Restart {
    shared: CacheStats,
    batch_s: f64,
    loaded: usize,
    saved: usize,
    cold_s: f64,
    /// The replay's time, when a snapshot path was given.
    replay_s: Option<f64>,
}

/// Runs the protocol on `batch`, whose answers on a cold session were
/// `cold`, computed in `cold_s` seconds. `session` builds the model the
/// batch is asked of, over the cache it is handed; both sessions it
/// builds must be the same model, so that their cache keys agree.
///
/// # Panics
///
/// When an answer differs in any bit from `cold`, when a run that loaded
/// a snapshot misses the shared cache, or when the replay misses the
/// restored one.
pub fn run(
    args: &BenchArgs,
    batch: &[Event],
    cold: &[f64],
    cold_s: f64,
    session: impl Fn(Arc<SharedCache>) -> Model,
) -> Restart {
    let (cache, loaded) = args.shared_cache(CAPACITY);
    if loaded > 0 {
        println!("\nwarm restart: loaded {loaded} shared-cache entries from snapshot");
    }
    let shared_session = session(Arc::clone(&cache));
    let (answers, batch_s) = timed(|| shared_session.logprob_many(batch).expect("batch"));
    assert!(
        bits_match(cold, &answers),
        "shared-cache session must agree bit-for-bit"
    );
    let shared = cache.stats();
    if loaded > 0 {
        assert_eq!(
            shared.misses, 0,
            "snapshot-warm run must be pure shared-cache hits ({shared:?}) — \
             run the writer and reader with the same mode/size flags"
        );
    }
    let saved = args.save_cache(&cache);
    println!(
        "\nshared cache: batch in {} — {} hits / {} misses / {} entries \
         (loaded {loaded}, saved {saved})",
        fmt_secs(batch_s),
        shared.hits,
        shared.misses,
        shared.entries,
    );

    let replay_s = args.cache_snapshot.as_ref().map(|path| {
        let restored = Arc::new(SharedCache::new(CAPACITY));
        let reloaded = restored.load_snapshot(path).expect("reload own snapshot");
        let restarted = session(Arc::clone(&restored));
        let (replay, t) = timed(|| restarted.logprob_many(batch).expect("warm batch"));
        let rs = restored.stats();
        assert_eq!(
            rs.misses, 0,
            "restored snapshot must answer the batch without the evaluator ({rs:?})"
        );
        assert!(bits_match(cold, &replay), "replay must be bit-identical");
        println!(
            "warm restart replay: {} events in {} from {reloaded} restored entries \
             (cold pass was {}) — {:.0}x",
            batch.len(),
            fmt_secs(t),
            fmt_secs(cold_s),
            cold_s / t,
        );
        t
    });
    Restart {
        shared,
        batch_s,
        loaded,
        saved,
        cold_s,
        replay_s,
    }
}

impl Restart {
    /// Appends the protocol's keys, from `shared_hits` to
    /// `warm_restart_pure_hits`, to a `BENCH_*.json` artifact.
    pub fn json(&self, json: JsonObject) -> JsonObject {
        let replay_s = self.replay_s.unwrap_or(0.0);
        json.int("shared_hits", self.shared.hits)
            .int("shared_misses", self.shared.misses)
            .int("shared_entries", self.shared.entries as u64)
            .num("shared_batch_s", self.batch_s)
            .int("snapshot_loaded", self.loaded as u64)
            .int("snapshot_saved", self.saved as u64)
            .num("warm_restart_batch_s", replay_s)
            .num(
                "warm_restart_speedup",
                if replay_s > 0.0 {
                    self.cold_s / replay_s
                } else {
                    0.0
                },
            )
            .bool("warm_restart_pure_hits", self.replay_s.is_some())
    }
}
