//! Fig. 8: exact rare-event probabilities vs rejection-sampling
//! trajectories, answered through the session-first
//! [`Model`](sppl_core::Model) API.
//!
//! Flags:
//!
//! * `--test` — smoke mode: shorter chain and far fewer sampler draws
//!   (CI).
//! * `--json` — additionally write machine-readable results to
//!   `BENCH_fig8.json` in the working directory.
//! * `--cache-snapshot PATH` — load a `SharedCache` snapshot from `PATH`
//!   when it exists and save one on exit (warm restart across
//!   processes; pure hits asserted when a snapshot was loaded).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sppl_baseline::sampler::RejectionEstimator;
use sppl_bench::args::BenchArgs;
use sppl_bench::json::JsonObject;
use sppl_bench::{bits_match, fmt_secs, nproc, restart, timed, tree_logprobs};
use sppl_core::event::Event;
use sppl_models::rare_event;

fn main() {
    let args = BenchArgs::parse();
    let chain_len = if args.test { 12 } else { 20 };
    let max_samples = if args.test { 20_000 } else { 400_000 };

    // The main session runs *without* the shared cache so the cold
    // numbers below measure the evaluator and engine cache alone; the
    // shared cache gets its own session (and numbers) afterwards.
    // Bypasses the process-global compile cache: `translate_s` in the
    // JSON artifact means *translation*, not a cache hit.
    let (model, translate_t) = timed(|| {
        sppl_analyze::compile_model_uncached(&rare_event::chain_network(chain_len).source)
            .expect("compiles")
    });
    println!("chain network translated in {}\n", fmt_secs(translate_t));

    // Batched exact answers — every prefix probability P[O[0..k] all 1]
    // for k = 1..=chain_len: cold through the tree-walk reference, cold
    // through the session's query route (first pass, compiling the arena
    // and populating the memo), then warm (repeat of the same batch).
    let events: Vec<Event> = (1..=chain_len).map(rare_event::all_ones_event).collect();
    model.clear_caches();
    let (tree, tree_cold_t) = timed(|| tree_logprobs(&model, &events));
    model.clear_caches();
    let (cold, cold_t) = timed(|| model.logprob_many(&events).expect("exact"));
    let bits_identical = bits_match(&tree, &cold);
    assert!(
        bits_identical,
        "the query route must answer bit-identically to the tree walker"
    );
    let (warm, warm_t) = timed(|| model.logprob_many(&events).expect("exact"));
    assert_eq!(cold, warm, "warm batch must be bit-identical");
    let stats = model.stats();
    println!(
        "batched exact answers over {} prefixes: tree walk {} vs Model::logprob_many cold {} \
         vs warm {} ({} hits / {} misses / {} entries)\n",
        events.len(),
        fmt_secs(tree_cold_t),
        fmt_secs(cold_t),
        fmt_secs(warm_t),
        stats.hits,
        stats.misses,
        stats.entries,
    );

    let mut rng = StdRng::seed_from_u64(12345);
    let prefixes: Vec<usize> = rare_event::figure8_prefixes()
        .into_iter()
        .filter(|&k| k <= chain_len)
        .collect();
    for &k in &prefixes {
        let event = rare_event::all_ones_event(k);
        let lp = cold[k - 1];
        println!("== event: O[0..{k}] all 1 — exact log p = {lp:.2} ==");
        let estimator = RejectionEstimator {
            max_samples,
            checkpoint_every: max_samples / 4,
        };
        for p in estimator.estimate(model.root(), &event, &mut rng) {
            let log_est = if p.estimate > 0.0 {
                format!("{:.2}", p.estimate.ln())
            } else {
                "-inf".into()
            };
            println!(
                "  sampler n={:>7} hits={:>4} log_est={log_est:>8} t={}",
                p.samples,
                p.hits,
                fmt_secs(p.seconds)
            );
        }
    }
    println!("\nExact answers are O(ms) and deterministic; sampler estimates fluctuate");
    println!("and may report zero hits long past the exact answer's availability.");

    // Cross-process persistence: the shared-cache session, the snapshot
    // and the in-process warm restart (see `sppl_bench::restart`).
    let restart = restart::run(&args, &events, &cold, cold_t, |cache| {
        rare_event::chain_network(chain_len)
            .session()
            .expect("compiles")
            .with_shared_cache(cache)
    });

    if args.json {
        let json = JsonObject::new()
            .str("bench", "fig8_rare_events")
            .str("mode", args.mode())
            .int("chain_len", chain_len as u64)
            .int("batch_size", events.len() as u64)
            .int("nproc", nproc() as u64)
            .num("translate_s", translate_t)
            .num("tree_cold_s", tree_cold_t)
            .num("model_cold_s", cold_t)
            .num("model_speedup", tree_cold_t / cold_t)
            .num("warm_s", warm_t)
            .num("engine_hit_rate", stats.hit_rate())
            .bool("bits_identical", bits_identical);
        restart
            .json(json)
            .write("BENCH_fig8.json")
            .expect("write BENCH_fig8.json");
        println!("\nwrote BENCH_fig8.json");
    }
}
