//! Fig. 3: hierarchical HMM smoothing and the linear growth of the
//! optimized sum-product expression, plus the memoized-session speedup on
//! repeated smoothing passes and the speedup of the session's batched
//! query route (`Model::logprob_many`, one arena pass over the misses)
//! over the cold tree walk — all through the session-first
//! [`Model`](sppl_core::Model) API (conditioning returns a queryable
//! posterior model).
//!
//! Flags:
//!
//! * `--test` — smoke mode: smaller horizon and fewer passes (CI).
//! * `--json` — additionally write machine-readable results to
//!   `BENCH_fig3.json` in the working directory.
//! * `--cache-snapshot PATH` — load a `SharedCache` snapshot from `PATH`
//!   when it exists and save one on exit: run twice with the same path
//!   and the second *process* answers every shared-cache query without
//!   touching the evaluator (warm restart; asserted below).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sppl_bench::args::BenchArgs;
use sppl_bench::json::JsonObject;
use sppl_bench::{bits_match, fmt_count, fmt_secs, nproc, restart, timed, tree_logprobs, Table};
use sppl_core::stats::graph_stats;
use sppl_core::Event;
use sppl_models::hmm;

fn main() {
    let args = BenchArgs::parse();
    // Repeated smoothing passes for the cached-vs-uncached comparison: the
    // filtering dashboards of Sec. 2.2 re-ask the same posterior marginals
    // every refresh.
    let passes = if args.test { 2 } else { 5 };
    let n = if args.test { 64 } else { 100 };
    let growth: &[usize] = if args.test {
        &[5, 10, 25]
    } else {
        &[5, 10, 25, 50, 100]
    };

    // Growth of the expression with the horizon (Fig. 3c vs 3d). Timed
    // compiles bypass the process-global compile cache: `translate_s` in
    // the JSON artifact means *translation*, not a cache hit
    // (`compile_bench` owns the cached-compile numbers).
    let mut table = Table::new(["Steps", "Physical nodes", "Tree-expanded", "Translate"]);
    for &steps in growth {
        let (model, t) = timed(|| {
            sppl_analyze::compile_model_uncached(&hmm::hierarchical_hmm(steps).source)
                .expect("compiles")
        });
        let stats = graph_stats(model.root());
        table.row([
            steps.to_string(),
            stats.physical_nodes.to_string(),
            fmt_count(stats.tree_nodes),
            fmt_secs(t),
        ]);
    }
    println!("Fig. 3d: optimized expression grows linearly in the horizon\n");
    table.print();

    // Smoothing on a simulated trace (Fig. 3b, bottom panel). This
    // session runs *without* the shared cache so the cold/cached numbers
    // below measure the evaluator and engine cache alone; the shared
    // cache gets its own session (and its own numbers) afterwards.
    let (model, translate_t) = timed(|| {
        sppl_analyze::compile_model_uncached(&hmm::hierarchical_hmm(n).source).expect("compiles")
    });
    let mut rng = StdRng::seed_from_u64(33);
    let trace = hmm::simulate_trace(&mut rng, n);
    let (posterior, constrain_t) = timed(|| {
        model
            .constrain(&hmm::observation_assignment(&trace.x, &trace.y))
            .expect("positive density")
    });
    println!(
        "\nsmoothing {n} steps: conditioned in {}",
        fmt_secs(constrain_t)
    );

    // Repeated smoothing: every pass re-asks all marginals. The uncached
    // path re-evaluates each query from scratch (per-call memo only); the
    // posterior session memoizes whole queries across passes.
    let queries = hmm::smoothing_queries(n);
    let (series, uncached_t) = timed(|| {
        let mut last = Vec::new();
        for _ in 0..passes {
            last = queries
                .iter()
                .map(|q| posterior.root().prob(q).expect("query"))
                .collect::<Vec<f64>>();
        }
        last
    });

    let (cached_series, cached_t) = timed(|| {
        let mut last = Vec::new();
        for _ in 0..passes {
            last = posterior.prob_many(&queries).expect("query");
        }
        last
    });
    assert_eq!(series, cached_series, "session must answer exactly");

    let stats = posterior.stats();
    println!(
        "{passes}x{n} smoothing queries: uncached {} vs cached {} — {:.1}x speedup",
        fmt_secs(uncached_t),
        fmt_secs(cached_t),
        uncached_t / cached_t
    );
    println!(
        "engine cache: {} hits / {} misses / {} entries (hit rate {:.0}%); \
         factory node-level: {} entries",
        stats.hits,
        stats.misses,
        stats.entries,
        stats.hit_rate() * 100.0,
        posterior.factory().prob_cache_stats().entries,
    );

    // Batch inference: the smoothing marginals plus the pairwise
    // persistence queries, answered cold by the tree-walk reference and
    // cold by the session's query route (one arena pass over the
    // misses); results must agree bit for bit.
    let batch: Vec<Event> = {
        let mut b = queries.clone();
        b.extend(hmm::pairwise_queries(n));
        b
    };
    tree_logprobs(&posterior, &batch); // touch every code path once
    posterior.clear_caches();
    let (tree_cold, tree_cold_t) = timed(|| tree_logprobs(&posterior, &batch));
    posterior.clear_caches();
    let (model_cold, model_cold_t) = timed(|| posterior.logprob_many(&batch).expect("model batch"));
    let bits_identical = bits_match(&tree_cold, &model_cold);
    assert!(
        bits_identical,
        "the query route must answer bit-identically to the tree walker"
    );
    let model_speedup = tree_cold_t / model_cold_t;
    println!(
        "\n{}-event batch, cold caches: tree walk {} vs Model::logprob_many {} — {:.2}x",
        batch.len(),
        fmt_secs(tree_cold_t),
        fmt_secs(model_cold_t),
        model_speedup,
    );

    // Warm repeat: everything is memo hits.
    let (_, warm_t) = timed(|| posterior.logprob_many(&batch).expect("warm batch"));
    let final_stats = posterior.stats();
    println!(
        "warm repeat: {} (memo hit rate now {:.0}%)",
        fmt_secs(warm_t),
        final_stats.hit_rate() * 100.0,
    );

    let correct = series
        .iter()
        .zip(&trace.z)
        .filter(|(p, z)| u8::from(**p > 0.5) == **z)
        .count();
    println!("posterior MAP matches true hidden state at {correct}/{n} steps");
    println!("\nt, true_z, p_z1");
    for t in (0..n).step_by(5) {
        println!("{t}, {}, {:.4}", trace.z[t], series[t]);
    }

    // Cross-process persistence: the shared-cache session, the snapshot
    // and the in-process warm restart (see `sppl_bench::restart`). The
    // main measurements above stay evaluator-cold either way.
    let observations = hmm::observation_assignment(&trace.x, &trace.y);
    let restart = restart::run(&args, &batch, &model_cold, model_cold_t, |cache| {
        hmm::hierarchical_hmm(n)
            .session()
            .expect("compiles")
            .with_shared_cache(cache)
            .constrain(&observations)
            .expect("positive density")
    });

    if args.json {
        let json = JsonObject::new()
            .str("bench", "fig3_hmm")
            .str("mode", args.mode())
            .int("steps", n as u64)
            .int("passes", passes as u64)
            .int("batch_size", batch.len() as u64)
            .int("nproc", nproc() as u64)
            .num("translate_s", translate_t)
            .num("constrain_s", constrain_t)
            .num("uncached_passes_s", uncached_t)
            .num("cached_passes_s", cached_t)
            .num("cached_speedup", uncached_t / cached_t)
            .num("tree_cold_s", tree_cold_t)
            .num("model_cold_s", model_cold_t)
            .num("model_speedup", model_speedup)
            .num("warm_s", warm_t)
            .num("engine_hit_rate", final_stats.hit_rate())
            .bool("bits_identical", bits_identical);
        restart
            .json(json)
            .write("BENCH_fig3.json")
            .expect("write BENCH_fig3.json");
        println!("\nwrote BENCH_fig3.json");
    }
}
