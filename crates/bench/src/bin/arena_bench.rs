//! The session query route vs the tree walker on the paper's batch
//! workloads: the Fig. 3 hierarchical-HMM smoothing posterior and the
//! Fig. 8 rare-event chain network. Each workload answers the same cold
//! batch twice: through the tree-walk reference (`Factory::logprob` on
//! each canonical event, from cold node memos) and through
//! `Model::logprob_many` on a fresh session, whose misses go through one
//! batched pass of the model's arena compile (compiled inside the timed
//! call). The answers must be bit-identical (asserted with
//! `bits_match`), and the table reports per-event latency plus the
//! route's speedup over the cold tree walk.
//!
//! Flags:
//!
//! * `--test` — smoke mode: smaller horizon / shorter chain (CI).
//! * `--json` — additionally write machine-readable results to
//!   `BENCH_arena.json` in the working directory.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sppl_bench::args::BenchArgs;
use sppl_bench::json::JsonObject;
use sppl_bench::{bits_match, fmt_secs, nproc, timed, tree_logprobs, Table};
use sppl_core::stats::graph_stats;
use sppl_core::{Event, Model};
use sppl_models::{hmm, rare_event};

/// Measurements for one workload, both over the same cold batch.
struct Run {
    name: &'static str,
    events: usize,
    nodes: usize,
    tree_cold_s: f64,
    model_s: f64,
}

impl Run {
    fn per_event_ns(&self, total_s: f64) -> f64 {
        total_s * 1e9 / self.events as f64
    }
}

/// Answers `batch` through the cold tree walker and through a fresh
/// session's query route, asserting bit parity between the two.
fn measure(name: &'static str, model: &Model, batch: &[Event]) -> Run {
    // Touch every code path once, then measure from cold caches.
    tree_logprobs(model, batch);
    model.clear_caches();
    let (tree, tree_cold_s) = timed(|| tree_logprobs(model, batch));

    // A fresh session: empty memo, and no arena until this call.
    let session = Model::new(Arc::clone(model.factory_arc()), model.root().clone());
    let (fast, model_s) = timed(|| session.logprob_many(batch).expect("model batch"));
    assert!(
        bits_match(&tree, &fast),
        "{name}: the query route must answer bit-identically to the tree walker"
    );

    Run {
        name,
        events: batch.len(),
        nodes: graph_stats(model.root()).physical_nodes,
        tree_cold_s,
        model_s,
    }
}

fn main() {
    let args = BenchArgs::parse();

    // Fig. 3 workload: the smoothing + pairwise-persistence batch
    // against the HMM posterior (conditioning returns a Model, so the
    // posterior compiles to its own digest-keyed arena).
    let n = if args.test { 32 } else { 100 };
    let model = hmm::hierarchical_hmm(n).session().expect("compiles");
    let mut rng = StdRng::seed_from_u64(33);
    let trace = hmm::simulate_trace(&mut rng, n);
    let posterior = model
        .constrain(&hmm::observation_assignment(&trace.x, &trace.y))
        .expect("positive density");
    let batch: Vec<Event> = {
        let mut b = hmm::smoothing_queries(n);
        b.extend(hmm::pairwise_queries(n));
        b
    };
    let fig3 = measure("fig3_hmm_posterior", &posterior, &batch);

    // Fig. 8 workload: every prefix probability P[O[0..k] all 1] on the
    // chain network, through the prior model itself.
    let chain_len = if args.test { 12 } else { 20 };
    let chain = rare_event::chain_network(chain_len)
        .session()
        .expect("compiles");
    let prefixes: Vec<Event> = (1..=chain_len).map(rare_event::all_ones_event).collect();
    let fig8 = measure("fig8_chain", &chain, &prefixes);

    let mut table = Table::new([
        "Workload",
        "Events",
        "Nodes",
        "Tree cold",
        "Model",
        "ns/event (tree)",
        "ns/event (model)",
        "Speedup",
    ]);
    for run in [&fig3, &fig8] {
        table.row([
            run.name.to_string(),
            run.events.to_string(),
            run.nodes.to_string(),
            fmt_secs(run.tree_cold_s),
            fmt_secs(run.model_s),
            format!("{:.0}", run.per_event_ns(run.tree_cold_s)),
            format!("{:.0}", run.per_event_ns(run.model_s)),
            format!("{:.2}x", run.tree_cold_s / run.model_s),
        ]);
    }
    println!(
        "Model::logprob_many (arena compile included) vs cold tree walker \
         (bit-identical answers asserted)\n"
    );
    table.print();

    if args.json {
        let mut json = JsonObject::new()
            .str("bench", "arena")
            .str("mode", args.mode())
            .int("nproc", nproc() as u64)
            .bool("bits_identical", true);
        for run in [&fig3, &fig8] {
            let k = run.name;
            json = json
                .int(&format!("{k}_events"), run.events as u64)
                .int(&format!("{k}_nodes"), run.nodes as u64)
                .num(&format!("{k}_tree_cold_s"), run.tree_cold_s)
                .num(&format!("{k}_model_s"), run.model_s)
                .num(
                    &format!("{k}_tree_ns_per_event"),
                    run.per_event_ns(run.tree_cold_s),
                )
                .num(
                    &format!("{k}_model_ns_per_event"),
                    run.per_event_ns(run.model_s),
                )
                .num(&format!("{k}_speedup"), run.tree_cold_s / run.model_s);
        }
        json.write("BENCH_arena.json")
            .expect("write BENCH_arena.json");
        println!("\nwrote BENCH_arena.json");
    }
}
