//! Parallel symbolic conditioning vs the sequential walk, on the two
//! regimes the fan-out targets: a **wide mixture** (many sum children,
//! one conditioning pass fans out per-child) and a **deep conditioning
//! chain** over a moderately wide mixture (the chain itself stays
//! sequential — each posterior feeds the next step — but every step
//! fans out internally). Answers must be bit-identical across every
//! thread count (`bits_match` asserted); the speedup column is the only
//! thing parallelism is allowed to change.
//!
//! Each measurement builds a **fresh factory**: the cond cache would
//! otherwise answer the second run instantly and time nothing.
//!
//! Flags:
//!
//! * `--test` — smoke mode: 200-component mixture, 60-step chain (CI).
//! * `--json` — additionally write `BENCH_condition.json`.
//! * `--threads N` — top rung of the thread ladder (default:
//!   `SPPL_THREADS` or the machine's available parallelism); the ladder
//!   always includes 1 and 2.

use std::sync::Arc;

use sppl_bench::args::BenchArgs;
use sppl_bench::json::JsonObject;
use sppl_bench::{bits_match, fmt_secs, timed, Table};
use sppl_core::{condition, par_condition_in, Event, Factory, Model, Pool, Spe, Transform, Var};
use sppl_dists::{Cdf, DistReal, Distribution};
use sppl_sets::Interval;

fn normal_leaf(f: &Factory, name: &str, mu: f64) -> Spe {
    f.leaf(
        Var::new(name),
        Distribution::Real(DistReal::new(Cdf::normal(mu, 1.0), Interval::all()).unwrap()),
    )
}

/// An `n`-component mixture of two-variable products with distinct
/// means (distinct, or dedup would collapse the components).
fn wide_mixture(f: &Factory, n: usize) -> Spe {
    let w = (1.0 / n as f64).ln();
    let comps: Vec<(Spe, f64)> = (0..n)
        .map(|i| {
            let mu = -4.0 + 8.0 * i as f64 / n as f64;
            let c = f
                .product(vec![normal_leaf(f, "X", mu), normal_leaf(f, "Y", -mu)])
                .unwrap();
            (c, w)
        })
        .collect();
    f.sum(comps).unwrap()
}

/// A disjunction so conditioning walks the clause (DNF) path, not just
/// a single truncation.
fn evidence() -> Event {
    let x = Transform::id(Var::new("X"));
    let y = Transform::id(Var::new("Y"));
    Event::or(vec![
        Event::le(x.clone(), 0.25),
        Event::and(vec![Event::gt(x, -1.0), Event::gt(y, 1.5)]),
    ])
}

/// Posterior probes answered after every run; their bits are the
/// equality witness.
fn probes() -> Vec<Event> {
    let x = Transform::id(Var::new("X"));
    let y = Transform::id(Var::new("Y"));
    vec![
        Event::le(x.clone(), 0.0),
        Event::gt(y.clone(), 0.0),
        Event::and(vec![Event::le(x.clone(), 1.0), Event::le(y.clone(), 1.0)]),
        Event::or(vec![Event::gt(x, 2.0), Event::le(y, -2.0)]),
    ]
}

fn probe_answers(f: &Factory, post: &Spe) -> Vec<f64> {
    probes()
        .iter()
        .map(|q| f.logprob(post, q).expect("probe"))
        .collect()
}

/// A slowly tightening alternating chain: step `k` truncates `X` (even)
/// or `Y` (odd) a little further, so every mixture component survives
/// every step and each step's sum stays wide enough to fan out.
fn chain_events(depth: usize) -> Vec<Event> {
    let x = Transform::id(Var::new("X"));
    let y = Transform::id(Var::new("Y"));
    (0..depth)
        .map(|k| {
            let shrink = 2.0 * k as f64 / depth as f64;
            if k % 2 == 0 {
                Event::le(x.clone(), 4.0 - shrink)
            } else {
                Event::gt(y.clone(), -4.0 + shrink)
            }
        })
        .collect()
}

struct Run {
    seq_s: f64,
    /// `(threads, seconds)` per ladder rung.
    par_s: Vec<(u32, f64)>,
    bits: bool,
}

impl Run {
    fn speedup_at_max(&self) -> f64 {
        self.seq_s / self.par_s.last().expect("ladder non-empty").1
    }
}

/// Conditions a fresh `components`-wide mixture once sequentially and
/// once per ladder rung, asserting bit-identical posterior answers.
fn measure_mixture(components: usize, ladder: &[u32]) -> Run {
    let reference = {
        let f = Factory::new();
        let m = wide_mixture(&f, components);
        let (post, seq_s) = timed(|| condition(&f, &m, &evidence()).expect("conditions"));
        (probe_answers(&f, &post), seq_s)
    };
    let mut par_s = Vec::new();
    let mut bits = true;
    for &threads in ladder {
        let pool = Pool::new(threads);
        let f = Factory::new();
        let m = wide_mixture(&f, components);
        let (post, s) = timed(|| par_condition_in(&f, &m, &evidence(), &pool).expect("conditions"));
        bits &= bits_match(&reference.0, &probe_answers(&f, &post));
        par_s.push((threads, s));
    }
    assert!(bits, "parallel conditioning must be bit-identical");
    Run {
        seq_s: reference.1,
        par_s,
        bits,
    }
}

/// Runs a `depth`-step conditioning chain over a `width`-component
/// mixture; the chain is sequential, each step fans out internally.
fn measure_chain(width: usize, depth: usize, ladder: &[u32]) -> Run {
    let events = chain_events(depth);
    let session = |_: ()| {
        let f = Arc::new(Factory::new());
        let m = wide_mixture(&f, width);
        Model::new(f, m)
    };
    let reference = {
        let model = session(());
        let (post, seq_s) = timed(|| model.condition_chain(&events).expect("chains"));
        (probe_answers(model.factory(), post.root()), seq_s)
    };
    let mut par_s = Vec::new();
    let mut bits = true;
    for &threads in ladder {
        let pool = Pool::new(threads);
        let model = session(());
        let (post, s) = timed(|| {
            model
                .par_condition_chain_in(&pool, &events)
                .expect("chains")
        });
        bits &= bits_match(&reference.0, &probe_answers(model.factory(), post.root()));
        par_s.push((threads, s));
    }
    assert!(bits, "parallel chain must be bit-identical");
    Run {
        seq_s: reference.1,
        par_s,
        bits,
    }
}

fn main() {
    let args = BenchArgs::parse();
    let top = (args.threads as u32).max(1);
    let mut ladder: Vec<u32> = vec![1, 2, top];
    ladder.sort_unstable();
    ladder.dedup();

    let components = if args.test { 200 } else { 1000 };
    let (chain_width, chain_depth) = if args.test { (32, 60) } else { (100, 500) };

    let mixture = measure_mixture(components, &ladder);
    let chain = measure_chain(chain_width, chain_depth, &ladder);

    let available = sppl_bench::nproc();

    let mut table = Table::new(["Workload", "Size", "Seq", "Par (top)", "Speedup", "Bits"]);
    for (name, size, run) in [
        ("wide_mixture", format!("{components} components"), &mixture),
        (
            "deep_chain",
            format!("{chain_depth} steps x {chain_width} wide"),
            &chain,
        ),
    ] {
        table.row([
            name.to_string(),
            size,
            fmt_secs(run.seq_s),
            fmt_secs(run.par_s.last().expect("ladder").1),
            format!("{:.2}x", run.speedup_at_max()),
            if run.bits { "identical" } else { "DIVERGED" }.to_string(),
        ]);
    }
    println!("parallel symbolic conditioning vs sequential (bit-identity asserted)\n");
    table.print();
    println!("\nthread ladder: {ladder:?}; {available} hardware thread(s) available");
    if available < ladder.last().copied().unwrap_or(1) as usize {
        println!(
            "note: ladder exceeds hardware parallelism — speedups are \
             bounded by the {available} available core(s); rerun on a \
             multi-core box for the scaling numbers"
        );
    }

    if args.json {
        let mut json = JsonObject::new()
            .str("bench", "condition")
            .str("mode", args.mode())
            .int("threads_available", available as u64)
            .int("mixture_components", components as u64)
            .int("chain_depth", chain_depth as u64)
            .int("chain_width", chain_width as u64)
            .bool("bits_match", mixture.bits && chain.bits)
            .num("mixture_seq_s", mixture.seq_s)
            .num("chain_seq_s", chain.seq_s);
        for (threads, s) in &mixture.par_s {
            json = json.num(&format!("mixture_par{threads}_s"), *s);
        }
        for (threads, s) in &chain.par_s {
            json = json.num(&format!("chain_par{threads}_s"), *s);
        }
        json = json
            .num("mixture_speedup_at_max", mixture.speedup_at_max())
            .num("chain_speedup_at_max", chain.speedup_at_max());
        if available < ladder.last().copied().unwrap_or(1) as usize {
            json = json.str(
                "caveat",
                "thread ladder exceeds hardware parallelism on this box; \
                 speedup is core-bound, bit-identity is the asserted result",
            );
        }
        json.write("BENCH_condition.json")
            .expect("write BENCH_condition.json");
        println!("\nwrote BENCH_condition.json");
    }
}
