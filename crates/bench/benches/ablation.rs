//! Ablation benchmarks for the Sec. 5.1 optimizations: translation and
//! conditioning with deduplication / factorization / memoization
//! selectively disabled through `FactoryOptions`, so each optimization's
//! share of the speed shows on its own.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sppl_core::spe::{Factory, FactoryOptions};
use sppl_models::{hmm, networks};

fn options(dedup: bool, factorize: bool, memoize: bool) -> FactoryOptions {
    FactoryOptions {
        dedup,
        factorize,
        memoize,
    }
}

fn bench_translation_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("translate_ablation");
    g.sample_size(10);
    let model = networks::heart_disease();
    for (name, opts) in [
        ("all_optimizations", options(true, true, true)),
        ("no_factorization", options(true, false, true)),
        ("no_dedup", options(false, false, true)),
    ] {
        g.bench_function(format!("heart_disease/{name}"), |b| {
            b.iter(|| {
                let f = Factory::with_options(opts);
                black_box(model.compile(&f).unwrap())
            })
        });
    }
    g.finish();
}

fn bench_memoization_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("memoize_ablation");
    g.sample_size(10);
    // A horizon where unmemoized conditioning is painful but finite
    // (tree-expansion ~18k nodes vs ~160 physical at 10 steps).
    let n = 10;
    let model = hmm::hierarchical_hmm(n);
    for (name, memoize) in [("memoized", true), ("unmemoized", false)] {
        g.bench_function(format!("hmm{n}_smoothing/{name}"), |b| {
            b.iter(|| {
                let f = Factory::with_options(options(true, true, memoize));
                let spe = model.compile(&f).unwrap();
                let data = sppl_models::psi_suite::markov_switching_dataset(1, n);
                let post = sppl_core::density::constrain(&f, &spe, &data).unwrap();
                black_box(post.prob(&hmm::hidden_state_event(n - 1)).unwrap())
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_translation_ablation,
    bench_memoization_ablation
);
criterion_main!(benches);
