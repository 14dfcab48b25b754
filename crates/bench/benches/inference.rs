//! Criterion micro-benchmarks for the core pipeline stages: translation,
//! probability queries, conditioning, and the fairness workload (the
//! timing substrate behind Tables 2 and 4).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sppl_core::condition::condition;
use sppl_core::density::constrain;
use sppl_core::event::Event;
use sppl_core::transform::Transform;
use sppl_core::var::Var;
use sppl_core::{Factory, Model};
use sppl_models::{fairness, hmm, indian_gpa};

fn bench_translate(c: &mut Criterion) {
    let mut g = c.benchmark_group("translate");
    g.sample_size(10);
    g.bench_function("indian_gpa", |b| {
        let model = indian_gpa::model();
        b.iter(|| {
            let f = Factory::new();
            black_box(model.compile(&f).unwrap())
        })
    });
    g.bench_function("hmm_20", |b| {
        let model = hmm::hierarchical_hmm(20);
        b.iter(|| {
            let f = Factory::new();
            black_box(model.compile(&f).unwrap())
        })
    });
    g.bench_function("dt14_bayesnet1", |b| {
        let task = fairness::task(
            fairness::DecisionTree::Dt14,
            fairness::Population::BayesNet1,
        );
        b.iter(|| {
            let f = Factory::new();
            black_box(task.model.compile(&f).unwrap())
        })
    });
    g.finish();
}

fn bench_prob(c: &mut Criterion) {
    let mut g = c.benchmark_group("prob");
    let f = Factory::new();
    let gpa_model = indian_gpa::model().compile(&f).unwrap();
    let joint = Event::or(vec![
        Event::eq_real(Transform::id(Var::new("Perfect")), 1.0),
        Event::and(vec![
            Event::eq_str(Transform::id(Var::new("Nationality")), "India"),
            Event::gt(Transform::id(Var::new("GPA")), 3.0),
        ]),
    ]);
    g.bench_function("indian_gpa_joint_query", |b| {
        b.iter(|| black_box(gpa_model.prob(&joint).unwrap()))
    });
    let hmm_model = hmm::hierarchical_hmm(50).compile(&f).unwrap();
    let q = hmm::hidden_state_event(49);
    g.bench_function("hmm_50_marginal", |b| {
        b.iter(|| black_box(hmm_model.prob(&q).unwrap()))
    });
    g.finish();
}

fn bench_condition(c: &mut Criterion) {
    let mut g = c.benchmark_group("condition");
    g.sample_size(20);
    let gpa_model = {
        let f = Factory::new();
        indian_gpa::model().compile(&f).unwrap()
    };
    g.bench_function("indian_gpa_fig2f", |b| {
        let e = indian_gpa::condition_event();
        b.iter(|| {
            // Fresh factory per iteration so memoization does not collapse
            // the measurement to a cache lookup.
            let f = Factory::new();
            black_box(condition(&f, &gpa_model, &e).unwrap())
        })
    });
    g.finish();
}

/// Repeated HMM smoothing through the memoized query engine vs the
/// per-call-memo path — the workload behind the fig3 cached/uncached
/// comparison.
fn bench_query_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("query_engine");
    g.sample_size(10);
    let n = 20;
    let factory = Factory::new();
    let model = hmm::hierarchical_hmm(n).compile(&factory).unwrap();
    let trace = {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        hmm::simulate_trace(&mut StdRng::seed_from_u64(7), n)
    };
    let posterior = constrain(
        &factory,
        &model,
        &hmm::observation_assignment(&trace.x, &trace.y),
    )
    .unwrap();
    let queries = hmm::smoothing_queries(n);
    g.bench_function("hmm20_smoothing_uncached", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| posterior.prob(q).unwrap())
                .map(black_box)
                .collect::<Vec<f64>>()
        })
    });
    // The session outlives the iterations, so all passes after the first
    // are answered from its memo — the steady state of a query server.
    let model = Model::new(factory, posterior);
    g.bench_function("hmm20_smoothing_cached", |b| {
        b.iter(|| black_box(model.prob_many(&queries).unwrap()))
    });
    // Cold-memo batch through the query route (the fig3 measurement at
    // micro-benchmark granularity). The wide batch adds the pairwise
    // persistence queries.
    let wide: Vec<Event> = {
        let mut b = queries.clone();
        b.extend(hmm::pairwise_queries(n));
        b
    };
    g.bench_function("hmm20_wide_cold_sequential", |b| {
        b.iter(|| {
            model.clear_caches();
            black_box(model.logprob_many(&wide).unwrap())
        })
    });
    g.finish();
}

fn bench_fairness(c: &mut Criterion) {
    let mut g = c.benchmark_group("fairness_exact");
    g.sample_size(10);
    for dt in [fairness::DecisionTree::Dt4, fairness::DecisionTree::Dt44] {
        let task = fairness::task(dt, fairness::Population::BayesNet1);
        g.bench_function(task.name.clone(), |b| {
            b.iter(|| {
                let f = Factory::new();
                let spe = task.model.compile(&f).unwrap();
                black_box(fairness::fairness_ratio(&spe).unwrap())
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_translate,
    bench_prob,
    bench_condition,
    bench_query_engine,
    bench_fairness
);
criterion_main!(benches);
