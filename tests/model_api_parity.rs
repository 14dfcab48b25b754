//! API-parity suite: every [`Model`] query must be **bit-identical** to
//! the legacy path on the paper's models — a hand-threaded
//! `Factory`/`Spe` pair, the free `condition`/`constrain` functions, and
//! the tree walker [`Spe::logprob`] on the canonical event. Also pins the
//! redesign's headline guarantees: posteriors share the parent's factory
//! pointer-identically, and a conditioning chain keeps serving (and
//! filling) the parent's [`SharedCache`].

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sppl::models::{hmm, indian_gpa};
use sppl::prelude::*;

mod common;
use common::{build_event, build_source, lit_specs, var_spec};

/// The Fig. 2 evidence, in DSL form.
fn gpa_evidence() -> Event {
    (var("Nationality").eq("USA") & var("GPA").gt(3.0))
        | var("GPA").in_interval(Interval::open(8.0, 10.0))
}

/// The legacy answer: the tree walker on the canonical event.
fn tree(spe: &Spe, event: &Event) -> f64 {
    spe.logprob(&event.canonical()).unwrap()
}

/// `tree`'s probability, with the clamp every `prob` applies.
fn tree_prob(spe: &Spe, event: &Event) -> f64 {
    tree(spe, event).exp().clamp(0.0, 1.0)
}

/// A spread of Indian-GPA queries touching atoms, intervals, nominals,
/// and conjunctions/disjunctions.
fn gpa_queries() -> Vec<Event> {
    vec![
        var("GPA").le(4.0),
        var("GPA").lt(4.0),
        var("GPA").in_interval(Interval::open(8.0, 10.0)),
        var("Nationality").eq("India"),
        var("Perfect").eq(1.0),
        var("Perfect").eq(1.0) | (var("Nationality").eq("India") & var("GPA").gt(3.0)),
        gpa_evidence(),
    ]
}

#[test]
fn indian_gpa_model_matches_legacy_path_bit_for_bit() {
    let source = indian_gpa::model().source;

    // One compiled artifact, two API surfaces. (Bit-identity across
    // *separately compiled* copies is covered — also exactly — by
    // `independently_compiled_session_agrees_bit_for_bit`.)
    let factory = Arc::new(Factory::new());
    let spe = compile(&factory, &source).expect("compiles");

    // Session-first.
    let model = Model::new(Arc::clone(&factory), spe.clone());

    for q in gpa_queries() {
        assert_eq!(
            tree(&spe, &q).to_bits(),
            model.logprob(&q).unwrap().to_bits(),
            "logprob diverged on {q}"
        );
        assert_eq!(
            tree_prob(&spe, &q).to_bits(),
            model.prob(&q).unwrap().to_bits(),
            "prob diverged on {q}"
        );
    }

    // Batched variants agree with the legacy path too.
    let batch = gpa_queries();
    let model_many = model.logprob_many(&batch).unwrap();
    let model_probs = model.prob_many(&batch).unwrap();
    for (i, q) in batch.iter().enumerate() {
        assert_eq!(tree(&spe, q).to_bits(), model_many[i].to_bits());
        assert_eq!(tree_prob(&spe, q).to_bits(), model_probs[i].to_bits());
    }

    // Posterior parity: the free condition() hands back a bare Spe; the
    // model's posterior must answer identically (and from an identical
    // expression — conditioning is memoized in the shared factory).
    let evidence = gpa_evidence();
    let legacy_posterior = condition(&factory, &spe, &evidence.canonical()).unwrap();
    let model_posterior = model.condition(&evidence).unwrap();
    assert!(legacy_posterior.same(model_posterior.root()));
    for q in gpa_queries() {
        assert_eq!(
            tree(&legacy_posterior, &q).to_bits(),
            model_posterior.logprob(&q).unwrap().to_bits(),
            "posterior logprob diverged on {q}"
        );
    }

    // Sampling parity: same structure + same seed ⇒ same draws.
    let mut rng_a = StdRng::seed_from_u64(7);
    let mut rng_b = StdRng::seed_from_u64(7);
    for _ in 0..32 {
        assert_eq!(
            legacy_posterior.sample(&mut rng_a),
            model_posterior.sample(&mut rng_b)
        );
    }
}

#[test]
fn hmm_smoothing_matches_legacy_path_bit_for_bit() {
    const N: usize = 12;
    let source = hmm::hierarchical_hmm(N).source;
    let mut rng = StdRng::seed_from_u64(4242);
    let trace = hmm::simulate_trace(&mut rng, N);
    let observations = hmm::observation_assignment(&trace.x, &trace.y);

    // One compiled artifact, two surfaces (see the Indian-GPA test).
    let factory = Arc::new(Factory::new());
    let spe = compile(&factory, &source).expect("compiles");

    // Legacy: constrain through the free function, query the posterior
    // with the tree walker.
    let legacy_posterior = constrain(&factory, &spe, &observations).expect("positive density");

    // Session-first: constrain returns the posterior session directly.
    let model = Model::new(Arc::clone(&factory), spe);
    let posterior = model.constrain(&observations).expect("positive density");

    let mut batch = hmm::smoothing_queries(N);
    batch.extend(hmm::pairwise_queries(N));
    let model_answers = posterior.logprob_many(&batch).unwrap();
    for (i, q) in batch.iter().enumerate() {
        assert_eq!(
            tree(&legacy_posterior, q).to_bits(),
            model_answers[i].to_bits(),
            "smoothing query {i} diverged"
        );
    }

    // condition_chain parity against stepwise free-function conditioning
    // of the same posterior, including the documented empty-chain
    // identity.
    let chain = [hmm::hidden_state_event(0), hmm::hidden_state_event(1)];
    let legacy_chained = chain.iter().fold(legacy_posterior, |spe, e| {
        condition(&factory, &spe, &e.canonical()).unwrap()
    });
    let model_chained = posterior.condition_chain(&chain).unwrap();
    let probe = hmm::hidden_state_event(2);
    assert_eq!(
        tree(&legacy_chained, &probe).to_bits(),
        model_chained.logprob(&probe).unwrap().to_bits()
    );
    assert!(posterior
        .condition_chain(&[])
        .unwrap()
        .root()
        .same(posterior.root()));
}

#[test]
fn independently_compiled_session_agrees_bit_for_bit() {
    // `Model::compile` builds its own factory; answers must agree with a
    // hand-threaded compilation *exactly*. Sum children are canonically
    // ordered by (content digest, weight) at construction, so evaluation
    // order — and therefore every log-sum-exp rounding — is a function of
    // model content alone, not of pointer addresses: separately compiled
    // copies of one source produce bit-identical answers, with no shared
    // cache papering over a last ulp.
    let source = indian_gpa::model().source;
    let factory = Factory::new();
    let spe = compile(&factory, &source).expect("compiles");
    let model = Model::compile(&source).expect("compiles");
    assert_eq!(spe.digest(), model.model_digest());
    for q in gpa_queries() {
        let a = tree_prob(&spe, &q);
        let b = model.prob(&q).unwrap();
        assert_eq!(a.to_bits(), b.to_bits(), "{q}: {a} vs {b}");
        let (la, lb) = (tree(&spe, &q), model.logprob(&q).unwrap());
        assert_eq!(la.to_bits(), lb.to_bits(), "{q}: logprob {la} vs {lb}");
    }
    // The guarantee survives conditioning: posteriors derived in each
    // compilation answer identically too (condition re-normalizes sums,
    // which re-canonicalizes them by content).
    let legacy_post = condition(&factory, &spe, &gpa_evidence().canonical()).unwrap();
    let model_post = model.condition(&gpa_evidence()).unwrap();
    assert_eq!(
        legacy_post.digest(),
        model_post.root().digest(),
        "posterior content must be digest-identical across compiles"
    );
    for q in gpa_queries() {
        assert_eq!(
            tree(&legacy_post, &q).to_bits(),
            model_post.logprob(&q).unwrap().to_bits(),
            "posterior diverged on {q}"
        );
    }
}

#[test]
fn condition_chain_shares_factory_and_serves_shared_cache_hits() {
    let cache = Arc::new(SharedCache::new(1024));
    let model = indian_gpa::model()
        .session()
        .expect("compiles")
        .with_shared_cache(Arc::clone(&cache));

    // A two-step conditioning chain; every link must keep the parent's
    // factory pointer-identically (one intern table, warm node memos).
    let step1 = model.condition(&var("GPA").gt(3.0)).unwrap();
    let step2 = step1.condition(&var("Nationality").eq("USA")).unwrap();
    assert!(Arc::ptr_eq(model.factory_arc(), step1.factory_arc()));
    assert!(Arc::ptr_eq(model.factory_arc(), step2.factory_arc()));
    assert!(step2.shared_cache().is_some());

    // The posterior's queries key the shared cache under the posterior's
    // own digest (≠ parent's, the distributions differ)…
    assert_ne!(model.model_digest(), step1.model_digest());
    assert_ne!(step1.model_digest(), step2.model_digest());
    let probe = var("Perfect").eq(1.0);
    let before = cache.stats();
    let first = step2.prob(&probe).unwrap();
    assert_eq!(
        cache.stats().entries,
        before.entries + 1,
        "posterior query must fill the shared cache"
    );

    // …so a *separately derived* copy of the same posterior — the second
    // session of a serving deployment re-running the same chain — is
    // answered from the shared cache without touching the evaluator.
    let twin = model
        .condition(&var("GPA").gt(3.0))
        .unwrap()
        .condition(&var("Nationality").eq("USA"))
        .unwrap();
    assert_eq!(twin.model_digest(), step2.model_digest());
    let hits_before = cache.stats().hits;
    let second = twin.prob(&probe).unwrap();
    assert_eq!(first.to_bits(), second.to_bits());
    assert_eq!(
        cache.stats().hits,
        hits_before + 1,
        "rerun chain must be served from the shared cache"
    );
    // The shared cache is the twin's one store: its answer is the twin's
    // hit, and nothing is kept beside it.
    let s = twin.stats();
    assert_eq!((s.hits, s.misses, s.entries), (1, 0, 0));
    twin.prob(&probe).unwrap();
    assert_eq!(twin.stats().hits, 2);
}

#[test]
fn posterior_queries_reuse_parent_factory_node_memos() {
    // A posterior shares its parent's factory, so conditioning anywhere
    // along a chain fills and reuses one node-level memo. Queries answer
    // through each session's memo and arena and leave that node-level
    // memo untouched.
    let model = indian_gpa::model().session().expect("compiles");
    let posterior = model.condition(&var("GPA").gt(3.0)).unwrap();
    assert!(Arc::ptr_eq(model.factory_arc(), posterior.factory_arc()));
    let before = model.factory().prob_cache_stats();
    assert!(
        before.entries > 0,
        "conditioning a mixture weighs its children through the node memo"
    );
    model.prob(&var("GPA").le(4.0)).unwrap();
    posterior.prob(&var("GPA").le(4.0)).unwrap();
    assert_eq!(
        posterior.factory().prob_cache_stats(),
        before,
        "queries must leave the shared node-level memo unchanged"
    );
}

#[test]
fn twin_models_condition_identically_when_dedup_is_off() {
    use sppl::core::spe::FactoryOptions;

    // With dedup off, two compiles of one source live at distinct
    // addresses; conditioning each must still give content-identical
    // posteriors that answer bit for bit alike.
    let factory = Arc::new(Factory::with_options(FactoryOptions {
        dedup: false,
        factorize: true,
        memoize: true,
    }));
    let source = indian_gpa::model().source;
    let a = compile(&factory, &source).expect("compiles");
    let b = compile(&factory, &source).expect("compiles");
    assert!(!a.same(&b), "dedup off: twin compiles are distinct nodes");
    assert_eq!(a.digest(), b.digest(), "…but content-identical");

    let evidence = gpa_evidence();
    let pa = condition(&factory, &a, &evidence).unwrap();
    let pb = condition(&factory, &b, &evidence).unwrap();
    assert_eq!(
        pa.digest(),
        pb.digest(),
        "twin posteriors must share content"
    );

    let twin = Model::new(factory, pb);
    for q in gpa_queries() {
        assert_eq!(
            tree(&pa, &q).to_bits(),
            twin.logprob(&q).unwrap().to_bits(),
            "posterior answers diverged on {q}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random mixed models: two separately compiled sessions, each
    /// conditioned on the calling thread, agree bit for bit — posterior
    /// digests and query answers.
    #[test]
    fn separately_compiled_sessions_condition_identically_on_random_models(
        spec in prop::collection::vec(var_spec(), 2..6),
        shapes in (0..3usize, 0..3usize),
        query_lits in lit_specs(),
        evidence_lits in lit_specs(),
    ) {
        let (source, discrete) = build_source(&spec);
        let query = build_event(&discrete, shapes.0, &query_lits);
        let evidence = build_event(&discrete, shapes.1, &evidence_lits);

        let first = Model::compile(&source).expect("generated program compiles");
        if first.prob(&evidence).unwrap() > 1e-9 {
            let second = Model::compile(&source).expect("generated program compiles");
            prop_assert!(
                !Arc::ptr_eq(first.factory_arc(), second.factory_arc()),
                "each compile owns its factory"
            );

            let first_post = first.condition(&evidence).unwrap();
            let second_post = second.condition(&evidence).unwrap();
            prop_assert_eq!(
                first_post.model_digest(), second_post.model_digest(),
                "posterior digests diverged\n{}", source
            );
            let q1 = first_post.logprob(&query).unwrap();
            let q2 = second_post.logprob(&query).unwrap();
            prop_assert_eq!(
                q1.to_bits(), q2.to_bits(),
                "posterior logprob diverged: {} vs {}\n{}", q1, q2, source
            );
        }
    }
}
