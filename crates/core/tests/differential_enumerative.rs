//! Differential testing of the memoized [`Model`] query route against the
//! structure-blind enumerative baseline: both are exact engines for the
//! same semantics, so on any discrete program they can both solve their
//! answers must agree to floating-point tolerance — cold, warm, and
//! through Bayes' rule.

use proptest::prelude::*;

use sppl_baseline::enumerative::{Data, EnumOutcome, EnumerativeEngine};
use sppl_core::event::Event;
use sppl_core::transform::Transform;
use sppl_core::var::Var;
use sppl_core::{Factory, Model};
use sppl_lang::compile;

/// One generated variable: `p1`/`p0` index the probability grid; `kind`
/// selects independent (`!= 0` on the first variable is coerced) vs
/// dependent-on-previous sampling.
type VarSpec = (usize, usize, usize);

/// A literal pick: variable selector (reduced modulo the program's
/// variable count) and the boolean value to compare against.
type LitSpec = (usize, bool);

fn grid(p_index: usize) -> f64 {
    // 19-point grid 0.05..=0.95: avoids degenerate zero/one branches.
    (p_index % 19 + 1) as f64 * 0.05
}

/// Renders a generated spec as SPPL source: a chain of bernoulli
/// variables, each optionally branching on its predecessor.
fn build_source(spec: &[VarSpec]) -> String {
    let mut src = String::new();
    for (i, &(kind, p1, p0)) in spec.iter().enumerate() {
        if i == 0 || kind == 0 {
            src.push_str(&format!("V{i} ~ bernoulli(p={:.2})\n", grid(p1)));
        } else {
            src.push_str(&format!(
                "if (V{prev} == 1) {{ V{i} ~ bernoulli(p={:.2}) }} \
                 else {{ V{i} ~ bernoulli(p={:.2}) }}\n",
                grid(p1),
                grid(p0),
                prev = i - 1,
            ));
        }
    }
    src
}

fn literal(k: usize, &(pick, value): &LitSpec) -> Event {
    Event::eq_real(
        Transform::id(Var::new(format!("V{}", pick % k))),
        f64::from(u8::from(value)),
    )
}

/// Builds an event over `k` variables: a conjunction, a disjunction, or a
/// conjunction containing a nested disjunction.
fn build_event(k: usize, shape: usize, lits: &[LitSpec]) -> Event {
    let literals: Vec<Event> = lits.iter().map(|l| literal(k, l)).collect();
    match shape % 3 {
        0 => Event::and(literals),
        1 => Event::or(literals),
        _ => {
            let (head, tail) = literals.split_first().expect("at least one literal");
            if tail.is_empty() {
                head.clone()
            } else {
                Event::and(vec![head.clone(), Event::or(tail.to_vec())])
            }
        }
    }
}

fn enum_prob(source: &str, event: &Event) -> f64 {
    let engine = EnumerativeEngine::default();
    match engine
        .query(source, &Data::None, event)
        .expect("enumerative query on a tiny discrete program")
    {
        EnumOutcome::Solved { value, .. } => value,
        EnumOutcome::ResourceExhausted { terms, .. } => {
            panic!("enumerative engine exhausted at {terms} terms on a tiny program")
        }
    }
}

fn query_engine(source: &str) -> Model {
    let factory = Factory::new();
    let spe = compile(&factory, source).expect("generated program compiles");
    Model::new(factory, spe)
}

fn var_spec() -> impl Strategy<Value = VarSpec> {
    (0..2usize, 0..19usize, 0..19usize)
}

fn lit_specs() -> impl Strategy<Value = Vec<LitSpec>> {
    prop::collection::vec((0..16usize, any::<bool>()), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn logprob_agrees_with_enumerative(
        spec in prop::collection::vec(var_spec(), 2..5),
        shape in 0..3usize,
        lits in lit_specs(),
    ) {
        let source = build_source(&spec);
        let query = build_event(spec.len(), shape, &lits);
        let expected = enum_prob(&source, &query);

        let engine = query_engine(&source);
        let cold = engine.prob(&query).unwrap();
        let warm = engine.prob(&query).unwrap();
        prop_assert_eq!(
            cold.to_bits(), warm.to_bits(),
            "warm result must be bit-identical (cold={}, warm={})", cold, warm
        );
        prop_assert!(
            (cold - expected).abs() < 1e-9,
            "engines disagree: engine={} enumerative={}\n{}", cold, expected, source
        );
        // The batched API answers the same query from the same cache.
        let batch = engine.logprob_many(std::slice::from_ref(&query)).unwrap();
        prop_assert_eq!(batch[0].exp().clamp(0.0, 1.0).to_bits(), cold.to_bits());
    }

    #[test]
    fn condition_then_logprob_obeys_bayes_rule(
        spec in prop::collection::vec(var_spec(), 2..5),
        evidence_lits in lit_specs(),
        query_lits in lit_specs(),
        shapes in (0..3usize, 0..3usize),
    ) {
        let source = build_source(&spec);
        let evidence = build_event(spec.len(), shapes.0, &evidence_lits);
        let query = build_event(spec.len(), shapes.1, &query_lits);

        // Bayes' rule through the baseline: P(q | e) = P(q ∧ e) / P(e).
        let p_evidence = enum_prob(&source, &evidence);
        prop_assume!(p_evidence > 1e-3);
        let p_joint = enum_prob(
            &source,
            &Event::and(vec![query.clone(), evidence.clone()]),
        );
        let expected = p_joint / p_evidence;

        let engine = query_engine(&source);
        let posterior = engine.condition_chain(std::slice::from_ref(&evidence)).unwrap();
        let via_engine = posterior.prob(&query).unwrap();
        prop_assert!(
            (via_engine - expected).abs() < 1e-9,
            "Bayes mismatch: condition-then-query={} joint/evidence={}\n{}",
            via_engine, expected, source
        );
        // Conditioning twice hits the chain cache and returns the same node.
        let again = engine.condition(&evidence).unwrap();
        prop_assert!(again.root().same(posterior.root()));
    }
}
