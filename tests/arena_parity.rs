//! Differential proptest: [`Model`] queries, answered by the arena
//! evaluator behind the session's query route, are bit-identical
//! (`to_bits` equality) to the tree walker [`Spe::logprob`] on the
//! canonical event — on random mixed discrete/continuous models, on
//! random event batteries (conjunctions, disjunctions, transform
//! literals, derived variables), on *posteriors* obtained through
//! `condition` and `condition_chain`, and on the paper's golden
//! Indian-GPA values. Errors must agree too: same variant, same rendered
//! message.

use proptest::prelude::*;
use sppl::core::spe::Env;
use sppl::prelude::*;

/// A generated model: a mixture of two products over the same variables
/// (real mixture `X` with an optional derived `Y = X²`, an integer leaf
/// `N`, a nominal leaf `L`, an atomic leaf `A`), or — when `product` is
/// off — just the `X` mixture alone (exercising the product-free arena
/// path, where every node sees the full event).
#[derive(Debug, Clone)]
struct Spec {
    product: bool,
    env: bool,
    /// Per-branch real-mixture components as `(mean, weight)` codes.
    comps: Vec<(u32, u32)>,
    comps2: Vec<(u32, u32)>,
    int_dist: u32,
    label_w: (u32, u32),
    atom_loc: u32,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (
        (any::<bool>(), any::<bool>()),
        prop::collection::vec((0..80u32, 1..20u32), 1..4),
        prop::collection::vec((0..80u32, 1..20u32), 1..4),
        0..3u32,
        (1..10u32, 1..10u32),
        0..6u32,
    )
        .prop_map(
            |((product, env), comps, comps2, int_dist, label_w, atom_loc)| Spec {
                product,
                env,
                comps,
                comps2,
                int_dist,
                label_w,
                atom_loc,
            },
        )
}

fn real_mixture(f: &Factory, env: bool, comps: &[(u32, u32)]) -> Spe {
    let children: Vec<(Spe, f64)> = comps
        .iter()
        .map(|&(mean_code, w_code)| {
            let mean = f64::from(mean_code) / 10.0 - 4.0;
            let dist = Distribution::Real(
                DistReal::new(Cdf::normal(mean, 1.0), Interval::all()).expect("positive mass"),
            );
            let leaf = if env {
                f.leaf_env(
                    Var::new("X"),
                    dist,
                    Env::new().with(Var::new("Y"), var("X").pow_int(2)),
                )
                .expect("well-formed env")
            } else {
                f.leaf(Var::new("X"), dist)
            };
            (leaf, f64::from(w_code).ln())
        })
        .collect();
    f.sum(children).expect("well-formed mixture")
}

fn build_model(spec: &Spec) -> Model {
    let f = Factory::new();
    let root = if spec.product {
        let branch = |comps: &[(u32, u32)]| {
            let x = real_mixture(&f, spec.env, comps);
            let cdf = match spec.int_dist {
                0 => Cdf::poisson(3.0),
                1 => Cdf::discrete_uniform(0, 5),
                _ => Cdf::binomial(8, 0.4),
            };
            let n = f.leaf(
                Var::new("N"),
                Distribution::Int(DistInt::new(cdf, 0.0, f64::INFINITY).expect("positive mass")),
            );
            let (wa, wb) = spec.label_w;
            let l = f.leaf(
                Var::new("L"),
                Distribution::Str(
                    DistStr::new([("a", f64::from(wa)), ("b", f64::from(wb))])
                        .expect("positive mass"),
                ),
            );
            let a = f.leaf(
                Var::new("A"),
                Distribution::Atomic {
                    loc: f64::from(spec.atom_loc),
                },
            );
            f.product(vec![x, n, l, a]).expect("disjoint scopes")
        };
        let b1 = branch(&spec.comps);
        let b2 = branch(&spec.comps2);
        f.sum(vec![(b1, 0.4f64.ln()), (b2, 0.6f64.ln())])
            .expect("well-formed mixture of products")
    } else {
        real_mixture(&f, spec.env, &spec.comps)
    };
    Model::new(f, root)
}

/// The event battery for a generated model: atoms over every variable
/// (including transform literals and the derived `Y` when present),
/// conjunctions, disjunctions, nested combinations, tautologies, and
/// contradictions.
fn battery(spec: &Spec, t: f64) -> Vec<Event> {
    let mut atoms = vec![
        var("X").le(t),
        var("X").gt(t - 1.0),
        var("X").in_interval(Interval::open(t - 1.0, t + 1.0)),
        var("X").pow_int(2).le(t.abs() + 1.0),
        var("X").abs().gt(0.5),
    ];
    if spec.env {
        atoms.push(var("Y").le(t.abs() + 2.0));
        atoms.push(var("Y").gt(1.0));
    }
    if spec.product {
        atoms.push(var("N").eq(2.0));
        atoms.push(var("N").le(3.0));
        atoms.push(var("L").eq("a"));
        atoms.push(var("L").ne("b"));
        atoms.push(var("A").eq(f64::from(spec.atom_loc)));
        atoms.push(var("A").gt(f64::from(spec.atom_loc)));
    }
    let mut events = atoms.clone();
    let n = atoms.len();
    events.push(atoms[0].clone() & atoms[1 % n].clone());
    events.push(atoms[0].clone() | atoms[2 % n].clone());
    events.push((atoms[1 % n].clone() & atoms[3 % n].clone()) | atoms[n - 1].clone());
    events.push(atoms[n - 2].clone() & (atoms[0].clone() | atoms[n - 1].clone()));
    events.push(Event::and(atoms.clone()));
    events.push(Event::or(atoms));
    events.push(Event::always());
    events.push(Event::never());
    // A contradiction the clause solver must prune entirely.
    events.push(var("X").le(-1.0) & var("X").gt(1.0));
    events
}

/// The tree walker's answer on the canonical event: the reference every
/// `Model` answer must equal bit for bit.
fn tree_logprob(model: &Model, event: &Event) -> Result<f64, SpplError> {
    model.root().logprob(&event.canonical())
}

fn assert_bit_parity(model: &Model, events: &[Event]) {
    let fast = model.logprob_many(events).expect("battery evaluates");
    for (event, fast) in events.iter().zip(&fast) {
        let slow = tree_logprob(model, event).expect("battery evaluates");
        assert_eq!(
            fast.to_bits(),
            slow.to_bits(),
            "arena diverged from tree walker on {event:?} (arena {fast}, tree {slow})"
        );
    }
    // The probability surface shares the same exp/clamp epilogue.
    let fast_p = model.prob_many(events).expect("battery evaluates");
    for (event, fast_p) in events.iter().zip(&fast_p) {
        let slow_p = tree_logprob(model, event).expect("battery evaluates");
        let slow_p = slow_p.exp().clamp(0.0, 1.0);
        assert_eq!(fast_p.to_bits(), slow_p.to_bits(), "prob on {event:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_models_answer_bit_identically(spec in spec_strategy(), t_code in 0..60u32) {
        let t = f64::from(t_code) / 10.0 - 3.0;
        let model = build_model(&spec);
        assert_bit_parity(&model, &battery(&spec, t));
    }

    #[test]
    fn posteriors_answer_bit_identically(spec in spec_strategy(), t_code in 0..60u32) {
        let t = f64::from(t_code) / 10.0 - 3.0;
        let model = build_model(&spec);
        let events = battery(&spec, t);

        // condition: the posterior is itself a Model; its arena must
        // agree with its tree walker bit for bit.
        let evidence = var("X").le(t + 0.5);
        let posterior = model.condition(&evidence).expect("positive probability");
        assert_bit_parity(&posterior, &events);

        // condition_chain: same closure property, deeper posterior.
        if let Ok(chained) = model.condition_chain(&[
            var("X").gt(t - 2.0),
            var("X").le(t + 2.0),
        ]) {
            assert_bit_parity(&chained, &events);
        }
    }

    #[test]
    fn errors_agree_with_tree_walker(spec in spec_strategy(), t_code in 0..60u32) {
        let t = f64::from(t_code) / 10.0 - 3.0;
        let model = build_model(&spec);
        // Unknown variable, alone and mixed into valid structure: same
        // variant, same message, regardless of position.
        for bad in [
            var("Zzz").le(0.0),
            var("Zzz").le(0.0) & var("X").le(t),
            var("X").gt(t) | var("Zzz").eq(1.0),
        ] {
            let tree = tree_logprob(&model, &bad).expect_err("unknown variable");
            let fast = model.logprob(&bad).expect_err("unknown variable");
            prop_assert_eq!(format!("{tree}"), format!("{fast}"));
        }
        // A failing batch reports the first failing event's error.
        let batch = vec![var("X").le(t), var("Zzz").le(0.0)];
        let tree = tree_logprob(&model, &batch[1]).expect_err("unknown variable");
        let fast = model.logprob_many(&batch).expect_err("unknown variable");
        prop_assert_eq!(format!("{tree}"), format!("{fast}"));
    }
}

/// The paper's golden values (Fig. 2, the Indian GPA problem) through
/// the arena: exact probabilities survive compilation, and every answer
/// still matches the tree walker bit for bit.
#[test]
fn paper_golden_values_through_the_arena() {
    let model = Model::compile(
        r#"
        Nationality ~ choice({'India': 0.5, 'USA': 0.5})
        if (Nationality == 'India') {
            Perfect ~ bernoulli(p=0.10)
            if (Perfect == 1) { GPA ~ atomic(10) } else { GPA ~ uniform(0, 10) }
        } else {
            Perfect ~ bernoulli(p=0.15)
            if (Perfect == 1) { GPA ~ atomic(4) } else { GPA ~ uniform(0, 4) }
        }
    "#,
    )
    .expect("paper model compiles");

    // P[GPA ≤ 4] = 0.68 exactly (atom at 4 included).
    let p = model.prob(&var("GPA").le(4.0)).unwrap();
    assert!((p - 0.68).abs() < 1e-9, "got {p}");

    let queries = vec![
        var("GPA").le(4.0),
        var("GPA").lt(4.0),
        var("GPA").eq(10.0),
        var("GPA").in_interval(Interval::open(8.0, 10.0)),
        var("Nationality").eq("India"),
        (var("Nationality").eq("USA") & var("GPA").gt(3.0)) | var("GPA").gt(9.5),
    ];
    assert_bit_parity(&model, &queries);

    // The Fig. 2f/2g posterior, answered through the posterior Model's
    // own arena: P[Nationality = India | evidence] ≈ 0.3318.
    let evidence = (var("Nationality").eq("USA") & var("GPA").gt(3.0))
        | var("GPA").in_interval(Interval::open(8.0, 10.0));
    let posterior = model.condition(&evidence).unwrap();
    let p_india = posterior.prob(&var("Nationality").eq("India")).unwrap();
    assert!((p_india - 0.3318).abs() < 1e-3, "got {p_india}");
    assert_bit_parity(&posterior, &queries);
}
