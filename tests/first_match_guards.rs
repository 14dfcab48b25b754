//! First-match guards solve like the conjunctions they stand for.
//!
//! `first_match_guards` gives every arm of a chain over one subject a
//! single literal `t ∈ rem ∩ S_i`, where `rem` is what no earlier guard
//! matched. On random chains over one transformed subject, each such
//! literal (and the `else` literal) must solve to the same outcome set,
//! the same probability bits and the same posterior as the conjunction
//! `¬g₀ ∧ … ∧ ¬g_{i−1} ∧ g_i`, on a model whose `X` mixes a normal with
//! atoms on the guards' grid. `tests/branch_chain_bits.rs` pins whole
//! programs; this covers the guard shapes those programs do not.

use proptest::prelude::*;
use sppl::lang::translate::first_match_guards;
use sppl::prelude::*;

/// The conjunction form of a chain's first-match guards, which the
/// one-literal guards must match: arm `i` is `¬g₀ ∧ … ∧ ¬g_{i−1} ∧ g_i`
/// and the `else` is `¬g₀ ∧ … ∧ ¬g_{K−1}`.
fn conjunction_guards(guards: &[Event]) -> (Vec<Event>, Event) {
    let mut arms = Vec::new();
    let mut negations = Vec::new();
    for guard in guards {
        let mut parts: Vec<Event> = negations.clone();
        parts.push(guard.clone());
        arms.push(Event::and(parts));
        negations.push(guard.negate());
    }
    (arms, Event::and(negations))
}

/// The chain's subject: `X`, `X**2`, `2*X + 1` or `X**3`.
fn subject(kind: u8) -> Transform {
    let x = Transform::id(Var::new("X"));
    match kind % 4 {
        0 => x,
        1 => x.pow_int(2),
        2 => x.mul_const(2.0).add_const(1.0),
        _ => x.pow_int(3),
    }
}

/// One guard on `t`: a comparison, (in)equality or closed interval at
/// half-integer constants, so guards share endpoints and hit atoms.
fn guard(t: &Transform, (op, c, width): (u8, i8, u8)) -> Event {
    let c = f64::from(c) / 2.0;
    let t = t.clone();
    match op % 7 {
        0 => Event::lt(t, c),
        1 => Event::le(t, c),
        2 => Event::gt(t, c),
        3 => Event::ge(t, c),
        4 => Event::eq_real(t, c),
        5 => Event::eq_real(t, c).negate(),
        _ => Event::in_interval(t, Interval::closed(c, c + f64::from(width) / 2.0)),
    }
}

/// `X` as a mixture of a normal and atoms on the guards' grid.
fn mixed_x(f: &Factory) -> Spe {
    let x = Var::new("X");
    let normal = f.leaf(
        x.clone(),
        Distribution::Real(
            DistReal::new(Cdf::normal(0.0, 2.0), Interval::all()).expect("positive mass"),
        ),
    );
    let atom = |loc: f64| f.leaf(x.clone(), Distribution::Atomic { loc });
    f.sum(vec![
        (normal, 0.5f64.ln()),
        (atom(0.0), 0.2f64.ln()),
        (atom(1.5), 0.2f64.ln()),
        (atom(-1.0), 0.1f64.ln()),
    ])
    .expect("mixture")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_literal_guards_solve_like_conjunctions(
        kind in 0u8..4,
        specs in prop::collection::vec((0u8..7, -6i8..7, 1u8..5), 1..7),
    ) {
        let t = subject(kind);
        let guards: Vec<Event> = specs.iter().map(|&s| guard(&t, s)).collect();
        let (arms, otherwise) = first_match_guards(&guards);
        let (want_arms, want_otherwise) = conjunction_guards(&guards);
        let f = Factory::new();
        let spe = mixed_x(&f);
        let x = Var::new("X");
        let pairs = arms.iter().zip(&want_arms).chain([(&otherwise, &want_otherwise)]);
        for (got, want) in pairs {
            prop_assert!(matches!(got, Event::In(..)), "not one literal: {got:?}");
            prop_assert_eq!(got.outcomes_for(&x), want.outcomes_for(&x));
            let lp = f.logprob(&spe, got).expect("guard logprob");
            let want_lp = f.logprob(&spe, want).expect("reference logprob");
            prop_assert_eq!(lp.to_bits(), want_lp.to_bits());
            if lp > f64::NEG_INFINITY {
                let post = condition(&f, &spe, got).expect("posterior");
                let want_post = condition(&f, &spe, want).expect("reference posterior");
                prop_assert_eq!(post.digest(), want_post.digest());
            }
        }
    }
}
