//! End-to-end translation tests: parse → translate → query, checked
//! against hand-computed probabilities and the paper's worked examples.

use sppl_core::condition::condition;
use sppl_core::prelude::*;
use sppl_lang::{compile, parse, translate, untranslate};

fn ev_var(name: &str) -> Transform {
    Transform::id(Var::new(name))
}

fn assert_close(a: f64, b: f64, tol: f64) {
    assert!((a - b).abs() <= tol, "{a} vs {b}");
}

#[test]
fn single_normal() {
    let f = Factory::new();
    let m = compile(&f, "X ~ normal(0, 1)").unwrap();
    assert_close(m.prob(&Event::le(ev_var("X"), 0.0)).unwrap(), 0.5, 1e-12);
}

#[test]
fn independent_product() {
    let f = Factory::new();
    let m = compile(&f, "X ~ normal(0, 1)\nY ~ uniform(0, 2)").unwrap();
    let e = Event::and(vec![
        Event::le(ev_var("X"), 0.0),
        Event::le(ev_var("Y"), 1.0),
    ]);
    assert_close(m.prob(&e).unwrap(), 0.25, 1e-12);
}

#[test]
fn derived_transform() {
    let f = Factory::new();
    let m = compile(&f, "X ~ normal(0, 1)\nZ = 2*X + 1").unwrap();
    // Z <= 1 ⇔ X <= 0.
    assert_close(m.prob(&Event::le(ev_var("Z"), 1.0)).unwrap(), 0.5, 1e-12);
}

#[test]
fn chained_transform_of_transform() {
    let f = Factory::new();
    let m = compile(&f, "X ~ normal(0, 1)\nY = X**2\nW = Y + 1").unwrap();
    // W ≤ 2 ⇔ X² ≤ 1.
    assert_close(
        m.prob(&Event::le(ev_var("W"), 2.0)).unwrap(),
        0.6826894921370859,
        1e-9,
    );
}

#[test]
fn if_else_mixture() {
    let f = Factory::new();
    let src = "
X ~ normal(0, 1)
if (X > 0) { Y ~ uniform(0, 1) } else { Y ~ uniform(2, 3) }
";
    let m = compile(&f, src).unwrap();
    // Y < 2 happens exactly when X > 0.
    assert_close(m.prob(&Event::lt(ev_var("Y"), 2.0)).unwrap(), 0.5, 1e-9);
    // Joint: X > 0 and Y > 0.5 → 0.5 * 0.5.
    let joint = Event::and(vec![
        Event::gt(ev_var("X"), 0.0),
        Event::gt(ev_var("Y"), 0.5),
    ]);
    assert_close(m.prob(&joint).unwrap(), 0.25, 1e-9);
}

#[test]
fn condition_statement_truncates() {
    let f = Factory::new();
    let m = compile(&f, "X ~ normal(0, 1)\ncondition(X > 0)").unwrap();
    assert_close(m.prob(&Event::gt(ev_var("X"), 0.0)).unwrap(), 1.0, 1e-12);
}

#[test]
fn bernoulli_and_equality() {
    let f = Factory::new();
    let m = compile(&f, "B ~ bernoulli(p=0.3)").unwrap();
    assert_close(
        m.prob(&Event::eq_real(ev_var("B"), 1.0)).unwrap(),
        0.3,
        1e-12,
    );
}

#[test]
fn choice_strings() {
    let f = Factory::new();
    let m = compile(&f, "N ~ choice({'a': 0.25, 'b': 0.75})").unwrap();
    assert_close(
        m.prob(&Event::eq_str(ev_var("N"), "b")).unwrap(),
        0.75,
        1e-12,
    );
}

#[test]
fn discrete_numeric_mixture() {
    let f = Factory::new();
    let m = compile(&f, "D ~ discrete({1: 0.2, 2: 0.3, 5: 0.5})").unwrap();
    assert_close(m.prob(&Event::le(ev_var("D"), 2.0)).unwrap(), 0.5, 1e-12);
}

#[test]
fn for_loop_unrolls() {
    let f = Factory::new();
    let src = "
X = array(3)
for i in range(0, 3) { X[i] ~ bernoulli(p=0.5) }
";
    let m = compile(&f, src).unwrap();
    let all_ones = Event::and(
        (0..3)
            .map(|i| Event::eq_real(ev_var(&format!("X[{i}]")), 1.0))
            .collect(),
    );
    assert_close(m.prob(&all_ones).unwrap(), 0.125, 1e-12);
}

#[test]
fn switch_over_bernoulli() {
    let f = Factory::new();
    let src = "
Z ~ bernoulli(p=0.25)
switch Z cases (z in [0, 1]) { X ~ normal(10 * z, 1) }
";
    let m = compile(&f, src).unwrap();
    // X > 5 ⇔ (almost surely) Z = 1.
    assert_close(m.prob(&Event::gt(ev_var("X"), 5.0)).unwrap(), 0.25, 1e-6);
}

#[test]
fn switch_runs_only_the_first_case_of_a_repeated_value() {
    // A switch is a first-match chain: the second `0` case can never
    // run, so it must neither reweight the subject's prior nor differ
    // from the switch without it or from the equivalent `elif` chain.
    let f = Factory::new();
    let repeated = compile(
        &f,
        "X ~ randint(0, 3)\nswitch X cases (x in [0, 0, 1, 2, 3]) { Y ~ atomic(x) }",
    )
    .unwrap();
    let distinct = compile(
        &f,
        "X ~ randint(0, 3)\nswitch X cases (x in [0, 1, 2, 3]) { Y ~ atomic(x) }",
    )
    .unwrap();
    let chain = compile(
        &f,
        "X ~ randint(0, 3)
if (X == 0) { Y ~ atomic(0) }
elif (X == 0) { Y ~ atomic(0) }
elif (X == 1) { Y ~ atomic(1) }
elif (X == 2) { Y ~ atomic(2) }
elif (X == 3) { Y ~ atomic(3) }",
    )
    .unwrap();
    for var in ["X", "Y"] {
        let p = repeated.prob(&Event::eq_real(ev_var(var), 0.0)).unwrap();
        assert_close(p, 0.25, 1e-12);
    }
    assert_eq!(repeated.digest(), distinct.digest());
    assert_eq!(repeated.digest(), chain.digest());
}

#[test]
fn first_match_guards_fold_single_subject_chains_into_literals() {
    use sppl_lang::translate::first_match_guards;

    let m = || ev_var("M");
    let a = Event::eq_str(m(), "a");
    let b = Event::eq_str(m(), "b");
    let (arms, otherwise) = first_match_guards(&[a.clone(), b.clone(), a.clone()]);
    // Arm 0 is verbatim; later arms are one literal on the not-yet-matched
    // set, so the repeated `a` is empty and the else excludes both.
    assert_eq!(
        arms,
        vec![
            a.clone(),
            b.clone(),
            Event::in_set(m(), OutcomeSet::empty())
        ]
    );
    assert_eq!(
        otherwise,
        Event::in_set(m(), OutcomeSet::strings(["a", "b"]).complement())
    );

    // A one-arm chain's else is exactly the guard's negation.
    let (arms, otherwise) = first_match_guards(std::slice::from_ref(&a));
    assert_eq!((arms, otherwise), (vec![a.clone()], a.negate()));

    // Mixed subjects keep the conjunction of earlier negations.
    let x = Event::lt(ev_var("X"), 0.0);
    let (arms, otherwise) = first_match_guards(&[x.clone(), a.clone()]);
    assert_eq!(
        arms,
        vec![x.clone(), Event::and(vec![x.negate(), a.clone()])]
    );
    assert_eq!(otherwise, Event::and(vec![x.negate(), a.negate()]));

    // No arms: the else always runs.
    assert_eq!(first_match_guards(&[]), (vec![], Event::always()));
}

#[test]
fn switch_with_binspace() {
    let f = Factory::new();
    let src = "
Mu ~ uniform(0, 10)
switch Mu cases (m in binspace(0, 10, n=5)) { Y ~ normal(m.mean(), 1) }
";
    let m = compile(&f, src).unwrap();
    // The five bins are equiprobable; Y's marginal is a five-component
    // normal mixture with means 1,3,5,7,9.
    let p = m.prob(&Event::le(ev_var("Y"), 5.0)).unwrap();
    assert_close(p, 0.5, 1e-9);
}

#[test]
fn indian_gpa_fig2() {
    // The paper's running example, checked against Eq. (3).
    let f = Factory::new();
    let src = "
Nationality ~ choice({'India': 0.5, 'USA': 0.5})
if (Nationality == 'India') {
    Perfect ~ bernoulli(p=0.10)
    if (Perfect == 1) { GPA ~ atomic(10) }
    else { GPA ~ uniform(0, 10) }
} else {
    Perfect ~ bernoulli(p=0.15)
    if (Perfect == 1) { GPA ~ atomic(4) }
    else { GPA ~ uniform(0, 4) }
}
";
    let m = compile(&f, src).unwrap();
    // Prior marginals (Fig. 2e).
    assert_close(
        m.prob(&Event::eq_str(ev_var("Nationality"), "USA"))
            .unwrap(),
        0.5,
        1e-12,
    );
    assert_close(
        m.prob(&Event::eq_real(ev_var("Perfect"), 1.0)).unwrap(),
        0.125,
        1e-12,
    );
    // Joint query of Fig. 2c: (Perfect == 1) or (Nationality == 'India' and GPA > 3).
    let q = Event::or(vec![
        Event::eq_real(ev_var("Perfect"), 1.0),
        Event::and(vec![
            Event::eq_str(ev_var("Nationality"), "India"),
            Event::gt(ev_var("GPA"), 3.0),
        ]),
    ]);
    // = 0.125 + P[India ∧ ¬Perfect ∧ GPA>3] = 0.125 + 0.5*0.9*0.7
    assert_close(m.prob(&q).unwrap(), 0.125 + 0.315, 1e-9);

    // Condition of Fig. 2f: ((USA ∧ GPA > 3) ∨ (8 < GPA < 10)).
    let e = Event::or(vec![
        Event::and(vec![
            Event::eq_str(ev_var("Nationality"), "USA"),
            Event::gt(ev_var("GPA"), 3.0),
        ]),
        Event::in_interval(ev_var("GPA"), Interval::open(8.0, 10.0)),
    ]);
    let post = condition(&f, &m, &e).unwrap();
    // Posterior marginals (Fig. 2h): Nationality = USA with prob 2/3.
    let p_usa = post
        .prob(&Event::eq_str(ev_var("Nationality"), "USA"))
        .unwrap();
    // P[USA ∧ e] = 0.5*(0.15 + 0.85*0.25) = 0.18125; P[India ∧ e] = 0.5*0.9*0.2 = 0.09.
    let want_usa = 0.181_25 / (0.181_25 + 0.09);
    assert_close(p_usa, want_usa, 1e-9);
    // Perfect posterior: P[Perfect|e] = 0.5*0.15 / 0.27125.
    let p_perfect = post.prob(&Event::eq_real(ev_var("Perfect"), 1.0)).unwrap();
    assert_close(p_perfect, 0.075 / 0.271_25, 1e-9);
    // Paper reports .33/.67 and .41/.59 (2 d.p.) in Fig. 2g.
    assert_close(1.0 - p_usa, 0.33, 5e-3);
}

#[test]
fn fig4_transform_program() {
    // Fig. 4: piecewise transform via if/else with a derived variable in
    // each branch.
    let f = Factory::new();
    let src = "
X ~ normal(0, 2)
if (X < 1) { Z = -(X**3) + X**2 + 6*X }
else { Z = -5*sqrt(X) + 11 }
";
    let m = compile(&f, src).unwrap();
    // Branch weights: P[X<1] = Φ(0.5) ≈ 0.691 (Fig. 4b).
    let p_branch = m.prob(&Event::lt(ev_var("X"), 1.0)).unwrap();
    assert_close(p_branch, 0.6914624612740131, 1e-9);
    // Condition (Fig. 4c): Z² ≤ 4 ∧ Z ≥ 0 ⇔ Z ∈ [0, 2].
    let e = Event::and(vec![
        Event::le(ev_var("Z").pow_int(2), 4.0),
        Event::ge(ev_var("Z"), 0.0),
    ]);
    let post = condition(&f, &m, &e).unwrap();
    assert_close(post.prob(&e).unwrap(), 1.0, 1e-9);
    // Posterior mass of the else-branch region [81/25, 121/25] ≈ .35
    // (Fig. 4d, third component).
    let p_else = post.prob(&Event::ge(ev_var("X"), 1.0)).unwrap();
    assert_close(p_else, 0.35, 0.02);
    // Posterior splits X < 1 into [-2.17, -2] and [0, 0.32].
    let p_left = post.prob(&Event::le(ev_var("X"), -2.0)).unwrap();
    assert_close(p_left, 0.16, 0.02);
}

#[test]
fn r1_duplicate_variable_rejected() {
    let f = Factory::new();
    let e = compile(&f, "X ~ normal(0,1)\nX ~ normal(0,1)").unwrap_err();
    assert!(e.message.contains("R1"), "{e}");
}

#[test]
fn r2_branch_scope_mismatch_rejected() {
    let f = Factory::new();
    let src = "
B ~ bernoulli(p=0.5)
if (B == 1) { X ~ normal(0,1) } else { Y ~ normal(0,1) }
";
    let e = compile(&f, src).unwrap_err();
    assert!(e.message.contains("R2"), "{e}");
}

#[test]
fn r3_multivariate_transform_rejected() {
    let f = Factory::new();
    let src = "X ~ normal(0,1)\nY ~ normal(0,1)\nZ = X + Y";
    let e = compile(&f, src).unwrap_err();
    assert!(e.message.contains("R3"), "{e}");
}

#[test]
fn r4_random_parameter_rejected() {
    let f = Factory::new();
    let src = "Mu ~ normal(0,1)\nX ~ normal(Mu, 1)";
    let e = compile(&f, src).unwrap_err();
    assert!(
        e.message.contains("R4") || e.message.contains("constant"),
        "{e}"
    );
}

#[test]
fn zero_probability_condition_rejected() {
    let f = Factory::new();
    let e = compile(&f, "X ~ uniform(0,1)\ncondition(X > 2)").unwrap_err();
    assert!(e.message.contains("probability zero"), "{e}");
}

#[test]
fn lst4_discretization_pattern() {
    // The valid program of Lst. 4: discretize a continuous parameter with
    // binspace + switch, then truncate a Poisson with condition + switch.
    let f = Factory::new();
    let src = "
Mu ~ beta(4, 3, 7)
switch Mu cases (m in binspace(0, 7, n=10)) {
    NumLoops ~ poisson(m.mean())
}
condition(NumLoops < 8)
switch NumLoops cases (n in range(8)) {
    Total ~ binomial(n + 1, 0.5)
}
";
    let m = compile(&f, src).unwrap();
    let p = m.prob(&Event::ge(ev_var("Total"), 1.0)).unwrap();
    assert!(p > 0.0 && p < 1.0);
    let all = m.prob(&Event::le(ev_var("NumLoops"), 7.0)).unwrap();
    assert_close(all, 1.0, 1e-9);
}

#[test]
fn untranslate_round_trip_preserves_distribution() {
    let f = Factory::new();
    let src = "
Nationality ~ choice({'India': 0.5, 'USA': 0.5})
if (Nationality == 'India') {
    Perfect ~ bernoulli(p=0.10)
    if (Perfect == 1) { GPA ~ atomic(10) } else { GPA ~ uniform(0, 10) }
} else {
    Perfect ~ bernoulli(p=0.15)
    if (Perfect == 1) { GPA ~ atomic(4) } else { GPA ~ uniform(0, 4) }
}
";
    let m = compile(&f, src).unwrap();
    let rendered = untranslate(&m).unwrap();
    let m2 = compile(&f, &rendered).unwrap_or_else(|e| panic!("reparse failed: {e}\n{rendered}"));
    // Eq. 46: same probabilities for events over the original variables.
    for e in [
        Event::eq_str(ev_var("Nationality"), "USA"),
        Event::eq_real(ev_var("Perfect"), 1.0),
        Event::le(ev_var("GPA"), 3.0),
        Event::and(vec![
            Event::eq_str(ev_var("Nationality"), "India"),
            Event::gt(ev_var("GPA"), 8.0),
        ]),
    ] {
        assert_close(m.prob(&e).unwrap(), m2.prob(&e).unwrap(), 1e-9);
    }
}

#[test]
fn untranslate_truncated_and_derived() {
    let f = Factory::new();
    let src = "
X ~ normal(0, 1)
condition(X > 0)
Z = X**2 + 1
";
    let m = compile(&f, src).unwrap();
    let rendered = untranslate(&m).unwrap();
    let m2 = compile(&f, &rendered).unwrap_or_else(|e| panic!("reparse failed: {e}\n{rendered}"));
    for e in [Event::gt(ev_var("X"), 1.0), Event::le(ev_var("Z"), 2.0)] {
        assert_close(m.prob(&e).unwrap(), m2.prob(&e).unwrap(), 1e-9);
    }
}

#[test]
fn parse_translate_reuse_of_factory_dedups() {
    // Two compilations of the same source share physical nodes.
    let f = Factory::new();
    let m1 = compile(&f, "X ~ normal(0, 1)").unwrap();
    let m2 = compile(&f, "X ~ normal(0, 1)").unwrap();
    assert!(m1.same(&m2));
}

#[test]
fn program_ast_is_reusable() {
    let f = Factory::new();
    let program = parse("X ~ normal(0, 1)").unwrap();
    let a = translate(&f, &program).unwrap();
    let b = translate(&f, &program).unwrap();
    assert!(a.same(&b));
}

#[test]
fn hierarchical_hmm_small() {
    // A 3-step version of the Sec. 2.2 model translates and answers
    // smoothing queries.
    let f = Factory::new();
    let src = "
Z = array(3)
X = array(3)
separated ~ bernoulli(p=0.4)
switch separated cases (s in [0, 1]) {
    Z[0] ~ bernoulli(p=0.5)
    switch Z[0] cases (z in [0, 1]) {
        X[0] ~ normal(5 + 2*z + 8*s*z, 1)
    }
    for t in range(1, 3) {
        switch Z[t-1] cases (zp in [0, 1]) {
            Z[t] ~ bernoulli(p=0.2 + 0.6*zp)
        }
        switch Z[t] cases (z in [0, 1]) {
            X[t] ~ normal(5 + 2*z + 8*s*z, 1)
        }
    }
}
";
    let m = compile(&f, src).unwrap();
    // Condition on observations and query the hidden state.
    let data = Event::and(vec![
        Event::in_interval(ev_var("X[0]"), Interval::closed(4.0, 6.0)),
        Event::in_interval(ev_var("X[1]"), Interval::closed(12.0, 18.0)),
        Event::in_interval(ev_var("X[2]"), Interval::closed(12.0, 18.0)),
    ]);
    let post = condition(&f, &m, &data).unwrap();
    let pz1 = post.prob(&Event::eq_real(ev_var("Z[1]"), 1.0)).unwrap();
    assert!(
        pz1 > 0.9,
        "high observations should imply Z[1]=1, got {pz1}"
    );
    let pz0 = post.prob(&Event::eq_real(ev_var("Z[0]"), 1.0)).unwrap();
    assert!(
        pz0 < 0.5,
        "low first observation keeps Z[0] likely 0, got {pz0}"
    );
}

// ---------------------------------------------------------------------------
// Regression tests: malformed programs that used to panic (unreachable!/
// .expect inside translate) must now return structured errors with spans.
// ---------------------------------------------------------------------------

/// Compiles and asserts a structured error (never a panic) whose message
/// contains `needle`.
fn expect_error(src: &str, needle: &str) {
    let f = Factory::new();
    let e = compile(&f, src).expect_err("program should be rejected");
    assert!(
        e.message.contains(needle),
        "error for {src:?} should mention {needle:?}, got: {}",
        e.message
    );
}

#[test]
fn nan_distribution_parameter_is_rejected() {
    // `1e400` overflows to +inf in the lexer; 0 * inf is NaN, which used
    // to slip past the `b <= a` range check and hit an interval assert.
    expect_error("X ~ uniform(0 * 1e400, 1)", "NaN");
    expect_error("X ~ normal(0, 1e400)", "finite");
    expect_error("X ~ atomic(1e400)", "finite");
}

#[test]
fn non_finite_comparison_is_rejected() {
    expect_error(
        "X ~ normal(0, 1)\ncondition(X < 1e400)",
        "non-finite constant",
    );
    expect_error("X ~ normal(0, 1)\ncondition(X == 1e400)", "non-finite");
}

#[test]
fn non_finite_membership_and_cases_are_rejected() {
    expect_error(
        "X ~ normal(0, 1)\ncondition(X in [1, 1e400])",
        "finite numbers",
    );
    expect_error(
        "N ~ randint(0, 3)\nswitch N cases (n in [0, 1e400]) { Y ~ normal(n, 1) }",
        "finite",
    );
}

#[test]
fn binspace_rejects_non_finite_bounds() {
    expect_error(
        "X ~ normal(0, 1)\nswitch X cases (b in binspace(0, 1e400, n=4)) { Y ~ atomic(b.mean()) }",
        "finite",
    );
}

#[test]
fn binspace_rejects_bins_it_cannot_represent_or_afford() {
    // Bins narrower than one ulp collapsed to `lo == hi` and panicked.
    expect_error(
        "X ~ normal(0, 1)\nswitch X cases (b in binspace(1e16, 1e16 + 4, n=8)) { Y ~ atomic(b.mean()) }",
        "too narrow",
    );
    // Every bin was allocated up front, however many were asked for.
    expect_error(
        "X ~ normal(0, 1)\nswitch X cases (b in binspace(0, 1, n=1e6)) { Y ~ atomic(b.mean()) }",
        "at most",
    );
}

#[test]
fn nan_constant_arithmetic_is_rejected() {
    expect_error("c = 1e400 - 1e400\nX ~ normal(c, 1)", "NaN");
    expect_error("c = ln(0 - 1)\nX ~ normal(c, 1)", "undefined");
}

#[test]
fn discrete_rejects_non_finite_outcomes_and_weights() {
    expect_error("X ~ discrete({1e400: 0.5, 0: 0.5})", "finite");
    expect_error("X ~ discrete({0: 1e400, 1: 1})", "finite");
    expect_error("X ~ choice({\"a\": 1e400})", "finite");
}

#[test]
fn parameters_that_used_to_panic_or_answer_nan_are_rejected() {
    // A negative categorical weight hit an assert, or was dropped.
    expect_error("X ~ choice({'a': -1, 'b': 2})", "nonnegative");
    expect_error("X ~ discrete({0: -1, 1: 2})", "nonnegative");
    // The width overflows to inf, and every CDF answer was NaN.
    expect_error("X ~ uniform(-1e308, 1e308)", "finite width");
    // Past 2^53 the cast to an integer is not exact (1e20 saturated).
    expect_error("X ~ binomial(1e20, 0.5)", "2^53");
    expect_error("X ~ randint(0, 1e16)", "2^53");
    // An integer exponent is a polynomial's degree; 1e10 saturated to
    // 2^32 - 1 and asked for that many coefficients.
    expect_error("X ~ normal(0, 1)\nY = X ** 1e10", "too large");
    // Composition multiplies degrees and products add them, so the bound
    // is on the degree, not on one exponent.
    expect_error(
        "X ~ normal(0, 1)\nY = (X ** 60) ** 60",
        "polynomial degree 3600 is too large: polynomials go up to degree 100",
    );
    expect_error("X ~ normal(0, 1)\nY = X ** 60 * X ** 60", "degree 120");
    expect_error("X ~ normal(0, 1)\nY = X ** -101", "degree 101");
    // A constant or zero polynomial still builds the monomial `x^c`.
    expect_error("X ~ normal(0, 1)\nY = (X ** 0) ** 1e10", "too large");
    expect_error("X ~ normal(0, 1)\nY = (X * 0) ** 1e10", "too large");
    expect_error("X ~ normal(0, 1)\nY = (X - X) ** 1e10", "too large");
    // An infinite or huge non-integer exponent read as the root 1/0, and
    // a root index past u32::MAX saturated to it.
    for src in [
        "X ~ normal(0, 1)\nY = X ** 1e400",
        "X ~ normal(0, 1)\nY = X ** 10000000000000.5",
        "X ~ normal(0, 1)\nY = X ** 0.0000000000001",
    ] {
        expect_error(src, "unsupported exponent");
    }
    for src in [
        "X ~ normal(0, 1)\nY = (X ** 10) ** 10",
        "X ~ normal(0, 1)\nY = X ** 100",
        "X ~ normal(0, 1)\nY = X ** 50 * X ** 50",
    ] {
        compile(&Factory::new(), src).unwrap_or_else(|e| panic!("{src:?}: {e}"));
    }
}

#[test]
fn rejected_programs_carry_spans() {
    let f = Factory::new();
    let e = compile(&f, "X ~ normal(0, 1)\ncondition(X < 0 * 1e400)").expect_err("rejected");
    assert_eq!(e.span.line, 2, "span should point at the condition line");
}
