//! One message per verdict: the analyzer and the translator run the same
//! expression evaluator with the same family table, so for every family
//! an invalid call is rejected by `check` as `E006` (`E001` for an
//! unknown name) with exactly the text `sppl_lang::compile` fails with,
//! and so is every other expression the evaluator rejects. Both passes
//! also meet the polynomial degree bound before any preimage is solved.

use std::time::{Duration, Instant};

use sppl_analyze::{check, compile_model, Severity};
use sppl_core::Factory;

/// Invalid calls of every family: a missing parameter, an out-of-range
/// one and a non-finite one, plus the dict families' wrong key types and
/// the parameters whose casts or arithmetic would overflow.
const INVALID_PARAMETERS: &[&str] = &[
    "normal()",
    "gaussian(0)",
    "normal(0, -1)",
    "normal(0, 1e400)",
    "uniform()",
    "uniform(0)",
    "uniform(1, 0)",
    "uniform(1e400, 1)",
    "uniform(-1e308, 1e308)",
    "exponential()",
    "exponential(0)",
    "exponential(lambda_=1e400)",
    "gamma()",
    "gamma(1, -1)",
    "gamma(1e400)",
    "beta(1)",
    "beta(1, 0)",
    "beta(1, 1, 1e400)",
    "cauchy(0)",
    "cauchy(0, 0)",
    "cauchy(1e400, 1)",
    "laplace()",
    "laplace(0, -2)",
    "laplace(0, 1e400)",
    "logistic(loc=0)",
    "logistic(0, 0)",
    "logistic(-1e400, 1)",
    "student_t()",
    "studentt(0)",
    "student_t(1e400)",
    "bernoulli()",
    "bernoulli(1.5)",
    "bernoulli(p=1e400)",
    "binomial(10)",
    "binomial(10, 2)",
    "binomial(-1, 0.5)",
    "binomial(1e400, 0.5)",
    "binomial(1e20, 0.5)",
    "poisson()",
    "poisson(-1)",
    "poisson(mu=1e400)",
    "geometric()",
    "geometric(0)",
    "geometric(1e400)",
    "randint(0)",
    "randint(3, 1)",
    "discrete_uniform(0.5, 2)",
    "randint(0, 1e400)",
    "randint(0, 1e16)",
    "randint(-1e16, 0)",
    "atomic()",
    "atom(1e400)",
    "choice()",
    "choice({'a': 0})",
    "choice({'a': -1, 'b': 2})",
    "choice({'a': 1e400})",
    "choice({1: 0.5})",
    "choice({true: 1})",
    "discrete()",
    "discrete({0: 0})",
    "discrete({0: -1, 1: 2})",
    "discrete({1e400: 1})",
    "discrete({'a': 0.5})",
];

const UNKNOWN_NAMES: &[&str] = &["normall(0, 1)", "Normal(0, 1)", "foo(1e400)"];

/// Programs the translator rejects in an expression, one per kind of
/// failure, with the lint code `check` reports it under.
const FAILING_PROGRAMS: &[(&str, &str)] = &[
    // An undefined name.
    ("E001", "X ~ normal(0, 1)\nY = X + Z"),
    // An array used without an index.
    ("E001", "A = array(3)\nA[0] ~ normal(0, 1)\nY = A + 1"),
    // An element read before it is sampled.
    ("E001", "A = array(3)\nA[0] ~ normal(0, 1)\nY = A[1] + 1"),
    // An array index out of bounds.
    ("E003", "A = array(3)\nA[5] ~ normal(0, 1)"),
    // A list index out of bounds.
    ("E003", "c = [1, 2]\nX ~ normal(c[2], 1)"),
    // A non-finite constant.
    ("E007", "c = 1e400 - 1e400\nX ~ normal(c, 1)"),
    // A random distribution parameter (R4).
    ("E006", "X ~ normal(0, 1)\nY ~ normal(X, 1)"),
    // The same, in a call that is an operand: the call's failure is the
    // only verdict.
    ("E006", "X ~ normal(0, 1)\nY = normal(X, 1) + 1"),
    // An unknown family.
    ("E001", "X ~ normall(0, 1)"),
    // A polynomial past the degree bound.
    ("E008", "X ~ normal(0, 1)\nY = (X ** 60) ** 60"),
    // A math call with the wrong number of arguments.
    ("E008", "X ~ normal(0, 1)\nY = exp(X, 2)"),
    // An unsupported exponent.
    ("E008", "X ~ normal(0, 1)\nY = X ** 0.3"),
    // A comparison of two random expressions (R3).
    (
        "E008",
        "X ~ normal(0, 1)\nY ~ normal(0, 1)\ncondition(X < Y)",
    ),
];

/// Asserts that `check` reports exactly one error for `source`, with
/// lint `code` and the translator's error text and span.
fn assert_one_verdict(source: &str, code: &str) {
    let errors: Vec<_> = check(source)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert_eq!(errors.len(), 1, "{source}: {errors:?}");
    assert_eq!(errors[0].code.as_str(), code, "{source}");
    let translated = sppl_lang::compile(&Factory::new(), source)
        .expect_err(&format!("{source} must not translate"));
    assert_eq!(errors[0].message, translated.message, "{source}");
    assert_eq!(errors[0].span, translated.span, "{source}");
}

#[test]
fn invalid_parameters_read_the_same_in_both_passes() {
    for call in INVALID_PARAMETERS {
        assert_one_verdict(&format!("X ~ {call}"), "E006");
    }
}

#[test]
fn unknown_names_read_the_same_in_both_passes() {
    for call in UNKNOWN_NAMES {
        assert_one_verdict(&format!("X ~ {call}"), "E001");
    }
}

#[test]
fn every_failing_expression_reads_the_same_in_both_passes() {
    for (code, source) in FAILING_PROGRAMS {
        assert_one_verdict(source, code);
    }
}

#[test]
fn a_polynomial_past_the_degree_bound_is_refused_before_it_is_solved() {
    // `(X ** 60) ** 60` is degree 3,600; solving its preimage for the
    // condition took 15 s when only the exponent was bounded. A constant
    // raised to `1e10` would build a monomial with 2^32 coefficients.
    for source in [
        "X ~ normal(0, 1)\nY = (X ** 60) ** 60\ncondition(Y > 0.5)",
        "X ~ normal(0, 1)\nY = (X ** 0) ** 1e10\ncondition(Y > 0.5)",
        "X ~ normal(0, 1)\nY = (X * 0) ** 1e10\ncondition(Y > 0.5)",
    ] {
        let start = Instant::now();
        check(source);
        let checked = start.elapsed();
        assert!(
            checked < Duration::from_secs(5),
            "{source:?}: check took {checked:?}"
        );
        let start = Instant::now();
        let err = compile_model(source).expect_err("past the degree bound");
        let compiled = start.elapsed();
        assert!(
            compiled < Duration::from_secs(5),
            "{source:?}: compile took {compiled:?}"
        );
        assert!(err.message.contains("too large"), "{source:?}: {err}");
    }
}
