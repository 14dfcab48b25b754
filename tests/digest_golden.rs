//! Digest stability suite.
//!
//! 1. **Golden fixtures**: the [`ModelDigest`] values of the paper's two
//!    headline models are pinned as hex strings. The digest is a
//!    *persisted* identity (snapshot files key on it), so any accidental
//!    change to the hash, the byte-level encoding, or the canonical SPE
//!    construction must fail here loudly — a deliberate change updates
//!    the fixtures **and bumps `DIGEST_VERSION`** in the same diff.
//! 2. **Bit-stability property**: two separately compiled copies of a
//!    random model (mixed discrete/continuous, data-dependent mixtures)
//!    agree on every query **bit for bit** — no tolerance — because sum
//!    children are canonically ordered by content digest at construction,
//!    making evaluation order independent of pointer addresses.
//! 3. **Key goldens**: the other persisted keys, event and transform
//!    fingerprints and the compile cache's source-text digest, are
//!    pinned under the same rules as the model digests.

use proptest::prelude::*;
use sppl::models::{hmm, indian_gpa};
use sppl::prelude::*;

mod common;
use common::{build_event, build_source, lit_specs, var_spec};

/// Indian-GPA model digest (Fig. 2). Computed once from the frozen
/// encoding; stable across processes, builds, and machines.
const INDIAN_GPA_DIGEST: &str = "3f7093ab162ee137044f41836ab9986e";

/// Hierarchical HMM digest at horizon 8 (Fig. 3 family).
const HMM_8_DIGEST: &str = "e2899c8bcc1a1924188030852bf12d19";

#[test]
fn golden_digest_indian_gpa() {
    let model = indian_gpa::model().session().expect("compiles");
    assert_eq!(
        model.model_digest().to_string(),
        INDIAN_GPA_DIGEST,
        "Indian-GPA digest changed: either the encoding/hash/canonical \
         form drifted accidentally (a bug — snapshots written by older \
         builds would go stale), or the change is deliberate and must \
         bump DIGEST_VERSION alongside this fixture"
    );
}

#[test]
fn golden_digest_hmm() {
    let model = hmm::hierarchical_hmm(8).session().expect("compiles");
    assert_eq!(
        model.model_digest().to_string(),
        HMM_8_DIGEST,
        "HMM digest changed: see golden_digest_indian_gpa for the rules"
    );
}

#[test]
fn golden_digests_are_reproduced_by_a_second_compile() {
    // The fixture pins the value; this pins the *mechanism* — a second
    // compilation in the same process (fresh factory, fresh pointers)
    // lands on the identical digest.
    let a = indian_gpa::model().session().expect("compiles");
    let b = indian_gpa::model().session().expect("compiles");
    assert_eq!(a.model_digest(), b.model_digest());
    assert_eq!(a.model_digest().to_string(), INDIAN_GPA_DIGEST);
}

// ---------------------------------------------------------------------------
// Random-model bit-stability property.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two separately compiled copies of one random model — fresh
    /// factories, unrelated pointer layouts — produce the same digest and
    /// **bit-identical** `logprob` answers, with no tolerance, before and
    /// after conditioning.
    #[test]
    fn separately_compiled_copies_are_bit_identical(
        spec in prop::collection::vec(var_spec(), 2..6),
        shapes in (0..3usize, 0..3usize),
        query_lits in lit_specs(),
        evidence_lits in lit_specs(),
    ) {
        let (source, discrete) = build_source(&spec);
        let query = build_event(&discrete, shapes.0, &query_lits);
        let evidence = build_event(&discrete, shapes.1, &evidence_lits);

        let a = Model::compile(&source).expect("generated program compiles");
        let b = Model::compile(&source).expect("generated program compiles");
        prop_assert_eq!(
            a.model_digest(), b.model_digest(),
            "same source must compile to one content digest\n{}", source
        );

        let la = a.logprob(&query).unwrap();
        let lb = b.logprob(&query).unwrap();
        prop_assert_eq!(
            la.to_bits(), lb.to_bits(),
            "logprob diverged across compiles: {} vs {}\n{}", la, lb, source
        );

        // Conditioning re-derives sums; the canonical form must keep the
        // two compilations in lockstep there too.
        if a.prob(&evidence).unwrap() > 1e-9 {
            let pa = a.condition(&evidence).unwrap();
            let pb = b.condition(&evidence).unwrap();
            prop_assert_eq!(
                pa.model_digest(), pb.model_digest(),
                "posterior digests diverged\n{}", source
            );
            let qa = pa.logprob(&query).unwrap();
            let qb = pb.logprob(&query).unwrap();
            prop_assert_eq!(
                qa.to_bits(), qb.to_bits(),
                "posterior logprob diverged: {} vs {}\n{}", qa, qb, source
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Event, transform and source-text keys.
// ---------------------------------------------------------------------------

/// Fingerprints of canonical events reaching every `Event` variant and
/// every outcome-set shape: open, closed, half-open and point intervals,
/// both infinite ends, and finite and cofinite string sets. A fingerprint
/// is the event half of every `SharedCache` snapshot key, so a drift here
/// makes every persisted snapshot miss without an error.
const EVENT_FINGERPRINTS: [(&str, &str); 10] = [
    ("X < 1", "8c8d202c5c9616ad2f9aee3408694d78"),
    ("X >= -2.5", "3d10fcf50e6a025807f6cf98d9ff38bd"),
    ("X in [0, 1]", "fcfd602e9be0fcbfd9de785903c0a138"),
    ("X in (0, 1)", "aea94505a82510d92b6d9e412e9ebc69"),
    ("X in [-1, 2) u {3}", "288d59b1401c0b9ae060dd329d4b1eb1"),
    ("N in {India, USA}", "854901e90c5bfd5615732d3f018e2ab5"),
    ("N not in {India}", "a671a306a7a1f3a8a065377a750fa0d6"),
    ("X > 0 and Y <= 2", "2a5a94dcbf1fafefe529a6c040045801"),
    ("X < -1 or X == 0.5", "584566c68179eb8922701e2f1b4b0ac1"),
    (
        "(X > 0 or N == USA) and X**2 + 1 <= 4",
        "e0acb43c7c19fe20a329377ed68a243a",
    ),
];

fn golden_events() -> Vec<Event> {
    let x = || var("X");
    vec![
        x().lt(1.0),
        x().ge(-2.5),
        x().in_interval(Interval::closed(0.0, 1.0)),
        x().in_interval(Interval::open(0.0, 1.0)),
        x().in_set(
            OutcomeSet::from(Interval::closed_open(-1.0, 2.0)).union(&OutcomeSet::real_point(3.0)),
        ),
        var("N").one_of(["India", "USA"]),
        var("N").in_set(OutcomeSet::from_strings(StringSet::cofinite(["India"]))),
        x().gt(0.0) & var("Y").le(2.0),
        x().lt(-1.0) | x().eq(0.5),
        (x().gt(0.0) | var("N").eq("USA")) & x().pow_int(2).add_const(1.0).le(4.0),
    ]
}

#[test]
fn golden_event_fingerprints() {
    let events = golden_events();
    assert_eq!(events.len(), EVENT_FINGERPRINTS.len());
    for (event, (what, want)) in events.iter().zip(EVENT_FINGERPRINTS) {
        assert_eq!(
            event.canonical().fingerprint().to_string(),
            want,
            "fingerprint of `{what}` changed: persisted snapshots key on it \
             (see golden_digest_indian_gpa for the rules)"
        );
    }
}

/// `transform_fingerprint` of transforms reaching every `Transform`
/// variant, a piecewise one guarded by `and`/`or` events included.
const TRANSFORM_FINGERPRINTS: [(&str, &str); 8] = [
    ("X", "4a11d52a2361774a1c9f772e1f21e7a3"),
    ("1/X", "0ece1894aa06ba0e34d80729d8588222"),
    ("|X|", "6332d7f41173a6ebb94f3ac9018aab93"),
    ("|X|^(1/3)", "653dc55a99e6111806f7a8cea461cabc"),
    ("2^X", "e9729c71d0ba6b09fc890935d26c8ef0"),
    ("log10 |X|", "5310a919115c169e59de11f08a0df206"),
    ("1 - 2X + X^2/2", "8b22baabb44e4e5756324f52ce001036"),
    ("piecewise", "3c47e9c147d4d7c7f45e9aad199618e6"),
];

fn golden_transforms() -> Vec<Transform> {
    let x = || Transform::Id(Var::new("X"));
    let boxed = |t: Transform| Box::new(t);
    let guard = Event::Or(vec![
        Event::And(vec![Event::gt(x(), -1.0), Event::lt(x(), 0.0)]),
        Event::ge(x(), 2.0),
    ]);
    vec![
        x(),
        Transform::Reciprocal(boxed(x())),
        Transform::Abs(boxed(x())),
        Transform::Root(boxed(Transform::Abs(boxed(x()))), 3),
        Transform::Exp(boxed(x()), 2.0),
        Transform::Log(boxed(Transform::Abs(boxed(x()))), 10.0),
        Transform::Poly(boxed(x()), sppl::num::Polynomial::new(vec![1.0, -2.0, 0.5])),
        Transform::Piecewise(vec![
            (x(), guard.clone()),
            (Transform::Abs(boxed(x())), guard.negate()),
        ]),
    ]
}

#[test]
fn golden_transform_fingerprints() {
    let transforms = golden_transforms();
    assert_eq!(transforms.len(), TRANSFORM_FINGERPRINTS.len());
    for (t, (what, want)) in transforms.iter().zip(TRANSFORM_FINGERPRINTS) {
        assert_eq!(
            sppl::core::digest::transform_fingerprint(t).to_string(),
            want,
            "fingerprint of `{what}` changed (see golden_digest_indian_gpa for the rules)"
        );
    }
}

/// The compile cache's source-text key, which names its `.key` alias
/// files on disk.
const SOURCE_TEXT_DIGEST: &str = "14e4a4776693590e8c671978d2dc25e7";

#[test]
fn golden_source_text_digest() {
    assert_eq!(
        sppl::analyze::source_text_digest("X ~ normal(0, 1)").to_string(),
        SOURCE_TEXT_DIGEST,
        "compile-cache alias key changed: aliases written by older builds \
         would go stale (see golden_digest_indian_gpa for the rules)"
    );
}
