//! Bit-identity pins for `if`/`elif`/`switch` chains.
//!
//! A first-match chain gives arm `i` the effective guard "`g_i` holds and
//! no earlier guard did", and its `else` the guard "no guard held". How
//! those guards are *solved* is an implementation choice; what they
//! *denote* is fixed by the language. These fixtures pin the
//! [`ModelDigest`] and the exact `to_bits` of six `Y ≤ c` answers for one
//! program of every chain shape the translator distinguishes: string,
//! real-interval, transformed-subject and integer chains over a single
//! subject, a `switch` over a `discrete` mixture, and a mixed-subject
//! chain. Any change to guard solving must reproduce every value here;
//! a deliberate change to what a chain means updates the fixtures and
//! bumps `DIGEST_VERSION` in the same diff.
//!
//! Each program is compiled twice — through the analyzer (which may gut
//! dead arms) and through the bare translator — and both must land on
//! the pinned values.

use sppl::analyze::compile_model_uncached;
use sppl::prelude::*;

/// The probe thresholds `c` of the `Y ≤ c` answers.
const PROBES: [f64; 6] = [-2.5, -1.0, 0.0, 0.5, 1.5, 3.0];

struct Pin {
    name: &'static str,
    source: &'static str,
    digest: &'static str,
    /// `logprob(Y ≤ c).to_bits()` for each `c` in [`PROBES`].
    bits: [u64; 6],
}

const PINS: &[Pin] = &[
    Pin {
        name: "string elif chain with else",
        source: "M ~ choice({'a': 0.2, 'b': 0.3, 'c': 0.1, 'd': 0.25, 'e': 0.15})
if (M == 'a') {
    Y ~ normal(0, 1)
} elif (M == 'b') {
    Y ~ normal(2, 1)
} elif (M == 'c') {
    Y ~ uniform(-1, 3)
} else {
    Y ~ normal(-2, 0.5)
}
",
        digest: "4a333dffcef42a9e46904a2f3db01a48",
        bits: [
            13836719694319359547,
            13829296132572816364,
            13827234983314086806,
            13826211114560289974,
            13822426551280528958,
            13810601719613971424,
        ],
    },
    Pin {
        name: "string elif chain without else",
        source: "M ~ choice({'a': 0.2, 'b': 0.3, 'c': 0.1, 'd': 0.4})
if (M == 'a') {
    Y ~ normal(0, 1)
} elif (M == 'b') {
    Y ~ normal(2, 1)
} elif (M == 'c') {
    Y ~ uniform(-1, 3)
} elif (M == 'd') {
    Y ~ normal(-1.5, 0.5)
}
",
        digest: "07cc929104c8597a3b9a9c1df20da995",
        bits: [
            13840205044578030928,
            13830535024558888304,
            13827243918361248106,
            13826211304337966863,
            13822426551290101414,
            13810601719613971424,
        ],
    },
    Pin {
        name: "switch over discrete",
        source: "N ~ discrete({0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4})
loc = [-2, 0, 1, 2.5]
switch N cases (n in range(0, 4)) {
    Y ~ normal(loc[n], 1)
}
",
        digest: "03ad01af1a3c6957c8df7cd61fe80008",
        bits: [
            13838293571906941887,
            13835277226757725969,
            13832333879212052276,
            13830918228618552446,
            13826809837144526015,
            13817578631048723208,
        ],
    },
    Pin {
        name: "real-interval chain",
        source: "X ~ normal(0, 2)
if (X < -1) {
    Y ~ normal(-3, 1)
} elif (X < 0) {
    Y ~ uniform(-1, 0)
} elif (X < 1) {
    Y ~ normal(1, 0.5)
} elif (X < 2) {
    Y ~ uniform(0, 2)
} else {
    Y ~ normal(3, 1)
}
",
        digest: "7b6c8963b93fbd19ca79fef7b2a2fee6",
        bits: [
            13833008278673565490,
            13831450167106897707,
            13827716057957932097,
            13826629981253286191,
            13821303122606226156,
            13813992566909948768,
        ],
    },
    Pin {
        name: "transformed-subject chain",
        source: "X ~ normal(0, 1.5)
if (X**2 < 1) {
    Y ~ normal(0, 1)
} elif (X**2 < 4) {
    Y ~ uniform(-2, 2)
} elif (X**2 < 9) {
    Y ~ normal(2, 1)
} else {
    Y ~ normal(-1, 3)
}
",
        digest: "ce6b425a84497349d4f45538a2f26f2c",
        bits: [
            13839638130293063187,
            13833721078538402736,
            13828929832872046377,
            13826384185962183787,
            13819570405657509024,
            13806782761762816992,
        ],
    },
    Pin {
        name: "integer chain with an overlapping arm",
        source: "N ~ binomial(n=8, p=0.4)
if (N <= 3) {
    Y ~ normal(-1, 1)
} elif (N == 3) {
    Y ~ normal(10, 1)
} elif (N == 5) {
    Y ~ uniform(0, 2)
} elif (N < 7) {
    Y ~ normal(2, 0.5)
} else {
    Y ~ atomic(1)
}
",
        digest: "042776882604757d58552b84e9272997",
        bits: [
            13837820281630535424,
            13831517675163662571,
            13827793451511094392,
            13826365141324806518,
            13822584835510403108,
            13797240776998255232,
        ],
    },
    Pin {
        name: "mixed-subject chain",
        source: "X ~ normal(0, 1)
M ~ choice({'a': 0.5, 'b': 0.3, 'c': 0.2})
if (X < -0.5) {
    Y ~ normal(-2, 1)
} elif (M == 'a') {
    Y ~ normal(1, 0.5)
} elif (X > 1) {
    Y ~ uniform(1, 3)
} else {
    Y ~ normal(0, 2)
}
",
        digest: "e70627bb16e8c1686341be30f17e95b4",
        bits: [
            13835267029662375104,
            13830885696684376983,
            13828889219144032926,
            13827420495009899971,
            13819461986129748672,
            13804208527753554944,
        ],
    },
];

fn probe_bits(model: &Model) -> Vec<u64> {
    PROBES
        .iter()
        .map(|&c| {
            model
                .logprob(&var("Y").le(c))
                .unwrap_or_else(|e| panic!("Y <= {c}: {e}"))
                .to_bits()
        })
        .collect()
}

#[test]
fn chain_digests_and_answers_are_pinned() {
    for pin in PINS {
        let analyzed = compile_model_uncached(pin.source)
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", pin.name));
        let factory = Factory::new();
        let spe = compile(&factory, pin.source)
            .unwrap_or_else(|e| panic!("{}: translate failed: {e}", pin.name));
        let bare = Model::new(factory, spe);
        for (path, model) in [("analyzed", &analyzed), ("bare", &bare)] {
            assert_eq!(
                model.model_digest().to_string(),
                pin.digest,
                "{} ({path}): digest drifted",
                pin.name
            );
            assert_eq!(
                probe_bits(model),
                pin.bits,
                "{} ({path}): answers drifted",
                pin.name
            );
        }
    }
}
