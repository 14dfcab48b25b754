//! Shared random-model machinery for the root integration suites.
//!
//! Generates small SPPL programs mixing bernoulli chains with gated
//! continuous leaves — the mixture shapes that exercise sum-child
//! canonicalization hardest — plus random query/evidence events over
//! them. Used by `digest_golden.rs` (bit-stability across separate
//! compilations) and `model_api_parity.rs` (bit-identity of posteriors
//! conditioned in separately compiled sessions).

#![allow(dead_code)] // each test crate compiles its own copy and may not use every helper

use proptest::prelude::*;
use sppl::prelude::*;

/// One generated variable: `(kind, a, b)` index a shape and a parameter
/// grid (see [`build_source`]).
pub type VarSpec = (usize, usize, usize);

/// A literal pick: variable selector and polarity/threshold selector.
pub type LitSpec = (usize, usize);

pub fn grid(i: usize) -> f64 {
    (i % 19 + 1) as f64 * 0.05 // 0.05..=0.95
}

/// Renders a generated spec as SPPL source mixing bernoulli chains with
/// gated continuous leaves. Returns the source and, per variable,
/// whether it is discrete.
pub fn build_source(spec: &[VarSpec]) -> (String, Vec<bool>) {
    let mut src = String::new();
    let mut discrete = Vec::with_capacity(spec.len());
    let mut last_discrete: Option<usize> = None;
    for (i, &(kind, a, b)) in spec.iter().enumerate() {
        let gate = last_discrete;
        match (kind % 4, gate) {
            (1, Some(j)) => {
                src.push_str(&format!(
                    "if (V{j} == 1) {{ V{i} ~ bernoulli(p={:.2}) }} \
                     else {{ V{i} ~ bernoulli(p={:.2}) }}\n",
                    grid(a),
                    grid(b),
                ));
                discrete.push(true);
            }
            (2, _) => {
                src.push_str(&format!(
                    "V{i} ~ normal({:.2}, {:.2})\n",
                    grid(a) * 10.0 - 5.0,
                    0.5 + grid(b),
                ));
                discrete.push(false);
            }
            (3, Some(j)) => {
                src.push_str(&format!(
                    "if (V{j} == 1) {{ V{i} ~ normal({:.2}, {:.2}) }} \
                     else {{ V{i} ~ uniform({:.2}, {:.2}) }}\n",
                    grid(a) * 10.0 - 5.0,
                    0.5 + grid(b),
                    grid(b) * -4.0,
                    grid(a) * 4.0 + 0.1,
                ));
                discrete.push(false);
            }
            _ => {
                src.push_str(&format!("V{i} ~ bernoulli(p={:.2})\n", grid(a)));
                discrete.push(true);
            }
        }
        if discrete[i] {
            last_discrete = Some(i);
        }
    }
    (src, discrete)
}

pub fn literal(discrete: &[bool], &(pick, sel): &LitSpec) -> Event {
    let i = pick % discrete.len();
    let v = var(format!("V{i}"));
    if discrete[i] {
        v.eq(f64::from(u8::from(sel % 2 == 0)))
    } else if sel % 2 == 0 {
        v.le(grid(sel) * 8.0 - 4.0)
    } else {
        v.gt(grid(sel) * 8.0 - 4.0)
    }
}

pub fn build_event(discrete: &[bool], shape: usize, lits: &[LitSpec]) -> Event {
    let literals: Vec<Event> = lits.iter().map(|l| literal(discrete, l)).collect();
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

pub fn var_spec() -> impl Strategy<Value = VarSpec> {
    (0..4usize, 0..19usize, 0..19usize)
}

pub fn lit_specs() -> impl Strategy<Value = Vec<LitSpec>> {
    prop::collection::vec((0..16usize, 0..19usize), 1..4)
}
