//! Byte-exact goldens of the two persisted formats: a one-leaf SPE wire
//! payload, a payload holding one of every record shape, and a
//! two-entry `SharedCache` snapshot. Both formats share one envelope
//! (`sppl_core::store`); these bytes pin that neither layout moves under
//! it: magic, both versions, body and checksum.
//!
//! A deliberate layout change bumps `WIRE_FORMAT_VERSION` or the
//! snapshot format version and regenerates the golden here in the same
//! diff.

use sppl_core::digest::{Fingerprint, ModelDigest};
use sppl_core::event::Event;
use sppl_core::prelude::*;
use sppl_core::spe::Env;
use sppl_core::wire::{deserialize_spe, serialize_spe};
use sppl_num::Polynomial;

/// `serialize_spe` of the leaf `X ~ normal(0, 1)` over the whole line.
const WIRE_LEAF: &str = "\
    5350504c574952450100000001000000b6e0762c1d00b1747795b2b4b4ccbe8d\
    01000000000000002e00000000010000005800000000000000000000000000000000\
    f03f000000000000f0ff00000000000000f07f0000000000171b7a7c4b6564e0622e\
    acd3a65c97a6";

/// Length and trailing checksum of `serialize_spe(every_record_shape)`.
/// The keyed checksum covers every byte before it, so the pair pins the
/// whole 1273-byte payload.
const EVERY_SHAPE_LEN: usize = 1273;
const EVERY_SHAPE_CHECKSUM: &str = "f19a33782dae159f0675de617e39a6be";

/// `save_snapshot` of a cache holding `(1, 2) → -0.5` and
/// `(3, 4) → -∞` (model digest, fingerprint → log-probability).
const SNAPSHOT_TWO_ENTRIES: &str = "\
    5350504c534e4150010000000100000002000000000000000100000000000000\
    000000000000000002000000000000000000000000000000000000000000e0bf\
    0300000000000000000000000000000004000000000000000000000000000000\
    000000000000f0ff3765df436c3a342a6b6f4351b0085096";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex golden"))
        .collect()
}

#[test]
fn one_leaf_wire_payload_is_byte_exact() {
    let factory = Factory::new();
    let dist = DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap();
    let leaf = factory.leaf(Var::new("X"), Distribution::Real(dist));
    assert_eq!(hex(&serialize_spe(&leaf)), WIRE_LEAF);

    let back = deserialize_spe(&Factory::new(), &unhex(WIRE_LEAF)).unwrap();
    assert_eq!(back.digest(), leaf.digest());
}

/// One of every wire record shape: a leaf per CDF family (real and
/// integer), a categorical and an atomic leaf, every transform (a
/// piecewise one guarded by `and`/`or` events) in a leaf environment,
/// under products and a sum.
fn every_record_shape(f: &Factory) -> Spe {
    let real = |name: &str, cdf: Cdf| {
        let (lo, hi) = cdf.support();
        let support = Interval::new(lo, lo.is_finite(), hi, hi.is_finite()).unwrap();
        let dist = Distribution::Real(DistReal::new(cdf, support).unwrap());
        f.leaf(Var::new(name), dist)
    };
    let int = |name: &str, cdf: Cdf| {
        let (lo, hi) = cdf.support();
        f.leaf(
            Var::new(name),
            Distribution::Int(DistInt::new(cdf, lo, hi).unwrap()),
        )
    };
    let x = || Transform::Id(Var::new("X"));
    let boxed = |t: Transform| Box::new(t);
    let guard = Event::Or(vec![
        Event::And(vec![Event::gt(x(), -1.0), Event::lt(x(), 0.0)]),
        Event::ge(x(), 2.0),
    ]);
    let env = Env::new()
        .with(Var::new("R"), Transform::Reciprocal(boxed(x())))
        .with(Var::new("A"), Transform::Abs(boxed(x())))
        .with(
            Var::new("Q"),
            Transform::Root(boxed(Transform::Abs(boxed(x()))), 3),
        )
        .with(Var::new("E"), Transform::Exp(boxed(x()), 2.0))
        .with(
            Var::new("L"),
            Transform::Log(boxed(Transform::Abs(boxed(x()))), 10.0),
        )
        .with(
            Var::new("P"),
            Transform::Poly(boxed(x()), Polynomial::new(vec![1.0, -2.0, 0.5])),
        )
        .with(
            Var::new("W"),
            Transform::Piecewise(vec![
                (x(), guard.clone()),
                (Transform::Abs(boxed(x())), guard.negate()),
            ]),
        );
    let normal = DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap();
    let leaves = vec![
        f.leaf_env(Var::new("X"), Distribution::Real(normal), env)
            .unwrap(),
        real("B", Cdf::uniform(0.0, 2.0)),
        real("C", Cdf::exponential(1.5)),
        real("D", Cdf::gamma(2.0, 1.0)),
        real("F", Cdf::beta_scaled(2.0, 3.0, 4.0)),
        real("G", Cdf::cauchy(0.0, 1.0)),
        real("H", Cdf::laplace(0.0, 1.0)),
        real("I", Cdf::logistic(0.0, 1.0)),
        real("J", Cdf::student_t(3.0)),
        int("K", Cdf::poisson(2.0)),
        int("M", Cdf::binomial(5, 0.3)),
        int("N", Cdf::geometric(0.4)),
        int("O", Cdf::discrete_uniform(-3, 6)),
        f.leaf(
            Var::new("S"),
            Distribution::Str(DistStr::new([("a", 1.0), ("b", 3.0)]).unwrap()),
        ),
    ];
    let left = f.product(leaves.clone()).unwrap();
    let mut shifted = leaves;
    shifted[1] = f.leaf(Var::new("B"), Distribution::Atomic { loc: 1.5 });
    let right = f.product(shifted).unwrap();
    f.sum(vec![(left, 0.25f64.ln()), (right, 0.75f64.ln())])
        .unwrap()
}

#[test]
fn every_record_shape_payload_is_byte_exact() {
    let factory = Factory::new();
    let spe = every_record_shape(&factory);
    let bytes = serialize_spe(&spe);
    assert_eq!(bytes.len(), EVERY_SHAPE_LEN);
    assert_eq!(hex(&bytes[bytes.len() - 16..]), EVERY_SHAPE_CHECKSUM);

    let back = deserialize_spe(&Factory::new(), &bytes).unwrap();
    assert_eq!(back.digest(), spe.digest());
    assert_eq!(serialize_spe(&back), bytes);
}

#[test]
fn two_entry_snapshot_is_byte_exact() {
    let key = |k: u128| (ModelDigest::from_u128(k), Fingerprint::from_u128(k + 1));
    let cache = SharedCache::new(8);
    cache.insert(key(1).0, key(1).1, -0.5);
    cache.insert(key(3).0, key(3).1, f64::NEG_INFINITY);
    let path = std::env::temp_dir().join(format!("sppl-golden-{}.snap", std::process::id()));
    assert_eq!(cache.save_snapshot(&path).unwrap(), 2);
    assert_eq!(hex(&std::fs::read(&path).unwrap()), SNAPSHOT_TWO_ENTRIES);

    std::fs::write(&path, unhex(SNAPSHOT_TWO_ENTRIES)).unwrap();
    let restored = SharedCache::new(8);
    assert_eq!(restored.load_snapshot(&path).unwrap(), 2);
    assert_eq!(restored.get(key(1).0, key(1).1), Some(-0.5));
    assert_eq!(restored.get(key(3).0, key(3).1), Some(f64::NEG_INFINITY));
    std::fs::remove_file(&path).ok();
}
