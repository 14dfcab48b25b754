//! Content-addressed model identity: an explicit, versioned, vendored
//! 128-bit hash with a documented byte-level encoding of every domain
//! type that participates in a cache key.
//!
//! Before this module existed, [`Spe::digest`](crate::spe::Spe::digest),
//! [`Event::fingerprint`](crate::event::Event::fingerprint), and the
//! [`SharedCache`](crate::cache::SharedCache) key all rode on `std`'s
//! `DefaultHasher`, whose algorithm and keys are explicitly *not*
//! guaranteed stable across Rust releases or processes. That is fine for
//! an in-memory hash table and fatal for content addressing: an on-disk
//! cache written by one build would silently miss (or worse, collide)
//! under another. This module freezes the whole keying path:
//!
//! * **The hash** is SipHash-2-4 with 128-bit output, implemented here
//!   from the reference specification (Aumasson & Bernstein,
//!   "SipHash: a fast short-input PRF") and pinned by test vectors from
//!   the reference implementation — no `std` hasher anywhere.
//! * **The keys** are fixed constants ([`SIP_KEY_0`]/[`SIP_KEY_1`]), so
//!   every process of every build hashes identically.
//! * **The encoding** of each domain value into hasher input is explicit
//!   and documented (see [Encoding](#encoding)); [`DIGEST_VERSION`] is
//!   folded into every stream, so changing any encoding rule *must* bump
//!   the version, which in turn invalidates persisted snapshots instead
//!   of misreading them.
//!
//! The two 128-bit newtypes are the only currencies of identity:
//! [`ModelDigest`] names compiled model *content* (the deep
//! [`Spe`](crate::spe::Spe) digest) and [`Fingerprint`] names canonical
//! *event* structure. Both are wide enough that collisions are not a
//! practical concern for cache keying (the birthday bound at 2⁶⁴ entries).
//!
//! # Encoding
//!
//! This section is the one description of how a domain value becomes
//! bytes, in a digest stream and in a record of the
//! [SPE wire format](crate::wire) alike. The `encode_*` functions in this
//! module are the single source of truth: each writes its value once,
//! into an [`Encoder`] sink. The two sinks differ only in the width of a
//! *length* (a string's byte length or a sequence's element count):
//! [`Digester`] writes it as a `u64`, the wire writer as a `u32`.
//!
//! All integers are little-endian. `f64` is encoded as the little-endian
//! bytes of [`f64::to_bits`] (so `-0.0 ≠ 0.0` and every NaN payload is
//! distinct — encoding is *structural*, not numeric). Strings are a
//! length followed by the UTF-8 bytes. Sequences are a length followed
//! by the elements. Enums are a one-byte variant tag followed by the
//! variant's fields in declaration order. Every digest stream begins
//! with the `u32` [`DIGEST_VERSION`].
//!
//! The per-type layouts (tag bytes in parentheses); `len` is the sink's
//! length:
//!
//! * `Interval` — `lo: f64, lo_closed: u8, hi: f64, hi_closed: u8`
//! * `RealSet` — `count: len, intervals…`
//! * `StringSet` — polarity `u8` (0 finite, 1 cofinite), `count: len`,
//!   sorted strings
//! * `OutcomeSet` — reals then strings
//! * `Transform` — tag (0 `Id`, 1 `Reciprocal`, 2 `Abs`, 3 `Root`,
//!   4 `Exp`, 5 `Log`, 6 `Poly`, 7 `Piecewise`), then fields
//! * `Event` — tag (0 `In`, 1 `And`, 2 `Or`), then fields
//! * `Distribution` — tag (0 real, 1 int, 2 str, 3 atomic), then the
//!   `Cdf` (its own tag + parameters, each 8 bytes) and support
//! * Leaf — variable, distribution, then the environment: `count: len`
//!   and each derived variable with its transform, in insertion order
//! * SPE nodes in a digest — Merkle-style: tag (0 leaf, 1 sum,
//!   2 product); sums fold the `(child digest, weight)` pairs sorted by
//!   that pair, products the sorted child digests, so node identity is
//!   order-insensitive and shared subgraphs hash once (see
//!   [`Spe::digest`](crate::spe::Spe::digest)). Wire records tag nodes
//!   the same way but reference children by record index.

use std::fmt;

use sppl_dists::{Cdf, Distribution};
use sppl_sets::{Interval, OutcomeSet, RealSet, StringSet};

use crate::event::Event;
use crate::spe::Env;
use crate::transform::Transform;
use crate::var::Var;

/// Version of the digest encoding scheme. Folded into every digest and
/// fingerprint, and written into [`SharedCache`](crate::cache::SharedCache)
/// snapshot headers: any change to an `encode_*` rule or to the hash
/// itself **must** bump this constant, so persisted artifacts from the old
/// scheme load as empty rather than as wrong answers.
pub const DIGEST_VERSION: u32 = 1;

/// First half of the fixed SipHash key (`b"sppl-dig"` as a little-endian
/// integer). Fixed keys are the point: identity must agree across
/// processes, builds, and machines.
pub const SIP_KEY_0: u64 = u64::from_le_bytes(*b"sppl-dig");

/// Second half of the fixed SipHash key (`b"est-v001"`).
pub const SIP_KEY_1: u64 = u64::from_le_bytes(*b"est-v001");

// ---------------------------------------------------------------------------
// SipHash-2-4 with 128-bit output (vendored).
// ---------------------------------------------------------------------------

/// Streaming SipHash-2-4 state with 128-bit finalization, implemented
/// from the reference specification. `Clone` so [`finish128`] can run the
/// finalization rounds on a copy without consuming the stream.
///
/// [`finish128`]: Sip128::finish128
#[derive(Clone)]
struct Sip128 {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    /// Partial input word, little-endian, low `buf_len` bytes valid.
    buf: u64,
    buf_len: usize,
    /// Total bytes absorbed (mod 2⁵⁶ enters the final word's top byte,
    /// per the specification).
    len: u64,
}

#[inline]
fn sip_round(v0: &mut u64, v1: &mut u64, v2: &mut u64, v3: &mut u64) {
    *v0 = v0.wrapping_add(*v1);
    *v1 = v1.rotate_left(13);
    *v1 ^= *v0;
    *v0 = v0.rotate_left(32);
    *v2 = v2.wrapping_add(*v3);
    *v3 = v3.rotate_left(16);
    *v3 ^= *v2;
    *v0 = v0.wrapping_add(*v3);
    *v3 = v3.rotate_left(21);
    *v3 ^= *v0;
    *v2 = v2.wrapping_add(*v1);
    *v1 = v1.rotate_left(17);
    *v1 ^= *v2;
    *v2 = v2.rotate_left(32);
}

impl Sip128 {
    fn new(k0: u64, k1: u64) -> Sip128 {
        Sip128 {
            v0: k0 ^ 0x736f_6d65_7073_6575,
            v1: k1 ^ 0x646f_7261_6e64_6f6d ^ 0xee, // 128-bit mode marker
            v2: k0 ^ 0x6c79_6765_6e65_7261,
            v3: k1 ^ 0x7465_6462_7974_6573,
            buf: 0,
            buf_len: 0,
            len: 0,
        }
    }

    #[inline]
    fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        sip_round(&mut self.v0, &mut self.v1, &mut self.v2, &mut self.v3);
        sip_round(&mut self.v0, &mut self.v1, &mut self.v2, &mut self.v3);
        self.v0 ^= m;
    }

    fn write(&mut self, bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        let mut rest = bytes;
        // Top up a partial word first.
        if self.buf_len > 0 {
            let need = 8 - self.buf_len;
            let take = need.min(rest.len());
            for &b in &rest[..take] {
                self.buf |= u64::from(b) << (8 * self.buf_len);
                self.buf_len += 1;
            }
            rest = &rest[take..];
            if self.buf_len == 8 {
                let m = self.buf;
                self.compress(m);
                self.buf = 0;
                self.buf_len = 0;
            }
        }
        // Whole words.
        let mut chunks = rest.chunks_exact(8);
        for chunk in &mut chunks {
            let m = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.compress(m);
        }
        // Stash the tail.
        for &b in chunks.remainder() {
            self.buf |= u64::from(b) << (8 * self.buf_len);
            self.buf_len += 1;
        }
    }

    /// Finalizes a copy of the state: the remaining bytes plus the length
    /// byte form the last word, then the 128-bit output is produced as
    /// `lo = v0⊕v1⊕v2⊕v3` after `v2 ^= 0xee` and four rounds, and
    /// `hi` likewise after `v1 ^= 0xdd` and four more rounds.
    fn finish128(&self) -> u128 {
        let mut s = self.clone();
        let m = s.buf | (s.len << 56);
        s.compress(m);
        s.v2 ^= 0xee;
        for _ in 0..4 {
            sip_round(&mut s.v0, &mut s.v1, &mut s.v2, &mut s.v3);
        }
        let lo = s.v0 ^ s.v1 ^ s.v2 ^ s.v3;
        s.v1 ^= 0xdd;
        for _ in 0..4 {
            sip_round(&mut s.v0, &mut s.v1, &mut s.v2, &mut s.v3);
        }
        let hi = s.v0 ^ s.v1 ^ s.v2 ^ s.v3;
        u128::from(lo) | (u128::from(hi) << 64)
    }
}

// ---------------------------------------------------------------------------
// The byte sink and the digest writer.
// ---------------------------------------------------------------------------

/// A byte sink for the domain encoders (see [Encoding](self#encoding)):
/// a sink supplies [`bytes`](Encoder::bytes) and a [`len`](Encoder::len)
/// whose width it picks; the fixed-width writes are provided.
pub trait Encoder {
    /// Raw bytes, as-is (no length prefix; composite encoders add their
    /// own counts).
    fn bytes(&mut self, bytes: &[u8]);

    /// A sequence length or string byte length, in the sink's width.
    fn len(&mut self, n: usize);

    /// A one-byte variant tag.
    fn u8(&mut self, x: u8) {
        self.bytes(&[x]);
    }

    /// A little-endian `u32`.
    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    /// A little-endian `u64`.
    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// A little-endian `u128`.
    fn u128(&mut self, x: u128) {
        self.bytes(&x.to_le_bytes());
    }

    /// An `f64`, encoded structurally as the little-endian bytes of its
    /// bit pattern.
    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// A boolean as one byte (0/1).
    fn bool(&mut self, x: bool) {
        self.u8(u8::from(x));
    }

    /// A string: its byte length, then the UTF-8 bytes.
    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.bytes(s.as_bytes());
    }
}

/// A write-only stream computing the versioned content hash (see the
/// [module docs](self) for the encoding rules). Construction folds
/// [`DIGEST_VERSION`] in, so two schemes never share a digest.
pub struct Digester {
    sip: Sip128,
}

impl Default for Digester {
    fn default() -> Self {
        Digester::new()
    }
}

impl Digester {
    /// A fresh stream, seeded with the fixed keys and [`DIGEST_VERSION`].
    pub fn new() -> Digester {
        let mut d = Digester {
            sip: Sip128::new(SIP_KEY_0, SIP_KEY_1),
        };
        d.u32(DIGEST_VERSION);
        d
    }

    /// The 128-bit hash of everything written so far (the stream remains
    /// usable; finalization runs on a copy).
    pub fn finish(&self) -> u128 {
        self.sip.finish128()
    }
}

impl Encoder for Digester {
    fn bytes(&mut self, bytes: &[u8]) {
        self.sip.write(bytes);
    }

    /// A `u64` length.
    fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }
}

// ---------------------------------------------------------------------------
// Identity newtypes.
// ---------------------------------------------------------------------------

/// The 128-bit content digest of a compiled model (a deep, canonical,
/// versioned hash of an [`Spe`](crate::spe::Spe) — see
/// [`Spe::digest`](crate::spe::Spe::digest)). Equal digests mean equal
/// model content, across factories, processes, and builds of one
/// [`DIGEST_VERSION`]; this is the model half of every
/// [`SharedCache`](crate::cache::SharedCache) key and the identity under
/// which snapshots persist results.
///
/// ```
/// use sppl_core::digest::ModelDigest;
/// let d = ModelDigest::from_u128(0xdead_beef);
/// assert_eq!(d, ModelDigest::from_le_bytes(d.to_le_bytes()));
/// assert_eq!(format!("{d}"), "000000000000000000000000deadbeef");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelDigest(u128);

/// The 128-bit structural fingerprint of a (canonicalized)
/// [`Event`] — the event half of every cache key.
/// See [`Event::fingerprint`](crate::event::Event::fingerprint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(u128);

macro_rules! identity_newtype {
    ($name:ident) => {
        impl $name {
            /// Wraps a raw 128-bit value (snapshot decoding, tests).
            pub const fn from_u128(x: u128) -> $name {
                $name(x)
            }

            /// The raw 128-bit value.
            pub const fn as_u128(self) -> u128 {
                self.0
            }

            /// Little-endian bytes (the snapshot wire format).
            pub fn to_le_bytes(self) -> [u8; 16] {
                self.0.to_le_bytes()
            }

            /// Reads the little-endian wire format back.
            pub fn from_le_bytes(bytes: [u8; 16]) -> $name {
                $name(u128::from_le_bytes(bytes))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:032x}", self.0)
            }
        }
    };
}

identity_newtype!(ModelDigest);
identity_newtype!(Fingerprint);

// Leading tags distinguishing the *kind* of stream, so a transform and an
// event with coincidentally identical field bytes can never collide.
const TAG_TRANSFORM_STREAM: u8 = 0x54; // 'T'
const TAG_EVENT_STREAM: u8 = 0x45; // 'E'
pub(crate) const TAG_ASSIGNMENT_STREAM: u8 = 0x41; // 'A'
pub(crate) const TAG_NODE_STREAM: u8 = 0x4e; // 'N'

/// The fingerprint of an event's structure (the implementation behind
/// [`Event::fingerprint`](crate::event::Event::fingerprint)).
pub(crate) fn event_fingerprint(event: &Event) -> Fingerprint {
    let mut d = Digester::new();
    d.u8(TAG_EVENT_STREAM);
    encode_event(&mut d, event);
    Fingerprint(d.finish())
}

/// The fingerprint of a transform's structure (same scheme as events;
/// exposed for tests and tooling that need a stable transform identity).
pub fn transform_fingerprint(t: &Transform) -> Fingerprint {
    let mut d = Digester::new();
    d.u8(TAG_TRANSFORM_STREAM);
    encode_transform(&mut d, t);
    Fingerprint(d.finish())
}

// ---------------------------------------------------------------------------
// Domain encoders (the byte-level layouts documented in the module docs).
// ---------------------------------------------------------------------------

pub(crate) fn encode_var(e: &mut impl Encoder, v: &Var) {
    e.str(v.name());
}

pub(crate) fn encode_interval(e: &mut impl Encoder, iv: &Interval) {
    e.f64(iv.lo());
    e.bool(iv.lo_closed());
    e.f64(iv.hi());
    e.bool(iv.hi_closed());
}

pub(crate) fn encode_real_set(e: &mut impl Encoder, rs: &RealSet) {
    e.len(rs.intervals().len());
    for iv in rs.intervals() {
        encode_interval(e, iv);
    }
}

pub(crate) fn encode_string_set(e: &mut impl Encoder, ss: &StringSet) {
    let (polarity, names) = match ss {
        StringSet::Finite(names) => (0, names),
        StringSet::Cofinite(names) => (1, names),
    };
    e.u8(polarity);
    e.len(names.len());
    for name in names {
        e.str(name);
    }
}

pub(crate) fn encode_outcome_set(e: &mut impl Encoder, v: &OutcomeSet) {
    encode_real_set(e, v.reals());
    encode_string_set(e, v.strs());
}

pub(crate) fn encode_cdf(e: &mut impl Encoder, c: &Cdf) {
    match *c {
        Cdf::Normal { mu, sigma } => {
            e.u8(0);
            e.f64(mu);
            e.f64(sigma);
        }
        Cdf::Uniform { a, b } => {
            e.u8(1);
            e.f64(a);
            e.f64(b);
        }
        Cdf::Exponential { rate } => {
            e.u8(2);
            e.f64(rate);
        }
        Cdf::Gamma { shape, scale } => {
            e.u8(3);
            e.f64(shape);
            e.f64(scale);
        }
        Cdf::Beta { a, b, scale } => {
            e.u8(4);
            e.f64(a);
            e.f64(b);
            e.f64(scale);
        }
        Cdf::Cauchy { loc, scale } => {
            e.u8(5);
            e.f64(loc);
            e.f64(scale);
        }
        Cdf::Laplace { loc, scale } => {
            e.u8(6);
            e.f64(loc);
            e.f64(scale);
        }
        Cdf::Logistic { loc, scale } => {
            e.u8(7);
            e.f64(loc);
            e.f64(scale);
        }
        Cdf::StudentT { df } => {
            e.u8(8);
            e.f64(df);
        }
        Cdf::Poisson { mu } => {
            e.u8(9);
            e.f64(mu);
        }
        Cdf::Binomial { n, p } => {
            e.u8(10);
            e.u64(n);
            e.f64(p);
        }
        Cdf::Geometric { p } => {
            e.u8(11);
            e.f64(p);
        }
        Cdf::DiscreteUniform { lo, hi } => {
            e.u8(12);
            e.u64(lo as u64);
            e.u64(hi as u64);
        }
    }
}

pub(crate) fn encode_distribution(e: &mut impl Encoder, dist: &Distribution) {
    match dist {
        Distribution::Real(dr) => {
            e.u8(0);
            encode_cdf(e, dr.cdf());
            encode_interval(e, &dr.support());
        }
        Distribution::Int(di) => {
            e.u8(1);
            encode_cdf(e, di.cdf());
            e.f64(di.lo());
            e.f64(di.hi());
        }
        Distribution::Str(ds) => {
            e.u8(2);
            e.len(ds.items().len());
            for (s, w) in ds.items() {
                e.str(s);
                e.f64(*w);
            }
        }
        Distribution::Atomic { loc } => {
            e.u8(3);
            e.f64(*loc);
        }
    }
}

pub(crate) fn encode_transform(e: &mut impl Encoder, t: &Transform) {
    match t {
        Transform::Id(v) => {
            e.u8(0);
            encode_var(e, v);
        }
        Transform::Reciprocal(inner) => {
            e.u8(1);
            encode_transform(e, inner);
        }
        Transform::Abs(inner) => {
            e.u8(2);
            encode_transform(e, inner);
        }
        Transform::Root(inner, n) => {
            e.u8(3);
            encode_transform(e, inner);
            e.u32(*n);
        }
        Transform::Exp(inner, base) => {
            e.u8(4);
            encode_transform(e, inner);
            e.f64(*base);
        }
        Transform::Log(inner, base) => {
            e.u8(5);
            encode_transform(e, inner);
            e.f64(*base);
        }
        Transform::Poly(inner, p) => {
            e.u8(6);
            encode_transform(e, inner);
            e.len(p.coeffs().len());
            for &c in p.coeffs() {
                e.f64(c);
            }
        }
        Transform::Piecewise(cases) => {
            e.u8(7);
            e.len(cases.len());
            for (branch, guard) in cases {
                encode_transform(e, branch);
                encode_event(e, guard);
            }
        }
    }
}

pub(crate) fn encode_event(e: &mut impl Encoder, event: &Event) {
    match event {
        Event::In(t, v) => {
            e.u8(0);
            encode_transform(e, t);
            encode_outcome_set(e, v);
        }
        Event::And(items) | Event::Or(items) => {
            e.u8(if matches!(event, Event::And(_)) { 1 } else { 2 });
            e.len(items.len());
            for item in items {
                encode_event(e, item);
            }
        }
    }
}

/// A leaf's content (its node tag is the caller's): the variable, the
/// distribution, then the environment's derived variables and their
/// transforms in insertion order.
pub(crate) fn encode_leaf(e: &mut impl Encoder, var: &Var, dist: &Distribution, env: &Env) {
    encode_var(e, var);
    encode_distribution(e, dist);
    e.len(env.entries().len());
    for (v, t) in env.entries() {
        encode_var(e, v);
        encode_transform(e, t);
    }
}

// ---------------------------------------------------------------------------
// A std-compatible stable hasher (shard selection, intern buckets).
// ---------------------------------------------------------------------------

/// A [`std::hash::Hasher`] over the vendored hash, for call sites that
/// hash via the `Hash` trait (shard selection in
/// `ShardedMap`, intern-bucket keys). The 64-bit
/// output is the low half of the 128-bit finalization. Unlike
/// `DefaultHasher`, the value for a given input never changes across
/// builds — nothing in the crate depends on an unstable hash anymore.
#[derive(Default)]
pub struct StableHasher {
    sip: Option<Sip128>,
}

impl StableHasher {
    /// A fresh hasher with the fixed keys.
    pub fn new() -> StableHasher {
        StableHasher {
            sip: Some(Sip128::new(SIP_KEY_0, SIP_KEY_1)),
        }
    }

    fn sip(&mut self) -> &mut Sip128 {
        self.sip
            .get_or_insert_with(|| Sip128::new(SIP_KEY_0, SIP_KEY_1))
    }
}

impl std::hash::Hasher for StableHasher {
    fn finish(&self) -> u64 {
        match &self.sip {
            Some(sip) => sip.finish128() as u64,
            None => Sip128::new(SIP_KEY_0, SIP_KEY_1).finish128() as u64,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        self.sip().write(bytes);
    }
}

/// The 128-bit keyed checksum of a byte slice (little-endian): the
/// trailer of the [`crate::store`] envelope every persisted artifact
/// (SPE wire payloads, [`SharedCache`](crate::cache::SharedCache)
/// snapshots) travels in, so bit-level corruption of the body is
/// rejected, not just corruption of the header.
pub(crate) fn checksum128(bytes: &[u8]) -> [u8; 16] {
    let mut s = Sip128::new(SIP_KEY_0, SIP_KEY_1);
    s.write(bytes);
    s.finish128().to_le_bytes()
}

/// Convenience: the stable 64-bit hash of any `Hash` value (used for
/// intern-table bucketing, where only within-process consistency is
/// required but an explicit algorithm is still preferred over
/// `DefaultHasher`).
pub(crate) fn stable_hash64<T: std::hash::Hash>(value: &T) -> u64 {
    use std::hash::Hasher as _;
    let mut h = StableHasher::new();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SipHash-2-4-128 test vectors from the reference implementation
    /// (`vectors_sip128` in https://github.com/veorq/SipHash/blob/master/
    /// vectors.h): key `0x000102…0f`, inputs `[]`, `[0]`, `[0,1]`, and
    /// `[0,1,…,7]`.
    #[test]
    fn siphash128_matches_reference_vectors() {
        let k0 = u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]);
        let k1 = u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]);
        let hash = |input: &[u8]| -> [u8; 16] {
            let mut s = Sip128::new(k0, k1);
            s.write(input);
            s.finish128().to_le_bytes()
        };
        let expected: [(usize, [u8; 16]); 3] = [
            (
                0,
                [
                    0xa3, 0x81, 0x7f, 0x04, 0xba, 0x25, 0xa8, 0xe6, 0x6d, 0xf6, 0x72, 0x14, 0xc7,
                    0x55, 0x02, 0x93,
                ],
            ),
            (
                1,
                [
                    0xda, 0x87, 0xc1, 0xd8, 0x6b, 0x99, 0xaf, 0x44, 0x34, 0x76, 0x59, 0x11, 0x9b,
                    0x22, 0xfc, 0x45,
                ],
            ),
            (
                2,
                [
                    0x81, 0x77, 0x22, 0x8d, 0xa4, 0xa4, 0x5d, 0xc7, 0xfc, 0xa3, 0x8b, 0xde, 0xf6,
                    0x0a, 0xff, 0xe4,
                ],
            ),
        ];
        for (n, want) in expected {
            let input: Vec<u8> = (0..n as u8).collect();
            assert_eq!(hash(&input), want, "vector for input length {n}");
        }
        // A whole-word input (length 8), pinned from this implementation:
        // the reference vectors above cover the tail path; the 64-bit
        // cross-check against `std` covers the word path independently.
        // This fixture turns any future regression of either into a diff.
        assert_eq!(
            hash(&(0..8u8).collect::<Vec<u8>>()),
            [
                0x3b, 0x62, 0xa9, 0xba, 0x62, 0x58, 0xf5, 0x61, 0x0f, 0x83, 0xe2, 0x64, 0xf3, 0x14,
                0x97, 0xb4,
            ],
        );
    }

    /// The 64-bit SipHash-2-4 built from the same `sip_round`/message
    /// schedule must agree with `std`'s (deprecated, but still shipped)
    /// `SipHasher`, which *is* specified as SipHash-2-4 — an independent
    /// check of the round function, word packing, and length byte across
    /// every tail length.
    #[test]
    #[allow(deprecated)]
    fn round_function_matches_std_siphash24() {
        use std::hash::Hasher as _;
        fn sip24_64(k0: u64, k1: u64, input: &[u8]) -> u64 {
            let mut v0 = k0 ^ 0x736f_6d65_7073_6575;
            let mut v1 = k1 ^ 0x646f_7261_6e64_6f6d;
            let mut v2 = k0 ^ 0x6c79_6765_6e65_7261;
            let mut v3 = k1 ^ 0x7465_6462_7974_6573;
            let compress = |m: u64, v0: &mut u64, v1: &mut u64, v2: &mut u64, v3: &mut u64| {
                *v3 ^= m;
                sip_round(v0, v1, v2, v3);
                sip_round(v0, v1, v2, v3);
                *v0 ^= m;
            };
            let mut chunks = input.chunks_exact(8);
            for chunk in &mut chunks {
                let m = u64::from_le_bytes(chunk.try_into().unwrap());
                compress(m, &mut v0, &mut v1, &mut v2, &mut v3);
            }
            let mut last = (input.len() as u64) << 56;
            for (i, &b) in chunks.remainder().iter().enumerate() {
                last |= u64::from(b) << (8 * i);
            }
            compress(last, &mut v0, &mut v1, &mut v2, &mut v3);
            v2 ^= 0xff;
            for _ in 0..4 {
                sip_round(&mut v0, &mut v1, &mut v2, &mut v3);
            }
            v0 ^ v1 ^ v2 ^ v3
        }
        let data: Vec<u8> = (0..32).map(|i| i * 3 + 1).collect();
        for len in 0..data.len() {
            let mut std_sip = std::hash::SipHasher::new_with_keys(9, 77);
            std_sip.write(&data[..len]);
            assert_eq!(
                sip24_64(9, 77, &data[..len]),
                std_sip.finish(),
                "length {len}"
            );
        }
    }

    #[test]
    fn streaming_is_split_insensitive() {
        let data: Vec<u8> = (0..64).collect();
        let mut whole = Sip128::new(1, 2);
        whole.write(&data);
        for split in [1, 3, 7, 8, 9, 13, 63] {
            let mut parts = Sip128::new(1, 2);
            parts.write(&data[..split]);
            parts.write(&data[split..]);
            assert_eq!(whole.finish128(), parts.finish128(), "split at {split}");
        }
    }

    #[test]
    fn digester_separates_field_boundaries() {
        // str length prefixes keep ("ab", "c") and ("a", "bc") apart.
        let mut a = Digester::new();
        a.str("ab");
        a.str("c");
        let mut b = Digester::new();
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn version_is_folded_in() {
        // An empty Digester stream still differs from the raw keyed hash
        // of nothing, because the version went in first.
        let empty = Sip128::new(SIP_KEY_0, SIP_KEY_1).finish128();
        assert_ne!(Digester::new().finish(), empty);
    }

    #[test]
    fn newtype_round_trips_and_formats() {
        let d = ModelDigest::from_u128(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
        assert_eq!(ModelDigest::from_le_bytes(d.to_le_bytes()), d);
        assert_eq!(format!("{d}").len(), 32);
        let f = Fingerprint::from_u128(42);
        assert_eq!(Fingerprint::from_le_bytes(f.to_le_bytes()), f);
    }

    #[test]
    fn transform_fingerprint_distinguishes_structure() {
        let x = Var::new("X");
        let a = transform_fingerprint(&Transform::id(x.clone()).pow_int(2));
        let b = transform_fingerprint(&Transform::id(x.clone()).pow_int(3));
        assert_ne!(a, b);
        assert_eq!(a, transform_fingerprint(&Transform::id(x).pow_int(2)));
    }

    #[test]
    fn stable_hasher_is_deterministic() {
        assert_eq!(stable_hash64(&("abc", 7u64)), stable_hash64(&("abc", 7u64)));
        assert_ne!(stable_hash64(&("abc", 7u64)), stable_hash64(&("abd", 7u64)));
    }
}
