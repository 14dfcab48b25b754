//! The SPE wire format: versioned, checksummed binary serialization of a
//! compiled sum-product expression, and the deserializer that re-interns
//! it through a [`Factory`].
//!
//! This is the persistence half of content-addressed compilation: once a
//! program has been translated, its SPE can be written to disk (or
//! shipped over the serve protocol's `export`/`import` ops) and loaded
//! back by *any* process with **zero translations** — the round-trip
//! reproduces the exact [`ModelDigest`] and therefore bit-identical
//! query answers. The payload is framed by the [`crate::store`]
//! envelope: magic, format version, [`DIGEST_VERSION`], the body below,
//! and a trailing keyed Sip128 checksum over everything before it.
//!
//! # Layout
//!
//! All integers are little-endian; every `f64` travels as the 8 bytes of
//! [`f64::to_bits`] — exact, no text round-trip.
//!
//! | bytes | content |
//! |---|---|
//! | 8 | magic `b"SPPLWIRE"` (envelope) |
//! | 4 | wire format version `u32` ([`WIRE_FORMAT_VERSION`]) (envelope) |
//! | 4 | digest version `u32` ([`DIGEST_VERSION`] of the writing build) (envelope) |
//! | 16 | root [`ModelDigest`] (`u128`) |
//! | 8 | node count `u64` |
//! | … | node records, children-first (postorder), each `u32` length-prefixed |
//! | 16 | keyed Sip128 checksum of every preceding byte (envelope) |
//!
//! Nodes are emitted in a topological order with children before
//! parents; sums and products reference children by **record index**
//! (a back-reference to an earlier record), so a shared subgraph is
//! serialized once and the DAG does not blow up into a tree. A leaf
//! record carries its variable, primitive distribution, and derived-
//! variable environment (transforms, including piecewise cases with
//! their guard events) in full.
//!
//! Inside a record, domain values (intervals, sets, CDFs, distributions,
//! transforms, events, leaves) are laid out by the digest's encoders, as
//! the [digest encoding](crate::digest#encoding) describes, with every
//! length a `u32`: a value has one byte layout, whether it is hashed or
//! shipped. This module owns the node framing (postorder, record indices,
//! record length prefixes) and all decoding.
//!
//! # Fail-closed reading
//!
//! [`deserialize_spe`] validates the envelope and every structural
//! invariant *before* handing anything to the factory, and
//! rejects with [`SpplError::Snapshot`] on any mismatch — a truncated,
//! bit-flipped, or version-skewed payload never produces a model. The
//! final gate is semantic: the rebuilt root's content digest must equal
//! the root digest the payload records, so a payload that parses but
//! would answer differently is refused too.
//!
//! Rebuilding goes through the factory's *non-renormalizing* paths
//! (weights were normalized when the sum was first built; normalizing
//! twice is not bit-idempotent), which is why this module lives in
//! `crates/core` — it is the **only** place that frames or decodes SPE
//! structure, a boundary CI enforces with a grep guard.
//!
//! [`DIGEST_VERSION`]: crate::digest::DIGEST_VERSION
//!
//! ```
//! use sppl_core::spe::Factory;
//! use sppl_core::wire::{deserialize_spe, serialize_spe};
//! use sppl_core::var::Var;
//! use sppl_dists::{Cdf, DistReal, Distribution};
//! use sppl_sets::Interval;
//!
//! let factory = Factory::new();
//! let dist = DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap();
//! let spe = factory.leaf(Var::new("X"), Distribution::Real(dist));
//! let bytes = serialize_spe(&spe);
//!
//! let fresh = Factory::new();
//! let back = deserialize_spe(&fresh, &bytes).unwrap();
//! assert_eq!(back.digest(), spe.digest());
//! ```

use std::collections::BTreeSet;
use std::collections::HashMap;

use sppl_dists::{Cdf, DistInt, DistReal, DistStr, Distribution};
use sppl_num::Polynomial;
use sppl_sets::{Interval, OutcomeSet, RealSet, StringSet};

use crate::digest::{self, Encoder, ModelDigest};
use crate::error::SpplError;
use crate::event::Event;
use crate::spe::{Env, Factory, Node, Spe};
use crate::store::{self, Format};
use crate::transform::Transform;
use crate::var::Var;

/// Leading magic of every SPE wire payload.
pub const WIRE_MAGIC: [u8; 8] = *b"SPPLWIRE";

/// Version of the byte layout itself. Bump on any layout change;
/// readers refuse other versions. Orthogonal to
/// [`DIGEST_VERSION`](crate::digest::DIGEST_VERSION),
/// which versions the *meaning* of the digests the payload is keyed
/// and verified by.
pub const WIRE_FORMAT_VERSION: u32 = 1;

/// The envelope every payload travels in ([`crate::store`]).
const WIRE: Format = Format {
    magic: WIRE_MAGIC,
    version: WIRE_FORMAT_VERSION,
    name: "SPE wire",
};

/// Body bytes before the records: root digest + node count.
const BODY_HEADER_LEN: usize = 16 + 8;

/// Recursion bound for nested transforms/events inside one record —
/// far above anything a real program produces, low enough that a
/// corrupt payload cannot overflow the stack.
const MAX_DEPTH: usize = 200;

fn wire_err(message: impl Into<String>) -> SpplError {
    SpplError::Snapshot {
        message: format!("SPE wire: {}", message.into()),
    }
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

/// A record buffer: domain values go through the digest's encoders, with
/// `u32` lengths.
struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl Encoder for Writer<'_> {
    fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("wire collection fits in u32"));
    }
}

/// Serializes `root` (the full reachable DAG) into a standalone wire
/// payload. Shared subgraphs are written once and referenced by record
/// index, so the output size is proportional to the number of distinct
/// interned nodes, not the tree expansion.
pub fn serialize_spe(root: &Spe) -> Vec<u8> {
    // Postorder over the DAG with a ptr-keyed memo: children always get
    // lower record indices than their parents.
    let mut order: Vec<Spe> = Vec::new();
    let mut index: HashMap<usize, u64> = HashMap::new();
    let mut stack: Vec<(Spe, bool)> = vec![(root.clone(), false)];
    while let Some((spe, expanded)) = stack.pop() {
        if index.contains_key(&spe.ptr_id()) {
            continue;
        }
        if expanded {
            index.insert(spe.ptr_id(), order.len() as u64);
            order.push(spe);
            continue;
        }
        stack.push((spe.clone(), true));
        match spe.node() {
            Node::Leaf { .. } => {}
            Node::Sum { children, .. } => {
                for (c, _) in children {
                    stack.push((c.clone(), false));
                }
            }
            Node::Product { children, .. } => {
                for c in children {
                    stack.push((c.clone(), false));
                }
            }
        }
    }

    store::seal(&WIRE, |buf| {
        buf.reserve(BODY_HEADER_LEN + 64 * order.len() + store::CHECKSUM_LEN);
        let mut w = Writer { buf };
        w.u128(root.digest().as_u128());
        w.u64(order.len() as u64);
        let mut record = Vec::new();
        for spe in &order {
            record.clear();
            let mut r = Writer { buf: &mut record };
            match spe.node() {
                Node::Leaf { var, dist, env, .. } => {
                    r.u8(0);
                    digest::encode_leaf(&mut r, var, dist, env);
                }
                Node::Sum { children, .. } => {
                    r.u8(1);
                    r.len(children.len());
                    for (c, weight) in children {
                        r.u64(index[&c.ptr_id()]);
                        r.f64(*weight);
                    }
                }
                Node::Product { children, .. } => {
                    r.u8(2);
                    r.len(children.len());
                    for c in children {
                        r.u64(index[&c.ptr_id()]);
                    }
                }
            }
            w.len(record.len());
            w.bytes(&record);
        }
    })
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SpplError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| wire_err("truncated record"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8, SpplError> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> Result<bool, SpplError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(wire_err(format!("invalid bool byte {other}"))),
        }
    }
    fn u32(&mut self) -> Result<u32, SpplError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }
    fn u64(&mut self) -> Result<u64, SpplError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }
    fn i64(&mut self) -> Result<i64, SpplError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }
    fn f64(&mut self) -> Result<f64, SpplError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// A collection length, sanity-bounded by the bytes that remain:
    /// every element costs at least `min_elem` bytes, so a huge length
    /// in a corrupt payload is rejected before any allocation.
    fn len(&mut self, min_elem: usize) -> Result<usize, SpplError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.buf.len() - self.pos {
            return Err(wire_err("collection length exceeds payload"));
        }
        Ok(n)
    }
    fn str(&mut self) -> Result<String, SpplError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| wire_err("invalid UTF-8 in string"))
    }
    fn var(&mut self) -> Result<Var, SpplError> {
        Ok(Var::new(self.str()?))
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn interval(&mut self) -> Result<Interval, SpplError> {
        let lo = self.f64()?;
        let lo_closed = self.bool()?;
        let hi = self.f64()?;
        let hi_closed = self.bool()?;
        Interval::new(lo, lo_closed, hi, hi_closed).ok_or_else(|| wire_err("invalid interval"))
    }

    fn real_set(&mut self) -> Result<RealSet, SpplError> {
        let n = self.len(18)?;
        let mut intervals = Vec::with_capacity(n);
        for _ in 0..n {
            intervals.push(self.interval()?);
        }
        Ok(RealSet::from_intervals(intervals))
    }

    fn string_set(&mut self) -> Result<StringSet, SpplError> {
        let tag = self.u8()?;
        let n = self.len(4)?;
        let mut items = BTreeSet::new();
        for _ in 0..n {
            items.insert(self.str()?);
        }
        match tag {
            0 => Ok(StringSet::Finite(items)),
            1 => Ok(StringSet::Cofinite(items)),
            other => Err(wire_err(format!("unknown string-set tag {other}"))),
        }
    }

    fn outcome_set(&mut self) -> Result<OutcomeSet, SpplError> {
        let reals = self.real_set()?;
        let strings = self.string_set()?;
        Ok(OutcomeSet::from_reals(reals).union(&OutcomeSet::from_strings(strings)))
    }

    fn cdf(&mut self) -> Result<Cdf, SpplError> {
        let cdf = match self.u8()? {
            0 => Cdf::Normal {
                mu: self.f64()?,
                sigma: self.f64()?,
            },
            1 => Cdf::Uniform {
                a: self.f64()?,
                b: self.f64()?,
            },
            2 => Cdf::Exponential { rate: self.f64()? },
            3 => Cdf::Gamma {
                shape: self.f64()?,
                scale: self.f64()?,
            },
            4 => Cdf::Beta {
                a: self.f64()?,
                b: self.f64()?,
                scale: self.f64()?,
            },
            5 => Cdf::Cauchy {
                loc: self.f64()?,
                scale: self.f64()?,
            },
            6 => Cdf::Laplace {
                loc: self.f64()?,
                scale: self.f64()?,
            },
            7 => Cdf::Logistic {
                loc: self.f64()?,
                scale: self.f64()?,
            },
            8 => Cdf::StudentT { df: self.f64()? },
            9 => Cdf::Poisson { mu: self.f64()? },
            10 => Cdf::Binomial {
                n: self.u64()?,
                p: self.f64()?,
            },
            11 => Cdf::Geometric { p: self.f64()? },
            12 => Cdf::DiscreteUniform {
                lo: self.i64()?,
                hi: self.i64()?,
            },
            other => return Err(wire_err(format!("unknown CDF tag {other}"))),
        };
        if !cdf_well_formed(&cdf) {
            return Err(wire_err("CDF parameters out of range"));
        }
        Ok(cdf)
    }

    fn distribution(&mut self) -> Result<Distribution, SpplError> {
        match self.u8()? {
            0 => {
                let cdf = self.cdf()?;
                let support = self.interval()?;
                let dist =
                    DistReal::new(cdf, support).ok_or_else(|| wire_err("invalid real leaf"))?;
                Ok(Distribution::Real(dist))
            }
            1 => {
                let cdf = self.cdf()?;
                let lo = self.f64()?;
                let hi = self.f64()?;
                let dist = DistInt::new(cdf, lo, hi).ok_or_else(|| wire_err("invalid int leaf"))?;
                Ok(Distribution::Int(dist))
            }
            2 => {
                let n = self.len(13)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let s = self.str()?;
                    let w = self.f64()?;
                    items.push((s, w));
                }
                // The stored weights were normalized when the leaf was
                // built; re-normalizing would perturb their bits, so
                // rebuild through the exact constructor.
                let dist = DistStr::from_normalized(items)
                    .ok_or_else(|| wire_err("invalid categorical weights"))?;
                Ok(Distribution::Str(dist))
            }
            3 => {
                let loc = self.f64()?;
                if loc.is_nan() {
                    return Err(wire_err("atomic location is NaN"));
                }
                Ok(Distribution::Atomic { loc })
            }
            other => Err(wire_err(format!("unknown distribution tag {other}"))),
        }
    }

    fn transform(&mut self, depth: usize) -> Result<Transform, SpplError> {
        if depth > MAX_DEPTH {
            return Err(wire_err("transform nesting exceeds depth bound"));
        }
        match self.u8()? {
            0 => Ok(Transform::Id(self.var()?)),
            1 => Ok(Transform::Reciprocal(Box::new(self.transform(depth + 1)?))),
            2 => Ok(Transform::Abs(Box::new(self.transform(depth + 1)?))),
            3 => {
                let inner = self.transform(depth + 1)?;
                let n = self.u32()?;
                if n == 0 {
                    return Err(wire_err("root degree must be >= 1"));
                }
                Ok(Transform::Root(Box::new(inner), n))
            }
            4 => {
                let inner = self.transform(depth + 1)?;
                Ok(Transform::Exp(Box::new(inner), self.f64()?))
            }
            5 => {
                let inner = self.transform(depth + 1)?;
                Ok(Transform::Log(Box::new(inner), self.f64()?))
            }
            6 => {
                let inner = self.transform(depth + 1)?;
                let n = self.len(8)?;
                let mut coeffs = Vec::with_capacity(n);
                for _ in 0..n {
                    coeffs.push(self.f64()?);
                }
                Ok(Transform::Poly(Box::new(inner), Polynomial::new(coeffs)))
            }
            7 => {
                let n = self.len(2)?;
                let mut cases = Vec::with_capacity(n);
                for _ in 0..n {
                    let branch = self.transform(depth + 1)?;
                    let guard = self.event(depth + 1)?;
                    cases.push((branch, guard));
                }
                Ok(Transform::Piecewise(cases))
            }
            other => Err(wire_err(format!("unknown transform tag {other}"))),
        }
    }

    fn event(&mut self, depth: usize) -> Result<Event, SpplError> {
        if depth > MAX_DEPTH {
            return Err(wire_err("event nesting exceeds depth bound"));
        }
        match self.u8()? {
            0 => {
                let t = self.transform(depth + 1)?;
                let set = self.outcome_set()?;
                Ok(Event::In(t, set))
            }
            tag @ (1 | 2) => {
                let n = self.len(1)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.event(depth + 1)?);
                }
                Ok(if tag == 1 {
                    Event::And(items)
                } else {
                    Event::Or(items)
                })
            }
            other => Err(wire_err(format!("unknown event tag {other}"))),
        }
    }

    fn env(&mut self) -> Result<Env, SpplError> {
        let n = self.len(6)?;
        let mut env = Env::new();
        for _ in 0..n {
            let var = self.var()?;
            let t = self.transform(0)?;
            env = env.with(var, t);
        }
        Ok(env)
    }
}

/// Mirrors the panics of the [`Cdf`] convenience constructors as a
/// fallible check, so corrupt parameters are rejected instead of
/// panicking somewhere inside a later evaluation.
fn cdf_well_formed(cdf: &Cdf) -> bool {
    let pos = |x: f64| x.is_finite() && x > 0.0;
    match cdf {
        Cdf::Normal { mu, sigma } => mu.is_finite() && pos(*sigma),
        Cdf::Uniform { a, b } => a.is_finite() && b.is_finite() && a < b,
        Cdf::Exponential { rate } => pos(*rate),
        Cdf::Gamma { shape, scale } => pos(*shape) && pos(*scale),
        Cdf::Beta { a, b, scale } => pos(*a) && pos(*b) && pos(*scale),
        Cdf::Cauchy { loc, scale } | Cdf::Laplace { loc, scale } | Cdf::Logistic { loc, scale } => {
            loc.is_finite() && pos(*scale)
        }
        Cdf::StudentT { df } => pos(*df),
        Cdf::Poisson { mu } => pos(*mu),
        Cdf::Binomial { p, .. } => p.is_finite() && (0.0..=1.0).contains(p),
        Cdf::Geometric { p } => p.is_finite() && *p > 0.0 && *p <= 1.0,
        Cdf::DiscreteUniform { lo, hi } => lo <= hi,
    }
}

/// Reads just the root [`ModelDigest`] out of a wire payload's body,
/// after validating the envelope (magic, both versions, length and the
/// trailing checksum) — everything except the structural rebuild.
/// This is how a cache can index payloads without paying for
/// deserialization.
///
/// # Errors
///
/// [`SpplError::Snapshot`] on any envelope or body-header mismatch.
pub fn wire_digest(bytes: &[u8]) -> Result<ModelDigest, SpplError> {
    open_payload(bytes).map(|(root, _, _)| root)
}

/// Opens a payload's envelope and splits its body into the root digest,
/// the node count and the records.
fn open_payload(bytes: &[u8]) -> Result<(ModelDigest, u64, &[u8]), SpplError> {
    let body = store::open(&WIRE, bytes)?;
    let head = body
        .get(..BODY_HEADER_LEN)
        .ok_or_else(|| wire_err("body too short"))?;
    let root = ModelDigest::from_le_bytes(head[..16].try_into().expect("16B"));
    let count = u64::from_le_bytes(head[16..].try_into().expect("8B"));
    Ok((root, count, &body[BODY_HEADER_LEN..]))
}

/// Deserializes a wire payload by re-interning every node through
/// `factory`, children first. The rebuilt root's content digest must
/// equal the digest recorded in the header; anything less fails closed.
///
/// # Errors
///
/// [`SpplError::Snapshot`] on any validation failure — envelope,
/// structure, or final digest mismatch. The factory is a
/// hash-consing interner, so nodes interned before a late failure are
/// harmless (they are exactly the nodes a successful load would intern).
pub fn deserialize_spe(factory: &Factory, bytes: &[u8]) -> Result<Spe, SpplError> {
    let (expected, count, records) = open_payload(bytes)?;
    // Each record costs at least 5 bytes (length prefix + tag).
    if count > (records.len() / 5) as u64 {
        return Err(wire_err("node count exceeds payload"));
    }
    if count == 0 {
        return Err(wire_err("payload has no nodes"));
    }

    let mut r = Reader {
        buf: records,
        pos: 0,
    };
    let mut nodes: Vec<Spe> = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let record_len = r.len(1)?;
        let body = r.take(record_len)?;
        let mut rec = Reader { buf: body, pos: 0 };
        let child = |rec: &mut Reader, built: &[Spe]| -> Result<Spe, SpplError> {
            let idx = rec.u64()? as usize;
            built
                .get(idx)
                .cloned()
                .ok_or_else(|| wire_err("child reference is not an earlier record"))
        };
        let spe = match rec.u8()? {
            0 => {
                let var = rec.var()?;
                let dist = rec.distribution()?;
                let env = rec.env()?;
                factory
                    .leaf_env(var, dist, env)
                    .map_err(|e| wire_err(format!("leaf rejected: {e}")))?
            }
            1 => {
                let n = rec.len(16)?;
                let mut children = Vec::with_capacity(n);
                for _ in 0..n {
                    let c = child(&mut rec, &nodes)?;
                    let w = rec.f64()?;
                    children.push((c, w));
                }
                factory
                    .sum_rebuild(children)
                    .map_err(|e| wire_err(format!("sum rejected: {e}")))?
            }
            2 => {
                let n = rec.len(8)?;
                let mut children = Vec::with_capacity(n);
                for _ in 0..n {
                    children.push(child(&mut rec, &nodes)?);
                }
                factory
                    .product(children)
                    .map_err(|e| wire_err(format!("product rejected: {e}")))?
            }
            other => return Err(wire_err(format!("unknown node tag {other}"))),
        };
        if !rec.done() {
            return Err(wire_err("trailing bytes inside node record"));
        }
        nodes.push(spe);
    }
    if !r.done() {
        return Err(wire_err("trailing bytes after final record"));
    }
    let root = nodes.pop().expect("count >= 1 checked");
    if root.digest() != expected {
        return Err(wire_err(format!(
            "rebuilt digest {} does not match header digest {expected}",
            root.digest()
        )));
    }
    Ok(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::var;

    fn normal_leaf(factory: &Factory, name: &str, mu: f64, sigma: f64) -> Spe {
        let dist = DistReal::new(Cdf::normal(mu, sigma), Interval::all()).unwrap();
        factory.leaf(Var::new(name), Distribution::Real(dist))
    }

    fn roundtrip(spe: &Spe) -> Spe {
        let bytes = serialize_spe(spe);
        let fresh = Factory::new();
        deserialize_spe(&fresh, &bytes).unwrap()
    }

    #[test]
    fn leaf_round_trips_with_identical_digest() {
        let factory = Factory::new();
        let spe = normal_leaf(&factory, "X", 0.0, 1.0);
        let back = roundtrip(&spe);
        assert_eq!(back.digest(), spe.digest());
    }

    #[test]
    fn mixture_of_products_round_trips_bit_identically() {
        let factory = Factory::new();
        let left = factory
            .product(vec![
                normal_leaf(&factory, "X", 0.0, 1.0),
                normal_leaf(&factory, "Y", -2.0, 0.5),
            ])
            .unwrap();
        let right = factory
            .product(vec![
                normal_leaf(&factory, "X", 3.0, 2.0),
                normal_leaf(&factory, "Y", 1.0, 1.0),
            ])
            .unwrap();
        let spe = factory
            .sum(vec![(left, (0.3f64).ln()), (right, (0.7f64).ln())])
            .unwrap();
        let back = roundtrip(&spe);
        assert_eq!(back.digest(), spe.digest());

        let event = var("X").le(0.25) & var("Y").gt(0.0);
        let fresh = Factory::new();
        let a = factory.logprob(&spe, &event).unwrap();
        let b = fresh.logprob(&back, &event).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn shared_subgraphs_stay_shared() {
        let factory = Factory::new();
        // `shared` appears in two of the three mixture components (so
        // factor hoisting cannot fire — it needs a factor common to
        // *all* children) and must be serialized once, by reference.
        let shared = normal_leaf(&factory, "Z", 0.0, 1.0);
        let other = normal_leaf(&factory, "Z", 5.0, 1.0);
        let a = factory
            .product(vec![shared.clone(), normal_leaf(&factory, "X", 0.0, 1.0)])
            .unwrap();
        let b = factory
            .product(vec![shared.clone(), normal_leaf(&factory, "X", 5.0, 1.0)])
            .unwrap();
        let c = factory
            .product(vec![other, normal_leaf(&factory, "X", -5.0, 1.0)])
            .unwrap();
        let spe = factory
            .sum(vec![
                (a, (0.25f64).ln()),
                (b, (0.25f64).ln()),
                (c, (0.5f64).ln()),
            ])
            .unwrap();
        let bytes = serialize_spe(&spe);
        // 5 distinct leaves + 3 products + 1 sum = 9 records, not the 10
        // a tree expansion would need.
        let count = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
        assert_eq!(count, 9);
        let fresh = Factory::new();
        let back = deserialize_spe(&fresh, &bytes).unwrap();
        assert_eq!(back.digest(), spe.digest());
    }

    #[test]
    fn header_digest_peek_matches_root() {
        let factory = Factory::new();
        let spe = normal_leaf(&factory, "X", 1.5, 2.5);
        let bytes = serialize_spe(&spe);
        assert_eq!(wire_digest(&bytes).unwrap(), spe.digest());
    }

    /// Re-seals `bytes` with its body rewritten by `edit`, so the
    /// envelope is valid and only the wire body is wrong.
    fn resealed(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut body = store::open(&WIRE, bytes).unwrap().to_vec();
        edit(&mut body);
        store::seal(&WIRE, |buf| buf.extend_from_slice(&body))
    }

    #[test]
    fn corruption_fails_closed() {
        // Envelope corruption (truncation, bit flips, magic and version
        // skew) is `store`'s corruption matrix; these are the cases only
        // the wire body can get wrong, each behind a valid checksum.
        let factory = Factory::new();
        let leaf = normal_leaf(&factory, "X", 0.0, 1.0);
        let pair = factory
            .product(vec![leaf.clone(), normal_leaf(&factory, "Y", 1.0, 2.0)])
            .unwrap();
        let one = serialize_spe(&leaf);
        let two = serialize_spe(&pair);
        // The first record starts after the root digest and node count;
        // its `u32` length prefix comes before its tag byte.
        let first_tag = BODY_HEADER_LEN + 4;
        let cases: Vec<(&str, Vec<u8>, &str)> = vec![
            (
                "root digest gate",
                resealed(&one, |b| b[0] ^= 0x01),
                "does not match",
            ),
            (
                "short body",
                resealed(&one, |b| b.truncate(BODY_HEADER_LEN - 1)),
                "body too short",
            ),
            (
                "no nodes",
                resealed(&one, |b| b[16..24].copy_from_slice(&0u64.to_le_bytes())),
                "no nodes",
            ),
            (
                "node count past the payload",
                resealed(&one, |b| b[16..24].copy_from_slice(&u64::MAX.to_le_bytes())),
                "node count exceeds payload",
            ),
            (
                "unknown node tag",
                resealed(&one, |b| b[first_tag] = 9),
                "unknown node tag",
            ),
            (
                "trailing bytes after the last record",
                resealed(&one, |b| b.push(0)),
                "trailing bytes after final record",
            ),
            (
                "child reference to a later record",
                resealed(&two, |b| {
                    // The product is the last record; its last child index
                    // is the final 8 bytes of the body.
                    let end = b.len();
                    b[end - 8..end].copy_from_slice(&2u64.to_le_bytes());
                }),
                "child reference is not an earlier record",
            ),
        ];
        for (what, bytes, expected) in cases {
            let err = deserialize_spe(&Factory::new(), &bytes).unwrap_err();
            assert!(matches!(err, SpplError::Snapshot { .. }), "{what}: {err}");
            assert!(err.to_string().contains(expected), "{what}: {err}");
        }
    }
}
