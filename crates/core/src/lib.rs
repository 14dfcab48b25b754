//! The SPPL core calculus and exact inference engine.
//!
//! This crate implements the paper's primary contribution: *sum-product
//! expressions* (SPE), a symbolic representation of probability
//! distributions that extends sum-product networks with mixed-type base
//! measures, univariate numeric transforms, logical events with pointwise
//! and set-valued constraints, and exact conditioning (Thm. 4.1).
//!
//! Layout (paper reference in parentheses):
//!
//! * [`mod@var`] — interned variable names,
//! * [`transform`] — the `Transform` domain with the symbolic preimage
//!   solver (Lst. 17–23, Appx. C),
//! * [`event`] — the `Event` domain: containment, conjunction,
//!   disjunction, negation, DNF (Lst. 1c, Lst. 14–15),
//! * [`disjoin`] — solved-DNF clauses and the `disjoin` decomposition into
//!   pairwise-disjoint hyperrectangles (Lst. 5, Appx. D.1),
//! * [`spe`] — SPE nodes, the hash-consing [`Factory`] with
//!   factorization/deduplication (Sec. 5.1), well-formedness C1–C5,
//! * [`prob`] — the distribution semantics `P⟦S⟧ e` (Lst. 1f) with
//!   memoization,
//! * [`mod@condition`] — the `condition` algorithm (Lst. 6, Thm. 4.1),
//! * [`model`] — the session-first [`Model`] handle:
//!   `Arc<Factory>` + root + session memo in one `Clone + Send + Sync`
//!   object whose `condition`/`constrain` return posteriors as
//!   first-class models (the public face of Thm. 4.1's closure
//!   property), and whose queries take one route: canonicalize, the
//!   session's one result store (its own map or the attached
//!   [`SharedCache`]), then one batched arena pass for the misses,
//! * [`engine`] — the session memo behind that route, [`CacheStats`],
//!   and [`default_threads`], the worker count servers size to,
//! * `arena` (crate-private) — the batch evaluator every query miss goes
//!   through: each session's compilation of its model into a flat,
//!   topologically-ordered arena with struct-of-arrays evaluation,
//!   bit-identical to [`prob`],
//! * [`density`] — the lexicographic density semantics `P₀` (Lst. 1d) and
//!   `condition0`/`constrain` for measure-zero events (Lst. 7),
//! * [`simulate`] — ancestral sampling (Prop. A.1),
//! * [`stats`] — physical vs tree-expanded graph size (Table 1 metrics),
//! * [`cache`], [`wire`] and [`store`] — the cross-session result cache,
//!   the SPE wire format, and the one durable store both persist through
//!   (envelope, atomic writer, keep-N GC),
//! * [`error`] — the crate error type.
//!
//! # Example: the Indian GPA posterior (Fig. 2) built by hand
//!
//! ```
//! use sppl_core::prelude::*;
//!
//! let f = Factory::new();
//! let nationality = Var::new("Nationality");
//! let gpa = Var::new("GPA");
//! // P(GPA) = 0.5·[0.1·atom(10) + 0.9·U(0,10)] + 0.5·[0.15·atom(4) + 0.85·U(0,4)]
//! let india = f.sum(vec![
//!     (f.leaf(gpa.clone(), Distribution::Atomic { loc: 10.0 }), 0.1f64.ln()),
//!     (f.leaf(gpa.clone(), Distribution::Real(
//!         DistReal::new(Cdf::uniform(0.0, 10.0), Interval::closed(0.0, 10.0)).unwrap())),
//!      0.9f64.ln()),
//! ]).unwrap();
//! let usa = f.sum(vec![
//!     (f.leaf(gpa.clone(), Distribution::Atomic { loc: 4.0 }), 0.15f64.ln()),
//!     (f.leaf(gpa.clone(), Distribution::Real(
//!         DistReal::new(Cdf::uniform(0.0, 4.0), Interval::closed(0.0, 4.0)).unwrap())),
//!      0.85f64.ln()),
//! ]).unwrap();
//! let model = f.sum(vec![
//!     (f.product(vec![
//!         f.leaf(nationality.clone(), Distribution::Str(DistStr::new([("India", 1.0)]).unwrap())),
//!         india]).unwrap(), 0.5f64.ln()),
//!     (f.product(vec![
//!         f.leaf(nationality.clone(), Distribution::Str(DistStr::new([("USA", 1.0)]).unwrap())),
//!         usa]).unwrap(), 0.5f64.ln()),
//! ]).unwrap();
//! let event = Event::gt(Transform::id(gpa.clone()), 3.0);
//! let p = model.prob(&event).unwrap();
//! assert!(p > 0.0 && p < 1.0);
//! let posterior = condition(&f, &model, &event).unwrap();
//! assert!((posterior.prob(&event).unwrap() - 1.0).abs() < 1e-9);
//! ```

mod arena;
pub mod cache;
pub mod condition;
pub mod density;
pub mod digest;
pub mod disjoin;
pub mod engine;
pub mod error;
pub mod event;
pub mod model;
pub mod prob;
pub mod simulate;
pub mod spe;
pub mod stats;
pub mod store;
mod sync_map;
pub mod transform;
pub mod var;
pub mod wire;

pub use cache::SharedCache;
pub use condition::condition;
pub use density::{constrain, Assignment};
pub use digest::{Fingerprint, ModelDigest, DIGEST_VERSION};
pub use engine::{default_threads, CacheStats};
pub use error::SpplError;
pub use event::{var, Event, Scalar};
pub use model::Model;
pub use spe::{Factory, Spe};
pub use transform::Transform;
pub use var::Var;
pub use wire::{deserialize_spe, serialize_spe, wire_digest};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::cache::SharedCache;
    pub use crate::condition::condition;
    pub use crate::density::{constrain, Assignment};
    pub use crate::digest::{Fingerprint, ModelDigest, DIGEST_VERSION};
    pub use crate::engine::{default_threads, CacheStats};
    pub use crate::error::SpplError;
    pub use crate::event::{var, Event, Scalar};
    pub use crate::model::Model;
    pub use crate::simulate::Sample;
    pub use crate::spe::{Factory, Spe};
    pub use crate::transform::Transform;
    pub use crate::var::Var;
    pub use sppl_dists::{Cdf, DistInt, DistReal, DistStr, Distribution};
    pub use sppl_sets::{Interval, Outcome, OutcomeSet, RealSet, StringSet};
}
