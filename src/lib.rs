//! # SPPL — the Sum-Product Probabilistic Language
//!
//! A Rust implementation of *"SPPL: Probabilistic Programming with Fast
//! Exact Symbolic Inference"* (Saad, Rinard, Mansinghka — PLDI 2021).
//!
//! SPPL translates generative probabilistic programs into **sum-product
//! expressions**, a symbolic representation closed under conditioning
//! (Thm. 4.1), and answers inference queries *exactly*. The public face
//! of that closure result is [`Model`]: a cheaply-cloneable,
//! `Send + Sync` session handle whose `condition`/`constrain` return
//! **posteriors that are themselves models** — same factory, same warm
//! node-level memos, same cross-session cache.
//!
//! * [`Model::compile`](sppl_analyze::CompileModel::compile) — SPPL source →
//!   statically analyzed, queryable session (see [`analyze`]),
//! * [`Model::prob`](sppl_core::Model::prob) /
//!   [`logprob`](sppl_core::Model::logprob) and their `*_many` batch
//!   forms — exact probability of any event over (possibly transformed)
//!   program variables, all on one route: a memo, the shared cache, then
//!   one batched pass of the model's arena compile for every miss,
//!   bit-identical to the tree walker,
//! * [`Model::condition`](sppl_core::Model::condition) /
//!   [`constrain`](sppl_core::Model::constrain) — the full posterior
//!   given an event (or measure-zero equality observations), as a new
//!   [`Model`] sharing the parent's caches,
//! * [`Model::sample`](sppl_core::Model::sample) — joint ancestral
//!   sampling,
//! * [`var()`] and the `&`/`|`/`!` operators — a fluent event DSL:
//!   `var("GPA").le(4.0) & var("Nationality").eq("India")`,
//! * [`SharedCache`](sppl_core::SharedCache) — a bounded cross-session
//!   LRU serving repeated queries across separately compiled sessions.
//!
//! # Quickstart
//!
//! ```
//! use sppl::prelude::*;
//!
//! // The Indian GPA problem (paper Fig. 2): compile straight to a session.
//! let model = Model::compile(r#"
//!     Nationality ~ choice({'India': 0.5, 'USA': 0.5})
//!     if (Nationality == 'India') {
//!         Perfect ~ bernoulli(p=0.10)
//!         if (Perfect == 1) { GPA ~ atomic(10) } else { GPA ~ uniform(0, 10) }
//!     } else {
//!         Perfect ~ bernoulli(p=0.15)
//!         if (Perfect == 1) { GPA ~ atomic(4) } else { GPA ~ uniform(0, 4) }
//!     }
//! "#).unwrap();
//!
//! // Exact prior query with an atom in the CDF:
//! // P[GPA ≤ 4] = 0.5·(0.9·0.4) + 0.5·(0.15 + 0.85) = 0.68.
//! assert!((model.prob(&var("GPA").le(4.0)).unwrap() - 0.68).abs() < 1e-9);
//!
//! // Exact posterior (paper Fig. 2f/2g) — conditioning returns a Model,
//! // so the posterior is immediately queryable (and itself conditionable).
//! let evidence = (var("Nationality").eq("USA") & var("GPA").gt(3.0))
//!     | var("GPA").in_interval(Interval::open(8.0, 10.0));
//! let posterior = model.condition(&evidence).unwrap();
//! let p_india = posterior.prob(&var("Nationality").eq("India")).unwrap();
//! assert!((p_india - 0.3318).abs() < 1e-3);
//!
//! // The posterior shares the parent session's factory and caches.
//! assert!(std::sync::Arc::ptr_eq(model.factory_arc(), posterior.factory_arc()));
//! ```
//!
//! # Migrating from `Factory`/`condition`
//!
//! Earlier revisions exposed the workflow as free functions over
//! `(Factory, Spe)` pairs; those remain available as thin shims —
//! [`compile`](sppl_lang::compile), [`condition`](sppl_core::condition()),
//! [`constrain`](sppl_core::constrain) — for code that manages its own
//! factories. The mapping:
//!
//! | legacy | session-first |
//! |---|---|
//! | `let f = Factory::new(); let spe = compile(&f, src)?` | `let m = Model::compile(src)?` |
//! | `spe.prob(&e)` (tree walker, no memo) | `m.prob(&e)` |
//! | `condition(&f, &spe, &e)` → bare `Spe` | `m.condition(&e)` → queryable `Model` |
//! | `constrain(&f, &spe, &obs)` → bare `Spe` | `m.constrain(&obs)` → queryable `Model` |
//! | `Event::and(vec![Event::le(Transform::id(Var::new("X")), 1.0), …])` | `var("X").le(1.0) & …` |
//! | re-attach `SharedCache` per posterior | automatic: posteriors inherit it |
//!
//! Hand-built expressions still work: construct nodes with a
//! [`Factory`](sppl_core::Factory) and wrap them with
//! [`Model::new`](sppl_core::Model::new) (the factory may be shared, as
//! an `Arc`).
//!
//! # Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`sppl_core`] | sum-product expressions, events, transforms, exact inference, [`Model`] |
//! | [`sppl_lang`] | SPPL parser + translator (`→SPE`) + reverse translation |
//! | [`sppl_analyze`] | static analysis: domain inference, lints, dead-branch pruning, `sppl-lint` |
//! | [`sppl_dists`] | primitive distributions and CDFs |
//! | [`sppl_sets`] | the outcome set algebra |
//! | [`sppl_num`] | special functions, polynomials, root isolation |
//! | [`sppl_models`] | every benchmark model from the paper's evaluation |
//! | [`sppl_baseline`] | PSI/BLOG/VeriFair/FairSquare behavioural substitutes |
//! | [`sppl_serve`] | line-delimited-JSON TCP query server + client (coalescing, batching, snapshots) |

pub use sppl_analyze as analyze;
pub use sppl_baseline as baseline;
pub use sppl_core as core;
pub use sppl_dists as dists;
pub use sppl_lang as lang;
pub use sppl_models as models;
pub use sppl_num as num;
pub use sppl_serve as serve;
pub use sppl_sets as sets;

pub use sppl_analyze::{check, compile_model, CompileModel};
pub use sppl_core::{var, Event, Model};

/// One-stop import for applications and examples.
pub mod prelude {
    pub use sppl_analyze::{check, compile_model, CompileModel};
    pub use sppl_core::density::Assignment;
    pub use sppl_core::prelude::*;
    pub use sppl_core::stats::{graph_stats, physical_node_count, tree_node_count};
    pub use sppl_lang::{compile, parse, translate, untranslate};
    pub use sppl_serve::{Client as ServeClient, ServeConfig, Server};
}
