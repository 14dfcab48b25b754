//! `sppl-serve`: a std-only concurrent query server for SPPL models.
//!
//! The PLDI 2021 closure theorem makes posteriors first-class models;
//! this crate serves that capability to concurrent clients over a
//! line-delimited JSON protocol (see [`protocol`]): register a program
//! once, query forever by content digest — `logprob`/`prob` (single and
//! batch), `condition`/`condition_chain`/`constrain` returning posterior
//! digests, and `stats`.
//!
//! Three layers do the serving work:
//!
//! - [`dispatch`]: request **coalescing** (concurrent identical queries
//!   dedupe into one evaluation via a singleflight slot map) under
//!   **batching windows** (single queries in a short window merge into
//!   one `logprob_many` batch), while a batched request skips the window
//!   and is evaluated whole — every answer bit-identical to a direct
//!   [`Model`](sppl_core::Model) call;
//! - [`registry`]: the digest → model map shared by every connection,
//!   all models attached to one process-wide
//!   [`SharedCache`](sppl_core::SharedCache);
//! - [`snapshot`]: generation-rotated cache snapshots with GC, a warm
//!   start that walks past corrupt files, and crash-safe atomic writes.
//!
//! [`server::Server`] wires them behind a fixed accept/worker TCP
//! front-end; [`client::Client`] is the matching blocking client.
//!
//! ```
//! use sppl_serve::client::Client;
//! use sppl_serve::protocol::WireEvent;
//! use sppl_serve::server::{ServeConfig, Server};
//!
//! let server = Server::start(ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//!
//! let (digest, vars, fresh) = client.register("X ~ normal(0, 1)").unwrap();
//! assert!(fresh);
//! assert_eq!(vars, vec!["X".to_string()]);
//!
//! let p = client.prob(digest, &WireEvent::le("X", 0.0)).unwrap();
//! assert!((p - 0.5).abs() < 1e-12);
//!
//! // Posteriors are served by digest too (closure under conditioning).
//! let (posterior, _) = client.condition(digest, &WireEvent::gt("X", 0.0)).unwrap();
//! let p = client.prob(posterior, &WireEvent::gt("X", 1.0)).unwrap();
//! assert!(p > 0.3 && p < 0.4);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod dispatch;
pub mod json;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod snapshot;

pub use client::Client;
pub use dispatch::{Dispatcher, ServeCounters};
pub use json::Json;
pub use protocol::{Request, Response, StatsSnapshot, WireError, WireEvent, WireOutcome};
pub use registry::ModelRegistry;
pub use server::{ServeConfig, Server, ServerState, SnapshotPolicy};
pub use snapshot::SnapshotRotation;
