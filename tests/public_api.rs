//! Public-API snapshot: pins the sorted list of names exported by the
//! `sppl` facade (root re-exports and the `prelude`), so a future PR
//! cannot silently widen, narrow, or rename the redesigned surface. A
//! deliberate API change updates `SNAPSHOT` in the same diff — that is
//! the point: the surface change becomes visible in review.
//!
//! The facade is pure re-exports, so the surface is recoverable from
//! `src/lib.rs` (plus the one glob it contains, `sppl_core::prelude::*`,
//! which is resolved against `crates/core/src/lib.rs`). The parser below
//! handles exactly the forms those two files use and fails loudly on
//! anything it does not recognize, so it cannot silently under-report.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// The pinned facade surface. `module::name` for module re-exports,
/// `prelude::name` for prelude members, bare `name` for root items.
const SNAPSHOT: &[&str] = &[
    "CompileModel",
    "Event",
    "Model",
    "analyze",
    "baseline",
    "check",
    "compile_model",
    "core",
    "dists",
    "lang",
    "models",
    "num",
    "prelude",
    "prelude::Assignment",
    "prelude::CacheStats",
    "prelude::Cdf",
    "prelude::CompileModel",
    "prelude::DIGEST_VERSION",
    "prelude::DistInt",
    "prelude::DistReal",
    "prelude::DistStr",
    "prelude::Distribution",
    "prelude::Event",
    "prelude::Factory",
    "prelude::Fingerprint",
    "prelude::Interval",
    "prelude::Model",
    "prelude::ModelDigest",
    "prelude::Outcome",
    "prelude::OutcomeSet",
    "prelude::RealSet",
    "prelude::Sample",
    "prelude::Scalar",
    "prelude::ServeClient",
    "prelude::ServeConfig",
    "prelude::Server",
    "prelude::SharedCache",
    "prelude::Spe",
    "prelude::SpplError",
    "prelude::StringSet",
    "prelude::Transform",
    "prelude::Var",
    "prelude::check",
    "prelude::compile",
    "prelude::compile_model",
    "prelude::condition",
    "prelude::constrain",
    "prelude::default_threads",
    "prelude::graph_stats",
    "prelude::parse",
    "prelude::physical_node_count",
    "prelude::translate",
    "prelude::tree_node_count",
    "prelude::untranslate",
    "prelude::var",
    "serve",
    "sets",
    "var",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Names exported by the `pub use` statements in `source`, resolving a
/// `sppl_core::prelude::*` glob against the core prelude. Panics on any
/// `pub use` shape it does not understand.
fn exported_names(source: &str, core_prelude: Option<&str>) -> Vec<String> {
    // Drop comment lines *before* splitting on `;` — doc prose contains
    // semicolons that would otherwise shear statements in half — and
    // drop the `pub mod prelude {` block header.
    let code: String = source
        .lines()
        .map(str::trim)
        .filter(|l| !l.starts_with("//"))
        .map(|l| l.strip_prefix("pub mod prelude {").unwrap_or(l))
        .collect::<Vec<_>>()
        .join("\n");
    let mut names = Vec::new();
    for statement in code.split(';') {
        let statement = statement
            .lines()
            .map(str::trim)
            .collect::<Vec<_>>()
            .join(" ");
        let Some(spec) = statement.trim().strip_prefix("pub use ") else {
            continue;
        };
        let spec = spec.trim();
        if spec == "sppl_core::prelude::*" {
            let core = core_prelude.expect("glob only expected inside the facade prelude");
            names.extend(exported_names(core, None));
            continue;
        }
        assert!(
            !spec.ends_with("::*"),
            "unrecognized glob re-export `{spec}`: teach tests/public_api.rs to resolve it"
        );
        // The braced-list check must come first: a list item may itself
        // carry an `as` alias (handled per item below).
        if let Some((_, list)) = spec.split_once('{') {
            let list = list.trim_end_matches('}');
            for item in list.split(',') {
                let item = item.trim();
                if item.is_empty() {
                    continue;
                }
                let name = item.split_once(" as ").map_or(item, |(_, a)| a.trim());
                names.push(name.to_string());
            }
        } else if let Some((_, alias)) = spec.split_once(" as ") {
            names.push(alias.trim().to_string());
        } else {
            let name = spec.rsplit("::").next().unwrap_or(spec);
            names.push(name.to_string());
        }
    }
    names
}

/// Splits `src/lib.rs` at the `pub mod prelude` block.
fn facade_sections() -> (String, String) {
    let source = fs::read_to_string(root().join("src/lib.rs")).expect("facade source readable");
    let at = source
        .find("pub mod prelude")
        .expect("facade must keep a `pub mod prelude`");
    (source[..at].to_string(), source[at..].to_string())
}

#[test]
fn facade_surface_matches_snapshot() {
    let core_source =
        fs::read_to_string(root().join("crates/core/src/lib.rs")).expect("core source readable");
    let core_prelude = core_source
        .find("pub mod prelude")
        .map(|at| core_source[at..].to_string())
        .expect("core must keep a `pub mod prelude`");

    let (root_section, prelude_section) = facade_sections();
    let mut actual: BTreeSet<String> = exported_names(&root_section, None).into_iter().collect();
    actual.insert("prelude".to_string());
    for name in exported_names(&prelude_section, Some(&core_prelude)) {
        actual.insert(format!("prelude::{name}"));
    }

    let expected: BTreeSet<String> = SNAPSHOT.iter().map(|s| s.to_string()).collect();
    let missing: Vec<_> = expected.difference(&actual).collect();
    let unexpected: Vec<_> = actual.difference(&expected).collect();
    assert!(
        missing.is_empty() && unexpected.is_empty(),
        "public API drifted from the snapshot.\n\
         gone from the surface: {missing:?}\n\
         newly exported:       {unexpected:?}\n\
         If the change is intentional, update SNAPSHOT in tests/public_api.rs \
         (full current surface below) and call it out in the PR.\n{:#?}",
        actual
    );
}

#[test]
fn snapshot_is_sorted_and_deduplicated() {
    let mut sorted = SNAPSHOT.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        SNAPSHOT,
        sorted.as_slice(),
        "keep SNAPSHOT sorted (it doubles as surface documentation)"
    );
}

#[test]
fn headline_names_are_reachable() {
    // The snapshot guards names; this guards meanings — the tentpole
    // items must actually resolve through the facade paths users type.
    use sppl::prelude::*;
    let model: sppl::Model = Model::compile("X ~ normal(0, 1)").unwrap();
    let e: sppl::Event = sppl::var("X").le(0.0) & var("X").ge(-1.0);
    let posterior = model.condition(&e).unwrap();
    assert!(posterior.prob(&var("X").le(0.0)).unwrap() > 0.99);
    let _: &dyn Fn(&str) -> _ = &sppl::compile_model;
}
