//! Guards against silently-skipped test targets: the workspace relies on
//! cargo's target auto-discovery, so a stray `autotests = false` (or a
//! renamed file) would drop whole suites from `cargo test` without any
//! failure. This test pins the expected integration-test layout.

use std::fs;
use std::path::Path;

/// Workspace root == the `sppl` facade package root.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

const ROOT_SUITES: &[&str] = &[
    "tests/analyze_differential.rs",
    "tests/arena_parity.rs",
    "tests/branch_chain_bits.rs",
    "tests/cache_snapshot.rs",
    "tests/closure_properties.rs",
    "tests/digest_golden.rs",
    "tests/engine_agreement.rs",
    "tests/model_api_parity.rs",
    "tests/paper_golden.rs",
    "tests/parallel_stress.rs",
    "tests/public_api.rs",
    "tests/roundtrip.rs",
    "tests/examples_smoke.rs",
    "tests/first_match_guards.rs",
    "tests/wire_roundtrip.rs",
];

/// Benchmark binaries (`crates/bench/src/bin/`): auto-discovered by
/// cargo like the test suites above, so a renamed or dropped file would
/// silently vanish from CI's smoke runs.
const BENCH_BINS: &[&str] = &[
    "crates/bench/src/bin/compile_bench.rs",
    "crates/bench/src/bin/fig2_indian_gpa.rs",
    "crates/bench/src/bin/fig3_hmm.rs",
    "crates/bench/src/bin/fig4_transform.rs",
    "crates/bench/src/bin/fig8_rare_events.rs",
    "crates/bench/src/bin/serve_bench.rs",
    "crates/bench/src/bin/sppl_lint.rs",
    "crates/bench/src/bin/table1_compression.rs",
    "crates/bench/src/bin/table2_fairness.rs",
    "crates/bench/src/bin/table3_variance.rs",
    "crates/bench/src/bin/table4_psi.rs",
];

const CRATE_SUITES: &[&str] = &[
    "crates/analyze/tests/corpus.rs",
    "crates/analyze/tests/one_verdict.rs",
    "crates/sets/tests/algebra.rs",
    "crates/core/tests/artifact_goldens.rs",
    "crates/core/tests/concurrency.rs",
    "crates/core/tests/differential_enumerative.rs",
    "crates/core/tests/engine_cache.rs",
    "crates/core/tests/transform_soundness.rs",
    "crates/lang/tests/translate_tests.rs",
    "crates/serve/tests/protocol_roundtrip.rs",
    "crates/serve/tests/serve_e2e.rs",
];

#[test]
fn integration_suites_exist_and_define_tests() {
    for rel in ROOT_SUITES.iter().chain(CRATE_SUITES) {
        let path = root().join(rel);
        let src = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("expected test suite {rel} to exist: {e}"));
        assert!(
            src.contains("#[test]") || src.contains("proptest!"),
            "{rel} defines no tests — suite would be silently empty"
        );
        assert!(
            !src.contains("#[ignore"),
            "{rel} contains #[ignore]d tests — tier-1 must run everything"
        );
    }
}

#[test]
fn bench_bins_exist_and_have_entry_points() {
    for rel in BENCH_BINS {
        let path = root().join(rel);
        let src = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("expected bench binary {rel} to exist: {e}"));
        assert!(
            src.contains("fn main"),
            "{rel} has no `fn main` — cargo would reject the bin target"
        );
    }
    // No unregistered stragglers: every file in the bin directory must
    // be pinned above, so additions show up in this list (and in CI).
    let dir = root().join("crates/bench/src/bin");
    for entry in fs::read_dir(&dir).expect("bin directory readable") {
        let name = entry.expect("dir entry").file_name();
        let rel = format!("crates/bench/src/bin/{}", name.to_string_lossy());
        assert!(
            BENCH_BINS.contains(&rel.as_str()),
            "{rel} is not registered in BENCH_BINS (tests/targets_registered.rs)"
        );
    }
}

#[test]
fn auto_discovery_is_not_disabled() {
    for manifest in [
        "Cargo.toml",
        "crates/sets/Cargo.toml",
        "crates/num/Cargo.toml",
        "crates/dists/Cargo.toml",
        "crates/core/Cargo.toml",
        "crates/lang/Cargo.toml",
        "crates/analyze/Cargo.toml",
        "crates/models/Cargo.toml",
        "crates/baseline/Cargo.toml",
        "crates/bench/Cargo.toml",
        "crates/serve/Cargo.toml",
    ] {
        let src = fs::read_to_string(root().join(manifest)).expect("manifest readable");
        for key in ["autotests", "autoexamples", "autobins"] {
            assert!(
                !src.contains(&format!("{key} = false")),
                "{manifest} disables {key}; test/example targets would be skipped"
            );
        }
    }
}

#[test]
fn every_workspace_member_is_a_default_member() {
    // `cargo test -q` (tier-1) runs the *default* members; a member added
    // to [workspace.members] but not [workspace.default-members] would
    // build and test only when named explicitly.
    let manifest = fs::read_to_string(root().join("Cargo.toml")).expect("root manifest");
    let section = |name: &str| -> Vec<String> {
        // Anchor to line start so `members` cannot match inside
        // `default-members`.
        let key = format!("\n{name} = [");
        let start = manifest
            .find(&key)
            .unwrap_or_else(|| panic!("[workspace] lacks `{name}`"));
        let body = &manifest[start + key.len()..];
        let end = body.find(']').expect("list closes");
        body[..end]
            .lines()
            .filter_map(|l| {
                let l = l.trim().trim_end_matches(',');
                l.starts_with('"').then(|| l.trim_matches('"').to_string())
            })
            .collect()
    };
    let default_members = section("default-members");
    for member in section("members") {
        assert!(
            default_members.contains(&member),
            "workspace member {member} is not in default-members; \
             `cargo test` would silently skip it"
        );
    }
}
