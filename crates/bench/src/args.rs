//! Shared flag parsing for the bench binaries that support smoke mode
//! and machine-readable output (`fig3_hmm`, `fig8_rare_events`,
//! `compile_bench`, `serve_bench`). Binaries with extra flags layer them
//! on via [`BenchArgs::parse_with`].

use std::path::PathBuf;
use std::sync::Arc;

use sppl_core::engine::default_threads;
use sppl_core::SharedCache;

/// Flags common to the JSON-emitting bench binaries.
pub struct BenchArgs {
    /// `--test`: smoke mode — smaller workloads for CI.
    pub test: bool,
    /// `--json`: additionally write a `BENCH_*.json` artifact.
    pub json: bool,
    /// `--threads N`: `serve_bench`'s in-process server workers;
    /// defaults to [`default_threads`].
    pub threads: usize,
    /// `--cache-snapshot PATH`: persist the run's [`SharedCache`] to
    /// `PATH` on exit, loading it first when the file already exists —
    /// the warm-restart demonstration (run the binary twice with the
    /// same path; the second process must be pure shared-cache hits).
    pub cache_snapshot: Option<PathBuf>,
}

impl BenchArgs {
    /// Parses the process arguments.
    ///
    /// # Panics
    ///
    /// Panics (with a usage hint) on an unknown flag or a malformed
    /// `--threads` value — these are developer-facing binaries.
    pub fn parse() -> BenchArgs {
        BenchArgs::parse_with(|flag, _| {
            panic!(
                "unknown flag {flag} (expected --test, --json, --threads N, \
                 --cache-snapshot PATH)"
            )
        })
    }

    /// Like [`parse`](BenchArgs::parse), but flags this parser does not
    /// recognize are offered to `extra(flag, next_value)` — the hook a
    /// binary with its own flags (e.g. `serve_bench`) uses to extend the
    /// shared set. `next_value` pulls the flag's value off the argument
    /// list; the hook should panic on flags it does not recognize either.
    pub fn parse_with(
        mut extra: impl FnMut(&str, &mut dyn FnMut() -> Option<String>),
    ) -> BenchArgs {
        let mut args = BenchArgs {
            test: false,
            json: false,
            threads: default_threads(),
            cache_snapshot: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--test" => args.test = true,
                "--json" => args.json = true,
                "--threads" => {
                    let n = it
                        .next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .expect("--threads takes a positive integer");
                    assert!(n >= 1, "--threads takes a positive integer");
                    args.threads = n;
                }
                "--cache-snapshot" => {
                    let path = it.next().expect("--cache-snapshot takes a file path");
                    args.cache_snapshot = Some(PathBuf::from(path));
                }
                other => extra(other, &mut || it.next()),
            }
        }
        args
    }

    /// A [`SharedCache`] for the run, warm-loaded from `--cache-snapshot`
    /// when the file exists. Returns the cache and the number of entries
    /// loaded (0 on a cold start; a rejected snapshot — wrong version or
    /// corrupt — prints a warning and starts cold, per the cache's
    /// never-wrong-answers contract).
    pub fn shared_cache(&self, capacity: usize) -> (Arc<SharedCache>, usize) {
        let cache = Arc::new(SharedCache::new(capacity));
        let mut loaded = 0;
        if let Some(path) = &self.cache_snapshot {
            if path.exists() {
                match cache.load_snapshot(path) {
                    Ok(n) => loaded = n,
                    Err(e) => eprintln!("warning: starting cold — {e}"),
                }
            }
        }
        (cache, loaded)
    }

    /// Persists `cache` to the `--cache-snapshot` path, if one was given.
    /// Returns the number of entries written.
    pub fn save_cache(&self, cache: &SharedCache) -> usize {
        match &self.cache_snapshot {
            Some(path) => cache
                .save_snapshot(path)
                .unwrap_or_else(|e| panic!("cannot save cache snapshot: {e}")),
            None => 0,
        }
    }

    /// `"test"` or `"full"` — the mode tag written into the JSON
    /// artifacts.
    pub fn mode(&self) -> &'static str {
        if self.test {
            "test"
        } else {
            "full"
        }
    }
}
