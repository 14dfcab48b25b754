//! Compile-cache benchmark: cold translation vs warm compile-cache
//! hits, on the workloads where compilation itself is the bottleneck.
//!
//! Three paths answer the same programs:
//!
//! * **cold** — [`compile_model`]: parse → analyze → translate,
//!   every time (the pre-cache behavior).
//! * **mem hit** — a warm [`CompileCache`]'s in-memory tier: the stored
//!   SPE wire payload is deserialized into a fresh factory (zero
//!   translations).
//! * **disk hit** — a *fresh* [`CompileCache`] over a directory another
//!   cache instance populated — the cross-process restart path: the
//!   `.key` alias skips parse + analyze, the `.spe` payload skips
//!   translation.
//!
//! Every path must produce the same `ModelDigest` and bit-identical
//! query answers (asserted), and in full mode both warm paths must be at
//! least 10× faster than cold translation on the Fig. 3 HMM and the
//! 10³-component mixture — the headline claim of `BENCH_compile.json`.
//!
//! Both modes also gate how a cold compile scales, as a ratio of two
//! best-of-N timings on one box (not a wall-clock bound): the `elif`
//! mixture at K = 400 must compile within [`SCALING_BOUND`] times its
//! K = 25 time, and the Fig. 3 HMM at n = 200 within
//! [`HMM_SCALING_BOUND`] times its n = 25 time. Full mode adds the
//! cold-compile ladders over K ∈ {100, 200, 400, 1000} and
//! n ∈ {100, 200, 400}.
//!
//! Flags:
//!
//! * `--test` — smoke mode: smaller workloads, no speedup floor (CI).
//! * `--json` — additionally write `BENCH_compile.json` in the working
//!   directory.
//! * `--threads N` — accepted for interface parity; compilation is
//!   single-threaded.

use sppl_analyze::{compile_model, CompileCache};
use sppl_bench::args::BenchArgs;
use sppl_bench::json::JsonObject;
use sppl_bench::{bits_match, fmt_secs, nproc, timed, Table};
use sppl_core::event::var;
use sppl_core::{Event, Model};
use sppl_models::{fairness, hmm};

/// The chain sizes and the bound of the chain scaling gate. The `elif`
/// mixture compiles in about K² time, and the 16× larger chain read
/// 65–123× slower on a 2-vCPU box; guards re-solved per arm (K³) read
/// about 3000×. The K² is not the analyzer's per-arm environments: with
/// O(1) forks its K = 1000 analysis still took 278 ms (301 ms with a
/// whole-environment copy per arm).
const SCALING_SIZES: (usize, usize) = (25, 400);
const SCALING_BOUND: f64 = 500.0;

/// The chain sizes of the full-mode cold-compile ladder.
const LADDER: [usize; 4] = [100, 200, 400, 1000];

/// The horizons and the bound of the HMM scaling gate. The HMM's SPE
/// grows linearly with n, and the 8× longer horizon read 20–29× slower
/// on a 2-vCPU box; copying the analyzer's whole environment per branch
/// arm and every factor's scope per product read 52–79×.
const HMM_SCALING_SIZES: (usize, usize) = (25, 200);
const HMM_SCALING_BOUND: f64 = 45.0;

/// The horizons of the full-mode HMM cold-compile ladder.
const HMM_LADDER: [usize; 3] = [100, 200, 400];

/// A `K`-component mixture as one `choice` plus an `if`/`elif` chain —
/// the shape whose wire payload stays a flat sum of leaves. Its cold
/// compile still grows about as K², though translation solves the
/// chain's guards in one pass and an analyzer arm costs what it changes.
fn mixture_source(k: usize) -> String {
    let weight = 1.0 / k as f64;
    let mut src = String::new();
    src.push_str("M ~ choice({");
    for i in 0..k {
        if i > 0 {
            src.push_str(", ");
        }
        src.push_str(&format!("'c{i}': {weight}"));
    }
    src.push_str("})\n");
    for i in 0..k {
        let kw = if i == 0 { "if" } else { "elif" };
        src.push_str(&format!(
            "{kw} (M == 'c{i}') {{\n    X ~ normal({i}, 1)\n}}\n"
        ));
    }
    src
}

/// One workload's measurements, all three paths bit-verified.
struct Run {
    name: &'static str,
    cold_s: f64,
    mem_s: f64,
    disk_s: f64,
}

impl Run {
    fn mem_speedup(&self) -> f64 {
        self.cold_s / self.mem_s
    }

    fn disk_speedup(&self) -> f64 {
        self.cold_s / self.disk_s
    }
}

/// Best-of-`reps` timing for the warm paths (they sit in the
/// microsecond-to-millisecond range where a single sample is noise).
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut out, mut best) = timed(&mut f);
    for _ in 1..reps {
        let (value, s) = timed(&mut f);
        if s < best {
            best = s;
            out = value;
        }
    }
    (out, best)
}

/// Best-of-`reps` cold compile of `source`.
fn cold_compile_s(source: &str, reps: usize) -> f64 {
    best_of(reps, || compile_model(source).expect("cold compile")).1
}

/// Best-of-`reps` cold compile of the `K`-arm `elif` mixture.
fn cold_chain_s(k: usize, reps: usize) -> f64 {
    cold_compile_s(&mixture_source(k), reps)
}

/// Best-of-`reps` cold compile of the Fig. 3 HMM over horizon `n`.
fn cold_hmm_s(n: usize, reps: usize) -> f64 {
    cold_compile_s(&hmm::hierarchical_hmm(n).source, reps)
}

fn answers(model: &Model, events: &[Event]) -> Vec<f64> {
    events
        .iter()
        .map(|e| model.logprob(e).expect("workload query"))
        .collect()
}

fn measure(name: &'static str, source: &str, events: &[Event], dir: &std::path::Path) -> Run {
    // Cold: the pre-cache path, translation and all.
    let (cold_model, cold_s) = timed(|| compile_model(source).expect("cold compile"));
    let reference = answers(&cold_model, events);

    // Warm in-memory: fill once (one translation), then hit.
    let cache = CompileCache::new(8);
    cache.compile(source).expect("fill");
    let (mem_model, mem_s) = best_of(3, || cache.compile(source).expect("memory hit"));
    let stats = cache.stats();
    assert_eq!(
        stats.translations, 1,
        "{name}: warm hits must not translate"
    );
    assert!(stats.hits >= 1, "{name}: the timed compile must be a hit");

    // Cross-process disk hit: one cache instance persists, a second
    // (fresh, empty memory tier — a stand-in for a new process) reads.
    let scratch = dir.join(name);
    let writer = CompileCache::new(8)
        .with_dir(&scratch, 0)
        .expect("writer dir");
    writer.compile(source).expect("persist");
    let reader = CompileCache::new(8)
        .with_dir(&scratch, 0)
        .expect("reader dir");
    let (disk_model, disk_s) = timed(|| reader.compile(source).expect("disk hit"));
    let stats = reader.stats();
    assert_eq!(
        stats.translations, 0,
        "{name}: a disk hit must not translate"
    );
    assert_eq!(
        stats.disk_hits, 1,
        "{name}: the timed compile must hit disk"
    );

    // The whole point: every path is the same model, to the bit.
    for (path, model) in [("mem", &mem_model), ("disk", &disk_model)] {
        assert_eq!(
            model.model_digest(),
            cold_model.model_digest(),
            "{name}: {path} hit must reproduce the digest"
        );
        assert!(
            bits_match(&answers(model, events), &reference),
            "{name}: {path} hit must answer bit-identically"
        );
    }

    Run {
        name,
        cold_s,
        mem_s,
        disk_s,
    }
}

fn main() {
    let args = BenchArgs::parse();
    let dir = std::env::temp_dir().join(format!("sppl-compile-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Fig. 3 hierarchical HMM: deep switch/for nesting, the translation
    // stress case.
    let n = if args.test { 12 } else { 100 };
    let hmm_source = hmm::hierarchical_hmm(n).source;
    let hmm_events = hmm::smoothing_queries(n.min(8));
    let fig3 = measure("fig3_hmm", &hmm_source, &hmm_events, &dir);

    // The wide mixture: K components, K-branch elif dispatch.
    let k = if args.test { 100 } else { 1000 };
    let mix_source = mixture_source(k);
    let mix_events = vec![
        var("X").le(k as f64 / 2.0),
        var("M").eq("c7"),
        var("X").gt(0.0) & var("M").eq("c0"),
    ];
    let mixture = measure("mixture_1e3", &mix_source, &mix_events, &dir);

    // All fifteen Table 2 fairness programs, compiled back to back
    // through one shared cache — the many-small-programs regime.
    let tasks = fairness::all_tasks();
    let (cold_models, fair_cold_s) = timed(|| {
        tasks
            .iter()
            .map(|t| compile_model(&t.model.source).expect("fairness cold"))
            .collect::<Vec<_>>()
    });
    let fair_cache = CompileCache::new(32);
    for t in &tasks {
        fair_cache.compile(&t.model.source).expect("fairness fill");
    }
    let (mem_models, fair_mem_s) = timed(|| {
        tasks
            .iter()
            .map(|t| fair_cache.compile(&t.model.source).expect("fairness mem"))
            .collect::<Vec<_>>()
    });
    let fair_dir = dir.join("fairness");
    let fair_writer = CompileCache::new(32)
        .with_dir(&fair_dir, 0)
        .expect("fairness writer dir");
    for t in &tasks {
        fair_writer
            .compile(&t.model.source)
            .expect("fairness persist");
    }
    let fair_reader = CompileCache::new(32)
        .with_dir(&fair_dir, 0)
        .expect("fairness reader dir");
    let (disk_models, fair_disk_s) = timed(|| {
        tasks
            .iter()
            .map(|t| fair_reader.compile(&t.model.source).expect("fairness disk"))
            .collect::<Vec<_>>()
    });
    assert_eq!(fair_reader.stats().translations, 0);
    assert_eq!(fair_reader.stats().disk_hits, tasks.len() as u64);
    for ((cold, mem), disk) in cold_models.iter().zip(&mem_models).zip(&disk_models) {
        assert_eq!(cold.model_digest(), mem.model_digest());
        assert_eq!(cold.model_digest(), disk.model_digest());
    }
    let fairness_run = Run {
        name: "fairness_15",
        cold_s: fair_cold_s,
        mem_s: fair_mem_s,
        disk_s: fair_disk_s,
    };

    let runs = [&fig3, &mixture, &fairness_run];
    let mut table = Table::new([
        "Workload",
        "Cold translate",
        "Mem hit",
        "Disk hit",
        "Mem speedup",
        "Disk speedup",
    ]);
    for run in runs {
        table.row([
            run.name.to_string(),
            fmt_secs(run.cold_s),
            fmt_secs(run.mem_s),
            fmt_secs(run.disk_s),
            format!("{:.1}x", run.mem_speedup()),
            format!("{:.1}x", run.disk_speedup()),
        ]);
    }
    println!("compile cache vs cold translation (digest + bit parity asserted)\n");
    table.print();

    let (small_k, large_k) = SCALING_SIZES;
    let small_s = cold_chain_s(small_k, 9);
    let large_s = cold_chain_s(large_k, 3);
    let scaling_ratio = large_s / small_s;
    println!(
        "\nelif chain scaling: K={small_k} {}, K={large_k} {}, ratio {scaling_ratio:.0}x \
         (bound {SCALING_BOUND:.0}x)",
        fmt_secs(small_s),
        fmt_secs(large_s)
    );
    assert!(
        scaling_ratio <= SCALING_BOUND,
        "elif chain K={large_k} compiled {scaling_ratio:.0}x slower than K={small_k}, \
         bound {SCALING_BOUND:.0}x: branch-chain guards are being re-solved per arm"
    );
    let ladder: Vec<(usize, f64)> = if args.test {
        Vec::new()
    } else {
        LADDER.iter().map(|&k| (k, cold_chain_s(k, 3))).collect()
    };
    for (k, s) in &ladder {
        println!("elif chain cold compile, K={k}: {}", fmt_secs(*s));
    }

    let (small_n, large_n) = HMM_SCALING_SIZES;
    let hmm_small_s = cold_hmm_s(small_n, 9);
    let hmm_large_s = cold_hmm_s(large_n, 5);
    let hmm_ratio = hmm_large_s / hmm_small_s;
    println!(
        "\nhmm scaling: n={small_n} {}, n={large_n} {}, ratio {hmm_ratio:.0}x \
         (bound {HMM_SCALING_BOUND:.0}x)",
        fmt_secs(hmm_small_s),
        fmt_secs(hmm_large_s)
    );
    assert!(
        hmm_ratio <= HMM_SCALING_BOUND,
        "hmm n={large_n} compiled {hmm_ratio:.0}x slower than n={small_n}, \
         bound {HMM_SCALING_BOUND:.0}x: a branch arm is copying the whole program state"
    );
    let hmm_ladder: Vec<(usize, f64)> = if args.test {
        Vec::new()
    } else {
        HMM_LADDER.iter().map(|&n| (n, cold_hmm_s(n, 3))).collect()
    };
    for (n, s) in &hmm_ladder {
        println!("hmm cold compile, n={n}: {}", fmt_secs(*s));
    }

    if !args.test {
        for run in [&fig3, &mixture] {
            assert!(
                run.mem_speedup() >= 10.0,
                "{}: in-memory hit must be >= 10x cold translate, got {:.1}x",
                run.name,
                run.mem_speedup()
            );
            assert!(
                run.disk_speedup() >= 10.0,
                "{}: disk hit must be >= 10x cold translate, got {:.1}x",
                run.name,
                run.disk_speedup()
            );
        }
    }

    if args.json {
        let mut json = JsonObject::new()
            .str("bench", "compile")
            .str("mode", args.mode())
            .int("nproc", nproc() as u64)
            .bool("digests_equal", true)
            .bool("bits_identical", true);
        for run in runs {
            let k = run.name;
            json = json
                .num(&format!("{k}_cold_translate_s"), run.cold_s)
                .num(&format!("{k}_mem_hit_s"), run.mem_s)
                .num(&format!("{k}_disk_hit_s"), run.disk_s)
                .num(&format!("{k}_mem_speedup"), run.mem_speedup())
                .num(&format!("{k}_disk_speedup"), run.disk_speedup());
        }
        json = json
            .int("chain_scaling_small_k", small_k as u64)
            .int("chain_scaling_large_k", large_k as u64)
            .num("chain_scaling_small_s", small_s)
            .num("chain_scaling_large_s", large_s)
            .num("chain_scaling_ratio", scaling_ratio)
            .num("chain_scaling_bound", SCALING_BOUND);
        for (k, s) in &ladder {
            json = json.num(&format!("chain_cold_k{k}_s"), *s);
        }
        json = json
            .int("hmm_scaling_small_n", small_n as u64)
            .int("hmm_scaling_large_n", large_n as u64)
            .num("hmm_scaling_small_s", hmm_small_s)
            .num("hmm_scaling_large_s", hmm_large_s)
            .num("hmm_scaling_ratio", hmm_ratio)
            .num("hmm_scaling_bound", HMM_SCALING_BOUND);
        for (n, s) in &hmm_ladder {
            json = json.num(&format!("hmm_cold_n{n}_s"), *s);
        }
        json.write("BENCH_compile.json")
            .expect("write BENCH_compile.json");
        println!("\nwrote BENCH_compile.json");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
