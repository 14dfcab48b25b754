//! End-to-end and per-layer benchmark of the SPPL stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload compile|infer|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run sets up once (base compiles, server start, registrations),
//! then runs three phases — compile and infer passes interleaved, then
//! serve — for `S` seconds in total. The set-up repeats between the
//! compile and infer passes; `setup_s` is the median of all
//! [`SETUP_REPS`]. The workload decides which phase gets most of the time. With
//! `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
//! records spans around every layer call and prints the per-layer
//! metrics instead. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The run record and the spans go to
//! `.e2ebench_out/` under the working directory.

mod compile;
mod ctx;
mod gen;
mod host;
mod infer;
mod oracle;
mod rng;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ctx::{Ctx, Metric, Ops};
use trace::Tracer;

/// A workload: how a run's time is split between the compile, infer and
/// serve phases, and why it exists.
struct Workload {
    name: &'static str,
    why: &'static str,
    /// Share of the run for compile, infer, serve.
    shares: [f64; 3],
    /// The phase the workload is about.
    primary: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "compile",
        why: "translation is the cost every program pays: branch chains, HMM horizons and decision trees through parse, analyze, translate and the compile cache's disk tier",
        shares: [0.4, 0.3, 0.3],
        primary: 0,
    },
    Workload {
        name: "infer",
        why: "the paper's inference tasks exercise conditioning, disjoin and the evaluator; fresh batches beside repeated ones make bypassing the memos show as a loss",
        shares: [0.3, 0.4, 0.3],
        primary: 1,
    },
    Workload {
        name: "serve",
        why: "client to server to answer with reads beside writes: batching windows, coalescing, the shared cache, the registry and the wire protocol do the work",
        shares: [0.3, 0.3, 0.4],
        primary: 2,
    },
];

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [&str; 12] = [
    "setup_s",
    "compile_chain_s",
    "compile_hmm_s",
    "compile_tree_s",
    "reload_s",
    "condition_s",
    "query_eps",
    "requery_eps",
    "serve_query_p50_us",
    "serve_batch_p50_us",
    "serve_update_p50_us",
    "serve_qps",
];

/// Per-layer metrics, printed with `--trace 1`.
const PER_LAYER: [&str; 58] = [
    "lang.parse_s",
    "analyze.s",
    "analyze.diagnostics",
    "lang.translate_s",
    "spe.nodes",
    "spe.tree_nodes",
    "wire.encode_s",
    "wire.decode_s",
    "wire.bytes",
    "store.write_s",
    "compile_cache.disk_hits",
    "compile_cache.translations",
    "core.condition_s",
    "core.constrain_s",
    "posterior.nodes",
    "disjoin.s",
    "disjoin.clauses",
    "engine.eval_s",
    "engine.hits",
    "engine.misses",
    "engine.hit_share",
    "engine.fresh_hit_share",
    "factory.prob_entries",
    "serve.encode_us",
    "serve.decode_us",
    "serve.batches",
    "serve.batched_queries",
    "serve.max_batch",
    "serve.batch_hist.1",
    "serve.batch_hist.2",
    "serve.batch_hist.3-4",
    "serve.batch_hist.5-8",
    "serve.batch_hist.9-16",
    "serve.batch_hist.17-32",
    "serve.batch_hist.33-up",
    "serve.arena_batches",
    "serve.coalesced",
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.cache_hit_share",
    "serve.hit_p50_us",
    "serve.miss_p50_us",
    "serve.handle_query_us",
    "serve.handle_batch_us",
    "serve.handle_update_us",
    "serve.condition_p50_us",
    "serve.constrain_p50_us",
    "serve.register_p50_us",
    "serve.net_us",
    "serve.query_p90_us",
    "serve.query_p99_us",
    "serve.query_p99_beyond",
    "serve.query_samples",
    "serve.gen_late_ms",
    "serve.backlog",
    "serve.models",
    "serve.errors",
    "trace.overhead_pct",
];

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: u64 = 9;

/// Where runs write their records, spans and scratch files.
const OUT_DIR: &str = ".e2ebench_out";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload compile|infer|serve --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let scratch = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    let result = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = result {
        eprintln!("e2ebench: {e}");
        std::process::exit(1);
    }
}

/// The set-up and its repetitions.
struct Setup {
    seed: u64,
    /// Compile-cache directory every repetition's server boots over.
    dir: PathBuf,
    /// Repetitions started so far.
    started: u64,
    /// Duration of each repetition that succeeded.
    times: Vec<f64>,
    disk_hits: u64,
    translations: u64,
}

impl Setup {
    /// One set-up: compile the infer models cold (fresh constants per
    /// repetition), boot a server over the shared compile-cache directory,
    /// register the base programs. Repetitions after the first boot warm,
    /// the way a redeployed server does.
    fn once(&mut self) -> Result<(infer::Models, serve::Deployment), String> {
        let t = Instant::now();
        self.started += 1;
        let models = infer::Models::compile(self.seed, self.started - 1)?;
        let mut deployment = serve::Deployment::start(self.seed, &self.dir)?;
        self.times.push(t.elapsed().as_secs_f64());
        let s = deployment.stats()?;
        self.disk_hits += s.compile_cache_disk_hits;
        self.translations += s.translations;
        Ok((models, deployment))
    }

    /// Runs the next repetition if one is left, and throws its server
    /// away. A failed repetition counts as a failed operation.
    fn repeat(&mut self, ctx: &mut Ctx) {
        if self.started < SETUP_REPS {
            let once = self.once();
            if let Some((_, deployment)) = ctx.ops.result("set-up", once) {
                deployment.shutdown();
            }
        }
    }
}

/// Runs compile and infer passes interleaved for `secs` seconds, drawing
/// inputs from pass index `first` on. Each pass goes to the phase
/// furthest behind its share of the time spent (`shares`), so a slow
/// stretch of the host falls on both phases' passes alike rather than on
/// one phase's whole run. Each phase runs at least its counted passes.
/// The set-up repetitions left in `setup` run evenly between the passes,
/// so `setup_s` samples the host over the run instead of its first
/// second.
fn passes(
    ctx: &mut Ctx,
    models: &infer::Models,
    first: u64,
    secs: f64,
    shares: [f64; 2],
    mut setup: Option<&mut Setup>,
) {
    let mut compile = compile::Phase::new(first);
    let mut infer = infer::Phase::new(first);
    let mut spent = [0.0; 2];
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < secs
        || compile.passes() < ctx::COUNTED_PASSES
        || infer.passes() < ctx::COUNTED_PASSES
    {
        if let Some(setup) = setup.as_deref_mut() {
            let due = secs * setup.started as f64 / SETUP_REPS as f64;
            if start.elapsed().as_secs_f64() >= due {
                setup.repeat(ctx);
            }
        }
        let which = usize::from(spent[1] / shares[1] < spent[0] / shares[0]);
        let t = Instant::now();
        if which == 0 {
            compile.step(ctx);
        } else {
            infer.step(ctx, models);
        }
        spent[which] += t.elapsed().as_secs_f64();
    }
    compile.finish(ctx);
    infer.finish(ctx);
}

/// Runs `phase(ctx, first, secs)` for `secs` seconds from input index 0.
/// `own` is set in a traced run when the phase holds the workload's own
/// phase `own`: it then runs traced for two thirds of the time, from
/// index 0 so exact counts see the same cache states in every run, then
/// untraced on inputs of its own, and returns the tracing overhead of
/// that phase's figure in percent.
fn measure(
    ctx: &mut Ctx,
    secs: f64,
    own: Option<usize>,
    mut phase: impl FnMut(&mut Ctx, u64, f64),
) -> Option<f64> {
    let Some(which) = own else {
        phase(ctx, 0, secs);
        return None;
    };
    phase(ctx, 0, secs * 2.0 / 3.0);
    let traced = overhead_basis(ctx, which);
    let on = std::mem::replace(&mut ctx.tracer, Tracer::new(false, ctx.origin));
    phase(ctx, 1 << 32, secs / 3.0);
    ctx.tracer = on;
    Some(100.0 * (traced / overhead_basis(ctx, which) - 1.0))
}

/// The end-to-end figure whose traced and untraced values give the
/// tracing overhead of a phase.
fn overhead_basis(ctx: &Ctx, which: usize) -> f64 {
    let get = |k: &str| ctx.metrics.get(k).map_or(0.0, |m| m.value);
    match which {
        0 => get("compile_chain_s") + get("compile_hmm_s") + get("compile_tree_s"),
        1 => get("condition_s"),
        _ => get("serve_query_p50_us"),
    }
}

fn run(args: &Args, scratch: &Path) -> Result<(), String> {
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let origin = Instant::now();
    let mut ctx = Ctx {
        seed: args.seed,
        tracer: Tracer::new(args.trace, origin),
        trace_run: args.trace,
        ops: Ops::default(),
        scratch: scratch.to_path_buf(),
        origin,
        metrics: BTreeMap::new(),
        record: BTreeMap::new(),
    };

    let mut setup = Setup {
        seed: args.seed,
        dir: scratch.join("serve-cache"),
        started: 0,
        times: Vec::new(),
        disk_hits: 0,
        translations: 0,
    };
    let (models, mut deployment) = setup.once()?;

    ctx.record.insert("rss_mb.setup".into(), rss_mb());
    let w = args.workload;
    let own = |phase_is_own: bool| (args.trace && phase_is_own).then_some(w.primary);
    let shares = [w.shares[0], w.shares[1]];
    let secs = (shares[0] + shares[1]) * args.seconds;
    let compile_infer = measure(&mut ctx, secs, own(w.primary < 2), |ctx, first, secs| {
        passes(ctx, &models, first, secs, shares, Some(&mut setup));
    });
    while setup.started < SETUP_REPS {
        setup.repeat(&mut ctx);
    }
    ctx.put_median("setup_s", &setup.times, "s");
    ctx.put("compile_cache.disk_hits", setup.disk_hits as f64, "count");
    ctx.put(
        "compile_cache.translations",
        setup.translations as f64,
        "count",
    );
    ctx.record
        .insert("rss_mb.after_compile_infer".into(), rss_mb());
    let secs = w.shares[2] * args.seconds;
    let serve = measure(&mut ctx, secs, own(w.primary == 2), |ctx, first, secs| {
        let open = secs * serve::OPEN_SHARE;
        serve::run(ctx, &mut deployment, first, open, secs - open);
    });
    ctx.record.insert("rss_mb.after_serve".into(), rss_mb());
    deployment.shutdown();
    let overhead = compile_infer.or(serve).unwrap_or(0.0);
    ctx.put("trace.overhead_pct", overhead, "%");
    ctx.record.insert("rss_mb.peak".into(), peak_rss_mb());

    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut shown = BTreeMap::new();
    for &name in names {
        let m = ctx
            .metrics
            .get(name)
            .copied()
            .ok_or(format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            ctx.ops.check(false, || format!("{name} is {}", m.value));
        }
        shown.insert(name, m);
    }
    write_record(args, &ctx, &setup.times)?;
    if args.trace {
        let path = Path::new(OUT_DIR).join(format!(
            "{}-seed{}-spans.jsonl",
            args.workload.name, args.seed
        ));
        ctx.tracer
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    for note in &ctx.ops.notes {
        eprintln!("e2ebench: failed: {note}");
    }
    for (name, m) in &shown {
        println!("{name:<28} {:>18.6} {}", m.value, m.unit);
    }
    println!("{}", result_json(&ctx.ops, &shown));
    Ok(())
}

fn result_json(ops: &Ops, shown: &BTreeMap<&str, Metric>) -> String {
    let metrics: Vec<String> = shown
        .iter()
        .map(|(name, m)| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(r#""{name}": {{"value": {value}, "unit": "{}"}}"#, m.unit)
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        ops.failed == 0 && ops.attempted > 0,
        ops.attempted,
        ops.failed,
        metrics.join(", ")
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run record: what ran, on what, with which settings, and what it
/// measured.
fn write_record(args: &Args, ctx: &Ctx, setup: &[f64]) -> Result<(), String> {
    let defaults = sppl_serve::ServeConfig::default();
    let env: BTreeMap<String, String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("SPPL_"))
        .collect();
    let mut fields: Vec<(String, String)> = vec![
        ("workload".into(), json_str(args.workload.name)),
        ("why".into(), json_str(args.workload.why)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), args.trace.to_string()),
        (
            "available_parallelism".into(),
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        (
            "sppl_default_threads".into(),
            sppl_core::default_threads().to_string(),
        ),
        ("rustc".into(), json_str(env!("E2EBENCH_RUSTC"))),
        (
            "sppl_env".into(),
            format!(
                "{{{}}}",
                env.iter()
                    .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        (
            "serve_defaults".into(),
            format!(
                r#"{{"workers": {}, "batch_window_us": {}, "max_batch": {}, "cache_capacity": {}, "registry_capacity": {}, "compile_cache_keep": {}}}"#,
                defaults.workers,
                defaults.batch_window.as_micros(),
                defaults.max_batch,
                defaults.cache_capacity,
                defaults.registry_capacity,
                defaults.compile_cache_keep
            ),
        ),
        ("inputs_digest".into(), json_str(&inputs_digest(args.seed))),
        (
            "setup_s".into(),
            format!(
                "[{}]",
                setup
                    .iter()
                    .map(f64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("attempted".into(), ctx.ops.attempted.to_string()),
        ("failed".into(), ctx.ops.failed.to_string()),
        (
            "failures".into(),
            format!(
                "[{}]",
                ctx.ops
                    .notes
                    .iter()
                    .map(|n| json_str(n))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    for (k, v) in &ctx.record {
        fields.push((k.clone(), json_str(v)));
    }
    let metrics: Vec<String> = ctx
        .metrics
        .iter()
        .filter(|(_, m)| m.value.is_finite())
        .map(|(k, m)| {
            format!(
                r#"{}: {{"value": {}, "unit": "{}"}}"#,
                json_str(k),
                m.value,
                m.unit
            )
        })
        .collect();
    fields.push(("metrics".into(), format!("{{{}}}", metrics.join(", "))));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  {}: {v}", json_str(k)))
        .collect();
    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// A line of `/proc/self/status` in MiB ("" where unavailable).
fn status_mb(key: &str) -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(String::new(), |kb| format!("{:.1}", kb / 1024.0))
}

fn rss_mb() -> String {
    status_mb("VmRSS:")
}

fn peak_rss_mb() -> String {
    status_mb("VmHWM:")
}

/// A hash of the inputs the first passes and the set-up draw from the
/// seed; equal for equal seeds, and what to compare across runs.
fn inputs_digest(seed: u64) -> String {
    let mut text = String::new();
    for pass in 0..ctx::COUNTED_PASSES {
        for p in compile::programs(seed, pass) {
            text += &p.source;
        }
    }
    for rep in 0..SETUP_REPS {
        let (h, c, f) = infer::draw(seed, rep);
        text += &(h.source() + &c.source() + &f.source());
    }
    text += &serve::Base::draw(seed).sources();
    format!("{:016x}", rng::fnv1a(text.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact counts of a traced run's first passes of the compile and
    /// infer phases.
    fn exact_counts(seed: u64, tag: &str) -> Vec<(&'static str, f64)> {
        let dir = std::env::temp_dir().join(format!("e2ebench-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let origin = Instant::now();
        let mut ctx = Ctx {
            seed,
            tracer: Tracer::new(true, origin),
            trace_run: true,
            ops: Ops::default(),
            scratch: dir.clone(),
            origin,
            metrics: BTreeMap::new(),
            record: BTreeMap::new(),
        };
        // No time left runs exactly the counted passes.
        let models = infer::Models::compile(seed, 0).unwrap();
        passes(&mut ctx, &models, 0, 0.0, [0.5, 0.5], None);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(ctx.ops.failed, 0, "{:?}", ctx.ops.notes);
        [
            "analyze.diagnostics",
            "spe.nodes",
            "spe.tree_nodes",
            "wire.bytes",
            "disjoin.clauses",
            "posterior.nodes",
            "engine.hits",
            "engine.misses",
            "factory.prob_entries",
        ]
        .into_iter()
        .map(|k| (k, ctx.metrics[k].value))
        .collect()
    }

    #[test]
    fn exact_counts_repeat_for_a_seed() {
        let first = exact_counts(5, "a");
        assert!(first.iter().all(|(_, v)| *v > 0.0), "{first:?}");
        assert_eq!(first, exact_counts(5, "b"));
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        assert_eq!(inputs_digest(11), inputs_digest(11));
        assert_ne!(inputs_digest(11), inputs_digest(12));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        for name in &all {
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
