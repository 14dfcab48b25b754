//! The compile phase: seeded program families compiled cold, persisted
//! to a compile-cache directory, and handed back by a fresh disk-backed
//! `CompileCache`.

use std::sync::Arc;
use std::time::Instant;

use sppl_analyze::{analyze, CompileCache, CompileModel};
use sppl_core::stats::graph_stats;
use sppl_core::wire::{deserialize_spe, serialize_spe};
use sppl_core::{var, Event, Factory, Model};

use crate::ctx::{Ctx, COUNTED_PASSES};
use crate::gen::{Fairness, Hmm, Mixture, Population, Tree};
use crate::host;
use crate::oracle;
use crate::rng::Rng;

/// Program family, one end-to-end metric each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// K-way `if`/`elif` and `switch` mixtures.
    Chain,
    /// Fig. 3 hierarchical HMMs.
    Hmm,
    /// Table 2 decision tree + population programs.
    Tree,
}

/// One generated program and the probe events its checks ask.
pub struct Program {
    /// Family.
    pub family: Family,
    /// SPPL source.
    pub source: String,
    /// Probe events with closed-form answers where one exists.
    pub probes: Vec<(Event, Option<f64>)>,
}

/// The programs of compile pass `pass`, a pure function of the seed.
pub fn programs(seed: u64, pass: u64) -> Vec<Program> {
    let mut rng = Rng::derive(seed, "compile", pass);
    let mut out = Vec::new();
    for (lo, hi, switch) in [
        (24, 28, false),
        (30, 34, false),
        (44, 48, true),
        (52, 56, true),
    ] {
        let k = rng.below(lo, hi);
        let m = Mixture::draw(&mut rng, k, switch);
        let probes = (0..3)
            .map(|_| {
                let c = rng.real(-25.0, 25.0, 4);
                (var("Y").le(c), Some(oracle::mixture_cdf(&m, c)))
            })
            .collect();
        out.push(Program {
            family: Family::Chain,
            source: m.source(),
            probes,
        });
    }
    for (lo, hi) in [(14, 17), (22, 25)] {
        let n = rng.below(lo, hi);
        let h = Hmm::draw(&mut rng, n);
        out.push(Program {
            family: Family::Hmm,
            source: h.source(),
            probes: vec![
                (var("Z[0]").eq(1.0), None),
                (var(format!("X[{}]", n - 1)).le(rng.real(4.0, 9.0, 3)), None),
            ],
        });
    }
    for i in 0..8 {
        let population = if i % 2 == 0 {
            Population::independent(&mut rng)
        } else {
            Population::bayes_net(&mut rng)
        };
        let tree = Tree::draw(&mut rng, 40 + 10 * (i % 4), i % 4 == 1);
        out.push(Program {
            family: Family::Tree,
            source: Fairness { population, tree }.source(),
            probes: vec![(var("hire").eq(1.0), None)],
        });
    }
    out
}

/// Per-pass end-to-end times.
#[derive(Debug, Default)]
struct PassTimes {
    chain: f64,
    hmm: f64,
    tree: f64,
    reload: f64,
    /// The host probe run right before the pass.
    probe: f64,
}

/// One end-to-end figure of a pass.
type Figure = fn(&PassTimes) -> f64;

impl PassTimes {
    fn add(&mut self, family: Family, secs: f64) {
        match family {
            Family::Chain => self.chain += secs,
            Family::Hmm => self.hmm += secs,
            Family::Tree => self.tree += secs,
        }
    }
}

/// Exact counts over the first [`COUNTED_PASSES`] passes.
#[derive(Debug, Default)]
struct Counts {
    diagnostics: f64,
    nodes: f64,
    tree_nodes: f64,
    bytes: f64,
}

/// Compiles one program through the layers, one span each (the route of
/// a `--trace 1` run in place of `Model::compile`). Returns the model
/// and its analysis diagnostic count.
fn compile_layers(ctx: &mut Ctx, pass: u64, source: &str) -> Option<(Model, usize)> {
    let program = ctx
        .tracer
        .span("lang.parse", pass, || sppl_lang::parse(source));
    let program = ctx.ops.result("parse", program)?;
    let analysis = ctx.tracer.span("analyze", pass, || analyze(&program));
    if let Some(d) = analysis.first_error() {
        ctx.ops.check(false, || format!("analyze: {}", d.message));
        return None;
    }
    let factory = Factory::new();
    let root = ctx.tracer.span("lang.translate", pass, || {
        sppl_lang::translate(&factory, &analysis.pruned)
    });
    let root = ctx.ops.result("translate", root)?;
    Some((Model::new(factory, root), analysis.diagnostics.len()))
}

/// The compile phase's passes so far.
pub struct Phase {
    /// Pass index of the first pass.
    first: u64,
    times: Vec<PassTimes>,
    counts: Counts,
}

impl Phase {
    /// A phase whose passes draw their inputs from pass index `first` on.
    pub fn new(first: u64) -> Phase {
        Phase {
            first,
            times: Vec::new(),
            counts: Counts::default(),
        }
    }

    /// Passes run so far.
    pub fn passes(&self) -> u64 {
        self.times.len() as u64
    }

    /// Runs the next pass.
    pub fn step(&mut self, ctx: &mut Ctx) {
        let n = self.passes();
        let probe = host::probe();
        let mut times = one_pass(ctx, self.first + n, n < COUNTED_PASSES, &mut self.counts);
        times.probe = probe;
        self.times.push(times);
    }

    /// Reports the phase's metrics: medians over its passes, and in the
    /// traced run the per-layer figures.
    pub fn finish(&self, ctx: &mut Ctx) {
        let col = |f: Figure| self.times.iter().map(f).collect::<Vec<_>>();
        if ctx.traced() {
            for (metric, span) in [
                ("lang.parse_s", "lang.parse"),
                ("analyze.s", "analyze"),
                ("lang.translate_s", "lang.translate"),
                ("wire.encode_s", "wire.encode"),
                ("wire.decode_s", "wire.decode"),
                ("store.write_s", "store.write"),
            ] {
                let v = ctx.span_median(span);
                ctx.put(metric, v, "s");
            }
            let c = &self.counts;
            ctx.put("analyze.diagnostics", c.diagnostics, "count");
            ctx.put("spe.nodes", c.nodes, "count");
            ctx.put("spe.tree_nodes", c.tree_nodes, "count");
            ctx.put("wire.bytes", c.bytes, "bytes");
        }
        let figures: [(&str, Figure); 4] = [
            ("compile_chain_s", |t| t.chain),
            ("compile_hmm_s", |t| t.hmm),
            ("compile_tree_s", |t| t.tree),
            ("reload_s", |t| t.reload),
        ];
        for (name, f) in figures {
            let scaled: Vec<f64> = self
                .times
                .iter()
                .map(|t| host::at_reference(f(t), t.probe))
                .collect();
            ctx.put_median(name, &scaled, "ref_s");
            ctx.record_median(&format!("raw.{name}"), &col(f));
        }
        ctx.record_median("host.probe_s.compile", &col(|t| t.probe));
        ctx.record
            .insert("compile.passes".into(), self.passes().to_string());
    }
}

fn one_pass(ctx: &mut Ctx, pass: u64, counted: bool, counts: &mut Counts) -> PassTimes {
    let programs = programs(ctx.seed, pass);
    let mut times = PassTimes::default();
    let mut compiled: Vec<(usize, Model)> = Vec::new();
    for (i, p) in programs.iter().enumerate() {
        let t = Instant::now();
        let model = if ctx.trace_run {
            compile_layers(ctx, pass, &p.source)
        } else {
            let model = ctx.ops.result("compile", Model::compile(&p.source));
            model.map(|m| (m, 0))
        };
        times.add(p.family, t.elapsed().as_secs_f64());
        if let Some((m, diagnostics)) = model {
            if counted {
                let g = graph_stats(m.root());
                counts.diagnostics += diagnostics as f64;
                counts.nodes += g.physical_nodes as f64;
                counts.tree_nodes += g.tree_nodes;
            }
            compiled.push((i, m));
        }
    }

    // Persist every model of the pass through the disk tier.
    let dir = ctx.scratch.join(format!("compile-{pass}"));
    let store = CompileCache::new(compiled.len().max(1)).with_dir(&dir, 0);
    let Some(store) = ctx.ops.result("compile cache dir", store) else {
        return times;
    };
    let mut payloads = Vec::new();
    for (_, model) in &compiled {
        let bytes = ctx
            .tracer
            .span("wire.encode", pass, || serialize_spe(model.root()));
        if counted {
            counts.bytes += bytes.len() as f64;
        }
        let admitted = ctx.tracer.span("store.write", pass, || store.admit(&bytes));
        ctx.ops.result("persist", admitted);
        payloads.push(bytes);
    }

    // Hand every model back: the `--compile-cache` boot path, or in a
    // `--trace 1` run one `deserialize_spe` span per payload.
    let t = Instant::now();
    let reloaded: Vec<Model> = if ctx.trace_run {
        payloads
            .iter()
            .filter_map(|bytes| {
                let factory = Arc::new(Factory::new());
                let root = ctx
                    .tracer
                    .span("wire.decode", pass, || deserialize_spe(&factory, bytes));
                ctx.ops
                    .result("decode", root)
                    .map(|root| Model::new(factory, root))
            })
            .collect()
    } else {
        match CompileCache::new(compiled.len().max(1)).with_dir(&dir, 0) {
            Ok(fresh) => fresh.disk_models().into_iter().map(|(_, m)| m).collect(),
            Err(e) => {
                ctx.ops.check(false, || format!("reload: {e}"));
                Vec::new()
            }
        }
    };
    times.reload = t.elapsed().as_secs_f64();

    check_pass(ctx, &programs, &compiled, &reloaded);
    // Best effort: the whole scratch directory goes when the run ends.
    let _ = std::fs::remove_dir_all(&dir);
    times
}

/// Reloaded models must carry the cold compile's digest and answer the
/// probes bit-identically; mixture probes must match the closed form.
fn check_pass(ctx: &mut Ctx, programs: &[Program], cold: &[(usize, Model)], warm: &[Model]) {
    ctx.ops.check(warm.len() == cold.len(), || {
        format!("reload returned {} of {} models", warm.len(), cold.len())
    });
    for (i, model) in cold {
        let digest = model.model_digest();
        let Some(back) = warm.iter().find(|m| m.model_digest() == digest) else {
            ctx.ops
                .check(false, || format!("reload lost model {digest}"));
            continue;
        };
        let events: Vec<Event> = programs[*i].probes.iter().map(|p| p.0.clone()).collect();
        let (a, b) = (model.prob_many(&events), back.prob_many(&events));
        let same = match (&a, &b) {
            (Ok(a), Ok(b)) => a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
            _ => false,
        };
        ctx.ops.check(same, || {
            format!("reloaded {digest} answers {b:?}, cold {a:?}")
        });
        if let Ok(a) = a {
            for ((event, want), got) in programs[*i].probes.iter().zip(a) {
                if let Some(want) = want {
                    ctx.ops.check(oracle::close(got, *want, 1e-9), || {
                        format!("mixture {event:?}: engine {got}, closed form {want}")
                    });
                }
            }
        }
    }
}
