//! The infer phase: the paper's inference tasks on models compiled during
//! set-up. Every pass draws fresh observations and events, conditions,
//! asks a fresh batch, then asks the same batch again.

use std::collections::BTreeMap;
use std::time::Instant;

use sppl_core::density::Assignment;
use sppl_core::disjoin::solve_and_disjoin;
use sppl_core::stats::graph_stats;
use sppl_core::wire::{deserialize_spe, serialize_spe};
use sppl_core::{var, Event, Factory, Model, SpplError, Var};
use sppl_sets::Outcome;

use crate::ctx::{Ctx, COUNTED_PASSES};
use crate::gen::{ChainNet, Fairness, Hmm, Population, Tree};
use crate::host;
use crate::oracle;
use crate::rng::Rng;

/// How many times a pass asks its batches again.
const REPEATS: usize = 4;

/// The set-up models of the infer phase, kept as wire payloads: each
/// pass re-materializes them into fresh factories, so every pass starts
/// from set-up state. (A factory interns every node that conditioning
/// builds and never drops it; a long run on one factory grows without
/// bound and lets earlier passes answer part of later "fresh" batches.)
pub struct Models {
    hmm: Hmm,
    chain: ChainNet,
    fair: Fairness,
    payloads: [Vec<u8>; 3],
}

/// Sources of the infer models for set-up repetition `rep`.
pub fn draw(seed: u64, rep: u64) -> (Hmm, ChainNet, Fairness) {
    let mut rng = Rng::derive(seed, "infer-setup", rep);
    let hmm = Hmm::draw(&mut rng, 20);
    let chain = ChainNet::draw(&mut rng, 24);
    let population = Population::independent(&mut rng);
    let tree = Tree::draw(&mut rng, 24, true);
    (hmm, chain, Fairness { population, tree })
}

impl Models {
    /// Compiles the infer models (cold: fresh constants per repetition).
    pub fn compile(seed: u64, rep: u64) -> Result<Models, String> {
        use sppl_analyze::CompileModel;
        let (hmm, chain, fair) = draw(seed, rep);
        let payload = |src: String| {
            Model::compile(&src)
                .map(|m| serialize_spe(m.root()))
                .map_err(|e| e.message)
        };
        Ok(Models {
            payloads: [
                payload(hmm.source())?,
                payload(chain.source())?,
                payload(fair.source())?,
            ],
            hmm,
            chain,
            fair,
        })
    }

    /// The HMM, chain and fairness models in fresh factories.
    fn fresh(&self) -> Result<[Model; 3], SpplError> {
        let load = |bytes: &Vec<u8>| {
            let factory = Factory::new();
            deserialize_spe(&factory, bytes).map(|root| Model::new(factory, root))
        };
        Ok([
            load(&self.payloads[0])?,
            load(&self.payloads[1])?,
            load(&self.payloads[2])?,
        ])
    }
}

/// HMM observations `{X[t] = x_t, Y[t] = y_t}`.
pub fn observations(xs: &[f64], ys: &[f64]) -> Assignment {
    let mut a = Assignment::new();
    for (t, (&x, &y)) in xs.iter().zip(ys).enumerate() {
        a.insert(Var::indexed("X", t), Outcome::Real(x));
        a.insert(Var::indexed("Y", t), Outcome::Real(y));
    }
    a
}

fn z_is_one(t: usize) -> Event {
    var(format!("Z[{t}]")).eq(1.0)
}

fn emits(t: usize, one: bool) -> Event {
    var(format!("O[{t}]")).eq(if one { 1.0 } else { 0.0 })
}

/// Per-pass end-to-end figures.
#[derive(Debug, Default)]
struct PassTimes {
    condition: f64,
    fresh_time: f64,
    fresh_events: f64,
    again_time: f64,
    again_events: f64,
    /// The host probe run right before the pass.
    probe: f64,
}

/// Exact counts over the first [`COUNTED_PASSES`] passes.
#[derive(Debug, Default)]
struct Counts {
    posterior_nodes: f64,
    clauses: f64,
    hits: f64,
    misses: f64,
    /// Engine hits and misses of the fresh asks alone.
    fresh_hits: f64,
    fresh_misses: f64,
    prob_entries: f64,
}

/// One task of a pass: a posterior, its batch, and reference answers
/// (log-probabilities when `log`).
struct Task {
    posterior: Model,
    events: Vec<Event>,
    log: bool,
    want: Vec<f64>,
    name: &'static str,
}

/// The infer phase's passes so far.
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

    /// Runs the next pass on the set-up `models`.
    pub fn step(&mut self, ctx: &mut Ctx, models: &Models) {
        let n = self.passes();
        let probe = host::probe();
        let mut times = one_pass(
            ctx,
            models,
            self.first + n,
            n < COUNTED_PASSES,
            &mut self.counts,
        );
        times.probe = probe;
        self.times.push(times);
    }

    /// Reports the phase's metrics: medians over its passes, and in the
    /// traced run the per-layer figures.
    pub fn finish(&self, ctx: &mut Ctx) {
        let col = |f: fn(&PassTimes) -> f64| self.times.iter().map(f).collect::<Vec<_>>();
        ctx.put_median(
            "condition_s",
            &col(|t| host::at_reference(t.condition, t.probe)),
            "ref_s",
        );
        ctx.put_median(
            "query_eps",
            &col(|t| t.fresh_events / host::at_reference(t.fresh_time, t.probe)),
            "events/ref_s",
        );
        ctx.put_median(
            "requery_eps",
            &col(|t| t.again_events / host::at_reference(t.again_time, t.probe)),
            "events/ref_s",
        );
        ctx.record_median("raw.condition_s", &col(|t| t.condition));
        ctx.record_median("raw.query_eps", &col(|t| t.fresh_events / t.fresh_time));
        ctx.record_median("raw.requery_eps", &col(|t| t.again_events / t.again_time));
        ctx.record_median("host.probe_s.infer", &col(|t| t.probe));
        if ctx.traced() {
            for (metric, span) in [
                ("core.condition_s", "core.condition"),
                ("core.constrain_s", "core.constrain"),
                ("disjoin.s", "disjoin"),
                ("engine.eval_s", "engine.eval"),
            ] {
                let v = ctx.span_median(span);
                ctx.put(metric, v, "s");
            }
            let c = &self.counts;
            ctx.put("posterior.nodes", c.posterior_nodes, "count");
            ctx.put("disjoin.clauses", c.clauses, "count");
            ctx.put("engine.hits", c.hits, "count");
            ctx.put("engine.misses", c.misses, "count");
            let share = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
            ctx.put("engine.hit_share", share(c.hits, c.misses), "ratio");
            ctx.put(
                "engine.fresh_hit_share",
                share(c.fresh_hits, c.fresh_misses),
                "ratio",
            );
            ctx.put("factory.prob_entries", c.prob_entries, "count");
        }
        ctx.record
            .insert("infer.passes".into(), self.passes().to_string());
    }
}

fn one_pass(
    ctx: &mut Ctx,
    models: &Models,
    pass: u64,
    counted: bool,
    counts: &mut Counts,
) -> PassTimes {
    let mut rng = Rng::derive(ctx.seed, "infer", pass);
    let mut times = PassTimes::default();
    let Some(bases) = ctx.ops.result("reload infer models", models.fresh()) else {
        return times;
    };
    let [hmm_model, chain_model, fair_model] = &bases;
    let mut tasks = Vec::new();

    // Fig. 3: constrain on a fresh trace, then smoothing and pairwise
    // marginals.
    let h = &models.hmm;
    let (xs, ys) = h.simulate(&mut rng);
    let t = Instant::now();
    let post = ctx.tracer.span("core.constrain", pass, || {
        hmm_model.constrain(&observations(&xs, &ys))
    });
    times.condition += t.elapsed().as_secs_f64();
    if let Some(post) = ctx.ops.result("hmm constrain", post) {
        let (single, pair) = oracle::hmm_smoothing(h, &xs, &ys);
        let mut events: Vec<Event> = (0..h.n).map(z_is_one).collect();
        events.extend((0..h.n - 1).map(|t| z_is_one(t) & z_is_one(t + 1)));
        tasks.push(Task {
            posterior: post,
            events,
            log: false,
            want: single.into_iter().chain(pair).collect(),
            name: "hmm smoothing",
        });
    }

    // Fig. 8: condition on a disjunction of emissions, then all-ones
    // prefixes.
    let c = &models.chain;
    let a = rng.below(0, c.n);
    let b = rng.below(16, c.n);
    let d = 16 + (b - 16 + rng.below(1, c.n - 16)) % (c.n - 16);
    let lits = [(a, true), (b, rng.f64() < 0.5), (d, rng.f64() < 0.5)];
    let evidence = emits(a, true) | emits(b, lits[1].1) | emits(d, lits[2].1);
    let t = Instant::now();
    let post = ctx
        .tracer
        .span("core.condition", pass, || chain_model.condition(&evidence));
    times.condition += t.elapsed().as_secs_f64();
    if let Some(post) = ctx.ops.result("chain condition", post) {
        let mut ks: Vec<usize> = (1..=16).collect();
        for i in (1..ks.len()).rev() {
            ks.swap(i, rng.below(0, i + 1));
        }
        ks.truncate(10);
        let events: Vec<Event> = ks
            .iter()
            .map(|&k| Event::and((0..k).map(|t| emits(t, true)).collect()))
            .collect();
        let want = ks
            .iter()
            .map(|&k| chain_log_posterior(c, k, &lits))
            .collect();
        if ctx.traced() {
            for e in std::iter::once(&evidence).chain(&events) {
                let clauses = ctx.tracer.span("disjoin", pass, || solve_and_disjoin(e));
                if let (Some(clauses), true) = (ctx.ops.result("disjoin", clauses), counted) {
                    counts.clauses += clauses.len() as f64;
                }
            }
        }
        tasks.push(Task {
            posterior: post,
            events,
            log: true,
            want,
            name: "rare-event prefix",
        });
    }

    // Table 2: condition on each sex above a fresh age, then hire queries.
    let f = &models.fair;
    let age = rng.real(20.0, 50.0, 4);
    let edu: Vec<f64> = (0..5).map(|_| rng.real(6.0, 14.0, 4)).collect();
    let gain: Vec<f64> = (0..2).map(|_| rng.real(0.0, 9000.0, 2)).collect();
    let mut hire_rate = [0.0; 2];
    for sex in [true, false] {
        let evidence = var("sex").eq(if sex { 1.0 } else { 0.0 }) & var("age").gt(age);
        let t = Instant::now();
        let post = ctx
            .tracer
            .span("core.condition", pass, || fair_model.condition(&evidence));
        times.condition += t.elapsed().as_secs_f64();
        let Some(post) = ctx.ops.result("fairness condition", post) else {
            continue;
        };
        let free = (f64::NEG_INFINITY, f64::INFINITY);
        let outer = [(age, f64::INFINITY), free, free];
        let given = oracle::box_mass(f, sex, &outer);
        let mut events = vec![var("hire").eq(1.0)];
        let mut want = vec![oracle::hire_mass(f, sex, &outer) / given];
        hire_rate[usize::from(sex)] = want[0];
        for &e in &edu {
            events.push(var("hire").eq(1.0) & var("education").lt(e));
            let b = [(age, f64::INFINITY), (f64::NEG_INFINITY, e), free];
            want.push(oracle::hire_mass(f, sex, &b) / given);
        }
        for &g in &gain {
            events.push(var("hire").eq(1.0) & var("capital_gain").lt(g));
            let b = [(age, f64::INFINITY), free, (f64::NEG_INFINITY, g)];
            want.push(oracle::hire_mass(f, sex, &b) / given);
        }
        tasks.push(Task {
            posterior: post,
            events,
            log: false,
            want,
            name: "fairness hire",
        });
    }
    if pass == 0 {
        ctx.record.insert(
            "infer.hire_ratio_pass0".into(),
            format!("{}", hire_rate[1] / hire_rate[0]),
        );
    }

    // Fresh batches, then the same batches again.
    for task in &tasks {
        let ask = |m: &Model| {
            if task.log {
                m.logprob_many(&task.events)
            } else {
                m.prob_many(&task.events)
            }
        };
        let before = task.posterior.stats();
        let t = Instant::now();
        let got = ctx
            .tracer
            .span("engine.eval", pass, || ask(&task.posterior));
        times.fresh_time += t.elapsed().as_secs_f64();
        times.fresh_events += task.events.len() as f64;
        if counted {
            let s = task.posterior.stats();
            counts.fresh_hits += (s.hits - before.hits) as f64;
            counts.fresh_misses += (s.misses - before.misses) as f64;
        }
        let t = Instant::now();
        let mut again = Vec::new();
        for _ in 0..REPEATS {
            again.push(
                ctx.tracer
                    .span("engine.eval", pass, || ask(&task.posterior)),
            );
        }
        times.again_time += t.elapsed().as_secs_f64();
        times.again_events += (REPEATS * task.events.len()) as f64;
        let Some(got) = ctx.ops.result(task.name, got) else {
            continue;
        };
        for (i, (g, w)) in got.iter().zip(&task.want).enumerate() {
            ctx.ops.check(oracle::close(*g, *w, 1e-8), || {
                format!("{} #{i} pass {pass}: engine {g}, reference {w}", task.name)
            });
        }
        for a in again {
            let same =
                matches!(&a, Ok(a) if a.iter().zip(&got).all(|(x, y)| x.to_bits() == y.to_bits()));
            ctx.ops
                .check(same, || format!("{} asked again answered {a:?}", task.name));
        }
        if counted {
            let s = task.posterior.stats();
            counts.hits += s.hits as f64;
            counts.misses += s.misses as f64;
            counts.posterior_nodes += graph_stats(task.posterior.root()).physical_nodes as f64;
        }
    }
    if counted {
        let entries: usize = bases
            .iter()
            .map(|m| m.factory().prob_cache_stats().entries)
            .sum();
        counts.prob_entries += entries as f64;
    }
    times
}

/// `log P(O[0..k] = 1 | any literal of lits)` by forward passes and
/// inclusion–exclusion over the literals.
fn chain_log_posterior(c: &ChainNet, k: usize, lits: &[(usize, bool); 3]) -> f64 {
    let prefix: BTreeMap<usize, bool> = (0..k).map(|t| (t, true)).collect();
    let mut joint = 0.0;
    let mut evidence = 0.0;
    for mask in 1u32..8 {
        let mut fixed = BTreeMap::new();
        let mut consistent = true;
        for (i, &(t, v)) in lits.iter().enumerate() {
            if mask & (1 << i) != 0 && fixed.insert(t, v).is_some_and(|old| old != v) {
                consistent = false;
            }
        }
        if !consistent {
            continue;
        }
        let sign = if mask.count_ones() % 2 == 1 {
            1.0
        } else {
            -1.0
        };
        evidence += sign * oracle::chain_prob(c, &fixed);
        let mut with_prefix = fixed.clone();
        let clash = prefix
            .iter()
            .any(|(t, v)| with_prefix.insert(*t, *v).is_some_and(|old| old != *v));
        if !clash {
            joint += sign * oracle::chain_prob(c, &with_prefix);
        }
    }
    (joint / evidence).ln()
}
