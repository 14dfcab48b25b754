//! The serve phase: an in-process `sppl-serve` on loopback, driven over
//! two connections. An interactive connection sends single-event queries
//! at a fixed rate, an analytics connection sends batches and updates at
//! a lower rate; latency counts from each request's due time. A
//! closed-loop phase on both connections follows.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use sppl_analyze::CompileModel;
use sppl_core::digest::ModelDigest;
use sppl_core::{Event, Model};
use sppl_serve::protocol::{
    to_assignment, Cmp, Request, Response, StatsSnapshot, WireEvent, WireOutcome,
    BATCH_HIST_BUCKETS,
};
use sppl_serve::server::{ServeConfig, Server, ServerState};

use crate::ctx::Ctx;
use crate::gen::{Hmm, Mixture};
use crate::oracle;
use crate::rng::Rng;
use crate::stats::{self, Clock, Timing};
use crate::trace::Tracer;

/// Interactive requests per second.
const INTERACTIVE_RATE: f64 = 250.0;
/// Analytics requests per second.
const ANALYTICS_RATE: f64 = 30.0;
/// Slice lengths (seconds) for the per-slice percentiles: a slice is the
/// serve phase's pass. Analytics slices are longer because analytics
/// requests are rarer.
const QUERY_SLICE: f64 = 0.5;
const ANALYTICS_SLICE: f64 = 2.0;
/// Share of interactive requests drawn from the hot set.
const HOT_SHARE: f64 = 0.3;
/// Hot-set events per model.
const HOT_SET: usize = 16;
/// Share of the phase spent open-loop; the rest is closed-loop.
pub const OPEN_SHARE: f64 = 0.85;
/// Share of closed-loop requests that both connections ask alike, so
/// identical misses race and coalesce; the rest are distinct and batch
/// (`serve_bench`'s contended and throughput phases, half each).
const CONTENDED_SHARE: f64 = 0.5;

/// One line-protocol connection. Each call is traced as client encode,
/// round trip, and decode.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            next_id: 1,
        })
    }

    /// Sends `request`, returning the response (protocol errors
    /// included) or a transport error. `req` tags the spans.
    fn call(&mut self, tr: &mut Tracer, req: u64, request: &Request) -> Result<Response, String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = tr.span("serve.encode", req, || request.encode(Some(id)));
        line.push('\n');
        let mut reply = String::new();
        let rtt = tr.enter("serve.rtt", req);
        let io = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.flush())
            .and_then(|()| self.reader.read_line(&mut reply));
        tr.exit(rtt);
        match io {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(_) => {}
            Err(e) => return Err(e.to_string()),
        }
        let (echoed, response) = tr
            .span("serve.decode", req, || Response::decode(&reply))
            .map_err(|e| format!("{e:?}"))?;
        if echoed != Some(id) {
            return Err(format!("reply id {echoed:?} for request {id}"));
        }
        Ok(response)
    }

    fn stats(&mut self) -> Result<StatsSnapshot, String> {
        match self.call(&mut Tracer::new(false, Instant::now()), 0, &Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(format!("stats answered {other:?}")),
        }
    }
}

/// The fixed programs the server is set up with; the same in every
/// set-up repetition, so a restarted server finds them in its
/// compile-cache directory.
pub struct Base {
    mixture: Mixture,
    hmm: Hmm,
    /// Observed trace the HMM posterior is constrained on.
    trace: (Vec<f64>, Vec<f64>),
}

impl Base {
    /// Draws the base programs for `seed`.
    pub fn draw(seed: u64) -> Base {
        let mut rng = Rng::derive(seed, "serve-base", 0);
        let mixture = Mixture::draw(&mut rng, 8, false);
        let hmm = Hmm::draw(&mut rng, 16);
        let trace = hmm.simulate(&mut rng);
        Base {
            mixture,
            hmm,
            trace,
        }
    }

    /// The base program sources, for the run's input digest.
    pub fn sources(&self) -> String {
        format!(
            "{}{}{:?}",
            self.mixture.source(),
            self.hmm.source(),
            self.trace
        )
    }

    fn constrain_request(&self, model: ModelDigest) -> Request {
        Request::Constrain {
            model,
            assignment: wire_observations(&self.trace.0, &self.trace.1),
        }
    }
}

fn wire_observations(xs: &[f64], ys: &[f64]) -> BTreeMap<String, WireOutcome> {
    let mut a = BTreeMap::new();
    for (t, (&x, &y)) in xs.iter().zip(ys).enumerate() {
        a.insert(format!("X[{t}]"), WireOutcome::Real(x));
        a.insert(format!("Y[{t}]"), WireOutcome::Real(y));
    }
    a
}

/// A running server with its two load connections.
pub struct Deployment {
    server: Server,
    interactive: Conn,
    analytics: Conn,
    base: Base,
    mix: ModelDigest,
    hmm: ModelDigest,
    post: ModelDigest,
}

/// Local models of the served programs that answers are checked against.
struct Local {
    mix: Model,
    hmm: Model,
    post: Model,
}

impl Local {
    /// The local model registered under `digest` by the set-up.
    fn get(&self, d: &Deployment, digest: ModelDigest) -> &Model {
        if digest == d.mix {
            &self.mix
        } else if digest == d.hmm {
            &self.hmm
        } else {
            &self.post
        }
    }

    fn compile(base: &Base) -> Result<Local, String> {
        let compile = |src: String| Model::compile(&src).map_err(|e| e.message);
        let hmm = compile(base.hmm.source())?;
        let assignment = to_assignment(&wire_observations(&base.trace.0, &base.trace.1));
        let post = hmm.constrain(&assignment).map_err(|e| e.to_string())?;
        Ok(Local {
            mix: compile(base.mixture.source())?,
            hmm,
            post,
        })
    }
}

fn expect_digest(r: Result<Response, String>) -> Result<ModelDigest, String> {
    match r? {
        Response::Compiled { digest, .. } | Response::Posterior { digest, .. } => Ok(digest),
        other => Err(format!("unexpected response {other:?}")),
    }
}

impl Deployment {
    /// Starts a server with the default configuration plus a compile-cache
    /// directory, connects both load connections, registers the base
    /// programs, and constrains the HMM.
    pub fn start(seed: u64, cache_dir: &Path) -> Result<Deployment, String> {
        let base = Base::draw(seed);
        let config = ServeConfig {
            compile_cache: Some(cache_dir.to_path_buf()),
            ..ServeConfig::default()
        };
        let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
        let addr = server.local_addr();
        let connect = || Conn::connect(addr).map_err(|e| format!("connect: {e}"));
        let (mut interactive, mut analytics) = (connect()?, connect()?);
        let mut off = Tracer::new(false, Instant::now());
        let register = |c: &mut Conn, off: &mut Tracer, source: String| {
            expect_digest(c.call(off, 0, &Request::Register { source }))
        };
        let mix = register(&mut interactive, &mut off, base.mixture.source())?;
        let hmm = register(&mut analytics, &mut off, base.hmm.source())?;
        let post = expect_digest(analytics.call(&mut off, 0, &base.constrain_request(hmm)))?;
        Ok(Deployment {
            server,
            interactive,
            analytics,
            base,
            mix,
            hmm,
            post,
        })
    }

    /// The server's `stats` counters so far.
    pub fn stats(&mut self) -> Result<StatsSnapshot, String> {
        self.analytics.stats()
    }

    /// Closes the connections and stops the server, joining its threads.
    pub fn shutdown(self) {
        drop(self.interactive);
        drop(self.analytics);
        self.server.shutdown();
    }
}

/// What a request asked about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Target {
    Mix,
    Post,
}

/// Request class, one latency metric each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Query,
    Batch,
    Update,
}

/// One sent request and what came back.
struct Sent {
    class: Class,
    request: Request,
    response: Result<Response, String>,
    /// A hot-set repeat the server has answered before.
    repeat: bool,
    timing: Timing,
}

struct WallClock(Instant);

impl Clock for WallClock {
    fn now(&mut self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn sleep_until(&mut self, t: f64) {
        // A plain sleep: spinning would take a core from the server on a
        // small machine. The timer's overshoot shows up as lateness.
        let left = t - self.now();
        if left > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(left));
        }
    }
}

fn fresh_event(rng: &mut Rng, target: Target, hmm_n: usize) -> WireEvent {
    match target {
        Target::Mix => WireEvent::le("Y", rng.real(-25.0, 25.0, 6)),
        Target::Post => {
            let t = rng.below(0, hmm_n);
            WireEvent::le(&format!("X[{t}]"), rng.real(2.0, 18.0, 6))
        }
    }
}

/// Everything the request generators need, shared by both load threads.
struct Plan {
    seed: u64,
    /// Offset of this phase's request streams, so a second phase in the
    /// same run asks fresh questions.
    first: u64,
    mix: ModelDigest,
    hmm: ModelDigest,
    post: ModelDigest,
    model: Hmm,
    hot: [Vec<WireEvent>; 2],
}

impl Plan {
    fn new(seed: u64, first: u64, d: &Deployment) -> Plan {
        let hot = [Target::Mix, Target::Post].map(|target| {
            let mut rng = Rng::derive(seed, "serve-hot", target as u64);
            (0..HOT_SET)
                .map(|_| fresh_event(&mut rng, target, d.base.hmm.n))
                .collect()
        });
        Plan {
            seed,
            first,
            mix: d.mix,
            hmm: d.hmm,
            post: d.post,
            model: d.base.hmm.clone(),
            hot,
        }
    }

    /// The interactive request `i`, and its hot-set entry if it has one.
    fn interactive(&self, i: u64) -> (Request, Option<(Target, usize)>) {
        let mut rng = Rng::derive(self.seed, "serve-interactive", self.first + i);
        let target = if rng.f64() < 0.6 {
            Target::Mix
        } else {
            Target::Post
        };
        let model = match target {
            Target::Mix => self.mix,
            Target::Post => self.post,
        };
        let (event, key) = if rng.f64() < HOT_SHARE {
            let j = rng.below(0, HOT_SET);
            (self.hot[target as usize][j].clone(), Some((target, j)))
        } else {
            (fresh_event(&mut rng, target, self.model.n), None)
        };
        let request = Request::Query {
            model,
            events: vec![event],
            single: true,
            prob: rng.f64() < 0.2,
        };
        (request, key)
    }

    /// The analytics request `j`: a batch on every third slot, updates
    /// (condition, constrain, register in turn) on the others.
    fn analytics(&self, j: u64) -> (Class, Request) {
        let mut rng = Rng::derive(self.seed, "serve-analytics", self.first + j);
        let (round, slot) = (j / 3, j % 3);
        if slot == 0 {
            let target = if round % 2 == 0 {
                Target::Mix
            } else {
                Target::Post
            };
            // Sizes cycle through 16..=32 so every run asks the same mix
            // of batch sizes; the events are fresh draws.
            let n = 16 + (round * 7 % 17) as usize;
            let events = (0..n)
                .map(|_| fresh_event(&mut rng, target, self.model.n))
                .collect();
            let model = if target == Target::Mix {
                self.mix
            } else {
                self.post
            };
            let request = Request::Query {
                model,
                events,
                single: false,
                prob: false,
            };
            return (Class::Batch, request);
        }
        // Updates do real symbolic work (conditioning and constraining the
        // HMM, translating a fresh HMM), so their latency is mostly the
        // server's own work rather than wake-ups.
        let request = match (2 * round + slot - 1) % 3 {
            0 => {
                // A fixed step with a fresh threshold: the cost of
                // conditioning depends on the step several-fold, so a
                // random step would move the condition p50 with the mix
                // of steps a run happens to draw.
                let t = self.model.n / 2;
                Request::Condition {
                    model: self.hmm,
                    event: WireEvent::gt(&format!("X[{t}]"), rng.real(4.0, 12.0, 6)),
                }
            }
            1 => {
                let (xs, ys) = self.model.simulate(&mut rng);
                Request::Constrain {
                    model: self.hmm,
                    assignment: wire_observations(&xs, &ys),
                }
            }
            _ => Request::Register {
                source: Hmm::draw(&mut rng, 6).source(),
            },
        };
        (Class::Update, request)
    }

    /// Closed-loop request `i` on connection `conn`: a fresh cheap query,
    /// the same on both connections for a seeded share of `i`.
    fn closed(&self, conn: u64, i: u64) -> Request {
        let mut rng = Rng::derive(self.seed, "serve-contended", self.first + i);
        if rng.f64() >= CONTENDED_SHARE {
            rng = Rng::derive(self.seed, "serve-closed", self.first + tag(conn, i));
        }
        Request::Query {
            model: self.mix,
            events: vec![fresh_event(&mut rng, Target::Mix, self.model.n)],
            single: true,
            prob: false,
        }
    }
}

/// A closed-loop request, its response, and its round trip in seconds.
type Closed = (Request, Result<Response, String>, f64);

/// Span tag of request `i` on connection `conn`.
fn tag(conn: u64, i: u64) -> u64 {
    (conn << 40) | i
}

/// One connection's open loop.
fn drive(
    conn: &mut Conn,
    tr: &mut Tracer,
    period: f64,
    until: f64,
    connection: u64,
    mut next: impl FnMut(u64) -> (Class, Request, bool),
) -> Vec<Sent> {
    let mut sent = Vec::new();
    let mut clock = WallClock(Instant::now());
    let timings = stats::open_loop(&mut clock, period, until, |_, i| {
        let (class, request, repeat) = next(i as u64);
        let response = conn.call(tr, tag(connection, i as u64), &request);
        sent.push((class, request, response, repeat));
    });
    sent.into_iter()
        .zip(timings)
        .map(|((class, request, response, repeat), timing)| Sent {
            class,
            request,
            response,
            repeat,
            timing,
        })
        .collect()
}

/// Runs the open loop on both connections for `open` seconds, then the
/// closed loop for `closed` seconds, then checks every answer.
pub fn run(ctx: &mut Ctx, d: &mut Deployment, first: u64, open: f64, closed: f64) {
    let plan = Plan::new(ctx.seed, first, d);
    let traced = ctx.traced();
    let origin = ctx.origin;
    let before = ctx.ops.result("stats", d.analytics.stats());

    // Open loop: both connections at once, each on its own thread.
    let (mut tr_i, mut tr_a) = (Tracer::new(traced, origin), Tracer::new(traced, origin));
    let (conn_i, conn_a) = (&mut d.interactive, &mut d.analytics);
    let (interactive, analytics) = std::thread::scope(|s| {
        let plan = &plan;
        let tr = &mut tr_i;
        let i = s.spawn(move || {
            let mut seen = BTreeSet::new();
            drive(conn_i, tr, 1.0 / INTERACTIVE_RATE, open, 0, |i| {
                let (request, key) = plan.interactive(i);
                let repeat = key.is_some_and(|k| !seen.insert(k));
                (Class::Query, request, repeat)
            })
        });
        let tr = &mut tr_a;
        let a = s.spawn(move || {
            drive(conn_a, tr, 1.0 / ANALYTICS_RATE, open, 1, |j| {
                let (class, request) = plan.analytics(j);
                (class, request, false)
            })
        });
        (
            i.join().expect("interactive load thread panicked"),
            a.join().expect("analytics load thread panicked"),
        )
    });

    // Closed loop: both connections send fresh cheap queries back to back,
    // each answer releasing the next, so request `i` of one connection
    // meets request `i` of the other in the server.
    let (conn_i, conn_a) = (&mut d.interactive, &mut d.analytics);
    let closed_sent: Vec<Vec<Closed>> = std::thread::scope(|s| {
        let plan = &plan;
        let handles: Vec<_> = [(2u64, conn_i), (3u64, conn_a)]
            .into_iter()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut off = Tracer::new(false, origin);
                    let mut out = Vec::new();
                    let start = Instant::now();
                    let mut i = 0;
                    while start.elapsed().as_secs_f64() < closed {
                        let request = plan.closed(c, i);
                        let t = Instant::now();
                        let response = conn.call(&mut off, tag(c, i), &request);
                        out.push((request, response, t.elapsed().as_secs_f64()));
                        i += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect()
    });
    let after = ctx.ops.result("stats", d.analytics.stats());

    // Each connection completes one request per round trip, so capacity is
    // the sum over connections of 1 / (median round trip): completions per
    // second with host stalls, which only ever lengthen a round trip,
    // kept out of the figure.
    let qps: f64 = closed_sent
        .iter()
        .filter_map(|sent| stats::median(&sent.iter().map(|s| s.2).collect::<Vec<_>>()))
        .map(|rtt| 1.0 / rtt)
        .sum();
    report(ctx, &interactive, &analytics, qps);
    if let (Some(b), Some(a)) = (&before, &after) {
        if ctx.traced() {
            counters(ctx, b, a);
        }
    }
    if ctx.traced() {
        replay(ctx, d, &interactive, &analytics);
        let rtt: Vec<f64> = span_us(&tr_i, "serve.rtt");
        let handle = ctx
            .metrics
            .get("serve.handle_query_us")
            .map_or(0.0, |m| m.value);
        let net = stats::median(&rtt).unwrap_or(0.0) - handle;
        ctx.put("serve.net_us", net, "us");
        let mut all = Tracer::new(true, origin);
        all.absorb(tr_i);
        all.absorb(tr_a);
        for (metric, span) in [
            ("serve.encode_us", "serve.encode"),
            ("serve.decode_us", "serve.decode"),
        ] {
            let v = stats::median(&span_us(&all, span)).unwrap_or(0.0);
            ctx.put(metric, v, "us");
        }
        ctx.tracer.absorb(all);
    }

    let Some(local) = ctx.ops.result("local models", Local::compile(&d.base)) else {
        return;
    };
    let sent = interactive.iter().map(|s| (&s.request, &s.response));
    let sent = sent.chain(analytics.iter().map(|s| (&s.request, &s.response)));
    check(
        ctx,
        d,
        &local,
        sent.chain(closed_sent.iter().flatten().map(|(q, r, _)| (q, r))),
    );
}

/// Durations in microseconds of every span named `name`.
fn span_us(tr: &Tracer, name: &str) -> Vec<f64> {
    tr.spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64 / 1e3)
        .collect()
}

fn latencies_us<'a>(sent: impl Iterator<Item = &'a Sent>) -> Vec<f64> {
    sent.map(|s| s.timing.latency() * 1e6).collect()
}

/// The `p`th percentile of latency (us) within each slice of `len`
/// seconds, by due time. Reported figures are the median over slices: the
/// host can stall the whole machine for tens of milliseconds, and such a
/// burst then moves one slice instead of the run.
fn by_slice<'a>(sent: impl Iterator<Item = &'a Sent>, len: f64, p: f64) -> Vec<f64> {
    let mut slices: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for s in sent {
        slices
            .entry((s.timing.due / len) as u64)
            .or_default()
            .push(s.timing.latency() * 1e6);
    }
    slices
        .values()
        .filter_map(|v| stats::percentile(v, p))
        .collect()
}

/// End-to-end serve metrics, plus the latency splits the traced run
/// reports per layer.
fn report(ctx: &mut Ctx, interactive: &[Sent], analytics: &[Sent], qps: f64) {
    let queries = latencies_us(interactive.iter());
    let interactive_p = |p: f64| by_slice(interactive.iter(), QUERY_SLICE, p);
    ctx.put_median("serve_query_p50_us", &interactive_p(50.0), "us");
    let batches = analytics.iter().filter(|s| s.class == Class::Batch);
    ctx.put_median(
        "serve_batch_p50_us",
        &by_slice(batches, ANALYTICS_SLICE, 50.0),
        "us",
    );
    // Update kinds differ several-fold in cost, so the median of their
    // union would jump between kinds; the geometric mean of each kind's
    // median moves with every kind and holds still otherwise. `register`
    // is reported per layer only: two fsyncs per compile-cache write make
    // its median swing by half between runs on a shared disk.
    let mut kinds = Vec::new();
    for op in ["condition", "constrain", "register"] {
        let kind = analytics.iter().filter(|s| s.request.op() == op);
        if let Some(p50) = stats::median(&by_slice(kind, ANALYTICS_SLICE, 50.0)) {
            ctx.put(&format!("serve.{op}_p50_us"), p50, "us");
            if op != "register" {
                kinds.push(p50);
            }
        }
    }
    let geo = (kinds.iter().map(|v| v.ln()).sum::<f64>() / kinds.len().max(1) as f64).exp();
    ctx.put("serve_update_p50_us", geo, "us");
    ctx.put("serve_qps", qps, "req/s");

    let late_ms = |s: &[Sent]| {
        s.iter()
            .map(|s| s.timing.lateness() * 1e3)
            .collect::<Vec<_>>()
    };
    let timings = |s: &[Sent]| s.iter().map(|s| s.timing).collect::<Vec<_>>();
    let backlog =
        stats::backlog(&timings(interactive), 0.002) || stats::backlog(&timings(analytics), 0.020);
    let late_p99 = stats::percentile(&late_ms(interactive), 99.0).unwrap_or(0.0);
    let late_max_a = late_ms(analytics).into_iter().fold(0.0, f64::max);
    let queued = |s: &[Sent]| s.iter().filter(|s| s.timing.queued).count();
    for (k, v) in [
        ("serve.interactive_sent", interactive.len().to_string()),
        ("serve.analytics_sent", analytics.len().to_string()),
        ("serve.interactive_queued", queued(interactive).to_string()),
        ("serve.analytics_queued", queued(analytics).to_string()),
        (
            "serve.interactive_late_p50_ms",
            stats::median(&late_ms(interactive))
                .unwrap_or(0.0)
                .to_string(),
        ),
        ("serve.interactive_late_p99_ms", late_p99.to_string()),
        (
            "serve.analytics_late_p50_ms",
            stats::median(&late_ms(analytics))
                .unwrap_or(0.0)
                .to_string(),
        ),
        ("serve.analytics_late_max_ms", late_max_a.to_string()),
    ] {
        ctx.record.insert(k.into(), v);
    }
    ctx.record
        .insert("serve.backlog".into(), backlog.to_string());
    if ctx.traced() {
        let split = |repeat: bool| latencies_us(interactive.iter().filter(|s| s.repeat == repeat));
        ctx.put_median("serve.hit_p50_us", &split(true), "us");
        ctx.put_median("serve.miss_p50_us", &split(false), "us");
        ctx.put_median("serve.query_p90_us", &interactive_p(90.0), "us");
        let p99 = stats::percentile(&queries, 99.0).unwrap_or(0.0);
        ctx.put("serve.query_p99_us", p99, "us");
        ctx.put(
            "serve.query_p99_beyond",
            stats::beyond(&queries, 99.0) as f64,
            "count",
        );
        ctx.put("serve.query_samples", queries.len() as f64, "count");
        ctx.put("serve.gen_late_ms", late_p99, "ms");
        ctx.put("serve.backlog", f64::from(u8::from(backlog)), "flag");
    }
}

/// Serve-layer counters over the timed phase (differences of the `stats`
/// op before and after; `max_batch` and `models` as read after).
fn counters(ctx: &mut Ctx, b: &StatsSnapshot, a: &StatsSnapshot) {
    let diff = |f: fn(&StatsSnapshot) -> u64| (f(a) - f(b)) as f64;
    ctx.put("serve.batches", diff(|s| s.batches), "count");
    ctx.put(
        "serve.batched_queries",
        diff(|s| s.batched_queries),
        "count",
    );
    ctx.put("serve.arena_batches", diff(|s| s.arena_batches), "count");
    ctx.put("serve.coalesced", diff(|s| s.coalesced), "count");
    let (hits, misses) = (diff(|s| s.cache_hits), diff(|s| s.cache_misses));
    ctx.put("serve.cache_hits", hits, "count");
    ctx.put("serve.cache_misses", misses, "count");
    ctx.put(
        "serve.cache_hit_share",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    ctx.put("serve.errors", diff(|s| s.errors), "count");
    ctx.put("serve.max_batch", a.max_batch as f64, "count");
    ctx.put("serve.models", a.models as f64, "count");
    for (i, bucket) in BATCH_HIST_BUCKETS.iter().enumerate() {
        let name = format!("serve.batch_hist.{}", bucket.replace('+', "-up"));
        ctx.put(&name, (a.batch_hist[i] - b.batch_hist[i]) as f64, "count");
    }
}

/// Socket-free replay: the same request lines through
/// `ServerState::handle_line` on a fresh state, timed per class.
fn replay(ctx: &mut Ctx, d: &Deployment, interactive: &[Sent], analytics: &[Sent]) {
    let state = ServerState::new(&ServeConfig::default());
    let mut id = 0;
    let mut line = |q: &Request| {
        id += 1;
        q.encode(Some(id))
    };
    for source in [d.base.mixture.source(), d.base.hmm.source()] {
        state.handle_line(&line(&Request::Register { source }));
    }
    state.handle_line(&line(&d.base.constrain_request(d.hmm)));
    let mut times: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let pick = |class: Class, n: usize| {
        interactive
            .iter()
            .chain(analytics)
            .filter(move |s| s.class == class)
            .take(n)
    };
    for (class, metric, n) in [
        (Class::Query, "serve.handle_query_us", 400),
        (Class::Batch, "serve.handle_batch_us", 40),
        (Class::Update, "serve.handle_update_us", 40),
    ] {
        for (k, s) in pick(class, n).enumerate() {
            let text = line(&s.request);
            let t = Instant::now();
            let open = ctx.tracer.enter("serve.handle", k as u64);
            let reply = state.handle_line(&text);
            ctx.tracer.exit(open);
            times
                .entry(metric)
                .or_default()
                .push(t.elapsed().as_secs_f64() * 1e6);
            ctx.ops.check(reply.contains(r#""ok":true"#), || {
                format!("replayed {} answered {reply}", s.request.op())
            });
        }
    }
    for (metric, v) in times {
        ctx.put_median(metric, &v, "us");
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every served answer must be bit-equal to a direct `Model` call on the
/// matching local model; mixture answers must also match the closed
/// form; posterior and register digests must match local compiles.
fn check<'a>(
    ctx: &mut Ctx,
    d: &Deployment,
    local: &Local,
    sent: impl Iterator<Item = (&'a Request, &'a Result<Response, String>)>,
) {
    for (request, response) in sent {
        let Some(response) = ctx.ops.result(request.op(), response.as_ref()) else {
            continue;
        };
        match (request, response) {
            (
                Request::Query {
                    model,
                    events,
                    prob,
                    ..
                },
                Response::Values { values, .. },
            ) => {
                let local = local.get(d, *model);
                let wire = events;
                let events: Vec<Event> = events.iter().filter_map(|e| e.to_event().ok()).collect();
                let direct = if *prob {
                    local.prob_many(&events)
                } else {
                    local.logprob_many(&events)
                };
                let same = direct.as_ref().is_ok_and(|v| bits(v) == bits(values));
                ctx.ops
                    .check(same, || format!("served {values:?}, direct {direct:?}"));
                if *model == d.mix && wire.len() == 1 {
                    if let Some(c) = upper_bound(&wire[0]) {
                        let want = oracle::mixture_cdf(&d.base.mixture, c);
                        let got = if *prob { values[0] } else { values[0].exp() };
                        ctx.ops.check(oracle::close(got, want, 1e-9), || {
                            format!("served P[Y <= {c}] = {got}, closed form {want}")
                        });
                    }
                }
            }
            (Request::Condition { model, event }, Response::Posterior { digest, .. }) => {
                let local = local.get(d, *model);
                let direct = event
                    .to_event()
                    .map_err(|e| format!("{e:?}"))
                    .and_then(|e| local.condition(&e).map_err(|e| e.to_string()));
                let same = direct.as_ref().is_ok_and(|m| m.model_digest() == *digest);
                ctx.ops.check(same, || {
                    format!("served posterior {digest}, direct {direct:?}")
                });
            }
            (Request::Constrain { assignment, .. }, Response::Posterior { digest, .. }) => {
                let direct = local.hmm.constrain(&to_assignment(assignment));
                let same = direct.as_ref().is_ok_and(|m| m.model_digest() == *digest);
                ctx.ops.check(same, || {
                    format!("served posterior {digest}, direct {direct:?}")
                });
            }
            (Request::Register { source }, Response::Compiled { digest, .. }) => {
                let direct = Model::compile(source);
                let same = direct.as_ref().is_ok_and(|m| m.model_digest() == *digest);
                ctx.ops
                    .check(same, || format!("registered {digest}, direct {direct:?}"));
            }
            (request, response) => ctx
                .ops
                .check(false, || format!("{} answered {response:?}", request.op())),
        }
    }
}

/// `c` when `event` is `Y <= c`.
fn upper_bound(event: &WireEvent) -> Option<f64> {
    match event {
        WireEvent::Cmp {
            var,
            cmp: Cmp::Le,
            value,
        } if var == "Y" => Some(*value),
        _ => None,
    }
}
