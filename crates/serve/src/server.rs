//! The server: shared state, request handling, and the TCP front-end.
//!
//! One process-wide [`SharedCache`] and [`ModelRegistry`] back every
//! connection; queries route through the [`Dispatcher`]'s coalescing and
//! batching layers. The TCP layer is a fixed accept/worker architecture:
//! one accept thread feeds connections to `workers` pre-spawned handler
//! threads over a channel, each handler owning one connection at a time
//! and speaking the line-delimited protocol until EOF.
//!
//! [`ServerState::handle`] is the protocol brain and is fully usable
//! without any socket — tests (and in-process embedders) drive it
//! directly with [`Request`] values or raw lines.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use sppl_analyze::CompileCache;
use sppl_core::digest::ModelDigest;
use sppl_core::{serialize_spe, Model, SharedCache, SpplError};

use crate::dispatch::{Dispatcher, ServeCounters};
use crate::protocol::{to_assignment, Request, Response, StatsSnapshot, WireError, WireEvent};
use crate::registry::{scope_names, ModelRegistry};
use crate::snapshot::SnapshotRotation;

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How long a handler blocks on a quiet connection before re-checking
/// the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// The longest request line a handler buffers, newline excluded. The
/// largest line the repo's own models need is a hex `import` of the
/// n = 400 HMM, about 2 MB; a longer line is answered with a
/// `bad_request` and skipped.
const MAX_LINE_BYTES: usize = 16 << 20;

/// Background snapshot policy: where to rotate, how often, how many
/// generations to keep.
#[derive(Debug, Clone)]
pub struct SnapshotPolicy {
    /// Base snapshot path (generations are `<base>.gNNNNNN`).
    pub base: std::path::PathBuf,
    /// Interval between background saves.
    pub interval: Duration,
    /// Newest generations kept by GC.
    pub keep: usize,
}

/// Server configuration. `Default` serves on an ephemeral loopback port
/// with snapshotting off.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Connection-handler threads.
    pub workers: usize,
    /// Shared-cache entry bound.
    pub cache_capacity: usize,
    /// Registered-model bound (roots + posteriors).
    pub registry_capacity: usize,
    /// Batching-window length for single queries (a batched request
    /// is evaluated whole, without a window).
    pub batch_window: Duration,
    /// Maximum single queries per window.
    pub max_batch: usize,
    /// Snapshot lifecycle, if any.
    pub snapshot: Option<SnapshotPolicy>,
    /// On-disk compile-cache directory. When set, compiled SPEs are
    /// persisted as wire payloads and warm-registered at boot, so a
    /// fresh process answers known digests with zero translations.
    pub compile_cache: Option<std::path::PathBuf>,
    /// Newest compile-cache payloads kept by GC (`0` = unbounded).
    pub compile_cache_keep: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            // Handlers spend their lives blocked on sockets and slots, so
            // the default deliberately exceeds small core counts — fewer
            // workers than concurrent connections serializes clients (and
            // with them, the coalescing opportunities).
            workers: sppl_core::default_threads().max(8),
            cache_capacity: 1 << 16,
            registry_capacity: 1024,
            batch_window: Duration::from_micros(500),
            max_batch: 64,
            snapshot: None,
            compile_cache: None,
            compile_cache_keep: 256,
        }
    }
}

/// Everything a request needs: cache, registry, dispatcher, counters.
/// Socket-free — see the [module docs](self).
pub struct ServerState {
    cache: Arc<SharedCache>,
    registry: ModelRegistry,
    dispatcher: Dispatcher,
    counters: Arc<ServeCounters>,
    compiler: CompileCache,
}

impl ServerState {
    /// Fresh state per `config` (the snapshot policy is the [`Server`]'s
    /// concern, not the state's). With a `compile_cache` directory
    /// configured, every valid payload already on disk is
    /// warm-registered — a restarted server answers known digests
    /// without a single translation. An unusable directory degrades to
    /// the in-memory tier (stderr note), never to a failed boot.
    pub fn new(config: &ServeConfig) -> ServerState {
        let counters = Arc::new(ServeCounters::new());
        let cache = Arc::new(SharedCache::new(config.cache_capacity));
        let mut compiler = CompileCache::new(config.registry_capacity.max(1));
        if let Some(dir) = &config.compile_cache {
            match compiler.with_dir(dir, config.compile_cache_keep) {
                Ok(with_disk) => compiler = with_disk,
                Err(e) => {
                    eprintln!("sppl-serve: compile cache disabled on disk: {e}");
                    compiler = CompileCache::new(config.registry_capacity.max(1));
                }
            }
        }
        let registry = ModelRegistry::new(config.registry_capacity);
        for (_, model) in compiler.disk_models() {
            let _ = registry.register(model.with_shared_cache(Arc::clone(&cache)));
        }
        ServerState {
            cache,
            registry,
            dispatcher: Dispatcher::with_counters(
                config.batch_window,
                config.max_batch,
                Arc::clone(&counters),
            ),
            counters,
            compiler,
        }
    }

    /// The process-wide shared cache.
    pub fn cache(&self) -> &Arc<SharedCache> {
        &self.cache
    }

    /// The model registry.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The serve counters.
    pub fn counters(&self) -> &Arc<ServeCounters> {
        &self.counters
    }

    /// Handles one raw wire line: decode, dispatch, encode. Never fails —
    /// malformed input becomes an error *response* (with the request's
    /// `id` echoed whenever it was readable).
    ///
    /// ```
    /// use sppl_serve::server::{ServeConfig, ServerState};
    ///
    /// let state = ServerState::new(&ServeConfig::default());
    /// let reply = state.handle_line(r#"{"op": "stats"}"#);
    /// assert!(reply.contains(r#""ok":true"#));
    /// let reply = state.handle_line("not json");
    /// assert!(reply.contains(r#""kind":"bad_request""#));
    /// ```
    pub fn handle_line(&self, line: &str) -> String {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let (id, response) = match Request::decode(line) {
            Ok((id, request)) => (id, self.handle(&request)),
            Err((id, error)) => (id, Response::Error(error)),
        };
        if matches!(response, Response::Error(_)) {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        response.encode(id)
    }

    /// Answers a line that never reaches the decoder (not UTF-8, or
    /// longer than [`MAX_LINE_BYTES`]) with a `bad_request`, counted like
    /// any other failed request.
    fn reject_line(&self, message: &str) -> String {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
        Response::Error(WireError::bad_request(message)).encode(None)
    }

    /// Handles one decoded request. Infallible by the same contract as
    /// [`handle_line`](ServerState::handle_line).
    pub fn handle(&self, request: &Request) -> Response {
        match self.dispatch(request) {
            Ok(response) => response,
            Err(error) => Response::Error(error),
        }
    }

    fn dispatch(&self, request: &Request) -> Result<Response, WireError> {
        match request {
            Request::Compile { source } => {
                let model = self.compile(source)?;
                Ok(Response::Compiled {
                    digest: model.model_digest(),
                    vars: scope_names(&model),
                    fresh: None,
                })
            }
            Request::Register { source } => {
                let model = self.compile(source)?;
                let (model, fresh) = self.registry.register(model)?;
                Ok(Response::Compiled {
                    digest: model.model_digest(),
                    vars: scope_names(&model),
                    fresh: Some(fresh),
                })
            }
            Request::Lookup { model } => Ok(match self.registry.get(*model) {
                Some(model) => Response::Found {
                    found: true,
                    vars: scope_names(&model),
                },
                None => Response::Found {
                    found: false,
                    vars: Vec::new(),
                },
            }),
            Request::Query {
                model,
                events,
                single,
                prob,
            } => {
                let model = self.model(*model)?;
                let values = match events.as_slice() {
                    [wire_event] => {
                        let event = wire_event.to_event()?;
                        let value = if *prob {
                            self.dispatcher.prob(&model, &event)
                        } else {
                            self.dispatcher.logprob(&model, &event)
                        };
                        vec![value.map_err(query_error)?]
                    }
                    _ => self.query_many(&model, events, *prob)?,
                };
                Ok(Response::Values {
                    values,
                    single: *single,
                })
            }
            Request::Condition { model, event } => {
                let model = self.model(*model)?;
                let event = event.to_event()?;
                let posterior = model.condition(&event).map_err(query_error)?;
                self.adopt(posterior)
            }
            Request::ConditionChain { model, events } => {
                let model = self.model(*model)?;
                let events = events
                    .iter()
                    .map(|e| e.to_event())
                    .collect::<Result<Vec<_>, _>>()?;
                let posterior = model.condition_chain(&events).map_err(query_error)?;
                self.adopt(posterior)
            }
            Request::Constrain { model, assignment } => {
                let model = self.model(*model)?;
                let assignment = to_assignment(assignment);
                let posterior = model.constrain(&assignment).map_err(query_error)?;
                self.adopt(posterior)
            }
            Request::Export { model } => {
                let model = self.model(*model)?;
                Ok(Response::Exported {
                    digest: model.model_digest(),
                    spe: serialize_spe(model.root()),
                })
            }
            Request::Import { spe } => {
                let model = self
                    .compiler
                    .admit(spe)
                    .map_err(|e| WireError::new("import", e.to_string()))?
                    .with_shared_cache(Arc::clone(&self.cache));
                let (model, fresh) = self.registry.register(model)?;
                Ok(Response::Compiled {
                    digest: model.model_digest(),
                    vars: scope_names(&model),
                    fresh: Some(fresh),
                })
            }
            Request::Stats => Ok(Response::Stats(self.stats_snapshot())),
        }
    }

    /// Compiles source through the two-tier compile cache and attaches
    /// the process-wide shared cache.
    fn compile(&self, source: &str) -> Result<Model, WireError> {
        match self.compiler.compile(source) {
            Ok(model) => Ok(model.with_shared_cache(Arc::clone(&self.cache))),
            Err(e) => Err(WireError::new("compile", e.to_string())),
        }
    }

    /// Answers a batched query in one dispatcher call. The wire events
    /// are converted first; the ones before the first malformed event are
    /// still evaluated, because one of them may fail earlier in event
    /// order. The error is the first in event order, the same response
    /// as answering the events one by one.
    fn query_many(
        &self,
        model: &Arc<Model>,
        wire_events: &[WireEvent],
        prob: bool,
    ) -> Result<Vec<f64>, WireError> {
        let mut events = Vec::with_capacity(wire_events.len());
        let mut malformed = Ok(());
        for wire_event in wire_events {
            match wire_event.to_event() {
                Ok(event) => events.push(event),
                Err(e) => {
                    malformed = Err(e);
                    break;
                }
            }
        }
        let values = if prob {
            self.dispatcher.prob_many(model, &events)
        } else {
            self.dispatcher.logprob_many(model, &events)
        }
        .map_err(query_error)?;
        malformed.map(|()| values)
    }

    fn model(&self, digest: ModelDigest) -> Result<Arc<Model>, WireError> {
        self.registry.get(digest).ok_or_else(|| {
            WireError::new(
                "unknown_model",
                format!("no model registered under digest {digest}"),
            )
        })
    }

    /// Registers a freshly built posterior and reports its digest.
    fn adopt(&self, posterior: Model) -> Result<Response, WireError> {
        let digest = posterior.model_digest();
        let (_, fresh) = self.registry.register(posterior)?;
        Ok(Response::Posterior { digest, fresh })
    }

    /// The compile cache behind `compile`/`register`/`import`.
    pub fn compiler(&self) -> &CompileCache {
        &self.compiler
    }

    /// The counters the `stats` op reports.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let counters = &self.counters;
        let cache = self.cache.stats();
        let compiles = self.compiler.stats();
        StatsSnapshot {
            requests: counters.requests.load(Ordering::Relaxed),
            errors: counters.errors.load(Ordering::Relaxed),
            coalesced: counters.coalesced.load(Ordering::Relaxed),
            batches: counters.batches.load(Ordering::Relaxed),
            batched_queries: counters.batched_queries.load(Ordering::Relaxed),
            max_batch: counters.max_batch.load(Ordering::Relaxed),
            batch_hist: counters.hist_values(),
            models: self.registry.len() as u64,
            compile_cache_hits: compiles.hits,
            compile_cache_disk_hits: compiles.disk_hits,
            compile_cache_misses: compiles.misses,
            translations: compiles.translations,
            arena_batches: counters.arena_batches.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_entries: cache.entries as u64,
            cache_evictions: self.cache.evictions(),
            snapshot_saves: counters.snapshot_saves.load(Ordering::Relaxed),
        }
    }
}

fn query_error(e: SpplError) -> WireError {
    WireError::new("query", e.to_string())
}

/// Coordinated shutdown: a flag plus a condvar the snapshot thread
/// sleeps on.
struct Shutdown {
    flag: AtomicBool,
    gate: Mutex<()>,
    wake: Condvar,
}

impl Shutdown {
    fn new() -> Shutdown {
        Shutdown {
            flag: AtomicBool::new(false),
            gate: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    fn is_set(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    fn set(&self) {
        self.flag.store(true, Ordering::Release);
        self.wake.notify_all();
    }

    /// Sleeps up to `timeout`; returns early when shutdown is set.
    fn sleep(&self, timeout: Duration) {
        let guard = lock(&self.gate);
        if self.is_set() {
            return;
        }
        let _ = self
            .wake
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// A running server: bound listener, accept/worker threads, and the
/// optional background snapshot saver.
///
/// ```no_run
/// use sppl_serve::client::Client;
/// use sppl_serve::server::{ServeConfig, Server};
///
/// let server = Server::start(ServeConfig::default()).unwrap();
/// let mut client = Client::connect(server.local_addr()).unwrap();
/// let (digest, _, _) = client.register("X ~ normal(0, 1)").unwrap();
/// println!("registered {digest}");
/// server.shutdown();
/// ```
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    shutdown: Arc<Shutdown>,
    rotation: Option<SnapshotRotation>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    saver: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, warm-starts the cache from the newest snapshot (when a
    /// policy is configured), and spawns the accept, worker, and saver
    /// threads.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let state = Arc::new(ServerState::new(&config));
        let shutdown = Arc::new(Shutdown::new());
        let rotation = config
            .snapshot
            .as_ref()
            .map(|policy| SnapshotRotation::new(policy.base.clone(), policy.keep));
        if let Some(rotation) = &rotation {
            // Warm start; a corrupt or absent snapshot is a cold start.
            let _ = rotation.load_newest(state.cache());
        }

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let (tx, rx) = std::sync::mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                let shutdown = Arc::clone(&shutdown);
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || worker_loop(&state, &shutdown, &rx))
            })
            .collect();

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || accept_loop(&listener, &shutdown, &tx))
        };

        let saver = match (&rotation, &config.snapshot) {
            (Some(rotation), Some(policy)) => {
                let rotation = rotation.clone();
                let interval = policy.interval;
                let state = Arc::clone(&state);
                let shutdown = Arc::clone(&shutdown);
                Some(std::thread::spawn(move || loop {
                    shutdown.sleep(interval);
                    if shutdown.is_set() {
                        break;
                    }
                    if rotation.save(state.cache()).is_ok() {
                        state
                            .counters()
                            .snapshot_saves
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }))
            }
            _ => None,
        };

        Ok(Server {
            state,
            addr,
            shutdown,
            rotation,
            accept: Some(accept),
            workers,
            saver,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared protocol state (for in-process inspection).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Stops accepting, drains the threads, and writes a final snapshot
    /// generation (when a policy is configured). Open connections are
    /// closed.
    pub fn shutdown(mut self) {
        self.stop_threads();
        if let Some(rotation) = self.rotation.take() {
            if rotation.save(self.state.cache()).is_ok() {
                self.state
                    .counters()
                    .snapshot_saves
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn stop_threads(&mut self) {
        self.shutdown.set();
        // The accept thread is parked in `accept()`; a throwaway
        // connection wakes it so it can observe the flag and exit
        // (dropping the channel sender, which in turn drains the workers).
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(saver) = self.saver.take() {
            let _ = saver.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

fn accept_loop(listener: &TcpListener, shutdown: &Shutdown, tx: &Sender<TcpStream>) {
    for stream in listener.incoming() {
        if shutdown.is_set() {
            break;
        }
        let Ok(stream) = stream else { continue };
        if tx.send(stream).is_err() {
            break;
        }
    }
}

fn worker_loop(state: &ServerState, shutdown: &Shutdown, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        // Hold the receiver lock only while dequeuing; idle workers queue
        // on the mutex, and each arriving connection wakes exactly one.
        let conn = lock(rx).recv();
        match conn {
            Ok(stream) => {
                let _ = handle_connection(state, shutdown, stream);
            }
            Err(_) => break, // Accept thread exited; no more connections.
        }
    }
}

/// Answers one request line with `handle_line`. A panic there becomes an
/// `internal` error reply, with the request's `id` when the line decodes,
/// counted in `errors`, so the worker keeps its thread and its connection.
fn guarded(state: &ServerState, line: &str, handle_line: impl FnOnce(&str) -> String) -> String {
    panic::catch_unwind(AssertUnwindSafe(|| handle_line(line))).unwrap_or_else(|_| {
        state.counters.errors.fetch_add(1, Ordering::Relaxed);
        let id = match panic::catch_unwind(|| Request::decode(line)) {
            Ok(Ok((id, _)) | Err((id, _))) => id,
            Err(_) => None,
        };
        Response::Error(WireError::new("internal", "the request handler panicked")).encode(id)
    })
}

/// Speaks the protocol on one connection until EOF, a hard I/O error, or
/// shutdown. The read timeout bounds how long shutdown waits for a quiet
/// connection. Lines are read as bytes, so a timeout that lands inside a
/// multi-byte character keeps the partial bytes for the next read; each
/// complete line is decoded as UTF-8 on its own.
fn handle_connection(
    state: &ServerState,
    shutdown: &Shutdown,
    stream: TcpStream,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = Vec::new();
    // Set while the rest of an over-long line is being discarded.
    let mut skipping = false;
    loop {
        if shutdown.is_set() {
            return Ok(());
        }
        // Never buffer more than one byte past the cap: a line that
        // reaches it without a newline is over-long.
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => return Ok(()), // EOF
            Ok(_) => {
                let complete = line.ends_with(b"\n");
                let response = if skipping {
                    skipping = !complete;
                    None
                } else if !complete && line.len() > MAX_LINE_BYTES {
                    skipping = true;
                    Some(state.reject_line("request line longer than 16 MiB"))
                } else {
                    match std::str::from_utf8(&line) {
                        Ok(text) if text.trim().is_empty() => None,
                        Ok(text) => Some(guarded(state, text, |text| state.handle_line(text))),
                        Err(_) => Some(state.reject_line("request line is not valid UTF-8")),
                    }
                };
                if let Some(response) = response {
                    writer.write_all(response.as_bytes())?;
                    writer.write_all(b"\n")?;
                    writer.flush()?;
                }
                line.clear();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Quiet connection; `line` keeps any partial bytes.
                continue;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_request_gets_an_internal_reply_and_the_worker_goes_on() {
        let state = ServerState::new(&ServeConfig::default());
        let reply = guarded(&state, r#"{"id": 7, "op": "stats"}"#, |_| {
            panic!("handler bug")
        });
        assert!(reply.contains(r#""kind":"internal""#), "{reply}");
        assert!(reply.contains(r#""id":7"#), "{reply}");
        assert_eq!(state.stats_snapshot().errors, 1);
        let reply = guarded(&state, r#"{"id": 8, "op": "stats"}"#, |line| {
            state.handle_line(line)
        });
        assert!(reply.contains(r#""ok":true"#), "{reply}");
        assert!(reply.contains(r#""id":8"#), "{reply}");
        assert_eq!(state.stats_snapshot().errors, 1);
    }
}
