//! End-to-end serving over real TCP sockets: every answer a client
//! reads off the wire is bit-identical to the corresponding direct
//! [`Model`] call in this process, racing clients coalesce into one
//! underlying evaluation, protocol errors come back as structured
//! error responses, and a restarted server warm-starts from its own
//! rotated snapshots with pure cache hits.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use sppl_core::density::Assignment;
use sppl_core::digest::ModelDigest;
use sppl_core::prelude::{Outcome, Var};
use sppl_serve::protocol::{WireError, WireEvent, WireOutcome};
use sppl_serve::server::SnapshotPolicy;
use sppl_serve::{Client, Request, Response, ServeConfig, Server};

/// The model served in every test: one continuous and one nominal
/// variable, so comparisons, equality, and posteriors all have bite.
const SOURCE: &str = "X ~ normal(0, 1)\nN ~ choice({'a': 0.25, 'b': 0.75})\n";

fn start(config: ServeConfig) -> Server {
    Server::start(config).expect("server binds on loopback")
}

#[test]
fn served_answers_match_direct_calls_bit_for_bit() {
    let server = start(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let direct = sppl_analyze::compile_model(SOURCE).expect("direct compile");

    // register: digest equals the direct compile's content digest (that
    // is the whole query-by-digest contract), scope comes back sorted.
    let (digest, vars, fresh) = client.register(SOURCE).expect("register");
    assert_eq!(digest, direct.model_digest());
    assert_eq!(vars, ["N", "X"]);
    assert!(fresh, "first registration is fresh");
    let (_, _, fresh) = client.register(SOURCE).expect("re-register");
    assert!(!fresh, "same digest re-registered is not fresh");

    // lookup: hit and miss.
    assert_eq!(
        client.lookup(digest).expect("lookup"),
        Some(vec!["N".to_string(), "X".to_string()])
    );
    assert_eq!(client.lookup(ModelDigest::from_u128(42)).unwrap(), None);

    // compile retains nothing: the digest answers, but is not queryable.
    let other = "Y ~ uniform(0, 2)\n";
    let (compiled, _) = client.compile(other).expect("compile");
    let direct_other = sppl_analyze::compile_model(other).expect("direct");
    assert_eq!(compiled, direct_other.model_digest());
    assert_eq!(client.lookup(compiled).unwrap(), None);

    // Single and batch queries, logprob and prob: bit parity throughout.
    let events = [
        WireEvent::le("X", 0.0),
        WireEvent::gt("X", 1.5),
        WireEvent::eq_str("N", "a"),
        WireEvent::And(vec![WireEvent::ge("X", -1.0), WireEvent::eq_str("N", "b")]),
        WireEvent::Not(Box::new(WireEvent::lt("X", -0.5))),
    ];
    for we in &events {
        let event = we.to_event().unwrap();
        let served = client.logprob(digest, we).expect("logprob");
        assert_eq!(served.to_bits(), direct.logprob(&event).unwrap().to_bits());
        let served = client.prob(digest, we).expect("prob");
        assert_eq!(served.to_bits(), direct.prob(&event).unwrap().to_bits());
    }
    let served = client.logprob_many(digest, &events).expect("batch");
    let direct_events: Vec<_> = events.iter().map(|we| we.to_event().unwrap()).collect();
    let reference = direct.logprob_many(&direct_events).unwrap();
    assert_eq!(served.len(), reference.len());
    for (s, r) in served.iter().zip(&reference) {
        assert_eq!(s.to_bits(), r.to_bits(), "batch answers must be exact");
    }

    // condition: the posterior digest equals the direct posterior's —
    // content-addressing crosses the wire — and posterior queries stay
    // bit-identical.
    let evidence = WireEvent::gt("X", 0.0);
    let (posterior, fresh) = client.condition(digest, &evidence).expect("condition");
    let direct_posterior = direct.condition(&evidence.to_event().unwrap()).unwrap();
    assert_eq!(posterior, direct_posterior.model_digest());
    assert!(fresh, "first conditioning registers the posterior");
    let (again, fresh) = client.condition(digest, &evidence).expect("re-condition");
    assert_eq!(again, posterior);
    assert!(!fresh, "same posterior is already registered");
    for we in &events {
        let served = client.logprob(posterior, we).expect("posterior query");
        let reference = direct_posterior.logprob(&we.to_event().unwrap()).unwrap();
        assert_eq!(served.to_bits(), reference.to_bits());
    }

    // condition_chain ≡ repeated condition, digest for digest.
    let chain = [WireEvent::gt("X", -1.0), WireEvent::lt("X", 1.0)];
    let (chained, _) = client.condition_chain(digest, &chain).expect("chain");
    let stepwise = direct
        .condition(&chain[0].to_event().unwrap())
        .unwrap()
        .condition(&chain[1].to_event().unwrap())
        .unwrap();
    assert_eq!(chained, stepwise.model_digest());

    // constrain: measure-zero observation, digest parity, then a
    // bit-identical query against the constrained posterior.
    let mut wire_obs = BTreeMap::new();
    wire_obs.insert("X".to_string(), WireOutcome::Real(0.5));
    let (constrained, _) = client.constrain(digest, &wire_obs).expect("constrain");
    let mut obs = Assignment::new();
    obs.insert(Var::new("X"), Outcome::Real(0.5));
    let direct_constrained = direct.constrain(&obs).unwrap();
    assert_eq!(constrained, direct_constrained.model_digest());
    let we = WireEvent::eq_str("N", "a");
    assert_eq!(
        client.logprob(constrained, &we).unwrap().to_bits(),
        direct_constrained
            .logprob(&we.to_event().unwrap())
            .unwrap()
            .to_bits()
    );

    let stats = client.stats().expect("stats");
    assert!(stats.requests > 0);
    assert_eq!(stats.errors, 0, "this session made no bad requests");
    assert!(stats.models >= 4, "root + three posteriors registered");
    server.shutdown();
}

#[test]
fn racing_clients_coalesce_into_one_evaluation() {
    let n = 6;
    let server = start(ServeConfig {
        // Every racing connection needs a live handler or the race
        // serializes; a long window gives stragglers time to coalesce.
        workers: n + 2,
        batch_window: Duration::from_millis(100),
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    let mut control = Client::connect(addr).expect("connect");
    let (digest, _, _) = control.register(SOURCE).expect("register");

    let event = WireEvent::le("X", 0.25);
    let barrier = Arc::new(Barrier::new(n));
    let answers: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let event = event.clone();
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect racer");
                    barrier.wait();
                    client.logprob(digest, &event).expect("raced query")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let direct = sppl_analyze::compile_model(SOURCE).expect("direct compile");
    let reference = direct.logprob(&event.to_event().unwrap()).unwrap();
    for (i, answer) in answers.iter().enumerate() {
        assert_eq!(
            answer.to_bits(),
            reference.to_bits(),
            "racer {i} got a different answer"
        );
    }

    let stats = control.stats().expect("stats");
    assert_eq!(
        stats.cache_misses, 1,
        "n identical racing queries must evaluate exactly once ({stats:?})"
    );
    assert!(
        stats.coalesced >= 1,
        "concurrent in-flight duplicates must coalesce ({stats:?})"
    );
    // The other n-1 racers coalesced or hit the cache; a racer that
    // probes before the insert but reaches the slot map after the
    // owner's cleanup re-evaluates against the warm engine memo instead,
    // so the split is bounded, not exact.
    assert!(
        stats.coalesced + stats.cache_hits < n as u64,
        "more coalesces/hits than racers ({stats:?})"
    );
    server.shutdown();
}

#[test]
fn protocol_errors_come_back_structured() {
    let server = start(ServeConfig::default());
    let addr = server.local_addr();

    // Typed client errors carry machine-readable kinds.
    let mut client = Client::connect(addr).expect("connect");
    let missing = ModelDigest::from_u128(0xdead);
    let err = client
        .logprob(missing, &WireEvent::le("X", 0.0))
        .expect_err("unregistered digest");
    assert_eq!(err.kind, "unknown_model");
    let err = client.compile("X ~ ~ nonsense").expect_err("bad source");
    assert_eq!(err.kind, "compile");
    let (digest, _, _) = client.register(SOURCE).expect("register");
    let err = client
        .logprob(digest, &WireEvent::le("Nope", 0.0))
        .expect_err("unknown variable");
    assert_eq!(err.kind, "query");

    // Raw wire garbage: the server answers (it never hangs up on a bad
    // line), flags ok=false, names the kind, and echoes the id. Each
    // request goes out in chunks, with a pause longer than the server's
    // 100 ms read poll between them.
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let mut line = String::new();
    let umlaut = "{\"id\":41,\"op\":\"compile\",\"source\":\"C ~ choice({'Zürich': 1.0})\"}\n";
    // Split between the two bytes of `ü`.
    let inside_u = umlaut.find('ü').expect("has ü") + 1;
    let mut over_long = vec![b'x'; (16 << 20) + 1];
    over_long.push(b'\n');
    let bad = ["\"ok\":false", "\"kind\":\"bad_request\""];
    let cases: [(Vec<&[u8]>, &[&str]); 8] = [
        (vec![b"this is not json\n"], &bad),
        (
            vec![b"{\"id\":31,\"op\":\"warble\"}\n"],
            &["\"ok\":false", "\"id\":31"],
        ),
        (vec![b"{\"op\":\"logprob\"}\n"], &["\"ok\":false"]),
        (
            vec![
                &umlaut.as_bytes()[..inside_u],
                &umlaut.as_bytes()[inside_u..],
            ],
            &["\"ok\":true", "\"id\":41"],
        ),
        (vec![b"{\"id\":42,\"op\":\"st\xffats\"}\n"], &bad),
        (vec![&over_long], &bad),
        // A non-ASCII character in a hex payload.
        (
            vec!["{\"id\":44,\"op\":\"import\",\"spe\":\"a€\"}\n".as_bytes()],
            &["\"ok\":false", "\"kind\":\"bad_request\"", "\"id\":44"],
        ),
        (
            vec![b"{\"id\":43,\"op\":\"stats\"}\n"],
            &["\"ok\":true", "\"id\":43"],
        ),
    ];
    for (chunks, expect) in cases {
        for (i, chunk) in chunks.iter().enumerate() {
            if i > 0 {
                std::thread::sleep(Duration::from_millis(250));
            }
            raw.write_all(chunk).expect("send");
        }
        line.clear();
        reader.read_line(&mut line).expect("reply");
        let sent = String::from_utf8_lossy(&chunks[0][..chunks[0].len().min(60)]);
        for want in expect {
            assert!(line.contains(want), "{sent:?} -> {line:?}");
        }
    }

    // The connection survives all of that: a good request still works.
    let stats = client.stats().expect("stats after errors");
    assert!(stats.errors >= 9, "every failure above was counted");
    server.shutdown();
}

#[test]
fn restarted_server_warm_starts_from_rotated_snapshots() {
    let dir = std::env::temp_dir().join(format!("sppl-serve-e2e-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let policy = SnapshotPolicy {
        base: dir.join("cache.snap"),
        interval: Duration::from_millis(50),
        keep: 2,
    };
    let events = [
        WireEvent::le("X", 0.0),
        WireEvent::gt("X", 1.0),
        WireEvent::eq_str("N", "b"),
    ];

    // First life: answer the working set, let the background saver run
    // at least once, then shut down (which saves a final generation).
    let server = start(ServeConfig {
        snapshot: Some(policy.clone()),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let (digest, _, _) = client.register(SOURCE).expect("register");
    let first_life: Vec<f64> = events
        .iter()
        .map(|we| client.logprob(digest, we).expect("query"))
        .collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().expect("stats");
        if stats.snapshot_saves >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "background saver never ran"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
    assert!(
        !policy.base.exists(),
        "rotation writes generations, not the bare base path"
    );

    // Second life: same snapshot policy, fresh process state. The same
    // working set must be answered from the loaded snapshot alone.
    let server = start(ServeConfig {
        snapshot: Some(policy.clone()),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let (digest2, _, _) = client.register(SOURCE).expect("re-register");
    assert_eq!(digest2, digest, "content digest is stable across lives");
    for (we, first) in events.iter().zip(&first_life) {
        let warm = client.logprob(digest, we).expect("warm query");
        assert_eq!(
            warm.to_bits(),
            first.to_bits(),
            "restart must not change an answer"
        );
    }
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.cache_misses, 0,
        "warm restart serves the working set without evaluating ({stats:?})"
    );
    assert_eq!(stats.cache_hits, events.len() as u64);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn arena_batches_are_bit_identical_to_direct_calls() {
    // Enough distinct concurrent queries on one model that a single
    // batching window groups several of them into one batched call.
    let n = 8;
    let server = start(ServeConfig {
        workers: n + 2,
        batch_window: Duration::from_millis(200),
        max_batch: n * 2,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    let mut control = Client::connect(addr).expect("connect");
    let (digest, _, _) = control.register(SOURCE).expect("register");

    // Distinct events (no coalescing) so the window groups them all.
    let events: Vec<WireEvent> = (0..n)
        .map(|i| WireEvent::le("X", -1.5 + i as f64 * 0.4))
        .collect();
    let barrier = Arc::new(Barrier::new(n));
    let answers: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = events
            .iter()
            .map(|event| {
                let barrier = Arc::clone(&barrier);
                let event = event.clone();
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect racer");
                    barrier.wait();
                    client.logprob(digest, &event).expect("batched query")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let direct = sppl_analyze::compile_model(SOURCE).expect("direct compile");
    for (event, answer) in events.iter().zip(&answers) {
        let reference = direct.logprob(&event.to_event().unwrap()).unwrap();
        assert_eq!(
            answer.to_bits(),
            reference.to_bits(),
            "arena-served answer for {event:?} must be bit-identical"
        );
    }
    let stats = control.stats().expect("stats");
    assert!(
        stats.arena_batches >= 1,
        "a window of {n} distinct queries must route through the arena ({stats:?})"
    );
    server.shutdown();
}

#[test]
fn warm_compile_cache_restart_answers_without_translating() {
    let dir = std::env::temp_dir().join(format!("sppl-serve-e2e-cc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let events = [
        WireEvent::le("X", 0.5),
        WireEvent::eq_str("N", "a"),
        WireEvent::gt("X", -0.25),
    ];

    // First life: compiling SOURCE translates once and persists the
    // compiled SPE as a wire payload.
    let server = start(ServeConfig {
        compile_cache: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let (digest, vars, fresh) = client.register(SOURCE).expect("register");
    assert!(fresh);
    let first_life: Vec<f64> = events
        .iter()
        .map(|we| client.logprob(digest, we).expect("query"))
        .collect();
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.translations, 1,
        "cold register translates ({stats:?})"
    );
    server.shutdown();

    // Second life: the payload on disk boot-registers the model, so the
    // digest answers before any client compiles anything — and a
    // re-register is a disk hit, not a translation.
    let server = start(ServeConfig {
        compile_cache: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(
        client.lookup(digest).expect("lookup"),
        Some(vars.clone()),
        "boot scan registers every persisted model"
    );
    for (we, first) in events.iter().zip(&first_life) {
        let warm = client.logprob(digest, we).expect("warm query");
        assert_eq!(
            warm.to_bits(),
            first.to_bits(),
            "a compile-cache restart must not change an answer"
        );
    }
    let (digest2, _, fresh) = client.register(SOURCE).expect("re-register");
    assert_eq!(digest2, digest);
    assert!(!fresh, "the boot scan already registered this digest");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.translations, 0,
        "a warm compile cache serves the restart with zero translations ({stats:?})"
    );
    assert!(
        stats.compile_cache_hits + stats.compile_cache_disk_hits >= 1,
        "the re-register must hit a cache tier ({stats:?})"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn export_import_ships_compiled_models_between_servers() {
    let server_a = start(ServeConfig::default());
    let mut client_a = Client::connect(server_a.local_addr()).expect("connect A");
    let (digest, vars, _) = client_a.register(SOURCE).expect("register");

    // Export: digest echoes, payload is non-trivial binary.
    let (exported_digest, payload) = client_a.export(digest).expect("export");
    assert_eq!(exported_digest, digest);
    assert!(payload.len() > 40, "payload carries a real SPE");
    let err = client_a
        .export(ModelDigest::from_u128(0xbad))
        .expect_err("unknown digest");
    assert_eq!(err.kind, "unknown_model");

    // Import into a second, cold server: same digest, same scope, and
    // bit-identical answers — without ever seeing the source text.
    let server_b = start(ServeConfig::default());
    let mut client_b = Client::connect(server_b.local_addr()).expect("connect B");
    let (imported, vars_b, fresh) = client_b.import(&payload).expect("import");
    assert_eq!(imported, digest, "content digest crosses the wire");
    assert_eq!(vars_b, vars);
    assert!(fresh, "first import registers the model");
    for we in [
        WireEvent::le("X", 0.0),
        WireEvent::eq_str("N", "b"),
        WireEvent::And(vec![WireEvent::gt("X", 0.5), WireEvent::eq_str("N", "a")]),
    ] {
        assert_eq!(
            client_b.logprob(digest, &we).expect("B").to_bits(),
            client_a.logprob(digest, &we).expect("A").to_bits(),
            "imported model must answer bit-identically"
        );
    }
    let stats = client_b.stats().expect("stats B");
    assert_eq!(stats.translations, 0, "import never translates ({stats:?})");

    // A corrupted payload fails closed with a structured kind.
    let mut corrupt = payload.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    let err = client_b.import(&corrupt).expect_err("corrupt payload");
    assert_eq!(err.kind, "import");

    server_a.shutdown();
    server_b.shutdown();
}

#[test]
fn full_registry_rejects_with_structured_error() {
    let server = start(ServeConfig {
        registry_capacity: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let (digest, _, _) = client.register(SOURCE).expect("register fills the slot");
    // Re-registering the same digest is fine (no new slot) …
    let (_, _, fresh) = client.register(SOURCE).expect("re-register");
    assert!(!fresh);
    // … but a new digest (here, a posterior) must be rejected loudly.
    let err = client
        .condition(digest, &WireEvent::gt("X", 0.0))
        .expect_err("full registry");
    assert_eq!(err.kind, "registry_full");
    assert!(!err.message.is_empty());
    server.shutdown();
}

#[test]
fn batched_request_is_evaluated_whole_without_waiting_out_windows() {
    // A window far longer than the request needs: answering the batch
    // event by event would wait out one window per event (16 s here).
    let window = Duration::from_secs(2);
    let server = start(ServeConfig {
        batch_window: window,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let (digest, _, _) = client.register(SOURCE).expect("register");
    let events: Vec<WireEvent> = (0..8)
        .map(|i| WireEvent::le("X", -1.75 + i as f64 * 0.5))
        .collect();

    let before = client.stats().expect("stats");
    let started = std::time::Instant::now();
    let served = client.logprob_many(digest, &events).expect("batch");
    let elapsed = started.elapsed();
    let after = client.stats().expect("stats");
    assert!(
        elapsed < window / 2,
        "a batched request must not wait out a window ({elapsed:?})"
    );

    let direct = sppl_analyze::compile_model(SOURCE).expect("direct compile");
    let direct_events: Vec<_> = events.iter().map(|we| we.to_event().unwrap()).collect();
    let reference = direct.logprob_many(&direct_events).unwrap();
    assert_eq!(served.len(), reference.len());
    for (s, r) in served.iter().zip(&reference) {
        assert_eq!(s.to_bits(), r.to_bits(), "batch answers must be exact");
    }
    // The whole request was one evaluation: one batch of eight, one
    // batched call.
    assert_eq!(after.batches, before.batches + 1, "{after:?}");
    assert!(after.max_batch >= 8, "{after:?}");
    assert_eq!(after.arena_batches, before.arena_batches + 1, "{after:?}");
    server.shutdown();
}

#[test]
fn batched_request_errors_match_event_by_event_answers() {
    let server = start(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let (digest, _, _) = client.register(SOURCE).expect("register");
    let direct = sppl_analyze::compile_model(SOURCE).expect("direct compile");
    let good = |i: usize| WireEvent::le("X", i as f64 * 0.25 - 1.0);
    let unknown = WireEvent::gt("Nope", 0.0);
    let malformed = WireEvent::InInterval {
        var: "X".to_string(),
        lo: 2.0,
        lo_closed: true,
        hi: 1.0,
        hi_closed: true,
    };
    // What answering event by event reports: the first failing event's
    // error, a query failure or a malformed event alike.
    let query_error = WireError::new(
        "query",
        direct
            .logprob(&unknown.to_event().unwrap())
            .unwrap_err()
            .to_string(),
    );
    let malformed_error = malformed.to_event().unwrap_err();
    assert_eq!(malformed_error.kind, "bad_request");

    let with_at = |k: usize, bad: &WireEvent| -> Vec<WireEvent> {
        let mut events: Vec<WireEvent> = (0..6).map(good).collect();
        events[k] = bad.clone();
        events
    };
    for k in [0, 3, 5] {
        let err = client
            .logprob_many(digest, &with_at(k, &unknown))
            .expect_err("unknown variable");
        assert_eq!(err, query_error, "unknown variable at {k}");
        let err = client
            .prob_many(digest, &with_at(k, &malformed))
            .expect_err("malformed event");
        assert_eq!(err, malformed_error, "malformed event at {k}");
    }
    // Both in one request: the earlier one wins, in either order.
    let mut events = with_at(1, &unknown);
    events[4] = malformed.clone();
    assert_eq!(client.logprob_many(digest, &events), Err(query_error));
    let mut events = with_at(1, &malformed);
    events[4] = unknown.clone();
    assert_eq!(client.logprob_many(digest, &events), Err(malformed_error));

    // The connection survives, and the good events answer exactly.
    let events: Vec<WireEvent> = (0..6).map(good).collect();
    let served = client.prob_many(digest, &events).expect("good batch");
    let direct_events: Vec<_> = events.iter().map(|we| we.to_event().unwrap()).collect();
    for (s, r) in served.iter().zip(direct.prob_many(&direct_events).unwrap()) {
        assert_eq!(s.to_bits(), r.to_bits());
    }
    server.shutdown();
}

/// Sends one request on a fresh connection and decodes the reply. A
/// connection closed without a reply, or one that stays silent, fails
/// the test instead of blocking it.
fn one_shot(addr: SocketAddr, request: &Request) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut line = request.encode(Some(1));
    line.push('\n');
    stream.write_all(line.as_bytes()).expect("send");
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .expect("reply arrives");
    assert!(!reply.is_empty(), "connection closed without a reply");
    Response::decode(&reply).expect("reply decodes").1
}

#[test]
fn compiles_that_used_to_panic_leave_every_worker_serving() {
    // Each of these once panicked inside `compile` and took its worker
    // thread down with it; one compile more than there are workers would
    // then find none left.
    let workers = 2;
    let server = start(ServeConfig {
        workers,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    for source in [
        "X ~ binomial(1e20, 0.5)",
        "X ~ choice({'a': -1, 'b': 2})",
        "X ~ normal(0, 1)\nswitch X cases (b in binspace(1e16, 1e16 + 4, n=8)) { Y ~ atomic(b.mean()) }",
    ] {
        for _ in 0..=workers {
            let request = Request::Compile {
                source: source.into(),
            };
            match one_shot(addr, &request) {
                Response::Compiled { .. } => {}
                Response::Error(e) => assert_eq!(e.kind, "compile", "{source}: {e:?}"),
                other => panic!("{source}: unexpected reply {other:?}"),
            }
        }
    }
    assert!(matches!(
        one_shot(addr, &Request::Stats),
        Response::Stats(_)
    ));
    server.shutdown();
}
