//! `sppl-serve`: the SPPL query server daemon.
//!
//! Binds a TCP listener, prints `listening on <addr>` once ready (so
//! scripts can wait for the port), and serves the line-delimited JSON
//! protocol until killed or `--serve-seconds` elapses. `--test` runs a
//! built-in self-check (register → query → condition → stats over a real
//! loopback connection) and exits.
//!
//! Flags:
//!
//! | flag | default | meaning |
//! |---|---|---|
//! | `--addr HOST:PORT` | `127.0.0.1:0` | bind address (`:0` = ephemeral) |
//! | `--workers N` | max(CPU threads, 8) | connection-handler threads |
//! | `--cache-capacity N` | 65536 | shared-cache entry bound |
//! | `--batch-window-us N` | 500 | window length for single queries (µs); a batched request is evaluated whole |
//! | `--max-batch N` | 64 | max single queries per window; a batched request is evaluated whole |
//! | `--cache-snapshot PATH` | off | warm start + rotate snapshots at PATH |
//! | `--snapshot-interval-ms N` | 5000 | background save interval |
//! | `--snapshot-keep K` | 3 | snapshot generations kept by GC |
//! | `--compile-cache DIR` | off | persist compiled SPEs at DIR; warm-register at boot |
//! | `--compile-cache-keep N` | 256 | newest compile-cache payloads kept by GC (0 = all) |
//! | `--expect-warm-compile-cache` | — | with `--test`: assert the self-check ran zero translations |
//! | `--serve-seconds N` | forever | exit (with final snapshot) after N s |
//! | `--test` | — | loopback self-check, then exit |

use std::time::Duration;

use sppl_serve::client::Client;
use sppl_serve::protocol::WireEvent;
use sppl_serve::server::{ServeConfig, Server, SnapshotPolicy};

struct Args {
    config: ServeConfig,
    serve_seconds: Option<u64>,
    test: bool,
    expect_warm: bool,
}

fn parse_args() -> Args {
    let mut config = ServeConfig::default();
    let mut serve_seconds = None;
    let mut test = false;
    let mut expect_warm = false;
    let mut snapshot_base: Option<std::path::PathBuf> = None;
    let mut snapshot_interval = Duration::from_millis(5000);
    let mut snapshot_keep = 3usize;

    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next()
            .unwrap_or_else(|| panic!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = value(&mut args, "--addr"),
            "--workers" => {
                config.workers = value(&mut args, "--workers")
                    .parse()
                    .expect("--workers takes a thread count")
            }
            "--cache-capacity" => {
                config.cache_capacity = value(&mut args, "--cache-capacity")
                    .parse()
                    .expect("--cache-capacity takes an entry count")
            }
            "--batch-window-us" => {
                config.batch_window = Duration::from_micros(
                    value(&mut args, "--batch-window-us")
                        .parse()
                        .expect("--batch-window-us takes microseconds"),
                )
            }
            "--max-batch" => {
                config.max_batch = value(&mut args, "--max-batch")
                    .parse()
                    .expect("--max-batch takes a query count")
            }
            "--cache-snapshot" => snapshot_base = Some(value(&mut args, "--cache-snapshot").into()),
            "--snapshot-interval-ms" => {
                snapshot_interval = Duration::from_millis(
                    value(&mut args, "--snapshot-interval-ms")
                        .parse()
                        .expect("--snapshot-interval-ms takes milliseconds"),
                )
            }
            "--snapshot-keep" => {
                snapshot_keep = value(&mut args, "--snapshot-keep")
                    .parse()
                    .expect("--snapshot-keep takes a generation count")
            }
            "--serve-seconds" => {
                serve_seconds = Some(
                    value(&mut args, "--serve-seconds")
                        .parse()
                        .expect("--serve-seconds takes seconds"),
                )
            }
            "--compile-cache" => {
                config.compile_cache = Some(value(&mut args, "--compile-cache").into())
            }
            "--compile-cache-keep" => {
                config.compile_cache_keep = value(&mut args, "--compile-cache-keep")
                    .parse()
                    .expect("--compile-cache-keep takes a payload count")
            }
            "--expect-warm-compile-cache" => expect_warm = true,
            "--test" => test = true,
            other => panic!("unknown flag {other} (see the module docs for the flag table)"),
        }
    }
    config.snapshot = snapshot_base.map(|base| SnapshotPolicy {
        base,
        interval: snapshot_interval,
        keep: snapshot_keep,
    });
    Args {
        config,
        serve_seconds,
        test,
        expect_warm,
    }
}

/// Registers a model over a real loopback connection and exercises one
/// of every query shape; panics on any mismatch. With `expect_warm`,
/// additionally asserts the compile cache served everything — the model
/// was boot-registered from disk and zero translations ran (the CI
/// cross-process warm-start check).
fn self_check(server: &Server, expect_warm: bool) {
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let (digest, vars, fresh) = client
        .register("X ~ normal(0, 1)\nY ~ bernoulli(p=0.25)")
        .expect("register");
    if expect_warm {
        assert!(!fresh, "a warm compile cache boot-registers the model");
    } else {
        assert!(fresh, "first registration is fresh");
    }
    assert_eq!(vars, vec!["X".to_string(), "Y".to_string()]);
    assert_eq!(client.lookup(digest).expect("lookup"), Some(vars));

    let p = client.prob(digest, &WireEvent::le("X", 0.0)).expect("prob");
    assert!((p - 0.5).abs() < 1e-12, "P(X<=0) = 1/2, got {p}");
    let batch = client
        .logprob_many(
            digest,
            &[WireEvent::le("X", 1.0), WireEvent::eq_real("Y", 1.0)],
        )
        .expect("batch");
    assert_eq!(batch.len(), 2);
    assert!((batch[1].exp() - 0.25).abs() < 1e-12);

    let (posterior, _) = client
        .condition(digest, &WireEvent::gt("X", 0.0))
        .expect("condition");
    let p = client
        .prob(posterior, &WireEvent::le("X", 0.0))
        .expect("posterior query");
    assert_eq!(p, 0.0, "conditioned mass is gone");

    let stats = client.stats().expect("stats");
    assert!(stats.requests >= 6);
    assert_eq!(stats.models, 2);
    if expect_warm {
        assert_eq!(
            stats.translations, 0,
            "a warm compile cache serves every compile without translating"
        );
        assert!(
            stats.compile_cache_hits + stats.compile_cache_disk_hits >= 1,
            "the warm register must hit a cache tier"
        );
    }
    println!(
        "self-check ok: {} requests, {} models, {} cache entries, {} translations",
        stats.requests, stats.models, stats.cache_entries, stats.translations
    );
}

fn main() {
    let args = parse_args();
    let server = Server::start(args.config).expect("bind listener");
    println!("listening on {}", server.local_addr());

    if args.test {
        self_check(&server, args.expect_warm);
        server.shutdown();
        return;
    }
    match args.serve_seconds {
        Some(seconds) => {
            std::thread::sleep(Duration::from_secs(seconds));
            server.shutdown();
        }
        None => {
            // Serve until killed; park the main thread forever.
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
    }
}
