//! Wire-protocol round trips: every [`Request`] and [`Response`]
//! variant (including every error shape) survives encode → decode
//! unchanged, and probabilities survive *bit for bit* — the decimal
//! `value` field is presentation only; the hex `bits` field is the
//! authoritative representation and is what the decoder reads.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use sppl_core::digest::ModelDigest;
use sppl_serve::protocol::{
    Cmp, Request, Response, StatsSnapshot, WireError, WireEvent, WireOutcome,
};
use sppl_serve::server::{ServeConfig, ServerState};

fn digest(x: u128) -> ModelDigest {
    ModelDigest::from_u128(x)
}

/// One of every [`WireEvent`] shape, nested combinators included.
fn every_event_shape() -> Vec<WireEvent> {
    vec![
        WireEvent::Cmp {
            var: "X".to_string(),
            cmp: Cmp::Lt,
            value: -0.125,
        },
        WireEvent::le("X", 4.0),
        WireEvent::gt("X", 1e-300),
        WireEvent::ge("X", -4.5),
        WireEvent::eq_real("Perfect", 1.0),
        WireEvent::eq_str("Nationality", "India"),
        WireEvent::NeReal("Perfect".to_string(), 0.0),
        WireEvent::NeStr("Nationality".to_string(), "USA".to_string()),
        WireEvent::InInterval {
            var: "GPA".to_string(),
            lo: 8.0,
            lo_closed: false,
            hi: 10.0,
            hi_closed: true,
        },
        // Infinite endpoints render as `null` on the wire and must come
        // back as the same infinities.
        WireEvent::InInterval {
            var: "GPA".to_string(),
            lo: f64::NEG_INFINITY,
            lo_closed: false,
            hi: 0.0,
            hi_closed: false,
        },
        WireEvent::OneOf(
            "Nationality".to_string(),
            vec!["India".to_string(), "USA".to_string()],
        ),
        WireEvent::And(vec![WireEvent::le("X", 1.0), WireEvent::gt("Y", 0.0)]),
        WireEvent::Or(vec![
            WireEvent::eq_str("N", "a"),
            WireEvent::And(vec![]), // trivially-true leaf inside a combinator
        ]),
        WireEvent::Not(Box::new(WireEvent::Or(vec![WireEvent::lt("X", 0.0)]))),
    ]
}

/// One of every [`Request`] variant.
fn every_request() -> Vec<Request> {
    let mut assignment = BTreeMap::new();
    assignment.insert("GPA".to_string(), WireOutcome::Real(3.5));
    assignment.insert("Nationality".to_string(), WireOutcome::Str("India".into()));
    vec![
        Request::Compile {
            source: "X ~ normal(0, 1)\n".to_string(),
        },
        Request::Register {
            // Newlines and quotes must survive the string escaper.
            source: "N ~ choice({'a': 0.5, 'b': 0.5})\n".to_string(),
        },
        Request::Lookup { model: digest(7) },
        Request::Query {
            model: digest(8),
            events: vec![WireEvent::le("X", 0.0)],
            single: true,
            prob: false,
        },
        Request::Query {
            model: digest(8),
            events: every_event_shape(),
            single: false,
            prob: true,
        },
        Request::Condition {
            model: digest(9),
            event: WireEvent::Not(Box::new(WireEvent::eq_str("N", "a"))),
        },
        Request::ConditionChain {
            model: digest(10),
            events: vec![WireEvent::gt("X", 0.0), WireEvent::lt("X", 2.0)],
        },
        Request::Constrain {
            model: digest(11),
            assignment,
        },
        Request::Export { model: digest(12) },
        Request::Import {
            // Arbitrary binary (not a valid payload — transport only
            // cares that every byte survives the hex round trip).
            spe: vec![0x00, 0x01, 0xfe, 0xff, 0x53, 0x50],
        },
        Request::Import { spe: vec![] },
        Request::Stats,
    ]
}

/// One of every [`Response`] variant, exercising both single/batch value
/// shapes, both `fresh` arms, and found/not-found lookups.
fn every_response() -> Vec<Response> {
    vec![
        Response::Compiled {
            digest: digest(0xabc),
            vars: vec!["GPA".to_string(), "Nationality".to_string()],
            fresh: None,
        },
        Response::Compiled {
            digest: digest(u128::MAX), // all-f digest: no truncation
            vars: vec![],
            fresh: Some(true),
        },
        Response::Found {
            found: true,
            vars: vec!["X".to_string()],
        },
        Response::Found {
            found: false,
            vars: vec![],
        },
        Response::Values {
            // Non-round, denormal, and non-finite values: the decimal
            // field degrades (null for -inf) but `bits` carries them all.
            values: vec![0.1f64.ln(), 5e-324, f64::NEG_INFINITY, 0.0],
            single: false,
        },
        Response::Values {
            values: vec![(-1.5f64).exp().ln()],
            single: true,
        },
        Response::Posterior {
            digest: digest(0xfeed),
            fresh: true,
        },
        Response::Exported {
            digest: digest(0xdead),
            spe: vec![0x53, 0x50, 0x50, 0x4c, 0x00, 0xff, 0x7f],
        },
        Response::Exported {
            digest: digest(1),
            spe: vec![],
        },
        Response::Stats(StatsSnapshot {
            requests: 101,
            errors: 2,
            coalesced: 40,
            batches: 12,
            batched_queries: 61,
            max_batch: 9,
            batch_hist: [1, 2, 3, 4, 5, 6, 7],
            models: 3,
            compile_cache_hits: 8,
            compile_cache_disk_hits: 2,
            compile_cache_misses: 3,
            translations: 3,
            arena_batches: 5,
            cache_hits: 55,
            cache_misses: 6,
            cache_entries: 6,
            cache_evictions: 1,
            snapshot_saves: 4,
        }),
    ]
}

/// Every `kind` the server can put in an error response.
const ERROR_KINDS: [&str; 8] = [
    "bad_request",
    "compile",
    "unknown_model",
    "query",
    "import",
    "registry_full",
    "internal",
    "io",
];

#[test]
fn every_request_variant_round_trips() {
    for (i, request) in every_request().into_iter().enumerate() {
        let line = request.encode(Some(i as u64));
        let (id, decoded) = Request::decode(&line)
            .unwrap_or_else(|(_, e)| panic!("request {i} failed to decode: {e}\n{line}"));
        assert_eq!(id, Some(i as u64), "id must echo");
        assert_eq!(decoded, request, "request {i} changed across the wire");
        // Without an id the line must still decode (id is optional).
        let (id, decoded) = Request::decode(&request.encode(None)).expect("id-less line decodes");
        assert_eq!(id, None);
        assert_eq!(decoded, request);
    }
}

#[test]
fn every_response_variant_round_trips_bit_for_bit() {
    for (i, response) in every_response().into_iter().enumerate() {
        let line = response.encode(Some(1000 + i as u64));
        let (id, decoded) = Response::decode(&line)
            .unwrap_or_else(|e| panic!("response {i} failed to decode: {e}\n{line}"));
        assert_eq!(id, Some(1000 + i as u64));
        if let (Response::Values { values: sent, .. }, Response::Values { values: got, .. }) =
            (&response, &decoded)
        {
            for (s, g) in sent.iter().zip(got) {
                assert_eq!(s.to_bits(), g.to_bits(), "value lost bits on the wire");
            }
        }
        assert_eq!(decoded, response, "response {i} changed across the wire");
    }
}

#[test]
fn every_error_kind_round_trips() {
    for kind in ERROR_KINDS {
        let response = Response::Error(WireError::new(kind, format!("details for {kind}")));
        let line = response.encode(Some(5));
        assert!(line.contains("\"ok\":false"), "errors carry ok=false");
        let (id, decoded) = Response::decode(&line).expect("error decodes");
        assert_eq!(id, Some(5));
        assert_eq!(decoded, response);
    }
}

#[test]
fn malformed_requests_decode_to_bad_request_with_id_echo() {
    // (line, expect_id): decode failures still recover the id when the
    // JSON parsed far enough to contain one, so the client can correlate.
    let cases: &[(&str, Option<u64>)] = &[
        ("not json at all", None),
        ("{\"id\":7}", Some(7)),                              // missing op
        ("{\"id\":8,\"op\":\"frobnicate\"}", Some(8)),        // unknown op
        ("{\"op\":\"lookup\",\"model\":\"xyz\"}", None),      // bad digest
        ("{\"op\":\"logprob\",\"model\":\"00000000000000000000000000000001\"}", None), // no event
        ("{\"op\":\"compile\"}", None),                       // no source
        ("{\"id\":9,\"op\":\"condition\",\"model\":\"00000000000000000000000000000001\",\"event\":{\"var\":\"X\"}}", Some(9)), // incomplete event
        ("{\"id\":10,\"op\":\"import\",\"spe\":\"a€\"}", Some(10)), // non-ASCII hex
        ("{\"id\":11,\"op\":\"lookup\",\"model\":\"+0000000000000000000000000000001\"}", Some(11)), // signed digest
        // An id that cannot be echoed exactly is refused, not rounded.
        ("{\"id\":9007199254740993,\"op\":\"stats\"}", None), // past 2^53 - 1
        ("{\"id\":-1,\"op\":\"stats\"}", None),
        ("{\"id\":2.5,\"op\":\"stats\"}", None),
        ("{\"id\":1e300,\"op\":\"stats\"}", None),
        ("{\"id\":\"7\",\"op\":\"stats\"}", None), // a string
    ];
    for (line, expect_id) in cases {
        let (id, err) = Request::decode(line).expect_err("malformed line must not decode");
        assert_eq!(&id, expect_id, "id echo for {line}");
        assert_eq!(err.kind, "bad_request", "kind for {line}: {err}");
        assert!(!err.message.is_empty(), "error must explain itself");
    }
}

#[test]
fn ids_echo_as_json_integers_and_bad_ids_are_refused() {
    assert!(Request::Stats.encode(Some(7)).starts_with("{\"id\":7,"));
    let response = Response::Error(WireError::bad_request("x"));
    assert!(response.encode(Some(7)).contains("\"id\":7,"));

    let state = ServerState::new(&ServeConfig::default());
    let reply = state.handle_line("{\"id\":9007199254740991,\"op\":\"stats\"}");
    assert!(
        reply.starts_with("{\"id\":9007199254740991,\"ok\":true"),
        "{reply}"
    );
    for id in ["9007199254740993", "-1", "2.5", "1e300", "\"7\""] {
        let reply = state.handle_line(&format!("{{\"id\":{id},\"op\":\"stats\"}}"));
        assert!(reply.contains("\"kind\":\"bad_request\""), "{id}: {reply}");
        assert!(reply.contains("`id` must be an integer"), "{id}: {reply}");
        assert!(
            !reply.contains("\"id\""),
            "{id} must not be echoed: {reply}"
        );
    }
}

#[test]
fn no_truncation_or_non_ascii_byte_panics_the_decoder_or_the_server() {
    // Every prefix of every request line, and the line with each byte
    // replaced by a three-byte character, must decode to a request or a
    // structured error, and the server must answer it.
    let state = ServerState::new(&ServeConfig::default());
    for (i, request) in every_request().into_iter().enumerate() {
        let line = request.encode(Some(i as u64));
        assert!(line.is_ascii(), "request lines are ASCII: {line}");
        let truncations = (0..line.len()).map(|at| line[..at].to_string());
        let replacements = (0..line.len()).map(|at| format!("{}€{}", &line[..at], &line[at + 1..]));
        for mutant in truncations.chain(replacements) {
            let decoded = catch_unwind(AssertUnwindSafe(|| Request::decode(&mutant).is_ok()));
            assert!(decoded.is_ok(), "Request::decode panicked on {mutant:?}");
            let reply = catch_unwind(AssertUnwindSafe(|| state.handle_line(&mutant)))
                .unwrap_or_else(|_| panic!("handle_line panicked on {mutant:?}"));
            assert!(reply.contains("\"ok\""), "{mutant:?} -> {reply:?}");
        }
    }
}

#[test]
fn malformed_responses_are_rejected() {
    for line in [
        "not json",
        "{}",                             // missing ok
        "{\"ok\":false}",                 // failure without error body
        "{\"ok\":true}",                  // no recognizable payload
        "{\"ok\":true,\"bits\":\"xyz\"}", // bits not hex
    ] {
        let err = Response::decode(line).expect_err("malformed response must not decode");
        assert_eq!(err.kind, "bad_request", "{line}");
    }
}

#[test]
fn wire_events_convert_to_the_same_dsl_events() {
    use sppl_core::event::var;
    use sppl_sets::Interval;

    // The serving bit-parity guarantee starts here: `to_event` must make
    // exactly the DSL calls a direct caller would.
    let wire = WireEvent::And(vec![
        WireEvent::le("GPA", 4.0),
        WireEvent::Or(vec![
            WireEvent::eq_str("Nationality", "India"),
            WireEvent::InInterval {
                var: "GPA".to_string(),
                lo: 8.0,
                lo_closed: false,
                hi: 10.0,
                hi_closed: false,
            },
        ]),
    ]);
    let direct = var("GPA").le(4.0)
        & (var("Nationality").eq("India") | var("GPA").in_interval(Interval::open(8.0, 10.0)));
    assert_eq!(wire.to_event().unwrap(), direct);

    // Round-tripping the wire JSON does not change the resulting event
    // (hence not the cache fingerprint either).
    let rebuilt = WireEvent::from_json(&wire.to_json()).unwrap();
    assert_eq!(rebuilt.to_event().unwrap(), direct);

    // NaN and empty intervals are rejected before they can poison a key.
    assert!(WireEvent::le("X", f64::NAN).to_event().is_err());
    let empty = WireEvent::InInterval {
        var: "X".to_string(),
        lo: 2.0,
        lo_closed: false,
        hi: 1.0,
        hi_closed: false,
    };
    assert!(empty.to_event().is_err());
}
