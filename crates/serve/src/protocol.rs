//! The wire protocol: line-delimited JSON requests and responses.
//!
//! Every message is one JSON object on one `\n`-terminated line. A
//! request names its operation in `"op"` and may carry an `"id"`, an
//! integer from 0 to 2⁵³ − 1, echoed as a JSON integer in the response
//! so pipelined clients can correlate. Any other `"id"` (negative,
//! fractional, larger, or not a number) is refused with `bad_request`,
//! and that reply carries no id.
//! Responses always carry `"ok"`; failures carry a structured
//! `"error": {"kind", "message"}` instead of result fields.
//!
//! # Operations
//!
//! | op | request fields | response fields |
//! |---|---|---|
//! | `compile` | `source` | `digest`, `vars` (compile check only — not retained) |
//! | `register` | `source` | `digest`, `vars`, `fresh` (retained; idempotent) |
//! | `lookup` | `model` | `found`, `vars` when found |
//! | `logprob` / `prob` | `model`, `event` *or* `events` | `value`+`bits` *or* `values`+`bits` |
//! | `condition` | `model`, `event` | `posterior`, `fresh` |
//! | `condition_chain` | `model`, `events` | `posterior`, `fresh` |
//! | `constrain` | `model`, `assignment` | `posterior`, `fresh` |
//! | `export` | `model` | `digest`, `spe` (hex wire payload) |
//! | `import` | `spe` | `digest`, `vars`, `fresh` (registered; idempotent) |
//! | `stats` | — | counters (see [`Response::Stats`]) |
//!
//! `export`/`import` ship *compiled* models: `export` returns the
//! [SPE wire format](sppl_core::wire) payload of a registered model as
//! hex, and `import` registers such a payload without any source text —
//! register-once now works across nodes without resending (or even
//! having) the program. The payload is checksummed and digest-verified
//! end to end, so an import either reproduces the exact digest it was
//! exported under or fails closed.
//!
//! Model identity is the 32-hex-digit [`ModelDigest`] — the same
//! content digest that keys the
//! [`SharedCache`](sppl_core::SharedCache) — so clients register a model
//! **once** and query by digest forever after; posteriors returned by
//! `condition`/`constrain` are registered under *their* digests and are
//! queried (and further conditioned) exactly like root models.
//!
//! # Exact values on a text wire
//!
//! Probabilities are `f64`s whose **bits** matter (the server's contract
//! is bit-identity with in-process [`Model`](sppl_core::Model) calls),
//! and JSON has no ±∞. Every value therefore travels twice: a
//! human-readable decimal in `value` (shortest-round-trip, `null` when
//! non-finite) and the authoritative bits in `bits` as 16 hex digits.
//! Decoders use `bits`.
//!
//! # Events on the wire
//!
//! [`WireEvent`] mirrors the fluent event DSL on *base variables*:
//! comparisons, interval and string-set containment, and `and`/`or`/
//! `not` combinators. (Events over transformed variables — `X² < 4` —
//! are not yet expressible on the wire; open a session in-process for
//! those.) Example: `{"and": [{"var": "GPA", "cmp": "le", "value": 4.0},
//! {"not": {"var": "Nationality", "eq": "India"}}]}`.

use std::collections::BTreeMap;

use sppl_core::density::Assignment;
use sppl_core::digest::{Fingerprint, ModelDigest};
use sppl_core::event::var;
use sppl_core::{Event, Var};
use sppl_sets::{Interval, Outcome};

use crate::json::Json;

/// A structured protocol failure, carried in error responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable kind: one of `bad_request`, `compile`,
    /// `unknown_model`, `query`, `registry_full`, `import`, `internal`
    /// (all server-sent), or `io` (client-side transport failure).
    pub kind: String,
    /// Human-readable description.
    pub message: String,
}

impl WireError {
    /// Builds an error of the given kind.
    pub fn new(kind: &str, message: impl Into<String>) -> WireError {
        WireError {
            kind: kind.to_string(),
            message: message.into(),
        }
    }

    /// A `bad_request` error (malformed JSON, missing/ill-typed fields).
    pub fn bad_request(message: impl Into<String>) -> WireError {
        WireError::new("bad_request", message)
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.kind, self.message)
    }
}

impl std::error::Error for WireError {}

/// An event as expressed on the wire: the DSL surface over base
/// variables plus combinators. Convert to a queryable [`Event`] with
/// [`WireEvent::to_event`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireEvent {
    /// `{"var": v, "cmp": "lt|le|gt|ge", "value": x}`.
    Cmp {
        /// Variable name.
        var: String,
        /// One of `lt`, `le`, `gt`, `ge`.
        cmp: Cmp,
        /// Comparison threshold.
        value: f64,
    },
    /// `{"var": v, "eq": x}` — `x` a number or string.
    EqReal(String, f64),
    /// `{"var": v, "eq": "s"}`.
    EqStr(String, String),
    /// `{"var": v, "ne": x}` — negated equality.
    NeReal(String, f64),
    /// `{"var": v, "ne": "s"}`.
    NeStr(String, String),
    /// `{"var": v, "in": {"lo": a|null, "hi": b|null, "lo_closed": …, "hi_closed": …}}`
    /// (`null` endpoints mean ∓∞).
    InInterval {
        /// Variable name.
        var: String,
        /// Lower endpoint (−∞ when the wire said `null`).
        lo: f64,
        /// Whether the lower endpoint is included.
        lo_closed: bool,
        /// Upper endpoint (+∞ when the wire said `null`).
        hi: f64,
        /// Whether the upper endpoint is included.
        hi_closed: bool,
    },
    /// `{"var": v, "one_of": ["a", "b", …]}`.
    OneOf(String, Vec<String>),
    /// `{"and": […]}`; empty is the trivially true event.
    And(Vec<WireEvent>),
    /// `{"or": […]}`; empty is the trivially false event.
    Or(Vec<WireEvent>),
    /// `{"not": …}`.
    Not(Box<WireEvent>),
}

/// Comparison operators for [`WireEvent::Cmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Cmp {
    fn name(self) -> &'static str {
        match self {
            Cmp::Lt => "lt",
            Cmp::Le => "le",
            Cmp::Gt => "gt",
            Cmp::Ge => "ge",
        }
    }

    fn parse(s: &str) -> Option<Cmp> {
        Some(match s {
            "lt" => Cmp::Lt,
            "le" => Cmp::Le,
            "gt" => Cmp::Gt,
            "ge" => Cmp::Ge,
            _ => return None,
        })
    }
}

impl WireEvent {
    /// Converts the wire form into the core [`Event`] the evaluator (and
    /// the cache keys) understand. The conversion is the *same* DSL call
    /// a direct in-process caller would make, so a served answer is
    /// bit-identical to the corresponding [`Model`](sppl_core::Model)
    /// call on the same `WireEvent`.
    ///
    /// # Errors
    ///
    /// [`WireError`] (`bad_request`) on a NaN endpoint or an empty
    /// interval.
    ///
    /// ```
    /// use sppl_core::event::var;
    /// use sppl_serve::protocol::WireEvent;
    ///
    /// let we = WireEvent::And(vec![
    ///     WireEvent::le("GPA", 4.0),
    ///     WireEvent::eq_str("Nationality", "India"),
    /// ]);
    /// assert_eq!(
    ///     we.to_event().unwrap(),
    ///     var("GPA").le(4.0) & var("Nationality").eq("India"),
    /// );
    /// ```
    pub fn to_event(&self) -> Result<Event, WireError> {
        Ok(match self {
            WireEvent::Cmp { var: v, cmp, value } => {
                if value.is_nan() {
                    return Err(WireError::bad_request("comparison against NaN"));
                }
                match cmp {
                    Cmp::Lt => var(v).lt(*value),
                    Cmp::Le => var(v).le(*value),
                    Cmp::Gt => var(v).gt(*value),
                    Cmp::Ge => var(v).ge(*value),
                }
            }
            WireEvent::EqReal(v, x) => {
                if x.is_nan() {
                    return Err(WireError::bad_request("equality against NaN"));
                }
                var(v).eq(*x)
            }
            WireEvent::EqStr(v, s) => var(v).eq(s.as_str()),
            WireEvent::NeReal(v, x) => {
                if x.is_nan() {
                    return Err(WireError::bad_request("inequality against NaN"));
                }
                var(v).ne(*x)
            }
            WireEvent::NeStr(v, s) => var(v).ne(s.as_str()),
            WireEvent::InInterval {
                var: v,
                lo,
                lo_closed,
                hi,
                hi_closed,
            } => {
                if lo.is_nan() || hi.is_nan() {
                    return Err(WireError::bad_request("interval endpoint is NaN"));
                }
                let iv = Interval::new(*lo, *lo_closed, *hi, *hi_closed)
                    .ok_or_else(|| WireError::bad_request("empty interval (lo above hi)"))?;
                var(v).in_interval(iv)
            }
            WireEvent::OneOf(v, items) => var(v).one_of(items.iter().map(String::as_str)),
            WireEvent::And(es) => Event::and(
                es.iter()
                    .map(WireEvent::to_event)
                    .collect::<Result<_, _>>()?,
            ),
            WireEvent::Or(es) => Event::or(
                es.iter()
                    .map(WireEvent::to_event)
                    .collect::<Result<_, _>>()?,
            ),
            WireEvent::Not(inner) => !inner.to_event()?,
        })
    }

    /// `{"var": v, "cmp": "le", …}` builder (and its three siblings).
    pub fn le(v: &str, x: f64) -> WireEvent {
        WireEvent::Cmp {
            var: v.to_string(),
            cmp: Cmp::Le,
            value: x,
        }
    }

    /// `<` builder.
    pub fn lt(v: &str, x: f64) -> WireEvent {
        WireEvent::Cmp {
            var: v.to_string(),
            cmp: Cmp::Lt,
            value: x,
        }
    }

    /// `>` builder.
    pub fn gt(v: &str, x: f64) -> WireEvent {
        WireEvent::Cmp {
            var: v.to_string(),
            cmp: Cmp::Gt,
            value: x,
        }
    }

    /// `>=` builder.
    pub fn ge(v: &str, x: f64) -> WireEvent {
        WireEvent::Cmp {
            var: v.to_string(),
            cmp: Cmp::Ge,
            value: x,
        }
    }

    /// Real-equality builder.
    pub fn eq_real(v: &str, x: f64) -> WireEvent {
        WireEvent::EqReal(v.to_string(), x)
    }

    /// String-equality builder.
    pub fn eq_str(v: &str, s: &str) -> WireEvent {
        WireEvent::EqStr(v.to_string(), s.to_string())
    }

    /// Renders the wire JSON form.
    pub fn to_json(&self) -> Json {
        let obj = |pairs: Vec<(&str, Json)>| {
            Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        match self {
            WireEvent::Cmp { var: v, cmp, value } => obj(vec![
                ("var", Json::Str(v.clone())),
                ("cmp", Json::Str(cmp.name().to_string())),
                ("value", Json::Num(*value)),
            ]),
            WireEvent::EqReal(v, x) => {
                obj(vec![("var", Json::Str(v.clone())), ("eq", Json::Num(*x))])
            }
            WireEvent::EqStr(v, s) => obj(vec![
                ("var", Json::Str(v.clone())),
                ("eq", Json::Str(s.clone())),
            ]),
            WireEvent::NeReal(v, x) => {
                obj(vec![("var", Json::Str(v.clone())), ("ne", Json::Num(*x))])
            }
            WireEvent::NeStr(v, s) => obj(vec![
                ("var", Json::Str(v.clone())),
                ("ne", Json::Str(s.clone())),
            ]),
            WireEvent::InInterval {
                var: v,
                lo,
                lo_closed,
                hi,
                hi_closed,
            } => {
                let endpoint = |x: f64| {
                    if x.is_finite() {
                        Json::Num(x)
                    } else {
                        Json::Null
                    }
                };
                obj(vec![
                    ("var", Json::Str(v.clone())),
                    (
                        "in",
                        obj(vec![
                            ("lo", endpoint(*lo)),
                            ("lo_closed", Json::Bool(*lo_closed)),
                            ("hi", endpoint(*hi)),
                            ("hi_closed", Json::Bool(*hi_closed)),
                        ]),
                    ),
                ])
            }
            WireEvent::OneOf(v, items) => obj(vec![
                ("var", Json::Str(v.clone())),
                (
                    "one_of",
                    Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect()),
                ),
            ]),
            WireEvent::And(es) => obj(vec![(
                "and",
                Json::Arr(es.iter().map(WireEvent::to_json).collect()),
            )]),
            WireEvent::Or(es) => obj(vec![(
                "or",
                Json::Arr(es.iter().map(WireEvent::to_json).collect()),
            )]),
            WireEvent::Not(inner) => obj(vec![("not", inner.to_json())]),
        }
    }

    /// Parses the wire JSON form.
    ///
    /// # Errors
    ///
    /// [`WireError`] (`bad_request`) on unrecognized shapes.
    pub fn from_json(json: &Json) -> Result<WireEvent, WireError> {
        let bad = |m: &str| WireError::bad_request(format!("event: {m}"));
        if let Some(es) = json.get("and") {
            let arr = es.as_arr().ok_or_else(|| bad("`and` takes an array"))?;
            return Ok(WireEvent::And(
                arr.iter()
                    .map(WireEvent::from_json)
                    .collect::<Result<_, _>>()?,
            ));
        }
        if let Some(es) = json.get("or") {
            let arr = es.as_arr().ok_or_else(|| bad("`or` takes an array"))?;
            return Ok(WireEvent::Or(
                arr.iter()
                    .map(WireEvent::from_json)
                    .collect::<Result<_, _>>()?,
            ));
        }
        if let Some(inner) = json.get("not") {
            return Ok(WireEvent::Not(Box::new(WireEvent::from_json(inner)?)));
        }
        let v = json
            .get("var")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing `var` (or `and`/`or`/`not`)"))?
            .to_string();
        if let Some(cmp) = json.get("cmp") {
            let cmp = cmp
                .as_str()
                .and_then(Cmp::parse)
                .ok_or_else(|| bad("`cmp` must be one of lt/le/gt/ge"))?;
            let value = json
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("`cmp` needs a numeric `value`"))?;
            return Ok(WireEvent::Cmp { var: v, cmp, value });
        }
        if let Some(x) = json.get("eq") {
            return match x {
                Json::Num(r) => Ok(WireEvent::EqReal(v, *r)),
                Json::Str(s) => Ok(WireEvent::EqStr(v, s.clone())),
                _ => Err(bad("`eq` takes a number or string")),
            };
        }
        if let Some(x) = json.get("ne") {
            return match x {
                Json::Num(r) => Ok(WireEvent::NeReal(v, *r)),
                Json::Str(s) => Ok(WireEvent::NeStr(v, s.clone())),
                _ => Err(bad("`ne` takes a number or string")),
            };
        }
        if let Some(iv) = json.get("in") {
            let endpoint = |key: &str, inf: f64| -> Result<f64, WireError> {
                match iv.get(key) {
                    None | Some(Json::Null) => Ok(inf),
                    Some(Json::Num(x)) => Ok(*x),
                    Some(_) => Err(bad("interval endpoints are numbers or null")),
                }
            };
            let closed = |key: &str| iv.get(key).and_then(Json::as_bool).unwrap_or(false);
            return Ok(WireEvent::InInterval {
                var: v,
                lo: endpoint("lo", f64::NEG_INFINITY)?,
                lo_closed: closed("lo_closed"),
                hi: endpoint("hi", f64::INFINITY)?,
                hi_closed: closed("hi_closed"),
            });
        }
        if let Some(items) = json.get("one_of") {
            let arr = items
                .as_arr()
                .ok_or_else(|| bad("`one_of` takes an array of strings"))?;
            let items = arr
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| bad("`one_of` takes an array of strings"))?;
            return Ok(WireEvent::OneOf(v, items));
        }
        Err(bad("literal needs `cmp`/`eq`/`ne`/`in`/`one_of`"))
    }
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compile-check `source` and report its digest; nothing retained.
    Compile {
        /// SPPL program text.
        source: String,
    },
    /// Compile `source` (if its digest is new) and retain the session —
    /// the register-once half of the query-by-digest protocol.
    Register {
        /// SPPL program text.
        source: String,
    },
    /// Is this digest registered?
    Lookup {
        /// Model digest.
        model: ModelDigest,
    },
    /// `logprob`/`prob` of one event or a batch against a registered
    /// model.
    Query {
        /// Model digest.
        model: ModelDigest,
        /// The event(s) to evaluate.
        events: Vec<WireEvent>,
        /// `true` for the single-event wire shape (`event`), `false` for
        /// the batch shape (`events`). Controls the response shape.
        single: bool,
        /// `true` for `prob` (values in `[0,1]`), `false` for `logprob`.
        prob: bool,
    },
    /// Condition a registered model; the posterior is registered and its
    /// digest returned.
    Condition {
        /// Model digest.
        model: ModelDigest,
        /// Conditioning event.
        event: WireEvent,
    },
    /// Chained conditioning (`S | e₁ | e₂ | …`).
    ConditionChain {
        /// Model digest.
        model: ModelDigest,
        /// Chain of conditioning events, applied in order.
        events: Vec<WireEvent>,
    },
    /// Measure-zero equality observations on base variables.
    Constrain {
        /// Model digest.
        model: ModelDigest,
        /// Variable → observed outcome.
        assignment: BTreeMap<String, WireOutcome>,
    },
    /// Export a registered model's compiled SPE as a wire payload.
    Export {
        /// Model digest.
        model: ModelDigest,
    },
    /// Register a compiled SPE shipped as a wire payload (no source).
    Import {
        /// The [SPE wire format](sppl_core::wire) payload bytes.
        spe: Vec<u8>,
    },
    /// Server counters.
    Stats,
}

/// An observed outcome on the wire (`constrain` assignments).
#[derive(Debug, Clone, PartialEq)]
pub enum WireOutcome {
    /// A real observation.
    Real(f64),
    /// A nominal observation.
    Str(String),
}

impl WireOutcome {
    fn to_json(&self) -> Json {
        match self {
            WireOutcome::Real(x) => Json::Num(*x),
            WireOutcome::Str(s) => Json::Str(s.clone()),
        }
    }
}

/// Converts a wire assignment into the core [`Assignment`].
pub fn to_assignment(wire: &BTreeMap<String, WireOutcome>) -> Assignment {
    wire.iter()
        .map(|(name, outcome)| {
            let outcome = match outcome {
                WireOutcome::Real(x) => Outcome::Real(*x),
                WireOutcome::Str(s) => Outcome::Str(s.clone()),
            };
            (Var::new(name), outcome)
        })
        .collect()
}

/// Parses a 32-hex-digit digest as printed by
/// [`ModelDigest`]'s `Display`.
///
/// # Errors
///
/// [`WireError`] (`bad_request`) unless the input is exactly 32 hex
/// digits.
///
/// ```
/// use sppl_core::digest::ModelDigest;
/// use sppl_serve::protocol::parse_digest;
///
/// let d = ModelDigest::from_u128(0xabc);
/// assert_eq!(parse_digest(&d.to_string()).unwrap(), d);
/// assert!(parse_digest("xyz").is_err());
/// ```
pub fn parse_digest(hex: &str) -> Result<ModelDigest, WireError> {
    if hex.len() != 32 {
        return Err(WireError::bad_request(format!(
            "digest must be 32 hex digits, got {} characters",
            hex.len()
        )));
    }
    hex_bytes(hex)
        .and_then(|bytes| bytes.try_into().ok())
        .map(|bytes| ModelDigest::from_u128(u128::from_be_bytes(bytes)))
        .ok_or_else(|| WireError::bad_request("digest must be 32 hex digits"))
}

/// Decodes hex two digits per byte, accepting ASCII hex digits only:
/// no sign, no whitespace, and no other character (a multi-byte one
/// included). `None` on odd length or any other character. Every hex
/// field of the protocol goes through here.
fn hex_bytes(hex: &str) -> Option<Vec<u8>> {
    let digit = |b: u8| char::from(b).to_digit(16);
    let pairs = hex.as_bytes().chunks(2);
    pairs
        .map(|pair| match *pair {
            [hi, lo] => Some((digit(hi)? * 16 + digit(lo)?) as u8),
            _ => None,
        })
        .collect()
}

/// Renders a binary wire payload (an SPE export) as lowercase hex — the
/// only binary-in-JSON encoding the protocol uses.
pub fn payload_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Parses a hex-encoded binary payload.
///
/// # Errors
///
/// [`WireError`] (`bad_request`) on odd length or non-hex characters.
pub fn parse_payload(hex: &str) -> Result<Vec<u8>, WireError> {
    if hex.len() % 2 != 0 {
        return Err(WireError::bad_request(
            "binary payload hex must have even length",
        ));
    }
    hex_bytes(hex).ok_or_else(|| WireError::bad_request("binary payload must be hex"))
}

/// The largest correlation id: 2⁵³ − 1, the last integer an `f64` (and
/// so every JSON number reader) holds exactly.
const MAX_ID: u64 = (1 << 53) - 1;

/// Reads a message's optional `"id"`: `None` when absent, and otherwise
/// an integer from 0 to [`MAX_ID`], so the id echoed is the id sent.
fn read_id(json: &Json) -> Result<Option<u64>, WireError> {
    let Some(id) = json.get("id") else {
        return Ok(None);
    };
    match id.as_f64() {
        Some(x) if x.fract() == 0.0 && (0.0..=MAX_ID as f64).contains(&x) => Ok(Some(x as u64)),
        _ => Err(WireError::bad_request(format!(
            "`id` must be an integer from 0 to {MAX_ID}"
        ))),
    }
}

/// Renders a message as one line, led by its id as a JSON integer
/// (`"id":7`, where a `Json::Num` would render `7.0`). `pairs` always
/// holds `op` or `ok`, so the id is spliced in after the opening brace.
fn render_line(id: Option<u64>, pairs: Vec<(String, Json)>) -> String {
    let body = Json::Obj(pairs).render();
    match id {
        Some(id) => format!("{{\"id\":{id},{}", &body[1..]),
        None => body,
    }
}

impl Request {
    /// The operation name as it appears in `"op"`.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Compile { .. } => "compile",
            Request::Register { .. } => "register",
            Request::Lookup { .. } => "lookup",
            Request::Query { prob: false, .. } => "logprob",
            Request::Query { prob: true, .. } => "prob",
            Request::Condition { .. } => "condition",
            Request::ConditionChain { .. } => "condition_chain",
            Request::Constrain { .. } => "constrain",
            Request::Export { .. } => "export",
            Request::Import { .. } => "import",
            Request::Stats => "stats",
        }
    }

    /// Renders the request (with an optional correlation id) as a wire
    /// line, newline excluded.
    pub fn encode(&self, id: Option<u64>) -> String {
        let mut pairs = vec![("op".to_string(), Json::Str(self.op().to_string()))];
        match self {
            Request::Compile { source } | Request::Register { source } => {
                pairs.push(("source".to_string(), Json::Str(source.clone())));
            }
            Request::Lookup { model } => {
                pairs.push(("model".to_string(), Json::Str(model.to_string())));
            }
            Request::Query {
                model,
                events,
                single,
                ..
            } => {
                pairs.push(("model".to_string(), Json::Str(model.to_string())));
                if *single {
                    pairs.push(("event".to_string(), events[0].to_json()));
                } else {
                    pairs.push((
                        "events".to_string(),
                        Json::Arr(events.iter().map(WireEvent::to_json).collect()),
                    ));
                }
            }
            Request::Condition { model, event } => {
                pairs.push(("model".to_string(), Json::Str(model.to_string())));
                pairs.push(("event".to_string(), event.to_json()));
            }
            Request::ConditionChain { model, events } => {
                pairs.push(("model".to_string(), Json::Str(model.to_string())));
                pairs.push((
                    "events".to_string(),
                    Json::Arr(events.iter().map(WireEvent::to_json).collect()),
                ));
            }
            Request::Constrain { model, assignment } => {
                pairs.push(("model".to_string(), Json::Str(model.to_string())));
                pairs.push((
                    "assignment".to_string(),
                    Json::Obj(
                        assignment
                            .iter()
                            .map(|(k, v)| (k.clone(), v.to_json()))
                            .collect(),
                    ),
                ));
            }
            Request::Export { model } => {
                pairs.push(("model".to_string(), Json::Str(model.to_string())));
            }
            Request::Import { spe } => {
                pairs.push(("spe".to_string(), Json::Str(payload_hex(spe))));
            }
            Request::Stats => {}
        }
        render_line(id, pairs)
    }

    /// Parses one wire line into `(id, Request)`.
    ///
    /// # Errors
    ///
    /// [`WireError`] (`bad_request`) on malformed JSON, an unknown `op`,
    /// or missing/ill-typed fields. When the line carried a valid `id`,
    /// it is returned alongside the error so the response can still be
    /// correlated; an invalid `id` is itself the error, returned with
    /// `None`.
    pub fn decode(line: &str) -> Result<(Option<u64>, Request), (Option<u64>, WireError)> {
        let json = Json::parse(line)
            .map_err(|e| (None, WireError::bad_request(format!("malformed JSON: {e}"))))?;
        let id = read_id(&json).map_err(|e| (None, e))?;
        let fail = |e: WireError| (id, e);
        let op = json
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| fail(WireError::bad_request("missing `op`")))?;
        let source = || -> Result<String, (Option<u64>, WireError)> {
            json.get("source")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| fail(WireError::bad_request("missing string `source`")))
        };
        let model = || -> Result<ModelDigest, (Option<u64>, WireError)> {
            let hex = json
                .get("model")
                .and_then(Json::as_str)
                .ok_or_else(|| fail(WireError::bad_request("missing string `model`")))?;
            parse_digest(hex).map_err(fail)
        };
        let event_list =
            |single_ok: bool| -> Result<(Vec<WireEvent>, bool), (Option<u64>, WireError)> {
                if single_ok {
                    if let Some(e) = json.get("event") {
                        return Ok((vec![WireEvent::from_json(e).map_err(fail)?], true));
                    }
                }
                let arr = json.get("events").and_then(Json::as_arr).ok_or_else(|| {
                    fail(WireError::bad_request(if single_ok {
                        "missing `event` (or `events` array)"
                    } else {
                        "missing `events` array"
                    }))
                })?;
                let events = arr
                    .iter()
                    .map(WireEvent::from_json)
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(fail)?;
                Ok((events, false))
            };
        let request = match op {
            "compile" => Request::Compile { source: source()? },
            "register" => Request::Register { source: source()? },
            "lookup" => Request::Lookup { model: model()? },
            "logprob" | "prob" => {
                let (events, single) = event_list(true)?;
                if events.is_empty() && single {
                    unreachable!("single implies one event");
                }
                Request::Query {
                    model: model()?,
                    events,
                    single,
                    prob: op == "prob",
                }
            }
            "condition" => {
                let e = json
                    .get("event")
                    .ok_or_else(|| fail(WireError::bad_request("missing `event`")))?;
                Request::Condition {
                    model: model()?,
                    event: WireEvent::from_json(e).map_err(fail)?,
                }
            }
            "condition_chain" => {
                let (events, _) = event_list(false)?;
                Request::ConditionChain {
                    model: model()?,
                    events,
                }
            }
            "constrain" => {
                let obj = json
                    .get("assignment")
                    .and_then(Json::as_obj)
                    .ok_or_else(|| fail(WireError::bad_request("missing object `assignment`")))?;
                let mut assignment = BTreeMap::new();
                for (k, v) in obj {
                    let outcome = match v {
                        Json::Num(x) => WireOutcome::Real(*x),
                        Json::Str(s) => WireOutcome::Str(s.clone()),
                        _ => {
                            return Err(fail(WireError::bad_request(
                                "assignment values are numbers or strings",
                            )))
                        }
                    };
                    assignment.insert(k.clone(), outcome);
                }
                Request::Constrain {
                    model: model()?,
                    assignment,
                }
            }
            "export" => Request::Export { model: model()? },
            "import" => {
                let hex = json
                    .get("spe")
                    .and_then(Json::as_str)
                    .ok_or_else(|| fail(WireError::bad_request("missing string `spe`")))?;
                Request::Import {
                    spe: parse_payload(hex).map_err(fail)?,
                }
            }
            "stats" => Request::Stats,
            other => {
                return Err(fail(WireError::bad_request(format!(
                    "unknown op `{other}`"
                ))))
            }
        };
        Ok((id, request))
    }
}

/// Aggregated server counters, as returned by the `stats` op.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Requests decoded (including ones that later failed).
    pub requests: u64,
    /// Error responses sent.
    pub errors: u64,
    /// Queries answered from another request's concurrently in-flight
    /// evaluation of the same `(model digest, event fingerprint)` key (a
    /// repeat within one batched request is not counted).
    pub coalesced: u64,
    /// Batches evaluated: one per batching window of single queries,
    /// plus one per batched request that had misses of its own.
    pub batches: u64,
    /// Queries evaluated in those batches: a window's queries, or a
    /// batched request's distinct misses (its shared-cache hits and
    /// coalesced events are not evaluated, so not counted).
    pub batched_queries: u64,
    /// Largest batch any one window or batched request evaluated.
    pub max_batch: u64,
    /// Batch-size histogram: count of batches (windows and batched
    /// requests) whose size fell in each bucket (`1`, `2`, `3-4`, `5-8`,
    /// `9-16`, `17-32`, `33+`).
    pub batch_hist: [u64; 7],
    /// Registered models (roots and posteriors).
    pub models: u64,
    /// Compiles answered from the in-memory compile-cache tier.
    pub compile_cache_hits: u64,
    /// Compiles answered from the on-disk compile-cache tier.
    pub compile_cache_disk_hits: u64,
    /// Compiles that found no compile-cache tier warm.
    pub compile_cache_misses: u64,
    /// Full source → SPE translations performed (zero on a warm cache).
    pub translations: u64,
    /// Same-model groups of two or more queries, from a window or a
    /// batched request, answered by one batched `logprob_many` call.
    pub arena_batches: u64,
    /// Shared-cache hits.
    pub cache_hits: u64,
    /// Shared-cache misses (each is one underlying evaluation).
    pub cache_misses: u64,
    /// Shared-cache entries.
    pub cache_entries: u64,
    /// Shared-cache evictions.
    pub cache_evictions: u64,
    /// Background snapshot saves completed.
    pub snapshot_saves: u64,
}

/// Bucket labels matching [`StatsSnapshot::batch_hist`].
pub const BATCH_HIST_BUCKETS: [&str; 7] = ["1", "2", "3-4", "5-8", "9-16", "17-32", "33+"];

/// The bucket index a batch of `size` falls into.
pub fn batch_hist_bucket(size: usize) -> usize {
    match size {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        17..=32 => 5,
        _ => 6,
    }
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `compile`/`register` result.
    Compiled {
        /// Content digest of the compiled model.
        digest: ModelDigest,
        /// The model's variable scope, sorted.
        vars: Vec<String>,
        /// `register` only: whether this digest was newly retained
        /// (`None` for plain `compile`, which retains nothing).
        fresh: Option<bool>,
    },
    /// `lookup` result.
    Found {
        /// Whether the digest is registered.
        found: bool,
        /// The registered model's variable scope (when found).
        vars: Vec<String>,
    },
    /// `logprob`/`prob` result: the values in request order. `single`
    /// mirrors the request shape.
    Values {
        /// Result values, exact to the bit.
        values: Vec<f64>,
        /// Single-event response shape (`value`/`bits` scalars).
        single: bool,
    },
    /// `export` result: the model's compiled SPE as a wire payload.
    Exported {
        /// Content digest of the exported model.
        digest: ModelDigest,
        /// The [SPE wire format](sppl_core::wire) payload bytes.
        spe: Vec<u8>,
    },
    /// `condition`/`condition_chain`/`constrain` result.
    Posterior {
        /// Digest of the (registered) posterior model.
        digest: ModelDigest,
        /// Whether the posterior digest was newly registered.
        fresh: bool,
    },
    /// `stats` result.
    Stats(StatsSnapshot),
    /// Any failure.
    Error(WireError),
}

/// Renders an `f64` as 16 hex digits of its bits (the authoritative wire
/// representation of a probability).
fn bits_hex(x: f64) -> Json {
    Json::Str(format!("{:016x}", x.to_bits()))
}

fn parse_bits(json: &Json) -> Result<f64, WireError> {
    let hex = json
        .as_str()
        .ok_or_else(|| WireError::bad_request("`bits` must be a hex string"))?;
    if hex.len() != 16 {
        return Err(WireError::bad_request("`bits` must be 16 hex digits"));
    }
    hex_bytes(hex)
        .and_then(|bytes| bytes.try_into().ok())
        .map(|bytes| f64::from_bits(u64::from_be_bytes(bytes)))
        .ok_or_else(|| WireError::bad_request("`bits` must be 16 hex digits"))
}

impl Response {
    /// Renders the response (echoing the request id) as a wire line,
    /// newline excluded.
    pub fn encode(&self, id: Option<u64>) -> String {
        let mut pairs = vec![(
            "ok".to_string(),
            Json::Bool(!matches!(self, Response::Error(_))),
        )];
        match self {
            Response::Compiled {
                digest,
                vars,
                fresh,
            } => {
                pairs.push(("digest".to_string(), Json::Str(digest.to_string())));
                pairs.push((
                    "vars".to_string(),
                    Json::Arr(vars.iter().map(|v| Json::Str(v.clone())).collect()),
                ));
                if let Some(fresh) = fresh {
                    pairs.push(("fresh".to_string(), Json::Bool(*fresh)));
                }
            }
            Response::Found { found, vars } => {
                pairs.push(("found".to_string(), Json::Bool(*found)));
                if *found {
                    pairs.push((
                        "vars".to_string(),
                        Json::Arr(vars.iter().map(|v| Json::Str(v.clone())).collect()),
                    ));
                }
            }
            Response::Values { values, single } => {
                if *single {
                    pairs.push(("value".to_string(), Json::Num(values[0])));
                    pairs.push(("bits".to_string(), bits_hex(values[0])));
                } else {
                    pairs.push((
                        "values".to_string(),
                        Json::Arr(values.iter().map(|x| Json::Num(*x)).collect()),
                    ));
                    pairs.push((
                        "bits".to_string(),
                        Json::Arr(values.iter().map(|x| bits_hex(*x)).collect()),
                    ));
                }
            }
            Response::Exported { digest, spe } => {
                pairs.push(("spe".to_string(), Json::Str(payload_hex(spe))));
                pairs.push(("digest".to_string(), Json::Str(digest.to_string())));
            }
            Response::Posterior { digest, fresh } => {
                pairs.push(("posterior".to_string(), Json::Str(digest.to_string())));
                pairs.push(("fresh".to_string(), Json::Bool(*fresh)));
            }
            Response::Stats(s) => {
                let num = |x: u64| Json::Num(x as f64);
                pairs.push(("requests".to_string(), num(s.requests)));
                pairs.push(("errors".to_string(), num(s.errors)));
                pairs.push(("coalesced".to_string(), num(s.coalesced)));
                pairs.push(("batches".to_string(), num(s.batches)));
                pairs.push(("batched_queries".to_string(), num(s.batched_queries)));
                pairs.push(("max_batch".to_string(), num(s.max_batch)));
                pairs.push((
                    "batch_hist".to_string(),
                    Json::Obj(
                        BATCH_HIST_BUCKETS
                            .iter()
                            .zip(s.batch_hist.iter())
                            .map(|(label, count)| (label.to_string(), num(*count)))
                            .collect(),
                    ),
                ));
                pairs.push(("models".to_string(), num(s.models)));
                pairs.push(("compile_cache_hits".to_string(), num(s.compile_cache_hits)));
                pairs.push((
                    "compile_cache_disk_hits".to_string(),
                    num(s.compile_cache_disk_hits),
                ));
                pairs.push((
                    "compile_cache_misses".to_string(),
                    num(s.compile_cache_misses),
                ));
                pairs.push(("translations".to_string(), num(s.translations)));
                pairs.push(("arena_batches".to_string(), num(s.arena_batches)));
                pairs.push(("cache_hits".to_string(), num(s.cache_hits)));
                pairs.push(("cache_misses".to_string(), num(s.cache_misses)));
                pairs.push(("cache_entries".to_string(), num(s.cache_entries)));
                pairs.push(("cache_evictions".to_string(), num(s.cache_evictions)));
                pairs.push(("snapshot_saves".to_string(), num(s.snapshot_saves)));
            }
            Response::Error(e) => {
                pairs.push((
                    "error".to_string(),
                    Json::Obj(vec![
                        ("kind".to_string(), Json::Str(e.kind.clone())),
                        ("message".to_string(), Json::Str(e.message.clone())),
                    ]),
                ));
            }
        }
        render_line(id, pairs)
    }

    /// Parses one wire line into `(id, Response)`. The response shape is
    /// inferred from the fields present.
    ///
    /// # Errors
    ///
    /// [`WireError`] (`bad_request`) when the line is not a recognizable
    /// response.
    pub fn decode(line: &str) -> Result<(Option<u64>, Response), WireError> {
        let json = Json::parse(line)
            .map_err(|e| WireError::bad_request(format!("malformed JSON: {e}")))?;
        let id = read_id(&json)?;
        let ok = json
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| WireError::bad_request("missing `ok`"))?;
        if !ok {
            let err = json
                .get("error")
                .ok_or_else(|| WireError::bad_request("failure without `error`"))?;
            let kind = err
                .get("kind")
                .and_then(Json::as_str)
                .unwrap_or("internal")
                .to_string();
            let message = err
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            return Ok((id, Response::Error(WireError { kind, message })));
        }
        let vars = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(Json::as_arr)
                .map(|arr| {
                    arr.iter()
                        .filter_map(|v| v.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default()
        };
        // `spe` is checked before `digest`: an export response carries
        // both, and the payload field is what distinguishes it.
        let response = if let Some(spe) = json.get("spe").and_then(Json::as_str) {
            let digest = json
                .get("digest")
                .and_then(Json::as_str)
                .ok_or_else(|| WireError::bad_request("export without `digest`"))?;
            Response::Exported {
                digest: parse_digest(digest)?,
                spe: parse_payload(spe)?,
            }
        } else if let Some(digest) = json.get("digest").and_then(Json::as_str) {
            Response::Compiled {
                digest: parse_digest(digest)?,
                vars: vars("vars"),
                fresh: json.get("fresh").and_then(Json::as_bool),
            }
        } else if let Some(found) = json.get("found").and_then(Json::as_bool) {
            Response::Found {
                found,
                vars: vars("vars"),
            }
        } else if let Some(bits) = json.get("bits") {
            match bits {
                Json::Arr(items) => Response::Values {
                    values: items
                        .iter()
                        .map(parse_bits)
                        .collect::<Result<Vec<_>, _>>()?,
                    single: false,
                },
                _ => Response::Values {
                    values: vec![parse_bits(bits)?],
                    single: true,
                },
            }
        } else if let Some(posterior) = json.get("posterior").and_then(Json::as_str) {
            Response::Posterior {
                digest: parse_digest(posterior)?,
                fresh: json
                    .get("fresh")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| WireError::bad_request("posterior without `fresh`"))?,
            }
        } else if json.get("requests").is_some() {
            let num =
                |key: &str| -> u64 { json.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64 };
            let mut batch_hist = [0u64; 7];
            if let Some(hist) = json.get("batch_hist") {
                for (i, label) in BATCH_HIST_BUCKETS.iter().enumerate() {
                    batch_hist[i] = hist.get(label).and_then(Json::as_f64).unwrap_or(0.0) as u64;
                }
            }
            Response::Stats(StatsSnapshot {
                requests: num("requests"),
                errors: num("errors"),
                coalesced: num("coalesced"),
                batches: num("batches"),
                batched_queries: num("batched_queries"),
                max_batch: num("max_batch"),
                batch_hist,
                models: num("models"),
                compile_cache_hits: num("compile_cache_hits"),
                compile_cache_disk_hits: num("compile_cache_disk_hits"),
                compile_cache_misses: num("compile_cache_misses"),
                translations: num("translations"),
                arena_batches: num("arena_batches"),
                cache_hits: num("cache_hits"),
                cache_misses: num("cache_misses"),
                cache_entries: num("cache_entries"),
                cache_evictions: num("cache_evictions"),
                snapshot_saves: num("snapshot_saves"),
            })
        } else {
            return Err(WireError::bad_request("unrecognized response shape"));
        };
        Ok((id, response))
    }
}

/// The coalescing key: the same `(model digest, canonical event
/// fingerprint)` pair that keys the [`SharedCache`](sppl_core::SharedCache)
/// — two queries coalesce exactly when the cache would give them one
/// entry.
pub type QueryKey = (ModelDigest, Fingerprint);

/// The canonical [`QueryKey`] of `event` against `model`.
pub fn query_key(model: ModelDigest, event: &Event) -> QueryKey {
    (model, event.canonical().fingerprint())
}
