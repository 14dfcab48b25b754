//! A minimal, std-only JSON value: parser and renderer for the wire
//! protocol's line-delimited messages.
//!
//! The build is offline (no serde), and the protocol only needs flat-ish
//! objects of numbers, strings, booleans, arrays, and nested objects, so
//! a small recursive-descent parser over `&str` is the whole dependency.
//! Two deliberate properties:
//!
//! * **Objects preserve insertion order** (a `Vec` of pairs, not a map):
//!   rendering is deterministic, which keeps protocol round-trip tests
//!   exact. Duplicate keys are rejected at parse time.
//! * **Numbers are `f64` and render with `{:?}`**, Rust's
//!   shortest-round-trip formatting, so a finite value survives
//!   render→parse bit for bit. Non-finite numbers cannot be represented
//!   (plain JSON has no `Infinity`); the protocol carries exact bits in a
//!   separate hex field where they matter (see
//!   [`crate::protocol`]).
//!
//! Parsing is hardened for untrusted network input: nesting depth is
//! capped (a deeply nested `[[[[…]]]]` line cannot blow the stack), the
//! duplicate-key check costs one lookup per key in a randomly keyed hash
//! set (a line of many keys cannot cost quadratic time), and every error
//! carries the byte offset it was detected at.

use std::collections::HashSet;
use std::fmt;

/// Maximum nesting depth accepted by the parser. Deeper input is an
/// error, not a stack overflow — lines come from untrusted sockets.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always an `f64`; the protocol's integers are
    /// small enough to be exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what was wrong and the byte offset where it was
/// detected.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON value from `input` (the whole string must be
    /// consumed apart from trailing whitespace).
    ///
    /// # Errors
    ///
    /// [`JsonError`] on malformed input, duplicate object keys, nesting
    /// deeper than an internal bound, or trailing garbage.
    ///
    /// ```
    /// use sppl_serve::json::Json;
    ///
    /// let v = Json::parse(r#"{"op":"stats","id":7}"#).unwrap();
    /// assert_eq!(v.get("op").and_then(Json::as_str), Some("stats"));
    /// assert_eq!(v.get("id").and_then(Json::as_f64), Some(7.0));
    /// ```
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            at: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Renders the value as compact single-line JSON (no spaces), the
    /// wire form. Finite numbers use shortest-round-trip formatting;
    /// non-finite numbers render as `null`.
    ///
    /// ```
    /// use sppl_serve::json::Json;
    ///
    /// let v = Json::Obj(vec![("ok".into(), Json::Bool(true))]);
    /// assert_eq!(v.render(), r#"{"ok":true}"#);
    /// assert_eq!(Json::parse(&v.render()).unwrap(), v);
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    out.push_str(&format!("{x:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => push_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_escaped(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            at: self.at,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        // Keys come from the network: the default hasher is randomly
        // keyed, so no chosen key set collides into quadratic time.
        let mut seen: HashSet<String> = HashSet::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if !seen.insert(key.clone()) {
                return Err(self.err(&format!("duplicate object key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.at += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                // Multi-byte UTF-8: the input is a &str, so raw bytes are
                // valid UTF-8 — copy the full code point through.
                b if b < 0x20 => return Err(self.err("raw control character in string")),
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Walk back one byte and take the whole code point.
                    self.at -= 1;
                    let rest = std::str::from_utf8(&self.bytes[self.at..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("nonempty by peek");
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hex4 = |p: &mut Parser<'a>| -> Result<u32, JsonError> {
            let end = p.at + 4;
            if end > p.bytes.len() {
                return Err(p.err("truncated \\u escape"));
            }
            // ASCII hex digits only: `from_str_radix` would take a sign.
            let mut digits = p.bytes[p.at..end]
                .iter()
                .map(|&b| char::from(b).to_digit(16));
            let v = digits
                .try_fold(0, |v, d| Some(v * 16 + d?))
                .ok_or_else(|| p.err("invalid \\u escape"))?;
            p.at = end;
            Ok(v)
        };
        let hi = hex4(self)?;
        // Surrogate pair handling: a high surrogate must be followed by
        // an escaped low surrogate.
        if (0xd800..0xdc00).contains(&hi) {
            if self.peek() == Some(b'\\') && self.bytes.get(self.at + 1) == Some(&b'u') {
                self.at += 2;
                let lo = hex4(self)?;
                if (0xdc00..0xe000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                    return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("lone high surrogate"));
        }
        if (0xdc00..0xe000).contains(&hi) {
            return Err(self.err("lone low surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .expect("number bytes are ASCII by construction");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (src, want) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::Num(0.0)),
            ("-12.5e-2", Json::Num(-0.125)),
            (r#""hi \"there\"\n""#, Json::Str("hi \"there\"\n".into())),
        ] {
            let v = Json::parse(src).unwrap();
            assert_eq!(v, want, "{src}");
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{src}");
        }
    }

    #[test]
    fn shortest_round_trip_floats_are_exact() {
        for x in [0.1, -1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -0.0] {
            let rendered = Json::Num(x).render();
            let back = Json::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {rendered}");
        }
    }

    #[test]
    fn nonfinite_renders_null() {
        assert_eq!(Json::Num(f64::NEG_INFINITY).render(), "null");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn objects_preserve_order_and_reject_duplicates() {
        let v = Json::parse(r#"{"b":1,"a":2}"#).unwrap();
        assert_eq!(v.render(), r#"{"b":1.0,"a":2.0}"#);
        assert!(Json::parse(r#"{"a":1,"a":2}"#).is_err());

        // Many keys cost time linear in their count: a pairwise check
        // would take minutes on 200k keys.
        let keys: Vec<String> = (0..200_000).map(|i| format!(r#""k{i}":0"#)).collect();
        let line = format!("{{{}}}", keys.join(","));
        let started = std::time::Instant::now();
        let v = Json::parse(&line).unwrap();
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
        assert_eq!(v.get("k199999"), Some(&Json::Num(0.0)));
        let repeated = format!(r#"{},"k0":1}}"#, &line[..line.len() - 1]);
        let err = Json::parse(&repeated).unwrap_err();
        assert!(err.message.contains("duplicate object key `k0`"), "{err}");
    }

    #[test]
    fn nested_structures() {
        let v = Json::parse(r#"{"xs":[1,[2,{"y":null}],"s"],"t":true}"#).unwrap();
        assert_eq!(
            v.get("xs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(Json::parse(r#""é😀""#).unwrap(), Json::Str("é😀".into()));
        assert!(Json::parse(r#""\ud800""#).is_err(), "lone surrogate");
        assert!(Json::parse(r#""\u+041""#).is_err(), "signed escape");
        // Raw multi-byte UTF-8 passes through unescaped.
        let v = Json::parse("\"héllo\"").unwrap();
        assert_eq!(v, Json::Str("héllo".into()));
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn malformed_inputs_error_with_offsets() {
        for src in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1}x",
            "\u{1}",
        ] {
            let err = Json::parse(src).unwrap_err();
            assert!(!err.message.is_empty(), "{src}: {err}");
        }
    }

    #[test]
    fn depth_bound_is_enforced() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"));
        // …but reasonable nesting is fine.
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(Json::parse(&ok).is_ok());
    }
}
