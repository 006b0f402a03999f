//! Versioned wire representation: a dependency-free JSON document
//! model shared by every machine-readable surface of the workspace.
//!
//! This is the workspace's only JSON parser, escaper and renderer:
//! [`JsonValue`] with a strict recursive parser and a canonical
//! renderer. The service and metrics surfaces use it for *nested*
//! documents (hit arrays, per-worker breakdowns, histogram buckets),
//! the flat JSONL trace schema ([`crate::jsonl`]), the analyzer's
//! `--json` reports and the bench envelopes go through it too. On top
//! of it sit the conventions every wire document follows:
//!
//! * **Versioning** — top-level objects carry
//!   `"schema_version": `[`SCHEMA_VERSION`] as their first key.
//!   [`versioned`] stamps it, [`check_version`] enforces it on the
//!   way back in, so consumers fail loudly on a future format bump
//!   instead of misreading fields.
//! * **Error envelopes** — errors are objects with a stable string
//!   `"code"` plus a human `"message"`; typed detail fields ride
//!   alongside. The CLI and the server emit the
//!   same objects, which is what makes partial-result reporting
//!   uniform across exit paths.
//! * **Lossless histograms** — [`histogram_to_wire`] serializes the
//!   occupied log2 buckets (not just the summary quantiles), and
//!   [`histogram_from_wire`] rebuilds a bit-identical [`Histogram`]
//!   via [`Histogram::from_parts`]. Summary fields (`mean`, `p50`,
//!   …) are still included for humans but are derived on output and
//!   ignored on input.
//!
//! Object key order is preserved (objects are `Vec<(String, value)>`,
//! not maps) so rendered documents are deterministic and
//! schema-stability tests can pin exact byte output.

use std::fmt;

use crate::hist::Histogram;

/// Version stamp carried by every top-level wire object.
///
/// Bump this only with a migration story: consumers reject documents
/// whose version they do not understand.
pub const SCHEMA_VERSION: u64 = 1;

/// Maximum nesting depth the parser accepts. Deep enough for any
/// real document, shallow enough that hostile input cannot blow the
/// stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON document.
///
/// Integers keep their signedness (`UInt` for non-negative, `Int`
/// for negative) so the full `u64` range survives — metrics counters
/// like `cells` can exceed `2^53` and must not round-trip through
/// `f64`. Equality compares numbers by value, not by variant, since
/// the renderer prints `2.0_f64` as `2` and a re-parse yields
/// `UInt(2)`.
#[derive(Debug, Clone)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Negative integer.
    Int(i64),
    /// Non-negative integer.
    UInt(u64),
    /// Any number written with a fraction or exponent, or outside
    /// the 64-bit integer ranges.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object, in insertion order (duplicate keys are a parse error).
    Object(Vec<(String, JsonValue)>),
}

impl PartialEq for JsonValue {
    fn eq(&self, other: &Self) -> bool {
        use JsonValue::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Array(a), Array(b)) => a == b,
            (Object(a), Object(b)) => a == b,
            (a, b) => match (a.integer_value(), b.integer_value()) {
                (Some(x), Some(y)) => x == y,
                // At least one side is a float (or a non-number):
                // compare as f64 when both are numbers.
                _ => match (a.as_f64(), b.as_f64()) {
                    (Some(x), Some(y)) => x == y,
                    _ => false,
                },
            },
        }
    }
}

/// Why a wire document failed to parse or decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl WireError {
    /// Construct from anything displayable.
    pub fn new(msg: impl Into<String>) -> Self {
        WireError(msg.into())
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl JsonValue {
    /// Exact integer value, if this is an integer variant.
    fn integer_value(&self) -> Option<i128> {
        match self {
            JsonValue::Int(i) => Some(*i as i128),
            JsonValue::UInt(u) => Some(*u as i128),
            _ => None,
        }
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Non-negative integer view (accepts `UInt`, non-negative `Int`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(u) => Some(*u),
            JsonValue::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// Signed integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            JsonValue::UInt(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// Numeric view: any integer or float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Float(f) => Some(*f),
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Object view (ordered field list).
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(input: &str) -> Result<JsonValue, WireError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            input,
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(WireError::new(format!(
                "trailing garbage at byte {}",
                p.pos
            )));
        }
        Ok(value)
    }

    /// Render to compact JSON (no whitespace, preserved key order).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(128);
        self.render_into(&mut out);
        out
    }

    /// Append compact JSON to `out`.
    pub fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Int(i) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{i}"));
            }
            JsonValue::UInt(u) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{u}"));
            }
            JsonValue::Float(f) => {
                if f.is_finite() {
                    let _ = fmt::Write::write_fmt(out, format_args!("{f}"));
                } else {
                    // JSON has no NaN/Inf; degrade to null rather
                    // than emit an unparseable token.
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(out, k);
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}
impl From<u64> for JsonValue {
    fn from(u: u64) -> Self {
        JsonValue::UInt(u)
    }
}
impl From<u32> for JsonValue {
    fn from(u: u32) -> Self {
        JsonValue::UInt(u as u64)
    }
}
impl From<usize> for JsonValue {
    fn from(u: usize) -> Self {
        JsonValue::UInt(u as u64)
    }
}
impl From<i64> for JsonValue {
    fn from(i: i64) -> Self {
        if i >= 0 {
            JsonValue::UInt(i as u64)
        } else {
            JsonValue::Int(i)
        }
    }
}
impl From<i32> for JsonValue {
    fn from(i: i32) -> Self {
        JsonValue::from(i as i64)
    }
}
impl From<f64> for JsonValue {
    fn from(f: f64) -> Self {
        JsonValue::Float(f)
    }
}
impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}
impl From<Vec<JsonValue>> for JsonValue {
    fn from(items: Vec<JsonValue>) -> Self {
        JsonValue::Array(items)
    }
}

/// Build an object from `(key, value)` pairs (order preserved).
pub fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Build a top-level object: `schema_version` first, then `fields`.
pub fn versioned(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    let mut all = Vec::with_capacity(fields.len() + 1);
    all.push((
        "schema_version".to_string(),
        JsonValue::UInt(SCHEMA_VERSION),
    ));
    all.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    JsonValue::Object(all)
}

/// Reject documents from a different schema generation.
pub fn check_version(v: &JsonValue) -> Result<(), WireError> {
    match u64_field(v, "schema_version") {
        Ok(SCHEMA_VERSION) => Ok(()),
        Ok(other) => Err(WireError::new(format!(
            "unsupported schema_version {other} (this build speaks {SCHEMA_VERSION})"
        ))),
        Err(_) => Err(WireError::new("missing schema_version")),
    }
}

/// Required-field accessor: the object's `key` as a `&JsonValue`.
pub fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, WireError> {
    v.get(key)
        .ok_or_else(|| WireError::new(format!("missing field {key:?}")))
}

/// Required `u64` field.
pub fn u64_field(v: &JsonValue, key: &str) -> Result<u64, WireError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| WireError::new(format!("field {key:?} is not a non-negative integer")))
}

/// Required `i64` field.
pub fn i64_field(v: &JsonValue, key: &str) -> Result<i64, WireError> {
    field(v, key)?
        .as_i64()
        .ok_or_else(|| WireError::new(format!("field {key:?} is not an integer")))
}

/// Required numeric field.
pub fn f64_field(v: &JsonValue, key: &str) -> Result<f64, WireError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| WireError::new(format!("field {key:?} is not a number")))
}

/// Required boolean field.
pub fn bool_field(v: &JsonValue, key: &str) -> Result<bool, WireError> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| WireError::new(format!("field {key:?} is not a boolean")))
}

/// Required string field.
pub fn str_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, WireError> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| WireError::new(format!("field {key:?} is not a string")))
}

/// Required array field.
pub fn array_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], WireError> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| WireError::new(format!("field {key:?} is not an array")))
}

/// Lossless histogram serialization: summary fields for humans plus
/// the exact occupied `[upper_bound, count]` buckets for round-trip.
pub fn histogram_to_wire(h: &Histogram) -> JsonValue {
    let buckets: Vec<JsonValue> = h
        .occupied()
        .map(|(upper, count)| JsonValue::Array(vec![upper.into(), count.into()]))
        .collect();
    obj(vec![
        ("count", h.count().into()),
        ("sum", h.sum().into()),
        ("max", h.max_value().into()),
        ("mean", h.mean().into()),
        ("p50", h.p50().into()),
        ("p90", h.p90().into()),
        ("p99", h.p99().into()),
        ("p999", h.p999().into()),
        ("buckets", JsonValue::Array(buckets)),
    ])
}

/// Rebuild a [`Histogram`] bit-identically from its wire form.
///
/// Summary fields other than `sum`/`max` are derived on output and
/// ignored here; the buckets carry the authoritative counts.
pub fn histogram_from_wire(v: &JsonValue) -> Result<Histogram, WireError> {
    let sum = u64_field(v, "sum")?;
    let max = u64_field(v, "max")?;
    let mut buckets = Vec::new();
    for (i, pair) in array_field(v, "buckets")?.iter().enumerate() {
        let pair = pair
            .as_array()
            .ok_or_else(|| WireError::new(format!("bucket {i} is not an array")))?;
        if pair.len() != 2 {
            return Err(WireError::new(format!(
                "bucket {i} is not an [upper, count] pair"
            )));
        }
        let upper = pair[0]
            .as_u64()
            .ok_or_else(|| WireError::new(format!("bucket {i} upper bound is not a u64")))?;
        let count = pair[1]
            .as_u64()
            .ok_or_else(|| WireError::new(format!("bucket {i} count is not a u64")))?;
        buckets.push((upper, count));
    }
    Histogram::from_parts(buckets, sum, max)
        .ok_or_else(|| WireError::new("inconsistent histogram buckets"))
}

/// Escape a string for inclusion in a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Strict recursive-descent parser over the raw bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, why: &str) -> WireError {
        WireError::new(format!("{why} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.input[self.pos..].starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, WireError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') if self.eat("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(JsonValue::Null),
            Some(c) if *c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, WireError> {
        self.pos += 1; // '{'
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err("duplicate object key"));
            }
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, WireError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let rest = &self.input[self.pos..];
                    let c = rest.chars().next().ok_or_else(|| self.err("bad utf8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Decode one `\u` escape. Entered with `self.pos` on the `u`,
    /// exits on the last consumed hex digit. Reassembles UTF-16
    /// surrogate pairs (`\ud83d\ude00` → U+1F600), which standard
    /// encoders must emit for non-BMP characters; lone surrogates
    /// are errors.
    fn unicode_escape(&mut self) -> Result<char, WireError> {
        let high = self.hex4()?;
        if (0xDC00..=0xDFFF).contains(&high) {
            return Err(self.err("unpaired low surrogate in \\u escape"));
        }
        if !(0xD800..=0xDBFF).contains(&high) {
            return char::from_u32(high).ok_or_else(|| self.err("bad \\u codepoint"));
        }
        // High surrogate: the next escape must carry the low half.
        if self.bytes.get(self.pos + 1) != Some(&b'\\')
            || self.bytes.get(self.pos + 2) != Some(&b'u')
        {
            return Err(self.err("unpaired high surrogate in \\u escape"));
        }
        self.pos += 2;
        let low = self.hex4()?;
        if !(0xDC00..=0xDFFF).contains(&low) {
            return Err(self.err("bad low surrogate in \\u escape"));
        }
        let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
        char::from_u32(code).ok_or_else(|| self.err("bad \\u codepoint"))
    }

    /// Read the 4 hex digits of a `\u` escape. Entered with
    /// `self.pos` on the `u`, exits on the last digit. Validated on
    /// the byte level first: an escape that is truncated or runs into
    /// a multibyte UTF-8 character is a typed error, never a
    /// non-boundary slice panic.
    fn hex4(&mut self) -> Result<u32, WireError> {
        let hex = match self.bytes.get(self.pos + 1..self.pos + 5) {
            Some(hex) if hex.iter().all(u8::is_ascii_hexdigit) => hex,
            _ => return Err(self.err("bad \\u escape")),
        };
        let code = hex.iter().fold(0u32, |acc, &b| {
            (acc << 4) | (b as char).to_digit(16).expect("ascii hex digit")
        });
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, WireError> {
        let start = self.pos;
        let negative = self.bytes.get(self.pos) == Some(&b'-');
        if negative {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&c) = self.bytes.get(self.pos) {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.input[start..self.pos];
        if text.is_empty() || text == "-" {
            return Err(self.err("expected number"));
        }
        if !is_float {
            if negative {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(JsonValue::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(u));
            }
        }
        // `1e999` parses to infinity, which has no JSON spelling (it
        // would render as `null`): out of range is an error.
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(JsonValue::Float(f)),
            _ => Err(self.err("bad number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a":[1,-2,3.5,true,null],"b":{"c":"x\ny","d":[]},"e":18446744073709551615}"#;
        let v = JsonValue::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 5);
        assert_eq!(str_field(v.get("b").unwrap(), "c").unwrap(), "x\ny");
        assert_eq!(u64_field(&v, "e").unwrap(), u64::MAX);
        // Render → parse is a fixpoint.
        let rendered = v.render();
        assert_eq!(JsonValue::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{\"a\":1} tail",
            "\"unterminated",
            "nul",
            "{\"a\":1,\"a\":2}",
            "--3",
            "1e999",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(JsonValue::parse(&deep).is_err());
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn numbers_keep_full_u64_precision() {
        let big = u64::MAX - 1;
        let v = JsonValue::parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
        // A float that happens to be integral parses back as an
        // integer variant but still compares equal.
        assert_eq!(JsonValue::Float(2.0), JsonValue::UInt(2));
        assert_eq!(
            JsonValue::parse(&JsonValue::Float(2.0).render()).unwrap(),
            JsonValue::Float(2.0)
        );
    }

    #[test]
    fn versioned_objects_round_trip_and_reject_other_versions() {
        let v = versioned(vec![("x", 7u64.into())]);
        let rendered = v.render();
        assert!(rendered.starts_with("{\"schema_version\":1,"));
        let back = JsonValue::parse(&rendered).unwrap();
        check_version(&back).unwrap();
        assert_eq!(u64_field(&back, "x").unwrap(), 7);

        let future = JsonValue::parse("{\"schema_version\":99}").unwrap();
        assert!(check_version(&future).is_err());
        let missing = JsonValue::parse("{}").unwrap();
        assert!(check_version(&missing).is_err());
    }

    #[test]
    fn histogram_round_trips_bit_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 3, 100, 100_000, u64::MAX] {
            h.record(v);
        }
        let wire = histogram_to_wire(&h);
        let back = histogram_from_wire(&JsonValue::parse(&wire.render()).unwrap()).unwrap();
        assert_eq!(back, h);

        let empty = Histogram::new();
        let back = histogram_from_wire(&histogram_to_wire(&empty)).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn histogram_summaries_survive_the_wire_bit_identically() {
        // The quantile summaries (p50/p90/p99/p999) are derived from
        // the buckets on output and ignored on input. Because the
        // buckets round-trip losslessly, re-encoding the decoded
        // histogram must reproduce the exact same document bytes —
        // summaries included.
        let mut h = Histogram::new();
        for v in [1u64, 1, 2, 7, 7, 7, 100, 5_000, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let first = histogram_to_wire(&h).render();
        let back = histogram_from_wire(&JsonValue::parse(&first).unwrap()).unwrap();
        let second = histogram_to_wire(&back).render();
        assert_eq!(first, second);
        for key in ["\"p50\":", "\"p90\":", "\"p99\":", "\"p999\":"] {
            assert!(first.contains(key), "{key} missing in {first}");
        }
        assert_eq!(back.p999(), h.p999());
    }

    #[test]
    fn histogram_from_wire_rejects_bad_buckets() {
        // Upper bound 5 is not a log2 bucket boundary.
        let doc = r#"{"sum":5,"max":5,"buckets":[[5,1]]}"#;
        assert!(histogram_from_wire(&JsonValue::parse(doc).unwrap()).is_err());
        // Non-empty sum with no samples.
        let doc = r#"{"sum":5,"max":0,"buckets":[]}"#;
        assert!(histogram_from_wire(&JsonValue::parse(doc).unwrap()).is_err());
    }

    #[test]
    fn string_escapes_survive() {
        let s = "tab\there \\ quote\" ctrl\u{1} unicode\u{e9}";
        let v = JsonValue::Str(s.to_string());
        assert_eq!(JsonValue::parse(&v.render()).unwrap().as_str(), Some(s));
    }

    #[test]
    fn malformed_unicode_escapes_are_errors_not_panics() {
        // Regression: the 4-byte "hex" window after `\u` straddling a
        // multibyte UTF-8 character used to panic on a non-boundary
        // slice — one such JSON-RPC line crashed the stdio daemon.
        for bad in [
            "\"\\u123\u{e9}\"",   // window cuts into a 2-byte char
            "\"\\u12\"",          // terminated mid-escape
            "\"\\u12",            // input ends mid-escape
            "\"\\uZZZZ\"",        // not hex
            "\"\\ud83d\"",        // unpaired high surrogate
            "\"\\ude00\"",        // unpaired low surrogate
            "\"\\ud83d\\u0041\"", // high surrogate + non-surrogate
            "\"\\ud83dxx\"",      // high surrogate, no second escape
            "\"\\ud83d\\n\"",     // high surrogate, wrong escape kind
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn surrogate_pair_escapes_decode_to_non_bmp_chars() {
        // Standard JSON encoders must escape non-BMP characters as
        // UTF-16 surrogate pairs; ids and tenant labels produced by
        // such encoders have to parse.
        let v = JsonValue::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
        let v = JsonValue::parse("\"a\\uD83D\\uDE00z\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("a\u{1f600}z\u{e9}"));
    }
}
