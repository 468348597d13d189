//! Minimal JSON (RFC 8259) values, strict parsing, and rendering.
//!
//! The build environment vendors no `serde_json`, so the facade carries
//! its own small JSON layer, shared by the [`crate::batch`] summary and
//! the [`crate::serve`] wire protocol. It is deliberately strict where
//! the serve protocol needs it to be:
//!
//! * [`JsonValue::parse`] consumes the **entire** input — trailing
//!   garbage is an error (one request per line, nothing hidden after
//!   it);
//! * duplicate object keys are rejected (a request saying
//!   `"budget": 1, "budget": 2` is ambiguous, not last-wins);
//! * only the escape sequences of RFC 8259 are accepted;
//! * nesting is capped at [`MAX_DEPTH`] containers — the parser
//!   recurses per container, and untrusted input must not be able to
//!   pick the stack depth (a stack overflow is a process abort, not an
//!   unwinding panic, so no downstream guard could contain it).
//!
//! Rendering is deterministic: object fields keep insertion order, and
//! numbers use Rust's shortest round-trip `Display` so a parsed value
//! re-renders to an equivalent document. Non-finite numbers render as
//! `null` (JSON has no `NaN`/`Infinity`).
//!
//! ```
//! use kor::json::JsonValue;
//!
//! let v = JsonValue::parse(r#"{"route":[0,2,7],"objective":6.0}"#).unwrap();
//! assert_eq!(v.get("objective").and_then(JsonValue::as_f64), Some(6.0));
//! assert_eq!(v.render(), r#"{"route":[0,2,7],"objective":6}"#);
//! ```

use std::fmt;

/// Maximum container (array/object) nesting [`JsonValue::parse`]
/// accepts. Far beyond any legitimate wire request, and small enough
/// that the recursive-descent parser stays well inside even a 2 MiB
/// worker-thread stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; fields keep insertion order for deterministic output.
    Obj(Vec<(String, JsonValue)>),
}

/// Error from [`JsonValue::parse`]: a message plus the character offset
/// where parsing failed.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonParseError {
    /// What went wrong.
    pub message: String,
    /// Character offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at char {}", self.message, self.at)
    }
}

impl std::error::Error for JsonParseError {}

impl JsonValue {
    /// Parses a complete JSON document; trailing non-whitespace is an
    /// error.
    pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
        let chars: Vec<char> = text.chars().collect();
        let mut p = Parser {
            chars,
            at: 0,
            depth: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.chars.len() {
            return Err(p.err("trailing garbage"));
        }
        Ok(value)
    }

    /// Renders the value as compact JSON (no added whitespace).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(128);
        self.render_into(&mut out);
        out
    }

    /// Appends the compact rendering to `out`.
    pub fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Num(n) => {
                if n.is_finite() {
                    out.push_str(&n.to_string());
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => escape_into(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<I>(fields: I) -> JsonValue
    where
        I: IntoIterator<Item = (&'static str, JsonValue)>,
    {
        JsonValue::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a field of an object; `None` for non-objects and missing
    /// keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if this is a
    /// number with an exact `u64` value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
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

impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Num(n)
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::Num(n as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Num(n as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<Vec<JsonValue>> for JsonValue {
    fn from(items: Vec<JsonValue>) -> Self {
        JsonValue::Arr(items)
    }
}

/// A field of a request-shaped object that is missing, mistyped or not
/// allowed. Its message is the serve protocol's `bad_request` text: the
/// handler and the mutation codec both read fields through the readers
/// below, so the wire and a mutation script reject a field in the same
/// words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError(pub String);

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FieldError {}

/// Rejects keys outside `allowed`: a typo fails loudly instead of being
/// silently ignored. Non-objects pass; their readers fail instead.
pub(crate) fn check_keys(obj: &JsonValue, allowed: &[&str]) -> Result<(), FieldError> {
    if let JsonValue::Obj(fields) = obj {
        if let Some((key, _)) = fields.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            return Err(FieldError(format!("unknown parameter {key:?}")));
        }
    }
    Ok(())
}

pub(crate) fn opt_str<'a>(obj: &'a JsonValue, key: &str) -> Result<Option<&'a str>, FieldError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| FieldError(format!("\"{key}\" must be a string"))),
    }
}

pub(crate) fn req_str<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a str, FieldError> {
    opt_str(obj, key)?.ok_or_else(|| missing(key))
}

pub(crate) fn opt_f64(obj: &JsonValue, key: &str) -> Result<Option<f64>, FieldError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| FieldError(format!("\"{key}\" must be a number"))),
    }
}

pub(crate) fn req_f64(obj: &JsonValue, key: &str) -> Result<f64, FieldError> {
    opt_f64(obj, key)?.ok_or_else(|| missing(key))
}

pub(crate) fn opt_u64(obj: &JsonValue, key: &str) -> Result<Option<u64>, FieldError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| FieldError(format!("\"{key}\" must be a non-negative integer"))),
    }
}

/// A required node id: a non-negative integer within `u32`.
pub(crate) fn req_u32(obj: &JsonValue, key: &str) -> Result<u32, FieldError> {
    let v = opt_u64(obj, key)?.ok_or_else(|| missing(key))?;
    u32::try_from(v).map_err(|_| FieldError(format!("\"{key}\" exceeds the node id range")))
}

fn missing(key: &str) -> FieldError {
    FieldError(format!("missing \"{key}\""))
}

/// Appends `s` quoted and escaped per RFC 8259.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser {
    chars: Vec<char>,
    at: usize,
    /// Current container nesting; bounded by [`MAX_DEPTH`] because each
    /// level is a `value -> array/object -> value` recursion frame.
    depth: usize,
}

impl Parser {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            message: message.to_string(),
            at: self.at,
        }
    }

    fn enter(&mut self) -> Result<(), JsonParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        Ok(())
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.get(self.at), Some(' ' | '\t' | '\n' | '\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), JsonParseError> {
        self.skip_ws();
        if self.chars.get(self.at) == Some(&c) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {c:?}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        self.skip_ws();
        match self.chars.get(self.at) {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => Ok(JsonValue::Str(self.string()?)),
            Some('t') => self.literal("true", JsonValue::Bool(true)),
            Some('f') => self.literal("false", JsonValue::Bool(false)),
            Some('n') => self.literal("null", JsonValue::Null),
            Some(c) if *c == '-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonParseError> {
        for c in lit.chars() {
            if self.chars.get(self.at) != Some(&c) {
                return Err(self.err("bad literal"));
            }
            self.at += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.at;
        while self
            .chars
            .get(self.at)
            .is_some_and(|c| matches!(c, '-' | '+' | '.' | 'e' | 'E' | '0'..='9'))
        {
            self.at += 1;
        }
        let s: String = self.chars[start..self.at].iter().collect();
        s.parse::<f64>().map(JsonValue::Num).map_err(|_| {
            self.at = start;
            self.err("bad number")
        })
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.get(self.at) {
                None => return Err(self.err("unterminated string")),
                Some('"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some('\\') => {
                    self.at += 1;
                    match self.chars.get(self.at) {
                        Some('"') => out.push('"'),
                        Some('\\') => out.push('\\'),
                        Some('/') => out.push('/'),
                        Some('n') => out.push('\n'),
                        Some('r') => out.push('\r'),
                        Some('t') => out.push('\t'),
                        Some('b') => out.push('\u{8}'),
                        Some('f') => out.push('\u{c}'),
                        Some('u') => {
                            let code = self.hex_escape()?;
                            self.at += 4;
                            let c = match code {
                                // High surrogate: must pair with a low
                                // surrogate in a following \u escape.
                                0xD800..=0xDBFF => {
                                    if self.chars.get(self.at + 1..self.at + 3)
                                        != Some(['\\', 'u'].as_slice())
                                    {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    self.at += 2;
                                    let low = self.hex_escape()?;
                                    self.at += 4;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined).expect("valid supplementary char")
                                }
                                0xDC00..=0xDFFF => return Err(self.err("unpaired surrogate")),
                                other => char::from_u32(other).expect("valid BMP char"),
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.at += 1;
                }
                Some(&c) => {
                    out.push(c);
                    self.at += 1;
                }
            }
        }
    }

    /// The four hex digits of a `\u` escape; `self.at` must sit on the
    /// `u` (the caller advances past the digits).
    fn hex_escape(&mut self) -> Result<u32, JsonParseError> {
        let hex: String = self
            .chars
            .get(self.at + 1..self.at + 5)
            .ok_or_else(|| self.err("truncated \\u escape"))?
            .iter()
            .collect();
        u32::from_str_radix(&hex, 16).map_err(|_| self.err("bad \\u escape"))
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.enter()?;
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.chars.get(self.at) == Some(&']') {
            self.at += 1;
            self.depth -= 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.chars.get(self.at) {
                Some(',') => self.at += 1,
                Some(']') => {
                    self.at += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected , or ]")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.enter()?;
        self.expect('{')?;
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.chars.get(self.at) == Some(&'}') {
            self.at += 1;
            self.depth -= 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate key {key:?}")));
            }
            self.expect(':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.chars.get(self.at) {
                Some(',') => self.at += 1,
                Some('}') => {
                    self.at += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected , or }")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_value_kinds() {
        let v =
            JsonValue::parse(r#"{"a":"x\"y","b":[1,2.5,null],"c":{"d":true},"e":false}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_str(), Some("x\"y"));
        let b = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(b[0].as_f64(), Some(1.0));
        assert_eq!(b[1].as_f64(), Some(2.5));
        assert!(b[2].is_null());
        assert_eq!(
            v.get("c").unwrap().get("d").and_then(JsonValue::as_bool),
            Some(true)
        );
        assert_eq!(v.get("e").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} x",
            "\"unterminated",
            "truex",
            "{\"a\":1,\"a\":2}",
            "nul",
            "[1 2]",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn parse_error_reports_offset() {
        let e = JsonValue::parse("[1,@]").unwrap_err();
        assert_eq!(e.at, 3);
        assert!(e.to_string().contains("char 3"));
    }

    #[test]
    fn render_round_trips() {
        let src = r#"{"algo":"bucket-bound","n":16,"latency":{"p50":12.5},"sets":[1,2],"none":null,"ok":true}"#;
        let v = JsonValue::parse(src).unwrap();
        assert_eq!(v.render(), src);
        assert_eq!(JsonValue::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn escaping_matches_rfc8259() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
        let v = JsonValue::Str("tab\there".to_string());
        assert_eq!(v.render(), "\"tab\\there\"");
        assert_eq!(JsonValue::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(JsonValue::Num(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn numbers_render_shortest_round_trip() {
        for n in [0.0, 6.0, 10.0, 2.5, 0.1, 1234567.875, -3.25] {
            let rendered = JsonValue::Num(n).render();
            assert_eq!(rendered.parse::<f64>().unwrap(), n, "{rendered}");
        }
        assert_eq!(JsonValue::Num(6.0).render(), "6");
    }

    #[test]
    fn integer_accessor_is_strict() {
        assert_eq!(JsonValue::Num(7.0).as_u64(), Some(7));
        assert_eq!(JsonValue::Num(7.5).as_u64(), None);
        assert_eq!(JsonValue::Num(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Str("7".into()).as_u64(), None);
    }

    #[test]
    fn obj_builder_and_from_impls() {
        let v = JsonValue::obj([
            ("name", JsonValue::from("kor")),
            ("n", JsonValue::from(3_u64)),
            ("ok", JsonValue::from(true)),
            ("items", JsonValue::from(vec![JsonValue::Null])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"name":"kor","n":3,"ok":true,"items":[null]}"#
        );
    }

    #[test]
    fn unicode_escapes_decode() {
        // Literal non-ASCII and the equivalent BMP \u escape.
        let v = JsonValue::parse("\"caf\u{e9}\"").unwrap();
        assert_eq!(v.as_str(), Some("caf\u{e9}"));
        let v = JsonValue::parse("\"caf\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("caf\u{e9}"));
    }

    #[test]
    fn surrogate_pairs_combine() {
        // U+1F600 as the standard UTF-16 escape pair -- what e.g.
        // Python's json.dumps emits by default for non-BMP characters.
        let v = JsonValue::parse("\"\\uD83D\\uDE00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        // Mixed with ordinary text, and inside object keys.
        let v = JsonValue::parse("{\"a\\ud83d\\ude00b\":1}").unwrap();
        assert_eq!(v.get("a\u{1F600}b").and_then(JsonValue::as_u64), Some(1));
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        // A ~100k-deep array fits comfortably under the 1 MiB request
        // cap but would blow a 2 MiB worker stack if the parser
        // recursed per bracket — a process abort, not a catchable
        // panic, so the parser must refuse before recursing.
        for doc in ["[".repeat(100_000), "[{\"k\":".repeat(50_000)] {
            let e = JsonValue::parse(&doc).unwrap_err();
            assert!(e.message.contains("nesting too deep"), "{e}");
        }
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        let doc = format!("{}null{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&doc).is_ok());
        let over = format!(
            "{}null{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(JsonValue::parse(&over).is_err());
        // Depth counts open containers, not total containers: a long
        // flat array of shallow objects is fine.
        let flat = format!("[{}{{}}]", "{},".repeat(10_000));
        assert!(JsonValue::parse(&flat).is_ok());
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        for bad in [
            r#""\uD83D""#,
            r#""\uD83Dxx""#,
            r#""\uD83D\n""#,
            r#""\uD83DA""#,
            r#""\uDE00""#,
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad} should not parse");
        }
    }
}
