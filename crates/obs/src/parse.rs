//! A minimal hand-rolled JSON parser, the read side of [`crate::json`].
//!
//! The offline build has no serde, so every document the workspace needs
//! to read back — `telemetry.v1` exports and the `checkpoint.v2` files of
//! chef-core — goes through this parser. Two properties matter more than
//! generality:
//!
//! * **Byte-identical round-trips.** Numbers are kept as their raw
//!   source tokens (never re-formatted through `f64`), and objects
//!   preserve key order, so `parse_json(doc).to_json() == doc` for every
//!   document the [`crate::json::JsonWriter`] emits. That is the
//!   golden-file guarantee the schema tests pin.
//! * **Errors, not panics.** Malformed input and unknown schema versions
//!   surface as [`ParseError`] values with positions/messages, because a
//!   corrupt checkpoint must fall back to the previous generation rather
//!   than abort a resume.
//!
//! ```
//! use chef_obs::parse::{expect_schema, parse_json};
//!
//! let doc = r#"{"schema":"telemetry.v1","rounds":[1,2.5,-3e2]}"#;
//! let v = parse_json(doc).unwrap();
//! assert_eq!(v.to_json(), doc); // byte-identical round-trip
//! assert!(expect_schema(&v, "telemetry.v1").is_ok());
//! assert!(expect_schema(&v, "telemetry.v2").unwrap_err().to_string().contains("telemetry.v1"));
//! ```

use crate::json::JsonWriter;
use std::fmt;

/// A parsed JSON value.
///
/// Numbers keep their raw source token so re-serialization is
/// byte-identical and integer/float precision is never laundered through
/// an intermediate `f64`; use [`JsonValue::as_u64`] / [`JsonValue::as_f64`]
/// to interpret them.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its raw token (e.g. `"-3.25e2"`).
    Number(String),
    /// A string, with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; key order is preserved for round-tripping.
    Object(Vec<(String, JsonValue)>),
}

/// Parse failure (or schema-version rejection) with a human-readable
/// message; byte position is included where it applies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    msg: String,
    pos: Option<usize>,
}

impl ParseError {
    fn at(pos: usize, msg: impl Into<String>) -> Self {
        Self {
            msg: msg.into(),
            pos: Some(pos),
        }
    }

    /// An error with no specific byte position (schema-level problems).
    pub fn schema(msg: impl Into<String>) -> Self {
        Self {
            msg: msg.into(),
            pos: None,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(p) => write!(f, "JSON parse error at byte {p}: {}", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for ParseError {}

impl JsonValue {
    /// Serialize back to compact JSON. For documents produced by
    /// [`JsonWriter`] this is byte-identical to the original text.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write(&mut w);
        w.finish()
    }

    /// Write this value (in value position) into an open [`JsonWriter`].
    pub fn write(&self, w: &mut JsonWriter) {
        match self {
            JsonValue::Null => w.raw("null"),
            JsonValue::Bool(b) => w.bool(*b),
            JsonValue::Number(tok) => w.raw(tok),
            JsonValue::String(s) => w.string(s),
            JsonValue::Array(items) => {
                w.begin_array();
                for item in items {
                    item.write(w);
                }
                w.end_array();
            }
            JsonValue::Object(fields) => {
                w.begin_object();
                for (k, v) in fields {
                    w.key(k);
                    v.write(w);
                }
                w.end_object();
            }
        }
    }

    /// Member lookup on an object (first match; `None` otherwise).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `u64`, if this is an integral number token in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The number as `usize` (via [`Self::as_u64`]).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// The number as `f64`. Rust's float formatter emits the shortest
    /// representation that round-trips, so a token written by
    /// [`JsonWriter::f64`] parses back to the bit-identical value.
    /// `null` maps to `None` (the writer's encoding of non-finite).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Check that `doc` is an object whose `"schema"` field equals
/// `expected`; unknown or missing versions are reported as a clear
/// [`ParseError`] naming both versions — never a panic.
pub fn expect_schema(doc: &JsonValue, expected: &str) -> Result<(), ParseError> {
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(v) if v == expected => Ok(()),
        Some(v) => Err(ParseError::schema(format!(
            "unsupported schema version {v:?} (this build reads {expected:?})"
        ))),
        None => Err(ParseError::schema(format!(
            "document carries no \"schema\" string field (expected {expected:?})"
        ))),
    }
}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse_json(input: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(ParseError::at(p.pos, "trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseError::at(
                self.pos,
                format!("expected {:?}", b as char),
            ))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(ParseError::at(self.pos, format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(ParseError::at(
                self.pos,
                format!("unexpected character {:?}", c as char),
            )),
            None => Err(ParseError::at(self.pos, "unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(ParseError::at(self.pos, "expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(ParseError::at(self.pos, "expected ',' or ']' in array")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: 0 | [1-9][0-9]*
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(ParseError::at(self.pos, "malformed number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(ParseError::at(self.pos, "digits required after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(ParseError::at(self.pos, "digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number tokens are ASCII")
            .to_string();
        Ok(JsonValue::Number(tok))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(ParseError::at(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let ch = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(ParseError::at(self.pos, "lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(ParseError::at(self.pos, "invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(code)
                                    .ok_or_else(|| ParseError::at(self.pos, "invalid code point"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| ParseError::at(self.pos, "invalid code point"))?
                            };
                            out.push(ch);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(ParseError::at(self.pos, "invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(ParseError::at(self.pos, "raw control character in string"))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).expect("input is valid UTF-8");
                    let ch = rest.chars().next().expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// Four hex digits at the cursor, advancing past them.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(ParseError::at(self.pos, "truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| ParseError::at(self.pos, "non-ASCII in \\u escape"))?;
        let v = u32::from_str_radix(s, 16)
            .map_err(|_| ParseError::at(self.pos, "invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(
            parse_json("-12.5e-3").unwrap(),
            JsonValue::Number("-12.5e-3".into())
        );
        assert_eq!(
            parse_json(r#""a\nb""#).unwrap(),
            JsonValue::String("a\nb".into())
        );
    }

    #[test]
    fn writer_documents_round_trip_byte_identically() {
        let docs = [
            r#"{"schema":"telemetry.v1","count":3,"inner":{"ms":1.5,"ok":true},"list":[1,2]}"#,
            r#"[null,null,2]"#,
            r#"{"k":"a\"b\\c\nd","x":-0.00000001,"y":1e300}"#,
            r#"{"empty":{},"none":[],"nested":[[1],[2,[3]]]}"#,
        ];
        for doc in docs {
            let v = parse_json(doc).unwrap();
            assert_eq!(v.to_json(), doc);
        }
    }

    #[test]
    fn f64_display_round_trips_exact_bits() {
        for x in [
            1.0 / 3.0,
            -0.1,
            1e-300,
            6.02214076e23,
            f64::MIN_POSITIVE,
            f64::MAX,
        ] {
            let tok = x.to_string();
            let v = parse_json(&tok).unwrap();
            assert_eq!(v.as_f64().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn object_accessors() {
        let v = parse_json(r#"{"a":1,"b":"x","c":[true],"d":2.5}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(v.get("d").unwrap().as_f64(), Some(2.5));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn malformed_inputs_error_instead_of_panicking() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "nulll",
            "[1] trailing",
            "\"\\q\"",
            "\"\\ud800\"",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn schema_check_rejects_unknown_versions_clearly() {
        let ok = parse_json(r#"{"schema":"telemetry.v1"}"#).unwrap();
        assert!(expect_schema(&ok, "telemetry.v1").is_ok());
        let newer = parse_json(r#"{"schema":"telemetry.v9"}"#).unwrap();
        let err = expect_schema(&newer, "telemetry.v1")
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("telemetry.v9") && err.contains("telemetry.v1"),
            "{err}"
        );
        let none = parse_json(r#"{"rounds":[]}"#).unwrap();
        assert!(expect_schema(&none, "telemetry.v1").is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse_json(r#""\ud83e\udd14""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F914}"));
    }
}
