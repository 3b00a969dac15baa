//! A small self-contained JSON value: parser and serializer.
//!
//! The workspace is built offline with no serde, and two subsystems need
//! JSON: the experiment reports (`hmtx-bench`, serialization only) and the
//! `hmtx-serve` wire protocol (parse *and* serialize, with canonical bytes
//! for content-addressed job keys). Both share this one implementation so a
//! report value serialized here parses back to the identical value, and a
//! value re-serialized from a parse is byte-identical to its source's
//! canonical form.
//!
//! Design points that matter for the serving layer:
//!
//! * **Ordered objects.** [`Json::Obj`] keeps insertion order, so canonical
//!   serialization is deterministic without a sort pass.
//! * **Exact integers.** Integers parse into [`Json::Uint`]/[`Json::Int`]
//!   (never a lossy `f64`) so cycle counts and seeds round-trip exactly.
//! * **Stable floats.** Floats serialize via `{:?}`, the shortest
//!   representation that round-trips; non-finite values serialize as
//!   `null` (JSON has no `NaN`).
//! * **Hostile input.** [`Json::parse`] enforces a nesting-depth limit and
//!   never recurses past it, so a malicious frame cannot overflow the
//!   parser's stack.

use std::fmt;

/// Maximum nesting depth [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// A JSON value with insertion-ordered objects (deterministic output).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// A non-negative integer (cycle counts and the like, kept exact).
    Uint(u64),
    /// A negative integer (kept exact).
    Int(i64),
    /// A float; non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from `(key, value)` pairs (insertion order kept).
    pub fn obj<K: Into<String>>(pairs: Vec<(K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Uint(n) => Some(n),
            Json::Int(n) => u64::try_from(n).ok(),
            _ => None,
        }
    }

    /// The value as a `bool`, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen), if it is numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Uint(n) => Some(n as f64),
            Json::Int(n) => Some(n as f64),
            Json::Num(x) => Some(x),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation and a trailing newline.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Serializes compactly (no whitespace, no trailing newline). This is
    /// the canonical form content-addressed keys hash.
    #[must_use]
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Parses a JSON document (the full input must be one value).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input, trailing bytes, or nesting
    /// deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(value)
    }

    /// `pretty()` when `indent`, `compact()` otherwise.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Uint(n) => out.push_str(&n.to_string()),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(x) => {
                if x.is_finite() {
                    // `{:?}` always keeps a decimal point or exponent, so
                    // the value round-trips as a float.
                    out.push_str(&format!("{x:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(d) = depth {
                        out.push('\n');
                        out.push_str(&"  ".repeat(d + 1));
                    }
                    item.write(out, depth.map(|d| d + 1));
                }
                if let Some(d) = depth {
                    out.push('\n');
                    out.push_str(&"  ".repeat(d));
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(d) = depth {
                        out.push('\n');
                        out.push_str(&"  ".repeat(d + 1));
                    }
                    write_string(out, k);
                    out.push(':');
                    if depth.is_some() {
                        out.push(' ');
                    }
                    v.write(out, depth.map(|d| d + 1));
                }
                if let Some(d) = depth {
                    out.push('\n');
                    out.push_str(&"  ".repeat(d));
                }
                out.push('}');
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
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
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields: Vec<(String, Json)> = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    if fields.iter().any(|(k, _)| *k == key) {
                        return Err(self.err(format!("duplicate key `{key}`")));
                    }
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require a trailing \uXXXX.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid code point")),
                            }
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                b if b < 0x20 => return Err(self.err("control character in string")),
                _ => {
                    // Re-decode the UTF-8 sequence starting at the byte we
                    // consumed (input is a &str, so sequences are valid).
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    self.pos = start + width;
                    if self.pos > self.bytes.len() {
                        return Err(self.err("truncated utf-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit"))?;
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Uint(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(self.err(format!("invalid number `{text}`"))),
        }
    }
}

/// Byte length of the UTF-8 sequence whose first byte is `b`.
fn utf8_width(b: u8) -> usize {
    match b {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializer_escapes_and_formats() {
        let v = Json::obj(vec![
            ("s", Json::Str("a\"b\\c\nd\u{1}".into())),
            ("n", Json::Num(1.0)),
            ("u", Json::Uint(u64::MAX)),
            ("i", Json::Int(-3)),
            ("inf", Json::Num(f64::INFINITY)),
            ("arr", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("empty", Json::Arr(vec![])),
        ]);
        let text = v.pretty();
        assert!(text.contains(r#""s": "a\"b\\c\nd\u0001""#), "{text}");
        assert!(text.contains("\"n\": 1.0"), "{text}");
        assert!(text.contains(&format!("\"u\": {}", u64::MAX)), "{text}");
        assert!(text.contains("\"i\": -3"), "{text}");
        assert!(text.contains("\"inf\": null"), "{text}");
        assert!(text.contains("\"empty\": []"), "{text}");
        assert!(text.ends_with("}\n"), "{text}");
    }

    #[test]
    fn compact_has_no_whitespace() {
        let v = Json::obj(vec![
            ("a", Json::Uint(1)),
            (
                "b",
                Json::Arr(vec![Json::Str("x y".into()), Json::Bool(false)]),
            ),
        ]);
        assert_eq!(v.compact(), r#"{"a":1,"b":["x y",false]}"#);
    }

    #[test]
    fn parse_round_trips_compact_bytes() {
        let src = r#"{"a":1,"b":[-2,3.5,"x\n\u00e9",true,null],"c":{"d":18446744073709551615}}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.compact(), src.replace("\\u00e9", "é"));
        // A second round trip is a fixed point.
        assert_eq!(Json::parse(&v.compact()).unwrap(), v);
    }

    #[test]
    fn integers_stay_exact() {
        let v = Json::parse("18446744073709551615").unwrap();
        assert_eq!(v, Json::Uint(u64::MAX));
        let v = Json::parse("-9223372036854775808").unwrap();
        assert_eq!(v, Json::Int(i64::MIN));
        let v = Json::parse("1.5e2").unwrap();
        assert_eq!(v, Json::Num(150.0));
    }

    #[test]
    fn float_formatting_round_trips() {
        for x in [0.1, 1.0 / 3.0, 1e300, -2.5e-8, 123456789.123456] {
            let v = Json::Num(x);
            let back = Json::parse(&v.compact()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v, Json::Str("😀".into()));
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn malformed_inputs_error_without_panicking() {
        for bad in [
            "",
            "{",
            "[",
            "tru",
            "nul",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "{,}",
            "\"",
            "\"\\q\"",
            "01x",
            "1 2",
            "{\"a\":1,\"a\":2}",
            "nan",
            "-",
            "1e",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn depth_limit_rejects_deep_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(8) + &"]".repeat(8);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"s":"x","n":7,"b":true,"a":[1]}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.get("missing").is_none());
        assert!(Json::Null.get("x").is_none());
    }
}
