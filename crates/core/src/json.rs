//! A small, dependency-free JSON value: parse, build, serialize.
//!
//! This is the workspace's one JSON grammar. The `sempe-service` wire
//! protocol, its router and the bench harness report files all read
//! JSON through it, so no two readers can drift. Design points:
//!
//! * **Deterministic output.** Object members keep insertion order and
//!   serialization is byte-stable, so identical values encode to
//!   identical bytes — the property the service's content-addressed
//!   result cache relies on.
//! * **Exact integers.** `u64`/`i64` round-trip exactly (cycle counts and
//!   program outputs use the full 64-bit range); floats are only used
//!   where the data is genuinely real-valued (ratios, seconds).
//! * **One tokenizer, two readers.** One recursive-descent tokenizer
//!   holds the whitespace, string, escape, number and depth rules.
//!   [`parse`] builds a [`Json`] tree with it; [`object`] validates a
//!   line with it exactly as `parse` would and keeps each top-level
//!   member's raw span, for callers that forward a line mostly
//!   untouched (the router's hot path) and cannot afford the tree.
//! * **std only.** No serde.

use core::fmt;
use std::borrow::Cow;

/// A JSON value. Object members preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (exact).
    U64(u64),
    /// A negative integer (exact).
    I64(i64),
    /// A real number. Non-finite values serialize as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    #[must_use]
    pub const fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a member to an object (no-op with a debug assertion on
    /// non-objects). Returns `self` for chaining.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    /// Append a member to an object.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        if let Json::Obj(members) = self {
            members.push((key.to_string(), value.into()));
        } else {
            debug_assert!(false, "Json::set on a non-object");
        }
    }

    /// Look up an object member.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, when exactly representable.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize compactly (no whitespace).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Serialize compactly into an existing buffer.
    pub fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let mut buf = [0u8; 20];
                out.push_str(format_u64(*v, &mut buf));
            }
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => {
                if v.is_finite() {
                    // Rust's shortest-roundtrip Display: deterministic and
                    // exact enough for ratios/seconds. Integral values get
                    // an explicit ".0" so the token stays a float when
                    // parsed back (`2` would re-enter as `U64(2)` and the
                    // round trip would change the value's type).
                    let repr = v.to_string();
                    let is_integral = !repr.contains(['.', 'e', 'E']);
                    out.push_str(&repr);
                    if is_integral {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn format_u64(v: u64, buf: &mut [u8; 20]) -> &str {
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // Digits only: always valid UTF-8 (and infallibly so — no panic
    // path in the serializer).
    core::str::from_utf8(&buf[i..]).unwrap_or("0")
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(u64::from(v))
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        if v >= 0 {
            Json::U64(v.unsigned_abs())
        } else {
            Json::I64(v)
        }
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Append `s` to `out` as a quoted, escaped JSON string literal.
pub fn escape_into(out: &mut String, s: &str) {
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
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Quote and escape `s` as a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting limit: the protocol never nests deeper than a handful of
/// levels; this bounds stack use on adversarial input.
const MAX_DEPTH: usize = 64;

/// The one JSON tokenizer. [`parse`] builds a [`Json`] tree with it and
/// [`object`] validates with it, so both accept exactly the same input.
/// A value read with `BUILD` false is checked against the same grammar
/// and depth limit but allocates nothing; the returned value is then a
/// placeholder.
struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    fn new(src: &'a str) -> Self {
        Reader { src, pos: 0, depth: 0 }
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { pos: self.pos, message: message.into() }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", c as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    /// Trailing whitespace, then the end of the input.
    fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(self.err("trailing garbage after value"))
        }
    }

    fn value<const BUILD: bool>(&mut self) -> Result<Json, JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        let v = match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => self.string::<BUILD>().map(Json::Str),
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b'[', b']', |r| {
                    let item = r.value::<BUILD>()?;
                    if BUILD {
                        items.push(item);
                    }
                    Ok(())
                })
                .map(|()| Json::Arr(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                self.seq(b'{', b'}', |r| {
                    r.skip_ws();
                    let key = r.string::<BUILD>()?;
                    r.skip_ws();
                    r.eat(b':')?;
                    let value = r.value::<BUILD>()?;
                    if BUILD {
                        members.push((key, value));
                    }
                    Ok(())
                })
                .map(|()| Json::Obj(members))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number::<BUILD>(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }?;
        self.depth -= 1;
        Ok(v)
    }

    /// A bracketed, comma-separated sequence: `open`, then `item` once
    /// per element, then `close`.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.eat(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err(format!("expected `,` or `{}`", close as char))),
            }
        }
    }

    fn string<const BUILD: bool>(&mut self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.string_with(|piece| {
            if BUILD {
                out.push_str(piece);
            }
        })?;
        Ok(out)
    }

    /// Read one string literal, handing its decoded text to `sink` in
    /// pieces: each run of plain characters as written, each escape as
    /// the character it stands for.
    fn string_with(&mut self, mut sink: impl FnMut(&str)) -> Result<(), JsonError> {
        self.eat(b'"')?;
        let src = self.src;
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // A run ends at an ASCII byte, so it is whole UTF-8.
                sink(&src[start..self.pos]);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    sink(c.encode_utf8(&mut [0; 4]));
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Decode the escape after a backslash, `\u` surrogate pairs
    /// included.
    fn escape(&mut self) -> Result<char, JsonError> {
        let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let cp = if (0xd800..0xdc00).contains(&hi) {
                    if !self.src.as_bytes()[self.pos..].starts_with(b"\\u") {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err(self.err("unpaired surrogate"));
                    }
                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                } else {
                    hi
                };
                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match c {
                b'0'..=b'9' => u32::from(c - b'0'),
                b'a'..=b'f' => u32::from(c - b'a' + 10),
                b'A'..=b'F' => u32::from(c - b'A' + 10),
                _ => return Err(self.err("bad hex digit in \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    /// Consume one or more decimal digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            return Err(self.err("invalid number"));
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        Ok(())
    }

    #[allow(clippy::cast_precision_loss)]
    fn number<const BUILD: bool>(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        // RFC 8259 §6: no leading zeros, and a fraction or exponent
        // needs at least one digit.
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits()?,
            _ => return Err(self.err("invalid number")),
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        if !BUILD {
            return Ok(Json::Null);
        }
        let text = &self.src[start..self.pos];
        if !fractional {
            // Integral tokens parse exactly: the full u64 range first,
            // then i64 for negatives — routing them through f64 would
            // silently round anything above 2^53 (cycle counts, digests
            // and cache-key parameters all live up there). `-0` and any
            // other non-negative i64 normalize to `U64` so parse∘encode
            // is the identity on integers.
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(if v >= 0 { Json::U64(v.unsigned_abs()) } else { Json::I64(v) });
            }
            // Only magnitudes beyond 64 bits fall through to f64.
        }
        text.parse::<f64>().map(Json::F64).map_err(|_| self.err("invalid number"))
    }
}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// [`JsonError`] with the byte offset of the first problem.
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let mut r = Reader::new(src);
    let v = r.value::<true>()?;
    r.finish()?;
    Ok(v)
}

/// A JSON object read without building a tree: the decoded key and the
/// raw value text of each top-level member, borrowed from the line.
/// [`object`] validates the whole line exactly as [`parse`] does, nested
/// values included.
#[derive(Debug)]
pub struct Object<'a> {
    line: &'a str,
    members: Vec<Member<'a>>,
}

#[derive(Debug)]
struct Member<'a> {
    /// The decoded key; borrowed from the line when it has no escapes.
    key: Cow<'a, str>,
    /// The value exactly as written.
    value: &'a str,
    /// Offset of the key's opening quote.
    start: usize,
    /// Offset one past the value.
    end: usize,
}

/// Read `line` as one JSON object, keeping the raw span of each
/// top-level member.
///
/// # Errors
///
/// [`JsonError`] exactly when [`parse`] fails or yields anything but a
/// [`Json::Obj`].
pub fn object(line: &str) -> Result<Object<'_>, JsonError> {
    let mut r = Reader::new(line);
    // The object itself is the first level, as `parse` counts depth.
    r.depth = 1;
    r.skip_ws();
    let mut members = Vec::new();
    r.seq(b'{', b'}', |r| {
        r.skip_ws();
        let start = r.pos;
        r.string::<false>()?;
        let quoted = &line[start..r.pos];
        let inner = &quoted[1..quoted.len() - 1];
        let key = if inner.contains('\\') {
            Cow::Owned(Reader::new(quoted).string::<true>()?)
        } else {
            Cow::Borrowed(inner)
        };
        r.skip_ws();
        r.eat(b':')?;
        r.skip_ws();
        let value_start = r.pos;
        r.value::<false>()?;
        members.push(Member { key, value: &line[value_start..r.pos], start, end: r.pos });
        Ok(())
    })?;
    r.finish()?;
    Ok(Object { line, members })
}

impl<'a> Object<'a> {
    fn member(&self, key: &str) -> Option<&Member<'a>> {
        self.members.iter().find(|m| m.key == key)
    }

    /// The value of the first member named `key`, exactly as written (a
    /// string keeps its quotes and escapes). Same first-match rule as
    /// [`Json::get`].
    #[must_use]
    pub fn raw(&self, key: &str) -> Option<&'a str> {
        self.member(key).map(|m| m.value)
    }

    /// Hand the decoded text of string member `key` to `sink` in pieces,
    /// allocating nothing. Returns false when the member is absent or not
    /// a string.
    pub fn str_with(&self, key: &str, sink: impl FnMut(&str)) -> bool {
        self.raw(key)
            .is_some_and(|raw| raw.starts_with('"') && Reader::new(raw).string_with(sink).is_ok())
    }

    /// The element count of array member `key`; `None` when the member
    /// is absent or not an array.
    #[must_use]
    pub fn array_len(&self, key: &str) -> Option<usize> {
        let raw = self.raw(key).filter(|raw| raw.starts_with('['))?;
        let mut n = 0;
        Reader::new(raw)
            .seq(b'[', b']', |r| {
                n += 1;
                r.value::<false>().map(drop)
            })
            .ok()?;
        Some(n)
    }

    /// The line with the first member named `key` cut out, commas kept
    /// correct; the line unchanged when there is no such member. On a
    /// compact line this is byte for byte what `parse`, removing the
    /// member, and `encode` would produce.
    #[must_use]
    pub fn without(&self, key: &str) -> String {
        let Some(m) = self.member(key) else {
            return self.line.to_string();
        };
        let bytes = self.line.as_bytes();
        let is_ws = |b: Option<&u8>| matches!(b, Some(b' ' | b'\t' | b'\r' | b'\n'));
        let (mut start, mut end) = (m.start, m.end);
        let mut after = end;
        while is_ws(bytes.get(after)) {
            after += 1;
        }
        if bytes.get(after) == Some(&b',') {
            // Not the last member: take the comma that follows.
            end = after + 1;
        } else {
            // The last member: take the comma before it, if any.
            let mut before = start;
            while before > 0 && is_ws(bytes.get(before - 1)) {
                before -= 1;
            }
            if before > 0 && bytes[before - 1] == b',' {
                start = before - 1;
            }
        }
        let mut out = String::with_capacity(self.line.len() - (end - start));
        out.push_str(&self.line[..start]);
        out.push_str(&self.line[end..]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) -> String {
        parse(src).expect("parses").encode()
    }

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(roundtrip("null"), "null");
        assert_eq!(roundtrip("true"), "true");
        assert_eq!(roundtrip("false"), "false");
        assert_eq!(roundtrip("42"), "42");
        assert_eq!(roundtrip("-7"), "-7");
        assert_eq!(roundtrip("18446744073709551615"), "18446744073709551615");
        assert_eq!(roundtrip("1.25"), "1.25");
        assert_eq!(roundtrip("\"hi\""), "\"hi\"");
    }

    #[test]
    fn containers_roundtrip_preserving_order() {
        assert_eq!(roundtrip("[1, 2, [3]]"), "[1,2,[3]]");
        assert_eq!(roundtrip("{\"z\": 1, \"a\": {\"k\": []}}"), "{\"z\":1,\"a\":{\"k\":[]}}");
    }

    #[test]
    fn escapes_roundtrip() {
        assert_eq!(roundtrip(r#""a\"b\\c\nd\u0041""#), "\"a\\\"b\\\\c\\nd\u{41}\"".to_string());
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Json::Str("😀".into()));
        assert_eq!(roundtrip("\"\\u0007\""), "\"\\u0007\"");
    }

    #[test]
    fn builder_and_accessors() {
        let v = Json::obj()
            .with("ok", true)
            .with("cycles", 123u64)
            .with("name", "fib")
            .with("outputs", vec![1u64, 2, 3]);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("cycles").and_then(Json::as_u64), Some(123));
        assert_eq!(v.get("name").and_then(Json::as_str), Some("fib"));
        assert_eq!(v.get("outputs").and_then(Json::as_array).map(<[Json]>::len), Some(3));
        let encoded = v.encode();
        assert_eq!(parse(&encoded).unwrap(), v);
    }

    #[test]
    fn errors_are_positioned() {
        assert!(parse("").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"abc").is_err());
        for number in ["01", "-01", "00", "1.", "1.e5", "-", "-.5", "1e", "1e+"] {
            assert!(parse(number).is_err(), "{number} is not a JSON number");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err(), "depth limit");
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        assert_eq!(Json::F64(f64::NAN).encode(), "null");
        assert_eq!(Json::F64(f64::INFINITY).encode(), "null");
    }

    #[test]
    fn integers_above_2_to_53_stay_exact() {
        // f64 has 53 mantissa bits; these neighbors collide under a
        // float round-trip and must not collide here.
        let lo = (1u64 << 53) + 1;
        assert_eq!(parse("9007199254740993").unwrap(), Json::U64(lo));
        assert_eq!(parse(&lo.to_string()).unwrap().encode(), "9007199254740993");
        assert_ne!(parse("9007199254740993").unwrap(), parse("9007199254740992").unwrap());
        assert_eq!(parse(&u64::MAX.to_string()).unwrap(), Json::U64(u64::MAX));
        assert_eq!(parse(&i64::MIN.to_string()).unwrap(), Json::I64(i64::MIN));
        assert_eq!(roundtrip("-9223372036854775808"), "-9223372036854775808");
    }

    #[test]
    fn negative_zero_token_normalizes_to_integer_zero() {
        assert_eq!(parse("-0").unwrap(), Json::U64(0));
        assert_eq!(parse("-0").unwrap(), parse("0").unwrap());
    }

    #[test]
    fn integral_floats_round_trip_as_floats() {
        // Without the ".0" suffix these would re-parse as integers and
        // the value's type (and encoded bytes) would drift across hops.
        assert_eq!(Json::F64(2.0).encode(), "2.0");
        assert_eq!(parse("2.0").unwrap(), Json::F64(2.0));
        assert_eq!(parse(&Json::F64(2.0).encode()).unwrap(), Json::F64(2.0));
        assert_eq!(parse(&Json::F64(-3.0).encode()).unwrap(), Json::F64(-3.0));
        assert_eq!(parse(&Json::F64(1e300).encode()).unwrap(), Json::F64(1e300));
        // Shortest-roundtrip Display guarantees bit-exact re-parsing.
        let v = 0.1f64 + 0.2;
        assert_eq!(parse(&Json::F64(v).encode()).unwrap(), Json::F64(v));
    }

    #[test]
    fn integral_magnitudes_beyond_u64_fall_back_to_float() {
        // 2^64 is not representable exactly; the float fallback is the
        // documented lossy escape hatch, not a silent integer.
        assert!(matches!(parse("18446744073709551616").unwrap(), Json::F64(_)));
        assert!(matches!(parse("-9223372036854775809").unwrap(), Json::F64(_)));
    }

    #[test]
    fn object_without_excises_comma_correctly_everywhere() {
        let t = |l: &str, k: &str| object(l).expect("reads").without(k);
        assert_eq!(t(r#"{"id":"x","a":1}"#, "id"), r#"{"a":1}"#);
        assert_eq!(t(r#"{"a":1,"id":"x","b":2}"#, "id"), r#"{"a":1,"b":2}"#);
        assert_eq!(t(r#"{"a":1,"id":"x"}"#, "id"), r#"{"a":1}"#);
        assert_eq!(t(r#"{"id":"x"}"#, "id"), r"{}");
        assert_eq!(t(r#"{"a":1}"#, "id"), r#"{"a":1}"#);
        // Keys compare by their decoded text, first match only.
        assert_eq!(t(r#"{"\u0069d":"x","id":"y"}"#, "id"), r#"{"id":"y"}"#);
        // Spaced input stays parseable (not byte-identical).
        let spaced = t(r#"{ "id" : "x" , "a" : 1 }"#, "id");
        assert_eq!(parse(&spaced).expect("parses"), Json::obj().with("a", 1u64), "{spaced}");
    }

    #[test]
    fn object_streams_the_decoded_string() {
        for raw in [
            r"plain text",
            r"line\nbreaks\tand\\slashes\u0041",
            r#"quoted \" inner"#,
            r"surrogate 😀 raw",
            "pair \\ud83d\\ude00 end",
            "codepoint \\u0041\\u00e9",
        ] {
            let line = format!("{{\"source\":\"{raw}\"}}");
            let parsed = parse(&line).expect("parses");
            let expect = parsed.get("source").and_then(Json::as_str).expect("string");
            let mut digest = crate::hash::Fnv1a::new();
            let mut text = String::new();
            assert!(object(&line).expect("reads").str_with("source", |piece| {
                digest.write(piece.as_bytes());
                text.push_str(piece);
            }));
            assert_eq!(text, expect);
            assert_eq!(digest.finish(), crate::hash::fnv1a(expect.as_bytes()), "{raw:?}");
        }
        let o = object(r#"{"n":1}"#).expect("reads");
        assert!(!o.str_with("n", |_| {}), "not a string");
        assert!(!o.str_with("missing", |_| {}));
        for bad in [r#"{"s":"\ud83d alone"}"#, r#"{"s":"\q"}"#] {
            assert!(object(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn object_counts_array_elements() {
        let o =
            object(r#"{"a":[],"b":[1],"c":[1,"a,b",[2,3],{"k":[4,5]}],"d":{}}"#).expect("reads");
        assert_eq!(o.array_len("a"), Some(0));
        assert_eq!(o.array_len("b"), Some(1));
        assert_eq!(o.array_len("c"), Some(4));
        assert_eq!(o.array_len("d"), None, "not an array");
        assert_eq!(o.array_len("missing"), None);
    }

    #[test]
    fn object_rejects_what_parse_rejects_nested_or_not() {
        for bad in [
            r#"{"x":[tru]}"#,
            r#"{"x":"\ud800"}"#,
            r#"{"x":{"k" 1}}"#,
            r#"{"max_cycles":[1,]}"#,
            r#"{"a":1} extra"#,
            r#"{"a":01}"#,
            "[1,2]",
        ] {
            assert!(parse(bad).map_or(true, |v| !matches!(v, Json::Obj(_))), "{bad}");
            assert!(object(bad).is_err(), "{bad}");
        }
        let deep = format!(r#"{{"a":{}{}}}"#, "[".repeat(64), "]".repeat(64));
        assert!(parse(&deep).is_err() && object(&deep).is_err(), "depth limit");
        let deep = format!(r#"{{"a":{}{}}}"#, "[".repeat(63), "]".repeat(63));
        assert!(parse(&deep).is_ok() && object(&deep).is_ok(), "depth limit");
    }
}
