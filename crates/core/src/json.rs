//! A small, dependency-free JSON value: parse, build, serialize.
//!
//! One JSON implementation serves the whole workspace — the
//! `sempe-service` wire protocol and the bench harness report files —
//! so the two can never drift. Design points:
//!
//! * **Deterministic output.** Object members keep insertion order and
//!   serialization is byte-stable, so identical values encode to
//!   identical bytes — the property the service's content-addressed
//!   result cache relies on.
//! * **Exact integers.** `u64`/`i64` round-trip exactly (cycle counts and
//!   program outputs use the full 64-bit range); floats are only used
//!   where the data is genuinely real-valued (ratios, seconds).
//! * **std only.** No serde; the parser is a ~150-line recursive descent.

use core::fmt;

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

struct JsonParser<'a> {
    src: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Nesting limit: the protocol never nests deeper than a handful of
/// levels; this bounds stack use on adversarial input.
const MAX_DEPTH: usize = 64;

impl<'a> JsonParser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { pos: self.pos, message: message.into() }
    }

    fn skip_ws(&mut self) {
        while matches!(self.src.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
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
        if self.src[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        let v = match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }?;
        self.depth -= 1;
        Ok(v)
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
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

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
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

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let run = core::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(run);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair.
                                if self.src[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
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
    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = core::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
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
    let mut p = JsonParser { src: src.as_bytes(), pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing garbage after value"));
    }
    Ok(v)
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
}
