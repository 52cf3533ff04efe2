//! Minimal hand-rolled JSON: the wire format of the serve protocol and the
//! on-disk format of the plan cache. No external dependencies — the build
//! environment is offline — and no serde-style derive: the handful of
//! message types in [`crate::proto`] build and match [`Json`] values
//! directly.
//!
//! Supported: objects, arrays, strings (with `\uXXXX` escapes), finite
//! numbers, booleans, null. Not supported (rejected on parse): trailing
//! commas, comments, non-finite numbers.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Object keys are sorted (`BTreeMap`) so serialization is
/// deterministic — handy for tests and for diffable plan-cache files.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str<S: Into<String>>(s: S) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number value.
    pub fn num<N: Into<f64>>(n: N) -> Json {
        Json::Num(n.into())
    }

    /// Number from a usize (lossless for < 2^53, far beyond any nnz here).
    pub fn usize(n: usize) -> Json {
        Json::Num(n as f64)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Field as string.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Field as f64.
    pub fn get_num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Json::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// Field as usize (rejects negatives and non-integers).
    pub fn get_usize(&self, key: &str) -> Option<usize> {
        let n = self.get_num(key)?;
        if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
            Some(n as usize)
        } else {
            None
        }
    }

    /// Field as u64 (rejects negatives and non-integers).
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get_usize(key).map(|n| n as u64)
    }

    /// Field as bool.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        match self.get(key) {
            Some(Json::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    /// Serializes to a single-line string (no trailing newline).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError::at(pos, "trailing characters after value"));
        }
        Ok(value)
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the least-surprising encoding.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl ParseError {
    fn at(pos: usize, msg: &str) -> ParseError {
        ParseError {
            pos,
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.pos, self.msg)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser is
/// recursive descent, so the limit bounds its stack use: one deeply
/// nested line must come back as a [`ParseError`], not overflow the
/// connection thread's stack. No protocol message nests past 4.
pub const MAX_DEPTH: usize = 128;

/// Parses one value whose enclosing arrays/objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(ParseError::at(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(ParseError::at(
            *pos,
            &format!("nesting deeper than {MAX_DEPTH} levels"),
        )),
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => parse_str(bytes, pos).map(Json::Str),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(bytes, pos),
        Some(_) => Err(ParseError::at(*pos, "unexpected character")),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(ParseError::at(*pos, "invalid literal"))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| ParseError::at(start, "invalid utf-8 in number"))?;
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Json::Num(n)),
        _ => Err(ParseError::at(start, "invalid number")),
    }
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(ParseError::at(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| ParseError::at(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| ParseError::at(*pos, "invalid \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| ParseError::at(*pos, "invalid \\u escape"))?;
                        // Surrogates are rejected rather than paired; the
                        // protocol never emits them.
                        let c = char::from_u32(code)
                            .ok_or_else(|| ParseError::at(*pos, "invalid codepoint"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(ParseError::at(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character (1-4 bytes).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| ParseError::at(*pos, "invalid utf-8"))?;
                let Some(c) = rest.chars().next() else {
                    return Err(ParseError::at(*pos, "unterminated string"));
                };
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    *pos += 1; // [
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(ParseError::at(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    *pos += 1; // {
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(ParseError::at(*pos, "expected object key"));
        }
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(ParseError::at(*pos, "expected ':'"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(ParseError::at(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let text =
            r#"{"cmd":"gen","nested":{"a":[1,2.5,-3,true,false,null],"s":"hi\n\"there\""},"n":42}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get_str("cmd"), Some("gen"));
        assert_eq!(v.get_usize("n"), Some(42));
        let back = Json::parse(&v.to_string_compact()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn integers_serialize_without_decimal_point() {
        let v = Json::obj([("nnz", Json::usize(3_000_000)), ("x", Json::num(0.5))]);
        let s = v.to_string_compact();
        assert_eq!(s, r#"{"nnz":3000000,"x":0.5}"#);
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "{",
            "[1,",
            "\"abc",
            "{\"a\" 1}",
            "01x",
            "{} extra",
            "nul",
            "[1,]",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.pos, MAX_DEPTH);
        assert!(err.msg.contains("nesting"), "{err}");
        // Objects count toward the same limit.
        let obj = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&obj).is_err());
        // Far past the limit, and unterminated: still a typed error.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse(r#""aAé""#).unwrap();
        assert_eq!(v, Json::Str("aAé".to_string()));
        // control characters are escaped on output and round-trip
        let s = Json::Str("a\u{1}b".into()).to_string_compact();
        assert_eq!(s, r#""a\u0001b""#);
        assert_eq!(Json::parse(&s).unwrap(), Json::Str("a\u{1}b".into()));
    }

    #[test]
    fn typed_getters_reject_mismatches() {
        let v = Json::parse(r#"{"s":"x","n":1.5,"i":-2,"b":true}"#).unwrap();
        assert_eq!(v.get_str("n"), None);
        assert_eq!(v.get_usize("n"), None, "fractional");
        assert_eq!(v.get_usize("i"), None, "negative");
        assert_eq!(v.get_bool("b"), Some(true));
        assert_eq!(v.get("missing"), None);
    }
}
