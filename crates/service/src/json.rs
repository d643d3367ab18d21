//! Minimal hand-rolled JSON, in the spirit of `profile_io`'s line format.
//!
//! The workspace's offline-dependency policy rules out serde, and the wire
//! protocol only needs flat-ish objects of strings, numbers, booleans, and
//! small nested maps — so this module implements exactly RFC 8259 values
//! with two deliberate restrictions:
//!
//! * objects preserve insertion order (serialization is deterministic, so
//!   integration tests can assert exact response lines);
//! * numbers are `f64` internally; integers up to 2^53 round-trip exactly,
//!   which covers every count, shot budget, and counter in the protocol.
//!
//! Arrays and objects nest at most [`MAX_DEPTH`] deep. The parser recurses
//! once per level, and frames arrive from the network, so an unbounded
//! nesting would let one line of `[` overflow the parsing thread's stack.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The protocol
/// itself nests at most three levels.
pub const MAX_DEPTH: usize = 32;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, later duplicates rejected at parse.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience integer constructor.
    pub fn int(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's object pairs, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The value's array items, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON value from the full input (trailing garbage is an
    /// error — the protocol is strictly one value per line).
    ///
    /// # Errors
    ///
    /// Returns a byte-offset-tagged message on malformed input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::at(pos, "trailing characters after value"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A JSON parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value inside `depth` enclosing arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::at(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(JsonError::at(
            *pos,
            format!("nesting deeper than {MAX_DEPTH} levels"),
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(JsonError::at(
            *pos,
            format!("unexpected byte {:?}", *c as char),
        )),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(JsonError::at(*pos, format!("expected {word:?}")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ascii");
    let n: f64 = text
        .parse()
        .map_err(|_| JsonError::at(start, format!("bad number {text:?}")))?;
    if !n.is_finite() {
        return Err(JsonError::at(start, format!("non-finite number {text:?}")));
    }
    Ok(Json::Num(n))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::at(*pos, "unterminated string")),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| JsonError::at(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| JsonError::at(*pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError::at(*pos, format!("bad \\u escape {hex:?}")))?;
                        // Surrogates are not paired — the protocol never
                        // emits them; reject rather than mis-decode.
                        let c = char::from_u32(code)
                            .ok_or_else(|| JsonError::at(*pos, "surrogate \\u escape"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    other => {
                        return Err(JsonError::at(
                            *pos,
                            format!("bad escape {:?}", other.map(|c| *c as char)),
                        ))
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is safe).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| JsonError::at(*pos, "invalid utf-8"))?;
                let c = rest.chars().next().expect("non-empty");
                if (c as u32) < 0x20 {
                    return Err(JsonError::at(*pos, "raw control character in string"));
                }
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '['
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
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(JsonError::at(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '{'
    let mut pairs: Vec<(String, Json)> = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(JsonError::at(*pos, "expected object key"));
        }
        let key_at = *pos;
        let key = parse_string(bytes, pos)?;
        if pairs.iter().any(|(k, _)| *k == key) {
            return Err(JsonError::at(key_at, format!("duplicate key {key:?}")));
        }
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(JsonError::at(*pos, "expected ':'"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(JsonError::at(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "0", "42", "-7", "1.5"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text, "{text}");
        }
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "qasm \"line1\"\nline2\ttab\\slash";
        let encoded = Json::Str(original.to_string()).to_string();
        assert!(
            !encoded.contains('\n'),
            "newlines must be escaped: {encoded}"
        );
        assert_eq!(Json::parse(&encoded).unwrap().as_str(), Some(original));
        assert_eq!(Json::parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
    }

    #[test]
    fn objects_preserve_order_and_reject_duplicates() {
        let v = Json::parse(r#"{"b":1,"a":{"nested":[1,2,3]},"c":"x"}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"b":1,"a":{"nested":[1,2,3]},"c":"x"}"#);
        assert_eq!(v.get("b").and_then(Json::as_u64), Some(1));
        assert!(Json::parse(r#"{"a":1,"a":2}"#).is_err());
    }

    #[test]
    fn trailing_garbage_and_malformed_inputs_rejected() {
        for bad in [
            "{",
            "}",
            "{\"a\"}",
            "[1,",
            "\"open",
            "{\"a\":}",
            "tru",
            "1 2",
            "{\"a\":1}x",
            "nan",
            "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |open: &str, close: &str, levels: usize| {
            format!("{}{}", open.repeat(levels), close.repeat(levels))
        };
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let at_cap = nested(open, close, MAX_DEPTH).replace(":}", ":1}");
            assert!(Json::parse(&at_cap).is_ok(), "{at_cap}");
            let past_cap = nested(open, close, MAX_DEPTH + 1).replace(":}", ":1}");
            let e = Json::parse(&past_cap).unwrap_err();
            assert!(e.message.contains("nesting deeper than 32"), "{e}");
        }
        // The frame that used to overflow the stack is now an error.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn integers_roundtrip_exactly() {
        let big = 9_007_199_254_740_992u64; // 2^53
        let v = Json::parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
        assert_eq!(Json::int(12345).to_string(), "12345");
        assert_eq!(Json::parse("3.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
    }
}
