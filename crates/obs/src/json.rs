//! Minimal hand-rolled JSON: an object writer for the sink and a
//! recursive-descent parser for `rfkit-trace`. No external crates.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Incremental JSON object writer.
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl JsonObj {
    /// Start an empty object.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        self.buf.push_str(&escape(k));
        self.buf.push_str("\":");
    }

    /// Add a string field (escaped).
    pub fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.buf.push('"');
        self.buf.push_str(&escape(v));
        self.buf.push('"');
    }

    /// Add a numeric field; non-finite values become `null`.
    pub fn num(&mut self, k: &str, v: f64) {
        self.key(k);
        self.buf.push_str(&fmt_f64(v));
    }

    /// Add a pre-serialised value verbatim (arrays, nested objects).
    pub fn raw(&mut self, k: &str, v: &str) {
        self.key(k);
        self.buf.push_str(v);
    }

    /// Close the object and return the serialised string.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Escape a string for embedding in a JSON literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serialise a finite f64 compactly (integers without a fraction);
/// NaN/inf become `null` so the output stays valid JSON.
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v == v.trunc() && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also produced by the writer for non-finite numbers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with source-order-insensitive key lookup.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Field lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String value if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Array contents if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v.as_slice()),
            _ => None,
        }
    }
}

/// Parse one complete JSON value from `src` (trailing garbage is an
/// error — a profile document is exactly one value).
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => parse_str(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".to_string()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (possibly multi-byte).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // [
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected , or ] at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // {
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected key at byte {pos}", pos = *pos));
        }
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected : at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected , or }} at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_parses_back() {
        let mut o = JsonObj::new();
        o.str("kind", "event");
        o.str("name", "weird \"name\"\n");
        o.num("x", 1.5);
        o.num("n", 42.0);
        o.num("bad", f64::NAN);
        o.raw("arr", "[[1,2],[3,4]]");
        let line = o.finish();
        let v = parse(&line).expect("round-trip parse");
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("event"));
        assert_eq!(
            v.get("name").and_then(Json::as_str),
            Some("weird \"name\"\n")
        );
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(42.0));
        assert_eq!(v.get("bad"), Some(&Json::Null));
        let arr = v.get("arr").and_then(Json::as_arr).expect("array field");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].as_arr().and_then(|a| a[1].as_f64()), Some(2.0));
    }

    #[test]
    fn fmt_f64_is_compact_and_null_safe() {
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(-7.0), "-7");
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(f64::NAN), "null");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn parser_accepts_nested_structures() {
        let v = parse(r#"{"a":[1,true,null,{"b":"c"}],"d":-1.5e3}"#).expect("parse");
        assert_eq!(v.get("d").and_then(Json::as_f64), Some(-1500.0));
        let a = v.get("a").and_then(Json::as_arr).expect("arr");
        assert_eq!(a[1], Json::Bool(true));
        assert_eq!(a[3].get("b").and_then(Json::as_str), Some("c"));
    }
}
