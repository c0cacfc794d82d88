//! A minimal, deterministic JSON reader/writer.
//!
//! Batch results are exported as JSON without serde (no crates.io
//! access). Output is fully deterministic: object members keep
//! insertion order, floats print in their shortest round-trippable
//! form (`{:?}`), and there is no whitespace variation — the
//! determinism tests compare documents byte-for-byte.
//!
//! [`Json::parse`] reads documents back (for batch resume and
//! `scenario diff`). Numbers without `.`/`e` parse as integers and
//! floats parse exactly from their shortest round-trippable form, so
//! parse → serialize reproduces a document byte-for-byte.

use std::fmt::Write as _;

/// A JSON value being built for serialization.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// An unsigned integer; keeps `u64` values above `i64::MAX` (e.g.
    /// environment seeds) exact instead of wrapping negative.
    UInt(u64),
    /// A finite float.
    ///
    /// Serialization panics on NaN/infinity — callers map those to
    /// [`Json::Null`] explicitly.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members serialize in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A JSON parse error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// An object builder starting empty.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let chars: Vec<char> = text.chars().collect();
        let mut pos = 0;
        let value = parse_value(&chars, &mut pos, 0)?;
        skip_ws(&chars, &mut pos);
        if pos != chars.len() {
            return Err(JsonError(format!(
                "trailing characters at offset {pos} after value"
            )));
        }
        Ok(value)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload as f64 (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(f) => Some(*f),
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// The integer payload as u64, if non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            Json::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// The integer payload as usize, if non-negative.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Appends a member to an object (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(members) => members.push((key.to_string(), value.into())),
            _ => panic!("field() requires an object"),
        }
        self
    }

    /// Serializes with 2-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes on a single line with no whitespace (NDJSON event
    /// streams: one value per line). No trailing newline.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{key}\":");
                    value.write_compact(out);
                }
                out.push('}');
            }
            // scalars render identically in both modes
            other => other.write(out, 0),
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(f) => {
                assert!(f.is_finite(), "JSON numbers must be finite, got {f}");
                let _ = write!(out, "{f:?}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
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
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    let _ = write!(out, "\"{key}\": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

/// Deepest object/array nesting [`Json::parse`] accepts. Parsing
/// recurses per level, so the cap keeps a hostile document (say, a
/// 4 MiB request body of `[`) from overflowing a handler thread's stack.
const MAX_DEPTH: usize = 128;

fn skip_ws(chars: &[char], pos: &mut usize) {
    while *pos < chars.len() && chars[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn jerr<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

fn expect(chars: &[char], pos: &mut usize, c: char) -> Result<(), JsonError> {
    skip_ws(chars, pos);
    if chars.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        jerr(format!("expected '{c}' at offset {pos}", pos = *pos))
    }
}

fn parse_value(chars: &[char], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(chars, pos);
    let Some(&c) = chars.get(*pos) else {
        return jerr("unexpected end of document");
    };
    if matches!(c, '{' | '[') && depth == MAX_DEPTH {
        return jerr(format!(
            "nesting deeper than {MAX_DEPTH} at offset {pos}",
            pos = *pos
        ));
    }
    match c {
        '{' => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(chars, pos);
            if chars.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(chars, pos);
                let Json::Str(key) = parse_string(chars, pos)? else {
                    unreachable!()
                };
                expect(chars, pos, ':')?;
                members.push((key, parse_value(chars, pos, depth + 1)?));
                skip_ws(chars, pos);
                match chars.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return jerr(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
                }
            }
        }
        '[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(chars, pos);
            if chars.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(chars, pos, depth + 1)?);
                skip_ws(chars, pos);
                match chars.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return jerr(format!("expected ',' or ']' at offset {pos}", pos = *pos)),
                }
            }
        }
        '"' => parse_string(chars, pos),
        _ => {
            let start = *pos;
            while *pos < chars.len()
                && matches!(chars[*pos], '-' | '+' | '.' | '0'..='9' | 'e' | 'E' | 'a'..='z')
            {
                *pos += 1;
            }
            let token: String = chars[start..*pos].iter().collect();
            match token.as_str() {
                "null" => Ok(Json::Null),
                "true" => Ok(Json::Bool(true)),
                "false" => Ok(Json::Bool(false)),
                t if !t.contains(['.', 'e', 'E']) => {
                    if let Ok(i) = t.parse::<i64>() {
                        Ok(Json::Int(i))
                    } else if let Ok(u) = t.parse::<u64>() {
                        Ok(Json::UInt(u))
                    } else {
                        jerr(format!("cannot parse number '{t}'"))
                    }
                }
                t => match t.parse::<f64>() {
                    Ok(f) if f.is_finite() => Ok(Json::Num(f)),
                    _ => jerr(format!("cannot parse value '{t}'")),
                },
            }
        }
    }
}

fn parse_string(chars: &[char], pos: &mut usize) -> Result<Json, JsonError> {
    if chars.get(*pos) != Some(&'"') {
        return jerr(format!("expected string at offset {pos}", pos = *pos));
    }
    *pos += 1;
    let mut s = String::new();
    while let Some(&c) = chars.get(*pos) {
        *pos += 1;
        match c {
            '"' => return Ok(Json::Str(s)),
            '\\' => {
                let Some(&esc) = chars.get(*pos) else {
                    return jerr("dangling escape");
                };
                *pos += 1;
                match esc {
                    '"' => s.push('"'),
                    '\\' => s.push('\\'),
                    '/' => s.push('/'),
                    'n' => s.push('\n'),
                    't' => s.push('\t'),
                    'r' => s.push('\r'),
                    'u' => {
                        let hex: String = chars.get(*pos..*pos + 4).unwrap_or(&[]).iter().collect();
                        let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32)
                        else {
                            return jerr(format!("bad unicode escape '\\u{hex}'"));
                        };
                        *pos += 4;
                        s.push(c);
                    }
                    other => return jerr(format!("unsupported escape '\\{other}'")),
                }
            }
            other => s.push(other),
        }
    }
    jerr("unterminated string")
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}

impl From<u64> for Json {
    fn from(i: u64) -> Json {
        Json::UInt(i)
    }
}

impl From<usize> for Json {
    fn from(i: usize) -> Json {
        Json::UInt(i as u64)
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Num(f)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(o: Option<T>) -> Json {
        o.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_nested_structures() {
        let doc = Json::obj()
            .field("name", "x\"y")
            .field("n", 3usize)
            .field("ok", true)
            .field("missing", Json::Null)
            .field("xs", vec![1.5f64, 2.0])
            .field("empty", Json::Arr(vec![]))
            .field("t", Json::obj().field("k", Option::<f64>::None));
        let text = doc.pretty();
        assert!(text.contains("\"name\": \"x\\\"y\""));
        assert!(text.contains("\"n\": 3"));
        assert!(text.contains("\"xs\": [\n    1.5,\n    2.0\n  ]"));
        assert!(text.contains("\"empty\": []"));
        assert!(text.contains("\"k\": null"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn u64_values_above_i64_max_stay_exact() {
        let doc = Json::obj().field("seed", u64::MAX);
        assert!(doc.pretty().contains("\"seed\": 18446744073709551615"));
    }

    #[test]
    fn floats_keep_shortest_roundtrip_form() {
        assert_eq!(Json::Num(0.1).pretty(), "0.1\n");
        assert_eq!(Json::Num(42.0).pretty(), "42.0\n");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_floats_rejected() {
        let _ = Json::Num(f64::NAN).pretty();
    }

    #[test]
    fn parse_roundtrips_serialized_documents() {
        let doc = Json::obj()
            .field("name", "x\"y\nz")
            .field("n", 3usize)
            .field("neg", -7i64)
            .field("big", u64::MAX)
            .field("f", 0.30000000000000004)
            .field("whole", 42.0)
            .field("ok", true)
            .field("missing", Json::Null)
            .field("xs", vec![1.5f64, 2.0])
            .field("empty", Json::Arr(vec![]))
            .field("t", Json::obj().field("k", Option::<f64>::None));
        let text = doc.pretty();
        let parsed = Json::parse(&text).unwrap();
        // parse -> serialize is byte-identical (resume depends on it)
        assert_eq!(parsed.pretty(), text);
        assert_eq!(parsed.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(parsed.get("big").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(parsed.get("f").unwrap().as_f64(), Some(0.30000000000000004));
        assert_eq!(parsed.get("missing"), Some(&Json::Null));
        assert_eq!(parsed.get("xs").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn parse_distinguishes_ints_and_floats() {
        let v = Json::parse("{\"i\": 3, \"f\": 3.0, \"e\": 1e3}").unwrap();
        assert_eq!(v.get("i"), Some(&Json::Int(3)));
        assert_eq!(v.get("f"), Some(&Json::Num(3.0)));
        assert_eq!(v.get("e"), Some(&Json::Num(1000.0)));
        assert_eq!(v.get("i").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn parse_reports_errors() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nope").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("1e999").is_err(), "non-finite float rejected");
    }

    #[test]
    fn nesting_depth_is_capped() {
        let deep = 100_000;
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let doc = format!("{}1{}", open.repeat(deep), close.repeat(deep));
            let e = Json::parse(&doc).unwrap_err();
            assert!(e.0.contains("nesting deeper than"), "{e}");
        }
        // the cap itself still parses
        let doc = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&doc).is_ok());
        let doc = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&doc).is_err());
    }

    #[test]
    fn parse_handles_escapes() {
        let v = Json::parse("{\"s\": \"a\\\"b\\\\c\\nd\\u0041\"}").unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\ndA"));
    }
}
