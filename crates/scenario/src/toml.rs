//! A minimal TOML reader/writer.
//!
//! The build environment has no crates.io access, so scenario specs
//! are (de)serialized with this hand-rolled subset of TOML instead of
//! serde + the `toml` crate. Supported: `[table]` / `[a.b]` headers,
//! array-of-tables (`[[x]]`, including sub-tables of the latest
//! element via `[x.sub]`), `key = value` pairs, strings with
//! `\"`/`\\`/`\n`/`\t` escapes, integers, floats, booleans, and
//! (nested, possibly multi-line) arrays. Unsupported: inline tables,
//! datetimes, literal/multiline strings.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A quoted string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A positive integer above `i64::MAX` (an extension over the
    /// TOML spec, which caps integers at i64 — needed so `u64` seeds
    /// round-trip exactly).
    UInt(u64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array of values.
    Array(Vec<TomlValue>),
    /// A table (sorted keys, so writing is deterministic).
    Table(BTreeMap<String, TomlValue>),
}

/// A parse or schema error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError(pub String);

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TOML error: {}", self.0)
    }
}

impl std::error::Error for TomlError {}

/// Deepest array nesting, and longest `[a.b.c]` header path, a document
/// may use. Parsing recurses per level, so the cap keeps hostile input
/// from overflowing the stack.
const MAX_DEPTH: usize = 128;

fn err<T>(msg: impl Into<String>) -> Result<T, TomlError> {
    Err(TomlError(msg.into()))
}

impl TomlValue {
    /// Parses a document into its root [`TomlValue::Table`].
    pub fn parse(text: &str) -> Result<TomlValue, TomlError> {
        let mut root = BTreeMap::new();
        let mut path: Vec<String> = Vec::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((lineno, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let is_array = header.starts_with('[');
                let header = if is_array { &header[1..] } else { header };
                let header = if is_array {
                    let Some(h) = header.strip_suffix("]]") else {
                        return err(format!("line {}: unterminated table header", lineno + 1));
                    };
                    h
                } else {
                    let Some(h) = header.strip_suffix(']') else {
                        return err(format!("line {}: unterminated table header", lineno + 1));
                    };
                    h
                };
                path = header
                    .split('.')
                    .map(|p| p.trim().to_string())
                    .collect::<Vec<_>>();
                if path.iter().any(String::is_empty) {
                    return err(format!("line {}: empty table-name segment", lineno + 1));
                }
                if path.len() > MAX_DEPTH {
                    return err(format!(
                        "line {}: table header nests deeper than {MAX_DEPTH}",
                        lineno + 1
                    ));
                }
                if is_array {
                    // `[[x]]` appends a fresh element; later `[x.sub]`
                    // headers and `key = value` lines address it via
                    // the last-element rule in `table_at`.
                    let (last, parent_path) = path.split_last().expect("path is non-empty");
                    let parent = table_at(&mut root, parent_path, lineno + 1)?;
                    let entry = parent
                        .entry(last.clone())
                        .or_insert_with(|| TomlValue::Array(Vec::new()));
                    match entry {
                        TomlValue::Array(items) => {
                            items.push(TomlValue::Table(BTreeMap::new()));
                        }
                        _ => {
                            return err(format!(
                                "line {}: '{last}' is not an array of tables",
                                lineno + 1
                            ))
                        }
                    }
                } else {
                    // Materialize the table so empty tables round-trip.
                    table_at(&mut root, &path, lineno + 1)?;
                }
                continue;
            }
            let Some(eq) = line.find('=') else {
                return err(format!("line {}: expected 'key = value'", lineno + 1));
            };
            let key = line[..eq].trim().to_string();
            if key.is_empty() {
                return err(format!("line {}: empty key", lineno + 1));
            }
            let mut value_text = line[eq + 1..].trim().to_string();
            // Multi-line arrays: keep consuming lines until brackets balance.
            while bracket_depth(&value_text)? > 0 {
                let Some((_, next)) = lines.next() else {
                    return err(format!("line {}: unterminated array", lineno + 1));
                };
                value_text.push(' ');
                value_text.push_str(strip_comment(next).trim());
            }
            let value = parse_value(value_text.trim(), lineno + 1)?;
            let table = table_at(&mut root, &path, lineno + 1)?;
            if table.insert(key.clone(), value).is_some() {
                return err(format!("line {}: duplicate key '{key}'", lineno + 1));
            }
        }
        Ok(TomlValue::Table(root))
    }

    /// Serializes a root table as a TOML document (sorted keys;
    /// scalar/array pairs first, sub-tables as `[headers]` after).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a [`TomlValue::Table`] or a nested
    /// array contains a table.
    pub fn to_toml_string(&self) -> String {
        let TomlValue::Table(root) = self else {
            panic!("to_toml_string requires a root table");
        };
        let mut out = String::new();
        write_table(&mut out, root, &mut Vec::new());
        out
    }

    /// Member lookup on a table.
    pub fn get(&self, key: &str) -> Option<&TomlValue> {
        match self {
            TomlValue::Table(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TomlValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Wraps a `u64`, picking [`TomlValue::Int`] when it fits so
    /// in-range values keep the standard representation.
    pub fn from_u64(v: u64) -> TomlValue {
        match i64::try_from(v) {
            Ok(i) => TomlValue::Int(i),
            Err(_) => TomlValue::UInt(v),
        }
    }

    /// The numeric payload as f64 (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            TomlValue::Float(f) => Some(*f),
            TomlValue::Int(i) => Some(*i as f64),
            TomlValue::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// The integer payload as u64, if non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            TomlValue::Int(i) if *i >= 0 => Some(*i as u64),
            TomlValue::UInt(u) => Some(*u),
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
            TomlValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[TomlValue]> {
        match self {
            TomlValue::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// Drops a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str => escaped = !escaped,
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

/// Net `[`/`]` nesting of a partial value, respecting strings.
fn bracket_depth(text: &str) -> Result<i32, TomlError> {
    let mut depth = 0;
    let mut in_str = false;
    let mut escaped = false;
    for c in text.chars() {
        match c {
            '\\' if in_str => escaped = !escaped,
            '"' if !escaped => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => escaped = false,
        }
    }
    if in_str {
        return err("unterminated string");
    }
    Ok(depth)
}

/// Walks (creating as needed) to the table at `path`. A segment that
/// names an array-of-tables descends into its *latest* element, per
/// the TOML rule that `[x.sub]` after `[[x]]` addresses the element
/// the `[[x]]` header opened.
fn table_at<'a>(
    root: &'a mut BTreeMap<String, TomlValue>,
    path: &[String],
    lineno: usize,
) -> Result<&'a mut BTreeMap<String, TomlValue>, TomlError> {
    let mut current = root;
    for seg in path {
        let entry = current
            .entry(seg.clone())
            .or_insert_with(|| TomlValue::Table(BTreeMap::new()));
        match entry {
            TomlValue::Table(map) => current = map,
            TomlValue::Array(items) => match items.last_mut() {
                Some(TomlValue::Table(map)) => current = map,
                _ => return err(format!("line {lineno}: '{seg}' is not an array of tables")),
            },
            _ => return err(format!("line {lineno}: '{seg}' is not a table")),
        }
    }
    Ok(current)
}

fn parse_value(text: &str, lineno: usize) -> Result<TomlValue, TomlError> {
    let chars: Vec<char> = text.chars().collect();
    let mut pos = 0;
    let value = parse_value_at(&chars, &mut pos, lineno, 0)?;
    skip_ws(&chars, &mut pos);
    if pos != chars.len() {
        return err(format!("line {lineno}: trailing characters after value"));
    }
    Ok(value)
}

fn skip_ws(chars: &[char], pos: &mut usize) {
    while *pos < chars.len() && chars[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn parse_value_at(
    chars: &[char],
    pos: &mut usize,
    lineno: usize,
    depth: usize,
) -> Result<TomlValue, TomlError> {
    skip_ws(chars, pos);
    let Some(&c) = chars.get(*pos) else {
        return err(format!("line {lineno}: missing value"));
    };
    match c {
        '"' => parse_string(chars, pos, lineno),
        '[' => {
            if depth == MAX_DEPTH {
                return err(format!(
                    "line {lineno}: arrays nest deeper than {MAX_DEPTH}"
                ));
            }
            *pos += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(chars, pos);
                match chars.get(*pos) {
                    Some(']') => {
                        *pos += 1;
                        break;
                    }
                    Some(_) => {
                        items.push(parse_value_at(chars, pos, lineno, depth + 1)?);
                        skip_ws(chars, pos);
                        match chars.get(*pos) {
                            Some(',') => *pos += 1,
                            Some(']') => {}
                            _ => {
                                return err(format!("line {lineno}: expected ',' or ']' in array"))
                            }
                        }
                    }
                    None => return err(format!("line {lineno}: unterminated array")),
                }
            }
            Ok(TomlValue::Array(items))
        }
        _ => {
            let start = *pos;
            while *pos < chars.len() && !matches!(chars[*pos], ',' | ']') {
                *pos += 1;
            }
            let token: String = chars[start..*pos]
                .iter()
                .collect::<String>()
                .trim()
                .to_string();
            parse_scalar(&token, lineno)
        }
    }
}

fn parse_string(chars: &[char], pos: &mut usize, lineno: usize) -> Result<TomlValue, TomlError> {
    debug_assert_eq!(chars[*pos], '"');
    *pos += 1;
    let mut s = String::new();
    while let Some(&c) = chars.get(*pos) {
        *pos += 1;
        match c {
            '"' => return Ok(TomlValue::Str(s)),
            '\\' => {
                let Some(&esc) = chars.get(*pos) else {
                    return err(format!("line {lineno}: dangling escape"));
                };
                *pos += 1;
                s.push(match esc {
                    '"' => '"',
                    '\\' => '\\',
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    other => return err(format!("line {lineno}: unsupported escape '\\{other}'")),
                });
            }
            other => s.push(other),
        }
    }
    err(format!("line {lineno}: unterminated string"))
}

fn parse_scalar(token: &str, lineno: usize) -> Result<TomlValue, TomlError> {
    match token {
        "" => return err(format!("line {lineno}: empty value")),
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    let cleaned = token.replace('_', "");
    if !token.contains(['.', 'e', 'E']) {
        if let Ok(i) = cleaned.parse::<i64>() {
            return Ok(TomlValue::Int(i));
        }
        if let Ok(u) = cleaned.parse::<u64>() {
            return Ok(TomlValue::UInt(u));
        }
    }
    if let Ok(f) = cleaned.parse::<f64>() {
        if f.is_finite() {
            return Ok(TomlValue::Float(f));
        }
    }
    err(format!("line {lineno}: cannot parse value '{token}'"))
}

/// Whether a value must be written as `[[key]]` blocks rather than an
/// inline array (non-empty arrays whose elements are all tables).
fn is_array_of_tables(value: &TomlValue) -> bool {
    match value {
        TomlValue::Array(items) => {
            !items.is_empty() && items.iter().all(|i| matches!(i, TomlValue::Table(_)))
        }
        _ => false,
    }
}

fn write_table(out: &mut String, table: &BTreeMap<String, TomlValue>, path: &mut Vec<String>) {
    // Scalars and plain arrays first...
    for (key, value) in table {
        if !matches!(value, TomlValue::Table(_)) && !is_array_of_tables(value) {
            out.push_str(key);
            out.push_str(" = ");
            write_value(out, value);
            out.push('\n');
        }
    }
    // ...then sub-tables and arrays-of-tables with their headers.
    for (key, value) in table {
        if let TomlValue::Table(sub) = value {
            path.push(key.clone());
            if !out.is_empty() {
                out.push('\n');
            }
            out.push('[');
            out.push_str(&path.join("."));
            out.push_str("]\n");
            write_table(out, sub, path);
            path.pop();
        } else if is_array_of_tables(value) {
            let TomlValue::Array(items) = value else {
                unreachable!()
            };
            path.push(key.clone());
            for item in items {
                let TomlValue::Table(sub) = item else {
                    unreachable!()
                };
                if !out.is_empty() {
                    out.push('\n');
                }
                out.push_str("[[");
                out.push_str(&path.join("."));
                out.push_str("]]\n");
                write_table(out, sub, path);
            }
            path.pop();
        }
    }
}

fn write_value(out: &mut String, value: &TomlValue) {
    match value {
        TomlValue::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    other => out.push(other),
                }
            }
            out.push('"');
        }
        TomlValue::Int(i) => out.push_str(&i.to_string()),
        TomlValue::UInt(u) => out.push_str(&u.to_string()),
        TomlValue::Float(f) => {
            // `{:?}` keeps the shortest round-trippable form and always
            // marks floats as floats (`42.0`, not `42`).
            out.push_str(&format!("{f:?}"));
        }
        TomlValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        TomlValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(out, item);
            }
            out.push(']');
        }
        TomlValue::Table(_) => panic!("tables inside arrays are not supported"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_arrays() {
        let doc = r#"
# comment
name = "paper-field" # trailing comment
seed = 42
duration = 750.0
layouts = false
radios = [[20.0, 60.0], [60.0, 60.0]]
counts = [
    120,
    240,
]

[field]
kind = "paper"

[field.nested]
x = 1.5
"#;
        let v = TomlValue::parse(doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("paper-field"));
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("duration").unwrap().as_f64(), Some(750.0));
        assert_eq!(v.get("layouts").unwrap().as_bool(), Some(false));
        let radios = v.get("radios").unwrap().as_array().unwrap();
        assert_eq!(radios.len(), 2);
        assert_eq!(radios[0].as_array().unwrap()[0].as_f64(), Some(20.0));
        let counts = v.get("counts").unwrap().as_array().unwrap();
        assert_eq!(counts.len(), 2);
        let field = v.get("field").unwrap();
        assert_eq!(field.get("kind").unwrap().as_str(), Some("paper"));
        assert_eq!(
            field.get("nested").unwrap().get("x").unwrap().as_f64(),
            Some(1.5)
        );
    }

    #[test]
    fn string_escapes_roundtrip() {
        let doc = "s = \"a\\\"b\\\\c\\nd\"\n";
        let v = TomlValue::parse(doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\nd"));
        let written = v.to_toml_string();
        let again = TomlValue::parse(&written).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn writer_output_reparses_identically() {
        let doc = r#"
b = true
f = 0.1
i = -7
s = "hash # inside"
a = [1, 2, 3]
nested = [[1.0, 2.0], [3.0, 4.0]]

[t]
k = "v"
"#;
        let v = TomlValue::parse(doc).unwrap();
        let text = v.to_toml_string();
        assert_eq!(TomlValue::parse(&text).unwrap(), v);
        // deterministic output
        assert_eq!(text, TomlValue::parse(&text).unwrap().to_toml_string());
    }

    #[test]
    fn errors_are_reported() {
        assert!(TomlValue::parse("[unclosed").is_err());
        assert!(TomlValue::parse("x 1").is_err());
        assert!(TomlValue::parse("x = ").is_err());
        assert!(TomlValue::parse("x = [1, 2").is_err());
        assert!(TomlValue::parse("x = zebra").is_err());
        assert!(TomlValue::parse("x = 1\nx = 2").is_err());
        assert!(TomlValue::parse("[[aot").is_err());
        assert!(TomlValue::parse("x = 1\n[[x]]\ny = 2").is_err());
        assert!(TomlValue::parse("x = 1\n[x.sub]\ny = 2").is_err());
    }

    #[test]
    fn array_of_tables_roundtrip() {
        let doc = r#"
name = "variants-demo"

[[variants]]
label = "off"

[[variants]]
label = "one-step"
delta = 4.0

[variants.floor]
enable_blg = false

[[variants]]
label = "two-step"
"#;
        let v = TomlValue::parse(doc).unwrap();
        let items = v.get("variants").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].get("label").unwrap().as_str(), Some("off"));
        assert_eq!(items[1].get("delta").unwrap().as_f64(), Some(4.0));
        // [variants.floor] binds to the latest [[variants]] element
        assert_eq!(
            items[1]
                .get("floor")
                .unwrap()
                .get("enable_blg")
                .unwrap()
                .as_bool(),
            Some(false)
        );
        assert_eq!(items[2].get("label").unwrap().as_str(), Some("two-step"));
        let text = v.to_toml_string();
        assert_eq!(TomlValue::parse(&text).unwrap(), v, "{text}");
        // deterministic output
        assert_eq!(text, TomlValue::parse(&text).unwrap().to_toml_string());
    }

    #[test]
    fn nesting_depth_is_capped() {
        let deep = 100_000;
        let doc = format!("x = {}{}", "[".repeat(deep), "]".repeat(deep));
        let e = TomlValue::parse(&doc).unwrap_err();
        assert!(e.0.contains("deeper than"), "{e}");
        let header = format!("[{}]\nx = 1", vec!["a"; deep].join("."));
        assert!(TomlValue::parse(&header).is_err());
        // the cap itself still parses
        let doc = format!("x = {}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(TomlValue::parse(&doc).is_ok());
        let header = format!("[{}]\nx = 1", vec!["a"; MAX_DEPTH].join("."));
        assert!(TomlValue::parse(&header).is_ok());
    }

    #[test]
    fn int_float_distinction_survives() {
        let v = TomlValue::parse("i = 3\nf = 3.0").unwrap();
        assert_eq!(v.get("i").unwrap(), &TomlValue::Int(3));
        assert_eq!(v.get("f").unwrap(), &TomlValue::Float(3.0));
        assert_eq!(v.get("i").unwrap().as_f64(), Some(3.0));
    }
}
