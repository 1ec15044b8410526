//! A minimal JSON reader/writer for the observability surfaces.
//!
//! The workspace builds offline (no serde), but the chrome-trace exporter,
//! its tests, and the perf-trajectory tooling all need to consume and
//! rewrite JSON.  This is a strict recursive-descent parser over the JSON
//! grammar — objects keep their key order, numbers are `f64` — plus the
//! writer and string escaper the exporters share.  It is not a streaming
//! parser and has a fixed recursion cap; both are fine for telemetry-sized
//! documents.

/// Nesting depth past which [`parse_json`] gives up (defends the stack
/// against adversarial `[[[[...`).
const MAX_DEPTH: usize = 128;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source key order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An object with `pairs` as its members, in the given order.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> Self {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// True when every number this value holds is finite — the only values
    /// [`write_json_into`] renders faithfully (it writes `null` for the
    /// others).
    pub fn is_finite(&self) -> bool {
        match self {
            JsonValue::Number(n) => n.is_finite(),
            JsonValue::Array(items) => items.iter().all(JsonValue::is_finite),
            JsonValue::Object(members) => members.iter().all(|(_, v)| v.is_finite()),
            JsonValue::Null | JsonValue::Bool(_) | JsonValue::String(_) => true,
        }
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// The member named `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Number(n)
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::Number(n as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Number(n as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(items: Vec<T>) -> Self {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Parses one complete JSON document; `None` on any syntax error or
/// trailing non-whitespace.
pub fn parse_json(text: &str) -> Option<JsonValue> {
    let bytes = text.as_bytes();
    let mut at = 0;
    let value = parse_value(bytes, &mut at, 0)?;
    skip_ws(bytes, &mut at);
    (at == bytes.len()).then_some(value)
}

fn skip_ws(bytes: &[u8], at: &mut usize) {
    while matches!(bytes.get(*at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *at += 1;
    }
}

fn eat(bytes: &[u8], at: &mut usize, expected: u8) -> Option<()> {
    (bytes.get(*at) == Some(&expected)).then(|| *at += 1)
}

fn parse_value(bytes: &[u8], at: &mut usize, depth: usize) -> Option<JsonValue> {
    if depth > MAX_DEPTH {
        return None;
    }
    skip_ws(bytes, at);
    match bytes.get(*at)? {
        b'n' => parse_literal(bytes, at, b"null", JsonValue::Null),
        b't' => parse_literal(bytes, at, b"true", JsonValue::Bool(true)),
        b'f' => parse_literal(bytes, at, b"false", JsonValue::Bool(false)),
        b'"' => Some(JsonValue::String(parse_string(bytes, at)?)),
        b'[' => parse_array(bytes, at, depth),
        b'{' => parse_object(bytes, at, depth),
        _ => parse_number(bytes, at),
    }
}

fn parse_literal(bytes: &[u8], at: &mut usize, word: &[u8], value: JsonValue) -> Option<JsonValue> {
    let end = at.checked_add(word.len())?;
    if bytes.get(*at..end)? == word {
        *at = end;
        Some(value)
    } else {
        None
    }
}

fn parse_array(bytes: &[u8], at: &mut usize, depth: usize) -> Option<JsonValue> {
    eat(bytes, at, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&b']') {
        *at += 1;
        return Some(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, at, depth + 1)?);
        skip_ws(bytes, at);
        match bytes.get(*at)? {
            b',' => *at += 1,
            b']' => {
                *at += 1;
                return Some(JsonValue::Array(items));
            }
            _ => return None,
        }
    }
}

fn parse_object(bytes: &[u8], at: &mut usize, depth: usize) -> Option<JsonValue> {
    eat(bytes, at, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&b'}') {
        *at += 1;
        return Some(JsonValue::Object(members));
    }
    loop {
        skip_ws(bytes, at);
        let key = parse_string(bytes, at)?;
        skip_ws(bytes, at);
        eat(bytes, at, b':')?;
        let value = parse_value(bytes, at, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, at);
        match bytes.get(*at)? {
            b',' => *at += 1,
            b'}' => {
                *at += 1;
                return Some(JsonValue::Object(members));
            }
            _ => return None,
        }
    }
}

fn parse_string(bytes: &[u8], at: &mut usize) -> Option<String> {
    eat(bytes, at, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*at)? {
            b'"' => {
                *at += 1;
                return Some(out);
            }
            b'\\' => {
                *at += 1;
                match bytes.get(*at)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let end = at.checked_add(5)?;
                        let hex = std::str::from_utf8(bytes.get(*at + 1..end)?).ok()?;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        // Surrogates are rejected rather than paired; the
                        // telemetry surfaces never emit them.
                        out.push(char::from_u32(code)?);
                        *at = end - 1;
                    }
                    _ => return None,
                }
                *at += 1;
            }
            _ => {
                // Copy one UTF-8 scalar (control bytes are tolerated).
                let rest = std::str::from_utf8(bytes.get(*at..)?).ok()?;
                let ch = rest.chars().next()?;
                out.push(ch);
                *at += ch.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], at: &mut usize) -> Option<JsonValue> {
    let start = *at;
    if bytes.get(*at) == Some(&b'-') {
        *at += 1;
    }
    while matches!(
        bytes.get(*at),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *at += 1;
    }
    if *at == start {
        return None;
    }
    std::str::from_utf8(&bytes[start..*at])
        .ok()?
        .parse()
        .ok()
        .filter(|n: &f64| n.is_finite())
        .map(JsonValue::Number)
}

/// Appends `text` to `out` with JSON string escaping applied (quotes,
/// backslashes, and control characters).
fn escape_json_into(text: &str, out: &mut String) {
    for ch in text.chars() {
        match ch {
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
}

/// Appends `value` to `out` as JSON text.  Containers holding only scalars
/// stay on one line; the others put each element on its own line, indented
/// two spaces per level.  Non-finite numbers (which JSON cannot express)
/// render as `null`.
pub fn write_json_into(value: &JsonValue, out: &mut String) {
    write_value(value, out, 0);
}

fn write_value(value: &JsonValue, out: &mut String, depth: usize) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(n) if n.is_finite() => out.push_str(&n.to_string()),
        JsonValue::Number(_) => out.push_str("null"),
        JsonValue::String(s) => write_string(s, out),
        JsonValue::Array(items) => {
            write_container(items.iter().map(|v| (None, v)), ('[', ']'), out, depth);
        }
        JsonValue::Object(members) => {
            let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
            write_container(members, ('{', '}'), out, depth);
        }
    }
}

fn write_string(text: &str, out: &mut String) {
    out.push('"');
    escape_json_into(text, out);
    out.push('"');
}

fn write_container<'a>(
    entries: impl Iterator<Item = (Option<&'a str>, &'a JsonValue)> + Clone,
    (open, close): (char, char),
    out: &mut String,
    depth: usize,
) {
    let nested = entries
        .clone()
        .any(|(_, v)| matches!(v, JsonValue::Array(_) | JsonValue::Object(_)));
    let indent = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    out.push(open);
    for (i, (key, value)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
            if !nested {
                out.push(' ');
            }
        }
        if nested {
            indent(out, depth + 1);
        }
        if let Some(key) = key {
            write_string(key, out);
            out.push_str(": ");
        }
        write_value(value, out, depth + 1);
    }
    if nested {
        indent(out, depth);
    }
    out.push(close);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc =
            parse_json(r#"{"a": [1, -2.5, 1e3], "b": {"c": null, "d": true}, "e": "x\n\"y\" é"}"#)
                .expect("valid document");
        let a = doc.get("a").and_then(|v| v.as_array()).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_f64(), Some(1000.0));
        assert_eq!(doc.get("b").unwrap().get("c"), Some(&JsonValue::Null));
        assert_eq!(
            doc.get("b").unwrap().get("d").and_then(|v| v.as_bool()),
            Some(true)
        );
        assert_eq!(
            doc.get("e").and_then(|v| v.as_str()),
            Some("x\n\"y\" \u{e9}")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            "{\"a\": }",
            "{\"a\": 1,}",
            "\"unterminated",
            "12 34",
            "nul",
            "[1] trailing",
            "NaN",
            "1e999",
            "\"bad \\x escape\"",
        ] {
            assert!(parse_json(bad).is_none(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(parse_json(&deep).is_none(), "past the recursion cap");
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse_json(&ok).is_some());
    }

    #[test]
    fn writer_round_trips_through_the_parser() {
        let text = r#"{"section": {"scale": "quick", "n": 1500, "ratio": 0.000123,
            "big": -2.5e21, "flags": [true, false, null], "empty": {}, "none": [],
            "rows": [{"k": 1, "name": "a\"b\\c\n"}, [1, [2]]]}}"#;
        let doc = parse_json(text).expect("valid document");
        let mut written = String::new();
        write_json_into(&doc, &mut written);
        assert_eq!(parse_json(&written), Some(doc.clone()), "{written}");
        // Rewriting is a fixed point: the rendering is canonical.
        let mut again = String::new();
        write_json_into(&parse_json(&written).unwrap(), &mut again);
        assert_eq!(written, again);
        assert!(
            written.contains("\"flags\": [true, false, null]"),
            "{written}"
        );

        let mut nan = String::new();
        write_json_into(
            &JsonValue::Array(vec![JsonValue::Number(f64::NAN)]),
            &mut nan,
        );
        assert_eq!(nan, "[null]");
    }

    #[test]
    fn builders_round_trip_and_finiteness_is_checked_deeply() {
        let doc = JsonValue::object([
            ("scale", JsonValue::from("quick")),
            ("n", 1500usize.into()),
            ("count", 7u64.into()),
            ("ratio", 0.25.into()),
            ("ok", true.into()),
            ("rows", vec![1.0, 2.5].into()),
        ]);
        let mut written = String::new();
        write_json_into(&doc, &mut written);
        let parsed = parse_json(&written).expect("valid document");
        assert_eq!(parsed, doc, "{written}");
        assert_eq!(parsed.get("n").and_then(JsonValue::as_f64), Some(1500.0));
        assert_eq!(
            parsed.get("scale").and_then(JsonValue::as_str),
            Some("quick")
        );
        assert!(doc.is_finite());

        let nested_nan = JsonValue::object([(
            "rows",
            JsonValue::from(vec![JsonValue::object([("v", f64::NAN.into())])]),
        )]);
        assert!(!nested_nan.is_finite());
        assert!(!JsonValue::from(f64::INFINITY).is_finite());
    }

    #[test]
    fn escaping_round_trips_through_the_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}f\u{e9}";
        let mut encoded = String::from("\"");
        escape_json_into(nasty, &mut encoded);
        encoded.push('"');
        assert_eq!(
            parse_json(&encoded).unwrap().as_str(),
            Some(nasty),
            "escape + parse must be the identity"
        );
    }
}
