//! A dependency-free JSON value, renderer, and recursive-descent parser.
//!
//! The workspace is offline (no serde). One value type serves every JSON
//! file the workspace writes or reads: Chrome traces (which the e2e trace
//! test parses back) and the benches' `BENCH_<name>.json` summaries.
//! [`Value::render`] is compact, [`Value::render_pretty`] indents two
//! spaces per level; both write a non-finite number as `null`, so every
//! rendered value parses.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (held as `f64`; integers up to 2^53 round-trip).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, key-sorted.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Member lookup, if the value is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// An integer value (counters, depths, nanoseconds).
    pub fn int(v: u64) -> Self {
        Value::Num(v as f64)
    }

    /// An object from `(key, value)` pairs; a repeated key keeps the last.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Self {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, None);
        out
    }

    /// Render to JSON text indented two spaces per level, one member or
    /// element per line; empty arrays and objects stay `[]` and `{}`.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, Some(0));
        out
    }

    /// `indent` is `None` for compact output, else the current depth.
    fn render_into(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) if !n.is_finite() => out.push_str("null"),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Value::Str(s) => render_str(s, out),
            Value::Arr(items) => render_seq(out, indent, ('[', ']'), items, |out, v, ind| {
                v.render_into(out, ind)
            }),
            Value::Obj(map) => render_seq(out, indent, ('{', '}'), map, |out, (k, v), ind| {
                render_str(k, out);
                out.push_str(if ind.is_some() { ": " } else { ":" });
                v.render_into(out, ind);
            }),
        }
    }
}

/// Render a bracketed sequence: compact when `indent` is `None`, else one
/// item per line at `indent + 1`, closing bracket back at `indent`.
fn render_seq<I: IntoIterator>(
    out: &mut String,
    indent: Option<usize>,
    (open, close): (char, char),
    items: I,
    mut item: impl FnMut(&mut String, I::Item, Option<usize>),
) {
    out.push(open);
    let inner = indent.map(|d| d + 1);
    let mut any = false;
    for (i, v) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        }
        item(out, v, inner);
        any = true;
    }
    if let (true, Some(d)) = (any, indent) {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(close);
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

/// Parse a JSON document. Returns a descriptive error with a byte offset on
/// malformed input.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// A JSON parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            msg: msg.to_string(),
            at: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not emitted by our writer;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this is
                    // always a valid boundary walk).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| (b & 0xC0) == 0x80) {
                        self.pos += 1;
                    }
                    s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .unwrap()
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let src = r#"{"traceEvents":[{"name":"send","ts":1.5,"args":{"ns":100}},{"ok":true,"x":null}],"unit":"ns"}"#;
        let v = parse(src).unwrap();
        assert_eq!(
            v.get("traceEvents").unwrap().as_arr().unwrap()[0]
                .get("name")
                .unwrap()
                .as_str(),
            Some("send")
        );
        let re = parse(&v.render()).unwrap();
        assert_eq!(v, re);
    }

    #[test]
    fn renders_integers_without_fraction() {
        assert_eq!(Value::Num(100.0).render(), "100");
        assert_eq!(Value::Num(1.25).render(), "1.25");
        assert_eq!(Value::Num(-3.0).render(), "-3");
    }

    #[test]
    fn renders_nested_values() {
        let v = Value::obj([
            ("name", Value::str("demo")),
            ("n", Value::int(3)),
            ("half", Value::Num(0.5)),
            (
                "tags",
                Value::Arr(vec![Value::int(1), Value::Bool(true), Value::Null]),
            ),
            ("empty", Value::obj::<&str>([])),
            ("none", Value::Arr(vec![])),
        ]);
        assert_eq!(
            v.render_pretty(),
            "{\n  \"empty\": {},\n  \"half\": 0.5,\n  \"n\": 3,\n  \"name\": \"demo\",\n  \
             \"none\": [],\n  \"tags\": [\n    1,\n    true,\n    null\n  ]\n}"
        );
        assert_eq!(
            v.render(),
            r#"{"empty":{},"half":0.5,"n":3,"name":"demo","none":[],"tags":[1,true,null]}"#
        );
        assert_eq!(parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn escapes_strings() {
        let s = Value::str("a\"b\\c\nd").render();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn non_finite_numbers_render_as_null_and_parse() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let v = Value::obj([("x", Value::Num(n)), ("ok", Value::int(1))]);
            let want = Value::obj([("x", Value::Null), ("ok", Value::int(1))]);
            assert_eq!(parse(&v.render()).unwrap(), want, "{n} compact");
            assert_eq!(parse(&v.render_pretty()).unwrap(), want, "{n} pretty");
        }
    }

    #[test]
    fn escapes_round_trip() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}".to_string());
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        let err = parse("nope").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn parses_numbers_and_unicode() {
        assert_eq!(parse("-12.5e2").unwrap(), Value::Num(-1250.0));
        assert_eq!(parse(r#""Aπ""#).unwrap(), Value::Str("Aπ".to_string()));
    }
}
