//! A minimal hand-rolled JSON document model, deterministic writer, and
//! strict reader.
//!
//! The vendored dependency shims carry no serde, so the workspace writes
//! its machine-readable artifacts (the report bodies of `mmvc run --json`
//! and `mmvc serve`, the experiment sidecars, trace exports) through this
//! module instead. Rendering is fully deterministic: objects keep
//! insertion order, floats use Rust's shortest round-trip formatting, and
//! non-finite floats (which JSON cannot represent) become `null`.
//!
//! [`Json::parse`] is the matching reader — a strict recursive-descent
//! parser over the same document model, used by `mmvc-serve` to decode
//! request bodies. It accepts exactly RFC 8259 documents (no trailing
//! commas, no comments), keeps object keys in document order (so
//! `parse(render(x))` preserves structure), and bounds nesting depth so
//! adversarial request bodies cannot overflow the stack.

/// A JSON value with insertion-ordered objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept exact; JSON numbers are decimal anyway).
    Int(i64),
    /// A float, rendered shortest-round-trip; non-finite renders `null`.
    Float(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order for byte-stable output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object literals.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders as a pretty-printed document (2-space indent, trailing
    /// newline) — byte-identical for equal values.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders as a single-line document with no whitespace — the form
    /// used for content-addressed cache keys, where one value must map
    /// to exactly one byte string.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null | Json::Bool(_) | Json::Int(_) | Json::Float(_) | Json::Str(_) => {
                self.write(out, 0)
            }
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (strict RFC 8259: a single value followed
    /// only by whitespace).
    ///
    /// Numbers without a fraction or exponent that fit `i64` become
    /// [`Json::Int`]; every other number becomes [`Json::Float`]. Object
    /// keys keep document order and duplicates are rejected — a cache
    /// key must not have two spellings of the same document.
    ///
    /// # Errors
    ///
    /// [`JsonParseError`] (with a byte offset) on any syntax error,
    /// nesting deeper than 128 levels, duplicate object keys, invalid
    /// escapes, or trailing garbage.
    ///
    /// # Examples
    ///
    /// ```
    /// use mmvc_core::json::Json;
    /// let doc = Json::parse(r#"{"algorithm": "greedy-mis", "n": 256}"#)?;
    /// assert_eq!(doc.get("n").and_then(Json::as_i64), Some(256));
    /// # Ok::<(), mmvc_core::json::JsonParseError>(())
    /// ```
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `i64` ([`Json::Int`] only — floats do not coerce).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (accepts [`Json::Int`] too, exactly as JSON
    /// offers one number type).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object fields, in document/insertion order.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                if v.is_finite() {
                    // Shortest representation that round-trips; ensure it
                    // still parses as a JSON number (no bare `1e5` issues:
                    // Rust emits `1e5` style only via {:e}, never {}).
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
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
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
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
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Error from [`Json::parse`]: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Deepest allowed nesting; request bodies come from the network, so the
/// parser must fail gracefully instead of overflowing the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
        }
    }

    fn enter(&mut self) -> Result<(), JsonParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")))
        } else {
            Ok(())
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.enter()?;
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        // Each key's field index and the offset just past it. Duplicates
        // are found by one sort when the object closes: O(k log k) for a
        // body of k keys, and for a request's few keys about as cheap as
        // comparing each key with the earlier ones. A document that also
        // has a syntax error later in the same object reports that error.
        let mut keys: Vec<(usize, usize)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            keys.push((fields.len(), self.pos));
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    first_repeat(&fields, keys)?;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: runs of plain bytes are copied as validated UTF-8.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            if self.pos > start {
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .expect("input is &str, so every byte run is valid UTF-8"),
                );
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')
                                        .map_err(|_| self.err("expected low surrogate"))?;
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| self.err("unpaired low surrogate"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(self.err(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                // A raw control byte (< 0x20) inside a string.
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// Exactly four ASCII hex digits (`from_str_radix` would also take a
    /// sign, so `\u+073` would read as `s`).
    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut code = 0;
        for &d in digits {
            let digit = char::from(d)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape digits"))?;
            code = code * 16 + digit;
        }
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digits after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digits in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII digits and punctuation");
        if integral {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err(format!("unparseable number `{text}`")))
    }
}

/// The duplicate-key error for an object's fields, given each key's
/// field index and the offset just past it: the repeat that comes first
/// in the document, at the offset the key ends.
fn first_repeat(
    fields: &[(String, Json)],
    mut keys: Vec<(usize, usize)>,
) -> Result<(), JsonParseError> {
    let key = |&(i, _): &(usize, usize)| fields[i].0.as_str();
    keys.sort_unstable_by(|a, b| key(a).cmp(key(b)).then(a.0.cmp(&b.0)));
    match keys
        .windows(2)
        .filter(|w| key(&w[0]) == key(&w[1]))
        .map(|w| w[1])
        .min()
    {
        Some((i, offset)) => Err(JsonParseError {
            offset,
            message: format!("duplicate object key {:?}", fields[i].0),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::Bool(true).render(), "true\n");
        assert_eq!(Json::Int(-3).render(), "-3\n");
        assert_eq!(Json::Float(0.5).render(), "0.5\n");
        assert_eq!(Json::Float(f64::NAN).render(), "null\n");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null\n");
        assert_eq!(
            Json::Str("a\"b\\c\nd".into()).render(),
            "\"a\\\"b\\\\c\\nd\"\n"
        );
        assert_eq!(Json::Str("\u{1}".into()).render(), "\"\\u0001\"\n");
    }

    #[test]
    fn renders_nested_deterministically() {
        let doc = Json::obj(vec![
            ("b", Json::Int(1)),
            ("a", Json::Arr(vec![Json::Int(2), Json::Null])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let expect = "{\n  \"b\": 1,\n  \"a\": [\n    2,\n    null\n  ],\n  \"empty_arr\": [],\n  \"empty_obj\": {}\n}\n";
        assert_eq!(doc.render(), expect);
        assert_eq!(doc.render(), doc.clone().render(), "byte stable");
    }

    #[test]
    fn float_formatting_round_trips() {
        for v in [0.1, 1.0 / 3.0, 1e-9, 123456.789, -0.0] {
            let rendered = Json::Float(v).render();
            let parsed: f64 = rendered.trim().parse().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{v} did not round trip");
        }
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("0.5").unwrap(), Json::Float(0.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("2E-2").unwrap(), Json::Float(0.02));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = Json::parse(r#"{"a": [1, {"b": null}, 2.5], "c": "x"}"#).unwrap();
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x"));
        let arr = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_i64(), Some(1));
        assert_eq!(arr[1].get("b"), Some(&Json::Null));
        assert_eq!(arr[2].as_f64(), Some(2.5));
        assert_eq!(doc.as_obj().unwrap().len(), 2);
    }

    #[test]
    fn parses_string_escapes() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\nd\tA\/""#).unwrap(),
            Json::Str("a\"b\\c\nd\tA/".into())
        );
        // Surrogate pair: 🎉 (U+1F389).
        assert_eq!(Json::parse(r#""🎉""#).unwrap(), Json::Str("🎉".into()));
        assert!(Json::parse(r#""\ud83c""#).is_err(), "unpaired surrogate");
        assert!(Json::parse(r#""\q""#).is_err(), "invalid escape");
        assert!(Json::parse("\"raw\ncontrol\"").is_err(), "raw control");
        assert!(Json::parse("\"open").is_err(), "unterminated");
    }

    #[test]
    fn render_parse_round_trips() {
        let doc = Json::obj(vec![
            ("ints", Json::Arr(vec![Json::Int(i64::MAX), Json::Int(-1)])),
            ("f", Json::Float(1.0 / 3.0)),
            ("s", Json::Str("tab\there \u{1} 🎉".into())),
            ("flag", Json::Bool(false)),
            ("nothing", Json::Null),
            ("nested", Json::obj(vec![("empty", Json::Arr(vec![]))])),
        ]);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.render_compact()).unwrap(), doc);
    }

    #[test]
    fn compact_rendering_is_single_line_and_stable() {
        let doc = Json::obj(vec![
            ("b", Json::Int(1)),
            ("a", Json::Arr(vec![Json::Int(2), Json::Null])),
        ]);
        assert_eq!(doc.render_compact(), r#"{"b":1,"a":[2,null]}"#);
        assert!(!doc.render_compact().contains('\n'));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "  ",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":}",
            "nul",
            "tru",
            "01",
            "1.",
            "1e",
            "-",
            "+1",
            "[1,]",
            "{\"a\":1,}",
            "\u{7f}",
            "1 2",
            "[1] x",
            // `\u` takes exactly four hex digits, never a sign.
            r#""\u+073""#,
            r#""\u-073""#,
            r#"{"algorithm": "greedy-mi\u+073"}"#,
            r#""\u12""#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn rejects_duplicate_keys_and_deep_nesting() {
        assert!(Json::parse(r#"{"a":1,"a":2}"#).is_err());
        // Keys compare decoded: an escaped spelling is the same key.
        assert!(Json::parse(r#"{"a":1,"\u0061":2}"#).is_err());
        assert!(Json::parse(r#"{"a":{"a":1},"b":{"a":2}}"#).is_ok());
        // The repeat that comes first in the document is the one reported.
        let err = Json::parse(r#"{"b":1,"a":2,"b":3,"a":4}"#).unwrap_err();
        assert_eq!(err.message, r#"duplicate object key "b""#);
        assert_eq!(err.offset, 16);
        let deep = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn many_keys_parse_and_a_late_duplicate_is_rejected() {
        // A 4 MiB request body holds about 400,000 such keys; checking
        // each key against every earlier one took minutes at 80,000.
        let mut doc = String::from("{");
        for i in 0..200_000 {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&format!("\"k{i}\":{i}"));
        }
        let parsed = Json::parse(&format!("{doc}}}")).unwrap();
        assert_eq!(parsed.as_obj().map(<[_]>::len), Some(200_000));
        assert_eq!(parsed.get("k199999").and_then(Json::as_i64), Some(199_999));
        let err = Json::parse(&format!("{doc},\"k0\":0}}")).unwrap_err();
        assert_eq!(err.message, "duplicate object key \"k0\"");
        assert_eq!(err.offset, doc.len() + 5, "reported right after the key");
    }

    #[test]
    fn big_integers_fall_back_to_float() {
        // One past i64::MAX is still a valid JSON number.
        let v = Json::parse("9223372036854775808").unwrap();
        assert_eq!(v, Json::Float(9.223372036854776e18));
        assert_eq!(
            Json::parse("9223372036854775807").unwrap(),
            Json::Int(i64::MAX)
        );
    }

    #[test]
    fn parse_error_reports_offset() {
        let err = Json::parse("[1, oops]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Valid documents covering every token kind, escapes included.
        fn seed_document(i: usize) -> String {
            let docs = [
                r#"{"algorithm": "greedy-mis", "scenario": "gnp-sparse", "n": 64, "seed": 7}"#,
                r#"{"session": 3, "insert": [[0, 1], [2, 3]], "delete": []}"#,
                r#"[null, true, false, -0.5e-3, 12, "a\"b\\c\u00e9\ud83c\udf89\n"]"#,
                r#"{"nested": {"deeper": [[[{}]]]}, "big": 9223372036854775808}"#,
            ];
            docs[i % docs.len()].to_string()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn parse_returns_on_arbitrary_bytes(
                bytes in proptest::collection::vec(any::<u8>(), 0..256)
            ) {
                let _ = Json::parse(&String::from_utf8_lossy(&bytes));
            }

            #[test]
            fn parse_returns_on_mutated_documents(
                doc in 0usize..4,
                edits in proptest::collection::vec((0u8..3, any::<usize>(), any::<u8>()), 1..6)
            ) {
                let mut bytes = seed_document(doc).into_bytes();
                prop_assert!(Json::parse(&String::from_utf8_lossy(&bytes)).is_ok());
                for (op, at, byte) in edits {
                    let i = at % (bytes.len() + 1);
                    match op {
                        0 if i < bytes.len() => bytes[i] = byte,
                        1 if i < bytes.len() => {
                            bytes.remove(i);
                        }
                        _ => bytes.insert(i, byte),
                    }
                }
                let _ = Json::parse(&String::from_utf8_lossy(&bytes));
            }
        }
    }
}
