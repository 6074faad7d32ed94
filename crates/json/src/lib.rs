//! # mdagent-json — one JSON reader and writer for every artifact
//!
//! The workspace builds offline, without serde, and every committed
//! artifact goes through this crate: the `TRACE_*` span exports, the
//! `BENCH_*.json` documents, `OBS_report.json`, and mdlint's
//! `LINT_report.json` and `WIRE_schema.json`.
//!
//! * [`Value`] is the document tree. A number keeps its literal text, so
//!   each field's precision is chosen once, by its writer
//!   ([`Value::fixed`]), and a parse → render round trip is byte-stable.
//! * [`parse`] reads one document. It enforces JSON's grammar, numbers
//!   included, and names the byte offset of the first error.
//! * [`Value::compact`] renders without whitespace (JSONL lines, the
//!   Chrome trace document). [`Value::pretty`] renders committed
//!   documents: a container holding only scalars and arrays of scalars
//!   prints on one line, any other container prints one member per line
//!   with a two-space indent.
//!
//! ```
//! use mdagent_json::{parse, Value};
//!
//! let doc = Value::object([
//!     ("schema", "demo/v1".into()),
//!     ("ms", Value::fixed(1.5, 3)),
//!     ("rows", Value::array([Value::object([
//!         ("a", 1u64.into()),
//!         ("b", Value::array([2u64, 3])),
//!     ])])),
//! ]);
//! let text = doc.pretty();
//! assert_eq!(
//!     text,
//!     "{\n  \"schema\": \"demo/v1\",\n  \"ms\": 1.500,\n  \"rows\": [\n    {\"a\": 1, \"b\": [2, 3]}\n  ]\n}\n"
//! );
//! assert_eq!(parse(&text).unwrap(), doc);
//! assert_eq!(doc["ms"].as_f64(), Some(1.5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fmt::Write as _;
use std::ops::Index;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its literal text.
    Num(String),
    /// A string, escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as ordered pairs.
    Obj(Vec<(String, Value)>),
}

/// What [`Index`] yields for a missing member.
static NULL: Value = Value::Null;

impl Value {
    /// An object with the given members, in order.
    pub fn object<'k>(pairs: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// An array of the given elements.
    pub fn array<T: Into<Value>>(items: impl IntoIterator<Item = T>) -> Value {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }

    /// `v` with exactly `places` decimals (`null` when not finite).
    pub fn fixed(v: f64, places: usize) -> Value {
        if v.is_finite() {
            Value::Num(format!("{v:.places$}"))
        } else {
            Value::Null
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The text, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The literal text, if this is a number.
    pub fn as_num(&self) -> Option<&str> {
        match self {
            Value::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The number, if this is a non-negative integer that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_num()?.parse().ok()
    }

    /// The number as an `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_num()?.parse().ok()
    }

    /// The flag, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The document without whitespace.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Layout::Compact);
        out
    }

    /// The document laid out for committing, with a trailing newline (see
    /// the crate docs for the layout rule).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Layout::Block(0));
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Value::Arr(_) | Value::Obj(_))
    }

    /// A member that still lets its container print on one line.
    fn is_flat(&self) -> bool {
        match self {
            Value::Arr(items) => items.iter().all(Value::is_scalar),
            v => v.is_scalar(),
        }
    }

    fn write(&self, out: &mut String, layout: Layout) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => out.push_str(n),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => write_container(
                out,
                layout,
                ['[', ']'],
                items,
                Value::is_flat,
                |out, v, layout| v.write(out, layout),
            ),
            Value::Obj(pairs) => write_container(
                out,
                layout,
                ['{', '}'],
                pairs,
                |(_, v)| v.is_flat(),
                |out, (k, v), layout| {
                    write_str(out, k);
                    out.push_str(if layout == Layout::Compact { ":" } else { ": " });
                    v.write(out, layout);
                },
            ),
        }
    }
}

/// How a container prints its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// No whitespace at all.
    Compact,
    /// One line, `", "` between members.
    Inline,
    /// One member per line, indented one level deeper than the
    /// container, which sits at this depth.
    Block(usize),
}

fn write_container<T>(
    out: &mut String,
    layout: Layout,
    [open, close]: [char; 2],
    members: &[T],
    flat: impl Fn(&T) -> bool,
    member: impl Fn(&mut String, &T, Layout),
) {
    let layout = match layout {
        Layout::Block(_) if members.iter().all(flat) => Layout::Inline,
        layout => layout,
    };
    out.push(open);
    for (i, m) in members.iter().enumerate() {
        match layout {
            Layout::Compact if i > 0 => out.push(','),
            Layout::Inline if i > 0 => out.push_str(", "),
            Layout::Block(depth) => {
                out.push_str(if i > 0 { ",\n" } else { "\n" });
                indent(out, depth + 1);
            }
            _ => {}
        }
        let inner = match layout {
            Layout::Block(depth) => Layout::Block(depth + 1),
            layout => layout,
        };
        member(out, m, inner);
    }
    if let Layout::Block(depth) = layout {
        out.push('\n');
        indent(out, depth);
    }
    out.push(close);
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes `s` as a quoted JSON string: `"`, `\` and control characters
/// escaped, everything else verbatim.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Index<&str> for Value {
    type Output = Value;

    /// The member named `key`, or `null` when this is not an object or
    /// has no such member.
    fn index(&self, key: &str) -> &Value {
        match self {
            Value::Obj(pairs) => pairs
                .iter()
                .find(|(k, _)| k == key)
                .map_or(&NULL, |(_, v)| v),
            _ => &NULL,
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Self {
                Value::Num(n.to_string())
            }
        }
    )*};
}

from_integer!(u32, u64, usize, i64);

impl From<f64> for Value {
    /// The shortest text that reads back as `v` (`null` when not finite).
    fn from(v: f64) -> Self {
        if v.is_finite() {
            Value::Num(v.to_string())
        } else {
            Value::Null
        }
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    /// `null` for `None`.
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// Why [`parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Byte offset of the first character that does not fit.
    pub offset: usize,
    /// What was expected there.
    pub message: &'static str,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at offset {}", self.message, self.offset)
    }
}

impl std::error::Error for Error {}

/// Parses one JSON document, surrounded by optional whitespace.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(p.error("trailing data"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn rest(&self) -> &str {
        self.text.get(self.pos..).unwrap_or_default()
    }

    fn error(&self, message: &'static str) -> Error {
        Error {
            offset: self.pos,
            message,
        }
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.members(b'}', "expected `,` or `}`", |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(b':') {
                        return Err(p.error("expected `:`"));
                    }
                    pairs.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Value::Obj(pairs))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.members(b']', "expected `,` or `]`", |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                for (word, v) in [
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                    ("null", Value::Null),
                ] {
                    if self.rest().starts_with(word) {
                        self.pos += word.len();
                        return Ok(v);
                    }
                }
                Err(self.error("expected a value"))
            }
        }
    }

    /// A container's comma-separated members, from its opening bracket
    /// (next) through `close`.
    fn members(
        &mut self,
        close: u8,
        expected: &'static str,
        mut member: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            self.skip_ws();
            member(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.error(expected));
            }
        }
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, kept verbatim.
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        let literal = self.text.get(start..self.pos).unwrap_or_default();
        Ok(Value::Num(literal.to_owned()))
    }

    /// One or more ASCII digits.
    fn digits(&mut self) -> Result<(), Error> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("malformed number: expected a digit"));
        }
        Ok(())
    }

    fn string(&mut self) -> Result<String, Error> {
        if !self.eat(b'"') {
            return Err(self.error("expected a string"));
        }
        let mut out = String::new();
        loop {
            // Runs stop only at ASCII bytes, so both ends are char
            // boundaries.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(self.text.get(run..self.pos).unwrap_or_default());
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// The character after a backslash.
    fn escape(&mut self) -> Result<char, Error> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode();
            }
            _ => return Err(self.error("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The `XXXX` of a `\uXXXX` escape, joining a UTF-16 surrogate pair.
    fn unicode(&mut self) -> Result<char, Error> {
        let start = self.pos;
        let high = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&high) && self.rest().starts_with("\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error("unpaired surrogate"));
            }
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        } else {
            high
        };
        char::from_u32(code).ok_or(Error {
            offset: start,
            message: "unpaired surrogate",
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_malformed_numbers_at_their_offset() {
        for (text, offset) in [
            ("[-]", 2),
            ("[1-2]", 2),
            ("01", 1),
            ("1.", 2),
            ("1e", 2),
            ("--1", 1),
            ("1.2.3", 3),
        ] {
            let err = parse(text).expect_err(text);
            assert_eq!(err.offset, offset, "{text}: {err}");
        }
    }

    #[test]
    fn numbers_keep_their_literal_text() {
        for text in ["0", "-0.5", "12.500", "1e-7", "6E+2"] {
            let v = parse(text).unwrap();
            assert_eq!(v, Value::Num(text.to_owned()));
            assert_eq!(v.compact(), text);
        }
        assert_eq!(parse("12.500").unwrap().as_f64(), Some(12.5));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn escaping_handles_control_chars() {
        let v = Value::from("a\"b\\c\nd\u{1}é");
        assert_eq!(v.compact(), "\"a\\\"b\\\\c\\nd\\u0001é\"");
        assert_eq!(parse(&v.compact()).unwrap(), v);
        assert_eq!(
            parse(r#""\u00e9\ud83d\ude00\/\b\f\r\t""#).unwrap(),
            Value::from("é😀/\u{8}\u{c}\r\t")
        );
        for bad in [
            "\"\\ud83d\"",
            "\"\\ude00\"",
            "\"\\x\"",
            "\"\\u12\"",
            "\"a\u{1}\"",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn malformed_structure_names_the_offset() {
        for (text, offset) in [
            ("{\"a\" 1}", 5),
            ("{\"a\": 1,}", 8),
            ("[1 2]", 3),
            ("tru", 0),
            ("\"open", 5),
            ("{} x", 3),
        ] {
            assert_eq!(parse(text).expect_err(text).offset, offset, "{text}");
        }
    }

    #[test]
    fn pretty_inlines_flat_containers_only() {
        let doc = Value::object([
            ("empty", Value::array(Vec::<Value>::new())),
            (
                "flat",
                Value::object([("a", Value::Null), ("b", Value::array([true, false]))]),
            ),
            (
                "nested",
                Value::object([("inner", Value::object([("x", 1u32.into())]))]),
            ),
            ("none", Option::<u64>::None.into()),
            ("nan", f64::NAN.into()),
        ]);
        let text = "{\n  \"empty\": [],\n  \"flat\": {\"a\": null, \"b\": [true, false]},\n  \
                    \"nested\": {\n    \"inner\": {\"x\": 1}\n  },\n  \"none\": null,\n  \"nan\": null\n}\n";
        assert_eq!(doc.pretty(), text);
        assert_eq!(parse(text).unwrap().pretty(), text);
        assert_eq!(
            doc.compact(),
            "{\"empty\":[],\"flat\":{\"a\":null,\"b\":[true,false]},\"nested\":{\"inner\":{\"x\":1}},\"none\":null,\"nan\":null}"
        );
        assert_eq!(doc["nested"]["inner"]["x"].as_u64(), Some(1));
        assert_eq!(doc["flat"]["missing"], Value::Null);
    }
}
