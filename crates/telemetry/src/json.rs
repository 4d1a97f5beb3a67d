//! A minimal JSON value type, writer, parser, and `json!` macro.
//!
//! The figure dumps used to go through `serde_json`; that was the only
//! registry dependency in the workspace's default build graph, so it is
//! replaced by this hand-rolled equivalent. It supports exactly what
//! the dumps and telemetry artifacts need — objects, arrays, numbers,
//! strings, bools, null — with deterministic (sorted-key) pretty output
//! and a strict recursive-descent [`parse`] so exporters' artifacts can
//! be read back by `tfc-trace`. All output goes through one streaming
//! [`PrettyWriter`]: [`Value::pretty`] for small documents, member by
//! member into a buffered file ([`write_file`]) for large artifacts.
//!
//! This module lives in `tfc-telemetry` (the lowest crate that writes
//! artifacts) and is re-exported as `tfc_bench::json` for the figure
//! harness.
//!
//! # Examples
//!
//! ```
//! use tfc_telemetry::json;
//!
//! let v = json!({"flows": [1, 2], "goodput_bps": 9.4e8, "note": "ok"});
//! assert!(v.pretty().contains("\"flows\""));
//! let back = json::parse(&v.pretty()).unwrap();
//! assert_eq!(back.get("note").unwrap().as_str(), Some("ok"));
//! assert_eq!(back.get("goodput_bps").unwrap().as_f64(), Some(9.4e8));
//! ```
//!
//! Note the writer prints integral floats without a decimal point, so
//! `parse` may return [`Value::Int`] where the writer saw a float; the
//! numeric accessors ([`Value::as_i64`], [`Value::as_f64`]) accept both.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Object storage. `BTreeMap` keeps dump output key-sorted and thus
/// byte-stable across runs.
pub type Map = BTreeMap<String, Value>;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integral number.
    Int(i64),
    /// Floating number (non-finite values print as `null`).
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object.
    Object(Map),
}

impl Value {
    /// Mutable array access, `None` for non-arrays.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Array items, `None` for non-arrays.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// String content, `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean content, `None` for non-booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Integer content (`Int`, or a `Float` with integral value).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i64),
            _ => None,
        }
    }

    /// Numeric content as `f64` (`Int` or `Float`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Object-member lookup, `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation (no trailing newline),
    /// through the same [`PrettyWriter`] the artifact exporters stream
    /// files with.
    pub fn pretty(&self) -> String {
        let mut w = PrettyWriter::new(Vec::new());
        w.value(self).expect("writing to a Vec cannot fail");
        String::from_utf8(w.finish()).expect("the writer emits UTF-8")
    }
}

/// One open container of a [`PrettyWriter`].
#[derive(Debug)]
struct Frame {
    object: bool,
    /// Whether a member was written yet (separator and `[]`/`{}` form).
    any: bool,
    /// The previous key, to debug-assert that object keys rise (the
    /// order a [`Map`] would have produced).
    #[cfg(debug_assertions)]
    last_key: String,
}

/// A streaming pretty-printer: the one JSON formatter in the workspace.
///
/// Output is two-space indented with `": "` after keys, `[]`/`{}` for
/// empty containers, non-finite floats as `null` and no trailing
/// newline — [`Value::pretty`] is this writer over a `Vec<u8>`. The
/// artifact exporters drive it member by member straight into a
/// buffered file, so no whole-document [`Value`] or `String` is built.
///
/// Object keys must be written in ascending byte order (the order a
/// [`Map`] iterates in); debug builds assert it.
///
/// ```
/// use tfc_telemetry::json::PrettyWriter;
///
/// let mut w = PrettyWriter::new(Vec::new());
/// w.begin_object().unwrap();
/// w.field("a", 1u64).unwrap();
/// w.key("b").unwrap();
/// w.begin_array().unwrap();
/// w.str("x").unwrap();
/// w.end_array().unwrap();
/// w.end_object().unwrap();
/// let out = String::from_utf8(w.finish()).unwrap();
/// assert_eq!(out, tfc_telemetry::json!({"a": 1, "b": ["x"]}).pretty());
/// ```
#[derive(Debug)]
pub struct PrettyWriter<W: Write> {
    out: W,
    stack: Vec<Frame>,
    /// A key was written and its value is next.
    after_key: bool,
}

impl<W: Write> PrettyWriter<W> {
    /// A writer emitting one document into `out`.
    pub fn new(out: W) -> Self {
        Self {
            out,
            stack: Vec::new(),
            after_key: false,
        }
    }

    /// Returns the sink once the document is complete.
    pub fn finish(self) -> W {
        debug_assert!(self.stack.is_empty(), "unclosed JSON container");
        self.out
    }

    /// Writes what precedes a value: nothing after a key or at top
    /// level, else the separator and indentation of an array item.
    fn item(&mut self) -> io::Result<()> {
        if std::mem::take(&mut self.after_key) {
            return Ok(());
        }
        match self.stack.last() {
            None => Ok(()),
            Some(top) => {
                debug_assert!(!top.object, "object member written without a key");
                self.next_member()
            }
        }
    }

    /// Starts the innermost container's next member: the separator
    /// after an earlier one, then a new line at the member's depth.
    fn next_member(&mut self) -> io::Result<()> {
        let depth = self.stack.len();
        let top = self
            .stack
            .last_mut()
            .expect("JSON member outside a container");
        if std::mem::replace(&mut top.any, true) {
            self.out.write_all(b",")?;
        }
        newline_indent(&mut self.out, depth)
    }

    fn begin(&mut self, object: bool, open: &[u8]) -> io::Result<()> {
        self.item()?;
        self.out.write_all(open)?;
        self.stack.push(Frame {
            object,
            any: false,
            #[cfg(debug_assertions)]
            last_key: String::new(),
        });
        Ok(())
    }

    fn end(&mut self, object: bool, close: &[u8]) -> io::Result<()> {
        let frame = self.stack.pop().expect("JSON end without begin");
        debug_assert_eq!(frame.object, object, "mismatched JSON container end");
        debug_assert!(!self.after_key, "JSON key without a value");
        if frame.any {
            newline_indent(&mut self.out, self.stack.len())?;
        }
        self.out.write_all(close)
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> io::Result<()> {
        self.begin(false, b"[")
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> io::Result<()> {
        self.end(false, b"]")
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> io::Result<()> {
        self.begin(true, b"{")
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> io::Result<()> {
        self.end(true, b"}")
    }

    /// Writes an object member's key; its value comes next.
    pub fn key(&mut self, k: &str) -> io::Result<()> {
        let top = self.stack.last_mut().expect("JSON key outside an object");
        debug_assert!(top.object, "JSON key inside an array");
        debug_assert!(!self.after_key, "JSON key without a value");
        #[cfg(debug_assertions)]
        {
            assert!(
                !top.any || top.last_key.as_str() < k,
                "JSON keys must rise: {k:?} after {:?}",
                top.last_key
            );
            top.last_key.clear();
            top.last_key.push_str(k);
        }
        self.next_member()?;
        write_escaped(&mut self.out, k)?;
        self.out.write_all(b": ")?;
        self.after_key = true;
        Ok(())
    }

    /// Writes one unquoted scalar token.
    fn atom(&mut self, token: fmt::Arguments) -> io::Result<()> {
        self.item()?;
        self.out.write_fmt(token)
    }

    /// Writes a string value.
    pub fn str(&mut self, s: &str) -> io::Result<()> {
        self.item()?;
        write_escaped(&mut self.out, s)
    }

    /// Writes a scalar (number, bool, `Option`) exactly as its
    /// [`Value`] form would print.
    pub fn scalar(&mut self, v: impl Into<Value>) -> io::Result<()> {
        self.value(&v.into())
    }

    /// Writes `key` then the scalar `v`.
    pub fn field(&mut self, key: &str, v: impl Into<Value>) -> io::Result<()> {
        self.key(key)?;
        self.scalar(v)
    }

    /// Writes `key` then the string `s`.
    pub fn str_field(&mut self, key: &str, s: &str) -> io::Result<()> {
        self.key(key)?;
        self.str(s)
    }

    /// Writes a whole (small) value tree.
    pub fn value(&mut self, v: &Value) -> io::Result<()> {
        match v {
            Value::Null => self.atom(format_args!("null")),
            Value::Bool(b) => self.atom(format_args!("{b}")),
            Value::Int(i) => self.atom(format_args!("{i}")),
            Value::Float(f) if f.is_finite() => self.atom(format_args!("{f}")),
            Value::Float(_) => self.atom(format_args!("null")),
            Value::Str(s) => self.str(s),
            Value::Array(items) => {
                self.begin_array()?;
                for item in items {
                    self.value(item)?;
                }
                self.end_array()
            }
            Value::Object(map) => {
                self.begin_object()?;
                for (k, v) in map {
                    self.key(k)?;
                    self.value(v)?;
                }
                self.end_object()
            }
        }
    }
}

fn newline_indent(out: &mut impl Write, indent: usize) -> io::Result<()> {
    out.write_all(b"\n")?;
    for _ in 0..indent {
        out.write_all(b"  ")?;
    }
    Ok(())
}

fn write_escaped(out: &mut impl Write, s: &str) -> io::Result<()> {
    out.write_all(b"\"")?;
    for c in s.chars() {
        match c {
            '"' => out.write_all(b"\\\"")?,
            '\\' => out.write_all(b"\\\\")?,
            '\n' => out.write_all(b"\\n")?,
            '\r' => out.write_all(b"\\r")?,
            '\t' => out.write_all(b"\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_all(c.encode_utf8(&mut [0; 4]).as_bytes())?,
        }
    }
    out.write_all(b"\"")
}

/// Creates `path` and streams one pretty-printed document into it
/// through `body`, buffered; the file never exists as a whole in memory.
pub fn write_file(
    path: &Path,
    body: impl FnOnce(&mut PrettyWriter<BufWriter<File>>) -> io::Result<()>,
) -> io::Result<()> {
    let mut w = PrettyWriter::new(BufWriter::new(File::create(path)?));
    body(&mut w)?;
    w.finish().flush()
}

/// Where `parse` failed and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document (the inverse of [`Value::pretty`]).
///
/// Strict: exactly one value, trailing whitespace only. Numbers without
/// `.`, `e`, or `E` that fit an `i64` become [`Value::Int`]; everything
/// else numeric becomes [`Value::Float`].
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
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
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the longest escape-free ASCII/UTF-8 run.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
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
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs are never produced by our
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        // Called just past the 'u'; consumes exactly four hex digits.
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad \\u escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("bad number"))
    }
}

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::Int(v as i64)
            }
        }
    )*};
}

impl_from_int!(i8, i16, i32, i64, u8, u16, u32, usize);

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        // Counters in this workspace are far below 2^63; fall back to
        // the float form rather than wrapping if one ever is not.
        i64::try_from(v).map_or(Value::Float(v as f64), Value::Int)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::Float(v as f64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<A: Into<Value>, B: Into<Value>> From<(A, B)> for Value {
    fn from((a, b): (A, B)) -> Self {
        Value::Array(vec![a.into(), b.into()])
    }
}

impl<T: Into<Value> + Copy> From<&T> for Value {
    fn from(v: &T) -> Self {
        (*v).into()
    }
}

/// Builds a [`Value`] from JSON-shaped syntax, mirroring the subset of
/// `serde_json::json!` the figure dumps use: object literals (keys are
/// string literals), array literals, and arbitrary expressions whose
/// types implement `Into<Value>`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::json::Value::Null };
    ([]) => { $crate::json::Value::Array(::std::vec::Vec::new()) };
    ([ $($elem:expr),+ $(,)? ]) => {
        $crate::json::Value::Array(::std::vec![ $($crate::json!($elem)),+ ])
    };
    ({}) => { $crate::json::Value::Object($crate::json::Map::new()) };
    ({ $($body:tt)+ }) => {{
        let mut map = $crate::json::Map::new();
        $crate::json_entries!(map, $($body)+);
        $crate::json::Value::Object(map)
    }};
    ($other:expr) => { $crate::json::Value::from($other) };
}

/// Internal muncher for `json!` object bodies. Nested `{...}` and
/// `[...]` values must be matched as token trees before the general
/// expression arm: a JSON object literal is not a valid Rust block
/// expression, and a mixed-type array literal is not a valid Rust
/// array expression.
#[doc(hidden)]
#[macro_export]
macro_rules! json_entries {
    ($map:ident, $key:literal : { $($inner:tt)* } , $($rest:tt)*) => {
        $map.insert($key.to_string(), $crate::json!({ $($inner)* }));
        $crate::json_entries!($map, $($rest)*);
    };
    ($map:ident, $key:literal : { $($inner:tt)* }) => {
        $map.insert($key.to_string(), $crate::json!({ $($inner)* }));
    };
    ($map:ident, $key:literal : [ $($inner:tt)* ] , $($rest:tt)*) => {
        $map.insert($key.to_string(), $crate::json!([ $($inner)* ]));
        $crate::json_entries!($map, $($rest)*);
    };
    ($map:ident, $key:literal : [ $($inner:tt)* ]) => {
        $map.insert($key.to_string(), $crate::json!([ $($inner)* ]));
    };
    ($map:ident, $key:literal : $value:expr , $($rest:tt)*) => {
        $map.insert($key.to_string(), $crate::json!($value));
        $crate::json_entries!($map, $($rest)*);
    };
    ($map:ident, $key:literal : $value:expr) => {
        $map.insert($key.to_string(), $crate::json!($value));
    };
    ($map:ident,) => {};
    ($map:ident) => {};
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::props::cases;
    use rng::rngs::StdRng;
    use rng::{Rng, RngCore};

    #[test]
    fn scalars_render() {
        assert_eq!(json!(null).pretty(), "null");
        assert_eq!(json!(3).pretty(), "3");
        assert_eq!(json!(2.5).pretty(), "2.5");
        assert_eq!(json!(true).pretty(), "true");
        assert_eq!(json!("hi").pretty(), "\"hi\"");
        assert_eq!(json!(f64::NAN).pretty(), "null");
    }

    #[test]
    fn object_and_array_shapes() {
        let v = json!({
            "pair": [1, 2.5],
            "nested": {"inner": "x"},
            "none": Option::<u64>::None,
            "some": Some(7u64),
        });
        let s = v.pretty();
        assert!(s.contains("\"pair\": [\n    1,\n    2.5\n  ]"));
        assert!(s.contains("\"inner\": \"x\""));
        assert!(s.contains("\"none\": null"));
        assert!(s.contains("\"some\": 7"));
    }

    #[test]
    fn from_tuple_vec_and_refs() {
        let pts: Vec<(u64, f64)> = vec![(1, 0.5), (2, 1.0)];
        let v: Value = pts.iter().collect::<Vec<_>>().into();
        assert_eq!(
            v,
            Value::Array(vec![
                Value::Array(vec![Value::Int(1), Value::Float(0.5)]),
                Value::Array(vec![Value::Int(2), Value::Float(1.0)]),
            ])
        );
    }

    #[test]
    fn keys_are_sorted_and_escaped() {
        let mut m = Map::new();
        m.insert("b\"x".into(), json!(1));
        m.insert("a".into(), json!(2));
        let s = Value::Object(m).pretty();
        let a = s.find("\"a\"").unwrap();
        let b = s.find("\"b\\\"x\"").unwrap();
        assert!(a < b);
    }

    #[test]
    fn as_array_mut_pushes() {
        let mut v = json!([]);
        v.as_array_mut().unwrap().push(json!(1));
        assert_eq!(v, Value::Array(vec![Value::Int(1)]));
        assert_eq!(json!(3).as_array_mut(), None);
    }

    #[test]
    fn big_u64_degrades_to_float() {
        let v: Value = u64::MAX.into();
        assert!(matches!(v, Value::Float(_)));
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-42").unwrap(), Value::Int(-42));
        assert_eq!(parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".into()));
        assert_eq!(parse("\"\\u0041\"").unwrap(), Value::Str("A".into()));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn parse_roundtrips_pretty_output() {
        let pts: Vec<(u64, f64)> = vec![(1, 0.5), (2, 1.5)];
        let v = json!({
            "counts": {"drop": 3, "enqueue": 1000},
            "name": "incast \"smoke\"\n",
            "pts": pts,
            "ratio": 0.97,
            "none": Option::<u64>::None,
            "big": u64::MAX,
        });
        assert_eq!(parse(&v.pretty()).unwrap(), v);
    }

    /// A random tree: every scalar kind, non-finite floats, strings
    /// that need escaping, empty and nested containers.
    fn random_value(rng: &mut StdRng, depth: u32) -> Value {
        const ALPHABET: [char; 10] = [
            'a', 'z', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{e9}', ' ',
        ];
        let string = |rng: &mut StdRng| -> String {
            (0..rng.gen_range(0..6usize))
                .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
                .collect()
        };
        match rng.gen_range(0..if depth == 0 { 6u32 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_bool(0.5)),
            2 => Value::Int(rng.next_u64() as i64 >> rng.gen_range(0..64u32)),
            3 => Value::Float(match rng.gen_range(0..4u32) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                // Non-integral, so it parses back as a float.
                _ => rng.gen_range(-1e9..1e9f64).trunc() + 0.5,
            }),
            4 | 5 => Value::Str(string(rng)),
            6 => Value::Array(
                (0..rng.gen_range(0..4usize))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Object(
                (0..rng.gen_range(0..4usize))
                    .map(|_| (string(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Drives the writer member by member, the way the exporters do.
    fn drive<W: Write>(w: &mut PrettyWriter<W>, v: &Value) -> io::Result<()> {
        match v {
            Value::Str(s) => w.str(s),
            Value::Array(items) => {
                w.begin_array()?;
                for item in items {
                    drive(w, item)?;
                }
                w.end_array()
            }
            Value::Object(map) => {
                w.begin_object()?;
                for (k, v) in map {
                    w.key(k)?;
                    drive(w, v)?;
                }
                w.end_object()
            }
            scalar => w.scalar(scalar.clone()),
        }
    }

    /// What `parse` reads back: non-finite floats were written as null.
    fn parsed_form(v: &Value) -> Value {
        match v {
            Value::Float(f) if !f.is_finite() => Value::Null,
            Value::Array(items) => Value::Array(items.iter().map(parsed_form).collect()),
            Value::Object(map) => Value::Object(
                map.iter()
                    .map(|(k, v)| (k.clone(), parsed_form(v)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    #[test]
    fn driven_writer_reproduces_pretty() {
        cases(300, |_, rng| {
            let v = random_value(rng, 4);
            let mut w = PrettyWriter::new(Vec::new());
            drive(&mut w, &v).unwrap();
            let out = String::from_utf8(w.finish()).unwrap();
            assert_eq!(out, v.pretty(), "tree {v:?}");
            assert_eq!(parse(&out).unwrap(), parsed_form(&v), "output {out}");
        });
    }

    #[test]
    fn pretty_layout_is_exact() {
        let inner = json!({"d": Value::Null});
        let v = json!({"a": [], "b": {}, "c": [1, inner], "e": f64::INFINITY});
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": [],\n  \"b\": {},\n  \"c\": [\n    1,\n    {\n      \"d\": null\n    }\n  ],\n  \"e\": null\n}"
        );
        assert_eq!(json!("\u{1f}\"\\").pretty(), "\"\\u001f\\\"\\\\\"");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "JSON keys must rise")]
    fn misordered_keys_are_caught() {
        let mut w = PrettyWriter::new(Vec::new());
        w.begin_object().unwrap();
        w.field("b", 1u64).unwrap();
        w.field("a", 2u64).unwrap();
    }

    #[test]
    fn accessors() {
        let v = json!({"a": [1, "x"], "f": 2.0});
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_str(),
            Some("x")
        );
        assert_eq!(v.get("f").unwrap().as_i64(), Some(2));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.as_i64(), None);
    }
}
