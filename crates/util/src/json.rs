//! A minimal JSON value with a compact writer, over one strict pull
//! reader.
//!
//! Replaces `serde` for the workspace's serialization needs: recipes,
//! bench-result reports and serve's request bodies. [`JsonReader`] is
//! the one grammar (RFC 8259, nesting capped at 128): [`Json::parse`]
//! builds a tree over it, and a typed decoder reads straight into its
//! own types without building one. Numbers are `f64`; integers up to
//! 2^53 round-trip exactly, which covers every id and nanosecond count
//! the workspace writes.

use std::borrow::Cow;
use std::fmt;

/// A JSON value.
///
/// # Examples
///
/// ```
/// use cascade_util::Json;
///
/// let v = Json::parse("{\"name\": \"wiki\", \"events\": [1, 2, 3]}").unwrap();
/// assert_eq!(v.get("name").and_then(Json::as_str), Some("wiki"));
/// assert_eq!(v.get("events").and_then(Json::as_arr).map(|a| a.len()), Some(3));
/// let rendered = v.to_string();
/// assert_eq!(Json::parse(&rendered).unwrap(), v);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any number, stored as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

/// Error produced by [`JsonReader`] and [`Json::parse`]: what went wrong
/// and the byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a JSON document (a single value with optional surrounding
    /// whitespace).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input or trailing garbage.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut reader = JsonReader::new(input);
        let value = Json::read(&mut reader)?;
        reader.finish()?;
        Ok(value)
    }

    /// Reads the reader's next value as a tree.
    fn read(r: &mut JsonReader<'_>) -> Result<Json, JsonError> {
        Ok(match r.peek()? {
            JsonKind::Null => {
                r.null()?;
                Json::Null
            }
            JsonKind::Bool => Json::Bool(r.bool()?),
            JsonKind::Num => Json::Num(r.number()?),
            JsonKind::Str => Json::Str(r.string()?.into_owned()),
            JsonKind::Arr => {
                let mut items = Vec::new();
                r.begin_array()?;
                while r.next_item()? {
                    items.push(Json::read(r)?);
                }
                Json::Arr(items)
            }
            JsonKind::Obj => {
                let mut members = Vec::new();
                r.begin_object()?;
                while let Some(key) = r.next_key()? {
                    let key = key.into_owned();
                    members.push((key, Json::read(r)?));
                }
                Json::Obj(members)
            }
        })
    }

    /// Member of an object by key; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a [`Json::Num`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as a `usize`, if it is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= usize::MAX as f64 => {
                Some(*v as usize)
            }
            _ => None,
        }
    }

    /// The boolean, if this is a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The elements, if this is a [`Json::Arr`].
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is a [`Json::Obj`].
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                // JSON has no NaN/Infinity; degrade to null like
                // JavaScript's JSON.stringify.
                if v.is_finite() {
                    write!(f, "{}", v)
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}", item)?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{}", v)?;
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
            c => write!(f, "{}", c)?,
        }
    }
    f.write_str("\"")
}

/// Deepest array/object nesting [`JsonReader`] accepts. Tree building
/// and skipping recurse once per level, so without a cap a body of
/// brackets would overflow the stack of whichever thread reads it.
const MAX_DEPTH: usize = 128;

/// The kind of the value a [`JsonReader`] sits at, from its first byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JsonKind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// Byte classes for the scanner, one table lookup per byte.
const WS: u8 = 1;
const DIGIT: u8 = 2;
/// Any byte a number literal may hold: a number followed by one of
/// these is malformed, not a number and some trailing text.
const NUM: u8 = 4;
/// A byte that ends a run of string content.
const STRING_END: u8 = 8;

static CLASS: [u8; 256] = {
    let mut table = [0u8; 256];
    table[b' ' as usize] = WS;
    table[b'\t' as usize] = WS;
    table[b'\n' as usize] = WS;
    table[b'\r' as usize] = WS;
    let mut d = b'0';
    while d <= b'9' {
        table[d as usize] = DIGIT | NUM;
        d += 1;
    }
    table[b'-' as usize] = NUM;
    table[b'+' as usize] = NUM;
    table[b'.' as usize] = NUM;
    table[b'e' as usize] = NUM;
    table[b'E' as usize] = NUM;
    table[b'"' as usize] = STRING_END;
    table[b'\\' as usize] = STRING_END;
    table
};

#[cfg(test)]
thread_local! {
    /// Bytes this thread's string scans have consumed as content runs:
    /// what the tests read to tell one pass over a document from many.
    static SCANNED_BYTES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A strict pull reader over one JSON document.
///
/// The reader walks the text once, front to back, and hands out one
/// value at a time: scalars as `f64`, `bool` and borrowed strings,
/// containers as [`begin_array`](Self::begin_array) /
/// [`next_item`](Self::next_item) and
/// [`begin_object`](Self::begin_object) /
/// [`next_key`](Self::next_key) loops, anything unwanted through
/// [`skip`](Self::skip), which still validates it. Between calls it sits
/// at the first byte of the next value. Errors carry the byte offset of
/// the failure; [`finish`](Self::finish) refuses trailing text.
///
/// # Examples
///
/// ```
/// use cascade_util::{JsonKind, JsonReader};
///
/// let mut r = JsonReader::new(r#"{"xs": [1, 2.5], "note": "skipped"}"#);
/// let mut xs = Vec::new();
/// r.begin_object().unwrap();
/// while let Some(key) = r.next_key().unwrap() {
///     if key == "xs" && r.peek().unwrap() == JsonKind::Arr {
///         r.begin_array().unwrap();
///         while r.next_item().unwrap() {
///             xs.push(r.number().unwrap());
///         }
///     } else {
///         r.skip().unwrap();
///     }
/// }
/// r.finish().unwrap();
/// assert_eq!(xs, [1.0, 2.5]);
/// ```
pub struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// Whether the innermost container was just opened: its first
    /// member takes no `,`.
    first: bool,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `text`'s value (leading whitespace
    /// skipped).
    pub fn new(text: &'a str) -> JsonReader<'a> {
        let mut r = JsonReader {
            text,
            pos: 0,
            depth: 0,
            first: false,
        };
        r.skip_ws();
        r
    }

    /// Bytes of the text not yet read.
    pub fn remaining(&self) -> usize {
        self.text.len() - self.pos
    }

    fn err(&self, msg: &str) -> JsonError {
        self.err_at(self.pos, msg)
    }

    fn err_at(&self, pos: usize, msg: &str) -> JsonError {
        JsonError {
            pos,
            msg: msg.to_string(),
        }
    }

    fn byte(&self, at: usize) -> Option<u8> {
        self.text.as_bytes().get(at).copied()
    }

    fn class(&self, at: usize) -> u8 {
        self.byte(at).map_or(0, |b| CLASS[b as usize])
    }

    fn skip_ws(&mut self) {
        while self.class(self.pos) & WS != 0 {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.byte(self.pos) == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", word)))
        }
    }

    /// The kind of the next value, without consuming it.
    ///
    /// # Errors
    ///
    /// At a byte no value starts with, or at the end of the text.
    #[inline]
    pub fn peek(&self) -> Result<JsonKind, JsonError> {
        match self.byte(self.pos) {
            Some(b'n') => Ok(JsonKind::Null),
            Some(b't' | b'f') => Ok(JsonKind::Bool),
            Some(b'"') => Ok(JsonKind::Str),
            Some(b'[') => Ok(JsonKind::Arr),
            Some(b'{') => Ok(JsonKind::Obj),
            Some(b'-' | b'0'..=b'9') => Ok(JsonKind::Num),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Consumes `null`.
    ///
    /// # Errors
    ///
    /// When the next value is not `null`.
    pub fn null(&mut self) -> Result<(), JsonError> {
        self.literal("null")
    }

    /// Consumes `true` or `false`.
    ///
    /// # Errors
    ///
    /// When the next value is not a boolean.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        if self.byte(self.pos) == Some(b'f') {
            self.literal("false").map(|()| false)
        } else {
            self.literal("true").map(|()| true)
        }
    }

    /// Consumes a number: `-?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?`, and
    /// nothing number-like straight after it. The literal goes through
    /// `str::parse::<f64>`, so every value is the correctly rounded one.
    ///
    /// # Errors
    ///
    /// At the first byte that breaks the grammar, or at the literal's
    /// start when it overflows `f64`.
    #[inline]
    pub fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        let mut at = start;
        if self.byte(at) == Some(b'-') {
            at += 1;
        }
        match self.byte(at) {
            Some(b'0') => at += 1,
            Some(b'1'..=b'9') => at = self.digits(at + 1),
            _ => return Err(self.err_at(at, "expected a digit")),
        }
        if self.byte(at) == Some(b'.') {
            at = self.some_digits(at + 1)?;
        }
        if matches!(self.byte(at), Some(b'e' | b'E')) {
            at += 1;
            if matches!(self.byte(at), Some(b'+' | b'-')) {
                at += 1;
            }
            at = self.some_digits(at)?;
        }
        if self.class(at) & NUM != 0 {
            return Err(self.err_at(at, "invalid number"));
        }
        let literal = &self.text[start..at];
        let value = literal
            .parse::<f64>()
            .map_err(|_| self.err_at(start, "invalid number"))?;
        if value.is_infinite() {
            return Err(self.err_at(start, &format!("number '{}' overflows f64", literal)));
        }
        self.pos = at;
        Ok(value)
    }

    /// End of the digit run starting at `at`.
    fn digits(&self, mut at: usize) -> usize {
        while self.class(at) & DIGIT != 0 {
            at += 1;
        }
        at
    }

    /// End of the digit run starting at `at`, which must hold one.
    fn some_digits(&self, at: usize) -> Result<usize, JsonError> {
        match self.digits(at) {
            end if end == at => Err(self.err_at(at, "expected a digit")),
            end => Ok(end),
        }
    }

    /// Consumes a string: borrowed from the text when it holds no
    /// escape, decoded otherwise.
    ///
    /// # Errors
    ///
    /// On a missing quote, a bad escape (at the byte after the
    /// backslash) or the end of the text inside the string.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        self.scan_run();
        if self.byte(self.pos) == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = self.text[start..self.pos].to_string();
        loop {
            match self.byte(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => {
                    let from = self.pos;
                    self.scan_run();
                    out.push_str(&self.text[from..self.pos]);
                }
            }
        }
    }

    /// Moves past string content up to the next quote or backslash. Both
    /// are ASCII, so the run ends on a character boundary of the text,
    /// which is already UTF-8: no run is validated again.
    fn scan_run(&mut self) {
        let rest = &self.text.as_bytes()[self.pos..];
        let len = rest
            .iter()
            .position(|&b| CLASS[b as usize] & STRING_END != 0)
            .unwrap_or(rest.len());
        #[cfg(test)]
        SCANNED_BYTES.with(|n| n.set(n.get() + len));
        self.pos += len;
    }

    /// Decodes the escape whose backslash was just consumed.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.byte(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hex = self
                    .text
                    .as_bytes()
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                let code = hex
                    .iter()
                    .try_fold(0u32, |code, &b| Some(code * 16 + (b as char).to_digit(16)?))
                    .ok_or_else(|| self.err("invalid \\u escape"))?;
                // Surrogates are rejected rather than paired; nothing in
                // the workspace emits them.
                let c = char::from_u32(code)
                    .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                self.pos += 4;
                c
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Opens the container `bracket` starts, one level deeper.
    fn open(&mut self, bracket: u8) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {} levels", MAX_DEPTH)));
        }
        self.expect(bracket)?;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Closes the innermost container at its closing bracket.
    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
    }

    /// Consumes the `[` of an array; read its items with
    /// [`next_item`](Self::next_item).
    ///
    /// # Errors
    ///
    /// When the next value is not an array, or is nested too deep.
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.open(b'[')
    }

    /// Moves to the open array's next item: `true` with the reader at
    /// the item, which the caller must consume, or `false` once the
    /// closing `]` is consumed.
    ///
    /// # Errors
    ///
    /// When neither `,` nor `]` follows the previous item.
    #[inline]
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        match self.byte(self.pos) {
            Some(b']') => {
                self.close();
                return Ok(false);
            }
            Some(b',') if !first => self.pos += 1,
            _ if first => return Ok(true),
            _ => return Err(self.err("expected ',' or ']'")),
        }
        self.skip_ws();
        Ok(true)
    }

    /// Consumes the `{` of an object; read its members with
    /// [`next_key`](Self::next_key).
    ///
    /// # Errors
    ///
    /// When the next value is not an object, or is nested too deep.
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.open(b'{')
    }

    /// Moves to the open object's next member: its key, with the reader
    /// at the value, which the caller must consume, or `None` once the
    /// closing `}` is consumed.
    ///
    /// # Errors
    ///
    /// When neither `,` nor `}` follows the previous member, or the key
    /// or its `:` is malformed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        match self.byte(self.pos) {
            Some(b'}') => {
                self.close();
                return Ok(None);
            }
            Some(b',') if !first => {
                self.pos += 1;
                self.skip_ws();
            }
            _ if first => {}
            _ => return Err(self.err("expected ',' or '}'")),
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(Some(key))
    }

    /// Consumes the next value, whatever it is, validating it as
    /// strictly as reading it would.
    ///
    /// # Errors
    ///
    /// Wherever the value is malformed.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek()? {
            JsonKind::Null => self.null(),
            JsonKind::Bool => self.bool().map(drop),
            JsonKind::Num => self.number().map(drop),
            JsonKind::Str => self.string().map(drop),
            JsonKind::Arr => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip()?;
                }
                Ok(())
            }
            JsonKind::Obj => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
        }
    }

    /// Checks that only whitespace follows the value just read.
    ///
    /// # Errors
    ///
    /// At the first byte of trailing text.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters after value"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested() {
        let v = Json::parse(" { \"a\" : [ 1 , { \"b\" : [] } ] , \"c\" : null } ").unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0], Json::Num(1.0));
        assert_eq!(a[1].get("b").unwrap(), &Json::Arr(vec![]));
        assert_eq!(v.get("c"), Some(&Json::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::Str("line\n\"quoted\"\tback\\slash \u{1}end".into());
        let rendered = original.to_string();
        assert_eq!(Json::parse(&rendered).unwrap(), original);
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\"").unwrap(),
            Json::Str("Aé".into())
        );
    }

    #[test]
    fn every_escape_form_next_to_multibyte_characters() {
        let v = Json::parse(r#""é\"日\\😀\/\b\f\n\r\t\u0041\u00e9\u65e5é""#).unwrap();
        assert_eq!(
            v,
            Json::Str("é\"日\\😀/\u{8}\u{c}\n\r\tAé日é".into()),
            "escapes between multi-byte runs"
        );
        // Runs of every UTF-8 width directly against the delimiters.
        assert_eq!(Json::parse("\"é\"").unwrap(), Json::Str("é".into()));
        assert_eq!(
            Json::parse("\"😀\\\\日\"").unwrap().as_str(),
            Some("😀\\日")
        );
        assert_eq!(Json::parse("\"\"").unwrap(), Json::Str(String::new()));
    }

    #[test]
    fn truncated_strings_report_the_same_offsets() {
        let pos = |s: &str| Json::parse(s).unwrap_err().pos;
        // Unterminated: the error sits at the end of input, after the run.
        assert_eq!(pos("\"abé"), 5);
        assert_eq!(pos("{\"aé\":\"b"), 9);
        assert_eq!(pos("\"é\\n日"), 8);
        // A dangling backslash and a bad escape point at the escape byte.
        assert_eq!(pos("\"ab\\"), 4);
        assert_eq!(pos("\"é\\q\""), 4);
        // \u escapes: truncated, non-hex, multi-byte inside, surrogate.
        assert_eq!(pos("\"ab\\u00"), 4);
        assert_eq!(pos("\"ab\\u00zz\""), 4);
        assert_eq!(pos("\"ab\\u0é0\""), 4);
        assert_eq!(pos("\"é\\ud800\""), 4);
        // Every proper prefix of a document fails at or before its end.
        let doc = "{\"ké\":[\"a\\u00e9\\\"b\",\"日\\\\\"],\"z\":\"\\t😀\"}";
        assert!(Json::parse(doc).is_ok());
        for cut in (1..doc.len()).filter(|&c| doc.is_char_boundary(c)) {
            let err = Json::parse(&doc[..cut]).expect_err("truncated document");
            assert!(err.pos <= cut, "cut {}: error at {}", cut, err.pos);
        }
    }

    /// The string scan once re-validated the whole remaining document
    /// once per character: on this body (2.2 MiB, ~1.6 M string bytes)
    /// over a terabyte of UTF-8 validation against one pass's 1.6 MB.
    /// The text is a `&str`, so no run is validated now; what is counted
    /// is the content the scan consumes, which one pass bounds by the
    /// body. Counted, not timed, so a slow host cannot fail it.
    #[test]
    fn string_heavy_body_parses_in_one_pass() {
        let values = ["v", "é\"", "\"日", "a\\é", "😀\n", "plain ascii", "\u{1}é"];
        let members: Vec<(String, Json)> = (0..110_000)
            .map(|i| {
                let value = values[i % values.len()];
                (format!("k{:06}é", i), Json::Str(value.to_string()))
            })
            .collect();
        let original = Json::Obj(members);
        let body = original.to_string();
        assert!(body.len() >= 2 << 20, "body is {} bytes", body.len());
        SCANNED_BYTES.with(|n| n.set(0));
        let parsed = Json::parse(&body).unwrap();
        let scanned = SCANNED_BYTES.with(std::cell::Cell::get);
        assert_eq!(parsed, original);
        // At least every key's nine bytes, at most the body once.
        assert!(
            (110_000 * 9..=body.len()).contains(&scanned),
            "scanned {} bytes of a {}-byte body: the string scan is not one pass",
            scanned,
            body.len()
        );
        // Cutting the body inside its last string still fails at the cut.
        let cut = body.len() - 3;
        assert!(body.is_char_boundary(cut));
        assert_eq!(Json::parse(&body[..cut]).unwrap_err().pos, cut);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("\"\\q\"").is_err());
    }

    #[test]
    fn nesting_is_capped_not_recursed_without_bound() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.pos, MAX_DEPTH, "refused at the first bracket too deep");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
        // Deep enough to overflow a thread stack if it recursed.
        assert!(Json::parse(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn error_reports_position() {
        let err = Json::parse("[1, x]").unwrap_err();
        assert_eq!(err.pos, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn numbers_round_trip() {
        for v in [0.0, -1.0, 1e-9, 123456789.25, 9.007199254740991e15] {
            let rendered = Json::Num(v).to_string();
            assert_eq!(
                Json::parse(&rendered).unwrap(),
                Json::Num(v),
                "{}",
                rendered
            );
        }
    }

    /// RFC 8259's number grammar, `-?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?`:
    /// each spelling outside it is refused at the first byte that breaks
    /// it, and a literal that overflows `f64` at its start.
    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for (text, pos) in [
            ("01", 1),
            ("00.5", 1),
            ("-01", 2),
            ("1.", 2),
            ("-.5", 1),
            ("1.e5", 2),
            ("1e", 2),
            ("1e+", 3),
            ("-", 1),
            ("1.5.2", 3),
            ("1e5e", 3),
            ("2-1", 1),
            ("9e999", 0),
            ("-1e309", 0),
            ("[0, 1.e5]", 6),
            ("+1", 0),
            (".5", 0),
        ] {
            let err = Json::parse(text).expect_err(text);
            assert_eq!(err.pos, pos, "{}: {}", text, err);
        }
        for (text, value) in [
            ("0", 0.0f64),
            ("-0", -0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-2.5e-3", -2.5e-3),
            ("1E5", 1e5),
            ("1e+2", 100.0),
            ("1e-999", 0.0),
        ] {
            let parsed = Json::parse(text).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), value.to_bits(), "{}", text);
        }
    }

    #[test]
    fn reader_borrows_plain_strings_and_decodes_escaped_keys() {
        let mut r =
            JsonReader::new(r#" {"src": 1, "\u0064st": [true, null, {"x": "y"}], "k\"": "v"} "#);
        r.begin_object().unwrap();
        let key = r.next_key().unwrap().unwrap();
        assert!(matches!(key, Cow::Borrowed("src")));
        assert_eq!(r.number().unwrap(), 1.0);
        assert_eq!(r.next_key().unwrap().as_deref(), Some("dst"));
        assert_eq!(r.peek().unwrap(), JsonKind::Arr);
        r.skip().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("k\""));
        assert!(matches!(r.string().unwrap(), Cow::Borrowed("v")));
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn skip_validates_what_it_skips() {
        let skipped = |text: &str| {
            let mut r = JsonReader::new(text);
            r.skip().and_then(|()| r.finish()).map_err(|e| e.pos)
        };
        assert_eq!(
            skipped(r#"{"a": [1, {"b": "\u00e9"}], "c": -0.5e1}"#),
            Ok(())
        );
        assert_eq!(skipped("[1, 01]"), Err(5));
        assert_eq!(skipped(r#"{"a": "\q"}"#), Err(8));
        assert_eq!(skipped("[[]] x"), Err(5));
        assert_eq!(skipped("[tru]"), Err(1));
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(skipped(&deep), Err(MAX_DEPTH));
    }

    #[test]
    fn non_finite_degrades_to_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn as_usize_guards() {
        assert_eq!(Json::Num(3.0).as_usize(), Some(3));
        assert_eq!(Json::Num(3.5).as_usize(), None);
        assert_eq!(Json::Num(-1.0).as_usize(), None);
        assert_eq!(Json::Str("3".into()).as_usize(), None);
    }

    #[test]
    fn object_preserves_order() {
        let v = Json::parse("{\"z\":1,\"a\":2}").unwrap();
        assert_eq!(v.to_string(), "{\"z\":1,\"a\":2}");
    }
}
