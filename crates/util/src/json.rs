//! A minimal JSON value with a compact writer and a strict parser.
//!
//! Replaces `serde` for the workspace's two serialization needs: event
//! streams (`cascade-tgraph`) and bench-result reports (`cascade-bench`).
//! Numbers are stored as `f64`; integers up to 2^53 round-trip exactly,
//! which covers every id and nanosecond count the workspace writes.

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

/// Error produced by [`Json::parse`]: what went wrong and the byte offset.
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
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
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

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap a body of brackets would
/// overflow the stack of whichever thread parses it.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

#[cfg(test)]
thread_local! {
    /// Bytes this thread's parsers have handed to UTF-8 validation: what
    /// the tests read to tell one pass over a document from many.
    static VALIDATED_BYTES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{}'", word)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {} levels", MAX_DEPTH)));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number '{}'", text)))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are rejected rather than paired;
                            // nothing in the workspace emits them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run up to the next quote or
                    // backslash and validate only that slice: both
                    // delimiters are ASCII, so the run ends on a character
                    // boundary. (Validating the rest of the document per
                    // character made a string-heavy body quadratic.)
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    #[cfg(test)]
                    VALIDATED_BYTES.with(|n| n.set(n.get() + len));
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
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

    /// `Parser::string` used to re-validate the whole remaining document
    /// once per character: on this body (2.2 MiB, ~1.6 M string bytes)
    /// over a terabyte of UTF-8 validation against one pass's 1.6 MB.
    /// Counted, not timed, so a slow host cannot fail it.
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
        VALIDATED_BYTES.with(|n| n.set(0));
        let parsed = Json::parse(&body).unwrap();
        let validated = VALIDATED_BYTES.with(std::cell::Cell::get);
        assert_eq!(parsed, original);
        // At least every key's nine bytes, at most the body once.
        assert!(
            (110_000 * 9..=body.len()).contains(&validated),
            "validated {} bytes of a {}-byte body: the string scan is not one pass",
            validated,
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
