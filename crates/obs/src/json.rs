//! A minimal, dependency-free JSON writer/parser.
//!
//! The writer half (`push_str`, `push_f64`, [`JsonField`], [`JsonObject`])
//! backs the trace and sweep exporters; the
//! parser half exists so exports can be round-trip-validated offline —
//! both in unit tests and by the `trace_check` CI binary — without pulling
//! in serde (the build environment has no registry access).

use std::fmt::Write as _;

/// Appends `s` as a JSON string literal (quoted, escaped).
pub fn push_str(out: &mut String, s: &str) {
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

/// Appends `v` as a JSON number; non-finite values become `null` (JSON has
/// no NaN/Infinity).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// How a value renders as JSON.
pub trait JsonField {
    /// Appends the value to `out`.
    fn write_value(&self, out: &mut String);
}

macro_rules! json_field_display {
    ($($ty:ty),*) => {$(
        impl JsonField for $ty {
            fn write_value(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
json_field_display!(u8, u32, u64, usize, bool);

impl JsonField for f64 {
    fn write_value(&self, out: &mut String) {
        push_f64(out, *self);
    }
}

impl JsonField for str {
    fn write_value(&self, out: &mut String) {
        push_str(out, self);
    }
}

impl<T: JsonField + ?Sized> JsonField for &T {
    fn write_value(&self, out: &mut String) {
        (**self).write_value(out);
    }
}

impl<T: JsonField + ?Sized> JsonField for Box<T> {
    fn write_value(&self, out: &mut String) {
        (**self).write_value(out);
    }
}

/// A slice is an array of its items.
impl<T: JsonField> JsonField for [T] {
    fn write_value(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_value(out);
        }
        out.push(']');
    }
}

impl<T: JsonField> JsonField for Vec<T> {
    fn write_value(&self, out: &mut String) {
        self[..].write_value(out);
    }
}

/// Writes one JSON object into a string field by field, keeping track of
/// the comma.
pub struct JsonObject<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> JsonObject<'a> {
    /// Opens an object at the end of `out`.
    pub fn open(out: &'a mut String) -> Self {
        out.push('{');
        Self { out, empty: true }
    }

    /// Appends `"key":` — after a comma, unless it is the first — and
    /// returns the string for the value.
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        push_str(self.out, key);
        self.out.push(':');
        self.out
    }

    /// Appends `"key":value`.
    pub fn field(&mut self, key: &str, value: impl JsonField) -> &mut Self {
        value.write_value(self.key(key));
        self
    }

    /// Appends `"key":{…}`: a nested object, which `fields` fills.
    pub fn object(&mut self, key: &str, fields: impl FnOnce(&mut JsonObject<'_>)) -> &mut Self {
        let mut object = JsonObject::open(self.key(key));
        fields(&mut object);
        object.close();
        self
    }

    /// Appends `"key":[{…},…]`: one object per item, which `fields` fills.
    pub fn array<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut fields: impl FnMut(&mut JsonObject<'_>, T),
    ) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut object = JsonObject::open(out);
            fields(&mut object, item);
            object.close();
        }
        out.push(']');
        self
    }

    /// Closes the object.
    pub fn close(&mut self) {
        self.out.push('}');
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document (trailing whitespace allowed).
    /// Malformed input — an unpaired surrogate escape, nesting deeper than
    /// `MAX_DEPTH` included — is a [`JsonError`], never a panic.
    pub fn parse(src: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data"));
        }
        Ok(v)
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether this is an object.
    pub fn is_obj(&self) -> bool {
        matches!(self, JsonValue::Obj(_))
    }
}

/// A parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub(crate) message: String,
    /// Byte offset in the source.
    pub(crate) offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// How deep arrays and objects may nest in a parsed document.
pub(crate) const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                // Each level is a stack frame: cap it, so hostile input
                // is an error rather than a stack overflow.
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nested deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("bad number"))
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// The character of a `\u` escape whose four hex digits start at
    /// `self.pos`: a non-surrogate code point, or a high surrogate
    /// (`D800..=DBFF`) followed by `\u` and a low one (`DC00..=DFFF`).
    /// Any other surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let cp = if (0xD800..=0xDBFF).contains(&hi) {
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return Err(self.err("unpaired surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(cp).ok_or_else(|| self.err("unpaired surrogate"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        // self.pos is at the first of four hex digits.
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        let cp = digits.iter().fold(0, |cp, &d| {
            cp * 16 + char::from(d).to_digit(16).expect("checked a hex digit")
        });
        self.pos += 4;
        Ok(cp)
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
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
                    return Ok(JsonValue::Obj(fields));
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
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(
            JsonValue::parse(" -1.5e3 ").unwrap(),
            JsonValue::Num(-1500.0)
        );
        assert_eq!(
            JsonValue::parse("\"a\\nb\"").unwrap(),
            JsonValue::Str("a\nb".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = JsonValue::parse(r#"{"a": [1, 2, {"b": false}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x"));
        let arr = v.get("a").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr[1].as_f64(), Some(2.0));
        assert_eq!(arr[2].get("b").and_then(JsonValue::as_bool), Some(false));
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("1 2").is_err());
        assert!(JsonValue::parse("\"open").is_err());
    }

    #[test]
    fn writer_escapes_round_trip() {
        let mut out = String::new();
        push_str(&mut out, "he said \"hi\"\n\tb\\c\u{1}");
        let parsed = JsonValue::parse(&out).unwrap();
        assert_eq!(parsed.as_str(), Some("he said \"hi\"\n\tb\\c\u{1}"));
    }

    #[test]
    fn writer_numbers_round_trip() {
        for v in [0.0, 1.0, -2.5, 0.1, 1e300, 123456789.25] {
            let mut out = String::new();
            push_f64(&mut out, v);
            assert_eq!(JsonValue::parse(&out).unwrap().as_f64(), Some(v));
        }
        let mut out = String::new();
        push_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            JsonValue::parse("\"\\u0041\\u00e9\"").unwrap().as_str(),
            Some("Aé")
        );
        // Surrogate pair for 😀 (U+1F600).
        assert_eq!(
            JsonValue::parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("😀")
        );
        // Raw multi-byte characters pass through unescaped too.
        assert_eq!(JsonValue::parse(r#""é😀""#).unwrap().as_str(), Some("é😀"));
    }

    #[test]
    fn unpaired_surrogates_are_errors() {
        // A JSON string of one `\uXXXX` escape per code unit.
        let escaped = |units: &[&str]| {
            let body: String = units.iter().map(|hex| format!("\\u{hex}")).collect();
            format!("\"{body}\"")
        };
        // A high surrogate followed by a non-surrogate escape, by a second
        // high surrogate, by a code point past the low range, by a plain
        // character or by nothing; and a lone low surrogate.
        for src in [
            escaped(&["d800", "0041"]),
            escaped(&["d800", "d800"]),
            escaped(&["d800", "e000"]),
            r#""\ud800A""#.to_string(),
            escaped(&["d800"]),
            escaped(&["dc00"]),
        ] {
            let err = JsonValue::parse(&src).unwrap_err();
            assert_eq!(err.message, "unpaired surrogate", "{src}");
        }
        // Both ends of the ranges pair up.
        assert_eq!(
            JsonValue::parse(&escaped(&["dbff", "dfff", "d800", "dc00"]))
                .unwrap()
                .as_str(),
            Some("\u{10FFFF}\u{10000}")
        );
        for src in [r#""\u12""#, r#""\u+041""#, r#""\u00g1""#] {
            let err = JsonValue::parse(src).unwrap_err();
            assert_eq!(err.message, "bad \\u escape", "{src}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (MAX_DEPTH, "nested deeper than 128")
        );
        // A million open brackets: an error, not a stack overflow.
        assert!(JsonValue::parse(&"[".repeat(1_000_000)).is_err());
        assert!(JsonValue::parse(&"{\"a\":".repeat(1_000_000)).is_err());
    }
}
