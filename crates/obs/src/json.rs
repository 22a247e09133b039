//! A minimal, dependency-free JSON writer/parser.
//!
//! The writer half (`push_str`, `push_f64`, [`JsonField`], [`JsonObject`])
//! backs the trace and sweep exporters; the
//! parser half exists so exports can be round-trip-validated offline —
//! both in unit tests and by the `trace_check` CI binary — without pulling
//! in serde (the build environment has no registry access).

use std::collections::BTreeMap;
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

/// `None` is `null`.
impl<T: JsonField> JsonField for Option<T> {
    fn write_value(&self, out: &mut String) {
        match self {
            Some(v) => v.write_value(out),
            None => out.push_str("null"),
        }
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

/// A triple is an array of three (a histogram bucket: `[lo, hi, count]`).
impl<A: JsonField, B: JsonField, C: JsonField> JsonField for (A, B, C) {
    fn write_value(&self, out: &mut String) {
        out.push('[');
        self.0.write_value(out);
        out.push(',');
        self.1.write_value(out);
        out.push(',');
        self.2.write_value(out);
        out.push(']');
    }
}

/// A map is an object, in key order.
impl<K: AsRef<str>, V: JsonField> JsonField for BTreeMap<K, V> {
    fn write_value(&self, out: &mut String) {
        let mut object = JsonObject::open(out);
        for (k, v) in self {
            object.field(k.as_ref(), v);
        }
        object.close();
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
    pub fn parse(src: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
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
    pub message: String,
    /// Byte offset in the source.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
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
                            let cp = self.hex4()?;
                            // Surrogate pairs (we never emit them, but
                            // accept them for robustness).
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.unwrap_or('\u{FFFD}'));
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

    fn hex4(&mut self) -> Result<u32, JsonError> {
        // self.pos is at the first of four hex digits.
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("short \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad \\u escape"))?;
        let cp = u32::from_str_radix(text, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
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
}
