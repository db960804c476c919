//! A small, dependency-free JSON layer.
//!
//! The repository originally leaned on `serde`/`serde_json` for catalog and
//! scenario persistence. Those crates are external dependencies, and the
//! build environments this repo targets cannot assume a reachable registry,
//! so the workspace carries its own JSON value type, parser, writers, and a
//! pair of conversion traits ([`ToJson`] / [`FromJson`]) plus `macro_rules!`
//! helpers that mirror the encodings `serde` derives produced:
//!
//! * named-field structs → objects keyed by field name ([`json_struct!`](crate::json_struct)),
//! * newtype structs → the bare inner value ([`json_newtype!`](crate::json_newtype)),
//! * unit-variant enums → the variant name as a string ([`json_unit_enum!`](crate::json_unit_enum)),
//! * payload-carrying enum variants → externally tagged
//!   (`{"Variant": payload}`), hand-written at the defining type.
//!
//! Keeping the encodings identical means every pre-existing round-trip test
//! and every `.json` artifact produced by earlier runs stays valid.
//!
//! Numbers preserve their integer/float lexical class through a round trip
//! ([`Num`]); object key order is preserved as written.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON number, kept in its lexical class so `42` never becomes `42.0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    /// A non-negative integer literal.
    U(u64),
    /// A negative integer literal.
    I(i64),
    /// A float literal (has a `.`, exponent, or does not fit an integer).
    F(f64),
}

impl Num {
    /// The value as `f64` (lossy for very large integers).
    pub fn as_f64(self) -> f64 {
        match self {
            Num::U(u) => u as f64,
            Num::I(i) => i as f64,
            Num::F(f) => f,
        }
    }

    /// The value as `u64` when it is a non-negative integer literal.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Num::U(u) => Some(u),
            Num::I(i) => u64::try_from(i).ok(),
            Num::F(_) => None,
        }
    }

    /// The value as `i64` when it is an integer literal in range.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Num::U(u) => i64::try_from(u).ok(),
            Num::I(i) => Some(i),
            Num::F(_) => None,
        }
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Num(Num),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A conversion or parse failure, with a human-readable path/context.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

static NULL: Json = Json::Null;

impl Json {
    /// A one-word description of the value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Look up a key in an object; `None` when absent or not an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Look up a key in an object, treating a missing key as `null`.
    ///
    /// Errors when `self` is not an object. Missing-as-null lets
    /// `Option<T>` fields tolerate omitted keys while still failing
    /// loudly (with the key name) for required fields.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Obj(_) => Ok(self.get(key).unwrap_or(&NULL)),
            other => err(format!(
                "expected object with field `{key}`, found {}",
                other.kind()
            )),
        }
    }

    /// An externally-tagged enum value: `{"Variant": payload}`.
    pub fn tagged(tag: &str, inner: Json) -> Json {
        Json::Obj(vec![(tag.to_string(), inner)])
    }

    /// Decompose an externally-tagged enum value into `(tag, payload)`.
    ///
    /// Accepts both the payload form `{"Variant": payload}` and the unit
    /// form `"Variant"` (payload is `null`), which is how mixed enums
    /// (some variants with data, some without) encode.
    pub fn as_tagged(&self) -> Result<(&str, &Json), JsonError> {
        match self {
            Json::Obj(fields) if fields.len() == 1 => Ok((&fields[0].0, &fields[0].1)),
            Json::Str(tag) => Ok((tag, &NULL)),
            other => err(format!(
                "expected enum (string or single-key object), found {}",
                other.kind()
            )),
        }
    }

    /// The elements of an array.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => err(format!("expected array, found {}", other.kind())),
        }
    }

    /// The string payload.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(format!("expected string, found {}", other.kind())),
        }
    }

    /// Serialize without whitespace.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out, None, 0);
        out
    }

    /// Serialize with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out, Some(2), 0);
        out
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_num(n: Num, out: &mut String) {
    match n {
        Num::U(u) => out.push_str(&u.to_string()),
        Num::I(i) => out.push_str(&i.to_string()),
        // Non-finite floats have no JSON representation; `null` matches what
        // JavaScript's own serializer does and keeps the output parseable.
        Num::F(f) if !f.is_finite() => out.push_str("null"),
        Num::F(f) => {
            let s = format!("{f}");
            out.push_str(&s);
            // `Display` drops the fraction for integral floats ("2" for 2.0);
            // keep the float lexical class so a round trip preserves it.
            if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                out.push_str(".0");
            }
        }
    }
}

fn write_value(v: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
    let (nl, pad, pad_in, colon) = match indent {
        Some(w) => (
            "\n",
            " ".repeat(w * depth),
            " ".repeat(w * (depth + 1)),
            ": ",
        ),
        None => ("", String::new(), String::new(), ":"),
    };
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => write_num(*n, out),
        Json::Str(s) => write_escaped(s, out),
        Json::Arr(items) if items.is_empty() => out.push_str("[]"),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                write_value(item, out, indent, depth + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push(']');
        }
        Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                write_escaped(k, out);
                out.push_str(colon);
                write_value(item, out, indent, depth + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push('}');
        }
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parse a JSON document. Trailing whitespace is allowed, trailing content
/// is an error.
pub fn parse(s: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
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
            err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => err("unexpected end of input"),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
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
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return err("truncated \\u escape");
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| JsonError("invalid \\u escape".into()))?;
        let v = u16::from_str_radix(s, 16).map_err(|_| JsonError("invalid \\u escape".into()))?;
        self.pos = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return err("unterminated string"),
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require a following \uXXXX low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    let code = 0x10000
                                        + ((hi as u32 - 0xD800) << 10)
                                        + (lo as u32 - 0xDC00);
                                    char::from_u32(code)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi as u32)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return err("invalid \\u escape"),
                            }
                            continue;
                        }
                        _ => return err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so boundaries
                    // are valid; copy bytes until the next boundary).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::Num(Num::U(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Num(Num::I(i)));
            }
        }
        match text.parse::<f64>() {
            Ok(f) => Ok(Json::Num(Num::F(f))),
            Err(_) => err(format!("invalid number `{text}` at byte {start}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Conversion traits
// ---------------------------------------------------------------------------

/// Types that can render themselves as a [`Json`] value.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Types that can be reconstructed from a [`Json`] value.
pub trait FromJson: Sized {
    /// Rebuild a value; errors carry the offending field/type context.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Serialize a value compactly.
pub fn to_string<T: ToJson>(v: &T) -> String {
    v.to_json().to_string_compact()
}

/// Serialize a value with indentation.
pub fn to_string_pretty<T: ToJson>(v: &T) -> String {
    v.to_json().to_string_pretty()
}

/// Parse and convert in one step.
pub fn from_str<T: FromJson>(s: &str) -> Result<T, JsonError> {
    T::from_json(&parse(s)?)
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => err(format!("expected bool, found {}", other.kind())),
        }
    }
}

macro_rules! impl_json_uint {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Num(Num::U(*self as u64))
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::Num(n) => n
                        .as_u64()
                        .and_then(|u| <$ty>::try_from(u).ok())
                        .ok_or_else(|| JsonError(format!(
                            "number out of range for {}", stringify!($ty)
                        ))),
                    other => err(format!(
                        "expected {}, found {}", stringify!($ty), other.kind()
                    )),
                }
            }
        }
    )+};
}

impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                let i = *self as i64;
                if i >= 0 {
                    Json::Num(Num::U(i as u64))
                } else {
                    Json::Num(Num::I(i))
                }
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::Num(n) => n
                        .as_i64()
                        .and_then(|i| <$ty>::try_from(i).ok())
                        .ok_or_else(|| JsonError(format!(
                            "number out of range for {}", stringify!($ty)
                        ))),
                    other => err(format!(
                        "expected {}, found {}", stringify!($ty), other.kind()
                    )),
                }
            }
        }
    )+};
}

impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(Num::F(*self))
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Num(n) => Ok(n.as_f64()),
            other => err(format!("expected number, found {}", other.kind())),
        }
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Num(Num::F(*self as f64))
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        f64::from_json(v).map(|f| f as f32)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str().map(str::to_string)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + Copy + Default, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = v.as_arr()?;
        if items.len() != N {
            return err(format!("expected array of {N}, found {}", items.len()));
        }
        let mut out = [T::default(); N];
        for (slot, item) in out.iter_mut().zip(items) {
            *slot = T::from_json(item)?;
        }
        Ok(out)
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_arr()? {
            [a, b] => Ok((A::from_json(a)?, B::from_json(b)?)),
            other => err(format!("expected 2-element array, found {}", other.len())),
        }
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
                .collect(),
            other => err(format!("expected object, found {}", other.kind())),
        }
    }
}

// ---------------------------------------------------------------------------
// Derive-replacement macros
// ---------------------------------------------------------------------------

/// Implement [`ToJson`]/[`FromJson`] for a named-field struct, encoding it
/// as an object keyed by field name (the encoding a `serde` derive used).
///
/// Invoke in the defining module so private fields are reachable:
///
/// ```ignore
/// json_struct!(BlockStats { max_block_bytes, avg_block_bytes });
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $( (stringify!($field).to_string(), $crate::json::ToJson::to_json(&self.$field)) ),+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok($ty {
                    $( $field: $crate::json::FromJson::from_json(v.field(stringify!($field))?)
                        .map_err(|e| $crate::json::JsonError(format!(
                            "{}.{}: {}", stringify!($ty), stringify!($field), e.0
                        )))? ),+
                })
            }
        }
    };
}

/// Implement [`ToJson`]/[`FromJson`] for a one-field tuple struct, encoding
/// it as the bare inner value (`ServerId(42)` ⇌ `42`), matching `serde`'s
/// newtype-struct encoding.
#[macro_export]
macro_rules! json_newtype {
    ($ty:ident($inner:ty)) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::ToJson::to_json(&self.0)
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok($ty(<$inner as $crate::json::FromJson>::from_json(v)?))
            }
        }
    };
}

/// Implement [`ToJson`]/[`FromJson`] for an enum of unit variants, encoding
/// each variant as its name string (`Guarantee::BestEffort` ⇌
/// `"BestEffort"`), matching `serde`'s unit-variant encoding.
#[macro_export]
macro_rules! json_unit_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $( $ty::$variant => $crate::json::Json::Str(stringify!($variant).to_string()) ),+
                }
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                match v.as_str()? {
                    $( stringify!($variant) => Ok($ty::$variant), )+
                    other => Err($crate::json::JsonError(format!(
                        "unknown {} variant `{}`", stringify!($ty), other
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-7", "3.5", "\"hi\"", "1e3"] {
            let v = parse(text).unwrap();
            let back = parse(&v.to_string_compact()).unwrap();
            assert_eq!(v, back, "{text}");
        }
    }

    #[test]
    fn integer_lexical_class_is_preserved() {
        assert_eq!(parse("42").unwrap(), Json::Num(Num::U(42)));
        assert_eq!(parse("-42").unwrap(), Json::Num(Num::I(-42)));
        assert_eq!(parse("42.0").unwrap(), Json::Num(Num::F(42.0)));
        assert_eq!(Json::Num(Num::F(2.0)).to_string_compact(), "2.0");
        assert_eq!(Json::Num(Num::U(2)).to_string_compact(), "2");
    }

    #[test]
    fn nested_structure_round_trips() {
        let text = r#"{"a":[1,2,{"b":null}],"c":"x\ny","d":{"e":-1.25}}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.to_string_compact(), text);
        let pretty = v.to_string_pretty();
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""line\n\ttab \"q\" \\ A 😀""#).unwrap();
        assert_eq!(v, Json::Str("line\n\ttab \"q\" \\ A 😀".to_string()));
        let round = parse(&v.to_string_compact()).unwrap();
        assert_eq!(v, round);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("nul").is_err());
        assert!(u32::from_json(&parse("-1").unwrap()).is_err());
        assert!(u8::from_json(&parse("300").unwrap()).is_err());
    }

    #[test]
    fn option_vec_map_conversions() {
        let v: Option<u32> = None;
        assert_eq!(v.to_json(), Json::Null);
        assert_eq!(Option::<u32>::from_json(&Json::Null).unwrap(), None);
        assert_eq!(
            Vec::<u32>::from_json(&parse("[1,2,3]").unwrap()).unwrap(),
            vec![1, 2, 3]
        );
        let arr: [f64; 3] = [1.0, 2.5, -3.0];
        assert_eq!(<[f64; 3]>::from_json(&arr.to_json()).unwrap(), arr);
        let pair = (1.0_f64, 2.0_f64);
        assert_eq!(<(f64, f64)>::from_json(&pair.to_json()).unwrap(), pair);
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), 7u64);
        assert_eq!(BTreeMap::<String, u64>::from_json(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn missing_field_is_null_for_options() {
        struct S {
            a: u32,
            b: Option<u32>,
        }
        json_struct!(S { a, b });
        let s: S = from_str(r#"{"a":1}"#).unwrap();
        assert_eq!((s.a, s.b), (1, None));
        assert!(from_str::<S>(r#"{"b":2}"#).is_err());
    }

    #[test]
    fn unit_enum_and_newtype_macros() {
        #[derive(Debug, PartialEq)]
        enum E {
            Left,
            Right,
        }
        json_unit_enum!(E { Left, Right });
        assert_eq!(to_string(&E::Left), "\"Left\"");
        assert_eq!(from_str::<E>("\"Right\"").unwrap(), E::Right);
        assert!(from_str::<E>("\"Up\"").is_err());

        #[derive(Debug, PartialEq)]
        struct W(i64);
        json_newtype!(W(i64));
        assert_eq!(to_string(&W(-9)), "-9");
        assert_eq!(from_str::<W>("-9").unwrap(), W(-9));
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(f64::NAN.to_json().to_string_compact(), "null");
        assert_eq!(f64::INFINITY.to_json().to_string_compact(), "null");
    }
}
