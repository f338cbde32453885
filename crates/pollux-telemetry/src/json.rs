//! The workspace's one JSON codec: a reader into [`JsonValue`] and a
//! compact, streaming writer.
//!
//! Nothing can be downloaded and the workspace carries no JSON
//! library, so every JSON text the workspace writes — JSONL captures,
//! Chrome traces, the zoo table — goes through [`write_obj`], which
//! places the braces, brackets, commas and escaped keys and builds no
//! intermediate tree. Only the subset those texts need is supported:
//! objects, arrays, strings (with `\"`, `\\`, `\n`, `\t`, `\r`, `\uXXXX`
//! escapes), numbers, booleans, and null.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always held as `f64`; the event schema's integers
    /// are far below 2^53, so the round trip is exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 1.8e19 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// How deep arrays and objects may nest before [`parse`] gives up: far
/// above the four levels a capture line, a Chrome trace or the
/// benchmark's config use, far below what overflows a thread's stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document. Returns `None` on any syntax error,
/// trailing garbage, or arrays and objects nested more than 128 deep.
pub fn parse(input: &str) -> Option<JsonValue> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Some(v)
    } else {
        None
    }
}

/// Appends `s` to `out` as a JSON string literal (quotes included).
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a finite `f64` to `out` in shortest round-trip form
/// (Rust's `Display`); non-finite values — which the recorder never
/// produces but a caller-supplied field might contain — degrade to
/// `null`, which [`crate::Event::parse_jsonl`] reads back as NaN.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `Display` for floats omits the ".0" on integral values,
        // which is still valid JSON.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A value [`Obj::field`] and [`Arr::item`] can write: a string, an
/// integer, an `f64` (non-finite → `null`), a bool, `None` as `null`,
/// or a slice or array of these as a JSON array.
pub trait ToJson {
    /// Appends `self` to `out` as JSON text.
    fn write_json(&self, out: &mut String);
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        write_f64(out, *self);
    }
}

/// Integers and bools: their `Display` text is their JSON text.
macro_rules! display_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_to_json!(u32, u64, usize, i64, bool);

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        write_arr(out, |arr| {
            for v in self {
                arr.item(v);
            }
        });
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String) {
        self[..].write_json(out);
    }
}

/// Appends one JSON object to `out`; `members` adds its members.
pub fn write_obj(out: &mut String, members: impl FnOnce(&mut Obj<'_>)) {
    out.push('{');
    members(&mut Obj {
        out: &mut *out,
        first: true,
    });
    out.push('}');
}

/// Appends one JSON array to `out`; `items` adds its elements.
fn write_arr(out: &mut String, items: impl FnOnce(&mut Arr<'_>)) {
    out.push('[');
    items(&mut Arr {
        out: &mut *out,
        first: true,
    });
    out.push(']');
}

/// The object [`write_obj`] is writing: each call appends one member.
pub struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

impl Obj<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::replace(&mut self.first, false) {
            self.out.push(',');
        }
        write_str(self.out, key);
        self.out.push(':');
        self.out
    }

    /// Adds the member `key` with a scalar or array value.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        value.write_json(self.key(key));
        self
    }

    /// Adds the member `key` holding a nested object.
    pub fn obj(&mut self, key: &str, members: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        write_obj(self.key(key), members);
        self
    }

    /// Adds the member `key` holding a nested array.
    pub fn arr(&mut self, key: &str, items: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
        write_arr(self.key(key), items);
        self
    }

    /// Adds the member `key` holding an array of pre-rendered JSON
    /// texts, one element per line (the Chrome trace's layout).
    pub fn lines<'s>(&mut self, key: &str, items: impl IntoIterator<Item = &'s str>) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(item);
        }
        out.push_str("\n]");
        self
    }
}

/// The array [`Obj::arr`] is writing: each call appends one element.
pub struct Arr<'a> {
    out: &'a mut String,
    first: bool,
}

impl Arr<'_> {
    fn next(&mut self) -> &mut String {
        if !std::mem::replace(&mut self.first, false) {
            self.out.push(',');
        }
        self.out
    }

    /// Adds a scalar or array element.
    pub fn item(&mut self, value: impl ToJson) -> &mut Self {
        value.write_json(self.next());
        self
    }

    /// Adds a nested object element.
    pub fn obj(&mut self, members: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        write_obj(self.next(), members);
        self
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Option<()> {
        (self.bump()? == b).then_some(())
    }

    fn value(&mut self) -> Option<JsonValue> {
        self.skip_ws();
        match self.peek()? {
            b'{' | b'[' if self.depth == MAX_DEPTH => None,
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => self.string().map(JsonValue::Str),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'n' => self.literal("null", JsonValue::Null),
            _ => self.number(),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Option<JsonValue>) -> Option<JsonValue> {
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Option<JsonValue> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Some(v)
        } else {
            None
        }
    }

    fn object(&mut self) -> Option<JsonValue> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Some(JsonValue::Obj(fields)),
                _ => return None,
            }
        }
    }

    fn array(&mut self) -> Option<JsonValue> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b']' => return Some(JsonValue::Arr(items)),
                _ => return None,
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Some(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = self.bytes.get(self.pos..self.pos + 4)?;
                        self.pos += 4;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        if (0xd800..0xdc00).contains(&code) {
                            // High surrogate: recombine with the low
                            // surrogate that must follow (standard
                            // JSON encodes astral-plane characters as
                            // \uD8xx\uDCxx pairs). A missing or
                            // malformed partner degrades to U+FFFD
                            // without consuming it.
                            let lo = self
                                .bytes
                                .get(self.pos..self.pos + 6)
                                .filter(|tail| tail.starts_with(b"\\u"))
                                .and_then(|tail| std::str::from_utf8(&tail[2..]).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .filter(|lo| (0xdc00..0xe000).contains(lo));
                            match lo {
                                Some(lo) => {
                                    self.pos += 6;
                                    let scalar = 0x10000 + ((code - 0xd800) << 10) + (lo - 0xdc00);
                                    out.push(char::from_u32(scalar).unwrap_or('\u{fffd}'));
                                }
                                None => out.push('\u{fffd}'),
                            }
                        } else {
                            // Lone low surrogates map to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                    }
                    _ => return None,
                },
                b if b < 0x80 => out.push(b as char),
                b => {
                    // Re-decode a multi-byte UTF-8 sequence.
                    let start = self.pos - 1;
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self.bytes.get(start..start + len)?;
                    self.pos = start + len;
                    out.push_str(std::str::from_utf8(chunk).ok()?);
                }
            }
        }
    }

    fn number(&mut self) -> Option<JsonValue> {
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
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse::<f64>()
            .ok()
            .map(JsonValue::Num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_event_schema_shapes() {
        let v = parse(r#"{"t":"point","time":-1.5,"fields":{"a":0.25,"b":3}}"#).unwrap();
        assert_eq!(v.get("t").unwrap().as_str(), Some("point"));
        assert_eq!(v.get("time").unwrap().as_f64(), Some(-1.5));
        let fields = v.get("fields").unwrap();
        assert_eq!(fields.get("a").unwrap().as_f64(), Some(0.25));
        let v = parse(r#"{"buckets":[[3,17],[64,1]]}"#).unwrap();
        let arr = v.get("buckets").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].as_arr().unwrap()[0].as_u64(), Some(64));
    }

    #[test]
    fn string_escapes_round_trip() {
        for s in ["plain", "with \"quotes\"", "tab\tnl\n", "uni → ☃", "\u{1}"] {
            let mut out = String::new();
            write_str(&mut out, s);
            let v = parse(&out).unwrap();
            assert_eq!(v.as_str(), Some(s), "escaping {s:?} as {out}");
        }
    }

    #[test]
    fn f64_round_trips_shortest() {
        for v in [0.0, -1.5, 0.1, 1e300, 123456789.0, f64::MIN_POSITIVE] {
            let mut out = String::new();
            write_f64(&mut out, v);
            assert_eq!(parse(&out).unwrap().as_f64(), Some(v), "via {out}");
        }
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn surrogate_pairs_recombine() {
        // Serde-style writers escape astral-plane characters as
        // surrogate pairs; our reader must accept them.
        let v = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
        // Lone surrogates (either half) degrade to U+FFFD.
        assert_eq!(parse(r#""\ud83d""#).unwrap().as_str(), Some("\u{fffd}"));
        assert_eq!(parse(r#""\ude00x""#).unwrap().as_str(), Some("\u{fffd}x"));
        // A high surrogate followed by a non-surrogate escape keeps
        // the follower intact.
        assert_eq!(parse(r#""\ud83dA""#).unwrap().as_str(), Some("\u{fffd}A"));
    }

    #[test]
    fn writer_places_separators_and_escapes_keys() {
        let mut out = String::new();
        write_obj(&mut out, |o| {
            o.field("a\"", -3i64)
                .field("b", [Some(1u64), None])
                .obj("c", |_| {})
                .arr("d", |arr| {
                    arr.item(f64::NAN).obj(|o| {
                        o.field("e", true);
                    });
                })
                .lines("f", ["1", "\"x\""]);
        });
        assert_eq!(
            out,
            "{\"a\\\"\":-3,\"b\":[1,null],\"c\":{},\"d\":[null,{\"e\":true}],\"f\":[\n1,\n\"x\"\n]}"
        );
        assert!(parse(&out).is_some());
    }

    #[test]
    fn nesting_is_bounded() {
        let at_bound = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&at_bound).is_some());
        let past = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert_eq!(parse(&past), None);
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,", "\"open", "{\"a\":}", "1 2", "nul"] {
            assert!(parse(bad).is_none(), "{bad:?} must not parse");
        }
    }
}
