//! A minimal JSON reader/writer for telemetry capture files.
//!
//! Nothing can be downloaded and the workspace carries no JSON
//! library, so JSONL capture files are written and read by hand here.
//! Only the subset the [`crate::Event`] schema needs is supported: objects, arrays, strings (with `\"`, `\\`,
//! `\n`, `\t`, `\r`, `\uXXXX` escapes), numbers, booleans, and null.

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

/// Parses one JSON document. Returns `None` on any syntax error or
/// trailing garbage.
pub fn parse(input: &str) -> Option<JsonValue> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a finite `f64` to `out` in shortest round-trip form
/// (Rust's `Display`); non-finite values — which the recorder never
/// produces but a caller-supplied field might contain — degrade to
/// `null`, which reads back as 0.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `Display` for floats omits the ".0" on integral values,
        // which is still valid JSON.
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(JsonValue::Str),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'n' => self.literal("null", JsonValue::Null),
            _ => self.number(),
        }
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
    fn rejects_garbage() {
        for bad in ["", "{", "[1,", "\"open", "{\"a\":}", "1 2", "nul"] {
            assert!(parse(bad).is_none(), "{bad:?} must not parse");
        }
    }
}
