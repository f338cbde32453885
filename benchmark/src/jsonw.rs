//! The benchmark's one JSON writer, on `pollux_telemetry::json`'s
//! string and number encoders (the vendored `serde_json` writes
//! `Debug` text, which no JSON reader accepts). Everything written is
//! read back with `json::parse` before it leaves the process.

use pollux_telemetry::json::{self, JsonValue};

/// An object under construction.
#[derive(Debug)]
pub struct Obj {
    out: String,
}

impl Default for Obj {
    fn default() -> Self {
        Self { out: "{".into() }
    }
}

impl Obj {
    fn key(&mut self, key: &str) {
        if self.out.len() > 1 {
            self.out.push_str(", ");
        }
        json::write_str(&mut self.out, key);
        self.out.push_str(": ");
    }

    /// Adds a string member.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        json::write_str(&mut self.out, value);
        self
    }

    /// Adds a number member, with every digit `f64` holds.
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        json::write_f64(&mut self.out, value);
        self
    }

    /// Adds a whole-number member.
    pub fn uint(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        self.out.push_str(&value.to_string());
        self
    }

    /// Adds a boolean member.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a member whose value is already JSON text.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.out.push_str(value);
        self
    }

    /// The finished object text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for a metric list.
pub fn metrics(values: &[(&str, f64, &str)]) -> String {
    values
        .iter()
        .fold(Obj::default(), |obj, &(name, value, unit)| {
            obj.raw(
                name,
                &Obj::default()
                    .num("value", value)
                    .str("unit", unit)
                    .finish(),
            )
        })
        .finish()
}

/// Parses `text` back, so nothing malformed is ever printed or
/// written.
pub fn checked(text: String) -> Result<String, String> {
    match json::parse(&text) {
        Some(JsonValue::Obj(_)) => Ok(text),
        _ => Err(format!("the JSON writer produced malformed text: {text}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_objects_parse_back() {
        let text = Obj::default()
            .bool("correct", true)
            .uint("attempted", 640)
            .raw(
                "metrics",
                &metrics(&[("wall_s", 1.25, "s"), ("odd \"name\"", 0.1 + 0.2, "1/s")]),
            )
            .finish();
        let text = checked(text).unwrap();
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(640));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("wall_s").and_then(|w| w.get("value")),
            Some(&JsonValue::Num(1.25))
        );
        assert_eq!(
            m.get("odd \"name\"")
                .and_then(|w| w.get("value"))
                .and_then(JsonValue::as_f64),
            Some(0.1 + 0.2)
        );
    }

    #[test]
    fn non_finite_numbers_do_not_slip_through_as_garbage() {
        // `write_f64` degrades NaN to null, which still parses.
        let text = Obj::default().num("x", f64::NAN).finish();
        assert!(checked(text).is_ok());
        assert!(checked("{\"x\": }".into()).is_err());
    }
}
