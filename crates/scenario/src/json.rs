//! A tiny, deterministic JSON emitter for scenario reports.
//!
//! The runner's byte-identical-output guarantee rests on this module:
//! fields are emitted in insertion order, floats through Rust's shortest
//! round-trip `Display` (which is locale-independent and stable across
//! platforms), and non-finite floats as `null` (JSON has no NaN).

use std::fmt::Write;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (emitted without a decimal point).
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float (non-finite values emit as `null`).
    Num(f64),
    /// A string (escaped on emission).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with **insertion-ordered** fields.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for a string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// An empty object builder.
    pub fn obj() -> JsonObj {
        JsonObj { fields: Vec::new() }
    }

    /// Serializes to a compact single-line string.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    // `Display` omits the decimal point for integral
                    // floats; keep it so consumers type the field as
                    // float. (`1` -> `1.0`)
                    let start = out.len();
                    let _ = write!(out, "{x}");
                    if !out[start..].contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
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
            Json::Arr(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (k, (key, val)) in fields.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    Json::Str(key.clone()).write(out);
                    out.push(':');
                    val.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Fluent builder for [`Json::Obj`].
#[derive(Debug, Clone, Default)]
pub struct JsonObj {
    fields: Vec<(String, Json)>,
}

impl JsonObj {
    /// Appends a field (insertion order is emission order).
    pub fn field(mut self, key: &str, value: Json) -> Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Appends a float field.
    pub fn num(self, key: &str, value: f64) -> Self {
        self.field(key, Json::Num(value))
    }

    /// Appends an unsigned integer field.
    pub fn uint(self, key: &str, value: u64) -> Self {
        self.field(key, Json::UInt(value))
    }

    /// Appends a string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.field(key, Json::str(value))
    }

    /// Finishes the object.
    pub fn build(self) -> Json {
        Json::Obj(self.fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emission_is_ordered_and_escaped() {
        let j = Json::obj()
            .str("name", "a\"b\\c\n")
            .uint("n", 3)
            .num("x", 1.5)
            .field("arr", Json::Arr(vec![Json::Int(-1), Json::Null, Json::Bool(true)]))
            .build();
        assert_eq!(
            j.to_string_compact(),
            r#"{"name":"a\"b\\c\n","n":3,"x":1.5,"arr":[-1,null,true]}"#
        );
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(Json::Num(1.0).to_string_compact(), "1.0");
        assert_eq!(Json::Num(0.5).to_string_compact(), "0.5");
        assert_eq!(Json::Num(-3.0).to_string_compact(), "-3.0");
        assert_eq!(Json::Num(1e-9).to_string_compact(), "0.000000001");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
        let nested = Json::Arr(vec![Json::Num(2.0), Json::Num(3.25)]);
        assert_eq!(nested.to_string_compact(), "[2.0,3.25]");
    }
}
