//! A JSON value that writes itself. Floats print with every digit Rust's
//! shortest round-trip formatting gives, so a reader sees the number as
//! measured. Parsing goes through the repository's `serde_json` stand-in.

pub use serde::Value as Parsed;

/// A JSON tree under construction.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in the given order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An array of floats.
    pub fn nums(xs: &[f64]) -> Json {
        Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            // JSON has no NaN/Inf; a metric that is not finite is a bug
            // the reader must see, not a silently dropped key.
            Json::Num(x) if !x.is_finite() => f.write_str("null"),
            Json::Num(x) => write!(f, "{x:?}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_str(f: &mut std::fmt::Formatter<'_>, s: &str) -> std::fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Parse JSON text.
pub fn parse(text: &str) -> Result<Parsed, String> {
    serde_json::from_str_value(text).map_err(|e| format!("invalid JSON: {e:?}"))
}

/// Field `key` of an object.
pub fn get<'a>(v: &'a Parsed, key: &str) -> Option<&'a Parsed> {
    v.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A numeric value as `f64`.
pub fn num(v: &Parsed) -> Option<f64> {
    v.as_num().map(|n| n.as_f64())
}
