//! The one JSON writer every report goes through: a string escaper, an
//! object builder that keeps keys in the order they are added, and an
//! array helper. Strings are escaped, numbers print as themselves, `None`
//! is `null`, and [`Raw`] is text that is already JSON.
//!
//! ```
//! let row = druzhba_core::json::Object::new().field("k", "a\"b").field("n", None::<u32>);
//! assert_eq!(row.to_string(), r#"{"k": "a\"b", "n": null}"#);
//! ```

use std::fmt::{self, Write as _};

/// `s` as a quoted JSON string: quote, backslash and every ASCII control
/// character escaped.
pub fn string(s: &str) -> String {
    render(s)
}

/// Anything that renders as one JSON value.
pub trait Value {
    /// Append the value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

impl Value for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
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
}

impl Value for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: Value + ?Sized> Value for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Value> Value for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

macro_rules! display_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display_values!(bool, u32, u64, usize);

/// Text that is already JSON, written verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Raw(pub String);

impl Value for Raw {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.0);
    }
}

/// A JSON object: inline (`{"k": v, "k2": v2}`) or, from
/// [`Object::block`], one entry per line.
#[derive(Debug, Clone, Default)]
pub struct Object {
    entries: Vec<String>,
    indent: Option<usize>,
}

impl Object {
    /// An empty inline object.
    pub fn new() -> Self {
        Object::default()
    }

    /// An empty object with one entry per line at `indent` spaces and its
    /// closing brace two spaces to the left.
    pub fn block(indent: usize) -> Self {
        Object {
            entries: Vec::new(),
            indent: Some(indent),
        }
    }

    /// Append `"key": value`.
    pub fn field(mut self, key: &str, value: impl Value) -> Self {
        let mut entry = string(key);
        entry.push_str(": ");
        value.write_json(&mut entry);
        self.entries.push(entry);
        self
    }
}

/// An inline object of `(key, value)` entries, in iteration order.
impl<K: AsRef<str>, V: Value> FromIterator<(K, V)> for Object {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        entries
            .into_iter()
            .fold(Object::new(), |o, (k, v)| o.field(k.as_ref(), v))
    }
}

impl Value for Object {
    fn write_json(&self, out: &mut String) {
        enclose(out, "{}", &self.entries, self.indent);
    }
}

impl fmt::Display for Object {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&render(self))
    }
}

fn render(v: impl Value) -> String {
    let mut out = String::new();
    v.write_json(&mut out);
    out
}

/// A JSON array of `items`: on one line (`indent` `None`), or one item
/// per line at `indent` spaces with the closing bracket two spaces to the
/// left.
pub fn array<T: Value>(items: impl IntoIterator<Item = T>, indent: Option<usize>) -> Raw {
    let items: Vec<String> = items.into_iter().map(render).collect();
    let mut out = String::new();
    enclose(&mut out, "[]", &items, indent);
    Raw(out)
}

/// Write `entries` between the two characters of `brackets`.
fn enclose(out: &mut String, brackets: &str, entries: &[String], indent: Option<usize>) {
    let (open, close) = brackets.split_at(1);
    out.push_str(open);
    // Written in place: a campaign report's rows array is its bulk, and
    // joining copies of it would multiply the report's peak memory.
    let pad = " ".repeat(indent.unwrap_or(0));
    let sep = if indent.is_some() { ",\n" } else { ", " };
    if indent.is_some() {
        out.push('\n');
    }
    for (i, entry) in entries.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        out.push_str(&pad);
        out.push_str(entry);
    }
    if let Some(n) = indent {
        out.push('\n');
        out.push_str(&pad[2.min(n)..]);
    }
    out.push_str(close);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string("\u{1}\t"), "\"\\u0001\\t\"");
    }

    #[test]
    fn block_layouts_indent_entries_and_close_two_spaces_left() {
        let obj = Object::block(4)
            .field("a", 1u32)
            .field("b", Raw("[]".into()));
        assert_eq!(obj.to_string(), "{\n    \"a\": 1,\n    \"b\": []\n  }");
        let rows = array([Object::new().field("k", true)], Some(4));
        assert_eq!(rows.0, "[\n    {\"k\": true}\n  ]");
        assert_eq!(array(Vec::<u32>::new(), Some(4)).0, "[\n\n  ]");
        assert_eq!(array([1u64, 2], None).0, "[1, 2]");
    }
}
