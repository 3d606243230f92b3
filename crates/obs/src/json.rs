//! The one JSON writer and reader behind every JSONL surface of this
//! crate: round profiles (`ffmr report`, the `history` verb), query
//! profiles (`--explain`, the `slowlog` verb, `--slowlog-file`) and
//! spans (`--trace-file`).
//!
//! Writing is append-only into one `String`: [`object`] opens an
//! object, an [`ObjectWriter`] appends one `"key":value` member per
//! call, nested objects and arrays go into the same buffer. Reading
//! parses a line into a [`Value`] and pulls typed members out of it
//! through [`Fields`], whose errors name the record and the member.
//!
//! Only what the writer emits is supported by the reader: objects,
//! arrays, double-quoted strings with the standard escapes, numbers,
//! booleans and null. The writer never produces exotic forms (no
//! exponents with signs in keys, no lone surrogates), so this stays a
//! few hundred lines instead of a dependency.

use std::fmt::Write;

/// Appends `value` to `out` with JSON string escaping.
fn push_escaped(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => push_display(out, format_args!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Appends `v`'s `Display` rendering without an intermediate `String`.
fn push_display(out: &mut String, v: impl std::fmt::Display) {
    write!(out, "{v}").expect("writing to a String cannot fail");
}

/// Builds one single-line JSON object: `fill` appends the members.
pub(crate) fn object(capacity: usize, fill: impl FnOnce(&mut ObjectWriter)) -> String {
    let mut out = String::with_capacity(capacity);
    write_object(&mut out, fill);
    out
}

fn write_object(out: &mut String, fill: impl FnOnce(&mut ObjectWriter)) {
    out.push('{');
    fill(&mut ObjectWriter { out, empty: true });
    out.push('}');
}

/// Appends the members of one JSON object, in call order.
pub(crate) struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl ObjectWriter<'_> {
    /// Appends the separator and `"key":`.
    fn key(&mut self, key: &str) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push('"');
        push_escaped(self.out, key);
        self.out.push_str("\":");
    }

    /// A string member.
    pub(crate) fn str(&mut self, key: &str, value: &str) {
        self.key(key);
        self.out.push('"');
        push_escaped(self.out, value);
        self.out.push('"');
    }

    /// An unsigned integer member.
    pub(crate) fn uint(&mut self, key: &str, value: u64) {
        self.key(key);
        push_display(self.out, value);
    }

    /// A number member; non-finite values are written as `0` (JSON has
    /// no NaN/inf).
    pub(crate) fn float(&mut self, key: &str, value: f64) {
        self.key(key);
        if value.is_finite() {
            push_display(self.out, value);
        } else {
            self.out.push('0');
        }
    }

    /// A `true`/`false` member.
    pub(crate) fn flag(&mut self, key: &str, value: bool) {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// A nested object member.
    pub(crate) fn object(&mut self, key: &str, fill: impl FnOnce(&mut ObjectWriter)) {
        self.key(key);
        write_object(self.out, fill);
    }

    /// An array-of-objects member: `fill` appends one item's members.
    pub(crate) fn array<T>(
        &mut self,
        key: &str,
        items: &[T],
        fill: impl Fn(&T, &mut ObjectWriter),
    ) {
        self.key(key);
        self.out.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            write_object(self.out, |w| fill(item, w));
        }
        self.out.push(']');
    }
}

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64` (the writer emits nothing that
    /// loses precision at the magnitudes the recorder deals in).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses one complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    /// A short description of the first syntax error.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member lookup on an object (`None` on other variants).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64` (negative or fractional values are refused).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Typed access to this object's members; `what` names the record
    /// in errors ("event missing integer field 'task'").
    pub(crate) fn fields<'a>(&'a self, what: &'a str) -> Fields<'a> {
        Fields { obj: self, what }
    }
}

/// Typed member readers over one parsed object. `req_*` fail with the
/// record and member named; `opt_*` read an absent or ill-typed member
/// as `None`.
pub(crate) struct Fields<'a> {
    obj: &'a Value,
    what: &'a str,
}

impl Fields<'_> {
    fn missing(&self, kind: &str, key: &str) -> String {
        format!("{} missing {kind} field '{key}'", self.what)
    }

    pub(crate) fn opt_str(&self, key: &str) -> Option<String> {
        self.obj.get(key).and_then(Value::as_str).map(str::to_owned)
    }

    pub(crate) fn req_str(&self, key: &str) -> Result<String, String> {
        self.opt_str(key).ok_or_else(|| self.missing("string", key))
    }

    /// An unsigned integer member that fits `T` (`u64`, `usize`, `u32`).
    pub(crate) fn opt_int<T: TryFrom<u64>>(&self, key: &str) -> Option<T> {
        let n = self.obj.get(key).and_then(Value::as_u64)?;
        T::try_from(n).ok()
    }

    pub(crate) fn req_int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        self.opt_int(key)
            .ok_or_else(|| self.missing("integer", key))
    }

    pub(crate) fn opt_f64(&self, key: &str) -> Option<f64> {
        self.obj.get(key).and_then(Value::as_f64)
    }

    pub(crate) fn req_f64(&self, key: &str) -> Result<f64, String> {
        self.opt_f64(key)
            .ok_or_else(|| self.missing("numeric", key))
    }

    /// Whether the member is present and `true`.
    pub(crate) fn flag(&self, key: &str) -> bool {
        matches!(self.obj.get(key), Some(Value::Bool(true)))
    }

    /// A nested record, when the member is present.
    pub(crate) fn opt_object<T>(
        &self,
        key: &str,
        decode: impl FnOnce(&Value) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.obj.get(key).map(decode).transpose()
    }

    /// An array of nested records; an absent member is an empty array.
    pub(crate) fn array<T>(
        &self,
        key: &str,
        decode: impl Fn(&Value) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let items = self.obj.get(key).and_then(Value::as_array);
        items.unwrap_or_default().iter().map(decode).collect()
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8")?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number '{text}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = Value::parse(r#"{"a": 1, "b": [true, null, -2.5], "c": {"d": "x\ny"}, "e": "z"}"#)
            .unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        let b = v.get("b").and_then(Value::as_array).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b[0], Value::Bool(true));
        assert_eq!(b[1], Value::Null);
        assert_eq!(b[2].as_f64(), Some(-2.5));
        assert_eq!(
            v.get("c").and_then(|c| c.get("d")).and_then(Value::as_str),
            Some("x\ny")
        );
        assert_eq!(v.get("e").and_then(Value::as_str), Some("z"));
    }

    #[test]
    fn escapes_round_trip() {
        let v = Value::parse(r#"{"k": "a\\b\"c\tdA"}"#).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_str), Some("a\\b\"c\tdA"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("{} extra").is_err());
        assert!(Value::parse("\"open").is_err());
    }

    #[test]
    fn written_objects_read_back_and_errors_name_record_and_member() {
        let line = object(64, |w| {
            w.str("s", "q\"\u{1}");
            w.uint("n", 70_000);
            w.float("x", f64::NAN);
            w.flag("b", true);
            w.object("o", |w| w.uint("k", 1));
            w.array("a", &[1u64, 2], |item, w| w.uint("v", *item));
        });
        assert_eq!(
            line,
            r#"{"s":"q\"\u0001","n":70000,"x":0,"b":true,"o":{"k":1},"a":[{"v":1},{"v":2}]}"#
        );
        let v = Value::parse(&line).unwrap();
        let f = v.fields("rec");
        assert_eq!(f.req_str("s").unwrap(), "q\"\u{1}");
        assert_eq!(f.req_int::<u32>("n").unwrap(), 70_000);
        assert_eq!(f.opt_int::<u16>("n"), None, "does not fit");
        assert!(f.flag("b") && !f.flag("n") && !f.flag("absent"));
        let item = |i: &Value| i.fields("item").req_int::<u64>("v");
        assert_eq!(f.array("a", item).unwrap(), vec![1, 2]);
        assert_eq!(f.array("absent", item).unwrap(), Vec::<u64>::new());
        assert_eq!(
            f.opt_object("o", item).unwrap_err(),
            "item missing integer field 'v'"
        );
        assert_eq!(f.opt_object("absent", item).unwrap(), None);
        assert_eq!(
            f.req_int::<u64>("s").unwrap_err(),
            "rec missing integer field 's'"
        );
        assert_eq!(
            f.req_f64("nope").unwrap_err(),
            "rec missing numeric field 'nope'"
        );
        assert_eq!(f.req_str("n").unwrap_err(), "rec missing string field 'n'");
    }

    #[test]
    fn as_u64_refuses_fractions_and_negatives() {
        assert_eq!(Value::Num(3.0).as_u64(), Some(3));
        assert_eq!(Value::Num(3.5).as_u64(), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
    }
}
