//! A minimal JSON reader (RFC 8259 subset) for validating the files the
//! exporters emit — used by the `obs_check` binary, the schema tests, and
//! downstream fixture tests that must assert "this output is valid
//! JSON" without external crates.
//!
//! Numbers are kept both as `f64` and, when they are non-negative
//! integers, as exact `u64` (counter values can exceed 2⁵³).
//!
//! The reader is total: every input gives a value or an error naming the
//! byte offset where reading stopped (`… at byte N`). Arrays and objects
//! nest at most [`MAX_DEPTH`] deep, so a hostile input cannot overflow
//! the stack.

use std::collections::BTreeMap;
use std::fmt::Display;

/// Deepest nesting of arrays and objects [`Value::parse`] reads; a
/// deeper document is an error at the bracket that exceeds it. The
/// exporters' profile trees nest two levels per span.
pub const MAX_DEPTH: usize = 256;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; exact `u64` preserved separately when representable.
    Num {
        /// The value as a double (lossy beyond 2⁵³).
        f: f64,
        /// Exact value when the literal was a non-negative integer ≤ u64::MAX.
        u: Option<u64>,
    },
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (keys sorted; duplicate keys keep the last value).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Parse a complete JSON document (rejects trailing garbage). An
    /// error names the byte offset where reading stopped.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing data"));
        }
        Ok(v)
    }

    /// Member `key` of an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The exact unsigned integer payload, if one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num { u, .. } => *u,
            _ => None,
        }
    }

    /// The numeric payload as a double, if a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num { f, .. } => Some(*f),
            _ => None,
        }
    }

    /// The element list, if an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The member map, if an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    /// `what` at the current offset.
    fn error(&self, what: impl Display) -> String {
        format!("{what} at byte {}", self.pos)
    }

    /// Enter an array or object, refusing to nest past [`MAX_DEPTH`].
    fn open(&mut self, b: u8) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format_args!("nesting deeper than {MAX_DEPTH}")));
        }
        self.expect(b)?;
        self.depth += 1;
        Ok(())
    }

    /// Leave an array or object whose closing byte is at `pos`.
    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format_args!(
                "expected `{}`, found {:?}",
                b as char,
                self.peek().map(|c| c as char)
            )))
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
            other => Err(self.error(format_args!("unexpected {:?}", other.map(|c| c as char)))),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.error("bad literal"))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.open(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.close();
            return Ok(Value::Object(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            m.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.close();
                    return Ok(Value::Object(m));
                }
                other => {
                    return Err(self.error(format_args!(
                        "expected `,` or `}}`, found {:?}",
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.open(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.close();
            return Ok(Value::Array(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.close();
                    return Ok(Value::Array(v));
                }
                other => {
                    return Err(self.error(format_args!(
                        "expected `,` or `]`, found {:?}",
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let code = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            // Surrogate pairs are not emitted by our
                            // exporters; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(self
                                .error(format_args!("bad escape {:?}", other.map(|c| c as char))))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar: `pos` only ever advances
                    // past ASCII bytes and whole scalars, so it is on a
                    // character boundary of the text.
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("non-empty by peek");
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
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let f: f64 = text
            .parse()
            .map_err(|e| format!("bad number `{text}`: {e} at byte {start}"))?;
        Ok(Value::Num {
            f,
            u: text.parse::<u64>().ok(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = Value::parse(r#"{"a": [1, 2.5, {"b": "x\n"}], "c": null, "d": true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2]
                .get("b")
                .and_then(Value::as_str),
            Some("x\n")
        );
        assert_eq!(v.get("c"), Some(&Value::Null));
    }

    #[test]
    fn u64_max_is_exact() {
        let v = Value::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("{} trailing").is_err());
        assert!(Value::parse("nul").is_err());
        assert_eq!(
            Value::parse(r#""\u12g4""#),
            Err("bad \\u escape at byte 2".to_owned())
        );
    }

    /// Nesting up to the bound reads; one level more is an error at the
    /// bracket past it, however deep the rest of the input goes.
    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        let deeper = |at: usize| Err(format!("nesting deeper than {MAX_DEPTH} at byte {at}"));
        assert_eq!(Value::parse(&nested(MAX_DEPTH + 1)), deeper(MAX_DEPTH));
        assert_eq!(Value::parse(&"[".repeat(100_000)), deeper(MAX_DEPTH));
        let members = r#"{"a":"#.repeat(100_000);
        assert_eq!(Value::parse(&members), deeper(5 * MAX_DEPTH));
        let siblings = format!("[{}]", vec![nested(MAX_DEPTH - 1); 3].join(","));
        assert!(Value::parse(&siblings).is_ok());
    }
}
