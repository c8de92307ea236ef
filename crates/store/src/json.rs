//! Minimal, deterministic JSON: just enough for the run journal.
//!
//! The offline build has no serde runtime (the workspace `serde` is a
//! no-op shim), so the store carries its own encoder/decoder. Two
//! properties matter more than generality:
//!
//! 1. **Determinism** — objects preserve insertion order and numbers are
//!    rendered verbatim from their tokens, so `render(parse(s)) == s` for
//!    anything this module itself produced. Checksums are computed over
//!    this canonical form.
//! 2. **Exactness** — `u64` values round-trip at full precision (numbers
//!    are kept as tokens, never routed through `f64`), and `f64` values
//!    are rendered with Rust's shortest-round-trip formatting.

use std::fmt;

/// A parsed JSON value. Numbers are kept as their verbatim token.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number token, verbatim (e.g. `"42"`, `"2.7"`, `"-1e3"`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with preserved key order.
    Obj(Vec<(String, Json)>),
}

/// A parse or decode error with a short human-readable context.
#[derive(Clone, Debug, PartialEq)]
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

impl Json {
    /// Builds a number from a `u64` (exact).
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// Builds a number from a finite `f64` (shortest round-trip form).
    pub fn f64(v: f64) -> Json {
        debug_assert!(v.is_finite(), "JSON cannot carry {v}");
        Json::Num(format!("{v:?}"))
    }

    /// Builds a string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A required object field, as an error on absence.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key).ok_or_else(|| JsonError(format!("missing field {key:?}")))
    }

    /// This value as a `u64`.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::Num(t) => t.parse().map_err(|_| JsonError(format!("not a u64: {t}"))),
            other => err(format!("expected number, got {other:?}")),
        }
    }

    /// This value as an `f64`.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(t) => t.parse().map_err(|_| JsonError(format!("not an f64: {t}"))),
            other => err(format!("expected number, got {other:?}")),
        }
    }

    /// This value as a `bool`.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => err(format!("expected bool, got {other:?}")),
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(format!("expected string, got {other:?}")),
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(v) => Ok(v),
            other => err(format!("expected array, got {other:?}")),
        }
    }

    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser { src: s, bytes: s.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Renders to a canonical compact string (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(t) => out.push_str(t),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Reads the JSON string whose opening quote is at byte `pos` of `src`,
/// returning it unescaped with the offset just past its closing quote.
/// Only the spelling [`Json::render`] produces is accepted: a string that
/// would re-render differently (`\/`, `\u0041`, a raw control byte) is
/// an error, so a decoder that uses this reads canonical bytes only.
pub(crate) fn canonical_string(src: &str, pos: usize) -> Result<(String, usize), JsonError> {
    let mut p = Parser { src, bytes: src.as_bytes(), pos };
    let s = p.string()?;
    let raw = &src[pos..p.pos];
    let mut again = String::with_capacity(raw.len());
    render_string(&s, &mut again);
    if again != raw {
        return err(format!("non-canonical string at byte {pos}"));
    }
    Ok((s, p.pos))
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
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
            err(format!("expected {:?} at byte {}", b as char, self.pos))
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
        match self.peek() {
            None => err("unexpected end of input"),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => err(format!("unexpected {:?} at byte {}", other as char, self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return err(format!("malformed number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return err(format!("malformed exponent at byte {start}"));
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError("non-utf8 number".into()))?;
        Ok(Json::Num(token.to_string()))
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| JsonError("non-utf8 \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError(format!("bad \\u escape {hex:?}")))?;
                            // Surrogate pairs are not needed for the data the
                            // journal stores; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| JsonError(format!("invalid codepoint {code:#x}")))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape.
                    // Both are ASCII, so the cut lands on a char boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.src[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
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
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_round_trip() {
        let src = r#"{"a":1,"b":[true,false,null,"x\n\"y"],"c":{"d":2.5},"e":18446744073709551615}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.render(), src);
        // Idempotent: parse(render(v)) == v.
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn u64_precision_is_exact() {
        let v = Json::u64(u64::MAX);
        assert_eq!(v.as_u64().unwrap(), u64::MAX);
        let parsed = Json::parse("18446744073709551615").unwrap();
        assert_eq!(parsed.as_u64().unwrap(), u64::MAX);
    }

    #[test]
    fn f64_round_trips_shortest_form() {
        for x in [2.7f64, 0.1, 1.0, 1e-9, 12345.6789] {
            let v = Json::f64(x);
            let back = Json::parse(&v.render()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn object_field_lookup() {
        let v = Json::parse(r#"{"k":"v","n":3}"#).unwrap();
        assert_eq!(v.field("k").unwrap().as_str().unwrap(), "v");
        assert_eq!(v.field("n").unwrap().as_u64().unwrap(), 3);
        assert!(v.field("missing").is_err());
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "tru", "\"open", "1.2.3", "{\"a\":1}x", "[01x]", "-",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn long_string_with_every_escape_round_trips() {
        // Multi-byte text of every width plus every character the
        // renderer escapes, repeated past 64 KB.
        let mut unit: String = (0u32..0x20).filter_map(char::from_u32).collect();
        unit.push_str("\"\\/ plain é € 𝄞 \u{7f}\u{2028}");
        let mut long = String::new();
        while long.len() < 64 * 1024 {
            long.push_str(&unit);
        }
        let v = Json::Str(long.clone());
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(canonical_string(&text, 0).unwrap(), (long, text.len()));

        // Escapes the renderer never writes still parse.
        let v = Json::parse(r#""\/\b\f\u00e9\u20ac""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "/\u{8}\u{c}é€");
    }

    #[test]
    fn canonical_string_rejects_other_spellings() {
        for text in [r#""\/""#, r#""\u0041""#, "\"a\u{1}b\"", r#""\u000A""#] {
            assert!(canonical_string(text, 0).is_err(), "{text:?}");
            assert!(Json::parse(text).is_ok(), "{text:?}");
        }
        assert_eq!(canonical_string(r#"x"a\nb"y"#, 1).unwrap(), ("a\nb".into(), 7));
    }

    #[test]
    fn control_chars_escape_and_parse() {
        let v = Json::Str("a\u{1}b".into());
        let s = v.render();
        assert_eq!(s, "\"a\\u0001b\"");
        assert_eq!(Json::parse(&s).unwrap(), v);
    }
}
