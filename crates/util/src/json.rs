//! The workspace's one JSON value type, [`Json`], with its one reader,
//! [`parse`], and its one writer, [`Json::render`]. There is no serde
//! offline: every report, bundle and trace file builds a `Json` and renders
//! it, and every reader parses through `parse`.

use std::fmt::{Display, Write as _};
use std::iter::Peekable;

/// `s` as a quoted, escaped JSON string literal, appended to `out`.
fn write_string(out: &mut String, s: &str) {
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

/// A JSON value. An object keeps its keys in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number as its literal text, so a `u64` id or a report cell prints
    /// exactly as it was written. [`Json::Num`] builds one.
    Number(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number, written as `v` displays: `7`, `0.25`, or a value formatted
    /// to a fixed precision beforehand, such as `"6.30"`.
    #[expect(
        non_snake_case,
        reason = "reads as the variant it builds, as `Json::Str(..)` does"
    )]
    pub fn Num(v: impl Display) -> Json {
        Json::Number(v.to_string())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// An object from `(key, value)` pairs, each key as it displays.
    pub fn obj<K: Display>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v));
        Json::Obj(fields.collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// A number whose literal text is an unsigned integer, read exactly
    /// (not through an `f64`, which keeps 53 bits).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(kv) => Some(kv),
            _ => None,
        }
    }

    /// The document, ending in a newline. A container of scalars prints on
    /// one line; a container that holds a container nests, one entry per
    /// line, indented two spaces a level.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let entries: Vec<(Option<&String>, &Json)> = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => return out.push_str(n),
            Json::Str(s) => return write_string(out, s),
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Obj(kv) => kv.iter().map(|(k, v)| (Some(k), v)).collect(),
        };
        let nests = (entries.iter()).any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)));
        let pad = |depth: usize| match nests {
            true => format!("\n{}", "  ".repeat(depth)),
            false => String::new(),
        };
        let sep = if nests { "," } else { ", " };
        out.push(if let Json::Arr(_) = self { '[' } else { '{' });
        for (i, (key, v)) in entries.into_iter().enumerate() {
            out.push_str(if i == 0 { "" } else { sep });
            out.push_str(&pad(depth + 1));
            if let Some(key) = key {
                write_string(out, key);
                out.push_str(": ");
            }
            v.write(out, depth + 1);
        }
        out.push_str(&pad(depth));
        out.push(if let Json::Arr(_) = self { ']' } else { '}' });
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.b.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.ws();
        self.b
            .get(self.i)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        let found = self.peek()?;
        if found == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                c as char, self.i, found as char
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        let rest = self.b.get(self.i..).unwrap_or_default();
        if rest.starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        let numeric = |c: &u8| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E');
        while self.b.get(self.i).is_some_and(numeric) {
            self.i += 1;
        }
        (self.b.get(start..self.i))
            .filter(|s| is_number(s))
            .and_then(|s| std::str::from_utf8(s).ok())
            .map(|s| Json::Number(s.to_string()))
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self
                .b
                .get(self.i)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .b
                        .get(self.i)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            self.i += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape \\{}", e as char)),
                    }
                }
                0x00..=0x1f => return Err(format!("raw control character {c:#04x} in a string")),
                c => {
                    // Reassemble multi-byte UTF-8 sequences verbatim.
                    let len = match c {
                        0x00..=0x7f => 0,
                        0xc0..=0xdf => 1,
                        0xe0..=0xef => 2,
                        _ => 3,
                    };
                    let start = self.i - 1;
                    self.i += len;
                    let chunk = self
                        .b
                        .get(start..self.i)
                        .ok_or_else(|| "truncated utf-8".to_string())?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.peek()? == b']' {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            match self.peek()? {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                c => return Err(format!("expected , or ] found {:?}", c as char)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        if self.peek()? == b'}' {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.expect(b':')?;
            out.push((key, self.value()?));
            match self.peek()? {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                c => return Err(format!("expected , or }} found {:?}", c as char)),
            }
        }
    }
}

/// JSON's number grammar: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
/// Rust's `f64` grammar also takes `+1`, `.5` and `1.`.
fn is_number(s: &[u8]) -> bool {
    fn digits(it: &mut Peekable<impl Iterator<Item = u8>>) -> usize {
        std::iter::from_fn(|| it.next_if(u8::is_ascii_digit)).count()
    }
    let mut it = s.iter().copied().peekable();
    it.next_if_eq(&b'-');
    match it.next() {
        Some(b'0') => {}
        Some(b'1'..=b'9') => {
            digits(&mut it);
        }
        _ => return false,
    }
    if it.next_if_eq(&b'.').is_some() && digits(&mut it) == 0 {
        return false;
    }
    if it.next_if(|c| matches!(c, b'e' | b'E')).is_some() {
        it.next_if(|c| matches!(c, b'+' | b'-'));
        if digits(&mut it) == 0 {
            return false;
        }
    }
    it.next().is_none()
}

/// Parse a JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn string(s: &str) -> String {
        let mut out = String::new();
        write_string(&mut out, s);
        out
    }

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("q\"\\\n\r\t"), "\"q\\\"\\\\\\n\\r\\t\"");
        assert_eq!(string("\u{1}é"), "\"\\u0001é\"");
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":"q\"\\\nA","c":{"d":null,"e":true}}"#).unwrap();
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "q\"\\\nA");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
    }

    #[test]
    fn render_nests_only_containers_of_containers() {
        let v = Json::obj([
            ("n", Json::Num(6.5)),
            (
                "flat",
                Json::Arr(vec![Json::Num(1), Json::Null, Json::Bool(false)]),
            ),
            ("empty", Json::obj::<&str>([])),
            ("rows", Json::Arr(vec![Json::obj([("k", Json::str("v"))])])),
        ]);
        let want = "{\n  \"n\": 6.5,\n  \"flat\": [1, null, false],\n  \"empty\": {},\n  \
                    \"rows\": [\n    {\"k\": \"v\"}\n  ]\n}\n";
        assert_eq!(v.render(), want);
    }

    #[test]
    fn numbers_outside_the_json_grammar_are_rejected() {
        for bad in ["+1", ".5", "1.", "01", "-", "1e", "1.e5", "--1", "1e+"] {
            assert!(parse(bad).is_err(), "{bad}");
            assert!(parse(&format!("[{bad}]")).is_err(), "[{bad}]");
        }
        for good in ["0", "-0", "1.5", "10e-3", "2E+8", "-0.25e1"] {
            assert_eq!(parse(good), Ok(Json::Number(good.into())), "{good}");
        }
    }

    #[test]
    fn raw_control_characters_in_a_string_are_rejected() {
        for c in ['\u{0}', '\u{1}', '\n', '\t', '\u{1f}'] {
            assert!(parse(&format!("\"a{c}b\"")).is_err(), "{c:?}");
        }
        assert_eq!(parse("\"a\\u0001b\\n\""), Ok(Json::str("a\u{1}b\n")));
        assert_eq!(parse("\"\u{7f}\""), Ok(Json::str("\u{7f}")));
    }

    #[test]
    fn a_u64_reads_exactly() {
        let v = parse("[18446744073709551615, 9007199254740993, -1, 1.5]").unwrap();
        let ids: Vec<Option<u64>> = v.as_arr().unwrap().iter().map(Json::as_u64).collect();
        assert_eq!(ids, [Some(u64::MAX), Some((1 << 53) + 1), None, None]);
    }

    #[test]
    fn numbers_keep_their_literal_text() {
        let text = "[18446744073709551615, 6.30, 1E5, -0.000]\n";
        let v = parse(text).unwrap();
        assert_eq!(v.render(), text);
        assert_eq!(v.as_arr().unwrap()[1].as_num(), Some(6.3));
    }

    /// The committed calibration report reads and re-renders byte for byte:
    /// its writer is this renderer.
    #[test]
    fn the_committed_report_renders_back_byte_for_byte() {
        let text = include_str!("../../../BENCH_calibrate.json");
        assert_eq!(parse(text).unwrap().render(), text);
    }

    /// Any string: every code point class the escaper treats apart.
    fn any_string() -> impl Strategy<Value = String> {
        let class = prop_oneof![
            0u32..0x80,
            0x80u32..0x800,
            0x800u32..0xD800,
            0x10000u32..0x110000,
        ];
        proptest::collection::vec(class, 0..8)
            .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
    }

    fn any_json() -> impl Strategy<Value = Json> {
        let leaf = prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            any::<i64>().prop_map(Json::Num),
            any::<u64>().prop_map(Json::Num),
            any::<f64>().prop_map(|f| Json::Num(if f.is_finite() { f } else { 0.5 })),
            any_string().prop_map(Json::Str),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
                proptest::collection::vec((any_string(), inner), 0..4).prop_map(Json::Obj),
            ]
        })
    }

    proptest! {
        #[test]
        fn render_then_parse_is_the_identity(v in any_json()) {
            prop_assert_eq!(parse(&v.render()), Ok(v));
        }

        /// Truncations and bit flips of the committed report parse or fail,
        /// and never panic.
        #[test]
        fn parse_never_panics_on_a_damaged_report(
            cut in 0usize..1 << 20,
            flips in proptest::collection::vec((0usize..1 << 20, 0u8..8), 0..4),
        ) {
            let mut bytes = include_bytes!("../../../BENCH_calibrate.json").to_vec();
            for (at, bit) in flips {
                let at = at % bytes.len();
                bytes[at] ^= 1 << bit;
            }
            bytes.truncate(cut % (bytes.len() + 1));
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }
    }
}
