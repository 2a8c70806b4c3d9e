//! The workspace's one JSON string writer (there is no serde offline, so
//! every emitter formats its own objects — but they all quote through here).

use std::fmt::Write as _;

/// `s` as a quoted, escaped JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("q\"\\\n\r\t"), "\"q\\\"\\\\\\n\\r\\t\"");
        assert_eq!(string("\u{1}é"), "\"\\u0001é\"");
    }
}
