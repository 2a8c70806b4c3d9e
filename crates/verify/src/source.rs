//! The lexical layer of the analysis framework: hand-rolled (no `syn`
//! offline) but with enough Rust lexing — nested block comments,
//! string/raw-string/char literals, `#[cfg(test)]` regions — to make token
//! judgments sound. Every transformation preserves line structure, so a
//! finding's line number is always the real source line.

use std::fs;
use std::path::{Path, PathBuf};

/// A file prepared for token judgments.
pub struct SourceFile {
    pub(crate) path: PathBuf,
    /// Raw source lines (for file markers and the test corpus).
    pub(crate) raw: Vec<String>,
    /// Comments *and* string/char literal bodies blanked.
    pub(crate) code: Vec<String>,
    /// Line lies inside a `#[cfg(test)]` item.
    pub(crate) in_test: Vec<bool>,
}

impl SourceFile {
    /// Scan a file from disk; `None` when it cannot be read.
    pub(crate) fn load(path: &Path) -> Option<SourceFile> {
        let text = fs::read_to_string(path).ok()?;
        Some(SourceFile::from_text(path, &text))
    }

    /// Scan from in-memory text (tests, property generators).
    pub fn from_text(path: &Path, text: &str) -> SourceFile {
        let code_text = blank(text);
        let code: Vec<String> = code_text.lines().map(str::to_string).collect();
        let in_test = test_regions(&code);
        SourceFile {
            path: path.to_path_buf(),
            raw: text.lines().map(str::to_string).collect(),
            code,
            in_test,
        }
    }
}

/// Blank comments and literal bodies out of `text`, preserving line
/// structure so line numbers survive. Every `\n` of the input appears at the
/// same offset-in-line-count in the output.
pub fn blank(text: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        Block(u32),
        Str,
        RawStr(u32),
    }
    let mut st = St::Code;
    let bytes: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    // Line comment: blank to end of line.
                    while i < bytes.len() && bytes[i] != '\n' {
                        out.push(' ');
                        i += 1;
                    }
                    continue;
                }
                '/' if next == Some('*') => {
                    st = St::Block(1);
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                'r' if next == Some('"') || (next == Some('#')) => {
                    // Possible raw string r"…" / r#"…"#.
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') {
                        // Blank the opening `r##"` delimiters.
                        while i <= j {
                            out.push(' ');
                            i += 1;
                        }
                        st = St::RawStr(hashes);
                        continue;
                    }
                    out.push(c);
                    i += 1;
                }
                '"' => {
                    out.push('"');
                    st = St::Str;
                    i += 1;
                }
                '\'' => {
                    // Char literal vs lifetime.
                    if next == Some('\\') {
                        // '\x7f' style: blank until closing quote.
                        out.push('\'');
                        i += 2;
                        out.push(' ');
                        while i < bytes.len() && bytes[i] != '\'' {
                            out.push(if bytes[i] == '\n' { '\n' } else { ' ' });
                            i += 1;
                        }
                        if i < bytes.len() {
                            out.push('\'');
                            i += 1;
                        }
                    } else if bytes.get(i + 2) == Some(&'\'') {
                        out.push_str("' '");
                        i += 3;
                    } else {
                        out.push('\''); // lifetime
                        i += 1;
                    }
                }
                _ => {
                    out.push(c);
                    i += 1;
                }
            },
            St::Block(depth) => {
                if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::Block(depth - 1)
                    };
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::Block(depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::Str => match c {
                '\\' => {
                    out.push(' ');
                    if let Some(n) = next {
                        out.push(if n != '\n' { ' ' } else { n });
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                '"' => {
                    out.push('"');
                    st = St::Code;
                    i += 1;
                }
                '\n' => {
                    out.push('\n');
                    i += 1;
                }
                _ => {
                    out.push(' ');
                    i += 1;
                }
            },
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for h in 0..hashes {
                        if bytes.get(i + 1 + h as usize) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        for _ in 0..=hashes {
                            out.push(' ');
                            i += 1;
                        }
                        st = St::Code;
                        continue;
                    }
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
                i += 1;
            }
        }
    }
    out
}

/// Mark lines belonging to `#[cfg(test)]` items by brace tracking. A
/// braceless item (`mod tests;`, `use x;`) ends at its semicolon.
pub fn test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if code[i].contains("#[cfg(test)]") {
            // Find the item's opening brace, then its extent.
            let mut depth = 0i32;
            let mut opened = false;
            let mut j = i;
            while j < code.len() {
                in_test[j] = true;
                for c in code[j].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if (opened && depth <= 0) || (!opened && code[j].contains(';')) {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

/// All `.rs` files under `dir`, recursively, sorted for stable output.
pub(crate) fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(rd) = fs::read_dir(&d) else { continue };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// `needle` occurs in `hay` as a whole token (not a sub-identifier).
pub(crate) fn token_in(hay: &str, needle: &str) -> bool {
    token_pos(hay, needle).is_some()
}

/// Byte offset of the first whole-token occurrence of `needle` in `hay`.
pub(crate) fn token_pos(hay: &str, needle: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let before = hay[..start].chars().next_back();
        let after = hay[end..].chars().next();
        let is_ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if !is_ident(before) && !is_ident(after) {
            return Some(start);
        }
        from = end;
    }
    None
}

/// Leading identifier of `s` (after trimming), if any.
pub(crate) fn leading_ident(s: &str) -> Option<String> {
    let t = s.trim_start();
    let id: String = t
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if id.is_empty() || !t.starts_with(id.chars().next().unwrap()) {
        None
    } else {
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_preserves_line_count_across_constructs() {
        let text = concat!(
            "fn f() {\n",
            "    // comment with \"string\" and Instant::now\n",
            "    let s = \"multi\n",
            "line\";\n",
            "    let r = r#\"raw\n",
            "with # inside\"#;\n",
            "    /* block\n",
            "       /* nested */\n",
            "    */\n",
            "}\n",
        );
        let b = blank(text);
        assert_eq!(b.lines().count(), text.lines().count());
        assert!(!b.contains("comment"));
        assert!(!b.contains("multi"));
        assert!(!b.contains("raw"));
        assert!(!b.contains("nested"));
    }

    #[test]
    fn braceless_test_item_ends_at_its_semicolon() {
        let code: Vec<String> = ["#[cfg(test)]", "mod tests;", "fn shipped() {", "}"]
            .iter()
            .map(|l| l.to_string())
            .collect();
        assert_eq!(test_regions(&code), vec![true, true, false, false]);
    }

    #[test]
    fn token_pos_respects_ident_boundaries() {
        assert!(token_in("x.lock()", "lock"));
        assert!(!token_in("x.unlock()", "lock"));
        assert!(!token_in("lockstep", "lock"));
        assert_eq!(token_pos("a lock b lock", "lock"), Some(2));
    }
}
