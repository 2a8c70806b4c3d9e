//! Panic-surface audit: `unwrap`/`expect`/`panic!`-family macros and
//! indexing expressions in the protocol crates, outside test code. A
//! daemon that panics mid-protocol is a *fail-stop the paper did not
//! schedule* — the checkpoint/recovery machinery only covers crashes the
//! membership layer can observe and reason about, so the protocol crates'
//! panic surface is baselined per file and burned down, never silently
//! grown.

use crate::model::CrateModel;
use std::path::PathBuf;

/// Crates whose `src/` is audited (by directory name under `crates/`).
pub const PANIC_CRATES: &[&str] = &["vni", "mpi", "ensemble", "checkpoint", "daemon", "events"];

#[derive(Debug, Clone)]
pub struct PanicSite {
    pub file: PathBuf,
    pub line: usize,
    pub what: &'static str,
}

const PANIC_TOKENS: &[(&str, &str)] = &[
    (".unwrap()", "unwrap"),
    (".expect(", "expect"),
    ("panic!", "panic!"),
    ("unreachable!", "unreachable!"),
    ("todo!", "todo!"),
    ("unimplemented!", "unimplemented!"),
];

/// All panic sites in a crate's non-test source.
pub fn panic_sites(model: &CrateModel) -> Vec<PanicSite> {
    let mut out = Vec::new();
    for f in &model.files {
        for (i, code) in f.code.iter().enumerate() {
            if f.in_test[i] {
                continue;
            }
            for &(tok, what) in PANIC_TOKENS {
                let mut from = 0;
                while let Some(p) = code[from..].find(tok) {
                    let start = from + p;
                    from = start + tok.len();
                    // Macro tokens need an ident boundary on the left
                    // (`core::panic!` ok, `my_panic!` not a panic).
                    if !tok.starts_with('.') {
                        let before = code[..start].chars().next_back();
                        if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                            continue;
                        }
                    }
                    out.push(PanicSite {
                        file: f.path.clone(),
                        line: i,
                        what,
                    });
                }
            }
            out.extend(index_sites(code).into_iter().map(|_| PanicSite {
                file: f.path.clone(),
                line: i,
                what: "indexing",
            }));
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// Positions of indexing expressions (`x[..]`, `v[i]`, `f()[0]`) on one
/// blanked code line: a `[` whose previous non-space char continues an
/// expression. Attribute lines are skipped wholesale.
fn index_sites(code: &str) -> Vec<usize> {
    let t = code.trim_start();
    if t.starts_with('#') {
        return Vec::new();
    }
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (i, &c) in bytes.iter().enumerate() {
        if c != b'[' {
            continue;
        }
        let mut j = i;
        while j > 0 && bytes[j - 1] == b' ' {
            j -= 1;
        }
        if j == 0 {
            continue;
        }
        let prev = bytes[j - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')' || prev == b']' {
            // Exclude keywords that can directly precede an array literal
            // (or, after `let`, a slice pattern).
            let mut s = j;
            while s > 0 && (bytes[s - 1].is_ascii_alphanumeric() || bytes[s - 1] == b'_') {
                s -= 1;
            }
            let word = &code[s..j];
            if matches!(word, "return" | "in" | "else" | "match" | "break" | "let") {
                continue;
            }
            out.push(i);
        }
    }
    out
}

/// Stable per-file count key, relative to `root` when possible.
pub fn rel_key(file: &std::path::Path, root: &std::path::Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .display()
        .to_string()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use std::path::Path;

    fn sites(src: &str) -> Vec<&'static str> {
        let model = CrateModel::from_files(
            "t",
            vec![SourceFile::from_text(Path::new("t/src/lib.rs"), src)],
        );
        panic_sites(&model).into_iter().map(|s| s.what).collect()
    }

    #[test]
    fn finds_each_token_kind_outside_tests() {
        let got = sites(concat!(
            "fn f(v: &[u8]) -> u8 {\n",
            "    let x = maybe().unwrap();\n",
            "    let y = other().expect(\"reason\");\n",
            "    if x > 9 { panic!(\"boom\") }\n",
            "    v[0]\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { let _ = maybe().unwrap(); }\n",
            "}\n",
        ));
        assert_eq!(got, vec!["unwrap", "expect", "panic!", "indexing"]);
    }

    #[test]
    fn ignores_attributes_types_and_comments() {
        let got = sites(concat!(
            "#[derive(Clone)]\n",
            "pub struct S { buf: [u8; 16] }\n",
            "// a comment: v[0].unwrap() panic!\n",
            "fn g() -> [u8; 2] { [0, 1] }\n",
            "fn my_panic!() {}\n",
            "fn h(t: &[u8]) -> u8 { let [a, _] = t else { return 0 }; *a }\n",
        ));
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn slicing_counts_as_indexing() {
        let got = sites("fn f(b: &[u8]) -> &[u8] { &b[..4] }\n");
        assert_eq!(got, vec!["indexing"]);
    }
}
