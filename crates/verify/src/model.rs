//! The item layer: the crate's files and its enums (with variants), parsed
//! from [`SourceFile`]s by brace tracking over blanked code. Line numbers
//! in the model are 0-based file indices; findings add 1 at report time.

use std::path::{Path, PathBuf};

use crate::source::{leading_ident, rs_files, token_pos, SourceFile};

#[derive(Debug, Clone)]
pub struct EnumDef {
    pub(crate) name: String,
    pub(crate) variants: Vec<String>,
    pub(crate) file: usize,
    pub line: usize,
    pub(crate) in_test: bool,
}

/// Whole-crate source model.
pub struct CrateModel {
    /// Crate directory name (`vni`, `daemon`, …).
    pub(crate) name: String,
    pub(crate) files: Vec<SourceFile>,
    pub enums: Vec<EnumDef>,
}

/// The words before `enum` on its line are visibility only (`pub`,
/// `pub(crate)`, …): the token starts an item, not a path or a comment.
fn is_item_line(code: &str, pos: usize) -> bool {
    code[..pos].split_whitespace().all(|w| w.starts_with("pub"))
}

/// Split a line into top-level (zero bracket depth) comma-separated
/// segments. Used for enum variant lists that share a line.
fn top_level_segments(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, c) in line.char_indices() {
        match c {
            '(' | '[' | '{' | '<' => depth += 1,
            ')' | ']' | '}' | '>' => depth -= 1,
            ',' if depth <= 0 => {
                out.push(&line[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&line[start..]);
    out
}

/// The module name of an out-of-line declaration line (`mod x;`,
/// `pub(crate) mod x;`).
fn out_of_line_mod(code: &str) -> Option<&str> {
    let mut words = code.trim().strip_suffix(';')?.split_whitespace().rev();
    let name = words.next()?;
    (words.next() == Some("mod") && words.all(|w| w.starts_with("pub"))).then_some(name)
}

/// The two files `mod name;` declared in `decl_file` may resolve to.
fn module_files(decl_file: &Path, name: &str) -> [PathBuf; 2] {
    let dir = decl_file.parent().unwrap_or(Path::new(""));
    let stem = decl_file.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let base = match stem {
        "mod" | "lib" | "main" => dir.to_path_buf(),
        _ => dir.join(stem),
    };
    [
        base.join(format!("{name}.rs")),
        base.join(name).join("mod.rs"),
    ]
}

/// A file reached only through a `#[cfg(test)] mod x;` declaration is test
/// code in its entirety: the gate sits in the declaring file, where a
/// per-file scan of `x.rs` cannot see it.
fn mark_test_only_modules(files: &mut [SourceFile]) {
    let (mut gated, mut shipped) = (Vec::new(), Vec::new());
    for f in files.iter() {
        for (i, code) in f.code.iter().enumerate() {
            if let Some(name) = out_of_line_mod(code) {
                let targets = module_files(&f.path, name);
                if f.in_test[i] {
                    gated.extend(targets);
                } else {
                    shipped.extend(targets);
                }
            }
        }
    }
    for f in files.iter_mut() {
        if gated.contains(&f.path) && !shipped.contains(&f.path) {
            f.in_test.fill(true);
        }
    }
}

impl CrateModel {
    /// Parse every `.rs` file under `dir/src`.
    pub fn parse(name: &str, dir: &Path) -> CrateModel {
        let files: Vec<SourceFile> = rs_files(&dir.join("src"))
            .iter()
            .filter_map(|f| SourceFile::load(f))
            .collect();
        Self::from_files(name, files)
    }

    /// Physical lines (code, comments, blanks) outside `#[cfg(test)]`
    /// regions and test-only files: the one definition of "non-test lines"
    /// a PR that claims to delete code quotes before and after.
    pub(crate) fn non_test_lines(&self) -> usize {
        self.files
            .iter()
            .map(|f| f.in_test.iter().filter(|t| !**t).count())
            .sum()
    }

    /// Build the model from pre-scanned files (tests, fixtures).
    pub fn from_files(name: &str, mut files: Vec<SourceFile>) -> CrateModel {
        mark_test_only_modules(&mut files);
        let mut m = CrateModel {
            name: name.to_string(),
            files,
            enums: Vec::new(),
        };
        for fi in 0..m.files.len() {
            let f = &m.files[fi];
            let mut i = 0;
            while i < f.code.len() {
                let code = &f.code[i];
                let item = token_pos(code, "enum").filter(|&pos| is_item_line(code, pos));
                if let Some(e) = item.and_then(|pos| parse_enum(f, fi, i, pos)) {
                    m.enums.push(e);
                    i = block_end(&f.code, i);
                }
                i += 1;
            }
        }
        m
    }
}

fn parse_enum(f: &SourceFile, fi: usize, start: usize, pos: usize) -> Option<EnumDef> {
    let after = &f.code[start][pos + "enum".len()..];
    let name = leading_ident(after)?;
    let mut variants = Vec::new();
    let mut depth = 0i32;
    let mut opened = false;
    let mut j = start;
    'body: while j < f.code.len() {
        let l = if j == start {
            &f.code[j][pos..]
        } else {
            f.code[j].as_str()
        };
        // Variant names live at depth 1. A line may hold several
        // (`A, B, C`) and may share the line with the opening or
        // closing brace, so slice the depth-1 region out of the line
        // before splitting on top-level commas.
        let mut d = depth;
        let mut region_start: Option<usize> = if opened && d == 1 { Some(0) } else { None };
        for (ci, c) in l.char_indices() {
            match c {
                '{' => {
                    d += 1;
                    opened = true;
                    if d == 1 {
                        region_start = Some(ci + 1);
                    }
                }
                '}' => {
                    if d == 1 {
                        if let Some(rs) = region_start.take() {
                            collect_variants(&l[rs..ci], &mut variants);
                        }
                    }
                    d -= 1;
                    if opened && d == 0 {
                        break 'body;
                    }
                }
                ';' if !opened => break 'body,
                _ => {}
            }
        }
        if let Some(rs) = region_start {
            collect_variants(&l[rs..], &mut variants);
        }
        depth = d;
        j += 1;
    }
    Some(EnumDef {
        name,
        variants,
        file: fi,
        line: start,
        in_test: f.in_test[start],
    })
}

fn collect_variants(region: &str, variants: &mut Vec<String>) {
    for seg in top_level_segments(region) {
        if let Some(id) = leading_ident(seg) {
            variants.push(id);
        }
    }
}

/// Line index of the `}` closing the first `{` at/after `start`.
/// Returns `start` if no brace opens (defensive).
fn block_end(code: &[String], start: usize) -> usize {
    let mut depth = 0i32;
    let mut opened = false;
    let mut j = start;
    while j < code.len() {
        for c in code[j].chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => {
                    depth -= 1;
                    if opened && depth <= 0 {
                        return j;
                    }
                }
                _ => {}
            }
        }
        if opened && depth <= 0 {
            return j;
        }
        j += 1;
    }
    code.len().saturating_sub(1).max(start)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> CrateModel {
        CrateModel::from_files(
            "t",
            vec![SourceFile::from_text(Path::new("t/src/lib.rs"), src)],
        )
    }

    /// `#[cfg(test)] mod tests;` gates the whole of `tests.rs`, whichever
    /// of the two layouts it lives in; an ungated declaration does not.
    #[test]
    fn out_of_line_test_modules_are_test_code() {
        let file = |path: &str, src: &str| SourceFile::from_text(Path::new(path), src);
        let m = CrateModel::from_files(
            "t",
            vec![
                file(
                    "t/src/coll/mod.rs",
                    "pub mod ring;\n#[cfg(test)]\nmod tests;\nenum Shipped {}\n",
                ),
                file("t/src/coll/ring.rs", "enum Ring { A }\n"),
                file("t/src/coll/tests.rs", "enum Helper { A }\n"),
                file("t/src/wire.rs", "#[cfg(test)]\nmod props;\n"),
                file("t/src/wire/props.rs", "enum Prop {}\n"),
            ],
        );
        let in_test = |name: &str| m.enums.iter().find(|e| e.name == name).unwrap().in_test;
        assert!(in_test("Helper") && in_test("Prop"));
        assert!(!in_test("Ring") && !in_test("Shipped"));
        let shipped: Vec<&Path> = m
            .files
            .iter()
            .filter(|f| f.in_test.contains(&false))
            .map(|f| f.path.as_path())
            .collect();
        let want = ["t/src/coll/mod.rs", "t/src/coll/ring.rs"].map(Path::new);
        assert_eq!(shipped, want, "only mod.rs and ring.rs ship code");
    }

    #[test]
    fn enum_variants_multi_per_line_and_single_line() {
        let m = model(concat!(
            "pub enum Multi {\n",
            "    A, B,\n",
            "    C { x: (u8, u8) },\n",
            "    D(Vec<u8>), E,\n",
            "}\n",
            "pub enum OneLine { P, Q }\n",
        ));
        let multi = m.enums.iter().find(|e| e.name == "Multi").unwrap();
        assert_eq!(multi.variants, vec!["A", "B", "C", "D", "E"]);
        let one = m.enums.iter().find(|e| e.name == "OneLine").unwrap();
        assert_eq!(one.variants, vec!["P", "Q"]);
    }

    #[test]
    fn test_region_enums_are_marked() {
        let m = model(concat!(
            "pub(crate) enum Prod { A }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    enum T { B }\n",
            "}\n",
        ));
        let names: Vec<(&str, bool)> = m
            .enums
            .iter()
            .map(|e| (e.name.as_str(), e.in_test))
            .collect();
        assert_eq!(names, [("Prod", false), ("T", true)]);
    }
}
