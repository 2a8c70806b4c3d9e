//! The item/block layer: structs (with fields), enums (with variants),
//! impl blocks, and functions (with body extents and call sites), parsed
//! from [`SourceFile`]s by brace tracking over blanked code. Line numbers
//! in the model are 0-based file indices; findings add 1 at report time.

use std::path::{Path, PathBuf};

use crate::source::{leading_ident, rs_files, token_pos, SourceFile};

/// One struct field: `name` and the raw remainder of its declaring line
/// (enough to classify `Mutex<…>` / `RwLock<…>` / `Condvar` fields).
#[derive(Debug, Clone)]
pub struct FieldDef {
    pub name: String,
    pub ty: String,
}

#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    pub fields: Vec<FieldDef>,
    pub file: usize,
    pub line: usize,
}

#[derive(Debug, Clone)]
pub struct EnumDef {
    pub name: String,
    pub variants: Vec<String>,
    pub file: usize,
    pub line: usize,
    pub in_test: bool,
}

/// One `fn` item. `body` spans from the line of the opening brace to the
/// line of the matching close (inclusive); trait-method declarations have
/// no body.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// Enclosing `impl` type, if the fn sits in an impl block.
    pub self_ty: Option<String>,
    pub file: usize,
    pub sig_line: usize,
    pub body: Option<(usize, usize)>,
    pub in_test: bool,
}

impl FnDef {
    /// `Type::name` or bare `name` for free functions.
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(…)` — a plain path call.
    Plain,
    /// `recv.foo(…)` — a method call on some receiver.
    Method,
    /// `Type::foo(…)` — qualified; the qualifier is captured.
    Qualified,
}

#[derive(Debug, Clone)]
pub struct CallSite {
    pub callee: String,
    /// Last path segment before `::callee` for qualified calls.
    pub qualifier: Option<String>,
    pub kind: CallKind,
    pub line: usize,
    /// Char index of the callee identifier within the line.
    pub pos: usize,
}

/// Whole-crate source model.
pub struct CrateModel {
    /// Crate directory name (`vni`, `daemon`, …).
    pub name: String,
    pub files: Vec<SourceFile>,
    pub structs: Vec<StructDef>,
    pub enums: Vec<EnumDef>,
    pub functions: Vec<FnDef>,
}

const FN_QUALIFIERS: &[&str] = &[
    "pub",
    "pub(crate)",
    "pub(super)",
    "pub(self)",
    "const",
    "async",
    "unsafe",
    "extern",
    "default",
];

fn is_fn_item_line(code: &str, fn_pos: usize) -> bool {
    code[..fn_pos]
        .split_whitespace()
        .all(|w| FN_QUALIFIERS.contains(&w) || w.starts_with("pub("))
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
    pub fn non_test_lines(&self) -> usize {
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
            structs: Vec::new(),
            enums: Vec::new(),
            functions: Vec::new(),
        };
        for fi in 0..m.files.len() {
            m.parse_file(fi);
        }
        m
    }

    fn parse_file(&mut self, fi: usize) {
        let n = self.files[fi].code.len();
        // Pass 1: impl-block extents, so functions know their self type.
        // impl_ty[line] = Some(type) while inside an impl block.
        let mut impl_ty: Vec<Option<String>> = vec![None; n];
        {
            let f = &self.files[fi];
            let mut i = 0;
            while i < n {
                let line = &f.code[i];
                let t = line.trim_start();
                if t.starts_with("impl ") || t == "impl" || t.starts_with("impl<") {
                    if let Some(ty) = impl_self_type(t) {
                        let end = block_end(&f.code, i);
                        for cell in impl_ty.iter_mut().take(end + 1).skip(i) {
                            *cell = Some(ty.clone());
                        }
                        // Do not skip to `end`: nothing nests another impl,
                        // but stepping line-by-line keeps this robust.
                    }
                }
                i += 1;
            }
        }

        // Pass 2: items.
        let mut i = 0;
        while i < n {
            let (code_line, in_test) = {
                let f = &self.files[fi];
                (f.code[i].clone(), f.in_test[i])
            };
            if let Some(pos) = token_pos(&code_line, "struct") {
                if is_fn_item_line(&code_line, pos) {
                    if let Some(s) = self.parse_struct(fi, i, pos) {
                        let end = block_end(&self.files[fi].code, i);
                        self.structs.push(s);
                        i = end + 1;
                        continue;
                    }
                }
            }
            if let Some(pos) = token_pos(&code_line, "enum") {
                if is_fn_item_line(&code_line, pos) {
                    if let Some(e) = self.parse_enum(fi, i, pos, in_test) {
                        let end = block_end(&self.files[fi].code, i);
                        self.enums.push(e);
                        i = end + 1;
                        continue;
                    }
                }
            }
            if let Some(pos) = token_pos(&code_line, "fn") {
                if is_fn_item_line(&code_line, pos) {
                    if let Some(fd) = self.parse_fn(fi, i, pos, impl_ty[i].clone(), in_test) {
                        // Continue scanning *inside* the body: nested fns and
                        // (in pass terms) nothing else is item-scanned there,
                        // but stepping line-by-line finds closures' parents
                        // exactly once because `fn` tokens are item-gated.
                        self.functions.push(fd);
                    }
                }
            }
            i += 1;
        }
    }

    fn parse_struct(&self, fi: usize, start: usize, pos: usize) -> Option<StructDef> {
        let f = &self.files[fi];
        let after = &f.code[start][pos + "struct".len()..];
        let name = leading_ident(after)?;
        let mut fields = Vec::new();
        // Find the opening brace; a `;` first means tuple/unit struct.
        let mut depth = 0i32;
        let mut opened = false;
        let mut j = start;
        'body: while j < f.code.len() {
            let l = &f.code[j];
            let scan = if j == start { &l[pos..] } else { l.as_str() };
            for (ci, c) in scan.char_indices() {
                match c {
                    ';' if !opened && depth == 0 => break 'body,
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            break 'body;
                        }
                    }
                    _ => {}
                }
                // Collect `ident:` fields at depth 1.
                if opened && depth == 1 && c == ':' {
                    let before = &scan[..ci];
                    if let Some(id) = before
                        .rsplit(|ch: char| !(ch.is_alphanumeric() || ch == '_'))
                        .next()
                    {
                        if !id.is_empty()
                            && !id.chars().next().unwrap().is_numeric()
                            // `::` paths inside types are not field names.
                            && !scan[ci..].starts_with("::")
                            && !before.ends_with(':')
                        {
                            fields.push(FieldDef {
                                name: id.to_string(),
                                ty: scan[ci + 1..].trim().trim_end_matches(',').to_string(),
                            });
                        }
                    }
                }
            }
            j += 1;
        }
        Some(StructDef {
            name,
            fields,
            file: fi,
            line: start,
        })
    }

    fn parse_enum(&self, fi: usize, start: usize, pos: usize, in_test: bool) -> Option<EnumDef> {
        let f = &self.files[fi];
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
            in_test,
        })
    }

    fn parse_fn(
        &self,
        fi: usize,
        sig_line: usize,
        pos: usize,
        self_ty: Option<String>,
        in_test: bool,
    ) -> Option<FnDef> {
        let f = &self.files[fi];
        let name = leading_ident(&f.code[sig_line][pos + "fn".len()..])?;
        // Walk from the signature: the first `{` at paren-depth 0 opens the
        // body; a `;` first means a bodyless declaration.
        let mut paren = 0i32;
        let mut j = sig_line;
        let mut body = None;
        'sig: while j < f.code.len() {
            let l = if j == sig_line {
                &f.code[j][pos..]
            } else {
                f.code[j].as_str()
            };
            for c in l.chars() {
                match c {
                    '(' | '[' => paren += 1,
                    ')' | ']' => paren -= 1,
                    ';' if paren == 0 => break 'sig,
                    '{' if paren == 0 => {
                        let end = block_end(&f.code, j);
                        body = Some((j, end));
                        break 'sig;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        Some(FnDef {
            name,
            self_ty,
            file: fi,
            sig_line,
            body,
            in_test,
        })
    }

    /// Call sites in one code line.
    pub fn calls_in_line(code: &str, line: usize) -> Vec<CallSite> {
        const KEYWORDS: &[&str] = &[
            "if", "while", "for", "match", "return", "fn", "loop", "move", "in", "as", "let",
            "else", "impl", "dyn", "where", "box", "unsafe", "async",
        ];
        let bytes: Vec<char> = code.chars().collect();
        let mut out = Vec::new();
        for (i, &c) in bytes.iter().enumerate() {
            if c != '(' {
                continue;
            }
            // Walk back over the callee identifier.
            let mut e = i;
            while e > 0 && (bytes[e - 1] == ' ') {
                e -= 1;
            }
            let mut s = e;
            while s > 0 && (bytes[s - 1].is_alphanumeric() || bytes[s - 1] == '_') {
                s -= 1;
            }
            if s == e {
                continue;
            }
            let callee: String = bytes[s..e].iter().collect();
            if callee.chars().next().unwrap().is_numeric()
                || KEYWORDS.contains(&callee.as_str())
                || callee.chars().next().unwrap().is_uppercase()
            {
                // Uppercase leading char: tuple-struct/variant construction.
                continue;
            }
            let (kind, qualifier) = if s >= 1 && bytes[s - 1] == '.' {
                (CallKind::Method, None)
            } else if s >= 2 && bytes[s - 1] == ':' && bytes[s - 2] == ':' {
                // Capture the path segment before `::`.
                let qe = s - 2;
                let mut qs = qe;
                while qs > 0 && (bytes[qs - 1].is_alphanumeric() || bytes[qs - 1] == '_') {
                    qs -= 1;
                }
                if qe > qs {
                    let q: String = bytes[qs..qe].iter().collect();
                    (CallKind::Qualified, Some(q))
                } else {
                    (CallKind::Qualified, None)
                }
            } else {
                (CallKind::Plain, None)
            };
            out.push(CallSite {
                callee,
                qualifier,
                kind,
                line,
                pos: s,
            });
        }
        out
    }

    /// Structs by name (there may be several across files; first wins is
    /// never relied on — callers collect all).
    pub fn structs_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a StructDef> + 'a {
        self.structs.iter().filter(move |s| s.name == name)
    }
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
pub fn block_end(code: &[String], start: usize) -> usize {
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

/// Self type of an `impl` header line: `impl Foo`, `impl<T> Foo<T>`,
/// `impl Trait for Foo`, `impl fmt::Debug for Foo`.
fn impl_self_type(header: &str) -> Option<String> {
    let mut rest = header.trim_start().strip_prefix("impl")?;
    // Skip a generic parameter list.
    if rest.starts_with('<') {
        let mut depth = 0i32;
        let mut cut = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = &rest[cut..];
    }
    let rest = rest.trim_start();
    // `impl Trait for Type {` → the part after ` for `.
    let target = match rest.find(" for ") {
        Some(p) => &rest[p + 5..],
        None => rest,
    };
    let target = target.trim_start().trim_start_matches('&');
    // Strip leading path segments: `fmt::Debug for foo::Bar` → Bar.
    let mut id = leading_ident(target)?;
    let mut t = &target[id.len()..];
    while let Some(stripped) = t.strip_prefix("::") {
        match leading_ident(stripped) {
            Some(next) => {
                t = &stripped[next.len()..];
                id = next;
            }
            None => break,
        }
    }
    Some(id)
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
                    "pub mod ring;\n#[cfg(test)]\nmod tests;\nfn shipped() {}\n",
                ),
                file("t/src/coll/ring.rs", "fn ring() { x.unwrap(); }\n"),
                file("t/src/coll/tests.rs", "fn helper() { x.unwrap(); }\n"),
                file("t/src/wire.rs", "#[cfg(test)]\nmod props;\n"),
                file("t/src/wire/props.rs", "fn prop() {}\n"),
            ],
        );
        let in_test = |name: &str| m.functions.iter().find(|f| f.name == name).unwrap().in_test;
        assert!(in_test("helper") && in_test("prop"));
        assert!(!in_test("ring") && !in_test("shipped"));
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
    fn finds_structs_fields_and_impl_methods() {
        let m = model(concat!(
            "pub struct Hub {\n",
            "    inner: Arc<Mutex<BTreeMap<String, Snapshot>>>,\n",
            "    history: Mutex<History>,\n",
            "    cond: Condvar,\n",
            "}\n",
            "impl Hub {\n",
            "    pub fn update(&self) {\n",
            "        self.inner.lock();\n",
            "    }\n",
            "    fn helper(x: u32) -> u32 { x }\n",
            "}\n",
            "impl fmt::Debug for Hub {\n",
            "    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { todo!() }\n",
            "}\n",
            "fn free() {}\n",
        ));
        let s = &m.structs[0];
        assert_eq!(s.name, "Hub");
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["inner", "history", "cond"]);
        assert!(s.fields[0].ty.contains("Mutex<"));
        let q: Vec<String> = m.functions.iter().map(|f| f.qualified()).collect();
        assert!(q.contains(&"Hub::update".to_string()), "{q:?}");
        assert!(q.contains(&"Hub::helper".to_string()));
        assert!(q.contains(&"Hub::fmt".to_string()));
        assert!(q.contains(&"free".to_string()));
        let upd = m.functions.iter().find(|f| f.name == "update").unwrap();
        assert_eq!(upd.body, Some((6, 8)));
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
    fn fn_decl_without_body_and_multiline_signature() {
        let m = model(concat!(
            "pub trait T {\n",
            "    fn decl(&self) -> u32;\n",
            "    fn with_default(&self) -> u32 { 1 }\n",
            "}\n",
            "fn multi(\n",
            "    a: u32,\n",
            "    b: u32,\n",
            ") -> u32 {\n",
            "    a + b\n",
            "}\n",
        ));
        let decl = m.functions.iter().find(|f| f.name == "decl").unwrap();
        assert!(decl.body.is_none());
        let dflt = m
            .functions
            .iter()
            .find(|f| f.name == "with_default")
            .unwrap();
        assert_eq!(dflt.body, Some((2, 2)));
        let multi = m.functions.iter().find(|f| f.name == "multi").unwrap();
        assert_eq!(multi.body, Some((7, 9)));
    }

    #[test]
    fn call_sites_classified() {
        let calls =
            CrateModel::calls_in_line("self.deliver(m, pkt); helper(1); Fabric::emit(x)", 7);
        let names: Vec<(&str, CallKind)> =
            calls.iter().map(|c| (c.callee.as_str(), c.kind)).collect();
        assert_eq!(
            names,
            vec![
                ("deliver", CallKind::Method),
                ("helper", CallKind::Plain),
                ("emit", CallKind::Qualified),
            ]
        );
        assert_eq!(calls[2].qualifier.as_deref(), Some("Fabric"));
        // Macros and constructions are not calls.
        assert!(CrateModel::calls_in_line("println!(\"x\"); Some(1)", 0).is_empty());
    }

    #[test]
    fn test_region_functions_are_marked() {
        let m = model(concat!(
            "fn prod() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() {}\n",
            "}\n",
        ));
        assert!(
            !m.functions
                .iter()
                .find(|f| f.name == "prod")
                .unwrap()
                .in_test
        );
        assert!(m.functions.iter().find(|f| f.name == "t").unwrap().in_test);
    }
}
