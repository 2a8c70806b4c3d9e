//! Findings and the machine-readable report. The JSON writer is
//! hand-rolled (same philosophy as `trace`'s perfetto exporter and
//! `events`' postmortem bundles): no serde offline, and the schema is
//! small enough that an escaper plus string building is clearer than a
//! framework.

use std::fmt;
use std::path::PathBuf;

/// One finding from any pass.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: String,
    pub file: PathBuf,
    pub line: usize,
    pub(crate) msg: String,
}

impl Finding {
    pub(crate) fn new(rule: &str, file: PathBuf, line: usize, msg: String) -> Finding {
        Finding {
            rule: rule.to_string(),
            file,
            line,
            msg,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.msg
        )
    }
}

/// Corpus-level numbers, so a clean run still proves the passes saw the
/// workspace (a lint that silently scanned nothing also reports nothing).
#[derive(Debug, Clone, Default)]
pub(crate) struct Stats {
    pub(crate) crates: Vec<String>,
    /// `CrateModel::non_test_lines` of each entry of `crates`, in order.
    pub(crate) non_test_lines: Vec<usize>,
    pub(crate) files: usize,
}

/// Everything one analysis run produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub(crate) stats: Stats,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human output: one line per finding, then a stats trailer.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        let s = &self.stats;
        out.push_str(&format!(
            "analysis: {} crate(s), {} file(s); {} finding(s); {} non-test line(s)\n",
            s.crates.len(),
            s.files,
            self.findings.len(),
            s.non_test_lines.iter().sum::<usize>(),
        ));
        out
    }

    /// Machine-readable report (CI artifact).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"starfish-analysis/3\",\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"rule\": {}, ", json_str(&f.rule)));
            out.push_str(&format!(
                "\"file\": {}, ",
                json_str(&f.file.display().to_string())
            ));
            out.push_str(&format!("\"line\": {}, ", f.line));
            out.push_str(&format!("\"message\": {}}}", json_str(&f.msg)));
        }
        let s = &self.stats;
        out.push_str("\n  ],\n  \"stats\": {");
        out.push_str("\"crates\": [");
        for (i, c) in s.crates.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(c));
        }
        out.push_str("], \"non_test_lines\": {");
        for (i, (c, n)) in s.crates.iter().zip(&s.non_test_lines).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {n}", json_str(c)));
        }
        out.push_str(&format!("}}, \"files\": {}}}\n}}\n", s.files));
        out
    }
}

/// JSON string literal with escaping. A private copy of
/// `starfish_util::json::string`: this crate analyses the workspace and
/// deliberately depends on none of it (`[dependencies]` is empty).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
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
    fn json_escapes_and_shapes() {
        let mut r = Report::default();
        r.findings.push(Finding::new(
            "sans-io",
            PathBuf::from("crates/mpi/src/credit.rs"),
            10,
            "`Fabric` named \"here\"\tand there".into(),
        ));
        r.stats.crates.push("vni".into());
        r.stats.non_test_lines.push(42);
        let j = r.to_json();
        assert!(j.contains("\\\"here\\\""), "{j}");
        assert!(j.contains("\\t"), "{j}");
        assert!(j.contains("\"schema\": \"starfish-analysis/3\""));
        assert!(j.contains("\"crates\": [\"vni\"]"));
        assert!(j.contains("\"non_test_lines\": {\"vni\": 42}, "));
        // Structurally balanced (cheap sanity: equal brace counts).
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced: {j}"
        );
    }

    #[test]
    fn human_render_includes_findings_and_stats() {
        let mut r = Report::default();
        let f = Finding::new("sans-io", PathBuf::from("a.rs"), 3, "m".into());
        r.findings.push(f);
        let h = r.render_human();
        assert!(h.contains("a.rs:3: [sans-io] m"));
        assert!(h.contains("1 finding(s)"));
    }
}
