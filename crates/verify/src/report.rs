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
    /// Acquisition / call chains substantiating the finding (lock-order and
    /// blocking-while-locked); empty for line-local rules.
    pub(crate) chains: Vec<String>,
    /// Stable subject for baseline matching: the qualified function for
    /// blocking findings, the `a -> b` pair for lock-order findings,
    /// empty for legacy rules.
    pub(crate) subject: String,
    /// Stable detail for baseline matching: the blocking op kind. Empty
    /// when unused.
    pub(crate) detail: String,
}

impl Finding {
    pub(crate) fn new(rule: &str, file: PathBuf, line: usize, msg: String) -> Finding {
        Finding {
            rule: rule.to_string(),
            file,
            line,
            msg,
            chains: Vec::new(),
            subject: String::new(),
            detail: String::new(),
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
        )?;
        for c in &self.chains {
            write!(f, "\n    {c}")?;
        }
        Ok(())
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
    pub(crate) functions: usize,
    pub(crate) lock_classes: usize,
    pub(crate) lock_edges: usize,
    pub(crate) unresolved_locks: usize,
    pub(crate) baselined: usize,
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

    /// Human output: one line per finding (plus indented chains), then a
    /// stats trailer.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        let s = &self.stats;
        out.push_str(&format!(
            "analysis: {} crate(s), {} file(s), {} function(s); \
             {} lock class(es), {} lock-order edge(s), {} unresolved lock site(s); \
             {} finding(s) ({} baselined); \
             {} non-test line(s)\n",
            s.crates.len(),
            s.files,
            s.functions,
            s.lock_classes,
            s.lock_edges,
            s.unresolved_locks,
            self.findings.len(),
            s.baselined,
            s.non_test_lines.iter().sum::<usize>(),
        ));
        out
    }

    /// Machine-readable report (CI artifact).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"starfish-analysis/2\",\n  \"findings\": [");
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
            out.push_str(&format!("\"subject\": {}, ", json_str(&f.subject)));
            out.push_str(&format!("\"detail\": {}, ", json_str(&f.detail)));
            out.push_str(&format!("\"message\": {}, ", json_str(&f.msg)));
            out.push_str("\"chains\": [");
            for (j, c) in f.chains.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_str(c));
            }
            out.push_str("]}");
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
        out.push_str(&format!(
            "}}, \"files\": {}, \"functions\": {}, \"lock_classes\": {}, \
             \"lock_edges\": {}, \"unresolved_locks\": {}, \"baselined\": {}}}\n}}\n",
            s.files, s.functions, s.lock_classes, s.lock_edges, s.unresolved_locks, s.baselined,
        ));
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
        let mut f = Finding::new(
            "lock-order",
            PathBuf::from("crates/vni/src/fabric.rs"),
            10,
            "cycle \"a\" <-> b".into(),
        );
        f.chains.push("x -> y\t(f.rs:1)".into());
        r.findings.push(f);
        r.stats.crates.push("vni".into());
        r.stats.non_test_lines.push(42);
        let j = r.to_json();
        assert!(j.contains("\\\"a\\\""), "{j}");
        assert!(j.contains("\\t"), "{j}");
        assert!(j.contains("\"schema\": \"starfish-analysis/2\""));
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
    fn human_render_includes_chains_and_stats() {
        let mut r = Report::default();
        let mut f = Finding::new(
            "blocking-while-locked",
            PathBuf::from("a.rs"),
            3,
            "m".into(),
        );
        f.chains.push("chain step".into());
        r.findings.push(f);
        let h = r.render_human();
        assert!(h.contains("a.rs:3: [blocking-while-locked] m"));
        assert!(h.contains("    chain step"));
        assert!(h.contains("1 finding(s)"));
    }
}
