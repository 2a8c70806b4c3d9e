//! Findings and the machine-readable report, a [`Json`] value rendered by
//! the workspace's one JSON writer.

use std::fmt;
use std::path::PathBuf;

use starfish_util::json::Json;

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
        let findings = self.findings.iter().map(|f| {
            Json::obj([
                ("rule", Json::str(&f.rule)),
                ("file", Json::str(f.file.display().to_string())),
                ("line", Json::Num(f.line)),
                ("message", Json::str(&f.msg)),
            ])
        });
        let s = &self.stats;
        let lines = s.crates.iter().zip(&s.non_test_lines);
        let stats = [
            ("crates", Json::arr(s.crates.iter().map(Json::str))),
            (
                "non_test_lines",
                Json::obj(lines.map(|(c, n)| (c, Json::Num(n)))),
            ),
            ("files", Json::Num(s.files)),
        ];
        Json::obj([
            ("schema", Json::str("starfish-analysis/3")),
            ("findings", Json::arr(findings)),
            ("stats", Json::obj(stats)),
        ])
        .render()
    }
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
        let j = starfish_util::json::parse(&r.to_json()).expect("the report is JSON");
        assert_eq!(j.get("schema"), Some(&Json::str("starfish-analysis/3")));
        let finding = &j.get("findings").and_then(Json::as_arr).unwrap()[0];
        let message = finding.get("message").and_then(Json::as_str);
        assert_eq!(message, Some("`Fabric` named \"here\"\tand there"));
        assert_eq!(finding.get("line"), Some(&Json::Num(10)));
        let stats = j.get("stats").unwrap();
        assert_eq!(
            stats.get("crates"),
            Some(&Json::Arr(vec![Json::str("vni")]))
        );
        let lines = Json::obj([("vni", Json::Num(42))]);
        assert_eq!(stats.get("non_test_lines"), Some(&lines));
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
