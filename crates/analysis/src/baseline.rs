//! The committed triage file, `analysis-baseline.toml`. Hand-rolled parser
//! for the TOML subset the baseline actually uses: comments,
//! `[[array-of-tables]]` and `key = "string"` pairs. Anything else is a
//! parse error — a baseline that cannot be read must fail loudly, not
//! silently allow everything.

use std::fs;
use std::path::Path;

/// One triaged lock-order edge `a -> b`: the edge is dropped from the graph
/// before cycle detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockOrderAllow {
    pub a: String,
    pub b: String,
    pub reason: String,
}

/// One triaged blocking-while-locked site, keyed by the holding function's
/// qualified name and the blocking op kind (robust to line drift).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockingAllow {
    pub function: String,
    pub op: String,
    pub reason: String,
}

#[derive(Debug, Clone, Default)]
pub struct Baseline {
    pub lock_order: Vec<LockOrderAllow>,
    pub blocking: Vec<BlockingAllow>,
}

impl Baseline {
    pub fn empty() -> Baseline {
        Baseline::default()
    }

    /// Load from disk; a missing file is an empty baseline, an unreadable
    /// or malformed one is an error.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        if !path.exists() {
            return Ok(Baseline::empty());
        }
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Baseline, String> {
        #[derive(PartialEq)]
        enum Sec {
            None,
            LockOrder,
            Blocking,
        }
        let mut b = Baseline::empty();
        let mut sec = Sec::None;
        for (ln, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let at = |msg: &str| format!("line {}: {msg}", ln + 1);
            if let Some(name) = line.strip_prefix("[[").and_then(|r| r.strip_suffix("]]")) {
                sec = match name.trim() {
                    "lock-order" => {
                        b.lock_order.push(LockOrderAllow {
                            a: String::new(),
                            b: String::new(),
                            reason: String::new(),
                        });
                        Sec::LockOrder
                    }
                    "blocking-while-locked" => {
                        b.blocking.push(BlockingAllow {
                            function: String::new(),
                            op: String::new(),
                            reason: String::new(),
                        });
                        Sec::Blocking
                    }
                    other => return Err(at(&format!("unknown section [[{other}]]"))),
                };
                continue;
            }
            if line.starts_with('[') {
                return Err(at(&format!("unknown section {line}")));
            }
            let Some(eq) = line.find('=') else {
                return Err(at("expected `key = value`"));
            };
            let key = line[..eq].trim();
            let val = line[eq + 1..].trim();
            match sec {
                Sec::None => return Err(at("key before any section")),
                Sec::LockOrder => {
                    let e = b.lock_order.last_mut().unwrap();
                    match key {
                        "a" => e.a = parse_str(val).ok_or_else(|| at("`a` must be a string"))?,
                        "b" => e.b = parse_str(val).ok_or_else(|| at("`b` must be a string"))?,
                        "reason" => {
                            e.reason =
                                parse_str(val).ok_or_else(|| at("`reason` must be a string"))?
                        }
                        k => return Err(at(&format!("unknown lock-order key `{k}`"))),
                    }
                }
                Sec::Blocking => {
                    let e = b.blocking.last_mut().unwrap();
                    match key {
                        "function" => {
                            e.function =
                                parse_str(val).ok_or_else(|| at("`function` must be a string"))?
                        }
                        "op" => e.op = parse_str(val).ok_or_else(|| at("`op` must be a string"))?,
                        "reason" => {
                            e.reason =
                                parse_str(val).ok_or_else(|| at("`reason` must be a string"))?
                        }
                        k => return Err(at(&format!("unknown blocking key `{k}`"))),
                    }
                }
            }
        }
        for e in &b.lock_order {
            if e.a.is_empty() || e.b.is_empty() || e.reason.is_empty() {
                return Err("every [[lock-order]] entry needs `a`, `b` and `reason`".into());
            }
        }
        for e in &b.blocking {
            if e.function.is_empty() || e.op.is_empty() || e.reason.is_empty() {
                return Err(
                    "every [[blocking-while-locked]] entry needs `function`, `op` and `reason`"
                        .into(),
                );
            }
        }
        Ok(b)
    }

    pub fn allows_edge(&self, a: &str, b: &str) -> bool {
        self.lock_order.iter().any(|e| e.a == a && e.b == b)
    }

    pub fn allows_blocking(&self, function: &str, op: &str) -> bool {
        self.blocking
            .iter()
            .any(|e| e.function == function && e.op == op)
    }
}

/// Strip a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_str(val: &str) -> Option<String> {
    let v = val.strip_prefix('"')?.strip_suffix('"')?;
    Some(v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_sections() {
        let b = Baseline::parse(concat!(
            "# triaged findings\n",
            "[[lock-order]]\n",
            "a = \"vni::Membership.links\"\n",
            "b = \"vni::Inbox.q\"\n",
            "reason = \"strict shard order\"  # inline comment\n",
            "\n",
            "[[blocking-while-locked]]\n",
            "function = \"Daemon::wait_config\"\n",
            "op = \"thread::sleep\"\n",
            "reason = \"startup poll, no shard lock held\"\n",
        ))
        .unwrap();
        assert!(b.allows_edge("vni::Membership.links", "vni::Inbox.q"));
        assert!(!b.allows_edge("vni::Inbox.q", "vni::Membership.links"));
        assert!(b.allows_blocking("Daemon::wait_config", "thread::sleep"));
    }

    #[test]
    fn rejects_incomplete_and_unknown() {
        assert!(Baseline::parse("[[lock-order]]\na = \"x\"\n").is_err());
        assert!(Baseline::parse("[mystery]\n").is_err());
        assert!(Baseline::parse("stray = 1\n").is_err());
        assert!(Baseline::parse("[panic-surface]\n\"f.rs\" = 3\n").is_err());
    }

    #[test]
    fn missing_file_is_empty() {
        let b = Baseline::load(Path::new("/nonexistent/analysis-baseline.toml")).unwrap();
        assert!(b.lock_order.is_empty() && b.blocking.is_empty());
    }
}
