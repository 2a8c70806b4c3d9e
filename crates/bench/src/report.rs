//! The report writer: one value type, [`J`], that every section of
//! `BENCH_calibrate.json` is built from, and the band a cell that moves
//! between runs is recorded as.

use std::fmt::{Debug, Display};

use starfish_util::json;

/// How many times a section with a cell that moves between runs is run.
pub(crate) const REPEATS: usize = 5;

/// Why a banded cell moves. `ci/check_bench.py` knows each cause and the
/// cells it may band; EXPERIMENTS.md explains them.
pub(crate) mod cause {
    /// A stop-and-sync round's duration takes stamps that daemons relay,
    /// and which a daemon relays first is thread scheduling (DESIGN.md §7).
    pub(crate) const RELAY_ORDER: &str = "relay-order";
    /// A cast racing the idle node's crash reaches it or not, and a rank's
    /// telemetry cast carries wall-clock histograms whose encoding varies.
    pub(crate) const CAST_TIMING: &str = "cast-timing";
    /// Whether a ring message is queued or in flight when a rank captures
    /// its channel state is thread scheduling.
    pub(crate) const ARRIVAL_ORDER: &str = "arrival-order";
}

/// One value of the report: a formatted scalar, or an object. An object of
/// scalars prints on one line; an object holding an object nests.
pub enum J {
    Lit(String),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn num(v: impl Display) -> J {
        J::Lit(v.to_string())
    }

    pub fn str(s: &str) -> J {
        J::Lit(json::string(s))
    }

    pub fn obj<S: Display>(fields: impl IntoIterator<Item = (S, J)>) -> J {
        J::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A report section: its clock first, then its fields.
    pub fn section(clock: &str, fields: Vec<(&str, J)>) -> J {
        J::obj([("clock", J::str(clock))].into_iter().chain(fields))
    }

    /// A cell measured once per repeat that moves between runs: the range
    /// of the repeats and why it moves.
    pub(crate) fn band(values: impl IntoIterator<Item = f64>, cause: &str) -> J {
        let (min, max) = values
            .into_iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
        J::obj([
            ("min", J::num(min)),
            ("max", J::num(max)),
            ("cause", J::str(cause)),
        ])
    }

    /// The document, ending in a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let fields = match self {
            J::Lit(s) => return out.push_str(s),
            J::Obj(fields) => fields,
        };
        let flat = fields.iter().all(|(_, v)| matches!(v, J::Lit(_)));
        out.push('{');
        for (i, (k, v)) in fields.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { "," });
            if flat {
                out.push_str(if i == 0 { "" } else { " " });
            } else {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            }
            out.push_str(&format!("{}: ", json::string(k)));
            v.write(out, depth + 1);
        }
        if !flat {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push('}');
    }
}

/// The one value every repeat measured for a cell the report records as
/// exact. A cell that moved is a defect of the report, not noise to hide.
pub(crate) fn exact<T: PartialEq + Debug + Copy>(values: &[T], what: &str) -> T {
    assert!(
        values.windows(2).all(|w| w[0] == w[1]),
        "{what} moved between repeats: {values:?}"
    );
    values[0]
}
