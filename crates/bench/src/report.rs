//! The report's shapes: a section of `BENCH_calibrate.json`, and the band
//! a cell that moves between runs is recorded as. Both are
//! [`starfish_util::json::Json`] values, rendered by its one writer.

use std::fmt::Debug;

use starfish_util::json::Json;

/// How many times a section with a cell that moves between runs is run.
pub(crate) const REPEATS: usize = 5;

/// Why a banded cell moves. `ci/check_bench.py` knows each cause and the
/// cells it may band; EXPERIMENTS.md explains them.
pub(crate) mod cause {
    /// A cast racing the idle node's crash reaches it or not, and a rank's
    /// telemetry cast carries wall-clock histograms whose encoding varies.
    pub(crate) const CAST_TIMING: &str = "cast-timing";
}

/// A report section: its clock first, then its fields.
pub fn section(clock: &str, fields: Vec<(&str, Json)>) -> Json {
    Json::obj([("clock", Json::str(clock))].into_iter().chain(fields))
}

/// A cell measured once per repeat that moves between runs: the range of
/// the repeats and why it moves.
pub(crate) fn band(values: impl IntoIterator<Item = f64>, cause: &str) -> Json {
    let (min, max) = values
        .into_iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
    Json::obj([
        ("min", Json::Num(min)),
        ("max", Json::Num(max)),
        ("cause", Json::str(cause)),
    ])
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
