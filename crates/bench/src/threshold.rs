//! Threshold calibration: a two-arm size sweep in, a crossover and a
//! threshold out.
//!
//! The `calibrate` bench sweeps each collective's latency-optimal and
//! bandwidth-optimal algorithm over payload sizes, derives the *measured
//! crossover* with [`measured_crossover`], turns it into a threshold with
//! [`calibrate`], and reports both in `BENCH_calibrate.json`. The bench
//! reports the calibration; the constants in `starfish_mpi` are what runs.
//! In the names below, "latency" is the arm that wins small and "bandwidth"
//! the one that wins large.
//!
//! Everything here is pure and deterministic: the same sweep always yields
//! the same threshold, and a larger measured crossover never yields a
//! smaller threshold (monotonicity) — both properties are pinned by
//! proptests below, and [`threshold_consistent`] is the assertion the bench
//! applies to catch a mis-calibrated configuration against fresh numbers.

/// How far above the latency arm the bandwidth arm's cost may sit and still
/// count as "competitive": the crossover is the smallest size with
/// `bandwidth <= latency * CROSSOVER_TOLERANCE`. The slack absorbs
/// run-to-run noise around the true intersection of the two cost curves.
pub(crate) const CROSSOVER_TOLERANCE: f64 = 1.10;

/// Smallest threshold calibration will produce: below this the bandwidth
/// arm's extra steps can never amortize, whatever one noisy sweep says.
pub(crate) const MIN_CALIBRATED: usize = 1024;

/// Largest threshold calibration will produce, and the one it produces when
/// the bandwidth arm never competed in the sweep: the latency arm keeps
/// every size below it.
pub(crate) const MAX_CALIBRATED: usize = 1 << 20;

/// One row of a sweep: payload size in bytes, the latency arm's cost, the
/// bandwidth arm's cost.
pub type SweepRow = (usize, f64, f64);

/// The smallest swept size at which the bandwidth arm is competitive with
/// the latency arm (within [`CROSSOVER_TOLERANCE`]), or `None` if it never
/// is. Rows may be passed in any order; non-finite measurements are ignored.
pub fn measured_crossover(sweep: &[SweepRow]) -> Option<usize> {
    let mut rows: Vec<&SweepRow> = sweep
        .iter()
        .filter(|(_, lat, bw)| lat.is_finite() && bw.is_finite() && *lat > 0.0)
        .collect();
    rows.sort_by_key(|(size, _, _)| *size);
    rows.iter()
        .find(|(_, lat, bw)| *bw <= *lat * CROSSOVER_TOLERANCE)
        .map(|(size, _, _)| *size)
}

/// Turn a measured crossover into a threshold: round up to the next power of
/// two (sweeps sample sparsely; rounding up is conservative toward the
/// latency arm, whose small-size cost is flat), clamped to
/// [`MIN_CALIBRATED`]..=[`MAX_CALIBRATED`]. `None` — the bandwidth arm never
/// competed in the sweep — is [`MAX_CALIBRATED`].
///
/// Deterministic and monotone: equal inputs give equal outputs, and a
/// larger crossover never produces a smaller threshold.
pub fn calibrate(crossover: Option<usize>) -> usize {
    match crossover {
        None => MAX_CALIBRATED,
        Some(c) => c
            .max(1)
            .checked_next_power_of_two()
            .unwrap_or(usize::MAX)
            .clamp(MIN_CALIBRATED, MAX_CALIBRATED),
    }
}

/// The bench-gate assertion: is `threshold` consistent with a freshly
/// measured `sweep`? Catches both failure modes of a stale or mutated
/// calibration:
///
/// * a threshold *below* the measured crossover hands sizes to the bandwidth
///   arm where the latency arm still wins (some swept size `>= threshold` is
///   not competitive);
/// * a threshold far *above* it (or `usize::MAX`) throws away measured
///   bandwidth-arm wins.
///
/// With no measured crossover, only what [`calibrate`] makes of it,
/// [`MAX_CALIBRATED`], is consistent.
pub fn threshold_consistent(threshold: usize, sweep: &[SweepRow]) -> bool {
    match measured_crossover(sweep) {
        None => threshold == MAX_CALIBRATED,
        Some(c) => {
            let competitive_above = sweep
                .iter()
                .filter(|(size, _, _)| *size >= threshold)
                .all(|(_, lat, bw)| *bw <= *lat * CROSSOVER_TOLERANCE);
            let captures_wins = threshold <= calibrate(Some(c)).saturating_mul(2);
            competitive_above && captures_wins
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic sweep with a clean crossover at 256 KiB: below it the
    /// latency arm wins comfortably, at and above it the bandwidth arm is
    /// ahead.
    fn sweep_with_crossover() -> Vec<SweepRow> {
        vec![
            (256, 800.0, 4000.0),
            (1024, 900.0, 4100.0),
            (16384, 6000.0, 9000.0),
            (65536, 20000.0, 24000.0),
            (262144, 80000.0, 60000.0),
            (1048576, 300000.0, 200000.0),
        ]
    }

    #[test]
    fn crossover_is_smallest_competitive_size_regardless_of_row_order() {
        let mut s = sweep_with_crossover();
        s.reverse();
        assert_eq!(measured_crossover(&s), Some(262144));
    }

    #[test]
    fn no_crossover_when_bandwidth_arm_never_competitive() {
        let s = vec![(256usize, 800.0, 4000.0), (1048576, 300000.0, 400000.0)];
        assert_eq!(measured_crossover(&s), None);
        assert_eq!(calibrate(None), MAX_CALIBRATED);
        assert!(threshold_consistent(MAX_CALIBRATED, &s));
        assert!(!threshold_consistent(usize::MAX, &s));
    }

    #[test]
    fn calibrate_rounds_up_and_clamps() {
        assert_eq!(calibrate(Some(262144)), 262144); // exact power of two
        assert_eq!(calibrate(Some(200000)), 262144); // rounds up
        assert_eq!(calibrate(Some(64)), MIN_CALIBRATED); // clamped low
        assert_eq!(calibrate(Some(1 << 30)), MAX_CALIBRATED); // clamped high
    }

    /// The mutation-style teeth check for the bench assertion: the
    /// calibrated threshold passes, and both mis-calibrations — a stale
    /// hardcoded 64 KiB below the measured crossover, and a bandwidth-never
    /// threshold above it — are caught.
    #[test]
    fn bench_assertion_catches_miscalibrated_threshold() {
        let sweep = sweep_with_crossover();
        let calibrated = calibrate(measured_crossover(&sweep));
        assert_eq!(calibrated, 262144);
        assert!(threshold_consistent(calibrated, &sweep));
        // Mutation 1: keep a stale hardcoded 64 KiB even though the measured
        // crossover is 256 KiB → 64 KiB..256 KiB would take the bandwidth arm
        // where the latency arm wins. Caught.
        assert!(!threshold_consistent(64 * 1024, &sweep));
        // Mutation 2: never take the bandwidth arm despite measured wins.
        // Caught.
        assert!(!threshold_consistent(usize::MAX, &sweep));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_sweep() -> impl Strategy<Value = Vec<SweepRow>> {
        proptest::collection::vec(
            (1usize..=1 << 22, 1u64..10_000_000, 1u64..10_000_000)
                .prop_map(|(s, e, r)| (s, e as f64, r as f64)),
            1..12,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Calibration is a pure function of the sweep: re-running it on the
        /// same measurements (in any order) gives the identical threshold.
        #[test]
        fn calibration_deterministic_under_fixed_seed(sweep in arb_sweep()) {
            let a = calibrate(measured_crossover(&sweep));
            let mut shuffled = sweep.clone();
            shuffled.reverse();
            let b = calibrate(measured_crossover(&shuffled));
            prop_assert_eq!(a, b);
            prop_assert_eq!(a, calibrate(measured_crossover(&sweep)));
        }

        /// Monotone in the measured crossover: a larger crossover never
        /// produces a smaller threshold, and the result is always clamped.
        #[test]
        fn calibration_monotone_in_crossover(c1 in 1usize..=1 << 24, c2 in 1usize..=1 << 24) {
            let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
            let t_lo = calibrate(Some(lo));
            let t_hi = calibrate(Some(hi));
            prop_assert!(t_lo <= t_hi, "calibrate({lo})={t_lo} > calibrate({hi})={t_hi}");
            prop_assert!((MIN_CALIBRATED..=MAX_CALIBRATED).contains(&t_lo));
            prop_assert!((MIN_CALIBRATED..=MAX_CALIBRATED).contains(&t_hi));
        }
    }
}
