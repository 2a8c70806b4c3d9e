//! Eager/rendezvous threshold calibration.
//!
//! The hardcoded [`DEFAULT_RNDV_THRESHOLD`] is a fallback, not a
//! measurement: the size at which the rendezvous protocol's control
//! round-trip pays for itself depends on the host and the network model.
//! The fabric microbenchmark (`starfish-bench`, `benches/fabric.rs`) sweeps
//! payload sizes with each protocol forced on, derives the *measured
//! crossover* with [`measured_crossover`], turns it into a threshold with
//! [`calibrate`], and reports both in `BENCH_fabric.json`. The bench
//! reports the calibration; the constants are what runs.
//!
//! Everything here is pure and deterministic: the same sweep always yields
//! the same threshold, and a larger measured crossover never yields a
//! smaller threshold (monotonicity) — both properties are pinned by
//! proptests below, and [`threshold_consistent`] is the assertion the bench
//! applies to catch a mis-calibrated configuration against fresh numbers.

use crate::endpoint::DEFAULT_RNDV_THRESHOLD;

/// How far above eager the rendezvous cost may sit and still count as
/// "competitive": the crossover is the smallest size with
/// `rendezvous <= eager * CROSSOVER_TOLERANCE`. The slack absorbs run-to-run
/// noise around the true intersection of the two cost curves.
pub const CROSSOVER_TOLERANCE: f64 = 1.10;

/// Smallest threshold calibration will produce: below this the control
/// round-trip can never amortize, whatever one noisy sweep says.
pub const MIN_CALIBRATED: usize = 1024;

/// Largest threshold calibration will produce: at this size the eager
/// path's buffering cost is unacceptable regardless of measured speed
/// (it is also [`crate::credit::EAGER_CREDIT_BYTES`], where credit
/// fallback forces rendezvous anyway).
pub const MAX_CALIBRATED: usize = 1 << 20;

/// One row of the protocol sweep: payload size in bytes, eager ns/msg,
/// rendezvous ns/msg.
pub type SweepRow = (usize, f64, f64);

/// The smallest swept size at which rendezvous is competitive with eager
/// (within [`CROSSOVER_TOLERANCE`]), or `None` if it never is. Rows may be
/// passed in any order; non-finite measurements are ignored.
pub fn measured_crossover(sweep: &[SweepRow]) -> Option<usize> {
    let mut rows: Vec<&SweepRow> = sweep
        .iter()
        .filter(|(_, e, r)| e.is_finite() && r.is_finite() && *e > 0.0)
        .collect();
    rows.sort_by_key(|(size, _, _)| *size);
    rows.iter()
        .find(|(_, eager, rndv)| *rndv <= *eager * CROSSOVER_TOLERANCE)
        .map(|(size, _, _)| *size)
}

/// Turn a measured crossover into a send threshold: round up to the next
/// power of two (sweeps sample sparsely; rounding up is conservative toward
/// eager, whose small-size cost is flat), clamped to
/// [`MIN_CALIBRATED`]..=[`MAX_CALIBRATED`]. `None` — no crossover measured —
/// keeps the static [`DEFAULT_RNDV_THRESHOLD`].
///
/// Deterministic and monotone: equal inputs give equal outputs, and a
/// larger crossover never produces a smaller threshold.
pub fn calibrate(crossover: Option<usize>) -> usize {
    match crossover {
        None => DEFAULT_RNDV_THRESHOLD,
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
/// * a threshold *below* the measured crossover routes sizes through
///   rendezvous where eager still wins (some swept size `>= threshold` is
///   not competitive);
/// * a threshold far *above* it (or `usize::MAX`) throws away measured
///   rendezvous wins.
///
/// With no measured crossover, only the static default (or disabling
/// rendezvous outright) is consistent.
pub fn threshold_consistent(threshold: usize, sweep: &[SweepRow]) -> bool {
    match measured_crossover(sweep) {
        None => threshold == DEFAULT_RNDV_THRESHOLD || threshold == usize::MAX,
        Some(c) => {
            let competitive_above = sweep
                .iter()
                .filter(|(size, _, _)| *size >= threshold)
                .all(|(_, eager, rndv)| *rndv <= *eager * CROSSOVER_TOLERANCE);
            let captures_wins = threshold <= calibrate(Some(c)).saturating_mul(2);
            competitive_above && captures_wins
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic sweep with a clean crossover at 256 KiB: below it eager
    /// wins comfortably, at and above it rendezvous is ahead.
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
    fn no_crossover_when_rendezvous_never_competitive() {
        let s = vec![(256usize, 800.0, 4000.0), (1048576, 300000.0, 400000.0)];
        assert_eq!(measured_crossover(&s), None);
        assert_eq!(calibrate(None), DEFAULT_RNDV_THRESHOLD);
    }

    #[test]
    fn calibrate_rounds_up_and_clamps() {
        assert_eq!(calibrate(Some(262144)), 262144); // exact power of two
        assert_eq!(calibrate(Some(200000)), 262144); // rounds up
        assert_eq!(calibrate(Some(64)), MIN_CALIBRATED); // clamped low
        assert_eq!(calibrate(Some(1 << 30)), MAX_CALIBRATED); // clamped high
    }

    /// The mutation-style teeth check for the bench assertion: the
    /// calibrated threshold passes, and both mis-calibrations — the old
    /// hardcoded 64 KiB default below the measured crossover, and a
    /// rendezvous-never threshold above it — are caught.
    #[test]
    fn bench_assertion_catches_miscalibrated_threshold() {
        let sweep = sweep_with_crossover();
        let calibrated = calibrate(measured_crossover(&sweep));
        assert_eq!(calibrated, 262144);
        assert!(threshold_consistent(calibrated, &sweep));
        // Mutation 1: keep the stale hardcoded default (64 KiB) even though
        // the measured crossover is 256 KiB → 64 KiB..256 KiB would go
        // rendezvous where eager wins. Caught.
        assert!(!threshold_consistent(DEFAULT_RNDV_THRESHOLD, &sweep));
        // Mutation 2: disable rendezvous despite measured wins. Caught.
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
