//! Energy accounting and performance metrics (the paper's Eq. 9 and the
//! derived quantities used in its evaluation).

use harvester_numerics::stats::linear_regression;

/// The paper's Eq. (9): performance loss
/// `η_loss = (E_harvested − E_delivered) / E_harvested`.
///
/// Returns `0.0` when no energy was harvested (the loss is undefined; zero is
/// the least surprising value for reporting).
pub fn efficiency_loss(harvested: f64, delivered: f64) -> f64 {
    if harvested <= 0.0 {
        return 0.0;
    }
    (harvested - delivered) / harvested
}

/// Energy-harvesting efficiency `E_delivered / E_harvested`
/// (the complement of [`efficiency_loss`]).
pub fn efficiency(harvested: f64, delivered: f64) -> f64 {
    1.0 - efficiency_loss(harvested, delivered)
}

/// Relative improvement of `improved` over `baseline`, in percent — the
/// quantity behind the paper's "30 % improvement" headline (1.95 V vs 1.5 V
/// at 150 minutes).
///
/// Returns `0.0` if the baseline is not positive.
pub fn improvement_percent(baseline: f64, improved: f64) -> f64 {
    if baseline <= 0.0 {
        return 0.0;
    }
    100.0 * (improved - baseline) / baseline
}

/// Energy stored in a capacitor charged from `v_start` to `v_end`.
pub(crate) fn capacitor_energy(capacitance: f64, v_start: f64, v_end: f64) -> f64 {
    0.5 * capacitance * (v_end * v_end - v_start * v_start)
}

/// Average charging rate (volts per second) of a storage-voltage trace,
/// estimated by least-squares regression — the optimisation objective the
/// paper's GA maximises.
///
/// Returns `0.0` for traces that are too short to regress.
pub fn charging_rate(times: &[f64], voltages: &[f64]) -> f64 {
    match linear_regression(times, voltages) {
        Ok((slope, _)) => slope,
        Err(_) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_loss_matches_equation_nine() {
        assert!((efficiency_loss(10.0, 7.0) - 0.3).abs() < 1e-12);
        assert_eq!(efficiency_loss(0.0, 1.0), 0.0);
        assert!((efficiency(10.0, 7.0) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn improvement_matches_paper_headline() {
        // 1.5 V -> 1.95 V is the paper's 30 % improvement.
        assert!((improvement_percent(1.5, 1.95) - 30.0).abs() < 1e-9);
        assert_eq!(improvement_percent(0.0, 1.0), 0.0);
        assert!(improvement_percent(2.0, 1.0) < 0.0);
    }

    #[test]
    fn capacitor_energy_is_quadratic_in_voltage() {
        let e = capacitor_energy(0.22, 0.0, 1.5);
        assert!((e - 0.5 * 0.22 * 2.25).abs() < 1e-12);
        assert!(capacitor_energy(0.22, 1.5, 1.0) < 0.0);
    }

    #[test]
    fn charging_rate_recovers_linear_ramp() {
        let times: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let volts: Vec<f64> = times.iter().map(|t| 0.01 * t + 0.2).collect();
        assert!((charging_rate(&times, &volts) - 0.01).abs() < 1e-12);
        assert_eq!(charging_rate(&[0.0], &[1.0]), 0.0);
    }
}
