//! Small statistics and waveform-analysis helpers used by the experiment
//! harness (means, total harmonic distortion, regression slopes for
//! charging-rate estimation).

use crate::NumericsError;

/// Arithmetic mean of a slice; returns `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Maximum absolute value; returns `0.0` for an empty slice.
pub fn peak(values: &[f64]) -> f64 {
    values.iter().fold(0.0f64, |acc, v| acc.max(v.abs()))
}

/// Least-squares straight-line fit `y ≈ slope·x + intercept`.
///
/// Used to estimate charging *rates* from super-capacitor voltage traces.
///
/// # Errors
///
/// Returns [`NumericsError::InvalidArgument`] if fewer than two points are
/// supplied, the lengths differ, or all abscissae are identical.
pub fn linear_regression(xs: &[f64], ys: &[f64]) -> Result<(f64, f64), NumericsError> {
    if xs.len() != ys.len() {
        return Err(NumericsError::InvalidArgument(format!(
            "regression requires equal lengths, got {} and {}",
            xs.len(),
            ys.len()
        )));
    }
    if xs.len() < 2 {
        return Err(NumericsError::InvalidArgument(
            "regression requires at least two points".to_string(),
        ));
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (x, y) in xs.iter().zip(ys.iter()) {
        sxx += (x - mx) * (x - mx);
        sxy += (x - mx) * (y - my);
    }
    if sxx == 0.0 {
        return Err(NumericsError::InvalidArgument(
            "regression abscissae are all identical".to_string(),
        ));
    }
    let slope = sxy / sxx;
    Ok((slope, my - slope * mx))
}

/// Single-frequency discrete Fourier coefficient of a uniformly sampled
/// waveform: returns the amplitude of the component at `frequency_hz`.
///
/// `dt` is the sampling interval in seconds.
pub(crate) fn fourier_amplitude(samples: &[f64], dt: f64, frequency_hz: f64) -> f64 {
    if samples.is_empty() || dt <= 0.0 {
        return 0.0;
    }
    let omega = 2.0 * std::f64::consts::PI * frequency_hz;
    let mut re = 0.0;
    let mut im = 0.0;
    for (k, s) in samples.iter().enumerate() {
        let t = k as f64 * dt;
        re += s * (omega * t).cos();
        im += s * (omega * t).sin();
    }
    2.0 * (re * re + im * im).sqrt() / samples.len() as f64
}

/// Total harmonic distortion of a waveform relative to a fundamental
/// frequency, using harmonics 2..=`harmonics`.
///
/// Returns the ratio `sqrt(Σ harmonic²) / fundamental`; `0.0` if the
/// fundamental amplitude is zero. A pure sine has THD ≈ 0; the clipped,
/// non-sinusoidal generator output of the paper's Fig. 7 has a markedly
/// higher THD, which is how the experiment harness quantifies
/// "non-sine-wave output".
pub fn total_harmonic_distortion(
    samples: &[f64],
    dt: f64,
    fundamental_hz: f64,
    harmonics: usize,
) -> f64 {
    let fundamental = fourier_amplitude(samples, dt, fundamental_hz);
    if fundamental == 0.0 {
        return 0.0;
    }
    let mut acc = 0.0;
    for h in 2..=harmonics.max(2) {
        let a = fourier_amplitude(samples, dt, fundamental_hz * h as f64);
        acc += a * a;
    }
    acc.sqrt() / fundamental
}

/// Trapezoidal numerical integration of uniformly or non-uniformly sampled
/// data `∫ y dx`.
///
/// Returns `0.0` for fewer than two samples.
///
/// # Panics
///
/// Panics if `xs` and `ys` have different lengths.
pub fn trapezoid_integral(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "integration length mismatch");
    if xs.len() < 2 {
        return 0.0;
    }
    let mut acc = 0.0;
    for i in 1..xs.len() {
        acc += 0.5 * (ys[i] + ys[i - 1]) * (xs[i] - xs[i - 1]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn mean_and_peak_of_known_data() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&data), 2.5);
        assert_eq!(peak(&[-3.0, 2.0]), 3.0);
    }

    #[test]
    fn empty_slices_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(peak(&[]), 0.0);
        assert_eq!(trapezoid_integral(&[], &[]), 0.0);
    }

    #[test]
    fn regression_recovers_line() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 1.0).collect();
        let (slope, intercept) = linear_regression(&xs, &ys).unwrap();
        assert!((slope - 3.0).abs() < 1e-12);
        assert!((intercept + 1.0).abs() < 1e-12);
    }

    #[test]
    fn regression_rejects_degenerate_input() {
        assert!(linear_regression(&[1.0], &[1.0]).is_err());
        assert!(linear_regression(&[1.0, 1.0], &[1.0, 2.0]).is_err());
        assert!(linear_regression(&[1.0, 2.0], &[1.0]).is_err());
    }

    #[test]
    fn fourier_amplitude_of_pure_sine() {
        let f = 50.0;
        let dt = 1e-4;
        let samples: Vec<f64> = (0..2000)
            .map(|k| (2.0 * PI * f * k as f64 * dt).sin() * 3.0)
            .collect();
        let a = fourier_amplitude(&samples, dt, f);
        assert!((a - 3.0).abs() < 0.05);
    }

    #[test]
    fn thd_distinguishes_sine_from_square() {
        let f = 50.0;
        let dt = 1e-4;
        let n = 2000;
        let sine: Vec<f64> = (0..n)
            .map(|k| (2.0 * PI * f * k as f64 * dt).sin())
            .collect();
        let square: Vec<f64> = sine.iter().map(|s| s.signum()).collect();
        let thd_sine = total_harmonic_distortion(&sine, dt, f, 9);
        let thd_square = total_harmonic_distortion(&square, dt, f, 9);
        assert!(thd_sine < 0.05, "sine THD should be tiny, got {thd_sine}");
        assert!(
            thd_square > 0.3,
            "square THD should be large, got {thd_square}"
        );
    }

    #[test]
    fn trapezoid_integrates_linear_function_exactly() {
        let xs: Vec<f64> = (0..=10).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x).collect();
        assert!((trapezoid_integral(&xs, &ys) - 1.0).abs() < 1e-12);
    }
}
