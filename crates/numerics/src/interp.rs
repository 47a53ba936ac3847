//! Interpolation utilities.
//!
//! The analytical micro-generator model needs a continuous flux-linkage
//! function even though the paper only publishes two of its seven piecewise
//! sections; the missing sections are bridged with the monotone cubic
//! (Fritsch–Carlson / PCHIP) interpolant implemented here, which guarantees no
//! spurious oscillation between the published anchor points.

use crate::NumericsError;

/// Piecewise-linear interpolation over a table of `(x, y)` breakpoints.
///
/// # Example
///
/// ```
/// # use harvester_numerics::interp::LinearInterpolator;
/// # fn main() -> Result<(), harvester_numerics::NumericsError> {
/// let interp = LinearInterpolator::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 0.0])?;
/// assert_eq!(interp.value(0.5), 5.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearInterpolator {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl LinearInterpolator {
    /// Creates an interpolator from breakpoints.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidArgument`] if fewer than two points are
    /// given, the lengths differ, or the abscissae are not strictly
    /// increasing.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self, NumericsError> {
        validate_breakpoints(&xs, &ys)?;
        Ok(LinearInterpolator { xs, ys })
    }

    /// Interpolated value at `x`; clamps outside the table range.
    pub fn value(&self, x: f64) -> f64 {
        if x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= *self.xs.last().unwrap() {
            return *self.ys.last().unwrap();
        }
        let hi = self.xs.partition_point(|&xi| xi <= x);
        let lo = hi - 1;
        let t = (x - self.xs[lo]) / (self.xs[hi] - self.xs[lo]);
        self.ys[lo] + t * (self.ys[hi] - self.ys[lo])
    }

    /// The abscissae of the table.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The ordinates of the table.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }
}

/// Monotone cubic Hermite interpolation (Fritsch–Carlson, also known as
/// PCHIP): a C¹ interpolant that never overshoots monotone data.
#[derive(Debug, Clone, PartialEq)]
pub struct MonotoneCubic {
    xs: Vec<f64>,
    ys: Vec<f64>,
    slopes: Vec<f64>,
}

impl MonotoneCubic {
    /// Creates the interpolant from breakpoints.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidArgument`] under the same conditions as
    /// [`LinearInterpolator::new`].
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self, NumericsError> {
        validate_breakpoints(&xs, &ys)?;
        let n = xs.len();
        let mut deltas = vec![0.0; n - 1];
        for i in 0..n - 1 {
            deltas[i] = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]);
        }
        let mut slopes = vec![0.0; n];
        slopes[0] = deltas[0];
        slopes[n - 1] = deltas[n - 2];
        for i in 1..n - 1 {
            if deltas[i - 1] * deltas[i] <= 0.0 {
                slopes[i] = 0.0;
            } else {
                // Weighted harmonic mean keeps the interpolant monotone.
                let w1 = 2.0 * (xs[i + 1] - xs[i]) + (xs[i] - xs[i - 1]);
                let w2 = (xs[i + 1] - xs[i]) + 2.0 * (xs[i] - xs[i - 1]);
                slopes[i] = (w1 + w2) / (w1 / deltas[i - 1] + w2 / deltas[i]);
            }
        }
        // Fritsch–Carlson limiter.
        for i in 0..n - 1 {
            if deltas[i] == 0.0 {
                slopes[i] = 0.0;
                slopes[i + 1] = 0.0;
            } else {
                let alpha = slopes[i] / deltas[i];
                let beta = slopes[i + 1] / deltas[i];
                let s = alpha * alpha + beta * beta;
                if s > 9.0 {
                    let tau = 3.0 / s.sqrt();
                    slopes[i] = tau * alpha * deltas[i];
                    slopes[i + 1] = tau * beta * deltas[i];
                }
            }
        }
        Ok(MonotoneCubic { xs, ys, slopes })
    }

    /// Interpolated value at `x`; extrapolates linearly using the endpoint
    /// slopes outside the table range.
    pub fn value(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if x <= self.xs[0] {
            return self.ys[0] + self.slopes[0] * (x - self.xs[0]);
        }
        if x >= self.xs[n - 1] {
            return self.ys[n - 1] + self.slopes[n - 1] * (x - self.xs[n - 1]);
        }
        let hi = self.xs.partition_point(|&xi| xi <= x);
        let lo = hi - 1;
        let h = self.xs[hi] - self.xs[lo];
        let t = (x - self.xs[lo]) / h;
        let t2 = t * t;
        let t3 = t2 * t;
        let h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
        let h10 = t3 - 2.0 * t2 + t;
        let h01 = -2.0 * t3 + 3.0 * t2;
        let h11 = t3 - t2;
        h00 * self.ys[lo]
            + h10 * h * self.slopes[lo]
            + h01 * self.ys[hi]
            + h11 * h * self.slopes[hi]
    }

    /// Derivative of the interpolant at `x`.
    pub fn derivative(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if x <= self.xs[0] {
            return self.slopes[0];
        }
        if x >= self.xs[n - 1] {
            return self.slopes[n - 1];
        }
        let hi = self.xs.partition_point(|&xi| xi <= x);
        let lo = hi - 1;
        let h = self.xs[hi] - self.xs[lo];
        let t = (x - self.xs[lo]) / h;
        let t2 = t * t;
        let dh00 = (6.0 * t2 - 6.0 * t) / h;
        let dh10 = 3.0 * t2 - 4.0 * t + 1.0;
        let dh01 = (-6.0 * t2 + 6.0 * t) / h;
        let dh11 = 3.0 * t2 - 2.0 * t;
        dh00 * self.ys[lo] + dh10 * self.slopes[lo] + dh01 * self.ys[hi] + dh11 * self.slopes[hi]
    }
}

fn validate_breakpoints(xs: &[f64], ys: &[f64]) -> Result<(), NumericsError> {
    if xs.len() < 2 {
        return Err(NumericsError::InvalidArgument(
            "interpolation requires at least two breakpoints".to_string(),
        ));
    }
    if xs.len() != ys.len() {
        return Err(NumericsError::InvalidArgument(format!(
            "breakpoint lengths differ: {} abscissae vs {} ordinates",
            xs.len(),
            ys.len()
        )));
    }
    if xs.windows(2).any(|w| w[1] <= w[0]) {
        return Err(NumericsError::InvalidArgument(
            "abscissae must be strictly increasing".to_string(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_interpolation_hits_breakpoints() {
        let li = LinearInterpolator::new(vec![0.0, 1.0, 3.0], vec![1.0, 2.0, -2.0]).unwrap();
        assert_eq!(li.value(0.0), 1.0);
        assert_eq!(li.value(1.0), 2.0);
        assert_eq!(li.value(3.0), -2.0);
        assert_eq!(li.value(2.0), 0.0);
        assert_eq!(li.xs().len(), 3);
        assert_eq!(li.ys().len(), 3);
    }

    #[test]
    fn linear_interpolation_clamps() {
        let li = LinearInterpolator::new(vec![0.0, 1.0], vec![5.0, 6.0]).unwrap();
        assert_eq!(li.value(-10.0), 5.0);
        assert_eq!(li.value(10.0), 6.0);
    }

    #[test]
    fn rejects_bad_breakpoints() {
        assert!(LinearInterpolator::new(vec![0.0], vec![1.0]).is_err());
        assert!(LinearInterpolator::new(vec![0.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(LinearInterpolator::new(vec![0.0, 1.0], vec![1.0]).is_err());
        assert!(MonotoneCubic::new(vec![1.0, 0.0], vec![0.0, 1.0]).is_err());
    }

    #[test]
    fn monotone_cubic_interpolates_breakpoints() {
        let xs = vec![0.0, 1.0, 2.0, 4.0];
        let ys = vec![0.0, 1.0, 4.0, 16.0];
        let mc = MonotoneCubic::new(xs.clone(), ys.clone()).unwrap();
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert!((mc.value(*x) - y).abs() < 1e-12);
        }
    }

    #[test]
    fn monotone_cubic_preserves_monotonicity() {
        let mc = MonotoneCubic::new(vec![0.0, 1.0, 2.0, 3.0, 4.0], vec![0.0, 0.1, 0.2, 5.0, 5.1])
            .unwrap();
        let mut prev = mc.value(0.0);
        let mut x = 0.0;
        while x <= 4.0 {
            let v = mc.value(x);
            assert!(v + 1e-12 >= prev, "interpolant must be non-decreasing");
            prev = v;
            x += 0.01;
        }
    }

    #[test]
    fn monotone_cubic_derivative_is_consistent() {
        let mc = MonotoneCubic::new(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 8.0]).unwrap();
        let x = 1.3;
        let h = 1e-6;
        let numeric = (mc.value(x + h) - mc.value(x - h)) / (2.0 * h);
        assert!((mc.derivative(x) - numeric).abs() < 1e-5);
    }
}
