//! The fixed-step initial-value-problem integrator of the slow envelope ODE.
//!
//! [`rk4`] (classic fourth-order Runge–Kutta) integrates a first-order
//! [`OdeSystem`] into a recorded [`Trajectory`]. The envelope simulator uses
//! it for `C·dV/dt = I(V) − V/R_leak`, a smooth one-dimensional ODE whose
//! right-hand side interpolates the measured charging characteristic; the
//! stiff circuit-level dynamics run through the MNA transient engine
//! instead.

use crate::NumericsError;

/// A first-order ODE system `dx/dt = f(t, x)`.
pub trait OdeSystem {
    /// Number of state variables.
    fn dimension(&self) -> usize;

    /// Evaluates the derivative `f(t, x)` into `dxdt`.
    fn derivative(&self, t: f64, x: &[f64], dxdt: &mut [f64]);
}

impl<F> OdeSystem for (usize, F)
where
    F: Fn(f64, &[f64], &mut [f64]),
{
    fn dimension(&self) -> usize {
        self.0
    }
    fn derivative(&self, t: f64, x: &[f64], dxdt: &mut [f64]) {
        (self.1)(t, x, dxdt);
    }
}

/// A recorded solution trajectory: times and the state at each time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trajectory {
    /// Sample times, strictly increasing.
    pub times: Vec<f64>,
    /// State vectors, one per sample time.
    pub states: Vec<Vec<f64>>,
}

impl Trajectory {
    /// Creates an empty trajectory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample.
    pub fn push(&mut self, t: f64, state: &[f64]) {
        self.times.push(t);
        self.states.push(state.to_vec());
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Returns the final state, if any sample has been recorded.
    pub fn final_state(&self) -> Option<&[f64]> {
        self.states.last().map(|s| s.as_slice())
    }

    /// Extracts the time series of a single state component.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the recorded states.
    pub fn component(&self, index: usize) -> Vec<f64> {
        self.states.iter().map(|s| s[index]).collect()
    }

    /// Linearly interpolates component `index` at time `t` (clamped to the
    /// recorded range).
    ///
    /// # Panics
    ///
    /// Panics if the trajectory is empty.
    pub fn sample(&self, index: usize, t: f64) -> f64 {
        assert!(!self.is_empty(), "cannot sample an empty trajectory");
        if t <= self.times[0] {
            return self.states[0][index];
        }
        if t >= *self.times.last().unwrap() {
            return self.states.last().unwrap()[index];
        }
        let pos = self.times.partition_point(|&ti| ti <= t);
        let (t0, t1) = (self.times[pos - 1], self.times[pos]);
        let (x0, x1) = (self.states[pos - 1][index], self.states[pos][index]);
        if t1 == t0 {
            return x1;
        }
        x0 + (x1 - x0) * (t - t0) / (t1 - t0)
    }
}

fn validate_span(t0: f64, t1: f64, dt: f64) -> Result<(), NumericsError> {
    if dt.is_nan() || dt <= 0.0 {
        return Err(NumericsError::InvalidArgument(format!(
            "step size must be positive, got {dt}"
        )));
    }
    if t1 <= t0 {
        return Err(NumericsError::InvalidArgument(format!(
            "end time {t1} must exceed start time {t0}"
        )));
    }
    Ok(())
}

/// Integrates with the classic fourth-order Runge–Kutta method at fixed step.
///
/// # Errors
///
/// Returns [`NumericsError::InvalidArgument`] for a non-positive step or an
/// empty time span.
pub fn rk4<S: OdeSystem + ?Sized>(
    system: &S,
    x0: &[f64],
    t0: f64,
    t1: f64,
    dt: f64,
) -> Result<Trajectory, NumericsError> {
    validate_span(t0, t1, dt)?;
    let n = system.dimension();
    let mut x = x0.to_vec();
    let (mut k1, mut k2, mut k3, mut k4) = (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut tmp = vec![0.0; n];
    let mut traj = Trajectory::new();
    traj.push(t0, &x);
    let mut t = t0;
    while t < t1 - 1e-15 {
        let h = dt.min(t1 - t);
        system.derivative(t, &x, &mut k1);
        for i in 0..n {
            tmp[i] = x[i] + 0.5 * h * k1[i];
        }
        system.derivative(t + 0.5 * h, &tmp, &mut k2);
        for i in 0..n {
            tmp[i] = x[i] + 0.5 * h * k2[i];
        }
        system.derivative(t + 0.5 * h, &tmp, &mut k3);
        for i in 0..n {
            tmp[i] = x[i] + h * k3[i];
        }
        system.derivative(t + h, &tmp, &mut k4);
        for i in 0..n {
            x[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        t += h;
        traj.push(t, &x);
    }
    Ok(traj)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// dx/dt = -x, solution exp(-t).
    struct Decay;
    impl OdeSystem for Decay {
        fn dimension(&self) -> usize {
            1
        }
        fn derivative(&self, _t: f64, x: &[f64], dxdt: &mut [f64]) {
            dxdt[0] = -x[0];
        }
    }

    #[test]
    fn rk4_matches_exponential_decay() {
        let traj = rk4(&Decay, &[1.0], 0.0, 1.0, 1e-3).unwrap();
        let last = traj.final_state().unwrap()[0];
        assert!((last - (-1.0f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn rk4_is_fourth_order() {
        let exact = (-1.0f64).exp();
        let error = |dt: f64| {
            let traj = rk4(&Decay, &[1.0], 0.0, 1.0, dt).unwrap();
            (traj.final_state().unwrap()[0] - exact).abs()
        };
        // Halving the step must cut the global error by about 2⁴ = 16.
        let ratio = error(0.1) / error(0.05);
        assert!((12.0..20.0).contains(&ratio), "error ratio {ratio}");
    }

    #[test]
    fn invalid_step_is_rejected() {
        assert!(rk4(&Decay, &[1.0], 0.0, 1.0, 0.0).is_err());
        assert!(rk4(&Decay, &[1.0], 1.0, 0.0, 1e-3).is_err());
    }

    #[test]
    fn trajectory_sampling_interpolates() {
        let mut traj = Trajectory::new();
        traj.push(0.0, &[0.0]);
        traj.push(1.0, &[2.0]);
        assert_eq!(traj.sample(0, 0.5), 1.0);
        assert_eq!(traj.sample(0, -1.0), 0.0);
        assert_eq!(traj.sample(0, 2.0), 2.0);
        assert_eq!(traj.component(0), vec![0.0, 2.0]);
        assert_eq!(traj.len(), 2);
        assert!(!traj.is_empty());
    }

    #[test]
    fn closure_based_system_works() {
        let sys = (1usize, |_t: f64, x: &[f64], d: &mut [f64]| {
            d[0] = 2.0 * x[0]
        });
        let traj = rk4(&sys, &[1.0], 0.0, 0.5, 1e-3).unwrap();
        assert!((traj.final_state().unwrap()[0] - 1.0f64.exp()).abs() < 1e-6);
    }
}
