//! Monodromy-vector products and the direct shooting-Newton update.
//!
//! A shooting method for periodic steady state integrates one excitation
//! period `T` of a discretised DAE and asks for closure: `x(T) = x(0)`.
//! Newton's method on the closure residual needs the **monodromy matrix**
//! `M = ∂x(T)/∂x(0)`, or rather its action on vectors: for a companion-model
//! time stepper, `M·v` is obtained by chaining one sensitivity solve per
//! accepted time step against the step's already-factored Newton Jacobian.
//!
//! # The recursion
//!
//! With companion differentiation (`ddt` in the MNA kernel), the residual of
//! step `k` depends on the previous accepted solution only through each
//! differentiated value's history `p_j = v_j(x_{k−1})` and, for the
//! trapezoidal rule, the previous derivative `q_j`:
//!
//! ```text
//! d_j = (α/h)·(v_j(x_k) − p_j) − β·q_j       α = 1, β = 0  (backward Euler)
//!                                            α = 2, β = 1  (trapezoidal)
//! ```
//!
//! Writing `b_j = ∂F/∂d_j` (constant for physical devices: derivatives enter
//! residuals linearly) and `W(x) = Σ_j α·b_j·∇v_j(x)ᵀ` — the *dynamic stamp
//! matrix*, recoverable from two Jacobian assemblies at different step sizes
//! because `J(x, h) = G'(x) + W(x)/h` — the propagated sensitivity
//! `s_k = (∂x_k/∂x_0)·v` and the trapezoidal memory term
//! `p_k = Σ_j b_j·(∂q_j/∂x_0)·v` obey
//!
//! ```text
//! J_k·s_k = (1/h)·W_{k−1}·s_{k−1} + β·p_{k−1}          (one solve per step)
//! p_k     = (1/h)·W_k·s_k − rhs_k
//! ```
//!
//! starting from `s_0 = v`, `p_0 = 0`. After a full period `s_N = M·v` —
//! the matvec a Krylov method (GMRES) needs to solve the shooting update
//! `(I − M)·Δx₀ = x(T) − x(0)` without ever forming `M`. When the Krylov
//! solve fails, `n` propagations of the unit vectors form `M` column by
//! column and [`shooting_update`] solves the update directly.
//!
//! [`VectorSensitivity`] owns the per-step bookkeeping; the caller supplies
//! the `W` matrices (extracted from its Jacobian assemblies) and a linear
//! solve against its factored step Jacobian.

use crate::linalg::Matrix;
use crate::NumericsError;

/// Propagates a **single vector** `v` through the per-step sensitivity
/// recursion (see the [module docs](self)), so one pass over a banked
/// period computes `M·v` with one back-substitution per step.
///
/// Usage per product: [`VectorSensitivity::seed`] with `v`, then
/// [`VectorSensitivity::advance_step`] once per accepted step; when the
/// period is complete, [`VectorSensitivity::state`] is `M·v`. The caller
/// supplies the `W` matrices in sparse **triplet** form (they have one row
/// per differentiated quantity, so a dense product would waste almost all
/// its work) and a factored solve per step.
#[derive(Debug, Clone)]
pub struct VectorSensitivity {
    n: usize,
    /// `s_k = S_k·v`.
    state: Vec<f64>,
    /// `p_k = P_k·v` (trapezoidal derivative-state memory).
    memory: Vec<f64>,
    /// Scratch for the per-step right-hand side.
    rhs: Vec<f64>,
    sol: Vec<f64>,
}

impl VectorSensitivity {
    /// Creates a propagator for an `n`-unknown system.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "sensitivity system must have at least one unknown");
        VectorSensitivity {
            n,
            state: vec![0.0; n],
            memory: vec![0.0; n],
            rhs: vec![0.0; n],
            sol: Vec::with_capacity(n),
        }
    }

    /// Starts a fresh period: `s = v`, `p = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not `n` long.
    pub fn seed(&mut self, v: &[f64]) {
        self.state.copy_from_slice(v);
        self.memory.fill(0.0);
    }

    /// Advances the vector sensitivity across one accepted step of size `h`:
    /// `w_prev`/`w_curr` are the dynamic stamp matrices of the previous and
    /// the newly accepted point as `(row, col, value)` triplets, and `solve`
    /// is a factored linear solve against the step's converged Jacobian.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidArgument`] for a non-positive step and
    /// [`NumericsError::SingularMatrix`] when `solve` reports failure.
    pub fn advance_step<F>(
        &mut self,
        h: f64,
        trapezoidal_memory: bool,
        w_prev: &[(usize, usize, f64)],
        w_curr: &[(usize, usize, f64)],
        mut solve: F,
    ) -> Result<(), NumericsError>
    where
        F: FnMut(&[f64], &mut Vec<f64>) -> bool,
    {
        if h <= 0.0 || !h.is_finite() {
            return Err(NumericsError::InvalidArgument(format!(
                "sensitivity step size must be positive and finite, got {h}"
            )));
        }
        let n = self.n;
        if trapezoidal_memory {
            self.rhs.copy_from_slice(&self.memory);
        } else {
            self.rhs.fill(0.0);
        }
        let inv_h = 1.0 / h;
        for &(r, c, w) in w_prev {
            self.rhs[r] += inv_h * w * self.state[c];
        }
        if !solve(&self.rhs, &mut self.sol) || self.sol.len() != n {
            return Err(NumericsError::SingularMatrix {
                column: 0,
                pivot: 0.0,
            });
        }
        self.state.copy_from_slice(&self.sol);
        for (m, r) in self.memory.iter_mut().zip(self.rhs.iter()) {
            *m = -r;
        }
        for &(r, c, w) in w_curr {
            self.memory[r] += inv_h * w * self.state[c];
        }
        Ok(())
    }

    /// The propagated vector `s_k = S_k·v` — equal to `M·v` once a full
    /// period has been advanced.
    pub fn state(&self) -> &[f64] {
        &self.state
    }
}

/// Solves the shooting-Newton update `(I − M)·Δx₀ = x(T) − x(0)` for the
/// correction `Δx₀` to the period-start state.
///
/// # Errors
///
/// Returns [`NumericsError::SingularMatrix`] when `I − M` is (numerically)
/// singular — the periodic orbit is neutrally stable at this discretisation
/// and shooting cannot improve on plain settling — and
/// [`NumericsError::DimensionMismatch`] for inconsistent shapes.
pub fn shooting_update(monodromy: &Matrix, closure: &[f64]) -> Result<Vec<f64>, NumericsError> {
    let n = monodromy.rows();
    if !monodromy.is_square() || closure.len() != n {
        return Err(NumericsError::DimensionMismatch {
            expected: format!("{n}x{n} monodromy with a length-{n} closure residual"),
            found: format!(
                "{}x{} matrix with a length-{} residual",
                monodromy.rows(),
                monodromy.cols(),
                closure.len()
            ),
        });
    }
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            a[(i, j)] = -monodromy[(i, j)];
        }
        a[(i, i)] += 1.0;
    }
    a.lu()?.solve(closure)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scalar step's `W` stamp as a triplet list.
    fn scalar_w(w: f64) -> [(usize, usize, f64); 1] {
        [(0, 0, w)]
    }

    /// Scalar backward-Euler model problem `dx/dt = λx`: the step equation is
    /// `(x_k − x_{k−1})/h − λ·x_k = 0`, so `J = 1/h − λ`, `W = 1`, and the
    /// per-step sensitivity must equal the BE amplification `1/(1 − λh)`.
    #[test]
    fn scalar_backward_euler_amplification_is_reproduced() {
        let lambda = -3.0;
        let h = 0.1;
        let jac = 1.0 / h - lambda;
        let mut prop = VectorSensitivity::new(1);
        prop.seed(&[1.0]);
        let mut m = 1.0;
        for _ in 0..5 {
            prop.advance_step(h, false, &scalar_w(1.0), &scalar_w(1.0), |b, x| {
                x.clear();
                x.push(b[0] / jac);
                true
            })
            .unwrap();
            m /= 1.0 - lambda * h;
        }
        assert!((prop.state()[0] - m).abs() < 1e-12 * m.abs());
    }

    /// Scalar trapezoidal model problem `dx/dt = λx`: with the period-start
    /// derivative state frozen (`p₀ = 0`, the shooting restart semantics),
    /// the first step's sensitivity is `(2/h)/(2/h − λ)` and every later
    /// step contributes the classical amplification
    /// `(1 + λh/2)/(1 − λh/2)` — the memory recursion must reproduce the
    /// product exactly.
    #[test]
    fn scalar_trapezoidal_amplification_is_reproduced() {
        let lambda = -3.0;
        let h = 0.1;
        // Step equation: 2(x_k − x_{k−1})/h − q_{k−1} − λ·x_k = 0 with
        // q_k = 2(x_k − x_{k−1})/h − q_{k−1}; J = 2/h − λ, W = 2 (α = 2).
        let jac = 2.0 / h - lambda;
        let mut prop = VectorSensitivity::new(1);
        prop.seed(&[1.0]);
        let amp = (1.0 + lambda * h / 2.0) / (1.0 - lambda * h / 2.0);
        let mut m = 1.0;
        for k in 0..7 {
            prop.advance_step(h, true, &scalar_w(2.0), &scalar_w(2.0), |b, x| {
                x.clear();
                x.push(b[0] / jac);
                true
            })
            .unwrap();
            m *= if k == 0 { (2.0 / h) / jac } else { amp };
        }
        assert!(
            (prop.state()[0] - m).abs() < 1e-12,
            "trapezoidal monodromy {} must match the frozen-memory product {}",
            prop.state()[0],
            m
        );
    }

    #[test]
    fn shooting_update_solves_the_closure_system() {
        // M = diag(0.5, -1): (I − M) = diag(0.5, 2).
        let mut m = Matrix::zeros(2, 2);
        m[(0, 0)] = 0.5;
        m[(1, 1)] = -1.0;
        let delta = shooting_update(&m, &[1.0, 4.0]).unwrap();
        assert!((delta[0] - 2.0).abs() < 1e-14);
        assert!((delta[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn shooting_update_reports_neutral_orbits_as_singular() {
        let m = Matrix::identity(3);
        assert!(matches!(
            shooting_update(&m, &[1.0, 0.0, 0.0]),
            Err(NumericsError::SingularMatrix { .. })
        ));
        assert!(matches!(
            shooting_update(&Matrix::identity(2), &[1.0]),
            Err(NumericsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn failed_sensitivity_solve_is_reported() {
        let mut prop = VectorSensitivity::new(2);
        prop.seed(&[1.0, 0.0]);
        let err = prop
            .advance_step(0.1, false, &[], &[], |_, _| false)
            .unwrap_err();
        assert!(matches!(err, NumericsError::SingularMatrix { .. }));
        assert!(prop
            .advance_step(-1.0, false, &[], &[], |_, _| true)
            .is_err());
    }
}
