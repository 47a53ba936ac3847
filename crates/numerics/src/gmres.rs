//! Restarted GMRES for matrix-free linear systems.
//!
//! The periodic-steady-state engine needs to solve `(I − M)·Δx₀ = r` where
//! `M` is the monodromy matrix of one excitation period. Forming `M` densely
//! costs `n` linearised period integrations; applying it to a *single* vector
//! costs one. GMRES only ever touches the operator through matrix–vector
//! products, which makes it the natural companion of a matrix-free shooting
//! method: the Krylov solver converges in a handful of matvecs because the
//! spectrum of `I − M` for a dissipative circuit clusters around `1`.
//!
//! The implementation here is a textbook restarted GMRES(m) (Saad &
//! Schultz 1986) with
//!
//! * an allocation-reusing [`GmresWorkspace`] so repeated solves (one per
//!   shooting-Newton iteration) perform no heap traffic,
//! * Givens rotations to keep the Hessenberg least-squares problem
//!   triangular incrementally (no QR re-solve per iteration), and
//! * convergence measured on the *relative* residual `‖b − A·x‖₂ / ‖b‖₂`.
//!
//! Breakdown and stagnation are reported as [`NumericsError`] values — the
//! solver never returns a silently-NaN solution vector.

use crate::fault::{Fault, FaultInjector};
use crate::linalg::{dot, norm2};
use crate::NumericsError;

/// Options controlling a [`GmresWorkspace::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmresOptions {
    /// Krylov subspace dimension per restart cycle (the `m` in GMRES(m)).
    pub restart: usize,
    /// Total matrix–vector product budget across all restart cycles.
    pub max_matvecs: usize,
    /// Relative-residual convergence target `‖b − A·x‖ ≤ tolerance · ‖b‖`.
    pub tolerance: f64,
}

impl Default for GmresOptions {
    fn default() -> Self {
        Self {
            restart: 30,
            max_matvecs: 200,
            tolerance: 1e-10,
        }
    }
}

/// Convergence summary of a successful GMRES solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmresOutcome {
    /// Number of matrix–vector products consumed.
    pub matvecs: usize,
    /// Number of restart cycles started (1 for a solve that never restarted).
    pub restarts: usize,
    /// Final relative residual `‖b − A·x‖₂ / ‖b‖₂`.
    pub relative_residual: f64,
}

/// If a full restart cycle shrinks the residual by less than this factor the
/// iteration is declared stagnant: another cycle from the same subspace
/// dimension is overwhelmingly likely to repeat the plateau.
const STAGNATION_FACTOR: f64 = 0.999;

/// Reusable state for restarted GMRES solves of a fixed problem size.
///
/// All Krylov basis vectors, the Hessenberg column store and the rotation
/// coefficients are allocated once in [`GmresWorkspace::new`] and reused by
/// every subsequent [`solve`](GmresWorkspace::solve); a shooting-Newton loop
/// performing one linear solve per nonlinear iteration allocates nothing
/// after the first.
#[derive(Debug, Clone)]
pub struct GmresWorkspace {
    n: usize,
    restart: usize,
    /// `restart + 1` orthonormal basis vectors of length `n`.
    basis: Vec<Vec<f64>>,
    /// Column-major upper-Hessenberg entries: column `j` holds `j + 2` values.
    hessenberg: Vec<Vec<f64>>,
    /// Givens rotation cosines/sines applied to the Hessenberg columns.
    cos: Vec<f64>,
    sin: Vec<f64>,
    /// Rotated right-hand side of the least-squares problem.
    g: Vec<f64>,
    /// Triangular back-substitution solution.
    y: Vec<f64>,
    /// Scratch vector for operator applications.
    scratch: Vec<f64>,
}

impl GmresWorkspace {
    /// Creates a workspace for systems of dimension `n` with the given
    /// restart length. A `restart` of zero is clamped to one.
    pub fn new(n: usize, restart: usize) -> Self {
        let m = restart.max(1).min(n.max(1));
        Self {
            n,
            restart: m,
            basis: (0..=m).map(|_| vec![0.0; n]).collect(),
            hessenberg: (0..m).map(|j| vec![0.0; j + 2]).collect(),
            cos: vec![0.0; m],
            sin: vec![0.0; m],
            g: vec![0.0; m + 1],
            y: vec![0.0; m],
            scratch: vec![0.0; n],
        }
    }

    /// Solves `A·x = b` where `A` is available only through `matvec`.
    ///
    /// `matvec(v, out)` must write `A·v` into `out`; both slices have length
    /// `n`. On entry `x` is used as the initial guess; on success it holds the
    /// solution. Errors:
    ///
    /// * [`NumericsError::DimensionMismatch`] if `b`/`x` do not match `n`;
    /// * [`NumericsError::NoConvergence`] if the matvec budget is exhausted or
    ///   a restart cycle stagnates before reaching the tolerance;
    /// * [`NumericsError::InvalidArgument`] if the operator produces
    ///   non-finite values (breakdown is reported, never propagated as NaN).
    pub fn solve<F>(
        &mut self,
        matvec: F,
        b: &[f64],
        x: &mut [f64],
        options: &GmresOptions,
    ) -> Result<GmresOutcome, NumericsError>
    where
        F: FnMut(&[f64], &mut [f64]),
    {
        self.solve_with_injector(matvec, b, x, options, None)
    }

    /// [`solve`](GmresWorkspace::solve) with an optional [`FaultInjector`]
    /// consulted once per restart cycle at the stagnation check
    /// ([`Fault::KrylovStagnation`]): an injected firing makes the cycle
    /// report [`NumericsError::NoConvergence`] exactly as a genuine
    /// stagnation would, so callers' Krylov-failure fallbacks are directly
    /// testable. With `injector` `None` (or inert) the behaviour — down to
    /// the bit — is that of `solve`.
    pub fn solve_with_injector<F>(
        &mut self,
        mut matvec: F,
        b: &[f64],
        x: &mut [f64],
        options: &GmresOptions,
        mut injector: Option<&mut FaultInjector>,
    ) -> Result<GmresOutcome, NumericsError>
    where
        F: FnMut(&[f64], &mut [f64]),
    {
        let n = self.n;
        if b.len() != n || x.len() != n {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("vectors of length {n}"),
                found: format!("b of length {}, x of length {}", b.len(), x.len()),
            });
        }
        let b_norm = norm2(b);
        if !b_norm.is_finite() {
            return Err(NumericsError::InvalidArgument(
                "gmres right-hand side contains non-finite entries".into(),
            ));
        }
        if b_norm == 0.0 {
            x.fill(0.0);
            return Ok(GmresOutcome {
                matvecs: 0,
                restarts: 0,
                relative_residual: 0.0,
            });
        }

        let tol = options.tolerance.max(0.0);
        let max_matvecs = options.max_matvecs.max(1);
        let mut matvecs = 0usize;
        let mut restarts = 0usize;
        let mut prev_cycle_residual = f64::INFINITY;

        loop {
            // Residual of the current iterate: r = b − A·x.
            let x_is_zero = x.iter().all(|&v| v == 0.0);
            if x_is_zero {
                self.basis[0].copy_from_slice(b);
            } else {
                matvec(x, &mut self.scratch);
                matvecs += 1;
                for (r, (&rhs, &ax)) in self.basis[0].iter_mut().zip(b.iter().zip(&self.scratch)) {
                    *r = rhs - ax;
                }
            }
            let r_norm = norm2(&self.basis[0]);
            if !r_norm.is_finite() {
                return Err(NumericsError::InvalidArgument(
                    "gmres operator produced non-finite residual".into(),
                ));
            }
            if r_norm <= tol * b_norm {
                return Ok(GmresOutcome {
                    matvecs,
                    restarts,
                    relative_residual: r_norm / b_norm,
                });
            }
            if matvecs >= max_matvecs {
                return Err(NumericsError::NoConvergence {
                    iterations: matvecs,
                    residual: r_norm / b_norm,
                });
            }
            // Stagnation check across restart cycles: a cycle that failed to
            // reduce the residual will not be rescued by an identical cycle.
            // The fault injector is consulted here so an injected stagnation
            // takes the same exit a genuine one would.
            let injected = injector
                .as_deref_mut()
                .is_some_and(|f| f.should_fire(Fault::KrylovStagnation));
            if injected || (restarts > 0 && r_norm > STAGNATION_FACTOR * prev_cycle_residual) {
                return Err(NumericsError::NoConvergence {
                    iterations: matvecs,
                    residual: r_norm / b_norm,
                });
            }
            prev_cycle_residual = r_norm;
            restarts += 1;

            let inv = 1.0 / r_norm;
            for v in self.basis[0].iter_mut() {
                *v *= inv;
            }
            self.g.fill(0.0);
            self.g[0] = r_norm;

            let mut converged_cols = 0usize;
            let mut cycle_residual = r_norm;
            for j in 0..self.restart {
                if matvecs >= max_matvecs {
                    break;
                }
                // Arnoldi step: w = A·v_j, orthogonalise against the basis.
                matvec(&self.basis[j], &mut self.scratch);
                matvecs += 1;
                for i in 0..=j {
                    let h = dot(&self.basis[i], &self.scratch);
                    self.hessenberg[j][i] = h;
                    for (w, &v) in self.scratch.iter_mut().zip(self.basis[i].iter()) {
                        *w -= h * v;
                    }
                }
                let h_next = norm2(&self.scratch);
                if !h_next.is_finite() {
                    return Err(NumericsError::InvalidArgument(
                        "gmres operator produced non-finite Arnoldi vector".into(),
                    ));
                }
                self.hessenberg[j][j + 1] = h_next;

                // Apply the accumulated Givens rotations to the new column,
                // then generate and apply the rotation that eliminates the
                // subdiagonal entry.
                for i in 0..j {
                    let (c, s) = (self.cos[i], self.sin[i]);
                    let h_i = self.hessenberg[j][i];
                    let h_i1 = self.hessenberg[j][i + 1];
                    self.hessenberg[j][i] = c * h_i + s * h_i1;
                    self.hessenberg[j][i + 1] = -s * h_i + c * h_i1;
                }
                let h_jj = self.hessenberg[j][j];
                let denom = (h_jj * h_jj + h_next * h_next).sqrt();
                if denom == 0.0 {
                    // Exact breakdown with a zero diagonal: the least-squares
                    // problem is rank-deficient and cannot progress.
                    return Err(NumericsError::SingularMatrix {
                        column: j,
                        pivot: 0.0,
                    });
                }
                let (c, s) = (h_jj / denom, h_next / denom);
                self.cos[j] = c;
                self.sin[j] = s;
                self.hessenberg[j][j] = denom;
                self.hessenberg[j][j + 1] = 0.0;
                let g_j = self.g[j];
                self.g[j] = c * g_j;
                self.g[j + 1] = -s * g_j;
                converged_cols = j + 1;
                cycle_residual = self.g[j + 1].abs();

                // A "happy breakdown" (h_next ≈ 0) means the Krylov space is
                // invariant: the least-squares solution is exact.
                let happy = h_next <= 1e-14 * r_norm.max(1.0);
                if cycle_residual <= tol * b_norm || happy {
                    break;
                }
                // Next basis vector.
                let inv = 1.0 / h_next;
                for (v, &w) in self.basis[j + 1].iter_mut().zip(self.scratch.iter()) {
                    *v = w * inv;
                }
            }

            // Back-substitute H·y = g over the converged columns and update x.
            for j in (0..converged_cols).rev() {
                let mut sum = self.g[j];
                for k in (j + 1)..converged_cols {
                    sum -= self.hessenberg[k][j] * self.y[k];
                }
                self.y[j] = sum / self.hessenberg[j][j];
            }
            for j in 0..converged_cols {
                let yj = self.y[j];
                if !yj.is_finite() {
                    return Err(NumericsError::InvalidArgument(
                        "gmres least-squares solution is non-finite".into(),
                    ));
                }
                for (xi, &v) in x.iter_mut().zip(self.basis[j].iter()) {
                    *xi += yj * v;
                }
            }

            if cycle_residual <= tol * b_norm {
                // Verified on the next loop entry via the true residual; fall
                // through so convergence is always reported against b − A·x.
                continue;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;

    fn dense_matvec(a: &Matrix) -> impl Fn(&[f64], &mut [f64]) + '_ {
        move |v, out| {
            let product = a.mul_vec(v).unwrap();
            out.copy_from_slice(&product);
        }
    }

    #[test]
    fn solves_identity_in_one_matvec() {
        let n = 8;
        let a = Matrix::identity(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 3.0).collect();
        let mut x = vec![0.0; n];
        let mut ws = GmresWorkspace::new(n, 8);
        let outcome = ws
            .solve(dense_matvec(&a), &b, &mut x, &GmresOptions::default())
            .unwrap();
        for (xi, bi) in x.iter().zip(b.iter()) {
            assert!((xi - bi).abs() < 1e-12);
        }
        assert!(outcome.matvecs <= 2);
    }

    #[test]
    fn zero_rhs_returns_zero_solution() {
        let a = Matrix::identity(4);
        let b = vec![0.0; 4];
        let mut x = vec![1.0; 4];
        let mut ws = GmresWorkspace::new(4, 4);
        let outcome = ws
            .solve(dense_matvec(&a), &b, &mut x, &GmresOptions::default())
            .unwrap();
        assert_eq!(outcome.matvecs, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn matches_dense_lu_on_well_conditioned_system() {
        let n = 12;
        let mut rows = Vec::new();
        for i in 0..n {
            let mut row = vec![0.0; n];
            for (j, slot) in row.iter_mut().enumerate() {
                // Deterministic pseudo-random off-diagonal entries.
                let v = (((i * 31 + j * 17 + 7) % 13) as f64 - 6.0) / 25.0;
                *slot = v;
            }
            row[i] += 4.0;
            rows.push(row);
        }
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Matrix::from_rows(&row_refs);
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 5) as f64) - 2.0).collect();
        let reference = a.solve(&b).unwrap();

        let mut x = vec![0.0; n];
        let mut ws = GmresWorkspace::new(n, 12);
        ws.solve(dense_matvec(&a), &b, &mut x, &GmresOptions::default())
            .unwrap();
        for (xi, ri) in x.iter().zip(reference.iter()) {
            assert!((xi - ri).abs() < 1e-9, "{xi} vs {ri}");
        }
    }

    #[test]
    fn restarted_solve_converges_with_short_cycles() {
        let n = 20;
        let mut rows = Vec::new();
        for i in 0..n {
            let mut row = vec![0.0; n];
            row[i] = 3.0 + (i as f64) * 0.1;
            if i + 1 < n {
                row[i + 1] = -1.0;
            }
            if i > 0 {
                row[i - 1] = -0.5;
            }
            rows.push(row);
        }
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Matrix::from_rows(&row_refs);
        let b = vec![1.0; n];
        let reference = a.solve(&b).unwrap();

        let mut x = vec![0.0; n];
        let mut ws = GmresWorkspace::new(n, 5);
        let outcome = ws
            .solve(
                dense_matvec(&a),
                &b,
                &mut x,
                &GmresOptions {
                    restart: 5,
                    max_matvecs: 400,
                    tolerance: 1e-11,
                },
            )
            .unwrap();
        assert!(outcome.restarts >= 2, "expected restarts, got {outcome:?}");
        for (xi, ri) in x.iter().zip(reference.iter()) {
            assert!((xi - ri).abs() < 1e-8);
        }
    }

    #[test]
    fn singular_operator_reports_error_not_nan() {
        // Rank-one operator: A·v = (v · ones) · e0. GMRES cannot solve
        // b outside the range and must report rather than emit NaNs.
        let n = 6;
        let matvec = |v: &[f64], out: &mut [f64]| {
            let s: f64 = v.iter().sum();
            out.fill(0.0);
            out[0] = s;
        };
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut ws = GmresWorkspace::new(n, 6);
        let err = ws
            .solve(matvec, &b, &mut x, &GmresOptions::default())
            .unwrap_err();
        match err {
            NumericsError::NoConvergence { .. } | NumericsError::SingularMatrix { .. } => {}
            other => panic!("unexpected error {other:?}"),
        }
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn exhausted_matvec_budget_is_no_convergence() {
        let n = 10;
        let mut rows = Vec::new();
        for i in 0..n {
            let mut row = vec![0.0; n];
            row[i] = 1.0;
            row[(i + 1) % n] = -0.999;
            rows.push(row);
        }
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Matrix::from_rows(&row_refs);
        // Non-constant rhs: the Krylov space needs ~n shifts to capture it,
        // far more than the 4-matvec budget below.
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut x = vec![0.0; n];
        let mut ws = GmresWorkspace::new(n, 3);
        let result = ws.solve(
            dense_matvec(&a),
            &b,
            &mut x,
            &GmresOptions {
                restart: 3,
                max_matvecs: 4,
                tolerance: 1e-14,
            },
        );
        match result {
            Err(NumericsError::NoConvergence { iterations, .. }) => {
                assert!(iterations <= 5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nonzero_initial_guess_is_used() {
        let n = 6;
        let a = Matrix::identity(n);
        let b = vec![2.0; n];
        let mut x = vec![2.0; n];
        let mut ws = GmresWorkspace::new(n, 6);
        let outcome = ws
            .solve(dense_matvec(&a), &b, &mut x, &GmresOptions::default())
            .unwrap();
        // The guess is already the solution: one matvec to verify, no cycles.
        assert_eq!(outcome.restarts, 0);
        assert!(x.iter().all(|&v| (v - 2.0).abs() < 1e-12));
    }
}
