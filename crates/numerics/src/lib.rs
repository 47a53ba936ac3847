//! Numerical foundations for the energy-harvester simulation stack.
//!
//! This crate provides the dependency-free numerical substrate that the
//! mixed-technology simulation kernel (`harvester-mna`) and the behavioural
//! device models are built on:
//!
//! * [`linalg`] — dense matrices/vectors and LU factorisation with partial
//!   pivoting (the fastest backend for the small systems assembled by modified
//!   nodal analysis of a single harvester).
//! * [`sparse`] — COO → CSR sparse matrices and a fill-pattern-reusing sparse
//!   LU ([`sparse::SparseLu`]): the symbolic analysis (pivot order, fill
//!   pattern, scatter map) is computed once and reused across the thousands of
//!   numerically-different but structurally-identical Jacobians a transient
//!   analysis produces.
//! * [`gmres`] — restarted GMRES with an allocation-reusing workspace, the
//!   Krylov backbone of the matrix-free shooting method (the operator is only
//!   ever applied to vectors, never formed).
//! * [`monodromy`] — the per-step sensitivity recursion that applies a
//!   shooting period's monodromy matrix to a vector, and the direct LU
//!   shooting update used when the Krylov solve fails.
//! * [`fault`] — deterministic, seedable fault injection
//!   ([`fault::FaultInjector`]) the solver layer consults at factorisation,
//!   residual and Krylov sites, so every recovery/fallback path is directly
//!   testable instead of only incidentally reachable.
//! * [`ode`] — the fixed-step RK4 integrator of the envelope simulator's
//!   slow charging ODE.
//! * [`interp`] — linear and monotone-cubic (PCHIP) interpolation, used to
//!   bridge the unspecified sections of the piecewise flux-linkage function.
//! * [`extrap`] — Newton divided-difference polynomial extrapolation over
//!   non-equidistant support points, the predictor of the adaptive
//!   (LTE-controlled) transient time-stepper.
//! * [`stats`] — small statistics helpers (RMS, total harmonic distortion,
//!   linear regression) used by the experiment harness.
//! * [`complex`] — a minimal [`Complex64`](complex::Complex64) and the
//!   [`HarmonicSolver`](complex::HarmonicSolver) that solves `(G + jωC)x = b`
//!   frequency sweeps through the real `2n×2n` equivalent system, reusing
//!   the sparse pattern machinery across the sweep (AC small-signal
//!   analysis).
//!
//! # Example
//!
//! Solve a small linear system with the LU solver:
//!
//! ```
//! # use harvester_numerics::linalg::Matrix;
//! # fn main() -> Result<(), harvester_numerics::NumericsError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let x = a.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + 1.0 * x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod extrap;
pub mod fault;
pub mod gmres;
pub mod interp;
pub mod linalg;
pub mod monodromy;
pub mod ode;
pub mod sparse;
pub mod stats;

mod error;

pub use error::NumericsError;
