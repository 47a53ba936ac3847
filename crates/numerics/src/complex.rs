//! Minimal complex arithmetic and the frequency-sweep linear solver behind
//! AC small-signal analysis.
//!
//! The MNA engine linearises a circuit at its operating point into a
//! conductance matrix `G` and a susceptance (charge/flux derivative) matrix
//! `C`; the small-signal response at angular frequency `ω` solves
//!
//! ```text
//! (G + jωC) · x = b
//! ```
//!
//! with complex unknowns and excitation. Rather than introduce a complex
//! factorisation, [`HarmonicSolver`] maps each solve onto the equivalent
//! real system of twice the dimension,
//!
//! ```text
//! [ G   -ωC ] [ Re x ]   [ Re b ]
//! [ ωC   G  ] [ Im x ] = [ Im b ]
//! ```
//!
//! so one real [`LinearSystem`] serves it on either storage: dense
//! partial-pivot LU for small circuits, and the fill-pattern-reusing sparse
//! LU for large ones — the `2n×2n` sparsity pattern is built **once** from
//! the nonzero union of `G` and `C`, symbolically analysed once, and only
//! numerically refactored as the sweep moves from frequency to frequency.

use crate::linalg::Matrix;
use crate::sparse::SparseMatrix;
use crate::system::{Factorisation, LinearSystem};
use crate::NumericsError;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A complex number with `f64` components.
///
/// Covers exactly what AC analysis needs — arithmetic, polar conversion,
/// magnitude and phase — without pulling in an external crate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0j`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0j`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1j`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Builds a complex number from rectangular components.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Builds a complex number from polar form: `r·e^{jθ}`.
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64::new(r * theta.cos(), r * theta.sin())
    }

    /// Magnitude `|z|`, computed with `hypot` for overflow safety.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase angle) in radians, in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    pub fn scale(self, k: f64) -> Self {
        Complex64::new(self.re * k, self.im * k)
    }

    /// True when both components are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::new(re, 0.0)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im < 0.0 {
            write!(f, "{}-{}j", self.re, -self.im)
        } else {
            write!(f, "{}+{}j", self.re, self.im)
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex64 {
    fn add_assign(&mut self, rhs: Complex64) {
        *self = *self + rhs;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    fn div(self, rhs: Complex64) -> Complex64 {
        // Smith's algorithm: scale by the larger component to avoid
        // overflow/underflow in the naive |rhs|² denominator.
        if rhs.re.abs() >= rhs.im.abs() {
            let r = rhs.im / rhs.re;
            let d = rhs.re + rhs.im * r;
            Complex64::new((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = rhs.re / rhs.im;
            let d = rhs.re * r + rhs.im;
            Complex64::new((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

/// Solves `(G + jωC)·x = b` for a sweep of frequencies on one
/// [`LinearSystem`]: the `2n×2n` real-equivalent system, whose storage, LU
/// factors and full/refactor/re-pivot policy that type owns.
///
/// Construct once per (operating point, circuit) pair with
/// [`HarmonicSolver::new`], then call [`HarmonicSolver::solve`] per
/// frequency. Each solve refills the system's values as `A₀ + ω·A₁`, with
/// `A₀ = [G 0; 0 G]` and `A₁ = [0 −C; C 0]`, and factors it: dense storage
/// factors afresh into one reused set of LU factors; sparse storage stores
/// the nonzero union of the blocks plus the diagonal as its fixed pattern,
/// chooses its pivot order once at `ω = 1` (at construction) and refactors
/// on it at every frequency, re-pivoting only where that order goes
/// numerically stale.
#[derive(Debug)]
pub struct HarmonicSolver {
    n: usize,
    system: LinearSystem,
    /// `A₀` and `A₁`, slot by slot (see [`LinearSystem::values`]).
    a0: Vec<f64>,
    a1: Vec<f64>,
    /// Numeric factorisations so far: full, refactorisations, re-pivots.
    factorizations: (usize, usize, usize),
}

impl HarmonicSolver {
    /// Builds a solver on dense storage, or on sparse storage when `sparse`
    /// is set (see the [type docs](HarmonicSolver)); a sparse solver factors
    /// once here, at `ω = 1`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] unless `G` and `C` are
    /// square with identical dimensions, or, for sparse storage, a
    /// factorisation error if the system is singular at `ω = 1`.
    pub fn new(g: &Matrix, c: &Matrix, sparse: bool) -> Result<Self, NumericsError> {
        let n = check_shapes(g, c)?;
        // The nonzero entries of G land in both diagonal blocks, those of C
        // in both off-diagonal blocks.
        let (g, c) = (SparseMatrix::from_dense(g), SparseMatrix::from_dense(c));
        let a0: Vec<_> = g
            .entries()
            .flat_map(|(i, j, v)| [(i, j, v), (i + n, j + n, v)])
            .collect();
        let a1: Vec<_> = c
            .entries()
            .flat_map(|(i, j, v)| [(i, j + n, -v), (i + n, j, v)])
            .collect();
        let system = if sparse {
            let positions = a0.iter().chain(&a1).map(|&(r, c, _)| (r, c));
            LinearSystem::sparse(2 * n, positions)
        } else {
            LinearSystem::dense(2 * n)
        };
        let by_slot = |entries: &[(usize, usize, f64)]| {
            let mut values = vec![0.0; system.values().len()];
            for &(r, c, v) in entries {
                values[system.slot(r, c).expect("every block entry is stored")] = v;
            }
            values
        };
        let (a0, a1) = (by_slot(&a0), by_slot(&a1));
        let mut solver = HarmonicSolver {
            n,
            system,
            a0,
            a1,
            factorizations: (0, 0, 0),
        };
        if sparse {
            // The pivot order is chosen once, at ω = 1: every frequency of
            // the sweep then refactors on it.
            solver.factor_at(1.0)?;
        }
        Ok(solver)
    }

    /// The numeric factorisations performed so far, by kind: `(full,
    /// refactorisations, re-pivots)`. A dense solve factors afresh (full);
    /// a sparse solver factors once at construction (full), then refactors
    /// on that pivot order per solve, re-pivoting only where the order went
    /// numerically stale at a frequency.
    pub fn factorizations(&self) -> (usize, usize, usize) {
        self.factorizations
    }

    /// Solves `(G + jωC)·x = b` at angular frequency `omega` (rad/s).
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b` has the wrong
    /// length, or a factorisation error if the system is singular at this
    /// frequency (a sparse solver's next solve then factors afresh).
    pub fn solve(&mut self, omega: f64, b: &[Complex64]) -> Result<Vec<Complex64>, NumericsError> {
        let n = self.n;
        if b.len() != n {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("vector of length {n}"),
                found: format!("vector of length {}", b.len()),
            });
        }
        let rhs: Vec<f64> = b
            .iter()
            .map(|z| z.re)
            .chain(b.iter().map(|z| z.im))
            .collect();
        self.factor_at(omega)?;
        let mut xy = Vec::with_capacity(2 * n);
        self.system.solve_into(&rhs, &mut xy)?;
        Ok((0..n).map(|k| Complex64::new(xy[k], xy[k + n])).collect())
    }

    /// Refills the real-equivalent system at angular frequency `omega` and
    /// factors it, counting the factorisation by kind.
    fn factor_at(&mut self, omega: f64) -> Result<(), NumericsError> {
        let values = self.system.values_mut();
        for ((x, a0), a1) in values.iter_mut().zip(&self.a0).zip(&self.a1) {
            *x = a0 + omega * a1;
        }
        let (full, refactorizations, repivots) = &mut self.factorizations;
        let counter = match self.system.factor(|| false)? {
            Factorisation::Full => full,
            Factorisation::Refactor => refactorizations,
            Factorisation::Repivot => repivots,
        };
        *counter += 1;
        Ok(())
    }
}

fn check_shapes(g: &Matrix, c: &Matrix) -> Result<usize, NumericsError> {
    if !g.is_square() || g.rows() != c.rows() || g.cols() != c.cols() {
        return Err(NumericsError::DimensionMismatch {
            expected: format!("square C matching {}x{} G", g.rows(), g.cols()),
            found: format!("{}x{} C", c.rows(), c.cols()),
        });
    }
    if g.rows() == 0 {
        return Err(NumericsError::InvalidArgument(
            "harmonic system must have at least one unknown".to_string(),
        ));
    }
    Ok(g.rows())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn arithmetic_matches_hand_results() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -1.0);
        assert_eq!(a + b, Complex64::new(4.0, 1.0));
        assert_eq!(a - b, Complex64::new(-2.0, 3.0));
        assert_eq!(a * b, Complex64::new(5.0, 5.0));
        let q = a / b;
        assert!(
            close(q * b, a, 1e-14),
            "division must invert multiplication"
        );
        assert_eq!(-a + a, Complex64::ZERO);
        assert!((a.abs() - 5f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn polar_round_trips() {
        let z = Complex64::from_polar(2.0, 0.75);
        assert!((z.abs() - 2.0).abs() < 1e-14);
        assert!((z.arg() - 0.75).abs() < 1e-14);
    }

    #[test]
    fn division_survives_extreme_magnitudes() {
        let tiny = Complex64::new(1e-300, 1e-300);
        let q = tiny / tiny;
        assert!(close(q, Complex64::ONE, 1e-12), "got {q}");
        let big = Complex64::new(1e300, -1e300);
        let q = big / big;
        assert!(close(q, Complex64::ONE, 1e-12), "got {q}");
    }

    /// Single RC low-pass: node equation `(1/R + jωC)·v = 1/R · vin` has the
    /// textbook solution `v = vin / (1 + jωRC)`.
    fn rc_case(solver: &mut HarmonicSolver, r: f64, cap: f64) {
        for omega in [0.0, 1.0, 1.0 / (r * cap), 1e6] {
            let x = solver
                .solve(omega, &[Complex64::new(1.0 / r, 0.0)])
                .expect("RC system is regular");
            let expected = Complex64::ONE / Complex64::new(1.0, omega * r * cap);
            assert!(
                close(x[0], expected, 1e-12 * expected.abs().max(1.0)),
                "omega {omega}: {} vs {expected}",
                x[0]
            );
        }
    }

    #[test]
    fn dense_backend_solves_the_rc_divider() {
        let (r, cap) = (1e3, 1e-6);
        let g = Matrix::from_rows(&[&[1.0 / r]]);
        let c = Matrix::from_rows(&[&[cap]]);
        rc_case(&mut HarmonicSolver::new(&g, &c, false).unwrap(), r, cap);
    }

    #[test]
    fn sparse_backend_solves_the_rc_divider() {
        let (r, cap) = (1e3, 1e-6);
        let g = Matrix::from_rows(&[&[1.0 / r]]);
        let c = Matrix::from_rows(&[&[cap]]);
        rc_case(&mut HarmonicSolver::new(&g, &c, true).unwrap(), r, cap);
    }

    #[test]
    fn backends_agree_on_a_random_regular_system() {
        // Deterministic "random" fill from a simple LCG; diagonally
        // dominated so both factorisations stay well conditioned.
        let n = 7;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (1u64 << 31) as f64 - 0.5
        };
        let mut g = Matrix::zeros(n, n);
        let mut c = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                // Sparse-ish fill: skip ~half the off-diagonals.
                if i == j || next() > 0.0 {
                    g.add_at(i, j, next());
                    c.add_at(i, j, next());
                }
            }
            g.add_at(i, i, 4.0);
            c.add_at(i, i, 4.0);
        }
        let b: Vec<Complex64> = (0..n)
            .map(|k| Complex64::new(next(), k as f64 * 0.1))
            .collect();
        let mut dense = HarmonicSolver::new(&g, &c, false).unwrap();
        let mut sparse = HarmonicSolver::new(&g, &c, true).unwrap();
        for omega in [0.0, 0.3, 2.0, 50.0] {
            let xd = dense.solve(omega, &b).unwrap();
            let xs = sparse.solve(omega, &b).unwrap();
            for (a, b) in xd.iter().zip(&xs) {
                assert!(close(*a, *b, 1e-9), "backends disagree: {a} vs {b}");
            }
        }
    }

    #[test]
    fn shape_mismatches_are_reported() {
        let g = Matrix::zeros(2, 2);
        let c = Matrix::zeros(3, 3);
        assert!(HarmonicSolver::new(&g, &c, false).is_err());
        assert!(HarmonicSolver::new(&g, &c, true).is_err());
    }
}
