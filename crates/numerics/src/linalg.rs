//! Dense matrices, vectors and LU factorisation with partial pivoting.
//!
//! The systems assembled by modified nodal analysis of an energy harvester are
//! small (tens of unknowns), so a dense, dependency-free solver is the right
//! tool: no sparse bookkeeping, perfectly predictable performance, trivially
//! testable.

use crate::NumericsError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64` values.
///
/// # Example
///
/// ```
/// # use harvester_numerics::linalg::Matrix;
/// let m = Matrix::identity(3);
/// assert_eq!(m[(1, 1)], 1.0);
/// assert_eq!(m[(0, 1)], 0.0);
/// ```
#[derive(Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Copies `source` into this matrix, reusing its buffer whenever it is
    /// large enough.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows are empty or have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "row {i} has inconsistent length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// The entries as one row-major slice: row `i` occupies
    /// `[i·cols, (i + 1)·cols)`.
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The entries as one mutable row-major slice (see
    /// [`Matrix::as_slice`]).
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        for v in &mut self.data {
            *v = 0.0;
        }
    }

    /// Adds `value` to the entry at `(row, col)` (the "stamping" primitive
    /// used by modified nodal analysis).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn add_at(&mut self, row: usize, col: usize, value: f64) {
        self[(row, col)] += value;
    }

    /// LU factorisation with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::SingularMatrix`] if a pivot smaller than
    /// `1e-14 ×` the pivot column's own entry scale is encountered, and
    /// [`NumericsError::DimensionMismatch`] if the matrix is not square.
    pub fn lu(&self) -> Result<LuFactors, NumericsError> {
        if !self.is_square() {
            return Err(NumericsError::DimensionMismatch {
                expected: "square matrix".to_string(),
                found: format!("{}x{}", self.rows, self.cols),
            });
        }
        let mut factors = LuFactors {
            lu: self.clone(),
            perm: (0..self.rows).collect(),
            col_scale: Vec::new(),
        };
        factorize_in_place(&mut factors)?;
        Ok(factors)
    }

    /// LU factorisation into an existing [`LuFactors`], reusing its storage.
    ///
    /// Repeated factorisations of same-sized matrices (one per Newton
    /// iteration in a transient analysis) then perform no allocation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Matrix::lu`]. A singular matrix leaves `factors`
    /// half-eliminated: [`LuFactors::solve_into`] cannot tell and returns
    /// meaningless (typically non-finite) values, so do not solve against
    /// `factors` again until a later `lu_into` succeeds.
    pub(crate) fn lu_into(&self, factors: &mut LuFactors) -> Result<(), NumericsError> {
        if !self.is_square() {
            return Err(NumericsError::DimensionMismatch {
                expected: "square matrix".to_string(),
                found: format!("{}x{}", self.rows, self.cols),
            });
        }
        let n = self.rows;
        if factors.lu.rows == n && factors.lu.cols == n {
            factors.lu.data.copy_from_slice(&self.data);
        } else {
            factors.lu = self.clone();
        }
        factors.perm.clear();
        factors.perm.extend(0..n);
        factorize_in_place(factors)
    }

    /// Solves `A·x = b` by LU factorisation.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Matrix::lu`] and returns a dimension mismatch
    /// if `b` has the wrong length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        self.lu()?.solve(b)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        &mut self.data[row * self.cols + col]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Gaussian elimination with partial pivoting on pre-initialised factors
/// (`lu` holds the matrix to factor, `perm` the identity).
///
/// Works on whole row slices (one bounds check per row, not per entry) and
/// skips the update of a row whose multiplier is exactly zero, as
/// [`SparseLu::refactor`](crate::sparse::SparseLu::refactor) does: for
/// finite input `a − 0·b` can differ from `a` only in the sign of an exact
/// zero, so every non-zero factor entry matches the full update bit for bit.
fn factorize_in_place(factors: &mut LuFactors) -> Result<(), NumericsError> {
    let n = factors.lu.rows;
    let data = &mut factors.lu.data;
    // Singularity is judged per column against the column's own entry scale,
    // not against the global matrix norm: MNA matrices mix 1/dt-scaled
    // companion conductances with unit-scale branch equations, and a global
    // threshold would misdiagnose the well-posed small-scale columns as
    // singular whenever the time step is small. The scale buffer lives in
    // the factors so repeated `lu_into` calls stay allocation-free.
    let col_scale = &mut factors.col_scale;
    col_scale.clear();
    col_scale.resize(n, 0.0);
    for row in data.chunks_exact(n) {
        for (scale, v) in col_scale.iter_mut().zip(row) {
            let v = v.abs();
            if v > *scale {
                *scale = v;
            }
        }
    }

    for k in 0..n {
        // Find the pivot row.
        let mut pivot_row = k;
        let mut pivot_val = data[k * n + k].abs();
        for (i, row) in data.chunks_exact(n).enumerate().skip(k + 1) {
            let v = row[k].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = i;
            }
        }
        if pivot_val <= 1e-14 * col_scale[k].max(f64::MIN_POSITIVE) {
            return Err(NumericsError::SingularMatrix {
                column: k,
                pivot: pivot_val,
            });
        }
        if pivot_row != k {
            let (top, bottom) = data.split_at_mut(pivot_row * n);
            top[k * n..(k + 1) * n].swap_with_slice(&mut bottom[..n]);
            factors.perm.swap(k, pivot_row);
        }
        let (top, below) = data.split_at_mut((k + 1) * n);
        let pivot = top[k * n + k];
        let pivot_tail = &top[k * n + k + 1..];
        for row in below.chunks_exact_mut(n) {
            let factor = row[k] / pivot;
            row[k] = factor;
            if factor == 0.0 {
                continue;
            }
            for (a, b) in row[k + 1..].iter_mut().zip(pivot_tail) {
                *a -= factor * b;
            }
        }
    }
    Ok(())
}

/// The result of an LU factorisation with partial pivoting.
///
/// Stores the combined L (unit lower triangular) and U factors plus the row
/// permutation, so repeated right-hand sides can be solved cheaply.
#[derive(Debug)]
pub struct LuFactors {
    lu: Matrix,
    perm: Vec<usize>,
    /// Per-column entry scales of the matrix being factored (pivot-breakdown
    /// reference); kept as a reusable scratch so `lu_into` stays
    /// allocation-free across repeated factorisations.
    col_scale: Vec<f64>,
}

impl Clone for LuFactors {
    fn clone(&self) -> Self {
        LuFactors {
            lu: self.lu.clone(),
            perm: self.perm.clone(),
            col_scale: self.col_scale.clone(),
        }
    }

    /// Copies `source` into these factors, reusing each buffer whenever it
    /// is large enough: banking same-shape factors allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.lu.clone_from(&source.lu);
        self.perm.clone_from(&source.perm);
        self.col_scale.clone_from(&source.col_scale);
    }
}

impl LuFactors {
    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` into a caller-provided buffer (no allocation when
    /// `x` already has capacity for the solution).
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<(), NumericsError> {
        let n = self.lu.rows;
        if b.len() != n {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("vector of length {n}"),
                found: format!("vector of length {}", b.len()),
            });
        }
        // Apply the permutation, then forward/backward substitution, one
        // factor row slice per unknown.
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        let rows = self.lu.data.chunks_exact(n);
        for (i, row) in rows.clone().enumerate().skip(1) {
            let (solved, rest) = x.split_at_mut(i);
            let mut acc = rest[0];
            for (l, xj) in row[..i].iter().zip(solved.iter()) {
                acc -= l * xj;
            }
            rest[0] = acc;
        }
        for (i, row) in rows.enumerate().rev() {
            let (head, solved) = x.split_at_mut(i + 1);
            let mut acc = head[i];
            for (u, xj) in row[i + 1..].iter().zip(solved.iter()) {
                acc -= u * xj;
            }
            head[i] = acc / row[i];
        }
        Ok(())
    }
}

/// Euclidean (L2) norm of a vector.
pub(crate) fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Infinity norm (maximum absolute entry) of a vector.
pub fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |acc, x| acc.max(x.abs()))
}

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The matrix–vector product `A·x`, the oracle of the solve tests.
    fn product(a: &Matrix, x: &[f64]) -> Vec<f64> {
        (0..a.rows())
            .map(|i| (0..a.cols()).map(|j| a[(i, j)] * x[j]).sum())
            .collect()
    }

    #[test]
    fn identity_solves_trivially() {
        let m = Matrix::identity(4);
        let b = vec![1.0, -2.0, 3.0, 0.5];
        let x = m.solve(&b).unwrap();
        for (xi, bi) in x.iter().zip(b.iter()) {
            assert!((xi - bi).abs() < 1e-15);
        }
    }

    #[test]
    fn as_slice_is_row_major() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        for (k, &v) in m.as_slice().iter().enumerate() {
            assert_eq!(v, m[(k / m.cols(), k % m.cols())]);
        }
    }

    #[test]
    fn solve_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let b = [8.0, -11.0, -3.0];
        let x = a.solve(&b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] - -1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let err = a.solve(&[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, NumericsError::SingularMatrix { .. }));
    }

    #[test]
    fn non_square_lu_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.lu(),
            Err(NumericsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn vector_helpers() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm_inf(&[-3.0, 2.0]), 3.0);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn lu_reuse_for_multiple_rhs() {
        let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
        let f = a.lu().unwrap();
        let x1 = f.solve(&[10.0, 12.0]).unwrap();
        let x2 = f.solve(&[1.0, 0.0]).unwrap();
        let (r1, r2) = (product(&a, &x1), product(&a, &x2));
        assert!((r1[0] - 10.0).abs() < 1e-12 && (r1[1] - 12.0).abs() < 1e-12);
        assert!((r2[0] - 1.0).abs() < 1e-12 && (r2[1]).abs() < 1e-12);
    }

    #[test]
    fn lu_into_reuses_buffers_across_factorisations() {
        let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
        let mut factors = a.lu().unwrap();
        let b = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        b.lu_into(&mut factors).unwrap();
        let mut x = Vec::new();
        factors.solve_into(&[4.0, 7.0], &mut x).unwrap();
        let y = product(&b, &x);
        assert!((y[0] - 4.0).abs() < 1e-12 && (y[1] - 7.0).abs() < 1e-12);
        // A singular refill reports the error without poisoning the API.
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            s.lu_into(&mut factors),
            Err(NumericsError::SingularMatrix { .. })
        ));
        // Dimension changes are handled by reallocation.
        let c = Matrix::identity(3);
        c.lu_into(&mut factors).unwrap();
        factors.solve_into(&[1.0, 2.0, 3.0], &mut x).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
        assert!(Matrix::zeros(2, 3).lu_into(&mut factors).is_err());
        assert!(factors.solve_into(&[1.0], &mut x).is_err());
    }

    #[test]
    fn clone_from_reuses_same_shape_buffers() {
        let a = Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[3.0, 1.0, 0.0], &[1.0, 0.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 1.0, 0.0], &[1.0, 6.0, 2.0], &[0.0, 2.0, 7.0]]);
        let source = a.lu().unwrap();
        let mut bank = b.lu().unwrap();
        let buffers = |f: &LuFactors| {
            (
                f.lu.as_slice().as_ptr(),
                f.perm.as_ptr(),
                f.col_scale.as_ptr(),
            )
        };
        let before = buffers(&bank);
        bank.clone_from(&source);
        assert_eq!(buffers(&bank), before, "clone_from must reuse the buffers");
        assert_eq!(bank.lu, source.lu);
        assert_eq!(bank.perm, source.perm);
        assert_eq!(bank.col_scale, source.col_scale);

        let mut m = b.clone();
        let buffer = m.as_slice().as_ptr();
        m.clone_from(&a);
        assert_eq!(m.as_slice().as_ptr(), buffer);
        assert_eq!(m, a);
    }

    /// The element-indexed elimination the row-slice kernel replaced, kept
    /// as the reference it must match: same pivoting, and every row updated,
    /// zero multiplier or not.
    fn reference_factorize(factors: &mut LuFactors) -> Result<(), NumericsError> {
        let lu = &mut factors.lu;
        let n = lu.rows;
        let mut col_scale = vec![0.0f64; n];
        for i in 0..n {
            for (j, scale) in col_scale.iter_mut().enumerate() {
                let v = lu[(i, j)].abs();
                if v > *scale {
                    *scale = v;
                }
            }
        }
        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val <= 1e-14 * col_scale[k].max(f64::MIN_POSITIVE) {
                return Err(NumericsError::SingularMatrix {
                    column: k,
                    pivot: pivot_val,
                });
            }
            if pivot_row != k {
                for j in 0..n {
                    let a = lu[(k, j)];
                    let b = lu[(pivot_row, j)];
                    lu[(k, j)] = b;
                    lu[(pivot_row, j)] = a;
                }
                factors.perm.swap(k, pivot_row);
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    let delta = factor * lu[(k, j)];
                    lu[(i, j)] -= delta;
                }
            }
        }
        Ok(())
    }

    /// The element-indexed substitution the row-slice solve replaced.
    fn reference_solve(f: &LuFactors, b: &[f64]) -> Vec<f64> {
        let n = f.lu.rows;
        let mut x: Vec<f64> = f.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut acc = x[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                acc -= f.lu[(i, j)] * xj;
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                acc -= f.lu[(i, j)] * xj;
            }
            x[i] = acc / f.lu[(i, i)];
        }
        x
    }

    /// SplitMix64: a seeded, dependency-free stream of test inputs.
    struct SplitMix(u64);

    impl SplitMix {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform in `[lo, hi)`.
        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.unit()
        }

        /// Uniform in `0..n`.
        fn index(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// A random matrix shaped like an MNA Jacobian: symmetric conductance
    /// stamps spanning nine decades (1/dt companions beside unit-scale
    /// branches), unit incidence entries of branch unknowns, 15–40 % of the
    /// off-diagonal entries filled, some zero diagonals (branch rows, which
    /// force row swaps) and now and then a duplicated row (singular).
    fn mna_shaped(rng: &mut SplitMix, n: usize) -> Matrix {
        let density = rng.range(0.15, 0.40);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.unit() >= density {
                    continue;
                }
                if rng.unit() < 0.7 {
                    let g = 10f64.powf(rng.range(-3.0, 6.0)) * rng.range(0.5, 2.0);
                    a[(i, j)] -= g;
                    a[(j, i)] -= g;
                    a[(i, i)] += g;
                    a[(j, j)] += g;
                } else {
                    let s = if rng.unit() < 0.5 { 1.0 } else { -1.0 };
                    a[(i, j)] += s;
                    a[(j, i)] += s;
                }
            }
            a[(i, i)] += 10f64.powf(rng.range(-6.0, 1.0));
        }
        for i in 0..n {
            if rng.unit() < 0.2 {
                a[(i, i)] = 0.0;
            }
        }
        if n >= 2 && rng.unit() < 0.15 {
            let (from, to) = (rng.index(n), rng.index(n));
            for j in 0..n {
                a[(to, j)] = a[(from, j)];
            }
        }
        a
    }

    /// `==` everywhere (so ±0 match) and identical bits wherever non-zero.
    fn same_value(x: f64, y: f64) -> bool {
        x == y && (x == 0.0 || x.to_bits() == y.to_bits())
    }

    #[test]
    fn row_slice_kernels_match_the_element_indexed_reference() {
        let mut rng = SplitMix(0x5eed);
        let (mut swapped, mut zero_multipliers, mut singular, mut solved) = (0, 0, 0, 0);
        for n in 1..=32 {
            for _ in 0..40 {
                let a = mna_shaped(&mut rng, n);
                let fresh = LuFactors {
                    lu: a.clone(),
                    perm: (0..n).collect(),
                    col_scale: Vec::new(),
                };
                let (mut fast, mut slow) = (fresh.clone(), fresh);
                let fast_result = factorize_in_place(&mut fast);
                let slow_result = reference_factorize(&mut slow);
                match (&fast_result, &slow_result) {
                    (Ok(()), Ok(())) => {}
                    (
                        Err(NumericsError::SingularMatrix { column, pivot }),
                        Err(NumericsError::SingularMatrix {
                            column: ref_column,
                            pivot: ref_pivot,
                        }),
                    ) => {
                        assert_eq!(column, ref_column, "n = {n}\n{a}");
                        assert_eq!(pivot.to_bits(), ref_pivot.to_bits(), "n = {n}\n{a}");
                        singular += 1;
                    }
                    _ => panic!("{fast_result:?} vs {slow_result:?} on n = {n}\n{a}"),
                }
                assert_eq!(fast.perm, slow.perm, "n = {n}\n{a}");
                for (k, (x, y)) in fast.lu.data.iter().zip(&slow.lu.data).enumerate() {
                    assert!(
                        same_value(*x, *y),
                        "factor entry ({}, {}) is {x:e} against {y:e} on n = {n}\n{a}",
                        k / n,
                        k % n
                    );
                }
                if fast.perm.iter().enumerate().any(|(i, &p)| i != p) {
                    swapped += 1;
                }
                if fast_result.is_err() {
                    continue;
                }
                zero_multipliers += (0..n)
                    .flat_map(|i| (0..i).map(move |j| (i, j)))
                    .filter(|&ij| fast.lu[ij] == 0.0)
                    .count();
                let b: Vec<f64> = (0..n).map(|_| rng.range(-5.0, 5.0)).collect();
                let x = fast.solve(&b).unwrap();
                let same_factors = reference_solve(&fast, &b);
                let reference = reference_solve(&slow, &b);
                for ((xi, si), ri) in x.iter().zip(&same_factors).zip(&reference) {
                    assert_eq!(xi.to_bits(), si.to_bits(), "n = {n}\n{a}");
                    assert!(
                        same_value(*xi, *ri),
                        "{xi:e} against {ri:e} on n = {n}\n{a}"
                    );
                }
                solved += 1;
            }
        }
        // The generator must keep exercising every path the rewrite touches.
        assert!(swapped > 100, "only {swapped} pivoting cases");
        assert!(
            zero_multipliers > 1000,
            "only {zero_multipliers} zero multipliers"
        );
        assert!(singular > 20, "only {singular} singular cases");
        assert!(solved > 500, "only {solved} solved cases");
    }
}
