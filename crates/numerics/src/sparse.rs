//! Sparse matrices (COO triplet assembly → CSR) and a fill-pattern-reusing
//! sparse LU factorisation.
//!
//! Modified nodal analysis produces Jacobians whose **sparsity pattern is
//! fixed per circuit**: every Newton iteration and every time step stamps the
//! same `(row, col)` positions, only the values change. [`SparseLu`] exploits
//! this the same way production circuit simulators (KLU, Sparse 1.3) do:
//!
//! 1. The **first** factorisation ([`SparseLu::new`]) performs partial
//!    pivoting and builds the *symbolic analysis*: the row permutation, the
//!    merged L/U fill pattern, a scatter map from the matrix's CSR entries
//!    into the factor storage, and an **elimination program** — the factor
//!    slot each update of the elimination writes, in elimination order.
//! 2. Every **subsequent** factorisation ([`SparseLu::refactor`]) scatters
//!    the new values into the fixed pattern and runs that program along the
//!    stored pivot order: no allocation, no pattern bookkeeping and no search
//!    for update targets, as in KLU's refactor (Davis & Palamadai Natarajan,
//!    ACM TOMS 37(3), 2010).
//!
//! The analysis never changes once built, so factorisations share it: a
//! [`SparseLu`] is a handle on its analysis plus one vector of numeric factor
//! values, and cloning one (or `clone_from` into an existing one) copies the
//! values only.
//!
//! If a reused pivot order goes numerically stale (a stored pivot becomes
//! tiny), `refactor` fails and a fresh fully-pivoted factorisation builds a
//! new analysis; factorisations cloned before it keep the old one. The
//! policy that chooses between the two lives in
//! [`LinearSystem`](crate::system::LinearSystem).

use crate::linalg::Matrix;
use crate::NumericsError;
use std::sync::Arc;

/// Relative pivot-breakdown threshold, matching the dense LU in
/// [`crate::linalg`].
const PIVOT_RTOL: f64 = 1e-14;

/// Largest absolute entry of each column (floored at `f64::MIN_POSITIVE` so
/// a structurally empty column still reads as singular rather than dividing
/// by zero). Pivot breakdown is judged against the pivot column's own scale:
/// MNA matrices mix 1/dt-scaled companion conductances with unit-scale
/// branch equations, and a global threshold would misdiagnose the well-posed
/// small-scale columns as singular at small time steps.
fn column_scales(a: &SparseMatrix) -> Vec<f64> {
    let mut scales = Vec::new();
    refill_column_scales(a, &mut scales);
    scales
}

/// In-place variant of [`column_scales`] for the allocation-free
/// `refactor` hot path.
fn refill_column_scales(a: &SparseMatrix, scales: &mut Vec<f64>) {
    scales.clear();
    scales.resize(a.cols, f64::MIN_POSITIVE);
    for (k, &v) in a.values.iter().enumerate() {
        let c = a.col_idx[k];
        let v = v.abs();
        if v > scales[c] {
            scales[c] = v;
        }
    }
}

/// Triplet (COO) accumulator used to assemble a [`SparseMatrix`].
///
/// Duplicate coordinates are allowed and are **summed** during conversion to
/// CSR — exactly the semantics MNA stamping needs. Explicitly pushed zeros
/// are kept, so a zero-valued triplet reserves a slot in the sparsity
/// pattern.
///
/// # Example
///
/// ```
/// # use harvester_numerics::sparse::TripletMatrix;
/// let mut t = TripletMatrix::new(2, 2);
/// t.push(0, 0, 1.0);
/// t.push(0, 0, 1.0); // duplicates accumulate
/// t.push(1, 1, 3.0);
/// let csr = t.to_csr();
/// assert_eq!(csr.nnz(), 2);
/// assert_eq!(csr.get(0, 0), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TripletMatrix {
    rows: usize,
    cols: usize,
    triplets: Vec<(usize, usize, f64)>,
}

impl TripletMatrix {
    /// Creates an empty `rows × cols` triplet accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        TripletMatrix {
            rows,
            cols,
            triplets: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored triplets (before duplicate coalescing).
    pub fn nnz(&self) -> usize {
        self.triplets.len()
    }

    /// Appends `value` at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "triplet ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        self.triplets.push((row, col, value));
    }

    /// Converts the accumulated triplets into CSR form, summing duplicates.
    pub fn to_csr(&self) -> SparseMatrix {
        SparseMatrix::from_triplets(self.rows, self.cols, &self.triplets)
    }
}

/// A sparse matrix in compressed-sparse-row (CSR) form.
///
/// Built from COO triplets (see [`TripletMatrix`]); once built, the sparsity
/// pattern is fixed and values can be updated in place with
/// [`SparseMatrix::fill_zero`] + [`SparseMatrix::add_at`] — the stamping
/// cycle the MNA engine uses.
///
/// # Example
///
/// ```
/// # use harvester_numerics::sparse::SparseMatrix;
/// # fn main() -> Result<(), harvester_numerics::NumericsError> {
/// let a = SparseMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 1, 3.0)]);
/// let x = a.solve(&[9.0, 6.0])?;
/// assert!((x[0] - 1.75).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Builds a CSR matrix from COO triplets, summing duplicate coordinates.
    /// Explicit zeros are kept as pattern entries.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero or any triplet is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        for &(r, c, _) in &sorted {
            assert!(
                r < rows && c < cols,
                "triplet ({r}, {c}) out of bounds for {rows}x{cols} matrix"
            );
        }
        sorted.sort_by_key(|t| (t.0, t.1));

        // Per-row entry counts first, then a prefix sum into row pointers.
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());
        let mut last: Option<(usize, usize)> = None;
        for &(r, c, v) in &sorted {
            if last == Some((r, c)) {
                *values.last_mut().expect("coalesce follows a push") += v;
            } else {
                col_idx.push(c);
                values.push(v);
                row_ptr[r + 1] += 1;
                last = Some((r, c));
            }
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds a sparse matrix from a dense one, dropping exact zeros.
    pub fn from_dense(dense: &Matrix) -> Self {
        let mut triplets = Vec::new();
        for i in 0..dense.rows() {
            for j in 0..dense.cols() {
                let v = dense[(i, j)];
                if v != 0.0 {
                    triplets.push((i, j, v));
                }
            }
        }
        // A fully zero matrix still needs valid (empty) CSR structure.
        SparseMatrix::from_triplets(dense.rows(), dense.cols(), &triplets)
    }

    /// Converts to a dense [`Matrix`].
    pub fn to_dense(&self) -> Matrix {
        let mut dense = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                dense[(r, self.col_idx[k])] += self.values[k];
            }
        }
        dense
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Number of stored entries (pattern slots, including explicit zeros).
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Value at `(row, col)`; positions outside the pattern read as zero.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds"
        );
        match self.position(row, col) {
            Some(k) => self.values[k],
            None => 0.0,
        }
    }

    /// Iterates over the stored entries as `(row, col, value)`, in slot
    /// order (see [`SparseMatrix::slot`]): row by row, ascending columns.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            (self.row_ptr[r]..self.row_ptr[r + 1])
                .map(move |k| (r, self.col_idx[k], self.values[k]))
        })
    }

    /// Sets every stored value to zero, keeping the sparsity pattern — the
    /// start of each MNA assembly cycle.
    pub fn fill_zero(&mut self) {
        for v in &mut self.values {
            *v = 0.0;
        }
    }

    /// Adds `value` to the entry at `(row, col)` (the MNA stamping
    /// primitive).
    ///
    /// # Panics
    ///
    /// Panics if `(row, col)` is not part of the sparsity pattern: stamping
    /// outside the pattern declared at assembly time is a programming error
    /// in the device model, not a recoverable condition.
    pub fn add_at(&mut self, row: usize, col: usize, value: f64) {
        let slot = self.slot(row, col);
        self.values[slot] += value;
    }

    /// The storage slot of `(row, col)`: the index of its value in
    /// [`SparseMatrix::values`]. Slots run row by row with ascending
    /// columns, the order of [`SparseMatrix::entries`], and stay fixed with
    /// the pattern, so a caller that stamps the same positions over and over
    /// can look each one up once and add through
    /// [`SparseMatrix::add_at_slot`] from then on.
    ///
    /// # Panics
    ///
    /// Panics if `(row, col)` is not part of the sparsity pattern, exactly
    /// as [`SparseMatrix::add_at`] does.
    pub fn slot(&self, row: usize, col: usize) -> usize {
        match self.position(row, col) {
            Some(k) => k,
            None => panic!("entry ({row}, {col}) is not in the sparsity pattern"),
        }
    }

    /// Adds `value` to the entry stored at `slot` (see
    /// [`SparseMatrix::slot`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.nnz()`.
    pub fn add_at_slot(&mut self, slot: usize, value: f64) {
        self.values[slot] += value;
    }

    /// The stored values in slot order (see [`SparseMatrix::slot`]), one
    /// per pattern entry.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The stored values in slot order, for refilling in place; the
    /// pattern stays fixed.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The slot of `(row, col)`, or `None` if the pattern keeps no entry
    /// there (a column out of bounds included).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn position(&self, row: usize, col: usize) -> Option<usize> {
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        self.col_idx[lo..hi]
            .binary_search(&col)
            .ok()
            .map(|p| lo + p)
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, NumericsError> {
        if x.len() != self.cols {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("vector of length {}", self.cols),
                found: format!("vector of length {}", x.len()),
            });
        }
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yr = acc;
        }
        Ok(y)
    }

    /// Performs the first (fully pivoted, symbolic + numeric) LU
    /// factorisation.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::SingularMatrix`] for numerically singular
    /// matrices and [`NumericsError::DimensionMismatch`] for non-square ones.
    pub fn lu(&self) -> Result<SparseLu, NumericsError> {
        SparseLu::new(self)
    }

    /// Solves `A·x = b` by sparse LU factorisation.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`SparseMatrix::lu`] and returns a dimension
    /// mismatch if `b` has the wrong length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        self.lu()?.solve(b)
    }
}

/// The symbolic analysis of a [`SparseLu`]: everything its factorisations
/// share because it depends on the sparsity pattern and the pivot order but
/// not on the values. Built once by [`SparseLu::new`] and never changed.
#[derive(Debug)]
struct Symbolic {
    n: usize,
    /// `perm[i]` = original row stored as factor row `i`.
    perm: Vec<usize>,
    /// Combined L/U rows: `cols[row_start[i]..row_start[i + 1]]` ascending.
    row_start: Vec<usize>,
    cols: Vec<usize>,
    /// Flat index of the diagonal entry of each factor row.
    diag: Vec<usize>,
    /// Maps each CSR entry of the factored matrix to its factor slot.
    scatter: Vec<usize>,
    /// The CSR structure this analysis was built from; `refactor` verifies
    /// a supplied matrix against it before reusing the analysis.
    pattern_row_ptr: Vec<usize>,
    pattern_cols: Vec<usize>,
    /// The elimination program: the target of every update, in elimination
    /// order. Factor row `i` subtracts, for each of its L columns `j` in
    /// ascending order, the multiplier times row `j`'s U entries
    /// (`diag[j] + 1..row_start[j + 1]`); for each of those updates, rows
    /// in order, this holds the target's offset from `row_start[i]`, so its
    /// length is the elimination's update count.
    program: Vec<usize>,
}

impl Symbolic {
    /// Records the target of every update of the up-looking elimination over
    /// the fill pattern (see [`Symbolic::program`]), walking each target row
    /// forward in step with the sorted U entries. The pattern [`SparseLu::new`]
    /// builds is closed under this elimination: every update lands on an
    /// existing slot, which is checked here, once per analysis.
    fn elimination_program(row_start: &[usize], cols: &[usize], diag: &[usize]) -> Vec<usize> {
        let mut program = Vec::new();
        for (i, &d) in diag.iter().enumerate() {
            let (lo, hi) = (row_start[i], row_start[i + 1]);
            for pos in lo..d {
                let j = cols[pos];
                let mut t = pos + 1;
                for &c in &cols[diag[j] + 1..row_start[j + 1]] {
                    while t < hi && cols[t] < c {
                        t += 1;
                    }
                    assert!(
                        t < hi && cols[t] == c,
                        "fill pattern is not closed under elimination: factor row {i} \
                         lacks column {c}"
                    );
                    program.push(t - lo);
                }
            }
        }
        program
    }
}

/// Sparse LU factors with a reusable symbolic analysis.
///
/// Created by [`SparseMatrix::lu`]. The first factorisation records the row
/// permutation (partial pivoting), the merged L/U fill pattern, a scatter
/// map and the elimination program; [`SparseLu::refactor`] then refactors a
/// **same-pattern** matrix in `O(nnz(L+U))` with no allocation.
///
/// The analysis is shared, not copied: [`Clone`] hands the copy the same
/// analysis and copies the numeric values, and `clone_from` into a
/// factorisation of the same analysis also reuses its values buffer.
///
/// # Example
///
/// ```
/// # use harvester_numerics::sparse::SparseMatrix;
/// # fn main() -> Result<(), harvester_numerics::NumericsError> {
/// let mut a = SparseMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 1, 3.0)]);
/// let mut lu = a.lu()?;
/// let x1 = lu.solve(&[9.0, 6.0])?;
/// assert!((x1[0] - 1.75).abs() < 1e-12);
///
/// // New values, same pattern: cheap refactorisation, no symbolic work.
/// a.fill_zero();
/// a.add_at(0, 0, 2.0);
/// a.add_at(0, 1, 1.0);
/// a.add_at(1, 1, 1.0);
/// lu.refactor(&a)?;
/// let x2 = lu.solve(&[4.0, 2.0])?;
/// assert!((x2[0] - 1.0).abs() < 1e-12);
/// assert!((x2[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SparseLu {
    symbolic: Arc<Symbolic>,
    /// Combined L/U values, one per slot of the analysis' factor pattern.
    vals: Vec<f64>,
    /// Reusable per-column entry-scale scratch (pivot-breakdown reference),
    /// refilled by `refactor` so the hot path stays allocation-free. Not
    /// part of the factors: clones start without it.
    col_scale: Vec<f64>,
}

impl Clone for SparseLu {
    fn clone(&self) -> Self {
        SparseLu {
            symbolic: Arc::clone(&self.symbolic),
            vals: self.vals.clone(),
            col_scale: Vec::new(),
        }
    }

    /// Takes `source`'s analysis and copies its values into this
    /// factorisation's buffer, which is reused whenever it is large enough.
    fn clone_from(&mut self, source: &Self) {
        if !Arc::ptr_eq(&self.symbolic, &source.symbolic) {
            self.symbolic = Arc::clone(&source.symbolic);
        }
        self.vals.clone_from(&source.vals);
    }
}

impl SparseLu {
    /// Performs the first factorisation of `a`: partial pivoting, symbolic
    /// fill discovery and numeric elimination in one pass.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `a` is not square and
    /// [`NumericsError::SingularMatrix`] if a pivot smaller than
    /// `1e-14 ×` the pivot column's own entry scale is encountered (per-column
    /// rather than global scaling, so the mixed 1/dt-conductance and
    /// unit-scale rows of an MNA system are judged fairly).
    pub fn new(a: &SparseMatrix) -> Result<Self, NumericsError> {
        if !a.is_square() {
            return Err(NumericsError::DimensionMismatch {
                expected: "square matrix".to_string(),
                found: format!("{}x{}", a.rows, a.cols),
            });
        }
        let n = a.rows;
        let col_scale = column_scales(a);

        // Working rows as sorted (col, value) lists, eliminated in place.
        let mut work: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|r| {
                (a.row_ptr[r]..a.row_ptr[r + 1])
                    .map(|k| (a.col_idx[k], a.values[k]))
                    .collect()
            })
            .collect();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivoting: largest |entry| in column k among the
            // not-yet-eliminated rows.
            let mut pivot_row = usize::MAX;
            let mut pivot_val = 0.0f64;
            for (i, row) in work.iter().enumerate().skip(k) {
                if let Ok(p) = row.binary_search_by_key(&k, |e| e.0) {
                    let v = row[p].1.abs();
                    if v > pivot_val {
                        pivot_val = v;
                        pivot_row = i;
                    }
                }
            }
            if pivot_row == usize::MAX || pivot_val <= PIVOT_RTOL * col_scale[k] {
                return Err(NumericsError::SingularMatrix {
                    column: k,
                    pivot: pivot_val,
                });
            }
            work.swap(k, pivot_row);
            perm.swap(k, pivot_row);

            let (top, bottom) = work.split_at_mut(k + 1);
            let pivot_row = &top[k];
            let pivot_pos = pivot_row
                .binary_search_by_key(&k, |e| e.0)
                .expect("pivot entry exists by construction");
            let pivot = pivot_row[pivot_pos].1;
            let updates = &pivot_row[pivot_pos + 1..];
            for row in bottom.iter_mut() {
                if let Ok(p) = row.binary_search_by_key(&k, |e| e.0) {
                    let factor = row[p].1 / pivot;
                    row[p].1 = factor; // the L multiplier, stored in place
                    merge_axpy(row, updates, factor);
                }
            }
        }

        // Flatten the combined L/U rows.
        let total: usize = work.iter().map(Vec::len).sum();
        let mut row_start = Vec::with_capacity(n + 1);
        let mut cols = Vec::with_capacity(total);
        let mut vals = Vec::with_capacity(total);
        let mut diag = Vec::with_capacity(n);
        row_start.push(0);
        for (i, row) in work.iter().enumerate() {
            for &(c, v) in row {
                if c == i {
                    diag.push(cols.len());
                }
                cols.push(c);
                vals.push(v);
            }
            row_start.push(cols.len());
        }
        debug_assert_eq!(diag.len(), n, "every factor row has a diagonal");

        // Scatter map: CSR entry k of A lands at scatter[k] in `vals`.
        let mut scatter = vec![0usize; a.nnz()];
        for (i, &orig) in perm.iter().enumerate() {
            let lo = row_start[i];
            let hi = row_start[i + 1];
            for (k, &c) in a
                .col_idx
                .iter()
                .enumerate()
                .take(a.row_ptr[orig + 1])
                .skip(a.row_ptr[orig])
            {
                let p = cols[lo..hi]
                    .binary_search(&c)
                    .expect("factor pattern contains every entry of A");
                scatter[k] = lo + p;
            }
        }

        let program = Symbolic::elimination_program(&row_start, &cols, &diag);
        Ok(SparseLu {
            symbolic: Arc::new(Symbolic {
                n,
                perm,
                row_start,
                cols,
                diag,
                scatter,
                pattern_row_ptr: a.row_ptr.clone(),
                pattern_cols: a.col_idx.clone(),
                program,
            }),
            vals,
            col_scale,
        })
    }

    /// Refactors a matrix with the **same sparsity pattern** as the one this
    /// factorisation was created from, reusing the stored pivot order and
    /// fill pattern: the values are scattered into the factor slots and the
    /// analysis' elimination program runs over them, every update writing
    /// the slot the program names for it. No allocation and no search for
    /// update targets: `O(nnz(L+U))` work, plus the `O(nnz(A))` check that
    /// `a`'s pattern is the factored one.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `a` has a different
    /// shape or entry count, [`NumericsError::InvalidArgument`] if the
    /// sparsity pattern itself differs from the factored one, and
    /// [`NumericsError::SingularMatrix`] if a pivot along the stored order
    /// became numerically tiny (the caller can recover with a fresh
    /// [`SparseLu::new`]).
    pub fn refactor(&mut self, a: &SparseMatrix) -> Result<(), NumericsError> {
        let s = &*self.symbolic;
        if a.rows != s.n || a.cols != s.n || a.nnz() != s.pattern_cols.len() {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("{0}x{0} matrix with {1} entries", s.n, s.pattern_cols.len()),
                found: format!("{}x{} matrix with {} entries", a.rows, a.cols, a.nnz()),
            });
        }
        if a.row_ptr != s.pattern_row_ptr || a.col_idx != s.pattern_cols {
            return Err(NumericsError::InvalidArgument(
                "sparsity pattern does not match the factored pattern; \
                 use SparseLu::new for a structurally different matrix"
                    .to_string(),
            ));
        }
        refill_column_scales(a, &mut self.col_scale);
        let col_scale = &self.col_scale;

        let vals = &mut self.vals;
        vals.fill(0.0);
        for (&v, &slot) in a.values.iter().zip(&s.scatter) {
            vals[slot] += v;
        }

        // Numeric elimination over the fixed pattern (up-looking, IKJ): row
        // i's L entries take their multipliers against the finished rows
        // above it, and each multiplier's updates are the next run of the
        // program. A zero multiplier skips its run.
        let mut program = s.program.as_slice();
        for i in 0..s.n {
            let lo = s.row_start[i];
            let (done, row) = vals.split_at_mut(lo);
            for pos in lo..s.diag[i] {
                let j = s.cols[pos];
                let pivot = done[s.diag[j]];
                if pivot.abs() <= PIVOT_RTOL * col_scale[j] {
                    return Err(NumericsError::SingularMatrix {
                        column: j,
                        pivot: pivot.abs(),
                    });
                }
                let factor = row[pos - lo] / pivot;
                row[pos - lo] = factor;
                let upper = &done[s.diag[j] + 1..s.row_start[j + 1]];
                let (targets, rest) = program.split_at(upper.len());
                program = rest;
                if factor == 0.0 {
                    continue;
                }
                for (&t, &u) in targets.iter().zip(upper) {
                    row[t] -= factor * u;
                }
            }
            let d = row[s.diag[i] - lo];
            if d.abs() <= PIVOT_RTOL * col_scale[i] {
                return Err(NumericsError::SingularMatrix {
                    column: i,
                    pivot: d.abs(),
                });
            }
        }
        debug_assert!(program.is_empty(), "the program runs to its end");
        Ok(())
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b` has the wrong
    /// length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` into a caller-provided buffer (no allocation when
    /// `x` already has capacity `n`).
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b` has the wrong
    /// length.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<(), NumericsError> {
        let s = &*self.symbolic;
        let n = s.n;
        if b.len() != n {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("vector of length {n}"),
                found: format!("vector of length {}", b.len()),
            });
        }
        x.clear();
        x.extend(s.perm.iter().map(|&p| b[p]));
        // Forward substitution (L is unit lower triangular).
        for i in 0..n {
            let mut acc = x[i];
            for pos in s.row_start[i]..s.diag[i] {
                acc -= self.vals[pos] * x[s.cols[pos]];
            }
            x[i] = acc;
        }
        // Backward substitution.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for pos in (s.diag[i] + 1)..s.row_start[i + 1] {
                acc -= self.vals[pos] * x[s.cols[pos]];
            }
            x[i] = acc / self.vals[s.diag[i]];
        }
        Ok(())
    }
}

/// Computes `row ← row − factor·updates`, merging the sorted column lists
/// and inserting fill-in as needed. `updates` columns are all strictly
/// greater than any column `row` has been eliminated at so far.
fn merge_axpy(row: &mut Vec<(usize, f64)>, updates: &[(usize, f64)], factor: f64) {
    if updates.is_empty() {
        return;
    }
    let mut out = Vec::with_capacity(row.len() + updates.len());
    let mut i = 0;
    let mut j = 0;
    while i < row.len() && j < updates.len() {
        let (rc, rv) = row[i];
        let (uc, uv) = updates[j];
        match rc.cmp(&uc) {
            std::cmp::Ordering::Less => {
                out.push((rc, rv));
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push((uc, -factor * uv));
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((rc, rv - factor * uv));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&row[i..]);
    out.extend(updates[j..].iter().map(|&(c, v)| (c, -factor * v)));
    *row = out;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_of(triplets: &[(usize, usize, f64)], n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for &(r, c, v) in triplets {
            m[(r, c)] += v;
        }
        m
    }

    #[test]
    fn triplet_roundtrip_coalesces_duplicates() {
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(2, 1, 4.0);
        t.push(0, 0, 2.0);
        t.push(1, 2, -1.0);
        assert_eq!(t.nnz(), 4);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 3);
        let csr = t.to_csr();
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.get(0, 0), 3.0);
        assert_eq!(csr.get(2, 1), 4.0);
        assert_eq!(csr.get(1, 2), -1.0);
        assert_eq!(csr.get(1, 1), 0.0);
        let dense = csr.to_dense();
        assert_eq!(dense[(0, 0)], 3.0);
        assert_eq!(dense[(2, 1)], 4.0);
    }

    #[test]
    fn from_dense_roundtrip() {
        let dense = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 0.0, 0.0], &[3.0, 4.0, 0.0]]);
        let sparse = SparseMatrix::from_dense(&dense);
        assert_eq!(sparse.nnz(), 4);
        assert_eq!(sparse.to_dense(), dense);
        let entries: Vec<_> = sparse.entries().collect();
        assert_eq!(entries.len(), 4);
        assert!(entries.contains(&(2, 1, 4.0)));
    }

    #[test]
    fn empty_rows_are_handled() {
        let sparse = SparseMatrix::from_triplets(4, 4, &[(0, 0, 1.0), (3, 3, 2.0)]);
        assert_eq!(sparse.nnz(), 2);
        assert_eq!(sparse.get(1, 1), 0.0);
        assert_eq!(sparse.get(3, 3), 2.0);
        let y = sparse.mul_vec(&[1.0, 1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y, vec![1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn mul_vec_checks_dimensions() {
        let sparse = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]);
        assert!(matches!(
            sparse.mul_vec(&[1.0]),
            Err(NumericsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn fill_zero_and_add_at_keep_the_pattern() {
        let mut sparse = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]);
        sparse.fill_zero();
        assert_eq!(sparse.nnz(), 2);
        assert_eq!(sparse.get(0, 0), 0.0);
        sparse.add_at(0, 0, 5.0);
        sparse.add_at(0, 0, 1.0);
        assert_eq!(sparse.get(0, 0), 6.0);
    }

    #[test]
    fn slots_follow_the_entry_order_and_accumulate_like_add_at() {
        let triplets = [(2, 0, 1.0), (0, 2, 2.0), (0, 0, 3.0), (1, 1, 4.0)];
        let mut a = SparseMatrix::from_triplets(3, 3, &triplets);
        let mut b = a.clone();
        for (k, (r, c, v)) in a.entries().enumerate() {
            assert_eq!(a.slot(r, c), k);
            assert_eq!(a.values()[k], v);
        }
        assert_eq!(a.values().len(), a.nnz());
        for &(r, c, v) in &triplets {
            a.add_at(r, c, 0.1 * v);
            let slot = b.slot(r, c);
            b.add_at_slot(slot, 0.1 * v);
        }
        assert_eq!(a, b);
        assert_eq!(a.get(0, 2), 2.0 + 0.1 * 2.0);
    }

    #[test]
    #[should_panic(expected = "entry (0, 1) is not in the sparsity pattern")]
    fn slot_outside_pattern_panics() {
        let sparse = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]);
        sparse.slot(0, 1);
    }

    #[test]
    #[should_panic(expected = "not in the sparsity pattern")]
    fn add_at_outside_pattern_panics() {
        let mut sparse = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]);
        sparse.add_at(0, 1, 1.0);
    }

    #[test]
    fn solve_matches_dense_on_a_known_system() {
        let triplets = [
            (0, 0, 2.0),
            (0, 1, 1.0),
            (0, 2, -1.0),
            (1, 0, -3.0),
            (1, 1, -1.0),
            (1, 2, 2.0),
            (2, 0, -2.0),
            (2, 1, 1.0),
            (2, 2, 2.0),
        ];
        let sparse = SparseMatrix::from_triplets(3, 3, &triplets);
        let b = [8.0, -11.0, -3.0];
        let x = sparse.solve(&b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] - -1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        let sparse = SparseMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let x = sparse.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let sparse = SparseMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)],
        );
        let err = sparse.solve(&[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, NumericsError::SingularMatrix { .. }));
        // Structurally singular: an empty row.
        let sparse = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]);
        assert!(matches!(
            sparse.solve(&[1.0, 1.0]),
            Err(NumericsError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn non_square_lu_is_rejected() {
        let sparse = SparseMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]);
        assert!(matches!(
            sparse.lu(),
            Err(NumericsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn refactor_matches_fresh_factorisation() {
        let pattern = [
            (0, 0, 4.0),
            (0, 2, 1.0),
            (1, 1, 3.0),
            (1, 2, -1.0),
            (2, 0, 1.0),
            (2, 2, 5.0),
        ];
        let mut a = SparseMatrix::from_triplets(3, 3, &pattern);
        let mut lu = a.lu().unwrap();

        // Same pattern, new values.
        a.fill_zero();
        for &(r, c, v) in &pattern {
            a.add_at(r, c, 2.0 * v + 1.0);
        }
        lu.refactor(&a).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x_re = lu.solve(&b).unwrap();
        let x_fresh = a.to_dense().solve(&b).unwrap();
        for (r, f) in x_re.iter().zip(x_fresh.iter()) {
            assert!((r - f).abs() < 1e-12, "refactor {r} vs fresh {f}");
        }
    }

    #[test]
    fn refactor_rejects_pattern_mismatch() {
        let a = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let other = SparseMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        let mut lu = a.lu().unwrap();
        assert!(matches!(
            lu.refactor(&other),
            Err(NumericsError::DimensionMismatch { .. })
        ));
        // Same shape and entry count, different pattern: must be rejected,
        // not silently scattered into the wrong slots.
        let anti = SparseMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        assert!(matches!(
            lu.refactor(&anti),
            Err(NumericsError::InvalidArgument(_))
        ));
        // The factors survive a rejected refactor untouched.
        let x = lu.solve(&[3.0, 4.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn solve_into_reuses_the_buffer() {
        let a = SparseMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 4.0)]);
        let lu = a.lu().unwrap();
        let mut x = Vec::with_capacity(2);
        lu.solve_into(&[2.0, 8.0], &mut x).unwrap();
        assert_eq!(x, vec![1.0, 2.0]);
        lu.solve_into(&[4.0, 4.0], &mut x).unwrap();
        assert_eq!(x, vec![2.0, 1.0]);
        assert!(lu.solve(&[1.0]).is_err());
    }

    #[test]
    fn random_pattern_agrees_with_dense() {
        // Deterministic pseudo-random fill; diagonal dominance guarantees a
        // well-conditioned system.
        let n = 12;
        let mut triplets = Vec::new();
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j && next() < 0.3 {
                    let v = 2.0 * next() - 1.0;
                    triplets.push((i, j, v));
                    row_sum += v.abs();
                }
            }
            triplets.push((i, i, row_sum + 1.0 + next()));
        }
        let sparse = SparseMatrix::from_triplets(n, n, &triplets);
        let dense = dense_of(&triplets, n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 3.0).collect();
        let xs = sparse.solve(&b).unwrap();
        let xd = dense.solve(&b).unwrap();
        for (s, d) in xs.iter().zip(xd.iter()) {
            assert!((s - d).abs() < 1e-10, "sparse {s} vs dense {d}");
        }
    }

    #[test]
    fn clone_from_shares_the_analysis_and_keeps_the_values_buffer() {
        let pattern = [(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)];
        let mut a = SparseMatrix::from_triplets(2, 2, &pattern);
        let mut lu = a.lu().unwrap();
        let mut bank = lu.clone();
        assert!(Arc::ptr_eq(&bank.symbolic, &lu.symbolic));
        assert!(bank.col_scale.is_empty(), "a clone copies the values only");

        // New values under the same analysis: the bank takes them into the
        // buffer it already has.
        a.fill_zero();
        for &(r, c, v) in &pattern {
            a.add_at(r, c, 2.0 * v - 0.5);
        }
        lu.refactor(&a).unwrap();
        let buffer = bank.vals.as_ptr();
        bank.clone_from(&lu);
        assert!(Arc::ptr_eq(&bank.symbolic, &lu.symbolic));
        assert_eq!(bank.vals.as_ptr(), buffer);
        assert_eq!(bits(&bank.vals), bits(&lu.vals));
        let banked = bank.solve(&[1.0, 2.0]).unwrap();

        // A stale pivot fails the refactor and a re-pivot builds a new
        // analysis; the bank keeps solving against the one it was factored
        // under until it takes the new factors.
        a.fill_zero();
        a.add_at(0, 0, 1e-30);
        a.add_at(0, 1, 1.0);
        a.add_at(1, 0, 1.0);
        a.add_at(1, 1, 1.0);
        let old = Arc::clone(&lu.symbolic);
        assert!(lu.refactor(&a).is_err());
        lu = SparseLu::new(&a).unwrap();
        assert!(!Arc::ptr_eq(&lu.symbolic, &old));
        assert!(Arc::ptr_eq(&bank.symbolic, &old));
        assert_eq!(bank.solve(&[1.0, 2.0]).unwrap(), banked);
        bank.clone_from(&lu);
        assert!(Arc::ptr_eq(&bank.symbolic, &lu.symbolic));
        assert_eq!(bits(&bank.vals), bits(&lu.vals));
        assert_eq!(
            bank.solve(&[1.0, 2.0]).unwrap(),
            lu.solve(&[1.0, 2.0]).unwrap()
        );
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The refactorisation the elimination program replaced, kept as its
    /// reference: every update finds its target by walking row `i` forward
    /// to the updating column (a merge search over the row).
    fn merge_search_refactor(lu: &mut SparseLu, a: &SparseMatrix) -> Result<(), NumericsError> {
        let s = Arc::clone(&lu.symbolic);
        refill_column_scales(a, &mut lu.col_scale);
        for v in &mut lu.vals {
            *v = 0.0;
        }
        for (k, &v) in a.values.iter().enumerate() {
            lu.vals[s.scatter[k]] += v;
        }
        for i in 0..s.n {
            let row_end = s.row_start[i + 1];
            for pos in s.row_start[i]..s.diag[i] {
                let j = s.cols[pos];
                let pivot = lu.vals[s.diag[j]];
                if pivot.abs() <= PIVOT_RTOL * lu.col_scale[j] {
                    return Err(NumericsError::SingularMatrix {
                        column: j,
                        pivot: pivot.abs(),
                    });
                }
                let factor = lu.vals[pos] / pivot;
                lu.vals[pos] = factor;
                if factor == 0.0 {
                    continue;
                }
                let mut t = pos + 1;
                for q in (s.diag[j] + 1)..s.row_start[j + 1] {
                    let c = s.cols[q];
                    while t < row_end && s.cols[t] < c {
                        t += 1;
                    }
                    assert!(t < row_end && s.cols[t] == c, "missing fill at ({i}, {c})");
                    lu.vals[t] -= factor * lu.vals[q];
                }
            }
            let d = lu.vals[s.diag[i]];
            if d.abs() <= PIVOT_RTOL * lu.col_scale[i] {
                return Err(NumericsError::SingularMatrix {
                    column: i,
                    pivot: d.abs(),
                });
            }
        }
        Ok(())
    }

    /// SplitMix64: the seeded stream behind the generated patterns.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// What an entry of a generated MNA pattern stamps.
    #[derive(Clone, Copy)]
    enum Slot {
        /// A node's self-conductance.
        NodeDiagonal,
        /// A branch row's own unknown: usually an exact zero (a voltage
        /// source), otherwise an inductor-like value.
        BranchDiagonal,
        /// A conductance between two nodes.
        Coupling,
        /// A branch current's ±1 incidence on a node.
        Incidence,
    }

    /// One seeded MNA-shaped pattern of dimension `n`: node rows with a
    /// self-conductance diagonal and symmetric node couplings, and branch
    /// rows coupled symmetrically to one or two nodes whose diagonal is
    /// usually an exact zero, so the first factorisation has to pivot.
    /// `values` draws the values over the fixed pattern; about one coupling
    /// in six is an exact zero, which gives exact-zero multipliers.
    struct MnaSystem {
        n: usize,
        pattern: Vec<(usize, usize, Slot)>,
    }

    impl MnaSystem {
        fn new(rng: &mut SplitMix, n: usize) -> Self {
            let branches = if n > 2 { rng.below(n / 3 + 1) } else { 0 };
            let nodes = n - branches;
            let fill = 0.04 + 0.2 * rng.unit();
            let mut pattern = Vec::new();
            for r in 0..n {
                let slot = if r < nodes {
                    Slot::NodeDiagonal
                } else {
                    Slot::BranchDiagonal
                };
                pattern.push((r, r, slot));
            }
            for r in 0..nodes {
                for c in r + 1..nodes {
                    if rng.unit() < fill {
                        pattern.push((r, c, Slot::Coupling));
                        pattern.push((c, r, Slot::Coupling));
                    }
                }
            }
            // Each branch has a node of its own (parallel voltage sources
            // would be singular), and possibly a second one.
            for k in nodes..n {
                let own = k - nodes;
                pattern.push((k, own, Slot::Incidence));
                pattern.push((own, k, Slot::Incidence));
                let other = rng.below(nodes);
                if other != own && rng.unit() < 0.5 {
                    pattern.push((k, other, Slot::Incidence));
                    pattern.push((other, k, Slot::Incidence));
                }
            }
            MnaSystem { n, pattern }
        }

        fn values(&self, rng: &mut SplitMix) -> SparseMatrix {
            let mut row_sums = vec![0.0; self.n];
            let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
            for &(r, c, slot) in &self.pattern {
                let v = match slot {
                    Slot::NodeDiagonal => 0.0, // set below
                    Slot::BranchDiagonal if rng.unit() < 0.7 => 0.0,
                    Slot::BranchDiagonal => rng.unit() - 0.25,
                    Slot::Coupling if rng.unit() < 0.17 => 0.0,
                    Slot::Coupling => 2.0 * rng.unit() - 1.0,
                    Slot::Incidence if rng.unit() < 0.5 => -1.0,
                    Slot::Incidence => 1.0,
                };
                if let Slot::Coupling = slot {
                    row_sums[r] += v.abs();
                }
                triplets.push((r, c, v));
            }
            // Node diagonals between a third of and twice their row's
            // coupling sum: sometimes dominant, often not.
            for (t, &(r, _, slot)) in triplets.iter_mut().zip(&self.pattern) {
                if let Slot::NodeDiagonal = slot {
                    t.2 = (0.3 + 1.7 * rng.unit()) * row_sums[r] + 1e-3;
                }
            }
            SparseMatrix::from_triplets(self.n, self.n, &triplets)
        }
    }

    /// Zero multipliers in the factors whose pivot row has U entries to
    /// skip: the case where the program cursor must still advance.
    fn skipped_updates(lu: &SparseLu) -> usize {
        let s = &lu.symbolic;
        (0..s.n)
            .flat_map(|i| s.row_start[i]..s.diag[i])
            .filter(|&pos| {
                let j = s.cols[pos];
                lu.vals[pos] == 0.0 && s.diag[j] + 1 < s.row_start[j + 1]
            })
            .count()
    }

    #[test]
    fn the_elimination_program_matches_the_merge_search_refactor_bit_for_bit() {
        let mut rng = SplitMix(0x5eed_1e55);
        let (mut cases, mut refactored, mut singular) = (0, 0, 0);
        let (mut pivoted, mut with_skips) = (0, 0);
        for case in 0..1280 {
            let n = 1 + case % 64;
            let system = MnaSystem::new(&mut rng, n);
            let Ok(lu) = system.values(&mut rng).lu() else {
                continue;
            };
            cases += 1;
            if lu.symbolic.perm.iter().enumerate().any(|(i, &p)| i != p) {
                pivoted += 1;
            }
            // Several value sets per analysis: refactors that succeed and
            // refactors whose stored pivot order has gone stale.
            for _ in 0..3 {
                let a = system.values(&mut rng);
                let mut program = lu.clone();
                let mut reference = lu.clone();
                let got = program.refactor(&a);
                let want = merge_search_refactor(&mut reference, &a);
                match (&got, &want) {
                    (Ok(()), Ok(())) => {
                        refactored += 1;
                        if skipped_updates(&program) > 0 {
                            with_skips += 1;
                        }
                    }
                    (
                        Err(NumericsError::SingularMatrix { column, pivot }),
                        Err(NumericsError::SingularMatrix {
                            column: c,
                            pivot: p,
                        }),
                    ) => {
                        assert_eq!((column, pivot.to_bits()), (c, p.to_bits()), "case {case}");
                        singular += 1;
                    }
                    _ => panic!("case {case}: program {got:?} vs merge search {want:?}"),
                }
                assert_eq!(bits(&program.vals), bits(&reference.vals), "case {case}");
            }
        }
        assert!(cases >= 1000, "only {cases} factorable cases");
        assert!(pivoted >= 500, "only {pivoted} analyses pivoted");
        assert!(refactored >= 1000, "only {refactored} refactors succeeded");
        assert!(singular >= 500, "only {singular} stale pivots");
        assert!(
            with_skips >= 1000,
            "only {with_skips} refactors skipped a zero multiplier"
        );
    }
}
