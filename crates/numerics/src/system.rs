//! One square linear system: its storage, its cached LU factorisation and
//! the one factor policy every solver of the stack shares.
//!
//! A [`LinearSystem`] stores its matrix densely or over a fixed sparsity
//! pattern ([`Storage`]) and exposes both alike: every stored entry has a
//! *slot*, [`LinearSystem::values`] lists the entries slot by slot, row by
//! row with ascending columns, and [`LinearSystem::for_each_slot`] visits
//! their positions in the same order. The factor policy, whose every call
//! reports what it did ([`Factorisation`]):
//!
//! * dense storage factors afresh, with partial pivoting, on every call;
//! * sparse storage factors fully on its first call ([`SparseLu::new`]),
//!   then refactors on that symbolic analysis ([`SparseLu::refactor`]) and
//!   re-pivots afresh only when the refactorisation fails (a stored pivot
//!   went numerically stale) or the caller forces it;
//! * a failed call drops the factors: a solve refuses until a later call
//!   succeeds, and a sparse system's next call is a full one again;
//! * [`LinearSystem::export`] copies the factors out as detached [`Factors`]
//!   that stay solvable while the system moves on to other values.
//!
//! The transient engine's Newton Jacobian, the shooting engine's per-step
//! bank and the AC sweep's phasor system are each one `LinearSystem`.

use crate::linalg::{LuFactors, Matrix};
use crate::sparse::{SparseLu, SparseMatrix, TripletMatrix};
use crate::NumericsError;

/// Which factorisation a [`LinearSystem::factor`] call performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Factorisation {
    /// A pivoted factorisation from scratch: every dense call, and a sparse
    /// system's first (again after a failure or a drop), which builds the
    /// symbolic analysis.
    Full,
    /// A sparse refactorisation on the stored analysis.
    Refactor,
    /// A sparse re-pivot: a pivoted factorisation that replaced the
    /// analysis after the refactorisation failed or was forced.
    Repivot,
}

/// The matrix of a [`LinearSystem`].
#[derive(Debug)]
pub enum Storage {
    /// Row-major storage: every position is a slot.
    Dense(Matrix),
    /// CSR storage over a fixed sparsity pattern.
    Sparse(SparseMatrix),
}

/// A square linear system with its cached factorisation (see the
/// [module docs](self) for the factor policy).
#[derive(Debug)]
pub struct LinearSystem {
    storage: Storage,
    factors: Option<Factors>,
}

impl LinearSystem {
    /// An `n×n` system stored densely.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn dense(n: usize) -> Self {
        LinearSystem {
            storage: Storage::Dense(Matrix::zeros(n, n)),
            factors: None,
        }
    }

    /// An `n×n` system stored over a fixed sparsity pattern: the listed
    /// positions (duplicates allowed) plus the whole diagonal, which keeps a
    /// pivot slot in every row even where nothing is written to it.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or a position is out of bounds.
    pub fn sparse(n: usize, positions: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut triplets = TripletMatrix::new(n, n);
        for (r, c) in positions.into_iter().chain((0..n).map(|i| (i, i))) {
            triplets.push(r, c, 0.0);
        }
        LinearSystem {
            storage: Storage::Sparse(triplets.to_csr()),
            factors: None,
        }
    }

    /// The matrix, for assembling into it with its storage's own
    /// primitives.
    pub fn storage_mut(&mut self) -> &mut Storage {
        &mut self.storage
    }

    /// The slot of `(row, col)`, its index in [`LinearSystem::values`];
    /// `None` where the storage keeps no entry (out of bounds, or outside a
    /// sparse pattern).
    pub fn slot(&self, row: usize, col: usize) -> Option<usize> {
        match &self.storage {
            Storage::Dense(m) => (row < m.rows() && col < m.cols()).then(|| row * m.cols() + col),
            Storage::Sparse(m) => (row < m.rows()).then(|| m.position(row, col)).flatten(),
        }
    }

    /// Calls `f(row, col, value)` for every slot in slot order (row by row,
    /// ascending columns), with the slot's entry of `values`, which is laid
    /// out like [`LinearSystem::values`]. Nested loops on dense storage: the
    /// shooting bank sweeps every step's `W` through here.
    pub fn for_each_slot(&self, values: &[f64], mut f: impl FnMut(usize, usize, f64)) {
        match &self.storage {
            Storage::Dense(m) => {
                for (r, row) in values.chunks_exact(m.cols()).enumerate() {
                    for (c, &v) in row.iter().enumerate() {
                        f(r, c, v);
                    }
                }
            }
            Storage::Sparse(m) => {
                for ((r, c, _), &v) in m.entries().zip(values) {
                    f(r, c, v);
                }
            }
        }
    }

    /// The stored values, slot by slot.
    pub fn values(&self) -> &[f64] {
        match &self.storage {
            Storage::Dense(m) => m.as_slice(),
            Storage::Sparse(m) => m.values(),
        }
    }

    /// The stored values, slot by slot, for refilling in place.
    pub fn values_mut(&mut self) -> &mut [f64] {
        match &mut self.storage {
            Storage::Dense(m) => m.as_mut_slice(),
            Storage::Sparse(m) => m.values_mut(),
        }
    }

    /// Factors the stored matrix under the [module docs](self)' policy and
    /// reports which factorisation it performed. `force_repivot` is asked
    /// only where a sparse refactorisation is about to run; returning `true`
    /// re-pivots afresh instead.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::SingularMatrix`] when the matrix cannot be
    /// factored, even with a fresh pivot order; the factors are dropped.
    #[inline]
    pub fn factor(
        &mut self,
        force_repivot: impl FnOnce() -> bool,
    ) -> Result<Factorisation, NumericsError> {
        let outcome = match (&self.storage, &mut self.factors) {
            (Storage::Dense(matrix), Some(Factors::Dense(lu))) => {
                matrix.lu_into(lu).map(|()| Factorisation::Full)
            }
            (Storage::Sparse(matrix), Some(Factors::Sparse(lu))) => {
                if !force_repivot() && lu.refactor(matrix).is_ok() {
                    Ok(Factorisation::Refactor)
                } else {
                    SparseLu::new(matrix).map(|fresh| {
                        *lu = fresh;
                        Factorisation::Repivot
                    })
                }
            }
            (storage, factors) => match storage {
                Storage::Dense(matrix) => matrix.lu().map(Factors::Dense),
                Storage::Sparse(matrix) => SparseLu::new(matrix).map(Factors::Sparse),
            }
            .map(|fresh| {
                *factors = Some(fresh);
                Factorisation::Full
            }),
        };
        if outcome.is_err() {
            self.factors = None;
        }
        outcome
    }

    /// Solves against the cached factors into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidArgument`] when no factors are cached
    /// and [`NumericsError::DimensionMismatch`] if `rhs` has the wrong length.
    pub fn solve_into(&self, rhs: &[f64], out: &mut Vec<f64>) -> Result<(), NumericsError> {
        let missing = || NumericsError::InvalidArgument("no factors to solve against".to_string());
        self.factors
            .as_ref()
            .ok_or_else(missing)?
            .solve_into(rhs, out)
    }

    /// Forgets the cached factors, and with them a sparse system's analysis.
    pub fn drop_factors(&mut self) {
        self.factors = None;
    }

    /// Copies the cached factors into `slot`, refilling factors of the same
    /// storage in place: once warm, banking allocates nothing, and sparse
    /// factors copy only their values and share the analysis they were
    /// factored under, which a later re-pivot here leaves untouched. Returns
    /// `false`, leaving `slot` alone, when no factors are cached.
    pub fn export(&self, slot: &mut Option<Factors>) -> bool {
        match (slot, &self.factors) {
            (_, None) => return false,
            (Some(Factors::Dense(to)), Some(Factors::Dense(from))) => to.clone_from(from),
            (Some(Factors::Sparse(to)), Some(Factors::Sparse(from))) => to.clone_from(from),
            (slot, factors) => *slot = factors.clone(),
        }
        true
    }
}

/// The LU factors of a [`LinearSystem`], as cached and as detached by
/// [`LinearSystem::export`].
#[derive(Debug, Clone)]
pub enum Factors {
    /// Partial-pivot LU of dense storage.
    Dense(LuFactors),
    /// Sparse LU on a shared symbolic analysis.
    Sparse(SparseLu),
}

impl Factors {
    /// Solves `A·x = rhs` into `out` against these factors.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `rhs` has the wrong
    /// length.
    pub fn solve_into(&self, rhs: &[f64], out: &mut Vec<f64>) -> Result<(), NumericsError> {
        match self {
            Factors::Dense(f) => f.solve_into(rhs, out),
            Factors::Sparse(f) => f.solve_into(rhs, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Factorisation::{Full, Refactor, Repivot};

    /// Refills `system` with `entries` (positions must have slots).
    fn set(system: &mut LinearSystem, entries: &[(usize, usize, f64)]) {
        system.values_mut().fill(0.0);
        for &(r, c, v) in entries {
            let slot = system.slot(r, c).unwrap();
            system.values_mut()[slot] += v;
        }
    }

    /// A dense and a sparse system over the positions of `entries`,
    /// holding their values.
    fn both(n: usize, entries: &[(usize, usize, f64)]) -> [LinearSystem; 2] {
        let positions = entries.iter().map(|&(r, c, _)| (r, c));
        let mut systems = [LinearSystem::dense(n), LinearSystem::sparse(n, positions)];
        for system in &mut systems {
            set(system, entries);
        }
        systems
    }

    fn solve(system: &LinearSystem, rhs: &[f64]) -> Vec<f64> {
        let mut x = Vec::new();
        system.solve_into(rhs, &mut x).unwrap();
        x
    }

    const A: [(usize, usize, f64); 4] = [(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)];

    #[test]
    fn storage_order_is_row_major_on_both_storages() {
        let [dense, sparse] = both(3, &[(0, 2, 5.0), (2, 0, 7.0)]);
        let slots = |system: &LinearSystem| {
            let mut slots = Vec::new();
            system.for_each_slot(system.values(), |r, c, v| slots.push((r, c, v)));
            slots
        };
        let dense_slots = slots(&dense);
        assert_eq!(dense_slots.len(), 9);
        assert_eq!(dense_slots[dense.slot(2, 0).unwrap()], (2, 0, 7.0));
        let sparse_slots = slots(&sparse);
        let expected = [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)];
        for (k, (r, c)) in expected.into_iter().enumerate() {
            assert_eq!(sparse.slot(r, c), Some(k));
            assert_eq!(sparse_slots[k], (r, c, sparse.values()[k]));
        }
        assert_eq!(sparse.values(), [0.0, 5.0, 0.0, 7.0, 0.0]);
        assert_eq!((dense.slot(1, 2), sparse.slot(1, 2)), (Some(5), None));
        assert_eq!((dense.slot(3, 0), sparse.slot(0, 3)), (None, None));
    }

    #[test]
    fn the_first_call_factors_fully_and_only_sparse_storage_refactors_later() {
        let b = [(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 5.0)];
        for (mut system, later) in both(2, &A).into_iter().zip([Full, Refactor]) {
            assert_eq!(system.factor(|| false), Ok(Full));
            set(&mut system, &b);
            for _ in 0..2 {
                assert_eq!(system.factor(|| false), Ok(later));
            }
            let x = solve(&system, &[3.0, 6.0]);
            assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn a_forced_repivot_keeps_factors_exported_before_it_solving_to_the_same_bits() {
        let b = [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 1.0)];
        let rhs = [1.0, 2.0];
        let expected = [(Full, false), (Repivot, true)];
        for (mut system, expected) in both(2, &A).into_iter().zip(expected) {
            system.factor(|| false).unwrap();
            let mut banked = None;
            assert!(system.export(&mut banked));
            let banked = banked.unwrap();
            let mut before = Vec::new();
            banked.solve_into(&rhs, &mut before).unwrap();

            // Dense storage never asks: it factors afresh anyway.
            set(&mut system, &b);
            let mut asked = false;
            let kind = system.factor(|| {
                asked = true;
                true
            });
            assert_eq!((kind, asked), (Ok(expected.0), expected.1));
            let mut after = Vec::new();
            banked.solve_into(&rhs, &mut after).unwrap();
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&after), bits(&before));

            // Exporting over the stale bank refills it with the new factors.
            let mut slot = Some(banked);
            assert!(system.export(&mut slot));
            slot.unwrap().solve_into(&rhs, &mut after).unwrap();
            assert_eq!(bits(&after), bits(&solve(&system, &rhs)));
            assert!((after[0] - 0.6).abs() < 1e-12 && (after[1] - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn a_stale_pivot_order_falls_back_to_a_repivot() {
        // The first factorisation keeps the natural row order; the second
        // value set makes that order's first pivot numerically tiny.
        let stale = [(0, 0, 1e-30), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)];
        for (mut system, kind) in both(2, &A).into_iter().zip([Full, Repivot]) {
            system.factor(|| false).unwrap();
            set(&mut system, &stale);
            assert_eq!(system.factor(|| false), Ok(kind));
            let x = solve(&system, &[1.0, 2.0]);
            let y = [1e-30 * x[0] + x[1], x[0] + x[1]];
            assert!((y[0] - 1.0).abs() < 1e-10 && (y[1] - 2.0).abs() < 1e-10);
        }
    }

    #[test]
    fn a_truly_singular_matrix_errors_and_drops_the_factors() {
        let identity = [(0, 0, 1.0), (0, 1, 0.0), (1, 0, 0.0), (1, 1, 1.0)];
        let singular = [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)];
        for mut system in both(2, &identity) {
            system.factor(|| false).unwrap();
            set(&mut system, &singular);
            assert!(matches!(
                system.factor(|| false),
                Err(NumericsError::SingularMatrix { .. })
            ));
            let mut x = Vec::new();
            assert!(system.solve_into(&[1.0, 1.0], &mut x).is_err());
            let mut slot = None;
            assert!(!system.export(&mut slot) && slot.is_none());

            // The next good matrix factors afresh.
            set(&mut system, &identity);
            assert_eq!(system.factor(|| false), Ok(Full));
            assert_eq!(solve(&system, &[1.0, 2.0]), [1.0, 2.0]);
        }
    }
}
