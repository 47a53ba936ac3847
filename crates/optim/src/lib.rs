//! Optimisation for the integrated energy-harvester optimisation loop (the
//! paper's Fig. 8).
//!
//! The paper embeds a genetic algorithm in the same testbench as the
//! harvester model and lets it tune seven design parameters (three from the
//! micro-generator coil, four from the voltage booster) to maximise the
//! super-capacitor charging rate. This crate provides that GA with the
//! paper's settings (population 100, crossover 0.8, mutation 0.02). The
//! paper adds that "other optimisation algorithms may also be applied based
//! on the proposed integrated model": such an algorithm plugs in through the
//! [`Optimizer`] trait.
//!
//! The objective is abstract ([`Objective`]); the experiment crate provides
//! the concrete harvester-simulation objective.
//!
//! # Parallel batch evaluation
//!
//! Each GA generation evaluates its candidates through a
//! [`ParallelEvaluator`] (see [`evaluate`]): the generation is sharded
//! across [`Parallelism`] worker threads, results come back in candidate
//! order, and `Threads(n)` runs are **bit-identical** to `Serial` runs for
//! the same seed — parallelism trades wall-clock time only, never
//! reproducibility. A NaN objective value (e.g. a simulation that failed to
//! converge) ranks below every real fitness ([`nan_last_desc`]) instead of
//! panicking the run, and bounds may be degenerate (`lo == hi`) to freeze a
//! design parameter.
//!
//! # Example
//!
//! ```
//! use harvester_optim::{Bounds, GaOptions, GeneticAlgorithm, Objective, Optimizer};
//! use harvester_optim::{ParallelEvaluator, Parallelism};
//!
//! /// Maximise the negative sphere function (optimum at the origin).
//! struct Sphere;
//! impl Objective for Sphere {
//!     fn evaluate(&self, genes: &[f64]) -> f64 {
//!         -genes.iter().map(|g| g * g).sum::<f64>()
//!     }
//! }
//!
//! let bounds = Bounds::uniform(3, -5.0, 5.0);
//! let ga = GeneticAlgorithm::new(GaOptions { population_size: 40, ..GaOptions::default() });
//! let result = ga.optimise(&Sphere, &bounds, 60, 42);
//! assert!(result.best_fitness > -0.5);
//!
//! // The same run sharded over two worker threads is bit-identical.
//! let two = ga.optimise_with(
//!     &ParallelEvaluator::new(Parallelism::Threads(2)),
//!     &Sphere,
//!     &bounds,
//!     60,
//!     42,
//! );
//! assert_eq!(result.best_genes, two.best_genes);
//! assert_eq!(result.history, two.history);
//! ```
//!
//! The evaluator can also score a batch directly, outside any optimiser:
//!
//! ```
//! use harvester_optim::{ParallelEvaluator, Parallelism};
//!
//! let sphere = |genes: &[f64]| -genes.iter().map(|g| g * g).sum::<f64>();
//! let grid: Vec<Vec<f64>> = (0..10).map(|k| vec![k as f64 / 10.0]).collect();
//! let evaluator = ParallelEvaluator::new(Parallelism::Threads(2));
//! let fitness = evaluator.evaluate(&sphere, &grid);
//! assert_eq!(fitness.len(), grid.len());
//! assert_eq!(fitness[0], 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod evaluate;
pub mod ga;

pub use evaluate::{best_index, is_better, nan_last_desc, ParallelEvaluator, Parallelism};
pub use ga::{GaOptions, GeneticAlgorithm};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// A maximisation objective: higher return values are better designs.
///
/// Implementations are expected to be deterministic for a given gene vector;
/// the harvester objective satisfies this because the underlying transient
/// simulation is deterministic. A NaN return value is interpreted as a
/// failed evaluation and ranked below every real fitness (see
/// [`evaluate::nan_last_desc`]).
pub trait Objective {
    /// Evaluates the fitness of a candidate gene vector.
    fn evaluate(&self, genes: &[f64]) -> f64;
}

impl<F> Objective for F
where
    F: Fn(&[f64]) -> f64,
{
    fn evaluate(&self, genes: &[f64]) -> f64 {
        self(genes)
    }
}

/// Box constraints on the gene vector.
///
/// A gene's interval may be degenerate (`lo == hi`), which freezes that
/// design parameter: sampling always returns `lo`, and the GA keeps the gene
/// pinned there.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl Bounds {
    /// Creates bounds from per-gene `(lower, upper)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty or any lower bound exceeds its upper
    /// bound (`lo == hi` is allowed and freezes the gene).
    pub fn new(limits: &[(f64, f64)]) -> Self {
        assert!(!limits.is_empty(), "bounds must cover at least one gene");
        for (i, (lo, hi)) in limits.iter().enumerate() {
            assert!(
                lo <= hi,
                "gene {i}: lower bound {lo} must not exceed upper bound {hi}"
            );
        }
        Bounds {
            lower: limits.iter().map(|l| l.0).collect(),
            upper: limits.iter().map(|l| l.1).collect(),
        }
    }

    /// Creates identical bounds for `dimension` genes.
    ///
    /// # Panics
    ///
    /// Panics if `dimension` is zero or `lower > upper`.
    pub fn uniform(dimension: usize, lower: f64, upper: f64) -> Self {
        assert!(dimension > 0, "dimension must be positive");
        Self::new(&vec![(lower, upper); dimension])
    }

    /// Number of genes.
    pub fn dimension(&self) -> usize {
        self.lower.len()
    }

    /// Lower bounds.
    pub fn lower(&self) -> &[f64] {
        &self.lower
    }

    /// Upper bounds.
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }

    /// Clamps a gene vector into the box.
    pub fn clamp(&self, genes: &mut [f64]) {
        for (g, (lo, hi)) in genes
            .iter_mut()
            .zip(self.lower.iter().zip(self.upper.iter()))
        {
            *g = g.clamp(*lo, *hi);
        }
    }

    /// Draws a uniformly random point inside the box (degenerate genes are
    /// pinned to their frozen value and consume no randomness).
    pub fn sample<R: rand::Rng>(&self, rng: &mut R) -> Vec<f64> {
        self.lower
            .iter()
            .zip(self.upper.iter())
            .map(|(lo, hi)| {
                if hi > lo {
                    rng.gen_range(*lo..*hi)
                } else {
                    *lo
                }
            })
            .collect()
    }

    /// `count` uniform draws in a row from a `StdRng` seeded with `seed`, as
    /// repeated [`Bounds::sample`] calls on it give: a fixed set of designs
    /// that tests and benches can share without depending on `rand`.
    pub fn draws(&self, count: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count).map(|_| self.sample(&mut rng)).collect()
    }

    /// Width of each gene's interval (zero for frozen genes).
    pub fn widths(&self) -> Vec<f64> {
        self.lower
            .iter()
            .zip(self.upper.iter())
            .map(|(lo, hi)| hi - lo)
            .collect()
    }
}

/// Progress of an optimisation run: the best fitness after each generation,
/// plus the final best design.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimisationResult {
    /// Best gene vector found.
    pub best_genes: Vec<f64>,
    /// Fitness of the best gene vector.
    pub best_fitness: f64,
    /// Best fitness after each generation (monotone non-decreasing under the
    /// NaN-last ordering; entry 0 is the initial population, so the length
    /// is always `iterations + 1`).
    pub history: Vec<f64>,
    /// Total number of objective evaluations performed (exactly the number
    /// of times the objective function was called).
    pub evaluations: usize,
}

/// An optimisation algorithm driving an [`Objective`] inside [`Bounds`].
/// [`GeneticAlgorithm`] is the one implementor.
pub trait Optimizer {
    /// Runs the optimiser, evaluating populations through `evaluator`.
    ///
    /// For a deterministic objective the result is bit-identical for any
    /// [`Parallelism`] choice — candidate generation consumes the RNG stream
    /// on the calling thread only, and batch results keep candidate order.
    fn optimise_with(
        &self,
        evaluator: &ParallelEvaluator,
        objective: &(dyn Objective + Sync),
        bounds: &Bounds,
        iterations: usize,
        seed: u64,
    ) -> OptimisationResult;

    /// Runs the optimiser for `iterations` generations with the given RNG
    /// `seed` and returns the best design found, evaluating serially on the
    /// calling thread.
    ///
    /// Parallelism is a deliberate opt-in via [`Optimizer::optimise_with`]
    /// (or, at the experiment level, `OptimisationOptions::parallelism`): a
    /// serial default keeps cheap objectives, nested fan-outs (e.g. seed
    /// sweeps that already occupy every core) and historical benchmark
    /// baselines free of surprise worker threads — and since `Threads(n)` is
    /// bit-identical to `Serial` anyway, opting in changes nothing but the
    /// wall-clock time.
    fn optimise(
        &self,
        objective: &(dyn Objective + Sync),
        bounds: &Bounds,
        iterations: usize,
        seed: u64,
    ) -> OptimisationResult {
        self.optimise_with(
            &ParallelEvaluator::serial(),
            objective,
            bounds,
            iterations,
            seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_accessors_and_clamping() {
        let b = Bounds::new(&[(0.0, 1.0), (-2.0, 2.0)]);
        assert_eq!(b.dimension(), 2);
        assert_eq!(b.lower(), &[0.0, -2.0]);
        assert_eq!(b.upper(), &[1.0, 2.0]);
        assert_eq!(b.widths(), vec![1.0, 4.0]);
        let mut genes = vec![-1.0, 5.0];
        b.clamp(&mut genes);
        assert_eq!(genes, vec![0.0, 2.0]);
    }

    #[test]
    fn bounds_sampling_stays_inside() {
        let b = Bounds::uniform(4, -1.0, 3.0);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let s = b.sample(&mut rng);
            assert_eq!(s.len(), 4);
            assert!(s.iter().all(|&g| (-1.0..3.0).contains(&g)));
        }
        let mut rng = StdRng::seed_from_u64(7);
        let sampled: Vec<Vec<f64>> = (0..3).map(|_| b.sample(&mut rng)).collect();
        assert_eq!(b.draws(3, 7), sampled);
    }

    #[test]
    fn degenerate_bounds_freeze_a_gene() {
        let b = Bounds::new(&[(0.0, 1.0), (0.7, 0.7)]);
        assert_eq!(b.widths()[1], 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let s = b.sample(&mut rng);
            assert_eq!(s[1], 0.7, "frozen gene must stay at its pinned value");
            assert!((0.0..1.0).contains(&s[0]));
        }
        let mut genes = vec![0.5, 3.0];
        b.clamp(&mut genes);
        assert_eq!(genes[1], 0.7);
    }

    #[test]
    #[should_panic(expected = "lower bound")]
    fn inverted_bounds_panic() {
        let _ = Bounds::new(&[(1.0, 0.0)]);
    }

    #[test]
    fn closures_are_objectives() {
        let f = |genes: &[f64]| -genes[0].abs();
        assert_eq!(f.evaluate(&[2.0]), -2.0);
    }
}
