//! Real-coded genetic algorithm, configured as in the paper: population of
//! 100 chromosomes, 7 genes, crossover rate 0.8, mutation rate 0.02,
//! tournament selection with elitism.
//!
//! Each generation's offspring are generated serially (so the RNG stream is
//! independent of the worker count) and then evaluated as one batch through
//! the [`ParallelEvaluator`]; elites carry their fitness over and are never
//! re-evaluated, so [`OptimisationResult::evaluations`] counts exactly the
//! objective calls made.

use crate::evaluate::{best_index, is_better, nan_last_desc};
use crate::{Bounds, Objective, OptimisationResult, Optimizer, ParallelEvaluator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the genetic algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaOptions {
    /// Number of chromosomes in the population (the paper uses 100).
    pub population_size: usize,
    /// Probability that a pair of parents undergoes crossover (paper: 0.8).
    pub crossover_rate: f64,
    /// Per-gene mutation probability (paper: 0.02).
    pub mutation_rate: f64,
    /// Number of chromosomes competing in each tournament selection.
    pub tournament_size: usize,
    /// Number of top chromosomes copied unchanged into the next generation.
    pub elite_count: usize,
    /// Standard deviation of a mutation, as a fraction of each gene's range.
    pub mutation_scale: f64,
}

impl Default for GaOptions {
    fn default() -> Self {
        GaOptions {
            population_size: 100,
            crossover_rate: 0.8,
            mutation_rate: 0.02,
            tournament_size: 3,
            elite_count: 2,
            mutation_scale: 0.1,
        }
    }
}

impl GaOptions {
    /// The exact settings quoted by the paper (§5): 100 chromosomes,
    /// crossover 0.8, mutation 0.02.
    pub fn paper() -> Self {
        Self::default()
    }
}

/// Real-coded genetic algorithm with tournament selection, blend crossover
/// and Gaussian mutation.
#[derive(Debug, Clone, Default)]
pub struct GeneticAlgorithm {
    options: GaOptions,
}

impl GeneticAlgorithm {
    /// Creates a GA with the given options.
    pub fn new(options: GaOptions) -> Self {
        GeneticAlgorithm { options }
    }

    /// The GA options.
    pub fn options(&self) -> &GaOptions {
        &self.options
    }
}

impl Optimizer for GeneticAlgorithm {
    fn optimise_with(
        &self,
        evaluator: &ParallelEvaluator,
        objective: &(dyn Objective + Sync),
        bounds: &Bounds,
        iterations: usize,
        seed: u64,
    ) -> OptimisationResult {
        let opts = &self.options;
        assert!(
            opts.population_size >= 2,
            "population must hold at least two chromosomes"
        );
        assert!(
            opts.elite_count < opts.population_size,
            "elite count must be smaller than the population"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let dimension = bounds.dimension();
        let widths = bounds.widths();

        // Initial population: uniform random inside the bounds, evaluated as
        // one batch.
        let mut population: Vec<Vec<f64>> = (0..opts.population_size)
            .map(|_| bounds.sample(&mut rng))
            .collect();
        let mut fitness = evaluator.evaluate(objective, &population);
        let mut evaluations = opts.population_size;

        // Track the best-ever individual explicitly (not via the final
        // population): with `elite_count: 0` breeding may lose the best
        // chromosome, and the reported genes must always pair with the
        // reported fitness.
        let mut history = Vec::with_capacity(iterations + 1);
        let mut best = best_index(&fitness);
        let mut best_genes = population[best].clone();
        let mut best_fitness = fitness[best];
        history.push(best_fitness);

        for _generation in 0..iterations {
            // Rank for elitism (NaN fitness sorts last, so a failed
            // simulation can never be copied forward as an elite).
            let mut order: Vec<usize> = (0..population.len()).collect();
            order.sort_by(|&a, &b| nan_last_desc(fitness[a], fitness[b]));

            let mut next_population: Vec<Vec<f64>> = order
                .iter()
                .take(opts.elite_count)
                .map(|&i| population[i].clone())
                .collect();
            let mut next_fitness: Vec<f64> = order
                .iter()
                .take(opts.elite_count)
                .map(|&i| fitness[i])
                .collect();

            // Breed the full offspring batch serially (the RNG stream must
            // not depend on the evaluator's worker count) ...
            let mut offspring: Vec<Vec<f64>> =
                Vec::with_capacity(opts.population_size - next_population.len());
            while next_population.len() + offspring.len() < opts.population_size {
                let parent_a = tournament(&fitness, opts.tournament_size, &mut rng);
                let parent_b = tournament(&fitness, opts.tournament_size, &mut rng);
                let mut child = if rng.gen_bool(opts.crossover_rate) {
                    blend_crossover(&population[parent_a], &population[parent_b], &mut rng)
                } else {
                    population[parent_a].clone()
                };
                for (g, width) in child.iter_mut().zip(widths.iter()) {
                    if rng.gen_bool(opts.mutation_rate) {
                        *g += gaussian(&mut rng) * opts.mutation_scale * width;
                    }
                }
                bounds.clamp(&mut child);
                offspring.push(child);
            }
            // ... then simulate the whole generation in parallel.
            next_fitness.extend(evaluator.evaluate(objective, &offspring));
            evaluations += offspring.len();
            next_population.append(&mut offspring);

            debug_assert_eq!(next_population.len(), opts.population_size);
            debug_assert!(next_population.iter().all(|c| c.len() == dimension));
            population = next_population;
            fitness = next_fitness;
            best = best_index(&fitness);
            if is_better(fitness[best], best_fitness) {
                best_fitness = fitness[best];
                best_genes = population[best].clone();
            }
            history.push(best_fitness);
        }

        OptimisationResult {
            best_genes,
            best_fitness,
            history,
            evaluations,
        }
    }
}

fn tournament<R: Rng>(fitness: &[f64], size: usize, rng: &mut R) -> usize {
    let mut best = rng.gen_range(0..fitness.len());
    for _ in 1..size.max(1) {
        let challenger = rng.gen_range(0..fitness.len());
        if is_better(fitness[challenger], fitness[best]) {
            best = challenger;
        }
    }
    best
}

fn blend_crossover<R: Rng>(a: &[f64], b: &[f64], rng: &mut R) -> Vec<f64> {
    a.iter()
        .zip(b.iter())
        .map(|(&ga, &gb)| {
            let alpha: f64 = rng.gen_range(-0.25..1.25);
            ga + alpha * (gb - ga)
        })
        .collect()
}

/// Standard normal sample via the Box–Muller transform (avoids pulling the
/// `rand_distr` crate in for one distribution).
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere(genes: &[f64]) -> f64 {
        -genes.iter().map(|g| g * g).sum::<f64>()
    }

    fn rastrigin(genes: &[f64]) -> f64 {
        let n = genes.len() as f64;
        -(10.0 * n
            + genes
                .iter()
                .map(|g| g * g - 10.0 * (2.0 * std::f64::consts::PI * g).cos())
                .sum::<f64>())
    }

    #[test]
    fn paper_options_match_the_published_settings() {
        let opts = GaOptions::paper();
        assert_eq!(opts.population_size, 100);
        assert_eq!(opts.crossover_rate, 0.8);
        assert_eq!(opts.mutation_rate, 0.02);
        assert_eq!(GeneticAlgorithm::default().options(), &opts);
    }

    #[test]
    fn ga_optimises_the_sphere_function() {
        let ga = GeneticAlgorithm::new(GaOptions {
            population_size: 50,
            ..GaOptions::default()
        });
        let bounds = Bounds::uniform(4, -10.0, 10.0);
        let result = ga.optimise(&sphere, &bounds, 80, 1);
        assert!(
            result.best_fitness > -0.5,
            "fitness {}",
            result.best_fitness
        );
        assert!(result.best_genes.iter().all(|g| g.abs() < 1.0));
        assert_eq!(result.evaluations, 50 + 80 * 48);
    }

    #[test]
    fn ga_handles_multimodal_objectives() {
        let ga = GeneticAlgorithm::new(GaOptions {
            population_size: 60,
            mutation_rate: 0.1,
            ..GaOptions::default()
        });
        let bounds = Bounds::uniform(2, -5.12, 5.12);
        let result = ga.optimise(&rastrigin, &bounds, 100, 3);
        // Not necessarily the global optimum, but well inside the good basin.
        assert!(
            result.best_fitness > -5.0,
            "fitness {}",
            result.best_fitness
        );
    }

    #[test]
    fn history_is_monotone_non_decreasing() {
        let ga = GeneticAlgorithm::new(GaOptions {
            population_size: 20,
            ..GaOptions::default()
        });
        let bounds = Bounds::uniform(3, -2.0, 2.0);
        let result = ga.optimise(&sphere, &bounds, 30, 9);
        for w in result.history.windows(2) {
            assert!(w[1] >= w[0], "best-so-far history must never regress");
        }
        assert_eq!(result.history.len(), 31);
    }

    #[test]
    fn runs_are_reproducible_for_a_seed() {
        let ga = GeneticAlgorithm::default();
        let bounds = Bounds::uniform(3, -1.0, 1.0);
        let a = ga.optimise(&sphere, &bounds, 10, 1234);
        let b = ga.optimise(&sphere, &bounds, 10, 1234);
        assert_eq!(a.best_genes, b.best_genes);
        assert_eq!(a.history, b.history);
        let c = ga.optimise(&sphere, &bounds, 10, 4321);
        assert_ne!(a.best_genes, c.best_genes);
    }

    #[test]
    fn solutions_respect_bounds() {
        let ga = GeneticAlgorithm::new(GaOptions {
            population_size: 30,
            mutation_rate: 0.5,
            mutation_scale: 1.0,
            ..GaOptions::default()
        });
        let bounds = Bounds::new(&[(0.5, 1.0), (-3.0, -2.0)]);
        // Objective pushes towards the boundary to stress the clamping.
        let result = ga.optimise(&|g: &[f64]| g[0] - g[1], &bounds, 25, 5);
        assert!(result.best_genes[0] >= 0.5 && result.best_genes[0] <= 1.0);
        assert!(result.best_genes[1] >= -3.0 && result.best_genes[1] <= -2.0);
        // The optimum of g0 - g1 in the box is (1.0, -3.0).
        assert!(result.best_fitness > 3.8);
    }

    #[test]
    fn a_nan_fitness_does_not_panic_the_ranking() {
        // The north-east quadrant fails to "converge"; the optimum at the
        // origin sits on its boundary, so NaN handling is exercised in every
        // generation.
        let spiky = |g: &[f64]| {
            if g[0] > 0.1 && g[1] > 0.1 {
                f64::NAN
            } else {
                sphere(g)
            }
        };
        let ga = GeneticAlgorithm::new(GaOptions {
            population_size: 24,
            ..GaOptions::default()
        });
        let bounds = Bounds::uniform(2, -2.0, 2.0);
        let result = ga.optimise(&spiky, &bounds, 40, 11);
        assert!(
            result.best_fitness > -0.5 && !result.best_fitness.is_nan(),
            "GA must rank around NaN candidates, got {}",
            result.best_fitness
        );
        assert!(result.history.iter().skip(1).all(|h| !h.is_nan()));
    }

    #[test]
    fn without_elitism_best_genes_still_pair_with_best_fitness() {
        // With no elites the best chromosome can be bred away; the result
        // must still report the best-ever individual, consistently.
        let ga = GeneticAlgorithm::new(GaOptions {
            elite_count: 0,
            population_size: 12,
            mutation_rate: 0.3,
            ..GaOptions::default()
        });
        let bounds = Bounds::uniform(3, -3.0, 3.0);
        let result = ga.optimise(&sphere, &bounds, 25, 13);
        assert_eq!(
            sphere(&result.best_genes),
            result.best_fitness,
            "reported genes must reproduce the reported fitness"
        );
        assert_eq!(result.best_fitness, *result.history.last().unwrap());
    }
}
