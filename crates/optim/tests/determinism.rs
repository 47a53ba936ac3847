//! Determinism and hardening suite for the GA on the batch-evaluation
//! engine.
//!
//! * `Parallelism::Threads(n)` must return **bit-identical**
//!   `OptimisationResult`s to `Parallelism::Serial` for a fixed seed — the
//!   worker count trades wall-clock time only, never reproducibility. (The
//!   suite spawns its own evaluator workers, so it passes under any
//!   `--test-threads` setting of the test harness.)
//! * NaN objective values must rank as worst-possible fitness everywhere
//!   instead of panicking a sort or poisoning a best.
//! * Degenerate bounds (`lo == hi`, a frozen design parameter) must be
//!   accepted, with the gene kept pinned.
//! * `OptimisationResult::evaluations` must equal the number of objective
//!   calls actually made, and `history` must have `iterations + 1` entries.

use harvester_optim::{
    Bounds, GaOptions, GeneticAlgorithm, Objective, OptimisationResult, Optimizer,
    ParallelEvaluator, Parallelism,
};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// The paper's GA at a population small enough for quick tests.
fn ga() -> GeneticAlgorithm {
    GeneticAlgorithm::new(GaOptions {
        population_size: 16,
        ..GaOptions::paper()
    })
}

/// Bit-level equality of two optimisation results (`==` on f64 would treat
/// NaN histories as unequal even when they are bitwise identical).
fn assert_bit_identical(a: &OptimisationResult, b: &OptimisationResult, context: &str) {
    assert_eq!(
        a.best_genes.iter().map(|g| g.to_bits()).collect::<Vec<_>>(),
        b.best_genes.iter().map(|g| g.to_bits()).collect::<Vec<_>>(),
        "best_genes differ: {context}"
    );
    assert_eq!(
        a.best_fitness.to_bits(),
        b.best_fitness.to_bits(),
        "best_fitness differs: {context}"
    );
    assert_eq!(
        a.history.iter().map(|h| h.to_bits()).collect::<Vec<_>>(),
        b.history.iter().map(|h| h.to_bits()).collect::<Vec<_>>(),
        "history differs: {context}"
    );
    assert_eq!(
        a.evaluations, b.evaluations,
        "evaluations differ: {context}"
    );
}

#[test]
fn threads_are_bit_identical_to_serial_on_sphere_and_rastrigin() {
    let bounds = Bounds::uniform(4, -5.12, 5.12);
    let objectives: [(&str, &(dyn Objective + Sync)); 2] =
        [("sphere", &sphere), ("rastrigin", &rastrigin)];
    let ga = ga();
    for (name, objective) in objectives {
        let serial = ga.optimise_with(&ParallelEvaluator::serial(), objective, &bounds, 25, 2008);
        for workers in [2, 3, 7] {
            let parallel = ga.optimise_with(
                &ParallelEvaluator::new(Parallelism::Threads(workers)),
                objective,
                &bounds,
                25,
                2008,
            );
            assert_bit_identical(
                &serial,
                &parallel,
                &format!("{name} with {workers} workers"),
            );
        }
        let auto = ga.optimise_with(
            &ParallelEvaluator::new(Parallelism::Auto),
            objective,
            &bounds,
            25,
            2008,
        );
        assert_bit_identical(&serial, &auto, &format!("{name} with Auto"));
        // The plain `optimise` entry point is the serial path.
        let default_run = ga.optimise(objective, &bounds, 25, 2008);
        assert_bit_identical(&serial, &default_run, &format!("{name} via optimise()"));
    }
}

#[test]
fn nan_objectives_are_survivable_and_deterministic() {
    // Half the search space "fails to converge"; the optimum sits in the
    // good half, so the GA must rank around the failures.
    let spiky = |g: &[f64]| {
        if g[0] > 0.3 {
            f64::NAN
        } else {
            sphere(g)
        }
    };
    let bounds = Bounds::uniform(3, -2.0, 2.0);
    let ga = ga();
    let serial = ga.optimise_with(&ParallelEvaluator::serial(), &spiky, &bounds, 20, 99);
    assert!(
        !serial.best_fitness.is_nan(),
        "a NaN candidate must never be reported best"
    );
    let parallel = ga.optimise_with(
        &ParallelEvaluator::new(Parallelism::Threads(3)),
        &spiky,
        &bounds,
        20,
        99,
    );
    assert_bit_identical(&serial, &parallel, "NaN objective with 3 workers");
}

#[test]
fn an_all_nan_objective_terminates_without_panicking() {
    let always_nan = |_: &[f64]| f64::NAN;
    let bounds = Bounds::uniform(2, 0.0, 1.0);
    let result = ga().optimise_with(
        &ParallelEvaluator::new(Parallelism::Threads(2)),
        &always_nan,
        &bounds,
        5,
        1,
    );
    assert!(
        result.best_fitness.is_nan(),
        "with no usable fitness the best can only be NaN"
    );
    assert_eq!(result.history.len(), 6);
}

#[test]
fn frozen_parameters_stay_pinned() {
    // Gene 1 is frozen at 0.25 (degenerate bounds); sampling, crossover and
    // mutation must all keep it there.
    let bounds = Bounds::new(&[(-1.0, 1.0), (0.25, 0.25), (-1.0, 1.0)]);
    let ga = ga();
    let result = ga.optimise(&sphere, &bounds, 15, 7);
    assert_eq!(result.best_genes[1], 0.25, "frozen gene must stay pinned");
    assert!(result.best_genes[0].abs() <= 1.0);
    let threads = ga.optimise_with(
        &ParallelEvaluator::new(Parallelism::Threads(4)),
        &sphere,
        &bounds,
        15,
        7,
    );
    assert_bit_identical(&result, &threads, "frozen gene with 4 workers");
}

/// Counts every objective call (atomically, because calls may come from
/// evaluator worker threads).
struct Counting {
    calls: AtomicUsize,
}

impl Counting {
    fn new() -> Self {
        Counting {
            calls: AtomicUsize::new(0),
        }
    }

    fn calls(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }
}

impl Objective for Counting {
    fn evaluate(&self, genes: &[f64]) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        sphere(genes)
    }
}

#[test]
fn reported_evaluations_match_actual_objective_calls() {
    let bounds = Bounds::uniform(3, -1.0, 1.0);
    let iterations = 12;
    for parallelism in [Parallelism::Serial, Parallelism::Threads(3)] {
        let objective = Counting::new();
        let result = ga().optimise_with(
            &ParallelEvaluator::new(parallelism),
            &objective,
            &bounds,
            iterations,
            42,
        );
        assert_eq!(
            result.evaluations,
            objective.calls(),
            "under {parallelism:?}: reported evaluations must equal objective calls"
        );
        assert_eq!(
            result.history.len(),
            iterations + 1,
            "history holds the initial entry plus one per generation"
        );
    }
}

#[test]
fn expected_ga_evaluation_budget() {
    // The exact budget formula the experiment crate and the end-to-end
    // benchmark rely on.
    let bounds = Bounds::uniform(3, -1.0, 1.0);
    let ga = GeneticAlgorithm::new(GaOptions {
        population_size: 16,
        elite_count: 2,
        ..GaOptions::paper()
    });
    assert_eq!(
        ga.optimise(&sphere, &bounds, 10, 1).evaluations,
        16 + 10 * 14,
        "GA evaluates the initial population plus the non-elite offspring"
    );
}
