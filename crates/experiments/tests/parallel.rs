//! Parallel-evaluation determinism on the *real* harvester objective: the
//! acceptance bar for the batch engine is that `Parallelism::Threads(n)`
//! reproduces `Parallelism::Serial` bit for bit on the coupled-simulation
//! fixture, not just on analytic toys. (The tests spawn their own evaluator
//! workers, so they pass under any `--test-threads` setting.)

use harvester_core::system::HarvesterConfig;
use harvester_experiments::{
    paper_bounds, run_optimisation, FitnessBudget, HarvesterObjective, OptimisationOptions,
};
use harvester_optim::{
    GaOptions, GeneticAlgorithm, OptimisationResult, Optimizer, ParallelEvaluator, Parallelism,
};

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_bit_identical(a: &OptimisationResult, b: &OptimisationResult, context: &str) {
    assert_eq!(bits(&a.best_genes), bits(&b.best_genes), "{context}");
    assert_eq!(
        a.best_fitness.to_bits(),
        b.best_fitness.to_bits(),
        "{context}"
    );
    assert_eq!(bits(&a.history), bits(&b.history), "{context}");
    assert_eq!(a.evaluations, b.evaluations, "{context}");
}

/// A small GA on the harvester fixture, sharded over `parallelism` workers.
fn ga_run(parallelism: Parallelism) -> OptimisationResult {
    let objective =
        HarvesterObjective::new(HarvesterConfig::unoptimised(), FitnessBudget::coarse());
    let ga = GeneticAlgorithm::new(GaOptions {
        population_size: 8,
        ..GaOptions::paper()
    });
    ga.optimise_with(
        &ParallelEvaluator::new(parallelism),
        &objective,
        &paper_bounds(),
        2,
        2008,
    )
}

#[test]
fn ga_on_the_harvester_fixture_is_bit_identical_across_worker_counts() {
    let serial = ga_run(Parallelism::Serial);
    assert!(
        serial.best_fitness.is_finite() && serial.best_fitness > 0.0,
        "fixture must charge, got {}",
        serial.best_fitness
    );
    let two = ga_run(Parallelism::Threads(2));
    assert_bit_identical(&serial, &two, "Threads(2) vs Serial");
    let four = ga_run(Parallelism::Threads(4));
    assert_bit_identical(&serial, &four, "Threads(4) vs Serial");
}

#[test]
fn run_optimisation_honours_the_parallelism_option() {
    let base = HarvesterConfig::unoptimised();
    let mut options = OptimisationOptions::coarse();
    options.generations = 2;
    options.ga.population_size = 6;
    options.parallelism = Parallelism::Serial;
    let serial = run_optimisation(&base, &options);
    options.parallelism = Parallelism::Threads(3);
    let threads = run_optimisation(&base, &options);
    assert_bit_identical(
        &serial.ga_result,
        &threads.ga_result,
        "run_optimisation Threads(3) vs Serial",
    );
    assert_eq!(
        serial.optimised_fitness.to_bits(),
        threads.optimised_fitness.to_bits()
    );
}
