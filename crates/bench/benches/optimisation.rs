//! Benchmarks of the integrated optimisation loop (the paper's Fig. 8 and
//! Table 2), and of the parallel batch-evaluation engine that loop runs on.
//! The paper's §5 CPU-time split is not timed here: `run_cpu_split` (printed
//! by `examples/optimise_harvester.rs`) takes it from inside one GA run.
//!
//! * `table2_ga/*` — one GA generation with the coupled-simulation objective
//!   (the unit of work whose cost the paper analyses), at two population
//!   sizes.
//! * `ga_generation_heavy_sphere/*`, `ga_generation_harvester/*` — one GA
//!   generation at the paper's population of 100, sharded over 1/2/4 worker
//!   threads, on a synthetic compute-heavy sphere objective (pure CPU, no
//!   allocation — isolates the evaluator's sharding overhead) and on the
//!   real harvester-fixture objective (coupled transient simulations).
//! * `batch_evaluation_harvester/*` — the raw evaluator fan-out of one
//!   batch of harvester simulations, without any optimiser around it.
//!
//! The sharded workloads are embarrassingly parallel, so the expected
//! wall-clock scaling is near-linear in the worker count up to the machine's
//! core count; `Threads(n)` results are bit-identical to `Serial` (asserted
//! by the determinism test suites), so the speedup is free of any accuracy
//! trade. An explicit serial-vs-4-workers speedup summary is printed at the
//! end (≥ 2× at 4 workers on a ≥ 4-core machine; on fewer cores the measured
//! ratio degrades towards 1×).

use criterion::{criterion_group, criterion_main, Criterion};
use harvester_bench::bench_fitness;
use harvester_core::system::HarvesterConfig;
use harvester_experiments::{encode, paper_bounds, HarvesterObjective};
use harvester_optim::{
    Bounds, GaOptions, GeneticAlgorithm, Objective, Optimizer, ParallelEvaluator, Parallelism,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn configure(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(5));
}

fn objective() -> HarvesterObjective {
    HarvesterObjective::new(HarvesterConfig::unoptimised(), bench_fitness())
}

fn table2_ga_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_ga");
    configure(&mut group);
    let objective = objective();
    let bounds = paper_bounds();
    for population in [8usize, 16] {
        group.bench_function(format!("one_generation_pop{population}"), |b| {
            let ga = GeneticAlgorithm::new(GaOptions {
                population_size: population,
                ..GaOptions::paper()
            });
            b.iter(|| black_box(ga.optimise(&objective, &bounds, 1, 7).best_fitness))
        });
    }
    group.finish();
}

/// A sphere objective with an artificial per-candidate compute load (~tens
/// of microseconds), standing in for an expensive simulation while staying
/// allocation-free and perfectly deterministic.
struct HeavySphere {
    inner_iterations: usize,
}

impl Objective for HeavySphere {
    fn evaluate(&self, genes: &[f64]) -> f64 {
        let mut acc = 0.0f64;
        for k in 0..self.inner_iterations {
            for g in genes {
                acc += (g + k as f64 * 1e-6).sin().mul_add(1e-3, -acc * 1e-9);
            }
        }
        -genes.iter().map(|g| g * g).sum::<f64>() + acc * 1e-12
    }
}

/// The paper's GA at its population of 100.
fn paper_ga() -> GeneticAlgorithm {
    GeneticAlgorithm::new(GaOptions::paper())
}

fn parallelism_variants() -> [(&'static str, Parallelism); 3] {
    [
        ("serial", Parallelism::Serial),
        ("threads2", Parallelism::Threads(2)),
        ("threads4", Parallelism::Threads(4)),
    ]
}

fn ga_generation_heavy_sphere(c: &mut Criterion) {
    let mut group = c.benchmark_group("ga_generation_heavy_sphere");
    configure(&mut group);
    let objective = HeavySphere {
        inner_iterations: 2000,
    };
    let bounds = Bounds::uniform(7, -5.0, 5.0);
    let ga = paper_ga();
    for (label, parallelism) in parallelism_variants() {
        let evaluator = ParallelEvaluator::new(parallelism);
        group.bench_function(format!("pop100_{label}"), |b| {
            b.iter(|| {
                black_box(
                    ga.optimise_with(&evaluator, &objective, &bounds, 1, 7)
                        .best_fitness,
                )
            })
        });
    }
    group.finish();
}

fn ga_generation_harvester(c: &mut Criterion) {
    let mut group = c.benchmark_group("ga_generation_harvester");
    configure(&mut group);
    let objective = objective();
    let bounds = paper_bounds();
    let ga = paper_ga();
    for (label, parallelism) in parallelism_variants() {
        let evaluator = ParallelEvaluator::new(parallelism);
        group.bench_function(format!("pop100_{label}"), |b| {
            b.iter(|| {
                black_box(
                    ga.optimise_with(&evaluator, &objective, &bounds, 1, 7)
                        .best_fitness,
                )
            })
        });
    }
    group.finish();
}

/// The raw evaluator fan-out without any optimiser around it: one
/// population-sized batch of harvester simulations.
fn batch_evaluation_harvester(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_evaluation_harvester");
    configure(&mut group);
    let objective = objective();
    let template = encode(&HarvesterConfig::unoptimised());
    let batch: Vec<Vec<f64>> = (0..32)
        .map(|k| {
            let mut genes = template.clone();
            genes[1] += (k % 7) as f64 * 50.0;
            genes
        })
        .collect();
    for (label, parallelism) in parallelism_variants() {
        let evaluator = ParallelEvaluator::new(parallelism);
        group.bench_function(format!("batch32_{label}"), |b| {
            b.iter(|| black_box(evaluator.evaluate(&objective, &batch).len()))
        });
    }
    group.finish();
}

/// Prints the explicit serial-vs-parallel speedup of one GA generation
/// (population 100) on the harvester fixture.
fn speedup_summary(_c: &mut Criterion) {
    let objective = objective();
    let bounds = paper_bounds();
    let ga = paper_ga();
    let time = |parallelism: Parallelism| -> (f64, f64) {
        let evaluator = ParallelEvaluator::new(parallelism);
        // One untimed warm-up generation, so the timed one starts warm.
        let _ = ga.optimise_with(&evaluator, &objective, &bounds, 1, 7);
        let start = Instant::now();
        let result = ga.optimise_with(&evaluator, &objective, &bounds, 1, 7);
        (start.elapsed().as_secs_f64(), result.best_fitness)
    };
    let (serial_s, serial_fitness) = time(Parallelism::Serial);
    let (four_s, four_fitness) = time(Parallelism::Threads(4));
    assert_eq!(
        serial_fitness.to_bits(),
        four_fitness.to_bits(),
        "parallel GA must be bit-identical to serial"
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\nspeedup_summary: GA pop 100 harvester generation — serial {serial_s:.2} s, \
         threads(4) {four_s:.2} s, speedup {:.2}x on {cores} core(s) \
         (bit-identical results)",
        serial_s / four_s
    );
}

criterion_group!(
    optimisation,
    table2_ga_generation,
    ga_generation_heavy_sphere,
    ga_generation_harvester,
    batch_evaluation_harvester,
    speedup_summary
);
criterion_main!(optimisation);
