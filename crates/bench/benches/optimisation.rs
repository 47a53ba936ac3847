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
//! trade. An explicit serial-vs-4-workers speedup summary of the harvester
//! generation is printed after its rows (≥ 2× at 4 workers on a ≥ 4-core
//! machine; on fewer cores the measured ratio degrades towards 1×).

use harvester_bench::report;
use harvester_core::system::HarvesterConfig;
use harvester_experiments::{encode, paper_bounds, FitnessBudget, HarvesterObjective};
use harvester_optim::{
    Bounds, GaOptions, GeneticAlgorithm, Objective, OptimisationResult, Optimizer,
    ParallelEvaluator, Parallelism,
};

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

/// The evaluator variants every sharded workload is timed on.
const PARALLELISM: [(&str, Parallelism); 3] = [
    ("serial", Parallelism::Serial),
    ("threads2", Parallelism::Threads(2)),
    ("threads4", Parallelism::Threads(4)),
];

/// `<prefix>_<variant>` for each [`PARALLELISM`] variant.
fn variant_names(prefix: &str) -> [String; 3] {
    PARALLELISM.map(|(label, _)| format!("{prefix}_{label}"))
}

fn evaluations(result: &OptimisationResult) -> usize {
    result.evaluations
}

fn main() {
    let objective =
        HarvesterObjective::new(HarvesterConfig::unoptimised(), FitnessBudget::coarse());
    let bounds = paper_bounds();

    let populations = [8usize, 16];
    let gas = populations.map(|population_size| {
        GeneticAlgorithm::new(GaOptions {
            population_size,
            ..GaOptions::paper()
        })
    });
    report::time(
        populations.map(|population| format!("table2_ga/one_generation_pop{population}")),
        evaluations,
        |k| gas[k].optimise(&objective, &bounds, 1, 7),
    );

    // The paper's GA at its population of 100, one generation per sample.
    let ga = GeneticAlgorithm::new(GaOptions::paper());
    let evaluators = PARALLELISM.map(|(_, parallelism)| ParallelEvaluator::new(parallelism));
    let sphere = HeavySphere {
        inner_iterations: 2000,
    };
    let sphere_bounds = Bounds::uniform(7, -5.0, 5.0);
    report::time(
        variant_names("ga_generation_heavy_sphere/pop100"),
        evaluations,
        |k| ga.optimise_with(&evaluators[k], &sphere, &sphere_bounds, 1, 7),
    );

    let [(serial, serial_s), _, (four, four_s)] = report::time(
        variant_names("ga_generation_harvester/pop100"),
        evaluations,
        |k| ga.optimise_with(&evaluators[k], &objective, &bounds, 1, 7),
    );
    assert_eq!(
        serial.best_fitness.to_bits(),
        four.best_fitness.to_bits(),
        "parallel GA must be bit-identical to serial"
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "speedup_summary: GA pop 100 harvester generation — serial {serial_s:.2} s, \
         threads(4) {four_s:.2} s, speedup {:.2}x on {cores} core(s) \
         (bit-identical results)",
        serial_s / four_s
    );

    // The raw evaluator fan-out without any optimiser around it: one
    // population-sized batch of harvester simulations.
    let template = encode(&HarvesterConfig::unoptimised());
    let batch: Vec<Vec<f64>> = (0..32)
        .map(|k| {
            let mut genes = template.clone();
            genes[1] += (k % 7) as f64 * 50.0;
            genes
        })
        .collect();
    report::time(
        variant_names("batch_evaluation_harvester/batch32"),
        Vec::len,
        |k| evaluators[k].evaluate(&objective, &batch),
    );
}
