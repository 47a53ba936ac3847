//! Shooting-Newton periodic steady state vs brute-force settling.
//!
//! The deterministic work-count comparison behind the PR's acceptance
//! criterion, emitted as `BENCH_pss.json`: on the harvester envelope
//! fixtures, the shooting engine must reproduce the steady-state charging
//! characteristic of a *converged* settling reference while integrating a
//! fraction of the excitation cycles the production settle-and-average
//! budget spends (and a much smaller fraction still of what converged
//! settling costs).
//!
//! Three measurements per fixture:
//!
//! * `<fixture>_settled` — the production brute-force budget
//!   (`settle_cycles` + `measure_cycles` per grid point);
//! * `<fixture>_reference` — fixed-step settling with a 20× settle budget
//!   (converged to the orbit, used as the accuracy yardstick);
//! * `<fixture>_shooting` — the PSS engine (warm-up + closure iterations).
//!
//! Plus a `<fixture>_ratio` record with the cycle-reduction factor and the
//! worst per-grid-point current deviation of shooting vs the reference.
//!
//! Then the GA fitness on each linear-solver backend: `fitness_dense` and
//! `fitness_sparse` score the dense-vs-sparse cross-check designs
//! (`harvester_bench::fitness_cross_check_designs`) under
//! `FitnessBudget::default()`, with every work counter of the summed
//! measurements plus `factorizations` (all numeric factorisations, comparable
//! across the backends), and `fitness_ratio` holds the sparse backend's speed
//! relative to dense (`sparse_speedup`, from the fastest of three alternating
//! rounds per backend) and the worst relative fitness difference between
//! them.

use criterion::{criterion_group, criterion_main, Criterion};
use harvester_bench::fitness_cross_check_designs;
use harvester_bench::pss_acceptance_envelope as envelope_options;
use harvester_bench::report::{self, BenchRecord};
use harvester_core::envelope::{
    ChargingCharacteristic, EnvelopeOptions, EnvelopeSimulator, SteadyState,
};
use harvester_core::system::HarvesterConfig;
use harvester_core::GeneratorModel;
use harvester_experiments::{decode, FitnessBudget};
use harvester_mna::transient::{RunStatistics, SolverBackend, StepControl};
use std::time::Instant;

fn measure(config: &HarvesterConfig, options: EnvelopeOptions) -> (ChargingCharacteristic, f64) {
    let start = Instant::now();
    let characteristic = EnvelopeSimulator::new(config.clone(), options)
        .measure_characteristic()
        .expect("envelope fixture must simulate");
    (characteristic, start.elapsed().as_secs_f64())
}

fn worst_deviation(a: &ChargingCharacteristic, b: &ChargingCharacteristic) -> f64 {
    a.points()
        .zip(b.points())
        .map(|((_, ia), (_, ib))| (ia - ib).abs())
        .fold(0.0f64, f64::max)
}

/// Deterministic comparison on the harvester envelope fixtures, emitted as
/// `BENCH_pss.json`.
fn pss_work_comparison(_c: &mut Criterion) {
    println!("\ngroup: pss-work (machine readable -> BENCH_pss.json)");
    let mut records: Vec<BenchRecord> = Vec::new();
    for (fixture, config) in [
        (
            "villard_envelope",
            HarvesterConfig::model_comparison(GeneratorModel::Analytical),
        ),
        ("transformer_envelope", HarvesterConfig::unoptimised()),
    ] {
        let (settled, settled_wall) = measure(&config, envelope_options(SteadyState::BruteForce));
        let reference_options = EnvelopeOptions {
            settle_cycles: 1200.0,
            step_control: StepControl::Fixed,
            ..envelope_options(SteadyState::BruteForce)
        };
        let (reference, reference_wall) = measure(&config, reference_options);
        let (shooting, shooting_wall) = measure(&config, envelope_options(SteadyState::default()));

        for (label, characteristic, wall) in [
            ("settled", &settled, settled_wall),
            ("reference", &reference, reference_wall),
            ("shooting", &shooting, shooting_wall),
        ] {
            let stats = characteristic.statistics();
            println!(
                "  pss-work/{fixture}_{label}: {wall:.3}s, {} cycles, {} shooting iterations, \
                 {} newton iterations",
                stats.integrated_cycles, stats.shooting_iterations, stats.newton_iterations
            );
            records.push(
                report::statistics_record(format!("{fixture}_{label}"), &stats, wall)
                    .metric("i_at_0v_amperes", characteristic.current_at(0.0)),
            );
        }

        let cycle_reduction = settled.statistics().integrated_cycles as f64
            / shooting.statistics().integrated_cycles as f64;
        let deviation = worst_deviation(&shooting, &reference);
        println!(
            "  pss-work/{fixture}: shooting integrates {cycle_reduction:.1}x fewer cycles than \
             the production settling budget, worst deviation {deviation:.3e} A vs the 20x-settled \
             reference"
        );
        records.push(
            BenchRecord::new(format!("{fixture}_ratio"))
                .metric("cycle_reduction", cycle_reduction)
                .metric("worst_deviation_amperes", deviation)
                .metric("wall_speedup", settled_wall / shooting_wall),
        );
    }
    records.extend(fitness_backend_comparison());
    report::emit("pss", &records);
}

/// Scores every cross-check design under `FitnessBudget::default()` on
/// `backend`: the fitnesses, the summed work counters and the wall seconds.
fn score_designs(designs: &[Vec<f64>], backend: SolverBackend) -> (Vec<f64>, RunStatistics, f64) {
    let budget = FitnessBudget {
        backend,
        ..FitnessBudget::default()
    };
    let base = HarvesterConfig::unoptimised();
    let mut stats = RunStatistics::default();
    let start = Instant::now();
    let fitnesses = designs
        .iter()
        .map(|genes| {
            let characteristic = EnvelopeSimulator::new(decode(&base, genes), budget.envelope())
                .measure_characteristic()
                .expect("every cross-check design simulates");
            stats.merge(&characteristic.statistics());
            characteristic.current_at(budget.reference_voltage)
        })
        .collect();
    (fitnesses, stats, start.elapsed().as_secs_f64())
}

/// The `fitness_dense`, `fitness_sparse` and `fitness_ratio` records.
fn fitness_backend_comparison() -> Vec<BenchRecord> {
    let designs = fitness_cross_check_designs();
    let backends = [
        ("dense", SolverBackend::Dense),
        ("sparse", SolverBackend::Sparse),
    ];
    let mut walls = [f64::INFINITY; 2];
    let mut runs = Vec::new();
    for _ in 0..3 {
        runs.clear();
        for (wall, (_, backend)) in walls.iter_mut().zip(backends) {
            let run = score_designs(&designs, backend);
            *wall = wall.min(run.2);
            runs.push(run);
        }
    }
    let mut records = Vec::new();
    for ((label, _), ((_, stats, _), wall)) in backends.iter().zip(runs.iter().zip(walls)) {
        println!(
            "  pss-work/fitness_{label}: {wall:.3}s for {} designs, {} newton iterations, \
             {} factorizations, {} gmres fallbacks",
            designs.len(),
            stats.newton_iterations,
            stats.factorizations(),
            stats.gmres_fallbacks
        );
        records.push(
            report::statistics_record(format!("fitness_{label}"), stats, wall)
                .metric("factorizations", stats.factorizations() as f64),
        );
    }
    let deviation = runs[0]
        .0
        .iter()
        .zip(&runs[1].0)
        .map(|(dense, sparse)| (dense - sparse).abs() / dense.abs())
        .fold(0.0f64, f64::max);
    let speedup = walls[0] / walls[1];
    println!(
        "  pss-work/fitness: sparse scores the designs {speedup:.2}x as fast as dense, worst \
         relative fitness difference {deviation:.2e}"
    );
    records.push(
        BenchRecord::new("fitness_ratio")
            .metric("sparse_speedup", speedup)
            .metric("worst_relative_deviation", deviation),
    );
    records
}

criterion_group!(pss, pss_work_comparison);
criterion_main!(pss);
