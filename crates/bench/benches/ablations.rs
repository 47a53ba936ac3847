//! Ablation benchmarks on the simulator's own design choices — integrator,
//! time step, multiplier depth — which the paper fixes without measuring:
//!
//! * `integrator/*` — backward Euler vs trapezoidal on the coupled harvester.
//! * `timestep/*` — cost of the detailed transient vs time-step size.
//! * `villard_stages/*` — cost and output of the Villard multiplier vs stage
//!   count (the paper fixes 6 stages without exploring the trade-off).
//! * `kernel/*` — micro-benchmarks of the simulation substrate (LU solve,
//!   one transient step of the full harvester netlist).

use criterion::{criterion_group, criterion_main, Criterion};
use harvester_core::system::HarvesterConfig;
use harvester_core::{BoosterConfig, GeneratorModel, VillardParams};
use harvester_mna::transient::{IntegrationMethod, TransientAnalysis, TransientOptions};
use harvester_numerics::linalg::Matrix;
use std::hint::black_box;
use std::time::Duration;

fn configure(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(5));
}

fn small_harvester() -> HarvesterConfig {
    let mut config = HarvesterConfig::unoptimised();
    config.storage.capacitance = 100e-6;
    config
}

fn integrator_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("integrator");
    configure(&mut group);
    let (circuit, nodes) = small_harvester().build();
    for (label, method) in [
        ("backward_euler", IntegrationMethod::BackwardEuler),
        ("trapezoidal", IntegrationMethod::Trapezoidal),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let result = TransientAnalysis::new(TransientOptions {
                    t_stop: 0.2,
                    dt: 1e-4,
                    method,
                    record_interval: Some(5e-3),
                    ..TransientOptions::default()
                })
                .run(&circuit)
                .expect("harvester netlist must simulate");
                black_box(result.final_voltage(nodes.storage))
            })
        });
    }
    group.finish();
}

fn timestep_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("timestep");
    configure(&mut group);
    let (circuit, nodes) = small_harvester().build();
    for dt in [2e-4, 1e-4, 5e-5] {
        group.bench_function(format!("dt_{dt:.0e}"), |b| {
            b.iter(|| {
                let result = TransientAnalysis::new(TransientOptions {
                    t_stop: 0.2,
                    dt,
                    record_interval: Some(5e-3),
                    ..TransientOptions::default()
                })
                .run(&circuit)
                .expect("harvester netlist must simulate");
                black_box(result.final_voltage(nodes.storage))
            })
        });
    }
    group.finish();
}

fn villard_stage_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("villard_stages");
    configure(&mut group);
    for stages in [2usize, 4, 6] {
        let mut config = HarvesterConfig::model_comparison(GeneratorModel::Analytical);
        config.storage.capacitance = 100e-6;
        config.booster = BoosterConfig::Villard(VillardParams {
            stages,
            stage_capacitance: 10e-6,
            ..VillardParams::paper_six_stage()
        });
        let (circuit, nodes) = config.build();
        group.bench_function(format!("stages_{stages}"), |b| {
            b.iter(|| {
                let result = TransientAnalysis::new(TransientOptions {
                    t_stop: 0.2,
                    dt: 1e-4,
                    record_interval: Some(5e-3),
                    ..TransientOptions::default()
                })
                .run(&circuit)
                .expect("villard netlist must simulate");
                black_box(result.final_voltage(nodes.storage))
            })
        });
    }
    group.finish();
}

fn kernel_microbench(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel");
    configure(&mut group);
    // Dense LU solve at the size of the full harvester system matrix.
    let n = 24;
    let mut a = Matrix::identity(n);
    for i in 0..n {
        for j in 0..n {
            a[(i, j)] += 1.0 / (1.0 + (i + 2 * j) as f64);
        }
    }
    let b = vec![1.0; n];
    group.bench_function("lu_solve_24x24", |bch| {
        bch.iter(|| black_box(a.solve(&b).expect("well-conditioned matrix")))
    });
    // One thousand transient steps of the full transformer-booster harvester.
    let (circuit, nodes) = small_harvester().build();
    group.bench_function("transient_1000_steps", |bch| {
        bch.iter(|| {
            let result = TransientAnalysis::new(TransientOptions {
                t_stop: 0.05,
                dt: 5e-5,
                record_interval: Some(5e-3),
                ..TransientOptions::default()
            })
            .run(&circuit)
            .expect("harvester netlist must simulate");
            black_box(result.final_voltage(nodes.storage))
        })
    });
    group.finish();
}

criterion_group!(
    ablations,
    integrator_ablation,
    timestep_ablation,
    villard_stage_ablation,
    kernel_microbench
);
criterion_main!(ablations);
