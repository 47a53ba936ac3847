//! Dense vs sparse solver-backend benchmarks.
//!
//! * `backend/<fixture>_{dense,sparse}` — identical transients run on both
//!   backends: RC ladders at several sizes (the crossover study) plus the
//!   largest paper fixture (the 6-stage Villard harvester).
//! * `workspace/*` — cost of a fresh per-run workspace vs reusing one across
//!   runs (the optimisation-loop pattern).
//!
//! On the largest circuits the sparse + workspace-reuse path must beat the
//! per-step dense factorisation path — that crossover is the point of the
//! sparse backend.

use criterion::{criterion_group, criterion_main, Criterion};
use harvester_bench::report::{self, BenchRecord};
use harvester_core::system::HarvesterConfig;
use harvester_core::GeneratorModel;
use harvester_mna::circuit::{Circuit, NodeId};
use harvester_mna::devices::{Capacitor, Resistor, VoltageSource};
use harvester_mna::transient::{
    SolverBackend, TransientAnalysis, TransientOptions, TransientWorkspace,
};
use harvester_mna::waveform::Waveform;
use std::hint::black_box;
use std::time::Duration;

fn configure(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(4));
}

fn rc_ladder(sections: usize) -> (Circuit, NodeId) {
    let mut c = Circuit::new();
    let vin = c.node("in");
    c.add(VoltageSource::new(
        "V",
        vin,
        Circuit::GROUND,
        Waveform::sine(1.0, 1000.0),
    ));
    let mut prev = vin;
    for k in 0..sections {
        let node = c.node(&format!("n{k}"));
        c.add(Resistor::new(&format!("R{k}"), prev, node, 100.0));
        c.add(Capacitor::new(
            &format!("C{k}"),
            node,
            Circuit::GROUND,
            1e-7,
        ));
        prev = node;
    }
    (c, prev)
}

fn ladder_options() -> TransientOptions {
    TransientOptions {
        t_stop: 5e-4,
        dt: 2e-6,
        record_interval: Some(5e-5),
        ..TransientOptions::default()
    }
}

fn backend_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend");
    configure(&mut group);

    for sections in [8usize, 32, 96] {
        let (circuit, out) = rc_ladder(sections);
        for (label, backend) in [
            ("dense", SolverBackend::Dense),
            ("sparse", SolverBackend::Sparse),
        ] {
            group.bench_function(format!("ladder{sections}_{label}"), |b| {
                b.iter(|| {
                    let result = TransientAnalysis::new(TransientOptions {
                        backend,
                        ..ladder_options()
                    })
                    .run(&circuit)
                    .expect("ladder must simulate");
                    black_box(result.final_voltage(out))
                })
            });
        }
    }

    // The largest paper fixture: the 6-stage Villard harvester.
    let mut config = HarvesterConfig::model_comparison(GeneratorModel::Analytical);
    config.storage.capacitance = 100e-6;
    let (circuit, nodes) = config.build();
    for (label, backend) in [
        ("dense", SolverBackend::Dense),
        ("sparse", SolverBackend::Sparse),
    ] {
        group.bench_function(format!("villard_harvester_{label}"), |b| {
            b.iter(|| {
                let result = TransientAnalysis::new(TransientOptions {
                    t_stop: 0.05,
                    dt: 1e-4,
                    record_interval: Some(1e-3),
                    backend,
                    ..TransientOptions::default()
                })
                .run(&circuit)
                .expect("harvester must simulate");
                black_box(result.final_voltage(nodes.storage))
            })
        });
    }
    group.finish();
}

fn workspace_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("workspace");
    configure(&mut group);
    let (circuit, out) = rc_ladder(64);
    let options = TransientOptions {
        backend: SolverBackend::Sparse,
        ..ladder_options()
    };
    let analysis = TransientAnalysis::new(options);

    group.bench_function("fresh_per_run", |b| {
        b.iter(|| {
            let result = analysis.run(&circuit).expect("ladder must simulate");
            black_box(result.final_voltage(out))
        })
    });
    let mut ws = TransientWorkspace::for_circuit(&circuit, analysis.options())
        .expect("workspace builds for the ladder");
    group.bench_function("reused_across_runs", |b| {
        b.iter(|| {
            let result = analysis
                .run_with(&circuit, &mut ws)
                .expect("ladder must simulate");
            black_box(result.final_voltage(out))
        })
    });
    group.finish();
}

/// Deterministic dense-vs-sparse work counts on the ladder and harvester
/// fixtures, emitted as `BENCH_solver.json` through the shared report
/// helper so CI can track the solver backends' perf trajectory alongside
/// the transient and PSS artefacts.
fn backend_work_comparison(_c: &mut Criterion) {
    use std::time::Instant;
    println!("\ngroup: solver-work (machine readable -> BENCH_solver.json)");
    let mut records: Vec<BenchRecord> = Vec::new();
    let fixtures: Vec<(String, Circuit, NodeId, TransientOptions)> = {
        let (ladder, ladder_out) = rc_ladder(96);
        let mut config = HarvesterConfig::model_comparison(GeneratorModel::Analytical);
        config.storage.capacitance = 100e-6;
        let (villard, nodes) = config.build();
        vec![
            ("ladder96".to_string(), ladder, ladder_out, ladder_options()),
            (
                "villard_harvester".to_string(),
                villard,
                nodes.storage,
                TransientOptions {
                    t_stop: 0.05,
                    dt: 1e-4,
                    record_interval: Some(1e-3),
                    ..TransientOptions::default()
                },
            ),
        ]
    };
    for (fixture, circuit, probe, base) in &fixtures {
        let mut wall = [0.0f64; 2];
        for (k, (label, backend)) in [
            ("dense", SolverBackend::Dense),
            ("sparse", SolverBackend::Sparse),
        ]
        .into_iter()
        .enumerate()
        {
            let start = Instant::now();
            let result = TransientAnalysis::new(TransientOptions { backend, ..*base })
                .run(circuit)
                .expect("bench fixture must simulate");
            wall[k] = start.elapsed().as_secs_f64();
            let stats = result.statistics();
            println!(
                "  solver-work/{fixture}_{label}: {:.3}s, {} linear solves, \
                 {} full + {} re-pivot factorisations + {} refactorisations",
                wall[k],
                stats.linear_solves,
                stats.full_factorizations,
                stats.repivot_factorizations,
                stats.refactorizations
            );
            records.push(
                report::statistics_record(format!("{fixture}_{label}"), &stats, wall[k])
                    .metric("final_voltage", result.final_voltage(*probe)),
            );
        }
        let speedup = wall[0] / wall[1];
        println!("  solver-work/{fixture}: sparse is {speedup:.2}x vs dense");
        records
            .push(BenchRecord::new(format!("{fixture}_ratio")).metric("sparse_speedup", speedup));
    }
    report::emit("solver", &records);
}

criterion_group!(
    solver,
    backend_comparison,
    workspace_reuse,
    backend_work_comparison
);
criterion_main!(solver);
