//! Dense vs sparse solver-backend benchmarks, emitted as `BENCH_solver.json`.
//!
//! * `<fixture>_{dense,sparse}` — identical transients run on both
//!   backends: RC ladders at 8, 32 and 96 sections (the crossover study)
//!   plus the largest paper fixture, `villard_harvester` (the 6-stage
//!   Villard harvester). The 96-section ladder and the harvester are
//!   recorded with every work counter, and `<fixture>_ratio` holds the
//!   sparse path's speed relative to dense.
//! * `workspace/*` — cost of a fresh per-run workspace vs reusing one across
//!   runs (the optimisation-loop pattern).
//!
//! On the largest circuits the sparse + workspace-reuse path must beat the
//! per-step dense factorisation path — that crossover is the point of the
//! sparse backend.

use harvester_bench::report::{self, BenchRecord};
use harvester_bench::{rc_ladder, villard_harvester};
use harvester_mna::circuit::Circuit;
use harvester_mna::transient::{
    SolverBackend, TransientAnalysis, TransientOptions, TransientResult, TransientWorkspace,
};

fn ladder_options() -> TransientOptions {
    TransientOptions {
        t_stop: 5e-4,
        dt: 2e-6,
        record_interval: Some(5e-5),
        ..TransientOptions::default()
    }
}

/// Times `circuit` under `options` on the dense and on the sparse backend.
fn on_both_backends(
    fixture: &str,
    circuit: &Circuit,
    options: TransientOptions,
) -> [(TransientResult, f64); 2] {
    let backends = [SolverBackend::Dense, SolverBackend::Sparse];
    let names = [format!("{fixture}_dense"), format!("{fixture}_sparse")];
    report::time(names, TransientResult::statistics, |k| {
        TransientAnalysis::new(TransientOptions {
            backend: backends[k],
            ..options
        })
        .run(circuit)
        .expect("bench fixture must simulate")
    })
}

fn workspace_reuse() {
    let (circuit, _) = rc_ladder(64);
    let analysis = TransientAnalysis::new(TransientOptions {
        backend: SolverBackend::Sparse,
        ..ladder_options()
    });
    let mut ws = TransientWorkspace::for_circuit(&circuit, analysis.options())
        .expect("workspace builds for the ladder");
    // One untimed run leaves the workspace's symbolic analysis in place, as
    // every later run of an optimisation loop finds it.
    analysis
        .run_with(&circuit, &mut ws)
        .expect("ladder must simulate");
    report::time(
        ["workspace/fresh_per_run", "workspace/reused_across_runs"],
        TransientResult::statistics,
        |k| {
            if k == 0 {
                analysis.run(&circuit)
            } else {
                analysis.run_with(&circuit, &mut ws)
            }
            .expect("ladder must simulate")
        },
    );
}

fn main() {
    println!("solver (machine readable -> BENCH_solver.json)");
    for sections in [8, 32] {
        let (circuit, _) = rc_ladder(sections);
        on_both_backends(&format!("ladder{sections}"), &circuit, ladder_options());
    }
    let mut records = Vec::new();
    let (ladder, ladder_out) = rc_ladder(96);
    let (villard, nodes) = villard_harvester().build();
    for (fixture, circuit, probe, options) in [
        ("ladder96", &ladder, ladder_out, ladder_options()),
        (
            "villard_harvester",
            &villard,
            nodes.storage,
            TransientOptions {
                t_stop: 0.05,
                dt: 1e-4,
                record_interval: Some(1e-3),
                ..TransientOptions::default()
            },
        ),
    ] {
        let runs = on_both_backends(fixture, circuit, options);
        for ((result, wall), label) in runs.iter().zip(["dense", "sparse"]) {
            let stats = result.statistics();
            println!(
                "  {fixture}_{label}: {} linear solves, {} full + {} re-pivot factorisations \
                 + {} refactorisations",
                stats.linear_solves,
                stats.full_factorizations,
                stats.repivot_factorizations,
                stats.refactorizations
            );
            records.push(
                report::statistics_record(format!("{fixture}_{label}"), &stats, *wall)
                    .metric("final_voltage", result.final_voltage(probe)),
            );
        }
        let speedup = runs[0].1 / runs[1].1;
        println!("  {fixture}: sparse is {speedup:.2}x vs dense");
        records
            .push(BenchRecord::new(format!("{fixture}_ratio")).metric("sparse_speedup", speedup));
    }
    workspace_reuse();
    report::emit("solver", &records);
}
