//! Shooting on coupled harvester arrays.
//!
//! The scaling study behind the matrix-free Newton–Krylov shooting engine,
//! emitted as `BENCH_arrays.json`: the [`coupled_array`] fixtures grow the
//! periodic system linearly in the stage count `n` (3·n + 2 unknowns), and
//! the engine pays one back-substitution per step per GMRES matvec with an
//! n-independent matvec budget instead of forming the n×n monodromy.
//!
//! One record per size, `array<n>_matrix_free`: wall time and the work
//! counters of the fixture's steady-state analysis on the default path.

use criterion::{criterion_group, criterion_main, Criterion};
use harvester_bench::report::{self, BenchRecord};
use harvester_experiments::arrays::coupled_array;
use harvester_mna::shooting::SteadyStateAnalysis;
use std::time::Instant;

/// Deterministic coupled-array shooting work, emitted as `BENCH_arrays.json`.
fn array_scaling(_c: &mut Criterion) {
    println!("\ngroup: arrays (machine readable -> BENCH_arrays.json)");
    let mut records: Vec<BenchRecord> = Vec::new();
    for n in [4usize, 16, 64] {
        let array = coupled_array(n);
        let start = Instant::now();
        let pss = SteadyStateAnalysis::new(array.steady_state_options())
            .run(&array.circuit)
            .expect("coupled array must simulate");
        let wall = start.elapsed().as_secs_f64();
        assert!(
            pss.converged,
            "array fixture must close its orbit, error {}",
            pss.closure_error
        );
        let stats = pss.statistics();
        println!(
            "  arrays/array{n}_matrix_free: {wall:.3}s, {} shooting iterations, \
             {} linear solves, {} newton iterations",
            stats.shooting_iterations, stats.linear_solves, stats.newton_iterations
        );
        records.push(report::statistics_record(
            format!("array{n}_matrix_free"),
            &stats,
            wall,
        ));
    }
    report::emit("arrays", &records);
}

criterion_group!(arrays, array_scaling);
criterion_main!(arrays);
