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

use harvester_bench::report;
use harvester_experiments::arrays::coupled_array;
use harvester_mna::shooting::{SteadyStateAnalysis, SteadyStateResult};

/// Deterministic coupled-array shooting work, emitted as `BENCH_arrays.json`.
fn main() {
    println!("arrays (machine readable -> BENCH_arrays.json)");
    let sizes = [4usize, 16, 64];
    let arrays = sizes.map(coupled_array);
    let names = sizes.map(|n| format!("array{n}_matrix_free"));
    let runs = report::time(names.each_ref(), SteadyStateResult::statistics, |k| {
        SteadyStateAnalysis::new(arrays[k].steady_state_options())
            .run(&arrays[k].circuit)
            .expect("coupled array must simulate")
    });
    let mut records = Vec::new();
    for (name, (pss, wall)) in names.iter().zip(&runs) {
        assert!(
            pss.converged,
            "array fixture must close its orbit, error {}",
            pss.closure_error
        );
        let stats = pss.statistics();
        println!(
            "  {name}: {} shooting iterations, {} linear solves, {} newton iterations",
            stats.shooting_iterations, stats.linear_solves, stats.newton_iterations
        );
        records.push(report::statistics_record(name.as_str(), &stats, *wall));
    }
    report::emit("arrays", &records);
}
