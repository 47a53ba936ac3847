//! Ablation benchmarks on the simulator's own design choices — integrator,
//! time step, multiplier depth — which the paper fixes without measuring:
//!
//! * `integrator/*` — backward Euler vs trapezoidal on the coupled harvester.
//! * `timestep/*` — cost of the detailed transient vs time-step size.
//! * `villard_stages/*` — cost and output of the Villard multiplier vs stage
//!   count (the paper fixes 6 stages without exploring the trade-off).
//! * `kernel/*` — micro-benchmarks of the simulation substrate (LU solve,
//!   one transient step of the full harvester netlist).

use harvester_bench::{report, transformer_harvester, villard_harvester};
use harvester_core::{BoosterConfig, VillardParams};
use harvester_mna::transient::{
    IntegrationMethod, TransientAnalysis, TransientOptions, TransientResult,
};
use harvester_numerics::linalg::Matrix;

/// A 0.2 s harvester transient at time step `dt`, recorded every 5 ms.
fn options(dt: f64) -> TransientOptions {
    TransientOptions {
        t_stop: 0.2,
        dt,
        record_interval: Some(5e-3),
        ..TransientOptions::default()
    }
}

fn main() {
    let (circuit, _) = transformer_harvester().build();
    let methods = [
        IntegrationMethod::BackwardEuler,
        IntegrationMethod::Trapezoidal,
    ];
    report::time(
        ["integrator/backward_euler", "integrator/trapezoidal"],
        TransientResult::statistics,
        |k| {
            TransientAnalysis::new(TransientOptions {
                method: methods[k],
                ..options(1e-4)
            })
            .run(&circuit)
            .expect("harvester netlist must simulate")
        },
    );

    let dts = [2e-4, 1e-4, 5e-5];
    report::time(
        dts.map(|dt| format!("timestep/dt_{dt:.0e}")),
        TransientResult::statistics,
        |k| {
            TransientAnalysis::new(options(dts[k]))
                .run(&circuit)
                .expect("harvester netlist must simulate")
        },
    );

    let stages = [2usize, 4, 6];
    let villards = stages.map(|stages| {
        let mut config = villard_harvester();
        config.booster = BoosterConfig::Villard(VillardParams {
            stages,
            stage_capacitance: 10e-6,
            ..VillardParams::paper_six_stage()
        });
        config.build().0
    });
    report::time(
        stages.map(|n| format!("villard_stages/stages_{n}")),
        TransientResult::statistics,
        |k| {
            TransientAnalysis::new(options(1e-4))
                .run(&villards[k])
                .expect("villard netlist must simulate")
        },
    );

    // Dense LU solve at the size of the full harvester system matrix.
    let n = 24;
    let mut a = Matrix::identity(n);
    for i in 0..n {
        for j in 0..n {
            a[(i, j)] += 1.0 / (1.0 + (i + 2 * j) as f64);
        }
    }
    let b = vec![1.0; n];
    report::time(
        ["kernel/lu_solve_24x24"],
        |_| (),
        |_| a.solve(&b).expect("well-conditioned matrix"),
    );
    // One thousand transient steps of the full transformer-booster harvester.
    report::time(
        ["kernel/transient_1000_steps"],
        TransientResult::statistics,
        |_| {
            TransientAnalysis::new(TransientOptions {
                t_stop: 0.05,
                dt: 5e-5,
                record_interval: Some(5e-3),
                ..TransientOptions::default()
            })
            .run(&circuit)
            .expect("harvester netlist must simulate")
        },
    );
}
