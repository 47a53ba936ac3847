//! Golden regression tests over the full harvester fixtures: the dense and
//! sparse solver backends must produce matching node-voltage traces and
//! identical step counts on the paper's transformer-booster and
//! Villard-multiplier systems.

use energy_harvester::experiments::arrays::coupled_array_netlist;
use energy_harvester::mna::netlist;
use energy_harvester::mna::transient::{
    SimulationBudget, SolverBackend, TransientAnalysis, TransientOptions,
};
use energy_harvester::models::{GeneratorModel, HarvesterConfig};

const TRACE_TOLERANCE: f64 = 1e-8;

fn compare_backends_on(config: HarvesterConfig, t_stop: f64, dt: f64) {
    let (circuit, nodes) = config.build();
    let run = |backend| {
        TransientAnalysis::new(TransientOptions {
            t_stop,
            dt,
            backend,
            ..TransientOptions::default()
        })
        .run(&circuit)
        .expect("harvester fixture must simulate on both backends")
    };
    let dense = run(SolverBackend::Dense);
    let sparse = run(SolverBackend::Sparse);

    assert_eq!(
        dense.statistics().accepted_steps,
        sparse.statistics().accepted_steps,
        "step counts must not depend on the backend"
    );
    assert_eq!(
        dense.statistics().rejected_steps,
        sparse.statistics().rejected_steps
    );
    assert_eq!(dense.len(), sparse.len());
    // Every numeric factorisation is counted on both backends (the sparse
    // one's pattern-reusing refactorisations included), so the same Newton
    // work costs the same factorisation total.
    let (d, s) = (dense.statistics(), sparse.statistics());
    if d.newton_iterations == s.newton_iterations {
        assert_eq!(
            d.full_factorizations + d.repivot_factorizations + d.refactorizations,
            s.full_factorizations + s.repivot_factorizations + s.refactorizations,
            "dense vs sparse factorisation totals at {} Newton iterations",
            d.newton_iterations
        );
    }

    for node in [nodes.generator_output, nodes.storage] {
        let vd = dense.voltage(node);
        let vs = sparse.voltage(node);
        for (k, (d, s)) in vd.iter().zip(vs.iter()).enumerate() {
            assert!(
                (d - s).abs() <= TRACE_TOLERANCE,
                "node {node} sample {k}: dense {d} vs sparse {s}"
            );
        }
    }

    // The sparse run must amortise its single symbolic factorisation over
    // the whole transient.
    let stats = sparse.statistics();
    assert!(
        stats.full_factorizations * 10 <= stats.linear_solves,
        "sparse backend must refactor, not refactorise from scratch: {} full of {} solves",
        stats.full_factorizations,
        stats.linear_solves
    );
}

/// Transformer-booster harvester (the paper's Fig. 9 system).
#[test]
fn transformer_harvester_backends_agree() {
    let mut config = HarvesterConfig::unoptimised();
    config.storage.capacitance = 100e-6;
    compare_backends_on(config, 0.1, 1e-4);
}

/// Villard-multiplier harvester (the paper's Fig. 4 booster, 6 stages) —
/// the largest fixture circuit in the repository.
#[test]
fn villard_harvester_backends_agree() {
    let mut config = HarvesterConfig::model_comparison(GeneratorModel::Analytical);
    config.storage.capacitance = 100e-6;
    compare_backends_on(config, 0.1, 1e-4);
}

/// Mechanical probes (displacement, velocity, coil current) must match
/// across backends too — they are solved in the same global system.
#[test]
fn mechanical_probes_agree_across_backends() {
    let mut config = HarvesterConfig::unoptimised();
    config.storage.capacitance = 100e-6;
    let (circuit, _) = config.build();
    let run = |backend| {
        TransientAnalysis::new(TransientOptions {
            t_stop: 0.05,
            dt: 1e-4,
            backend,
            ..TransientOptions::default()
        })
        .run(&circuit)
        .unwrap()
    };
    let dense = run(SolverBackend::Dense);
    let sparse = run(SolverBackend::Sparse);
    for unknown in ["i", "z", "u"] {
        let pd = dense.probe("generator", unknown).unwrap();
        let ps = sparse.probe("generator", unknown).unwrap();
        for (d, s) in pd.iter().zip(ps.iter()) {
            assert!(
                (d - s).abs() <= TRACE_TOLERANCE,
                "generator.{unknown}: dense {d} vs sparse {s}"
            );
        }
    }
}

/// A factorisation budget bounds the same work on both backends: the sparse
/// backend's refactorisations count against it like dense factorisations.
#[test]
fn a_factorization_budget_truncates_both_backends() {
    let circuit = netlist::build(&coupled_array_netlist(16)).expect("the 16-stage array builds");
    let budget = SimulationBudget {
        max_factorizations: Some(10),
        ..SimulationBudget::UNLIMITED
    };
    let run = |backend| {
        TransientAnalysis::new(TransientOptions {
            t_stop: 2e-3,
            dt: 2e-5,
            backend,
            budget,
            ..TransientOptions::default()
        })
        .run(&circuit)
        .expect("a budgeted run returns its truncated trace")
    };
    let dense = run(SolverBackend::Dense);
    let sparse = run(SolverBackend::Sparse);
    for (label, result) in [("dense", &dense), ("sparse", &sparse)] {
        let stats = result.statistics();
        assert!(
            result.truncated(),
            "{label}: the budget must stop the march"
        );
        assert_eq!(
            budget.exhausted_by(&stats),
            Some("factorizations"),
            "{label}: {stats:?}"
        );
        assert!(
            stats.accepted_steps < 10,
            "{label}: {} steps",
            stats.accepted_steps
        );
    }
    assert_eq!(
        dense.statistics().accepted_steps,
        sparse.statistics().accepted_steps
    );
}
