//! Regression tests for the modified-Newton Jacobian bypass: the factor
//! counters must honour the documented contract (`full_factorizations +
//! repivot_factorizations + refactorizations <= newton_iterations` for plain
//! transients, plus one per accepted step for shooting runs), a transient
//! must stamp a Jacobian only where it factors one
//! (`jacobian_assemblies == factorizations()`), the bypass must actually
//! decouple factorisations from iterations, and it must not move the
//! converged trace beyond the Newton tolerances. The step solves' iteration
//! policy (predict on either grid, factor at the prediction once reuse has
//! failed, stop on the observed contraction) must keep a nonlinear fixed
//! step to a few iterations and a linear run to its two factorisations.

use harvester_mna::circuit::{Circuit, NodeId};
use harvester_mna::devices::{Capacitor, Diode, Resistor, VoltageSource};
use harvester_mna::shooting::{SteadyStateAnalysis, SteadyStateOptions};
use harvester_mna::transient::{
    SolverBackend, StepControl, TransientAnalysis, TransientOptions, TransientResult,
};
use harvester_mna::waveform::Waveform;

/// Half-wave rectifier: a nonlinear fixture whose diode keeps Newton busy
/// for several iterations per step, so factor reuse has room to pay off.
fn rectifier() -> (Circuit, NodeId) {
    let mut circuit = Circuit::new();
    let vin = circuit.node("in");
    let out = circuit.node("out");
    circuit.add(VoltageSource::new(
        "V",
        vin,
        Circuit::GROUND,
        Waveform::sine(3.0, 1000.0),
    ));
    circuit.add(Diode::new("D", vin, out));
    circuit.add(Capacitor::new("C", out, Circuit::GROUND, 4.7e-7));
    circuit.add(Resistor::new("Rload", out, Circuit::GROUND, 10e3));
    (circuit, out)
}

fn options(backend: SolverBackend, reuse: bool) -> TransientOptions {
    TransientOptions {
        t_stop: 5e-3,
        dt: 1e-5,
        backend,
        reuse_jacobian: reuse,
        ..TransientOptions::default()
    }
}

fn run(circuit: &Circuit, options: TransientOptions) -> TransientResult {
    TransientAnalysis::new(options)
        .run(circuit)
        .expect("rectifier fixture must simulate")
}

#[test]
fn factor_counters_never_exceed_newton_iterations() {
    let (circuit, _) = rectifier();
    let mut totals = Vec::new();
    for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
        let stats = run(&circuit, options(backend, true)).statistics();
        assert!(
            stats.full_factorizations + stats.repivot_factorizations + stats.refactorizations
                <= stats.newton_iterations,
            "{backend:?}: counter contract violated: {} full + {} repivot + {} refactor > {} \
             iterations",
            stats.full_factorizations,
            stats.repivot_factorizations,
            stats.refactorizations,
            stats.newton_iterations
        );
        totals.push((stats.newton_iterations, stats.factorizations()));
    }
    // The sparse backend counts its pattern-reusing refactorisations, so
    // the same Newton work costs the same factorisation count on both.
    assert_eq!(
        totals[0], totals[1],
        "dense vs sparse (newton, factorizations)"
    );
}

#[test]
fn jacobians_are_stamped_only_where_they_are_factored() {
    let (circuit, _) = rectifier();
    for step_control in [StepControl::Fixed, StepControl::adaptive()] {
        for reuse in [true, false] {
            let mut assemblies = Vec::new();
            for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
                let options = TransientOptions {
                    step_control,
                    ..options(backend, reuse)
                };
                let stats = run(&circuit, options).statistics();
                let label = format!("{step_control:?}, {backend:?}, reuse_jacobian {reuse}");
                assert_eq!(
                    stats.jacobian_assemblies,
                    stats.factorizations(),
                    "{label}: every stamped Jacobian is factored, and only those"
                );
                if reuse {
                    // Iterations on stale factors assemble the residual alone.
                    assert!(
                        stats.jacobian_assemblies < stats.newton_iterations,
                        "{label}: {} Jacobian assemblies for {} iterations",
                        stats.jacobian_assemblies,
                        stats.newton_iterations
                    );
                } else {
                    assert_eq!(
                        stats.jacobian_assemblies, stats.newton_iterations,
                        "{label}: full Newton stamps every iteration"
                    );
                }
                assemblies.push(stats.jacobian_assemblies);
            }
            assert_eq!(
                assemblies[0], assemblies[1],
                "{step_control:?}, reuse_jacobian {reuse}: dense vs sparse"
            );
        }
    }
}

#[test]
fn bypass_decouples_factorisations_from_iterations() {
    let (circuit, _) = rectifier();
    let reused = run(&circuit, options(SolverBackend::Dense, true)).statistics();
    let full_newton = run(&circuit, options(SolverBackend::Dense, false)).statistics();

    // Classical full Newton refactors once per iteration on the dense
    // backend — that equality pins down what the bypass is measured against.
    assert_eq!(
        full_newton.full_factorizations, full_newton.newton_iterations,
        "with reuse_jacobian disabled every dense iteration must factor"
    );
    // The bypass must do strictly better than one factorisation per two
    // iterations on this fixture (the headline decoupling claim).
    assert!(
        2 * reused.full_factorizations < reused.newton_iterations,
        "bypass too weak: {} factorizations for {} iterations",
        reused.full_factorizations,
        reused.newton_iterations
    );
    assert!(
        reused.full_factorizations < full_newton.full_factorizations,
        "bypass must factor less than full Newton"
    );
}

#[test]
fn bypass_preserves_the_converged_trace() {
    let (circuit, out) = rectifier();
    let reused = run(&circuit, options(SolverBackend::Dense, true));
    let full_newton = run(&circuit, options(SolverBackend::Dense, false));
    assert_eq!(reused.len(), full_newton.len(), "sample counts must match");
    for (k, (a, b)) in reused
        .voltage(out)
        .iter()
        .zip(full_newton.voltage(out))
        .enumerate()
    {
        // Both paths iterate the same exact residual to the same Newton
        // tolerances; only the iteration path differs.
        assert!(
            (a - b).abs() < 1e-6,
            "sample {k}: bypass moved the converged trace: {a} vs {b}"
        );
    }
}

#[test]
fn shooting_runs_honour_the_extended_counter_contract() {
    let (circuit, _) = rectifier();
    let mut options = SteadyStateOptions::new(1e-3);
    options.transient.dt = 1e-5;
    let pss = SteadyStateAnalysis::new(options).run(&circuit).unwrap();
    assert!(pss.converged);
    let stats = pss.statistics();
    // The sensitivity chain factors each accepted in-period step's Jacobian
    // outside any Newton iteration, hence the `+ accepted_steps` headroom.
    assert!(
        stats.full_factorizations + stats.repivot_factorizations + stats.refactorizations
            <= stats.newton_iterations + stats.accepted_steps,
        "shooting counter contract violated: {} full + {} repivot + {} refactor > {} \
         iterations + {} steps",
        stats.full_factorizations,
        stats.repivot_factorizations,
        stats.refactorizations,
        stats.newton_iterations,
        stats.accepted_steps
    );
}

/// The nonlinear fixture's fixed-step run, predicted and stopped on the
/// observed contraction, spends at most 2.5 Newton iterations per accepted
/// step on either backend, stamping a Jacobian only where it factors one.
#[test]
fn predicted_fixed_steps_converge_in_few_iterations() {
    let (circuit, _) = rectifier();
    for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
        let stats = run(&circuit, options(backend, true)).statistics();
        let per_step = stats.newton_iterations as f64 / stats.accepted_steps as f64;
        assert!(
            per_step <= 2.5,
            "{backend:?}: {} iterations for {} steps",
            stats.newton_iterations,
            stats.accepted_steps
        );
        assert_eq!(
            stats.predicted_steps,
            stats.accepted_steps - 1,
            "{backend:?}"
        );
        assert_eq!(
            stats.jacobian_assemblies,
            stats.factorizations(),
            "{backend:?}"
        );
    }
}

/// The contraction stop accepts a step on its error estimate, so the trace
/// must stay within the Newton tolerance's reach of a classical-full-Newton
/// run converged to `delta_tolerance = 1e-12`, sample by sample.
#[test]
fn the_contraction_stop_keeps_the_trace_at_the_newton_tolerance() {
    let (circuit, out) = rectifier();
    for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
        let policy = run(&circuit, options(backend, true));
        let reference = run(
            &circuit,
            TransientOptions {
                delta_tolerance: 1e-12,
                ..options(backend, false)
            },
        );
        assert_eq!(policy.times(), reference.times(), "{backend:?}");
        for (k, (a, b)) in policy
            .voltage(out)
            .iter()
            .zip(reference.voltage(out))
            .enumerate()
        {
            assert!(
                (a - b).abs() <= 1e-7 * (1.0 + b.abs()),
                "{backend:?}, sample {k}: {a} vs {b}"
            );
        }
    }
}

/// On a linear circuit reusing factors never fails, so a fixed-step run
/// factors only for the start-up step and the first regular one while the
/// predictor cuts the iterations below the two per step of a warm start
/// from the previous solution.
#[test]
fn a_linear_circuit_keeps_back_substituting_through_two_factorisations() {
    let mut circuit = Circuit::new();
    let vin = circuit.node("in");
    let out = circuit.node("out");
    circuit.add(VoltageSource::new(
        "V",
        vin,
        Circuit::GROUND,
        Waveform::dc(1.0),
    ));
    circuit.add(Resistor::new("R", vin, out, 1000.0));
    circuit.add(Capacitor::new("C", out, Circuit::GROUND, 1e-6));
    for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
        let options = TransientOptions {
            t_stop: 1e-4,
            dt: 1e-6,
            backend,
            ..TransientOptions::default()
        };
        let stats = run(&circuit, options).statistics();
        assert_eq!(stats.accepted_steps, 100, "{backend:?}");
        assert_eq!(stats.factorizations(), 2, "{backend:?}");
        assert_eq!(stats.jacobian_assemblies, 2, "{backend:?}");
        assert!(
            stats.newton_iterations < 2 * stats.accepted_steps,
            "{backend:?}: {} iterations",
            stats.newton_iterations
        );
    }
}
