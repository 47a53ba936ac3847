//! Direct tests of every solver fallback path, driven by the deterministic
//! [`FaultInjector`]: singular-factorisation retry via step halving, the
//! sparse stale-pivot repivot, the shooting engine's fallback from GMRES
//! to an LU solve of the formed monodromy, the operating-point homotopy cascade
//! down to source stepping, the transient recovery legs (gmin ramp and
//! junction limiting) and the structured [`ConvergenceReport`] failure.
//! Also home of the [`SimulationBudget`] truncation contracts.

use harvester_mna::analysis::{Analysis, AnalysisEngine, AnalysisPlan, OpOptions, OpStrategy};
use harvester_mna::circuit::{Circuit, NodeId};
use harvester_mna::devices::{Capacitor, Diode, Resistor, VoltageSource};
use harvester_mna::shooting::SteadyStateOptions;
use harvester_mna::transient::{
    RecoveryPolicy, SimulationBudget, SolverBackend, TransientAnalysis, TransientOptions,
    TransientResult, TransientWorkspace,
};
use harvester_mna::waveform::Waveform;
use harvester_mna::{MnaError, RecoveryStrategy};
use harvester_numerics::fault::{Fault, FaultInjector};

/// Half-wave rectifier: the standard nonlinear fixture — healthy under
/// every solver configuration, so any failure is the injected one.
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

/// Short transient options with a `min_dt` close enough to `dt` that the
/// halving cascade exhausts after a few attempts (keeps injected-failure
/// runs fast without changing any default-path semantics).
fn short_options() -> TransientOptions {
    TransientOptions {
        t_stop: 1e-4,
        dt: 1e-5,
        min_dt: 2e-6,
        ..TransientOptions::default()
    }
}

/// Runs a transient with an injector installed, returning the result (or
/// error) together with the injector and its accumulated log.
fn run_injected(
    circuit: &Circuit,
    options: TransientOptions,
    injector: FaultInjector,
) -> (Result<TransientResult, MnaError>, FaultInjector) {
    let analysis = TransientAnalysis::new(options);
    let mut ws = TransientWorkspace::for_circuit(circuit, analysis.options())
        .expect("fixture must build a workspace");
    ws.install_fault_injector(injector);
    let result = analysis.run_with(circuit, &mut ws);
    let injector = ws
        .take_fault_injector()
        .expect("injector must survive the run");
    (result, injector)
}

#[test]
fn singular_factorization_is_retried_through_step_halving() {
    let (circuit, out) = rectifier();
    let clean = TransientAnalysis::new(short_options())
        .run(&circuit)
        .expect("clean run must converge");

    let mut inj = FaultInjector::new();
    inj.arm(Fault::SingularFactorization, 1);
    let (result, inj) = run_injected(&circuit, short_options(), inj);
    let result = result.expect("one singular factorisation must not kill the run");

    assert_eq!(inj.fired(Fault::SingularFactorization), 1);
    assert!(
        result.statistics().rejected_steps >= 1,
        "the poisoned step must be rejected and halved"
    );
    // Step halving re-lands on a slightly different grid; the committed
    // physics must still agree with the clean run.
    let (a, b) = (
        *clean.voltage(out).last().unwrap(),
        *result.voltage(out).last().unwrap(),
    );
    assert!(
        (a - b).abs() < 0.05,
        "recovered trace must end at the clean final voltage: {a} vs {b}"
    );
}

#[test]
fn stale_pivot_forces_the_sparse_repivot_path() {
    let (circuit, out) = rectifier();
    let options = TransientOptions {
        backend: SolverBackend::Sparse,
        ..short_options()
    };
    let clean = TransientAnalysis::new(options)
        .run(&circuit)
        .expect("clean sparse run must converge");
    assert_eq!(clean.statistics().repivot_factorizations, 0);

    let mut inj = FaultInjector::new();
    inj.arm(Fault::StalePivot, 1);
    let (result, inj) = run_injected(&circuit, options, inj);
    let result = result.expect("a stale pivot must be recovered by repivoting");

    assert_eq!(inj.fired(Fault::StalePivot), 1);
    assert!(
        result.statistics().repivot_factorizations >= 1,
        "the rejected refactorisation must be recovered with a repivot"
    );
    // A repivot factors the same matrix from scratch: the iteration is
    // unchanged up to pivot-order rounding.
    assert_eq!(result.len(), clean.len());
    for (a, b) in clean.voltage(out).iter().zip(result.voltage(out)) {
        assert!((a - b).abs() < 1e-9, "repivot moved the trace: {a} vs {b}");
    }
}

#[test]
fn nan_residual_without_recovery_fails_with_the_bare_step_error() {
    let (circuit, _) = rectifier();
    let mut inj = FaultInjector::new();
    inj.arm_always(Fault::NanResidual);
    let (result, inj) = run_injected(&circuit, short_options(), inj);
    match result {
        Err(MnaError::StepFailed { time, dt, residual }) => {
            assert!(time > 0.0 && time.is_finite());
            assert!(dt < 2e-6, "halving must have exhausted below min_dt");
            assert!(residual.is_nan(), "the failed solve's poisoned residual");
        }
        other => panic!("expected the bare StepFailed, got {other:?}"),
    }
    assert!(
        inj.fired(Fault::NanResidual) >= 3,
        "every attempt is poisoned"
    );
}

#[test]
fn gmin_ramp_recovers_steps_whose_newton_always_diverges() {
    let (circuit, out) = rectifier();
    let clean = TransientAnalysis::new(short_options())
        .run(&circuit)
        .expect("clean run must converge");

    let mut options = short_options();
    options.recovery = RecoveryPolicy {
        gmin_ramp: true,
        ..RecoveryPolicy::none()
    };
    let mut inj = FaultInjector::new();
    inj.arm_always(Fault::NanResidual);
    let (result, _) = run_injected(&circuit, options, inj);
    let result = result.expect("the gmin ramp must recover every poisoned step");

    let stats = result.statistics();
    assert!(stats.recovery_retries > 0, "recovery must have engaged");
    assert!(stats.rejected_steps > 0, "halving runs before recovery");
    let (a, b) = (
        *clean.voltage(out).last().unwrap(),
        *result.voltage(out).last().unwrap(),
    );
    assert!(
        (a - b).abs() < 0.05,
        "gmin-recovered trace must end at the clean final voltage: {a} vs {b}"
    );
}

#[test]
fn junction_limiting_recovers_steps_whose_newton_always_diverges() {
    let (circuit, out) = rectifier();
    let clean = TransientAnalysis::new(short_options())
        .run(&circuit)
        .expect("clean run must converge");

    let mut options = short_options();
    options.recovery = RecoveryPolicy {
        junction_limiting: true,
        ..RecoveryPolicy::none()
    };
    let mut inj = FaultInjector::new();
    inj.arm_always(Fault::NanResidual);
    let (result, _) = run_injected(&circuit, options, inj);
    let result = result.expect("junction limiting must recover every poisoned step");

    assert!(result.statistics().recovery_retries > 0);
    let (a, b) = (
        *clean.voltage(out).last().unwrap(),
        *result.voltage(out).last().unwrap(),
    );
    assert!(
        (a - b).abs() < 0.05,
        "limit-recovered trace must end at the clean final voltage: {a} vs {b}"
    );
}

#[test]
fn exhausted_cascade_produces_a_structured_convergence_report() {
    let (circuit, _) = rectifier();
    let mut options = short_options();
    options.recovery = RecoveryPolicy {
        detailed_report: true,
        ..RecoveryPolicy::none()
    };
    let mut inj = FaultInjector::new();
    inj.arm_always(Fault::NanResidual);
    let (result, _) = run_injected(&circuit, options, inj);
    let report = match result {
        Err(MnaError::Convergence(report)) => report,
        other => panic!("expected a ConvergenceReport, got {other:?}"),
    };
    assert!(report.time > 0.0 && report.time.is_finite());
    // The halving trajectory at the failing time point, largest first.
    assert!(report.dt_trajectory.len() >= 2);
    for pair in report.dt_trajectory.windows(2) {
        assert!(
            pair[1] < pair[0],
            "dt trajectory must shrink: {:?}",
            report.dt_trajectory
        );
    }
    assert_eq!(report.strategies, vec![RecoveryStrategy::StepHalving]);
    assert_eq!(report.worst_unknowns.len(), 3);
    for (name, residual) in &report.worst_unknowns {
        assert!(!name.is_empty(), "unknowns must map back to netlist names");
        assert!(residual.is_finite());
    }
    // Unknown names come from the fixture's node/device names.
    let names: Vec<&str> = report
        .worst_unknowns
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    assert!(
        names
            .iter()
            .any(|n| n.contains("in") || n.contains("out") || n.contains('V')),
        "expected fixture names in {names:?}"
    );
    let rendered = format!("{report}");
    assert!(rendered.contains("no convergence at"), "{rendered}");
    assert!(rendered.contains("step halving"), "{rendered}");
}

#[test]
fn full_cascade_reports_every_attempted_strategy() {
    let (circuit, _) = rectifier();
    let mut options = short_options();
    options.recovery = RecoveryPolicy::aggressive();
    // Poison the recovery legs' factorisations too, so the whole cascade
    // fails and the report lists everything that was tried.
    let mut inj = FaultInjector::new();
    inj.arm_always(Fault::NanResidual);
    inj.arm_always(Fault::SingularFactorization);
    let (result, _) = run_injected(&circuit, options, inj);
    match result {
        Err(MnaError::Convergence(report)) => {
            assert_eq!(
                report.strategies,
                vec![
                    RecoveryStrategy::StepHalving,
                    RecoveryStrategy::GminRamp,
                    RecoveryStrategy::JunctionLimiting,
                ]
            );
        }
        other => panic!("expected a ConvergenceReport, got {other:?}"),
    }
}

#[test]
fn static_nan_residual_drives_the_op_cascade_to_source_stepping() {
    let (circuit, _) = rectifier();
    let plan = AnalysisPlan::from_cards(vec![Analysis::Op(OpOptions::default())]).unwrap();

    let mut engine = AnalysisEngine::new();
    let clean = engine.run(&circuit, &plan).unwrap();
    let clean_op = clean.op().expect("plan has an op card");
    assert_eq!(clean_op.strategy(), OpStrategy::Direct);
    assert_eq!(clean_op.statistics().homotopy_escalations, 0);

    let mut inj = FaultInjector::new();
    inj.arm_always(Fault::NanStaticResidual);
    engine.install_fault_injector(inj);
    let injected = engine.run(&circuit, &plan).unwrap();
    let op = injected.op().expect("plan has an op card");
    // The unmodified static system is poisoned: the direct solve and the
    // gmin ramp's final gmin = 0 stage both fail, and only the residual
    // homotopy (whose every stage is a modified system) converges.
    assert_eq!(op.strategy(), OpStrategy::SourceStepping);
    assert_eq!(op.statistics().homotopy_escalations, 2);
    let inj = engine
        .take_fault_injector()
        .expect("injector must be reclaimable");
    assert_eq!(inj.fired(Fault::NanStaticResidual), 2);

    // Both strategies converge the same circuit: same operating point.
    for (a, b) in clean_op.solution().iter().zip(op.solution()) {
        assert!(
            (a - b).abs() < 1e-6,
            "operating points must agree: {a} vs {b}"
        );
    }
}

#[test]
fn krylov_stagnation_falls_back_to_the_dense_monodromy() {
    let (circuit, out) = rectifier();
    let mut options = SteadyStateOptions::new(1e-3);
    options.transient.dt = 1e-5;
    // The closure Newton must actually iterate: at the default 1e-6
    // tolerance this fixture's orbit closes during warm-up and the
    // Krylov injection site is never reached.
    options.warmup_cycles = 1.0;
    options.tolerance = 1e-12;
    let plan = AnalysisPlan::from_cards(vec![Analysis::Pss(options)]).unwrap();

    let mut engine = AnalysisEngine::new();
    let clean = engine.run(&circuit, &plan).unwrap();
    let clean_pss = clean.steady_state().unwrap();
    assert!(clean_pss.converged);
    assert!(
        clean_pss.iterations > 0,
        "fixture must exercise the Krylov path"
    );
    assert_eq!(clean_pss.statistics().gmres_fallbacks, 0);

    let mut inj = FaultInjector::new();
    inj.arm_always(Fault::KrylovStagnation);
    engine.install_fault_injector(inj);
    let injected = engine.run(&circuit, &plan).unwrap();
    let pss = injected.steady_state().unwrap();
    assert!(
        pss.converged,
        "the dense fallback must still close the orbit"
    );
    assert!(
        pss.statistics().gmres_fallbacks > 0,
        "every stagnated Krylov solve must be counted as a fallback"
    );
    let inj = engine.take_fault_injector().unwrap();
    assert!(inj.fired(Fault::KrylovStagnation) > 0);

    for (a, b) in clean_pss
        .result
        .voltage(out)
        .iter()
        .zip(pss.result.voltage(out))
    {
        assert!(
            (a - b).abs() < 1e-6 * a.abs().max(1.0),
            "fallback must converge to the same orbit: {a} vs {b}"
        );
    }
}

#[test]
fn accepted_step_budget_truncates_the_transient_trace() {
    let (circuit, _) = rectifier();
    let mut options = short_options();
    options.budget = SimulationBudget {
        max_accepted_steps: Some(3),
        ..SimulationBudget::UNLIMITED
    };
    let result = TransientAnalysis::new(options).run(&circuit).unwrap();
    assert!(result.truncated(), "the run must flag the cut-off");
    assert_eq!(result.statistics().accepted_steps, 3);
    assert!(
        *result.times().last().unwrap() < options.t_stop,
        "a truncated trace ends before t_stop"
    );

    let unbounded = TransientAnalysis::new(short_options())
        .run(&circuit)
        .unwrap();
    assert!(!unbounded.truncated());
}

#[test]
fn newton_budget_truncates_instead_of_erroring() {
    let (circuit, _) = rectifier();
    let mut options = short_options();
    options.budget = SimulationBudget {
        max_newton_iterations: Some(10),
        ..SimulationBudget::UNLIMITED
    };
    let result = TransientAnalysis::new(options).run(&circuit).unwrap();
    assert!(result.truncated());
    // The budget is checked between steps: the overshoot is bounded by one
    // step's Newton work.
    assert!(result.statistics().newton_iterations < 10 + options.max_newton_iterations);
}

#[test]
fn plan_budget_returns_the_completed_prefix() {
    let (circuit, _) = rectifier();
    let plan = AnalysisPlan::from_cards(vec![
        Analysis::Op(OpOptions::default()),
        Analysis::Tran(short_options()),
        Analysis::Tran(short_options()),
    ])
    .unwrap();

    let mut engine = AnalysisEngine::new();
    let complete = engine
        .run_budgeted(&circuit, &plan, SimulationBudget::UNLIMITED)
        .unwrap();
    assert!(complete.is_complete());
    assert_eq!(complete.results().len(), 3);

    let tight = SimulationBudget {
        max_accepted_steps: Some(2),
        ..SimulationBudget::UNLIMITED
    };
    let outcome = engine.run_budgeted(&circuit, &plan, tight).unwrap();
    let truncation = outcome.truncation().expect("the budget must cut the plan");
    assert_eq!(truncation.card, 2, "the second tran card must not run");
    assert_eq!(truncation.reason, "accepted steps");
    assert_eq!(outcome.results().len(), 2);
    // The budget remainder was threaded into the first tran card, which
    // itself stopped at the boundary with a truncated partial trace.
    let tran = outcome
        .results()
        .transient()
        .expect("tran prefix completed");
    assert!(tran.truncated());
    assert_eq!(outcome.results().statistics().accepted_steps, 2);
}

#[test]
fn step_error_context_names_the_failing_stage() {
    let err = MnaError::StepFailed {
        time: 1.25e-3,
        dt: 1e-12,
        residual: 4.0,
    }
    .with_context("charging-characteristic grid point 3 (clamp 0.600 V)");
    let rendered = format!("{err}");
    assert!(
        rendered.starts_with("charging-characteristic grid point 3"),
        "{rendered}"
    );
    assert!(rendered.contains("1.250000e-3"), "{rendered}");
    match err.root_cause() {
        MnaError::StepFailed { dt, .. } => assert_eq!(*dt, 1e-12),
        other => panic!("root cause must be the step failure, got {other:?}"),
    }
}
