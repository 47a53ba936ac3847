//! End-to-end acceptance suite for adaptive time stepping on the paper's
//! harvester fixtures.
//!
//! The headline guarantee: on the paper's Fig. 5 harvester (analytical
//! micro-generator + Villard multiplier), the envelope measurement under
//! [`StepControl::adaptive_averaging`] reproduces the charging
//! characteristic of a tight fixed-step reference to well under a
//! microampere while spending **at least 3× fewer Newton iterations** than
//! the production fixed-step configuration it replaces. The heavy
//! comparisons are `#[ignore]`d in debug builds (the tight reference alone
//! is ~300k time steps) and run in the release-mode CI job.

use energy_harvester::mna::transient::StepControl;
use energy_harvester::models::envelope::{EnvelopeOptions, EnvelopeSimulator, SteadyState};
use energy_harvester::models::system::HarvesterConfig;
use energy_harvester::models::{GeneratorModel, SolverBackend};
use proptest::prelude::*;

fn envelope_options(step_control: StepControl, detail_dt: f64) -> EnvelopeOptions {
    EnvelopeOptions {
        voltage_points: 5,
        max_voltage: 3.0,
        settle_cycles: 30.0,
        measure_cycles: 8.0,
        detail_dt,
        horizon: 600.0,
        output_points: 50,
        backend: SolverBackend::Auto,
        step_control,
        // This suite pins the step-control contract, so it stays on the
        // marching path (the shooting engine has its own golden suite) and
        // on classical full Newton: the modified-Newton bypass deliberately
        // trades extra factorisation-free iterations for fewer
        // factorisations, which would dilute the raw iteration-count ratio
        // this suite asserts (it has its own suite in
        // `crates/mna/tests/jacobian_reuse.rs`).
        steady_state: SteadyState::BruteForce,
        reuse_jacobian: false,
    }
}

/// The acceptance criterion of the adaptive-stepping PR, asserted with
/// slack: ≥3× fewer Newton iterations than fixed stepping at the nominal
/// `detail_dt`, with every measured charging current within 1e-6 A of the
/// 8×-tight fixed-step reference (measured margin is ~8×: ≈1.2e-7 A).
#[test]
#[cfg_attr(debug_assertions, ignore = "tight reference is release-scale work")]
fn adaptive_envelope_cuts_newton_work_3x_on_the_villard_harvester() {
    let config = HarvesterConfig::model_comparison(GeneratorModel::Analytical);
    let dt = 1e-4;

    let tight = EnvelopeSimulator::new(
        config.clone(),
        envelope_options(StepControl::Fixed, dt / 8.0),
    )
    .measure_characteristic()
    .unwrap();
    let fixed = EnvelopeSimulator::new(config.clone(), envelope_options(StepControl::Fixed, dt))
        .measure_characteristic()
        .unwrap();
    let adaptive = EnvelopeSimulator::new(
        config,
        envelope_options(StepControl::adaptive_averaging(), dt),
    )
    .measure_characteristic()
    .unwrap();

    for ((v, i_tight), ((_, i_fixed), (_, i_adaptive))) in
        tight.points().zip(fixed.points().zip(adaptive.points()))
    {
        assert!(
            (i_adaptive - i_tight).abs() <= 1e-6,
            "adaptive current at {v} V must stay within 1e-6 A of the tight reference: \
             {i_adaptive:.6e} vs {i_tight:.6e}"
        );
        assert!(
            (i_fixed - i_tight).abs() <= 1e-6,
            "fixed baseline at {v} V drifted from its own tight reference: \
             {i_fixed:.6e} vs {i_tight:.6e}"
        );
    }

    let fixed_work = fixed.statistics().newton_iterations;
    let adaptive_work = adaptive.statistics().newton_iterations;
    assert!(
        adaptive_work * 3 <= fixed_work,
        "adaptive must cut total Newton iterations at least 3x on the Villard envelope \
         fixture: {adaptive_work} vs {fixed_work} ({:.2}x)",
        fixed_work as f64 / adaptive_work as f64
    );
    assert!(adaptive.statistics().predicted_steps > 0);
    assert_eq!(fixed.statistics().lte_rejections, 0);
}

/// The transformer-booster harvester (narrow rectifier conduction pulses,
/// the least LTE-friendly fixture in the repo) must still come out ahead of
/// fixed stepping and stay within the same 1e-6 A accuracy envelope.
#[test]
#[cfg_attr(debug_assertions, ignore = "tight reference is release-scale work")]
fn adaptive_envelope_still_wins_on_the_transformer_harvester() {
    let config = HarvesterConfig::unoptimised();
    let dt = 1e-4;
    let tight = EnvelopeSimulator::new(
        config.clone(),
        envelope_options(StepControl::Fixed, dt / 8.0),
    )
    .measure_characteristic()
    .unwrap();
    let fixed = EnvelopeSimulator::new(config.clone(), envelope_options(StepControl::Fixed, dt))
        .measure_characteristic()
        .unwrap();
    let adaptive = EnvelopeSimulator::new(
        config,
        envelope_options(StepControl::adaptive_averaging(), dt),
    )
    .measure_characteristic()
    .unwrap();
    for ((v, i_tight), (_, i_adaptive)) in tight.points().zip(adaptive.points()) {
        assert!(
            (i_adaptive - i_tight).abs() <= 1.5e-6,
            "adaptive current at {v} V: {i_adaptive:.6e} vs tight {i_tight:.6e}"
        );
    }
    assert!(
        adaptive.statistics().newton_iterations < fixed.statistics().newton_iterations,
        "adaptive must not lose to fixed even on the rectifier-pulse fixture: {} vs {}",
        adaptive.statistics().newton_iterations,
        fixed.statistics().newton_iterations
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomised RC fixtures: tightening `reltol` by two decades never
    /// increases the worst error against the analytic solution, and the
    /// adaptive trace stays within a tolerance-scaled bound of it.
    #[test]
    fn tighter_reltol_is_never_less_accurate_on_random_rc(
        r_kohm in 0.2f64..5.0,
        c_uf in 0.1f64..2.0,
    ) {
        use energy_harvester::mna::circuit::Circuit;
        use energy_harvester::mna::devices::{Capacitor, Resistor, VoltageSource};
        use energy_harvester::mna::transient::{TransientAnalysis, TransientOptions};
        use energy_harvester::mna::waveform::Waveform;

        let r = r_kohm * 1e3;
        let cap = c_uf * 1e-6;
        let tau = r * cap;
        let mut circuit = Circuit::new();
        let vin = circuit.node("in");
        let out = circuit.node("out");
        circuit.add(VoltageSource::new("V", vin, Circuit::GROUND, Waveform::dc(1.0)));
        circuit.add(Resistor::new("R", vin, out, r));
        circuit.add(Capacitor::new("C", out, Circuit::GROUND, cap));

        let worst = |reltol: f64| -> f64 {
            let result = TransientAnalysis::new(TransientOptions {
                t_stop: 3.0 * tau,
                dt: tau / 500.0,
                record_interval: Some(tau / 20.0),
                step_control: StepControl::Adaptive {
                    reltol,
                    abstol: 1e-9,
                    max_dt: f64::INFINITY,
                },
                ..TransientOptions::default()
            })
            .run(&circuit)
            .unwrap();
            let mut w = 0.0f64;
            for (&t, v) in result.times().iter().zip(result.voltage(out)) {
                w = w.max((v - (1.0 - (-t / tau).exp())).abs());
            }
            w
        };
        let loose = worst(1e-2);
        let tight = worst(1e-4);
        prop_assert!(tight <= loose * 1.2 + 1e-12,
            "reltol 1e-4 must not be less accurate than 1e-2: {tight:.3e} vs {loose:.3e}");
        prop_assert!(loose < 2e-2, "even loose adaptive stays near the analytic RC: {loose:.3e}");
    }
}
