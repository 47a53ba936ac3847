//! Golden accuracy suite for the adaptive (LTE-controlled) time stepper.
//!
//! Every fixture is simulated twice: once with [`StepControl::adaptive`] at
//! its default tolerances and once with fixed stepping at a 16× finer grid
//! (the "tight reference"). The adaptive trace, sampled on a uniform
//! recording grid by the engine's dense output, must stay within a small
//! multiple of the adaptive tolerance of the reference everywhere — growing
//! the step far beyond the nominal `dt` on smooth stretches is only
//! admissible because these bounds hold.

use harvester_mna::circuit::{Circuit, NodeId};
use harvester_mna::devices::{Capacitor, Diode, IdealTransformer, Resistor, VoltageSource};
use harvester_mna::transient::{StepControl, TransientAnalysis, TransientOptions, TransientResult};
use harvester_mna::waveform::Waveform;

const DT: f64 = 2e-6;
const T_STOP: f64 = 2e-3;
const RECORD: f64 = 2e-5;

fn run(circuit: &Circuit, dt: f64, step_control: StepControl) -> TransientResult {
    TransientAnalysis::new(TransientOptions {
        t_stop: T_STOP,
        dt,
        record_interval: Some(RECORD),
        step_control,
        ..TransientOptions::default()
    })
    .run(circuit)
    .expect("golden fixture must simulate")
}

/// Worst absolute deviation of `probe`'s voltage between the adaptive run
/// and the tight reference, compared at the adaptive run's own sample times
/// via the reference's interpolation accessor.
fn worst_error(circuit: &Circuit, probe: NodeId) -> (f64, f64) {
    let reference = run(circuit, DT / 16.0, StepControl::Fixed);
    let adaptive = run(circuit, DT, StepControl::adaptive());
    let mut worst = 0.0f64;
    for (&t, v) in adaptive.times().iter().zip(adaptive.voltage(probe)) {
        worst = worst.max((v - reference.voltage_at(probe, t)).abs());
    }
    let speedup = reference.statistics().newton_iterations as f64
        / adaptive.statistics().newton_iterations as f64;
    (worst, speedup)
}

fn rc_lowpass() -> (Circuit, NodeId) {
    let mut c = Circuit::new();
    let vin = c.node("in");
    let out = c.node("out");
    c.add(VoltageSource::new(
        "V",
        vin,
        Circuit::GROUND,
        Waveform::sine(1.0, 1000.0),
    ));
    c.add(Resistor::new("R", vin, out, 1e3));
    c.add(Capacitor::new("C", out, Circuit::GROUND, 1e-7));
    (c, out)
}

fn half_wave_rectifier() -> (Circuit, NodeId) {
    let mut c = Circuit::new();
    let vin = c.node("in");
    let out = c.node("out");
    c.add(VoltageSource::new(
        "V",
        vin,
        Circuit::GROUND,
        Waveform::sine(3.0, 1000.0),
    ));
    c.add(Diode::new("D", vin, out));
    c.add(Capacitor::new("C", out, Circuit::GROUND, 4.7e-7));
    c.add(Resistor::new("Rload", out, Circuit::GROUND, 10e3));
    (c, out)
}

fn transformer_rectifier() -> (Circuit, NodeId) {
    let mut c = Circuit::new();
    let vin = c.node("in");
    let sec = c.node("sec");
    let out = c.node("out");
    c.add(VoltageSource::new(
        "V",
        vin,
        Circuit::GROUND,
        Waveform::sine(0.5, 1000.0),
    ));
    c.add(IdealTransformer::new(
        "T",
        vin,
        Circuit::GROUND,
        sec,
        Circuit::GROUND,
        5.0,
    ));
    c.add(Diode::new("D", sec, out));
    c.add(Capacitor::new("C", out, Circuit::GROUND, 2.2e-7));
    c.add(Resistor::new("Rload", out, Circuit::GROUND, 22e3));
    (c, out)
}

#[test]
fn adaptive_rc_trace_matches_tight_reference() {
    let (c, out) = rc_lowpass();
    let (worst, speedup) = worst_error(&c, out);
    assert!(
        worst < 2e-3,
        "adaptive RC trace must track the tight reference, worst error {worst:.3e}"
    );
    assert!(
        speedup > 8.0,
        "adaptive must massively undercut a 16x-tight fixed run, got {speedup:.2}x"
    );
}

#[test]
fn adaptive_rectifier_trace_matches_tight_reference() {
    let (c, out) = half_wave_rectifier();
    let (worst, speedup) = worst_error(&c, out);
    assert!(
        worst < 6e-3,
        "adaptive rectifier trace must track the tight reference, worst error {worst:.3e}"
    );
    assert!(speedup > 4.0, "got {speedup:.2}x");
}

#[test]
fn adaptive_transformer_trace_matches_tight_reference() {
    let (c, out) = transformer_rectifier();
    let (worst, speedup) = worst_error(&c, out);
    assert!(
        worst < 6e-3,
        "adaptive transformer trace must track the tight reference, worst error {worst:.3e}"
    );
    assert!(speedup > 4.0, "got {speedup:.2}x");
}

/// Tightening `reltol` must monotonically (up to a small slack) reduce the
/// worst trace error against the analytic RC charging solution, and the
/// tightest setting must beat the loosest by a clear margin.
#[test]
fn tightening_reltol_monotonically_reduces_rc_error() {
    let mut c = Circuit::new();
    let vin = c.node("in");
    let out = c.node("out");
    c.add(VoltageSource::new(
        "V",
        vin,
        Circuit::GROUND,
        Waveform::dc(1.0),
    ));
    c.add(Resistor::new("R", vin, out, 1e3));
    c.add(Capacitor::new("C", out, Circuit::GROUND, 1e-6));
    let rc = 1e3 * 1e-6;

    let worst_vs_analytic = |reltol: f64| -> f64 {
        let result = TransientAnalysis::new(TransientOptions {
            t_stop: 5e-3,
            dt: 1e-6,
            record_interval: Some(5e-5),
            step_control: StepControl::Adaptive {
                reltol,
                abstol: 1e-9,
            },
            ..TransientOptions::default()
        })
        .run(&c)
        .unwrap();
        let mut worst = 0.0f64;
        for (&t, v) in result.times().iter().zip(result.voltage(out)) {
            worst = worst.max((v - (1.0 - (-t / rc).exp())).abs());
        }
        worst
    };

    let reltols = [1e-2, 1e-3, 1e-4, 1e-5];
    let errors: Vec<f64> = reltols.iter().map(|&r| worst_vs_analytic(r)).collect();
    for (pair, (ra, rb)) in errors
        .windows(2)
        .zip(reltols.windows(2).map(|w| (w[0], w[1])))
    {
        assert!(
            pair[1] <= pair[0] * 1.2 + 1e-12,
            "tightening reltol {ra:.0e} -> {rb:.0e} must not increase the error: \
             {:.3e} -> {:.3e}",
            pair[0],
            pair[1]
        );
    }
    assert!(
        errors[reltols.len() - 1] < errors[0] / 10.0,
        "three decades of reltol must buy at least one decade of accuracy: {errors:?}"
    );
}

/// The `StepControl::Fixed` path must be deterministic: same step count and
/// same samples as a second identical run. Statistics must show the LTE
/// counter untouched, and the predictor engaged on every step after the
/// first except under classical full Newton.
#[test]
fn fixed_control_is_deterministic_with_silent_adaptive_counters() {
    let (c, out) = half_wave_rectifier();
    let a = run(&c, DT, StepControl::Fixed);
    let b = run(&c, DT, StepControl::Fixed);
    assert_eq!(a.times(), b.times());
    for (x, y) in a.voltage(out).iter().zip(b.voltage(out)) {
        assert_eq!(*x, y);
    }
    assert_eq!(a.statistics(), b.statistics());
    assert_eq!(a.statistics().lte_rejections, 0);
    assert_eq!(
        a.statistics().predicted_steps,
        a.statistics().accepted_steps - 1
    );
    let classical = TransientAnalysis::new(TransientOptions {
        t_stop: T_STOP,
        dt: DT,
        record_interval: Some(RECORD),
        reuse_jacobian: false,
        ..TransientOptions::default()
    })
    .run(&c)
    .expect("golden fixture must simulate");
    assert_eq!(classical.statistics().predicted_steps, 0);
}
