//! Fixed vs adaptive time-stepping benchmarks for the transient engine.
//!
//! Two layers:
//!
//! * `<fixture>_{fixed,adaptive}` transients on the RC ladder, the half-wave
//!   diode rectifier, the Villard harvester and the transformer harvester;
//! * a deterministic work-count comparison on the two harvester **envelope
//!   fixtures** (the hot loop of every optimisation run), written to
//!   `BENCH_transient.json` so CI archives the perf trajectory across PRs:
//!   accepted steps, Newton iterations, full factorisations, LTE rejections
//!   and wall seconds per mode, plus the Newton-reduction ratio.
//!
//! The Villard envelope fixture is the PR's acceptance benchmark: adaptive
//! stepping must cut total Newton iterations at least 3× at equal measured
//! accuracy (also asserted, with slack, by `tests/adaptive_golden.rs` in
//! release mode).

use harvester_bench::report::{self, BenchRecord};
use harvester_bench::{rc_ladder, transformer_harvester, villard_harvester};
use harvester_core::envelope::{
    ChargingCharacteristic, EnvelopeOptions, EnvelopeSimulator, SteadyState,
};
use harvester_core::system::HarvesterConfig;
use harvester_core::GeneratorModel;
use harvester_mna::circuit::{Circuit, NodeId};
use harvester_mna::devices::{Capacitor, Diode, Resistor, VoltageSource};
use harvester_mna::transient::{
    SolverBackend, StepControl, TransientAnalysis, TransientOptions, TransientResult,
};
use harvester_mna::waveform::Waveform;

fn rectifier() -> (Circuit, NodeId) {
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

fn options(step_control: StepControl) -> TransientOptions {
    TransientOptions {
        t_stop: 5e-3,
        dt: 2e-6,
        record_interval: Some(5e-5),
        step_control,
        ..TransientOptions::default()
    }
}

fn step_control_comparison() {
    let (ladder, _) = rc_ladder(16);
    let (rect, _) = rectifier();
    let (villard, _) = villard_harvester().build();
    let (transformer, _) = transformer_harvester().build();
    let harvester_options = TransientOptions {
        t_stop: 0.1,
        dt: 1e-4,
        record_interval: Some(1e-3),
        ..TransientOptions::default()
    };
    for (name, circuit, base_options) in [
        ("rc_ladder16", &ladder, options(StepControl::Fixed)),
        ("rectifier", &rect, options(StepControl::Fixed)),
        ("villard_harvester", &villard, harvester_options),
        ("transformer_harvester", &transformer, harvester_options),
    ] {
        let controls = [StepControl::Fixed, StepControl::adaptive()];
        let names = [format!("{name}_fixed"), format!("{name}_adaptive")];
        report::time(names, TransientResult::statistics, |k| {
            TransientAnalysis::new(TransientOptions {
                step_control: controls[k],
                ..base_options
            })
            .run(circuit)
            .expect("bench fixture must simulate")
        });
    }
}

fn envelope_options(step_control: StepControl) -> EnvelopeOptions {
    EnvelopeOptions {
        voltage_points: 5,
        max_voltage: 3.0,
        settle_cycles: 30.0,
        measure_cycles: 8.0,
        detail_dt: 1e-4,
        horizon: 600.0,
        output_points: 50,
        backend: SolverBackend::Auto,
        step_control,
        // This bench isolates the time-stepper: both modes march the full
        // settle window (the PSS engine has its own bench).
        steady_state: SteadyState::BruteForce,
        ..EnvelopeOptions::default()
    }
}

/// Deterministic work-count comparison on the harvester envelope fixtures,
/// emitted as `BENCH_transient.json`.
fn envelope_work_comparison() {
    let mut records = Vec::new();
    for (fixture, config) in [
        (
            "villard_envelope",
            HarvesterConfig::model_comparison(GeneratorModel::Analytical),
        ),
        ("transformer_envelope", HarvesterConfig::unoptimised()),
    ] {
        let controls = [StepControl::Fixed, StepControl::adaptive_averaging()];
        let names = [format!("{fixture}_fixed"), format!("{fixture}_adaptive")];
        let runs = report::time(names.each_ref(), ChargingCharacteristic::statistics, |k| {
            EnvelopeSimulator::new(config.clone(), envelope_options(controls[k]))
                .measure_characteristic()
                .expect("envelope fixture must simulate")
        });
        let mut newton = [0usize; 2];
        for (k, (name, (characteristic, wall))) in names.iter().zip(&runs).enumerate() {
            let stats = characteristic.statistics();
            newton[k] = stats.newton_iterations;
            println!(
                "  {name}: {} newton iterations, {} accepted steps, {} LTE rejections",
                stats.newton_iterations, stats.accepted_steps, stats.lte_rejections
            );
            records.push(
                report::statistics_record(name.as_str(), &stats, *wall)
                    .metric("i_at_0v_amperes", characteristic.current_at(0.0)),
            );
        }
        let ratio = newton[0] as f64 / newton[1] as f64;
        println!("  {fixture}: adaptive cuts Newton work {ratio:.2}x");
        records
            .push(BenchRecord::new(format!("{fixture}_ratio")).metric("newton_reduction", ratio));
    }
    report::emit("transient", &records);
}

fn main() {
    println!("transient (machine readable -> BENCH_transient.json)");
    step_control_comparison();
    envelope_work_comparison();
}
