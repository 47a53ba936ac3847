//! Golden equivalence suite for the static analyses of the unified plan
//! engine: the AC small-signal solver against finite-amplitude transient
//! sinusoids, and the DC operating point against long-settle transients of
//! the shipped fixtures — the two cross-engine checks that pin the
//! linearisation (`G`/`C` extraction) and the homotopy-converged equilibria
//! to the already-trusted time-domain engine.

use energy_harvester::experiments::arrays::coupled_array_netlist;
use energy_harvester::mna::analysis::{
    AcOptions, Analysis, AnalysisEngine, AnalysisPlan, AnalysisResults, FrequencySweep, OpOptions,
};
use energy_harvester::mna::circuit::{Circuit, NodeId};
use energy_harvester::mna::devices::{Capacitor, Diode, Resistor, VoltageSource};
use energy_harvester::mna::netlist;
use energy_harvester::mna::transient::{
    IntegrationMethod, SolverBackend, TransientAnalysis, TransientOptions, TransientResult,
};
use energy_harvester::mna::waveform::Waveform;
use harvester_numerics::complex::Complex64;
use std::f64::consts::PI;
use std::path::PathBuf;

fn netlist_file(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/netlists")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Runs a one-card plan on a fresh engine.
fn run_card(circuit: &Circuit, card: Analysis) -> AnalysisResults {
    let plan = AnalysisPlan::from_cards(vec![card]).expect("the card is valid");
    AnalysisEngine::new()
        .run(circuit, &plan)
        .unwrap_or_else(|e| panic!(".{} card must run: {e}", card.kind()))
}

/// Complex amplitude of the `frequency` component of a node trace, projected
/// over the last full excitation period (`samples` uniform steps of `dt`).
/// The rectangle rule on a uniform grid over an exact period is spectrally
/// accurate and annihilates the DC offset and every other harmonic exactly,
/// so ratios of these projections are discretisation-limited transfer
/// functions.
fn project(
    result: &TransientResult,
    node: NodeId,
    frequency: f64,
    dt: f64,
    samples: usize,
) -> Complex64 {
    let trace = result.voltage(node);
    assert!(trace.len() > samples, "trace too short to hold one period");
    let start = trace.len() - samples;
    let mut acc = Complex64::ZERO;
    for k in 0..samples {
        let phase = 2.0 * PI * frequency * ((start + k) as f64) * dt;
        acc += Complex64::new(phase.cos(), -phase.sin()).scale(trace[start + k]);
    }
    acc
}

/// Runs a single-frequency AC analysis and a settled transient on the same
/// circuit and asserts the `out`/`in` transfer functions agree to `tol`
/// (relative, complex). `periods` must out-run every settling time constant.
fn assert_ac_matches_transient(
    circuit: &Circuit,
    frequency: f64,
    steps_per_period: usize,
    periods: usize,
    tol: f64,
) {
    let node_in = circuit.find_node("in").expect("fixture has an 'in' node");
    let node_out = circuit.find_node("out").expect("fixture has an 'out' node");

    let results = run_card(
        circuit,
        Analysis::Ac(AcOptions::new(FrequencySweep::Lin, 1, frequency, frequency)),
    );
    let ac = results.ac().expect("an .ac card yields an AC result");
    assert_eq!(ac.frequencies(), &[frequency]);
    let h_ac = ac.voltage(node_out)[0] / ac.voltage(node_in)[0];

    let period = 1.0 / frequency;
    let dt = period / steps_per_period as f64;
    let tran = TransientAnalysis::new(TransientOptions {
        dt,
        t_stop: periods as f64 * period,
        // The measured signal rides at the excitation amplitude, so Newton
        // must converge far below it for the projection to resolve the
        // transfer function.
        delta_tolerance: 1e-12,
        residual_tolerance: 1e-10,
        ..TransientOptions::default()
    })
    .run(circuit)
    .expect("transient must run");
    let h_tran = project(&tran, node_out, frequency, dt, steps_per_period)
        / project(&tran, node_in, frequency, dt, steps_per_period);

    let err = (h_tran - h_ac).abs() / h_ac.abs();
    assert!(
        err <= tol,
        "AC vs transient transfer mismatch at {frequency} Hz: \
         AC {h_ac}, transient {h_tran}, relative error {err:.3e} > {tol:.1e}"
    );
}

#[test]
fn ac_matches_transient_small_signal_on_rc_lowpass() {
    // Linear RC divider: the transient response *is* the small-signal
    // response at any amplitude, so the comparison is limited only by time
    // discretisation (trapezoidal, 4000 steps/period ⇒ ~2e-7).
    let mut c = Circuit::new();
    let n_in = c.node("in");
    let n_out = c.node("out");
    c.add(
        VoltageSource::new("V1", n_in, Circuit::GROUND, Waveform::sine(1.0, 100.0))
            .with_ac(1.0, 0.0),
    );
    c.add(Resistor::new("R1", n_in, n_out, 1e3));
    c.add(Capacitor::new("C1", n_out, Circuit::GROUND, 1e-6));

    // Sanity: the AC path itself must reproduce the textbook pole.
    let f = 100.0;
    let results = run_card(
        &c,
        Analysis::Ac(AcOptions::new(FrequencySweep::Lin, 1, f, f)),
    );
    let ac = results.ac().expect("an .ac card yields an AC result");
    let h = ac.voltage(n_out)[0] / ac.voltage(n_in)[0];
    let wrc = 2.0 * PI * f * 1e3 * 1e-6;
    let analytic = Complex64::ONE / Complex64::new(1.0, wrc);
    assert!(
        (h - analytic).abs() <= 1e-12,
        "RC pole mismatch: {h} vs analytic {analytic}"
    );

    assert_ac_matches_transient(&c, f, 4000, 4, 1e-6);
}

#[test]
fn ac_matches_transient_small_signal_on_biased_rectifier() {
    // Diode linearised around a forward-biased operating point: a 0.5 V DC
    // bias sets the conductance, a 2e-5 V sinusoid rides on top. The
    // third-order curvature error scales as (δ/2nVt)²·δ ⇒ ~3e-8 relative at
    // this amplitude, far inside the 1e-6 budget, while the amplitude stays
    // ~1e7× above the Newton delta tolerance.
    let mut c = Circuit::new();
    let n_in = c.node("in");
    let n_out = c.node("out");
    let bias = Waveform::Sine {
        offset: 0.5,
        amplitude: 2e-5,
        frequency_hz: 200.0,
        phase_rad: 0.0,
        delay: 0.0,
    };
    c.add(VoltageSource::new("V1", n_in, Circuit::GROUND, bias).with_ac(1.0, 0.0));
    c.add(Diode::new("D1", n_in, n_out));
    c.add(Resistor::new("R1", n_out, Circuit::GROUND, 1e3));
    c.add(Capacitor::new("C1", n_out, Circuit::GROUND, 1e-7));

    assert_ac_matches_transient(&c, 200.0, 4000, 4, 1e-6);
}

#[test]
fn operating_point_matches_long_settle_transient_on_shipped_fixtures() {
    // Freeze each shipped fixture's excitation at a DC level (the capacitors
    // then make every node settle to the same equilibrium the homotopy-based
    // operating point solves for directly) and integrate with L-stable
    // backward Euler at a giant step. The slowest modes are the array's
    // near-zero-bias diode bleeds — C/(Is/Vt + gmin) ≈ 4e5 s — so 2000
    // steps of 1e4 s knock even those below e⁻⁵⁰ of their initial
    // deviation; every pure-RC-plus-diode fixture here is overdamped, so
    // arbitrarily large Euler steps stay stable.
    for (name, from, to) in [
        ("villard.cir", "SIN(0 1 50)", "1"),
        ("transformer_booster.cir", "SIN(0 1 50)", "1"),
        ("coupled_array4.cir", "SIN(0 2.5 1000.0)", "2.5"),
    ] {
        let text = netlist_file(name);
        let frozen = text.replace(from, to);
        assert_ne!(frozen, text, "{name}: source freeze must substitute");
        let circuit = netlist::build(&frozen).expect("frozen fixture must build");

        let results = run_card(&circuit, Analysis::Op(OpOptions::default()));
        let op = results.op().expect("an .op card yields an op result");
        let settle = TransientAnalysis::new(TransientOptions {
            dt: 1e4,
            t_stop: 2e7,
            method: IntegrationMethod::BackwardEuler,
            ..TransientOptions::default()
        })
        .run(&circuit)
        .expect("frozen fixture must settle");

        for node_name in &circuit.node_names()[1..] {
            let node = circuit.find_node(node_name).expect("listed nodes exist");
            let (v_op, v_settle) = (op.voltage(node), settle.final_voltage(node));
            let tol = 1e-6 * v_op.abs().max(1.0);
            assert!(
                (v_op - v_settle).abs() <= tol,
                "{name} node {node_name}: op {v_op} vs settled {v_settle}"
            );
        }
    }
}

#[test]
fn transformer_booster_frequency_response_is_pinned() {
    // The golden frequency-response study of the transformer-booster front
    // end, run exactly as the shipped netlist card drives it (.ac dec 10 1
    // 100k on the fixture's AC-tagged source). The pinned magnitudes pick
    // out the physics: the step-up transformer's ratio-limited plateau at
    // the secondary and the smoothing cap rolling the rectified output off.
    let (circuit, plan) = netlist::build_with_plan(&netlist_file("transformer_booster.cir"))
        .expect("transformer_booster.cir must build with plan");
    let results = AnalysisEngine::new()
        .run(&circuit, &plan)
        .expect("transformer plan must run");
    let ac = results.ac().expect("the fixture carries a .ac card");
    assert_eq!(ac.len(), 51);

    // At this operating point (the source sits at 0 V at t = 0) the bridge
    // diodes are unbiased and symmetric, so the front end divides purely
    // resistively — a flat plateau whose levels pin the lossy-transformer
    // linearisation. Captured from the implementation at introduction time;
    // a drift beyond 1e-9 relative means the linearisation or the sweep
    // grid changed.
    let golden: &[(&str, f64)] = &[
        ("xb.prim", 0.9990551841522123),
        ("xb.sec_raw", 1.2492913881141432),
        ("xb.sec", 1.2483465722663556),
    ];
    for &(name, expected) in golden {
        let node = circuit.find_node(name).expect("fixture names its nodes");
        let magnitudes = ac.magnitude(node);
        for &k in &[0usize, 20, 50] {
            let rel = (magnitudes[k] - expected).abs() / expected;
            assert!(
                rel <= 1e-9,
                "|V({name})| drifted at point {k}: {} vs golden {expected}",
                magnitudes[k]
            );
        }
    }

    // The full-wave symmetry of the unbiased bridge cancels the two
    // half-bridge contributions exactly: no first-order transfer reaches
    // the output at any frequency (rectification is a second-order effect).
    let out = circuit.find_node("out").expect("fixture names out");
    for (k, magnitude) in ac.magnitude(out).iter().enumerate() {
        assert!(
            *magnitude <= 1e-12,
            "bridge null broken at point {k}: |V(out)| = {magnitude}"
        );
    }
}

#[test]
fn ac_sweeps_count_factorisations_by_kind() {
    // The 16-stage array driven small-signal at its generator: a 51-unknown
    // circuit, so the op solves sparse and the phasor system (102 unknowns)
    // sweeps sparse. The sweep factors once at construction and refactors
    // on that pivot order at every point; a dense sweep factors every point.
    let text: String = coupled_array_netlist(16)
        .lines()
        .map(|line| {
            if line.starts_with("Vgen ") {
                format!("{line} AC 1 0\n")
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    let circuit = netlist::build(&text).expect("the array netlist must build");
    let sweep = AcOptions::new(FrequencySweep::Dec, 10, 1.0, 1e6);
    let points = sweep.frequencies().len();
    assert_eq!(points, 61);
    for (backend, full, refactorizations) in [
        (SolverBackend::Auto, 2, points),
        (SolverBackend::Dense, 1 + points, 0),
    ] {
        let plan = AnalysisPlan::from_cards(vec![
            Analysis::Op(OpOptions::default()),
            Analysis::Ac(AcOptions { backend, ..sweep }),
        ])
        .unwrap();
        let results = AnalysisEngine::new().run(&circuit, &plan).unwrap();
        assert_eq!(results.ac().unwrap().len(), points);
        let stats = results.statistics();
        assert_eq!(stats.full_factorizations, full, "{backend:?}");
        assert_eq!(stats.refactorizations, refactorizations, "{backend:?}");
        assert_eq!(stats.repivot_factorizations, 0, "{backend:?}");
    }
}
