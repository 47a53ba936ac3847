//! Voltage-booster subcircuits.
//!
//! Two boosters from the paper are provided as netlist builders:
//!
//! * [`add_villard_multiplier`] — the N-stage Villard voltage multiplier of
//!   Fig. 4 (the paper uses 6 stages for the model-comparison experiment).
//! * [`add_transformer_booster`] — the transformer-based booster of Fig. 9
//!   (step-up transformer with lossy windings followed by a full-wave
//!   rectifier), the circuit used in the optimisation experiment.
//!
//! Both builders take the AC input node produced by a generator model and the
//! storage node, and add the required devices to an existing
//! [`Circuit`]; they return the list of internal node names they created so
//! tests and experiments can probe inside the booster.

use crate::params::{TransformerBoosterParams, VillardParams};
use harvester_mna::circuit::{Circuit, NodeId};
use harvester_mna::devices::{Capacitor, Diode, IdealTransformer, Resistor};

/// Which booster topology to place between the generator and the storage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoosterConfig {
    /// N-stage Villard voltage multiplier (Fig. 4).
    Villard(VillardParams),
    /// Transformer-based booster with a full-wave rectifier (Fig. 9).
    Transformer(TransformerBoosterParams),
}

/// Adds an N-stage Villard voltage multiplier between `input` (AC, referenced
/// to ground) and `output` (DC, referenced to ground).
///
/// Each stage consists of a series pump capacitor and two diodes; even stages
/// reference ground, matching the classic Villard/Cockcroft–Walton ladder of
/// the paper's Fig. 4. Returns the names of the internal ladder nodes.
///
/// # Panics
///
/// Panics if the parameters are invalid (see [`VillardParams::is_valid`]).
pub fn add_villard_multiplier(
    circuit: &mut Circuit,
    prefix: &str,
    input: NodeId,
    output: NodeId,
    params: &VillardParams,
) -> Vec<String> {
    assert!(params.is_valid(), "invalid Villard multiplier parameters");
    let mut internal_nodes = Vec::new();

    // Ladder construction: the "pump" rail alternates between the AC input
    // side and the DC side. Stage k creates one new pump node and one new DC
    // node; the final DC node is tied to `output` through the last diode.
    let mut dc_prev = Circuit::GROUND;
    let mut ac_prev = input;
    for stage in 0..params.stages {
        let pump_name = format!("{prefix}_pump{stage}");
        let dc_name = format!("{prefix}_dc{stage}");
        let pump = circuit.node(&pump_name);
        let dc = if stage == params.stages - 1 {
            output
        } else {
            let n = circuit.node(&dc_name);
            internal_nodes.push(dc_name);
            n
        };
        internal_nodes.push(pump_name);

        circuit.add(Capacitor::new(
            &format!("{prefix}_Cpump{stage}"),
            ac_prev,
            pump,
            params.stage_capacitance,
        ));
        circuit.add(Diode::with_parameters(
            &format!("{prefix}_Dlow{stage}"),
            dc_prev,
            pump,
            params.diode_saturation_current,
            params.diode_emission_coefficient,
        ));
        circuit.add(Diode::with_parameters(
            &format!("{prefix}_Dhigh{stage}"),
            pump,
            dc,
            params.diode_saturation_current,
            params.diode_emission_coefficient,
        ));
        if stage != params.stages - 1 {
            circuit.add(Capacitor::new(
                &format!("{prefix}_Cdc{stage}"),
                dc,
                Circuit::GROUND,
                params.stage_capacitance,
            ));
        }
        dc_prev = dc;
        ac_prev = pump;
    }
    internal_nodes
}

/// Adds the transformer-based booster of Fig. 9 between `input` (AC,
/// referenced to ground) and `output` (DC, referenced to ground): primary
/// winding resistance, ideal step-up transformer, secondary winding
/// resistance, full-wave diode bridge and a smoothing capacitor.
///
/// Returns the names of the internal nodes it created.
///
/// # Panics
///
/// Panics if the parameters are invalid
/// (see [`TransformerBoosterParams::is_valid`]).
pub fn add_transformer_booster(
    circuit: &mut Circuit,
    prefix: &str,
    input: NodeId,
    output: NodeId,
    params: &TransformerBoosterParams,
) -> Vec<String> {
    assert!(params.is_valid(), "invalid transformer booster parameters");
    let prim = format!("{prefix}_prim");
    let sec_raw = format!("{prefix}_sec_raw");
    let sec = format!("{prefix}_sec");
    let bridge_neg = format!("{prefix}_bridge_neg");
    let n_prim = circuit.node(&prim);
    let n_sec_raw = circuit.node(&sec_raw);
    let n_sec = circuit.node(&sec);
    let n_bridge_neg = circuit.node(&bridge_neg);

    // Primary side: winding resistance then the ideal transformer.
    circuit.add(Resistor::new(
        &format!("{prefix}_Rprim"),
        input,
        n_prim,
        params.primary_resistance,
    ));
    circuit.add(IdealTransformer::new(
        &format!("{prefix}_T"),
        n_prim,
        Circuit::GROUND,
        n_sec_raw,
        n_bridge_neg,
        params.ratio(),
    ));
    // Secondary winding resistance.
    circuit.add(Resistor::new(
        &format!("{prefix}_Rsec"),
        n_sec_raw,
        n_sec,
        params.secondary_resistance,
    ));
    // Full-wave bridge: the secondary floats between `n_sec` and
    // `n_bridge_neg`; the rectified output is taken against ground.
    let is = params.diode_saturation_current;
    circuit.add(Diode::with_parameters(
        &format!("{prefix}_D1"),
        n_sec,
        output,
        is,
        1.05,
    ));
    circuit.add(Diode::with_parameters(
        &format!("{prefix}_D2"),
        Circuit::GROUND,
        n_sec,
        is,
        1.05,
    ));
    circuit.add(Diode::with_parameters(
        &format!("{prefix}_D3"),
        n_bridge_neg,
        output,
        is,
        1.05,
    ));
    circuit.add(Diode::with_parameters(
        &format!("{prefix}_D4"),
        Circuit::GROUND,
        n_bridge_neg,
        is,
        1.05,
    ));
    // Smoothing capacitor at the rectifier output.
    circuit.add(Capacitor::new(
        &format!("{prefix}_Csmooth"),
        output,
        Circuit::GROUND,
        params.smoothing_capacitance,
    ));
    // Winding-to-ground leakage resistances. Physically these model the
    // transformer's insulation/parasitic path to the frame; numerically they
    // anchor the common-mode voltage of the otherwise floating secondary when
    // all four bridge diodes are reverse-biased.
    circuit.add(Resistor::new(
        &format!("{prefix}_Rleak_sec"),
        n_sec,
        Circuit::GROUND,
        50e6,
    ));
    circuit.add(Resistor::new(
        &format!("{prefix}_Rleak_neg"),
        n_bridge_neg,
        Circuit::GROUND,
        50e6,
    ));
    vec![prim, sec_raw, sec, bridge_neg]
}

/// Adds the booster described by `config` between `input` and `output`.
pub(crate) fn add_booster(
    circuit: &mut Circuit,
    prefix: &str,
    input: NodeId,
    output: NodeId,
    config: &BoosterConfig,
) -> Vec<String> {
    match config {
        BoosterConfig::Villard(p) => add_villard_multiplier(circuit, prefix, input, output, p),
        BoosterConfig::Transformer(p) => add_transformer_booster(circuit, prefix, input, output, p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvester_mna::devices::VoltageSource;
    use harvester_mna::transient::{TransientAnalysis, TransientOptions};
    use harvester_mna::waveform::Waveform;

    fn driven_booster(config: &BoosterConfig, amplitude: f64, cycles: f64) -> f64 {
        let mut c = Circuit::new();
        let ac = c.node("ac");
        let out = c.node("out");
        let freq = 50.0;
        c.add(VoltageSource::new(
            "Vac",
            ac,
            Circuit::GROUND,
            Waveform::sine(amplitude, freq),
        ));
        add_booster(&mut c, "B", ac, out, config);
        c.add(Capacitor::new("Cload", out, Circuit::GROUND, 10e-6));
        c.add(Resistor::new("Rload", out, Circuit::GROUND, 1e6));
        let result = TransientAnalysis::new(TransientOptions {
            t_stop: cycles / freq,
            dt: 2e-5,
            ..TransientOptions::default()
        })
        .run(&c)
        .unwrap();
        result.final_voltage(out)
    }

    #[test]
    fn villard_multiplier_boosts_well_above_the_input_peak() {
        let v = driven_booster(
            &BoosterConfig::Villard(VillardParams::paper_six_stage()),
            1.0,
            60.0,
        );
        // An ideal 6-stage multiplier reaches 12×; diode drops take a big
        // bite at 1 V input, but the output must exceed the input peak
        // several times over.
        assert!(v > 2.5, "6-stage Villard output too low: {v}");
        assert!(v < 12.0);
    }

    #[test]
    fn villard_output_grows_with_stage_count() {
        // Drive hard enough that the per-stage diode drops do not dominate and
        // use small pump capacitors so the ladders approach steady state
        // within the simulated window. A single-stage doubler tops out below
        // 2× the input peak, so the three-stage ladder exceeding that ceiling
        // demonstrates the multiplication even before full settling.
        let fast = VillardParams {
            stage_capacitance: 2.2e-6,
            ..VillardParams::paper_six_stage()
        };
        let one = driven_booster(
            &BoosterConfig::Villard(VillardParams { stages: 1, ..fast }),
            2.5,
            120.0,
        );
        let three = driven_booster(
            &BoosterConfig::Villard(VillardParams { stages: 3, ..fast }),
            2.5,
            120.0,
        );
        assert!(
            one < 2.0 * 2.5,
            "a single stage cannot exceed twice the peak: {one}"
        );
        assert!(
            three > 1.4 * one,
            "more stages must boost substantially more: {three} vs {one}"
        );
    }

    #[test]
    fn transformer_booster_steps_up_and_rectifies() {
        let params = TransformerBoosterParams::unoptimised();
        let v = driven_booster(&BoosterConfig::Transformer(params), 1.0, 40.0);
        // Ratio 2.5 on a 1 V peak gives 2.5 V minus two diode drops and the
        // winding losses.
        assert!(v > 1.0, "transformer booster output too low: {v}");
        assert!(v < 2.5);
    }

    #[test]
    fn optimised_transformer_has_lower_loss_for_the_same_source() {
        // With identical ideal drive the optimised windings lose less in
        // their resistance, but their lower ratio steps up less; the circuit
        // must still deliver a sensible DC output.
        let v = driven_booster(
            &BoosterConfig::Transformer(TransformerBoosterParams::optimised_paper()),
            1.0,
            40.0,
        );
        assert!(v > 0.8 && v < 2.0, "optimised booster output: {v}");
    }

    #[test]
    #[should_panic(expected = "invalid Villard multiplier parameters")]
    fn invalid_villard_parameters_panic() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let bad = VillardParams {
            stages: 0,
            ..VillardParams::paper_six_stage()
        };
        let _ = add_villard_multiplier(&mut c, "B", a, b, &bad);
    }
}
