//! Coupled harvester-array fixtures: `N` Villard charge pumps driven by one
//! shared electromechanical source network.
//!
//! The paper's evaluation treats a *single* harvester; arrays of loosely
//! coupled harvesters (one generator exciting many rectifier stages through
//! a shared bus) are the natural scaling axis for the periodic-steady-state
//! machinery, because the monodromy matrix grows with the stage count while
//! each stage's physics stays identical. [`coupled_array`] builds exactly
//! that family: the unknown count grows linearly in `n` (three unknowns per
//! stage plus the shared bus and source branch), so a formed monodromy
//! matrix would grow quadratically. The shooting engine never forms it: it
//! solves the closure update by GMRES over the banked period chain, one
//! back-substitution per step per matvec, with a matvec count that does not
//! grow with `n` (see [`harvester_mna::shooting`]).
//!
//! Every stage is deterministically detuned (component spread derived from a
//! golden-ratio low-discrepancy sequence, no RNG involved) so the array is
//! not a block-diagonal repetition of one stage: the coupling resistors make
//! the stages interact through the bus voltage, and the spread keeps their
//! diode conduction windows from coinciding.

use harvester_mna::analysis::{Analysis, AnalysisPlan};
use harvester_mna::circuit::{Circuit, NodeId};
use harvester_mna::devices::{Capacitor, Diode, Resistor, VoltageSource};
use harvester_mna::shooting::SteadyStateOptions;
use harvester_mna::transient::TransientOptions;
use harvester_mna::waveform::Waveform;

/// Excitation frequency of the shared generator (Hz).
pub const ARRAY_FREQUENCY_HZ: f64 = 1_000.0;

/// A [`coupled_array`] fixture: the circuit plus the handles a measurement
/// needs.
#[derive(Debug)]
pub struct CoupledArray {
    /// The assembled circuit.
    pub circuit: Circuit,
    /// The shared generator bus node.
    pub bus: NodeId,
    /// Per-stage rectified output nodes, in stage order.
    pub outputs: Vec<NodeId>,
    /// The excitation period in seconds (shared by every stage).
    pub period: f64,
}

impl CoupledArray {
    /// Steady-state options tuned for this fixture: fixed step, 100 steps
    /// per period, one warm-up cycle (the detuned stages start from rest and
    /// the shooting updates do the settling) and a tight closure tolerance —
    /// array measurements difference per-stage outputs, so the orbit must
    /// close well below the inter-stage spread.
    pub fn steady_state_options(&self) -> SteadyStateOptions {
        let mut options = SteadyStateOptions::new(self.period);
        options.transient.dt = self.period / 100.0;
        options.warmup_cycles = 1.0;
        options.tolerance = 1e-9;
        options
    }

    /// Transient options of the fixture's settling study: five excitation
    /// periods at the golden-suite step — the workload
    /// `tests/netlist_golden.rs` pins bit-identically against the shipped
    /// `coupled_array4.cir`.
    pub fn transient_options(&self) -> TransientOptions {
        TransientOptions {
            dt: 2e-5,
            t_stop: 5.0 * self.period,
            ..TransientOptions::default()
        }
    }

    /// The fixture's canonical [`AnalysisPlan`]: the settling transient
    /// ([`CoupledArray::transient_options`]) followed by the shooting
    /// periodic steady state ([`CoupledArray::steady_state_options`]).
    /// [`coupled_array_netlist`] renders the same plan as `.tran`/`.pss`
    /// cards, so the shipped fixture runs the identical study end-to-end
    /// from text.
    pub fn analysis_plan(&self) -> AnalysisPlan {
        AnalysisPlan::from_cards(vec![
            Analysis::Tran(self.transient_options()),
            Analysis::Pss(self.steady_state_options()),
        ])
        .expect("fixture analysis options are valid by construction")
    }
}

/// Deterministic per-stage detuning factor in `[0.9, 1.1)`: the fractional
/// part of `k·φ` (golden-ratio sequence) is low-discrepancy, so any prefix
/// of stages spreads evenly over the band instead of clustering.
fn detune(stage: usize, salt: usize) -> f64 {
    const PHI: f64 = 0.618_033_988_749_894_9;
    let u = ((stage * 3 + salt + 1) as f64 * PHI).fract();
    0.9 + 0.2 * u
}

/// Builds an `n`-stage coupled harvester array.
///
/// Topology: a sinusoidal generator (amplitude 2.5 V at
/// [`ARRAY_FREQUENCY_HZ`]) with an internal source resistance feeds a shared
/// `bus` node. Each stage hangs off the bus through its own coupling
/// resistor and is a single-stage Villard charge pump: a series pump
/// capacitor into a diode clamp, a series diode into the stage's storage
/// capacitor, and a load resistor across the storage capacitor. Component
/// values carry a deterministic ±10 % spread (see module docs).
///
/// The returned system has `3·n + 2` unknowns (`in`, `pump`, `out` per
/// stage, the bus voltage and the generator branch current).
///
/// # Panics
///
/// Panics if `n` is zero — an array needs at least one stage.
pub fn coupled_array(n: usize) -> CoupledArray {
    assert!(n > 0, "a coupled array needs at least one stage");
    let mut circuit = Circuit::new();
    // Stage nodes are numbered before the shared gen/bus pair on purpose:
    // the sparse LU eliminates unknowns in numbering order, and the bus
    // couples to every stage, so eliminating it early would fill the whole
    // matrix (arrowhead pointing the wrong way). Numbered last, the
    // per-stage blocks eliminate with local fill and the coupling entries
    // only densify the two final rows/columns.
    let stage_nodes: Vec<(NodeId, NodeId, NodeId)> = (0..n)
        .map(|stage| {
            (
                circuit.node(&format!("in{stage}")),
                circuit.node(&format!("pump{stage}")),
                circuit.node(&format!("out{stage}")),
            )
        })
        .collect();
    let source = circuit.node("gen");
    let bus = circuit.node("bus");
    circuit.add(VoltageSource::new(
        "Vgen",
        source,
        Circuit::GROUND,
        Waveform::sine(2.5, ARRAY_FREQUENCY_HZ),
    ));
    // The generator's internal (mechanical damping) resistance: the shared
    // impedance through which the stages load each other.
    circuit.add(Resistor::new("Rgen", source, bus, 25.0));

    let mut outputs = Vec::with_capacity(n);
    for (stage, &(input, pump, out)) in stage_nodes.iter().enumerate() {
        circuit.add(Resistor::new(
            &format!("Rc{stage}"),
            bus,
            input,
            50.0 * detune(stage, 0),
        ));
        circuit.add(Capacitor::new(
            &format!("Cp{stage}"),
            input,
            pump,
            1e-7 * detune(stage, 1),
        ));
        circuit.add(Diode::new(&format!("Dc{stage}"), Circuit::GROUND, pump));
        circuit.add(Diode::new(&format!("Ds{stage}"), pump, out));
        circuit.add(Capacitor::new(
            &format!("Cs{stage}"),
            out,
            Circuit::GROUND,
            4.7e-7 * detune(stage, 2),
        ));
        circuit.add(Resistor::new(
            &format!("Rl{stage}"),
            out,
            Circuit::GROUND,
            47e3 * detune(stage, 0),
        ));
        outputs.push(out);
    }

    CoupledArray {
        circuit,
        bus,
        outputs,
        period: 1.0 / ARRAY_FREQUENCY_HZ,
    }
}

/// Renders the [`coupled_array`] fixture as netlist text whose
/// [`harvester_mna::netlist::build`] output is **bit-identical** to the
/// hardcoded builder: same node numbering (pinned by a `.nodes` card in the
/// same stage-before-bus order), same device order, and every detuned
/// component value written with `{:?}` (Rust's shortest round-trip float
/// format) so it re-parses to the same bits.
///
/// One stage is declared once as a `.subckt` and instantiated `n` times with
/// per-stage parameter overrides — the netlist-front-end counterpart of the
/// builder's `for` loop. Device *names* differ (`x0.Rc` vs `Rc0`): names
/// never enter the numerics, only probes.
///
/// # Panics
///
/// Panics if `n` is zero — an array needs at least one stage.
pub fn coupled_array_netlist(n: usize) -> String {
    use std::fmt::Write as _;
    assert!(n > 0, "a coupled array needs at least one stage");
    let mut s = String::new();
    s.push_str("* coupled harvester array: n Villard stages sharing one generator bus\n");
    s.push_str("* (generated by harvester_experiments::arrays::coupled_array_netlist)\n");
    // Same stage-before-bus numbering as the builder: the sparse LU
    // eliminates per-stage blocks with local fill and densifies only the
    // final gen/bus rows.
    s.push_str(".nodes");
    for stage in 0..n {
        write!(s, " in{stage} pump{stage} out{stage}").unwrap();
    }
    s.push_str(" gen bus\n");
    s.push_str(".subckt stage bus in pump out rc=50 cp=1e-7 cs=4.7e-7 rl=47k\n");
    s.push_str("Rc bus in {rc}\n");
    s.push_str("Cp in pump {cp}\n");
    s.push_str("Dc 0 pump\n");
    s.push_str("Ds pump out\n");
    s.push_str("Cs out 0 {cs}\n");
    s.push_str("Rl out 0 {rl}\n");
    s.push_str(".ends\n");
    writeln!(s, "Vgen gen 0 SIN(0 2.5 {ARRAY_FREQUENCY_HZ:?})").unwrap();
    s.push_str("Rgen gen bus 25\n");
    for stage in 0..n {
        writeln!(
            s,
            "x{stage} bus in{stage} pump{stage} out{stage} stage rc={:?} cp={:?} cs={:?} rl={:?}",
            50.0 * detune(stage, 0),
            1e-7 * detune(stage, 1),
            4.7e-7 * detune(stage, 2),
            47e3 * detune(stage, 0),
        )
        .unwrap();
    }
    // The fixture's canonical study as analysis cards, rendered through the
    // same printer `netlist::print_with_plan` uses so the text stays the
    // exact inverse of the plan. Taking the plan from `coupled_array(n)`
    // itself (not re-deriving the option arithmetic here) keeps every value
    // bit-identical to the builder's.
    let plan = coupled_array(n).analysis_plan();
    s.push_str(
        &harvester_mna::netlist::print_plan(&plan)
            .expect("fixture analysis cards are representable"),
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvester_mna::shooting::SteadyStateAnalysis;

    #[test]
    fn stage_count_scales_the_unknowns_linearly() {
        for n in [1, 4, 9] {
            let array = coupled_array(n);
            // Ground plus 3 nodes per stage plus generator and bus.
            assert_eq!(array.circuit.node_count(), 3 * n + 3);
            assert_eq!(array.outputs.len(), n);
        }
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stages_are_refused() {
        coupled_array(0);
    }

    #[test]
    fn detuning_is_deterministic_and_bounded() {
        for stage in 0..64 {
            for salt in 0..3 {
                let d = detune(stage, salt);
                assert!((0.9..1.1).contains(&d), "detune({stage},{salt}) = {d}");
                assert_eq!(d, detune(stage, salt));
            }
        }
        // Neighbouring stages must not share a spread (the whole point of
        // the low-discrepancy sequence).
        assert_ne!(detune(0, 0), detune(1, 0));
    }

    #[test]
    fn netlist_rendering_reproduces_the_builder_exactly() {
        use harvester_mna::devices::{Capacitor, Resistor, VoltageSource};
        for n in [1, 4] {
            let built = coupled_array(n).circuit;
            let parsed = harvester_mna::netlist::build(&coupled_array_netlist(n))
                .expect("generated netlist must elaborate");
            assert_eq!(parsed.node_names(), built.node_names());
            assert_eq!(parsed.device_count(), built.device_count());
            // Values must survive the text round trip bit-for-bit; device
            // names differ (subckt scoping), so compare the typed payloads.
            for (a, b) in built.devices().iter().zip(parsed.devices()) {
                let (a, b) = (a.as_any().unwrap(), b.as_any().unwrap());
                if let Some(r) = a.downcast_ref::<Resistor>() {
                    let r2 = b.downcast_ref::<Resistor>().unwrap();
                    assert_eq!(r.resistance().to_bits(), r2.resistance().to_bits());
                    assert_eq!(r.terminals(), r2.terminals());
                } else if let Some(c) = a.downcast_ref::<Capacitor>() {
                    let c2 = b.downcast_ref::<Capacitor>().unwrap();
                    assert_eq!(c.capacitance().to_bits(), c2.capacitance().to_bits());
                    assert_eq!(c.terminals(), c2.terminals());
                } else if let Some(v) = a.downcast_ref::<VoltageSource>() {
                    let v2 = b.downcast_ref::<VoltageSource>().unwrap();
                    assert_eq!(v.waveform(), v2.waveform());
                    assert_eq!(v.terminals(), v2.terminals());
                } else if let Some(d) = a.downcast_ref::<Diode>() {
                    let d2 = b.downcast_ref::<Diode>().unwrap();
                    assert_eq!(d.saturation_current(), d2.saturation_current());
                    assert_eq!(d.terminals(), d2.terminals());
                } else {
                    panic!("unexpected device kind in the array fixture");
                }
            }
        }
    }

    #[test]
    fn small_array_reaches_a_periodic_steady_state() {
        let array = coupled_array(4);
        let pss = SteadyStateAnalysis::new(array.steady_state_options())
            .run(&array.circuit)
            .expect("coupled array must simulate");
        assert!(pss.converged, "closure {}", pss.closure_error);
        // Every stage must actually rectify: positive mean output.
        for &out in &array.outputs {
            let samples = pss.result.voltage(out);
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            assert!(mean > 0.1, "stage output must charge, got mean {mean}");
        }
    }
}
