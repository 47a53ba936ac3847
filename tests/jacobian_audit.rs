//! Jacobian audit of every shipped device type.
//!
//! Each device is stamped alone into a small circuit through
//! [`Linearisation::at`], at seeded random operating points, under both
//! integration methods, on first and later steps, and with junction
//! limiting off and at two limits. Two properties are checked at every
//! point:
//!
//! * **(a)** every Jacobian position the device writes lies inside the
//!   sparse backend's pattern, which the engine records from one assembly
//!   at the zero iterate;
//! * **(b)** central differences of the assembled residual match the
//!   stamped Jacobian entry by entry (tolerance below).
//!
//! A wrong analytic derivative does not fail a simulation, it only slows
//! Newton down; (b) catches it. A dependence the device never stamps shows
//! up in (b) as a non-zero difference against a zero entry.
//!
//! The vendored proptest has no shrinking, so the random points come from a
//! local SplitMix64 with fixed seeds and a failure names its draw.

use std::collections::HashSet;

use energy_harvester::mna::circuit::{Circuit, NodeId};
use energy_harvester::mna::device::{Device, StampPoint};
use energy_harvester::mna::devices::{
    Capacitor, CurrentSource, Diode, IdealTransformer, Inductor, Resistor, TimedSwitch,
    VoltageSource,
};
use energy_harvester::mna::transient::{
    IntegrationMethod, Linearisation, SolverBackend, TransientOptions, TransientWorkspace,
};
use energy_harvester::mna::waveform::Waveform;
use energy_harvester::models::generator::{ElectromechanicalGenerator, IdealSourceGenerator};
use energy_harvester::models::storage::Supercapacitor;
use energy_harvester::models::{MicroGeneratorParams, StorageParams, Vibration};

/// Random operating points drawn per case and per stamp configuration.
const POINTS: usize = 40;

/// Relative tolerance of (b), taken against the larger of the stamped
/// entry and its central difference. Every device but the analytical
/// generator stays within 1 % of its tolerance.
const RTOL: f64 = 1e-6;

/// The analytical generator's tolerance: its coupling slope `dk/dz` is
/// itself a central difference with a step of `r·1e-3`. Beyond the skipped
/// margins around the coupling-section boundaries that slope is within
/// 1e-5 of `k(0)/r` of the true one, and the audit sees errors up to about
/// 1.1e-5 relative there.
const COUPLING_RTOL: f64 = 1e-4;

/// Rounding allowance of a central difference, in units of
/// `ε · (|f_i| + Σ_k |J_ik·x_k|) / δ_j`: the residual's terms carry
/// rounding errors of that size, and the difference divides them by `2δ`.
const ROUNDING_ULPS: f64 = 64.0;

/// Seeded SplitMix64.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Whether the draw `x` under `junction_limit` sits too close to a kink of
/// the model for a central difference to measure its slope.
type NearBreakpoint = Box<dyn Fn(&[f64], Option<f64>) -> bool>;

/// A device alone in a small circuit, with the range each unknown is drawn
/// from and the model breakpoints near which (b) is skipped.
struct Case {
    name: &'static str,
    circuit: Circuit,
    /// `(lo, hi)` per unknown: node voltages, then the device's unknowns.
    ranges: Vec<(f64, f64)>,
    /// Relative tolerance of (b).
    rtol: f64,
    near_breakpoint: NearBreakpoint,
}

fn no_breakpoints() -> NearBreakpoint {
    Box::new(|_, _| false)
}

/// Node voltages in ±1.5 V, extra unknowns by their probe name.
fn ranges(circuit: &Circuit, z_extent: f64) -> Vec<(f64, f64)> {
    let mut ranges = vec![(-1.5, 1.5); circuit.unknown_node_count()];
    for device in circuit.devices() {
        for name in device.unknown_names() {
            ranges.push(match name.as_str() {
                "z" => (-z_extent, z_extent),
                "u" => (-0.5, 0.5),
                "v_internal" => (-1.5, 1.5),
                current if current.starts_with('i') => (-1e-2, 1e-2),
                other => panic!("no range for unknown '{other}'"),
            });
        }
    }
    ranges
}

/// A two-terminal device between nodes `a` and `b` (or ground).
fn two_terminal<D: Device + 'static>(
    name: &'static str,
    grounded: bool,
    device: impl FnOnce(NodeId, NodeId) -> D,
) -> Case {
    let mut circuit = Circuit::new();
    let a = circuit.node("a");
    let b = if grounded {
        Circuit::GROUND
    } else {
        circuit.node("b")
    };
    circuit.add(device(a, b));
    Case {
        name,
        ranges: ranges(&circuit, 0.0),
        rtol: RTOL,
        circuit,
        near_breakpoint: no_breakpoints(),
    }
}

/// A diode, skipped within 1 mV of a kink in its branch voltage
/// `v(a) − v(b)`: the critical voltage where the exponential is continued
/// linearly, the reverse clamp of the exponent at −80·nVt, and ±limit under
/// junction limiting.
fn diode_case(name: &'static str, grounded: bool, is: f64, n: f64) -> Case {
    let mut case = two_terminal(name, grounded, |a, b| {
        Diode::with_parameters("D", a, b, is, n)
    });
    let nvt = n * 0.02585;
    let vcrit = nvt * (nvt / (is * std::f64::consts::SQRT_2)).ln();
    case.near_breakpoint = Box::new(move |x, limit| {
        let v = x[0] - if grounded { 0.0 } else { x[1] };
        let mut kinks = vec![vcrit, -80.0 * nvt];
        if let Some(limit) = limit {
            kinks.extend([limit, -limit]);
        }
        kinks.iter().any(|k| (v - k).abs() < 1e-3)
    });
    case
}

/// A generator between nodes `a` and `b`, with `z` drawn across every
/// section of the coupling function and beyond. The analytical model is
/// skipped within `r/10` of a coupling-section boundary.
fn generator_case(name: &'static str, analytical: bool) -> Case {
    let params = MicroGeneratorParams::unoptimised();
    let vibration = Vibration::paper_benchtop();
    let (r, big_r, h) = (
        params.inner_radius,
        params.outer_radius,
        params.magnet_height,
    );
    let mut circuit = Circuit::new();
    let a = circuit.node("a");
    let b = circuit.node("b");
    if analytical {
        circuit.add(ElectromechanicalGenerator::analytical(
            "G", a, b, params, vibration,
        ));
    } else {
        circuit.add(ElectromechanicalGenerator::equivalent_circuit(
            "G", a, b, params, vibration,
        ));
    }
    // Unknowns: v(a), v(b), then the generator's i, z, u.
    let z_index = 3;
    // Where the coupling k(z) changes formula or cubic piece (and where the
    // inner and outer sections' square roots turn vertical): the model's
    // own slope is a central difference there, not a derivative.
    let boundaries = [r, 0.5 * h, h - r, h, h + big_r];
    Case {
        name,
        ranges: ranges(&circuit, 1.2 * (h + big_r)),
        rtol: if analytical { COUPLING_RTOL } else { RTOL },
        circuit,
        near_breakpoint: Box::new(move |x, _| {
            let z = x[z_index].abs();
            analytical && boundaries.iter().any(|b| (z - b).abs() < 0.1 * r)
        }),
    }
}

fn cases() -> Vec<Case> {
    let sine = Waveform::sine(1.2, 50.0);
    let params = MicroGeneratorParams::unoptimised();
    let vibration = Vibration::paper_benchtop();
    let mut cases = Vec::new();
    for grounded in [false, true] {
        cases.push(two_terminal("resistor", grounded, |a, b| {
            Resistor::new("R", a, b, 470.0)
        }));
        cases.push(two_terminal("capacitor", grounded, |a, b| {
            Capacitor::new("C", a, b, 4.7e-7)
        }));
        cases.push(two_terminal("inductor", grounded, |a, b| {
            Inductor::new("L", a, b, 5e-2)
        }));
        let waveform = sine.clone();
        cases.push(two_terminal("voltage source", grounded, move |a, b| {
            VoltageSource::new("V", a, b, waveform)
        }));
        let waveform = sine.clone();
        cases.push(two_terminal("current source", grounded, move |a, b| {
            CurrentSource::new("I", a, b, waveform)
        }));
        cases.push(two_terminal("timed switch", grounded, |a, b| {
            TimedSwitch::new("S", a, b, 2e-3, 8e-3)
        }));
        cases.push(diode_case("diode", grounded, 1e-14, 1.0));
        cases.push(diode_case("fixture diode", grounded, 1e-8, 1.05));
        cases.push(two_terminal("ideal-source generator", grounded, |a, b| {
            IdealSourceGenerator::new("G", a, b, params, vibration)
        }));
        cases.push(two_terminal("supercapacitor", grounded, |a, b| {
            Supercapacitor::new("CS", a, b, StorageParams::paper_supercap())
        }));
    }
    let mut transformer = Circuit::new();
    let nodes: Vec<_> = ["p", "pn", "s", "sn"]
        .iter()
        .map(|name| transformer.node(name))
        .collect();
    transformer.add(IdealTransformer::new(
        "T", nodes[0], nodes[1], nodes[2], nodes[3], 2.5,
    ));
    cases.push(Case {
        name: "transformer",
        ranges: ranges(&transformer, 0.0),
        rtol: RTOL,
        circuit: transformer,
        near_breakpoint: no_breakpoints(),
    });
    cases.push(generator_case("analytical generator", true));
    cases.push(generator_case("equivalent-circuit generator", false));
    cases
}

/// Checks (a) and (b) at one point.
fn audit_point(
    case: &Case,
    pattern: &HashSet<(usize, usize)>,
    point: StampPoint,
    x: &[f64],
    states: &[f64],
) {
    let lin = Linearisation::at(&case.circuit, point, x, states).unwrap();
    for stamp in &lin.stamps {
        assert!(
            pattern.contains(stamp),
            "{}: stamp {stamp:?} outside the recorded pattern at {point:?}, x = {x:?}",
            case.name
        );
    }
    let n = x.len();
    for j in 0..n {
        let delta = 1e-7 * x[j].abs().max(1e-3);
        let (mut plus, mut minus) = (x.to_vec(), x.to_vec());
        plus[j] += delta;
        minus[j] -= delta;
        let step = plus[j] - minus[j];
        let f_plus = Linearisation::at(&case.circuit, point, &plus, states)
            .unwrap()
            .residual;
        let f_minus = Linearisation::at(&case.circuit, point, &minus, states)
            .unwrap()
            .residual;
        for i in 0..n {
            let stamped = lin.jacobian[(i, j)];
            let difference = (f_plus[i] - f_minus[i]) / step;
            let terms = lin.residual[i].abs()
                + (0..n)
                    .map(|k| (lin.jacobian[(i, k)] * x[k]).abs())
                    .sum::<f64>();
            let tolerance = case.rtol * stamped.abs().max(difference.abs())
                + ROUNDING_ULPS * f64::EPSILON * terms / delta;
            let error = (difference - stamped).abs();
            assert!(
                error <= tolerance,
                "{}: ∂f[{i}]/∂x[{j}] stamped {stamped:e}, central difference {difference:e} \
                 (tolerance {tolerance:e}) at {point:?}, x = {x:?}, states = {states:?}",
                case.name
            );
        }
    }
}

#[test]
fn every_device_stamps_inside_its_pattern_and_matches_its_residual() {
    let sparse = TransientOptions {
        backend: SolverBackend::Sparse,
        ..TransientOptions::default()
    };
    let mut rng = Rng(0x5EED_1A7E);
    for case in cases() {
        let workspace = TransientWorkspace::for_circuit(&case.circuit, &sparse).unwrap();
        let pattern: HashSet<(usize, usize)> =
            workspace.sparsity_pattern().unwrap().into_iter().collect();
        let n_states: usize = case.circuit.devices().iter().map(|d| d.state_count()).sum();
        let (mut checked, mut skipped) = (0usize, 0usize);
        for method in [
            IntegrationMethod::BackwardEuler,
            IntegrationMethod::Trapezoidal,
        ] {
            for first_step in [true, false] {
                for junction_limit in [None, Some(0.8), Some(0.3)] {
                    for _ in 0..POINTS {
                        let x: Vec<f64> = case
                            .ranges
                            .iter()
                            .map(|&(lo, hi)| rng.uniform(lo, hi))
                            .collect();
                        let states: Vec<f64> =
                            (0..n_states).map(|_| rng.uniform(-1e-3, 1e-3)).collect();
                        let point = StampPoint {
                            time: rng.uniform(0.0, 1e-2),
                            dt: 10f64.powf(rng.uniform(-6.0, -3.0)),
                            method,
                            first_step,
                            junction_limit,
                        };
                        if (case.near_breakpoint)(&x, junction_limit) {
                            skipped += 1;
                            continue;
                        }
                        audit_point(&case, &pattern, point, &x, &states);
                        checked += 1;
                    }
                }
            }
        }
        assert!(
            checked >= 9 * (checked + skipped) / 10,
            "{}: only {checked} of {} points checked",
            case.name,
            checked + skipped
        );
    }
}
