//! Jacobian audit of every shipped device, alone and in place.
//!
//! Each device type is stamped alone into a small circuit through
//! [`Linearisation::at`], at seeded random operating points, under both
//! integration methods, on first and later steps, and with junction
//! limiting off and at two limits. Every device of the shipped circuits —
//! the three `.cir` fixtures, a 16-stage coupled array and the paper's
//! un-optimised and optimised harvesters — is then audited in place, at
//! the operating points of a short transient of its circuit. Two properties
//! are checked at every point:
//!
//! * **(a)** every Jacobian position the devices write lies inside the
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
use std::path::Path;

use energy_harvester::experiments::arrays::coupled_array_netlist;
use energy_harvester::mna::circuit::{Circuit, NodeId};
use energy_harvester::mna::device::{Device, StampPoint};
use energy_harvester::mna::devices::{
    Capacitor, CurrentSource, Diode, IdealTransformer, Inductor, Resistor, TimedSwitch,
    VoltageSource,
};
use energy_harvester::mna::netlist;
use energy_harvester::mna::transient::{
    IntegrationMethod, Linearisation, SolverBackend, TransientAnalysis, TransientOptions,
    TransientWorkspace,
};
use energy_harvester::mna::waveform::Waveform;
use energy_harvester::models::generator::{ElectromechanicalGenerator, IdealSourceGenerator};
use energy_harvester::models::storage::Supercapacitor;
use energy_harvester::models::system::GENERATOR_NAME;
use energy_harvester::models::{
    GeneratorModel, HarvesterConfig, MicroGeneratorParams, StorageParams, Vibration,
};

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

/// The kinks of a diode's current in its branch voltage: the critical
/// voltage where the exponential is continued linearly, and the reverse
/// clamp of the exponent at −80·nVt. A central difference straddling one
/// does not measure the slope on either side, so points within 1 mV of a
/// kink are skipped.
fn diode_kinks(is: f64, n: f64) -> [f64; 2] {
    let nvt = n * 0.02585;
    [
        nvt * (nvt / (is * std::f64::consts::SQRT_2)).ln(),
        -80.0 * nvt,
    ]
}

/// A diode, skipped within 1 mV of a kink in its branch voltage
/// `v(a) − v(b)` (see [`diode_kinks`]), or of ±limit under junction
/// limiting.
fn diode_case(name: &'static str, grounded: bool, is: f64, n: f64) -> Case {
    let mut case = two_terminal(name, grounded, |a, b| {
        Diode::with_parameters("D", a, b, is, n)
    });
    case.near_breakpoint = Box::new(move |x, limit| {
        let v = x[0] - if grounded { 0.0 } else { x[1] };
        let mut kinks = diode_kinks(is, n).to_vec();
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
    Case {
        name,
        ranges: ranges(&circuit, 1.2 * (params.magnet_height + params.outer_radius)),
        rtol: if analytical { COUPLING_RTOL } else { RTOL },
        circuit,
        near_breakpoint: Box::new(move |x, _| {
            analytical && near_coupling_boundary(&params, x[z_index])
        }),
    }
}

/// Whether the analytical generator's displacement `z` lies within `r/10`
/// of a point where the coupling k(z) changes formula or cubic piece (and
/// where the inner and outer sections' square roots turn vertical): the
/// model's own slope is a central difference there, not a derivative.
fn near_coupling_boundary(params: &MicroGeneratorParams, z: f64) -> bool {
    let (r, big_r, h) = (
        params.inner_radius,
        params.outer_radius,
        params.magnet_height,
    );
    [r, 0.5 * h, h - r, h, h + big_r]
        .iter()
        .any(|b| (z.abs() - b).abs() < 0.1 * r)
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

/// Checks (a) and (b) for `circuit` at one point, with the relative
/// tolerance of (b) given per column of the Jacobian.
fn audit_point(
    name: &str,
    circuit: &Circuit,
    rtol: &[f64],
    pattern: &HashSet<(usize, usize)>,
    point: StampPoint,
    x: &[f64],
    states: &[f64],
) {
    let lin = Linearisation::at(circuit, point, x, states).unwrap();
    for stamp in &lin.stamps {
        assert!(
            pattern.contains(stamp),
            "{name}: stamp {stamp:?} outside the recorded pattern at {point:?}, x = {x:?}"
        );
    }
    let n = x.len();
    for j in 0..n {
        let delta = 1e-7 * x[j].abs().max(1e-3);
        let (mut plus, mut minus) = (x.to_vec(), x.to_vec());
        plus[j] += delta;
        minus[j] -= delta;
        let step = plus[j] - minus[j];
        let f_plus = Linearisation::at(circuit, point, &plus, states)
            .unwrap()
            .residual;
        let f_minus = Linearisation::at(circuit, point, &minus, states)
            .unwrap()
            .residual;
        for i in 0..n {
            let stamped = lin.jacobian[(i, j)];
            let difference = (f_plus[i] - f_minus[i]) / step;
            let terms = lin.residual[i].abs()
                + (0..n)
                    .map(|k| (lin.jacobian[(i, k)] * x[k]).abs())
                    .sum::<f64>();
            let tolerance = rtol[j] * stamped.abs().max(difference.abs())
                + ROUNDING_ULPS * f64::EPSILON * terms / delta;
            let error = (difference - stamped).abs();
            assert!(
                error <= tolerance,
                "{name}: ∂f[{i}]/∂x[{j}] stamped {stamped:e}, central difference {difference:e} \
                 (tolerance {tolerance:e}) at {point:?}, x = {x:?}, states = {states:?}"
            );
        }
    }
}

/// The pattern the sparse backend records for `circuit`.
fn recorded_pattern(circuit: &Circuit) -> HashSet<(usize, usize)> {
    let sparse = TransientOptions {
        backend: SolverBackend::Sparse,
        ..TransientOptions::default()
    };
    let workspace = TransientWorkspace::for_circuit(circuit, &sparse).unwrap();
    workspace.sparsity_pattern().unwrap().into_iter().collect()
}

#[test]
fn every_device_stamps_inside_its_pattern_and_matches_its_residual() {
    let mut rng = Rng(0x5EED_1A7E);
    for case in cases() {
        let pattern = recorded_pattern(&case.circuit);
        let rtol = vec![case.rtol; case.ranges.len()];
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
                        audit_point(
                            case.name,
                            &case.circuit,
                            &rtol,
                            &pattern,
                            point,
                            &x,
                            &states,
                        );
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

/// Transient stop times per circuit at which the in-place audit checks the
/// committed state.
const IN_PLACE_POINTS: usize = 12;

/// Spacing of the in-place audit points in excitation periods: off any
/// simple fraction, so the points sample every phase of the excitation, and
/// wide enough that they reach past the third period, where the harvesters'
/// diodes (which start from rest) first conduct.
const IN_PLACE_SPACING: f64 = 0.47;

/// A whole circuit, audited with every device in place.
struct Whole {
    name: &'static str,
    circuit: Circuit,
    /// The analytical generator's parameters and the index of its
    /// displacement unknown `z`, if the circuit has one: that column gets
    /// [`COUPLING_RTOL`].
    generator: Option<(MicroGeneratorParams, usize)>,
}

fn fixture(file: &str) -> Circuit {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/netlists")
        .join(file);
    netlist::build(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// The global index of `device`'s unknown `unknown`: node voltages come
/// first, then every device's extra unknowns in circuit order.
fn unknown_index(circuit: &Circuit, device: &str, unknown: &str) -> usize {
    let mut base = circuit.unknown_node_count();
    for d in circuit.devices() {
        if d.name() == device {
            let offset = d.unknown_names().iter().position(|u| u == unknown);
            return base + offset.expect("the device has this unknown");
        }
        base += d.extra_unknowns();
    }
    panic!("no device '{device}'")
}

fn whole_circuits() -> Vec<Whole> {
    let mut circuits: Vec<Whole> = [
        "villard.cir",
        "transformer_booster.cir",
        "coupled_array4.cir",
    ]
    .into_iter()
    .map(|file| Whole {
        name: file,
        circuit: fixture(file),
        generator: None,
    })
    .collect();
    circuits.push(Whole {
        name: "coupled_array_netlist(16)",
        circuit: netlist::build(&coupled_array_netlist(16)).unwrap(),
        generator: None,
    });
    for (name, config) in [
        ("unoptimised harvester", HarvesterConfig::unoptimised()),
        ("optimised harvester", HarvesterConfig::optimised_paper()),
    ] {
        assert_eq!(config.model, GeneratorModel::Analytical);
        let (circuit, _) = config.build();
        let z = unknown_index(&circuit, GENERATOR_NAME, "z");
        circuits.push(Whole {
            name,
            circuit,
            generator: Some((config.generator, z)),
        });
    }
    circuits
}

#[test]
fn every_device_of_the_shipped_circuits_matches_its_residual_in_place() {
    for whole in whole_circuits() {
        let circuit = &whole.circuit;
        let pattern = recorded_pattern(circuit);
        let period = circuit
            .devices()
            .iter()
            .filter_map(|d| d.excitation_period())
            .fold(0.0, f64::max);
        assert!(period > 0.0, "{}: no periodic source", whole.name);
        let dt = period / 400.0;
        let diodes: Vec<_> = circuit
            .devices()
            .iter()
            .filter_map(|d| d.as_any()?.downcast_ref::<Diode>())
            .map(|d| {
                let kinks = diode_kinks(d.saturation_current(), d.emission_coefficient());
                (d.terminals(), kinks)
            })
            .collect();
        let voltage = |x: &[f64], node: NodeId| {
            if node.is_ground() {
                0.0
            } else {
                x[node.index() - 1]
            }
        };
        let (mut checked, mut skipped) = (0usize, 0usize);
        for k in 1..=IN_PLACE_POINTS {
            let t_stop = IN_PLACE_SPACING * period * k as f64;
            let options = TransientOptions {
                t_stop,
                dt,
                ..TransientOptions::default()
            };
            let mut workspace = TransientWorkspace::for_circuit(circuit, &options).unwrap();
            TransientAnalysis::new(options)
                .run_with(circuit, &mut workspace)
                .unwrap();
            let (x, states) = (workspace.solution(), workspace.states());
            let mut rtol = vec![RTOL; x.len()];
            // Skipped, as in the single-device audit: a diode within 1 mV
            // of a kink, or the generator within r/10 of a coupling-section
            // boundary, where the difference does not measure the slope.
            let near_kink = diodes.iter().any(|&((a, b), kinks)| {
                let v = voltage(x, a) - voltage(x, b);
                kinks.iter().any(|kink| (v - kink).abs() < 1e-3)
            });
            let near_boundary = whole.generator.is_some_and(|(params, z)| {
                rtol[z] = COUPLING_RTOL;
                near_coupling_boundary(&params, x[z])
            });
            if near_kink || near_boundary {
                skipped += 1;
                continue;
            }
            for method in [
                IntegrationMethod::BackwardEuler,
                IntegrationMethod::Trapezoidal,
            ] {
                let point = StampPoint::new(t_stop + dt, dt, method, false);
                audit_point(whole.name, circuit, &rtol, &pattern, point, x, states);
            }
            checked += 1;
        }
        assert!(
            checked >= 9 * (checked + skipped) / 10,
            "{}: only {checked} of {IN_PLACE_POINTS} points checked",
            whole.name
        );
    }
}
