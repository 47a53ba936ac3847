//! The inverse of [`super::build`]: a [`Circuit`] of standard devices →
//! flat netlist text.
//!
//! The printer leans on two exactness guarantees:
//!
//! * a leading `.nodes` card lists every non-ground node in index order, so
//!   re-elaboration assigns identical [`NodeId`]s regardless of the order
//!   devices reference them;
//! * every float is written with `{:?}` — Rust's shortest round-trip
//!   representation — and the lexer parses plain decimal/exponent literals
//!   with a single `str::parse::<f64>()`, so values survive bit-identically.
//!
//! Device *names* are preserved verbatim when they already start with the
//! device's card letter; otherwise the canonical letter is prepended (a
//! flattened `x1.Rtop` must not re-parse as an `X` instance card).

use super::NetlistError;
use crate::analysis::{AcOptions, Analysis, AnalysisPlan, FrequencySweep, OpOptions};
use crate::circuit::{Circuit, NodeId};
use crate::devices::{
    Capacitor, CurrentSource, Diode, IdealTransformer, Inductor, Resistor, TimedSwitch,
    VoltageSource,
};
use crate::shooting::SteadyStateOptions;
use crate::transient::TransientOptions;
use crate::waveform::Waveform;
use std::collections::HashSet;
use std::fmt::Write as _;

/// Characters with syntactic meaning in the line format; a name containing
/// one cannot be written back out.
const FORBIDDEN: &[char] = &['(', ')', '{', '}', '=', ';', '*', ','];

/// Renders `circuit` as netlist text (see [`super::print`]).
pub(crate) fn print(circuit: &Circuit) -> Result<String, NetlistError> {
    if circuit.device_count() == 0 {
        return Err(NetlistError::unpositioned(
            "cannot print an empty circuit (no devices)",
        ));
    }
    let mut out = String::new();
    out.push_str("* generated by harvester_mna::netlist::print\n");

    // Pin the node numbering before any device card can create nodes in
    // reference order.
    let node_names = circuit.node_names();
    for name in &node_names[1..] {
        check_name(name, "node")?;
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Err(NetlistError::unpositioned(format!(
                "node name '{name}' would re-parse as the ground alias"
            )));
        }
    }
    if node_names.len() > 1 {
        out.push_str(".nodes");
        for name in &node_names[1..] {
            out.push(' ');
            out.push_str(name);
        }
        out.push('\n');
    }

    let mut printed_names = HashSet::new();
    for device in circuit.devices() {
        let line = print_device(circuit, device.as_ref())?;
        let card_name = line.split_whitespace().next().unwrap_or("").to_string();
        if !printed_names.insert(card_name.clone()) {
            return Err(NetlistError::unpositioned(format!(
                "two devices print as '{card_name}'; rename one so the output re-elaborates"
            )));
        }
        out.push_str(&line);
        out.push('\n');
    }
    Ok(out)
}

/// Renders `circuit` followed by `plan`'s analysis cards (see
/// [`super::print_with_plan`]).
pub(crate) fn print_with_plan(
    circuit: &Circuit,
    plan: &AnalysisPlan,
) -> Result<String, NetlistError> {
    let mut out = print(circuit)?;
    out.push_str(&print_plan(plan)?);
    Ok(out)
}

/// Renders just the analysis cards of `plan`, one per line (see
/// [`super::print_plan`]).
pub(crate) fn print_plan(plan: &AnalysisPlan) -> Result<String, NetlistError> {
    let mut out = String::new();
    for card in plan.cards() {
        out.push_str(&print_analysis(card)?);
        out.push('\n');
    }
    Ok(out)
}

/// Renders one analysis card, or reports why the card grammar cannot
/// express its options. Options the card leaves implicit must sit at their
/// engine defaults, so re-elaboration reproduces them bit-identically.
fn print_analysis(card: &Analysis) -> Result<String, NetlistError> {
    let inexpressible = || {
        NetlistError::unpositioned(format!(
            "a .{} card cannot express these options \
             (only engine defaults plus the card's own arguments are representable)",
            card.kind()
        ))
    };
    match card {
        Analysis::Op(o) => {
            let d = OpOptions::default();
            if o.backend != d.backend {
                return Err(inexpressible());
            }
            let mut s = String::from(".op");
            if o.max_newton_iterations != d.max_newton_iterations {
                write!(s, " maxiter={}", o.max_newton_iterations).unwrap();
            }
            if o.gmin_steps != d.gmin_steps {
                write!(s, " gminsteps={}", o.gmin_steps).unwrap();
            }
            if o.source_steps != d.source_steps {
                write!(s, " srcsteps={}", o.source_steps).unwrap();
            }
            if o.delta_tolerance != d.delta_tolerance {
                write!(s, " dtol={:?}", o.delta_tolerance).unwrap();
            }
            if o.residual_tolerance != d.residual_tolerance {
                write!(s, " rtol={:?}", o.residual_tolerance).unwrap();
            }
            Ok(s)
        }
        Analysis::Tran(t) => {
            let expressible = TransientOptions {
                dt: t.dt,
                t_stop: t.t_stop,
                ..TransientOptions::default()
            };
            if *t != expressible {
                return Err(inexpressible());
            }
            Ok(format!(".tran {:?} {:?}", t.dt, t.t_stop))
        }
        Analysis::Pss(p) => {
            let mut expressible = SteadyStateOptions::new(p.period);
            expressible.transient.dt = p.transient.dt;
            expressible.warmup_cycles = p.warmup_cycles;
            expressible.tolerance = p.tolerance;
            expressible.max_iterations = p.max_iterations;
            if *p != expressible {
                return Err(inexpressible());
            }
            let fresh = SteadyStateOptions::new(p.period);
            let mut s = format!(".pss {:?}", p.period);
            if p.transient.dt != fresh.transient.dt {
                write!(s, " dt={:?}", p.transient.dt).unwrap();
            }
            if p.warmup_cycles != fresh.warmup_cycles {
                write!(s, " warmup={:?}", p.warmup_cycles).unwrap();
            }
            if p.tolerance != fresh.tolerance {
                write!(s, " tol={:?}", p.tolerance).unwrap();
            }
            if p.max_iterations != fresh.max_iterations {
                write!(s, " maxiter={}", p.max_iterations).unwrap();
            }
            Ok(s)
        }
        Analysis::Ac(a) => {
            let expressible = AcOptions::new(a.sweep, a.points, a.f_start, a.f_stop);
            if *a != expressible {
                return Err(inexpressible());
            }
            let sweep = match a.sweep {
                FrequencySweep::Dec => "dec",
                FrequencySweep::Oct => "oct",
                FrequencySweep::Lin => "lin",
            };
            Ok(format!(
                ".ac {} {} {:?} {:?}",
                sweep, a.points, a.f_start, a.f_stop
            ))
        }
    }
}

/// Renders one device card, or reports why it cannot be represented.
fn print_device(
    circuit: &Circuit,
    device: &dyn crate::device::Device,
) -> Result<String, NetlistError> {
    let any = device.as_any().ok_or_else(|| not_representable(device))?;
    let mut line = String::new();
    if let Some(r) = any.downcast_ref::<Resistor>() {
        let (a, b) = r.terminals();
        write!(
            line,
            "{} {} {} {}",
            card_name(device, 'R')?,
            node(circuit, a),
            node(circuit, b),
            num(device, r.resistance(), "resistance")?
        )
        .unwrap();
    } else if let Some(c) = any.downcast_ref::<Capacitor>() {
        let (a, b) = c.terminals();
        write!(
            line,
            "{} {} {} {} ic={}",
            card_name(device, 'C')?,
            node(circuit, a),
            node(circuit, b),
            num(device, c.capacitance(), "capacitance")?,
            num(device, c.initial_voltage(), "initial voltage")?
        )
        .unwrap();
    } else if let Some(l) = any.downcast_ref::<Inductor>() {
        let (a, b) = l.terminals();
        write!(
            line,
            "{} {} {} {} ic={}",
            card_name(device, 'L')?,
            node(circuit, a),
            node(circuit, b),
            num(device, l.inductance(), "inductance")?,
            num(device, l.initial_current(), "initial current")?
        )
        .unwrap();
    } else if let Some(v) = any.downcast_ref::<VoltageSource>() {
        let (a, b) = v.terminals();
        write!(
            line,
            "{} {} {} {}",
            card_name(device, 'V')?,
            node(circuit, a),
            node(circuit, b),
            wave(device, v.waveform())?
        )
        .unwrap();
        ac_suffix(&mut line, device, v.ac())?;
    } else if let Some(i) = any.downcast_ref::<CurrentSource>() {
        let (a, b) = i.terminals();
        write!(
            line,
            "{} {} {} {}",
            card_name(device, 'I')?,
            node(circuit, a),
            node(circuit, b),
            wave(device, i.waveform())?
        )
        .unwrap();
        ac_suffix(&mut line, device, i.ac())?;
    } else if let Some(d) = any.downcast_ref::<Diode>() {
        let (a, c) = d.terminals();
        write!(
            line,
            "{} {} {} is={} n={}",
            card_name(device, 'D')?,
            node(circuit, a),
            node(circuit, c),
            num(device, d.saturation_current(), "saturation current")?,
            num(device, d.emission_coefficient(), "emission coefficient")?
        )
        .unwrap();
    } else if let Some(t) = any.downcast_ref::<IdealTransformer>() {
        let (pp, pn, sp, sn) = t.terminals();
        write!(
            line,
            "{} {} {} {} {} {}",
            card_name(device, 'T')?,
            node(circuit, pp),
            node(circuit, pn),
            node(circuit, sp),
            node(circuit, sn),
            num(device, t.ratio(), "turns ratio")?
        )
        .unwrap();
    } else if let Some(s) = any.downcast_ref::<TimedSwitch>() {
        let (a, b) = s.terminals();
        write!(
            line,
            "{} {} {} {} {}",
            card_name(device, 'S')?,
            node(circuit, a),
            node(circuit, b),
            num(device, s.t_on(), "switch-on time")?,
            num(device, s.t_off(), "switch-off time")?
        )
        .unwrap();
    } else {
        return Err(not_representable(device));
    }
    Ok(line)
}

/// Appends an `AC magnitude phase` small-signal suffix, when present. Both
/// values are always written, so the suffix re-parses bit-identically.
fn ac_suffix(
    line: &mut String,
    device: &dyn crate::device::Device,
    ac: Option<crate::devices::AcSpec>,
) -> Result<(), NetlistError> {
    if let Some(spec) = ac {
        write!(
            line,
            " AC {} {}",
            num(device, spec.magnitude, "AC magnitude")?,
            num(device, spec.phase_rad, "AC phase")?
        )
        .unwrap();
    }
    Ok(())
}

fn not_representable(device: &dyn crate::device::Device) -> NetlistError {
    NetlistError::unpositioned(format!(
        "device '{}' is not representable in the netlist format \
         (only the standard devices library is printable)",
        device.name()
    ))
}

/// The card name: the device name, prefixed with `letter` unless it already
/// starts with it (case-insensitively).
fn card_name(device: &dyn crate::device::Device, letter: char) -> Result<String, NetlistError> {
    let name = device.name();
    check_name(name, "device")?;
    if name
        .chars()
        .next()
        .is_some_and(|c| c.eq_ignore_ascii_case(&letter))
    {
        Ok(name.to_string())
    } else {
        Ok(format!("{letter}{name}"))
    }
}

/// Validates that a name survives tokenisation unchanged.
fn check_name(name: &str, what: &str) -> Result<(), NetlistError> {
    if name.is_empty() {
        return Err(NetlistError::unpositioned(format!(
            "empty {what} name is not representable"
        )));
    }
    if let Some(bad) = name
        .chars()
        .find(|c| c.is_whitespace() || FORBIDDEN.contains(c))
    {
        return Err(NetlistError::unpositioned(format!(
            "{what} name '{name}' contains '{bad}', which is not representable"
        )));
    }
    Ok(())
}

/// Ground prints as `0`; everything else by name.
fn node(circuit: &Circuit, id: NodeId) -> String {
    if id.is_ground() {
        "0".to_string()
    } else {
        circuit.node_name(id).to_string()
    }
}

/// A float, written so it re-parses bit-identically, or an error if the
/// value would be rejected on the way back in.
fn num(device: &dyn crate::device::Device, x: f64, what: &str) -> Result<String, NetlistError> {
    if x.is_finite() {
        Ok(format!("{x:?}"))
    } else {
        Err(NetlistError::unpositioned(format!(
            "device '{}': {what} is {x}, which is not representable",
            device.name()
        )))
    }
}

fn wave(device: &dyn crate::device::Device, w: &Waveform) -> Result<String, NetlistError> {
    match w {
        Waveform::Dc(v) => Ok(format!("DC {}", num(device, *v, "DC value")?)),
        Waveform::Sine {
            offset,
            amplitude,
            frequency_hz,
            phase_rad,
            delay,
        } => {
            if *frequency_hz < 0.0 || *delay < 0.0 {
                return Err(NetlistError::unpositioned(format!(
                    "device '{}': SIN frequency/delay must be non-negative to be representable",
                    device.name()
                )));
            }
            Ok(format!(
                "SIN({} {} {} {} {})",
                num(device, *offset, "SIN offset")?,
                num(device, *amplitude, "SIN amplitude")?,
                num(device, *frequency_hz, "SIN frequency")?,
                num(device, *delay, "SIN delay")?,
                num(device, *phase_rad, "SIN phase")?
            ))
        }
        Waveform::Pulse {
            low,
            high,
            delay,
            rise,
            fall,
            width,
            period,
        } => {
            // Re-validate through the same gate the elaborator uses, so a
            // hand-built malformed train is reported here instead of as a
            // confusing parse error later.
            Waveform::pulse(*low, *high, *delay, *rise, *fall, *width, *period).map_err(|e| {
                NetlistError::unpositioned(format!("device '{}': {e}", device.name()))
            })?;
            Ok(format!(
                "PULSE({} {} {} {} {} {} {})",
                num(device, *low, "PULSE low")?,
                num(device, *high, "PULSE high")?,
                num(device, *delay, "PULSE delay")?,
                num(device, *rise, "PULSE rise")?,
                num(device, *fall, "PULSE fall")?,
                num(device, *width, "PULSE width")?,
                num(device, *period, "PULSE period")?
            ))
        }
        Waveform::Pwl(points) => {
            Waveform::pwl(points.clone()).map_err(|e| {
                NetlistError::unpositioned(format!("device '{}': {e}", device.name()))
            })?;
            let mut s = "PWL(".to_string();
            for (i, (t, v)) in points.iter().enumerate() {
                if i > 0 {
                    s.push(' ');
                }
                write!(
                    s,
                    "{} {}",
                    num(device, *t, "PWL time")?,
                    num(device, *v, "PWL value")?
                )
                .unwrap();
            }
            s.push(')');
            Ok(s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{build, print};
    use crate::circuit::Circuit;
    use crate::device::{Device, StampContext};
    use crate::devices::{
        Capacitor, CurrentSource, Diode, IdealTransformer, Inductor, Resistor, TimedSwitch,
        VoltageSource,
    };
    use crate::waveform::Waveform;

    /// Builds one circuit exercising every standard device and waveform.
    fn kitchen_sink() -> Circuit {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let d = c.node("d");
        let e = c.node("e");
        c.add(VoltageSource::new(
            "V1",
            a,
            Circuit::GROUND,
            Waveform::sine(2.5, 1000.0),
        ));
        c.add(Resistor::new("R1", a, b, 47.3e3));
        c.add(Capacitor::with_initial_voltage(
            "C1",
            b,
            Circuit::GROUND,
            1e-7,
            0.25,
        ));
        c.add(Inductor::with_initial_current("L1", b, d, 3.3e-3, -1e-3));
        c.add(Diode::with_parameters("D1", d, e, 1e-8, 1.05));
        c.add(IdealTransformer::new("T1", a, Circuit::GROUND, d, e, 2.5));
        c.add(TimedSwitch::new("S1", e, Circuit::GROUND, 1e-3, 2e-3));
        c.add(CurrentSource::new(
            "I1",
            Circuit::GROUND,
            e,
            Waveform::pwl(vec![(0.0, 0.0), (1e-3, 5e-3), (2e-3, 0.0)]).unwrap(),
        ));
        c.add(VoltageSource::new(
            "V2",
            d,
            Circuit::GROUND,
            Waveform::pulse(0.0, 5.0, 1e-3, 1e-4, 1e-4, 5e-4, 2e-3).unwrap(),
        ));
        c.add(VoltageSource::new("V3", b, e, Waveform::dc(-3.3)));
        c
    }

    #[test]
    fn print_then_build_reproduces_the_circuit() {
        let original = kitchen_sink();
        let text = print(&original).unwrap();
        let rebuilt = build(&text).unwrap();
        assert_eq!(rebuilt.node_names(), original.node_names());
        assert_eq!(rebuilt.device_count(), original.device_count());
        for (a, b) in original.devices().iter().zip(rebuilt.devices()) {
            assert_eq!(a.name(), b.name());
        }
        // Spot-check exact values through the typed accessors.
        let r = rebuilt.devices()[1]
            .as_any()
            .unwrap()
            .downcast_ref::<Resistor>()
            .unwrap();
        assert_eq!(r.resistance().to_bits(), 47.3e3f64.to_bits());
        let orig_v2 = original.devices()[8]
            .as_any()
            .unwrap()
            .downcast_ref::<VoltageSource>()
            .unwrap();
        let new_v2 = rebuilt.devices()[8]
            .as_any()
            .unwrap()
            .downcast_ref::<VoltageSource>()
            .unwrap();
        assert_eq!(orig_v2.waveform(), new_v2.waveform());
        // A second round trip is a fixed point.
        assert_eq!(print(&rebuilt).unwrap(), text);
    }

    #[test]
    fn names_gain_their_card_letter_when_needed() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(Resistor::new("x1.Rtop", a, Circuit::GROUND, 1e3));
        let text = print(&c).unwrap();
        assert!(text.contains("Rx1.Rtop"), "{text}");
        let rebuilt = build(&text).unwrap();
        assert_eq!(rebuilt.devices()[0].name(), "Rx1.Rtop");
    }

    struct Opaque;
    impl Device for Opaque {
        fn name(&self) -> &str {
            "G1"
        }
        fn stamp(&self, _ctx: &mut StampContext<'_>) {}
    }

    #[test]
    fn non_standard_devices_are_reported() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(Resistor::new("R1", a, Circuit::GROUND, 1e3));
        c.add(Opaque);
        let err = print(&c).unwrap_err();
        assert!(err.message.contains("not representable"), "{err}");
        assert!(err.message.contains("G1"), "{err}");
    }

    #[test]
    fn unrepresentable_names_are_reported() {
        let mut c = Circuit::new();
        let a = c.node("bad name");
        c.add(Resistor::new("R1", a, Circuit::GROUND, 1e3));
        let err = print(&c).unwrap_err();
        assert!(err.message.contains("bad name"), "{err}");

        let mut c = Circuit::new();
        let a = c.node("GND");
        c.add(Resistor::new("R1", a, Circuit::GROUND, 1e3));
        let err = print(&c).unwrap_err();
        assert!(err.message.contains("ground alias"), "{err}");

        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(Resistor::new("R(1)", a, Circuit::GROUND, 1e3));
        let err = print(&c).unwrap_err();
        assert!(err.message.contains("contains"), "{err}");
    }

    #[test]
    fn colliding_printed_names_are_reported() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(Resistor::new("R1", a, Circuit::GROUND, 1e3));
        c.add(Resistor::new("1", a, Circuit::GROUND, 2e3)); // prints as R1 too
        let err = print(&c).unwrap_err();
        assert!(err.message.contains("two devices print as 'R1'"), "{err}");
    }

    #[test]
    fn empty_circuits_are_an_error() {
        let err = print(&Circuit::new()).unwrap_err();
        assert!(err.message.contains("empty circuit"), "{err}");
    }

    #[test]
    fn ac_suffixes_round_trip() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(VoltageSource::new("V1", a, Circuit::GROUND, Waveform::dc(1.0)).with_ac(2.5, -0.25));
        c.add(Resistor::new("R1", a, Circuit::GROUND, 1e3));
        let text = print(&c).unwrap();
        assert!(text.contains("AC 2.5 -0.25"), "{text}");
        let rebuilt = build(&text).unwrap();
        let v = rebuilt.devices()[0]
            .as_any()
            .unwrap()
            .downcast_ref::<VoltageSource>()
            .unwrap();
        let spec = v.ac().unwrap();
        assert_eq!(spec.magnitude.to_bits(), 2.5f64.to_bits());
        assert_eq!(spec.phase_rad.to_bits(), (-0.25f64).to_bits());
        assert_eq!(print(&rebuilt).unwrap(), text);
    }

    #[test]
    fn plans_round_trip_bit_identically() {
        use super::super::{build_with_plan, print_with_plan};
        use crate::analysis::{AcOptions, Analysis, AnalysisPlan, FrequencySweep, OpOptions};
        use crate::shooting::SteadyStateOptions;
        use crate::transient::TransientOptions;

        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(VoltageSource::new("V1", a, Circuit::GROUND, Waveform::dc(1.0)).with_ac(1.0, 0.0));
        c.add(Resistor::new("R1", a, Circuit::GROUND, 1e3));

        let mut pss = SteadyStateOptions::new(2.5e-3);
        pss.transient.dt = 1.25e-6;
        pss.tolerance = 1e-8;
        let op = OpOptions {
            gmin_steps: 17,
            residual_tolerance: 3e-7,
            ..OpOptions::default()
        };
        let plan = AnalysisPlan::from_cards(vec![
            Analysis::Op(op),
            Analysis::Tran(TransientOptions {
                dt: 2e-7,
                t_stop: 3.3e-3,
                ..TransientOptions::default()
            }),
            Analysis::Pss(pss),
            Analysis::Ac(AcOptions::new(FrequencySweep::Oct, 7, 2.0, 4096.0)),
        ])
        .unwrap();

        let text = print_with_plan(&c, &plan).unwrap();
        let (_, rebuilt) = build_with_plan(&text).unwrap();
        assert_eq!(rebuilt, plan);
        // A second round trip is a fixed point.
        let (c2, p2) = build_with_plan(&text).unwrap();
        assert_eq!(print_with_plan(&c2, &p2).unwrap(), text);
    }

    #[test]
    fn inexpressible_plan_cards_are_reported() {
        use super::super::print_with_plan;
        use crate::analysis::{Analysis, AnalysisPlan};
        use crate::transient::{IntegrationMethod, TransientOptions};

        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(Resistor::new("R1", a, Circuit::GROUND, 1e3));
        let plan = AnalysisPlan::from_cards(vec![Analysis::Tran(TransientOptions {
            method: IntegrationMethod::BackwardEuler,
            ..TransientOptions::default()
        })])
        .unwrap();
        let err = print_with_plan(&c, &plan).unwrap_err();
        assert!(err.message.contains(".tran card cannot express"), "{err}");
    }
}
