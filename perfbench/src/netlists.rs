//! Netlist inputs shared by the `netlist_cards` and `service_jobs`
//! workloads: the shipped `.cir` fixtures plus generated coupled arrays,
//! with component values perturbed from the seed, and the output signature
//! a run is checked against.

use harvester_experiments::arrays::coupled_array_netlist;
use harvester_mna::analysis::{Analysis, AnalysisResult};
use harvester_mna::circuit::Circuit;

/// A named netlist fixture.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// Short name used in references and reports.
    pub name: &'static str,
    /// The netlist text, analysis cards included.
    pub text: String,
}

/// The five `netlist_cards` fixtures: the three shipped `.cir` files and
/// the 16- and 48-stage coupled arrays (51 and 147 unknowns, past the
/// dense/sparse and dense/matrix-free crossovers).
pub fn card_fixtures() -> Vec<Fixture> {
    vec![
        Fixture {
            name: "villard",
            text: include_str!("../../examples/netlists/villard.cir").to_string(),
        },
        Fixture {
            name: "transformer_booster",
            text: include_str!("../../examples/netlists/transformer_booster.cir").to_string(),
        },
        Fixture {
            name: "coupled_array4",
            text: include_str!("../../examples/netlists/coupled_array4.cir").to_string(),
        },
        Fixture {
            name: "coupled_array16",
            text: coupled_array_netlist(16),
        },
        Fixture {
            name: "coupled_array48",
            text: coupled_array_netlist(48),
        },
    ]
}

/// Subcircuit and instance parameters that hold a resistance or a
/// capacitance (the values a perturbation may move). Diode and transformer
/// parameters stay as shipped.
const PASSIVE_KEYS: [&str; 7] = ["c", "cp", "cs", "rc", "rl", "rp", "rs"];

/// Parses a SPICE number with an optional engineering suffix, applying the
/// suffix as a decimal exponent (as the netlist front-end does, so `10u`
/// reads exactly as `10e-6`).
pub fn parse_value(token: &str) -> Option<f64> {
    let lower = token.to_ascii_lowercase();
    let split = lower
        .find(|c: char| c.is_ascii_alphabetic() && c != 'e')
        .unwrap_or(lower.len());
    let (mantissa, suffix) = lower.split_at(split);
    let exponent = match suffix {
        "" => return mantissa.parse().ok(),
        "t" => 12,
        "g" => 9,
        "meg" => 6,
        "k" => 3,
        "m" => -3,
        "u" => -6,
        "n" => -9,
        "p" => -12,
        "f" => -15,
        _ => return None,
    };
    if mantissa.contains('e') {
        return None;
    }
    format!("{mantissa}e{exponent}").parse().ok()
}

/// `text` with every resistor and capacitor value — top-level `R`/`C`
/// lines and the passive parameters of `.subckt` headers and instances —
/// multiplied by a factor from `factor` (drawn once per value, in text
/// order). Analysis cards, sources and nonlinear devices are unchanged.
pub fn perturb(text: &str, mut factor: impl FnMut() -> f64) -> String {
    let mut out = String::with_capacity(text.len() + 256);
    let mut in_subckt = false;
    for line in text.lines() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let first = tokens.first().map(|t| t.to_ascii_lowercase());
        let rewritten = match first.as_deref() {
            Some(".subckt") => {
                in_subckt = true;
                Some(perturb_params(&tokens, &mut factor))
            }
            Some(".ends") => {
                in_subckt = false;
                None
            }
            Some(t) if t.starts_with('x') => Some(perturb_params(&tokens, &mut factor)),
            Some(t)
                if !in_subckt
                    && (t.starts_with('r') || t.starts_with('c'))
                    && tokens.len() == 4 =>
            {
                parse_value(tokens[3]).map(|v| {
                    format!(
                        "{} {} {} {:e}",
                        tokens[0],
                        tokens[1],
                        tokens[2],
                        v * factor()
                    )
                })
            }
            _ => None,
        };
        out.push_str(rewritten.as_deref().unwrap_or(line));
        out.push('\n');
    }
    out
}

fn perturb_params(tokens: &[&str], factor: &mut impl FnMut() -> f64) -> String {
    let rewritten: Vec<String> = tokens
        .iter()
        .map(|token| {
            let Some((key, value)) = token.split_once('=') else {
                return token.to_string();
            };
            match parse_value(value) {
                Some(v) if PASSIVE_KEYS.contains(&key.to_ascii_lowercase().as_str()) => {
                    format!("{key}={:e}", v * factor())
                }
                _ => token.to_string(),
            }
        })
        .collect();
    rewritten.join(" ")
}

/// `text` with its analysis cards replaced by `cards`.
pub fn with_cards(text: &str, cards: &str) -> String {
    let mut out: String = text
        .lines()
        .filter(|line| {
            let lower = line.trim_start().to_ascii_lowercase();
            ![".tran", ".pss", ".ac", ".op"]
                .iter()
                .any(|card| lower.starts_with(card))
        })
        .flat_map(|line| [line, "\n"])
        .collect();
    out.push_str(cards);
    out
}

/// The same netlist written differently — comments, blank lines, extra
/// whitespace and rescaled number mantissas — so only its canonical print
/// (not its text) matches the original.
pub fn reformat(text: &str) -> String {
    let mut out = String::from("* resubmitted design point, reformatted\n\n");
    for line in text.lines() {
        let tokens: Vec<String> = line
            .split_whitespace()
            .map(|token| {
                if line.trim_start().starts_with('*') {
                    return token.to_string();
                }
                match token.split_once('=') {
                    Some((key, value)) => format!("{key}={}", remantissa(value)),
                    None => remantissa(token),
                }
            })
            .collect();
        out.push_str(&tokens.join("   "));
        out.push_str("\n\n");
    }
    out
}

/// A scientific literal `m e x` rewritten as `(10·m) e (x − 1)`: the same
/// decimal value, so it parses to the same double. Other tokens pass
/// through.
fn remantissa(token: &str) -> String {
    let Some((mantissa, exponent)) = token.split_once('e') else {
        return token.to_string();
    };
    match (mantissa.parse::<f64>(), exponent.parse::<i32>()) {
        (Ok(_), Ok(exp)) => {
            let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, ""));
            let (shifted_int, rest) = match frac.split_at_checked(1) {
                Some((digit, rest)) => (format!("{int}{digit}"), rest),
                None => (format!("{int}0"), ""),
            };
            if rest.is_empty() {
                format!("{shifted_int}e{}", exp - 1)
            } else {
                format!("{shifted_int}.{rest}e{}", exp - 1)
            }
        }
        _ => token.to_string(),
    }
}

/// The span name of a run of `card`.
pub fn run_span(card: &Analysis) -> &'static str {
    match card {
        Analysis::Op(_) => "analysis.run.op",
        Analysis::Tran(_) => "analysis.run.tran",
        Analysis::Pss(_) => "analysis.run.pss",
        Analysis::Ac(_) => "analysis.run.ac",
    }
}

/// The node whose voltages a run is checked on: `out`, or the first
/// array stage's `out0`.
pub fn probe_node(circuit: &Circuit) -> Option<harvester_mna::circuit::NodeId> {
    circuit
        .find_node("out")
        .or_else(|| circuit.find_node("out0"))
}

/// Checked outputs of one plan run: per card, the probe node's final
/// voltage (`.tran`, `.pss`) or peak small-signal magnitude (`.ac`), plus
/// whether every `.pss` card converged.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    /// One value per card, in card order.
    pub values: Vec<f64>,
    /// `false` when any `.pss` card did not converge.
    pub pss_converged: bool,
}

impl Signature {
    /// The signature of `results` on `circuit`.
    pub fn of<'a>(
        circuit: &Circuit,
        results: impl IntoIterator<Item = &'a AnalysisResult>,
    ) -> Signature {
        let probe = probe_node(circuit).expect("every fixture has an output node");
        let mut signature = Signature {
            values: Vec::new(),
            pss_converged: true,
        };
        for result in results {
            let value = match result {
                AnalysisResult::Op(op) => op.voltage(probe),
                AnalysisResult::Tran(tran) => tran.final_voltage(probe),
                AnalysisResult::Pss(pss) => {
                    signature.pss_converged &= pss.converged;
                    pss.result.final_voltage(probe)
                }
                AnalysisResult::Ac(ac) => ac.magnitude(probe).into_iter().fold(0.0, f64::max),
            };
            signature.values.push(value);
        }
        signature
    }

    /// Appends the signature of later cards of the same plan.
    pub fn extend(&mut self, later: Signature) {
        self.values.extend(later.values);
        self.pss_converged &= later.pss_converged;
    }
}

/// `true` when `value` is within the stated tolerance of `reference`:
/// `|value − reference| ≤ rel·|reference| + abs`.
pub fn within(value: f64, reference: f64, rel: f64, abs: f64) -> bool {
    (value - reference).abs() <= rel * reference.abs() + abs
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvester_mna::netlist::{build_with_plan, print_with_plan};

    fn canonical(text: &str) -> String {
        let (circuit, plan) = build_with_plan(text).expect("valid netlist");
        print_with_plan(&circuit, &plan).expect("printable")
    }

    #[test]
    fn engineering_suffixes_parse() {
        assert_eq!(parse_value("47u"), Some(47e-6));
        assert_eq!(parse_value("1meg"), Some(1e6));
        assert_eq!(parse_value("25"), Some(25.0));
        assert_eq!(parse_value("4.7e-7"), Some(4.7e-7));
        assert_eq!(parse_value("{c}"), None);
    }

    #[test]
    fn unit_perturbation_keeps_the_canonical_netlist() {
        for fixture in card_fixtures() {
            assert_eq!(
                canonical(&perturb(&fixture.text, || 1.0)),
                canonical(&fixture.text),
                "{}",
                fixture.name
            );
        }
    }

    #[test]
    fn perturbation_moves_every_passive_value() {
        for fixture in card_fixtures() {
            let perturbed = perturb(&fixture.text, || 1.01);
            assert_ne!(canonical(&perturbed), canonical(&fixture.text));
        }
        let villard = &card_fixtures()[0].text;
        let mut count = 0;
        perturb(villard, || {
            count += 1;
            1.0
        });
        // The vstage default c=47u, five Cdc reservoirs, Cload and Rload.
        assert_eq!(count, 8);
    }

    #[test]
    fn reformatting_changes_the_text_but_not_the_canonical_print() {
        for fixture in card_fixtures() {
            let text = perturb(&fixture.text, || 1.003);
            let again = reformat(&text);
            assert_ne!(again, text);
            assert_eq!(canonical(&again), canonical(&text), "{}", fixture.name);
        }
    }

    #[test]
    fn cards_are_replaced() {
        let text = with_cards(&card_fixtures()[1].text, ".tran 2e-5 0.01\n");
        let (_, plan) = build_with_plan(&text).expect("valid netlist");
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.cards()[0].kind(), "tran");
    }
}
