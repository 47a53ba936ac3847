//! Parse, elaborate and simulate a netlist file, driven by its analysis
//! cards.
//!
//! ```text
//! cargo run --release --example run_netlist -- examples/netlists/villard.cir
//! cargo run --release --example run_netlist -- examples/netlists/coupled_array4.cir
//! cargo run --release --example run_netlist -- my.cir --t-stop 0.5 --dt 1e-5
//! ```
//!
//! A netlist carrying `.op` / `.tran` / `.pss` / `.ac` cards runs exactly
//! that plan through [`netlist::build_with_plan`] and the
//! [`AnalysisEngine`], card by card, printing a summary of each result. A
//! netlist without cards falls back to a default transient (`--t-stop` /
//! `--dt` tune it; both flags are rejected when the file carries its own
//! cards, which already pin the study).

use energy_harvester::mna::analysis::{Analysis, AnalysisEngine, AnalysisResult};
use energy_harvester::mna::circuit::Circuit;
use energy_harvester::mna::netlist;
use energy_harvester::mna::transient::TransientOptions;

struct Args {
    path: String,
    t_stop: Option<f64>,
    dt: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        path: String::new(),
        t_stop: None,
        dt: None,
    };
    let mut it = std::env::args().skip(1);
    let float = |it: &mut dyn Iterator<Item = String>, flag: &str| -> Result<f64, String> {
        it.next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--t-stop" => args.t_stop = Some(float(&mut it, "--t-stop")?),
            "--dt" => args.dt = Some(float(&mut it, "--dt")?),
            other if args.path.is_empty() && !other.starts_with('-') => {
                args.path = other.to_string();
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.path.is_empty() {
        return Err("usage: run_netlist <file.cir> [--t-stop s] [--dt s]".to_string());
    }
    Ok(args)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let source = std::fs::read_to_string(&args.path)?;
    let (circuit, mut plan) =
        netlist::build_with_plan(&source).map_err(|e| format!("{}: {e}", args.path))?;
    println!(
        "{}: {} node(s), {} device(s), {} analysis card(s)",
        args.path,
        circuit.node_count(),
        circuit.device_count(),
        plan.len()
    );

    if plan.is_empty() {
        // No cards: default transient study, tunable from the command line.
        plan.push(Analysis::Tran(TransientOptions {
            t_stop: args.t_stop.unwrap_or(0.2),
            dt: args.dt.unwrap_or(2e-5),
            ..TransientOptions::default()
        }))?;
    } else if args.t_stop.is_some() || args.dt.is_some() {
        return Err(
            "--t-stop/--dt only apply to netlists without analysis cards \
                    (this file's cards already pin its study)"
                .into(),
        );
    }

    let results = AnalysisEngine::new().run(&circuit, &plan)?;
    for (card, result) in plan.cards().iter().zip(results.results()) {
        match result {
            AnalysisResult::Op(op) => {
                println!("[.op] operating point via {:?}:", op.strategy());
                print_final_voltages(&circuit, |node| op.voltage(node));
            }
            AnalysisResult::Tran(tran) => {
                let t_stop = tran.times().last().copied().unwrap_or(0.0);
                println!(
                    "[.{}] transient to t = {t_stop:.3e} s: {} accepted point(s)",
                    card.kind(),
                    tran.times().len()
                );
                print_final_voltages(&circuit, |node| tran.final_voltage(node));
            }
            AnalysisResult::Pss(pss) => {
                println!(
                    "[.pss] periodic steady state: converged = {} \
                     ({} iteration(s), closure error {:.3e})",
                    pss.converged, pss.iterations, pss.closure_error
                );
                print_final_voltages(&circuit, |node| pss.result.final_voltage(node));
            }
            AnalysisResult::Ac(ac) => {
                println!("[.ac] small-signal sweep, {} frequency point(s):", ac.len());
                for name in &circuit.node_names()[1..] {
                    let node = circuit.find_node(name).expect("listed nodes exist");
                    let magnitudes = ac.magnitude(node);
                    let (mut peak, mut peak_f) = (0.0_f64, 0.0_f64);
                    for (&f, &m) in ac.frequencies().iter().zip(&magnitudes) {
                        if m > peak {
                            (peak, peak_f) = (m, f);
                        }
                    }
                    println!("  {name:<16} peak |V| = {peak:.6} at {peak_f:.3e} Hz");
                }
            }
        }
    }
    let stats = results.statistics();
    println!(
        "plan totals: {} Newton iteration(s), {} LU factorisation(s)",
        stats.newton_iterations,
        stats.factorizations()
    );
    Ok(())
}

fn print_final_voltages(
    circuit: &Circuit,
    voltage: impl Fn(energy_harvester::mna::circuit::NodeId) -> f64,
) {
    println!("final node voltages:");
    for name in &circuit.node_names()[1..] {
        let node = circuit.find_node(name).expect("listed nodes exist");
        println!("  {name:<16} {:+.6} V", voltage(node));
    }
}
