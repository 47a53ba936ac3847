//! Operating-point and AC small-signal work counters, emitted as
//! `BENCH_ac.json`.
//!
//! The static analyses are cheap next to a transient, so this bench tracks
//! *work*, not throughput: the Newton/homotopy effort of the DC operating
//! point on the shipped booster fixtures (frozen at their 1 V drive level,
//! where the multiplier chain is genuinely nonlinear) and the sweep cost of
//! the transformer fixture's own `.ac` card (51 points, dec 10 over
//! 1 Hz..100 kHz) — regressions here mean the homotopy cascade or the
//! linearised solve path got more expensive.

use harvester_bench::report::{self, BenchRecord};
use harvester_mna::analysis::{Analysis, AnalysisEngine, AnalysisPlan, AnalysisResults, OpOptions};
use harvester_mna::netlist;

fn fixture(name: &str) -> String {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/netlists")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Deterministic op + AC work counters on the shipped fixtures, emitted as
/// `BENCH_ac.json`.
fn main() {
    println!("ac (machine readable -> BENCH_ac.json)");
    let mut records: Vec<BenchRecord> = Vec::new();

    // DC operating point on each booster frozen at its drive amplitude: the
    // diode chains conduct, so the homotopy cascade does real work.
    let names = ["villard", "transformer_booster"];
    let circuits = names.map(|name| {
        netlist::build(&fixture(&format!("{name}.cir")).replace("SIN(0 1 50)", "1"))
            .expect("frozen fixture must build")
    });
    // A single solve is microseconds — far below the gate's wall-clock
    // slack — so each sample is a batch; the work counters still describe
    // one run. Every solve runs on a fresh engine, so it builds its own
    // workspace.
    const OP_REPS: u32 = 2000;
    let op_plan = AnalysisPlan::from_cards(vec![Analysis::Op(OpOptions::default())])
        .expect("default op options are valid");
    let runs = report::time(
        names.map(|name| format!("{name}_op")),
        AnalysisResults::statistics,
        |k| {
            let run = || {
                AnalysisEngine::new()
                    .run(&circuits[k], &op_plan)
                    .expect("frozen fixture must have an operating point")
            };
            let mut results = run();
            for _ in 1..OP_REPS {
                results = run();
            }
            results
        },
    );
    for (name, (results, wall)) in names.iter().zip(&runs) {
        let stats = results.statistics();
        let op = results.op().expect("the plan is one .op card");
        println!(
            "  {name}_op: {OP_REPS} solves per sample, {} newton iterations, \
             {} factorisations, {:?}",
            stats.newton_iterations,
            stats.full_factorizations,
            op.strategy()
        );
        records.push(report::statistics_record(
            format!("{name}_op"),
            &stats,
            *wall,
        ));
    }

    // The transformer fixture's card-driven AC sweep, exactly as shipped.
    let (circuit, plan) = netlist::build_with_plan(&fixture("transformer_booster.cir"))
        .expect("transformer_booster.cir must build with plan");
    let ac_cards: Vec<Analysis> = plan
        .cards()
        .iter()
        .filter(|card| matches!(card, Analysis::Ac(_)))
        .cloned()
        .collect();
    let ac_plan = AnalysisPlan::from_cards(ac_cards).expect("fixture cards are valid");
    const SWEEP_REPS: u32 = 200;
    let [(results, wall)] = report::time(
        ["transformer_ac_sweep"],
        AnalysisResults::statistics,
        |_| {
            let run = || {
                AnalysisEngine::new()
                    .run(&circuit, &ac_plan)
                    .expect("transformer AC card must run")
            };
            let mut results = run();
            for _ in 1..SWEEP_REPS {
                results = run();
            }
            results
        },
    );
    let ac = results.ac().expect("the plan is the fixture's .ac card");
    let stats = results.statistics();
    println!(
        "  transformer_ac_sweep: {SWEEP_REPS} sweeps per sample, {} points, \
         {} newton iterations (op), {} factorisations",
        ac.len(),
        stats.newton_iterations,
        stats.full_factorizations
    );
    records.push(
        report::statistics_record("transformer_ac_sweep", &stats, wall)
            .metric("sweep_points", ac.len() as f64),
    );

    report::emit("ac", &records);
}
