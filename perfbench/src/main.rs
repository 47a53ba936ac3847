//! End-to-end benchmark of the energy-harvester stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ga_campaign --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Three workloads, each in its own process and through public APIs only
//! (see `perfbench/README.md` for why each was chosen):
//!
//! * `ga_campaign` — the paper's Fig. 8 loop: GA campaigns whose fitness is
//!   a clamped-envelope measurement; a unit is one fitness evaluation.
//! * `netlist_cards` — card-driven netlist runs; a unit is
//!   `build_with_plan` + a fresh `AnalysisEngine` + `run`.
//! * `service_jobs` — a closed-loop client of the job service; a unit is
//!   one job from `submit` to the return of `wait`.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`
//! (whose spans are also written to
//! `$CARGO_TARGET_DIR/perfbench/trace-<workload>-<seed>.json`). Every time
//! is scaled to a reference machine's speed by a calibration kernel read
//! beside the units and by the CPU time the host stole (see `measure`),
//! because a shared machine's own speed swings.

mod cards;
mod ga;
mod jobs;
mod measure;
mod netlists;
mod references;
mod trace;

use references::References;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The seed a run uses when none is given. Seed 2718 is held back: no
/// tuning run uses it, so a performance claim can be checked on inputs the
/// change was not developed against (see `perfbench/README.md`).
pub const DEFAULT_SEED: u64 = 1;

/// Every end-to-end metric: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("unit_p50_ms", "ms"),
    ("unit_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric of a traced run: name and unit. A ratio is
/// listed beside the count it is taken over.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("trace.units", "count"),
    ("trace.units_per_s", "1/s"),
    ("trace.span_coverage", "ratio"),
    ("machine.kernel_ms", "ms"),
    ("machine.steal_share", "ratio"),
    ("optim.breed_share", "ratio"),
    ("optim.campaigns", "count"),
    ("envelope.fallback_ratio", "ratio"),
    ("envelope.grid_points", "count"),
    ("envelope.cycles_per_unit", "count"),
    ("envelope.us_per_cycle", "us"),
    ("envelope.cycles", "count"),
    ("shooting.iterations_per_unit", "count"),
    ("shooting.gmres_fallbacks", "count"),
    ("transient.newton_per_unit", "count"),
    ("transient.factorizations_per_newton", "ratio"),
    ("transient.rejected_per_unit", "count"),
    ("transient.us_per_newton", "us"),
    ("transient.newton_iterations", "count"),
    ("netlist.build_ms", "ms"),
    ("netlist.builds", "count"),
    ("netlist.print_ms", "ms"),
    ("netlist.prints", "count"),
    ("analysis.tran_ms", "ms"),
    ("analysis.tran_cards", "count"),
    ("analysis.pss_ms", "ms"),
    ("analysis.pss_cards", "count"),
    ("analysis.ac_ms", "ms"),
    ("analysis.ac_cards", "count"),
    ("service.submit_ms", "ms"),
    ("service.submits", "count"),
    ("service.overhead_ms", "ms"),
    ("service.overhead_samples", "count"),
    ("service.cache_hit_rate", "ratio"),
    ("service.evaluations", "count"),
    ("service.rss_per_job_kb", "kB"),
    ("service.jobs", "count"),
    ("work.changed_units", "count"),
];

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["ga_campaign", "netlist_cards", "service_jobs"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Seconds of timed work (whole rounds: the last one may overrun).
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Reference outputs and work counters the run is checked against.
    pub references: References,
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units attempted in the timed window.
    pub attempted: u64,
    /// Units that failed (simulation error or a non-terminal job).
    pub failed: u64,
    /// Output checks that failed; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Median set-up time in seconds.
    pub setup_s: f64,
    /// Completed units per second of timed wall time.
    pub units_per_s: f64,
    /// Median unit latency in milliseconds.
    pub unit_p50_ms: f64,
    /// 90th-percentile unit latency in milliseconds.
    pub unit_p90_ms: f64,
    /// Per-layer metrics (traced run only); unset ones read 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// One line of exact work counters for the log.
    pub work: String,
    /// The traced run's spans, written out when the run ends.
    pub tracer: Option<trace::Tracer>,
}

impl Outcome {
    /// Records a failed output check.
    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not in the per-layer catalogue"
        );
        self.layers.insert(name, value);
    }

    fn metrics(&self, trace: bool, peak_rss_mb: f64) -> Vec<(&'static str, f64, &'static str)> {
        if trace {
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, self.layers.get(name).copied().unwrap_or(0.0), unit))
                .collect()
        } else {
            let values = [
                self.setup_s,
                self.units_per_s,
                self.unit_p50_ms,
                self.unit_p90_ms,
                peak_rss_mb,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), value)| (name, value, unit))
                .collect()
        }
    }
}

/// `0` for a ratio whose base is empty.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Runs `workload` under `config`.
pub fn run_workload(workload: &str, config: &Config) -> Result<Outcome, String> {
    match workload {
        "ga_campaign" => Ok(ga::run(config)),
        "netlist_cards" => Ok(cards::run(config)),
        "service_jobs" => Ok(jobs::run(config)),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_references: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        write_references: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-references" {
            args.write_references = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if args.workload.is_empty() && !args.write_references {
        return Err(format!(
            "usage: perfbench --workload <{}> [--seed n] [--seconds s] [--trace 0|1]",
            WORKLOADS.join("|")
        ));
    }
    Ok(args)
}

/// File for the traced run's spans, inside the build directory.
fn trace_path(workload: &str, seed: u64) -> String {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let dir = format!("{target}/perfbench");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {dir}: {e}");
    }
    format!("{dir}/trace-{workload}-{seed}.json")
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.write_references {
        let references = References {
            ga: ga::reference_pool(),
            cards: cards::reference_table(),
        };
        print!("{}", references.render());
        return ExitCode::SUCCESS;
    }
    let config = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        references: References::committed(),
    };
    let mut outcome = match run_workload(&args.workload, &config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if outcome.attempted == 0 {
        outcome.problem("no unit was attempted");
    }
    let metrics = outcome.metrics(args.trace, measure::peak_rss_mb());
    for &(name, value, _) in &metrics {
        if !value.is_finite() {
            outcome.problem(format!("metric {name} is not finite"));
        }
    }
    if let Some(tracer) = &outcome.tracer {
        let path = trace_path(&args.workload, args.seed);
        tracer.write(&path, &format!("perfbench_{}", args.workload), &metrics);
    }
    println!("work: {}", outcome.work);
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.problems.is_empty(),
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit)` pairs (or names, for workloads) `BENCHMARK.json`
    /// declares in `section`.
    fn declared(section: &str, key: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let body = &text[text
            .find(&format!("\"{section}\""))
            .expect("section exists")..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split(&format!("\"{key}\": \""))
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("quoted")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_every_metric_and_workload() {
        for (section, metrics) in [
            ("end_to_end", END_TO_END.to_vec()),
            ("per_layer", PER_LAYER.to_vec()),
        ] {
            let names: Vec<&str> = metrics.iter().map(|(n, _)| *n).collect();
            let units: Vec<&str> = metrics.iter().map(|(_, u)| *u).collect();
            assert_eq!(declared(section, "name"), names);
            assert_eq!(declared(section, "unit"), units);
        }
        assert_eq!(declared("workloads", "name"), WORKLOADS);
    }
}
