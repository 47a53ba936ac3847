//! Blocking benchmark regression gate.
//!
//! Compares freshly produced `BENCH_*.json` artefacts against the committed
//! snapshots under `bench/baselines/` and **exits non-zero** when any shared
//! metric regressed beyond tolerance, or any work counter of
//! [`RunStatistics`] changed at all, so CI can gate merges on the perf
//! trajectory. The counters are deterministic, so each one — fallback
//! counters and zero baselines included — must match its snapshot exactly;
//! a change that moves one re-records the baselines in the same commit.
//! Two escape hatches keep the gate honest instead of annoying:
//!
//! * `--tolerance <fraction>` widens every per-metric slack to at least the
//!   given fraction (default `0.25`, i.e. a 25 % regression fails the gate;
//!   per-metric slacks that are already wider — wall clock, for one — keep
//!   their wider value);
//! * a `[bench-skip]` marker in the commit message makes CI skip the gate
//!   step entirely (see `.github/workflows/ci.yml`) for changes that move
//!   work counters legitimately, together with a baseline refresh.
//!
//! `--write` replaces the comparison with a baseline refresh: every fresh
//! `BENCH_*.json` found in the fresh directory is copied over the committed
//! snapshot (see `bench/README.md` for the workflow).
//!
//! Usage:
//!
//! ```text
//! compare_bench_baselines [--tolerance 0.25] [--write] [baseline_dir] [fresh_dir]
//! ```
//!
//! (defaults: `bench/baselines` and the current directory).

use harvester_bench::report::{parse_bench_json, BenchRecord, ParsedBench};
use harvester_mna::transient::RunStatistics;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// Metrics where a larger fresh value means a regression, with the relative
/// slack allowed before the gate trips. Wall clock gets a generous margin
/// (different machines). The `--tolerance` floor is applied on top
/// (`max(slack, tolerance)`).
const LOWER_IS_BETTER: &[(&str, f64)] = &[("wall_seconds", 0.50), ("worst_deviation_amperes", 1.0)];

/// Metrics where a smaller fresh value means a regression.
const HIGHER_IS_BETTER: &[(&str, f64)] = &[
    ("cache_hit_rate", 0.10),
    ("newton_reduction", 0.10),
    ("cycle_reduction", 0.10),
    ("sparse_speedup", 0.50),
    ("wall_speedup", 0.50),
];

/// Default `--tolerance`: the widest regression any metric may show before
/// the gate trips, unless its per-metric slack is wider still.
const DEFAULT_TOLERANCE: f64 = 0.25;

fn load(path: &Path) -> Option<ParsedBench> {
    let text = std::fs::read_to_string(path).ok()?;
    match parse_bench_json(&text) {
        Ok(parsed) => Some(parsed),
        Err(e) => {
            println!("warning: cannot parse {}: {e}", path.display());
            None
        }
    }
}

/// Fresh `BENCH_*.json` names found in `fresh_dir`.
fn fresh_artefacts(fresh_dir: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(fresh_dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.file_name().to_string_lossy().to_string())
                .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

/// `--write`: copy every fresh artefact over the committed snapshot.
fn write_baselines(baseline_dir: &str, fresh_dir: &str) -> ExitCode {
    let names = fresh_artefacts(fresh_dir);
    if names.is_empty() {
        println!("--write: no fresh BENCH_*.json in {fresh_dir}; run the benches first");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::create_dir_all(baseline_dir) {
        println!("--write: cannot create {baseline_dir}: {e}");
        return ExitCode::FAILURE;
    }
    for name in &names {
        let from = Path::new(fresh_dir).join(name);
        let to = Path::new(baseline_dir).join(name);
        match std::fs::copy(&from, &to) {
            Ok(_) => println!("refreshed {}", to.display()),
            Err(e) => {
                println!(
                    "--write: cannot copy {} -> {}: {e}",
                    from.display(),
                    to.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    println!("--write: {} baseline(s) refreshed", names.len());
    ExitCode::SUCCESS
}

struct Options {
    baseline_dir: String,
    fresh_dir: String,
    tolerance: f64,
    write: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        baseline_dir: "bench/baselines".to_string(),
        fresh_dir: ".".to_string(),
        tolerance: DEFAULT_TOLERANCE,
        write: false,
    };
    let mut positional = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--write" => options.write = true,
            "--tolerance" => {
                let value = args
                    .next()
                    .ok_or_else(|| "--tolerance needs a value".to_string())?;
                let parsed: f64 = value
                    .parse()
                    .map_err(|_| format!("--tolerance: not a number: {value}"))?;
                if !parsed.is_finite() || parsed < 0.0 {
                    return Err(format!(
                        "--tolerance must be a non-negative fraction, got {parsed}"
                    ));
                }
                options.tolerance = parsed;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: compare_bench_baselines [--tolerance 0.25] [--write] \
                     [baseline_dir] [fresh_dir]"
                        .to_string(),
                );
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other} (see --help)"));
            }
            other => {
                match positional {
                    0 => options.baseline_dir = other.to_string(),
                    1 => options.fresh_dir = other.to_string(),
                    _ => return Err(format!("unexpected extra argument {other}")),
                }
                positional += 1;
            }
        }
    }
    Ok(options)
}

/// Compares one fresh record against its baseline under `tolerance`,
/// appending a summary line per regression, and returns the number of
/// comparisons and of regressions. Every [`RunStatistics`] counter the two
/// share must match exactly; the other tracked metrics may drift within
/// their slack.
fn compare_record(
    artefact: &str,
    base: &BenchRecord,
    fresh: &BenchRecord,
    tolerance: f64,
    summary: &mut String,
) -> (usize, usize) {
    let mut compared = 0usize;
    let mut regressions = 0usize;
    let mut report = |metric: &str, b: f64, f: f64, verdict: String| {
        regressions += 1;
        let _ = writeln!(
            summary,
            "- `{artefact}` `{}` **{metric}** {b:.4} -> {f:.4}: {verdict}",
            base.name
        );
    };
    for (counter, _) in RunStatistics::default().counters() {
        if let (Some(b), Some(f)) = (base.get(counter), fresh.get(counter)) {
            compared += 1;
            if f != b {
                report(counter, b, f, "work counter changed".to_string());
            }
        }
    }
    for &(metric, slack) in LOWER_IS_BETTER {
        let slack = slack.max(tolerance);
        if let (Some(b), Some(f)) = (base.get(metric), fresh.get(metric)) {
            compared += 1;
            if b > 0.0 && f > b * (1.0 + slack) {
                let verdict = format!(
                    "regressed +{:.0}% (slack {:.0}%)",
                    100.0 * (f / b - 1.0),
                    100.0 * slack
                );
                report(metric, b, f, verdict);
            }
        }
    }
    for &(metric, slack) in HIGHER_IS_BETTER {
        let slack = slack.max(tolerance);
        if let (Some(b), Some(f)) = (base.get(metric), fresh.get(metric)) {
            compared += 1;
            if b > 0.0 && f < b * (1.0 - slack) {
                let verdict = format!(
                    "regressed -{:.0}% (slack {:.0}%)",
                    100.0 * (1.0 - f / b),
                    100.0 * slack
                );
                report(metric, b, f, verdict);
            }
        }
    }
    (compared, regressions)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            println!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if options.write {
        return write_baselines(&options.baseline_dir, &options.fresh_dir);
    }

    let mut summary = String::new();
    let mut regressions = 0usize;
    let mut compared = 0usize;

    let entries = match std::fs::read_dir(&options.baseline_dir) {
        Ok(entries) => entries,
        Err(e) => {
            println!(
                "no baseline directory {}: {e} (nothing to compare)",
                options.baseline_dir
            );
            return ExitCode::SUCCESS;
        }
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let fresh_path = Path::new(&options.fresh_dir).join(&name);
        if !fresh_path.exists() {
            println!("note: {name}: no fresh artefact (bench not run in this job), skipped");
            continue;
        }
        let (Some(baseline), Some(fresh)) = (load(&entry.path()), load(&fresh_path)) else {
            continue;
        };
        for base_record in &baseline.results {
            let Some(fresh_record) = fresh.record(&base_record.name) else {
                println!(
                    "note: {name}/{}: record missing from fresh artefact",
                    base_record.name
                );
                continue;
            };
            let (c, r) = compare_record(
                &name,
                base_record,
                fresh_record,
                options.tolerance,
                &mut summary,
            );
            compared += c;
            regressions += r;
        }
    }

    let headline = if regressions == 0 {
        format!("Bench baselines: {compared} metric comparisons, no regressions beyond tolerance.")
    } else {
        format!(
            "Bench baselines: {regressions} regression(s) across {compared} comparisons \
             (gate FAILED; refresh baselines with --write and mark the commit [bench-skip] \
             if the shift is intended):"
        )
    };
    println!("{headline}");
    print!("{summary}");

    // Surface the same text in the GitHub job summary when available.
    if let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") {
        let mut text = format!("### {headline}\n\n");
        text.push_str(&summary);
        if let Err(e) = std::fs::write(&path, text) {
            println!("warning: cannot write job summary: {e}");
        }
    }

    if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvester_bench::report::statistics_record;

    fn compare(base: &BenchRecord, fresh: &BenchRecord) -> (usize, usize) {
        compare_record(
            "BENCH_t.json",
            base,
            fresh,
            DEFAULT_TOLERANCE,
            &mut String::new(),
        )
    }

    #[test]
    fn every_work_counter_is_compared_exactly() {
        let stats = RunStatistics {
            newton_iterations: 1000,
            ..RunStatistics::default()
        };
        let base = statistics_record("run", &stats, 1.0);
        assert_eq!(compare(&base, &base), (RunStatistics::COUNTERS + 1, 0));

        // A fallback counter leaving a zero baseline fails the gate.
        let moved = RunStatistics {
            gmres_fallbacks: 1,
            ..stats
        };
        let fresh = statistics_record("run", &moved, 1.0);
        assert_eq!(compare(&base, &fresh).1, 1);

        // So does a counter that fell, and one that moved by 0.1 %.
        for newton_iterations in [999, 1001] {
            let fresh = statistics_record(
                "run",
                &RunStatistics {
                    newton_iterations,
                    ..stats
                },
                1.0,
            );
            assert_eq!(compare(&base, &fresh).1, 1, "{newton_iterations}");
        }
    }

    #[test]
    fn wall_clock_and_ratio_rows_drift_within_tolerance() {
        let stats = RunStatistics::default();
        let base = statistics_record("run", &stats, 1.0).metric("sparse_speedup", 2.0);
        let slower = statistics_record("run", &stats, 1.4).metric("sparse_speedup", 1.1);
        assert_eq!(compare(&base, &slower).1, 0);
        let much_slower = statistics_record("run", &stats, 1.6).metric("sparse_speedup", 0.9);
        assert_eq!(compare(&base, &much_slower).1, 2);
    }
}
