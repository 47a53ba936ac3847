//! The one benchmark harness: timing and machine-readable reporting.
//!
//! Every bench target times its fixtures through [`time`]. The targets that
//! produce deterministic work counters also emit a `BENCH_<name>.json`
//! artefact at the workspace root through this module, so CI can archive the
//! per-PR perf trajectory (and compare it against the committed snapshots
//! under `bench/baselines/`) without pulling a serde dependency into the
//! workspace. The format is deliberately tiny:
//!
//! ```json
//! {
//!   "bench": "pss",
//!   "results": [
//!     {"name": "villard_envelope_shooting", "wall_seconds": 0.1, ...}
//!   ]
//! }
//! ```

use harvester_mna::transient::RunStatistics;
use std::fmt::Debug;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Most samples [`time`] takes of one fixture.
const MAX_SAMPLES: usize = 10;

/// [`time`] stops sampling a fixture once its samples add up to this, so a
/// fixture slower than that runs once.
const SAMPLE_TIME: Duration = Duration::from_secs(2);

/// One record of a machine-readable benchmark artefact: a benchmark name
/// plus flat numeric metrics (wall seconds, work counters, ratios).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark identifier, e.g. `"transient/villard_envelope_adaptive"`.
    pub name: String,
    /// Metric name/value pairs, emitted in order.
    pub metrics: Vec<(String, f64)>,
}

impl BenchRecord {
    /// Creates an empty record for `name`.
    pub fn new(name: impl Into<String>) -> Self {
        BenchRecord {
            name: name.into(),
            metrics: Vec::new(),
        }
    }

    /// Appends one metric (builder style).
    pub fn metric(mut self, key: impl Into<String>, value: f64) -> Self {
        self.metrics.push((key.into(), value));
        self
    }

    /// Looks up a metric by name.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// Builds a record carrying every [`RunStatistics`] work counter plus the
/// wall-clock seconds — the shared shape of the solver, transient and PSS
/// artefacts, so baseline comparisons see the same metric names everywhere.
pub fn statistics_record(name: impl Into<String>, stats: &RunStatistics, wall: f64) -> BenchRecord {
    stats.counters().into_iter().fold(
        BenchRecord::new(name).metric("wall_seconds", wall),
        |record, (counter, value)| record.metric(counter, value as f64),
    )
}

/// Times the fixtures `names`, round by round, and prints the fastest,
/// median and slowest sample of each.
///
/// `run(k)` runs fixture `k` once. Each fixture is sampled up to 10 times
/// and stops once its samples add up to 2 s; the fixtures still sampling run
/// in alternation, so a drift in machine speed hits both sides of a ratio
/// alike. `counters` reads the work counters of one output.
///
/// Returns, per fixture, the output of its first sample and its fastest
/// sample in seconds: the `wall_seconds` of a `BENCH_*.json` row.
///
/// # Panics
///
/// Panics if a sample's work counters differ from the first sample's: such
/// a fixture is not deterministic, so its counters cannot be gated.
pub fn time<S, T, C, const N: usize>(
    names: [S; N],
    counters: impl Fn(&T) -> C,
    mut run: impl FnMut(usize) -> T,
) -> [(T, f64); N]
where
    S: AsRef<str>,
    C: PartialEq + Debug,
{
    let mut samples: [Vec<Duration>; N] = std::array::from_fn(|_| Vec::new());
    let mut firsts: [Option<(T, C)>; N] = std::array::from_fn(|_| None);
    while samples.iter().any(|s| sampling(s)) {
        for k in 0..N {
            if !sampling(&samples[k]) {
                continue;
            }
            let start = Instant::now();
            let output = black_box(run(k));
            samples[k].push(start.elapsed());
            let work = counters(&output);
            match &firsts[k] {
                None => firsts[k] = Some((output, work)),
                Some((_, first)) => assert!(
                    *first == work,
                    "{}: sample {} disagrees with the first on its work counters: \
                     {first:?} vs {work:?}",
                    names[k].as_ref(),
                    samples[k].len()
                ),
            }
        }
    }
    std::array::from_fn(|k| {
        let [fastest, median, slowest] = spread(&samples[k]);
        println!(
            "  {}: fastest {fastest:.3?}, median {median:.3?}, slowest {slowest:.3?} \
             ({} samples)",
            names[k].as_ref(),
            samples[k].len()
        );
        let (output, _) = firsts[k].take().expect("every fixture runs at least once");
        (output, fastest.as_secs_f64())
    })
}

/// Whether [`time`] samples a fixture again after `samples`: fewer than 10
/// so far, adding up to less than 2 s.
fn sampling(samples: &[Duration]) -> bool {
    samples.len() < MAX_SAMPLES && samples.iter().sum::<Duration>() < SAMPLE_TIME
}

/// The fastest, median and slowest of `samples` (the median of an even
/// count is the mean of the middle two).
fn spread(samples: &[Duration]) -> [Duration; 3] {
    let mut sorted = samples.to_vec();
    sorted.sort();
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    };
    [sorted[0], median, sorted[n - 1]]
}

/// Emits `records` as `BENCH_<bench>.json` at the workspace root, whatever
/// cargo sets as the bench's working directory — so CI's `BENCH_*.json` glob
/// finds every artefact.
///
/// # Panics
///
/// Panics if the artefact cannot be written — a benchmark that cannot record
/// its results should fail loudly, not silently.
pub fn emit(bench: &str, records: &[BenchRecord]) {
    let path = format!("{}/../../BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR"));
    write_bench_json(&path, bench, records);
}

/// Serialises `records` to `path` as a small self-contained JSON document.
/// Non-finite values are emitted as `null` (JSON has no NaN/Infinity).
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_bench_json(path: &str, bench: &str, records: &[BenchRecord]) {
    fn json_number(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"results\": [\n"
    ));
    for (k, record) in records.iter().enumerate() {
        out.push_str(&format!("    {{\"name\": \"{}\"", record.name));
        for (key, value) in &record.metrics {
            out.push_str(&format!(", \"{key}\": {}", json_number(*value)));
        }
        out.push_str(if k + 1 == records.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
        .unwrap_or_else(|e| panic!("cannot write benchmark artefact {path}: {e}"));
    println!("wrote {path}");
}

/// A parsed `BENCH_*.json` artefact.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedBench {
    /// The artefact's bench name.
    pub bench: String,
    /// The parsed records (metrics with `null` values are dropped).
    pub results: Vec<BenchRecord>,
}

impl ParsedBench {
    /// Looks up a record by name.
    pub fn record(&self, name: &str) -> Option<&BenchRecord> {
        self.results.iter().find(|r| r.name == name)
    }
}

/// Parses the exact JSON dialect [`write_bench_json`] emits (flat string/
/// number objects, no escapes) — enough for the baseline comparator and for
/// round-trip tests, without a serde dependency.
///
/// # Errors
///
/// Returns a human-readable description of the first malformed construct.
pub fn parse_bench_json(text: &str) -> Result<ParsedBench, String> {
    fn string_after<'a>(text: &'a str, key: &str, from: usize) -> Option<(&'a str, usize)> {
        let pat = format!("\"{key}\":");
        let at = text[from..].find(&pat)? + from + pat.len();
        let open = text[at..].find('"')? + at + 1;
        let close = text[open..].find('"')? + open;
        Some((&text[open..close], close + 1))
    }
    let (bench, _) =
        string_after(text, "bench", 0).ok_or_else(|| "missing \"bench\" field".to_string())?;
    let results_at = text
        .find("\"results\"")
        .ok_or_else(|| "missing \"results\" field".to_string())?;
    let mut results = Vec::new();
    let mut cursor = results_at;
    while let Some(open) = text[cursor..].find('{') {
        let open = cursor + open;
        let close = text[open..]
            .find('}')
            .map(|c| open + c)
            .ok_or_else(|| "unterminated record object".to_string())?;
        let body = &text[open + 1..close];
        let (name, mut at) =
            string_after(body, "name", 0).ok_or_else(|| "record without a name".to_string())?;
        let mut record = BenchRecord::new(name);
        // Remaining pairs are `"key": number` (or null, skipped).
        while let Some(q) = body[at..].find('"') {
            let key_open = at + q + 1;
            let key_close = body[key_open..]
                .find('"')
                .map(|c| key_open + c)
                .ok_or_else(|| format!("unterminated key in record '{name}'"))?;
            let key = &body[key_open..key_close];
            let colon = body[key_close..]
                .find(':')
                .map(|c| key_close + c)
                .ok_or_else(|| format!("metric '{key}' in '{name}' has no value"))?;
            let rest = body[colon + 1..].trim_start();
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            let value = rest[..end].trim();
            if value != "null" {
                let parsed: f64 = value
                    .parse()
                    .map_err(|e| format!("metric '{key}' in '{name}': {e}"))?;
                record.metrics.push((key.to_string(), parsed));
            }
            at = body.len() - rest.len() + end;
        }
        results.push(record);
        cursor = close + 1;
    }
    Ok(ParsedBench {
        bench: bench.to_string(),
        results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_record_carries_every_counter() {
        let mut stats = RunStatistics::default();
        for (k, (_, value)) in stats.counters_mut().into_iter().enumerate() {
            *value = k + 1;
        }
        let record = statistics_record("r", &stats, 0.5);
        let keys: Vec<&str> = record.metrics.iter().map(|(k, _)| k.as_str()).collect();
        let mut expected = vec!["wall_seconds"];
        expected.extend(stats.counters().map(|(name, _)| name));
        assert_eq!(keys, expected);
        assert_eq!(record.get("wall_seconds"), Some(0.5));
        for (name, value) in stats.counters() {
            assert_eq!(record.get(name), Some(value as f64), "{name}");
        }
        assert_eq!(record.get("nope"), None);
    }

    #[test]
    fn spread_reads_the_fastest_median_and_slowest_sample() {
        let ms = Duration::from_millis;
        assert_eq!(
            spread(&[ms(300), ms(100), ms(200)]),
            [ms(100), ms(200), ms(300)]
        );
        assert_eq!(
            spread(&[ms(400), ms(100), ms(300), ms(200)]),
            [ms(100), ms(250), ms(400)]
        );
        assert_eq!(spread(&[ms(700)]), [ms(700); 3]);
    }

    #[test]
    fn sampling_stops_at_ten_samples_or_two_seconds() {
        let ms = Duration::from_millis;
        assert!(sampling(&[]));
        assert!(sampling(&[ms(1); 9]));
        assert!(!sampling(&[ms(1); 10]));
        assert!(sampling(&[ms(900); 2]));
        assert!(!sampling(&[ms(900); 3]));
        // A fixture slower than the cap runs once.
        assert!(!sampling(&[ms(14_300)]));
    }

    #[test]
    fn fixtures_alternate_and_return_their_first_output() {
        let mut order = Vec::new();
        let [(a, _), (b, _)] = time(
            ["a", "b"],
            |_| (),
            |k| {
                order.push(k);
                order.len()
            },
        );
        assert_eq!(order, [0, 1].repeat(MAX_SAMPLES));
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    #[should_panic(expected = "drifting: sample 2 disagrees with the first on its work counters")]
    fn samples_disagreeing_on_a_counter_panic() {
        let mut newton_iterations = 100;
        time(
            ["drifting"],
            |stats: &RunStatistics| stats.newton_iterations,
            |_| {
                newton_iterations += 1;
                RunStatistics {
                    newton_iterations,
                    ..RunStatistics::default()
                }
            },
        );
    }

    #[test]
    fn emitted_artefacts_parse_back_losslessly() {
        let records = vec![
            BenchRecord::new("a").metric("x", 1.5).metric("y", -2.0),
            BenchRecord::new("b")
                .metric("x", f64::INFINITY)
                .metric("z", 3.0),
        ];
        let path = std::env::temp_dir().join("BENCH_roundtrip.json");
        let path = path.to_str().unwrap();
        write_bench_json(path, "roundtrip", &records);
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).ok();
        let parsed = parse_bench_json(&text).unwrap();
        assert_eq!(parsed.bench, "roundtrip");
        assert_eq!(parsed.results.len(), 2);
        assert_eq!(parsed.record("a").unwrap().get("x"), Some(1.5));
        assert_eq!(parsed.record("a").unwrap().get("y"), Some(-2.0));
        // The non-finite metric was emitted as null and dropped on parse.
        assert_eq!(parsed.record("b").unwrap().get("x"), None);
        assert_eq!(parsed.record("b").unwrap().get("z"), Some(3.0));
    }

    #[test]
    fn parser_reports_malformed_documents() {
        assert!(parse_bench_json("{}").is_err());
        assert!(parse_bench_json("{\"bench\": \"x\"}").is_err());
        assert!(parse_bench_json(
            "{\"bench\": \"x\", \"results\": [{\"name\": \"a\", \"k\": oops}]}"
        )
        .is_err());
    }
}
