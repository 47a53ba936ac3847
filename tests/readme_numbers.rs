//! The README's solver-backend speed figures must be the ones the committed
//! bench baselines record, not hand-typed numbers that drift from them.

use harvester_bench::report::parse_bench_json;

/// The README with every run of whitespace (line breaks included) collapsed
/// to one space, so a quoted phrase may wrap anywhere.
fn readme() -> String {
    include_str!("../README.md")
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn readme_sparse_speedups_match_the_solver_baseline() {
    let baseline = parse_bench_json(include_str!("../bench/baselines/BENCH_solver.json"))
        .expect("the committed solver baseline parses");
    let speedup = |record: &str| {
        baseline
            .record(record)
            .and_then(|r| r.get("sparse_speedup"))
            .unwrap_or_else(|| panic!("BENCH_solver.json has no {record}.sparse_speedup"))
    };
    let ladder = speedup("ladder96_ratio");
    let villard = speedup("villard_harvester_ratio");
    let readme = readme();
    let verdict = |ratio: f64| if ratio < 1.0 { "slower" } else { "faster" };
    for phrase in [
        format!("{ladder:.2}× at 96 ladder sections"),
        format!(
            "{villard:.2}× ({}) on the largest paper fixture",
            verdict(villard)
        ),
    ] {
        assert!(
            readme.contains(&phrase),
            "README.md should quote \"{phrase}\" from bench/baselines/BENCH_solver.json"
        );
    }
}

#[test]
fn readme_fitness_speedup_matches_the_pss_baseline() {
    let baseline = parse_bench_json(include_str!("../bench/baselines/BENCH_pss.json"))
        .expect("the committed PSS baseline parses");
    let speedup = baseline
        .record("fitness_ratio")
        .and_then(|r| r.get("sparse_speedup"))
        .expect("BENCH_pss.json has fitness_ratio.sparse_speedup");
    let phrase = format!("record sparse at {speedup:.2}× as fast as dense (`fitness_ratio`");
    assert!(
        readme().contains(&phrase),
        "README.md should quote \"{phrase}\" from bench/baselines/BENCH_pss.json"
    );
}
