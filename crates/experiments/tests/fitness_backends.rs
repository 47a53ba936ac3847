//! Dense-vs-sparse cross-check of the GA fitness: the same chromosome scored
//! under `FitnessBudget::default()` on `SolverBackend::Dense` and on
//! `SolverBackend::Sparse` must take the same shooting and fallback path and
//! read the same fitness within a stated tolerance.
//!
//! The designs are `harvester_bench::fitness_cross_check_designs()`: the
//! Table 1 design, 24 uniform draws from `paper_bounds()` and two
//! blend-crossover children whose evaluations fall back to settling.
//!
//! Measured (release build, x86-64): the 26 fitnesses that come from a
//! converged shooting orbit agree to ≤ 2.3e-9 relative across the backends;
//! [`SHOT_FITNESS_RTOL`] allows 1e-7. (Among 40 blend-crossover children
//! probed to pick the two below, one shot fitness differed by 6.4e-8.) A
//! fitness whose every grid point fell back is a settled cycle average under
//! adaptive step control. The two backends round differently, which flips
//! step-control decisions, so that average reads 4.295e-6 A dense and
//! 4.310e-6 A sparse (0.34 % apart); [`SETTLED_FITNESS_RTOL`] allows 2 %.
//!
//! Release-scale work (54 fitness evaluations), so `#[ignore]`d in debug
//! builds.

use harvester_bench::fitness_cross_check_designs;
use harvester_core::system::HarvesterConfig;
use harvester_core::EnvelopeSimulator;
use harvester_experiments::{decode, FitnessBudget};
use harvester_mna::transient::{RunStatistics, SolverBackend};

/// Largest relative fitness difference between the backends when the
/// fitness grid point closed its orbit by shooting.
const SHOT_FITNESS_RTOL: f64 = 1e-7;

/// Largest relative fitness difference between the backends when both grid
/// points fell back to settling.
const SETTLED_FITNESS_RTOL: f64 = 2e-2;

/// The fitness of `genes` under `FitnessBudget::default()` on `backend`, and
/// the work counters of its measurement.
fn fitness(genes: &[f64], backend: SolverBackend) -> (f64, RunStatistics) {
    let budget = FitnessBudget {
        backend,
        ..FitnessBudget::default()
    };
    let config = decode(&HarvesterConfig::unoptimised(), genes);
    let characteristic = EnvelopeSimulator::new(config, budget.envelope())
        .measure_characteristic()
        .expect("every cross-check design simulates");
    (
        characteristic.current_at(budget.reference_voltage),
        characteristic.statistics(),
    )
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "54 fitness evaluations are release-scale work"
)]
fn dense_and_sparse_fitnesses_take_the_same_path_and_agree() {
    let designs = fitness_cross_check_designs();
    assert!(designs.len() >= 25);
    let mut seed_point_fallbacks = 0;
    let mut settled_fitnesses = 0;
    for (k, genes) in designs.iter().enumerate() {
        let (dense, dense_stats) = fitness(genes, SolverBackend::Dense);
        let (sparse, sparse_stats) = fitness(genes, SolverBackend::Sparse);
        assert!(
            dense.is_finite() && dense > 0.0,
            "design {k} must charge, got {dense}"
        );
        assert_eq!(
            dense_stats.brute_force_fallbacks, sparse_stats.brute_force_fallbacks,
            "design {k}: the backends must fall back at the same grid points"
        );
        assert_eq!(
            dense_stats.shooting_iterations, sparse_stats.shooting_iterations,
            "design {k}: the backends must take the same shooting iterations"
        );
        // Two grid points: the 0 V seed point, then the fitness point. In
        // this set a single fallback is always the seed point's, so the
        // fitness is settled only where both points fell back.
        let rtol = match dense_stats.brute_force_fallbacks {
            0 => SHOT_FITNESS_RTOL,
            1 => {
                seed_point_fallbacks += 1;
                SHOT_FITNESS_RTOL
            }
            _ => {
                settled_fitnesses += 1;
                SETTLED_FITNESS_RTOL
            }
        };
        let relative = (dense - sparse).abs() / dense.abs();
        assert!(
            relative <= rtol,
            "design {k}: dense {dense:e} vs sparse {sparse:e} differ by {relative:.2e} \
             relative (allowed {rtol:e})"
        );
    }
    assert!(
        seed_point_fallbacks >= 1 && settled_fitnesses >= 1,
        "the designs must cover a seed-point fallback and a settled fitness \
         ({seed_point_fallbacks} and {settled_fitnesses})"
    );
}
