//! Facade-level smoke tests: the re-export paths advertised in the crate
//! docs must keep resolving, and the chromosome encoding must round-trip the
//! paper's baseline design.

use energy_harvester::experiments::{decode, encode, paper_bounds, GENE_COUNT};
use energy_harvester::models::{BoosterConfig, HarvesterConfig};

/// Every documented re-export path resolves to the expected workspace crate.
/// Referencing one item through each path is enough — if a re-export is
/// dropped or renamed, this test stops compiling.
#[test]
fn documented_reexport_paths_resolve() {
    let _config: energy_harvester::models::HarvesterConfig = HarvesterConfig::unoptimised();
    let _options = energy_harvester::mna::transient::TransientOptions::default();
    let _matrix = energy_harvester::numerics::linalg::Matrix::identity(2);
    let _ga_options = energy_harvester::optim::GaOptions::paper();
    let _bounds = energy_harvester::experiments::paper_bounds();
    // The parallel batch-evaluation engine.
    let _parallelism = energy_harvester::optim::Parallelism::Threads(4);
    let _evaluator = energy_harvester::optim::ParallelEvaluator::serial();
    let _sweep = energy_harvester::experiments::SweepOptions::coarse();
    let _workspace = energy_harvester::models::EnvelopeWorkspace::new();
    // The periodic steady-state (shooting) engine.
    let _steady_state = energy_harvester::models::SteadyState::shooting();
    let _pss_options = energy_harvester::mna::shooting::SteadyStateOptions::new(1e-3);
    let _monodromy = energy_harvester::numerics::monodromy::VectorSensitivity::new(2);
}

/// `encode` → `decode` reproduces the Table 1 design: the baseline genes lie
/// inside the optimisation bounds, so no clamp or physical-consistency floor
/// may move them.
#[test]
fn unoptimised_config_round_trips_through_encode_decode() {
    let base = HarvesterConfig::unoptimised();
    let genes = encode(&base);
    assert_eq!(genes.len(), GENE_COUNT);

    let bounds = paper_bounds();
    for ((gene, lo), hi) in genes.iter().zip(bounds.lower()).zip(bounds.upper()) {
        assert!(
            *gene >= *lo && *gene <= *hi,
            "baseline gene {gene} outside the optimisation bounds [{lo}, {hi}]"
        );
    }

    let decoded = decode(&base, &genes);
    let recovered = encode(&decoded);
    for (index, (a, b)) in genes.iter().zip(recovered.iter()).enumerate() {
        assert!(
            (a - b).abs() <= 1e-12 * a.abs().max(1.0),
            "gene {index} did not round-trip: encoded {a}, recovered {b}"
        );
    }

    assert!(
        matches!(decoded.booster, BoosterConfig::Transformer(_)),
        "decode must preserve the transformer booster of the baseline design"
    );
    assert_eq!(decoded.storage, base.storage);
    assert_eq!(decoded.model, base.model);
}
