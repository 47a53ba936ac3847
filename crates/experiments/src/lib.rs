//! Reproduction harness for the evaluation section of
//! *"Integrated approach to energy harvester mixed technology modelling and
//! performance optimisation"* (Wang et al., DATE 2008).
//!
//! One module per experiment, each returning plain data structures plus a
//! formatted [`report::Table`] so the examples and benches can print the same
//! rows/series the paper reports:
//!
//! | Paper artefact | Module / entry point |
//! |---|---|
//! | Fig. 5 - model-comparison charging curves | [`model_comparison::run_fig5`] |
//! | Fig. 7 - non-sinusoidal generator output | [`model_comparison::run_fig7`] |
//! | Fig. 8 / Table 2 - integrated GA optimisation | [`optimisation::run_optimisation`] |
//! | Table 1 / Table 2 - design parameters | [`optimisation::table1`], [`optimisation::table2_paper`], [`optimisation::OptimisationOutcome::parameter_table`] |
//! | Fig. 10 - un-optimised vs optimised charging | [`optimisation::run_fig10`] |
//! | Section 5 CPU-time breakdown (GA < 3 %) | [`cpu_time::run_cpu_split`] |
//!
//! Beyond the paper's single-harvester evaluation, [`arrays`] builds
//! parameterised coupled harvester arrays (`N` detuned Villard stages on a
//! shared generator bus) — the scaling fixtures behind the matrix-free
//! shooting benchmarks.
//!
//! The seven-gene design space of the paper's chromosome lives in
//! [`design_space`], together with the simulation-backed
//! [`design_space::HarvesterObjective`], the one fitness every experiment
//! scores a design with.
//!
//! The GA's generations shard their simulations over worker threads
//! according to [`optimisation::OptimisationOptions::parallelism`], every
//! worker calling the one shared objective; results are bit-identical for
//! any worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrays;
pub mod cpu_time;
pub mod design_space;
pub mod model_comparison;
pub mod optimisation;
pub mod report;

pub use arrays::{coupled_array, CoupledArray};
pub use cpu_time::{run_cpu_split, CpuTimeBreakdown, CpuTimeOptions};
pub use design_space::{
    decode, encode, paper_bounds, FitnessBudget, Gene, HarvesterObjective, GENE_COUNT,
};
pub use model_comparison::{run_fig5, run_fig7, Fig5Options, Fig5Result, Fig7Options, Fig7Result};
pub use optimisation::{
    run_fig10, run_optimisation, table1, table2_paper, Fig10Result, OptimisationOptions,
    OptimisationOutcome,
};
pub use report::Table;
