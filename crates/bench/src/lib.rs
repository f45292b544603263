#![warn(missing_docs)]
//! The experiment suite E1–E12: every quantitative claim the paper makes,
//! regenerated at laptop scale.
//!
//! Each experiment module exposes a `run(scale) -> Vec<Table>` used by the
//! `harness` binary, which prints the EXPERIMENTS.md tables. One extra
//! experiment rides along: [`kernels`] (`E-k0`) times the parallel compute
//! kernels against their serial references (writes `BENCH_PR1.json`). The
//! serving tier's performance instrument is the benchmark suite under
//! `src/bin/suite/` (see `BENCHMARK.json`); [`e_f9_shard`] keeps only the
//! `ee-serve` binary lookup it imports. The [`table::Table`] type renders
//! GitHub-flavoured markdown.

pub mod table;

pub mod e_f9_shard;
pub mod kernels;

pub mod e1_extraction;
pub mod e2_selection;
pub mod e3_complexity;
pub mod e4_distributed;
pub mod e5_classification;
pub mod e6_datasets;
pub mod e7_interlink;
pub mod e8_federation;
pub mod e9_catalogue;
pub mod e10_hopsfs;
pub mod e11_water;
pub mod e12_seaice;

/// How large to run the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-per-experiment (CI and the test suite).
    Quick,
    /// The scale used to produce EXPERIMENTS.md.
    Full,
}

/// All experiment ids in order.
pub const ALL: [&str; 13] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "kernels",
];

/// Run one experiment by id.
pub fn run(id: &str, scale: Scale) -> Option<Vec<table::Table>> {
    match id {
        "e1" => Some(e1_extraction::run(scale)),
        "e2" => Some(e2_selection::run(scale)),
        "e3" => Some(e3_complexity::run(scale)),
        "e4" => Some(e4_distributed::run(scale)),
        "e5" => Some(e5_classification::run(scale)),
        "e6" => Some(e6_datasets::run(scale)),
        "e7" => Some(e7_interlink::run(scale)),
        "e8" => Some(e8_federation::run(scale)),
        "e9" => Some(e9_catalogue::run(scale)),
        "e10" => Some(e10_hopsfs::run(scale)),
        "e11" => Some(e11_water::run(scale)),
        "e12" => Some(e12_seaice::run(scale)),
        "kernels" => Some(kernels::run(scale)),
        _ => None,
    }
}
