#![warn(missing_docs)]
//! The experiment suite E1–E12: every quantitative claim the paper makes,
//! regenerated at laptop scale.
//!
//! Each experiment module exposes a `run(scale) -> Vec<Table>` used by the
//! `harness` binary, which prints the EXPERIMENTS.md tables. Two extra
//! experiments ride along: [`kernels`] (`E-k0`) times the parallel compute
//! kernels against their serial references (writes `BENCH_PR1.json`), and
//! [`e_s0_serve`] (`E-s0`) load-tests the `ee-serve` serving tier over real
//! sockets (writes `BENCH_PR2.json`). [`e_w7_store`] (`E-w7`) measures
//! the durable store's cold-start, write-while-serve latency, and crash
//! recovery (writes `BENCH_PR7.json`). [`e_c8_event`] (`E-c8`) measures
//! the event-driven serve tier holding thousands of mostly-idle
//! keep-alive connections and a stalled streaming reader (writes
//! `BENCH_PR8.json`). [`e_f9_shard`] (`E-f9`) launches N real `ee-serve`
//! shard processes behind the scatter-gather router and checks routed
//! answers byte-for-byte against an unsharded reference (writes
//! `BENCH_PR9.json`). [`e_t10`] (`E-t10`) machine-checks versioned
//! `?asOf=` reads against replayed stores and measures the pinned
//! versioned-read cache under writes (writes `BENCH_PR10.json`). The
//! [`table::Table`] type renders GitHub-flavoured markdown.

pub mod table;

pub mod e_c8_event;
pub mod e_f9_shard;
pub mod e_k6_topk;
pub mod e_s0_serve;
pub mod e_t10;
pub mod e_w7_store;
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
pub const ALL: [&str; 19] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "kernels", "e-s0",
    "e-k6", "e-w7", "e-c8", "e-f9", "e-t10",
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
        "e-s0" => Some(e_s0_serve::run(scale)),
        "e-k6" => Some(e_k6_topk::run(scale)),
        "e-w7" => Some(e_w7_store::run(scale)),
        "e-c8" => Some(e_c8_event::run(scale)),
        "e-f9" => Some(e_f9_shard::run(scale)),
        "e-t10" => Some(e_t10::run(scale)),
        _ => None,
    }
}
