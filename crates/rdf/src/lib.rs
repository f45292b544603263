#![warn(missing_docs)]
//! A geospatial RDF store with a SPARQL/GeoSPARQL subset — the
//! "re-engineered Strabon" of Challenge C3.
//!
//! The paper's motivating numbers: Strabon (the state-of-the-art
//! geospatial RDF store of ref \[15\]) "can only handle up to 100 GBs of
//! point data and still be able to answer simple geospatial queries
//! (selections over a rectangular area) efficiently (in a few seconds)",
//! and degrades further on multi-polygons. This crate reproduces both the
//! engine and that experiment:
//!
//! * [`term`] — RDF terms with typed literals (strings, integers,
//!   doubles, booleans, dates and `geo:wktLiteral` geometries);
//! * [`dict`] — dictionary encoding: every term interned to a `u64`, with
//!   decoded typed values (including parsed geometries) kept alongside;
//! * [`store`] — triples in three covering B-tree indexes (SPO/POS/OSP)
//!   of 12-byte keys, per-predicate counts, plus an R-tree over geometry
//!   literals — the one production layout;
//! * [`expr`] — filter expressions: comparisons, boolean algebra, and the
//!   GeoSPARQL functions `geof:sfIntersects` / `sfContains` / `sfWithin`
//!   / `geof:distance`, compiled at plan time over batch columns;
//! * [`parser`] — a hand-written SPARQL-subset parser (`PREFIX`,
//!   `SELECT [DISTINCT]`, basic graph patterns, `OPTIONAL`, `FILTER`,
//!   `GROUP BY` with `COUNT/SUM/AVG/MIN/MAX`, `ORDER BY`, `LIMIT`);
//! * [`plan`] — logical/physical query planning: constants resolved to
//!   ids, a static greedy join order, filters pinned to their earliest
//!   evaluation step, projection/group/order columns resolved, and
//!   *spatial pushdown* — a filter `geof:sfIntersects(?g, <const>)`
//!   restricts `?g`'s candidates via the R-tree before the join runs
//!   (filter–refine), and a point candidate strictly inside a rectangle
//!   constant skips the refine step. The resulting [`plan::Plan`] is inspectable,
//!   cacheable, and shared by the federation engine (as a logical plan:
//!   fetch order and region) and the serving tier.
//!   [`plan::plan_without_pushdown`] skips the R-tree: the post-filter
//!   ablation arm of experiment E2;
//! * [`batch`] — columnar binding batches over term ids;
//! * [`join`] — the physical operators: index nested-loop and hash-probe
//!   pattern extension, filter masks, and OPTIONAL left-joins, all
//!   parallelised with fixed-order reduction so any thread count is
//!   bit-identical to serial;
//! * [`exec`] — the executor pipeline tying plan → batches → operators →
//!   aggregation / ordering / materialisation together;
//! * [`update`] — SPARQL UPDATE evaluation (`INSERT DATA` / `DELETE
//!   DATA` / `DELETE WHERE`), split into a read-only evaluate step and
//!   an apply step so the durable store can log the delta in between;
//! * [`storage`] — durability: a compact checksummed binary snapshot
//!   format (dictionary blocks + sorted triple segments), a hash-chained
//!   commit log that is also the write-ahead log (torn-tail recovery),
//!   and the [`storage::Store`] wrapper that ties them together. A
//!   [`storage::ShardSpec`] filters bulk loads to one subject-hash
//!   shard of a partitioned dataset;
//! * [`naive`] — an independent nested-loop evaluator over a plain list
//!   of term triples, sharing only the parser's AST, [`Term`] and
//!   `ee_geo` with the engine: the pre-Strabon baseline of experiments
//!   E2/E3 and the oracle of the differential tests;
//! * [`merge`] — merge-aware combination of per-shard query results for
//!   the scatter-gather router tier: strategy selection by query shape
//!   (sum counts, canonical-order row concatenation) and rejection of
//!   shapes that cannot be answered shard-locally.

pub mod batch;
pub mod dict;
pub mod exec;
pub mod expr;
pub mod join;
pub mod merge;
pub mod naive;
pub mod parser;
pub mod plan;
pub mod storage;
pub mod store;
pub mod term;
pub mod update;

pub use store::{Novelty, StoreView, TripleStore, ViewCursor};
pub use term::Term;

/// Errors from the RDF layer.
#[derive(Debug, Clone, PartialEq)]
pub enum RdfError {
    /// Query text failed to parse.
    Parse(String),
    /// A well-formed query that the engine cannot evaluate.
    Eval(String),
    /// Bad term construction (e.g. malformed WKT literal).
    Term(String),
}

impl std::fmt::Display for RdfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RdfError::Parse(m) => write!(f, "SPARQL parse error: {m}"),
            RdfError::Eval(m) => write!(f, "evaluation error: {m}"),
            RdfError::Term(m) => write!(f, "term error: {m}"),
        }
    }
}

impl std::error::Error for RdfError {}
