#![warn(missing_docs)]
//! Federated SPARQL over distributed geospatial sources — the Semagrow
//! analogue of Challenge C3 (ref \[3\]).
//!
//! Semagrow "optimises federated SPARQL queries" over many endpoints; the
//! extension ExtremeEarth plans is managing *federations of big geospatial
//! data sources*. This crate implements that architecture:
//!
//! * [`endpoint`] — a remote-source abstraction over an `ee-rdf` store
//!   that counts the requests and bindings shipped to it (the E8 cost
//!   metrics);
//! * [`catalog`] — per-endpoint statistics harvested once: triple counts
//!   per predicate and the spatial extent of each source's geometries —
//!   the histograms source selection needs;
//! * [`exec`] — the federated evaluator. It decides what is shipped:
//!   *source selection* drops endpoints that cannot contribute to a
//!   pattern (no matching predicate, or — for spatially filtered
//!   queries — a disjoint extent), and *bind joins* ship intermediate
//!   bindings so only relevant remote triples return. The naive baseline
//!   broadcasts every pattern everywhere, which is what the optimised
//!   plan beats in E8. Either way the fetched triples land in one
//!   *mediator* store, and `ee-rdf`'s own planner and executor answer the
//!   query there — joins, filters, ORDER BY, DISTINCT and slicing
//!   included, exactly as over the union of the endpoints;
//! * [`remote`] — scatter-gather over HTTP shard backends: a keep-alive
//!   connection pool driving all in-flight exchanges from one poll
//!   loop, per-shard deadlines (partial results, never hangs), and
//!   hedged requests to still-pending shards past a trigger.

pub mod catalog;
pub mod endpoint;
pub mod exec;
pub mod remote;

pub use catalog::FederationCatalog;
pub use endpoint::Endpoint;
pub use remote::{select_shards, ScatterConfig, ScatterReport, ShardBackend, ShardPart, ShardPool};
pub use exec::{federated_query, FedReport, Mode};

/// Errors from federated evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum FedError {
    /// Parse error from the query text.
    Parse(String),
    /// The query uses features outside the federated subset.
    Unsupported(String),
}

impl From<ee_rdf::RdfError> for FedError {
    fn from(e: ee_rdf::RdfError) -> Self {
        FedError::Parse(e.to_string())
    }
}

impl std::fmt::Display for FedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FedError::Parse(m) => write!(f, "federated parse error: {m}"),
            FedError::Unsupported(m) => write!(f, "unsupported in federation: {m}"),
        }
    }
}

impl std::error::Error for FedError {}
