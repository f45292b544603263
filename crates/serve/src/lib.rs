//! # ee-serve — the serving tier
//!
//! A dependency-free (std-only) multi-threaded HTTP/1.1 server that
//! fronts the workspace's analytics engines, closing the loop from the
//! paper's batch experiments to an interactive access layer: the hot
//! spatial-selection, catalogue-search, tile-overview and sea-ice
//! product paths become network services with caching, admission
//! control, and observable latency.
//!
//! Routes:
//!
//! | Route | Engine | Paper path |
//! |---|---|---|
//! | `GET /query` | `ee-rdf` BGP + spatial filter | E2/E3 selections |
//! | `POST /update` | `ee-rdf` SPARQL UPDATE (durable commit) | live ingest |
//! | `GET /catalogue/search` | `ee-catalogue` classic / semantic | E9 |
//! | `GET /tiles/{level}/{row}/{col}` | `ee-raster` overview pyramid | browse imagery |
//! | `GET /ice/{region}` | `ee-polar` PCDSS bundle | E12 |
//! | `GET /healthz` | — | liveness + data inventory |
//! | `GET /metrics` | — | Prometheus text format |
//!
//! Module map: [`http`] wire parsing (the resumable request parser, the
//! response writer, the client-side reader), [`router`] request→engine
//! dispatch, [`state`] the engines, [`cache`] a sharded LRU with TTL,
//! [`metrics`] counters and latency histograms, [`server`] the
//! poll-driven event-loop shards (C10K tier) over a worker pool,
//! [`loadgen`] the one load generator (a poll-driven fleet of
//! nonblocking client connections, in open or closed loop), [`shard`]
//! the scale-out router tier (`--router`): scatter-gather `/query` over
//! N shard processes with canonical merges, consistent-hash forwarding
//! for `/tiles` and `/ice`, per-shard deadlines with partial results,
//! and hedged requests against slow shards.

pub mod cache;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod router;
pub mod server;
pub mod shard;
pub mod state;

pub use server::{start, ServerConfig, ServerHandle};
pub use shard::RouterTier;
pub use state::{AppState, DataConfig};
