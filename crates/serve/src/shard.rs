//! The router tier: one `ee-serve --router` process fronting N shard
//! processes, each holding one subject-hash slice of the logical
//! dataset.
//!
//! Request handling per route:
//!
//! * `/query` — **scatter-gather**: the query's merge strategy is chosen
//!   from its shape ([`ee_rdf::merge::strategy_for`]), the shard set
//!   from its subjects ([`ee_federation::select_shards`] — constant
//!   subjects visit only their ring owners), then the same request goes
//!   to every target shard through the [`ShardPool`]'s poll-driven
//!   connection pool. Responses merge canonically (counts sum, rows
//!   concatenate in sorted order) and stream out through the existing
//!   `Body::Streamed` path. A shard that misses its deadline yields a
//!   **partial** result: the merged body gains `"incomplete":true` and
//!   the response an `x-ee-incomplete: 1` header — never a hang;
//! * `/tiles/…`, `/ice/…` — **forwarded** to the consistent-hash owner
//!   of the path, so each shard's response cache only ever warms its
//!   own slice of the tile pyramid (space-partitioned serving);
//! * `/update` — refused with 403: the router tier is read-only by
//!   contract (writes go to a shard's own endpoint);
//! * `/healthz` — answered by the router itself with its backend
//!   inventory;
//! * everything else (catalogue, metrics, debug) falls through to the
//!   local engines — the catalogue is replicated, not partitioned.
//!
//! Metrics: `ee_route_shard_latency_us{shard}` histograms,
//! `ee_route_hedged_total`, `ee_route_partial_total`,
//! `ee_route_retried_total`, rendered into the `/metrics` output next
//! to the engine counters.

use crate::http::{ChunkedSlices, Request, Response};
use crate::metrics::{render_histogram_family, Histogram};
use crate::state::AppState;
use ee_federation::remote::{ScatterConfig, ShardBackend, ShardPool};
use ee_rdf::merge::{self, QueryResult};
use ee_util::json::Json;
use ee_util::ring::HashRing;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Router-tier state: the shard pool, the consistent-hash ring placing
/// paths onto shards, and the router metrics.
pub struct RouterTier {
    pool: ShardPool,
    ring: HashRing,
    shard_latency: Vec<Histogram>,
    hedged: AtomicU64,
    partial: AtomicU64,
    retried: AtomicU64,
}

impl RouterTier {
    /// A router over shard processes at `addrs` (shard index = position).
    pub fn new(addrs: &[SocketAddr], config: ScatterConfig) -> RouterTier {
        assert!(!addrs.is_empty(), "router needs at least one shard");
        let backends = addrs
            .iter()
            .enumerate()
            .map(|(i, &addr)| ShardBackend {
                name: format!("shard-{i}"),
                addr,
            })
            .collect();
        RouterTier {
            pool: ShardPool::new(backends, config),
            ring: HashRing::new(addrs.len()),
            shard_latency: addrs.iter().map(|_| Histogram::new()).collect(),
            hedged: AtomicU64::new(0),
            partial: AtomicU64::new(0),
            retried: AtomicU64::new(0),
        }
    }

    /// Number of shard backends.
    pub fn shard_count(&self) -> usize {
        self.pool.backends().len()
    }

    /// Hedged duplicate requests launched so far.
    pub fn hedged_total(&self) -> u64 {
        self.hedged.load(Ordering::Relaxed)
    }

    /// Scatter rounds that returned a partial result.
    pub fn partial_total(&self) -> u64 {
        self.partial.load(Ordering::Relaxed)
    }

    /// Stale pooled connections retried on a fresh connect.
    pub fn retried_total(&self) -> u64 {
        self.retried.load(Ordering::Relaxed)
    }

    /// Record one scatter round's outcome into the router metrics.
    fn note(&self, report: &ee_federation::ScatterReport) {
        for part in report.parts.iter().flatten() {
            let us = part.latency.as_micros().min(u128::from(u64::MAX)) as u64;
            self.shard_latency[part.shard].record_us(us);
        }
        self.hedged.fetch_add(report.hedged, Ordering::Relaxed);
        self.retried.fetch_add(report.retried, Ordering::Relaxed);
        if report.incomplete {
            self.partial.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The router slice of `/metrics` (appended to the state section).
    pub fn render_prometheus_section(&self) -> String {
        let mut out = String::with_capacity(512);
        let labels: Vec<String> = (0..self.shard_latency.len()).map(|i| i.to_string()).collect();
        render_histogram_family(
            &mut out,
            "ee_route_shard_latency_us",
            "Per-shard scatter latency as seen by the router (µs)",
            "shard",
            labels
                .iter()
                .zip(&self.shard_latency)
                .map(|(l, h)| (l.as_str(), h)),
        );
        out.push_str(&format!(
            "# HELP ee_route_hedged_total Hedged duplicate shard requests launched\n\
             # TYPE ee_route_hedged_total counter\nee_route_hedged_total {}\n",
            self.hedged_total()
        ));
        out.push_str(&format!(
            "# HELP ee_route_partial_total Scatter rounds answered with a partial result\n\
             # TYPE ee_route_partial_total counter\nee_route_partial_total {}\n",
            self.partial_total()
        ));
        out.push_str(&format!(
            "# HELP ee_route_retried_total Stale pooled shard connections retried fresh\n\
             # TYPE ee_route_retried_total counter\nee_route_retried_total {}\n",
            self.retried_total()
        ));
        out
    }
}

/// Router-mode dispatch: `Some(response)` when the router handles the
/// request itself (scatter, forward, refuse), `None` to fall through to
/// the local engines.
pub(crate) fn route(state: &Arc<AppState>, tier: &RouterTier, req: &Request) -> Option<Response> {
    let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("GET" | "POST", ["query"]) => Some(scatter_query(tier, req)),
        ("POST", ["update"]) => Some(Response::error(
            403,
            "the router tier is read-only; send updates to a shard endpoint",
        )),
        ("GET", ["tiles", _, _, _]) | ("GET", ["ice", _]) => Some(forward(tier, req)),
        ("GET", ["healthz"]) => Some(router_healthz(state, tier)),
        _ => None,
    }
}

/// The SPARQL text + row cap a `/query` request asks for — shared with
/// the single-store handlers in [`crate::router`].
pub(crate) fn query_of(req: &Request) -> Result<(String, usize), Response> {
    let limit = req.param_in("limit", 1000usize, 0..)?;
    if req.method == "POST" {
        let Ok(sparql) = std::str::from_utf8(&req.body) else {
            return Err(Response::error(400, "body must be UTF-8 SPARQL text"));
        };
        if sparql.trim().is_empty() {
            return Err(Response::error(400, "empty body; POST the SPARQL query text"));
        }
        return Ok((sparql.to_string(), limit));
    }
    let sparql = match req.param("sparql") {
        Some(q) => q.to_string(),
        None => {
            let x0 = req.param_in("x0", crate::state::REGION * 0.45, ..)?;
            let y0 = req.param_in("y0", crate::state::REGION * 0.45, ..)?;
            let side = req.param_in("side", crate::state::REGION / 10.0, ..)?;
            if !(x0.is_finite() && y0.is_finite() && side.is_finite() && side > 0.0) {
                return Err(Response::error(400, "x0/y0/side must be finite, side > 0"));
            }
            crate::state::selection_sparql(x0, y0, side)
        }
    };
    Ok((sparql, limit))
}

/// `/query` through the shard fleet: strategy → targets → scatter →
/// canonical merge → streamed body.
fn scatter_query(tier: &RouterTier, req: &Request) -> Response {
    let (sparql, limit) = match query_of(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    // Commit ids are per-shard (each shard grows its own hash chain),
    // so a versioned read has no fleet-wide meaning here; the `AS OF`
    // clause is refused by `merge::strategy_for` below.
    if req.param("asOf").is_some() {
        return Response::error(
            400,
            "versioned reads (asOf / AS OF) are not routable; query a shard endpoint directly",
        );
    }
    let strategy = match merge::strategy_for(&sparql) {
        Ok(s) => s,
        Err(e) => return Response::error(400, &format!("query failed: {e}")),
    };
    let targets = match ee_federation::select_shards(&sparql, tier.shard_count()) {
        Ok(t) => t,
        Err(e) => return Response::error(400, &format!("query failed: {e}")),
    };
    // Shards run the query without its LIMIT clause (the merge is the
    // only place the cap applies — see `ee_rdf::merge::scatter_text`).
    let scattered = merge::scatter_text(&sparql);
    let wire = format!(
        "POST /query?limit={limit} HTTP/1.1\r\nhost: ee-router\r\ncontent-length: {}\r\n\r\n{scattered}",
        scattered.len()
    );
    let report = tier.pool.scatter(wire.as_bytes(), &targets);
    tier.note(&report);
    let answered: Vec<&ee_federation::ShardPart> = report.parts.iter().flatten().collect();
    if answered.is_empty() {
        return Response::error(503, "no shard answered before the deadline")
            .with_header("x-ee-incomplete", "1");
    }
    // A shard-level error (bad query, shed request) wins over merging:
    // every shard runs the same text, so the first error is the answer.
    if let Some(bad) = answered.iter().find(|p| p.status != 200) {
        return Response {
            status: bad.status,
            content_type: "application/json".into(),
            headers: Vec::new(),
            body: crate::http::Body::Full(bad.body.clone()),
        };
    }
    let mut results = Vec::with_capacity(answered.len());
    for part in &answered {
        let body = match std::str::from_utf8(&part.body) {
            Ok(b) => b,
            Err(_) => return Response::error(502, "shard returned a non-UTF-8 body"),
        };
        match QueryResult::parse(body) {
            Ok(r) => results.push(r),
            Err(e) => return Response::error(502, &format!("bad shard response: {e}")),
        }
    }
    let merged = match merge::merge(&results, &strategy, limit) {
        Ok(m) => m,
        Err(e) => return Response::error(502, &format!("merge failed: {e}")),
    };
    let mut body = merged.emit();
    if report.incomplete {
        body.truncate(body.len() - 1);
        body.push_str(",\"incomplete\":true}");
    }
    // Stream the merged body out through the chunked path in bounded
    // slices, like every other large body this tier produces.
    let chunks: Vec<Vec<u8>> = body
        .as_bytes()
        .chunks(16 * 1024)
        .map(|c| c.to_vec())
        .collect();
    let resp = Response::streamed(200, "application/json", Box::new(ChunkedSlices::new(chunks)))
        .with_header("x-ee-shards", targets.len().to_string());
    if report.incomplete {
        resp.with_header("x-ee-incomplete", "1")
    } else {
        resp
    }
}

/// Forward one request to the consistent-hash owner of its path
/// (`/tiles`, `/ice`): the ring keeps each path's traffic — and each
/// shard's response-cache warmth — on a single shard.
fn forward(tier: &RouterTier, req: &Request) -> Response {
    let owner = tier.ring.shard_of(&req.path);
    let query = if req.query.is_empty() {
        String::new()
    } else {
        let params: Vec<String> = req
            .query
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("?{}", params.join("&"))
    };
    let wire = format!(
        "GET {}{query} HTTP/1.1\r\nhost: ee-router\r\n\r\n",
        req.path
    );
    let report = tier.pool.scatter(wire.as_bytes(), &[owner]);
    tier.note(&report);
    let Some(part) = report.parts.first().and_then(|p| p.as_ref()) else {
        return Response::error(503, "owning shard did not answer before the deadline")
            .with_header("x-ee-incomplete", "1")
            .with_header("x-ee-shard", owner.to_string());
    };
    // Rebuild the response from the decoded exchange, carrying through
    // the entity headers that matter to clients (the pool lower-cased
    // the names already).
    let content_type = part
        .headers
        .iter()
        .find(|(n, _)| n == "content-type")
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| "application/octet-stream".into());
    let mut resp = Response {
        status: part.status,
        content_type,
        headers: Vec::new(),
        body: crate::http::Body::Full(part.body.clone()),
    };
    for (name, value) in &part.headers {
        if name == "etag" || name.starts_with("x-") {
            resp = resp.with_header(name, value.clone());
        }
    }
    resp.with_header("x-ee-shard", owner.to_string())
}

/// `/healthz` on the router: role, backends, uptime.
fn router_healthz(state: &Arc<AppState>, tier: &RouterTier) -> Response {
    let backends = tier
        .pool
        .backends()
        .iter()
        .map(|b| Json::Str(b.addr.to_string()))
        .collect();
    Response::json(
        200,
        &Json::obj(vec![
            ("status", Json::Str("ok".into())),
            ("role", Json::Str("router".into())),
            ("shards", Json::Num(tier.shard_count() as f64)),
            ("backends", Json::Arr(backends)),
            (
                "uptime_s",
                Json::Num(state.started.elapsed().as_secs_f64()),
            ),
        ]),
    )
}
