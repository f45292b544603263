//! Route table and handlers: maps parsed requests onto the engines in
//! [`AppState`] and produces [`Response`]s.
//!
//! Routes:
//!
//! | route                       | engine                         | verb     |
//! |-----------------------------|--------------------------------|----------|
//! | `/query`                    | `ee-rdf` BGP selection (E2/E3) | GET/POST |
//! | `/update`                   | `ee-rdf` SPARQL UPDATE commit  | POST     |
//! | `/catalogue/search`         | `ee-catalogue` (E9)            | GET      |
//! | `/tiles/{level}/{row}/{col}`| `ee-raster` pyramid            | GET      |
//! | `/ice/{region}`             | `ee-polar` PCDSS bundle (E12)  | GET      |
//! | `/healthz`                  | liveness + engine inventory    | GET      |
//! | `/debug/sleep`              | deadline testing (opt-in)      | GET      |
//! | `/debug/stream`             | chunked framing tests (opt-in) | GET      |
//! | `/debug/panic`              | panic containment (opt-in)     | GET      |
//!
//! `POST /query` takes the raw SPARQL text as the request body; both
//! verbs share one handler, which parses the text once and streams it
//! through [`AppState::query`] from the one commit the read is pinned to
//! (the `asOf` commit, or the head it was planned at). Repeats are the
//! response cache's job.
//! `POST /update` takes SPARQL UPDATE text (INSERT DATA / DELETE DATA /
//! DELETE WHERE) and commits it through the durable store — 403 unless
//! the server runs `--writable`, 400 on a parse error.
//!
//! Only reads of the point store carry a version. A head `/query`
//! answer's strong `etag` mixes in the store's **head commit id** — a
//! hash-chained name for the entire history, so equal tags provably mean
//! byte-identical stores — and a committed update rolls those validators
//! at once. `/query` also accepts `?asOf=<hexid>` (or the SPARQL
//! `AS OF <hexid>` clause): the answer is computed against the store as
//! of that commit (unknown ids 404, malformed ones 400). Tiles and ice
//! bundles are built once at start-up: their ETags hash the body bytes
//! alone and never roll. Tile, ice and `asOf` responses are immutable,
//! so the server caches them **pinned** (no TTL, they survive the
//! post-commit sweep) and answers `If-None-Match` revalidations of any
//! of them with 304.
//!
//! (`/metrics` is answered by the server itself, which owns the metrics
//! and cache objects.)

use crate::http::{BodyStream, ChunkedSlices, Request, Response};
use crate::metrics::Route;
use crate::state::{AppState, PinnedRead, ICE_REGIONS};
use ee_geo::Envelope;
use ee_polar::pcdss::encode_bundle;
use ee_rdf::merge::ResultWriter;
use ee_rdf::term::Term;
use ee_util::json::Json;
use std::sync::Arc;
use std::time::Instant;

/// What a dispatch produced: a response, or proof that the per-request
/// deadline expired mid-handler (the server turns this into a 504).
pub enum Outcome {
    /// Normal response.
    Ready(Response),
    /// The handler observed the deadline pass and aborted.
    DeadlineExceeded,
}

/// Classify a path onto a route (used for metrics even when the handler
/// then 404s).
pub fn classify(path: &str) -> Route {
    let mut segs = path.split('/').filter(|s| !s.is_empty());
    match segs.next() {
        Some("query") => Route::Query,
        Some("update") => Route::Update,
        Some("catalogue") => Route::Catalogue,
        Some("tiles") => Route::Tiles,
        Some("ice") => Route::Ice,
        Some("healthz") => Route::Healthz,
        Some("metrics") => Route::Metrics,
        Some("debug") => Route::Debug,
        _ => Route::Other,
    }
}

/// Canonical cache key for a request, or `None` when the request must
/// not be served from (or stored into) the response cache.
///
/// The key canonicalises the query string — parameters sorted by name
/// (stable for equal names) — so `?a=1&b=2` and `?b=2&a=1` share an
/// entry. Only GETs on the four engine routes are cacheable; health,
/// metrics and debug endpoints always reflect live state.
///
/// A key carries a stamp only where the answer can change under it.
/// `/query` keys embed a **commit id** — the requested `?asOf=` id when
/// present, else the head `commit`: an entry cached at head H can never
/// be served once a commit moves the head, because every later lookup
/// uses a different key, while an `asOf` key never changes (its id
/// names an immutable history). `/catalogue/search?mode=ranked` keys
/// embed the ranked-index `search_generation`, so a committed
/// `searchText` document can never be shadowed by a stale cached
/// ranking. Tile, ice and classic and semantic catalogue keys carry no
/// stamp: those engines never change after start-up.
pub fn cache_key(req: &Request, commit: u64, search_generation: u64) -> Option<String> {
    if req.method != "GET" {
        return None;
    }
    let stamp = match classify(&req.path) {
        Route::Query => {
            let id = as_of_param(req).ok().flatten().unwrap_or(commit);
            format!("|c{id:016x}")
        }
        Route::Catalogue if is_ranked(req) => format!("|s{search_generation}"),
        Route::Catalogue | Route::Tiles | Route::Ice => String::new(),
        _ => return None,
    };
    let mut params = req.query.clone();
    params.sort_by(|a, b| a.0.cmp(&b.0));
    let canon: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
    Some(format!("GET|{}|{}{stamp}", req.path, canon.join("&")))
}

/// The `?asOf=` commit id of a request: `Ok(None)` when absent,
/// `Err(400)` when present but not valid hex. Whether the id names a
/// real commit is checked later, against the store's history.
pub(crate) fn as_of_param(req: &Request) -> Result<Option<u64>, Response> {
    match req.param("asOf") {
        None => Ok(None),
        Some(v) => u64::from_str_radix(v, 16).map(Some).map_err(|_| {
            Response::error(
                400,
                "asOf must be a hex commit id (as reported by x-commit)",
            )
        }),
    }
}

/// Whether this request's cache key names no moving state: tiles, ice
/// bundles and classic and semantic catalogue searches (engines built
/// once at start-up) and `/query?asOf=` reads (an immutable commit). The
/// server caches such responses **pinned**: they never go stale, so no
/// TTL, and they survive the post-commit sweep (the LRU may still evict
/// them).
pub fn immutable_read(req: &Request) -> bool {
    match classify(&req.path) {
        Route::Tiles | Route::Ice => true,
        Route::Catalogue => !is_ranked(req),
        Route::Query => matches!(as_of_param(req), Ok(Some(_))),
        _ => false,
    }
}

/// A `/catalogue/search` that reads the live ranked index.
fn is_ranked(req: &Request) -> bool {
    req.param("mode") == Some("ranked")
}

/// Dispatch a request to its handler. Takes the shared `Arc` so streamed
/// response bodies can co-own the state past the handler's return.
pub fn dispatch(
    state: &Arc<AppState>,
    req: &Request,
    deadline: Instant,
    debug_routes: bool,
) -> Outcome {
    // Router tier: scatter /query, forward /tiles and /ice to their
    // ring owners, refuse /update. Everything it declines (catalogue,
    // healthz is intercepted, debug, 404s) falls through to the local
    // engines below.
    if let Some(tier) = &state.router {
        if let Some(resp) = crate::shard::route(state, tier, req) {
            return Outcome::Ready(resp);
        }
    }
    let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    if segs.as_slice() == ["query"] && matches!(req.method.as_str(), "GET" | "POST") {
        return Outcome::Ready(handle_query(state, req));
    }
    if req.method == "POST" && segs.as_slice() == ["update"] {
        return Outcome::Ready(handle_update(state, req));
    }
    if req.method != "GET" {
        return Outcome::Ready(Response::error(
            405,
            "only GET is served (and POST /query, POST /update)",
        ));
    }
    match segs.as_slice() {
        ["catalogue", "search"] => Outcome::Ready(handle_catalogue(state, req)),
        ["tiles", level, row, col] => Outcome::Ready(handle_tile(state, level, row, col)),
        ["ice", region] => Outcome::Ready(handle_ice(state, req, region)),
        ["healthz"] => Outcome::Ready(handle_healthz(state)),
        ["debug", "sleep"] if debug_routes => debug_sleep(req, deadline),
        ["debug", "stream"] if debug_routes => {
            Outcome::Ready(debug_stream(req).unwrap_or_else(|refused| refused))
        }
        ["debug", "panic"] if debug_routes => Outcome::Ready(debug_panic(req)),
        _ => Outcome::Ready(Response::error(404, "no such route")),
    }
}

/// `/query` — rectangular selections (or raw SPARQL) over the point
/// store. GET takes `sparql` (raw query) or `x0`,`y0`,`side` (selection
/// window, E2 shape); POST takes the raw SPARQL text as its body. `limit`
/// caps materialised rows.
fn handle_query(state: &Arc<AppState>, req: &Request) -> Response {
    match crate::shard::query_of(req) {
        Ok((sparql, limit)) => run_query(state, req, &sparql, limit),
        Err(resp) => resp,
    }
}

/// `POST /update` — the request body is SPARQL UPDATE text, committed
/// through [`AppState::commit_update`] (evaluate → commit-log fsync → apply →
/// generation bump). Refused with 403 on read-only servers, 400 on
/// parse errors. A 200 answer means the commit is durable (when the
/// store has a data directory) and reports the resulting generation
/// plus the effective triple counts.
fn handle_update(state: &Arc<AppState>, req: &Request) -> Response {
    if !state.writable {
        return Response::error(403, "server is read-only; start with --writable");
    }
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "body must be UTF-8 SPARQL UPDATE text");
    };
    if text.trim().is_empty() {
        return Response::error(400, "empty body; POST the SPARQL UPDATE text");
    }
    let update = match ee_rdf::parser::parse_update(text) {
        Ok(u) => u,
        Err(e) => return Response::error(400, &format!("update failed: {e}")),
    };
    match state.commit_update(&update) {
        Ok(stats) => Response::json(
            200,
            &Json::obj(vec![
                ("generation", Json::Num(stats.generation as f64)),
                ("inserted", Json::Num(stats.inserted as f64)),
                ("deleted", Json::Num(stats.deleted as f64)),
            ]),
        ),
        Err(e) => Response::error(500, &format!("commit failed: {e}")),
    }
}

/// The `/query` tail: parse once, then execute through [`AppState::query`].
/// Parse and planning errors surface as a sized 400, an unknown commit
/// as a 404. On success the body is a [`QueryStream`] that materialises
/// and serialises one `ee_rdf` batch per chunk, so the first bytes of a
/// large result hit the wire before the last row exists. The `count`
/// field counts **all** result rows (`rows` is capped at `limit`) and is
/// emitted last — its value is only known once the stream has drained.
///
/// Every batch reads the one commit the read is pinned to: the `?asOf=`
/// / `AS OF <hexid>` commit, or the head when the query was planned. The
/// `x-commit` header names it, and the ETag is a function of the
/// canonical query text, the row cap and that commit — computable up
/// front without buffering the body, and stable while that id names the
/// same store (equal commit ids mean byte-identical stores, via the hash
/// chain).
fn run_query(state: &Arc<AppState>, req: &Request, sparql: &str, limit: usize) -> Response {
    let param = match as_of_param(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let q = match ee_rdf::parser::parse_query(sparql) {
        Ok(q) => q,
        Err(e) => return Response::error(400, &format!("query failed: {e}")),
    };
    let as_of = match (param, q.as_of) {
        (Some(a), Some(b)) if a != b => {
            return Response::error(400, "asOf= and AS OF name different commit ids")
        }
        (a, b) => a.or(b),
    };
    let read = match state.query(&q, as_of) {
        Some(Ok(read)) => read,
        Some(Err(e)) => return Response::error(400, &format!("query failed: {e}")),
        None => {
            let id = as_of.expect("the head is always known");
            return Response::error(404, &format!("unknown commit id {id:016x}"));
        }
    };
    let commit = read.commit();
    let writer = Some(ResultWriter::new(read.vars(), limit));
    let body = QueryStream {
        state: Arc::clone(state),
        read,
        writer,
        buf: String::new(),
    };
    query_response(sparql, limit, commit, Box::new(body))
}

/// A bounded head `/query` read answered whole, on the calling thread:
/// the response [`dispatch`] gives for the same request and commit, with
/// the body already written and handed over as one chunk. The
/// server runs this on the event-loop shard that parsed the request.
/// `None` leaves the request to [`dispatch`] (which parses it again):
/// on a router tier, whose `/query` scatters over the network; for
/// anything but `GET /query` without `asOf=` (a head read whose text the
/// request-head limit bounds); and whenever [`AppState::query_bounded`]
/// declines — a contended store lock, a parse or plan error, or a plan
/// that is not bounded.
pub(crate) fn run_bounded(state: &AppState, req: &Request) -> Option<Response> {
    let head_read =
        req.method == "GET" && req.path.trim_matches('/') == "query" && req.param("asOf").is_none();
    if state.router.is_some() || !head_read {
        return None;
    }
    let (sparql, limit) = crate::shard::query_of(req).ok()?;
    let q = ee_rdf::parser::parse_query(&sparql).ok()?;
    let (commit, body) = state.query_bounded(&q, limit)?;
    let body = ChunkedSlices::new(vec![body.into_bytes()]);
    Some(query_response(&sparql, limit, commit, Box::new(body)))
}

/// The 200 of a `/query` read of `sparql` at `commit`: a streamed JSON
/// body, an ETag over the canonical query text, the row cap and the
/// commit, and the commit in `x-commit`.
fn query_response(sparql: &str, limit: usize, commit: u64, body: Box<dyn BodyStream>) -> Response {
    let canon = sparql.split_whitespace().collect::<Vec<_>>().join(" ");
    let etag = etag_of(format!("query|{canon}|{limit}|c{commit:016x}").as_bytes());
    Response::streamed(200, "application/json", body)
        .with_header("etag", etag)
        .with_header("x-commit", format!("{commit:016x}"))
}

/// A [`BodyStream`] serialising query results batch by batch: holds the
/// state `Arc` (the stream outlives the handler) plus the borrow-free
/// [`PinnedRead`], and writes one batch per chunk through the
/// [`ResultWriter`] every `/query` body goes through, straight from terms
/// borrowed under the batch's read guard. The writer holds the body's
/// head back until the first row, so the first chunk carries rows: time
/// to first byte includes the first batch's execution.
struct QueryStream {
    state: Arc<AppState>,
    read: PinnedRead,
    /// `None` once the body's tail has been written.
    writer: Option<ResultWriter>,
    buf: String,
}

impl BodyStream for QueryStream {
    fn next_chunk(&mut self) -> std::io::Result<Option<&[u8]>> {
        let Some(writer) = self.writer.as_mut() else {
            return Ok(None);
        };
        self.buf.clear();
        // A batch may write nothing when every row is past `limit` (still
        // counting); the chunked writer skips empty chunks.
        let rows = self
            .read
            .drain_batch(&self.state, |row| writer.row(&mut self.buf, row));
        if rows == 0 {
            self.writer.take().expect("checked above").finish(&mut self.buf);
        }
        Ok(Some(self.buf.as_bytes()))
    }
}

/// `/catalogue/search` — product search. Parameters: `mode=classic|
/// semantic|ranked`. The classic and semantic arms take an AOI
/// (`minx,miny,maxx,maxy`) and, for classic, `limit` (result cap); the
/// ranked arm takes free text `q` (required) and `k` (result cap,
/// default 10) and answers with BM25 score-ordered products. Handler
/// latency is recorded per mode, so `/metrics` exposes classic vs
/// ranked p50 side by side.
fn handle_catalogue(state: &AppState, req: &Request) -> Response {
    let t0 = Instant::now();
    let mode = req.param("mode").unwrap_or("classic");
    let resp = catalogue_by_mode(state, req, mode).unwrap_or_else(|refused| refused);
    if resp.status == 200 {
        let us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        state.record_catalogue_mode(mode, us);
    }
    resp
}

/// The mode dispatch of `/catalogue/search` (split out so the wrapper
/// can time every arm uniformly); `Err` is a refused parameter's 400.
fn catalogue_by_mode(state: &AppState, req: &Request, mode: &str) -> Result<Response, Response> {
    if mode == "ranked" {
        let Some(q) = req.param("q").filter(|q| !q.trim().is_empty()) else {
            return Err(Response::error(
                400,
                "mode=ranked needs a non-empty q= query",
            ));
        };
        let k = req.param_in("k", 10usize, 0..=1000)?;
        let hits = state.ranked_search(q, k);
        let results: Vec<Json> = hits
            .iter()
            .map(|hit| match &hit.doc {
                crate::state::RankedDoc::Product(p) => Json::obj(vec![
                    ("score", Json::Num(hit.score)),
                    ("product", p.to_json()),
                ]),
                crate::state::RankedDoc::Live { subject, text } => Json::obj(vec![
                    ("score", Json::Num(hit.score)),
                    (
                        "document",
                        Json::obj(vec![
                            ("subject", Json::Str(subject.clone())),
                            ("text", Json::Str(text.clone())),
                        ]),
                    ),
                ]),
            })
            .collect();
        return Ok(Json::obj(vec![
            ("mode", Json::Str("ranked".into())),
            ("query", Json::Str(q.to_string())),
            ("count", Json::Num(results.len() as f64)),
            ("indexed", Json::Num(state.ranked_indexed() as f64)),
            ("results", Json::Arr(results)),
        ])
        .pipe_json());
    }
    let minx: f64 = req.param_in("minx", 10.0, ..)?;
    let miny: f64 = req.param_in("miny", 10.0, ..)?;
    let maxx = req.param_in("maxx", minx + 2.0, ..)?;
    let maxy = req.param_in("maxy", miny + 2.0, ..)?;
    if !(minx.is_finite() && miny.is_finite() && maxx > minx && maxy > miny) {
        return Err(Response::error(400, "need finite minx,miny < maxx,maxy"));
    }
    let aoi = Envelope::new(minx, miny, maxx, maxy);
    Ok(match mode {
        "classic" => match state.classic_search(aoi) {
            Ok(hits) => {
                let limit = req.param_in("limit", 50usize, 0..)?;
                let ids: Vec<Json> =
                    hits.iter().take(limit).map(|p| p.to_json()).collect();
                Json::obj(vec![
                    ("mode", Json::Str("classic".into())),
                    ("count", Json::Num(hits.len() as f64)),
                    ("products", Json::Arr(ids)),
                ])
                .pipe_json()
            }
            Err(e) => Response::error(400, &format!("search failed: {e}")),
        },
        "semantic" => {
            let wkt = format!(
                "POLYGON (({minx} {miny}, {maxx} {miny}, {maxx} {maxy}, {minx} {maxy}, {minx} {miny}))"
            );
            let q = format!(
                "PREFIX eo: <http://extremeearth.eu/ont/eo#> \
                 SELECT (COUNT(?p) AS ?n) WHERE {{ ?p eo:footprint ?f . \
                 FILTER(geof:sfIntersects(?f, \"{wkt}\"^^geo:wktLiteral)) }}"
            );
            match state.semantic.query(&q) {
                Ok(sol) => {
                    let n = match sol.scalar() {
                        Some(Term::Literal { lexical, .. }) => {
                            lexical.parse::<f64>().unwrap_or(0.0)
                        }
                        _ => 0.0,
                    };
                    Json::obj(vec![
                        ("mode", Json::Str("semantic".into())),
                        ("count", Json::Num(n)),
                        ("triples_held", Json::Num(state.semantic.len() as f64)),
                    ])
                    .pipe_json()
                }
                Err(e) => Response::error(400, &format!("semantic search failed: {e}")),
            }
        }
        other => Response::error(400, &format!("unknown mode {other:?}")),
    })
}

/// `/tiles/{level}/{row}/{col}` — a codec-encoded tile window of the
/// overview pyramid, **streamed**: the body is an
/// [`ee_raster::codec::EncodeChunks`] producer transmitted chunked, so a
/// tile bigger than memory-comfortable never materialises server-side.
/// The strong ETag, a hash of the body bytes, still has to be in the
/// headers before the first body byte, so the tile is hashed in a
/// sink-only encode pass first (two encode passes trade CPU for never
/// holding the body; revalidations that end in 304 skip the payload pass
/// entirely). The pyramid never changes after start-up, so neither does
/// a tile's ETag. Grid geometry comes back in `x-tile-*` headers.
fn handle_tile(state: &AppState, level: &str, row: &str, col: &str) -> Response {
    let (Ok(level), Ok(row), Ok(col)) = (
        level.parse::<usize>(),
        row.parse::<usize>(),
        col.parse::<usize>(),
    ) else {
        return Response::error(400, "tile coordinates must be non-negative integers");
    };
    let Some(raster) = state.pyramid.get(level) else {
        return Response::error(
            404,
            &format!("level {level} outside pyramid of {}", state.pyramid.len()),
        );
    };
    let ts = state.tile_size;
    let (col0, row0) = (col * ts, row * ts);
    if col0 >= raster.cols() || row0 >= raster.rows() {
        return Response::error(404, "tile outside level extent");
    }
    let w = ts.min(raster.cols() - col0);
    let h = ts.min(raster.rows() - row0);
    let window = raster.window(col0, row0, w, h).expect("bounds checked");
    // Hash pass: stream the encoding through the FNV sink (no buffer);
    // the tag equals `etag_of` over the streamed bytes.
    let mut sink = FnvSink::new();
    ee_raster::codec::encode_into(&window, &mut sink).expect("hash sink cannot fail");
    let etag = sink.etag();
    Response::streamed(
        200,
        "application/octet-stream",
        Box::new(TileStream(ee_raster::codec::EncodeChunks::new(window))),
    )
    .with_header("x-tile-cols", w.to_string())
    .with_header("x-tile-rows", h.to_string())
    .with_header("x-pyramid-levels", state.pyramid.len().to_string())
    .with_header("etag", etag)
}

/// A [`BodyStream`] over an incremental tile encoding (owns the window).
struct TileStream(ee_raster::codec::EncodeChunks<f32>);

impl BodyStream for TileStream {
    fn next_chunk(&mut self) -> std::io::Result<Option<&[u8]>> {
        Ok(self.0.next_chunk())
    }
}

/// An incremental FNV-1a hasher ([`ee_util::ring::Fnv1a`]) that doubles
/// as a `Write` sink, so a body can be ETagged by streaming it through
/// without buffering.
#[derive(Default)]
pub struct FnvSink(ee_util::ring::Fnv1a);

impl FnvSink {
    /// Start from the FNV-1a offset basis.
    pub fn new() -> FnvSink {
        FnvSink::default()
    }

    /// Fold more bytes into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        self.0.update(bytes);
    }

    /// The quoted strong-ETag form of the current hash.
    pub fn etag(&self) -> String {
        format!("\"{:016x}\"", self.0.finish())
    }
}

impl std::io::Write for FnvSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Strong ETag for a fully materialised body: quoted FNV-1a hex over the
/// bytes. Deterministic, so revalidation works across restarts and
/// replicas; identical to streaming the same bytes through [`FnvSink`].
pub fn etag_of(body: &[u8]) -> String {
    let mut sink = FnvSink::new();
    sink.update(body);
    sink.etag()
}

/// RFC 7232 `If-None-Match` evaluation against a response ETag: the
/// header is either `*` or a comma-separated list of entity-tags, each
/// optionally `W/`-prefixed. 304 revalidation uses weak comparison, so
/// the `W/` prefix is ignored on both sides.
pub fn if_none_match_matches(header: &str, etag: &str) -> bool {
    fn opaque(tag: &str) -> &str {
        tag.strip_prefix("W/").unwrap_or(tag)
    }
    let target = opaque(etag);
    header
        .split(',')
        .map(str::trim)
        .any(|tag| tag == "*" || opaque(tag) == target)
}

/// `/ice/{region}` — the PCDSS product bundle for a region, encoded
/// within `?budget=` bytes (default 1 MB). The body concatenates the
/// three length-prefixed codec segments (concentration, stage, leads) in
/// the order PCDSS ships them. The strong ETag hashes the body alone:
/// the ice suites never change after start-up.
fn handle_ice(state: &AppState, req: &Request, region: &str) -> Response {
    let Some(products) = state.ice_region(region) else {
        return Response::error(
            404,
            &format!("unknown region {region:?}; known: {ICE_REGIONS:?}"),
        );
    };
    let budget = match req.param_in("budget", 1_000_000usize, 0..) {
        Ok(budget) => budget,
        Err(refused) => return refused,
    };
    match encode_bundle(products, budget) {
        Ok(bundle) => {
            let mut body = Vec::with_capacity(bundle.bytes() + 12);
            for seg in [&bundle.concentration, &bundle.stage, &bundle.leads] {
                body.extend_from_slice(&(seg.len() as u32).to_le_bytes());
                body.extend_from_slice(seg);
            }
            let etag = etag_of(&body);
            Response::octets(200, body)
                .with_header("x-downsample", bundle.downsample.to_string())
                .with_header("x-bundle-bytes", bundle.bytes().to_string())
                .with_header("etag", etag)
        }
        Err(e) => Response::error(400, &format!("budget unsatisfiable: {e}")),
    }
}

/// `/healthz` — liveness, uptime, and the engine inventory. Never
/// cached (no [`cache_key`]), so `points` and `generation` always
/// reflect the live store even immediately after a commit. It reads the
/// head record each commit publishes ([`AppState::health`]), never the
/// store, so the event loop answers it without a worker
/// ([`is_local_healthz`]).
pub(crate) fn handle_healthz(state: &AppState) -> Response {
    // Generation, commit and point count from one record: one commit.
    let head = state.health();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("uptime_s", Json::Num(state.started.elapsed().as_secs_f64())),
        ("writable", Json::Bool(state.writable)),
        ("generation", Json::Num(head.generation as f64)),
        ("commit", Json::Str(format!("{:016x}", head.commit))),
        ("points", Json::Num(head.points as f64)),
        ("products", Json::Num(state.classic.len() as f64)),
        ("pyramid_levels", Json::Num(state.pyramid.len() as f64)),
        (
            "ice_regions",
            Json::Arr(
                state
                    .ice
                    .iter()
                    .map(|(n, _)| Json::Str(n.clone()))
                    .collect(),
            ),
        ),
    ])
    .pipe_json()
}

/// Whether `req` is a `GET /healthz` that [`handle_healthz`] answers
/// here, without the engines — so the event loop can. Not on a router,
/// whose `/healthz` reports its backends.
pub(crate) fn is_local_healthz(state: &AppState, req: &Request) -> bool {
    let segments = req.path.split('/').filter(|s| !s.is_empty());
    state.router.is_none() && req.method == "GET" && segments.eq(["healthz"])
}

/// `/debug/sleep?ms=N` — hold a worker for `ms` (at most 60,000),
/// checking the deadline every slice. Exists so deadline enforcement is
/// testable end-to-end.
fn debug_sleep(req: &Request, deadline: Instant) -> Outcome {
    let ms = match req.param_in("ms", 10u64, 0..=60_000) {
        Ok(ms) => ms,
        Err(refused) => return Outcome::Ready(refused),
    };
    let until = Instant::now() + std::time::Duration::from_millis(ms);
    while Instant::now() < until {
        if Instant::now() >= deadline {
            return Outcome::DeadlineExceeded;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    Outcome::Ready(Response::json(
        200,
        &Json::obj(vec![("slept_ms", Json::Num(ms as f64))]),
    ))
}

/// `/debug/stream?chunks=N&bytes=B&ms=M` — a streamed body of `N`
/// chunks of `B` bytes each, pausing `M` ms before every chunk. Exists
/// so chunked framing and the deadline-between-chunks abort are testable
/// end-to-end: with a tight deadline and a non-zero pause, the server
/// must truncate the stream instead of pinning a worker. A shape outside
/// `N ≤ 10000`, `1 ≤ B ≤ 1 MiB`, `M ≤ 60000` is a 400, never a shorter
/// or quicker stream.
fn debug_stream(req: &Request) -> Result<Response, Response> {
    let chunks = req.param_in("chunks", 4usize, 0..)?;
    let bytes = req.param_in("bytes", 1024usize, 0..)?;
    if chunks > 10_000 || !(1..=1 << 20).contains(&bytes) {
        return Err(Response::error(
            400,
            "chunks must be in 0..=10000 and bytes in 1..=1048576",
        ));
    }
    let ms = req.param_in("ms", 0u64, 0..=60_000)?;
    struct SlowChunks {
        left: usize,
        chunk: Vec<u8>,
        pause: std::time::Duration,
    }
    impl BodyStream for SlowChunks {
        fn next_chunk(&mut self) -> std::io::Result<Option<&[u8]>> {
            if self.left == 0 {
                return Ok(None);
            }
            self.left -= 1;
            if !self.pause.is_zero() {
                std::thread::sleep(self.pause);
            }
            Ok(Some(&self.chunk))
        }
    }
    Ok(Response::streamed(
        200,
        "application/octet-stream",
        Box::new(SlowChunks {
            left: chunks,
            chunk: vec![0x5A; bytes],
            pause: std::time::Duration::from_millis(ms),
        }),
    ))
}

/// `/debug/panic?after=N` — a handler that panics: at once when `N` is
/// 0 (the default), else inside its streamed body, after `N` chunks of
/// 64 KiB. Exists so the server's panic containment is testable
/// end-to-end: a panic before the head is a 500, one mid-stream ends the
/// body truncated.
fn debug_panic(req: &Request) -> Response {
    let after = match req.param_in("after", 0usize, 0..=1000) {
        Ok(after) => after,
        Err(refused) => return refused,
    };
    assert!(after > 0, "/debug/panic: panicking in the handler");
    struct PanicAfter {
        left: usize,
        chunk: Vec<u8>,
    }
    impl BodyStream for PanicAfter {
        fn next_chunk(&mut self) -> std::io::Result<Option<&[u8]>> {
            assert!(self.left > 0, "/debug/panic: panicking mid-stream");
            self.left -= 1;
            Ok(Some(&self.chunk))
        }
    }
    let body = PanicAfter {
        left: after,
        chunk: vec![0x5A; 64 * 1024],
    };
    Response::streamed(200, "application/octet-stream", Box::new(body))
}

/// Small helper: turn a [`Json`] into a 200 response.
trait PipeJson {
    fn pipe_json(self) -> Response;
}

impl PipeJson for Json {
    fn pipe_json(self) -> Response {
        Response::json(200, &self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Body, RequestParser};
    use crate::state::DataConfig;
    use std::sync::OnceLock;

    fn state() -> &'static Arc<AppState> {
        static STATE: OnceLock<Arc<AppState>> = OnceLock::new();
        STATE.get_or_init(|| Arc::new(AppState::build(DataConfig::tiny())))
    }

    /// Drain a response body (full or streamed) into bytes.
    fn body_of(resp: Response) -> Vec<u8> {
        resp.body.collect().expect("body drains")
    }

    /// Parse one complete raw request.
    fn parse(raw: &str) -> Request {
        let mut parser = RequestParser::new();
        parser.feed(raw.as_bytes());
        parser.poll_request().unwrap().expect("complete request")
    }

    fn get(target: &str) -> Request {
        parse(&format!("GET {target} HTTP/1.1\r\n\r\n"))
    }

    fn far_deadline() -> Instant {
        Instant::now() + std::time::Duration::from_secs(30)
    }

    fn ready(o: Outcome) -> Response {
        match o {
            Outcome::Ready(r) => r,
            Outcome::DeadlineExceeded => panic!("unexpected deadline"),
        }
    }

    #[test]
    fn cache_key_canonicalises_query_order() {
        let a = cache_key(&get("/query?x0=1&y0=2"), 0, 0).unwrap();
        let b = cache_key(&get("/query?y0=2&x0=1"), 0, 0).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, cache_key(&get("/query?x0=1&y0=3"), 0, 0).unwrap());
        assert!(cache_key(&get("/healthz"), 0, 0).is_none());
        assert!(cache_key(&get("/metrics"), 0, 0).is_none());
        let mut post = get("/query?x0=1");
        post.method = "POST".into();
        assert!(cache_key(&post, 0, 0).is_none());
    }

    #[test]
    fn cache_key_stamps_store_derived_routes_with_commit_id() {
        // Head `/query` keys change when the head commit moves…
        let target = "/query?x0=1&y0=2";
        assert_ne!(
            cache_key(&get(target), 7, 0).unwrap(),
            cache_key(&get(target), 8, 0).unwrap(),
            "{target} must be commit-stamped"
        );
        // …ranked catalogue keys follow the ranked-index generation (not
        // the store commit — a searchText commit must never be shadowed
        // by a stale cached ranking)…
        let cat = "/catalogue/search?mode=ranked&q=radar";
        assert_eq!(
            cache_key(&get(cat), 7, 3).unwrap(),
            cache_key(&get(cat), 8, 3).unwrap(),
            "catalogue keys ignore the store commit"
        );
        assert_ne!(
            cache_key(&get(cat), 7, 3).unwrap(),
            cache_key(&get(cat), 7, 4).unwrap(),
            "ranked keys follow the search generation"
        );
        // …and tiles, ice and the classic and semantic catalogues, built
        // once at start-up, carry no stamp.
        for (target, want) in [
            ("/tiles/0/0/0", "GET|/tiles/0/0/0|"),
            ("/ice/fram-strait", "GET|/ice/fram-strait|"),
            ("/catalogue/search?minx=1", "GET|/catalogue/search|minx=1"),
            (
                "/catalogue/search?mode=semantic&minx=1",
                "GET|/catalogue/search|minx=1&mode=semantic",
            ),
        ] {
            let key = cache_key(&get(target), 7, 3).unwrap();
            assert_eq!(key, cache_key(&get(target), 8, 4).unwrap(), "{target}");
            assert_eq!(key, want);
        }
    }

    #[test]
    fn cache_key_pins_versioned_reads_to_their_commit_id() {
        // An `asOf` key embeds the requested id, not the moving head —
        // so the entry stays addressable across commits and can be
        // pinned.
        let target = "/query?x0=1&asOf=00000000000000ab";
        let k7 = cache_key(&get(target), 7, 0).unwrap();
        assert_eq!(k7, cache_key(&get(target), 8, 0).unwrap(), "the key must not follow the head");
        assert!(k7.ends_with("|c00000000000000ab"), "got {k7}");
        // Immutable reads: `asOf` queries, and every tile, ice bundle and
        // classic or semantic search (where `asOf` is an ordinary
        // unknown parameter).
        for target in [
            target,
            "/tiles/0/0/0",
            "/tiles/0/0/0?asOf=ab",
            "/ice/fram-strait",
            "/catalogue/search?asOf=ab",
            "/catalogue/search?mode=semantic",
        ] {
            assert!(immutable_read(&get(target)), "{target}");
        }
        assert!(!immutable_read(&get("/query?x0=1")));
        assert!(!immutable_read(&get("/catalogue/search?mode=ranked&q=radar")));
        // Malformed hex: not an immutable read (the handler 400s).
        assert!(!immutable_read(&get("/query?asOf=zzz")));
    }

    fn post(target: &str, body: &str) -> Request {
        let raw = format!(
            "POST {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        parse(&raw)
    }

    #[test]
    fn update_route_requires_writable() {
        // The shared read-only state 403s every update.
        let resp = ready(dispatch(
            state(),
            &post("/update", "INSERT DATA { <http://e/x> <http://e/p> <http://e/o> }"),
            far_deadline(),
            false,
        ));
        assert_eq!(resp.status, 403);
    }

    #[test]
    fn update_route_commits_and_reports_generation() {
        let mut s = AppState::build(DataConfig::tiny());
        s.writable = true;
        let s = Arc::new(s);
        let before = s.store().len();
        let resp = ready(dispatch(
            &s,
            &post(
                "/update",
                "INSERT DATA { <http://e/x> <http://e/p> <http://e/o> . \
                 <http://e/y> <http://e/p> \"lit\" }",
            ),
            far_deadline(),
            false,
        ));
        assert_eq!(resp.status, 200);
        let v = ee_util::json::parse(std::str::from_utf8(&body_of(resp)).unwrap()).unwrap();
        assert_eq!(v.get("generation").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.get("inserted").and_then(Json::as_f64), Some(2.0));
        assert_eq!(v.get("deleted").and_then(Json::as_f64), Some(0.0));
        assert_eq!(s.store().len(), before + 2);
        assert_eq!(s.store().generation(), 1);
        // The written triple is immediately visible through /query.
        let q = "SELECT ?o WHERE { <http://e/x> <http://e/p> ?o }";
        let resp = ready(dispatch(
            &s,
            &get(&format!("/query?sparql={}", q.replace(' ', "%20"))),
            far_deadline(),
            false,
        ));
        let v = ee_util::json::parse(std::str::from_utf8(&body_of(resp)).unwrap()).unwrap();
        assert_eq!(v.get("count").and_then(Json::as_f64), Some(1.0));
        // DELETE WHERE takes it back out.
        let resp = ready(dispatch(
            &s,
            &post("/update", "DELETE WHERE { <http://e/x> ?p ?o }"),
            far_deadline(),
            false,
        ));
        assert_eq!(resp.status, 200);
        let v = ee_util::json::parse(std::str::from_utf8(&body_of(resp)).unwrap()).unwrap();
        assert_eq!(v.get("deleted").and_then(Json::as_f64), Some(1.0));
        assert_eq!(s.store().generation(), 2);
        // Parse errors and empty bodies are 400, not 500.
        assert_eq!(
            ready(dispatch(&s, &post("/update", "DROP ALL"), far_deadline(), false)).status,
            400
        );
        assert_eq!(
            ready(dispatch(&s, &post("/update", ""), far_deadline(), false)).status,
            400
        );
    }

    #[test]
    fn query_and_tile_etags_roll_with_the_generation() {
        let mut s = AppState::build(DataConfig::tiny());
        s.writable = true;
        let s = Arc::new(s);
        let tag = |r: &Response| {
            r.headers
                .iter()
                .find(|(n, _)| n == "etag")
                .map(|(_, v)| v.clone())
                .expect("response has etag")
        };
        let q0 = ready(dispatch(&s, &get("/query?x0=10&y0=10&side=20"), far_deadline(), false));
        // Same generation: tags are stable.
        let q0b = ready(dispatch(&s, &get("/query?x0=10&y0=10&side=20"), far_deadline(), false));
        assert_eq!(tag(&q0), tag(&q0b));
        ready(dispatch(
            &s,
            &post("/update", "INSERT DATA { <http://e/z> <http://e/p> <http://e/o> }"),
            far_deadline(),
            false,
        ));
        let q1 = ready(dispatch(&s, &get("/query?x0=10&y0=10&side=20"), far_deadline(), false));
        assert_ne!(tag(&q0), tag(&q1), "query etag rolls on commit");
    }

    #[test]
    fn as_of_queries_read_historical_commits() {
        let mut s = AppState::build(DataConfig::tiny());
        s.writable = true;
        let s = Arc::new(s);
        let header = |r: &Response, name: &str| {
            r.headers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
        };
        let count_of = |r: Response| {
            ee_util::json::parse(std::str::from_utf8(&body_of(r)).unwrap())
                .unwrap()
                .get("count")
                .and_then(Json::as_f64)
                .unwrap()
        };
        ready(dispatch(
            &s,
            &post("/update", "INSERT DATA { <http://e/v> <http://e/p> \"v1\" }"),
            far_deadline(),
            false,
        ));
        let c1 = s.head_commit();
        ready(dispatch(
            &s,
            &post("/update", "INSERT DATA { <http://e/v> <http://e/p> \"v2\" }"),
            far_deadline(),
            false,
        ));
        assert_ne!(c1, s.head_commit());
        let q = "SELECT ?o WHERE { <http://e/v> <http://e/p> ?o }".replace(' ', "%20");
        // Head sees both versions, the pinned read sees only v1.
        let head = ready(dispatch(&s, &get(&format!("/query?sparql={q}")), far_deadline(), false));
        assert_eq!(
            header(&head, "x-commit").as_deref(),
            Some(format!("{:016x}", s.head_commit()).as_str())
        );
        assert_eq!(count_of(head), 2.0);
        let pinned = ready(dispatch(
            &s,
            &get(&format!("/query?sparql={q}&asOf={c1:016x}")),
            far_deadline(),
            false,
        ));
        assert_eq!(pinned.status, 200);
        assert_eq!(header(&pinned, "x-commit").as_deref(), Some(format!("{c1:016x}").as_str()));
        assert!(header(&pinned, "etag").is_some());
        assert_eq!(count_of(pinned), 1.0);
        // The SPARQL `AS OF` clause names the same view.
        let clause = format!(
            "SELECT ?o WHERE {{ <http://e/v> <http://e/p> ?o }} AS OF <{c1:016x}>"
        )
        .replace(' ', "%20");
        let via_clause = ready(dispatch(&s, &get(&format!("/query?sparql={clause}")), far_deadline(), false));
        assert_eq!(via_clause.status, 200);
        assert_eq!(count_of(via_clause), 1.0);
        // Param/clause conflict, malformed hex, and unknown ids fail loudly.
        let conflict = ready(dispatch(
            &s,
            &get(&format!("/query?sparql={clause}&asOf={:016x}", s.head_commit())),
            far_deadline(),
            false,
        ));
        assert_eq!(conflict.status, 400);
        assert_eq!(
            ready(dispatch(&s, &get(&format!("/query?sparql={q}&asOf=zz")), far_deadline(), false)).status,
            400
        );
        assert_eq!(
            ready(dispatch(
                &s,
                &get(&format!("/query?sparql={q}&asOf=00000000000000ff")),
                far_deadline(),
                false,
            ))
            .status,
            404
        );
    }

    /// One body format: a streamed head read, the streamed `?asOf=` read
    /// of the same commit and the router tier's `QueryResult` round trip
    /// produce the same bytes — for a rows query capped by `limit` with
    /// an unbound OPTIONAL cell, and for a COUNT.
    #[test]
    fn head_as_of_and_merged_query_bodies_are_byte_identical() {
        let mut s = AppState::build(DataConfig::tiny());
        s.writable = true;
        let s = Arc::new(s);
        let insert = "INSERT DATA { <http://e/a> <http://e/p> \"1\" . <http://e/a> <http://e/q> \"x\" . \
                      <http://e/b> <http://e/p> \"2\" . <http://e/c> <http://e/p> \"3\" }";
        assert_eq!(ready(dispatch(&s, &post("/update", insert), far_deadline(), false)).status, 200);
        let head = s.head_commit();
        for (sparql, limit, rows, count) in [
            (
                "SELECT ?s ?v ?w WHERE { ?s <http://e/p> ?v . OPTIONAL { ?s <http://e/q> ?w } }",
                2,
                2,
                3,
            ),
            ("SELECT (COUNT(?s) AS ?n) WHERE { ?s <http://e/p> ?v }", 1000, 1, 1),
        ] {
            let target = format!("/query?limit={limit}&sparql={}", sparql.replace(' ', "%20"));
            let streamed = ready(dispatch(&s, &get(&target), far_deadline(), false));
            assert!(matches!(streamed.body, Body::Streamed(_)), "head reads stream");
            let body = String::from_utf8(body_of(streamed)).unwrap();
            let pinned = ready(dispatch(
                &s,
                &get(&format!("{target}&asOf={head:016x}")),
                far_deadline(),
                false,
            ));
            assert!(matches!(pinned.body, Body::Streamed(_)), "asOf reads stream");
            assert_eq!(String::from_utf8(body_of(pinned)).unwrap(), body, "{sparql}");
            let parsed = ee_rdf::merge::QueryResult::parse(&body).unwrap();
            assert_eq!((parsed.rows.len(), parsed.count), (rows, count), "{body}");
            assert_eq!(parsed.emit(), body);
        }
    }

    /// A rows read of every point feature, uncapped.
    fn features_read(as_of: Option<u64>) -> Request {
        let sparql = "SELECT%20?s%20WHERE%20{%20?s%20\
                      <http://www.w3.org/1999/02/22-rdf-syntax-ns%23type>%20<http://e/Feature>%20}";
        let pin = as_of.map_or(String::new(), |id| format!("&asOf={id:016x}"));
        get(&format!("/query?limit=100000&sparql={sparql}{pin}"))
    }

    /// Start [`features_read`], pull its first chunk, commit an insert of
    /// a new feature and a delete of one not emitted yet, then drain: the
    /// body must be `want`, the answer at the response's `x-commit`, byte
    /// for byte. Returns that commit.
    fn features_read_across_commits(s: &Arc<AppState>, as_of: Option<u64>, want: &str) -> u64 {
        let resp = ready(dispatch(s, &features_read(as_of), far_deadline(), false));
        let commit = resp.headers.iter().find(|(n, _)| n == "x-commit").expect("x-commit");
        let commit = commit.1.clone();
        let Body::Streamed(mut stream) = resp.body else {
            panic!("rows reads stream");
        };
        let mut body = stream.next_chunk().unwrap().expect("a first chunk").to_vec();
        let last = s.config.points - 1;
        let emitted = String::from_utf8_lossy(&body).contains(&format!("/f{last}\""));
        assert!(!emitted, "the first chunk is one batch");
        let kind = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Feature>";
        let update = format!(
            "INSERT DATA {{ <http://e/late{}> {kind} }} ; \
             DELETE DATA {{ <http://e/f{last}> {kind} }}",
            s.store().generation()
        );
        let stats = s.commit_update(&ee_rdf::parser::parse_update(&update).unwrap()).unwrap();
        assert_eq!((stats.inserted, stats.deleted), (1, 1));
        while let Some(chunk) = stream.next_chunk().unwrap() {
            body.extend_from_slice(chunk);
        }
        assert_eq!(String::from_utf8(body).unwrap(), want, "the answer at x-commit {commit}");
        u64::from_str_radix(&commit, 16).unwrap()
    }

    /// A writable state and its features' rows body at the root commit.
    fn writable_with_features() -> (Arc<AppState>, String) {
        let mut s = AppState::build(DataConfig::tiny());
        s.writable = true;
        let s = Arc::new(s);
        let resp = ready(dispatch(&s, &features_read(None), far_deadline(), false));
        let want = String::from_utf8(body_of(resp)).unwrap();
        let parsed = ee_rdf::merge::QueryResult::parse(&want).unwrap();
        let points = s.config.points;
        assert_eq!((parsed.rows.len(), parsed.count), (points, points as u64));
        assert!(points > 2 * ee_rdf::exec::STREAM_BATCH_ROWS, "the read spans several batches");
        (s, want)
    }

    #[test]
    fn head_rows_stream_answers_at_its_commit_while_commits_land() {
        let (s, want) = writable_with_features();
        let root = s.head_commit();
        assert_eq!(features_read_across_commits(&s, None, &want), root);
        assert_ne!(s.head_commit(), root, "the commits landed");
    }

    #[test]
    fn as_of_rows_stream_answers_at_its_commit_while_commits_land() {
        let (s, want) = writable_with_features();
        let root = s.head_commit();
        // One commit first, so the read starts through an overlay; the
        // overlay is rebuilt when the next commit lands mid-stream.
        let kind = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Feature>";
        let first = format!("INSERT DATA {{ <http://e/early> {kind} }}");
        let first = ee_rdf::parser::parse_update(&first).unwrap();
        s.commit_update(&first).unwrap();
        assert_eq!(features_read_across_commits(&s, Some(root), &want), root);
    }

    #[test]
    fn query_route_returns_solutions() {
        let resp = ready(dispatch(state(), &get("/query?x0=10&y0=10&side=20"), far_deadline(), false));
        assert_eq!(resp.status, 200);
        assert!(matches!(resp.body, Body::Streamed(_)), "query bodies stream");
        let body = body_of(resp);
        let v = ee_util::json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert!(v.get("count").and_then(Json::as_f64).unwrap() >= 1.0);
        // Raw SPARQL arm and the 400 path.
        let resp = ready(dispatch(state(), &get("/query?sparql=nonsense"), far_deadline(), false));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn catalogue_route_classic_and_semantic_agree() {
        let target = "/catalogue/search?minx=5&miny=5&maxx=12&maxy=12";
        let classic = ready(dispatch(state(), &get(target), far_deadline(), false));
        assert_eq!(classic.status, 200);
        let classic_body = body_of(classic);
        let cv = ee_util::json::parse(std::str::from_utf8(&classic_body).unwrap()).unwrap();
        let semantic = ready(dispatch(
            state(),
            &get(&format!("{target}&mode=semantic")),
            far_deadline(),
            false,
        ));
        let semantic_body = body_of(semantic);
        let sv = ee_util::json::parse(std::str::from_utf8(&semantic_body).unwrap()).unwrap();
        assert_eq!(
            cv.get("count").and_then(Json::as_f64),
            sv.get("count").and_then(Json::as_f64),
            "both catalogue arms count the same products"
        );
    }

    #[test]
    fn catalogue_route_ranked_mode_orders_by_score() {
        let resp = ready(dispatch(
            state(),
            &get("/catalogue/search?mode=ranked&q=sentinel-2%20surface%20reflectance%20clear&k=5"),
            far_deadline(),
            false,
        ));
        assert_eq!(resp.status, 200);
        let v = ee_util::json::parse(std::str::from_utf8(&body_of(resp)).unwrap()).unwrap();
        assert_eq!(v.get("mode").and_then(Json::as_str), Some("ranked"));
        let results = v.get("results").and_then(Json::as_arr).unwrap();
        assert!(!results.is_empty() && results.len() <= 5);
        let scores: Vec<f64> = results
            .iter()
            .map(|r| r.get("score").and_then(Json::as_f64).unwrap())
            .collect();
        assert!(
            scores.windows(2).all(|w| w[0] >= w[1]),
            "scores descend: {scores:?}"
        );
        // Every hit matches the query's strongest constraint: the
        // level-2a surface-reflectance vocabulary only appears on MSIL2A.
        for r in results {
            let pt = r
                .get("product")
                .and_then(|p| p.get("product_type"))
                .and_then(Json::as_str)
                .unwrap();
            assert_eq!(pt, "MSIL2A", "surface-reflectance terms rank MSIL2A first");
        }
        // Missing or empty q is a 400, not a panic or an empty 200.
        for target in [
            "/catalogue/search?mode=ranked",
            "/catalogue/search?mode=ranked&q=%20",
        ] {
            assert_eq!(ready(dispatch(state(), &get(target), far_deadline(), false)).status, 400);
        }
        // Unknown modes still 400.
        assert_eq!(
            ready(dispatch(state(), &get("/catalogue/search?mode=psychic"), far_deadline(), false)).status,
            400
        );
    }

    #[test]
    fn catalogue_modes_record_latency_metrics() {
        let s = Arc::new(AppState::build(DataConfig::tiny()));
        let classic = ready(dispatch(
            &s,
            &get("/catalogue/search?minx=5&miny=5&maxx=12&maxy=12"),
            far_deadline(),
            false,
        ));
        assert_eq!(classic.status, 200);
        let ranked = ready(dispatch(
            &s,
            &get("/catalogue/search?mode=ranked&q=radar"),
            far_deadline(),
            false,
        ));
        assert_eq!(ranked.status, 200);
        assert_eq!(s.catalogue_mode_latency("classic").unwrap().count(), 1);
        assert_eq!(s.catalogue_mode_latency("ranked").unwrap().count(), 1);
        assert_eq!(s.catalogue_mode_latency("semantic").unwrap().count(), 0);
        // The 400 arm records nothing.
        let bad = ready(dispatch(&s, &get("/catalogue/search?mode=ranked"), far_deadline(), false));
        assert_eq!(bad.status, 400);
        assert_eq!(s.catalogue_mode_latency("ranked").unwrap().count(), 1);
        let section = s.render_prometheus_section();
        assert!(section.contains("ee_serve_catalogue_mode_requests_total{mode=\"classic\"} 1"));
        assert!(section.contains("ee_serve_catalogue_mode_requests_total{mode=\"ranked\"} 1"));
        assert!(section.contains("ee_serve_catalogue_mode_latency_us_count{mode=\"ranked\"} 1"));
    }

    #[test]
    fn tile_route_serves_decodable_windows() {
        let resp = ready(dispatch(state(), &get("/tiles/0/0/0"), far_deadline(), false));
        assert_eq!(resp.status, 200);
        assert!(matches!(resp.body, Body::Streamed(_)), "tile bodies stream");
        let tile: ee_raster::Raster<f32> = ee_raster::codec::decode(&body_of(resp)).unwrap();
        assert_eq!(tile.shape(), (32, 32));
        // Edge tile is clipped, deep level is small, out of range 404s.
        let deep = ready(dispatch(state(), &get("/tiles/5/0/0"), far_deadline(), false));
        assert_eq!(deep.status, 200);
        assert_eq!(ready(dispatch(state(), &get("/tiles/99/0/0"), far_deadline(), false)).status, 404);
        assert_eq!(ready(dispatch(state(), &get("/tiles/0/99/0"), far_deadline(), false)).status, 404);
        assert_eq!(ready(dispatch(state(), &get("/tiles/0/x/0"), far_deadline(), false)).status, 400);
    }

    #[test]
    fn ice_route_respects_budget() {
        let full = ready(dispatch(state(), &get("/ice/fram-strait"), far_deadline(), false));
        assert_eq!(full.status, 200);
        assert_eq!(full.headers.iter().find(|(n, _)| n == "x-downsample").unwrap().1, "1");
        let full_bytes: usize = full
            .headers
            .iter()
            .find(|(n, _)| n == "x-bundle-bytes")
            .unwrap()
            .1
            .parse()
            .unwrap();
        // Any budget below the full-resolution size forces ≥1 halving.
        let tight = ready(dispatch(
            state(),
            &get(&format!("/ice/fram-strait?budget={}", full_bytes - 1)),
            far_deadline(),
            false,
        ));
        assert_eq!(tight.status, 200);
        let ds: usize = tight
            .headers
            .iter()
            .find(|(n, _)| n == "x-downsample")
            .unwrap()
            .1
            .parse()
            .unwrap();
        assert!(ds > 1, "tight budget forces downsampling");
        assert!(body_of(tight).len() < body_of(full).len());
        assert_eq!(
            ready(dispatch(state(), &get("/ice/atlantis"), far_deadline(), false)).status,
            404
        );
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let h = ready(dispatch(state(), &get("/healthz"), far_deadline(), false));
        assert_eq!(h.status, 200);
        assert_eq!(ready(dispatch(state(), &get("/nope"), far_deadline(), false)).status, 404);
        // Debug routes 404 unless enabled.
        assert_eq!(
            ready(dispatch(state(), &get("/debug/sleep?ms=1"), far_deadline(), false)).status,
            404
        );
        // POST is served only on /query; everything else stays 405.
        let mut post = get("/healthz");
        post.method = "POST".into();
        assert_eq!(ready(dispatch(state(), &post, far_deadline(), false)).status, 405);
    }

    #[test]
    fn post_query_executes_sparql_body() {
        let sparql = "PREFIX e: <http://e/> SELECT (COUNT(?s) AS ?n) WHERE { ?s e:hasGeometry ?g }";
        let raw = format!(
            "POST /query HTTP/1.1\r\ncontent-length: {}\r\n\r\n{sparql}",
            sparql.len()
        );
        let req = parse(&raw);
        let resp = ready(dispatch(state(), &req, far_deadline(), false));
        assert_eq!(resp.status, 200);
        let body = body_of(resp);
        let v = ee_util::json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert!(v.get("count").and_then(Json::as_f64).unwrap() >= 1.0);
        // Malformed SPARQL and empty bodies are 400, not 500.
        let raw = "POST /query HTTP/1.1\r\ncontent-length: 8\r\n\r\nnonsense";
        let req = parse(raw);
        assert_eq!(ready(dispatch(state(), &req, far_deadline(), false)).status, 400);
        let raw = "POST /query HTTP/1.1\r\ncontent-length: 0\r\n\r\n";
        let req = parse(raw);
        assert_eq!(ready(dispatch(state(), &req, far_deadline(), false)).status, 400);
    }

    #[test]
    fn get_and_respaced_post_query_answer_identically() {
        let s = Arc::new(AppState::build(DataConfig::tiny()));
        let sparql = "PREFIX e: <http://e/>  SELECT (COUNT(?s) AS ?n) WHERE { ?s e:hasGeometry ?g }";
        let via_get = ready(dispatch(
            &s,
            &get(&format!("/query?sparql={}", sparql.replace(' ', "%20"))),
            far_deadline(),
            false,
        ));
        assert_eq!(via_get.status, 200);
        // POST the same query with different whitespace: one handler,
        // one canonical text, one answer.
        let body = sparql.replace("  ", " \n ");
        let raw = format!(
            "POST /query HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        let req = parse(&raw);
        let via_post = ready(dispatch(&s, &req, far_deadline(), false));
        assert_eq!(via_post.status, 200);
        let tag = |r: &Response| r.headers.iter().find(|(n, _)| n == "etag").cloned();
        assert_eq!(tag(&via_get), tag(&via_post), "same validator both verbs");
        assert_eq!(body_of(via_get), body_of(via_post), "same answer both verbs");
    }

    #[test]
    fn tile_responses_carry_a_deterministic_etag() {
        let a = ready(dispatch(state(), &get("/tiles/0/0/0"), far_deadline(), false));
        let b = ready(dispatch(state(), &get("/tiles/0/0/0"), far_deadline(), false));
        let tag = |r: &Response| {
            r.headers
                .iter()
                .find(|(n, _)| n == "etag")
                .map(|(_, v)| v.clone())
                .expect("tile has etag")
        };
        assert_eq!(tag(&a), tag(&b), "same tile, same tag");
        assert!(tag(&a).starts_with('"') && tag(&a).ends_with('"'));
        let c = ready(dispatch(state(), &get("/tiles/1/0/0"), far_deadline(), false));
        assert_ne!(tag(&a), tag(&c), "different tile, different tag");
        assert_eq!(etag_of(b"x"), etag_of(b"x"));
        assert_ne!(etag_of(b"x"), etag_of(b"y"));
    }

    /// Tiles and ice are built once at start-up: their ETags hash the body
    /// bytes alone, they name no commit, a commit leaves them as they
    /// were, and `asOf` is an ordinary parameter there (no 404, no 400).
    #[test]
    fn tile_and_ice_etags_hash_the_body_alone() {
        let mut s = AppState::build(DataConfig::tiny());
        s.writable = true;
        let s = Arc::new(s);
        let fetch = |target: &str| {
            let resp = ready(dispatch(&s, &get(target), far_deadline(), false));
            assert_eq!(resp.status, 200, "{target}");
            assert!(resp.headers.iter().all(|(n, _)| n != "x-commit"), "{target}");
            let tag = resp.headers.iter().find(|(n, _)| n == "etag").expect("etag").1.clone();
            let body = body_of(resp);
            assert_eq!(tag, etag_of(&body), "{target}");
            (tag, body)
        };
        let tile = fetch("/tiles/0/0/0");
        let ice = fetch("/ice/fram-strait");
        let insert = "INSERT DATA { <http://e/t> <http://e/p> <http://e/o> }";
        assert_eq!(ready(dispatch(&s, &post("/update", insert), far_deadline(), false)).status, 200);
        assert_eq!(fetch("/tiles/0/0/0"), tile, "a commit leaves tiles alone");
        assert_eq!(fetch("/ice/fram-strait"), ice, "a commit leaves ice alone");
        assert_eq!(fetch("/tiles/0/0/0?asOf=00000000000000ff"), tile);
        assert_eq!(fetch("/ice/fram-strait?asOf=zz"), ice);
    }

    #[test]
    fn debug_stream_refuses_shapes_outside_its_ranges() {
        let status = |target: &str| ready(dispatch(state(), &get(target), far_deadline(), true));
        for target in [
            "/debug/stream?chunks=10001",
            "/debug/stream?bytes=0",
            "/debug/stream?chunks=1&bytes=1048577",
        ] {
            let resp = status(target);
            assert_eq!(resp.status, 400, "{target}");
            let body = String::from_utf8(body_of(resp)).unwrap();
            assert!(body.contains("0..=10000") && body.contains("1..=1048576"), "{body}");
        }
        // The edges of both ranges stream exactly what was asked for.
        for (target, len) in [
            ("/debug/stream?chunks=10000&bytes=1", 10_000),
            ("/debug/stream?chunks=1&bytes=1048576", 1 << 20),
            ("/debug/stream?chunks=0", 0),
        ] {
            let resp = status(target);
            assert_eq!(resp.status, 200, "{target}");
            assert_eq!(body_of(resp).len(), len, "{target}");
        }
    }

    /// Percent-encode every byte but ASCII letters and digits.
    fn pct(text: &str) -> String {
        text.bytes()
            .map(|b| match b {
                b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' => (b as char).to_string(),
                _ => format!("%{b:02X}"),
            })
            .collect()
    }

    /// A `/query` GET of `sparql`.
    fn sparql_get(sparql: &str) -> Request {
        get(&format!("/query?sparql={}", pct(sparql)))
    }

    /// `SELECT ?s ?g` over the features within a `side`-wide window at
    /// (`x0`, `y0`), with `extra` appended to the group.
    fn window_rows(x0: f64, y0: f64, side: f64, extra: &str) -> String {
        let (x1, y1) = (x0 + side, y0 + side);
        format!(
            "PREFIX e: <http://e/> SELECT ?s ?g WHERE {{ ?s e:hasGeometry ?g . {extra} \
             FILTER(geof:sfWithin(?g, \"POLYGON (({x0} {y0}, {x1} {y0}, {x1} {y1}, {x0} {y1}, {x0} {y0}))\"^^geo:wktLiteral)) }}"
        )
    }

    /// Which reads the event loop runs: bounded COUNT and rows windows,
    /// up to [`crate::state::INLINE_CANDIDATES`] candidates. Joins,
    /// OPTIONAL, ORDER BY, GROUP BY, unbounded scans, larger windows,
    /// POST, `asOf` / `AS OF` reads and a router tier's reads go to the
    /// worker pool.
    #[test]
    fn only_bounded_head_reads_run_inline() {
        let s = state();
        let inline = |req: &Request| run_bounded(s, req).is_some();
        let kind = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>";
        // The tiny store: 2,000 points over 100 × 100.
        assert!(inline(&get("/query?x0=10&y0=10&side=10")));
        assert!(inline(&sparql_get(&crate::state::selection_sparql(
            40.0, 40.0, 10.0
        ))));
        assert!(inline(&sparql_get(&window_rows(20.0, 30.0, 5.0, ""))));
        // About 720 and 1,620 candidates: the cap sits in between.
        assert!(inline(&sparql_get(&window_rows(0.0, 0.0, 60.0, ""))));
        assert!(
            !inline(&sparql_get(&window_rows(0.0, 0.0, 90.0, ""))),
            "past the cap"
        );
        let head = s.head_commit();
        for (shape, sparql) in [
            (
                "join",
                window_rows(20.0, 30.0, 5.0, &format!("?s {kind} ?t .")),
            ),
            (
                "optional",
                window_rows(20.0, 30.0, 5.0, &format!("OPTIONAL {{ ?s {kind} ?t }}")),
            ),
            (
                "order by",
                window_rows(20.0, 30.0, 5.0, "") + " ORDER BY ?s",
            ),
            (
                "order by + limit",
                window_rows(20.0, 30.0, 5.0, "") + " ORDER BY ?s LIMIT 3",
            ),
            (
                "group by",
                window_rows(20.0, 30.0, 5.0, "")
                    .replace("?s ?g WHERE", "?g (COUNT(?s) AS ?n) WHERE")
                    + " GROUP BY ?g",
            ),
            (
                "unbounded scan",
                "SELECT ?s WHERE { ?s <http://e/hasGeometry> ?g }".into(),
            ),
            (
                "AS OF",
                window_rows(20.0, 30.0, 5.0, "") + &format!(" AS OF <{head:016x}>"),
            ),
        ] {
            assert!(!inline(&sparql_get(&sparql)), "{shape}: {sparql}");
            // Deferred reads still answer, on the pool's path.
            let pooled = ready(dispatch(s, &sparql_get(&sparql), far_deadline(), false));
            assert_eq!(pooled.status, 200, "{shape}");
        }
        let window = "/query?x0=10&y0=10&side=10";
        assert!(
            !inline(&get(&format!("{window}&asOf={head:016x}"))),
            "asOf="
        );
        assert!(
            !inline(&post(
                "/query",
                &crate::state::selection_sparql(10.0, 10.0, 10.0)
            )),
            "POST"
        );
        assert!(
            !inline(&get("/query/more?x0=10&y0=10&side=10")),
            "not the /query route"
        );
        assert!(
            !inline(&get("/query?sparql=nonsense")),
            "parse errors answer on the pool"
        );
        let mut routed = AppState::build(DataConfig::tiny());
        let shard: std::net::SocketAddr = "127.0.0.1:9".parse().unwrap();
        routed.router = Some(crate::shard::RouterTier::new(&[shard], Default::default()));
        assert!(
            run_bounded(&routed, &get(window)).is_none(),
            "a router tier scatters"
        );
    }

    /// An inline read answers what the pool's [`PinnedRead`] drain does
    /// for the same query and commit: status, headers and body bytes.
    #[test]
    fn inline_bodies_equal_the_pool_paths() {
        let s = state();
        for target in [
            "/query?x0=10&y0=10&side=10".to_string(),
            format!("/query?sparql={}", pct(&window_rows(20.0, 30.0, 5.0, ""))),
            format!(
                "/query?limit=2&sparql={}",
                pct(&window_rows(20.0, 30.0, 5.0, ""))
            ),
            format!(
                "/query?limit=0&sparql={}",
                pct(&window_rows(70.0, 30.0, 8.0, ""))
            ),
        ] {
            let inline = run_bounded(s, &get(&target)).expect("a bounded read");
            let pooled = ready(dispatch(s, &get(&target), far_deadline(), false));
            assert_eq!(
                (inline.status, &inline.headers),
                (pooled.status, &pooled.headers),
                "{target}"
            );
            assert!(
                matches!(inline.body, Body::Streamed(_)),
                "chunked, as the pool's"
            );
            let (inline, pooled) = (body_of(inline), body_of(pooled));
            assert_eq!(
                String::from_utf8(inline).unwrap(),
                String::from_utf8(pooled).unwrap()
            );
        }
    }

    /// Every strict parameter: a value that does not parse, or parses
    /// outside the parameter's range, is a 400 naming the parameter —
    /// never a default or a clamp. One test per parameter.
    macro_rules! refuses {
        ($($test:ident: $target:expr, $param:expr;)*) => {$(
            #[test]
            fn $test() {
                let resp = ready(dispatch(state(), &get($target), far_deadline(), true));
                assert_eq!(resp.status, 400, "{}", $target);
                let body = String::from_utf8(body_of(resp)).unwrap();
                assert!(body.contains(&format!("{} must be", $param)), "{body}");
            }
        )*};
    }

    refuses! {
        query_limit_must_be_an_integer: "/query?x0=1&y0=1&side=5&limit=abc", "limit";
        query_x0_must_be_a_number: "/query?x0=abc", "x0";
        query_y0_must_be_a_number: "/query?y0=1e", "y0";
        query_side_must_be_a_number: "/query?side=wide", "side";
        ranked_k_is_at_most_1000: "/catalogue/search?mode=ranked&q=radar&k=1001", "k";
        catalogue_minx_must_be_a_number: "/catalogue/search?minx=abc", "minx";
        catalogue_miny_must_be_a_number: "/catalogue/search?miny=abc", "miny";
        catalogue_maxx_must_be_a_number: "/catalogue/search?maxx=abc", "maxx";
        catalogue_maxy_must_be_a_number: "/catalogue/search?maxy=", "maxy";
        classic_limit_must_be_an_integer: "/catalogue/search?limit=-1", "limit";
        ice_budget_must_be_an_integer: "/ice/fram-strait?budget=abc", "budget";
        sleep_ms_is_at_most_60000: "/debug/sleep?ms=60001", "ms";
        stream_chunks_must_be_an_integer: "/debug/stream?chunks=x", "chunks";
        stream_bytes_must_be_an_integer: "/debug/stream?bytes=1.5", "bytes";
        stream_ms_is_at_most_60000: "/debug/stream?ms=60001", "ms";
        panic_after_is_at_most_1000: "/debug/panic?after=1001", "after";
    }

    #[test]
    fn strict_parameters_accept_their_range_edges() {
        let ok = |target: &str| ready(dispatch(state(), &get(target), far_deadline(), true)).status;
        assert_eq!(ok("/catalogue/search?mode=ranked&q=radar&k=1000"), 200);
        assert_eq!(ok("/catalogue/search?mode=ranked&q=radar&k=0"), 200);
        assert_eq!(ok("/debug/sleep?ms=0"), 200);
        assert_eq!(ok("/debug/stream?ms=0&chunks=1"), 200);
        assert_eq!(ok("/query?x0=1&y0=1&side=5&limit=0"), 200);
    }

    #[test]
    fn if_none_match_handles_lists_and_wildcard() {
        let tag = "\"abc123\"";
        // Single exact tag and the * form.
        assert!(if_none_match_matches("\"abc123\"", tag));
        assert!(if_none_match_matches("*", tag));
        assert!(!if_none_match_matches("\"zzz\"", tag));
        // Comma-separated lists, with and without surrounding whitespace.
        assert!(if_none_match_matches("\"zzz\", \"abc123\"", tag));
        assert!(if_none_match_matches("\"abc123\",\"zzz\"", tag));
        assert!(if_none_match_matches("\"a\" , \"b\",\"abc123\"", tag));
        assert!(!if_none_match_matches("\"a\", \"b\", \"c\"", tag));
        // Weak validators compare equal to their strong counterparts.
        assert!(if_none_match_matches("W/\"abc123\"", tag));
        assert!(if_none_match_matches("\"zzz\", W/\"abc123\"", tag));
        assert!(if_none_match_matches("\"abc123\"", "W/\"abc123\""));
        // A list containing * anywhere still matches.
        assert!(if_none_match_matches("\"zzz\", *", tag));
    }

    #[test]
    fn debug_sleep_honours_deadline() {
        let past = Instant::now();
        match dispatch(state(), &get("/debug/sleep?ms=500"), past, true) {
            Outcome::DeadlineExceeded => {}
            Outcome::Ready(r) => panic!("expected deadline, got {}", r.status),
        }
        let ok = ready(dispatch(state(), &get("/debug/sleep?ms=2"), far_deadline(), true));
        assert_eq!(ok.status, 200);
    }

    #[test]
    fn healthz_reports_one_commit_under_concurrent_writes() {
        // One point per commit: `points - generation` stays constant
        // exactly when all three fields come from the same commit.
        let state = Arc::new(AppState::build(DataConfig::tiny()));
        let base = state.store().len() as f64 - state.store().generation() as f64;
        let stop = std::sync::atomic::AtomicBool::new(false);
        let (answers, mixed) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let u = ee_rdf::parser::parse_update(&format!(
                        "INSERT DATA {{ <http://e/h{i}> <http://e/p> \"{i}\" }}"
                    ))
                    .unwrap();
                    state.commit_update(&u).expect("commit");
                    i += 1;
                }
            });
            let (mut answers, mut mixed) = (0u64, 0u64);
            let t0 = Instant::now();
            while t0.elapsed() < std::time::Duration::from_secs(1) {
                let body = body_of(ready(dispatch(
                    &state,
                    &get("/healthz"),
                    far_deadline(),
                    false,
                )));
                let v = ee_util::json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
                let num = |k: &str| v.get(k).and_then(Json::as_f64).expect("numeric field");
                answers += 1;
                mixed += u64::from(num("points") - num("generation") != base);
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            writer.join().expect("writer");
            (answers, mixed)
        });
        assert_eq!(
            mixed, 0,
            "{mixed} of {answers} /healthz answers mixed two commits"
        );
    }
}
