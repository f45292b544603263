//! E-s0 — the serving tier under closed-loop load.
//!
//! The paper's engines answer batch experiments (E2, E9, E12…); this
//! experiment measures them behind `ee-serve` as network services, over
//! real localhost sockets:
//!
//! 1. **Cold vs warm cache** — per route, the p50 of first-touch
//!    requests (engine does the work) against repeats of the same
//!    requests (sharded-LRU replay).
//! 2. **Concurrency sweep** — closed-loop clients in
//!    connection-per-request mode against a deliberately small worker
//!    pool and admission watermark, reporting throughput, latency
//!    percentiles, 503 shed counts, and the p99 over *admitted*
//!    requests (which must stay bounded while overloaded).
//!
//! [`report`] returns the tables plus a JSON value the harness writes to
//! `BENCH_PR2.json`.

use crate::table::Table;
use crate::Scale;
use ee_serve::loadgen::{self, ConnMode, LoadPlan};
use ee_serve::{start, AppState, DataConfig, ServerConfig};
use ee_util::json::Json;
use std::sync::Arc;
use std::time::Duration;

/// Microseconds pretty-printer (µs under 1 ms, ms above).
fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us} µs")
    } else {
        format!("{:.2} ms", us as f64 / 1_000.0)
    }
}

/// Distinct request targets per route. Every target is a real route on
/// the engines; distinct parameters defeat the cache (cold), repeats
/// hit it (warm).
fn route_targets(state: &AppState, per_route: usize) -> Vec<(&'static str, Vec<String>)> {
    let grid = (per_route as f64).sqrt().ceil() as usize;
    let step = ee_serve::state::REGION / (grid as f64 + 1.0);
    let query: Vec<String> = (0..per_route)
        .map(|i| {
            let (gx, gy) = (i % grid, i / grid);
            format!(
                "/query?x0={:.2}&y0={:.2}&side=10",
                gx as f64 * step,
                gy as f64 * step
            )
        })
        .collect();
    let catalogue: Vec<String> = (0..per_route)
        .map(|i| {
            let (gx, gy) = (i % grid, i / grid);
            // The archive region is (0,0)..(40,40).
            let (x, y) = (gx as f64 * 36.0 / grid as f64, gy as f64 * 36.0 / grid as f64);
            format!(
                "/catalogue/search?minx={x:.2}&miny={y:.2}&maxx={:.2}&maxy={:.2}",
                x + 4.0,
                y + 4.0
            )
        })
        .collect();
    let mut tiles = Vec::new();
    'outer: for (level, r) in state.pyramid.iter().enumerate() {
        let tr = r.rows().div_ceil(state.tile_size);
        let tc = r.cols().div_ceil(state.tile_size);
        for row in 0..tr {
            for col in 0..tc {
                tiles.push(format!("/tiles/{level}/{row}/{col}"));
                if tiles.len() >= per_route {
                    break 'outer;
                }
            }
        }
    }
    let budgets = [1_000_000usize, 100_000, 50_000, 20_000, 10_000];
    let ice: Vec<String> = ee_serve::state::ICE_REGIONS
        .iter()
        .flat_map(|r| budgets.iter().map(move |b| format!("/ice/{r}?budget={b}")))
        .take(per_route)
        .collect();
    vec![
        ("query", query),
        ("catalogue", catalogue),
        ("tiles", tiles),
        ("ice", ice),
    ]
}

struct ColdWarm {
    route: &'static str,
    targets: usize,
    cold_p50_us: u64,
    warm_p50_us: u64,
    warm_hit_rate: f64,
}

/// Stage 1: cold vs warm per route on an uncontended server.
fn cold_warm(state: &Arc<AppState>, per_route: usize) -> Vec<ColdWarm> {
    let mut out = Vec::new();
    for (route, targets) in route_targets(state, per_route) {
        // Fresh server per route: cold really is cold.
        let server = start(
            ServerConfig {
                workers: 4,
                queue_watermark: 256,
                ..ServerConfig::default()
            },
            Arc::clone(state),
        )
        .expect("start server");
        let cold = loadgen::run(
            server.addr,
            &targets,
            &LoadPlan {
                clients: 1,
                requests_per_client: targets.len(),
                mode: ConnMode::KeepAlive,
                timeout: Duration::from_secs(30),
            },
        );
        let warm = loadgen::run(
            server.addr,
            &targets,
            &LoadPlan {
                clients: 1,
                requests_per_client: targets.len() * 3,
                mode: ConnMode::KeepAlive,
                timeout: Duration::from_secs(30),
            },
        );
        let warm_hit_rate = if warm.ok == 0 {
            0.0
        } else {
            warm.cache_hits as f64 / warm.ok as f64
        };
        out.push(ColdWarm {
            route,
            targets: targets.len(),
            cold_p50_us: cold.p50_us,
            warm_p50_us: warm.p50_us,
            warm_hit_rate,
        });
        server.shutdown();
    }
    out
}

struct SweepPoint {
    clients: usize,
    report: loadgen::LoadReport,
    cache_hit_pct: f64,
}

/// Stage 2: closed-loop concurrency sweep in connection-per-request
/// mode against a small pool (watermark + workers are the saturation
/// point; past it the server must shed with 503).
fn sweep(
    state: &Arc<AppState>,
    client_counts: &[usize],
    requests_per_client: usize,
) -> (Vec<SweepPoint>, usize, usize) {
    let workers = 4;
    let watermark = 8;
    let mut targets = Vec::new();
    for (_, t) in route_targets(state, 16) {
        targets.extend(t);
    }
    let mut points = Vec::new();
    for &clients in client_counts {
        // Fresh server per point: queue, cache and counters start clean.
        let server = start(
            ServerConfig {
                workers,
                queue_watermark: watermark,
                deadline: Duration::from_secs(2),
                ..ServerConfig::default()
            },
            Arc::clone(state),
        )
        .expect("start server");
        let report = loadgen::run(
            server.addr,
            &targets,
            &LoadPlan {
                clients,
                requests_per_client,
                mode: ConnMode::PerRequest,
                timeout: Duration::from_secs(30),
            },
        );
        let cache_hit_pct = 100.0 * server.cache().hit_rate();
        server.shutdown();
        points.push(SweepPoint {
            clients,
            report,
            cache_hit_pct,
        });
    }
    (points, workers, watermark)
}

/// Run E-s0 and return the tables plus the `BENCH_PR2.json` value.
pub fn report(scale: Scale) -> (Vec<Table>, Json) {
    let (data, per_route, client_counts, requests_per_client): (_, usize, &[usize], usize) =
        match scale {
            Scale::Quick => (DataConfig::tiny(), 9, &[1, 2, 4, 8, 24], 25),
            Scale::Full => (DataConfig::default(), 16, &[1, 2, 4, 8, 16, 32, 64], 60),
        };
    let state = Arc::new(AppState::build(data));

    let cw = cold_warm(&state, per_route);
    let mut t1 = Table::new(
        "E-s0a — response cache, cold vs warm (p50 per route)",
        "Single keep-alive client; cold = first touch of each distinct target \
         (engine executes), warm = repeats of the same targets (sharded-LRU replay).",
        &["route", "targets", "cold p50", "warm p50", "speedup", "warm hit rate"],
    );
    for c in &cw {
        let speedup = if c.warm_p50_us == 0 {
            f64::INFINITY
        } else {
            c.cold_p50_us as f64 / c.warm_p50_us as f64
        };
        t1.row(vec![
            format!("/{}", c.route),
            c.targets.to_string(),
            fmt_us(c.cold_p50_us),
            fmt_us(c.warm_p50_us),
            format!("{speedup:.1}x"),
            format!("{:.0}%", 100.0 * c.warm_hit_rate),
        ]);
    }

    let (points, workers, watermark) = sweep(&state, client_counts, requests_per_client);
    let mut t2 = Table::new(
        "E-s0b — closed-loop concurrency sweep (mixed routes)",
        format!(
            "Connection-per-request clients over localhost; {workers} workers, admission \
             watermark {watermark}. Past ~{} in-flight connections the server sheds with \
             503 + Retry-After while the p99 of admitted requests stays bounded.",
            workers + watermark
        ),
        &[
            "clients", "ok", "503", "504", "req/s", "p50", "p95", "p99", "admitted p99",
            "cache hit",
        ],
    );
    for p in &points {
        let r = &p.report;
        t2.row(vec![
            p.clients.to_string(),
            r.ok.to_string(),
            r.rejected.to_string(),
            r.expired.to_string(),
            format!("{:.0}", r.throughput()),
            fmt_us(r.p50_us),
            fmt_us(r.p95_us),
            fmt_us(r.p99_us),
            fmt_us(r.admitted_p99_us),
            format!("{:.0}%", p.cache_hit_pct),
        ]);
    }

    let json = Json::obj(vec![
        ("experiment", Json::Str("e-s0".into())),
        (
            "scale",
            Json::Str(if scale == Scale::Full { "full" } else { "quick" }.into()),
        ),
        (
            "server",
            Json::obj(vec![
                ("workers", Json::Num(workers as f64)),
                ("queue_watermark", Json::Num(watermark as f64)),
                ("deadline_ms", Json::Num(2_000.0)),
            ]),
        ),
        (
            "cold_warm",
            Json::Arr(
                cw.iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("route", Json::Str(c.route.into())),
                            ("targets", Json::Num(c.targets as f64)),
                            ("cold_p50_us", Json::Num(c.cold_p50_us as f64)),
                            ("warm_p50_us", Json::Num(c.warm_p50_us as f64)),
                            ("warm_hit_rate", Json::Num(c.warm_hit_rate)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "sweep",
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        let r = &p.report;
                        Json::obj(vec![
                            ("clients", Json::Num(p.clients as f64)),
                            ("ok", Json::Num(r.ok as f64)),
                            ("rejected_503", Json::Num(r.rejected as f64)),
                            ("expired_504", Json::Num(r.expired as f64)),
                            ("errors", Json::Num(r.errors as f64)),
                            ("throughput_rps", Json::Num(r.throughput())),
                            ("p50_us", Json::Num(r.p50_us as f64)),
                            ("p95_us", Json::Num(r.p95_us as f64)),
                            ("p99_us", Json::Num(r.p99_us as f64)),
                            ("admitted_p99_us", Json::Num(r.admitted_p99_us as f64)),
                            ("cache_hit_pct", Json::Num(p.cache_hit_pct)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    (vec![t1, t2], json)
}

/// Stage 3 — the streaming response path under load.
///
/// A dedicated state whose level-0 tile is far larger than anything the
/// earlier stages serve (and, at full scale, larger than the old 1 MiB
/// response buffer cap, which made this request unanswerable before the
/// streaming path existed). The server's per-entry cache cap is set to
/// zero so every request re-encodes and streams chunked end-to-end; the
/// interesting numbers are the time-to-first-byte percentiles — the
/// first chunk leaves while the rest of the tile is still being encoded
/// — against the full-transfer latency.
///
/// Returns the table plus the JSON value the harness writes to
/// `BENCH_PR4.json`.
pub fn streaming_report(scale: Scale) -> (Vec<Table>, Json) {
    let (scene, clients, requests_per_client) = match scale {
        Scale::Quick => (192usize, 2usize, 8usize),
        Scale::Full => (640, 4, 16),
    };
    let state = Arc::new(AppState::build(DataConfig {
        points: 500,
        products: 100,
        scene_size: scene,
        tile_size: scene,
        ice_size: 32,
        seed: 2019,
        shard: None,
    }));
    let tile_bytes = 40 + scene * scene * 4;
    let server = start(
        ServerConfig {
            workers: 4,
            queue_watermark: 64,
            deadline: Duration::from_secs(30),
            // Nothing fits in the response cache: every request takes
            // the chunked streaming path and is counted uncacheable.
            cache_max_body_bytes: 0,
            ..ServerConfig::default()
        },
        Arc::clone(&state),
    )
    .expect("start server");
    let report = loadgen::run(
        server.addr,
        &["/tiles/0/0/0".to_string()],
        &LoadPlan {
            clients,
            requests_per_client,
            mode: ConnMode::KeepAlive,
            timeout: Duration::from_secs(60),
        },
    );
    let uncacheable = server
        .metrics()
        .stream_uncacheable
        .load(std::sync::atomic::Ordering::Relaxed);
    server.shutdown();

    let mut t = Table::new(
        "E-s0c — streaming a large tile (chunked transfer)",
        format!(
            "{clients} keep-alive clients pulling a {tile_bytes}-byte level-0 tile; the \
             cache's per-entry cap is 0 so every request streams. TTFB stops at the \
             response head, latency at the last chunk.",
        ),
        &[
            "tile bytes", "ok", "ttfb p50", "ttfb p95", "ttfb p99", "p50", "p99", "MB/s",
        ],
    );
    let mbps = if report.wall.as_secs_f64() == 0.0 {
        0.0
    } else {
        (report.ok as f64 * tile_bytes as f64) / report.wall.as_secs_f64() / 1e6
    };
    t.row(vec![
        tile_bytes.to_string(),
        report.ok.to_string(),
        fmt_us(report.ttfb_p50_us),
        fmt_us(report.ttfb_p95_us),
        fmt_us(report.ttfb_p99_us),
        fmt_us(report.p50_us),
        fmt_us(report.p99_us),
        format!("{mbps:.0}"),
    ]);

    let json = Json::obj(vec![
        ("experiment", Json::Str("e-s0-streaming".into())),
        (
            "scale",
            Json::Str(if scale == Scale::Full { "full" } else { "quick" }.into()),
        ),
        ("tile_bytes", Json::Num(tile_bytes as f64)),
        ("clients", Json::Num(clients as f64)),
        ("ok", Json::Num(report.ok as f64)),
        ("errors", Json::Num(report.errors as f64)),
        ("ttfb_p50_us", Json::Num(report.ttfb_p50_us as f64)),
        ("ttfb_p95_us", Json::Num(report.ttfb_p95_us as f64)),
        ("ttfb_p99_us", Json::Num(report.ttfb_p99_us as f64)),
        ("p50_us", Json::Num(report.p50_us as f64)),
        ("p99_us", Json::Num(report.p99_us as f64)),
        ("throughput_rps", Json::Num(report.throughput())),
        ("transfer_mb_per_s", Json::Num(mbps)),
        ("stream_uncacheable_total", Json::Num(uncacheable as f64)),
    ]);
    (vec![t], json)
}

/// Stage 4 — TTFB of a large un-ordered `/query` as the result set grows.
///
/// Non-aggregate spatial SELECTs over windows of increasing side stream
/// through the pull-based executor. Time-to-first-byte must stay roughly
/// flat in result-set size — the first [`ee_rdf::exec::STREAM_BATCH_ROWS`]
/// batch is produced after O(batch) probe work — where the pre-pipeline
/// executor materialised the full join before the first byte, making
/// TTFB linear. For every window the streamed rows are checked
/// bit-identical to the collect path at t ∈ {1, 4} (a divergence panics,
/// failing the harness), and the executor's own instrumentation records
/// rows touched before the first batch plus the peak resident row count.
///
/// Returns the table plus the JSON value the harness writes to
/// `BENCH_PR5.json`.
pub fn query_streaming_report(scale: Scale) -> (Vec<Table>, Json) {
    let (points, clients, requests_per_client) = match scale {
        Scale::Quick => (2_000usize, 2usize, 6usize),
        Scale::Full => (20_000, 4, 12),
    };
    let state = Arc::new(AppState::build(DataConfig {
        points,
        products: 50,
        scene_size: 64,
        tile_size: 32,
        ice_size: 16,
        seed: 2019,
        shard: None,
    }));
    let region = ee_serve::state::REGION;
    // Window sides selecting ~1.5%, 6%, 25% and 100% of the features.
    let sides = [region / 8.0, region / 4.0, region / 2.0, region];
    let sparql_for = |side: f64| {
        format!(
            "PREFIX e: <http://e/> SELECT ?s ?g WHERE {{ ?s e:hasGeometry ?g . \
             FILTER(geof:sfWithin(?g, \"POLYGON ((0 0, {side} 0, {side} {side}, 0 {side}, 0 0))\"^^geo:wktLiteral)) }}"
        )
    };
    let server = start(
        ServerConfig {
            workers: 4,
            queue_watermark: 64,
            deadline: Duration::from_secs(30),
            // Nothing is cached: every request runs the executor and
            // streams its chunked body end-to-end.
            cache_max_body_bytes: 0,
            ..ServerConfig::default()
        },
        Arc::clone(&state),
    )
    .expect("start server");

    let mut t = Table::new(
        "E-s0d — streamed /query TTFB vs result-set size",
        format!(
            "{clients} keep-alive clients streaming a non-aggregate spatial SELECT over \
             {points} features; window side grows the result set ~64×. With the \
             pull-based executor the first chunk leaves after O(batch) probe work, so \
             TTFB stays flat while full-transfer latency grows with the rows.",
        ),
        &[
            "window", "rows", "touched@first", "peak rows", "ttfb p50", "ttfb p99", "p50",
            "p99",
        ],
    );
    let mut windows = Vec::new();
    for side in sides {
        let sparql = sparql_for(side);
        // Executor-level instrumentation: rows of probe work before the
        // first batch, and the resident-row high-water mark.
        let (rows, touched_first, peak_first) = {
            let store = state.store();
            let q = ee_rdf::parser::parse_query(&sparql).expect("parse");
            let plan = Arc::new(ee_rdf::plan::plan(&store, &q).expect("plan"));
            let mut core = ee_rdf::exec::stream_plan_shared(&**store, Arc::clone(&plan), 1)
                .expect("stream");
            let mut streamed = Vec::new();
            let mut touched_first = 0u64;
            let mut peak_first = 0u64;
            while let Some(b) = core.next_batch(&**store) {
                if streamed.is_empty() {
                    touched_first = core.rows_touched();
                    peak_first = core.peak_resident_rows();
                }
                streamed.extend(b);
            }
            // Identity gate: streamed ≡ collected at t ∈ {1, 4}. A
            // mismatch panics, which fails the harness (and the verify
            // stage).
            for threads in [1usize, 4] {
                let collected =
                    ee_rdf::exec::execute_plan_view(&**store, Arc::clone(&plan), threads)
                        .expect("collect");
                assert_eq!(
                    streamed, collected.rows,
                    "streamed vs collected diverged (threads={threads}, side={side})"
                );
            }
            (streamed.len(), touched_first, peak_first)
        };
        // Wire-level TTFB under closed-loop load.
        let target = format!("/query?limit={points}&sparql={}", sparql.replace(' ', "%20"));
        let report = loadgen::run(
            server.addr,
            &[target],
            &LoadPlan {
                clients,
                requests_per_client,
                mode: ConnMode::KeepAlive,
                timeout: Duration::from_secs(60),
            },
        );
        t.row(vec![
            format!("{side:.1}²"),
            rows.to_string(),
            touched_first.to_string(),
            peak_first.to_string(),
            fmt_us(report.ttfb_p50_us),
            fmt_us(report.ttfb_p99_us),
            fmt_us(report.p50_us),
            fmt_us(report.p99_us),
        ]);
        windows.push(Json::obj(vec![
            ("window_side", Json::Num(side)),
            ("rows", Json::Num(rows as f64)),
            ("rows_touched_first_batch", Json::Num(touched_first as f64)),
            ("peak_resident_rows", Json::Num(peak_first as f64)),
            ("ok", Json::Num(report.ok as f64)),
            ("errors", Json::Num(report.errors as f64)),
            ("ttfb_p50_us", Json::Num(report.ttfb_p50_us as f64)),
            ("ttfb_p95_us", Json::Num(report.ttfb_p95_us as f64)),
            ("ttfb_p99_us", Json::Num(report.ttfb_p99_us as f64)),
            ("p50_us", Json::Num(report.p50_us as f64)),
            ("p99_us", Json::Num(report.p99_us as f64)),
        ]));
    }
    server.shutdown();

    let json = Json::obj(vec![
        ("experiment", Json::Str("e-s0-query-streaming".into())),
        (
            "scale",
            Json::Str(if scale == Scale::Full { "full" } else { "quick" }.into()),
        ),
        ("points", Json::Num(points as f64)),
        (
            "stream_batch_rows",
            Json::Num(ee_rdf::exec::STREAM_BATCH_ROWS as f64),
        ),
        ("identity_checked_threads", Json::Str("1,4".into())),
        ("windows", Json::Arr(windows)),
    ]);
    (vec![t], json)
}

/// Run E-s0, discarding the JSON (the `run(id, scale)` registry shape).
pub fn run(scale: Scale) -> Vec<Table> {
    report(scale).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_streaming_report_streams_every_request() {
        let (tables, json) = streaming_report(Scale::Quick);
        assert_eq!(tables.len(), 1);
        let md = tables[0].markdown();
        assert!(md.contains("147496"), "192×192 f32 tile + header: {md}");
        let text = json.emit();
        assert!(text.contains("\"ttfb_p50_us\""), "{text}");
        let v = ee_util::json::parse(&text).unwrap();
        let ok = v.get("ok").and_then(Json::as_f64).unwrap();
        assert!(ok >= 16.0, "2 clients × 8 requests: {text}");
        let uncacheable = v
            .get("stream_uncacheable_total")
            .and_then(Json::as_f64)
            .unwrap();
        assert!(uncacheable >= ok, "every request bypassed the cache");
    }

    #[test]
    fn quick_query_streaming_report_pipelines_and_stays_identical() {
        let (tables, json) = query_streaming_report(Scale::Quick);
        assert_eq!(tables.len(), 1);
        let text = json.emit();
        let v = ee_util::json::parse(&text).unwrap();
        assert_eq!(
            v.get("experiment").and_then(Json::as_str),
            Some("e-s0-query-streaming")
        );
        let windows = v.get("windows").and_then(Json::as_arr).unwrap();
        assert_eq!(windows.len(), 4);
        let rows: Vec<f64> = windows
            .iter()
            .map(|w| w.get("rows").and_then(Json::as_f64).unwrap())
            .collect();
        assert!(
            rows.windows(2).all(|p| p[0] <= p[1]),
            "result set grows with the window: {rows:?}"
        );
        assert!(rows[3] >= 1_900.0, "full window selects every feature: {rows:?}");
        // The pipelining claim: even the full-region window produced its
        // first batch after O(batch) probe work, not O(result).
        for w in windows {
            let touched = w
                .get("rows_touched_first_batch")
                .and_then(Json::as_f64)
                .unwrap();
            assert!(
                touched <= 8.0 * ee_rdf::exec::STREAM_BATCH_ROWS as f64,
                "first batch touched {touched} rows"
            );
            let ok = w.get("ok").and_then(Json::as_f64).unwrap();
            assert!(ok >= 12.0, "2 clients × 6 requests: {text}");
        }
    }

    #[test]
    fn quick_report_has_both_tables_and_sane_numbers() {
        let (tables, json) = report(Scale::Quick);
        assert_eq!(tables.len(), 2);
        let md0 = tables[0].markdown();
        assert!(md0.contains("/query") && md0.contains("/tiles"), "{md0}");
        let md1 = tables[1].markdown();
        assert!(md1.contains("24"), "top concurrency present: {md1}");
        let text = json.emit();
        assert!(text.contains("\"cold_warm\""));
        assert!(text.contains("\"sweep\""));
    }
}
