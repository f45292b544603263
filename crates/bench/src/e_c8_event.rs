//! E-c8 — the event-driven serve tier at C10K connection counts.
//!
//! A server that pins one thread per live connection is starved by a
//! few thousand mostly-idle keep-alive clients no matter how cheap each
//! request is. This experiment measures the poll-driven event tier over
//! real localhost sockets, all inside one process (client fleet and
//! server share the fd budget — two fds per connection):
//!
//! 1. **Connection sweep** — an open-loop fleet of N keep-alive
//!    connections at a fixed, modest arrival rate (the fleet is mostly
//!    idle by construction). Reports p50/p99 latency from the scheduled
//!    arrival tick and the process-RSS delta per connection. The 10k
//!    point is capped to what the fd limit allows and the cap is
//!    reported rather than hidden.
//! 2. **Stalled reader** — a client that opens a large chunked stream,
//!    reads a few KiB and then stops reading mid-stream while an
//!    open-loop fleet keeps the server busy. The pull-based body
//!    contract means the server must stop calling `next_chunk` once the
//!    send buffer fills, so process RSS must stay flat (asserted — a
//!    buffer-the-world regression panics and fails the harness).
//!
//! [`report`] returns the tables plus the JSON value the harness writes
//! to `BENCH_PR8.json`.

use crate::table::Table;
use crate::Scale;
use ee_serve::loadgen::{run_open_loop, OpenLoopPlan, OpenLoopReport};
use ee_serve::{start, AppState, DataConfig, ServerConfig};
use ee_util::json::Json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Resident set size of this process, from `/proc/self/status`.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us} µs")
    } else {
        format!("{:.2} ms", us as f64 / 1_000.0)
    }
}

fn fmt_bytes(b: u64) -> String {
    if b < 1024 * 1024 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
    }
}

fn event_config(conns: usize) -> ServerConfig {
    ServerConfig {
        workers: 2,
        event_shards: 2,
        max_connections: conns + 64,
        queue_watermark: 256,
        deadline: Duration::from_secs(10),
        // The fleet is mostly idle on purpose: parked connections must
        // survive the whole window.
        idle_timeout: Duration::from_secs(120),
        debug_routes: true,
        ..ServerConfig::default()
    }
}

struct SweepPoint {
    conns: usize,
    capped_from: Option<usize>,
    report: OpenLoopReport,
    rss_delta: u64,
    bytes_per_conn: u64,
}

/// Stage 1: the open-loop fleet sweep against the event server.
fn sweep(
    state: &Arc<AppState>,
    points: &[(usize, Option<usize>)],
    rate_per_sec: f64,
    duration: Duration,
    rss_base: u64,
) -> Vec<SweepPoint> {
    let targets = vec!["/healthz".to_string(), "/query?x=12&y=34".to_string()];
    let mut out = Vec::new();
    for &(conns, capped_from) in points {
        let server = start(event_config(conns), Arc::clone(state)).expect("start event server");
        let report = run_open_loop(
            server.addr,
            &targets,
            &OpenLoopPlan {
                conns,
                rate_per_sec,
                duration,
                timeout: Duration::from_secs(20),
            },
        );
        // RSS while the fleet is still at full strength, against the
        // experiment-start baseline. Client and server live in this one
        // process, so the delta covers both ends of every connection.
        let rss_delta = rss_bytes().saturating_sub(rss_base);
        let bytes_per_conn = if report.conns_open == 0 {
            0
        } else {
            rss_delta / report.conns_open as u64
        };
        server.shutdown();
        out.push(SweepPoint {
            conns,
            capped_from,
            report,
            rss_delta,
            bytes_per_conn,
        });
    }
    out
}

struct StallResult {
    stream_bytes: u64,
    rss_growth: u64,
    concurrent: OpenLoopReport,
}

/// Stage 2: a reader that stalls mid-stream while an open-loop fleet
/// keeps the server honest. Panics (failing the harness) if the server
/// buffers the stalled stream instead of applying backpressure.
fn stalled_reader(state: &Arc<AppState>, scale: Scale) -> StallResult {
    let (chunks, bytes) = match scale {
        Scale::Quick => (20_000u64, 4_096u64),
        Scale::Full => (50_000, 8_192),
    };
    let stream_bytes = chunks * bytes;
    let server = start(event_config(256), Arc::clone(state)).expect("start event server");

    let mut stalled = TcpStream::connect(server.addr).expect("connect");
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stalled,
        "GET /debug/stream?chunks={chunks}&bytes={bytes}&ms=0 HTTP/1.1\r\nhost: b\r\n\r\n"
    )
    .unwrap();
    stalled.flush().unwrap();
    // Read just past the head so the stream is live, then stop reading.
    let mut first = [0u8; 4096];
    let mut got = 0;
    while got < first.len() {
        match stalled.read(&mut first[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) => panic!("stream never started: {e}"),
        }
    }
    let rss0 = rss_bytes();

    // The stall window doubles as a health check: the fleet's latency
    // shows whether the stalled stream is costing anyone else anything.
    let concurrent = run_open_loop(
        server.addr,
        &["/healthz".to_string()],
        &OpenLoopPlan {
            conns: 32,
            rate_per_sec: 200.0,
            duration: Duration::from_millis(700),
            timeout: Duration::from_secs(10),
        },
    );
    let rss_growth = rss_bytes().saturating_sub(rss0);
    assert!(
        rss_growth < 64 * 1024 * 1024,
        "stalled {stream_bytes}-byte stream grew RSS by {rss_growth} bytes: \
         the server is buffering instead of applying backpressure"
    );
    assert!(
        concurrent.ok > 0 && concurrent.errors == 0,
        "server unhealthy during the stall: {concurrent:?}"
    );
    drop(stalled);
    server.shutdown();
    StallResult {
        stream_bytes,
        rss_growth,
        concurrent,
    }
}

/// Run E-c8 and return the tables plus the `BENCH_PR8.json` value.
pub fn report(scale: Scale) -> (Vec<Table>, Json) {
    let (wanted, rate, duration): (&[usize], f64, Duration) = match scale {
        Scale::Quick => (&[64, 256], 200.0, Duration::from_millis(800)),
        Scale::Full => (&[1_000, 5_000, 10_000], 400.0, Duration::from_secs(4)),
    };
    let state = Arc::new(AppState::build(DataConfig::tiny()));

    // Two fds per connection (client + server end) in this one process;
    // cap the sweep to the fd budget and say so instead of failing.
    let fd_limit = ee_util::poll::raise_nofile_limit(64 * 1024).unwrap_or(1024);
    let usable = (fd_limit.saturating_sub(640) / 2) as usize;
    let points: Vec<(usize, Option<usize>)> = wanted
        .iter()
        .map(|&p| {
            if p > usable {
                (usable, Some(p))
            } else {
                (p, None)
            }
        })
        .collect();

    let rss_base = rss_bytes();
    let sweep_points = sweep(&state, &points, rate, duration, rss_base);
    let stall = stalled_reader(&state, scale);

    let mut t1 = Table::new(
        "E-c8a — open-loop fleet vs the event server",
        format!(
            "N mostly-idle keep-alive connections, {rate:.0} req/s aggregate arrival \
             rate; 2 event shards, 2 workers, fd limit {fd_limit}. Latency is measured \
             from the scheduled arrival tick; RSS Δ covers client and server ends of \
             every connection (one process)."
        ),
        &[
            "conns", "open", "alive", "ok", "missed", "p50", "p99", "RSS Δ", "bytes/conn",
        ],
    );
    for p in &sweep_points {
        let conns = match p.capped_from {
            Some(w) => format!("{} (fd-capped from {w})", p.conns),
            None => p.conns.to_string(),
        };
        t1.row(vec![
            conns,
            p.report.conns_open.to_string(),
            p.report.conns_alive.to_string(),
            p.report.ok.to_string(),
            p.report.missed_ticks.to_string(),
            fmt_us(p.report.p50_us),
            fmt_us(p.report.p99_us),
            fmt_bytes(p.rss_delta),
            fmt_bytes(p.bytes_per_conn),
        ]);
    }

    let mut t2 = Table::new(
        "E-c8c — stalled reader mid-stream",
        format!(
            "One client opens a {}-byte chunked stream, reads 4 KiB and stops; a \
             32-connection fleet runs alongside. The pull-based contract keeps RSS \
             flat (the server stops pulling chunks once the send buffer fills) and \
             the fleet's p99 unaffected.",
            stall.stream_bytes
        ),
        &["stream bytes", "RSS growth while stalled", "fleet ok", "fleet p99"],
    );
    t2.row(vec![
        stall.stream_bytes.to_string(),
        fmt_bytes(stall.rss_growth),
        stall.concurrent.ok.to_string(),
        fmt_us(stall.concurrent.p99_us),
    ]);

    let point_json = |p: &SweepPoint| {
        Json::obj(vec![
            ("conns", Json::Num(p.conns as f64)),
            (
                "fd_capped_from",
                match p.capped_from {
                    Some(w) => Json::Num(w as f64),
                    None => Json::Null,
                },
            ),
            ("conns_open", Json::Num(p.report.conns_open as f64)),
            ("conns_alive", Json::Num(p.report.conns_alive as f64)),
            ("sent", Json::Num(p.report.sent as f64)),
            ("ok", Json::Num(p.report.ok as f64)),
            ("other", Json::Num(p.report.other as f64)),
            ("errors", Json::Num(p.report.errors as f64)),
            ("missed_ticks", Json::Num(p.report.missed_ticks as f64)),
            ("p50_us", Json::Num(p.report.p50_us as f64)),
            ("p95_us", Json::Num(p.report.p95_us as f64)),
            ("p99_us", Json::Num(p.report.p99_us as f64)),
            ("rss_delta_bytes", Json::Num(p.rss_delta as f64)),
            ("bytes_per_conn", Json::Num(p.bytes_per_conn as f64)),
        ])
    };
    let json = Json::obj(vec![
        ("experiment", Json::Str("e-c8".into())),
        (
            "scale",
            Json::Str(if scale == Scale::Full { "full" } else { "quick" }.into()),
        ),
        ("fd_limit", Json::Num(fd_limit as f64)),
        ("rate_per_sec", Json::Num(rate)),
        ("duration_ms", Json::Num(duration.as_millis() as f64)),
        (
            "server",
            Json::obj(vec![
                ("event_shards", Json::Num(2.0)),
                ("workers", Json::Num(2.0)),
            ]),
        ),
        (
            "sweep",
            Json::Arr(sweep_points.iter().map(point_json).collect()),
        ),
        (
            "stalled_reader",
            Json::obj(vec![
                ("stream_bytes", Json::Num(stall.stream_bytes as f64)),
                ("rss_growth_bytes", Json::Num(stall.rss_growth as f64)),
                ("fleet_ok", Json::Num(stall.concurrent.ok as f64)),
                ("fleet_p99_us", Json::Num(stall.concurrent.p99_us as f64)),
            ]),
        ),
    ]);
    (vec![t1, t2], json)
}

/// Run E-c8, discarding the JSON (the `run(id, scale)` registry shape).
pub fn run(scale: Scale) -> Vec<Table> {
    report(scale).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_holds_the_fleet_and_bounds_memory() {
        let (tables, json) = report(Scale::Quick);
        assert_eq!(tables.len(), 2);
        let text = json.emit();
        assert!(text.contains("\"p99_us\""), "{text}");
        assert!(text.contains("\"bytes_per_conn\""), "{text}");
        let v = ee_util::json::parse(&text).unwrap();
        let sweep = v.get("sweep").and_then(Json::as_arr).unwrap();
        assert_eq!(sweep.len(), 2);
        for p in sweep {
            let open = p.get("conns_open").and_then(Json::as_f64).unwrap();
            let alive = p.get("conns_alive").and_then(Json::as_f64).unwrap();
            let conns = p.get("conns").and_then(Json::as_f64).unwrap();
            assert_eq!(open, conns, "event server admits the whole fleet");
            assert_eq!(alive, conns, "nothing reaped or dropped: {p:?}");
            assert_eq!(p.get("errors").and_then(Json::as_f64), Some(0.0));
            assert!(p.get("ok").and_then(Json::as_f64).unwrap() > 0.0);
        }
        let growth = v
            .get("stalled_reader")
            .and_then(|s| s.get("rss_growth_bytes"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!(growth < 64.0 * 1024.0 * 1024.0);
    }
}
