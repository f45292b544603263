//! End-to-end serving-tier tests over real localhost sockets: keep-alive
//! reuse, cache hit/miss, per-request deadlines, and 503 admission
//! shedding under overload.

use ee_serve::http::read_response;
use ee_serve::loadgen::{self, Arrivals, ConnMode, LoadPlan};
use ee_serve::{start, AppState, DataConfig, ServerConfig};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One engine state shared by every test server (building it is the
/// expensive part; servers themselves are cheap).
fn state() -> Arc<AppState> {
    static STATE: OnceLock<Arc<AppState>> = OnceLock::new();
    Arc::clone(STATE.get_or_init(|| Arc::new(AppState::build(DataConfig::tiny()))))
}

fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_watermark: 8,
        deadline: Duration::from_millis(1_500),
        idle_timeout: Duration::from_millis(2_000),
        debug_routes: true,
        ..ServerConfig::default()
    }
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let r = s.try_clone().expect("clone");
    (s, BufReader::new(r))
}

fn send(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    target: &str,
    keep_alive: bool,
) -> ee_serve::http::ClientResponse {
    send_with(stream, reader, target, keep_alive, &[])
}

fn send_with(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    target: &str,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> ee_serve::http::ClientResponse {
    let conn = if keep_alive { "keep-alive" } else { "close" };
    let extra: String = extra_headers
        .iter()
        .map(|(n, v)| format!("{n}: {v}\r\n"))
        .collect();
    // Tolerate write errors: a server that sheds the connection may close
    // it mid-write, and the interesting assertion is on the response (or
    // its absence), not the request bytes landing.
    let _ = write!(
        stream,
        "GET {target} HTTP/1.1\r\nhost: t\r\nconnection: {conn}\r\n{extra}\r\n"
    );
    let _ = stream.flush();
    read_response(reader).expect("response")
}

fn post(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    target: &str,
    body: &[u8],
    keep_alive: bool,
) -> ee_serve::http::ClientResponse {
    let conn = if keep_alive { "keep-alive" } else { "close" };
    let _ = write!(
        stream,
        "POST {target} HTTP/1.1\r\nhost: t\r\nconnection: {conn}\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(body);
    let _ = stream.flush();
    read_response(reader).expect("response")
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let server = start(test_config(), state()).expect("start");
    let (mut s, mut r) = connect(server.addr);
    for i in 0..5 {
        let resp = send(&mut s, &mut r, "/healthz", true);
        assert_eq!(resp.status, 200, "request {i} on the same connection");
        assert!(resp.keep_alive);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"ok\":true"), "healthz body: {text}");
    }
    // A Connection: close request ends the conversation.
    let resp = send(&mut s, &mut r, "/healthz", false);
    assert_eq!(resp.status, 200);
    assert!(!resp.keep_alive);
    // Exactly one connection was admitted for all six requests.
    assert_eq!(
        server.metrics().admitted.load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    server.shutdown();
}

#[test]
fn cache_misses_then_hits_with_canonicalised_keys() {
    let server = start(test_config(), state()).expect("start");
    let (mut s, mut r) = connect(server.addr);

    let miss = send(&mut s, &mut r, "/query?x0=5&y0=5&side=10", true);
    assert_eq!(miss.status, 200);
    assert_eq!(miss.header("x-cache"), Some("MISS"));

    let hit = send(&mut s, &mut r, "/query?x0=5&y0=5&side=10", true);
    assert_eq!(hit.status, 200);
    assert_eq!(hit.header("x-cache"), Some("HIT"));
    assert_eq!(hit.body, miss.body, "cached body identical");

    // Same parameters in a different order canonicalise to the same key.
    let reordered = send(&mut s, &mut r, "/query?side=10&y0=5&x0=5", true);
    assert_eq!(reordered.header("x-cache"), Some("HIT"));

    // A different request is its own entry.
    let other = send(&mut s, &mut r, "/tiles/0/0/0", true);
    assert_eq!(other.status, 200);
    assert_eq!(other.header("x-cache"), Some("MISS"));
    let other2 = send(&mut s, &mut r, "/tiles/0/0/0", true);
    assert_eq!(other2.header("x-cache"), Some("HIT"));

    // /healthz is uncacheable: no x-cache header at all.
    let h = send(&mut s, &mut r, "/healthz", true);
    assert_eq!(h.header("x-cache"), None);

    assert!(server.cache().hits() >= 3);
    server.shutdown();
}

#[test]
fn slow_handler_times_out_with_504() {
    let mut config = test_config();
    config.deadline = Duration::from_millis(120);
    let server = start(config, state()).expect("start");
    let (mut s, mut r) = connect(server.addr);
    // Well under the deadline: fine.
    let ok = send(&mut s, &mut r, "/debug/sleep?ms=10", true);
    assert_eq!(ok.status, 200);
    // Sleeps far past the deadline: the handler notices and aborts.
    let slow = send(&mut s, &mut r, "/debug/sleep?ms=5000", true);
    assert_eq!(slow.status, 504, "deadline exceeded mid-handler");
    assert_eq!(
        server
            .metrics()
            .deadline_expired
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    server.shutdown();
}

#[test]
fn overload_sheds_with_503_and_retry_after() {
    // One worker, tiny queue, and handlers pinned slow so the queue
    // genuinely backs up.
    let mut config = test_config();
    config.workers = 1;
    config.queue_watermark = 2;
    config.deadline = Duration::from_secs(5);
    let server = start(config, state()).expect("start");
    let addr = server.addr;

    // Fill the worker and the queue with slow requests on separate
    // connections, without waiting for responses.
    let mut held = Vec::new();
    for _ in 0..4 {
        let (mut s, r) = connect(addr);
        // Shed connections may close before the bytes land; keep going.
        let _ = write!(
            s,
            "GET /debug/sleep?ms=1500 HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"
        );
        let _ = s.flush();
        held.push((s, r));
        // Give the acceptor time to enqueue before the next connect.
        std::thread::sleep(Duration::from_millis(50));
    }

    // Queue is now at the watermark: fresh connections are rejected
    // immediately with 503 + Retry-After.
    let (mut s, mut r) = connect(addr);
    let resp = send(&mut s, &mut r, "/healthz", false);
    assert_eq!(resp.status, 503, "watermark rejects new connections");
    assert_eq!(resp.header("retry-after"), Some("1"));

    // The admitted requests still complete; with 1 worker + queue of 2,
    // the last held connection may itself have been 503-shed.
    let mut completed = 0;
    for (_s, mut r) in held {
        if let Ok(resp) = read_response(&mut r) {
            assert!(
                resp.status == 200 || resp.status == 504 || resp.status == 503,
                "unexpected status {}",
                resp.status
            );
            if resp.status != 503 {
                completed += 1;
            }
        }
    }
    assert!(completed >= 3, "admitted work drains, got {completed}");
    assert!(
        server
            .metrics()
            .rejected
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    server.shutdown();
}

#[test]
fn loadgen_drives_all_routes_and_metrics_report() {
    let server = start(test_config(), state()).expect("start");
    let targets: Vec<String> = vec![
        "/query?x0=5&y0=5&side=10".into(),
        "/catalogue/search?minx=10&miny=10&maxx=14&maxy=14".into(),
        "/tiles/1/0/0".into(),
        "/ice/fram-strait".into(),
    ];
    let report = loadgen::run(
        server.addr,
        &targets,
        &LoadPlan {
            conns: 4,
            mode: ConnMode::KeepAlive,
            arrivals: Arrivals::Closed { requests: 80 },
        },
    );
    assert_eq!(report.ok, 80, "all requests succeed: {report:?}");
    assert_eq!(report.errors, 0);
    assert!(report.cache_hits > 0, "repeats hit the cache");
    assert!(report.p50_us > 0 && report.p50_us <= report.p99_us);
    assert!(report.throughput() > 0.0);

    // The Prometheus endpoint reflects the traffic.
    let (mut s, mut r) = connect(server.addr);
    let m = send(&mut s, &mut r, "/metrics", false);
    assert_eq!(m.status, 200);
    let text = String::from_utf8(m.body).unwrap();
    assert!(text.contains("ee_serve_requests_total"), "{text}");
    assert!(text.contains("ee_serve_cache_hits_total"));
    assert!(text.contains("route=\"query\""));
    server.shutdown();
}

#[test]
fn open_loop_queues_due_requests_instead_of_dropping_them() {
    // One connection, 20 ms per request, a request due every 5 ms: most
    // arrivals find the connection busy. Each waits in the client-side
    // FIFO and its latency counts the wait.
    let server = start(test_config(), state()).expect("start");
    let report = loadgen::run(
        server.addr,
        &["/debug/sleep?ms=20".to_string()],
        &LoadPlan {
            conns: 1,
            mode: ConnMode::KeepAlive,
            arrivals: Arrivals::Open {
                rate_per_sec: 200.0,
                window: Duration::from_millis(300),
            },
        },
    );
    assert_eq!(report.sent, 60, "every due arrival is sent: {report:?}");
    assert_eq!(report.ok, report.sent, "and answered: {report:?}");
    assert_eq!(report.errors, 0);
    assert!(
        report.p50_us >= 20_000,
        "p50 includes client-side queueing: {report:?}"
    );
    server.shutdown();
}

#[test]
fn recycled_connections_are_reopened_not_failed() {
    let server = start(
        ServerConfig {
            max_requests_per_conn: 5,
            ..test_config()
        },
        state(),
    )
    .expect("start");
    let report = loadgen::run(
        server.addr,
        &["/healthz".into(), "/query?x0=5&y0=5&side=10".into()],
        &LoadPlan {
            conns: 2,
            mode: ConnMode::KeepAlive,
            arrivals: Arrivals::Closed { requests: 50 },
        },
    );
    assert_eq!(report.ok, 50, "every request is 2xx: {report:?}");
    assert_eq!(report.errors, 0, "{report:?}");
    // Each connection is recycled after its 5th request and reopened
    // before its next one: 50 requests over 2 connections.
    assert!(report.reopened >= 8, "{report:?}");
    server.shutdown();
}

#[test]
fn post_query_roundtrips_sparql_and_rejects_malformed_bodies() {
    let server = start(test_config(), state()).expect("start");
    let (mut s, mut r) = connect(server.addr);

    let sparql = "PREFIX e: <http://e/> SELECT (COUNT(?s) AS ?n) \
                  WHERE { ?s e:hasGeometry ?g }";
    let resp = post(&mut s, &mut r, "/query", sparql.as_bytes(), true);
    assert_eq!(resp.status, 200, "POSTed SPARQL executes");
    let text = String::from_utf8(resp.body.clone()).unwrap();
    assert!(text.contains("\"vars\""), "solution JSON: {text}");
    assert!(text.contains("\"count\""), "solution JSON: {text}");

    // The same query again (same connection, different whitespace)
    // answers identically.
    let respaced = sparql.replace(' ', "  ");
    let again = post(&mut s, &mut r, "/query", respaced.as_bytes(), true);
    assert_eq!(again.status, 200);
    assert_eq!(again.body, resp.body, "whitespace changes nothing");

    // Malformed SPARQL body → 400 with a parse message, not a 500.
    let bad = post(&mut s, &mut r, "/query", b"SELECT WHERE garbage {", true);
    assert_eq!(bad.status, 400, "malformed body is a client error");

    // Invalid UTF-8 body → 400 as well.
    let binary = post(&mut s, &mut r, "/query", &[0xff, 0xfe, 0x80], true);
    assert_eq!(binary.status, 400);

    // POST on any other route stays 405.
    let nope = post(&mut s, &mut r, "/healthz", b"", true);
    assert_eq!(nope.status, 405);
    server.shutdown();
}

#[test]
fn conditional_tile_requests_return_304_on_matching_etag() {
    let server = start(test_config(), state()).expect("start");
    let (mut s, mut r) = connect(server.addr);

    let first = send(&mut s, &mut r, "/tiles/0/0/0", true);
    assert_eq!(first.status, 200);
    let etag = first.header("etag").expect("tile carries etag").to_string();
    assert!(!first.body.is_empty());

    // Revalidate with the tag: 304, empty body — and the response came
    // from the cache (headers, including etag, were replayed).
    let revalidated = send_with(
        &mut s,
        &mut r,
        "/tiles/0/0/0",
        true,
        &[("if-none-match", &etag)],
    );
    assert_eq!(revalidated.status, 304, "matching tag elides the body");
    assert!(revalidated.body.is_empty());

    // A stale tag gets the full body again.
    let stale = send_with(
        &mut s,
        &mut r,
        "/tiles/0/0/0",
        true,
        &[("if-none-match", "\"0000000000000000\"")],
    );
    assert_eq!(stale.status, 200);
    assert_eq!(stale.body, first.body);
    assert_eq!(stale.header("etag"), Some(etag.as_str()), "cache hit keeps etag");

    // The 304s are counted.
    let m = send(&mut s, &mut r, "/metrics", false);
    let text = String::from_utf8(m.body).unwrap();
    assert!(text.contains("ee_serve_not_modified_total 1"), "{text}");
    server.shutdown();
}

#[test]
fn malformed_requests_get_400_not_a_hang() {
    let server = start(test_config(), state()).expect("start");
    let (mut s, mut r) = connect(server.addr);
    s.write_all(b"NONSENSE\r\n\r\n").unwrap();
    s.flush().unwrap();
    let resp = read_response(&mut r).expect("error response");
    assert_eq!(resp.status, 400);
    server.shutdown();
}
