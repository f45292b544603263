//! End-to-end tests for the streaming response path: a tile bigger than
//! the old 1 MiB response cap arrives chunked and byte-identical to the
//! one-shot codec encoder, `/query` streams its solution JSON, oversized
//! streams bypass the cache, a deadline expiring mid-stream aborts the
//! chunked body instead of blocking a worker, a client draining the
//! chunked `/query` body a few bytes at a time (backpressuring the
//! executor) receives identical rows, a streamed `/query` records its
//! TTFB at the first row-bearing chunk and its latency when the stream
//! ends, and a client disconnecting mid-stream leaves the server healthy
//! for the next connection.

use ee_serve::http::read_response;
use ee_serve::metrics::Route;
use ee_serve::{start, AppState, DataConfig, ServerConfig};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A state whose level-0 tile is deliberately larger than 1 MiB: a
/// 520×520 f32 window encodes (noise → raw payload) to
/// 40 + 520·520·4 = 1,081,640 bytes. The old serving tier could not
/// answer this at all — its response buffer was capped at 1 MiB.
fn big_tile_state() -> Arc<AppState> {
    static STATE: OnceLock<Arc<AppState>> = OnceLock::new();
    Arc::clone(STATE.get_or_init(|| {
        Arc::new(AppState::build(DataConfig {
            points: 500,
            products: 100,
            scene_size: 520,
            tile_size: 520,
            ice_size: 32,
            seed: 2019,
            shard: None,
        }))
    }))
}

fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_watermark: 8,
        deadline: Duration::from_millis(5_000),
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
    let conn = if keep_alive { "keep-alive" } else { "close" };
    let _ = write!(
        stream,
        "GET {target} HTTP/1.1\r\nhost: t\r\nconnection: {conn}\r\n\r\n"
    );
    let _ = stream.flush();
    read_response(reader).expect("response")
}

#[test]
fn large_tile_streams_chunked_and_matches_the_one_shot_encoder() {
    let server = start(test_config(), big_tile_state()).expect("start");
    let (mut s, mut r) = connect(server.addr);

    let resp = send(&mut s, &mut r, "/tiles/0/0/0", true);
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("transfer-encoding"),
        Some("chunked"),
        "large tiles stream"
    );
    assert_eq!(resp.header("content-length"), None);
    assert!(
        resp.body.len() > 1024 * 1024,
        "past the old 1 MiB cap: {} bytes",
        resp.body.len()
    );

    // Byte identity with the one-shot encoder: decoding and re-encoding
    // must reproduce the wire bytes exactly (the codec is deterministic,
    // so this holds iff the chunked stream concatenates to `encode`).
    let tile: ee_raster::Raster<f32> = ee_raster::codec::decode(&resp.body).expect("decodes");
    assert_eq!(tile.shape(), (520, 520));
    assert_eq!(
        ee_raster::codec::encode(&tile),
        resp.body,
        "chunk concatenation is byte-identical to codec::encode"
    );

    // The body is over the cache's per-entry cap (256 KiB default): the
    // stream bypassed the cache, so a repeat is another MISS and the
    // bypass is counted.
    assert_eq!(resp.header("x-cache"), Some("MISS"));
    let again = send(&mut s, &mut r, "/tiles/0/0/0", true);
    assert_eq!(again.header("x-cache"), Some("MISS"), "oversized → uncached");
    assert_eq!(again.body, resp.body);

    let m = send(&mut s, &mut r, "/metrics", false);
    let text = String::from_utf8(m.body).unwrap();
    assert!(
        text.contains("ee_serve_stream_uncacheable_total 2"),
        "{text}"
    );
    assert!(text.contains("ee_serve_bytes_sent_total"), "{text}");
    assert!(text.contains("ee_serve_ttfb_us"), "{text}");
    server.shutdown();
}

#[test]
fn small_streamed_responses_are_teed_into_the_cache() {
    // Raise the per-entry cap above the tile size: the same stream now
    // tees into the cache and replays as a full-body HIT.
    let mut config = test_config();
    config.cache_max_body_bytes = 2 * 1024 * 1024;
    let server = start(config, big_tile_state()).expect("start");
    let (mut s, mut r) = connect(server.addr);

    let miss = send(&mut s, &mut r, "/tiles/1/0/0", true);
    assert_eq!(miss.status, 200);
    assert_eq!(miss.header("x-cache"), Some("MISS"));
    assert_eq!(miss.header("transfer-encoding"), Some("chunked"));

    let hit = send(&mut s, &mut r, "/tiles/1/0/0", true);
    assert_eq!(hit.header("x-cache"), Some("HIT"));
    // Replays are full bodies (the tee stored the assembled bytes).
    assert_eq!(hit.header("transfer-encoding"), None);
    assert!(hit.header("content-length").is_some());
    assert_eq!(hit.body, miss.body, "teed replay is byte-identical");

    // Conditional revalidation still works against the teed entry.
    let etag = miss.header("etag").expect("etag").to_string();
    let conn = "keep-alive";
    let _ = write!(
        s,
        "GET /tiles/1/0/0 HTTP/1.1\r\nhost: t\r\nconnection: {conn}\r\nif-none-match: {etag}\r\n\r\n"
    );
    let _ = s.flush();
    let revalidated = read_response(&mut r).expect("response");
    assert_eq!(revalidated.status, 304);
    assert!(revalidated.body.is_empty());
    server.shutdown();
}

#[test]
fn query_streams_solution_json() {
    let server = start(test_config(), big_tile_state()).expect("start");
    let (mut s, mut r) = connect(server.addr);

    let resp = send(&mut s, &mut r, "/query?x0=0&y0=0&side=100&limit=50", true);
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("transfer-encoding"),
        Some("chunked"),
        "query bodies stream batch by batch"
    );
    let text = String::from_utf8(resp.body).unwrap();
    let v = ee_util::json::parse(&text).expect("valid JSON from chunks");
    let rows = v.get("rows").and_then(ee_util::json::Json::as_arr).unwrap();
    let count = v.get("count").and_then(ee_util::json::Json::as_f64).unwrap();
    assert!(!rows.is_empty());
    assert!(
        count >= rows.len() as f64,
        "count spans all rows, rows are capped by limit"
    );
    server.shutdown();
}

/// A state with enough point features that a full non-aggregate SELECT
/// streams through many chunked batches (several hundred KB of JSON),
/// so slow-drain and mid-stream-disconnect behaviour is observable.
fn many_rows_state() -> Arc<AppState> {
    static STATE: OnceLock<Arc<AppState>> = OnceLock::new();
    Arc::clone(STATE.get_or_init(|| {
        Arc::new(AppState::build(DataConfig {
            points: 8_000,
            products: 50,
            scene_size: 64,
            tile_size: 32,
            ice_size: 16,
            seed: 7,
            shard: None,
        }))
    }))
}

/// `/query` target streaming every feature's geometry binding.
fn all_features_target() -> String {
    let sparql = "PREFIX e: <http://e/> SELECT ?s ?g WHERE { ?s e:hasGeometry ?g }";
    format!("/query?limit=10000&sparql={}", sparql.replace(' ', "%20"))
}

#[test]
fn slow_reader_draining_bytes_at_a_time_gets_identical_rows() {
    let mut config = test_config();
    config.deadline = Duration::from_secs(30);
    let server = start(config, many_rows_state()).expect("start");

    // Fast baseline client.
    let (mut s, mut r) = connect(server.addr);
    let fast = send(&mut s, &mut r, &all_features_target(), false);
    assert_eq!(fast.status, 200);
    assert_eq!(fast.header("transfer-encoding"), Some("chunked"));

    // Slow client: tiny reads straight off the socket with periodic
    // stalls, so the server's chunk writes back up against the send
    // buffer and the pull-based executor pauses between batches.
    let mut slow_sock = TcpStream::connect(server.addr).expect("connect");
    slow_sock
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        slow_sock,
        "GET {} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
        all_features_target()
    )
    .unwrap();
    slow_sock.flush().unwrap();
    let mut raw = Vec::new();
    let mut buf = [0u8; 31];
    loop {
        match slow_sock.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&buf[..n]);
                if raw.len() % 8192 < 31 {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            Err(e) => panic!("slow read failed after {} bytes: {e}", raw.len()),
        }
    }
    let slow = read_response(&mut raw.as_slice()).expect("parse accumulated response");
    assert_eq!(slow.status, 200);
    assert_eq!(slow.body, fast.body, "slow drain is byte-identical");

    let text = String::from_utf8(slow.body).unwrap();
    let v = ee_util::json::parse(&text).expect("valid JSON");
    let rows = v.get("rows").and_then(ee_util::json::Json::as_arr).unwrap();
    assert_eq!(rows.len(), 8_000, "every feature row arrived");
    server.shutdown();
}

/// Streamed `/query` accounting: the body's head leaves in the same
/// chunk as the first row batch, TTFB is taken at that chunk, and the
/// request's latency is recorded once, when the stream is over — so it
/// spans the whole ≥10k-row transfer and exceeds the TTFB.
#[test]
fn streamed_query_latency_spans_the_stream_and_ttfb_its_first_rows() {
    let server = start(test_config(), many_rows_state()).expect("start");
    let sparql = "SELECT ?s ?o WHERE { ?s ?p ?o }";
    let target = format!("/query?limit=100000&sparql={}", sparql.replace(' ', "%20"));
    let mut s = TcpStream::connect(server.addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write!(s, "GET {target} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").unwrap();
    s.flush().unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read until close");

    // The chunked body's first frame: `{size:x}\r\n{data}\r\n`.
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("head") + 4;
    let body = &raw[head_end..];
    let line_end = body.windows(2).position(|w| w == b"\r\n").expect("size line");
    let size = usize::from_str_radix(std::str::from_utf8(&body[..line_end]).unwrap(), 16)
        .expect("hex chunk size");
    let first = String::from_utf8_lossy(&body[line_end + 2..line_end + 2 + size]);
    assert!(
        first.starts_with("{\"vars\":") && first.contains("\"rows\":[["),
        "the first chunk carries the head and rows: {}",
        &first[..first.len().min(120)]
    );
    let resp = read_response(&mut raw.as_slice()).expect("complete chunked response");
    let v = ee_util::json::parse(std::str::from_utf8(&resp.body).unwrap()).expect("valid JSON");
    let count = v.get("count").and_then(ee_util::json::Json::as_f64).unwrap();
    assert!(count >= 10_000.0, "a large streamed answer: {count} rows");

    let latency = server.metrics().route_latency(Route::Query);
    let ttfb = server.metrics().route_ttfb(Route::Query);
    assert_eq!((latency.count(), ttfb.count()), (1, 1), "one sample each");
    assert!(
        latency.sum_us() > ttfb.sum_us(),
        "latency {} µs must span the stream past its first chunk ({} µs)",
        latency.sum_us(),
        ttfb.sum_us()
    );
    server.shutdown();
}

#[test]
fn client_disconnect_mid_stream_leaves_server_healthy() {
    let server = start(test_config(), many_rows_state()).expect("start");

    // Start a large streamed query, read only the first few hundred
    // bytes, then vanish. The server's next chunk write fails instead of
    // wedging the worker.
    let mut s = TcpStream::connect(server.addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(
        s,
        "GET {} HTTP/1.1\r\nhost: t\r\nconnection: keep-alive\r\n\r\n",
        all_features_target()
    )
    .unwrap();
    s.flush().unwrap();
    let mut partial = [0u8; 512];
    let mut seen = 0usize;
    while seen < partial.len() {
        match s.read(&mut partial[seen..]) {
            Ok(0) => break,
            Ok(n) => seen += n,
            Err(_) => break,
        }
    }
    assert!(
        partial[..seen].starts_with(b"HTTP/1.1 200"),
        "stream started before the disconnect"
    );
    drop(s);

    // The server stays healthy: a fresh keep-alive connection is served
    // repeatedly, including another full streamed query.
    let (mut s2, mut r2) = connect(server.addr);
    for i in 0..3 {
        let ok = send(&mut s2, &mut r2, "/healthz", true);
        assert_eq!(ok.status, 200, "healthz {i} after disconnect");
    }
    let full = send(&mut s2, &mut r2, &all_features_target(), false);
    assert_eq!(full.status, 200);
    let text = String::from_utf8(full.body).unwrap();
    let v = ee_util::json::parse(&text).expect("valid JSON");
    let rows = v.get("rows").and_then(ee_util::json::Json::as_arr).unwrap();
    assert_eq!(rows.len(), 8_000);
    server.shutdown();
}

#[test]
fn deadline_expiring_mid_stream_aborts_the_chunked_body() {
    let mut config = test_config();
    config.deadline = Duration::from_millis(400);
    let server = start(config, big_tile_state()).expect("start");
    let (mut s, mut r) = connect(server.addr);

    // 30 chunks × 100 ms ≫ the 400 ms deadline: the stream starts (200,
    // chunked) but is cut between chunks, so the chunked body never
    // terminates and the client read fails instead of hanging forever.
    let _ = write!(
        s,
        "GET /debug/stream?chunks=30&bytes=64&ms=100 HTTP/1.1\r\nhost: t\r\nconnection: keep-alive\r\n\r\n"
    );
    let _ = s.flush();
    assert!(
        read_response(&mut r).is_err(),
        "mid-stream abort truncates the response"
    );
    assert_eq!(
        server
            .metrics()
            .deadline_expired
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "the abort is accounted as a deadline expiry"
    );

    // The worker is free again: a fresh connection is served normally.
    let (mut s2, mut r2) = connect(server.addr);
    let ok = send(&mut s2, &mut r2, "/healthz", false);
    assert_eq!(ok.status, 200);
    server.shutdown();
}
