//! End-to-end tests of the event-driven serve tier over real localhost
//! sockets: idle-connection reaping, slow-loris partial heads, refused
//! request framings, per-route quotas, the max-connections cap,
//! mid-stream client disconnects under the event loop, cache hits and
//! `/healthz` answered on the shard past a saturated worker pool, a deferred read
//! that leaves its shard free, panics contained to their own request —
//! plus wire responses checked against the router's own answers and an
//! open-loop fleet smoke.

use ee_serve::http::{read_response, ClientResponse, RequestParser};
use ee_serve::loadgen::{self, Arrivals, ConnMode, LoadPlan};
use ee_serve::metrics::Route;
use ee_serve::router::{cache_key, dispatch, Outcome};
use ee_serve::{start, AppState, DataConfig, ServerConfig, ServerHandle};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn state() -> Arc<AppState> {
    static STATE: OnceLock<Arc<AppState>> = OnceLock::new();
    Arc::clone(STATE.get_or_init(|| Arc::new(AppState::build(DataConfig::tiny()))))
}

fn event_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        event_shards: 2,
        queue_watermark: 16,
        deadline: Duration::from_millis(2_000),
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
) -> ClientResponse {
    send_with(stream, reader, target, keep_alive, "")
}

/// [`send`] with extra raw header lines (each ending `\r\n`).
fn send_with(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    target: &str,
    keep_alive: bool,
    extra: &str,
) -> ClientResponse {
    let conn = if keep_alive { "keep-alive" } else { "close" };
    let _ = write!(
        stream,
        "GET {target} HTTP/1.1\r\nhost: t\r\nconnection: {conn}\r\n{extra}\r\n"
    );
    let _ = stream.flush();
    read_response(reader).expect("response")
}

/// Poll `cond` every few milliseconds for up to 5 s.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(5), "timed out: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn idle_keep_alive_connections_are_reaped() {
    let mut config = event_config();
    config.idle_timeout = Duration::from_millis(300);
    let server = start(config, state()).expect("start");
    let (mut s, mut r) = connect(server.addr);
    let resp = send(&mut s, &mut r, "/healthz", true);
    assert_eq!(resp.status, 200);
    assert!(resp.keep_alive);

    // Park the connection past the idle timeout: the server closes it.
    let mut probe = [0u8; 16];
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let n = s.read(&mut probe).expect("clean EOF, not a reset");
    assert_eq!(n, 0, "reaped idle connection ends in EOF");
    assert!(
        server
            .metrics()
            .idle_reaped
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    // The server stays fully serviceable afterwards.
    let (mut s2, mut r2) = connect(server.addr);
    assert_eq!(send(&mut s2, &mut r2, "/healthz", false).status, 200);
    server.shutdown();
}

#[test]
fn slow_loris_partial_heads_get_408_and_close() {
    let mut config = event_config();
    config.deadline = Duration::from_millis(300);
    let server = start(config, state()).expect("start");
    let (mut s, mut r) = connect(server.addr);
    // A request head that never finishes.
    s.write_all(b"GET /healthz HTTP/1.1\r\nhost: lor").unwrap();
    s.flush().unwrap();
    let t0 = Instant::now();
    let resp = read_response(&mut r).expect("408 response");
    assert_eq!(resp.status, 408);
    assert!(!resp.keep_alive);
    assert!(
        t0.elapsed() >= Duration::from_millis(250),
        "408 only after the read deadline, not immediately"
    );
    // The connection is closed after the 408.
    let mut probe = [0u8; 16];
    assert_eq!(s.read(&mut probe).unwrap_or(0), 0);
    server.shutdown();
}

#[test]
fn chunked_request_bodies_get_one_400_and_close() {
    let server = start(event_config(), state()).expect("start");
    let (mut s, mut r) = connect(server.addr);
    // Were Transfer-Encoding ignored, this would dispatch with an empty
    // body and parse the chunk bytes as a second, pipelined request.
    s.write_all(
        b"POST /query HTTP/1.1\r\nhost: t\r\ntransfer-encoding: chunked\r\n\r\n\
          22\r\nGET /healthz HTTP/1.1\r\nhost: t\r\n\r\n\r\n0\r\n\r\n",
    )
    .unwrap();
    s.flush().unwrap();
    let resp = read_response(&mut r).expect("400 response");
    assert_eq!(resp.status, 400);
    assert!(!resp.keep_alive);
    let mut rest = Vec::new();
    r.read_to_end(&mut rest).expect("clean EOF");
    assert!(rest.is_empty(), "no second response: {rest:?}");
    server.shutdown();
}

#[test]
fn pipelining_past_the_depth_cap_is_shed_with_503() {
    let mut config = event_config();
    config.max_pipeline_depth = 3;
    let server = start(config, state()).expect("start");
    let (mut s, mut r) = connect(server.addr);

    // Ten requests in one burst: the server answers while further
    // request bytes sit buffered, so each dispatch deepens the pipeline.
    let burst = "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n".repeat(10);
    s.write_all(burst.as_bytes()).unwrap();
    s.flush().unwrap();

    // Depth 1..=3 are served, the fourth dispatch exceeds the cap.
    for i in 0..3 {
        let resp = read_response(&mut r).expect("pipelined response");
        assert_eq!(resp.status, 200, "response {i} within the cap");
    }
    let shed = read_response(&mut r).expect("shed response");
    assert_eq!(shed.status, 503);
    assert!(!shed.keep_alive);
    let mut probe = [0u8; 16];
    assert_eq!(s.read(&mut probe).unwrap_or(0), 0, "connection closed");
    assert_eq!(
        server
            .metrics()
            .pipeline_capped
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );

    // A well-behaved client on a fresh connection still gets more than
    // `max_pipeline_depth` requests served sequentially.
    let (mut s2, mut r2) = connect(server.addr);
    for _ in 0..6 {
        assert_eq!(send(&mut s2, &mut r2, "/healthz", true).status, 200);
    }
    server.shutdown();
}

#[test]
fn mid_stream_client_disconnect_leaves_event_server_healthy() {
    let server = start(event_config(), state()).expect("start");
    {
        let (mut s, _r) = connect(server.addr);
        // A long stream the client abandons after a few bytes.
        let _ = write!(
            s,
            "GET /debug/stream?chunks=200&bytes=4096&ms=10 HTTP/1.1\r\nhost: t\r\n\r\n"
        );
        let _ = s.flush();
        let mut first = [0u8; 512];
        let _ = s.read(&mut first).expect("stream starts");
        // Drop both halves: the event loop must notice and free the slot.
    }
    // The fleet gauge returns to zero and new requests are served.
    let t0 = Instant::now();
    loop {
        let open = server
            .metrics()
            .open_connections
            .load(std::sync::atomic::Ordering::Relaxed);
        if open == 0 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "disconnected stream still counted open after 5s (gauge {open})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let (mut s, mut r) = connect(server.addr);
    assert_eq!(send(&mut s, &mut r, "/healthz", false).status, 200);
    server.shutdown();
}

#[test]
fn per_route_quota_sheds_requests_but_keeps_connections() {
    let mut config = event_config();
    config.route_quota = 1;
    let server = start(config, state()).expect("start");

    // Hold the single /debug in-flight slot.
    let (mut s1, mut r1) = connect(server.addr);
    let _ = write!(
        s1,
        "GET /debug/sleep?ms=800 HTTP/1.1\r\nhost: t\r\nconnection: keep-alive\r\n\r\n"
    );
    let _ = s1.flush();
    std::thread::sleep(Duration::from_millis(150));

    // Second /debug request: shed with 503 + retry-after, but the
    // connection survives and other routes still answer on it.
    let (mut s2, mut r2) = connect(server.addr);
    let shed = send(&mut s2, &mut r2, "/debug/sleep?ms=1", true);
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert!(
        std::str::from_utf8(&shed.body).unwrap().contains("quota"),
        "shed names the quota, not the admission queue"
    );
    let after = send(&mut s2, &mut r2, "/healthz", true);
    assert_eq!(after.status, 200, "same connection serves other routes");

    assert_eq!(read_response(&mut r1).expect("held request").status, 200);
    assert!(server.metrics().route_shed(Route::Debug) >= 1);
    // Once the slot frees, the route serves again.
    let again = send(&mut s2, &mut r2, "/debug/sleep?ms=1", false);
    assert_eq!(again.status, 200);
    server.shutdown();
}

#[test]
fn a_closing_request_is_answered_once_then_eof() {
    let server = start(event_config(), state()).expect("start");
    // Warm one cacheable target so the first closing request is a hit.
    let (mut s, mut r) = connect(server.addr);
    let warm = send(&mut s, &mut r, "/tiles/0/0/0", true);
    assert_eq!(warm.header("x-cache"), Some("MISS"));
    // A cache hit, a sized miss and a streamed miss, each sent with
    // `connection: close` and a second request pipelined behind it in
    // the same write.
    for (target, kind) in [
        ("/tiles/0/0/0", "HIT"),
        ("/healthz", ""),
        ("/query?x=3&y=4", "MISS"),
    ] {
        let (mut s, mut r) = connect(server.addr);
        let raw = format!(
            "GET {target} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n\
             GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n"
        );
        s.write_all(raw.as_bytes()).unwrap();
        s.flush().unwrap();
        let resp = read_response(&mut r).expect("first response");
        assert_eq!(resp.status, 200, "{target}");
        assert!(!resp.keep_alive, "{target}: connection: close echoed");
        if !kind.is_empty() {
            assert_eq!(resp.header("x-cache"), Some(kind), "{target}");
        }
        if kind == "MISS" {
            assert_eq!(resp.header("transfer-encoding"), Some("chunked"));
        }
        let mut rest = Vec::new();
        r.read_to_end(&mut rest).expect("clean EOF");
        assert!(
            rest.is_empty(),
            "{target}: no second response: {:?}",
            String::from_utf8_lossy(&rest)
        );
    }
    server.shutdown();
}

#[test]
fn max_connections_cap_sheds_at_accept() {
    let mut config = event_config();
    config.max_connections = 2;
    let server = start(config, state()).expect("start");
    let (mut s1, mut r1) = connect(server.addr);
    let (mut s2, mut r2) = connect(server.addr);
    // Confirm both are registered (responses mean the acceptor counted
    // them) before probing the cap.
    assert_eq!(send(&mut s1, &mut r1, "/healthz", true).status, 200);
    assert_eq!(send(&mut s2, &mut r2, "/healthz", true).status, 200);

    let (_s3, mut r3) = connect(server.addr);
    let resp = read_response(&mut r3).expect("503 at accept");
    assert_eq!(resp.status, 503);
    assert!(std::str::from_utf8(&resp.body)
        .unwrap()
        .contains("connection limit"));

    // Freeing a slot re-admits newcomers.
    drop((s1, r1));
    std::thread::sleep(Duration::from_millis(200));
    let (mut s4, mut r4) = connect(server.addr);
    assert_eq!(send(&mut s4, &mut r4, "/healthz", false).status, 200);
    server.shutdown();
}

/// What the server should send for `target` on a cache miss: the
/// router's own response on the same state, marked `x-cache: MISS` when
/// the route is cacheable, written to the wire and read back.
fn oracle(target: &str) -> ClientResponse {
    let state = state();
    let mut parser = RequestParser::new();
    parser.feed(format!("GET {target} HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes());
    let req = parser.poll_request().unwrap().expect("complete request");
    let deadline = Instant::now() + Duration::from_secs(10);
    let Outcome::Ready(mut resp) = dispatch(&state, &req, deadline, true) else {
        panic!("{target}: oracle missed its deadline");
    };
    if cache_key(&req, state.head_commit(), state.search_generation()).is_some() {
        resp.headers.push(("x-cache".into(), "MISS".into()));
    }
    let mut wire = Vec::new();
    resp.write_to(&mut wire, true).unwrap();
    read_response(&mut wire.as_slice()).expect("oracle response")
}

#[test]
fn event_server_answers_match_the_dispatch_oracle() {
    // /healthz is excluded: its body embeds a live uptime value.
    let targets = [
        "/query?x=12&y=34",
        "/catalogue/search?mode=classic&minx=11&miny=11&maxx=13&maxy=13",
        "/catalogue/search?mode=ranked&q=radar&k=3",
        "/tiles/0/0/0",
        "/tiles/1/1/1",
        "/ice/fram-strait",
        // Streamed chunked bodies, including a deterministic debug one.
        "/debug/stream?chunks=9&bytes=1000&ms=0",
    ];
    let server = start(event_config(), state()).expect("start");
    let (mut s, mut r) = connect(server.addr);
    let mut hits = 0;
    let mut not_modified = 0;
    for target in targets {
        let want = oracle(target);
        let miss = send(&mut s, &mut r, target, true);
        assert_eq!(miss.status, want.status, "{target}: status");
        assert_eq!(miss.headers, want.headers, "{target}: headers");
        assert_eq!(miss.body, want.body, "{target}: body bytes");

        // The repeat replays the cache entry on the shard: the miss's
        // headers with the marker flipped, and sized framing in place of
        // chunked. An uncacheable route answers the same miss again.
        let cached = miss.header("x-cache") == Some("MISS");
        let want_repeat: Vec<(String, String)> = miss
            .headers
            .iter()
            .map(|(n, v)| match n.as_str() {
                "x-cache" => (n.clone(), "HIT".to_string()),
                "transfer-encoding" if cached => {
                    ("content-length".to_string(), miss.body.len().to_string())
                }
                _ => (n.clone(), v.clone()),
            })
            .collect();
        let repeat = send(&mut s, &mut r, target, true);
        assert_eq!(repeat.status, miss.status, "{target}: repeat status");
        assert_eq!(repeat.headers, want_repeat, "{target}: repeat headers");
        assert_eq!(repeat.body, miss.body, "{target}: repeat body");
        hits += usize::from(cached);

        // Revalidating the ETag elides the body.
        if let Some(etag) = miss.header("etag") {
            let inm = format!("if-none-match: {etag}\r\n");
            let revalidated = send_with(&mut s, &mut r, target, true, &inm);
            assert_eq!(revalidated.status, 304, "{target}: revalidated");
            assert!(revalidated.body.is_empty(), "{target}: 304 has no body");
            assert_eq!(
                revalidated.header("x-cache"),
                miss.header("x-cache").map(|_| "HIT")
            );
            hits += usize::from(cached);
            not_modified += 1;
        }
    }
    assert!(hits >= 10, "repeats replayed from the cache ({hits})");
    assert!(not_modified >= 4, "revalidations elided ({not_modified})");
    server.shutdown();
}

#[test]
fn cache_hits_skip_a_saturated_worker_pool() {
    let mut config = event_config();
    config.workers = 1;
    config.queue_watermark = 1;
    let server = start(config, state()).expect("start");
    let metrics = server.metrics();
    let (mut s, mut r) = connect(server.addr);
    let warm = send(&mut s, &mut r, "/tiles/0/0/0", true);
    assert_eq!(warm.header("x-cache"), Some("MISS"));
    let etag = warm.header("etag").expect("tile etag").to_string();

    // A 1.5 s request on a connection of its own, response unread.
    let sleep = || {
        let (mut s, r) = connect(server.addr);
        s.write_all(b"GET /debug/sleep?ms=1500 HTTP/1.1\r\nhost: t\r\n\r\n")
            .unwrap();
        (s, r)
    };

    // Pin the only worker: wait until the sleep has been queued and
    // taken off the queue again.
    metrics.queue_peak.store(0, Ordering::SeqCst);
    let _pinned = sleep();
    wait_until("worker takes the sleep", || {
        metrics.queue_peak.load(Ordering::SeqCst) == 1
            && metrics.queue_depth.load(Ordering::SeqCst) == 0
    });

    let t0 = Instant::now();
    let hit = send(&mut s, &mut r, "/tiles/0/0/0", true);
    assert_eq!(hit.status, 200);
    assert_eq!(hit.header("x-cache"), Some("HIT"));
    assert_eq!(hit.body, warm.body);
    let inm = format!("if-none-match: {etag}\r\n");
    let revalidated = send_with(&mut s, &mut r, "/tiles/0/0/0", true, &inm);
    assert_eq!(revalidated.status, 304);
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "hits waited on the busy worker: {:?}",
        t0.elapsed()
    );

    // Fill the queue to its watermark: a hit is still served, while a
    // request bound for the workers (a tile miss) is shed.
    let _queued = sleep();
    wait_until("second sleep queued", || {
        metrics.queue_depth.load(Ordering::SeqCst) == 1
    });
    let hit = send(&mut s, &mut r, "/tiles/0/0/0", true);
    assert_eq!(hit.status, 200);
    assert_eq!(hit.header("x-cache"), Some("HIT"));
    let (mut s2, mut r2) = connect(server.addr);
    let shed = send(&mut s2, &mut r2, "/tiles/1/0/0", false);
    assert_eq!(shed.status, 503);
    assert!(std::str::from_utf8(&shed.body)
        .unwrap()
        .contains("admission queue"));
    server.shutdown();
}

/// `/healthz` is answered on the event loop from the head record, so it
/// stays fast while every worker is held.
#[test]
fn healthz_answers_while_every_worker_is_held() {
    let server = start(event_config(), state()).expect("start");
    let metrics = server.metrics();
    let hold = || {
        let (mut s, r) = connect(server.addr);
        s.write_all(b"GET /debug/sleep?ms=1500 HTTP/1.1\r\nhost: t\r\n\r\n")
            .unwrap();
        (s, r)
    };
    // Each sleep is queued and then taken off the queue by a worker.
    let mut held = Vec::new();
    for worker in 0..event_config().workers {
        metrics.queue_peak.store(0, Ordering::SeqCst);
        held.push(hold());
        wait_until(&format!("worker {worker} takes a sleep"), || {
            metrics.queue_peak.load(Ordering::SeqCst) == 1
                && metrics.queue_depth.load(Ordering::SeqCst) == 0
        });
    }
    let (mut s, mut r) = connect(server.addr);
    for i in 0..3 {
        let t0 = Instant::now();
        let health = send(&mut s, &mut r, "/healthz", true);
        let took = t0.elapsed();
        assert_eq!(health.status, 200, "healthz {i}");
        assert!(took < Duration::from_millis(100), "healthz {i} waited {took:?}");
        assert!(std::str::from_utf8(&health.body).unwrap().contains("\"ok\":true"));
    }
    // The sleeps are still running: nothing above went through a worker.
    assert_eq!(metrics.queue_depth.load(Ordering::SeqCst), 0);
    drop(held);
    server.shutdown();
}

#[test]
fn each_request_counts_one_cache_lookup() {
    let server = start(event_config(), state()).expect("start");
    let (mut s, mut r) = connect(server.addr);
    for i in 0..5 {
        let resp = send(&mut s, &mut r, "/tiles/1/0/0", true);
        assert_eq!(resp.status, 200);
        let want = if i == 0 { "MISS" } else { "HIT" };
        assert_eq!(resp.header("x-cache"), Some(want), "request {i}");
    }
    assert_eq!(server.cache().hits(), 4);
    assert_eq!(server.cache().misses(), 1);
    assert_eq!(
        server.metrics().route_latency(Route::Tiles).count(),
        5,
        "hits answered on the shard still record latency"
    );
    let text = String::from_utf8(send(&mut s, &mut r, "/metrics", false).body).unwrap();
    for line in [
        "ee_serve_cache_hits_total 4",
        "ee_serve_cache_misses_total 1",
        "ee_serve_cache_hit_rate 0.8",
        "ee_serve_latency_us_count{route=\"tiles\"} 5",
    ] {
        assert!(text.lines().any(|l| l == line), "{line} missing:\n{text}");
    }
    server.shutdown();
}

#[test]
fn open_loop_fleet_holds_idle_connections_through_the_event_server() {
    let mut config = event_config();
    config.max_connections = 4_096;
    config.idle_timeout = Duration::from_secs(30);
    let server = start(config, state()).expect("start");
    let plan = LoadPlan {
        conns: 64,
        mode: ConnMode::KeepAlive,
        arrivals: Arrivals::Open {
            rate_per_sec: 200.0,
            window: Duration::from_millis(600),
        },
    };
    let targets = vec!["/healthz".to_string(), "/query?x=12&y=34".to_string()];
    let report = loadgen::run(server.addr, &targets, &plan);
    assert_eq!(report.conns_open, 64, "whole fleet connects");
    assert_eq!(report.reopened, 0, "nothing reaped under the timeout");
    assert!(report.ok >= 60, "open loop completes requests: {report:?}");
    assert_eq!(report.errors, 0, "no transport errors: {report:?}");
    assert!(report.p99_us > 0);
    let peak = server
        .metrics()
        .open_peak
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(peak >= 64, "gauge saw the fleet (peak {peak})");
    server.shutdown();
}

/// `target` with its SPARQL percent-encoded.
fn sparql_target(sparql: &str) -> String {
    let enc: String = sparql
        .bytes()
        .map(|b| match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' => (b as char).to_string(),
            _ => format!("%{b:02X}"),
        })
        .collect();
    format!("/query?sparql={enc}")
}

/// One event-loop shard: while a read the inline gate defers (a
/// cross-product COUNT) runs on the worker, a cache hit on another
/// connection is answered first. Forcing every `/query` inline makes the
/// shard run the cross product itself, and the hit waits behind it.
#[test]
fn a_deferred_read_leaves_its_shard_free_for_hits() {
    let mut config = event_config();
    config.event_shards = 1;
    config.workers = 1;
    config.deadline = Duration::from_secs(120);
    config.idle_timeout = Duration::from_secs(120);
    let server = start(config, state()).expect("start");
    let metrics = server.metrics();
    let (mut h, mut hr) = connect(server.addr);
    assert_eq!(
        send(&mut h, &mut hr, "/tiles/0/0/0", true).header("x-cache"),
        Some("MISS")
    );

    let kind = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Feature>";
    let cross = format!("SELECT (COUNT(?a) AS ?n) WHERE {{ ?a {kind} . ?b {kind} }}");
    let (mut q, mut qr) = connect(server.addr);
    write!(
        q,
        "GET {} HTTP/1.1\r\nhost: t\r\n\r\n",
        sparql_target(&cross)
    )
    .unwrap();
    // Sent to the pool at once; run inline, counted only once it is
    // done, hence the long wait.
    let t0 = Instant::now();
    let dispatched = || {
        let inline = metrics.query_inline.load(Ordering::SeqCst);
        inline + metrics.query_deferred.load(Ordering::SeqCst) == 1
    };
    while !dispatched() {
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "the cross product never ran"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let hit = send(&mut h, &mut hr, "/tiles/0/0/0", true);
    assert_eq!(hit.header("x-cache"), Some("HIT"));
    q.set_nonblocking(true).unwrap();
    let pending = q.peek(&mut [0u8; 1]);
    assert!(
        matches!(&pending, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
        "the cross product was answered before the hit: {pending:?}"
    );
    q.set_nonblocking(false).unwrap();
    let counted = read_response(&mut qr).expect("the cross product's answer");
    assert_eq!(counted.status, 200);
    let points = DataConfig::tiny().points;
    let body = String::from_utf8(counted.body).unwrap();
    let rows = format!("\"rows\":[[\"{}\"]]", points * points);
    assert!(
        body.contains(&rows) && body.ends_with("\"count\":1}"),
        "{body}"
    );
    assert_eq!(metrics.query_inline.load(Ordering::SeqCst), 0);
    server.shutdown();
}

/// N+1 requests that panic in their handler on an N-worker server each
/// get a 500, and the server keeps answering.
#[test]
fn panicking_handlers_answer_500_and_keep_every_worker() {
    let config = event_config();
    let workers = config.workers;
    let server = start(config, state()).expect("start");
    for i in 0..=workers {
        let (mut s, mut r) = connect(server.addr);
        let resp = send(&mut s, &mut r, "/debug/panic", true);
        assert_eq!(resp.status, 500, "panic {i}");
        assert!(
            resp.keep_alive,
            "the framing is intact, so the connection stays"
        );
    }
    let (mut s, mut r) = connect(server.addr);
    assert_eq!(send(&mut s, &mut r, "/healthz", true).status, 200);
    let n = (workers + 1) as u64;
    assert_eq!(server.metrics().panics.load(Ordering::SeqCst), n);
    let text = String::from_utf8(send(&mut s, &mut r, "/metrics", false).body).unwrap();
    assert!(
        text.lines()
            .any(|l| l == format!("ee_serve_panics_total {n}")),
        "{text}"
    );
    server.shutdown();
}

/// A panic after the head went out ends that body truncated (no chunk
/// terminator), closes its connection and still records the request's
/// latency; other connections are served.
#[test]
fn a_panic_mid_stream_truncates_its_body_and_spares_other_connections() {
    let server = start(event_config(), state()).expect("start");
    let debug_latency = || server.metrics().route_latency(Route::Debug).count();
    let recorded = debug_latency();
    let (mut s, _) = connect(server.addr);
    s.write_all(b"GET /debug/panic?after=2 HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let mut wire = Vec::new();
    s.read_to_end(&mut wire)
        .expect("the server closes the connection");
    assert!(
        wire.starts_with(b"HTTP/1.1 200 OK\r\n"),
        "{:?}",
        String::from_utf8_lossy(&wire[..64.min(wire.len())])
    );
    assert!(
        wire.len() > 2 * 64 * 1024,
        "both chunks went out: {} bytes",
        wire.len()
    );
    assert!(
        !wire.ends_with(b"0\r\n\r\n"),
        "a truncated body has no terminator"
    );
    assert_eq!(
        debug_latency(),
        recorded + 1,
        "the truncated request's latency"
    );
    let (mut s, mut r) = connect(server.addr);
    assert_eq!(send(&mut s, &mut r, "/healthz", true).status, 200);
    let window = send(&mut s, &mut r, "/query?x0=10&y0=10&side=10", true);
    assert_eq!(window.status, 200);
    assert_eq!(server.metrics().panics.load(Ordering::SeqCst), 1);
    server.shutdown();
}

/// Latency and TTFB samples recorded on `route` so far.
fn samples(server: &ServerHandle, route: Route) -> (u64, u64) {
    let m = server.metrics();
    (m.route_latency(route).count(), m.route_ttfb(route).count())
}

/// Every answer path takes one latency sample and one TTFB sample for
/// its request: a hit, an inline read, a worker's sized and streamed
/// responses, a panic before the head and one mid-stream.
#[test]
fn every_answer_path_records_one_latency_and_one_ttfb() {
    let server = start(event_config(), state()).expect("start");
    let metrics = server.metrics();
    let (mut s, mut r) = connect(server.addr);
    let mut one = |route: Route, target: &str, want: (u16, Option<&str>)| {
        let before = samples(&server, route);
        let resp = send(&mut s, &mut r, target, true);
        assert_eq!((resp.status, resp.header("x-cache")), want, "{target}");
        assert_eq!(samples(&server, route), (before.0 + 1, before.1 + 1), "{target}");
        resp
    };
    let search = "/catalogue/search?minx=1&miny=1&maxx=9&maxy=9";
    one(Route::Catalogue, search, (200, Some("MISS")));
    one(Route::Catalogue, search, (200, Some("HIT")));
    let window = "/query?x0=10&y0=10&side=10";
    let inline = metrics.query_inline.load(Ordering::SeqCst);
    let read = one(Route::Query, window, (200, Some("MISS")));
    assert_eq!(metrics.query_inline.load(Ordering::SeqCst), inline + 1);
    let commit = read.header("x-commit").expect("head reads name their commit");
    let as_of = one(Route::Query, &format!("{window}&asOf={commit}"), (200, Some("MISS")));
    assert_eq!(as_of.header("transfer-encoding"), Some("chunked"));
    assert_eq!(metrics.query_deferred.load(Ordering::SeqCst), 1);
    one(Route::Debug, "/debug/panic", (500, None));

    let before = samples(&server, Route::Debug);
    let (mut p, _) = connect(server.addr);
    p.write_all(b"GET /debug/panic?after=2 HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    p.read_to_end(&mut Vec::new())
        .expect("the server closes the connection");
    assert_eq!(samples(&server, Route::Debug), (before.0 + 1, before.1 + 1));
    server.shutdown();
}

/// A request whose deadline passes while it waits for the lone worker
/// is answered 504 with one sample of each, and its latency counts the
/// wait.
#[test]
fn a_504_before_handling_records_its_queue_wait() {
    let mut config = event_config();
    config.workers = 1;
    config.deadline = Duration::from_millis(300);
    let server = start(config, state()).expect("start");
    let metrics = server.metrics();
    // One 600 ms chunk holds the worker past its own deadline.
    metrics.queue_peak.store(0, Ordering::SeqCst);
    let (mut h, _hr) = connect(server.addr);
    h.write_all(b"GET /debug/stream?chunks=1&bytes=64&ms=600 HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    wait_until("worker takes the stream", || {
        metrics.queue_peak.load(Ordering::SeqCst) == 1
            && metrics.queue_depth.load(Ordering::SeqCst) == 0
    });
    let (mut s, mut r) = connect(server.addr);
    let late = send(&mut s, &mut r, "/tiles/1/0/0", true);
    assert_eq!(late.status, 504);
    assert!(std::str::from_utf8(&late.body).unwrap().contains("before handling"));
    assert_eq!(samples(&server, Route::Tiles), (1, 1));
    let waited = metrics.route_latency(Route::Tiles).sum_us();
    assert!(waited >= 250_000, "the 504's latency spans its wait: {waited} µs");
    server.shutdown();
}

/// A tile miss queued behind a 300 ms sleep on the lone worker: its
/// latency runs from dispatch, so the time it waited for the worker is
/// in it.
#[test]
fn a_queued_miss_records_its_wait_for_a_worker() {
    let mut config = event_config();
    config.workers = 1;
    let server = start(config, state()).expect("start");
    let metrics = server.metrics();
    metrics.queue_peak.store(0, Ordering::SeqCst);
    let (mut h, mut hr) = connect(server.addr);
    h.write_all(b"GET /debug/sleep?ms=300 HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    wait_until("worker takes the sleep", || {
        metrics.queue_peak.load(Ordering::SeqCst) == 1
            && metrics.queue_depth.load(Ordering::SeqCst) == 0
    });
    let (mut s, mut r) = connect(server.addr);
    let miss = send(&mut s, &mut r, "/tiles/1/0/0", true);
    assert_eq!((miss.status, miss.header("x-cache")), (200, Some("MISS")));
    assert_eq!(read_response(&mut hr).expect("the sleep's answer").status, 200);
    assert_eq!(samples(&server, Route::Tiles), (1, 1));
    let waited = metrics.route_latency(Route::Tiles).sum_us();
    assert!(waited >= 250_000, "the queued miss waited for the sleep: {waited} µs");
    server.shutdown();
}

/// A client that leaves mid-exchange still leaves one latency sample
/// and at most one TTFB sample: gone while a worker holds its job, and
/// gone while its stream waits for the socket to drain.
#[test]
fn a_client_gone_mid_exchange_leaves_one_sample() {
    let server = start(event_config(), state()).expect("start");
    let metrics = server.metrics();
    let debug = || samples(&server, Route::Debug);
    let settled = |before: (u64, u64), what: &str| {
        wait_until(what, || debug().0 > before.0);
        std::thread::sleep(Duration::from_millis(400));
        let (latency, ttfb) = debug();
        assert_eq!(latency, before.0 + 1, "{what}: one latency sample");
        assert!(ttfb <= before.1 + 1, "{what}: at most one TTFB sample");
        ttfb - before.1
    };

    let before = debug();
    metrics.queue_peak.store(0, Ordering::SeqCst);
    let (mut s, _) = connect(server.addr);
    s.write_all(b"GET /debug/sleep?ms=200 HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    wait_until("a worker takes the sleep", || {
        metrics.queue_peak.load(Ordering::SeqCst) == 1
            && metrics.queue_depth.load(Ordering::SeqCst) == 0
    });
    drop(s);
    settled(before, "gone while the worker sleeps");

    // 64 MiB, pulled only as the socket drains: the client reads the
    // head, then stops reading and leaves.
    let before = debug();
    let (mut s, _) = connect(server.addr);
    s.write_all(b"GET /debug/stream?chunks=1024&bytes=65536 HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let mut head = [0u8; 12];
    s.read_exact(&mut head).unwrap();
    assert_eq!(&head, b"HTTP/1.1 200");
    std::thread::sleep(Duration::from_millis(100));
    drop(s);
    let ttfb = settled(before, "gone while the stream waits");
    assert_eq!(ttfb, 1, "the head was queued, so its TTFB was taken");
    server.shutdown();
}

/// Refusals are no exchanges: a 400, a 413, a 408 and the 503 sheds
/// (pipelining cap, route quota, queue watermark) take no sample.
#[test]
fn refusals_record_no_samples() {
    let mut config = event_config();
    config.workers = 1;
    config.event_shards = 1;
    config.queue_watermark = 1;
    config.route_quota = 2;
    config.max_pipeline_depth = 0;
    config.deadline = Duration::from_millis(300);
    let server = start(config, state()).expect("start");
    let metrics = server.metrics();
    let totals = || {
        let routes = ee_serve::metrics::ROUTES;
        let latency: u64 = routes.iter().map(|&r| samples(&server, r).0).sum();
        let ttfb: u64 = routes.iter().map(|&r| samples(&server, r).1).sum();
        (latency, ttfb)
    };
    // Two /debug requests hold the lone worker (one 2.5 s chunk) and
    // the one queue place: the route is at its quota, the queue at its
    // watermark.
    let hold = || {
        let (mut s, r) = connect(server.addr);
        s.write_all(b"GET /debug/stream?chunks=1&bytes=64&ms=2500 HTTP/1.1\r\nhost: t\r\n\r\n")
            .unwrap();
        (s, r)
    };
    metrics.queue_peak.store(0, Ordering::SeqCst);
    let _held = hold();
    wait_until("worker takes the first hold", || {
        metrics.queue_peak.load(Ordering::SeqCst) == 1
            && metrics.queue_depth.load(Ordering::SeqCst) == 0
    });
    let _queued = hold();
    wait_until("second hold queued", || {
        metrics.queue_depth.load(Ordering::SeqCst) == 1
    });
    let before = totals();

    let raw = |bytes: &[u8]| {
        let (mut s, mut r) = connect(server.addr);
        s.write_all(bytes).unwrap();
        read_response(&mut r).expect("a refusal").status
    };
    assert_eq!(raw(b"NONSENSE\r\n\r\n"), 400);
    assert_eq!(
        raw(b"POST /query HTTP/1.1\r\nhost: t\r\ncontent-length: 999999999\r\n\r\n"),
        413
    );
    assert_eq!(raw(b"GET /healthz HTTP/1.1\r\n"), 408);
    assert_eq!(
        raw(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\nGET /healthz HTTP/1.1\r\nhost: t\r\n\r\n"),
        503,
        "pipelined past a depth of 0"
    );
    assert_eq!(raw(b"GET /debug/sleep?ms=1 HTTP/1.1\r\nhost: t\r\n\r\n"), 503);
    assert_eq!(metrics.route_shed(Route::Debug), 1);
    assert_eq!(raw(b"GET /tiles/1/0/0 HTTP/1.1\r\nhost: t\r\n\r\n"), 503);
    assert_eq!(totals(), before, "refusals take no sample");
    server.shutdown();
}
