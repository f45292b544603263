//! End-to-end tests of the event-driven serve tier over real localhost
//! sockets: idle-connection reaping, slow-loris partial heads, refused
//! request framings, per-route quotas, the max-connections cap,
//! mid-stream client disconnects under the event loop, cache hits
//! answered on the shard past a saturated worker pool — plus wire
//! responses checked against the router's own answers and an open-loop
//! fleet smoke.

use ee_serve::http::{read_response, ClientResponse, RequestParser};
use ee_serve::loadgen::{self, Arrivals, ConnMode, LoadPlan};
use ee_serve::metrics::Route;
use ee_serve::router::{cache_key, dispatch, Outcome};
use ee_serve::{start, AppState, DataConfig, ServerConfig};
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
    config.route_quota_overrides = vec![(Route::Debug, 1)];
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
    // request bound for the workers is shed.
    let _queued = sleep();
    wait_until("second sleep queued", || {
        metrics.queue_depth.load(Ordering::SeqCst) == 1
    });
    let hit = send(&mut s, &mut r, "/tiles/0/0/0", true);
    assert_eq!(hit.status, 200);
    assert_eq!(hit.header("x-cache"), Some("HIT"));
    let (mut s2, mut r2) = connect(server.addr);
    let shed = send(&mut s2, &mut r2, "/healthz", false);
    assert_eq!(shed.status, 503);
    assert!(std::str::from_utf8(&shed.body)
        .unwrap()
        .contains("admission queue"));
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
