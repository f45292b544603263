//! End-to-end tests for the scale-out router tier over real sockets:
//! routed answers over N shards match one unsharded server, a dead shard
//! degrades the scatter to a partial result (flagged, not hung), a slow
//! shard is beaten by a hedged duplicate request, and a shard restart
//! behind the router's keep-alive pool is absorbed by the
//! stale-connection retry.

use ee_federation::ScatterConfig;
use ee_serve::http::read_response;
use ee_serve::{start, AppState, DataConfig, RouterTier, ServerConfig};
use ee_util::json::Json;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn shard_config(index: usize, count: usize) -> DataConfig {
    DataConfig {
        shard: Some((index, count)),
        ..unsharded_config()
    }
}

/// The whole dataset every shard fleet splits.
fn unsharded_config() -> DataConfig {
    DataConfig {
        points: 600,
        products: 50,
        scene_size: 64,
        tile_size: 32,
        ice_size: 16,
        seed: 2019,
        shard: None,
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        deadline: Duration::from_secs(10),
        ..ServerConfig::default()
    }
}

/// Start a router process-in-miniature over `backends`, returning the
/// state too so tests can read the tier counters directly.
fn start_router(
    backends: &[SocketAddr],
    scatter: ScatterConfig,
) -> (ee_serve::ServerHandle, Arc<AppState>) {
    let mut state = AppState::build(DataConfig {
        points: 50,
        products: 20,
        scene_size: 64,
        tile_size: 32,
        ice_size: 16,
        seed: 2019,
        shard: None,
    });
    state.router = Some(RouterTier::new(backends, scatter));
    let state = Arc::new(state);
    let mut config = server_config();
    config.cache_capacity_per_shard = 0; // routers serve uncached
    let handle = start(config, Arc::clone(&state)).expect("start router");
    (handle, state)
}

fn get(addr: SocketAddr, target: &str) -> ee_serve::http::ClientResponse {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut r = BufReader::new(s.try_clone().expect("clone"));
    write!(
        s,
        "GET {target} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"
    )
    .unwrap();
    s.flush().unwrap();
    read_response(&mut r).expect("response")
}

fn rows_target() -> String {
    let sparql = "PREFIX e: <http://e/> SELECT ?s ?g WHERE { ?s e:hasGeometry ?g }";
    format!("/query?limit=10000&sparql={}", sparql.replace(' ', "%20"))
}

fn count_target() -> String {
    let sparql = "PREFIX e: <http://e/> SELECT (COUNT(?s) AS ?n) WHERE { ?s e:hasGeometry ?g }";
    format!("/query?sparql={}", sparql.replace(' ', "%20"))
}

/// A `/query` body as (rows, each re-emitted as JSON text; `count`).
fn rows_and_count(resp: &ee_serve::http::ClientResponse) -> (Vec<String>, u64) {
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let v = ee_util::json::parse(std::str::from_utf8(&resp.body).unwrap()).expect("valid JSON");
    let rows = v.get("rows").and_then(Json::as_arr).expect("rows array");
    let count = v.get("count").and_then(Json::as_u64).expect("count");
    (rows.iter().map(Json::emit).collect(), count)
}

/// The integer a one-row COUNT body carries.
fn count_value(resp: &ee_serve::http::ClientResponse) -> u64 {
    let (rows, _) = rows_and_count(resp);
    assert_eq!(rows.len(), 1, "COUNT answers one row: {rows:?}");
    let row = ee_util::json::parse(&rows[0]).expect("row JSON");
    row.as_arr().expect("row array")[0]
        .as_str()
        .expect("lexical form")
        .parse()
        .expect("integer count")
}

/// An address nothing listens on: bind an ephemeral port, then drop the
/// listener so connects are refused immediately.
fn dead_addr() -> SocketAddr {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind");
    l.local_addr().expect("addr")
}

/// Routed answers over n ∈ {1, 2, 3} in-process shards against one
/// unsharded server built from the same seed: the COUNT body is
/// byte-identical, the row multiset and its count are equal, a capped
/// read (`?limit=k` or a SPARQL `LIMIT k`) returns k reference rows with
/// the reference's count, and the per-shard COUNTs are strict slices
/// that sum to the reference COUNT.
#[test]
fn sharded_answers_match_the_unsharded_reference() {
    let reference = start(server_config(), Arc::new(AppState::build(unsharded_config())))
        .expect("start reference");
    let ref_count = get(reference.addr, &count_target());
    let total = count_value(&ref_count);
    assert_eq!(total, 600);
    let (mut ref_rows, ref_n) = rows_and_count(&get(reference.addr, &rows_target()));
    ref_rows.sort_unstable();
    let k = 7;
    let rows_sparql = "PREFIX e: <http://e/> SELECT ?s ?g WHERE { ?s e:hasGeometry ?g }";
    let capped = [
        format!("/query?limit={k}&sparql={}", rows_sparql.replace(' ', "%20")),
        format!("/query?sparql={}", format!("{rows_sparql} LIMIT {k}").replace(' ', "%20")),
    ];
    let ref_capped: Vec<u64> = capped
        .iter()
        .map(|t| rows_and_count(&get(reference.addr, t)).1)
        .collect();
    reference.shutdown();

    for n in 1..=3 {
        let shards: Vec<_> = (0..n)
            .map(|i| {
                start(server_config(), Arc::new(AppState::build(shard_config(i, n))))
                    .expect("start shard")
            })
            .collect();
        let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr).collect();
        let (router, _state) = start_router(&addrs, ScatterConfig::default());

        let routed = get(router.addr, &count_target());
        assert_eq!(routed.status, 200);
        assert_eq!(
            routed.body,
            ref_count.body,
            "n={n}: routed COUNT {} vs reference {}",
            String::from_utf8_lossy(&routed.body),
            String::from_utf8_lossy(&ref_count.body)
        );

        let (mut rows, count) = rows_and_count(&get(router.addr, &rows_target()));
        rows.sort_unstable();
        assert_eq!(count, ref_n, "n={n}: row count");
        assert!(rows == ref_rows, "n={n}: routed row multiset differs from the reference");

        for (target, want_count) in capped.iter().zip(&ref_capped) {
            let (rows, count) = rows_and_count(&get(router.addr, target));
            assert_eq!(rows.len(), k, "n={n}: {target}");
            assert_eq!(count, *want_count, "n={n}: {target}");
            for row in &rows {
                assert!(ref_rows.binary_search(row).is_ok(), "n={n}: {row} not a reference row");
            }
        }

        let per_shard: Vec<u64> = addrs
            .iter()
            .map(|&a| count_value(&get(a, &count_target())))
            .collect();
        assert_eq!(per_shard.iter().sum::<u64>(), total, "n={n}: {per_shard:?}");
        if n > 1 {
            assert!(
                per_shard.iter().all(|&c| c > 0 && c < total),
                "n={n}: every shard holds a strict, non-empty slice: {per_shard:?}"
            );
        }

        router.shutdown();
        for shard in shards {
            shard.shutdown();
        }
    }
}

#[test]
fn dead_shard_yields_flagged_partial_result() {
    let shard0 = start(server_config(), Arc::new(AppState::build(shard_config(0, 2))))
        .expect("start shard 0");
    let (router, state) = start_router(&[shard0.addr, dead_addr()], ScatterConfig::default());

    let resp = get(router.addr, &rows_target());
    assert_eq!(resp.status, 200, "one live shard still answers");
    assert_eq!(resp.header("x-ee-incomplete"), Some("1"));
    assert_eq!(resp.header("x-ee-shards"), Some("2"));
    let text = String::from_utf8(resp.body).unwrap();
    assert!(text.contains("\"incomplete\":true"), "{text}");
    let v = ee_util::json::parse(&text).expect("valid JSON");
    let rows = v.get("rows").and_then(ee_util::json::Json::as_arr).unwrap();
    assert!(
        !rows.is_empty() && rows.len() < 600,
        "a strict slice of the dataset: {} rows",
        rows.len()
    );

    let tier = state.router.as_ref().unwrap();
    assert_eq!(tier.partial_total(), 1);
    let metrics = String::from_utf8(get(router.addr, "/metrics").body).unwrap();
    assert!(metrics.contains("ee_route_partial_total 1"), "{metrics}");
    assert!(metrics.contains("ee_route_shard_latency_us"), "{metrics}");

    router.shutdown();
    shard0.shutdown();
}

#[test]
fn hedged_request_beats_a_slow_shard() {
    // Shard 0 sleeps 2 s on every second query execution: the warm-up
    // leaves its counter at 1, so the measured query's primary request
    // (2nd execution) is slow and the hedged duplicate (3rd) is fast.
    let mut slow_state = AppState::build(shard_config(0, 2));
    slow_state.slow_every = 2;
    slow_state.slow_ms = 2_000;
    let shard0 = start(server_config(), Arc::new(slow_state)).expect("start shard 0");
    let shard1 = start(server_config(), Arc::new(AppState::build(shard_config(1, 2))))
        .expect("start shard 1");
    let scatter = ScatterConfig {
        deadline: Duration::from_secs(8),
        hedge_after: Duration::from_millis(100),
    };
    let (router, state) = start_router(&[shard0.addr, shard1.addr], scatter);

    let count_target = format!(
        "/query?sparql={}",
        "PREFIX e: <http://e/> SELECT (COUNT(?s) AS ?n) WHERE { ?s e:hasGeometry ?g }"
            .replace(' ', "%20")
    );
    let warmup = get(router.addr, &count_target);
    assert_eq!(warmup.status, 200);

    let t0 = Instant::now();
    let resp = get(router.addr, &rows_target());
    let elapsed = t0.elapsed();
    assert_eq!(
        resp.status,
        200,
        "{}",
        String::from_utf8_lossy(&resp.body)
    );
    assert_eq!(resp.header("x-ee-incomplete"), None, "hedge kept it complete");
    let text = String::from_utf8(resp.body).unwrap();
    assert!(!text.contains("incomplete"), "{text}");
    let v = ee_util::json::parse(&text).expect("valid JSON");
    let rows = v.get("rows").and_then(ee_util::json::Json::as_arr).unwrap();
    assert_eq!(rows.len(), 600, "both shards contributed");

    let tier = state.router.as_ref().unwrap();
    assert!(tier.hedged_total() >= 1, "a hedge was launched");
    assert_eq!(tier.partial_total(), 0);
    assert!(
        elapsed < Duration::from_millis(1_500),
        "the hedge answered well before the 2 s sleep: {elapsed:?}"
    );

    router.shutdown();
    shard0.shutdown();
    shard1.shutdown();
}

#[test]
fn router_absorbs_a_shard_restart_via_stale_conn_retry() {
    let state0 = Arc::new(AppState::build(shard_config(0, 1)));
    let shard0 = start(server_config(), Arc::clone(&state0)).expect("start shard 0");
    let shard_addr = shard0.addr;
    let (router, state) = start_router(&[shard_addr], ScatterConfig::default());

    // First query completes and leaves a pooled keep-alive connection
    // from router to shard.
    let first = get(router.addr, &rows_target());
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-ee-incomplete"), None);

    // Restart the shard on the same address: the pooled connection is
    // now stale. Rebinding can race the old listener's teardown, so
    // retry briefly.
    shard0.shutdown();
    let mut config = server_config();
    config.addr = shard_addr.to_string();
    let shard0b = (0..50)
        .find_map(|_| {
            std::thread::sleep(Duration::from_millis(20));
            start(config.clone(), Arc::clone(&state0)).ok()
        })
        .expect("rebind shard address");

    let second = get(router.addr, &rows_target());
    assert_eq!(second.status, 200, "router healthy across the restart");
    assert_eq!(second.header("x-ee-incomplete"), None);
    assert_eq!(second.body, first.body, "restarted shard serves identical bytes");
    let tier = state.router.as_ref().unwrap();
    assert_eq!(tier.retried_total(), 1, "the stale pooled conn was retried");

    router.shutdown();
    shard0b.shutdown();
}

#[test]
fn routed_versioned_reads_are_refused() {
    // Commit ids are per-shard, so neither spelling of a versioned read
    // has a fleet-wide meaning: the router answers 400 before any scatter.
    let shard0 = start(
        server_config(),
        Arc::new(AppState::build(shard_config(0, 1))),
    )
    .expect("start shard 0");
    let (router, _state) = start_router(&[shard0.addr], ScatterConfig::default());
    let sparql = "SELECT ?o WHERE { <http://e/f1> <http://e/hasGeometry> ?o }";
    let target = |s: &str| format!("/query?sparql={}", s.replace(' ', "%20"));
    assert_eq!(
        get(router.addr, &target(sparql)).status,
        200,
        "plain reads route"
    );
    let root = format!("{:016x}", ee_rdf::storage::ROOT_COMMIT_ID);
    let clause = format!("{sparql} AS OF <{root}>");
    let resp = get(router.addr, &target(&clause));
    assert_eq!(resp.status, 400, "AS OF clause");
    assert!(String::from_utf8(resp.body).unwrap().contains("AS OF"));
    let resp = get(router.addr, &format!("{}&asOf={root}", target(sparql)));
    assert_eq!(resp.status, 400, "?asOf= parameter");
    router.shutdown();
    shard0.shutdown();
}
