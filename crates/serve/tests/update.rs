//! End-to-end write-path tests over real localhost sockets: `POST
//! /update` authorisation and error handling, write-then-read
//! visibility, commit-stamped response-cache invalidation (an entry
//! cached under commit C never serves after C′, including the
//! refresh-after-write race), a no-op commit leaving the cache warm,
//! ranked-catalogue cache freshness after a `searchText` write, pinned
//! immutable reads (`?asOf=` queries, tiles) surviving commits, and the
//! always-live `/healthz` + `/metrics` bypass.

use ee_serve::http::read_response;
use ee_serve::{start, AppState, DataConfig, ServerConfig};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A writable state per test server: the write path mutates the store,
/// so unlike the read-only suites nothing is shared across tests.
fn writable_state() -> Arc<AppState> {
    let mut s = AppState::build(DataConfig::tiny());
    s.writable = true;
    Arc::new(s)
}

fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_watermark: 8,
        deadline: Duration::from_millis(5_000),
        idle_timeout: Duration::from_millis(2_000),
        ..ServerConfig::default()
    }
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let r = s.try_clone().expect("clone");
    (s, BufReader::new(r))
}

fn get(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    target: &str,
) -> ee_serve::http::ClientResponse {
    let _ = write!(
        stream,
        "GET {target} HTTP/1.1\r\nhost: t\r\nconnection: keep-alive\r\n\r\n"
    );
    let _ = stream.flush();
    read_response(reader).expect("response")
}

fn post_update(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    body: &str,
) -> ee_serve::http::ClientResponse {
    let _ = write!(
        stream,
        "POST /update HTTP/1.1\r\nhost: t\r\nconnection: keep-alive\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
    read_response(reader).expect("response")
}

fn json_of(resp: &ee_serve::http::ClientResponse) -> ee_util::json::Json {
    ee_util::json::parse(std::str::from_utf8(&resp.body).unwrap()).expect("json body")
}

#[test]
fn update_is_403_without_writable_and_400_on_bad_syntax() {
    // Default state: read-only.
    let server = start(test_config(), Arc::new(AppState::build(DataConfig::tiny())))
        .expect("start");
    let (mut s, mut r) = connect(server.addr);
    let resp = post_update(
        &mut s,
        &mut r,
        "INSERT DATA { <http://e/a> <http://e/p> <http://e/o> }",
    );
    assert_eq!(resp.status, 403);
    server.shutdown();

    // Writable state: parse errors are 400, valid text commits.
    let server = start(test_config(), writable_state()).expect("start");
    let (mut s, mut r) = connect(server.addr);
    assert_eq!(post_update(&mut s, &mut r, "CLEAR GRAPH <g>").status, 400);
    let ok = post_update(
        &mut s,
        &mut r,
        "INSERT DATA { <http://e/a> <http://e/p> <http://e/o> }",
    );
    assert_eq!(ok.status, 200);
    let v = json_of(&ok);
    assert_eq!(v.get("generation").and_then(ee_util::json::Json::as_f64), Some(1.0));
    assert_eq!(v.get("inserted").and_then(ee_util::json::Json::as_f64), Some(1.0));
    server.shutdown();
}

#[test]
fn committed_writes_invalidate_cached_queries() {
    let server = start(test_config(), writable_state()).expect("start");
    let (mut s, mut r) = connect(server.addr);

    // Count triples about a marker subject: 0 before the write.
    let q = "/query?sparql=SELECT%20?o%20WHERE%20{%20<http://e/marker>%20<http://e/p>%20?o%20}";
    let miss = get(&mut s, &mut r, q);
    assert_eq!(miss.status, 200);
    assert_eq!(miss.header("x-cache"), Some("MISS"));
    let count = |resp: &ee_serve::http::ClientResponse| {
        json_of(resp)
            .get("count")
            .and_then(ee_util::json::Json::as_f64)
            .unwrap()
    };
    assert_eq!(count(&miss), 0.0);
    let hit = get(&mut s, &mut r, q);
    assert_eq!(hit.header("x-cache"), Some("HIT"));

    // Commit a write touching the queried subject.
    let upd = post_update(
        &mut s,
        &mut r,
        "INSERT DATA { <http://e/marker> <http://e/p> <http://e/one> }",
    );
    assert_eq!(upd.status, 200);

    // The very next read misses the cache (generation-stamped key) and
    // sees the new triple — an entry stored under generation G never
    // serves after G+1.
    let after = get(&mut s, &mut r, q);
    assert_eq!(after.header("x-cache"), Some("MISS"), "stale entry must not serve");
    assert_eq!(count(&after), 1.0);
    // And the fresh result caches again under the new generation.
    let again = get(&mut s, &mut r, q);
    assert_eq!(again.header("x-cache"), Some("HIT"));
    assert_eq!(count(&again), 1.0);

    // ETags rolled with the generation, so revalidation with the stale
    // tag refetches instead of 304ing.
    let stale_tag = miss.header("etag").expect("query etag").to_string();
    let fresh_tag = after.header("etag").expect("query etag");
    assert_ne!(stale_tag, fresh_tag);
    server.shutdown();
}

/// `ee_serve_invalidated_total{kind="responses"}` from a `/metrics` scrape.
fn invalidated_responses(s: &mut TcpStream, r: &mut BufReader<TcpStream>) -> u64 {
    let text = String::from_utf8(get(s, r, "/metrics").body).unwrap();
    text.lines()
        .find_map(|l| l.strip_prefix("ee_serve_invalidated_total{kind=\"responses\"} "))
        .and_then(|v| v.trim().parse().ok())
        .expect("ee_serve_invalidated_total{kind=\"responses\"}")
}

#[test]
fn noop_update_keeps_the_response_cache_warm() {
    let server = start(test_config(), writable_state()).expect("start");
    let (mut s, mut r) = connect(server.addr);
    let q = "/query?x0=10&y0=10&side=20";
    assert_eq!(get(&mut s, &mut r, q).header("x-cache"), Some("MISS"));
    assert_eq!(get(&mut s, &mut r, q).header("x-cache"), Some("HIT"));
    let swept = invalidated_responses(&mut s, &mut r);

    // The generated store already holds this triple: the commit is a
    // no-op, answered 200 at an unchanged generation.
    let upd = post_update(
        &mut s,
        &mut r,
        "INSERT DATA { <http://e/f0> \
         <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Feature> }",
    );
    assert_eq!(upd.status, 200);
    let v = json_of(&upd);
    assert_eq!(v.get("generation").and_then(ee_util::json::Json::as_f64), Some(0.0));
    assert_eq!(v.get("inserted").and_then(ee_util::json::Json::as_f64), Some(0.0));

    assert_eq!(get(&mut s, &mut r, q).header("x-cache"), Some("HIT"), "the cache stays warm");
    assert_eq!(invalidated_responses(&mut s, &mut r), swept, "nothing was swept");
    server.shutdown();
}

#[test]
fn tiles_stay_cached_and_revalidate_across_commits() {
    let server = start(test_config(), writable_state()).expect("start");
    let (mut s, mut r) = connect(server.addr);
    let tile = "/tiles/0/0/0";
    let miss = get(&mut s, &mut r, tile);
    assert_eq!((miss.status, miss.header("x-cache")), (200, Some("MISS")));
    assert_eq!(miss.header("x-commit"), None, "a tile names no commit");
    let tag = miss.header("etag").expect("tile etag").to_string();
    assert_eq!(get(&mut s, &mut r, tile).header("x-cache"), Some("HIT"));

    let upd = post_update(
        &mut s,
        &mut r,
        "INSERT DATA { <http://e/tile-commit> <http://e/p> <http://e/o> }",
    );
    assert_eq!(upd.status, 200);
    assert_eq!(json_of(&upd).get("generation").and_then(ee_util::json::Json::as_f64), Some(1.0));

    // The commit changed no tile: same entry, same validator.
    let after = get(&mut s, &mut r, tile);
    assert_eq!(after.header("x-cache"), Some("HIT"), "tiles survive the commit sweep");
    assert_eq!(after.header("etag"), Some(tag.as_str()), "the tile etag does not roll");
    assert_eq!(after.body, miss.body);
    let _ = write!(
        s,
        "GET {tile} HTTP/1.1\r\nhost: t\r\nconnection: keep-alive\r\nif-none-match: {tag}\r\n\r\n"
    );
    let _ = s.flush();
    let cond = read_response(&mut r).expect("response");
    assert_eq!(cond.status, 304, "the pre-commit etag still revalidates");
    assert!(cond.body.is_empty());
    server.shutdown();
}

#[test]
fn refresh_after_write_race_never_resurrects_stale_entries() {
    // The race: a cacheable read starts under generation G, a commit
    // moves the store to G+1 while the response is in flight, and the
    // read's tee inserts its (stale) entry afterwards. The entry lands
    // under the G-stamped key, so post-commit lookups (G+1 keys) can
    // never return it. Interleave reads and writes on one keep-alive
    // connection and assert every read reflects all prior commits.
    let server = start(test_config(), writable_state()).expect("start");
    let (mut s, mut r) = connect(server.addr);
    let q = "/query?sparql=SELECT%20?o%20WHERE%20{%20<http://e/race>%20<http://e/p>%20?o%20}";
    for round in 1..=4u32 {
        let upd = post_update(
            &mut s,
            &mut r,
            &format!("INSERT DATA {{ <http://e/race> <http://e/p> <http://e/o{round}> }}"),
        );
        assert_eq!(upd.status, 200);
        let read = get(&mut s, &mut r, q);
        assert_eq!(read.status, 200);
        assert_eq!(
            read.header("x-cache"),
            Some("MISS"),
            "round {round}: the commit must have rolled the cache key"
        );
        let n = json_of(&read)
            .get("count")
            .and_then(ee_util::json::Json::as_f64)
            .unwrap();
        assert_eq!(n, f64::from(round), "round {round}: reads see all commits");
        // The re-cached entry serves until the next write.
        assert_eq!(get(&mut s, &mut r, q).header("x-cache"), Some("HIT"));
    }
    server.shutdown();
}

#[test]
fn committed_search_text_is_ranked_searchable_over_the_socket() {
    let server = start(test_config(), writable_state()).expect("start");
    let (mut s, mut r) = connect(server.addr);
    let q = "/catalogue/search?mode=ranked&q=cryoconite&k=5";

    // Nothing matches the marker term before the write.
    let before = get(&mut s, &mut r, q);
    assert_eq!(before.status, 200);
    let count_of = |resp: &ee_serve::http::ClientResponse| {
        json_of(resp)
            .get("count")
            .and_then(ee_util::json::Json::as_f64)
            .unwrap()
    };
    let indexed_of = |resp: &ee_serve::http::ClientResponse| {
        json_of(resp)
            .get("indexed")
            .and_then(ee_util::json::Json::as_f64)
            .unwrap()
    };
    assert_eq!(count_of(&before), 0.0);
    let baseline_indexed = indexed_of(&before);

    // Commit an eo:searchText annotation; the BM25 index must track the
    // write inside the same commit, so the very next ranked search on
    // the same connection sees it.
    let upd = post_update(
        &mut s,
        &mut r,
        "INSERT DATA { <http://e/doc1> \
         <http://extremeearth.eu/ont/eo#searchText> \
         \"glacier cryoconite melt survey\" }",
    );
    assert_eq!(upd.status, 200);

    let after = get(&mut s, &mut r, q);
    assert_eq!(after.status, 200);
    assert_eq!(count_of(&after), 1.0, "live document ranks for its term");
    assert_eq!(indexed_of(&after), baseline_indexed + 1.0);
    let hit = json_of(&after)
        .get("results")
        .and_then(ee_util::json::Json::as_arr)
        .and_then(<[ee_util::json::Json]>::first)
        .and_then(|h| h.get("document"))
        .cloned()
        .expect("live hit carries a document object");
    assert_eq!(
        hit.get("subject").and_then(ee_util::json::Json::as_str),
        Some("http://e/doc1")
    );

    // Deleting the annotation removes it from the ranked index too.
    let del = post_update(
        &mut s,
        &mut r,
        "DELETE DATA { <http://e/doc1> \
         <http://extremeearth.eu/ont/eo#searchText> \
         \"glacier cryoconite melt survey\" }",
    );
    assert_eq!(del.status, 200);
    let gone = get(&mut s, &mut r, q);
    assert_eq!(count_of(&gone), 0.0, "deleted document stops ranking");
    assert_eq!(indexed_of(&gone), baseline_indexed);

    // Seed catalogue products still rank: the live docs ride alongside.
    let seed = get(&mut s, &mut r, "/catalogue/search?mode=ranked&q=radar&k=3");
    assert_eq!(seed.status, 200);
    assert!(count_of(&seed) >= 1.0);
    server.shutdown();
}

#[test]
fn ranked_catalogue_never_serves_stale_hits_after_a_write() {
    // The regression: catalogue responses used to sit on TTL freshness
    // only, so a committed `eo:searchText` write could keep serving the
    // pre-commit ranking out of the response cache until expiry. Keys
    // now carry the BM25 index generation, so the very next ranked
    // search after the write must miss the cache and see the new doc.
    let server = start(test_config(), writable_state()).expect("start");
    let (mut s, mut r) = connect(server.addr);
    let q = "/catalogue/search?mode=ranked&q=firnline&k=5";
    let count_of = |resp: &ee_serve::http::ClientResponse| {
        json_of(resp)
            .get("count")
            .and_then(ee_util::json::Json::as_f64)
            .unwrap()
    };

    // Prime the cache with the empty ranking and prove it serves hits.
    let before = get(&mut s, &mut r, q);
    assert_eq!(before.status, 200);
    assert_eq!(before.header("x-cache"), Some("MISS"));
    assert_eq!(count_of(&before), 0.0);
    assert_eq!(get(&mut s, &mut r, q).header("x-cache"), Some("HIT"));

    let upd = post_update(
        &mut s,
        &mut r,
        "INSERT DATA { <http://e/doc2> \
         <http://extremeearth.eu/ont/eo#searchText> \
         \"firnline retreat mapping\" }",
    );
    assert_eq!(upd.status, 200);

    // The cached empty ranking must be unreachable now.
    let after = get(&mut s, &mut r, q);
    assert_eq!(
        after.header("x-cache"),
        Some("MISS"),
        "the searchText commit must roll the catalogue cache key"
    );
    assert_eq!(count_of(&after), 1.0, "fresh ranking sees the committed doc");
    // And the fresh ranking caches again under the new index generation.
    let again = get(&mut s, &mut r, q);
    assert_eq!(again.header("x-cache"), Some("HIT"));
    assert_eq!(count_of(&again), 1.0);
    server.shutdown();
}

/// Classic and semantic searches read catalogues built once at
/// start-up, so a `searchText` commit leaves their cached answers
/// reachable: they stay hits, while a ranked search misses.
#[test]
fn classic_and_semantic_searches_stay_cached_across_a_search_text_commit() {
    let server = start(test_config(), writable_state()).expect("start");
    let (mut s, mut r) = connect(server.addr);
    let aoi = "minx=1&miny=1&maxx=9&maxy=9";
    let targets = [
        format!("/catalogue/search?{aoi}"),
        format!("/catalogue/search?mode=semantic&{aoi}"),
        "/catalogue/search?mode=ranked&q=radar".to_string(),
    ];
    let mut bodies = Vec::new();
    for target in &targets {
        let miss = get(&mut s, &mut r, target);
        assert_eq!((miss.status, miss.header("x-cache")), (200, Some("MISS")), "{target}");
        bodies.push(miss.body);
    }
    let upd = post_update(
        &mut s,
        &mut r,
        "INSERT DATA { <http://e/doc4> \
         <http://extremeearth.eu/ont/eo#searchText> \
         \"radar moraine survey\" }",
    );
    assert_eq!(upd.status, 200);
    for (target, body) in targets[..2].iter().zip(&bodies) {
        let hit = get(&mut s, &mut r, target);
        assert_eq!(hit.header("x-cache"), Some("HIT"), "{target}");
        assert_eq!(&hit.body, body, "{target}");
    }
    let ranked = get(&mut s, &mut r, &targets[2]);
    assert_eq!(ranked.header("x-cache"), Some("MISS"), "the ranked key follows the reindex");
    server.shutdown();
}

#[test]
fn versioned_reads_survive_commits_and_revalidate_as_304() {
    let state = writable_state();
    let server = start(test_config(), Arc::clone(&state)).expect("start");
    let (mut s, mut r) = connect(server.addr);

    // Commit a marker triple and capture the resulting commit id.
    let upd = post_update(
        &mut s,
        &mut r,
        "INSERT DATA { <http://e/vm> <http://e/p> <http://e/v1> }",
    );
    assert_eq!(upd.status, 200);
    let h = get(&mut s, &mut r, "/healthz");
    let c1 = json_of(&h)
        .get("commit")
        .and_then(ee_util::json::Json::as_str)
        .expect("healthz reports the head commit id")
        .to_string();

    let q = "SELECT ?o WHERE { <http://e/vm> <http://e/p> ?o }".replace(' ', "%20");
    let pinned_target = format!("/query?sparql={q}&asOf={c1}");
    let head_target = format!("/query?sparql={q}");

    let miss = get(&mut s, &mut r, &pinned_target);
    assert_eq!(miss.status, 200);
    assert_eq!(miss.header("x-cache"), Some("MISS"));
    assert_eq!(miss.header("x-commit"), Some(c1.as_str()));
    let tag = miss.header("etag").expect("versioned etag").to_string();
    assert_eq!(get(&mut s, &mut r, &pinned_target).header("x-cache"), Some("HIT"));
    // Prime the head entry too, for contrast after the write.
    get(&mut s, &mut r, &head_target);
    assert_eq!(get(&mut s, &mut r, &head_target).header("x-cache"), Some("HIT"));

    // A new commit sweeps head entries but must leave the pinned
    // versioned entry alone: its commit id names immutable history.
    let upd = post_update(
        &mut s,
        &mut r,
        "INSERT DATA { <http://e/vm> <http://e/p> <http://e/v2> }",
    );
    assert_eq!(upd.status, 200);
    let pinned_after = get(&mut s, &mut r, &pinned_target);
    assert_eq!(
        pinned_after.header("x-cache"),
        Some("HIT"),
        "versioned entries are pinned across commits"
    );
    let n = json_of(&pinned_after)
        .get("count")
        .and_then(ee_util::json::Json::as_f64)
        .unwrap();
    assert_eq!(n, 1.0, "the pinned view still shows one value");
    assert_eq!(
        get(&mut s, &mut r, &head_target).header("x-cache"),
        Some("MISS"),
        "head entries are swept on commit"
    );

    // Scraping /metrics takes no store read guard, so back-to-back
    // scrapes agree on the counter.
    let scrape_reads = |s: &mut TcpStream, r: &mut BufReader<TcpStream>| {
        let text = String::from_utf8(get(s, r, "/metrics").body).unwrap();
        text.lines()
            .find_map(|l| l.strip_prefix("ee_serve_store_reads_total "))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .expect("ee_serve_store_reads_total")
    };
    let scraped = scrape_reads(&mut s, &mut r);
    assert_eq!(scrape_reads(&mut s, &mut r), scraped, "a scrape reads no store");

    // Conditional revalidation against the unchanged commit id: 304,
    // empty body, same tag — answered without touching the store.
    let reads = state.store_reads();
    let _ = write!(
        s,
        "GET {pinned_target} HTTP/1.1\r\nhost: t\r\nconnection: keep-alive\r\n\
         if-none-match: {tag}\r\n\r\n"
    );
    let _ = s.flush();
    let cond = read_response(&mut r).expect("response");
    assert_eq!(cond.status, 304);
    assert!(cond.body.is_empty(), "304 elides the body");
    assert_eq!(state.store_reads(), reads, "the 304 took no store read guard");
    server.shutdown();
}

#[test]
fn healthz_and_metrics_bypass_the_cache_and_track_the_generation() {
    let server = start(test_config(), writable_state()).expect("start");
    let (mut s, mut r) = connect(server.addr);

    let h0 = get(&mut s, &mut r, "/healthz");
    assert_eq!(h0.header("x-cache"), None, "healthz is never cached");
    let gen_of = |resp: &ee_serve::http::ClientResponse| {
        json_of(resp)
            .get("generation")
            .and_then(ee_util::json::Json::as_f64)
            .unwrap()
    };
    let points_of = |resp: &ee_serve::http::ClientResponse| {
        json_of(resp)
            .get("points")
            .and_then(ee_util::json::Json::as_f64)
            .unwrap()
    };
    assert_eq!(gen_of(&h0), 0.0);

    let upd = post_update(
        &mut s,
        &mut r,
        "INSERT DATA { <http://e/h> <http://e/p> <http://e/o> }",
    );
    assert_eq!(upd.status, 200);

    // Same requests immediately after the write: live values, no cache.
    let h1 = get(&mut s, &mut r, "/healthz");
    assert_eq!(h1.header("x-cache"), None);
    assert_eq!(gen_of(&h1), 1.0, "healthz reports the live generation");
    assert_eq!(points_of(&h1), points_of(&h0) + 1.0);

    let m = get(&mut s, &mut r, "/metrics");
    assert_eq!(m.header("x-cache"), None, "metrics is never cached");
    let text = String::from_utf8(m.body).unwrap();
    assert!(text.contains("ee_rdf_generation 1"), "live generation gauge");
    assert!(
        text.contains("ee_serve_update_commit_us_count{op=\"commit\"} 1"),
        "commit latency recorded"
    );
    assert!(text.contains("ee_serve_invalidated_total{kind=\"responses\"}"));
    assert!(
        text.contains("ee_serve_route_requests_total{route=\"update\"} 1"),
        "update has its own route metrics"
    );
    server.shutdown();
}
