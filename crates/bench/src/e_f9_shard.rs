//! E-f9 — one logical dataset served by N real shard processes behind
//! the scatter-gather router tier.
//!
//! Unlike every other serve experiment, nothing here runs in-process:
//! the harness launches actual `ee-serve` binaries — N shard processes
//! (`--shard-index I --shard-count N`) plus one `--router` process — on
//! localhost, exactly the deployment the README quickstart describes.
//! Three stages:
//!
//! 1. **Identity** — for each N in the sweep, the router's `/query`
//!    answers are checked against a single unsharded reference process:
//!    COUNT answers must be byte-identical, row answers must contain
//!    exactly the same solution set (the router emits rows in canonical
//!    sorted order; the reference is sorted the same way before
//!    comparison), and a `LIMIT n` query must return exactly
//!    min(n, total) rows — the canonical prefix of the reference
//!    answer. Per-shard COUNTs must sum to the full count with
//!    every shard holding a strict, non-empty slice (N > 1). Any
//!    violation panics, so the harness exits non-zero; the verdict is
//!    machine-checked into `BENCH_PR9.json` as `"sharded_identical"`.
//! 2. **Throughput sweep** — an open-loop fleet drives the router at
//!    each N with a mix of scatter (`/query`) and forward (`/tiles`)
//!    targets, reporting p50/p99 from the scheduled arrival tick.
//! 3. **Slow shard** — shard 0 is restarted with the fault injector
//!    armed (`EE_SERVE_SLOW_EVERY` / `EE_SERVE_SLOW_MS`): every 5th
//!    query execution sleeps well past the hedge trigger. The router's
//!    hedged duplicates keep the fleet's admitted p99 far below the
//!    per-shard deadline; the run asserts hedges fired and the p99
//!    bound held.
//!
//! [`report`] returns the tables plus the JSON the harness writes to
//! `BENCH_PR9.json`.

use crate::table::Table;
use crate::Scale;
use ee_serve::http::{read_response, ClientResponse};
use ee_serve::loadgen::{self, Arrivals, ConnMode, LoadPlan, LoadReport};
use ee_util::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// The router process's per-shard deadline (`ScatterConfig::default`),
/// the bound the slow-shard stage holds p99 under.
const SHARD_DEADLINE_MS: u64 = 1_500;

/// Locate the `ee-serve` binary next to the running harness (same
/// target directory), or via `EE_SERVE_BIN`.
pub fn find_serve_binary() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("EE_SERVE_BIN") {
        let p = PathBuf::from(p);
        return p.is_file().then_some(p);
    }
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?.to_path_buf();
    for _ in 0..3 {
        let candidate = dir.join("ee-serve");
        if candidate.is_file() {
            return Some(candidate);
        }
        dir = dir.parent()?.to_path_buf();
    }
    None
}

/// One supervised `ee-serve` child process; killed on drop. The stdout
/// pipe is kept open for the child's lifetime so a late write can never
/// hit a closed pipe.
struct ServeProc {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Launch `ee-serve` with `args`/`envs` on an ephemeral port and wait
/// for its `LISTENING <addr>` announcement.
fn spawn_serve(bin: &PathBuf, scale: Scale, args: &[String], envs: &[(&str, String)]) -> ServeProc {
    let mut cmd = Command::new(bin);
    cmd.args(args)
        .env("EE_SERVE_ADDR", "127.0.0.1:0")
        .env_remove("EE_SERVE_DATA_DIR")
        .env_remove("EE_SERVE_BACKENDS")
        .env_remove("EE_SERVE_WRITABLE")
        .env_remove("EE_SERVE_SLOW_EVERY")
        .env_remove("EE_SERVE_SLOW_MS")
        .env_remove("EE_SERVE_TINY")
        // Pin the worker pool so the hedging stage behaves the same on a
        // 1-core CI box as on a laptop: the fault injector's sleeps must
        // not serialise the whole shard.
        .env("EE_SERVE_WORKERS", "4")
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if scale == Scale::Quick {
        cmd.env("EE_SERVE_TINY", "1");
    }
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().unwrap_or_else(|e| panic!("spawn {bin:?}: {e}"));
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {
                if let Some(a) = line.trim_end().strip_prefix("LISTENING ") {
                    break a.parse().unwrap_or_else(|e| panic!("bad addr {a:?}: {e}"));
                }
            }
            _ => {
                let _ = child.kill();
                panic!("ee-serve exited before announcing its address");
            }
        }
    };
    ServeProc {
        child,
        addr,
        _stdout: reader,
    }
}

/// N shard processes plus the router over them.
fn spawn_fleet(
    bin: &PathBuf,
    scale: Scale,
    n: usize,
    slow_shard0: Option<(u64, u64)>,
) -> (Vec<ServeProc>, ServeProc) {
    let shards: Vec<ServeProc> = (0..n)
        .map(|i| {
            let mut envs: Vec<(&str, String)> = Vec::new();
            if i == 0 {
                if let Some((every, ms)) = slow_shard0 {
                    envs.push(("EE_SERVE_SLOW_EVERY", every.to_string()));
                    envs.push(("EE_SERVE_SLOW_MS", ms.to_string()));
                }
            }
            spawn_serve(
                bin,
                scale,
                &[
                    "--shard-index".into(),
                    i.to_string(),
                    "--shard-count".into(),
                    n.to_string(),
                ],
                &envs,
            )
        })
        .collect();
    let backends: Vec<String> = shards.iter().map(|s| s.addr.to_string()).collect();
    let router = spawn_serve(
        bin,
        scale,
        &["--router".into(), backends.join(",")],
        &[],
    );
    (shards, router)
}

/// One blocking GET against a process.
fn get(addr: SocketAddr, target: &str) -> ClientResponse {
    let mut s = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut r = BufReader::new(s.try_clone().expect("clone"));
    write!(
        s,
        "GET {target} HTTP/1.1\r\nhost: b\r\nconnection: close\r\n\r\n"
    )
    .unwrap();
    s.flush().unwrap();
    read_response(&mut r).expect("response")
}

fn count_target() -> String {
    let sparql =
        "PREFIX e: <http://e/> SELECT (COUNT(?s) AS ?n) WHERE { ?s e:hasGeometry ?g }";
    format!("/query?sparql={}", sparql.replace(' ', "%20"))
}

fn rows_target() -> String {
    let sparql = "PREFIX e: <http://e/> SELECT ?s ?g WHERE { ?s e:hasGeometry ?g }";
    format!("/query?limit=100000&sparql={}", sparql.replace(' ', "%20"))
}

/// How many rows the LIMIT-capped identity query asks for.
const LIMIT_N: usize = 5;

fn limit_target() -> String {
    let sparql = format!(
        "PREFIX e: <http://e/> SELECT ?s ?g WHERE {{ ?s e:hasGeometry ?g }} LIMIT {LIMIT_N}"
    );
    format!("/query?limit=100000&sparql={}", sparql.replace(' ', "%20"))
}

/// Parse a `/query` body into (rows-as-emitted-bytes, count).
fn parse_rows(body: &[u8]) -> (Vec<String>, u64) {
    let text = std::str::from_utf8(body).expect("UTF-8 query body");
    let v = ee_util::json::parse(text).expect("valid query JSON");
    let rows = v
        .get("rows")
        .and_then(Json::as_arr)
        .expect("rows array")
        .iter()
        .map(Json::emit)
        .collect();
    let count = v.get("count").and_then(Json::as_u64).expect("count");
    (rows, count)
}

/// The integer a single-row COUNT body carries.
fn parse_count(body: &[u8]) -> u64 {
    let (rows, _) = parse_rows(body);
    assert_eq!(rows.len(), 1, "COUNT returns one row: {rows:?}");
    let row = ee_util::json::parse(&rows[0]).expect("row JSON");
    row.as_arr().expect("row array")[0]
        .as_str()
        .expect("lexical")
        .parse()
        .expect("integer count")
}

/// The value of a plain `name value` counter in Prometheus text.
fn scrape_counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("{name} not found in /metrics"))
}

struct SweepPoint {
    shards: usize,
    per_shard_counts: Vec<u64>,
    count_identical: bool,
    rows_identical: bool,
    limit_identical: bool,
    report: LoadReport,
}

/// Stages 1+2 for one N: identity against the reference, then the
/// open-loop sweep.
fn run_point(
    bin: &PathBuf,
    scale: Scale,
    n: usize,
    ref_count_body: &[u8],
    ref_rows_sorted: &(Vec<String>, u64),
    rate: f64,
    duration: Duration,
) -> SweepPoint {
    let (shards, router) = spawn_fleet(bin, scale, n, None);

    // Identity: COUNT through the router is byte-identical to the
    // unsharded reference (sums of per-shard counts serialize back to
    // the very same bytes).
    let routed_count = get(router.addr, &count_target());
    assert_eq!(routed_count.status, 200, "routed COUNT failed");
    let count_identical = routed_count.body == ref_count_body;
    assert!(
        count_identical,
        "shards={n}: routed COUNT diverged from the unsharded reference: {} vs {}",
        String::from_utf8_lossy(&routed_count.body),
        String::from_utf8_lossy(ref_count_body),
    );

    // Identity: the routed row set equals the reference row set (the
    // router emits canonically sorted rows; sort the reference the same
    // way).
    let routed_rows = get(router.addr, &rows_target());
    assert_eq!(routed_rows.status, 200, "routed row query failed");
    let (routed, routed_total) = parse_rows(&routed_rows.body);
    let rows_identical = routed == ref_rows_sorted.0 && routed_total == ref_rows_sorted.1;
    assert!(
        rows_identical,
        "shards={n}: routed rows diverged ({} rows/total {routed_total} vs {} rows/total {})",
        routed.len(),
        ref_rows_sorted.0.len(),
        ref_rows_sorted.1,
    );

    // Identity: a routed `LIMIT n` query returns exactly min(n, total)
    // rows — the canonical sorted prefix of the unsharded answer (the
    // router strips the clause from the scattered text and re-applies
    // the cap after the merge), with the count capped the same way.
    let routed_limited = get(router.addr, &limit_target());
    assert_eq!(routed_limited.status, 200, "routed LIMIT query failed");
    let (limited, limited_count) = parse_rows(&routed_limited.body);
    let want = LIMIT_N.min(ref_rows_sorted.0.len());
    let expect_rows = &ref_rows_sorted.0[..want];
    let limit_identical = limited == expect_rows && limited_count == want as u64;
    assert!(
        limit_identical,
        "shards={n}: routed LIMIT {LIMIT_N} diverged: {} rows / count {limited_count}, \
         expected the {want}-row canonical prefix of the reference",
        limited.len(),
    );

    // Partitioning: per-shard counts are non-empty strict slices that
    // sum to the whole.
    let per_shard_counts: Vec<u64> = shards
        .iter()
        .map(|s| parse_count(&get(s.addr, &count_target()).body))
        .collect();
    let full = parse_count(ref_count_body);
    assert_eq!(
        per_shard_counts.iter().sum::<u64>(),
        full,
        "shards={n}: per-shard counts must sum to the full count"
    );
    if n > 1 {
        for (i, &c) in per_shard_counts.iter().enumerate() {
            assert!(
                c > 0 && c < full,
                "shard {i}/{n} holds {c} of {full} subjects — not a strict slice"
            );
        }
    }

    // Throughput: open-loop fleet over scatter and forward targets.
    let targets = vec![count_target(), "/tiles/0/0/0".to_string()];
    let report = loadgen::run(
        router.addr,
        &targets,
        &LoadPlan {
            conns: 16,
            mode: ConnMode::KeepAlive,
            arrivals: Arrivals::Open {
                rate_per_sec: rate,
                window: duration,
            },
        },
    );
    drop(shards);
    drop(router);
    SweepPoint {
        shards: n,
        per_shard_counts,
        count_identical,
        rows_identical,
        limit_identical,
        report,
    }
}

struct SlowResult {
    slow_every: u64,
    slow_ms: u64,
    hedged_total: u64,
    partial_total: u64,
    report: LoadReport,
}

/// Stage 3: shard 0 armed with the fault injector; the hedged retries
/// must keep the fleet's p99 under the per-shard deadline.
fn slow_shard(bin: &PathBuf, scale: Scale, rate: f64, duration: Duration) -> SlowResult {
    let (slow_every, slow_ms) = (5u64, 800u64);
    let (shards, router) = spawn_fleet(bin, scale, 2, Some((slow_every, slow_ms)));
    let targets = vec![count_target()];
    let report = loadgen::run(
        router.addr,
        &targets,
        &LoadPlan {
            conns: 8,
            mode: ConnMode::KeepAlive,
            arrivals: Arrivals::Open {
                rate_per_sec: rate,
                window: duration,
            },
        },
    );
    let metrics = get(router.addr, "/metrics");
    let text = String::from_utf8(metrics.body).expect("metrics text");
    let hedged_total = scrape_counter(&text, "ee_route_hedged_total");
    let partial_total = scrape_counter(&text, "ee_route_partial_total");
    drop(shards);
    drop(router);
    assert!(
        hedged_total > 0,
        "no hedged request fired against a shard sleeping {slow_ms} ms every \
         {slow_every}th query"
    );
    assert!(
        report.p99_us < SHARD_DEADLINE_MS * 1_000,
        "hedging failed to keep admitted p99 ({} µs) under the {SHARD_DEADLINE_MS} ms \
         per-shard deadline",
        report.p99_us
    );
    SlowResult {
        slow_every,
        slow_ms,
        hedged_total,
        partial_total,
        report,
    }
}

fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us} µs")
    } else {
        format!("{:.2} ms", us as f64 / 1_000.0)
    }
}

/// Run E-f9 and return the tables plus the `BENCH_PR9.json` value.
/// `max_shards` caps the sweep (the harness `--shards` flag); the sweep
/// doubles 1, 2, 4, … up to it.
pub fn report(scale: Scale, max_shards: usize) -> (Vec<Table>, Json) {
    assert!(max_shards >= 1, "--shards must be at least 1");
    let bin = find_serve_binary().expect(
        "ee-serve binary not found next to the harness (build it with \
         `cargo build -p ee-serve`, or point EE_SERVE_BIN at it)",
    );
    let (rate, duration, slow_duration) = match scale {
        Scale::Quick => (60.0, Duration::from_millis(800), Duration::from_millis(1_500)),
        Scale::Full => (120.0, Duration::from_secs(3), Duration::from_secs(4)),
    };
    let mut ns = vec![1usize];
    while ns.last().copied().unwrap_or(1) * 2 <= max_shards {
        ns.push(ns.last().unwrap() * 2);
    }

    // The unsharded reference process anchors every identity check.
    let reference = spawn_serve(&bin, scale, &[], &[]);
    let ref_count = get(reference.addr, &count_target());
    assert_eq!(ref_count.status, 200, "reference COUNT failed");
    let ref_rows_resp = get(reference.addr, &rows_target());
    assert_eq!(ref_rows_resp.status, 200, "reference row query failed");
    let (mut ref_rows, ref_total) = parse_rows(&ref_rows_resp.body);
    ref_rows.sort_unstable();
    let ref_rows_sorted = (ref_rows, ref_total);
    drop(reference);

    let points: Vec<SweepPoint> = ns
        .iter()
        .map(|&n| {
            run_point(
                &bin,
                scale,
                n,
                &ref_count.body,
                &ref_rows_sorted,
                rate,
                duration,
            )
        })
        .collect();
    // ~10 req/s keeps the slow shard's 4-worker pool unsaturated: every
    // 5th execution sleeps 800 ms, so ~2 slow/s × 0.8 s ≈ 2 busy workers
    // (hedged duplicates land on the spare ones and answer fast).
    let slow = slow_shard(&bin, scale, 10.0, slow_duration);
    let sharded_identical = points
        .iter()
        .all(|p| p.count_identical && p.rows_identical && p.limit_identical);

    let mut t1 = Table::new(
        "E-f9a — N shard processes behind the router",
        format!(
            "Real `ee-serve` processes on localhost: N shards plus one router, \
             open-loop fleet of 16 connections at {rate:.0} req/s over scatter \
             (`/query` COUNT) and forward (`/tiles`) targets. Identity: routed \
             answers (COUNT, full rows, and a `LIMIT {LIMIT_N}` cap) vs one \
             unsharded reference process ({ref_total} subjects)."
        ),
        &[
            "shards", "per-shard subjects", "ok", "errors", "p50", "p99", "identical",
        ],
    );
    for p in &points {
        let split = p
            .per_shard_counts
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(" / ");
        t1.row(vec![
            p.shards.to_string(),
            split,
            p.report.ok.to_string(),
            p.report.errors.to_string(),
            fmt_us(p.report.p50_us),
            fmt_us(p.report.p99_us),
            (p.count_identical && p.rows_identical && p.limit_identical).to_string(),
        ]);
    }

    let mut t2 = Table::new(
        "E-f9b — slow shard vs hedged requests",
        format!(
            "2 shards; shard 0 sleeps {} ms on every {}th query execution — past the \
             router's {} ms hedge trigger, under its {SHARD_DEADLINE_MS} ms per-shard \
             deadline. Hedged duplicates answer from the fast path, holding the \
             fleet's admitted p99 far below the deadline.",
            slow.slow_ms, slow.slow_every, 150
        ),
        &["hedged", "partial", "ok", "errors", "p50", "p99", "deadline"],
    );
    t2.row(vec![
        slow.hedged_total.to_string(),
        slow.partial_total.to_string(),
        slow.report.ok.to_string(),
        slow.report.errors.to_string(),
        fmt_us(slow.report.p50_us),
        fmt_us(slow.report.p99_us),
        format!("{SHARD_DEADLINE_MS} ms"),
    ]);

    let point_json = |p: &SweepPoint| {
        Json::obj(vec![
            ("shards", Json::Num(p.shards as f64)),
            (
                "per_shard_subjects",
                Json::Arr(
                    p.per_shard_counts
                        .iter()
                        .map(|&c| Json::Num(c as f64))
                        .collect(),
                ),
            ),
            ("count_identical", Json::Bool(p.count_identical)),
            ("rows_identical", Json::Bool(p.rows_identical)),
            ("limit_identical", Json::Bool(p.limit_identical)),
            ("sent", Json::Num(p.report.sent as f64)),
            ("ok", Json::Num(p.report.ok as f64)),
            ("errors", Json::Num(p.report.errors as f64)),
            ("p50_us", Json::Num(p.report.p50_us as f64)),
            ("p99_us", Json::Num(p.report.p99_us as f64)),
        ])
    };
    let json = Json::obj(vec![
        ("experiment", Json::Str("e-f9".into())),
        (
            "scale",
            Json::Str(if scale == Scale::Full { "full" } else { "quick" }.into()),
        ),
        ("subjects", Json::Num(ref_total as f64)),
        ("sweep", Json::Arr(points.iter().map(point_json).collect())),
        (
            "slow_shard",
            Json::obj(vec![
                ("slow_every", Json::Num(slow.slow_every as f64)),
                ("slow_ms", Json::Num(slow.slow_ms as f64)),
                ("deadline_ms", Json::Num(SHARD_DEADLINE_MS as f64)),
                ("hedged_total", Json::Num(slow.hedged_total as f64)),
                ("partial_total", Json::Num(slow.partial_total as f64)),
                ("ok", Json::Num(slow.report.ok as f64)),
                ("errors", Json::Num(slow.report.errors as f64)),
                ("p50_us", Json::Num(slow.report.p50_us as f64)),
                ("p99_us", Json::Num(slow.report.p99_us as f64)),
            ]),
        ),
        ("sharded_identical", Json::Bool(sharded_identical)),
    ]);
    (vec![t1, t2], json)
}

/// Run E-f9 with the default 4-shard sweep, discarding the JSON (the
/// `run(id, scale)` registry shape).
pub fn run(scale: Scale) -> Vec<Table> {
    report(scale, 4).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_checks_identity_across_real_processes() {
        // `cargo test -p ee-bench` alone doesn't build the ee-serve
        // binary; skip (the workspace-level run and verify.sh do).
        if find_serve_binary().is_none() {
            eprintln!("skipping: ee-serve binary not built");
            return;
        }
        let (tables, json) = report(Scale::Quick, 2);
        assert_eq!(tables.len(), 2);
        let text = json.emit_pretty();
        assert!(
            text.contains("\"sharded_identical\": true"),
            "the exact text verify.sh greps for must be present: {text}"
        );
        let v = ee_util::json::parse(&text).unwrap();
        assert_eq!(v.get("sharded_identical"), Some(&Json::Bool(true)));
        let sweep = v.get("sweep").and_then(Json::as_arr).unwrap();
        assert_eq!(sweep.len(), 2, "N = 1, 2");
        let hedged = v
            .get("slow_shard")
            .and_then(|s| s.get("hedged_total"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!(hedged >= 1.0);
    }
}
