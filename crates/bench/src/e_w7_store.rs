//! E-w7 — durable mutable triple store: cold-start and write-while-serve.
//!
//! Three stages, all against the `ee-rdf` storage subsystem behind
//! `POST /update`:
//!
//! * **Cold start** (`E-w7a`): one synthetic triple set loaded three
//!   ways — [`ee_rdf::storage::Store::bulk_load`] (build plus spatial
//!   index plus snapshot write, no per-triple commit records), a cold
//!   N-Triples rebuild (export → parse → re-index, no snapshot), and
//!   [`ee_rdf::storage::Store::open`] over the snapshot just written.
//!   Snapshot open skips tokenising and re-sorting, so it should beat
//!   the rebuild; the JSON records both times plus bulk-load
//!   triples/sec.
//! * **Write-while-serve** (`E-w7b`): a reader issuing the E2-style
//!   rectangular selection through [`ee_serve::AppState::query`] (parse,
//!   plan against the current store, execute — per read, as `/query`
//!   does) — first alone, then with a concurrent writer committing
//!   single-triple updates through [`ee_serve::AppState::commit_update`]
//!   as fast as they apply. Reports read p50/p99 for both phases and
//!   commit p50/p99, quantifying what a live write load costs the
//!   read path (the contended numbers include waits on the exclusive
//!   store lock).
//! * **Recovery check**: a seeded commit sequence whose commit log is
//!   torn mid-final-record and reopened; the recovered triple set must be
//!   bit-identical to the last fully-committed generation. A mismatch
//!   panics (failing the harness run); success is recorded as
//!   `"recovery_identical": true`, which `scripts/verify.sh` greps.
//!
//! Durability of every stage follows `EE_WAL_NO_SYNC` (see
//! [`ee_rdf::storage::Durability::from_env`]) — verify.sh sets it so CI
//! measures the storage layer, not the CI disk's fsync.

use crate::table::{fmt_f64, fmt_secs, Table};
use crate::Scale;
use ee_rdf::parser::parse_update;
use ee_rdf::storage::{
    export_ntriples, load_ntriples, scratch_dir, Durability, Store,
};
use ee_rdf::store::TripleStore;
use ee_rdf::term::Term;
use ee_rdf::update::GroundTriple;
use ee_serve::{AppState, DataConfig};
use ee_util::json::Json;
use ee_util::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A synthetic point-feature triple set of the `/query` shape: every
/// third triple carries a WKT geometry so the spatial index and the
/// snapshot's literal path both do real work.
pub fn synthetic_triples(n: usize, seed: u64) -> Vec<GroundTriple> {
    let mut rng = Rng::seed_from(seed);
    let geom = Term::iri("http://e/hasGeometry");
    let kind = Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
    let feature = Term::iri("http://e/Feature");
    let label = Term::iri("http://e/label");
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let s = Term::iri(format!("http://e/f{i}"));
        out.push(match i % 3 {
            0 => {
                let x = rng.range_f64(0.0, 100.0);
                let y = rng.range_f64(0.0, 100.0);
                (s, geom.clone(), Term::wkt(format!("POINT ({x} {y})")))
            }
            1 => (s, kind.clone(), feature.clone()),
            _ => (s, label.clone(), Term::string(format!("feature {i}"))),
        });
    }
    out
}

/// Cold-start timings for one triple count.
struct ColdStart {
    triples: usize,
    bulk_load_secs: f64,
    bulk_load_tps: f64,
    rebuild_secs: f64,
    snapshot_open_secs: f64,
}

fn cold_start(n: usize, durability: Durability) -> ColdStart {
    let dir = scratch_dir("e-w7-cold");
    let (store, stats) =
        Store::bulk_load(&dir, synthetic_triples(n, 0x57), durability, None)
            .expect("bulk load");
    let loaded = store.len();
    // The no-snapshot baseline: what a restart costs when all you have
    // is an interchange dump — parse N-Triples, re-intern, re-index.
    let text = export_ntriples(&store);
    drop(store);
    let t0 = Instant::now();
    let mut rebuilt = TripleStore::new();
    load_ntriples(&mut rebuilt, &text).expect("rebuild parses");
    rebuilt.pack();
    let rebuild_secs = t0.elapsed().as_secs_f64();
    assert_eq!(rebuilt.len(), loaded, "rebuild must reproduce the store");
    drop(rebuilt);

    let t0 = Instant::now();
    let reopened = Store::open_with(&dir, durability).expect("snapshot open");
    let snapshot_open_secs = t0.elapsed().as_secs_f64();
    assert_eq!(reopened.len(), loaded, "snapshot must reproduce the store");
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();

    ColdStart {
        triples: loaded,
        bulk_load_secs: stats.elapsed.as_secs_f64(),
        bulk_load_tps: stats.triples_per_sec,
        rebuild_secs,
        snapshot_open_secs,
    }
}

/// `sorted[q·(len-1)]` — exact sample percentiles over measured runs.
fn pctl(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[i]
}

/// Write-while-serve numbers (all µs).
struct WriteWhileServe {
    reads: usize,
    commits: usize,
    read_only_p50_us: f64,
    read_only_p99_us: f64,
    contended_p50_us: f64,
    contended_p99_us: f64,
    commit_p50_us: f64,
    commit_p99_us: f64,
}

fn write_while_serve(scale: Scale) -> WriteWhileServe {
    let (config, reads) = match scale {
        Scale::Quick => (DataConfig::tiny(), 300usize),
        Scale::Full => (DataConfig::default(), 1_500),
    };
    let mut state = AppState::build(config);
    state.writable = true;
    let state = Arc::new(state);
    let sparql = ee_serve::state::selection_sparql(40.0, 40.0, 12.0);

    let read_phase = |label: &str| -> Vec<f64> {
        let mut lat = Vec::with_capacity(reads);
        for _ in 0..reads {
            let t0 = Instant::now();
            let q = ee_rdf::parser::parse_query(&sparql).expect(label);
            let mut read = state.query(&q, None).expect("the head").expect(label);
            while read.drain_batch(&state, |_| {}) > 0 {}
            lat.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        lat.sort_by(f64::total_cmp);
        lat
    };

    // Phase 1: reads with no writer anywhere.
    let baseline = read_phase("read-only query");

    // Phase 2: same reads with a writer committing continuously.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut commit_lat = Vec::new();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let text = format!(
                    "INSERT DATA {{ <http://e/w{i}> <http://e/wrote> {i} }}"
                );
                let update = parse_update(&text).expect("writer update parses");
                let t0 = Instant::now();
                state.commit_update(&update).expect("commit");
                commit_lat.push(t0.elapsed().as_secs_f64() * 1e6);
                i += 1;
            }
            commit_lat
        })
    };
    let contended = read_phase("contended query");
    stop.store(true, Ordering::Relaxed);
    let mut commit_lat = writer.join().expect("writer thread");
    commit_lat.sort_by(f64::total_cmp);

    WriteWhileServe {
        reads,
        commits: commit_lat.len(),
        read_only_p50_us: pctl(&baseline, 0.5),
        read_only_p99_us: pctl(&baseline, 0.99),
        contended_p50_us: pctl(&contended, 0.5),
        contended_p99_us: pctl(&contended, 0.99),
        commit_p50_us: pctl(&commit_lat, 0.5),
        commit_p99_us: pctl(&commit_lat, 0.99),
    }
}

/// In-bench crash-recovery check: commit, tear the final commit-log
/// record in half, reopen, demand the last fully-committed state
/// bit-identical.
/// Panics (→ non-zero harness exit) on any divergence; returning means
/// the `recovery_identical` flag in the JSON is machine-checked truth.
fn recovery_check(durability: Durability) -> bool {
    let dir = scratch_dir("e-w7-recover");
    let mut store = Store::open_with(&dir, durability).expect("open");
    let mut rng = Rng::seed_from(0x77);
    for i in 0..6u32 {
        let text = format!(
            "INSERT DATA {{ <http://e/s{}> <http://e/p{}> <http://e/o{i}> }}",
            rng.range(0, 8),
            rng.range(0, 3),
        );
        store.commit(&parse_update(&text).expect("parse")).expect("commit");
    }
    let committed_gen = store.generation();
    let committed: Vec<(Term, Term, Term)> = triple_set(&store);
    let log_keep = store.log_len();
    store
        .commit(&parse_update("INSERT DATA { <http://e/final> <http://e/p> <http://e/o> }").unwrap())
        .expect("final commit");
    let log_full = store.log_len();
    drop(store);

    // Tear the final record in half and reopen.
    let log_path = dir.join(ee_rdf::storage::commitlog::COMMITS_FILE);
    let bytes = std::fs::read(&log_path).expect("commit log readable");
    let cut = log_keep as usize + (log_full - log_keep) as usize / 2;
    std::fs::write(&log_path, &bytes[..cut]).expect("truncate");
    let reopened = Store::open_with(&dir, durability).expect("reopen");
    assert_eq!(
        reopened.generation(),
        committed_gen,
        "recovery must land on the last fully-committed generation"
    );
    assert_eq!(
        triple_set(&reopened),
        committed,
        "recovered triple set must be bit-identical"
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
    true
}

fn triple_set(store: &Store) -> Vec<(Term, Term, Term)> {
    let mut v: Vec<(Term, Term, Term)> = store
        .triples()
        .map(|(s, p, o)| (s.to_term(), p.to_term(), o.to_term()))
        .collect();
    v.sort();
    v
}

/// Run the full experiment, returning the printed tables plus the
/// `BENCH_PR7.json` payload.
pub fn report(scale: Scale) -> (Vec<Table>, Json) {
    let durability = Durability::from_env();
    let n = match scale {
        Scale::Quick => 30_000,
        Scale::Full => 300_000,
    };

    let cold = cold_start(n, durability);
    let mut t1 = Table::new(
        "E-w7a — cold start: snapshot open vs N-Triples rebuild",
        format!(
            "{} triples (⅓ WKT geometries). Bulk load = build + spatial index + \
             snapshot write, no per-triple commit records. Rebuild = parse the \
             N-Triples export and re-index (the no-snapshot baseline); snapshot \
             open = decode dictionary blocks + delta-coded triple segments with \
             positional ids, skipping tokenising and re-interning.",
            cold.triples
        ),
        &["path", "time", "triples/s", "vs rebuild"],
    );
    t1.row(vec![
        "bulk load (+snapshot)".into(),
        fmt_secs(cold.bulk_load_secs),
        fmt_f64(cold.bulk_load_tps),
        "—".into(),
    ]);
    t1.row(vec![
        "cold N-Triples rebuild".into(),
        fmt_secs(cold.rebuild_secs),
        fmt_f64(cold.triples as f64 / cold.rebuild_secs.max(1e-9)),
        "1.0×".into(),
    ]);
    t1.row(vec![
        "snapshot open".into(),
        fmt_secs(cold.snapshot_open_secs),
        fmt_f64(cold.triples as f64 / cold.snapshot_open_secs.max(1e-9)),
        format!("{:.1}×", cold.rebuild_secs / cold.snapshot_open_secs.max(1e-9)),
    ]);

    let wws = write_while_serve(scale);
    let mut t2 = Table::new(
        "E-w7b — write-while-serve latency",
        format!(
            "{} E2 selection queries through the serve-tier query path (parse, \
             plan and execute per read), read-only vs against a writer \
             committing single-triple updates continuously ({} commits landed). \
             Commits take the exclusive store lock, so the contended reads \
             include lock waits.",
            wws.reads, wws.commits
        ),
        &["phase", "p50", "p99"],
    );
    let us = |v: f64| format!("{:.0} µs", v);
    t2.row(vec!["reads, no writer".into(), us(wws.read_only_p50_us), us(wws.read_only_p99_us)]);
    t2.row(vec![
        "reads, concurrent writer".into(),
        us(wws.contended_p50_us),
        us(wws.contended_p99_us),
    ]);
    t2.row(vec!["update commits".into(), us(wws.commit_p50_us), us(wws.commit_p99_us)]);

    let recovered = recovery_check(durability);

    let json = Json::obj(vec![
        ("bench", Json::Str("pr7-durable-store".to_string())),
        (
            "scale",
            Json::Str(if scale == Scale::Full { "full" } else { "quick" }.to_string()),
        ),
        (
            "wal_fsync",
            Json::Bool(durability == Durability::Sync),
        ),
        (
            "cold_start",
            Json::obj(vec![
                ("triples", Json::Num(cold.triples as f64)),
                ("bulk_load_secs", Json::Num(cold.bulk_load_secs)),
                ("bulk_load_triples_per_sec", Json::Num(cold.bulk_load_tps)),
                ("ntriples_rebuild_secs", Json::Num(cold.rebuild_secs)),
                ("snapshot_open_secs", Json::Num(cold.snapshot_open_secs)),
                (
                    "open_speedup_vs_rebuild",
                    Json::Num(cold.rebuild_secs / cold.snapshot_open_secs.max(1e-9)),
                ),
            ]),
        ),
        (
            "write_while_serve",
            Json::obj(vec![
                ("reads", Json::Num(wws.reads as f64)),
                ("commits", Json::Num(wws.commits as f64)),
                ("read_only_p50_us", Json::Num(wws.read_only_p50_us)),
                ("read_only_p99_us", Json::Num(wws.read_only_p99_us)),
                ("with_writer_p50_us", Json::Num(wws.contended_p50_us)),
                ("with_writer_p99_us", Json::Num(wws.contended_p99_us)),
                ("commit_p50_us", Json::Num(wws.commit_p50_us)),
                ("commit_p99_us", Json::Num(wws.commit_p99_us)),
            ]),
        ),
        ("recovery_identical", Json::Bool(recovered)),
    ]);
    (vec![t1, t2], json)
}

/// Harness entry point (tables only).
pub fn run(scale: Scale) -> Vec<Table> {
    report(scale).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_is_complete_and_recovery_checked() {
        let n = 3_000;
        let cold = cold_start(n, Durability::NoSync);
        assert_eq!(cold.triples, n);
        assert!(cold.bulk_load_tps > 0.0);
        assert!(cold.rebuild_secs > 0.0 && cold.snapshot_open_secs > 0.0);
        assert!(recovery_check(Durability::NoSync));
    }

    #[test]
    fn percentiles_index_sorted_samples() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(pctl(&v, 0.0), 1.0);
        assert_eq!(pctl(&v, 1.0), 10.0);
        assert_eq!(pctl(&v, 0.5), 6.0);
        assert_eq!(pctl(&[], 0.5), 0.0);
    }
}
