//! Crash-recovery tests for the durable store.
//!
//! Seeded loop: commit N random updates (with a mid-sequence compaction
//! so recovery exercises snapshot + log-tail replay, not just the log),
//! then simulate a crash at **every byte boundary** of the final
//! `commits.log` record. Reopening must yield exactly the last
//! fully-committed record — head commit id, generation and a
//! bit-identical triple set — whether the tail is cleanly absent,
//! partially written, or complete. The rest pins the on-disk contract:
//! the directory layout, the record format behind every commit id, and
//! a log damaged below the snapshot failing to open.

use ee_rdf::parser::parse_update;
use ee_rdf::storage::commitlog::COMMITS_FILE;
use ee_rdf::storage::encode::{put_term, put_uvarint, write_record};
use ee_rdf::storage::snapshot::SNAPSHOT_FILE;
use ee_rdf::storage::{scratch_dir, Durability, Store, StoreError};
use ee_rdf::Term;
use ee_util::Rng;

fn iri(n: &str) -> String {
    format!("<http://e/{n}>")
}

/// A random ground triple over a small universe (collisions are the
/// point: deletes must sometimes hit).
fn rand_triple(rng: &mut Rng) -> (String, String, String) {
    (
        iri(&format!("s{}", rng.range(0, 10))),
        iri(&format!("p{}", rng.range(0, 3))),
        iri(&format!("o{}", rng.range(0, 6))),
    )
}

fn rand_update(rng: &mut Rng) -> String {
    let mut ops = Vec::new();
    for _ in 0..rng.range(1, 3) {
        match rng.range(0, 4) {
            0 | 1 => {
                let ts: Vec<String> = (0..rng.range(1, 5))
                    .map(|_| {
                        let (s, p, o) = rand_triple(rng);
                        format!("{s} {p} {o} .")
                    })
                    .collect();
                ops.push(format!("INSERT DATA {{ {} }}", ts.join(" ")));
            }
            2 => {
                let (s, p, o) = rand_triple(rng);
                ops.push(format!("DELETE DATA {{ {s} {p} {o} }}"));
            }
            _ => {
                let s = iri(&format!("s{}", rng.range(0, 10)));
                ops.push(format!("DELETE WHERE {{ {s} ?p ?o }}"));
            }
        }
    }
    ops.join(" ; ")
}

fn triple_set(store: &Store) -> Vec<(Term, Term, Term)> {
    let mut v: Vec<(Term, Term, Term)> = store
        .triples()
        .map(|(s, p, o)| (s.clone(), p.clone(), o.clone()))
        .collect();
    v.sort();
    v
}

fn update(src: &str) -> ee_rdf::parser::Update {
    parse_update(&format!("PREFIX e: <http://e/> {src}")).unwrap()
}

fn dir_listing(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn reopen_after_any_wal_tail_truncation_yields_last_committed_generation() {
    for seed in [7u64, 2019, 0xee] {
        let mut rng = Rng::seed_from(seed);
        let dir = scratch_dir(&format!("crash-{seed}"));

        let mut store = Store::open_with(&dir, Durability::NoSync).unwrap();
        let n_commits = 8;
        for i in 0..n_commits {
            let update = parse_update(&rand_update(&mut rng)).unwrap();
            store.commit(&update).unwrap();
            if i == n_commits / 2 {
                // Snapshot the history so far: recovery below must
                // replay snapshot *plus* log tail.
                store.compact().unwrap();
            }
        }
        // State before the final commit.
        let before = (store.head_commit(), store.generation(), triple_set(&store));
        let log_before = store.log_len();
        // A guaranteed-effective final commit (unique marker triple) so
        // the final record exists and bumps the generation.
        let marker = format!(
            "INSERT DATA {{ <http://e/marker> <http://e/at> {} . {} }}",
            before.1,
            {
                let (s, p, o) = rand_triple(&mut rng);
                format!("{s} {p} {o} .")
            }
        );
        store.commit(&parse_update(&marker).unwrap()).unwrap();
        let after = (store.head_commit(), store.generation(), triple_set(&store));
        let log_after = store.log_len();
        assert_eq!(after.1, before.1 + 1);
        drop(store);

        let log_bytes = std::fs::read(dir.join(COMMITS_FILE)).unwrap();
        assert_eq!(log_bytes.len() as u64, log_after);
        let snapshot_bytes = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();

        // Crash at every byte boundary of the final record.
        for cut in (log_before as usize)..=(log_after as usize) {
            let crash_dir = scratch_dir(&format!("crash-{seed}-cut{cut}"));
            std::fs::write(crash_dir.join(SNAPSHOT_FILE), &snapshot_bytes).unwrap();
            std::fs::write(crash_dir.join(COMMITS_FILE), &log_bytes[..cut]).unwrap();

            let reopened = Store::open_with(&crash_dir, Durability::NoSync).unwrap();
            let want = if cut == log_after as usize {
                &after
            } else {
                &before
            };
            assert_eq!(
                (reopened.head_commit(), reopened.generation()),
                (want.0, want.1),
                "seed {seed} cut {cut}: wrong head"
            );
            assert_eq!(
                triple_set(&reopened),
                want.2,
                "seed {seed} cut {cut}: triple set diverged"
            );
            drop(reopened);
            std::fs::remove_dir_all(&crash_dir).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn recovered_store_accepts_new_commits() {
    // After torn-tail truncation, the log must still be appendable and
    // the next commit must land at the right generation.
    let dir = scratch_dir("crash-resume");
    let mut store = Store::open_with(&dir, Durability::NoSync).unwrap();
    store
        .commit(&update("INSERT DATA { e:a e:p e:b }"))
        .unwrap();
    let keep = store.log_len();
    store
        .commit(&update("INSERT DATA { e:a e:p e:c }"))
        .unwrap();
    drop(store);
    // Tear the second record in half.
    let log_path = dir.join(COMMITS_FILE);
    let bytes = std::fs::read(&log_path).unwrap();
    let cut = keep as usize + (bytes.len() - keep as usize) / 2;
    std::fs::write(&log_path, &bytes[..cut]).unwrap();

    let mut store = Store::open_with(&dir, Durability::NoSync).unwrap();
    assert_eq!(store.generation(), 1);
    assert_eq!(store.len(), 1);
    let stats = store
        .commit(&update("INSERT DATA { e:a e:p e:d }"))
        .unwrap();
    assert_eq!(stats.generation, 2);
    drop(store);
    let store = Store::open_with(&dir, Durability::NoSync).unwrap();
    assert_eq!(store.generation(), 2);
    assert_eq!(store.len(), 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn store_directory_holds_only_snapshot_and_commit_log() {
    let dir = scratch_dir("one-log");
    let mut store = Store::create(
        &dir,
        ee_rdf::TripleStore::new(),
        Durability::NoSync,
    )
    .unwrap();
    let log_len = || std::fs::metadata(dir.join(COMMITS_FILE)).unwrap().len();
    let commit = |store: &mut Store, src: &str| {
        let before = log_len();
        let stats = store.commit(&update(src)).unwrap();
        assert_eq!(log_len() - before, stats.wal_bytes, "{src}");
    };
    commit(&mut store, "INSERT DATA { e:a e:p e:b }");
    store.compact().unwrap();
    commit(&mut store, "INSERT DATA { e:c e:p e:d }");
    drop(store);
    let store = Store::open_with(&dir, Durability::NoSync).unwrap();
    assert_eq!((store.generation(), store.len()), (2, 2));
    assert_eq!(dir_listing(&dir), [COMMITS_FILE, SNAPSHOT_FILE]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Commit ids hash the exact record bytes, so these literals (computed
/// when the store still kept a separate WAL beside the commit log) pin
/// the record format: any id, `?asOf=` or ETag a client holds stays
/// valid across storage changes.
#[test]
fn record_format_is_pinned_and_a_stray_wal_is_ignored() {
    let updates = [
        "INSERT DATA { e:a e:p e:b . e:a e:p \"lit\" }",
        "DELETE DATA { e:a e:p e:b } ; INSERT DATA { e:d e:p 42 }",
        "INSERT DATA { e:f e:geo \"POINT (1 2)\"^^<http://www.opengis.net/ont/geosparql#wktLiteral> }",
    ];
    let pinned: [u64; 3] = [
        0xdc61_3fe7_6059_60fb,
        0xee2e_8e18_dadc_4fcb,
        0x0ff0_a8bc_9b5b_2555,
    ];
    let dir = scratch_dir("pinned-ids");
    let mut store = Store::open_with(&dir, Durability::NoSync).unwrap();
    let ids: Vec<u64> = updates
        .iter()
        .map(|u| {
            store.commit(&update(u)).unwrap();
            store.head_commit()
        })
        .collect();
    assert_eq!(ids, pinned);
    let want = (store.head_commit(), store.generation(), triple_set(&store));
    drop(store);
    // A `wal.log` left by an older layout is neither read nor written.
    let garbage: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    std::fs::write(dir.join("wal.log"), &garbage).unwrap();
    let store = Store::open_with(&dir, Durability::NoSync).unwrap();
    assert_eq!(
        (store.head_commit(), store.generation(), triple_set(&store)),
        want
    );
    drop(store);
    assert_eq!(std::fs::read(dir.join("wal.log")).unwrap(), garbage);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn log_truncated_below_the_snapshot_is_an_open_error() {
    let dir = scratch_dir("log-behind-snapshot");
    let mut store = Store::open_with(&dir, Durability::NoSync).unwrap();
    store
        .commit(&update("INSERT DATA { e:a e:p e:b }"))
        .unwrap();
    let keep = store.log_len();
    store
        .commit(&update("INSERT DATA { e:c e:p e:d }"))
        .unwrap();
    store.compact().unwrap();
    drop(store);
    // Drop a record the snapshot already folded in.
    let log_path = dir.join(COMMITS_FILE);
    let bytes = std::fs::read(&log_path).unwrap();
    std::fs::write(&log_path, &bytes[..keep as usize]).unwrap();
    match Store::open_with(&dir, Durability::NoSync) {
        Err(StoreError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("a log behind its snapshot must not open"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_record_that_skips_a_generation_breaks_the_chain() {
    let dir = scratch_dir("generation-gap");
    let mut store = Store::open_with(&dir, Durability::NoSync).unwrap();
    store
        .commit(&update("INSERT DATA { e:a e:p e:b }"))
        .unwrap();
    let (head, clean) = (store.head_commit(), store.log_len());
    drop(store);
    let log_path = dir.join(COMMITS_FILE);
    // Checksum-valid records on the right parent id: one that skips to
    // generation 3 is cut away, one at generation 2 extends the chain.
    for (generation, extends) in [(3, false), (2, true)] {
        let mut payload = head.to_le_bytes().to_vec();
        for v in [generation, 0, 1] {
            put_uvarint(&mut payload, v); // generation, #deletes, #inserts
        }
        for t in ["http://e/c", "http://e/p", "http://e/d"] {
            put_term(&mut payload, &Term::iri(t));
        }
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&log_path)
            .unwrap();
        write_record(&mut file, &payload).unwrap();
        drop(file);
        let store = Store::open_with(&dir, Durability::NoSync).unwrap();
        let logged = std::fs::metadata(&log_path).unwrap().len();
        if extends {
            assert_eq!((store.generation(), store.len()), (2, 2));
            assert!(logged > clean);
        } else {
            assert_eq!((store.head_commit(), store.generation()), (head, 1));
            assert_eq!(logged, clean, "the chain-breaking record is truncated");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
