//! Property test: a paused pattern enumeration over an `AS OF` view
//! resumes identically on any view of the same commit.
//!
//! Seeded random small stores get a commit history. Every cut of that
//! history is read through `StoreView::match_pattern_from` for all eight
//! bound/unbound shapes of `(s, p, o)`, in pauses of 1–3 matches. Between
//! pauses, further random commits land now and then, and the overlay for
//! the same cut is rebuilt on the newer head before the read resumes. The
//! drain must give exactly the cut's matching id triples, each once, in
//! the index order of the pattern's shape: `spo` when the subject is
//! bound (or nothing is), `pos` when the predicate is bound and the
//! subject is not, `osp` when only the object is.

use ee_rdf::storage::{Store, ROOT_COMMIT_ID};
use ee_rdf::store::{IdTriple, PatternCursor, StoreView};
use ee_rdf::term::Term;
use ee_rdf::update::Delta;
use ee_rdf::TripleStore;
use ee_util::rng::Rng;
use std::collections::BTreeSet;

type Triple = (Term, Term, Term);

const STORES: u64 = 150;

fn node(rng: &mut Rng) -> Term {
    Term::iri(format!("http://e/n{}", rng.below(7)))
}

fn triple(rng: &mut Rng) -> Triple {
    let o = if rng.chance(0.7) {
        node(rng)
    } else {
        Term::integer(rng.below(3) as i64)
    };
    (
        node(rng),
        Term::iri(format!("http://e/p{}", rng.below(3))),
        o,
    )
}

/// Commit random deletes of present triples and inserts of random ones.
fn random_commit(rng: &mut Rng, store: &mut Store, model: &mut BTreeSet<Triple>) {
    let present: Vec<Triple> = model.iter().cloned().collect();
    let delete: BTreeSet<Triple> = (0..rng.below(4))
        .filter(|_| !present.is_empty())
        .map(|_| present[rng.below(present.len() as u64) as usize].clone())
        .collect();
    let insert: BTreeSet<Triple> = (0..rng.below(5)).map(|_| triple(rng)).collect();
    for t in &delete {
        model.remove(t);
    }
    model.extend(insert.iter().cloned());
    store
        .commit_delta(Delta {
            insert: insert.into_iter().collect(),
            delete: delete.into_iter().collect(),
        })
        .unwrap();
}

/// The shape's index order as a sort key of an SPO triple.
fn order_key(shape: [bool; 3], (s, p, o): IdTriple) -> IdTriple {
    match shape {
        [true, _, _] | [false, false, false] => (s, p, o),
        [false, true, _] => (p, o, s),
        [false, false, true] => (o, s, p),
    }
}

#[test]
fn paused_view_reads_resume_identically_on_rebuilt_overlays() {
    let mut rng = Rng::seed_from(0xc0_50);
    let (mut reads, mut rebuilt) = (0usize, 0usize);
    for _ in 0..STORES {
        let mut model: BTreeSet<Triple> =
            (0..5 + rng.below(30)).map(|_| triple(&mut rng)).collect();
        let mut base = TripleStore::new();
        for (s, p, o) in &model {
            base.insert(s, p, o);
        }
        let mut store = Store::ephemeral(base);
        let mut cuts = vec![(ROOT_COMMIT_ID, model.clone())];
        for _ in 0..1 + rng.below(4) {
            random_commit(&mut rng, &mut store, &mut model);
            cuts.push((store.head_commit(), model.clone()));
        }
        for (cut, content) in &cuts {
            let ids: Vec<IdTriple> = content
                .iter()
                .map(|(s, p, o)| {
                    let id = |t: &Term| store.dict.id_of(t).expect("committed terms are interned");
                    (id(s), id(p), id(o))
                })
                .collect();
            for shape in 0..8u8 {
                let shape = [shape & 4 != 0, shape & 2 != 0, shape & 1 != 0];
                // Constants from the cut's own triples, or (rarely) from
                // the whole term universe, which may miss the cut or the
                // dictionary altogether.
                let pick = if ids.is_empty() || rng.chance(0.15) {
                    let (s, p, o) = triple(&mut rng);
                    let id = |t: &Term| store.dict.id_of(t).unwrap_or(u64::MAX);
                    (id(&s), id(&p), id(&o))
                } else {
                    ids[rng.below(ids.len() as u64) as usize]
                };
                let (s, p, o) = (
                    Some(pick.0).filter(|_| shape[0]),
                    Some(pick.1).filter(|_| shape[1]),
                    Some(pick.2).filter(|_| shape[2]),
                );
                let mut want: Vec<IdTriple> = ids
                    .iter()
                    .copied()
                    .filter(|t| {
                        s.is_none_or(|v| v == t.0)
                            && p.is_none_or(|v| v == t.1)
                            && o.is_none_or(|v| v == t.2)
                    })
                    .collect();
                want.sort_unstable_by_key(|&t| order_key(shape, t));

                let mut cursor = PatternCursor::default();
                let mut got = Vec::new();
                while !cursor.is_done() {
                    let novelty = store.as_of(*cut).expect("a commit of this store");
                    let view = StoreView::with_novelty(&store, &novelty);
                    let pause = 1 + rng.below(3) as usize;
                    let mut n = 0;
                    view.match_pattern_from(s, p, o, &mut cursor, &mut |t| {
                        got.push(t);
                        n += 1;
                        n < pause
                    });
                    assert!(
                        got.len() <= want.len(),
                        "cut {cut:016x} {shape:?}: {got:?} overran {want:?}"
                    );
                    if !cursor.is_done() && rng.chance(0.4) {
                        random_commit(&mut rng, &mut store, &mut model);
                        rebuilt += 1;
                    }
                }
                assert_eq!(
                    got, want,
                    "cut {cut:016x}, shape {shape:?}, pattern {s:?} {p:?} {o:?}"
                );
                reads += 1;
            }
        }
    }
    assert!(reads >= STORES as usize * 16, "{reads} reads");
    assert!(
        rebuilt > reads / 4,
        "only {rebuilt} overlays rebuilt mid-read"
    );
}
