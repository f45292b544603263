//! SPARQL UPDATE evaluation: turn a parsed [`Update`] into a concrete
//! [`Delta`] of ground triples, then apply it to a [`TripleStore`].
//!
//! Evaluation and application are deliberately split: the durable
//! [`crate::storage::Store`] evaluates first (read-only), appends the
//! delta to its commit log, and only then mutates the in-memory indexes — so a
//! crash between the two never leaves a half-applied commit.
//!
//! `DELETE WHERE` and `INSERT … WHERE` run their WHERE group through
//! the ordinary plan/execute pipeline (`SELECT *` over the group), then
//! instantiate a template with each solution row — for `DELETE WHERE`
//! the group is its own template. All operations in one request are
//! evaluated against the state at the start of the request and applied
//! in order (atomic-batch semantics).

use crate::parser::{PatternTerm, Query, TriplePattern, Update, UpdateOp};
use crate::store::TripleStore;
use crate::term::Term;
use crate::RdfError;
use std::collections::HashSet;

/// A ground triple.
pub type GroundTriple = (Term, Term, Term);

/// The concrete effect of an [`Update`] on a store: ground triples to
/// insert and to delete, deduplicated, in first-occurrence order.
/// Deletes are collected before inserts are applied, matching the
/// evaluate-all-then-apply contract above.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Delta {
    /// Triples to insert (may already be present — inserts dedup).
    pub insert: Vec<GroundTriple>,
    /// Triples to delete (may be absent — deletes of absent triples are
    /// no-ops).
    pub delete: Vec<GroundTriple>,
}

impl Delta {
    /// True when the update would touch nothing.
    pub fn is_empty(&self) -> bool {
        self.insert.is_empty() && self.delete.is_empty()
    }
}

/// Evaluate an update against a store **without mutating it**.
pub fn evaluate_update(store: &TripleStore, update: &Update) -> Result<Delta, RdfError> {
    let mut delta = Delta::default();
    let mut seen_ins: HashSet<GroundTriple> = HashSet::new();
    let mut seen_del: HashSet<GroundTriple> = HashSet::new();
    for op in &update.ops {
        match op {
            UpdateOp::InsertData(ts) => {
                for t in ts {
                    if seen_ins.insert(t.clone()) {
                        delta.insert.push(t.clone());
                    }
                }
            }
            UpdateOp::DeleteData(ts) => {
                for t in ts {
                    if seen_del.insert(t.clone()) {
                        delta.delete.push(t.clone());
                    }
                }
            }
            UpdateOp::DeleteWhere(patterns) => {
                for t in instantiate(store, patterns, patterns)? {
                    if seen_del.insert(t.clone()) {
                        delta.delete.push(t);
                    }
                }
            }
            UpdateOp::InsertWhere { template, patterns } => {
                for t in instantiate(store, patterns, template)? {
                    if seen_ins.insert(t.clone()) {
                        delta.insert.push(t);
                    }
                }
            }
        }
    }
    Ok(delta)
}

/// Instantiate `template` with every solution of `patterns`: run the
/// WHERE group as `SELECT *` through the regular plan/execute pipeline,
/// then substitute each solution row into the template. `DELETE WHERE`
/// passes the same group for both.
fn instantiate(
    store: &TripleStore,
    patterns: &[TriplePattern],
    template: &[TriplePattern],
) -> Result<Vec<GroundTriple>, RdfError> {
    let q = Query {
        select: Vec::new(),
        star: true,
        distinct: false,
        patterns: patterns.to_vec(),
        optionals: Vec::new(),
        filters: Vec::new(),
        group_by: Vec::new(),
        order_by: None,
        limit: None,
        offset: None,
        as_of: None,
    };
    let plan = std::sync::Arc::new(crate::plan::plan(store, &q)?);
    let sols = crate::exec::execute_plan_view(store, plan, ee_util::par::available_threads())?;
    let col_of = |name: &str| sols.vars.iter().position(|v| v == name);
    let mut out = Vec::new();
    for row in &sols.rows {
        let bind = |pt: &PatternTerm| -> Option<Term> {
            match pt {
                PatternTerm::Const(t) => Some(t.clone()),
                PatternTerm::Var(name) => col_of(name).and_then(|i| row[i].clone()),
            }
        };
        for p in template {
            // A row with any unbound position instantiates nothing for
            // this pattern (cannot happen for required patterns, but be
            // defensive rather than write a wrong triple).
            if let (Some(s), Some(pr), Some(o)) = (bind(&p.s), bind(&p.p), bind(&p.o)) {
                out.push((s, pr, o));
            }
        }
    }
    Ok(out)
}

/// Apply a delta to a store: deletes first, then inserts (so an update
/// that deletes and re-inserts the same triple leaves it present).
/// Returns `(inserted, deleted)` — triples that actually changed state,
/// not counting no-op inserts of present triples or deletes of absent
/// ones.
pub fn apply_delta(store: &mut TripleStore, delta: &Delta) -> (usize, usize) {
    let mut deleted = 0;
    for (s, p, o) in &delta.delete {
        if store.remove(s, p, o) {
            deleted += 1;
        }
    }
    let mut inserted = 0;
    for (s, p, o) in &delta.insert {
        if !store.contains(s, p, o) {
            store.insert(s, p, o);
            inserted += 1;
        }
    }
    (inserted, deleted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_update;

    fn e(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    fn store() -> TripleStore {
        let mut st = TripleStore::new();
        st.insert(&e("a"), &e("knows"), &e("b"));
        st.insert(&e("a"), &e("knows"), &e("c"));
        st.insert(&e("b"), &e("knows"), &e("c"));
        st.insert(&e("a"), &e("age"), &Term::integer(30));
        st
    }

    #[test]
    fn insert_data_applies() {
        let mut st = store();
        let u = parse_update("PREFIX e: <http://e/> INSERT DATA { e:c e:knows e:a }").unwrap();
        let d = evaluate_update(&st, &u).unwrap();
        let (ins, del) = apply_delta(&mut st, &d);
        assert_eq!((ins, del), (1, 0));
        assert!(st.contains(&e("c"), &e("knows"), &e("a")));
        // Re-applying is a no-op.
        let d2 = evaluate_update(&st, &u).unwrap();
        assert_eq!(apply_delta(&mut st, &d2), (0, 0));
    }

    #[test]
    fn delete_where_instantiates_via_pipeline() {
        let mut st = store();
        let u = parse_update("PREFIX e: <http://e/> DELETE WHERE { ?s e:knows ?o }").unwrap();
        let d = evaluate_update(&st, &u).unwrap();
        assert_eq!(d.delete.len(), 3);
        let (_, del) = apply_delta(&mut st, &d);
        assert_eq!(del, 3);
        assert_eq!(st.len(), 1, "only the age triple survives");
    }

    #[test]
    fn delete_where_with_constant_subject() {
        let mut st = store();
        let u = parse_update("PREFIX e: <http://e/> DELETE WHERE { e:a e:knows ?o }").unwrap();
        let d = evaluate_update(&st, &u).unwrap();
        apply_delta(&mut st, &d);
        assert_eq!(st.len(), 2);
        assert!(st.contains(&e("b"), &e("knows"), &e("c")));
    }

    #[test]
    fn delete_then_reinsert_in_one_request_keeps_triple() {
        let mut st = store();
        let u = parse_update(
            "PREFIX e: <http://e/> \
             DELETE DATA { e:a e:knows e:b } ; INSERT DATA { e:a e:knows e:b }",
        )
        .unwrap();
        let d = evaluate_update(&st, &u).unwrap();
        let (ins, del) = apply_delta(&mut st, &d);
        assert_eq!((ins, del), (1, 1));
        assert!(st.contains(&e("a"), &e("knows"), &e("b")));
        assert_eq!(st.len(), 4);
    }

    #[test]
    fn insert_where_instantiates_via_pipeline() {
        let mut st = store();
        // Everyone ?s knows becomes someone ?s e:met.
        let u = parse_update(
            "PREFIX e: <http://e/> INSERT { ?s e:met ?o } WHERE { ?s e:knows ?o }",
        )
        .unwrap();
        let d = evaluate_update(&st, &u).unwrap();
        assert_eq!(d.insert.len(), 3);
        assert!(d.delete.is_empty());
        let (ins, del) = apply_delta(&mut st, &d);
        assert_eq!((ins, del), (3, 0));
        assert!(st.contains(&e("a"), &e("met"), &e("b")));
        assert!(st.contains(&e("b"), &e("met"), &e("c")));
        // Idempotent: re-running inserts nothing new (the WHERE group
        // still matches only the e:knows triples).
        let d2 = evaluate_update(&st, &u).unwrap();
        assert_eq!(apply_delta(&mut st, &d2), (0, 0));
    }

    #[test]
    fn insert_where_with_constant_template_parts() {
        let mut st = store();
        let u = parse_update(
            "PREFIX e: <http://e/> \
             INSERT { ?s e:type e:Person } WHERE { ?s e:knows ?o }",
        )
        .unwrap();
        let d = evaluate_update(&st, &u).unwrap();
        // Two distinct subjects (a, b) — dedup collapses repeated rows.
        assert_eq!(d.insert.len(), 2);
        apply_delta(&mut st, &d);
        assert!(st.contains(&e("a"), &e("type"), &e("Person")));
        assert!(st.contains(&e("b"), &e("type"), &e("Person")));
    }

    #[test]
    fn insert_where_unbound_template_var_is_parse_error() {
        let err = parse_update(
            "PREFIX e: <http://e/> INSERT { ?s e:met ?x } WHERE { ?s e:knows ?o }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("?x"), "got: {err}");
    }

    #[test]
    fn insert_where_then_delete_where_in_one_request() {
        let mut st = store();
        // Copy e:knows to e:met, then drop the originals — evaluated
        // against the same starting state, applied deletes-then-inserts.
        let u = parse_update(
            "PREFIX e: <http://e/> \
             INSERT { ?s e:met ?o } WHERE { ?s e:knows ?o } ; \
             DELETE WHERE { ?s e:knows ?o }",
        )
        .unwrap();
        let d = evaluate_update(&st, &u).unwrap();
        let (ins, del) = apply_delta(&mut st, &d);
        assert_eq!((ins, del), (3, 3));
        assert!(st.contains(&e("a"), &e("met"), &e("b")));
        assert!(!st.contains(&e("a"), &e("knows"), &e("b")));
        assert_eq!(st.len(), 4);
    }

    #[test]
    fn evaluate_does_not_mutate() {
        let st = store();
        let u = parse_update("PREFIX e: <http://e/> DELETE WHERE { ?s ?p ?o }").unwrap();
        let d = evaluate_update(&st, &u).unwrap();
        assert_eq!(d.delete.len(), 4);
        assert_eq!(st.len(), 4, "evaluation is read-only");
    }
}
