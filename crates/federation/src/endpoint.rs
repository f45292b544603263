//! The endpoint abstraction: a named remote store with request metering.

use ee_rdf::term::Term;
use ee_rdf::TripleStore;
use std::sync::atomic::{AtomicU64, Ordering};

/// A federated data source.
pub struct Endpoint {
    /// Human-readable name (used in reports).
    pub name: String,
    store: TripleStore,
    requests: AtomicU64,
    bindings_shipped: AtomicU64,
}

impl Endpoint {
    /// Wrap a store.
    pub fn new(name: impl Into<String>, store: TripleStore) -> Self {
        Self {
            name: name.into(),
            store,
            requests: AtomicU64::new(0),
            bindings_shipped: AtomicU64::new(0),
        }
    }

    /// The underlying store (for statistics harvesting).
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// Requests served so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Total bindings shipped in bind-join requests.
    pub fn bindings_shipped(&self) -> u64 {
        self.bindings_shipped.load(Ordering::Relaxed)
    }

    /// Reset meters (between experiment runs).
    pub fn reset_meters(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.bindings_shipped.store(0, Ordering::Relaxed);
    }

    /// Serve one triple-pattern request. `None` positions are wildcards.
    /// Each call counts as one remote request.
    pub fn match_pattern(
        &self,
        s: Option<&Term>,
        p: Option<&Term>,
        o: Option<&Term>,
    ) -> Vec<(Term, Term, Term)> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.probe(s, p, o)
    }

    /// A bind-join request: the pattern instantiated once per binding.
    /// Counts one request plus the shipped-bindings volume.
    pub fn bind_join(
        &self,
        bindings: &[Option<&Term>],
        p: Option<&Term>,
        o: Option<&Term>,
        bind_subject: bool,
    ) -> Vec<Vec<(Term, Term, Term)>> {
        self.bindings_shipped
            .fetch_add(bindings.len() as u64, Ordering::Relaxed);
        // One network round trip for the whole batch (VALUES-style), but
        // the store is probed per binding.
        self.requests.fetch_add(1, Ordering::Relaxed);
        bindings
            .iter()
            .map(|b| {
                if bind_subject {
                    self.probe(*b, p, o)
                } else {
                    self.probe(None, p, *b)
                }
            })
            .collect()
    }

    /// The unmetered store lookup behind both request kinds.
    fn probe(
        &self,
        s: Option<&Term>,
        p: Option<&Term>,
        o: Option<&Term>,
    ) -> Vec<(Term, Term, Term)> {
        // `Some(None)` is a wildcard; `None` is a term the store has never
        // seen, which matches nothing.
        let id = |t: Option<&Term>| match t {
            Some(t) => self.store.dict.id_of(t).map(Some),
            None => Some(None),
        };
        let (Some(sid), Some(pid), Some(oid)) = (id(s), id(p), id(o)) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        self.store
            .match_pattern(sid, pid, oid, &mut |(ts, tp, to)| {
                out.push((
                    self.store.dict.term(ts).clone(),
                    self.store.dict.term(tp).clone(),
                    self.store.dict.term(to).clone(),
                ));
                true
            });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    fn endpoint() -> Endpoint {
        let mut st = TripleStore::new();
        st.insert(&t("a"), &t("p"), &t("b"));
        st.insert(&t("a"), &t("p"), &t("c"));
        st.insert(&t("x"), &t("q"), &t("y"));
        Endpoint::new("ep1", st)
    }

    #[test]
    fn pattern_requests_are_metered() {
        let ep = endpoint();
        let rows = ep.match_pattern(None, Some(&t("p")), None);
        assert_eq!(rows.len(), 2);
        assert_eq!(ep.requests(), 1);
        let rows = ep.match_pattern(Some(&t("x")), None, None);
        assert_eq!(rows.len(), 1);
        assert_eq!(ep.requests(), 2);
    }

    #[test]
    fn unknown_terms_return_empty_fast() {
        let ep = endpoint();
        assert!(ep.match_pattern(Some(&t("nope")), None, None).is_empty());
        assert_eq!(ep.requests(), 1, "still a request");
    }

    #[test]
    fn bind_join_ships_bindings_once() {
        let ep = endpoint();
        let a = t("a");
        let x = t("x");
        let bindings = vec![Some(&a), Some(&x)];
        let p = t("p");
        let results = ep.bind_join(&bindings, Some(&p), None, true);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].len(), 2, "a has two p-objects");
        assert_eq!(results[1].len(), 0, "x has none");
        assert_eq!(ep.requests(), 1, "batched as one round trip");
        assert_eq!(ep.bindings_shipped(), 2);
    }

    #[test]
    fn meters_reset() {
        let ep = endpoint();
        ep.match_pattern(None, None, None);
        ep.reset_meters();
        assert_eq!(ep.requests(), 0);
        assert_eq!(ep.bindings_shipped(), 0);
    }
}
