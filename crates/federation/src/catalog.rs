//! Endpoint statistics for source selection.

use crate::endpoint::Endpoint;
use ee_geo::Envelope;
use ee_rdf::term::TermRef;
use std::collections::HashMap;

/// Per-endpoint statistics.
#[derive(Debug, Clone)]
pub struct EndpointStats {
    /// Triple count per predicate IRI.
    pub predicate_counts: HashMap<String, usize>,
    /// Union envelope of all geometry literals in the source.
    pub extent: Envelope,
    /// Total triples.
    pub total: usize,
}

impl EndpointStats {
    /// Does the source hold any triples with this predicate?
    pub fn has_predicate(&self, iri: &str) -> bool {
        self.predicate_counts.get(iri).copied().unwrap_or(0) > 0
    }
}

/// The federation's statistics catalogue (harvested once at registration,
/// exactly as Semagrow builds its metadata from endpoint VoID/histograms).
#[derive(Debug, Clone, Default)]
pub struct FederationCatalog {
    stats: Vec<EndpointStats>,
}

impl FederationCatalog {
    /// Harvest statistics from a set of endpoints.
    pub fn build(endpoints: &[Endpoint]) -> Self {
        let stats = endpoints
            .iter()
            .map(|ep| {
                let mut predicate_counts: HashMap<String, usize> = HashMap::new();
                let mut extent = Envelope::empty();
                let mut total = 0;
                let dict = &ep.store().dict;
                for (_, p, o) in ep.store().id_triples() {
                    total += 1;
                    if let TermRef::Iri(iri) = dict.term(p) {
                        *predicate_counts.entry(iri.to_string()).or_insert(0) += 1;
                    }
                    if let Some(env) = dict.envelope_of(o) {
                        extent = extent.union(&env);
                    }
                }
                EndpointStats {
                    predicate_counts,
                    extent,
                    total,
                }
            })
            .collect();
        Self { stats }
    }

    /// Stats for endpoint `i`.
    pub fn stats(&self, i: usize) -> &EndpointStats {
        &self.stats[i]
    }

    /// Number of endpoints.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// True when no endpoints are registered.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Which endpoints can contribute to a pattern with this predicate
    /// (None = variable predicate → all endpoints), optionally restricted
    /// to those whose spatial extent intersects `region`.
    pub fn relevant(
        &self,
        predicate: Option<&str>,
        region: Option<&Envelope>,
        spatially_bound: bool,
    ) -> Vec<usize> {
        (0..self.stats.len())
            .filter(|&i| {
                let s = &self.stats[i];
                let pred_ok = match predicate {
                    Some(iri) => s.has_predicate(iri),
                    None => s.total > 0,
                };
                let region_ok = match (region, spatially_bound) {
                    (Some(r), true) => !s.extent.is_empty() && s.extent.intersects(r),
                    _ => true,
                };
                pred_ok && region_ok
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee_rdf::{Term, TripleStore};

    fn t(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    fn geo_endpoint(name: &str, x: f64) -> Endpoint {
        let mut st = TripleStore::new();
        st.insert(&t("f"), &t("hasGeom"), &Term::wkt(format!("POINT ({x} 0)")));
        st.insert(&t("f"), &t("label"), &Term::string(name));
        Endpoint::new(name, st)
    }

    #[test]
    fn harvest_counts_and_extent() {
        let eps = vec![geo_endpoint("west", -10.0), geo_endpoint("east", 50.0)];
        let cat = FederationCatalog::build(&eps);
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.stats(0).total, 2);
        assert!(cat.stats(0).has_predicate("http://e/hasGeom"));
        assert!(!cat.stats(0).has_predicate("http://e/unknown"));
        assert_eq!(cat.stats(0).extent.min_x, -10.0);
        assert_eq!(cat.stats(1).extent.min_x, 50.0);
    }

    #[test]
    fn relevance_by_predicate() {
        let mut st = TripleStore::new();
        st.insert(&t("a"), &t("onlyHere"), &t("b"));
        let eps = vec![geo_endpoint("geo", 0.0), Endpoint::new("other", st)];
        let cat = FederationCatalog::build(&eps);
        assert_eq!(cat.relevant(Some("http://e/onlyHere"), None, false), vec![1]);
        assert_eq!(cat.relevant(Some("http://e/hasGeom"), None, false), vec![0]);
        assert_eq!(cat.relevant(None, None, false), vec![0, 1]);
    }

    #[test]
    fn relevance_by_region() {
        let eps = vec![geo_endpoint("west", -10.0), geo_endpoint("east", 50.0)];
        let cat = FederationCatalog::build(&eps);
        let west_region = Envelope::new(-20.0, -5.0, -5.0, 5.0);
        let both = cat.relevant(Some("http://e/hasGeom"), Some(&west_region), false);
        assert_eq!(both, vec![0, 1], "region ignored unless spatially bound");
        let pruned = cat.relevant(Some("http://e/hasGeom"), Some(&west_region), true);
        assert_eq!(pruned, vec![0], "east endpoint pruned by extent");
    }
}
