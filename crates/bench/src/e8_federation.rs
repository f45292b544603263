//! E8 — federated query answering over distributed geospatial sources.
//!
//! Paper (C3, ref \[3\]): "the engine Semagrow will be extended so that it
//! can manage efficiently federations of big geospatial data sources and
//! answer extreme geospatial analytical queries." We compare the
//! optimised plan (source selection + bind joins) against the naive
//! broadcast baseline on requests, transfer and latency.

use crate::table::{fmt_secs, Table};
use crate::Scale;
use ee_federation::{federated_query, Endpoint, FederationCatalog, Mode};
use ee_rdf::term::Term;
use ee_rdf::TripleStore;
use ee_util::Rng;
use std::time::Instant;

/// Build a federation: a crops source, an ice source (different spatial
/// extent), and a names source, `n` features each.
pub fn federation(n: usize, seed: u64) -> Vec<Endpoint> {
    let mut rng = Rng::seed_from(seed);
    let mut crops = TripleStore::new();
    let mut names = TripleStore::new();
    let t = |s: &str| Term::iri(format!("http://e/{s}"));
    for i in 0..n {
        let f = t(&format!("field{i}"));
        let crop = if rng.chance(0.4) { "wheat" } else { "maize" };
        crops.insert(&f, &t("cropType"), &Term::string(crop));
        let x = rng.range_f64(0.0, 50.0);
        let y = rng.range_f64(0.0, 10.0);
        crops.insert(&f, &t("hasGeom"), &Term::wkt(format!("POINT ({x} {y})")));
        names.insert(&f, &t("name"), &Term::string(format!("Field {i}")));
    }
    crops.build_spatial_index();
    let mut ice = TripleStore::new();
    for i in 0..n {
        let f = t(&format!("floe{i}"));
        ice.insert(&f, &t("iceType"), &Term::string("first-year"));
        let x = rng.range_f64(0.0, 50.0);
        let y = rng.range_f64(75.0, 85.0);
        ice.insert(&f, &t("hasGeom"), &Term::wkt(format!("POINT ({x} {y})")));
    }
    ice.build_spatial_index();
    vec![
        Endpoint::new("crops", crops),
        Endpoint::new("ice", ice),
        Endpoint::new("names", names),
    ]
}

/// The benchmark query: wheat fields joined to their names.
pub const JOIN_QUERY: &str = "PREFIX e: <http://e/> SELECT ?f ?n WHERE { \
    ?f e:cropType \"wheat\" . ?f e:name ?n }";

/// The spatial query: features in a box that only the crops extent covers.
pub const SPATIAL_QUERY: &str = "PREFIX e: <http://e/> SELECT ?f WHERE { \
    ?f e:hasGeom ?g . \
    FILTER(geof:sfWithin(?g, \"POLYGON ((0 0, 50 0, 50 10, 0 10, 0 0))\"^^geo:wktLiteral)) }";

/// Run E8.
pub fn run(scale: Scale) -> Vec<Table> {
    let n = match scale {
        Scale::Quick => 500usize,
        Scale::Full => 5000,
    };
    let endpoints = federation(n, 3);
    let catalog = FederationCatalog::build(&endpoints);
    let mut table = Table::new(
        "E8 — federated query: Semagrow-style optimisation vs naive broadcast",
        "Source selection drops irrelevant endpoints (by predicate and by spatial \
         extent); bind joins ship bindings instead of pulling whole tables.",
        &[
            "query",
            "plan",
            "requests",
            "triples transferred",
            "rows",
            "latency",
        ],
    );
    for (name, q) in [("join", JOIN_QUERY), ("spatial", SPATIAL_QUERY)] {
        for (plan, mode) in [("naive", Mode::Naive), ("optimized", Mode::Optimized)] {
            let t0 = Instant::now();
            let report = federated_query(&endpoints, &catalog, q, mode).expect("query");
            let secs = t0.elapsed().as_secs_f64();
            table.row(vec![
                name.into(),
                plan.into(),
                report.total_requests.to_string(),
                report.triples_transferred.to_string(),
                report.rows.len().to_string(),
                fmt_secs(secs),
            ]);
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimized_transfers_less_and_agrees() {
        let tables = run(Scale::Quick);
        let rows = &tables[0].rows;
        // join query: rows 0 (naive) and 1 (optimized).
        let transferred = |i: usize| -> u64 { rows[i][3].parse().unwrap() };
        let count = |i: usize| -> usize { rows[i][4].parse().unwrap() };
        assert_eq!(count(0), count(1), "same answers");
        assert!(transferred(1) < transferred(0), "bind join transfers less");
        // spatial query: rows 2/3.
        assert_eq!(count(2), count(3));
        let requests = |i: usize| -> u64 { rows[i][2].parse().unwrap() };
        assert!(requests(3) < requests(2), "source selection saves requests");
    }

    #[test]
    fn cost_meters_are_pinned_at_quick_scale() {
        let endpoints = federation(500, 3);
        let catalog = FederationCatalog::build(&endpoints);
        let mut meters = Vec::new();
        for q in [JOIN_QUERY, SPATIAL_QUERY] {
            for mode in [Mode::Naive, Mode::Optimized] {
                let r = federated_query(&endpoints, &catalog, q, mode).unwrap();
                meters.push((
                    r.total_requests,
                    r.bindings_shipped,
                    r.triples_transferred,
                    r.rows.len(),
                ));
            }
        }
        // (requests, bindings shipped, triples transferred, rows) for
        // join/naive, join/optimized, spatial/naive, spatial/optimized.
        assert_eq!(
            meters,
            vec![
                (6, 0, 690, 190),
                (2, 190, 380, 190),
                (3, 0, 1000, 500),
                (1, 0, 500, 500),
            ]
        );
    }
}
