//! The federated evaluator: a mediator over `ee-rdf`'s executor.
//!
//! Federation decides *what is shipped*; `ee-rdf` decides *what it
//! means*. [`federated_query`] plans the query logically
//! ([`ee_rdf::plan::logical`]: the endpoints share no dictionary) and
//! fetches its patterns in the order of the plan's `Scan`/`Probe`
//! steps. Each pattern goes to its sources: every endpoint in
//! [`Mode::Naive`]; in [`Mode::Optimized`] only those whose catalog
//! holds its predicate and, for the pattern that binds the spatially
//! filtered variable, whose extent meets the plan's region. In optimized mode a pattern whose
//! subject (else object) variable an earlier pattern binds ships as a
//! bind join over that variable's distinct values; every other pattern
//! is broadcast.
//!
//! Every fetched triple goes into one mediator [`TripleStore`]. The bind
//! values, the early stop on an empty intermediate and the answer itself
//! are all queries on the mediator, planned by [`ee_rdf::plan::plan`] and
//! run by [`ee_rdf::exec::execute_plan_view`]. The fetches cover every
//! triple a solution can use, so the answer is the query over the union
//! of the endpoints.

use crate::catalog::FederationCatalog;
use crate::endpoint::Endpoint;
use crate::FedError;
use ee_rdf::exec::{execute_plan_view, Solutions};
use ee_rdf::parser::{parse_query, PatternTerm, Query, SelectItem, TriplePattern};
use ee_rdf::plan::{Plan, Step};
use ee_rdf::term::Term;
use ee_rdf::TripleStore;
use ee_util::par;
use std::sync::Arc;

/// Federation execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Broadcast every pattern to every endpoint; join locally.
    Naive,
    /// Source selection (predicate + spatial extent) and bind joins.
    Optimized,
}

/// The result of a federated query, with the cost metrics E8 reports.
#[derive(Debug)]
pub struct FedReport {
    /// The answer: the query run on the mediator.
    pub rows: Solutions,
    /// (endpoint name, requests served) pairs.
    pub requests: Vec<(String, u64)>,
    /// Sum of requests over endpoints.
    pub total_requests: u64,
    /// Total bindings shipped in bind joins.
    pub bindings_shipped: u64,
    /// Intermediate triples pulled from endpoints (transfer volume proxy).
    pub triples_transferred: u64,
}

/// Run a query against the federation.
pub fn federated_query(
    endpoints: &[Endpoint],
    catalog: &FederationCatalog,
    sparql: &str,
    mode: Mode,
) -> Result<FedReport, FedError> {
    let q = parse_query(sparql)?;
    let plan = ee_rdf::plan::logical(&q)?;
    for step in &plan.steps {
        match step {
            Step::LeftJoin(_) => {
                return Err(FedError::Unsupported(
                    "OPTIONAL is not federated; run it at the client".into(),
                ))
            }
            Step::Count(_) | Step::GroupCount(_) | Step::Aggregate(_) => {
                return Err(FedError::Unsupported("GROUP BY and aggregates are not federated".into()))
            }
            _ => {}
        }
    }
    for ep in endpoints {
        ep.reset_meters();
    }
    let mut mediator = TripleStore::new();
    let mut triples_transferred = 0u64;
    let mut fetched: Vec<TriplePattern> = Vec::new();
    for pi in plan.join_order() {
        let pattern = &plan.patterns[pi];
        let bind = match mode {
            Mode::Optimized => bind_var(pattern, &fetched),
            Mode::Naive => None,
        };
        // The intermediate so far: the bind values, or any one row.
        let mut values = Vec::new();
        if !fetched.is_empty() {
            values = solve(&mediator, &fetched, bind.map(|(v, _)| v))?.rows;
            if values.is_empty() {
                break;
            }
        }
        let [s, p, o] = [&pattern.s, &pattern.p, &pattern.o].map(constant);
        for ei in sources(endpoints, catalog, &plan, pattern, mode) {
            let batches = match bind {
                // An object constant rides along only when binding the subject.
                Some((_, subject)) => {
                    let bindings: Vec<Option<&Term>> =
                        values.iter().map(|row| row[0].as_ref()).collect();
                    endpoints[ei].bind_join(&bindings, p, o.filter(|_| subject), subject)
                }
                None => vec![endpoints[ei].match_pattern(s, p, o)],
            };
            for &(ts, tp, to) in batches.iter().flatten() {
                triples_transferred += 1;
                mediator.insert(ts, tp, to);
            }
        }
        fetched.push(pattern.clone());
    }
    mediator.pack();
    let rows = run(&mediator, &q)?;
    let requests: Vec<(String, u64)> = endpoints
        .iter()
        .map(|e| (e.name.clone(), e.requests()))
        .collect();
    let total_requests = requests.iter().map(|(_, r)| r).sum();
    let bindings_shipped = endpoints.iter().map(|e| e.bindings_shipped()).sum();
    Ok(FedReport {
        rows,
        requests,
        total_requests,
        bindings_shipped,
        triples_transferred,
    })
}

/// The endpoints `pattern` is shipped to under `mode`.
fn sources(
    endpoints: &[Endpoint],
    catalog: &FederationCatalog,
    plan: &Plan,
    pattern: &TriplePattern,
    mode: Mode,
) -> Vec<usize> {
    match mode {
        Mode::Naive => (0..endpoints.len()).collect(),
        Mode::Optimized => {
            let predicate = match &pattern.p {
                PatternTerm::Const(Term::Iri(iri)) => Some(iri.as_str()),
                _ => None,
            };
            // Spatial restriction applies when this pattern binds the
            // filtered geometry variable in object position.
            let spatially_bound = matches!(
                (&pattern.o, &plan.region),
                (PatternTerm::Var(v), Some((rv, _))) if v == rv
            );
            catalog.relevant(
                predicate,
                plan.region.as_ref().map(|(_, e)| e),
                spatially_bound,
            )
        }
    }
}

/// The variable a bind join ships for `pattern`: its subject, else its
/// object, when a fetched pattern binds it (`true` = subject).
fn bind_var<'p>(pattern: &'p TriplePattern, fetched: &[TriplePattern]) -> Option<(&'p str, bool)> {
    let bound = |t: &'p PatternTerm| match t {
        PatternTerm::Var(v) if fetched.iter().any(|f| [&f.s, &f.p, &f.o].contains(&t)) => {
            Some(v.as_str())
        }
        _ => None,
    };
    bound(&pattern.s)
        .map(|v| (v, true))
        .or_else(|| bound(&pattern.o).map(|v| (v, false)))
}

fn constant(t: &PatternTerm) -> Option<&Term> {
    match t {
        PatternTerm::Const(c) => Some(c),
        PatternTerm::Var(_) => None,
    }
}

/// `SELECT DISTINCT ?var` over `patterns` on the mediator; without a
/// variable, any one row.
fn solve(
    mediator: &TripleStore,
    patterns: &[TriplePattern],
    var: Option<&str>,
) -> Result<Solutions, FedError> {
    run(
        mediator,
        &Query {
            select: var
                .map(|v| SelectItem::Var(v.to_string()))
                .into_iter()
                .collect(),
            star: var.is_none(),
            distinct: true,
            patterns: patterns.to_vec(),
            optionals: Vec::new(),
            filters: Vec::new(),
            group_by: Vec::new(),
            order_by: None,
            limit: var.map_or(Some(1), |_| None),
            offset: None,
            as_of: None,
        },
    )
}

fn run(mediator: &TripleStore, q: &Query) -> Result<Solutions, FedError> {
    let plan = Arc::new(ee_rdf::plan::plan(mediator, q)?);
    Ok(execute_plan_view(mediator, plan, par::available_threads())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee_rdf::TripleStore;

    fn t(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    /// Three endpoints: a crops source, an ice source, a places source.
    fn federation() -> Vec<Endpoint> {
        let mut crops = TripleStore::new();
        for i in 0..5 {
            let f = t(&format!("field{i}"));
            crops.insert(&f, &t("cropType"), &Term::string(if i % 2 == 0 { "wheat" } else { "maize" }));
            crops.insert(
                &f,
                &t("hasGeom"),
                &Term::wkt(format!("POINT ({} 0.5)", i as f64 + 0.5)),
            );
        }
        crops.pack();
        let mut ice = TripleStore::new();
        for i in 0..4 {
            let f = t(&format!("floe{i}"));
            ice.insert(&f, &t("iceType"), &Term::string("first-year"));
            ice.insert(
                &f,
                &t("hasGeom"),
                &Term::wkt(format!("POINT ({} 80.5)", i as f64 + 0.5)),
            );
        }
        ice.pack();
        let mut places = TripleStore::new();
        for i in 0..5 {
            places.insert(
                &t(&format!("field{i}")),
                &t("name"),
                &Term::string(format!("Field {i}")),
            );
        }
        vec![
            Endpoint::new("crops", crops),
            Endpoint::new("ice", ice),
            Endpoint::new("places", places),
        ]
    }

    const QUERY: &str = "PREFIX e: <http://e/> SELECT ?f ?n WHERE { \
        ?f e:cropType \"wheat\" . ?f e:name ?n }";

    #[test]
    fn naive_and_optimized_agree() {
        let eps = federation();
        let cat = FederationCatalog::build(&eps);
        let naive = federated_query(&eps, &cat, QUERY, Mode::Naive).unwrap();
        let opt = federated_query(&eps, &cat, QUERY, Mode::Optimized).unwrap();
        let norm = |r: &FedReport| {
            let mut rows: Vec<Vec<String>> = r
                .rows
                .rows
                .iter()
                .map(|row| row.iter().map(|t| t.as_ref().unwrap().ntriples()).collect())
                .collect();
            rows.sort();
            (r.rows.vars.clone(), rows)
        };
        assert_eq!(norm(&naive), norm(&opt));
        assert_eq!(naive.rows.len(), 3, "wheat fields 0, 2, 4");
    }

    #[test]
    fn optimized_sends_fewer_requests() {
        let eps = federation();
        let cat = FederationCatalog::build(&eps);
        let naive = federated_query(&eps, &cat, QUERY, Mode::Naive).unwrap();
        let opt = federated_query(&eps, &cat, QUERY, Mode::Optimized).unwrap();
        assert!(
            opt.total_requests < naive.total_requests,
            "optimized {} vs naive {}",
            opt.total_requests,
            naive.total_requests
        );
        // The ice endpoint serves nothing in the optimised plan.
        let ice_requests = opt
            .requests
            .iter()
            .find(|(n, _)| n == "ice")
            .map(|(_, r)| *r)
            .unwrap();
        assert_eq!(ice_requests, 0, "source selection prunes the ice endpoint");
        assert!(opt.triples_transferred <= naive.triples_transferred);
    }

    #[test]
    fn bind_join_reduces_transfer() {
        let eps = federation();
        let cat = FederationCatalog::build(&eps);
        let opt = federated_query(&eps, &cat, QUERY, Mode::Optimized).unwrap();
        assert!(
            opt.bindings_shipped > 0,
            "second pattern ran as a bind join"
        );
        // The naive plan pulls the full name table (5 triples); the bind
        // join pulls only the wheat fields' names (3).
        let naive = federated_query(&eps, &cat, QUERY, Mode::Naive).unwrap();
        assert!(opt.triples_transferred < naive.triples_transferred);
    }

    #[test]
    fn spatial_source_selection_prunes_by_extent() {
        let eps = federation();
        let cat = FederationCatalog::build(&eps);
        // A geometry query over the equator region: ice (at lat ~80) is
        // irrelevant even though it has the hasGeom predicate.
        let q = "PREFIX e: <http://e/> SELECT ?f WHERE { ?f e:hasGeom ?g . \
                 FILTER(geof:sfWithin(?g, \"POLYGON ((0 0, 10 0, 10 2, 0 2, 0 0))\"^^geo:wktLiteral)) }";
        let opt = federated_query(&eps, &cat, q, Mode::Optimized).unwrap();
        assert_eq!(opt.rows.len(), 5, "all crop fields in the region");
        let ice_requests = opt
            .requests
            .iter()
            .find(|(n, _)| n == "ice")
            .map(|(_, r)| *r)
            .unwrap();
        assert_eq!(ice_requests, 0, "extent-disjoint endpoint pruned");
        // Naive mode pays the ice endpoint anyway.
        let naive = federated_query(&eps, &cat, q, Mode::Naive).unwrap();
        assert_eq!(naive.rows.len(), 5);
        assert!(naive.requests.iter().find(|(n, _)| n == "ice").unwrap().1 > 0);
    }

    #[test]
    fn distinct_and_limit() {
        let eps = federation();
        let cat = FederationCatalog::build(&eps);
        let q = "PREFIX e: <http://e/> SELECT DISTINCT ?c WHERE { ?f e:cropType ?c } LIMIT 1";
        let r = federated_query(&eps, &cat, q, Mode::Optimized).unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn unsupported_features_rejected() {
        let eps = federation();
        let cat = FederationCatalog::build(&eps);
        for q in [
            "SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { ?s ?q ?r } }",
            "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
        ] {
            assert!(matches!(
                federated_query(&eps, &cat, q, Mode::Optimized),
                Err(FedError::Unsupported(_))
            ));
        }
    }

    #[test]
    fn empty_result_when_nothing_matches() {
        let eps = federation();
        let cat = FederationCatalog::build(&eps);
        let q = "PREFIX e: <http://e/> SELECT ?f WHERE { ?f e:cropType \"rice\" }";
        let r = federated_query(&eps, &cat, q, Mode::Optimized).unwrap();
        assert!(r.rows.is_empty());
    }

    fn requests_per_endpoint(r: &FedReport) -> Vec<(&str, u64)> {
        r.requests.iter().map(|(n, c)| (n.as_str(), *c)).collect()
    }

    #[test]
    fn source_selection_meters_requests_per_endpoint() {
        let eps = federation();
        let cat = FederationCatalog::build(&eps);
        // cropType goes only to crops (a broadcast); name only to places
        // (one bind join); ice holds neither predicate.
        let opt = federated_query(&eps, &cat, QUERY, Mode::Optimized).unwrap();
        assert_eq!(
            requests_per_endpoint(&opt),
            vec![("crops", 1), ("ice", 0), ("places", 1)]
        );
        assert_eq!(opt.bindings_shipped, 3, "wheat fields 0, 2, 4");
        let naive = federated_query(&eps, &cat, QUERY, Mode::Naive).unwrap();
        assert_eq!(
            requests_per_endpoint(&naive),
            vec![("crops", 2), ("ice", 2), ("places", 2)]
        );
        assert_eq!(naive.bindings_shipped, 0);
    }

    #[test]
    fn every_call_plans_and_meters_afresh() {
        let eps = federation();
        let cat = FederationCatalog::build(&eps);
        let first = federated_query(&eps, &cat, QUERY, Mode::Optimized).unwrap();
        // Same query with different whitespace, run again: the meters are
        // reset per call, so it reports exactly what the first call did.
        let respaced = QUERY.replace(" . ", " \n . ");
        let second = federated_query(&eps, &cat, &respaced, Mode::Optimized).unwrap();
        assert_eq!(second.rows, first.rows);
        assert_eq!(
            requests_per_endpoint(&second),
            requests_per_endpoint(&first)
        );
        assert_eq!(second.triples_transferred, first.triples_transferred);
        assert_eq!(second.bindings_shipped, first.bindings_shipped);
        // Parse errors surface before anything is shipped.
        assert!(matches!(
            federated_query(&eps, &cat, "nonsense", Mode::Naive),
            Err(FedError::Parse(_))
        ));
        assert_eq!(
            eps.iter().map(Endpoint::requests).sum::<u64>(),
            2,
            "meters untouched"
        );
    }
}
