//! Oracle: a federated query answers exactly what the naive evaluator
//! (`ee_rdf::naive`) answers over the union of the endpoints' triples, in
//! both modes — ordering, slicing, duplicates across endpoints, joins
//! across endpoints, variable predicates, DISTINCT and spatial filters
//! included. The mediator answers through the engine's planner and
//! executor, so the reference shares none of that code.

use ee_federation::{federated_query, Endpoint, FederationCatalog, Mode};
use ee_rdf::exec::Solutions;
use ee_rdf::term::Term;
use ee_rdf::TripleStore;

fn t(n: &str) -> Term {
    Term::iri(format!("http://e/{n}"))
}

type Triple = (Term, Term, Term);

/// Four sources. `crops` and `names` both hold `f0 cropType "wheat"`;
/// `ice` lies far north of every field.
fn sources() -> Vec<(&'static str, Vec<Triple>)> {
    let mut crops = Vec::new();
    let mut names = Vec::new();
    let mut owners = Vec::new();
    for i in 0..6 {
        let f = t(&format!("f{i}"));
        let crop = if i % 2 == 0 { "wheat" } else { "maize" };
        crops.push((f.clone(), t("cropType"), Term::string(crop)));
        crops.push((
            f.clone(),
            t("hasGeom"),
            Term::wkt(format!("POINT ({} 0.5)", i as f64 + 0.5)),
        ));
        crops.push((f.clone(), t("area"), Term::integer(100 - 10 * i)));
        names.push((f.clone(), t("name"), Term::string(format!("Field {i}"))));
        names.push((f, t("owner"), t(&format!("o{}", i % 3))));
    }
    names.push((t("f0"), t("cropType"), Term::string("wheat")));
    for j in 0..3 {
        owners.push((
            t(&format!("o{j}")),
            t("label"),
            Term::string(format!("Owner {j}")),
        ));
    }
    let mut ice = Vec::new();
    for i in 0..3 {
        let f = t(&format!("floe{i}"));
        ice.push((f.clone(), t("iceType"), Term::string("first-year")));
        ice.push((
            f,
            t("hasGeom"),
            Term::wkt(format!("POINT ({} 80.5)", i as f64 + 0.5)),
        ));
    }
    vec![
        ("crops", crops),
        ("names", names),
        ("owners", owners),
        ("ice", ice),
    ]
}

fn store(triples: &[Triple]) -> TripleStore {
    let mut st = TripleStore::new();
    for (s, p, o) in triples {
        st.insert(s, p, o);
    }
    st.pack();
    st
}

/// Rows as N-Triples strings; sorted unless the query fixes an order.
fn canonical(s: &Solutions, ordered: bool) -> (Vec<String>, Vec<Vec<String>>) {
    let mut rows: Vec<Vec<String>> = s
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|t| t.as_ref().map_or("UNBOUND".into(), Term::ntriples))
                .collect()
        })
        .collect();
    if !ordered {
        rows.sort();
    }
    (s.vars.clone(), rows)
}

const QUERIES: &[(&str, &str)] = &[
    (
        "order by, limit",
        "SELECT ?f ?v WHERE { ?f e:area ?v } ORDER BY ?v LIMIT 2",
    ),
    (
        "order by, offset",
        "SELECT ?f WHERE { ?f e:name ?n } ORDER BY ?f OFFSET 4",
    ),
    (
        "triple held by two endpoints",
        "SELECT ?f WHERE { ?f e:cropType \"wheat\" }",
    ),
    (
        "star join across endpoints",
        "SELECT ?f ?c ?n WHERE { ?f e:cropType ?c . ?f e:name ?n }",
    ),
    (
        "chain join across endpoints",
        "SELECT ?f ?l WHERE { ?f e:cropType \"maize\" . ?f e:owner ?o . ?o e:label ?l }",
    ),
    ("variable predicate", "SELECT ?p ?o WHERE { e:f1 ?p ?o }"),
    ("distinct", "SELECT DISTINCT ?c WHERE { ?f e:cropType ?c }"),
    (
        "sfWithin filter",
        "SELECT ?f ?n WHERE { ?f e:hasGeom ?g . ?f e:name ?n . \
         FILTER(geof:sfWithin(?g, \"POLYGON ((0 0, 3 0, 3 1, 0 1, 0 0))\"^^geo:wktLiteral)) }",
    ),
];

#[test]
fn federated_answers_equal_one_store_over_the_union() {
    let sources = sources();
    // The union graph is a set: a triple two endpoints hold counts once.
    let union: std::collections::BTreeSet<Triple> = sources
        .iter()
        .flat_map(|(_, ts)| ts.iter().cloned())
        .collect();
    let union: Vec<Triple> = union.into_iter().collect();
    let endpoints: Vec<Endpoint> = sources
        .iter()
        .map(|(name, ts)| Endpoint::new(*name, store(ts)))
        .collect();
    let catalog = FederationCatalog::build(&endpoints);
    let mut failures = Vec::new();
    for (label, body) in QUERIES {
        let sparql = format!("PREFIX e: <http://e/> {body}");
        let ordered = sparql.contains("ORDER BY");
        let expected = canonical(&ee_rdf::naive::query(&union, &sparql).unwrap(), ordered);
        assert!(
            !expected.1.is_empty(),
            "{label}: the oracle answer is empty"
        );
        for mode in [Mode::Naive, Mode::Optimized] {
            let report = federated_query(&endpoints, &catalog, &sparql, mode).unwrap();
            let got = canonical(&report.rows, ordered);
            if got != expected {
                failures.push(format!(
                    "{label} ({mode:?}): got {got:?}, want {expected:?}"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
