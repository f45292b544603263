//! Differential test: the engine against the naive evaluator.
//!
//! Seeded random small stores (IRIs, integers, strings, dates, booleans,
//! points and polygons) get a short commit history; seeded random queries
//! cover BGP joins, variable predicates, `OPTIONAL`, `FILTER`
//! (comparisons, arithmetic, boolean algebra, `distance`, the three
//! spatial predicates, unknown constants), `DISTINCT`, `ORDER BY`,
//! `LIMIT`/`OFFSET` and `COUNT`/`SUM`/`AVG`/`MIN`/`MAX` with and without
//! `GROUP BY`. Each query runs on the engine at 1 and 3 threads, planned
//! with and without spatial pushdown, at the head and at every `AS OF` cut
//! of the history, and must answer what [`ee_rdf::naive`] answers over
//! the triples replayed to that cut.
//!
//! Rows compare as multisets. Under `ORDER BY` the ordered column's
//! sequence must match too. Under `LIMIT`/`OFFSET` the engine may keep any
//! of the tied rows, so it must return as many rows as the naive answer,
//! each drawn from the naive answer without the slice.

use ee_rdf::exec::{execute_plan_view, Solutions};
use ee_rdf::parser::{parse_query, Query};
use ee_rdf::plan::{plan_view, plan_without_pushdown};
use ee_rdf::storage::{Store, ROOT_COMMIT_ID};
use ee_rdf::store::{Novelty, StoreView};
use ee_rdf::term::{Term, XSD_DATE};
use ee_rdf::update::Delta;
use ee_rdf::{naive, TripleStore};
use ee_util::rng::Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

type Triple = (Term, Term, Term);

const STORES: u64 = 200;
const QUERIES_PER_STORE: usize = 14;

fn iri(n: &str) -> Term {
    Term::iri(format!("http://e/{n}"))
}

fn pick<T: Clone>(rng: &mut Rng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize].clone()
}

fn date(day: u32) -> Term {
    Term::Literal {
        lexical: format!("2017-03-{day:02}"),
        datatype: XSD_DATE.to_string(),
    }
}

fn rect(x0: u64, y0: u64, x1: u64, y1: u64) -> Term {
    Term::wkt(format!("POLYGON (({x0} {y0}, {x1} {y0}, {x1} {y1}, {x0} {y1}, {x0} {y0}))"))
}

/// Objects by kind. Every ORDER BY key is unique per term: integers and
/// dates are canonical, strings all `xsd:string`.
fn object(rng: &mut Rng, kind: u64) -> Term {
    match kind {
        // n6 and n7 are never subjects, and often not in the store at all.
        0 => iri(&format!("n{}", rng.below(8))),
        1 => Term::integer(rng.below(6) as i64 - 1),
        2 => Term::string(pick(rng, &["", "a", "b", "ab"])),
        3 => Term::wkt(format!("POINT ({} {})", rng.below(11), rng.below(11))),
        4 => {
            let (x, y) = (rng.below(8), rng.below(8));
            rect(x, y, x + 1 + rng.below(3), y + 1 + rng.below(3))
        }
        5 => date(1 + rng.below(4) as u32),
        _ => Term::boolean(rng.chance(0.5)),
    }
}

/// A random triple: mostly the predicate's own object kind, sometimes
/// any kind (so filters meet type errors).
fn triple(rng: &mut Rng) -> Triple {
    let p = rng.below(5);
    let kind = if rng.chance(0.8) {
        [0, 1, 2, 3, 4][p as usize]
    } else {
        rng.below(7)
    };
    let kind = if kind == 4 && rng.chance(0.5) { 3 } else { kind };
    (iri(&format!("n{}", rng.below(6))), iri(&format!("p{p}")), object(rng, kind))
}

/// `?a`/`?b` stand for subjects, `?c`/`?d` for objects (and variable
/// predicates).
const VARS: [&str; 4] = ["a", "b", "c", "d"];

/// What queries draw from: the variables in play and the store's own
/// triples, so that most patterns and filters meet something.
struct Pools<'a> {
    vars: &'a [&'a str],
    triples: &'a [Triple],
    /// `(variable, predicate)` of every object variable under a constant
    /// predicate so far: filters compare such a variable with the
    /// predicate's own objects, so they are rarely mere type errors.
    typed: Vec<(String, String)>,
}

impl Pools<'_> {
    fn var(&self, rng: &mut Rng) -> String {
        format!("?{}", pick(rng, self.vars))
    }

    /// A variable for a filter, with the predicate it is an object of
    /// when known; `geometric` prefers the geometry predicates.
    fn filter_var(&self, rng: &mut Rng, geometric: bool) -> (String, Option<String>) {
        let geo = |pred: &String| pred.contains("/p3>") || pred.contains("/p4>");
        let typed: Vec<&(String, String)> = self.typed.iter().filter(|(_, p)| !geometric || geo(p)).collect();
        if !typed.is_empty() && rng.chance(0.9) {
            let (v, p) = pick(rng, &typed);
            (v.clone(), Some(p.clone()))
        } else {
            (self.var(rng), None)
        }
    }

    fn subject_var(&self, rng: &mut Rng) -> String {
        format!("?{}", pick(rng, &["a", "b"]))
    }

    fn object_var(&self, rng: &mut Rng) -> String {
        format!("?{}", pick(rng, &self.vars[2..]))
    }

    /// A constant: mostly an object the store holds under `predicate`
    /// (any predicate when `None`), sometimes any term (one no store
    /// holds, now and then).
    fn constant(&self, rng: &mut Rng, predicate: Option<&str>) -> String {
        let held: Vec<&Term> = self
            .triples
            .iter()
            .filter(|(_, p, _)| predicate.is_none_or(|want| p.ntriples() == want))
            .map(|(_, _, o)| o)
            .collect();
        if !held.is_empty() && rng.chance(0.8) {
            pick(rng, &held).ntriples()
        } else {
            let kind = rng.below(7);
            object(rng, kind).ntriples()
        }
    }
}

/// A triple pattern: usually a subject variable, a stored predicate and
/// an object variable or constant, so patterns join on their subjects;
/// an object in `?a`/`?b` chains through `p0`'s IRI objects.
fn pattern(rng: &mut Rng, pools: &mut Pools<'_>) -> String {
    let s = if rng.chance(0.85) {
        pools.subject_var(rng)
    } else {
        // n6 is no stored subject.
        iri(&format!("n{}", rng.below(7))).ntriples()
    };
    let p = if rng.chance(0.12) {
        pools.object_var(rng)
    } else {
        // p5 and p6 name no stored predicate.
        let n = if rng.chance(0.05) { 7 } else { 5 };
        format!("<http://e/p{}>", rng.below(n))
    };
    let constant_p = p.starts_with('<').then_some(p.as_str());
    let o = match rng.below(20) {
        0..=9 => pools.object_var(rng),
        10..=12 => pools.subject_var(rng),
        _ => pools.constant(rng, constant_p),
    };
    if let (Some(p), true) = (constant_p, o.starts_with('?')) {
        pools.typed.push((o.clone(), p.to_string()));
    }
    format!("{s} {p} {o} .")
}

/// A comparison: mostly a variable (or arithmetic on it) against one of
/// its predicate's objects, an integer or another variable.
fn comparison(rng: &mut Rng, pools: &Pools<'_>) -> String {
    let (v, pred) = pools.filter_var(rng, false);
    let numeric = pred.as_deref().is_none_or(|p| p.contains("/p1>"));
    let lhs = if numeric && rng.chance(0.3) {
        format!("({v} {} {})", pick(rng, &["+", "-", "*", "/"]), rng.below(4) as i64 - 1)
    } else {
        v
    };
    let rhs = match rng.below(7) {
        0..=3 => pools.constant(rng, pred.as_deref()),
        4 => format!("{}", rng.below(5) as i64 - 1),
        5 => pools.filter_var(rng, false).0,
        _ => pools.constant(rng, None),
    };
    let (a, b) = if rng.chance(0.5) { (lhs, rhs) } else { (rhs, lhs) };
    format!("{a} {} {b}", pick(rng, &["=", "!=", "<", "<=", ">", ">="]))
}

fn geometry_operand(rng: &mut Rng, pools: &Pools<'_>) -> String {
    match rng.below(4) {
        0 => pools.filter_var(rng, true).0,
        1 => Term::wkt("POLYGON ((0 0, 8 0, 0 8, 0 0))").ntriples(),
        _ => {
            let (x, y) = (rng.below(6), rng.below(6));
            rect(x, y, x + 1 + rng.below(6), y + 1 + rng.below(6)).ntriples()
        }
    }
}

fn expr(rng: &mut Rng, pools: &Pools<'_>, depth: u32) -> String {
    let leaf = depth == 0 || rng.chance(0.5);
    match if leaf { rng.below(4) } else { 4 + rng.below(3) } {
        0 | 1 => comparison(rng, pools),
        2 => {
            let (g, c) = (pools.filter_var(rng, true).0, geometry_operand(rng, pools));
            let (a, b) = if rng.chance(0.5) { (g, c) } else { (c, g) };
            format!("geof:{}({a}, {b})", pick(rng, &["sfIntersects", "sfContains", "sfWithin"]))
        }
        3 => format!(
            "geof:distance({}, {}) {} {}",
            pools.filter_var(rng, true).0,
            geometry_operand(rng, pools),
            pick(rng, &["<", ">="]),
            rng.below(6)
        ),
        4 => format!("({} && {})", expr(rng, pools, depth - 1), expr(rng, pools, depth - 1)),
        5 => format!("({} || {})", expr(rng, pools, depth - 1), expr(rng, pools, depth - 1)),
        _ => format!("!({})", expr(rng, pools, depth - 1)),
    }
}

fn order_by(rng: &mut Rng, key: &str) -> String {
    if rng.chance(0.5) {
        format!("ORDER BY ?{key} ")
    } else {
        format!("ORDER BY DESC(?{key}) ")
    }
}

/// A random query over the clauses the engine supports, drawing its
/// constants from `triples`.
fn random_query(rng: &mut Rng, triples: &[Triple]) -> String {
    let vars = &VARS[..3 + rng.below(2) as usize];
    let mut pools = Pools { vars, triples, typed: Vec::new() };
    let mut body = String::new();
    let filters = if rng.chance(0.4) {
        // Filter-heavy: a star of object variables under stored
        // predicates, so most rows reach the filters.
        for (i, v) in ["c", "d"].iter().take(1 + rng.below(2) as usize).enumerate() {
            let p = format!("<http://e/p{}>", rng.below(5));
            let star = if i == 0 || rng.chance(0.7) { "?a" } else { "?b" };
            body.push_str(&format!("{star} {p} ?{v} . "));
            pools.typed.push((format!("?{v}"), p));
        }
        1 + rng.below(2)
    } else {
        for _ in 0..1 + rng.below(3) {
            body.push_str(&pattern(rng, &mut pools));
            body.push(' ');
        }
        [0, 0, 0, 1, 1, 2][rng.below(6) as usize]
    };
    for _ in 0..rng.below(2) {
        let inner: Vec<String> = (0..1 + rng.below(2)).map(|_| pattern(rng, &mut pools)).collect();
        body.push_str(&format!("OPTIONAL {{ {} }} ", inner.join(" ")));
    }
    for _ in 0..filters {
        body.push_str(&format!("FILTER({}) ", expr(rng, &pools, 2)));
    }
    let distinct = if rng.chance(0.25) { "DISTINCT " } else { "" };
    let mut tail = String::new();
    let select = if rng.chance(0.3) {
        // Aggregates, grouped by one variable or not at all.
        let group = rng.chance(0.6).then(|| pick(rng, vars));
        let mut items: Vec<String> = group.iter().map(|g| format!("?{g}")).collect();
        let mut keys: Vec<String> = group.iter().map(|g| g.to_string()).collect();
        for i in 0..1 + rng.below(2) {
            let func = pick(rng, &["COUNT", "SUM", "AVG", "MIN", "MAX"]);
            let arg = if func == "COUNT" && rng.chance(0.3) {
                "*".to_string()
            } else {
                pools.var(rng)
            };
            items.push(format!("({func}({arg}) AS ?x{i})"));
            keys.push(format!("x{i}"));
        }
        if let Some(g) = group {
            tail.push_str(&format!("GROUP BY ?{g} "));
        }
        if rng.chance(0.5) {
            let key = pick(rng, &keys);
            tail.push_str(&order_by(rng, &key));
        }
        items.join(" ")
    } else {
        let projected: Vec<&str> = vars.iter().copied().filter(|_| rng.chance(0.7)).collect();
        let projected = if projected.is_empty() { vec![vars[0]] } else { projected };
        if rng.chance(0.4) {
            let key = pick(rng, &projected);
            tail.push_str(&order_by(rng, key));
        }
        if rng.chance(0.15) && tail.is_empty() {
            "*".to_string()
        } else {
            projected.iter().map(|v| format!("?{v}")).collect::<Vec<_>>().join(" ")
        }
    };
    if rng.chance(0.3) {
        tail.push_str(&format!("LIMIT {} ", rng.below(5)));
    }
    if rng.chance(0.2) {
        tail.push_str(&format!("OFFSET {} ", rng.below(4)));
    }
    format!("SELECT {distinct}{select} WHERE {{ {body}}} {tail}")
}

/// Rows sorted, for multiset comparison.
fn sorted(rows: &[Vec<Option<Term>>]) -> Vec<Vec<Option<Term>>> {
    let mut rows = rows.to_vec();
    rows.sort();
    rows
}

/// Does `small` fit inside `big` as a multiset?
fn sub_multiset(small: &[Vec<Option<Term>>], big: &[Vec<Option<Term>>]) -> bool {
    let mut big = sorted(big);
    small.iter().all(|row| match big.iter().position(|r| r == row) {
        Some(i) => {
            big.remove(i);
            true
        }
        None => false,
    })
}

/// Check the engine's answer against the naive one (see the module docs).
fn agree(q: &Query, got: &Solutions, want: &Solutions, unsliced: &Solutions) -> Result<(), String> {
    if got.vars != want.vars {
        return Err(format!("header {:?}, want {:?}", got.vars, want.vars));
    }
    if let Some((key, _)) = &q.order_by {
        if let Some(c) = want.vars.iter().position(|v| v == key) {
            let keys = |s: &Solutions| s.rows.iter().map(|r| r[c].clone()).collect::<Vec<_>>();
            if keys(got) != keys(want) {
                return Err(format!("ORDER BY ?{key} sequence {:?}, want {:?}", keys(got), keys(want)));
            }
        }
    }
    let sliced = q.limit.is_some() || q.offset.is_some();
    let ok = if sliced {
        got.len() == want.len() && sub_multiset(&got.rows, &unsliced.rows)
    } else {
        sorted(&got.rows) == sorted(&want.rows)
    };
    if ok {
        Ok(())
    } else {
        Err(format!("rows {:?}, want {:?}", sorted(&got.rows), sorted(&want.rows)))
    }
}

/// Run `q` on the engine over `view` in every configuration and compare
/// with the naive evaluator over `triples`.
fn check(view: StoreView<'_>, triples: &[Triple], q: &Query, label: &str) {
    let want = naive::evaluate(triples, q);
    let unsliced = naive::evaluate(triples, &Query { limit: None, offset: None, ..q.clone() });
    for pushdown in [true, false] {
        let plan = if pushdown { plan_view(view, q) } else { plan_without_pushdown(view, q) };
        for threads in [1, 3] {
            let got = plan.clone().and_then(|p| execute_plan_view(view, Arc::new(p), threads));
            let ctx = format!("{label} pushdown={pushdown} t={threads}");
            match (&got, &want, &unsliced) {
                (Ok(got), Ok(want), Ok(unsliced)) => {
                    if let Err(why) = agree(q, got, want, unsliced) {
                        panic!("{ctx}: {why}");
                    }
                }
                (Err(_), Err(_), _) => {}
                _ => panic!("{ctx}: engine {got:?}, naive {want:?}"),
            }
        }
    }
}

#[test]
fn engine_matches_naive_evaluator_at_every_cut() {
    let mut rng = Rng::seed_from(0xd1ff);
    let mut queries_checked = 0;
    for store_seed in 0..STORES {
        // A base load, then a few commits of inserts and deletes.
        let mut model: BTreeSet<Triple> = (0..10 + rng.below(40)).map(|_| triple(&mut rng)).collect();
        let mut base = TripleStore::new();
        for (s, p, o) in &model {
            base.insert(s, p, o);
        }
        base.build_spatial_index();
        let mut store = Store::ephemeral(base);
        let mut cuts: Vec<(u64, BTreeSet<Triple>)> = vec![(ROOT_COMMIT_ID, model.clone())];
        for _ in 0..1 + rng.below(4) {
            let present: Vec<Triple> = model.iter().cloned().collect();
            let delete: BTreeSet<Triple> = (0..rng.below(5))
                .filter(|_| !present.is_empty())
                .map(|_| pick(&mut rng, &present))
                .collect();
            let insert: BTreeSet<Triple> = (0..rng.below(8))
                .map(|_| triple(&mut rng))
                .filter(|t| !model.contains(t))
                .collect();
            for t in &delete {
                model.remove(t);
            }
            model.extend(insert.iter().cloned());
            let before = store.history().len();
            store
                .commit_delta(Delta {
                    insert: insert.into_iter().collect(),
                    delete: delete.into_iter().collect(),
                })
                .unwrap();
            if store.history().len() > before {
                cuts.push((store.head_commit(), model.clone()));
            }
        }
        let held: Vec<Triple> = model.iter().cloned().collect();
        let queries: Vec<(String, Query)> = (0..QUERIES_PER_STORE)
            .map(|_| {
                let text = random_query(&mut rng, &held);
                let q = parse_query(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
                (text, q)
            })
            .collect();
        let head = cuts.len() - 1;
        for (i, (commit, triples)) in cuts.iter().enumerate() {
            let triples: Vec<Triple> = triples.iter().cloned().collect();
            let novelty: Novelty = store.as_of(*commit).expect("a commit of this store");
            let view = if i == head {
                assert!(novelty.is_empty(), "the head cut needs no overlay");
                StoreView::head(&store)
            } else {
                StoreView::with_novelty(&store, &novelty)
            };
            for (text, q) in &queries {
                check(view, &triples, q, &format!("store {store_seed} cut {i}: {text}"));
                queries_checked += 1;
            }
        }
    }
    assert!(queries_checked > STORES as usize * QUERIES_PER_STORE, "every store has cuts");
}
