//! The naive evaluator: SPARQL by nested loops over a plain list of term
//! triples — no dictionary, no indexes, no planner, no batches.
//!
//! It is the pre-Strabon baseline of experiments E2/E3 (every pattern is
//! a pass over every triple, every spatial filter parses and refines
//! every geometry) and the oracle the differential tests hold the engine
//! to. To be worth anything as an oracle it shares nothing with the
//! engine but the parser's AST ([`Query`], [`Expr`]), [`Term`] (with its
//! typed-literal decoding) and `ee_geo`'s geometry predicates: joins,
//! `OPTIONAL`, `FILTER`, grouping, aggregates and ordering are written
//! out below from their definitions, the plainest way, with no regard
//! for speed.
//!
//! The semantics, which the engine implements too:
//!
//! * **Graph.** `triples` is a set: a triple listed twice matches twice,
//!   so callers merging sources remove duplicates first. `AS OF` in the
//!   query text is ignored; pass the triples of that commit.
//! * **Patterns.** The required patterns are joined left to right,
//!   starting from one empty solution; a repeated variable must bind the
//!   same term. Each `OPTIONAL` group, in order, extends every solution by
//!   the group's matches under its bindings, or keeps it unchanged when
//!   there are none.
//! * **FILTER.** Every filter must be true after the OPTIONAL groups; an
//!   error (unbound variable, type mismatch, division by zero, malformed
//!   literal) counts as false. Comparisons are between two numbers, two
//!   strings, two dates or two booleans; IRIs support only `=`/`!=`, by
//!   IRI text. `&&`/`||` follow SPARQL's three-valued tables (`false &&
//!   error` is false either way round, `true || error` true). The spatial
//!   functions take two geometries.
//! * **Aggregates.** With an aggregate or `GROUP BY`, solutions group by
//!   the `GROUP BY` terms; a plain SELECT variable must be one of them,
//!   and an aggregated variable must occur somewhere in the query (else
//!   an error, once there is a group to aggregate). No solutions means no
//!   groups, so no rows, even without `GROUP BY`.
//!   `COUNT(*)` counts solutions, `COUNT(?v)` bound values; `SUM`/`AVG`
//!   add the numeric values as doubles (`AVG` of none is `0.0`);
//!   `MIN`/`MAX` take the first least/greatest value in ORDER BY's order
//!   (integer `0` when none is bound). DISTINCT then applies to the
//!   aggregate rows, and ORDER BY to an output column.
//! * **ORDER BY** sorts stably: unbound first, then numbers by value,
//!   dates, strings by lexical form, and every other term by its
//!   N-Triples form; `DESC` reverses that. Without aggregates, DISTINCT
//!   keeps the first of equal projected rows in that order.
//! * **OFFSET** then **LIMIT** slice the final rows.

use crate::exec::Solutions;
use crate::expr::{CmpOp, Expr, SpatialOp};
use crate::parser::{AggFunc, PatternTerm, Query, SelectItem};
use crate::term::{decode_non_geometry, Term, Value};
use crate::RdfError;
use ee_geo::{algorithms, wkt, Geometry};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};

/// One solution: a term (or nothing) per variable of the query's table.
type Row<'t> = Vec<Option<&'t Term>>;

/// A header and the rows under it.
type Table = (Vec<String>, Vec<Vec<Option<Term>>>);

/// Parse `sparql` and evaluate it over `triples`.
pub fn query(triples: &[(Term, Term, Term)], sparql: &str) -> Result<Solutions, RdfError> {
    evaluate(triples, &crate::parser::parse_query(sparql)?)
}

/// Evaluate a parsed query over `triples` (see the module docs for the
/// semantics).
pub fn evaluate(triples: &[(Term, Term, Term)], q: &Query) -> Result<Solutions, RdfError> {
    let vars = variables(q);
    let col = |name: &str| vars.iter().position(|v| v == name).expect("every query variable is in the table");

    let mut rows: Vec<Row<'_>> = vec![vec![None; vars.len()]];
    for pattern in &q.patterns {
        let slots = [&pattern.s, &pattern.p, &pattern.o];
        rows = rows.iter().flat_map(|row| matches(triples, &slots, &vars, row)).collect();
    }
    for group in &q.optionals {
        rows = rows
            .into_iter()
            .flat_map(|row| {
                let mut ext = vec![row.clone()];
                for pattern in group {
                    let slots = [&pattern.s, &pattern.p, &pattern.o];
                    ext = ext.iter().flat_map(|r| matches(triples, &slots, &vars, r)).collect();
                }
                if ext.is_empty() {
                    vec![row]
                } else {
                    ext
                }
            })
            .collect();
    }
    rows.retain(|row| q.filters.iter().all(|f| truth(eval(f, &vars, row)) == Some(true)));

    let (header, mut out): Table =
        if q.group_by.is_empty() && !q.select.iter().any(|s| matches!(s, SelectItem::Agg { .. })) {
            if let Some((v, asc)) = &q.order_by {
                let c = col(v);
                rows.sort_by(|a, b| directed(order(a[c], b[c]), *asc));
            }
            let names: Vec<String> = if q.star {
                vars.clone()
            } else {
                q.select
                    .iter()
                    .map(|s| match s {
                        SelectItem::Var(v) => v.clone(),
                        SelectItem::Agg { .. } => unreachable!("no aggregates on this path"),
                    })
                    .collect()
            };
            let cols: Vec<usize> = names.iter().map(|n| col(n)).collect();
            let mut seen = HashSet::new();
            let projected = rows
                .iter()
                .map(|row| cols.iter().map(|&c| row[c]).collect::<Row<'_>>())
                .filter(|r| !q.distinct || seen.insert(r.clone()))
                .map(|r| r.into_iter().map(|t| t.cloned()).collect())
                .collect();
            (names, projected)
        } else {
            let (header, mut out) = aggregate(q, &vars, &rows)?;
            if q.distinct {
                let mut seen = HashSet::new();
                out.retain(|r| seen.insert(r.clone()));
            }
            if let Some((v, asc)) = &q.order_by {
                if let Some(c) = header.iter().position(|h| h == v) {
                    out.sort_by(|a, b| directed(order(a[c].as_ref(), b[c].as_ref()), *asc));
                }
            }
            (header, out)
        };
    let skip = q.offset.unwrap_or(0).min(out.len());
    out.drain(..skip);
    out.truncate(q.limit.unwrap_or(usize::MAX));
    Ok(Solutions { vars: header, rows: out })
}

/// The query's variable table, in order of first mention: plain SELECT
/// variables, the required patterns, the OPTIONAL groups, the filters,
/// then GROUP BY and ORDER BY. `SELECT *` projects all of it.
fn variables(q: &Query) -> Vec<String> {
    fn add(vars: &mut Vec<String>, name: &str) {
        if !vars.iter().any(|v| v == name) {
            vars.push(name.to_string());
        }
    }
    fn add_expr(vars: &mut Vec<String>, e: &Expr) {
        match e {
            Expr::Var(name) => add(vars, name),
            Expr::Const(_) => {}
            Expr::Not(a) => add_expr(vars, a),
            Expr::Cmp(a, _, b)
            | Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Spatial(_, a, b)
            | Expr::Distance(a, b)
            | Expr::Arith(a, _, b) => {
                add_expr(vars, a);
                add_expr(vars, b);
            }
        }
    }
    let mut vars = Vec::new();
    for item in &q.select {
        if let SelectItem::Var(v) = item {
            add(&mut vars, v);
        }
    }
    for pattern in q.patterns.iter().chain(q.optionals.iter().flatten()) {
        for term in [&pattern.s, &pattern.p, &pattern.o] {
            if let PatternTerm::Var(v) = term {
                add(&mut vars, v);
            }
        }
    }
    for f in &q.filters {
        add_expr(&mut vars, f);
    }
    for v in q.group_by.iter().chain(q.order_by.iter().map(|(v, _)| v)) {
        add(&mut vars, v);
    }
    vars
}

/// Every extension of `row` by one triple matching the pattern `slots`.
fn matches<'t>(
    triples: &'t [(Term, Term, Term)],
    slots: &[&PatternTerm; 3],
    vars: &[String],
    row: &Row<'t>,
) -> Vec<Row<'t>> {
    let mut out = Vec::new();
    let mut next = row.clone();
    for (s, p, o) in triples {
        next.clone_from(row);
        if [s, p, o].into_iter().zip(slots).all(|(term, slot)| bind(slot, term, vars, &mut next)) {
            out.push(next.clone());
        }
    }
    out
}

/// Match one pattern position against `term`, binding a free variable.
fn bind<'t>(slot: &PatternTerm, term: &'t Term, vars: &[String], row: &mut Row<'t>) -> bool {
    match slot {
        PatternTerm::Const(c) => c == term,
        PatternTerm::Var(v) => {
            let c = vars.iter().position(|x| x == v).expect("pattern variables are in the table");
            match row[c] {
                Some(bound) => bound == term,
                None => {
                    row[c] = Some(term);
                    true
                }
            }
        }
    }
}

/// A filter operand's value.
enum Val<'a> {
    Num(f64),
    Bool(bool),
    Str(&'a str),
    /// Days since the epoch.
    Date(i64),
    Iri(&'a str),
    Geom(Geometry),
}

/// A term's value; `None` for a malformed literal (WKT included).
fn value(t: &Term) -> Option<Val<'_>> {
    let Some(v) = decode_non_geometry(t) else {
        return wkt::parse_wkt(t.lexical()).ok().map(Val::Geom);
    };
    match v {
        Value::Iri => Some(Val::Iri(t.lexical())),
        Value::Str => Some(Val::Str(t.lexical())),
        Value::Int(i) => Some(Val::Num(i as f64)),
        Value::Float(f) => Some(Val::Num(f)),
        Value::Bool(b) => Some(Val::Bool(b)),
        Value::Date(d) => Some(Val::Date(d)),
        Value::Geometry(_) | Value::Malformed => None,
    }
}

/// Evaluate an expression on one solution; `None` is an error.
fn eval<'a>(e: &'a Expr, vars: &[String], row: &[Option<&'a Term>]) -> Option<Val<'a>> {
    let ev = |x: &'a Expr| eval(x, vars, row);
    let geoms = |a: &'a Expr, b: &'a Expr| match (ev(a)?, ev(b)?) {
        (Val::Geom(ga), Val::Geom(gb)) => Some((ga, gb)),
        _ => None,
    };
    match e {
        Expr::Var(name) => value(row[vars.iter().position(|v| v == name)?]?),
        Expr::Const(t) => value(t),
        Expr::Cmp(a, op, b) => compare(&ev(a)?, &ev(b)?, *op).map(Val::Bool),
        Expr::And(a, b) => match (truth(ev(a)), truth(ev(b))) {
            (Some(false), _) | (_, Some(false)) => Some(Val::Bool(false)),
            (Some(true), Some(true)) => Some(Val::Bool(true)),
            _ => None,
        },
        Expr::Or(a, b) => match (truth(ev(a)), truth(ev(b))) {
            (Some(true), _) | (_, Some(true)) => Some(Val::Bool(true)),
            (Some(false), Some(false)) => Some(Val::Bool(false)),
            _ => None,
        },
        Expr::Not(a) => truth(ev(a)).map(|b| Val::Bool(!b)),
        Expr::Spatial(op, a, b) => {
            let (ga, gb) = geoms(a, b)?;
            Some(Val::Bool(match op {
                SpatialOp::Intersects => algorithms::intersects(&ga, &gb),
                SpatialOp::Contains => algorithms::contains(&ga, &gb),
                SpatialOp::Within => algorithms::within(&ga, &gb),
            }))
        }
        Expr::Distance(a, b) => {
            let (ga, gb) = geoms(a, b)?;
            Some(Val::Num(algorithms::distance(&ga, &gb)))
        }
        Expr::Arith(a, op, b) => {
            let (Val::Num(x), Val::Num(y)) = (ev(a)?, ev(b)?) else {
                return None;
            };
            Some(Val::Num(match op {
                '+' => x + y,
                '-' => x - y,
                '*' => x * y,
                '/' if y != 0.0 => x / y,
                _ => return None,
            }))
        }
    }
}

/// Effective boolean value; `None` is an error.
fn truth(v: Option<Val<'_>>) -> Option<bool> {
    match v? {
        Val::Bool(b) => Some(b),
        Val::Num(n) => Some(n != 0.0),
        Val::Str(s) => Some(!s.is_empty()),
        _ => None,
    }
}

fn compare(l: &Val<'_>, r: &Val<'_>, op: CmpOp) -> Option<bool> {
    let ord = match (l, r) {
        (Val::Num(a), Val::Num(b)) => a.partial_cmp(b)?,
        (Val::Str(a), Val::Str(b)) => a.cmp(b),
        (Val::Date(a), Val::Date(b)) => a.cmp(b),
        (Val::Bool(a), Val::Bool(b)) => a.cmp(b),
        (Val::Iri(a), Val::Iri(b)) => {
            return match op {
                CmpOp::Eq => Some(a == b),
                CmpOp::Ne => Some(a != b),
                _ => None,
            }
        }
        _ => return None,
    };
    Some(match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    })
}

/// ORDER BY's total order (see the module docs).
fn order(a: Option<&Term>, b: Option<&Term>) -> Ordering {
    fn key(t: &Term) -> (u8, f64, String) {
        match decode_non_geometry(t) {
            Some(Value::Int(i)) => (0, i as f64, String::new()),
            Some(Value::Float(f)) => (0, f, String::new()),
            Some(Value::Date(d)) => (1, d as f64, String::new()),
            Some(Value::Str) => (2, 0.0, t.lexical().to_string()),
            _ => (3, 0.0, t.ntriples()),
        }
    }
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(a), Some(b)) => {
            let ((ra, na, ta), (rb, nb, tb)) = (key(a), key(b));
            ra.cmp(&rb).then(na.total_cmp(&nb)).then(ta.cmp(&tb))
        }
    }
}

fn directed(ord: Ordering, asc: bool) -> Ordering {
    if asc {
        ord
    } else {
        ord.reverse()
    }
}

/// Group `rows` and compute the SELECT items per group: the header and
/// one row per group.
fn aggregate(q: &Query, vars: &[String], rows: &[Row<'_>]) -> Result<Table, RdfError> {
    let col = |name: &str| vars.iter().position(|v| v == name);
    let mut header = Vec::new();
    for item in &q.select {
        match item {
            SelectItem::Var(v) if q.group_by.contains(v) => header.push(v.clone()),
            SelectItem::Var(v) => return Err(RdfError::Eval(format!("?{v} selected but not in GROUP BY"))),
            SelectItem::Agg { alias, .. } => header.push(alias.clone()),
        }
    }
    let mut groups: BTreeMap<Row<'_>, Vec<&Row<'_>>> = BTreeMap::new();
    for row in rows {
        let key = q.group_by.iter().map(|v| col(v).and_then(|c| row[c])).collect();
        groups.entry(key).or_default().push(row);
    }
    for item in &q.select {
        if let SelectItem::Agg { var: Some(v), .. } = item {
            if col(v).is_none() && !groups.is_empty() {
                return Err(RdfError::Eval(format!("unknown ?{v}")));
            }
        }
    }
    let out = groups
        .iter()
        .map(|(key, members)| {
            q.select
                .iter()
                .map(|item| match item {
                    SelectItem::Var(v) => {
                        let gi = q.group_by.iter().position(|g| g == v).expect("checked above");
                        key[gi].cloned()
                    }
                    SelectItem::Agg { func, var, .. } => {
                        let bound: Vec<&Term> = match var {
                            None => Vec::new(),
                            Some(v) => members.iter().filter_map(|r| col(v).and_then(|c| r[c])).collect(),
                        };
                        Some(aggregate_value(*func, var.is_none(), members.len(), &bound))
                    }
                })
                .collect()
        })
        .collect();
    Ok((header, out))
}

/// One aggregate over a group of `rows` solutions whose aggregated
/// variable bound `bound` (`star` is `COUNT(*)`).
fn aggregate_value(func: AggFunc, star: bool, rows: usize, bound: &[&Term]) -> Term {
    let numbers = || {
        bound.iter().filter_map(|t| match decode_non_geometry(*t) {
            Some(Value::Int(i)) => Some(i as f64),
            Some(Value::Float(f)) => Some(f),
            _ => None,
        })
    };
    let pick = |better: Ordering| {
        let mut best: Option<&Term> = None;
        for &t in bound {
            if best.is_none_or(|b| order(Some(t), Some(b)) == better) {
                best = Some(t);
            }
        }
        best.cloned().unwrap_or_else(|| Term::integer(0))
    };
    match func {
        AggFunc::Count => Term::integer(if star { rows } else { bound.len() } as i64),
        AggFunc::Sum => Term::double(numbers().sum()),
        AggFunc::Avg => {
            let (sum, n) = numbers().fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
            Term::double(if n == 0 { 0.0 } else { sum / n as f64 })
        }
        AggFunc::Min => pick(Ordering::Less),
        AggFunc::Max => pick(Ordering::Greater),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    fn graph() -> Vec<(Term, Term, Term)> {
        vec![
            (e("a"), e("knows"), e("b")),
            (e("a"), e("knows"), e("c")),
            (e("b"), e("knows"), e("c")),
            (e("a"), e("age"), Term::integer(30)),
            (e("b"), e("age"), Term::integer(20)),
            (e("a"), e("geom"), Term::wkt("POINT (1 1)")),
            (e("b"), e("geom"), Term::wkt("POINT (50 50)")),
        ]
    }

    fn rows(sparql: &str) -> Vec<Vec<Option<Term>>> {
        query(&graph(), &format!("PREFIX e: <http://e/> {sparql}")).unwrap().rows
    }

    #[test]
    fn joins_and_optional_keep_unmatched_rows() {
        let mut got = rows("SELECT ?x ?n WHERE { ?x e:knows ?y . OPTIONAL { ?y e:age ?n } }");
        got.sort();
        assert_eq!(
            got,
            vec![
                vec![Some(e("a")), None],
                vec![Some(e("a")), Some(Term::integer(20))],
                vec![Some(e("b")), None],
            ]
        );
    }

    #[test]
    fn filter_errors_are_false_and_logic_is_three_valued() {
        // ?n is unbound for ?y = c: the comparison errors and drops it.
        assert_eq!(rows("SELECT ?y WHERE { ?x e:knows ?y . OPTIONAL { ?y e:age ?n } FILTER(?n > 1) }").len(), 1);
        // false && error is false, so its negation keeps every row.
        assert_eq!(rows("SELECT ?y WHERE { ?x e:knows ?y . FILTER(!(?zz > 1 && 1 > 2)) }").len(), 3);
        // An IRI compares by text only through = and !=.
        assert_eq!(rows("SELECT ?y WHERE { ?x e:knows ?y . FILTER(?y != e:nobody) }").len(), 3);
        assert!(rows("SELECT ?y WHERE { ?x e:knows ?y . FILTER(?y < e:nobody) }").is_empty());
        let within = "SELECT ?x WHERE { ?x e:geom ?g . \
             FILTER(geof:sfWithin(?g, \"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))\"^^geo:wktLiteral)) }";
        assert_eq!(rows(within), vec![vec![Some(e("a"))]]);
    }

    #[test]
    fn aggregates_group_and_order() {
        let got = rows("SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x e:knows ?y } GROUP BY ?x ORDER BY DESC(?n)");
        assert_eq!(
            got,
            vec![vec![Some(e("a")), Some(Term::integer(2))], vec![Some(e("b")), Some(Term::integer(1))]]
        );
        let got = rows("SELECT (SUM(?a) AS ?s) (MIN(?a) AS ?lo) (MAX(?a) AS ?hi) WHERE { ?x e:age ?a }");
        assert_eq!(got, vec![vec![Some(Term::double(50.0)), Some(Term::integer(20)), Some(Term::integer(30))]]);
        assert!(rows("SELECT (COUNT(*) AS ?n) WHERE { ?x e:nothing ?y }").is_empty(), "no rows, no groups");
        assert!(query(&graph(), "SELECT ?x (COUNT(*) AS ?n) WHERE { ?x ?p ?o }").is_err());
    }

    #[test]
    fn order_distinct_and_slices() {
        let got = rows("SELECT DISTINCT ?x WHERE { ?x e:knows ?y } ORDER BY DESC(?x) LIMIT 1");
        assert_eq!(got, vec![vec![Some(e("b"))]]);
        let got = rows("SELECT ?o WHERE { ?x ?p ?o } ORDER BY ?o OFFSET 1 LIMIT 2");
        // Numbers sort first; other terms by N-Triples form, where
        // literals precede IRIs.
        assert_eq!(got, vec![vec![Some(Term::integer(30))], vec![Some(Term::wkt("POINT (1 1)"))]]);
    }
}
