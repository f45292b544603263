//! Filter expressions, compiled at plan time and evaluated over a
//! batch's id columns.
//!
//! SPARQL's error semantics apply: a type error in a filter makes the
//! filter unsatisfied (the row is dropped), it does not fail the query.

use crate::batch::{Batch, UNBOUND};
use crate::dict::Dictionary;
use crate::term::{decode_non_geometry, Term, Value};
use ee_geo::{algorithms, wkt, Envelope, Geometry};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// GeoSPARQL simple-feature predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpatialOp {
    /// `geof:sfIntersects`
    Intersects,
    /// `geof:sfContains`
    Contains,
    /// `geof:sfWithin`
    Within,
}

/// A filter expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A variable reference.
    Var(String),
    /// A constant term.
    Const(Term),
    /// Binary comparison.
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Spatial predicate between two geometry expressions.
    Spatial(SpatialOp, Box<Expr>, Box<Expr>),
    /// `geof:distance(a, b)` in coordinate units.
    Distance(Box<Expr>, Box<Expr>),
    /// Arithmetic `+ - * /` over numbers.
    Arith(Box<Expr>, char, Box<Expr>),
}

/// A resolved scalar during evaluation.
#[derive(Debug, Clone)]
enum Scalar<'a> {
    /// Numeric (integers widened to f64).
    Num(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(&'a str),
    /// Date as epoch days.
    Date(i64),
    /// Geometry reference.
    Geom(&'a Geometry),
    /// An IRI or other id-only term (identity comparisons only).
    Id(u64),
    /// An IRI constant the store does not hold (identity comparisons
    /// only, by text; never equal to a stored IRI).
    Iri(&'a str),
}

/// A filter compiled at plan time against one plan's variable table and
/// one store: every variable is a batch column and every constant is
/// resolved once — IRIs to store ids, literals to typed values, WKT to a
/// parsed geometry — so evaluating a row reads ids out of the batch and
/// never looks a name up or compares a constant's text.
///
/// A spatial predicate between the pushdown column and an axis-aligned
/// rectangle may also carry the ids the spatial index decided true (see
/// [`Pushdown`]); such rows pass without their geometry being fetched.
#[derive(Debug, Clone)]
pub struct Filter {
    root: Node,
    /// `(column, ids)`: a row whose id in `column` is in the sorted `ids`
    /// passes outright.
    decided: Option<(usize, Vec<u64>)>,
}

/// A compiled expression node.
#[derive(Debug, Clone)]
enum Node {
    /// The id in a batch column.
    Col(usize),
    /// A constant, resolved.
    Const(Lit),
    /// A constant that is a type error wherever it is used: a malformed
    /// literal, WKT that does not parse, or a variable outside the table.
    Error,
    Cmp(Box<Node>, CmpOp, Box<Node>),
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Not(Box<Node>),
    Spatial(SpatialOp, Box<Node>, Box<Node>),
    Distance(Box<Node>, Box<Node>),
    Arith(Box<Node>, char, Box<Node>),
}

/// A resolved constant (the owned form of [`Scalar`]).
#[derive(Debug, Clone)]
enum Lit {
    Num(f64),
    Bool(bool),
    Str(String),
    Date(i64),
    Id(u64),
    Iri(String),
    Geom(Geometry),
}

impl Lit {
    fn scalar(&self) -> Scalar<'_> {
        match self {
            Lit::Num(n) => Scalar::Num(*n),
            Lit::Bool(b) => Scalar::Bool(*b),
            Lit::Str(s) => Scalar::Str(s),
            Lit::Date(d) => Scalar::Date(*d),
            Lit::Id(id) => Scalar::Id(*id),
            Lit::Iri(text) => Scalar::Iri(text),
            Lit::Geom(g) => Scalar::Geom(g),
        }
    }
}

/// Compile `expr` against the variable table `vars` (a variable's column
/// is its position there). `dict` resolves IRI constants to ids; without
/// one (logical plans, which never execute) every IRI constant is one the
/// store has never seen.
pub fn compile(expr: &Expr, vars: &[String], dict: Option<&Dictionary>) -> Filter {
    Filter {
        root: compile_node(expr, vars, dict),
        decided: None,
    }
}

fn compile_node(expr: &Expr, vars: &[String], dict: Option<&Dictionary>) -> Node {
    let bx = |e: &Expr| Box::new(compile_node(e, vars, dict));
    match expr {
        Expr::Var(name) => match vars.iter().position(|v| v == name) {
            Some(col) => Node::Col(col),
            None => Node::Error,
        },
        Expr::Const(term) => match compile_const(term, dict) {
            Some(lit) => Node::Const(lit),
            None => Node::Error,
        },
        Expr::Cmp(a, op, b) => Node::Cmp(bx(a), *op, bx(b)),
        Expr::And(a, b) => Node::And(bx(a), bx(b)),
        Expr::Or(a, b) => Node::Or(bx(a), bx(b)),
        Expr::Not(a) => Node::Not(bx(a)),
        Expr::Spatial(op, a, b) => Node::Spatial(*op, bx(a), bx(b)),
        Expr::Distance(a, b) => Node::Distance(bx(a), bx(b)),
        Expr::Arith(a, op, b) => Node::Arith(bx(a), *op, bx(b)),
    }
}

fn compile_const(term: &Term, dict: Option<&Dictionary>) -> Option<Lit> {
    let Some(value) = decode_non_geometry(term) else {
        // A WKT literal.
        return wkt::parse_wkt(term.lexical()).ok().map(Lit::Geom);
    };
    Some(match value {
        // IRIs compare by store identity; an IRI the store has never
        // seen equals no stored term.
        Value::Iri => match dict.and_then(|d| d.id_of(term)) {
            Some(id) => Lit::Id(id),
            None => Lit::Iri(term.lexical().to_string()),
        },
        Value::Str => Lit::Str(term.lexical().to_string()),
        Value::Int(i) => Lit::Num(i as f64),
        Value::Float(f) => Lit::Num(f),
        Value::Bool(b) => Lit::Bool(b),
        Value::Date(d) => Lit::Date(d),
        Value::Geometry(_) | Value::Malformed => return None,
    })
}

/// The R-tree pushdown a filter allows: it is a spatial predicate between
/// a column and a constant geometry, in either argument order. The
/// envelope test is a *necessary* condition for all three predicates, so
/// pushdown is always sound filter–refine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pushdown {
    /// The column the predicate constrains.
    pub col: usize,
    /// The constant's envelope: a candidate's envelope must meet it.
    pub envelope: Envelope,
    /// The constant is an axis-aligned rectangle (it fills `envelope`)
    /// and the predicate holds for every point strictly inside it:
    /// `sfWithin(?g, R)`, `sfContains(R, ?g)` and `sfIntersects` in either
    /// order.
    pub decides_inner_points: bool,
}

impl Pushdown {
    /// Whether a candidate with envelope `env` satisfies the predicate
    /// without its geometry being looked at: its envelope is one point
    /// strictly inside the rectangle. Every vertex of such a geometry is
    /// that point, so the geometry is that point, inside the rectangle
    /// and off its boundary.
    pub fn decides(&self, env: &Envelope) -> bool {
        let r = &self.envelope;
        self.decides_inner_points
            && env.min_x == env.max_x
            && env.min_y == env.max_y
            && r.min_x < env.min_x
            && env.max_x < r.max_x
            && r.min_y < env.min_y
            && env.max_y < r.max_y
    }
}

impl Filter {
    /// The pushdown this filter allows, if any (see [`Pushdown`]).
    pub fn pushdown(&self) -> Option<Pushdown> {
        let Node::Spatial(op, a, b) = &self.root else {
            return None;
        };
        let (col, geom, column_first) = match (a.as_ref(), b.as_ref()) {
            (Node::Col(col), Node::Const(Lit::Geom(g))) => (*col, g, true),
            (Node::Const(Lit::Geom(g)), Node::Col(col)) => (*col, g, false),
            _ => return None,
        };
        let is_rectangle = matches!(geom, Geometry::Polygon(p) if p.as_rectangle().is_some());
        let inner_points_pass = match op {
            SpatialOp::Intersects => true,
            SpatialOp::Within => column_first,
            SpatialOp::Contains => !column_first,
        };
        Some(Pushdown {
            col,
            envelope: geom.envelope(),
            decides_inner_points: is_rectangle && inner_points_pass,
        })
    }

    /// Let rows whose id in `col` is one of `ids` pass without evaluating
    /// the expression. Only for ids the filter's [`Pushdown::decides`]
    /// accepted from the spatial index.
    pub fn decide(&mut self, col: usize, mut ids: Vec<u64>) {
        ids.sort_unstable();
        ids.dedup();
        self.decided = Some((col, ids));
    }

    /// The ids the spatial index decided true for this filter, sorted;
    /// empty when it decided none.
    pub fn decided(&self) -> &[u64] {
        self.decided.as_ref().map_or(&[], |(_, ids)| ids)
    }

    /// Does row `row` of `batch` pass? A row where the expression errors
    /// (e.g. an unbound variable) does not: SPARQL's error-is-false.
    pub fn passes(&self, dict: &Dictionary, batch: &Batch, row: usize) -> bool {
        self.eval(dict, batch, row) == Some(true)
    }

    /// The effective boolean value of the filter on one row; `None` is
    /// SPARQL's type error.
    fn eval(&self, dict: &Dictionary, batch: &Batch, row: usize) -> Option<bool> {
        if let Some((col, ids)) = &self.decided {
            if ids.binary_search(&batch.get(row, *col)).is_ok() {
                return Some(true);
            }
        }
        truth(eval(&self.root, dict, batch, row))
    }
}

fn scalar_of_id(dict: &Dictionary, id: u64) -> Option<Scalar<'_>> {
    match dict.value(id) {
        Value::Iri => Some(Scalar::Id(id)),
        Value::Str => Some(Scalar::Str(dict.term(id).lexical())),
        Value::Int(i) => Some(Scalar::Num(*i as f64)),
        Value::Float(f) => Some(Scalar::Num(*f)),
        Value::Bool(b) => Some(Scalar::Bool(*b)),
        Value::Date(d) => Some(Scalar::Date(*d)),
        Value::Geometry(gi) => Some(Scalar::Geom(dict.geometry(*gi))),
        Value::Malformed => None,
    }
}

/// Evaluate a node on one row to a scalar; `None` is SPARQL's type error.
fn eval<'a>(node: &'a Node, dict: &'a Dictionary, batch: &Batch, row: usize) -> Option<Scalar<'a>> {
    let ev = |n: &'a Node| eval(n, dict, batch, row);
    match node {
        Node::Col(col) => match batch.get(row, *col) {
            UNBOUND => None,
            id => scalar_of_id(dict, id),
        },
        Node::Const(lit) => Some(lit.scalar()),
        Node::Error => None,
        Node::Cmp(lhs, op, rhs) => {
            let l = ev(lhs)?;
            let r = ev(rhs)?;
            compare(&l, &r, *op).map(Scalar::Bool)
        }
        // SPARQL's three-valued logic: a false conjunct (a true disjunct)
        // decides the result even when the other side is an error.
        Node::And(a, b) => match truth(ev(a)) {
            Some(false) => Some(Scalar::Bool(false)),
            ta => match (ta, truth(ev(b))) {
                (_, Some(false)) => Some(Scalar::Bool(false)),
                (Some(true), Some(true)) => Some(Scalar::Bool(true)),
                _ => None,
            },
        },
        Node::Or(a, b) => match truth(ev(a)) {
            Some(true) => Some(Scalar::Bool(true)),
            ta => match (ta, truth(ev(b))) {
                (_, Some(true)) => Some(Scalar::Bool(true)),
                (Some(false), Some(false)) => Some(Scalar::Bool(false)),
                _ => None,
            },
        },
        Node::Not(a) => Some(Scalar::Bool(!truth(ev(a))?)),
        Node::Spatial(op, a, b) => {
            let (Scalar::Geom(ga), Scalar::Geom(gb)) = (ev(a)?, ev(b)?) else {
                return None;
            };
            let v = match op {
                SpatialOp::Intersects => algorithms::intersects(ga, gb),
                SpatialOp::Contains => algorithms::contains(ga, gb),
                SpatialOp::Within => algorithms::within(ga, gb),
            };
            Some(Scalar::Bool(v))
        }
        Node::Distance(a, b) => {
            let (Scalar::Geom(ga), Scalar::Geom(gb)) = (ev(a)?, ev(b)?) else {
                return None;
            };
            Some(Scalar::Num(algorithms::distance(ga, gb)))
        }
        Node::Arith(a, op, b) => {
            let (Scalar::Num(x), Scalar::Num(y)) = (ev(a)?, ev(b)?) else {
                return None;
            };
            let v = match op {
                '+' => x + y,
                '-' => x - y,
                '*' => x * y,
                '/' => {
                    if y == 0.0 {
                        return None;
                    }
                    x / y
                }
                _ => return None,
            };
            Some(Scalar::Num(v))
        }
    }
}

/// Effective boolean value.
fn truth(s: Option<Scalar>) -> Option<bool> {
    match s? {
        Scalar::Bool(b) => Some(b),
        Scalar::Num(n) => Some(n != 0.0),
        Scalar::Str(s) => Some(!s.is_empty()),
        _ => None,
    }
}

fn compare(l: &Scalar, r: &Scalar, op: CmpOp) -> Option<bool> {
    use std::cmp::Ordering;
    let ord = match (l, r) {
        (Scalar::Num(a), Scalar::Num(b)) => a.partial_cmp(b)?,
        (Scalar::Str(a), Scalar::Str(b)) => a.cmp(b),
        (Scalar::Date(a), Scalar::Date(b)) => a.cmp(b),
        (Scalar::Bool(a), Scalar::Bool(b)) => a.cmp(b),
        (Scalar::Id(_) | Scalar::Iri(_), Scalar::Id(_) | Scalar::Iri(_)) => {
            // Identity only: equality/inequality meaningful. A stored
            // IRI is never one the store lacks.
            let same = match (l, r) {
                (Scalar::Id(a), Scalar::Id(b)) => a == b,
                (Scalar::Iri(a), Scalar::Iri(b)) => a == b,
                _ => false,
            };
            return match op {
                CmpOp::Eq => Some(same),
                CmpOp::Ne => Some(!same),
                _ => None,
            };
        }
        _ => return None,
    };
    Some(match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compile `expr` over a one-row batch holding `bindings`, then
    /// evaluate it. A variable outside `bindings` is unbound.
    fn ctx_eval(expr: &Expr, bindings: &[(&str, Term)]) -> Option<bool> {
        let mut dict = Dictionary::new();
        let vars: Vec<String> = bindings.iter().map(|(n, _)| n.to_string()).collect();
        let ids: Vec<u64> = bindings.iter().map(|(_, t)| dict.intern(t)).collect();
        let mut batch = Batch::new(vars.len());
        batch.push_row(&ids);
        compile(expr, &vars, Some(&dict)).eval(&dict, &batch, 0)
    }

    fn var(n: &str) -> Expr {
        Expr::Var(n.into())
    }

    fn c(t: Term) -> Expr {
        Expr::Const(t)
    }

    #[test]
    fn numeric_comparisons() {
        let e = Expr::Cmp(Box::new(var("x")), CmpOp::Gt, Box::new(c(Term::integer(5))));
        assert_eq!(ctx_eval(&e, &[("x", Term::integer(7))]), Some(true));
        assert_eq!(ctx_eval(&e, &[("x", Term::integer(3))]), Some(false));
        // Mixed int/double compare numerically.
        assert_eq!(ctx_eval(&e, &[("x", Term::double(5.5))]), Some(true));
    }

    #[test]
    fn string_and_date_comparisons() {
        let e = Expr::Cmp(
            Box::new(var("s")),
            CmpOp::Lt,
            Box::new(c(Term::string("mango"))),
        );
        assert_eq!(ctx_eval(&e, &[("s", Term::string("apple"))]), Some(true));
        let d = Expr::Cmp(
            Box::new(var("d")),
            CmpOp::Ge,
            Box::new(c(Term::Literal {
                lexical: "2017-06-01".into(),
                datatype: crate::term::XSD_DATE.into(),
            })),
        );
        let date = Term::Literal {
            lexical: "2017-07-15".into(),
            datatype: crate::term::XSD_DATE.into(),
        };
        assert_eq!(ctx_eval(&d, &[("d", date)]), Some(true));
    }

    #[test]
    fn boolean_algebra_short_circuits() {
        let t = c(Term::boolean(true));
        let f = c(Term::boolean(false));
        assert_eq!(
            ctx_eval(&Expr::And(Box::new(t.clone()), Box::new(f.clone())), &[]),
            Some(false)
        );
        assert_eq!(
            ctx_eval(&Expr::Or(Box::new(t.clone()), Box::new(f.clone())), &[]),
            Some(true)
        );
        assert_eq!(ctx_eval(&Expr::Not(Box::new(f)), &[]), Some(true));
        // False && error short-circuits to false (SPARQL semantics).
        let err = var("unbound");
        let sc = Expr::And(Box::new(c(Term::boolean(false))), Box::new(err.clone()));
        assert_eq!(ctx_eval(&sc, &[]), Some(false));
    }

    #[test]
    fn an_iri_the_store_lacks_compares_as_an_iri() {
        // `?x != <unknown>` holds for every stored IRI: an IRI the store
        // lacks is still an IRI, not a string.
        let unknown = c(Term::iri("http://e/nowhere"));
        let x = [("x", Term::iri("http://e/here"))];
        let cmp = |a: &Expr, op, b: &Expr| Expr::Cmp(Box::new(a.clone()), op, Box::new(b.clone()));
        assert_eq!(ctx_eval(&cmp(&var("x"), CmpOp::Ne, &unknown), &x), Some(true));
        assert_eq!(ctx_eval(&cmp(&unknown, CmpOp::Eq, &var("x")), &x), Some(false));
        assert_eq!(ctx_eval(&cmp(&unknown, CmpOp::Eq, &unknown), &x), Some(true));
        let other = c(Term::iri("http://e/elsewhere"));
        assert_eq!(ctx_eval(&cmp(&unknown, CmpOp::Ne, &other), &x), Some(true));
        // Still no order between IRIs, and no equality with a string of
        // the same text.
        assert_eq!(ctx_eval(&cmp(&var("x"), CmpOp::Lt, &unknown), &x), None);
        let text = c(Term::string("http://e/nowhere"));
        assert_eq!(ctx_eval(&cmp(&unknown, CmpOp::Eq, &text), &x), None);
    }

    #[test]
    fn an_error_on_the_left_does_not_decide_and_or() {
        // SPARQL's tables are symmetric: error && false is false, error
        // || true is true.
        let (t, f, err) = (c(Term::boolean(true)), c(Term::boolean(false)), var("unbound"));
        let and = |a: &Expr, b: &Expr| Expr::And(Box::new(a.clone()), Box::new(b.clone()));
        let or = |a: &Expr, b: &Expr| Expr::Or(Box::new(a.clone()), Box::new(b.clone()));
        assert_eq!(ctx_eval(&and(&err, &f), &[]), Some(false));
        assert_eq!(ctx_eval(&or(&err, &t), &[]), Some(true));
        assert_eq!(ctx_eval(&Expr::Not(Box::new(and(&err, &f))), &[]), Some(true));
        assert_eq!(ctx_eval(&or(&or(&err, &err), &t), &[]), Some(true));
        // Otherwise an error stays an error.
        assert_eq!(ctx_eval(&and(&err, &t), &[]), None);
        assert_eq!(ctx_eval(&or(&err, &f), &[]), None);
        assert_eq!(ctx_eval(&and(&t, &err), &[]), None);
    }

    #[test]
    fn type_errors_yield_none() {
        // Comparing a number to a string is a type error, not false.
        let e = Expr::Cmp(
            Box::new(c(Term::integer(1))),
            CmpOp::Lt,
            Box::new(c(Term::string("x"))),
        );
        assert_eq!(ctx_eval(&e, &[]), None);
        // Unbound variable is an error.
        assert_eq!(ctx_eval(&var("nope"), &[]), None);
        // Division by zero.
        let div = Expr::Arith(
            Box::new(c(Term::integer(1))),
            '/',
            Box::new(c(Term::integer(0))),
        );
        assert_eq!(ctx_eval(&div, &[]), None);
    }

    #[test]
    fn arithmetic() {
        let e = Expr::Cmp(
            Box::new(Expr::Arith(
                Box::new(c(Term::integer(3))),
                '*',
                Box::new(c(Term::integer(4))),
            )),
            CmpOp::Eq,
            Box::new(c(Term::integer(12))),
        );
        assert_eq!(ctx_eval(&e, &[]), Some(true));
    }

    #[test]
    fn spatial_predicates() {
        let poly = Term::wkt("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
        let inside = Term::wkt("POINT (5 5)");
        let outside = Term::wkt("POINT (50 50)");
        let e = Expr::Spatial(
            SpatialOp::Intersects,
            Box::new(var("g")),
            Box::new(c(poly.clone())),
        );
        assert_eq!(ctx_eval(&e, &[("g", inside.clone())]), Some(true));
        assert_eq!(ctx_eval(&e, &[("g", outside)]), Some(false));
        let w = Expr::Spatial(SpatialOp::Within, Box::new(var("g")), Box::new(c(poly)));
        assert_eq!(ctx_eval(&w, &[("g", inside)]), Some(true));
    }

    #[test]
    fn distance_function() {
        let e = Expr::Cmp(
            Box::new(Expr::Distance(
                Box::new(var("g")),
                Box::new(c(Term::wkt("POINT (0 0)"))),
            )),
            CmpOp::Lt,
            Box::new(c(Term::double(5.1))),
        );
        assert_eq!(ctx_eval(&e, &[("g", Term::wkt("POINT (3 4)"))]), Some(true));
        assert_eq!(ctx_eval(&e, &[("g", Term::wkt("POINT (30 40)"))]), Some(false));
    }

    #[test]
    fn pushdown_detection() {
        let vars = ["g".to_string()];
        let poly = Term::wkt("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))");
        let e = Expr::Spatial(
            SpatialOp::Intersects,
            Box::new(var("g")),
            Box::new(c(poly.clone())),
        );
        let pd = compile(&e, &vars, None).pushdown().unwrap();
        assert_eq!(pd.col, 0);
        assert_eq!(pd.envelope, Envelope::new(0.0, 0.0, 4.0, 4.0));
        assert!(pd.decides_inner_points);
        // Reversed argument order also detected.
        let rev = Expr::Spatial(SpatialOp::Contains, Box::new(c(poly.clone())), Box::new(var("g")));
        assert!(compile(&rev, &vars, None).pushdown().unwrap().decides_inner_points);
        // A rectangle cannot be within a point, nor a point contain one.
        for (op, a, b) in [
            (SpatialOp::Within, c(poly.clone()), var("g")),
            (SpatialOp::Contains, var("g"), c(poly.clone())),
        ] {
            let pd = compile(&Expr::Spatial(op, Box::new(a), Box::new(b)), &vars, None).pushdown();
            assert!(!pd.unwrap().decides_inner_points, "{op:?}");
        }
        // A triangle pushes down its envelope but decides nothing.
        let tri = Term::wkt("POLYGON ((0 0, 4 0, 0 4, 0 0))");
        let t = Expr::Spatial(SpatialOp::Within, Box::new(var("g")), Box::new(c(tri)));
        assert!(!compile(&t, &vars, None).pushdown().unwrap().decides_inner_points);
        // Var-var spatial joins cannot push down.
        let vv = Expr::Spatial(SpatialOp::Intersects, Box::new(var("a")), Box::new(var("b")));
        let ab = ["a".to_string(), "b".to_string()];
        assert!(compile(&vv, &ab, None).pushdown().is_none());
    }

    #[test]
    fn decides_only_single_points_strictly_inside() {
        let pd = Pushdown {
            col: 0,
            envelope: Envelope::new(0.0, 0.0, 4.0, 4.0),
            decides_inner_points: true,
        };
        let pt = |x, y| Envelope::new(x, y, x, y);
        assert!(pd.decides(&pt(1.0, 3.0)));
        // On an edge or a corner: left to the exact predicate.
        assert!(!pd.decides(&pt(0.0, 2.0)));
        assert!(!pd.decides(&pt(4.0, 4.0)));
        // A non-point envelope, even strictly inside.
        assert!(!pd.decides(&Envelope::new(1.0, 1.0, 2.0, 1.0)));
        let off = Pushdown { decides_inner_points: false, ..pd };
        assert!(!off.decides(&pt(1.0, 3.0)));
    }
}
