//! Query planning: the inspectable middle layer between the parser and
//! the physical operators.
//!
//! [`plan`] turns a parsed [`Query`] into a [`Plan`] against a concrete
//! [`TripleStore`]: constants are resolved to dictionary ids, the join
//! order is chosen once (greedy bound-position / estimated-cardinality,
//! the same heuristic the old monolithic evaluator applied per recursion
//! step), every filter is compiled over batch columns ([`expr::Filter`])
//! and pinned to the earliest join step at which all of its variables are
//! bound, spatial `FILTER`s are pushed down into per-variable R-tree
//! candidate sets — a point candidate strictly inside a rectangle
//! constant is decided there, from its envelope — and the projection /
//! GROUP BY / ORDER BY columns are resolved to table indices **at plan
//! time** so no per-row name lookup survives into execution.
//!
//! [`logical`] builds the same `Plan` shape without a store — no
//! dictionary ids, no candidate sets. The federation engine
//! (`ee-federation`) reads two things off it: the join order, which is
//! its fetch order, and the pushdown region, which drives spatial source
//! selection. It then runs the query itself through [`plan`] and the
//! executor, on a mediator store that holds the fetched triples.
//!
//! A physical `Plan` is immutable and `Send + Sync`, but it is valid for
//! exactly one store state: its dictionary ids, cardinality-driven join
//! order and spatial candidate sets are a snapshot of the store (or view)
//! it was built against. A commit or a different `AS OF` overlay makes it
//! stale, so the serving tier plans every query against the state it
//! executes on and keeps no plan past its request.

use crate::expr::{self, Expr};
use crate::parser::{AggFunc, PatternTerm, Query, SelectItem, TriplePattern};
use crate::store::{StoreView, TripleStore};
use crate::RdfError;
use ee_geo::Envelope;
use std::collections::HashMap;

/// The executor route a plan takes, decided purely from the plan shape
/// (never from store contents or thread count, so routing is stable
/// across replans and deterministic for tests and metrics).
///
/// The first four kinds are the interesting ones for the
/// `ee_rdf_fastpath_total{kind}` counter; `Aggregate` and `Stream` are
/// the generic routes that predate the fast paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FastPath {
    /// `ORDER BY ?v LIMIT k` (± OFFSET), no DISTINCT, no aggregation:
    /// bounded max-heap of size `k + offset` fed by the pipeline.
    TopK,
    /// `COUNT(*)` / `COUNT(?v)` as the sole SELECT item, no GROUP BY:
    /// rows are counted in the pipeline without materialising terms.
    FastCount,
    /// GROUP BY where every aggregate is a COUNT: one-pass id-keyed
    /// counter table instead of materialise-then-group row vectors.
    GroupCount,
    /// ORDER BY without a usable LIMIT (or with DISTINCT): global sort
    /// with precomputed keys (decorate–sort–undecorate).
    FullSort,
    /// Generic grouping/aggregation (SUM/AVG/MIN/MAX, or shapes the
    /// count fast paths cannot reproduce exactly).
    Aggregate,
    /// The fully pipelined non-aggregate, non-ORDER path.
    Stream,
}

impl FastPath {
    /// Every variant, in metric-rendering order.
    pub const ALL: [FastPath; 6] = [
        FastPath::TopK,
        FastPath::FastCount,
        FastPath::GroupCount,
        FastPath::FullSort,
        FastPath::Aggregate,
        FastPath::Stream,
    ];

    /// Stable label for metrics (`ee_rdf_fastpath_total{kind="..."}`)
    /// and [`Plan::describe`].
    pub fn label(self) -> &'static str {
        match self {
            FastPath::TopK => "topk",
            FastPath::FastCount => "fast_count",
            FastPath::GroupCount => "group_count",
            FastPath::FullSort => "full_sort",
            FastPath::Aggregate => "aggregate",
            FastPath::Stream => "stream",
        }
    }
}

/// A triple-pattern position with the variable resolved to a column and
/// (for physical plans) the constant resolved to a dictionary id.
#[derive(Debug, Clone, PartialEq)]
pub enum Slot {
    /// A variable, as an index into [`Plan::vars`].
    Var(usize),
    /// A constant term, resolved to its dictionary id.
    Const(u64),
    /// A constant term that is not in the dictionary: the pattern can
    /// never match.
    Impossible,
}

/// A filter with its evaluation site decided at plan time.
#[derive(Debug, Clone)]
pub struct FilterPlan {
    /// The filter, compiled over this plan's columns.
    pub filter: expr::Filter,
    /// Columns of every variable the expression references.
    pub vars: Vec<usize>,
    /// Index into [`Plan::order`] of the earliest join step after which
    /// every referenced variable is bound; `None` means the filter is
    /// residual (it references OPTIONAL or unbound variables) and runs
    /// after the left-joins.
    pub apply_after: Option<usize>,
}

/// An executable query plan. See the module docs for the two builders.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The full variable table; row layout of every binding batch.
    pub vars: Vec<String>,
    /// The required triple patterns, as parsed (kept for inspection and
    /// for engines that ship patterns to remote endpoints).
    pub patterns: Vec<TriplePattern>,
    /// Execution order: indices into [`Plan::patterns`].
    pub order: Vec<usize>,
    /// Id-resolved slots, parallel to [`Plan::patterns`]. Empty for
    /// logical plans.
    pub slots: Vec<[Slot; 3]>,
    /// OPTIONAL groups, id-resolved, each in its own execution order.
    pub optionals: Vec<Vec<[Slot; 3]>>,
    /// The filters with plan-time placement.
    pub filters: Vec<FilterPlan>,
    /// Per-column spatial candidate id sets (sorted ascending) from
    /// R-tree pushdown. Empty for logical plans and for
    /// [`plan_without_pushdown`].
    pub candidates: HashMap<usize, Vec<u64>>,
    /// The pushdown region, when one exists: (variable name, envelope).
    /// Logical plans keep this for spatial source selection.
    pub region: Option<(String, Envelope)>,
    /// The SELECT items, as parsed (drives the aggregation tail).
    pub select: Vec<SelectItem>,
    /// `SELECT *`.
    pub star: bool,
    /// `DISTINCT`.
    pub distinct: bool,
    /// Projected (name, column) pairs for the non-aggregate path,
    /// resolved at plan time.
    pub projection: Vec<(String, usize)>,
    /// Whether any SELECT item aggregates.
    pub has_agg: bool,
    /// GROUP BY columns, resolved at plan time.
    pub group_by: Vec<usize>,
    /// ORDER BY as (column, ascending), resolved at plan time.
    pub order_by: Option<(usize, bool)>,
    /// LIMIT.
    pub limit: Option<usize>,
    /// OFFSET.
    pub offset: Option<usize>,
    /// True when some required pattern contains a constant the store has
    /// never seen: the query yields no join rows.
    pub impossible: bool,
}

fn var_index(vars: &mut Vec<String>, name: &str) -> usize {
    if let Some(i) = vars.iter().position(|v| v == name) {
        i
    } else {
        vars.push(name.to_string());
        vars.len() - 1
    }
}

fn resolve_slot(t: &PatternTerm, store: StoreView<'_>, vars: &mut Vec<String>) -> Slot {
    match t {
        PatternTerm::Var(name) => Slot::Var(var_index(vars, name)),
        PatternTerm::Const(term) => match store.dict().id_of(term) {
            Some(id) => Slot::Const(id),
            None => Slot::Impossible,
        },
    }
}

fn collect_expr_vars(expr: &Expr, vars: &mut Vec<String>, out: &mut Vec<usize>) {
    match expr {
        Expr::Var(name) => {
            let i = var_index(vars, name);
            if !out.contains(&i) {
                out.push(i);
            }
        }
        Expr::Cmp(a, _, b)
        | Expr::And(a, b)
        | Expr::Or(a, b)
        | Expr::Spatial(_, a, b)
        | Expr::Distance(a, b)
        | Expr::Arith(a, _, b) => {
            collect_expr_vars(a, vars, out);
            collect_expr_vars(b, vars, out);
        }
        Expr::Not(a) => collect_expr_vars(a, vars, out),
        Expr::Const(_) => {}
    }
}

/// Variables (as column indices) of a pattern's slots.
fn slot_vars(slots: &[Slot; 3]) -> impl Iterator<Item = usize> + '_ {
    slots.iter().filter_map(|s| match s {
        Slot::Var(v) => Some(*v),
        _ => None,
    })
}

/// Greedy static join order: repeatedly take the pattern with the most
/// bound positions (constants + variables bound by already-ordered
/// patterns), breaking ties by the store's cardinality estimate over the
/// constant positions, then by pattern index. `estimate == None` (logical
/// planning) falls back to position count alone.
fn choose_order(slots: &[[Slot; 3]], store: Option<StoreView<'_>>) -> Vec<usize> {
    let mut remaining: Vec<usize> = (0..slots.len()).collect();
    let mut bound: Vec<bool> = Vec::new();
    let grow = |bound: &mut Vec<bool>, v: usize| {
        if v >= bound.len() {
            bound.resize(v + 1, false);
        }
    };
    let mut order = Vec::with_capacity(slots.len());
    while !remaining.is_empty() {
        let mut best = remaining[0];
        let mut best_key = (usize::MAX, usize::MAX);
        for &pi in &remaining {
            let mut bound_count = 0;
            let ids: Vec<Option<u64>> = slots[pi]
                .iter()
                .map(|s| match s {
                    Slot::Const(id) => {
                        bound_count += 1;
                        Some(*id)
                    }
                    Slot::Var(v) => {
                        if bound.get(*v).copied().unwrap_or(false) {
                            bound_count += 1;
                        }
                        // The concrete id is unknown at plan time; the
                        // estimate sees only the constants.
                        None
                    }
                    Slot::Impossible => Some(u64::MAX),
                })
                .collect();
            let est = match store {
                Some(st) => st.estimate(ids[0], ids[1], ids[2]),
                None => 0,
            };
            let key = (3 - bound_count, est);
            if key < best_key {
                best_key = key;
                best = pi;
            }
        }
        order.push(best);
        remaining.retain(|&x| x != best);
        for v in slot_vars(&slots[best]) {
            grow(&mut bound, v);
            bound[v] = true;
        }
    }
    order
}

/// Pin each filter to the earliest step in `order` after which all of its
/// variables are bound by required patterns; `None` = residual.
fn place_filters(filters: &mut [FilterPlan], slots: &[[Slot; 3]], order: &[usize]) {
    let mut bound: Vec<bool> = Vec::new();
    let mut bound_after: Vec<Vec<bool>> = Vec::with_capacity(order.len());
    for &pi in order {
        for v in slot_vars(&slots[pi]) {
            if v >= bound.len() {
                bound.resize(v + 1, false);
            }
            bound[v] = true;
        }
        bound_after.push(bound.clone());
    }
    for f in filters.iter_mut() {
        f.apply_after = bound_after.iter().position(|b| {
            f.vars
                .iter()
                .all(|&v| b.get(v).copied().unwrap_or(false))
        });
    }
}

/// The shared planning scaffold. `store == None` builds a logical plan;
/// `pushdown == false` skips the R-tree visit, so the plan has no
/// candidate sets and its filters decide nothing.
fn build(store: Option<StoreView<'_>>, q: &Query, pushdown: bool) -> Result<Plan, RdfError> {
    let mut vars = Vec::new();
    // Select order defines projection order for named vars.
    for item in &q.select {
        if let SelectItem::Var(v) = item {
            var_index(&mut vars, v);
        }
    }
    let mut impossible = false;
    let resolve = |t: &PatternTerm, vars: &mut Vec<String>, impossible: &mut bool| match store {
        Some(st) => {
            let s = resolve_slot(t, st, vars);
            if matches!(s, Slot::Impossible) {
                *impossible = true;
            }
            s
        }
        None => match t {
            PatternTerm::Var(name) => Slot::Var(var_index(vars, name)),
            // Logical plans carry no ids; mark constants with a
            // placeholder the executor never sees.
            PatternTerm::Const(_) => Slot::Const(0),
        },
    };
    let slots: Vec<[Slot; 3]> = q
        .patterns
        .iter()
        .map(|p| {
            [
                resolve(&p.s, &mut vars, &mut impossible),
                resolve(&p.p, &mut vars, &mut impossible),
                resolve(&p.o, &mut vars, &mut impossible),
            ]
        })
        .collect();
    let optionals: Vec<Vec<[Slot; 3]>> = q
        .optionals
        .iter()
        .map(|group| {
            // An optional group with an unknown constant never matches;
            // the Slot::Impossible stays in the group and the executor
            // passes rows through unextended.
            let mut opt_impossible = false;
            group
                .iter()
                .map(|p| {
                    [
                        resolve(&p.s, &mut vars, &mut opt_impossible),
                        resolve(&p.p, &mut vars, &mut opt_impossible),
                        resolve(&p.o, &mut vars, &mut opt_impossible),
                    ]
                })
                .collect::<Vec<[Slot; 3]>>()
        })
        .collect();
    let used_vars: Vec<Vec<usize>> = q
        .filters
        .iter()
        .map(|f| {
            let mut used = Vec::new();
            collect_expr_vars(f, &mut vars, &mut used);
            used
        })
        .collect();
    let dict = store.map(|st| st.dict());
    let mut region: Option<(String, Envelope)> = None;
    let mut candidates: HashMap<usize, Vec<u64>> = HashMap::new();
    let mut filters: Vec<FilterPlan> = Vec::with_capacity(q.filters.len());
    for (f, used) in q.filters.iter().zip(used_vars) {
        let mut filter = expr::compile(f, &vars, dict);
        if let Some(pd) = filter.pushdown() {
            if region.is_none() {
                region = Some((vars[pd.col].clone(), pd.envelope));
            }
            if let Some(st) = store.filter(|_| pushdown) {
                let (mut ids, mut decided) = (Vec::new(), Vec::new());
                st.visit_spatial(&pd.envelope, &mut |env, id| {
                    ids.push(id);
                    if pd.decides(env) {
                        decided.push(id);
                    }
                });
                ids.sort_unstable();
                ids.dedup();
                match candidates.entry(pd.col) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        // Intersect with the previous pushdown set.
                        let prev = e.get_mut();
                        prev.retain(|id| ids.binary_search(id).is_ok());
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(ids);
                    }
                }
                if !decided.is_empty() {
                    filter.decide(pd.col, decided);
                }
            }
        }
        filters.push(FilterPlan {
            filter,
            vars: used,
            apply_after: None,
        });
    }
    // Group/order vars must exist in the table too.
    for v in &q.group_by {
        var_index(&mut vars, v);
    }
    if let Some((v, _)) = &q.order_by {
        var_index(&mut vars, v);
    }

    let order = choose_order(&slots, store);
    place_filters(&mut filters, &slots, &order);

    // Each optional group gets its own static execution order by
    // re-sorting the group's slots in place.
    let optionals: Vec<Vec<[Slot; 3]>> = optionals
        .into_iter()
        .map(|group| {
            let ord = choose_order(&group, store);
            ord.into_iter().map(|i| group[i].clone()).collect()
        })
        .collect();

    let has_agg = q.select.iter().any(|s| matches!(s, SelectItem::Agg { .. }));
    let projection: Vec<(String, usize)> = if has_agg || !q.group_by.is_empty() {
        Vec::new()
    } else {
        let names: Vec<String> = if q.star {
            vars.clone()
        } else {
            q.select
                .iter()
                .filter_map(|s| match s {
                    SelectItem::Var(v) => Some(v.clone()),
                    _ => None,
                })
                .collect()
        };
        names
            .into_iter()
            .map(|n| {
                let i = vars
                    .iter()
                    .position(|v| v == &n)
                    .ok_or_else(|| RdfError::Eval(format!("unknown select variable ?{n}")))?;
                Ok((n, i))
            })
            .collect::<Result<_, RdfError>>()?
    };
    let group_by: Vec<usize> = q
        .group_by
        .iter()
        .map(|v| {
            vars.iter()
                .position(|x| x == v)
                .ok_or_else(|| RdfError::Eval(format!("unknown group variable ?{v}")))
        })
        .collect::<Result<_, _>>()?;
    let order_by = match &q.order_by {
        Some((ov, asc)) => {
            let oi = vars
                .iter()
                .position(|v| v == ov)
                .ok_or_else(|| RdfError::Eval(format!("unknown order variable ?{ov}")))?;
            Some((oi, *asc))
        }
        None => None,
    };

    Ok(Plan {
        vars,
        patterns: q.patterns.clone(),
        order,
        slots,
        optionals,
        filters,
        candidates,
        region,
        select: q.select.clone(),
        star: q.star,
        distinct: q.distinct,
        projection,
        has_agg,
        group_by,
        order_by,
        limit: q.limit,
        offset: q.offset,
        impossible,
    })
}

/// Plan a query against a concrete store (physical plan).
pub fn plan(store: &TripleStore, q: &Query) -> Result<Plan, RdfError> {
    build(Some(StoreView::from(store)), q, true)
}

/// Plan a query against a [`StoreView`] — a head store or a versioned
/// `AS OF` view. Spatial candidate sets include the view's overlay
/// geometries, so the plan is valid **only for that exact view**. An
/// overlay is relative to the head it was built on: plan and execute a
/// versioned read under one read guard that still sees that head.
pub fn plan_view(view: StoreView<'_>, q: &Query) -> Result<Plan, RdfError> {
    build(Some(view), q, true)
}

/// [`plan_view`] without spatial pushdown: the R-tree is never visited,
/// so the plan carries no candidate sets and every spatial filter is a
/// plain post-filter over the triple-index joins. The ablation arm of
/// E2, isolating what the R-tree buys on top of the indexes; answers
/// equal [`plan_view`]'s.
pub fn plan_without_pushdown<'s>(view: impl Into<StoreView<'s>>, q: &Query) -> Result<Plan, RdfError> {
    build(Some(view.into()), q, false)
}

/// Plan a query without a store (logical plan): no dictionary ids, no
/// candidate sets, join order from bound positions alone. Federation
/// takes its fetch order and spatial region from it.
pub fn logical(q: &Query) -> Result<Plan, RdfError> {
    build(None, q, false)
}

fn pattern_term_str(t: &PatternTerm) -> String {
    match t {
        PatternTerm::Var(v) => format!("?{v}"),
        PatternTerm::Const(c) => c.ntriples(),
    }
}

fn pattern_str(p: &TriplePattern) -> String {
    format!(
        "{} {} {}",
        pattern_term_str(&p.s),
        pattern_term_str(&p.p),
        pattern_term_str(&p.o)
    )
}

impl Plan {
    /// The name of the ORDER BY variable, if any (resolved back from the
    /// column index).
    pub fn order_by_name(&self) -> Option<(&str, bool)> {
        self.order_by
            .map(|(i, asc)| (self.vars[i].as_str(), asc))
    }

    /// Which executor route this plan takes (see [`FastPath`]). A pure
    /// function of the plan shape: the executor and the serving tier's
    /// `ee_rdf_fastpath_total{kind}` counter call this and always agree.
    ///
    /// Count fast paths additionally require every aggregated variable to
    /// resolve in the variable table: an unknown `COUNT(?ghost)` stays on
    /// the generic path, which reproduces the historical semantics of
    /// erroring only when at least one group exists.
    pub fn fast_path(&self) -> FastPath {
        if self.has_agg || !self.group_by.is_empty() {
            let resolvable = |var: &Option<String>| match var {
                None => true,
                Some(v) => self.vars.iter().any(|x| x == v),
            };
            if self.group_by.is_empty() {
                if let [SelectItem::Agg { func: AggFunc::Count, var, .. }] =
                    self.select.as_slice()
                {
                    if resolvable(var) {
                        return FastPath::FastCount;
                    }
                }
                return FastPath::Aggregate;
            }
            let all_count = self.has_agg
                && self.select.iter().all(|item| match item {
                    SelectItem::Var(_) => true,
                    SelectItem::Agg { func: AggFunc::Count, var, .. } => resolvable(var),
                    SelectItem::Agg { .. } => false,
                });
            if all_count {
                FastPath::GroupCount
            } else {
                FastPath::Aggregate
            }
        } else if self.order_by.is_some() {
            if self.limit.is_some() && !self.distinct {
                FastPath::TopK
            } else {
                FastPath::FullSort
            }
        } else {
            FastPath::Stream
        }
    }

    /// A stable human-readable rendering of the chosen plan, for
    /// inspection and snapshot tests. Deliberately excludes anything that
    /// varies with store content beyond the join order itself (no
    /// cardinalities, no candidate counts).
    pub fn describe(&self) -> String {
        let mut s = String::new();
        s.push_str("join order:\n");
        for (step, &pi) in self.order.iter().enumerate() {
            s.push_str(&format!("  {step}: {}", pattern_str(&self.patterns[pi])));
            if let Some([_, _, Slot::Var(v)]) = self.slots.get(pi) {
                if self.candidates.contains_key(v) {
                    s.push_str(&format!(" [pushdown ?{}]", self.vars[*v]));
                }
            }
            s.push('\n');
        }
        for (gi, group) in self.optionals.iter().enumerate() {
            s.push_str(&format!("optional group {gi}: {} patterns\n", group.len()));
        }
        for (fi, f) in self.filters.iter().enumerate() {
            let vars: Vec<String> = f
                .vars
                .iter()
                .map(|&v| format!("?{}", self.vars[v]))
                .collect();
            match f.apply_after {
                Some(step) => s.push_str(&format!(
                    "filter {fi} on {} after step {step}\n",
                    vars.join(" ")
                )),
                None => s.push_str(&format!("filter {fi} on {} residual\n", vars.join(" "))),
            }
        }
        if self.has_agg || !self.group_by.is_empty() {
            s.push_str("aggregate\n");
        } else {
            let names: Vec<String> = self
                .projection
                .iter()
                .map(|(n, i)| format!("?{n}@{i}"))
                .collect();
            s.push_str(&format!("project: {}\n", names.join(" ")));
        }
        if self.distinct {
            s.push_str("distinct\n");
        }
        if let Some((oi, asc)) = self.order_by {
            s.push_str(&format!(
                "order by ?{} {}\n",
                self.vars[oi],
                if asc { "asc" } else { "desc" }
            ));
        }
        if let Some(l) = self.limit {
            s.push_str(&format!("limit {l}\n"));
        }
        if let Some(o) = self.offset {
            s.push_str(&format!("offset {o}\n"));
        }
        // The routing decision, for non-default routes only: the plain
        // pipelined path stays unannotated so historical plan snapshots
        // keep their shape.
        let fp = self.fast_path();
        if fp != FastPath::Stream {
            s.push_str(&format!("fastpath: {}\n", fp.label()));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::term::Term;

    fn e(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    fn store() -> TripleStore {
        let mut st = TripleStore::new();
        let name = e("name");
        let knows = e("knows");
        let geom = e("hasGeometry");
        for who in ["alice", "bob", "carol"] {
            st.insert(&e(who), &name, &Term::string(who));
        }
        st.insert(&e("alice"), &knows, &e("bob"));
        st.insert(&e("alice"), &geom, &Term::wkt("POINT (1 1)"));
        st.insert(&e("bob"), &geom, &Term::wkt("POINT (5 5)"));
        st.build_spatial_index();
        st
    }

    #[test]
    fn join_order_starts_with_most_selective_pattern() {
        let st = store();
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT ?n WHERE { ?x e:knows ?y . ?y e:name ?n }",
        )
        .unwrap();
        let p = plan(&st, &q).unwrap();
        // ?x knows ?y has 1 match, ?y name ?n has 3: knows goes first.
        assert_eq!(p.order, vec![0, 1]);
        // The filterless name join is step 1 with ?y bound.
        assert!(p.describe().starts_with("join order:"));
    }

    #[test]
    fn snapshot_join_query_plan() {
        let st = store();
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT ?n WHERE { ?x e:knows ?y . ?y e:name ?n }",
        )
        .unwrap();
        let p = plan(&st, &q).unwrap();
        assert_eq!(
            p.describe(),
            "join order:\n\
             \x20 0: ?x <http://e/knows> ?y\n\
             \x20 1: ?y <http://e/name> ?n\n\
             project: ?n@0\n"
        );
    }

    #[test]
    fn snapshot_spatial_selection_plan() {
        let st = store();
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT (COUNT(?s) AS ?n) WHERE { \
             ?s e:hasGeometry ?g . \
             FILTER(geof:sfWithin(?g, \"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))\"^^geo:wktLiteral)) }",
        )
        .unwrap();
        let p = plan(&st, &q).unwrap();
        assert_eq!(
            p.describe(),
            "join order:\n\
             \x20 0: ?s <http://e/hasGeometry> ?g [pushdown ?g]\n\
             filter 0 on ?g after step 0\n\
             aggregate\n\
             fastpath: fast_count\n"
        );
        assert!(p.region.is_some());
        assert_eq!(p.candidates.len(), 1);
    }

    #[test]
    fn no_pushdown_plan_indexes_but_does_not_prune() {
        let st = store();
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT ?s WHERE { ?s e:hasGeometry ?g . \
             FILTER(geof:sfWithin(?g, \"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))\"^^geo:wktLiteral)) }",
        )
        .unwrap();
        let pushed = plan(&st, &q).unwrap();
        assert_eq!(pushed.candidates.values().map(Vec::len).sum::<usize>(), 2);
        assert_eq!(pushed.filters[0].filter.decided().len(), 2, "both points are strictly inside");
        let post = plan_without_pushdown(&st, &q).unwrap();
        assert!(post.candidates.is_empty(), "no R-tree pruning");
        assert!(post.filters[0].filter.decided().is_empty(), "the R-tree decides nothing");
        // The same join order over the same triple indexes, and the
        // same region for spatial source selection.
        assert_eq!(post.order, pushed.order);
        assert_eq!(post.region, pushed.region);
        assert_eq!(post.describe(), pushed.describe().replace(" [pushdown ?g]", ""));
    }

    #[test]
    fn filters_are_pinned_to_earliest_step() {
        let st = store();
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT ?x WHERE { ?x e:name ?n . ?x e:knows ?y . \
             FILTER(?n = \"alice\") }",
        )
        .unwrap();
        let p = plan(&st, &q).unwrap();
        let f = &p.filters[0];
        // ?n is bound by the name pattern; whichever step runs it first
        // carries the filter.
        let name_step = p
            .order
            .iter()
            .position(|&pi| matches!(&q.patterns[pi].p, PatternTerm::Const(t) if t == &e("name")))
            .unwrap();
        assert_eq!(f.apply_after, Some(name_step));
    }

    #[test]
    fn residual_filter_over_optional_var() {
        let st = store();
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT ?x WHERE { ?x e:knows ?y . \
             OPTIONAL { ?x e:name ?n } FILTER(?n != \"bob\") }",
        )
        .unwrap();
        let p = plan(&st, &q).unwrap();
        assert_eq!(p.filters[0].apply_after, None, "optional var → residual");
    }

    #[test]
    fn logical_plan_has_no_ids_but_same_shape() {
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT ?f ?n WHERE { ?f e:cropType \"wheat\" . ?f e:name ?n }",
        )
        .unwrap();
        let p = logical(&q).unwrap();
        assert_eq!(p.order, vec![0, 1], "two consts beat one const");
        assert!(p.candidates.is_empty());
        assert!(!p.impossible);
        assert_eq!(p.projection.len(), 2);
    }

    #[test]
    fn fast_path_routing_covers_every_shape() {
        let st = store();
        let route = |q_text: &str| {
            let q = parse_query(q_text).unwrap();
            plan(&st, &q).unwrap().fast_path()
        };
        let cases = [
            // ORDER BY + LIMIT without DISTINCT: bounded heap.
            (
                "PREFIX e: <http://e/> SELECT ?n WHERE { ?x e:name ?n } ORDER BY ?n LIMIT 2",
                FastPath::TopK,
            ),
            // OFFSET rides along with the heap (k + offset resident rows).
            (
                "PREFIX e: <http://e/> SELECT ?n WHERE { ?x e:name ?n } ORDER BY DESC(?n) LIMIT 2 OFFSET 1",
                FastPath::TopK,
            ),
            // DISTINCT dedups after the sort — the heap would under-produce.
            (
                "PREFIX e: <http://e/> SELECT DISTINCT ?n WHERE { ?x e:name ?n } ORDER BY ?n LIMIT 2",
                FastPath::FullSort,
            ),
            // No LIMIT: nothing to bound.
            (
                "PREFIX e: <http://e/> SELECT ?n WHERE { ?x e:name ?n } ORDER BY ?n",
                FastPath::FullSort,
            ),
            ("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }", FastPath::FastCount),
            (
                "PREFIX e: <http://e/> SELECT (COUNT(?y) AS ?n) WHERE { ?x e:knows ?y }",
                FastPath::FastCount,
            ),
            // Non-count aggregate: generic path.
            (
                "PREFIX e: <http://e/> SELECT (MIN(?n) AS ?lo) WHERE { ?x e:name ?n }",
                FastPath::Aggregate,
            ),
            (
                "PREFIX e: <http://e/> SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x e:knows ?y } GROUP BY ?x",
                FastPath::GroupCount,
            ),
            // Grouped non-count aggregate: generic path.
            (
                "PREFIX e: <http://e/> SELECT ?x (MIN(?y) AS ?lo) WHERE { ?x e:knows ?y } GROUP BY ?x",
                FastPath::Aggregate,
            ),
            (
                "PREFIX e: <http://e/> SELECT ?n WHERE { ?x e:name ?n } LIMIT 2",
                FastPath::Stream,
            ),
        ];
        for (q_text, want) in cases {
            assert_eq!(route(q_text), want, "{q_text}");
        }
        // Labels are stable — the metrics contract.
        assert_eq!(FastPath::TopK.label(), "topk");
        assert_eq!(FastPath::ALL.len(), 6);
        let mut labels: Vec<&str> = FastPath::ALL.iter().map(|f| f.label()).collect();
        labels.dedup();
        assert_eq!(labels.len(), 6, "labels are distinct");
    }

    #[test]
    fn describe_names_the_chosen_fast_path() {
        let st = store();
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT ?n WHERE { ?x e:name ?n } ORDER BY ?n LIMIT 2 OFFSET 1",
        )
        .unwrap();
        let d = plan(&st, &q).unwrap().describe();
        assert!(d.ends_with("fastpath: topk\n"), "{d}");
        // The plain pipelined route stays unannotated.
        let q = parse_query("PREFIX e: <http://e/> SELECT ?n WHERE { ?x e:name ?n }").unwrap();
        let d = plan(&st, &q).unwrap().describe();
        assert!(!d.contains("fastpath"), "{d}");
    }

    #[test]
    fn unresolvable_count_var_stays_on_generic_path() {
        // COUNT over a variable the query never binds must keep the
        // historical semantics (error only when a group exists), so it
        // routes to the generic aggregate path.
        let st = store();
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT (COUNT(?ghost) AS ?n) WHERE { ?x e:name ?m }",
        )
        .unwrap();
        assert_eq!(plan(&st, &q).unwrap().fast_path(), FastPath::Aggregate);
    }

    #[test]
    fn unknown_constant_marks_impossible() {
        let st = store();
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT ?x WHERE { ?x e:name \"Nobody\" }",
        )
        .unwrap();
        let p = plan(&st, &q).unwrap();
        assert!(p.impossible);
    }
}
