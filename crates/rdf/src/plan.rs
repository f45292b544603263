//! Query planning: the inspectable middle layer between the parser and
//! the physical operators.
//!
//! [`plan`] turns a parsed [`Query`] into a [`Plan`] against a concrete
//! [`TripleStore`]: constants are resolved to dictionary ids, the join
//! order is chosen once (greedy bound-position / estimated-cardinality,
//! the same heuristic the old monolithic evaluator applied per recursion
//! step), every filter is compiled over batch columns ([`expr::Filter`]),
//! spatial `FILTER`s are pushed down into per-variable R-tree candidate
//! sets — a point candidate strictly inside a rectangle constant is
//! decided there, from its envelope — and every column the steps read is
//! resolved to a table index **at plan time**, so no per-row name lookup
//! survives into execution.
//!
//! The plan is the program: [`Plan::steps`] lists one [`Step`] per
//! physical operator, in execution order. The executor
//! ([`crate::exec`]) builds one pull operator per step,
//! [`Plan::describe`] prints one line per step, and the route the serving
//! tier counts is the label of the first blocking step
//! ([`Plan::route`]). Choosing a fast path is choosing steps: `TopK`
//! instead of `Sort` + `Slice`, `Count` or `GroupCount` instead of
//! `Aggregate`. Each filter sits right after the join step that binds the
//! last of its variables, or after the left-joins when it reads an
//! OPTIONAL variable.
//!
//! [`logical`] builds the same steps without a store — no dictionary ids,
//! no candidate sets. The federation engine (`ee-federation`) reads two
//! things off it: the `Scan`/`Probe` order ([`Plan::join_order`]), which
//! is its fetch order, and the pushdown region, which drives spatial
//! source selection. It then runs the query itself through [`plan`] and
//! the executor, on a mediator store that holds the fetched triples.
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

/// Every [`Plan::route`] label, in metric-rendering order: the labels of
/// `ee_rdf_fastpath_total{kind}`.
pub const ROUTES: [&str; 6] =
    ["topk", "fast_count", "group_count", "full_sort", "aggregate", "stream"];

/// One physical operator of a [`Plan`]. Steps up to the first aggregate
/// read and write rows laid out as [`Plan::vars`]; an aggregate step emits
/// one column per SELECT item, and the steps after it index those.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Enumerate the matches of a required pattern (an index into
    /// [`Plan::patterns`]); always the first step. A plan with no
    /// required pattern starts from one all-unbound row instead.
    Scan(usize),
    /// Extend every row by the matches of a required pattern under its
    /// bindings.
    Probe(usize),
    /// Keep the rows that pass a filter (an index into [`Plan::filters`]).
    Filter(usize),
    /// OPTIONAL: extend every row by the joined matches of these patterns
    /// (in execution order), or keep it unchanged when there are none.
    LeftJoin(Vec<usize>),
    /// Keep the first row of each distinct combination of these columns.
    Distinct(Vec<usize>),
    /// ORDER BY + LIMIT without DISTINCT: a bounded heap keeps the first
    /// `offset + limit` rows in order, then the step skips `offset`.
    TopK {
        /// The ordered column.
        col: usize,
        /// Ascending.
        asc: bool,
        /// OFFSET (0 when absent).
        offset: usize,
        /// LIMIT.
        limit: usize,
    },
    /// ORDER BY: a stable global sort on one column.
    Sort {
        /// The ordered column.
        col: usize,
        /// Ascending.
        asc: bool,
    },
    /// A lone COUNT without GROUP BY, counted batch by batch.
    Count(Grouping),
    /// GROUP BY whose aggregates are all COUNTs: one pass over an
    /// id-keyed counter table.
    GroupCount(Grouping),
    /// Any other grouping: every input row is kept, grouped, and each
    /// aggregate computed per group.
    Aggregate(Grouping),
    /// OFFSET, then LIMIT.
    Slice {
        /// Rows to skip.
        offset: usize,
        /// Rows to keep after that (`None` = all).
        limit: Option<usize>,
    },
    /// The result columns, as (name, column) pairs.
    Project(Vec<(String, usize)>),
}

impl Step {
    /// The route label of a blocking step (one that needs every input row
    /// before it emits one); `None` for a streaming step.
    pub fn route(&self) -> Option<&'static str> {
        match self {
            Step::TopK { .. } => Some("topk"),
            Step::Count(_) => Some("fast_count"),
            Step::GroupCount(_) => Some("group_count"),
            Step::Sort { .. } => Some("full_sort"),
            Step::Aggregate(_) => Some("aggregate"),
            _ => None,
        }
    }
}

/// What an aggregate step groups by and emits.
#[derive(Debug, Clone, PartialEq)]
pub struct Grouping {
    /// GROUP BY columns of [`Plan::vars`].
    pub keys: Vec<usize>,
    /// One output column per SELECT item, with its name.
    pub items: Vec<(String, Item)>,
}

/// One output column of a [`Grouping`].
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// The group's value of a key (an index into [`Grouping::keys`]).
    Key(usize),
    /// An aggregate over a column of [`Plan::vars`]; `None` is `*`.
    Agg(AggFunc, Option<usize>),
    /// An aggregate over a variable the query never binds: an error once
    /// there is a group to aggregate.
    Unknown(String),
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

/// A compiled filter and the variables it reads.
#[derive(Debug, Clone)]
pub struct FilterPlan {
    /// The filter, compiled over this plan's columns.
    pub filter: expr::Filter,
    /// Columns of every variable the expression references.
    pub vars: Vec<usize>,
}

/// An executable query plan. See the module docs for the two builders.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The full variable table; row layout of every binding batch.
    pub vars: Vec<String>,
    /// Every triple pattern as parsed: the required ones, then each
    /// OPTIONAL group's (kept for inspection and for engines that ship
    /// patterns to remote endpoints).
    pub patterns: Vec<TriplePattern>,
    /// Slots parallel to [`Plan::patterns`]: id-resolved for physical
    /// plans, every constant a placeholder for logical ones.
    pub slots: Vec<[Slot; 3]>,
    /// The compiled filters, in query order; [`Step::Filter`] places them.
    pub filters: Vec<FilterPlan>,
    /// Per-column spatial candidate id sets (sorted ascending) from
    /// R-tree pushdown. Empty for logical plans and for
    /// [`plan_without_pushdown`].
    pub candidates: HashMap<usize, Vec<u64>>,
    /// The pushdown region, when one exists: (variable name, envelope).
    /// Logical plans keep this for spatial source selection.
    pub region: Option<(String, Envelope)>,
    /// True when some required pattern contains a constant the store has
    /// never seen: the query yields no join rows.
    pub impossible: bool,
    /// The program, in execution order.
    pub steps: Vec<Step>,
}

fn var_index(vars: &mut Vec<String>, name: &str) -> usize {
    if let Some(i) = vars.iter().position(|v| v == name) {
        i
    } else {
        vars.push(name.to_string());
        vars.len() - 1
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
            if v >= bound.len() {
                bound.resize(v + 1, false);
            }
            bound[v] = true;
        }
    }
    order
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
    let resolve = |p: &TriplePattern, vars: &mut Vec<String>, impossible: &mut bool| {
        [&p.s, &p.p, &p.o].map(|t| match (t, store) {
            (PatternTerm::Var(name), _) => Slot::Var(var_index(vars, name)),
            (PatternTerm::Const(term), Some(st)) => st.dict().id_of(term).map_or_else(
                || {
                    *impossible = true;
                    Slot::Impossible
                },
                Slot::Const,
            ),
            // Logical plans carry no ids; mark constants with a
            // placeholder the executor never sees.
            (PatternTerm::Const(_), None) => Slot::Const(0),
        })
    };
    let mut patterns = q.patterns.clone();
    let mut slots: Vec<[Slot; 3]> =
        q.patterns.iter().map(|p| resolve(p, &mut vars, &mut impossible)).collect();
    // An optional group with an unknown constant never matches; the
    // Slot::Impossible stays in the group and the left-join passes rows
    // through unextended.
    let mut groups = Vec::with_capacity(q.optionals.len());
    for group in &q.optionals {
        let start = slots.len();
        for p in group {
            slots.push(resolve(p, &mut vars, &mut false));
            patterns.push(p.clone());
        }
        groups.push(start..slots.len());
    }
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
        filters.push(FilterPlan { filter, vars: used });
    }
    // Group/order vars must exist in the table too.
    let group_by: Vec<usize> = q.group_by.iter().map(|v| var_index(&mut vars, v)).collect();
    let order_by = q.order_by.as_ref().map(|(v, asc)| (var_index(&mut vars, v), *asc));

    // The joins, each filter right after the step that binds the last of
    // its variables; filters on OPTIONAL variables after the left-joins.
    let mut steps = Vec::new();
    let mut bound = vec![false; vars.len()];
    let mut placed = vec![false; filters.len()];
    for (k, pi) in choose_order(&slots[..q.patterns.len()], store).into_iter().enumerate() {
        steps.push(if k == 0 { Step::Scan(pi) } else { Step::Probe(pi) });
        for v in slot_vars(&slots[pi]) {
            bound[v] = true;
        }
        for (fi, f) in filters.iter().enumerate() {
            if !placed[fi] && f.vars.iter().all(|&v| bound[v]) {
                placed[fi] = true;
                steps.push(Step::Filter(fi));
            }
        }
    }
    for group in groups {
        let order = choose_order(&slots[group.clone()], store);
        steps.push(Step::LeftJoin(order.into_iter().map(|i| group.start + i).collect()));
    }
    steps.extend((0..filters.len()).filter(|&fi| !placed[fi]).map(Step::Filter));
    tail(q, &vars, group_by, order_by, &mut steps)?;

    Ok(Plan {
        vars,
        patterns,
        slots,
        filters,
        candidates,
        region,
        impossible,
        steps,
    })
}

/// The steps after the joins: grouping, DISTINCT, ORDER BY, OFFSET/LIMIT
/// and the projection, in that order. A SELECT variable outside the
/// GROUP BY of an aggregate query is an error here, before any join runs.
fn tail(
    q: &Query,
    vars: &[String],
    group_by: Vec<usize>,
    order_by: Option<(usize, bool)>,
    steps: &mut Vec<Step>,
) -> Result<(), RdfError> {
    let has_agg = q.select.iter().any(|s| matches!(s, SelectItem::Agg { .. }));
    let mut topk = false;
    let project: Vec<(String, usize)> = if has_agg || !group_by.is_empty() {
        let mut items = Vec::with_capacity(q.select.len());
        for item in &q.select {
            items.push(match item {
                SelectItem::Var(v) => {
                    let key = q.group_by.iter().position(|g| g == v).ok_or_else(|| {
                        RdfError::Eval(format!("?{v} selected but not in GROUP BY"))
                    })?;
                    (v.clone(), Item::Key(key))
                }
                SelectItem::Agg { func, var, alias } => {
                    let arg = match var {
                        None => Item::Agg(*func, None),
                        Some(v) => match vars.iter().position(|x| x == v) {
                            Some(c) => Item::Agg(*func, Some(c)),
                            None => Item::Unknown(v.clone()),
                        },
                    };
                    (alias.clone(), arg)
                }
            });
        }
        let counts_only = items
            .iter()
            .all(|(_, it)| matches!(it, Item::Key(_) | Item::Agg(AggFunc::Count, _)));
        let project: Vec<(String, usize)> =
            items.iter().enumerate().map(|(i, (n, _))| (n.clone(), i)).collect();
        let g = Grouping { keys: group_by, items };
        steps.push(match (g.keys.is_empty(), g.items.len(), counts_only && has_agg) {
            (true, 1, true) => Step::Count(g),
            (false, _, true) => Step::GroupCount(g),
            _ => Step::Aggregate(g),
        });
        if q.distinct {
            steps.push(Step::Distinct((0..q.select.len()).collect()));
        }
        // ORDER BY a name the aggregate does not emit orders nothing.
        if let Some((ov, asc)) = &q.order_by {
            if let Some(col) = project.iter().position(|(n, _)| n == ov) {
                steps.push(Step::Sort { col, asc: *asc });
            }
        }
        project
    } else {
        let names: Vec<&String> = if q.star {
            vars.iter().collect()
        } else {
            q.select
                .iter()
                .filter_map(|s| match s {
                    SelectItem::Var(v) => Some(v),
                    SelectItem::Agg { .. } => None,
                })
                .collect()
        };
        let column = |n: &String| vars.iter().position(|v| v == n).expect("SELECT variables are in the table");
        let project: Vec<(String, usize)> = names.into_iter().map(|n| (n.clone(), column(n))).collect();
        match (order_by, q.limit) {
            // DISTINCT dedups after the sort: a heap would under-produce.
            (Some((col, asc)), Some(limit)) if !q.distinct => {
                topk = true;
                steps.push(Step::TopK { col, asc, offset: q.offset.unwrap_or(0), limit });
            }
            (Some((col, asc)), _) => steps.push(Step::Sort { col, asc }),
            (None, _) => {}
        }
        if q.distinct {
            steps.push(Step::Distinct(project.iter().map(|&(_, c)| c).collect()));
        }
        project
    };
    if !topk && (q.offset.is_some() || q.limit.is_some()) {
        steps.push(Step::Slice { offset: q.offset.unwrap_or(0), limit: q.limit });
    }
    steps.push(Step::Project(project));
    Ok(())
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

impl Plan {
    /// The required patterns in join order: the `Scan` step's, then each
    /// `Probe` step's (indices into [`Plan::patterns`]).
    pub fn join_order(&self) -> impl Iterator<Item = usize> + '_ {
        self.steps.iter().filter_map(|s| match s {
            Step::Scan(pi) | Step::Probe(pi) => Some(*pi),
            _ => None,
        })
    }

    /// The route this plan takes, one of [`ROUTES`]: the label of its
    /// first blocking step, or `"stream"` when every step streams. A pure
    /// function of the steps, so the executor and the serving tier's
    /// `ee_rdf_fastpath_total{kind}` counter always agree.
    pub fn route(&self) -> &'static str {
        self.steps.iter().find_map(Step::route).unwrap_or("stream")
    }

    /// Whether running this plan touches at most `max_candidates` probe
    /// rows: it has exactly one required pattern (no `Probe`, no
    /// `LeftJoin`), no blocking step but a lone `Count`, and its `Scan`
    /// enumerates an R-tree candidate set of at most `max_candidates`
    /// ids. The candidate test is the one the executor's seed scan takes
    /// (`join::seed_candidates`), so a plan this calls bounded runs on
    /// exactly that access path. `store` is the store or view the plan
    /// was built against.
    pub fn is_bounded(&self, store: StoreView<'_>, max_candidates: usize) -> bool {
        let Some(Step::Scan(pi)) = self.steps.first() else {
            return false;
        };
        let unbounded = self.steps.iter().any(|s| {
            matches!(
                s,
                Step::Probe(_)
                    | Step::LeftJoin(_)
                    | Step::TopK { .. }
                    | Step::Sort { .. }
                    | Step::GroupCount(_)
                    | Step::Aggregate(_)
            )
        });
        !unbounded
            && crate::join::seed_candidates(store, self, *pi)
                .is_some_and(|(_, cands)| cands.len() <= max_candidates)
    }

    /// A stable human-readable rendering of the plan, one numbered line
    /// per step, for inspection and snapshot tests. Deliberately excludes
    /// anything that varies with store content beyond the join order
    /// itself (no cardinalities, no candidate counts).
    pub fn describe(&self) -> String {
        // Column names of the rows a step reads: the variable table, then
        // an aggregate's output columns.
        let mut names: Vec<&str> = self.vars.iter().map(String::as_str).collect();
        let mut s = String::new();
        for (i, step) in self.steps.iter().enumerate() {
            let cols = |cols: &[usize]| {
                cols.iter().map(|&c| format!("?{}", names[c])).collect::<Vec<_>>().join(" ")
            };
            let dir = |asc: bool| if asc { "asc" } else { "desc" };
            let line = match step {
                Step::Scan(pi) => format!("scan {}", self.pattern_line(*pi)),
                Step::Probe(pi) => format!("probe {}", self.pattern_line(*pi)),
                Step::Filter(fi) => format!("filter {fi} on {}", cols(&self.filters[*fi].vars)),
                Step::LeftJoin(ps) => {
                    let ps: Vec<String> = ps.iter().map(|&pi| self.pattern_line(pi)).collect();
                    format!("left join {}", ps.join(" . "))
                }
                Step::Distinct(cs) => format!("distinct {}", cols(cs)),
                Step::TopK { col, asc, offset, limit } => {
                    format!("topk ?{} {} offset {offset} limit {limit}", names[*col], dir(*asc))
                }
                Step::Sort { col, asc } => format!("sort ?{} {}", names[*col], dir(*asc)),
                Step::Count(g) | Step::GroupCount(g) | Step::Aggregate(g) => {
                    let kind = match step {
                        Step::Count(_) => "count",
                        Step::GroupCount(_) => "group count",
                        _ => "aggregate",
                    };
                    let items: Vec<String> = g
                        .items
                        .iter()
                        .map(|(name, item)| match item {
                            Item::Key(k) => format!("?{}", self.vars[g.keys[*k]]),
                            Item::Agg(func, arg) => {
                                let arg = arg.map_or("*".into(), |c| format!("?{}", self.vars[c]));
                                format!("{}({arg}) as ?{name}", format!("{func:?}").to_lowercase())
                            }
                            Item::Unknown(v) => format!("unknown ?{v} as ?{name}"),
                        })
                        .collect();
                    let by = match g.keys.is_empty() {
                        true => String::new(),
                        false => format!(" by {}", cols(&g.keys)),
                    };
                    format!("{kind}{by}: {}", items.join(" "))
                }
                Step::Slice { offset, limit } => match limit {
                    Some(limit) => format!("slice offset {offset} limit {limit}"),
                    None => format!("slice offset {offset}"),
                },
                Step::Project(cols) => {
                    let cols: Vec<String> = cols.iter().map(|(n, c)| format!("?{n}@{c}")).collect();
                    format!("project {}", cols.join(" "))
                }
            };
            s.push_str(&format!("{i}: {line}\n"));
            if let Step::Count(g) | Step::GroupCount(g) | Step::Aggregate(g) = step {
                names = g.items.iter().map(|(n, _)| n.as_str()).collect();
            }
        }
        s
    }

    /// A pattern as text, with the pushdown marker when its object
    /// variable has a spatial candidate set.
    fn pattern_line(&self, pi: usize) -> String {
        let p = &self.patterns[pi];
        let term = |t: &PatternTerm| match t {
            PatternTerm::Var(v) => format!("?{v}"),
            PatternTerm::Const(c) => c.ntriples(),
        };
        let mut line = format!("{} {} {}", term(&p.s), term(&p.p), term(&p.o));
        if let Some([_, _, Slot::Var(v)]) = self.slots.get(pi) {
            if self.candidates.contains_key(v) {
                line.push_str(&format!(" [pushdown ?{}]", self.vars[*v]));
            }
        }
        line
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
        st.pack();
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
        assert_eq!(p.join_order().collect::<Vec<_>>(), vec![0, 1]);
        // The filterless name join is step 1 with ?y bound.
        assert_eq!(p.steps[..2], [Step::Scan(0), Step::Probe(1)]);
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
            "0: scan ?x <http://e/knows> ?y\n\
             1: probe ?y <http://e/name> ?n\n\
             2: project ?n@0\n"
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
            "0: scan ?s <http://e/hasGeometry> ?g [pushdown ?g]\n\
             1: filter 0 on ?g\n\
             2: count: count(?s) as ?n\n\
             3: project ?n@0\n"
        );
        assert_eq!(p.route(), "fast_count");
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
        assert!(post.join_order().eq(pushed.join_order()));
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
        // ?n is bound by the name pattern; the filter runs right after
        // that pattern's step, whichever step that is.
        let name_step = p
            .steps
            .iter()
            .position(|s| match s {
                Step::Scan(pi) | Step::Probe(pi) => {
                    matches!(&q.patterns[*pi].p, PatternTerm::Const(t) if t == &e("name"))
                }
                _ => false,
            })
            .unwrap();
        assert_eq!(p.steps[name_step + 1], Step::Filter(0));
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
        // Optional var → residual: the filter runs after the left-join.
        assert_eq!(
            p.describe(),
            "0: scan ?x <http://e/knows> ?y\n\
             1: left join ?x <http://e/name> ?n\n\
             2: filter 0 on ?n\n\
             3: project ?x@0\n"
        );
    }

    #[test]
    fn snapshot_aggregate_tail_plan() {
        let st = store();
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT DISTINCT ?x (COUNT(?y) AS ?n) (MIN(?m) AS ?lo) WHERE { \
             ?x e:knows ?y . ?y e:name ?m } GROUP BY ?x ORDER BY DESC(?n) LIMIT 5 OFFSET 1",
        )
        .unwrap();
        let p = plan(&st, &q).unwrap();
        // After the aggregate, steps index its output columns.
        assert_eq!(
            p.describe(),
            "0: scan ?x <http://e/knows> ?y\n\
             1: probe ?y <http://e/name> ?m\n\
             2: aggregate by ?x: ?x count(?y) as ?n min(?m) as ?lo\n\
             3: distinct ?x ?n ?lo\n\
             4: sort ?n desc\n\
             5: slice offset 1 limit 5\n\
             6: project ?x@0 ?n@1 ?lo@2\n"
        );
        assert_eq!(p.route(), "aggregate");
    }

    /// A SELECT variable outside the GROUP BY fails at plan time, before
    /// any join runs, with or without an aggregate.
    #[test]
    fn aggregate_shape_is_checked_at_plan_time() {
        let st = store();
        for q_text in [
            "PREFIX e: <http://e/> SELECT ?x (SUM(?n) AS ?s) WHERE { ?x e:name ?n . ?x e:knows ?y } GROUP BY ?y",
            "PREFIX e: <http://e/> SELECT ?x WHERE { ?x e:knows ?y } GROUP BY ?y",
            "PREFIX e: <http://e/> SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x e:knows ?y } GROUP BY ?y",
            "PREFIX e: <http://e/> SELECT ?x (COUNT(*) AS ?n) WHERE { ?x e:knows ?y }",
        ] {
            let q = parse_query(q_text).unwrap();
            let err = plan_view(StoreView::from(&st), &q).unwrap_err();
            assert_eq!(err, RdfError::Eval("?x selected but not in GROUP BY".into()), "{q_text}");
        }
    }

    #[test]
    fn logical_plan_has_no_ids_but_same_shape() {
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT ?f ?n WHERE { ?f e:cropType \"wheat\" . ?f e:name ?n }",
        )
        .unwrap();
        let p = logical(&q).unwrap();
        assert_eq!(p.join_order().collect::<Vec<_>>(), vec![0, 1], "two consts beat one const");
        assert!(p.candidates.is_empty());
        assert!(!p.impossible);
        assert_eq!(p.steps.last(), Some(&Step::Project(vec![("f".into(), 0), ("n".into(), 1)])));
    }

    #[test]
    fn fast_path_routing_covers_every_shape() {
        let st = store();
        let route = |q_text: &str| {
            let q = parse_query(q_text).unwrap();
            plan(&st, &q).unwrap().route()
        };
        let cases = [
            // ORDER BY + LIMIT without DISTINCT: bounded heap.
            (
                "PREFIX e: <http://e/> SELECT ?n WHERE { ?x e:name ?n } ORDER BY ?n LIMIT 2",
                "topk",
            ),
            // OFFSET rides along with the heap (k + offset resident rows).
            (
                "PREFIX e: <http://e/> SELECT ?n WHERE { ?x e:name ?n } ORDER BY DESC(?n) LIMIT 2 OFFSET 1",
                "topk",
            ),
            // DISTINCT dedups after the sort — the heap would under-produce.
            (
                "PREFIX e: <http://e/> SELECT DISTINCT ?n WHERE { ?x e:name ?n } ORDER BY ?n LIMIT 2",
                "full_sort",
            ),
            // No LIMIT: nothing to bound.
            (
                "PREFIX e: <http://e/> SELECT ?n WHERE { ?x e:name ?n } ORDER BY ?n",
                "full_sort",
            ),
            ("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }", "fast_count"),
            (
                "PREFIX e: <http://e/> SELECT (COUNT(?y) AS ?n) WHERE { ?x e:knows ?y }",
                "fast_count",
            ),
            // Non-count aggregate: generic path.
            (
                "PREFIX e: <http://e/> SELECT (MIN(?n) AS ?lo) WHERE { ?x e:name ?n }",
                "aggregate",
            ),
            (
                "PREFIX e: <http://e/> SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x e:knows ?y } GROUP BY ?x",
                "group_count",
            ),
            // Grouped non-count aggregate: generic path.
            (
                "PREFIX e: <http://e/> SELECT ?x (MIN(?y) AS ?lo) WHERE { ?x e:knows ?y } GROUP BY ?x",
                "aggregate",
            ),
            (
                "PREFIX e: <http://e/> SELECT ?n WHERE { ?x e:name ?n } LIMIT 2",
                "stream",
            ),
        ];
        for (q_text, want) in cases {
            assert_eq!(route(q_text), want, "{q_text}");
        }
        // Labels are stable — the metrics contract.
        assert_eq!(ROUTES[0], "topk");
        assert_eq!(ROUTES.len(), 6);
        let mut labels = ROUTES.to_vec();
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
        assert!(d.ends_with("1: topk ?n asc offset 1 limit 2\n2: project ?n@0\n"), "{d}");
        // The plain pipelined route has no blocking step.
        let q = parse_query("PREFIX e: <http://e/> SELECT ?n WHERE { ?x e:name ?n } LIMIT 2").unwrap();
        let p = plan(&st, &q).unwrap();
        assert_eq!(p.describe(), "0: scan ?x <http://e/name> ?n\n1: slice offset 0 limit 2\n2: project ?n@0\n");
        assert!(p.steps.iter().all(|s| s.route().is_none()));
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
        assert_eq!(plan(&st, &q).unwrap().route(), "aggregate");
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
