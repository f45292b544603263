//! Merge-aware combination of per-shard query results.
//!
//! The sharded serving tier partitions one logical dataset by subject
//! hash across N stores, runs the same query on every shard, and needs
//! the partial answers folded back into one — with the fold chosen by
//! the *shape* of the query, not guessed from the payloads:
//!
//! * a bare `COUNT` aggregate sums the per-shard counts
//!   ([`MergeStrategy::SumCount`]) — the merged body is bit-identical to
//!   what one store holding everything would have produced;
//! * everything else concatenates rows in a canonical order
//!   ([`MergeStrategy::ConcatRows`]), sorted by each row's serialised
//!   form so the answer is independent of shard count and arrival
//!   order (`DISTINCT` additionally dedups across shards at the merge).
//!
//! [`strategy_for`] also guards correctness: a query whose patterns
//! join **across** subjects cannot be answered by per-shard evaluation
//! at all (a join partner may live on another shard), so it is rejected
//! rather than silently under-answered. Shardable shapes are: a single
//! pattern, or a basic graph pattern whose triples all share one
//! subject variable (the star-join shape every `/query` template uses)
//! or each pin a constant subject.
//!
//! A query-level `LIMIT n` is applied **at the merge**, never per
//! shard: [`strategy_for`] captures the parsed limit, [`scatter_text`]
//! strips the trailing `LIMIT` clause from the text each shard runs
//! (a per-shard `LIMIT` would keep enumeration-order prefixes, not the
//! canonical top rows), and [`merge`] truncates the sorted concat to
//! `min(row_cap, n)` — so a routed `LIMIT n` query returns exactly
//! `min(n, total)` rows, identical to the canonically sorted prefix of
//! the unsharded answer. The serving tier's transport `row_cap`
//! remains the one shard-order-dependent edge: bit-identity covers
//! queries whose per-shard row sets fit the cap.
//!
//! The `/query` body format lives here too: [`ResultWriter`] is its one
//! writer (streamed, collected, `?asOf=` and merged bodies alike) and
//! [`QueryResult::parse`] reads it back.

use crate::parser::{parse_query, AggFunc, PatternTerm, SelectItem};
use crate::term::TermRef;
use crate::RdfError;
use ee_util::json::{emit_string, fmt_number, Json};

/// How per-shard results of a query fold into one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Single bare `COUNT` aggregate: sum the per-shard counts.
    SumCount,
    /// Concatenate rows in canonical (serialised, sorted) order;
    /// `distinct` dedups identical rows across shards.
    ConcatRows {
        /// The query asked for `DISTINCT`.
        distinct: bool,
        /// The query's own `LIMIT n`, applied after the canonical sort
        /// (the scattered text has the clause stripped — see
        /// [`scatter_text`] — so shards never pre-prune).
        limit: Option<usize>,
    },
}

/// The SPARQL text the router scatters to each shard: `sparql` with a
/// trailing `LIMIT` clause removed. A shard that applied the query's
/// own `LIMIT n` would keep its *enumeration-order* first `n` rows —
/// generally not its canonical-order top rows — so the merged prefix
/// would diverge from the unsharded answer. Stripping the clause makes
/// the merge the single place the cap is applied.
///
/// Only call with text [`strategy_for`] accepted: the grammar puts
/// `LIMIT` last, so the clause is the trailing keyword + digits (when
/// absent the text is returned unchanged).
pub fn scatter_text(sparql: &str) -> String {
    let trimmed = sparql.trim_end();
    if let Some(pos) = trimmed.to_ascii_lowercase().rfind("limit") {
        let before_ok = trimmed[..pos]
            .chars()
            .next_back()
            .is_some_and(char::is_whitespace);
        let tail = &trimmed[pos + "limit".len()..];
        let tail_ok = !tail.trim().is_empty()
            && tail.chars().all(|c| c.is_ascii_whitespace() || c.is_ascii_digit());
        if before_ok && tail_ok {
            return trimmed[..pos].trim_end().to_string();
        }
    }
    sparql.to_string()
}

/// Pick the merge strategy for `sparql`, or reject it as unshardable.
///
/// Errors are [`RdfError::Parse`] for text the engine cannot parse and
/// [`RdfError::Eval`] for well-formed queries whose evaluation cannot
/// be distributed over subject-hash shards (cross-subject joins,
/// `OPTIONAL`, `GROUP BY`, non-`COUNT` aggregates, `ORDER BY`).
pub fn strategy_for(sparql: &str) -> Result<MergeStrategy, RdfError> {
    let q = parse_query(sparql)?;
    if q.as_of.is_some() {
        return Err(RdfError::Eval(
            "AS OF is not routable: commit ids are per-shard; query a shard directly".into(),
        ));
    }
    if q.offset.is_some() {
        return Err(RdfError::Eval(
            "OFFSET is not shardable: a per-shard skip drops different rows on every shard"
                .into(),
        ));
    }
    if !q.optionals.is_empty() {
        return Err(RdfError::Eval(
            "OPTIONAL is not shardable: the optional side may live on another shard".into(),
        ));
    }
    if !q.group_by.is_empty() {
        return Err(RdfError::Eval(
            "GROUP BY is not shardable yet; run it against a single store".into(),
        ));
    }
    if q.order_by.is_some() {
        return Err(RdfError::Eval(
            "ORDER BY is not shardable: the merge defines its own canonical order".into(),
        ));
    }
    // Shardable pattern shapes: one pattern, or all patterns sharing a
    // single subject variable (star join — every join partner lives on
    // the subject's own shard), or every subject a constant.
    if q.patterns.len() > 1 {
        let mut subject_var: Option<&str> = None;
        let mut all_const = true;
        let mut all_same_var = true;
        for p in &q.patterns {
            match &p.s {
                PatternTerm::Var(v) => {
                    all_const = false;
                    match subject_var {
                        None => subject_var = Some(v),
                        Some(sv) if sv == v => {}
                        Some(_) => all_same_var = false,
                    }
                }
                PatternTerm::Const(_) => all_same_var = false,
            }
        }
        if !(all_const || (all_same_var && subject_var.is_some())) {
            return Err(RdfError::Eval(
                "cross-subject joins are not shardable: join partners may live on \
                 different shards"
                    .into(),
            ));
        }
    }
    let aggs: Vec<&SelectItem> = q
        .select
        .iter()
        .filter(|s| matches!(s, SelectItem::Agg { .. }))
        .collect();
    if aggs.is_empty() {
        return Ok(MergeStrategy::ConcatRows {
            distinct: q.distinct,
            limit: q.limit,
        });
    }
    if let [SelectItem::Agg { func: AggFunc::Count, .. }] = q.select.as_slice() {
        return Ok(MergeStrategy::SumCount);
    }
    Err(RdfError::Eval(
        "only a single bare COUNT aggregate is shardable (SUM/AVG/MIN/MAX need \
         a coordinator-side fold)"
            .into(),
    ))
}

/// The one writer of the `/query` body,
/// `{"vars":[…],"rows":[…],"count":n}`: incremental, so a streamed
/// response emits it batch by batch and a collected one in one go, with
/// the same bytes.
///
/// `count` is every row pushed; rows past the `limit` cap are counted but
/// not written. The head is held back until the first row is written (or
/// until [`finish`](ResultWriter::finish) when none is), so a streamed
/// body's first chunk already carries rows. A term is written as its IRI
/// or literal lexical form (datatype dropped); an unbound cell as `null`.
#[derive(Debug)]
pub struct ResultWriter {
    /// `{"vars":[…],"rows":[` until it has been written.
    head: Option<String>,
    limit: usize,
    written: usize,
    count: u64,
}

impl ResultWriter {
    /// A writer for a body projecting `vars` that writes at most `limit`
    /// rows.
    pub fn new(vars: &[String], limit: usize) -> ResultWriter {
        let mut head = String::from("{\"vars\":[");
        for (i, v) in vars.iter().enumerate() {
            if i > 0 {
                head.push(',');
            }
            emit_string(v, &mut head);
        }
        head.push_str("],\"rows\":[");
        ResultWriter {
            head: Some(head),
            limit,
            written: 0,
            count: 0,
        }
    }

    /// Count one result row and append it to `out` if under the cap. The
    /// cells are borrowed, as [`crate::exec::StreamCore::drain_batch`]
    /// hands them over.
    pub fn row(&mut self, out: &mut String, row: &[Option<TermRef<'_>>]) {
        if !self.begin_row(out) {
            return;
        }
        out.push('[');
        for (i, t) in row.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match t {
                None => out.push_str("null"),
                Some(t) => emit_string(t.lexical(), out),
            }
        }
        out.push(']');
    }

    /// Append the tail — and the head, if no row was written — ending the
    /// body.
    pub fn finish(mut self, out: &mut String) {
        self.write_head(out);
        out.push_str("],\"count\":");
        out.push_str(&fmt_number(self.count as f64));
        out.push('}');
    }

    /// Count a row; when it is under the cap, write what precedes it (the
    /// head or a separator) and return `true`.
    fn begin_row(&mut self, out: &mut String) -> bool {
        self.count += 1;
        if self.written == self.limit {
            return false;
        }
        self.write_head(out);
        if self.written > 0 {
            out.push(',');
        }
        self.written += 1;
        true
    }

    fn write_head(&mut self, out: &mut String) {
        if let Some(head) = self.head.take() {
            out.push_str(&head);
        }
    }
}

/// One parsed `/query` result body: the `{"vars":…,"rows":…,"count":…}`
/// shape [`ResultWriter`] emits.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Projected variable names, in emission order.
    pub vars: Vec<String>,
    /// Result rows, each a JSON array of term values.
    pub rows: Vec<Json>,
    /// Total result rows (may exceed `rows.len()` under a row cap).
    pub count: u64,
}

impl QueryResult {
    /// Parse a serialised result body.
    pub fn parse(body: &str) -> Result<QueryResult, RdfError> {
        let v = ee_util::json::parse(body)
            .map_err(|e| RdfError::Eval(format!("bad shard result body: {e}")))?;
        let vars = v
            .get("vars")
            .and_then(Json::as_arr)
            .ok_or_else(|| RdfError::Eval("shard result missing vars".into()))?
            .iter()
            .map(|j| {
                j.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| RdfError::Eval("non-string var name".into()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let rows = v
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| RdfError::Eval("shard result missing rows".into()))?
            .to_vec();
        let count = v
            .get("count")
            .and_then(Json::as_u64)
            .ok_or_else(|| RdfError::Eval("shard result missing count".into()))?;
        Ok(QueryResult { vars, rows, count })
    }

    /// Serialise back to the body shape through [`ResultWriter`], so the
    /// bytes equal what the serving tier emits for the same
    /// `vars`/`rows`/`count`.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        let mut w = ResultWriter::new(&self.vars, usize::MAX);
        for row in &self.rows {
            w.begin_row(&mut out);
            row.emit_into(&mut out);
        }
        // The rows carried may be fewer than `count` (a row cap upstream).
        w.count = self.count;
        w.finish(&mut out);
        out
    }
}

/// Fold per-shard results into one under `strategy`.
///
/// `parts` must be non-empty and agree on `vars` (they ran the same
/// query); `row_cap` is the serving tier's materialised-row cap, applied
/// after the canonical sort so the kept prefix is deterministic.
pub fn merge(
    parts: &[QueryResult],
    strategy: &MergeStrategy,
    row_cap: usize,
) -> Result<QueryResult, RdfError> {
    let first = parts
        .first()
        .ok_or_else(|| RdfError::Eval("no shard results to merge".into()))?;
    let vars = first.vars.clone();
    if parts.iter().any(|p| p.vars != vars) {
        return Err(RdfError::Eval(
            "shard results disagree on projected vars".into(),
        ));
    }
    match strategy {
        MergeStrategy::SumCount => {
            let mut total: u64 = 0;
            for p in parts {
                let lexical = p
                    .rows
                    .first()
                    .and_then(|r| r.as_arr())
                    .and_then(|r| r.first())
                    .and_then(Json::as_str)
                    .ok_or_else(|| RdfError::Eval("COUNT shard result has no value".into()))?;
                total += lexical
                    .parse::<u64>()
                    .map_err(|_| RdfError::Eval(format!("bad COUNT lexical {lexical:?}")))?;
            }
            Ok(QueryResult {
                vars,
                rows: vec![Json::Arr(vec![Json::Str(total.to_string())])],
                count: 1,
            })
        }
        MergeStrategy::ConcatRows { distinct, limit } => {
            let mut keyed: Vec<(String, Json)> = parts
                .iter()
                .flat_map(|p| p.rows.iter())
                .map(|r| (r.emit(), r.clone()))
                .collect();
            keyed.sort_by(|a, b| a.0.cmp(&b.0));
            if *distinct {
                keyed.dedup_by(|a, b| a.0 == b.0);
            }
            let total = if *distinct {
                keyed.len() as u64
            } else {
                parts.iter().map(|p| p.count).sum()
            };
            // The query's own LIMIT is part of its semantics: it caps
            // both the kept rows and the reported count. The transport
            // row_cap caps rows only (count still reports the total).
            let count = match limit {
                Some(n) => total.min(*n as u64),
                None => total,
            };
            keyed.truncate(row_cap.min(limit.unwrap_or(usize::MAX)));
            Ok(QueryResult {
                vars,
                rows: keyed.into_iter().map(|(_, r)| r).collect(),
                count,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    #[test]
    fn count_queries_sum() {
        let q = "SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }";
        assert_eq!(strategy_for(q).unwrap(), MergeStrategy::SumCount);
        let part = |n: u64| QueryResult {
            vars: vec!["n".into()],
            rows: vec![Json::Arr(vec![Json::Str(n.to_string())])],
            count: 1,
        };
        let merged = merge(&[part(3), part(0), part(9)], &MergeStrategy::SumCount, 1000).unwrap();
        assert_eq!(merged.emit(), "{\"vars\":[\"n\"],\"rows\":[[\"12\"]],\"count\":1}");
    }

    #[test]
    fn row_queries_concat_in_canonical_order() {
        let q = "SELECT ?s ?o WHERE { ?s <http://e/p> ?o }";
        assert_eq!(
            strategy_for(q).unwrap(),
            MergeStrategy::ConcatRows {
                distinct: false,
                limit: None
            }
        );
        let row = |s: &str| Json::Arr(vec![Json::Str(s.into()), Json::Str("x".into())]);
        let part = |names: &[&str]| QueryResult {
            vars: vec!["s".into(), "o".into()],
            rows: names.iter().map(|n| row(n)).collect(),
            count: names.len() as u64,
        };
        let a = merge(
            &[part(&["b", "a"]), part(&["c"])],
            &MergeStrategy::ConcatRows {
                distinct: false,
                limit: None,
            },
            1000,
        )
        .unwrap();
        let b = merge(
            &[part(&["c", "a"]), part(&["b"])],
            &MergeStrategy::ConcatRows {
                distinct: false,
                limit: None,
            },
            1000,
        )
        .unwrap();
        assert_eq!(a, b, "merge is independent of shard arrangement");
        assert_eq!(a.count, 3);
        assert_eq!(a.rows.len(), 3);
    }

    #[test]
    fn distinct_dedups_across_shards_and_cap_applies_after_sort() {
        let row = |s: &str| Json::Arr(vec![Json::Str(s.into())]);
        let part = |names: &[&str]| QueryResult {
            vars: vec!["c".into()],
            rows: names.iter().map(|n| row(n)).collect(),
            count: names.len() as u64,
        };
        let merged = merge(
            &[part(&["wheat", "maize"]), part(&["wheat"])],
            &MergeStrategy::ConcatRows {
                distinct: true,
                limit: None,
            },
            1000,
        )
        .unwrap();
        assert_eq!(merged.rows.len(), 2);
        assert_eq!(merged.count, 2);
        let capped = merge(
            &[part(&["b"]), part(&["a", "c"])],
            &MergeStrategy::ConcatRows {
                distinct: false,
                limit: None,
            },
            2,
        )
        .unwrap();
        assert_eq!(capped.rows.len(), 2);
        assert_eq!(capped.count, 3, "count still reports the full total");
        assert_eq!(capped.rows[0].emit(), "[\"a\"]");
    }

    #[test]
    fn query_limit_is_applied_at_the_merge() {
        let q = "SELECT ?s WHERE { ?s <http://e/p> ?o } LIMIT 2";
        let strategy = strategy_for(q).unwrap();
        assert_eq!(
            strategy,
            MergeStrategy::ConcatRows {
                distinct: false,
                limit: Some(2)
            }
        );
        // The scattered text drops the clause so shards never pre-prune.
        assert_eq!(scatter_text(q), "SELECT ?s WHERE { ?s <http://e/p> ?o }");
        assert_eq!(
            scatter_text("SELECT ?s WHERE { ?s ?p ?o }"),
            "SELECT ?s WHERE { ?s ?p ?o }",
            "no LIMIT: text unchanged"
        );
        // A literal merely *containing* "limit" is left alone.
        let tricky = "SELECT ?s WHERE { ?s <http://e/p> \"limit 3\" }";
        assert_eq!(scatter_text(tricky), tricky);
        let row = |s: &str| Json::Arr(vec![Json::Str(s.into())]);
        let part = |names: &[&str]| QueryResult {
            vars: vec!["s".into()],
            rows: names.iter().map(|n| row(n)).collect(),
            count: names.len() as u64,
        };
        // LIMIT 2 over 4 merged rows: exactly 2 rows — the canonical
        // prefix — and the count reports the capped length, however the
        // rows were spread across shards.
        let merged = merge(&[part(&["d", "b"]), part(&["a", "c"])], &strategy, 1000).unwrap();
        assert_eq!(merged.rows.len(), 2, "LIMIT re-applied post-merge");
        assert_eq!(merged.count, 2);
        assert_eq!(merged.rows[0].emit(), "[\"a\"]");
        assert_eq!(merged.rows[1].emit(), "[\"b\"]");
        // LIMIT above the total: everything survives, count = total.
        let all = merge(&[part(&["b"]), part(&["a"])], &strategy, 1000).unwrap();
        assert_eq!(all.rows.len(), 2);
        assert_eq!(all.count, 2);
        // DISTINCT + LIMIT: dedup first, then cap.
        let dd = merge(
            &[part(&["b", "a"]), part(&["a", "c"])],
            &MergeStrategy::ConcatRows {
                distinct: true,
                limit: Some(2),
            },
            1000,
        )
        .unwrap();
        assert_eq!(dd.rows.len(), 2);
        assert_eq!(dd.count, 2);
        assert_eq!(dd.rows[0].emit(), "[\"a\"]");
        // The transport row_cap still binds when tighter than LIMIT.
        let tight = merge(
            &[part(&["a", "b", "c"])],
            &MergeStrategy::ConcatRows {
                distinct: false,
                limit: Some(3),
            },
            1,
        )
        .unwrap();
        assert_eq!(tight.rows.len(), 1);
        assert_eq!(tight.count, 3, "row_cap elides rows without changing the count");
    }

    #[test]
    fn unshardable_shapes_are_rejected() {
        for q in [
            // Cross-subject join.
            "SELECT ?a ?b WHERE { ?a <http://e/p> ?x . ?b <http://e/q> ?x }",
            // OPTIONAL.
            "SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { ?s <http://e/q> ?r } }",
            // Non-count aggregate.
            "SELECT (SUM(?v) AS ?t) WHERE { ?s <http://e/v> ?v }",
            // GROUP BY.
            "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s",
            // ORDER BY.
            "SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s",
            // OFFSET: a per-shard skip drops different rows per shard.
            "SELECT ?s WHERE { ?s ?p ?o } LIMIT 5 OFFSET 2",
            // AS OF: commit ids are per-shard, never fleet-wide.
            "SELECT ?s WHERE { ?s ?p ?o } AS OF <cbf29ce484222325>",
        ] {
            assert!(matches!(strategy_for(q), Err(RdfError::Eval(_))), "{q}");
        }
        // Parse errors stay parse errors.
        assert!(matches!(strategy_for("nonsense"), Err(RdfError::Parse(_))));
    }

    #[test]
    fn star_joins_and_const_subjects_are_shardable() {
        for q in [
            "SELECT ?s ?t ?g WHERE { ?s <http://e/type> ?t . ?s <http://e/geom> ?g }",
            "SELECT ?o WHERE { <http://e/f1> <http://e/p> ?o . <http://e/f2> <http://e/p> ?o }",
            "SELECT DISTINCT ?o WHERE { ?s <http://e/p> ?o }",
        ] {
            assert!(strategy_for(q).is_ok(), "{q}");
        }
    }

    #[test]
    fn result_bodies_round_trip() {
        let body = "{\"vars\":[\"s\",\"o\"],\"rows\":[[\"http://e/a\",\"1\"],[\"http://e/b\",null]],\"count\":2}";
        let parsed = QueryResult::parse(body).unwrap();
        assert_eq!(parsed.emit(), body);
        assert!(QueryResult::parse("{\"rows\":[]}").is_err());
        assert!(QueryResult::parse("not json").is_err());
    }

    #[test]
    fn result_writer_holds_the_head_for_the_first_row_and_caps_rows() {
        let vars = ["s".to_string(), "o".to_string()];
        let lit = |l: &str| Some(Term::string(l));
        let mut w = ResultWriter::new(&vars, 3);
        let mut chunk = String::new();
        w.row(&mut chunk, &[]);
        let mut out = chunk.clone();
        assert!(chunk.starts_with("{\"vars\":[\"s\",\"o\"],\"rows\":[["), "{chunk}");
        for row in [
            vec![Some(Term::iri("http://e/a")), None],
            vec![lit("q\"uote"), lit("x")],
            vec![lit("past the cap"), None],
        ] {
            chunk.clear();
            let cells: Vec<_> = row.iter().map(|t| t.as_ref().map(Term::as_ref)).collect();
            w.row(&mut chunk, &cells);
            out.push_str(&chunk);
        }
        assert!(chunk.is_empty(), "a capped row writes nothing");
        w.finish(&mut out);
        assert_eq!(
            out,
            "{\"vars\":[\"s\",\"o\"],\"rows\":[[],[\"http://e/a\",null],[\"q\\\"uote\",\"x\"]],\"count\":4}",
            "the fourth row is counted, not written"
        );
        let parsed = QueryResult::parse(&out).unwrap();
        assert_eq!(parsed.emit(), out);
        // No rows (or a zero cap): the head goes out with the tail.
        let mut empty = String::new();
        ResultWriter::new(&vars, 0).finish(&mut empty);
        assert_eq!(empty, "{\"vars\":[\"s\",\"o\"],\"rows\":[],\"count\":0}");
    }
}
