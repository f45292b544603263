//! BM25 ranked retrieval over product search text.
//!
//! The classic catalogue answers "which products intersect this box with
//! these attribute filters"; this module answers "which products best
//! match these words" — the ranked-search half of the paper's catalogue
//! story, exposed by `ee-serve` as `mode=ranked` on `/catalogue/search`.
//!
//! Two searchers share one scoring function:
//!
//! * [`Bm25Index`] — an inverted index: a term dictionary, one postings
//!   list `(doc, tf)` per term in ascending doc order, and per-document
//!   lengths. A query walks only the postings of its terms and keeps the
//!   top k in a bounded heap, so cost is O(matching postings + m log k),
//!   independent of corpus size for selective terms.
//! * [`ScanSearcher`] — the brute-force reference: every query walks
//!   every document. O(docs × terms) per query, kept as the correctness
//!   oracle (tests assert exact equality) and as the latency baseline
//!   BM25 is measured against.
//!
//! ## Scoring
//!
//! The classic Okapi form with `k1 = 1.2`, `b = 0.75`:
//!
//! ```text
//! score(D, Q) = Σ_t∈Q  idf(t) · tf(t,D)·(k1+1) / (tf(t,D) + k1·(1 − b + b·|D|/avgdl))
//! idf(t)      = ln( (N − df(t) + 0.5) / (df(t) + 0.5) + 1 )
//! ```
//!
//! The `+ 1` inside the log keeps idf strictly positive, so every
//! matching posting contributes a positive score. Query terms are
//! deduplicated in first-appearance order and both searchers accumulate
//! per-document scores in that same term order, which makes their f64
//! sums — not just their rankings — bit-identical.
//!
//! ## Tokenisation
//!
//! [`tokenize`]: split on every non-alphanumeric character, drop empty
//! fragments, lowercase. `"Sentinel-2 MSIL2A"` → `["sentinel", "2",
//! "msil2a"]`. No stemming, no stop words — the corpus vocabulary is
//! controlled (see `Product::search_text`).
//!
//! Ties are broken by ascending document id under `f64::total_cmp`, so a
//! ranking is a strict total order and top-k equals the full ranking
//! truncated — the same partition-independence argument the SPARQL top-k
//! path relies on.

use crate::product::Product;
use std::collections::{BinaryHeap, HashMap};

/// BM25 term-frequency saturation constant.
pub const K1: f64 = 1.2;
/// BM25 length-normalisation constant.
pub const B: f64 = 0.75;

/// Lowercased alphanumeric tokens of `text`, in order.
pub fn tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
        .collect()
}

/// One ranked result: a document index (into the corpus the searcher was
/// built from) and its BM25 score.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Index of the document in build order.
    pub doc: u32,
    /// BM25 score (strictly positive: only matching documents are hits).
    pub score: f64,
}

/// Max-heap entry whose root is the **worst** retained hit: lower score
/// is greater, and on (bitwise) equal scores the higher doc id is
/// greater. A bounded heap of these keeps exactly the k best hits.
struct WorstFirst {
    score: f64,
    doc: u32,
}

impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for WorstFirst {}

impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.doc.cmp(&other.doc))
    }
}

impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

fn push_bounded(heap: &mut BinaryHeap<WorstFirst>, e: WorstFirst, k: usize) {
    if heap.len() < k {
        heap.push(e);
    } else if let Some(worst) = heap.peek() {
        if e.cmp(worst) == std::cmp::Ordering::Less {
            heap.pop();
            heap.push(e);
        }
    }
}

fn drain_best(heap: BinaryHeap<WorstFirst>) -> Vec<Hit> {
    // into_sorted_vec is ascending under WorstFirst's order, i.e.
    // best-first: score descending, doc ascending on ties.
    heap.into_sorted_vec()
        .into_iter()
        .map(|e| Hit {
            doc: e.doc,
            score: e.score,
        })
        .collect()
}

/// Query terms deduplicated in first-appearance order — the accumulation
/// order both searchers share.
fn query_terms(query: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for t in tokenize(query) {
        if !out.contains(&t) {
            out.push(t);
        }
    }
    out
}

fn idf(n_docs: usize, df: usize) -> f64 {
    ((n_docs as f64 - df as f64 + 0.5) / (df as f64 + 0.5) + 1.0).ln()
}

fn bm25_term(idf: f64, tf: f64, doc_len: f64, avg_len: f64) -> f64 {
    idf * (tf * (K1 + 1.0)) / (tf + K1 * (1.0 - B + B * doc_len / avg_len))
}

/// The inverted index. Build once over the corpus, query many times —
/// and maintain incrementally: [`Bm25Index::upsert`] /
/// [`Bm25Index::remove`] keep single-document writes from forcing a
/// full rebuild (the catalogue analogue of the triple store's write
/// path). All scoring statistics (N, df, document length, average
/// length) are maintained from integer totals, so an incrementally
/// maintained index scores **bit-identically** to one rebuilt from
/// scratch over the same live documents.
pub struct Bm25Index {
    dict: HashMap<String, u32>,
    /// Per term: `(doc, tf)` pairs in ascending doc order. Only live
    /// documents appear, so df is each list's length.
    postings: Vec<Vec<(u32, u32)>>,
    /// Per slot: token count (0 for dead slots).
    doc_len: Vec<u32>,
    /// Per slot: does it currently hold a document?
    live: Vec<bool>,
    /// Per slot: its `(term id, tf)` pairs, for O(|doc|·log df) removal.
    doc_terms: Vec<Vec<(u32, u32)>>,
    n_live: usize,
    total_len: u64,
    avg_len: f64,
}

impl Bm25Index {
    /// Index an iterator of document texts; document ids are assigned in
    /// iteration order.
    pub fn build<I, S>(texts: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut idx = Bm25Index {
            dict: HashMap::new(),
            postings: Vec::new(),
            doc_len: Vec::new(),
            live: Vec::new(),
            doc_terms: Vec::new(),
            n_live: 0,
            total_len: 0,
            avg_len: 1.0,
        };
        for text in texts {
            idx.upsert(idx.doc_len.len(), text.as_ref());
        }
        idx
    }

    /// Index the [`Product::search_text`] of every product, in order.
    pub fn build_products(products: &[Product]) -> Self {
        Self::build(products.iter().map(|p| p.search_text()))
    }

    /// Insert or replace the document in slot `doc`. `doc` may be at
    /// most the current slot count (equal appends a new slot —
    /// [`Bm25Index::build`] is a sequence of appends).
    pub fn upsert(&mut self, doc: usize, text: &str) {
        assert!(
            doc <= self.doc_len.len(),
            "upsert slot {doc} out of range (slots: {})",
            self.doc_len.len()
        );
        if doc == self.doc_len.len() {
            self.doc_len.push(0);
            self.live.push(false);
            self.doc_terms.push(Vec::new());
        } else if self.live[doc] {
            self.remove(doc);
        }
        let tokens = tokenize(text);
        let n_tokens = tokens.len() as u32;
        // Per-term counts in first-appearance order (assigns term ids in
        // the same order a from-scratch build would).
        let mut counts: Vec<(u32, u32)> = Vec::new();
        for tok in tokens {
            let tid = *self.dict.entry(tok).or_insert_with(|| {
                self.postings.push(Vec::new());
                (self.postings.len() - 1) as u32
            });
            match counts.iter_mut().find(|(t, _)| *t == tid) {
                Some((_, tf)) => *tf += 1,
                None => counts.push((tid, 1)),
            }
        }
        let doc_id = doc as u32;
        for &(tid, tf) in &counts {
            let list = &mut self.postings[tid as usize];
            // Ascending doc order; an append (the build path) hits the
            // end immediately.
            let at = list.partition_point(|&(d, _)| d < doc_id);
            list.insert(at, (doc_id, tf));
        }
        self.doc_terms[doc] = counts;
        self.doc_len[doc] = n_tokens;
        self.live[doc] = true;
        self.n_live += 1;
        self.total_len += u64::from(n_tokens);
        self.recompute_avg();
    }

    /// Remove the document in slot `doc`; `true` when one was there.
    /// Slot ids of other documents do not shift. (Dictionary entries
    /// whose postings become empty are kept; they contribute nothing to
    /// any score.)
    pub fn remove(&mut self, doc: usize) -> bool {
        if doc >= self.doc_len.len() || !self.live[doc] {
            return false;
        }
        let doc_id = doc as u32;
        for (tid, _) in std::mem::take(&mut self.doc_terms[doc]) {
            let list = &mut self.postings[tid as usize];
            if let Ok(at) = list.binary_search_by_key(&doc_id, |&(d, _)| d) {
                list.remove(at);
            }
        }
        self.live[doc] = false;
        self.n_live -= 1;
        self.total_len -= u64::from(self.doc_len[doc]);
        self.doc_len[doc] = 0;
        self.recompute_avg();
        true
    }

    /// Maintain `avg_len` from the integer totals — the same division a
    /// from-scratch build performs, hence bit-identical.
    fn recompute_avg(&mut self) {
        self.avg_len = if self.n_live == 0 {
            1.0
        } else {
            self.total_len as f64 / self.n_live as f64
        };
    }

    /// Number of live (searchable) documents.
    pub fn len(&self) -> usize {
        self.n_live
    }

    /// True when no documents are indexed.
    pub fn is_empty(&self) -> bool {
        self.n_live == 0
    }

    /// The k best documents for `query`, best first (score descending,
    /// doc id ascending on score ties). Only documents matching at least
    /// one query term appear; fewer than k hits means fewer matches.
    pub fn search(&self, query: &str, k: usize) -> Vec<Hit> {
        let mut acc: HashMap<u32, f64> = HashMap::new();
        for term in query_terms(query) {
            let Some(&tid) = self.dict.get(&term) else {
                continue;
            };
            let posts = &self.postings[tid as usize];
            let idf = idf(self.len(), posts.len());
            for &(doc, tf) in posts {
                let s = bm25_term(
                    idf,
                    tf as f64,
                    self.doc_len[doc as usize] as f64,
                    self.avg_len,
                );
                *acc.entry(doc).or_insert(0.0) += s;
            }
        }
        // The (score, doc) order is strict, so the top-k set is unique
        // and the hash map's iteration order cannot leak into the result.
        let mut heap = BinaryHeap::new();
        for (doc, score) in acc {
            push_bounded(&mut heap, WorstFirst { score, doc }, k);
        }
        drain_best(heap)
    }
}

/// The linear-scan reference searcher: tokenised documents, no index.
/// Every query walks the whole corpus. Same scoring, same tie-break —
/// [`Bm25Index::search`] must agree with it exactly.
pub struct ScanSearcher {
    tokens: Vec<Vec<String>>,
    avg_len: f64,
}

impl ScanSearcher {
    /// Tokenise an iterator of document texts.
    pub fn build<I, S>(texts: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let tokens: Vec<Vec<String>> = texts
            .into_iter()
            .map(|t| tokenize(t.as_ref()))
            .collect();
        let total: u64 = tokens.iter().map(|t| t.len() as u64).sum();
        let avg_len = if tokens.is_empty() {
            1.0
        } else {
            total as f64 / tokens.len() as f64
        };
        ScanSearcher { tokens, avg_len }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Brute-force BM25 top-k: same contract as [`Bm25Index::search`].
    pub fn search(&self, query: &str, k: usize) -> Vec<Hit> {
        let qterms = query_terms(query);
        // Document frequency per query term, by full scan.
        let dfs: Vec<usize> = qterms
            .iter()
            .map(|t| self.tokens.iter().filter(|d| d.contains(t)).count())
            .collect();
        let idfs: Vec<f64> = dfs.iter().map(|&df| idf(self.len(), df)).collect();
        let mut heap = BinaryHeap::new();
        for (doc, tokens) in self.tokens.iter().enumerate() {
            let mut score = 0.0;
            let mut matched = false;
            for (term, &idf) in qterms.iter().zip(&idfs) {
                let tf = tokens.iter().filter(|t| *t == term).count();
                if tf > 0 {
                    matched = true;
                    score += bm25_term(idf, tf as f64, tokens.len() as f64, self.avg_len);
                }
            }
            if matched {
                push_bounded(
                    &mut heap,
                    WorstFirst {
                        score,
                        doc: doc as u32,
                    },
                    k,
                );
            }
        }
        drain_best(heap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::product::ProductGenerator;
    use ee_geo::Envelope;

    fn corpus() -> Vec<String> {
        let mut g = ProductGenerator::new(Envelope::new(20.0, 35.0, 30.0, 42.0), 2017, 11);
        g.take(300).iter().map(|p| p.search_text()).collect()
    }

    #[test]
    fn tokenizer_splits_and_lowercases() {
        assert_eq!(
            tokenize("Sentinel-2 MSIL2A, (july)"),
            vec!["sentinel", "2", "msil2a", "july"]
        );
        assert!(tokenize("  --  ").is_empty());
    }

    #[test]
    fn index_matches_linear_scan_exactly() {
        let docs = corpus();
        let idx = Bm25Index::build(&docs);
        let scan = ScanSearcher::build(&docs);
        assert_eq!(idx.len(), scan.len());
        let queries = [
            "sentinel-2 surface reflectance",
            "radar ground range detected winter",
            "clear sky july",
            "overcast",
            "sentinel",       // matches every doc
            "nosuchterm",     // matches none
            "olci ocean colour",
            "cell e22 n31 summer",
        ];
        for q in queries {
            for k in [1usize, 3, 10, 500] {
                let a = idx.search(q, k);
                let b = scan.search(q, k);
                assert_eq!(a, b, "q={q:?} k={k}");
            }
        }
    }

    #[test]
    fn scores_are_ordered_and_deterministic() {
        let docs = corpus();
        let idx = Bm25Index::build(&docs);
        let hits = idx.search("sentinel-2 clear sky", 25);
        assert!(!hits.is_empty());
        for w in hits.windows(2) {
            assert!(
                w[0].score > w[1].score || (w[0].score == w[1].score && w[0].doc < w[1].doc),
                "hits must be strictly ordered: {w:?}"
            );
        }
        // Two builds, two searches: identical bits.
        let again = Bm25Index::build(&docs).search("sentinel-2 clear sky", 25);
        assert_eq!(hits, again);
    }

    #[test]
    fn topk_is_truncated_full_ranking() {
        let docs = corpus();
        let idx = Bm25Index::build(&docs);
        let full = idx.search("optical multispectral scattered clouds", docs.len());
        for k in [1usize, 2, 7, 50] {
            assert_eq!(idx.search("optical multispectral scattered clouds", k), full[..k.min(full.len())]);
        }
    }

    #[test]
    fn selective_terms_rank_above_common_ones() {
        let docs = vec![
            "sentinel common common common".to_string(),
            "sentinel rare".to_string(),
            "sentinel common".to_string(),
        ];
        let idx = Bm25Index::build(&docs);
        let hits = idx.search("rare", 3);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, 1);
        // A rare term outranks a common one for the doc containing both.
        let hits = idx.search("sentinel rare", 3);
        assert_eq!(hits[0].doc, 1, "doc with the rare term first");
    }

    #[test]
    fn empty_query_and_empty_corpus() {
        let idx = Bm25Index::build(corpus());
        assert!(idx.search("", 10).is_empty());
        assert!(idx.search("nosuchterm whatsoever", 10).is_empty());
        let empty = Bm25Index::build(Vec::<String>::new());
        assert!(empty.is_empty());
        assert!(empty.search("anything", 10).is_empty());
        assert_eq!(idx.search("sentinel", 0).len(), 0, "k = 0 keeps nothing");
    }

    #[test]
    fn incremental_maintenance_matches_rebuild_bit_for_bit() {
        // Mutate an index with upserts/removes, rebuild a second index
        // from scratch over the resulting live corpus, and require the
        // exact same scores (f64 bits) and the same ranked documents.
        let mut docs = corpus();
        let mut idx = Bm25Index::build(&docs);

        // Replace one doc's text, append a new doc, remove two docs
        // (one of them the replaced one’s neighbour), re-add one.
        idx.upsert(5, "sentinel-1 radar interferometric wide swath dusk");
        docs[5] = "sentinel-1 radar interferometric wide swath dusk".into();
        let appended = "brand new olci ocean colour scene overcast".to_string();
        idx.upsert(docs.len(), &appended);
        docs.push(appended);
        assert!(idx.remove(7));
        assert!(!idx.remove(7), "second remove is a no-op");
        assert!(idx.remove(120));
        idx.upsert(120, "resurrected acquisition clear sky summer");
        docs[120] = "resurrected acquisition clear sky summer".into();

        // The live corpus: every doc except slot 7.
        let live: Vec<(usize, &String)> = docs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 7)
            .collect();
        let rebuilt = Bm25Index::build(live.iter().map(|(_, t)| t.as_str()));
        assert_eq!(idx.len(), rebuilt.len());

        let queries = [
            "sentinel radar wide swath",
            "olci ocean colour overcast",
            "clear sky summer",
            "sentinel", // matches everything: exercises ties + shifts
            "resurrected dusk",
        ];
        for q in queries {
            for k in [1usize, 5, 50, docs.len()] {
                let a = idx.search(q, k);
                let b = rebuilt.search(q, k);
                // Slot ids differ (the rebuild compacts slot 7 away);
                // compare by document text. The id shift is monotone,
                // so tie order by id is preserved too.
                let a_key: Vec<(u64, &str)> = a
                    .iter()
                    .map(|h| (h.score.to_bits(), docs[h.doc as usize].as_str()))
                    .collect();
                let b_key: Vec<(u64, &str)> = b
                    .iter()
                    .map(|h| (h.score.to_bits(), live[h.doc as usize].1.as_str()))
                    .collect();
                assert_eq!(a_key, b_key, "q={q:?} k={k}");
            }
        }
    }

    #[test]
    fn upsert_remove_edge_cases() {
        let mut idx = Bm25Index::build(Vec::<String>::new());
        assert!(!idx.remove(0), "empty index");
        idx.upsert(0, "alpha beta alpha");
        assert_eq!(idx.len(), 1);
        let hits = idx.search("alpha", 10);
        assert_eq!(hits.len(), 1);
        // Replacing in place changes the scored terms.
        idx.upsert(0, "gamma");
        assert!(idx.search("alpha", 10).is_empty());
        assert_eq!(idx.search("gamma", 10).len(), 1);
        // Removing the only doc empties the index but keeps the slot.
        assert!(idx.remove(0));
        assert!(idx.is_empty());
        assert!(idx.search("gamma", 10).is_empty());
        // The slot can be refilled.
        idx.upsert(0, "delta");
        assert_eq!(idx.search("delta", 10).len(), 1);
    }

    #[test]
    fn product_search_text_is_deterministic_and_tokenful() {
        let mut g = ProductGenerator::new(Envelope::new(20.0, 35.0, 30.0, 42.0), 2017, 5);
        let p = g.next_product();
        assert_eq!(p.search_text(), p.search_text());
        let toks = tokenize(&p.search_text());
        assert!(toks.contains(&"sentinel".to_string()));
        assert!(toks.iter().any(|t| t == "winter" || t == "spring" || t == "summer" || t == "autumn"));
    }
}
