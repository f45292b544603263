//! The application state behind the routes: one instance of each
//! analytics engine, built once at startup and shared by every worker
//! thread.
//!
//! * a mutable [`ee_rdf::storage::Store`] of point features with a
//!   spatial index — the E2/E3 rectangular-selection path behind
//!   `/query`, writable through `POST /update` when the server runs
//!   `--writable`. Every `/query` read is a [`PinnedRead`] of one commit
//!   (its `AS OF` commit, or the head it was planned at) that takes the
//!   shared [`RwLock`] guard once per batch; only
//!   [`AppState::commit_update`] takes the exclusive side. The head
//!   commit id is mirrored into an atomic so the hot path (cache keys)
//!   never touches the lock;
//! * an [`ee_catalogue::ClassicCatalogue`] + [`SemanticCatalogue`] pair
//!   over the same generated archive — the E9 path, behind
//!   `/catalogue/search`;
//! * an overview pyramid of the B04 band of a synthetic Sentinel-2 scene
//!   (built with the row-parallel [`ee_raster::tile::pyramid`]) — behind
//!   `/tiles`;
//! * per-region 200 m sea-ice product suites ready for PCDSS bundling —
//!   the E12 path, behind `/ice/{region}`.
//!
//! Everything is deterministic from [`DataConfig::seed`].

use crate::metrics::{render_histogram_family, Histogram};
use ee_catalogue::classic::Search;
use ee_catalogue::{Bm25Index, ClassicCatalogue, ProductGenerator, SemanticCatalogue};
use ee_datasets::landscape::{Landscape, LandscapeConfig};
use ee_datasets::optics::{simulate_s2_bands, OpticsConfig};
use ee_datasets::seaice::{IceWorld, IceWorldConfig};
use ee_geo::curve::hilbert_key;
use ee_geo::{Envelope, Point};
use ee_polar::icemap::{products_from_map, truth_masks, IceProducts};
use ee_raster::scene::Band;
use ee_raster::tile::pyramid;
use ee_raster::Raster;
use ee_rdf::exec::StreamCore;
use ee_rdf::merge::ResultWriter;
use ee_rdf::parser::Query;
use ee_rdf::plan::ROUTES;
use ee_rdf::storage::{CommitStats, CompactionPolicy, Durability, Store, StoreError};
use ee_rdf::store::{Novelty, StoreView};
use ee_rdf::term::{Term, TermRef};
use ee_rdf::{RdfError, TripleStore};
use ee_util::timeline::Date;
use ee_util::Rng;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};

/// Side length of the square point-feature region served by `/query`
/// (degree-like units, matching the E2 experiment).
pub const REGION: f64 = 100.0;

/// The largest R-tree candidate set a read may enumerate on an event-loop
/// shard, as a bounded head `/query` read. About five times the largest
/// window the benchmark suite sends (some 200 candidates at side 10 over
/// the default 20,000 points); at the ~1 µs per row a cache-cold read
/// costs on a 2-core x86 host, one such read holds its event loop for
/// about a millisecond at most.
pub const INLINE_CANDIDATES: usize = 1024;

/// Ice regions served by `/ice/{region}`.
pub const ICE_REGIONS: [&str; 3] = ["fram-strait", "norske-oer", "baffin-bay"];

/// The `/catalogue/search` modes tracked separately in the per-mode
/// latency metrics (`mode=` parameter values, fixed cardinality).
pub const CATALOGUE_MODES: [&str; 3] = ["classic", "semantic", "ranked"];

/// The engine groups [`AppState::build`] builds at the same time, in the
/// order of [`AppState::build_seconds`] (the `group` label of
/// `ee_serve_build_seconds`).
pub const BUILD_GROUPS: [&str; 3] = ["points", "catalogues", "rasters"];

/// The HELP line of `ee_rdf_fastpath_total`: what each value of its
/// `kind` label ([`ROUTES`], from [`ee_rdf::plan::Plan::route`]) means.
const FASTPATH_HELP: &str = "# HELP ee_rdf_fastpath_total Query executions per route; kind is the \
     label of the plan's first blocking step: topk (ORDER BY + LIMIT through a bounded heap), \
     fast_count (a lone COUNT without GROUP BY), group_count (GROUP BY whose aggregates are all \
     COUNTs), full_sort (ORDER BY as a global sort), aggregate (any other grouping or \
     aggregate), stream (no blocking step)\n";

/// Predicate whose literal objects are indexed into the ranked (BM25)
/// search arm: committing `<s> eo:searchText "..."` through `/update`
/// makes `s` findable by `mode=ranked`, deleting the triple removes it.
pub const SEARCH_TEXT_IRI: &str = "http://extremeearth.eu/ont/eo#searchText";

/// Sizing knobs for the engines behind the routes.
#[derive(Debug, Clone)]
pub struct DataConfig {
    /// Point features in the RDF store.
    pub points: usize,
    /// Products in the catalogue archive.
    pub products: usize,
    /// Side of the synthetic Sentinel-2 scene feeding the tile pyramid.
    pub scene_size: usize,
    /// Tile side served by `/tiles`.
    pub tile_size: usize,
    /// Side of each simulated ice world.
    pub ice_size: usize,
    /// Master seed; every engine derives from it.
    pub seed: u64,
    /// Shard assignment `(index, count)`: when set, the point store
    /// holds only the subjects the consistent-hash ring assigns to this
    /// shard. The generator still draws every feature (so coordinates
    /// stay identical across shard counts) and filters on ownership —
    /// the union of N shards is always bit-identical to the unsharded
    /// store.
    pub shard: Option<(usize, usize)>,
}

impl Default for DataConfig {
    fn default() -> Self {
        DataConfig {
            points: 20_000,
            products: 5_000,
            scene_size: 256,
            tile_size: 64,
            ice_size: 64,
            seed: 2019,
            shard: None,
        }
    }
}

impl DataConfig {
    /// A small configuration for tests and quick benchmarks.
    pub fn tiny() -> Self {
        DataConfig {
            points: 2_000,
            products: 500,
            scene_size: 96,
            tile_size: 32,
            ice_size: 48,
            seed: 2019,
            shard: None,
        }
    }
}

/// Everything the handlers touch. Built once; workers share it behind
/// an `Arc`. All engines except the point store are immutable; the
/// point store sits behind an [`RwLock`] so `POST /update` commits can
/// mutate it while readers pause only for the commit's apply phase.
pub struct AppState {
    /// Sizing used to build the state.
    pub config: DataConfig,
    /// Whether `POST /update` is accepted (the `--writable` flag);
    /// read-only servers answer it 403.
    pub writable: bool,
    /// Point-feature store with spatial index (the `/query` engine),
    /// durable when built through [`AppState::build_durable`]. Private:
    /// reads go through [`AppState::store`], writes through
    /// [`AppState::commit_update`] (which keeps the head mirror
    /// coherent).
    store: RwLock<Store>,
    /// Mirror of the store's head commit id, readable without the lock.
    /// Every cache lookup consults it: a commit id names the entire
    /// history that produced it (hash chain), so equal ids guarantee
    /// byte-identical stores — which a bare generation counter cannot.
    head: AtomicU64,
    /// The head as `/healthz` reports it, one commit's generation, id
    /// and triple count together. The build publishes the first one and
    /// every commit the next, under the store's write guard, so
    /// `/healthz` reads it without the store lock or a worker.
    health: Mutex<Health>,
    /// Generation of the ranked (BM25) search index, bumped on every
    /// reindex. Catalogue cache keys stamp this — not the head commit —
    /// so `/catalogue/search` responses go stale exactly when the index
    /// changes. The reindex runs after the head is published, so a key
    /// stamped with the head could capture the old index; this counter
    /// is bumped only once the new index is in place.
    search_generation: AtomicU64,
    /// Times the store read guard was taken ([`AppState::store`]).
    /// `ee_serve_store_reads_total`: lets experiments prove a cached
    /// 304 revalidation touched the store zero times.
    store_reads: AtomicU64,
    /// R-tree indexed product catalogue (the classic `/catalogue` arm).
    pub classic: ClassicCatalogue,
    /// GeoSPARQL catalogue over the same archive (the semantic arm).
    pub semantic: SemanticCatalogue,
    /// The ranked-search index: BM25 postings over the archive's
    /// [`ee_catalogue::Product::search_text`] documents **plus** any
    /// live documents committed through `/update` ([`SEARCH_TEXT_IRI`]
    /// triples), and the registry those live slots resolve through. One
    /// [`RwLock`] over both, because commits maintain them incrementally
    /// and a search must resolve its hits against the index state that
    /// scored them.
    search: RwLock<SearchIndex>,
    /// Overview pyramid, level 0 = full resolution.
    pub pyramid: Vec<Raster<f32>>,
    /// Tile side for `/tiles`.
    pub tile_size: usize,
    /// Pre-computed ice product suites by region name.
    pub ice: Vec<(String, IceProducts)>,
    /// Server start time, reported by `/healthz`.
    pub started: std::time::Instant,
    /// Wall time each engine group took to build, in seconds, indexed
    /// like [`BUILD_GROUPS`].
    build_seconds: [f64; BUILD_GROUPS.len()],
    /// Executions per route, indexed by position in [`ROUTES`]
    /// (rendered as `ee_rdf_fastpath_total{kind}`).
    fastpath: [AtomicU64; ROUTES.len()],
    /// Requests per `/catalogue/search` mode, indexed by position in
    /// [`CATALOGUE_MODES`].
    catalogue_mode_requests: [AtomicU64; CATALOGUE_MODES.len()],
    /// Handler latency per `/catalogue/search` mode, same indexing.
    catalogue_mode_latency: [Histogram; CATALOGUE_MODES.len()],
    /// Cached responses dropped by commits (counted by the server,
    /// which owns the response cache; rendered here with the store
    /// counters).
    invalidated_responses: AtomicU64,
    /// `POST /update` commit latency (evaluate + log append + apply).
    update_latency: Histogram,
    /// Router tier, when this process runs `--router`: dispatch sends
    /// `/query`, `/tiles` and `/ice` through it instead of the local
    /// engines.
    pub router: Option<crate::shard::RouterTier>,
}

/// What `/healthz` reports of the point store's head: its generation,
/// commit id and triple count, taken from one commit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Health {
    /// Effective commits since the store was created.
    pub(crate) generation: u64,
    /// The head commit id.
    pub(crate) commit: u64,
    /// Triples in the store.
    pub(crate) points: usize,
}

impl Health {
    fn of(store: &Store) -> Health {
        Health {
            generation: store.generation(),
            commit: store.head_commit(),
            points: store.len(),
        }
    }
}

impl AppState {
    /// Build every engine over an **ephemeral** point store (commits
    /// apply in memory, nothing touches disk). Deterministic in
    /// `config`: the three independent engine groups — the point store,
    /// the catalogues and the rasters — build at the same time through
    /// [`ee_util::par::join3`], each from its own seed, so the state is
    /// the one a serial build gives.
    pub fn build(config: DataConfig) -> AppState {
        Self::build_with(config, |config| {
            Ok(Store::ephemeral(generated_points(config)))
        })
        .expect("an ephemeral store always opens")
    }

    /// [`AppState::build`] with a **durable** point store in `dir`: an
    /// existing snapshot (plus commit-log tail) is reopened — preserving every
    /// committed update across restarts — and a fresh directory is
    /// seeded with the deterministic generated point set. The other
    /// engine groups build while the store opens; an open error is
    /// returned once they are done.
    pub fn build_durable(config: DataConfig, dir: &Path) -> Result<AppState, StoreError> {
        Self::build_with(config, |config| {
            let mut store = if dir.join(ee_rdf::storage::snapshot::SNAPSHOT_FILE).exists() {
                Store::open(dir)?
            } else {
                Store::create(dir, generated_points(config), Durability::from_env())?
            };
            // Threshold-triggered snapshots (EE_WAL_COMPACT_COMMITS); unset
            // leaves compaction manual.
            store.set_compaction_policy(CompactionPolicy::from_env());
            Ok(store)
        })
    }

    /// Build the state over the point store `open_store` makes, with the
    /// three independent engine groups built at the same time through
    /// [`ee_util::par::join3`]:
    ///
    /// * the point store (`open_store`, which generates the points when
    ///   it needs them);
    /// * the catalogues: the product archive, then its classic, BM25 and
    ///   semantic indexes;
    /// * the rasters: the landscape, the B04 band of its Sentinel-2 scene
    ///   and that band's tile pyramid, then the ice product suites.
    ///
    /// No group reads another's output, each derives its data from its
    /// own seed, and `join3` hands back exactly what the closures
    /// return, so the state is bit-identical to a serial build. A panic in
    /// any group reaches the caller. Each group's wall time is kept for
    /// [`AppState::build_seconds`].
    fn build_with<F>(config: DataConfig, open_store: F) -> Result<AppState, StoreError>
    where
        F: FnOnce(&DataConfig) -> Result<Store, StoreError> + Send,
    {
        let ((store, points_s), (catalogues, catalogues_s), ((pyramid, ice), rasters_s)) =
            ee_util::par::join3(
                || timed(|| open_store(&config)),
                || timed(|| catalogues(&config)),
                || timed(|| rasters(&config)),
            );
        let (classic, semantic, search) = catalogues;
        let store = store?;
        let tile_size = config.tile_size.max(1);
        let head = AtomicU64::new(store.head_commit());
        let health = Mutex::new(Health::of(&store));
        let state = AppState {
            config,
            writable: false,
            store: RwLock::new(store),
            head,
            health,
            search_generation: AtomicU64::new(0),
            store_reads: AtomicU64::new(0),
            classic,
            semantic,
            search: RwLock::new(search),
            pyramid,
            tile_size,
            ice,
            started: std::time::Instant::now(),
            build_seconds: [points_s, catalogues_s, rasters_s],
            fastpath: std::array::from_fn(|_| AtomicU64::new(0)),
            catalogue_mode_requests: std::array::from_fn(|_| AtomicU64::new(0)),
            catalogue_mode_latency: std::array::from_fn(|_| Histogram::new()),
            invalidated_responses: AtomicU64::new(0),
            update_latency: Histogram::new(),
            router: None,
        };
        // A reopened durable store may already hold committed
        // `eo:searchText` documents — fold them into the ranked index so
        // restarts don't lose live documents.
        {
            let store = state.store.read().expect("store lock");
            let pred = Term::iri(SEARCH_TEXT_IRI);
            let mut subjects = Vec::new();
            if let Some(pid) = store.dict.id_of(&pred) {
                store.match_pattern(None, Some(pid), None, &mut |(s, _, _)| {
                    subjects.push(store.dict.term(s));
                    true
                });
            }
            if !subjects.is_empty() {
                state.reindex_search_docs(&store, subjects);
            }
        }
        Ok(state)
    }

    /// Shared read access to the point store. The guard derefs through
    /// [`Store`] to [`TripleStore`], so every read API works on it
    /// directly. Held only as long as a handler needs it — streamed
    /// `/query` bodies re-take it per batch, so a long download never
    /// starves a writer.
    pub fn store(&self) -> RwLockReadGuard<'_, Store> {
        self.store_reads.fetch_add(1, Ordering::Relaxed);
        self.store.read().expect("store lock")
    }

    /// The store's exclusive guard, for tests that need the lock held.
    #[cfg(test)]
    pub(crate) fn lock_store_exclusive(&self) -> std::sync::RwLockWriteGuard<'_, Store> {
        self.store.write().expect("store lock")
    }

    /// Wall time each engine group took to build, in seconds, paired
    /// with its [`BUILD_GROUPS`] name.
    pub fn build_seconds(&self) -> [(&'static str, f64); BUILD_GROUPS.len()] {
        std::array::from_fn(|i| (BUILD_GROUPS[i], self.build_seconds[i]))
    }

    /// Current head commit id, lock-free (mirrored on every commit).
    pub fn head_commit(&self) -> u64 {
        self.head.load(Ordering::SeqCst)
    }

    /// The head's generation, commit id and triple count, all of one
    /// commit, read without the store lock.
    pub(crate) fn health(&self) -> Health {
        *self.health.lock().expect("health lock")
    }

    /// Current ranked-index generation, lock-free (bumped on reindex).
    pub fn search_generation(&self) -> u64 {
        self.search_generation.load(Ordering::SeqCst)
    }

    /// Times the store read guard has been taken so far.
    pub fn store_reads(&self) -> u64 {
        self.store_reads.load(Ordering::Relaxed)
    }

    /// Commit a SPARQL UPDATE: takes the exclusive store lock, runs the
    /// durable commit (evaluate → commit-log fsync → apply), then
    /// refreshes the head mirror. Nothing plan-shaped outlives a commit:
    /// every query is planned against the store state it runs on.
    /// Response-cache entries need no action here: head `/query` keys
    /// embed the head commit id, so a commit makes stale entries
    /// unreachable (the server also sweeps them, counting into
    /// [`ee_serve_invalidated_total`](Self::render_prometheus_section)).
    pub fn commit_update(
        &self,
        update: &ee_rdf::parser::Update,
    ) -> Result<CommitStats, StoreError> {
        let t0 = std::time::Instant::now();
        let mut store = self.store.write().expect("store lock");
        // Evaluate first (read-only) so the delta can be inspected for
        // ranked-index maintenance before it is applied.
        let delta = ee_rdf::update::evaluate_update(&store, update)?;
        let search_pred = Term::iri(SEARCH_TEXT_IRI);
        let touched: Vec<Term> = delta
            .insert
            .iter()
            .chain(delta.delete.iter())
            .filter(|(_, p, _)| *p == search_pred)
            .map(|(s, _, _)| s.clone())
            .collect();
        let stats = store.commit_delta(delta)?;
        self.head.store(store.head_commit(), Ordering::SeqCst);
        *self.health.lock().expect("health lock") = Health::of(&store);
        // A no-op commit changed no document: leave the index (and the
        // catalogue cache keys) as they are.
        if stats.inserted + stats.deleted > 0 && !touched.is_empty() {
            // Re-derive each touched subject's document from the
            // post-commit store (still under the exclusive lock, so
            // ranked results can never lag a visible commit).
            self.reindex_search_docs(&store, touched.iter().map(Term::as_ref));
        }
        drop(store);
        let us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.update_latency.record_us(us);
        Ok(stats)
    }

    /// Count response-cache entries swept after a commit (the server
    /// owns the cache; the counter lives here so `/metrics` renders
    /// both invalidation kinds together).
    pub fn note_invalidated_responses(&self, n: u64) {
        self.invalidated_responses.fetch_add(n, Ordering::Relaxed);
    }

    /// Commit-latency histogram of `POST /update` (for experiments).
    pub fn update_latency(&self) -> &Histogram {
        &self.update_latency
    }

    /// Executions recorded for one route (a label of [`ROUTES`]).
    #[cfg(test)]
    pub fn fastpath_count(&self, route: &str) -> u64 {
        let i = ROUTES.iter().position(|r| *r == route).expect("a label of ROUTES");
        self.fastpath[i].load(Ordering::Relaxed)
    }

    /// Record one `/catalogue/search` request on `mode` with its handler
    /// latency. Unknown modes (the 400 arm) are not recorded — the label
    /// set stays fixed at [`CATALOGUE_MODES`].
    pub fn record_catalogue_mode(&self, mode: &str, latency_us: u64) {
        if let Some(i) = CATALOGUE_MODES.iter().position(|m| *m == mode) {
            self.catalogue_mode_requests[i].fetch_add(1, Ordering::Relaxed);
            self.catalogue_mode_latency[i].record_us(latency_us);
        }
    }

    /// Latency histogram of one catalogue mode (`None` for labels
    /// outside [`CATALOGUE_MODES`]).
    pub fn catalogue_mode_latency(&self, mode: &str) -> Option<&Histogram> {
        CATALOGUE_MODES
            .iter()
            .position(|m| *m == mode)
            .map(|i| &self.catalogue_mode_latency[i])
    }

    /// BM25-ranked catalogue search: top-`k` documents by score for a
    /// free-text query, best first. Doc ids below the product count
    /// resolve through [`ClassicCatalogue::products`] (same build
    /// order); higher slots are live documents committed through
    /// `/update` and resolve through the live-document registry.
    pub fn ranked_search(&self, query: &str, k: usize) -> Vec<RankedHit<'_>> {
        let products = self.classic.products();
        let index = self.search.read().expect("search index lock");
        let hits = index.bm25.search(query, k);
        hits.into_iter()
            .map(|h| {
                let slot = h.doc as usize;
                let doc = if slot < products.len() {
                    RankedDoc::Product(&products[slot])
                } else {
                    let (subject, text) = index
                        .by_slot
                        .get(&slot)
                        .cloned()
                        .expect("live slots with postings are registered");
                    RankedDoc::Live { subject, text }
                };
                RankedHit {
                    score: h.score,
                    doc,
                }
            })
            .collect()
    }

    /// Documents currently searchable by `mode=ranked` (seed products
    /// plus live committed documents).
    pub fn ranked_indexed(&self) -> usize {
        self.search.read().expect("search index lock").bm25.len()
    }

    /// Rebuild each subject's ranked-index document from the store's
    /// current [`SEARCH_TEXT_IRI`] triples: multiple literals join (in
    /// sorted order) into one document, none at all removes it. Callers
    /// hold the store lock, making index updates atomic with commits.
    fn reindex_search_docs<'t>(
        &self,
        store: &TripleStore,
        subjects: impl IntoIterator<Item = TermRef<'t>>,
    ) {
        let mut guard = self.search.write().expect("search index lock");
        let index = &mut *guard;
        let pid = store.dict.id_of(&Term::iri(SEARCH_TEXT_IRI));
        let mut seen = std::collections::HashSet::new();
        for subject in subjects {
            let key = match subject {
                TermRef::Iri(i) => i.to_string(),
                other => other.ntriples(),
            };
            if !seen.insert(key.clone()) {
                continue;
            }
            let mut texts: Vec<String> = Vec::new();
            if let (Some(pid), Some(sid)) = (pid, store.dict.id_of(subject)) {
                store.match_pattern(Some(sid), Some(pid), None, &mut |(_, _, o)| {
                    if let TermRef::Literal { lexical, .. } = store.dict.term(o) {
                        texts.push(lexical.to_string());
                    }
                    true
                });
            }
            if texts.is_empty() {
                if let Some(slot) = index.by_subject.remove(&key) {
                    index.bm25.remove(slot);
                    index.by_slot.remove(&slot);
                    index.free.push(slot);
                }
            } else {
                texts.sort();
                let text = texts.join(" ");
                let slot = match index.by_subject.get(&key) {
                    Some(&slot) => slot,
                    None => {
                        let slot = if let Some(s) = index.free.pop() {
                            s
                        } else {
                            let s = index.slots;
                            index.slots += 1;
                            s
                        };
                        index.by_subject.insert(key.clone(), slot);
                        slot
                    }
                };
                index.bm25.upsert(slot, &text);
                index.by_slot.insert(slot, (key, text));
            }
        }
        // Publish after the change, still under the write lock:
        // catalogue cache keys embed this generation, so a reader that
        // builds a key with the new generation also reads the new index.
        self.search_generation.fetch_add(1, Ordering::SeqCst);
    }

    /// The state-owned slice of `/metrics`: fast-path execution counters
    /// and per-catalogue-mode request counts + latency histograms. The
    /// server appends this to [`crate::metrics::Metrics::render_prometheus`]'s
    /// output, keeping engine-level counters next to the engines they
    /// describe.
    pub fn render_prometheus_section(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(FASTPATH_HELP);
        out.push_str("# TYPE ee_rdf_fastpath_total counter\n");
        for (i, kind) in ROUTES.iter().enumerate() {
            out.push_str(&format!(
                "ee_rdf_fastpath_total{{kind=\"{kind}\"}} {}\n",
                self.fastpath[i].load(Ordering::Relaxed)
            ));
        }
        out.push_str(
            "# HELP ee_serve_catalogue_mode_requests_total Catalogue searches per mode\n\
             # TYPE ee_serve_catalogue_mode_requests_total counter\n",
        );
        for (i, mode) in CATALOGUE_MODES.iter().enumerate() {
            out.push_str(&format!(
                "ee_serve_catalogue_mode_requests_total{{mode=\"{mode}\"}} {}\n",
                self.catalogue_mode_requests[i].load(Ordering::Relaxed)
            ));
        }
        render_histogram_family(
            &mut out,
            "ee_serve_catalogue_mode_latency_us",
            "Catalogue search handler latency per mode (µs)",
            "mode",
            CATALOGUE_MODES
                .iter()
                .enumerate()
                .map(|(i, m)| (*m, &self.catalogue_mode_latency[i])),
        );
        out.push_str(
            "# HELP ee_serve_build_seconds Start-up build wall time per engine group, in seconds\n\
             # TYPE ee_serve_build_seconds gauge\n",
        );
        for (group, seconds) in self.build_seconds() {
            out.push_str(&format!("ee_serve_build_seconds{{group=\"{group}\"}} {seconds}\n"));
        }
        // Store gauges take the lock directly: `store()` would count this
        // scrape as a request read.
        let (generation, triples, terms, dict_bytes, index_bytes) = {
            let store = self.store.read().expect("store lock");
            let dict = &store.dict;
            (store.generation(), store.len(), dict.len(), dict.heap_bytes(), store.index_bytes())
        };
        out.push_str(&format!(
            "# HELP ee_rdf_generation Point-store generation (bumps once per effective commit)\n\
             # TYPE ee_rdf_generation gauge\nee_rdf_generation {generation}\n",
        ));
        out.push_str(&format!(
            "# HELP ee_serve_search_generation Ranked-index generation (bumps on reindex)\n\
             # TYPE ee_serve_search_generation gauge\nee_serve_search_generation {}\n",
            self.search_generation()
        ));
        out.push_str(&format!(
            "# HELP ee_rdf_store_triples Triples in the point store\n\
             # TYPE ee_rdf_store_triples gauge\nee_rdf_store_triples {triples}\n\
             # HELP ee_rdf_dictionary_terms Terms in the point store's dictionary (never reclaimed)\n\
             # TYPE ee_rdf_dictionary_terms gauge\nee_rdf_dictionary_terms {terms}\n\
             # HELP ee_rdf_dictionary_bytes Bytes allocated for the point store's dictionary: term arena, id table and decoded values, by capacity, parsed geometries excluded\n\
             # TYPE ee_rdf_dictionary_bytes gauge\nee_rdf_dictionary_bytes {dict_bytes}\n\
             # HELP ee_rdf_index_bytes Bytes allocated for the point store's three triple indexes: sorted runs plus write deltas, by capacity (12 per key once packed)\n\
             # TYPE ee_rdf_index_bytes gauge\nee_rdf_index_bytes {index_bytes}\n",
        ));
        out.push_str(&format!(
            "# HELP ee_serve_store_reads_total Times the point-store read guard was taken\n\
             # TYPE ee_serve_store_reads_total counter\nee_serve_store_reads_total {}\n",
            self.store_reads()
        ));
        out.push_str(&format!(
            "# HELP ee_serve_invalidated_total Cache entries invalidated by store commits\n\
             # TYPE ee_serve_invalidated_total counter\n\
             ee_serve_invalidated_total{{kind=\"responses\"}} {}\n",
            self.invalidated_responses.load(Ordering::Relaxed),
        ));
        render_histogram_family(
            &mut out,
            "ee_serve_update_commit_us",
            "SPARQL UPDATE commit latency (µs)",
            "op",
            [("commit", &self.update_latency)],
        );
        if let Some(router) = &self.router {
            out.push_str(&router.render_prometheus_section());
        }
        out
    }

    /// Plan `q` at one commit — `as_of`, or else the head read under the
    /// guard that plans it — and return a [`PinnedRead`] of it; `None`
    /// when `as_of` names no commit. A plan's ids and spatial candidate
    /// sets hold for its commit only, so every read is planned here or in
    /// `AppState::query_bounded` (and `ee_rdf_fastpath_total{kind}`
    /// counts every execution). For a plan without blocking steps no join
    /// work happens here: the operators run inside
    /// [`PinnedRead::drain_batch`], so a slow client pauses the joins
    /// instead of buffering their output. This is the worker pool's path,
    /// which blocks on the store lock and runs plans on
    /// [`ee_util::par::available_threads`] threads.
    pub fn query(&self, q: &Query, as_of: Option<u64>) -> Option<Result<PinnedRead, RdfError>> {
        let store = self.store();
        let head = store.head_commit();
        let commit = as_of.unwrap_or(head);
        let novelty = store.as_of(commit)?;
        let view = StoreView::with_novelty(&store, &novelty);
        let core = ee_rdf::plan::plan_view(view, q).and_then(|plan| {
            self.count_route(&plan);
            let threads = ee_util::par::available_threads();
            ee_rdf::exec::stream_plan_shared(view, Arc::new(plan), threads)
        });
        Some(core.map(|core| PinnedRead {
            core,
            commit,
            novelty,
            built_on: head,
        }))
    }

    /// The whole body of a bounded head read of `q` — the JSON a
    /// [`PinnedRead`] drained through [`ResultWriter`] gives, at most
    /// `limit` rows written — and the commit it read. This is the event
    /// loop's path, so it never waits: `None` leaves the read to
    /// [`AppState::query`] when the store lock is not free right now, when
    /// `q` names an `AS OF` commit or fails to plan, or when its plan is
    /// not [bounded](ee_rdf::plan::Plan::is_bounded) by
    /// [`INLINE_CANDIDATES`]. The read guard is taken with `try_read` and
    /// counted like [`AppState::store`]'s; under it the plan is built and
    /// run serially (one thread: an event loop must not wait on pool
    /// helpers) and the body written.
    pub(crate) fn query_bounded(&self, q: &Query, limit: usize) -> Option<(u64, String)> {
        if q.as_of.is_some() {
            return None;
        }
        let store = self.store.try_read().ok()?;
        self.store_reads.fetch_add(1, Ordering::Relaxed);
        let view = StoreView::head(&store);
        let plan = ee_rdf::plan::plan_view(view, q).ok()?;
        if !plan.is_bounded(view, INLINE_CANDIDATES) {
            return None;
        }
        self.count_route(&plan);
        let mut core = ee_rdf::exec::stream_plan_shared(view, Arc::new(plan), 1).ok()?;
        let mut writer = ResultWriter::new(core.vars(), limit);
        let mut body = String::new();
        while core.drain_batch(view, |row| writer.row(&mut body, row)) > 0 {}
        writer.finish(&mut body);
        Some((store.head_commit(), body))
    }

    /// Count one execution of `plan` in `ee_rdf_fastpath_total{kind}`.
    fn count_route(&self, plan: &ee_rdf::plan::Plan) {
        let i = ROUTES.iter().position(|r| *r == plan.route());
        self.fastpath[i.expect("a label of ROUTES")].fetch_add(1, Ordering::Relaxed);
    }

    /// The ice products of a region, if it exists.
    pub fn ice_region(&self, name: &str) -> Option<&IceProducts> {
        self.ice
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p)
    }

    /// Run a classic AOI search, returning matching products.
    pub fn classic_search(
        &self,
        aoi: Envelope,
    ) -> Result<Vec<&ee_catalogue::Product>, ee_catalogue::CatalogueError> {
        self.classic.search(&Search::aoi(aoi))
    }
}

/// A `/query` read pinned to one commit. It takes the store's read guard
/// once per batch, so a slow reader never starves a writer. When commits
/// have moved the head since its last batch, it rebuilds the overlay that
/// rewinds the new head to its commit, and its index cursors resume on
/// that view exactly where they paused ([`StoreView`] enumerates every
/// view of one commit in the same order).
pub struct PinnedRead {
    core: StreamCore,
    commit: u64,
    /// Rewinds the head `built_on` to `commit` (empty while they agree).
    novelty: Novelty,
    built_on: u64,
}

impl PinnedRead {
    /// The commit every batch reads.
    pub fn commit(&self) -> u64 {
        self.commit
    }

    /// Projected variable names, in order.
    pub fn vars(&self) -> &[String] {
        self.core.vars()
    }

    /// [`StreamCore::drain_batch`] at the pinned commit, under one read
    /// guard of `state`'s store.
    pub fn drain_batch(
        &mut self,
        state: &AppState,
        row: impl FnMut(&[Option<TermRef<'_>>]),
    ) -> usize {
        let store = state.store();
        if store.head_commit() != self.built_on {
            self.novelty = store.as_of(self.commit).expect("the history keeps every commit");
            self.built_on = store.head_commit();
        }
        self.core.drain_batch(StoreView::with_novelty(&store, &self.novelty), row)
    }
}

/// One `mode=ranked` search hit.
pub struct RankedHit<'a> {
    /// BM25 score (higher is better).
    pub score: f64,
    /// The document the hit resolved to.
    pub doc: RankedDoc<'a>,
}

/// What a ranked-search doc id resolved to.
pub enum RankedDoc<'a> {
    /// A product of the seed catalogue archive.
    Product(&'a ee_catalogue::Product),
    /// A document committed live through `POST /update` as a
    /// [`SEARCH_TEXT_IRI`] triple.
    Live {
        /// Subject IRI of the `eo:searchText` triple(s).
        subject: String,
        /// The indexed document text (sorted literals joined).
        text: String,
    },
}

/// The ranked-search index: BM25 postings plus the registry of live
/// (committed) documents — subject ↔ BM25 slot both ways, plus slot
/// accounting. Slots `0..products` belong to the seed archive forever;
/// live documents use slots above that, reusing freed ones before
/// growing the slab.
struct SearchIndex {
    bm25: Bm25Index,
    by_subject: HashMap<String, usize>,
    by_slot: HashMap<usize, (String, String)>,
    /// Total BM25 slots ever allocated (live or dead).
    slots: usize,
    /// Dead live-document slots available for reuse.
    free: Vec<usize>,
}

impl SearchIndex {
    /// The index over the `products` seed documents alone.
    fn new(bm25: Bm25Index, products: usize) -> SearchIndex {
        SearchIndex {
            bm25,
            slots: products,
            by_subject: HashMap::new(),
            by_slot: HashMap::new(),
            free: Vec::new(),
        }
    }
}

/// Build a spatially-indexed store of `n` point features — the same
/// shape as the E2 experiment's store, so `/query` serves the paper's
/// "selections over a rectangular area" workload.
pub fn point_store(n: usize, seed: u64) -> TripleStore {
    point_store_sharded(n, seed, None)
}

/// [`point_store`] restricted to one shard's subject-hash slice. Every
/// feature's coordinates are still drawn (the RNG advances identically
/// for every shard), then non-owned subjects are skipped — so N shard
/// stores union to exactly the unsharded store, coordinate for
/// coordinate.
///
/// The features are interned in Hilbert order: sorted by the
/// [`hilbert_key`] of their point on a `2^16 × 2^16` grid over the
/// region (ties keep generation order), each one's subject, predicates,
/// class and point in turn, the point straight from its coordinates
/// ([`ee_rdf::dict::Dictionary::intern_geometry`]). So the ids of the
/// features in one selection window are close together, and so are
/// their index entries and term text. The id triples then load the
/// indexes from sorted runs — the path [`ee_rdf::storage::Store::open`]
/// takes, so a fresh server and a reopened one build the same index
/// layout. Ids that `/update` assigns later append, unordered.
pub fn point_store_sharded(
    n: usize,
    seed: u64,
    shard: Option<&ee_rdf::storage::ShardSpec>,
) -> TripleStore {
    let mut rng = Rng::seed_from(seed);
    let subject = |i: usize| Term::iri(format!("http://e/f{i}"));
    let mut features = Vec::with_capacity(n);
    for i in 0..n {
        let p = Point::new(rng.range_f64(0.0, REGION), rng.range_f64(0.0, REGION));
        if shard.is_some_and(|spec| !spec.accepts(&subject(i))) {
            continue;
        }
        features.push((i, p));
    }
    let region = Envelope::new(0.0, 0.0, REGION, REGION);
    // A 2^16 grid has 2^32 cells: the index fits a u32, which halves the
    // sorted (key, index) pairs.
    let key = |p: Point| u32::try_from(hilbert_key(&region, HILBERT_ORDER, p));
    features.sort_by_cached_key(|(_, p)| key(*p).expect("a 2^16 grid has 2^32 cells"));
    let mut store = TripleStore::new();
    let geom = Term::iri("http://e/hasGeometry");
    let kind = Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
    let feature = Term::iri("http://e/Feature");
    let mut triples = Vec::with_capacity(2 * features.len());
    // The three constant terms are interned once, right after the first
    // feature's subject: the ids interning them per feature gave.
    let mut constants = None;
    for (i, p) in features {
        let dict = &mut store.dict;
        let si = dict.intern(&subject(i));
        let &mut (ki, fi, gi) = constants
            .get_or_insert_with(|| (dict.intern(&kind), dict.intern(&feature), dict.intern(&geom)));
        let wi = dict.intern_geometry(p.into());
        triples.push((si, ki, fi));
        triples.push((si, gi, wi));
    }
    store.load_ids(triples);
    store.pack();
    store
}

/// Grid order of the Hilbert curve [`point_store_sharded`] sorts by:
/// `2^16` cells a side, about 0.0015 units over [`REGION`].
const HILBERT_ORDER: u32 = 16;

/// The generated point set of `config` (its shard's part, when sharded).
fn generated_points(config: &DataConfig) -> TripleStore {
    point_store_sharded(config.points, config.seed, shard_spec_of(config).as_ref())
}

/// The catalogue engine group: classic, semantic and ranked search over
/// one generated product archive.
fn catalogues(config: &DataConfig) -> (ClassicCatalogue, SemanticCatalogue, SearchIndex) {
    let region = Envelope::new(0.0, 0.0, 40.0, 40.0);
    let products = ProductGenerator::new(region, 2017, config.seed ^ 5).take(config.products);
    let classic = ClassicCatalogue::build(products.clone());
    let search = SearchIndex::new(Bm25Index::build_products(classic.products()), classic.len());
    let semantic = SemanticCatalogue::from_products(&products);
    (classic, semantic, search)
}

/// The raster engine group: the B04 overview pyramid of a simulated
/// Sentinel-2 scene, and the per-region ice product suites.
fn rasters(config: &DataConfig) -> (Vec<Raster<f32>>, Vec<(String, IceProducts)>) {
    let world = Landscape::generate(LandscapeConfig {
        size: config.scene_size,
        seed: config.seed ^ 11,
        ..LandscapeConfig::default()
    })
    .expect("landscape generation");
    // Only B04 is served: simulate it alone and move it, uncopied, from
    // the scene into the pyramid's level 0. Free the landscape as soon as
    // it is used, so little of this group's transient memory overlaps the
    // other groups' peaks.
    let band = simulate_s2_bands(
        &world,
        Date::new(2017, 7, 1).expect("valid date"),
        OpticsConfig::default(),
        config.seed ^ 13,
        &[Band::B04],
    )
    .expect("scene simulation")
    .into_band(Band::B04)
    .expect("B04 simulated");
    drop(world);
    let pyramid = pyramid(band);

    let ice = ICE_REGIONS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let world = IceWorld::generate(IceWorldConfig {
                size: config.ice_size,
                days: 3,
                icebergs: 4,
                seed: config.seed ^ (0x1ce << 8) ^ i as u64,
                ..IceWorldConfig::default()
            })
            .expect("ice world");
            let (truth, leads, ridges) = truth_masks(&world, 1);
            // 40 m grid aggregated ×5 → 200 m products ("1 km or
            // better"), the same suite E12b delivers over PCDSS.
            let products = products_from_map(&truth, &leads, &ridges, 5);
            (name.to_string(), products)
        })
        .collect();
    (pyramid, ice)
}

/// Run one engine group: what it built, and its wall time in seconds.
fn timed<T>(group: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let built = group();
    (built, t0.elapsed().as_secs_f64())
}

/// The [`ee_rdf::storage::ShardSpec`] a config's `shard` field names.
/// Panics on an invalid assignment (index ≥ count) — a startup
/// configuration error, not a runtime condition.
fn shard_spec_of(config: &DataConfig) -> Option<ee_rdf::storage::ShardSpec> {
    config
        .shard
        .map(|(index, count)| ee_rdf::storage::ShardSpec::new(index, count))
}

/// The rectangular-selection query `/query` issues when given a window
/// origin instead of raw SPARQL (side defaults to 1% of the region's
/// area, matching E2).
pub fn selection_sparql(x0: f64, y0: f64, side: f64) -> String {
    let (x1, y1) = (x0 + side, y0 + side);
    format!(
        "PREFIX e: <http://e/> SELECT (COUNT(?s) AS ?n) WHERE {{ \
         ?s e:hasGeometry ?g . \
         FILTER(geof:sfWithin(?g, \"POLYGON (({x0} {y0}, {x1} {y0}, {x1} {y1}, {x0} {y1}, {x0} {y0}))\"^^geo:wktLiteral)) }}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What [`built`] returns: id triples, pyramid levels, ice products,
    /// classic hits, ranked hits.
    type Built = (
        Vec<ee_rdf::store::IdTriple>,
        Vec<Vec<u32>>,
        Vec<(String, [Vec<u32>; 4])>,
        Vec<String>,
        Vec<(u64, String)>,
    );

    /// Everything a build produces that a request can observe, in a
    /// comparable form: the store's triples (as dictionary ids), every
    /// pyramid level, every ice region's products, and one classic and
    /// one ranked catalogue search (product ids, scores as bits).
    fn built(state: &AppState) -> Built {
        let triples = state.store().id_triples().collect();
        let bits = |r: &Raster<f32>| r.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let ice = state
            .ice
            .iter()
            .map(|(name, p)| {
                let stage = p.stage.data().iter().map(|&v| u32::from(v)).collect();
                let fields = [
                    bits(&p.concentration),
                    stage,
                    bits(&p.lead_fraction),
                    bits(&p.ridge_fraction),
                ];
                (name.clone(), fields)
            })
            .collect();
        let classic = state
            .classic_search(Envelope::new(5.0, 5.0, 20.0, 20.0))
            .expect("classic search")
            .into_iter()
            .map(|p| p.id.clone())
            .collect();
        let ranked = state
            .ranked_search("sentinel ice", 10)
            .into_iter()
            .map(|h| match h.doc {
                RankedDoc::Product(p) => (h.score.to_bits(), p.id.clone()),
                RankedDoc::Live { subject, .. } => (h.score.to_bits(), subject),
            })
            .collect();
        let pyramid = state.pyramid.iter().map(bits).collect();
        (triples, pyramid, ice, classic, ranked)
    }

    #[test]
    fn build_is_deterministic_and_complete() {
        let a = AppState::build(DataConfig::tiny());
        assert!(a.store().len() >= 2 * a.config.points);
        assert_eq!(a.classic.len(), a.config.products);
        assert!(!a.semantic.is_empty());
        assert_eq!(a.pyramid[0].shape(), (96, 96));
        assert_eq!(a.pyramid.last().unwrap().shape(), (1, 1));
        assert_eq!(a.ice.len(), ICE_REGIONS.len());
        assert!(a.ice_region("fram-strait").is_some());
        assert!(a.ice_region("atlantis").is_none());
        let want = built(&a);
        let (_, _, _, classic, ranked) = &want;
        assert!(!classic.is_empty(), "the classic search hits");
        assert!(!ranked.is_empty(), "the ranked search hits");
        // Determinism: the engine groups build concurrently, yet the same
        // config builds the same data — over an ephemeral store and over a
        // durable one seeded in a fresh directory.
        let b = AppState::build(DataConfig::tiny());
        assert!(built(&b) == want, "two builds of one config differ");
        let dir = ee_rdf::storage::scratch_dir("serve-deterministic");
        let d = AppState::build_durable(DataConfig::tiny(), &dir).expect("durable build");
        assert!(built(&d) == want, "the durable build differs");
        drop(d);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Fold every dictionary entry of `store` — id, term, decoded value
    /// and parsed geometry — into `h`, then its id triples.
    fn fingerprint_store(h: &mut ee_util::ring::Fnv1a, store: &TripleStore) {
        for id in 0..store.dict.len() as u64 {
            let entry = format!(
                "{id} {} {:?} {:?}\n",
                store.dict.term(id).ntriples(),
                store.dict.value(id),
                store.dict.geometry_of(id),
            );
            h.update(entry.as_bytes());
        }
        for (s, p, o) in store.id_triples() {
            for id in [s, p, o] {
                h.update(&id.to_le_bytes());
            }
        }
    }

    /// A golden FNV-1a fingerprint of the tiny build: everything
    /// [`built`] compares, plus every dictionary entry of the point store
    /// and of the semantic store and the semantic store's id triples.
    /// `Debug` of an `f64` round-trips, so a value or coordinate that
    /// moves by one bit moves the hash. Any change to what the build
    /// produces, or to the ids it assigns, moves it. Last recorded when
    /// the point store began interning in Hilbert order, which moved ids
    /// only ([`answers_do_not_depend_on_the_id_layout`] shows the rest
    /// held).
    #[test]
    fn tiny_build_matches_its_golden_fingerprint() {
        let state = AppState::build(DataConfig::tiny());
        let mut h = ee_util::ring::Fnv1a::default();
        fingerprint_store(&mut h, &state.store());
        fingerprint_store(&mut h, state.semantic.store());
        h.update(format!("{:?}", built(&state)).as_bytes());
        let got = h.finish();
        assert_eq!(
            got, 0x0aa5_c205_8ae4_33cd,
            "tiny build fingerprint {got:#018x}"
        );
    }

    /// The generated point set interned in generation order — feature
    /// `f0` first — as [`point_store`] did before it sorted the features
    /// along the Hilbert curve: the same triples under other ids.
    fn generation_order_store(n: usize, seed: u64) -> TripleStore {
        let mut store = TripleStore::new();
        let mut rng = Rng::seed_from(seed);
        let geom = Term::iri("http://e/hasGeometry");
        let kind = Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
        let feature = Term::iri("http://e/Feature");
        let mut triples = Vec::with_capacity(2 * n);
        for i in 0..n {
            let s = Term::iri(format!("http://e/f{i}"));
            let p = Point::new(rng.range_f64(0.0, REGION), rng.range_f64(0.0, REGION));
            let dict = &mut store.dict;
            let (si, ki, fi) = (dict.intern(&s), dict.intern(&kind), dict.intern(&feature));
            let (gi, wi) = (dict.intern(&geom), dict.intern_geometry(p.into()));
            triples.push((si, ki, fi));
            triples.push((si, gi, wi));
        }
        store.load_ids(triples);
        store.pack();
        store
    }

    /// The Hilbert order moves ids, nothing else: over 64 seeded windows
    /// the COUNTs at side 10 and the row multisets at side 5 equal a
    /// generation-order store's, and so do the answer to a triangle window
    /// and the two stores' term-level triples.
    #[test]
    fn answers_do_not_depend_on_the_id_layout() {
        let (n, seed) = (DataConfig::default().points, 2019);
        let (hilbert, generation) = (point_store(n, seed), generation_order_store(n, seed));
        let rows = |store: &TripleStore, sparql: &str| {
            let sols = ee_rdf::exec::query(store, sparql).expect("query");
            let mut rows: Vec<String> = sols.rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows
        };
        let window = |x0: f64, y0: f64, side: f64| {
            let (x1, y1) = (x0 + side, y0 + side);
            format!("POLYGON (({x0} {y0}, {x1} {y0}, {x1} {y1}, {x0} {y1}, {x0} {y0}))")
        };
        let within = |wkt: &str| {
            format!(
                "PREFIX e: <http://e/> SELECT ?s ?g WHERE {{ ?s e:hasGeometry ?g . \
                 FILTER(geof:sfWithin(?g, \"{wkt}\"^^geo:wktLiteral)) }}"
            )
        };
        let count = |store: &TripleStore, sparql: &str| match ee_rdf::exec::query(store, sparql)
            .expect("count")
            .scalar()
        {
            Some(Term::Literal { lexical, .. }) => lexical.parse::<usize>().expect("a count"),
            other => panic!("expected a count, got {other:?}"),
        };
        let mut rng = Rng::seed_from(64);
        let (mut counted, mut listed) = (0, 0);
        for _ in 0..64 {
            let (x0, y0) = (
                rng.range_f64(0.0, REGION - 10.0),
                rng.range_f64(0.0, REGION - 10.0),
            );
            let sparql = selection_sparql(x0, y0, 10.0);
            let n = count(&hilbert, &sparql);
            assert_eq!(n, count(&generation, &sparql), "{sparql}");
            counted += n;
            let listing = within(&window(x0, y0, 5.0));
            let (a, b) = (rows(&hilbert, &listing), rows(&generation, &listing));
            assert_eq!(a, b, "{listing}");
            listed += a.len();
        }
        assert!(
            counted > 64 * 100 && listed > 64 * 20,
            "{counted} counted, {listed} rows"
        );
        let triangle = within("POLYGON ((20 20, 70 30, 40 75, 20 20))");
        let answer = rows(&hilbert, &triangle);
        assert!(answer.len() > 100, "{} rows in the triangle", answer.len());
        assert_eq!(answer, rows(&generation, &triangle));
        let terms = |store: &TripleStore| {
            let line = |(s, p, o): (TermRef, TermRef, TermRef)| {
                format!("{} {} {}", s.ntriples(), p.ntriples(), o.ntriples())
            };
            let mut lines: Vec<String> = store.triples().map(line).collect();
            lines.sort();
            lines
        };
        assert_eq!(terms(&hilbert), terms(&generation));
        // And the ids did move.
        let first = |store: &TripleStore| store.dict.term(0).ntriples();
        assert_ne!(first(&hilbert), first(&generation));
    }

    /// Drain a pinned read into owned rows.
    fn drain(state: &AppState, mut read: PinnedRead) -> ee_rdf::exec::Solutions {
        let mut rows = Vec::new();
        let owned = |row: &[Option<TermRef>]| row.iter().map(|t| t.map(TermRef::to_term)).collect();
        while read.drain_batch(state, |row| rows.push(owned(row))) > 0 {}
        ee_rdf::exec::Solutions {
            vars: read.vars().to_vec(),
            rows,
        }
    }

    /// A head read of `sparql`, drained.
    fn head(state: &AppState, sparql: &str) -> ee_rdf::exec::Solutions {
        let q = ee_rdf::parser::parse_query(sparql).expect("parse");
        drain(state, state.query(&q, None).expect("the head").expect("query"))
    }

    /// An `AS OF commit` read of `sparql`; `None` for an unknown id.
    fn as_of(state: &AppState, sparql: &str, commit: u64) -> Option<ee_rdf::exec::Solutions> {
        let q = ee_rdf::parser::parse_query(sparql).expect("parse");
        Some(drain(state, state.query(&q, Some(commit))?.expect("query")))
    }

    /// The `ee_rdf_dictionary_bytes` value in a `/metrics` section.
    fn dictionary_bytes(section: &str) -> usize {
        let line = section
            .lines()
            .find_map(|l| l.strip_prefix("ee_rdf_dictionary_bytes "))
            .expect("the gauge renders");
        line.parse().expect("a byte count")
    }

    #[test]
    fn build_seconds_render_per_engine_group() {
        let state = AppState::build(DataConfig::tiny());
        let section = state.render_prometheus_section();
        assert!(section.contains(
            "# HELP ee_serve_build_seconds Start-up build wall time per engine group, in seconds\n"
        ));
        assert!(section.contains("# TYPE ee_serve_build_seconds gauge\n"));
        for group in BUILD_GROUPS {
            let prefix = format!("ee_serve_build_seconds{{group=\"{group}\"}} ");
            let line = section
                .lines()
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("no {group} line in\n{section}"));
            let seconds: f64 = line[prefix.len()..].parse().expect("a number");
            assert!(seconds > 0.0 && seconds < 60.0, "{line}");
        }
    }

    #[test]
    fn dictionary_bytes_gauge_grows_with_a_new_iri() {
        let state = AppState::build(DataConfig::tiny());
        let section = state.render_prometheus_section();
        assert!(section.contains("# TYPE ee_rdf_dictionary_bytes gauge\n"));
        let before = dictionary_bytes(&section);
        assert!(before > 0);
        // Capacity moves only when a buffer fills: an IRI longer than
        // every spare byte the dictionary holds must grow it.
        let iri = format!("http://e/{}", "x".repeat(before));
        let u = ee_rdf::parser::parse_update(&format!("INSERT DATA {{ <{iri}> <http://e/p> 1 }}"))
            .unwrap();
        state.commit_update(&u).expect("commit");
        assert!(dictionary_bytes(&state.render_prometheus_section()) > before);
    }

    /// `ee_rdf_index_bytes` is 12 bytes a key — three keys a triple —
    /// over the built store's runs; a commit's keys land in the deltas,
    /// which the gauge counts by capacity too.
    #[test]
    fn index_bytes_gauge_counts_runs_and_deltas() {
        let state = AppState::build(DataConfig::tiny());
        let gauge = |state: &AppState| -> usize {
            let section = state.render_prometheus_section();
            assert!(section.contains("# TYPE ee_rdf_index_bytes gauge\n"));
            let line = section.lines().find_map(|l| l.strip_prefix("ee_rdf_index_bytes "));
            line.expect("the gauge renders").parse().expect("a byte count")
        };
        let triples = state.store().len();
        assert_eq!(gauge(&state), 36 * triples);
        let u = ee_rdf::parser::parse_update("INSERT DATA { <http://e/new> <http://e/p> \"v\" }")
            .unwrap();
        state.commit_update(&u).expect("commit");
        assert!(gauge(&state) > 36 * triples, "the delta's keys are counted");
        assert_eq!(gauge(&state), state.store().index_bytes());
    }

    #[test]
    fn commit_update_bumps_generation() {
        let state = AppState::build(DataConfig::tiny());
        assert_eq!(state.store().generation(), 0);
        let before = state.store().len();
        let u = ee_rdf::parser::parse_update(
            "INSERT DATA { <http://e/new> <http://e/p> \"v\" }",
        )
        .unwrap();
        let stats = state.commit_update(&u).expect("commit");
        assert_eq!(stats.generation, 1);
        assert_eq!(state.store().generation(), 1);
        assert_eq!(state.store().len(), before + 1);
        // A no-op commit (same triple again) bumps nothing.
        let stats = state.commit_update(&u).expect("noop commit");
        assert_eq!(stats.generation, 1);
        assert_eq!(state.store().generation(), 1);
        assert_eq!(state.update_latency().count(), 2);
        let reads = state.store_reads();
        let section = state.render_prometheus_section();
        assert!(section.contains("ee_rdf_generation 1"));
        assert!(section.contains("ee_serve_update_commit_us_count{op=\"commit\"} 2"));
        let store = state.store();
        assert!(section.contains(&format!("ee_rdf_store_triples {}\n", store.len())));
        assert!(section.contains(&format!("ee_rdf_dictionary_terms {}\n", store.dict.len())));
        let bytes = store.dict.heap_bytes();
        assert!(section.contains(&format!("ee_rdf_dictionary_bytes {bytes}\n")));
        drop(store);
        assert_eq!(
            state.store_reads(),
            reads + 1,
            "a scrape is not a store read"
        );
        // Many unique windows, planned against the committed store,
        // answer as a fresh parse + plan + execute does.
        for i in (0..1124).step_by(17) {
            let q = selection_sparql(i as f64 * 0.08, 20.0, 10.0);
            let want = ee_rdf::exec::query(&state.store(), &q).expect("reference");
            assert_eq!(head(&state, &q), want, "window {i}");
        }
    }

    #[test]
    fn versioned_reads_rewind_to_their_commit() {
        let state = AppState::build(DataConfig::tiny());
        let root = state.head_commit();
        assert_eq!(root, ee_rdf::storage::ROOT_COMMIT_ID);
        let q = "SELECT ?o WHERE { <http://e/vdoc> <http://e/p> ?o }";
        let v = |sols: ee_rdf::exec::Solutions| -> Vec<String> {
            sols.rows
                .iter()
                .map(|r| match r[0].as_ref() {
                    Some(Term::Literal { lexical, .. }) => lexical.clone(),
                    other => panic!("expected literal, got {other:?}"),
                })
                .collect()
        };
        let u1 = ee_rdf::parser::parse_update(
            "INSERT DATA { <http://e/vdoc> <http://e/p> \"v1\" }",
        )
        .unwrap();
        state.commit_update(&u1).expect("commit v1");
        let c1 = state.head_commit();
        assert_ne!(c1, root, "commit moves the head id");
        let u2 = ee_rdf::parser::parse_update(
            "DELETE DATA { <http://e/vdoc> <http://e/p> \"v1\" } ; \
             INSERT DATA { <http://e/vdoc> <http://e/p> \"v2\" }",
        )
        .unwrap();
        state.commit_update(&u2).expect("commit v2");
        let c2 = state.head_commit();
        assert!(c2 != c1 && c2 != root);

        assert_eq!(v(head(&state, q)), ["v2"], "head sees v2");
        assert_eq!(v(as_of(&state, q, c1).expect("c1 resolvable")), ["v1"]);
        assert!(v(as_of(&state, q, root).expect("root resolvable")).is_empty());
        assert_eq!(v(as_of(&state, q, c2).expect("head resolvable")), ["v2"]);
        assert!(as_of(&state, q, 0xdead_beef).is_none(), "unknown id");

        // A later commit moves the head; c1 still rewinds to v1.
        let u3 = ee_rdf::parser::parse_update(
            "INSERT DATA { <http://e/vdoc2> <http://e/p> \"x\" }",
        )
        .unwrap();
        state.commit_update(&u3).expect("commit x");
        assert_eq!(
            v(as_of(&state, q, c1).expect("c1 after a later commit")),
            ["v1"]
        );
        // A no-op update moves neither generation nor head.
        let before = state.head_commit();
        state.commit_update(&u3).expect("noop");
        assert_eq!(state.head_commit(), before);
        assert!(state.store_reads() > 0);
    }

    /// An `AS OF` read must see exactly its commit while commits land:
    /// an overlay built against one head and applied to a newer one
    /// would leak the newer commits' triples into the answer.
    #[test]
    fn as_of_reads_stay_pinned_while_commits_land() {
        let state = AppState::build(DataConfig::tiny());
        let root = state.head_commit();
        let q = ee_rdf::parser::parse_query("SELECT ?o WHERE { <http://e/race> <http://e/p> ?o }")
            .unwrap();
        let (reads, wrong) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for i in 0..400 {
                    let u = ee_rdf::parser::parse_update(&format!(
                        "INSERT DATA {{ <http://e/race> <http://e/p> \"{i}\" }}"
                    ))
                    .unwrap();
                    state.commit_update(&u).expect("commit");
                }
            });
            // Bounded in time as well: the reader's lock traffic can
            // delay the writer for seconds on a loaded host.
            let t0 = std::time::Instant::now();
            let (mut reads, mut wrong) = (0u64, 0u64);
            while !writer.is_finished() && t0.elapsed() < std::time::Duration::from_secs(2) {
                let read = state.query(&q, Some(root)).expect("root is known");
                let sols = drain(&state, read.expect("query"));
                reads += 1;
                wrong += u64::from(!sols.rows.is_empty());
            }
            (reads, wrong)
        });
        assert_eq!(
            wrong, 0,
            "{wrong} of {reads} AS OF root reads saw later commits"
        );
    }

    #[test]
    fn build_durable_reopens_committed_state() {
        let dir = ee_rdf::storage::scratch_dir("serve-durable");
        let cfg = DataConfig::tiny();
        let fresh = AppState::build_durable(cfg.clone(), &dir).expect("seed durable state");
        let seeded = fresh.store().len();
        assert!(seeded >= 2 * cfg.points);
        let u = ee_rdf::parser::parse_update(
            "INSERT DATA { <http://e/durable> <http://e/p> <http://e/o> }",
        )
        .unwrap();
        fresh.commit_update(&u).expect("commit");
        drop(fresh);
        // Reopen: snapshot + commit-log replay restore the committed triple.
        let reopened = AppState::build_durable(cfg, &dir).expect("reopen");
        assert_eq!(reopened.store().generation(), 1);
        assert_eq!(reopened.store().len(), seeded + 1);
        assert!(reopened.store().contains(
            &Term::iri("http://e/durable"),
            &Term::iri("http://e/p"),
            &Term::iri("http://e/o"),
        ));
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fastpath_counters_track_query_shapes() {
        let state = AppState::build(DataConfig::tiny());
        // COUNT without GROUP BY → fast_count (twice: head + AS OF).
        let count_q =
            "PREFIX e: <http://e/> SELECT (COUNT(?s) AS ?n) WHERE { ?s e:hasGeometry ?g }";
        head(&state, count_q);
        assert!(as_of(&state, count_q, state.head_commit()).is_some());
        // ORDER BY + LIMIT → topk.
        head(
            &state,
            "PREFIX e: <http://e/> SELECT ?s WHERE { ?s e:hasGeometry ?g } ORDER BY ?s LIMIT 3",
        );
        // Plain projection → stream.
        head(
            &state,
            "PREFIX e: <http://e/> SELECT ?s WHERE { ?s e:hasGeometry ?g }",
        );
        assert_eq!(state.fastpath_count("fast_count"), 2);
        assert_eq!(state.fastpath_count("topk"), 1);
        assert_eq!(state.fastpath_count("stream"), 1);
        assert_eq!(state.fastpath_count("full_sort"), 0);
        let section = state.render_prometheus_section();
        // The label contract: the HELP line names `kind` and all six
        // values.
        assert!(section.contains(
            "# HELP ee_rdf_fastpath_total Query executions per route; kind is the label of the \
             plan's first blocking step: topk (ORDER BY + LIMIT through a bounded heap), \
             fast_count (a lone COUNT without GROUP BY), group_count (GROUP BY whose aggregates \
             are all COUNTs), full_sort (ORDER BY as a global sort), aggregate (any other \
             grouping or aggregate), stream (no blocking step)\n\
             # TYPE ee_rdf_fastpath_total counter\n"
        ));
        assert!(section.contains("ee_rdf_fastpath_total{kind=\"fast_count\"} 2"));
        assert!(section.contains("ee_rdf_fastpath_total{kind=\"topk\"} 1"));
        assert!(section.contains("ee_rdf_fastpath_total{kind=\"group_count\"} 0"));
        // Prometheus text shape: every non-comment line is `name value`.
        for line in section.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "bad line {line:?}");
        }
    }

    #[test]
    fn ranked_search_resolves_products_in_score_order() {
        let state = AppState::build(DataConfig::tiny());
        assert_eq!(state.ranked_indexed(), state.classic.len());
        let hits = state.ranked_search("radar ground range detected", 7);
        assert!(!hits.is_empty() && hits.len() <= 7);
        assert!(
            hits.windows(2).all(|w| w[0].score >= w[1].score),
            "descending scores"
        );
        for hit in &hits {
            match &hit.doc {
                RankedDoc::Product(p) => {
                    assert_eq!(p.mission, "S1", "radar vocabulary only matches Sentinel-1")
                }
                RankedDoc::Live { .. } => panic!("no live docs before any commit"),
            }
        }
    }

    #[test]
    fn committed_search_text_is_ranked_searchable_live() {
        let state = AppState::build(DataConfig::tiny());
        let absent = state.ranked_search("zanzibar mangrove flyover", 5);
        assert!(absent.is_empty(), "nonsense vocabulary matches nothing");
        let seed_count = state.ranked_indexed();

        // Commit a document: it becomes searchable immediately.
        let u = ee_rdf::parser::parse_update(&format!(
            "INSERT DATA {{ <http://e/doc1> <{SEARCH_TEXT_IRI}> \
             \"zanzibar mangrove flyover campaign\" }}"
        ))
        .unwrap();
        state.commit_update(&u).expect("commit insert");
        assert_eq!(state.ranked_indexed(), seed_count + 1);
        let hits = state.ranked_search("zanzibar mangrove flyover", 5);
        assert_eq!(hits.len(), 1);
        match &hits[0].doc {
            RankedDoc::Live { subject, text } => {
                assert_eq!(subject, "http://e/doc1");
                assert!(text.contains("zanzibar"));
            }
            RankedDoc::Product(_) => panic!("must resolve to the live doc"),
        }

        // A second literal on the same subject folds into one document.
        let u2 = ee_rdf::parser::parse_update(&format!(
            "INSERT DATA {{ <http://e/doc1> <{SEARCH_TEXT_IRI}> \"aardvark burrow\" }}"
        ))
        .unwrap();
        state.commit_update(&u2).expect("commit second literal");
        assert_eq!(state.ranked_indexed(), seed_count + 1, "same doc, updated");
        assert_eq!(state.ranked_search("aardvark", 5).len(), 1);

        // Deleting every searchText literal removes the document.
        let u3 = ee_rdf::parser::parse_update(&format!(
            "DELETE WHERE {{ <http://e/doc1> <{SEARCH_TEXT_IRI}> ?t }}"
        ))
        .unwrap();
        state.commit_update(&u3).expect("commit delete");
        assert_eq!(state.ranked_indexed(), seed_count);
        assert!(state.ranked_search("zanzibar mangrove flyover", 5).is_empty());
        assert!(state.ranked_search("aardvark", 5).is_empty());

        // Seed products stay searchable throughout.
        assert!(!state.ranked_search("radar ground range detected", 3).is_empty());
    }

    #[test]
    fn ranked_search_racing_search_text_deletes_resolves_its_own_hits() {
        // A writer inserts and deletes four `eo:searchText` documents in
        // a loop, so their BM25 slots are freed and handed to other
        // subjects while a reader searches: every hit must resolve to
        // the document that scored it, and nothing may panic.
        let state = AppState::build(DataConfig::tiny());
        let update = |op: &str| {
            let docs: String = (0..4)
                .map(|i| format!("<http://e/zf{i}> <{SEARCH_TEXT_IRI}> \"zebrafish larva {i}\" . "))
                .collect();
            ee_rdf::parser::parse_update(&format!("{op} DATA {{ {docs} }}")).unwrap()
        };
        let (insert, delete) = (update("INSERT"), update("DELETE"));
        let stop = std::sync::atomic::AtomicBool::new(false);
        let (reader, writer) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut rounds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    state.commit_update(&insert).expect("insert");
                    state.commit_update(&delete).expect("delete");
                    rounds += 1;
                }
                rounds
            });
            let reader = scope.spawn(|| {
                let mut searches = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for hit in state.ranked_search("zebrafish", 5) {
                        let RankedDoc::Live { subject, text } = hit.doc else {
                            panic!("only live documents mention zebrafish");
                        };
                        let n = subject.strip_prefix("http://e/zf").expect("a zf subject");
                        assert_eq!(text, format!("zebrafish larva {n}"), "{subject}");
                    }
                    searches += 1;
                }
                searches
            });
            std::thread::sleep(std::time::Duration::from_secs(1));
            stop.store(true, Ordering::Relaxed);
            (reader.join(), writer.join())
        });
        let searches = reader.expect("reader must not panic");
        let rounds = writer.expect("writer must not panic");
        assert!(
            searches > 0 && rounds > 0,
            "{searches} searches, {rounds} rounds"
        );
    }

    #[test]
    fn selection_query_answers() {
        let state = AppState::build(DataConfig::tiny());
        let q = selection_sparql(10.0, 10.0, 10.0);
        let sol = ee_rdf::exec::query(&state.store(), &q).expect("selection");
        let n = match sol.scalar() {
            Some(Term::Literal { lexical, .. }) => lexical.parse::<usize>().unwrap(),
            other => panic!("expected scalar count, got {other:?}"),
        };
        assert!(n > 0, "1% window over 2k points hits something");
    }

    /// The shards' slices of the generated point set are disjoint and
    /// union to [`point_store`], for every fleet size the router tests
    /// run; with more than one shard each holds a strict slice.
    #[test]
    fn point_store_sharded_slices_partition_point_store() {
        let (n, seed) = (600, 7);
        let lines = |store: &TripleStore| -> Vec<String> {
            let line = |(s, p, o): (TermRef, TermRef, TermRef)| {
                format!("{} {} {}", s.ntriples(), p.ntriples(), o.ntriples())
            };
            store.triples().map(line).collect()
        };
        let mut whole = lines(&point_store(n, seed));
        whole.sort();
        for count in 1..=3 {
            let mut union = Vec::new();
            for index in 0..count {
                let spec = ee_rdf::storage::ShardSpec::new(index, count);
                let slice = lines(&point_store_sharded(n, seed, Some(&spec)));
                assert!(count == 1 || slice.len() < whole.len(), "shard {index}/{count}");
                union.extend(slice);
            }
            union.sort();
            let total = union.len();
            union.dedup();
            assert_eq!(union.len(), total, "{count} slices are disjoint");
            assert_eq!(union, whole, "{count} slices union to the unsharded store");
        }
    }
}
