//! The server: the C10K tier — poll-driven event-loop shards in front of
//! a worker pool.
//!
//! ```text
//!   acceptor ──► shard inboxes ──► N event-loop shards (poll(2))
//!                                     │  nonblocking sockets, one
//!                                     │  EventConn state machine each:
//!                                     │  Idle → parse → admit ─ hit,
//!                                     │  refusal or bounded head read:
//!                                     │  answered on the shard
//!                                     │  anything else: Busy ⇄ StreamWait
//!                                     │  → end_exchange → Idle
//!                                     ▼
//!                       the rest only: job queue ──► M worker threads
//!                                     ▲            (resolve_miss / pull
//!                                     └── ready ◄─ body chunks)
//!                                         queue + wake pipe
//! ```
//!
//! A connection is a small state struct, not a thread: the shard polls
//! its sockets, feeds bytes to a resumable [`RequestParser`], and answers
//! a request in one of three places:
//!
//! 1. **A hit or a refusal, on the shard.** The shard looks each
//!    complete request up in the response cache itself; a hit is
//!    answered on the spot — head serialised straight into the
//!    connection's [`SendBuf`], body copied once from the cache entry.
//! 2. **A bounded head read, on the shard.** A `GET /query` miss without
//!    `asOf` whose plan enumerates at most
//!    [`INLINE_CANDIDATES`](crate::state::INLINE_CANDIDATES) R-tree
//!    candidates (`router::run_bounded`) runs to completion on
//!    the shard that parsed it, under a store guard taken without
//!    waiting; a contended lock or a plan that fails the gate sends it
//!    on to the workers.
//! 3. **Everything else, on the workers.** The worker pool returns one
//!    `Completion` shape for every job: bytes plus how the response
//!    continues (a sized response is simply finished).
//!
//! The first two never pay the two cross-thread handoffs (job queue,
//! then completion mailbox + wake pipe). Every exchange — hit, refusal,
//! inline read or worker response — ends in one place,
//! `EventConn::end_exchange`, and every refusal (400/413/408, the 503
//! sheds) is written by one helper. Every handler and body producer runs
//! inside one panic boundary (`contain_panic`): a panic answers 500, or
//! truncates a body already under way, and no thread dies.
//! Heavy route work (plan/execute, tile encode) runs on workers;
//! streamed bodies are pulled in bounded batches
//! **only while the socket drains**, so a stalled reader parks its
//! `BodyStream` in the shard (O(batch) memory) instead of pinning a
//! worker. Admission control is layered: a max-connections cap at
//! accept, per-route in-flight quotas, and the dispatch-queue watermark,
//! which guards the worker queue and so sheds only requests bound for
//! it — each shedding with a graceful 503 + `Retry-After: 1`. Idle
//! keep-alive connections and stuck partial request heads (slow loris)
//! are reaped on timers.

use crate::cache::{CachedBody, ShardedLru};
use crate::http::{
    frame_chunk, Body, BodyStream, Request, RequestError, RequestParser, Response, SendBuf,
    CHUNK_TERMINATOR,
};
use crate::metrics::{Metrics, Route, ROUTES};
use crate::router::{cache_key, classify, dispatch, Outcome};
use crate::state::AppState;
use ee_util::poll::{poll_fds, PollFd, WakePipe, Waker, POLLIN, POLLOUT};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads: the pool running route work and body chunk
    /// production.
    pub workers: usize,
    /// Event-loop shards, each owning a poll set.
    pub event_shards: usize,
    /// Hard cap on concurrently open connections; accepts beyond it are
    /// answered 503 and closed.
    pub max_connections: usize,
    /// Admission watermark: requests bound for the worker pool are
    /// 503-shed while this many jobs await a worker (cache hits never
    /// queue, so they are never shed here).
    pub queue_watermark: usize,
    /// In-flight request quota of each route; a route at its quota
    /// sheds further requests with 503 without costing the connection.
    pub route_quota: usize,
    /// Per-request deadline, counted from when the request's bytes
    /// start arriving; also the read budget for a partial request.
    pub deadline: Duration,
    /// Idle timeout for keep-alive connections.
    pub idle_timeout: Duration,
    /// Requests served on one connection before it is recycled.
    pub max_requests_per_conn: usize,
    /// HTTP/1.1 pipelining depth cap: consecutive requests
    /// dispatched while more request bytes sit buffered behind them.
    /// A client streaming requests faster than it drains responses is
    /// answered 503 and closed once it exceeds this depth (counted in
    /// `ee_serve_pipeline_capped_total`).
    pub max_pipeline_depth: usize,
    /// Response-cache entries per shard.
    pub cache_capacity_per_shard: usize,
    /// Largest response body the cache stores per entry. Streamed bodies
    /// are teed into the cache only up to this size; anything bigger
    /// streams through uncached (counted in
    /// `ee_serve_stream_uncacheable_total`).
    pub cache_max_body_bytes: usize,
    /// Enable `/debug/*` routes (tests and experiments only).
    pub debug_routes: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: ee_util::par::available_threads().min(8),
            event_shards: ee_util::par::available_threads().clamp(1, 4),
            max_connections: 8_192,
            queue_watermark: 64,
            route_quota: 512,
            deadline: Duration::from_millis(2_000),
            idle_timeout: Duration::from_millis(5_000),
            max_requests_per_conn: 10_000,
            max_pipeline_depth: 64,
            cache_capacity_per_shard: 512,
            cache_max_body_bytes: 256 * 1024,
            debug_routes: false,
        }
    }
}

/// Response-cache shards.
const CACHE_SHARDS: usize = 8;

/// Response-cache TTL.
const CACHE_TTL: Duration = Duration::from_secs(60);

/// A connection's identity across the shard/worker boundary: slab slot
/// plus a per-shard sequence number, so a completion for a connection
/// that died (and whose slot was reused) is recognised as stale.
type Token = (usize, u64);

/// A streamed response in flight: the pull-based body plus everything
/// the chunk producer needs. Travels shard → worker → shard; while the
/// socket is backed up it parks in the shard, holding O(batch) state.
struct StreamCtx {
    body: Box<dyn BodyStream>,
    tee: Option<CacheFill>,
    deadline: Instant,
    route: Route,
    t0: Instant,
    first_chunk: bool,
}

impl StreamCtx {
    /// Record the request's latency once its stream is over: finished,
    /// aborted (deadline or error), or dropped with its connection.
    fn record_latency(&self, metrics: &Metrics) {
        metrics.record(self.route, elapsed_us(self.t0));
    }
}

/// Work for the worker pool.
enum Job {
    /// Resolve a request the shard's cache lookup did not answer into
    /// response bytes.
    Miss {
        shard: usize,
        token: Token,
        req: Box<Request>,
        route: Route,
        deadline: Instant,
        keep_alive: bool,
    },
    /// Pull the next bounded batch of body chunks.
    NextChunk {
        shard: usize,
        token: Token,
        ctx: StreamCtx,
    },
}

/// How a response continues after the bytes a worker produced.
enum StreamNext {
    /// More chunks remain; the context comes back to the shard.
    More(StreamCtx),
    /// Clean end: a sized response, or a streamed body whose terminator
    /// was emitted (and any tee inserted).
    Finished,
    /// Error or deadline expiry: the chunked body is truncated on the
    /// wire and the connection must close.
    Abort,
}

/// A worker's result, routed back to the owning shard: response bytes
/// (head and/or body) plus how the response continues.
struct Completion {
    token: Token,
    bytes: Vec<u8>,
    next: StreamNext,
}

/// Per-shard mailboxes: fresh sockets from the acceptor, completions
/// from workers, and the waker that interrupts the shard's poll.
struct ShardHandle {
    inbox: Mutex<Vec<TcpStream>>,
    completions: Mutex<VecDeque<Completion>>,
    waker: Waker,
}

struct Shared {
    config: ServerConfig,
    state: Arc<AppState>,
    metrics: Metrics,
    cache: ShardedLru,
    jobs: Mutex<VecDeque<Job>>,
    jobs_cv: Condvar,
    shards: Vec<ShardHandle>,
    route_inflight: [AtomicU64; ROUTES.len()],
    stop: AtomicBool,
}

impl Shared {
    /// Enqueue `job` unless `limit` jobs already wait; `false` means the
    /// queue was full and the job was dropped.
    fn try_push_job(&self, job: Job, limit: usize) -> bool {
        let mut q = self.jobs.lock().expect("jobs poisoned");
        if q.len() >= limit {
            return false;
        }
        q.push_back(job);
        self.metrics.set_queue_depth(q.len() as u64);
        drop(q);
        self.jobs_cv.notify_one();
        true
    }

    fn route_index(route: Route) -> usize {
        ROUTES.iter().position(|r| *r == route).expect("in ROUTES")
    }

    /// Try to take one in-flight slot on `route`; `false` means the
    /// quota is exhausted and the request must be shed.
    fn acquire_route(&self, route: Route) -> bool {
        let i = Self::route_index(route);
        let prev = self.route_inflight[i].fetch_add(1, Ordering::AcqRel);
        if prev as usize >= self.config.route_quota {
            self.route_inflight[i].fetch_sub(1, Ordering::AcqRel);
            return false;
        }
        true
    }

    fn release_route(&self, route: Route) {
        self.route_inflight[Self::route_index(route)].fetch_sub(1, Ordering::AcqRel);
    }
}

/// A running server; dropping it does **not** stop the threads — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    /// The bound address (resolved ephemeral port).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Serving-tier metrics (live).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Response cache statistics (live).
    pub fn cache(&self) -> &ShardedLru {
        &self.shared.cache
    }

    /// Stop accepting, wake the workers and shards, and join every
    /// thread. Idempotent in effect; consumes the handle.
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        self.shared.jobs_cv.notify_all();
        for s in &self.shared.shards {
            s.waker.wake();
        }
        for t in self.threads {
            let _ = t.join();
        }
        // Drop anything still queued.
        self.shared.jobs.lock().expect("jobs poisoned").clear();
    }
}

/// Start a server on `config.addr` fronting `state`.
pub fn start(config: ServerConfig, state: Arc<AppState>) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    // Two fds per loopback connection (plus listener, pipes, data
    // files): make sure the fleet fits.
    let _ = ee_util::poll::raise_nofile_limit(config.max_connections as u64 * 2 + 512);

    // Shard mailboxes (and their wake pipes) exist before the Shared so
    // workers can address them; the pipes themselves move into the shard
    // threads below.
    let shard_count = config.event_shards.max(1);
    let mut pipes = Vec::with_capacity(shard_count);
    let mut handles = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        let pipe = WakePipe::new()?;
        handles.push(ShardHandle {
            inbox: Mutex::new(Vec::new()),
            completions: Mutex::new(VecDeque::new()),
            waker: pipe.waker()?,
        });
        pipes.push(pipe);
    }

    let shared = Arc::new(Shared {
        cache: ShardedLru::with_max_entry_bytes(
            CACHE_SHARDS,
            config.cache_capacity_per_shard,
            CACHE_TTL,
            config.cache_max_body_bytes,
        ),
        metrics: Metrics::new(),
        state,
        jobs: Mutex::new(VecDeque::new()),
        jobs_cv: Condvar::new(),
        shards: handles,
        route_inflight: Default::default(),
        stop: AtomicBool::new(false),
        config,
    });

    let mut threads = Vec::new();
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("ee-serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared))?,
        );
    }
    for (i, pipe) in pipes.into_iter().enumerate() {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("ee-serve-shard-{i}"))
                .spawn(move || Shard::new(&shared, i, pipe).run())?,
        );
    }
    for w in 0..shared.config.workers.max(1) {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("ee-serve-worker-{w}"))
                .spawn(move || worker_loop(&shared))?,
        );
    }
    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

/// Classify an `accept(2)` failure: fd exhaustion (`EMFILE`/`ENFILE`)
/// earns a longer backoff than transient per-connection errors.
fn accept_backoff(e: &std::io::Error) -> Duration {
    match e.raw_os_error() {
        Some(23) | Some(24) => Duration::from_millis(50), // ENFILE / EMFILE
        _ => Duration::from_millis(5),
    }
}

/// How long the acceptor may block writing an accept-time 503.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(200);

/// Answer a just-accepted connection 503 and close it (accept-time
/// shedding; the acceptor writes it blocking, bounded by
/// [`SHED_WRITE_TIMEOUT`]).
fn shed_at_accept(shared: &Shared, mut stream: TcpStream, msg: &str) {
    shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT));
    let _ = stream.write_all(&serialize_error(503, msg, false));
}

// ---------------------------------------------------------------------
// Request resolution
// ---------------------------------------------------------------------

/// Answer a request without the engines, if it can be: a replayed
/// response-cache entry (200 marked `x-cache: HIT`, or a bodiless 304
/// when `If-None-Match` names its ETag), `/healthz` (from the head
/// record, so liveness never waits on a worker or the store lock), or
/// the 504 of a deadline that expired before handling (while queued, or
/// while the previous exchange ran). Records the route latency when it
/// answers; `None` means an uncacheable route or a cache miss, for
/// [`resolve_miss`].
///
/// The only place hit responses are made. It probes the cache at most
/// once per request and shares the entry's body instead of copying it.
fn lookup(
    shared: &Shared,
    req: &Request,
    route: Route,
    deadline: Instant,
    t0: Instant,
) -> Option<Response> {
    let mut response = if Instant::now() >= deadline {
        deadline_exceeded(shared, "deadline exceeded before handling")
    } else if route == Route::Healthz && crate::router::is_local_healthz(&shared.state, req) {
        crate::router::handle_healthz(&shared.state)
    } else {
        // Head `/query` keys embed the head commit id and catalogue keys
        // the ranked-index generation, so entries cached before a commit
        // or reindex are unreachable after it. Tile, ice and `asOf` keys
        // name no moving state.
        let key = cache_key(
            req,
            shared.state.head_commit(),
            shared.state.search_generation(),
        )?;
        let hit = shared.cache.get(&key)?;
        let mut headers = hit.headers.clone();
        headers.push(("x-cache".into(), "HIT".into()));
        Response {
            status: hit.status,
            content_type: hit.content_type.clone(),
            headers,
            body: Body::Shared(hit),
        }
    };
    elide_if_not_modified(shared, req, &mut response);
    shared.metrics.record(route, elapsed_us(t0));
    Some(response)
}

/// Answer a request [`lookup`] did not: deadline re-check (queue wait
/// counts), `/metrics`, engine dispatch with a cache insert (full
/// bodies) or tee (streamed), the post-commit cache sweep, `If-None-Match`
/// elision, and per-route latency accounting. It never probes the cache:
/// the insert key is computed here, at execution time, and a response
/// whose `x-commit` is not the commit the key is stamped with is not
/// inserted, so an entry always names the commit its body was read at.
fn resolve_miss(
    shared: &Shared,
    req: &Request,
    route: Route,
    deadline: Instant,
    t0: Instant,
) -> (Response, Option<CacheFill>) {
    // When a cacheable miss returns a *streamed* body there is nothing
    // to store up front; the chunk producer tees the chunks into this
    // fill and the entry is inserted only after the body completes.
    let mut stream_tee: Option<CacheFill> = None;
    let head = shared.state.head_commit();

    let mut response = if Instant::now() >= deadline {
        deadline_exceeded(shared, "deadline exceeded before handling")
    } else if route == Route::Metrics {
        // Served here because it needs the metrics + cache objects.
        Response::text(
            200,
            shared.metrics.render_prometheus(
                shared.cache.hits(),
                shared.cache.misses(),
                shared.cache.len(),
            ) + &shared.state.render_prometheus_section(),
        )
    } else {
        match dispatch(&shared.state, req, deadline, shared.config.debug_routes) {
            Outcome::DeadlineExceeded => deadline_exceeded(shared, "deadline exceeded in handler"),
            Outcome::Ready(resp) => {
                let (resp, tee) = file_miss(shared, req, head, resp);
                stream_tee = tee;
                resp
            }
        }
    };

    // An update that moved the head: sweep the unpinned response cache.
    // The commit-stamped keys already guarantee staleness can't be
    // served; the sweep reclaims the dead entries' memory now and feeds
    // `ee_serve_invalidated_total{kind="responses"}`. Pinned entries
    // survive, and a no-op commit leaves the head, so the cache, as is.
    if route == Route::Update && shared.state.head_commit() != head {
        let swept = shared.cache.sweep_unpinned() as u64;
        shared.state.note_invalidated_responses(swept);
    }

    if elide_if_not_modified(shared, req, &mut response) {
        // The elided stream never produces chunks; don't cache an empty
        // body under the resource's key.
        stream_tee = None;
    }
    // A streamed body's latency is recorded when the stream is over
    // (`StreamCtx::record_latency`), not before its first chunk.
    if response.body.as_full().is_some() {
        shared.metrics.record(route, elapsed_us(t0));
    }

    (response, stream_tee)
}

/// File a handler's response to a cache miss: a cacheable 200 is
/// inserted (sized body) or returned as the tee its streamed body fills,
/// and a cacheable response is marked `x-cache: MISS`. `head` is the
/// head commit read before the handler ran: the insert key is stamped
/// with it, and a read whose `x-commit` names another commit (one landed
/// before the read was planned) is not filed under it, so an entry
/// always names the commit its body was read at.
fn file_miss(
    shared: &Shared,
    req: &Request,
    head: u64,
    mut resp: Response,
) -> (Response, Option<CacheFill>) {
    let key = cache_key(req, head, shared.state.search_generation());
    let cacheable = key.is_some();
    // Tile, ice and `asOf` responses are immutable: pin them so the
    // update sweep and TTL expiry leave them alone.
    let pinned = cacheable && crate::router::immutable_read(req);
    let as_of = crate::router::as_of_param(req).ok().flatten();
    let stamp = format!("{:016x}", as_of.unwrap_or(head));
    let names_stamp = resp
        .headers
        .iter()
        .all(|(n, v)| n != "x-commit" || *v == stamp);
    let mut tee = None;
    if let Some(k) = key.filter(|_| resp.status == 200 && names_stamp) {
        // Full bodies can be cached before the write; streamed ones are
        // teed as produced (headers snapshotted *before* the x-cache
        // marker so replays re-mark).
        let mut fill = CacheFill::new(k, pinned, &resp);
        match resp.body.as_full() {
            Some(full) => {
                fill.buf = full.to_vec();
                fill.insert(&shared.cache);
            }
            None => tee = Some(fill),
        }
    }
    if cacheable {
        resp.headers.push(("x-cache".into(), "MISS".into()));
    }
    (resp, tee)
}

/// Conditional requests: when the client's `If-None-Match` names a 200
/// response's ETag, elide the body with a 304 (hits and misses alike).
/// Returns whether it did.
fn elide_if_not_modified(shared: &Shared, req: &Request, response: &mut Response) -> bool {
    if response.status != 200 {
        return false;
    }
    let Some(inm) = req.header("if-none-match") else {
        return false;
    };
    let matches = response
        .headers
        .iter()
        .find(|(n, _)| n == "etag")
        .is_some_and(|(_, tag)| crate::router::if_none_match_matches(inm, tag));
    if matches {
        shared.metrics.not_modified.fetch_add(1, Ordering::Relaxed);
        response.status = 304;
        response.body = Body::empty();
    }
    matches
}

/// The 504 for a request whose deadline passed, counted.
fn deadline_exceeded(shared: &Shared, msg: &str) -> Response {
    shared
        .metrics
        .deadline_expired
        .fetch_add(1, Ordering::Relaxed);
    Response::error(504, msg)
}

/// Microseconds since `t0`, saturating.
fn elapsed_us(t0: Instant) -> u64 {
    t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// Pending cache insert for a cacheable 200 miss: metadata captured at
/// dispatch time plus the body bytes — all at once for a sized body, as
/// produced for a streamed one. `overflowed` flips once a streamed body
/// exceeds the cache's per-entry cap; the buffer is dropped and the entry
/// never inserted.
struct CacheFill {
    key: String,
    status: u16,
    content_type: String,
    headers: Vec<(String, String)>,
    buf: Vec<u8>,
    overflowed: bool,
    /// Immutable (tile, ice or `asOf`) response: insert with `put_pinned`
    /// so the entry is exempt from TTL expiry and update sweeps.
    pinned: bool,
}

impl CacheFill {
    fn new(key: String, pinned: bool, resp: &Response) -> CacheFill {
        CacheFill {
            key,
            status: resp.status,
            content_type: resp.content_type.clone(),
            headers: resp.headers.clone(),
            buf: Vec::new(),
            overflowed: false,
            pinned,
        }
    }

    /// Accumulate one body chunk, flipping to overflowed (and counting
    /// the stream uncacheable) when the per-entry cap is crossed.
    fn absorb(&mut self, chunk: &[u8], max_tee: usize, metrics: &Metrics) {
        if self.overflowed {
            return;
        }
        if self.buf.len() + chunk.len() > max_tee {
            self.overflowed = true;
            self.buf = Vec::new();
            metrics.stream_uncacheable.fetch_add(1, Ordering::Relaxed);
        } else {
            self.buf.extend_from_slice(chunk);
        }
    }

    /// Insert the accumulated entry once the body is complete (no-op if
    /// it overflowed the cap) — the one place a miss becomes a cache
    /// entry.
    fn insert(self, cache: &ShardedLru) {
        if self.overflowed {
            return;
        }
        let entry = Arc::new(CachedBody {
            status: self.status,
            content_type: self.content_type,
            headers: self.headers,
            body: self.buf,
        });
        if self.pinned {
            cache.put_pinned(self.key, entry);
        } else {
            cache.put(self.key, entry);
        }
    }
}

// ---------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------

/// Target size of one framed chunk batch a worker produces per
/// `NextChunk` job — the unit of memory a stalled client can hold.
const CHUNK_BATCH_BYTES: usize = 64 * 1024;

/// Bytes read from one socket per readiness event before yielding to
/// the next (fairness under pipelined load).
const READ_QUANTUM: usize = 64 * 1024;

/// How often the shard sweeps for idle / stuck-head connections.
const SWEEP_INTERVAL: Duration = Duration::from_millis(100);

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    let mut next_shard = 0usize;
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                // EMFILE/ENFILE (or a transient failure): count it and
                // back off instead of tight-looping on a hot error.
                shared.metrics.accept_errors.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(accept_backoff(&e));
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        if shared.metrics.open_connections.load(Ordering::Relaxed)
            >= shared.config.max_connections as u64
        {
            shed_at_accept(shared, stream, "connection limit reached");
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        shared.metrics.admitted.fetch_add(1, Ordering::Relaxed);
        shared.metrics.conn_opened();
        let shard = &shared.shards[next_shard];
        next_shard = (next_shard + 1) % shared.shards.len();
        shard.inbox.lock().expect("inbox poisoned").push(stream);
        shard.waker.wake();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.jobs.lock().expect("jobs poisoned");
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(j) = q.pop_front() {
                    shared.metrics.set_queue_depth(q.len() as u64);
                    break j;
                }
                let (guard, _) = shared
                    .jobs_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .expect("jobs poisoned");
                q = guard;
            }
        };
        let (shard, token, (bytes, next)) = match job {
            Job::Miss {
                shard,
                token,
                req,
                route,
                deadline,
                keep_alive,
            } => {
                let t0 = Instant::now();
                let run = contain_panic(shared, || {
                    run_miss(shared, &req, route, deadline, keep_alive)
                });
                (
                    shard,
                    token,
                    run.unwrap_or_else(|| panicked(shared, route, t0, keep_alive)),
                )
            }
            Job::NextChunk { shard, token, ctx } => {
                // The head went out with the first batch: a panic here
                // can only truncate the body, and the connection closes.
                // The stream context unwinds with the panic (its cache
                // tee too: a truncated body is never cached), so the
                // request's latency is recorded here.
                let (route, t0) = (ctx.route, ctx.t0);
                let run = contain_panic(shared, || produce_chunks(shared, ctx));
                let run = run.unwrap_or_else(|| {
                    shared.metrics.record(route, elapsed_us(t0));
                    (Vec::new(), StreamNext::Abort)
                });
                (shard, token, run)
            }
        };
        let mailbox = &shared.shards[shard];
        mailbox
            .completions
            .lock()
            .expect("completions poisoned")
            .push_back(Completion { token, bytes, next });
        mailbox.waker.wake();
    }
}

/// Run `work`, catching a panic: `None` means it panicked, counted in
/// `ee_serve_panics_total`. The one panic boundary of the server — every
/// handler and body producer runs inside it, on a worker or on an event
/// loop, so a panic costs its own request, never the thread and the
/// requests behind it.
fn contain_panic<T>(shared: &Shared, work: impl FnOnce() -> T) -> Option<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)) {
        Ok(done) => Some(done),
        Err(_) => {
            shared.metrics.panics.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

/// The answer to a request whose handler panicked before any of its
/// response was produced: a 500, with its latency recorded.
fn panicked(shared: &Shared, route: Route, t0: Instant, keep_alive: bool) -> (Vec<u8>, StreamNext) {
    shared.metrics.record(route, elapsed_us(t0));
    (
        serialize_error(500, "internal error", keep_alive),
        StreamNext::Finished,
    )
}

/// Worker-side miss handling: resolve, then serialise.
fn run_miss(
    shared: &Shared,
    req: &Request,
    route: Route,
    deadline: Instant,
    keep_alive: bool,
) -> (Vec<u8>, StreamNext) {
    let t0 = Instant::now();
    let (response, stream_tee) = resolve_miss(shared, req, route, deadline, t0);
    serialize(
        shared, response, stream_tee, route, deadline, t0, keep_alive,
    )
}

/// A bounded head `/query` read run to completion on the event-loop shard
/// that parsed it ([`run_bounded`](crate::router::run_bounded)), filed in the cache and
/// checked against `If-None-Match` as a worker's miss is, then
/// serialised whole: the head, the body as one chunk and the terminator.
/// `None` sends the request to the worker pool instead.
fn run_inline(
    shared: &Shared,
    req: &Request,
    route: Route,
    deadline: Instant,
    keep_alive: bool,
) -> Option<(Vec<u8>, StreamNext)> {
    let t0 = Instant::now();
    let head = shared.state.head_commit();
    let resp = crate::router::run_bounded(&shared.state, req)?;
    let (mut response, mut stream_tee) = file_miss(shared, req, head, resp);
    if elide_if_not_modified(shared, req, &mut response) {
        stream_tee = None;
    }
    let (mut bytes, mut next) = serialize(
        shared, response, stream_tee, route, deadline, t0, keep_alive,
    );
    // The body is in memory: frame the rest of it now rather than park
    // it for a worker.
    while let StreamNext::More(ctx) = next {
        let (more, then) = produce_chunks(shared, ctx);
        bytes.extend_from_slice(&more);
        next = then;
    }
    Some((bytes, next))
}

/// Serialise a resolved response: sized bodies become one complete byte
/// run; streamed bodies yield their head plus the first chunk batch, with
/// the context returned for continuation.
fn serialize(
    shared: &Shared,
    response: Response,
    stream_tee: Option<CacheFill>,
    route: Route,
    deadline: Instant,
    t0: Instant,
    keep_alive: bool,
) -> (Vec<u8>, StreamNext) {
    let mut bytes = response.head_bytes(keep_alive);
    match response.body {
        Body::Streamed(body) => {
            let ctx = StreamCtx {
                body,
                tee: stream_tee,
                deadline,
                route,
                t0,
                first_chunk: true,
            };
            let (chunks, next) = produce_chunks(shared, ctx);
            bytes.extend_from_slice(&chunks);
            (bytes, next)
        }
        sized => {
            let b = sized.as_full().expect("non-streamed bodies are sized");
            shared.metrics.record_ttfb(route, elapsed_us(t0));
            shared.metrics.add_bytes_sent(b.len() as u64);
            bytes.extend_from_slice(b);
            (bytes, StreamNext::Finished)
        }
    }
}

/// Pull body chunks until the batch budget fills, the stream ends, or
/// the deadline expires. Records TTFB, bytes sent and (once the stream
/// is over) latency, tees cacheable bodies, and aborts between chunks
/// once the deadline passes (the peer sees a truncated chunked body,
/// never a stalled worker).
fn produce_chunks(shared: &Shared, mut ctx: StreamCtx) -> (Vec<u8>, StreamNext) {
    let mut out = Vec::new();
    let max_tee = shared.cache.max_entry_bytes();
    let end = loop {
        if Instant::now() >= ctx.deadline {
            shared
                .metrics
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            break StreamNext::Abort;
        }
        match ctx.body.next_chunk() {
            Err(_) => break StreamNext::Abort,
            Ok(None) => {
                out.extend_from_slice(CHUNK_TERMINATOR);
                if let Some(tee) = ctx.tee.take() {
                    tee.insert(&shared.cache);
                }
                break StreamNext::Finished;
            }
            Ok(Some(chunk)) => {
                if chunk.is_empty() {
                    continue; // an empty chunk would mean "end of body"
                }
                if ctx.first_chunk {
                    ctx.first_chunk = false;
                    shared.metrics.record_ttfb(ctx.route, elapsed_us(ctx.t0));
                }
                shared.metrics.add_bytes_sent(chunk.len() as u64);
                if let Some(tee) = ctx.tee.as_mut() {
                    tee.absorb(chunk, max_tee, &shared.metrics);
                }
                frame_chunk(chunk, &mut out);
                if out.len() >= CHUNK_BATCH_BYTES {
                    return (out, StreamNext::More(ctx));
                }
            }
        }
    };
    ctx.record_latency(&shared.metrics);
    (out, end)
}

/// Where a connection's state machine stands.
enum Phase {
    /// Between requests (or reading one): the shard may dispatch the
    /// next complete request.
    Idle,
    /// A job (`Miss` or `NextChunk`) is at the workers.
    Busy,
    /// A streamed body is parked here, waiting for the send queue to
    /// drain before the next chunk batch is requested.
    StreamWait(StreamCtx),
}

/// One nonblocking connection owned by an event-loop shard.
struct EventConn {
    stream: TcpStream,
    seq: u64,
    parser: RequestParser,
    send: SendBuf,
    phase: Phase,
    /// Route holding one of this connection's in-flight quota slots.
    inflight_route: Option<Route>,
    last_activity: Instant,
    /// Set while a partial request sits in the parser: the slow-loris
    /// budget. Cleared on dispatch or when the parser drains.
    read_deadline: Option<Instant>,
    served: usize,
    /// Consecutive requests dispatched while further request bytes were
    /// already buffered behind them; resets whenever the parser drains.
    pipeline_depth: usize,
    /// Peer half-closed its write side (EOF on read).
    eof: bool,
    /// Close once the send queue drains (response bodies flushed): set
    /// when a request that will not keep the connection is dispatched,
    /// when a refusal closes it, or at the peer's EOF.
    close_after_flush: bool,
}

impl EventConn {
    /// End the exchange in flight — a hit or refusal answered on the
    /// shard, or a worker's last bytes: release its quota slot and go
    /// back to `Idle`, where [`Shard::flush`] closes the connection if
    /// it was told to, or dispatches the next request.
    fn end_exchange(&mut self, shared: &Shared) {
        if let Some(route) = self.inflight_route.take() {
            shared.release_route(route);
        }
        self.phase = Phase::Idle;
        self.last_activity = Instant::now();
    }
}

struct Shard<'a> {
    shared: &'a Shared,
    id: usize,
    wake: WakePipe,
    conns: Vec<Option<EventConn>>,
    free: Vec<usize>,
    next_seq: u64,
}

impl<'a> Shard<'a> {
    fn new(shared: &'a Shared, id: usize, wake: WakePipe) -> Shard<'a> {
        Shard {
            shared,
            id,
            wake,
            conns: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    fn run(mut self) {
        let mut pollset: Vec<PollFd> = Vec::new();
        let mut slots: Vec<usize> = Vec::new();
        let mut last_sweep = Instant::now();
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                return; // conns drop → sockets close
            }
            self.drain_inbox();
            self.drain_completions();

            pollset.clear();
            slots.clear();
            pollset.push(PollFd::new(self.wake.poll_fd(), POLLIN));
            slots.push(usize::MAX);
            for (slot, conn) in self.conns.iter().enumerate() {
                let Some(c) = conn else { continue };
                let mut events = 0i16;
                if !c.eof {
                    events |= POLLIN;
                }
                if !c.send.is_empty() {
                    events |= POLLOUT;
                }
                if events != 0 {
                    pollset.push(PollFd::new(raw_fd(&c.stream), events));
                    slots.push(slot);
                }
            }
            let n = match poll_fds(&mut pollset, SWEEP_INTERVAL.as_millis() as i32) {
                Ok(n) => n,
                Err(_) => continue,
            };
            if n > 0 {
                if pollset[0].ready(POLLIN) {
                    self.wake.drain();
                }
                for i in 1..pollset.len() {
                    let pfd = pollset[i];
                    if pfd.revents == 0 {
                        continue;
                    }
                    let slot = slots[i];
                    if pfd.ready(POLLIN) {
                        self.handle_readable(slot);
                    }
                    if self.conns[slot].is_some() && pfd.ready(POLLOUT) {
                        self.flush(slot);
                    }
                    if let Some(c) = &self.conns[slot] {
                        // Error/hangup with nothing actionable above:
                        // the peer is gone.
                        if pfd.failed() && c.send.is_empty() && !pfd.ready(POLLIN) {
                            self.close(slot);
                        }
                    }
                }
            }
            let now = Instant::now();
            if now.duration_since(last_sweep) >= SWEEP_INTERVAL {
                last_sweep = now;
                self.sweep(now);
            }
        }
    }

    fn alloc_slot(&mut self) -> usize {
        if let Some(s) = self.free.pop() {
            s
        } else {
            self.conns.push(None);
            self.conns.len() - 1
        }
    }

    fn drain_inbox(&mut self) {
        let fresh = {
            let mut inbox = self.shared.shards[self.id]
                .inbox
                .lock()
                .expect("inbox poisoned");
            std::mem::take(&mut *inbox)
        };
        for stream in fresh {
            let slot = self.alloc_slot();
            self.next_seq += 1;
            let now = Instant::now();
            self.conns[slot] = Some(EventConn {
                stream,
                seq: self.next_seq,
                parser: RequestParser::new(),
                send: SendBuf::new(),
                phase: Phase::Idle,
                inflight_route: None,
                last_activity: now,
                read_deadline: None,
                served: 0,
                pipeline_depth: 0,
                eof: false,
                close_after_flush: false,
            });
            // The client may already have sent its request.
            self.handle_readable(slot);
        }
    }

    fn drain_completions(&mut self) {
        loop {
            let completion = {
                let mut q = self.shared.shards[self.id]
                    .completions
                    .lock()
                    .expect("completions poisoned");
                q.pop_front()
            };
            let Some(c) = completion else { return };
            self.apply_completion(c);
        }
    }

    fn apply_completion(&mut self, completion: Completion) {
        let Completion { token, bytes, next } = completion;
        let (slot, seq) = token;
        let Some(conn) = self.conns[slot].as_mut().filter(|c| c.seq == seq) else {
            // The connection died while the job ran; dropping the
            // completion drops any stream context (and its engine
            // cursors) with it. The quota slot was released at close.
            if let StreamNext::More(ctx) = &next {
                ctx.record_latency(&self.shared.metrics);
            }
            return;
        };
        conn.last_activity = Instant::now();
        conn.send.push(&bytes);
        match next {
            StreamNext::More(ctx) => conn.phase = Phase::StreamWait(ctx),
            StreamNext::Finished => conn.end_exchange(self.shared),
            StreamNext::Abort => {
                // Truncated chunked body: flush what was produced, then
                // close — never reuse.
                conn.close_after_flush = true;
                conn.end_exchange(self.shared);
            }
        }
        // Push bytes out (and pump / dispatch / close as the new state
        // allows) without waiting for the next poll round.
        self.flush(slot);
    }

    /// Drive the send queue; on drain, advance whatever the connection
    /// was waiting on (next chunk batch, next pipelined request, close).
    fn flush(&mut self, slot: usize) {
        let drained = {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            let EventConn { stream, send, .. } = conn;
            match send.write_some(stream) {
                Ok(d) => d,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        };
        if !drained {
            return; // POLLOUT re-arms on the next loop iteration
        }
        let conn = self.conns[slot].as_mut().expect("checked above");
        if matches!(conn.phase, Phase::StreamWait(_)) {
            let Phase::StreamWait(ctx) = std::mem::replace(&mut conn.phase, Phase::Busy) else {
                unreachable!()
            };
            let token = (slot, conn.seq);
            // No watermark: the stream's request was admitted already.
            let job = Job::NextChunk {
                shard: self.id,
                token,
                ctx,
            };
            self.shared.try_push_job(job, usize::MAX);
            return;
        }
        if matches!(conn.phase, Phase::Idle) {
            if conn.close_after_flush {
                self.close(slot);
                return;
            }
            if conn.eof && conn.parser.is_idle() {
                self.close(slot);
                return;
            }
            self.try_dispatch(slot);
        }
    }

    fn handle_readable(&mut self, slot: usize) {
        let mut buf = [0u8; 16 * 1024];
        let mut total = 0usize;
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.eof = true;
                    if matches!(conn.phase, Phase::Idle)
                        && conn.parser.is_idle()
                        && conn.send.is_empty()
                    {
                        self.close(slot);
                    } else {
                        // Finish the response in flight, then close.
                        conn.close_after_flush = true;
                    }
                    return;
                }
                Ok(n) => {
                    let was_idle = conn.parser.is_idle();
                    conn.parser.feed(&buf[..n]);
                    conn.last_activity = Instant::now();
                    if was_idle {
                        conn.read_deadline =
                            Some(Instant::now() + self.shared.config.deadline);
                    }
                    total += n;
                    if total >= READ_QUANTUM {
                        break;
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        let can_dispatch = matches!(
            self.conns[slot].as_ref().map(|c| &c.phase),
            Some(Phase::Idle)
        );
        if can_dispatch {
            self.try_dispatch(slot);
        }
    }

    /// Parse-and-dispatch loop while the connection is idle: refuses
    /// bad requests, sheds past the pipelining cap, at per-route quotas
    /// and at the dispatch-queue watermark, answers cache hits directly,
    /// and hands the rest to the worker pool.
    fn try_dispatch(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if !matches!(conn.phase, Phase::Idle) || conn.close_after_flush {
                return;
            }
            let parsed = conn.parser.poll_request();
            let req = match parsed {
                Ok(Some(r)) => r,
                Ok(None) => {
                    if conn.parser.is_idle() {
                        conn.read_deadline = None;
                    }
                    return;
                }
                Err(e) => {
                    self.shared
                        .metrics
                        .bad_requests
                        .fetch_add(1, Ordering::Relaxed);
                    let (status, msg) = match e {
                        RequestError::BodyTooLarge(_) => (413, "body too large".to_string()),
                        RequestError::Malformed(m) => (400, m),
                    };
                    self.refuse(slot, status, &msg, false);
                    return;
                }
            };
            // Pipelining cap: every request dispatched while the parser
            // still holds buffered bytes deepens the backlog this
            // connection asks the server to carry. A well-behaved client
            // drains responses and the parser goes idle between
            // requests, resetting the depth; one that streams requests
            // blind is shed with 503 and closed once it exceeds the cap
            // (its remaining buffered requests are dropped with it).
            if conn.parser.is_idle() {
                conn.pipeline_depth = 0;
            } else {
                conn.pipeline_depth += 1;
                if conn.pipeline_depth > self.shared.config.max_pipeline_depth {
                    self.shared
                        .metrics
                        .pipeline_capped
                        .fetch_add(1, Ordering::Relaxed);
                    self.refuse(slot, 503, "pipeline depth exceeded", false);
                    return;
                }
            }

            // Deadline from when this request's bytes started arriving
            // (the stamp the reader left in `read_deadline`), not from
            // accept: a keep-alive connection may sit parked for minutes
            // before its first request, and that idle time is the
            // client's to spend, not service time. Requests parsed while
            // an earlier one was in flight keep their arrival stamp, so
            // head-of-line queueing does count against the budget.
            let deadline = conn
                .read_deadline
                .take()
                .unwrap_or_else(|| Instant::now() + self.shared.config.deadline);
            conn.served += 1;
            let keep_alive = req.wants_keep_alive()
                && conn.served < self.shared.config.max_requests_per_conn;
            // A request that will not keep its connection is the last
            // one dispatched on it: this stops the loop once it is
            // answered, and `flush` closes the connection.
            conn.close_after_flush |= !keep_alive;

            // Per-route quota: shed the request, keep the connection.
            let route = classify(&req.path);
            if !self.shared.acquire_route(route) {
                self.shared.metrics.record_route_shed(route);
                self.refuse(slot, 503, "route quota exhausted", keep_alive);
                return;
            }
            conn.inflight_route = Some(route);

            // Cache hits (and requests already past their deadline) are
            // answered here, and so are bounded head `/query` reads: no
            // job queue, no worker, no completion mailbox or wake pipe.
            let shared = self.shared;
            let t0 = Instant::now();
            let answered = if let Some(response) = lookup(shared, &req, route, deadline, t0) {
                conn.send.push_response(&response, keep_alive);
                let body_len = response.body.as_full().map_or(0, <[u8]>::len);
                shared.metrics.record_ttfb(route, elapsed_us(t0));
                shared.metrics.add_bytes_sent(body_len as u64);
                true
            } else if route == Route::Query {
                let inline = contain_panic(shared, || {
                    run_inline(shared, &req, route, deadline, keep_alive)
                })
                .unwrap_or_else(|| Some(panicked(shared, route, t0, keep_alive)));
                match inline {
                    Some((bytes, next)) => {
                        shared.metrics.query_inline.fetch_add(1, Ordering::Relaxed);
                        conn.send.push(&bytes);
                        // A truncated body (deadline) closes the connection.
                        conn.close_after_flush |= matches!(next, StreamNext::Abort);
                        true
                    }
                    None => false,
                }
            } else {
                false
            };
            if answered {
                conn.end_exchange(shared);
                // Parse the next pipelined request only once this
                // response has left, so a connection queues at most one
                // response, as with worker completions.
                let EventConn { stream, send, .. } = &mut *conn;
                match send.write_some(stream) {
                    Ok(true) if !conn.close_after_flush => continue,
                    Ok(false) => return, // POLLOUT → flush → try_dispatch
                    Ok(true) | Err(_) => {
                        self.close(slot);
                        return;
                    }
                }
            }

            // Dispatch-queue watermark: guards the worker queue, so only
            // requests entering it are shed.
            let job = Job::Miss {
                shard: self.id,
                token: (slot, conn.seq),
                req: Box::new(req),
                route,
                deadline,
                keep_alive,
            };
            if !shared.try_push_job(job, shared.config.queue_watermark) {
                shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                self.refuse(slot, 503, "admission queue full", false);
                return;
            }
            if route == Route::Query {
                shared
                    .metrics
                    .query_deferred
                    .fetch_add(1, Ordering::Relaxed);
            }
            conn.phase = Phase::Busy;
            return;
        }
    }

    /// The one refusal path: answer the request at hand with an error
    /// (503s advertise `Retry-After`) and end its exchange. Unless
    /// `keep_alive`, the connection closes once the error is flushed;
    /// otherwise the next pipelined request is dispatched.
    fn refuse(&mut self, slot: usize, status: u16, msg: &str, keep_alive: bool) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        conn.send.push(&serialize_error(status, msg, keep_alive));
        conn.close_after_flush |= !keep_alive;
        conn.end_exchange(self.shared);
        self.flush(slot);
    }

    /// Timer pass: reap idle keep-alive connections and stuck partial
    /// request heads (slow loris).
    fn sweep(&mut self, now: Instant) {
        let idle_timeout = self.shared.config.idle_timeout;
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            let idle_phase = matches!(conn.phase, Phase::Idle);
            if idle_phase && conn.read_deadline.is_some_and(|rd| now >= rd) {
                // A request head (or body) stalled mid-read past the
                // request deadline: answer 408 and close. (Bytes queued
                // behind an exchange in flight wait for it to end; a
                // request dispatched past its deadline is answered 504.)
                conn.read_deadline = None;
                self.shared
                    .metrics
                    .bad_requests
                    .fetch_add(1, Ordering::Relaxed);
                self.refuse(slot, 408, "request read timed out", false);
                continue;
            }
            let idle = idle_phase
                && conn.parser.is_idle()
                && conn.send.is_empty()
                && !conn.close_after_flush;
            if idle && now.duration_since(conn.last_activity) >= idle_timeout {
                self.shared
                    .metrics
                    .idle_reaped
                    .fetch_add(1, Ordering::Relaxed);
                self.close(slot);
            }
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            if let Some(route) = conn.inflight_route {
                self.shared.release_route(route);
            }
            if let Phase::StreamWait(ctx) = &conn.phase {
                ctx.record_latency(&self.shared.metrics);
            }
            self.shared.metrics.conn_closed();
            self.free.push(slot);
            // conn (stream, parser buffers, parked stream ctx) drops here.
        }
    }
}

/// Serialise a full error response (head + sized body) for direct
/// enqueueing by a shard or the acceptor. Every 503 advertises
/// `Retry-After: 1`.
fn serialize_error(status: u16, msg: &str, keep_alive: bool) -> Vec<u8> {
    let mut resp = Response::error(status, msg);
    if status == 503 {
        resp = resp.with_header("retry-after", "1");
    }
    let mut bytes = resp.head_bytes(keep_alive);
    bytes.extend_from_slice(resp.body.as_full().expect("error bodies are sized"));
    bytes
}

fn raw_fd(stream: &TcpStream) -> i32 {
    use std::os::fd::AsRawFd;
    stream.as_raw_fd()
}

#[cfg(test)]
mod tests {
    // The server is exercised end-to-end over real sockets in
    // `tests/server.rs` and `tests/event.rs`; unit tests here stay
    // within module seams.
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let c = ServerConfig::default();
        assert!(c.workers >= 1);
        assert!(c.queue_watermark > 0);
        assert!(c.deadline > Duration::ZERO);
        assert!(c.event_shards >= 1);
        assert!(c.max_connections > 0);
        assert!(c.route_quota > 0);
    }

    /// A bounded head read that finds the store's write guard held is
    /// deferred to the worker pool, never waited on by the event loop: a
    /// cache hit on the same shard is answered meanwhile, and the read
    /// is answered once the guard drops.
    #[test]
    fn inline_reads_never_wait_on_the_store_lock() {
        use crate::http::read_response;
        use crate::state::DataConfig;
        use std::io::BufReader;
        let state = Arc::new(AppState::build(DataConfig::tiny()));
        let config = ServerConfig {
            workers: 1,
            event_shards: 1,
            deadline: Duration::from_secs(60),
            ..ServerConfig::default()
        };
        let server = start(config, Arc::clone(&state)).expect("start");
        let metrics = server.metrics();
        let connect = || {
            let s = TcpStream::connect(server.addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let r = BufReader::new(s.try_clone().unwrap());
            (s, r)
        };
        let get = |s: &mut TcpStream, target: &str| {
            write!(s, "GET {target} HTTP/1.1\r\nhost: t\r\n\r\n").unwrap();
        };
        let (mut h, mut hr) = connect();
        get(&mut h, "/tiles/0/0/0");
        assert_eq!(read_response(&mut hr).unwrap().status, 200);

        let guard = state.lock_store_exclusive();
        let (mut q, mut qr) = connect();
        get(&mut q, "/query?x0=10&y0=10&side=10");
        let t0 = Instant::now();
        while metrics.query_deferred.load(Ordering::SeqCst) == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "the read was never deferred"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        get(&mut h, "/tiles/0/0/0");
        let hit = read_response(&mut hr).expect("the hit is answered");
        assert_eq!(hit.header("x-cache"), Some("HIT"));
        q.set_nonblocking(true).unwrap();
        let pending = q.peek(&mut [0u8; 1]);
        assert!(
            matches!(&pending, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
            "{pending:?}"
        );
        q.set_nonblocking(false).unwrap();
        drop(guard);
        let read = read_response(&mut qr).expect("the read is answered");
        assert_eq!(read.status, 200);
        assert_eq!(read.header("x-cache"), Some("MISS"));
        assert_eq!(metrics.query_inline.load(Ordering::SeqCst), 0);
        // With the lock free, the same shape runs on the shard.
        get(&mut q, "/query?x0=20&y0=20&side=10");
        assert_eq!(read_response(&mut qr).unwrap().status, 200);
        assert_eq!(metrics.query_inline.load(Ordering::SeqCst), 1);
        server.shutdown();
    }

    #[test]
    fn serialized_errors_match_the_blocking_writer() {
        let mut resp = Response::error(503, "x").with_header("retry-after", "1");
        let mut wire = Vec::new();
        resp.write_to(&mut wire, false).unwrap();
        assert_eq!(serialize_error(503, "x", false), wire);
        // Only 503s advertise a retry.
        let mut resp = Response::error(408, "y");
        let mut wire = Vec::new();
        resp.write_to(&mut wire, true).unwrap();
        assert_eq!(serialize_error(408, "y", true), wire);
    }
}
