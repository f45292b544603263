//! Serving-tier metrics: atomic counters, queue-depth gauges and
//! log-scaled latency histograms, exported in Prometheus text format at
//! `/metrics`.
//!
//! Everything is lock-free (`AtomicU64` with relaxed ordering — the
//! counters are statistics, not synchronisation), so recording on the
//! request hot path costs a handful of uncontended atomic adds.

use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram bucket count: powers of two of microseconds, 1 µs … ~33 s,
/// plus an overflow bucket.
pub const BUCKETS: usize = 26;

/// A fixed-bucket latency histogram over microseconds.
///
/// Bucket `i` counts samples with `value_us < 2^(i+1)` (and ≥ `2^i` for
/// i > 0); the last bucket absorbs everything larger. Quantiles are
/// answered with the bucket upper bound — a ≤2× overestimate, which is
/// the right direction to err for tail-latency reporting.
#[derive(Debug, Default)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(us: u64) -> usize {
        ((64 - us.max(1).leading_zeros()) as usize - 1).min(BUCKETS - 1)
    }

    /// Upper bound (µs) of bucket `i`.
    pub fn bucket_bound(i: usize) -> u64 {
        1u64 << (i + 1)
    }

    /// Record one latency sample.
    pub fn record_us(&self, us: u64) {
        self.counts[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us() as f64 / n as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`, as the upper bound of the
    /// bucket where the cumulative count crosses `q·total`. 0 when empty.
    #[cfg(test)]
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for i in 0..BUCKETS {
            cum += self.counts[i].load(Ordering::Relaxed);
            if cum >= target {
                return Self::bucket_bound(i);
            }
        }
        Self::bucket_bound(BUCKETS - 1)
    }

    /// Snapshot of per-bucket counts.
    pub fn snapshot(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed))
    }
}

/// Route classes tracked separately in the metrics (path templates, not
/// concrete paths, so cardinality stays fixed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `/query` — RDF BGP selection.
    Query,
    /// `POST /update` — SPARQL UPDATE against the point store.
    Update,
    /// `/catalogue/search`.
    Catalogue,
    /// `/tiles/{level}/{row}/{col}`.
    Tiles,
    /// `/ice/{region}`.
    Ice,
    /// `/healthz`.
    Healthz,
    /// `/metrics`.
    Metrics,
    /// `/debug/*` (test-only routes).
    Debug,
    /// Anything unrecognised (404s).
    Other,
}

/// All routes, for iteration.
pub const ROUTES: [Route; 9] = [
    Route::Query,
    Route::Update,
    Route::Catalogue,
    Route::Tiles,
    Route::Ice,
    Route::Healthz,
    Route::Metrics,
    Route::Debug,
    Route::Other,
];

impl Route {
    /// Stable label used in metric names and reports.
    pub fn label(self) -> &'static str {
        match self {
            Route::Query => "query",
            Route::Update => "update",
            Route::Catalogue => "catalogue",
            Route::Tiles => "tiles",
            Route::Ice => "ice",
            Route::Healthz => "healthz",
            Route::Metrics => "metrics",
            Route::Debug => "debug",
            Route::Other => "other",
        }
    }

    fn index(self) -> usize {
        ROUTES.iter().position(|r| *r == self).expect("in ROUTES")
    }
}

/// Append one Prometheus histogram family to `out`: a `# HELP`/`# TYPE`
/// header, then per-series cumulative buckets plus `_sum`/`_count` lines
/// labelled `{label_name="<series>"}`. Series with no samples are
/// skipped (their label would otherwise add dead cardinality), and empty
/// buckets are elided except the final `+Inf`-equivalent one, matching
/// what [`Metrics::render_prometheus`] always emitted.
pub fn render_histogram_family<'a>(
    out: &mut String,
    name: &str,
    help: &str,
    label_name: &str,
    series: impl IntoIterator<Item = (&'a str, &'a Histogram)>,
) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} histogram\n"
    ));
    for (label, h) in series {
        if h.count() == 0 {
            continue;
        }
        let snap = h.snapshot();
        let mut cum = 0u64;
        for (i, c) in snap.iter().enumerate() {
            cum += c;
            if *c > 0 || i == BUCKETS - 1 {
                out.push_str(&format!(
                    "{name}_bucket{{{label_name}=\"{label}\",le=\"{}\"}} {cum}\n",
                    Histogram::bucket_bound(i),
                ));
            }
        }
        out.push_str(&format!(
            "{name}_sum{{{label_name}=\"{label}\"}} {}\n\
             {name}_count{{{label_name}=\"{label}\"}} {}\n",
            h.sum_us(),
            h.count()
        ));
    }
}

/// All serving-tier metrics.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Connections admitted past the max-connections cap.
    pub admitted: AtomicU64,
    /// 503s from accept-time shedding and the dispatch-queue watermark.
    pub rejected: AtomicU64,
    /// Requests that exceeded their deadline (504).
    pub deadline_expired: AtomicU64,
    /// Requests answered (any status).
    pub handled: AtomicU64,
    /// Malformed requests answered 4xx.
    pub bad_requests: AtomicU64,
    /// Requests shed with 503 at the per-connection pipelining cap.
    pub pipeline_capped: AtomicU64,
    /// Conditional requests answered 304 Not Modified (`If-None-Match`
    /// matched the response's ETag, so the body was elided).
    pub not_modified: AtomicU64,
    /// Current dispatch-queue depth (jobs awaiting a worker).
    pub queue_depth: AtomicU64,
    /// High-water mark of the dispatch queue.
    pub queue_peak: AtomicU64,
    /// Body bytes written to peers (chunk framing overhead excluded).
    pub bytes_sent: AtomicU64,
    /// Streamed bodies that outgrew the cache's per-entry byte cap and
    /// were served uncached.
    pub stream_uncacheable: AtomicU64,
    /// `accept(2)` failures (fd exhaustion and friends) — each one also
    /// costs the acceptor a short backoff sleep.
    pub accept_errors: AtomicU64,
    /// Keep-alive connections reaped by the idle timeout.
    pub idle_reaped: AtomicU64,
    /// Connections currently open in the event loop.
    pub open_connections: AtomicU64,
    /// High-water mark of open event-loop connections.
    pub open_peak: AtomicU64,
    per_route_shed: [AtomicU64; ROUTES.len()],
    per_route_requests: [AtomicU64; ROUTES.len()],
    per_route_latency: [Histogram; ROUTES.len()],
    per_route_ttfb: [Histogram; ROUTES.len()],
    /// Panics caught in a handler or body producer (answered 500, or the
    /// streamed body truncated).
    pub panics: AtomicU64,
    /// `/query` cache misses run to completion on the event-loop shard
    /// that parsed them (bounded head reads).
    pub query_inline: AtomicU64,
    /// `/query` cache misses sent to the worker pool.
    pub query_deferred: AtomicU64,
}

impl Metrics {
    /// Create zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed request on `route` with its latency.
    pub fn record(&self, route: Route, latency_us: u64) {
        self.per_route_requests[route.index()].fetch_add(1, Ordering::Relaxed);
        self.per_route_latency[route.index()].record_us(latency_us);
        self.handled.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests seen on a route.
    pub fn route_requests(&self, route: Route) -> u64 {
        self.per_route_requests[route.index()].load(Ordering::Relaxed)
    }

    /// Latency histogram of a route.
    pub fn route_latency(&self, route: Route) -> &Histogram {
        &self.per_route_latency[route.index()]
    }

    /// Record time-to-first-byte for a request on `route` (measured from
    /// request start to the first body chunk hitting the socket).
    pub fn record_ttfb(&self, route: Route, ttfb_us: u64) {
        self.per_route_ttfb[route.index()].record_us(ttfb_us);
    }

    /// Time-to-first-byte histogram of a route.
    pub fn route_ttfb(&self, route: Route) -> &Histogram {
        &self.per_route_ttfb[route.index()]
    }

    /// Count body bytes written to a peer.
    pub fn add_bytes_sent(&self, n: u64) {
        self.bytes_sent.fetch_add(n, Ordering::Relaxed);
    }

    /// Update the queue-depth gauge (called with the depth after a
    /// push/pop) and track the peak.
    pub fn set_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Count a request shed with 503 because its route's in-flight quota
    /// was exhausted.
    pub fn record_route_shed(&self, route: Route) {
        self.per_route_shed[route.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Requests shed on a route by its quota.
    pub fn route_shed(&self, route: Route) -> u64 {
        self.per_route_shed[route.index()].load(Ordering::Relaxed)
    }

    /// A connection opened in the event loop: bump the gauge + peak.
    pub fn conn_opened(&self) {
        let now = self.open_connections.fetch_add(1, Ordering::Relaxed) + 1;
        self.open_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// A connection closed in the event loop.
    pub fn conn_closed(&self) {
        self.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Render everything in Prometheus text exposition format. Cache
    /// statistics come from the caller so the metrics type stays
    /// decoupled from the cache type.
    pub fn render_prometheus(
        &self,
        cache_hits: u64,
        cache_misses: u64,
        cache_len: usize,
    ) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "# HELP ee_serve_open_connections Connections currently open in the event loop\n\
             # TYPE ee_serve_open_connections gauge\nee_serve_open_connections {}\n",
            self.open_connections.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "# HELP ee_serve_open_connections_peak High-water mark of open connections\n\
             # TYPE ee_serve_open_connections_peak gauge\nee_serve_open_connections_peak {}\n",
            self.open_peak.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP ee_serve_route_shed_total Requests shed 503 by per-route quotas\n\
             # TYPE ee_serve_route_shed_total counter\n",
        );
        for r in ROUTES {
            out.push_str(&format!(
                "ee_serve_route_shed_total{{route=\"{}\"}} {}\n",
                r.label(),
                self.route_shed(r)
            ));
        }
        let mut counter = |name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        };
        counter(
            "ee_serve_connections_admitted_total",
            "Connections admitted past the max-connections cap",
            self.admitted.load(Ordering::Relaxed),
        );
        counter(
            "ee_serve_connections_rejected_total",
            "503s at accept (connection cap) or at the dispatch-queue watermark",
            self.rejected.load(Ordering::Relaxed),
        );
        counter(
            "ee_serve_deadline_expired_total",
            "Requests past their deadline (504)",
            self.deadline_expired.load(Ordering::Relaxed),
        );
        counter(
            "ee_serve_requests_total",
            "Requests answered",
            self.handled.load(Ordering::Relaxed),
        );
        counter(
            "ee_serve_bad_requests_total",
            "Malformed requests answered 4xx",
            self.bad_requests.load(Ordering::Relaxed),
        );
        counter(
            "ee_serve_pipeline_capped_total",
            "Requests shed with 503 at the per-connection pipelining cap",
            self.pipeline_capped.load(Ordering::Relaxed),
        );
        counter(
            "ee_serve_not_modified_total",
            "Conditional requests answered 304 Not Modified",
            self.not_modified.load(Ordering::Relaxed),
        );
        counter(
            "ee_serve_bytes_sent_total",
            "Response body bytes written to peers",
            self.bytes_sent.load(Ordering::Relaxed),
        );
        counter(
            "ee_serve_stream_uncacheable_total",
            "Streamed bodies too large for the response cache",
            self.stream_uncacheable.load(Ordering::Relaxed),
        );
        counter(
            "ee_serve_accept_errors_total",
            "accept(2) failures (fd exhaustion and friends)",
            self.accept_errors.load(Ordering::Relaxed),
        );
        counter(
            "ee_serve_idle_reaped_total",
            "Keep-alive connections reaped by the idle timeout",
            self.idle_reaped.load(Ordering::Relaxed),
        );
        counter(
            "ee_serve_panics_total",
            "Panics caught in handlers and body producers, each answered 500 or ending its body truncated",
            self.panics.load(Ordering::Relaxed),
        );
        counter("ee_serve_cache_hits_total", "Response cache hits", cache_hits);
        counter(
            "ee_serve_cache_misses_total",
            "Response cache misses",
            cache_misses,
        );
        let hit_rate = if cache_hits + cache_misses == 0 {
            0.0
        } else {
            cache_hits as f64 / (cache_hits + cache_misses) as f64
        };
        out.push_str(&format!(
            "# HELP ee_serve_cache_hit_rate Response cache hit rate\n\
             # TYPE ee_serve_cache_hit_rate gauge\nee_serve_cache_hit_rate {hit_rate}\n"
        ));
        out.push_str(&format!(
            "# HELP ee_serve_cache_entries Response cache entries held\n\
             # TYPE ee_serve_cache_entries gauge\nee_serve_cache_entries {cache_len}\n"
        ));
        out.push_str(&format!(
            "# HELP ee_serve_query_reads_total /query cache misses by where they ran, in requests: \
             path=\"inline\" is a bounded head read run on the event-loop shard that parsed it, \
             path=\"deferred\" one sent to the worker pool\n\
             # TYPE ee_serve_query_reads_total counter\n\
             ee_serve_query_reads_total{{path=\"inline\"}} {}\n\
             ee_serve_query_reads_total{{path=\"deferred\"}} {}\n",
            self.query_inline.load(Ordering::Relaxed),
            self.query_deferred.load(Ordering::Relaxed),
        ));
        out.push_str(&format!(
            "# HELP ee_serve_queue_depth Dispatch queue depth\n\
             # TYPE ee_serve_queue_depth gauge\nee_serve_queue_depth {}\n",
            self.queue_depth.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "# HELP ee_serve_queue_peak Dispatch queue high-water mark\n\
             # TYPE ee_serve_queue_peak gauge\nee_serve_queue_peak {}\n",
            self.queue_peak.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP ee_serve_route_requests_total Requests per route\n\
             # TYPE ee_serve_route_requests_total counter\n",
        );
        for r in ROUTES {
            out.push_str(&format!(
                "ee_serve_route_requests_total{{route=\"{}\"}} {}\n",
                r.label(),
                self.route_requests(r)
            ));
        }
        render_histogram_family(
            &mut out,
            "ee_serve_latency_us",
            "Request latency histogram (µs)",
            "route",
            ROUTES.iter().map(|&r| (r.label(), self.route_latency(r))),
        );
        render_histogram_family(
            &mut out,
            "ee_serve_ttfb_us",
            "Time to first body byte histogram (µs)",
            "route",
            ROUTES.iter().map(|&r| (r.label(), self.route_ttfb(r))),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_assignment_is_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(1024), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let h = Histogram::new();
        for us in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 10_000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile_us(0.5);
        assert!((32..=64).contains(&p50), "p50 bucket bound {p50}");
        let p99 = h.quantile_us(0.99);
        assert!(p99 >= 10_000, "p99 {p99} must cover the outlier");
        assert!(h.mean_us() > 0.0);
        assert_eq!(h.quantile_us(0.0).max(1), h.quantile_us(0.0));
        let empty = Histogram::new();
        assert_eq!(empty.quantile_us(0.99), 0);
    }

    #[test]
    fn metrics_record_and_render() {
        let m = Metrics::new();
        m.record(Route::Query, 120);
        m.record(Route::Query, 80);
        m.record(Route::Tiles, 40);
        m.set_queue_depth(3);
        m.set_queue_depth(1);
        assert_eq!(m.route_requests(Route::Query), 2);
        assert_eq!(m.handled.load(Ordering::Relaxed), 3);
        assert_eq!(m.queue_peak.load(Ordering::Relaxed), 3);
        m.not_modified.fetch_add(2, Ordering::Relaxed);
        m.add_bytes_sent(4096);
        m.stream_uncacheable.fetch_add(1, Ordering::Relaxed);
        m.record_ttfb(Route::Tiles, 15);
        assert_eq!(m.route_ttfb(Route::Tiles).count(), 1);
        m.accept_errors.fetch_add(3, Ordering::Relaxed);
        m.record_route_shed(Route::Query);
        m.conn_opened();
        m.conn_opened();
        m.conn_closed();
        m.idle_reaped.fetch_add(1, Ordering::Relaxed);
        m.pipeline_capped.fetch_add(2, Ordering::Relaxed);
        let text = m.render_prometheus(5, 10, 7);
        assert!(text.contains("ee_serve_accept_errors_total 3"));
        assert!(text.contains("ee_serve_pipeline_capped_total 2"));
        assert!(text.contains("ee_serve_route_shed_total{route=\"query\"} 1"));
        assert!(text.contains("ee_serve_open_connections 1"));
        assert!(text.contains("ee_serve_open_connections_peak 2"));
        assert!(text.contains("ee_serve_idle_reaped_total 1"));
        assert!(text.contains("ee_serve_bytes_sent_total 4096"));
        assert!(text.contains("ee_serve_stream_uncacheable_total 1"));
        assert!(text.contains("ee_serve_ttfb_us_count{route=\"tiles\"} 1"));
        assert!(text.contains("ee_serve_route_requests_total{route=\"query\"} 2"));
        assert!(text.contains("ee_serve_cache_hit_rate 0.333"));
        assert!(text.contains("ee_serve_not_modified_total 2"));
        assert!(text.contains("ee_serve_queue_depth 1"));
        assert!(text.contains("ee_serve_latency_us_count{route=\"query\"} 2"));
        // Prometheus text format: every non-comment line is `name value`
        // or `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "bad line {line:?}");
        }
    }
}
