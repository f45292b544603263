//! Scatter-gather execution over HTTP shard backends.
//!
//! PR 8's federation layer talked to in-process [`crate::Endpoint`]s;
//! this module generalises the source-selection + gather machinery to
//! *real* `ee-serve` shard processes reached over HTTP/1.1. One
//! [`ShardPool`] fronts N backends and drives every in-flight exchange
//! from a single poll loop over [`ee_util::http1::ClientConn`]s (the
//! same readiness model as the event server, applied client-side):
//!
//! * **keep-alive pooling** — completed keep-alive connections return to
//!   a per-shard idle list and are reused by the next scatter; a reused
//!   connection that dies before any response byte past the head arrives
//!   is retried once on a fresh connect (the shard may simply have
//!   restarted between scatters);
//! * **per-shard deadlines** — a shard that does not answer inside
//!   [`ScatterConfig::deadline`] yields `None` for its slot and flips
//!   [`ScatterReport::incomplete`]; the caller surfaces a partial
//!   result, never a hang. Connects count against the deadline too, so
//!   a shard whose accept backlog is full cannot stall the round;
//! * **hedged requests** — once [`ScatterConfig::hedge_after`] has
//!   elapsed, each still-pending shard gets one duplicate request on a
//!   fresh connection; whichever attempt completes first wins and the
//!   loser is discarded. This trims the tail a transiently slow shard
//!   would otherwise impose on every fan-out query.
//!
//! [`select_shards`] is the shard-level analogue of endpoint source
//! selection: queries whose subjects are all constants route to just
//! the owning shards of the subject-hash ring; everything else fans out
//! to all of them.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ee_rdf::parser::{parse_query, PatternTerm};
use ee_rdf::storage::ShardSpec;
use ee_util::http1::{ClientConn, Drive};
use ee_util::poll::{poll_fds, PollFd, POLLIN, POLLOUT};

use crate::FedError;

/// One HTTP shard backend.
#[derive(Debug, Clone)]
pub struct ShardBackend {
    /// Display name (metrics, logs).
    pub name: String,
    /// The shard's listening address.
    pub addr: SocketAddr,
}

/// Tuning for a scatter round.
#[derive(Debug, Clone)]
pub struct ScatterConfig {
    /// Per-shard answer deadline; a miss yields a `None` part.
    pub deadline: Duration,
    /// Elapsed time after which still-pending shards get a hedged
    /// duplicate request on a fresh connection.
    pub hedge_after: Duration,
}

impl Default for ScatterConfig {
    fn default() -> Self {
        ScatterConfig {
            deadline: Duration::from_millis(1500),
            hedge_after: Duration::from_millis(150),
        }
    }
}

/// One shard's completed exchange.
#[derive(Debug, Clone)]
pub struct ShardPart {
    /// Index into the pool's backend list.
    pub shard: usize,
    /// HTTP status of the winning response.
    pub status: u16,
    /// Response headers (lower-cased names), in wire order.
    pub headers: Vec<(String, String)>,
    /// De-chunked response body.
    pub body: Vec<u8>,
    /// Time from scatter start to this shard's completion.
    pub latency: Duration,
    /// The winning response came from a hedged duplicate.
    pub hedged: bool,
}

/// The outcome of one scatter round.
#[derive(Debug, Clone, Default)]
pub struct ScatterReport {
    /// One slot per requested target, in target order; `None` means the
    /// shard failed or missed its deadline.
    pub parts: Vec<Option<ShardPart>>,
    /// Hedged duplicate requests launched.
    pub hedged: u64,
    /// Stale pooled connections retried on a fresh connect.
    pub retried: u64,
    /// True when any slot is `None`.
    pub incomplete: bool,
}

/// Which shards a query must visit, given the subject-hash ring.
///
/// The shard-level analogue of endpoint source selection: when every
/// pattern subject is a constant term, only the owning shards can hold
/// matching triples, so the scatter visits just those. Any variable
/// subject fans out to all shards.
pub fn select_shards(sparql: &str, shard_count: usize) -> Result<Vec<usize>, FedError> {
    let q = parse_query(sparql).map_err(|e| FedError::Parse(e.to_string()))?;
    let spec = ShardSpec::try_new(0, shard_count)
        .ok_or_else(|| FedError::Unsupported("shard count must be >= 1".into()))?;
    let mut owners = HashSet::new();
    for p in &q.patterns {
        match &p.s {
            PatternTerm::Const(t) => {
                owners.insert(spec.owner(t));
            }
            PatternTerm::Var(_) => return Ok((0..shard_count).collect()),
        }
    }
    if owners.is_empty() {
        // No patterns at all — nothing constrains the scatter.
        return Ok((0..shard_count).collect());
    }
    let mut v: Vec<usize> = owners.into_iter().collect();
    v.sort_unstable();
    Ok(v)
}

/// One request to one shard on one connection.
struct Attempt {
    shard: usize,
    slot: usize,
    conn: ClientConn,
    /// Connection came from the idle pool (eligible for one retry).
    reused: bool,
    /// This attempt is the hedged duplicate.
    hedge: bool,
}

/// A pool of keep-alive connections to N shard backends, driving all
/// in-flight exchanges of a scatter from one poll loop.
pub struct ShardPool {
    backends: Vec<ShardBackend>,
    config: ScatterConfig,
    idle: Mutex<Vec<Vec<ClientConn>>>,
}

impl ShardPool {
    /// A pool over `backends` with `config` tuning.
    pub fn new(backends: Vec<ShardBackend>, config: ScatterConfig) -> ShardPool {
        let idle = Mutex::new(backends.iter().map(|_| Vec::new()).collect());
        ShardPool {
            backends,
            config,
            idle,
        }
    }

    /// The backends, in shard-index order.
    pub fn backends(&self) -> &[ShardBackend] {
        &self.backends
    }

    /// Send `request` to every shard in `targets` and gather the
    /// responses. Returns one part per target in target order; slots for
    /// shards that failed or missed the deadline are `None` and flip
    /// `incomplete`. Never blocks past the per-shard deadline: connects
    /// are bounded by what is left of it, and once it passes, one last
    /// zero-wait round collects the answers already on the wire.
    pub fn scatter(&self, request: &[u8], targets: &[usize]) -> ScatterReport {
        let t0 = Instant::now();
        let hedge_at = t0 + self.config.hedge_after;
        let mut round = Round {
            pool: self,
            request,
            t0,
            deadline: t0 + self.config.deadline,
            report: ScatterReport {
                parts: vec![None; targets.len()],
                ..ScatterReport::default()
            },
            retried: vec![false; targets.len()],
            live: Vec::new(),
        };
        for (slot, &shard) in targets.iter().enumerate() {
            if shard >= self.backends.len() {
                continue; // part stays None
            }
            let pooled = self.idle.lock().expect("idle pool lock")[shard].pop();
            match pooled {
                Some(conn) => round.start(Attempt {
                    shard,
                    slot,
                    conn,
                    reused: true,
                    hedge: false,
                }),
                None => {
                    round.open(shard, slot, false);
                }
            }
        }
        let mut hedged = vec![false; targets.len()];
        let mut fds: Vec<PollFd> = Vec::new();
        while !round.live.is_empty() {
            let last = Instant::now() >= round.deadline;
            // Hedge every still-pending shard once the trigger passes.
            if !last && Instant::now() >= hedge_at {
                let pending: Vec<(usize, usize)> = round
                    .live
                    .iter()
                    .filter(|a| !a.hedge && !hedged[a.slot])
                    .map(|a| (a.shard, a.slot))
                    .collect();
                for (shard, slot) in pending {
                    hedged[slot] = true;
                    if round.open(shard, slot, true) {
                        round.report.hedged += 1;
                    }
                }
                // A hedge can complete inside `open`, when the shard has
                // answered before its first read: drop what it settled,
                // or the poll below waits out the slow attempt it beat.
                let parts = &round.report.parts;
                round.live.retain(|a| parts[a.slot].is_none());
                if round.live.is_empty() {
                    break;
                }
            }
            let now = Instant::now();
            let wake = if now < hedge_at {
                hedge_at
            } else {
                round.deadline
            };
            let budget = if last {
                0
            } else {
                wake.saturating_duration_since(now).as_millis().max(1) as i32
            };
            fds.clear();
            fds.extend(round.live.iter().map(|a| a.conn.poll_fd()));
            if poll_fds(&mut fds, budget).is_err() {
                break;
            }
            for (a, fd) in std::mem::take(&mut round.live).into_iter().zip(&fds) {
                if fd.ready(POLLIN | POLLOUT) || fd.failed() {
                    round.step(a);
                } else {
                    round.live.push(a);
                }
            }
            // A slot is settled once a part lands in it; drop its other
            // attempts.
            let parts = &round.report.parts;
            round.live.retain(|a| parts[a.slot].is_none());
            if last {
                break;
            }
        }
        let mut report = round.report;
        report.incomplete = report.parts.iter().any(Option::is_none);
        report
    }

    /// Record a completed attempt and pool its connection if reusable.
    fn finish(&self, mut a: Attempt, t0: Instant, report: &mut ScatterReport) {
        let response = a.conn.take_response();
        report.parts[a.slot] = Some(ShardPart {
            shard: a.shard,
            status: response.status(),
            headers: response.headers().to_vec(),
            body: response.body(),
            latency: t0.elapsed(),
            hedged: a.hedge,
        });
        if a.conn.is_reusable() {
            let mut idle = self.idle.lock().expect("idle pool lock");
            // Bound the idle list: a couple of warm conns per shard is
            // plenty for a router worker.
            if idle[a.shard].len() < 4 {
                idle[a.shard].push(a.conn);
            }
        }
    }
}

/// One scatter round in flight.
struct Round<'a> {
    pool: &'a ShardPool,
    request: &'a [u8],
    t0: Instant,
    deadline: Instant,
    report: ScatterReport,
    /// Per slot: the one stale-connection retry has been spent.
    retried: Vec<bool>,
    /// Attempts still waiting on their socket.
    live: Vec<Attempt>,
}

impl Round<'_> {
    /// Send the request on a new connection to `shard`, connected before
    /// the deadline or not at all; true if it connected.
    fn open(&mut self, shard: usize, slot: usize, hedge: bool) -> bool {
        let budget = self.deadline.saturating_duration_since(Instant::now());
        let Ok(conn) = ClientConn::connect(self.pool.backends[shard].addr, budget) else {
            return false;
        };
        self.start(Attempt {
            shard,
            slot,
            conn,
            reused: false,
            hedge,
        });
        true
    }

    /// Queue the request on `a`'s connection and write it right away.
    fn start(&mut self, mut a: Attempt) {
        a.conn.send(self.request);
        self.step(a);
    }

    /// Drive `a` once and settle it: pending stays live, complete lands
    /// its part, and a pooled connection that died before any body byte
    /// is retried once on a fresh connect (the shard may simply have
    /// restarted between scatters).
    fn step(&mut self, mut a: Attempt) {
        if self.report.parts[a.slot].is_some() {
            return; // a sibling attempt already won this shard
        }
        match a.conn.drive() {
            Drive::Pending => self.live.push(a),
            Drive::Complete(_) => self.pool.finish(a, self.t0, &mut self.report),
            Drive::Dead => {
                if a.reused && !a.conn.response().started_body() && !self.retried[a.slot] {
                    self.retried[a.slot] = true;
                    self.report.retried += 1;
                    self.open(a.shard, a.slot, false);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn canned_shard(body: &'static str, delay: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut conn) = conn else { break };
                std::thread::spawn(move || loop {
                    let mut buf = [0u8; 4096];
                    let n = match conn.read(&mut buf) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => n,
                    };
                    let _ = n;
                    std::thread::sleep(delay);
                    let resp = format!(
                        "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{}",
                        body.len(),
                        body
                    );
                    if conn.write_all(resp.as_bytes()).is_err() {
                        return;
                    }
                });
            }
        });
        addr
    }

    fn pool_of(addrs: &[SocketAddr], config: ScatterConfig) -> ShardPool {
        let backends = addrs
            .iter()
            .enumerate()
            .map(|(i, &addr)| ShardBackend {
                name: format!("shard-{i}"),
                addr,
            })
            .collect();
        ShardPool::new(backends, config)
    }

    const REQ: &[u8] = b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n";

    #[test]
    fn scatter_gathers_every_shard_and_reuses_connections() {
        let addrs = [
            canned_shard("a", Duration::ZERO),
            canned_shard("b", Duration::ZERO),
        ];
        let pool = pool_of(&addrs, ScatterConfig::default());
        let r = pool.scatter(REQ, &[0, 1]);
        assert!(!r.incomplete);
        assert_eq!(r.parts.len(), 2);
        assert_eq!(r.parts[0].as_ref().unwrap().body, b"a");
        assert_eq!(r.parts[1].as_ref().unwrap().body, b"b");
        // Second round reuses the pooled keep-alive conns.
        let r2 = pool.scatter(REQ, &[0, 1]);
        assert!(!r2.incomplete);
        assert_eq!(r2.retried, 0);
    }

    #[test]
    fn down_shard_yields_partial_not_hang() {
        let up = canned_shard("up", Duration::ZERO);
        // Grab an address and immediately close the listener.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let pool = pool_of(&[up, dead], ScatterConfig::default());
        let t0 = Instant::now();
        let r = pool.scatter(REQ, &[0, 1]);
        assert!(r.incomplete);
        assert!(r.parts[0].is_some());
        assert!(r.parts[1].is_none());
        assert!(t0.elapsed() < Duration::from_secs(2), "failed fast, no hang");
    }

    #[test]
    fn slow_shard_is_hedged_and_deadline_bounds_the_round() {
        // A shard whose every response takes far longer than the
        // deadline: hedging fires (counts), deadline still bounds us.
        let slow = canned_shard("slow", Duration::from_millis(500));
        let fast = canned_shard("fast", Duration::ZERO);
        let config = ScatterConfig {
            deadline: Duration::from_millis(250),
            hedge_after: Duration::from_millis(50),
        };
        let pool = pool_of(&[fast, slow], config);
        let t0 = Instant::now();
        let r = pool.scatter(REQ, &[0, 1]);
        assert!(r.parts[0].is_some());
        assert!(r.parts[1].is_none(), "slow shard misses its deadline");
        assert!(r.incomplete);
        assert!(r.hedged >= 1, "pending shard was hedged");
        assert!(t0.elapsed() < Duration::from_millis(600));
    }

    #[test]
    fn restarted_shard_triggers_stale_conn_retry() {
        // First exchange pools a keep-alive conn; then the shard
        // "restarts" (listener dropped, conn closed) and a new one takes
        // over the port. The pooled conn dies before any body byte, so
        // the scatter retries fresh and still answers.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = conn.read(&mut buf).unwrap();
            conn.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nv1")
                .unwrap();
            // Drop conn + listener: the "crash".
        });
        let pool = pool_of(&[addr], ScatterConfig::default());
        let r1 = pool.scatter(REQ, &[0]);
        assert_eq!(r1.parts[0].as_ref().unwrap().body, b"v1");
        h.join().unwrap();
        // Restart on the same port (retry a few times for the kernel to
        // release it; SO_REUSEADDR semantics vary).
        let mut relisten = None;
        for _ in 0..50 {
            match TcpListener::bind(addr) {
                Ok(l) => {
                    relisten = Some(l);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        let listener = relisten.expect("rebind shard port");
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut conn) = conn else { break };
                let mut buf = [0u8; 4096];
                if matches!(conn.read(&mut buf), Ok(0) | Err(_)) {
                    continue;
                }
                let _ = conn.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nv2");
            }
        });
        let r2 = pool.scatter(REQ, &[0]);
        assert!(!r2.incomplete, "retry on fresh connect recovered");
        assert_eq!(r2.parts[0].as_ref().unwrap().body, b"v2");
        assert_eq!(r2.retried, 1);
    }

    #[test]
    fn connect_to_a_full_accept_backlog_is_bounded_by_the_deadline() {
        // A shard that never accepts: once its accept backlog is full, a
        // plain connect blocks for as long as the kernel retries its SYN.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stuck = listener.local_addr().unwrap();
        let mut held = Vec::new();
        while let Ok(s) = TcpStream::connect_timeout(&stuck, Duration::from_millis(100)) {
            held.push(s);
            assert!(held.len() < 4_096, "the accept backlog never filled");
        }
        let up = canned_shard("up", Duration::ZERO);
        let config = ScatterConfig {
            deadline: Duration::from_millis(300),
            hedge_after: Duration::from_millis(100),
        };
        let pool = pool_of(&[up, stuck], config);
        // Scatter on a detached thread, so a round that blocks fails the
        // timeout below instead of hanging the test.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let t0 = Instant::now();
            let r = pool.scatter(REQ, &[0, 1]);
            let _ = tx.send((r, t0.elapsed()));
        });
        let (r, elapsed) = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("scatter blocked on a full accept backlog");
        assert!(r.parts[0].is_some());
        assert!(r.parts[1].is_none());
        assert!(r.incomplete);
        assert!(elapsed < Duration::from_secs(1), "round took {elapsed:?}");
        drop(held);
    }

    #[test]
    fn constant_subjects_route_to_owner_shards_only() {
        let all = select_shards("SELECT ?s WHERE { ?s ?p ?o }", 4).unwrap();
        assert_eq!(all, vec![0, 1, 2, 3]);
        let one = select_shards(
            "SELECT ?o WHERE { <http://e/f1> <http://e/p> ?o }",
            4,
        )
        .unwrap();
        assert_eq!(one.len(), 1);
        let spec = ShardSpec::new(0, 4);
        let owner = spec.owner(&ee_rdf::Term::iri("http://e/f1"));
        assert_eq!(one, vec![owner]);
        assert!(select_shards("nonsense", 4).is_err());
        assert!(select_shards("SELECT ?s WHERE { ?s ?p ?o }", 0).is_err());
    }
}
