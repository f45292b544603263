//! Load generators for the serving tier: a closed-loop thread fleet and
//! an open-loop nonblocking fleet.
//!
//! **Closed loop** ([`run`]): `N` client threads each drive real
//! localhost TCP connections against a running server: issue a request,
//! wait for the full response, record the latency, repeat. Closed-loop
//! means offered load adapts to service rate — exactly the client model
//! behind the E-s0 experiment's concurrency sweep.
//!
//! Two connection modes:
//!
//! * [`ConnMode::PerRequest`] — a fresh connection per request. Every
//!   request passes admission control, so this is the mode that probes
//!   the 503 watermark under overload.
//! * [`ConnMode::KeepAlive`] — one persistent connection per client
//!   reused for all its requests; measures steady-state service latency
//!   (and warm-cache behaviour) without per-connection setup noise.
//!
//! **Open loop** ([`run_open_loop`]): one poll-driven thread holds
//! thousands of concurrent nonblocking keep-alive connections and issues
//! requests at a **fixed arrival rate** spread across the fleet —
//! offered load does *not* adapt to service rate, so queueing delay
//! shows up in the latency numbers instead of silently throttling the
//! generator. This is the C10K client model behind E-c8: a mostly-idle
//! fleet (rate ≪ connections) probing how much memory and tail latency
//! each parked connection costs the server.

use crate::http::{read_response_timed, ClientResponse, HttpError};
use ee_util::http1::ResponseDecoder;
use ee_util::poll::{poll_fds, PollFd, POLLIN, POLLOUT};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How clients manage connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnMode {
    /// Fresh connection per request: every request faces admission.
    PerRequest,
    /// One keep-alive connection per client thread.
    KeepAlive,
}

/// A load-generation plan.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests issued per client.
    pub requests_per_client: usize,
    /// Connection management mode.
    pub mode: ConnMode,
    /// Client-side socket timeout.
    pub timeout: Duration,
}

impl Default for LoadPlan {
    fn default() -> Self {
        LoadPlan {
            clients: 4,
            requests_per_client: 50,
            mode: ConnMode::KeepAlive,
            timeout: Duration::from_secs(10),
        }
    }
}

/// Aggregated results of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// 2xx responses.
    pub ok: u64,
    /// 503 admission rejections.
    pub rejected: u64,
    /// 504 deadline expiries.
    pub expired: u64,
    /// Other HTTP statuses (4xx bugs in the target list, 5xx…).
    pub other: u64,
    /// Transport-level failures (connect refused, timeout, short read).
    pub errors: u64,
    /// `x-cache: HIT` responses among the 2xx.
    pub cache_hits: u64,
    /// Wall-clock for the whole run.
    pub wall: Duration,
    /// Latency percentiles over **successful (2xx) requests**, µs.
    pub p50_us: u64,
    /// 95th percentile latency, µs.
    pub p95_us: u64,
    /// 99th percentile latency, µs.
    pub p99_us: u64,
    /// Mean 2xx latency, µs.
    pub mean_us: u64,
    /// p99 over every *admitted* request (2xx + 504): the bounded-tail
    /// criterion under overload.
    pub admitted_p99_us: u64,
    /// Time-to-first-byte percentiles over 2xx requests, µs: the clock
    /// stops when the response head has been read, before the body
    /// drains. For streamed responses this is the number that chunked
    /// transfer improves — the first tile chunk arrives while the rest
    /// is still being encoded.
    pub ttfb_p50_us: u64,
    /// 95th percentile TTFB, µs.
    pub ttfb_p95_us: u64,
    /// 99th percentile TTFB, µs.
    pub ttfb_p99_us: u64,
}

impl LoadReport {
    /// Completed requests of any status (excludes transport errors).
    pub fn completed(&self) -> u64 {
        self.ok + self.rejected + self.expired + self.other
    }

    /// Successful requests per second over the wall-clock.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ok as f64 / secs
        }
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Issue one request and read its response, returning the response and
/// the time to first byte (until the head was decoded) in microseconds.
fn issue(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    target: &str,
    keep_alive: bool,
) -> Result<(ClientResponse, u64), HttpError> {
    let conn_header = if keep_alive { "keep-alive" } else { "close" };
    let req = format!(
        "GET {target} HTTP/1.1\r\nhost: localhost\r\nconnection: {conn_header}\r\n\r\n"
    );
    let t0 = Instant::now();
    stream.write_all(req.as_bytes()).map_err(HttpError::Io)?;
    stream.flush().map_err(HttpError::Io)?;
    let (resp, head_at) = read_response_timed(reader)?;
    let ttfb_us = head_at
        .duration_since(t0)
        .as_micros()
        .min(u128::from(u64::MAX)) as u64;
    Ok((resp, ttfb_us))
}

/// Run the plan against `addr`, each client cycling through `targets`
/// round-robin (offset by client id so clients don't move in lock-step).
///
/// Panics if `targets` is empty.
pub fn run(addr: SocketAddr, targets: &[String], plan: &LoadPlan) -> LoadReport {
    assert!(!targets.is_empty(), "loadgen needs at least one target");
    let ok = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let expired = AtomicU64::new(0);
    let other = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let cache_hits = AtomicU64::new(0);
    let ok_lat: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let admitted_lat: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let ttfb_lat: Mutex<Vec<u64>> = Mutex::new(Vec::new());

    let t0 = Instant::now();
    ee_util::par::fan_out(plan.clients.max(1), |client| {
        let mut local_ok: Vec<u64> = Vec::with_capacity(plan.requests_per_client);
        let mut local_admitted: Vec<u64> = Vec::with_capacity(plan.requests_per_client);
        let mut local_ttfb: Vec<u64> = Vec::with_capacity(plan.requests_per_client);
        let mut conn: Option<(TcpStream, BufReader<TcpStream>)> = None;
        for i in 0..plan.requests_per_client {
            let target = &targets[(client + i) % targets.len()];
            if conn.is_none() {
                match TcpStream::connect(addr) {
                    Ok(s) => {
                        let _ = s.set_read_timeout(Some(plan.timeout));
                        let _ = s.set_write_timeout(Some(plan.timeout));
                        let _ = s.set_nodelay(true);
                        match s.try_clone() {
                            Ok(r) => conn = Some((s, BufReader::new(r))),
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                        }
                    }
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                }
            }
            let keep_alive = plan.mode == ConnMode::KeepAlive;
            let (stream, reader) = conn.as_mut().expect("connection just established");
            let start = Instant::now();
            let resp = issue(stream, reader, target, keep_alive);
            let us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            match resp {
                Ok((r, ttfb_us)) => {
                    match r.status {
                        200..=299 => {
                            ok.fetch_add(1, Ordering::Relaxed);
                            if r.header("x-cache").is_some_and(|v| v == "HIT") {
                                cache_hits.fetch_add(1, Ordering::Relaxed);
                            }
                            local_ok.push(us);
                            local_admitted.push(us);
                            local_ttfb.push(ttfb_us);
                        }
                        503 => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        504 => {
                            expired.fetch_add(1, Ordering::Relaxed);
                            local_admitted.push(us);
                        }
                        _ => {
                            other.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // The server closes after non-keep-alive exchanges and
                    // after error responses; reconnect next iteration.
                    if !keep_alive || !r.keep_alive {
                        conn = None;
                    }
                }
                Err(_) => {
                    errors.fetch_add(1, Ordering::Relaxed);
                    conn = None;
                }
            }
        }
        ok_lat.lock().expect("latency vec poisoned").extend(local_ok);
        admitted_lat
            .lock()
            .expect("latency vec poisoned")
            .extend(local_admitted);
        ttfb_lat
            .lock()
            .expect("latency vec poisoned")
            .extend(local_ttfb);
    });
    let wall = t0.elapsed();

    let mut ok_lat = ok_lat.into_inner().expect("latency vec poisoned");
    ok_lat.sort_unstable();
    let mut admitted_lat = admitted_lat.into_inner().expect("latency vec poisoned");
    admitted_lat.sort_unstable();
    let mut ttfb_lat = ttfb_lat.into_inner().expect("latency vec poisoned");
    ttfb_lat.sort_unstable();
    let mean_us = if ok_lat.is_empty() {
        0
    } else {
        ok_lat.iter().sum::<u64>() / ok_lat.len() as u64
    };
    LoadReport {
        ok: ok.into_inner(),
        rejected: rejected.into_inner(),
        expired: expired.into_inner(),
        other: other.into_inner(),
        errors: errors.into_inner(),
        cache_hits: cache_hits.into_inner(),
        wall,
        p50_us: percentile(&ok_lat, 0.50),
        p95_us: percentile(&ok_lat, 0.95),
        p99_us: percentile(&ok_lat, 0.99),
        mean_us,
        admitted_p99_us: percentile(&admitted_lat, 0.99),
        ttfb_p50_us: percentile(&ttfb_lat, 0.50),
        ttfb_p95_us: percentile(&ttfb_lat, 0.95),
        ttfb_p99_us: percentile(&ttfb_lat, 0.99),
    }
}

// ---------------------------------------------------------------------
// Open-loop nonblocking fleet
// ---------------------------------------------------------------------

/// Plan for an open-loop run: a fixed fleet of keep-alive connections
/// plus a fixed aggregate request arrival rate.
#[derive(Debug, Clone)]
pub struct OpenLoopPlan {
    /// Connections to hold open for the whole run.
    pub conns: usize,
    /// Aggregate request arrivals per second across the fleet.
    pub rate_per_sec: f64,
    /// Measurement window (in-flight requests get a short grace period
    /// to finish afterwards).
    pub duration: Duration,
    /// Connect retry budget while building the fleet.
    pub timeout: Duration,
}

impl Default for OpenLoopPlan {
    fn default() -> Self {
        OpenLoopPlan {
            conns: 100,
            rate_per_sec: 100.0,
            duration: Duration::from_millis(1_000),
            timeout: Duration::from_secs(5),
        }
    }
}

/// Results of one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Fleet size the plan asked for.
    pub conns_target: usize,
    /// Connections actually established (fd limits, refused connects).
    pub conns_open: usize,
    /// Connections still alive when the run ended.
    pub conns_alive: usize,
    /// Requests issued.
    pub sent: u64,
    /// 2xx responses.
    pub ok: u64,
    /// Non-2xx responses.
    pub other: u64,
    /// Transport failures (close mid-response, malformed framing).
    pub errors: u64,
    /// Arrival ticks skipped because every connection was busy — a
    /// non-zero value means the fleet saturated (closed-loop behaviour
    /// crept in) and latency numbers understate queueing.
    pub missed_ticks: u64,
    /// Latency percentiles over 2xx requests, µs (measured from the
    /// scheduled arrival tick, so server queueing counts).
    pub p50_us: u64,
    /// 95th percentile, µs.
    pub p95_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
    /// Mean 2xx latency, µs.
    pub mean_us: u64,
    /// Wall-clock of the measurement window including the drain grace.
    pub wall: Duration,
}

/// What one open-loop connection is doing.
enum OpenState {
    /// Parked keep-alive connection, available for the next tick.
    Idle,
    /// Writing a request (nonblocking; resumes on POLLOUT).
    Sending {
        buf: Vec<u8>,
        pos: usize,
        t0: Instant,
    },
    /// Reading a response.
    Receiving { dec: ResponseDecoder, t0: Instant },
    /// Closed (server reap, transport error); stays dead for the run.
    Dead,
}

struct OpenConn {
    stream: TcpStream,
    state: OpenState,
}

fn connect_nonblocking(addr: SocketAddr, budget: Duration) -> Option<TcpStream> {
    let t0 = Instant::now();
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                if s.set_nonblocking(true).is_err() {
                    return None;
                }
                return Some(s);
            }
            Err(_) if t0.elapsed() < budget => {
                // Accept backlog full while the fleet ramps: back off.
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return None,
        }
    }
}

/// Run an open-loop fleet against `addr`, requests cycling through
/// `targets`. Single-threaded and poll-driven: the same readiness model
/// the event server uses, applied client-side, so one thread can hold
/// a five-digit connection count.
///
/// Panics if `targets` is empty.
pub fn run_open_loop(
    addr: SocketAddr,
    targets: &[String],
    plan: &OpenLoopPlan,
) -> OpenLoopReport {
    assert!(!targets.is_empty(), "open loop needs at least one target");
    let mut conns: Vec<OpenConn> = Vec::with_capacity(plan.conns);
    for _ in 0..plan.conns {
        let Some(stream) = connect_nonblocking(addr, plan.timeout) else {
            break;
        };
        conns.push(OpenConn {
            stream,
            state: OpenState::Idle,
        });
    }
    let conns_open = conns.len();
    if conns_open == 0 {
        return OpenLoopReport {
            conns_target: plan.conns,
            conns_open: 0,
            conns_alive: 0,
            sent: 0,
            ok: 0,
            other: 0,
            errors: 0,
            missed_ticks: 0,
            p50_us: 0,
            p95_us: 0,
            p99_us: 0,
            mean_us: 0,
            wall: Duration::ZERO,
        };
    }

    let interval_s = 1.0 / plan.rate_per_sec.max(1e-6);
    let mut sent = 0u64;
    let mut missed = 0u64;
    let mut ok = 0u64;
    let mut other = 0u64;
    let mut errors = 0u64;
    let mut lat: Vec<u64> = Vec::new();
    let mut next_idle = 0usize;
    let mut pollset: Vec<PollFd> = Vec::new();
    let mut slots: Vec<usize> = Vec::new();
    let mut target_i = 0usize;

    let t0 = Instant::now();
    let grace = Duration::from_millis(1_000);
    loop {
        let now = Instant::now();
        let in_window = now.duration_since(t0) < plan.duration;
        if !in_window {
            // Drain: stop once nothing is in flight or the grace ends.
            let in_flight = conns
                .iter()
                .any(|c| matches!(c.state, OpenState::Sending { .. } | OpenState::Receiving { .. }));
            if !in_flight || now.duration_since(t0) >= plan.duration + grace {
                break;
            }
        }

        // Fire every arrival tick that is due.
        while in_window
            && t0 + Duration::from_secs_f64((sent + missed) as f64 * interval_s) <= Instant::now()
        {
            let due = t0 + Duration::from_secs_f64((sent + missed) as f64 * interval_s);
            // Next idle connection, round-robin from where we stopped.
            let mut picked = None;
            for off in 0..conns.len() {
                let i = (next_idle + off) % conns.len();
                if matches!(conns[i].state, OpenState::Idle) {
                    picked = Some(i);
                    break;
                }
            }
            let Some(i) = picked else {
                missed += 1;
                continue;
            };
            next_idle = (i + 1) % conns.len();
            let target = &targets[target_i % targets.len()];
            target_i += 1;
            let req = format!(
                "GET {target} HTTP/1.1\r\nhost: localhost\r\nconnection: keep-alive\r\n\r\n"
            );
            conns[i].state = OpenState::Sending {
                buf: req.into_bytes(),
                pos: 0,
                t0: due, // measured from the scheduled arrival
            };
            sent += 1;
            drive_send(&mut conns[i], &mut errors);
        }

        // Poll everything with an interest: writers for POLLOUT, readers
        // and parked keep-alive conns for POLLIN (parked conns only to
        // notice server-side closes).
        pollset.clear();
        slots.clear();
        for (i, c) in conns.iter().enumerate() {
            let events = match c.state {
                OpenState::Sending { .. } => POLLOUT,
                OpenState::Receiving { .. } | OpenState::Idle => POLLIN,
                OpenState::Dead => continue,
            };
            use std::os::fd::AsRawFd;
            pollset.push(PollFd::new(c.stream.as_raw_fd(), events));
            slots.push(i);
        }
        if pollset.is_empty() {
            break; // whole fleet is dead
        }
        let next_due = t0 + Duration::from_secs_f64((sent + missed) as f64 * interval_s);
        let timeout_ms = if in_window {
            next_due
                .saturating_duration_since(Instant::now())
                .as_millis()
                .min(50) as i32
        } else {
            20
        };
        let n = poll_fds(&mut pollset, timeout_ms).unwrap_or(0);
        if n == 0 {
            continue;
        }
        for (k, pfd) in pollset.iter().enumerate() {
            if pfd.revents == 0 {
                continue;
            }
            let i = slots[k];
            match &mut conns[i].state {
                OpenState::Sending { .. } => drive_send(&mut conns[i], &mut errors),
                OpenState::Receiving { .. } => {
                    drive_recv(&mut conns[i], &mut ok, &mut other, &mut errors, &mut lat)
                }
                OpenState::Idle => {
                    // Data or EOF on a parked connection = server closed
                    // it (idle reap, shutdown).
                    let mut probe = [0u8; 64];
                    match conns[i].stream.read(&mut probe) {
                        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                        _ => conns[i].state = OpenState::Dead,
                    }
                }
                OpenState::Dead => {}
            }
        }
    }

    let conns_alive = conns
        .iter()
        .filter(|c| !matches!(c.state, OpenState::Dead))
        .count();
    lat.sort_unstable();
    let mean_us = if lat.is_empty() {
        0
    } else {
        lat.iter().sum::<u64>() / lat.len() as u64
    };
    OpenLoopReport {
        conns_target: plan.conns,
        conns_open,
        conns_alive,
        sent,
        ok,
        other,
        errors,
        missed_ticks: missed,
        p50_us: percentile(&lat, 0.50),
        p95_us: percentile(&lat, 0.95),
        p99_us: percentile(&lat, 0.99),
        mean_us,
        wall: t0.elapsed(),
    }
}

fn drive_send(conn: &mut OpenConn, errors: &mut u64) {
    let OpenState::Sending { buf, pos, t0 } = &mut conn.state else {
        return;
    };
    while *pos < buf.len() {
        match conn.stream.write(&buf[*pos..]) {
            Ok(0) => {
                *errors += 1;
                conn.state = OpenState::Dead;
                return;
            }
            Ok(n) => *pos += n,
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                *errors += 1;
                conn.state = OpenState::Dead;
                return;
            }
        }
    }
    let t0 = *t0;
    conn.state = OpenState::Receiving {
        dec: ResponseDecoder::new(),
        t0,
    };
}

fn drive_recv(
    conn: &mut OpenConn,
    ok: &mut u64,
    other: &mut u64,
    errors: &mut u64,
    lat: &mut Vec<u64>,
) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        let OpenState::Receiving { dec, t0 } = &mut conn.state else {
            return;
        };
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                *errors += 1;
                conn.state = OpenState::Dead;
                return;
            }
            Ok(n) => match dec.feed(&buf[..n]) {
                Ok(Some(status)) => {
                    let us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                    if (200..300).contains(&status) {
                        *ok += 1;
                        lat.push(us);
                    } else {
                        *other += 1;
                    }
                    conn.state = OpenState::Idle;
                    return;
                }
                Ok(None) => {}
                Err(_) => {
                    *errors += 1;
                    conn.state = OpenState::Dead;
                    return;
                }
            },
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                *errors += 1;
                conn.state = OpenState::Dead;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 0.50), 51); // nearest-rank on 0-based index
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn shared_decoder_still_drives_the_open_loop_shapes() {
        // The decoder lives in `ee_util::http1` now (the router's shard
        // pool shares it); this pins the open-loop usage contract.
        let wire =
            b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhello\r\n3\r\nwor\r\n0\r\n\r\n";
        let mut dec = ResponseDecoder::new();
        assert_eq!(dec.feed(&wire[..40]).unwrap(), None);
        assert_eq!(dec.feed(&wire[40..]).unwrap(), Some(200));
        let mut dec = ResponseDecoder::new();
        assert!(dec
            .feed(b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\nzz\r\n")
            .is_err());
    }

    #[test]
    fn report_arithmetic() {
        let r = LoadReport {
            ok: 90,
            rejected: 8,
            expired: 2,
            other: 0,
            errors: 1,
            cache_hits: 40,
            wall: Duration::from_secs(2),
            p50_us: 100,
            p95_us: 200,
            p99_us: 300,
            mean_us: 120,
            admitted_p99_us: 350,
            ttfb_p50_us: 50,
            ttfb_p95_us: 90,
            ttfb_p99_us: 95,
        };
        assert_eq!(r.completed(), 100);
        assert!((r.throughput() - 45.0).abs() < 1e-9);
    }
}
