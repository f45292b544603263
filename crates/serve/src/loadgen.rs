//! The serving tier's load generator: one poll-driven thread over a
//! fleet of nonblocking [`ClientConn`]s, in open or closed loop.
//!
//! A [`LoadPlan`] names the fleet size, the [`ConnMode`] and the
//! [`Arrivals`]:
//!
//! * **Open loop** ([`Arrivals::Open`]): request *i* is due at
//!   `t0 + i/rate`, for `rate × window` requests. Offered load does
//!   *not* adapt to service rate: when every connection is busy, due
//!   requests wait in a client-side FIFO — nothing is dropped — and
//!   latency is timed from the due time, so queueing shows up in the
//!   numbers instead of silently throttling the generator. This is the
//!   C10K client model: a mostly idle fleet, rate ≪ connections.
//! * **Closed loop** ([`Arrivals::Closed`]): the same loop, where a
//!   request is due the moment a reply frees its connection, so offered
//!   load adapts to service rate.
//!
//! [`ConnMode::KeepAlive`] reuses each connection; [`ConnMode::PerRequest`]
//! sends `connection: close`, so every request arrives on a new
//! connection and passes admission control (the mode that probes the
//! 503 watermark). Either way a connection the server closes or recycles
//! is reopened before its next request and counted in
//! [`LoadReport::reopened`]; that is not a failure.

use ee_util::http1::{ClientConn, Drive};
use ee_util::poll::{poll_fds, PollFd};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// How long a connect, or a request from its due time to its whole
/// response, may take before it counts as a transport error.
const TIMEOUT: Duration = Duration::from_secs(60);

/// How clients manage connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnMode {
    /// `connection: close` on every request: each one faces admission.
    PerRequest,
    /// Persistent connections, reused while the server keeps them.
    KeepAlive,
}

/// When requests become due.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// `requests` in all, each due as soon as a connection is free.
    Closed {
        /// Requests across the whole fleet.
        requests: usize,
    },
    /// A fixed arrival rate: request *i* is due at `i / rate_per_sec`
    /// while that is inside `window`.
    Open {
        /// Aggregate arrivals per second across the fleet.
        rate_per_sec: f64,
        /// How long arrivals keep coming; the run then drains.
        window: Duration,
    },
}

/// A load-generation plan.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// Connections in the fleet: at most this many requests in flight.
    pub conns: usize,
    /// Connection management mode.
    pub mode: ConnMode,
    /// Closed or open loop.
    pub arrivals: Arrivals,
}

/// Aggregated results of one load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Connections the fleet opened before the first request (fewer than
    /// planned when connects fail, e.g. at the fd limit).
    pub conns_open: usize,
    /// Connections reopened after the server closed or recycled them.
    pub reopened: u64,
    /// Requests written to a connection.
    pub sent: u64,
    /// 2xx responses.
    pub ok: u64,
    /// 503 admission rejections.
    pub rejected: u64,
    /// 504 deadline expiries.
    pub expired: u64,
    /// Other HTTP statuses (4xx bugs in the target list, 5xx…).
    pub other: u64,
    /// Transport-level failures (connect refused, timeout, close or
    /// malformed framing mid-response).
    pub errors: u64,
    /// `x-cache: HIT` responses among the 2xx.
    pub cache_hits: u64,
    /// Wall-clock from the first due request until the last answer.
    pub wall: Duration,
    /// Latency percentiles over **successful (2xx) requests**, µs, from
    /// each request's due time.
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
    /// stops when the response head has been decoded, before the body
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

fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// One connection of the fleet.
struct Slot {
    /// `None` once the server closed it; reopened before the next request.
    conn: Option<ClientConn>,
    /// Due time of the request in flight; `None` while the slot is free.
    due: Option<Instant>,
}

/// The run's counters and latency samples.
#[derive(Default)]
struct Tally {
    report: LoadReport,
    ok_lat: Vec<u64>,
    admitted_lat: Vec<u64>,
    ttfb_lat: Vec<u64>,
}

impl Tally {
    /// Account for what `outcome` did to `slot`'s request; true when the
    /// slot is free again.
    fn settle(&mut self, slot: &mut Slot, outcome: Drive) -> bool {
        let r = &mut self.report;
        match outcome {
            Drive::Pending => false,
            Drive::Dead => {
                slot.conn = None;
                let in_flight = slot.due.take().is_some();
                r.errors += u64::from(in_flight);
                in_flight
            }
            Drive::Complete(status) => {
                let conn = slot.conn.as_mut().expect("complete means connected");
                let due = slot.due.take().expect("a complete request was due");
                let us = micros(due.elapsed());
                let response = conn.take_response();
                match status {
                    200..=299 => {
                        r.ok += 1;
                        if response.header("x-cache") == Some("HIT") {
                            r.cache_hits += 1;
                        }
                        self.ok_lat.push(us);
                        self.admitted_lat.push(us);
                        let head = conn.head_at().unwrap_or(due);
                        self.ttfb_lat.push(micros(head.duration_since(due)));
                    }
                    503 => r.rejected += 1,
                    504 => {
                        r.expired += 1;
                        self.admitted_lat.push(us);
                    }
                    _ => r.other += 1,
                }
                if !conn.is_reusable() {
                    slot.conn = None;
                }
                true
            }
        }
    }

    fn finish(mut self, wall: Duration) -> LoadReport {
        for v in [&mut self.ok_lat, &mut self.admitted_lat, &mut self.ttfb_lat] {
            v.sort_unstable();
        }
        let (ok, admitted, ttfb) = (&self.ok_lat, &self.admitted_lat, &self.ttfb_lat);
        LoadReport {
            wall,
            p50_us: percentile(ok, 0.50),
            p95_us: percentile(ok, 0.95),
            p99_us: percentile(ok, 0.99),
            mean_us: ok.iter().sum::<u64>() / (ok.len().max(1) as u64),
            admitted_p99_us: percentile(admitted, 0.99),
            ttfb_p50_us: percentile(ttfb, 0.50),
            ttfb_p95_us: percentile(ttfb, 0.95),
            ttfb_p99_us: percentile(ttfb, 0.99),
            ..self.report
        }
    }
}

/// Run `plan` against `addr`, requests cycling through `targets`
/// round-robin, and report once every due request has been answered
/// (or has failed). Panics if `targets` is empty.
pub fn run(addr: SocketAddr, targets: &[String], plan: &LoadPlan) -> LoadReport {
    assert!(!targets.is_empty(), "loadgen needs at least one target");
    let connection = match plan.mode {
        ConnMode::KeepAlive => "keep-alive",
        ConnMode::PerRequest => "close",
    };
    let requests: Vec<Vec<u8>> = targets
        .iter()
        .map(|t| {
            format!("GET {t} HTTP/1.1\r\nhost: localhost\r\nconnection: {connection}\r\n\r\n")
                .into_bytes()
        })
        .collect();
    let (total, rate) = match plan.arrivals {
        Arrivals::Closed { requests } => (requests as u64, None),
        Arrivals::Open {
            rate_per_sec,
            window,
        } => {
            assert!(rate_per_sec > 0.0, "an open loop needs a positive rate");
            let total = (rate_per_sec * window.as_secs_f64()).round() as u64;
            (total, Some(rate_per_sec))
        }
    };

    let mut fleet: Vec<Slot> = (0..plan.conns)
        .map_while(|_| ClientConn::connect(addr, TIMEOUT).ok())
        .map(|conn| Slot {
            conn: Some(conn),
            due: None,
        })
        .collect();
    let mut tally = Tally::default();
    tally.report.conns_open = fleet.len();
    if fleet.is_empty() {
        tally.report.errors = total;
        return tally.finish(Duration::ZERO);
    }

    let mut free: VecDeque<usize> = (0..fleet.len()).collect();
    let mut queue: VecDeque<Instant> = VecDeque::new();
    let mut arrived = 0u64;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut polled: Vec<usize> = Vec::new();
    let t0 = Instant::now();
    let due_at = |i: u64| rate.map(|r| t0 + Duration::from_secs_f64(i as f64 / r));
    loop {
        // Admit every arrival that is due.
        let now = Instant::now();
        while arrived < total {
            let due = match due_at(arrived) {
                Some(due) if due <= now => due,
                None if queue.len() < free.len() => now,
                _ => break,
            };
            queue.push_back(due);
            arrived += 1;
        }
        // Hand due requests to free connections, oldest first.
        while !queue.is_empty() {
            let Some(i) = free.pop_front() else { break };
            let due = queue.pop_front().expect("queue is not empty");
            let slot = &mut fleet[i];
            if slot.conn.is_none() {
                match ClientConn::connect(addr, TIMEOUT) {
                    Ok(conn) => {
                        slot.conn = Some(conn);
                        tally.report.reopened += 1;
                    }
                    Err(_) => {
                        tally.report.errors += 1;
                        free.push_back(i);
                        continue;
                    }
                }
            }
            let conn = slot.conn.as_mut().expect("connected above");
            conn.send(&requests[tally.report.sent as usize % requests.len()]);
            tally.report.sent += 1;
            slot.due = Some(due);
            let outcome = conn.drive();
            if tally.settle(slot, outcome) {
                free.push_back(i);
            }
        }
        if arrived == total && queue.is_empty() && free.len() == fleet.len() {
            break;
        }

        // Wait on every open connection: in-flight ones for their
        // response, parked ones to notice the server closing them.
        fds.clear();
        polled.clear();
        for (i, slot) in fleet.iter().enumerate() {
            if let Some(conn) = &slot.conn {
                fds.push(conn.poll_fd());
                polled.push(i);
            }
        }
        let mut wait = Duration::from_millis(50);
        if let Some(next) = due_at(arrived).filter(|_| arrived < total) {
            wait = wait.min(next.saturating_duration_since(Instant::now()));
        }
        if poll_fds(&mut fds, wait.as_millis() as i32).unwrap_or(0) > 0 {
            for (fd, &i) in fds.iter().zip(&polled) {
                if fd.revents == 0 {
                    continue;
                }
                let slot = &mut fleet[i];
                let outcome = slot.conn.as_mut().expect("polled").drive();
                if tally.settle(slot, outcome) {
                    free.push_back(i);
                }
            }
        }
        // A request unanswered for TIMEOUT fails and drops its connection.
        for (i, slot) in fleet.iter_mut().enumerate() {
            let stuck = slot.due.is_some_and(|due| due.elapsed() > TIMEOUT);
            if stuck && tally.settle(slot, Drive::Dead) {
                free.push_back(i);
            }
        }
    }
    tally.finish(t0.elapsed())
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
    fn report_arithmetic() {
        let r = LoadReport {
            ok: 90,
            rejected: 8,
            expired: 2,
            other: 0,
            errors: 1,
            wall: Duration::from_secs(2),
            ..LoadReport::default()
        };
        assert_eq!(r.completed(), 100);
        assert!((r.throughput() - 45.0).abs() < 1e-9);
    }
}
