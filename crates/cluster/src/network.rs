//! Store-and-forward NIC network model.
//!
//! Each node has one egress and one ingress NIC, each a FIFO resource:
//! a transfer occupies the sender's egress and then the receiver's ingress
//! for `bytes / path_bandwidth` seconds, after a propagation `latency`.
//! Concurrent transfers between *different* node pairs proceed in parallel;
//! transfers sharing a NIC serialise.
//!
//! This is deliberately simpler than processor-sharing flow models but
//! reproduces the two behaviours the experiments need:
//!
//! * a parameter server's ingress NIC serialises the N workers' gradient
//!   pushes → aggregation time grows linearly in N (the PS bottleneck);
//! * ring allreduce's 2(N−1) steps each move `G/N` bytes between disjoint
//!   neighbour pairs in parallel → near-constant time in N.

use crate::topology::{ClusterSpec, NodeId};
use ee_util::timeline::{SimDuration, SimTime};

/// The network state: per-NIC next-free times.
#[derive(Debug, Clone)]
pub struct Network {
    spec: ClusterSpec,
    egress_free: Vec<SimTime>,
    ingress_free: Vec<SimTime>,
    bytes_moved: u64,
    transfers: u64,
}

/// Completion record of one simulated transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// When the payload starts leaving the sender.
    pub start: SimTime,
    /// When the last byte arrives at the receiver.
    pub end: SimTime,
}

impl Network {
    /// A quiet network over a cluster.
    pub fn new(spec: ClusterSpec) -> Self {
        let n = spec.num_nodes();
        Self {
            spec,
            egress_free: vec![SimTime::ZERO; n],
            ingress_free: vec![SimTime::ZERO; n],
            bytes_moved: 0,
            transfers: 0,
        }
    }

    /// The cluster this network spans.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Total payload bytes moved so far.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Total transfers simulated.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Simulate sending `bytes` from `src` to `dst`, requested at `now`.
    /// Returns when the transfer starts (after queueing at the NICs) and
    /// when the last byte lands.
    pub fn send(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> Transfer {
        assert!(src.0 < self.spec.num_nodes() && dst.0 < self.spec.num_nodes());
        let bw = self.spec.bandwidth(src, dst);
        let latency = SimDuration::from_secs(self.spec.latency(src, dst));
        let wire = SimDuration::from_secs(bytes as f64 / bw);
        // Wait for both NICs to be free, then hold both for the wire time.
        let start = now
            .max(self.egress_free[src.0])
            .max(self.ingress_free[dst.0]);
        let egress_done = start.advance(wire);
        let end = egress_done.advance(latency);
        self.egress_free[src.0] = egress_done;
        self.ingress_free[dst.0] = egress_done;
        self.bytes_moved += bytes;
        self.transfers += 1;
        Transfer { start, end }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(n: usize) -> Network {
        Network::new(ClusterSpec::flat(n))
    }

    #[test]
    fn single_transfer_matches_ideal() {
        let mut n = net(2);
        let t = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1_250_000_000);
        // 1.25 GB at 1.25 GB/s = 1 s + 50 us latency.
        assert!((t.end.since(t.start).as_secs() - 1.00005).abs() < 1e-9);
    }

    #[test]
    fn transfers_to_same_destination_serialise() {
        let mut n = net(3);
        let bytes = 1_250_000_000; // 1 s of wire time each
        let t1 = n.send(SimTime::ZERO, NodeId(0), NodeId(2), bytes);
        let t2 = n.send(SimTime::ZERO, NodeId(1), NodeId(2), bytes);
        // Second must queue behind the first at node 2's ingress.
        assert!(t2.start >= t1.start.advance(SimDuration::from_secs(1.0)));
        assert!(t2.end.as_secs() >= 2.0);
    }

    #[test]
    fn disjoint_pairs_run_in_parallel() {
        let mut n = net(4);
        let bytes = 1_250_000_000;
        let t1 = n.send(SimTime::ZERO, NodeId(0), NodeId(1), bytes);
        let t2 = n.send(SimTime::ZERO, NodeId(2), NodeId(3), bytes);
        assert_eq!(t1.start, t2.start, "no shared NIC, no queueing");
        assert_eq!(t1.end, t2.end);
    }

    #[test]
    fn sender_egress_serialises_fanout() {
        let mut n = net(3);
        let bytes = 625_000_000; // 0.5 s each
        let t1 = n.send(SimTime::ZERO, NodeId(0), NodeId(1), bytes);
        let t2 = n.send(SimTime::ZERO, NodeId(0), NodeId(2), bytes);
        assert!((t1.end.since(t1.start).as_secs() - 0.50005).abs() < 1e-9);
        assert!(t2.start >= SimTime::from_secs(0.5));
    }

    #[test]
    fn ps_ingress_is_linear_in_workers() {
        // The paper-relevant shape: N workers pushing to one server.
        let mut durations = Vec::new();
        for workers in [2usize, 4, 8] {
            let mut n = net(workers + 1);
            let g = 100_000_000u64; // 100 MB gradient
            let mut last_end = SimTime::ZERO;
            for w in 1..=workers {
                let t = n.send(SimTime::ZERO, NodeId(w), NodeId(0), g);
                last_end = last_end.max(t.end);
            }
            durations.push(last_end.as_secs());
        }
        // Doubling workers roughly doubles total ingest time.
        assert!(durations[1] / durations[0] > 1.8);
        assert!(durations[2] / durations[1] > 1.8);
    }

    #[test]
    fn ring_step_is_constant_in_workers() {
        // One ring step: node i sends G/N to node (i+1) % N, all pairs disjoint.
        for workers in [4usize, 8, 16] {
            let mut n = net(workers);
            let g = 100_000_000u64;
            let chunk = g / workers as u64;
            let mut max_end = SimTime::ZERO;
            for w in 0..workers {
                let t = n.send(SimTime::ZERO, NodeId(w), NodeId((w + 1) % workers), chunk);
                max_end = max_end.max(t.end);
            }
            // Per-step time shrinks as 1/N: total over 2(N-1) steps stays ~flat.
            let expected = chunk as f64 / 1.25e9 + 50e-6;
            assert!((max_end.as_secs() - expected).abs() < 1e-9, "N={workers}");
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net(2);
        n.send(SimTime::ZERO, NodeId(0), NodeId(1), 100);
        n.send(SimTime::ZERO, NodeId(1), NodeId(0), 200);
        assert_eq!(n.bytes_moved(), 300);
        assert_eq!(n.transfers(), 2);
    }

    #[test]
    fn loopback_is_fast() {
        let mut n = net(2);
        let t = n.send(SimTime::ZERO, NodeId(0), NodeId(0), 1_250_000_000);
        assert!(
            t.end.since(t.start).as_secs() < 0.02,
            "loopback ~100x NIC speed"
        );
    }
}
