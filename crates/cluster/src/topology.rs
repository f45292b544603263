//! Cluster topology: racks of nodes with compute devices and NICs.

/// Identifier of a node within a [`ClusterSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Hardware description of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// CPU cores available for containers.
    pub cpu_slots: u32,
    /// GPUs available for containers.
    pub gpu_slots: u32,
    /// Single-core CPU throughput in FLOP/s.
    pub cpu_flops: f64,
    /// Per-GPU throughput in FLOP/s.
    pub gpu_flops: f64,
    /// NIC bandwidth in bytes/s (full duplex: this rate each way).
    pub nic_bandwidth: f64,
    /// Memory in bytes.
    pub memory: u64,
}

impl Default for NodeSpec {
    fn default() -> Self {
        // A mid-2018 cloud GPU node: 16 cores, 1 V100-ish GPU, 10 GbE.
        Self {
            cpu_slots: 16,
            gpu_slots: 1,
            cpu_flops: 5.0e10,
            gpu_flops: 1.4e13,
            nic_bandwidth: 1.25e9,
            memory: 128 * (1 << 30),
        }
    }
}

/// A whole cluster: `racks x nodes_per_rack` identical nodes.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Node hardware (homogeneous; heterogeneity is modelled by the
    /// straggler jitter in the training simulator, not the topology).
    pub node: NodeSpec,
    /// Number of racks.
    pub racks: usize,
    /// Nodes in each rack.
    pub nodes_per_rack: usize,
    /// One-way latency between nodes in the same rack, seconds.
    pub intra_rack_latency: f64,
    /// One-way latency between nodes in different racks, seconds.
    pub cross_rack_latency: f64,
    /// Bandwidth cap on cross-rack paths, bytes/s (the oversubscribed
    /// aggregation layer; `f64::INFINITY` disables the cap).
    pub cross_rack_bandwidth: f64,
}

impl ClusterSpec {
    /// A single-rack cluster of `n` default nodes — the configuration the
    /// E4/E10 sweeps use unless stated otherwise.
    pub fn flat(n: usize) -> Self {
        assert!(n > 0, "cluster needs at least one node");
        Self {
            node: NodeSpec::default(),
            racks: 1,
            nodes_per_rack: n,
            intra_rack_latency: 50e-6,
            cross_rack_latency: 500e-6,
            cross_rack_bandwidth: f64::INFINITY,
        }
    }

    /// A multi-rack cluster.
    #[cfg(test)]
    pub fn racked(racks: usize, nodes_per_rack: usize) -> Self {
        assert!(racks > 0 && nodes_per_rack > 0);
        Self {
            racks,
            nodes_per_rack,
            ..Self::flat(1)
        }
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.racks * self.nodes_per_rack
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes()).map(NodeId)
    }

    /// Rack index of a node.
    pub fn rack_of(&self, node: NodeId) -> usize {
        node.0 / self.nodes_per_rack
    }

    /// Do two nodes share a rack?
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// One-way latency between two nodes (0 for a node to itself).
    pub fn latency(&self, a: NodeId, b: NodeId) -> f64 {
        if a == b {
            0.0
        } else if self.same_rack(a, b) {
            self.intra_rack_latency
        } else {
            self.cross_rack_latency
        }
    }

    /// Path bandwidth between two nodes in bytes/s (NIC-limited within a
    /// rack; additionally capped by the aggregation layer across racks).
    /// A node talking to itself is memory-speed (modelled as 100x NIC).
    pub fn bandwidth(&self, a: NodeId, b: NodeId) -> f64 {
        if a == b {
            self.node.nic_bandwidth * 100.0
        } else if self.same_rack(a, b) {
            self.node.nic_bandwidth
        } else {
            self.node.nic_bandwidth.min(self.cross_rack_bandwidth)
        }
    }

    /// Aggregate GPU count.
    pub fn total_gpus(&self) -> u32 {
        self.num_nodes() as u32 * self.node.gpu_slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_cluster_geometry() {
        let c = ClusterSpec::flat(8);
        assert_eq!(c.num_nodes(), 8);
        assert_eq!(c.nodes().count(), 8);
        assert!(c.same_rack(NodeId(0), NodeId(7)));
        assert_eq!(c.total_gpus(), 8);
    }

    #[test]
    fn racked_cluster_geometry() {
        let c = ClusterSpec::racked(3, 4);
        assert_eq!(c.num_nodes(), 12);
        assert_eq!(c.rack_of(NodeId(0)), 0);
        assert_eq!(c.rack_of(NodeId(4)), 1);
        assert_eq!(c.rack_of(NodeId(11)), 2);
        assert!(c.same_rack(NodeId(4), NodeId(7)));
        assert!(!c.same_rack(NodeId(3), NodeId(4)));
    }

    #[test]
    fn latency_model() {
        let c = ClusterSpec::racked(2, 2);
        assert_eq!(c.latency(NodeId(0), NodeId(0)), 0.0);
        assert_eq!(c.latency(NodeId(0), NodeId(1)), c.intra_rack_latency);
        assert_eq!(c.latency(NodeId(0), NodeId(2)), c.cross_rack_latency);
        assert!(c.latency(NodeId(0), NodeId(2)) > c.latency(NodeId(0), NodeId(1)));
    }

    #[test]
    fn bandwidth_model() {
        let mut c = ClusterSpec::racked(2, 2);
        c.cross_rack_bandwidth = 1e8;
        assert_eq!(c.bandwidth(NodeId(0), NodeId(1)), c.node.nic_bandwidth);
        assert_eq!(c.bandwidth(NodeId(0), NodeId(2)), 1e8);
        assert!(c.bandwidth(NodeId(0), NodeId(0)) > c.node.nic_bandwidth);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_rejected() {
        ClusterSpec::flat(0);
    }
}
