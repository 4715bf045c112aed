//! Cluster configurations and cost models.
//!
//! The constants here calibrate the simulator to hardware of the paper's
//! era (2001): 500 MHz PIII / 266 MHz PII nodes, commodity IDE disks,
//! 100 Mbit switched Ethernet, and Myrinet as the fast interconnect
//! (the paper measures it ≈3× faster than its Ethernet). Absolute values
//! only set the time scale; the figures' *shapes* depend on the ratios.

use crate::node::SimNode;

/// Reference clock rate: CPU costs are quoted in nanoseconds on a 500 MHz
/// node and scaled by `500 / mhz` for slower nodes.
pub const REFERENCE_MHZ: u32 = 500;

/// One machine in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSpec {
    /// CPU clock in MHz (500 for the paper's fast nodes, 266 for the slow).
    pub mhz: u32,
    /// Main memory in megabytes (256 fast / 128 slow in the paper). The
    /// hash-tree algorithm's failure mode is running out of this.
    pub mem_mb: u32,
}

impl NodeSpec {
    /// The paper's fast node: 500 MHz PIII, 256 MB.
    pub const FAST: NodeSpec = NodeSpec {
        mhz: 500,
        mem_mb: 256,
    };
    /// The paper's slow node: 266 MHz PII, 128 MB.
    pub const SLOW: NodeSpec = NodeSpec {
        mhz: 266,
        mem_mb: 128,
    };

    /// Multiplier applied to reference CPU costs on this node.
    pub fn cpu_scale(&self) -> f64 {
        REFERENCE_MHZ as f64 / self.mhz as f64
    }

    /// Memory budget in bytes.
    pub fn mem_bytes(&self) -> u64 {
        self.mem_mb as u64 * 1024 * 1024
    }
}

/// Local-disk cost model.
///
/// `switch_ns` is charged whenever consecutive writes hit *different*
/// cuboid output files — the scattered-write penalty that makes depth-first
/// writing (BUC/RP) pay roughly 5× the I/O of breadth-first writing (BPP)
/// in Figure 3.6. Sequential bytes are charged at `write_byte_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskModel {
    /// Cost of redirecting the write stream to another file.
    pub switch_ns: u64,
    /// Per-byte sequential write cost.
    pub write_byte_ns: u64,
    /// Per-byte sequential read cost.
    pub read_byte_ns: u64,
}

impl DiskModel {
    /// Commodity year-2001 IDE disk: ≈20 MB/s writes, ≈30 MB/s reads,
    /// 10 µs effective penalty per redirected (buffered) small write.
    pub const COMMODITY: DiskModel = DiskModel {
        switch_ns: 10_000,
        write_byte_ns: 50,
        read_byte_ns: 33,
    };
}

/// Interconnect cost model: a message of `b` bytes takes
/// `latency_ns + b * byte_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetModel {
    /// One-way message latency.
    pub latency_ns: u64,
    /// Per-byte transfer cost.
    pub byte_ns: u64,
}

impl NetModel {
    /// 100 Mbit switched Ethernet with MPI/TCP overheads: 12.5 MB/s,
    /// ≈100 µs latency.
    pub const FAST_ETHERNET: NetModel = NetModel {
        latency_ns: 100_000,
        byte_ns: 80,
    };
    /// Myrinet, which the paper measures as roughly 3× faster than its
    /// Ethernet.
    pub const MYRINET: NetModel = NetModel {
        latency_ns: 30_000,
        byte_ns: 27,
    };

    /// Wire size of one control message (an RPC request or reply).
    pub const RPC_MSG_BYTES: u64 = 64;

    /// Cost of moving `bytes` across the interconnect.
    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        self.latency_ns + bytes * self.byte_ns
    }

    /// Cost of a small control message (manager/worker RPC).
    pub fn rpc_ns(&self) -> u64 {
        self.transfer_ns(Self::RPC_MSG_BYTES)
    }
}

/// Per-operation CPU prices, in nanoseconds on the reference 500 MHz node.
///
/// Algorithms report deterministic operation counts; these constants turn
/// them into virtual time. The ratios (a hash probe costs more than an
/// array move; a skip-list comparison is per key element) are what drive
/// the crossovers in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuCosts {
    /// Reading one tuple during a scan.
    pub tuple_scan_ns: u64,
    /// Moving one tuple during partitioning / counting sort.
    pub tuple_move_ns: u64,
    /// One key-element (u32) comparison during sorting or skip-list search.
    pub cmp_ns: u64,
    /// Updating an aggregate (count+sum+min+max) in place.
    pub agg_update_ns: u64,
    /// Hashing + probing one bucket in a hash table.
    pub hash_probe_ns: u64,
    /// Fixed overhead per output cell (formatting, bookkeeping).
    pub cell_emit_ns: u64,
    /// Fixed overhead per task (setup, allocation).
    pub task_overhead_ns: u64,
}

impl CpuCosts {
    /// Calibration for a 500 MHz PIII (≈2 cycles/ns): memory-bound
    /// operations cost tens of ns, branchy probe operations more.
    pub const PIII_500: CpuCosts = CpuCosts {
        tuple_scan_ns: 20,
        tuple_move_ns: 30,
        cmp_ns: 8,
        agg_update_ns: 12,
        hash_probe_ns: 60,
        cell_emit_ns: 40,
        task_overhead_ns: 200_000,
    };
}

/// A full cluster description: node roster plus the three cost models.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// The machines, in node-id order.
    pub nodes: Vec<NodeSpec>,
    /// Local disk model (identical disks on every node, as in the paper).
    pub disk: DiskModel,
    /// Interconnect model.
    pub net: NetModel,
    /// CPU operation prices.
    pub cpu: CpuCosts,
    /// Seed for any randomized structure the algorithms build (skip-list
    /// levels, sampling); combined with node ids for per-node streams.
    pub seed: u64,
    /// Fault schedule for the run; [`FaultPlan::none`] (the default from
    /// every preset) reproduces fault-free behaviour bit for bit.
    pub faults: crate::fault::FaultPlan,
    /// When true, every node records a virtual-time event trace (task
    /// spans, messages, faults, phases) into a per-node buffer, drained
    /// via [`crate::SimCluster::take_trace`]. Tracing charges nothing and
    /// changes no counter, so it never perturbs a run; presets default to
    /// `false`, which skips recording entirely.
    pub trace: bool,
}

impl ClusterConfig {
    /// The [`seed`](ClusterConfig::seed) every preset starts from.
    pub const DEFAULT_SEED: u64 = 0x1ceb_c0de;

    fn uniform(n: usize, spec: NodeSpec, net: NetModel) -> Self {
        // check:allow(panic-path): a zero-node cluster is a configuration
        // bug at startup, not runtime input.
        assert!(n > 0, "a cluster needs at least one node");
        ClusterConfig {
            nodes: vec![spec; n],
            disk: DiskModel::COMMODITY,
            net,
            cpu: CpuCosts::PIII_500,
            seed: Self::DEFAULT_SEED,
            faults: crate::fault::FaultPlan::none(),
            trace: false,
        }
    }

    /// Attaches a fault schedule (builder style).
    #[must_use]
    pub fn with_faults(mut self, faults: crate::fault::FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables virtual-time event tracing (builder style).
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// `n` fast nodes on Ethernet — the paper's *Cluster1* and the
    /// baseline for Chapter 4.
    pub fn fast_ethernet(n: usize) -> Self {
        Self::uniform(n, NodeSpec::FAST, NetModel::FAST_ETHERNET)
    }

    /// `n` slow nodes on Ethernet — the paper's *Cluster2*.
    pub fn slow_ethernet(n: usize) -> Self {
        Self::uniform(n, NodeSpec::SLOW, NetModel::FAST_ETHERNET)
    }

    /// `n` slow nodes on Myrinet — the paper's *Cluster3*.
    pub fn slow_myrinet(n: usize) -> Self {
        Self::uniform(n, NodeSpec::SLOW, NetModel::MYRINET)
    }

    /// The full heterogeneous testbed: eight fast plus eight slow nodes.
    pub fn heterogeneous_16() -> Self {
        let mut c = Self::fast_ethernet(8);
        c.nodes.extend(std::iter::repeat_n(NodeSpec::SLOW, 8));
        c
    }

    /// Builds node `id` as [`crate::SimCluster::new`] does: its spec and
    /// cost models, a trace buffer when tracing is on, and its share of
    /// the fault plan armed. `None` when the roster has no node `id`.
    /// One-node pricing (sequential runs, kernel ablations) needs only
    /// this, not a whole cluster.
    pub fn node(&self, id: usize) -> Option<SimNode> {
        let spec = *self.nodes.get(id)?;
        let mut n = SimNode::new(id, spec, self.disk, self.net, self.cpu);
        if self.trace {
            // Attach before arming faults so an immediate crash
            // (scheduled at or before t=0) is still recorded.
            n.attach_trace();
        }
        n.set_faults(&self.faults);
        Some(n)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the roster is empty (constructors prevent this).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_builds_one_roster_entry() {
        let cfg = ClusterConfig::heterogeneous_16();
        let node = cfg.node(15).expect("node 15 is on the roster");
        assert_eq!((node.id(), node.spec()), (15, NodeSpec::SLOW));
        assert_eq!(node.clock_ns(), 0);
        assert!(cfg.node(16).is_none());
    }

    #[test]
    fn cpu_scale_matches_clock_ratio() {
        assert!((NodeSpec::FAST.cpu_scale() - 1.0).abs() < 1e-12);
        assert!((NodeSpec::SLOW.cpu_scale() - 500.0 / 266.0).abs() < 1e-12);
    }

    #[test]
    fn myrinet_is_about_three_times_faster() {
        // The paper: "Myrinet, which is approximately three times faster
        // than the Ethernet used in the first two clusters."
        let big = 1_000_000u64;
        let eth = NetModel::FAST_ETHERNET.transfer_ns(big) as f64;
        let myr = NetModel::MYRINET.transfer_ns(big) as f64;
        assert!((2.5..3.5).contains(&(eth / myr)), "ratio {}", eth / myr);
    }

    #[test]
    fn presets_have_expected_shapes() {
        assert_eq!(ClusterConfig::fast_ethernet(8).len(), 8);
        assert_eq!(ClusterConfig::heterogeneous_16().len(), 16);
        let het = ClusterConfig::heterogeneous_16();
        assert_eq!(het.nodes[0], NodeSpec::FAST);
        assert_eq!(het.nodes[15], NodeSpec::SLOW);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = ClusterConfig::fast_ethernet(0);
    }

    #[test]
    fn rpc_cost_is_latency_dominated() {
        let m = NetModel::FAST_ETHERNET;
        assert!(m.rpc_ns() < m.latency_ns * 2);
        assert!(m.rpc_ns() > m.latency_ns);
    }
}
