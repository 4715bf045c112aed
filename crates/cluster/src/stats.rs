//! Run statistics: per-node accounting and cluster-level summaries.

use icecube_trace::Registry;

/// Counters accumulated by one node over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Virtual CPU time.
    pub cpu_ns: u64,
    /// Virtual time spent writing cells.
    pub disk_write_ns: u64,
    /// Virtual time spent reading input.
    pub disk_read_ns: u64,
    /// Virtual time on the interconnect (sends + RPC).
    pub net_ns: u64,
    /// Virtual time spent waiting (messages, barriers, manager).
    pub idle_ns: u64,
    /// Bytes written to the local disk.
    pub bytes_written: u64,
    /// Bytes read from the local disk.
    pub bytes_read: u64,
    /// Bytes shipped to other nodes.
    pub bytes_sent: u64,
    /// Output cells written.
    pub cells_written: u64,
    /// Output-file switches (the scattered-write penalty count).
    pub file_switches: u64,
    /// Messages sent (including RPC halves).
    pub messages: u64,
    /// Tasks executed.
    pub tasks: u64,
    /// Barriers participated in.
    pub barriers: u64,
    /// Peak of the node's tracked memory.
    pub peak_mem_bytes: u64,
    /// 1 when the node crashed during the run (its clock froze there).
    pub crashed: u64,
    /// Extra virtual time lost to injected slowdown windows.
    pub slowdown_ns: u64,
    /// Tasks this node was running (or assigned) when it died.
    pub tasks_lost: u64,
    /// Lost tasks this node re-ran on behalf of a dead peer.
    pub tasks_recovered: u64,
    /// Manager RPCs to this node that timed out and were retried.
    pub rpc_retries: u64,
    /// Data-message transfer attempts that were dropped and resent.
    pub retransmits: u64,
}

impl NodeStats {
    /// Busy time: everything except idling.
    pub fn busy_ns(&self) -> u64 {
        self.cpu_ns + self.disk_write_ns + self.disk_read_ns + self.net_ns
    }

    /// Total I/O time (the y-axis of Figure 3.6).
    pub fn io_ns(&self) -> u64 {
        self.disk_write_ns + self.disk_read_ns
    }

    /// Merges another node's counters into this one (used when a logical
    /// node is simulated in phases).
    pub fn merge(&mut self, other: &NodeStats) {
        self.cpu_ns += other.cpu_ns;
        self.disk_write_ns += other.disk_write_ns;
        self.disk_read_ns += other.disk_read_ns;
        self.net_ns += other.net_ns;
        self.idle_ns += other.idle_ns;
        self.bytes_written += other.bytes_written;
        self.bytes_read += other.bytes_read;
        self.bytes_sent += other.bytes_sent;
        self.cells_written += other.cells_written;
        self.file_switches += other.file_switches;
        self.messages += other.messages;
        self.tasks += other.tasks;
        self.barriers += other.barriers;
        self.peak_mem_bytes = self.peak_mem_bytes.max(other.peak_mem_bytes);
        self.crashed = self.crashed.max(other.crashed);
        self.slowdown_ns += other.slowdown_ns;
        self.tasks_lost += other.tasks_lost;
        self.tasks_recovered += other.tasks_recovered;
        self.rpc_retries += other.rpc_retries;
        self.retransmits += other.retransmits;
    }
}

/// Cluster-level summary of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    nodes: Vec<NodeStats>,
    clocks_ns: Vec<u64>,
}

impl RunStats {
    /// Builds a summary from per-node stats and final clocks.
    pub fn new(nodes: Vec<NodeStats>, clocks_ns: Vec<u64>) -> Self {
        // check:allow(panic-path): both vectors come from the same cluster's
        // node list; a length mismatch is a simulator bug, not input.
        assert_eq!(nodes.len(), clocks_ns.len());
        RunStats { nodes, clocks_ns }
    }

    /// Per-node counters.
    pub fn nodes(&self) -> &[NodeStats] {
        &self.nodes
    }

    /// Final virtual clock of node `i`.
    pub fn clock_ns(&self, i: usize) -> u64 {
        self.clocks_ns[i]
    }

    /// The paper's "wall clock": the maximum time taken by any processor,
    /// CPU and I/O included.
    pub fn makespan_ns(&self) -> u64 {
        self.clocks_ns.iter().copied().max().unwrap_or(0)
    }

    /// Makespan in (fractional) seconds.
    pub fn makespan_secs(&self) -> f64 {
        self.makespan_ns() as f64 / 1e9
    }

    /// Per-node busy times ("load" in Figure 4.1).
    pub fn loads_ns(&self) -> Vec<u64> {
        self.nodes.iter().map(NodeStats::busy_ns).collect()
    }

    /// Load imbalance: max busy time over mean busy time (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let loads = self.loads_ns();
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        let sum: u64 = loads.iter().sum();
        if sum == 0 {
            return 1.0;
        }
        let mean = sum as f64 / loads.len() as f64;
        max / mean
    }

    /// Total I/O time summed over nodes (Figure 3.6 compares this between
    /// writing strategies).
    pub fn total_io_ns(&self) -> u64 {
        self.nodes.iter().map(NodeStats::io_ns).sum()
    }

    /// Total bytes of cells written across the cluster (the paper reports
    /// output sizes per minimum support in Figure 4.5).
    pub fn total_bytes_written(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_written).sum()
    }

    /// Total cells emitted across the cluster.
    pub fn total_cells(&self) -> u64 {
        self.nodes.iter().map(|n| n.cells_written).sum()
    }

    /// Nodes that crashed during the run.
    pub fn total_crashes(&self) -> u64 {
        self.nodes.iter().map(|n| n.crashed).sum()
    }

    /// Tasks lost to crashes, cluster-wide.
    pub fn total_tasks_lost(&self) -> u64 {
        self.nodes.iter().map(|n| n.tasks_lost).sum()
    }

    /// Lost tasks successfully re-run on survivors, cluster-wide.
    pub fn total_tasks_recovered(&self) -> u64 {
        self.nodes.iter().map(|n| n.tasks_recovered).sum()
    }

    /// Manager RPC retries, cluster-wide.
    pub fn total_rpc_retries(&self) -> u64 {
        self.nodes.iter().map(|n| n.rpc_retries).sum()
    }

    /// Dropped-and-resent data messages, cluster-wide.
    pub fn total_retransmits(&self) -> u64 {
        self.nodes.iter().map(|n| n.retransmits).sum()
    }

    /// Largest peak memory across nodes.
    pub fn peak_mem_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.peak_mem_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Pours this run's counters into a [`Registry`] under `prefix`
    /// (conventionally `"cluster"`): cluster-level totals plus every
    /// per-node counter as `<prefix>.node<NN>.<counter>`. Gives cluster
    /// statistics the same snapshot/CSV surface as the serving metrics.
    pub fn register_into(&self, prefix: &str, registry: &mut Registry) {
        registry.set(&format!("{prefix}.makespan_ns"), self.makespan_ns());
        registry.set(&format!("{prefix}.total_io_ns"), self.total_io_ns());
        registry.set(
            &format!("{prefix}.total_bytes_written"),
            self.total_bytes_written(),
        );
        registry.set(&format!("{prefix}.total_cells"), self.total_cells());
        registry.set(&format!("{prefix}.total_crashes"), self.total_crashes());
        registry.set(
            &format!("{prefix}.total_tasks_lost"),
            self.total_tasks_lost(),
        );
        registry.set(
            &format!("{prefix}.total_tasks_recovered"),
            self.total_tasks_recovered(),
        );
        registry.set(&format!("{prefix}.peak_mem_bytes"), self.peak_mem_bytes());
        for (i, (n, clock)) in self.nodes.iter().zip(&self.clocks_ns).enumerate() {
            let node = format!("{prefix}.node{i:02}");
            registry.set(&format!("{node}.clock_ns"), *clock);
            registry.set(&format!("{node}.cpu_ns"), n.cpu_ns);
            registry.set(&format!("{node}.disk_write_ns"), n.disk_write_ns);
            registry.set(&format!("{node}.disk_read_ns"), n.disk_read_ns);
            registry.set(&format!("{node}.net_ns"), n.net_ns);
            registry.set(&format!("{node}.idle_ns"), n.idle_ns);
            registry.set(&format!("{node}.bytes_written"), n.bytes_written);
            registry.set(&format!("{node}.bytes_read"), n.bytes_read);
            registry.set(&format!("{node}.bytes_sent"), n.bytes_sent);
            registry.set(&format!("{node}.cells_written"), n.cells_written);
            registry.set(&format!("{node}.file_switches"), n.file_switches);
            registry.set(&format!("{node}.messages"), n.messages);
            registry.set(&format!("{node}.tasks"), n.tasks);
            registry.set(&format!("{node}.barriers"), n.barriers);
            registry.set(&format!("{node}.peak_mem_bytes"), n.peak_mem_bytes);
            registry.set(&format!("{node}.crashed"), n.crashed);
            registry.set(&format!("{node}.slowdown_ns"), n.slowdown_ns);
            registry.set(&format!("{node}.tasks_lost"), n.tasks_lost);
            registry.set(&format!("{node}.tasks_recovered"), n.tasks_recovered);
            registry.set(&format!("{node}.rpc_retries"), n.rpc_retries);
            registry.set(&format!("{node}.retransmits"), n.retransmits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cpu: u64, io: u64) -> NodeStats {
        NodeStats {
            cpu_ns: cpu,
            disk_write_ns: io,
            ..NodeStats::default()
        }
    }

    #[test]
    fn busy_and_io_compose() {
        let s = NodeStats {
            cpu_ns: 10,
            disk_write_ns: 20,
            disk_read_ns: 5,
            net_ns: 7,
            idle_ns: 100,
            ..NodeStats::default()
        };
        assert_eq!(s.busy_ns(), 42);
        assert_eq!(s.io_ns(), 25);
    }

    #[test]
    fn merge_adds_and_maxes() {
        let mut a = stats(10, 5);
        a.peak_mem_bytes = 100;
        let mut b = stats(1, 2);
        b.peak_mem_bytes = 300;
        a.merge(&b);
        assert_eq!(a.cpu_ns, 11);
        assert_eq!(a.disk_write_ns, 7);
        assert_eq!(a.peak_mem_bytes, 300);
    }

    #[test]
    fn makespan_and_imbalance() {
        let rs = RunStats::new(vec![stats(100, 0), stats(300, 0)], vec![120, 310]);
        assert_eq!(rs.makespan_ns(), 310);
        // loads 100 and 300, mean 200, max 300 → 1.5
        assert!((rs.imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn perfectly_balanced_run_has_imbalance_one() {
        let rs = RunStats::new(vec![stats(5, 5); 4], vec![10; 4]);
        assert!((rs.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_work_is_not_a_division_by_zero() {
        let rs = RunStats::new(vec![NodeStats::default(); 2], vec![0, 0]);
        assert_eq!(rs.imbalance(), 1.0);
        assert_eq!(rs.makespan_ns(), 0);
    }
}
