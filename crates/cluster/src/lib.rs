#![warn(missing_docs)]

//! A deterministic simulated PC cluster.
//!
//! The paper runs on a heterogeneous cluster of eight 500 MHz PIII and
//! eight 266 MHz PII machines, each with its own disk, connected by
//! 100 Mbit Ethernet (and, for Chapter 5, Myrinet), programmed with MPI.
//! This crate substitutes that testbed with a **virtual-time simulation**
//! (see `DESIGN.md` §2):
//!
//! * every node owns a [`SimNode`] with a virtual clock in nanoseconds;
//! * CPU work is charged from *deterministic operation counts* (tuples
//!   scanned, comparisons made, cells hashed) priced by [`CpuCosts`] and
//!   scaled by the node's clock speed;
//! * disk writes go through a seek-penalty model ([`DiskModel`]) that
//!   reproduces the paper's breadth- vs depth-first writing gap
//!   (Figure 3.6): switching output files costs a seek, sequential bytes
//!   cost bandwidth;
//! * messages advance the receiver's clock to `max(receiver, sender +
//!   latency + bytes/bandwidth)` ([`NetModel`]), which is all the paper's
//!   manager/worker RPC, chunk shipping and barriers need;
//! * the manager/worker RPC of demand scheduling is one priced round
//!   trip per assignment ([`SimNode::charge_rpc`]); the loops that
//!   schedule tasks onto nodes live with the executor
//!   (`icecube_exec::SimExecutor`), not here.
//!
//! Because every cost is derived from deterministic counters, all of the
//! paper's figures regenerate identically on every run.

pub mod config;
pub mod fault;
pub mod node;
pub mod stats;

pub use config::{ClusterConfig, CpuCosts, DiskModel, NetModel, NodeSpec};
pub use fault::{Crash, FaultPlan, NetFate, NetFaults, RecoveryPolicy, Slowdown};
pub use icecube_trace::{CostSnapshot, EventKind, TraceLog};
pub use node::SimNode;
pub use stats::{NodeStats, RunStats};

/// A simulated cluster: node states plus the shared cost model.
#[derive(Debug, Clone)]
pub struct SimCluster {
    /// Per-node simulation state.
    pub nodes: Vec<SimNode>,
    /// The cost model and node roster this cluster was built from.
    pub config: ClusterConfig,
}

impl SimCluster {
    /// Builds the cluster described by `config`, arming any fault plan it
    /// carries.
    pub fn new(config: ClusterConfig) -> Self {
        let nodes = (0..config.len()).filter_map(|id| config.node(id)).collect();
        SimCluster { nodes, config }
    }

    /// Drains every node's trace buffer into one [`TraceLog`] (index =
    /// node id). `None` unless the config enabled tracing. Draining twice
    /// yields an empty log the second time.
    pub fn take_trace(&mut self) -> Option<TraceLog> {
        if !self.config.trace {
            return None;
        }
        Some(TraceLog::from_buffers(
            self.nodes
                .iter_mut()
                .map(SimNode::take_trace_buffer)
                .collect(),
        ))
    }

    /// Opens a named phase span on every node at its current clock.
    pub fn phase_start(&mut self, name: &'static str) {
        for n in &mut self.nodes {
            n.phase_start(name);
        }
    }

    /// Closes the named phase span on every node, capturing each node's
    /// cumulative cost counters for per-phase delta reporting.
    pub fn phase_end(&mut self, name: &'static str) {
        for n in &mut self.nodes {
            n.phase_end(name);
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the cluster has no nodes (never valid for algorithms).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The surviving node with the smallest `(clock, id)` — the one a
    /// demand manager would hand work to next. `None` if all are dead.
    pub fn min_clock_live(&self) -> Option<usize> {
        self.nodes
            .iter()
            .filter(|n| !n.is_dead())
            .min_by_key(|n| (n.clock_ns(), n.id()))
            .map(|n| n.id())
    }

    /// Ships `bytes` from node `from` to node `to`: the sender is busy for
    /// the transfer, the receiver cannot proceed before the data arrives.
    ///
    /// Message faults (if the fault plan injects any) apply *per transfer
    /// attempt*: a dropped attempt costs the sender the transfer plus an
    /// ack-timeout backoff and is retried, and the attempt after the last
    /// allowed retry always delivers — so drops perturb timing, never
    /// data. A sender that dies mid-send loses the message (the receiver
    /// is not advanced); a dead sender is a no-op. So is a self-send:
    /// local data needs no transfer, and access to it is free (the cost
    /// asymmetry is the point of POL's wrap-around task order).
    pub fn send(&mut self, from: usize, to: usize, bytes: u64) {
        if from == to {
            return;
        }
        let policy = self.config.faults.policy;
        let cost = self.config.net.transfer_ns(bytes);
        let mut attempt: u32 = 0;
        let arrival = loop {
            let Some(sender) = self.nodes.get_mut(from) else {
                return;
            };
            if sender.is_dead() {
                return;
            }
            // The sender's running message count is the attempt's identity:
            // the fate of attempt k of this message is a pure hash of it.
            let fate = if attempt >= policy.max_retries {
                fault::NetFate::Deliver
            } else {
                self.config.faults.net_fate(from, to, sender.stats.messages)
            };
            let actual = sender.advance(cost);
            sender.stats.net_ns += actual;
            if sender.is_dead() {
                return;
            }
            sender.stats.messages += 1;
            // One send event per wire attempt: retransmits of a dropped
            // message show up as repeated sends, which is what the wire saw.
            sender.trace_event(icecube_trace::EventKind::MsgSend { to, bytes });
            match fate {
                fault::NetFate::Drop => {
                    sender.stats.retransmits += 1;
                    let waited = sender.advance(policy.retry_backoff_ns);
                    sender.stats.net_ns += waited;
                    attempt += 1;
                }
                fault::NetFate::Delay(extra) => {
                    sender.stats.bytes_sent += bytes;
                    break sender.clock_ns() + extra;
                }
                fault::NetFate::Deliver => {
                    sender.stats.bytes_sent += bytes;
                    break sender.clock_ns();
                }
            }
        };
        // A receiver that dies waiting for the data received nothing.
        if let Some(receiver) = self.nodes.get_mut(to) {
            receiver.wait_until(arrival);
            if !receiver.is_dead() {
                receiver.trace_event(icecube_trace::EventKind::MsgRecv { from, bytes });
            }
        }
    }

    /// Synchronizes all nodes (an MPI-style barrier): every clock advances
    /// to the cluster maximum plus a latency term logarithmic in the node
    /// count; the gap each node waited is accounted as idle time.
    /// Dead nodes neither hold the barrier back nor participate; a node
    /// whose crash instant lies inside the wait dies at the barrier.
    pub fn barrier(&mut self) {
        let max = self
            .nodes
            .iter()
            .filter(|n| !n.is_dead())
            .map(|n| n.clock_ns())
            .max()
            .unwrap_or(0);
        // A tree barrier costs ~ceil(log2 n) latency rounds.
        let rounds = if self.len() <= 1 {
            0
        } else {
            (usize::BITS - (self.len() - 1).leading_zeros()) as u64
        };
        let target = max + self.config.net.latency_ns * rounds;
        for n in &mut self.nodes {
            if n.is_dead() {
                continue;
            }
            n.wait_until(target);
            if !n.is_dead() {
                n.stats.barriers += 1;
            }
        }
    }

    /// The makespan: the largest virtual clock across nodes ("wall clock"
    /// in the paper's figures — the maximum time taken by any processor).
    pub fn makespan_ns(&self) -> u64 {
        self.nodes.iter().map(|n| n.clock_ns()).max().unwrap_or(0)
    }

    /// Snapshot of per-node statistics.
    pub fn run_stats(&self) -> RunStats {
        RunStats::new(
            self.nodes.iter().map(|n| n.stats.clone()).collect(),
            self.nodes.iter().map(|n| n.clock_ns()).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_advances_both_parties() {
        let mut c = SimCluster::new(ClusterConfig::fast_ethernet(2));
        let before_sender = c.nodes[0].clock_ns();
        c.send(0, 1, 1_000_000);
        assert!(c.nodes[0].clock_ns() > before_sender);
        assert_eq!(c.nodes[1].clock_ns(), c.nodes[0].clock_ns());
        assert_eq!(c.nodes[0].stats.bytes_sent, 1_000_000);
        assert!(c.nodes[1].stats.idle_ns > 0);
    }

    #[test]
    fn receiver_already_ahead_does_not_rewind() {
        let mut c = SimCluster::new(ClusterConfig::fast_ethernet(2));
        c.nodes[1].charge_cpu(1_000_000_000);
        let ahead = c.nodes[1].clock_ns();
        c.send(0, 1, 10);
        assert_eq!(c.nodes[1].clock_ns(), ahead, "clock must be monotonic");
    }

    #[test]
    fn self_send_is_free() {
        let cluster = || {
            let mut c = SimCluster::new(ClusterConfig::fast_ethernet(2).with_trace());
            c.nodes[0].charge_cpu(1_000);
            c
        };
        let (mut sent, mut quiet) = (cluster(), cluster());
        sent.send(0, 0, 10);
        assert_eq!(
            sent.run_stats(),
            quiet.run_stats(),
            "no clock or stat moves"
        );
        assert_eq!(sent.take_trace(), quiet.take_trace(), "no event is traced");
    }

    #[test]
    fn barrier_aligns_clocks() {
        let mut c = SimCluster::new(ClusterConfig::fast_ethernet(4));
        c.nodes[2].charge_cpu(5_000_000);
        c.barrier();
        let t0 = c.nodes[0].clock_ns();
        assert!(c.nodes.iter().all(|n| n.clock_ns() == t0));
        assert!(t0 >= 5_000_000);
        assert_eq!(c.nodes[0].stats.barriers, 1);
    }

    #[test]
    fn makespan_is_max_clock() {
        let mut c = SimCluster::new(ClusterConfig::fast_ethernet(3));
        c.nodes[1].charge_cpu(42);
        assert_eq!(c.makespan_ns(), c.nodes[1].clock_ns());
    }

    #[test]
    fn dropped_messages_are_retransmitted_and_still_arrive() {
        let faulty =
            ClusterConfig::fast_ethernet(2).with_faults(FaultPlan::none().net(NetFaults {
                drop_per_mille: 1000, // every attempt short of the cap drops
                delay_per_mille: 0,
                delay_ns: 0,
            }));
        let mut c = SimCluster::new(faulty);
        c.send(0, 1, 10_000);
        let retries = c.config.faults.policy.max_retries as u64;
        assert_eq!(c.nodes[0].stats.retransmits, retries);
        assert_eq!(c.nodes[0].stats.messages, retries + 1);
        assert_eq!(c.nodes[0].stats.bytes_sent, 10_000, "final attempt lands");
        assert_eq!(c.nodes[1].clock_ns(), c.nodes[0].clock_ns());

        let mut quiet = SimCluster::new(ClusterConfig::fast_ethernet(2));
        quiet.send(0, 1, 10_000);
        assert!(
            c.makespan_ns() > quiet.makespan_ns(),
            "drops cost time, never data"
        );
    }

    #[test]
    fn faulty_sends_are_reproducible() {
        let config =
            ClusterConfig::fast_ethernet(2).with_faults(FaultPlan::seeded(11, 2, 1_000_000_000));
        let run = |config: &ClusterConfig| {
            let mut c = SimCluster::new(config.clone());
            for _ in 0..50 {
                c.send(0, 1, 5_000);
            }
            c.run_stats()
        };
        assert_eq!(run(&config), run(&config));
    }

    #[test]
    fn dead_senders_and_barrier_skips() {
        let config = ClusterConfig::fast_ethernet(3).with_faults(FaultPlan::none().crash(1, 1_000));
        let mut c = SimCluster::new(config);
        c.nodes[1].charge_cpu(10_000); // dies at 1 µs
        assert!(c.nodes[1].is_dead());

        let receiver_before = c.nodes[2].clock_ns();
        c.send(1, 2, 1_000_000); // dead sender: message never leaves
        assert_eq!(c.nodes[2].clock_ns(), receiver_before);

        c.nodes[0].charge_cpu(5_000_000);
        c.barrier();
        assert_eq!(c.nodes[1].clock_ns(), 1_000, "dead clock stays frozen");
        assert_eq!(c.nodes[1].stats.barriers, 0);
        assert_eq!(c.nodes[0].stats.barriers, 1);
        assert_eq!(c.nodes[2].clock_ns(), c.nodes[0].clock_ns());
        // The two survivors are aligned after the barrier; ties break by id.
        assert_eq!(c.min_clock_live(), Some(0));
    }

    #[test]
    fn heterogeneous_nodes_run_at_different_speeds() {
        let mut c = SimCluster::new(ClusterConfig::heterogeneous_16());
        assert_eq!(c.len(), 16);
        c.nodes[0].charge_cpu(1000); // 500 MHz node
        c.nodes[8].charge_cpu(1000); // 266 MHz node
        assert!(c.nodes[8].clock_ns() > c.nodes[0].clock_ns());
    }
}
