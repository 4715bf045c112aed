//! A complete run's trace: one virtual-clock-ordered event stream per node.

use crate::event::{EventKind, TraceBuffer, TraceEvent};

/// All events recorded during one cluster run, indexed by node id.
///
/// Built by draining every node's [`TraceBuffer`] once the run finishes;
/// carried on the run's `ExecReport` so callers can export or inspect it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceLog {
    nodes: Vec<Vec<TraceEvent>>,
}

impl TraceLog {
    /// Assembles a log from per-node buffers (vector index = node id).
    pub fn from_buffers(buffers: Vec<TraceBuffer>) -> Self {
        TraceLog {
            nodes: buffers.into_iter().map(TraceBuffer::into_events).collect(),
        }
    }

    /// Number of nodes the run had.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Node `id`'s events in virtual-clock order (empty if out of range).
    pub fn node(&self, id: usize) -> &[TraceEvent] {
        self.nodes.get(id).map_or(&[], Vec::as_slice)
    }

    /// Total events across all nodes.
    pub fn total_events(&self) -> usize {
        self.nodes.iter().map(Vec::len).sum()
    }

    /// Per-node counts of events whose kind matches `pred`.
    pub fn count_per_node(&self, pred: impl Fn(&EventKind) -> bool) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|ev| ev.iter().filter(|e| pred(&e.kind)).count() as u64)
            .collect()
    }

    /// Total count across all nodes of events whose kind matches `pred`.
    pub fn count_total(&self, pred: impl Fn(&EventKind) -> bool) -> u64 {
        self.count_per_node(pred).iter().sum()
    }

    /// Per-node `TaskStart` counts — one per task span opened, which the
    /// cluster keeps in lockstep with its `NodeStats::tasks` counter.
    pub fn task_spans_per_node(&self) -> Vec<u64> {
        self.count_per_node(|k| matches!(k, EventKind::TaskStart { .. }))
    }

    /// The run's total communication volume: the sum of every `MsgSend`
    /// payload plus every `Rpc` round trip, retransmits and retries
    /// included (the bytes that actually hit the wire). `MsgRecv` is
    /// deliberately excluded — each delivery's bytes are already counted
    /// on the sending side.
    pub fn comm_volume_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .flat_map(|ev| ev.iter())
            .map(|e| match e.kind {
                EventKind::MsgSend { bytes, .. } | EventKind::Rpc { bytes } => bytes,
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceLog {
        let mut a = TraceBuffer::new();
        a.record(0, EventKind::TaskStart { task: 1 });
        a.record(10, EventKind::MsgSend { to: 1, bytes: 64 });
        a.record(20, EventKind::TaskEnd { task: 1 });
        let mut b = TraceBuffer::new();
        b.record(12, EventKind::MsgRecv { from: 0, bytes: 64 });
        b.record(15, EventKind::MsgSend { to: 0, bytes: 8 });
        b.record(22, EventKind::Rpc { bytes: 128 });
        b.record(30, EventKind::Crash);
        TraceLog::from_buffers(vec![a, b])
    }

    #[test]
    fn per_node_access_and_counts() {
        let log = sample();
        assert_eq!(log.node_count(), 2);
        assert_eq!(log.total_events(), 7);
        assert_eq!(log.node(0).len(), 3);
        assert!(log.node(7).is_empty());
        assert_eq!(log.task_spans_per_node(), vec![1, 0]);
        assert_eq!(log.count_total(|k| matches!(k, EventKind::Crash)), 1);
    }

    #[test]
    fn comm_volume_sums_sends_and_rpcs_not_receipts() {
        assert_eq!(sample().comm_volume_bytes(), 72 + 128);
    }
}
