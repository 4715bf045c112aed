//! Per-node simulation state: virtual clock, disk head, counters.

use crate::config::{CpuCosts, DiskModel, NetModel, NodeSpec};
use crate::fault::{FaultPlan, Slowdown};
use crate::stats::NodeStats;
use icecube_trace::{CostSnapshot, EventKind, TraceBuffer};

/// One simulated machine: a virtual clock plus the local disk state and
/// accounting counters. All costs are charged explicitly by the algorithms
/// through the methods here, from deterministic operation counts.
///
/// A node may carry injected faults (see [`crate::fault::FaultPlan`]):
/// a crash freezes its clock at the scheduled instant and turns every
/// later charge into a no-op, and slowdown windows inflate work started
/// inside them. With no faults attached, every method behaves exactly as
/// it did before fault injection existed.
#[derive(Debug, Clone)]
pub struct SimNode {
    id: usize,
    spec: NodeSpec,
    disk: DiskModel,
    net: NetModel,
    cpu: CpuCosts,
    clock_ns: u64,
    /// The cuboid file the disk head last wrote to; switching files costs
    /// `disk.switch_ns` (the depth-first-writing penalty of Figure 3.6).
    last_file: Option<u64>,
    /// Running estimate of live memory on this node.
    mem_used: u64,
    /// Scheduled crash instant: the clock can never pass this.
    crash_at: Option<u64>,
    /// Injected slowdown windows affecting this node.
    slowdowns: Vec<Slowdown>,
    /// Set once the crash fires; dead nodes ignore all charges.
    dead: bool,
    /// Virtual-time event buffer; `None` (the default) records nothing,
    /// so untraced runs skip tracing entirely.
    trace: Option<Box<TraceBuffer>>,
    /// Per-node statistics.
    pub stats: NodeStats,
}

impl SimNode {
    /// Creates a node at virtual time zero.
    pub fn new(id: usize, spec: NodeSpec, disk: DiskModel, net: NetModel, cpu: CpuCosts) -> Self {
        SimNode {
            id,
            spec,
            disk,
            net,
            cpu,
            clock_ns: 0,
            last_file: None,
            mem_used: 0,
            crash_at: None,
            slowdowns: Vec::new(),
            dead: false,
            trace: None,
            stats: NodeStats::default(),
        }
    }

    /// Attaches an empty trace buffer; subsequent events are recorded.
    pub(crate) fn attach_trace(&mut self) {
        self.trace = Some(Box::default());
    }

    /// Detaches and returns the trace buffer (empty if none was attached).
    pub(crate) fn take_trace_buffer(&mut self) -> TraceBuffer {
        self.trace.take().map(|b| *b).unwrap_or_default()
    }

    /// Records `kind` at the node's current virtual clock. A no-op when no
    /// trace buffer is attached — recording charges nothing and mutates no
    /// counter, so traced and untraced runs are cost-identical.
    #[inline]
    pub fn trace_event(&mut self, kind: EventKind) {
        if let Some(b) = &mut self.trace {
            b.record(self.clock_ns, kind);
        }
    }

    /// Opens a named phase span at the current clock.
    pub fn phase_start(&mut self, name: &'static str) {
        self.trace_event(EventKind::PhaseStart { name });
    }

    /// Closes the named phase span, capturing the node's cumulative cost
    /// counters so exporters can compute per-phase deltas.
    pub fn phase_end(&mut self, name: &'static str) {
        let costs = self.cost_snapshot();
        self.trace_event(EventKind::PhaseEnd { name, costs });
    }

    /// The node's cumulative cost counters as a trace snapshot.
    pub fn cost_snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            cpu_ns: self.stats.cpu_ns,
            disk_write_ns: self.stats.disk_write_ns,
            disk_read_ns: self.stats.disk_read_ns,
            net_ns: self.stats.net_ns,
            idle_ns: self.stats.idle_ns,
            bytes_sent: self.stats.bytes_sent,
            bytes_read: self.stats.bytes_read,
            messages: self.stats.messages,
            tasks: self.stats.tasks,
            cells_written: self.stats.cells_written,
        }
    }

    /// Attaches this node's slice of a fault plan. A crash scheduled at
    /// or before the current clock fires immediately.
    pub fn set_faults(&mut self, plan: &FaultPlan) {
        self.crash_at = plan.crash_time(self.id);
        self.slowdowns = plan.slowdowns_for(self.id);
        if let Some(at) = self.crash_at {
            if at <= self.clock_ns {
                self.die();
            }
        }
    }

    /// True once the node's scheduled crash has fired.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The crash instant this node is doomed to, if any.
    pub fn crash_at(&self) -> Option<u64> {
        self.crash_at
    }

    fn die(&mut self) {
        if self.dead {
            return;
        }
        self.dead = true;
        self.stats.crashed = 1;
        // The clock is frozen at the crash instant, so this stamps the
        // exact virtual time of death — and exactly once.
        self.trace_event(EventKind::Crash);
    }

    /// Moves the clock forward by up to `t`, stopping (and dying) at the
    /// scheduled crash instant. Returns the time that actually elapsed.
    fn clamp_elapse(&mut self, t: u64) -> u64 {
        if self.dead {
            return 0;
        }
        let actual = match self.crash_at {
            Some(at) if self.clock_ns + t > at => {
                let a = at.saturating_sub(self.clock_ns);
                self.die();
                a
            }
            _ => t,
        };
        self.clock_ns += actual;
        actual
    }

    /// Performs `nominal` ns of busy work: inflated by any slowdown
    /// window covering its start instant, cut short by a crash. Returns
    /// the time actually spent; the node completed the work iff it is
    /// still alive afterwards.
    fn elapse_busy(&mut self, nominal: u64) -> u64 {
        if self.dead || nominal == 0 {
            return 0;
        }
        // Without slowdown windows (the fault-free common case) the factor
        // is exactly 100 and `nominal * 100 / 100` is the identity, so the
        // window scan and widening arithmetic can be skipped outright.
        let inflated = if self.slowdowns.is_empty() {
            nominal
        } else {
            let factor = self
                .slowdowns
                .iter()
                .filter(|s| s.from_ns <= self.clock_ns && self.clock_ns < s.until_ns)
                .map(|s| s.factor_pct.max(100))
                .max()
                .unwrap_or(100) as u64;
            nominal * factor / 100
        };
        let actual = self.clamp_elapse(inflated);
        self.stats.slowdown_ns += (inflated - nominal).min(actual);
        actual
    }

    /// Node identifier (its rank in the cluster).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Hardware description.
    pub fn spec(&self) -> NodeSpec {
        self.spec
    }

    /// Current virtual time.
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Advances the clock (used by [`crate::SimCluster`]), stopping at a
    /// scheduled crash. Returns the time that actually elapsed.
    pub(crate) fn advance(&mut self, ns: u64) -> u64 {
        self.clamp_elapse(ns)
    }

    /// Blocks until `t`: if the clock is behind, the gap counts as idle
    /// time (waiting on a message, a barrier, or the manager). A node can
    /// die waiting — the crash fires if the target lies past it.
    pub fn wait_until(&mut self, t: u64) {
        if self.dead {
            return;
        }
        let target = match self.crash_at {
            Some(at) => t.min(at),
            None => t,
        };
        if target > self.clock_ns {
            self.stats.idle_ns += target - self.clock_ns;
            self.clock_ns = target;
        }
        if self.crash_at.is_some_and(|at| t > at) {
            self.die();
        }
    }

    /// Charges CPU work quoted in reference-node nanoseconds; slower nodes
    /// take proportionally longer.
    pub fn charge_cpu(&mut self, reference_ns: u64) {
        // A reference-speed node scales by exactly 1.0, and `f64` is exact
        // for integers up to 2^53, so the scale-and-round trip is the
        // identity — skip the float arithmetic on this (dominant) path.
        let t = if self.spec.mhz == crate::config::REFERENCE_MHZ
            && reference_ns <= (1u64 << f64::MANTISSA_DIGITS)
        {
            reference_ns
        } else {
            (reference_ns as f64 * self.spec.cpu_scale()).round() as u64
        };
        let actual = self.elapse_busy(t);
        self.stats.cpu_ns += actual;
    }

    /// Charges the scan of `tuples` rows from memory.
    pub fn charge_scan(&mut self, tuples: u64) {
        self.charge_cpu(tuples * self.cpu.tuple_scan_ns);
    }

    /// Charges moving `tuples` rows (partitioning, counting sort).
    pub fn charge_moves(&mut self, tuples: u64) {
        self.charge_cpu(tuples * self.cpu.tuple_move_ns);
    }

    /// Charges `n` key-element comparisons (sorting, skip-list search).
    pub fn charge_comparisons(&mut self, n: u64) {
        self.charge_cpu(n * self.cpu.cmp_ns);
    }

    /// Charges `n` in-place aggregate updates.
    pub fn charge_agg_updates(&mut self, n: u64) {
        self.charge_cpu(n * self.cpu.agg_update_ns);
    }

    /// Charges `n` hash-table probes.
    pub fn charge_hash_probes(&mut self, n: u64) {
        self.charge_cpu(n * self.cpu.hash_probe_ns);
    }

    /// Charges fixed per-task setup overhead and opens a trace span for
    /// lattice node `task`. A node that dies during setup never counts
    /// the task as started; the span is recorded iff the task counter
    /// increments, so per-node `TaskStart` events always sum to
    /// `stats.tasks`.
    pub fn charge_task_overhead_for(&mut self, task: u64) {
        self.charge_cpu(self.cpu.task_overhead_ns);
        if !self.dead {
            self.stats.tasks += 1;
            self.trace_event(EventKind::TaskStart { task });
        }
    }

    /// Notes a task lost to this node's crash: counter and trace event
    /// move together, so `TaskLost` events always sum to
    /// `stats.tasks_lost` (the event is stamped at the frozen crash clock).
    pub fn note_task_lost(&mut self) {
        self.stats.tasks_lost += 1;
        self.trace_event(EventKind::TaskLost);
    }

    /// Notes a lost task recovered on this node (re-run or re-derived);
    /// the pair moves together like [`SimNode::note_task_lost`].
    pub fn note_task_recovered(&mut self) {
        self.stats.tasks_recovered += 1;
        self.trace_event(EventKind::TaskRecovered);
    }

    /// Closes the trace span for `task`, if this node is still alive to
    /// have completed it (a crashed node's span stays open — the Gantt
    /// view then shows the cut-short task running into the crash marker).
    pub fn trace_task_end(&mut self, task: u64) {
        if !self.dead {
            self.trace_event(EventKind::TaskEnd { task });
        }
    }

    /// Writes `bytes` of cells to the output file identified by `file`
    /// (one file per cuboid, as the paper's implementations keep). A write
    /// to a different file than the previous one pays the switch penalty —
    /// this single rule reproduces the depth- vs breadth-first writing gap.
    pub fn write_cells(&mut self, file: u64, bytes: u64, cells: u64) {
        if self.dead {
            return;
        }
        let mut t = bytes * self.disk.write_byte_ns;
        let switched = self.last_file != Some(file);
        if switched {
            t += self.disk.switch_ns;
        }
        let actual = self.elapse_busy(t);
        self.stats.disk_write_ns += actual;
        if self.dead {
            // Died mid-write: the incomplete output never counts (the
            // self-healing scheduler rolls the whole task back anyway).
            return;
        }
        if switched {
            self.stats.file_switches += 1;
            self.last_file = Some(file);
        }
        self.stats.bytes_written += bytes;
        self.stats.cells_written += cells;
        self.charge_cpu(cells * self.cpu.cell_emit_ns);
    }

    /// Reads `bytes` sequentially from local disk.
    pub fn read_bytes(&mut self, bytes: u64) {
        if self.dead {
            return;
        }
        let t = bytes * self.disk.read_byte_ns;
        let actual = self.elapse_busy(t);
        self.stats.disk_read_ns += actual;
        if !self.dead {
            self.stats.bytes_read += bytes;
        }
    }

    /// Charges time spent waiting on / driving a network transfer this
    /// node requested (the requester side of a chunk fetch).
    pub fn charge_net(&mut self, ns: u64) {
        let actual = self.elapse_busy(ns);
        self.stats.net_ns += actual;
    }

    /// Charges one manager/worker RPC round trip (request + reply). The
    /// trace event is recorded iff the message counter moves, so per-node
    /// `Rpc` events always account for exactly `2 × count` of the
    /// control messages in `stats.messages`.
    pub fn charge_rpc(&mut self) {
        if self.dead {
            return;
        }
        let t = 2 * self.net.rpc_ns();
        let actual = self.elapse_busy(t);
        self.stats.net_ns += actual;
        if !self.dead {
            self.stats.messages += 2;
            self.trace_event(EventKind::Rpc {
                bytes: 2 * NetModel::RPC_MSG_BYTES,
            });
        }
    }

    /// Notes an allocation of `bytes`, tracking the peak for the memory
    /// figures and for the hash-tree algorithm's out-of-memory failure.
    pub fn alloc(&mut self, bytes: u64) {
        self.mem_used += bytes;
        self.stats.peak_mem_bytes = self.stats.peak_mem_bytes.max(self.mem_used);
    }

    /// Notes that `bytes` were released.
    pub fn free(&mut self, bytes: u64) {
        self.mem_used = self.mem_used.saturating_sub(bytes);
    }

    /// Live memory estimate.
    pub fn mem_used(&self) -> u64 {
        self.mem_used
    }

    /// True when an allocation of `bytes` more would exceed the node's
    /// physical memory.
    pub fn would_exceed_memory(&self, bytes: u64) -> bool {
        self.mem_used + bytes > self.spec.mem_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, DiskModel};

    fn node() -> SimNode {
        let c = ClusterConfig::fast_ethernet(1);
        SimNode::new(0, c.nodes[0], c.disk, c.net, c.cpu)
    }

    #[test]
    fn cpu_charges_scale_with_clock_speed() {
        let c = ClusterConfig::fast_ethernet(1);
        let mut fast = SimNode::new(0, NodeSpec::FAST, c.disk, c.net, c.cpu);
        let mut slow = SimNode::new(1, NodeSpec::SLOW, c.disk, c.net, c.cpu);
        fast.charge_cpu(1_000_000);
        slow.charge_cpu(1_000_000);
        let ratio = slow.clock_ns() as f64 / fast.clock_ns() as f64;
        assert!((ratio - 500.0 / 266.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn file_switches_cost_a_seek() {
        let mut n = node();
        n.write_cells(1, 100, 1);
        let one_switch = n.stats.file_switches;
        n.write_cells(1, 100, 1); // same file: sequential
        assert_eq!(n.stats.file_switches, one_switch);
        n.write_cells(2, 100, 1); // different file: seek
        n.write_cells(1, 100, 1); // back again: seek
        assert_eq!(n.stats.file_switches, 3);
        assert_eq!(n.stats.cells_written, 4);
        assert_eq!(n.stats.bytes_written, 400);
    }

    #[test]
    fn scattered_writes_cost_more_than_sequential() {
        let mut scattered = node();
        let mut sequential = node();
        for i in 0..100u64 {
            scattered.write_cells(i % 7, 36, 1);
            sequential.write_cells(0, 36, 1);
        }
        assert!(scattered.stats.disk_write_ns > 3 * sequential.stats.disk_write_ns);
    }

    #[test]
    fn wait_until_accrues_idle_and_never_rewinds() {
        let mut n = node();
        n.charge_cpu(500);
        let t = n.clock_ns();
        n.wait_until(t + 1000);
        assert_eq!(n.stats.idle_ns, 1000);
        n.wait_until(0);
        assert_eq!(n.clock_ns(), t + 1000);
    }

    #[test]
    fn memory_tracking_peaks_and_frees() {
        let mut n = node();
        n.alloc(1000);
        n.alloc(2000);
        n.free(2500);
        n.alloc(100);
        assert_eq!(n.mem_used(), 600);
        assert_eq!(n.stats.peak_mem_bytes, 3000);
        assert!(!n.would_exceed_memory(1024));
        assert!(n.would_exceed_memory(u64::MAX / 2));
    }

    #[test]
    fn a_crash_freezes_the_clock_mid_charge() {
        let mut n = node();
        n.set_faults(&FaultPlan::none().crash(0, 1_000));
        n.charge_cpu(600);
        assert!(!n.is_dead());
        n.charge_cpu(600); // would end at 1200; dies at 1000
        assert!(n.is_dead());
        assert_eq!(n.clock_ns(), 1_000);
        assert_eq!(n.stats.crashed, 1);
        let frozen = n.stats.clone();
        n.charge_cpu(10_000);
        n.write_cells(3, 100, 5);
        n.read_bytes(100);
        n.charge_rpc();
        n.charge_task_overhead_for(0);
        n.wait_until(1_000_000);
        assert_eq!(n.clock_ns(), 1_000, "dead clocks never move");
        assert_eq!(n.stats, frozen, "dead nodes stop accounting");
    }

    #[test]
    fn a_crash_can_fire_while_waiting() {
        let mut n = node();
        n.set_faults(&FaultPlan::none().crash(0, 500));
        n.wait_until(2_000);
        assert!(n.is_dead());
        assert_eq!(n.clock_ns(), 500);
        assert_eq!(n.stats.idle_ns, 500);
    }

    #[test]
    fn dying_mid_write_discards_the_incomplete_output() {
        let mut n = node();
        n.set_faults(&FaultPlan::none().crash(0, 10));
        n.write_cells(1, 1_000_000, 100);
        assert!(n.is_dead());
        assert_eq!(n.stats.cells_written, 0);
        assert_eq!(n.stats.bytes_written, 0);
        assert_eq!(n.stats.file_switches, 0);
        assert_eq!(n.stats.disk_write_ns, 10, "partial time still passed");
    }

    #[test]
    fn slowdown_windows_inflate_work_started_inside_them() {
        let mut n = node();
        n.set_faults(&FaultPlan::none().slow(0, 0, 1_000, 300));
        n.charge_cpu(100); // starts at 0, inside the window: 3×
        assert_eq!(n.clock_ns(), 300);
        assert_eq!(n.stats.slowdown_ns, 200);
        n.wait_until(1_000);
        n.charge_cpu(100); // starts at window end: nominal
        assert_eq!(n.clock_ns(), 1_100);
        assert_eq!(n.stats.slowdown_ns, 200);
    }

    #[test]
    fn quiet_plan_changes_nothing() {
        let mut plain = node();
        let mut quiet = node();
        quiet.set_faults(&FaultPlan::none());
        for n in [&mut plain, &mut quiet] {
            n.charge_cpu(123);
            n.write_cells(7, 360, 10);
            n.read_bytes(99);
            n.charge_rpc();
            n.wait_until(1_000_000);
        }
        assert_eq!(plain.stats, quiet.stats);
        assert_eq!(plain.clock_ns(), quiet.clock_ns());
    }

    #[test]
    fn disk_model_constants_are_sane() {
        let d = DiskModel::COMMODITY;
        // The switch penalty should dominate a small cell write but not a
        // large sequential flush.
        assert!(d.switch_ns > 36 * d.write_byte_ns);
        assert!(d.switch_ns < 100_000 * d.write_byte_ns);
    }
}
