//! Deterministic fault injection for the simulated cluster.
//!
//! The paper's MPI testbed silently assumes all sixteen PCs survive a
//! run. A [`FaultPlan`] removes that assumption *reproducibly*: crashes
//! fire at fixed virtual times, transient slowdowns inflate work inside
//! fixed virtual-time windows, and message drops/delays are decided by a
//! seeded hash of the message index — so a faulty run is exactly as
//! bit-for-bit repeatable as a fault-free one.
//!
//! The model (documented in `DESIGN.md` §2):
//!
//! * **Crash** — a *process* crash at a virtual instant. The node's
//!   clock freezes there, every later charge is a no-op, and the task it
//!   was executing is lost; cuboids it finished *before* the crash are
//!   durable (they were flushed to disk / collected by the manager).
//!   The manager itself is assumed to survive (or fail over instantly),
//!   as in any primary-backup manager deployment; faults kill workers.
//! * **Slowdown** — work started inside `[from_ns, until_ns)` costs
//!   `factor_pct`% of its nominal time (a straggler: thermal throttling,
//!   a co-tenant, a failing disk).
//! * **Message faults** — each transfer attempt may be dropped (sender
//!   retransmits after a timeout, up to [`RecoveryPolicy::max_retries`],
//!   after which delivery is forced) or delayed. Faults only ever cost
//!   *time*; payloads are never corrupted and the final retry always
//!   delivers, so the computed cube cannot change — only the schedule
//!   and the makespan do. The seeded chaos suite proves exactly that.
//!
//! Everything is integer arithmetic so plans derive `Eq` and runs stay
//! deterministic across platforms.

/// A node crash at a fixed virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// The node that dies.
    pub node: usize,
    /// Virtual time of death: the node's clock can never pass this.
    pub at_ns: u64,
}

/// A transient slowdown window on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slowdown {
    /// The straggling node.
    pub node: usize,
    /// Window start (inclusive).
    pub from_ns: u64,
    /// Window end (exclusive).
    pub until_ns: u64,
    /// Cost multiplier in percent; 300 means work takes 3× as long.
    /// Values below 100 are treated as 100 (no speed-ups).
    pub factor_pct: u32,
}

/// Seeded message-fault rates, applied per transfer attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetFaults {
    /// Probability a transfer attempt is dropped, in per-mille.
    pub drop_per_mille: u32,
    /// Probability a delivered message is delayed, in per-mille.
    pub delay_per_mille: u32,
    /// Extra latency a delayed message suffers.
    pub delay_ns: u64,
}

/// How the self-healing scheduler reacts to failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Virtual time between a worker's death and the manager noticing
    /// (missed heartbeats); a lost task cannot be reassigned earlier.
    pub detect_timeout_ns: u64,
    /// Sender-side ack timeout before a dropped message is retransmitted.
    pub retry_backoff_ns: u64,
    /// Retransmissions allowed per message; the attempt after the last
    /// retry always delivers, so drops cost time but never data.
    pub max_retries: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            // ≈25 fast-Ethernet RPC round trips: long enough that the
            // manager never declares a slow worker dead by mistake.
            detect_timeout_ns: 5_000_000,
            retry_backoff_ns: 400_000,
            max_retries: 3,
        }
    }
}

/// The fate of one message-transfer attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFate {
    /// Arrives normally.
    Deliver,
    /// Arrives late by the given extra nanoseconds.
    Delay(u64),
    /// Lost; the sender times out and retransmits.
    Drop,
}

/// A complete, seeded fault schedule for one run.
///
/// An empty (default) plan is *quiet*: every charge and transfer behaves
/// exactly as it did before fault injection existed, bit for bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for message-fault decisions.
    pub seed: u64,
    /// Scheduled node crashes.
    pub crashes: Vec<Crash>,
    /// Scheduled slowdown windows.
    pub slowdowns: Vec<Slowdown>,
    /// Message drop/delay rates.
    pub net: NetFaults,
    /// Detection and retry parameters.
    pub policy: RecoveryPolicy,
}

impl FaultPlan {
    /// The quiet plan: no faults, classic behaviour.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when message faults are possible.
    pub fn has_net_faults(&self) -> bool {
        self.net.drop_per_mille > 0 || self.net.delay_per_mille > 0
    }

    /// Adds a crash (builder style).
    #[must_use]
    pub fn crash(mut self, node: usize, at_ns: u64) -> Self {
        self.crashes.push(Crash { node, at_ns });
        self
    }

    /// Adds a slowdown window (builder style).
    #[must_use]
    pub fn slow(mut self, node: usize, from_ns: u64, until_ns: u64, factor_pct: u32) -> Self {
        self.slowdowns.push(Slowdown {
            node,
            from_ns,
            until_ns,
            factor_pct,
        });
        self
    }

    /// Sets message-fault rates (builder style).
    #[must_use]
    pub fn net(mut self, net: NetFaults) -> Self {
        self.net = net;
        self
    }

    /// Sets the recovery policy (builder style).
    #[must_use]
    pub fn policy(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Generates a moderate-severity plan from a seed, for a cluster of
    /// `nodes` whose fault-free run lasts about `horizon_ns`.
    ///
    /// Equivalent to [`FaultPlan::seeded_severity`] at 100%.
    pub fn seeded(seed: u64, nodes: usize, horizon_ns: u64) -> Self {
        Self::seeded_severity(seed, nodes, horizon_ns, 100)
    }

    /// Generates a plan from a seed, scaled by `severity_pct` (0 = quiet,
    /// 100 = moderate, 200 = harsh).
    ///
    /// Crashes are capped at `nodes - 1` so at least one worker always
    /// survives to finish the cube; crash times fall inside the run's
    /// expected span so they actually fire. Same inputs → identical plan.
    pub fn seeded_severity(seed: u64, nodes: usize, horizon_ns: u64, severity_pct: u32) -> Self {
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        if severity_pct == 0 || nodes == 0 || horizon_ns == 0 {
            return plan;
        }
        let mut stream = seed ^ 0x1ceb_0000_dead_beef;
        let mut next = move || {
            stream = stream.wrapping_add(0x9e37_79b9_7f4a_7c15);
            splitmix64(stream)
        };
        let sev = severity_pct as u64;

        // Crashes: roughly sev% of (2/5 of the cluster), at least one,
        // never the whole cluster. Victims are a seeded partial shuffle.
        let max_crashes = nodes.saturating_sub(1);
        let want = ((nodes as u64 * sev).div_ceil(250) as usize).max(1);
        let crashes = want.min(max_crashes);
        let mut roster: Vec<usize> = (0..nodes).collect();
        for v in 0..crashes {
            let pick = v + (next() as usize % (nodes - v));
            roster.swap(v, pick);
            // Most crashes land mid-run; the span reaches past the quiet
            // horizon because recovery itself extends the run.
            let at_ns = horizon_ns / 8 + next() % horizon_ns;
            plan.crashes.push(Crash {
                node: roster[v],
                at_ns,
            });
        }

        // Slowdowns: each node independently straggles with probability
        // ~30%·sev, for a window of 1/16..5/16 of the horizon.
        for node in 0..nodes {
            if next() % 1000 < (300 * sev / 100).min(1000) {
                let from_ns = next() % (horizon_ns / 2).max(1);
                let len = horizon_ns / 16 + next() % (horizon_ns / 4).max(1);
                let factor_pct = 150 + (next() % 251) as u32; // 150..=400
                plan.slowdowns.push(Slowdown {
                    node,
                    from_ns,
                    until_ns: from_ns + len,
                    factor_pct,
                });
            }
        }

        // Message faults: a few percent of attempts dropped, a few more
        // delayed by a latency-scale bump.
        plan.net = NetFaults {
            drop_per_mille: ((30 * sev / 100) as u32).min(500),
            delay_per_mille: ((60 * sev / 100) as u32).min(500),
            delay_ns: (horizon_ns / 2000).clamp(50_000, 2_000_000),
        };
        plan
    }

    /// The earliest scheduled crash time for `node`, if any.
    pub fn crash_time(&self, node: usize) -> Option<u64> {
        self.crashes
            .iter()
            .filter(|c| c.node == node)
            .map(|c| c.at_ns)
            .min()
    }

    /// The slowdown windows affecting `node`.
    pub fn slowdowns_for(&self, node: usize) -> Vec<Slowdown> {
        self.slowdowns
            .iter()
            .filter(|s| s.node == node)
            .copied()
            .collect()
    }

    /// Decides the fate of one transfer attempt, identified by the
    /// sender, the receiver and the sender's running message index. The
    /// decision is a pure seeded hash: same message, same fate, always.
    pub fn net_fate(&self, from: usize, to: usize, msg_index: u64) -> NetFate {
        if !self.has_net_faults() {
            return NetFate::Deliver;
        }
        let h = splitmix64(
            self.seed
                ^ (from as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ (to as u64).rotate_left(32)
                ^ msg_index.wrapping_mul(0xbf58_476d_1ce4_e5b9),
        );
        let roll = (h % 1000) as u32;
        if roll < self.net.drop_per_mille {
            NetFate::Drop
        } else if roll < self.net.drop_per_mille + self.net.delay_per_mille {
            NetFate::Delay(self.net.delay_ns)
        } else {
            NetFate::Deliver
        }
    }
}

/// The splitmix64 finalizer: the one mixing primitive every seeded fault
/// decision goes through (no external RNG dependency, fully portable).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_is_quiet() {
        let quiet = FaultPlan::none();
        assert!(quiet.crashes.is_empty() && quiet.slowdowns.is_empty());
        assert!(!quiet.has_net_faults());
        assert_eq!(quiet.net_fate(0, 1, 7), NetFate::Deliver);
        assert!(!FaultPlan::none().crash(1, 50).crashes.is_empty());
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let a = FaultPlan::seeded(7, 8, 1_000_000_000);
        let b = FaultPlan::seeded(7, 8, 1_000_000_000);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(8, 8, 1_000_000_000);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn seeded_plans_spare_at_least_one_node() {
        for seed in 0..50 {
            for nodes in [1usize, 2, 3, 8, 16] {
                let plan = FaultPlan::seeded_severity(seed, nodes, 500_000_000, 200);
                let mut victims: Vec<usize> = plan.crashes.iter().map(|c| c.node).collect();
                victims.sort_unstable();
                victims.dedup();
                assert!(
                    victims.len() < nodes.max(1),
                    "seed {seed}: all {nodes} nodes crash"
                );
                assert!(victims.iter().all(|&v| v < nodes));
            }
        }
    }

    #[test]
    fn seeded_plans_inject_something() {
        let plan = FaultPlan::seeded(3, 8, 1_000_000_000);
        assert!(!plan.crashes.is_empty());
        assert!(plan.has_net_faults());
    }

    #[test]
    fn net_fate_is_deterministic_and_roughly_at_rate() {
        let plan = FaultPlan::none().net(NetFaults {
            drop_per_mille: 100,
            delay_per_mille: 100,
            delay_ns: 1000,
        });
        let mut drops = 0;
        let mut delays = 0;
        for i in 0..10_000u64 {
            match plan.net_fate(0, 1, i) {
                NetFate::Drop => drops += 1,
                NetFate::Delay(ns) => {
                    assert_eq!(ns, 1000);
                    delays += 1;
                }
                NetFate::Deliver => {}
            }
            assert_eq!(plan.net_fate(0, 1, i), plan.net_fate(0, 1, i));
        }
        assert!((500..2000).contains(&drops), "drops {drops}");
        assert!((500..2000).contains(&delays), "delays {delays}");
    }

    #[test]
    fn crash_time_takes_the_earliest() {
        let plan = FaultPlan::none().crash(2, 900).crash(2, 400).crash(1, 10);
        assert_eq!(plan.crash_time(2), Some(400));
        assert_eq!(plan.crash_time(1), Some(10));
        assert_eq!(plan.crash_time(0), None);
    }

    #[test]
    fn severity_zero_is_quiet() {
        let plan = FaultPlan::seeded_severity(9, 8, 1_000_000, 0);
        assert_eq!(
            plan,
            FaultPlan {
                seed: 9,
                ..FaultPlan::none()
            }
        );
    }
}
