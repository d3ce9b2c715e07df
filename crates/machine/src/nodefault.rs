//! Deterministic node crash–stop injection.
//!
//! Where [`crate::netfault`] kills *messages*, this module kills *nodes*: a
//! [`NodeFaultConfig`] names crash instants in virtual time, and the machine
//! executes them as crash-stop failures — the application process is torn
//! down, queued work and armed timers are discarded, and in-flight
//! deliveries to the node vanish at its doorstep. A crash is final: the node
//! never comes back, so the workload itself completes on the survivors.
//!
//! Crash schedules can be written out explicitly or drawn from a seeded
//! [`SplitMix64`] stream; either way the schedule is a pure function of the
//! configuration, so the same config replays bit-for-bit. An inactive
//! configuration (no crashes) installs nothing — the machine's event stream
//! is then byte-identical to one that never heard of node faults.

use svm_sim::{SimDuration, SimTime, SplitMix64};

/// One scheduled crash: node `node` stops at `at`, for good.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// Node index to crash.
    pub node: usize,
    /// Virtual time of the crash.
    pub at: SimTime,
}

/// Crash schedule for one run. Default is no crashes, which
/// [`NodeFaultConfig::is_active`] reports as inactive and the machine treats
/// as "no node-fault layer at all".
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeFaultConfig {
    /// The crashes to execute, in any order (the scheduler sorts by time).
    pub crashes: Vec<CrashSpec>,
}

impl NodeFaultConfig {
    /// Progress watchdog window (virtual time) of every active plan: the
    /// run halts with a structured [`crate::RunError`] once no application
    /// has made progress for at least this long (checked once per window),
    /// so a bungled recovery degrades to a clean error instead of spinning
    /// on heartbeats forever. Far beyond any single compute phase of the
    /// scaled workloads, negligible overhead.
    pub const DEFAULT_STALL_LIMIT: SimDuration = SimDuration::from_micros(5_000_000);

    /// Whether any crash can ever fire under this configuration.
    pub fn is_active(&self) -> bool {
        !self.crashes.is_empty()
    }

    /// A single crash of `node` at `at_us` microseconds.
    pub fn crash_at(node: usize, at_us: u64) -> Self {
        NodeFaultConfig {
            crashes: vec![CrashSpec {
                node,
                at: SimTime::ZERO + SimDuration::from_micros(at_us),
            }],
        }
    }

    /// Draw `count` crashes from a seeded stream: victims are non-zero nodes
    /// (node 0 hosts the barrier manager's initial seat and is spared so a
    /// schedule always leaves a deterministic coordinator candidate pool of
    /// the same shape), crash times are uniform in `[window/4, window)`.
    pub fn seeded(seed: u64, nodes: usize, count: usize, window: SimDuration) -> Self {
        assert!(nodes > 1, "need a survivor");
        let mut rng = SplitMix64::new(seed);
        let mut crashes = Vec::with_capacity(count);
        let lo = window.as_nanos() / 4;
        let span = window.as_nanos().saturating_sub(lo).max(1);
        let mut used = vec![false; nodes];
        for _ in 0..count.min(nodes - 1) {
            // Re-draw until an unused non-zero victim comes up; bounded by
            // the pigeonhole on `used`, and deterministic for a given seed.
            let victim = loop {
                let v = 1 + rng.below((nodes - 1) as u64) as usize;
                if !used[v] {
                    used[v] = true;
                    break v;
                }
            };
            let at = SimTime::ZERO + SimDuration::from_nanos(lo + rng.below(span));
            crashes.push(CrashSpec { node: victim, at });
        }
        NodeFaultConfig { crashes }
    }
}

/// What the node-fault layer did to the run (reported in `RunOutcome`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeFaultStats {
    /// Crash-stops executed.
    pub crashes: u64,
    /// Timers, service completions, local posts and app completions aimed
    /// at a node after it crashed (tallied when such an event fires and is
    /// discarded).
    pub discarded_events: u64,
    /// Message deliveries dropped at a crashed node's doorstep.
    pub dropped_deliveries: u64,
}

/// The crash schedule and tallies for one run.
#[derive(Clone, Debug)]
pub struct NodeFaultPlan {
    cfg: NodeFaultConfig,
    stats: NodeFaultStats,
}

impl NodeFaultPlan {
    /// A plan for a machine of `nodes` nodes.
    pub fn new(cfg: NodeFaultConfig, nodes: usize) -> Self {
        for c in &cfg.crashes {
            assert!(c.node < nodes, "crash names node {} of {nodes}", c.node);
        }
        NodeFaultPlan {
            cfg,
            stats: NodeFaultStats::default(),
        }
    }

    /// The configuration this plan runs.
    pub fn config(&self) -> &NodeFaultConfig {
        &self.cfg
    }

    /// Counters so far.
    pub fn stats(&self) -> &NodeFaultStats {
        &self.stats
    }

    /// Mutable counters (machine internals).
    pub(crate) fn stats_mut(&mut self) -> &mut NodeFaultStats {
        &mut self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_config_is_inactive() {
        assert!(!NodeFaultConfig::default().is_active());
        assert!(NodeFaultConfig::crash_at(1, 500).is_active());
    }

    #[test]
    fn seeded_schedules_replay() {
        let a = NodeFaultConfig::seeded(9, 8, 3, SimDuration::from_micros(1_000));
        let b = NodeFaultConfig::seeded(9, 8, 3, SimDuration::from_micros(1_000));
        assert_eq!(a, b);
        assert_eq!(a.crashes.len(), 3);
        let mut victims: Vec<usize> = a.crashes.iter().map(|c| c.node).collect();
        victims.sort_unstable();
        victims.dedup();
        assert_eq!(victims.len(), 3, "victims are distinct");
        assert!(victims.iter().all(|&v| v != 0), "node 0 is spared");
    }

    #[test]
    fn seeded_caps_at_survivor_count() {
        let cfg = NodeFaultConfig::seeded(1, 4, 10, SimDuration::from_micros(100));
        assert_eq!(cfg.crashes.len(), 3, "at most nodes-1 crashes");
    }

    #[test]
    fn plan_rejects_out_of_range_victims() {
        let cfg = NodeFaultConfig::crash_at(3, 10);
        let ok = std::panic::catch_unwind(|| NodeFaultPlan::new(cfg, 2));
        assert!(ok.is_err());
    }
}
