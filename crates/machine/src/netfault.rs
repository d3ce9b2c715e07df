//! Deterministic network fault injection.
//!
//! The paper's NX/2 transport is perfectly reliable; this module lets a run
//! ask for something worse. A [`FaultPlan`] draws every fault decision from
//! a seeded [`SplitMix64`] stream, in send order — and because the simulator
//! is deterministic, the send order is a pure function of the run's inputs,
//! so the same seed replays the identical fault schedule bit-for-bit. All
//! faults act in virtual time: dropped messages are never delivered,
//! duplicates arrive as a second delivery, delay/jitter pushes arrivals
//! (which is also what reorders messages sharing a link), and a transient
//! node stall holds *all* deliveries to a node past the stall window.
//!
//! The plan decides fates; recovering from them is the job of the reliable-
//! delivery sublayer the protocol stack runs on top (see `svm-core`).

use svm_sim::{SimDuration, SimTime, SplitMix64};

use crate::types::NodeId;

/// Fault rates and magnitudes for one run. All rates are probabilities in
/// `[0, 1]` applied independently per cross-node message; the default is
/// everything zero, which [`NetFaultConfig::is_active`] reports as inactive
/// and the machine treats as "no fault layer at all".
#[derive(Clone, Debug, PartialEq)]
pub struct NetFaultConfig {
    /// Seed for the fault-decision stream.
    pub seed: u64,
    /// Probability a message is silently dropped.
    pub drop_rate: f64,
    /// Probability a delivered message arrives twice.
    pub dup_rate: f64,
    /// Probability a delivery is delayed by extra jitter (this is also what
    /// reorders messages on a link).
    pub delay_rate: f64,
    /// Upper bound on injected jitter (uniform in `[0, max]`).
    pub max_extra_delay: SimDuration,
    /// Probability a message triggers a transient stall of its destination
    /// node (deliveries to it are held until the stall window passes).
    pub stall_rate: f64,
    /// Upper bound on a stall window (uniform in `[0, max]`).
    pub max_stall: SimDuration,
}

impl Default for NetFaultConfig {
    fn default() -> Self {
        NetFaultConfig {
            seed: 0,
            drop_rate: 0.0,
            dup_rate: 0.0,
            delay_rate: 0.0,
            max_extra_delay: SimDuration::from_micros(2_000),
            stall_rate: 0.0,
            max_stall: SimDuration::from_micros(20_000),
        }
    }
}

impl NetFaultConfig {
    /// Whether any fault can ever fire under this configuration.
    pub fn is_active(&self) -> bool {
        self.drop_rate > 0.0
            || self.dup_rate > 0.0
            || self.delay_rate > 0.0
            || self.stall_rate > 0.0
    }
}

/// What the fault layer did to the run (reported in `RunOutcome`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetFaultStats {
    /// Cross-node messages the plan examined.
    pub examined: u64,
    /// Messages dropped.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Deliveries hit by extra jitter.
    pub delayed: u64,
    /// Transient node stalls triggered.
    pub stalls: u64,
    /// Total virtual time spent stalled, summed over nodes.
    pub stall_time: SimDuration,
}

/// Delivery times for one routed message: zero (dropped), one, or two
/// (duplicated) arrivals, stored inline. `route` runs for every cross-node
/// message, so this avoids the per-message `Vec` allocation the hot send
/// path used to pay.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Arrivals {
    times: [SimTime; 2],
    len: u8,
}

impl Arrivals {
    fn none() -> Self {
        Arrivals {
            times: [SimTime::ZERO; 2],
            len: 0,
        }
    }

    fn one(t: SimTime) -> Self {
        Arrivals {
            times: [t, SimTime::ZERO],
            len: 1,
        }
    }

    fn two(first: SimTime, second: SimTime) -> Self {
        Arrivals {
            times: [first, second],
            len: 2,
        }
    }

    /// The arrival times, in scheduling order.
    pub fn as_slice(&self) -> &[SimTime] {
        &self.times[..self.len as usize]
    }

    /// Number of deliveries (0 = dropped, 2 = duplicated).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the message was dropped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The seeded fault schedule for one run.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: NetFaultConfig,
    rng: SplitMix64,
    /// Per-node end of the current stall window.
    stalled_until: Vec<SimTime>,
    stats: NetFaultStats,
}

impl FaultPlan {
    /// A plan for a machine of `nodes` nodes.
    pub fn new(cfg: NetFaultConfig, nodes: usize) -> Self {
        let rng = SplitMix64::new(cfg.seed);
        FaultPlan {
            cfg,
            rng,
            stalled_until: vec![SimTime::ZERO; nodes],
            stats: NetFaultStats::default(),
        }
    }

    /// The configuration this plan runs.
    pub fn config(&self) -> &NetFaultConfig {
        &self.cfg
    }

    /// Counters so far.
    pub fn stats(&self) -> &NetFaultStats {
        &self.stats
    }

    fn jitter(&mut self, max: SimDuration) -> SimDuration {
        SimDuration::from_nanos(self.rng.below(max.as_nanos() + 1))
    }

    /// Decide the fate of one message sent to `to`, nominally arriving at
    /// `base`. Returns the delivery times (empty = dropped, two =
    /// duplicated), each clamped past any stall window at the destination.
    ///
    /// Exactly four uniform draws are consumed per examined message
    /// regardless of configuration, plus one per triggered magnitude — so a
    /// schedule is reproducible from `(seed, send order)` alone.
    pub fn route(&mut self, to: NodeId, base: SimTime) -> Arrivals {
        self.stats.examined += 1;
        let r_stall = self.rng.next_f64();
        let r_drop = self.rng.next_f64();
        let r_delay = self.rng.next_f64();
        let r_dup = self.rng.next_f64();

        if r_stall < self.cfg.stall_rate {
            let len = self.jitter(self.cfg.max_stall);
            let start = self.stalled_until[to.index()].max(base);
            self.stalled_until[to.index()] = start + len;
            self.stats.stalls += 1;
            self.stats.stall_time += len;
        }
        if r_drop < self.cfg.drop_rate {
            self.stats.dropped += 1;
            return Arrivals::none();
        }
        let mut first = base;
        if r_delay < self.cfg.delay_rate {
            first += self.jitter(self.cfg.max_extra_delay);
            self.stats.delayed += 1;
        }
        let first = first.max(self.stalled_until[to.index()]);
        if r_dup < self.cfg.dup_rate {
            let second = base + self.jitter(self.cfg.max_extra_delay);
            self.stats.duplicated += 1;
            Arrivals::two(first, second.max(self.stalled_until[to.index()]))
        } else {
            Arrivals::one(first)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn inactive_config_is_inactive() {
        assert!(!NetFaultConfig::default().is_active());
        let cfg = NetFaultConfig {
            drop_rate: 0.01,
            ..NetFaultConfig::default()
        };
        assert!(cfg.is_active());
    }

    #[test]
    fn zero_rates_deliver_exactly_once_on_time() {
        let mut plan = FaultPlan::new(NetFaultConfig::default(), 4);
        for i in 0..100 {
            let arrivals = plan.route(NodeId(1), t(i));
            assert_eq!(arrivals.as_slice(), &[t(i)]);
        }
        assert_eq!(plan.stats().dropped, 0);
        assert_eq!(plan.stats().duplicated, 0);
        assert_eq!(plan.stats().delayed, 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = NetFaultConfig {
            seed: 42,
            drop_rate: 0.2,
            dup_rate: 0.2,
            delay_rate: 0.3,
            stall_rate: 0.05,
            ..NetFaultConfig::default()
        };
        let mut a = FaultPlan::new(cfg.clone(), 4);
        let mut b = FaultPlan::new(cfg, 4);
        for i in 0..500 {
            let to = NodeId(((i + 1) % 4) as u16);
            assert_eq!(a.route(to, t(i)), b.route(to, t(i)));
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().dropped > 0, "a 20% drop rate must drop something");
        assert!(a.stats().duplicated > 0);
    }

    #[test]
    fn drops_and_dups_track_rates_roughly() {
        let cfg = NetFaultConfig {
            seed: 7,
            drop_rate: 0.5,
            dup_rate: 0.5,
            ..NetFaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg, 2);
        let mut delivered = 0usize;
        for i in 0..1000 {
            delivered += plan.route(NodeId(1), t(i)).len();
        }
        let s = plan.stats();
        assert!((300..700).contains(&(s.dropped as usize)), "{s:?}");
        assert!((150..350).contains(&(s.duplicated as usize)), "{s:?}");
        // Duplication applies only to delivered messages.
        assert_eq!(delivered as u64, 1000 - s.dropped + s.duplicated);
    }

    #[test]
    fn stalls_hold_deliveries_past_the_window() {
        let cfg = NetFaultConfig {
            seed: 3,
            stall_rate: 1.0,
            max_stall: SimDuration::from_micros(500),
            ..NetFaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg, 2);
        let a1 = plan.route(NodeId(1), t(10));
        assert!(a1.as_slice()[0] >= t(10));
        // Every message stalls the destination further; arrivals never
        // precede the accumulated window.
        let window = plan.stalled_until[1];
        let a2 = plan.route(NodeId(1), t(11));
        assert!(a2.as_slice()[0] >= window);
        assert!(plan.stats().stalls >= 2);
        assert!(plan.stats().stall_time > SimDuration::ZERO);
    }
}
