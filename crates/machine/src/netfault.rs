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
//! node stall holds *all* deliveries to a node past the stall window. A
//! targeted drop loses the first message of one named kind
//! ([`Message::kind`]), so a test can take out each message type in turn.
//!
//! [`NetFaultConfig`] is the one network-fault configuration; `svm-core`
//! re-exports it as `FaultProfile`. The plan makes every fault decision;
//! the reliable-delivery sublayer the protocol stack runs on top (see
//! `svm-core`) only recovers from them.
//!
//! [`Message::kind`]: crate::Message::kind

use svm_sim::{SimDuration, SimTime, SplitMix64};

use crate::types::NodeId;

/// Upper bound on injected jitter (uniform in `[0, max]`).
const MAX_EXTRA_DELAY: SimDuration = SimDuration::from_micros(2_000);
/// Upper bound on a stall window (uniform in `[0, max]`).
const MAX_STALL: SimDuration = SimDuration::from_micros(20_000);

/// The network faults of one run. All rates are probabilities in `[0, 1]`
/// applied independently per cross-node message; the default is everything
/// zero and no targeted drop, which [`NetFaultConfig::is_active`] reports as
/// inactive and the machine treats as "no fault layer at all".
#[derive(Clone, Debug, Default, PartialEq)]
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
    /// Probability a message triggers a transient stall of its destination
    /// node (deliveries to it are held until the stall window passes).
    pub stall_rate: f64,
    /// Drop the first cross-node message whose [`crate::Message::kind`] is
    /// this label (targeted loss-of-each-message-type regression tests).
    pub drop_first_kind: Option<&'static str>,
}

impl NetFaultConfig {
    /// A chaos profile: drop + duplicate at `rate`, jitter at `4 × rate`.
    pub fn chaos(seed: u64, rate: f64) -> Self {
        NetFaultConfig {
            seed,
            drop_rate: rate,
            dup_rate: rate,
            delay_rate: (4.0 * rate).min(1.0),
            ..NetFaultConfig::default()
        }
    }

    /// Whether any fault can ever fire under this configuration.
    pub fn is_active(&self) -> bool {
        self.drop_rate > 0.0
            || self.dup_rate > 0.0
            || self.delay_rate > 0.0
            || self.stall_rate > 0.0
            || self.drop_first_kind.is_some()
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

    /// Decide the fate of one message of `kind` sent to `to`, nominally
    /// arriving at `base`. Returns the delivery times (empty = dropped, two =
    /// duplicated), each clamped past any stall window at the destination.
    ///
    /// Exactly four uniform draws are consumed per examined message
    /// regardless of configuration, plus one per triggered magnitude — so a
    /// schedule is reproducible from `(seed, send order)` alone. The
    /// targeted drop is matched after every draw, so it takes one message
    /// out without moving any other message's fate.
    pub fn route(&mut self, to: NodeId, base: SimTime, kind: Option<&'static str>) -> Arrivals {
        self.stats.examined += 1;
        let r_stall = self.rng.next_f64();
        let r_drop = self.rng.next_f64();
        let r_delay = self.rng.next_f64();
        let r_dup = self.rng.next_f64();

        if r_stall < self.cfg.stall_rate {
            let len = self.jitter(MAX_STALL);
            let start = self.stalled_until[to.index()].max(base);
            self.stalled_until[to.index()] = start + len;
            self.stats.stalls += 1;
            self.stats.stall_time += len;
        }
        let dropped = r_drop < self.cfg.drop_rate;
        let delay =
            (!dropped && r_delay < self.cfg.delay_rate).then(|| self.jitter(MAX_EXTRA_DELAY));
        let dup = (!dropped && r_dup < self.cfg.dup_rate).then(|| self.jitter(MAX_EXTRA_DELAY));
        let targeted = self
            .cfg
            .drop_first_kind
            .take_if(|k| kind == Some(*k))
            .is_some();
        if dropped || targeted {
            self.stats.dropped += 1;
            return Arrivals::none();
        }
        let until = self.stalled_until[to.index()];
        let first = (base + delay.unwrap_or(SimDuration::ZERO)).max(until);
        self.stats.delayed += u64::from(delay.is_some());
        match dup {
            Some(jitter) => {
                self.stats.duplicated += 1;
                Arrivals::two(first, (base + jitter).max(until))
            }
            None => Arrivals::one(first),
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
        let targeted = NetFaultConfig {
            drop_first_kind: Some("ping"),
            ..NetFaultConfig::default()
        };
        assert!(targeted.is_active());
    }

    /// The message kinds of a send sequence: every third one a ping.
    fn kind_of(i: u64) -> Option<&'static str> {
        Some(if i % 3 == 2 { "ping" } else { "pong" })
    }

    #[test]
    fn targeted_drop_takes_only_the_first_message_of_its_kind() {
        let cfg = NetFaultConfig {
            drop_first_kind: Some("ping"),
            ..NetFaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg, 2);
        assert_eq!(plan.route(NodeId(1), t(0), None).as_slice(), &[t(0)]);
        for i in 1..50 {
            let arrivals = plan.route(NodeId(1), t(i), kind_of(i));
            if i == 2 {
                assert!(arrivals.is_empty(), "the first ping is dropped");
            } else {
                assert_eq!(arrivals.as_slice(), &[t(i)], "message {i} is late or lost");
            }
        }
        assert_eq!(plan.stats().dropped, 1);
        assert_eq!(plan.config().drop_first_kind, None, "the drop is spent");
    }

    /// With rates on, the targeted message still consumes the draws its
    /// untargeted fate would have, so no other message's fate moves.
    #[test]
    fn targeted_drop_leaves_every_other_fate_unchanged() {
        // Seeds on which the first ping would have arrived late or twice:
        // the case where skipping its jitter draws would shift the stream.
        let mut jittered = 0;
        for seed in 0..32 {
            let rates = NetFaultConfig {
                seed,
                drop_rate: 0.1,
                dup_rate: 0.3,
                delay_rate: 0.4,
                stall_rate: 0.05,
                ..NetFaultConfig::default()
            };
            let targeted = NetFaultConfig {
                drop_first_kind: Some("ping"),
                ..rates.clone()
            };
            let mut plain = FaultPlan::new(rates, 4);
            let mut with_drop = FaultPlan::new(targeted, 4);
            for i in 0..300 {
                let to = NodeId(((i + 1) % 4) as u16);
                let want = plain.route(to, t(i), kind_of(i));
                let got = with_drop.route(to, t(i), kind_of(i));
                if i == 2 {
                    assert!(got.is_empty(), "seed {seed}: the first ping is dropped");
                    jittered += usize::from(want.len() == 2 || want.as_slice() != [t(i)]);
                } else {
                    assert_eq!(got, want, "seed {seed}: message {i} changed fate");
                }
            }
        }
        assert!(jittered > 0, "no seed jittered the targeted message");
    }

    #[test]
    fn zero_rates_deliver_exactly_once_on_time() {
        let mut plan = FaultPlan::new(NetFaultConfig::default(), 4);
        for i in 0..100 {
            let arrivals = plan.route(NodeId(1), t(i), None);
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
            assert_eq!(a.route(to, t(i), None), b.route(to, t(i), None));
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
            delivered += plan.route(NodeId(1), t(i), None).len();
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
            ..NetFaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg, 2);
        let a1 = plan.route(NodeId(1), t(10), None);
        assert!(a1.as_slice()[0] >= t(10));
        // Every message stalls the destination further; arrivals never
        // precede the accumulated window.
        let window = plan.stalled_until[1];
        let a2 = plan.route(NodeId(1), t(11), None);
        assert!(a2.as_slice()[0] >= window);
        assert!(plan.stats().stalls >= 2);
        assert!(plan.stats().stall_time > SimDuration::ZERO);
    }
}
