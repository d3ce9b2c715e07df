//! Reliable delivery under the protocol messages.
//!
//! The four protocols were written for the paper's perfectly reliable FIFO
//! transport; the fault-injection layer (`svm-machine::netfault`) breaks
//! that assumption. This sublayer restores it end-to-end: every cross-node
//! protocol message travels in a [`Wire::Data`] envelope with a
//! per-channel sequence number, receivers acknowledge cumulatively and
//! suppress duplicates, and senders retransmit everything unacknowledged on
//! a timeout with exponential backoff (reset on progress). A *channel* is
//! an ordered pair of processor addresses, so cpu and co-processor streams
//! sequence independently — matching the independent service queues they
//! feed.
//!
//! When the run's [`crate::FaultProfile`] is inactive the layer is off:
//! messages travel as [`Wire::Plain`] with the same wire size and traffic
//! class as the bare message and no extra events, keeping zero-fault runs
//! bit-identical to a build without the layer.
//!
//! Acks are not themselves sequenced or retransmitted — a lost ack is
//! recovered by the sender's retransmission, which the receiver answers
//! with a fresh cumulative ack.
//!
//! Two crash-recovery hooks live here as well. [`Wire::Heartbeat`] is the
//! failure detector's probe: unsequenced and unacknowledged like an ack,
//! its only job is to refresh the receiver's last-heard clock for the
//! sender. And retransmission is no longer unconditionally infinite: with
//! [`FaultProfile::max_retries`] set, a channel that times out that many
//! times without ack progress stops retransmitting and surfaces a
//! structured peer-down signal instead of spinning forever at a dead peer.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use svm_machine::{Category, Message, ProcAddr, TrafficClass};
use svm_sim::{EventId, SimDuration};

use crate::config::FaultProfile;
use crate::msg::SvmMsg;
use crate::protocol::tokens::{TimerTokens, Token};
use crate::protocol::{MCtx, ProtocolError, SvmAgent};

/// The on-wire envelope around protocol messages.
#[derive(Clone, Debug, Hash)]
pub enum Wire {
    /// Reliable layer off: the bare message, byte-for-byte what the
    /// pre-fault-layer build sent.
    Plain(SvmMsg),
    /// A sequenced message on its channel.
    Data {
        /// Channel sequence number (1-based).
        seq: u32,
        /// The protocol message.
        msg: SvmMsg,
    },
    /// Cumulative acknowledgment: every `seq <= cum` arrived.
    Ack {
        /// Highest in-order sequence delivered.
        cum: u32,
    },
    /// Failure-detector probe: refreshes the receiver's last-heard clock
    /// for the sender. Unsequenced and unacknowledged, like an ack — a
    /// lost heartbeat is recovered by the next period's heartbeat.
    Heartbeat,
}

impl Message for Wire {
    fn wire_bytes(&self) -> usize {
        match self {
            Wire::Plain(m) => m.wire_bytes(),
            // Sequence number + envelope framing.
            Wire::Data { msg, .. } => msg.wire_bytes() + 8,
            Wire::Ack { .. } => 12,
            Wire::Heartbeat => 12,
        }
    }

    fn class(&self) -> TrafficClass {
        match self {
            Wire::Plain(m) | Wire::Data { msg: m, .. } => m.class(),
            Wire::Ack { .. } | Wire::Heartbeat => TrafficClass::Protocol,
        }
    }
}

/// One retransmission, for the bit-reproducible chaos trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetransmitEvent {
    /// Virtual time of the retransmission, nanoseconds.
    pub at_ns: u64,
    /// Sending processor.
    pub from: ProcAddr,
    /// Destination processor.
    pub to: ProcAddr,
    /// The resent sequence number.
    pub seq: u32,
    /// Backoff exponent in force when the timeout fired (1 = first retry).
    pub attempt: u32,
}

pub(crate) struct SendChannel {
    pub(crate) to: ProcAddr,
    pub(crate) next_seq: u32,
    pub(crate) unacked: BTreeMap<u32, SvmMsg>,
    /// The armed retransmit timer, if any: its scheduler event (for
    /// cancellation) and its token in [`TimerTokens`].
    pub(crate) armed: Option<(EventId, Token)>,
    pub(crate) backoff: u32,
    /// Retransmit timeouts fired since the last ack progress; compared
    /// against [`ReliableNet::max_retries`].
    pub(crate) attempts: u32,
}

#[derive(Hash)]
pub(crate) struct RecvChannel {
    pub(crate) next_expected: u32,
    pub(crate) buffered: BTreeMap<u32, SvmMsg>,
}

impl Default for RecvChannel {
    fn default() -> Self {
        RecvChannel {
            next_expected: 1,
            buffered: BTreeMap::new(),
        }
    }
}

/// Reliable-delivery state for one run.
pub struct ReliableNet {
    /// Whether the layer is on (any fault source configured, or crash
    /// recovery enabled — recovery's in-flight harvest needs the sequenced
    /// envelopes and unacked buffers).
    pub enabled: bool,
    /// Timeouts-without-progress per channel before the peer is declared
    /// unreachable; `None` retransmits forever.
    max_retries: Option<u32>,
    /// One-shot deterministic drop of the first message of a given kind.
    drop_first: Option<&'static str>,
    /// Send channels, indexed densely so timer tokens can address them.
    pub(crate) chans: Vec<SendChannel>,
    pub(crate) index: BTreeMap<(ProcAddr, ProcAddr), usize>,
    pub(crate) recv: BTreeMap<(ProcAddr, ProcAddr), RecvChannel>,
    pub(crate) tokens: TimerTokens,
    /// Every retransmission, in event order.
    pub trace: Vec<RetransmitEvent>,
}

impl ReliableNet {
    /// Build from the run's fault profile. `force_enabled` turns the layer
    /// on even without fault sources (crash recovery requires it).
    pub fn new(profile: &FaultProfile, force_enabled: bool) -> Self {
        ReliableNet {
            enabled: profile.is_active() || force_enabled,
            max_retries: profile.max_retries,
            drop_first: profile.drop_first_kind,
            chans: Vec::new(),
            index: BTreeMap::new(),
            recv: BTreeMap::new(),
            tokens: TimerTokens::default(),
            trace: Vec::new(),
        }
    }

    /// The `(from, to)` channel whose armed retransmit timer carries `token`
    /// (`None` = stale: disarmed after the timer was queued).
    pub fn timer_channel(&self, token: Token) -> Option<(ProcAddr, ProcAddr)> {
        let idx = self.tokens.resolve(token)?;
        self.index
            .iter()
            .find_map(|(&k, &i)| (i == idx).then_some(k))
    }

    /// `(from, to, unacknowledged messages)` per send channel.
    pub fn unacked(&self) -> impl Iterator<Item = (ProcAddr, ProcAddr, usize)> + '_ {
        self.index
            .iter()
            .map(|(&(from, to), &i)| (from, to, self.chans[i].unacked.len()))
    }

    fn channel(&mut self, from: ProcAddr, to: ProcAddr) -> usize {
        *self.index.entry((from, to)).or_insert_with(|| {
            self.chans.push(SendChannel {
                to,
                next_seq: 1,
                unacked: BTreeMap::new(),
                armed: None,
                backoff: 0,
                attempts: 0,
            });
            self.chans.len() - 1
        })
    }
}

/// Channels canonically by `(from, to)`, never by index or raw timer token:
/// both encode the order channels and timers were first used — history, not
/// state. `max_retries` and `drop_first` belong to the fault profile (which
/// explore mode refuses), `trace` is a log.
impl Hash for ReliableNet {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let ReliableNet {
            enabled,
            max_retries: _,
            drop_first: _,
            chans,
            index,
            recv,
            tokens: _,
            trace: _,
        } = self;
        (enabled, recv, index.len()).hash(h);
        for (key, &idx) in index {
            let SendChannel {
                to: _, // the key's second half
                next_seq,
                unacked,
                armed,
                backoff,
                attempts,
            } = &chans[idx];
            (key, next_seq, unacked, armed.is_some(), backoff, attempts).hash(h);
        }
    }
}

/// Base retransmission timeout.
const RTO: SimDuration = SimDuration::from_micros(5_000);
/// Max exponent for the exponential backoff (`RTO × 2^BACKOFF_CAP` ceiling).
const BACKOFF_CAP: u32 = 6;

/// The retransmission timer for a channel that has timed out `backoff`
/// times without progress.
fn timeout(backoff: u32) -> SimDuration {
    RTO * (1u64 << backoff.min(BACKOFF_CAP))
}

impl SvmAgent {
    /// Send a protocol message to a remote processor through the reliable
    /// layer (or as a bare [`Wire::Plain`] when the layer is off).
    pub fn net_send(&mut self, ctx: &mut MCtx<'_>, to: ProcAddr, msg: SvmMsg) {
        if !self.recovery.alive[to.node.index()] {
            // A protocol dependency on a declared-dead node that recovery
            // did not re-route (e.g. a homeless fetch needing the dead
            // writer's stored diffs): structured halt, never a black hole.
            self.recovery.stats.fenced_sends += 1;
            let node = ctx.here().node;
            self.protocol_error(
                ctx,
                ProtocolError::PeerUnreachable {
                    node,
                    peer: to.node,
                },
            );
            return;
        }
        if !self.net.enabled {
            ctx.send(to, Wire::Plain(msg));
            return;
        }
        let from = ctx.here();
        let suppressed = match self.net.drop_first {
            Some(kind) if msg.kind_name() == kind => {
                self.net.drop_first = None;
                true
            }
            _ => false,
        };
        let idx = self.net.channel(from, to);
        let ch = &mut self.net.chans[idx];
        let seq = ch.next_seq;
        ch.next_seq += 1;
        if !suppressed {
            ctx.send(
                to,
                Wire::Data {
                    seq,
                    msg: msg.clone(),
                },
            );
        }
        ch.unacked.insert(seq, msg);
        if ch.armed.is_none() {
            self.net_arm(ctx, idx);
        }
    }

    /// Arm channel `idx`'s retransmit timer at its current backoff. The
    /// channel must not already be armed (callers disarm first).
    fn net_arm(&mut self, ctx: &mut MCtx<'_>, idx: usize) {
        let delay = timeout(self.net.chans[idx].backoff);
        let token = self.net.tokens.arm(idx);
        let ev = Self::arm_timer(ctx, delay, token);
        self.net.chans[idx].armed = Some((ev, token));
    }

    /// Unwrap an incoming envelope: dispatch plain messages directly, run
    /// sequenced data through duplicate suppression + in-order release, and
    /// consume acks.
    pub fn on_wire(&mut self, ctx: &mut MCtx<'_>, at: ProcAddr, from: ProcAddr, wire: Wire) {
        // Crash-recovery fence + freshness: anything from a declared-dead
        // sender is dropped (its state was already repaired around it; late
        // arrivals must not resurrect it), and anything from a live remote
        // peer refreshes the failure detector's last-heard clock.
        if from.node != at.node {
            if !self.recovery.alive[from.node.index()] {
                self.recovery.stats.fenced_messages += 1;
                return;
            }
            if self.recovery_active() {
                self.recovery.last_heard[at.node.index()][from.node.index()] = ctx.now();
            }
        }
        match wire {
            Wire::Heartbeat => {} // freshness recorded above; no payload
            Wire::Plain(msg) => self.dispatch(ctx, at, from, msg),
            Wire::Data { seq, msg } => {
                let node = at.node;
                let rc = self.net.recv.entry((from, at)).or_default();
                let dup = seq < rc.next_expected || rc.buffered.contains_key(&seq);
                let mut ready = Vec::new();
                if dup {
                    self.counters[node.index()].dup_suppressed += 1;
                } else {
                    rc.buffered.insert(seq, msg);
                    while let Some(m) = rc.buffered.remove(&rc.next_expected) {
                        ready.push(m);
                        rc.next_expected += 1;
                    }
                }
                let cum = self.net.recv[&(from, at)].next_expected - 1;
                self.counters[node.index()].acks_sent += 1;
                ctx.send(from, Wire::Ack { cum });
                for m in ready {
                    self.dispatch(ctx, at, from, m);
                }
            }
            Wire::Ack { cum } => {
                let Some(&idx) = self.net.index.get(&(at, from)) else {
                    return;
                };
                let ch = &mut self.net.chans[idx];
                let before = ch.unacked.len();
                ch.unacked = ch.unacked.split_off(&(cum + 1));
                let progress = ch.unacked.len() < before;
                if progress {
                    ch.backoff = 0;
                    ch.attempts = 0;
                }
                let empty = ch.unacked.is_empty();
                if empty || progress {
                    // Cancel the pending event and kill its token, so a
                    // firing already queued for service resolves stale.
                    if let Some((ev, token)) = ch.armed.take() {
                        ctx.cancel_timer(ev);
                        self.net.tokens.disarm(token);
                    }
                }
                if !empty && progress {
                    self.net_arm(ctx, idx);
                }
            }
        }
    }

    /// A retransmit timer reached service: resend everything unacked on its
    /// channel, double the backoff, rearm.
    pub fn on_net_timer(&mut self, ctx: &mut MCtx<'_>, at: ProcAddr, token: Token) {
        let Some(idx) = self.net.tokens.resolve(token) else {
            return; // stale: disarmed after this firing was queued
        };
        // The firing consumes the token; rearming allocates a fresh one.
        self.net.tokens.disarm(token);
        self.net.chans[idx].armed = None;
        if self.net.chans[idx].unacked.is_empty() {
            return; // nothing outstanding; next send rearms
        }
        let node = at.node;
        let overhead = ctx.cost().handler_overhead;
        let to = self.net.chans[idx].to;
        // Retry exhaustion: `max_retries` timeouts without ack progress and
        // the peer is treated as unreachable. The unacked buffer is left in
        // place — it is exactly the in-flight state the recovery harvest
        // reads — and the channel stays disarmed.
        if let Some(max) = self.net.max_retries {
            if self.net.chans[idx].attempts >= max {
                self.counters[node.index()].retry_exhaustions += 1;
                self.peer_down(ctx, at, to.node);
                return;
            }
        }
        self.net.chans[idx].attempts += 1;
        let attempt = self.net.chans[idx].backoff + 1;
        self.counters[node.index()].retransmit_timeouts += 1;
        // Take the unacked map out for the send loop instead of cloning it
        // wholesale; only each resent message is cloned (for the wire).
        let unacked = std::mem::take(&mut self.net.chans[idx].unacked);
        for (&seq, msg) in &unacked {
            ctx.work(overhead, Category::Retransmit);
            self.net.trace.push(RetransmitEvent {
                at_ns: ctx.now().as_nanos(),
                from: at,
                to,
                seq,
                attempt,
            });
            self.counters[node.index()].retransmissions += 1;
            ctx.send(
                to,
                Wire::Data {
                    seq,
                    msg: msg.clone(),
                },
            );
        }
        let ch = &mut self.net.chans[idx];
        ch.unacked = unacked;
        ch.backoff = (ch.backoff + 1).min(BACKOFF_CAP);
        self.net_arm(ctx, idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svm_mem::PageNum;

    #[test]
    fn plain_envelope_is_transparent() {
        let inner = SvmMsg::PageRequest {
            page: PageNum(0),
            requester: svm_machine::NodeId(1),
        };
        let bytes = inner.wire_bytes();
        let class = inner.class();
        let wire = Wire::Plain(inner);
        assert_eq!(wire.wire_bytes(), bytes);
        assert_eq!(wire.class(), class);
    }

    #[test]
    fn data_envelope_charges_header() {
        let inner = SvmMsg::PageRequest {
            page: PageNum(0),
            requester: svm_machine::NodeId(1),
        };
        let bytes = inner.wire_bytes();
        let wire = Wire::Data { seq: 7, msg: inner };
        assert_eq!(wire.wire_bytes(), bytes + 8);
        assert_eq!(Wire::Ack { cum: 3 }.wire_bytes(), 12);
        assert_eq!(Wire::Ack { cum: 3 }.class(), TrafficClass::Protocol);
    }

    #[test]
    fn net_hash_is_canonical_by_channel() {
        let (x, y) = (
            ProcAddr::cpu(svm_machine::NodeId(0)),
            ProcAddr::cpu(svm_machine::NodeId(1)),
        );
        let opened = |order: [(ProcAddr, ProcAddr); 2]| {
            let mut net = ReliableNet::new(&FaultProfile::default(), true);
            for (from, to) in order {
                net.channel(from, to);
            }
            net
        };
        let (a, mut b) = (opened([(x, y), (y, x)]), opened([(y, x), (x, y)]));
        let of = |net: &ReliableNet| crate::trace::Fnv64::of(net);
        assert_eq!(of(&a), of(&b), "the opening order is history");
        let idx = b.channel(x, y);
        let msg = SvmMsg::NodeDown {
            dead: svm_machine::NodeId(1),
        };
        b.chans[idx].unacked.insert(1, msg);
        assert_ne!(of(&a), of(&b), "one unacked entry is state");
    }

    #[test]
    fn backoff_doubles_to_cap() {
        assert_eq!(timeout(0), SimDuration::from_micros(5_000));
        assert_eq!(timeout(1), SimDuration::from_micros(10_000));
        assert_eq!(timeout(6), SimDuration::from_micros(320_000));
        assert_eq!(timeout(9), SimDuration::from_micros(320_000), "capped");
    }
}
