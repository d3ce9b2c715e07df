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
//! The layer makes no fault decision: every loss, duplicate, delay and
//! stall, the targeted drop of one message kind included, is the machine's
//! fault plan (`svm_machine::netfault`). The layer only sequences, acks and
//! retransmits. When the run's [`crate::FaultProfile`] is inactive (and
//! crash recovery is off) the layer is off too: messages travel as
//! [`Wire::Plain`] with the same wire size and traffic class as the bare
//! message and no extra events, keeping zero-fault runs bit-identical to a
//! build without the layer.
//!
//! Acks are not themselves sequenced or retransmitted — a lost ack is
//! recovered by the sender's retransmission, which the receiver answers
//! with a fresh cumulative ack.
//!
//! A channel's retransmit timer is a machine timer
//! ([`svm_machine::Ctx::set_timer`]), held as the [`svm_machine::TimerId`]
//! it returns. Disarming cancels it, and a cancelled timer is never
//! handled, even one already waiting in the processor's service queue
//! ([`svm_machine::Ctx::cancel_timer`]); so every expiry that reaches
//! `on_net_timer` is its channel's armed timer, and the layer keeps no
//! stamp to tell a stale expiry from a live one.
//!
//! The steady path allocates nothing. An arrival that is next in sequence
//! with nothing parked is acked and dispatched straight away
//! (`RecvChannel::accept`); only out-of-order and duplicate arrivals
//! reach the reorder buffer. A sender's unacknowledged messages are a FIFO
//! of `(seq, msg)` pushed in sequence order, and a cumulative ack pops
//! its prefix from the front; the FIFO hashes as the ordered map it
//! replaced (the length, then each pair in order), so explorer digests
//! did not move.
//!
//! One crash-recovery hook lives here as well: [`Wire::Heartbeat`] is the
//! failure detector's probe, unsequenced and unacknowledged like an ack,
//! whose only job is to refresh the receiver's last-heard clock for the
//! sender. Retransmission itself is unbounded: a channel to a crashed peer
//! retries until the failure detector declares the peer dead or, with
//! recovery off, until the machine's progress watchdog halts the run.

use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};

use svm_machine::{Category, Message, ProcAddr, TimerId, TrafficClass};
use svm_sim::SimDuration;

use crate::metrics::NodeCounters;
use crate::msg::SvmMsg;
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
    /// A timer expiry: never on the network, only from a processor to itself
    /// ([`svm_machine::Ctx::set_timer`]).
    Timer(Timer),
}

/// What a processor's timer says when it expires. It arrives with
/// `from == at`: `at` names the node and the near end of the channel.
#[derive(Clone, Debug, Hash)]
pub enum Timer {
    /// The failure detector's period elapsed on this node.
    HeartbeatTick,
    /// The deadline of this node's pending [`crate::msg::SvmReq::SleepUntil`].
    Wake,
    /// The retransmit timeout of the send channel from this processor to
    /// `to`. Only the channel's armed timer is ever handled: disarming
    /// cancels it for good ([`svm_machine::Ctx::cancel_timer`]).
    Retransmit {
        /// The channel's far end.
        to: ProcAddr,
    },
}

impl Message for Wire {
    fn wire_bytes(&self) -> usize {
        match self {
            Wire::Plain(m) => m.wire_bytes(),
            // Sequence number + envelope framing.
            Wire::Data { msg, .. } => msg.wire_bytes() + 8,
            Wire::Ack { .. } => 12,
            Wire::Heartbeat => 12,
            Wire::Timer(_) => 0,
        }
    }

    fn class(&self) -> TrafficClass {
        match self {
            Wire::Plain(m) | Wire::Data { msg: m, .. } => m.class(),
            Wire::Ack { .. } | Wire::Heartbeat | Wire::Timer(_) => TrafficClass::Protocol,
        }
    }

    /// The protocol message's kind, which the fault plan's targeted drop
    /// matches; acks, heartbeats and timers have none.
    fn kind(&self) -> Option<&'static str> {
        match self {
            Wire::Plain(m) | Wire::Data { msg: m, .. } => Some(m.kind_name()),
            Wire::Ack { .. } | Wire::Heartbeat | Wire::Timer(_) => None,
        }
    }
}

#[derive(Default)]
pub(crate) struct SendChannel {
    /// Messages sent so far: the last sequence number assigned (1-based).
    sent: u32,
    /// `(seq, message)` sent but not yet acknowledged, oldest first:
    /// sequence numbers are pushed ascending and an ack pops a prefix.
    pub(crate) unacked: VecDeque<(u32, SvmMsg)>,
    /// The armed retransmit timer, if any.
    armed: Option<TimerId>,
    backoff: u32,
}

/// Whether a timer is armed is state; which timer is not.
impl Hash for SendChannel {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let SendChannel {
            sent,
            unacked,
            armed,
            backoff,
        } = self;
        (sent, unacked, armed.is_some(), backoff).hash(h);
    }
}

impl SendChannel {
    /// Arm the retransmit timer at the current backoff, on the handler's
    /// processor. The channel must not already be armed (callers disarm first).
    fn arm(&mut self, ctx: &mut MCtx<'_>, to: ProcAddr) {
        let expiry = Wire::Timer(Timer::Retransmit { to });
        self.armed = Some(ctx.set_timer(timeout(self.backoff), expiry));
    }

    /// Cancel the armed timer, if any: it will never be handled.
    pub(crate) fn disarm(&mut self, ctx: &mut MCtx<'_>) {
        if let Some(timer) = self.armed.take() {
            ctx.cancel_timer(timer);
        }
    }
}

#[derive(Default, Hash)]
pub(crate) struct RecvChannel {
    /// Highest sequence number delivered in order: the cumulative ack.
    pub(crate) delivered: u32,
    /// Arrivals parked past a gap, by sequence number.
    pub(crate) buffered: BTreeMap<u32, SvmMsg>,
}

/// The messages one arrival lets through, in delivery order: the arrival
/// itself if it was next in sequence, then the parked successors it
/// released. Empty for a duplicate or an arrival past a gap.
#[derive(Default)]
pub(crate) struct Released {
    next: Option<SvmMsg>,
    parked: Vec<SvmMsg>,
}

impl IntoIterator for Released {
    type Item = SvmMsg;
    type IntoIter = std::iter::Chain<std::option::IntoIter<SvmMsg>, std::vec::IntoIter<SvmMsg>>;

    fn into_iter(self) -> Self::IntoIter {
        self.next.into_iter().chain(self.parked)
    }
}

impl RecvChannel {
    /// Sequence an arriving `Data { seq, msg }`: suppress a duplicate, park
    /// an arrival past a gap, and release what is now in order. Every
    /// arrival is acked: the caller sends `Ack { cum: delivered }`, counted
    /// here, before it dispatches the released messages. The common
    /// arrival, next in sequence with nothing parked, touches neither the
    /// reorder buffer nor the heap.
    pub(crate) fn accept(
        &mut self,
        seq: u32,
        msg: SvmMsg,
        counters: &mut NodeCounters,
    ) -> Released {
        counters.acks_sent += 1;
        let mut out = Released::default();
        if seq == self.delivered + 1 {
            self.delivered = seq;
            out.next = Some(msg);
            while let Some(m) = self.buffered.remove(&(self.delivered + 1)) {
                out.parked.push(m);
                self.delivered += 1;
            }
        } else if seq <= self.delivered || self.buffered.contains_key(&seq) {
            counters.dup_suppressed += 1;
        } else {
            self.buffered.insert(seq, msg);
        }
        out
    }
}

/// Reliable-delivery state for one run. Every field is state.
#[derive(Hash)]
pub struct ReliableNet {
    /// Whether the layer is on (any fault source configured, or crash
    /// recovery enabled — recovery's in-flight harvest needs the sequenced
    /// envelopes and unacked buffers).
    pub enabled: bool,
    /// Receive channels by `(from, to)`.
    pub(crate) recv: BTreeMap<(ProcAddr, ProcAddr), RecvChannel>,
    /// Send channels by `(from, to)`.
    pub(crate) send: BTreeMap<(ProcAddr, ProcAddr), SendChannel>,
}

impl ReliableNet {
    /// A layer with no channels yet, on or off.
    pub fn new(enabled: bool) -> Self {
        ReliableNet {
            enabled,
            recv: BTreeMap::new(),
            send: BTreeMap::new(),
        }
    }

    /// `(from, to, unacknowledged messages)` per send channel.
    pub fn unacked(&self) -> impl Iterator<Item = (ProcAddr, ProcAddr, usize)> + '_ {
        self.send
            .iter()
            .map(|(&(from, to), ch)| (from, to, ch.unacked.len()))
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
        let ch = self.net.send.entry((ctx.here(), to)).or_default();
        ch.sent += 1;
        let seq = ch.sent;
        ctx.send(
            to,
            Wire::Data {
                seq,
                msg: msg.clone(),
            },
        );
        ch.unacked.push_back((seq, msg));
        if ch.armed.is_none() {
            ch.arm(ctx, to);
        }
    }

    /// Unwrap an incoming envelope: dispatch plain messages directly, run
    /// sequenced data through duplicate suppression + in-order release,
    /// consume acks, and route the processor's own timers.
    pub fn on_wire(&mut self, ctx: &mut MCtx<'_>, at: ProcAddr, from: ProcAddr, wire: Wire) {
        // Crash-recovery fence + freshness: anything from a declared-dead
        // sender is dropped (its state was already repaired around it; late
        // arrivals must not resurrect it), and anything from a live remote
        // peer refreshes the failure detector's last-heard clock.
        if from.node != at.node {
            if !self.recovery.alive[from.node.index()] {
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
                let rc = self.net.recv.entry((from, at)).or_default();
                let released = rc.accept(seq, msg, &mut self.counters[at.node.index()]);
                ctx.send(from, Wire::Ack { cum: rc.delivered });
                for m in released {
                    self.dispatch(ctx, at, from, m);
                }
            }
            Wire::Ack { cum } => {
                let Some(ch) = self.net.send.get_mut(&(at, from)) else {
                    return;
                };
                let before = ch.unacked.len();
                while let Some((_, msg)) = ch.unacked.pop_front_if(|(seq, _)| *seq <= cum) {
                    msg.release();
                }
                let progress = ch.unacked.len() < before;
                if progress {
                    ch.backoff = 0;
                }
                let empty = ch.unacked.is_empty();
                if empty || progress {
                    ch.disarm(ctx);
                }
                if !empty && progress {
                    ch.arm(ctx, from);
                }
            }
            Wire::Timer(Timer::HeartbeatTick) => self.on_heartbeat_tick(ctx, at),
            // Void once the sleeper's node has crashed: the machine drops
            // a timer aimed at a crashed node.
            Wire::Timer(Timer::Wake) => ctx.ack_app(at.node),
            Wire::Timer(Timer::Retransmit { to }) => self.on_net_timer(ctx, at, to),
        }
    }

    /// The armed retransmit timer of channel `at -> to` reached service:
    /// resend everything unacked, double the backoff, rearm.
    fn on_net_timer(&mut self, ctx: &mut MCtx<'_>, at: ProcAddr, to: ProcAddr) {
        let Some(ch) = self.net.send.get_mut(&(at, to)) else {
            return;
        };
        // Handled only while armed, and armed only while something is
        // unacked: `net_send` arms after inserting, an ack re-arms only if
        // some remain, and the ack that empties the buffer (or
        // `harvest_channels`) disarms the channel.
        let handled = ch.armed.take();
        debug_assert!(handled.is_some(), "a disarmed timer was handled");
        debug_assert!(
            !ch.unacked.is_empty(),
            "retransmit timer on an empty channel"
        );
        let node = at.node;
        let overhead = ctx.cost().handler_overhead;
        self.counters[node.index()].retransmit_timeouts += 1;
        for (seq, msg) in &ch.unacked {
            ctx.work(overhead, Category::Retransmit);
            self.counters[node.index()].retransmissions += 1;
            ctx.send(
                to,
                Wire::Data {
                    seq: *seq,
                    msg: msg.clone(),
                },
            );
        }
        ch.backoff = (ch.backoff + 1).min(BACKOFF_CAP);
        ch.arm(ctx, to);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::trace::StateHasher;
    use svm_machine::NodeId;
    use svm_mem::PageNum;
    use svm_testkit::check;

    /// A message that names its sequence number.
    fn tagged(seq: u32) -> SvmMsg {
        SvmMsg::NodeDown {
            dead: NodeId(seq as u16),
        }
    }

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

    /// `ReliableNet` derives `Hash` in field order, the order its
    /// hand-written impl hashed: `(enabled, recv, send)`. A retransmit
    /// expiry hashes as its variant and channel, as it did while it also
    /// carried an arming stamp that hashed as nothing.
    #[test]
    fn net_hash_is_the_enabled_recv_send_tuple() {
        let [x, y] = [0, 1].map(|n| ProcAddr::cpu(svm_machine::NodeId(n)));
        let was = |net: &ReliableNet| StateHasher::of((net.enabled, &net.recv, &net.send));
        let empty = ReliableNet::new(true);
        let mut net = ReliableNet::new(true);
        let msg = SvmMsg::NodeDown { dead: y.node };
        let ch = net.send.entry((x, y)).or_default();
        ch.sent = 1;
        ch.unacked.push_back((1, msg.clone()));
        net.recv.entry((y, x)).or_default().buffered.insert(2, msg);
        assert_eq!(StateHasher::of(&empty), was(&empty));
        assert_eq!(StateHasher::of(&net), was(&net));
        assert_ne!(StateHasher::of(&net), StateHasher::of(&empty));

        let expiry = |to| StateHasher::of(Timer::Retransmit { to });
        assert_eq!(expiry(y), StateHasher::of((2isize, y)));
        assert_ne!(expiry(y), expiry(x));
    }

    /// The digest is the one the `BTreeMap<u32, SvmMsg>` this FIFO replaced
    /// produced: the length, then each `(seq, msg)` in ascending order.
    #[test]
    fn send_channel_hashes_as_the_map_it_replaced() {
        let mut ch = SendChannel::default();
        let mut map = BTreeMap::new();
        for seq in 1..=3 {
            ch.sent = seq;
            ch.unacked.push_back((seq, tagged(seq)));
            map.insert(seq, tagged(seq));
        }
        let was = |map: &BTreeMap<u32, SvmMsg>| StateHasher::of((3u32, map, false, 0u32));
        assert_eq!(StateHasher::of(&ch), was(&map));
        ch.unacked.pop_front(); // an ack of seq 1
        map.remove(&1);
        assert_eq!(StateHasher::of(&ch), was(&map));
    }

    /// Any arrival order of a channel's sequence numbers, with duplicates
    /// and gaps, is released as a reorder buffer releases it: after each
    /// arrival, every message up to the longest fully arrived prefix, each
    /// once and in order; the ack names that prefix, every arrival is
    /// acked, and an arrival seen before is a suppressed duplicate.
    #[test]
    fn receive_channel_releases_as_a_reorder_buffer() {
        let arrivals = |src: &mut svm_testkit::Source| {
            let n = src.u32_in(1..12);
            src.vec(0..40, |src| src.u32_in(1..n + 1))
        };
        check(
            "receive_channel_releases_as_a_reorder_buffer",
            arrivals,
            |arrivals| {
                let mut rc = RecvChannel::default();
                let mut counters = NodeCounters::default();
                let (mut seen, mut prefix, mut dups) = (BTreeSet::new(), 0, 0);
                for &seq in arrivals {
                    let got: Vec<u32> = rc
                        .accept(seq, tagged(seq), &mut counters)
                        .into_iter()
                        .map(|m| {
                            let SvmMsg::NodeDown { dead } = m else {
                                panic!("released {m:?}");
                            };
                            u32::from(dead.0)
                        })
                        .collect();
                    dups += u64::from(!seen.insert(seq));
                    let before = prefix;
                    while seen.contains(&(prefix + 1)) {
                        prefix += 1;
                    }
                    let want: Vec<u32> = (before + 1..=prefix).collect();
                    assert_eq!(got, want, "released by seq {seq}");
                    assert_eq!(rc.delivered, prefix, "the cumulative ack after seq {seq}");
                }
                assert_eq!(counters.acks_sent, arrivals.len() as u64);
                assert_eq!(counters.dup_suppressed, dups);
            },
        );
    }

    #[test]
    fn backoff_doubles_to_cap() {
        assert_eq!(timeout(0), SimDuration::from_micros(5_000));
        assert_eq!(timeout(1), SimDuration::from_micros(10_000));
        assert_eq!(timeout(6), SimDuration::from_micros(320_000));
        assert_eq!(timeout(9), SimDuration::from_micros(320_000), "capped");
    }
}
