//! The declared timer-token namespaces.
//!
//! Every timer the protocol arms through `Ctx::set_timer` carries a `u64`
//! token that [`super::SvmAgent::on_timer`] routes on. Three subsystems arm
//! timers — retransmission, application sleep, and the failure-detector
//! heartbeat — and each draws from its own half-open range declared here,
//! so a token can never be routed to the wrong handler:
//!
//! | namespace  | range                          | allocation                |
//! |------------|--------------------------------|---------------------------|
//! | retransmit | `[RETRANSMIT_LO, RETRANSMIT_HI)` | monotonic counter ([`TimerTokens`]) |
//! | sleep      | `[SLEEP_LO, SLEEP_HI)`         | `SLEEP_LO \| node`        |
//! | heartbeat  | `[HEARTBEAT_LO, HEARTBEAT_HI)` | the single `HB_TOKEN`     |
//!
//! The ranges partition by the top two bits: retransmit tokens count up
//! from zero (reaching bit 62 would take more arms than any run schedules,
//! and the allocator asserts it), sleep tokens set bit 62, the heartbeat
//! token is exactly bit 63. `svm-analyzer`'s `timer-token-disjointness`
//! rule checks two things against this file: that the declared `*_LO`/`*_HI`
//! ranges are well-formed and pairwise disjoint, and that every
//! `set_timer` call site in the protocol derives its token from a name
//! declared here.

use std::collections::BTreeMap;

use svm_machine::NodeId;

/// Retransmit-token range start (inclusive).
pub const RETRANSMIT_LO: u64 = 0;
/// Retransmit-token range end (exclusive).
pub const RETRANSMIT_HI: u64 = 1 << 62;
/// Sleep-token range start (inclusive).
pub const SLEEP_LO: u64 = 1 << 62;
/// Sleep-token range end (exclusive).
pub const SLEEP_HI: u64 = 1 << 63;
/// Heartbeat-token range start (inclusive).
pub const HEARTBEAT_LO: u64 = 1 << 63;
/// Heartbeat-token range end (exclusive): the namespace holds one token.
pub const HEARTBEAT_HI: u64 = (1 << 63) + 1;

/// The failure detector's heartbeat token (the heartbeat namespace's only
/// member).
pub const HB_TOKEN: u64 = HEARTBEAT_LO;

/// The sleep token for `node`'s pending [`crate::msg::SvmReq::SleepUntil`].
pub fn sleep_token(node: NodeId) -> u64 {
    SLEEP_LO | node.0 as u64
}

/// Whether `token` belongs to the sleep namespace.
pub fn is_sleep_token(token: u64) -> bool {
    (SLEEP_LO..SLEEP_HI).contains(&token)
}

/// The node a sleep token was armed for.
pub fn sleep_node(token: u64) -> NodeId {
    debug_assert!(is_sleep_token(token));
    NodeId((token & !SLEEP_LO) as u16)
}

/// Live retransmit-timer tokens, allocated from one 64-bit counter within
/// `[RETRANSMIT_LO, RETRANSMIT_HI)`.
///
/// The previous scheme packed `channel | generation << 32` into the timer
/// token: the channel index truncated to 32 bits and the generation
/// wrapped at `u32::MAX`, so a stale queued timer could collide with a
/// live generation one full wrap later and trigger a spurious
/// retransmission burst. Tokens are now never reused — a token is live iff
/// it is in `live`, so staleness is structural: a cancelled or superseded
/// timer's token simply no longer resolves (see the wrap regression test).
#[derive(Default)]
pub(crate) struct TimerTokens {
    next: u64,
    live: BTreeMap<u64, usize>,
}

impl TimerTokens {
    /// Allocate a fresh token for `chan`'s timer.
    pub(crate) fn arm(&mut self, chan: usize) -> u64 {
        let token = RETRANSMIT_LO + self.next;
        // INVARIANT: a simulation would need 2^62 timer arms to exhaust the
        // namespace; that is unreachable in any run, so leaving the range is
        // internal-state corruption, not an input condition.
        assert!(
            token < RETRANSMIT_HI,
            "retransmit token namespace exhausted"
        );
        let next = self.next.checked_add(1);
        // INVARIANT: bounded by the same 2^62-arms argument as the assert.
        self.next = next.expect("retransmit timer token space exhausted");
        self.live.insert(token, chan);
        token
    }

    /// Kill a token; returns whether it was live.
    pub(crate) fn disarm(&mut self, token: u64) -> bool {
        self.live.remove(&token).is_some()
    }

    /// The channel a live token belongs to (`None` = stale).
    pub(crate) fn resolve(&self, token: u64) -> Option<usize> {
        self.live.get(&token).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespaces_partition_the_token_space() {
        // Same shape as the analyzer's timer-token-disjointness rule:
        // every declared range is well-formed and pairwise disjoint.
        let ranges = [
            ("retransmit", RETRANSMIT_LO, RETRANSMIT_HI),
            ("sleep", SLEEP_LO, SLEEP_HI),
            ("heartbeat", HEARTBEAT_LO, HEARTBEAT_HI),
        ];
        for (name, lo, hi) in ranges {
            assert!(lo < hi, "{name} range is empty or inverted");
        }
        for (i, &(a, a_lo, a_hi)) in ranges.iter().enumerate() {
            for &(b, b_lo, b_hi) in &ranges[i + 1..] {
                assert!(
                    a_hi <= b_lo || b_hi <= a_lo,
                    "{a} and {b} token ranges overlap"
                );
            }
        }
    }

    #[test]
    fn sleep_tokens_are_disjoint_from_heartbeat_and_retransmit_ranges() {
        let t = sleep_token(NodeId(7));
        assert!(is_sleep_token(t));
        assert!(!is_sleep_token(HB_TOKEN));
        // The retransmit registry allocates monotonically from 0; the
        // first 2^62 tokens are all outside the sleep namespace.
        assert!(!is_sleep_token(0));
        assert!(!is_sleep_token(123_456));
        assert!(!is_sleep_token(SLEEP_LO - 1));
        assert_eq!(sleep_node(t), NodeId(7));
    }

    /// Regression for the old `channel | gen << 32` token packing: drive
    /// the allocator across the boundary where the 32-bit generation used
    /// to wrap and verify a stale token can never be mistaken for a live
    /// one — staleness is structural (absent from the live map), not a
    /// modular counter comparison.
    #[test]
    fn stale_tokens_stay_dead_across_the_old_gen_wrap_boundary() {
        // Start just below where the old u32 generation wrapped to 0.
        let mut t = TimerTokens {
            next: u32::MAX as u64 - 2,
            ..TimerTokens::default()
        };
        let stale = t.arm(5);
        assert_eq!(t.resolve(stale), Some(5));
        assert!(t.disarm(stale), "live token disarms once");

        // Arm/disarm the same channel through and past the wrap boundary
        // (old scheme: gen would revisit the stale token's value here).
        let mut seen = vec![stale];
        for _ in 0..6 {
            let tok = t.arm(5);
            assert!(!seen.contains(&tok), "tokens are never reused");
            seen.push(tok);
            assert!(t.disarm(tok));
        }
        assert!(t.next > u32::MAX as u64 + 3, "crossed the old wrap point");
        assert_eq!(t.resolve(stale), None, "stale token must stay dead");
        assert!(!t.disarm(stale), "double-disarm is a no-op");
    }

    /// Channel indices are not truncated: tokens resolve to the exact
    /// channel they were armed for, independent of how many channels or
    /// arms came before.
    #[test]
    fn tokens_resolve_to_their_own_channel() {
        let mut t = TimerTokens::default();
        let a = t.arm(0);
        let b = t.arm(71);
        let c = t.arm(usize::MAX >> 1);
        assert_eq!(t.resolve(a), Some(0));
        assert_eq!(t.resolve(b), Some(71));
        assert_eq!(t.resolve(c), Some(usize::MAX >> 1));
        t.disarm(b);
        assert_eq!(t.resolve(a), Some(0));
        assert_eq!(t.resolve(b), None);
        assert_eq!(t.resolve(c), Some(usize::MAX >> 1));
    }
}
