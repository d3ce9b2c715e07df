//! The declared timer-token namespaces.
//!
//! Every timer the protocol arms carries a `u64` value that
//! [`super::SvmAgent::on_timer`] routes on. Three subsystems arm timers —
//! retransmission, application sleep, and the failure-detector heartbeat —
//! and each draws from its own half-open range declared here, so a value can
//! never be routed to the wrong handler:
//!
//! | namespace  | range                          | minted by                 |
//! |------------|--------------------------------|---------------------------|
//! | retransmit | `[RETRANSMIT_LO, RETRANSMIT_HI)` | `TimerTokens::arm` (monotonic counter) |
//! | sleep      | `[SLEEP_LO, SLEEP_HI)`         | `Token::sleep` (`SLEEP_LO \| node`) |
//! | heartbeat  | `[HEARTBEAT_LO, HEARTBEAT_HI)` | `Token::heartbeat` (its only member) |
//!
//! The ranges partition by the top two bits: retransmit tokens count up
//! from zero (reaching bit 62 would take more arms than any run schedules,
//! and the allocator asserts it), sleep tokens set bit 62, the heartbeat
//! token is exactly bit 63. Both halves of that hold by construction: the
//! const assertion below refuses to compile ranges that are empty or
//! overlap, and a [`Token`]'s field is private to this file, so one is only
//! ever minted inside a range, armed by `SvmAgent::arm_timer` (the one
//! `Ctx::set_timer` call `crates/core/clippy.toml` lets this crate make),
//! and told apart again by `Token::classify`.

use std::collections::BTreeMap;

use svm_machine::NodeId;
use svm_sim::{EventId, SimDuration};

use super::{MCtx, SvmAgent};

const RETRANSMIT_LO: u64 = 0;
const RETRANSMIT_HI: u64 = 1 << 62;
const SLEEP_LO: u64 = 1 << 62;
const SLEEP_HI: u64 = 1 << 63;
const HEARTBEAT_LO: u64 = 1 << 63;
/// Exclusive, like every `*_HI`: the namespace holds one token.
const HEARTBEAT_HI: u64 = (1 << 63) + 1;

const _: () = assert!(
    RETRANSMIT_LO < RETRANSMIT_HI
        && RETRANSMIT_HI <= SLEEP_LO
        && SLEEP_LO < SLEEP_HI
        && SLEEP_HI <= HEARTBEAT_LO
        && HEARTBEAT_LO < HEARTBEAT_HI,
    "timer-token ranges must be non-empty and pairwise disjoint (declared in ascending order)"
);

/// A timer value inside one of the declared namespaces.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Token(u64);

/// The namespace a fired timer's value belongs to, with what it encodes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TimerKind {
    /// The failure detector's tick.
    Heartbeat,
    /// The deadline of this node's pending [`crate::msg::SvmReq::SleepUntil`].
    Sleep(NodeId),
    /// A retransmit timeout; `TimerTokens::resolve` says whether it is stale.
    Retransmit(Token),
}

impl Token {
    /// The failure detector's heartbeat token.
    pub(crate) fn heartbeat() -> Token {
        Token(HEARTBEAT_LO)
    }

    /// The sleep token for `node`.
    pub(crate) fn sleep(node: NodeId) -> Token {
        Token(SLEEP_LO | node.0 as u64)
    }

    /// Sort a value the machine handed back (`Agent::on_timer`, a parked
    /// explorer timer) into its namespace.
    pub fn classify(raw: u64) -> TimerKind {
        match raw {
            HEARTBEAT_LO => TimerKind::Heartbeat,
            SLEEP_LO..SLEEP_HI => TimerKind::Sleep(NodeId((raw & !SLEEP_LO) as u16)),
            _ => TimerKind::Retransmit(Token(raw)),
        }
    }
}

impl SvmAgent {
    /// Arm a machine timer. Taking a [`Token`] is the point: every timer
    /// value this crate schedules lies in a declared namespace.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one Ctx::set_timer call in svm-core: its value is a Token"
    )]
    pub(super) fn arm_timer(ctx: &mut MCtx<'_>, delay: SimDuration, token: Token) -> EventId {
        ctx.set_timer(delay, token.0)
    }
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
    live: BTreeMap<Token, usize>,
}

impl TimerTokens {
    /// Allocate a fresh token for `chan`'s timer.
    pub(crate) fn arm(&mut self, chan: usize) -> Token {
        let token = Token(RETRANSMIT_LO + self.next);
        // INVARIANT: a simulation would need 2^62 timer arms to exhaust the
        // namespace; that is unreachable in any run, so leaving the range is
        // internal-state corruption, not an input condition.
        assert!(
            token.0 < RETRANSMIT_HI,
            "retransmit token namespace exhausted"
        );
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: bounded by the same 2^62-arms argument as the assert."
        )]
        let next = self
            .next
            .checked_add(1)
            .expect("retransmit timer token space exhausted");
        self.next = next;
        self.live.insert(token, chan);
        token
    }

    /// Kill a token; returns whether it was live.
    pub(crate) fn disarm(&mut self, token: Token) -> bool {
        self.live.remove(&token).is_some()
    }

    /// The channel a live token belongs to (`None` = stale).
    pub(crate) fn resolve(&self, token: Token) -> Option<usize> {
        self.live.get(&token).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_inverts_every_mint() {
        assert_eq!(Token::classify(Token::heartbeat().0), TimerKind::Heartbeat);
        for node in [NodeId(0), NodeId(7), NodeId(u16::MAX)] {
            assert_eq!(
                Token::classify(Token::sleep(node).0),
                TimerKind::Sleep(node)
            );
        }
        // The retransmit registry allocates monotonically from 0; the
        // first 2^62 values all classify as retransmit tokens.
        let armed = TimerTokens::default().arm(3);
        assert_eq!(Token::classify(armed.0), TimerKind::Retransmit(armed));
        for raw in [0, 123_456, SLEEP_LO - 1] {
            assert_eq!(Token::classify(raw), TimerKind::Retransmit(Token(raw)));
        }
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
