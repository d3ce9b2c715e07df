//! The application-visible virtual clock and sleep timers.
//!
//! Request-driven workloads (`svm-serve`) need two things the Splash-2
//! interface never did: reading the virtual clock (to timestamp requests)
//! and parking until a virtual-time deadline (to pace open-loop arrival
//! schedules and closed-loop think times). Both are deliberately
//! measurement-neutral:
//!
//! * [`SvmReq::Clock`](crate::msg::SvmReq::Clock) completes at the cursor with zero charged work —
//!   a program that timestamps every operation is bit-identical in
//!   virtual time to one that does not.
//! * [`SvmReq::SleepUntil`](crate::msg::SvmReq::SleepUntil) blocks the application as **idle** (not
//!   protocol wait) and arms a machine timer for the deadline
//!   ([`Timer::Wake`]). The node's protocol layer keeps servicing remote
//!   faults, diff flushes, and lock traffic while the application sleeps,
//!   exactly like a real server blocked in `epoll_wait`.

use svm_machine::{Category, NodeId};
use svm_sim::SimTime;

use super::reliable::{Timer, Wire};
use super::{MCtx, SvmAgent};
use crate::msg::SvmResp;

impl SvmAgent {
    /// `SvmReq::Clock`: answer with the cursor time, charging nothing.
    pub(crate) fn on_clock(&mut self, ctx: &mut MCtx<'_>, node: NodeId) {
        let now = ctx.now();
        ctx.complete_app(node, SvmResp::Time(now));
    }

    /// `SvmReq::SleepUntil`: park the application as idle until `until`.
    pub(crate) fn on_sleep(&mut self, ctx: &mut MCtx<'_>, node: NodeId, until: SimTime) {
        let now = ctx.now();
        if until <= now {
            // Deadline already passed (an open-loop client running behind
            // its arrival schedule): resume immediately.
            ctx.ack_app(node);
            return;
        }
        ctx.block_app(node, Category::Idle);
        ctx.set_timer(until.since(now), Wire::Timer(Timer::Wake));
    }
}
