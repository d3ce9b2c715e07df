//! The tiny workloads the explorer drives, and the bounded configurations
//! they run under.
//!
//! Exploration cost is exponential in concurrency, so these programs are
//! the smallest shapes that still exercise every protocol path the paper's
//! real workloads take: lock-protected read-modify-write (diff creation,
//! lock-transfer write notices, fetch/validate) and barrier-phased
//! producer/consumer sharing (interval flush at barriers, invalidation,
//! home fetches). Both are parameterized by a round count, which is the
//! state-space size dial.

use svm_core::{run_explored, BarrierId, LockId, ProtocolName, RunReport, SvmAgent, SvmConfig};
use svm_machine::{ExploreStep, World};

/// A workload the explorer knows how to build, keyed by a stable name so
/// corpus files can reconstruct it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Program {
    /// Every node runs `rounds` lock-protected increments of one shared
    /// counter (single page, home node 0), then one barrier.
    LockCounter {
        /// Critical sections per node.
        rounds: u32,
    },
    /// `rounds` barrier phases: each node writes its own slot, meets the
    /// barrier, reads every peer's slot, meets the barrier again. Slots
    /// live on two pages (homes 0 and 1) so both fetch directions occur.
    BarrierMix {
        /// Write-read phases.
        rounds: u32,
    },
}

impl Program {
    /// Stable textual name (`lock-counter:N` / `barrier-mix:N`).
    pub fn name(&self) -> String {
        match self {
            Program::LockCounter { rounds } => format!("lock-counter:{rounds}"),
            Program::BarrierMix { rounds } => format!("barrier-mix:{rounds}"),
        }
    }

    /// Parse the [`Self::name`] form.
    pub fn parse(s: &str) -> Result<Program, String> {
        let (kind, rounds) = s
            .split_once(':')
            .ok_or_else(|| format!("bad program {s:?} (want kind:rounds)"))?;
        let rounds = rounds
            .parse::<u32>()
            .map_err(|_| format!("bad round count in {s:?}"))?;
        match kind {
            "lock-counter" => Ok(Program::LockCounter { rounds }),
            "barrier-mix" => Ok(Program::BarrierMix { rounds }),
            _ => Err(format!("unknown program kind {kind:?}")),
        }
    }
}

/// The bounded configuration the explorer runs under: tiny page size (the
/// digest hashes page bytes, and nothing here needs more than a few words
/// per page) and recovery optionally armed. Everything else is the shipped
/// default — the point is to explore the production construction path.
pub fn base_config(
    protocol: ProtocolName,
    nodes: usize,
    recovery: bool,
    page_size: usize,
) -> SvmConfig {
    let mut cfg = SvmConfig::new(protocol, nodes);
    cfg.cost.page_size = page_size;
    cfg.recovery.enabled = recovery;
    cfg
}

/// Run `program` under `cfg` with every scheduler choice delegated to
/// `controller` (via [`svm_core::run_explored`], i.e. the shipped world
/// construction and handler code).
pub fn run_program<C>(cfg: &SvmConfig, program: Program, controller: C) -> RunReport
where
    C: FnMut(&mut World<SvmAgent>) -> ExploreStep,
{
    match program {
        Program::LockCounter { rounds } => run_explored(
            cfg,
            |s| {
                let a = s.alloc_array::<u64>(1, "counter");
                // Home the counter away from node 0 (the lock/barrier
                // manager): lock traffic and page traffic then flow in
                // opposite directions concurrently, which is where the
                // interesting interleavings live.
                s.assign_home(&a, 0..1, s.nodes() - 1);
                a
            },
            move |ctx, a| {
                for _ in 0..rounds {
                    ctx.lock(LockId(0));
                    let v: u64 = ctx.read(a.addr(0));
                    ctx.write(a.addr(0), v + 1);
                    ctx.unlock(LockId(0));
                }
                ctx.barrier(BarrierId(0));
            },
            controller,
        ),
        Program::BarrierMix { rounds } => run_explored(
            cfg,
            |s| {
                let n = s.nodes();
                let a = s.alloc_array_pages::<u64>(n, "even-slots");
                let b = s.alloc_array_pages::<u64>(n, "odd-slots");
                s.assign_home(&a, 0..n, 0);
                s.assign_home(&b, 0..n, 1 % n);
                (a, b)
            },
            move |ctx, (a, b)| {
                let me = ctx.node();
                let slot = if me % 2 == 0 { a.addr(me) } else { b.addr(me) };
                for r in 0..rounds {
                    ctx.write(slot, (r as u64 + 1) * (me as u64 + 1));
                    ctx.barrier(BarrierId(0));
                    let mut sum = 0u64;
                    for peer in 0..ctx.nodes() {
                        let s = if peer % 2 == 0 {
                            a.addr(peer)
                        } else {
                            b.addr(peer)
                        };
                        sum = sum.wrapping_add(ctx.read::<u64>(s));
                    }
                    std::hint::black_box(sum);
                    ctx.barrier(BarrierId(0));
                }
            },
            controller,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_names_round_trip() {
        for p in [
            Program::LockCounter { rounds: 3 },
            Program::BarrierMix { rounds: 1 },
        ] {
            assert_eq!(Program::parse(&p.name()).unwrap(), p);
        }
        assert!(Program::parse("lock-counter").is_err());
        assert!(Program::parse("widget:2").is_err());
    }
}
