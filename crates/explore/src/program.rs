//! The tiny workloads the explorer drives, and the bounded configurations
//! they run under.
//!
//! Exploration cost is exponential in concurrency, so the one program is
//! the smallest shape that still exercises the protocol paths the paper's
//! real workloads take: lock-protected read-modify-write (diff creation,
//! lock-transfer write notices, fetch/validate) closed by a barrier
//! (arrival, release, interval flush). Its round count is the state-space
//! size dial.

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
}

impl Program {
    /// Stable textual name (`lock-counter:N`).
    pub fn name(&self) -> String {
        match self {
            Program::LockCounter { rounds } => format!("lock-counter:{rounds}"),
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
    let Program::LockCounter { rounds } = program;
    run_explored(
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
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_names_round_trip() {
        let p = Program::LockCounter { rounds: 3 };
        assert_eq!(Program::parse(&p.name()).unwrap(), p);
        assert!(Program::parse("lock-counter").is_err());
        assert!(Program::parse("widget:2").is_err());
    }
}
