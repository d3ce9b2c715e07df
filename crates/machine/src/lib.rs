//! A deterministic model of a Paragon-like multicomputer.
//!
//! The paper's testbed (Section 3.1) is a 64-node Intel Paragon: each node
//! has a compute processor and a communication co-processor sharing memory,
//! connected by a wormhole-routed mesh. This crate models what the four SVM
//! protocols actually exercise:
//!
//! * **message passing** with a latency + bandwidth cost (`CostModel`),
//! * **interrupt-driven service on the compute processor** — an incoming
//!   message preempts application computation and pays the receive-interrupt
//!   cost — versus **polled service on the co-processor** (the kernel-mode
//!   dispatch loop of Section 3.3), which overlaps with computation,
//! * **FIFO serialization at each processor** — the source of the "hot spot"
//!   imbalance the paper observes for homeless protocols (Section 4.5),
//! * **per-node execution-time accounting** in the paper's Figure-3
//!   categories, and **traffic counters** for Table 5.
//!
//! Protocol logic is supplied by an [`Agent`] implementation (in `svm-core`);
//! application programs run as simulated processes that interact through
//! typed requests.
//!
//! ## Modeling notes
//!
//! * A handler's state changes commit when service *starts*; processor
//!   occupancy extends to service end. This standard discrete-event
//!   approximation can make same-node cross-processor effects visible up to
//!   one service time early; all cross-node interaction still pays full
//!   message costs.
//! * The network itself is contention-free (latency + size/bandwidth); the
//!   serialization the paper attributes to hot spots happens at the
//!   *endpoints*, which is where their analysis places it too.

pub mod accounting;
pub mod cost;
pub mod machine;
pub mod netfault;
pub mod nodefault;
pub mod traffic;
pub mod types;

pub use accounting::{Breakdown, Category};
pub use cost::CostModel;
pub use machine::{
    Agent, AppPhase, AppRequest, AppResponse, Ctx, ExploreStep, Halt, HeldDelivery, Machine,
    RunError, RunOutcome, TimerId, World,
};
pub use netfault::{FaultPlan, NetFaultConfig, NetFaultStats};
pub use nodefault::{CrashSpec, NodeFaultConfig, NodeFaultPlan, NodeFaultStats};
pub use traffic::{Message, TrafficClass, TrafficStats};
pub use types::{NodeId, NodeRole, ProcAddr, ProcKind};
