//! Deterministic discrete-event simulation kernel.
//!
//! This crate provides the execution substrate for the shared-virtual-memory
//! simulator: virtual time, a deterministic event scheduler, simulated
//! processes (application programs running as coroutines on the kernel's
//! thread, each on a stack of its own, resumed one at a time in strict
//! alternation with the event kernel; x86-64 Linux only), and a small
//! deterministic RNG for workload generation. Kernel and bodies share state
//! through `Rc`, `Cell` and `RefCell`: a simulation is `!Send`.
//!
//! Determinism is the point: two events scheduled for the same virtual time
//! fire in scheduling order, only one simulated process ever runs at a time,
//! and nothing reads wall-clock time, so a simulation run is a pure function
//! of its inputs.

pub mod process;
pub mod rng;
pub mod sched;
pub mod time;

pub use process::{spawn_process, ProcessPort, SimProcess, Yielded};
pub use rng::{fnv1a64, SplitMix64, FNV_BASIS};
pub use sched::{EventId, Scheduler};
pub use time::{SimDuration, SimTime};
