//! Wiring: allocate and initialize shared data, spawn the machine, run a
//! program under a protocol, and collect the report.

use std::rc::Rc;

use svm_machine::{Breakdown, ExploreStep, NodeId, RunOutcome, World};
use svm_mem::{GAddr, Geometry, GlobalHeap};

use crate::api::{AppPort, NodeCache, Scalar, SharedArr, SvmCtx};
use crate::config::{round_robin, ProtocolName, SvmConfig};
use crate::metrics::ProtocolReport;
use crate::protocol::recovery::RecoveryStats;
use crate::protocol::{ProtocolError, SvmAgent};
use crate::trace::AccessTrace;

/// The initialization-phase handle: `G_MALLOC` plus golden-image writes and
/// home placement. Runs once, "on node 0, before spawning the workers"
/// (paper Section 3.2).
pub struct Setup {
    heap: GlobalHeap,
    golden: Vec<u8>,
    /// Each allocated page's home: round-robin until assigned.
    homes: Vec<NodeId>,
    nodes: usize,
}

impl Setup {
    fn new(geometry: Geometry, nodes: usize) -> Self {
        Setup {
            heap: GlobalHeap::new(geometry),
            golden: Vec::new(),
            homes: Vec::new(),
            nodes,
        }
    }

    /// Number of nodes the program will run on.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.heap.geometry().page_size()
    }

    /// Grow the golden image and the home map with the heap.
    fn grow(&mut self) {
        let need = self.heap.allocated_bytes() as usize;
        if self.golden.len() < need {
            self.golden.resize(need, 0);
        }
        let nodes = self.nodes;
        let pages = self.heap.num_pages() as usize;
        self.homes
            .extend((self.homes.len()..pages).map(|p| round_robin(p, nodes)));
    }

    /// Allocate a shared array of `n` scalars (naturally aligned).
    pub fn alloc_array<T: Scalar>(&mut self, n: usize, label: &str) -> SharedArr<T> {
        let size = std::mem::size_of::<T>();
        let base = self
            .heap
            .alloc((n * size) as u64, size.max(8) as u64, label);
        self.grow();
        SharedArr::from_raw(base, n)
    }

    /// Allocate a page-aligned, page-padded shared array (the Splash-2
    /// idiom for avoiding false sharing between partitions).
    pub fn alloc_array_pages<T: Scalar>(&mut self, n: usize, label: &str) -> SharedArr<T> {
        let size = std::mem::size_of::<T>();
        let base = self.heap.alloc_pages((n * size) as u64, label);
        self.grow();
        SharedArr::from_raw(base, n)
    }

    /// Initialize element `i` in the golden image.
    pub fn init<T: Scalar>(&mut self, arr: &SharedArr<T>, i: usize, v: T) {
        let a = arr.addr(i).0 as usize;
        let size = std::mem::size_of::<T>();
        self.golden[a..a + size].copy_from_slice(&v.to_raw()[..size]);
    }

    /// Read back an initialized element (for reference computations).
    pub fn init_read<T: Scalar>(&self, arr: &SharedArr<T>, i: usize) -> T {
        let a = arr.addr(i).0 as usize;
        let size = std::mem::size_of::<T>();
        let mut raw = [0u8; 8];
        raw[..size].copy_from_slice(&self.golden[a..a + size]);
        T::from_raw(raw)
    }

    /// Initialize a whole array from a slice.
    pub fn init_from<T: Scalar>(&mut self, arr: &SharedArr<T>, src: &[T]) {
        assert_eq!(src.len(), arr.len());
        for (i, v) in src.iter().enumerate() {
            self.init(arr, i, *v);
        }
    }

    /// The pages of `arr[range]` belong to `node`: it is their home and, in
    /// every protocol, their initial copy owner (unless
    /// [`SvmConfig::round_robin_homes`] is set).
    pub fn assign_home<T: Scalar>(
        &mut self,
        arr: &SharedArr<T>,
        range: std::ops::Range<usize>,
        node: usize,
    ) {
        if range.is_empty() {
            return;
        }
        let size = std::mem::size_of::<T>();
        let start = arr.addr(range.start);
        let len = (range.end - range.start) * size;
        self.assign_home_bytes(start, len, node);
    }

    /// The pages of `[addr, addr+len)` belong to `node`.
    pub fn assign_home_bytes(&mut self, addr: GAddr, len: usize, node: usize) {
        assert!(node < self.nodes);
        for p in self.heap.geometry().pages_spanned(addr, len) {
            self.homes[p as usize] = NodeId(node as u16);
        }
    }
}

/// Everything a run produced: timing, breakdowns, traffic, and protocol
/// counters — the raw material for every table and figure in the paper.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Which protocol ran.
    pub protocol: ProtocolName,
    /// How many nodes.
    pub nodes: usize,
    /// Machine-level outcome: total time, per-node breakdowns, traffic.
    pub outcome: RunOutcome,
    /// Protocol-level counters and barrier marks.
    pub counters: ProtocolReport,
    /// Application (shared-data) bytes allocated.
    pub app_bytes: u64,
    /// Pages in the shared address space.
    pub num_pages: u32,
    /// Structured protocol errors (empty on a clean run).
    pub errors: Vec<ProtocolError>,
    /// The recorded access trace (`Some` iff `config.trace.record`), ready
    /// for `svm-checker`.
    pub trace: Option<AccessTrace>,
    /// How many times the seeded bug fired (0 when `config.mutation` is
    /// `None`; checker self-tests assert it is nonzero so a mutation that
    /// never triggers cannot pass vacuously).
    pub mutation_hits: u32,
    /// What crash recovery did (all-zero when no node was declared dead).
    pub recovery: RecoveryStats,
    /// Nodes declared dead by the failure detector, in detection order
    /// (with the virtual time of each declaration). Non-empty marks a
    /// degraded run: the workload completed on the survivors.
    pub deaths: Vec<(NodeId, svm_sim::SimTime)>,
}

impl RunReport {
    /// Parallel execution time in seconds.
    pub fn secs(&self) -> f64 {
        self.outcome.total_time.as_secs_f64()
    }

    /// Speedup against a sequential time in seconds.
    pub fn speedup_vs(&self, seq_secs: f64) -> f64 {
        seq_secs / self.secs()
    }

    /// Average per-node execution-time breakdown (paper Figure 3).
    pub fn avg_breakdown(&self) -> Breakdown {
        let sum = self
            .outcome
            .breakdowns
            .iter()
            .fold(Breakdown::default(), |acc, b| acc.add(b));
        sum.div(self.outcome.breakdowns.len() as u64)
    }
}

// The one-thread contract, held by rustc (DESIGN §17): were a simulation or a
// handle into one `Send`, both impls would apply and `_` could not be
// inferred. What a run leaves behind is plain data and crosses threads (the
// parallel driver collects reports from its workers).
const _: fn() = || {
    trait AmbiguousIfSend<A> {
        fn check() {}
    }
    impl<T: ?Sized> AmbiguousIfSend<()> for T {}
    impl<T: ?Sized + Send> AmbiguousIfSend<u8> for T {}
    <NodeCache as AmbiguousIfSend<_>>::check();
    <SvmCtx<'static> as AmbiguousIfSend<_>>::check();
    <World<SvmAgent> as AmbiguousIfSend<_>>::check();
    fn send<T: Send>() {}
    send::<RunReport>();
};

/// The run-independent facts of a wired [`World`] that the report needs once
/// the run is over.
struct Wiring {
    geometry: Geometry,
    num_pages: u32,
    app_bytes: u64,
    /// Post-initialization image (`Some` iff `config.trace.record`).
    initial: Option<Vec<u8>>,
}

/// Allocate, initialize, and wire a machine for `config`: the shared build
/// phase of [`run`] and [`run_explored`], so what the explorer checks is the
/// shipped construction path.
fn build_world<L, S, B>(config: &SvmConfig, setup: S, body: B) -> (World<SvmAgent>, Wiring)
where
    L: Clone + 'static,
    S: FnOnce(&mut Setup) -> L,
    B: Fn(&SvmCtx<'_>, &L) + 'static,
{
    let geometry = Geometry::new(config.page_size());
    let nodes = config.nodes;
    assert!(nodes >= 1 && nodes <= u16::MAX as usize);

    let mut s = Setup::new(geometry, nodes);
    let layout = setup(&mut s);
    let Setup {
        heap,
        mut golden,
        mut homes,
        ..
    } = s;
    let num_pages = heap.num_pages().max(1);
    golden.resize(num_pages as usize * geometry.page_size(), 0);
    if config.round_robin_homes {
        homes.clear();
    }
    homes.extend((homes.len()..num_pages as usize).map(|p| round_robin(p, nodes)));

    let caches: Vec<NodeCache> = (0..nodes)
        .map(|_| NodeCache::new(num_pages as usize))
        .collect();

    let agent = SvmAgent::new(config.clone(), geometry, &golden, homes, caches.clone());
    // The checker needs the post-initialization image when recording.
    let initial = config.trace.record.then_some(golden);
    let body = Rc::new(body);
    let bodies: Vec<svm_machine::machine::AppBody<SvmAgent>> = (0..nodes)
        .map(|i| {
            let body = Rc::clone(&body);
            let layout = layout.clone();
            let cache = caches[i].clone();
            let recorder = agent.recording.as_ref().map(|r| r.recorder(i));
            let b: svm_machine::machine::AppBody<SvmAgent> = Box::new(move |port: &AppPort| {
                let ctx = SvmCtx::new(port, cache, recorder, geometry, i, nodes);
                body(&ctx, &layout);
            });
            b
        })
        .collect();

    let wiring = Wiring {
        geometry,
        num_pages,
        app_bytes: heap.allocated_bytes(),
        initial,
    };
    (World::new(config.cost.clone(), agent, bodies), wiring)
}

impl Wiring {
    /// Assemble the report of a finished run: the shared tail of [`run`]
    /// and [`run_explored`].
    fn report(self, config: &SvmConfig, outcome: RunOutcome, mut agent: SvmAgent) -> RunReport {
        let trace = agent.recording.take().map(|rec| AccessTrace {
            nodes: config.nodes,
            page_size: self.geometry.page_size(),
            num_pages: self.num_pages,
            initial: self.initial.expect("initial image kept when recording"),
            events: rec.finish(),
        });
        RunReport {
            protocol: config.protocol,
            nodes: config.nodes,
            outcome,
            counters: ProtocolReport {
                nodes: agent.counters,
                barrier_marks: agent.barrier_marks,
            },
            app_bytes: self.app_bytes,
            num_pages: self.num_pages,
            errors: agent.errors,
            trace,
            mutation_hits: agent.mutation.hits,
            recovery: agent.recovery.stats,
            deaths: agent.recovery.deaths,
        }
    }
}

/// Run `body` on every node of a fresh machine under `config`.
///
/// `setup` allocates and initializes the shared data and returns the layout
/// (plain data cloned to every node); `body` is the per-node program.
///
/// # Panics
///
/// Panics if the application panics on any node or the protocol deadlocks
/// (with diagnostics from the machine layer).
pub fn run<L, S, B>(config: &SvmConfig, setup: S, body: B) -> RunReport
where
    L: Clone + 'static,
    S: FnOnce(&mut Setup) -> L,
    B: Fn(&SvmCtx<'_>, &L) + 'static,
{
    let (mut world, wiring) = build_world(config, setup, body);
    world.machine.set_faults(config.fault.clone());
    world.machine.set_node_faults(config.node_fault.clone());
    let (outcome, agent) = world.run();

    // Sanity: the protocols must leave no dangling fault state. (Open
    // intervals at exit are fine: nothing synchronizes after the end.) A
    // halted run is exempt — it stopped mid-flight by design — and so is a
    // node that died mid-fault, declared or not (a victim crashing after
    // its last barrier can miss detection before the survivors finish):
    // its page fetch legitimately never resolves.
    if outcome.is_clean() {
        for (i, n) in agent.nodes_st.iter().enumerate() {
            let crashable =
                !agent.recovery.alive[i] || config.node_fault.crashes.iter().any(|c| c.node == i);
            assert!(
                n.fault.is_none() || crashable,
                "node {i} finished with an outstanding fault"
            );
        }
    }
    wiring.report(config, outcome, agent)
}

/// Run `body` under `config` with every scheduler choice delegated to
/// `controller` — the entry of the `svm-explore` model checker and of its
/// counterexample replayer (DESIGN §16).
///
/// The wiring is [`run`]'s own, so an explored transition exercises exactly
/// the shipped handler code, while `svm-machine`'s explore mode parks every
/// cross-node send and timer: "what arrives next" is the controller's choice
/// at each quiescent point. Recording is forced on: the state digest and the
/// terminal trace-checker oracle both need the recorder streams. Timing in
/// the report is synthetic.
///
/// # Panics
///
/// Panics if `config` carries fault injection or a timed crash plan: in
/// explore mode the controller owns every source of nondeterminism
/// (crashes are [`ExploreStep::Crash`] actions).
pub fn run_explored<L, S, B, C>(config: &SvmConfig, setup: S, body: B, controller: C) -> RunReport
where
    L: Clone + 'static,
    S: FnOnce(&mut Setup) -> L,
    B: Fn(&SvmCtx<'_>, &L) + 'static,
    C: FnMut(&mut World<SvmAgent>) -> ExploreStep,
{
    let mut cfg = config.clone();
    cfg.trace.record = true;
    assert!(
        !cfg.fault.is_active(),
        "explore mode owns all nondeterminism: no fault injection"
    );
    assert!(
        cfg.node_fault.crashes.is_empty(),
        "explore crashes are controller actions, not a timed plan"
    );
    let (world, wiring) = build_world(&cfg, setup, body);
    let (outcome, agent) = world.run_explore(controller);
    wiring.report(&cfg, outcome, agent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use svm_mem::Geometry;

    #[test]
    fn setup_alloc_and_init_roundtrip() {
        let mut s = Setup::new(Geometry::new(4096), 4);
        let a = s.alloc_array::<f64>(100, "a");
        let b = s.alloc_array_pages::<u32>(10, "b");
        assert_eq!(a.len(), 100);
        s.init(&a, 7, 2.5);
        s.init(&b, 3, 42);
        assert_eq!(s.init_read(&a, 7), 2.5);
        assert_eq!(s.init_read(&a, 8), 0.0, "untouched elements are zero");
        assert_eq!(s.init_read(&b, 3), 42u32);
        assert_eq!(b.addr(0).0 % 4096, 0, "page allocation is page-aligned");
    }

    #[test]
    fn setup_init_from_fills_whole_array() {
        let mut s = Setup::new(Geometry::new(4096), 2);
        let a = s.alloc_array::<u64>(5, "a");
        s.init_from(&a, &[1, 2, 3, 4, 5]);
        for i in 0..5 {
            assert_eq!(s.init_read(&a, i), (i + 1) as u64);
        }
    }

    #[test]
    fn setup_home_hints_land_on_pages() {
        let mut s = Setup::new(Geometry::new(4096), 4);
        let a = s.alloc_array_pages::<u64>(1024, "a"); // pages 0 and 1
        s.assign_home(&a, 0..512, 1);
        s.assign_home(&a, 512..1024, 3);
        s.alloc_array_pages::<u64>(2048, "b"); // pages 2..6, unassigned: p % 4
        assert_eq!(s.homes, [1, 3, 2, 3, 0, 1].map(NodeId));
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn setup_rejects_out_of_range_home() {
        let mut s = Setup::new(Geometry::new(4096), 2);
        let a = s.alloc_array::<u64>(8, "a");
        s.assign_home(&a, 0..8, 5);
    }
}
