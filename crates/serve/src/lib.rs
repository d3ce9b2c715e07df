//! Served-traffic scenario layer: DSM-backed services under load.
//!
//! The paper evaluates the four protocols on Splash-2-style batch kernels;
//! this crate opens the other axis — *serving*. Three services are
//! implemented directly on the shared virtual memory (their state lives in
//! DSM pages homed on **server** nodes; see [`svm_machine::NodeRole`]),
//! and **client** nodes hammer them with seeded load:
//!
//! * **key-value store** — striped-lock GET/PUT over a key array whose
//!   key→page layout is a first-class knob ([`ServeSpec::slot_bytes`]):
//!   small slots pack many keys per page (false sharing under write
//!   churn), page-sized slots isolate them.
//! * **session cache** — read-mostly blobs with a per-session touch
//!   counter written on *every* operation: hot-page write churn, the
//!   diff-retention pressure point of the LRC-vs-HLRC comparison.
//! * **FIFO work queue** — a single-lock ring buffer with head/tail
//!   counters on their own (deliberately hot) page; clients alternate
//!   enqueue/dequeue and verify per-producer FIFO order.
//!
//! Load is generated **open-loop** (a seeded Poisson-ish arrival schedule
//! in virtual time, paced with [`svm_core::SvmCtx::sleep_until`]; latency
//! is measured from the *scheduled* arrival, so client-side queueing is
//! charged to the protocol — no coordinated omission) or **closed-loop**
//! (N clients with exponential think time), with uniform or Zipfian key
//! popularity ([`sampler`]). Everything derives from SplitMix64 streams,
//! so a run is bit-reproducible given `(spec, config)`.
//!
//! Every operation holds the key's stripe lock across its reads and
//! writes, so recorded traces check strictly race-free under
//! `svm-checker` — served traffic is a new program shape for the checker,
//! not a relaxation of it.

pub mod sampler;

use std::cell::RefCell;
use std::rc::Rc;

use svm_core::api::SharedArr;
use svm_core::trace::{fnv1a64, FNV_BASIS};
use svm_core::{run, BarrierId, LockId, ProtocolName, RunReport, SvmConfig, SvmCtx};
use svm_machine::NodeRole;
use svm_sim::rng::SplitMix64;
use svm_sim::{SimDuration, SimTime};

pub use sampler::{arrival_offsets, exp_duration, KeyDist, KeySampler};

/// Which service the clients exercise.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ServiceKind {
    /// Striped-lock GET/PUT key-value store.
    Kv,
    /// Read-mostly session blobs with per-op touch-counter writes.
    SessionCache,
    /// Single-lock FIFO ring buffer (alternating enqueue/dequeue).
    WorkQueue,
}

impl ServiceKind {
    /// Table/JSON label.
    pub fn label(self) -> &'static str {
        match self {
            ServiceKind::Kv => "kv",
            ServiceKind::SessionCache => "session",
            ServiceKind::WorkQueue => "queue",
        }
    }
}

/// How clients pace their requests.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum LoadMode {
    /// Open loop: arrivals follow a seeded exponential schedule at
    /// `offered_per_sec` requests per virtual second *in total* (split
    /// evenly across clients). Latency is completion − scheduled arrival.
    OpenLoop {
        /// Total offered load, requests per virtual second.
        offered_per_sec: f64,
    },
    /// Closed loop: each client issues, waits for completion, then thinks
    /// for an exponential time with the given mean before the next
    /// request. Latency is completion − issue.
    ClosedLoop {
        /// Mean think time, virtual microseconds.
        think_us: u64,
    },
}

impl LoadMode {
    /// Table/JSON label.
    pub fn label(&self) -> String {
        match self {
            LoadMode::OpenLoop { offered_per_sec } => format!("open@{offered_per_sec}"),
            LoadMode::ClosedLoop { think_us } => format!("closed@{think_us}us"),
        }
    }
}

/// A complete serve-scenario specification. Together with an
/// [`SvmConfig`] this determines the run bit-for-bit.
#[derive(Clone, Debug)]
pub struct ServeSpec {
    /// The service under load.
    pub service: ServiceKind,
    /// Total nodes (must match the config's node count).
    pub nodes: usize,
    /// The first `servers` nodes host the service pages; the rest are
    /// load-generating clients.
    pub servers: usize,
    /// Keys (KV), sessions (cache), or ring capacity (queue).
    pub keys: usize,
    /// Bytes reserved per key slot — the key→page layout knob. A slot
    /// holds an 8-byte version counter plus the value; 64-byte slots pack
    /// 128 keys into an 8 KB page (heavy false sharing), 8192-byte slots
    /// give every key its own page.
    pub slot_bytes: usize,
    /// Value payload bytes read/written per operation.
    pub val_bytes: usize,
    /// Lock stripes (key `k` is guarded by stripe `k % stripes`).
    pub stripes: usize,
    /// Operations each client issues.
    pub ops_per_client: usize,
    /// Open- or closed-loop pacing.
    pub load: LoadMode,
    /// Key popularity.
    pub dist: KeyDist,
    /// Percentage of KV operations that are PUTs (ignored by the other
    /// services: the cache always writes its touch counter, the queue
    /// alternates).
    pub write_pct: u32,
    /// Application compute charged per operation (request parsing,
    /// hashing, serialization), nanoseconds.
    pub service_ns: u64,
    /// Seed for every sampler stream.
    pub seed: u64,
}

impl ServeSpec {
    /// A key-value store spec with serving defaults: 256 keys packed 128
    /// to a page, 16 lock stripes, 10% PUTs.
    pub fn kv(nodes: usize, servers: usize) -> Self {
        ServeSpec {
            service: ServiceKind::Kv,
            nodes,
            servers,
            keys: 256,
            slot_bytes: 64,
            val_bytes: 32,
            stripes: 16,
            ops_per_client: 200,
            load: LoadMode::OpenLoop {
                offered_per_sec: 20_000.0,
            },
            dist: KeyDist::Zipfian { theta: 0.99 },
            write_pct: 10,
            service_ns: 2_000,
            seed: 1,
        }
    }

    /// A session-cache spec: 64 sessions, 256-byte slots (32 sessions per
    /// page), every operation writes the touch counter.
    pub fn session(nodes: usize, servers: usize) -> Self {
        ServeSpec {
            service: ServiceKind::SessionCache,
            keys: 64,
            slot_bytes: 256,
            val_bytes: 128,
            stripes: 8,
            write_pct: 100,
            ..ServeSpec::kv(nodes, servers)
        }
    }

    /// A work-queue spec: capacity-128 ring, one lock, closed-loop
    /// clients alternating enqueue/dequeue.
    pub fn queue(nodes: usize, servers: usize) -> Self {
        ServeSpec {
            service: ServiceKind::WorkQueue,
            keys: 128,
            slot_bytes: 16,
            val_bytes: 8,
            stripes: 1,
            dist: KeyDist::Uniform,
            load: LoadMode::ClosedLoop { think_us: 200 },
            ..ServeSpec::kv(nodes, servers)
        }
    }

    /// Number of client nodes.
    pub fn clients(&self) -> usize {
        self.nodes - self.servers
    }

    /// Validate the spec's internal consistency.
    fn validate(&self) {
        assert!(self.servers >= 1, "need at least one server");
        assert!(self.nodes > self.servers, "need at least one client");
        assert!(self.keys >= 1 && self.stripes >= 1);
        assert!(
            self.slot_bytes >= 16 && self.slot_bytes.is_multiple_of(8),
            "slots hold an aligned 8-byte counter plus the value"
        );
        assert!(
            self.val_bytes + 8 <= self.slot_bytes,
            "value must fit the slot"
        );
    }

    /// Run this scenario under `cfg`. Panics if the node counts disagree.
    pub fn run(&self, cfg: &SvmConfig) -> ServeRun {
        run_spec(self, cfg)
    }

    /// Run this scenario under `protocol` with default configuration.
    pub fn run_protocol(&self, protocol: ProtocolName) -> ServeRun {
        self.run(&SvmConfig::new(protocol, self.nodes))
    }
}

/// The shared-memory layout of a service (plain data, cloned per node).
#[derive(Clone)]
struct ServeLayout {
    /// Queue head/tail counters, on their own page.
    meta: SharedArr<u64>,
    /// Key slots: `keys * slot_bytes` bytes, page-aligned.
    data: SharedArr<u8>,
}

/// One client's measurements, in issue order.
#[derive(Clone, Debug, Default)]
pub struct ClientStats {
    /// The client's node id.
    pub node: usize,
    /// Per-request latency, virtual nanoseconds, in issue order.
    pub latencies_ns: Vec<u64>,
    /// Queue operations that found the ring empty/full.
    pub misses: u64,
    /// Reads whose value did not match the version under the lock — zero
    /// on any correct protocol.
    pub value_errors: u64,
    /// Per-producer FIFO-order violations observed at dequeue — zero on
    /// any correct protocol.
    pub fifo_errors: u64,
    /// Measurement origin (after the start barrier), ns.
    pub start_ns: u64,
    /// Last completion, ns.
    pub end_ns: u64,
    /// Running digest over (key, op kind, versions read) — the
    /// reproducibility checksum input.
    pub digest: u64,
}

/// Everything a serve run produced.
#[derive(Clone, Debug)]
pub struct ServeRun {
    /// The underlying protocol run report.
    pub report: RunReport,
    /// Per-client measurements, in node order.
    pub clients: Vec<ClientStats>,
}

impl ServeRun {
    /// Total completed requests.
    pub fn ops(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| c.latencies_ns.len() as u64)
            .sum()
    }

    /// Total queue misses.
    pub fn misses(&self) -> u64 {
        self.clients.iter().map(|c| c.misses).sum()
    }

    /// Total read-value mismatches (zero on a correct protocol).
    pub fn value_errors(&self) -> u64 {
        self.clients.iter().map(|c| c.value_errors).sum()
    }

    /// Total FIFO-order violations (zero on a correct protocol).
    pub fn fifo_errors(&self) -> u64 {
        self.clients.iter().map(|c| c.fifo_errors).sum()
    }

    /// The measurement span: first client origin to last completion.
    pub fn span(&self) -> SimDuration {
        let start = self.clients.iter().map(|c| c.start_ns).min().unwrap_or(0);
        let end = self.clients.iter().map(|c| c.end_ns).max().unwrap_or(start);
        SimDuration::from_nanos(end.saturating_sub(start))
    }

    /// Achieved throughput over the measurement span, requests per
    /// virtual second.
    pub fn throughput_per_sec(&self) -> f64 {
        let span = self.span().as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        self.ops() as f64 / span
    }

    /// All latencies merged in deterministic (node, issue) order.
    pub fn latencies_ns(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.ops() as usize);
        for c in &self.clients {
            out.extend_from_slice(&c.latencies_ns);
        }
        out
    }

    /// A bit-reproducibility checksum over every client's measurements.
    pub fn checksum(&self) -> u64 {
        let mut h = FNV_BASIS;
        for c in &self.clients {
            h = fnv1a64(h, &(c.node as u64).to_le_bytes());
            h = fnv1a64(h, &c.digest.to_le_bytes());
            h = fnv1a64(h, &c.misses.to_le_bytes());
            h = fnv1a64(h, &c.start_ns.to_le_bytes());
            h = fnv1a64(h, &c.end_ns.to_le_bytes());
            for &l in &c.latencies_ns {
                h = fnv1a64(h, &l.to_le_bytes());
            }
        }
        h
    }
}

/// The value payload byte pattern for `(key, version)` at offset `i`:
/// what a PUT writes and what a GET must observe under the stripe lock.
fn pattern_byte(key: usize, version: u64, i: usize) -> u8 {
    let x = (key as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(version.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(i as u64);
    (x ^ (x >> 32)) as u8
}

/// Per-client service-operation state (FIFO tracking, scratch buffers).
struct OpState {
    stats: ClientStats,
    /// Last seq dequeued per producer (queue FIFO check).
    last_seq: std::collections::BTreeMap<u64, u64>,
    buf: Vec<u8>,
}

impl OpState {
    fn digest_u64(&mut self, v: u64) {
        self.stats.digest = fnv1a64(self.stats.digest, &v.to_le_bytes());
    }
}

fn stripe_of(key: usize, stripes: usize) -> LockId {
    LockId((key % stripes) as u32)
}

/// One KV operation: GET (read version + payload, verify) or PUT (bump
/// version, rewrite payload), under the key's stripe lock.
fn kv_op(
    ctx: &SvmCtx<'_>,
    spec: &ServeSpec,
    lay: &ServeLayout,
    st: &mut OpState,
    key: usize,
    put: bool,
) {
    let base = lay.data.addr(key * spec.slot_bytes);
    ctx.lock(stripe_of(key, spec.stripes));
    let ver: u64 = ctx.read(base);
    if put {
        let next = ver + 1;
        ctx.write(base, next);
        st.buf.clear();
        st.buf
            .extend((0..spec.val_bytes).map(|i| pattern_byte(key, next, i)));
        ctx.write_bytes(base + 8, &st.buf);
        st.digest_u64(next);
    } else {
        st.buf.clear();
        st.buf.resize(spec.val_bytes, 0);
        ctx.read_bytes(base + 8, &mut st.buf);
        let ok = st
            .buf
            .iter()
            .enumerate()
            .all(|(i, &b)| b == pattern_byte(key, ver, i));
        if !ok {
            st.stats.value_errors += 1;
        }
        st.digest_u64(ver);
    }
    ctx.unlock(stripe_of(key, spec.stripes));
}

/// One session-cache operation: read the blob, verify it against the
/// (immutable) session pattern, bump the touch counter — a write on every
/// op, adjacent to read-mostly data in the same page.
fn session_op(ctx: &SvmCtx<'_>, spec: &ServeSpec, lay: &ServeLayout, st: &mut OpState, key: usize) {
    let base = lay.data.addr(key * spec.slot_bytes);
    ctx.lock(stripe_of(key, spec.stripes));
    let touches: u64 = ctx.read(base);
    st.buf.clear();
    st.buf.resize(spec.val_bytes, 0);
    ctx.read_bytes(base + 8, &mut st.buf);
    let ok = st
        .buf
        .iter()
        .enumerate()
        .all(|(i, &b)| b == pattern_byte(key, 0, i));
    if !ok {
        st.stats.value_errors += 1;
    }
    ctx.write(base, touches + 1);
    st.digest_u64(touches);
    ctx.unlock(stripe_of(key, spec.stripes));
}

/// One work-queue operation: enqueue on even ops, dequeue on odd, under
/// the queue lock. Dequeues verify per-producer FIFO order.
fn queue_op(
    ctx: &SvmCtx<'_>,
    spec: &ServeSpec,
    lay: &ServeLayout,
    st: &mut OpState,
    op_idx: usize,
    seq: &mut u64,
) {
    let cap = spec.keys as u64;
    ctx.lock(LockId(0));
    let head: u64 = lay.meta.get(ctx, 0);
    let tail: u64 = lay.meta.get(ctx, 1);
    if op_idx.is_multiple_of(2) {
        // Enqueue (producer id = node, payload = this client's sequence).
        if tail - head < cap {
            let slot = (tail % cap) as usize * spec.slot_bytes;
            ctx.write(lay.data.addr(slot), ctx.node() as u64);
            ctx.write(lay.data.addr(slot + 8), *seq);
            lay.meta.set(ctx, 1, tail + 1);
            st.digest_u64(*seq);
            *seq += 1;
        } else {
            st.stats.misses += 1;
        }
    } else {
        // Dequeue; verify the producer's sequence numbers arrive in order.
        if head < tail {
            let slot = (head % cap) as usize * spec.slot_bytes;
            let producer: u64 = ctx.read(lay.data.addr(slot));
            let got: u64 = ctx.read(lay.data.addr(slot + 8));
            lay.meta.set(ctx, 0, head + 1);
            let prev = st.last_seq.insert(producer, got);
            if let Some(p) = prev {
                if got <= p {
                    st.stats.fifo_errors += 1;
                }
            }
            st.digest_u64(producer.wrapping_mul(31).wrapping_add(got));
        } else {
            st.stats.misses += 1;
        }
    }
    ctx.unlock(LockId(0));
}

fn client_body(ctx: &SvmCtx<'_>, spec: &ServeSpec, lay: &ServeLayout) -> ClientStats {
    let sampler = KeySampler::new(spec.keys, &spec.dist);
    // Independent per-client streams: keys, op kinds, pacing.
    let mut base = SplitMix64::new(spec.seed ^ 0x5E4E_C0DE);
    let mut mine = base.fork(ctx.node() as u64);
    let mut key_rng = mine.fork(1);
    let mut op_rng = mine.fork(2);
    let mut time_rng = mine.fork(3);

    let mut st = OpState {
        stats: ClientStats {
            node: ctx.node(),
            digest: FNV_BASIS,
            ..ClientStats::default()
        },
        last_seq: std::collections::BTreeMap::new(),
        buf: Vec::with_capacity(spec.val_bytes),
    };
    let mut queue_seq = 0u64;

    ctx.barrier(BarrierId(0));
    let t0 = ctx.now();
    st.stats.start_ns = t0.as_nanos();

    let schedule: Vec<SimTime> = match spec.load {
        LoadMode::OpenLoop { offered_per_sec } => {
            let per_client = offered_per_sec / spec.clients() as f64;
            sampler::absolute_schedule(
                t0,
                &arrival_offsets(&mut time_rng, spec.ops_per_client, per_client),
            )
        }
        LoadMode::ClosedLoop { .. } => Vec::new(),
    };

    for i in 0..spec.ops_per_client {
        // Open-loop clients wait for the precomputed arrival; the schedule
        // is empty in closed-loop mode, where the origin is "now".
        let origin = if let Some(&due) = schedule.get(i) {
            ctx.sleep_until(due);
            due
        } else {
            ctx.now()
        };
        ctx.compute_ns(spec.service_ns);
        let key = sampler.sample(&mut key_rng);
        match spec.service {
            ServiceKind::Kv => {
                let put = op_rng.below(100) < spec.write_pct as u64;
                kv_op(ctx, spec, lay, &mut st, key, put);
            }
            ServiceKind::SessionCache => session_op(ctx, spec, lay, &mut st, key),
            ServiceKind::WorkQueue => queue_op(ctx, spec, lay, &mut st, i, &mut queue_seq),
        }
        let done = ctx.now();
        st.stats.latencies_ns.push(done.since(origin).as_nanos());
        st.stats.end_ns = done.as_nanos();
        if let LoadMode::ClosedLoop { think_us } = spec.load {
            ctx.sleep(exp_duration(
                &mut time_rng,
                SimDuration::from_micros(think_us),
            ));
        }
    }

    ctx.barrier(BarrierId(1));
    st.stats
}

fn run_spec(spec: &ServeSpec, cfg: &SvmConfig) -> ServeRun {
    spec.validate();
    assert_eq!(cfg.nodes, spec.nodes, "config/spec node counts disagree");

    let spec = spec.clone();
    let setup_spec = spec.clone();
    let sink: Rc<RefCell<Vec<Option<ClientStats>>>> = Rc::new(RefCell::new(vec![None; spec.nodes]));
    let body_sink = Rc::clone(&sink);

    let report = run(
        cfg,
        move |s| {
            let ps = s.page_size();
            // Head/tail counters on their own page, homed on server 0.
            let meta = s.alloc_array_pages::<u64>(2, "serve.meta");
            s.assign_home(&meta, 0..2, 0);
            // Key slots, page-aligned; pages homed round-robin across the
            // servers (the serving topology's data placement).
            let bytes = setup_spec.keys * setup_spec.slot_bytes;
            let data = s.alloc_array_pages::<u8>(bytes, "serve.data");
            let pages = bytes.div_ceil(ps);
            for p in 0..pages {
                let len = ps.min(bytes - p * ps);
                s.assign_home_bytes(data.addr(p * ps), len, p % setup_spec.servers);
            }
            // Golden image: version 0 + the version-0 payload pattern per
            // key (sessions never rewrite theirs, KV GETs before the first
            // PUT verify against it).
            for k in 0..setup_spec.keys {
                let base = k * setup_spec.slot_bytes;
                for i in 0..setup_spec.val_bytes {
                    s.init(&data, base + 8 + i, pattern_byte(k, 0, i));
                }
            }
            ServeLayout { meta, data }
        },
        move |ctx, lay: &ServeLayout| {
            match NodeRole::of(ctx.node(), spec.servers) {
                NodeRole::Server => {
                    // Servers run no application loop: they host the
                    // pages (and their homes) and serve protocol traffic.
                    ctx.barrier(BarrierId(0));
                    ctx.barrier(BarrierId(1));
                }
                NodeRole::Client => {
                    let stats = client_body(ctx, &spec, lay);
                    let node = stats.node;
                    body_sink.borrow_mut()[node] = Some(stats);
                }
            }
        },
    );

    let clients: Vec<ClientStats> = sink.take().into_iter().flatten().collect();
    ServeRun { report, clients }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_kv() -> ServeSpec {
        ServeSpec {
            keys: 32,
            ops_per_client: 24,
            load: LoadMode::OpenLoop {
                offered_per_sec: 30_000.0,
            },
            ..ServeSpec::kv(4, 1)
        }
    }

    #[test]
    fn kv_serves_clean_under_every_protocol() {
        for p in ProtocolName::ALL {
            let run = tiny_kv().run_protocol(p);
            let l = p.label();
            assert_eq!(run.ops(), 3 * 24, "{l}: every request completes");
            assert_eq!(run.value_errors(), 0, "{l}: reads verify");
            assert!(run.report.errors.is_empty(), "{l}: clean run");
            assert!(run.span() > SimDuration::ZERO);
            assert!(run.throughput_per_sec() > 0.0);
        }
    }

    #[test]
    fn same_seed_reruns_are_bit_identical() {
        let a = tiny_kv().run_protocol(ProtocolName::Hlrc);
        let b = tiny_kv().run_protocol(ProtocolName::Hlrc);
        assert_eq!(a.checksum(), b.checksum());
        assert_eq!(a.latencies_ns(), b.latencies_ns());
        assert_eq!(
            a.report.outcome.total_time.as_nanos(),
            b.report.outcome.total_time.as_nanos()
        );
    }

    #[test]
    fn seeds_and_skew_change_the_workload() {
        let base = tiny_kv().run_protocol(ProtocolName::Hlrc);
        let reseeded = ServeSpec {
            seed: 2,
            ..tiny_kv()
        }
        .run_protocol(ProtocolName::Hlrc);
        assert_ne!(base.checksum(), reseeded.checksum());
        let uniform = ServeSpec {
            dist: KeyDist::Uniform,
            ..tiny_kv()
        }
        .run_protocol(ProtocolName::Hlrc);
        assert_ne!(base.checksum(), uniform.checksum());
    }

    #[test]
    fn session_cache_and_queue_run_clean() {
        let s = ServeSpec {
            keys: 16,
            ops_per_client: 16,
            ..ServeSpec::session(4, 1)
        };
        let run = s.run_protocol(ProtocolName::Ohlrc);
        assert_eq!(run.value_errors(), 0);
        assert_eq!(run.ops(), 3 * 16);

        let q = ServeSpec {
            ops_per_client: 20,
            ..ServeSpec::queue(4, 1)
        };
        let run = q.run_protocol(ProtocolName::Lrc);
        assert_eq!(run.fifo_errors(), 0);
        assert_eq!(run.ops(), 3 * 20);
    }

    #[test]
    fn closed_loop_latency_excludes_think_time() {
        // With a huge think time, per-op latency must stay far below the
        // think mean (it is measured issue -> completion only).
        let s = ServeSpec {
            keys: 16,
            ops_per_client: 8,
            load: LoadMode::ClosedLoop { think_us: 50_000 },
            ..ServeSpec::kv(3, 1)
        };
        let run = s.run_protocol(ProtocolName::Hlrc);
        let max = run.latencies_ns().into_iter().max().unwrap();
        assert!(
            max < 10_000_000,
            "latency {max}ns should not include think time"
        );
    }
}
