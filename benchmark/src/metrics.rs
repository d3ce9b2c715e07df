//! The benchmark's metric names, units and directions — the table that
//! `BENCHMARK.json` repeats (a test keeps the two in step).
//!
//! Two clocks: *host* metrics say how fast the simulator runs and carry
//! the sandbox's noise; *virtual* metrics (`sim_*`, and every count) say
//! what the modelled Paragon did and repeat exactly for a given seed.

use svm_core::ProtocolName;

use crate::cells::protocol_key;

/// One metric of the benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
    }
}

/// End-to-end metrics with their regression bounds (share of the parent's
/// median by which a metric may worsen). Host-clock bounds come from what
/// `selfcheck.sh` measured on the reference box, a shared 2-vCPU guest
/// whose speed shifts by 20-30 % for minutes at a time whatever the
/// benchmark does; virtual-clock metrics repeat exactly per seed, and
/// their bounds only have to cover how much the seeded workloads' inputs
/// differ from seed to seed.
pub fn end_to_end() -> Vec<(MetricDef, f64)> {
    vec![
        (def("setup_s", "s", "lower"), 0.25),
        (def("host_wall_s", "s", "lower"), 0.25),
        (def("host_peak_bytes", "bytes", "lower"), 0.15),
        (def("sim_time", "sim_s", "lower"), 0.05),
        (def("sim_msgs", "count", "lower"), 0.05),
        (def("sim_bytes", "bytes", "lower"), 0.05),
        (def("sim_proto_mem_bytes", "bytes", "lower"), 0.05),
    ]
}

/// Per-layer metrics, reported by the traced run (`--trace 1`). Layer =
/// crate name; `driver` is the benchmark itself. A metric a workload has
/// no cells for reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    let mut m = vec![
        // sim: the event kernel and the kernel<->app thread rendezvous.
        def("sim.events", "count", "lower"),
        def("sim.host_ns_per_event", "ns", "lower"),
        def("sim.sched_event_ns", "ns", "lower"),
        def("sim.handoff_ns", "ns", "lower"),
        def("sim.handoff_switches", "count", "lower"),
        def("sim.ctx_switch_ns", "ns", "lower"),
        def("sim.spawn_join_us", "us", "lower"),
        def("sim.handoff_est_share", "share", "lower"),
        // machine: the modelled Paragon node (Fig 3 categories).
        def("machine.vt_share.compute", "share", "higher"),
        def("machine.vt_share.data", "share", "lower"),
        def("machine.vt_share.lock", "share", "lower"),
        def("machine.vt_share.barrier", "share", "lower"),
        def("machine.vt_share.protocol", "share", "lower"),
        def("machine.vt_share.gc", "share", "lower"),
        def("machine.vt_share.retransmit", "share", "lower"),
        def("machine.vt_share.idle", "share", "lower"),
        def("machine.coproc_busy_share", "share", "higher"),
        def("machine.netfault_dropped", "count", "lower"),
        def("machine.netfault_duplicated", "count", "lower"),
        def("machine.msg_roundtrip_ns", "ns", "lower"),
        // mem: twins and diffs.
        def("mem.diffs_created", "count", "lower"),
        def("mem.diff_bytes_created", "bytes", "lower"),
        def("mem.diffs_applied", "count", "lower"),
        def("mem.diff_create_sparse_ns", "ns", "lower"),
        def("mem.diff_create_full_ns", "ns", "lower"),
        def("mem.diff_apply_sparse_ns", "ns", "lower"),
        def("mem.diff_merge_sparse_ns", "ns", "lower"),
        def("mem.page_from_slice_ns", "ns", "lower"),
        def("mem.diff_est_share", "share", "lower"),
        // core: the four protocols.
        def("core.read_misses", "count", "lower"),
        def("core.write_faults", "count", "lower"),
        def("core.full_page_fetches", "count", "lower"),
        def("core.remote_lock_acquires", "count", "lower"),
        def("core.barriers", "count", "lower"),
        def("core.intervals", "count", "lower"),
        def("core.gc_runs", "count", "lower"),
        def("core.retransmissions", "count", "lower"),
        def("core.recovery_rehomed_pages", "count", "lower"),
        def("core.recovery_declared_halts", "count", "lower"),
        def("core.home_gain", "ratio", "higher"),
        def("core.overlap_gain", "ratio", "higher"),
        def("core.fault_host_ns", "ns", "lower"),
        def("core.lock_host_ns", "ns", "lower"),
        def("core.barrier64_host_us", "us", "lower"),
        def("core.empty_run_us.n8", "us", "lower"),
        def("core.empty_run_us.n64", "us", "lower"),
        // apps: the Splash-2 style kernels.
        def("apps.seq_kernel_s", "s", "lower"),
        def("apps.seq_share", "share", "lower"),
        def("apps.checksums_ok", "count", "higher"),
        // serve: the served-traffic scenarios (virtual-time latency).
        def("serve.ops", "count", "higher"),
        def("serve.host_us_per_op", "us", "lower"),
        def("serve.p50_us", "us", "lower"),
        def("serve.p99_us", "us", "lower"),
        def("serve.goodput_per_s", "1/s", "higher"),
    ];
    for scenario in ["kv9k", "kv5k"] {
        for p in ProtocolName::ALL.map(protocol_key) {
            m.push(def(&format!("serve.{scenario}_p99_us.{p}"), "us", "lower"));
        }
    }
    m.extend([
        def("serve.kv9k_p995_us", "us", "lower"),
        def("serve.session5k_p99_us", "us", "lower"),
        def("serve.queue_p99_us", "us", "lower"),
        def("serve.zipf_sample_ns", "ns", "lower"),
        // bench: the latency histogram.
        def("bench.hist_record_ns", "ns", "lower"),
        // checker: the trace oracle.
        def("checker.check_s", "s", "lower"),
        def("checker.trace_events", "count", "lower"),
        def("checker.events_per_s", "1/s", "higher"),
        def("checker.trace_bytes", "bytes", "lower"),
        // explore: the model checker.
        def("explore.host_s", "s", "lower"),
        def("explore.states", "count", "lower"),
        def("explore.transitions", "count", "lower"),
        def("explore.replays", "count", "lower"),
        def("explore.states_per_s", "1/s", "higher"),
        // driver: the benchmark itself.
        def("driver.pinned_cpu", "cpu", "higher"),
        def("driver.passes", "count", "higher"),
        def("driver.host_wall_median_s", "s", "lower"),
        def("driver.pass_spread_pct", "%", "lower"),
        def("driver.host_cpu_s", "s", "lower"),
        def("driver.vol_ctx_switches_per_event", "count", "lower"),
        def("driver.allocs_per_pass", "count", "lower"),
        def("driver.alloc_bytes_per_pass", "bytes", "lower"),
        def("driver.trace_overhead_pct", "%", "lower"),
        def("driver.unpinned_over_pinned", "ratio", "lower"),
        def("driver.unattributed_pct", "%", "lower"),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use svm_bench::json::{parse, Json};

    fn metric_json(d: &MetricDef, bound: Option<f64>) -> Json {
        let mut pairs = vec![
            ("name", Json::str(d.name.clone())),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better)),
        ];
        if let Some(b) = bound {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    }

    /// `BENCHMARK.json` as these tables define it.
    fn expected() -> Json {
        Json::obj([
            (
                "command",
                Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
            ),
            ("paths", Json::Arr(vec![Json::str("benchmark")])),
            ("run_seconds", Json::int(crate::DEFAULT_SECONDS as u64)),
            (
                "workloads",
                Json::Arr(
                    WORKLOADS
                        .iter()
                        .map(|(name, why)| {
                            Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Json::Arr(
                    end_to_end()
                        .iter()
                        .map(|(d, b)| metric_json(d, Some(*b)))
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Json::Arr(per_layer().iter().map(|d| metric_json(d, None)).collect()),
            ),
        ])
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse(&text));
        assert!(
            on_disk.as_ref() == Ok(&expected()),
            "BENCHMARK.json is out of step with benchmark/src/metrics.rs and \
             workloads.rs; it should read:\n{}",
            expected().pretty()
        );
    }

    #[test]
    fn the_tables_respect_the_contract_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&layers.len()));
        assert!(e2e.iter().all(|(_, b)| (0.0..=0.25).contains(b)));
        assert!(e2e
            .iter()
            .any(|(d, _)| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        let mut names: Vec<&str> = e2e
            .iter()
            .map(|(d, _)| d.name.as_str())
            .chain(layers.iter().map(|d| d.name.as_str()))
            .chain(WORKLOADS.iter().map(|(n, _)| *n))
            .collect();
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used twice");
        for d in e2e.iter().map(|(d, _)| d).chain(&layers) {
            assert!(unit_ok(d.unit), "unit {:?}", d.unit);
            assert!(matches!(d.better, "lower" | "higher"));
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }
}
