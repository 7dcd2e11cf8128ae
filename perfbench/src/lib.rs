//! The repository benchmark: end-to-end and per-layer performance of the
//! FUGU/UDM simulator on three delivery-regime workloads.
//!
//! The benchmark measures the simulator from the outside. It times its own
//! calls into the public surface of each layer (`Machine::new`/`add_job`/
//! `run`, `CoRuntime`, `EventQueue`, `Nic`, `Network`, `VirtualBuffer` +
//! `FrameAllocator`, `Tracer`, `Profiler`, `InvariantChecker`) and checks
//! every run's simulated statistics against the committed `results/*.json`
//! row its workload reproduces. See `README.md` beside this file for the
//! workloads, the metrics and what each metric is expected to move.

pub mod host;
pub mod layers;
pub mod observe;
pub mod spans;
pub mod workload;

/// End-to-end metrics (`--trace 0`), as `(name, unit)`. `BENCHMARK.json`
/// lists exactly these, in this order. Run and CPU times are counted in
/// host handoff round trips ([`host::handoff_round_trip_us`], measured
/// around every run), which cancels the drift of the host CPU's speed;
/// the plain milliseconds are per-layer metrics.
pub const END_TO_END: [(&str, &str); 4] = [
    ("run_handoffs_p50", "handoffs"),
    ("cpu_handoffs_per_run", "handoffs"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), as `(name, unit)`. `BENCHMARK.json`
/// lists exactly these, in this order.
pub const PER_LAYER: [(&str, &str); 49] = [
    // Plain host times of the untraced runs, and the host handoff round
    // trip the end-to-end times are expressed in.
    ("run_ms_p50", "ms"),
    ("cpu_ms_per_run", "ms"),
    ("host.handoff_us", "us"),
    // sim.coro, and the host shares its OS-thread handoffs produce.
    ("coro.switch_us", "us"),
    ("coro.spawn_us", "us"),
    ("host.sys_pct", "%"),
    ("host.idle_pct", "%"),
    // core.machine
    ("machine.events", "count"),
    ("machine.events_per_s", "1/s"),
    ("machine.ms_per_mcycle", "ms/Mcycle"),
    // sim.event
    ("event.churn_ns_per_op", "ns"),
    // net / nic
    ("net.messages", "count"),
    ("nic.arrivals", "count"),
    ("nic.fast_deliveries", "count"),
    ("nic.divert_flips", "count"),
    ("net.inject_ns_per_msg", "ns"),
    ("nic.enqueue_dispose_ns", "ns"),
    // glaze
    ("vbuf.inserts", "count"),
    ("vbuf.swapped", "count"),
    ("vbuf.insert_pop_ns", "ns"),
    ("vm.page_allocs", "count"),
    ("vm.peak_frames", "count"),
    ("sched.quantum_switches", "count"),
    ("overflow.actions", "count"),
    ("mode.enters", "count"),
    ("atomicity.revocations", "count"),
    // sim.trace / sim.span / core.invariant
    ("trace.records", "count"),
    ("trace.overhead_pct", "%"),
    ("span.overhead_pct", "%"),
    ("invariant.overhead_pct", "%"),
    ("span.stitch_rate", "ratio"),
    ("invariant.violations", "count"),
    ("span.fast.p50_cycles", "cycles"),
    ("span.fast.p99_cycles", "cycles"),
    ("span.buffered.p50_cycles", "cycles"),
    ("span.buffered.p99_cycles", "cycles"),
    ("span.attr.net_pct", "%"),
    ("span.attr.nic_pct", "%"),
    ("span.attr.sched_pct", "%"),
    ("span.attr.vbuf_pct", "%"),
    ("span.attr.handler_pct", "%"),
    // The modelled system's outcome: deterministic per seed and checked
    // exactly by the oracle, so not bounded like a host cost.
    ("model.sim_mcycles", "Mcycle"),
    ("model.t_hand_cycles", "cycles"),
    ("model.buffered_pct", "%"),
    ("model.peak_pages", "count"),
    // Host noise at the time of the run.
    ("host.nproc", "count"),
    ("host.load1_before", "load"),
    ("host.load1_after", "load"),
    ("bench.failed_pct", "%"),
];

/// The `q`-quantile of `xs` (0 ≤ `q` ≤ 1), interpolating linearly between
/// the two nearest samples.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The directory holding `results/` and the crates: this package's parent.
pub fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}
