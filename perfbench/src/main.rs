//! Runs one workload of the repository benchmark and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload barrier-fast --seed 61453 --seconds 30 --trace 0
//! ```
//!
//! Everything runs in this one process, sequentially: at most one
//! sim-thread runs beside the engine at a time. The last line of standard
//! output is the result as one JSON object
//! (`{"correct", "attempted", "failed", "metrics"}`); a human-readable
//! summary goes to standard error. A report with every sample and the host
//! noise, and a Perfetto trace of the benchmark's own spans, are written to
//! the `--out` directory. See `perfbench/README.md`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fugu_bench::Json;
use fugu_perfbench::host::{self, CpuTimes};
use fugu_perfbench::observe::{self, Findings, Observer, Outcome, TraceCounts};
use fugu_perfbench::spans::SpanLog;
use fugu_perfbench::workload::{Oracle, Workload};
use fugu_perfbench::{layers, median, quantile, repo_root, END_TO_END, PER_LAYER};
use fugu_sim::trace::CategoryMask;
use udm::RunReport;

const USAGE: &str = "\
usage: fugu-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
  --workload NAME  barrier-fast | synth-skew40 | barnes-skew20
  --seed N         machine seed (default 61453, the seed of results/*.json)
  --seconds S      measuring time (default 10)
  --trace 0|1      0: end-to-end metrics; 1: per-layer metrics (default 0)
  --out DIR        report directory (default perfbench/out)";

/// Untraced runs measured at least, however short `--seconds` is.
const MIN_RUNS: usize = 3;
/// Repetitions of each isolated layer timing; the median is reported.
const LAYER_REPS: usize = 5;
/// Round trips in each host handoff reference measurement (about 12 ms).
const HANDOFF_ROUNDS: u32 = 2_000;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::BarrierFast,
        seed: 61453,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|_| "--seed wants an integer")?;
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds wants a non-negative number")?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                };
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            "--help" => return Err(String::new()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// A reported metric: name, unit, value.
type Metric = (&'static str, &'static str, f64);

/// Every run's verdict, and the work counts all runs must share.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
    events: Option<u64>,
    counts: Option<Box<TraceCounts>>,
}

impl Tally {
    /// Checks one run: no panic, statistics accepted by the oracle, the
    /// same `machine.events` as every other run, the same trace-record
    /// counts as every other traced run, a fully stitched and clean span
    /// profile, no invariant violation.
    fn check(&mut self, oracle: &mut Oracle, workload: Workload, outcome: &Outcome) {
        self.attempted += 1;
        if let Err(e) = self.verdict(oracle, workload, outcome) {
            eprintln!("run {} failed: {e}", self.attempted);
            self.failures.push(format!("run {}: {e}", self.attempted));
        }
    }

    fn verdict(
        &mut self,
        oracle: &mut Oracle,
        workload: Workload,
        outcome: &Outcome,
    ) -> Result<(), String> {
        let report = outcome
            .report
            .as_ref()
            .map_err(|panic| format!("panicked: {panic}"))?;
        oracle.check(&workload.stats(report))?;
        let events = *self.events.get_or_insert(report.events_processed);
        if report.events_processed != events {
            return Err(format!(
                "machine.events {} differs from the first run's {events}",
                report.events_processed
            ));
        }
        match &outcome.findings {
            Findings::None => {}
            Findings::Counts(counts) => {
                if self.counts.get_or_insert_with(|| counts.clone()) != counts {
                    return Err("trace-record counts differ from the first traced run".into());
                }
            }
            Findings::Profile(profile) => {
                if !profile.errors.is_empty() || profile.stitch_rate() < 1.0 {
                    return Err(format!(
                        "span profile: stitch rate {}, errors {:?}",
                        profile.stitch_rate(),
                        profile.errors
                    ));
                }
            }
            Findings::Violations(v) => {
                if !v.is_empty() {
                    return Err(format!("invariant violations: {v:?}"));
                }
            }
        }
        Ok(())
    }
}

/// Host-time samples of one observer's runs.
#[derive(Debug, Default)]
struct Samples {
    wall_ms: Vec<f64>,
    cpu: Vec<CpuTimes>,
    /// The host handoff round trip around each run: the mean of the
    /// measurements just before and just after it, in microseconds.
    handoff_us: Vec<f64>,
}

impl Samples {
    fn push(&mut self, o: &Outcome, handoff_us: f64) {
        self.wall_ms.push(o.wall.as_secs_f64() * 1e3);
        self.cpu.push(o.cpu);
        self.handoff_us.push(handoff_us);
    }

    fn wall_p50(&self) -> f64 {
        median(&self.wall_ms)
    }

    /// Median run time in host handoff round trips.
    fn handoffs_p50(&self) -> f64 {
        let runs: Vec<f64> = self
            .wall_ms
            .iter()
            .zip(&self.handoff_us)
            .map(|(ms, us)| ms * 1e3 / us)
            .collect();
        median(&runs)
    }

    /// Mean CPU time per run in host handoff round trips.
    fn cpu_handoffs_per_run(&self) -> f64 {
        let total: f64 = self
            .cpu
            .iter()
            .zip(&self.handoff_us)
            .map(|(c, us)| c.total_ms() * 1e3 / us)
            .sum();
        total / self.cpu.len() as f64
    }

    fn cpu_total(&self) -> CpuTimes {
        self.cpu.iter().fold(CpuTimes::default(), |a, c| CpuTimes {
            user_ms: a.user_ms + c.user_ms,
            sys_ms: a.sys_ms + c.sys_ms,
        })
    }
}

/// What the measuring phase produced.
struct Measured {
    /// Samples per observer, in [`Observer::ALL`] order.
    samples: [Samples; 4],
    setup_s: Vec<f64>,
    /// The first successful report and findings of each observer.
    report: Option<RunReport>,
    counts: Option<Box<TraceCounts>>,
    profile: Option<Box<fugu_sim::span::ProfileReport>>,
    violations: Option<usize>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn pct_over(x: f64, base: f64) -> f64 {
    100.0 * (ratio(x, base) - 1.0)
}

/// Times each isolated layer probe `LAYER_REPS` times; returns the
/// medians in nanoseconds, by metric name.
fn layer_timings(
    seed: u64,
    log: &mut SpanLog,
    parent: fugu_perfbench::spans::Open,
) -> Vec<(&'static str, f64)> {
    type Probe = Box<dyn Fn(u64) -> f64>;
    let probes: [(&str, Probe); 6] = [
        ("coro.switch", Box::new(|_| layers::coro_switch_ns(2_000))),
        ("coro.spawn", Box::new(|_| layers::coro_spawn_ns(128))),
        (
            "event.churn",
            Box::new(|s| layers::event_churn_ns(100_000, s)),
        ),
        (
            "nic.enqueue_dispose",
            Box::new(|s| layers::nic_enqueue_dispose_ns(200_000, s)),
        ),
        (
            "net.inject",
            Box::new(|s| layers::net_inject_ns(200_000, s)),
        ),
        (
            "vbuf.insert_pop",
            Box::new(|s| layers::vbuf_insert_pop_ns(200_000, s)),
        ),
    ];
    probes
        .iter()
        .map(|(name, probe)| {
            let samples: Vec<f64> = (0..LAYER_REPS)
                .map(|rep| {
                    let span = log.open(*name, "layer", Some(parent));
                    let ns = probe(seed.wrapping_add(rep as u64));
                    log.close(span, vec![("ns_per_op", Json::from(ns))]);
                    ns
                })
                .collect();
            (*name, median(&samples))
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Counted before pinning narrows the process to one CPU.
    let nproc = host::nproc();
    // Before any sim-thread exists, so that every one inherits the mask.
    let pinned_cpu = host::pin_to_current_cpu();
    let load1_before = host::load1();
    let mut log = SpanLog::new();
    let top = log.open(
        format!(
            "{} seed {} trace {}",
            args.workload.name(),
            args.seed,
            u8::from(args.trace)
        ),
        "bench",
        None,
    );

    let span = log.open("oracle.load", "oracle", Some(top));
    let oracle = Oracle::load(args.workload, &repo_root().join("results"), args.seed);
    log.close(span, Vec::new());
    let mut oracle = match oracle {
        Ok(oracle) => oracle,
        Err(e) => {
            eprintln!("error: cannot load the committed rows: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut tally = Tally::default();
    let mut measured = Measured {
        samples: Default::default(),
        setup_s: Vec::new(),
        report: None,
        counts: None,
        profile: None,
        violations: None,
    };
    let mut one_run = |observer: Observer, label: &str, log: &mut SpanLog, tally: &mut Tally| {
        let span = log.open(format!("{label} {}", observer.name()), "bench", Some(top));
        let outcome = observe::run(args.workload, args.seed, observer, log, span);
        tally.check(&mut oracle, args.workload, &outcome);
        log.close(
            span,
            vec![("wall_ms", Json::from(outcome.wall.as_secs_f64() * 1e3))],
        );
        outcome
    };

    // Warm-up: fills allocator and page caches; checked but not timed.
    let warm = one_run(Observer::Plain, "warmup", &mut log, &mut tally);
    measured.setup_s.push(warm.setup.as_secs_f64());

    let observers: &[Observer] = if args.trace {
        &Observer::ALL
    } else {
        &[Observer::Plain]
    };
    let mut handoffs_us = vec![host::handoff_round_trip_us(HANDOFF_ROUNDS)];
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut round = 0;
    loop {
        for (slot, &observer) in Observer::ALL.iter().enumerate() {
            if !observers.contains(&observer) {
                continue;
            }
            let o = one_run(observer, &format!("round {round}"), &mut log, &mut tally);
            let before = handoffs_us[handoffs_us.len() - 1];
            let after = host::handoff_round_trip_us(HANDOFF_ROUNDS);
            handoffs_us.push(after);
            measured.setup_s.push(o.setup.as_secs_f64());
            measured.samples[slot].push(&o, (before + after) / 2.0);
            if let Ok(report) = o.report {
                measured.report.get_or_insert(report);
            }
            match o.findings {
                Findings::None => {}
                Findings::Counts(c) => drop(measured.counts.get_or_insert(c)),
                Findings::Profile(p) => drop(measured.profile.get_or_insert(p)),
                Findings::Violations(v) => drop(measured.violations.get_or_insert(v.len())),
            }
        }
        round += 1;
        let enough = args.trace || round >= MIN_RUNS;
        if enough && Instant::now() >= deadline {
            break;
        }
    }

    let layer_ns = if args.trace {
        let span = log.open("layers", "layer", Some(top));
        let timings = layer_timings(args.seed, &mut log, span);
        log.close(span, Vec::new());
        timings
    } else {
        Vec::new()
    };
    let load1_after = host::load1();
    let peak_rss_mb = host::peak_rss_mb();

    // ---- metrics ------------------------------------------------------
    let Some(report) = measured.report.as_ref() else {
        eprintln!("error: no run completed; failures: {:?}", tally.failures);
        return finish(&args, &tally, Vec::new(), &mut log, top, Json::Null);
    };
    let job = report.job(args.workload.foreground());
    let sim_mcycles = job.completion.unwrap_or(report.end_time) as f64 / 1e6;
    let plain = &measured.samples[0];
    let run_ms_p50 = plain.wall_p50();
    let plain_cpu = plain.cpu_total();
    let plain_wall_ms: f64 = plain.wall_ms.iter().sum();
    let cpu_wall_ratio = ratio(plain_cpu.total_ms(), plain_wall_ms);
    let failed_pct = 100.0 * ratio(tally.failures.len() as f64, tally.attempted as f64);
    let values: Vec<(&str, f64)> = if args.trace {
        let counts = measured.counts.clone().unwrap_or_default();
        let profile = measured.profile.clone().unwrap_or_default();
        let overhead =
            |slot: usize| pct_over(measured.samples[slot].handoffs_p50(), plain.handoffs_p50());
        let q = |p: &fugu_sim::span::PathProfile, q: f64| p.percentile(q).unwrap_or(0) as f64;
        let mut attr = profile.fast.attribution;
        attr.add(&profile.buffered.attribution);
        let attr_pct = |x: u64| 100.0 * ratio(x as f64, attr.total() as f64);
        let layer = |name: &str| {
            layer_ns
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, ns)| *ns)
        };
        vec![
            ("run_ms_p50", run_ms_p50),
            (
                "cpu_ms_per_run",
                plain_cpu.total_ms() / plain.cpu.len() as f64,
            ),
            ("host.handoff_us", median(&handoffs_us)),
            ("coro.switch_us", layer("coro.switch") / 1e3),
            ("coro.spawn_us", layer("coro.spawn") / 1e3),
            (
                "host.sys_pct",
                100.0 * ratio(plain_cpu.sys_ms, plain_cpu.total_ms()),
            ),
            ("host.idle_pct", 100.0 * (1.0 - cpu_wall_ratio)),
            ("machine.events", report.events_processed as f64),
            (
                "machine.events_per_s",
                ratio(report.events_processed as f64, run_ms_p50 / 1e3),
            ),
            ("machine.ms_per_mcycle", ratio(run_ms_p50, sim_mcycles)),
            ("event.churn_ns_per_op", layer("event.churn")),
            ("net.messages", counts.launches as f64),
            ("nic.arrivals", counts.arrivals as f64),
            (
                "nic.fast_deliveries",
                counts.category(CategoryMask::UPCALL) as f64,
            ),
            ("nic.divert_flips", counts.divert_flips as f64),
            ("net.inject_ns_per_msg", layer("net.inject")),
            ("nic.enqueue_dispose_ns", layer("nic.enqueue_dispose")),
            ("vbuf.inserts", counts.buffer_inserts as f64),
            ("vbuf.swapped", counts.buffer_swapped as f64),
            ("vbuf.insert_pop_ns", layer("vbuf.insert_pop")),
            ("vm.page_allocs", counts.page_allocs as f64),
            (
                "vm.peak_frames",
                report
                    .nodes
                    .iter()
                    .map(|n| n.peak_frames)
                    .max()
                    .unwrap_or(0) as f64,
            ),
            ("sched.quantum_switches", counts.quantum_switches as f64),
            (
                "overflow.actions",
                counts.category(CategoryMask::OVERFLOW) as f64,
            ),
            ("mode.enters", counts.mode_enters as f64),
            ("atomicity.revocations", counts.revocations as f64),
            ("trace.records", counts.records as f64),
            ("trace.overhead_pct", overhead(1)),
            ("span.overhead_pct", overhead(2)),
            ("invariant.overhead_pct", overhead(3)),
            ("span.stitch_rate", profile.stitch_rate()),
            (
                "invariant.violations",
                measured.violations.unwrap_or(0) as f64,
            ),
            ("span.fast.p50_cycles", q(&profile.fast, 0.50)),
            ("span.fast.p99_cycles", q(&profile.fast, 0.99)),
            ("span.buffered.p50_cycles", q(&profile.buffered, 0.50)),
            ("span.buffered.p99_cycles", q(&profile.buffered, 0.99)),
            ("span.attr.net_pct", attr_pct(attr.net)),
            ("span.attr.nic_pct", attr_pct(attr.nic)),
            ("span.attr.sched_pct", attr_pct(attr.sched)),
            ("span.attr.vbuf_pct", attr_pct(attr.vbuf)),
            ("span.attr.handler_pct", attr_pct(attr.handler)),
            ("model.sim_mcycles", sim_mcycles),
            ("model.t_hand_cycles", job.handler_cycles.mean()),
            ("model.buffered_pct", 100.0 * job.buffered_fraction()),
            ("model.peak_pages", report.peak_buffer_pages() as f64),
            ("host.nproc", nproc as f64),
            ("host.load1_before", load1_before),
            ("host.load1_after", load1_after),
            ("bench.failed_pct", failed_pct),
        ]
    } else {
        vec![
            ("run_handoffs_p50", plain.handoffs_p50()),
            // A mean: `/proc` CPU times tick in 10 ms steps, too coarse for
            // the median of single runs.
            ("cpu_handoffs_per_run", plain.cpu_handoffs_per_run()),
            ("peak_rss_mb", peak_rss_mb),
            // The lower quartile: spawning 32 sim-threads takes one of two
            // times (about 0.75 or 1.35 ms on a 2-vCPU VM), in proportions
            // that drift, so the median flips between them from one
            // process to the next.
            ("setup_s", quantile(&measured.setup_s, 0.25)),
        ]
    };
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<Metric> = declared
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .expect("every declared metric is computed");
            (name, unit, value)
        })
        .collect();

    eprintln!(
        "{} seed {}: {} runs, {} failed ({failed_pct:.1}%), checked against {}",
        args.workload.name(),
        args.seed,
        tally.attempted,
        tally.failures.len(),
        if oracle.against_committed() {
            "the committed results row"
        } else {
            "the first run (not the committed seed)"
        },
    );
    eprintln!(
        "  host: {nproc} CPUs, pinned to {pinned_cpu:?}, load {load1_before} -> \
         {load1_after}, CPU/wall {cpu_wall_ratio:.3}"
    );
    for (name, unit, value) in &metrics {
        eprintln!("  {name:<26} {value:>16.4} {unit}");
    }

    let detail = Json::object([
        (
            "runs_per_observer",
            Json::array(Observer::ALL.iter().zip(&measured.samples).map(|(o, s)| {
                Json::object([
                    ("observer", Json::from(o.name())),
                    (
                        "wall_ms",
                        Json::array(s.wall_ms.iter().map(|&x| Json::from(x))),
                    ),
                    (
                        "cpu_ms",
                        Json::array(s.cpu.iter().map(|c| Json::from(c.total_ms()))),
                    ),
                    (
                        "handoff_us",
                        Json::array(s.handoff_us.iter().map(|&x| Json::from(x))),
                    ),
                ])
            })),
        ),
        (
            "setup_s",
            Json::array(measured.setup_s.iter().map(|&x| Json::from(x))),
        ),
        (
            "host",
            Json::object([
                ("nproc", Json::from(nproc)),
                ("pinned_cpu", Json::from(pinned_cpu)),
                ("load1_before", Json::from(load1_before)),
                ("load1_after", Json::from(load1_after)),
                ("cpu_wall_ratio", Json::from(cpu_wall_ratio)),
            ]),
        ),
        ("failed_pct", Json::from(failed_pct)),
        ("committed_seed", Json::from(oracle.committed_seed)),
        ("against_committed", Json::from(oracle.against_committed())),
    ]);
    finish(&args, &tally, metrics, &mut log, top, detail)
}

/// Writes the report and the Perfetto trace, prints the result line, and
/// returns the exit code.
fn finish(
    args: &Args,
    tally: &Tally,
    metrics: Vec<Metric>,
    log: &mut SpanLog,
    top: fugu_perfbench::spans::Open,
    detail: Json,
) -> ExitCode {
    let correct = tally.failures.is_empty() && !metrics.is_empty();
    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|&(name, unit, value)| {
                (
                    name.to_string(),
                    Json::object([("value", Json::from(value)), ("unit", Json::from(unit))]),
                )
            })
            .collect(),
    );
    let result = Json::object([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failures.len())),
        ("metrics", metrics_json),
    ]);
    log.close(top, Vec::new());

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let report = Json::object([
        ("workload", Json::from(args.workload.name())),
        ("seed", Json::from(args.seed)),
        ("trace", Json::from(args.trace)),
        ("seconds", Json::from(args.seconds)),
        ("result", result.clone()),
        (
            "failures",
            Json::array(tally.failures.iter().map(|f| Json::from(f.as_str()))),
        ),
        ("detail", detail),
    ]);
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| {
            std::fs::write(
                args.out.join(format!("{stem}.json")),
                report.render_pretty(),
            )
        })
        .and_then(|()| {
            std::fs::write(
                args.out.join(format!("{stem}.trace.json")),
                log.to_chrome_trace().render(),
            )
        });
    if let Err(e) = written {
        eprintln!("error: writing reports under {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!("{}", result.render());
    ExitCode::SUCCESS
}
