//! Observability contract of the simulated machine: identical
//! configurations produce identical trace streams, subscribers see the
//! same events the recorder does, and the flat metrics in the run-report
//! JSON agree with the report's structured fields.

use std::cell::RefCell;
use std::rc::Rc;

use fugu_sim::fault::FaultPlan;
use fugu_sim::json::Json;
use fugu_sim::span::{DeliveryPath, Profiler};
use fugu_sim::trace::{CategoryMask, TraceEvent, TraceRecord, Tracer};
use fugu_sim::trace_export::chrome_trace;
use udm::{Envelope, JobSpec, Machine, MachineConfig, Program, RunReport, UserCtx};

/// Every node streams bursts at its ring neighbour with a slow handler, so
/// receivers fall behind and some messages take the buffered path.
struct Chatter;
impl Program for Chatter {
    fn main(&self, ctx: &mut UserCtx<'_>) {
        let peer = (ctx.node() + 1) % ctx.nodes();
        for burst in 0..8 {
            for _ in 0..25 {
                ctx.send(peer, 0, &[burst, 1, 2]);
                ctx.compute(250);
            }
            ctx.compute(10_000);
        }
    }
    fn handler(&self, ctx: &mut UserCtx<'_>, _env: &Envelope) {
        ctx.compute(400);
    }
}

/// Background filler so the gang scheduler has something to switch to.
struct Idler;
impl Program for Idler {
    fn main(&self, ctx: &mut UserCtx<'_>) {
        loop {
            ctx.compute(10_000);
        }
    }
    fn handler(&self, _ctx: &mut UserCtx<'_>, _env: &Envelope) {}
}

/// A machine busy enough to exercise both delivery cases: chatter against
/// an idle background job on a skewed schedule.
fn busy_machine(tracer: Tracer) -> Machine {
    busy_machine_with_faults(tracer, FaultPlan::default())
}

fn busy_machine_with_faults(tracer: Tracer, faults: FaultPlan) -> Machine {
    let mut m = Machine::new(MachineConfig {
        nodes: 4,
        skew: 0.05,
        seed: 7,
        faults,
        ..Default::default()
    });
    m.set_tracer(tracer);
    m.add_job(JobSpec::new("chatter", Rc::new(Chatter)));
    m.add_job(JobSpec::new("idler", Rc::new(Idler)).background());
    m
}

fn traced_run(mask: CategoryMask) -> (RunReport, Vec<TraceRecord>) {
    let tracer = Tracer::recorder(usize::MAX, mask);
    let m = busy_machine(tracer.clone());
    let report = m.run();
    (report, tracer.take_records())
}

#[test]
fn identical_seeds_produce_identical_trace_streams() {
    let (r1, t1) = traced_run(CategoryMask::ALL);
    let (r2, t2) = traced_run(CategoryMask::ALL);
    assert!(!t1.is_empty(), "a busy run must emit events");
    assert_eq!(t1.len(), t2.len());
    assert_eq!(t1, t2, "trace streams diverged between identical runs");
    assert_eq!(r1.end_time, r2.end_time);
}

#[test]
fn trace_stream_covers_both_delivery_cases() {
    let (report, records) = traced_run(CategoryMask::ALL);
    let has = |f: &dyn Fn(&TraceEvent) -> bool| records.iter().any(|r| f(&r.event));
    assert!(has(&|e| matches!(e, TraceEvent::MsgLaunch { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::MsgArrive { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::QuantumSwitch { .. })));
    // The skewed schedule forces some messages through the second case.
    let chatter = report.job("chatter");
    assert!(chatter.delivered_buffered > 0, "workload should buffer");
    assert!(has(&|e| matches!(e, TraceEvent::BufferInsert { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::ModeEnter { .. })));
    // Timestamps are monotonically nondecreasing (the event loop stamps
    // the tracer clock from the queue).
    assert!(records.windows(2).all(|w| w[0].at <= w[1].at));
}

#[test]
fn trace_counts_match_report_counters() {
    let (report, records) = traced_run(CategoryMask::ALL);
    let count =
        |f: &dyn Fn(&TraceEvent) -> bool| records.iter().filter(|r| f(&r.event)).count() as u64;
    let sent: u64 = report.jobs.iter().map(|j| j.sent).sum();
    let buffered: u64 = report.jobs.iter().map(|j| j.delivered_buffered).sum();
    let fast: u64 = report.jobs.iter().map(|j| j.delivered_fast).sum();
    assert_eq!(count(&|e| matches!(e, TraceEvent::MsgLaunch { .. })), sent);
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::BufferInsert { .. })),
        buffered
    );
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::FastUpcall { .. }))
            + count(&|e| matches!(e, TraceEvent::PollDelivery { .. })),
        fast
    );
}

#[test]
fn category_mask_filters_recording() {
    let (_, records) = traced_run(CategoryMask::SCHED);
    assert!(!records.is_empty());
    assert!(records
        .iter()
        .all(|r| matches!(r.event, TraceEvent::QuantumSwitch { .. })));
}

#[test]
fn subscriber_sees_the_same_events_as_the_recorder() {
    let tracer = Tracer::recorder(usize::MAX, CategoryMask::MSG);
    let seen = Rc::new(RefCell::new(Vec::new()));
    {
        let seen = Rc::clone(&seen);
        tracer.subscribe(CategoryMask::MSG, move |at, event| {
            seen.borrow_mut().push(TraceRecord {
                at,
                event: event.clone(),
            });
        });
    }
    let m = busy_machine(tracer.clone());
    m.run();
    let recorded = tracer.take_records();
    assert_eq!(*seen.borrow(), recorded);
}

/// The `metrics` object of the report's JSON, parsed back.
fn parsed_metrics(report: &RunReport) -> Vec<(String, Json)> {
    let doc = Json::parse(&report.to_json().render()).expect("report JSON parses");
    match doc.get("metrics") {
        Some(Json::Obj(entries)) => entries.clone(),
        other => panic!("report metrics is not an object: {other:?}"),
    }
}

#[test]
fn report_json_metrics_mirror_structured_fields() {
    let report = busy_machine(Tracer::disabled()).run();
    let metrics = parsed_metrics(&report);
    let get = |name: &str| {
        metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("metric {name} missing from the report JSON"))
    };

    let mut expected = vec!["machine.end_time".to_string()];
    assert_eq!(get("machine.end_time"), &Json::UInt(report.end_time));
    for j in &report.jobs {
        for (suffix, value) in [
            ("sent", j.sent),
            ("delivered_fast", j.delivered_fast),
            ("delivered_buffered", j.delivered_buffered),
            ("swapped", j.swapped),
            ("atomicity_timeouts", j.atomicity_timeouts),
            ("watchdog_fires", j.watchdog_fires),
            ("page_faults", j.page_faults),
            ("overflow_suspensions", j.overflow_suspensions),
        ] {
            let name = format!("job.{}.{suffix}", j.name);
            assert_eq!(get(&name), &Json::UInt(value), "metric {name}");
            expected.push(name);
        }
        let name = format!("job.{}.handler_cycles", j.name);
        let accum = get(&name);
        assert_eq!(
            accum.get("count"),
            Some(&Json::UInt(j.handler_cycles.count()))
        );
        expected.push(name);
        let name = format!("job.{}.handler_cycles_hist", j.name);
        let hist = get(&name);
        assert_eq!(hist.get("total"), Some(&Json::UInt(j.handler_hist.total())));
        assert_eq!(j.handler_hist.total(), j.handler_cycles.count());
        assert_eq!(
            hist.get("buckets"),
            Some(&Json::array(
                j.handler_hist.buckets().iter().map(|&c| Json::UInt(c))
            ))
        );
        expected.push(name);
    }
    for (n, node) in report.nodes.iter().enumerate() {
        for (suffix, value) in [
            ("peak_frames", node.peak_frames),
            ("vbuf_inserts", node.vbuf_inserts),
            ("vmallocs", node.vmallocs),
            ("quantum_switches", node.quantum_switches),
            ("overflow_advises", node.overflow_advises),
            ("overflow_suspends", node.overflow_suspends),
        ] {
            let name = format!("node{n}.{suffix}");
            assert_eq!(get(&name), &Json::UInt(value), "metric {name}");
            expected.push(name);
        }
    }

    // Exactly these keys, sorted by name; a fault-free run has no
    // `faults.*` entry.
    expected.sort();
    let keys: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, expected);
    assert!(report.faults.is_none());
}

#[test]
fn fault_active_report_json_carries_the_injector_counts() {
    let plan = FaultPlan::parse("drop=0.02,dup=0.02,delay=0.05,stall=0.02,handler-fault=0.05")
        .expect("valid plan");
    let tracer = Tracer::recorder(usize::MAX, CategoryMask::FAULT);
    let report = busy_machine_with_faults(tracer.clone(), plan).run();
    let records = tracer.take_records();
    let counts = report.faults.expect("an active plan reports fault totals");

    // The injector's counters agree with the fault events it caused.
    let count =
        |f: &dyn Fn(&TraceEvent) -> bool| records.iter().filter(|r| f(&r.event)).count() as u64;
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::FaultDrop { .. })),
        counts.dropped
    );
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::FaultDuplicate { .. })),
        counts.duplicated
    );
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::FaultDelay { .. })),
        counts.delayed
    );
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::FaultNicStall { .. })),
        counts.nic_stalls
    );
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::FaultHandlerFault { .. })),
        counts.handler_faults
    );
    assert!(counts.dropped > 0 && counts.duplicated > 0 && counts.delayed > 0);
    assert!(counts.handler_faults > 0);

    // Every `faults.*` key is present and equal to the injector's totals.
    let metrics = parsed_metrics(&report);
    let faults: Vec<(&str, &Json)> = metrics
        .iter()
        .filter_map(|(k, v)| k.strip_prefix("faults.").map(|k| (k, v)))
        .collect();
    let want = [
        ("delayed", counts.delayed),
        ("dropped", counts.dropped),
        ("duplicated", counts.duplicated),
        ("frame_fails", counts.frame_fails),
        ("handler_faults", counts.handler_faults),
        ("nic_stalls", counts.nic_stalls),
        ("second_net_delays", counts.second_net_delays),
    ];
    assert_eq!(faults.len(), want.len(), "faults.* keys: {faults:?}");
    for ((key, value), (name, n)) in faults.iter().zip(want) {
        assert_eq!((*key, *value), (name, &Json::UInt(n)));
    }
}

#[test]
fn profiler_stitches_every_delivered_message_on_a_fault_free_run() {
    let tracer = Tracer::disabled();
    let profiler = Profiler::new();
    profiler.attach(&tracer);
    let m = busy_machine(tracer);
    let report = m.run();
    let profile = profiler.finish();
    profile.assert_clean();

    // Fault-free run: every delivered message stitches into a complete,
    // internally consistent span.
    assert!(profile.delivered > 0, "workload must deliver messages");
    assert_eq!(profile.stitched, profile.delivered);
    assert_eq!(profile.stitch_rate(), 1.0);
    assert_eq!(profile.anomalies, 0);

    // The profiler's per-path counts agree with the machine's own report
    // counters (poll extractions never run a handler yet still stitch as
    // fast-path deliveries, so compare against the summed counters).
    let fast: u64 = report.jobs.iter().map(|j| j.delivered_fast).sum();
    let buffered: u64 = report.jobs.iter().map(|j| j.delivered_buffered).sum();
    assert_eq!(profile.fast.count, fast);
    assert_eq!(profile.buffered.count, buffered);
    assert!(profile.buffered.count > 0, "workload should buffer");
    assert_eq!(profile.launched, profile.delivered + profile.in_flight);

    // Attribution partitions end-to-end latency exactly (±0) on every span.
    for span in &profile.spans {
        let Some(attr) = span.attribution() else {
            continue;
        };
        let end = span.end().unwrap();
        assert_eq!(
            attr.total(),
            end - span.launch,
            "attribution must sum to end-to-end latency for uid {}",
            span.uid
        );
        match span.path {
            Some(DeliveryPath::Fast) => assert_eq!(attr.sched + attr.vbuf, 0),
            Some(DeliveryPath::Buffered) => assert!(span.insert.is_some()),
            None => unreachable!("attributed spans carry a path"),
        }
    }

    // The Perfetto export of the real span set is valid, parseable JSON.
    let doc = chrome_trace(&profile.spans, 4);
    let rendered = doc.render();
    let parsed = Json::parse(&rendered).expect("chrome trace is valid JSON");
    assert_eq!(parsed.render(), rendered);
}

#[test]
fn run_report_json_is_schema_versioned_and_deterministic() {
    let run = || {
        let m = busy_machine(Tracer::disabled());
        m.run().to_json().render_pretty()
    };
    let a = run();
    assert_eq!(a, run(), "report JSON must be reproducible");
    assert!(a.contains("\"schema\": \"fugu-run-report/v1\""));
    assert!(a.contains("\"metrics\""));
    assert!(a.contains("\"job.chatter.sent\""));
}
