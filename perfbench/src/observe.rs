//! One simulation run with an optional observer attached to the machine's
//! trace stream, timed from outside.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use fugu_sim::span::{ProfileReport, Profiler};
use fugu_sim::trace::{CategoryMask, TraceEvent, Tracer};
use udm::{InvariantChecker, RunReport};

use crate::host::CpuTimes;
use crate::spans::{Open, SpanLog};
use crate::workload::Workload;

/// What watches a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observer {
    /// Nothing: the machine's tracer stays as built (disabled unless the
    /// `FUGU_TRACE` environment asks otherwise).
    Plain,
    /// A subscriber to every trace category that counts the records.
    Trace,
    /// The span profiler.
    Span,
    /// The delivery-guarantee invariant checker.
    Invariant,
}

impl Observer {
    /// Every observer, in the order a traced round runs them.
    pub const ALL: [Observer; 4] = [
        Observer::Plain,
        Observer::Trace,
        Observer::Span,
        Observer::Invariant,
    ];

    /// Short name, used in span names and the report file.
    pub fn name(self) -> &'static str {
        match self {
            Observer::Plain => "plain",
            Observer::Trace => "trace",
            Observer::Span => "span",
            Observer::Invariant => "invariant",
        }
    }
}

/// Trace records counted by the [`Observer::Trace`] subscriber: the total,
/// one count per category bit, and the events the per-layer metrics name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceCounts {
    pub records: u64,
    pub by_category: [u64; 32],
    pub launches: u64,
    pub arrivals: u64,
    pub buffer_inserts: u64,
    pub buffer_swapped: u64,
    pub page_allocs: u64,
    pub quantum_switches: u64,
    pub mode_enters: u64,
    pub divert_flips: u64,
    pub revocations: u64,
}

impl TraceCounts {
    fn record(&mut self, event: &TraceEvent) {
        self.records += 1;
        self.by_category[event.category().bits().trailing_zeros() as usize % 32] += 1;
        let counter = match event {
            TraceEvent::MsgLaunch { .. } => &mut self.launches,
            TraceEvent::MsgArrive { .. } => &mut self.arrivals,
            TraceEvent::BufferInsert { swapped, .. } => {
                self.buffer_swapped += u64::from(*swapped);
                &mut self.buffer_inserts
            }
            TraceEvent::PageAlloc { .. } => &mut self.page_allocs,
            TraceEvent::QuantumSwitch {
                from_job: Some(_), ..
            } => &mut self.quantum_switches,
            TraceEvent::ModeEnter { .. } => &mut self.mode_enters,
            TraceEvent::NicDivert { .. } => &mut self.divert_flips,
            TraceEvent::AtomicityRevoke { .. } => &mut self.revocations,
            _ => return,
        };
        *counter += 1;
    }

    /// Records in one category.
    pub fn category(&self, cat: CategoryMask) -> u64 {
        self.by_category[cat.bits().trailing_zeros() as usize % 32]
    }
}

/// What an observer learned, collected after the run.
#[derive(Debug)]
pub enum Findings {
    None,
    Counts(Box<TraceCounts>),
    Profile(Box<ProfileReport>),
    Violations(Vec<String>),
}

/// One timed run.
#[derive(Debug)]
pub struct Outcome {
    /// Building the machine and adding the jobs.
    pub setup: Duration,
    /// `Machine::run`, including the machine's teardown.
    pub wall: Duration,
    /// Process CPU time over the run.
    pub cpu: CpuTimes,
    /// The run report, or the panic message if the run panicked.
    pub report: Result<RunReport, String>,
    pub findings: Findings,
}

enum Attached {
    None,
    Counts(Arc<Mutex<TraceCounts>>),
    Profiler(Profiler),
    Checker(InvariantChecker),
}

/// Builds `workload` at `seed`, attaches `observer`, and runs it,
/// recording set-up, run and finish spans under `parent` in `log`.
pub fn run(
    workload: Workload,
    seed: u64,
    observer: Observer,
    log: &mut SpanLog,
    parent: Open,
) -> Outcome {
    let span = log.open("setup", "machine", Some(parent));
    let mut machine = workload.build(seed);
    let setup = log.close(span, Vec::new());

    let tracer = Tracer::disabled();
    let attached = match observer {
        Observer::Plain => Attached::None,
        Observer::Trace => {
            let counts = Arc::new(Mutex::new(TraceCounts::default()));
            let sink = Arc::clone(&counts);
            tracer.subscribe(CategoryMask::ALL, move |_, event| {
                sink.lock()
                    .expect("counting subscriber never panics")
                    .record(event);
            });
            Attached::Counts(counts)
        }
        Observer::Span => {
            let profiler = Profiler::new();
            profiler.attach(&tracer);
            Attached::Profiler(profiler)
        }
        Observer::Invariant => {
            let checker = InvariantChecker::new();
            checker.attach(&tracer);
            Attached::Checker(checker)
        }
    };
    if observer != Observer::Plain {
        machine.set_tracer(tracer);
    }

    let cpu_before = CpuTimes::now();
    let span = log.open("run", "machine", Some(parent));
    let report = catch_unwind(AssertUnwindSafe(move || machine.run())).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string())
    });
    let wall = log.close(span, Vec::new());
    let cpu = CpuTimes::now().since(cpu_before);

    let span = log.open("finish", observer.name(), Some(parent));
    let findings = match attached {
        Attached::None => Findings::None,
        Attached::Counts(counts) => {
            Findings::Counts(Box::new(counts.lock().expect("run finished").clone()))
        }
        Attached::Profiler(profiler) => Findings::Profile(Box::new(profiler.finish())),
        Attached::Checker(checker) => {
            Findings::Violations(checker.violations().iter().map(|v| v.to_string()).collect())
        }
    };
    log.close(span, Vec::new());
    Outcome {
        setup,
        wall,
        cpu,
        report,
        findings,
    }
}
