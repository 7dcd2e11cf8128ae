//! Per-message causal spans: the profiling layer over [`crate::trace`].
//!
//! The paper's argument is a latency distribution — Table 6 and Figures
//! 7–10 compare what a message costs on the fast NIC path versus the
//! software-buffered path. The trace layer emits *point* events; this
//! module stitches them back into one causal span per message uid
//! (launch → network transit → NIC arrival → {upcall | buffer-insert →
//! drain → extract} → handler completion), records per-path latency into
//! log-bucketed [`Histogram`]s, and attributes every cycle of each span to
//! exactly one subsystem:
//!
//! | segment   | interval                                   |
//! |-----------|--------------------------------------------|
//! | `net`     | launch → NIC arrival                       |
//! | `nic`     | arrival → upcall (fast) or insert (buffered) |
//! | `sched`   | buffered residency while the owning job was *not* scheduled |
//! | `vbuf`    | buffered residency while the owning job *was* scheduled |
//! | `handler` | delivery → handler retirement              |
//!
//! The five segments partition the span, so their sum equals the
//! end-to-end latency *exactly* — and the collector re-derives both sides
//! independently and records a violation if they ever disagree, in the
//! style of `udm::invariant`. Attach a [`Profiler`] before a run, call
//! [`Profiler::finish`] after, and feed [`ProfileReport::spans`] to
//! [`crate::trace_export`] for a Perfetto-loadable timeline.
//!
//! Profiling is pay-for-what-you-watch: nothing here runs unless a
//! profiler is attached, and detaching is as simple as not attaching — the
//! emission sites fall back to their single `Cell` read.
//!
//! # Example
//!
//! ```
//! use fugu_sim::span::Profiler;
//! use fugu_sim::trace::{TraceEvent, Tracer};
//!
//! let tracer = Tracer::disabled();
//! let profiler = Profiler::new();
//! profiler.attach(&tracer);
//!
//! // A two-node machine would emit this stream while running:
//! tracer.emit(TraceEvent::MsgLaunch { node: 0, job: 0, dst: 1, words: 3, uid: 1 });
//! tracer.set_time(10);
//! tracer.emit(TraceEvent::MsgArrive { node: 1, qlen: 1, uid: 1 });
//! tracer.set_time(12);
//! tracer.emit(TraceEvent::FastUpcall { node: 1, job: 0, words: 3, uid: 1 });
//! tracer.emit(TraceEvent::HandlerDone { node: 1, job: 0, uid: 1, end: 40 });
//!
//! let report = profiler.finish();
//! report.assert_clean();
//! assert_eq!(report.stitched, 1);
//! let span = &report.spans[0];
//! let attr = span.attribution().unwrap();
//! assert_eq!((attr.net, attr.nic, attr.handler), (10, 2, 28));
//! assert_eq!(attr.total(), 40);
//! ```

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::Rc;

use crate::json::Json;
use crate::stats::{Accum, Histogram};
use crate::trace::{CategoryMask, TraceEvent, Tracer};
use crate::Cycles;

/// Which of the paper's two delivery cases a message took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryPath {
    /// First case: delivered straight from the NIC (upcall or poll).
    Fast,
    /// Second case: inserted into the software buffer and extracted later.
    Buffered,
}

impl DeliveryPath {
    /// Lower-case name used in reports (`"fast"` / `"buffered"`).
    pub fn name(self) -> &'static str {
        match self {
            DeliveryPath::Fast => "fast",
            DeliveryPath::Buffered => "buffered",
        }
    }
}

/// One message's stitched lifecycle, keyed by its launch-stamped uid.
///
/// Timestamps are simulated [`Cycles`]; every field after `launch` is
/// `None` until (unless) the corresponding trace event is observed.
#[derive(Debug, Clone)]
pub struct MessageSpan {
    /// Machine-wide unique message id (stamped at launch).
    pub uid: u64,
    /// Sending node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Sending job index.
    pub src_job: usize,
    /// Receiving job index, once a delivery-side event names it.
    pub dst_job: Option<usize>,
    /// Message length in words (header + payload).
    pub words: usize,
    /// Launch time (the span's origin).
    pub launch: Cycles,
    /// NIC arrival time at the destination.
    pub arrive: Option<Cycles>,
    /// Software-buffer insert time (buffered case only).
    pub insert: Option<Cycles>,
    /// Delivery-to-program time: upcall, poll, or buffer extract.
    pub deliver: Option<Cycles>,
    /// Handler retirement cycle (absent for peek-style extracts that run
    /// no handler, and for spans still open when the run ended).
    pub done: Option<Cycles>,
    /// The delivery case taken, known at delivery time.
    pub path: Option<DeliveryPath>,
    /// True if the fast-path delivery happened via `poll` rather than an
    /// interrupt upcall.
    pub via_poll: bool,
    /// True if the message was paged to backing store while buffered.
    pub swapped: bool,
    /// Buffered residency spent while the owning job was descheduled
    /// (maintained from the `QuantumSwitch` stream).
    pub sched_wait: Cycles,
    /// Residency-accounting watermark: start of the interval not yet
    /// folded into [`MessageSpan::sched_wait`].
    mark: Cycles,
    /// True if the stream contradicted itself for this uid (e.g. a
    /// fault-injected duplicate re-arriving); anomalous spans are counted
    /// but excluded from statistics and invariant checks.
    pub anomalous: bool,
}

impl MessageSpan {
    fn new(uid: u64, src: usize, dst: usize, src_job: usize, words: usize, at: Cycles) -> Self {
        MessageSpan {
            uid,
            src,
            dst,
            src_job,
            dst_job: None,
            words,
            launch: at,
            arrive: None,
            insert: None,
            deliver: None,
            done: None,
            path: None,
            via_poll: false,
            swapped: false,
            sched_wait: 0,
            mark: at,
            anomalous: false,
        }
    }

    /// The span's terminal cycle: handler retirement if a handler ran,
    /// otherwise the delivery time. `None` while still in flight.
    pub fn end(&self) -> Option<Cycles> {
        self.done.or(self.deliver)
    }

    /// True once the message reached its program (both cases).
    pub fn delivered(&self) -> bool {
        self.deliver.is_some()
    }

    /// Splits the span's end-to-end latency across the five subsystems.
    ///
    /// Returns `None` if the span is not yet delivered, is anomalous, or
    /// its timestamps are inconsistent (non-monotone, missing insert on
    /// the buffered path, or accumulated `sched_wait` exceeding the
    /// buffered residency) — exactly the conditions
    /// [`ProfileReport::errors`] reports.
    pub fn attribution(&self) -> Option<Attribution> {
        if self.anomalous {
            return None;
        }
        let arrive = self.arrive?;
        let deliver = self.deliver?;
        let end = self.end()?;
        let net = arrive.checked_sub(self.launch)?;
        let (nic, sched, vbuf) = match self.path? {
            DeliveryPath::Fast => (deliver.checked_sub(arrive)?, 0, 0),
            DeliveryPath::Buffered => {
                let insert = self.insert?;
                let nic = insert.checked_sub(arrive)?;
                let residency = deliver.checked_sub(insert)?;
                let vbuf = residency.checked_sub(self.sched_wait)?;
                (nic, self.sched_wait, vbuf)
            }
        };
        let handler = end.checked_sub(deliver)?;
        Some(Attribution {
            net,
            nic,
            sched,
            vbuf,
            handler,
        })
    }
}

/// Cycle counts charged to each subsystem a message crossed.
///
/// For a single span the five fields partition the end-to-end latency, so
/// [`Attribution::total`] equals `end - launch` exactly; summed over many
/// spans they form the per-path attribution table in
/// [`PathProfile::to_json`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Network transit: launch to NIC arrival (includes injection
    /// serialization and any NIC input-stall backlog).
    pub net: u64,
    /// NIC residency: arrival to upcall dispatch (fast) or to the
    /// kernel's buffer insert (buffered).
    pub nic: u64,
    /// Buffered residency while the owning job was descheduled.
    pub sched: u64,
    /// Buffered residency while the owning job was scheduled (drain
    /// latency proper).
    pub vbuf: u64,
    /// Delivery to handler retirement.
    pub handler: u64,
}

impl Attribution {
    /// Sum of all five segments — the span's end-to-end latency.
    pub fn total(&self) -> u64 {
        self.net + self.nic + self.sched + self.vbuf + self.handler
    }

    /// Accumulates another attribution into this one, field by field.
    pub fn add(&mut self, other: &Attribution) {
        self.net += other.net;
        self.nic += other.nic;
        self.sched += other.sched;
        self.vbuf += other.vbuf;
        self.handler += other.handler;
    }

    /// Serializes the table as `{net, nic, sched, vbuf, handler, total}`.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("net", Json::from(self.net)),
            ("nic", Json::from(self.nic)),
            ("sched", Json::from(self.sched)),
            ("vbuf", Json::from(self.vbuf)),
            ("handler", Json::from(self.handler)),
            ("total", Json::from(self.total())),
        ])
    }
}

/// Exponent of the widest histogram bound: latencies bucket into
/// `1, 2, 4, …, 2^32` cycles, far beyond any simulated end-to-end span.
const LATENCY_HIST_MAX_EXP: u32 = 32;

/// Latency statistics for one delivery case.
#[derive(Debug, Clone)]
pub struct PathProfile {
    /// Spans folded into this profile.
    pub count: u64,
    /// End-to-end latency moments (count/mean/min/max).
    pub latency: Accum,
    /// Log-bucketed end-to-end latency distribution (power-of-two bounds),
    /// the source of the report's percentiles.
    pub hist: Histogram,
    /// Cycle-attribution totals across all folded spans.
    pub attribution: Attribution,
}

impl Default for PathProfile {
    fn default() -> Self {
        PathProfile {
            count: 0,
            latency: Accum::new(),
            hist: Histogram::exponential(LATENCY_HIST_MAX_EXP),
            attribution: Attribution::default(),
        }
    }
}

impl PathProfile {
    fn record(&mut self, attr: &Attribution) {
        self.count += 1;
        self.latency.push(attr.total() as f64);
        self.hist.record(attr.total());
        self.attribution.add(attr);
    }

    /// Latency percentile from the log-bucketed histogram (interpolated;
    /// `None` if no span took this path).
    pub fn percentile(&self, q: f64) -> Option<u64> {
        self.hist.percentile(q)
    }

    /// Serializes the profile: span count, latency summary (mean, p50,
    /// p90, p99, max — all in cycles), the attribution table and the raw
    /// histogram.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("count", Json::from(self.count)),
            (
                "latency_cycles",
                Json::object([
                    ("mean", Json::from(self.latency.mean())),
                    ("p50", self.percentile(0.50).into()),
                    ("p90", self.percentile(0.90).into()),
                    ("p99", self.percentile(0.99).into()),
                    ("max", Json::from(self.latency.max().map(|m| m as u64))),
                ]),
            ),
            ("attribution", self.attribution.to_json()),
            ("hist", self.hist.to_json()),
        ])
    }
}

/// Everything the profiler learned about one run.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Spans opened (one per observed `MsgLaunch`).
    pub launched: u64,
    /// Spans whose message reached its program.
    pub delivered: u64,
    /// Delivered spans whose event chain was complete and passed every
    /// consistency check — the numerator of [`ProfileReport::stitch_rate`].
    pub stitched: u64,
    /// Spans still open when the run ended (launched, never delivered).
    /// Normal for background traffic cut off at termination; not an error.
    pub in_flight: u64,
    /// Spans that saw contradictory events (fault-injected duplicates).
    pub anomalies: u64,
    /// Fast-path (first-case) latency profile.
    pub fast: PathProfile,
    /// Buffered-path (second-case) latency profile.
    pub buffered: PathProfile,
    /// Consistency violations, in detection order. Empty on any fault-free
    /// run; see [`ProfileReport::assert_clean`].
    pub errors: Vec<String>,
    /// Every span, sorted by uid — the input to
    /// [`crate::trace_export::chrome_trace`].
    pub spans: Vec<MessageSpan>,
}

impl ProfileReport {
    /// Fraction of delivered spans that stitched cleanly (1.0 when
    /// nothing was delivered, so empty runs read as clean).
    pub fn stitch_rate(&self) -> f64 {
        if self.delivered == 0 {
            1.0
        } else {
            self.stitched as f64 / self.delivered as f64
        }
    }

    /// Panics with the collected violations if any consistency check
    /// failed — mirrors `udm::invariant`'s `assert_clean`.
    ///
    /// # Panics
    ///
    /// Panics if [`ProfileReport::errors`] is non-empty.
    pub fn assert_clean(&self) {
        assert!(
            self.errors.is_empty(),
            "span profiler found {} violation(s):\n  {}",
            self.errors.len(),
            self.errors.join("\n  ")
        );
    }

    /// Serializes the report (spans excluded; export those separately via
    /// [`crate::trace_export`]).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("launched", Json::from(self.launched)),
            ("delivered", Json::from(self.delivered)),
            ("stitched", Json::from(self.stitched)),
            ("in_flight", Json::from(self.in_flight)),
            ("anomalies", Json::from(self.anomalies)),
            ("stitch_rate", Json::from(self.stitch_rate())),
            ("fast", self.fast.to_json()),
            ("buffered", self.buffered.to_json()),
            (
                "errors",
                Json::array(self.errors.iter().map(|e| Json::from(e.as_str()))),
            ),
        ])
    }
}

/// The subscriber state: open spans plus the per-node scheduling context
/// needed to split buffered residency into `sched` and `vbuf` time.
#[derive(Debug, Default)]
struct SpanCollector {
    spans: HashMap<u64, MessageSpan>,
    /// Job currently scheduled on each node (from the `QuantumSwitch`
    /// stream, primed by the machine's initial-schedule event).
    cur_job: HashMap<usize, Option<usize>>,
    /// Uids resident in each node's software buffer, in insert order.
    resident: HashMap<usize, Vec<u64>>,
    errors: Vec<String>,
    anomalies: u64,
}

impl SpanCollector {
    fn err(&mut self, at: Cycles, msg: String) {
        self.errors.push(format!("[{at}] {msg}"));
    }

    fn mark_anomalous(&mut self, uid: u64) {
        if let Some(span) = self.spans.get_mut(&uid) {
            if !span.anomalous {
                span.anomalous = true;
                self.anomalies += 1;
            }
        }
    }

    /// Folds residency time since the span's watermark into `sched_wait`
    /// if the owning job was descheduled over that interval.
    fn account_residency(span: &mut MessageSpan, running: Option<usize>, at: Cycles) {
        if span.dst_job.is_some() && span.dst_job != running {
            span.sched_wait += at.saturating_sub(span.mark);
        }
        span.mark = at;
    }

    fn on_event(&mut self, at: Cycles, event: &TraceEvent) {
        // Each arm updates the span under `self.spans` and reports what
        // happened; bookkeeping that needs `&mut self` again (violations,
        // anomaly marking, the online check) runs after the borrow ends.
        enum Outcome {
            Advanced,
            /// Contradictory event for a known uid (fault-injected
            /// duplicates re-arriving / re-delivering): flag, don't fail.
            Duplicate,
            /// Event for a uid never launched: a stitching violation.
            Orphan(&'static str),
            /// The span just closed; run the online invariant on it.
            Closed(Box<MessageSpan>),
            /// Arrival landed on a different node than the launch named.
            Misrouted(usize),
        }
        use Outcome::*;
        let uid = match *event {
            TraceEvent::MsgLaunch { uid, .. }
            | TraceEvent::MsgArrive { uid, .. }
            | TraceEvent::FastUpcall { uid, .. }
            | TraceEvent::PollDelivery { uid, .. }
            | TraceEvent::BufferInsert { uid, .. }
            | TraceEvent::BufferExtract { uid, .. }
            | TraceEvent::HandlerDone { uid, .. } => uid,
            TraceEvent::QuantumSwitch { node, to_job, .. } => {
                let running = self.cur_job.get(&node).copied().unwrap_or(None);
                if let Some(list) = self.resident.get(&node) {
                    for uid in list.clone() {
                        if let Some(span) = self.spans.get_mut(&uid) {
                            Self::account_residency(span, running, at);
                        }
                    }
                }
                self.cur_job.insert(node, to_job);
                return;
            }
            _ => return,
        };
        let outcome = match *event {
            TraceEvent::MsgLaunch {
                node,
                job,
                dst,
                words,
                uid,
            } => match self.spans.entry(uid) {
                Entry::Occupied(_) => Duplicate,
                Entry::Vacant(slot) => {
                    slot.insert(MessageSpan::new(uid, node, dst, job, words, at));
                    Advanced
                }
            },
            TraceEvent::MsgArrive { node, uid, .. } => match self.spans.get_mut(&uid) {
                Some(span) if span.arrive.is_none() => {
                    span.arrive = Some(at);
                    if span.dst == node {
                        Advanced
                    } else {
                        Misrouted(node)
                    }
                }
                Some(_) => Duplicate,
                None => Orphan("arrived"),
            },
            TraceEvent::FastUpcall { job, uid, .. } | TraceEvent::PollDelivery { job, uid, .. } => {
                let via_poll = matches!(event, TraceEvent::PollDelivery { .. });
                match self.spans.get_mut(&uid) {
                    Some(span) if span.deliver.is_none() => {
                        span.deliver = Some(at);
                        span.path = Some(DeliveryPath::Fast);
                        span.via_poll = via_poll;
                        span.dst_job = Some(job);
                        Advanced
                    }
                    Some(_) => Duplicate,
                    None => Orphan("delivered"),
                }
            }
            TraceEvent::BufferInsert {
                node,
                job,
                swapped,
                uid,
                ..
            } => match self.spans.get_mut(&uid) {
                Some(span) if span.insert.is_none() && span.deliver.is_none() => {
                    span.insert = Some(at);
                    span.dst_job = Some(job);
                    span.swapped |= swapped;
                    span.mark = at;
                    self.resident.entry(node).or_default().push(uid);
                    Advanced
                }
                Some(_) => Duplicate,
                None => Orphan("buffered"),
            },
            TraceEvent::BufferExtract {
                node,
                job,
                swapped,
                uid,
                ..
            } => {
                let running = self.cur_job.get(&node).copied().unwrap_or(None);
                if let Some(list) = self.resident.get_mut(&node) {
                    list.retain(|&u| u != uid);
                }
                match self.spans.get_mut(&uid) {
                    Some(span) if span.deliver.is_none() && span.insert.is_some() => {
                        Self::account_residency(span, running, at);
                        span.deliver = Some(at);
                        span.path = Some(DeliveryPath::Buffered);
                        span.dst_job = Some(job);
                        span.swapped |= swapped;
                        Advanced
                    }
                    Some(_) => Duplicate,
                    None => Orphan("extracted"),
                }
            }
            TraceEvent::HandlerDone { uid, end, .. } => match self.spans.get_mut(&uid) {
                Some(span) if span.delivered() && span.done.is_none() => {
                    span.done = Some(end);
                    Closed(Box::new(span.clone()))
                }
                Some(_) => Duplicate,
                None => Orphan("retired a handler"),
            },
            _ => Advanced,
        };
        match outcome {
            Advanced => {}
            Duplicate => self.mark_anomalous(uid),
            Orphan(what) => self.err(at, format!("uid {uid} {what} without a launch")),
            // The span just closed: check it while the stream is still
            // flowing, not at teardown.
            Closed(span) => self.check_span(&span),
            Misrouted(node) => {
                let dst = self.spans[&uid].dst;
                self.err(
                    at,
                    format!("uid {uid} arrived at node {node}, launched toward {dst}"),
                );
            }
        }
    }

    /// The online invariant: a closed, non-anomalous span must carry a
    /// complete, monotone event chain whose five-way attribution sums
    /// *exactly* to its end-to-end latency.
    fn check_span(&mut self, span: &MessageSpan) {
        if span.anomalous {
            return;
        }
        let uid = span.uid;
        let (Some(end), Some(launch)) = (span.end(), Some(span.launch)) else {
            return;
        };
        match span.attribution() {
            None => self.err(
                end,
                format!(
                    "uid {uid} closed with an inconsistent chain: launch={launch} \
                     arrive={:?} insert={:?} deliver={:?} done={:?} sched_wait={}",
                    span.arrive, span.insert, span.deliver, span.done, span.sched_wait
                ),
            ),
            Some(attr) => {
                let span_latency = end - launch;
                if attr.total() != span_latency {
                    self.err(
                        end,
                        format!(
                            "uid {uid} attribution {} != end-to-end latency {span_latency} \
                             (net={} nic={} sched={} vbuf={} handler={})",
                            attr.total(),
                            attr.net,
                            attr.nic,
                            attr.sched,
                            attr.vbuf,
                            attr.handler
                        ),
                    );
                }
            }
        }
    }

    fn into_report(mut self) -> ProfileReport {
        let mut spans: Vec<MessageSpan> = self.spans.drain().map(|(_, s)| s).collect();
        spans.sort_by_key(|s| s.uid);
        // Spans delivered without a handler (peek-style extracts) or still
        // resident at teardown were never closed by a HandlerDone: check
        // the delivered ones now.
        for span in &spans {
            if span.delivered() && span.done.is_none() {
                self.check_span(span);
            }
        }
        let mut report = ProfileReport {
            launched: spans.len() as u64,
            anomalies: self.anomalies,
            errors: std::mem::take(&mut self.errors),
            ..ProfileReport::default()
        };
        for span in &spans {
            if !span.delivered() {
                if !span.anomalous {
                    report.in_flight += 1;
                }
                continue;
            }
            report.delivered += 1;
            let Some(attr) = span.attribution() else {
                continue; // anomalous or inconsistent: already reported
            };
            report.stitched += 1;
            match span.path {
                Some(DeliveryPath::Fast) => report.fast.record(&attr),
                Some(DeliveryPath::Buffered) => report.buffered.record(&attr),
                None => unreachable!("attribution requires a path"),
            }
        }
        report.spans = spans;
        report
    }
}

/// Attachable message-lifecycle profiler.
///
/// Subscribe it to a [`Tracer`] before the run ([`Profiler::attach`]),
/// then consume the [`ProfileReport`] after ([`Profiler::finish`]). The
/// profiler listens to the `msg`, `upcall`, `buffer`, `sched` and `span`
/// categories; attaching widens the tracer's effective mask, so emission
/// sites pay for event construction only while a profiler (or another
/// sink) is watching.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    collector: Rc<RefCell<SpanCollector>>,
}

impl Profiler {
    /// Creates a detached profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Subscribes this profiler to `tracer`. All attachments (and clones)
    /// feed the same collector, so one profiler can observe several
    /// tracers if a harness wires them that way.
    pub fn attach(&self, tracer: &Tracer) {
        let collector = Rc::clone(&self.collector);
        tracer.subscribe(
            CategoryMask::MSG
                | CategoryMask::UPCALL
                | CategoryMask::BUFFER
                | CategoryMask::SCHED
                | CategoryMask::SPAN,
            move |at, event| {
                collector.borrow_mut().on_event(at, event);
            },
        );
    }

    /// Closes out the collection and builds the report. The profiler can
    /// keep receiving events afterwards, but they land in a fresh
    /// collection (the report is a snapshot-and-reset).
    pub fn finish(&self) -> ProfileReport {
        self.collector.take().into_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(profiler: &Profiler) -> Tracer {
        let t = Tracer::disabled();
        profiler.attach(&t);
        t
    }

    fn launch(t: &Tracer, at: Cycles, uid: u64, src: usize, dst: usize) {
        t.set_time(at);
        t.emit(TraceEvent::MsgLaunch {
            node: src,
            job: 0,
            dst,
            words: 3,
            uid,
        });
    }

    fn arrive(t: &Tracer, at: Cycles, uid: u64, node: usize) {
        t.set_time(at);
        t.emit(TraceEvent::MsgArrive { node, qlen: 1, uid });
    }

    #[test]
    fn fast_path_attribution_partitions_latency() {
        let p = Profiler::new();
        let t = tracer_with(&p);
        launch(&t, 0, 1, 0, 1);
        arrive(&t, 10, 1, 1);
        t.set_time(12);
        t.emit(TraceEvent::FastUpcall {
            node: 1,
            job: 0,
            words: 3,
            uid: 1,
        });
        t.emit(TraceEvent::HandlerDone {
            node: 1,
            job: 0,
            uid: 1,
            end: 40,
        });
        let report = p.finish();
        report.assert_clean();
        assert_eq!(report.launched, 1);
        assert_eq!(report.stitched, 1);
        assert_eq!(report.stitch_rate(), 1.0);
        assert_eq!(report.fast.count, 1);
        assert_eq!(report.buffered.count, 0);
        let attr = report.spans[0].attribution().unwrap();
        assert_eq!(
            attr,
            Attribution {
                net: 10,
                nic: 2,
                sched: 0,
                vbuf: 0,
                handler: 28,
            }
        );
        assert_eq!(attr.total(), 40);
    }

    #[test]
    fn buffered_residency_splits_sched_from_vbuf() {
        let p = Profiler::new();
        let t = tracer_with(&p);
        // Node 1 starts the run with job 1 scheduled.
        t.emit(TraceEvent::QuantumSwitch {
            node: 1,
            from_job: None,
            to_job: Some(1),
        });
        launch(&t, 0, 7, 0, 1);
        arrive(&t, 5, 7, 1);
        t.set_time(7);
        t.emit(TraceEvent::BufferInsert {
            node: 1,
            job: 0,
            words: 3,
            swapped: false,
            uid: 7,
        });
        // Job 0 gets the node at t=10: cycles 7..10 were sched wait.
        t.set_time(10);
        t.emit(TraceEvent::QuantumSwitch {
            node: 1,
            from_job: Some(1),
            to_job: Some(0),
        });
        t.set_time(14);
        t.emit(TraceEvent::BufferExtract {
            node: 1,
            job: 0,
            words: 3,
            swapped: false,
            uid: 7,
        });
        t.emit(TraceEvent::HandlerDone {
            node: 1,
            job: 0,
            uid: 7,
            end: 20,
        });
        let report = p.finish();
        report.assert_clean();
        assert_eq!(report.buffered.count, 1);
        let attr = report.spans[0].attribution().unwrap();
        assert_eq!(
            attr,
            Attribution {
                net: 5,
                nic: 2,
                sched: 3,
                vbuf: 4,
                handler: 6,
            }
        );
        assert_eq!(attr.total(), 20);
        assert!(report.spans[0].path == Some(DeliveryPath::Buffered));
    }

    #[test]
    fn descheduled_extract_charges_final_interval_to_sched() {
        let p = Profiler::new();
        let t = tracer_with(&p);
        // The whole residency happens under the wrong job: all sched.
        t.emit(TraceEvent::QuantumSwitch {
            node: 1,
            from_job: None,
            to_job: Some(1),
        });
        launch(&t, 0, 3, 0, 1);
        arrive(&t, 2, 3, 1);
        t.set_time(4);
        t.emit(TraceEvent::BufferInsert {
            node: 1,
            job: 0,
            words: 3,
            swapped: false,
            uid: 3,
        });
        t.set_time(24);
        t.emit(TraceEvent::BufferExtract {
            node: 1,
            job: 0,
            words: 3,
            swapped: false,
            uid: 3,
        });
        let report = p.finish();
        report.assert_clean();
        let attr = report.spans[0].attribution().unwrap();
        assert_eq!(attr.sched, 20);
        assert_eq!(attr.vbuf, 0);
        // No handler ran (peek-style extract): span still stitches with a
        // zero handler segment.
        assert_eq!(attr.handler, 0);
        assert_eq!(report.stitched, 1);
    }

    #[test]
    fn in_flight_spans_do_not_hurt_stitch_rate() {
        let p = Profiler::new();
        let t = tracer_with(&p);
        launch(&t, 0, 1, 0, 1);
        arrive(&t, 6, 1, 1); // still in the NIC when the run ends
        launch(&t, 3, 2, 1, 0); // never even arrived
        let report = p.finish();
        report.assert_clean();
        assert_eq!(report.launched, 2);
        assert_eq!(report.delivered, 0);
        assert_eq!(report.in_flight, 2);
        assert_eq!(report.stitch_rate(), 1.0);
    }

    #[test]
    fn duplicate_arrival_flags_anomaly_without_error() {
        let p = Profiler::new();
        let t = tracer_with(&p);
        launch(&t, 0, 9, 0, 1);
        arrive(&t, 5, 9, 1);
        arrive(&t, 8, 9, 1); // fault-injected duplicate
        let report = p.finish();
        report.assert_clean(); // anomalies are counted, not violations
        assert_eq!(report.anomalies, 1);
        assert_eq!(report.launched, 1);
    }

    #[test]
    fn non_monotone_chain_is_a_violation() {
        let p = Profiler::new();
        let t = tracer_with(&p);
        launch(&t, 100, 4, 0, 1);
        arrive(&t, 20, 4, 1); // arrival before launch: broken clock
        t.set_time(25);
        t.emit(TraceEvent::FastUpcall {
            node: 1,
            job: 0,
            words: 3,
            uid: 4,
        });
        let report = p.finish();
        assert_eq!(report.stitched, 0);
        assert!(!report.errors.is_empty());
        let result = std::panic::catch_unwind(|| report.assert_clean());
        assert!(result.is_err());
    }

    #[test]
    fn orphan_delivery_is_a_violation() {
        let p = Profiler::new();
        let t = tracer_with(&p);
        t.set_time(10);
        t.emit(TraceEvent::FastUpcall {
            node: 1,
            job: 0,
            words: 3,
            uid: 42,
        });
        let report = p.finish();
        assert!(report.errors[0].contains("uid 42"));
    }

    #[test]
    fn report_json_shape() {
        let p = Profiler::new();
        let t = tracer_with(&p);
        launch(&t, 0, 1, 0, 1);
        arrive(&t, 10, 1, 1);
        t.set_time(12);
        t.emit(TraceEvent::FastUpcall {
            node: 1,
            job: 0,
            words: 3,
            uid: 1,
        });
        t.emit(TraceEvent::HandlerDone {
            node: 1,
            job: 0,
            uid: 1,
            end: 40,
        });
        let json = p.finish().to_json();
        assert_eq!(json.get("stitched"), Some(&Json::UInt(1)));
        let fast = json.get("fast").unwrap();
        assert_eq!(
            fast.get("attribution").unwrap().get("total"),
            Some(&Json::UInt(40))
        );
        assert!(fast.get("latency_cycles").unwrap().get("p50").is_some());
        // The document round-trips through the parser (CI leans on this).
        let rendered = json.render();
        assert_eq!(Json::parse(&rendered).unwrap().render(), rendered);
    }
}
