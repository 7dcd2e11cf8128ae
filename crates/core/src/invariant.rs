//! Online delivery-guarantee invariant checking.
//!
//! Two-case delivery's promise (§4.3, §5.1) is that no matter which path a
//! message takes — fast upcall, polled extraction, or transparent replay
//! from the virtual buffer — delivery is *exactly once*, *in order per
//! sender*, and buffered backlogs both drain and stay bounded. The fault
//! injector ([`fugu_sim::fault`]) exists to attack those guarantees; this
//! module watches the trace stream and verifies they hold anyway.
//!
//! An [`InvariantChecker`] subscribes to a machine's [`Tracer`] and
//! validates, online:
//!
//! * **Conservation** — every delivery corresponds to exactly one launch;
//!   a message is delivered at most once (twice when the fault injector
//!   declared a duplicate), and a declared drop is never delivered.
//! * **FIFO order** — per (source, destination, job) channel, deliveries
//!   occur in launch order (the machine stamps a monotonic uid at launch).
//! * **Drain progress** — a process sitting in buffered mode with pending
//!   messages must extract *something* within a bounded number of its own
//!   scheduling quanta.
//! * **Bounded buffering** — optionally, the per-node page-frame high-water
//!   mark stays under a configured bound (the paper's §5.1 claim).
//!
//! Violations carry a structured `{at, kind, detail}` diagnostic. By
//! default they are collected for inspection ([`InvariantChecker::violations`],
//! [`InvariantChecker::assert_clean`]); in strict mode the first violation
//! aborts the run immediately from inside the trace callback.
//!
//! # Example
//!
//! ```
//! use std::rc::Rc;
//! use fugu_sim::trace::{CategoryMask, Tracer};
//! use udm::invariant::InvariantChecker;
//! use udm::{JobSpec, Machine, MachineConfig, Program, UserCtx};
//!
//! struct Ping;
//! impl Program for Ping {
//!     fn main(&self, ctx: &mut UserCtx<'_>) {
//!         if ctx.node() == 0 {
//!             ctx.send(1, 0, &[1]);
//!         } else {
//!             ctx.begin_atomic();
//!             while !ctx.poll() {
//!                 ctx.compute(10);
//!             }
//!             ctx.end_atomic();
//!         }
//!     }
//!     fn handler(&self, _ctx: &mut UserCtx<'_>, _env: &udm::Envelope) {}
//! }
//!
//! let mut m = Machine::new(MachineConfig { nodes: 2, ..Default::default() });
//! let tracer = Tracer::recorder(0, CategoryMask::NONE);
//! let checker = InvariantChecker::new();
//! checker.attach(&tracer);
//! m.set_tracer(tracer);
//! m.add_job(JobSpec::new("ping", Rc::new(Ping)));
//! m.run();
//! checker.assert_clean();
//! assert_eq!(checker.stats().delivered, 1);
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use fugu_net::NodeId;
use fugu_sim::json::Json;
use fugu_sim::trace::{CategoryMask, TraceEvent, Tracer};
use fugu_sim::Cycles;

/// Consecutive quanta a buffered-mode process may let a nonempty buffer sit
/// without a single extraction before the checker calls it a livelock.
const DRAIN_STRIKE_LIMIT: u32 = 64;

/// One invariant violation: where, which invariant, and what happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Simulated time of the offending trace event.
    pub at: Cycles,
    /// Which invariant broke (a stable kebab-case identifier).
    pub kind: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:>12}] {}: {}", self.at, self.kind, self.detail)
    }
}

/// Aggregate counters the checker accumulates alongside its checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvariantStats {
    /// Messages launched (uid stamped).
    pub launched: u64,
    /// Deliveries observed (fast upcall, poll, or buffered extract).
    pub delivered: u64,
    /// Launches the fault injector declared dropped.
    pub dropped: u64,
    /// Launches the fault injector declared duplicated.
    pub duplicated: u64,
    /// Highest per-node frame count seen in a `PageAlloc` event.
    pub peak_pages: u64,
}

/// What the checker knows about one launched message.
struct LaunchRec {
    src: NodeId,
    dst: NodeId,
    job: usize,
    dropped: bool,
    duplicated: bool,
    deliveries: u32,
    inserts: u32,
}

struct State {
    launches: HashMap<u64, LaunchRec>,
    /// Highest uid delivered per (src, dst, job) channel.
    last_uid: HashMap<(NodeId, NodeId, usize), u64>,
    /// Messages inserted-but-not-extracted per (node, job).
    buffered: HashMap<(NodeId, usize), u64>,
    /// (node, job) pairs currently in buffered mode.
    in_buffered: HashMap<(NodeId, usize), bool>,
    /// Consecutive extraction-free quanta per buffered (node, job).
    strikes: HashMap<(NodeId, usize), u32>,
    page_bound: Option<u64>,
    strict: bool,
    stats: InvariantStats,
    violations: Vec<Violation>,
}

impl State {
    fn violate(&mut self, at: Cycles, kind: &'static str, detail: String) {
        let v = Violation { at, kind, detail };
        if self.strict {
            panic!("delivery invariant violated: {v}");
        }
        self.violations.push(v);
    }

    fn deliver(&mut self, at: Cycles, node: NodeId, job: usize, uid: u64, how: &str) {
        self.stats.delivered += 1;
        let Some(rec) = self.launches.get_mut(&uid) else {
            self.violate(
                at,
                "unknown-delivery",
                format!("{how} of never-launched uid={uid} at node {node} job {job}"),
            );
            return;
        };
        let (src, dst, ljob) = (rec.src, rec.dst, rec.job);
        if dst != node || ljob != job {
            self.violate(
                at,
                "misrouted",
                format!(
                    "uid={uid} launched toward node {dst} job {ljob} but {how} \
                     delivered it at node {node} job {job}"
                ),
            );
            return;
        }
        if rec.dropped {
            self.violate(
                at,
                "dropped-delivered",
                format!("uid={uid} was declared dropped yet {how} delivered it"),
            );
            return;
        }
        rec.deliveries += 1;
        let allowed = if rec.duplicated { 2 } else { 1 };
        let deliveries = rec.deliveries;
        if deliveries > allowed {
            self.violate(
                at,
                "over-delivery",
                format!("uid={uid} delivered {deliveries} times (allowed {allowed}) via {how}"),
            );
            return;
        }
        // FIFO per (src, dst, job): uids are stamped in launch order, so
        // deliveries on a channel must see non-decreasing uids (equal only
        // for the second copy of a declared duplicate).
        let chan = (src, dst, job);
        let last = self.last_uid.get(&chan).copied().unwrap_or(0);
        if uid < last {
            self.violate(
                at,
                "fifo-order",
                format!("channel {src}->{dst} job {job}: uid={uid} delivered after uid={last}"),
            );
        } else {
            self.last_uid.insert(chan, uid);
        }
    }

    fn on_event(&mut self, at: Cycles, ev: &TraceEvent) {
        match *ev {
            TraceEvent::MsgLaunch {
                node,
                job,
                dst,
                uid,
                ..
            } => {
                self.stats.launched += 1;
                let prev = self.launches.insert(
                    uid,
                    LaunchRec {
                        src: node,
                        dst,
                        job,
                        dropped: false,
                        duplicated: false,
                        deliveries: 0,
                        inserts: 0,
                    },
                );
                if prev.is_some() {
                    self.violate(at, "uid-reuse", format!("uid={uid} launched twice"));
                }
            }
            TraceEvent::FaultDrop { uid, .. } => {
                self.stats.dropped += 1;
                if let Some(rec) = self.launches.get_mut(&uid) {
                    rec.dropped = true;
                }
            }
            TraceEvent::FaultDuplicate { uid, .. } => {
                self.stats.duplicated += 1;
                if let Some(rec) = self.launches.get_mut(&uid) {
                    rec.duplicated = true;
                }
            }
            TraceEvent::FastUpcall { node, job, uid, .. } => {
                self.deliver(at, node, job, uid, "fast upcall");
            }
            TraceEvent::PollDelivery { node, job, uid, .. } => {
                self.deliver(at, node, job, uid, "poll delivery");
            }
            TraceEvent::BufferInsert { node, job, uid, .. } => {
                *self.buffered.entry((node, job)).or_insert(0) += 1;
                let status = self.launches.get_mut(&uid).map(|rec| {
                    rec.inserts += 1;
                    (rec.inserts, if rec.duplicated { 2 } else { 1 }, rec.dropped)
                });
                match status {
                    Some((inserts, allowed, dropped)) => {
                        if inserts > allowed {
                            self.violate(
                                at,
                                "over-buffering",
                                format!("uid={uid} buffered {inserts} times (allowed {allowed})"),
                            );
                        }
                        if dropped {
                            self.violate(
                                at,
                                "dropped-delivered",
                                format!("uid={uid} was declared dropped yet reached a buffer"),
                            );
                        }
                    }
                    None => {
                        self.violate(
                            at,
                            "unknown-delivery",
                            format!("buffer insert of never-launched uid={uid} at node {node}"),
                        );
                    }
                }
            }
            TraceEvent::BufferExtract { node, job, uid, .. } => {
                let outstanding = self.buffered.entry((node, job)).or_insert(0);
                if *outstanding == 0 {
                    self.violate(
                        at,
                        "extract-underflow",
                        format!("node {node} job {job}: extract from an empty buffer (uid={uid})"),
                    );
                } else {
                    *outstanding -= 1;
                }
                self.strikes.insert((node, job), 0);
                self.deliver(at, node, job, uid, "buffered extract");
            }
            TraceEvent::ModeEnter { node, job } => {
                self.in_buffered.insert((node, job), true);
                self.strikes.insert((node, job), 0);
            }
            TraceEvent::ModeExit { node, job } => {
                let residual = self.buffered.get(&(node, job)).copied().unwrap_or(0);
                if residual != 0 {
                    self.violate(
                        at,
                        "mode-exit-residual",
                        format!(
                            "node {node} job {job} left buffered mode with {residual} \
                             message(s) still buffered"
                        ),
                    );
                }
                self.in_buffered.insert((node, job), false);
                self.strikes.insert((node, job), 0);
            }
            TraceEvent::QuantumSwitch {
                node,
                from_job: Some(job),
                ..
            } => {
                // The outgoing job just finished a whole quantum; if it is
                // sitting on buffered messages and never extracted one, that
                // is a strike toward a drain-progress livelock.
                let buffered_mode = self.in_buffered.get(&(node, job)).copied().unwrap_or(false);
                let pending = self.buffered.get(&(node, job)).copied().unwrap_or(0);
                if buffered_mode && pending > 0 {
                    let s = self.strikes.entry((node, job)).or_insert(0);
                    *s += 1;
                    let s = *s;
                    if s == DRAIN_STRIKE_LIMIT {
                        self.violate(
                            at,
                            "drain-stalled",
                            format!(
                                "node {node} job {job}: {pending} buffered message(s) \
                                 untouched for {s} consecutive quanta"
                            ),
                        );
                    }
                }
            }
            TraceEvent::PageAlloc { node, in_use } => {
                self.stats.peak_pages = self.stats.peak_pages.max(in_use as u64);
                if let Some(bound) = self.page_bound {
                    if in_use as u64 > bound {
                        self.violate(
                            at,
                            "page-bound",
                            format!("node {node} reached {in_use} frames (bound {bound})"),
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

/// A delivery-guarantee checker attached to a machine's trace stream.
///
/// Cloning is cheap and clones share state, so a test can keep one handle
/// while the trace subscription owns another.
#[derive(Clone)]
pub struct InvariantChecker {
    inner: Rc<RefCell<State>>,
}

impl Default for InvariantChecker {
    fn default() -> Self {
        InvariantChecker::new()
    }
}

impl std::fmt::Debug for InvariantChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.borrow();
        f.debug_struct("InvariantChecker")
            .field("violations", &st.violations.len())
            .field("stats", &st.stats)
            .finish()
    }
}

impl InvariantChecker {
    /// A checker that collects violations for later inspection.
    pub fn new() -> Self {
        InvariantChecker {
            inner: Rc::new(RefCell::new(State {
                launches: HashMap::new(),
                last_uid: HashMap::new(),
                buffered: HashMap::new(),
                in_buffered: HashMap::new(),
                strikes: HashMap::new(),
                page_bound: None,
                strict: false,
                stats: InvariantStats::default(),
                violations: Vec::new(),
            })),
        }
    }

    /// Aborts the run (panics from inside the trace callback) on the first
    /// violation instead of collecting it.
    pub fn strict(self) -> Self {
        self.inner.borrow_mut().strict = true;
        self
    }

    /// Additionally enforces the §5.1 bounded-buffering claim: no node's
    /// frame allocation may exceed `bound` pages.
    pub fn with_page_bound(self, bound: u64) -> Self {
        self.inner.borrow_mut().page_bound = Some(bound);
        self
    }

    /// The trace categories the checker needs to observe.
    pub fn mask() -> CategoryMask {
        CategoryMask::MSG
            | CategoryMask::UPCALL
            | CategoryMask::BUFFER
            | CategoryMask::MODE
            | CategoryMask::VM
            | CategoryMask::SCHED
            | CategoryMask::FAULT
    }

    /// Subscribes this checker to `tracer`. Call before
    /// [`Machine::set_tracer`](crate::Machine::set_tracer) so every event
    /// of the run is observed.
    pub fn attach(&self, tracer: &Tracer) {
        let handle = self.clone();
        tracer.subscribe(Self::mask(), move |at, ev| {
            handle.inner.borrow_mut().on_event(at, ev);
        });
    }

    /// Violations observed so far (empty is the goal).
    pub fn violations(&self) -> Vec<Violation> {
        self.inner.borrow().violations.clone()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> InvariantStats {
        self.inner.borrow().stats
    }

    /// Messages launched, never declared dropped, and never delivered —
    /// in flight (or lost) when the run ended. A retry protocol makes this
    /// benign; a transport bug makes it grow with the drop rate.
    pub fn undelivered(&self) -> u64 {
        let st = self.inner.borrow();
        st.launches
            .values()
            .filter(|r| !r.dropped && r.deliveries == 0)
            .count() as u64
    }

    /// Panics with every collected violation if any invariant broke.
    pub fn assert_clean(&self) {
        let vs = self.violations();
        if !vs.is_empty() {
            let mut msg = format!("{} delivery invariant violation(s):\n", vs.len());
            for v in &vs {
                msg.push_str(&format!("  {v}\n"));
            }
            panic!("{msg}");
        }
    }

    /// Structured JSON summary (violations + stats) for harness reports.
    pub fn to_json(&self) -> Json {
        let st = self.inner.borrow();
        let violations = st.violations.iter().map(|v| {
            Json::object([
                ("at", Json::from(v.at)),
                ("kind", Json::from(v.kind)),
                ("detail", Json::from(v.detail.as_str())),
            ])
        });
        Json::object([
            ("launched", Json::from(st.stats.launched)),
            ("delivered", Json::from(st.stats.delivered)),
            ("dropped", Json::from(st.stats.dropped)),
            ("duplicated", Json::from(st.stats.duplicated)),
            ("peak_pages", Json::from(st.stats.peak_pages)),
            ("violations", Json::array(violations)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker_and_tracer() -> (InvariantChecker, Tracer) {
        let tracer = Tracer::recorder(0, CategoryMask::NONE);
        let checker = InvariantChecker::new();
        checker.attach(&tracer);
        (checker, tracer)
    }

    fn launch(tracer: &Tracer, uid: u64, src: NodeId, dst: NodeId, job: usize) {
        tracer.emit(TraceEvent::MsgLaunch {
            node: src,
            job,
            dst,
            words: 1,
            uid,
        });
    }

    fn upcall(tracer: &Tracer, uid: u64, node: NodeId, job: usize) {
        tracer.emit(TraceEvent::FastUpcall {
            node,
            job,
            words: 1,
            uid,
        });
    }

    #[test]
    fn clean_exactly_once_stream_passes() {
        let (checker, tracer) = checker_and_tracer();
        for uid in 1..=5 {
            launch(&tracer, uid, 0, 1, 0);
            upcall(&tracer, uid, 1, 0);
        }
        checker.assert_clean();
        let stats = checker.stats();
        assert_eq!(stats.launched, 5);
        assert_eq!(stats.delivered, 5);
        assert_eq!(checker.undelivered(), 0);
    }

    #[test]
    fn double_delivery_is_flagged() {
        let (checker, tracer) = checker_and_tracer();
        launch(&tracer, 1, 0, 1, 0);
        upcall(&tracer, 1, 1, 0);
        upcall(&tracer, 1, 1, 0);
        let vs = checker.violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, "over-delivery");
    }

    #[test]
    fn declared_duplicate_may_deliver_twice_but_not_thrice() {
        let (checker, tracer) = checker_and_tracer();
        launch(&tracer, 1, 0, 1, 0);
        tracer.emit(TraceEvent::FaultDuplicate {
            node: 0,
            dst: 1,
            uid: 1,
        });
        upcall(&tracer, 1, 1, 0);
        upcall(&tracer, 1, 1, 0);
        checker.assert_clean();
        upcall(&tracer, 1, 1, 0);
        assert_eq!(checker.violations()[0].kind, "over-delivery");
    }

    #[test]
    fn dropped_message_must_stay_dropped() {
        let (checker, tracer) = checker_and_tracer();
        launch(&tracer, 1, 0, 1, 0);
        tracer.emit(TraceEvent::FaultDrop {
            node: 0,
            dst: 1,
            uid: 1,
        });
        assert_eq!(checker.undelivered(), 0, "a declared drop is accounted for");
        upcall(&tracer, 1, 1, 0);
        assert_eq!(checker.violations()[0].kind, "dropped-delivered");
    }

    #[test]
    fn out_of_order_delivery_is_flagged() {
        let (checker, tracer) = checker_and_tracer();
        launch(&tracer, 1, 0, 1, 0);
        launch(&tracer, 2, 0, 1, 0);
        upcall(&tracer, 2, 1, 0);
        upcall(&tracer, 1, 1, 0);
        assert_eq!(checker.violations()[0].kind, "fifo-order");
    }

    #[test]
    fn independent_channels_do_not_interfere() {
        let (checker, tracer) = checker_and_tracer();
        launch(&tracer, 1, 0, 2, 0);
        launch(&tracer, 2, 1, 2, 0);
        // Different sources: uid 2 may land before uid 1.
        upcall(&tracer, 2, 2, 0);
        upcall(&tracer, 1, 2, 0);
        checker.assert_clean();
    }

    #[test]
    fn mode_exit_with_residual_buffer_is_flagged() {
        let (checker, tracer) = checker_and_tracer();
        launch(&tracer, 1, 0, 1, 0);
        tracer.emit(TraceEvent::ModeEnter { node: 1, job: 0 });
        tracer.emit(TraceEvent::BufferInsert {
            node: 1,
            job: 0,
            words: 1,
            swapped: false,
            uid: 1,
        });
        tracer.emit(TraceEvent::ModeExit { node: 1, job: 0 });
        assert_eq!(checker.violations()[0].kind, "mode-exit-residual");
    }

    #[test]
    fn buffered_round_trip_is_clean_and_counts_one_delivery() {
        let (checker, tracer) = checker_and_tracer();
        launch(&tracer, 1, 0, 1, 0);
        tracer.emit(TraceEvent::ModeEnter { node: 1, job: 0 });
        tracer.emit(TraceEvent::BufferInsert {
            node: 1,
            job: 0,
            words: 1,
            swapped: false,
            uid: 1,
        });
        tracer.emit(TraceEvent::BufferExtract {
            node: 1,
            job: 0,
            words: 1,
            swapped: false,
            uid: 1,
        });
        tracer.emit(TraceEvent::ModeExit { node: 1, job: 0 });
        checker.assert_clean();
        assert_eq!(checker.stats().delivered, 1);
    }

    #[test]
    fn drain_livelock_is_flagged_after_strike_limit() {
        let (checker, tracer) = checker_and_tracer();
        launch(&tracer, 1, 0, 1, 0);
        tracer.emit(TraceEvent::ModeEnter { node: 1, job: 0 });
        tracer.emit(TraceEvent::BufferInsert {
            node: 1,
            job: 0,
            words: 1,
            swapped: false,
            uid: 1,
        });
        for _ in 0..DRAIN_STRIKE_LIMIT {
            tracer.emit(TraceEvent::QuantumSwitch {
                node: 1,
                from_job: Some(0),
                to_job: Some(1),
            });
        }
        assert_eq!(checker.violations()[0].kind, "drain-stalled");
    }

    #[test]
    fn page_bound_is_enforced_when_configured() {
        let (_, tracer) = checker_and_tracer();
        let bounded = InvariantChecker::new().with_page_bound(4);
        bounded.attach(&tracer);
        tracer.emit(TraceEvent::PageAlloc { node: 0, in_use: 4 });
        bounded.assert_clean();
        tracer.emit(TraceEvent::PageAlloc { node: 0, in_use: 5 });
        assert_eq!(bounded.violations()[0].kind, "page-bound");
        assert_eq!(bounded.stats().peak_pages, 5);
    }

    #[test]
    #[should_panic(expected = "delivery invariant violated")]
    fn strict_mode_aborts_immediately() {
        let tracer = Tracer::recorder(0, CategoryMask::NONE);
        let checker = InvariantChecker::new().strict();
        checker.attach(&tracer);
        tracer.emit(TraceEvent::FastUpcall {
            node: 1,
            job: 0,
            words: 0,
            uid: 99,
        });
    }
}
