//! Differential property test: the slab-backed event queue must be
//! observationally identical to an ordered-map reference model over
//! randomized schedule / cancel / pop interleavings — same pop order, same
//! `now()`, same cancel and pending semantics, same lengths. The
//! whole-machine byte-identical-results guarantee rests on these
//! semantics.

use std::collections::BTreeMap;

use fugu_sim::event::{EventId, EventQueue};
use fugu_sim::prop::forall;
use fugu_sim::rng::DetRng;
use fugu_sim::Cycles;

/// The queue's specification: pending events keyed by `(time, insertion
/// sequence)`, so a map walk is time order with FIFO ties, and the clock
/// advances to each popped event. A key doubles as the event's handle.
#[derive(Default)]
struct Model {
    now: Cycles,
    seq: u64,
    pending: BTreeMap<(Cycles, u64), u32>,
}

impl Model {
    fn schedule_in(&mut self, delay: Cycles, tag: u32) -> (Cycles, u64) {
        self.seq += 1;
        let key = (self.now + delay, self.seq);
        self.pending.insert(key, tag);
        key
    }

    fn cancel(&mut self, key: (Cycles, u64)) -> Option<u32> {
        self.pending.remove(&key)
    }

    fn is_pending(&self, key: (Cycles, u64)) -> bool {
        self.pending.contains_key(&key)
    }

    fn peek_time(&self) -> Option<Cycles> {
        self.pending.keys().next().map(|&(t, _)| t)
    }

    fn pop(&mut self) -> Option<(Cycles, u32)> {
        let ((t, _), tag) = self.pending.pop_first()?;
        self.now = t;
        Some((t, tag))
    }
}

#[derive(Debug, Clone)]
enum Op {
    Schedule {
        delay: u64,
        tag: u32,
    },
    /// Cancel the n-th (mod len) not-yet-retired id, oldest first.
    CancelNth(usize),
    Pop,
    Peek,
}

fn gen_op(rng: &mut DetRng) -> Op {
    // Weight toward cancellation: the machine's timer churn is exactly the
    // regime where the slab could plausibly diverge from the specification
    // (tombstone handling, compaction, slot reuse).
    match rng.index(8) {
        0..=2 => Op::Schedule {
            delay: rng.range_u64(0, 500),
            tag: rng.next_u64() as u32,
        },
        3..=5 => Op::CancelNth(rng.index(64)),
        6 => Op::Pop,
        _ => Op::Peek,
    }
}

#[test]
fn slab_queue_matches_reference_model() {
    forall(512, 0x5EED_0003, |rng| {
        let n_ops = rng.range_u64(1, 300) as usize;
        let mut slab: EventQueue<u32> = EventQueue::new();
        let mut reference = Model::default();
        // Parallel id streams: the i-th schedule produced both ids, so the
        // i-th cancel targets the same logical event in both queues.
        let mut ids: Vec<(EventId, (Cycles, u64))> = Vec::new();

        for _ in 0..n_ops {
            match gen_op(rng) {
                Op::Schedule { delay, tag } => {
                    let a = slab.schedule_in(delay, tag);
                    let b = reference.schedule_in(delay, tag);
                    ids.push((a, b));
                }
                Op::CancelNth(n) => {
                    if !ids.is_empty() {
                        let (a, b) = ids[n % ids.len()];
                        assert_eq!(slab.is_pending(a), reference.is_pending(b));
                        assert_eq!(slab.cancel(a), reference.cancel(b));
                        // Cancelling twice is a no-op in both.
                        assert_eq!(slab.cancel(a), None);
                        assert_eq!(reference.cancel(b), None);
                    }
                }
                Op::Pop => {
                    assert_eq!(slab.pop(), reference.pop());
                }
                Op::Peek => {
                    assert_eq!(slab.peek_time(), reference.peek_time());
                }
            }
            assert_eq!(slab.now(), reference.now);
            assert_eq!(slab.len(), reference.pending.len());
            assert_eq!(slab.is_empty(), reference.pending.is_empty());
        }

        // Drain: the remaining pop sequences must agree exactly.
        loop {
            let (a, b) = (slab.pop(), reference.pop());
            assert_eq!(a, b);
            assert_eq!(slab.now(), reference.now);
            if a.is_none() {
                break;
            }
        }
    });
}
