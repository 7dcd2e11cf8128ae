//! Property-based tests of the trace recorder: for arbitrary capacities,
//! masks and event streams, the ring buffer never exceeds its bound, the
//! drop count is exact, and what survives is exactly the newest suffix of
//! the matching events.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use fugu_sim::prop::forall;
use fugu_sim::rng::DetRng;
use fugu_sim::trace::{CategoryMask, TraceEvent, TraceRecord, Tracer};

fn gen_event(rng: &mut DetRng) -> TraceEvent {
    let node = rng.index(8);
    match rng.index(8) {
        0 => TraceEvent::MsgArrive {
            node,
            qlen: rng.index(16),
            uid: rng.next_u64() % 1_000,
        },
        1 => TraceEvent::FastUpcall {
            node,
            job: rng.index(3),
            words: rng.index(16),
            uid: rng.next_u64() % 1_000,
        },
        2 => TraceEvent::BufferInsert {
            node,
            job: rng.index(3),
            words: rng.index(16),
            swapped: rng.chance(0.2),
            uid: rng.next_u64() % 1_000,
        },
        3 => TraceEvent::ModeEnter {
            node,
            job: rng.index(3),
        },
        4 => TraceEvent::AtomicityRevoke {
            node,
            job: rng.index(3),
        },
        5 => TraceEvent::OverflowSuspend {
            node,
            free_frames: rng.index(64),
        },
        6 => TraceEvent::PageAlloc {
            node,
            in_use: rng.index(64),
        },
        _ => TraceEvent::QuantumSwitch {
            node,
            from_job: rng.chance(0.5).then(|| rng.index(3)),
            to_job: rng.chance(0.5).then(|| rng.index(3)),
        },
    }
}

#[test]
fn ring_never_exceeds_bound_and_drop_count_is_exact() {
    forall(200, 0x7ACE_0001, |rng| {
        let capacity = rng.index(17); // 0..=16, including the degenerate 0
        let mask = CategoryMask::parse(
            ["all", "msg", "buffer", "msg,vm,sched", "atomicity,overflow"][rng.index(5)],
        );
        let tracer = Tracer::recorder(capacity, mask);
        let n = rng.range_u64(1, 300) as usize;

        // Reference: every emitted event that matches the mask, in order.
        let mut matching: Vec<TraceRecord> = Vec::new();
        for i in 0..n {
            let ev = gen_event(rng);
            tracer.set_time(i as u64);
            if mask.intersects(ev.category()) && capacity > 0 {
                matching.push(TraceRecord {
                    at: i as u64,
                    event: ev.clone(),
                });
            }
            tracer.emit(ev);
            assert!(tracer.records().len() <= capacity, "ring exceeded bound");
        }

        let kept = tracer.take_records();
        let expect_kept = matching.len().min(capacity);
        let expect_dropped = (matching.len() - expect_kept) as u64;
        assert_eq!(kept.len(), expect_kept);
        assert_eq!(tracer.dropped(), expect_dropped, "drop count inexact");
        // Survivors are exactly the newest suffix, in emission order.
        assert_eq!(kept, matching[matching.len() - expect_kept..]);
    });
}

#[test]
fn subscribers_fire_in_attach_order_and_in_emission_order() {
    forall(100, 0x7ACE_0003, |rng| {
        // Three subscribers with different masks share one log; every
        // entry records (subscriber, event index). For each event the
        // interested subscribers must append in attach order, and each
        // subscriber's own entries must be in emission order.
        let tracer = Tracer::disabled();
        let log = Rc::new(RefCell::new(Vec::new()));
        let masks = [CategoryMask::ALL, CategoryMask::VM, CategoryMask::MSG];
        for (who, mask) in masks.into_iter().enumerate() {
            let log = Rc::clone(&log);
            let mut idx = 0u64;
            tracer.subscribe(mask, move |at, _| {
                log.borrow_mut().push((who, at, idx));
                idx += 1;
            });
        }
        let n = rng.range_u64(1, 100) as usize;
        let mut expected = Vec::new();
        let mut counts = [0u64; 3];
        for i in 0..n {
            let ev = gen_event(rng);
            tracer.set_time(i as u64);
            for (who, mask) in masks.into_iter().enumerate() {
                if mask.intersects(ev.category()) {
                    expected.push((who, i as u64, counts[who]));
                    counts[who] += 1;
                }
            }
            tracer.emit(ev);
        }
        assert_eq!(*log.borrow(), expected);
    });
}

#[test]
fn overflowing_ring_keeps_newest_suffix_under_filtering() {
    // Deterministic companion to the property above: a capacity-3 ring
    // with a category filter drops exactly the oldest matching records,
    // never reorders, and never counts filtered events as drops.
    let tracer = Tracer::recorder(3, CategoryMask::MODE);
    for i in 0..10u64 {
        tracer.set_time(i);
        tracer.emit(TraceEvent::ModeEnter {
            node: i as usize,
            job: 0,
        });
        // Interleaved non-matching noise must not occupy ring slots.
        tracer.emit(TraceEvent::PageAlloc { node: 0, in_use: 1 });
    }
    let records = tracer.take_records();
    assert_eq!(records.len(), 3);
    assert_eq!(
        records.iter().map(|r| r.at).collect::<Vec<_>>(),
        vec![7, 8, 9],
        "survivors are the newest matching events, oldest first"
    );
    assert!(records
        .iter()
        .all(|r| matches!(r.event, TraceEvent::ModeEnter { .. })));
    assert_eq!(tracer.dropped(), 7, "only matching evictions count");
}

#[test]
fn subscribers_see_every_matching_event_regardless_of_ring() {
    forall(100, 0x7ACE_0002, |rng| {
        let tracer = Tracer::recorder(4, CategoryMask::NONE);
        let seen = Rc::new(Cell::new(0u64));
        let seen2 = Rc::clone(&seen);
        tracer.subscribe(CategoryMask::VM, move |_, _| {
            seen2.set(seen2.get() + 1);
        });
        let n = rng.range_u64(1, 100) as usize;
        let mut vm_events = 0;
        for _ in 0..n {
            let ev = gen_event(rng);
            if ev.category().intersects(CategoryMask::VM) {
                vm_events += 1;
            }
            tracer.emit(ev);
        }
        assert_eq!(seen.get(), vm_events);
        // Ring mask was NONE, so nothing was recorded and nothing dropped.
        assert!(tracer.records().is_empty());
        assert_eq!(tracer.dropped(), 0);
    });
}
