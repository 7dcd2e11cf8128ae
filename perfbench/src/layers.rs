//! Isolated timings of single layers, each driven through the layer's
//! public interface. Every probe folds what it observes into a checksum
//! and asserts it against an independently computed value, so the
//! optimiser cannot drop the measured work and a wrong answer cannot pass
//! as a fast one.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use fugu_glaze::{FrameAllocator, VirtualBuffer};
use fugu_net::{Gid, HandlerId, Message, Network, NetworkConfig};
use fugu_nic::{Mode, Nic, NicConfig};
use fugu_sim::coro::{CoEvent, CoRuntime};
use fugu_sim::event::EventQueue;
use fugu_sim::rng::DetRng;
use fugu_sim::Cycles;

fn fold(sum: u64, x: u64) -> u64 {
    sum.wrapping_mul(31).wrapping_add(x)
}

/// Nanoseconds per `CoRuntime::resume` round trip (engine → sim-thread →
/// engine), over `n` round trips of one sim-thread.
pub fn coro_switch_ns(n: u64) -> f64 {
    let mut rt: CoRuntime<u64, u64> = CoRuntime::new();
    let id = rt.spawn(move |ctx| {
        let mut v = 1u64;
        for _ in 0..n {
            v = ctx.call(v);
        }
    });
    let mut event = rt.resume(id, 0);
    let start = Instant::now();
    let (mut sum, mut round) = (0u64, 0u64);
    while let CoEvent::Request(v) = event {
        sum = fold(sum, v);
        round += 1;
        event = rt.resume(id, black_box(v.wrapping_mul(3) ^ round));
    }
    let elapsed = start.elapsed();
    assert_eq!(event, CoEvent::Finished, "ping-pong sim-thread ended early");
    // The same exchange without a second thread.
    let (mut want, mut v) = (0u64, 1u64);
    for round in 1..=n {
        want = fold(want, v);
        v = v.wrapping_mul(3) ^ round;
    }
    assert_eq!(sum, want, "sim-thread saw a different request stream");
    elapsed.as_secs_f64() * 1e9 / n as f64
}

/// Nanoseconds per `CoRuntime::spawn`, over `k` spawns. The threads are
/// run to completion afterwards, outside the timed region.
pub fn coro_spawn_ns(k: usize) -> f64 {
    let mut rt: CoRuntime<u64, u64> = CoRuntime::new();
    let start = Instant::now();
    let ids: Vec<_> = (0..k)
        .map(|i| {
            rt.spawn(move |ctx| {
                ctx.call(i as u64);
            })
        })
        .collect();
    let elapsed = start.elapsed();
    let mut sum = 0u64;
    for id in ids {
        match rt.resume(id, 0) {
            CoEvent::Request(v) => sum += v,
            other => panic!("spawned sim-thread did not call: {other:?}"),
        }
        assert_eq!(rt.resume(id, 0), CoEvent::Finished);
    }
    assert_eq!(sum, (k as u64) * (k as u64).saturating_sub(1) / 2);
    elapsed.as_secs_f64() * 1e9 / k as f64
}

/// The operations of the cancel-heavy churn a preempted `compute` block
/// generates, independent of any queue implementation.
#[derive(Debug, Clone, Copy)]
enum ChurnOp {
    Schedule {
        delay: Cycles,
        tag: u64,
    },
    /// Cancel the pending event at this index of the pending list
    /// (swap-remove order).
    Cancel {
        slot: usize,
    },
    Pop,
}

/// Queue operations as applied by `rounds` churn rounds: cancel and
/// reschedule a random pending timer, popping every fourth round.
fn churn_ops(rounds: u64, seed: u64) -> Vec<ChurnOp> {
    let mut rng = DetRng::new(seed);
    let mut ops = Vec::new();
    let mut pending = 64usize;
    for tag in 0..64 {
        ops.push(ChurnOp::Schedule {
            delay: 1 + rng.range_u64(0, 1_000),
            tag,
        });
    }
    for round in 0..rounds {
        ops.push(ChurnOp::Cancel {
            slot: rng.index(pending),
        });
        ops.push(ChurnOp::Schedule {
            delay: 1 + rng.range_u64(0, 1_000),
            tag: round,
        });
        if round % 4 == 0 {
            ops.push(ChurnOp::Pop);
            ops.push(ChurnOp::Schedule {
                delay: 1 + rng.range_u64(0, 1_000),
                tag: round,
            });
            pending += 1;
        }
    }
    ops
}

/// Replays `ops` through a queue given as closures and drains it. Returns
/// the checksum of every cancelled tag and popped `(time, tag)`, and the
/// number of queue operations performed. Pending ids live in a list; a
/// cancel swap-removes its slot, as the machine's timer bookkeeping does.
fn replay<Id: Copy>(
    ops: &[ChurnOp],
    mut schedule_in: impl FnMut(Cycles, u64) -> Id,
    mut cancel: impl FnMut(Id) -> Option<u64>,
    mut pop: impl FnMut() -> Option<(Cycles, u64)>,
) -> (u64, u64) {
    let mut pending: Vec<Id> = Vec::with_capacity(1024);
    let mut sum = 0u64;
    for op in ops {
        match *op {
            ChurnOp::Schedule { delay, tag } => pending.push(schedule_in(delay, tag)),
            ChurnOp::Cancel { slot } => {
                if let Some(tag) = cancel(pending.swap_remove(slot)) {
                    sum = fold(sum, tag);
                }
            }
            ChurnOp::Pop => {
                if let Some((t, tag)) = pop() {
                    sum = fold(fold(sum, t), tag);
                }
            }
        }
    }
    let mut performed = ops.len() as u64 + 1;
    while let Some((t, tag)) = pop() {
        sum = fold(fold(sum, t), tag);
        performed += 1;
    }
    (sum, performed)
}

/// The queue's semantics as an ordered map: time order, insertion order
/// among equal times, the clock advancing to each popped event.
#[derive(Default)]
struct QueueModel {
    now: Cycles,
    seq: u64,
    pending: BTreeMap<(Cycles, u64), u64>,
}

/// Nanoseconds per `EventQueue` operation (schedule, cancel or pop) over
/// the churn of `rounds` rounds, checked against [`QueueModel`].
pub fn event_churn_ns(rounds: u64, seed: u64) -> f64 {
    let ops = churn_ops(rounds, seed);
    let model = RefCell::new(QueueModel::default());
    let (want, _) = replay(
        &ops,
        |delay, tag| {
            let m = &mut *model.borrow_mut();
            m.seq += 1;
            let key = (m.now + delay, m.seq);
            m.pending.insert(key, tag);
            key
        },
        |key| model.borrow_mut().pending.remove(&key),
        || {
            let m = &mut *model.borrow_mut();
            let ((t, _), tag) = m.pending.pop_first()?;
            m.now = t;
            Some((t, tag))
        },
    );

    let queue = RefCell::new(EventQueue::<u64>::new());
    let start = Instant::now();
    let (sum, performed) = replay(
        black_box(&ops),
        |delay, tag| queue.borrow_mut().schedule_in(delay, tag),
        |id| queue.borrow_mut().cancel(id),
        || queue.borrow_mut().pop(),
    );
    let elapsed = start.elapsed();
    assert_eq!(sum, want, "event queue diverged from the ordered-map model");
    elapsed.as_secs_f64() * 1e9 / performed as f64
}

/// A deterministic message stream over `nodes` nodes: random endpoints,
/// handler ids and payload lengths, uids in order.
fn messages(n: usize, nodes: usize, gid: Gid, seed: u64) -> Vec<Message> {
    let mut rng = DetRng::new(seed);
    (0..n as u64)
        .map(|uid| {
            let words = rng.index(7);
            let payload: Vec<u32> = (0..words).map(|w| (uid as u32) ^ w as u32).collect();
            Message::new(
                rng.index(nodes),
                rng.index(nodes),
                gid,
                HandlerId(rng.index(16) as u32),
                payload,
            )
            .with_uid(uid)
        })
        .collect()
}

fn message_sum(sum: u64, m: &Message) -> u64 {
    fold(
        fold(fold(sum, m.uid()), m.len_words() as u64),
        m.handler().0 as u64,
    )
}

/// Nanoseconds per `Nic::enqueue` + `Nic::dispose` pair: bursts that fill
/// the hardware input queue, then drain it through user dispose. Checked
/// against the stream in FIFO order.
pub fn nic_enqueue_dispose_ns(n: usize, seed: u64) -> f64 {
    let gid = Gid::new(1);
    let msgs = messages(n, 8, gid, seed);
    let want = msgs.iter().fold(0, message_sum);
    let config = NicConfig::default();
    let mut nic = Nic::new(config);
    nic.set_gid(gid);
    let start = Instant::now();
    let mut sum = 0u64;
    for burst in black_box(&msgs).chunks(config.input_queue_msgs) {
        for m in burst {
            nic.enqueue(m.clone()).expect("burst fits the input queue");
        }
        for _ in burst {
            let m = nic
                .dispose(Mode::User)
                .expect("a matching message is queued");
            sum = message_sum(sum, &m);
        }
    }
    let elapsed = start.elapsed();
    assert_eq!(sum, want, "NIC delivered a different stream");
    assert_eq!(nic.queue_len(), 0);
    elapsed.as_secs_f64() * 1e9 / n as f64
}

/// Nanoseconds per `Network::inject` + `Network::deliver` pair on the main
/// network, one message per cycle. Checked against the network's timing
/// rule (latency plus per-word cost, FIFO per channel) and its counters.
pub fn net_inject_ns(n: usize, seed: u64) -> f64 {
    let msgs = messages(n, 8, Gid::new(1), seed);
    let config = NetworkConfig::main_network();
    let mut last: HashMap<(usize, usize), Cycles> = HashMap::new();
    let want = msgs.iter().enumerate().fold(0, |sum, (now, m)| {
        let transit = config.base_latency + config.cycles_per_word * m.len_words() as Cycles;
        let floor = last.get(&(m.src(), m.dst())).map_or(0, |t| t + 1);
        let arrival = (now as Cycles + transit).max(floor);
        last.insert((m.src(), m.dst()), arrival);
        fold(sum, arrival)
    });
    let mut net = Network::new(config);
    let start = Instant::now();
    let mut sum = 0u64;
    for (now, m) in black_box(&msgs).iter().enumerate() {
        sum = fold(sum, net.inject(now as Cycles, m));
        net.deliver(m.dst());
    }
    let elapsed = start.elapsed();
    assert_eq!(
        sum, want,
        "network arrival times differ from its timing rule"
    );
    assert_eq!((net.injected(), net.delivered()), (n as u64, n as u64));
    elapsed.as_secs_f64() * 1e9 / n as f64
}

/// Nanoseconds per `VirtualBuffer::insert` + `pop` pair: batches of 64
/// messages inserted with demand frame allocation, then drained. Checked
/// against the stream in FIFO order and for the release of every frame.
pub fn vbuf_insert_pop_ns(n: usize, seed: u64) -> f64 {
    let msgs = messages(n, 8, Gid::new(1), seed);
    let want = msgs.iter().fold(0, message_sum);
    let mut vbuf = VirtualBuffer::new(4096);
    let mut frames = FrameAllocator::new(256);
    let start = Instant::now();
    let mut sum = 0u64;
    for batch in black_box(&msgs).chunks(64) {
        for m in batch {
            vbuf.insert(m.clone(), &mut frames)
                .expect("a 64-message batch fits in the frame pool");
        }
        while let Some((m, swapped)) = vbuf.pop(&mut frames) {
            assert!(!swapped, "nothing was swapped out");
            sum = message_sum(sum, &m);
        }
    }
    let elapsed = start.elapsed();
    assert_eq!(sum, want, "virtual buffer delivered a different stream");
    assert_eq!(frames.used(), 0, "drained buffer still holds frames");
    elapsed.as_secs_f64() * 1e9 / n as f64
}
