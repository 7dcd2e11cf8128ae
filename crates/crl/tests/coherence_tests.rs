//! Coherence tests for the CRL reimplementation, run on the simulated FUGU
//! machine: single-writer/multi-reader invariants, data integrity across
//! invalidations and recalls, write serialization, and survival of the
//! protocol under multiprogrammed, skewed (buffering-heavy) schedules.

use std::cell::Cell;
use std::rc::Rc;

use fugu_crl::Crl;
use udm::{CostModel, Envelope, JobSpec, Machine, MachineConfig, Program, UserCtx};

fn run_on(nodes: usize, program: Rc<dyn Program>) -> udm::RunReport {
    let mut m = Machine::new(MachineConfig {
        nodes,
        ..Default::default()
    });
    m.add_job(JobSpec::new("crl", program));
    m.run()
}

/// Program shell that owns a Crl and forwards protocol messages.
struct CrlProg<F: Fn(&Crl, &mut UserCtx<'_>) + 'static> {
    crl: Crl,
    body: F,
}

impl<F: Fn(&Crl, &mut UserCtx<'_>) + 'static> Program for CrlProg<F> {
    fn main(&self, ctx: &mut UserCtx<'_>) {
        (self.body)(&self.crl, ctx);
    }
    fn handler(&self, ctx: &mut UserCtx<'_>, env: &Envelope) {
        assert!(self.crl.handle(ctx, env), "unexpected non-CRL message");
    }
}

fn crl_prog<F: Fn(&Crl, &mut UserCtx<'_>) + 'static>(nodes: usize, body: F) -> Rc<dyn Program> {
    Rc::new(CrlProg {
        crl: Crl::new(nodes),
        body,
    })
}

/// Simple barrier over CRL itself is circular; tests use compute-delays and
/// the protocol's own blocking instead.

#[test]
fn home_local_read_and_write() {
    // Region 0 lives on node 0; only node 0 touches it.
    run_on(
        2,
        crl_prog(2, |crl, ctx| {
            crl.create(ctx, 0, &[1, 2, 3, 4]);
            if ctx.node() == 0 {
                crl.start_read(ctx, 0);
                assert_eq!(crl.snapshot(ctx, 0), vec![1, 2, 3, 4]);
                crl.end_read(ctx, 0);
                crl.start_write(ctx, 0);
                crl.update(ctx, 0, |d| d[0] = 99);
                crl.end_write(ctx, 0);
                crl.start_read(ctx, 0);
                assert_eq!(crl.snapshot(ctx, 0)[0], 99);
                crl.end_read(ctx, 0);
            }
        }),
    );
}

#[test]
fn remote_read_fetches_master_copy() {
    run_on(
        2,
        crl_prog(2, |crl, ctx| {
            // Region 1 is homed on node 1; node 0 reads it remotely.
            let init: Vec<u32> = (0..37).collect(); // multi-chunk transfer
            crl.create(ctx, 1, &init);
            if ctx.node() == 0 {
                crl.start_read(ctx, 1);
                assert_eq!(crl.snapshot(ctx, 1), (0..37).collect::<Vec<u32>>());
                crl.end_read(ctx, 1);
            }
        }),
    );
}

#[test]
fn remote_write_then_remote_read_sees_update() {
    let order = Rc::new(Cell::new(0u32));
    let o2 = Rc::clone(&order);
    run_on(
        4,
        crl_prog(4, move |crl, ctx| {
            crl.create(ctx, 2, &[0; 8]); // homed on node 2
            match ctx.node() {
                0 => {
                    crl.start_write(ctx, 2);
                    crl.update(ctx, 2, |d| d[3] = 777);
                    crl.end_write(ctx, 2);
                    o2.set(1);
                }
                1 => {
                    // Wait until node 0 finished its write (host-side flag is
                    // fine: we only need *some* ordering, the protocol supplies
                    // the data correctness).
                    while o2.get() == 0 {
                        ctx.compute(500);
                    }
                    crl.start_read(ctx, 2);
                    assert_eq!(crl.snapshot(ctx, 2)[3], 777);
                    crl.end_read(ctx, 2);
                }
                _ => {}
            }
        }),
    );
}

#[test]
fn concurrent_writers_serialize_increments() {
    const PER_NODE: u32 = 25;
    let nodes = 4;
    run_on(
        nodes,
        crl_prog(nodes, move |crl, ctx| {
            crl.create(ctx, 3, &[0]); // counter homed on node 3
            for _ in 0..PER_NODE {
                crl.start_write(ctx, 3);
                crl.update(ctx, 3, |d| d[0] += 1);
                crl.end_write(ctx, 3);
                ctx.compute(200);
            }
            // Everyone checks the final value once all increments are in.
            loop {
                crl.start_read(ctx, 3);
                let v = crl.snapshot(ctx, 3)[0];
                crl.end_read(ctx, 3);
                if v == PER_NODE * nodes as u32 {
                    break;
                }
                assert!(
                    v < PER_NODE * nodes as u32,
                    "counter overshot: {v} (lost or doubled increments)"
                );
                ctx.compute(1_000);
            }
        }),
    );
}

#[test]
fn read_sharers_are_invalidated_by_writer() {
    let nodes = 3;
    run_on(
        nodes,
        crl_prog(nodes, move |crl, ctx| {
            crl.create(ctx, 0, &[5]);
            match ctx.node() {
                1 | 2 => {
                    // Become a sharer, release, then keep re-reading; we must
                    // eventually observe the writer's value.
                    crl.start_read(ctx, 0);
                    let first = crl.snapshot(ctx, 0)[0];
                    crl.end_read(ctx, 0);
                    assert!(first == 5 || first == 6);
                    loop {
                        crl.start_read(ctx, 0);
                        let v = crl.snapshot(ctx, 0)[0];
                        crl.end_read(ctx, 0);
                        if v == 6 {
                            break;
                        }
                        ctx.compute(500);
                    }
                }
                0 => {
                    ctx.compute(5_000); // let the readers cache it first
                    crl.start_write(ctx, 0);
                    crl.update(ctx, 0, |d| d[0] = 6);
                    crl.end_write(ctx, 0);
                }
                _ => unreachable!(),
            }
        }),
    );
}

#[test]
fn held_region_defers_recall_until_end() {
    // Node 1 takes a long write hold; node 2's read must block until the
    // hold ends, then see the final value (no torn intermediate state).
    let nodes = 3;
    run_on(
        nodes,
        crl_prog(nodes, move |crl, ctx| {
            crl.create(ctx, 0, &[0, 0]);
            match ctx.node() {
                1 => {
                    crl.start_write(ctx, 0);
                    crl.update(ctx, 0, |d| d[0] = 1);
                    ctx.compute(50_000); // hold across node 2's request
                    crl.update(ctx, 0, |d| d[1] = 1);
                    crl.end_write(ctx, 0);
                }
                2 => {
                    ctx.compute(10_000); // let node 1 acquire first
                    crl.start_read(ctx, 0);
                    let snap = crl.snapshot(ctx, 0);
                    crl.end_read(ctx, 0);
                    assert!(
                        snap == vec![0, 0] || snap == vec![1, 1],
                        "torn read: {snap:?}"
                    );
                }
                _ => {}
            }
        }),
    );
}

#[test]
fn many_regions_many_nodes_stress() {
    // Every node hammers a set of regions with read-modify-writes; at the
    // end each region's value must equal the total number of increments
    // applied to it. Deterministic per-seed.
    const REGIONS: u32 = 8;
    const OPS: usize = 40;
    let nodes = 4;
    let done = Rc::new(Cell::new(0usize));
    let d2 = Rc::clone(&done);
    run_on(
        nodes,
        crl_prog(nodes, move |crl, ctx| {
            for r in 0..REGIONS {
                crl.create(ctx, r, &[0]);
            }
            for i in 0..OPS {
                let r = {
                    let rng = ctx.rng();
                    rng.range_u64(0, REGIONS as u64) as u32
                };
                if (i + ctx.node()) % 3 == 0 {
                    crl.start_read(ctx, r);
                    let _ = crl.snapshot(ctx, r);
                    crl.end_read(ctx, r);
                } else {
                    crl.start_write(ctx, r);
                    crl.update(ctx, r, |d| d[0] += 1);
                    crl.end_write(ctx, r);
                }
                ctx.compute(300);
            }
            d2.set(d2.get() + 1);
            // Wait for everyone, then node 0 audits the global sum.
            while d2.get() < ctx.nodes() {
                ctx.compute(1_000);
            }
            if ctx.node() == 0 {
                let mut sum = 0;
                for r in 0..REGIONS {
                    crl.start_read(ctx, r);
                    sum += crl.snapshot(ctx, r)[0];
                    crl.end_read(ctx, r);
                }
                // Each node performed OPS ops of which ~2/3 are increments;
                // count exactly:
                let mut expect = 0;
                for node in 0..ctx.nodes() {
                    for i in 0..OPS {
                        if (i + node) % 3 != 0 {
                            expect += 1;
                        }
                    }
                }
                assert_eq!(sum, expect, "increments lost or duplicated");
            }
        }),
    );
}

#[test]
fn protocol_survives_multiprogrammed_buffered_delivery() {
    // The headline integration: CRL traffic under a skewed gang schedule
    // multiprogrammed with a null app. Some protocol messages take the
    // buffered path; coherence must be unaffected.
    struct NullApp;
    impl Program for NullApp {
        fn main(&self, ctx: &mut UserCtx<'_>) {
            loop {
                ctx.compute(10_000);
            }
        }
    }
    let nodes = 4;
    let prog = crl_prog(nodes, move |crl, ctx| {
        crl.create(ctx, 7, &[0]); // homed on node 3
        for _ in 0..30 {
            crl.start_write(ctx, 7);
            crl.update(ctx, 7, |d| d[0] += 1);
            crl.end_write(ctx, 7);
            ctx.compute(2_000);
        }
        loop {
            crl.start_read(ctx, 7);
            let v = crl.snapshot(ctx, 7)[0];
            crl.end_read(ctx, 7);
            if v == 30 * ctx.nodes() as u32 {
                break;
            }
            ctx.compute(2_000);
        }
    });
    let mut m = Machine::new(MachineConfig {
        nodes,
        skew: 0.25,
        costs: CostModel {
            timeslice: 25_000,
            ..CostModel::hard_atomicity()
        },
        ..Default::default()
    });
    m.add_job(JobSpec::new("crl", prog));
    m.add_job(JobSpec::new("null", Rc::new(NullApp)).background());
    let r = m.run();
    let j = r.job("crl");
    assert!(
        j.delivered_buffered > 0,
        "skewed run should buffer some protocol messages"
    );
    assert_eq!(j.delivered(), j.sent, "no protocol message lost");
}
