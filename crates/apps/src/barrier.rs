//! The `barrier` benchmark: "a synthetic application ... consists entirely
//! of barriers and thus synchronizes constantly" (§5.1).
//!
//! The barrier is a dissemination barrier: `log2(P)` rounds in which node
//! `i` sends a token to node `(i + 2^k) mod P` and waits for the token
//! from `(i − 2^k) mod P`. On eight nodes that is 3 messages per node per
//! barrier — 24 per barrier machine-wide, matching the paper's 240,177
//! messages for 10,000 barriers.

use std::cell::RefCell;
use std::rc::Rc;

use udm::{Cycles, Envelope, JobSpec, Program, UserCtx};

/// Handler id for barrier tokens. Payload: `[round | (episode + 1) << 6]` —
/// carrying the episode makes duplicated tokens idempotent (arrival tracking
/// keeps a high-water mark) and lets dropped tokens be re-announced. A
/// payload of `[round]` (episode bits zero) is a re-send request from the
/// round-`round` successor, used only under fault injection.
const H_TOKEN: u32 = 1;

/// Initial re-send timeout under fault injection; doubles per retry up to
/// 64×. Never consulted when the fault plan is inert.
const RETRY_TIMEOUT: Cycles = 50_000;

/// Parameters for the barrier benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierParams {
    /// Number of barrier episodes (the paper runs 10,000).
    pub barriers: u32,
    /// Cycles of "work" between barriers (the paper's version has none).
    pub work: u64,
}

impl Default for BarrierParams {
    fn default() -> Self {
        BarrierParams {
            barriers: 1_000,
            work: 0,
        }
    }
}

/// Per-node barrier state, per round: the highest `episode + 1` any token
/// has announced, and the highest this node has itself announced (consulted
/// to answer re-send requests under fault injection).
struct NodeState {
    arrived: Vec<u64>,
    sent: Vec<u64>,
}

/// The dissemination-barrier program.
pub struct BarrierApp {
    params: BarrierParams,
    nodes: Vec<RefCell<NodeState>>,
    rounds: usize,
}

impl BarrierApp {
    /// Builds the program for a machine of `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics unless `nodes` is a power of two (dissemination rounds).
    pub fn new(nodes: usize, params: BarrierParams) -> Self {
        assert!(
            nodes.is_power_of_two(),
            "barrier requires power-of-two nodes"
        );
        let rounds = nodes.trailing_zeros() as usize;
        BarrierApp {
            params,
            nodes: (0..nodes)
                .map(|_| {
                    RefCell::new(NodeState {
                        arrived: vec![0; rounds.max(1)],
                        sent: vec![0; rounds.max(1)],
                    })
                })
                .collect(),
            rounds,
        }
    }

    /// Job spec named "barrier".
    pub fn spec(nodes: usize, params: BarrierParams) -> JobSpec {
        JobSpec::new("barrier", Rc::new(BarrierApp::new(nodes, params)))
    }

    fn wait_key(round: usize) -> u32 {
        0x4000_0000 | round as u32
    }
}

impl Program for BarrierApp {
    fn main(&self, ctx: &mut UserCtx<'_>) {
        let me = ctx.node();
        let p = ctx.nodes();
        if p == 1 {
            for _ in 0..self.params.barriers {
                ctx.compute(self.params.work.max(1));
            }
            return;
        }
        for b in 0..self.params.barriers {
            if self.params.work > 0 {
                ctx.compute(self.params.work);
            }
            for k in 0..self.rounds {
                let peer = (me + (1 << k)) % p;
                let token = [k as u32 | ((b + 1) << 6)];
                {
                    let mut st = self.nodes[me].borrow_mut();
                    st.sent[k] = st.sent[k].max((b + 1) as u64);
                }
                ctx.send(peer, H_TOKEN, &token);
                // Wait until the announced high-water mark for this round
                // covers this barrier episode.
                let mut timeout = RETRY_TIMEOUT;
                loop {
                    {
                        let st = self.nodes[me].borrow();
                        if st.arrived[k] > b as u64 {
                            break;
                        }
                    }
                    if ctx.faults_active() {
                        // Chaos mode: our token, or our predecessor's, may
                        // have been dropped. On timeout re-announce ours
                        // (receipt is a high-water mark, so duplicates are
                        // harmless) and ask the predecessor to re-announce.
                        if !ctx.block_timeout(Self::wait_key(k), timeout) {
                            ctx.send(peer, H_TOKEN, &token);
                            let pred = (me + p - (1 << k)) % p;
                            ctx.send(pred, H_TOKEN, &[k as u32]);
                            timeout = timeout.saturating_mul(2).min(RETRY_TIMEOUT * 64);
                        }
                    } else {
                        ctx.block(Self::wait_key(k));
                    }
                }
            }
        }
    }

    fn handler(&self, ctx: &mut UserCtx<'_>, env: &Envelope) {
        debug_assert_eq!(env.handler.0, H_TOKEN);
        let round = (env.payload[0] & 0x3F) as usize;
        let announced = (env.payload[0] >> 6) as u64;
        let me = ctx.node();
        if announced == 0 {
            // Re-send request from our round-`round` successor (fault
            // injection only): repeat our highest announcement, if any.
            let sent = self.nodes[me].borrow().sent[round];
            if sent > 0 {
                let succ = (me + (1 << round)) % ctx.nodes();
                ctx.send(succ, H_TOKEN, &[round as u32 | ((sent as u32) << 6)]);
            }
            return;
        }
        {
            let mut st = self.nodes[me].borrow_mut();
            st.arrived[round] = st.arrived[round].max(announced);
        }
        ctx.wake(Self::wait_key(round));
    }
}
