//! The sharded runtime's merge order against a reference twin.
//!
//! The runtime merges a boundary's inbound envelopes into one ranked series: a stable sort on
//! `(deliver_at, tag)`, one rank reserved per envelope, and one pending event that hands the
//! envelopes out in turn. The twin below is the plain form of the same windowed algorithm: a
//! per-tag sequence number on every send, an unstable sort on `(deliver_at, tag, seq)` and
//! one queue push per envelope. It runs its shards one after another on the test's thread.
//!
//! Both drive the same workload over the same random partition: bursts of sends from one node
//! at one instant with one delay (so `(deliver_at, tag)` repeats, several sends per tag per
//! instant), relays with delays spanning several lookahead windows (so a batch outlives later
//! boundaries), and local events scheduled from message handlers (so ranks and ordinary pushes
//! interleave). Some runs stop on an event budget, a deadline or a progress target with
//! batches half delivered. Every node's receipt log, in execution order, and every run-wide
//! aggregate must agree.

use p2plab_sim::{
    run_sharded, ShardConfig, ShardOutcome, ShardSim, ShardWorld, SimDuration, SimTime, Simulation,
    TypedEvent,
};
use proptest::prelude::*;
use std::sync::Arc;

/// The lookahead: delays are whole multiples of it, so delivery instants collide often.
const L: SimDuration = SimDuration::from_millis(1);

/// One scripted burst: `(src, at_ms, burst, delay_ms, ttl)`, node ids taken modulo the node
/// count at use.
type Origin = (u64, u64, u64, u64, u32);

/// Per-node receipt logs: node `d`'s `(time, src, stamp)` receipts in execution order.
type NodeLogs = Vec<Vec<(SimTime, u64, u64)>>;

/// A message: its destination node, remaining relays and a stamp that names it and drives
/// every choice made on its receipt.
#[derive(Clone, Copy)]
struct Pkt {
    dest: u64,
    ttl: u32,
    stamp: u64,
}

/// A shard-local event.
#[derive(Clone, Copy)]
enum Loc {
    /// Fire scripted burst `idx`.
    Script(usize),
    /// Node `node` sends one message of stamp `stamp` with `ttl` relays left.
    Echo { node: u64, stamp: u64, ttl: u32 },
}

/// What a handler asks its runtime to do, in order.
enum Act {
    Send {
        tag: u64,
        delay: SimDuration,
        pkt: Pkt,
    },
    Local {
        delay: SimDuration,
        ev: Loc,
    },
}

fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 31)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 29)
}

/// The workload, written once for both runtimes: it logs receipts and says what to send.
struct Model {
    nodes: u64,
    script: Arc<Vec<Origin>>,
    logs: NodeLogs,
    received: u64,
}

impl Model {
    fn new(nodes: u64, script: Arc<Vec<Origin>>) -> Model {
        Model {
            nodes,
            script,
            logs: (0..nodes).map(|_| Vec::new()).collect(),
            received: 0,
        }
    }

    fn on_message(&mut self, now: SimTime, src: u64, pkt: Pkt, acts: &mut Vec<Act>) {
        self.logs[pkt.dest as usize].push((now, src, pkt.stamp));
        self.received += 1;
        if pkt.ttl == 0 {
            return;
        }
        // One or two copies, both with the same delay: one tag, one instant, two sends.
        let delay = L * (1 + (pkt.stamp >> 3) % 6);
        for copy in 0..1 + pkt.stamp % 2 {
            let stamp = mix(pkt.stamp ^ copy);
            acts.push(Act::Send {
                tag: pkt.dest,
                delay,
                pkt: Pkt {
                    dest: stamp % self.nodes,
                    ttl: pkt.ttl - 1,
                    stamp,
                },
            });
        }
        if pkt.stamp.is_multiple_of(5) {
            acts.push(Act::Local {
                delay: L * ((pkt.stamp >> 7) % 3),
                ev: Loc::Echo {
                    node: pkt.dest,
                    stamp: mix(pkt.stamp + 1),
                    ttl: pkt.ttl - 1,
                },
            });
        }
    }

    fn on_local(&mut self, ev: Loc, acts: &mut Vec<Act>) {
        match ev {
            Loc::Script(idx) => {
                let (src, _, burst, delay_ms, ttl) = self.script[idx];
                for j in 0..burst {
                    let stamp = mix((idx as u64) << 8 | j);
                    acts.push(Act::Send {
                        tag: src % self.nodes,
                        delay: L * delay_ms,
                        pkt: Pkt {
                            dest: stamp % self.nodes,
                            ttl,
                            stamp,
                        },
                    });
                }
            }
            Loc::Echo { node, stamp, ttl } => acts.push(Act::Send {
                tag: node,
                delay: L * (1 + stamp % 4),
                pkt: Pkt {
                    dest: stamp % self.nodes,
                    ttl,
                    stamp,
                },
            }),
        }
    }
}

/// How a run may stop early: `kind` 0 runs to drain, 1 sets a deadline, 2 an event budget, 3
/// a progress target, each at `limit`.
fn configure(cfg: &mut ShardConfig, kind: u8, limit: u64) {
    match kind {
        1 => cfg.deadline = SimTime::ZERO + L * (limit % 40),
        2 => cfg.event_budget = limit,
        3 => cfg.progress_target = limit,
        _ => {}
    }
}

/// The scripted bursts shard `shard` owns, by the owner of their source.
fn owned(script: &[Origin], assign: &[usize], nodes: u64, shard: usize) -> Vec<(usize, SimTime)> {
    (script.iter().enumerate())
        .filter(|(_, o)| assign[(o.0 % nodes) as usize] == shard)
        .map(|(idx, o)| (idx, SimTime::ZERO + L * o.1))
        .collect()
}

/// What a run is compared on: receipt logs plus (outcome, events, end time, windows, messages).
type Observed = (NodeLogs, (ShardOutcome, u64, SimTime, u64, u64));

// ---- The runtime under test ----

struct Runtime {
    model: Model,
    assign: Arc<Vec<usize>>,
}

impl Runtime {
    fn perform(sim: &mut ShardSim<Self>, acts: Vec<Act>) {
        for act in acts {
            match act {
                Act::Send { tag, delay, pkt } => {
                    let dest_shard = sim.model().assign[pkt.dest as usize];
                    sim.send_message(tag, dest_shard, delay, pkt);
                }
                Act::Local { delay, ev } => sim.schedule_local_in(delay, ev),
            }
        }
    }
}

impl ShardWorld for Runtime {
    type Msg = Pkt;
    type Local = Loc;

    fn on_message(sim: &mut ShardSim<Self>, src: u64, pkt: Pkt) {
        let now = sim.now();
        let mut acts = Vec::new();
        sim.model().model.on_message(now, src, pkt, &mut acts);
        Runtime::perform(sim, acts);
    }

    fn on_local(sim: &mut ShardSim<Self>, ev: Loc) {
        let mut acts = Vec::new();
        sim.model().model.on_local(ev, &mut acts);
        Runtime::perform(sim, acts);
    }

    fn progress(&self) -> u64 {
        self.model.received
    }
}

fn run_runtime(
    shards: usize,
    nodes: u64,
    assign: &Arc<Vec<usize>>,
    script: &Arc<Vec<Origin>>,
    stop: (u8, u64),
) -> Observed {
    let mut cfg = ShardConfig::new(shards, L, 42);
    configure(&mut cfg, stop.0, stop.1);
    let run = run_sharded(
        &cfg,
        |_| Runtime {
            model: Model::new(nodes, script.clone()),
            assign: assign.clone(),
        },
        |sim| {
            for (idx, at) in owned(script, assign, nodes, sim.world().shard()) {
                sim.schedule_event_at(at, p2plab_sim::ShardEvent::Local(Loc::Script(idx)));
            }
        },
    );
    let logs = (0..nodes as usize)
        .map(|d| run.worlds[assign[d]].model.logs[d].clone())
        .collect();
    let aggregates = (
        run.outcome,
        run.executed_events,
        run.end_time,
        run.windows,
        run.messages,
    );
    (logs, aggregates)
}

// ---- The reference twin ----

/// A twin envelope, ordered by `(deliver_at, tag, seq)`.
struct TwinEnvelope {
    deliver_at: SimTime,
    tag: u64,
    seq: u64,
    pkt: Pkt,
}

struct TwinHost {
    model: Model,
    assign: Arc<Vec<usize>>,
    outbox: Vec<Vec<TwinEnvelope>>,
    /// The next sequence number of each tag (tags are node ids).
    seq_by_tag: Vec<u64>,
    messages: u64,
}

enum TwinEvent {
    Deliver { src: u64, pkt: Pkt },
    Local(Loc),
}

type TwinSim = Simulation<TwinHost, TwinEvent>;

impl TypedEvent<TwinHost> for TwinEvent {
    fn fire(self, sim: &mut TwinSim) {
        let now = sim.now();
        let mut acts = Vec::new();
        match self {
            TwinEvent::Deliver { src, pkt } => {
                (sim.world_mut().model).on_message(now, src, pkt, &mut acts);
            }
            TwinEvent::Local(ev) => sim.world_mut().model.on_local(ev, &mut acts),
        }
        for act in acts {
            match act {
                Act::Send { tag, delay, pkt } => {
                    assert!(delay >= L);
                    let host = sim.world_mut();
                    let seq = host.seq_by_tag[tag as usize];
                    host.seq_by_tag[tag as usize] += 1;
                    host.messages += 1;
                    let dest_shard = host.assign[pkt.dest as usize];
                    host.outbox[dest_shard].push(TwinEnvelope {
                        deliver_at: now + delay,
                        tag,
                        seq,
                        pkt,
                    });
                }
                Act::Local { delay, ev } => {
                    sim.schedule_event_in(delay, TwinEvent::Local(ev));
                }
            }
        }
    }
}

/// The boundary decision, as the runtime makes it from the shards' `(next, executed,
/// progress)`.
fn decide(
    statuses: &[(Option<SimTime>, u64, u64)],
    cfg: &ShardConfig,
) -> Result<SimTime, ShardOutcome> {
    let executed: u64 = statuses.iter().map(|s| s.1).sum();
    if executed >= cfg.event_budget {
        return Err(ShardOutcome::EventBudgetExhausted);
    }
    if statuses.iter().map(|s| s.2).sum::<u64>() >= cfg.progress_target {
        return Err(ShardOutcome::TargetReached);
    }
    let Some(next) = statuses.iter().filter_map(|s| s.0).min() else {
        return Err(ShardOutcome::Drained);
    };
    if next > cfg.deadline {
        return Err(ShardOutcome::DeadlineReached);
    }
    let l = cfg.lookahead.as_nanos();
    let window_end = (next.as_nanos() - next.as_nanos() % l).saturating_add(l);
    let end = window_end.min(cfg.deadline.as_nanos().saturating_add(1));
    Ok(SimTime::from_nanos(end))
}

fn run_twin(
    shards: usize,
    nodes: u64,
    assign: &Arc<Vec<usize>>,
    script: &Arc<Vec<Origin>>,
    stop: (u8, u64),
) -> Observed {
    let mut cfg = ShardConfig::new(shards, L, 42);
    configure(&mut cfg, stop.0, stop.1);
    let mut sims: Vec<TwinSim> = (0..shards)
        .map(|shard| {
            let host = TwinHost {
                model: Model::new(nodes, script.clone()),
                assign: assign.clone(),
                outbox: (0..shards).map(|_| Vec::new()).collect(),
                seq_by_tag: vec![0; nodes as usize],
                messages: 0,
            };
            let mut sim = Simulation::new(host, 0);
            for (idx, at) in owned(script, assign, nodes, shard) {
                sim.schedule_event_at(at, TwinEvent::Local(Loc::Script(idx)));
            }
            sim
        })
        .collect();
    let status = |sim: &mut TwinSim| {
        let next = sim.next_event_time();
        (next, sim.executed_events(), sim.world().model.received)
    };
    let mut statuses: Vec<_> = sims.iter_mut().map(status).collect();
    let mut windows = 0;
    let outcome = loop {
        let end = match decide(&statuses, &cfg) {
            Err(outcome) => break outcome,
            Ok(end) => end,
        };
        windows += 1;
        let executed: u64 = statuses.iter().map(|s| s.1).sum();
        let mut mailboxes: Vec<Vec<TwinEnvelope>> = (0..shards).map(|_| Vec::new()).collect();
        for sim in &mut sims {
            if cfg.event_budget != u64::MAX {
                let remaining = cfg.event_budget - executed;
                sim.set_event_budget(sim.executed_events().saturating_add(remaining));
            }
            sim.run_before(end);
            for (dest, mailbox) in mailboxes.iter_mut().enumerate() {
                mailbox.append(&mut sim.world_mut().outbox[dest]);
            }
        }
        for (sim, mut inbound) in sims.iter_mut().zip(mailboxes) {
            inbound.sort_unstable_by_key(|e| (e.deliver_at, e.tag, e.seq));
            for e in inbound {
                let event = TwinEvent::Deliver {
                    src: e.tag,
                    pkt: e.pkt,
                };
                sim.schedule_event_at(e.deliver_at, event);
            }
        }
        statuses = sims.iter_mut().map(status).collect();
    };
    let end_time = if outcome == ShardOutcome::DeadlineReached {
        cfg.deadline
    } else {
        sims.iter().map(|s| s.now()).max().unwrap_or(SimTime::ZERO)
    };
    let executed = sims.iter().map(|s| s.executed_events()).sum();
    let messages = sims.iter().map(|s| s.world().messages).sum();
    let hosts: Vec<TwinHost> = sims.into_iter().map(Simulation::into_world).collect();
    let logs = (0..nodes as usize)
        .map(|d| hosts[assign[d]].model.logs[d].clone())
        .collect();
    (logs, (outcome, executed, end_time, windows, messages))
}

proptest! {
    /// The runtime and the twin observe the same receipts in the same order, and agree on the
    /// outcome, the event count, the stop time, the window count and the message count, at
    /// one to four shards over a random partition, whether a run drains or stops early.
    #[test]
    fn merged_batches_deliver_in_the_twins_order(
        nodes in 2u64..10,
        shards in 1usize..5,
        raw_assign in prop::collection::vec(0usize..64, 10..11),
        script in prop::collection::vec((0u64..64, 0u64..6, 1u64..13, 1u64..7, 0u32..4), 1..16),
        stop in (0u8..4, 1u64..400),
    ) {
        let assign: Arc<Vec<usize>> =
            Arc::new((0..nodes as usize).map(|i| raw_assign[i] % shards).collect());
        let script = Arc::new(script);
        let twin = run_twin(shards, nodes, &assign, &script, stop);
        let runtime = run_runtime(shards, nodes, &assign, &script, stop);
        prop_assert_eq!(&runtime.1, &twin.1, "aggregates, stop {:?}", stop);
        for node in 0..nodes as usize {
            prop_assert_eq!(
                &runtime.0[node],
                &twin.0[node],
                "node {} under partition {:?}, stop {:?}",
                node,
                &assign,
                stop
            );
        }
    }
}
