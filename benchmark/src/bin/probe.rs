//! Per-layer numbers, taken from outside the program by timing calls into public functions.
//!
//! `probe trace --out DIR --run NAME=FILE` makes one traced in-process pass over the scenario
//! file: a root span `bench.workload` with child spans around parse, validate, deploy, the
//! set-up-only run, the full run and the report round-trip, each carrying the counts read at
//! that boundary. Then it runs the isolated probes (ns/op of single layers). Spans stay in
//! memory and go to `DIR/NAME.trace.json` at the end; the per-layer metrics derived from them
//! go to `DIR/NAME.layers.json`. One process per workload, so every traced pass starts from
//! the same fresh allocator state the CLI run it is compared with has.
//!
//! Only API the ROADMAP keeps is used (see the list in `benchmark/README.md`).

use p2plab_benchmark::json::Json;
use p2plab_benchmark::report::RunFacts;
use p2plab_benchmark::scenario::set_scenario_key;
use p2plab_benchmark::stats::median;
use p2plab_benchmark::sys::self_cpu_s;
use p2plab_bittorrent::{Bitfield, PieceManager, Torrent};
use p2plab_core::{deploy, parse_toml, RunReport, ScenarioFile};
use p2plab_net::proto::{fragment_count, AckBitfield, AckTracker, Reassembler, SentWindow};
use p2plab_net::{
    BurstLoss, Direction, Firewall, LinkCondition, Pipe, PipeConfig, PipeId, Rule, Subnet, VirtAddr,
};
use p2plab_sim::{
    run_sharded, EventQueue, Recorder, ShardConfig, ShardSim, ShardWorld, SimDuration, SimRng,
    SimTime,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("probe: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: probe trace --out DIR --run NAME=FILE";
    let [command, out_flag, out, run_flag, run] = args else {
        return Err(USAGE.to_string());
    };
    if (command.as_str(), out_flag.as_str(), run_flag.as_str()) != ("trace", "--out", "--run") {
        return Err(USAGE.to_string());
    }
    let out = PathBuf::from(out);
    let (name, file) = run.split_once('=').ok_or(USAGE)?;

    // The workload first, in a fresh process like the CLI's; the isolated probes (which leave
    // a million-event queue's worth of allocator state behind) afterwards.
    let mut tracer = Tracer::new();
    eprintln!("probe: tracing {name}");
    let pass = trace_workload(&mut tracer, name, Path::new(file))?;
    tracer.check_nesting()?;
    let isolated = isolated_probes();
    let mut metrics = pass.metrics;
    metrics.extend(isolated.metrics());
    metrics.extend(isolated.estimates(pass.events, pass.fragments, pass.loop_s));
    let layers = Json::obj([
        ("digest", Json::Str(format!("{:016x}", pass.digest))),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
    ]);
    let write = |suffix: &str, json: Json| {
        let path = out.join(format!("{name}.{suffix}.json"));
        std::fs::write(&path, format!("{json}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write("trace", tracer.to_json())?;
    write("layers", layers)
}

// ---------------------------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------------------------

/// One timed interval. Spans of one workload share its name; `parent` is the span that
/// caused this one.
struct Span {
    parent: Option<usize>,
    workload: String,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    counts: Vec<(&'static str, f64)>,
}

/// In-memory span recorder; ids are indices.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, workload: &str, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            workload: workload.to_string(),
            name,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a child span of `parent` and returns the span id with `f`'s result.
    fn child<T>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> T) -> (usize, T) {
        let workload = self.spans[parent].workload.clone();
        let id = self.open(&workload, name, Some(parent));
        let value = f();
        self.close(id);
        (id, value)
    }

    fn count(&mut self, id: usize, key: &'static str, value: f64) {
        self.spans[id].counts.push((key, value));
    }

    fn secs(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 * 1e-9
    }

    /// Every child interval lies inside its parent's and siblings do not overlap, so a span's
    /// self time (duration minus children) is never negative.
    fn check_nesting(&self) -> Result<(), String> {
        for (id, span) in self.spans.iter().enumerate() {
            let Some(parent) = span.parent.map(|p| &self.spans[p]) else {
                continue;
            };
            if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
                return Err(format!(
                    "span {id} ({}) leaves its parent's interval",
                    span.name
                ));
            }
        }
        for (id, span) in self.spans.iter().enumerate() {
            let children: u64 = self
                .spans
                .iter()
                .filter(|s| s.parent == Some(id))
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            if children > span.end_ns - span.start_ns {
                return Err(format!("span {id} ({}) has negative self time", span.name));
            }
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("workload", Json::Str(s.workload.clone())),
                        ("name", Json::Str(s.name.to_string())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "counts",
                            Json::obj(s.counts.iter().map(|(k, v)| (*k, Json::Num(*v)))),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------------------------------

fn parse(text: &str) -> Result<ScenarioFile, String> {
    let table = parse_toml(text).map_err(|e| e.to_string())?;
    ScenarioFile::from_table(&table).map_err(|e| e.to_string())
}

/// What one traced pass produced.
struct Pass {
    /// Digest of the report (compared with the CLI's by the driver).
    digest: u64,
    /// The workload's per-layer metrics, estimates excepted.
    metrics: Vec<(&'static str, f64)>,
    events: f64,
    fragments: f64,
    loop_s: f64,
}

/// One in-process pass over the scenario in `path`.
fn trace_workload(tr: &mut Tracer, name: &str, path: &Path) -> Result<Pass, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let setup_variant = parse(&set_scenario_key(&text, "event_budget", "1")?)?;

    let root = tr.open(name, "bench.workload", None);
    let (parse_span, file) = tr.child(root, "core.dsl.parse", || parse(&text));
    let file = file?;
    tr.count(parse_span, "bytes", text.len() as f64);

    let (validate_span, valid) = tr.child(root, "core.scenario.validate", || file.validate());
    valid.map_err(|e| e.to_string())?;

    let (deploy_span, deployment) = tr.child(root, "core.deploy.deploy", || {
        deploy(&file.spec.topology, file.spec.deployment, file.spec.network)
    });
    let deployment = deployment.map_err(|e| format!("{e:?}"))?;
    let vnodes = deployment.vnodes.len();
    tr.count(deploy_span, "vnodes", vnodes as f64);
    tr.count(
        deploy_span,
        "machines",
        file.spec.deployment.machines as f64,
    );
    drop(deployment);

    let (setup_span, setup) = tr.child(root, "core.scenario.setup", || setup_variant.run());
    let setup = setup.map_err(|e| e.to_string())?;
    tr.count(setup_span, "events_executed", setup.events_executed as f64);

    let cpu_before = self_cpu_s();
    let (run_span, report) = tr.child(root, "core.scenario.run", || file.run());
    let run_cpu = self_cpu_s() - cpu_before;
    let report = report.map_err(|e| e.to_string())?;
    tr.count(run_span, "events_executed", report.events_executed as f64);
    tr.count(
        run_span,
        "stopped_at_ns",
        report.stopped_at.as_nanos() as f64,
    );
    tr.count(run_span, "cpu_s", run_cpu);

    // The sharded runtime against itself on one shard: same scenario, `shards = 1`.
    let mut shard_metrics = (0.0, 0.0);
    if file.spec.shards > 1 {
        let single = parse(&set_scenario_key(&text, "shards", "1")?)?;
        let cpu_before = self_cpu_s();
        let (single_span, single_report) =
            tr.child(root, "core.scenario.run.shards1", || single.run());
        let single_cpu = self_cpu_s() - cpu_before;
        let single_report = single_report.map_err(|e| e.to_string())?;
        tr.count(
            single_span,
            "events_executed",
            single_report.events_executed as f64,
        );
        tr.count(single_span, "cpu_s", single_cpu);
        if single_report.events_executed != report.events_executed {
            return Err(format!(
                "{name}: {} events on {} shards but {} on one",
                report.events_executed, file.spec.shards, single_report.events_executed
            ));
        }
        shard_metrics = (
            tr.secs(single_span) / tr.secs(run_span),
            run_cpu / single_cpu - 1.0,
        );
    }

    let (to_json_span, json) = tr.child(root, "core.report.to_json", || report.to_json());
    tr.count(to_json_span, "bytes", json.len() as f64);
    let (from_json_span, loaded) = tr.child(root, "core.report.from_json", || {
        RunReport::from_json(&json)
    });
    if loaded.map_err(|e| e.to_string())? != report {
        return Err(format!(
            "{name}: the report does not survive its JSON round-trip"
        ));
    }
    tr.close(root);

    let facts = RunFacts::parse(&json)?;
    let events = facts.events_executed as f64;
    let run_s = tr.secs(run_span);
    let setup_s = tr.secs(setup_span);
    let loop_s = run_s - setup_s;
    let fragments = facts.scalar("fragments_sent");
    let rumors = facts.scalar("rumors_sent");
    let probes = facts.scalar("probes_scheduled");
    let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let metrics = vec![
        ("core.dsl.parse_s", tr.secs(parse_span)),
        ("core.scenario.validate_s", tr.secs(validate_span)),
        ("core.deploy.deploy_s", tr.secs(deploy_span)),
        (
            "net.network.add_vnode_ns",
            tr.secs(deploy_span) * 1e9 / vnodes as f64,
        ),
        ("core.scenario.setup_s", setup_s),
        ("core.scenario.run_s", run_s),
        ("core.scenario.loop_s", loop_s),
        ("core.report.to_json_s", tr.secs(to_json_span)),
        ("core.report.from_json_s", tr.secs(from_json_span)),
        ("core.report.bytes", json.len() as f64),
        ("sim.events_executed", events),
        ("sim.events_per_s", events / loop_s),
        ("sim.ns_per_event", loop_s * 1e9 / events),
        (
            "sim.sim_s_per_wall_s",
            facts.stopped_at_ns as f64 * 1e-9 / run_s,
        ),
        ("net.fragments_sent", fragments),
        ("net.retransmits", facts.scalar("retransmits")),
        (
            "net.selective_retransmits",
            facts.scalar("selective_retransmits"),
        ),
        ("net.datagrams_dropped", facts.scalar("datagrams_dropped")),
        ("net.rpc_timeouts", facts.scalar("rpc_timeouts")),
        (
            "net.reassembly_timeouts",
            facts.scalar("reassembly_timeouts"),
        ),
        (
            "net.retransmit_ratio",
            ratio(
                facts.scalar("retransmits") + facts.scalar("selective_retransmits"),
                fragments,
            ),
        ),
        (
            "bittorrent.completed_clients",
            facts.histogram_count("completion_time_secs") as f64,
        ),
        ("core.gossip.rumors_sent", rumors),
        (
            "core.gossip.duplicate_ratio",
            ratio(facts.scalar("duplicate_receipts"), rumors),
        ),
        (
            "core.gossip.missed_ratio",
            ratio(facts.scalar("missed_receipts"), rumors),
        ),
        ("core.dht.rpc_calls", facts.scalar("rpc_calls")),
        ("core.dht.rpc_retries", facts.scalar("rpc_retries")),
        (
            "core.dht.rpc_per_lookup",
            ratio(
                facts.scalar("rpc_calls"),
                facts.histogram_count("lookup_hops") as f64,
            ),
        ),
        (
            "core.dht.lookup_hops_p50",
            facts.histogram_p50("lookup_hops"),
        ),
        ("core.mesh.probes", probes),
        ("core.mesh.events_per_probe", ratio(events, probes)),
        ("sim.shard.speedup_2v1", shard_metrics.0),
        ("sim.shard.cpu_overhead_2v1", shard_metrics.1),
    ];
    Ok(Pass {
        digest: facts.digest,
        metrics,
        events,
        fragments,
        loop_s,
    })
}

// ---------------------------------------------------------------------------------------------
// Isolated probes
// ---------------------------------------------------------------------------------------------

/// ns per operation: one warm-up batch, then the median of seven timed batches.
fn measure(ops_per_batch: u64, mut batch: impl FnMut()) -> f64 {
    batch();
    let per_op: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            batch();
            start.elapsed().as_nanos() as f64 / ops_per_batch as f64
        })
        .collect();
    median(&per_op)
}

/// Unit costs of single layers, all from fixed seeds.
struct Isolated {
    queue_d1k: f64,
    queue_d1m: f64,
    queue_cancel: f64,
    shard_window: f64,
    shard_envelope: f64,
    recorder_record: f64,
    pipe_enqueue: f64,
    pipe_enqueue_cond: f64,
    firewall_r64: f64,
    firewall_r4k: f64,
    frag_accept: f64,
    frags_per_message: f64,
    ack_roundtrip: f64,
    pick_blocks: f64,
}

impl Isolated {
    fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("sim.queue.push_pop_ns.d1k", self.queue_d1k),
            ("sim.queue.push_pop_ns.d1m", self.queue_d1m),
            ("sim.queue.cancel_ns", self.queue_cancel),
            ("sim.shard.window_ns", self.shard_window),
            ("sim.shard.envelope_ns", self.shard_envelope),
            ("sim.recorder.record_ns", self.recorder_record),
            ("net.pipe.enqueue_ns", self.pipe_enqueue),
            ("net.pipe.enqueue_cond_ns", self.pipe_enqueue_cond),
            ("net.firewall.classify_ns.r64", self.firewall_r64),
            ("net.firewall.classify_ns.r4k", self.firewall_r4k),
            ("net.proto.frag_accept_ns", self.frag_accept),
            ("net.proto.ack_roundtrip_ns", self.ack_roundtrip),
            ("bittorrent.piece.pick_blocks_ns", self.pick_blocks),
        ]
    }

    /// Shares of a run's event-loop time, estimated as count x isolated unit cost: the event
    /// queue at its cheapest (depth 10^3, so a floor) and the fragment + ack path.
    fn estimates(&self, events: f64, fragments: f64, loop_s: f64) -> Vec<(&'static str, f64)> {
        let queue = events * self.queue_d1k * 1e-9 / loop_s;
        let proto =
            fragments * (self.frag_accept / self.frags_per_message + self.ack_roundtrip) * 1e-9
                / loop_s;
        vec![
            ("est.sim_queue_share", queue),
            ("est.net_proto_share", proto),
            ("est.unattributed_share", 1.0 - queue - proto),
        ]
    }
}

fn isolated_probes() -> Isolated {
    eprintln!("probe: isolated probes");
    let (queue_d1k, queue_cancel) = queue_probes(1_000);
    let (queue_d1m, _) = queue_probes(1_000_000);
    let message_bytes = 16 * 1024;
    let mtu = 1500;
    Isolated {
        queue_d1k,
        queue_d1m,
        queue_cancel,
        shard_window: shard_probe(0, 2_000).0,
        shard_envelope: shard_probe(500, 200).1,
        recorder_record: recorder_probe(),
        pipe_enqueue: pipe_probe(None),
        pipe_enqueue_cond: pipe_probe(Some(
            LinkCondition::none().with_burst(BurstLoss::new(0.02, 0.25, 0.9)),
        )),
        firewall_r64: firewall_probe(64, 200_000),
        firewall_r4k: firewall_probe(4096, 20_000),
        frag_accept: frag_probe(message_bytes, mtu),
        frags_per_message: f64::from(fragment_count(message_bytes, mtu)),
        ack_roundtrip: ack_probe(),
        pick_blocks: picker_probe(),
    }
}

/// The classic hold model on the event queue at a steady `depth`: pop the earliest event,
/// push one a random interval later (mean 1 s of virtual time). Returns the cost of one
/// pop + push, and the extra cost of arming and cancelling a timer per hold step (push,
/// cancel, and skipping the stale wheel entry when it surfaces).
fn queue_probes(depth: usize) -> (f64, f64) {
    const SPAN_NS: u64 = 2_000_000_000;
    const OPS: u64 = 200_000;
    let mut rng = SimRng::new(1);
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..depth {
        queue.push(SimTime::from_nanos(rng.gen_range(0..SPAN_NS)), i as u64);
    }
    let hold = |queue: &mut EventQueue<u64>, rng: &mut SimRng| {
        let (at, _, payload) = queue.pop().expect("hold model never drains");
        let next = at + SimDuration::from_nanos(rng.gen_range(0..SPAN_NS));
        queue.push(next, black_box(payload));
        at
    };
    let push_pop = measure(OPS, || {
        for _ in 0..OPS {
            hold(&mut queue, &mut rng);
        }
    });
    let with_timer = measure(OPS, || {
        for _ in 0..OPS {
            let now = hold(&mut queue, &mut rng);
            let timer = queue.push(now + SimDuration::from_millis(500), u64::MAX);
            black_box(queue.cancel(timer));
        }
    });
    (push_pop, (with_timer - push_pop).max(0.0))
}

/// A two-shard world in which each shard ticks once per lookahead window and sends
/// `burst` messages to the other shard on every tick.
struct Ticker {
    other: usize,
    burst: u32,
    period: SimDuration,
    received: u64,
}

impl ShardWorld for Ticker {
    type Msg = u64;
    type Local = ();

    fn on_message(sim: &mut ShardSim<Self>, _src: u64, msg: u64) {
        sim.model().received += msg;
    }

    fn on_local(sim: &mut ShardSim<Self>, _tick: ()) {
        let (other, burst, period) = {
            let world = sim.model();
            (world.other, world.burst, world.period)
        };
        for _ in 0..burst {
            sim.send_message(1 - other as u64, other, period, 1);
        }
        sim.schedule_local_in(period, ());
    }
}

/// Runs the ticker world on two shards for `windows` lookahead windows; returns
/// (ns per window, ns per message).
fn shard_probe(burst: u32, windows: u64) -> (f64, f64) {
    let period = SimDuration::from_millis(10);
    let mut config = ShardConfig::new(2, period, 42);
    config.deadline = SimTime::ZERO + period * windows;
    let mut counts = (1u64, 1u64);
    let ns_per_run = measure(1, || {
        let run = run_sharded(
            &config,
            |shard| Ticker {
                other: 1 - shard,
                burst,
                period,
                received: 0,
            },
            |sim| sim.schedule_local_in(period, ()),
        );
        counts = (run.windows.max(1), run.messages.max(1));
        black_box(run.worlds.iter().map(|w| w.received).sum::<u64>());
    });
    (ns_per_run / counts.0 as f64, ns_per_run / counts.1 as f64)
}

fn recorder_probe() -> f64 {
    const OPS: u64 = 1_000_000;
    let mut recorder = Recorder::new();
    let counter = recorder.counter("probe_counter");
    let histogram = recorder.histogram("probe_histogram");
    measure(OPS, || {
        for i in 0..OPS {
            recorder.add(counter, 1);
            recorder.record(histogram, black_box(i as f64 * 1e-3));
        }
    })
}

/// 16 KiB packets through a 128 kb/s pipe, spaced so the queue stays short.
fn pipe_probe(condition: Option<LinkCondition>) -> f64 {
    const OPS: u64 = 500_000;
    let mut pipe = Pipe::new(
        PipeConfig::shaped(128_000, SimDuration::from_millis(30))
            .with_queue_limit(None)
            .with_condition(condition),
    );
    let mut rng = SimRng::new(1);
    let mut now_us = 0u64;
    measure(OPS, || {
        for _ in 0..OPS {
            now_us += 1_100_000;
            black_box(pipe.enqueue(SimTime::from_micros(now_us), 16 * 1024, &mut rng));
        }
    })
}

/// Classification against `rules` never-matching rules followed by the matching pipe rule.
fn firewall_probe(rules: usize, ops: u64) -> f64 {
    let mut firewall = Firewall::new(SimDuration::from_nanos(50));
    firewall.add_dummy_rules(rules);
    let src = VirtAddr::new(10, 0, 0, 1);
    let dst = VirtAddr::new(10, 0, 0, 2);
    firewall.add_rule(Rule::pipe(
        Subnet::host(src),
        Subnet::any(),
        Direction::Out,
        PipeId(0),
    ));
    measure(ops, || {
        for _ in 0..ops {
            black_box(firewall.classify(black_box(src), dst, Direction::Out));
        }
    })
}

/// One `message_bytes` message through fragmentation and reassembly.
fn frag_probe(message_bytes: u64, mtu: u64) -> f64 {
    const OPS: u64 = 100_000;
    let mut reassembler = Reassembler::default();
    let mut message = 0u16;
    measure(OPS, || {
        for _ in 0..OPS {
            let count = fragment_count(black_box(message_bytes), mtu);
            for index in 0..count {
                black_box(reassembler.accept(message, index, count));
            }
            message = message.wrapping_add(1);
        }
    })
}

/// One fragment through send-window bookkeeping, receive tracking, the ack's wire encoding
/// and the sender's ack processing.
fn ack_probe() -> f64 {
    const OPS: u64 = 1_000_000;
    let mut window = SentWindow::default();
    let mut tracker = AckTracker::default();
    let mut seq = 0u16;
    let mut acked_bytes = 0u64;
    measure(OPS, || {
        for i in 0..OPS {
            window.on_sent(seq, 1500, SimTime::from_micros(i));
            tracker.record(seq);
            let ack = AckBitfield::decode(black_box(tracker.bitfield().encode()));
            window.on_ack(&ack, |bytes, _| acked_bytes += bytes);
            seq = seq.wrapping_add(1);
        }
        black_box(acked_bytes);
    })
}

/// Rarest-first block picking on the paper's 16 MiB torrent with 20 complete peers.
fn picker_probe() -> f64 {
    const OPS: u64 = 5_000;
    let torrent = Torrent::paper_16mb();
    let mut rng = SimRng::new(3);
    let mut pieces = PieceManager::new(torrent.clone(), false);
    let peer = Bitfield::full(torrent.num_pieces());
    for _ in 0..20 {
        pieces.add_peer_bitfield(&peer);
    }
    measure(OPS, || {
        for _ in 0..OPS {
            let picked = pieces.pick_blocks(&peer, 5, SimTime::ZERO, &mut rng);
            pieces.release_requests(&picked);
            black_box(picked);
        }
    })
}
