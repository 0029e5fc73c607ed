//! The benchmark's fixed vocabulary: its workloads and every metric it emits, with unit and
//! direction. `BENCHMARK.json` lists the same names; `bench check` fails when the two drift.

use crate::stats;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// One benchmark workload: `workloads/<name>.toml`, scenario name `bench-<name>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Why it is part of the benchmark (one line).
    pub why: &'static str,
}

/// The six workloads, in pass order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "swarm-fig10",
        why: "paper's Fig. 10 swarm at 1/48 scale: BitTorrent picker and choker over the legacy stream through shaped pipes, no fragmentation, no RPC",
    },
    Workload {
        name: "swarm-proto-lossy",
        why: "same swarm on the protocol-depth transport under burst loss: fragmentation, ack bitfields, AIMD and the link conditioner are live only here",
    },
    Workload {
        name: "gossip-wide",
        why: "256-byte rumors over 50,000 vnodes through the full net layer: per-event cost is set by per-vnode cache footprint and the event queue (the scale cliff)",
    },
    Workload {
        name: "gossip-sharded-2",
        why: "80,000 gossip nodes on 2 shards: the only multi-core path (lookahead windows, envelope merge, barriers); the five others must not move with it",
    },
    Workload {
        name: "dht-rpc",
        why: "16,000 Kademlia lookups over 20,000 nodes: endpoint lanes, RPC call and timeout tables, routing-table state; no BitTorrent, no fragmentation",
    },
    Workload {
        name: "mesh-ring",
        why: "bypass workload: bare datagram forwarding through queue, pipes and firewall only, 300,000 probes scheduled up front, so it is the RSS and set-up stress",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The scenario seeds to try for `--seed seed`, in order. A candidate whose run leaves an
/// operation incomplete is passed over, except the last, which is measured whatever it does:
/// inputs that cannot finish say nothing about speed, but a program that fails on three seeds
/// in a row fails the run (see "Inputs" in the README).
pub fn scenario_seeds(seed: u64) -> [u64; 3] {
    [0u64, 1, 2].map(|k| seed.wrapping_add(k * 7919))
}

/// An end-to-end metric (what a user of the `campaign` CLI sees).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, unit and direction.
    pub def: MetricDef,
    /// Share of the parent's median by which the metric may get worse before a change counts
    /// as a regression. The time bounds are as wide as they are because of the host, not the
    /// program: see "Noise" in the README.
    pub bound: f64,
    /// Absolute worsening (in the metric's unit) below which `compare` never says `worse`,
    /// whatever the share: the swarms' set-up is 2 ms, a quarter of which is scheduler jitter.
    pub floor: f64,
    /// How a time-boxed single-workload run reduces its samples to the one value it reports.
    /// The two run times take the fastest run: other tenants of the host only ever add time,
    /// and over ten windows in a noisy hour the minimum spread by 6-19 % on the five workloads
    /// whose work does not depend on the seed, where the median spread by 13-26 % (in a quiet
    /// hour the two are within a few points). See "Noise" in the README.
    pub reduce: fn(&[f64]) -> f64,
}

/// The four end-to-end metrics.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        def: lower("wall_s", "s"),
        bound: 0.25,
        floor: 0.0,
        reduce: stats::min,
    },
    EndToEnd {
        def: lower("cpu_s", "s"),
        bound: 0.25,
        floor: 0.0,
        reduce: stats::min,
    },
    EndToEnd {
        def: lower("peak_rss_mb", "MiB"),
        bound: 0.10,
        floor: 0.0,
        reduce: stats::median,
    },
    EndToEnd {
        def: lower("setup_s", "s"),
        bound: 0.25,
        floor: 0.010,
        reduce: stats::median,
    },
];

/// Per-layer metrics, produced by the traced run. A metric that does not apply to a workload
/// (gossip counters on a swarm, shard speed-up on a single-loop workload) reads 0 there.
pub const PER_LAYER: [MetricDef; 51] = [
    // Phase spans and report sizes.
    lower("core.dsl.parse_s", "s"),
    lower("core.scenario.validate_s", "s"),
    lower("core.deploy.deploy_s", "s"),
    lower("net.network.add_vnode_ns", "ns"),
    lower("core.scenario.setup_s", "s"),
    lower("core.scenario.run_s", "s"),
    lower("core.scenario.loop_s", "s"),
    lower("core.report.to_json_s", "s"),
    lower("core.report.from_json_s", "s"),
    lower("core.report.bytes", "B"),
    lower("bench.cli_overhead_s", "s"),
    lower("bench.trace_overhead_share", "ratio"),
    // Event loop.
    lower("sim.events_executed", "count"),
    higher("sim.events_per_s", "1/s"),
    lower("sim.ns_per_event", "ns"),
    higher("sim.sim_s_per_wall_s", "ratio"),
    // Transport counters.
    lower("net.fragments_sent", "count"),
    lower("net.retransmits", "count"),
    lower("net.selective_retransmits", "count"),
    lower("net.datagrams_dropped", "count"),
    lower("net.rpc_timeouts", "count"),
    lower("net.reassembly_timeouts", "count"),
    lower("net.retransmit_ratio", "ratio"),
    // Workload counters.
    higher("bittorrent.completed_clients", "count"),
    lower("core.gossip.rumors_sent", "count"),
    lower("core.gossip.duplicate_ratio", "ratio"),
    lower("core.gossip.missed_ratio", "ratio"),
    lower("core.dht.rpc_calls", "count"),
    lower("core.dht.rpc_retries", "count"),
    lower("core.dht.rpc_per_lookup", "ratio"),
    lower("core.dht.lookup_hops_p50", "count"),
    higher("core.mesh.probes", "count"),
    lower("core.mesh.events_per_probe", "ratio"),
    higher("sim.shard.speedup_2v1", "ratio"),
    lower("sim.shard.cpu_overhead_2v1", "ratio"),
    // Isolated probes.
    lower("sim.queue.push_pop_ns.d1k", "ns"),
    lower("sim.queue.push_pop_ns.d1m", "ns"),
    lower("sim.queue.cancel_ns", "ns"),
    lower("sim.shard.window_ns", "ns"),
    lower("sim.shard.envelope_ns", "ns"),
    lower("sim.recorder.record_ns", "ns"),
    lower("net.pipe.enqueue_ns", "ns"),
    lower("net.pipe.enqueue_cond_ns", "ns"),
    lower("net.firewall.classify_ns.r64", "ns"),
    lower("net.firewall.classify_ns.r4k", "ns"),
    lower("net.proto.frag_accept_ns", "ns"),
    lower("net.proto.ack_roundtrip_ns", "ns"),
    lower("bittorrent.piece.pick_blocks_ns", "ns"),
    // Estimates: count x isolated unit cost / loop time.
    lower("est.sim_queue_share", "ratio"),
    lower("est.net_proto_share", "ratio"),
    lower("est.unattributed_share", "ratio"),
];

/// Whether `name` is made of the characters the benchmark contract allows, starts with a
/// letter or digit and is at most 64 characters long.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|e| e.def.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(WORKLOADS.len() <= 8 && END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for e in &END_TO_END {
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.def.name);
        }
        assert!(!valid_name("") && !valid_name("-x") && !valid_name("a b") && !valid_name("é"));
    }

    #[test]
    fn scenario_seeds_start_at_the_seed_and_are_distinct() {
        assert_eq!(scenario_seeds(2006), [2006, 9925, 17844]);
        assert_eq!(scenario_seeds(u64::MAX)[1], 7918);
        assert!(workload("mesh-ring").is_some() && workload("nope").is_none());
    }
}
