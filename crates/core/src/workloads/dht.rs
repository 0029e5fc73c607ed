//! Kademlia-style iterative DHT lookups as a [`Workload`] — the proof workload of the
//! session/lane/RPC transport API.
//!
//! Every node owns a 64-bit id in an XOR metric space and a static routing table shaped the way
//! Kademlia's buckets are: for each distance prefix (bucket) up to [`K`] known peers. The table
//! is stored as a *bucket directory* — per node, the range of the globally sorted id list that
//! each bucket covers (≈ log₂ n ranges), its `K` entries sampled evenly from the range when
//! read — and `FIND_NODE` is served from the target's bucket outward, which is XOR-distance
//! order. A *lookup* picks a random target key and iteratively queries the [`ALPHA`] closest
//! known nodes with `FIND_NODE` RPCs ([`p2plab_net::rpc`]: unreliable datagrams, a flat 2 s
//! [`rpc::TIMEOUT`], bounded retries); each response returns the responder's `K` closest known
//! peers, which are merged into the candidate shortlist. The lookup terminates when the `K`
//! closest candidates have all answered (or failed), exactly like the iterative procedure of
//! the Kademlia paper, whose α = 3 and k = 8 are system-wide constants here too; a settled
//! lookup drops its shortlist, and its [`LookupRecord`] stays in the world only until the next
//! sample records it.
//!
//! Measured quantities, recorded through the run's [`Recorder`] per the metrics convention:
//! hop-count and latency histograms (`lookup_hops`, `lookup_latency_secs`), RPC traffic
//! counters, and the fraction of lookups that located the globally closest node to their
//! target — the correctness criterion of an iterative lookup.

use crate::adversary::{AdversaryRoster, InvariantReport};
use crate::deploy::Deployment;
use crate::scenario::dsl::{DslError, Keys};
use crate::scenario::{ArrivalSchedule, ArrivalSpec, ShardedOutcome, Workload};
use p2plab_net::rpc::{self, RpcHost, RpcOutcome, RpcPayload, RpcStats, RpcTable, RpcTimeout};
use p2plab_net::{
    Misbehavior, NetEvent, NetHost, NetSim, Network, SocketAddr, TransportEvent, VNodeId,
};
use p2plab_sim::{
    splitmix64, Counter, HistogramId, Recorder, RunOutcome, SimDuration, SimRng, SimTime,
};

/// The UDP-like port the DHT protocol runs on.
pub const DHT_PORT: u16 = 4200;

/// Wire bytes of a `FIND_NODE` request (target key + header).
const FIND_NODE_BYTES: u64 = 40;
/// Wire bytes of a `NEIGHBORS` response: base (header + responder id) + one entry per
/// returned peer.
const NEIGHBORS_BASE_BYTES: u64 = 16;
const NEIGHBOR_ENTRY_BYTES: u64 = 18;

/// Message bodies of the lookup protocol, carried inside [`RpcPayload`].
#[derive(Debug, Clone)]
pub enum DhtBody {
    /// "Return your [`K`] closest known peers to `target`."
    FindNode {
        /// The key being looked up.
        target: u64,
    },
    /// The responder's closest known peers, as `(node id, address)` pairs.
    Neighbors {
        /// The node id of whoever served the request. Requesters check it against the
        /// shortlist candidate they addressed: a mismatch means the candidate entry was
        /// fabricated (the real node at that address answers under its true id), so the
        /// reply is rejected instead of merged.
        responder: u64,
        /// Up to [`K`] peers, closest to the requested target first.
        peers: Vec<(u64, SocketAddr)>,
    },
}

/// Lookup parallelism: concurrent in-flight `FIND_NODE` RPCs per lookup (Kademlia's α).
pub const ALPHA: usize = 3;
/// Closeness-set size (Kademlia's k): routing-bucket capacity, peers per response, and the
/// number of closest candidates that must settle before a lookup terminates.
pub const K: usize = 8;

/// Description of a DHT lookup experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct DhtLookupSpec {
    /// Number of DHT nodes.
    pub nodes: usize,
    /// Number of iterative lookups performed (the scenario's participants).
    pub lookups: usize,
    /// Spacing of the default lookup arrival ramp.
    pub lookup_interval: SimDuration,
}

impl DhtLookupSpec {
    /// A lookup experiment over `nodes` nodes: one lookup per node, lookups starting 100 ms
    /// apart.
    pub fn new(nodes: usize) -> DhtLookupSpec {
        assert!(nodes >= 2, "a DHT needs at least two nodes");
        DhtLookupSpec {
            nodes,
            lookups: nodes,
            lookup_interval: SimDuration::from_millis(100),
        }
    }

    /// The `[workload.dht-lookup]` keys of a scenario file; absent ones keep
    /// [`DhtLookupSpec::new`]'s defaults — including its one-lookup-per-node rule, applied
    /// here to a node count that comes from a file.
    /// Values that would panic a run or let it end without an RPC are rejected at their key.
    pub(crate) fn keys(k: &mut Keys, spec: &mut DhtLookupSpec) -> Result<(), DslError> {
        let nodes = k.req_checked("nodes", &mut spec.nodes, |&n| match n {
            0 | 1 => Err(format!("a DHT needs at least two nodes, got {n}")),
            _ => Ok(()),
        })?;
        if nodes {
            spec.lookups = spec.nodes;
        }
        k.checked("lookups", &mut spec.lookups, |&n| match n {
            0 => Err("a lookup wave needs at least one lookup, got 0".to_string()),
            _ => Ok(()),
        })?;
        k.opt("lookup_interval", &mut spec.lookup_interval)?;
        Ok(())
    }
}

/// The globally XOR-closest id to `target` in a sorted id list: greedy longest-common-prefix
/// descent (each bit level keeps the contiguous sub-range whose bit matches the target's, which
/// is exactly the binary-trie walk Kademlia performs).
fn xor_closest(sorted: &[(u64, usize)], target: u64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let mut lo = 0usize;
    let mut hi = sorted.len();
    for bit in (0..64).rev() {
        if hi - lo <= 1 {
            break;
        }
        let mask = 1u64 << bit;
        let split = lo + sorted[lo..hi].partition_point(|&(id, _)| id & mask == 0);
        if target & mask != 0 {
            if split < hi {
                lo = split;
            }
        } else if split > lo {
            hi = split;
        }
    }
    sorted[lo].0
}

/// Progress state of one shortlist candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CandState {
    Unqueried,
    Inflight,
    Responded,
    Failed,
}

/// One known node on a lookup's shortlist, ordered by XOR distance to the target.
#[derive(Debug, Clone)]
struct Candidate {
    dist: u64,
    id: u64,
    addr: SocketAddr,
    /// Hops from the lookup origin to whoever told us about this node (origin's table = 1).
    depth: u32,
    state: CandState,
}

/// What a `FIND_NODE` call remembers: the lookup it serves, the candidate it asked and that
/// candidate's depth.
pub struct Query {
    li: usize,
    cand_id: u64,
    depth: u32,
}

/// One iterative lookup: in progress, or settled with its shortlist dropped.
struct Lookup {
    target: u64,
    origin: usize,
    true_closest: u64,
    started: SimTime,
    /// Empty once the lookup is `done`.
    shortlist: Vec<Candidate>,
    inflight: usize,
    rpcs: u32,
    timeouts: u32,
    done: bool,
}

impl Lookup {
    /// The monitor's safety check over lookup `li`: every candidate it accepted an answer from
    /// is a real node of the id space. Fabricated "closer" ids are rejected by responder
    /// validation before they can reach the Responded state, so `found_closest` can never name
    /// a node that does not exist — a lookup converges to a real closest node or fails cleanly.
    fn check_accepted(&self, li: usize, sorted_ids: &[(u64, usize)], inv: &mut InvariantReport) {
        for c in &self.shortlist {
            if c.state != CandState::Responded {
                continue;
            }
            inv.check(
                sorted_ids
                    .binary_search_by_key(&c.id, |&(id, _)| id)
                    .is_ok(),
                || {
                    format!(
                        "lookup {li} accepted a reply from fabricated node {:#x}",
                        c.id
                    )
                },
            );
        }
    }
}

/// The outcome of one finished lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LookupRecord {
    /// Hops from the origin to the closest node that answered (0 when the origin itself is
    /// closest, or when nobody answered).
    pub hops: u32,
    /// Wall time of the whole iterative procedure (spanning RPC retries).
    pub latency: SimDuration,
    /// Whether the closest answering node is the globally XOR-closest node to the target.
    pub found_closest: bool,
    /// `FIND_NODE` calls issued.
    pub rpcs: u32,
    /// Calls that timed out (after their bounded retries).
    pub timeouts: u32,
}

/// The DHT world: the emulated network, the id space and the bucket directory, the lookups
/// and the RPC state. DHT node `i` runs on `VNodeId(i)` (the deployment's identity rule, see
/// [`mod@crate::deploy`]), so every per-node table below is indexed by `vnode.0`.
pub struct DhtWorld {
    /// The emulated network.
    pub net: Network,
    /// Node ids.
    ids: Vec<u64>,
    /// `(id, node index)` sorted by id — the ground truth for [`xor_closest`], and what the
    /// bucket directory's ranges index.
    sorted_ids: Vec<(u64, usize)>,
    /// The static routing tables as a bucket directory: node `x`'s table is
    /// `buckets[bucket_start[x]..bucket_start[x + 1]]`, whose entry `j` is the `sorted_ids`
    /// range `lo..hi` of the ids that differ from `x`'s first at bit `63 − j`. Entries stop
    /// where `x` is alone in its prefix range, since every lower bucket is empty. A bucket's
    /// up-to-[`K`] routing entries are sampled when read ([`DhtWorld::push_bucket`]).
    buckets: Vec<(u32, u32)>,
    bucket_start: Vec<u32>,
    /// DHT addresses.
    addrs: Vec<SocketAddr>,
    /// Application-level deviations byzantine nodes apply when serving (noop when honest).
    misbehavior: Misbehavior,
    /// Per-node fabrication streams: `Some` exactly for byzantine nodes, and boxed, so an
    /// honest node's slot is one null pointer. Draws never touch the simulation's global
    /// stream, so honest runs execute the frozen event sequence.
    serve_rng: Vec<Option<Box<SimRng>>>,
    /// When each lookup starts (the arrival schedule): lookup `k` starts at `starts[k]` under
    /// queue rank `start_rank + k`, armed by lookup `k - 1`'s start.
    starts: Vec<SimTime>,
    start_rank: u64,
    /// Every lookup started, by start order; a settled one keeps no shortlist.
    lookups: Vec<Lookup>,
    /// Lookups settled since the workload's last sample, in completion order: the sample
    /// drains them into the run's histograms and counters, which keep the run's copy.
    pub records: Vec<LookupRecord>,
    /// Lookups settled so far.
    settled: usize,
    /// The monitor's [`Lookup::check_accepted`] tally over settled lookups, taken as each
    /// settles (its shortlist is dropped right after): `Some` exactly in adversarial runs.
    settled_checks: Option<InvariantReport>,
    rpc: RpcTable<DhtWorld>,
}

impl DhtWorld {
    fn new(mut net: Network, spec: &DhtLookupSpec, roster: Option<&AdversaryRoster>) -> DhtWorld {
        let n = spec.nodes;
        // SplitMix64 is a bijection: every node index gets a distinct, well-spread id.
        let ids: Vec<u64> = (0..n as u64).map(splitmix64).collect();
        let addrs: Vec<SocketAddr> = (0..n)
            .map(|i| SocketAddr::new(net.addr_of(VNodeId(i)), DHT_PORT))
            .collect();
        let mut sorted_ids: Vec<(u64, usize)> = ids.iter().copied().zip(0..n).collect();
        sorted_ids.sort_unstable();
        // Bucketed routing tables from global knowledge (the emulation studies lookups, not
        // table maintenance): for node `x` and bit `b`, the ids differing from `x` first at bit
        // `b` form one contiguous range of the sorted order. One prefix descent per node (the
        // walk `xor_closest` does) records them, highest bit first: at each bit the half
        // without `x` is that bit's bucket, until `x` is alone in its range.
        assert!(
            n <= (u32::MAX / 64) as usize,
            "{n} DHT nodes overflow the bucket directory"
        );
        let mut buckets = Vec::new();
        let mut bucket_start = Vec::with_capacity(n + 1);
        bucket_start.push(0);
        for &own in &ids {
            let (mut lo, mut hi) = (0, n);
            for bit in (0..64).rev() {
                if hi - lo <= 1 {
                    break;
                }
                let mask = 1u64 << bit;
                let split = lo + sorted_ids[lo..hi].partition_point(|&(id, _)| id & mask == 0);
                if own & mask == 0 {
                    buckets.push((split as u32, hi as u32));
                    hi = split;
                } else {
                    buckets.push((lo as u32, split as u32));
                    lo = split;
                }
            }
            bucket_start.push(buckets.len() as u32);
        }
        // Byzantine members: wire tampering on the sender path, plus a private per-node
        // stream for serve-side fabrication (split off the wire stream so the two never
        // correlate).
        let serve_rng = (0..n)
            .map(|i| {
                roster
                    .filter(|r| r.contains(i))
                    .map(|r| Box::new(r.wire_rng(i).split("dht-serve")))
            })
            .collect();
        if let Some(r) = roster {
            for &m in r.members() {
                net.set_tamper(VNodeId(m), r.tamper, r.wire_rng(m));
                net.mark_byzantine(VNodeId(m));
            }
        }
        DhtWorld {
            net,
            ids,
            sorted_ids,
            buckets,
            bucket_start,
            addrs,
            misbehavior: roster.map(|r| r.flags).unwrap_or_default(),
            serve_rng,
            starts: Vec::new(),
            start_rank: 0,
            lookups: Vec::with_capacity(spec.lookups),
            records: Vec::new(),
            settled: 0,
            settled_checks: roster.map(|_| InvariantReport::new()),
            rpc: RpcTable::new(),
        }
    }

    /// Number of DHT nodes.
    pub fn nodes(&self) -> usize {
        self.ids.len()
    }

    /// The RPC layer's counters.
    pub fn rpc_stats(&self) -> RpcStats {
        self.rpc.stats()
    }

    /// The [`K`] closest entries of `node`'s routing table to `target`, closest first. Runs on
    /// every `FIND_NODE` serve, so it reads buckets in distance order instead of sorting the
    /// table. With `h` the highest bit at which `target` differs from the node's id, bucket `h`
    /// lies wholly below distance 2^h, the buckets below `h` all within [2^h, 2^(h+1)), and
    /// bucket `b > h` within [2^b, 2^(b+1)). Distances to one target are distinct, so reading
    /// bucket `h`, then the buckets below it, then `h + 1, h + 2, …` until `K` entries are in
    /// hand yields exactly the K smallest of the whole table, in order.
    fn closest_known(&self, node: usize, target: u64) -> Vec<(u64, SocketAddr)> {
        let dir =
            &self.buckets[self.bucket_start[node] as usize..self.bucket_start[node + 1] as usize];
        let mut out = Vec::with_capacity(K);
        // Bucket h's directory entry: 64, past every entry, when the target is the node's id.
        let jh = (self.ids[node] ^ target).leading_zeros() as usize;
        if jh < dir.len() {
            self.take_closest(&dir[jh..=jh], target, &mut out);
            if out.len() < K {
                self.take_closest(&dir[jh + 1..], target, &mut out);
            }
        }
        for j in (0..jh.min(dir.len())).rev() {
            if out.len() >= K {
                break;
            }
            self.take_closest(&dir[j..=j], target, &mut out);
        }
        out
    }

    /// Appends the entries of `buckets` — all farther from `target` than whatever `out` holds
    /// — keeping the closest ones `out` has room for, in distance order.
    fn take_closest(&self, buckets: &[(u32, u32)], target: u64, out: &mut Vec<(u64, SocketAddr)>) {
        let start = out.len();
        for &bucket in buckets {
            self.push_bucket(bucket, out);
        }
        let room = K - start;
        if out.len() - start > room {
            out[start..].select_nth_unstable_by_key(room - 1, |&(id, _)| id ^ target);
            out.truncate(K);
        }
        out[start..].sort_unstable_by_key(|&(id, _)| id ^ target);
    }

    /// Appends a bucket's routing entries: up to [`K`] of the ids in its `sorted_ids` range,
    /// spread evenly over it, so tables are diverse without any per-node randomness.
    fn push_bucket(&self, (lo, hi): (u32, u32), out: &mut Vec<(u64, SocketAddr)>) {
        let (lo, len) = (lo as usize, (hi - lo) as usize);
        let take = len.min(K);
        out.extend((0..take).map(|t| {
            let (id, idx) = self.sorted_ids[lo + t * len / take];
            (id, self.addrs[idx])
        }));
    }

    /// Settles lookup `li` at `now`: counts it and appends its [`LookupRecord`], then — the
    /// monitor's check taken first in adversarial runs — drops its shortlist.
    fn finish(&mut self, li: usize, now: SimTime) {
        let lookup = &mut self.lookups[li];
        lookup.done = true;
        let closest_responded = lookup
            .shortlist
            .iter()
            .find(|c| c.state == CandState::Responded);
        // The lookup succeeds when it located the globally closest node to the target — either
        // the closest answering peer, or the origin itself (a node never appears on its own
        // shortlist, yet it can be the closest node in the whole id space).
        let own_id = self.ids[lookup.origin];
        let (hops, found_closest) = match closest_responded {
            Some(c) => (
                c.depth,
                c.id == lookup.true_closest || own_id == lookup.true_closest,
            ),
            None => (0, own_id == lookup.true_closest),
        };
        self.settled += 1;
        self.records.push(LookupRecord {
            hops,
            latency: now - lookup.started,
            found_closest,
            rpcs: lookup.rpcs,
            timeouts: lookup.timeouts,
        });
        if let Some(inv) = &mut self.settled_checks {
            lookup.check_accepted(li, &self.sorted_ids, inv);
        }
        lookup.shortlist = Vec::new();
    }
}

/// The timers of a [`DhtWorld`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhtTimer {
    /// Lookup `k` of the arrival schedule starts, and arms lookup `k + 1`'s start.
    StartLookup(usize),
    /// A `FIND_NODE` call's attempt timed out.
    Rpc(RpcTimeout),
}

// The lookup index must not widen the DHT's queue slot.
const _: () = assert!(std::mem::size_of::<NetEvent<RpcPayload<DhtBody>, DhtTimer>>() <= 120);

impl From<RpcTimeout> for DhtTimer {
    fn from(timeout: RpcTimeout) -> DhtTimer {
        DhtTimer::Rpc(timeout)
    }
}

impl NetHost for DhtWorld {
    type Payload = RpcPayload<DhtBody>;
    type Timer = DhtTimer;

    fn network(&mut self) -> &mut Network {
        &mut self.net
    }

    fn on_transport_event(
        sim: &mut NetSim<Self>,
        node: VNodeId,
        event: TransportEvent<RpcPayload<DhtBody>>,
    ) {
        // All DHT traffic is RPC; anything the dispatcher hands back is ignored.
        let _ = rpc::dispatch(sim, node, event);
    }

    fn on_timer(sim: &mut NetSim<Self>, timer: DhtTimer) {
        match timer {
            DhtTimer::StartLookup(k) => {
                start_lookup(sim);
                arm_start(sim, k + 1);
            }
            DhtTimer::Rpc(timeout) => rpc::on_timeout(sim, timeout),
        }
    }
}

impl RpcHost for DhtWorld {
    type Body = DhtBody;
    type Context = Query;

    fn rpc_table(&mut self) -> &mut RpcTable<DhtWorld> {
        &mut self.rpc
    }

    fn serve(
        sim: &mut NetSim<Self>,
        node: VNodeId,
        _from: SocketAddr,
        _port: u16,
        body: DhtBody,
    ) -> Option<(DhtBody, u64)> {
        let DhtBody::FindNode { target } = body else {
            return None; // a Neighbors body is never a request
        };
        let world = sim.world_mut();
        let idx = node.0;
        let responder = *world.ids.get(idx)?;
        if world.serve_rng[idx].is_some() {
            let flags = world.misbehavior;
            if flags.withhold_serves {
                return None; // the requester's RPC retries, then times out
            }
            if flags.equivocate || flags.garbage_advertise || flags.corrupt_data {
                // Fabricate a shortlist-topping reply: ids a few bits away from the target
                // (XOR-closer than any real node, almost surely), all pointing back at this
                // node's own address. Each serve draws fresh lies from the node's private
                // stream, so different requesters receive different fabrications.
                let own_addr = world.addrs[idx];
                let rng = world.serve_rng[idx].as_mut().expect("checked above");
                let mut peers: Vec<(u64, SocketAddr)> = (0..K)
                    .map(|_| (target ^ rng.gen_range(1..1024), own_addr))
                    .collect();
                peers.sort_unstable_by_key(|&(id, _)| id ^ target);
                peers.dedup_by_key(|&mut (id, _)| id);
                let size = NEIGHBORS_BASE_BYTES + NEIGHBOR_ENTRY_BYTES * peers.len() as u64;
                return Some((DhtBody::Neighbors { responder, peers }, size));
            }
            // Purely wire-level behaviors (silent-drop, delay, amplify) serve honestly; the
            // tampering happens on this node's transmit path.
        }
        let peers = world.closest_known(idx, target);
        let size = NEIGHBORS_BASE_BYTES + NEIGHBOR_ENTRY_BYTES * peers.len() as u64;
        Some((DhtBody::Neighbors { responder, peers }, size))
    }

    fn on_outcome(sim: &mut NetSim<Self>, query: Query, outcome: RpcOutcome<DhtBody>) {
        on_find_node_done(sim, query, outcome);
    }
}

/// Schedules lookup `k`'s start, if the arrival schedule has one, at its arrival instant and
/// its reserved rank: the starts are one pending event at a time, in the order scheduling
/// every one up front would give.
fn arm_start(sim: &mut NetSim<DhtWorld>, k: usize) {
    let now = sim.now();
    let world = sim.world();
    let Some(&at) = world.starts.get(k) else {
        return;
    };
    debug_assert!(
        at >= now,
        "lookup {k} would start at {at:?}, before {now:?}"
    );
    let rank = world.start_rank + k as u64;
    sim.schedule_event_ranked(at, rank, NetEvent::Timer(DhtTimer::StartLookup(k)));
}

/// Starts one lookup from a randomly drawn origin toward a randomly drawn target key.
fn start_lookup(sim: &mut NetSim<DhtWorld>) {
    let now = sim.now();
    let (origin, target) = {
        let n = sim.world().nodes();
        let origin = sim.rng().gen_range(0..n);
        let target = sim.rng().gen_range(0..=u64::MAX);
        (origin, target)
    };
    let world = sim.world_mut();
    let true_closest = xor_closest(&world.sorted_ids, target);
    let mut shortlist: Vec<Candidate> = world
        .closest_known(origin, target)
        .into_iter()
        .map(|(id, addr)| Candidate {
            dist: id ^ target,
            id,
            addr,
            depth: 1,
            state: CandState::Unqueried,
        })
        .collect();
    shortlist.sort_unstable_by_key(|c| c.dist);
    let li = world.lookups.len();
    world.lookups.push(Lookup {
        target,
        origin,
        true_closest,
        started: now,
        shortlist,
        inflight: 0,
        rpcs: 0,
        timeouts: 0,
        done: false,
    });
    advance(sim, li);
}

/// Drives lookup `li`: issues `FIND_NODE` RPCs to unqueried candidates among the [`K`] closest
/// (up to [`ALPHA`] in flight), and finishes once those candidates have all settled.
fn advance(sim: &mut NetSim<DhtWorld>, li: usize) {
    loop {
        enum Step {
            Query(usize),
            Finish,
            Wait,
        }
        let step = {
            let world = sim.world();
            let lookup = &world.lookups[li];
            if lookup.done {
                return;
            }
            // The next unqueried candidate among the K closest that have not failed.
            let mut next = None;
            let mut nonfailed = 0;
            for (ci, c) in lookup.shortlist.iter().enumerate() {
                if c.state == CandState::Failed {
                    continue;
                }
                nonfailed += 1;
                if c.state == CandState::Unqueried {
                    next = Some(ci);
                    break;
                }
                if nonfailed >= K {
                    break;
                }
            }
            match next {
                Some(ci) if lookup.inflight < ALPHA => Step::Query(ci),
                Some(_) => Step::Wait,
                None if lookup.inflight == 0 => Step::Finish,
                None => Step::Wait,
            }
        };
        match step {
            Step::Wait => return,
            Step::Finish => {
                let now = sim.now();
                sim.world_mut().finish(li, now);
                return;
            }
            Step::Query(ci) => {
                let (origin_vnode, addr, cand_id, depth, target) = {
                    let world = sim.world_mut();
                    let origin_vnode = VNodeId(world.lookups[li].origin);
                    let lookup = &mut world.lookups[li];
                    let c = &mut lookup.shortlist[ci];
                    c.state = CandState::Inflight;
                    lookup.inflight += 1;
                    (origin_vnode, c.addr, c.id, c.depth, lookup.target)
                };
                let sent = rpc::call(
                    sim,
                    origin_vnode,
                    DHT_PORT,
                    addr,
                    DhtBody::FindNode { target },
                    FIND_NODE_BYTES,
                    Query { li, cand_id, depth },
                );
                match sent {
                    // Only requests that actually left count toward the lookup's RPC tally.
                    Ok(_) => sim.world_mut().lookups[li].rpcs += 1,
                    Err(_) => {
                        // Unroutable candidate (cannot happen with addresses from real
                        // tables, but fail it rather than wedge the lookup).
                        let lookup = &mut sim.world_mut().lookups[li];
                        lookup.inflight -= 1;
                        if let Some(c) = lookup.shortlist.iter_mut().find(|c| c.id == cand_id) {
                            c.state = CandState::Failed;
                        }
                    }
                }
            }
        }
    }
}

/// A `FIND_NODE` call completed: merge the response's peers into the shortlist (or fail the
/// candidate) and keep driving the lookup.
fn on_find_node_done(sim: &mut NetSim<DhtWorld>, query: Query, outcome: RpcOutcome<DhtBody>) {
    let Query { li, cand_id, depth } = query;
    {
        let world = sim.world_mut();
        let own_id = world.ids[world.lookups[li].origin];
        let lookup = &mut world.lookups[li];
        lookup.inflight -= 1;
        let state = match &outcome {
            // A reply claiming a responder id other than the candidate we addressed: the
            // candidate entry was fabricated (or the reply forged). Fail the candidate and
            // never merge its peers — this is what keeps fabricated "closer" nodes out of
            // every lookup's accepted set.
            RpcOutcome::Reply {
                body: DhtBody::Neighbors { responder, .. },
                ..
            } if *responder != cand_id => CandState::Failed,
            RpcOutcome::Reply { .. } => CandState::Responded,
            RpcOutcome::TimedOut { .. } => {
                lookup.timeouts += 1;
                CandState::Failed
            }
        };
        if let Some(c) = lookup.shortlist.iter_mut().find(|c| c.id == cand_id) {
            c.state = state;
        }
        if let (
            CandState::Responded,
            RpcOutcome::Reply {
                body: DhtBody::Neighbors { peers, .. },
                ..
            },
        ) = (state, outcome)
        {
            for (id, addr) in peers {
                if id == own_id {
                    continue;
                }
                // Distance to the target is injective in the id, so the insertion point is
                // also where an already-listed copy of `id` would sit.
                let dist = id ^ lookup.target;
                let pos = lookup.shortlist.partition_point(|c| c.dist < dist);
                if lookup.shortlist.get(pos).is_some_and(|c| c.dist == dist) {
                    continue;
                }
                lookup.shortlist.insert(
                    pos,
                    Candidate {
                        dist,
                        id,
                        addr,
                        depth: depth + 1,
                        state: CandState::Unqueried,
                    },
                );
            }
        }
    }
    advance(sim, li);
}

/// Metric handles registered by [`DhtLookupWorkload::setup_metrics`].
#[derive(Debug, Clone, Copy)]
struct DhtMetrics {
    hops: HistogramId,
    latency: HistogramId,
    rpc_calls: Counter,
    rpc_retries: Counter,
    found_closest: Counter,
    lookups_missed: Counter,
}

/// The iterative-lookup workload over the scenario's topology.
#[derive(Debug, Clone)]
pub struct DhtLookupWorkload {
    spec: DhtLookupSpec,
    metrics: Option<DhtMetrics>,
    roster: Option<AdversaryRoster>,
}

impl DhtLookupWorkload {
    /// Wraps a lookup experiment description as a workload.
    pub fn new(spec: DhtLookupSpec) -> DhtLookupWorkload {
        DhtLookupWorkload {
            spec,
            metrics: None,
            roster: None,
        }
    }

    /// The experiment description this workload runs.
    pub fn config(&self) -> &DhtLookupSpec {
        &self.spec
    }
}

impl Workload for DhtLookupWorkload {
    type World = DhtWorld;
    type Event = NetEvent<RpcPayload<DhtBody>, DhtTimer>;

    const KIND: &'static str = "dht-lookup";

    fn vnodes_required(&self) -> usize {
        self.spec.nodes
    }

    fn participants(&self) -> usize {
        self.spec.lookups
    }

    fn adversary_population(&self) -> usize {
        // Participants are lookups, but what misbehaves is a *node* — byzantine indices
        // address the id space, not the arrival schedule.
        self.spec.nodes
    }

    fn set_adversary(&mut self, roster: &AdversaryRoster) -> Result<(), String> {
        self.roster = Some(roster.clone());
        Ok(())
    }

    fn check_invariants(&self, world: &DhtWorld, stop: &ShardedOutcome) -> InvariantReport {
        // Safety: every accepted reply came from a real node. Settled lookups were checked as
        // they settled and hold no shortlist any more; the open ones are checked here.
        let mut inv = world.settled_checks.clone().unwrap_or_default();
        inv.byzantine_msgs_sent = world.net.stats().byzantine_msgs_sent;
        for (li, lookup) in world.lookups.iter().enumerate() {
            lookup.check_accepted(li, &world.sorted_ids, &mut inv);
        }
        // Liveness: bounded RPC retries guarantee every shortlist settles, so a drained run
        // must have finished every scheduled lookup — byzantine nodes may make lookups miss
        // the true closest node, but they can never wedge one.
        if stop.outcome == RunOutcome::Drained {
            inv.check(world.settled >= self.spec.lookups, || {
                format!(
                    "only {}/{} lookups settled in a drained run",
                    world.settled, self.spec.lookups
                )
            });
        }
        inv
    }

    fn default_arrivals(&self) -> ArrivalSpec {
        ArrivalSpec::ramp(SimDuration::ZERO, self.spec.lookup_interval)
    }

    fn build_world(&mut self, deployment: Deployment) -> DhtWorld {
        DhtWorld::new(deployment.net, &self.spec, self.roster.as_ref())
    }

    fn on_deployed(&mut self, _sim: &mut NetSim<DhtWorld>) {
        // Routing tables are static; nothing warms up before the first lookup.
    }

    fn schedule_arrivals(&mut self, sim: &mut NetSim<DhtWorld>, arrivals: &ArrivalSchedule) {
        // The schedule is non-decreasing, so each start can arm the next.
        let start_rank = sim.reserve_ranks(arrivals.len() as u64);
        let world = sim.world_mut();
        world.starts = arrivals.times().to_vec();
        world.start_rank = start_rank;
        arm_start(sim, 0);
    }

    fn network(world: &DhtWorld) -> &Network {
        &world.net
    }

    fn setup_metrics(&mut self, rec: &mut Recorder) {
        self.metrics = Some(DhtMetrics {
            hops: rec.histogram("lookup_hops"),
            latency: rec.histogram("lookup_latency_secs"),
            rpc_calls: rec.counter("rpc_calls"),
            rpc_retries: rec.counter("rpc_retries"),
            found_closest: rec.counter("lookups_found_closest"),
            lookups_missed: rec.counter("lookups_missed"),
        });
    }

    fn sample(&mut self, _now: SimTime, world: &mut DhtWorld, rec: &mut Recorder) -> f64 {
        // The histograms and counters are the run's copy of the records: the world keeps none
        // once recorded.
        if let Some(m) = self.metrics {
            for r in world.records.drain(..) {
                rec.record(m.hops, r.hops as f64);
                rec.record(m.latency, r.latency.as_secs_f64());
                if r.found_closest {
                    rec.add(m.found_closest, 1);
                } else {
                    rec.add(m.lookups_missed, 1);
                }
            }
            let stats = world.rpc_stats();
            rec.set_total(m.rpc_calls, stats.calls);
            rec.set_total(m.rpc_retries, stats.retries);
        }
        world.settled as f64
    }

    fn is_complete(&self, world: &DhtWorld) -> bool {
        world.settled >= self.spec.lookups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryPlan;
    use crate::deploy::{deploy, DeploymentSpec};
    use crate::report::RunReport;
    use crate::scenario::{run_scenario, ScenarioSpec};
    use p2plab_net::{AccessLinkClass, NetworkConfig, TopologySpec};

    fn lan(n: usize) -> TopologySpec {
        TopologySpec::uniform(
            "lan",
            n,
            AccessLinkClass::symmetric(50_000_000, SimDuration::from_millis(5)),
        )
    }

    fn scenario(name: &str, spec: &DhtLookupSpec) -> ScenarioSpec {
        ScenarioSpec {
            deployment: DeploymentSpec::new(4),
            deadline: spec.lookup_interval * (spec.lookups as u64 - 1)
                + SimDuration::from_secs(300),
            sample_interval: SimDuration::from_secs(1),
            seed: 7,
            ..ScenarioSpec::new(name, lan(spec.nodes))
        }
    }

    /// A freshly built world of `workload`'s size on a 4-machine LAN, before any lookup.
    fn world_of(workload: &mut DhtLookupWorkload) -> DhtWorld {
        let topology = lan(workload.spec.nodes);
        let deployment = deploy(&topology, DeploymentSpec::new(4), NetworkConfig::default());
        workload.build_world(deployment.unwrap())
    }

    /// The reference for [`DhtWorld::closest_known`]'s table: `node`'s routing table materialised
    /// the way it was before the bucket directory — per bit, the ids first differing from the
    /// node's at that bit found by two binary searches over the sorted id list, up to `K` of
    /// them sampled evenly.
    fn materialised_table(world: &DhtWorld, node: usize) -> Vec<(u64, SocketAddr)> {
        let sorted = &world.sorted_ids;
        let own = world.ids[node];
        let mut table = Vec::new();
        for bit in 0..64 {
            let mask = 1u64 << bit;
            let lo_id = (own ^ mask) & !(mask - 1);
            let hi_id = lo_id | (mask - 1);
            let lo = sorted.partition_point(|&(id, _)| id < lo_id);
            let hi = sorted.partition_point(|&(id, _)| id <= hi_id);
            let (len, take) = (hi - lo, (hi - lo).min(K));
            for t in 0..take {
                let (id, idx) = sorted[lo + t * len / take];
                let addr = SocketAddr::new(world.net.addr_of(VNodeId(idx)), DHT_PORT);
                table.push((id, addr));
            }
        }
        table
    }

    /// Checks `closest_known` for `node` against the [`K`] XOR-closest entries
    /// of the materialised table, by a full sort, toward the node's own id, another node's id,
    /// one either side of each, and a random key.
    fn assert_closest_known_matches(world: &DhtWorld, node: usize, rng: &mut SimRng) {
        let table = materialised_table(world, node);
        let own = world.ids[node];
        let other = world.ids[rng.gen_range(0..world.nodes())];
        let random = rng.gen_range(0..=u64::MAX);
        for target in [own, own.wrapping_add(1), own.wrapping_sub(1), other]
            .into_iter()
            .chain([other.wrapping_add(1), other.wrapping_sub(1), random])
        {
            let mut closest = table.clone();
            closest.sort_unstable_by_key(|&(id, _)| id ^ target);
            closest.truncate(K);
            assert_eq!(
                world.closest_known(node, target),
                closest,
                "n {} node {node} target {target:#x}",
                world.nodes(),
            );
        }
    }

    #[test]
    fn closest_known_matches_the_materialised_table() {
        let mut rng = SimRng::new(25);
        // Every node of small worlds, where bucket boundaries are densest and buckets hold
        // fewer than K ids…
        for n in 2..=40 {
            let world = world_of(&mut DhtLookupWorkload::new(DhtLookupSpec::new(n)));
            for node in 0..n {
                assert_closest_known_matches(&world, node, &mut rng);
            }
        }
        // …and sampled nodes up to 600 nodes, where buckets overflow K.
        for _ in 0..12 {
            let n = rng.gen_range(41..=600);
            let world = world_of(&mut DhtLookupWorkload::new(DhtLookupSpec::new(n)));
            for _ in 0..40 {
                let node = rng.gen_range(0..n);
                assert_closest_known_matches(&world, node, &mut rng);
            }
        }
    }

    /// The benchmark's size (`dht-rpc`: 20,000 nodes), every node; run in release by CI.
    #[test]
    #[ignore = "20,000 nodes: run in release"]
    fn closest_known_matches_the_materialised_table_at_benchmark_scale() {
        let world = world_of(&mut DhtLookupWorkload::new(DhtLookupSpec::new(20_000)));
        let mut rng = SimRng::new(20_000);
        for node in 0..world.nodes() {
            assert_closest_known_matches(&world, node, &mut rng);
        }
    }

    #[test]
    fn monitor_reports_a_fabricated_accept_whether_its_lookup_settled_or_not() {
        let spec = DhtLookupSpec::new(16);
        let mut workload = DhtLookupWorkload::new(spec.clone());
        let plan = AdversaryPlan::new(0.25, &["equivocate"]);
        let roster = plan.resolve(7, spec.nodes).unwrap().unwrap();
        workload.set_adversary(&roster).unwrap();
        let mut world = world_of(&mut workload);
        let fabricated = world.ids[3] ^ 1;
        assert!(!world.ids.contains(&fabricated));
        // Four open lookups; the odd ones accepted a reply from the fabricated id.
        for li in 0..4 {
            let candidate = |id: u64, state| Candidate {
                dist: id,
                id,
                addr: world.addrs[0],
                depth: 1,
                state,
            };
            let mut shortlist = vec![
                candidate(world.ids[1], CandState::Responded),
                candidate(world.ids[2], CandState::Failed),
                candidate(world.ids[3], CandState::Responded),
            ];
            if li % 2 == 1 {
                shortlist.push(candidate(fabricated, CandState::Responded));
            }
            world.lookups.push(Lookup {
                target: 0,
                origin: 0,
                true_closest: world.ids[1],
                started: SimTime::ZERO,
                shortlist,
                inflight: 0,
                rpcs: 3,
                timeouts: 0,
                done: false,
            });
        }
        // What the monitor counted when it scanned every shortlist at the end of the run.
        let full_scan_checked = world
            .lookups
            .iter()
            .flat_map(|l| &l.shortlist)
            .filter(|c| c.state == CandState::Responded)
            .count() as u64;
        let stop = ShardedOutcome {
            stopped_at: SimTime::from_secs(10),
            events_executed: 0,
            outcome: RunOutcome::DeadlineReached,
        };
        let open = workload.check_invariants(&world, &stop);
        assert_eq!(open.checked, full_scan_checked);
        assert_eq!(open.violations.len(), 2, "{:?}", open.violations);
        // Settle one lookup of each kind: their shortlists go, their checks stay counted.
        for li in [0, 1] {
            world.finish(li, SimTime::from_secs(1));
        }
        assert!(world.lookups[..2]
            .iter()
            .all(|l| l.done && l.shortlist.capacity() == 0));
        let settled = workload.check_invariants(&world, &stop);
        assert_eq!(settled.checked, full_scan_checked);
        let mut violations = settled.violations.clone();
        violations.sort();
        assert_eq!(violations, open.violations);
    }

    #[test]
    fn xor_closest_matches_brute_force() {
        let ids: Vec<u64> = (0..200u64).map(splitmix64).collect();
        let mut sorted: Vec<(u64, usize)> = ids.iter().copied().zip(0..ids.len()).collect();
        sorted.sort_unstable();
        for probe in 0..500u64 {
            let target = splitmix64(probe.wrapping_mul(0x5851_f42d_4c95_7f2d));
            let brute = ids.iter().copied().min_by_key(|&id| id ^ target).unwrap();
            assert_eq!(xor_closest(&sorted, target), brute, "target {target:#x}");
        }
    }

    /// A lookup workload whose world keeps every record, so a test can read them all after
    /// the run: the inner workload's `sample` sees and drains only the records settled since
    /// the last sample, then this hands back the whole list.
    struct Keeping<W> {
        inner: W,
        /// Records handed back so far: the front of `world.records` at the next sample.
        kept: usize,
    }

    impl<W> Workload for Keeping<W>
    where
        W: Workload<World = DhtWorld, Event = NetEvent<RpcPayload<DhtBody>, DhtTimer>>,
    {
        type World = DhtWorld;
        type Event = NetEvent<RpcPayload<DhtBody>, DhtTimer>;

        const KIND: &'static str = W::KIND;
        fn vnodes_required(&self) -> usize {
            self.inner.vnodes_required()
        }
        fn participants(&self) -> usize {
            self.inner.participants()
        }
        fn adversary_population(&self) -> usize {
            self.inner.adversary_population()
        }
        fn set_adversary(&mut self, roster: &AdversaryRoster) -> Result<(), String> {
            self.inner.set_adversary(roster)
        }
        fn check_invariants(&self, world: &DhtWorld, stop: &ShardedOutcome) -> InvariantReport {
            self.inner.check_invariants(world, stop)
        }
        fn default_arrivals(&self) -> ArrivalSpec {
            self.inner.default_arrivals()
        }
        fn build_world(&mut self, deployment: Deployment) -> DhtWorld {
            self.inner.build_world(deployment)
        }
        fn on_deployed(&mut self, sim: &mut NetSim<DhtWorld>) {
            self.inner.on_deployed(sim);
        }
        fn schedule_arrivals(&mut self, sim: &mut NetSim<DhtWorld>, arrivals: &ArrivalSchedule) {
            self.inner.schedule_arrivals(sim, arrivals);
        }
        fn network(world: &DhtWorld) -> &Network {
            &world.net
        }
        fn setup_metrics(&mut self, rec: &mut Recorder) {
            self.inner.setup_metrics(rec);
        }
        fn sample(&mut self, now: SimTime, world: &mut DhtWorld, rec: &mut Recorder) -> f64 {
            let mut kept = std::mem::take(&mut world.records);
            world.records = kept.split_off(self.kept);
            kept.extend_from_slice(&world.records);
            let progress = self.inner.sample(now, world, rec);
            assert!(
                world.records.is_empty(),
                "the workload drains what it recorded"
            );
            self.kept = kept.len();
            world.records = kept;
            progress
        }
        fn is_complete(&self, world: &DhtWorld) -> bool {
            self.inner.is_complete(world)
        }
    }

    /// Runs `workload` wrapped in [`Keeping`].
    fn run_keeping<W>(s: &ScenarioSpec, workload: W) -> (DhtWorld, RunReport)
    where
        W: Workload<World = DhtWorld, Event = NetEvent<RpcPayload<DhtBody>, DhtTimer>> + 'static,
    {
        let keeping = Keeping {
            inner: workload,
            kept: 0,
        };
        run_scenario(s, keeping).unwrap()
    }

    /// Runs `spec` under `s`, keeping every record, and asserts every lookup settled.
    fn settle(s: &ScenarioSpec, spec: DhtLookupSpec) -> (DhtWorld, RunReport) {
        let lookups = spec.lookups;
        let (world, report) = run_keeping(s, DhtLookupWorkload::new(spec));
        assert_eq!(world.records.len(), lookups, "{:?}", report.outcome);
        assert_eq!(world.settled, lookups);
        (world, report)
    }

    /// Settled lookups that found the globally closest node.
    fn found_closest(world: &DhtWorld) -> usize {
        world.records.iter().filter(|r| r.found_closest).count()
    }

    #[test]
    fn every_lookup_finds_the_globally_closest_node() {
        // On a loss-free network every FIND_NODE is answered, and the iterative procedure over
        // bucketed tables must converge on the true closest node for every lookup.
        let spec = DhtLookupSpec::new(64);
        let s = scenario("dht64", &spec);
        let (world, report) = settle(&s, spec);
        assert_eq!(found_closest(&world), 64, "iterative lookups must converge");
        let hops: u32 = world.records.iter().map(|r| r.hops).sum();
        assert!(hops >= 64, "mean hop count {} below 1", hops as f64 / 64.0);
        let rpc = world.rpc_stats();
        assert_eq!(rpc.timeouts, 0);
        assert_eq!(world.net.stats().rpc_timeouts, 0);
        assert!(rpc.calls > 64, "multi-hop lookups need >1 RPC each");
        // The progress curve ends at the lookup count.
        assert_eq!(report.progress().last().unwrap().1, 64.0);
    }

    #[test]
    fn report_carries_hop_and_latency_histograms() {
        let spec = DhtLookupSpec::new(32);
        let s = scenario("dht-report", &spec);
        let (world, report) = run_scenario(&s, DhtLookupWorkload::new(spec)).unwrap();
        // The report holds the run's records; the world has drained them all.
        assert_eq!(world.settled, 32);
        assert!(world.records.is_empty());
        let hops = report.metrics.histogram("lookup_hops").unwrap();
        assert_eq!(hops.count, 32);
        let latency = report.metrics.histogram("lookup_latency_secs").unwrap();
        assert_eq!(latency.count, 32);
        assert!(latency.p50.unwrap() > 0.0);
        assert_eq!(report.metrics.counter("lookups_found_closest").unwrap(), 32);
        assert_eq!(
            report.metrics.counter("rpc_calls").unwrap(),
            world.rpc_stats().calls
        );
        // The runner's transport counters are present for every workload (PR convention).
        assert_eq!(report.metrics.counter("rpc_timeouts"), Some(0));
        assert_eq!(report.metrics.counter("retransmits"), Some(0));
    }

    #[test]
    fn lossy_network_exercises_timeouts_and_retries() {
        let spec = DhtLookupSpec::new(48);
        let topo = TopologySpec::uniform(
            "dht-lossy",
            48,
            AccessLinkClass::symmetric(50_000_000, SimDuration::from_millis(5)).with_loss(0.25),
        );
        let s = ScenarioSpec {
            deployment: DeploymentSpec::new(4),
            deadline: spec.lookup_interval * (spec.lookups as u64 - 1)
                + SimDuration::from_secs(600),
            sample_interval: SimDuration::from_secs(1),
            seed: 11,
            ..ScenarioSpec::new("dht-lossy", topo)
        };
        // Every lookup still terminates (candidates fail, shortlists settle) even though many
        // calls die; that is the point of bounded retries.
        let (world, report) = settle(&s, spec);
        let rpc = world.rpc_stats();
        assert!(rpc.retries > 0, "{rpc:?}");
        assert!(rpc.timeouts > 0, "{rpc:?}");
        assert_eq!(world.net.stats().rpc_timeouts, rpc.timeouts);
        // The transport-counter convention: the run's metric set sees the same numbers.
        assert_eq!(
            report.metrics.counter("rpc_timeouts").unwrap(),
            rpc.timeouts
        );
        assert!(report.metrics.counter("datagrams_dropped").unwrap() > 0);
        // Most lookups still find the closest node despite 25% per-pipe loss.
        assert!(found_closest(&world) * 10 >= world.records.len() * 5);
    }

    #[test]
    fn byzantine_withholders_fail_cleanly() {
        // A quarter of the nodes never answer FIND_NODE: their candidates time out, honest
        // lookups still settle, and the invariant monitor sees no violations.
        let spec = DhtLookupSpec::new(48);
        let s = ScenarioSpec {
            adversary: Some(AdversaryPlan::new(0.25, &["ack-withhold"])),
            ..scenario("dht-withhold", &spec)
        };
        let (world, report) = settle(&s, spec);
        assert!(
            world.rpc_stats().timeouts > 0,
            "withholders must cost timeouts"
        );
        assert_eq!(report.metrics.counter("invariant_violations"), Some(0));
        assert!(report.metrics.counter("invariants_checked").unwrap() > 0);
        // Degradation is graceful: most lookups still find the true closest node.
        assert!(found_closest(&world) * 10 >= world.records.len() * 5);
    }

    #[test]
    fn equivocators_never_poison_accepted_results() {
        // Equivocating nodes fabricate target-adjacent ids pointing at themselves. Responder
        // validation must reject every fabricated candidate, so all accepted replies come
        // from real nodes and the invariant monitor stays clean.
        let spec = DhtLookupSpec::new(48);
        let s = ScenarioSpec {
            adversary: Some(AdversaryPlan::new(0.25, &["equivocate"])),
            ..scenario("dht-equiv", &spec)
        };
        let (world, report) = settle(&s, spec);
        assert_eq!(report.metrics.counter("invariant_violations"), Some(0));
        assert!(report.metrics.counter("byzantine_msgs_sent").unwrap() > 0);
        // Fabricated candidates are queried and rejected, so lookups burn extra RPCs
        // compared to the honest baseline but still mostly converge.
        assert!(found_closest(&world) * 10 >= world.records.len() * 5);
    }

    #[test]
    fn adversarial_run_is_deterministic_given_seed() {
        let run = |seed: u64| {
            let spec = DhtLookupSpec::new(24);
            let s = ScenarioSpec {
                seed,
                adversary: Some(AdversaryPlan::new(0.25, &["equivocate", "silent-drop"])),
                ..scenario("dht-byz-det", &spec)
            };
            run_keeping(&s, DhtLookupWorkload::new(spec))
        };
        let (a, report_a) = run(5);
        let (b, report_b) = run(5);
        assert_eq!(a.records, b.records);
        assert_eq!(report_a.events_executed, report_b.events_executed);
    }

    /// The up-front schedule the chained starts replace: every lookup's start scheduled at
    /// once, each under the sequence number it draws then. The world's `starts` stay empty,
    /// so a start arms nothing. Everything else is the lookup workload's.
    struct UpFront(DhtLookupWorkload);

    impl Workload for UpFront {
        type World = DhtWorld;
        type Event = NetEvent<RpcPayload<DhtBody>, DhtTimer>;

        const KIND: &'static str = DhtLookupWorkload::KIND;
        fn vnodes_required(&self) -> usize {
            self.0.vnodes_required()
        }
        fn participants(&self) -> usize {
            self.0.participants()
        }
        fn default_arrivals(&self) -> ArrivalSpec {
            self.0.default_arrivals()
        }
        fn build_world(&mut self, deployment: Deployment) -> DhtWorld {
            self.0.build_world(deployment)
        }
        fn on_deployed(&mut self, _sim: &mut NetSim<DhtWorld>) {}
        fn schedule_arrivals(&mut self, sim: &mut NetSim<DhtWorld>, arrivals: &ArrivalSchedule) {
            for (k, &at) in arrivals.times().iter().enumerate() {
                sim.schedule_event_at(at, NetEvent::Timer(DhtTimer::StartLookup(k)));
            }
        }
        fn network(world: &DhtWorld) -> &Network {
            &world.net
        }
        fn setup_metrics(&mut self, rec: &mut Recorder) {
            self.0.setup_metrics(rec);
        }
        fn sample(&mut self, now: SimTime, world: &mut DhtWorld, rec: &mut Recorder) -> f64 {
            self.0.sample(now, world, rec)
        }
        fn is_complete(&self, world: &DhtWorld) -> bool {
            self.0.is_complete(world)
        }
    }

    #[test]
    fn chained_starts_run_in_the_up_front_order() {
        // Starts 40 ms apart, RPC attempts that time out after `rpc::TIMEOUT` (50 starts) on
        // lossy links: a call made at one lookup's start times out on the instant another
        // lookup starts. Up front that start goes first; armed under a fresh sequence number it
        // would go second. The trace starts lookups three at a time, 125 ms apart (16 groups
        // per timeout).
        let spec = DhtLookupSpec {
            lookups: 60,
            lookup_interval: SimDuration::from_millis(40),
            ..DhtLookupSpec::new(40)
        };
        assert_eq!(rpc::TIMEOUT, spec.lookup_interval * 50);
        let link = AccessLinkClass::symmetric(50_000_000, SimDuration::from_millis(5));
        let topology = TopologySpec::uniform("dht-chain", 40, link.with_loss(0.25));
        let trace = (0..60)
            .map(|k| SimDuration::from_millis(k / 3 * 125))
            .collect();
        for arrivals in [None, Some(ArrivalSpec::trace(trace))] {
            let s = ScenarioSpec {
                topology: topology.clone(),
                arrivals: arrivals.clone(),
                ..scenario("dht-chain", &spec)
            };
            let chained = run_keeping(&s, DhtLookupWorkload::new(spec.clone()));
            let up_front = run_keeping(&s, UpFront(DhtLookupWorkload::new(spec.clone())));
            assert!(chained.0.rpc_stats().timeouts > 0, "{arrivals:?}");
            assert_eq!(chained.0.records.len(), spec.lookups, "{arrivals:?}");
            assert_eq!(chained.0.records, up_front.0.records, "{arrivals:?}");
            assert_eq!(
                chained.1.events_executed, up_front.1.events_executed,
                "{arrivals:?}"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let spec = DhtLookupSpec::new(24);
            let s = ScenarioSpec {
                seed,
                ..scenario("dht-det", &spec)
            };
            run_keeping(&s, DhtLookupWorkload::new(spec))
        };
        let (a, report_a) = run(5);
        let (b, report_b) = run(5);
        let (c, _) = run(6);
        assert_eq!(a.records, b.records);
        assert_eq!(report_a.events_executed, report_b.events_executed);
        assert_ne!(a.records, c.records);
    }
}
