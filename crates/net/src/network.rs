//! The emulated network: machines, virtual nodes, pipes, firewalls and counters.
//!
//! A [`Network`] is the passive state of the emulation data plane. It owns
//!
//! * one firewall, as a rule count, and one NIC per *physical machine* (the decentralized model
//!   of the paper: every physical node shapes the traffic of the virtual nodes it hosts),
//! * one pair of access-link pipes per *virtual node* (upload and download, as two IPFW rules),
//! * one latency rule per (hosted source group, destination group) pair with configured latency,
//! * the connection/listener tables of the transport layer.
//!
//! The active part — walking a packet through those components with discrete events — lives in
//! [`crate::transport`].
//!
//! **One identity per entity.** [`MachineId`], [`VNodeId`] and [`ConnId`] are indices into this
//! network's arenas, handed out in creation order (a [`ConnId`] also carries its open sequence,
//! because a released connection's slot is reused), and whatever the data plane keeps about an
//! entity lives in that entity's slot — never in a table keyed by the id. Addresses are assigned
//! by the network, not the caller: the `k`-th node added to a group gets
//! [`TopologySpec::node_addr`]`(group, k)` (the paper's Figure 4 alias numbering), which makes
//! [`Network::resolve`] arithmetic on the group's subnet instead of a lookup. A [`VNodeNet`] is
//! one 32-byte record: its ids are stored as `u32`, and it holds its access link's state.
//!
//! **A pipe is a class and a clock.** The network keeps each class once — a [`Shaping`] per
//! group and direction for the access links, one per direction for the NICs — and each pipe's
//! drain clock (and Gilbert–Elliott bit) where the pipe lives: in the node's record, or the
//! machine's. An inter-group latency pipe only delays, so it is its group pair's latency and
//! nothing else. A rule names a pipe by arithmetic: the latency pipe from group `s` to group
//! `d` is `PipeId(s × groups + d)` on every machine, node `v`'s upload pipe `ACCESS_PIPES + 2v`
//! and its download pipe the next id, so the closed form and the reference walk reach the same
//! pipe. No rule names a NIC: every packet between two machines crosses both.
//!
//! **A machine is a rule count.** A machine's rule set as deployed is two `/32` pipe rules per
//! hosted node and one latency rule per installed (source group, destination group) pair, and
//! no Allow or Deny; Figure 6's dummy rules ([`Network::add_dummy_rules`]) match nothing. So
//! every packet examines every rule and is accepted, and its path follows from the two nodes'
//! records: `Network::classify` charges it [`PER_RULE_COST`] `× rule_count()` and computes its
//! pipes in closed form, with no rule stored anywhere. Group subnets are disjoint
//! ([`TopologySpec::add_group`] refuses an overlap), so an address matches one group's rules at
//! most. An outgoing packet crosses the sender's upload pipe, when it carries the sender's own
//! address, and the latency pipe from the source address's group to the receiver's, when that
//! group's rules are on the machine; an incoming one crosses the receiver's download pipe. The
//! reference is the linear walk, [`crate::firewall::Firewall::classify`], which the tests run
//! on a twin firewall holding the rules P2PLab's scripts would install. A deployed node costs
//! the network 36 bytes: its 32-byte record and its id in its group's member list.

use crate::addr::VirtAddr;
use crate::firewall::Direction;
use crate::intercept::InterceptConfig;
use crate::pipe::{EnqueueOutcome, PipeConfig, PipeId, Shaping};
use crate::proto::{ProtoConn, TransportConfig};
use crate::tamper::{TamperSpec, TamperState};
use crate::topology::{GroupId, TopologySpec};
use p2plab_sim::{FxHashSet, SimDuration, SimRng, SimTime};

/// Index of a physical machine in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachineId(pub usize);

/// Index of a virtual node in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VNodeId(pub usize);

/// Identifier of a transport connection: the network-wide open sequence in the high 32 bits
/// and the connection's arena slot in the low 32. Ids therefore compare in open order. A slot
/// is reused once its connection is released, so a released id names nothing: the network
/// answers it as unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u64);

impl ConnId {
    /// Low bits holding the slot; the open sequence takes the rest.
    const SLOT_BITS: u32 = 32;
    /// Marks a released record. Its sequence, `u32::MAX`, is never handed out.
    const RELEASED: ConnId = ConnId(u64::MAX);

    fn new(seq: u64, slot: usize) -> ConnId {
        ConnId(seq << Self::SLOT_BITS | slot as u64)
    }

    /// The connection's position in the open sequence.
    fn seq(self) -> u64 {
        self.0 >> Self::SLOT_BITS
    }

    /// The connection's arena slot.
    fn slot(self) -> usize {
        (self.0 & ((1 << Self::SLOT_BITS) - 1)) as usize
    }
}

/// Latency each examined firewall rule adds to a packet: IPFW's linear rule evaluation,
/// Figure 6.
pub const PER_RULE_COST: SimDuration = SimDuration::from_nanos(50);

/// Bandwidth of each physical machine's NIC (GridExplorer: Gigabit Ethernet).
pub const NIC_BPS: u64 = 1_000_000_000;

/// Per-hop latency of the NIC and switch fabric.
pub const SWITCH_LATENCY: SimDuration = SimDuration::from_micros(50);

/// What a run varies about the emulation data plane. The platform's own costs are constants:
/// the firewall's [`PER_RULE_COST`], the cluster's [`NIC_BPS`] and [`SWITCH_LATENCY`], the
/// BINDIP shim's system calls ([`p2plab_os::syscall`]) and the transport's size and retry
/// limits ([`MAX_MESSAGE_BYTES`](crate::transport::MAX_MESSAGE_BYTES),
/// [`RTO`](crate::transport::RTO), [`MAX_ATTEMPTS`](crate::transport::MAX_ATTEMPTS)).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetworkConfig {
    /// libc-interception configuration (BINDIP shim).
    pub intercept: InterceptConfig,
    /// Protocol-depth configuration: MTU fragmentation, ack-bitfield reliability and the
    /// congestion controller (see [`crate::proto`]). The default is entirely inert.
    pub transport: TransportConfig,
}

/// Transport-level state of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// SYN sent, waiting for the handshake to complete.
    Connecting,
    /// Handshake completed; data can flow.
    Established,
    /// Closed by either side.
    Closed,
    /// Refused by the remote node (no listener).
    Refused,
}

/// A transport connection between two virtual nodes: its two endpoints and its state, which is
/// what the transport reads to route and accept a frame, plus the count that decides when the
/// record goes. A record lives while its connection is open, and after a close or refusal
/// until nothing can name it any more.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Connection {
    /// Initiating endpoint (node, port).
    pub client: (VNodeId, u16),
    /// Accepting endpoint (node, port).
    pub server: (VNodeId, u16),
    /// Current state.
    pub state: ConnState,
    /// The id that owns the slot, or [`ConnId::RELEASED`].
    id: ConnId,
    /// Frames in flight that name the connection, duplicates included. A closed or refused
    /// connection is released when this reaches zero.
    pending: u32,
}

// One record per open or closing connection: at most a few thousand in `swarm-fig10`.
const _: () = assert!(std::mem::size_of::<Connection>() <= 48);

impl Connection {
    /// The node at the other end of the connection from `node`.
    pub fn peer_of(&self, node: VNodeId) -> VNodeId {
        if self.client.0 == node {
            self.server.0
        } else {
            self.client.0
        }
    }

    /// The local port used by `node` on this connection.
    pub fn port_of(&self, node: VNodeId) -> u16 {
        if self.client.0 == node {
            self.client.1
        } else {
            self.server.1
        }
    }
}

/// What the packet walk needs of a classification: the latency the rule walk adds, and the
/// pipes the packet crosses, in rule order — the first `len` of `pipes`.
pub(crate) struct PacketPath {
    /// Latency added by rule evaluation itself.
    pub evaluation_cost: SimDuration,
    pipes: [PipeId; 2],
    len: u8,
}

impl PacketPath {
    /// Pipes the packet must traverse, in rule order.
    pub fn pipes(&self) -> &[PipeId] {
        &self.pipes[..usize::from(self.len)]
    }
}

/// [`PipeId`]s from here on name access pipes: node `v`'s upload pipe is `ACCESS_PIPES + 2v`,
/// its download pipe `ACCESS_PIPES + 2v + 1`. The ids below name group pairs' latency pipes.
const ACCESS_PIPES: usize = 1 << (usize::BITS - 1);

/// The access pipe of `node` in `direction` ([`Direction::Out`]: upload).
fn access_pipe(node: usize, direction: Direction) -> PipeId {
    PipeId(ACCESS_PIPES + 2 * node + usize::from(direction == Direction::In))
}

/// An arena index as the `u32` the per-node and per-machine records store.
fn narrow(id: usize) -> u32 {
    u32::try_from(id).expect("arena ids fit in 32 bits")
}

/// A physical machine's networking state.
#[derive(Debug, Clone)]
pub struct MachineNet {
    /// Machine name (for reports).
    pub name: String,
    /// The machine's administration address. Each hosted node's interface alias is that
    /// node's [`VNodeNet::addr`].
    pub admin_addr: VirtAddr,
    /// The NIC's transmit (`[0]`) and receive (`[1]`) drain clocks; its shaping is the
    /// network's.
    nic_busy_until: [SimTime; 2],
    /// Bytes the NIC transmitted (`[0]`) and received (`[1]`).
    nic_bytes: [u64; 2],
    /// Per group (indexed by [`GroupId`]), whether its inter-group rules are installed here.
    group_rules_installed: Vec<bool>,
    /// Number of virtual nodes hosted here.
    hosted: usize,
    /// The IPFW rules on the machine: the deployment's and the dummy ones.
    rules: usize,
}

impl MachineNet {
    /// Number of virtual nodes hosted on this machine.
    pub fn hosted(&self) -> usize {
        self.hosted
    }

    /// Number of IPFW rules on this machine: every packet it classifies pays for each one.
    pub fn rule_count(&self) -> usize {
        self.rules
    }

    /// Bytes the NIC transmitted and received, for the resource monitor.
    pub fn nic_bytes(&self) -> (u64, u64) {
        (self.nic_bytes[0], self.nic_bytes[1])
    }
}

/// A virtual node's networking state: where it is, and the state of its two access pipes,
/// whose rate, delay, loss and conditioner are its group's [`Shaping`]s. Ids are stored as
/// `u32` and read through the accessors; the pipes' [`PipeId`]s follow from the node's id.
#[derive(Debug, Clone)]
pub struct VNodeNet {
    /// The node's emulated IP address (an interface alias on its machine).
    pub addr: VirtAddr,
    group: u32,
    machine: u32,
    /// Whether this node's arrival installed its group's inter-group rules on its machine, so
    /// that its own upload rule precedes them.
    installed_group_rules: bool,
    /// Marked byzantine, for `byzantine_msgs_sent` accounting.
    pub(crate) byzantine: bool,
    /// The upload (`[0]`) and download (`[1]`) pipes' Gilbert–Elliott states; written only
    /// under a burst-loss conditioner.
    bad: [bool; 2],
    /// The upload (`[0]`) and download (`[1]`) pipes' drain clocks.
    busy_until: [SimTime; 2],
}

// Read twice per packet hop, at random over the deployment, and its clocks written: 50,000 of
// them in `gossip-wide`. A field added here is paid for in cache misses.
const _: () = assert!(std::mem::size_of::<VNodeNet>() <= 32);

impl VNodeNet {
    /// The group the node belongs to.
    pub fn group(&self) -> GroupId {
        GroupId(self.group as usize)
    }

    /// The machine hosting the node.
    pub fn machine(&self) -> MachineId {
        MachineId(self.machine as usize)
    }
}

/// Global data-plane counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the transport.
    pub messages_sent: u64,
    /// Messages delivered to applications.
    pub messages_delivered: u64,
    /// Messages dropped (after exhausting retransmissions, or datagram drops).
    pub messages_dropped: u64,
    /// Datagrams dropped by a pipe — the subset of `messages_dropped` that no retransmission
    /// ever covered.
    pub datagrams_dropped: u64,
    /// Retransmissions of dropped connection frames (whole messages and control frames).
    pub retransmissions: u64,
    /// RPC calls that exhausted their attempts without an answer (see [`crate::rpc`]).
    pub rpc_timeouts: u64,
    /// Application bytes delivered.
    pub bytes_delivered: u64,
    /// Fragments released to the wire by the protocol layer (see [`crate::proto`]).
    pub fragments_sent: u64,
    /// Individual lost fragments retransmitted by the protocol layer (only the missing
    /// fragments are resent, never the whole message).
    pub selective_retransmits: u64,
    /// Acknowledgement frames sent by receivers of fragmented messages.
    pub acks_sent: u64,
    /// Fresh frames silently swallowed by a sender-side tamper point (see [`crate::tamper`]).
    pub tampered_drops: u64,
    /// Extra copies injected by a sender-side tamper point.
    pub tampered_duplicates: u64,
    /// Fresh frames held back by a tamper point's reply delay.
    pub tampered_delays: u64,
    /// Fresh frames transmitted by nodes marked byzantine (adversary accounting).
    pub byzantine_msgs_sent: u64,
}

/// Errors from network construction or transport calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The group cannot host another node: all `node_count` addresses of its subnet are handed
    /// out, or the next one is the hosting machine's administration address.
    GroupFull(GroupId),
    /// The group id does not exist in the topology.
    UnknownGroup(GroupId),
    /// The machine id does not exist.
    UnknownMachine(MachineId),
    /// The virtual node id does not exist.
    UnknownVNode(VNodeId),
    /// No virtual node owns this address.
    NoRouteToHost(VirtAddr),
    /// A listener is already bound to this port.
    PortInUse(VNodeId, u16),
    /// The connection id is unknown: never opened, or its connection was released.
    UnknownConnection(ConnId),
    /// The connection is not in a state that allows the operation.
    NotEstablished(ConnId),
    /// The message exceeds the configured maximum message size.
    MessageTooLarge(u64),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::GroupFull(g) => write!(f, "group {} has no address left to assign", g.0),
            NetError::UnknownGroup(g) => write!(f, "unknown group {}", g.0),
            NetError::UnknownMachine(m) => write!(f, "unknown machine {}", m.0),
            NetError::UnknownVNode(v) => write!(f, "unknown virtual node {}", v.0),
            NetError::NoRouteToHost(a) => write!(f, "no virtual node owns {a}"),
            NetError::PortInUse(v, p) => write!(f, "port {p} already bound on vnode {}", v.0),
            NetError::UnknownConnection(c) => write!(f, "unknown connection {}", c.seq()),
            NetError::NotEstablished(c) => write!(f, "connection {} is not established", c.seq()),
            NetError::MessageTooLarge(s) => write!(f, "message of {s} bytes exceeds the maximum"),
        }
    }
}

impl std::error::Error for NetError {}

/// The emulated network state.
#[derive(Debug, Clone)]
pub struct Network {
    config: NetworkConfig,
    topology: TopologySpec,
    /// Each group's access link, upload (`[0]`) and download (`[1]`).
    links: Vec<[Shaping; 2]>,
    /// Every machine's NIC, transmit (`[0]`: toward the switch, whose latency it carries) and
    /// receive (`[1]`).
    nic: [Shaping; 2],
    /// The one-way latency from group `s` to group `d`, at `[s * groups + d]`: the delay of
    /// latency pipe `PipeId(s * groups + d)`.
    latencies: Vec<SimDuration>,
    machines: Vec<MachineNet>,
    vnodes: Vec<VNodeNet>,
    /// Each group's nodes' ids in the order they were added: node `k` owns the group's `k`-th
    /// address, so the list is both the allocation counter and the reverse map of `resolve`.
    members: Vec<Vec<u32>>,
    /// Sender-side wire-tamper state per node (see [`crate::tamper`]): empty — and every node
    /// therefore inert, drawing no randomness — until an adversary installs a tamper point.
    tampers: Vec<Option<Box<TamperState>>>,
    pub(crate) listeners: FxHashSet<(VNodeId, u16)>,
    /// Connection arena, indexed by [`ConnId`]'s slot.
    conns: Vec<Connection>,
    /// Released slots, reused last in, first out.
    free_conns: Vec<u32>,
    /// Connections opened so far: the open sequence of the next [`ConnId`].
    opened: u64,
    next_ephemeral: u16,
    pub(crate) stats: NetStats,
    /// Protocol-layer state per connection, indexed like `conns`. A parallel table (rather
    /// than fields on [`Connection`], which is `Copy` and widely passed by value) that stays
    /// empty until the first protocol activity, so the legacy path allocates nothing.
    proto: Vec<Option<Box<ProtoConn>>>,
    /// Congestion windows of released connections' protocol state, frozen at release:
    /// (sum in bytes, directions), folded into [`cwnd_mean_bytes`](Network::cwnd_mean_bytes).
    retired_cwnd: (u128, u128),
    /// Whether any node carries a tamper point or byzantine mark — the one flag the honest
    /// packet walk tests before looking at per-node adversary state.
    pub(crate) adversary: bool,
}

impl Network {
    /// Creates a network for the given topology.
    pub fn new(config: NetworkConfig, topology: TopologySpec) -> Network {
        let groups = topology.groups();
        let links = groups
            .iter()
            .map(|g| {
                let link = g.link;
                [link.up_bps, link.down_bps].map(|bps| {
                    Shaping::new(
                        PipeConfig::shaped(bps, link.latency)
                            .with_loss(link.loss_rate)
                            .with_condition(link.condition),
                    )
                })
            })
            .collect();
        let nic = [SWITCH_LATENCY, SimDuration::ZERO]
            .map(|delay| Shaping::new(PipeConfig::shaped(NIC_BPS, delay)));
        let n = groups.len();
        let latencies = (0..n * n)
            .map(|pair| topology.group_latency(GroupId(pair / n), GroupId(pair % n)))
            .collect();
        Network {
            config,
            links,
            nic,
            latencies,
            machines: Vec::new(),
            vnodes: Vec::new(),
            members: vec![Vec::new(); topology.groups().len()],
            tampers: Vec::new(),
            listeners: FxHashSet::default(),
            conns: Vec::new(),
            free_conns: Vec::new(),
            opened: 0,
            next_ephemeral: 49152,
            stats: NetStats::default(),
            proto: Vec::new(),
            retired_cwnd: (0, 0),
            adversary: false,
            topology,
        }
    }

    /// The data-plane configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The topology this network was built for.
    pub fn topology(&self) -> &TopologySpec {
        &self.topology
    }

    /// Global counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Pre-sizes the per-entity collections for a deployment of `machines` physical machines
    /// hosting `vnodes` virtual nodes, so large deployments build without regrow churn.
    pub fn reserve(&mut self, machines: usize, vnodes: usize) {
        self.machines.reserve(machines);
        self.vnodes.reserve(vnodes);
        for (members, group) in self.members.iter_mut().zip(self.topology.groups()) {
            members.reserve(group.node_count);
        }
    }

    /// Adds a physical machine with the given administration address.
    pub fn add_machine(&mut self, name: impl Into<String>, admin_addr: VirtAddr) -> MachineId {
        self.machines.push(MachineNet {
            name: name.into(),
            admin_addr,
            nic_busy_until: self.nic.each_ref().map(Shaping::idle),
            nic_bytes: [0; 2],
            group_rules_installed: vec![false; self.topology.groups().len()],
            hosted: 0,
            rules: 0,
        });
        MachineId(self.machines.len() - 1)
    }

    /// Classifies a packet from `src` to `dst` on the firewall of the machine hosting `src`
    /// ([`Direction::Out`]) or `dst` ([`Direction::In`]), in closed form: the result of
    /// [`Firewall::classify`](crate::firewall::Firewall::classify) on the machine's rules.
    ///
    /// No rule on a machine allows or denies, so every packet examines every rule and is
    /// accepted. An incoming packet matches the `/32` rule of `dst` alone, and crosses its
    /// download pipe. An outgoing packet matches the `/32` rule of `src` when it carries that
    /// node's address (`src_addr` is the machine's administration address when interception
    /// is disabled), and the latency rule from its source address's group to `dst`'s, when
    /// that group's rules are installed on the machine and the pair has a latency. The upload
    /// rule comes first only for the node whose arrival installed its group's rules.
    pub(crate) fn classify(
        &self,
        direction: Direction,
        src: VNodeId,
        src_addr: VirtAddr,
        dst: VNodeId,
    ) -> PacketPath {
        let (s, d) = (&self.vnodes[src.0], &self.vnodes[dst.0]);
        let host = &self.machines[match direction {
            Direction::Out => s.machine,
            Direction::In => d.machine,
        } as usize];
        let mut path = PacketPath {
            evaluation_cost: PER_RULE_COST * host.rules as u64,
            pipes: [PipeId(0); 2],
            len: 0,
        };
        let mut cross = |pipe: PipeId| {
            path.pipes[usize::from(path.len)] = pipe;
            path.len += 1;
        };
        match direction {
            Direction::In => cross(access_pipe(dst.0, Direction::In)),
            Direction::Out => {
                let own = s.addr == src_addr;
                let group = match own {
                    true => Some(s.group as usize),
                    false => (self.topology.group_of(src_addr))
                        .map(|g| g.0)
                        .filter(|&g| host.group_rules_installed[g]),
                };
                let groups = self.topology.groups().len();
                let latency = group
                    .map(|g| PipeId(g * groups + d.group as usize))
                    .filter(|pipe| !self.latencies[pipe.0].is_zero());
                let up = own.then(|| access_pipe(src.0, Direction::Out));
                let order = match s.installed_group_rules {
                    true => [up, latency],
                    false => [latency, up],
                };
                order.into_iter().flatten().for_each(cross);
            }
        }
        path
    }

    /// Appends `count` never-matching rules to `machine`'s firewall (Figure 6's experiment):
    /// they match no packet, so they only add to the rule count every packet pays for.
    pub fn add_dummy_rules(&mut self, machine: MachineId, count: usize) {
        self.machines[machine.0].rules += count;
    }

    /// Adds a virtual node of `group` on `machine`, at the group's next unassigned address
    /// ([`TopologySpec::node_addr`] of the group's node count so far).
    ///
    /// This performs what the P2PLab deployment scripts do on each physical node: give the node
    /// its interface alias (its address, which may not be the machine's own), create its two
    /// dummynet pipes (upload and download, from the group's access-link class: the node's
    /// record starts their clocks, the group's [`Shaping`]s are the rest), add the two
    /// corresponding IPFW rules, and — the first time a group appears on the machine — the
    /// inter-group latency rules, one per group with a latency from this one.
    ///
    /// All-or-nothing: a refused node leaves the network exactly as it was.
    pub fn add_vnode(&mut self, machine: MachineId, group: GroupId) -> Result<VNodeId, NetError> {
        let spec = self
            .topology
            .groups()
            .get(group.0)
            .ok_or(NetError::UnknownGroup(group))?;
        if machine.0 >= self.machines.len() {
            return Err(NetError::UnknownMachine(machine));
        }
        let k = self.members[group.0].len();
        if k >= spec.node_count {
            return Err(NetError::GroupFull(group));
        }
        let addr = self.topology.node_addr(group, k);
        // The alias cannot be the machine's administration address.
        let m = &mut self.machines[machine.0];
        if addr == m.admin_addr {
            return Err(NetError::GroupFull(group));
        }
        let id = VNodeId(self.vnodes.len());
        m.hosted += 1;
        m.rules += 2;
        let installed_group_rules = !std::mem::replace(&mut m.group_rules_installed[group.0], true);
        if installed_group_rules {
            let n = self.topology.groups().len();
            let pairs = &self.latencies[group.0 * n..(group.0 + 1) * n];
            // Zero for the group itself, which therefore gets no rule.
            m.rules += pairs.iter().filter(|latency| !latency.is_zero()).count();
        }
        self.vnodes.push(VNodeNet {
            addr,
            group: narrow(group.0),
            machine: narrow(machine.0),
            installed_group_rules,
            byzantine: false,
            bad: [false; 2],
            busy_until: self.links[group.0].each_ref().map(Shaping::idle),
        });
        self.members[group.0].push(narrow(id.0));
        Ok(id)
    }

    /// Offers a packet of `size` bytes at `now` to `pipe`: a group pair's latency pipe, which
    /// only delays, or one direction of a node's access link, whose clock is in the node's
    /// record and whose shaping is its group's.
    pub(crate) fn enqueue(
        &mut self,
        pipe: PipeId,
        now: SimTime,
        size: u64,
        rng: &mut SimRng,
    ) -> EnqueueOutcome {
        let Some(link) = pipe.0.checked_sub(ACCESS_PIPES) else {
            let exit = now + self.latencies[pipe.0];
            return EnqueueOutcome::Forwarded { exit, dup: None };
        };
        let (v, d) = (&mut self.vnodes[link / 2], link % 2);
        let shaping = &self.links[v.group as usize][d];
        shaping.enqueue(&mut v.busy_until[d], &mut v.bad[d], now, size, rng)
    }

    /// Takes a packet of `size` bytes at `now` through `machine`'s NIC in `direction`
    /// ([`Direction::Out`]: transmit), counts its bytes, and returns when it leaves. A NIC only
    /// rate-limits and delays, so it forwards every packet, once.
    pub(crate) fn cross_nic(
        &mut self,
        machine: MachineId,
        direction: Direction,
        now: SimTime,
        size: u64,
        rng: &mut SimRng,
    ) -> SimTime {
        let m = &mut self.machines[machine.0];
        let d = usize::from(direction == Direction::In);
        m.nic_bytes[d] += size;
        let mut bad = false;
        match self.nic[d].enqueue(&mut m.nic_busy_until[d], &mut bad, now, size, rng) {
            EnqueueOutcome::Forwarded { exit, dup: None } => exit,
            outcome => unreachable!("a NIC neither drops nor duplicates: {outcome:?}"),
        }
    }

    /// Access to a machine.
    pub fn machine(&self, id: MachineId) -> &MachineNet {
        &self.machines[id.0]
    }

    /// Number of machines.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Access to a virtual node.
    pub fn vnode(&self, id: VNodeId) -> &VNodeNet {
        &self.vnodes[id.0]
    }

    /// The tamper point an adversary installed on `node`, if any.
    pub(crate) fn tamper_mut(&mut self, node: VNodeId) -> Option<&mut TamperState> {
        self.tampers.get_mut(node.0)?.as_deref_mut()
    }

    /// Number of virtual nodes.
    pub fn vnode_count(&self) -> usize {
        self.vnodes.len()
    }

    /// Iterates over all virtual nodes.
    pub fn vnodes(&self) -> impl Iterator<Item = (VNodeId, &VNodeNet)> {
        self.vnodes.iter().enumerate().map(|(i, v)| (VNodeId(i), v))
    }

    /// Resolves an address to a virtual node: the address's group, then its position in the
    /// group's subnet (node `k` sits at host index `k + 1`, see [`TopologySpec::node_addr`]).
    pub fn resolve(&self, addr: VirtAddr) -> Option<VNodeId> {
        let group = self.topology.group_of(addr)?;
        let base = self.topology.groups()[group.0].subnet.base;
        let k = (addr.0 - base.0).checked_sub(1)?;
        let id = self.members[group.0].get(k as usize)?;
        Some(VNodeId(*id as usize))
    }

    /// The address of a virtual node.
    pub fn addr_of(&self, id: VNodeId) -> VirtAddr {
        self.vnodes[id.0].addr
    }

    /// Looks up a connection; `None` once it has been released.
    pub fn connection(&self, id: ConnId) -> Option<&Connection> {
        self.conns.get(id.slot()).filter(|c| c.id == id)
    }

    /// Mutable connection lookup.
    pub(crate) fn connection_mut(&mut self, id: ConnId) -> Option<&mut Connection> {
        self.conns.get_mut(id.slot()).filter(|c| c.id == id)
    }

    /// Counts one more frame or timer that names the live connection `id`.
    pub(crate) fn pin(&mut self, id: ConnId) {
        let c = &mut self.conns[id.slot()];
        debug_assert_eq!(c.id, id, "pinning a released connection");
        c.pending += 1;
    }

    /// One frame or timer naming `id` is gone. A closed or refused connection that nothing
    /// names any more is released: its slot goes to the free list and its protocol state is
    /// dropped, its congestion windows folded into the retired totals first.
    pub(crate) fn unpin(&mut self, id: ConnId) {
        let slot = id.slot();
        let c = &mut self.conns[slot];
        debug_assert!(c.id == id && c.pending > 0, "unpinning {id:?} past zero");
        c.pending -= 1;
        if c.pending > 0 || !matches!(c.state, ConnState::Closed | ConnState::Refused) {
            return;
        }
        c.id = ConnId::RELEASED;
        self.free_conns.push(slot as u32);
        if let Some(proto) = self.proto.get_mut(slot).and_then(Option::take) {
            for half in &proto.halves {
                self.retired_cwnd.0 += u128::from(half.cwnd_bytes());
                self.retired_cwnd.1 += 1;
            }
        }
    }

    /// Whether the protocol layer (fragmentation, acks, congestion control) is switched on.
    pub fn transport_active(&self) -> bool {
        self.config.transport.active()
    }

    /// The protocol-layer state of a connection, created on first access with the configured
    /// congestion controller. `id` names a live connection: the frame or timer that brings it
    /// here pins the record.
    pub(crate) fn proto_mut(&mut self, id: ConnId) -> &mut ProtoConn {
        debug_assert!(self.connection(id).is_some(), "{id:?} is released");
        let kind = self.config.transport.congestion;
        let slot = id.slot();
        if self.proto.len() <= slot {
            self.proto.resize_with(self.conns.len(), || None);
        }
        self.proto[slot].get_or_insert_with(|| Box::new(ProtoConn::new(kind)))
    }

    /// The protocol-layer state of a live connection, if any protocol activity created it.
    pub(crate) fn proto_existing(&mut self, id: ConnId) -> Option<&mut ProtoConn> {
        debug_assert!(self.connection(id).is_some(), "{id:?} is released");
        self.proto.get_mut(id.slot())?.as_deref_mut()
    }

    /// Mean congestion window over every direction of every connection that ever had
    /// protocol state, in bytes; a released connection counts with its windows frozen at
    /// release. `None` when no protocol state was ever created — e.g. the legacy path. The
    /// metric behind the recorder's `cwnd_mean_bytes` time series.
    pub fn cwnd_mean_bytes(&self) -> Option<u64> {
        let (mut sum, mut n) = self.retired_cwnd;
        for conn in self.proto.iter().flatten() {
            for half in &conn.halves {
                sum += u128::from(half.cwnd_bytes());
                n += 1;
            }
        }
        (n > 0).then(|| u64::try_from(sum / n).unwrap_or(u64::MAX))
    }

    /// Installs a sender-side wire-tamper point on `node` (see [`crate::tamper`]): every fresh
    /// frame the node transmits is run through `spec` using `rng` (a stream split off the
    /// adversary's seed, never the simulation's global stream). Inert specs are ignored, so an
    /// adversary-free network installs nothing and the data plane stays byte-frozen.
    pub fn set_tamper(&mut self, node: VNodeId, spec: TamperSpec, rng: SimRng) {
        if !spec.is_noop() {
            if self.tampers.len() < self.vnodes.len() {
                self.tampers.resize_with(self.vnodes.len(), || None);
            }
            self.tampers[node.0] = Some(Box::new(TamperState { spec, rng }));
            self.adversary = true;
        }
    }

    /// Marks `node` as byzantine for the `byzantine_msgs_sent` counter. Accounting only — the
    /// node's actual misbehavior comes from its tamper point and its application behavior.
    pub fn mark_byzantine(&mut self, node: VNodeId) {
        self.vnodes[node.0].byzantine = true;
        self.adversary = true;
    }

    /// True if a listener is bound on `(node, port)`.
    pub fn is_listening(&self, node: VNodeId, port: u16) -> bool {
        self.listeners.contains(&(node, port))
    }

    pub(crate) fn allocate_conn(
        &mut self,
        client: (VNodeId, u16),
        server: (VNodeId, u16),
    ) -> ConnId {
        let seq = self.opened;
        assert!(
            seq < u64::from(u32::MAX),
            "connection sequence overflow: {seq} connections opened"
        );
        self.opened += 1;
        let slot = self
            .free_conns
            .pop()
            .map_or(self.conns.len(), |s| s as usize);
        let id = ConnId::new(seq, slot);
        let record = Connection {
            client,
            server,
            state: ConnState::Connecting,
            id,
            pending: 0,
        };
        match self.conns.get_mut(slot) {
            Some(free) => *free = record,
            None => self.conns.push(record),
        }
        id
    }

    pub(crate) fn allocate_ephemeral_port(&mut self) -> u16 {
        let p = self.next_ephemeral;
        self.next_ephemeral = if self.next_ephemeral == u16::MAX {
            49152
        } else {
            self.next_ephemeral + 1
        };
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{SocketAddr, Subnet};
    use crate::endpoint::Endpoint;
    use crate::firewall::{Firewall, Rule};
    use crate::proto::CcKind;
    use crate::topology::AccessLinkClass;
    use crate::transport::{NetHost, NetSim, TransportEvent};
    use p2plab_sim::{NoEvent, Simulation};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn dsl_network(n_machines: usize, vnodes_per_machine: usize) -> Network {
        let topo = TopologySpec::uniform(
            "dsl",
            n_machines * vnodes_per_machine,
            AccessLinkClass::bittorrent_dsl(),
        );
        let mut net = Network::new(NetworkConfig::default(), topo);
        for m in 0..n_machines {
            let mid = net.add_machine(format!("node{m}"), VirtAddr::new(192, 168, 38, m as u8 + 1));
            for _ in 0..vnodes_per_machine {
                net.add_vnode(mid, GroupId(0)).unwrap();
            }
        }
        net
    }

    #[test]
    fn vnode_registration_creates_rules_and_addresses() {
        let net = dsl_network(2, 10);
        assert_eq!(net.vnode_count(), 20);
        assert_eq!(net.machine_count(), 2);
        // Two rules per hosted vnode, no group rules in a single-group topology.
        assert_eq!(net.machine(MachineId(0)).rule_count(), 20);
        assert_eq!(net.machine(MachineId(0)).hosted(), 10);
        let rules: usize = (0..2).map(|m| net.machine(MachineId(m)).rule_count()).sum();
        assert_eq!(rules, 40);
        // Addresses resolve to their vnodes.
        let addr = net.addr_of(VNodeId(5));
        assert_eq!(net.resolve(addr), Some(VNodeId(5)));
        assert_eq!(net.resolve(VirtAddr::new(10, 200, 0, 1)), None);
    }

    #[test]
    fn figure4_node1_configuration() {
        // Node 1 of the paper's Figure 4: admin 192.168.38.1, aliases 10.0.0.1 .. 10.0.0.50.
        let mut topo = TopologySpec::new();
        let g = topo.add_group(
            "fig4",
            "10.0.0.0/24".parse().unwrap(),
            50,
            AccessLinkClass::bittorrent_dsl(),
        );
        let mut net = Network::new(NetworkConfig::default(), topo);
        let admin = VirtAddr::new(192, 168, 38, 1);
        let m = net.add_machine("node1", admin);
        for _ in 0..50 {
            net.add_vnode(m, g).unwrap();
        }
        assert_eq!(net.machine(m).hosted(), 50);
        for i in 1..=50u8 {
            let vnode = net.resolve(VirtAddr::new(10, 0, 0, i)).unwrap();
            assert_eq!(
                (vnode, net.vnode(vnode).machine()),
                (VNodeId(i as usize - 1), m)
            );
        }
        assert_eq!(net.resolve(VirtAddr::new(10, 0, 0, 51)), None);
        assert_eq!(net.resolve(admin), None);
    }

    #[test]
    fn unknown_group_and_machine_rejected() {
        let topo = TopologySpec::uniform("dsl", 10, AccessLinkClass::bittorrent_dsl());
        let mut net = Network::new(NetworkConfig::default(), topo);
        let m = net.add_machine("node0", VirtAddr::new(192, 168, 38, 1));
        assert_eq!(
            net.add_vnode(m, GroupId(7)),
            Err(NetError::UnknownGroup(GroupId(7)))
        );
        assert_eq!(
            net.add_vnode(MachineId(9), GroupId(0)),
            Err(NetError::UnknownMachine(MachineId(9)))
        );
    }

    #[test]
    fn refused_node_leaves_the_network_untouched() {
        // Everything `add_vnode` writes: the machine's rule count, installed groups and hosted
        // count, the node arena and the group's allocation counter.
        let state = |net: &Network| {
            let per_machine: Vec<_> = (net.machines.iter())
                .map(|m| (m.rules, m.group_rules_installed.clone(), m.hosted))
                .collect();
            let allocated: Vec<_> = net.members.iter().map(Vec::len).collect();
            (per_machine, net.vnodes.len(), allocated)
        };
        let topo = TopologySpec::uniform("dsl", 2, AccessLinkClass::bittorrent_dsl());
        let mut net = Network::new(NetworkConfig::default(), topo);
        let m = net.add_machine("node0", VirtAddr::new(192, 168, 38, 1));
        // A machine whose administration address is the group's first node address.
        let clash = net.add_machine("node1", VirtAddr::new(10, 0, 0, 1));
        let fresh = state(&net);
        assert_eq!(
            net.add_vnode(clash, GroupId(0)),
            Err(NetError::GroupFull(GroupId(0)))
        );
        assert_eq!(state(&net), fresh);
        // Past the group's node count: an error, where `node_addr` would panic.
        net.add_vnode(m, GroupId(0)).unwrap();
        net.add_vnode(m, GroupId(0)).unwrap();
        let full = state(&net);
        assert_eq!(
            net.add_vnode(m, GroupId(0)),
            Err(NetError::GroupFull(GroupId(0)))
        );
        assert_eq!(state(&net), full);
    }

    #[test]
    fn group_rules_installed_once_per_group_per_machine() {
        let topo = TopologySpec::paper_figure7();
        let mut net = Network::new(NetworkConfig::default(), topo);
        let m = net.add_machine("node0", VirtAddr::new(192, 168, 38, 1));
        // Host two vnodes of the 10.1.3.0/24 group (group 2 in paper_figure7 construction).
        let g = net
            .topology()
            .group_of("10.1.3.1".parse().unwrap())
            .unwrap();
        let first = net.add_vnode(m, g).unwrap();
        let second = net.add_vnode(m, g).unwrap();
        assert_eq!(net.addr_of(first), "10.1.3.1".parse().unwrap());
        assert_eq!(net.addr_of(second), "10.1.3.2".parse().unwrap());
        // 2 vnodes x 2 rules + 4 group rules (to 10.1.1, 10.1.2, 10.2, 10.3) = 8.
        assert_eq!(net.machine(m).rule_count(), 8);
    }

    #[test]
    fn figure7_rule_count_for_mixed_machine() {
        // A machine hosting vnodes from two groups gets both groups' latency rules.
        let topo = TopologySpec::paper_figure7();
        let mut net = Network::new(NetworkConfig::default(), topo);
        let m = net.add_machine("node0", VirtAddr::new(192, 168, 38, 1));
        let g1 = net
            .topology()
            .group_of("10.1.3.1".parse().unwrap())
            .unwrap();
        let g2 = net
            .topology()
            .group_of("10.2.0.1".parse().unwrap())
            .unwrap();
        net.add_vnode(m, g1).unwrap();
        net.add_vnode(m, g2).unwrap();
        // 4 vnode rules + 4 group rules for 10.1.3 + 4 group rules for 10.2 = 12.
        assert_eq!(net.machine(m).rule_count(), 12);
    }

    #[test]
    fn ephemeral_ports_wrap() {
        let topo = TopologySpec::uniform("dsl", 1, AccessLinkClass::bittorrent_dsl());
        let mut net = Network::new(NetworkConfig::default(), topo);
        let first = net.allocate_ephemeral_port();
        assert_eq!(first, 49152);
        net.next_ephemeral = u16::MAX;
        assert_eq!(net.allocate_ephemeral_port(), u16::MAX);
        assert_eq!(net.allocate_ephemeral_port(), 49152);
    }

    #[test]
    fn connection_peer_lookup() {
        let c = Connection {
            client: (VNodeId(3), 50000),
            server: (VNodeId(7), 6881),
            state: ConnState::Established,
            id: ConnId(0),
            pending: 0,
        };
        assert_eq!(c.peer_of(VNodeId(3)), VNodeId(7));
        assert_eq!(c.peer_of(VNodeId(7)), VNodeId(3));
        assert_eq!(c.port_of(VNodeId(3)), 50000);
        assert_eq!(c.port_of(VNodeId(7)), 6881);
    }

    proptest! {
        /// `resolve` is arithmetic on the group's subnet; the model is the map a caller would
        /// have kept: every assigned address, inserted as the nodes are added.
        #[test]
        fn resolve_agrees_with_a_map_built_alongside(seed in any::<u64>()) {
            let mut rng = SimRng::new(seed);
            let mut topo = TopologySpec::new();
            for g in 0..rng.gen_range(1..5u8) {
                let subnet = Subnet::new(VirtAddr::new(10, g + 1, 0, 0), rng.gen_range(16..27u8));
                let nodes = rng.gen_range(1..30usize);
                topo.add_group(format!("g{g}"), subnet, nodes, AccessLinkClass::bittorrent_dsl());
            }
            let mut net = Network::new(NetworkConfig::default(), topo.clone());
            let machines: Vec<MachineId> = (0..rng.gen_range(1..4u8))
                .map(|m| net.add_machine(format!("pm{m}"), VirtAddr::new(192, 168, 38, m + 1)))
                .collect();
            // Interleave groups and machines at random; some groups fill up, most do not.
            let mut model = BTreeMap::new();
            for _ in 0..rng.gen_range(0..80usize) {
                let group = GroupId(rng.gen_range(0..topo.groups().len()));
                let machine = machines[rng.gen_range(0..machines.len())];
                let k = net.members[group.0].len();
                match net.add_vnode(machine, group) {
                    Ok(id) => {
                        prop_assert_eq!(net.addr_of(id), topo.node_addr(group, k));
                        prop_assert_eq!(model.insert(net.addr_of(id), id), None);
                    }
                    Err(e) => {
                        prop_assert_eq!(e, NetError::GroupFull(group));
                        prop_assert_eq!(k, topo.groups()[group.0].node_count);
                    }
                }
            }
            let actual: BTreeMap<VirtAddr, VNodeId> =
                net.vnodes().map(|(id, v)| (v.addr, id)).collect();
            prop_assert_eq!(&actual, &model);
            for (gi, group) in topo.groups().iter().enumerate() {
                // The network address (host 0), every assigned address, the next unassigned
                // one and a stretch beyond it.
                for host in 0..group.node_count as u32 + 3 {
                    let addr = group.subnet.base.offset(host);
                    prop_assert_eq!(net.resolve(addr), model.get(&addr).copied());
                }
                let next = group.subnet.base.offset(net.members[gi].len() as u32 + 1);
                prop_assert_eq!(net.resolve(next), None);
                prop_assert_eq!(net.resolve(group.subnet.base), None);
            }
            prop_assert_eq!(net.resolve(VirtAddr::new(10, 200, 0, 1)), None);
            prop_assert_eq!(net.resolve(VirtAddr::new(192, 168, 38, 1)), None);
        }

        /// The closed form against the walk it stands for. A model of P2PLab's scripts builds
        /// a twin of every machine's firewall from the arrival sequence: per node, its `/32`
        /// out rule, then its `/32` in rule, then — the first time its group reaches the
        /// machine — one latency rule per group its group has a latency to, through that pair's
        /// pipe. Dummy rules land at random points on a machine and on its twin. Packets carry
        /// the sender's address or, as with interception off, its machine's administration
        /// address, which lies inside a group's subnet past its nodes on some machines. The
        /// topology is Figure 7's or random disjoint groups, interleaved over the machines.
        #[test]
        fn classification_equals_the_walk_on_a_twin(seed in any::<u64>(), figure7 in any::<bool>()) {
            let mut rng = SimRng::new(seed);
            let topo = if figure7 {
                TopologySpec::paper_figure7()
            } else {
                let mut topo = TopologySpec::new();
                for g in 0..rng.gen_range(1..6u8) {
                    let subnet = Subnet::new(VirtAddr::new(10, g + 1, 0, 0), rng.gen_range(16..25u8));
                    let nodes = rng.gen_range(1..13usize);
                    topo.add_group(format!("g{g}"), subnet, nodes, AccessLinkClass::bittorrent_dsl());
                }
                for a in 0..topo.groups().len() {
                    for b in a + 1..topo.groups().len() {
                        if rng.chance(0.7) {
                            let latency = SimDuration::from_millis(rng.gen_range(1..100u64));
                            topo.set_group_latency(GroupId(a), GroupId(b), latency);
                        }
                    }
                }
                topo
            };
            let groups = topo.groups().len();
            let mut net = Network::new(NetworkConfig::default(), topo.clone());
            let machines = rng.gen_range(1..4usize);
            let mut twins = Vec::new();
            for m in 0..machines {
                let admin = match rng.chance(0.5) {
                    true => {
                        let group = &topo.groups()[rng.gen_range(0..groups)];
                        group.subnet.base.offset((group.node_count + 1 + m) as u32)
                    }
                    false => VirtAddr::new(192, 168, 38, m as u8 + 1),
                };
                net.add_machine(format!("pm{m}"), admin);
                twins.push(Firewall::new(PER_RULE_COST));
            }
            // The model: which groups' latency rules each machine has, and each group's next
            // node. A node's access pipes are named by its id, a latency pipe by its group pair.
            let mut installed = vec![vec![false; groups]; machines];
            let mut members = vec![0; groups];
            for _ in 0..rng.gen_range(0..150usize) {
                let m = rng.gen_range(0..machines);
                match rng.gen_range(0..10u8) {
                    0 => {
                        let count = rng.gen_range(1..4usize);
                        net.add_dummy_rules(MachineId(m), count);
                        twins[m].add_dummy_rules(count);
                    }
                    1..=3 if net.vnode_count() > 0 => {
                        let src = VNodeId(rng.gen_range(0..net.vnode_count()));
                        let dst = VNodeId(rng.gen_range(0..net.vnode_count()));
                        let direction = if rng.chance(0.5) { Direction::Out } else { Direction::In };
                        let host = match direction {
                            Direction::Out => net.vnode(src).machine(),
                            Direction::In => net.vnode(dst).machine(),
                        };
                        let src_addr = match rng.chance(0.3) {
                            true => net.machine(net.vnode(src).machine()).admin_addr,
                            false => net.addr_of(src),
                        };
                        let got = net.classify(direction, src, src_addr, dst);
                        let want = twins[host.0].classify(src_addr, net.addr_of(dst), direction);
                        prop_assert!(want.accepted);
                        prop_assert_eq!(got.evaluation_cost, want.evaluation_cost);
                        prop_assert_eq!(got.pipes(), &want.pipes[..]);
                    }
                    _ => {
                        let g = rng.gen_range(0..groups);
                        if members[g] == topo.groups()[g].node_count {
                            continue;
                        }
                        let id = net.add_vnode(MachineId(m), GroupId(g)).unwrap();
                        let host = Subnet::host(topo.node_addr(GroupId(g), members[g]));
                        members[g] += 1;
                        let twin = &mut twins[m];
                        let [up, down] = [Direction::Out, Direction::In].map(|d| access_pipe(id.0, d));
                        twin.add_rule(Rule::pipe(host, Subnet::any(), Direction::Out, up));
                        twin.add_rule(Rule::pipe(Subnet::any(), host, Direction::In, down));
                        if !std::mem::replace(&mut installed[m][g], true) {
                            for other in 0..groups {
                                if topo.group_latency(GroupId(g), GroupId(other)).is_zero() {
                                    continue;
                                }
                                let (src, dst) = (topo.groups()[g].subnet, topo.groups()[other].subnet);
                                let pipe = PipeId(g * groups + other);
                                twin.add_rule(Rule::pipe(src, dst, Direction::Out, pipe));
                            }
                        }
                    }
                }
                for (m, twin) in twins.iter().enumerate() {
                    prop_assert_eq!(net.machine(MachineId(m)).rule_count(), twin.rule_count());
                }
            }
        }
    }

    #[test]
    fn the_network_stores_no_pipe() {
        // Figure 7's five groups interleaved over three machines.
        let topo = TopologySpec::paper_figure7();
        let groups = topo.groups().len();
        let mut net = Network::new(NetworkConfig::default(), topo.clone());
        for m in 0..3u8 {
            net.add_machine(format!("pm{m}"), VirtAddr::new(192, 168, 38, m + 1));
        }
        for k in 0..40 {
            net.add_vnode(MachineId(k % 3), GroupId(k % groups))
                .unwrap();
        }
        // A packet crosses a group pair's latency pipe, when the pair has a latency, or an
        // access pipe of a node the classifying machine hosts.
        for (src, s) in net.vnodes() {
            for (dst, d) in net.vnodes() {
                for (direction, host) in
                    [(Direction::Out, s.machine()), (Direction::In, d.machine())]
                {
                    for &pipe in net.classify(direction, src, s.addr, dst).pipes() {
                        match pipe.0.checked_sub(ACCESS_PIPES) {
                            None => {
                                let (g, h) = (GroupId(pipe.0 / groups), GroupId(pipe.0 % groups));
                                assert!(pipe.0 < groups * groups, "{pipe:?}");
                                assert!(!topo.group_latency(g, h).is_zero(), "{pipe:?}");
                            }
                            Some(link) => assert_eq!(net.vnode(VNodeId(link / 2)).machine(), host),
                        }
                    }
                }
            }
        }
        let clocks = |net: &Network| {
            let nics: Vec<[SimTime; 2]> = net.machines.iter().map(|m| m.nic_busy_until).collect();
            let vnodes: Vec<[SimTime; 2]> = net.vnodes.iter().map(|v| v.busy_until).collect();
            (nics, vnodes)
        };
        let (nics, vnodes) = clocks(&net);
        let mut rng = SimRng::new(1);
        let now = SimTime::from_secs(1);
        // A latency pipe only delays: 400 ms from 10.1.1.0/24 (group 0) to 10.2.0.0/16 (group
        // 3), whatever the size and however many packets cross it, and no clock moves.
        let latency = PipeId(3);
        for size in [1250, 0, 64_000] {
            assert_eq!(
                net.enqueue(latency, now, size, &mut rng),
                EnqueueOutcome::Forwarded {
                    exit: now + SimDuration::from_millis(400),
                    dup: None
                }
            );
        }
        assert_eq!(clocks(&net), (nics.clone(), vnodes.clone()));
        // Two packets through machine 1's NIC queue behind each other and count their bytes;
        // no other NIC clock moves.
        let slot = SimDuration::transmission(1250, NIC_BPS);
        for k in 1..=2u32 {
            let exit = net.cross_nic(MachineId(1), Direction::Out, now, 1250, &mut rng);
            assert_eq!(exit, now + slot * u64::from(k) + SWITCH_LATENCY);
        }
        assert_eq!(net.machine(MachineId(1)).nic_bytes(), (2500, 0));
        let (after, _) = clocks(&net);
        for (m, (was, is)) in nics.iter().zip(&after).enumerate() {
            let expected = if m == 1 {
                [now + slot * 2, was[1]]
            } else {
                *was
            };
            assert_eq!(*is, expected, "machine {m}");
        }
        // A packet through node 3's (10.2.0.0/16, 10 Mbps, 5 ms) download pipe writes that
        // pipe's clock in its record and nothing else.
        let link = topo.groups()[3].link;
        let serialized = now + SimDuration::transmission(1250, link.down_bps);
        assert_eq!(
            net.enqueue(access_pipe(3, Direction::In), now, 1250, &mut rng),
            EnqueueOutcome::Forwarded {
                exit: serialized + link.latency,
                dup: None
            }
        );
        for (v, (node, was)) in net.vnodes.iter().zip(vnodes).enumerate() {
            let expected = if v == 3 { [was[0], serialized] } else { was };
            assert_eq!(node.busy_until, expected, "node {v}");
        }
    }

    /// A client that cycles connections to one server: on `Connected` it sends a 3,000-byte
    /// message (unless `hold_open`), the server closes on the message, and the client's
    /// `Closed` opens the next connection while `reconnects` lasts. So the number open at once
    /// never exceeds the number the test starts with.
    struct Cycler {
        net: Network,
        server: SocketAddr,
        reconnects: u32,
        hold_open: bool,
        events: usize,
        /// The nodes that saw `Closed`, in order.
        closed: Vec<VNodeId>,
    }

    impl NetHost for Cycler {
        type Payload = u32;
        type Timer = NoEvent;

        fn network(&mut self) -> &mut Network {
            &mut self.net
        }

        fn on_timer(_sim: &mut NetSim<Self>, timer: NoEvent) {
            match timer {}
        }

        fn on_transport_event(sim: &mut NetSim<Self>, node: VNodeId, event: TransportEvent<u32>) {
            let ep = Endpoint::new(node);
            sim.world_mut().events += 1;
            if let TransportEvent::Closed { .. } = event {
                sim.world_mut().closed.push(node);
            }
            match event {
                TransportEvent::Connected { conn, .. } if !sim.world().hold_open => {
                    ep.send(sim, conn, 3000, 0).unwrap();
                }
                TransportEvent::Message { conn, .. } => ep.close(sim, conn).unwrap(),
                TransportEvent::Closed { .. } if sim.world().reconnects > 0 => {
                    sim.world_mut().reconnects -= 1;
                    let server = sim.world().server;
                    ep.connect(sim, server).unwrap();
                }
                _ => {}
            }
        }
    }

    /// Node 0 (the client) and node 1 (the server, listening on 7000) on two machines over a
    /// 10 Mbps, 5 ms link with the given loss rate.
    fn cycler(transport: TransportConfig, loss: f64) -> NetSim<Cycler> {
        let link = AccessLinkClass::symmetric(10_000_000, SimDuration::from_millis(5));
        let topo = TopologySpec::uniform("cycle", 2, link.with_loss(loss));
        let config = NetworkConfig {
            transport,
            ..NetworkConfig::default()
        };
        let mut net = Network::new(config, topo);
        for m in 0..2u8 {
            let mid = net.add_machine(format!("pm{m}"), VirtAddr::new(192, 168, 38, m + 1));
            net.add_vnode(mid, GroupId(0)).unwrap();
        }
        let server = SocketAddr::new(net.addr_of(VNodeId(1)), 7000);
        let world = Cycler {
            net,
            server,
            reconnects: 0,
            hold_open: false,
            events: 0,
            closed: Vec::new(),
        };
        let mut sim = Simulation::new(world, 5);
        Endpoint::new(VNodeId(1)).bind(&mut sim, 7000).unwrap();
        sim
    }

    #[test]
    fn closed_connections_free_their_slots() {
        const CYCLES: u32 = 100_000;
        const OPEN: u32 = 100;
        let aimd = TransportConfig {
            mtu: Some(1500),
            congestion: CcKind::Aimd,
        };
        for (transport, loss) in [(TransportConfig::default(), 0.0), (aimd, 0.05)] {
            let mut sim = cycler(transport, loss);
            sim.world_mut().reconnects = CYCLES - OPEN;
            let client = Endpoint::new(VNodeId(0));
            for _ in 0..OPEN {
                let server = sim.world().server;
                client.connect(&mut sim, server).unwrap();
            }
            sim.run();
            let net = &sim.world().net;
            assert_eq!(net.opened, u64::from(CYCLES));
            assert_eq!(sim.world().reconnects, 0);
            // Every connection was closed, so every record is released; the arena's high
            // water is the open connections plus the few still pinned by their last frames.
            assert!(net.conns.iter().all(|c| c.id == ConnId::RELEASED));
            assert_eq!(net.free_conns.len(), net.conns.len());
            assert!(
                net.conns.len() <= OPEN as usize + 8,
                "{} slots",
                net.conns.len()
            );
            assert!(
                net.proto.len() <= OPEN as usize + 8,
                "{} slots",
                net.proto.len()
            );
            assert!(net.proto.iter().all(Option::is_none));
            // Released protocol state still counts toward the congestion-window mean.
            assert_eq!(net.cwnd_mean_bytes().is_some(), transport.active());
        }
    }

    #[test]
    fn ids_keep_open_order_across_reuse() {
        let mut sim = cycler(TransportConfig::default(), 0.0);
        sim.world_mut().hold_open = true;
        let (client, server) = (Endpoint::new(VNodeId(0)), Endpoint::new(VNodeId(1)));
        let addr = sim.world().server;
        // Open and close one connection at a time: each reuses the slot its predecessor freed,
        // and still compares above it.
        let mut ids = Vec::new();
        for _ in 0..10 {
            let conn = client.connect(&mut sim, addr).unwrap();
            sim.run();
            client.close(&mut sim, conn).unwrap();
            sim.run();
            assert!(sim.world().net.connection(conn).is_none());
            ids.push(conn);
        }
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
        assert!(ids.iter().all(|c| c.slot() == ids[0].slot()), "{ids:?}");

        // The slot's new owner is untouched by anything done with a freed id.
        let stale = ids[9];
        let owner = client.connect(&mut sim, addr).unwrap();
        sim.run();
        assert_eq!(owner.slot(), stale.slot());
        assert!(owner > stale);
        let before = *sim.world().net.connection(owner).unwrap();
        let (stats_before, events_before) = (sim.world().net.stats(), sim.world().events);
        for ep in [client, server] {
            assert_eq!(
                ep.send(&mut sim, stale, 100, 1),
                Err(NetError::UnknownConnection(stale))
            );
            assert_eq!(
                ep.close(&mut sim, stale),
                Err(NetError::UnknownConnection(stale))
            );
        }
        sim.run();
        assert_eq!(*sim.world().net.connection(owner).unwrap(), before);
        assert_eq!(before.state, ConnState::Established);
        assert_eq!(sim.world().net.stats(), stats_before);
        assert_eq!(sim.world().events, events_before);
    }

    #[test]
    fn a_closed_connection_lives_until_its_last_frame() {
        // The sender closes right behind a paced 64 KiB message, so its FIN overtakes the
        // paced fragments and the peer sees `Closed` while fragments are still to be released.
        // Those late fragments still act on the record (a release feeds the congestion
        // controller), so it must outlive them and go only with the last of them.
        let aimd = TransportConfig {
            mtu: Some(1500),
            congestion: CcKind::Aimd,
        };
        let mut sim = cycler(aimd, 0.0);
        sim.world_mut().hold_open = true;
        let client = Endpoint::new(VNodeId(0));
        let server = sim.world().server;
        let conn = client.connect(&mut sim, server).unwrap();
        sim.run();
        client.send(&mut sim, conn, 64 * 1024, 0).unwrap();
        client.close(&mut sim, conn).unwrap();
        while sim.world().closed.is_empty() {
            let next = sim.now() + SimDuration::from_millis(1);
            sim.run_until(next);
        }
        assert_eq!(sim.world().closed, [VNodeId(1)]);
        let net = &sim.world().net;
        assert_eq!(
            net.connection(conn).map(|c| c.state),
            Some(ConnState::Closed)
        );
        assert!(
            net.conns[conn.slot()].pending > 0,
            "the paced fragments pin the record"
        );
        sim.run();
        let net = &sim.world().net;
        assert!(net.connection(conn).is_none());
        assert!(net.proto.iter().all(Option::is_none));
        assert_eq!(
            net.retired_cwnd.1, 2,
            "both directions' windows are retired"
        );
    }
}
