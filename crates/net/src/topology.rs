//! Topology description: access-link classes, node groups and inter-group latency.
//!
//! P2PLab's network model is deliberately edge-centric: what matters to a peer-to-peer node is
//! the link between the node and its ISP (bandwidth, latency, loss), plus coarse locality
//! expressed as latency between *groups* of nodes (same ISP, same country, same continent). A
//! [`TopologySpec`] captures exactly that, and is compiled by the deployment layer into per-
//! machine dummynet pipes and IPFW rules.

use crate::addr::{Subnet, VirtAddr};
use crate::proto::LinkCondition;
use p2plab_sim::SimDuration;
use std::collections::BTreeMap;

/// Identifier of a node group within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub usize);

/// The access link between a node and its ISP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessLinkClass {
    /// Download (ISP -> node) bandwidth in bits per second.
    pub down_bps: u64,
    /// Upload (node -> ISP) bandwidth in bits per second.
    pub up_bps: u64,
    /// One-way latency added on each direction of the access link.
    pub latency: SimDuration,
    /// Packet loss rate on the access link.
    pub loss_rate: f64,
    /// Optional link conditioner (jitter, reordering, duplication, burst loss) applied to both
    /// directions of the access link.
    pub condition: Option<LinkCondition>,
}

impl AccessLinkClass {
    /// An asymmetric link.
    pub fn new(down_bps: u64, up_bps: u64, latency: SimDuration) -> AccessLinkClass {
        AccessLinkClass {
            down_bps,
            up_bps,
            latency,
            loss_rate: 0.0,
            condition: None,
        }
    }

    /// A symmetric link.
    pub fn symmetric(bps: u64, latency: SimDuration) -> AccessLinkClass {
        AccessLinkClass::new(bps, bps, latency)
    }

    /// Adds a loss rate.
    pub fn with_loss(mut self, loss_rate: f64) -> AccessLinkClass {
        assert!((0.0..=1.0).contains(&loss_rate));
        self.loss_rate = loss_rate;
        self
    }

    /// Stacks a link conditioner on both directions of the access link. Inert conditioners
    /// are normalized to `None`.
    pub fn with_condition(mut self, condition: Option<LinkCondition>) -> AccessLinkClass {
        self.condition = condition.filter(|c| !c.is_noop());
        self
    }

    /// The DSL profile of the paper's BitTorrent experiments: 2 Mbps down, 128 kbps up, 30 ms.
    pub fn bittorrent_dsl() -> AccessLinkClass {
        AccessLinkClass::new(2_000_000, 128_000, SimDuration::from_millis(30))
    }

    /// The 56k/33.6k modem group of Figure 7 (`10.1.1.0/24`, 100 ms).
    pub fn modem_56k() -> AccessLinkClass {
        AccessLinkClass::new(56_000, 33_600, SimDuration::from_millis(100))
    }

    /// The 512k/128k DSL group of Figure 7 (`10.1.2.0/24`, 40 ms).
    pub fn dsl_512k() -> AccessLinkClass {
        AccessLinkClass::new(512_000, 128_000, SimDuration::from_millis(40))
    }

    /// The 8M/1M DSL group of Figure 7 (`10.1.3.0/24`, 20 ms).
    pub fn dsl_8m() -> AccessLinkClass {
        AccessLinkClass::new(8_000_000, 1_000_000, SimDuration::from_millis(20))
    }

    /// The symmetric 10 Mbps group of Figure 7 (`10.2.0.0/16`, 5 ms).
    pub fn lan_10m() -> AccessLinkClass {
        AccessLinkClass::symmetric(10_000_000, SimDuration::from_millis(5))
    }

    /// The symmetric 1 Mbps group of Figure 7 (`10.3.0.0/16`, 10 ms).
    pub fn wan_1m() -> AccessLinkClass {
        AccessLinkClass::symmetric(1_000_000, SimDuration::from_millis(10))
    }
}

/// A group of virtual nodes sharing a subnet and an access-link class.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSpec {
    /// Group name (for reports).
    pub name: String,
    /// Subnet the group's virtual nodes are numbered from.
    pub subnet: Subnet,
    /// Number of virtual nodes in the group.
    pub node_count: usize,
    /// Access link of every node in the group.
    pub link: AccessLinkClass,
}

/// A full topology: groups plus pairwise inter-group latency.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    /// The node groups.
    pub groups: Vec<GroupSpec>,
    /// One-way latency added between two groups (symmetric; missing entries mean no added
    /// latency). Keys are stored with the smaller group id first.
    inter_group_latency: BTreeMap<(usize, usize), SimDuration>,
}

impl TopologySpec {
    /// Creates an empty topology.
    pub fn new() -> TopologySpec {
        TopologySpec {
            groups: Vec::new(),
            inter_group_latency: BTreeMap::new(),
        }
    }

    /// Adds a group and returns its id. Its subnet must hold its `node_count` addresses and be
    /// disjoint from every earlier group's.
    pub fn add_group(
        &mut self,
        name: impl Into<String>,
        subnet: Subnet,
        node_count: usize,
        link: AccessLinkClass,
    ) -> GroupId {
        assert!(
            (node_count as u64) < subnet.size(),
            "group does not fit in its subnet"
        );
        // Prefix subnets are nested or disjoint: two overlap when one holds the other's base.
        // Disjoint, an address matches one group's rules at most.
        assert!(
            (self.groups.iter())
                .all(|g| !g.subnet.contains(subnet.base) && !subnet.contains(g.subnet.base)),
            "group subnet overlaps an earlier group's"
        );
        self.groups.push(GroupSpec {
            name: name.into(),
            subnet,
            node_count,
            link,
        });
        GroupId(self.groups.len() - 1)
    }

    /// Sets the (symmetric) one-way latency between two groups.
    pub fn set_group_latency(&mut self, a: GroupId, b: GroupId, latency: SimDuration) {
        assert!(
            a.0 < self.groups.len() && b.0 < self.groups.len(),
            "unknown group"
        );
        let key = (a.0.min(b.0), a.0.max(b.0));
        self.inter_group_latency.insert(key, latency);
    }

    /// The one-way latency between two groups (zero if none was configured or `a == b`).
    pub fn group_latency(&self, a: GroupId, b: GroupId) -> SimDuration {
        if a == b {
            return SimDuration::ZERO;
        }
        let key = (a.0.min(b.0), a.0.max(b.0));
        self.inter_group_latency
            .get(&key)
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }

    /// All configured inter-group latencies.
    pub fn group_latencies(&self) -> impl Iterator<Item = (GroupId, GroupId, SimDuration)> + '_ {
        self.inter_group_latency
            .iter()
            .map(|(&(a, b), &d)| (GroupId(a), GroupId(b), d))
    }

    /// Total number of virtual nodes.
    pub fn total_nodes(&self) -> usize {
        self.groups.iter().map(|g| g.node_count).sum()
    }

    /// The group a given address belongs to, if any.
    pub fn group_of(&self, addr: VirtAddr) -> Option<GroupId> {
        self.groups
            .iter()
            .position(|g| g.subnet.contains(addr))
            .map(GroupId)
    }

    /// The address of the `i`-th node of a group (1-based within the subnet, so `.0` is never
    /// used as a node address).
    pub fn node_addr(&self, group: GroupId, i: usize) -> VirtAddr {
        let g = &self.groups[group.0];
        assert!(i < g.node_count, "node index out of range");
        g.subnet.host_at(i as u32 + 1)
    }

    /// A single-group topology where every node has the same access link — the configuration of
    /// the paper's BitTorrent experiments (all nodes on a DSL-like connection).
    pub fn uniform(name: &str, node_count: usize, link: AccessLinkClass) -> TopologySpec {
        let mut t = TopologySpec::new();
        t.add_group(
            name,
            Subnet::new(VirtAddr::new(10, 0, 0, 0), 8),
            node_count,
            link,
        );
        t
    }

    /// The example topology of the paper's Figure 7: three /24 DSL-ish groups inside
    /// `10.1.0.0/16`, a 10 Mbps `10.2.0.0/16` group and a 1 Mbps `10.3.0.0/16` group, with
    /// 100 ms between the /24 groups, 400 ms between 10.1 and 10.2, 600 ms between 10.1 and
    /// 10.3, and 1 s between 10.2 and 10.3.
    pub fn paper_figure7() -> TopologySpec {
        let mut t = TopologySpec::new();
        let g_modem = t.add_group(
            "10.1.1.0/24 (56k/33.6k, 100ms)",
            "10.1.1.0/24".parse().unwrap(),
            250,
            AccessLinkClass::modem_56k(),
        );
        let g_dsl512 = t.add_group(
            "10.1.2.0/24 (512k/128k, 40ms)",
            "10.1.2.0/24".parse().unwrap(),
            250,
            AccessLinkClass::dsl_512k(),
        );
        let g_dsl8m = t.add_group(
            "10.1.3.0/24 (8M/1M, 20ms)",
            "10.1.3.0/24".parse().unwrap(),
            250,
            AccessLinkClass::dsl_8m(),
        );
        let g_lan = t.add_group(
            "10.2.0.0/16 (10M, 5ms)",
            "10.2.0.0/16".parse().unwrap(),
            1000,
            AccessLinkClass::lan_10m(),
        );
        let g_wan = t.add_group(
            "10.3.0.0/16 (1M, 10ms)",
            "10.3.0.0/16".parse().unwrap(),
            1000,
            AccessLinkClass::wan_1m(),
        );
        // 100 ms between the three 10.1.x.0/24 groups.
        t.set_group_latency(g_modem, g_dsl512, SimDuration::from_millis(100));
        t.set_group_latency(g_modem, g_dsl8m, SimDuration::from_millis(100));
        t.set_group_latency(g_dsl512, g_dsl8m, SimDuration::from_millis(100));
        // Latencies between the /16 clouds.
        for g in [g_modem, g_dsl512, g_dsl8m] {
            t.set_group_latency(g, g_lan, SimDuration::from_millis(400));
            t.set_group_latency(g, g_wan, SimDuration::from_millis(600));
        }
        t.set_group_latency(g_lan, g_wan, SimDuration::from_secs(1));
        t
    }

    /// The smallest access-link latency of any group (`None` for an empty topology).
    pub fn min_access_latency(&self) -> Option<SimDuration> {
        self.groups.iter().map(|g| g.link.latency).min()
    }

    /// The conservative lookahead this topology supports: a lower bound on the one-way
    /// node-to-node delivery time. Every path crosses the sender's access link and the
    /// receiver's access link (each contributing its propagation latency — queueing,
    /// serialization and conditioners only add, see [`crate::PipeConfig::delay`]),
    /// and inter-group latency is strictly additive on top. Hence
    /// `2 × min_access_latency`.
    ///
    /// Returns `None` when the topology is empty or the bound is zero (a zero-latency link
    /// means two nodes can interact instantaneously, so no conservative window exists and the
    /// scenario cannot be sharded).
    pub fn conservative_lookahead(&self) -> Option<SimDuration> {
        let min = self.min_access_latency()?;
        let lookahead = min * 2;
        (!lookahead.is_zero()).then_some(lookahead)
    }
}

impl Default for TopologySpec {
    fn default() -> Self {
        TopologySpec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_topology() {
        let t = TopologySpec::uniform("dsl", 160, AccessLinkClass::bittorrent_dsl());
        assert_eq!(t.total_nodes(), 160);
        assert_eq!(t.groups.len(), 1);
        let a = t.node_addr(GroupId(0), 0);
        assert_eq!(a, VirtAddr::new(10, 0, 0, 1));
        assert_eq!(t.group_of(a), Some(GroupId(0)));
        assert_eq!(t.group_latency(GroupId(0), GroupId(0)), SimDuration::ZERO);
    }

    #[test]
    fn figure7_topology_structure() {
        let t = TopologySpec::paper_figure7();
        assert_eq!(t.groups.len(), 5);
        assert_eq!(t.total_nodes(), 250 * 3 + 1000 * 2);
        // The measured pair of the paper: 10.1.3.207 and 10.2.2.117.
        let src = t.group_of("10.1.3.207".parse().unwrap()).unwrap();
        let dst = t.group_of("10.2.2.117".parse().unwrap()).unwrap();
        assert_eq!(t.group_latency(src, dst), SimDuration::from_millis(400));
        // And their access links.
        assert_eq!(t.groups[src.0].link.latency, SimDuration::from_millis(20));
        assert_eq!(t.groups[dst.0].link.latency, SimDuration::from_millis(5));
    }

    #[test]
    fn conservative_lookahead_is_twice_the_smallest_access_latency() {
        let t = TopologySpec::paper_figure7();
        assert_eq!(t.min_access_latency(), Some(SimDuration::from_millis(5)));
        assert_eq!(
            t.conservative_lookahead(),
            Some(SimDuration::from_millis(10))
        );
        // Zero-latency links admit no conservative window.
        let z = TopologySpec::uniform(
            "zero",
            4,
            AccessLinkClass::symmetric(1_000_000, SimDuration::ZERO),
        );
        assert_eq!(z.conservative_lookahead(), None);
        assert_eq!(TopologySpec::new().conservative_lookahead(), None);
    }

    #[test]
    fn figure7_group_latencies_are_symmetric() {
        let t = TopologySpec::paper_figure7();
        for (a, b, d) in t.group_latencies() {
            assert_eq!(t.group_latency(a, b), d);
            assert_eq!(t.group_latency(b, a), d);
        }
    }

    #[test]
    fn figure7_rule_count_example() {
        // The paper's example: the node hosting 10.1.3.207 needs, besides two rules per hosted
        // virtual node, one rule to each of 10.1.1.0/24, 10.1.2.0/24, 10.2.0.0/16 and
        // 10.3.0.0/16 — four group rules.
        let t = TopologySpec::paper_figure7();
        let host_group = t.group_of("10.1.3.207".parse().unwrap()).unwrap();
        // One rule per other group with a configured latency.
        let rules = (0..t.groups.len())
            .map(GroupId)
            .filter(|&dst| dst != host_group && !t.group_latency(host_group, dst).is_zero())
            .count();
        assert_eq!(rules, 4);
    }

    #[test]
    fn node_addresses_stay_in_subnet() {
        let t = TopologySpec::paper_figure7();
        for (gi, g) in t.groups.iter().enumerate() {
            for i in [0, g.node_count - 1] {
                let addr = t.node_addr(GroupId(gi), i);
                assert!(g.subnet.contains(addr), "{} not in {}", addr, g.subnet);
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn group_must_fit_subnet() {
        let mut t = TopologySpec::new();
        t.add_group(
            "too-big",
            "10.1.1.0/24".parse().unwrap(),
            300,
            AccessLinkClass::bittorrent_dsl(),
        );
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn group_subnets_must_be_disjoint() {
        // A second group whose subnet lies inside the first one's.
        let mut t = TopologySpec::uniform("outer", 2, AccessLinkClass::bittorrent_dsl());
        t.add_group(
            "inner",
            "10.9.0.0/16".parse().unwrap(),
            2,
            AccessLinkClass::bittorrent_dsl(),
        );
    }

    #[test]
    fn access_link_presets() {
        let dsl = AccessLinkClass::bittorrent_dsl();
        assert_eq!(dsl.down_bps, 2_000_000);
        assert_eq!(dsl.up_bps, 128_000);
        assert_eq!(dsl.latency, SimDuration::from_millis(30));
        assert_eq!(dsl.loss_rate, 0.0);
        let lossy = dsl.with_loss(0.01);
        assert!((lossy.loss_rate - 0.01).abs() < 1e-12);
    }
}
