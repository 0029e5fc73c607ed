//! Deployment: folding virtual nodes onto physical machines.
//!
//! This is the heart of what P2PLab automates: given a topology (groups of virtual nodes with
//! their access links) and a cluster of physical machines, assign every virtual node to a
//! machine, give each one its address (an interface alias on that machine), and generate the
//! dummynet pipes and IPFW rules each machine needs. The *folding ratio* (virtual nodes per
//! physical machine) is the paper's key scalability metric: Figure 9 shows results are
//! unchanged up to 80 virtual nodes per machine, and the 5760-node run of Figures 10-11 uses 32
//! per machine.
//!
//! Virtual nodes are created in the topology's enumeration order (group by group, node by
//! node) on a fresh network, so node `i` of that order **is** `VNodeId(i)` — workloads index
//! their per-node state by `vnode.0` instead of keeping an id-to-index map — and its address
//! is the one the network assigns: the next alias of its group's subnet (paper, Figure 4).

use p2plab_net::{GroupId, NetError, Network, NetworkConfig, TopologySpec, VNodeId, VirtAddr};

/// A deployment request: how many machines the virtual nodes fold onto. Node `i` goes to
/// machine `i % machines`, which interleaves groups over machines (the P2PLab behaviour).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeploymentSpec {
    /// Number of physical machines available.
    pub machines: usize,
}

impl DeploymentSpec {
    /// A deployment over `machines` machines.
    pub fn new(machines: usize) -> DeploymentSpec {
        DeploymentSpec { machines }
    }
}

/// The result of a deployment: the configured network plus the virtual-node handles in the
/// topology's enumeration order (group by group, node by node).
#[derive(Debug)]
pub struct Deployment {
    /// The configured emulated network.
    pub net: Network,
    /// Virtual nodes in topology order: `vnodes[i] == VNodeId(i)`.
    pub vnodes: Vec<VNodeId>,
    /// The deployment request this was built from.
    pub spec: DeploymentSpec,
}

impl Deployment {
    /// The folding ratio: virtual nodes per physical machine.
    pub fn folding_ratio(&self) -> f64 {
        self.vnodes.len() as f64 / self.spec.machines as f64
    }

    /// Number of IPFW rules configured on machine `m` (the paper's per-node rule accounting).
    pub fn rules_on_machine(&self, m: usize) -> usize {
        self.net.machine(p2plab_net::MachineId(m)).rule_count()
    }

    /// The largest rule count over all machines — the quantity that bounds scalability
    /// according to Figure 6.
    pub fn max_rules_per_machine(&self) -> usize {
        (0..self.spec.machines)
            .map(|m| self.rules_on_machine(m))
            .max()
            .unwrap_or(0)
    }
}

/// Builds the emulated network for `topology` folded onto the machines of `spec`.
///
/// Machines receive administration addresses in `192.168.38.0/16` (as in the paper's Figure 4);
/// the network numbers each group's virtual nodes from the group's subnet.
pub fn deploy(
    topology: &TopologySpec,
    spec: DeploymentSpec,
    config: NetworkConfig,
) -> Result<Deployment, NetError> {
    assert!(spec.machines > 0, "deployment needs at least one machine");
    let mut net = Network::new(config, topology.clone());
    net.reserve(spec.machines, topology.total_nodes());
    for m in 0..spec.machines {
        let admin = VirtAddr::new(192, 168, 0, 0).offset(38 * 256 + 1 + m as u32);
        net.add_machine(format!("gdx-{:03}", m + 1), admin);
    }
    let mut vnodes = Vec::with_capacity(topology.total_nodes());
    for (gi, group) in topology.groups().iter().enumerate() {
        for _ in 0..group.node_count {
            let global_index = vnodes.len();
            let machine = p2plab_net::MachineId(global_index % spec.machines);
            let id = net.add_vnode(machine, GroupId(gi))?;
            debug_assert_eq!(id, VNodeId(global_index));
            vnodes.push(id);
        }
    }
    Ok(Deployment { net, vnodes, spec })
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2plab_net::AccessLinkClass;

    fn dsl_topology(n: usize) -> TopologySpec {
        TopologySpec::uniform("dsl", n, AccessLinkClass::bittorrent_dsl())
    }

    #[test]
    fn round_robin_spreads_nodes_evenly() {
        let d = deploy(
            &dsl_topology(160),
            DeploymentSpec::new(16),
            NetworkConfig::default(),
        )
        .unwrap();
        assert_eq!(d.vnodes.len(), 160);
        assert!((d.folding_ratio() - 10.0).abs() < 1e-9);
        for m in 0..16 {
            // 10 vnodes x 2 rules each.
            assert_eq!(d.rules_on_machine(m), 20);
            assert_eq!(d.net.machine(p2plab_net::MachineId(m)).hosted(), 10);
        }
        assert_eq!(d.max_rules_per_machine(), 20);
    }

    #[test]
    fn paper_folding_ratios() {
        // The folding-ratio experiment of Figure 9 deploys 160 clients on 160, 16, 8, 4 and 2
        // physical nodes.
        for (machines, expected_ratio) in [(160, 1.0), (16, 10.0), (8, 20.0), (4, 40.0), (2, 80.0)]
        {
            let d = deploy(
                &dsl_topology(160),
                DeploymentSpec::new(machines),
                NetworkConfig::default(),
            )
            .unwrap();
            assert!((d.folding_ratio() - expected_ratio).abs() < 1e-9);
        }
    }

    #[test]
    fn figure7_deployment_rule_accounting() {
        // Deploy the Figure 7 topology (2750 nodes) on 100 machines and check the paper's rule
        // accounting: two rules per hosted node plus the group-latency rules.
        let topo = TopologySpec::paper_figure7();
        let d = deploy(&topo, DeploymentSpec::new(100), NetworkConfig::default()).unwrap();
        assert_eq!(d.vnodes.len(), 2750);
        let m0 = d.rules_on_machine(0);
        // 27 or 28 hosted vnodes x 2 rules + at most 4 rules per hosted group (5 groups).
        assert!((54..=56 + 20).contains(&m0), "rules on machine 0: {m0}");
        // Every vnode's address must belong to its group's subnet.
        for &v in &d.vnodes {
            let vn = d.net.vnode(v);
            let group = &topo.groups()[vn.group().0];
            assert!(group.subnet.contains(vn.addr));
        }
    }

    #[test]
    fn admin_addresses_are_distinct_from_vnode_addresses() {
        let d = deploy(
            &dsl_topology(20),
            DeploymentSpec::new(5),
            NetworkConfig::default(),
        )
        .unwrap();
        for m in 0..5 {
            let machine = d.net.machine(p2plab_net::MachineId(m));
            let admin = machine.admin_addr;
            assert_eq!(admin.octets()[0], 192);
            assert_eq!(d.net.resolve(admin), None);
        }
    }

    #[test]
    fn single_machine_deployment_hosts_everything() {
        let d = deploy(
            &dsl_topology(50),
            DeploymentSpec::new(1),
            NetworkConfig::default(),
        )
        .unwrap();
        assert!((d.folding_ratio() - 50.0).abs() < 1e-9);
        assert_eq!(d.rules_on_machine(0), 100);
    }
}
