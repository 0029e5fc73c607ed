//! Network-interface alias table.
//!
//! Each physical node keeps its main (administration) IP address and receives one interface
//! alias per hosted virtual node (paper, Figure 4). The paper's evaluation found that aliases
//! add no measurable overhead compared to a normally assigned address; the model reflects that
//! by making alias lookup a constant-cost operation.

use crate::addr::VirtAddr;
use std::collections::BTreeSet;

/// The address configuration of one physical node's interface (`eth0` in the paper's figure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interface {
    /// The administration address of the physical node (e.g. `192.168.38.1`).
    admin_addr: VirtAddr,
    /// Aliases assigned to hosted virtual nodes (e.g. `10.0.0.1` ... `10.0.0.50`).
    aliases: BTreeSet<VirtAddr>,
}

/// Error when manipulating interface aliases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IfaceError {
    /// The alias is already configured on this interface.
    DuplicateAlias(VirtAddr),
    /// The alias collides with the administration address.
    CollidesWithAdmin(VirtAddr),
}

impl std::fmt::Display for IfaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IfaceError::DuplicateAlias(a) => write!(f, "alias {a} already configured"),
            IfaceError::CollidesWithAdmin(a) => write!(f, "alias {a} collides with admin address"),
        }
    }
}

impl std::error::Error for IfaceError {}

impl Interface {
    /// Creates an interface with only its administration address.
    pub fn new(admin_addr: VirtAddr) -> Interface {
        Interface {
            admin_addr,
            aliases: BTreeSet::new(),
        }
    }

    /// The administration address.
    pub fn admin_addr(&self) -> VirtAddr {
        self.admin_addr
    }

    /// Adds an alias for a virtual node.
    pub fn add_alias(&mut self, addr: VirtAddr) -> Result<(), IfaceError> {
        if addr == self.admin_addr {
            return Err(IfaceError::CollidesWithAdmin(addr));
        }
        if !self.aliases.insert(addr) {
            return Err(IfaceError::DuplicateAlias(addr));
        }
        Ok(())
    }

    /// Removes an alias; returns whether it was present.
    pub fn remove_alias(&mut self, addr: VirtAddr) -> bool {
        self.aliases.remove(&addr)
    }

    /// Whether the interface answers for `addr` (admin address or any alias).
    pub fn owns(&self, addr: VirtAddr) -> bool {
        addr == self.admin_addr || self.aliases.contains(&addr)
    }

    /// Number of configured aliases.
    pub fn alias_count(&self) -> usize {
        self.aliases.len()
    }

    /// Iterates over the aliases in address order.
    pub fn aliases(&self) -> impl Iterator<Item = VirtAddr> + '_ {
        self.aliases.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_node1_configuration() {
        // Node 1 of the paper's Figure 4: admin 192.168.38.1, aliases 10.0.0.1 .. 10.0.0.50.
        let mut iface = Interface::new(VirtAddr::new(192, 168, 38, 1));
        for i in 1..=50u32 {
            iface
                .add_alias(VirtAddr::new(10, 0, 0, 0).offset(i))
                .unwrap();
        }
        assert_eq!(iface.alias_count(), 50);
        assert!(iface.owns(VirtAddr::new(10, 0, 0, 17)));
        assert!(iface.owns(VirtAddr::new(192, 168, 38, 1)));
        assert!(!iface.owns(VirtAddr::new(10, 0, 0, 51)));
    }

    #[test]
    fn duplicate_alias_rejected() {
        let mut iface = Interface::new(VirtAddr::new(192, 168, 38, 1));
        let a = VirtAddr::new(10, 0, 0, 1);
        iface.add_alias(a).unwrap();
        assert_eq!(iface.add_alias(a), Err(IfaceError::DuplicateAlias(a)));
    }

    #[test]
    fn admin_collision_rejected() {
        let mut iface = Interface::new(VirtAddr::new(192, 168, 38, 1));
        assert_eq!(
            iface.add_alias(VirtAddr::new(192, 168, 38, 1)),
            Err(IfaceError::CollidesWithAdmin(VirtAddr::new(
                192, 168, 38, 1
            )))
        );
    }

    #[test]
    fn remove_alias() {
        let mut iface = Interface::new(VirtAddr::new(192, 168, 38, 1));
        let a = VirtAddr::new(10, 0, 0, 1);
        iface.add_alias(a).unwrap();
        assert!(iface.remove_alias(a));
        assert!(!iface.remove_alias(a));
        assert!(!iface.owns(a));
    }

    #[test]
    fn aliases_iterate_in_order() {
        let mut iface = Interface::new(VirtAddr::new(192, 168, 38, 1));
        iface.add_alias(VirtAddr::new(10, 0, 0, 3)).unwrap();
        iface.add_alias(VirtAddr::new(10, 0, 0, 1)).unwrap();
        iface.add_alias(VirtAddr::new(10, 0, 0, 2)).unwrap();
        let v: Vec<_> = iface.aliases().collect();
        assert_eq!(
            v,
            vec![
                VirtAddr::new(10, 0, 0, 1),
                VirtAddr::new(10, 0, 0, 2),
                VirtAddr::new(10, 0, 0, 3)
            ]
        );
    }
}
