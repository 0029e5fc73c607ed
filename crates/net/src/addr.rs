//! Virtual IPv4-style addressing.
//!
//! P2PLab gives every virtual node its own IP address, configured as an interface alias on the
//! hosting physical node (Figure 4 of the paper: administration addresses in `192.168.38.0/24`,
//! virtual nodes in `10.0.0.0/8`). This module provides the address and subnet types used by the
//! firewall rules, the topology description and the socket layer.

use std::fmt;
use std::str::FromStr;

/// An IPv4-style address of a virtual (or physical) node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VirtAddr(pub u32);

impl VirtAddr {
    /// Builds an address from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> VirtAddr {
        VirtAddr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The four octets of the address.
    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }

    /// The address `offset` positions after this one (wrapping within 32 bits).
    pub const fn offset(self, offset: u32) -> VirtAddr {
        VirtAddr(self.0.wrapping_add(offset))
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

/// Error parsing an address or subnet from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrParseError(pub String);

impl fmt::Display for AddrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address or subnet: {}", self.0)
    }
}

impl std::error::Error for AddrParseError {}

impl FromStr for VirtAddr {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('.').collect();
        if parts.len() != 4 {
            return Err(AddrParseError(s.to_string()));
        }
        let mut octets = [0u8; 4];
        for (i, p) in parts.iter().enumerate() {
            octets[i] = p.parse().map_err(|_| AddrParseError(s.to_string()))?;
        }
        Ok(VirtAddr::new(octets[0], octets[1], octets[2], octets[3]))
    }
}

/// A CIDR subnet such as `10.1.3.0/24`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Subnet {
    /// Network base address (host bits zeroed on construction).
    pub base: VirtAddr,
    /// Prefix length in bits (0..=32).
    pub prefix: u8,
}

impl Subnet {
    /// Creates a subnet, zeroing the host bits of `base`.
    pub fn new(base: VirtAddr, prefix: u8) -> Subnet {
        assert!(prefix <= 32, "prefix must be <= 32");
        Subnet {
            base: VirtAddr(base.0 & Self::mask_bits(prefix)),
            prefix,
        }
    }

    /// The all-addresses subnet `0.0.0.0/0`.
    pub fn any() -> Subnet {
        Subnet::new(VirtAddr(0), 0)
    }

    /// A single-host subnet (`/32`).
    pub fn host(addr: VirtAddr) -> Subnet {
        Subnet::new(addr, 32)
    }

    const fn mask_bits(prefix: u8) -> u32 {
        if prefix == 0 {
            0
        } else {
            u32::MAX << (32 - prefix)
        }
    }

    /// True if `addr` lies inside this subnet.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        (addr.0 & Self::mask_bits(self.prefix)) == self.base.0
    }

    /// The `i`-th host address of the subnet (0 = base address).
    pub fn host_at(&self, i: u32) -> VirtAddr {
        let addr = self.base.offset(i);
        debug_assert!(self.contains(addr), "host index out of subnet range");
        addr
    }

    /// Number of addresses in the subnet.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.prefix)
    }

    /// True if the two subnets share an address. Prefix subnets are nested or disjoint, so
    /// they overlap when one holds the other's base.
    pub(crate) fn overlaps(&self, other: &Subnet) -> bool {
        self.contains(other.base) || other.contains(self.base)
    }
}

impl fmt::Display for Subnet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base, self.prefix)
    }
}

impl FromStr for Subnet {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, prefix) = s
            .split_once('/')
            .ok_or_else(|| AddrParseError(s.to_string()))?;
        let base: VirtAddr = addr.parse()?;
        let prefix: u8 = prefix.parse().map_err(|_| AddrParseError(s.to_string()))?;
        if prefix > 32 {
            return Err(AddrParseError(s.to_string()));
        }
        Ok(Subnet::new(base, prefix))
    }
}

/// A `(address, port)` pair identifying a socket endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketAddr {
    /// Node address.
    pub addr: VirtAddr,
    /// TCP/UDP-style port.
    pub port: u16,
}

impl SocketAddr {
    /// Creates a socket address.
    pub fn new(addr: VirtAddr, port: u16) -> SocketAddr {
        SocketAddr { addr, port }
    }
}

impl fmt::Display for SocketAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_roundtrip() {
        let a = VirtAddr::new(10, 1, 3, 207);
        assert_eq!(a.to_string(), "10.1.3.207");
        assert_eq!("10.1.3.207".parse::<VirtAddr>().unwrap(), a);
        assert!("10.1.3".parse::<VirtAddr>().is_err());
        assert!("10.1.3.999".parse::<VirtAddr>().is_err());
    }

    #[test]
    fn subnet_contains() {
        let s: Subnet = "10.1.3.0/24".parse().unwrap();
        assert!(s.contains(VirtAddr::new(10, 1, 3, 207)));
        assert!(!s.contains(VirtAddr::new(10, 1, 2, 207)));
        let wide: Subnet = "10.1.0.0/16".parse().unwrap();
        assert!(wide.contains(VirtAddr::new(10, 1, 3, 207)));
        assert!(wide.contains(VirtAddr::new(10, 1, 2, 1)));
        assert!(!wide.contains(VirtAddr::new(10, 2, 0, 1)));
        assert!(Subnet::any().contains(VirtAddr::new(192, 168, 38, 1)));
    }

    #[test]
    fn subnet_zeroes_host_bits() {
        let s = Subnet::new(VirtAddr::new(10, 1, 3, 207), 24);
        assert_eq!(s.base, VirtAddr::new(10, 1, 3, 0));
        assert_eq!(s.to_string(), "10.1.3.0/24");
    }

    #[test]
    fn subnet_host_enumeration() {
        let s: Subnet = "10.0.0.0/8".parse().unwrap();
        assert_eq!(s.host_at(1), VirtAddr::new(10, 0, 0, 1));
        assert_eq!(s.host_at(300), VirtAddr::new(10, 0, 1, 44));
        assert_eq!(s.size(), 1 << 24);
        assert_eq!(Subnet::host(VirtAddr::new(10, 0, 0, 1)).size(), 1);
    }

    #[test]
    fn subnet_parse_errors() {
        assert!("10.0.0.0".parse::<Subnet>().is_err());
        assert!("10.0.0.0/40".parse::<Subnet>().is_err());
        assert!("banana/8".parse::<Subnet>().is_err());
    }

    #[test]
    fn socket_addr_display() {
        let sa = SocketAddr::new(VirtAddr::new(10, 0, 0, 1), 6881);
        assert_eq!(sa.to_string(), "10.0.0.1:6881");
    }

    #[test]
    fn paper_figure4_addressing_scheme() {
        // Administration addresses and virtual-node aliases live in disjoint subnets.
        let admin: Subnet = "192.168.38.0/24".parse().unwrap();
        let vnodes: Subnet = "10.0.0.0/8".parse().unwrap();
        let admin_addr = VirtAddr::new(192, 168, 38, 1);
        let alias = VirtAddr::new(10, 0, 0, 51);
        assert!(admin.contains(admin_addr) && !vnodes.contains(admin_addr));
        assert!(vnodes.contains(alias) && !admin.contains(alias));
    }
}
