//! IPv4 prefixes (CIDR blocks).
//!
//! Prefixes appear in two places in the workspace: in the data plane of the
//! network simulator (route overrides installed by a successful BGP hijack)
//! and in the control plane of the `bgp` crate (announcements and ROAs).
//! Both use this type.
//!
//! The paper's HijackDNS analysis hinges on prefix lengths: announcements
//! more specific than /24 are filtered by most networks, so an address is
//! considered *sub-prefix hijackable* exactly when its covering announcement
//! is shorter than /24 (Section 5.1.2).

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 CIDR prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    /// Network address (host bits are zeroed by the constructor).
    pub addr: Ipv4Addr,
    /// Prefix length in bits (0–32).
    pub len: u8,
}

impl Prefix {
    /// Creates a prefix, masking out host bits.
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        let len = len.min(32);
        let masked = u32::from(addr) & Self::mask(len);
        Prefix { addr: Ipv4Addr::from(masked), len }
    }

    /// The /32 host prefix of an address.
    pub fn host(addr: Ipv4Addr) -> Self {
        Prefix::new(addr, 32)
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(len))
        }
    }

    /// Whether `addr` lies inside this prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        (u32::from(addr) & Self::mask(self.len)) == u32::from(self.addr)
    }

    /// Whether `other` is fully covered by this prefix (`other` is equal to
    /// or more specific than `self`).
    pub fn covers(&self, other: &Prefix) -> bool {
        other.len >= self.len && self.contains(other.addr)
    }

    /// The first of the two halves obtained by splitting this prefix one bit
    /// deeper — the canonical "sub-prefix" used in sub-prefix hijacks.
    /// Returns `None` for /32.
    pub fn first_subprefix(&self) -> Option<Prefix> {
        if self.len >= 32 {
            None
        } else {
            Some(Prefix::new(self.addr, self.len + 1))
        }
    }

    /// Number of addresses covered by this prefix.
    pub fn size(&self) -> u64 {
        1u64 << (32 - u32::from(self.len))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

/// Error parsing a prefix from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePrefixError(String);

impl fmt::Display for ParsePrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix: {}", self.0)
    }
}

impl std::error::Error for ParsePrefixError {}

impl FromStr for Prefix {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or_else(|| ParsePrefixError(s.to_string()))?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| ParsePrefixError(s.to_string()))?;
        let len: u8 = len.parse().map_err(|_| ParsePrefixError(s.to_string()))?;
        if len > 32 {
            return Err(ParsePrefixError(s.to_string()));
        }
        Ok(Prefix::new(addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_masks_host_bits() {
        let p: Prefix = "30.0.0.77/22".parse().unwrap();
        assert_eq!(p.addr, Ipv4Addr::new(30, 0, 0, 0));
        assert_eq!(p.len, 22);
        assert_eq!(p.to_string(), "30.0.0.0/22");
    }

    #[test]
    fn containment() {
        let p: Prefix = "30.0.0.0/22".parse().unwrap();
        assert!(p.contains("30.0.1.200".parse().unwrap()));
        assert!(p.contains("30.0.3.255".parse().unwrap()));
        assert!(!p.contains("30.0.4.0".parse().unwrap()));
    }

    #[test]
    fn covers_more_specifics() {
        let p: Prefix = "30.0.0.0/22".parse().unwrap();
        let sub: Prefix = "30.0.1.0/24".parse().unwrap();
        assert!(p.covers(&sub));
        assert!(!sub.covers(&p));
        assert!(p.covers(&p));
    }

    #[test]
    fn subprefix_splitting() {
        let p: Prefix = "30.0.0.0/22".parse().unwrap();
        let sub = p.first_subprefix().unwrap();
        assert_eq!(sub.to_string(), "30.0.0.0/23");
        assert!(Prefix::host("1.2.3.4".parse().unwrap()).first_subprefix().is_none());
    }

    #[test]
    fn sizes() {
        assert_eq!(Prefix::from_str("10.0.0.0/24").unwrap().size(), 256);
        assert_eq!(Prefix::from_str("10.0.0.0/22").unwrap().size(), 1024);
        assert_eq!(Prefix::new(Ipv4Addr::UNSPECIFIED, 0).size(), 1 << 32);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("nonsense/8".parse::<Prefix>().is_err());
    }

    #[test]
    fn default_route_contains_everything() {
        let d = Prefix::new(Ipv4Addr::UNSPECIFIED, 0);
        assert!(d.contains("255.255.255.255".parse().unwrap()));
        assert!(d.contains("0.0.0.1".parse().unwrap()));
    }
}
