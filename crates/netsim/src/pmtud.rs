//! Path MTU discovery state (RFC 1191).
//!
//! FragDNS forces a nameserver to fragment its DNS responses by spoofing an
//! ICMP "fragmentation needed" error that advertises a tiny next-hop MTU.
//! The nameserver's OS records that MTU in its per-destination path-MTU
//! cache; subsequent responses to the victim resolver are then emitted as
//! multiple fragments, giving the attacker a second fragment to replace.
//!
//! Hosts can be configured to ignore PMTUD signals below a *minimum accepted
//! MTU* — the "filter small fragments" countermeasure discussed in Section 6
//! (e.g. Google's public resolver only accepts fragments above a threshold).

use crate::ipv4::{DEFAULT_MTU, MIN_IPV4_MTU};
use crate::time::{Duration, SimTime};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Per-destination path MTU cache.
#[derive(Debug, Clone)]
pub struct PathMtuCache {
    /// MTU assumed when no entry exists.
    pub default_mtu: u16,
    /// The smallest MTU this host is willing to accept from an ICMP
    /// fragmentation-needed message. Linux clamps at 552 by default for
    /// `min_pmtu`, but honours lower values for the purpose of *fragmenting
    /// locally generated UDP*, which is what matters for DNS; we model the
    /// accept-threshold explicitly so hardened hosts can refuse tiny MTUs.
    pub min_accepted_mtu: u16,
    /// How long a learned entry remains valid (RFC 1191 suggests 10 minutes).
    pub entry_lifetime: Duration,
    entries: HashMap<Ipv4Addr, (u16, SimTime)>,
}

impl PathMtuCache {
    /// A cache with the conventional Ethernet default MTU that accepts any
    /// MTU down to the IPv4 minimum of 68 bytes (vulnerable default).
    pub fn new() -> Self {
        PathMtuCache {
            default_mtu: DEFAULT_MTU,
            min_accepted_mtu: MIN_IPV4_MTU,
            entry_lifetime: Duration::from_secs(600),
            entries: HashMap::new(),
        }
    }

    /// A hardened cache that refuses to lower the path MTU below `threshold`
    /// (models operators that filter small fragments / ignore tiny PTBs).
    pub(crate) fn with_min_accepted(threshold: u16) -> Self {
        PathMtuCache { min_accepted_mtu: threshold, ..PathMtuCache::new() }
    }

    /// Handles an ICMP fragmentation-needed signal for `dst` advertising
    /// `mtu`. Returns `true` when the cache accepted (and lowered) the entry.
    pub(crate) fn on_fragmentation_needed(&mut self, dst: Ipv4Addr, mtu: u16, now: SimTime) -> bool {
        let clamped = mtu.max(MIN_IPV4_MTU);
        if clamped < self.min_accepted_mtu {
            return false;
        }
        let current = self.mtu_for(dst, now);
        if clamped < current {
            self.entries.insert(dst, (clamped, now));
            true
        } else {
            false
        }
    }

    /// The MTU currently assumed towards `dst`.
    pub fn mtu_for(&self, dst: Ipv4Addr, now: SimTime) -> u16 {
        match self.entries.get(&dst) {
            Some(&(mtu, learned)) if now.duration_since(learned) < self.entry_lifetime => mtu,
            _ => self.default_mtu,
        }
    }

    /// Drops expired entries.
    pub fn expire(&mut self, now: SimTime) {
        let lifetime = self.entry_lifetime;
        self.entries.retain(|_, &mut (_, learned)| now.duration_since(learned) < lifetime);
    }

    /// Number of live entries (after lazily expiring nothing — callers that
    /// care should call [`PathMtuCache::expire`] first).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for PathMtuCache {
    fn default() -> Self {
        PathMtuCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DST: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    #[test]
    fn default_mtu_until_signal() {
        let cache = PathMtuCache::new();
        assert_eq!(cache.mtu_for(DST, SimTime::ZERO), DEFAULT_MTU);
        assert!(cache.is_empty());
    }

    #[test]
    fn accepts_lower_mtu_signal() {
        let mut cache = PathMtuCache::new();
        assert!(cache.on_fragmentation_needed(DST, 548, SimTime::ZERO));
        assert_eq!(cache.mtu_for(DST, SimTime::ZERO), 548);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clamps_to_protocol_minimum() {
        let mut cache = PathMtuCache::new();
        assert!(cache.on_fragmentation_needed(DST, 10, SimTime::ZERO));
        assert_eq!(cache.mtu_for(DST, SimTime::ZERO), MIN_IPV4_MTU);
    }

    #[test]
    fn ignores_increases() {
        let mut cache = PathMtuCache::new();
        cache.on_fragmentation_needed(DST, 548, SimTime::ZERO);
        assert!(!cache.on_fragmentation_needed(DST, 1400, SimTime::ZERO));
        assert_eq!(cache.mtu_for(DST, SimTime::ZERO), 548);
    }

    #[test]
    fn hardened_host_refuses_tiny_mtu() {
        let mut cache = PathMtuCache::with_min_accepted(1280);
        assert!(!cache.on_fragmentation_needed(DST, 296, SimTime::ZERO));
        assert_eq!(cache.mtu_for(DST, SimTime::ZERO), DEFAULT_MTU);
        // But a moderate reduction above the threshold is accepted.
        assert!(cache.on_fragmentation_needed(DST, 1400, SimTime::ZERO));
    }

    #[test]
    fn entries_expire() {
        let mut cache = PathMtuCache::new();
        cache.on_fragmentation_needed(DST, 548, SimTime::ZERO);
        let later = SimTime::ZERO + Duration::from_secs(601);
        assert_eq!(cache.mtu_for(DST, later), DEFAULT_MTU);
        cache.expire(later);
        assert!(cache.is_empty());
    }
}
