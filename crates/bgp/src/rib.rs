//! A per-AS routing information base with longest-prefix-match lookup.
//!
//! The RIB ties the control plane (announcements, hijacks, ROV filtering) to
//! the data plane: the cross-layer scenarios ask "where does traffic for the
//! nameserver's address go from the resolver's AS?" and install the answer as
//! a route override in the packet-level simulator.

use crate::rpki::{validate, Roa, RovPolicy, Validity};
use crate::topology::AsId;
use netsim::prefix::Prefix;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// One candidate route for a prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RibEntry {
    /// The announced prefix.
    pub prefix: Prefix,
    /// The origin AS of the announcement.
    pub origin: AsId,
    /// AS-path length to the origin (local preference proxy).
    pub path_len: u32,
    /// Validation state of the announcement at insertion time.
    pub validity: Validity,
}

/// A routing table of one AS.
#[derive(Debug, Clone, Default)]
pub struct Rib {
    /// ROV policy applied when installing routes.
    pub rov: RovPolicy,
    routes: HashMap<Prefix, Vec<RibEntry>>,
}

impl Rib {
    /// An empty RIB with the given ROV policy.
    pub fn new(rov: RovPolicy) -> Self {
        Rib { rov, routes: HashMap::new() }
    }

    /// Offers an announcement to the RIB; it is installed unless ROV rejects
    /// it. Returns whether it was installed.
    pub fn offer(&mut self, prefix: Prefix, origin: AsId, path_len: u32, roas: &[Roa]) -> bool {
        let validity = validate(prefix, origin, roas);
        if !self.rov.accepts(validity) {
            return false;
        }
        self.routes.entry(prefix).or_default().push(RibEntry { prefix, origin, path_len, validity });
        true
    }

    /// Withdraws all routes for `prefix` originated by `origin`.
    pub fn withdraw(&mut self, prefix: Prefix, origin: AsId) {
        if let Some(entries) = self.routes.get_mut(&prefix) {
            entries.retain(|e| e.origin != origin);
            if entries.is_empty() {
                self.routes.remove(&prefix);
            }
        }
    }

    /// Longest-prefix-match lookup: the best entry (shortest path among the
    /// most specific prefix) covering `addr`.
    pub fn best_route(&self, addr: Ipv4Addr) -> Option<RibEntry> {
        self.routes
            .iter()
            .filter(|(p, _)| p.contains(addr))
            .max_by_key(|(p, _)| p.len)
            .and_then(|(_, entries)| entries.iter().min_by_key(|e| (e.path_len, e.origin.0)).copied())
    }

    /// Number of installed prefixes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the RIB holds no routes.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn longest_prefix_match_wins() {
        let mut rib = Rib::new(RovPolicy::NotEnforced);
        assert!(rib.offer(p("30.0.0.0/22"), AsId(64500), 3, &[]));
        assert!(rib.offer(p("30.0.1.0/24"), AsId(666), 5, &[]));
        let best = rib.best_route("30.0.1.77".parse().unwrap()).unwrap();
        assert_eq!(best.origin, AsId(666), "the more specific /24 wins despite the longer path");
        let other = rib.best_route("30.0.2.1".parse().unwrap()).unwrap();
        assert_eq!(other.origin, AsId(64500));
        assert!(rib.best_route("99.9.9.9".parse().unwrap()).is_none());
    }

    #[test]
    fn shorter_path_preferred_within_same_prefix() {
        let mut rib = Rib::new(RovPolicy::NotEnforced);
        rib.offer(p("30.0.0.0/22"), AsId(64500), 4, &[]);
        rib.offer(p("30.0.0.0/22"), AsId(666), 2, &[]);
        assert_eq!(rib.best_route("30.0.0.1".parse().unwrap()).unwrap().origin, AsId(666));
    }

    #[test]
    fn rov_enforcing_rib_rejects_invalid() {
        let roas = vec![Roa::exact(p("30.0.0.0/22"), AsId(64500))];
        let mut rib = Rib::new(RovPolicy::Enforced);
        assert!(rib.offer(p("30.0.0.0/22"), AsId(64500), 3, &roas));
        assert!(!rib.offer(p("30.0.0.0/24"), AsId(666), 1, &roas), "invalid sub-prefix announcement rejected");
        assert_eq!(rib.len(), 1);
        // Downgrade: with an empty ROA set the same announcement is NotFound
        // and gets installed.
        assert!(rib.offer(p("30.0.0.0/24"), AsId(666), 1, &[]));
        assert_eq!(rib.best_route("30.0.0.5".parse().unwrap()).unwrap().origin, AsId(666));
    }

    #[test]
    fn withdraw_removes_routes() {
        let mut rib = Rib::new(RovPolicy::NotEnforced);
        rib.offer(p("30.0.0.0/22"), AsId(64500), 3, &[]);
        rib.offer(p("30.0.0.0/22"), AsId(666), 1, &[]);
        rib.withdraw(p("30.0.0.0/22"), AsId(666));
        assert_eq!(rib.best_route("30.0.0.1".parse().unwrap()).unwrap().origin, AsId(64500));
        rib.withdraw(p("30.0.0.0/22"), AsId(64500));
        assert!(rib.is_empty());
    }
}
