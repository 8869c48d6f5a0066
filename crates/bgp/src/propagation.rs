//! Gao-Rexford route propagation.
//!
//! Computes, for every AS in a topology, the best policy-compliant route to a
//! given origin AS using the standard three-phase breadth-first computation
//! over customer-provider and peer edges:
//!
//! 1. **customer routes** propagate upwards (from the origin through its
//!    providers, their providers, ...) and are exported to everybody;
//! 2. **peer routes** cross exactly one peering edge from an AS that has a
//!    customer route (or is the origin);
//! 3. **provider routes** propagate downwards to customers from any AS that
//!    already has a route.
//!
//! Preference follows Gao-Rexford: customer > peer > provider, then shorter
//! AS path, then a deterministic tie-break. This is the same model the
//! paper's same-prefix-hijack simulation uses (Section 5.1.2).

use crate::topology::{AsId, AsTopology, Relationship};
use std::collections::{HashMap, VecDeque};

/// The relationship class through which a route was learned.
/// Ordering: `Customer` is most preferred, `Provider` least.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum RouteClass {
    /// Route learned from a provider (least preferred).
    Provider,
    /// Route learned from a peer.
    Peer,
    /// Route learned from a customer (most preferred).
    Customer,
    /// The AS originates the prefix itself.
    Origin,
}

/// A best route from one AS towards an origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RouteInfo {
    /// How the route was learned.
    pub class: RouteClass,
    /// AS-path length (origin = 0).
    pub path_len: u32,
    /// The neighbour the traffic is forwarded to (origin for itself).
    pub next_hop: AsId,
}

impl RouteInfo {
    /// Whether `self` is preferred over `other` under Gao-Rexford policy
    /// (class first, then shorter path, then lower next-hop ASN).
    pub(crate) fn better_than(&self, other: &RouteInfo) -> bool {
        (self.class, std::cmp::Reverse(self.path_len), std::cmp::Reverse(self.next_hop.0))
            > (other.class, std::cmp::Reverse(other.path_len), std::cmp::Reverse(other.next_hop.0))
    }
}

/// Computes the best Gao-Rexford-compliant route from every AS to `origin`.
///
/// ASes with no policy-compliant route do not appear in the result.
pub(crate) fn routes_to_origin(topo: &AsTopology, origin: AsId) -> HashMap<AsId, RouteInfo> {
    let mut best: HashMap<AsId, RouteInfo> = HashMap::new();
    best.insert(origin, RouteInfo { class: RouteClass::Origin, path_len: 0, next_hop: origin });

    // Phase 1: customer routes — BFS upwards along "customer -> provider".
    let mut queue = VecDeque::new();
    queue.push_back(origin);
    while let Some(current) = queue.pop_front() {
        let current_len = best[&current].path_len;
        for &(neighbor, rel) in topo.neighbors(current) {
            // `rel` is the neighbour's relationship to `current`; a Provider
            // neighbour learns this route as a customer route.
            if rel == Relationship::Provider {
                let candidate = RouteInfo { class: RouteClass::Customer, path_len: current_len + 1, next_hop: current };
                let is_better = best.get(&neighbor).is_none_or(|existing| candidate.better_than(existing));
                if is_better {
                    best.insert(neighbor, candidate);
                    queue.push_back(neighbor);
                }
            }
        }
    }

    // Phase 2: peer routes — one peering hop from any AS with a customer
    // route or the origin itself.
    let customer_route_holders: Vec<(AsId, u32)> = best
        .iter()
        .filter(|(_, r)| matches!(r.class, RouteClass::Customer | RouteClass::Origin))
        .map(|(&id, r)| (id, r.path_len))
        .collect();
    for (holder, len) in customer_route_holders {
        for &(neighbor, rel) in topo.neighbors(holder) {
            if rel == Relationship::Peer {
                let candidate = RouteInfo { class: RouteClass::Peer, path_len: len + 1, next_hop: holder };
                let is_better = best.get(&neighbor).is_none_or(|existing| candidate.better_than(existing));
                if is_better {
                    best.insert(neighbor, candidate);
                }
            }
        }
    }

    // Phase 3: provider routes — propagate downwards (provider -> customer),
    // processed in order of increasing path length.
    let mut queue: VecDeque<AsId> = {
        let mut holders: Vec<AsId> = best.keys().copied().collect();
        holders.sort_by_key(|id| best[id].path_len);
        holders.into()
    };
    while let Some(current) = queue.pop_front() {
        let current_len = best[&current].path_len;
        for &(neighbor, rel) in topo.neighbors(current) {
            // A Customer neighbour learns this route as a provider route.
            if rel == Relationship::Customer {
                let candidate = RouteInfo { class: RouteClass::Provider, path_len: current_len + 1, next_hop: current };
                let is_better = best.get(&neighbor).is_none_or(|existing| candidate.better_than(existing));
                if is_better {
                    best.insert(neighbor, candidate);
                    queue.push_back(neighbor);
                }
            }
        }
    }

    best
}

/// For two competing origins announcing the *same* prefix, decides which
/// origin each AS routes towards. Returns a map from AS to the preferred
/// origin (ASes that can reach neither are absent).
pub(crate) fn compare_origins(topo: &AsTopology, origin_a: AsId, origin_b: AsId) -> HashMap<AsId, AsId> {
    let routes_a = routes_to_origin(topo, origin_a);
    let routes_b = routes_to_origin(topo, origin_b);
    let mut decision = HashMap::new();
    for id in topo.ases() {
        let choice = match (routes_a.get(&id), routes_b.get(&id)) {
            (Some(_), None) => Some(origin_a),
            (None, Some(_)) => Some(origin_b),
            (Some(ra), Some(rb)) => {
                if ra.better_than(rb) {
                    Some(origin_a)
                } else if rb.better_than(ra) {
                    Some(origin_b)
                } else {
                    // Exact tie: deterministic arbitrary tie-break on ASN.
                    Some(if origin_a.0 < origin_b.0 { origin_a } else { origin_b })
                }
            }
            (None, None) => None,
        };
        if let Some(origin) = choice {
            decision.insert(id, origin);
        }
    }
    decision
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::AsTier;

    #[test]
    fn every_as_reaches_a_stub_origin() {
        let topo = AsTopology::generate(4, 15, 120, 5);
        let origin = topo.ases_of_tier(AsTier::Stub)[0];
        let routes = routes_to_origin(&topo, origin);
        assert_eq!(routes.len(), topo.len(), "the graph is connected under Gao-Rexford");
        assert_eq!(routes[&origin].class, RouteClass::Origin);
        assert_eq!(routes[&origin].path_len, 0);
    }

    #[test]
    fn providers_of_origin_have_customer_routes() {
        let (topo, map) = AsTopology::small_test_topology();
        let routes = routes_to_origin(&topo, map["stub1"]);
        assert_eq!(routes[&map["tr1"]].class, RouteClass::Customer);
        assert_eq!(routes[&map["tr1"]].path_len, 1);
        assert_eq!(routes[&map["t1a"]].class, RouteClass::Customer);
        assert_eq!(routes[&map["t1a"]].path_len, 2);
    }

    #[test]
    fn peer_route_crosses_one_peering_edge() {
        let (topo, map) = AsTopology::small_test_topology();
        let routes = routes_to_origin(&topo, map["stub1"]);
        // t1b peers with t1a which has a customer route: t1b gets a peer route.
        assert_eq!(routes[&map["t1b"]].class, RouteClass::Peer);
        assert_eq!(routes[&map["t1b"]].path_len, 3);
    }

    #[test]
    fn provider_routes_flow_downward() {
        let (topo, map) = AsTopology::small_test_topology();
        let routes = routes_to_origin(&topo, map["stub1"]);
        // stub2 (sibling under tr1) learns via its provider tr1.
        assert_eq!(routes[&map["stub2"]].class, RouteClass::Provider);
        assert_eq!(routes[&map["stub2"]].path_len, 2);
        // stub4 must go stub4 <- tr3 <- t1b <- t1a <- tr1 <- stub1.
        assert_eq!(routes[&map["stub4"]].class, RouteClass::Provider);
        assert_eq!(routes[&map["stub4"]].path_len, 5);
    }

    #[test]
    fn customer_routes_preferred_over_shorter_peer_or_provider() {
        // Build a diamond where a provider route would be shorter than the
        // customer route: customer preference must still win.
        let mut topo = AsTopology::new();
        let a = AsId(1);
        let b = AsId(2);
        let c = AsId(3);
        let d = AsId(4);
        for id in [a, b, c, d] {
            topo.add_as(id, AsTier::Transit);
        }
        // d is a customer of c; c customer of b; b customer of a; and d is
        // also a *provider* of a (a cycle in business terms, fine for a test):
        // a can reach d either via its provider chain (customer route through
        // b? no) — keep it simple: a has customer route via... Let's verify
        // only that at c the direct customer edge to d (len 1) beats any
        // other path.
        topo.add_provider_customer(c, d);
        topo.add_provider_customer(b, c);
        topo.add_provider_customer(a, b);
        topo.add_peering(a, d);
        let routes = routes_to_origin(&topo, d);
        assert_eq!(routes[&c].class, RouteClass::Customer);
        assert_eq!(routes[&c].path_len, 1);
        // a: customer route via b->c->d has length 3; peer route via the
        // direct peering with d has length 1. Customer still wins.
        assert_eq!(routes[&a].class, RouteClass::Customer);
        assert_eq!(routes[&a].path_len, 3);
    }

    #[test]
    fn compare_origins_prefers_closer_attacker() {
        let (topo, map) = AsTopology::small_test_topology();
        // Victim stub1 (under tr1), attacker stub3 (under tr2). stub2 sits
        // under tr1 and should route to the victim; stub4 sits under tr3/t1b.
        let decision = compare_origins(&topo, map["stub1"], map["stub3"]);
        assert_eq!(decision[&map["tr1"]], map["stub1"], "tr1 has a customer route to its own stub");
        assert_eq!(decision[&map["tr2"]], map["stub3"]);
        assert_eq!(decision[&map["stub2"]], map["stub1"]);
        assert_eq!(decision[&map["stub3"]], map["stub3"]);
        // Every AS decided one way or the other.
        assert_eq!(decision.len(), topo.len());
    }

    #[test]
    fn route_preference_ordering() {
        let customer = RouteInfo { class: RouteClass::Customer, path_len: 5, next_hop: AsId(9) };
        let peer = RouteInfo { class: RouteClass::Peer, path_len: 1, next_hop: AsId(9) };
        let provider_short = RouteInfo { class: RouteClass::Provider, path_len: 1, next_hop: AsId(9) };
        let provider_long = RouteInfo { class: RouteClass::Provider, path_len: 3, next_hop: AsId(9) };
        assert!(customer.better_than(&peer));
        assert!(peer.better_than(&provider_short));
        assert!(provider_short.better_than(&provider_long));
    }
}
