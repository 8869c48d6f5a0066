//! AS-level Internet topology.
//!
//! The paper's same-prefix-hijack numbers come from simulations over the
//! CAIDA AS-relationship graph with Gao-Rexford-compliant path selection
//! (Section 5.1.2, using the simulator of Hlavacek et al.). CAIDA data is not
//! redistributable here, so this module provides a **synthetic topology
//! generator** that reproduces the structural features those simulations
//! depend on: a small, fully-meshed clique of tier-1 transit-free providers,
//! a middle layer of transit ASes multi-homed to larger providers, a large
//! population of stub ASes (most of the Internet), and peer links that short-
//! circuit the hierarchy. Relationships are the standard customer-provider
//! and peer-peer types.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;
use std::collections::{BTreeMap, HashMap, HashSet};

/// An autonomous system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsId(pub u32);

impl std::fmt::Display for AsId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Size/role class of an AS (used by the topology generator and by the
/// population models, which e.g. give universities large announcements and
/// RPKI repository operators /24s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsTier {
    /// Transit-free tier-1 provider.
    Tier1,
    /// Mid-size transit provider.
    Transit,
    /// Stub/edge AS (enterprise, university, eyeball network).
    Stub,
}

/// Business relationship between two adjacent ASes, from the perspective of
/// the first AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Relationship {
    /// The neighbour is a customer (we provide transit to them).
    Customer,
    /// The neighbour is a settlement-free peer.
    Peer,
    /// The neighbour is a provider (they provide transit to us).
    Provider,
}

/// The AS-level topology graph.
#[derive(Debug, Clone, Default)]
pub struct AsTopology {
    // BTreeMaps, not HashMaps: iteration order (e.g. `ases()`) must be a
    // pure function of the contents, or two same-seed topologies would feed
    // differently-ordered AS lists into downstream sampling and silently
    // break the workspace-wide bit-identical-replay guarantee.
    tiers: BTreeMap<AsId, AsTier>,
    /// adjacency: for each AS, its neighbours and the relationship *of the
    /// neighbour to this AS* (e.g. `Customer` means "that neighbour is my
    /// customer").
    neighbors: BTreeMap<AsId, Vec<(AsId, Relationship)>>,
}

impl AsTopology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        AsTopology::default()
    }

    /// Adds an AS with the given tier.
    pub(crate) fn add_as(&mut self, id: AsId, tier: AsTier) {
        self.tiers.insert(id, tier);
        self.neighbors.entry(id).or_default();
    }

    /// Adds a customer-provider edge: `provider` provides transit to `customer`.
    pub(crate) fn add_provider_customer(&mut self, provider: AsId, customer: AsId) {
        self.neighbors.entry(provider).or_default().push((customer, Relationship::Customer));
        self.neighbors.entry(customer).or_default().push((provider, Relationship::Provider));
    }

    /// Adds a settlement-free peering edge.
    pub(crate) fn add_peering(&mut self, a: AsId, b: AsId) {
        self.neighbors.entry(a).or_default().push((b, Relationship::Peer));
        self.neighbors.entry(b).or_default().push((a, Relationship::Peer));
    }

    /// All AS identifiers.
    pub fn ases(&self) -> impl Iterator<Item = AsId> + '_ {
        self.tiers.keys().copied()
    }

    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    /// Whether the topology is empty.
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    /// The tier of an AS.
    pub fn tier(&self, id: AsId) -> Option<AsTier> {
        self.tiers.get(&id).copied()
    }

    /// Neighbours of an AS with their relationship to it.
    pub(crate) fn neighbors(&self, id: AsId) -> &[(AsId, Relationship)] {
        self.neighbors.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All ASes of a given tier.
    pub fn ases_of_tier(&self, tier: AsTier) -> Vec<AsId> {
        let mut v: Vec<AsId> = self.tiers.iter().filter(|(_, &t)| t == tier).map(|(&id, _)| id).collect();
        v.sort();
        v
    }

    /// Providers of an AS.
    pub fn providers(&self, id: AsId) -> Vec<AsId> {
        self.neighbors(id).iter().filter(|(_, r)| *r == Relationship::Provider).map(|(n, _)| *n).collect()
    }

    /// Peers of an AS.
    pub fn peers(&self, id: AsId) -> Vec<AsId> {
        self.neighbors(id).iter().filter(|(_, r)| *r == Relationship::Peer).map(|(n, _)| *n).collect()
    }

    /// Generates a synthetic Internet-like topology.
    ///
    /// * `tier1` tier-1 ASes, fully meshed with peer links;
    /// * `transit` transit ASes, each with 1–3 providers drawn from tier-1 and
    ///   earlier transit ASes, plus sparse peering among themselves;
    /// * `stubs` stub ASes, each with 1–2 providers drawn from the transit layer.
    ///
    /// Deterministic for a given `seed`.
    pub fn generate(tier1: usize, transit: usize, stubs: usize, seed: u64) -> Self {
        let mut rng = ChaCha20Rng::seed_from_u64(seed);
        let mut topo = AsTopology::new();
        let mut next_id = 1u32;
        let mut alloc = |n: usize| -> Vec<AsId> {
            let ids: Vec<AsId> = (0..n).map(|i| AsId(next_id + i as u32)).collect();
            next_id += n as u32;
            ids
        };

        let tier1_ids = alloc(tier1.max(1));
        let transit_ids = alloc(transit);
        let stub_ids = alloc(stubs);

        for &id in &tier1_ids {
            topo.add_as(id, AsTier::Tier1);
        }
        // Full mesh of peer links among tier-1s.
        for (i, &a) in tier1_ids.iter().enumerate() {
            for &b in &tier1_ids[i + 1..] {
                topo.add_peering(a, b);
            }
        }

        for &id in &transit_ids {
            topo.add_as(id, AsTier::Transit);
        }
        for (i, &id) in transit_ids.iter().enumerate() {
            let mut candidates: Vec<AsId> = tier1_ids.clone();
            candidates.extend_from_slice(&transit_ids[..i]);
            let n_providers = rng.gen_range(1..=3.min(candidates.len()));
            candidates.shuffle(&mut rng);
            let mut chosen = HashSet::new();
            for &p in candidates.iter().take(n_providers) {
                if chosen.insert(p) {
                    topo.add_provider_customer(p, id);
                }
            }
        }
        // Sparse peering among transits. Skip pairs that already have a
        // provider-customer edge: a second, conflicting adjacency would make
        // the relationship between the pair ambiguous.
        for (i, &a) in transit_ids.iter().enumerate() {
            for &b in &transit_ids[i + 1..] {
                if rng.gen::<f64>() < 0.05 && !topo.neighbors(a).iter().any(|&(n, _)| n == b) {
                    topo.add_peering(a, b);
                }
            }
        }

        for &id in &stub_ids {
            topo.add_as(id, AsTier::Stub);
        }
        for &id in &stub_ids {
            let pool: &[AsId] = if transit_ids.is_empty() { &tier1_ids } else { &transit_ids };
            let n_providers = if rng.gen::<f64>() < 0.3 { 2 } else { 1 }.min(pool.len());
            // Use an ordered set so the edge insertion order (and therefore
            // the whole topology) is reproducible for a given seed.
            let mut chosen = std::collections::BTreeSet::new();
            while chosen.len() < n_providers {
                let p = pool[rng.gen_range(0..pool.len())];
                chosen.insert(p);
            }
            for p in chosen {
                topo.add_provider_customer(p, id);
            }
        }
        topo
    }

    /// A small hand-built topology useful in unit tests and examples:
    ///
    /// ```text
    ///        T1a ==== T1b          (peers)
    ///        /  \      \
    ///      Tr1   Tr2    Tr3        (transit customers)
    ///      /  \    \     \
    ///   Stub1 Stub2 Stub3 Stub4    (stubs)
    /// ```
    pub fn small_test_topology() -> (Self, HashMap<&'static str, AsId>) {
        let mut topo = AsTopology::new();
        let names: Vec<(&str, AsTier)> = vec![
            ("t1a", AsTier::Tier1),
            ("t1b", AsTier::Tier1),
            ("tr1", AsTier::Transit),
            ("tr2", AsTier::Transit),
            ("tr3", AsTier::Transit),
            ("stub1", AsTier::Stub),
            ("stub2", AsTier::Stub),
            ("stub3", AsTier::Stub),
            ("stub4", AsTier::Stub),
        ];
        let mut map = HashMap::new();
        for (i, (name, tier)) in names.iter().enumerate() {
            let id = AsId(i as u32 + 100);
            topo.add_as(id, *tier);
            map.insert(*name, id);
        }
        topo.add_peering(map["t1a"], map["t1b"]);
        topo.add_provider_customer(map["t1a"], map["tr1"]);
        topo.add_provider_customer(map["t1a"], map["tr2"]);
        topo.add_provider_customer(map["t1b"], map["tr3"]);
        topo.add_provider_customer(map["tr1"], map["stub1"]);
        topo.add_provider_customer(map["tr1"], map["stub2"]);
        topo.add_provider_customer(map["tr2"], map["stub3"]);
        topo.add_provider_customer(map["tr3"], map["stub4"]);
        (topo, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_topology_has_requested_sizes() {
        let topo = AsTopology::generate(5, 20, 100, 42);
        assert_eq!(topo.len(), 125);
        assert_eq!(topo.ases_of_tier(AsTier::Tier1).len(), 5);
        assert_eq!(topo.ases_of_tier(AsTier::Transit).len(), 20);
        assert_eq!(topo.ases_of_tier(AsTier::Stub).len(), 100);
        assert!(!topo.is_empty());
    }

    #[test]
    fn tier1_full_mesh() {
        let topo = AsTopology::generate(6, 10, 50, 1);
        for a in topo.ases_of_tier(AsTier::Tier1) {
            assert!(topo.peers(a).len() >= 5, "tier-1 {a} peers with all other tier-1s");
            assert!(topo.providers(a).is_empty(), "tier-1 ASes are transit-free");
        }
    }

    #[test]
    fn every_non_tier1_has_a_provider() {
        let topo = AsTopology::generate(4, 15, 200, 7);
        for id in topo.ases() {
            if topo.tier(id) != Some(AsTier::Tier1) {
                assert!(!topo.providers(id).is_empty(), "{id} must have a provider");
            }
        }
    }

    #[test]
    fn stubs_have_no_customers() {
        let topo = AsTopology::generate(4, 15, 200, 7);
        for id in topo.ases_of_tier(AsTier::Stub) {
            assert!(!topo.neighbors(id).iter().any(|(_, r)| *r == Relationship::Customer));
        }
    }

    #[test]
    fn relationships_are_symmetric() {
        let topo = AsTopology::generate(3, 10, 60, 3);
        for a in topo.ases() {
            for &(b, rel) in topo.neighbors(a) {
                let reverse = topo.neighbors(b).iter().find(|(n, _)| *n == a).map(|(_, r)| *r);
                let expected = match rel {
                    Relationship::Customer => Relationship::Provider,
                    Relationship::Provider => Relationship::Customer,
                    Relationship::Peer => Relationship::Peer,
                };
                assert_eq!(reverse, Some(expected));
            }
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = AsTopology::generate(4, 10, 50, 99);
        let b = AsTopology::generate(4, 10, 50, 99);
        let edge_count = |t: &AsTopology| t.neighbors.values().map(Vec::len).sum::<usize>() / 2;
        assert_eq!(edge_count(&a), edge_count(&b));
        for id in a.ases() {
            assert_eq!(a.neighbors(id), b.neighbors(id));
        }
    }

    #[test]
    fn small_test_topology_shape() {
        let (topo, map) = AsTopology::small_test_topology();
        assert_eq!(topo.len(), 9);
        assert_eq!(topo.peers(map["t1a"]), vec![map["t1b"]]);
        assert_eq!(topo.providers(map["stub1"]), vec![map["tr1"]]);
        assert_eq!(topo.neighbors(map["tr1"]).iter().filter(|(_, r)| *r == Relationship::Customer).count(), 2);
    }
}
