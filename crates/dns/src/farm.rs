//! A resolver farm under background load — the engine-scale workload.
//!
//! The paper's attacks play out against resolvers serving *real* traffic, but
//! every attack scenario elsewhere in the workspace is a handful-of-hosts
//! environment. This module builds the first production-shaped simulation:
//! `N` anycast resolver frontends sharing one [`SharedCache`], an
//! authoritative nameserver for a synthetic query zone, and a block of
//! arena-hosted stub clients (see [`netsim::engine::StubHandler`]) issuing a
//! Poisson-ish seeded background query stream. One simulation comfortably
//! holds 10⁵–10⁶ clients; `xlayer-core::farm` partitions bigger populations
//! into per-shard simulations that fan out over the campaign worker pool.
//!
//! Clients draw exponential inter-query think times from the simulation RNG,
//! so the aggregate stream is Poisson-ish, fully seeded, and byte-identical
//! given the same seed.

use crate::cache::SharedCache;
use crate::message::{Message, Rcode};
use crate::name::DomainName;
use crate::nameserver::{Nameserver, NameserverConfig};
use crate::rdata::RecordType;
use crate::resolver::{Resolver, ResolverConfig};
use crate::well_known_ports;
use crate::zone::Zone;
use netsim::engine::{NodeId, StubCtx, StubHandler, StubId, StubTimer};
use netsim::prelude::{Ipv4Addr, Simulator, UdpDatagram};
use netsim::time::{Duration, SimTime};
use rand::Rng;

/// The authoritative nameserver for the synthetic load zone.
pub const FARM_NAMESERVER: Ipv4Addr = Ipv4Addr::new(123, 0, 1, 53);
/// First anycast frontend address; frontend `i` is `FARM_RESOLVER_BASE + i`.
pub const FARM_RESOLVER_BASE: Ipv4Addr = Ipv4Addr::new(30, 0, 1, 1);
/// Base address of the client block (CGNAT space, plenty of room for 10⁶+).
pub const FARM_CLIENT_BASE: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 0);

/// Timer kind used by [`FarmClientHandler`] for the next background query.
pub const TIMER_NEXT_QUERY: u8 = 1;

/// Configuration of one farm simulation (one shard of the big population).
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Simulator seed.
    pub seed: u64,
    /// Number of anycast resolver frontends sharing the cache.
    pub resolvers: u32,
    /// Number of stub clients.
    pub clients: u32,
    /// Size of the query-name pool (`q0.load.test` …).
    pub names: u32,
    /// Mean think time between two queries of one client.
    pub mean_think: Duration,
    /// Length of the background stream (clients stop scheduling after this).
    pub duration: Duration,
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig {
            seed: 2021,
            resolvers: 4,
            clients: 10_000,
            names: 512,
            mean_think: Duration::from_secs(2),
            duration: Duration::from_secs(10),
        }
    }
}

/// Handles of a built farm simulation.
pub struct Farm {
    /// The resolver frontends, in address order.
    pub resolvers: Vec<NodeId>,
    /// Their addresses (`FARM_RESOLVER_BASE + i`).
    pub resolver_addrs: Vec<Ipv4Addr>,
    /// The authoritative nameserver of the load zone.
    pub nameserver: NodeId,
    /// First stub client of the block.
    pub first_client: StubId,
    /// The cache shared by every frontend.
    pub cache: SharedCache,
    /// The configuration the farm was built from.
    pub config: FarmConfig,
}

telemetry::counters! {
    /// Deterministic, mergeable counters describing one farm run. Everything in
    /// here is a pure function of the seed (wall-clock timing deliberately lives
    /// outside, in the bench harness), so equality across worker counts is the
    /// determinism contract. Exported under `dns.farm.*`.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct FarmStats {
        /// Stub clients simulated.
        pub clients: u64 => "clients",
        /// Background queries sent by the clients.
        pub queries_sent: u64 => "queries_sent",
        /// Responses delivered back to the clients.
        pub responses: u64 => "responses",
        /// Responses carrying a non-`NoError` rcode.
        pub error_responses: u64 => "error_responses",
        /// Client queries answered straight from the shared cache.
        pub cache_answers: u64 => "cache_answers",
        /// Queries the frontends sent upstream.
        pub upstream_queries: u64 => "upstream_queries",
        /// SERVFAILs the frontends returned.
        pub servfails: u64 => "servfails",
        /// Entries in the shared cache when the run ended.
        pub cache_entries: u64 => "cache_entries",
        /// Packets delivered to any host (the bench's work metric).
        pub packets_delivered: u64 => "packets_delivered",
        /// Bytes delivered to any host.
        pub bytes_delivered: u64 => "bytes_delivered",
        /// Simulated end time in nanoseconds (max across shards on merge).
        pub sim_end_ns: u64 => gauge "sim_end_ns",
    }
    pub fn merge;
    pub fn export_metrics() => "dns.farm";
}

/// The shared behaviour of every background client: think (exponential),
/// query a random name at the nearest anycast frontend, count the answer.
pub struct FarmClientHandler {
    /// Anycast frontends; client `i` sticks to frontend `i % len` (the
    /// stable-routing approximation of anycast catchments).
    pub targets: Vec<Ipv4Addr>,
    /// The query-name pool, built once and shared by all clients.
    pub names: Vec<DomainName>,
    /// Mean think time between queries.
    pub mean_think: Duration,
    /// No queries are scheduled at or after this time.
    pub end: SimTime,
}

impl FarmClientHandler {
    /// Builds the handler for a pool of `names` synthetic zone names.
    pub fn new(targets: Vec<Ipv4Addr>, names: u32, mean_think: Duration, end: SimTime) -> Self {
        let names = (0..names).map(|i| format!("q{i}.load.test").parse().expect("synthetic name is valid")).collect();
        FarmClientHandler { targets, names, mean_think, end }
    }

    fn schedule_next(&self, ctx: &mut StubCtx<'_>) {
        let think = exp_sample(ctx.rng(), self.mean_think);
        if ctx.now() + think < self.end {
            ctx.set_timer(think, StubTimer { kind: TIMER_NEXT_QUERY, data: 0 });
        }
    }
}

impl StubHandler for FarmClientHandler {
    fn on_start(&mut self, ctx: &mut StubCtx<'_>) {
        self.schedule_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut StubCtx<'_>, timer: StubTimer) {
        if timer.kind != TIMER_NEXT_QUERY {
            return;
        }
        let name = self.names[ctx.rng().gen_range(0..self.names.len())].clone();
        let txid: u16 = ctx.rng().gen();
        let target = self.targets[ctx.id().0 as usize % self.targets.len()];
        let query = Message::query(txid, name, RecordType::A);
        let pkt =
            UdpDatagram::new(ctx.addr(), target, well_known_ports::STUB_CLIENT, well_known_ports::DNS, query.encode())
                .into_packet(txid, 64);
        ctx.send(pkt);
        self.schedule_next(ctx);
    }

    fn on_packet(&mut self, ctx: &mut StubCtx<'_>, pkt: &netsim::prelude::Ipv4Packet) {
        // `data` counts parsed DNS responses; `failed` counts error rcodes.
        if let Ok(dgram) = UdpDatagram::parse(pkt) {
            if let Ok(msg) = Message::decode(dgram.payload) {
                ctx.state_mut().data += 1;
                if msg.header.rcode != Rcode::NoError {
                    ctx.state_mut().failed += 1;
                }
            }
        }
    }
}

/// Draws an exponentially distributed duration with the given mean, capped at
/// ten means so one unlucky draw cannot idle a client past the whole run.
pub fn exp_sample(rng: &mut impl Rng, mean: Duration) -> Duration {
    let u: f64 = rng.gen();
    let secs = -(1.0 - u).ln() * mean.as_secs_f64();
    let cap = mean.as_secs_f64() * 10.0;
    Duration::from_secs_f64(secs.min(cap))
}

/// The synthetic zone the farm queries: `names` A records under `load.test`.
pub fn load_zone(names: u32) -> Zone {
    let mut zone = Zone::new("load.test".parse().expect("valid origin"));
    zone.add_ns("ns1.load.test", FARM_NAMESERVER);
    for i in 0..names {
        let addr = Ipv4Addr::from(u32::from(Ipv4Addr::new(10, 99, 0, 0)) + i);
        zone.add_a(&format!("q{i}.load.test"), addr);
    }
    zone
}

/// Builds one farm simulation. The trace stays off (the simulator's
/// default): at 10⁵+ hosts it would dominate memory and time.
pub fn build_farm(config: FarmConfig) -> (Simulator, Farm) {
    let mut sim = Simulator::new(config.seed);

    let nameserver = sim.add_node(
        "ns",
        vec![FARM_NAMESERVER],
        Nameserver::new(NameserverConfig::new(FARM_NAMESERVER), vec![load_zone(config.names)]),
    );

    let cache = SharedCache::new();
    let mut resolvers = Vec::new();
    let mut resolver_addrs = Vec::new();
    for i in 0..config.resolvers {
        let addr = Ipv4Addr::from(u32::from(FARM_RESOLVER_BASE) + i);
        let rc = ResolverConfig::new(addr).with_delegation("load.test", vec![FARM_NAMESERVER], false);
        let id = sim.add_node(&format!("resolver{i}"), vec![addr], Resolver::with_shared_cache(rc, cache.clone()));
        sim.connect(id, nameserver, netsim::prelude::Link::with_latency(Duration::from_millis(10)));
        resolvers.push(id);
        resolver_addrs.push(addr);
    }

    let first_client = sim.add_stub_block("client", FARM_CLIENT_BASE, config.clients);
    let end = SimTime::ZERO + config.duration;
    sim.set_stub_handler(FarmClientHandler::new(resolver_addrs.clone(), config.names, config.mean_think, end));

    let farm = Farm { resolvers, resolver_addrs, nameserver, first_client, cache, config };
    (sim, farm)
}

impl Farm {
    /// Collects the deterministic counters after a run.
    pub fn stats(&self, sim: &Simulator) -> FarmStats {
        let mut s = FarmStats { clients: u64::from(self.config.clients), ..FarmStats::default() };
        let block = sim.stub_block_stats(self.first_client);
        s.queries_sent = block.udp_sent;
        s.packets_delivered = sim.counters().delivered;
        s.bytes_delivered += block.bytes_received;
        for st in sim.stub_states() {
            s.responses += u64::from(st.received);
            s.error_responses += u64::from(st.failed);
        }
        for &r in &self.resolvers {
            let rs = &sim.node_ref::<Resolver>(r).expect("resolver node").stats;
            s.cache_answers += rs.cache_answers;
            s.upstream_queries += rs.upstream_queries;
            s.servfails += rs.servfails;
            s.bytes_delivered += sim.stats(r).bytes_received;
        }
        s.bytes_delivered += sim.stats(self.nameserver).bytes_received;
        s.cache_entries = self.cache.borrow().len() as u64;
        s.sim_end_ns = sim.now().duration_since(SimTime::ZERO).as_nanos();
        s
    }
}

/// Builds, runs to quiescence, and summarises one farm shard.
pub fn run_farm_shard(config: FarmConfig) -> FarmStats {
    let (mut sim, farm) = build_farm(config);
    sim.run();
    farm.stats(&sim)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FarmConfig {
        FarmConfig {
            seed: 11,
            resolvers: 3,
            clients: 200,
            names: 32,
            mean_think: Duration::from_millis(500),
            duration: Duration::from_secs(3),
        }
    }

    #[test]
    fn farm_answers_background_load() {
        let stats = run_farm_shard(small());
        assert!(stats.queries_sent > 500, "200 clients x ~6 queries: got {}", stats.queries_sent);
        assert_eq!(stats.responses, stats.queries_sent, "every query is answered");
        assert_eq!(stats.error_responses, 0);
        assert_eq!(stats.servfails, 0);
        // The shared cache turns most queries into cache hits: upstream
        // traffic is bounded by the name pool, not the query count.
        assert!(stats.upstream_queries < stats.queries_sent / 2);
        assert!(stats.cache_entries > 0);
    }

    #[test]
    fn shared_cache_is_shared_across_frontends() {
        let (mut sim, farm) = build_farm(small());
        sim.run();
        // Every frontend has answered from cache even though each name went
        // upstream at most a handful of times (TTL refreshes): the hits were
        // primed by sibling frontends.
        let stats = farm.stats(&sim);
        assert!(stats.cache_answers > 0);
        assert!(
            stats.upstream_queries < u64::from(farm.config.names) * 3,
            "upstream bounded by pool size, not frontends x pool: {} upstream",
            stats.upstream_queries
        );
    }

    #[test]
    fn same_seed_same_stats() {
        assert_eq!(run_farm_shard(small()), run_farm_shard(small()));
        let other = FarmConfig { seed: 12, ..small() };
        assert_ne!(run_farm_shard(other), run_farm_shard(small()));
    }

    #[test]
    fn exp_sample_is_positive_and_capped() {
        let mut rng = <rand_chacha::ChaCha20Rng as rand::SeedableRng>::seed_from_u64(1);
        let mean = Duration::from_millis(100);
        for _ in 0..1000 {
            let d = exp_sample(&mut rng, mean);
            assert!(d <= Duration::from_secs(1), "capped at 10 means");
        }
    }
}
