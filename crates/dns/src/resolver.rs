//! The recursive resolver node — the victim of every attack in the paper.
//!
//! The resolver implements the RFC 5452 anti-spoofing defences and all the
//! knobs whose presence or absence the measurement campaigns test:
//!
//! * **source-port randomisation** (or weaker policies for ablations),
//! * **TXID randomisation**, matched case-sensitively against responses,
//! * optional **0x20 case randomisation** of query names,
//! * **bailiwick filtering** of response records,
//! * optional **DNSSEC validation** (modelled signatures),
//! * configurable **EDNS buffer size** (Figure 4 distribution),
//! * configurable **ANY-caching policy** (Table 5),
//! * a configurable **upstream transport policy** ([`UpstreamTransport`]):
//!   UDP only (truncated answers are unusable and surface as SERVFAIL with
//!   the TC bit echoed), RFC 7766 **TCP fallback** (a TC=1 answer triggers a
//!   re-query over TCP), or **TCP only** (the paper's strongest deployable
//!   countermeasure: no UDP ephemeral port for SadDNS to recover, no
//!   fragmented UDP answers for FragDNS to poison),
//! * the OS-level properties exposed by its [`HostStack`]: the **global ICMP
//!   rate limit** probed by SadDNS, **fragment acceptance** probed by
//!   FragDNS, and the defragmentation cache itself.
//!
//! The resolver answers clients on port 53, performs recursion towards the
//! configured delegations (or an upstream forwarder) from an ephemeral UDP
//! port per query or its one TCP client port, retries on timeout and
//! returns `SERVFAIL` when all retries fail — the symptom applications see
//! when an attacker mounts a DoS through the cache.

use crate::cache::{AnyCachingPolicy, Cache, SharedCache};
use crate::message::{frame_tcp, Message, Question, Rcode, TcpFrameBuffer};
use crate::name::DomainName;
use crate::rdata::{RData, RecordType, ResourceRecord};
use crate::well_known_ports::RESOLVER_TCP;
use netsim::fasthash::FastHashMap;
use netsim::ipv4::Protocol;
use netsim::prelude::*;
use rand::Rng;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// How the resolver chooses UDP source ports for upstream queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortPolicy {
    /// A fresh uniformly random port per query (RFC 5452 behaviour).
    Random,
    /// Sequentially increasing ports (pre-Kaminsky behaviour; trivially
    /// predictable, used for ablation experiments).
    Sequential(u16),
    /// A single fixed port for every query (worst case).
    Fixed(u16),
}

/// Which transport the resolver uses for upstream queries (RFC 7766).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpstreamTransport {
    /// UDP only, no TCP support: a truncated (TC=1) answer is unusable —
    /// the resolver answers its clients SERVFAIL (with the TC bit echoed)
    /// instead of silently dropping the lookup.
    UdpOnly,
    /// UDP first; on a TC=1 response the resolver re-queries the same
    /// question over TCP with a fresh TXID (the RFC 7766 behaviour).
    UdpTcFallback,
    /// Every upstream query goes over TCP. This is the `DnsOverTcp`
    /// defence: there is no UDP ephemeral port for the SadDNS side channel
    /// to recover and responses never travel as fragmentable UDP datagrams,
    /// so FragDNS has nothing to poison.
    TcpOnly,
}

/// A delegation entry: queries for names under `zone` are sent to one of the
/// listed nameserver addresses. `signed` marks DNSSEC-signed zones.
#[derive(Debug, Clone)]
pub struct Delegation {
    /// The zone suffix this delegation covers.
    pub zone: DomainName,
    /// Authoritative nameserver addresses.
    pub nameservers: Vec<Ipv4Addr>,
    /// Whether the zone is DNSSEC-signed (a validating resolver will run
    /// the full RRSIG/denial validation pipeline on its responses).
    pub signed: bool,
    /// The DS trust anchor chaining the zone's KSK to this resolver. A
    /// signed zone *without* an anchor validates as `Insecure` — the
    /// downgrade gap the DowngradeToInsecure vector drives through.
    pub trust_anchor: Option<crate::dnssec::DsAnchor>,
}

/// Configuration of a recursive resolver.
#[derive(Debug, Clone)]
pub struct ResolverConfig {
    /// Address the resolver listens on and queries from.
    pub addr: Ipv4Addr,
    /// Source-port selection policy.
    pub port_policy: PortPolicy,
    /// Inclusive range from which random ephemeral ports are drawn. The
    /// (1024, 65535) default models the full ephemeral range; experiments
    /// that need a faster SadDNS scan narrow it and scale results up.
    pub port_range: (u16, u16),
    /// Whether 0x20 case randomisation is applied to outgoing queries.
    pub use_0x20: bool,
    /// Whether (modelled) DNSSEC validation is performed for signed zones.
    pub validate_dnssec: bool,
    /// EDNS UDP payload size advertised in upstream queries.
    pub edns_size: u16,
    /// How ANY-derived cache entries may be reused (Table 5).
    pub any_caching: AnyCachingPolicy,
    /// ICMP error rate-limit policy of the resolver's OS (SadDNS side channel).
    pub icmp_rate_limit: IcmpRateLimitPolicy,
    /// Whether fragmented responses are accepted (FragDNS prerequisite).
    pub accept_fragments: bool,
    /// Upstream transport policy (RFC 7766). The legacy UDP-only default
    /// mirrors the measured population: most resolvers the paper scanned did
    /// not retry truncated answers over TCP.
    pub transport_policy: UpstreamTransport,
    /// Upstream query timeout before retrying.
    pub query_timeout: Duration,
    /// Number of upstream retries before answering SERVFAIL.
    pub max_retries: u32,
    /// Known delegations (zone -> authoritative nameservers).
    pub delegations: Vec<Delegation>,
    /// When set, the resolver acts as a forwarder and sends every query to
    /// this upstream recursive resolver instead of the authoritative servers.
    pub upstream: Option<Ipv4Addr>,
}

impl ResolverConfig {
    /// A standard, RFC 5452-compliant resolver with the vulnerable Linux
    /// global ICMP rate limit and fragment acceptance (the common baseline
    /// the paper measures against).
    pub fn new(addr: Ipv4Addr) -> Self {
        ResolverConfig {
            addr,
            port_policy: PortPolicy::Random,
            port_range: (1024, u16::MAX),
            use_0x20: false,
            validate_dnssec: false,
            edns_size: 4096,
            any_caching: AnyCachingPolicy::CacheAndUse,
            icmp_rate_limit: IcmpRateLimitPolicy::linux_default(),
            accept_fragments: true,
            transport_policy: UpstreamTransport::UdpOnly,
            query_timeout: Duration::from_secs(2),
            max_retries: 2,
            delegations: Vec::new(),
            upstream: None,
        }
    }

    /// Adds a delegation.
    pub fn with_delegation(mut self, zone: &str, nameservers: Vec<Ipv4Addr>, signed: bool) -> Self {
        self.delegations.push(Delegation {
            zone: zone.parse().expect("valid zone"),
            nameservers,
            signed,
            trust_anchor: None,
        });
        self
    }

    /// Installs a DS trust anchor for an already-added delegation.
    pub fn with_trust_anchor(mut self, zone: &str, anchor: crate::dnssec::DsAnchor) -> Self {
        let zone: DomainName = zone.parse().expect("valid zone");
        if let Some(d) = self.delegations.iter_mut().find(|d| d.zone == zone) {
            d.trust_anchor = Some(anchor);
        }
        self
    }

    /// Enables 0x20 case randomisation.
    pub fn with_0x20(mut self) -> Self {
        self.use_0x20 = true;
        self
    }

    /// Enables DNSSEC validation.
    pub fn with_dnssec_validation(mut self) -> Self {
        self.validate_dnssec = true;
        self
    }

    /// Sets the upstream transport policy.
    pub fn with_transport(mut self, policy: UpstreamTransport) -> Self {
        self.transport_policy = policy;
        self
    }
}

telemetry::counters! {
    /// Why a response was rejected (counters for the measurement harness).
    /// Exported under `dns.resolver.*`; CI greps for specific metric lines.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ResolverStats {
        /// Queries received from clients.
        pub client_queries: u64 => "client_queries",
        /// Client queries answered from cache.
        pub cache_answers: u64 => "cache_answers",
        /// Queries sent upstream (including retries and TCP re-queries).
        /// Exported as the UDP share; the TCP share is its own key.
        pub upstream_queries: u64 => "upstream_queries.udp" = |s| s.upstream_queries - s.tcp_upstream_queries,
        /// Upstream queries sent over TCP (subset of `upstream_queries`).
        pub tcp_upstream_queries: u64 => "upstream_queries.tcp",
        /// TC=1 answers that triggered an RFC 7766 re-query over TCP.
        pub tcp_fallbacks: u64 => "tc_fallbacks",
        /// Upstream responses accepted and cached.
        pub responses_accepted: u64 => "responses_accepted",
        /// Responses dropped because the TXID did not match.
        pub rejected_txid: u64 => "rejected.txid",
        /// Responses dropped because the question (or its 0x20 casing) mismatched.
        pub rejected_question: u64 => "rejected.question",
        /// Records dropped by bailiwick filtering.
        pub rejected_bailiwick_records: u64 => "rejected.bailiwick_records",
        /// Responses dropped by DNSSEC validation.
        pub rejected_dnssec: u64 => "bogus_dropped",
        /// Truncated (TC=1) responses received over UDP. Without TCP support the
        /// lookup fails visibly (SERVFAIL + TC to the clients); with
        /// [`UpstreamTransport::UdpTcFallback`] each one also counts a
        /// `tcp_fallbacks` re-query.
        pub truncated_responses: u64 => "truncated_responses",
        /// Upstream timeouts.
        pub timeouts: u64 => "timeouts",
        /// SERVFAIL answers returned to clients.
        pub servfails: u64 => "servfails",
    }
    pub fn merge;
    pub fn export_metrics() => "dns.resolver";
}

#[derive(Debug, Clone)]
struct Outstanding {
    txid: u16,
    question: Question,
    /// Question as sent on the wire (0x20-cased).
    wire_question: Question,
    /// Transport of the current attempt (a TC fallback flips UDP -> TCP).
    transport: Protocol,
    /// Attempt generation, bumped on every retry or transport switch. Timer
    /// tokens carry it so a timer armed for a superseded attempt (e.g. the
    /// UDP timer of a query that already fell back to TCP) cannot fire a
    /// spurious timeout against the live attempt.
    attempt: u32,
    port: u16,
    nameserver: Ipv4Addr,
    bailiwick: DomainName,
    signed_zone: bool,
    trust_anchor: Option<crate::dnssec::DsAnchor>,
    retries_left: u32,
    clients: Vec<ClientRef>,
    /// Original query type requested by the client (ANY handling).
    client_qtype: RecordType,
}

#[derive(Debug, Clone, Copy)]
struct ClientRef {
    addr: Ipv4Addr,
    port: u16,
    txid: u16,
}

/// The recursive resolver node.
pub struct Resolver {
    stack: HostStack,
    config: ResolverConfig,
    cache: SharedCache,
    /// The upstream TCP client socket (all connections share the fixed
    /// [`RESOLVER_TCP`] port; one connection per nameserver, reused).
    tcp: TcpSocket,
    /// Per-nameserver reassembly of length-prefixed TCP answers.
    tcp_rx: HashMap<Endpoint, TcpFrameBuffer>,
    outstanding: FastHashMap<u64, Outstanding>,
    /// The outstanding UDP query each ephemeral port belongs to. Every port
    /// here is open on `stack`, whose port table (port 53 plus these) is
    /// what the SadDNS scan probes.
    port_to_token: FastHashMap<u16, u64>,
    next_token: u64,
    next_sequential_port: u16,
    /// Counters.
    pub stats: ResolverStats,
}

impl Resolver {
    /// Creates a resolver with its own private cache.
    pub fn new(config: ResolverConfig) -> Self {
        Resolver::with_shared_cache(config, SharedCache::new())
    }

    /// Creates a resolver answering from (and feeding) a [`SharedCache`] —
    /// one frontend of an anycast fleet. Every resolver built from a clone of
    /// the same handle shares cache contents, hits, and poisoning state.
    pub fn with_shared_cache(config: ResolverConfig, cache: SharedCache) -> Self {
        let stack_cfg = StackConfig {
            icmp_rate_limit: config.icmp_rate_limit,
            accept_fragments: config.accept_fragments,
            ipid_policy: IpIdPolicy::Random,
            ..Default::default()
        };
        let mut stack = HostStack::new(vec![config.addr], stack_cfg);
        stack.open_port(crate::well_known_ports::DNS);
        stack.open_tcp_port(RESOLVER_TCP);
        let next_sequential_port = match config.port_policy {
            PortPolicy::Sequential(start) => start,
            _ => 10_000,
        };
        Resolver {
            stack,
            config,
            cache,
            tcp: TcpSocket::client(RESOLVER_TCP),
            tcp_rx: HashMap::new(),
            outstanding: FastHashMap::default(),
            port_to_token: FastHashMap::default(),
            next_token: 1,
            next_sequential_port,
            stats: ResolverStats::default(),
        }
    }

    /// The resolver's address.
    pub fn addr(&self) -> Ipv4Addr {
        self.config.addr
    }

    /// Read access to the cache (poisoning checks, cross-application probes).
    pub fn cache(&self) -> std::cell::Ref<'_, Cache> {
        self.cache.borrow()
    }

    /// Mutable access to the cache (operator interventions in experiments).
    pub fn cache_mut(&mut self) -> std::cell::RefMut<'_, Cache> {
        self.cache.borrow_mut()
    }

    /// Exports this resolver's deterministic counters into a telemetry
    /// snapshot: `dns.resolver.*` (see [`ResolverStats::export_metrics`])
    /// plus the cache's `dns.cache.*` hit/miss/expired/insertion counters.
    pub fn export_metrics(&self, m: &mut telemetry::MetricsSnapshot) {
        self.stats.export_metrics(m);
        let cache = self.cache.borrow();
        m.incr("dns.cache.hits", cache.hits);
        m.incr("dns.cache.misses", cache.misses);
        m.incr("dns.cache.expired", cache.expired);
        m.incr("dns.cache.insertions", cache.insertions);
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &ResolverConfig {
        &self.config
    }

    /// Read access to the OS stack (ICMP limiter inspection in measurements).
    pub fn stack(&self) -> &HostStack {
        &self.stack
    }

    /// Ephemeral UDP ports with outstanding upstream queries — what the
    /// SadDNS port scan is trying to find. Empty while the resolver queries
    /// over TCP, which is exactly why that policy closes the side channel.
    pub fn outstanding_ports(&self) -> Vec<u16> {
        self.port_to_token.keys().copied().collect()
    }

    /// Number of outstanding upstream queries.
    pub fn outstanding_count(&self) -> usize {
        self.outstanding.len()
    }

    /// Per-connection statistics of the upstream TCP socket.
    pub fn tcp_flows(&self) -> Vec<FlowStats> {
        self.tcp.flows()
    }

    /// Whether the resolver's cache maps `name` to `addr` — the canonical
    /// "was the cache poisoned?" check used by the attack harnesses.
    pub fn is_poisoned_with(&self, name: &DomainName, addr: Ipv4Addr, now: SimTime) -> bool {
        self.cache.borrow().is_poisoned_with(name, addr, now)
    }

    fn allocate_port(&mut self, rng: &mut impl Rng) -> u16 {
        match self.config.port_policy {
            PortPolicy::Random => loop {
                let (lo, hi) = self.config.port_range;
                let p = rng.gen_range(lo..=hi);
                if !self.stack.is_port_open(p) {
                    return p;
                }
            },
            PortPolicy::Sequential(_) => {
                let p = self.next_sequential_port;
                self.next_sequential_port = self.next_sequential_port.wrapping_add(1).max(1024);
                p
            }
            PortPolicy::Fixed(p) => p,
        }
    }

    /// Packs a query token and its attempt generation into one timer token.
    /// Tokens are sequential from 1, so 56 bits are plenty.
    fn timer_token(token: u64, attempt: u32) -> u64 {
        (token << 8) | u64::from(attempt & 0xff)
    }

    fn delegation_for(&self, name: &DomainName) -> Option<&Delegation> {
        self.config.delegations.iter().filter(|d| name.is_subdomain_of(&d.zone)).max_by_key(|d| d.zone.label_count())
    }

    /// Starts (or restarts) an upstream query. Returns `false` when no
    /// nameserver is known for the name.
    fn send_upstream(&mut self, token: u64, ctx: &mut Ctx<'_>) -> bool {
        let Some(entry) = self.outstanding.get(&token).cloned() else { return false };
        let query = Message::query(entry.txid, entry.wire_question.name.clone(), entry.wire_question.qtype)
            .with_edns(self.config.edns_size);
        let payload = query.encode();
        let ns = Endpoint::new(entry.nameserver, crate::well_known_ports::DNS);
        match entry.transport {
            Protocol::Tcp => {
                self.stats.tcp_upstream_queries += 1;
                let framed = frame_tcp(&payload);
                netsim::pool::give(payload);
                let tcp = &mut self.tcp;
                with_io(&mut self.stack, ctx, |io| tcp.send_to(io, ns, framed));
            }
            // Send only from a port bound on the stack: every UDP attempt
            // opens its port (and maps it here) before it sends.
            _ if self.port_to_token.contains_key(&entry.port) => {
                let dgram = UdpDatagram::new(self.config.addr, ns.addr, entry.port, ns.port, payload);
                with_io(&mut self.stack, ctx, |io| io.send_udp(dgram));
            }
            _ => netsim::pool::give(payload),
        }
        self.stats.upstream_queries += 1;
        ctx.set_timer(self.config.query_timeout, Self::timer_token(token, entry.attempt));
        true
    }

    fn start_recursion(&mut self, question: Question, client: Option<ClientRef>, ctx: &mut Ctx<'_>) {
        let (nameserver, bailiwick, signed, anchor) = if let Some(upstream) = self.config.upstream {
            (upstream, DomainName::root(), false, None)
        } else {
            match self.delegation_for(&question.name) {
                Some(d) if !d.nameservers.is_empty() => {
                    let idx = ctx.rng().gen_range(0..d.nameservers.len());
                    (d.nameservers[idx], d.zone.clone(), d.signed, d.trust_anchor.clone())
                }
                _ => {
                    // No known nameserver: SERVFAIL immediately.
                    if let Some(c) = client {
                        self.answer_client_error(&question, c, Rcode::ServFail, false, ctx);
                        self.stats.servfails += 1;
                    }
                    return;
                }
            }
        };
        let txid: u16 = ctx.rng().gen();
        let tcp_only = self.config.transport_policy == UpstreamTransport::TcpOnly;
        let (transport, port) =
            if tcp_only { (Protocol::Tcp, RESOLVER_TCP) } else { (Protocol::Udp, self.allocate_port(ctx.rng())) };
        let wire_name =
            if self.config.use_0x20 { question.name.randomize_case(ctx.rng()) } else { question.name.clone() };
        let wire_question = Question { name: wire_name, qtype: question.qtype };
        let token = self.next_token;
        self.next_token += 1;
        if transport == Protocol::Udp {
            self.stack.open_port(port);
            self.port_to_token.insert(port, token);
        }
        self.outstanding.insert(
            token,
            Outstanding {
                txid,
                question: question.clone(),
                wire_question,
                transport,
                attempt: 0,
                port,
                nameserver,
                bailiwick,
                signed_zone: signed,
                trust_anchor: anchor,
                retries_left: self.config.max_retries,
                clients: client.into_iter().collect(),
                client_qtype: question.qtype,
            },
        );
        self.send_upstream(token, ctx);
    }

    /// The wire answer to `client`: its question echoed, `records` as the
    /// answer section, encoded straight from the borrowed records.
    fn client_answer(
        client: ClientRef,
        question: &Question,
        rcode: Rcode,
        truncated: bool,
        records: &[ResourceRecord],
    ) -> Vec<u8> {
        let header = crate::message::Header {
            id: client.txid,
            is_response: true,
            authoritative: false,
            truncated,
            recursion_desired: true,
            recursion_available: true,
            authenticated_data: false,
            rcode,
        };
        Message::encode_parts(&header, std::slice::from_ref(question), [records, &[], &[]])
    }

    /// The answer carrying `records` (NXDOMAIN when there are none).
    fn records_answer(client: ClientRef, question: &Question, records: &[ResourceRecord]) -> Vec<u8> {
        let rcode = if records.is_empty() { Rcode::NxDomain } else { Rcode::NoError };
        Self::client_answer(client, question, rcode, false, records)
    }

    fn send_to_client(&mut self, client: ClientRef, payload: Vec<u8>, ctx: &mut Ctx<'_>) {
        let dgram = UdpDatagram::new(self.config.addr, client.addr, crate::well_known_ports::DNS, client.port, payload);
        with_io(&mut self.stack, ctx, |io| io.send_udp(dgram));
    }

    fn answer_client_error(
        &mut self,
        question: &Question,
        client: ClientRef,
        rcode: Rcode,
        truncated: bool,
        ctx: &mut Ctx<'_>,
    ) {
        let payload = Self::client_answer(client, question, rcode, truncated, &[]);
        self.send_to_client(client, payload, ctx);
    }

    fn handle_client_query(&mut self, dgram: UdpView<'_>, ctx: &mut Ctx<'_>) {
        let Ok(mut query) = Message::decode(dgram.payload) else { return };
        if query.header.is_response || query.questions.is_empty() {
            return;
        }
        let question = query.questions.swap_remove(0);
        self.stats.client_queries += 1;
        let client = ClientRef { addr: dgram.src, port: dgram.src_port, txid: query.header.id };

        // ANY handling per implementation profile.
        if question.qtype == RecordType::ANY && self.config.any_caching == AnyCachingPolicy::Unsupported {
            self.answer_client_error(&question, client, Rcode::NotImp, false, ctx);
            return;
        }

        // Cache lookup: a hit is encoded straight from the cached records.
        let allow_any_derived = self.config.any_caching == AnyCachingPolicy::CacheAndUse;
        let now = ctx.now();
        let cached = self
            .cache
            .borrow_mut()
            .lookup_with_policy(&question.name, question.qtype, now, allow_any_derived)
            .map(|records| Self::records_answer(client, &question, records));
        if let Some(payload) = cached {
            self.stats.cache_answers += 1;
            self.send_to_client(client, payload, ctx);
            return;
        }

        // Join an identical outstanding query if one exists.
        if let Some((_, entry)) = self
            .outstanding
            .iter_mut()
            .find(|(_, o)| o.question.name == question.name && o.question.qtype == question.qtype)
        {
            entry.clients.push(client);
            return;
        }

        self.start_recursion(question, Some(client), ctx);
    }

    /// Validates and ingests an upstream response delivered to a UDP
    /// ephemeral port.
    fn handle_upstream_response(&mut self, dgram: UdpView<'_>, ctx: &mut Ctx<'_>) {
        if let Some((token, response)) = self.decode_upstream(dgram) {
            self.ingest_upstream_response(token, response, ctx);
        }
    }

    /// The outstanding query an upstream datagram answers, and its decoded
    /// response, unless the datagram is rejected first.
    fn decode_upstream(&mut self, dgram: UdpView<'_>) -> Option<(u64, Message)> {
        let &token = self.port_to_token.get(&dgram.dst_port)?;
        // Fast header peek before the full parse: the TXID and QR bit sit at
        // fixed offsets, so off-path floods sweeping the TXID space (SadDNS
        // sprays 2^16 responses per round) are rejected without decoding
        // names and records. Anything that passes the peek takes the
        // identical full-decode path as before.
        match dgram.payload.get(..3) {
            Some(&[id_hi, id_lo, flags_hi]) => {
                if flags_hi & 0x80 == 0 {
                    // QR clear: a query, not a response. Silently ignored,
                    // exactly like the decoded `!is_response` path.
                    return None;
                }
                if let Some(entry) = self.outstanding.get(&token) {
                    if u16::from_be_bytes([id_hi, id_lo]) != entry.txid {
                        self.stats.rejected_txid += 1;
                        return None;
                    }
                }
            }
            _ => return None, // shorter than a header: Message::decode would fail
        }
        let response = Message::decode(dgram.payload).ok()?;
        response.header.is_response.then_some((token, response))
    }

    /// The shared validation pipeline for upstream responses, regardless of
    /// the transport they arrived over: TXID, question echo (0x20), TC
    /// handling, bailiwick filtering, DNSSEC, then acceptance.
    fn ingest_upstream_response(&mut self, token: u64, response: Message, ctx: &mut Ctx<'_>) {
        let Some(entry) = self.outstanding.get(&token).cloned() else { return };

        // Challenge validation: TXID.
        if response.header.id != entry.txid {
            self.stats.rejected_txid += 1;
            return;
        }
        // Challenge validation: question echo (0x20 when enabled).
        let Some(echoed) = response.question() else {
            self.stats.rejected_question += 1;
            return;
        };
        let question_ok = if self.config.use_0x20 {
            echoed.name.eq_case_sensitive(&entry.wire_question.name) && echoed.qtype == entry.wire_question.qtype
        } else {
            echoed.name == entry.wire_question.name && echoed.qtype == entry.wire_question.qtype
        };
        if !question_ok {
            self.stats.rejected_question += 1;
            return;
        }

        // A truncated answer carries no usable records (RFC 2181 §9 — and
        // this server strips them anyway). What happens next is the
        // transport policy's call.
        if response.header.truncated {
            self.stats.truncated_responses += 1;
            if self.config.transport_policy == UpstreamTransport::UdpTcFallback && entry.transport == Protocol::Udp {
                // RFC 7766: re-query the same question over TCP with a
                // fresh TXID; the UDP side of the query is torn down.
                self.stats.tcp_fallbacks += 1;
                self.port_to_token.remove(&entry.port);
                self.stack.close_port(entry.port);
                let new_txid: u16 = ctx.rng().gen();
                if let Some(e) = self.outstanding.get_mut(&token) {
                    e.transport = Protocol::Tcp;
                    e.txid = new_txid;
                    e.port = RESOLVER_TCP;
                    // New generation: the UDP attempt's pending timer must
                    // not abort the TCP re-query it was superseded by.
                    e.attempt = e.attempt.wrapping_add(1);
                }
                self.send_upstream(token, ctx);
            } else {
                // No TCP path: the lookup fails *visibly* — clients get
                // SERVFAIL with the TC bit echoed so the outcome is
                // distinguishable from an ordinary upstream timeout.
                self.finish_query_truncated(token, ctx);
            }
            return;
        }

        // Bailiwick filtering.
        let mut in_bailiwick: Vec<ResourceRecord> = Vec::new();
        for rr in response.all_records() {
            if matches!(rr.rdata, RData::Opt { .. }) {
                continue;
            }
            if rr.name.is_subdomain_of(&entry.bailiwick) {
                in_bailiwick.push(rr.clone());
            } else {
                self.stats.rejected_bailiwick_records += 1;
            }
        }

        // DNSSEC validation: for signed zones a validating resolver runs the
        // full RFC 4035 pipeline — the DNSKEY RRset must chain to the DS
        // trust anchor, every RRset must carry a verifying RRSIG, and an
        // *empty* answer needs authenticated denial of existence via
        // NSEC/NSEC3 (RFC 4035 §3.1.3). A bogus response is dropped; an
        // `Insecure` one (no anchor, or opt-out-covered) is accepted
        // unauthenticated — the downgrade surface.
        if self.config.validate_dnssec && entry.signed_zone {
            let now_secs = crate::dnssec::sim_secs(ctx.now());
            let validator =
                crate::dnssec::Validator::new(entry.bailiwick.clone(), entry.trust_anchor.clone(), now_secs);
            let verdict = validator.validate(&in_bailiwick, &entry.question.name, entry.question.qtype);
            if let crate::dnssec::Validation::Bogus(_) = verdict {
                self.stats.rejected_dnssec += 1;
                return;
            }
        }

        self.stats.responses_accepted += 1;
        let now = ctx.now();
        let from_any = entry.client_qtype == RecordType::ANY;
        self.cache.borrow_mut().insert_records(&in_bailiwick, now, from_any);
        let answers: Vec<ResourceRecord> = in_bailiwick
            .iter()
            .filter(|r| {
                entry.client_qtype == RecordType::ANY
                    || r.rtype() == entry.client_qtype
                    || r.rtype() == RecordType::CNAME
            })
            .cloned()
            .collect();
        self.finish_query(token, &answers, ctx);
    }

    /// Ingests stream bytes from an upstream TCP connection, matching each
    /// complete frame to its outstanding query. The match key is the echoed
    /// question (unique across outstanding queries because identical client
    /// queries join) plus the nameserver — TXID and 0x20 are then enforced
    /// by the shared validation path.
    fn handle_tcp_data(&mut self, peer: Endpoint, payload: &[u8], ctx: &mut Ctx<'_>) {
        for frame in TcpFrameBuffer::push_and_drain(&mut self.tcp_rx, peer, payload) {
            let Ok(response) = Message::decode(&frame) else { continue };
            if !response.header.is_response {
                continue;
            }
            let Some(echoed) = response.question().cloned() else { continue };
            let token = self
                .outstanding
                .iter()
                .find(|(_, o)| {
                    o.transport == Protocol::Tcp
                        && o.nameserver == peer.addr
                        && o.wire_question.name == echoed.name
                        && o.wire_question.qtype == echoed.qtype
                })
                .map(|(t, _)| *t);
            if let Some(token) = token {
                self.ingest_upstream_response(token, response, ctx);
            }
        }
    }

    /// Processes one TCP segment through the upstream socket.
    fn handle_tcp_segment(&mut self, seg: TcpSegment, ctx: &mut Ctx<'_>) {
        let tcp = &mut self.tcp;
        let sock_events = with_io(&mut self.stack, ctx, |io| tcp.handle(io, seg));
        for se in sock_events {
            match se {
                SocketEvent::Data { peer, payload, .. } => {
                    self.handle_tcp_data(peer, &payload, ctx);
                    netsim::pool::give(payload);
                }
                SocketEvent::PeerClosed { peer, .. } | SocketEvent::Reset { peer, .. } => {
                    self.tcp_rx.remove(&peer);
                }
                SocketEvent::Connected { .. } => {}
            }
        }
    }

    /// Tears down the transport side of a finished query. For TCP the
    /// connection is closed once no other outstanding query shares it
    /// (RFC 7766 connection reuse).
    fn release_transport(&mut self, entry: &Outstanding, ctx: &mut Ctx<'_>) {
        match entry.transport {
            Protocol::Udp => {
                self.port_to_token.remove(&entry.port);
                self.stack.close_port(entry.port);
            }
            Protocol::Tcp => {
                let still_used =
                    self.outstanding.values().any(|o| o.transport == Protocol::Tcp && o.nameserver == entry.nameserver);
                if !still_used {
                    let peer = Endpoint::new(entry.nameserver, crate::well_known_ports::DNS);
                    self.tcp_rx.remove(&peer);
                    let tcp = &mut self.tcp;
                    with_io(&mut self.stack, ctx, |io| tcp.close_peer(io, peer));
                }
            }
            _ => {}
        }
    }

    fn finish_query(&mut self, token: u64, answers: &[ResourceRecord], ctx: &mut Ctx<'_>) {
        if let Some(entry) = self.outstanding.remove(&token) {
            self.release_transport(&entry, ctx);
            for &client in &entry.clients {
                let payload = Self::records_answer(client, &entry.question, answers);
                self.send_to_client(client, payload, ctx);
            }
        }
    }

    /// Fails a query whose only answer was truncated and unrecoverable
    /// (UDP-only resolver): SERVFAIL with the TC bit echoed to every waiting
    /// client, nothing cached.
    fn finish_query_truncated(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if let Some(entry) = self.outstanding.remove(&token) {
            self.release_transport(&entry, ctx);
            self.stats.servfails += entry.clients.len() as u64;
            for &client in &entry.clients {
                self.answer_client_error(&entry.question, client, Rcode::ServFail, true, ctx);
            }
        }
    }

    fn handle_timeout(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let Some(entry) = self.outstanding.get_mut(&token) else { return };
        self.stats.timeouts += 1;
        if entry.retries_left > 0 {
            entry.retries_left -= 1;
            entry.attempt = entry.attempt.wrapping_add(1);
            let transport = entry.transport;
            let ns = entry.nameserver;
            let old_port = entry.port;
            // New TXID per retry (fresh challenge values).
            let new_txid: u16 = ctx.rng().gen();
            entry.txid = new_txid;
            match transport {
                Protocol::Tcp => {
                    // Abort the (possibly half-open) connection so the retry
                    // starts a clean handshake — unless another outstanding
                    // query still multiplexes on an *established* connection
                    // (RFC 7766 reuse): one query's timeout must not tear
                    // down a sibling's healthy transport. A half-open or
                    // closing connection serves no sibling either, so it is
                    // aborted regardless — otherwise every sharer would just
                    // queue its retry bytes into a dead handshake.
                    let peer = Endpoint::new(ns, crate::well_known_ports::DNS);
                    let shared = self
                        .outstanding
                        .iter()
                        .any(|(t, o)| *t != token && o.transport == Protocol::Tcp && o.nameserver == ns);
                    let healthy = self.tcp.connection(peer).is_some_and(|c| c.state == TcpState::Established);
                    if !(shared && healthy) {
                        self.tcp_rx.remove(&peer);
                        let tcp = &mut self.tcp;
                        with_io(&mut self.stack, ctx, |io| tcp.abort_peer(io, peer));
                    }
                }
                _ => {
                    // New port per retry.
                    self.port_to_token.remove(&old_port);
                    self.stack.close_port(old_port);
                    let new_port = self.allocate_port(ctx.rng());
                    self.stack.open_port(new_port);
                    if let Some(entry) = self.outstanding.get_mut(&token) {
                        entry.port = new_port;
                    }
                    self.port_to_token.insert(new_port, token);
                }
            }
            self.send_upstream(token, ctx);
        } else {
            let entry = self.outstanding.get(&token).cloned().expect("checked above");
            self.stats.servfails += entry.clients.len() as u64;
            self.outstanding.remove(&token);
            self.release_transport(&entry, ctx);
            for client in entry.clients {
                self.answer_client_error(&entry.question, client, Rcode::ServFail, false, ctx);
            }
        }
    }
}

impl Node for Resolver {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Ipv4Packet) {
        match with_io(&mut self.stack, ctx, |io| io.receive(pkt)) {
            Some(StackEvent::Udp(dgram)) if dgram.dst_port == crate::well_known_ports::DNS => {
                self.handle_client_query(dgram, ctx);
            }
            Some(StackEvent::Udp(dgram)) => self.handle_upstream_response(dgram, ctx),
            Some(StackEvent::Tcp(seg)) => self.handle_tcp_segment(seg, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, raw: u64) {
        let token = raw >> 8;
        let attempt = (raw & 0xff) as u32;
        // A timer only fires for the attempt generation it was armed for:
        // stale timers of answered, retried or transport-switched attempts
        // are no-ops.
        if self.outstanding.get(&token).is_some_and(|o| o.attempt & 0xff == attempt) {
            self.handle_timeout(token, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nameserver::{Nameserver, NameserverConfig};
    use crate::zone::Zone;

    const RESOLVER_ADDR: Ipv4Addr = Ipv4Addr::new(30, 0, 0, 1);
    const NS_ADDR: Ipv4Addr = Ipv4Addr::new(123, 0, 0, 53);
    const CLIENT_ADDR: Ipv4Addr = Ipv4Addr::new(30, 0, 0, 25);
    const ATTACKER: Ipv4Addr = Ipv4Addr::new(6, 6, 6, 6);

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn victim_zone() -> Zone {
        let mut z = Zone::new(n("vict.im"));
        z.add_ns("ns1.vict.im", NS_ADDR);
        z.add_a("vict.im", "30.0.0.80".parse().unwrap());
        z.add_a("www.vict.im", "30.0.0.80".parse().unwrap());
        z.add_txt("vict.im", "v=spf1 ip4:30.0.0.0/24 -all");
        z
    }

    fn resolver_config() -> ResolverConfig {
        ResolverConfig::new(RESOLVER_ADDR).with_delegation("vict.im", vec![NS_ADDR], false)
    }

    struct Setup {
        sim: Simulator,
        resolver: NodeId,
        client: NodeId,
        #[allow(dead_code)]
        ns: NodeId,
    }

    fn setup(config: ResolverConfig, zone: Zone) -> Setup {
        setup_with_ns(config, NameserverConfig::new(NS_ADDR), zone)
    }

    fn setup_with_ns(config: ResolverConfig, ns_config: NameserverConfig, zone: Zone) -> Setup {
        let mut sim = Simulator::new(11);
        let resolver = sim.add_node("resolver", vec![RESOLVER_ADDR], Resolver::new(config));
        let ns = sim.add_node("ns", vec![NS_ADDR], Nameserver::new(ns_config, vec![zone]));
        let client = sim.add_node("client", vec![CLIENT_ADDR], SinkNode::default());
        sim.connect(resolver, ns, Link::with_latency(Duration::from_millis(20)));
        sim.connect(resolver, client, Link::with_latency(Duration::from_millis(1)));
        Setup { sim, resolver, client, ns }
    }

    fn client_query(name: &str, qtype: RecordType, id: u16) -> Ipv4Packet {
        let q = Message::query(id, n(name), qtype);
        UdpDatagram::new(CLIENT_ADDR, RESOLVER_ADDR, 5353, 53, q.encode()).into_packet(1, 64)
    }

    #[test]
    fn resolves_and_caches() {
        let mut s = setup(resolver_config(), victim_zone());
        s.sim.inject(s.client, client_query("www.vict.im", RecordType::A, 77));
        s.sim.run();
        let r = s.sim.node_ref::<Resolver>(s.resolver).unwrap();
        assert_eq!(r.stats.client_queries, 1);
        assert_eq!(r.stats.upstream_queries, 1);
        assert_eq!(r.stats.responses_accepted, 1);
        assert_eq!(r.cache().cached_a(&n("www.vict.im"), s.sim.now()), Some("30.0.0.80".parse().unwrap()));
        // The client received an answer.
        assert!(s.sim.stats(s.client).udp_received >= 1);
        // Second identical query is served from cache without upstream traffic.
        s.sim.inject(s.client, client_query("www.vict.im", RecordType::A, 78));
        s.sim.run();
        let r = s.sim.node_ref::<Resolver>(s.resolver).unwrap();
        assert_eq!(r.stats.upstream_queries, 1);
        assert_eq!(r.stats.cache_answers, 1);
    }

    #[test]
    fn random_ports_and_txids_differ_between_queries() {
        let mut s = setup(resolver_config(), victim_zone());
        s.sim.inject(s.client, client_query("www.vict.im", RecordType::A, 1));
        s.sim.inject(s.client, client_query("vict.im", RecordType::TXT, 2));
        s.sim.run_until(SimTime::ZERO + Duration::from_millis(5));
        let r = s.sim.node_ref::<Resolver>(s.resolver).unwrap();
        let ports = r.outstanding_ports();
        assert_eq!(ports.len(), 2);
        assert_ne!(ports[0], ports[1]);
        s.sim.run();
    }

    #[test]
    fn servfail_when_nameserver_unreachable() {
        // Delegation points at an address that no node owns.
        let cfg =
            ResolverConfig::new(RESOLVER_ADDR).with_delegation("vict.im", vec!["9.9.9.9".parse().unwrap()], false);
        let mut s = setup(cfg, victim_zone());
        s.sim.inject(s.client, client_query("www.vict.im", RecordType::A, 5));
        s.sim.run();
        let r = s.sim.node_ref::<Resolver>(s.resolver).unwrap();
        assert!(r.stats.timeouts >= 1);
        assert_eq!(r.stats.servfails, 1);
        assert_eq!(r.outstanding_count(), 0);
        assert!(r.cache().cached_a(&n("www.vict.im"), s.sim.now()).is_none());
    }

    #[test]
    fn unknown_zone_servfails_immediately() {
        let mut s = setup(resolver_config(), victim_zone());
        s.sim.inject(s.client, client_query("unknown.example", RecordType::A, 5));
        s.sim.run();
        let r = s.sim.node_ref::<Resolver>(s.resolver).unwrap();
        assert_eq!(r.stats.servfails, 1);
        assert_eq!(r.stats.upstream_queries, 0);
    }

    /// An off-path attacker blindly spraying spoofed responses with random
    /// TXIDs at a *random* port has essentially no chance; with the port
    /// known (fixed-port policy) and the full TXID space covered, the forgery
    /// is accepted. This is the 16-bit-vs-32-bit entropy argument of §2.1.
    #[test]
    fn spoofed_response_needs_port_and_txid() {
        // Fixed port, and we spray all TXIDs in a small window around the
        // real one by sending the full 2^16 space in chunks — here we cheat
        // and read the entropy structurally: with the right port and TXID the
        // forgery is accepted.
        let cfg = ResolverConfig { port_policy: PortPolicy::Fixed(33333), ..resolver_config() };
        let mut sim = Simulator::new(5);
        let resolver = sim.add_node("resolver", vec![RESOLVER_ADDR], Resolver::new(cfg));
        // Nameserver that never answers (so the race is trivially won).
        let ns = sim.add_node("ns", vec![NS_ADDR], SinkNode::default());
        let client = sim.add_node("client", vec![CLIENT_ADDR], SinkNode::default());
        let attacker = sim.add_node("attacker", vec![ATTACKER], SinkNode::default());
        sim.connect(resolver, ns, Link::default());
        sim.connect(resolver, client, Link::default());
        sim.connect(attacker, resolver, Link::with_latency(Duration::from_millis(1)));
        sim.inject(client, client_query("www.vict.im", RecordType::A, 9));
        sim.run_until(SimTime::ZERO + Duration::from_millis(50));

        // Read the TXID the resolver chose (off-path attackers cannot do
        // this; the SadDNS/FragDNS machinery in the `attacks` crate earns it).
        let txid = {
            let r = sim.node_ref::<Resolver>(resolver).unwrap();
            r.outstanding.values().next().unwrap().txid
        };
        // Wrong TXID: rejected.
        let mut forged = Message::query(txid.wrapping_add(1), n("www.vict.im"), RecordType::A);
        forged.header.is_response = true;
        forged.answers.push(ResourceRecord::new(n("www.vict.im"), 300, RData::A(ATTACKER)));
        let pkt = UdpDatagram::new(NS_ADDR, RESOLVER_ADDR, 53, 33333, forged.encode()).into_packet(2, 64);
        sim.inject(attacker, pkt);
        sim.run_until(sim.now() + Duration::from_millis(10));
        assert_eq!(sim.node_ref::<Resolver>(resolver).unwrap().stats.rejected_txid, 1);
        assert!(!sim.node_ref::<Resolver>(resolver).unwrap().is_poisoned_with(&n("www.vict.im"), ATTACKER, sim.now()));

        // Correct TXID and port: accepted, cache poisoned.
        let mut forged = Message::query(txid, n("www.vict.im"), RecordType::A);
        forged.header.is_response = true;
        forged.answers.push(ResourceRecord::new(n("www.vict.im"), 300, RData::A(ATTACKER)));
        let pkt = UdpDatagram::new(NS_ADDR, RESOLVER_ADDR, 53, 33333, forged.encode()).into_packet(3, 64);
        sim.inject(attacker, pkt);
        sim.run_until(sim.now() + Duration::from_millis(10));
        let r = sim.node_ref::<Resolver>(resolver).unwrap();
        assert!(r.is_poisoned_with(&n("www.vict.im"), ATTACKER, sim.now()));
    }

    #[test]
    fn bailiwick_filtering_drops_out_of_zone_records() {
        let cfg = ResolverConfig { port_policy: PortPolicy::Fixed(44444), ..resolver_config() };
        let mut sim = Simulator::new(6);
        let resolver = sim.add_node("resolver", vec![RESOLVER_ADDR], Resolver::new(cfg));
        let ns = sim.add_node("ns", vec![NS_ADDR], SinkNode::default());
        let client = sim.add_node("client", vec![CLIENT_ADDR], SinkNode::default());
        sim.connect(resolver, ns, Link::default());
        sim.connect(resolver, client, Link::default());
        sim.inject(client, client_query("www.vict.im", RecordType::A, 9));
        sim.run_until(SimTime::ZERO + Duration::from_millis(50));
        let txid = sim.node_ref::<Resolver>(resolver).unwrap().outstanding.values().next().unwrap().txid;
        // A "legitimate-looking" response that also tries to poison an
        // unrelated domain (bank.example) — classic out-of-bailiwick injection.
        let mut forged = Message::query(txid, n("www.vict.im"), RecordType::A);
        forged.header.is_response = true;
        forged.answers.push(ResourceRecord::new(n("www.vict.im"), 300, RData::A("30.0.0.80".parse().unwrap())));
        forged.additionals.push(ResourceRecord::new(n("bank.example"), 300, RData::A(ATTACKER)));
        let pkt = UdpDatagram::new(NS_ADDR, RESOLVER_ADDR, 53, 44444, forged.encode()).into_packet(3, 64);
        sim.inject(ns, pkt);
        sim.run();
        let r = sim.node_ref::<Resolver>(resolver).unwrap();
        assert_eq!(r.stats.rejected_bailiwick_records, 1);
        assert!(r.cache().cached_a(&n("bank.example"), sim.now()).is_none());
        assert!(r.cache().cached_a(&n("www.vict.im"), sim.now()).is_some());
    }

    #[test]
    fn x20_rejects_wrong_case_echo() {
        let cfg = ResolverConfig { port_policy: PortPolicy::Fixed(40000), ..resolver_config() }.with_0x20();
        let mut sim = Simulator::new(7);
        let resolver = sim.add_node("resolver", vec![RESOLVER_ADDR], Resolver::new(cfg));
        let ns = sim.add_node("ns", vec![NS_ADDR], SinkNode::default());
        let client = sim.add_node("client", vec![CLIENT_ADDR], SinkNode::default());
        sim.connect(resolver, ns, Link::default());
        sim.connect(resolver, client, Link::default());
        sim.inject(client, client_query("verylongname.vict.im", RecordType::A, 9));
        sim.run_until(SimTime::ZERO + Duration::from_millis(50));
        let txid = sim.node_ref::<Resolver>(resolver).unwrap().outstanding.values().next().unwrap().txid;
        // Attacker knows the TXID (hypothetically) but echoes an all-lowercase
        // question: 0x20 validation rejects it.
        let mut forged = Message::query(txid, n("verylongname.vict.im"), RecordType::A);
        forged.header.is_response = true;
        forged.answers.push(ResourceRecord::new(n("verylongname.vict.im"), 300, RData::A(ATTACKER)));
        let pkt = UdpDatagram::new(NS_ADDR, RESOLVER_ADDR, 53, 40000, forged.encode()).into_packet(3, 64);
        sim.inject(ns, pkt);
        sim.run();
        let r = sim.node_ref::<Resolver>(resolver).unwrap();
        assert_eq!(r.stats.rejected_question, 1);
        assert!(!r.is_poisoned_with(&n("verylongname.vict.im"), ATTACKER, sim.now()));
    }

    #[test]
    fn dnssec_validation_rejects_unsigned_forgery_for_signed_zone() {
        let anchor = crate::dnssec::KeyManager::new(7).anchor(&n("vict.im"));
        let cfg = ResolverConfig {
            port_policy: PortPolicy::Fixed(41000),
            ..ResolverConfig::new(RESOLVER_ADDR)
                .with_delegation("vict.im", vec![NS_ADDR], true)
                .with_trust_anchor("vict.im", anchor)
        }
        .with_dnssec_validation();
        let mut sim = Simulator::new(8);
        let resolver = sim.add_node("resolver", vec![RESOLVER_ADDR], Resolver::new(cfg));
        let ns = sim.add_node("ns", vec![NS_ADDR], SinkNode::default());
        let client = sim.add_node("client", vec![CLIENT_ADDR], SinkNode::default());
        sim.connect(resolver, ns, Link::default());
        sim.connect(resolver, client, Link::default());
        sim.inject(client, client_query("www.vict.im", RecordType::A, 9));
        sim.run_until(SimTime::ZERO + Duration::from_millis(50));
        let txid = sim.node_ref::<Resolver>(resolver).unwrap().outstanding.values().next().unwrap().txid;
        let mut forged = Message::query(txid, n("www.vict.im"), RecordType::A);
        forged.header.is_response = true;
        forged.answers.push(ResourceRecord::new(n("www.vict.im"), 300, RData::A(ATTACKER)));
        let pkt = UdpDatagram::new(NS_ADDR, RESOLVER_ADDR, 53, 41000, forged.encode()).into_packet(3, 64);
        sim.inject(ns, pkt);
        sim.run();
        let r = sim.node_ref::<Resolver>(resolver).unwrap();
        assert_eq!(r.stats.rejected_dnssec, 1);
        assert!(!r.is_poisoned_with(&n("www.vict.im"), ATTACKER, sim.now()));
    }

    #[test]
    fn signed_zone_with_validation_accepts_genuine_signed_answer() {
        let zone = victim_zone().sign(
            crate::dnssec::KeyManager::new(7),
            crate::dnssec::SigningPolicy::default(),
            SimTime::ZERO,
        );
        let anchor = zone.trust_anchor().expect("signed zone has an anchor");
        let cfg = ResolverConfig::new(RESOLVER_ADDR)
            .with_delegation("vict.im", vec![NS_ADDR], true)
            .with_trust_anchor("vict.im", anchor)
            .with_dnssec_validation();
        let mut s = setup(cfg, zone);
        s.sim.inject(s.client, client_query("www.vict.im", RecordType::A, 1));
        s.sim.run();
        let r = s.sim.node_ref::<Resolver>(s.resolver).unwrap();
        assert_eq!(r.stats.responses_accepted, 1);
        assert_eq!(r.stats.rejected_dnssec, 0);
        assert!(r.cache().cached_a(&n("www.vict.im"), s.sim.now()).is_some());
    }

    #[test]
    fn signed_zone_negative_answer_requires_authenticated_denial() {
        let zone = victim_zone().sign(
            crate::dnssec::KeyManager::new(7),
            crate::dnssec::SigningPolicy::default(),
            SimTime::ZERO,
        );
        let anchor = zone.trust_anchor().unwrap();
        let cfg = ResolverConfig::new(RESOLVER_ADDR)
            .with_delegation("vict.im", vec![NS_ADDR], true)
            .with_trust_anchor("vict.im", anchor)
            .with_dnssec_validation();
        let mut s = setup(cfg, zone);
        // A genuine NXDOMAIN comes back with signed NSEC proofs and passes.
        s.sim.inject(s.client, client_query("nope.vict.im", RecordType::A, 1));
        s.sim.run();
        let r = s.sim.node_ref::<Resolver>(s.resolver).unwrap();
        assert_eq!(r.stats.rejected_dnssec, 0);
        assert_eq!(r.stats.responses_accepted, 1);
    }

    #[test]
    fn any_unsupported_profile_refuses_any_queries() {
        let cfg = ResolverConfig { any_caching: AnyCachingPolicy::Unsupported, ..resolver_config() };
        let mut s = setup(cfg, victim_zone());
        s.sim.inject(s.client, client_query("vict.im", RecordType::ANY, 3));
        s.sim.run();
        let r = s.sim.node_ref::<Resolver>(s.resolver).unwrap();
        assert_eq!(r.stats.upstream_queries, 0, "ANY refused locally");
    }

    #[test]
    fn any_cacheanduse_answers_subsequent_a_from_cache() {
        let mut s = setup(resolver_config(), victim_zone());
        s.sim.inject(s.client, client_query("vict.im", RecordType::ANY, 3));
        s.sim.run();
        s.sim.inject(s.client, client_query("vict.im", RecordType::A, 4));
        s.sim.run();
        let r = s.sim.node_ref::<Resolver>(s.resolver).unwrap();
        assert_eq!(r.stats.upstream_queries, 1, "A answered from the cached ANY contents");
        assert_eq!(r.stats.cache_answers, 1);
    }

    #[test]
    fn any_notcached_requeries_for_a() {
        let cfg = ResolverConfig { any_caching: AnyCachingPolicy::NotCached, ..resolver_config() };
        let mut s = setup(cfg, victim_zone());
        s.sim.inject(s.client, client_query("vict.im", RecordType::ANY, 3));
        s.sim.run();
        s.sim.inject(s.client, client_query("vict.im", RecordType::A, 4));
        s.sim.run();
        let r = s.sim.node_ref::<Resolver>(s.resolver).unwrap();
        assert_eq!(r.stats.upstream_queries, 2, "A re-queried upstream (dnsmasq behaviour)");
    }

    #[test]
    fn forwarder_mode_sends_to_upstream() {
        // Forwarder -> upstream recursive resolver -> authoritative NS.
        let upstream_cfg = resolver_config();
        let fwd_cfg =
            ResolverConfig { upstream: Some(RESOLVER_ADDR), ..ResolverConfig::new("30.0.0.2".parse().unwrap()) };
        let mut sim = Simulator::new(12);
        let upstream = sim.add_node("upstream", vec![RESOLVER_ADDR], Resolver::new(upstream_cfg));
        let fwd_addr: Ipv4Addr = "30.0.0.2".parse().unwrap();
        let fwd = sim.add_node("forwarder", vec![fwd_addr], Resolver::new(fwd_cfg));
        let ns =
            sim.add_node("ns", vec![NS_ADDR], Nameserver::new(NameserverConfig::new(NS_ADDR), vec![victim_zone()]));
        let client = sim.add_node("client", vec![CLIENT_ADDR], SinkNode::default());
        sim.connect(upstream, ns, Link::default());
        sim.connect(fwd, upstream, Link::default());
        sim.connect(client, fwd, Link::default());
        let q = Message::query(9, n("www.vict.im"), RecordType::A);
        let pkt = UdpDatagram::new(CLIENT_ADDR, fwd_addr, 5353, 53, q.encode()).into_packet(1, 64);
        sim.inject(client, pkt);
        sim.run();
        // Both caches hold the record: poisoning the upstream poisons every
        // forwarder (and client) behind it.
        assert!(sim.node_ref::<Resolver>(upstream).unwrap().cache().cached_a(&n("www.vict.im"), sim.now()).is_some());
        assert!(sim.node_ref::<Resolver>(fwd).unwrap().cache().cached_a(&n("www.vict.im"), sim.now()).is_some());
        assert!(sim.stats(client).udp_received >= 1);
    }

    #[test]
    fn retries_use_fresh_challenge_values_then_succeed() {
        // The nameserver is behind a lossy link: the first attempt may be
        // lost, the resolver retries with a new port/TXID and eventually wins.
        let mut sim = Simulator::new(33);
        let resolver = sim.add_node("resolver", vec![RESOLVER_ADDR], Resolver::new(resolver_config()));
        let ns =
            sim.add_node("ns", vec![NS_ADDR], Nameserver::new(NameserverConfig::new(NS_ADDR), vec![victim_zone()]));
        let client = sim.add_node("client", vec![CLIENT_ADDR], SinkNode::default());
        sim.connect(resolver, ns, Link::default().loss(0.6));
        sim.connect(resolver, client, Link::default());
        sim.inject(client, client_query("www.vict.im", RecordType::A, 7));
        sim.run();
        let r = sim.node_ref::<Resolver>(resolver).unwrap();
        // Either it eventually succeeded or exhausted retries; with seed 33
        // at 60% loss and 3 attempts, we expect progress beyond one attempt.
        assert!(r.stats.upstream_queries >= 1);
        assert_eq!(r.outstanding_count(), 0, "no query left dangling");
    }

    /// A nameserver that pads answers past a small EDNS buffer: the UDP
    /// answer truncates, forcing the transport policy to show its hand.
    fn truncating_ns_config() -> NameserverConfig {
        let mut ns_cfg = NameserverConfig::new(NS_ADDR);
        ns_cfg.pad_responses_to = Some(1400);
        ns_cfg
    }

    #[test]
    fn udponly_truncated_answer_surfaces_as_servfail_with_tc() {
        let cfg = ResolverConfig { edns_size: 512, ..resolver_config() };
        let mut s = setup_with_ns(cfg, truncating_ns_config(), victim_zone());
        s.sim.inject(s.client, client_query("vict.im", RecordType::A, 42));
        s.sim.run();
        let r = s.sim.node_ref::<Resolver>(s.resolver).unwrap();
        assert_eq!(r.stats.truncated_responses, 1);
        assert_eq!(r.stats.tcp_fallbacks, 0);
        assert_eq!(r.stats.servfails, 1, "the TC=1 answer fails the lookup visibly, it does not vanish");
        assert_eq!(r.outstanding_count(), 0);
        assert!(r.cache().cached_a(&n("vict.im"), s.sim.now()).is_none(), "truncated answers are never cached");
        assert!(s.sim.stats(s.client).udp_received >= 1, "the client got the SERVFAIL answer");
    }

    #[test]
    fn tc_fallback_requeries_over_tcp_and_answers_the_client() {
        let cfg =
            ResolverConfig { edns_size: 512, ..resolver_config() }.with_transport(UpstreamTransport::UdpTcFallback);
        let mut s = setup_with_ns(cfg, truncating_ns_config(), victim_zone());
        s.sim.inject(s.client, client_query("vict.im", RecordType::A, 42));
        s.sim.run();
        let r = s.sim.node_ref::<Resolver>(s.resolver).unwrap();
        assert_eq!(r.stats.truncated_responses, 1);
        assert_eq!(r.stats.tcp_fallbacks, 1, "RFC 7766: TC=1 triggers the TCP re-query");
        assert_eq!(r.stats.tcp_upstream_queries, 1);
        assert_eq!(r.stats.servfails, 0);
        assert_eq!(r.stats.responses_accepted, 1);
        assert_eq!(
            r.cache().cached_a(&n("vict.im"), s.sim.now()),
            Some("30.0.0.80".parse().unwrap()),
            "the TCP answer landed in the cache"
        );
        assert_eq!(r.outstanding_ports().len(), 0, "the UDP side of the query was torn down");
        let ns = s.sim.node_ref::<Nameserver>(s.ns).unwrap();
        assert_eq!(ns.stats.responses_truncated, 1);
        assert_eq!(ns.stats.tcp_queries, 1);
    }

    #[test]
    fn stale_udp_timer_does_not_abort_the_tcp_fallback() {
        // The UDP attempt's timer outlives the TC=1 answer that superseded
        // it: with a timeout shorter than the TCP exchange, the stale timer
        // fires mid-handshake. Its attempt generation no longer matches, so
        // it must be a no-op — no spurious timeout, no burned retry, no RST
        // under the live connection.
        // Timing: UDP query at t=1ms, TC=1 back at t=41ms, TCP answer lands
        // at t=121ms (handshake + query at 20ms/hop). A 100ms timeout puts
        // the stale UDP timer at t=101ms — squarely inside the live TCP
        // attempt — while the TCP attempt's own timer (t=141ms) stays clear.
        let cfg = ResolverConfig { edns_size: 512, query_timeout: Duration::from_millis(100), ..resolver_config() }
            .with_transport(UpstreamTransport::UdpTcFallback);
        let mut s = setup_with_ns(cfg, truncating_ns_config(), victim_zone());
        s.sim.inject(s.client, client_query("vict.im", RecordType::A, 42));
        s.sim.run();
        let r = s.sim.node_ref::<Resolver>(s.resolver).unwrap();
        assert_eq!(r.stats.tcp_fallbacks, 1);
        assert_eq!(r.stats.timeouts, 0, "the stale UDP timer must not count as a timeout");
        assert_eq!(r.stats.tcp_upstream_queries, 1, "exactly one TCP attempt, not an aborted one plus a retry");
        assert_eq!(r.stats.responses_accepted, 1);
        assert_eq!(r.cache().cached_a(&n("vict.im"), s.sim.now()), Some("30.0.0.80".parse().unwrap()));
    }

    #[test]
    fn tcponly_resolves_without_ever_opening_a_udp_ephemeral_port() {
        let cfg = resolver_config().with_transport(UpstreamTransport::TcpOnly);
        let mut s = setup(cfg, victim_zone());
        s.sim.inject(s.client, client_query("www.vict.im", RecordType::A, 7));
        s.sim.run_until(SimTime::ZERO + Duration::from_millis(25));
        // Mid-flight: the query is outstanding but exposes no UDP port.
        let r = s.sim.node_ref::<Resolver>(s.resolver).unwrap();
        assert_eq!(r.outstanding_count(), 1);
        assert!(r.outstanding_ports().is_empty(), "nothing for a SadDNS port scan to find");
        s.sim.run();
        let r = s.sim.node_ref::<Resolver>(s.resolver).unwrap();
        assert_eq!(r.stats.responses_accepted, 1);
        assert_eq!(r.stats.tcp_upstream_queries, 1);
        assert_eq!(r.cache().cached_a(&n("www.vict.im"), s.sim.now()), Some("30.0.0.80".parse().unwrap()));
        assert!(s.sim.stats(s.client).udp_received >= 1, "client answered over UDP as usual");
        assert!(s.sim.stats(s.resolver).tcp_sent >= 3, "handshake + query + teardown on the wire");
    }

    #[test]
    fn tcponly_closes_the_connection_after_the_last_answer() {
        let cfg = resolver_config().with_transport(UpstreamTransport::TcpOnly);
        let mut s = setup(cfg, victim_zone());
        s.sim.inject(s.client, client_query("www.vict.im", RecordType::A, 7));
        s.sim.run();
        let r = s.sim.node_ref::<Resolver>(s.resolver).unwrap();
        assert!(
            r.tcp_flows().is_empty() || r.tcp_flows().iter().all(|f| f.state != "established"),
            "connection released once no query needs it: {:?}",
            r.tcp_flows()
        );
    }

    #[test]
    fn tcponly_retries_after_timeout_and_recovers() {
        // First upstream attempt dies on a fully lossy link window? Instead:
        // an unreachable nameserver for the first delegation target would
        // never recover, so use a lossy link and assert the retry machinery
        // drives the query to completion within the retry budget.
        let cfg = resolver_config().with_transport(UpstreamTransport::TcpOnly);
        let mut sim = Simulator::new(40);
        let resolver = sim.add_node("resolver", vec![RESOLVER_ADDR], Resolver::new(cfg));
        let ns =
            sim.add_node("ns", vec![NS_ADDR], Nameserver::new(NameserverConfig::new(NS_ADDR), vec![victim_zone()]));
        let client = sim.add_node("client", vec![CLIENT_ADDR], SinkNode::default());
        sim.connect(resolver, ns, Link::default().loss(0.5));
        sim.connect(resolver, client, Link::default());
        sim.inject(client, client_query("www.vict.im", RecordType::A, 7));
        sim.run();
        let r = sim.node_ref::<Resolver>(resolver).unwrap();
        assert_eq!(r.outstanding_count(), 0, "no query left dangling");
        assert!(r.stats.tcp_upstream_queries >= 1);
    }

    /// The host stack's port table is the resolver's only record of bound
    /// UDP ports: at every step of a timeout retry, a TC→TCP fallback and a
    /// plain UDP answer, exactly port 53 plus one port per outstanding UDP
    /// query is open — the set a SadDNS scan would find.
    #[test]
    fn open_ports_track_outstanding_udp_queries_at_every_step() {
        let dead_ns: Ipv4Addr = "9.9.9.9".parse().unwrap();
        let cfg = ResolverConfig { edns_size: 512, query_timeout: Duration::from_millis(300), ..resolver_config() }
            .with_delegation("dead.example", vec![dead_ns], false)
            .with_transport(UpstreamTransport::UdpTcFallback);
        let mut s = setup_with_ns(cfg, truncating_ns_config(), victim_zone());
        s.sim.inject(s.client, client_query("vict.im", RecordType::A, 1));
        s.sim.inject(s.client, client_query("missing.vict.im", RecordType::A, 2));
        s.sim.inject(s.client, client_query("www.dead.example", RecordType::A, 3));
        let mut max_open = 0;
        while s.sim.step() {
            let r = s.sim.node_ref::<Resolver>(s.resolver).unwrap();
            let udp_queries = r.outstanding.values().filter(|o| o.transport == Protocol::Udp).count();
            assert_eq!(r.stack().open_port_count(), 1 + udp_queries, "at {:?}", s.sim.now());
            assert!(r.stack().is_port_open(crate::well_known_ports::DNS));
            for port in r.outstanding_ports() {
                assert!(r.stack().is_port_open(port), "outstanding port {port} is closed on the stack");
            }
            max_open = max_open.max(r.stack().open_port_count());
        }
        let r = s.sim.node_ref::<Resolver>(s.resolver).unwrap();
        assert_eq!(max_open, 4, "all three queries were out over UDP at once");
        assert!(r.stats.timeouts > 1, "the dead nameserver's query was retried");
        assert_eq!(r.stats.tcp_fallbacks, 1, "the truncated answer fell back to TCP");
        assert_eq!(r.stats.responses_accepted, 2);
        assert_eq!(r.outstanding_count(), 0);
        assert_eq!(r.stack().open_port_count(), 1, "drained: only port 53 stays open");
        assert!(r.stack().is_port_open(crate::well_known_ports::DNS));
    }
}
