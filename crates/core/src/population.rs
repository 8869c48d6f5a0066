//! Synthetic Internet populations.
//!
//! The paper measures real front-end datasets (open resolvers from Censys, an
//! ad-network client study, Alexa Top-1M domains, eduroam institution lists,
//! RIR/registrar whois contacts, well-known NTP/Bitcoin/RPKI domains, ...).
//! Those datasets cannot be scanned from this environment, so each one is
//! replaced by a *generator* that draws per-resolver / per-domain security
//! properties from distributions calibrated to the marginals the paper
//! reports (Tables 3 and 4, Figures 3 and 4). Every property is an explicit
//! field, the vulnerability scanners in [`crate::vulnscan`] re-derive the
//! table columns from the properties (they are not hard-coded percentages),
//! and the same profiles drive full packet-level attack simulations for
//! spot-check samples.

use crate::campaign::{self, CampaignConfig};
use dns::profiles::ResolverImplementation;
use rand::Rng;

/// Security-relevant properties of one recursive resolver back-end.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolverProfile {
    /// Length of the BGP announcement covering the resolver's address.
    pub announced_prefix_len: u8,
    /// Whether the host applies a global (shared) ICMP error rate limit.
    pub global_icmp_limit: bool,
    /// Whether fragmented UDP responses are accepted and reassembled.
    pub accepts_fragments: bool,
    /// EDNS UDP payload size advertised in queries.
    pub edns_size: u16,
    /// Whether the resolver validates DNSSEC.
    pub validates_dnssec: bool,
    /// Whether the back-end answered the liveness probe (Section 5.1.2).
    pub alive: bool,
    /// The implementation family this resolver behaves like.
    pub implementation: ResolverImplementation,
}

/// Security-relevant properties of one domain (represented by its nameservers).
#[derive(Debug, Clone, PartialEq)]
pub struct DomainProfile {
    /// Length of the BGP announcement covering the (majority of) nameservers.
    pub announced_prefix_len: u8,
    /// Whether at least one authoritative nameserver applies response rate
    /// limiting (the SadDNS muting prerequisite).
    pub ns_rate_limits: bool,
    /// Whether a nameserver honours spoofed PTBs and emits fragmented
    /// responses to inflated (`ANY` / bloated) queries.
    pub fragments_any: bool,
    /// Whether fragmentation is also reachable with plain `A`/`MX` queries.
    pub fragments_a_or_mx: bool,
    /// Whether the nameservers use a global incremental IP-ID counter.
    pub global_ipid: bool,
    /// The minimum fragment size the nameserver can be talked down to.
    pub min_fragment_size: u16,
    /// Whether the domain is DNSSEC-signed.
    pub dnssec_signed: bool,
}

/// A named dataset specification with calibrated property probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Dataset name as it appears in the paper's table.
    pub name: &'static str,
    /// Protocols column.
    pub protocols: &'static str,
    /// The full population size the paper reports.
    pub reported_size: u64,
    /// Probability that an element's covering announcement is shorter than /24.
    pub p_subprefix_hijackable: f64,
    /// Probability of the SadDNS-relevant property (global ICMP limit for
    /// resolvers, rate-limiting nameservers for domains).
    pub p_saddns: f64,
    /// Probability of the FragDNS-relevant property (fragment acceptance for
    /// resolvers, ANY-fragmentation for domains).
    pub p_frag: f64,
    /// Probability of a global incremental IPID (domains only).
    pub p_global_ipid: f64,
    /// Probability of DNSSEC (signing for domains, validating for resolvers).
    pub p_dnssec: f64,
}

impl DatasetSpec {
    /// How many profiles to actually generate: the reported size capped so
    /// campaigns stay fast; percentages are estimated from the sample.
    pub fn sample_size(&self, cap: u64) -> usize {
        self.reported_size.min(cap).max(1) as usize
    }

    /// RNG stream salt of this dataset's **resolver** population: separates
    /// its shard streams from every other dataset under the same seed.
    pub fn resolver_stream_salt(&self) -> u64 {
        0x5e501_u64 ^ self.reported_size
    }

    /// RNG stream salt of this dataset's **domain** population.
    pub fn domain_stream_salt(&self) -> u64 {
        0xd0a1_u64 ^ self.reported_size
    }
}

/// The nine resolver datasets of Table 3 with marginals calibrated to the
/// paper's measurements.
pub fn table3_datasets() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "Local university",
            protocols: "Radius",
            reported_size: 1,
            p_subprefix_hijackable: 1.00,
            p_saddns: 0.00,
            p_frag: 1.00,
            p_global_ipid: 0.0,
            p_dnssec: 0.3,
        },
        DatasetSpec {
            name: "Popular services (PW-recovery)",
            protocols: "PW-recovery",
            reported_size: 29,
            p_subprefix_hijackable: 0.93,
            p_saddns: 0.16,
            p_frag: 0.90,
            p_global_ipid: 0.0,
            p_dnssec: 0.3,
        },
        DatasetSpec {
            name: "Popular CAs",
            protocols: "DV",
            reported_size: 5,
            p_subprefix_hijackable: 0.75,
            p_saddns: 0.00,
            p_frag: 0.00,
            p_global_ipid: 0.0,
            p_dnssec: 0.6,
        },
        DatasetSpec {
            name: "Popular CDNs",
            protocols: "CDN",
            reported_size: 4,
            p_subprefix_hijackable: 1.00,
            p_saddns: 0.00,
            p_frag: 0.25,
            p_global_ipid: 0.0,
            p_dnssec: 0.3,
        },
        DatasetSpec {
            name: "Alexa 1M SRV",
            protocols: "XMPP",
            reported_size: 476,
            p_subprefix_hijackable: 0.73,
            p_saddns: 0.01,
            p_frag: 0.57,
            p_global_ipid: 0.0,
            p_dnssec: 0.2,
        },
        DatasetSpec {
            name: "Alexa 1M MX",
            protocols: "SMTP/SPF/DMARC/DKIM",
            reported_size: 61_036,
            p_subprefix_hijackable: 0.79,
            p_saddns: 0.09,
            p_frag: 0.56,
            p_global_ipid: 0.0,
            p_dnssec: 0.2,
        },
        DatasetSpec {
            name: "Ad-net study",
            protocols: "HTTP/DANE/OCSP",
            reported_size: 5_847,
            p_subprefix_hijackable: 0.70,
            p_saddns: 0.11,
            p_frag: 0.91,
            p_global_ipid: 0.0,
            p_dnssec: 0.286,
        },
        DatasetSpec {
            name: "Open resolvers",
            protocols: "All",
            reported_size: 1_583_045,
            p_subprefix_hijackable: 0.74,
            p_saddns: 0.12,
            p_frag: 0.31,
            p_global_ipid: 0.0,
            p_dnssec: 0.2,
        },
        DatasetSpec {
            name: "Cache test (pool.ntp.org)",
            protocols: "NTP",
            reported_size: 448_521,
            p_subprefix_hijackable: 0.79,
            p_saddns: 0.09,
            p_frag: 0.32,
            p_global_ipid: 0.0,
            p_dnssec: 0.2,
        },
    ]
}

/// The ten domain datasets of Table 4 with marginals calibrated to the paper.
pub fn table4_datasets() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "Eduroam list",
            protocols: "Radius",
            reported_size: 1_152,
            p_subprefix_hijackable: 0.96,
            p_saddns: 0.11,
            p_frag: 0.44,
            p_global_ipid: 0.18 / 0.44,
            p_dnssec: 0.10,
        },
        DatasetSpec {
            name: "Alexa 1M",
            protocols: "HTTP/DANE/DV",
            reported_size: 877_071,
            p_subprefix_hijackable: 0.53,
            p_saddns: 0.12,
            p_frag: 0.04,
            p_global_ipid: 0.25,
            p_dnssec: 0.02,
        },
        DatasetSpec {
            name: "Alexa 1M MX",
            protocols: "SMTP/SPF/DKIM/DMARC",
            reported_size: 63_726,
            p_subprefix_hijackable: 0.44,
            p_saddns: 0.06,
            p_frag: 0.07,
            p_global_ipid: 0.14,
            p_dnssec: 0.03,
        },
        DatasetSpec {
            name: "Alexa 1M SRV",
            protocols: "XMPP",
            reported_size: 2_025,
            p_subprefix_hijackable: 0.44,
            p_saddns: 0.04,
            p_frag: 0.29,
            p_global_ipid: 0.17,
            p_dnssec: 0.07,
        },
        DatasetSpec {
            name: "RIR whois",
            protocols: "PW-recovery",
            reported_size: 58_742,
            p_subprefix_hijackable: 0.59,
            p_saddns: 0.09,
            p_frag: 0.14,
            p_global_ipid: 0.29,
            p_dnssec: 0.04,
        },
        DatasetSpec {
            name: "Registrar whois",
            protocols: "PW-recovery",
            reported_size: 4_628,
            p_subprefix_hijackable: 0.51,
            p_saddns: 0.10,
            p_frag: 0.23,
            p_global_ipid: 0.22,
            p_dnssec: 0.06,
        },
        DatasetSpec {
            name: "Well-known NTP",
            protocols: "NTP",
            reported_size: 9,
            p_subprefix_hijackable: 0.25,
            p_saddns: 0.00,
            p_frag: 0.25,
            p_global_ipid: 1.0,
            p_dnssec: 0.25,
        },
        DatasetSpec {
            name: "Well-known crypto-currency",
            protocols: "Bitcoin",
            reported_size: 32,
            p_subprefix_hijackable: 0.28,
            p_saddns: 0.17,
            p_frag: 0.21,
            p_global_ipid: 0.14,
            p_dnssec: 0.21,
        },
        DatasetSpec {
            name: "Well-known RPKI",
            protocols: "RPKI",
            reported_size: 8,
            p_subprefix_hijackable: 0.14,
            p_saddns: 0.00,
            p_frag: 0.00,
            p_global_ipid: 0.0,
            p_dnssec: 0.67,
        },
        DatasetSpec {
            name: "Cert. scan",
            protocols: "IKE/OpenVPN",
            reported_size: 307,
            p_subprefix_hijackable: 0.51,
            p_saddns: 0.11,
            p_frag: 0.05,
            p_global_ipid: 0.20,
            p_dnssec: 0.07,
        },
    ]
}

/// Prefix-length weights for hijackable elements, skewed towards the middle
/// of the distribution in Figure 3. Shared by the scalar weighted scan in
/// [`draw_prefix_len`] and the expanded lookup table the columnar fill uses.
const PREFIX_LEN_WEIGHTS: [(u8, u32); 13] = [
    (11, 1),
    (12, 2),
    (13, 2),
    (14, 3),
    (15, 4),
    (16, 8),
    (17, 6),
    (18, 7),
    (19, 10),
    (20, 12),
    (21, 12),
    (22, 16),
    (23, 10),
];

/// Draws an announced prefix length: hijackable elements get lengths /11–/23
/// (weighted towards /16–/22 as in Figure 3), others get /24.
fn draw_prefix_len<R: Rng>(rng: &mut R, hijackable: bool) -> u8 {
    if hijackable {
        let total: u32 = PREFIX_LEN_WEIGHTS.iter().map(|(_, w)| w).sum();
        let mut pick = rng.gen_range(0..total);
        for (len, w) in PREFIX_LEN_WEIGHTS {
            if pick < w {
                return len;
            }
            pick -= w;
        }
        22
    } else {
        24
    }
}

/// Draws an EDNS buffer size following the bimodal distribution of Figure 4:
/// ~40 % at (or below) 512 bytes, ~10 % between 1232 and 2048, ~50 % at 4096.
pub fn draw_edns_size<R: Rng>(rng: &mut R) -> u16 {
    let p: f64 = rng.gen();
    if p < 0.40 {
        512
    } else if p < 0.50 {
        *[1232u16, 1400, 1452, 2048].get(rng.gen_range(0..4usize)).unwrap_or(&1232)
    } else {
        4096
    }
}

/// Draws a minimum fragment size for a fragmenting nameserver: 83 % can be
/// pushed to 548 bytes, ~7 % all the way to 292, the rest stop at 1280/1500.
pub fn draw_min_fragment_size<R: Rng>(rng: &mut R, fragments: bool) -> u16 {
    if !fragments {
        return 1500;
    }
    let p: f64 = rng.gen();
    if p < 0.07 {
        292
    } else if p < 0.07 + 0.832 {
        548
    } else {
        1280
    }
}

/// Draws one resolver profile from a dataset's calibrated marginals. This is
/// the single per-element body behind both the sequential and the sharded
/// generation paths — profile `i` is always the `(i % SHARD_SIZE)`-th draw of
/// shard `i / SHARD_SIZE`'s stream.
pub fn draw_resolver<R: Rng>(spec: &DatasetSpec, rng: &mut R) -> ResolverProfile {
    let implementations = ResolverImplementation::all();
    let hijackable = rng.gen_bool(spec.p_subprefix_hijackable);
    ResolverProfile {
        announced_prefix_len: draw_prefix_len(rng, hijackable),
        global_icmp_limit: rng.gen_bool(spec.p_saddns),
        accepts_fragments: rng.gen_bool(spec.p_frag),
        edns_size: draw_edns_size(rng),
        validates_dnssec: rng.gen_bool(spec.p_dnssec),
        alive: rng.gen_bool(0.97),
        implementation: implementations[rng.gen_range(0..implementations.len())],
    }
}

/// Draws one domain profile from a dataset's calibrated marginals.
pub fn draw_domain<R: Rng>(spec: &DatasetSpec, rng: &mut R) -> DomainProfile {
    let hijackable = rng.gen_bool(spec.p_subprefix_hijackable);
    let fragments_any = rng.gen_bool(spec.p_frag);
    DomainProfile {
        announced_prefix_len: draw_prefix_len(rng, hijackable),
        ns_rate_limits: rng.gen_bool(spec.p_saddns),
        fragments_any,
        fragments_a_or_mx: fragments_any && rng.gen_bool(0.1),
        global_ipid: fragments_any && rng.gen_bool(spec.p_global_ipid.min(1.0)),
        min_fragment_size: draw_min_fragment_size(rng, fragments_any),
        dnssec_signed: rng.gen_bool(spec.p_dnssec),
    }
}

// ---------------------------------------------------------------------------
// Struct-of-arrays fast path
//
// The classify campaigns draw hundreds of thousands of profiles whose fields
// are then scanned one predicate at a time. The blocks below hold one
// shard's profiles in columnar layout so those scans run over contiguous
// arrays, and the fill functions draw directly into the columns using
// integer-domain equivalents of the `gen_bool` / `gen_range` calls in
// [`draw_resolver`] / [`draw_domain`]. Equivalence is exact, not
// approximate — see `bool_threshold` — and locked by the unit tests here
// plus `tests/soa_equivalence.rs` at the workspace root.
// ---------------------------------------------------------------------------

/// Integer threshold equivalent of `gen_bool(p)`.
///
/// The `rand` shim's `gen_bool` computes `(next_u64() >> 11) as f64 * 2⁻⁵³
/// < p`. The 53-bit integer is exactly representable as `f64` and scaling
/// by a power of two is exact, so the comparison equals the real-number
/// test `i < p·2⁵³`, i.e. the integer test `i < ceil(p·2⁵³)` (`p·2⁵³` is an
/// exact `f64` for every `p ∈ [0, 1]` — only the exponent changes).
fn bool_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// The 53-bit draw `gen_bool` compares against its threshold.
#[inline]
fn draw53<R: Rng>(rng: &mut R) -> u64 {
    rng.next_u64() >> 11
}

/// Integer equivalent of `gen_range(0..n)` for integer `n`: the shim scales
/// one `next_u64` into the span with a 128-bit multiply; this is that exact
/// computation.
#[inline]
fn draw_range<R: Rng>(rng: &mut R, n: u64) -> usize {
    ((u128::from(rng.next_u64()) * u128::from(n)) >> 64) as usize
}

/// Expanded lookup table for [`draw_prefix_len`]'s weighted scan: entry `j`
/// is the prefix length the scan returns for `pick = j`.
fn prefix_len_lut() -> [u8; 93] {
    let mut lut = [0u8; 93];
    let mut next = 0usize;
    for (len, w) in PREFIX_LEN_WEIGHTS {
        for _ in 0..w {
            lut[next] = len;
            next += 1;
        }
    }
    assert_eq!(next, lut.len(), "weight total matches draw_prefix_len's range");
    lut
}

/// One shard's resolver profiles in struct-of-arrays (columnar) layout.
#[derive(Debug, Clone, Default)]
pub struct ResolverBlock {
    /// Column of [`ResolverProfile::announced_prefix_len`].
    pub announced_prefix_len: Vec<u8>,
    /// Column of [`ResolverProfile::global_icmp_limit`].
    pub global_icmp_limit: Vec<bool>,
    /// Column of [`ResolverProfile::accepts_fragments`].
    pub accepts_fragments: Vec<bool>,
    /// Column of [`ResolverProfile::edns_size`].
    pub edns_size: Vec<u16>,
    /// Column of [`ResolverProfile::validates_dnssec`].
    pub validates_dnssec: Vec<bool>,
    /// Column of [`ResolverProfile::alive`].
    pub alive: Vec<bool>,
    /// Column of [`ResolverProfile::implementation`].
    pub implementation: Vec<ResolverImplementation>,
}

impl ResolverBlock {
    /// An empty block with room for `n` profiles per column.
    pub fn with_capacity(n: usize) -> Self {
        ResolverBlock {
            announced_prefix_len: Vec::with_capacity(n),
            global_icmp_limit: Vec::with_capacity(n),
            accepts_fragments: Vec::with_capacity(n),
            edns_size: Vec::with_capacity(n),
            validates_dnssec: Vec::with_capacity(n),
            alive: Vec::with_capacity(n),
            implementation: Vec::with_capacity(n),
        }
    }

    /// Number of profiles in the block.
    pub fn len(&self) -> usize {
        self.announced_prefix_len.len()
    }

    /// Whether the block holds no profiles.
    pub fn is_empty(&self) -> bool {
        self.announced_prefix_len.is_empty()
    }

    /// Reconstructs the row at `i` as a plain [`ResolverProfile`].
    pub fn profile(&self, i: usize) -> ResolverProfile {
        ResolverProfile {
            announced_prefix_len: self.announced_prefix_len[i],
            global_icmp_limit: self.global_icmp_limit[i],
            accepts_fragments: self.accepts_fragments[i],
            edns_size: self.edns_size[i],
            validates_dnssec: self.validates_dnssec[i],
            alive: self.alive[i],
            implementation: self.implementation[i],
        }
    }
}

/// One shard's domain profiles in struct-of-arrays (columnar) layout.
#[derive(Debug, Clone, Default)]
pub struct DomainBlock {
    /// Column of [`DomainProfile::announced_prefix_len`].
    pub announced_prefix_len: Vec<u8>,
    /// Column of [`DomainProfile::ns_rate_limits`].
    pub ns_rate_limits: Vec<bool>,
    /// Column of [`DomainProfile::fragments_any`].
    pub fragments_any: Vec<bool>,
    /// Column of [`DomainProfile::fragments_a_or_mx`].
    pub fragments_a_or_mx: Vec<bool>,
    /// Column of [`DomainProfile::global_ipid`].
    pub global_ipid: Vec<bool>,
    /// Column of [`DomainProfile::min_fragment_size`].
    pub min_fragment_size: Vec<u16>,
    /// Column of [`DomainProfile::dnssec_signed`].
    pub dnssec_signed: Vec<bool>,
}

impl DomainBlock {
    /// An empty block with room for `n` profiles per column.
    pub fn with_capacity(n: usize) -> Self {
        DomainBlock {
            announced_prefix_len: Vec::with_capacity(n),
            ns_rate_limits: Vec::with_capacity(n),
            fragments_any: Vec::with_capacity(n),
            fragments_a_or_mx: Vec::with_capacity(n),
            global_ipid: Vec::with_capacity(n),
            min_fragment_size: Vec::with_capacity(n),
            dnssec_signed: Vec::with_capacity(n),
        }
    }

    /// Number of profiles in the block.
    pub fn len(&self) -> usize {
        self.announced_prefix_len.len()
    }

    /// Whether the block holds no profiles.
    pub fn is_empty(&self) -> bool {
        self.announced_prefix_len.is_empty()
    }

    /// Reconstructs the row at `i` as a plain [`DomainProfile`].
    pub fn profile(&self, i: usize) -> DomainProfile {
        DomainProfile {
            announced_prefix_len: self.announced_prefix_len[i],
            ns_rate_limits: self.ns_rate_limits[i],
            fragments_any: self.fragments_any[i],
            fragments_a_or_mx: self.fragments_a_or_mx[i],
            global_ipid: self.global_ipid[i],
            min_fragment_size: self.min_fragment_size[i],
            dnssec_signed: self.dnssec_signed[i],
        }
    }
}

/// Draws `count` resolver profiles straight into `block`'s columns.
///
/// Consumes the RNG stream exactly like `count` calls to [`draw_resolver`]
/// and appends the identical field values (same draws, integer-domain
/// comparisons — see the private `bool_threshold`).
pub fn fill_resolver_block<R: Rng>(spec: &DatasetSpec, rng: &mut R, count: usize, block: &mut ResolverBlock) {
    let t_hijack = bool_threshold(spec.p_subprefix_hijackable);
    let t_saddns = bool_threshold(spec.p_saddns);
    let t_frag = bool_threshold(spec.p_frag);
    let t_dnssec = bool_threshold(spec.p_dnssec);
    let t_alive = bool_threshold(0.97);
    let t_edns_512 = bool_threshold(0.40);
    let t_edns_mid = bool_threshold(0.50);
    let edns_mid = [1232u16, 1400, 1452, 2048];
    let prefix_lut = prefix_len_lut();
    let implementations = ResolverImplementation::all();
    // Extend every column up front and write by index: one length/capacity
    // update per column instead of seven per row.
    let start = block.len();
    let end = start + count;
    block.announced_prefix_len.resize(end, 0);
    block.global_icmp_limit.resize(end, false);
    block.accepts_fragments.resize(end, false);
    block.edns_size.resize(end, 0);
    block.validates_dnssec.resize(end, false);
    block.alive.resize(end, false);
    block.implementation.resize(end, implementations[0]);
    for i in start..end {
        let hijackable = draw53(rng) < t_hijack;
        block.announced_prefix_len[i] =
            if hijackable { prefix_lut[draw_range(rng, prefix_lut.len() as u64)] } else { 24 };
        block.global_icmp_limit[i] = draw53(rng) < t_saddns;
        block.accepts_fragments[i] = draw53(rng) < t_frag;
        let p = draw53(rng);
        block.edns_size[i] = if p < t_edns_512 {
            512
        } else if p < t_edns_mid {
            edns_mid[draw_range(rng, edns_mid.len() as u64)]
        } else {
            4096
        };
        block.validates_dnssec[i] = draw53(rng) < t_dnssec;
        block.alive[i] = draw53(rng) < t_alive;
        block.implementation[i] = implementations[draw_range(rng, implementations.len() as u64)];
    }
}

/// Draws `count` domain profiles straight into `block`'s columns; the
/// columnar sibling of [`draw_domain`], with the identical stream contract
/// as [`fill_resolver_block`].
pub fn fill_domain_block<R: Rng>(spec: &DatasetSpec, rng: &mut R, count: usize, block: &mut DomainBlock) {
    let t_hijack = bool_threshold(spec.p_subprefix_hijackable);
    let t_saddns = bool_threshold(spec.p_saddns);
    let t_frag = bool_threshold(spec.p_frag);
    let t_dnssec = bool_threshold(spec.p_dnssec);
    let t_a_or_mx = bool_threshold(0.1);
    let t_global_ipid = bool_threshold(spec.p_global_ipid.min(1.0));
    let t_frag_292 = bool_threshold(0.07);
    let t_frag_548 = bool_threshold(0.07 + 0.832);
    let prefix_lut = prefix_len_lut();
    let start = block.len();
    let end = start + count;
    block.announced_prefix_len.resize(end, 0);
    block.ns_rate_limits.resize(end, false);
    block.fragments_any.resize(end, false);
    block.fragments_a_or_mx.resize(end, false);
    block.global_ipid.resize(end, false);
    block.min_fragment_size.resize(end, 0);
    block.dnssec_signed.resize(end, false);
    for i in start..end {
        let hijackable = draw53(rng) < t_hijack;
        let fragments_any = draw53(rng) < t_frag;
        block.announced_prefix_len[i] =
            if hijackable { prefix_lut[draw_range(rng, prefix_lut.len() as u64)] } else { 24 };
        block.ns_rate_limits[i] = draw53(rng) < t_saddns;
        block.fragments_any[i] = fragments_any;
        block.fragments_a_or_mx[i] = fragments_any && draw53(rng) < t_a_or_mx;
        block.global_ipid[i] = fragments_any && draw53(rng) < t_global_ipid;
        block.min_fragment_size[i] = if !fragments_any {
            1500
        } else {
            let p = draw53(rng);
            if p < t_frag_292 {
                292
            } else if p < t_frag_548 {
                548
            } else {
                1280
            }
        };
        block.dnssec_signed[i] = draw53(rng) < t_dnssec;
    }
}

/// Generates the resolver population for a dataset on the sharded campaign
/// engine. The result depends on `cfg.seed` and `cfg.sample_cap` only, never
/// on `cfg.workers`.
pub fn generate_resolvers_with(spec: &DatasetSpec, cfg: &CampaignConfig) -> Vec<ResolverProfile> {
    campaign::generate_population(
        spec.sample_size(cfg.sample_cap),
        cfg.seed,
        spec.resolver_stream_salt(),
        cfg.workers,
        |rng| draw_resolver(spec, rng),
    )
}

/// Generates the domain population for a dataset on the sharded campaign
/// engine; like [`generate_resolvers_with`], the result never depends on
/// `cfg.workers`.
pub fn generate_domains_with(spec: &DatasetSpec, cfg: &CampaignConfig) -> Vec<DomainProfile> {
    campaign::generate_population(
        spec.sample_size(cfg.sample_cap),
        cfg.seed,
        spec.domain_stream_salt(),
        cfg.workers,
        |rng| draw_domain(spec, rng),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha20Rng;

    #[test]
    fn nine_resolver_and_ten_domain_datasets() {
        assert_eq!(table3_datasets().len(), 9);
        assert_eq!(table4_datasets().len(), 10);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = &table3_datasets()[7];
        let a = generate_resolvers_with(spec, &CampaignConfig::new(1, 1000));
        let b = generate_resolvers_with(spec, &CampaignConfig::new(1, 1000));
        assert_eq!(a, b);
        assert_eq!(a.len(), 1000);
    }

    #[test]
    fn marginals_match_spec_within_tolerance() {
        let spec = &table3_datasets()[7]; // open resolvers: 74% / 12% / 31%
        let pop = generate_resolvers_with(spec, &CampaignConfig::new(42, 20_000));
        let frac = |f: &dyn Fn(&ResolverProfile) -> bool| pop.iter().filter(|r| f(r)).count() as f64 / pop.len() as f64;
        assert!((frac(&|r| r.announced_prefix_len < 24) - 0.74).abs() < 0.02);
        assert!((frac(&|r| r.global_icmp_limit) - 0.12).abs() < 0.02);
        assert!((frac(&|r| r.accepts_fragments) - 0.31).abs() < 0.02);
    }

    #[test]
    fn domain_marginals_match_spec() {
        let spec = &table4_datasets()[1]; // Alexa 1M: 53% / 12% / 4%
        let pop = generate_domains_with(spec, &CampaignConfig::new(42, 20_000));
        let frac = |f: &dyn Fn(&DomainProfile) -> bool| pop.iter().filter(|d| f(d)).count() as f64 / pop.len() as f64;
        assert!((frac(&|d| d.announced_prefix_len < 24) - 0.53).abs() < 0.02);
        assert!((frac(&|d| d.ns_rate_limits) - 0.12).abs() < 0.02);
        assert!((frac(&|d| d.fragments_any) - 0.04).abs() < 0.02);
    }

    #[test]
    fn edns_distribution_is_bimodal() {
        let mut rng = ChaCha20Rng::seed_from_u64(9);
        let sizes: Vec<u16> = (0..10_000).map(|_| draw_edns_size(&mut rng)).collect();
        let small = sizes.iter().filter(|&&s| s <= 512).count() as f64 / sizes.len() as f64;
        let large = sizes.iter().filter(|&&s| s >= 4000).count() as f64 / sizes.len() as f64;
        assert!((small - 0.40).abs() < 0.03, "≈40% of resolvers advertise ≤512");
        assert!((large - 0.50).abs() < 0.03, "≈50% advertise ≥4000");
    }

    #[test]
    fn min_fragment_sizes_concentrate_at_548() {
        let mut rng = ChaCha20Rng::seed_from_u64(9);
        let sizes: Vec<u16> = (0..10_000).map(|_| draw_min_fragment_size(&mut rng, true)).collect();
        let at_548 = sizes.iter().filter(|&&s| s == 548).count() as f64 / sizes.len() as f64;
        let at_292 = sizes.iter().filter(|&&s| s == 292).count() as f64 / sizes.len() as f64;
        assert!(at_548 > 0.78, "most fragmenting nameservers go down to 548 bytes");
        assert!(at_292 > 0.04 && at_292 < 0.11);
        assert!(draw_min_fragment_size(&mut rng, false) == 1500);
    }

    #[test]
    fn sample_size_is_capped() {
        let spec = &table3_datasets()[7];
        assert_eq!(spec.sample_size(5_000), 5_000);
        assert_eq!(table3_datasets()[0].sample_size(5_000), 1);
    }

    #[test]
    fn prefix_lengths_respect_hijackability() {
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        for _ in 0..100 {
            assert!(draw_prefix_len(&mut rng, true) < 24);
            assert_eq!(draw_prefix_len(&mut rng, false), 24);
        }
    }

    #[test]
    fn resolver_block_fill_equals_scalar_draws() {
        // The columnar fill must consume the RNG stream exactly like the
        // scalar draw loop and produce the identical field values, for every
        // dataset's probability mix.
        for (i, spec) in table3_datasets().iter().enumerate() {
            let mut scalar_rng = ChaCha20Rng::seed_from_u64(2021 + i as u64);
            let mut block_rng = scalar_rng.clone();
            let mut block = ResolverBlock::with_capacity(500);
            fill_resolver_block(spec, &mut block_rng, 500, &mut block);
            assert_eq!(block.len(), 500);
            for j in 0..block.len() {
                assert_eq!(block.profile(j), draw_resolver(spec, &mut scalar_rng), "{} row {j}", spec.name);
            }
            // Both paths must leave the stream at the same position.
            assert_eq!(scalar_rng.next_u64(), block_rng.next_u64(), "{} stream position", spec.name);
        }
    }

    #[test]
    fn domain_block_fill_equals_scalar_draws() {
        for (i, spec) in table4_datasets().iter().enumerate() {
            let mut scalar_rng = ChaCha20Rng::seed_from_u64(4242 + i as u64);
            let mut block_rng = scalar_rng.clone();
            let mut block = DomainBlock::with_capacity(500);
            fill_domain_block(spec, &mut block_rng, 500, &mut block);
            assert_eq!(block.len(), 500);
            for j in 0..block.len() {
                assert_eq!(block.profile(j), draw_domain(spec, &mut scalar_rng), "{} row {j}", spec.name);
            }
            assert_eq!(scalar_rng.next_u64(), block_rng.next_u64(), "{} stream position", spec.name);
        }
    }

    #[test]
    fn bool_threshold_matches_gen_bool_on_boundary_draws() {
        // gen_bool(p) ⟺ (next_u64() >> 11) < ceil(p · 2⁵³): spot-check the
        // identity over a dense probability sweep with a shared stream.
        let mut a = ChaCha20Rng::seed_from_u64(7);
        let mut b = a.clone();
        for step in 0..=1000u64 {
            let p = step as f64 / 1000.0;
            let t = bool_threshold(p);
            assert_eq!(a.gen_bool(p), (b.next_u64() >> 11) < t, "p={p}");
        }
    }
}
