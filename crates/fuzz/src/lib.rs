//! # fuzz — deterministic structure-aware fuzzing for every wire codec
//!
//! crates.io (and therefore `cargo-fuzz`/libFuzzer) is unreachable from this
//! workspace, so this crate is an offline stand-in built on the seeded
//! [`rand_chacha`] shim: every codec that ever touches attacker-controlled
//! bytes gets a [`Target`] whose `run` function asserts the two invariants
//! the attacks of DaiJSW21 exploit when they are missing:
//!
//! 1. **Totality** — every input either parses or returns a typed error;
//!    decoding never panics, never overflows an offset, never loops on a
//!    compression pointer, and never allocates proportionally to a
//!    claimed-but-absent length.
//! 2. **Fixed point** — for any value the decoder accepts,
//!    `encode(decode(x))` decodes back to the same value and re-encodes to
//!    the same bytes, so the codec cannot be desynchronised by re-framing.
//!
//! Inputs come from three mutators over structure-aware seeds (valid
//! encodings produced by the workspace's own encoders): byte-level
//! mutation, splicing, and pure random buffers. Everything is keyed off an
//! explicit seed, so a CI failure replays exactly with the same
//! `--seed`/`--iters` pair.
//!
//! Past findings live as minimised corpus entries under `corpus/<target>/`;
//! [`replay_corpus`] re-runs all of them and is wired into tier-1
//! `cargo test`. The umbrella crate's `fuzz_smoke` example rewrites the
//! canonical entries: `cargo run --example fuzz_smoke -- --bless`.

#![warn(missing_docs)]

use ca::http::{parse_request, HttpResponseParser, RequestParse, MAX_HTTP_HEAD};
use dns::dnssec::sign::sign_rrset_with_window;
use dns::message::MAX_TCP_FRAME_LEN;
use dns::prelude::*;
use netsim::icmp::IcmpMessage;
use netsim::ipv4::{Ipv4Header, Ipv4Packet, Protocol, IPV4_HEADER_LEN};
use netsim::tcp::{TcpFlags, TcpSegment};
use netsim::udp::UdpDatagram;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;
use std::net::Ipv4Addr;
use std::path::PathBuf;

const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
const DST: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 53);

/// One fuzzable codec: a name, a structure-aware seed generator producing a
/// valid encoding, and a run function that asserts totality and fixed-point
/// invariants over one arbitrary input.
pub struct Target {
    /// Stable target name.
    pub name: &'static str,
    /// The corpus subdirectory it replays: its own name, or the name of the
    /// target whose inputs it checks another way.
    pub corpus: &'static str,
    /// Produces one valid wire encoding to mutate.
    pub seed: fn(&mut ChaCha20Rng) -> Vec<u8>,
    /// Exercises the codec on one input, panicking on any violated invariant.
    pub run: fn(&[u8]),
}

/// Every registered fuzz target.
pub fn targets() -> Vec<Target> {
    vec![
        Target { name: "dns_message", corpus: "dns_message", seed: seed_message, run: run_dns_message },
        Target { name: "dns_message_view", corpus: "dns_message", seed: seed_message, run: run_dns_message_view },
        Target { name: "dns_name", corpus: "dns_name", seed: seed_name, run: run_dns_name },
        Target { name: "dns_rr", corpus: "dns_rr", seed: seed_rr, run: run_dns_rr },
        Target { name: "dns_rr_dnssec", corpus: "dns_rr_dnssec", seed: seed_rr_dnssec, run: run_dns_rr },
        Target { name: "tcp_frame", corpus: "tcp_frame", seed: seed_tcp_frame, run: run_tcp_frame },
        Target { name: "tcp_segment", corpus: "tcp_segment", seed: seed_tcp_segment, run: run_tcp_segment },
        Target { name: "ipv4", corpus: "ipv4", seed: seed_ipv4, run: run_ipv4 },
        Target { name: "udp", corpus: "udp", seed: seed_udp, run: run_udp },
        Target { name: "icmp", corpus: "icmp", seed: seed_icmp, run: run_icmp },
        Target { name: "http_request", corpus: "http_request", seed: seed_http_request, run: run_http_request },
        Target { name: "http_response", corpus: "http_response", seed: seed_http_response, run: run_http_response },
        Target { name: "zone", corpus: "zone", seed: seed_zone, run: run_zone },
    ]
}

// ---------------------------------------------------------------------------
// Seeded runner: random buffers, mutated seeds, spliced seeds.
// ---------------------------------------------------------------------------

fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Runs `iters` fuzz iterations of one target, deterministically derived
/// from `seed` and the target name. Returns the number of inputs executed.
pub fn run_target(target: &Target, seed: u64, iters: usize) -> usize {
    let mut rng = ChaCha20Rng::seed_from_u64(seed ^ fnv(target.name));
    for _ in 0..iters {
        let input = match rng.gen_range(0u32..10) {
            0..=1 => random_buffer(&mut rng),
            2..=7 => {
                let base = (target.seed)(&mut rng);
                mutate(&mut rng, &base)
            }
            _ => {
                let a = (target.seed)(&mut rng);
                let b = (target.seed)(&mut rng);
                splice(&mut rng, &a, &b)
            }
        };
        (target.run)(&input);
    }
    iters
}

fn random_buffer(rng: &mut ChaCha20Rng) -> Vec<u8> {
    let len = rng.gen_range(0usize..600);
    let mut buf = vec![0u8; len];
    rng.fill(&mut buf[..]);
    buf
}

/// Two-byte values worth planting: zero, maxima, compression pointers, the
/// TCP frame cap, and common count/length fields.
const INTERESTING_U16: [u16; 8] = [0, 1, 0x00ff, 0x0100, 0xc00c, 0xc000, 0x4001, 0xffff];

fn mutate(rng: &mut ChaCha20Rng, base: &[u8]) -> Vec<u8> {
    let mut buf = base.to_vec();
    for _ in 0..rng.gen_range(1usize..8) {
        if buf.is_empty() {
            buf.push(rng.gen());
            continue;
        }
        let idx = rng.gen_range(0..buf.len());
        match rng.gen_range(0u32..7) {
            0 => buf[idx] ^= 1 << rng.gen_range(0u32..8),
            1 => buf[idx] = rng.gen(),
            2 => buf.truncate(idx),
            3 => buf.insert(idx, rng.gen()),
            4 => {
                buf.remove(idx);
            }
            5 => {
                let v = INTERESTING_U16[rng.gen_range(0..INTERESTING_U16.len())].to_be_bytes();
                buf[idx] = v[0];
                if idx + 1 < buf.len() {
                    buf[idx + 1] = v[1];
                }
            }
            _ => {
                let n = rng.gen_range(1usize..16).min(buf.len() - idx);
                let chunk = buf[idx..idx + n].to_vec();
                buf.extend_from_slice(&chunk);
            }
        }
    }
    buf
}

fn splice(rng: &mut ChaCha20Rng, a: &[u8], b: &[u8]) -> Vec<u8> {
    let cut_a = if a.is_empty() { 0 } else { rng.gen_range(0..=a.len()) };
    let cut_b = if b.is_empty() { 0 } else { rng.gen_range(0..=b.len()) };
    let mut out = a[..cut_a].to_vec();
    out.extend_from_slice(&b[cut_b..]);
    out
}

// ---------------------------------------------------------------------------
// Corpus: committed minimised findings, replayed in tier-1 `cargo test`.
// ---------------------------------------------------------------------------

/// Root of the committed corpus (one subdirectory per target).
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"))
}

/// Replays every committed corpus entry of one target, in file-name order.
/// Returns the number of entries executed.
pub fn replay_corpus(target: &Target) -> usize {
    let dir = corpus_dir().join(target.corpus);
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return 0;
    };
    let mut files: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    files.sort();
    let mut executed = 0;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_else(|e| panic!("read corpus entry {}: {e}", file.display()));
        (target.run)(&bytes);
        executed += 1;
    }
    executed
}

/// The canonical minimised corpus: every entry is the input that exposed a
/// named parser defect (see the matching regression unit test), kept here
/// so the defect can never silently return.
pub fn canonical_corpus() -> Vec<(&'static str, &'static str, Vec<u8>)> {
    let query = Message::query(1, name("vict.im"), RecordType::A).encode();

    let mut count_balloon = query.clone();
    count_balloon[4] = 0xff; // QDCOUNT high byte: 65535+ claimed questions
    count_balloon[5] = 0xff;

    let mut trailing = query.clone();
    trailing.push(0x00);

    // ResourceRecord at offset 0: root name, NS, class IN, TTL 300, then a
    // lying RDLENGTH of 1 followed by a name needing 5 bytes.
    let rdlen_escape = rr_bytes(RecordType::NS, 1, &[3, b'f', b'o', b'o', 0]);
    // A-record RDATA of 4 bytes inside an RDLENGTH window of 5: one slack byte.
    let rdlen_slack = rr_bytes(RecordType::A, 5, &[192, 0, 2, 1, 0xaa]);

    // NSEC3 whose salt (resp. next-hash) length octet claims bytes past the
    // RDLENGTH window: typed error, never an out-of-window read.
    let nsec3_salt_escape = rr_bytes(RecordType::NSEC3, 9, &[1, 0, 0, 0, 200, 1, 2, 3, 4]);
    let nsec3_hash_escape = rr_bytes(RecordType::NSEC3, 12, &[1, 1, 0, 0, 2, 0xab, 0xcd, 30, 1, 2, 3, 4]);
    // NSEC bitmap with its windows out of order and a padded octet count:
    // accepted, but must canonicalise to one wire form on re-encode.
    let bitmap_disorder =
        rr_bytes(RecordType::NSEC, 12, &[1, b'y', 0, 0x01, 0x01, 0x40, 0x00, 0x04, 0x40, 0x00, 0x00, 0x00]);
    // RRSIG whose signer name runs past the RDLENGTH window while the
    // buffer continues: the clipped view must reject, not read onwards.
    let mut rrsig_rdata = vec![0, 1, 253, 1];
    rrsig_rdata.extend_from_slice(&300u32.to_be_bytes());
    rrsig_rdata.extend_from_slice(&86_400u32.to_be_bytes());
    rrsig_rdata.extend_from_slice(&0u32.to_be_bytes());
    rrsig_rdata.extend_from_slice(&0x1234u16.to_be_bytes());
    rrsig_rdata.extend_from_slice(&[3, b'a', b'b', b'c', 0]);
    let rrsig_truncated_signer = rr_bytes(RecordType::RRSIG, 20, &rrsig_rdata);

    let mut ipv4_under = Ipv4Packet::new(ip_header(Protocol::Udp, 16), vec![0u8; 16]);
    ipv4_under.header.total_length = 8;
    let mut ipv4_past = Ipv4Packet::new(ip_header(Protocol::Udp, 16), vec![0u8; 16]);
    ipv4_past.header.total_length = (IPV4_HEADER_LEN + 17) as u16;
    let ipv4_options = options_packet();

    let mut huge_cl = b"HTTP/1.0 200 OK\r\nContent-Length: 4294967295\r\n\r\n".to_vec();
    huge_cl.extend_from_slice(b"x");
    let mut binary_body = b"HTTP/1.0 200 OK\r\nContent-Length: 4\r\n\r\n".to_vec();
    binary_body.extend_from_slice(&[0xff, 0xfe, 0xfd, 0xfc]);

    vec![
        ("dns_name", "label_with_dot.bin", vec![3, b'a', b'.', b'b', 0]),
        ("dns_name", "label_ctrl_byte.bin", vec![1, 0x07, 0]),
        ("dns_name", "self_pointer.bin", vec![0xc0, 0x00]),
        ("dns_message", "count_balloon.bin", count_balloon),
        ("dns_message", "trailing_byte.bin", trailing),
        ("dns_rr", "rdlen_escape.bin", rdlen_escape),
        ("dns_rr", "rdlen_slack.bin", rdlen_slack),
        ("dns_rr_dnssec", "nsec3_salt_escape.bin", nsec3_salt_escape),
        ("dns_rr_dnssec", "nsec3_hash_escape.bin", nsec3_hash_escape),
        ("dns_rr_dnssec", "bitmap_window_disorder.bin", bitmap_disorder),
        ("dns_rr_dnssec", "rrsig_truncated_signer.bin", rrsig_truncated_signer),
        ("tcp_frame", "oversize_claim.bin", ((MAX_TCP_FRAME_LEN + 1) as u16).to_be_bytes().to_vec()),
        ("tcp_segment", "oversized.bin", vec![0u8; usize::from(u16::MAX) + 1]),
        ("ipv4", "len_under_header.bin", ipv4_under.encode()),
        ("ipv4", "len_past_buffer.bin", ipv4_past.encode()),
        ("ipv4", "options_ihl.bin", ipv4_options),
        ("http_request", "non_utf8_head.bin", b"\xff\xfe GET /x\r\n\r\n".to_vec()),
        ("http_request", "post_method.bin", b"POST /x HTTP/1.0\r\n\r\n".to_vec()),
        ("http_request", "oversized_head.bin", vec![b'A'; MAX_HTTP_HEAD + 1]),
        ("http_response", "huge_content_length.bin", huge_cl),
        ("http_response", "binary_body.bin", binary_body),
    ]
}

/// Writes the canonical corpus to `corpus/`, creating directories as needed.
pub fn bless_corpus() -> std::io::Result<usize> {
    let root = corpus_dir();
    let mut written = 0;
    for (target, file, bytes) in canonical_corpus() {
        let dir = root.join(target);
        std::fs::create_dir_all(&dir)?;
        std::fs::write(dir.join(file), bytes)?;
        written += 1;
    }
    Ok(written)
}

fn rr_bytes(rtype: RecordType, rdlength: u16, rdata: &[u8]) -> Vec<u8> {
    // name (root) + type + class + ttl + rdlength, then the raw window.
    let mut out = vec![0x00];
    out.extend_from_slice(&rtype_value(rtype).to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes());
    out.extend_from_slice(&300u32.to_be_bytes());
    out.extend_from_slice(&rdlength.to_be_bytes());
    out.extend_from_slice(rdata);
    out
}

fn rtype_value(rtype: RecordType) -> u16 {
    match rtype {
        RecordType::A => 1,
        RecordType::NS => 2,
        RecordType::RRSIG => 46,
        RecordType::NSEC => 47,
        RecordType::NSEC3 => 50,
        _ => panic!("extend rtype_value for {rtype:?}"),
    }
}

fn options_packet() -> Vec<u8> {
    let pkt = Ipv4Packet::new(ip_header(Protocol::Udp, 16), vec![0u8; 16]);
    let mut bytes = pkt.encode();
    bytes[0] = 0x46; // IHL 6: one 4-byte options word
    bytes.splice(IPV4_HEADER_LEN..IPV4_HEADER_LEN, [0u8; 4]);
    let total = bytes.len() as u16;
    bytes[2..4].copy_from_slice(&total.to_be_bytes());
    bytes[10] = 0;
    bytes[11] = 0;
    let ck = netsim::checksum::checksum(&bytes[..24]);
    bytes[10..12].copy_from_slice(&ck.to_be_bytes());
    bytes
}

fn ip_header(protocol: Protocol, payload_len: usize) -> Ipv4Header {
    Ipv4Header::new(SRC, DST, protocol, payload_len, 7, 64)
}

fn name(s: &str) -> DomainName {
    s.parse().expect("valid name literal")
}

// ---------------------------------------------------------------------------
// Structure-aware seeds: valid encodings from the workspace's own encoders.
// ---------------------------------------------------------------------------

fn random_name(rng: &mut ChaCha20Rng) -> DomainName {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_";
    let labels: Vec<String> = (0..rng.gen_range(1usize..4))
        .map(|_| {
            (0..rng.gen_range(1usize..12)).map(|_| char::from(ALPHABET[rng.gen_range(0..ALPHABET.len())])).collect()
        })
        .collect();
    DomainName::from_labels(labels).expect("alphabet labels are valid")
}

fn random_rdata(rng: &mut ChaCha20Rng) -> RData {
    match rng.gen_range(0u32..7) {
        0 => RData::A(Ipv4Addr::from(rng.gen::<u32>())),
        1 => RData::Ns(random_name(rng)),
        2 => RData::Cname(random_name(rng)),
        3 => RData::Mx { preference: rng.gen(), exchange: random_name(rng) },
        4 => {
            let len = rng.gen_range(0usize..40);
            RData::Txt((0..len).map(|_| char::from(rng.gen_range(b' '..=b'~'))).collect())
        }
        5 => random_dnssec_rdata(rng),
        _ => RData::Aaaa({
            let mut a = [0u8; 16];
            rng.fill(&mut a[..]);
            a
        }),
    }
}

fn random_bytes(rng: &mut ChaCha20Rng, max: usize) -> Vec<u8> {
    let len = rng.gen_range(0usize..max);
    let mut buf = vec![0u8; len];
    rng.fill(&mut buf[..]);
    buf
}

fn random_record_types(rng: &mut ChaCha20Rng) -> Vec<RecordType> {
    // Spans several bitmap windows, including numbers the workspace has no
    // named type for, so the window-block encoder gets exercised in full.
    (0..rng.gen_range(0usize..6)).map(|_| RecordType::from_number(rng.gen_range(1u16..1024))).collect()
}

fn random_dnssec_rdata(rng: &mut ChaCha20Rng) -> RData {
    match rng.gen_range(0u32..5) {
        0 => RData::Dnskey {
            flags: if rng.gen_bool(0.5) { 256 } else { 257 },
            algorithm: 253,
            public_key: random_bytes(rng, 40),
        },
        1 => RData::Ds {
            key_tag: rng.gen(),
            algorithm: 253,
            digest_type: rng.gen_range(1u8..3),
            digest: random_bytes(rng, 33),
        },
        2 => RData::Nsec { next: random_name(rng), types: random_record_types(rng) },
        3 => RData::Nsec3 {
            hash_algorithm: 1,
            flags: u8::from(rng.gen_bool(0.5)),
            iterations: rng.gen_range(0u16..16),
            salt: random_bytes(rng, 9),
            next_hashed: random_bytes(rng, 21),
            types: random_record_types(rng),
        },
        _ => RData::Rrsig {
            type_covered: RecordType::from_number(rng.gen_range(1u16..64)),
            algorithm: 253,
            labels: rng.gen_range(0u8..6),
            original_ttl: rng.gen_range(0u32..86_400),
            expiration: rng.gen(),
            inception: rng.gen(),
            key_tag: rng.gen(),
            signer: random_name(rng),
            signature: random_bytes(rng, 24),
        },
    }
}

fn seed_message(rng: &mut ChaCha20Rng) -> Vec<u8> {
    let query = Message::query(rng.gen(), random_name(rng), RecordType::A);
    if rng.gen_bool(0.5) {
        return query.encode();
    }
    let mut resp = Message::response_for(&query);
    for _ in 0..rng.gen_range(0usize..4) {
        resp.answers.push(ResourceRecord::new(random_name(rng), rng.gen_range(0u32..86_400), random_rdata(rng)));
    }
    resp.encode()
}

fn seed_name(rng: &mut ChaCha20Rng) -> Vec<u8> {
    let mut buf = Vec::new();
    random_name(rng).encode(&mut buf, None);
    buf
}

fn seed_rr(rng: &mut ChaCha20Rng) -> Vec<u8> {
    let mut buf = Vec::new();
    ResourceRecord::new(random_name(rng), rng.gen_range(0u32..86_400), random_rdata(rng)).encode(&mut buf, None);
    buf
}

fn seed_rr_dnssec(rng: &mut ChaCha20Rng) -> Vec<u8> {
    let record = if rng.gen_bool(0.25) {
        // Real pipeline output: the actual key manager and signer, so seeds
        // include genuine key tags, DS digests and RRSIG layouts rather than
        // only random field soup.
        let keys = KeyManager::new(rng.gen());
        let origin = random_name(rng);
        match rng.gen_range(0u32..3) {
            0 => ResourceRecord::new(origin.clone(), 3600, keys.ksk().ds(&origin)),
            1 => ResourceRecord::new(origin, 3600, keys.active_zsk().dnskey()),
            _ => {
                let rrset = [ResourceRecord::new(origin.clone(), 300, RData::A(Ipv4Addr::from(rng.gen::<u32>())))];
                sign_rrset_with_window(keys.active_zsk(), &rrset, &origin, 0, rng.gen_range(1u32..100_000))
            }
        }
    } else {
        ResourceRecord::new(random_name(rng), rng.gen_range(0u32..86_400), random_dnssec_rdata(rng))
    };
    let mut buf = Vec::new();
    record.encode(&mut buf, None);
    buf
}

fn seed_tcp_frame(rng: &mut ChaCha20Rng) -> Vec<u8> {
    let mut stream = vec![rng.gen_range(1u8..9)]; // leading chunk-size byte
    for _ in 0..rng.gen_range(1usize..3) {
        stream.extend_from_slice(&frame_tcp(&seed_message(rng)));
    }
    stream
}

fn seed_tcp_segment(rng: &mut ChaCha20Rng) -> Vec<u8> {
    let len = rng.gen_range(0usize..64);
    let mut payload = vec![0u8; len];
    rng.fill(&mut payload[..]);
    let seg = TcpSegment {
        src: SRC,
        dst: DST,
        src_port: rng.gen(),
        dst_port: rng.gen(),
        seq: rng.gen(),
        ack: rng.gen(),
        flags: TcpFlags { fin: rng.gen(), syn: rng.gen(), rst: rng.gen(), psh: rng.gen(), ack: rng.gen() },
        window: rng.gen(),
        payload,
    };
    seg.encode()
}

fn seed_ipv4(rng: &mut ChaCha20Rng) -> Vec<u8> {
    let len = rng.gen_range(0usize..128);
    let mut payload = vec![0u8; len];
    rng.fill(&mut payload[..]);
    let mut header = ip_header(Protocol::from_number(rng.gen()), payload.len());
    header.identification = rng.gen();
    header.ttl = rng.gen();
    Ipv4Packet::new(header, payload).encode()
}

fn seed_udp(rng: &mut ChaCha20Rng) -> Vec<u8> {
    let len = rng.gen_range(0usize..128);
    let mut payload = vec![0u8; len];
    rng.fill(&mut payload[..]);
    UdpDatagram::new(SRC, DST, rng.gen(), rng.gen(), payload).encode()
}

fn seed_icmp(rng: &mut ChaCha20Rng) -> Vec<u8> {
    let len = rng.gen_range(0usize..32);
    let mut payload = vec![0u8; len];
    rng.fill(&mut payload[..]);
    let msg = if rng.gen_bool(0.5) {
        IcmpMessage::EchoRequest { id: rng.gen(), seq: rng.gen(), payload }
    } else {
        let offending = UdpDatagram::new(SRC, DST, rng.gen(), rng.gen(), payload).into_packet(7, 64);
        if rng.gen_bool(0.5) {
            IcmpMessage::port_unreachable(&offending)
        } else {
            IcmpMessage::fragmentation_needed(&offending, rng.gen_range(68u16..1500))
        }
    };
    msg.encode()
}

fn seed_http_request(rng: &mut ChaCha20Rng) -> Vec<u8> {
    ca::http::http_get(&random_name(rng).to_string(), "/.well-known/acme-challenge/tok")
}

fn seed_http_response(rng: &mut ChaCha20Rng) -> Vec<u8> {
    let body: String = (0..rng.gen_range(0usize..64)).map(|_| char::from(rng.gen_range(b' '..=b'~'))).collect();
    let mut stream = vec![rng.gen_range(1u8..9)]; // leading chunk-size byte
    stream.extend_from_slice(&ca::http::http_response(rng.gen_range(100u16..600), "Status", &body));
    stream
}

fn seed_zone(rng: &mut ChaCha20Rng) -> Vec<u8> {
    random_buffer(rng)
}

// ---------------------------------------------------------------------------
// Run functions: totality + fixed-point assertions per codec.
// ---------------------------------------------------------------------------

fn run_dns_message(bytes: &[u8]) {
    let Ok(m1) = Message::decode(bytes) else { return };
    let b1 = m1.encode();
    let m2 = Message::decode(&b1).expect("re-decoding an encoded message succeeds");
    assert_eq!(m2, m1, "message decode/encode fixed point");
    assert_eq!(m2.encode(), b1, "message encoding is stable");
}

/// Differential: the borrowed view and the owned decode accept the same
/// inputs with the same error, and agree on the header, the first question
/// (its name's wire bytes, case kept) and the rcode; the view's owned copy
/// is the owned decode.
fn run_dns_message_view(bytes: &[u8]) {
    let (view, owned) = (MessageView::parse(bytes), Message::decode(bytes));
    assert_eq!(view.as_ref().err(), owned.as_ref().err(), "the view rejects exactly what owned decode rejects");
    let (Ok(view), Ok(owned)) = (view, owned) else { return };
    assert_eq!(*view.header(), owned.header, "view header");
    assert_eq!(view.header().rcode, owned.header.rcode, "view rcode");
    let question = view.question().map(|q| (q.name.wire().to_vec(), q.qtype));
    let owned_question = owned.question().map(|q| (q.name.wire().to_vec(), q.qtype));
    assert_eq!(question, owned_question, "view first question");
    assert_eq!(view.to_owned(), owned, "the view's owned copy");
}

fn run_dns_name(bytes: &[u8]) {
    // Offset 0 exercises plain labels; a derived nonzero offset exercises
    // backward compression pointers into the prefix.
    let mut offsets = vec![0usize];
    if bytes.len() > 2 {
        offsets.push(usize::from(bytes[0]) % bytes.len());
    }
    for offset in offsets {
        let Ok((n1, end)) = DomainName::decode(bytes, offset) else { continue };
        assert!(end <= bytes.len(), "decode consumed past the buffer");
        let mut b1 = Vec::new();
        n1.encode(&mut b1, None);
        let (n2, end2) = DomainName::decode(&b1, 0).expect("re-decoding an encoded name succeeds");
        assert_eq!(n2, n1, "name decode/encode fixed point");
        assert_eq!(end2, b1.len(), "flat re-encoding is fully consumed");
    }
}

fn run_dns_rr(bytes: &[u8]) {
    let Ok((rr1, end)) = ResourceRecord::decode(bytes, 0) else { return };
    assert!(end <= bytes.len(), "decode consumed past the buffer");
    let mut b1 = Vec::new();
    rr1.encode(&mut b1, None);
    let (rr2, end2) = ResourceRecord::decode(&b1, 0).expect("re-decoding an encoded record succeeds");
    assert_eq!(rr2, rr1, "record decode/encode fixed point");
    assert_eq!(end2, b1.len(), "flat re-encoding is fully consumed");
}

fn run_tcp_frame(bytes: &[u8]) {
    // First byte picks the delivery chunk size; the rest is the stream.
    let Some((&first, stream)) = bytes.split_first() else { return };
    let chunk = usize::from(first).clamp(1, 64);

    let mut chunked = TcpFrameBuffer::new();
    let mut frames_chunked = Vec::new();
    for part in stream.chunks(chunk) {
        chunked.push(part);
        while let Some(f) = chunked.pop() {
            frames_chunked.push(f);
        }
    }

    let mut oneshot = TcpFrameBuffer::new();
    oneshot.push(stream);
    let mut frames_oneshot = Vec::new();
    while let Some(f) = oneshot.pop() {
        frames_oneshot.push(f);
    }

    assert_eq!(frames_chunked, frames_oneshot, "framing is delivery-chunking independent");
    assert_eq!(chunked.rejected(), oneshot.rejected(), "rejection is delivery-chunking independent");
    for f in &frames_oneshot {
        assert!(f.len() <= MAX_TCP_FRAME_LEN, "popped frame exceeds the cap");
    }
    assert!(chunked.pending_len() <= MAX_TCP_FRAME_LEN + 2, "buffered residue exceeds the cap");
}

fn run_tcp_segment(bytes: &[u8]) {
    let pkt = Ipv4Packet::new(ip_header(Protocol::Tcp, bytes.len()), bytes.to_vec());
    let Ok(seg) = TcpSegment::from_packet(&pkt) else { return };
    let pkt2 = seg.clone().into_packet(7, 64);
    assert_eq!(TcpSegment::from_packet(&pkt2).expect("re-decode"), seg, "segment decode/encode fixed point");
}

fn run_ipv4(bytes: &[u8]) {
    let Ok(p1) = Ipv4Packet::decode(bytes) else { return };
    let b1 = p1.encode();
    let p2 = Ipv4Packet::decode(&b1).expect("re-decoding an encoded packet succeeds");
    assert_eq!(p2, p1, "packet decode/encode fixed point");
    assert_eq!(p2.encode(), b1, "packet encoding is stable");
}

fn run_udp(bytes: &[u8]) {
    let pkt = Ipv4Packet::new(ip_header(Protocol::Udp, bytes.len()), bytes.to_vec());
    let Ok(d1) = UdpDatagram::from_packet(&pkt) else { return };
    let pkt2 = d1.clone().into_packet(7, 64);
    assert_eq!(UdpDatagram::from_packet(&pkt2).expect("re-decode"), d1, "datagram decode/encode fixed point");
}

fn run_icmp(bytes: &[u8]) {
    let Ok(m1) = IcmpMessage::decode(bytes) else { return };
    let b1 = m1.encode();
    let m2 = IcmpMessage::decode(&b1).expect("re-decoding an encoded message succeeds");
    assert_eq!(m2, m1, "ICMP decode/encode fixed point");
}

fn run_http_request(bytes: &[u8]) {
    match parse_request(bytes) {
        RequestParse::Get(path) => {
            assert!(!path.is_empty(), "GET parse yielded an empty path");
            // A complete parse must be reproducible on the same bytes.
            assert_eq!(parse_request(bytes), RequestParse::Get(path), "request parsing is deterministic");
        }
        RequestParse::Pending => {
            assert!(bytes.len() <= MAX_HTTP_HEAD, "pending past the head cap would buffer without bound");
        }
        RequestParse::Bad => {}
    }
}

fn run_http_response(bytes: &[u8]) {
    // First byte picks the delivery chunk size; the rest is the stream.
    let Some((&first, stream)) = bytes.split_first() else { return };
    let chunk = usize::from(first).clamp(1, 64);

    let mut chunked = HttpResponseParser::new();
    for part in stream.chunks(chunk) {
        chunked.push(part);
    }
    let mut oneshot = HttpResponseParser::new();
    oneshot.push(stream);

    assert_eq!(chunked.complete(), oneshot.complete(), "response parsing is delivery-chunking independent");
    assert_eq!(chunked.failed(), oneshot.failed(), "failure is delivery-chunking independent");
}

fn run_zone(bytes: &[u8]) {
    // Interpret the input as a little op-program over the zone builder, then
    // look up every derived name: construction and lookup must be total.
    let mut zone = Zone::new(name("vict.im"));
    let mut queried = Vec::new();
    for chunk in bytes.chunks(4) {
        let label: String = chunk.iter().skip(1).map(|b| char::from(b'a' + b % 26)).collect();
        let host = if label.is_empty() { "vict.im".to_string() } else { format!("{label}.vict.im") };
        match chunk[0] % 5 {
            0 => {
                zone.add_a(&host, Ipv4Addr::from((u32::from(chunk[0]) << 8) | u32::from(*chunk.last().unwrap())));
            }
            1 => {
                zone.add_txt(&host, &label);
            }
            2 => {
                zone.add_cname(&host, "www.vict.im");
            }
            3 => {
                zone.add_ns("ns1.vict.im", SRC);
            }
            _ => {}
        }
        queried.push(host);
    }
    for host in queried {
        let qname: DomainName = host.parse().expect("derived names are valid");
        for qtype in [RecordType::A, RecordType::TXT, RecordType::CNAME, RecordType::ANY] {
            let _ = zone.lookup(&qname, qtype);
        }
    }
    let _ = zone.lookup(&name("else.where"), RecordType::A);
}
