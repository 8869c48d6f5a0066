//! The Internet checksum (RFC 1071) used by IPv4, UDP and ICMP.
//!
//! The FragDNS methodology depends on the attacker's spoofed second fragment
//! reassembling into a datagram whose **UDP checksum still verifies** at the
//! victim resolver; the checksum arithmetic here is therefore implemented
//! exactly (one's-complement sum over 16-bit words) so the attack code can
//! solve for its compensation word the same way a real exploit would.
//!
//! Every received UDP datagram, each of SadDNS's 2¹⁶ spoofed answers
//! included, is verified here, so [`Checksum::add_bytes`] sums in 8-byte
//! words in the machine's native byte order and swaps the folded result into
//! network order once (RFC 1071 §2(B)).

/// Running one's-complement sum used to compute RFC 1071 checksums over
/// multiple buffers (e.g. a pseudo-header followed by a payload).
///
/// Bytes are summed in 8-byte machine words (RFC 1071 §2's "sum in larger
/// units" trick), read in the machine's native byte order (§2(B): the sum
/// is byte-order independent). Each word contributes its two 32-bit halves
/// to a 64-bit accumulator; that sum is folded to 16 bits, byte-swapped
/// once into network order (a no-op on a big-endian machine) and added to
/// the running sum, whose carries fold once at [`finish`](Self::finish).
/// A 64-bit accumulator absorbs over 2³² halves before it could wrap, far
/// beyond any 64 KiB datagram.
///
/// Feeding is byte-exact across calls: an odd-length `add_bytes` leaves the
/// accumulator mid-word, and the next `add_bytes` completes that word, so
/// chunked feeding at *any* split point equals a single-shot sum over the
/// concatenated bytes. The crate-internal `add_u16`/`add_u32`
/// feed word-aligned values regardless of the current byte phase (one's
/// complement addition is commutative, so an aligned word can join the sum
/// at any point).
#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    sum: u64,
    /// Set when an odd number of bytes have been fed: the last byte occupies
    /// the high half of a pending 16-bit word awaiting its low byte.
    odd: bool,
}

impl Checksum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds a byte slice into the accumulator. A trailing odd byte is held
    /// as the high half of a pending word: completed by the next `add_bytes`
    /// call, or zero-padded at `finish` as required by RFC 1071.
    pub fn add_bytes(&mut self, data: &[u8]) -> &mut Self {
        let mut data = data;
        if self.odd {
            let Some((&first, rest)) = data.split_first() else {
                return self;
            };
            // Complete the pending word: its high byte was added as `b << 8`,
            // so the low byte joins unshifted.
            self.sum += u64::from(first);
            self.odd = false;
            data = rest;
        }
        let mut wide = data.chunks_exact(8);
        let mut native = 0u64;
        for chunk in &mut wide {
            let v = u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk"));
            // Two 32-bit halves, each a pair of native-order 16-bit words;
            // carries accumulate in the upper bits.
            native += (v >> 32) + (v & 0xffff_ffff);
        }
        // The bytes start on a word boundary, so the folded native-order sum
        // is the network-order sum with its two bytes swapped (RFC 1071
        // §2(B)).
        self.sum += u64::from(u16::from_be_bytes(fold(native).to_ne_bytes()));
        let mut rest = wide.remainder();
        if rest.len() >= 4 {
            let v = u32::from_be_bytes(rest[..4].try_into().expect("4-byte chunk"));
            self.sum += u64::from(v);
            rest = &rest[4..];
        }
        if rest.len() >= 2 {
            self.sum += u64::from(u16::from_be_bytes([rest[0], rest[1]]));
            rest = &rest[2..];
        }
        if let Some(&last) = rest.first() {
            self.sum += u64::from(last) << 8;
            self.odd = true;
        }
        self
    }

    /// Feeds a single big-endian 16-bit word (always word-aligned,
    /// independent of the current byte phase).
    pub(crate) fn add_u16(&mut self, word: u16) -> &mut Self {
        self.sum += u64::from(word);
        self
    }

    /// Feeds a 32-bit value as two 16-bit words (e.g. an IPv4 address).
    pub(crate) fn add_u32(&mut self, value: u32) -> &mut Self {
        self.sum += u64::from(value >> 16) + u64::from(value & 0xffff);
        self
    }

    /// Finalises the checksum: folds carries and takes the one's complement.
    pub fn finish(self) -> u16 {
        !fold(self.sum)
    }

    /// Returns the folded sum *without* complementing — useful for verifying
    /// a buffer that already contains its checksum (result must be `0xffff`).
    pub fn folded(self) -> u16 {
        !self.finish()
    }
}

/// Folds the carries of a one's-complement sum into 16 bits (end-around
/// carry). Only a zero sum folds to zero.
pub(crate) fn fold(mut sum: u64) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// Computes the RFC 1071 checksum of a single buffer.
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(data);
    c.finish()
}

/// Verifies a buffer whose checksum field is already filled in: the folded
/// one's-complement sum of the whole buffer must be `0xffff`.
pub fn verify(data: &[u8]) -> bool {
    let mut c = Checksum::new();
    c.add_bytes(data);
    c.folded() == 0xffff
}

/// Updates a checksum after one 16-bit word of the data it covers changed
/// from `old` to `new`, without summing the data again (RFC 1624, eqn. 3:
/// `HC' = ~(~HC + ~m + m')`).
///
/// The result equals a full recompute whenever the new data has a nonzero
/// word (any UDP or TCP datagram: the pseudo-header does), including when
/// `checksum` is UDP's all-ones stand-in for a computed zero. UDP sends a
/// computed zero as `0xffff` (RFC 768); the caller applies that rule, as it
/// does after a full recompute.
pub fn update(checksum: u16, old: u16, new: u16) -> u16 {
    let mut sum = u32::from(!checksum) + u32::from(!old) + u32::from(new);
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Computes the UDP/TCP pseudo-header checksum contribution for IPv4.
pub fn pseudo_header(src: std::net::Ipv4Addr, dst: std::net::Ipv4Addr, protocol: u8, length: u16) -> Checksum {
    let mut c = Checksum::new();
    c.add_u32(u32::from(src));
    c.add_u32(u32::from(dst));
    c.add_u16(u16::from(protocol));
    c.add_u16(length);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_reference_vector() {
        // Example from RFC 1071 section 3: bytes 00 01 f2 03 f4 f5 f6 f7
        // have a sum of 0xddf2, so the checksum is !0xddf2 = 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_is_padded() {
        let even = checksum(&[0x12, 0x34, 0x56, 0x00]);
        let odd = checksum(&[0x12, 0x34, 0x56]);
        assert_eq!(even, odd);
    }

    #[test]
    fn verify_roundtrip() {
        let mut data = vec![0xde, 0xad, 0xbe, 0xef, 0x00, 0x00, 0x12, 0x34];
        // Place checksum in bytes 4..6.
        let ck = checksum(&data);
        data[4] = (ck >> 8) as u8;
        data[5] = (ck & 0xff) as u8;
        assert!(verify(&data));
        data[7] ^= 1;
        assert!(!verify(&data));
    }

    #[test]
    fn zero_buffer_checksum() {
        assert_eq!(checksum(&[]), 0xffff);
        assert_eq!(checksum(&[0, 0, 0, 0]), 0xffff);
    }

    #[test]
    fn incremental_equals_single_shot() {
        // Chunked feeding equals the single-shot sum at EVERY split point —
        // including odd offsets, where the accumulator carries a half-filled
        // word across the call boundary.
        let data = b"the quick brown fox jumps over the lazy dog";
        let single = checksum(data);
        for split in 0..=data.len() {
            let mut c = Checksum::new();
            c.add_bytes(&data[..split]);
            c.add_bytes(&data[split..]);
            assert_eq!(c.finish(), single, "split at {split}");
        }
    }

    #[test]
    fn three_way_odd_splits_equal_single_shot() {
        let data: Vec<u8> = (0u8..=50).collect();
        let single = checksum(&data);
        for a in [1usize, 3, 5, 7, 9, 11] {
            for b in [13usize, 17, 23, 29, 41] {
                let mut c = Checksum::new();
                c.add_bytes(&data[..a]);
                c.add_bytes(&data[a..b]);
                c.add_bytes(&data[b..]);
                assert_eq!(c.finish(), single, "splits at {a}/{b}");
            }
        }
    }

    #[test]
    fn empty_adds_preserve_the_pending_odd_byte() {
        let mut c = Checksum::new();
        c.add_bytes(&[0x01, 0x02, 0x03]);
        c.add_bytes(&[]);
        c.add_bytes(&[]);
        // Pending byte 0x03 is still open: 0x04 completes the word 0x0304.
        c.add_bytes(&[0x04]);
        assert_eq!(c.finish(), checksum(&[0x01, 0x02, 0x03, 0x04]));
    }

    #[test]
    fn wide_word_matches_scalar_reference_on_long_buffers() {
        // Exercise every remainder class of the 8-byte main loop against the
        // definitional word-at-a-time sum.
        for len in 0..64usize {
            let data: Vec<u8> = (0..len as u32).map(|i| (i.wrapping_mul(0x9e37) >> 3) as u8).collect();
            let mut reference: u32 = 0;
            let mut words = data.chunks_exact(2);
            for w in &mut words {
                reference += u32::from(u16::from_be_bytes([w[0], w[1]]));
            }
            if let Some(&last) = words.remainder().first() {
                reference += u32::from(u16::from_be_bytes([last, 0]));
            }
            while reference >> 16 != 0 {
                reference = (reference & 0xffff) + (reference >> 16);
            }
            assert_eq!(checksum(&data), !(reference as u16), "len {len}");
        }
    }

    #[test]
    fn ipv4_header_known_vector() {
        // Classic textbook IPv4 header (20 bytes, checksum field zeroed):
        // 4500 0073 0000 4000 4011 ---- c0a8 0001 c0a8 00c7 → 0xb861.
        let header = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8,
            0x00, 0xc7,
        ];
        assert_eq!(checksum(&header), 0xb861);
        let mut with_ck = header;
        with_ck[10] = 0xb8;
        with_ck[11] = 0x61;
        assert!(verify(&with_ck));
    }

    #[test]
    fn hand_computed_odd_length_vector() {
        // Words 0x0102 and 0x0300 (last byte zero-padded) sum to 0x0402,
        // so the checksum is !0x0402 = 0xfbfd.
        assert_eq!(checksum(&[0x01, 0x02, 0x03]), 0xfbfd);
    }

    #[test]
    fn carry_folding_vector() {
        // 0xffff + 0x0001 overflows 16 bits: the carry folds back in,
        // giving a sum of 0x0001 and a checksum of 0xfffe.
        assert_eq!(checksum(&[0xff, 0xff, 0x00, 0x01]), 0xfffe);
    }

    #[test]
    fn udp_pseudo_header_known_vector() {
        // UDP datagram 192.0.2.1:1000 -> 198.51.100.2:53 carrying "abcd"
        // (UDP length 12). Folding pseudo-header, UDP header (checksum
        // field zero) and payload by hand gives a sum of 0xb544, so the
        // transmitted checksum is !0xb544 = 0x4abb.
        let src: std::net::Ipv4Addr = "192.0.2.1".parse().unwrap();
        let dst: std::net::Ipv4Addr = "198.51.100.2".parse().unwrap();
        let mut c = pseudo_header(src, dst, 17, 12);
        c.add_u16(1000).add_u16(53).add_u16(12).add_u16(0);
        c.add_bytes(b"abcd");
        assert_eq!(c.finish(), 0x4abb);
    }

    #[test]
    fn tcp_pseudo_header_known_vector() {
        // TCP SYN 192.0.2.1:1000 -> 198.51.100.2:53, seq 1, ack 0, data
        // offset 5, window 0xffff (protocol 6, TCP length 20). Folding by
        // hand: c000+0201+c633+6402+0006+0014 (pseudo) + 03e8+0035+0000+
        // 0001+0000+0000+5002+ffff+0000+0000 (header) = 0x3406f; folded
        // 0x4072, so the transmitted checksum is !0x4072 = 0xbf8d. Unlike
        // UDP, a computed 0x0000 would be transmitted verbatim (RFC 793 has
        // no zero-means-absent rule).
        let src: std::net::Ipv4Addr = "192.0.2.1".parse().unwrap();
        let dst: std::net::Ipv4Addr = "198.51.100.2".parse().unwrap();
        let mut c = pseudo_header(src, dst, 6, 20);
        c.add_u16(1000).add_u16(53); // ports
        c.add_u32(1).add_u32(0); // seq, ack
        c.add_u16(0x5002).add_u16(0xffff); // offset/flags (SYN), window
        c.add_u16(0).add_u16(0); // checksum placeholder, urgent
        assert_eq!(c.finish(), 0xbf8d);
    }

    #[test]
    fn incremental_update_equals_full_recompute() {
        // Change every word of a buffer to a spread of values, including the
        // all-zero and all-ones words, and compare with summing it again.
        let mut data: Vec<u8> = (0..40u32).map(|i| (i.wrapping_mul(0x9e37) >> 5) as u8).collect();
        for word in 0..data.len() / 2 {
            for new in [0x0000u16, 0x0001, 0x1234, 0x8000, 0xfffe, 0xffff] {
                let before = checksum(&data);
                let old = u16::from_be_bytes([data[2 * word], data[2 * word + 1]]);
                data[2 * word..2 * word + 2].copy_from_slice(&new.to_be_bytes());
                assert_eq!(update(before, old, new), checksum(&data), "word {word}: {old:#06x} -> {new:#06x}");
            }
        }
    }

    #[test]
    fn incremental_update_keeps_udp_zero_rule() {
        use crate::udp::UdpDatagram;
        let src: std::net::Ipv4Addr = "192.0.2.1".parse().unwrap();
        let dst: std::net::Ipv4Addr = "198.51.100.2".parse().unwrap();
        let dgram = |word: u16| UdpDatagram::new(src, dst, 53, 40000, [word.to_be_bytes(), [0x5a, 0xa5]].concat());
        // The one payload word whose datagram's checksum computes to zero,
        // which goes on the wire as 0xffff.
        let zero = (0..=u16::MAX).find(|&w| dgram(w).compute_checksum() == 0xffff).expect("a zero-sum word");
        let udp_rule = |ck: u16| if ck == 0 { 0xffff } else { ck };
        for other in [0u16, 1, zero.wrapping_add(1), 0x7fff, 0xffff] {
            // From the all-ones stand-in to an ordinary checksum...
            let from_zero = update(dgram(zero).compute_checksum(), zero, other);
            assert_eq!(udp_rule(from_zero), dgram(other).compute_checksum(), "{zero:#06x} -> {other:#06x}");
            // ...and from an ordinary checksum to a computed zero.
            let to_zero = update(dgram(other).compute_checksum(), other, zero);
            assert_eq!(to_zero, 0, "{other:#06x} -> {zero:#06x} computes zero");
            assert_eq!(udp_rule(to_zero), 0xffff);
        }
    }

    #[test]
    fn folded_sums_are_additive_on_word_boundaries() {
        let folded = |data: &[u8]| {
            let mut c = Checksum::new();
            c.add_bytes(data);
            c.folded()
        };
        let a = [0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0];
        let b = [0x9a, 0xbc];
        let whole = folded(&[&a[..], &b[..]].concat());
        let mut c = Checksum::new();
        c.add_u16(folded(&a)).add_u16(folded(&b));
        assert_eq!(c.folded(), whole);
    }

    #[test]
    fn pseudo_header_contribution() {
        let src: std::net::Ipv4Addr = "192.0.2.1".parse().unwrap();
        let dst: std::net::Ipv4Addr = "198.51.100.2".parse().unwrap();
        let mut c = pseudo_header(src, dst, 17, 12);
        c.add_bytes(&[0u8; 12]);
        // Deterministic value; recomputing must agree.
        let mut c2 = pseudo_header(src, dst, 17, 12);
        c2.add_bytes(&[0u8; 12]);
        assert_eq!(c.finish(), c2.finish());
    }
}
