//! Domain names: label handling, wire encoding with message compression, and
//! **0x20 encoding** (Dagon et al., CCS 2008).
//!
//! 0x20 encoding is one of the countermeasures evaluated in Section 6 of the
//! paper: the resolver randomises the case of each letter in the query name
//! and requires the response to echo the exact casing, adding up to one bit
//! of entropy per letter. It defeats SadDNS-style response forgery (the
//! attacker must guess the casing) but **not** FragDNS, because the question
//! section travels in the first, genuine fragment.

use rand::Rng;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

/// Maximum length of a single label (RFC 1035).
pub(crate) const MAX_LABEL_LEN: usize = 63;
/// Maximum total length of a domain name on the wire (RFC 1035).
pub(crate) const MAX_NAME_LEN: usize = 255;

/// The label alphabet this workspace accepts: LDH (RFC 1035 §2.3.1) plus
/// `_` (service labels like `_acme-challenge`) and `*` (wildcards). Both
/// [`DomainName::from_labels`] and the name walker enforce it, so a
/// name can never enter the system through the wire that the builder API
/// would have rejected.
fn is_label_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'*'
}

/// A fully-qualified domain name.
///
/// # Representation
///
/// A name is one case-preserving byte buffer holding its uncompressed wire
/// labels, each prefixed by its length octet, without the terminating root
/// octet: `www.vict.im` is `\x03www\x04vict\x02im`, and the root is the
/// empty buffer. Every constructor upholds three invariants:
///
/// - each length octet is in `1..=63` and is followed by exactly that many
///   label bytes;
/// - every label byte is in the accepted alphabet (LDH plus `_` and `*`), so
///   the buffer is ASCII;
/// - the buffer plus the root octet is at most 255 bytes.
///
/// Length octets are below 64, where ASCII has no letters, so folding the
/// case of the whole buffer changes only label bytes. Hashing, equality,
/// both orders ([`Ord`] and [`crate::dnssec::sign::canonical_cmp`]), the
/// bailiwick test and message compression therefore work on these bytes in
/// place and allocate nothing.
///
/// Case is preserved (for 0x20 encoding) but comparisons and hashing are
/// case-insensitive, as required by RFC 1035 / RFC 4343.
#[derive(Clone, Eq)]
pub struct DomainName {
    wire: Vec<u8>,
}

/// Appends one length-prefixed label to `wire`, checking it first.
fn push_label(wire: &mut Vec<u8>, label: &[u8]) -> Result<(), NameError> {
    if label.is_empty() {
        return Err(NameError::EmptyLabel);
    }
    if label.len() > MAX_LABEL_LEN {
        return Err(NameError::LabelTooLong(label.len()));
    }
    if !label.iter().copied().all(is_label_byte) {
        return Err(NameError::InvalidCharacter);
    }
    wire.push(label.len() as u8);
    wire.extend_from_slice(label);
    Ok(())
}

/// The labels of a name's wire buffer as byte slices, most specific first.
/// Also iterates from the root down (`rev()`), walking the length octets
/// from the front for each label, which is cheap for names of a few labels.
#[derive(Clone)]
pub(crate) struct RawLabels<'a>(&'a [u8]);

impl<'a> Iterator for RawLabels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, rest) = self.0.split_first()?;
        let (label, rest) = rest.split_at(usize::from(len));
        self.0 = rest;
        Some(label)
    }
}

impl DoubleEndedIterator for RawLabels<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        let mut start = 0;
        loop {
            let end = start + 1 + usize::from(*self.0.get(start)?);
            if end == self.0.len() {
                let label = &self.0[start + 1..];
                self.0 = &self.0[..start];
                return Some(label);
            }
            start = end;
        }
    }
}

/// Compares two labels case-insensitively, byte-wise; a label that is a
/// prefix of the other sorts first.
fn cmp_label(a: &[u8], b: &[u8]) -> Ordering {
    a.iter().map(u8::to_ascii_lowercase).cmp(b.iter().map(u8::to_ascii_lowercase))
}

/// Compares two label sequences label by label with [`cmp_label`]; a
/// sequence that is a prefix of the other sorts first.
pub(crate) fn cmp_label_seqs<'a>(
    mut a: impl Iterator<Item = &'a [u8]>,
    mut b: impl Iterator<Item = &'a [u8]>,
) -> Ordering {
    loop {
        match (a.next(), b.next()) {
            (Some(x), Some(y)) => match cmp_label(x, y) {
                Ordering::Equal => {}
                unequal => return unequal,
            },
            (x, y) => return x.is_some().cmp(&y.is_some()),
        }
    }
}

impl DomainName {
    /// The DNS root (empty name).
    pub fn root() -> Self {
        DomainName { wire: Vec::new() }
    }

    /// Builds a name from labels; returns an error for invalid labels.
    pub fn from_labels<I, S>(labels: I) -> Result<Self, NameError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut wire = Vec::new();
        for label in labels {
            push_label(&mut wire, label.as_ref().as_bytes())?;
        }
        if wire.len() + 1 > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(wire.len() + 1));
        }
        Ok(DomainName { wire })
    }

    pub(crate) fn raw_labels(&self) -> RawLabels<'_> {
        RawLabels(&self.wire)
    }

    /// The labels of this name, most specific first (`rev()` walks them from
    /// the root down).
    pub fn labels(&self) -> impl DoubleEndedIterator<Item = &str> + '_ {
        self.raw_labels().map(|label| std::str::from_utf8(label).expect("labels are ASCII"))
    }

    /// Number of labels.
    pub(crate) fn label_count(&self) -> usize {
        self.raw_labels().count()
    }

    /// Whether this is the root name.
    pub(crate) fn is_root(&self) -> bool {
        self.wire.is_empty()
    }

    /// Length of the wire representation (labels + length octets + root).
    pub fn wire_len(&self) -> usize {
        self.wire.len() + 1
    }

    /// Whether `self` equals `ancestor` or is a subdomain of it
    /// (case-insensitive). This is the **bailiwick** test resolvers apply to
    /// records in responses.
    pub fn is_subdomain_of(&self, ancestor: &DomainName) -> bool {
        let Some(start) = self.wire.len().checked_sub(ancestor.wire.len()) else { return false };
        if !self.wire[start..].eq_ignore_ascii_case(&ancestor.wire) {
            return false;
        }
        // The matching bytes must begin on a label boundary.
        let mut pos = 0;
        while pos < start {
            pos += 1 + usize::from(self.wire[pos]);
        }
        pos == start
    }

    /// The parent name (one label removed), or `None` at the root.
    pub fn parent(&self) -> Option<DomainName> {
        let first = usize::from(*self.wire.first()?);
        Some(DomainName { wire: self.wire[1 + first..].to_vec() })
    }

    /// Prepends a label, producing `label.self`.
    pub fn prepend(&self, label: &str) -> Result<DomainName, NameError> {
        let mut wire = Vec::with_capacity(1 + label.len() + self.wire.len());
        push_label(&mut wire, label.as_bytes())?;
        wire.extend_from_slice(&self.wire);
        if wire.len() + 1 > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(wire.len() + 1));
        }
        Ok(DomainName { wire })
    }

    /// Returns this name with every alphabetic character's case randomised —
    /// the 0x20 transformation applied by a protecting resolver.
    pub fn randomize_case<R: Rng>(&self, rng: &mut R) -> DomainName {
        // Length octets are never alphabetic, so they pass through unchanged.
        let wire = self
            .wire
            .iter()
            .map(|&b| {
                if b.is_ascii_alphabetic() && rng.gen::<bool>() {
                    b.to_ascii_uppercase()
                } else {
                    b.to_ascii_lowercase()
                }
            })
            .collect();
        DomainName { wire }
    }

    /// Case-*sensitive* equality — what a 0x20-validating resolver checks
    /// between the question it sent and the question echoed in the response.
    pub fn eq_case_sensitive(&self, other: &DomainName) -> bool {
        self.wire == other.wire
    }

    /// Returns a lowercased copy (canonical form).
    pub fn to_lowercase(&self) -> DomainName {
        DomainName { wire: self.wire.to_ascii_lowercase() }
    }

    /// Encodes the name to wire format, appending to `buf`.
    ///
    /// When `compression` is provided, the longest suffix already written
    /// into `buf` by an earlier name is replaced by a compression pointer,
    /// and the offsets of the suffixes this call writes are recorded
    /// (offsets must fit in 14 bits). One table serves one buffer, from the
    /// start of the message.
    pub fn encode(&self, buf: &mut Vec<u8>, compression: Option<&mut CompressionTable>) {
        encode_wire(&self.wire, buf, compression);
    }

    /// Decodes a name starting at `offset` within `msg`, following
    /// compression pointers: the name walker gathers the labels on the
    /// stack, as [`NameBuf::decode`] does, and one copy moves them to the
    /// heap. Returns the name and the offset just past it.
    pub fn decode(msg: &[u8], offset: usize) -> Result<(DomainName, usize), NameError> {
        let mut wire = [0u8; MAX_NAME_LEN];
        let (len, end) = walk_name(msg, offset, Some(&mut wire))?;
        Ok((DomainName { wire: wire[..len].to_vec() }, end))
    }

    /// The name at `offset` when `build` is set. Otherwise the name is only
    /// checked, and the root, which does not allocate, stands in for it.
    pub(crate) fn walk(msg: &[u8], offset: usize, build: bool) -> Result<(DomainName, usize), NameError> {
        if build {
            Self::decode(msg, offset)
        } else {
            walk_name(msg, offset, None).map(|(_, end)| (DomainName::root(), end))
        }
    }
}

/// A name's uncompressed wire labels without the root octet (the layout of
/// [`DomainName`]'s buffer): what the encoder writes and the cache hashes,
/// for an owned name and for one gathered on the stack alike.
pub trait WireName {
    /// The wire labels, each prefixed by its length octet.
    fn wire(&self) -> &[u8];
}

impl WireName for DomainName {
    fn wire(&self) -> &[u8] {
        &self.wire
    }
}

/// Encodes the wire labels `wire` (see [`WireName`]), appending to `buf`,
/// as [`DomainName::encode`] describes.
pub(crate) fn encode_wire(wire: &[u8], buf: &mut Vec<u8>, compression: Option<&mut CompressionTable>) {
    let Some(table) = compression else {
        buf.extend_from_slice(wire);
        buf.push(0);
        return;
    };
    let mut pos = 0;
    while pos < wire.len() {
        let suffix = &wire[pos..];
        if let Some(offset) = table.find(buf, suffix) {
            buf.extend_from_slice(&(0xC000u16 | offset).to_be_bytes());
            return;
        }
        let here = buf.len();
        if here <= 0x3FFF {
            table.push((here as u16, suffix.len() as u8));
        }
        let end = pos + 1 + usize::from(wire[pos]);
        buf.extend_from_slice(&wire[pos..end]);
        pos = end;
    }
    buf.push(0);
}

/// Hashes wire labels case-insensitively: the hash of a [`DomainName`] with
/// these labels.
pub(crate) fn hash_wire<H: Hasher>(wire: &[u8], state: &mut H) {
    let mut lower = [0u8; MAX_NAME_LEN];
    let lower = &mut lower[..wire.len()];
    lower.copy_from_slice(wire);
    lower.make_ascii_lowercase();
    state.write(lower);
}

/// The one name walker: checks the name starting at `offset` within `msg`,
/// following compression pointers, and returns the length of its wire
/// labels and the offset just past the name (past the first pointer, if
/// any). Given `wire`, it gathers the labels there, as in a
/// [`DomainName`]'s buffer.
///
/// A name is rejected for a label byte outside the alphabet, a label
/// longer than 63 bytes, a pointer that does not point backwards, more
/// than 32 pointer hops, more than 255 bytes, or a buffer that ends inside
/// it. Bytes past the size limit are only counted, so an overlong name
/// reports its full length.
pub(crate) fn walk_name(
    msg: &[u8],
    offset: usize,
    mut wire: Option<&mut [u8; MAX_NAME_LEN]>,
) -> Result<(usize, usize), NameError> {
    let mut len = 0;
    let mut pos = offset;
    let mut jumped = false;
    let mut end = offset;
    let mut hops = 0;
    loop {
        let label_len = *msg.get(pos).ok_or(NameError::Truncated)? as usize;
        if label_len & 0xC0 == 0xC0 {
            // Compression pointer.
            let second = *msg.get(pos + 1).ok_or(NameError::Truncated)? as usize;
            let target = ((label_len & 0x3F) << 8) | second;
            if !jumped {
                end = pos + 2;
                jumped = true;
            }
            hops += 1;
            if hops > 32 {
                return Err(NameError::PointerLoop);
            }
            if target >= pos {
                return Err(NameError::ForwardPointer);
            }
            pos = target;
            continue;
        }
        if label_len == 0 {
            if !jumped {
                end = pos + 1;
            }
            break;
        }
        if label_len > MAX_LABEL_LEN {
            return Err(NameError::LabelTooLong(label_len));
        }
        let bytes = msg.get(pos + 1..pos + 1 + label_len).ok_or(NameError::Truncated)?;
        // Same alphabet as the builder: wire decoding must not smuggle in
        // labels (embedded dots, control bytes, non-ASCII) that
        // `from_labels` rejects — they would corrupt display/parse
        // roundtrips and case-insensitive comparison of the buffer.
        if !bytes.iter().copied().all(is_label_byte) {
            return Err(NameError::InvalidCharacter);
        }
        let next = len + 1 + label_len;
        if let Some(wire) = wire.as_deref_mut().filter(|_| next < MAX_NAME_LEN) {
            wire[len] = label_len as u8;
            wire[len + 1..next].copy_from_slice(bytes);
        }
        len = next;
        pos += label_len + 1;
    }
    if len + 1 > MAX_NAME_LEN {
        return Err(NameError::NameTooLong(len + 1));
    }
    Ok((len, end))
}

/// A name gathered on the stack by [`NameBuf::decode`]: its wire labels, as
/// in a [`DomainName`]'s buffer, with the same three invariants. A message
/// view hands out its question's name this way, so reading a received
/// message allocates nothing; `NameBuf::to_name` copies it to the heap.
#[derive(Clone)]
pub struct NameBuf {
    len: u8,
    wire: [u8; MAX_NAME_LEN],
}

impl NameBuf {
    /// Decodes the name starting at `offset` within `msg`, following
    /// compression pointers, and gathers its labels here. Returns the name
    /// and the offset just past it.
    pub fn decode(msg: &[u8], offset: usize) -> Result<(NameBuf, usize), NameError> {
        let mut wire = [0u8; MAX_NAME_LEN];
        let (len, end) = walk_name(msg, offset, Some(&mut wire))?;
        Ok((NameBuf { len: len as u8, wire }, end))
    }

    /// The name on the heap.
    pub(crate) fn to_name(&self) -> DomainName {
        DomainName { wire: self.wire().to_vec() }
    }
}

impl WireName for NameBuf {
    fn wire(&self) -> &[u8] {
        &self.wire[..usize::from(self.len)]
    }
}

impl fmt::Debug for NameBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NameBuf({})", self.to_name())
    }
}

/// Suffix entries a [`CompressionTable`] holds inline; a message that
/// writes more spills the rest to the heap.
const INLINE_SUFFIXES: usize = 16;

/// The suffixes already written into one message buffer, for RFC 1035
/// §4.1.4 name compression: each entry is the offset of a written suffix and
/// its uncompressed wire length without the root octet. The first 16
/// entries live in the table itself, so encoding a message of normal size
/// allocates nothing for it.
#[derive(Debug)]
pub struct CompressionTable {
    inline: [(u16, u8); INLINE_SUFFIXES],
    len: usize,
    spill: Vec<(u16, u8)>,
}

impl Default for CompressionTable {
    fn default() -> Self {
        CompressionTable { inline: [(0, 0); INLINE_SUFFIXES], len: 0, spill: Vec::new() }
    }
}

impl CompressionTable {
    fn push(&mut self, entry: (u16, u8)) {
        match self.inline.get_mut(self.len) {
            Some(slot) => {
                *slot = entry;
                self.len += 1;
            }
            None => self.spill.push(entry),
        }
    }

    /// The offset of the recorded suffix that spells `suffix`
    /// case-insensitively. No two entries spell the same suffix: an entry is
    /// recorded only where no earlier one matched.
    ///
    /// Only suffixes recorded by earlier names may match. The length check
    /// keeps out the entries the name being encoded has just recorded: they
    /// are all longer than `suffix`, and the bytes behind them are not
    /// written yet.
    fn find(&self, msg: &[u8], suffix: &[u8]) -> Option<u16> {
        self.inline[..self.len]
            .iter()
            .chain(&self.spill)
            .find(|&&(offset, len)| usize::from(len) == suffix.len() && spells(msg, usize::from(offset), suffix))
            .map(|&(offset, _)| offset)
    }
}

/// Whether the name written at `pos` in `msg`, following compression
/// pointers, spells `wire` case-insensitively. The caller has checked that
/// the two have the same uncompressed length.
fn spells(msg: &[u8], mut pos: usize, mut wire: &[u8]) -> bool {
    loop {
        let len = msg[pos];
        if len & 0xC0 == 0xC0 {
            pos = (usize::from(len & 0x3F) << 8) | usize::from(msg[pos + 1]);
            continue;
        }
        if len == 0 {
            return wire.is_empty();
        }
        let n = 1 + usize::from(len);
        if wire.len() < n || !msg[pos..pos + n].eq_ignore_ascii_case(&wire[..n]) {
            return false;
        }
        wire = &wire[n..];
        pos += n;
    }
}

impl PartialEq for DomainName {
    fn eq(&self, other: &Self) -> bool {
        self.wire.eq_ignore_ascii_case(&other.wire)
    }
}

impl Hash for DomainName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        hash_wire(&self.wire, state);
    }
}

impl PartialOrd for DomainName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lowercased labels compared most specific first, a shorter label sequence
/// sorting first. This is *not* the RFC 4034 canonical order.
impl Ord for DomainName {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_label_seqs(self.raw_labels(), other.raw_labels())
    }
}

impl fmt::Debug for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Labels<'a>(&'a DomainName);
        impl fmt::Debug for Labels<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.labels()).finish()
            }
        }
        f.debug_struct("DomainName").field("labels", &Labels(self)).finish()
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for (i, label) in self.labels().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            f.write_str(label)?;
        }
        Ok(())
    }
}

impl FromStr for DomainName {
    type Err = NameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim_end_matches('.');
        if trimmed.is_empty() {
            return Ok(DomainName::root());
        }
        DomainName::from_labels(trimmed.split('.'))
    }
}

/// Errors produced when building or decoding a domain name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty.
    EmptyLabel,
    /// A label exceeded 63 octets.
    LabelTooLong(usize),
    /// The whole name exceeded 255 octets.
    NameTooLong(usize),
    /// A label contained a character outside the supported set.
    InvalidCharacter,
    /// The buffer ended in the middle of a name.
    Truncated,
    /// Compression pointers formed a loop.
    PointerLoop,
    /// A compression pointer pointed forward.
    ForwardPointer,
    /// A message carried bytes past its last counted record.
    TrailingBytes(usize),
    /// A record's RDATA content did not fill its claimed RDLENGTH exactly.
    RdataLengthMismatch,
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty label"),
            NameError::LabelTooLong(n) => write!(f, "label too long ({n} bytes)"),
            NameError::NameTooLong(n) => write!(f, "name too long ({n} bytes)"),
            NameError::InvalidCharacter => write!(f, "invalid character in label"),
            NameError::Truncated => write!(f, "truncated name"),
            NameError::PointerLoop => write!(f, "compression pointer loop"),
            NameError::ForwardPointer => write!(f, "forward compression pointer"),
            NameError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            NameError::RdataLengthMismatch => write!(f, "RDATA does not fill its RDLENGTH"),
        }
    }
}

impl std::error::Error for NameError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(n("www.vict.im").to_string(), "www.vict.im");
        assert_eq!(n("vict.im.").to_string(), "vict.im");
        assert_eq!(DomainName::root().to_string(), ".");
        assert_eq!(n("vict.im").label_count(), 2);
    }

    #[test]
    fn case_insensitive_equality_and_hash() {
        use std::collections::HashSet;
        assert_eq!(n("WWW.Vict.IM"), n("www.vict.im"));
        let mut set = HashSet::new();
        set.insert(n("WWW.Vict.IM"));
        assert!(set.contains(&n("www.vict.im")));
    }

    #[test]
    fn subdomain_relation() {
        assert!(n("ns1.vict.im").is_subdomain_of(&n("vict.im")));
        assert!(n("vict.im").is_subdomain_of(&n("vict.im")));
        assert!(n("a.b.vict.im").is_subdomain_of(&n("im")));
        assert!(!n("vict.im").is_subdomain_of(&n("attacker.com")));
        assert!(!n("notvict.im").is_subdomain_of(&n("vict.im")));
        assert!(n("anything.example").is_subdomain_of(&DomainName::root()));
    }

    #[test]
    fn subdomain_match_must_start_on_a_label_boundary() {
        // '0' is byte 48, the length octet of a 48-byte label: the bytes of
        // "im" with a 48-byte label in front also end "a0xxx...x.im".
        let x48 = "x".repeat(48);
        let ancestor = n(&format!("{x48}.im"));
        let name = n(&format!("a0{x48}.im"));
        assert!(!name.is_subdomain_of(&ancestor));
        assert!(n(&format!("a0.{x48}.im")).is_subdomain_of(&ancestor));
    }

    #[test]
    fn parent_and_prepend() {
        assert_eq!(n("www.vict.im").parent().unwrap(), n("vict.im"));
        assert_eq!(n("vict.im").prepend("mail").unwrap(), n("mail.vict.im"));
        assert!(DomainName::root().parent().is_none());
    }

    #[test]
    fn label_validation() {
        assert!(DomainName::from_labels(vec![""]).is_err());
        let long = "a".repeat(64);
        assert!(DomainName::from_labels(vec![long.as_str()]).is_err());
        assert!("bad name.example".parse::<DomainName>().is_err());
        // A maximally bloated name (attacker "bloat query" technique) is
        // valid as long as it stays within 255 octets.
        let l63 = "a".repeat(63);
        let bloated = format!("{l63}.{l63}.{l63}.vict.im");
        assert!(bloated.parse::<DomainName>().is_ok());
    }

    #[test]
    fn wire_roundtrip_without_compression() {
        let name = n("abc.vict.im");
        let mut buf = Vec::new();
        name.encode(&mut buf, None);
        assert_eq!(buf.len(), name.wire_len());
        let (decoded, end) = DomainName::decode(&buf, 0).unwrap();
        assert_eq!(decoded, name);
        assert_eq!(end, buf.len());
    }

    #[test]
    fn wire_roundtrip_with_compression() {
        let mut buf = Vec::new();
        let mut map = CompressionTable::default();
        let first = n("ns1.vict.im");
        let second = n("mail.vict.im");
        first.encode(&mut buf, Some(&mut map));
        let second_start = buf.len();
        second.encode(&mut buf, Some(&mut map));
        // The second encoding must be shorter than an uncompressed encoding.
        assert!(buf.len() - second_start < second.wire_len());
        let (d1, _) = DomainName::decode(&buf, 0).unwrap();
        let (d2, _) = DomainName::decode(&buf, second_start).unwrap();
        assert_eq!(d1, first);
        assert_eq!(d2, second);
    }

    #[test]
    fn wire_labels_outside_the_alphabet_rejected() {
        // Regression (fuzz: dns_name/label_with_dot.bin): a wire label
        // containing '.' used to decode successfully, producing a name whose
        // display form re-parses as a *different* name and whose lowercased
        // "a.b" compression-suffix key collides with the two-label name
        // ["a","b"].
        let buf = vec![3, b'a', b'.', b'b', 0];
        assert_eq!(DomainName::decode(&buf, 0), Err(NameError::InvalidCharacter));
        // Control bytes and non-ASCII (fuzz: dns_name/label_ctrl_byte.bin).
        assert_eq!(DomainName::decode(&[1, 0x07, 0], 0), Err(NameError::InvalidCharacter));
        assert_eq!(DomainName::decode(&[2, 0xC3, 0xA9, 0], 0), Err(NameError::InvalidCharacter));
        // The accepted alphabet still decodes.
        let buf = vec![4, b'x', b'-', b'_', b'9', 0];
        assert_eq!(DomainName::decode(&buf, 0).unwrap().0, DomainName::from_labels(vec!["x-_9"]).unwrap());
    }

    #[test]
    fn rejects_pointer_loops_and_truncation() {
        // Pointer to itself.
        let buf = vec![0xC0, 0x00];
        assert!(DomainName::decode(&buf, 0).is_err());
        // Truncated label.
        let buf = vec![5, b'a', b'b'];
        assert_eq!(DomainName::decode(&buf, 0), Err(NameError::Truncated));
    }

    #[test]
    fn randomize_case_preserves_identity_and_adds_entropy() {
        let mut rng = ChaCha20Rng::seed_from_u64(7);
        let name = n("verylongdomainname.example.com");
        let cased = name.randomize_case(&mut rng);
        assert_eq!(cased, name, "case-insensitive equality preserved");
        assert!(!cased.eq_case_sensitive(&name.to_lowercase()) || cased.eq_case_sensitive(&name.to_lowercase()));
        // One 0x20 entropy bit per ASCII letter.
        assert_eq!(name.wire.iter().filter(|b| b.is_ascii_alphabetic()).count(), 28);
        // With 28 letters the probability of the identity transform is 2^-28;
        // with this seed the casing must differ.
        assert!(!cased.eq_case_sensitive(&name));
    }

    #[test]
    fn case_sensitive_comparison_detects_wrong_case() {
        let a = n("vict.im");
        let b = DomainName::from_labels(vec!["VICT", "im"]).unwrap();
        assert_eq!(a, b);
        assert!(!a.eq_case_sensitive(&b));
    }

    #[test]
    fn ordering_is_case_insensitive() {
        let mut names = [n("b.example"), n("A.example"), n("c.example")];
        names.sort();
        assert_eq!(names[0], n("a.example"));
    }
}
