//! DNS message header, questions and the full message codec.
//!
//! There is one message parser, the walk behind [`MessageView::parse`]: it
//! checks a whole received message in place, every question and record, and
//! allocates nothing. A hot path reads the header and the first question
//! from the view. [`Message::decode`] is `MessageView::parse(buf)?.to_owned()`,
//! taken as one pass: the same walk, building the owned message as it goes.
//!
//! The 16-bit transaction identifier (TXID) in the header is — together with
//! the UDP source port — the challenge-response defence of RFC 5452 that all
//! three poisoning methodologies must defeat: HijackDNS reads it off the
//! intercepted query, SadDNS brute-forces it after recovering the port, and
//! FragDNS avoids it entirely because it sits in the first fragment.

use crate::name::{encode_wire, CompressionTable, DomainName, NameBuf, NameError, WireName};
use crate::rdata::{RData, RecordType, ResourceRecord};
use netsim::udp::UDP_HEADER_LEN;
use std::fmt;

/// DNS response codes (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Format error.
    FormErr,
    /// Server failure (what a resolver returns when all retries time out —
    /// the symptom applications see during a DoS via cache poisoning).
    ServFail,
    /// Name does not exist.
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Query refused (e.g. by a rate-limiting nameserver).
    Refused,
}

impl Rcode {
    fn to_u4(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
        }
    }

    fn from_u4(v: u8) -> Rcode {
        match v {
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            _ => Rcode::NoError,
        }
    }
}

/// The DNS message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Transaction identifier — 16 bits of the 32-bit challenge space.
    pub id: u16,
    /// True for responses, false for queries.
    pub is_response: bool,
    /// Authoritative answer flag.
    pub authoritative: bool,
    /// Truncation flag (response did not fit the advertised UDP size).
    pub truncated: bool,
    /// Recursion desired.
    pub recursion_desired: bool,
    /// Recursion available.
    pub recursion_available: bool,
    /// Authenticated data (DNSSEC-validated by the resolver).
    pub authenticated_data: bool,
    /// Response code.
    pub rcode: Rcode,
}

impl Header {
    /// A query header with the given transaction ID.
    pub fn query(id: u16) -> Self {
        Header {
            id,
            is_response: false,
            authoritative: false,
            truncated: false,
            recursion_desired: true,
            recursion_available: false,
            authenticated_data: false,
            rcode: Rcode::NoError,
        }
    }
}

/// Prefixes a DNS message's wire bytes with the two-byte big-endian length
/// used on stream transports (RFC 1035 §4.2.2, reaffirmed by RFC 7766).
///
/// # Panics
/// When the message exceeds 65535 bytes — the framing cannot represent it,
/// and truncating the prefix would permanently desynchronise the stream.
pub fn frame_tcp(message_bytes: &[u8]) -> Vec<u8> {
    assert!(message_bytes.len() <= usize::from(u16::MAX), "DNS message too large for RFC 1035 TCP framing");
    let mut out = Vec::with_capacity(2 + message_bytes.len());
    out.extend_from_slice(&(message_bytes.len() as u16).to_be_bytes());
    out.extend_from_slice(message_bytes);
    out
}

/// The largest DNS message [`TcpFrameBuffer`] will reassemble. The 2-byte
/// RFC 1035 prefix can claim up to 65535 bytes, but nothing in this
/// workspace produces messages anywhere near that; a hostile peer claiming
/// a huge frame and trickling bytes would otherwise pin up to 64 KiB of
/// resolver memory *per connection*. A claim above this cap poisons the
/// buffer (see [`TcpFrameBuffer::rejected`]) instead of buffering.
pub const MAX_TCP_FRAME_LEN: usize = 16 * 1024;

/// Reassembles DNS messages out of a TCP byte stream.
///
/// TCP delivers a byte stream, not datagrams: a DNS message may arrive
/// split across segments or share a segment with its neighbour (RFC 7766
/// pipelining). Each peer connection owns one buffer; [`push`] appends
/// received stream bytes and [`pop`] yields complete length-prefixed
/// messages as they become available.
///
/// Memory is bounded: a length prefix claiming more than
/// [`MAX_TCP_FRAME_LEN`] marks the buffer [`rejected`], drops everything
/// buffered and ignores all further input — the peer has proven hostile or
/// desynchronised, and there is no way to resynchronise a framed stream.
///
/// [`push`]: TcpFrameBuffer::push
/// [`pop`]: TcpFrameBuffer::pop
/// [`rejected`]: TcpFrameBuffer::rejected
#[derive(Debug, Clone, Default)]
pub struct TcpFrameBuffer {
    buf: Vec<u8>,
    rejected: bool,
}

impl TcpFrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends stream bytes received from the peer. No-op once the buffer
    /// is [`rejected`](TcpFrameBuffer::rejected).
    pub fn push(&mut self, bytes: &[u8]) {
        if self.rejected {
            return;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete DNS message (without its length prefix), if
    /// the stream holds one.
    pub fn pop(&mut self) -> Option<Vec<u8>> {
        if self.buf.len() < 2 {
            return None;
        }
        let len = usize::from(u16::from_be_bytes([self.buf[0], self.buf[1]]));
        if len > MAX_TCP_FRAME_LEN {
            // Regression (fuzz: tcp_frame/oversize_claim.bin): a 0xFFFF
            // prefix used to make the buffer hold the whole claimed frame
            // in memory while the peer drip-fed it.
            self.rejected = true;
            self.buf = Vec::new();
            return None;
        }
        if self.buf.len() < 2 + len {
            return None;
        }
        let frame = self.buf[2..2 + len].to_vec();
        self.buf.drain(..2 + len);
        Some(frame)
    }

    /// Whether the stream was rejected for claiming an oversized frame.
    /// A rejected buffer holds no memory and never yields another frame.
    pub fn rejected(&self) -> bool {
        self.rejected
    }

    /// Bytes buffered but not yet popped.
    pub fn pending_len(&self) -> usize {
        self.buf.len()
    }

    /// The shared reassembly step of every DNS-over-TCP consumer: appends
    /// `bytes` to the buffer of `key` (one buffer per peer connection) and
    /// drains every complete frame that becomes available. Rejected
    /// buffers are dropped from the map — the connection is dead to DNS.
    pub fn push_and_drain<K: std::cmp::Eq + std::hash::Hash + Clone>(
        buffers: &mut std::collections::HashMap<K, TcpFrameBuffer>,
        key: K,
        bytes: &[u8],
    ) -> Vec<Vec<u8>> {
        let buf = buffers.entry(key.clone()).or_default();
        buf.push(bytes);
        let mut frames = Vec::new();
        while let Some(frame) = buf.pop() {
            frames.push(frame);
        }
        if buf.rejected() {
            buffers.remove(&key);
        }
        frames
    }
}

/// A question section entry. The name is owned by default; a
/// [`MessageView`] holds its question's name on the stack ([`NameBuf`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question<N = DomainName> {
    /// Queried name (case carries 0x20 entropy).
    pub name: N,
    /// Queried type.
    pub qtype: RecordType,
}

/// A full DNS message.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Header.
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<ResourceRecord>,
    /// Authority section.
    pub authorities: Vec<ResourceRecord>,
    /// Additional section (including the EDNS OPT pseudo-record).
    pub additionals: Vec<ResourceRecord>,
}

impl Message {
    /// Builds a query for `name`/`qtype` with the given TXID.
    pub fn query(id: u16, name: DomainName, qtype: RecordType) -> Self {
        Message {
            header: Header::query(id),
            questions: vec![Question { name, qtype }],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Adds an EDNS OPT record advertising the given UDP payload size.
    pub fn with_edns(mut self, udp_payload_size: u16) -> Self {
        self.additionals.push(ResourceRecord::new(DomainName::root(), 0, RData::Opt { udp_payload_size }));
        self
    }

    /// Builds a response skeleton echoing this query's ID and question.
    pub fn response_for(query: &Message) -> Self {
        let mut header = query.header;
        header.is_response = true;
        header.recursion_available = true;
        Message {
            header,
            questions: query.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// The first question, if any.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// The EDNS-advertised UDP payload size, or the 512-byte classic default.
    pub(crate) fn edns_udp_size(&self) -> u16 {
        self.additionals
            .iter()
            .find_map(|rr| match rr.rdata {
                RData::Opt { udp_payload_size } => Some(udp_payload_size),
                _ => None,
            })
            .unwrap_or(512)
    }

    /// All records in the answer + authority + additional sections.
    pub(crate) fn all_records(&self) -> impl Iterator<Item = &ResourceRecord> {
        self.answers.iter().chain(self.authorities.iter()).chain(self.additionals.iter())
    }

    /// Serialises the message (with name compression in owner names); see
    /// `Message::encode_parts`.
    pub fn encode(&self) -> Vec<u8> {
        Self::encode_parts(&self.header, &self.questions, [&self.answers, &self.authorities, &self.additionals])
    }

    /// The one DNS encoder, over borrowed questions and sections (answers,
    /// authorities, additionals), so a resolver encodes a cache hit straight
    /// from the received question and the cached records. Name compression
    /// keeps its table on the stack for messages of normal size.
    ///
    /// The wire image goes into a pooled buffer sized to the message plus
    /// [`UDP_HEADER_LEN`] of headroom: `UdpDatagram::into_packet` then
    /// writes the UDP header into this same buffer, and the packet carries
    /// it until it dies. The size counts owner names uncompressed, which
    /// covers the record data of small answers; a larger message grows the
    /// buffer.
    pub(crate) fn encode_parts<N: WireName>(
        header: &Header,
        questions: &[Question<N>],
        sections: [&[ResourceRecord]; 3],
    ) -> Vec<u8> {
        let records = || sections.iter().flat_map(|section| section.iter());
        let size = 12
            + questions.iter().map(|q| q.name.wire().len() + 5).sum::<usize>()
            + records().map(|rr| rr.name.wire_len() + 10).sum::<usize>();
        let mut buf = netsim::pool::take(size + UDP_HEADER_LEN);
        let mut compression = CompressionTable::default();
        buf.extend_from_slice(&header.id.to_be_bytes());
        let mut flags: u16 = 0;
        if header.is_response {
            flags |= 0x8000;
        }
        if header.authoritative {
            flags |= 0x0400;
        }
        if header.truncated {
            flags |= 0x0200;
        }
        if header.recursion_desired {
            flags |= 0x0100;
        }
        if header.recursion_available {
            flags |= 0x0080;
        }
        if header.authenticated_data {
            flags |= 0x0020;
        }
        flags |= u16::from(header.rcode.to_u4());
        buf.extend_from_slice(&flags.to_be_bytes());
        buf.extend_from_slice(&(questions.len() as u16).to_be_bytes());
        for section in sections {
            buf.extend_from_slice(&(section.len() as u16).to_be_bytes());
        }
        for q in questions {
            encode_wire(q.name.wire(), &mut buf, Some(&mut compression));
            buf.extend_from_slice(&q.qtype.number().to_be_bytes());
            buf.extend_from_slice(&1u16.to_be_bytes()); // class IN
        }
        for rr in records() {
            rr.encode(&mut buf, Some(&mut compression));
        }
        buf
    }

    /// Parses a message from wire bytes. This is the walk of
    /// [`MessageView::parse`] that also builds every question and record as
    /// it goes, so it accepts exactly the messages `parse` accepts and
    /// returns `MessageView::parse(buf)?.to_owned()`, in one pass.
    pub fn decode(buf: &[u8]) -> Result<Self, NameError> {
        // Capacity is bounded by what the buffer could possibly hold (a
        // question is ≥ 5 bytes, a record ≥ 11), never by the claimed count
        // alone: a 12-byte message claiming 65535 records must not allocate
        // megabytes before the first parse failure.
        // Regression (fuzz: dns_message/count_balloon.bin).
        let body = buf.len().saturating_sub(12);
        let count = |at: usize, min_len: usize| {
            buf.get(at..at + 2).map_or(0, |c| usize::from(u16::from_be_bytes([c[0], c[1]])).min(body / min_len))
        };
        let mut message = Message {
            header: Header::query(0),
            questions: Vec::with_capacity(count(4, 5)),
            answers: Vec::with_capacity(count(6, 11)),
            authorities: Vec::with_capacity(count(8, 11)),
            additionals: Vec::with_capacity(count(10, 11)),
        };
        message.header = MessageView::walk(buf, Some(&mut message))?.header;
        Ok(message)
    }

    /// The encoded size of this message in bytes. The scratch encoding goes
    /// back to the pool.
    pub fn wire_size(&self) -> usize {
        let wire = self.encode();
        let size = wire.len();
        netsim::pool::give(wire);
        size
    }
}

/// A received DNS message read in place, through the one message parser.
///
/// [`MessageView::parse`] checks everything [`Message::decode`] rejects on:
/// the 12-byte header, every question and record with the name rules of the
/// one name walker, each record's RDATA against its RDLENGTH and type, and
/// no byte after the last counted record. It allocates nothing: a view is
/// the bytes, the header and where the first question starts.
/// [`MessageView::question`] gathers that question's name on the stack,
/// and [`MessageView::to_owned`] is [`Message::decode`] of the same bytes.
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'a> {
    buf: &'a [u8],
    header: Header,
    question: Option<(usize, RecordType)>,
}

impl<'a> MessageView<'a> {
    /// Checks `buf` as one whole DNS message; see [`MessageView`].
    pub fn parse(buf: &'a [u8]) -> Result<Self, NameError> {
        Self::walk(buf, None)
    }

    /// The header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The first question, its name as sent (case kept) on the stack.
    pub fn question(&self) -> Option<Question<NameBuf>> {
        let (at, qtype) = self.question?;
        let (name, _) = NameBuf::decode(self.buf, at).expect("the parse checked this name");
        Some(Question { name, qtype })
    }

    /// The message, owned: [`Message::decode`] of the same bytes.
    pub fn to_owned(&self) -> Message {
        Message::decode(self.buf).expect("a parsed message decodes")
    }

    /// The one message walker. It checks all of `buf` and, given `out`,
    /// appends every question and record to it, owned. Inlined, so that
    /// `parse` and `decode` each get a walk of their own (see the record
    /// walkers in `rdata`).
    #[inline(always)]
    fn walk(buf: &'a [u8], mut out: Option<&mut Message>) -> Result<Self, NameError> {
        if buf.len() < 12 {
            return Err(NameError::Truncated);
        }
        let flags = u16::from_be_bytes([buf[2], buf[3]]);
        let header = Header {
            id: u16::from_be_bytes([buf[0], buf[1]]),
            is_response: flags & 0x8000 != 0,
            authoritative: flags & 0x0400 != 0,
            truncated: flags & 0x0200 != 0,
            recursion_desired: flags & 0x0100 != 0,
            recursion_available: flags & 0x0080 != 0,
            authenticated_data: flags & 0x0020 != 0,
            rcode: Rcode::from_u4((flags & 0x000F) as u8),
        };
        let count = |at: usize| u16::from_be_bytes([buf[at], buf[at + 1]]);
        let build = out.is_some();
        let mut pos = 12;
        let mut question = None;
        for _ in 0..count(4) {
            let (name, next) = DomainName::walk(buf, pos, build)?;
            let fixed = buf.get(next..next + 4).ok_or(NameError::Truncated)?;
            let qtype = RecordType::from_number(u16::from_be_bytes([fixed[0], fixed[1]]));
            if let Some(message) = out.as_deref_mut() {
                message.questions.push(Question { name, qtype });
            }
            question.get_or_insert((pos, qtype));
            pos = next + 4;
        }
        for at in [6, 8, 10] {
            for _ in 0..count(at) {
                let (rr, next) = ResourceRecord::walk(buf, pos, build)?;
                if let (Some(message), Some(rr)) = (out.as_deref_mut(), rr) {
                    match at {
                        6 => message.answers.push(rr),
                        8 => message.authorities.push(rr),
                        _ => message.additionals.push(rr),
                    }
                }
                pos = next;
            }
        }
        if pos != buf.len() {
            // Bytes after the last counted record are a smuggling vector
            // (two parsers can disagree about what the message "is"), so
            // parsing is strict: every byte must be accounted for.
            return Err(NameError::TrailingBytes(buf.len() - pos));
        }
        Ok(MessageView { buf, header, question })
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.header.is_response { "response" } else { "query" };
        let q = self
            .questions
            .first()
            .map(|q| format!("{} {}", q.name, q.qtype))
            .unwrap_or_else(|| "<no question>".to_string());
        write!(
            f,
            "{kind} id={:#06x} {q} ans={} auth={} add={} rcode={:?}",
            self.header.id,
            self.answers.len(),
            self.authorities.len(),
            self.additionals.len(),
            self.header.rcode
        )
    }
}

/// Four malformed copies of `message`'s wire form, each a shape the parser
/// rejects: the fuzz corpus's `count_balloon.bin` and `trailing_byte.bin`
/// edits, a question name that is a forward pointer, and an `A` record (put
/// last in the additional section) whose RDLENGTH is 5.
#[cfg(test)]
pub(crate) fn malformed(message: &Message) -> [(&'static str, Vec<u8>); 4] {
    let wire = message.encode();
    let mut count_balloon = wire.clone();
    count_balloon[4..6].copy_from_slice(&[0xff, 0xff]);
    let mut trailing_byte = wire.clone();
    trailing_byte.push(0x00);
    // One question, its name a pointer to offset 16, past itself.
    let mut forward_pointer = wire[..12].to_vec();
    forward_pointer[4..12].copy_from_slice(&[0, 1, 0, 0, 0, 0, 0, 0]);
    forward_pointer.extend_from_slice(&[0xC0, 16, 0, 1, 0, 1]);
    let mut with_a = message.clone();
    with_a.additionals.push(ResourceRecord::new(DomainName::root(), 300, RData::A([192, 0, 2, 1].into())));
    let mut a_rdlength_5 = with_a.encode();
    let rdlength_at = a_rdlength_5.len() - 6;
    a_rdlength_5[rdlength_at..rdlength_at + 2].copy_from_slice(&5u16.to_be_bytes());
    a_rdlength_5.push(0xaa);
    [
        ("count_balloon", count_balloon),
        ("trailing_byte", trailing_byte),
        ("forward_pointer", forward_pointer),
        ("a_rdlength_5", a_rdlength_5),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn tcp_framing_roundtrip_and_partial_delivery() {
        let q1 = Message::query(1, n("vict.im"), RecordType::A).encode();
        let q2 = Message::query(2, n("www.vict.im"), RecordType::TXT).encode();
        let mut stream = frame_tcp(&q1);
        stream.extend_from_slice(&frame_tcp(&q2));

        // Deliver the pipelined stream one byte at a time: frames pop out
        // exactly at their boundaries.
        let mut buf = TcpFrameBuffer::new();
        let mut frames = Vec::new();
        for b in &stream {
            buf.push(std::slice::from_ref(b));
            while let Some(f) = buf.pop() {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], q1);
        assert_eq!(frames[1], q2);
        assert_eq!(buf.pending_len(), 0);
    }

    #[test]
    fn oversized_frame_claim_poisons_the_stream() {
        // Regression (fuzz target tcp_frame, corpus
        // tcp_frame/oversize_claim.bin): a hostile peer claiming a frame
        // longer than MAX_TCP_FRAME_LEN used to make the buffer hold the
        // whole claim in memory while it trickled in.
        let mut buf = TcpFrameBuffer::new();
        let claim = ((MAX_TCP_FRAME_LEN + 1) as u16).to_be_bytes();
        buf.push(&claim);
        assert_eq!(buf.pop(), None);
        assert!(buf.rejected());
        assert_eq!(buf.pending_len(), 0, "rejected buffer holds no memory");
        buf.push(&[0u8; 512]);
        assert_eq!(buf.pending_len(), 0, "rejected buffer drops further input");
        assert_eq!(buf.pop(), None);
    }

    #[test]
    fn max_len_frame_still_accepted() {
        let mut buf = TcpFrameBuffer::new();
        let payload = vec![0x5au8; MAX_TCP_FRAME_LEN];
        buf.push(&frame_tcp(&payload));
        assert_eq!(buf.pop().as_deref(), Some(&payload[..]));
        assert!(!buf.rejected());
    }

    #[test]
    fn count_fields_cannot_balloon_allocation() {
        // Regression (fuzz target dns_message, corpus
        // dns_message/count_balloon.bin): a 12-byte header claiming 65535
        // questions used to pre-allocate for all of them before reading a
        // single byte of body.
        let mut buf = Message::query(1, n("vict.im"), RecordType::A).encode();
        buf[4] = 0xff; // QDCOUNT = 0xffXX
        assert!(Message::decode(&buf).is_err(), "claimed-but-absent questions rejected");
    }

    #[test]
    fn every_malformed_copy_is_rejected_by_both_readers() {
        let query = Message::query(1, n("vict.im"), RecordType::A);
        let mut answer = Message::response_for(&query);
        answer.answers.push(ResourceRecord::new(n("vict.im"), 300, RData::A(Ipv4Addr::new(30, 0, 0, 25))));
        for message in [query, answer] {
            assert!(MessageView::parse(&message.encode()).is_ok());
            for (what, bytes) in malformed(&message) {
                let view = MessageView::parse(&bytes).map(|_| ());
                assert!(view.is_err(), "{what}: the view rejects it");
                assert_eq!(view.err(), Message::decode(&bytes).err(), "{what}: both readers give the same error");
            }
        }
    }

    #[test]
    fn view_reads_header_and_question_in_place() {
        let name = DomainName::from_labels(vec!["WwW", "vict", "IM"]).unwrap();
        let mut m = Message::query(0xBEEF, name.clone(), RecordType::TXT).with_edns(1232);
        m.header.rcode = Rcode::Refused;
        let wire = m.encode();
        let view = MessageView::parse(&wire).unwrap();
        assert_eq!(*view.header(), m.header);
        let question = view.question().unwrap();
        assert_eq!(question.name.wire(), name.wire(), "the name keeps its case");
        assert_eq!(question.qtype, RecordType::TXT);
        assert_eq!(view.to_owned(), m);
        let empty = Message { questions: Vec::new(), ..m };
        assert!(MessageView::parse(&empty.encode()).unwrap().question().is_none());
    }

    #[test]
    fn trailing_bytes_after_message_rejected() {
        // Regression (fuzz target dns_message): stray bytes after the last
        // section used to be silently ignored, so two messages glued
        // together decoded as the first — a parser-desync primitive.
        let mut buf = Message::query(1, n("vict.im"), RecordType::A).encode();
        buf.push(0x00);
        assert_eq!(Message::decode(&buf), Err(NameError::TrailingBytes(1)));
    }

    #[test]
    fn query_roundtrip() {
        let q = Message::query(0xABCD, n("vict.im"), RecordType::A).with_edns(4096);
        let decoded = Message::decode(&q.encode()).unwrap();
        assert_eq!(decoded, q);
        assert_eq!(decoded.header.id, 0xABCD);
        assert!(!decoded.header.is_response);
        assert_eq!(decoded.edns_udp_size(), 4096);
    }

    #[test]
    fn default_edns_size_is_512() {
        let q = Message::query(1, n("vict.im"), RecordType::A);
        assert_eq!(q.edns_udp_size(), 512);
    }

    #[test]
    fn response_roundtrip_with_records() {
        let q = Message::query(7, n("vict.im"), RecordType::ANY);
        let mut r = Message::response_for(&q);
        r.header.authoritative = true;
        r.answers.push(ResourceRecord::new(n("vict.im"), 300, RData::A(Ipv4Addr::new(30, 0, 0, 25))));
        r.answers.push(ResourceRecord::new(
            n("vict.im"),
            300,
            RData::Mx { preference: 10, exchange: n("mail.vict.im") },
        ));
        r.authorities.push(ResourceRecord::new(n("vict.im"), 300, RData::Ns(n("ns1.vict.im"))));
        r.additionals.push(ResourceRecord::new(n("ns1.vict.im"), 300, RData::A(Ipv4Addr::new(123, 0, 0, 53))));
        let decoded = Message::decode(&r.encode()).unwrap();
        assert_eq!(decoded, r);
        assert!(decoded.header.is_response);
        assert_eq!(decoded.answers.len(), 2);
        assert_eq!(decoded.all_records().count(), 4);
    }

    #[test]
    fn response_echoes_question_and_id() {
        let q = Message::query(0x1234, n("abc.vict.im"), RecordType::A);
        let r = Message::response_for(&q);
        assert_eq!(r.header.id, 0x1234);
        assert_eq!(r.question().unwrap().name, n("abc.vict.im"));
        assert!(r.header.is_response);
    }

    #[test]
    fn compression_reduces_size() {
        let q = Message::query(7, n("vict.im"), RecordType::A);
        let mut r = Message::response_for(&q);
        for i in 0..10 {
            r.answers.push(ResourceRecord::new(n("vict.im"), 300, RData::A(Ipv4Addr::new(30, 0, 0, i))));
        }
        let size = r.wire_size();
        // 10 A records at "vict.im": with compression each owner name costs 2
        // bytes instead of 9. The total must therefore be well under the
        // uncompressed estimate.
        assert!(size < 12 + 13 + 10 * (9 + 14), "compressed size {size} too large");
        let decoded = Message::decode(&r.encode()).unwrap();
        assert_eq!(decoded.answers.len(), 10);
        assert!(decoded.answers.iter().all(|rr| rr.name == n("vict.im")));
    }

    #[test]
    fn wire_size_gives_its_scratch_encoding_back() {
        let m = Message::query(3, n("www.vict.im"), RecordType::A).with_edns(1232);
        let size = m.wire_size(); // warms this thread's pool
        let before = netsim::pool::counters();
        assert_eq!(m.wire_size(), size);
        let after = netsim::pool::counters();
        assert_eq!(after.returned, before.returned + 1, "the scratch buffer goes back to the pool");
        assert_eq!(
            (after.hits, after.misses),
            (before.hits + 1, before.misses),
            "a warm pool serves the scratch buffer"
        );
    }

    #[test]
    fn encoding_leaves_udp_headroom() {
        let query = Message::query(3, n("www.vict.im"), RecordType::A).with_edns(1232);
        let mut answer = Message::response_for(&query);
        answer.answers.push(ResourceRecord::new(n("www.vict.im"), 300, RData::A(Ipv4Addr::new(30, 0, 0, 80))));
        for m in [query, answer] {
            let wire = m.encode();
            assert!(wire.capacity() >= wire.len() + UDP_HEADER_LEN, "{m}: no room for the UDP header");
        }
    }

    #[test]
    fn flags_roundtrip() {
        let mut m = Message::query(1, n("x.example"), RecordType::TXT);
        m.header.is_response = true;
        m.header.authoritative = true;
        m.header.truncated = true;
        m.header.recursion_available = true;
        m.header.authenticated_data = true;
        m.header.rcode = Rcode::NxDomain;
        let d = Message::decode(&m.encode()).unwrap();
        assert_eq!(d.header, m.header);
    }

    #[test]
    fn truncated_buffer_rejected() {
        let q = Message::query(9, n("vict.im"), RecordType::A);
        let bytes = q.encode();
        assert!(Message::decode(&bytes[..8]).is_err());
        assert!(Message::decode(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn rcode_values_roundtrip() {
        for rc in [Rcode::NoError, Rcode::FormErr, Rcode::ServFail, Rcode::NxDomain, Rcode::NotImp, Rcode::Refused] {
            assert_eq!(Rcode::from_u4(rc.to_u4()), rc);
        }
    }

    #[test]
    fn display_is_informative() {
        let q = Message::query(0x2233, n("vict.im"), RecordType::A);
        let s = q.to_string();
        assert!(s.contains("query"));
        assert!(s.contains("vict.im"));
        assert!(s.contains("0x2233"));
    }

    #[test]
    fn question_case_preserved_through_wire() {
        // 0x20: the mixed-case question must survive encode/decode exactly.
        let name = DomainName::from_labels(vec!["VicT", "iM"]).unwrap();
        let q = Message::query(5, name.clone(), RecordType::A);
        let d = Message::decode(&q.encode()).unwrap();
        assert!(d.question().unwrap().name.eq_case_sensitive(&name));
    }
}
