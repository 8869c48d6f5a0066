//! A minimal, deterministic HTTP/1.0 layer over the simulated TCP stack,
//! plus the [`ChallengeHost`] node that serves HTTP-01 challenge documents.
//!
//! The exchange is the smallest thing that still exercises real transport:
//! one request line with headers, one response with `Content-Length` and
//! `Connection: close`, carried over the deterministic
//! [`TcpSocket`] (3-way handshake, MSS segmentation,
//! FIN teardown). The same node type plays both sides of the paper's story:
//! the **genuine** web host that serves the real account's provisioned
//! tokens (and 404s everyone else's), and the **attacker's** host, which
//! additionally impersonates hijacked infrastructure — terminating TCP
//! connections whose destination address it does not own and answering
//! intercepted DNS queries as if it were the nameserver, exactly what an
//! adversary holding a BGP hijack through a CA's validation window does.

use crate::acme::http_challenge_path;
use dns::prelude::*;
use netsim::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// Encodes an HTTP/1.0 GET request.
pub fn http_get(host: &str, path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.0\r\nHost: {host}\r\nUser-Agent: xlayer-acme/0.1\r\n\r\n").into_bytes()
}

/// Encodes an HTTP/1.0 response with `Content-Length` and `Connection:
/// close`.
pub fn http_response(status: u16, reason: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Upper bound on a request or response head; anything longer is malformed.
pub const MAX_HTTP_HEAD: usize = 4096;

/// Upper bound on a response body the parser is willing to buffer.
pub const MAX_HTTP_BODY: usize = 64 * 1024;

/// Outcome of incrementally parsing a request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestParse {
    /// The head has not fully arrived yet; keep buffering.
    Pending,
    /// The bytes can never become a well-formed GET request.
    Bad,
    /// A complete GET request for the given path.
    Get(String),
}

/// Byte offset of the first `\r\n\r\n` head terminator, if present.
fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Incrementally parses a request head, distinguishing "not yet" from
/// "never": malformed bytes are reported as [`RequestParse::Bad`] so the
/// server can answer 400 and close instead of buffering forever.
pub fn parse_request(bytes: &[u8]) -> RequestParse {
    let Some(head_end) = find_head_end(bytes) else {
        // Regression (fuzz target http_request, corpus
        // http_request/oversized_head.bin): with no terminator in sight the
        // server used to buffer without bound; past the head cap the bytes
        // can never become a valid head.
        return if bytes.len() > MAX_HTTP_HEAD { RequestParse::Bad } else { RequestParse::Pending };
    };
    if head_end > MAX_HTTP_HEAD {
        return RequestParse::Bad;
    }
    let Ok(head) = std::str::from_utf8(&bytes[..head_end]) else {
        // Regression (corpus http_request/non_utf8_head.bin): non-UTF-8
        // bytes used to read as "incomplete", wedging the connection open.
        return RequestParse::Bad;
    };
    let mut parts = head.lines().next().unwrap_or("").split(' ');
    let method = parts.next().unwrap_or("");
    match parts.next() {
        Some(path) if method == "GET" && !path.is_empty() => RequestParse::Get(path.to_string()),
        _ => RequestParse::Bad,
    }
}

/// Extracts the request path once a full request head has arrived (returns
/// `None` while incomplete or on malformed input).
pub fn parse_request_path(bytes: &[u8]) -> Option<String> {
    match parse_request(bytes) {
        RequestParse::Get(path) => Some(path),
        RequestParse::Pending | RequestParse::Bad => None,
    }
}

/// Parsed response head, or the reason there isn't one yet/ever.
enum Head {
    Pending,
    Bad,
    Parsed { status: u16, body_start: usize, content_length: usize },
}

fn parse_response_head(buf: &[u8]) -> Head {
    let Some(head_end) = find_head_end(buf) else {
        return if buf.len() > MAX_HTTP_HEAD { Head::Bad } else { Head::Pending };
    };
    if head_end > MAX_HTTP_HEAD {
        return Head::Bad;
    }
    // Regression (fuzz target http_response): UTF-8 is required of the head
    // only — the old parser validated the whole buffer, so a binary body
    // made an otherwise complete response unreadable.
    let Ok(head) = std::str::from_utf8(&buf[..head_end]) else {
        return Head::Bad;
    };
    let Some(status) = head.lines().next().and_then(|l| l.split(' ').nth(1)).and_then(|s| s.parse().ok()) else {
        return Head::Bad;
    };
    let Some(content_length) = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(|v| v.trim().to_string()))
        .and_then(|v| v.parse().ok())
    else {
        return Head::Bad;
    };
    if content_length > MAX_HTTP_BODY {
        // Regression (corpus http_response/huge_content_length.bin): a
        // hostile Content-Length used to commit the parser to buffering
        // that many bytes.
        return Head::Bad;
    }
    Head::Parsed { status, body_start: head_end + 4, content_length }
}

/// Incremental parser for one HTTP/1.0 response: feed stream chunks with
/// [`push`](HttpResponseParser::push), read the `(status, body)` once the
/// `Content-Length` worth of body has arrived. Memory is bounded: heads
/// over [`MAX_HTTP_HEAD`] and bodies over [`MAX_HTTP_BODY`] flip the parser
/// into a permanent [`failed`](HttpResponseParser::failed) state that drops
/// further input.
#[derive(Debug, Clone, Default)]
pub struct HttpResponseParser {
    buf: Vec<u8>,
    failed: bool,
}

impl HttpResponseParser {
    /// An empty parser.
    pub fn new() -> Self {
        HttpResponseParser::default()
    }

    /// Appends stream bytes; a failed parser drops them.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.failed {
            return;
        }
        self.buf.extend_from_slice(bytes);
        if matches!(parse_response_head(&self.buf), Head::Bad) {
            self.failed = true;
            self.buf.clear();
        }
    }

    /// True once the buffered bytes can never become a well-formed response.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// The complete `(status, body)` if the response has fully arrived.
    pub fn complete(&self) -> Option<(u16, String)> {
        let Head::Parsed { status, body_start, content_length } = parse_response_head(&self.buf) else {
            return None;
        };
        let body = self.buf.get(body_start..)?;
        if body.len() < content_length {
            return None;
        }
        Some((status, String::from_utf8_lossy(&body[..content_length]).into_owned()))
    }
}

/// A web host serving ACME HTTP-01 challenge documents on port 80.
///
/// In genuine mode it answers only addressed traffic: 200 with the key
/// authorization for provisioned tokens, 404 otherwise. With
/// [`impersonating`](ChallengeHost::impersonating) enabled it additionally
/// behaves like the attacker's machine under an active prefix hijack:
/// terminating hijacked TCP connections as whatever host the victim dialled
/// and answering intercepted DNS queries (A records pointing at
/// [`dns_a`](ChallengeHost::dns_a), TXT records carrying
/// [`dns_txt`](ChallengeHost::dns_txt)) with the source address spoofed to
/// the queried nameserver.
pub struct ChallengeHost {
    stack: HostStack,
    listener: TcpSocket,
    intercept: TcpSocket,
    rx: HashMap<Endpoint, Vec<u8>>,
    intercept_rx: HashMap<Endpoint, Vec<u8>>,
    tokens: BTreeMap<String, String>,
    impersonate: bool,
    /// A-record answer for intercepted DNS queries (defaults to own addr).
    pub dns_a: Ipv4Addr,
    /// TXT answer for intercepted `_acme-challenge` TXT queries.
    pub dns_txt: Option<String>,
    /// Challenge documents served (both modes).
    pub requests_served: u64,
    /// Requests that missed every provisioned token (404s).
    pub requests_missed: u64,
    /// DNS queries answered while impersonating.
    pub dns_intercepted: u64,
}

impl ChallengeHost {
    /// A genuine challenge host at `addr` with no provisioned tokens.
    pub fn new(addr: Ipv4Addr) -> Self {
        let mut stack = HostStack::with_defaults(vec![addr]);
        stack.open_tcp_port(well_known_ports::HTTP);
        ChallengeHost {
            stack,
            listener: TcpSocket::listener(well_known_ports::HTTP),
            intercept: TcpSocket::listener(well_known_ports::HTTP),
            rx: HashMap::new(),
            intercept_rx: HashMap::new(),
            tokens: BTreeMap::new(),
            impersonate: false,
            dns_a: addr,
            dns_txt: None,
            requests_served: 0,
            requests_missed: 0,
            dns_intercepted: 0,
        }
    }

    /// Provisions a challenge document: `GET /.well-known/acme-challenge/
    /// <token>` will answer 200 with `key_authorization`.
    pub fn with_token(mut self, token: &str, key_authorization: &str) -> Self {
        self.tokens.insert(token.to_string(), key_authorization.to_string());
        self
    }

    /// Enables attacker-mode impersonation of hijacked traffic.
    pub fn impersonating(mut self) -> Self {
        self.impersonate = true;
        self
    }

    fn challenge_body(&self, path: &str) -> Option<&str> {
        self.tokens.iter().find(|(token, _)| path == http_challenge_path(token)).map(|(_, body)| body.as_str())
    }

    fn respond(&mut self, path: &str) -> Vec<u8> {
        match self.challenge_body(path).map(str::to_string) {
            Some(body) => {
                self.requests_served += 1;
                http_response(200, "OK", &body)
            }
            None => {
                self.requests_missed += 1;
                http_response(404, "Not Found", "no such challenge\n")
            }
        }
    }

    /// Serves one request that arrived on the *addressed* listener.
    fn serve_owned(&mut self, peer: Endpoint, payload: &[u8], ctx: &mut Ctx<'_>) {
        let buf = self.rx.entry(peer).or_default();
        buf.extend_from_slice(payload);
        let response = match parse_request(buf) {
            RequestParse::Pending => return,
            RequestParse::Bad => {
                self.rx.remove(&peer);
                http_response(400, "Bad Request", "malformed request\n")
            }
            RequestParse::Get(path) => {
                self.rx.remove(&peer);
                self.respond(&path)
            }
        };
        let listener = &mut self.listener;
        with_io(&mut self.stack, ctx, |io| {
            listener.send_to(io, peer, response);
            listener.close_peer(io, peer);
        });
    }

    /// Terminates one hijacked TCP packet (destination not owned): completes
    /// the handshake as the dialled host and serves the challenge in-stream.
    fn serve_hijacked(&mut self, pkt: &Ipv4Packet, ctx: &mut Ctx<'_>) {
        let Ok(seg) = TcpSegment::from_packet(pkt) else { return };
        let intercept = &mut self.intercept;
        let events = with_io(&mut self.stack, ctx, |io| intercept.handle_segment(io, &seg));
        for se in events {
            match se {
                SocketEvent::Data { peer, local, payload } => {
                    let buf = self.intercept_rx.entry(peer).or_default();
                    buf.extend_from_slice(&payload);
                    let response = match parse_request(buf) {
                        RequestParse::Pending => continue,
                        RequestParse::Bad => {
                            self.intercept_rx.remove(&peer);
                            http_response(400, "Bad Request", "malformed request\n")
                        }
                        RequestParse::Get(path) => {
                            self.intercept_rx.remove(&peer);
                            self.respond(&path)
                        }
                    };
                    let intercept = &mut self.intercept;
                    with_io(&mut self.stack, ctx, |io| {
                        intercept.send_from(io, local, peer, &response);
                    });
                }
                SocketEvent::PeerClosed { peer, .. } => {
                    self.intercept_rx.remove(&peer);
                    let intercept = &mut self.intercept;
                    with_io(&mut self.stack, ctx, |io| intercept.close_peer(io, peer));
                }
                SocketEvent::Reset { peer, .. } => {
                    self.intercept_rx.remove(&peer);
                }
                SocketEvent::Connected { .. } => {}
            }
        }
    }

    /// Answers one intercepted DNS query as the queried nameserver.
    fn answer_intercepted_dns(&mut self, dst: Ipv4Addr, dgram: &UdpDatagram, ctx: &mut Ctx<'_>) {
        let Ok(query) = Message::decode(&dgram.payload) else { return };
        if query.header.is_response {
            return;
        }
        let Some(q) = query.question().cloned() else { return };
        let mut resp = Message::response_for(&query);
        resp.header.authoritative = true;
        match q.qtype {
            RecordType::TXT => {
                if let Some(txt) = &self.dns_txt {
                    resp.answers.push(ResourceRecord::new(q.name, 300, RData::Txt(txt.clone())));
                }
            }
            _ => {
                resp.answers.push(ResourceRecord::new(q.name, 300, RData::A(self.dns_a)));
            }
        }
        self.dns_intercepted += 1;
        // Source spoofed to the nameserver the victim addressed.
        let answer = UdpDatagram::new(dst, dgram.src, well_known_ports::DNS, dgram.src_port, resp.encode());
        with_io(&mut self.stack, ctx, |io| io.send_udp(answer));
    }
}

impl Node for ChallengeHost {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Ipv4Packet) {
        if !self.stack.owns(pkt.header.dst) {
            // Hijacked traffic only ever reaches this host through a route
            // override; a genuine host ignores it.
            if !self.impersonate {
                return;
            }
            if let Ok(dgram) = UdpDatagram::from_packet(pkt) {
                if dgram.dst_port == well_known_ports::DNS {
                    self.answer_intercepted_dns(pkt.header.dst, &dgram, ctx);
                }
            } else if pkt.header.protocol == Protocol::Tcp {
                self.serve_hijacked(pkt, ctx);
            }
            return;
        }
        let listener = &mut self.listener;
        let events = with_io(&mut self.stack, ctx, |io| match io.receive(pkt) {
            Some(StackEvent::Tcp(seg)) => listener.handle(io, seg),
            _ => Vec::new(),
        });
        for se in events {
            match se {
                SocketEvent::Data { peer, payload, .. } => self.serve_owned(peer, &payload, ctx),
                SocketEvent::PeerClosed { peer, .. } => {
                    self.rx.remove(&peer);
                    let listener = &mut self.listener;
                    with_io(&mut self.stack, ctx, |io| listener.close_peer(io, peer));
                }
                SocketEvent::Reset { peer, .. } => {
                    self.rx.remove(&peer);
                }
                SocketEvent::Connected { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_and_response_codec_roundtrip() {
        let req = http_get("www.vict.im", "/.well-known/acme-challenge/tok1");
        assert_eq!(parse_request_path(&req).as_deref(), Some("/.well-known/acme-challenge/tok1"));
        assert_eq!(parse_request_path(b"GET /x HTTP/1.0\r\n"), None, "incomplete head");
        assert_eq!(parse_request_path(b"POST /x HTTP/1.0\r\n\r\n"), None, "only GET supported");

        let resp = http_response(200, "OK", "tok1.abcd");
        let mut parser = HttpResponseParser::new();
        let (a, b) = resp.split_at(resp.len() / 2);
        parser.push(a);
        assert_eq!(parser.complete(), None, "half a response does not parse");
        parser.push(b);
        assert_eq!(parser.complete(), Some((200, "tok1.abcd".to_string())));
    }

    #[test]
    fn malformed_requests_are_bad_not_pending() {
        // Regression (fuzz target http_request): every one of these used to
        // parse as None = "incomplete", leaving the connection buffering
        // forever instead of drawing a 400.
        assert_eq!(parse_request(b"\xff\xfe GET /x\r\n\r\n"), RequestParse::Bad, "non-UTF-8 head");
        assert_eq!(parse_request(b"POST /x HTTP/1.0\r\n\r\n"), RequestParse::Bad, "non-GET method");
        assert_eq!(parse_request(b"GET\r\n\r\n"), RequestParse::Bad, "missing path");
        assert_eq!(parse_request(b"GET /x HTTP/1.0\r\n"), RequestParse::Pending, "genuinely incomplete");
        let oversized = vec![b'A'; MAX_HTTP_HEAD + 1];
        assert_eq!(parse_request(&oversized), RequestParse::Bad, "head cap exceeded with no terminator");
    }

    #[test]
    fn response_parser_fails_fast_and_bounds_memory() {
        // Hostile Content-Length must not commit us to buffering 4 GiB.
        let mut p = HttpResponseParser::new();
        p.push(b"HTTP/1.0 200 OK\r\nContent-Length: 4294967295\r\n\r\n");
        assert!(p.failed(), "huge content-length fails the parser");
        assert_eq!(p.complete(), None);

        // A headless byte stream past the head cap can never become valid.
        let mut p = HttpResponseParser::new();
        p.push(&vec![b'x'; MAX_HTTP_HEAD + 1]);
        assert!(p.failed(), "unterminated head past the cap fails the parser");

        // Failed parsers drop further input instead of accumulating it.
        let mut p = HttpResponseParser::new();
        p.push(b"\xff\xff\xff\xff\r\n\r\n");
        assert!(p.failed());
        p.push(&vec![0u8; 1024]);
        assert_eq!(p.complete(), None);
    }

    #[test]
    fn binary_response_body_still_parses() {
        // Regression (fuzz target http_response): UTF-8 validation used to
        // cover the whole buffer, so a binary body made a complete response
        // permanently unparseable.
        let mut resp = b"HTTP/1.0 200 OK\r\nContent-Length: 4\r\n\r\n".to_vec();
        resp.extend_from_slice(&[0xff, 0xfe, 0xfd, 0xfc]);
        let mut p = HttpResponseParser::new();
        p.push(&resp);
        assert!(!p.failed());
        let (status, body) = p.complete().expect("binary body parses");
        assert_eq!(status, 200);
        assert_eq!(body, "\u{fffd}".repeat(4), "each invalid byte lossily replaced");
    }

    #[test]
    fn challenge_host_serves_provisioned_tokens_and_404s_the_rest() {
        let host = ChallengeHost::new("30.0.0.80".parse().unwrap()).with_token("tok1", "tok1.thumb");
        let mut h = host;
        let ok = h.respond("/.well-known/acme-challenge/tok1");
        assert!(String::from_utf8_lossy(&ok).contains("200 OK"));
        assert!(String::from_utf8_lossy(&ok).ends_with("tok1.thumb"));
        let miss = h.respond("/.well-known/acme-challenge/unknown");
        assert!(String::from_utf8_lossy(&miss).contains("404"));
        assert_eq!((h.requests_served, h.requests_missed), (1, 1));
    }
}
