//! The discrete-event simulation engine.
//!
//! The engine owns all simulated hosts ([`Node`] implementations), delivers
//! IPv4 packets between them over [`Link`]s, enforces **egress filtering** of
//! spoofed source addresses, honours **route overrides** (the data-plane
//! effect of a successful BGP prefix hijack: traffic for a prefix is handed
//! to the hijacker instead of the legitimate owner), performs router-side MTU
//! handling (ICMP fragmentation-needed or in-transit fragmentation), records
//! an event [`Trace`] (off by default) and keeps per-node [`TrafficStats`].
//!
//! Determinism: all randomness is drawn from a single seeded ChaCha20 RNG and
//! ties between simultaneous events are broken by insertion order, so a given
//! seed always reproduces the same packet interleaving.
//!
//! ## Scale: the arena host table, link lanes and the time wheel
//!
//! Full [`Node`]s are boxed trait objects with their own stacks — ideal for
//! resolvers and attackers, far too heavy for a million background clients.
//! **Stub blocks** ([`Simulator::add_stub_block`]) register a contiguous
//! IPv4 range whose hosts live as plain [`StubState`] entries in one flat
//! arena, all driven by a single shared [`StubHandler`]. Address lookup for a
//! stub is arithmetic on the block base rather than a hash probe, stub
//! timers carry a typed [`StubTimer`] token namespaced by [`StubId`] (two
//! clients can never alias each other's retransmit timers), and delivered
//! packet buffers are recycled through [`crate::pool`].
//!
//! Every event is keyed by `(SimTime, seq)`, `seq` counting up from the
//! first event scheduled, and the engine pops events in exactly that order.
//! They wait in two kinds of queue:
//!
//! - **Lanes** hold packets in flight. A link's latency is constant, so a
//!   packet sent at `now` over a link of latency `d` arrives at `now + d`,
//!   and packets sent over links of one latency arrive in the order they
//!   were sent. Each distinct latency therefore has one FIFO lane that is
//!   already sorted by `(time, seq)`: scheduling a packet is a push to the
//!   back of a `VecDeque`, and popping one takes a lane head. A link whose
//!   latency varied from packet to packet (jitter) would break that order
//!   and must not send into a lane; a debug assertion guards it.
//! - **The [`TimeWheel`]** holds node and stub timers, whose delays vary,
//!   as a compact two-variant entry: `O(1)` scheduling, the same pop order
//!   as a binary heap.
//!
//! Each step serves whichever of the lane heads and the wheel head sorts
//! first, asking the wheel only whether a timer is due by the earliest lane
//! head.
//!
//! ## The engine owns every packet in flight
//!
//! A delivered packet is **lent** to its receiver: [`Node::on_packet`] gets
//! `&mut Ipv4Packet` and [`StubHandler::on_packet`] `&Ipv4Packet`, and when
//! the callback returns the engine gives whatever buffer is left back to the
//! [`pool`]. No receiver gives anything back; one that wants to keep the
//! bytes clones them or moves the buffer out.
//!
//! An attacker flood (SadDNS sends 2,000 spoofed mute queries, batches of 50
//! scan probes and 2¹⁶ spoofed responses) is one [`Simulator::inject_train`]
//! call per run of same-shape packets: a single lane entry that stands for
//! the whole burst and writes each packet only when it is delivered, into
//! **one** buffer the train keeps from its first packet to its last, so the
//! burst's working set is one packet rather than thousands. The packets are
//! usually copies of one [`UdpTemplate`](crate::udp::UdpTemplate).
//!
//! ## One pass per packet train
//!
//! Once a train's first packet is popped, no event can sort before its
//! remaining packets: their seqs were reserved at inject time, and anything
//! scheduled later gets a higher seq at a time no earlier than now. So the
//! popped train leaves its lane for good and is **held** in one slot beside
//! the queues, which every step serves before any lane or the wheel until
//! the train is spent.
//!
//! A full [`Node`] receives a held train through one loop: it writes the
//! train's packets, one after another, into the train's buffer, records
//! each packet's trace entry and lends it to the receiver's ordinary
//! [`Node::on_packet`] inside **one** callback context, and stops after the
//! first packet whose callback queued an outgoing packet or a timer. The
//! counters and stats are then credited in bulk, exactly as per-packet
//! delivery credits them. This is exact for every node: the engine assigns
//! seqs and draws from the RNG only when it dispatches queued output, which
//! happens after that stopping packet just as it would have, and nothing
//! reads the engine's counters during a callback. [`Simulator::run`] and
//! [`Simulator::run_until`] let the loop run on; [`Simulator::step`] stops
//! it after one packet. A trace entry holds ids, not names, so the traced
//! loop allocates nothing per packet either. A stub client receives a train
//! one packet per step. A receiver that moves the buffer out keeps it, and
//! the train takes a fresh one from the pool for its next packet.

use crate::fasthash::FastHashMap;
use crate::ipv4::{Ipv4Header, Ipv4Packet, Protocol};
use crate::link::Link;
use crate::pool;
use crate::prefix::Prefix;
use crate::stack::HostStack;
use crate::stats::TrafficStats;
use crate::time::{Duration, SimTime};
use crate::trace::{Trace, TraceEntry, TraceVerdict, TraceView};
use crate::transport::StackIo;
use crate::wheel::TimeWheel;
use crate::{frag, icmp::IcmpMessage};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;
use std::any::Any;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// Identifier of a node registered with a [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifier of a stub client in the arena host table: a flat index across
/// all stub blocks, in registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StubId(pub u32);

/// Object-safe downcasting support, blanket-implemented for every node type.
pub trait AsAny {
    /// `&self` as `&dyn Any`.
    fn as_any(&self) -> &dyn Any;
    /// `&mut self` as `&mut dyn Any`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A simulated host (or middlebox, or attacker machine).
///
/// Nodes react to delivered packets and to timers they scheduled earlier; all
/// side effects (sending packets, scheduling more timers) go through the
/// [`Ctx`] handed to each callback.
pub trait Node: AsAny + 'static {
    /// Called when a packet addressed (or routed) to this node is delivered.
    ///
    /// The packet is lent: the engine owns it, and once the callback returns
    /// it gives whatever buffer is left back to the [`pool`]. Read it in
    /// place, or feed it to the host stack
    /// ([`StackIo::receive`](crate::transport::StackIo::receive)), whose UDP
    /// event borrows the packet's bytes. A node that keeps the packet clones
    /// it; one that moves the buffer out (`std::mem::take(&mut pkt.payload)`,
    /// as the stack does for a TCP segment) owns that buffer from then on.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Ipv4Packet);

    /// Called when a timer previously scheduled via [`Ctx::set_timer`] fires.
    ///
    /// Timer tokens are namespaced per node: the engine carries the owning
    /// [`NodeId`] in the event, so two nodes using the same `u64` token can
    /// never receive each other's timers.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let _ = (ctx, token);
    }

    /// Called once when the simulation starts (before any packet delivery),
    /// allowing nodes to arm initial timers.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }
}

/// Side-effect collector handed to [`Node`] callbacks.
pub struct Ctx<'a> {
    now: SimTime,
    addrs: &'a [Ipv4Addr],
    rng: &'a mut ChaCha20Rng,
    outgoing: &'a mut Vec<Ipv4Packet>,
    timers: &'a mut Vec<(Duration, u64)>,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Addresses owned by this node.
    pub fn addrs(&self) -> &[Ipv4Addr] {
        self.addrs
    }

    /// The node's primary address.
    pub fn primary_addr(&self) -> Ipv4Addr {
        self.addrs.first().copied().unwrap_or(Ipv4Addr::UNSPECIFIED)
    }

    /// Queues a packet for transmission from this node.
    ///
    /// Spoofed source addresses are permitted here; whether they survive
    /// depends on the node's egress-filtering setting in the engine.
    pub fn send(&mut self, pkt: Ipv4Packet) {
        self.outgoing.push(pkt);
    }

    /// Schedules a timer `delay` from now with an opaque token. The token
    /// space is private to this node (see [`Node::on_timer`]).
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        self.timers.push((delay, token));
    }

    /// Deterministic per-simulation RNG.
    pub fn rng(&mut self) -> &mut ChaCha20Rng {
        self.rng
    }

    /// A [`StackIo`] over `stack` that appends the packets it produces to
    /// this node's outgoing list (nodes get it through
    /// [`with_io`](crate::transport::with_io)).
    pub(crate) fn stack_io<'s>(&'s mut self, stack: &'s mut HostStack) -> StackIo<'s> {
        StackIo::new(stack, self.now, self.rng, self.outgoing)
    }
}

/// A typed timer token for stub clients.
///
/// The flat `u64` tokens of [`Ctx::set_timer`] are safe for full nodes
/// because the engine namespaces them by [`NodeId`]; a farm of 10⁶ stub
/// clients gets the same guarantee structurally: every stub timer event
/// carries the owning [`StubId`] plus this typed token, so clients cannot
/// alias each other's retransmit timers no matter what `kind`/`data` values
/// the shared handler picks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StubTimer {
    /// Handler-defined timer class (e.g. "next query", "retransmit").
    pub kind: u8,
    /// Handler-defined payload (e.g. a transaction id or name index).
    pub data: u32,
}

/// Per-stub-client state: one flat arena entry, no allocation, no `Box`.
#[derive(Debug, Clone, Copy)]
pub struct StubState {
    /// The client's IPv4 address (block base + index).
    pub addr: Ipv4Addr,
    /// Packets this stub has sent.
    pub sent: u32,
    /// Packets delivered to this stub.
    pub received: u32,
    /// Handler-defined failure counter (timeouts, SERVFAILs...).
    pub failed: u32,
    /// Handler-defined scratch word (e.g. outstanding query txid/state).
    pub data: u64,
}

/// The single behaviour shared by every stub client in a simulation.
///
/// Unlike [`Node`], a handler is registered once per simulator and invoked
/// with the per-client [`StubState`] — a million clients cost a million arena
/// entries, not a million boxed trait objects.
pub trait StubHandler: 'static {
    /// Called once per stub when the simulation starts (after all full
    /// nodes' [`Node::on_start`], in arena order).
    fn on_start(&mut self, ctx: &mut StubCtx<'_>) {
        let _ = ctx;
    }

    /// Called when a timer scheduled via [`StubCtx::set_timer`] fires for
    /// this stub.
    fn on_timer(&mut self, ctx: &mut StubCtx<'_>, timer: StubTimer) {
        let _ = (ctx, timer);
    }

    /// Called when a packet is delivered to this stub. The packet is
    /// borrowed: parse it in place (`UdpDatagram::parse`); the engine gives
    /// its buffer back to the [`pool`] afterwards.
    fn on_packet(&mut self, ctx: &mut StubCtx<'_>, pkt: &Ipv4Packet);
}

/// Side-effect collector handed to [`StubHandler`] callbacks.
pub struct StubCtx<'a> {
    now: SimTime,
    id: StubId,
    state: &'a mut StubState,
    rng: &'a mut ChaCha20Rng,
    outgoing: &'a mut Vec<Ipv4Packet>,
    timers: &'a mut Vec<(Duration, StubTimer)>,
}

impl<'a> StubCtx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This stub's identifier.
    pub fn id(&self) -> StubId {
        self.id
    }

    /// This stub's IPv4 address.
    pub fn addr(&self) -> Ipv4Addr {
        self.state.addr
    }

    /// This stub's state.
    pub fn state(&self) -> &StubState {
        self.state
    }

    /// Mutable access to this stub's state.
    pub fn state_mut(&mut self) -> &mut StubState {
        self.state
    }

    /// Queues a packet for transmission from this stub.
    pub fn send(&mut self, pkt: Ipv4Packet) {
        self.outgoing.push(pkt);
    }

    /// Schedules a typed timer `delay` from now for this stub.
    pub fn set_timer(&mut self, delay: Duration, timer: StubTimer) {
        self.timers.push((delay, timer));
    }

    /// Deterministic per-simulation RNG.
    pub fn rng(&mut self) -> &mut ChaCha20Rng {
        self.rng
    }
}

/// A trivial node that answers ICMP echo requests and otherwise ignores
/// traffic. Useful as a placeholder destination in examples and tests.
#[derive(Debug, Default)]
pub struct EchoNode {
    /// Number of UDP datagrams this node has seen.
    pub udp_seen: u64,
    /// Number of echo requests answered.
    pub pings_answered: u64,
}

impl Node for EchoNode {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Ipv4Packet) {
        match pkt.header.protocol {
            Protocol::Udp => self.udp_seen += 1,
            Protocol::Icmp => {
                if let Ok(IcmpMessage::EchoRequest { id, seq, payload }) = IcmpMessage::decode(&pkt.payload) {
                    self.pings_answered += 1;
                    let reply = IcmpMessage::EchoReply { id, seq, payload }.into_packet(
                        pkt.header.dst,
                        pkt.header.src,
                        ctx.rng().gen(),
                        64,
                    );
                    ctx.send(reply);
                }
            }
            _ => {}
        }
    }
}

/// A node that swallows every packet (a blackhole).
#[derive(Debug, Default)]
pub struct SinkNode {
    /// Packets swallowed.
    pub received: u64,
}

impl Node for SinkNode {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: &mut Ipv4Packet) {
        self.received += 1;
    }
}

pub(crate) struct NodeSlot {
    pub(crate) name: String,
    node: Box<dyn Node>,
    addrs: Vec<Ipv4Addr>,
    egress_filtering: bool,
    stats: TrafficStats,
}

/// A contiguous range of arena-hosted stub clients.
pub(crate) struct StubBlock {
    pub(crate) name: String,
    /// Block base address as a big-endian u32.
    base: u32,
    /// Number of clients in the block.
    count: u32,
    /// Arena index of the first client.
    pub(crate) first: u32,
    /// Aggregate traffic counters for the whole block.
    stats: TrafficStats,
}

impl StubBlock {
    /// Whether stub `id` is one of this block's clients.
    pub(crate) fn holds(&self, id: StubId) -> bool {
        id.0 >= self.first && id.0 - self.first < self.count
    }
}

/// A host that sends or receives packets: the id that routing, stats and
/// trace entries ([`PacketEntry`](crate::trace::PacketEntry)) carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// A full node.
    Node(NodeId),
    /// A stub client.
    Stub(StubId),
    /// The network itself, which only sends: ICMP errors a link router
    /// originates (PTB).
    Router,
}

/// A timer in the wheel, the only events it holds.
enum Timer {
    Node { node: NodeId, token: u64 },
    Stub { stub: StubId, timer: StubTimer },
}

/// What a link carries: one packet, or a packet train.
enum Flight {
    Packet { to: Origin, from: Origin, pkt: Ipv4Packet },
    Train(Box<Train>),
}

/// A [`Flight`] with its arrival time and seq (a train's first seq).
struct InFlight {
    time: SimTime,
    seq: u64,
    flight: Flight,
}

/// The flights over links of one latency, in arrival order, which is the
/// order they were sent in (see the [module documentation](self)).
struct Lane {
    latency: Duration,
    queue: VecDeque<InFlight>,
}

/// The fields every packet of a train shares with packet 0: everything the
/// engine's verdict and accounting read at send time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TrainShape {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: Protocol,
    wire_len: usize,
}

impl TrainShape {
    fn of(pkt: &Ipv4Packet) -> Self {
        TrainShape { src: pkt.header.src, dst: pkt.header.dst, protocol: pkt.header.protocol, wire_len: pkt.wire_len() }
    }

    /// Panics when packet `i` does not share packet 0's shape: the train's
    /// single verdict would then be wrong for it, a bug in the caller.
    fn check(self, i: u32, pkt: &Ipv4Packet) {
        let got = TrainShape::of(pkt);
        assert!(got == self, "packet train shape mismatch: packet {i} is {got:?} but packet 0 is {self:?}");
    }
}

/// The undelivered tail of a packet train (see [`Simulator::inject_train`]).
/// It sits in its lane until its first packet is popped, then in the
/// simulator's held slot until its last packet is delivered.
struct Train {
    to: Origin,
    from: Origin,
    shape: TrainShape,
    /// The train's one buffer: packet 0 from inject time until it is
    /// delivered, then each later packet, written when it is delivered.
    pkt: Ipv4Packet,
    /// Index of the next packet to deliver.
    next: u32,
    count: u32,
    fill: Box<TrainFill>,
}

/// Writes packet `i` of a train into the packet it is lent.
type TrainFill = dyn FnMut(u32, &mut Ipv4Packet);

impl Train {
    /// Writes the next packet into the train's buffer (packet 0 is there
    /// already) and lends it. A buffer the previous receiver moved out is
    /// replaced from the pool first.
    fn next_packet(&mut self) -> &mut Ipv4Packet {
        let i = self.next;
        self.next += 1;
        if i > 0 {
            if self.pkt.payload.capacity() == 0 {
                self.pkt.payload = pool::take(self.shape.wire_len);
            }
            (self.fill)(i, &mut self.pkt);
            self.shape.check(i, &self.pkt);
        }
        &mut self.pkt
    }
}

/// A packet with an empty pooled buffer, for a train's `fill` to write.
fn blank_packet(capacity: usize) -> Ipv4Packet {
    let header = Ipv4Header::new(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED, Protocol::Other(0), 0, 0, 0);
    Ipv4Packet { header, payload: pool::take(capacity) }
}

telemetry::counters! {
    /// Engine-level event and packet-verdict counters, updated on the same code
    /// paths that decide each [`TraceVerdict`]. Unlike the packet [`Trace`] these
    /// are always on (a handful of integer adds per packet) and unlike the pool
    /// counters they live on the simulator itself, so they are deterministic per
    /// seed and safe to fold into shard-merged telemetry snapshots, under
    /// `engine.*`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct EngineCounters {
        /// Events served: timers popped from the time wheel, packets popped
        /// from a lane, and every packet of a train.
        pub events_popped: u64 => "events.popped",
        /// Packets delivered to a node or stub client.
        pub delivered: u64 => "packets.delivered",
        /// Packets dropped because no host owns the destination address.
        pub no_route: u64 => "packets.no_route",
        /// Packets dropped by link loss.
        pub link_loss: u64 => "packets.link_loss",
        /// Spoofed packets dropped by egress filtering.
        pub egress_filtered: u64 => "packets.egress_filtered",
        /// Packets dropped for exceeding the link MTU with DF set.
        pub mtu_exceeded: u64 => "packets.mtu_exceeded",
    }
    pub fn merge;
    pub fn export_metrics() => "engine";
}

/// The simulation engine. See the [module documentation](self) for an overview.
pub struct Simulator {
    nodes: Vec<NodeSlot>,
    addr_map: FastHashMap<Ipv4Addr, NodeId>,
    route_overrides: Vec<(Prefix, NodeId)>,
    links: FastHashMap<(NodeId, NodeId), Link>,
    stub_blocks: Vec<StubBlock>,
    stubs: Vec<StubState>,
    stub_handler: Option<Box<dyn StubHandler>>,
    /// Outgoing/timer lists reused by every callback context, so a
    /// callback allocates none.
    out_scratch: Vec<Ipv4Packet>,
    timer_scratch: Vec<(Duration, u64)>,
    stub_timer_scratch: Vec<(Duration, StubTimer)>,
    /// Node and stub timers.
    events: TimeWheel<Timer>,
    /// Packets in flight, one lane per distinct link latency, in the order
    /// the latencies were first used. Lanes are never dropped.
    lanes: Vec<Lane>,
    /// The popped train whose packets are delivered before any other event
    /// (see the [module documentation](self)); its time is `now`.
    held: Option<Box<Train>>,
    /// Undelivered train packets not standing as a lane entry: all but one
    /// per queued train, plus all of the held train's, so
    /// [`Simulator::pending_events`] counts packets.
    train_backlog: usize,
    now: SimTime,
    seq: u64,
    rng: ChaCha20Rng,
    trace: Trace,
    counters: EngineCounters,
    started: bool,
}

impl Simulator {
    /// Creates an empty simulator with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Simulator {
            nodes: Vec::new(),
            addr_map: FastHashMap::default(),
            route_overrides: Vec::new(),
            links: FastHashMap::default(),
            stub_blocks: Vec::new(),
            stubs: Vec::new(),
            stub_handler: None,
            out_scratch: Vec::new(),
            timer_scratch: Vec::new(),
            stub_timer_scratch: Vec::new(),
            events: TimeWheel::new(),
            lanes: Vec::new(),
            held: None,
            train_backlog: 0,
            now: SimTime::ZERO,
            seq: 0,
            rng: ChaCha20Rng::seed_from_u64(seed),
            trace: Trace::default(),
            counters: EngineCounters::default(),
            started: false,
        }
    }

    /// Registers a node owning the given addresses. Egress filtering is
    /// disabled by default (the attacker model assumes a non-filtering
    /// network; victims can enable it via [`Simulator::set_egress_filtering`]).
    ///
    /// # Panics
    ///
    /// Panics when an address is already owned by another node or falls
    /// inside a registered stub block — a silently stolen address misroutes
    /// traffic with no diagnostic, so duplicate registration is a bug in the
    /// scenario, not a tolerable condition.
    pub fn add_node(&mut self, name: &str, addrs: Vec<Ipv4Addr>, node: impl Node) -> NodeId {
        let id = NodeId(self.nodes.len());
        for &a in &addrs {
            if let Some(owner) = self.addr_map.get(&a) {
                panic!(
                    "duplicate address registration: {a} is owned by node {:?} but {name:?} also claims it",
                    self.nodes[owner.0].name
                );
            }
            if let Some(stub) = self.stub_lookup(a) {
                let block = &self.stub_blocks[self.block_of_stub(stub)];
                panic!(
                    "duplicate address registration: {a} belongs to stub block {:?} but node {name:?} also claims it",
                    block.name
                );
            }
            self.addr_map.insert(a, id);
        }
        self.nodes.push(NodeSlot {
            name: name.to_string(),
            node: Box::new(node),
            addrs,
            egress_filtering: false,
            stats: TrafficStats::default(),
        });
        id
    }

    /// Registers a contiguous block of `count` stub clients with addresses
    /// `base .. base + count`, returning the [`StubId`] of the first. The
    /// clients share the simulator-wide [`StubHandler`] (see
    /// [`Simulator::set_stub_handler`]).
    ///
    /// # Panics
    ///
    /// Panics when the block is empty, the range wraps the IPv4 address
    /// space, overlaps an existing stub block, or contains an address already
    /// owned by a node.
    pub fn add_stub_block(&mut self, name: &str, base: Ipv4Addr, count: u32) -> StubId {
        assert!(count > 0, "stub block {name:?} must hold at least one client");
        let base_u = u32::from(base);
        assert!(base_u.checked_add(count - 1).is_some(), "stub block {name:?} wraps the IPv4 address space");
        for block in &self.stub_blocks {
            let overlaps = base_u < block.base.saturating_add(block.count) && block.base < base_u.saturating_add(count);
            if overlaps {
                panic!("stub block {name:?} overlaps existing stub block {:?}", block.name);
            }
        }
        for (&addr, owner) in &self.addr_map {
            let a = u32::from(addr);
            if a >= base_u && a - base_u < count {
                panic!(
                    "duplicate address registration: {addr} is owned by node {:?} but stub block {name:?} covers it",
                    self.nodes[owner.0].name
                );
            }
        }
        let first = self.stubs.len() as u32;
        self.stubs.reserve(count as usize);
        for i in 0..count {
            self.stubs.push(StubState { addr: Ipv4Addr::from(base_u + i), sent: 0, received: 0, failed: 0, data: 0 });
        }
        self.stub_blocks.push(StubBlock {
            name: name.to_string(),
            base: base_u,
            count,
            first,
            stats: TrafficStats::default(),
        });
        StubId(first)
    }

    /// Installs the behaviour shared by every stub client.
    pub fn set_stub_handler(&mut self, handler: impl StubHandler) {
        self.stub_handler = Some(Box::new(handler));
    }

    /// All stub states, in arena order.
    pub fn stub_states(&self) -> &[StubState] {
        &self.stubs
    }

    /// Aggregate traffic counters of the stub block containing `id`.
    pub fn stub_block_stats(&self, id: StubId) -> &TrafficStats {
        &self.stub_blocks[self.block_of_stub(id)].stats
    }

    /// The stub client owning `addr`, if any.
    pub(crate) fn stub_lookup(&self, addr: Ipv4Addr) -> Option<StubId> {
        let a = u32::from(addr);
        // A simulation holds a handful of blocks at most: a linear scan beats
        // a hash probe and needs no ordering invariant.
        for block in &self.stub_blocks {
            if a >= block.base && a - block.base < block.count {
                return Some(StubId(block.first + (a - block.base)));
            }
        }
        None
    }

    fn block_of_stub(&self, id: StubId) -> usize {
        self.stub_blocks.iter().position(|b| b.holds(id)).expect("stub id out of range")
    }

    /// Enables or disables egress filtering (BCP 38) for a node: when enabled,
    /// packets whose source address the node does not own are dropped.
    pub fn set_egress_filtering(&mut self, id: NodeId, enabled: bool) {
        self.nodes[id.0].egress_filtering = enabled;
    }

    /// Installs a (bidirectional) link between two nodes.
    pub fn connect(&mut self, a: NodeId, b: NodeId, link: Link) {
        self.links.insert((a, b), link);
        self.links.insert((b, a), link);
    }

    /// Installs a data-plane route override: traffic destined to `prefix` is
    /// delivered to `node` regardless of address ownership. This is how a
    /// successful BGP (sub-)prefix hijack manifests to the hosts. More
    /// specific prefixes win; equal-length prefixes favour the most recently
    /// installed override.
    pub fn set_route_override(&mut self, prefix: Prefix, node: NodeId) {
        self.route_overrides.push((prefix, node));
    }

    /// Removes all route overrides covering the given prefix exactly.
    pub fn clear_route_override(&mut self, prefix: Prefix) {
        self.route_overrides.retain(|(p, _)| *p != prefix);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The name a node was registered with.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.nodes[id.0].name
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Traffic counters of a node.
    pub fn stats(&self, id: NodeId) -> &TrafficStats {
        &self.nodes[id.0].stats
    }

    /// Engine-wide event and packet-verdict counters.
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    /// Exports the engine's deterministic counters into a telemetry snapshot
    /// under `engine.*` (see the naming convention in the [`telemetry`]
    /// crate). Counters add across shards; queue/wheel occupancy export as
    /// max-merged gauges. The thread-local [`pool`] counters are deliberately
    /// **not** exported here: campaign workers share threads across shards,
    /// so raw pool counts depend on worker count and would break the
    /// byte-identical-merge contract.
    pub fn export_metrics(&self, m: &mut telemetry::MetricsSnapshot) {
        self.counters.export_metrics(m);
        m.gauge_max("engine.events.pending", self.pending_events() as u64);
        for (level, occ) in self.events.level_occupancy().iter().enumerate() {
            m.gauge_max(&format!("engine.wheel.level{level}.occupancy"), u64::from(*occ));
        }
        m.incr("engine.trace.dropped", self.trace.dropped());
    }

    /// The event trace (packets and spans; off by default), with the node
    /// and stub-block names that label its packets when it is printed.
    pub fn trace(&self) -> TraceView<'_> {
        TraceView { trace: &self.trace, nodes: &self.nodes, blocks: &self.stub_blocks }
    }

    /// Mutable access to the event trace (e.g. to turn it on or bound it).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Marks the start of a phase in the trace at the current time. The
    /// detail is formatted only while the trace is on.
    pub fn span_enter(&mut self, name: &'static str, detail: impl FnOnce() -> String) {
        if self.trace.enabled {
            self.trace.record(TraceEntry::SpanEnter { time: self.now, name, detail: detail() });
        }
    }

    /// Marks the end of the phase `name` in the trace at the current time.
    pub fn span_exit(&mut self, name: &'static str) {
        self.trace.record(TraceEntry::SpanExit { time: self.now, name });
    }

    /// Typed shared access to a node.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> Option<&T> {
        // Go through `as_ref()` so the blanket `AsAny` impl resolves on the
        // concrete node type rather than on the `Box<dyn Node>` wrapper.
        self.nodes[id.0].node.as_ref().as_any().downcast_ref::<T>()
    }

    /// Typed exclusive access to a node.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes[id.0].node.as_mut().as_any_mut().downcast_mut::<T>()
    }

    /// Which node currently receives traffic for `addr`, considering route
    /// overrides first and address ownership second. Stub clients are not
    /// visible here.
    pub fn route_lookup(&self, addr: Ipv4Addr) -> Option<NodeId> {
        let mut best: Option<(u8, usize, NodeId)> = None;
        for (idx, (prefix, node)) in self.route_overrides.iter().enumerate() {
            if prefix.contains(addr) {
                let candidate = (prefix.len, idx, *node);
                if best.is_none_or(|b| (candidate.0, candidate.1) >= (b.0, b.1)) {
                    best = Some(candidate);
                }
            }
        }
        if let Some((_, _, node)) = best {
            return Some(node);
        }
        self.addr_map.get(&addr).copied()
    }

    /// Full routing including the stub arena: overrides, then node address
    /// ownership, then stub blocks.
    fn host_lookup(&self, addr: Ipv4Addr) -> Option<Origin> {
        if let Some(node) = self.route_lookup(addr) {
            return Some(Origin::Node(node));
        }
        self.stub_lookup(addr).map(Origin::Stub)
    }

    /// Schedules a timer for a node, from outside the node itself.
    pub fn schedule_timer(&mut self, node: NodeId, delay: Duration, token: u64) {
        self.push_timer(delay, Timer::Node { node, token });
    }

    /// Injects a packet as if `from` had sent it right now.
    pub fn inject(&mut self, from: NodeId, pkt: Ipv4Packet) {
        self.dispatch(Origin::Node(from), pkt);
    }

    /// Injects `count` packets as if `from` had sent them right now, packet
    /// `i` being what `fill(i, pkt)` writes into `pkt` — exactly like `count`
    /// consecutive [`inject`](Self::inject) calls: same delivery order, trace
    /// entries, stats and counters. `fill` must write the whole packet,
    /// header and payload (the payload it is handed is empty, or holds a
    /// previous packet of the train).
    ///
    /// When packet 0 would be delivered as-is (routable, not egress-filtered,
    /// lossless link, within the MTU) the train is one lane entry holding
    /// `count` consecutive seqs and one buffer: packet `i` is written into it
    /// only when it is delivered. Once packet 0 is popped the train is held
    /// beside the queues and [`run`](Self::run) may deliver a run of its
    /// packets to a full node in one callback context, traced or not (see the
    /// [module documentation](self)).
    /// Otherwise every packet is filled into its own pooled buffer and takes
    /// the per-packet send path, so loss draws, PTBs and drop traces are
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics when a packet's source, destination, protocol or wire length
    /// differs from packet 0's: one verdict covers the whole train.
    pub fn inject_train(&mut self, from: NodeId, count: u32, mut fill: impl FnMut(u32, &mut Ipv4Packet) + 'static) {
        if count == 0 {
            return;
        }
        let mut first = blank_packet(0);
        fill(0, &mut first);
        let shape = TrainShape::of(&first);
        let slot = &self.nodes[from.0];
        let filtered = slot.egress_filtering && !slot.addrs.contains(&shape.src);
        let route = if filtered { None } else { self.host_lookup(shape.dst) };
        let origin = Origin::Node(from);
        let Some((to, link)) = route
            .map(|to| (to, self.link_between(origin, to)))
            .filter(|(_, link)| link.loss == 0.0 && shape.wire_len <= usize::from(link.mtu))
        else {
            self.dispatch(origin, first);
            for i in 1..count {
                let mut pkt = blank_packet(shape.wire_len);
                fill(i, &mut pkt);
                shape.check(i, &pkt);
                self.dispatch(origin, pkt);
            }
            return;
        };
        self.nodes[from.0].stats.record_sent(shape.protocol, shape.wire_len, u64::from(count));
        self.train_backlog += count as usize - 1;
        let train = Train { to, from: origin, shape, pkt: first, next: 0, count, fill: Box::new(fill) };
        self.send_flight(link.latency, count, Flight::Train(Box::new(train)));
    }

    fn push_timer(&mut self, delay: Duration, timer: Timer) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(self.now + delay, seq, timer);
    }

    /// Queues a flight that reserves `seqs` consecutive seqs on the lane of
    /// `latency`, opening the lane on first use.
    fn send_flight(&mut self, latency: Duration, seqs: u32, flight: Flight) {
        let (time, seq) = (self.now + latency, self.seq);
        self.seq += u64::from(seqs);
        let lane = match self.lanes.iter().position(|lane| lane.latency == latency) {
            Some(i) => &mut self.lanes[i],
            None => {
                self.lanes.push(Lane { latency, queue: VecDeque::new() });
                self.lanes.last_mut().expect("just pushed")
            }
        };
        debug_assert!(
            lane.queue.back().is_none_or(|last| (last.time, last.seq) < (time, seq)),
            "lane of latency {latency} out of order: a flight at {time} queued behind a later one"
        );
        lane.queue.push_back(InFlight { time, seq, flight });
    }

    /// Routes and schedules one packet sent by a node or a stub client.
    fn dispatch(&mut self, from: Origin, pkt: Ipv4Packet) {
        let wire_len = pkt.wire_len();
        let protocol = pkt.header.protocol;
        match from {
            Origin::Node(id) => {
                self.nodes[id.0].stats.record_sent(protocol, wire_len, 1);
                // Egress filtering of spoofed sources (BCP 38).
                if self.nodes[id.0].egress_filtering && !self.nodes[id.0].addrs.contains(&pkt.header.src) {
                    self.nodes[id.0].stats.spoofed_filtered += 1;
                    self.counters.egress_filtered += 1;
                    self.trace.record_packet(self.now, from, None, &pkt, TraceVerdict::EgressFiltered);
                    pool::give(pkt.payload);
                    return;
                }
            }
            Origin::Stub(id) => {
                let b = self.block_of_stub(id);
                self.stub_blocks[b].stats.record_sent(protocol, wire_len, 1);
                self.stubs[id.0 as usize].sent += 1;
            }
            Origin::Router => {}
        }

        // Routing (route overrides model hijacked prefixes).
        let Some(to) = self.host_lookup(pkt.header.dst) else {
            self.drop_in_transit(from, None, &pkt, TraceVerdict::NoRoute);
            pool::give(pkt.payload);
            return;
        };
        let link = self.link_between(from, to);

        // Random loss.
        if link.loss > 0.0 && self.rng.gen::<f64>() < link.loss {
            self.drop_in_transit(from, Some(to), &pkt, TraceVerdict::LinkLoss);
            pool::give(pkt.payload);
            return;
        }

        // MTU handling by the "router" on the link.
        if pkt.wire_len() > usize::from(link.mtu) {
            if pkt.header.dont_fragment || !link.fragment_in_transit {
                self.drop_in_transit(from, Some(to), &pkt, TraceVerdict::MtuExceeded);
                // Generate an ICMP fragmentation-needed back to the sender,
                // originated "by the network" (source = destination address of
                // the oversized packet, a common real-world pattern for
                // unnumbered router interfaces).
                let ptb = IcmpMessage::fragmentation_needed(&pkt, link.mtu).into_packet(
                    pkt.header.dst,
                    pkt.header.src,
                    self.rng.gen(),
                    64,
                );
                pool::give(pkt.payload);
                self.send_flight(link.latency, 1, Flight::Packet { to: from, from: Origin::Router, pkt: ptb });
                return;
            }
            // Fragment in transit.
            for frag in frag::fragment_packet(&pkt, link.mtu) {
                self.send_flight(link.latency, 1, Flight::Packet { to, from, pkt: frag });
            }
            pool::give(pkt.payload);
            return;
        }

        self.send_flight(link.latency, 1, Flight::Packet { to, from, pkt });
    }

    /// Attributes a transit drop to the sender's stats, broken down by the
    /// verdict that caused it, bumps the engine-wide verdict counter and
    /// traces the packet.
    fn drop_in_transit(&mut self, from: Origin, to: Option<Origin>, pkt: &Ipv4Packet, verdict: TraceVerdict) {
        self.trace.record_packet(self.now, from, to, pkt, verdict);
        match verdict {
            TraceVerdict::NoRoute => self.counters.no_route += 1,
            TraceVerdict::LinkLoss => self.counters.link_loss += 1,
            TraceVerdict::MtuExceeded => self.counters.mtu_exceeded += 1,
            TraceVerdict::Delivered | TraceVerdict::EgressFiltered => {
                debug_assert!(false, "not a transit-drop verdict: {verdict}");
            }
        }
        let stats = match from {
            Origin::Node(id) => &mut self.nodes[id.0].stats,
            Origin::Stub(id) => {
                let b = self.block_of_stub(id);
                &mut self.stub_blocks[b].stats
            }
            Origin::Router => return,
        };
        stats.dropped_in_transit += 1;
        match verdict {
            TraceVerdict::NoRoute => stats.no_route += 1,
            TraceVerdict::LinkLoss => stats.link_loss += 1,
            TraceVerdict::MtuExceeded => stats.mtu_exceeded += 1,
            _ => {}
        }
    }

    /// Attributes `n` delivered packets to the sender's verdict breakdown.
    fn count_delivered(&mut self, from: Origin, n: u64) {
        self.counters.delivered += n;
        match from {
            Origin::Node(id) => self.nodes[id.0].stats.delivered += n,
            Origin::Stub(id) => {
                let b = self.block_of_stub(id);
                self.stub_blocks[b].stats.delivered += n;
            }
            Origin::Router => {}
        }
    }

    /// The link governing a flow. Node-to-node flows use the configured link
    /// table; any other flow, and a node pair with no link installed, uses
    /// [`Link::default`].
    fn link_between(&self, from: Origin, to: Origin) -> Link {
        match (from, to) {
            (Origin::Node(a), Origin::Node(b)) => self.links.get(&(a, b)).copied().unwrap_or_default(),
            _ => Link::default(),
        }
    }

    fn start_nodes(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for idx in 0..self.nodes.len() {
            let id = NodeId(idx);
            self.with_node_ctx(id, |node, ctx, _| node.on_start(ctx));
        }
        if self.stub_handler.is_some() {
            for idx in 0..self.stubs.len() {
                self.with_stub_ctx(StubId(idx as u32), |handler, ctx| handler.on_start(ctx));
            }
        }
    }

    /// Runs a node callback with a freshly built [`Ctx`] and the trace, then
    /// dispatches the side effects it produced.
    fn with_node_ctx(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>, &mut Trace)) {
        let mut outgoing = std::mem::take(&mut self.out_scratch);
        let mut timers = std::mem::take(&mut self.timer_scratch);
        {
            let Simulator { nodes, rng, now, trace, .. } = self;
            let slot = &mut nodes[id.0];
            let mut ctx = Ctx { now: *now, addrs: &slot.addrs, rng, outgoing: &mut outgoing, timers: &mut timers };
            f(slot.node.as_mut(), &mut ctx, trace);
        }
        for pkt in outgoing.drain(..) {
            self.dispatch(Origin::Node(id), pkt);
        }
        for (delay, token) in timers.drain(..) {
            self.push_timer(delay, Timer::Node { node: id, token });
        }
        self.out_scratch = outgoing;
        self.timer_scratch = timers;
    }

    /// Runs a stub-handler callback with a freshly built [`StubCtx`], then
    /// dispatches the side effects, reusing the same scratch lists.
    fn with_stub_ctx(&mut self, id: StubId, f: impl FnOnce(&mut dyn StubHandler, &mut StubCtx<'_>)) {
        let mut outgoing = std::mem::take(&mut self.out_scratch);
        let mut timers = std::mem::take(&mut self.stub_timer_scratch);
        {
            let Simulator { stub_handler, stubs, rng, now, .. } = self;
            let handler = stub_handler.as_mut().expect("stub block registered without a StubHandler");
            let mut ctx = StubCtx {
                now: *now,
                id,
                state: &mut stubs[id.0 as usize],
                rng,
                outgoing: &mut outgoing,
                timers: &mut timers,
            };
            f(handler.as_mut(), &mut ctx);
        }
        for pkt in outgoing.drain(..) {
            self.dispatch(Origin::Stub(id), pkt);
        }
        for (delay, timer) in timers.drain(..) {
            self.push_timer(delay, Timer::Stub { stub: id, timer });
        }
        self.out_scratch = outgoing;
        self.stub_timer_scratch = timers;
    }

    /// Lends `pkt` to its receiver; the caller still owns it afterwards.
    fn deliver(&mut self, to: Origin, from: Origin, pkt: &mut Ipv4Packet) {
        self.count_delivered(from, 1);
        self.trace.record_packet(self.now, from, Some(to), pkt, TraceVerdict::Delivered);
        match to {
            Origin::Node(id) => {
                self.nodes[id.0].stats.record_received(pkt.header.protocol, pkt.wire_len(), 1);
                self.with_node_ctx(id, |node, ctx, _| node.on_packet(ctx, pkt));
            }
            Origin::Stub(id) => {
                let b = self.block_of_stub(id);
                self.stub_blocks[b].stats.record_received(pkt.header.protocol, pkt.wire_len(), 1);
                self.stubs[id.0 as usize].received += 1;
                self.with_stub_ctx(id, |handler, ctx| handler.on_packet(ctx, pkt));
            }
            Origin::Router => unreachable!("routing never delivers to the network itself"),
        }
    }

    /// Processes a single event: the held train's next packet if a train is
    /// held, else the earliest lane head or timer. A train delivers exactly
    /// one packet per call. Returns `false` when no event is queued.
    pub fn step(&mut self) -> bool {
        self.start_nodes();
        self.serve(SimTime::from_nanos(u64::MAX), 1)
    }

    /// Serves the next event due at or before `deadline`. A held train
    /// delivers up to `limit` packets (see [`Self::deliver_held`]).
    fn serve(&mut self, deadline: SimTime, limit: u32) -> bool {
        if self.held.is_some() {
            // The held train is due at `now`.
            if self.now > deadline {
                return false;
            }
            self.deliver_held(limit);
            return true;
        }
        // The earliest lane head, then whether a timer sorts before it: the
        // wheel is asked no further than that head (or the deadline).
        let mut head: Option<(SimTime, u64, usize)> = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(f) = lane.queue.front() {
                if head.is_none_or(|(time, seq, _)| (f.time, f.seq) < (time, seq)) {
                    head = Some((f.time, f.seq, i));
                }
            }
        }
        let wheel_limit = head.map_or(deadline, |(time, ..)| time.min(deadline));
        if let Some(key) = self.events.peek_until(wheel_limit) {
            if head.is_none_or(|(time, seq, _)| key < (time, seq)) {
                let (time, _, timer) = self.events.pop_until(key.0).expect("the peeked timer");
                self.now = time;
                match timer {
                    Timer::Node { node, token } => self.with_node_ctx(node, |n, ctx, _| n.on_timer(ctx, token)),
                    Timer::Stub { stub, timer } => self.with_stub_ctx(stub, |h, ctx| h.on_timer(ctx, timer)),
                }
                self.counters.events_popped += 1;
                return true;
            }
        }
        let Some((time, _, i)) = head.filter(|&(time, ..)| time <= deadline) else {
            return false;
        };
        let InFlight { flight, .. } = self.lanes[i].queue.pop_front().expect("the lane head");
        self.now = time;
        match flight {
            Flight::Packet { to, from, mut pkt } => {
                self.deliver(to, from, &mut pkt);
                pool::give(pkt.payload);
                self.counters.events_popped += 1;
            }
            Flight::Train(train) => {
                // The train leaves its lane for good: nothing can sort
                // before its remaining packets, so they wait in the slot.
                self.train_backlog += 1;
                self.held = Some(train);
                self.deliver_held(limit);
            }
        }
        true
    }

    /// Delivers up to `limit` of the held train's packets. A full node is
    /// lent packet after packet in one callback context, each traced just
    /// before it is lent, until the first whose callback queued a packet or
    /// a timer; the counters and stats are then credited in bulk exactly as
    /// per-packet delivery would. A stub client gets one packet. A spent
    /// train's buffer goes back to the pool.
    fn deliver_held(&mut self, limit: u32) {
        let mut train = self.held.take().expect("a held train");
        let (from, first) = (train.from, train.next);
        match train.to {
            Origin::Node(id) => {
                let last = train.count.min(first.saturating_add(limit));
                self.with_node_ctx(id, |node, ctx, trace| {
                    while train.next < last {
                        let pkt = train.next_packet();
                        trace.record_packet(ctx.now, from, Some(Origin::Node(id)), pkt, TraceVerdict::Delivered);
                        node.on_packet(ctx, pkt);
                        if !ctx.outgoing.is_empty() || !ctx.timers.is_empty() {
                            break;
                        }
                    }
                });
                let n = u64::from(train.next - first);
                self.nodes[id.0].stats.record_received(train.shape.protocol, train.shape.wire_len, n);
                self.count_delivered(from, n);
            }
            to => self.deliver(to, from, train.next_packet()),
        }
        let delivered = train.next - first;
        self.counters.events_popped += u64::from(delivered);
        self.train_backlog -= delivered as usize;
        if train.next < train.count {
            self.held = Some(train);
        } else {
            pool::give(train.pkt.payload);
        }
    }

    /// Runs until the event queue is exhausted, delivering a held train's
    /// packets in one callback context where that is exact (see the
    /// [module documentation](self)).
    pub fn run(&mut self) {
        self.start_nodes();
        while self.serve(SimTime::from_nanos(u64::MAX), u32::MAX) {}
    }

    /// Runs until the event queue is exhausted or the clock passes `deadline`,
    /// batching train deliveries like [`run`](Self::run).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start_nodes();
        while self.serve(deadline, u32::MAX) {}
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for `d` of simulated time from the current clock.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Number of events still queued, timers and packets in flight alike,
    /// counting every undelivered packet of a train.
    pub fn pending_events(&self) -> usize {
        self.events.len() + self.in_flight() + self.train_backlog
    }

    /// Lane entries: packets in flight, a queued train counting once.
    fn in_flight(&self) -> usize {
        self.lanes.iter().map(|lane| lane.queue.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udp::{UdpDatagram, UdpTemplate, UDP_HEADER_LEN};

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);

    fn udp(src: Ipv4Addr, dst: Ipv4Addr, len: usize) -> Ipv4Packet {
        UdpDatagram::new(src, dst, 1111, 2222, vec![0u8; len]).into_packet(1, 64)
    }

    #[test]
    fn delivers_between_nodes() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a", vec![A], EchoNode::default());
        let b = sim.add_node("b", vec![B], EchoNode::default());
        sim.connect(a, b, Link::with_latency(Duration::from_millis(7)));
        sim.inject(a, udp(A, B, 10));
        sim.run();
        assert_eq!(sim.stats(b).udp_received, 1);
        assert_eq!(sim.stats(a).udp_sent, 1);
        assert_eq!(sim.now(), SimTime::ZERO + Duration::from_millis(7));
        assert_eq!(sim.node_ref::<EchoNode>(b).unwrap().udp_seen, 1);
    }

    #[test]
    fn echo_node_answers_ping() {
        let mut sim = Simulator::new(2);
        let a = sim.add_node("a", vec![A], SinkNode::default());
        let b = sim.add_node("b", vec![B], EchoNode::default());
        sim.connect(a, b, Link::default());
        let ping = IcmpMessage::EchoRequest { id: 1, seq: 1, payload: vec![] }.into_packet(A, B, 5, 64);
        sim.inject(a, ping);
        sim.run();
        assert_eq!(sim.node_ref::<EchoNode>(b).unwrap().pings_answered, 1);
        assert_eq!(sim.node_ref::<SinkNode>(a).unwrap().received, 1, "echo reply came back");
        assert_eq!(sim.stats(a).icmp_received, 1);
    }

    #[test]
    fn no_route_packets_are_dropped() {
        let mut sim = Simulator::new(3);
        sim.trace_mut().enabled = true;
        let a = sim.add_node("a", vec![A], EchoNode::default());
        sim.inject(a, udp(A, "99.99.99.99".parse().unwrap(), 10));
        sim.run();
        assert_eq!(sim.stats(a).dropped_in_transit, 1);
        assert_eq!(sim.stats(a).no_route, 1);
        assert_eq!(sim.counters().no_route, 1);
        let trace = sim.trace();
        let traced = trace.packets().filter(|p| p.verdict == TraceVerdict::NoRoute);
        assert_eq!(traced.map(|p| p.packet.protocol).collect::<Vec<_>>(), vec![Protocol::Udp]);
    }

    #[test]
    fn counters_track_verdicts_and_export() {
        let mut sim = Simulator::new(30);
        let a = sim.add_node("a", vec![A], SinkNode::default());
        let b = sim.add_node("b", vec![B], SinkNode::default());
        sim.connect(a, b, Link::default().mtu(576));
        sim.set_egress_filtering(a, true);
        sim.inject(a, udp(A, B, 10)); // delivered
        sim.inject(a, udp(C, B, 10)); // egress-filtered (spoofed)
        sim.inject(a, udp(A, "99.99.99.99".parse().unwrap(), 10)); // no-route
        let mut big = udp(A, B, 1000);
        big.header.dont_fragment = true;
        sim.inject(a, big); // mtu-exceeded (+ ICMP PTB delivered back)
        sim.run();
        let c = sim.counters();
        assert_eq!(c.delivered, 2, "the UDP datagram and the PTB error");
        assert_eq!(c.egress_filtered, 1);
        assert_eq!(c.no_route, 1);
        assert_eq!(c.mtu_exceeded, 1);
        assert_eq!(c.link_loss, 0);
        assert!(c.events_popped >= 2);
        assert_eq!(sim.stats(a).delivered, 1, "PTB comes from the router, not node a");
        assert_eq!(sim.stats(a).mtu_exceeded, 1);

        let mut m = telemetry::MetricsSnapshot::new();
        sim.export_metrics(&mut m);
        assert_eq!(m.counter("engine.packets.delivered"), 2);
        assert_eq!(m.counter("engine.packets.egress_filtered"), 1);
        assert_eq!(m.counter("engine.packets.no_route"), 1);
        assert_eq!(m.counter("engine.packets.mtu_exceeded"), 1);
        assert_eq!(m.counter("engine.events.popped"), c.events_popped);
        assert_eq!(m.gauge("engine.events.pending"), 0);
        assert!(m.counter("engine.packets.link_loss") == 0);
        assert!(m.render().contains("engine.wheel.level0.occupancy"));
    }

    #[test]
    fn every_verdict_is_traced_with_its_labels() {
        let mut sim = Simulator::new(30);
        sim.trace_mut().enabled = true;
        let a = sim.add_node("a", vec![A], SinkNode::default());
        let b = sim.add_node("b", vec![B], SinkNode::default());
        let c = sim.add_node("c", vec![C], SinkNode::default());
        sim.connect(a, b, Link::default().mtu(576));
        sim.connect(a, c, Link::default().loss(1.0));
        sim.set_egress_filtering(a, true);
        sim.inject(a, udp(A, B, 10));
        sim.inject(a, udp(C, B, 10));
        sim.inject(a, udp(A, "99.99.99.99".parse().unwrap(), 10));
        sim.inject(a, udp(A, C, 10));
        let mut big = udp(A, B, 1000);
        big.header.dont_fragment = true;
        sim.inject(a, big);
        sim.run();
        let trace = sim.trace();
        let mut seen: Vec<String> = trace
            .packets()
            .map(|p| {
                format!("[{}] {} -> {} {}", p.verdict, trace.label(Some(p.from)), trace.label(p.to), p.packet.protocol)
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(
            seen,
            [
                "[delivered] a -> b UDP",
                "[delivered] router -> a ICMP",
                "[egress-filtered] a -> - UDP",
                "[link-loss] a -> c UDP",
                "[mtu-exceeded] a -> b UDP",
                "[no-route] a -> - UDP",
            ]
        );
    }

    #[test]
    fn tracing_is_off_by_default_and_never_perturbs_delivery() {
        assert!(!Simulator::new(42).trace().enabled, "the trace is off by default");
        let run = |traced: bool| {
            let mut sim = Simulator::new(42);
            sim.trace_mut().enabled = traced;
            let a = sim.add_node("a", vec![A], EchoNode::default());
            let b = sim.add_node("b", vec![B], EchoNode::default());
            sim.connect(a, b, Link::default().loss(0.3));
            for i in 0..50 {
                sim.inject(a, udp(A, B, 10 + i));
            }
            sim.run();
            (sim.counters(), sim.stats(a).clone(), sim.stats(b).clone(), sim.trace().entries().len())
        };
        let (off, on) = (run(false), run(true));
        assert_eq!(off.3, 0, "an untraced run records nothing");
        assert_eq!(on.3, 50, "a traced run records every packet's fate");
        assert_eq!((off.0, off.1, off.2), (on.0, on.1, on.2));
    }

    #[test]
    fn spans_are_timed_and_formatted_only_while_tracing() {
        let mut sim = Simulator::new(1);
        let formatted = std::cell::Cell::new(0);
        let detail = || {
            formatted.set(formatted.get() + 1);
            "port 40123".to_string()
        };
        sim.span_enter("saddns.spray", detail);
        sim.span_exit("saddns.spray");
        assert_eq!((formatted.get(), sim.trace().entries().len()), (0, 0), "off: nothing formatted or kept");
        sim.trace_mut().enabled = true;
        sim.run_for(Duration::from_millis(3));
        sim.span_enter("saddns.spray", detail);
        sim.span_exit("saddns.spray");
        assert_eq!(formatted.get(), 1);
        let time = SimTime::ZERO + Duration::from_millis(3);
        let entries: Vec<TraceEntry> = sim.trace().entries().cloned().collect();
        assert_eq!(
            entries,
            [
                TraceEntry::SpanEnter { time, name: "saddns.spray", detail: "port 40123".into() },
                TraceEntry::SpanExit { time, name: "saddns.spray" },
            ]
        );
    }

    #[test]
    fn bounded_trace_exports_its_drop_count() {
        let mut sim = Simulator::new(1);
        let trace = sim.trace_mut();
        trace.enabled = true;
        trace.capacity = 3;
        let a = sim.add_node("a", vec![A], SinkNode::default());
        let b = sim.add_node("b", vec![B], SinkNode::default());
        sim.connect(a, b, Link::default());
        for i in 0..10 {
            sim.inject(a, udp(A, B, i));
        }
        sim.run();
        assert_eq!((sim.trace().entries().len(), sim.trace().dropped()), (3, 7));
        let mut m = telemetry::MetricsSnapshot::new();
        sim.export_metrics(&mut m);
        assert_eq!(m.counter("engine.trace.dropped"), 7);
    }

    #[test]
    #[should_panic(expected = "duplicate address registration")]
    fn duplicate_address_registration_panics() {
        let mut sim = Simulator::new(3);
        sim.add_node("first-owner", vec![A], EchoNode::default());
        sim.add_node("second-owner", vec![A], EchoNode::default());
    }

    #[test]
    #[should_panic(expected = "stub block")]
    fn node_address_inside_stub_block_panics() {
        let mut sim = Simulator::new(3);
        sim.add_stub_block("farm", "100.64.0.0".parse().unwrap(), 16);
        sim.add_node("squatter", vec!["100.64.0.5".parse().unwrap()], EchoNode::default());
    }

    #[test]
    #[should_panic(expected = "overlaps existing stub block")]
    fn overlapping_stub_blocks_panic() {
        let mut sim = Simulator::new(3);
        sim.add_stub_block("farm-a", "100.64.0.0".parse().unwrap(), 16);
        sim.add_stub_block("farm-b", "100.64.0.8".parse().unwrap(), 16);
    }

    #[test]
    fn egress_filtering_drops_spoofed_sources() {
        let mut sim = Simulator::new(4);
        let a = sim.add_node("attacker", vec![A], EchoNode::default());
        let b = sim.add_node("victim", vec![B], EchoNode::default());
        sim.connect(a, b, Link::default());
        sim.set_egress_filtering(a, true);
        // Spoofed packet (source C not owned by attacker) is filtered...
        sim.inject(a, udp(C, B, 10));
        // ...but a non-spoofed one passes.
        sim.inject(a, udp(A, B, 10));
        sim.run();
        assert_eq!(sim.stats(a).spoofed_filtered, 1);
        assert_eq!(sim.stats(b).udp_received, 1);
    }

    #[test]
    fn spoofing_allowed_without_egress_filtering() {
        let mut sim = Simulator::new(5);
        let a = sim.add_node("attacker", vec![A], EchoNode::default());
        let b = sim.add_node("victim", vec![B], EchoNode::default());
        sim.connect(a, b, Link::default());
        sim.inject(a, udp(C, B, 10));
        sim.run();
        assert_eq!(sim.stats(b).udp_received, 1);
        assert_eq!(sim.stats(a).spoofed_filtered, 0);
    }

    #[test]
    fn route_override_hijacks_traffic() {
        let mut sim = Simulator::new(6);
        let a = sim.add_node("client", vec![A], EchoNode::default());
        let b = sim.add_node("victim-ns", vec![B], EchoNode::default());
        let h = sim.add_node("hijacker", vec![C], EchoNode::default());
        sim.connect(a, b, Link::default());
        sim.connect(a, h, Link::default());
        // Sub-prefix hijack of the /32 covering B.
        sim.set_route_override(Prefix::host(B), h);
        sim.inject(a, udp(A, B, 10));
        sim.run();
        assert_eq!(sim.stats(h).udp_received, 1, "traffic goes to the hijacker");
        assert_eq!(sim.stats(b).udp_received, 0);
        // Withdraw the hijack: traffic flows normally again.
        sim.clear_route_override(Prefix::host(B));
        sim.inject(a, udp(A, B, 10));
        sim.run();
        assert_eq!(sim.stats(b).udp_received, 1);
    }

    #[test]
    fn more_specific_override_wins() {
        let mut sim = Simulator::new(7);
        let a = sim.add_node("a", vec![A], EchoNode::default());
        let b = sim.add_node("b", vec![B], EchoNode::default());
        let h1 = sim.add_node("h1", vec![Ipv4Addr::new(9, 0, 0, 1)], EchoNode::default());
        let h2 = sim.add_node("h2", vec![Ipv4Addr::new(9, 0, 0, 2)], EchoNode::default());
        let _ = b;
        sim.set_route_override("10.0.0.0/8".parse().unwrap(), h1);
        sim.set_route_override("10.0.0.0/24".parse().unwrap(), h2);
        sim.inject(a, udp(A, B, 10));
        sim.run();
        assert_eq!(sim.stats(h2).udp_received, 1);
        assert_eq!(sim.stats(h1).udp_received, 0);
    }

    #[test]
    fn oversized_df_packet_triggers_icmp_ptb() {
        let mut sim = Simulator::new(8);
        let a = sim.add_node("a", vec![A], SinkNode::default());
        let b = sim.add_node("b", vec![B], SinkNode::default());
        sim.connect(a, b, Link::default().mtu(576));
        let mut pkt = udp(A, B, 1000);
        pkt.header.dont_fragment = true;
        sim.inject(a, pkt);
        sim.run();
        // The oversized packet never reaches b; a receives an ICMP PTB.
        assert_eq!(sim.stats(b).packets_received, 0);
        assert_eq!(sim.stats(a).icmp_received, 1);
        assert_eq!(sim.stats(a).dropped_in_transit, 1);
    }

    #[test]
    fn oversized_packet_without_df_fragmented_in_transit() {
        let mut sim = Simulator::new(9);
        let a = sim.add_node("a", vec![A], SinkNode::default());
        let b = sim.add_node("b", vec![B], SinkNode::default());
        sim.connect(a, b, Link::default().mtu(576));
        sim.inject(a, udp(A, B, 1400));
        sim.run();
        assert!(sim.stats(b).packets_received >= 3, "fragments delivered separately");
    }

    #[test]
    fn lossy_link_drops_packets_deterministically() {
        let mut sim = Simulator::new(10);
        let a = sim.add_node("a", vec![A], SinkNode::default());
        let b = sim.add_node("b", vec![B], SinkNode::default());
        sim.connect(a, b, Link::default().loss(1.0));
        sim.inject(a, udp(A, B, 10));
        sim.run();
        assert_eq!(sim.stats(b).packets_received, 0);
        assert_eq!(sim.stats(a).dropped_in_transit, 1);
    }

    #[test]
    fn timers_fire_in_order() {
        #[derive(Default)]
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node for TimerNode {
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: &mut Ipv4Packet) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut sim = Simulator::new(11);
        let n = sim.add_node("t", vec![A], TimerNode::default());
        sim.schedule_timer(n, Duration::from_millis(20), 2);
        sim.schedule_timer(n, Duration::from_millis(10), 1);
        sim.schedule_timer(n, Duration::from_millis(30), 3);
        sim.run();
        assert_eq!(sim.node_ref::<TimerNode>(n).unwrap().fired, vec![1, 2, 3]);
    }

    #[test]
    fn on_start_runs_before_first_delivery() {
        struct Starter {
            started_at: Option<SimTime>,
        }
        impl Node for Starter {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.started_at = Some(ctx.now());
                ctx.set_timer(Duration::from_millis(1), 99);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: &mut Ipv4Packet) {}
        }
        let mut sim = Simulator::new(12);
        let n = sim.add_node("s", vec![A], Starter { started_at: None });
        sim.run();
        assert_eq!(sim.node_ref::<Starter>(n).unwrap().started_at, Some(SimTime::ZERO));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulator::new(13);
        let a = sim.add_node("a", vec![A], EchoNode::default());
        let b = sim.add_node("b", vec![B], EchoNode::default());
        sim.connect(a, b, Link::with_latency(Duration::from_secs(10)));
        sim.inject(a, udp(A, B, 10));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats(b).udp_received, 0);
        assert_eq!(sim.pending_events(), 1);
        sim.run();
        assert_eq!(sim.stats(b).udp_received, 1);
    }

    #[test]
    fn run_until_leaves_later_events_in_the_wheel() {
        // A bounded run must not pin the wheel's clock at the next event past
        // the deadline: an event scheduled afterwards then sits in a wheel
        // slot of its own instead of the ready heap.
        let mut sim = Simulator::new(14);
        let a = sim.add_node("a", vec![A], SinkNode::default());
        sim.schedule_timer(a, Duration::from_secs(30), 1);
        sim.run_until(SimTime::from_secs(1));
        sim.schedule_timer(a, Duration::from_millis(5), 2);
        assert_eq!(sim.events.level_occupancy().iter().sum::<u32>(), 2);
        assert_eq!(sim.pending_events(), 2);
    }

    /// Logs every packet (time, summary, IP ID, bytes) and timer it sees,
    /// and echoes UDP back to the source so deliveries schedule more
    /// traffic. With `take_every: k` it moves the buffer out of every packet
    /// whose IP ID is a multiple of `k`, and keeps it.
    #[derive(Default)]
    struct LogNode {
        take_every: Option<u16>,
        log: Vec<String>,
        taken: Vec<Vec<u8>>,
    }
    impl Node for LogNode {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Ipv4Packet) {
            let id = pkt.header.identification;
            self.log.push(format!("{} {} id={id} {:?}", ctx.now(), pkt.summary(), pkt.payload));
            if let Ok(d) = UdpDatagram::from_packet(pkt) {
                let ipid = ctx.rng().gen();
                ctx.send(UdpDatagram::new(d.dst, d.src, d.dst_port, d.src_port, d.payload).into_packet(ipid, 64));
            }
            if self.take_every.is_some_and(|k| id.is_multiple_of(k)) {
                self.taken.push(std::mem::take(&mut pkt.payload));
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.log.push(format!("{} timer {token}", ctx.now()));
        }
    }

    const SPRAY: u32 = 48;

    /// Packet `i` of a spray: IP ID `i`, twelve payload bytes of `i`.
    fn spray_packet(src: Ipv4Addr, i: u32) -> Ipv4Packet {
        UdpDatagram::new(src, B, 1111, 2222, vec![i as u8; 12]).into_packet(i as u16, 64)
    }

    /// The spray as a train: every packet written from one template into
    /// the train's buffer.
    fn spray_train(src: Ipv4Addr) -> impl FnMut(u32, &mut Ipv4Packet) {
        let template = UdpTemplate::new(UdpDatagram::new(src, B, 1111, 2222, vec![0; 12]), 64);
        move |i, pkt| template.write(pkt, i as u16, &[(UDP_HEADER_LEN, &[i as u8; 12])])
    }

    /// Node `a` sprays `SPRAY` packets from `src` at `b`, either as one train
    /// or as a loop of `inject` calls of fully framed packets; `c` sends `b`
    /// one packet just before and one just after the spray, arriving at the
    /// same time, and `b` has a timer armed for that instant. `b` takes the
    /// buffer of every `take_every`-th packet.
    fn spray_world(
        link: Link,
        src: Ipv4Addr,
        filtered: bool,
        take_every: Option<u16>,
        train: bool,
    ) -> (Simulator, [NodeId; 3]) {
        let mut sim = Simulator::new(21);
        sim.trace_mut().enabled = true;
        let a = sim.add_node("a", vec![A], SinkNode::default());
        let b = sim.add_node("b", vec![B], LogNode { take_every, ..LogNode::default() });
        let c = sim.add_node("c", vec![C], SinkNode::default());
        sim.connect(a, b, link);
        sim.connect(c, b, Link::with_latency(link.latency));
        sim.set_egress_filtering(a, filtered);
        sim.inject(c, udp(C, B, 10));
        if train {
            sim.inject_train(a, SPRAY, spray_train(src));
        } else {
            for i in 0..SPRAY {
                sim.inject(a, spray_packet(src, i));
            }
        }
        sim.inject(c, udp(C, B, 20));
        sim.schedule_timer(b, link.latency, 7);
        (sim, [a, b, c])
    }

    fn assert_same(looped: &Simulator, train: &Simulator, nodes: [NodeId; 3]) {
        assert_eq!(looped.pending_events(), train.pending_events());
        let pending = |sim: &Simulator| {
            let mut m = telemetry::MetricsSnapshot::new();
            sim.export_metrics(&mut m);
            m.gauge("engine.events.pending")
        };
        assert_eq!(pending(looped), pending(train));
        assert_eq!(looped.counters(), train.counters());
        for n in nodes {
            assert_eq!(looped.stats(n), train.stats(n), "stats of {}", looped.node_name(n));
        }
        assert_eq!(looped.trace().render(), train.trace().render());
        let log = |sim: &Simulator| sim.node_ref::<LogNode>(nodes[1]).unwrap().log.clone();
        assert_eq!(log(looped), log(train));
    }

    /// Runs the loop and the train side by side, comparing after the inject,
    /// after every single step through the burst, and at the end. Returns the
    /// train's simulator.
    fn check_train_matches_inject_loop(
        link: Link,
        src: Ipv4Addr,
        filtered: bool,
        take_every: Option<u16>,
    ) -> Simulator {
        let (mut looped, nodes) = spray_world(link, src, filtered, take_every, false);
        let (mut train, _) = spray_world(link, src, filtered, take_every, true);
        assert_same(&looped, &train, nodes);
        for _ in 0..SPRAY + 8 {
            assert_eq!(looped.step(), train.step());
            assert_same(&looped, &train, nodes);
        }
        looped.run();
        train.run();
        assert_same(&looped, &train, nodes);
        train
    }

    #[test]
    fn packet_train_matches_inject_loop() {
        let link = Link::with_latency(Duration::from_millis(5));
        let (looped, _) = spray_world(link, A, false, None, false);
        let (mut train, _) = spray_world(link, A, false, None, true);
        // One lane entry stands for the whole burst, but it counts as SPRAY:
        // c's two packets and the train, against c's two and SPRAY packets.
        // b's timer is the one wheel entry either way.
        assert_eq!(train.in_flight(), 3);
        assert_eq!(looped.in_flight() as u32, SPRAY + 2);
        assert_eq!((train.events.len(), looped.events.len()), (1, 1));
        assert_eq!(train.pending_events(), looped.pending_events());
        train.run();
        assert_eq!(train.counters().delivered, 2 * u64::from(SPRAY) + 4, "spray, echoes, and c's two packets");
        check_train_matches_inject_loop(link, A, false, None);
    }

    #[test]
    fn packet_train_eager_paths_match_inject_loop() {
        let spoofed = Ipv4Addr::new(10, 0, 0, 9);
        let link = Link::with_latency(Duration::from_millis(5));
        let filtered = check_train_matches_inject_loop(link, spoofed, true, None);
        assert_eq!(filtered.counters().egress_filtered, u64::from(SPRAY));
        let lossy = check_train_matches_inject_loop(link.loss(0.5), A, false, None);
        let lost = lossy.counters().link_loss;
        assert!(lost > 0 && lost < 2 * u64::from(SPRAY), "some of the spray and its echoes were lost: {lost}");
        let oversized = check_train_matches_inject_loop(link.mtu(36).fragmenting(false), A, false, None);
        assert_eq!(oversized.counters().mtu_exceeded, u64::from(SPRAY));
        assert_eq!(oversized.stats(NodeId(0)).icmp_received, u64::from(SPRAY), "one PTB per sprayed packet");
        let fragmented = check_train_matches_inject_loop(link.mtu(36), A, false, None);
        assert!(fragmented.counters().delivered > 2 * u64::from(SPRAY), "fragments delivered separately");
    }

    #[test]
    fn packet_train_survives_a_receiver_that_takes_buffers() {
        let link = Link::with_latency(Duration::from_millis(5));
        // Every packet (c's two, IP ID 1, included), or every third spray packet.
        for (take_every, taken) in [(1, SPRAY as usize + 2), (3, SPRAY.div_ceil(3) as usize)] {
            let train = check_train_matches_inject_loop(link, A, false, Some(take_every));
            assert_eq!(train.node_ref::<LogNode>(NodeId(1)).unwrap().taken.len(), taken);
            let lossy = check_train_matches_inject_loop(link.loss(0.5), A, false, Some(take_every));
            assert!(lossy.counters().link_loss > 0);
        }
    }

    #[test]
    #[should_panic(expected = "packet train shape mismatch")]
    fn packet_train_shape_mismatch_panics() {
        let mut sim = Simulator::new(22);
        let a = sim.add_node("a", vec![A], SinkNode::default());
        let b = sim.add_node("b", vec![B], SinkNode::default());
        sim.connect(a, b, Link::default());
        sim.inject_train(a, 3, |i, pkt| *pkt = udp(A, B, 10 + i as usize));
        sim.run();
    }

    /// What a [`Reactor`] does at the train packet whose IP ID is `k`, or,
    /// for `TakeEvery(k)`, at every train packet whose IP ID is a multiple
    /// of `k`: it moves that packet's buffer out.
    #[derive(Clone, Copy)]
    enum React {
        Ignore,
        ReplyAt(u16),
        TimerAt(u16),
        TakeEvery(u16),
    }

    /// Logs every packet, with an RNG draw, and every timer; replies to,
    /// arms a timer at or takes the buffer of train packets. Every train
    /// packet must be byte-identical to packet `k` of [`train_world`]'s
    /// train, however the buffer it was written into was left.
    struct Reactor {
        react: React,
        log: Vec<String>,
    }
    impl Node for Reactor {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Ipv4Packet) {
            let id = pkt.header.identification;
            let draw: u16 = ctx.rng().gen();
            self.log.push(format!("{} {} id={id} draw={draw}", ctx.now(), pkt.summary()));
            let train_packet = pkt.header.src == A;
            if train_packet {
                assert_eq!(*pkt, train_packet_at(u32::from(id)), "train packet {id}");
            }
            match self.react {
                React::ReplyAt(k) if k == id && train_packet => {
                    ctx.send(UdpDatagram::new(B, A, 2222, 1111, vec![7; 4]).into_packet(draw, 64));
                }
                React::TimerAt(k) if k == id && train_packet => {
                    ctx.set_timer(Duration::from_millis(1), u64::from(id));
                }
                React::TakeEvery(k) if id.is_multiple_of(k) && train_packet => drop(std::mem::take(&mut pkt.payload)),
                _ => {}
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.log.push(format!("{} timer {token}", ctx.now()));
        }
    }

    /// A host whose stack answers a closed port with rate-limited ICMP.
    struct ClosedPortHost {
        stack: HostStack,
        log: Vec<String>,
    }
    impl Node for ClosedPortHost {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Ipv4Packet) {
            let event = crate::transport::with_io(&mut self.stack, ctx, |io| io.receive(pkt));
            self.log.push(format!("{} {event:?}", ctx.now()));
        }
    }

    /// Packet `k` of [`train_world`]'s train: IP ID `k`, payload bytes that
    /// differ from packet to packet.
    fn train_packet_at(k: u32) -> Ipv4Packet {
        let payload = (0..12).map(|j| (k * 7 + j) as u8).collect();
        UdpDatagram::new(A, B, 1111, 2222, payload).into_packet(k as u16, 64)
    }

    /// Node `a` sends `b` a train of `count` UDP packets (IP IDs 0, 1, …),
    /// written from one template; `c` sends `b` one packet arriving just
    /// before and one just after it, and `b` has a timer armed for that
    /// instant. The link back from `b` to `a` is lossy, so dispatching `b`'s
    /// replies draws from the RNG.
    fn train_world(receiver: impl Node, count: u32) -> (Simulator, [NodeId; 3]) {
        let mut sim = Simulator::new(41);
        let a = sim.add_node("a", vec![A], SinkNode::default());
        let b = sim.add_node("b", vec![B], receiver);
        let c = sim.add_node("c", vec![C], SinkNode::default());
        let link = Link::with_latency(Duration::from_millis(5));
        sim.links.insert((a, b), link);
        sim.links.insert((b, a), link.loss(0.5));
        sim.connect(c, b, link);
        sim.inject(c, udp(C, B, 10));
        let template = UdpTemplate::new(UdpDatagram::new(A, B, 1111, 2222, vec![0; 12]), 64);
        sim.inject_train(a, count, move |k, pkt| {
            let payload: Vec<u8> = (0..12).map(|j| (k * 7 + j) as u8).collect();
            template.write(pkt, k as u16, &[(UDP_HEADER_LEN, &payload)]);
        });
        sim.inject(c, udp(C, B, 20));
        sim.schedule_timer(b, link.latency, 7);
        (sim, [a, b, c])
    }

    /// Runs `world` one `step` at a time, with `run`, and with a few steps
    /// then `run_until` the train's arrival then `run`, each with the trace
    /// off and on. All three must agree on the engine counters, every node's
    /// stats, the pending events, what `observe` reads off the receiver, the
    /// RNG's next draw and the trace (`render` and `dump_last`); the mixed
    /// run must also agree with the stepped one where `run_until` stops.
    /// The traced runs must agree with the untraced ones on all but the
    /// trace, and trace every packet's fate.
    fn assert_run_matches_steps<N: Node, T: PartialEq + std::fmt::Debug>(
        world: impl Fn() -> (Simulator, [NodeId; 3]),
        observe: impl Fn(&N) -> T,
    ) {
        let snapshot = |sim: &Simulator, nodes: [NodeId; 3]| {
            let stats: Vec<TrafficStats> = nodes.iter().map(|&n| sim.stats(n).clone()).collect();
            let state = (sim.counters(), stats, sim.pending_events(), observe(sim.node_ref::<N>(nodes[1]).unwrap()));
            (state, sim.trace().render(), sim.trace().dump_last(64))
        };
        let finish = |mut sim: Simulator, nodes: [NodeId; 3]| (snapshot(&sim, nodes), sim.rng.gen::<u64>());
        // A step serves one event, and one train packet is one event.
        let step = |sim: &mut Simulator| {
            let popped = sim.counters().events_popped;
            let served = sim.step();
            assert_eq!(sim.counters().events_popped, popped + u64::from(served), "one event per step");
            served
        };
        let all_modes = |traced: bool| {
            let world = || {
                let (mut sim, nodes) = world();
                sim.trace_mut().enabled = traced;
                (sim, nodes)
            };
            let (mut stepped, nodes) = world();
            let (mut mixed, _) = world();
            for _ in 0..3 {
                assert!(step(&mut mixed));
            }
            mixed.run_until(SimTime::ZERO + Duration::from_millis(5));
            while stepped.counters().events_popped < mixed.counters().events_popped {
                assert!(step(&mut stepped));
            }
            assert_eq!(snapshot(&stepped, nodes), snapshot(&mixed, nodes), "where run_until stops");
            while step(&mut stepped) {}
            mixed.run();
            let expected = finish(stepped, nodes);
            assert_eq!(finish(mixed, nodes), expected, "steps, then run_until and run");

            let (mut run, _) = world();
            run.run();
            assert_eq!(finish(run, nodes), expected, "run");
            expected
        };
        let (((plain, ..), plain_draw), ((traced, render, _), draw)) = (all_modes(false), all_modes(true));
        let fates = traced.0.delivered + traced.0.no_route + traced.0.link_loss;
        assert_eq!(render.lines().count() as u64, fates, "every packet's fate is traced");
        assert_eq!((plain, plain_draw), (traced, draw), "the trace does not perturb the run");
    }

    #[test]
    fn batched_train_delivery_matches_stepping() {
        let reactor = |react| Reactor { react, log: Vec::new() };
        let log = |n: &Reactor| n.log.clone();
        let last = SPRAY as u16 - 1;
        assert_run_matches_steps(|| train_world(reactor(React::Ignore), SPRAY), log);
        for k in [0, 17, last] {
            assert_run_matches_steps(|| train_world(reactor(React::ReplyAt(k)), SPRAY), log);
            assert_run_matches_steps(|| train_world(reactor(React::TimerAt(k)), SPRAY), log);
        }
    }

    #[test]
    fn batched_train_delivery_survives_a_receiver_that_takes_buffers() {
        // The receiver checks every packet against a full framing, so a
        // buffer the train failed to replace or to rewrite fails there.
        let log = |n: &Reactor| n.log.clone();
        for k in [1, 2, 5] {
            assert_run_matches_steps(
                || train_world(Reactor { react: React::TakeEvery(k), log: Vec::new() }, SPRAY),
                log,
            );
        }
    }

    #[test]
    fn run_until_a_past_deadline_leaves_a_held_train_alone() {
        let (mut sim, [_, b, _]) = train_world(Reactor { react: React::Ignore, log: Vec::new() }, SPRAY);
        assert!(sim.step() && sim.step(), "c's packet, then the train's first");
        let pending = sim.pending_events();
        sim.run_until(SimTime::ZERO + Duration::from_millis(1));
        assert_eq!(sim.pending_events(), pending, "the held train is due later than the deadline");
        assert_eq!(sim.node_ref::<Reactor>(b).unwrap().log.len(), 2);
        sim.run();
        assert_eq!(sim.node_ref::<Reactor>(b).unwrap().log.len(), SPRAY as usize + 3);
    }

    #[test]
    fn batched_train_to_a_closed_port_matches_stepping() {
        // The global ICMP budget (50 tokens) runs out mid-train: the first
        // packets each draw a port-unreachable, the rest are suppressed.
        const COUNT: u32 = 120;
        let host = || ClosedPortHost { stack: HostStack::with_defaults(vec![B]), log: Vec::new() };
        let observe = |h: &ClosedPortHost| {
            let limiter = h.stack.icmp_limiter();
            (h.log.clone(), limiter.allowed, limiter.suppressed)
        };
        assert_run_matches_steps(|| train_world(host(), COUNT), observe);
        let (mut sim, [_, b, _]) = train_world(host(), COUNT);
        sim.run();
        let limiter = sim.node_ref::<ClosedPortHost>(b).unwrap().stack.icmp_limiter();
        assert_eq!((limiter.allowed, limiter.suppressed), (50, u64::from(COUNT) + 2 - 50));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run_once(seed: u64) -> Vec<String> {
            let mut sim = Simulator::new(seed);
            sim.trace_mut().enabled = true;
            let a = sim.add_node("a", vec![A], EchoNode::default());
            let b = sim.add_node("b", vec![B], EchoNode::default());
            sim.connect(a, b, Link::default().loss(0.5));
            for i in 0..20 {
                sim.inject(a, udp(A, B, 10 + i));
            }
            sim.run();
            let trace = sim.trace();
            trace.packets().map(|e| trace.line(e).to_string()).collect()
        }
        assert_eq!(run_once(42), run_once(42));
        assert_ne!(run_once(42), run_once(43));
    }

    /// A handler that makes every stub ping-pong one UDP datagram with a
    /// sink node: on start each stub arms a timer, on fire it sends a query,
    /// and deliveries are counted in the arena entry.
    struct PingHandler {
        target: Ipv4Addr,
    }
    impl StubHandler for PingHandler {
        fn on_start(&mut self, ctx: &mut StubCtx<'_>) {
            let jitter = ctx.id().0 as u64;
            ctx.set_timer(Duration::from_micros(10 + jitter), StubTimer { kind: 1, data: ctx.id().0 });
        }
        fn on_timer(&mut self, ctx: &mut StubCtx<'_>, timer: StubTimer) {
            assert_eq!(timer.kind, 1);
            assert_eq!(timer.data, ctx.id().0, "timer token must come back to its owner");
            let pkt = UdpDatagram::new(ctx.addr(), self.target, 5353, 53, vec![0xAB; 8]).into_packet(1, 64);
            ctx.send(pkt);
        }
        fn on_packet(&mut self, ctx: &mut StubCtx<'_>, pkt: &Ipv4Packet) {
            assert_eq!(pkt.header.dst, ctx.addr());
            ctx.state_mut().data += 1;
        }
    }

    /// Echoes every UDP datagram back to its sender.
    #[derive(Default)]
    struct UdpEchoServer;
    impl Node for UdpEchoServer {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Ipv4Packet) {
            if pkt.header.protocol == Protocol::Udp {
                if let Ok(d) = UdpDatagram::from_packet(pkt) {
                    let reply = UdpDatagram::new(d.dst, d.src, d.dst_port, d.src_port, d.payload);
                    let ipid = ctx.rng().gen();
                    ctx.send(reply.into_packet(ipid, 64));
                }
            }
        }
    }

    #[test]
    fn stub_block_round_trips_traffic() {
        let mut sim = Simulator::new(77);
        let server_addr: Ipv4Addr = "10.9.9.9".parse().unwrap();
        let server = sim.add_node("server", vec![server_addr], UdpEchoServer);
        let first = sim.add_stub_block("client", "100.64.0.0".parse().unwrap(), 100);
        sim.set_stub_handler(PingHandler { target: server_addr });
        sim.run();
        assert_eq!(sim.stats(server).udp_received, 100);
        assert_eq!(sim.stats(server).udp_sent, 100);
        // Every stub sent one query and got one reply back.
        for i in 0..100 {
            let st = sim.stub_states()[(first.0 + i) as usize];
            assert_eq!((st.sent, st.received, st.data), (1, 1, 1), "stub {i}");
        }
        assert_eq!(sim.stub_block_stats(first).udp_sent, 100);
        assert_eq!(sim.stub_block_stats(first).udp_received, 100);
    }

    #[test]
    fn stub_traffic_is_traced_with_block_labels() {
        let mut sim = Simulator::new(77);
        sim.trace_mut().enabled = true;
        let server_addr: Ipv4Addr = "10.9.9.9".parse().unwrap();
        sim.add_node("server", vec![server_addr], UdpEchoServer);
        sim.add_stub_block("client", "100.64.0.0".parse().unwrap(), 2);
        sim.set_stub_handler(PingHandler { target: server_addr });
        sim.run();
        let trace = sim.trace();
        let mut hops: Vec<String> =
            trace.packets().map(|p| format!("{} -> {}", trace.label(Some(p.from)), trace.label(p.to))).collect();
        hops.sort_unstable();
        assert_eq!(hops, ["client0 -> server", "client1 -> server", "server -> client0", "server -> client1"]);
    }

    #[test]
    fn stub_lookup_is_arithmetic_on_the_block() {
        let mut sim = Simulator::new(1);
        let first = sim.add_stub_block("farm", "100.64.1.0".parse().unwrap(), 512);
        let a = sim.add_stub_block("other", "100.70.0.0".parse().unwrap(), 4);
        assert_eq!(sim.stub_lookup("100.64.1.0".parse().unwrap()), Some(first));
        assert_eq!(sim.stub_lookup("100.64.2.255".parse().unwrap()), Some(StubId(first.0 + 511)));
        assert_eq!(sim.stub_lookup("100.64.3.0".parse().unwrap()), None);
        assert_eq!(sim.stub_lookup("100.70.0.3".parse().unwrap()), Some(StubId(a.0 + 3)));
        assert_eq!(sim.stub_states().len(), 516);
    }

    #[test]
    fn stub_timers_never_alias_across_clients() {
        // Two stubs schedule timers with identical (kind, data): each fire
        // must reach its own stub. The PingHandler asserts ownership.
        struct SameToken;
        impl StubHandler for SameToken {
            fn on_start(&mut self, ctx: &mut StubCtx<'_>) {
                ctx.set_timer(Duration::from_millis(1), StubTimer { kind: 7, data: 42 });
            }
            fn on_timer(&mut self, ctx: &mut StubCtx<'_>, timer: StubTimer) {
                assert_eq!(timer, StubTimer { kind: 7, data: 42 });
                ctx.state_mut().data += 1;
            }
            fn on_packet(&mut self, _ctx: &mut StubCtx<'_>, _pkt: &Ipv4Packet) {}
        }
        let mut sim = Simulator::new(5);
        let first = sim.add_stub_block("c", "100.64.0.0".parse().unwrap(), 8);
        sim.set_stub_handler(SameToken);
        sim.run();
        for i in 0..8 {
            assert_eq!(sim.stub_states()[(first.0 + i) as usize].data, 1, "stub {i} got exactly its own timer");
        }
    }
}
