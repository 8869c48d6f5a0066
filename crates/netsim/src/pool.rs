//! Thread-local packet-buffer pool and the buffer-lifecycle contract.
//!
//! A DNS/UDP packet's bytes live in **one** `Vec<u8>` from encode to death,
//! and that buffer comes back here exactly once, where the packet dies. The
//! pool is a small per-thread free list of cleared byte buffers; [`take`]
//! hands one out (cleared, so reuse never leaks bytes between packets and has
//! no effect on determinism) and [`give`] accepts it back.
//!
//! **The engine owns every packet in flight; receivers borrow; the engine
//! recycles.** Once a packet is sent it belongs to the engine until it dies.
//! A receiver gets it on loan (`Node::on_packet` takes `&mut Ipv4Packet`,
//! `StubHandler::on_packet` takes `&Ipv4Packet`), and when the callback
//! returns the engine gives whatever buffer is left back here. No
//! application gives a received buffer back.
//!
//! **Who takes.** The encoders of application payloads: `Message::encode`
//! takes a buffer sized to the message plus the UDP header, TCP segmentation
//! one per chunk plus the TCP header, and raw payload builders take with the
//! same headroom. A packet train (`Simulator::inject_train`) takes one buffer
//! for all its packets, which `UdpTemplate::write` overwrites packet after
//! packet (a template gives its own buffer back when it is dropped); only a
//! train that cannot travel as one (a lossy, filtered, too-small or
//! unrouted path) takes one per packet.
//!
//! **One buffer per packet.** `UdpDatagram::into_packet` and
//! `TcpSegment::into_packet` write the header into the payload's own buffer,
//! and the resulting `Ipv4Packet` carries that same buffer. On receipt
//! `HostStack::handle_packet` validates the header and checksum once; a UDP
//! datagram comes up as a `UdpView` borrowing the packet's bytes, and a TCP
//! segment moves the buffer out of the packet and strips the header in place.
//!
//! **Where each buffer dies and is given back.**
//! - In transit, by the engine: egress-filtered, unroutable, lost,
//!   MTU-rejected and in-transit-fragmented packets.
//! - After delivery, by the engine: every lent packet's buffer, unless the
//!   receiver moved it out (what is left then has no capacity, and [`give`]
//!   ignores it). A train's buffer when its last packet is delivered.
//! - In the host stack: the buffer of a fragment that completes a datagram
//!   (the reassembled packet takes its place in the lent packet), the buffer
//!   of a TCP segment for a closed port, and sends that had to be
//!   fragmented.
//! - In the TCP socket: the buffer of every segment `TcpSocket::handle`
//!   takes.
//! - In the application: `SocketEvent::Data` payloads, once decoded. A node
//!   that keeps or forgets a buffer only costs a later [`take`] a miss.
//!
//! The free list is thread-local because simulations are single-threaded and
//! campaign workers each run their own sims; nothing here is shared across
//! threads. The hit/miss counters inherit that thread affinity: a campaign
//! worker thread runs many shards back to back, so the counters are only
//! meaningful as reset-before/read-after deltas around a single-threaded
//! simulation ([`reset_counters`] then [`counters`]) and are deliberately
//! **excluded** from shard-merged telemetry snapshots.

use std::cell::RefCell;

/// Maximum number of buffers retained per thread.
const MAX_POOLED: usize = 1024;
/// Buffers with more capacity than this are dropped rather than pooled, so a
/// rare jumbo packet cannot pin memory forever.
const MAX_POOLED_CAPACITY: usize = 4096;

/// Free list plus accounting for one thread.
#[derive(Default)]
struct PoolState {
    free: Vec<Vec<u8>>,
    counters: PoolCounters,
}

telemetry::counters! {
    /// Snapshot of this thread's pool activity (see [`counters`]). Exported
    /// under `engine.pool.*`, by single-threaded runs only.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct PoolCounters {
        /// [`take`] calls satisfied from the free list.
        pub hits: u64 => "hits",
        /// [`take`] calls that fell through to a fresh heap allocation because
        /// the free list was empty (pool-exhausted allocations).
        pub misses: u64 => "misses",
        /// Buffers accepted back into the free list by [`give`].
        pub returned: u64 => "returned",
        /// Buffers [`give`] declined to pool (oversized, or the free list
        /// was full) — each one is a heap deallocation.
        pub dropped: u64 => "dropped",
    }
    pub fn merge;
    pub fn export_metrics() => "engine.pool";
}

thread_local! {
    static POOL: RefCell<PoolState> = RefCell::new(PoolState::default());
}

/// Takes a cleared buffer with at least `capacity` bytes of room, reusing a
/// pooled one when available.
pub fn take(capacity: usize) -> Vec<u8> {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        match p.free.pop() {
            Some(mut v) => {
                p.counters.hits += 1;
                if v.capacity() < capacity {
                    v.reserve(capacity - v.len());
                }
                v
            }
            None => {
                p.counters.misses += 1;
                Vec::with_capacity(capacity)
            }
        }
    })
}

/// Returns a dead buffer to the pool (cleared first). Oversized buffers are
/// simply dropped. A zero-capacity one is no buffer at all (what is left of
/// a packet whose buffer was moved out) and is ignored.
pub fn give(mut buf: Vec<u8>) {
    if buf.capacity() == 0 {
        return;
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if buf.capacity() > MAX_POOLED_CAPACITY || p.free.len() >= MAX_POOLED {
            p.counters.dropped += 1;
            return;
        }
        buf.clear();
        p.counters.returned += 1;
        p.free.push(buf);
    });
}

/// Writes `header` in front of `payload` inside the payload's own buffer:
/// the payload bytes shift up in place. A buffer without room for the header
/// grows by exactly that much first (a caller's exact-size vector, a
/// zero-capacity control segment); pooled encoders leave the room.
pub(crate) fn prepend(mut payload: Vec<u8>, header: &[u8]) -> Vec<u8> {
    let len = payload.len();
    payload.reserve_exact(header.len());
    payload.extend_from_slice(header);
    payload.copy_within(..len, header.len());
    payload[..header.len()].copy_from_slice(header);
    payload
}

/// Number of buffers currently pooled on this thread (for tests and
/// instrumentation).
pub fn pooled() -> usize {
    POOL.with(|p| p.borrow().free.len())
}

/// This thread's pool counters since the last [`reset_counters`]. Because
/// the pool is thread-local and campaign workers reuse threads across
/// shards, only reset/read deltas around a single-threaded run are
/// deterministic; never fold raw values into a shard-merged snapshot.
pub fn counters() -> PoolCounters {
    POOL.with(|p| p.borrow().counters)
}

/// Zeroes this thread's pool counters (the free list itself is untouched).
pub fn reset_counters() {
    POOL.with(|p| p.borrow_mut().counters = PoolCounters::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_round_trip_cleared() {
        let mut b = take(64);
        b.extend_from_slice(b"hello");
        give(b);
        let b2 = take(16);
        assert!(b2.is_empty(), "pooled buffers are handed out cleared");
        assert!(b2.capacity() >= 16);
        give(b2);
    }

    #[test]
    fn oversized_buffers_are_not_pooled() {
        let before = pooled();
        give(vec![0u8; MAX_POOLED_CAPACITY + 1]);
        assert_eq!(pooled(), before);
    }

    #[test]
    fn take_grows_small_pooled_buffers() {
        give(Vec::with_capacity(8));
        let b = take(1000);
        assert!(b.capacity() >= 1000);
    }

    #[test]
    fn prepend_frames_in_place_when_there_is_room() {
        let mut payload = Vec::with_capacity(16);
        payload.extend_from_slice(b"payload");
        let ptr = payload.as_ptr();
        let framed = prepend(payload, b"hdr");
        assert_eq!(framed, b"hdrpayload");
        assert_eq!(framed.as_ptr(), ptr, "no second buffer when the payload has room");
        // Without room the buffer grows first.
        assert_eq!(prepend(b"xy".to_vec(), b"hdr"), b"hdrxy");
        assert_eq!(prepend(Vec::new(), b"hdr"), b"hdr");
    }

    #[test]
    fn counters_track_hits_misses_and_drops() {
        // Drain the free list so the first take is a guaranteed miss, then
        // measure a full miss -> return -> hit -> oversized-drop cycle.
        while pooled() > 0 {
            let _ = POOL.with(|p| p.borrow_mut().free.pop());
        }
        reset_counters();
        let b = take(32);
        give(b);
        let b = take(32);
        give(vec![0u8; MAX_POOLED_CAPACITY + 1]);
        // A moved-out buffer: nothing to pool and nothing to free.
        give(Vec::new());
        give(b);
        let c = counters();
        assert_eq!(c.misses, 1);
        assert_eq!(c.hits, 1);
        assert_eq!(c.returned, 2);
        assert_eq!(c.dropped, 1);
        reset_counters();
        assert_eq!(counters(), PoolCounters::default());
    }
}
