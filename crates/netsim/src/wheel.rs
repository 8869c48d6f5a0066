//! A hierarchical time wheel for the discrete-event scheduler's timers.
//!
//! The engine used to keep every future event in one
//! `BinaryHeap<Reverse<Event>>`: `O(log n)` per push/pop with poor cache
//! behaviour once a million stub clients each keep a timer armed. The
//! [`TimeWheel`] replaces it with the classic hashed hierarchical wheel of
//! Varghese & Lauck: six levels of 64 slots, each level covering a window
//! 64× wider than the one below, plus an overflow heap for events beyond
//! the ~3.2-day horizon. Insertion is `O(1)`; popping scans per-level
//! occupancy bitmaps (one `u64` per level) to jump straight to the next
//! non-empty slot.
//!
//! The engine keeps only node and stub **timers** here. Packets in flight do
//! not pass through the wheel: a link's latency is constant, so the packets
//! sent over links of one latency already arrive in `(time, seq)` order and
//! wait in one FIFO lane per latency (see [`crate::engine`]). The engine
//! pops whichever of the lane heads and the wheel head sorts first, so it
//! asks the wheel, with a bounded `peek_until`, only whether a timer is due
//! by the earliest lane head. The wheel caches a lower bound on the window
//! base of its next occupied slot, so that question does not rescan the six
//! levels while the wheel holds only far-off timers.
//!
//! **Ordering contract:** events are keyed by `(SimTime, seq)` and pop in
//! exactly the order the old binary heap produced — strictly increasing
//! `(time, seq)`. The engine's determinism contract (same seed ⇒ same packet
//! interleaving) rides on this; `tests/proptests.rs` checks the equivalence
//! on random event batches.
//!
//! Mechanics: slot residency only depends on the event's absolute tick
//! (`time >> GRANULARITY_BITS`), so several events in one level-0 slot may
//! carry different nanosecond timestamps. Draining a slot therefore moves
//! its events into a small "ready" heap that yields them in exact
//! `(time, seq)` order; higher-level slots are cascaded down one level at a
//! time as the clock enters their window. A bounded pop
//! ([`TimeWheel::pop_until`]) never cascades a slot whose window starts past
//! its limit, so the wheel's clock never runs ahead of the caller's deadline
//! and later pushes still land in slots rather than the ready heap.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the level-0 tick width in nanoseconds (4096 ns ≈ 4 µs).
const GRANULARITY_BITS: u32 = 12;
/// log2 of the number of slots per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Slot-index mask.
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// Number of levels. Level `l` spans `64^(l+1)` ticks.
pub(crate) const LEVELS: usize = 6;
/// Ticks covered by the whole wheel; events further out go to the overflow
/// heap (2^36 ticks × 4096 ns ≈ 3.2 days of simulated time).
const HORIZON_TICKS: u64 = 1 << (LEVEL_BITS * LEVELS as u32);

/// One scheduled event: the full-resolution key plus its payload.
struct Entry<T> {
    time: SimTime,
    seq: u64,
    value: T,
}

/// Orders entries by `(time, seq)` only — the payload never participates.
struct Key<T>(Entry<T>);

impl<T> PartialEq for Key<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.time == other.0.time && self.0.seq == other.0.seq
    }
}
impl<T> Eq for Key<T> {}
impl<T> PartialOrd for Key<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Key<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0.time, self.0.seq).cmp(&(other.0.time, other.0.seq))
    }
}

/// A hierarchical time wheel holding `(SimTime, seq)`-keyed events.
///
/// See the [module documentation](self) for the design; [`TimeWheel::pop`]
/// yields events in strictly increasing `(time, seq)` order.
pub struct TimeWheel<T> {
    /// `slots[l][s]` holds events whose tick has residue `s` at level `l`.
    slots: Vec<Vec<Vec<Entry<T>>>>,
    /// One occupancy bit per slot, one word per level.
    occupied: [u64; LEVELS],
    /// Events within the current level-0 tick (or earlier), exactly ordered.
    ready: BinaryHeap<Reverse<Key<T>>>,
    /// Events beyond the wheel horizon.
    overflow: BinaryHeap<Reverse<Key<T>>>,
    /// The current tick: no stored event has `tick(time) < now_tick`.
    now_tick: u64,
    /// Total stored events.
    len: usize,
    /// Recycled slot vectors, so steady-state operation does not allocate.
    spare: Vec<Vec<Entry<T>>>,
    /// A lower bound on the window base tick of every occupied slot:
    /// `place` lowers it and a scan that finds nothing due sets it to the
    /// exact next base. A scan that does find a slot left it at or below
    /// that slot's base, the clock after the cascade, so the next settle
    /// scans again. A bounded settle whose limit lies below it skips the
    /// scan.
    next_base: u64,
}

fn tick_of(time: SimTime) -> u64 {
    time.as_nanos() >> GRANULARITY_BITS
}

impl<T> Default for TimeWheel<T> {
    fn default() -> Self {
        TimeWheel::new()
    }
}

impl<T> TimeWheel<T> {
    /// Creates an empty wheel with the clock at zero.
    pub fn new() -> Self {
        TimeWheel {
            slots: (0..LEVELS).map(|_| (0..SLOTS).map(|_| Vec::new()).collect()).collect(),
            occupied: [0; LEVELS],
            ready: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            now_tick: 0,
            len: 0,
            spare: Vec::new(),
            next_base: u64::MAX,
        }
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wheel holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of occupied slots per level (popcount of each occupancy word).
    /// A cheap structural gauge for telemetry: how spread out the pending
    /// events are across the hierarchy.
    pub(crate) fn level_occupancy(&self) -> [u32; LEVELS] {
        let mut out = [0u32; LEVELS];
        for (o, word) in out.iter_mut().zip(self.occupied.iter()) {
            *o = word.count_ones();
        }
        out
    }

    /// Schedules an event. `time` must not precede the time of the last
    /// popped event (the engine never schedules into the past). `seq` must be
    /// unique, and simultaneous events pop in `seq` order; it need not
    /// increase with insertion order.
    pub fn push(&mut self, time: SimTime, seq: u64, value: T) {
        self.len += 1;
        let tick = tick_of(time);
        let entry = Entry { time, seq, value };
        if tick <= self.now_tick {
            self.ready.push(Reverse(Key(entry)));
        } else {
            self.place(tick, entry);
        }
    }

    /// Inserts an entry with `tick > self.now_tick` into the proper slot.
    fn place(&mut self, tick: u64, entry: Entry<T>) {
        let delta = tick - self.now_tick;
        if delta >= HORIZON_TICKS {
            self.overflow.push(Reverse(Key(entry)));
            return;
        }
        // The smallest level whose span covers the delta. Level l spans
        // 64^(l+1) ticks and indexes by bits [6l, 6l+6) of the absolute tick,
        // so it is the delta's highest set bit (delta >= 1) divided by 6.
        let level = ((u64::BITS - 1 - delta.leading_zeros()) / LEVEL_BITS) as usize;
        let shift = LEVEL_BITS * level as u32;
        let slot = ((tick >> shift) & SLOT_MASK) as usize;
        self.slots[level][slot].push(entry);
        self.occupied[level] |= 1 << slot;
        // The slot's window base: the scan in `settle` finds exactly this
        // base for it, since the delta bounds its window to the next wrap.
        self.next_base = self.next_base.min((tick >> shift) << shift);
    }

    /// Removes and returns the earliest event by `(time, seq)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.pop_until(SimTime::from_nanos(u64::MAX))
    }

    /// Removes and returns the earliest event if its time is at most `limit`,
    /// or `None`. The wheel's clock never moves past `limit`'s tick, so a
    /// bounded run leaves later events in their slots: events pushed after
    /// it still land in the wheel, not in the ready heap.
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, u64, T)> {
        self.peek_until(limit)?;
        let Reverse(Key(e)) = self.ready.pop()?;
        self.len -= 1;
        Some((e.time, e.seq, e.value))
    }

    /// The key `(time, seq)` of the earliest event if its time is at most
    /// `limit`, or `None`; the event stays queued. It moves the clock like
    /// [`pop_until`](Self::pop_until), never past `limit`'s tick.
    pub(crate) fn peek_until(&mut self, limit: SimTime) -> Option<(SimTime, u64)> {
        self.settle(tick_of(limit));
        let Reverse(Key(e)) = self.ready.peek()?;
        (e.time <= limit).then_some((e.time, e.seq))
    }

    /// Advances the wheel until the globally earliest event sits in `ready`,
    /// the wheel is empty, or reaching the next event would move the clock
    /// past `limit_tick`. This is where cascading happens.
    fn settle(&mut self, limit_tick: u64) {
        loop {
            if self.ready.is_empty() {
                // Pull overflow events that have come within the horizon. If
                // the wheel proper is empty, jump the clock straight to the
                // overflow head so it lands in `ready`.
                while let Some(Reverse(Key(e))) = self.overflow.peek() {
                    let tick = tick_of(e.time);
                    if self.occupied.iter().all(|&w| w == 0) && tick <= limit_tick {
                        self.now_tick = tick;
                    }
                    if tick - self.now_tick < HORIZON_TICKS {
                        let Some(Reverse(Key(e))) = self.overflow.pop() else { unreachable!() };
                        let tick = tick_of(e.time);
                        if tick <= self.now_tick {
                            self.ready.push(Reverse(Key(e)));
                        } else {
                            self.place(tick, e);
                        }
                    } else {
                        break;
                    }
                }
            }
            if !self.ready.is_empty() || self.next_base > limit_tick {
                return;
            }
            // Find the occupied slot with the smallest window-base tick
            // across all levels. Every event in a slot lies within one level
            // span of `now_tick` (enforced at placement and preserved as the
            // clock only moves forward), so a slot's events all belong to the
            // *next* occurrence of its residue — `d` slots ahead of the
            // current position, with `d = 64` meaning the same residue one
            // wrap later. The minimal base across levels is therefore a tight
            // lower bound: cascading that slot either fills `ready` (level 0)
            // or redistributes one level down.
            let mut best: Option<(u64, usize)> = None;
            for level in 0..LEVELS {
                let word = self.occupied[level];
                if word == 0 {
                    continue;
                }
                let shift = LEVEL_BITS * level as u32;
                let cur = ((self.now_tick >> shift) & SLOT_MASK) as u32;
                // Rotate so bit 0 corresponds to the slot one position ahead
                // of `cur`; the first set bit is then `d - 1` for the nearest
                // upcoming slot, where d ∈ [1, 64] counts slots ahead.
                let rotated = word.rotate_right((cur + 1) & (SLOTS as u32 - 1));
                let d = rotated.trailing_zeros() as u64 + 1;
                let pos_base = (self.now_tick >> shift) << shift; // window base of current position
                let step = 1u64 << shift; // ticks per slot at this level
                let base = pos_base + d * step;
                if best.is_none_or(|(b, _)| base < b) {
                    best = Some((base, level));
                }
            }
            let Some((base, _)) = best else {
                self.next_base = u64::MAX;
                return; // wheel empty (overflow handled above)
            };
            if base > limit_tick {
                self.next_base = base;
                return;
            }
            self.now_tick = base;
            // Cascade every level's slot that now contains `now_tick`,
            // skipping slots whose events belong to the next wrap-around of
            // that level; the ready heap re-establishes exact (time, seq)
            // order for events that land at the current tick.
            for l in (0..LEVELS).rev() {
                let shift = LEVEL_BITS * l as u32;
                let s = ((self.now_tick >> shift) & SLOT_MASK) as usize;
                if self.occupied[l] & (1 << s) == 0 {
                    continue;
                }
                // All events in one slot share a window; checking the first
                // one's epoch tells whether this occurrence is ours.
                let first_tick = tick_of(self.slots[l][s][0].time);
                if first_tick >> (shift + LEVEL_BITS) != self.now_tick >> (shift + LEVEL_BITS) {
                    continue;
                }
                let mut drained = std::mem::replace(&mut self.slots[l][s], self.spare.pop().unwrap_or_default());
                self.occupied[l] &= !(1 << s);
                for entry in drained.drain(..) {
                    let tick = tick_of(entry.time);
                    if tick <= self.now_tick {
                        self.ready.push(Reverse(Key(entry)));
                    } else {
                        self.place(tick, entry);
                    }
                }
                self.spare.push(std::mem::replace(&mut self.slots[l][s], drained));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha20Rng;

    fn drain(w: &mut TimeWheel<usize>) -> Vec<(u64, u64, usize)> {
        let mut out = Vec::new();
        while let Some((t, s, v)) = w.pop() {
            out.push((t.as_nanos(), s, v));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimeWheel::new();
        w.push(SimTime::from_nanos(50), 0, 0);
        w.push(SimTime::from_nanos(10), 1, 1);
        w.push(SimTime::from_nanos(10), 2, 2);
        w.push(SimTime::from_nanos(5), 3, 3);
        let order: Vec<usize> = drain(&mut w).into_iter().map(|(_, _, v)| v).collect();
        assert_eq!(order, vec![3, 1, 2, 0]);
    }

    #[test]
    fn same_tick_different_nanos_ordered_exactly() {
        // Both times land in the same 4096 ns level-0 tick; the ready heap
        // must still order them by nanosecond.
        let mut w = TimeWheel::new();
        w.push(SimTime::from_nanos(4000), 0, 0);
        w.push(SimTime::from_nanos(3999), 1, 1);
        let order: Vec<usize> = drain(&mut w).into_iter().map(|(_, _, v)| v).collect();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn cross_level_ordering_is_exact() {
        let mut w = TimeWheel::new();
        // Deep level-2 event first (far future), then a level-0 event.
        let far = 300 * 4096 * 64; // well into level 2 territory
        w.push(SimTime::from_nanos(far), 0, 0);
        w.push(SimTime::from_nanos(100), 1, 1);
        assert_eq!(w.pop().unwrap().2, 1);
        assert_eq!(w.pop().unwrap().2, 0);
        assert!(w.pop().is_none());
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut w = TimeWheel::new();
        let mut rng = ChaCha20Rng::seed_from_u64(7);
        let mut seq = 0u64;
        let mut last = (0u64, 0u64);
        let mut popped = 0usize;
        let mut pushed = 0usize;
        for _ in 0..2000 {
            if rng.gen_bool(0.6) || w.is_empty() {
                // never schedule into the past relative to the last pop
                let bits = rng.gen_range(1u32..28);
                let t = last.0 + rng.gen_range(0u64..1u64 << bits);
                w.push(SimTime::from_nanos(t), seq, 0usize);
                seq += 1;
                pushed += 1;
            } else {
                let (t, s, _) = w.pop().unwrap();
                popped += 1;
                assert!((t.as_nanos(), s) > last || popped == 1, "order violated: {:?} after {:?}", (t, s), last);
                last = (t.as_nanos(), s);
            }
        }
        popped += drain(&mut w).len();
        assert_eq!(popped, pushed);
    }

    #[test]
    fn overflow_events_beyond_horizon_still_ordered() {
        let mut w = TimeWheel::new();
        let horizon_ns = (1u64 << 36) * 4096;
        w.push(SimTime::from_nanos(horizon_ns * 2), 0, 0);
        w.push(SimTime::from_nanos(horizon_ns + 5), 1, 1);
        w.push(SimTime::from_nanos(42), 2, 2);
        let order: Vec<usize> = drain(&mut w).into_iter().map(|(_, _, v)| v).collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn pop_until_stops_at_the_limit() {
        let mut w = TimeWheel::new();
        for (i, t) in [900u64, 100, 5000, 77].into_iter().enumerate() {
            w.push(SimTime::from_nanos(t), i as u64, i);
        }
        assert_eq!(w.pop_until(SimTime::from_nanos(76)).map(|e| e.2), None);
        assert_eq!(w.pop_until(SimTime::from_nanos(100)).map(|e| e.2), Some(3));
        assert_eq!(w.pop_until(SimTime::from_nanos(100)).map(|e| e.2), Some(1));
        assert_eq!(w.pop_until(SimTime::from_nanos(899)).map(|e| e.2), None);
        assert_eq!(drain(&mut w).into_iter().map(|(_, _, v)| v).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn pop_until_never_cascades_past_the_limit() {
        // A far event must stay in its slot across a bounded pop, so an event
        // pushed afterwards lands in the wheel rather than the ready heap.
        let mut w = TimeWheel::new();
        w.push(SimTime::from_secs(30), 0, 0);
        assert!(w.pop_until(SimTime::from_secs(1)).is_none());
        w.push(SimTime::from_nanos(1_005_000_000), 1, 1);
        assert_eq!(w.level_occupancy().iter().sum::<u32>(), 2);
        assert_eq!(drain(&mut w).into_iter().map(|(_, _, v)| v).collect::<Vec<_>>(), vec![1, 0]);
    }

    #[test]
    fn a_push_below_the_cached_bound_still_pops_first() {
        // A bounded peek that finds nothing due caches the base of the 30 s
        // timer's slot (about 29.1 s). A push at 1.5 s lands in a slot below
        // that base and must lower the bound, or the next bounded peek
        // skips the scan and misses it.
        let mut w = TimeWheel::new();
        w.push(SimTime::from_secs(30), 0, 0);
        assert_eq!(w.peek_until(SimTime::from_secs(1)), None);
        let early = SimTime::from_nanos(1_500_000_000);
        w.push(early, 1, 1);
        assert_eq!(w.peek_until(SimTime::from_secs(1)), None, "still nothing due by 1 s");
        assert_eq!(w.peek_until(SimTime::from_secs(2)), Some((early, 1)));
        assert_eq!(w.pop_until(SimTime::from_secs(2)).map(|e| e.2), Some(1));
        assert_eq!(w.peek_until(SimTime::from_secs(2)), None);
        assert_eq!(drain(&mut w).into_iter().map(|(_, _, v)| v).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn level_occupancy_counts_slots() {
        let mut w = TimeWheel::new();
        assert_eq!(w.level_occupancy(), [0; LEVELS]);
        w.push(SimTime::from_nanos(5000), 0, 0); // level 0 territory
        w.push(SimTime::from_nanos(300 * 4096 * 64), 1, 1); // level 2 territory
        let occ = w.level_occupancy();
        assert_eq!(occ.iter().sum::<u32>(), 2);
        drain(&mut w);
        assert_eq!(w.level_occupancy(), [0; LEVELS]);
    }

    #[test]
    fn len_tracks_contents() {
        let mut w = TimeWheel::new();
        assert!(w.is_empty());
        w.push(SimTime::from_nanos(1), 0, 0);
        w.push(SimTime::from_nanos(1 << 30), 1, 1);
        assert_eq!(w.len(), 2);
        w.pop();
        assert_eq!(w.len(), 1);
        w.pop();
        assert!(w.is_empty());
    }

    #[test]
    fn matches_binary_heap_on_random_batches() {
        // Deterministic mirror of the proptest in tests/proptests.rs.
        let mut rng = ChaCha20Rng::seed_from_u64(99);
        for _ in 0..50 {
            let n = rng.gen_range(1..200);
            let mut wheel = TimeWheel::new();
            let mut heap = BinaryHeap::new();
            for seq in 0..n {
                let bits = rng.gen_range(1u32..40);
                let t = rng.gen_range(0u64..1u64 << bits);
                wheel.push(SimTime::from_nanos(t), seq, seq);
                heap.push(Reverse((SimTime::from_nanos(t), seq)));
            }
            let mut expect = Vec::new();
            while let Some(Reverse(k)) = heap.pop() {
                expect.push(k);
            }
            let got: Vec<(SimTime, u64)> = std::iter::from_fn(|| wheel.pop().map(|(t, s, _)| (t, s))).collect();
            assert_eq!(got, expect);
        }
    }
}
