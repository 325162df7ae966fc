//! Hierarchical timer wheel: the event queue behind [`crate::Sim`].
//!
//! The engine schedules millions of events per virtual hour — message
//! deliveries tens of milliseconds out, RPC timeouts seconds out, churn
//! sessions days out. A single global `BinaryHeap` pays `O(log n)` with `n`
//! spanning *all* of those horizons on every hot-path push. The wheel splits
//! the horizon into three bands so near-future traffic (the overwhelming
//! majority) is O(1) to insert:
//!
//! * **near wheel** — 4096 slots × ~2.1 ms (`2^21` ns): one insert links
//!   the event's node at the head of the target slot's list;
//! * **coarse wheel** — 4096 slots × ~8.6 s (`2^33` ns, horizon ≈ 9.8 h):
//!   protocol timers (reprovide batches, connection-manager ticks) land
//!   here and cascade into the near wheel when their slot comes up;
//! * **far heap** — a `BinaryHeap` of keys for everything beyond the coarse
//!   horizon (churn schedules, multi-day workload commands). Far events
//!   pay two heap ops total and are pulled into the wheels in batches as
//!   the coarse cursor advances.
//!
//! Storage is one slab. Every queued payload lives in exactly one
//! `Node` of `slab` (208 bytes for the ecosystem's `Ev<WireMsg, _>`)
//! from `push` to `pop`; the wheels are arrays of `u32` list heads threaded
//! through `Node::next`, and the far heap and the staging buffer hold
//! 24-byte `(at, seq, idx)` `Key`s. A cascade, a far pull, a sort or a
//! heap sift therefore moves indices, never payloads, and popped nodes go
//! to a LIFO free list so the next push rewrites the node that was just
//! read. The queue's footprint is its peak *population* — the event
//! stream is bursty (a Bitswap broadcast lands ~190 deliveries in a couple
//! of slots), and per-slot buffers would each keep their own high-water
//! mark for the rest of the run.
//!
//! Determinism contract (identical to the `BinaryHeap` scheduler this
//! replaces): events pop in strictly ascending `(time, seq)` order, where
//! `seq` is the caller-supplied insertion sequence number — FIFO within a
//! tick. `(time, seq)` is unique, so neither a slot list's order nor a slab
//! index ever decides a tie. Same-slot ordering is enforced by a small
//! *staging* buffer holding only the slot currently being drained: the
//! slot's list is walked into it, the keys are sorted descending, and the
//! next event pops from the tail.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const NEAR_BITS: u32 = 12;
const NEAR_SLOTS: usize = 1 << NEAR_BITS;
/// Near slot width: 2^21 ns ≈ 2.1 ms.
const NEAR_SHIFT: u32 = 21;
const COARSE_BITS: u32 = 12;
const COARSE_SLOTS: usize = 1 << COARSE_BITS;
/// Coarse slot width: 2^33 ns ≈ 8.6 s (one full near-wheel span).
const COARSE_SHIFT: u32 = NEAR_SHIFT + NEAR_BITS;

const NEAR_MASK: u64 = (NEAR_SLOTS - 1) as u64;
const COARSE_MASK: u64 = (COARSE_SLOTS - 1) as u64;
const WORDS: usize = NEAR_SLOTS / 64;

/// End-of-list marker for slot lists and the free list.
const NIL: u32 = u32::MAX;

/// One slab cell: a queued event, or a free cell (`item` is `None`) linked
/// into the free list. `next` threads whichever list the node is on.
#[derive(Clone)]
struct Node<T> {
    at: u64,
    seq: u64,
    next: u32,
    item: Option<T>,
}

/// What the far heap and staging order: the event's `(at, seq)` and the
/// slab index of its node. `(at, seq)` is unique, so `idx` never decides.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: u64,
    seq: u64,
    idx: u32,
}

/// Fixed-size occupancy bitmap over 4096 slots.
#[derive(Clone)]
struct Bitmap([u64; WORDS]);

impl Bitmap {
    fn new() -> Bitmap {
        Bitmap([0; WORDS])
    }

    fn set(&mut self, idx: usize) {
        self.0[idx / 64] |= 1u64 << (idx % 64);
    }

    fn clear(&mut self, idx: usize) {
        self.0[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// First set index in `[from, 4096)`, if any.
    fn next_set_from(&self, from: usize) -> Option<usize> {
        if from >= NEAR_SLOTS {
            return None;
        }
        let mut word = from / 64;
        let mut bits = self.0[word] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= WORDS {
                return None;
            }
            bits = self.0[word];
        }
    }
}

/// A three-band hierarchical timer wheel holding items of type `T`.
///
/// Pops in ascending `(SimTime, seq)` order. Insertion accepts any time,
/// including times at or before the last popped event — such events simply
/// sort into the staging buffer and pop next, exactly as they would from a
/// global `BinaryHeap`.
///
/// Cloning (for `T: Clone`) snapshots the full queue — the slab with its
/// free list, every list head and the staging frontier — so a cloned wheel
/// pops the identical event sequence (the engine-fork machinery relies on
/// this).
#[derive(Clone)]
pub struct TimerWheel<T> {
    /// Every queued payload, once; free cells are chained from `free`.
    slab: Vec<Node<T>>,
    /// Head of the LIFO free list through `Node::next`.
    free: u32,
    /// Near-wheel list heads (`NIL` = empty slot).
    near: Box<[u32; NEAR_SLOTS]>,
    near_bits: Bitmap,
    /// Coarse-wheel list heads.
    coarse: Box<[u32; COARSE_SLOTS]>,
    coarse_bits: Bitmap,
    far: BinaryHeap<Reverse<Key>>,
    /// Keys of the slot currently being drained (plus any "late" inserts),
    /// sorted descending by `(at, seq)` so the next event pops from the
    /// tail without moving the rest.
    staging: Vec<Key>,
    /// Absolute near slot of the staging frontier: staging holds every
    /// queued event whose near slot is `<= cur_near`.
    cur_near: u64,
    /// Absolute coarse slot the near wheel currently expands.
    cur_coarse: u64,
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel anchored at time zero.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            slab: Vec::new(),
            free: NIL,
            near: Box::new([NIL; NEAR_SLOTS]),
            near_bits: Bitmap::new(),
            coarse: Box::new([NIL; COARSE_SLOTS]),
            coarse_bits: Bitmap::new(),
            far: BinaryHeap::new(),
            staging: Vec::new(),
            cur_near: 0,
            cur_coarse: 0,
            len: 0,
        }
    }

    /// Queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes the queue holds, counted at capacity: the slab, both
    /// head arrays, staging and the far heap. Tracks the peak population,
    /// not the number of slots ever touched.
    pub fn queue_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.slab.capacity() * size_of::<Node<T>>()
            + (NEAR_SLOTS + COARSE_SLOTS) * size_of::<u32>()
            + (self.staging.capacity() + self.far.capacity()) * size_of::<Key>()) as u64
    }

    /// Queue `item` at `at` with tie-break sequence `seq`. `(at, seq)` pairs
    /// must be unique (the engine's global sequence counter guarantees it).
    #[inline]
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        self.len += 1;
        let key = self.alloc(at.0, seq, item);
        let ns = key.at >> NEAR_SHIFT;
        if ns <= self.cur_near {
            // A "late" event, at or before the staging frontier. Staging
            // holds one slot's keys, so the shift is short; the hot path
            // (future slots) never comes here.
            let pos = self.staging.partition_point(|x| *x > key);
            self.staging.insert(pos, key);
        } else if (key.at >> COARSE_SHIFT) - self.cur_coarse < COARSE_SLOTS as u64 {
            self.link(key, ns);
        } else {
            self.far.push(Reverse(key));
        }
    }

    /// Store a payload in a free slab cell (the most recently freed one,
    /// else a new one) and return its key.
    #[inline]
    fn alloc(&mut self, at: u64, seq: u64, item: T) -> Key {
        let node = Node {
            at,
            seq,
            next: NIL,
            item: Some(item),
        };
        let idx = if self.free != NIL {
            let idx = self.free;
            let cell = &mut self.slab[idx as usize];
            self.free = cell.next;
            *cell = node;
            idx
        } else {
            let idx = self.slab.len();
            assert!(idx < NIL as usize, "the wheel indexes events with 32 bits");
            self.slab.push(node);
            idx as u32
        };
        Key { at, seq, idx }
    }

    /// Link a node whose near slot `ns` is past the staging frontier and
    /// whose coarse slot is within `[cur_coarse, cur_coarse + COARSE_SLOTS)`
    /// at the head of its near or coarse slot list.
    #[inline]
    fn link(&mut self, key: Key, ns: u64) {
        let cs = key.at >> COARSE_SHIFT;
        let (head, bits, slot) = if cs == self.cur_coarse {
            let slot = (ns & NEAR_MASK) as usize;
            (&mut self.near[slot], &mut self.near_bits, slot)
        } else {
            debug_assert!(cs - self.cur_coarse < COARSE_SLOTS as u64);
            let slot = (cs & COARSE_MASK) as usize;
            (&mut self.coarse[slot], &mut self.coarse_bits, slot)
        };
        self.slab[key.idx as usize].next = *head;
        *head = key.idx;
        bits.set(slot);
    }

    /// Remove and return the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.refill_staging();
        self.take_head()
    }

    /// Remove and return the earliest event if it is due at or before
    /// `until_incl` and, when `horizon_excl` is given, strictly before it.
    /// One cursor advance serves both the check and the pop.
    #[inline]
    pub fn pop_before(
        &mut self,
        until_incl: SimTime,
        horizon_excl: Option<u64>,
    ) -> Option<(SimTime, u64, T)> {
        self.refill_staging();
        let at = self.staging.last()?.at;
        if at > until_incl.0 || horizon_excl.is_some_and(|h| at >= h) {
            return None;
        }
        self.take_head()
    }

    /// Time of the earliest event without removing it.
    ///
    /// Takes `&mut self` because peeking may advance the internal cursors
    /// past empty slots; this never changes the pop order.
    pub fn peek_at(&mut self) -> Option<SimTime> {
        self.refill_staging();
        self.staging.last().map(|k| SimTime(k.at))
    }

    /// Pop the staging tail: take its payload out of the slab and put the
    /// cell on the free list.
    #[inline]
    fn take_head(&mut self) -> Option<(SimTime, u64, T)> {
        let key = self.staging.pop()?;
        let cell = &mut self.slab[key.idx as usize];
        let item = cell.item.take().expect("staged key names a live node");
        cell.next = self.free;
        self.free = key.idx;
        self.len -= 1;
        Some((SimTime(key.at), key.seq, item))
    }

    /// Route a node whose coarse slot is within `[cur_coarse, cur_coarse +
    /// COARSE_SLOTS)` into staging / near / coarse. Staging appends are
    /// raw; callers re-sort once after the bulk move.
    fn route_within_window(&mut self, key: Key) {
        let ns = key.at >> NEAR_SHIFT;
        if ns <= self.cur_near {
            self.staging.push(key);
        } else {
            self.link(key, ns);
        }
    }

    /// Route every node of the detached slot list starting at `idx`.
    fn route_list(&mut self, mut idx: u32) {
        while idx != NIL {
            let node = &self.slab[idx as usize];
            let key = Key {
                at: node.at,
                seq: node.seq,
                idx,
            };
            idx = node.next;
            self.route_within_window(key);
        }
    }

    /// Restore the descending `(at, seq)` staging order after a bulk
    /// append (slot drain or coarse cascade).
    fn sort_staging(&mut self) {
        self.staging.sort_unstable_by_key(|&k| Reverse(k));
    }

    /// Move far-heap events whose coarse slot entered the wheel window.
    fn pull_far(&mut self) {
        while let Some(&Reverse(top)) = self.far.peek() {
            let cs = top.at >> COARSE_SHIFT;
            if cs >= self.cur_coarse + COARSE_SLOTS as u64 {
                break;
            }
            self.far.pop();
            self.route_within_window(top);
        }
    }

    /// Next occupied coarse slot strictly after `cur_coarse`, in absolute
    /// slot order (the head array wraps; the window spans exactly one
    /// revolution, so each head maps to a unique absolute slot).
    fn next_coarse_slot(&self) -> Option<u64> {
        let base = (self.cur_coarse & COARSE_MASK) as usize;
        if let Some(idx) = self.coarse_bits.next_set_from(base + 1) {
            return Some(self.cur_coarse + (idx - base) as u64);
        }
        let idx = self.coarse_bits.next_set_from(0)?;
        if idx > base {
            return None; // already covered by the first scan
        }
        Some(self.cur_coarse + (COARSE_SLOTS - base + idx) as u64)
    }

    /// Advance cursors until staging holds the earliest queued event.
    #[inline]
    fn refill_staging(&mut self) {
        if self.staging.is_empty() {
            self.advance();
        }
    }

    /// The cold half of [`Self::refill_staging`]: staging ran dry.
    fn advance(&mut self) {
        while self.staging.is_empty() {
            // 1. Next occupied near slot within the current coarse span.
            //    The span is 4096 aligned slots, so head index == offset.
            let from = ((self.cur_near & NEAR_MASK) + 1) as usize;
            if let Some(slot) = self.near_bits.next_set_from(from) {
                self.cur_near = (self.cur_coarse << NEAR_BITS) | slot as u64;
                self.near_bits.clear(slot);
                // Every node of the slot is at the new frontier: walk the
                // list into staging and sort the keys.
                let head = std::mem::replace(&mut self.near[slot], NIL);
                self.route_list(head);
                self.sort_staging();
                continue;
            }
            // 2. Current coarse span exhausted: cascade the next one.
            if let Some(cs) = self.next_coarse_slot() {
                self.cur_coarse = cs;
                self.cur_near = cs << NEAR_BITS;
                let slot = (cs & COARSE_MASK) as usize;
                self.coarse_bits.clear(slot);
                let head = std::mem::replace(&mut self.coarse[slot], NIL);
                self.route_list(head);
                self.pull_far();
                self.sort_staging();
                continue;
            }
            // 3. Both wheels empty: jump straight to the far horizon.
            let Some(&Reverse(top)) = self.far.peek() else {
                return;
            };
            let cs = top.at >> COARSE_SHIFT;
            self.cur_coarse = cs;
            self.cur_near = cs << NEAR_BITS;
            self.pull_far();
            self.sort_staging();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    fn drain(w: &mut TimerWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((at, seq, item)) = w.pop() {
            out.push((at.0, seq, item));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.push(SimTime(50), 0, 1);
        w.push(SimTime(10), 1, 2);
        w.push(SimTime(10), 2, 3);
        w.push(SimTime(10_000_000_000), 3, 4); // 10 s → coarse wheel
        w.push(SimTime(0), 4, 5);
        let order: Vec<u32> = drain(&mut w).iter().map(|&(_, _, i)| i).collect();
        assert_eq!(order, vec![5, 2, 3, 1, 4]);
    }

    #[test]
    fn spans_all_three_bands() {
        let mut w = TimerWheel::new();
        w.push(SimTime::ZERO + Dur::from_millis(1), 0, 0); // near
        w.push(SimTime::ZERO + Dur::from_secs(30), 1, 1); // coarse
        w.push(SimTime::ZERO + Dur::from_hours(24), 2, 2); // far
        w.push(SimTime::ZERO + Dur::from_hours(200), 3, 3); // far, next window
        assert_eq!(w.len(), 4);
        let order: Vec<u32> = drain(&mut w).iter().map(|&(_, _, i)| i).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert!(w.is_empty());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut w = TimerWheel::new();
        w.push(SimTime(1_000), 0, 0);
        w.push(SimTime(2_000_000_000), 1, 1);
        assert_eq!(w.pop().map(|(_, _, i)| i), Some(0));
        // Push at a time before the already-queued far event, after a pop.
        w.push(SimTime(5_000), 2, 2);
        // Push at the exact time of the last popped event ("now").
        w.push(SimTime(1_000), 3, 3);
        let order: Vec<u32> = drain(&mut w).iter().map(|&(_, _, i)| i).collect();
        assert_eq!(order, vec![3, 2, 1]);
    }

    #[test]
    fn peek_does_not_disturb_order() {
        let mut w = TimerWheel::new();
        w.push(SimTime::ZERO + Dur::from_hours(30), 0, 0);
        assert_eq!(w.peek_at(), Some(SimTime::ZERO + Dur::from_hours(30)));
        // A later insert before the peeked event must still pop first.
        w.push(SimTime::ZERO + Dur::from_hours(29), 1, 1);
        let order: Vec<u32> = drain(&mut w).iter().map(|&(_, _, i)| i).collect();
        assert_eq!(order, vec![1, 0]);
        assert_eq!(w.peek_at(), None);
    }

    #[test]
    fn dense_same_slot_burst_is_fifo() {
        let mut w = TimerWheel::new();
        for seq in 0..1000u64 {
            w.push(SimTime(500), seq, seq as u32);
        }
        let popped = drain(&mut w);
        for (i, &(at, seq, _)) in popped.iter().enumerate() {
            assert_eq!(at, 500);
            assert_eq!(seq, i as u64);
        }
    }

    #[test]
    fn matches_reference_heap_on_mixed_horizons() {
        // Deterministic pseudo-random schedule covering every band and
        // wrap-around, checked against a plain sorted reference.
        let mut w = TimerWheel::new();
        let mut reference: Vec<(u64, u64, u32)> = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut popped = Vec::new();
        for round in 0..2000u32 {
            // Mixed magnitudes: ns jitter up to ~70 hours out.
            let delay = next() % (1u64 << (10 + (next() % 38) as u32));
            let at = now + delay;
            w.push(SimTime(at), seq, round);
            reference.push((at, seq, round));
            seq += 1;
            if next() % 3 == 0 {
                if let Some((t, s, i)) = w.pop() {
                    now = t.0;
                    popped.push((t.0, s, i));
                }
            }
        }
        popped.extend(drain(&mut w));
        // The wheel never reorders (at, seq) pairs relative to a global sort
        // *given* that pops interleave with pushes; verify monotonicity and
        // completeness instead of exact equality with an offline sort.
        assert_eq!(popped.len(), reference.len());
        for pair in popped.windows(2) {
            assert!(
                (pair[0].0, pair[0].1) < (pair[1].0, pair[1].1),
                "out of order: {pair:?}"
            );
        }
        let mut a: Vec<_> = popped.iter().map(|&(_, s, _)| s).collect();
        a.sort_unstable();
        let b: Vec<u64> = (0..seq).collect();
        assert_eq!(a, b, "all events popped exactly once");
    }

    #[test]
    fn retained_bytes_follow_peak_population_not_slots_touched() {
        // The engine's arrival pattern: bursts of 1–256 events that land
        // within one slot width of each other, in every band, drained back
        // to a steady population. 1 M events sweep every near and coarse
        // slot many times over; what the wheel keeps afterwards must be a
        // function of the ≤ 1 024 events alive at once, not of how many
        // slots ever held a burst.
        type Payload = [u64; 8];
        const POPULATION: usize = 1024;
        let mut w: TimerWheel<Payload> = TimerWheel::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut now, mut seq, mut peak) = (0u64, 0u64, 0usize);
        let mut last = None;
        while seq < 1_000_000 {
            let burst = 1 + next() % 256;
            let base = match next() % 8 {
                0 => 0,                                            // late, at `now`
                1..=4 => next() % (1 << COARSE_SHIFT),             // near
                5 | 6 => (1 << COARSE_SHIFT) + next() % (1 << 45), // coarse
                _ => (1 << 46) + next() % (1 << 47),               // far
            };
            for _ in 0..burst {
                let jitter = if base == 0 {
                    0
                } else {
                    next() % (1 << NEAR_SHIFT)
                };
                w.push(SimTime(now + base + jitter), seq, [seq; 8]);
                seq += 1;
            }
            peak = peak.max(w.len());
            while w.len() > POPULATION - 256 {
                let (at, s, item) = w.pop().expect("non-empty");
                assert!(Some((at.0, s)) > last, "out of order at seq {s}");
                assert_eq!(item, [s; 8], "payload follows its key");
                last = Some((at.0, s));
                now = at.0;
            }
        }
        assert!(peak <= POPULATION);
        // Worst case: the slab at twice the peak (`Vec` doubling) plus
        // staging and the far heap each at twice the peak in 24-byte keys.
        let heads = ((NEAR_SLOTS + COARSE_SLOTS) * std::mem::size_of::<u32>()) as u64;
        let bound = (4 * peak * std::mem::size_of::<Node<Payload>>()) as u64 + heads;
        assert!(
            w.queue_bytes() <= bound,
            "{} B retained for a peak of {peak} events (bound {bound} B)",
            w.queue_bytes()
        );
    }
}
