//! Hierarchical timing-wheel calendar backend.
//!
//! A hashed hierarchical timing wheel in the style of Varghese & Lauck's
//! scheme (and the Linux / tokio timer wheels), specialised for a
//! discrete-event simulator where *pops are globally ordered*: the consumer
//! always takes the earliest `(time, seq)` entry, never "all timers in this
//! tick". That requirement shapes the design:
//!
//! * **Levels.** [`LEVELS`] wheel levels of [`SLOTS_PER_LEVEL`] slots each.
//!   A level-0 slot spans `2^SLOT_BITS` ns (1.024 µs); each higher level is
//!   64× coarser, so the wheel covers `2^(SLOT_BITS + 6·LEVELS)` ns
//!   (≈ 17 s) past the cursor. Anything farther goes to a sorted
//!   *overflow* heap and is re-distributed when the cursor reaches it.
//! * **Current slot: sorted run plus side heap.** Entries at or before the
//!   cursor's level-0 slot are the only candidates for the next pop. When
//!   a level-0 bucket is promoted, it is sorted once by `(time, seq)` into
//!   `run`, which pops from its tail. Entries scheduled into the current
//!   slot after promotion go to a small binary heap, `cur`. The global
//!   minimum is the earlier of `run`'s tail and `cur`'s head: every entry
//!   outside the two sits in a strictly later level-0 slot, hence at a
//!   strictly later time. Same-instant entries always share a slot, so
//!   FIFO tie-breaks reduce to the `seq` ordering there — identical to a
//!   plain binary heap.
//! * **Eager normalisation.** After every `push`/`pop` the wheel restores
//!   the invariant *`run` or `cur` is non-empty whenever `len > 0`* by
//!   advancing the cursor to the next occupied slot (cascading coarser
//!   levels down as needed). This keeps `peek` a `&self` O(1) operation,
//!   matching the `BinaryHeap` contract the simulator was built against.
//!
//! Scheduling earlier than the cursor's slot is legal (the cursor can run
//! ahead of the last *popped* time after normalisation); such entries land
//! in `cur` and are ordered by the heap like any other.
//!
//! Occupancy is tracked as one `u64` bitmask per level, so "find the next
//! occupied slot" is a masked `trailing_zeros`, and an idle wheel costs
//! nothing to skip across arbitrarily large gaps.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;

/// log2 of the level-0 slot width in nanoseconds (1024 ns per slot).
pub const SLOT_BITS: u32 = 10;
/// log2 of the slot count per level.
pub const LEVEL_BITS: u32 = 6;
/// Slots per wheel level.
pub const SLOTS_PER_LEVEL: usize = 1 << LEVEL_BITS;
/// Number of wheel levels before the sorted overflow heap takes over.
pub const LEVELS: usize = 4;
/// Slot-number bits covered by the wheel proper (beyond it: overflow).
const WHEEL_BITS: u32 = LEVEL_BITS * LEVELS as u32;

/// A calendar entry: `(time, seq)` orders pops, `payload` rides along.
struct CalEntry<T> {
    time: Time,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for CalEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for CalEntry<T> {}

impl<T> PartialOrd for CalEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for CalEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The reference calendar backend: one `BinaryHeap` over `(time, seq)`.
///
/// This is the pre-wheel implementation kept as a differential oracle: the
/// proptests in `tests/event_properties.rs` and the `calendar-heap` cargo
/// feature drive whole runs through it to prove the wheel pops a
/// byte-identical sequence.
pub struct HeapCalendar<T> {
    heap: BinaryHeap<CalEntry<T>>,
}

impl<T> Default for HeapCalendar<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> HeapCalendar<T> {
    /// Creates an empty calendar.
    pub fn new() -> Self {
        HeapCalendar {
            heap: BinaryHeap::new(),
        }
    }

    /// Creates an empty calendar with room for `n` entries.
    pub fn with_capacity(n: usize) -> Self {
        HeapCalendar {
            heap: BinaryHeap::with_capacity(n),
        }
    }

    /// Inserts an entry. `seq` must be unique (the caller's insertion
    /// counter); ties on `time` pop in `seq` order.
    pub fn push(&mut self, time: Time, seq: u64, payload: T) {
        self.heap.push(CalEntry { time, seq, payload });
    }

    /// Removes and returns the earliest `(time, seq)` entry.
    pub fn pop(&mut self) -> Option<(Time, u64, T)> {
        self.heap.pop().map(|e| (e.time, e.seq, e.payload))
    }

    /// The earliest entry without removing it.
    pub fn peek(&self) -> Option<(Time, u64, &T)> {
        self.heap.peek().map(|e| (e.time, e.seq, &e.payload))
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Hierarchical timing wheel with a sorted overflow level.
///
/// Same `push`/`pop`/`peek` contract as [`HeapCalendar`] — pops are
/// globally ordered by `(time, seq)` — but near-future scheduling is O(1)
/// and pops touch only the current slot (a sorted run or a small heap)
/// plus an occasional cascade, instead of sifting a single calendar-wide
/// heap.
pub struct TimingWheel<T> {
    /// `LEVELS × SLOTS_PER_LEVEL` buckets, indexed `lvl * 64 + slot`.
    slots: Vec<Vec<CalEntry<T>>>,
    /// One occupancy bit per slot, per level.
    occ: [u64; LEVELS],
    /// The promoted level-0 bucket, sorted so the earliest entry is last
    /// (`CalEntry`'s order is reversed).
    run: Vec<CalEntry<T>>,
    /// Entries placed at or before the cursor's level-0 slot after its
    /// promotion, earliest-first.
    cur: BinaryHeap<CalEntry<T>>,
    /// Entries beyond the wheel horizon, earliest-first.
    overflow: BinaryHeap<CalEntry<T>>,
    /// Level-0 slot number of the cursor (`time >> SLOT_BITS` units).
    cur_slot: u64,
    len: usize,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimingWheel<T> {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty wheel sized for roughly `n` concurrent entries.
    ///
    /// Only the current-slot side heap is pre-sized, to at most
    /// `SLOTS_PER_LEVEL` entries. The sorted run starts empty: promotion
    /// moves a bucket's buffer into it and hands the spent run's buffer
    /// back to the slot. Wheel buckets grow on demand and stay allocated
    /// once touched, so after warm-up no buffer is allocated.
    pub fn with_capacity(n: usize) -> Self {
        TimingWheel {
            slots: (0..LEVELS * SLOTS_PER_LEVEL).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            run: Vec::new(),
            cur: BinaryHeap::with_capacity(n.min(SLOTS_PER_LEVEL)),
            overflow: BinaryHeap::new(),
            cur_slot: 0,
            len: 0,
        }
    }

    /// Inserts an entry. `seq` must be unique and increasing per insertion;
    /// ties on `time` pop in `seq` order (FIFO).
    pub fn push(&mut self, time: Time, seq: u64, payload: T) {
        self.push_reap(time, seq, payload, &mut |_| false);
    }

    /// [`push`](Self::push) with a liveness filter: any entry for which
    /// `dead` returns `true` is silently dropped whenever a cascade or
    /// promotion touches it, instead of being carried toward delivery.
    /// Dropping is unobservable in the pop sequence (the caller would have
    /// discarded the entry at the head anyway), but on cancellation-heavy
    /// schedules it keeps dead timers from cascading through every level
    /// and sifting the current-slot heap.
    pub fn push_reap(
        &mut self,
        time: Time,
        seq: u64,
        payload: T,
        dead: &mut dyn FnMut(&T) -> bool,
    ) {
        self.place(CalEntry { time, seq, payload });
        self.len += 1;
        if self.run.is_empty() && self.cur.is_empty() {
            self.advance(dead);
        }
    }

    /// Removes and returns the earliest `(time, seq)` entry.
    pub fn pop(&mut self) -> Option<(Time, u64, T)> {
        self.pop_reap(&mut |_| false)
    }

    /// [`pop`](Self::pop) with a liveness filter (see
    /// [`push_reap`](Self::push_reap)). The returned entry itself is *not*
    /// filtered — entries already promoted into the current-slot heap are
    /// delivered and discarded by the caller — only the cascade work this
    /// pop triggers.
    pub fn pop_reap(&mut self, dead: &mut dyn FnMut(&T) -> bool) -> Option<(Time, u64, T)> {
        // `CalEntry` orders earliest as greatest.
        let from_run = match (self.run.last(), self.cur.peek()) {
            (Some(r), Some(c)) => r > c,
            (run, _) => run.is_some(),
        };
        let e = if from_run {
            self.run.pop()
        } else {
            self.cur.pop()
        }?;
        self.len -= 1;
        if self.run.is_empty() && self.cur.is_empty() && self.len > 0 {
            self.advance(dead);
        }
        Some((e.time, e.seq, e.payload))
    }

    /// The earliest entry without removing it.
    ///
    /// O(1): normalisation guarantees the global minimum is the earlier of
    /// the sorted run's tail and the side heap's head.
    pub fn peek(&self) -> Option<(Time, u64, &T)> {
        let e = match (self.run.last(), self.cur.peek()) {
            (Some(r), Some(c)) => Some(if r > c { r } else { c }),
            (r, c) => r.or(c),
        };
        e.map(|e| (e.time, e.seq, &e.payload))
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Routes one entry to the current-slot side heap, a wheel level, or the
    /// overflow heap, relative to the current cursor. Does not touch `len`.
    fn place(&mut self, e: CalEntry<T>) {
        let s0 = e.time.as_nanos() >> SLOT_BITS;
        if s0 <= self.cur_slot {
            self.cur.push(e);
            return;
        }
        // Highest bit where the slot numbers differ picks the level: the
        // entry shares all coarser slot digits with the cursor, so it lands
        // in the cursor's current block at that level.
        // lint:allow(panic-path): divisor is the non-zero LEVEL_BITS const.
        let lvl = ((63 - (s0 ^ self.cur_slot).leading_zeros()) / LEVEL_BITS) as usize;
        if lvl >= LEVELS {
            self.overflow.push(e);
        } else {
            let idx = ((s0 >> (LEVEL_BITS * lvl as u32)) & 63) as usize;
            // lint:allow(panic-path): lvl < LEVELS checked above; idx is
            // masked to < 64 = SLOTS_PER_LEVEL.
            self.occ[lvl] |= 1u64 << idx;
            // lint:allow(panic-path): same bounds as the occ update.
            self.slots[lvl * SLOTS_PER_LEVEL + idx].push(e);
        }
    }

    /// Lowest occupied slot index strictly after `rel` in `mask`, if any.
    fn next_occupied(mask: u64, rel: u32) -> Option<u32> {
        if rel >= 63 {
            return None;
        }
        let m = mask & (!0u64 << (rel + 1));
        (m != 0).then(|| m.trailing_zeros())
    }

    /// Advances the cursor until the current slot (`run` or `cur`) is
    /// non-empty, cascading coarser levels (and the overflow heap) down as
    /// needed. Entries flagged by `dead` are dropped at the first touch
    /// instead of being re-placed or promoted.
    ///
    /// Precondition: `run` and `cur` are empty (no-op when the wheel is
    /// empty).
    fn advance(&mut self, dead: &mut dyn FnMut(&T) -> bool) {
        loop {
            if !self.run.is_empty() || !self.cur.is_empty() || self.len == 0 {
                return;
            }
            // Next occupied level-0 slot in the cursor's block: promote it.
            let rel0 = (self.cur_slot & 63) as u32;
            // lint:allow(panic-path): occ is [u64; LEVELS] with LEVELS > 0;
            // index 0 is a constant within bounds.
            if let Some(idx) = Self::next_occupied(self.occ[0], rel0) {
                self.cur_slot = (self.cur_slot & !63) + u64::from(idx);
                // lint:allow(panic-path): constant index 0 < LEVELS.
                self.occ[0] &= !(1u64 << idx);
                // lint:allow(panic-path): idx is a bit position in a u64
                // mask, so < 64 = SLOTS_PER_LEVEL.
                let mut bucket = std::mem::take(&mut self.slots[idx as usize]);
                let before = bucket.len();
                bucket.retain(|e| !dead(&e.payload));
                self.len -= before - bucket.len();
                // `run` and `cur` are empty here. Sorting the bucket once
                // makes each of its pops a tail read instead of a sift
                // through a slot-sized heap; `(time, seq)` is unique, so
                // the unstable sort is deterministic. The spent run buffer
                // is recycled into the promoted slot: without the swap-back
                // every promotion dropped one grown buffer and left a
                // zero-capacity slot behind, so each slot re-grew through
                // the same doubling sequence on every wheel rotation (the
                // dominant steady-state allocation source).
                bucket.sort_unstable();
                let spent = std::mem::replace(&mut self.run, bucket);
                // lint:allow(panic-path): same idx bound as the take above.
                self.slots[idx as usize] = spent;
                // If the whole bucket was dead, keep advancing.
                continue;
            }
            // Level 0 exhausted: cascade the earliest occupied slot of the
            // lowest occupied level. Every entry there precedes everything
            // at coarser levels, because blocks are 64-aligned.
            let mut cascaded = false;
            for lvl in 1..LEVELS {
                let shift = LEVEL_BITS * lvl as u32;
                let cursor_l = self.cur_slot >> shift;
                let rel = (cursor_l & 63) as u32;
                // lint:allow(panic-path): lvl ranges over 1..LEVELS, within
                // the [u64; LEVELS] occupancy array.
                if let Some(idx) = Self::next_occupied(self.occ[lvl], rel) {
                    // lint:allow(panic-path): lvl < LEVELS as above.
                    self.occ[lvl] &= !(1u64 << idx);
                    let slot_l = (cursor_l & !63) + u64::from(idx);
                    // Jump to the start of the cascaded slot: its entries
                    // re-place into strictly finer levels (or `cur`).
                    self.cur_slot = slot_l << shift;
                    // lint:allow(panic-path): lvl < LEVELS and idx < 64 (a
                    // u64 bit position), so the flat slot index is in range.
                    let flat = lvl * SLOTS_PER_LEVEL + idx as usize;
                    // Drain in place and hand the emptied buffer back to the
                    // slot: consuming the Vec here dropped its capacity, so
                    // the slot re-grew from zero on every later cascade.
                    // Re-placement cannot target this slot again (entries of
                    // a cascaded slot land at strictly finer levels, or in
                    // `cur`), so the restore never clobbers a re-place.
                    // lint:allow(panic-path): flat bounds proven above.
                    let mut bucket = std::mem::take(&mut self.slots[flat]);
                    for e in bucket.drain(..) {
                        if dead(&e.payload) {
                            self.len -= 1;
                        } else {
                            self.place(e);
                        }
                    }
                    // lint:allow(panic-path): flat bounds proven above.
                    self.slots[flat] = bucket;
                    cascaded = true;
                    break;
                }
            }
            if cascaded {
                continue;
            }
            // Wheel fully drained: pull the next top-level block out of the
            // overflow heap (all in-wheel levels are empty here).
            match self.overflow.peek() {
                None => return, // only dead entries remained and were dropped
                Some(head) => {
                    // Jump straight to the earliest entry's slot so it
                    // lands in `cur` when re-placed.
                    self.cur_slot = head.time.as_nanos() >> SLOT_BITS;
                }
            }
            let block = self.cur_slot >> WHEEL_BITS;
            while let Some(head) = self.overflow.peek() {
                if (head.time.as_nanos() >> SLOT_BITS) >> WHEEL_BITS != block {
                    break;
                }
                let e = self.overflow.pop().expect("peeked entry exists");
                if dead(&e.payload) {
                    self.len -= 1;
                } else {
                    self.place(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(w: &mut TimingWheel<T>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| w.pop().map(|(t, s, _)| (t.as_nanos(), s))).collect()
    }

    #[test]
    fn single_slot_fifo() {
        let mut w = TimingWheel::new();
        for i in 0..10u64 {
            w.push(Time::from_nanos(500), i, ());
        }
        let order = drain(&mut w);
        assert_eq!(order, (0..10).map(|i| (500, i)).collect::<Vec<_>>());
    }

    #[test]
    fn cross_level_ordering() {
        // One entry per level plus overflow, pushed in reverse order.
        let times = [
            1u64 << 40,            // overflow (beyond 2^34 ns horizon)
            1 << (SLOT_BITS + 20), // level 3
            1 << (SLOT_BITS + 14), // level 2
            1 << (SLOT_BITS + 8),  // level 1
            1 << SLOT_BITS,        // level 0
            5,                     // current slot
        ];
        let mut w = TimingWheel::new();
        for (i, &t) in times.iter().enumerate() {
            w.push(Time::from_nanos(t), i as u64, ());
        }
        let order = drain(&mut w);
        let mut want: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u64))
            .collect();
        want.sort_unstable();
        assert_eq!(order, want);
    }

    #[test]
    fn push_behind_cursor_still_ordered() {
        // Normalisation runs the cursor ahead to slot(10_000); a later push
        // at t=200 (an earlier slot) must still pop first.
        let mut w = TimingWheel::new();
        w.push(Time::from_nanos(10_000), 0, ());
        w.push(Time::from_nanos(200), 1, ());
        assert_eq!(drain(&mut w), vec![(200, 1), (10_000, 0)]);
    }

    #[test]
    fn interleaved_push_pop_matches_heap() {
        // Deterministic pseudo-random interleaving, wheel vs. reference heap.
        let mut w = TimingWheel::new();
        let mut h = HeapCalendar::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = |range: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % range
        };
        let mut seq = 0u64;
        let mut last = 0u64;
        for _ in 0..5_000 {
            if next(3) < 2 {
                // Mix of near-future, far-future and same-instant times.
                let dt = match next(4) {
                    0 => 0,
                    1 => next(1 << 12),
                    2 => next(1 << 20),
                    _ => next(1 << 36),
                };
                let t = Time::from_nanos(last + dt);
                w.push(t, seq, ());
                h.push(t, seq, ());
                seq += 1;
            } else {
                let a = w.pop().map(|(t, s, _)| (t, s));
                let b = h.pop().map(|(t, s, _)| (t, s));
                assert_eq!(a, b);
                if let Some((t, _)) = a {
                    last = t.as_nanos();
                }
            }
            assert_eq!(w.len(), h.len());
            assert_eq!(
                w.peek().map(|(t, s, _)| (t, s)),
                h.peek().map(|(t, s, _)| (t, s))
            );
        }
        loop {
            let a = w.pop().map(|(t, s, _)| (t, s));
            let b = h.pop().map(|(t, s, _)| (t, s));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn promoted_bucket_sorts_into_run_later_pushes_join_side_heap() {
        let mut w = TimingWheel::new();
        // An entry in slot 0 holds the cursor back while slot 2 fills.
        w.push(Time::ZERO, 0, ());
        let dense_at = 2u64 << SLOT_BITS;
        let n = 100u64;
        for i in 1..=n {
            // Pushed latest-first, so the run must really be sorted.
            w.push(Time::from_nanos(dense_at + 500 - i), i, ());
        }
        // One tie on the dense slot's earliest instant, after it in seq.
        w.push(Time::from_nanos(dense_at + 500 - n), n + 1, ());
        // A lone entry in a later slot.
        w.push(Time::from_nanos(3 << SLOT_BITS), n + 2, ());
        assert_eq!(w.pop().map(|(t, s, _)| (t.as_nanos(), s)), Some((0, 0)));
        assert_eq!((w.run.len(), w.cur.len()), (n as usize + 1, 0));

        // Pushes into the current slot go to the side heap; one behind the
        // run's head pops before it, one ahead pops in time order.
        w.push(Time::from_nanos(dense_at), n + 3, ());
        w.push(Time::from_nanos(dense_at + 499), n + 4, ());
        assert_eq!(w.cur.len(), 2);
        let mut want = vec![(dense_at, n + 3)];
        want.extend((1..=n).rev().map(|i| (dense_at + 500 - i, i)));
        want.insert(2, (dense_at + 500 - n, n + 1));
        want.push((dense_at + 499, n + 4));
        for &expect in &want {
            assert_eq!(w.peek().map(|(t, s, _)| (t.as_nanos(), s)), Some(expect));
            assert_eq!(w.pop().map(|(t, s, _)| (t.as_nanos(), s)), Some(expect));
        }
        // A one-entry bucket is a run too.
        assert_eq!((w.run.len(), w.cur.len()), (1, 0));
        assert_eq!(drain(&mut w), vec![(3 << SLOT_BITS, n + 2)]);
    }

    #[test]
    fn far_future_overflow_roundtrip() {
        let mut w = TimingWheel::new();
        w.push(Time::from_nanos(u64::MAX - 1), 0, "far");
        w.push(Time::from_nanos(3), 1, "near");
        assert_eq!(w.pop().map(|(_, _, p)| p), Some("near"));
        assert_eq!(w.pop().map(|(_, _, p)| p), Some("far"));
        assert!(w.pop().is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn empty_wheel_behaviour() {
        let mut w: TimingWheel<()> = TimingWheel::new();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert!(w.peek().is_none());
        assert!(w.pop().is_none());
    }
}
