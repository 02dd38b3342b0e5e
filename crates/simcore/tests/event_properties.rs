//! Property tests for the deterministic event calendar.
//!
//! The calendar's contract (DESIGN.md "Determinism & invariants"): pops are
//! totally ordered by `(time, insertion order)` — time never goes backwards,
//! and events scheduled for the same instant fire in FIFO order. Both the
//! batch and the interleaved schedule/pop paths must uphold it.

use std::collections::BTreeSet;

use flexpass_simcore::event::EventQueue;
use flexpass_simcore::rng::SimRng;
use flexpass_simcore::time::{Time, TimeDelta};
use flexpass_simcore::wheel::{HeapCalendar, TimingWheel, SLOT_BITS};
use proptest::prelude::*;

/// One step of the randomized differential tape, decoded from a raw
/// `(kind, arg)` pair. Times are offsets from the last popped instant so
/// schedules never land in the past; an offset of 0 produces same-instant
/// ties, exercising the FIFO tie-break.
#[derive(Debug, Clone)]
enum Op {
    Pop,
    Schedule(u64),
    ScheduleCancelable(u64),
    /// Cancel the pending handle at (index % live handles), if any.
    Cancel(usize),
}

fn decode(kind: u8, arg: u64) -> Op {
    match kind % 7 {
        0 | 1 => Op::Pop,
        // Mix short offsets (dense ties, same-slot collisions) with long
        // ones that overflow the wheel's near-future horizon.
        2 | 3 => Op::Schedule(arg % 2_000_000),
        4 | 5 => Op::ScheduleCancelable(arg % 2_000_000),
        _ => Op::Cancel(arg as usize),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pop_order_is_total_monotone_and_fifo_stable(
        times in prop::collection::vec(0u64..50, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Time::from_nanos(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_nanos(), i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time went backwards: {:?}", w);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "tie broke out of FIFO order: {:?}", w);
            }
        }
        // The pop order is exactly a stable sort of insertions by time.
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expect.sort_by_key(|&(t, _)| t);
        prop_assert_eq!(popped, expect);
    }

    #[test]
    fn interleaved_schedule_pop_stays_monotone(
        ops in prop::collection::vec(0u64..20, 1..200),
    ) {
        // op == 0 pops; op > 0 schedules at (last popped time + op - 1), so
        // schedules never land in the past and ties (op == 1) are common.
        let mut q = EventQueue::new();
        let mut last = 0u64;
        let mut n = 0usize;
        for &op in &ops {
            if op == 0 {
                if let Some((t, _)) = q.pop() {
                    prop_assert!(t.as_nanos() >= last);
                    last = t.as_nanos();
                }
            } else {
                q.schedule(Time::from_nanos(last + op - 1), n);
                n += 1;
            }
        }
        while let Some((t, _)) = q.pop() {
            prop_assert!(t.as_nanos() >= last);
            last = t.as_nanos();
        }
    }

    /// Differential check: the timing wheel and the legacy binary heap are
    /// observably the same calendar. Any interleaving of schedules, pops and
    /// cancellations — including same-instant ties and cancel-then-pop races
    /// (lazy deletion) — must yield the identical `(time, payload)` pop
    /// sequence from both backends.
    #[test]
    fn wheel_and_heap_pop_identically_under_cancellation(
        tape in prop::collection::vec((0u8..=255, 0u64..u64::MAX), 1..300),
    ) {
        let ops: Vec<Op> = tape.into_iter().map(|(k, a)| decode(k, a)).collect();
        let mut wheel: EventQueue<u64> = EventQueue::new_wheel_backed();
        let mut heap: EventQueue<u64> = EventQueue::new_heap_backed();
        // Live cancellable handles, tracked per queue by insertion order so
        // cancellation targets the "same" logical timer in both (handles
        // themselves are slab-allocated and need not be compared).
        let mut wheel_handles = Vec::new();
        let mut heap_handles = Vec::new();
        let mut next_payload = 0u64;
        let mut last_time = Time::ZERO;
        for op in ops {
            match op {
                Op::Pop => {
                    let a = wheel.pop();
                    let b = heap.pop();
                    prop_assert_eq!(a, b, "backends diverged on pop");
                    if let Some((t, _)) = a {
                        prop_assert!(t >= last_time, "time went backwards");
                        last_time = t;
                    }
                }
                Op::Schedule(dt) => {
                    let at = last_time + flexpass_simcore::time::TimeDelta::nanos(dt);
                    wheel.schedule(at, next_payload);
                    heap.schedule(at, next_payload);
                    next_payload += 1;
                }
                Op::ScheduleCancelable(dt) => {
                    let at = last_time + flexpass_simcore::time::TimeDelta::nanos(dt);
                    wheel_handles.push(wheel.schedule_cancelable(at, next_payload));
                    heap_handles.push(heap.schedule_cancelable(at, next_payload));
                    next_payload += 1;
                }
                Op::Cancel(i) => {
                    if !wheel_handles.is_empty() {
                        let i = i % wheel_handles.len();
                        let a = wheel.cancel(wheel_handles.swap_remove(i));
                        let b = heap.cancel(heap_handles.swap_remove(i));
                        prop_assert_eq!(a, b, "backends disagreed on cancel result");
                    }
                }
            }
            // NB: `len()` is deliberately not compared — it counts dead
            // entries awaiting lazy discard, and the wheel reaps those at
            // cascade time while the heap carries them to the head.
        }
        // Drain both to the end: the full residual sequence must match.
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b, "backends diverged on final drain");
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(wheel.popped(), heap.popped());
    }
}

/// Pops the earliest entry of both raw backends, asserting they agree.
fn pop_both(
    wheel: &mut TimingWheel<u64>,
    heap: &mut HeapCalendar<u64>,
    dead: &BTreeSet<u64>,
) -> Option<(Time, u64)> {
    let a = wheel.pop_reap(&mut |p| dead.contains(p));
    let b = heap.pop();
    assert_eq!(a, b, "backends diverged on pop");
    a.map(|(t, s, _)| (t, s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dense level-0 slots: one slot holds `dense` entries (1 to 1,500),
    /// spread over `instants` distinct times so same-instant ties are
    /// common. While that slot drains, entries are scheduled into it both
    /// behind and ahead of its head, and entries already promoted into the
    /// current slot are cancelled (the wheel must still deliver them,
    /// exactly like the heap). Pops, `len` and `peek` must agree after
    /// every step.
    #[test]
    fn dense_slot_wheel_matches_heap_step_for_step(
        dense in prop::sample::select(vec![1usize, 2, 64, 1_000, 1_500]),
        instants in 1u64..=1 << SLOT_BITS,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SimRng::new(seed);
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut heap: HeapCalendar<u64> = HeapCalendar::new();
        // Pending entries by (time, seq), mirrored from both backends.
        let mut live: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut dead: BTreeSet<u64> = BTreeSet::new();
        let mut seq = 0u64;
        let mut push = |wheel: &mut TimingWheel<u64>,
                        heap: &mut HeapCalendar<u64>,
                        live: &mut BTreeSet<(u64, u64)>,
                        dead: &BTreeSet<u64>,
                        t: u64| {
            wheel.push_reap(Time::from_nanos(t), seq, seq, &mut |p| dead.contains(p));
            heap.push(Time::from_nanos(t), seq, seq);
            live.insert((t, seq));
            seq += 1;
        };

        // A sparse earlier slot, the dense slot (pushed in random order),
        // and a scattering of later and far-future entries.
        let dense_slot = 5u64 << SLOT_BITS;
        for _ in 0..3 {
            let t = (3 << SLOT_BITS) + rng.next_below(1 << SLOT_BITS);
            push(&mut wheel, &mut heap, &mut live, &dead, t);
        }
        for _ in 0..dense {
            let t = dense_slot + rng.next_below(instants);
            push(&mut wheel, &mut heap, &mut live, &dead, t);
        }
        for _ in 0..20 {
            let t = dense_slot + (1 << SLOT_BITS) + rng.next_below(1 << 24);
            push(&mut wheel, &mut heap, &mut live, &dead, t);
        }
        prop_assert_eq!(wheel.len(), heap.len());

        let mut last = 0u64;
        let mut steps = 0usize;
        while !heap.is_empty() {
            steps += 1;
            prop_assert!(steps < 20 * (dense + 100), "tape did not drain");
            let head = heap.peek().map(|(t, _, _)| t.as_nanos()).unwrap_or(last);
            let slot_start = head >> SLOT_BITS << SLOT_BITS;
            // Scheduling stops after a while so the tape always drains.
            let schedule = steps < 2 * dense + 50;
            match rng.next_below(10) {
                // Behind the head, within its slot: pops before the head.
                0 if schedule => {
                    let lo = last.max(slot_start);
                    let t = if lo < head { lo + rng.next_below(head - lo) } else { head };
                    push(&mut wheel, &mut heap, &mut live, &dead, t);
                }
                // At or ahead of the head, within its slot.
                1 if schedule => {
                    let span = slot_start + (1 << SLOT_BITS) - head;
                    let t = head + rng.next_below(span);
                    push(&mut wheel, &mut heap, &mut live, &dead, t);
                }
                // A later slot or level.
                2 if schedule => {
                    let t = head + rng.next_below(1 << 20);
                    push(&mut wheel, &mut heap, &mut live, &dead, t);
                }
                // Cancel an entry that is already in the current slot
                // (its slot is not after the head's, so it was promoted).
                3 => {
                    let promoted: Vec<u64> = live
                        .range(..(slot_start + (1 << SLOT_BITS), 0))
                        .map(|&(_, s)| s)
                        .collect();
                    if !promoted.is_empty() {
                        dead.insert(promoted[rng.index(promoted.len())]);
                    }
                }
                _ => {
                    if let Some((t, s)) = pop_both(&mut wheel, &mut heap, &dead) {
                        prop_assert!(t.as_nanos() >= last, "time went backwards");
                        last = t.as_nanos();
                        live.remove(&(last, s));
                    }
                }
            }
            prop_assert_eq!(wheel.len(), heap.len(), "len diverged");
            prop_assert_eq!(
                wheel.peek().map(|(t, s, _)| (t, s)),
                heap.peek().map(|(t, s, _)| (t, s)),
                "peek diverged"
            );
        }
        prop_assert!(wheel.is_empty());
        prop_assert!(pop_both(&mut wheel, &mut heap, &dead).is_none());
    }

    /// The same dense-slot schedule through the simulator-facing
    /// [`EventQueue`], wheel- against heap-backed, with cancels of any
    /// pending timer, promoted or not: pop sequences and the next event
    /// time must agree throughout.
    #[test]
    fn dense_slot_event_queues_agree_under_cancellation(
        dense in prop::sample::select(vec![2usize, 64, 1_200]),
        instants in 1u64..64,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SimRng::new(seed);
        let mut wheel: EventQueue<u64> = EventQueue::new_wheel_backed();
        let mut heap: EventQueue<u64> = EventQueue::new_heap_backed();
        let mut wheel_handles = Vec::new();
        let mut heap_handles = Vec::new();
        let base = 9u64 << SLOT_BITS;
        for i in 0..dense as u64 {
            let at = Time::from_nanos(base + rng.next_below(instants));
            wheel_handles.push(wheel.schedule_cancelable(at, i));
            heap_handles.push(heap.schedule_cancelable(at, i));
        }
        let mut payload = dense as u64;
        let mut last = Time::ZERO;
        for _ in 0..3 * dense {
            match rng.next_below(4) {
                0 if !wheel_handles.is_empty() => {
                    let i = rng.index(wheel_handles.len());
                    let a = wheel.cancel(wheel_handles.swap_remove(i));
                    let b = heap.cancel(heap_handles.swap_remove(i));
                    prop_assert_eq!(a, b, "backends disagreed on cancel result");
                }
                1 => {
                    let at = last + TimeDelta::nanos(rng.next_below(1 << SLOT_BITS));
                    wheel_handles.push(wheel.schedule_cancelable(at, payload));
                    heap_handles.push(heap.schedule_cancelable(at, payload));
                    payload += 1;
                }
                _ => {
                    let a = wheel.pop();
                    let b = heap.pop();
                    prop_assert_eq!(a, b, "backends diverged on pop");
                    if let Some((t, _)) = a {
                        last = t;
                    }
                }
            }
            prop_assert_eq!(wheel.peek_time(), heap.peek_time(), "next event time diverged");
        }
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b, "backends diverged on final drain");
            if a.is_none() {
                break;
            }
        }
    }
}
