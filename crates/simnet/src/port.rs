//! Egress port scheduling: strict priority levels, Deficit Weighted Round
//! Robin within a level, and token-bucket shaping.
//!
//! The FlexPass switch configuration (§4.1) is expressed as:
//!
//! * Q0 (credits): strict priority level 0, token-bucket shaped to
//!   `w_q × CREDIT_RATE_FULL_FRACTION` of line rate, tiny static buffer.
//! * Q1 (FlexPass data) and Q2 (legacy): priority level 1, DWRR with weights
//!   `w_q` and `1 − w_q`.
//!
//! The scheduler is work conserving: while the shaped credit queue waits for
//! tokens, lower-priority data queues are served; if *only* shaped traffic is
//! pending, the port reports the next token-eligibility instant so the
//! simulator can schedule a wake-up.

use flexpass_simcore::time::{Rate, Time, TimeDelta};
use flexpass_simcore::units::WireBytes;

use crate::arena::{PacketArena, PacketId};
use crate::audit;
use crate::consts::DATA_WIRE;
use crate::queue::{DropReason, Enqueue, PacketQueue, QueueConfig};

/// Scheduling attributes of one queue within a port.
#[derive(Clone, Copy, Debug)]
pub struct QueueSched {
    /// Strict priority level; 0 is served first.
    pub level: u8,
    /// DWRR weight among queues of the same level (relative, not normalized).
    pub weight: f64,
    /// Optional token-bucket shaper (rate, burst). Only supported on
    /// queues that are alone at their priority level (the credit queue).
    pub shaper: Option<(Rate, WireBytes)>,
}

impl QueueSched {
    /// A strict-priority queue at `level` with no shaping.
    pub fn strict(level: u8) -> Self {
        QueueSched {
            level,
            weight: 1.0,
            shaper: None,
        }
    }

    /// A DWRR queue at `level` with the given weight.
    pub fn weighted(level: u8, weight: f64) -> Self {
        assert!(weight > 0.0, "DWRR weight must be positive");
        QueueSched {
            level,
            weight,
            shaper: None,
        }
    }

    /// Adds a token-bucket shaper.
    pub fn shaped(mut self, rate: Rate, burst: WireBytes) -> Self {
        self.shaper = Some((rate, burst));
        self
    }
}

/// Full configuration of a port: line rate plus per-queue policy + schedule.
#[derive(Clone, Debug)]
pub struct PortConfig {
    /// Line rate.
    pub rate: Rate,
    /// Per-queue configuration, in queue-index order.
    pub queues: Vec<(QueueConfig, QueueSched)>,
}

impl PortConfig {
    /// A single plain FIFO at line rate (simple reference ports).
    pub fn single_fifo(rate: Rate) -> Self {
        PortConfig {
            rate,
            queues: vec![(QueueConfig::plain(), QueueSched::strict(0))],
        }
    }
}

/// What the scheduler decided on a service opportunity.
#[derive(Debug)]
pub enum Decision {
    /// Transmit this packet (already dequeued; ownership of the id passes
    /// to the caller, who releases it at delivery or drop).
    Send(PacketId),
    /// Nothing is eligible now, but a shaped queue becomes eligible at the
    /// given instant: wake the port then.
    WaitUntil(Time),
    /// No backlog at all.
    Idle,
}

/// Token-bucket units: one token is a "bit-nanosecond", the credit earned
/// by 1 bps over 1 ns. A byte costs `8 × 1e9` tokens.
const TOKENS_PER_BYTE: u128 = 8 * 1_000_000_000;

/// Token-bucket shaper with exact integer accounting.
///
/// Refilling over `dt` nanoseconds at `rate` bps adds `dt × rate` tokens;
/// transmitting `b` bytes spends `b ×` [`TOKENS_PER_BYTE`]. Keeping tokens
/// in bit-nanoseconds makes the bucket drift-free (no float rounding), so
/// `eligible_at` can compute the exact wake-up instant with one ceiling
/// division and repeated refill/spend cycles conserve credit bit-for-bit.
#[derive(Debug)]
struct Shaper {
    rate: Rate,
    burst: u128,
    tokens: u128,
    last: Time,
    audit_id: audit::ComponentId,
}

impl Shaper {
    fn new(rate: Rate, burst: WireBytes) -> Self {
        let burst = u128::from(burst.get()) * TOKENS_PER_BYTE;
        Shaper {
            rate,
            burst,
            tokens: burst,
            last: Time::ZERO,
            audit_id: audit::new_component_id(),
        }
    }

    /// Tokens needed to transmit `bytes`.
    fn need(bytes: WireBytes) -> u128 {
        u128::from(bytes.get()) * TOKENS_PER_BYTE
    }

    fn refill(&mut self, now: Time) {
        let dt = u128::from(now.saturating_since(self.last).as_nanos());
        self.tokens = (self.tokens + dt * u128::from(self.rate.as_bps())).min(self.burst);
        self.last = now;
        audit::shaper_tokens(self.audit_id, self.tokens, self.burst);
    }

    /// Consumes `need` tokens; caller must have checked availability.
    fn spend(&mut self, need: u128) {
        debug_assert!(self.tokens >= need, "shaper overspend");
        self.tokens -= need;
        audit::shaper_tokens(self.audit_id, self.tokens, self.burst);
    }

    fn eligible_at(&self, now: Time, need: u128) -> Time {
        if self.tokens >= need {
            return now;
        }
        if self.rate.as_bps() == 0 {
            return Time::MAX;
        }
        let deficit = need - self.tokens;
        let ns = deficit.div_ceil(u128::from(self.rate.as_bps()));
        now.saturating_add(TimeDelta::nanos(u64::try_from(ns).unwrap_or(u64::MAX)))
    }
}

#[derive(Debug)]
struct Level {
    /// Queue indices at this level, in configuration order.
    members: Vec<usize>,
    /// Round-robin pointer into `members`.
    pos: usize,
    /// Whether the queue under the pointer still needs its visit quantum.
    fresh: bool,
}

impl Level {
    /// Queue index under the round-robin pointer.
    fn current(&self) -> usize {
        *self
            .members
            .get(self.pos)
            .expect("pos stays within members")
    }

    /// Rotates the pointer to the next member and marks it fresh.
    fn advance(&mut self) {
        self.pos += 1;
        if self.pos >= self.members.len() {
            self.pos = 0;
        }
        self.fresh = true;
    }
}

/// One queue of a port together with all of its scheduler state. Keeping
/// the pieces in a single struct (instead of parallel `Vec`s indexed by
/// queue id) means one bounds check per service decision and no way for
/// the arrays to fall out of sync.
#[derive(Debug)]
struct QState {
    queue: PacketQueue,
    sched: QueueSched,
    shaper: Option<Shaper>,
    /// DWRR deficit counter, in wire bytes.
    deficit: f64,
    /// DWRR per-visit quantum, in wire bytes.
    quantum: f64,
    /// Index of this queue's strict level in `Port::levels`.
    level: usize,
    /// Whether the queue is uncapped and so draws on the switch's shared
    /// buffer (`cap_bytes == WireBytes::MAX`).
    shared: bool,
}

/// Per-port transmit counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct PortCounters {
    /// Packets transmitted.
    pub tx_pkts: u64,
    /// Wire bytes transmitted.
    pub tx_bytes: WireBytes,
}

/// An egress port: a set of queues plus the scheduler state, attached to a
/// simplex link towards `peer`.
#[derive(Debug)]
pub struct Port {
    /// Line rate.
    pub rate: Rate,
    /// Peer node this port transmits to (set during topology wiring).
    pub peer: usize,
    /// Propagation delay of the attached link.
    pub prop: TimeDelta,
    qs: Vec<QState>,
    levels: Vec<Level>,
    /// Bytes held by the uncapped (shared-buffer) queues.
    shared_bytes: WireBytes,
    /// End of the in-flight serialization, if transmitting.
    pub busy_until: Option<Time>,
    /// Earliest already-scheduled idle wake-up (dedup for shaper waits).
    pub pending_wake: Option<Time>,
    counters: PortCounters,
}

impl Port {
    /// Builds a port from its configuration. `peer`/`prop` are filled in by
    /// the topology wiring.
    pub fn new(cfg: &PortConfig) -> Self {
        assert!(!cfg.queues.is_empty(), "port needs at least one queue");
        let mut qs: Vec<QState> = cfg
            .queues
            .iter()
            .map(|&(qc, sched)| QState {
                queue: PacketQueue::new(qc),
                sched,
                shaper: sched.shaper.map(|(r, b)| Shaper::new(r, b)),
                deficit: 0.0,
                quantum: 0.0,
                level: 0,
                shared: qc.cap_bytes == WireBytes::MAX,
            })
            .collect();

        // Group queues into strict levels, ascending.
        let mut level_ids: Vec<u8> = qs.iter().map(|q| q.sched.level).collect();
        level_ids.sort_unstable();
        level_ids.dedup();
        let levels: Vec<Level> = level_ids
            .iter()
            .map(|&l| Level {
                members: qs
                    .iter()
                    .enumerate()
                    .filter(|(_, q)| q.sched.level == l)
                    .map(|(i, _)| i)
                    .collect(),
                pos: 0,
                fresh: true,
            })
            .collect();
        for (li, level) in levels.iter().enumerate() {
            for &i in &level.members {
                qs.get_mut(i).expect("level members index queues").level = li;
            }
        }

        // Shapers only on single-queue levels (covers every paper config).
        for level in &levels {
            if level.members.len() > 1 {
                for &i in &level.members {
                    let q = qs.get(i).expect("level members index queues");
                    assert!(
                        q.sched.shaper.is_none(),
                        "shaped queues must be alone at their priority level"
                    );
                }
            }
        }

        // DWRR quantum: proportional to weight, scaled so the largest weight
        // in a level gets one MTU per round.
        for level in &levels {
            let wmax = level
                .members
                .iter()
                .filter_map(|&i| qs.get(i))
                .map(|q| q.sched.weight)
                .fold(0.0_f64, f64::max);
            for &i in &level.members {
                let q = qs.get_mut(i).expect("level members index queues");
                // lint:allow(panic-path): f64 ratio; wmax >= weight > 0
                // (weights are asserted positive in QueueSched::weighted).
                q.quantum = (q.sched.weight / wmax * DATA_WIRE.as_f64()).max(1.0);
            }
        }

        Port {
            rate: cfg.rate,
            peer: usize::MAX,
            prop: TimeDelta::ZERO,
            qs,
            levels,
            shared_bytes: WireBytes::ZERO,
            busy_until: None,
            pending_wake: None,
            counters: PortCounters::default(),
        }
    }

    /// Number of queues.
    pub fn num_queues(&self) -> usize {
        self.qs.len()
    }

    /// Immutable access to a queue (metrics / admission checks).
    pub fn queue(&self, idx: usize) -> &PacketQueue {
        &self
            .qs
            .get(idx)
            .expect("queue index within num_queues")
            .queue
    }

    /// Sum of bytes across all queues.
    pub fn backlog_bytes(&self) -> WireBytes {
        self.qs.iter().map(|q| q.queue.bytes()).sum()
    }

    /// Bytes held by the uncapped queues, i.e. those that draw on a
    /// switch's shared buffer. O(1): kept up to date by
    /// [`enqueue`](Self::enqueue) and the scheduler's dequeue.
    pub fn shared_bytes(&self) -> WireBytes {
        self.shared_bytes
    }

    /// True if any queue holds packets.
    pub fn has_backlog(&self) -> bool {
        self.qs.iter().any(|q| !q.queue.is_empty())
    }

    /// Transmit counters.
    pub fn counters(&self) -> PortCounters {
        self.counters
    }

    /// Scheduling attributes of queue `idx`.
    pub fn sched(&self, idx: usize) -> &QueueSched {
        &self
            .qs
            .get(idx)
            .expect("queue index within num_queues")
            .sched
    }

    /// Offers the packet behind `id` to queue `qidx` applying that
    /// queue's own policies. Shared-buffer admission must have been
    /// checked by the caller. On `Err` the caller keeps the id.
    pub fn enqueue(
        &mut self,
        arena: &mut PacketArena,
        qidx: usize,
        id: PacketId,
    ) -> Result<(), DropReason> {
        let q = self
            .qs
            .get_mut(qidx)
            .expect("queue index within num_queues");
        match q.queue.offer(arena, id) {
            Enqueue::Admitted => {
                if q.shared {
                    self.shared_bytes += arena.get(id).expect("admitted id is live").wire;
                }
                Ok(())
            }
            Enqueue::Dropped(r) => Err(r),
        }
    }

    /// Serialization time of `bytes` at line rate.
    pub fn serialize(&self, bytes: WireBytes) -> TimeDelta {
        self.rate.serialize_wire(bytes)
    }

    /// Runs the scheduler for one service opportunity at `now`.
    pub fn next_packet(&mut self, arena: &mut PacketArena, now: Time) -> Decision {
        let mut wake: Option<Time> = None;
        let mut chosen: Option<usize> = None;
        for level in &mut self.levels {
            if let &[qi] = level.members.as_slice() {
                let q = self.qs.get_mut(qi).expect("level members index queues");
                let Some(head) = q.queue.head_bytes(arena) else {
                    continue; // empty queue
                };
                if let Some(shaper) = q.shaper.as_mut() {
                    shaper.refill(now);
                    let need = Shaper::need(head);
                    if shaper.tokens < need {
                        let at = shaper.eligible_at(now, need);
                        wake = Some(wake.map_or(at, |w: Time| w.min(at)));
                        // Work conserving: fall through to lower levels.
                        continue;
                    }
                    shaper.spend(need);
                }
                chosen = Some(qi);
                break;
            }
            if let Some(qi) = Self::dwrr_pick(level, &mut self.qs, arena) {
                chosen = Some(qi);
                break;
            }
        }
        match chosen {
            Some(qi) => self.serve(arena, qi),
            None => match wake {
                Some(t) => Decision::WaitUntil(t),
                None => Decision::Idle,
            },
        }
    }

    /// DWRR selection among the queues of `level`. Returns the queue to
    /// serve, or `None` if the level has no backlog.
    fn dwrr_pick(level: &mut Level, qs: &mut [QState], arena: &PacketArena) -> Option<usize> {
        // Progress bound: one full cycle adds `quantum` to every backlogged
        // queue's deficit, so the queue whose head needs the fewest
        // additional quanta is served within that many cycles. This is
        // exact for any head size and weight vector (+2 cycles of slack
        // for the rotation in progress), unlike a `MTU / min_quantum`
        // heuristic, which under-counts whenever a head packet is large
        // relative to its own queue's quantum (e.g. a jumbo frame on a
        // tiny-weight queue) and then trips the unreachable!() below.
        let min_rounds = level
            .members
            .iter()
            .filter_map(|&i| qs.get(i))
            .filter_map(|q| {
                let head = q.queue.head_bytes(arena)?.as_f64();
                let need = (head - q.deficit).max(0.0);
                // lint:allow(raw-cast): round count, not a byte quantity
                // lint:allow(panic-path): f64 ratio; quantum >= 1.0 by
                // construction in Port::new.
                Some((need / q.quantum).ceil() as usize)
            })
            .min()?; // no backlog at this level
        let max_passes = level.members.len() * (min_rounds + 2);
        for _ in 0..=max_passes {
            let qi = level.current();
            let q = qs.get_mut(qi).expect("level members index queues");
            let Some(head) = q.queue.head_bytes(arena) else {
                q.deficit = 0.0;
                level.advance();
                continue;
            };
            if level.fresh {
                q.deficit += q.quantum;
                level.fresh = false;
            }
            if q.deficit >= head.as_f64() {
                return Some(qi);
            }
            level.advance();
        }
        // lint:allow(panic-path): progress bound proven above; a trip here
        // is a scheduler logic bug that must abort the run.
        unreachable!("DWRR failed to make progress");
    }

    /// Dequeues from `qi`, updating deficits and counters.
    fn serve(&mut self, arena: &mut PacketArena, qi: usize) -> Decision {
        let q = self
            .qs
            .get_mut(qi)
            .expect("served queue index within num_queues");
        let id = q.queue.dequeue(arena).expect("serve on empty queue");
        let wire = arena.get(id).expect("served id is live").wire;
        let size = wire.as_f64();
        if q.shared {
            self.shared_bytes -= wire;
        }
        // Update DWRR state if this queue shares its level.
        let level = self
            .levels
            .get_mut(q.level)
            .expect("queue belongs to a level");
        if level.members.len() > 1 {
            q.deficit -= size;
            let advance = match q.queue.head_bytes(arena) {
                None => {
                    q.deficit = 0.0;
                    true
                }
                Some(next_head) => q.deficit < next_head.as_f64(),
            };
            if advance {
                level.advance();
            }
        }
        self.counters.tx_pkts += 1;
        self.counters.tx_bytes += wire;
        Decision::Send(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::{CTRL_WIRE, DATA_HEADER_WIRE};
    use crate::packet::{CreditInfo, DataInfo, Packet, Payload, Subflow, TrafficClass};
    use flexpass_simcore::units::Bytes;

    /// Decision with the sent packet copied out of the arena, so tests can
    /// assert on packet contents directly.
    #[derive(Debug)]
    enum Out {
        Send(Packet),
        WaitUntil(Time),
        Idle,
    }

    fn enq(
        port: &mut Port,
        a: &mut PacketArena,
        qidx: usize,
        pkt: Packet,
    ) -> Result<(), DropReason> {
        let id = a.acquire(pkt);
        port.enqueue(a, qidx, id).inspect_err(|_| {
            a.release(id);
        })
    }

    fn next(port: &mut Port, a: &mut PacketArena, now: Time) -> Out {
        match port.next_packet(a, now) {
            Decision::Send(id) => Out::Send(a.release(id).expect("sent id is live")),
            Decision::WaitUntil(t) => Out::WaitUntil(t),
            Decision::Idle => Out::Idle,
        }
    }

    fn data(wire: u64) -> Packet {
        Packet::new(
            1,
            0,
            1,
            WireBytes::new(wire),
            TrafficClass::NewData,
            Payload::Data(DataInfo {
                flow_seq: 0,
                sub_seq: 0,
                sub: Subflow::Only,
                payload: Bytes::new(wire.saturating_sub(DATA_HEADER_WIRE.get())),
                retx: false,
            }),
        )
    }

    fn credit() -> Packet {
        Packet::new(
            2,
            1,
            0,
            CTRL_WIRE,
            TrafficClass::Credit,
            Payload::Credit(CreditInfo { idx: 0 }),
        )
    }

    fn drain(port: &mut Port, a: &mut PacketArena, now: Time, n: usize) -> Vec<Packet> {
        let mut out = Vec::new();
        for _ in 0..n {
            match next(port, a, now) {
                Out::Send(p) => out.push(p),
                _ => break,
            }
        }
        out
    }

    #[test]
    fn strict_priority_order() {
        let cfg = PortConfig {
            rate: Rate::from_gbps(10),
            queues: vec![
                (QueueConfig::plain(), QueueSched::strict(0)),
                (QueueConfig::plain(), QueueSched::strict(1)),
            ],
        };
        let mut port = Port::new(&cfg);
        let mut a = PacketArena::new();
        enq(&mut port, &mut a, 1, data(DATA_WIRE.get())).unwrap();
        enq(&mut port, &mut a, 0, data(100)).unwrap();
        let out = drain(&mut port, &mut a, Time::ZERO, 2);
        assert_eq!(out[0].wire, WireBytes::new(100));
        assert_eq!(out[1].wire, DATA_WIRE);
    }

    #[test]
    fn dwrr_equal_weights_alternate() {
        let cfg = PortConfig {
            rate: Rate::from_gbps(10),
            queues: vec![
                (QueueConfig::plain(), QueueSched::weighted(0, 0.5)),
                (QueueConfig::plain(), QueueSched::weighted(0, 0.5)),
            ],
        };
        let mut port = Port::new(&cfg);
        let mut a = PacketArena::new();
        for _ in 0..10 {
            enq(&mut port, &mut a, 0, data(DATA_WIRE.get())).unwrap();
            enq(&mut port, &mut a, 1, data(538)).unwrap();
        }
        // Byte share, not packet share, must be balanced: queue 1's packets
        // are smaller so it should send ~2.8x as many packets.
        let mut bytes = [0u64; 2];
        let mut served = 0;
        while let Out::Send(p) = next(&mut port, &mut a, Time::ZERO) {
            let qi = if p.wire == DATA_WIRE { 0 } else { 1 };
            bytes[qi] += p.wire.get();
            served += 1;
            if served > 14 {
                break;
            }
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!((0.6..1.7).contains(&ratio), "byte ratio {ratio}");
    }

    #[test]
    fn dwrr_weight_ratio_converges() {
        let cfg = PortConfig {
            rate: Rate::from_gbps(10),
            queues: vec![
                (QueueConfig::plain(), QueueSched::weighted(0, 0.4)),
                (QueueConfig::plain(), QueueSched::weighted(0, 0.6)),
            ],
        };
        // Use distinguishable sizes close enough to be fair by bytes.
        let mut counts = [0u64; 2];
        let mut port = Port::new(&cfg);
        let mut a = PacketArena::new();
        for _ in 0..1000 {
            enq(&mut port, &mut a, 0, data(1537)).unwrap();
            enq(&mut port, &mut a, 1, data(DATA_WIRE.get())).unwrap();
        }
        for _ in 0..1000 {
            match next(&mut port, &mut a, Time::ZERO) {
                Out::Send(p) => {
                    if p.wire == WireBytes::new(1537) {
                        counts[0] += 1
                    } else {
                        counts[1] += 1
                    }
                }
                _ => break,
            }
        }
        let share = counts[0] as f64 / (counts[0] + counts[1]) as f64;
        assert!((share - 0.4).abs() < 0.03, "queue-0 share {share}");
    }

    #[test]
    fn work_conservation_under_shaped_credit_queue() {
        // Credit queue shaped to a tiny rate; data must flow meanwhile.
        let cfg = PortConfig {
            rate: Rate::from_gbps(10),
            queues: vec![
                (
                    QueueConfig::capped(WireBytes::new(1_000)),
                    QueueSched::strict(0).shaped(Rate::from_mbps(1), CTRL_WIRE),
                ),
                (QueueConfig::plain(), QueueSched::strict(1)),
            ],
        };
        let mut port = Port::new(&cfg);
        let mut a = PacketArena::new();
        let t0 = Time::from_millis(1);
        // Exhaust the initial token burst with one credit.
        enq(&mut port, &mut a, 0, credit()).unwrap();
        match next(&mut port, &mut a, t0) {
            Out::Send(p) => assert_eq!(p.wire, CTRL_WIRE),
            other => panic!("expected credit send, got {other:?}"),
        }
        // Now the bucket is empty; a queued credit must wait but data flows.
        enq(&mut port, &mut a, 0, credit()).unwrap();
        enq(&mut port, &mut a, 1, data(DATA_WIRE.get())).unwrap();
        match next(&mut port, &mut a, t0) {
            Out::Send(p) => assert_eq!(p.wire, DATA_WIRE),
            other => panic!("expected data send, got {other:?}"),
        }
        // Only the credit remains: scheduler reports the wake time.
        match next(&mut port, &mut a, t0) {
            Out::WaitUntil(t) => {
                // 84 bytes at 1 Mbps = 672 us.
                let dt = t - t0;
                assert!(
                    (dt.as_micros_f64() - 672.0).abs() < 1.0,
                    "wake after {dt:?}"
                );
                // At the wake time the credit becomes eligible.
                match next(&mut port, &mut a, t) {
                    Out::Send(p) => assert_eq!(p.wire, CTRL_WIRE),
                    other => panic!("expected credit after wait, got {other:?}"),
                }
            }
            other => panic!("expected WaitUntil, got {other:?}"),
        }
    }

    #[test]
    fn dwrr_serves_jumbo_from_tiny_weight_queue() {
        // Regression: the old pass bound, n * (ceil(MTU / min_quantum) + 2),
        // under-counts whenever the head packet needs more rounds than an
        // MTU would relative to its own queue's quantum. A 9000-byte jumbo
        // on a weight-0.001 queue (quantum 1.538) needs ~5852 rounds; the
        // old bound allowed ~1002 and hit the unreachable!() panic.
        let cfg = PortConfig {
            rate: Rate::from_gbps(10),
            queues: vec![
                (QueueConfig::plain(), QueueSched::weighted(0, 0.001)),
                (QueueConfig::plain(), QueueSched::weighted(0, 1.0)),
            ],
        };
        let mut port = Port::new(&cfg);
        let mut a = PacketArena::new();
        enq(&mut port, &mut a, 0, data(9_000)).unwrap();
        match next(&mut port, &mut a, Time::ZERO) {
            Out::Send(p) => assert_eq!(p.wire, WireBytes::new(9_000)),
            other => panic!("expected jumbo send, got {other:?}"),
        }
        assert!(!port.has_backlog());
    }

    #[test]
    fn idle_when_empty() {
        let mut port = Port::new(&PortConfig::single_fifo(Rate::from_gbps(10)));
        let mut a = PacketArena::new();
        assert!(matches!(next(&mut port, &mut a, Time::ZERO), Out::Idle));
        assert!(!port.has_backlog());
    }

    #[test]
    fn shaper_rate_enforced_over_time() {
        // Drain credits as fast as the scheduler lets us and verify the
        // long-run rate matches the shaper.
        let rate = Rate::from_mbps(100);
        let cfg = PortConfig {
            rate: Rate::from_gbps(10),
            queues: vec![(
                QueueConfig::plain(),
                QueueSched::strict(0).shaped(rate, CTRL_WIRE * 2),
            )],
        };
        let mut port = Port::new(&cfg);
        let mut a = PacketArena::new();
        for _ in 0..1000 {
            enq(&mut port, &mut a, 0, credit()).unwrap();
        }
        let mut now = Time::ZERO;
        let mut sent = 0u64;
        let mut last = Time::ZERO;
        while sent < 1000 {
            match next(&mut port, &mut a, now) {
                Out::Send(_) => {
                    sent += 1;
                    last = now;
                }
                Out::WaitUntil(t) => now = t,
                Out::Idle => break,
            }
        }
        let achieved_bps = (1000.0 - 2.0) * CTRL_WIRE.as_f64() * 8.0 / last.as_secs_f64();
        let target = rate.as_bps() as f64;
        assert!(
            (achieved_bps - target).abs() / target < 0.01,
            "achieved {achieved_bps} vs {target}"
        );
    }
}
