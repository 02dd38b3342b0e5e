//! Property tests for the egress-port scheduler: DWRR fairness, strict
//! priority, and token-bucket shaping must hold for arbitrary parameters.

use flexpass_simcore::time::{Rate, Time, TimeDelta};
use flexpass_simcore::units::{Bytes, WireBytes};
use flexpass_simnet::arena::PacketArena;
use flexpass_simnet::consts::{CTRL_WIRE, DATA_HEADER_WIRE, DATA_WIRE};
use flexpass_simnet::packet::{CreditInfo, DataInfo, Packet, Payload, Subflow, TrafficClass};
use flexpass_simnet::port::{Decision, Port, PortConfig, QueueSched};
use flexpass_simnet::queue::{DropReason, QueueConfig};
use proptest::prelude::*;

/// [`Decision`] with the served packet copied out of the arena, so
/// assertions can inspect headers by value.
#[derive(Debug)]
enum Out {
    Send(Packet),
    WaitUntil(Time),
    Idle,
}

fn enq(port: &mut Port, arena: &mut PacketArena, q: usize, pkt: Packet) -> Result<(), DropReason> {
    let id = arena.acquire(pkt);
    port.enqueue(arena, q, id).inspect_err(|_| {
        arena.release(id);
    })
}

fn next(port: &mut Port, arena: &mut PacketArena, now: Time) -> Out {
    match port.next_packet(arena, now) {
        Decision::Send(id) => Out::Send(arena.release(id).expect("sent id is live")),
        Decision::WaitUntil(t) => Out::WaitUntil(t),
        Decision::Idle => Out::Idle,
    }
}

fn data(flow: u64, wire: WireBytes) -> Packet {
    Packet::new(
        flow,
        0,
        1,
        wire,
        TrafficClass::NewData,
        Payload::Data(DataInfo {
            flow_seq: 0,
            sub_seq: 0,
            sub: Subflow::Only,
            payload: Bytes::new(wire.get().saturating_sub(DATA_HEADER_WIRE.get())),
            retx: false,
        }),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two DWRR queues with arbitrary weights converge to the configured
    /// byte-share ratio when both stay backlogged.
    #[test]
    fn dwrr_respects_arbitrary_weights(w1 in 0.05f64..0.95) {
        let w2 = 1.0 - w1;
        let cfg = PortConfig {
            rate: Rate::from_gbps(10),
            queues: vec![
                (QueueConfig::plain(), QueueSched::weighted(0, w1)),
                (QueueConfig::plain(), QueueSched::weighted(0, w2)),
            ],
        };
        let mut port = Port::new(&cfg);
        let mut a = PacketArena::new();
        // Distinguishable sizes within 1% so byte-fairness ~ packet-fairness.
        let n = 3000;
        for i in 0..n {
            enq(&mut port, &mut a, 0, data(i, WireBytes::new(1530))).unwrap();
            enq(&mut port, &mut a, 1, data(i, DATA_WIRE)).unwrap();
        }
        let mut bytes = [0f64; 2];
        for _ in 0..n {
            match next(&mut port, &mut a, Time::ZERO) {
                Out::Send(p) => {
                    let qi = if p.wire == WireBytes::new(1530) { 0 } else { 1 };
                    bytes[qi] += p.wire.as_f64();
                }
                _ => break,
            }
        }
        let share = bytes[0] / (bytes[0] + bytes[1]);
        prop_assert!(
            (share - w1).abs() < 0.05,
            "queue-0 byte share {share:.3} vs weight {w1:.3}"
        );
    }

    /// Any weight vector and packet-size mix drains completely without
    /// tripping the DWRR progress bound, conserving packets and bytes.
    /// Exercises tiny weights against jumbo heads, where the old
    /// MTU/min-quantum pass bound under-counted and panicked.
    #[test]
    fn dwrr_drains_any_weights_and_sizes(
        weights in prop::collection::vec(0.0005f64..1.0, 2..5),
        sizes in prop::collection::vec(85u64..9_000, 1..60),
        seed in 0u64..10_000,
    ) {
        use flexpass_simcore::rng::SimRng;
        let cfg = PortConfig {
            rate: Rate::from_gbps(10),
            queues: weights
                .iter()
                .map(|&w| (QueueConfig::plain(), QueueSched::weighted(0, w)))
                .collect(),
        };
        let mut port = Port::new(&cfg);
        let mut a = PacketArena::new();
        let mut rng = SimRng::new(seed);
        let mut in_bytes = 0u64;
        for (i, &wire) in sizes.iter().enumerate() {
            let q = rng.index(weights.len());
            enq(&mut port, &mut a, q, data(i as u64, WireBytes::new(wire))).unwrap();
            in_bytes += wire;
        }
        let mut out = 0usize;
        let mut out_bytes = 0u64;
        while let Out::Send(p) = next(&mut port, &mut a, Time::ZERO) {
            out += 1;
            out_bytes += p.wire.get();
            prop_assert!(out <= sizes.len(), "served more packets than enqueued");
        }
        prop_assert_eq!(out, sizes.len());
        prop_assert_eq!(out_bytes, in_bytes);
        prop_assert!(!port.has_backlog());
    }

    /// A strict-priority queue is always served before lower levels, for
    /// any interleaving of enqueues.
    #[test]
    fn strict_priority_never_inverted(seed in 0u64..10_000) {
        use flexpass_simcore::rng::SimRng;
        let cfg = PortConfig {
            rate: Rate::from_gbps(10),
            queues: vec![
                (QueueConfig::plain(), QueueSched::strict(0)),
                (QueueConfig::plain(), QueueSched::strict(1)),
            ],
        };
        let mut port = Port::new(&cfg);
        let mut a = PacketArena::new();
        let mut rng = SimRng::new(seed);
        let mut hi_backlog = 0u32;
        for _ in 0..200 {
            // Random enqueues.
            if rng.chance(0.5) {
                enq(&mut port, &mut a, 0, data(1, CTRL_WIRE)).unwrap();
                hi_backlog += 1;
            }
            if rng.chance(0.5) {
                enq(&mut port, &mut a, 1, data(2, DATA_WIRE)).unwrap();
            }
            // One service opportunity.
            if let Out::Send(p) = next(&mut port, &mut a, Time::ZERO) {
                if hi_backlog > 0 {
                    prop_assert_eq!(
                        p.wire,
                        CTRL_WIRE,
                        "low-priority packet served while high backlogged"
                    );
                    hi_backlog -= 1;
                }
            }
        }
    }

    /// Levels listed out of configuration order, with non-contiguous queue
    /// ids per level: queue 1 (level 1) beats queue 3 (level 2), which
    /// beats the DWRR pair 0 and 2 (level 3). Strict priority is never
    /// inverted, and the DWRR pair splits its bytes by weight.
    #[test]
    fn interleaved_levels_keep_priority_and_weights(
        w in 0.1f64..0.9,
        seed in 0u64..10_000,
    ) {
        use flexpass_simcore::rng::SimRng;
        let cfg = PortConfig {
            rate: Rate::from_gbps(10),
            queues: vec![
                (QueueConfig::plain(), QueueSched::weighted(3, w)),
                (QueueConfig::plain(), QueueSched::strict(1)),
                (QueueConfig::plain(), QueueSched::weighted(3, 1.0 - w)),
                (QueueConfig::plain(), QueueSched::strict(2)),
            ],
        };
        let mut port = Port::new(&cfg);
        let mut a = PacketArena::new();
        let mut rng = SimRng::new(seed);
        // The flow id names the queue; the DWRR pair stays backlogged.
        let n = 3000;
        for _ in 0..n {
            enq(&mut port, &mut a, 0, data(0, WireBytes::new(1530))).unwrap();
            enq(&mut port, &mut a, 2, data(2, DATA_WIRE)).unwrap();
        }
        let mut backlog = [0u32; 4];
        let mut dwrr_bytes = [0f64; 2];
        for _ in 0..n {
            for q in [1, 3] {
                if rng.chance(0.3) {
                    enq(&mut port, &mut a, q, data(q as u64, CTRL_WIRE)).unwrap();
                    backlog[q] += 1;
                }
            }
            let Out::Send(p) = next(&mut port, &mut a, Time::ZERO) else {
                prop_assert!(false, "backlogged port stopped serving");
                return;
            };
            let want: &[u64] = if backlog[1] > 0 {
                &[1]
            } else if backlog[3] > 0 {
                &[3]
            } else {
                &[0, 2]
            };
            prop_assert!(
                want.contains(&p.flow),
                "served queue {} with backlog {backlog:?}",
                p.flow
            );
            match p.flow {
                0 => dwrr_bytes[0] += p.wire.as_f64(),
                2 => dwrr_bytes[1] += p.wire.as_f64(),
                q => backlog[q as usize] -= 1,
            }
        }
        let share = dwrr_bytes[0] / (dwrr_bytes[0] + dwrr_bytes[1]);
        prop_assert!(
            (share - w).abs() < 0.05,
            "queue-0 byte share {share:.3} vs weight {w:.3}"
        );
    }

    /// A shaped queue never exceeds its configured long-run rate, for any
    /// shaper rate and burst.
    #[test]
    fn shaper_long_run_rate_bound(
        rate_mbps in 10u64..2_000,
        burst_pkts in 1u64..8,
    ) {
        let rate = Rate::from_mbps(rate_mbps);
        let cfg = PortConfig {
            rate: Rate::from_gbps(10),
            queues: vec![(
                QueueConfig::plain(),
                QueueSched::strict(0).shaped(rate, CTRL_WIRE * burst_pkts),
            )],
        };
        let mut port = Port::new(&cfg);
        let mut a = PacketArena::new();
        let n = 400u64;
        for i in 0..n {
            enq(&mut port, &mut a, 0,
                Packet::new(
                    i,
                    0,
                    1,
                    CTRL_WIRE,
                    TrafficClass::Credit,
                    Payload::Credit(CreditInfo { idx: i as u32 }),
                ),
            )
            .unwrap();
        }
        let mut now = Time::ZERO;
        let mut sent = 0u64;
        let mut guard = 0;
        while sent < n {
            match next(&mut port, &mut a, now) {
                Out::Send(_) => sent += 1,
                Out::WaitUntil(t) => {
                    prop_assert!(t > now, "wake time must advance");
                    now = t;
                }
                Out::Idle => break,
            }
            guard += 1;
            prop_assert!(guard < 10 * n, "scheduler livelock");
        }
        prop_assert_eq!(sent, n);
        // Long-run rate: bytes sent over elapsed time, discounting the burst.
        let elapsed = now.as_secs_f64();
        if elapsed > 0.0 {
            let achieved_bps =
                (CTRL_WIRE * (n - burst_pkts)).as_f64() * 8.0 / elapsed;
            prop_assert!(
                achieved_bps <= rate.as_bps() as f64 * 1.02,
                "achieved {achieved_bps:.0} bps > shaper {}",
                rate.as_bps()
            );
        }
    }

    /// Work conservation: while any unshaped queue is backlogged, the port
    /// never reports WaitUntil or Idle.
    #[test]
    fn work_conserving_with_mixed_queues(seed in 0u64..10_000) {
        use flexpass_simcore::rng::SimRng;
        let cfg = PortConfig {
            rate: Rate::from_gbps(10),
            queues: vec![
                (
                    QueueConfig::capped(WireBytes::new(1_000)),
                    QueueSched::strict(0).shaped(Rate::from_mbps(1), CTRL_WIRE),
                ),
                (QueueConfig::plain(), QueueSched::weighted(1, 0.5)),
                (QueueConfig::plain(), QueueSched::weighted(1, 0.5)),
            ],
        };
        let mut port = Port::new(&cfg);
        let mut a = PacketArena::new();
        let mut rng = SimRng::new(seed);
        let now = Time::from_millis(1);
        let mut backlog = 0u32;
        for _ in 0..300 {
            if rng.chance(0.6) {
                let q = 1 + rng.index(2);
                enq(&mut port, &mut a, q, data(3, DATA_WIRE)).unwrap();
                backlog += 1;
            }
            if rng.chance(0.3) {
                let _ = enq(&mut port, &mut a, 0,
                    Packet::new(
                        9,
                        0,
                        1,
                        CTRL_WIRE,
                        TrafficClass::Credit,
                        Payload::Credit(CreditInfo { idx: 0 }),
                    ),
                );
            }
            if backlog > 0 {
                match next(&mut port, &mut a, now) {
                    Out::Send(p) => {
                        if p.class == TrafficClass::NewData {
                            backlog -= 1;
                        }
                    }
                    other => {
                        prop_assert!(
                            false,
                            "not work conserving with {backlog} backlogged: {other:?}"
                        );
                    }
                }
            }
        }
    }
}

/// Deterministic sanity: three-queue FlexPass configuration serves credits
/// first, then splits data by weight.
#[test]
fn flexpass_port_order() {
    let cfg = PortConfig {
        rate: Rate::from_gbps(10),
        queues: vec![
            (
                QueueConfig::capped(WireBytes::new(1_000)),
                QueueSched::strict(0).shaped(Rate::from_gbps(1), CTRL_WIRE * 10),
            ),
            (QueueConfig::plain(), QueueSched::weighted(1, 0.5)),
            (QueueConfig::plain(), QueueSched::weighted(1, 0.5)),
        ],
    };
    let mut port = Port::new(&cfg);
    let mut a = PacketArena::new();
    enq(&mut port, &mut a, 1, data(1, DATA_WIRE)).unwrap();
    enq(&mut port, &mut a, 2, data(2, DATA_WIRE)).unwrap();
    enq(
        &mut port,
        &mut a,
        0,
        Packet::new(
            3,
            0,
            1,
            CTRL_WIRE,
            TrafficClass::Credit,
            Payload::Credit(CreditInfo { idx: 0 }),
        ),
    )
    .unwrap();
    let t = Time::from_millis(1);
    match next(&mut port, &mut a, t) {
        Out::Send(p) => assert_eq!(p.class, TrafficClass::Credit),
        other => panic!("expected credit first, got {other:?}"),
    }
    let mut classes = Vec::new();
    for _ in 0..2 {
        if let Out::Send(p) = next(&mut port, &mut a, t) {
            classes.push(p.flow);
        }
    }
    classes.sort_unstable();
    assert_eq!(classes, vec![1, 2]);
    let _ = TimeDelta::ZERO;
}
