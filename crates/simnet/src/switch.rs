//! Output-queued switch with shared-buffer dynamic thresholds, per-class
//! queue mapping, and ECMP routing.

use flexpass_simcore::time::Time;
use flexpass_simcore::units::WireBytes;

use crate::arena::{PacketArena, PacketId};
use crate::audit;
use crate::packet::{Packet, TrafficClass};
use crate::port::{Decision, Port, PortConfig};
use crate::queue::DropReason;

/// How packets map to egress queues (the DSCP → queue configuration an
/// operator would install).
#[derive(Clone, Copy, Debug)]
pub enum ClassMap {
    /// Everything shares queue 0 (plain FIFO switch).
    Single,
    /// Explicit per-class queue indices. Classes may share an index (the
    /// Naïve scheme maps `NewData` and `Legacy` to the same queue).
    Split {
        /// Queue for [`TrafficClass::Credit`].
        credit: usize,
        /// Queue for [`TrafficClass::NewData`].
        new_data: usize,
        /// Queue for [`TrafficClass::NewCtrl`].
        new_ctrl: usize,
        /// Queue for [`TrafficClass::Legacy`].
        legacy: usize,
    },
    /// Homa-style: data packets choose `base + pkt.prio`; control packets
    /// and legacy traffic get fixed queues.
    ByPrio {
        /// First data queue index; packet priority is added to it.
        base: usize,
        /// Number of priority queues.
        n: usize,
        /// Queue for control packets (grants, ACKs).
        ctrl: usize,
        /// Queue for legacy traffic.
        legacy: usize,
    },
}

impl ClassMap {
    /// Egress queue index for `pkt`.
    pub fn queue_for(&self, pkt: &Packet) -> usize {
        match *self {
            ClassMap::Single => 0,
            ClassMap::Split {
                credit,
                new_data,
                new_ctrl,
                legacy,
            } => match pkt.class {
                TrafficClass::Credit => credit,
                TrafficClass::NewData => new_data,
                TrafficClass::NewCtrl => new_ctrl,
                TrafficClass::Legacy => legacy,
            },
            ClassMap::ByPrio {
                base,
                n,
                ctrl,
                legacy,
            } => match pkt.class {
                TrafficClass::Legacy => legacy,
                TrafficClass::NewCtrl | TrafficClass::Credit => ctrl,
                TrafficClass::NewData => base + (pkt.prio as usize).min(n - 1),
            },
        }
    }
}

/// Configuration shared by every port of a switch (and by host NICs, which
/// the paper configures identically to edge switches).
#[derive(Clone, Debug)]
pub struct SwitchProfile {
    /// Per-port queue set and scheduling.
    pub port: PortConfig,
    /// DSCP → queue mapping.
    pub class_map: ClassMap,
    /// Shared buffer `(total, dynamic threshold alpha)`; `None` disables
    /// shared-buffer admission (host NICs).
    pub shared_buffer: Option<(WireBytes, f64)>,
}

/// Per-switch drop counters, by reason.
#[derive(Clone, Copy, Debug, Default)]
pub struct SwitchCounters {
    /// Drops due to the shared buffer / dynamic threshold.
    pub dropped_buffer: u64,
    /// Drops due to a queue's static cap (credit queue overflow).
    pub dropped_cap: u64,
    /// Selective (red) drops.
    pub dropped_red: u64,
    /// Packets forwarded.
    pub forwarded: u64,
}

/// A point-in-time view of one port's queue occupancy.
///
/// Reused as a scratch buffer across samples: [`Switch::sample_port_into`]
/// clears and refills it, so the backing `Vec`s are allocated once per
/// observer, not twice per telemetry sample.
#[derive(Clone, Debug, Default)]
pub struct QueueSample {
    /// Bytes per queue.
    pub bytes: Vec<WireBytes>,
    /// Red bytes per queue.
    pub red_bytes: Vec<WireBytes>,
}

impl QueueSample {
    /// An empty sample, ready to be filled by [`Switch::sample_port_into`].
    pub fn new() -> Self {
        QueueSample::default()
    }

    /// Drops the previous sample's contents, keeping capacity.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.red_bytes.clear();
    }
}

/// A switch's ECMP table: the shortest-path candidate egress ports towards
/// every destination host.
///
/// Identical candidate lists are stored once in a flat port list, and each
/// destination holds one `u32` packing its list's `(start, len)` span, so a
/// ToR with 40 hosts and two uplinks keeps 41 short lists instead of one
/// heap list per host in the fabric.
#[derive(Clone, Debug, Default)]
pub struct Routes {
    /// Per destination host: `start << SPAN_LEN_BITS | len` into `ports`.
    index: Vec<u32>,
    /// The interned candidate lists, back to back.
    ports: Vec<u16>,
}

/// Low bits of a packed span hold the list length; the rest its start.
const SPAN_LEN_BITS: u32 = 12;
const SPAN_LEN_MASK: u32 = (1 << SPAN_LEN_BITS) - 1;

impl Routes {
    /// A table for `n_hosts` destinations, each with the empty list (no
    /// route) until it is pointed at an interned one.
    pub(crate) fn with_hosts(n_hosts: usize) -> Self {
        Routes {
            index: vec![0; n_hosts],
            ports: Vec::new(),
        }
    }

    /// Builds a table from one candidate list per destination host,
    /// interning identical lists.
    #[cfg(test)]
    pub(crate) fn from_lists<L: AsRef<[u16]>>(lists: &[L]) -> Self {
        let mut routes = Routes::with_hosts(lists.len());
        let mut seen: std::collections::BTreeMap<&[u16], u32> = Default::default();
        for (dst, list) in lists.iter().enumerate() {
            let list = list.as_ref();
            if list.is_empty() {
                continue;
            }
            let span = *seen.entry(list).or_insert_with(|| routes.intern(list));
            routes.set(dst, span);
        }
        routes
    }

    /// Appends `list` as a new distinct candidate list and returns its
    /// packed span for [`Routes::set`]. The caller interns: it must not
    /// add a list already stored here.
    ///
    /// # Panics
    ///
    /// Panics if the list or the table outgrows the span encoding.
    pub(crate) fn intern(&mut self, list: &[u16]) -> u32 {
        let start = self.ports.len();
        assert!(
            list.len() <= SPAN_LEN_MASK as usize && start < 1 << (32 - SPAN_LEN_BITS),
            "route table exceeds the packed span encoding"
        );
        self.ports.extend_from_slice(list);
        ((start as u32) << SPAN_LEN_BITS) | list.len() as u32
    }

    /// Points destination `dst` at an interned span.
    pub(crate) fn set(&mut self, dst: usize, span: u32) {
        self.index[dst] = span;
    }

    /// Candidate egress ports towards host `dst`, in port order; empty if
    /// the host is unknown or unreachable.
    #[inline]
    pub fn candidates(&self, dst: usize) -> &[u16] {
        let Some(&span) = self.index.get(dst) else {
            return &[];
        };
        let start = (span >> SPAN_LEN_BITS) as usize;
        let len = (span & SPAN_LEN_MASK) as usize;
        self.ports.get(start..start + len).unwrap_or(&[])
    }

    /// Number of destination hosts the table covers.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Number of distinct non-empty candidate lists the index points at.
    #[cfg(test)]
    pub(crate) fn distinct_lists(&self) -> usize {
        let spans: std::collections::BTreeSet<u32> = self
            .index
            .iter()
            .copied()
            .filter(|span| span & SPAN_LEN_MASK != 0)
            .collect();
        spans.len()
    }

    /// Heap bytes held by the table.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.index.capacity() * std::mem::size_of::<u32>()
            + self.ports.capacity() * std::mem::size_of::<u16>()
    }
}

/// An output-queued switch.
#[derive(Debug)]
pub struct Switch {
    /// Topology tier (ToR = 0, Agg = 1, Core = 2); selects the ECMP hash
    /// slice so both flow directions make aligned choices.
    pub tier: u8,
    /// Egress ports.
    pub ports: Vec<Port>,
    /// ECMP candidates: `routes.candidates(dst_host)` lists egress port
    /// indices on shortest paths towards that host.
    pub routes: Routes,
    class_map: ClassMap,
    shared_buffer: Option<(WireBytes, f64)>,
    /// Running total of [`Port::shared_bytes`] over all ports: what
    /// [`Switch::shared_used`] recomputes, kept in step by
    /// [`Switch::receive`] and [`Switch::next_packet`].
    shared_total: WireBytes,
    counters: SwitchCounters,
    audit_id: audit::ComponentId,
}

impl Switch {
    /// Creates a switch with `nports` identical ports from `profile`.
    pub fn new(profile: &SwitchProfile, nports: usize, tier: u8) -> Self {
        Switch {
            tier,
            ports: (0..nports).map(|_| Port::new(&profile.port)).collect(),
            routes: Routes::default(),
            class_map: profile.class_map,
            shared_buffer: profile.shared_buffer,
            shared_total: WireBytes::ZERO,
            counters: SwitchCounters::default(),
            audit_id: audit::new_component_id(),
        }
    }

    /// Drop / forward counters.
    pub fn counters(&self) -> SwitchCounters {
        self.counters
    }

    /// The class map in use.
    pub fn class_map(&self) -> ClassMap {
        self.class_map
    }

    /// Selects the egress port for `pkt` by ECMP over the shortest-path
    /// candidates, using the tier-specific slice of the symmetric flow hash.
    ///
    /// # Panics
    ///
    /// Panics if no route exists to the packet's destination.
    pub fn route(&self, pkt: &Packet) -> usize {
        let cands = self.routes.candidates(pkt.dst);
        if let &[only] = cands {
            return only as usize;
        }
        assert!(!cands.is_empty(), "no route to host {}", pkt.dst);
        let h = pkt.path_hash >> (16 * self.tier as u64);
        // lint:allow(panic-path): modulus over the candidate count, which
        // the assert above proves non-zero; the result indexes in range.
        let pick = cands.get((h % cands.len() as u64) as usize);
        *pick.expect("ECMP modulus stays in range") as usize
    }

    /// Bytes currently admitted against the shared buffer (dynamically
    /// thresholded queues only; statically capped queues are exempt).
    ///
    /// Recomputed from every queue of every port, O(ports × queues).
    /// Admission reads the running total instead; this is its oracle.
    pub fn shared_used(&self) -> WireBytes {
        self.ports
            .iter()
            .map(|p| {
                (0..p.num_queues())
                    .filter(|&qi| p.queue(qi).config().cap_bytes == WireBytes::MAX)
                    .map(|qi| p.queue(qi).bytes())
                    .sum::<WireBytes>()
            })
            .sum()
    }

    /// Attempts to enqueue the packet behind `id` at the routed egress
    /// port. Returns the port index on success so the caller can kick the
    /// port's service loop; on `Err` the caller keeps the id (and must
    /// release it).
    pub fn receive(
        &mut self,
        arena: &mut PacketArena,
        id: PacketId,
    ) -> Result<usize, (DropReason, PacketId)> {
        let (port_idx, qidx, size) = {
            let pkt = arena.get(id).expect("received id is live");
            (self.route(pkt), self.class_map.queue_for(pkt), pkt.wire)
        };

        // Dynamic shared-buffer admission (statically capped queues such as
        // the credit queue manage their own tiny buffer instead).
        let port = self.ports.get(port_idx).expect("routed port in range");
        let shared = port.queue(qidx).config().cap_bytes == WireBytes::MAX;
        if shared {
            if let Some((total, alpha)) = self.shared_buffer {
                let used = self.shared_total;
                debug_assert_eq!(used, self.shared_used(), "shared-buffer total drifted");
                let free = total.saturating_sub(used);
                let threshold = WireBytes::from_f64(alpha * free.as_f64());
                let qbytes = port.queue(qidx).bytes();
                if used + size > total || qbytes + size > threshold {
                    self.counters.dropped_buffer += 1;
                    return Err((DropReason::Buffer, id));
                }
                audit::shared_buffer(self.audit_id, used + size, total);
            }
        }

        let port = self.ports.get_mut(port_idx).expect("routed port in range");
        match port.enqueue(arena, qidx, id) {
            Ok(()) => {
                if shared {
                    self.shared_total += size;
                }
                self.counters.forwarded += 1;
                Ok(port_idx)
            }
            Err(r) => {
                match r {
                    DropReason::QueueCap => self.counters.dropped_cap += 1,
                    DropReason::SelectiveRed => self.counters.dropped_red += 1,
                    DropReason::Buffer => self.counters.dropped_buffer += 1,
                }
                Err((r, id))
            }
        }
    }

    /// Runs the scheduler of port `port_idx` for one service opportunity
    /// (see [`Port::next_packet`]) and takes the bytes a dequeue frees off
    /// the shared-buffer total. Dequeue through here, not through the
    /// port, so the running total stays in step.
    pub fn next_packet(&mut self, port_idx: usize, arena: &mut PacketArena, now: Time) -> Decision {
        let port = self.ports.get_mut(port_idx).expect("served port in range");
        let before = port.shared_bytes();
        let decision = port.next_packet(arena, now);
        self.shared_total -= before - port.shared_bytes();
        decision
    }

    /// Snapshot of one port's queues, written into the caller's reusable
    /// scratch buffer (cleared first) — the per-sample `collect` pair this
    /// replaces was the hot path's last steady-state allocation site.
    pub fn sample_port_into(&self, port_idx: usize, out: &mut QueueSample) {
        let p = self.ports.get(port_idx).expect("sampled port in range");
        out.clear();
        for q in 0..p.num_queues() {
            out.bytes.push(p.queue(q).bytes());
            out.red_bytes.push(p.queue(q).red_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::{CTRL_WIRE, DATA_WIRE};
    use crate::packet::{CreditInfo, DataInfo, Payload, Subflow};
    use crate::port::QueueSched;
    use crate::queue::QueueConfig;
    use flexpass_simcore::time::Rate;
    use flexpass_simcore::units::Bytes;

    fn flexpass_profile() -> SwitchProfile {
        SwitchProfile {
            port: PortConfig {
                rate: Rate::from_gbps(10),
                queues: vec![
                    (
                        QueueConfig::capped(WireBytes::new(1_000)),
                        QueueSched::strict(0).shaped(Rate::from_mbps(273), CTRL_WIRE * 2),
                    ),
                    (
                        QueueConfig::plain()
                            .with_ecn(WireBytes::new(65_000))
                            .with_red_threshold(WireBytes::new(150_000)),
                        QueueSched::weighted(1, 0.5),
                    ),
                    (
                        QueueConfig::plain().with_ecn(WireBytes::new(100_000)),
                        QueueSched::weighted(1, 0.5),
                    ),
                ],
            },
            class_map: ClassMap::Split {
                credit: 0,
                new_data: 1,
                new_ctrl: 1,
                legacy: 2,
            },
            shared_buffer: Some((WireBytes::new(4_500_000), 0.25)),
        }
    }

    fn data_to(dst: usize, class: TrafficClass, red: bool) -> Packet {
        let p = Packet::new(
            5,
            0,
            dst,
            DATA_WIRE,
            class,
            Payload::Data(DataInfo {
                flow_seq: 0,
                sub_seq: 0,
                sub: Subflow::Reactive,
                payload: Bytes::new(1460),
                retx: false,
            }),
        );
        if red {
            p.red()
        } else {
            p
        }
    }

    fn credit_to(dst: usize) -> Packet {
        Packet::new(
            5,
            0,
            dst,
            CTRL_WIRE,
            TrafficClass::Credit,
            Payload::Credit(CreditInfo { idx: 0 }),
        )
    }

    fn wired_switch() -> Switch {
        let mut sw = Switch::new(&flexpass_profile(), 2, 0);
        // Hosts 0 and 1 behind ports 0 and 1.
        sw.routes = Routes::from_lists(&[[0], [1]]);
        sw
    }

    /// Receive a packet value, releasing the slot again on a drop (what
    /// the simulator's arrive path does).
    fn recv(sw: &mut Switch, a: &mut PacketArena, pkt: Packet) -> Result<usize, DropReason> {
        let id = a.acquire(pkt);
        sw.receive(a, id).map_err(|(r, id)| {
            a.release(id);
            r
        })
    }

    #[test]
    fn routes_intern_identical_lists() {
        let r = Routes::from_lists(&[vec![2, 3], vec![0], vec![2, 3], vec![]]);
        assert_eq!(r.len(), 4);
        assert_eq!(r.distinct_lists(), 2);
        assert_eq!(r.candidates(0), [2, 3]);
        assert_eq!(r.candidates(1), [0]);
        assert_eq!(r.candidates(2), [2, 3]);
        // Unreachable and unknown destinations have no candidates.
        assert!(r.candidates(3).is_empty());
        assert!(r.candidates(4).is_empty());
    }

    #[test]
    fn class_map_split() {
        let sw = wired_switch();
        let credit = Packet::new(
            5,
            1,
            0,
            CTRL_WIRE,
            TrafficClass::Credit,
            Payload::Credit(CreditInfo { idx: 0 }),
        );
        assert_eq!(sw.class_map().queue_for(&credit), 0);
        assert_eq!(
            sw.class_map()
                .queue_for(&data_to(1, TrafficClass::NewData, false)),
            1
        );
        assert_eq!(
            sw.class_map()
                .queue_for(&data_to(1, TrafficClass::Legacy, false)),
            2
        );
    }

    #[test]
    fn class_map_by_prio() {
        let cm = ClassMap::ByPrio {
            base: 1,
            n: 8,
            ctrl: 0,
            legacy: 1,
        };
        let p = data_to(1, TrafficClass::NewData, false).with_prio(3);
        assert_eq!(cm.queue_for(&p), 4);
        // Legacy maps to the highest-priority data queue (paper footnote 3).
        assert_eq!(cm.queue_for(&data_to(1, TrafficClass::Legacy, false)), 1);
        // Priorities beyond the range clamp.
        let p = data_to(1, TrafficClass::NewData, false).with_prio(200);
        assert_eq!(cm.queue_for(&p), 8);
    }

    #[test]
    fn routes_and_forwards() {
        let mut sw = wired_switch();
        let mut a = PacketArena::new();
        let port = recv(&mut sw, &mut a, data_to(1, TrafficClass::NewData, false)).unwrap();
        assert_eq!(port, 1);
        assert_eq!(sw.counters().forwarded, 1);
        assert_eq!(sw.ports[1].backlog_bytes(), DATA_WIRE);
    }

    #[test]
    fn selective_red_drop_at_switch() {
        let mut sw = wired_switch();
        let mut a = PacketArena::new();
        // 150 kB red threshold: 97 full packets fit, the 98th red is dropped.
        let mut admitted = 0u64;
        for _ in 0..120 {
            if recv(&mut sw, &mut a, data_to(1, TrafficClass::NewData, true)).is_ok() {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 150_000 / DATA_WIRE.get());
        assert!(sw.counters().dropped_red > 0);
        // Green packets still admitted past the red threshold.
        assert!(recv(&mut sw, &mut a, data_to(1, TrafficClass::NewData, false)).is_ok());
    }

    #[test]
    fn dynamic_threshold_limits_queue() {
        // Alpha = 0.25, total 4.5 MB: an empty switch admits one queue up to
        // threshold alpha/(1+alpha) * total = 0.9 MB.
        let mut sw = wired_switch();
        let mut a = PacketArena::new();
        let mut admitted_bytes = 0u64;
        for _ in 0..2000 {
            match recv(&mut sw, &mut a, data_to(1, TrafficClass::Legacy, false)) {
                Ok(_) => admitted_bytes += DATA_WIRE.get(),
                Err(r) => {
                    assert_eq!(r, DropReason::Buffer);
                    break;
                }
            }
        }
        let expected = (0.25f64 / 1.25 * 4_500_000.0) as u64;
        assert!(
            (admitted_bytes as i64 - expected as i64).unsigned_abs() < 5 * DATA_WIRE.get(),
            "admitted {admitted_bytes}, expected ~{expected}"
        );
    }

    #[test]
    fn credit_queue_exempt_from_shared_buffer() {
        let mut sw = wired_switch();
        let mut a = PacketArena::new();
        // Fill legacy queue to its dynamic limit.
        while recv(&mut sw, &mut a, data_to(1, TrafficClass::Legacy, false)).is_ok() {}
        // Credits still admitted (own tiny buffer).
        assert!(recv(&mut sw, &mut a, credit_to(1)).is_ok());
    }

    /// The running shared-buffer total equals the O(ports) recompute and
    /// the per-port counts.
    fn assert_total(sw: &Switch) {
        assert_eq!(sw.shared_total, sw.shared_used());
        let per_port: WireBytes = sw.ports.iter().map(Port::shared_bytes).sum();
        assert_eq!(sw.shared_total, per_port);
    }

    #[test]
    fn running_shared_total_tracks_recompute_through_drops_and_service() {
        let mut sw = wired_switch();
        let mut a = PacketArena::new();

        // Credits fill both ports' statically capped queues up to the cap
        // and never count toward the shared buffer.
        for dst in 0..2 {
            loop {
                let r = recv(&mut sw, &mut a, credit_to(dst));
                assert_total(&sw);
                if let Err(r) = r {
                    assert_eq!(r, DropReason::QueueCap);
                    break;
                }
            }
        }
        assert!(sw.counters().dropped_cap >= 2);
        assert_eq!(sw.shared_total, WireBytes::ZERO);
        assert!(sw
            .ports
            .iter()
            .all(|p| p.queue(0).bytes() > WireBytes::ZERO));

        // Red data to port 1 until the selective-drop threshold bites.
        loop {
            let r = recv(&mut sw, &mut a, data_to(1, TrafficClass::NewData, true));
            assert_total(&sw);
            if let Err(r) = r {
                assert_eq!(r, DropReason::SelectiveRed);
                break;
            }
        }
        // Legacy data to port 0 until the dynamic threshold bites.
        loop {
            let r = recv(&mut sw, &mut a, data_to(0, TrafficClass::Legacy, false));
            assert_total(&sw);
            if let Err(r) = r {
                assert_eq!(r, DropReason::Buffer);
                break;
            }
        }
        let c = sw.counters();
        assert!(c.dropped_red > 0 && c.dropped_buffer > 0);
        assert!(sw.shared_total > WireBytes::ZERO);

        // Drain both ports through the service call the simulator uses,
        // following shaper wake-ups on the credit queue.
        let mut now = Time::ZERO;
        let mut served = 0u64;
        for port in [1, 0] {
            loop {
                match sw.next_packet(port, &mut a, now) {
                    Decision::Send(id) => {
                        a.release(id).expect("sent id is live");
                        served += 1;
                    }
                    Decision::WaitUntil(t) => now = t,
                    Decision::Idle => break,
                }
                assert_total(&sw);
            }
        }
        assert_eq!(served, c.forwarded);
        assert!(sw.ports.iter().all(|p| !p.has_backlog()));
        assert_eq!(sw.shared_total, WireBytes::ZERO);
        assert_eq!(sw.shared_used(), WireBytes::ZERO);
    }

    #[test]
    fn sample_reports_occupancy() {
        let mut sw = wired_switch();
        let mut a = PacketArena::new();
        recv(&mut sw, &mut a, data_to(1, TrafficClass::NewData, true)).unwrap();
        recv(&mut sw, &mut a, data_to(1, TrafficClass::Legacy, false)).unwrap();
        let mut s = QueueSample::new();
        sw.sample_port_into(1, &mut s);
        assert_eq!(s.bytes[1], DATA_WIRE);
        assert_eq!(s.red_bytes[1], DATA_WIRE);
        assert_eq!(s.bytes[2], DATA_WIRE);
        assert_eq!(s.red_bytes[2], WireBytes::ZERO);
        // Refill reuses the buffers: same shape, no stale entries.
        sw.sample_port_into(0, &mut s);
        assert_eq!(s.bytes.len(), 3);
        assert_eq!(s.bytes[1], WireBytes::ZERO);
    }
}
