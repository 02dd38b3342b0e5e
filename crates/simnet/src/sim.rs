//! The event-driven simulation driver.
//!
//! [`Sim`] owns the wired topology, the event calendar, and the transport
//! factory. Its inner loop dispatches four event kinds: packet arrivals,
//! port service opportunities, endpoint timers, and flow starts. All
//! behaviour is deterministic given the topology, factory, and workload.

use flexpass_simcore::event::EventQueue;
use flexpass_simcore::rng::SimRng;
use flexpass_simcore::time::{Rate, Time, TimeDelta};

use crate::arena::{PacketArena, PacketId};
use crate::audit;
use crate::endpoint::{AppEvent, Endpoint, TimerCmd};
use crate::host::{Host, Scratch};
use crate::packet::{FlowId, FlowSpec, Packet};
use crate::port::{Decision, Port};
use crate::queue::DropReason;
use crate::switch::{QueueSample, Switch};
use crate::topology::Topology;
use crate::trace;

/// Index into the simulator's node table.
pub type NodeId = usize;

/// A network element.
pub enum Node {
    /// A switch.
    Switch(Switch),
    /// An end host.
    Host(Host),
}

impl Node {
    /// Egress port `idx` of this node (hosts expose their NIC as port 0).
    ///
    /// Dequeue through [`Node::next_packet`], not through the returned
    /// port, so a switch's shared-buffer total stays in step.
    pub fn port_mut(&mut self, idx: usize) -> &mut Port {
        match self {
            Node::Switch(s) => s.ports.get_mut(idx).expect("port index within switch"),
            Node::Host(h) => {
                debug_assert_eq!(idx, 0);
                &mut h.nic
            }
        }
    }

    /// One service opportunity of egress port `idx` at `now`: the port's
    /// scheduler decision, with a switch's shared-buffer accounting
    /// updated for the dequeued packet.
    pub fn next_packet(&mut self, idx: usize, arena: &mut PacketArena, now: Time) -> Decision {
        match self {
            Node::Switch(s) => s.next_packet(idx, arena, now),
            Node::Host(h) => {
                debug_assert_eq!(idx, 0);
                h.nic.next_packet(arena, now)
            }
        }
    }

    /// Immutable port access.
    pub fn port(&self, idx: usize) -> &Port {
        match self {
            Node::Switch(s) => s.ports.get(idx).expect("port index within switch"),
            Node::Host(h) => {
                debug_assert_eq!(idx, 0);
                &h.nic
            }
        }
    }
}

/// Static facts transports may consult when a flow is created.
#[derive(Clone, Copy, Debug)]
pub struct NetEnv {
    /// Host access link rate.
    pub host_rate: Rate,
    /// Worst-case propagation-only RTT in the fabric.
    pub base_rtt: TimeDelta,
    /// Number of hosts.
    pub n_hosts: usize,
}

/// Hook points for measurement. All methods have empty defaults; recorders
/// implement what they need.
pub trait NetObserver {
    /// A flow was started (its spec is now known to the metrics layer).
    fn on_flow_start(&mut self, _spec: &FlowSpec, _now: Time) {}
    /// An endpoint raised an application event.
    fn on_app_event(&mut self, _ev: &AppEvent, _now: Time) {}
    /// A data packet reached its destination host.
    fn on_delivered(&mut self, _pkt: &Packet, _now: Time) {}
    /// A packet was dropped.
    fn on_drop(&mut self, _pkt: &Packet, _reason: DropReason, _node: NodeId, _now: Time) {}
    /// Periodic queue occupancy sample of one switch port.
    fn on_queue_sample(&mut self, _node: NodeId, _port: usize, _sample: &QueueSample, _now: Time) {}
}

/// An observer that records nothing.
pub struct NullObserver;

impl NetObserver for NullObserver {}

/// Which endpoint halves of a flow this simulator instance owns. A serial
/// run owns both; a partitioned run whose flow crosses a domain cut splits
/// the flow, registering the sender half in the source host's domain and
/// the receiver half in the destination host's domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowRole {
    /// Both endpoint halves (serial runs and intra-domain flows).
    Both,
    /// Sender half only (source host is local, destination is foreign).
    Sender,
    /// Receiver half only (destination host is local, source is foreign).
    Receiver,
}

/// Partition membership shared by every domain of a partitioned run: which
/// domain each global node id belongs to, and which domain this simulator
/// instance is. Installed by the parallel engine; `None` (the serial case)
/// keeps every datapath branch on its pre-partition path.
#[derive(Clone, Debug)]
pub struct PartitionCtx {
    /// Domain owning each node, indexed by global [`NodeId`].
    pub domain_of: std::sync::Arc<Vec<u32>>,
    /// The domain this simulator instance runs.
    pub me: u32,
}

/// Creates the two endpoint halves of each flow. Scheme layers (oWF, Naïve,
/// FlexPass, ...) implement this to mix transports across hosts.
///
/// `Send` is a supertrait so a factory can be built on the orchestrating
/// thread and moved into the worker thread that drives the simulation
/// (see the experiments crate's parallel sweep). Factories hold only
/// configuration and the deployment map, so this is free in practice.
pub trait TransportFactory: Send {
    /// Builds the sender endpoint.
    fn sender(&mut self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint>;
    /// Builds the receiver endpoint.
    fn receiver(&mut self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint>;
    /// An independent copy for a partition domain, or `None` if the
    /// factory carries per-run state that cannot be duplicated. Returning
    /// `Some` asserts that endpoint construction is a pure function of
    /// `(flow, env)` — the clones never compare notes, so any shared
    /// mutable state would diverge between domains. `None` (the default)
    /// makes the parallel engine fall back to the serial path.
    fn try_clone(&self) -> Option<Box<dyn TransportFactory>> {
        None
    }
}

/// Simulation events.
#[derive(Debug)]
pub enum Event {
    /// A packet finishes propagating to `node`.
    Arrive {
        /// Receiving node.
        node: NodeId,
        /// The packet's arena id (the packet itself stays in the slab).
        pkt: PacketId,
    },
    /// Egress port `port` of `node` may transmit.
    PortReady {
        /// Node owning the port.
        node: NodeId,
        /// Port index.
        port: usize,
    },
    /// An endpoint timer fires.
    Timer {
        /// Host node.
        host: NodeId,
        /// Flow owning the timer.
        flow: FlowId,
        /// Opaque token the endpoint registered.
        token: u64,
    },
    /// A scheduled flow begins.
    FlowStart {
        /// Index into the flow table.
        idx: usize,
    },
    /// Periodic queue sampling tick.
    Sample,
}

/// The simulator.
pub struct Sim<O: NetObserver> {
    events: EventQueue<Event>,
    /// All nodes (public for post-run counter inspection).
    pub nodes: Vec<Node>,
    /// Node id of each host.
    pub hosts: Vec<NodeId>,
    /// Rack of each host.
    pub rack_of: Vec<usize>,
    flows: Vec<FlowSpec>,
    factory: Box<dyn TransportFactory>,
    env: NetEnv,
    /// The measurement observer.
    pub observer: O,
    /// The packet slab: every in-flight packet lives here, addressed by
    /// generation-checked [`PacketId`]s.
    arena: PacketArena,
    scratch: Scratch,
    /// Reusable queue-sample buffer (cleared, never reallocated).
    sample_scratch: QueueSample,
    /// Audit identities for the scratch buffers `(tx, timers, app)`.
    scratch_audit: [audit::ComponentId; 3],
    completed: usize,
    started: usize,
    sample_every: Option<TimeDelta>,
    /// Non-congestion loss injection: `(probability, rng)`.
    loss: Option<(f64, SimRng)>,
    /// Packets dropped by loss injection.
    injected_losses: u64,
    /// Partition membership (`None` in a serial run).
    partition: Option<PartitionCtx>,
    /// Endpoint halves owned per flow, parallel to `flows`.
    roles: Vec<FlowRole>,
    /// Packets that crossed a domain cut this window: `(arrival instant,
    /// destination node, packet)`, drained by the parallel engine into the
    /// owning domain's channel. Always empty in a serial run.
    pub(crate) outbox: Vec<(Time, NodeId, Packet)>,
    /// Instant the most recent flow completed (receiver side).
    last_completion: Time,
    /// Progress probe for arena statistics (the calendar holds its own
    /// clone for event counts).
    progress: Option<std::sync::Arc<flexpass_simcore::ProgressProbe>>,
}

impl<O: NetObserver> Sim<O> {
    /// Builds a simulator over a wired topology.
    pub fn new(topo: Topology, factory: Box<dyn TransportFactory>, observer: O) -> Self {
        Self::with_flow_capacity(topo, factory, observer, 0)
    }

    /// Like [`Sim::new`], but pre-sizes the event calendar and flow table
    /// for `expected_flows` scheduled flows, avoiding repeated growth at
    /// sweep start. Purely a capacity hint: scheduling more flows works,
    /// and simulated outcomes are identical either way.
    pub fn with_flow_capacity(
        topo: Topology,
        factory: Box<dyn TransportFactory>,
        observer: O,
        expected_flows: usize,
    ) -> Self {
        let env = NetEnv {
            host_rate: topo.host_rate,
            base_rtt: topo.base_rtt,
            n_hosts: topo.hosts.len(),
        };
        // Each scheduled flow contributes its FlowStart entry up front plus
        // a handful of in-flight events while active; a small multiple of
        // the flow count is a good calendar working-set estimate.
        let cal = expected_flows.saturating_mul(4);
        let mut nodes = topo.nodes;

        // Arena sizing: bounded queues state their worst-case packet count
        // (capacity_hint counts minimum-size frames), which is a ceiling on
        // the live-packet population, not a target — cap the hinted term so
        // a large Clos with deep buffers does not pre-reserve megabytes per
        // run. The cap scales with host count: a fixed 65,536 was tuned for
        // the paper's 192-host fabric and silently undersized 10k-host
        // topologies, forcing warm-path arena growth. Warm-up growth
        // (tracked by the arena) still absorbs any residual shortfall.
        const MAX_HINTED_SLOTS: usize = 65_536;
        const HINT_SLOTS_PER_HOST: usize = 32;
        let hinted_cap = MAX_HINTED_SLOTS.max(topo.hosts.len().saturating_mul(HINT_SLOTS_PER_HOST));
        let mut hinted: usize = 0;
        for node in &nodes {
            let ports: &[Port] = match node {
                Node::Switch(s) => &s.ports,
                Node::Host(h) => std::slice::from_ref(&h.nic),
            };
            for p in ports {
                for qi in 0..p.num_queues() {
                    if let Some(h) = p.queue(qi).config().capacity_hint() {
                        hinted = hinted.saturating_add(h);
                    }
                }
            }
        }
        let slots = expected_flows
            .saturating_mul(16)
            .max(hinted.min(hinted_cap))
            .max(256);

        // Per-host flow tables: each flow registers two endpoints; spread
        // them across hosts with headroom for skewed workloads.
        let n_hosts = topo.hosts.len().max(1);
        let per_host = expected_flows.saturating_mul(4).div_ceil(n_hosts);
        for node in &mut nodes {
            if let Node::Host(h) = node {
                h.reserve_flows(per_host);
            }
        }

        Sim {
            events: EventQueue::with_capacity(cal),
            nodes,
            hosts: topo.hosts,
            rack_of: topo.rack_of,
            flows: Vec::with_capacity(expected_flows),
            factory,
            env,
            observer,
            arena: PacketArena::with_capacity(slots),
            scratch: Scratch::default(),
            sample_scratch: QueueSample::new(),
            scratch_audit: [
                audit::new_component_id(),
                audit::new_component_id(),
                audit::new_component_id(),
            ],
            completed: 0,
            started: 0,
            sample_every: None,
            loss: None,
            injected_losses: 0,
            partition: None,
            roles: Vec::with_capacity(expected_flows),
            outbox: Vec::with_capacity(64),
            last_completion: Time::ZERO,
            progress: None,
        }
    }

    /// Installs partition membership (parallel engine only). From here on
    /// packets transmitted towards foreign nodes are diverted to the
    /// outbox instead of the local calendar, and periodic sampling keeps
    /// rescheduling until [`Sim::stop_sampling`] — the local flow table no
    /// longer knows when the *global* run is done.
    pub(crate) fn set_partition(&mut self, ctx: PartitionCtx) {
        self.partition = Some(ctx);
    }

    /// True when `node` belongs to another partition domain. Always false
    /// in a serial run — the whole cross-domain path is unreachable there.
    fn is_foreign(&self, node: NodeId) -> bool {
        match &self.partition {
            Some(ctx) => match ctx.domain_of.get(node) {
                Some(&d) => d != ctx.me,
                None => false,
            },
            None => false,
        }
    }

    /// Arena occupancy and growth statistics `(live, high_water, capacity,
    /// grows)` — growths after warm-up mean the preallocation was short.
    pub fn arena_stats(&self) -> (usize, usize, usize, u64) {
        (
            self.arena.live(),
            self.arena.high_water(),
            self.arena.capacity(),
            self.arena.grows(),
        )
    }

    /// Enables random non-congestion packet loss (§4.3 "Handling proactive
    /// data packet losses": e.g. switch failures or link corruption). Every
    /// packet arriving at a *switch* is dropped with probability `p`,
    /// independently, from a deterministic seeded stream. Transports must
    /// recover; proactive sub-flows use their highest-priority
    /// retransmission path.
    pub fn inject_loss(&mut self, p: f64, seed: u64) {
        assert!((0.0..1.0).contains(&p), "loss probability out of range");
        self.loss = Some((p, SimRng::new(seed ^ 0x10_55)));
    }

    /// Packets dropped by the loss injector so far.
    pub fn injected_losses(&self) -> u64 {
        self.injected_losses
    }

    /// Environment facts handed to transports.
    pub fn env(&self) -> NetEnv {
        self.env
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.events.now()
    }

    /// Total events processed (progress metric).
    pub fn events_processed(&self) -> u64 {
        self.events.popped()
    }

    /// Release-mode past-time schedules the calendar clamped up to "now".
    /// Always 0 in a healthy run (debug builds panic instead); exposed so
    /// the condition is observable rather than silent.
    pub fn schedule_clamps(&self) -> u64 {
        self.events.clamped()
    }

    /// Cancellable timers successfully cancelled so far (run statistic).
    pub fn timers_cancelled(&self) -> u64 {
        self.events.cancelled()
    }

    /// Attaches a progress probe the event calendar publishes into while
    /// the simulation runs (see [`flexpass_simcore::progress`]). Purely
    /// observational — cannot change any simulated outcome.
    pub fn attach_progress(&mut self, probe: std::sync::Arc<flexpass_simcore::ProgressProbe>) {
        self.events.attach_probe(std::sync::Arc::clone(&probe));
        self.progress = Some(probe);
    }

    /// Number of flows that have completed (receiver side).
    pub fn flows_completed(&self) -> usize {
        self.completed
    }

    /// Number of flows scheduled.
    pub fn flows_scheduled(&self) -> usize {
        self.flows.len()
    }

    /// Number of flows whose endpoints have been created so far.
    pub fn flows_started(&self) -> usize {
        self.started
    }

    /// Enables periodic queue sampling with the given interval.
    pub fn enable_sampling(&mut self, every: TimeDelta) {
        if self.sample_every.is_none() {
            self.events.schedule(self.now() + every, Event::Sample);
        }
        self.sample_every = Some(every);
    }

    /// Schedules a flow for simulation.
    ///
    /// # Panics
    ///
    /// Panics if source and destination hosts coincide or are out of range.
    pub fn schedule_flow(&mut self, spec: FlowSpec) {
        self.schedule_flow_role(spec, FlowRole::Both);
    }

    /// Schedules a flow owning only the given endpoint halves (the
    /// partitioned engine splits a cut-crossing flow across two domains).
    ///
    /// # Panics
    ///
    /// Panics if source and destination hosts coincide or are out of range.
    pub fn schedule_flow_role(&mut self, spec: FlowSpec, role: FlowRole) {
        assert!(spec.src != spec.dst, "flow to self");
        assert!(spec.src < self.hosts.len() && spec.dst < self.hosts.len());
        let idx = self.flows.len();
        self.events.schedule(spec.start, Event::FlowStart { idx });
        self.flows.push(spec);
        self.roles.push(role);
    }

    /// Runs until the calendar empties or virtual time would pass `deadline`.
    pub fn run_until(&mut self, deadline: Time) {
        while let Some(t) = self.events.peek_time() {
            if t > deadline {
                break;
            }
            let (now, ev) = self.events.pop().expect("peeked");
            self.dispatch(now, ev);
            self.maybe_publish_arena();
        }
    }

    /// Runs every event strictly before `horizon` (the conservative-sync
    /// window of the partitioned engine: the exclusive bound means two
    /// domains can never both process an event at the horizon instant, so
    /// a cross-cut arrival injected *at* the horizon is still in this
    /// domain's future).
    pub fn run_window(&mut self, horizon: Time) {
        while let Some(t) = self.events.peek_time() {
            if t >= horizon {
                break;
            }
            let (now, ev) = self.events.pop().expect("peeked");
            self.dispatch(now, ev);
            self.maybe_publish_arena();
        }
    }

    /// Earliest pending event, or `None` when the calendar is empty. The
    /// partitioned engine's per-window global minimum is computed over
    /// these.
    pub fn next_event_time(&mut self) -> Option<Time> {
        self.events.peek_time()
    }

    /// Schedules the arrival of a packet handed over from another domain:
    /// the packet value enters this domain's private arena and its Arrive
    /// event joins the local calendar. `at` is never in this domain's past
    /// — conservative synchronization guarantees cross-cut arrivals land
    /// at or beyond the window horizon.
    pub fn inject_arrival(&mut self, at: Time, node: NodeId, pkt: Packet) {
        let pid = self.arena.acquire(pkt);
        self.events.schedule(at, Event::Arrive { node, pkt: pid });
    }

    /// Instant the most recent flow completed locally (receiver side);
    /// [`Time::ZERO`] if none has. The partitioned engine takes the max
    /// across domains to anchor the post-completion grace window exactly
    /// where the serial engine would.
    pub fn last_completion(&self) -> Time {
        self.last_completion
    }

    /// Stops periodic queue sampling (partitioned runs: the engine calls
    /// this at the first window barrier after global completion, mirroring
    /// the serial engine's "stop when the local flow table completes").
    pub fn stop_sampling(&mut self) {
        self.sample_every = None;
    }

    fn maybe_publish_arena(&mut self) {
        if let Some(probe) = &self.progress {
            // Piggyback on the calendar's publication cadence.
            if self.events.popped() & (flexpass_simcore::progress::PUBLISH_EVERY - 1) == 0 {
                // lint:allow(raw-cast): slot count widened for the probe
                probe.publish_arena(self.arena.grows(), self.arena.high_water() as u64);
            }
        }
    }

    /// Runs until every scheduled flow has completed (receiver side), then
    /// keeps draining for `grace` so senders can finish their own cleanup.
    ///
    /// # Panics
    ///
    /// Panics if the calendar empties before all flows complete (lost
    /// packets with no retransmission path — a transport bug).
    pub fn run_to_completion(&mut self, grace: TimeDelta) {
        while self.completed < self.flows.len() {
            match self.events.pop() {
                Some((now, ev)) => {
                    self.dispatch(now, ev);
                    self.maybe_publish_arena();
                }
                // lint:allow(panic-path): a drained calendar with incomplete
                // flows means a transport lost its retransmission path.
                None => panic!(
                    "event queue drained with {}/{} flows incomplete",
                    self.completed,
                    self.flows.len()
                ),
            }
        }
        let deadline = self.now() + grace;
        self.run_until(deadline);
    }

    fn dispatch(&mut self, now: Time, ev: Event) {
        trace::now(now);
        match ev {
            Event::Arrive { node, pkt } => self.arrive(now, node, pkt),
            Event::PortReady { node, port } => self.port_ready(now, node, port),
            Event::Timer { host, flow, token } => {
                self.scratch.clear();
                if let Some(Node::Host(h)) = self.nodes.get_mut(host) {
                    // If this delivery consumed the armed timer for the
                    // token, retire its table entry (the handle went stale
                    // when the calendar popped the entry).
                    if let Some(hd) = h.armed_handle(token) {
                        if !self.events.is_pending(hd) {
                            h.take_armed(token);
                        }
                    }
                    let mut ctx = self.scratch.ctx(now, &mut self.arena);
                    h.fire_timer(flow, token, &mut ctx);
                } else {
                    // lint:allow(panic-path): timers are only armed by hosts
                    unreachable!("timer on a switch");
                }
                self.flush(now, host);
            }
            Event::FlowStart { idx } => self.flow_start(now, idx),
            Event::Sample => {
                // Split borrow: the switch list is read-only while the
                // observer and the reusable sample buffer mutate.
                let Sim {
                    nodes,
                    observer,
                    sample_scratch,
                    ..
                } = self;
                for (n, node) in nodes.iter().enumerate() {
                    if let Node::Switch(sw) = node {
                        for p in 0..sw.ports.len() {
                            sw.sample_port_into(p, sample_scratch);
                            observer.on_queue_sample(n, p, sample_scratch, now);
                        }
                    }
                }
                if let Some(every) = self.sample_every {
                    // Partitioned domains cannot see global completion, so
                    // they resample until the engine calls stop_sampling
                    // at the completion barrier.
                    if self.partition.is_some() || self.completed < self.flows.len() {
                        self.events.schedule(now + every, Event::Sample);
                    }
                }
            }
        }
    }

    fn arrive(&mut self, now: Time, node: NodeId, pid: PacketId) {
        audit::wire_arrive(self.arena.get(pid).expect("arriving id is live"));
        if let Some((p, rng)) = &mut self.loss {
            if matches!(self.nodes.get(node), Some(Node::Switch(_))) && rng.chance(*p) {
                self.injected_losses += 1;
                let pkt = self.arena.release(pid).expect("arriving id is live");
                audit::flow_drop(&pkt);
                trace::injected_loss(node, &pkt);
                return;
            }
        }
        match self.nodes.get_mut(node).expect("arrival node id in range") {
            Node::Switch(sw) => {
                let res = sw.receive(&mut self.arena, pid);
                match res {
                    Ok(port_idx) => {
                        let idle = sw
                            .ports
                            .get(port_idx)
                            .is_some_and(|p| p.busy_until.is_none());
                        if idle {
                            self.events.schedule(
                                now,
                                Event::PortReady {
                                    node,
                                    port: port_idx,
                                },
                            );
                        }
                    }
                    Err((reason, pid)) => {
                        let pkt = self.arena.release(pid).expect("dropped id is live");
                        audit::flow_drop(&pkt);
                        trace::dropped(node, &pkt, reason);
                        self.observer.on_drop(&pkt, reason, node, now)
                    }
                }
            }
            Node::Host(h) => {
                // Copy the packet out and retire its slot before the
                // endpoint callback: the ctx holds `&mut arena` so the
                // endpoint can stage replies into fresh slots.
                let pkt = self.arena.release(pid).expect("arriving id is live");
                debug_assert_eq!(h.host_id, pkt.dst, "misrouted packet");
                audit::flow_rx(&pkt);
                if pkt.is_data() {
                    self.observer.on_delivered(&pkt, now);
                }
                self.scratch.clear();
                {
                    let mut ctx = self.scratch.ctx(now, &mut self.arena);
                    h.deliver(&pkt, &mut ctx);
                }
                self.flush(now, node);
            }
        }
    }

    fn port_ready(&mut self, now: Time, node: NodeId, port: usize) {
        let n = self
            .nodes
            .get_mut(node)
            .expect("port-ready node id in range");
        let p = n.port_mut(port);
        // Clear any wake bookkeeping that is now in the past. This must
        // happen even on the early busy-return below: a shaper wake that
        // fires while the port is mid-transmission would otherwise leave
        // `pending_wake` stale forever, suppressing all future WaitUntil
        // scheduling — with a full shaped queue (arrivals dropped, so no
        // enqueue kicks either) the port would deadlock.
        if let Some(w) = p.pending_wake {
            if w <= now {
                p.pending_wake = None;
            }
        }
        if let Some(t) = p.busy_until {
            if t > now {
                return; // Still serializing; the end-of-tx event will come.
            }
        }
        p.busy_until = None;
        let decision = n.next_packet(port, &mut self.arena, now);
        let p = n.port_mut(port);
        match decision {
            Decision::Send(pid) => {
                let wire = self.arena.get(pid).expect("sent id is live").wire;
                let ser = p.serialize(wire);
                let peer = p.peer;
                let prop = p.prop;
                p.busy_until = Some(now + ser);
                audit::wire_depart(self.arena.get(pid).expect("sent id is live"));
                self.events
                    .schedule(now + ser, Event::PortReady { node, port });
                if self.is_foreign(peer) {
                    // The link crosses a domain cut: the packet leaves this
                    // domain's arena (its id dies here — generation safety
                    // survives the handoff) and rides the outbox to the
                    // peer domain, where it re-enters that domain's arena.
                    let pkt = self.arena.release(pid).expect("sent id is live");
                    self.outbox.push((now + ser + prop, peer, pkt));
                } else {
                    self.events.schedule(
                        now + ser + prop,
                        Event::Arrive {
                            node: peer,
                            pkt: pid,
                        },
                    );
                }
            }
            Decision::WaitUntil(t) => {
                if p.pending_wake.is_none_or(|w| t < w) {
                    p.pending_wake = Some(t);
                    self.events.schedule(t, Event::PortReady { node, port });
                }
            }
            Decision::Idle => {}
        }
    }

    fn flow_start(&mut self, now: Time, idx: usize) {
        self.started += 1;
        let spec = *self.flows.get(idx).expect("flow index from schedule_flow");
        let role = *self.roles.get(idx).expect("role recorded per flow");
        self.observer.on_flow_start(&spec, now);

        // Receiver first so the sender's first packet finds it (for a
        // split flow the halves start in different domains; the cut's
        // lookahead guarantees the first packet still arrives after the
        // receiver's own FlowStart at the same instant has run).
        if matches!(role, FlowRole::Both | FlowRole::Receiver) {
            let receiver = self.factory.receiver(&spec, &self.env);
            self.register_endpoint(now, spec.dst, spec.id, receiver);
        }
        if matches!(role, FlowRole::Both | FlowRole::Sender) {
            let sender = self.factory.sender(&spec, &self.env);
            self.register_endpoint(now, spec.src, spec.id, sender);
        }
    }

    fn register_endpoint(
        &mut self,
        now: Time,
        host_id: usize,
        flow: FlowId,
        ep: Box<dyn Endpoint>,
    ) {
        let node = *self.hosts.get(host_id).expect("host id in range");
        self.scratch.clear();
        if let Some(Node::Host(h)) = self.nodes.get_mut(node) {
            let mut ctx = self.scratch.ctx(now, &mut self.arena);
            h.register(flow, ep, &mut ctx);
        } else {
            // lint:allow(panic-path): topology construction pins host ids
            unreachable!("host id maps to a non-host node");
        }
        self.flush(now, node);
    }

    /// Drains the scratch buffers after a host callback: transmit packets
    /// through the NIC, schedule timers, surface app events.
    fn flush(&mut self, now: Time, node: NodeId) {
        let mut scratch = std::mem::take(&mut self.scratch);
        for pid in scratch.tx.drain(..) {
            audit::flow_tx(self.arena.get(pid).expect("staged tx id is live"));
            let res = match self.nodes.get_mut(node).expect("flush node id in range") {
                Node::Host(h) => h.nic_enqueue(&mut self.arena, pid),
                // lint:allow(panic-path): flush is only called for hosts
                Node::Switch(_) => unreachable!("flush on a switch"),
            };
            match res {
                Ok(_q) => {
                    let nic_idle = self
                        .nodes
                        .get(node)
                        .is_some_and(|n| n.port(0).busy_until.is_none());
                    if nic_idle {
                        self.events
                            .schedule(now, Event::PortReady { node, port: 0 });
                    }
                }
                Err((reason, pid)) => {
                    let pkt = self.arena.release(pid).expect("dropped id is live");
                    audit::flow_drop(&pkt);
                    trace::dropped(node, &pkt, reason);
                    self.observer.on_drop(&pkt, reason, node, now)
                }
            }
        }
        if !scratch.timers.is_empty() {
            let h = match self.nodes.get_mut(node).expect("flush node id in range") {
                Node::Host(h) => h,
                // lint:allow(panic-path): flush is only called for hosts
                Node::Switch(_) => unreachable!("flush on a switch"),
            };
            for cmd in scratch.timers.drain(..) {
                // The flow a timer belongs to rides in the token's high
                // bits (tokens are namespaced per endpoint; see
                // [`timer_token`]).
                match cmd {
                    TimerCmd::Set(at, token) => {
                        self.events.schedule(
                            at.max(now),
                            Event::Timer {
                                host: node,
                                flow: token >> 16,
                                token,
                            },
                        );
                    }
                    TimerCmd::Arm(at, token) => {
                        if let Some(old) = h.take_armed(token) {
                            self.events.cancel(old);
                        }
                        let hd = self.events.schedule_cancelable(
                            at.max(now),
                            Event::Timer {
                                host: node,
                                flow: token >> 16,
                                token,
                            },
                        );
                        h.arm_timer(token, hd);
                    }
                    TimerCmd::Cancel(token) => {
                        if let Some(old) = h.take_armed(token) {
                            self.events.cancel(old);
                            trace::timer_cancel(token);
                        }
                    }
                }
            }
        }
        for ev in scratch.app.drain(..) {
            if matches!(ev, AppEvent::FlowCompleted { .. }) {
                self.completed += 1;
                self.last_completion = now;
            }
            self.observer.on_app_event(&ev, now);
        }
        // Prove the scratch buffers are reused, not replaced: capacity may
        // only grow (warm-up), never shrink.
        if audit::is_active() {
            let (tx, timers, app) = scratch.capacities();
            let [tx_id, timers_id, app_id] = self.scratch_audit;
            audit::scratch_capacity(tx_id, tx as u64);
            audit::scratch_capacity(timers_id, timers as u64);
            audit::scratch_capacity(app_id, app as u64);
        }
        self.scratch = scratch;
    }
}

/// Builds a timer token namespaced by flow id: the simulator routes the
/// timer back to the owning endpoint via the high bits.
///
/// # Examples
///
/// ```
/// use flexpass_simnet::sim::timer_token;
///
/// let t = timer_token(42, 3);
/// assert_eq!(t >> 16, 42);
/// assert_eq!(t & 0xFFFF, 3);
/// ```
pub fn timer_token(flow: FlowId, kind: u16) -> u64 {
    (flow << 16) | kind as u64
}

/// Extracts the endpoint-local kind from a timer token.
pub fn timer_kind(token: u64) -> u16 {
    (token & 0xFFFF) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::{data_wire_bytes, packets_for, payload_of_packet, CTRL_WIRE};
    use crate::endpoint::{EndpointCtx, RxStats, TxStats};
    use crate::packet::{DataInfo, Payload, Subflow, TrafficClass};
    use crate::port::{PortConfig, QueueSched};
    use crate::queue::QueueConfig;
    use crate::switch::ClassMap;
    use crate::switch::SwitchProfile;
    use crate::topology::ClosParams;
    use flexpass_simcore::units::{Bytes, WireBytes};

    fn profile(rate: Rate) -> SwitchProfile {
        SwitchProfile {
            port: PortConfig {
                rate,
                queues: vec![(QueueConfig::plain(), QueueSched::strict(0))],
            },
            class_map: ClassMap::Single,
            shared_buffer: None,
        }
    }

    /// A trivially simple transport: the sender blasts every packet at once
    /// (no congestion control); the receiver counts bytes and completes.
    struct BlastSender {
        spec: FlowSpec,
        sent: bool,
    }

    impl Endpoint for BlastSender {
        fn activate(&mut self, ctx: &mut EndpointCtx) {
            let n = packets_for(self.spec.size);
            for i in 0..n.get() {
                let pay = payload_of_packet(self.spec.size, i);
                ctx.send(Packet::new(
                    self.spec.id,
                    self.spec.src,
                    self.spec.dst,
                    data_wire_bytes(pay),
                    TrafficClass::Legacy,
                    Payload::Data(DataInfo {
                        flow_seq: i,
                        sub_seq: i,
                        sub: Subflow::Only,
                        payload: pay,
                        retx: false,
                    }),
                ));
            }
            self.sent = true;
            ctx.emit(AppEvent::SenderDone {
                flow: self.spec.id,
                stats: TxStats::default(),
            });
        }
        fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut EndpointCtx) {}
        fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}
        fn finished(&self) -> bool {
            self.sent
        }
    }

    struct CountReceiver {
        spec: FlowSpec,
        got: Bytes,
        done: bool,
    }

    impl Endpoint for CountReceiver {
        fn activate(&mut self, _ctx: &mut EndpointCtx) {}
        fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
            self.got += pkt.payload_bytes();
            if self.got >= self.spec.size && !self.done {
                self.done = true;
                ctx.emit(AppEvent::FlowCompleted {
                    flow: self.spec.id,
                    stats: RxStats::default(),
                });
            }
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}
        fn finished(&self) -> bool {
            self.done
        }
    }

    struct BlastFactory;

    impl TransportFactory for BlastFactory {
        fn sender(&mut self, flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
            Box::new(BlastSender {
                spec: *flow,
                sent: false,
            })
        }
        fn receiver(&mut self, flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
            Box::new(CountReceiver {
                spec: *flow,
                got: Bytes::ZERO,
                done: false,
            })
        }
    }

    struct FctObserver {
        start: Time,
        done_at: Option<Time>,
    }

    impl NetObserver for FctObserver {
        fn on_flow_start(&mut self, _spec: &FlowSpec, now: Time) {
            self.start = now;
        }
        fn on_app_event(&mut self, ev: &AppEvent, now: Time) {
            if matches!(ev, AppEvent::FlowCompleted { .. }) {
                self.done_at = Some(now);
            }
        }
    }

    fn flow(id: u64, src: usize, dst: usize, size: u64, start: Time) -> FlowSpec {
        FlowSpec {
            id,
            src,
            dst,
            size: Bytes::new(size),
            start,
            tag: 0,
            fg: false,
        }
    }

    /// The whole driver must be `Send` so one sweep point can run on a
    /// worker thread: `Endpoint` and `TransportFactory` carry `Send`
    /// supertraits, everything else is owned data. A compile-time check.
    #[test]
    fn sim_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Sim<NullObserver>>();
        assert_send::<Box<dyn TransportFactory>>();
        assert_send::<Box<dyn Endpoint>>();
    }

    /// Regression: the hinted arena preallocation was capped at a fixed
    /// 65,536 slots tuned for the paper's 192-host fabric, silently
    /// undersizing 10k-host topologies (forcing warm-path growth). The
    /// cap now scales with host count; small fabrics keep the old bound.
    #[test]
    fn arena_hint_cap_scales_with_host_count() {
        let deep = SwitchProfile {
            port: PortConfig {
                rate: Rate::from_gbps(10),
                queues: vec![(
                    QueueConfig::capped(WireBytes::new(10_000_000)),
                    QueueSched::strict(0),
                )],
            },
            class_map: ClassMap::Single,
            shared_buffer: None,
        };
        let mk = |hosts: usize| {
            let topo = Topology::star(
                hosts,
                Rate::from_gbps(10),
                TimeDelta::micros(5),
                &deep,
                &deep,
            );
            Sim::new(topo, Box::new(BlastFactory), NullObserver)
        };
        // Small fabric: the hinted sum exceeds every cap, so the old
        // fixed bound still applies.
        assert_eq!(mk(128).arena_stats().2, 65_536);
        // Large fabric: the cap follows host count instead of clamping.
        assert_eq!(mk(4_096).arena_stats().2, 4_096 * 32);
    }

    #[test]
    fn single_flow_fct_matches_hand_calculation() {
        let p = profile(Rate::from_gbps(10));
        let topo = Topology::star(2, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let mut sim = Sim::new(
            topo,
            Box::new(BlastFactory),
            FctObserver {
                start: Time::ZERO,
                done_at: None,
            },
        );
        // 10 packets of 1460 B = 14,600 B.
        sim.schedule_flow(flow(1, 0, 1, 14_600, Time::from_micros(100)));
        sim.run_to_completion(TimeDelta::millis(1));
        // Hand calculation: 10 packets of 1538 B at 10 Gbps serialize in
        // 1230.4 ns each. Host NIC pipeline + switch: last packet leaves NIC
        // at 100us + 10*1230.4ns, arrives switch +5us +1230.4ns (store and
        // forward), leaves switch immediately after, arrives host +5us.
        let done = sim.observer.done_at.expect("flow completed");
        let expect_ns = 100_000.0 + 10.0 * 1230.4 + 5_000.0 + 1230.4 + 5_000.0;
        let got = done.as_nanos() as f64;
        assert!(
            (got - expect_ns).abs() < 10.0,
            "FCT {got} ns vs expected {expect_ns} ns"
        );
    }

    #[test]
    fn flows_complete_across_clos() {
        let p = profile(Rate::from_gbps(40));
        let topo = Topology::clos(ClosParams::small(), &p, &p);
        let n = topo.hosts.len();
        let mut sim = Sim::new(topo, Box::new(BlastFactory), NullObserver);
        for i in 0..20u64 {
            let src = (i as usize * 7) % n;
            let dst = (src + 1 + (i as usize * 13) % (n - 1)) % n;
            sim.schedule_flow(flow(i, src, dst, 50_000 + i * 1000, Time::from_micros(i)));
        }
        sim.run_to_completion(TimeDelta::millis(1));
        assert_eq!(sim.flows_completed(), 20);
    }

    #[test]
    fn drops_reported_when_buffer_overflows() {
        // Tiny switch queues force drops with a blast sender.
        let mut p = profile(Rate::from_gbps(10));
        p.port.queues[0].0 = QueueConfig::capped(WireBytes::new(20_000));
        let host_p = profile(Rate::from_gbps(10));
        let topo = Topology::star(3, Rate::from_gbps(10), TimeDelta::micros(5), &p, &host_p);

        struct DropCount {
            drops: u64,
        }
        impl NetObserver for DropCount {
            fn on_drop(&mut self, _p: &Packet, _r: DropReason, _n: NodeId, _now: Time) {
                self.drops += 1;
            }
        }

        let mut sim = Sim::new(topo, Box::new(BlastFactory), DropCount { drops: 0 });
        // Two senders to one receiver at the same instant: the 10 Gbps
        // access link to host 2 must overflow the 20 kB queue.
        sim.schedule_flow(flow(1, 0, 2, 1_000_000, Time::ZERO));
        sim.schedule_flow(flow(2, 1, 2, 1_000_000, Time::ZERO));
        sim.run_until(Time::from_millis(50));
        assert!(sim.observer.drops > 0, "expected buffer drops");
    }

    #[test]
    fn timer_roundtrip() {
        struct TimerEp {
            fired: bool,
            flow: FlowId,
        }
        impl Endpoint for TimerEp {
            fn activate(&mut self, ctx: &mut EndpointCtx) {
                ctx.set_timer(ctx.now + TimeDelta::micros(50), timer_token(self.flow, 1));
            }
            fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut EndpointCtx) {}
            fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
                assert_eq!(timer_kind(token), 1);
                self.fired = true;
                ctx.emit(AppEvent::FlowCompleted {
                    flow: self.flow,
                    stats: RxStats::default(),
                });
            }
            fn finished(&self) -> bool {
                self.fired
            }
        }
        struct TimerFactory;
        impl TransportFactory for TimerFactory {
            fn sender(&mut self, flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
                Box::new(TimerEp {
                    fired: false,
                    flow: flow.id,
                })
            }
            fn receiver(&mut self, flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
                Box::new(TimerEp {
                    fired: false,
                    flow: flow.id,
                })
            }
        }
        let p = profile(Rate::from_gbps(10));
        let topo = Topology::star(2, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let mut sim = Sim::new(topo, Box::new(TimerFactory), NullObserver);
        sim.schedule_flow(flow(3, 0, 1, 100, Time::from_micros(10)));
        sim.run_until(Time::from_millis(1));
        assert_eq!(sim.flows_completed(), 2); // Both halves emitted.
        assert_eq!(sim.now(), Time::from_micros(60));
    }

    /// The cancellable-timer protocol end to end: `arm_timer` replaces a
    /// previously armed token (the old deadline never fires), `cancel_timer`
    /// suppresses delivery entirely, and once a timer fires its slot leaves
    /// the host's armed-timer table.
    #[test]
    fn cancellable_timers_cancel_and_rearm_via_sim() {
        #[derive(Default)]
        struct Seen {
            b_fired: Vec<Time>,
            c_fired: u32,
        }
        struct Ep {
            flow: FlowId,
            seen: std::sync::Arc<std::sync::Mutex<Seen>>,
            done: bool,
        }
        impl Endpoint for Ep {
            fn activate(&mut self, ctx: &mut EndpointCtx) {
                // Plain driver timer (kind 1) plus two cancellable ones:
                // B (kind 2) to be re-armed later, C (kind 3) to be
                // cancelled outright.
                ctx.set_timer(ctx.now + TimeDelta::micros(50), timer_token(self.flow, 1));
                ctx.arm_timer(ctx.now + TimeDelta::micros(60), timer_token(self.flow, 2));
                ctx.arm_timer(ctx.now + TimeDelta::micros(70), timer_token(self.flow, 3));
            }
            fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut EndpointCtx) {}
            fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
                match timer_kind(token) {
                    1 => {
                        // Push B from 60 us out to 140 us and kill C.
                        ctx.arm_timer(ctx.now + TimeDelta::micros(90), timer_token(self.flow, 2));
                        ctx.cancel_timer(timer_token(self.flow, 3));
                    }
                    2 => {
                        self.seen.lock().expect("lock").b_fired.push(ctx.now);
                        if !self.done {
                            self.done = true;
                            ctx.emit(AppEvent::FlowCompleted {
                                flow: self.flow,
                                stats: RxStats::default(),
                            });
                        }
                    }
                    3 => self.seen.lock().expect("lock").c_fired += 1,
                    _ => unreachable!(),
                }
            }
            fn finished(&self) -> bool {
                self.done
            }
        }
        struct F(std::sync::Arc<std::sync::Mutex<Seen>>);
        impl TransportFactory for F {
            fn sender(&mut self, flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
                Box::new(Ep {
                    flow: flow.id,
                    seen: self.0.clone(),
                    done: false,
                })
            }
            fn receiver(&mut self, flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
                Box::new(Ep {
                    flow: flow.id,
                    seen: self.0.clone(),
                    done: false,
                })
            }
        }
        let p = profile(Rate::from_gbps(10));
        let topo = Topology::star(2, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Seen::default()));
        let mut sim = Sim::new(topo, Box::new(F(seen.clone())), NullObserver);
        sim.schedule_flow(flow(4, 0, 1, 100, Time::ZERO));
        sim.run_until(Time::from_millis(1));
        // Both endpoints saw B fire exactly once, at the re-armed instant
        // (50 + 90 us) rather than the original 60 us; C never fired.
        {
            let s = seen.lock().expect("lock");
            assert_eq!(
                s.b_fired.as_slice(),
                &[Time::from_micros(140), Time::from_micros(140)]
            );
            assert_eq!(s.c_fired, 0, "cancelled timer fired");
        }
        // Delivered + cancelled timers all left each host's table.
        for n in [sim.hosts[0], sim.hosts[1]] {
            if let Node::Host(h) = &sim.nodes[n] {
                assert_eq!(h.armed_timers(), 0, "armed-timer table not drained");
            }
        }
        // Each endpoint cancelled C and replaced B once: 2 endpoints x 2.
        assert_eq!(sim.timers_cancelled(), 4);
    }

    #[test]
    fn sampling_emits_queue_samples() {
        struct SampleCount {
            n: u64,
        }
        impl NetObserver for SampleCount {
            fn on_queue_sample(
                &mut self,
                _node: NodeId,
                _port: usize,
                _s: &QueueSample,
                _now: Time,
            ) {
                self.n += 1;
            }
        }
        let p = profile(Rate::from_gbps(10));
        let topo = Topology::star(2, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        let mut sim = Sim::new(topo, Box::new(BlastFactory), SampleCount { n: 0 });
        sim.enable_sampling(TimeDelta::micros(100));
        sim.schedule_flow(flow(1, 0, 1, 1_000_000, Time::ZERO));
        sim.run_to_completion(TimeDelta::ZERO);
        // 1 MB at 10 Gbps takes ~822 us; expect ~8 ticks x 2 ports.
        assert!(sim.observer.n >= 10, "samples {}", sim.observer.n);
    }

    #[test]
    fn control_packet_sizes_obeyed() {
        let wire = CTRL_WIRE;
        assert!(
            wire < WireBytes::new(100),
            "control packets must fit a minimum frame"
        );
    }

    /// Regression test: a shaper wake that fires while the port is busy
    /// must not leave stale `pending_wake` bookkeeping behind. With the
    /// bug, a shaped queue whose arrivals are dropped (full cap) would
    /// never be served again and its packets never delivered.
    #[test]
    fn shaped_queue_drains_after_wake_lands_mid_transmission() {
        use crate::packet::CreditInfo;
        use crate::port::QueueSched;

        struct Burst {
            flow: FlowId,
            sent_data: bool,
        }
        impl Endpoint for Burst {
            fn activate(&mut self, ctx: &mut EndpointCtx) {
                // Five credits into the shaped Q0: the first drains the
                // token burst; the rest must wait for refills.
                for i in 0..5 {
                    ctx.send(Packet::new(
                        self.flow,
                        0,
                        1,
                        CTRL_WIRE,
                        TrafficClass::Credit,
                        Payload::Credit(CreditInfo { idx: i }),
                    ));
                }
                // A large data packet lands while the shaper wake is
                // pending; its serialization swallows the wake event.
                ctx.set_timer(ctx.now + TimeDelta::micros(100), timer_token(self.flow, 1));
            }
            fn on_packet(&mut self, _p: &Packet, _ctx: &mut EndpointCtx) {}
            fn on_timer(&mut self, _t: u64, ctx: &mut EndpointCtx) {
                self.sent_data = true;
                ctx.send(Packet::new(
                    self.flow,
                    0,
                    1,
                    crate::consts::DATA_WIRE,
                    TrafficClass::Legacy,
                    Payload::CreditStop,
                ));
            }
            fn finished(&self) -> bool {
                false
            }
        }

        struct Count {
            credits: u32,
        }
        impl Endpoint for Count {
            fn activate(&mut self, _ctx: &mut EndpointCtx) {}
            fn on_packet(&mut self, p: &Packet, _ctx: &mut EndpointCtx) {
                if matches!(p.payload, Payload::Credit(_)) {
                    self.credits += 1;
                }
            }
            fn on_timer(&mut self, _t: u64, _ctx: &mut EndpointCtx) {}
            fn finished(&self) -> bool {
                false
            }
        }

        struct F;
        impl TransportFactory for F {
            fn sender(&mut self, flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
                Box::new(Burst {
                    flow: flow.id,
                    sent_data: false,
                })
            }
            fn receiver(&mut self, _flow: &FlowSpec, _env: &NetEnv) -> Box<dyn Endpoint> {
                Box::new(Count { credits: 0 })
            }
        }

        // Slow 10 Mbps line so the data packet serializes for 1.23 ms;
        // credit shaper at 1 Mbps with an 84 B burst.
        let sw = SwitchProfile {
            port: PortConfig {
                rate: Rate::from_mbps(10),
                queues: vec![
                    (
                        QueueConfig::capped(WireBytes::new(1_000)),
                        QueueSched::strict(0).shaped(Rate::from_mbps(1), CTRL_WIRE),
                    ),
                    (QueueConfig::plain(), QueueSched::strict(1)),
                ],
            },
            class_map: ClassMap::Split {
                credit: 0,
                new_data: 1,
                new_ctrl: 1,
                legacy: 1,
            },
            shared_buffer: None,
        };
        let topo = Topology::star(2, Rate::from_mbps(10), TimeDelta::micros(5), &sw, &sw);
        let mut sim = Sim::new(topo, Box::new(F), NullObserver);
        sim.schedule_flow(FlowSpec {
            id: 1,
            src: 0,
            dst: 1,
            size: Bytes::new(100),
            start: Time::ZERO,
            tag: 0,
            fg: false,
        });
        sim.run_until(Time::from_millis(50));
        // All five credits must eventually reach host 1 despite the wake
        // being swallowed by the data transmission.
        if let Node::Host(h) = &sim.nodes[sim.hosts[1]] {
            // Count endpoint holds the tally; verify no backlog remains.
            assert!(!h.nic.has_backlog());
        }
        let backlog: WireBytes = (0..sim.nodes.len())
            .map(|n| match &sim.nodes[n] {
                Node::Switch(s) => s.ports.iter().map(|p| p.backlog_bytes()).sum(),
                Node::Host(h) => h.nic.backlog_bytes(),
            })
            .sum();
        assert_eq!(
            backlog,
            WireBytes::ZERO,
            "shaped queue wedged with {backlog}"
        );
    }

    #[test]
    fn cross_cut_handoff_rejects_stale_ids() {
        // Generation safety across the domain cut: a packet leaving on a
        // cut link is released from the sender domain's arena (its id dies
        // there) and re-acquired by the receiver domain's `inject_arrival`
        // under a fresh generation. Ids minted before either transition
        // must stay dead even after the slot is reused. Two full Sims
        // stand in for the two domains of a star fabric split as
        // {host 0, switch} / {host 1}.
        let p = profile(Rate::from_gbps(10));
        let mk = || Topology::star(2, Rate::from_gbps(10), TimeDelta::micros(5), &p, &p);
        // Star node order: node 0 is the switch, hosts follow.
        let domain_of = std::sync::Arc::new(vec![0u32, 0, 1]);
        let mut a = Sim::new(mk(), Box::new(BlastFactory), NullObserver);
        a.set_partition(PartitionCtx {
            domain_of: domain_of.clone(),
            me: 0,
        });
        let mut b = Sim::new(mk(), Box::new(BlastFactory), NullObserver);
        b.set_partition(PartitionCtx { domain_of, me: 1 });
        let spec = flow(7, 0, 1, 4_000, Time::ZERO);
        a.schedule_flow_role(spec, FlowRole::Sender);
        b.schedule_flow_role(spec, FlowRole::Receiver);

        // Sender side: a probe id acquired and released before the run
        // leaves its slot on top of the free list, so the engine's first
        // data packet reuses it under a bumped generation. The stale probe
        // must never alias the live packet, during the run or after the
        // cut branch releases it into the outbox.
        let probe_pkt = || {
            Packet::new(
                99,
                0,
                1,
                CTRL_WIRE,
                TrafficClass::Legacy,
                Payload::CreditStop,
            )
        };
        let probe_a = a.arena.acquire(probe_pkt());
        assert!(a.arena.release(probe_a).is_some());
        a.run_until(Time::from_micros(100));
        assert!(
            a.arena.get(probe_a).is_none(),
            "stale id revived in domain 0"
        );
        let records: Vec<(Time, NodeId, Packet)> = a.outbox.drain(..).collect();
        assert!(!records.is_empty(), "no packets crossed the cut");
        assert_eq!(a.arena.live(), 0, "handoff must release the sender slot");

        // Receiver side: the same probe trick on the peer arena, then the
        // real handoff path. `inject_arrival` re-acquires the released
        // slot, so the pre-handoff id must be rejected while the
        // handed-off packet is live in that slot.
        let probe_b = b.arena.acquire(probe_pkt());
        assert!(b.arena.release(probe_b).is_some());
        for (at, node, pkt) in records {
            b.inject_arrival(at, node, pkt);
        }
        assert!(b.arena.live() > 0, "injected packets must be live");
        assert!(
            b.arena.get(probe_b).is_none(),
            "stale id aliases a handed-off packet"
        );
        b.run_until(Time::from_micros(200));
        assert_eq!(b.flows_completed(), 1, "receiver half must complete");
        assert!(
            b.arena.get(probe_b).is_none(),
            "stale id revived in domain 1"
        );
    }
}
