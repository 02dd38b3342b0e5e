//! Outside-in layer attribution: delegating wrappers around the simulator's
//! public seams.
//!
//! [`TracedFactory`] wraps a [`TransportFactory`] and every endpoint it
//! builds; [`TracedObserver`] wraps a [`NetObserver`]. Each forwards every
//! trait method unchanged (including `activate`, `finished` and
//! `try_clone`, so a wrapped factory still partitions onto the parallel
//! engine) and counts calls. Only one call in [`SAMPLE_EVERY`] is timed:
//! two clock reads per callback would roughly double the cost of the
//! datapath being measured. The wrappers read nothing back into the
//! simulation, so a traced run must produce the same digest as an
//! untraced one; the benchmark checks that on every traced run.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use flexpass_metrics::Recorder;
use flexpass_simcore::time::Time;
use flexpass_simnet::endpoint::{AppEvent, Endpoint, EndpointCtx};
use flexpass_simnet::sim::{NetEnv, NetObserver, NodeId, TransportFactory};
use flexpass_simnet::{DropReason, FlowSpec, Packet, QueueSample};

/// One callback in this many is timed.
pub const SAMPLE_EVERY: u32 = 64;

thread_local! {
    /// Per-thread sampling tick shared by every wrapper on the thread, so
    /// the sample is spread across callback kinds in execution order.
    static TICK: Cell<u32> = const { Cell::new(0) };
}

fn take_sample() -> bool {
    TICK.with(|t| {
        let v = t.get().wrapping_add(1);
        t.set(v);
        v % SAMPLE_EVERY == 0
    })
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Call count of one seam plus the timed sample of those calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallStats {
    /// Calls made.
    pub calls: u64,
    /// Calls that were timed.
    pub timed: u64,
    /// Host nanoseconds spent inside the timed calls.
    pub timed_ns: u64,
}

impl CallStats {
    /// Runs `f`, counting the call and timing it if it is sampled.
    #[inline]
    fn sampled<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if !take_sample() {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.timed_ns += nanos_since(start);
        self.timed += 1;
        r
    }

    /// Runs `f`, counting and timing every call (for seams hit once per
    /// flow, where a 1-in-64 sample would often be empty).
    fn every<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.timed_ns += nanos_since(start);
        self.timed += 1;
        self.calls += 1;
        r
    }

    /// Mean host nanoseconds per timed call (0 when nothing was timed).
    pub fn ns_per_call(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.timed_ns as f64 / self.timed as f64
        }
    }

    /// Estimated host nanoseconds spent in all calls.
    pub fn est_total_ns(&self) -> f64 {
        self.ns_per_call() * self.calls as f64
    }

    /// Adds another tally into this one.
    pub fn add(&mut self, o: &CallStats) {
        self.calls += o.calls;
        self.timed += o.timed;
        self.timed_ns += o.timed_ns;
    }
}

/// Transport-layer tallies of one flow class.
#[derive(Clone, Copy, Debug, Default)]
pub struct EndpointStats {
    /// `TransportFactory::sender`/`receiver` (endpoint construction).
    pub build: CallStats,
    /// `Endpoint::activate`.
    pub activate: CallStats,
    /// `Endpoint::on_packet`.
    pub on_packet: CallStats,
    /// `Endpoint::on_timer`.
    pub on_timer: CallStats,
}

impl EndpointStats {
    /// Adds another tally into this one.
    pub fn add(&mut self, o: &EndpointStats) {
        self.build.add(&o.build);
        self.activate.add(&o.activate);
        self.on_packet.add(&o.on_packet);
        self.on_timer.add(&o.on_timer);
    }

    /// Estimated host nanoseconds spent inside the transport layer.
    pub fn est_total_ns(&self) -> f64 {
        self.build.est_total_ns()
            + self.activate.est_total_ns()
            + self.on_packet.est_total_ns()
            + self.on_timer.est_total_ns()
    }
}

/// Transport tallies split by flow tag: index 0 is legacy (tag 0), index 1
/// every other tag (upgraded flows).
pub type TransportTotals = [EndpointStats; 2];

/// Shared sink the wrappers flush into: endpoints when they are dropped, so
/// the hot path touches only endpoint-local counters.
pub type TransportSink = Arc<Mutex<TransportTotals>>;

fn tag_class(flow: &FlowSpec) -> usize {
    usize::from(flow.tag != 0)
}

fn flush(sink: &TransportSink, class: usize, stats: &EndpointStats) {
    // Drop must not panic: a poisoned sink only loses statistics.
    if let Ok(mut totals) = sink.lock() {
        if let Some(t) = totals.get_mut(class) {
            t.add(stats);
        }
    }
}

/// A [`TransportFactory`] that wraps every endpoint it builds.
pub struct TracedFactory {
    inner: Box<dyn TransportFactory>,
    sink: TransportSink,
}

impl TracedFactory {
    /// Wraps `inner`, flushing tallies into `sink`.
    pub fn new(inner: Box<dyn TransportFactory>, sink: TransportSink) -> Self {
        TracedFactory { inner, sink }
    }

    /// Times one endpoint construction (once per flow half, so every call
    /// is timed and flushed at once) and wraps the result.
    fn build(
        &mut self,
        flow: &FlowSpec,
        make: impl FnOnce(&mut dyn TransportFactory) -> Box<dyn Endpoint>,
    ) -> Box<dyn Endpoint> {
        let class = tag_class(flow);
        let mut stats = EndpointStats::default();
        let inner = stats.build.every(|| make(self.inner.as_mut()));
        flush(&self.sink, class, &stats);
        Box::new(TracedEndpoint {
            inner,
            class,
            sink: Arc::clone(&self.sink),
            local: EndpointStats::default(),
        })
    }
}

impl TransportFactory for TracedFactory {
    fn sender(&mut self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint> {
        self.build(flow, |f| f.sender(flow, env))
    }

    fn receiver(&mut self, flow: &FlowSpec, env: &NetEnv) -> Box<dyn Endpoint> {
        self.build(flow, |f| f.receiver(flow, env))
    }

    fn try_clone(&self) -> Option<Box<dyn TransportFactory>> {
        let inner = self.inner.try_clone()?;
        Some(Box::new(TracedFactory::new(inner, Arc::clone(&self.sink))))
    }
}

/// An [`Endpoint`] that forwards to the wrapped one and tallies its calls.
struct TracedEndpoint {
    inner: Box<dyn Endpoint>,
    class: usize,
    sink: TransportSink,
    local: EndpointStats,
}

impl Endpoint for TracedEndpoint {
    fn activate(&mut self, ctx: &mut EndpointCtx) {
        let TracedEndpoint { inner, local, .. } = self;
        local.activate.sampled(|| inner.activate(ctx));
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
        let TracedEndpoint { inner, local, .. } = self;
        local.on_packet.sampled(|| inner.on_packet(pkt, ctx));
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        let TracedEndpoint { inner, local, .. } = self;
        local.on_timer.sampled(|| inner.on_timer(token, ctx));
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }
}

impl Drop for TracedEndpoint {
    fn drop(&mut self) {
        flush(&self.sink, self.class, &self.local);
    }
}

/// Metrics-layer tallies, one per [`NetObserver`] hook.
#[derive(Clone, Copy, Debug, Default)]
pub struct HookStats {
    /// `on_flow_start`.
    pub flow_start: CallStats,
    /// `on_app_event`.
    pub app_event: CallStats,
    /// `on_delivered`.
    pub delivered: CallStats,
    /// `on_drop`.
    pub drop: CallStats,
    /// `on_queue_sample`.
    pub queue_sample: CallStats,
}

impl HookStats {
    /// Adds another tally into this one.
    pub fn add(&mut self, o: &HookStats) {
        self.flow_start.add(&o.flow_start);
        self.app_event.add(&o.app_event);
        self.delivered.add(&o.delivered);
        self.drop.add(&o.drop);
        self.queue_sample.add(&o.queue_sample);
    }

    /// Estimated host nanoseconds spent inside the observer.
    pub fn est_total_ns(&self) -> f64 {
        self.flow_start.est_total_ns()
            + self.app_event.est_total_ns()
            + self.delivered.est_total_ns()
            + self.drop.est_total_ns()
            + self.queue_sample.est_total_ns()
    }
}

/// A [`NetObserver`] that forwards to the wrapped one and tallies its hooks.
pub struct TracedObserver<O> {
    /// The wrapped observer.
    pub inner: O,
    /// Hook tallies.
    pub hooks: HookStats,
}

impl<O: NetObserver> NetObserver for TracedObserver<O> {
    fn on_flow_start(&mut self, spec: &FlowSpec, now: Time) {
        let TracedObserver { inner, hooks } = self;
        hooks.flow_start.sampled(|| inner.on_flow_start(spec, now));
    }

    fn on_app_event(&mut self, ev: &AppEvent, now: Time) {
        let TracedObserver { inner, hooks } = self;
        hooks.app_event.sampled(|| inner.on_app_event(ev, now));
    }

    fn on_delivered(&mut self, pkt: &Packet, now: Time) {
        let TracedObserver { inner, hooks } = self;
        hooks.delivered.sampled(|| inner.on_delivered(pkt, now));
    }

    fn on_drop(&mut self, pkt: &Packet, reason: DropReason, node: NodeId, now: Time) {
        let TracedObserver { inner, hooks } = self;
        hooks.drop.sampled(|| inner.on_drop(pkt, reason, node, now));
    }

    fn on_queue_sample(&mut self, node: NodeId, port: usize, sample: &QueueSample, now: Time) {
        let TracedObserver { inner, hooks } = self;
        hooks
            .queue_sample
            .sampled(|| inner.on_queue_sample(node, port, sample, now));
    }
}

/// How a rep is instrumented: the plain program, or the wrapped seams.
/// Workloads are generic over this so the untraced path runs exactly the
/// simulator's own types.
pub trait Instrument: Default {
    /// The observer type the simulator is built with.
    type Obs: NetObserver + Send + 'static;
    /// True when the rep is traced (per-window timing is taken too).
    const TRACED: bool;
    /// Wraps a recorder as this mode's observer.
    fn observer(&self, rec: Recorder) -> Self::Obs;
    /// Wraps a transport factory.
    fn factory(&self, f: Box<dyn TransportFactory>) -> Box<dyn TransportFactory>;
    /// The recorder inside an observer.
    fn recorder(obs: &Self::Obs) -> &Recorder;
    /// Unwraps an observer, returning its recorder and hook tallies.
    fn split(obs: Self::Obs) -> (Recorder, HookStats);
    /// Transport tallies flushed so far: complete once every simulator
    /// built through this instrument has dropped its endpoints.
    fn transport(&self) -> TransportTotals;
}

/// The untraced program: plain [`Recorder`], unwrapped factory.
#[derive(Default)]
pub struct Plain;

impl Instrument for Plain {
    type Obs = Recorder;
    const TRACED: bool = false;

    fn observer(&self, rec: Recorder) -> Recorder {
        rec
    }

    fn factory(&self, f: Box<dyn TransportFactory>) -> Box<dyn TransportFactory> {
        f
    }

    fn recorder(obs: &Recorder) -> &Recorder {
        obs
    }

    fn split(obs: Recorder) -> (Recorder, HookStats) {
        (obs, HookStats::default())
    }

    fn transport(&self) -> TransportTotals {
        TransportTotals::default()
    }
}

/// The traced program: every seam wrapped, tallies flushed into `sink`.
#[derive(Default)]
pub struct Traced {
    /// Transport tallies of every factory and endpoint built by this rep.
    pub sink: TransportSink,
}

impl Instrument for Traced {
    type Obs = TracedObserver<Recorder>;
    const TRACED: bool = true;

    fn observer(&self, rec: Recorder) -> TracedObserver<Recorder> {
        TracedObserver {
            inner: rec,
            hooks: HookStats::default(),
        }
    }

    fn factory(&self, f: Box<dyn TransportFactory>) -> Box<dyn TransportFactory> {
        Box::new(TracedFactory::new(f, Arc::clone(&self.sink)))
    }

    fn recorder(obs: &TracedObserver<Recorder>) -> &Recorder {
        &obs.inner
    }

    fn split(obs: TracedObserver<Recorder>) -> (Recorder, HookStats) {
        (obs.inner, obs.hooks)
    }

    fn transport(&self) -> TransportTotals {
        self.sink.lock().map(|t| *t).unwrap_or_default()
    }
}
