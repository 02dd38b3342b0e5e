//! The four benchmark workloads, built from a seed and driven through the
//! simulator's public API.
//!
//! Each workload is one *rep*: generate inputs, set up the simulator, run
//! the measured part, and fold the simulated results into a [`Digest`].
//! Reps are generic over [`Instrument`], so the untraced rep runs exactly
//! the simulator's own types and the traced rep the wrapped seams.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use flexpass::config::FlexPassConfig;
use flexpass::profiles::{flexpass_profile, host_variant, ProfileParams};
use flexpass::schemes::{Deployment, Scheme, SchemeFactory, TAG_LEGACY, TAG_UPGRADED};
use flexpass_experiments::orchestrate::{self, Task, TaskCtx};
use flexpass_experiments::runner::RunScale;
use flexpass_experiments::sweep::{build_flows, SweepSpec};
use flexpass_metrics::{FlowRecord, Recorder};
use flexpass_simcore::rng::SimRng;
use flexpass_simcore::time::{Rate, Time, TimeDelta};
use flexpass_simcore::units::{Bytes, WireBytes};
use flexpass_simnet::sim::{NetObserver, Node, TransportFactory};
use flexpass_simnet::topology::ClosParams;
use flexpass_simnet::{partition, FlowSpec, ParSim, Sim, Topology};
use flexpass_workload::{background, BackgroundParams, FlowSizeCdf};

use crate::digest::Digest;
use crate::stats::median;
use crate::trace::{HookStats, Instrument, Plain, TransportTotals};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["star_steady", "clos_mix", "scale_stream", "multipod_par"];

/// Per-layer values of one rep, by metric name.
pub type Layers = BTreeMap<String, f64>;

/// The outcome of one rep.
#[derive(Debug)]
pub struct Rep {
    /// Host seconds from generated inputs to a runnable simulator.
    pub setup_s: f64,
    /// Host seconds of the measured run (wall clock).
    pub run_s: f64,
    /// Simulated events in the measured run.
    pub events: u64,
    /// Simulated results.
    pub digest: Digest,
    /// Operations attempted: scheduled flows or measured windows.
    pub attempted: u64,
    /// Operations failed: incomplete flows or empty windows.
    pub failed: u64,
    /// Violated invariants (post-warm-up arena growth, leftover state).
    pub problems: Vec<String>,
    /// Per-layer values (timings only in traced reps).
    pub layers: Layers,
    /// Host milliseconds per virtual-time window (traced reps only).
    pub windows_ms: Vec<f64>,
    /// Serial-engine twin of a partitioned run: `(run_s, events)` over the
    /// same window.
    pub twin: Option<(f64, u64)>,
    /// Host speed relative to the reference during this rep (see
    /// [`crate::calib`]); set by the benchmark binary, 1 until then.
    pub speed: f64,
}

impl Default for Rep {
    fn default() -> Self {
        Rep {
            setup_s: 0.0,
            run_s: 0.0,
            events: 0,
            digest: Digest::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            layers: Layers::new(),
            windows_ms: Vec::new(),
            twin: None,
            speed: 1.0,
        }
    }
}

impl Rep {
    /// Set-up seconds at the reference host speed.
    pub fn setup_ref_s(&self) -> f64 {
        self.setup_s * self.speed
    }

    /// Run seconds at the reference host speed.
    pub fn run_ref_s(&self) -> f64 {
        self.run_s * self.speed
    }
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn add(layers: &mut Layers, key: &str, v: f64) {
    *layers.entry(key.to_string()).or_insert(0.0) += v;
}

/// Adds the public counters of a simulator's switches, ports, hosts,
/// calendar and arena.
fn count_sim<O: NetObserver>(sim: &Sim<O>, l: &mut Layers) {
    for node in &sim.nodes {
        match node {
            Node::Switch(sw) => {
                let c = sw.counters();
                add(l, "simnet.switch.forwarded", c.forwarded as f64);
                add(l, "simnet.switch.drops_buffer", c.dropped_buffer as f64);
                add(l, "simnet.switch.drops_cap", c.dropped_cap as f64);
                add(l, "simnet.switch.drops_red", c.dropped_red as f64);
                for p in &sw.ports {
                    add(l, "simnet.port.tx_pkts", p.counters().tx_pkts as f64);
                }
            }
            Node::Host(h) => {
                let c = h.counters();
                add(l, "simnet.host.stray_rx", c.stray_rx as f64);
                add(l, "simnet.host.nic_drops", c.nic_drops as f64);
                add(l, "simnet.port.tx_pkts", h.nic.counters().tx_pkts as f64);
            }
        }
    }
    let (live, high_water, _, _) = sim.arena_stats();
    add(l, "simnet.arena.high_water", high_water as f64);
    add(l, "simnet.arena.live_end", live as f64);
    add(
        l,
        "simcore.calendar.cancelled",
        sim.timers_cancelled() as f64,
    );
    add(l, "simcore.calendar.clamps", sim.schedule_clamps() as f64);
}

/// Adds the recorder's end-of-run state and the raw sums behind the
/// transport outcome ratios ([`finish`] turns them into ratios).
fn count_recorder(rec: &Recorder, l: &mut Layers) {
    add(l, "metrics.retained_samples", rec.retained_samples() as f64);
    add(l, "metrics.live_flows_end", rec.live_flows() as f64);
    add(l, "transport.timeouts", rec.total_timeouts() as f64);
    for s in rec.tx_by_tag.values() {
        add(l, "_data_bytes", s.data_bytes as f64);
        add(l, "_redundant_bytes", s.redundant_bytes as f64);
        add(l, "_credits_received", s.credits_received as f64);
        add(l, "_credits_wasted", s.credits_wasted as f64);
    }
}

/// Turns the raw sums of [`count_recorder`] into the outcome ratios.
fn finish(l: &mut Layers) {
    let mut ratio = |num: &str, den: &str| {
        let (n, d) = (l.remove(num).unwrap_or(0.0), l.remove(den).unwrap_or(0.0));
        if d > 0.0 {
            n / d
        } else {
            0.0
        }
    };
    let redundancy = ratio("_redundant_bytes", "_data_bytes");
    let waste = ratio("_credits_wasted", "_credits_received");
    l.insert("transport.redundancy_frac".into(), redundancy);
    l.insert("transport.credit_waste_frac".into(), waste);
}

/// Fills the per-call transport and metrics attribution of a traced rep.
fn attribute(l: &mut Layers, transport: &TransportTotals, hooks: &HookStats) {
    for (class, name) in ["legacy", "upgraded"].iter().enumerate() {
        let t = &transport[class];
        l.insert(format!("transport.build_ns.{name}"), t.build.ns_per_call());
        l.insert(
            format!("transport.on_packet_ns.{name}"),
            t.on_packet.ns_per_call(),
        );
        l.insert(
            format!("transport.on_timer_ns.{name}"),
            t.on_timer.ns_per_call(),
        );
        l.insert(
            format!("transport.on_packet_calls.{name}"),
            t.on_packet.calls as f64,
        );
        l.insert(
            format!("transport.on_timer_calls.{name}"),
            t.on_timer.calls as f64,
        );
    }
    for (name, c) in [
        ("on_delivered", &hooks.delivered),
        ("on_app_event", &hooks.app_event),
        ("on_flow_start", &hooks.flow_start),
        ("on_drop", &hooks.drop),
    ] {
        l.insert(format!("metrics.{name}.ns"), c.ns_per_call());
        l.insert(format!("metrics.{name}.calls"), c.calls as f64);
    }
}

/// The engine's self time: `busy_s` of simulator execution minus the
/// estimated time inside endpoint and observer callbacks, per event.
fn self_time(
    l: &mut Layers,
    busy_s: f64,
    events: u64,
    transport: &TransportTotals,
    hooks: &HookStats,
) {
    let callbacks_ns =
        transport[0].est_total_ns() + transport[1].est_total_ns() + hooks.est_total_ns();
    if events > 0 {
        l.insert(
            "simnet.engine.self_ns_per_event".into(),
            (busy_s * 1e9 - callbacks_ns).max(0.0) / events as f64,
        );
    }
}

/// Runs `sim` to `end`, timing each `step` of virtual time into `windows`
/// when given. Returns the host seconds taken.
fn run_window<O: NetObserver>(
    sim: &mut Sim<O>,
    end: Time,
    step: TimeDelta,
    windows: Option<&mut Vec<f64>>,
) -> f64 {
    let start = Instant::now();
    match windows {
        None => sim.run_until(end),
        Some(w) => {
            let mut t = sim.now();
            while t < end {
                t = (t + step).min(end);
                let s = Instant::now();
                sim.run_until(t);
                w.push(secs(s) * 1e3);
            }
        }
    }
    secs(start)
}

/// [`Sim::run_to_completion`], stepped in `step` windows of virtual time
/// when `windows` is given. Stepping processes the same events in the same
/// order: the grace drain is anchored at the last completion, which is the
/// instant the single call would stop at.
fn run_completion<O: NetObserver>(
    sim: &mut Sim<O>,
    grace: TimeDelta,
    step: TimeDelta,
    windows: Option<&mut Vec<f64>>,
) {
    let Some(w) = windows else {
        sim.run_to_completion(grace);
        return;
    };
    let mut t = sim.now();
    while sim.flows_completed() < sim.flows_scheduled() {
        if sim.next_event_time().is_none() {
            // Same outcome as the untraced call: a drained calendar with
            // incomplete flows is a transport bug.
            panic!(
                "event queue drained with {}/{} flows incomplete",
                sim.flows_completed(),
                sim.flows_scheduled()
            );
        }
        t += step;
        let s = Instant::now();
        sim.run_until(t);
        w.push(secs(s) * 1e3);
    }
    let deadline = sim.last_completion() + grace;
    sim.run_until(deadline);
}

fn windows_of(traced: bool, w: &mut Vec<f64>) -> Option<&mut Vec<f64>> {
    traced.then_some(w)
}

/// Set-up timings of one rep's simulators.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Generating the workload's flows (and deployment).
    pub generate_s: f64,
    /// Building topologies.
    pub topology_s: f64,
    /// Partitioning (`multipod_par` only).
    pub partition_s: f64,
    /// Simulator construction and flow scheduling.
    pub new_s: f64,
    /// All of set-up, from seed to runnable simulators.
    pub total_s: f64,
}

impl SetupTimes {
    fn into_layers(self, l: &mut Layers) {
        l.insert("workload.generate_s".into(), self.generate_s);
        l.insert("simnet.topology.build_s".into(), self.topology_s);
        l.insert("simnet.partition.build_s".into(), self.partition_s);
        l.insert("simnet.sim.new_s".into(), self.new_s);
    }
}

/// Builds a serial simulator over `topo` with `flows` scheduled, the way
/// the experiment runner does.
fn build_sim<I: Instrument>(
    inst: &I,
    topo: Topology,
    factory: Box<dyn TransportFactory>,
    rec: Recorder,
    flows: &[FlowSpec],
) -> Sim<I::Obs> {
    let mut sim =
        Sim::with_flow_capacity(topo, inst.factory(factory), inst.observer(rec), flows.len());
    for f in flows {
        sim.schedule_flow(*f);
    }
    sim
}

// ---------------------------------------------------------------- star

/// Hosts in the `star_steady` fabric.
pub const STAR_HOSTS: usize = 8;
/// Virtual warm-up before the measured window: flow arrival and arena
/// ramp-up finish well before it.
pub const STAR_WARM: Time = Time::from_millis(10);
/// End of the measured window.
pub const STAR_END: Time = Time::from_millis(30);

/// One long FlexPass flow per host to its neighbour. The seed jitters the
/// start instants within each host's microsecond slot.
pub fn star_flows(seed: u64) -> Vec<FlowSpec> {
    let mut rng = SimRng::new(seed ^ 0x57A2);
    (0..STAR_HOSTS)
        .map(|i| FlowSpec {
            id: i as u64,
            src: i,
            dst: (i + 1) % STAR_HOSTS,
            size: Bytes::new(100_000_000),
            start: Time::from_nanos(i as u64 * 1_000 + rng.next_below(1_000)),
            tag: TAG_UPGRADED,
            fg: false,
        })
        .collect()
}

fn star_build<I: Instrument>(inst: &I, seed: u64) -> (Sim<I::Obs>, SetupTimes) {
    let mut times = SetupTimes::default();
    let t0 = Instant::now();
    let flows = star_flows(seed);
    times.generate_s = secs(t0);
    let rate = Rate::from_gbps(10);
    let profile = flexpass_profile(&ProfileParams::testbed(rate));
    let t = Instant::now();
    let topo = Topology::star(
        STAR_HOSTS,
        rate,
        TimeDelta::micros(5),
        &profile,
        &host_variant(&profile),
    );
    times.topology_s = secs(t);
    let factory = SchemeFactory::new(
        Scheme::FlexPass,
        Deployment::full(STAR_HOSTS),
        FlexPassConfig::new(0.5),
        0.5,
    );
    let t = Instant::now();
    let rec = Recorder::new().with_throughput(TimeDelta::millis(1));
    let sim = build_sim(inst, topo, Box::new(factory), rec, &flows);
    times.new_s = secs(t);
    times.total_s = secs(t0);
    (sim, times)
}

/// `star_steady`: an 8-host 10 G star on the FlexPass switch profile,
/// built like Figure 9, measured over a fixed virtual window in steady
/// state.
pub fn star_rep<I: Instrument>(inst: &I, seed: u64) -> Rep {
    let mut rep = Rep::default();
    let (mut sim, times) = star_build(inst, seed);
    rep.setup_s = times.total_s;

    sim.run_until(STAR_WARM);
    let warm_events = sim.events_processed();
    let warm_grows = sim.arena_stats().3;
    let mut windows = Vec::new();
    rep.run_s = run_window(
        &mut sim,
        STAR_END,
        TimeDelta::millis(1),
        windows_of(I::TRACED, &mut windows),
    );
    rep.windows_ms = windows;
    rep.events = sim.events_processed() - warm_events;
    let grows = sim.arena_stats().3 - warm_grows;
    steady_check(&mut rep, grows);

    let t = Instant::now();
    let rec = I::recorder(&sim.observer);
    let d = &mut rep.digest;
    d.int("events", sim.events_processed())
        .int("started", sim.flows_started() as u64)
        .int("completed", sim.flows_completed() as u64)
        .drops_and_timeouts("all", rec);
    for (i, g) in rec.throughput_gbps(TAG_UPGRADED).iter().enumerate() {
        d.float(&format!("gbps.{i}"), *g);
    }
    let summary_s = secs(t);

    let l = &mut rep.layers;
    count_sim(&sim, l);
    count_recorder(rec, l);
    l.insert("simnet.arena.grows_post_warmup".into(), grows as f64);
    l.insert("simnet.events".into(), rep.events as f64);
    let (_, hooks) = I::split(sim.observer);
    if I::TRACED {
        times.into_layers(l);
        l.insert("metrics.summary_ns".into(), summary_s * 1e9);
        // The endpoints must be gone before the transport tallies are
        // complete.
        drop(sim.nodes);
        let transport = inst.transport();
        attribute(l, &transport, &hooks);
        self_time(l, rep.run_s, rep.events, &transport, &hooks);
    }
    finish(l);
    rep
}

/// A measured window fails when it is empty.
fn window_check(rep: &mut Rep) {
    rep.attempted = 1;
    if rep.events == 0 {
        rep.failed = 1;
        rep.problems.push("empty measured window".into());
    }
}

/// `star_steady` must be in steady state over its window: any arena growth
/// after warm-up means the live-packet population is still climbing.
fn steady_check(rep: &mut Rep, grows: u64) {
    window_check(rep);
    if grows > 0 {
        rep.failed = 1;
        rep.problems
            .push(format!("arena grew {grows} times after warm-up"));
    }
}

// ---------------------------------------------------------------- clos

/// Figure 10's sweep spec at smoke scale, cut to the deployment ratio 0.5
/// for all four schemes, with the figure's own workload seed.
pub fn clos_spec() -> SweepSpec {
    let mut spec = SweepSpec::fig10(RunScale::Smoke);
    spec.ratios = vec![0.5];
    spec
}

/// One sweep point's inputs exactly as the sweep generates them: the rack
/// deployment drawn from the spec's seed, and the tagged background flows.
pub fn sweep_inputs(spec: &SweepSpec) -> (Deployment, Vec<FlowSpec>) {
    let clos = spec.scale.clos();
    let n_hosts = clos.n_hosts();
    let rack_of: Vec<usize> = (0..n_hosts).map(|h| h / clos.hosts_per_tor).collect();
    let mut rng = SimRng::new(spec.seed.wrapping_mul(0x9E37).wrapping_add(7));
    let deployment = Deployment::by_rack_ratio(&rack_of, spec.ratios[0], &mut rng);
    let flows = build_flows(spec, &deployment, n_hosts);
    (deployment, flows)
}

/// `clos_mix` inputs for a seed: the sweep's inputs with the hosts of each
/// rack relabelled by a seeded permutation. The seed moves which hosts
/// talk, and so the ECMP paths and the collisions at each host, while the
/// rack-level traffic matrix, the deployment, the flow sizes and the
/// arrival times stay those of Figure 10. A fresh web-search sample per
/// seed would instead change the offered bytes by tens of percent between
/// seeds at 300 flows, swamping the host-time signal.
pub fn clos_inputs(seed: u64) -> (Deployment, Vec<FlowSpec>) {
    let spec = clos_spec();
    let (deployment, mut flows) = sweep_inputs(&spec);
    let clos = spec.scale.clos();
    let per_rack = clos.hosts_per_tor;
    let mut label: Vec<usize> = (0..clos.n_hosts()).collect();
    let mut rng = SimRng::new(seed ^ 0xC105);
    for rack in label.chunks_mut(per_rack) {
        for i in (1..rack.len()).rev() {
            rack.swap(i, rng.index(i + 1));
        }
    }
    for f in &mut flows {
        f.src = label[f.src];
        f.dst = label[f.dst];
    }
    (deployment, flows)
}

/// Builds one sweep point's simulator exactly as the sweep does: scheme
/// profile at the flows' upgraded byte fraction, Clos, scheme factory.
pub fn clos_point<I: Instrument>(
    inst: &I,
    scheme: Scheme,
    spec: &SweepSpec,
    deployment: &Deployment,
    flows: &[FlowSpec],
    times: &mut SetupTimes,
) -> Sim<I::Obs> {
    let clos = spec.scale.clos();
    let frac = deployment.upgraded_byte_fraction(flows);
    let mut params = ProfileParams::simulation(clos.link_rate);
    params.wq = spec.wq;
    params.fp_red = WireBytes::new(spec.sel_drop);
    let profile = scheme.profile(&params, frac);
    let host = host_variant(&profile);
    let t = Instant::now();
    let topo = Topology::clos(clos, &profile, &host);
    times.topology_s += secs(t);
    let factory = SchemeFactory::new(
        scheme,
        deployment.clone(),
        FlexPassConfig::new(spec.wq),
        frac,
    );
    let t = Instant::now();
    let sim = build_sim(inst, topo, Box::new(factory), Recorder::new(), flows);
    times.new_s += secs(t);
    sim
}

/// The sweep's summary of one point (the fields of
/// `flexpass_experiments::sweep::SweepPoint`, computed the same way).
#[derive(Clone, Debug, PartialEq)]
pub struct PointSummary {
    /// p99 FCT of small flows: all / legacy / upgraded.
    pub p99_small: [f64; 3],
    /// Average FCT: all / legacy / upgraded.
    pub avg: [f64; 3],
    /// Small-flow FCT standard deviation: all / legacy / upgraded.
    pub stddev_small: [f64; 3],
    /// Mean reorder-buffer peak over upgraded flows, bytes.
    pub reorder_mean: f64,
    /// Sender timeouts.
    pub timeouts: f64,
    /// Redundant bytes / sent bytes.
    pub redundancy: f64,
    /// Flows completed.
    pub flows: f64,
}

impl PointSummary {
    /// Summarizes a point's recorder.
    pub fn of(rec: &Recorder) -> Self {
        let tags = [None, Some(TAG_LEGACY), Some(TAG_UPGRADED)];
        let mut s = PointSummary {
            p99_small: [0.0; 3],
            avg: [0.0; 3],
            stddev_small: [0.0; 3],
            reorder_mean: 0.0,
            timeouts: rec.total_timeouts() as f64,
            redundancy: rec.redundancy_fraction(),
            flows: rec.completed() as f64,
        };
        for (i, t) in tags.iter().enumerate() {
            s.p99_small[i] = rec.p99_small(*t);
            s.avg[i] = rec.avg_fct(*t);
            s.stddev_small[i] = rec.stddev_small(*t);
        }
        let upgraded: Vec<&FlowRecord> =
            rec.flows.iter().filter(|r| r.tag == TAG_UPGRADED).collect();
        if !upgraded.is_empty() {
            s.reorder_mean =
                upgraded.iter().map(|r| r.reorder_peak as f64).sum::<f64>() / upgraded.len() as f64;
        }
        s
    }

    fn fold(&self, key: &str, d: &mut Digest) {
        for i in 0..3 {
            d.float(&format!("{key}.p99_small.{i}"), self.p99_small[i]);
            d.float(&format!("{key}.avg.{i}"), self.avg[i]);
            d.float(&format!("{key}.stddev_small.{i}"), self.stddev_small[i]);
        }
        d.float(&format!("{key}.reorder_mean"), self.reorder_mean)
            .float(&format!("{key}.redundancy"), self.redundancy)
            .float(&format!("{key}.flows"), self.flows);
    }
}

/// The four schemes' simulators of one `clos_mix` rep.
type Points<O> = Vec<(Scheme, Sim<O>)>;

fn clos_build<I: Instrument>(inst: &I, seed: u64) -> (Points<I::Obs>, SetupTimes) {
    let mut times = SetupTimes::default();
    let t0 = Instant::now();
    let spec = clos_spec();
    let (deployment, flows) = clos_inputs(seed);
    times.generate_s = secs(t0);
    let sims = Scheme::ALL
        .iter()
        .map(|&s| {
            (
                s,
                clos_point(inst, s, &spec, &deployment, &flows, &mut times),
            )
        })
        .collect();
    times.total_s = secs(t0);
    (sims, times)
}

/// Everything a finished sweep point hands back to the rep.
struct PointRun<O: NetObserver> {
    sim: Sim<O>,
    point_s: f64,
    windows: Vec<f64>,
}

/// `clos_mix`: the four schemes' points set up in turn, then run to
/// completion on the experiment worker pool at the default job count.
pub fn clos_rep<I: Instrument>(inst: &I, seed: u64) -> Rep {
    let mut rep = Rep::default();
    let (sims, times) = clos_build(inst, seed);
    rep.setup_s = times.total_s;

    let mut scheduled = Vec::new();
    let tasks: Vec<Task<PointRun<I::Obs>>> = sims
        .into_iter()
        .map(|(scheme, mut sim)| {
            scheduled.push(sim.flows_scheduled() as u64);
            Task::new(scheme.label(), move |ctx: &TaskCtx| {
                sim.attach_progress(Arc::clone(&ctx.probe));
                let start = Instant::now();
                let mut windows = Vec::new();
                run_completion(
                    &mut sim,
                    TimeDelta::millis(20),
                    TimeDelta::millis(1),
                    windows_of(I::TRACED, &mut windows),
                );
                PointRun {
                    sim,
                    point_s: secs(start),
                    windows,
                }
            })
        })
        .collect();
    let jobs = orchestrate::jobs();
    let t = Instant::now();
    let results = orchestrate::run_tasks_on(jobs, "clos_mix", tasks);
    rep.run_s = secs(t);

    let mut hooks = HookStats::default();
    let mut point_s = Vec::new();
    let mut summary_s = 0.0;
    for ((scheme, result), n) in Scheme::ALL.iter().zip(results).zip(scheduled) {
        rep.attempted += n;
        let key = scheme.label();
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                rep.failed += n;
                rep.problems.push(format!("point {e}"));
                rep.digest.int(&format!("{key}.panicked"), 1);
                continue;
            }
        };
        let sim = &run.sim;
        rep.events += sim.events_processed();
        rep.failed += n - sim.flows_completed() as u64;
        point_s.push(run.point_s);
        rep.windows_ms.extend(&run.windows);
        let rec = I::recorder(&sim.observer);
        let t = Instant::now();
        let summary = PointSummary::of(rec);
        summary_s += secs(t);
        rep.digest
            .int(&format!("{key}.events"), sim.events_processed())
            .int(&format!("{key}.completed"), sim.flows_completed() as u64)
            .drops_and_timeouts(key, rec);
        summary.fold(key, &mut rep.digest);
        count_sim(sim, &mut rep.layers);
        count_recorder(rec, &mut rep.layers);
        let (_, h) = I::split(run.sim.observer);
        hooks.add(&h);
    }
    let l = &mut rep.layers;
    l.insert("simnet.events".into(), rep.events as f64);
    if I::TRACED {
        times.into_layers(l);
        l.insert("metrics.summary_ns".into(), summary_s * 1e9);
        let busy: f64 = point_s.iter().sum();
        l.insert("experiments.point_s_p50".into(), median(&point_s));
        l.insert(
            "experiments.point_s_max".into(),
            point_s.iter().copied().fold(0.0, f64::max),
        );
        l.insert(
            "experiments.pool_idle_frac".into(),
            1.0 - busy / (jobs.min(Scheme::ALL.len()) as f64 * rep.run_s),
        );
        let transport = inst.transport();
        attribute(l, &transport, &hooks);
        self_time(l, busy, rep.events, &transport, &hooks);
    }
    finish(l);
    rep
}

// ---------------------------------------------------------------- scale

/// Hosts in the `scale_stream` fabric (whole 320-host pods).
pub const SCALE_HOSTS: usize = 10_240;
/// Flows in the `scale_stream` workload.
pub const SCALE_FLOWS: usize = 1_000;
/// Virtual warm-up after which arena growth is counted. All flows arrive
/// within the first ~35 µs and complete by ~0.3 ms.
pub const SCALE_WARM: Time = Time::from_micros(100);

/// The scale scenario's inputs (`flexpass_experiments::scale::build_point`
/// with this workload's flow count): web-search flows capped at 100 kB on
/// a fully upgraded FlexPass deployment.
pub fn scale_inputs(seed: u64) -> (ClosParams, Deployment, Vec<FlowSpec>) {
    let clos = ClosParams::with_hosts(SCALE_HOSTS);
    let n_hosts = clos.n_hosts();
    let deployment = Deployment::from_hosts(vec![true; n_hosts]);
    let cdf = FlowSizeCdf::web_search().truncate(100_000.0);
    let mut flows = background(
        &cdf,
        &BackgroundParams {
            n_hosts,
            host_rate: clos.link_rate,
            oversub: 3.0,
            load: 0.1,
            n_flows: SCALE_FLOWS,
            seed,
            first_id: 0,
        },
    );
    for f in &mut flows {
        f.tag = deployment.tag_for(f);
    }
    (clos, deployment, flows)
}

fn scale_build<I: Instrument>(inst: &I, seed: u64) -> (Sim<I::Obs>, SetupTimes) {
    let mut times = SetupTimes::default();
    let t0 = Instant::now();
    let (clos, deployment, flows) = scale_inputs(seed);
    times.generate_s = secs(t0);
    let profile = Scheme::FlexPass.profile(&ProfileParams::simulation(clos.link_rate), 1.0);
    let t = Instant::now();
    let topo = Topology::clos(clos, &profile, &host_variant(&profile));
    times.topology_s = secs(t);
    let factory = SchemeFactory::new(Scheme::FlexPass, deployment, FlexPassConfig::new(0.5), 1.0);
    let t = Instant::now();
    let rec = Recorder::new().with_streaming();
    let sim = build_sim(inst, topo, Box::new(factory), rec, &flows);
    times.new_s = secs(t);
    times.total_s = secs(t0);
    (sim, times)
}

/// `scale_stream`: the 10,240-host Clos with the streaming recorder, run
/// to completion.
pub fn scale_rep<I: Instrument>(inst: &I, seed: u64) -> Rep {
    let mut rep = Rep::default();
    let (mut sim, times) = scale_build(inst, seed);
    rep.setup_s = times.total_s;

    let mut windows = Vec::new();
    let start = Instant::now();
    sim.run_until(SCALE_WARM);
    let warm_grows = sim.arena_stats().3;
    run_completion(
        &mut sim,
        TimeDelta::millis(20),
        TimeDelta::micros(20),
        windows_of(I::TRACED, &mut windows),
    );
    rep.run_s = secs(start);
    rep.windows_ms = windows;
    rep.events = sim.events_processed();
    rep.attempted = sim.flows_scheduled() as u64;
    rep.failed = (sim.flows_scheduled() - sim.flows_completed()) as u64;

    let rec = I::recorder(&sim.observer);
    if rec.retained_samples() != 0 || rec.live_flows() != 0 {
        rep.problems.push(format!(
            "streaming recorder kept {} samples and {} live flows",
            rec.retained_samples(),
            rec.live_flows()
        ));
    }
    let t = Instant::now();
    let d = &mut rep.digest;
    d.int("events", rep.events)
        .int("completed", rec.completed() as u64)
        .drops_and_timeouts("all", rec);
    for small in [true, false] {
        let s = rec.streaming_stats(None, small);
        let key = if small { "small" } else { "all" };
        d.int(&format!("{key}.count"), s.count as u64)
            .float(&format!("{key}.avg"), s.avg)
            .float(&format!("{key}.p50"), s.p50)
            .float(&format!("{key}.p99"), s.p99)
            .float(&format!("{key}.max"), s.max)
            .float(&format!("{key}.stddev"), s.stddev);
    }
    let summary_s = secs(t);

    let l = &mut rep.layers;
    count_sim(&sim, l);
    count_recorder(rec, l);
    l.insert(
        "simnet.arena.grows_post_warmup".into(),
        (sim.arena_stats().3 - warm_grows) as f64,
    );
    l.insert("simnet.events".into(), rep.events as f64);
    let (_, hooks) = I::split(sim.observer);
    if I::TRACED {
        times.into_layers(l);
        l.insert("metrics.summary_ns".into(), summary_s * 1e9);
        drop(sim.nodes);
        let transport = inst.transport();
        attribute(l, &transport, &hooks);
        self_time(l, rep.run_s, rep.events, &transport, &hooks);
    }
    finish(l);
    rep
}

// ---------------------------------------------------------------- multipod

/// The 64-host two-pod Clos: 8 ToRs of 8 hosts, two aggs per pod.
pub fn multipod_clos() -> ClosParams {
    ClosParams {
        hosts_per_tor: 8,
        ..ClosParams::small()
    }
}

/// Partition domains of the measured engine.
pub const MULTIPOD_DOMAINS: usize = 2;
/// Virtual warm-up before the measured window: the per-domain arenas
/// reach their working size by about 3 ms on most seeds.
pub const MULTIPOD_WARM: Time = Time::from_millis(3);
/// End of the measured window.
pub const MULTIPOD_END: Time = Time::from_millis(4);

/// One long FlexPass flow per host to the host one rack over; the seed
/// jitters start instants within each host's microsecond slot.
pub fn multipod_flows(seed: u64) -> Vec<FlowSpec> {
    let n = multipod_clos().n_hosts();
    let mut rng = SimRng::new(seed ^ 0x3D90);
    (0..n)
        .map(|i| FlowSpec {
            id: i as u64,
            src: i,
            dst: (i + 8) % n,
            size: Bytes::new(50_000_000),
            start: Time::from_nanos(i as u64 * 1_000 + rng.next_below(1_000)),
            tag: TAG_UPGRADED,
            fg: false,
        })
        .collect()
}

fn multipod_factory() -> Box<dyn TransportFactory> {
    let n = multipod_clos().n_hosts();
    Box::new(SchemeFactory::new(
        Scheme::FlexPass,
        Deployment::full(n),
        FlexPassConfig::new(0.5),
        1.0,
    ))
}

fn multipod_topology() -> Topology {
    let clos = multipod_clos();
    let profile = Scheme::FlexPass.profile(&ProfileParams::simulation(clos.link_rate), 1.0);
    Topology::clos(clos, &profile, &host_variant(&profile))
}

fn multipod_build<I: Instrument>(inst: &I, seed: u64) -> (ParSim<I::Obs>, SetupTimes) {
    let mut times = SetupTimes::default();
    let t0 = Instant::now();
    let flows = multipod_flows(seed);
    times.generate_s = secs(t0);
    let t = Instant::now();
    let topo = multipod_topology();
    times.topology_s = secs(t);
    let t = Instant::now();
    let part = match partition(topo, MULTIPOD_DOMAINS) {
        Ok(p) => p,
        Err(_) => panic!("the two-pod Clos must partition"),
    };
    times.partition_s = secs(t);
    let k = part.n_domains();
    let t = Instant::now();
    let base = inst.factory(multipod_factory());
    let factories = (0..k)
        .map(|_| {
            base.try_clone()
                .expect("the scheme factory clones per domain")
        })
        .collect();
    let observers = (0..k).map(|_| inst.observer(Recorder::new())).collect();
    let mut par = ParSim::new(part, factories, observers, flows.len());
    for f in &flows {
        par.schedule_flow(*f);
    }
    times.new_s = secs(t);
    times.total_s = secs(t0);
    (par, times)
}

/// `multipod_par`: the two-pod Clos on the partitioned engine at two
/// domains, over a fixed virtual window past warm-up. With `twin`, the
/// serial engine then runs the same inputs and window in this process.
pub fn multipod_rep<I: Instrument>(inst: &I, seed: u64, twin: bool) -> Rep {
    let mut rep = Rep::default();
    let (mut par, times) = multipod_build(inst, seed);
    rep.setup_s = times.total_s;
    let lookahead = par.lookahead();

    par.run_until(MULTIPOD_WARM);
    let warm_events = par.events_processed();
    let warm_per = par.events_per_domain();
    let warm_grows = par.arena_stats().3;
    let start = Instant::now();
    par.run_until(MULTIPOD_END);
    rep.run_s = secs(start);
    rep.windows_ms.push(rep.run_s * 1e3);
    rep.events = par.events_processed() - warm_events;
    let (live, high_water, _, grows) = par.arena_stats();
    // Reported, not gated: the per-domain arenas keep setting rare new
    // high-water marks long after warm-up (a few slots at 8-9 virtual ms
    // on some seeds), so zero growth does not hold here at any warm-up.
    window_check(&mut rep);
    let per: Vec<u64> = par
        .events_per_domain()
        .iter()
        .zip(&warm_per)
        .map(|(a, w)| a - w)
        .collect();

    let d = &mut rep.digest;
    d.int("events", par.events_processed())
        .int("completed", par.flows_completed() as u64)
        .int("arena.live", live as u64);
    for (i, e) in par.events_per_domain().iter().enumerate() {
        d.int(&format!("domain.{i}.events"), *e);
    }
    let mut rec = Recorder::new();
    let mut hooks = HookStats::default();
    for obs in par.into_observers() {
        let (r, h) = I::split(obs);
        rec.absorb(r);
        hooks.add(&h);
    }
    rep.digest.drops_and_timeouts("all", &rec);

    let l = &mut rep.layers;
    l.insert("simnet.events".into(), rep.events as f64);
    l.insert("simnet.arena.high_water".into(), high_water as f64);
    l.insert("simnet.arena.live_end".into(), live as f64);
    l.insert(
        "simnet.arena.grows_post_warmup".into(),
        (grows - warm_grows) as f64,
    );
    l.insert(
        "simnet.parsim.lookahead_us".into(),
        lookahead.as_secs_f64() * 1e6,
    );
    let lo = per.iter().copied().min().unwrap_or(0);
    let hi = per.iter().copied().max().unwrap_or(0);
    if lo > 0 {
        l.insert("simnet.parsim.imbalance".into(), hi as f64 / lo as f64);
    }
    count_recorder(&rec, l);
    if I::TRACED {
        times.into_layers(l);
        attribute(l, &inst.transport(), &hooks);
    }
    finish(l);
    if twin {
        multipod_twin::<I>(seed, &mut rep);
    }
    rep
}

/// The serial engine on `multipod_par`'s inputs and window, instrumented
/// like the partitioned run but with its own tallies. Its counters stand
/// for the fabric's (the partitioned engine does not expose its domains'
/// nodes), and its self time is the engine's per-event cost without
/// barrier waits.
fn multipod_twin<I: Instrument>(seed: u64, rep: &mut Rep) {
    let inst = I::default();
    let flows = multipod_flows(seed);
    let mut sim = build_sim(
        &inst,
        multipod_topology(),
        multipod_factory(),
        Recorder::new(),
        &flows,
    );
    sim.run_until(MULTIPOD_WARM);
    let warm_events = sim.events_processed();
    let start = Instant::now();
    sim.run_until(MULTIPOD_END);
    let run_s = secs(start);
    let events = sim.events_processed() - warm_events;
    rep.twin = Some((run_s, events));
    let mut counts = Layers::new();
    count_sim(&sim, &mut counts);
    for (k, v) in counts {
        if !k.starts_with("simnet.arena") {
            rep.layers.insert(k, v);
        }
    }
    let (_, hooks) = I::split(sim.observer);
    if I::TRACED {
        drop(sim.nodes);
        self_time(&mut rep.layers, run_s, events, &inst.transport(), &hooks);
    }
}

// ---------------------------------------------------------------- dispatch

/// Runs one rep of `workload`.
///
/// # Panics
///
/// Panics on an unknown workload name (the CLI validates it first).
pub fn rep<I: Instrument>(inst: &I, workload: &str, seed: u64, twin: bool) -> Rep {
    match workload {
        "star_steady" => star_rep(inst, seed),
        "clos_mix" => clos_rep(inst, seed),
        "scale_stream" => scale_rep(inst, seed),
        "multipod_par" => multipod_rep(inst, seed, twin),
        other => panic!("unknown workload {other}"),
    }
}

/// How a rep of `workload` is calibrated (see [`crate::calib`]): the
/// threads it keeps busy, and the exponent with which its host time
/// follows the kernel's. Each exponent is the one whose worst spread of
/// per-run medians, over three sets of 10 runs on a 2-vCPU Xeon VM, was
/// lowest; one set caught the host swinging 2x in speed.
pub fn calibration(workload: &str) -> (usize, f64) {
    match workload {
        // The two pool workers contend with each other as well as with
        // co-tenants, so the pool follows a 2-thread kernel only part way
        // (worst set 0.12; 0.21 at 1.25).
        "clos_mix" => (orchestrate::jobs().min(Scheme::ALL.len()), 0.75),
        "multipod_par" => (MULTIPOD_DOMAINS, 1.25),
        // star_steady: worst set 0.06 (0.10 at 1.0); scale_stream: worst
        // set 0.18 (0.49 raw).
        _ => (1, 1.25),
    }
}

/// Builds the workload's simulators without running them and returns the
/// set-up seconds; dropping them is not timed.
///
/// # Panics
///
/// Panics on an unknown workload name (the CLI validates it first).
pub fn setup_only(workload: &str, seed: u64) -> f64 {
    match workload {
        "star_steady" => star_build(&Plain, seed).1.total_s,
        "clos_mix" => clos_build(&Plain, seed).1.total_s,
        "scale_stream" => scale_build(&Plain, seed).1.total_s,
        "multipod_par" => multipod_build(&Plain, seed).1.total_s,
        other => panic!("unknown workload {other}"),
    }
}
