//! Host-time benchmark of the FlexPass simulator.
//!
//! Four workloads (see `README.md` beside this crate) are built from a
//! seed, run through the simulator's public API, and checked against
//! recorded result digests. A traced run wraps the public seams
//! ([`trace`]) to attribute host time to layers from the outside.

pub mod calib;
pub mod digest;
pub mod stats;
pub mod trace;
pub mod workloads;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A workload that does not
/// reach a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("simcore.calendar.timer_churn_ns", "ns"),
    ("simcore.calendar.uniform_ns", "ns"),
    ("simcore.calendar.cancelled", "count"),
    ("simcore.calendar.clamps", "count"),
    ("simnet.topology.build_s", "s"),
    ("simnet.sim.new_s", "s"),
    ("simnet.partition.build_s", "s"),
    ("simnet.engine.self_ns_per_event", "ns"),
    ("simnet.window_ms_p50", "ms"),
    ("simnet.window_ms_tail", "ms"),
    ("simnet.window_tail_pct", "%"),
    ("simnet.windows", "count"),
    ("simnet.events", "count"),
    ("simnet.switch.forwarded", "count"),
    ("simnet.switch.drops_buffer", "count"),
    ("simnet.switch.drops_cap", "count"),
    ("simnet.switch.drops_red", "count"),
    ("simnet.port.tx_pkts", "count"),
    ("simnet.host.stray_rx", "count"),
    ("simnet.host.nic_drops", "count"),
    ("simnet.arena.high_water", "count"),
    ("simnet.arena.live_end", "count"),
    ("simnet.arena.grows_post_warmup", "count"),
    ("simnet.parsim.speedup", "x"),
    ("simnet.parsim.imbalance", "x"),
    ("simnet.parsim.lookahead_us", "us"),
    ("simnet.parsim.event_drift", "frac"),
    ("transport.build_ns.legacy", "ns"),
    ("transport.build_ns.upgraded", "ns"),
    ("transport.on_packet_ns.legacy", "ns"),
    ("transport.on_packet_ns.upgraded", "ns"),
    ("transport.on_timer_ns.legacy", "ns"),
    ("transport.on_timer_ns.upgraded", "ns"),
    ("transport.on_packet_calls.legacy", "count"),
    ("transport.on_packet_calls.upgraded", "count"),
    ("transport.on_timer_calls.legacy", "count"),
    ("transport.on_timer_calls.upgraded", "count"),
    ("transport.timeouts", "count"),
    ("transport.redundancy_frac", "frac"),
    ("transport.credit_waste_frac", "frac"),
    ("metrics.on_delivered.ns", "ns"),
    ("metrics.on_delivered.calls", "count"),
    ("metrics.on_app_event.ns", "ns"),
    ("metrics.on_app_event.calls", "count"),
    ("metrics.on_flow_start.ns", "ns"),
    ("metrics.on_flow_start.calls", "count"),
    ("metrics.on_drop.ns", "ns"),
    ("metrics.on_drop.calls", "count"),
    ("metrics.summary_ns", "ns"),
    ("metrics.retained_samples", "count"),
    ("metrics.live_flows_end", "count"),
    ("workload.generate_s", "s"),
    ("experiments.point_s_p50", "s"),
    ("experiments.point_s_max", "s"),
    ("experiments.pool_idle_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];
