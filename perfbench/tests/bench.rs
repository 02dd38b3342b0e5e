//! Tests of the benchmark's own code: input generation, digests, tracing
//! inertness and the steady-state invariant. Run them optimized:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use flexpass::schemes::Scheme;
use flexpass_experiments::sweep::run_sweep_jobs;
use flexpass_metrics::Recorder;
use flexpass_perfbench::trace::{Instrument, Plain, Traced};
use flexpass_perfbench::workloads::{
    clos_inputs, clos_point, clos_rep, clos_spec, multipod_rep, scale_inputs, star_rep,
    sweep_inputs, PointSummary, SetupTimes,
};
use flexpass_perfbench::{END_TO_END, PER_LAYER};
use flexpass_simcore::time::Time;

#[test]
fn same_seed_gives_same_digest() {
    assert_eq!(star_rep(&Plain, 3).digest, star_rep(&Plain, 3).digest);
    let (a, b) = (
        multipod_rep(&Plain, 3, false),
        multipod_rep(&Plain, 3, false),
    );
    assert_eq!(a.digest, b.digest);
    assert!(a.problems.is_empty(), "{:?}", a.problems);
}

#[test]
fn seed_changes_generated_flows() {
    assert_ne!(clos_inputs(1).1, clos_inputs(2).1);
    assert_eq!(clos_inputs(1).1, clos_inputs(1).1);
    assert_ne!(scale_inputs(1).2, scale_inputs(2).2);
    assert_eq!(scale_inputs(1).2, scale_inputs(1).2);
}

/// Wrapping every seam changes no simulated outcome: same event count and
/// the same per-flow FCTs over a short window of a mixed-scheme point.
#[test]
fn traced_run_matches_untraced_on_short_window() {
    let spec = clos_spec();
    let (dep, flows) = clos_inputs(5);
    let end = Time::from_millis(3);
    let mut t = SetupTimes::default();
    let mut plain = clos_point(&Plain, Scheme::FlexPass, &spec, &dep, &flows, &mut t);
    plain.run_until(end);
    let traced_inst = Traced::default();
    let mut traced = clos_point(&traced_inst, Scheme::FlexPass, &spec, &dep, &flows, &mut t);
    traced.run_until(end);
    assert_eq!(plain.events_processed(), traced.events_processed());
    assert_eq!(plain.flows_completed(), traced.flows_completed());
    let fcts = |rec: &Recorder| -> Vec<(u64, u64)> {
        rec.flows
            .iter()
            .map(|r| (r.flow, r.fct.to_bits()))
            .collect()
    };
    let traced_rec = <Traced as Instrument>::recorder(&traced.observer);
    assert!(!plain.observer.flows.is_empty(), "window completed no flow");
    assert_eq!(fcts(&plain.observer), fcts(traced_rec));
    assert!(traced.observer.hooks.delivered.calls > 0);
    drop(traced);
    let t = traced_inst.transport();
    assert!(t[0].on_packet.calls > 0 && t[1].on_packet.calls > 0);
}

/// The wrapped factory still clones per domain, so the partitioned run
/// is traced rather than falling back to the serial engine.
#[test]
fn traced_multipod_partitions_and_matches() {
    let plain = multipod_rep(&Plain, 4, false);
    let traced = multipod_rep(&Traced::default(), 4, true);
    assert_eq!(plain.digest, traced.digest);
    assert!(traced.layers["transport.on_packet_calls.upgraded"] > 0.0);
    assert!(traced.twin.is_some());
}

#[test]
fn star_stays_bounded_past_warm_up() {
    for seed in [0, 7] {
        let rep = star_rep(&Plain, seed);
        assert!(rep.problems.is_empty(), "{:?}", rep.problems);
        assert_eq!(rep.layers["simnet.arena.grows_post_warmup"], 0.0);
        let live = rep.layers["simnet.arena.live_end"];
        assert!(live > 0.0 && live < 2_000.0, "live packets {live}");
    }
}

/// The benchmark builds sweep points the way the experiment sweep does:
/// on the sweep's own inputs they reproduce its points bit for bit.
#[test]
fn clos_points_match_the_sweep() {
    let mut spec = clos_spec();
    spec.seed = 2;
    let points = run_sweep_jobs(2, "test", &spec);
    let (dep, flows) = sweep_inputs(&spec);
    for (scheme, p) in Scheme::ALL.iter().zip(&points) {
        let mut sim = clos_point(
            &Plain,
            *scheme,
            &spec,
            &dep,
            &flows,
            &mut SetupTimes::default(),
        );
        sim.run_to_completion(flexpass_simcore::time::TimeDelta::millis(20));
        let s = PointSummary::of(&sim.observer);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&s.p99_small), bits(&p.p99_small), "{}", p.scheme);
        assert_eq!(bits(&s.avg), bits(&p.avg), "{}", p.scheme);
        assert_eq!(bits(&s.stddev_small), bits(&p.stddev_small), "{}", p.scheme);
        assert_eq!(
            bits(&[s.reorder_mean, s.timeouts, s.redundancy, s.flows]),
            bits(&[p.reorder_mean, p.timeouts, p.redundancy, p.flows]),
            "{}",
            p.scheme
        );
    }
    let rep = clos_rep(&Plain, 2);
    assert_eq!(rep.failed, 0);
    assert_eq!(rep.attempted, 4 * 300);
}

/// `BENCHMARK.json` declares exactly the metrics the binary prints.
#[test]
fn benchmark_json_lists_printed_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let declared = json.matches("\"name\": ").count();
    let workloads = flexpass_perfbench::workloads::WORKLOADS.len();
    assert_eq!(declared, workloads + END_TO_END.len() + PER_LAYER.len());
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "missing {entry}");
    }
}
