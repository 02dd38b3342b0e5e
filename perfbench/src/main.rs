//! Benchmark binary: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Repeats the workload's rep for about `--seconds` of host time, checks
//! every rep's result digest against the others and against the recorded
//! reference, and prints one JSON line of medians last on stdout. With
//! `--trace 0` those are the end-to-end metrics; with `--trace 1` untraced
//! and traced reps alternate and the line carries the per-layer metrics.
//! A provenance line with every raw sample, the seed and a host
//! fingerprint comes just before it. Exits 1 when a check fails.
//!
//! `--record <n>` instead prints reference digests for seeds `0..n` of
//! every workload (or of `--workload`), in `reference.txt` format.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use flexpass_bench::{timer_heavy_workload, uniform_workload, Backend};
use flexpass_perfbench::stats::{median, tail};
use flexpass_perfbench::trace::{Plain, Traced};
use flexpass_perfbench::workloads::{self, Rep, WORKLOADS};
use flexpass_perfbench::{calib, digest};
use flexpass_perfbench::{END_TO_END, PER_LAYER};

const USAGE: &str =
    "usage: flexpass-perfbench --workload <star_steady|clos_mix|scale_stream|multipod_par> \
--seed <n> --seconds <s> --trace <0|1>\n       flexpass-perfbench --record <n> [--workload <name>]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: 10,
        trace: false,
        record: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}"));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v}")),
                }
            }
            "--record" => a.record = Some(number(value()?)?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload.is_none() && a.record.is_none() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.record {
        return if record(args.workload.as_deref(), n) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let workload = args.workload.as_deref().unwrap_or_default();
    let run = measure(workload, args.seed, args.seconds, args.trace);
    let correct = run.problems.is_empty();
    let metrics = if args.trace {
        per_layer(&run)
    } else {
        end_to_end(&run)
    };
    println!("{}", provenance(workload, &args, &run, &metrics));
    let units: BTreeMap<&str, &str> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    let mut body = String::new();
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            number(*value),
            units.get(name.as_str()).copied().unwrap_or("")
        );
    }
    for p in &run.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        run.attempted.max(1),
        run.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Set-up samples a run aims for (reps plus set-up-only builds).
const MIN_SETUP_SAMPLES: usize = 15;
/// Host seconds a run may spend on set-up-only builds.
const EXTRA_SETUP_S: f64 = 1.0;

/// Everything one benchmark invocation measured.
#[derive(Default)]
struct Run {
    plain: Vec<Rep>,
    traced: Vec<Rep>,
    /// Set-up-only samples, at the reference speed.
    extra_setups: Vec<f64>,
    /// Calibration samples (seconds), before, between and after reps.
    calibrations: Vec<f64>,
    /// Peak RSS once the first rep has run: one simulation's footprint,
    /// before later reps add allocator retention.
    first_rss_mb: f64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    digest: String,
    reference: &'static str,
}

/// Repeats the workload for about `seconds` of host time (at least once):
/// untraced reps only, or untraced and traced reps alternating. The
/// calibration kernel runs between reps; each rep's speed factor comes
/// from the runs just before and after it.
fn measure(workload: &str, seed: u64, seconds: u64, trace: bool) -> Run {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut run = Run::default();
    let (threads, sensitivity) = workloads::calibration(workload);
    let mut cal = calib::sample(threads);
    run.calibrations.push(cal);
    let mut timed = |run: &mut Run, r: &mut Rep| {
        let next = calib::sample(threads);
        run.calibrations.push(next);
        r.speed = calib::speed(cal, next, sensitivity);
        cal = next;
    };
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        let Some(mut r) = guarded(&mut run, || workloads::rep(&Plain, workload, seed, trace))
        else {
            break;
        };
        timed(&mut run, &mut r);
        run.plain.push(r);
        if run.plain.len() == 1 {
            run.first_rss_mb = rss_mb();
        }
        if trace {
            let Some(mut r) = guarded(&mut run, || {
                workloads::rep(&Traced::default(), workload, seed, true)
            }) else {
                break;
            };
            timed(&mut run, &mut r);
            run.traced.push(r);
        }
        let elapsed = start.elapsed();
        if elapsed + elapsed / rounds > budget {
            break;
        }
    }
    // Workloads with few reps but cheap set-up get extra set-up-only
    // samples, so the set-up median rests on enough of them.
    let extra = Instant::now();
    let cal = calib::sample(threads);
    let speed = calib::speed(cal, cal, sensitivity);
    let mut last = median(&run.plain.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    while run.plain.len() + run.extra_setups.len() < MIN_SETUP_SAMPLES
        && extra.elapsed().as_secs_f64() + last < EXTRA_SETUP_S
    {
        last = workloads::setup_only(workload, seed);
        run.extra_setups.push(last * speed);
    }
    check(&mut run, workload, seed);
    run
}

/// Runs one rep, turning a panic into a failed operation.
fn guarded(run: &mut Run, f: impl FnOnce() -> Rep) -> Option<Rep> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => Some(r),
        Err(e) => {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            run.attempted += 1;
            run.failed += 1;
            run.problems.push(format!("rep panicked: {msg}"));
            None
        }
    }
}

/// Every rep must reproduce the first rep's digest (traced reps included:
/// tracing is inert), and the digest must match the recorded reference
/// when one exists for this seed.
fn check(run: &mut Run, workload: &str, seed: u64) {
    let reps: Vec<&Rep> = run.plain.iter().chain(&run.traced).collect();
    for r in &reps {
        run.attempted += r.attempted;
        run.failed += r.failed;
        run.problems.extend(r.problems.iter().cloned());
    }
    let Some(first) = reps.first() else {
        return;
    };
    run.digest = first.digest.hash();
    if reps.iter().any(|r| r.digest != first.digest) {
        run.problems.push(
            "reps disagree on simulated results (nondeterminism or non-inert tracing)".into(),
        );
    }
    match digest::reference(workload, seed) {
        Some(h) if h == run.digest => run.reference = "match",
        Some(h) => {
            run.reference = "mismatch";
            run.problems.push(format!(
                "digest {} != recorded {h}; results: {}",
                run.digest,
                first.digest.text()
            ));
        }
        None => run.reference = "unrecorded seed",
    }
}

fn end_to_end(run: &Run) -> Vec<(String, f64)> {
    let col = |f: fn(&Rep) -> f64| median(&run.plain.iter().map(f).collect::<Vec<_>>());
    let setups: Vec<f64> = run
        .plain
        .iter()
        .map(Rep::setup_ref_s)
        .chain(run.extra_setups.iter().copied())
        .collect();
    vec![
        ("setup_s".into(), median(&setups)),
        ("run_s".into(), col(Rep::run_ref_s)),
        (
            "events_per_s".into(),
            col(|r| r.events as f64 / r.run_ref_s()),
        ),
        ("peak_rss_mb".into(), run.first_rss_mb),
    ]
}

fn per_layer(run: &Run) -> Vec<(String, f64)> {
    let mut values: BTreeMap<String, f64> = PER_LAYER
        .iter()
        .map(|(n, _)| (n.to_string(), 0.0))
        .collect();
    for name in PER_LAYER.iter().map(|(n, _)| *n) {
        let samples: Vec<f64> = run
            .traced
            .iter()
            .filter_map(|r| r.layers.get(name).copied())
            .collect();
        if !samples.is_empty() {
            values.insert(name.into(), median(&samples));
        }
    }
    let windows: Vec<f64> = run
        .traced
        .iter()
        .flat_map(|r| r.windows_ms.iter().copied())
        .collect();
    let (tail_ms, tail_pct) = tail(&windows);
    values.insert("simnet.window_ms_p50".into(), median(&windows));
    values.insert("simnet.window_ms_tail".into(), tail_ms);
    values.insert("simnet.window_tail_pct".into(), tail_pct);
    values.insert("simnet.windows".into(), windows.len() as f64);

    let plain_run = median(&run.plain.iter().map(Rep::run_ref_s).collect::<Vec<_>>());
    let traced_run = median(&run.traced.iter().map(Rep::run_ref_s).collect::<Vec<_>>());
    if plain_run > 0.0 {
        values.insert("trace.overhead_frac".into(), traced_run / plain_run - 1.0);
    }
    let twins: Vec<(f64, u64, u64)> = run
        .plain
        .iter()
        .filter_map(|r| r.twin.map(|(s, e)| (s * r.speed, e, r.events)))
        .collect();
    if !twins.is_empty() && plain_run > 0.0 {
        let serial_run = median(&twins.iter().map(|t| t.0).collect::<Vec<_>>());
        values.insert("simnet.parsim.speedup".into(), serial_run / plain_run);
        let (_, serial, par) = twins[0];
        values.insert(
            "simnet.parsim.event_drift".into(),
            serial.abs_diff(par) as f64 / serial.max(1) as f64,
        );
    }
    values.insert(
        "simcore.calendar.timer_churn_ns".into(),
        calendar_ns(|n| timer_heavy_workload(Backend::Wheel, n)),
    );
    values.insert(
        "simcore.calendar.uniform_ns".into(),
        calendar_ns(|n| uniform_workload(Backend::Wheel, n)),
    );
    PER_LAYER
        .iter()
        .map(|(n, _)| (n.to_string(), values[*n]))
        .collect()
}

/// Median host nanoseconds per operation of a calendar microworkload on
/// the timing wheel.
fn calendar_ns(f: impl Fn(u64) -> u64) -> f64 {
    const OPS: u64 = 100_000;
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f(std::hint::black_box(OPS)));
            start.elapsed().as_nanos() as f64 / OPS as f64
        })
        .collect();
    median(&samples)
}

/// Peak resident memory of the process so far, MiB.
fn rss_mb() -> f64 {
    flexpass_simcore::mem::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// A JSON number; a non-finite value (never expected) prints as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list(xs: impl Iterator<Item = f64>) -> String {
    let items: Vec<String> = xs.map(number).collect();
    format!("[{}]", items.join(", "))
}

/// One JSON line recording the raw samples beside the medians, the seed,
/// the result digest and the host the numbers were taken on.
fn provenance(workload: &str, args: &Args, run: &Run, metrics: &[(String, f64)]) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let samples = |reps: &[Rep]| {
        format!(
            "{{\"setup_s\": {}, \"run_s\": {}, \"events\": {}, \"speed\": {}}}",
            json_list(reps.iter().map(|r| r.setup_s)),
            json_list(reps.iter().map(|r| r.run_s)),
            json_list(reps.iter().map(|r| r.events as f64)),
            json_list(reps.iter().map(|r| r.speed)),
        )
    };
    let medians: Vec<String> = metrics
        .iter()
        .map(|(n, v)| format!("\"{n}\": {}", number(*v)))
        .collect();
    let problems: Vec<String> = run.problems.iter().map(|p| json_str(p)).collect();
    let failed_frac = run.failed as f64 / run.attempted.max(1) as f64;
    format!(
        "{{\"perfbench\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}}}, \
         \"digest\": {}, \"reference\": {}, \"failed_frac\": {}, \"problems\": [{}], \
         \"medians\": {{{}}}, \"untraced\": {}, \"traced\": {}, \"setup_only_ref_s\": {}, \
         \"calibration_s\": {}, \"process_peak_rss_mb\": {}}}}}",
        json_str(workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&run.digest),
        json_str(run.reference),
        number(failed_frac),
        problems.join(", "),
        medians.join(", "),
        samples(&run.plain),
        samples(&run.traced),
        json_list(run.extra_setups.iter().copied()),
        json_list(run.calibrations.iter().copied()),
        number(rss_mb()),
    )
}

/// Prints reference digests for seeds `0..n`; false (and no line for that
/// seed) when a rep violates an invariant.
fn record(only: Option<&str>, n: u64) -> bool {
    let mut ok = true;
    for line in digest::REFERENCE.lines().take_while(|l| l.starts_with('#')) {
        println!("{line}");
    }
    for w in WORKLOADS.iter().filter(|w| only.is_none_or(|o| o == **w)) {
        for seed in 0..n {
            let rep = workloads::rep(&Plain, w, seed, false);
            if rep.problems.is_empty() {
                println!("{w} {seed} {}", rep.digest.hash());
            } else {
                eprintln!("{w} seed {seed}: {:?}", rep.problems);
                ok = false;
            }
        }
    }
    ok
}
