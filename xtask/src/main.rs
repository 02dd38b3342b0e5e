//! Workspace automation tasks, invoked as `cargo xtask <task>`.
//!
//! Tasks:
//!
//! * `lint` — the determinism & units static-analysis pass over the
//!   simulation crates (see `lint.rs` and DESIGN.md "Determinism &
//!   invariants"). Findings can be rendered for humans (default), as JSON
//!   (`--format json`, for CI artifacts), or as GitHub Actions error
//!   annotations (`--format github`). `--report alloc` dumps the
//!   allocation-site inventory of the hot datapath modules instead, and
//!   `--report callgraph` the call-graph summary with every
//!   panic/alloc-reachable witness chain; `--update-baseline` rewrites
//!   `lint-baseline.json` from the current findings (shrink-only
//!   workflow: review the diff before committing).
//! * `bench` — the substrate benchmark with its regression gates.
//!   `--alloc-count` rebuilds with the counting global allocator and gates
//!   steady-state datapath allocations per event.
//! * `trace-report` — post-mortem summary of `--trace` JSONL logs (see
//!   `trace_report.rs` and DESIGN.md "Packet-lifecycle tracing").

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::baseline::Baseline;
use xtask::config::LintConfig;
use xtask::{lint, trace_report};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Json,
    Github,
}

#[derive(Clone, Copy)]
struct LintArgs {
    fmt: Format,
    report_alloc: bool,
    report_callgraph: bool,
    update_baseline: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => match parse_lint_args(&args[1..]) {
            Ok(la) => run_lint(la),
            Err(msg) => {
                eprintln!("{msg}");
                print_usage();
                ExitCode::FAILURE
            }
        },
        Some("bench") => run_bench(&args[1..]),
        Some("trace-report") => match trace_report::run(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        },
        Some("help") | None => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown task `{other}`");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn parse_lint_args(args: &[String]) -> Result<LintArgs, String> {
    let mut la = LintArgs {
        fmt: Format::Human,
        report_alloc: false,
        report_callgraph: false,
        update_baseline: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--update-baseline" {
            la.update_baseline = true;
            continue;
        }
        if arg == "--report" {
            let what = it
                .next()
                .ok_or_else(|| "--report requires a value".to_string())?;
            match what.as_str() {
                "alloc" => la.report_alloc = true,
                "callgraph" => la.report_callgraph = true,
                other => {
                    return Err(format!(
                        "unknown report `{other}` (expected `alloc` or `callgraph`)"
                    ))
                }
            }
            continue;
        }
        let value = if let Some(v) = arg.strip_prefix("--format=") {
            v.to_string()
        } else if arg == "--format" {
            it.next()
                .ok_or_else(|| "--format requires a value".to_string())?
                .clone()
        } else {
            return Err(format!("unknown argument `{arg}`"));
        };
        la.fmt = match value.as_str() {
            "human" => Format::Human,
            "json" => Format::Json,
            "github" => Format::Github,
            other => return Err(format!("unknown format `{other}`")),
        };
    }
    Ok(la)
}

fn print_usage() {
    eprintln!("usage: cargo xtask <task>");
    eprintln!();
    eprintln!("tasks:");
    eprintln!("  lint [--format human|json|github] [--report alloc|callgraph] [--update-baseline]");
    eprintln!("          run the determinism & units lint over the simulation crates;");
    eprintln!("          config in lint.toml, known findings in lint-baseline.json");
    eprintln!("  bench [--smoke] [--out PATH] [--alloc-count]");
    eprintln!("          run the substrate benchmark (release build) and emit the");
    eprintln!("          BENCH_substrate.json report (default: workspace root)");
    eprintln!("  trace-report PATH...");
    eprintln!("          summarize packet-lifecycle trace logs (JSONL files or");
    eprintln!("          directories from the experiments binary's --trace)");
    eprintln!();
    eprintln!("lint rules:");
    for (name, why) in lint::RULES {
        eprintln!("  {name:<20} {why}");
    }
}

/// Builds and runs the standalone substrate benchmark
/// (`crates/bench/src/bin/substrate_bench.rs`) in release mode, writing
/// `BENCH_substrate.json` (events/sec, ns/event, wheel-over-heap speedups).
/// `--smoke` runs the fast CI-sized variant; `--out PATH` overrides the
/// report location; `--alloc-count` rebuilds with the counting global
/// allocator and gates datapath allocations per event against the
/// committed report. The bench binary itself enforces the regression
/// gates and sets the exit code.
fn run_bench(args: &[String]) -> ExitCode {
    let root = workspace_root();
    let mut smoke = false;
    let mut alloc_count = false;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--alloc-count" => alloc_count = true,
            "--out" => match it.next() {
                Some(v) => out = Some(v.clone()),
                None => {
                    eprintln!("--out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument `{other}`");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
    }
    let out = out.unwrap_or_else(|| {
        root.join("BENCH_substrate.json")
            .to_string_lossy()
            .into_owned()
    });
    // Gate against the committed report's numbers (read before the run
    // overwrites the file). A missing key fails the run: a gate that
    // cannot find its number must not be skipped silently.
    let gates = std::fs::read_to_string(root.join("BENCH_substrate.json"))
        .map_err(|e| format!("cannot read the committed BENCH_substrate.json: {e}"))
        .and_then(|src| xtask::json::parse(&src))
        .and_then(|doc| committed_gates(&doc, alloc_count));
    let gates = match gates {
        Ok(g) => g,
        Err(e) => {
            eprintln!("xtask bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut cmd = std::process::Command::new(env!("CARGO"));
    cmd.current_dir(&root)
        .args(["run", "--release", "-p", "flexpass-bench"]);
    if alloc_count {
        cmd.args(["--features", "alloc-count"]);
    }
    cmd.args(["--bin", "substrate_bench", "--"]);
    if smoke {
        cmd.arg("--smoke");
    }
    if let Some(g) = gates.allocs_per_event {
        cmd.args(["--gate-alloc", &format!("{g}")]);
    }
    // The partitioned engine must not slow the serial (par-1) multipod
    // rate down.
    cmd.args(["--gate-multipod", &format!("{}", gates.multipod_serial)]);
    // The streaming recorder must keep the scale point's memory under the
    // committed ceiling.
    cmd.args([
        "--gate-scale-rss",
        &format!("{}", gates.scale_rss_ceiling_mb),
    ]);
    cmd.args(["--out", &out]);
    match cmd.status() {
        Ok(st) if st.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask bench: failed to run cargo: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Committed numbers the bench gates against.
#[derive(Debug, PartialEq)]
struct CommittedGates {
    /// `alloc.datapath_allocs_per_event`; read only with `--alloc-count`.
    allocs_per_event: Option<f64>,
    /// `events_per_sec` of the `multipod.runs` entry with `domains == 1`.
    multipod_serial: f64,
    /// `scale.rss_ceiling_mb`.
    scale_rss_ceiling_mb: u64,
}

/// Reads the gate values from a committed BENCH_substrate.json document.
/// The error names the first missing key.
fn committed_gates(doc: &xtask::json::Json, alloc_count: bool) -> Result<CommittedGates, String> {
    use xtask::json::Json;
    let missing = |key: &str| {
        format!(
            "committed BENCH_substrate.json has no `{key}`; re-record it with \
             `cargo run --release -p flexpass-bench --features alloc-count \
             --bin substrate_bench -- --out BENCH_substrate.json`"
        )
    };
    let allocs_per_event = if alloc_count {
        let v = doc
            .get("alloc")
            .and_then(|a| a.get("datapath_allocs_per_event"))
            .and_then(Json::as_f64);
        Some(v.ok_or_else(|| missing("alloc.datapath_allocs_per_event"))?)
    } else {
        None
    };
    let multipod_serial = doc
        .get("multipod")
        .and_then(|m| m.get("runs"))
        .and_then(Json::as_arr)
        .and_then(|runs| {
            runs.iter()
                .find(|r| r.get("domains").and_then(Json::as_u64) == Some(1))
        })
        .and_then(|r| r.get("events_per_sec"))
        .and_then(Json::as_f64)
        .ok_or_else(|| missing("multipod.runs[domains=1].events_per_sec"))?;
    let scale_rss_ceiling_mb = doc
        .get("scale")
        .and_then(|s| s.get("rss_ceiling_mb"))
        .and_then(Json::as_u64)
        .ok_or_else(|| missing("scale.rss_ceiling_mb"))?;
    Ok(CommittedGates {
        allocs_per_event,
        multipod_serial,
        scale_rss_ceiling_mb,
    })
}

fn run_lint(la: LintArgs) -> ExitCode {
    let root = workspace_root();
    let outcome = match lint::lint_workspace_full(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    if la.report_alloc {
        println!("{}", alloc_report_json(&outcome.alloc_report));
        return ExitCode::SUCCESS;
    }
    if la.report_callgraph {
        println!("{}", callgraph_report_json(&outcome.callgraph));
        return ExitCode::SUCCESS;
    }
    if la.update_baseline {
        let cfg = match LintConfig::load(&root) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("xtask lint: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut all = outcome.new.clone();
        all.extend(outcome.baselined.iter().cloned());
        let baseline = Baseline::from_findings(&all);
        let path = root.join(&cfg.baseline_path);
        if let Err(e) = std::fs::write(&path, baseline.to_json()) {
            eprintln!("xtask lint: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "xtask lint: baseline rewritten with {} finding(s) ({} entr{}) at {}",
            all.len(),
            baseline.entries.len(),
            if baseline.entries.len() == 1 {
                "y"
            } else {
                "ies"
            },
            cfg.baseline_path
        );
        return ExitCode::SUCCESS;
    }
    let findings = &outcome.new;
    match la.fmt {
        Format::Human => {
            for f in findings {
                eprintln!("{f}");
            }
            if findings.is_empty() {
                println!("xtask lint: clean");
            } else {
                eprintln!("xtask lint: {} finding(s)", findings.len());
            }
        }
        Format::Json => println!("{}", to_json(findings)),
        Format::Github => {
            for f in findings {
                // `::error` annotations surface inline on the PR diff. The
                // message must be data-escaped: a raw newline (witness
                // chains are multi-line) would truncate the annotation and
                // corrupt the workflow log.
                println!(
                    "::error file={},line={},col={},title=lint {}::{}",
                    f.file,
                    f.line,
                    f.col,
                    f.rule,
                    github_escape_data(&format!("{} ({})", f.text, f.why))
                );
            }
            if findings.is_empty() {
                println!("xtask lint: clean");
            } else {
                eprintln!("xtask lint: {} finding(s)", findings.len());
            }
        }
    }
    if !outcome.baselined.is_empty() {
        eprintln!(
            "xtask lint: {} baselined finding(s) suppressed (see lint-baseline.json)",
            outcome.baselined.len()
        );
    }
    for s in &outcome.stale {
        eprintln!(
            "xtask lint: stale baseline entry {}:[{}] {} (run --update-baseline)",
            s.file, s.rule, s.text
        );
    }
    if findings.is_empty() && outcome.stale.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Renders findings as a JSON array (hand-rolled: the workspace builds
/// offline with no serde dependency).
fn to_json(findings: &[lint::Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\":{},\"line\":{},\"col\":{},\"rule\":{},\"text\":{},\"why\":{}}}",
            json_str(&f.file),
            f.line,
            f.col,
            json_str(f.rule),
            json_str(&f.text),
            json_str(f.why)
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// Renders the hot-module allocation inventory as a JSON array, ordered by
/// (file, line, col) — byte-stable across runs for diffing in CI.
fn alloc_report_json(sites: &[xtask::rules::alloc::AllocSite]) -> String {
    let mut out = String::from("[");
    for (i, s) in sites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\":{},\"line\":{},\"col\":{},\"func\":{},\"kind\":{},\"gated\":{},\"text\":{}}}",
            json_str(&s.file),
            s.line,
            s.col,
            json_str(&s.func),
            json_str(&s.kind),
            s.gated,
            json_str(&s.text)
        ));
    }
    if !sites.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// Renders the call-graph summary plus witness inventory as a single JSON
/// object — fully sorted upstream, so byte-identical across runs.
fn callgraph_report_json(report: &xtask::rules::reachable::CallgraphReport) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\n  \"fns\":{},", report.fn_count));
    out.push_str(&format!("\n  \"edges\":{},", report.edge_count));
    let panic_count = report
        .witnesses
        .iter()
        .filter(|w| w.rule == "panic-reachable")
        .count();
    let alloc_count = report.witnesses.len() - panic_count;
    out.push_str(&format!("\n  \"panic_reachable_count\":{panic_count},"));
    out.push_str(&format!("\n  \"alloc_reachable_count\":{alloc_count},"));
    out.push_str("\n  \"entries\":[");
    for (i, e) in report.entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_str(e));
    }
    out.push_str("],\n  \"witnesses\":[");
    for (i, w) in report.witnesses.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let chain = w
            .chain
            .iter()
            .map(|c| json_str(c))
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "\n    {{\"rule\":{},\"entry\":{},\"chain\":[{}],\"file\":{},\"line\":{},\"col\":{},\"kind\":{},\"text\":{}}}",
            json_str(w.rule),
            json_str(&w.entry),
            chain,
            json_str(&w.file),
            w.line,
            w.col,
            json_str(&w.kind),
            json_str(&w.text)
        ));
    }
    if !report.witnesses.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}");
    out
}

/// Escapes an annotation *message* for GitHub Actions workflow commands:
/// `%` first, then newlines — the documented `%0A` encoding renders a
/// multi-line witness chain as one annotation.
fn github_escape_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The workspace root is one level above this crate's manifest dir.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .expect("xtask crate lives directly under the workspace root")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_gates_name_the_missing_key() {
        let full = xtask::json::parse(
            r#"{"multipod": {"runs": [{"domains": 2, "events_per_sec": 9.0},
                                      {"domains": 1, "events_per_sec": 5.0}]},
                "scale": {"rss_ceiling_mb": 1024},
                "alloc": {"enabled": true, "datapath_allocs_per_event": 0.001}}"#,
        )
        .unwrap();
        assert_eq!(
            committed_gates(&full, true),
            Ok(CommittedGates {
                allocs_per_event: Some(0.001),
                multipod_serial: 5.0,
                scale_rss_ceiling_mb: 1024,
            })
        );
        // A disabled alloc section only matters under --alloc-count.
        let no_alloc = xtask::json::parse(
            r#"{"multipod": {"runs": [{"domains": 1, "events_per_sec": 5.0}]},
                "scale": {"rss_ceiling_mb": 1024}, "alloc": {"enabled": false}}"#,
        )
        .unwrap();
        assert!(committed_gates(&no_alloc, false).is_ok());
        let err = committed_gates(&no_alloc, true).unwrap_err();
        assert!(err.contains("`alloc.datapath_allocs_per_event`"), "{err}");
        let no_scale = xtask::json::parse(
            r#"{"multipod": {"runs": [{"domains": 1, "events_per_sec": 5.0}]}}"#,
        )
        .unwrap();
        let err = committed_gates(&no_scale, false).unwrap_err();
        assert!(err.contains("`scale.rss_ceiling_mb`"), "{err}");
        let no_serial = xtask::json::parse(
            r#"{"multipod": {"runs": [{"domains": 2, "events_per_sec": 9.0}]},
                "scale": {"rss_ceiling_mb": 1024}}"#,
        )
        .unwrap();
        let err = committed_gates(&no_serial, false).unwrap_err();
        assert!(
            err.contains("`multipod.runs[domains=1].events_per_sec`"),
            "{err}"
        );
    }

    #[test]
    fn json_escapes_special_chars() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn github_escape_keeps_witness_chains_on_one_annotation() {
        assert_eq!(
            github_escape_data("A -> B\n  -> f.rs [index] x[i] (50% off)"),
            "A -> B%0A  -> f.rs [index] x[i] (50%25 off)"
        );
        // `%` escapes first, or `%0A` would double-escape.
        assert_eq!(github_escape_data("%\n"), "%25%0A");
    }

    #[test]
    fn callgraph_report_json_shape() {
        let report = xtask::rules::reachable::CallgraphReport {
            fn_count: 2,
            edge_count: 1,
            entries: vec!["Port::next_packet".into()],
            witnesses: vec![xtask::rules::reachable::Witness {
                rule: "panic-reachable",
                entry: "Port::next_packet".into(),
                entry_file: "crates/simnet/src/port.rs".into(),
                entry_line: 3,
                entry_col: 12,
                chain: vec!["Port::next_packet".into(), "helper".into()],
                file: "crates/simnet/src/host.rs".into(),
                line: 9,
                col: 5,
                kind: "unwrap".into(),
                text: "x.unwrap()".into(),
            }],
        };
        let j = callgraph_report_json(&report);
        assert!(j.contains("\"fns\":2"));
        assert!(j.contains("\"panic_reachable_count\":1"));
        assert!(j.contains("\"alloc_reachable_count\":0"));
        assert!(j.contains("\"chain\":[\"Port::next_packet\",\"helper\"]"));
        let empty = callgraph_report_json(&Default::default());
        assert!(empty.contains("\"witnesses\":[]"));
    }

    #[test]
    fn json_output_shape() {
        let findings = vec![lint::Finding {
            file: "crates/simnet/src/x.rs".into(),
            line: 3,
            col: 7,
            rule: "wall-clock",
            text: "let t = Instant::now();".into(),
            why: "wall-clock time in simulation logic; use simcore::time",
        }];
        let j = to_json(&findings);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"file\":\"crates/simnet/src/x.rs\""));
        assert!(j.contains("\"line\":3"));
        assert!(j.contains("\"col\":7"));
        assert!(j.contains("\"rule\":\"wall-clock\""));
        assert_eq!(to_json(&[]), "[]");
    }

    #[test]
    fn alloc_report_json_shape() {
        let sites = vec![xtask::rules::alloc::AllocSite {
            file: "crates/simnet/src/queue.rs".into(),
            line: 10,
            col: 4,
            func: "Queue::enqueue".into(),
            kind: "growth:push".into(),
            text: "self.q.push(p);".into(),
            gated: false,
            tok: 0,
        }];
        let j = alloc_report_json(&sites);
        assert!(j.contains("\"kind\":\"growth:push\""));
        assert!(j.contains("\"gated\":false"));
        assert_eq!(alloc_report_json(&[]), "[]");
    }
}
