//! sciflow benchmark: the command-line entry point.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flow-stress|flow-durable|store-fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is one closed loop: a single thread making one call into
//! the library at a time and timing it from outside. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` makes a separate traced run and prints
//! the per-layer metrics. The last line of standard output is the result as
//! one JSON object; the lines above it give provenance, the output checks
//! and sample counts. See `perfbench/README.md` for what every metric means.

mod flows;
mod measure;
mod spans;
mod store;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use measure::{peak_rss_mib, Outcome};

#[global_allocator]
static ALLOC: spans::CountingAlloc = spans::CountingAlloc;

/// End-to-end metrics, printed by every untraced run, with their units.
/// `BENCHMARK.json` lists the same names.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("phase_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer that does no
/// work on a workload reports 0 there.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("engine.events_handled", "count"),
    ("engine.peak_pending", "count"),
    ("engine.slab_high_water", "count"),
    ("sim.new_ms", "ms"),
    ("sim.chunk_ms_p50", "ms"),
    ("sim.chunk_ms_p90", "ms"),
    ("sim.self_ms", "ms"),
    ("behavior.task_starts", "count"),
    ("behavior.task_ends", "count"),
    ("behavior.transfer_attempts", "count"),
    ("behavior.queue_depth_changes", "count"),
    ("trace.events", "count"),
    ("trace.record_ns_per_event", "ns"),
    ("trace.jsonl_ms", "ms"),
    ("trace.chrome_ms", "ms"),
    ("trace.export_bytes", "bytes"),
    ("trace.overhead_pct", "%"),
    ("trace.self_ms", "ms"),
    ("obs.series", "count"),
    ("obs.render_ms", "ms"),
    ("obs.overhead_pct", "%"),
    ("obs.self_ms", "ms"),
    ("durable.snapshot_frames", "count"),
    ("durable.snapshot_bytes", "bytes"),
    ("durable.snapshot_to_ms_p50", "ms"),
    ("durable.resume_ms_p50", "ms"),
    ("durable.restart_ms_p50", "ms"),
    ("durable.overhead_pct", "%"),
    ("durable.self_ms", "ms"),
    ("replica.write_us_p50", "us"),
    ("replica.summary_ms", "ms"),
    ("replica.units_in_range_ms", "ms"),
    ("replica.sealed_content_ms", "ms"),
    ("replica.round_ms_p50", "ms"),
    ("replica.sessions", "count"),
    ("replica.sessions_dropped", "count"),
    ("replica.rounds", "count"),
    ("replica.ranges_differing", "count"),
    ("replica.units_sent", "count"),
    ("replica.frames_sent", "count"),
    ("replica.bytes_sent", "bytes"),
    ("replica.corrupt_frames", "count"),
    ("replica.ship_ratio", "ratio"),
    ("replica.self_ms", "ms"),
    ("store.file_get_us_p50", "us"),
    ("store.self_ms", "ms"),
    ("metastore.rows", "count"),
    ("alloc.per_event", "count"),
    ("alloc.per_settle", "count"),
    ("alloc.peak_bytes", "bytes"),
    ("host.trace_overhead_pct", "%"),
    ("host.failed_ops_ratio", "ratio"),
];

/// Layers that get a `<layer>.self_ms` metric from the traced run's spans.
const SELF_TIME_LAYERS: [&str; 6] = ["sim", "trace", "obs", "durable", "replica", "store"];

pub const WORKLOADS: [&str; 3] = ["flow-stress", "flow-durable", "store-fleet"];

/// The workloads `BENCHMARK.json` lists. flow-stress is left out: on the
/// shared host the benchmark was tuned on, its time medians moved by up to
/// 39% between two back-to-back sweeps, more than any bound allows. It
/// stays runnable, for comparisons interleaved by hand.
pub const LISTED: [&str; 2] = ["flow-durable", "store-fleet"];

/// One run's settings, from the command line.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for journals and snapshots, inside the checkout.
    pub work: PathBuf,
}

impl Config {
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        work: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(cfg)
}

/// The size of every workload: full scale for measuring, reduced for the
/// smoke tests.
pub struct Scales {
    pub stress: flows::FlowScale,
    pub durable: flows::FlowScale,
    pub fleet: store::FleetScale,
}

pub const FULL: Scales =
    Scales { stress: flows::STRESS, durable: flows::DURABLE, fleet: store::FLEET };

/// Run the configured workload and fill in the metrics every workload
/// shares.
pub fn run(cfg: &Config, scales: &Scales) -> Outcome {
    let mut out = Outcome::default();
    match cfg.workload.as_str() {
        "flow-stress" => flows::flow_stress(cfg, &scales.stress, &mut out),
        "flow-durable" => flows::flow_durable(cfg, &scales.durable, &mut out),
        _ => store::store_fleet(cfg, &scales.fleet, &mut out),
    }
    finish(cfg, &mut out);
    out
}

/// Add the shared metrics and keep exactly the mode's metric list, in
/// table order: end-to-end for an untraced run, per-layer for a traced one
/// (where a layer this workload never reached reports 0).
pub fn finish(cfg: &Config, out: &mut Outcome) {
    if cfg.trace {
        let layers = spans::self_ms_by_layer();
        for layer in SELF_TIME_LAYERS {
            out.metric(&format!("{layer}.self_ms"), layers.get(layer).copied().unwrap_or(0.0));
        }
        out.note(format!("self time by span layer (ms): {layers:?}"));
        out.metric("alloc.peak_bytes", spans::alloc_peak_bytes() as f64);
        out.metric("host.failed_ops_ratio", out.failed as f64 / out.attempted.max(1) as f64);
    } else {
        out.metric("peak_rss_mib", peak_rss_mib());
    }
    let table: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut ordered = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = out.metrics.iter().rev().find(|m| m.name == *name).map_or(0.0, |m| m.value);
        ordered.push(measure::Metric { name: name.to_string(), value, unit });
    }
    for m in &out.metrics {
        if !table.iter().any(|(n, _)| *n == m.name) {
            out.notes.push(format!("{} = {} (not in this mode's metric list)", m.name, m.value));
        }
    }
    out.check("every metric is a finite number", ordered.iter().all(|m| m.value.is_finite()));
    out.metrics = ordered;
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
/// A non-finite value (already a failed check) prints as 0 to keep the line
/// valid JSON.
pub fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// Where the numbers came from: machine, toolchain, source, and settings.
fn provenance(cfg: &Config) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    // A checkout without `.git` is not a repository of its own; asking git
    // there would report whatever repository encloses it.
    let (sha, dirty) = if root.join(".git").exists() {
        let sha = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
        let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
            .map_or("unknown".to_string(), |s| (!s.is_empty()).to_string());
        (sha, dirty)
    } else {
        ("none (not a git checkout)".to_string(), "unknown".to_string())
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cpu\": \"{}\", \"nproc\": {nproc}, \"rustc\": \"{}\", \"git_sha\": \"{sha}\", \"git_dirty\": \"{dirty}\"}}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cpu.replace('"', "'"),
        env!("PERFBENCH_RUSTC"),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work.display());
        return ExitCode::FAILURE;
    }
    let prov = provenance(&cfg);
    let out = run(&cfg, &FULL);
    if cfg.trace {
        let path = cfg.work.join(format!("spans-{}-{}.jsonl", cfg.workload, cfg.seed));
        match spans::write_jsonl(&path, &format!("{{\"provenance\": {prov}}}")) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => println!("spans: not written ({e})"),
        }
    }
    // Journals and snapshots are scratch; the span file stays.
    for entry in std::fs::read_dir(&cfg.work).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|x| x == "journal" || x == "snap") {
            let _ = std::fs::remove_file(path);
        }
    }
    println!("provenance: {prov}");
    for (name, passed, total) in &out.checks {
        println!(
            "check {}: {name} ({passed}/{total})",
            if passed == total { "ok" } else { "FAILED" }
        );
    }
    for note in &out.notes {
        println!("note: {note}");
    }
    for m in &out.metrics {
        println!("metric {} = {} {}", m.name, json_number(m.value), m.unit);
    }
    println!("{}", result_json(&out));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: Scales = Scales {
        stress: flows::FlowScale {
            stress: sciflow_core::genflow::StressParams { chains: 4, depth: 25, blocks: 400 },
            events: SMOKE_EVENTS,
            finished_at_us: SMOKE_FINISHED_AT_US,
            min_passes: 1,
        },
        durable: flows::FlowScale {
            stress: sciflow_core::genflow::StressParams { chains: 4, depth: 25, blocks: 400 },
            events: SMOKE_EVENTS,
            finished_at_us: SMOKE_FINISHED_AT_US,
            min_passes: 1,
        },
        fleet: store::FleetScale { records: 100, batch: 8, pass_batches: 5, min_passes: 1 },
    };
    const SMOKE_EVENTS: u64 = 82_000;
    const SMOKE_FINISHED_AT_US: u64 = 11_977_177_126;

    /// One reduced-scale run in a work directory of its own (tests run on
    /// parallel threads).
    fn smoke(workload: &str, seed: u64, trace: bool) -> Outcome {
        let work = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("test-{workload}-{seed}-{trace}"));
        std::fs::create_dir_all(&work).expect("work directory");
        let cfg = Config { workload: workload.into(), seed, seconds: 0.001, trace, work };
        let out = run(&cfg, &SMOKE);
        let _ = std::fs::remove_dir_all(&cfg.work);
        out
    }

    #[test]
    fn every_workload_passes_its_checks_at_reduced_scale() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let out = smoke(workload, 5, trace);
                let failed: Vec<_> = out.checks.iter().filter(|c| c.1 != c.2).collect();
                assert!(out.correct(), "{workload} trace={trace}: {failed:?} {:?}", out.notes);
                let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
                let expect: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
                assert_eq!(names, expect, "{workload} trace={trace}");
                assert!(out.metrics.iter().all(|m| m.value.is_finite()));
                if !trace {
                    assert!(out.metrics.iter().all(|m| m.value > 0.0), "{workload}: a zero metric");
                }
            }
        }
    }

    /// Work counters are exact: the same seed gives the same counts.
    /// (Allocation counts are left out here: the counting allocator is
    /// process-wide and tests run on parallel threads.)
    #[test]
    fn work_counters_repeat_for_a_seed() {
        for workload in WORKLOADS {
            let counts = || -> Vec<(String, f64)> {
                smoke(workload, 9, true)
                    .metrics
                    .into_iter()
                    .filter(|m| {
                        matches!(m.unit, "count" | "bytes") && !m.name.starts_with("alloc.")
                    })
                    .map(|m| (m.name, m.value))
                    .collect()
            };
            assert_eq!(counts(), counts(), "{workload}");
        }
    }

    #[test]
    fn benchmark_json_lists_every_workload_and_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for w in WORKLOADS {
            let listed = text.contains(&format!("\"name\": \"{w}\""));
            assert_eq!(listed, LISTED.contains(&w), "workload {w}");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "metric {name} ({unit})");
        }
        let listed = text.matches("\"name\":").count();
        assert_eq!(listed, LISTED.len() + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let mut out = Outcome::default();
        out.metric("setup_s", 0.5);
        let cfg = Config {
            workload: "flow-stress".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            work: PathBuf::new(),
        };
        finish(&cfg, &mut out);
        let line = result_json(&out);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }

    #[test]
    fn bad_arguments_are_refused() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--workload", "flow-stress", "--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--workload", "flow-stress", "--seed"])).is_err());
        let cfg = parse_args(&args(&["--workload", "store-fleet", "--seed", "7", "--trace", "1"]))
            .expect("valid arguments");
        assert_eq!((cfg.seed, cfg.trace), (7, true));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(measure::percentile(&xs, 0.9), (90.0, 10));
        assert_eq!(measure::percentile(&xs, 0.5), (50.0, 50));
        assert_eq!(measure::median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(measure::median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
