//! The two flow workloads: `flow-stress`, the genflow stress flow with
//! nothing attached, and `flow-durable`, a stress flow with a run journal,
//! a metrics hub and a trace recorder attached, plus mid-run snapshots,
//! export and restart.

use std::cell::{Cell, RefCell};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use sciflow_arecibo::flow::{arecibo_flow_graph, AreciboFlowParams, CTC_POOL};
use sciflow_cleo::flow::{cleo_flow_graph, CleoFlowParams, WILSON_POOL};
use sciflow_core::genflow::{stress_flow, StressParams};
use sciflow_core::graph::FlowGraph;
use sciflow_core::sim::{CpuPool, FlowSim};
use sciflow_core::{
    CoreResult, MetricsHub, Observer, SimReport, SimTime, SnapshotPolicy, TraceEvent, TraceMeta,
    TraceRecorder,
};
use sciflow_weblab::flow::{weblab_flow_graph, WeblabFlowParams, WEBLAB_POOL};

use crate::measure::{median, ms_since, percentile, Outcome, Rng, Samples};
use crate::spans::{self, span};
use crate::Config;

/// Events per `run_for` step: the closed loop's unit of work.
pub const CHUNK: u64 = 10_000;
/// A journaled run seals one snapshot frame per this many events.
pub const SNAPSHOT_EVERY: u64 = 10_000;
/// Mid-run `snapshot_to` marks per flow-durable pass.
const MARKS: usize = 3;
/// Set-up builds each pass times on top of its own: a build takes about a
/// millisecond, so a run averages `setup_s` over a few hundred builds
/// spread through it.
const SETUP_BATCH: usize = 8;
/// Restarts from each snapshot mark per flow-durable pass: enough that a
/// pass's 90th-percentile restart is not simply its slowest.
const RESTARTS_PER_MARK: usize = 4;

/// The stress shape a flow workload runs, and the event count and
/// simulated finish time its report must show.
#[derive(Clone, Copy)]
pub struct FlowScale {
    pub stress: StressParams,
    pub events: u64,
    pub finished_at_us: u64,
    /// Passes a run makes at least, however short `--seconds` is.
    pub min_passes: usize,
}

/// flow-stress: `StressParams::default()`, 1,002 stages and 1M block-hops.
pub const STRESS: FlowScale = FlowScale {
    stress: StressParams { chains: 8, depth: 125, blocks: 1000 },
    events: 2_009_000,
    finished_at_us: 30_003_680_115,
    min_passes: 5,
};

/// flow-durable: the same 1,002 stages with a quarter of the blocks. The
/// full stress flow records ~4M trace events and renders ~350 MB of JSONL
/// per pass (~0.8 GB peak RSS, ~2 s of export), which leaves too few passes
/// in a run for a steady median; the quarter shape keeps every attachment
/// and the same per-event work.
pub const DURABLE: FlowScale = FlowScale {
    stress: StressParams { chains: 8, depth: 125, blocks: 250 },
    events: 502_250,
    finished_at_us: 7_503_680_115,
    min_passes: 5,
};

/// Paper flows at the defaults the committed goldens use, with their
/// committed finish times.
fn paper_flows() -> Vec<(&'static str, FlowGraph, Vec<CpuPool>, u64)> {
    vec![
        (
            "arecibo",
            arecibo_flow_graph(&AreciboFlowParams::default()),
            vec![CpuPool::new("observatory", 8), CpuPool::new(CTC_POOL, 150)],
            2_841_083_333_333,
        ),
        (
            "cleo",
            cleo_flow_graph(&CleoFlowParams::default()),
            vec![CpuPool::new(WILSON_POOL, 64)],
            381_600_000_000,
        ),
        (
            "weblab",
            weblab_flow_graph(&WeblabFlowParams::default()),
            vec![CpuPool::new(WEBLAB_POOL, 16)],
            1_170_849_000_000,
        ),
    ]
}

fn new_sim(scale: &FlowScale) -> CoreResult<FlowSim> {
    let (graph, pools) = stress_flow(&scale.stress);
    span("sim.new", || FlowSim::new(graph, pools))
}

/// Set-up samples for one pass: seconds per build of the stress simulator
/// with the given attachments. The pass adds the time of its own builds.
fn setup_samples(reps: usize, mut build: impl FnMut() -> Option<FlowSim>) -> Vec<f64> {
    let mut xs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let sim = build();
        xs.push(t.elapsed().as_secs_f64());
        drop(sim);
    }
    xs
}

/// Step `sim` to quiescence in `CHUNK`-event `run_for` calls, timing each
/// into `s`. `at_chunk` runs after every step that leaves events pending.
/// Returns the events handled.
fn run_chunks(
    sim: &mut FlowSim,
    out: &mut Outcome,
    s: &mut Samples,
    record_ns: Option<&Cell<u64>>,
    mut at_chunk: impl FnMut(&FlowSim, &mut Outcome),
) -> u64 {
    loop {
        let t = Instant::now();
        let more = span("sim.run_for", || {
            let r = sim.run_for(CHUNK);
            if let Some(ns) = record_ns {
                spans::aggregate("trace.record", ns.take());
            }
            r
        });
        let secs = t.elapsed().as_secs_f64();
        s.busy_s += secs;
        s.steps_ms.push(secs * 1e3);
        match out.op("FlowSim::run_for", more) {
            Some(true) => at_chunk(sim, out),
            _ => {
                s.work += sim.events_handled() as f64;
                return sim.events_handled();
            }
        }
    }
}

fn check_report(out: &mut Outcome, what: &str, scale: &FlowScale, events: u64, r: &SimReport) {
    let finished = r.finished_at.as_micros();
    out.check(format!("{what}: {} events handled", scale.events), events == scale.events);
    out.check(
        format!("{what}: finished_at_us {}", scale.finished_at_us),
        finished == scale.finished_at_us,
    );
    if (events, finished) != (scale.events, scale.finished_at_us) {
        out.note(format!("{what}: handled {events} events, finished at {finished} us"));
    }
}

/// Tallies the trace stream by kind and, when given a recorder, forwards
/// each event to it, timing the forwarded call.
struct Tally {
    counts: Rc<RefCell<[u64; 4]>>,
    recorder: Option<TraceRecorder>,
    record_ns: Rc<Cell<u64>>,
}

const TASK_STARTS: usize = 0;
const TASK_ENDS: usize = 1;
const TRANSFER_ATTEMPTS: usize = 2;
const QUEUE_DEPTH_CHANGES: usize = 3;

impl Observer for Tally {
    fn begin(&mut self, meta: &TraceMeta) {
        if let Some(r) = &mut self.recorder {
            r.begin(meta);
        }
    }

    fn record(&mut self, at: SimTime, ev: &TraceEvent) {
        {
            let mut c = self.counts.borrow_mut();
            match ev {
                TraceEvent::TaskStart { .. } => c[TASK_STARTS] += 1,
                TraceEvent::TaskEnd { .. } => c[TASK_ENDS] += 1,
                TraceEvent::TransferAttempt { .. } => c[TRANSFER_ATTEMPTS] += 1,
                TraceEvent::QueueDepthChange { .. } => c[QUEUE_DEPTH_CHANGES] += 1,
                _ => {}
            }
        }
        if let Some(r) = &mut self.recorder {
            let t = Instant::now();
            r.record(at, ev);
            self.record_ns.set(self.record_ns.get() + t.elapsed().as_nanos() as u64);
        }
    }
}

/// The three paper flows, once each, as output checks only. Both flow
/// workloads make them, since only flow-durable is in `BENCHMARK.json`.
fn check_paper_flows(out: &mut Outcome) {
    for (name, graph, pools, finish) in paper_flows() {
        let report = out.op(name, FlowSim::new(graph, pools).and_then(FlowSim::run));
        out.check(
            format!("{name}: finished_at_us {finish}"),
            report.is_some_and(|r| r.finished_at.as_micros() == finish),
        );
    }
}

// ---------------------------------------------------------------------------
// flow-stress

/// One flow-stress pass: the stress flow stepped to quiescence in chunks,
/// then run once more uninterrupted (the pass's phase sample).
fn stress_pass(
    scale: &FlowScale,
    out: &mut Outcome,
    s: &mut Samples,
    attach: impl Fn(FlowSim) -> FlowSim,
) -> Option<()> {
    let build = |out: &mut Outcome, s: &mut Samples| {
        let t = Instant::now();
        let sim = out.op("FlowSim::new", new_sim(scale)).map(&attach);
        s.setup_s.push(t.elapsed().as_secs_f64());
        sim
    };
    let mut sim = build(out, s)?;
    let events = run_chunks(&mut sim, out, s, None, |_, _| {});
    let stepped = out.op("FlowSim::run", span("sim.run", || sim.run()))?;
    check_report(out, "stepped run", scale, events, &stepped);
    let sim = build(out, s)?;
    let t = Instant::now();
    let whole = out.op("FlowSim::run", span("sim.run", || sim.run()))?;
    s.phase_s.push(t.elapsed().as_secs_f64());
    s.end_pass();
    out.check("uninterrupted run reports as the stepped run", whole == stepped);
    Some(())
}

pub fn flow_stress(cfg: &Config, scale: &FlowScale, out: &mut Outcome) {
    check_paper_flows(out);
    if cfg.trace {
        return traced_stress(scale, out);
    }
    let mut s = Samples::default();
    let deadline = Instant::now() + cfg.duration();
    while s.passes() < scale.min_passes || Instant::now() < deadline {
        s.setup_s.extend(setup_samples(SETUP_BATCH, || new_sim(scale).ok()));
        if stress_pass(scale, out, &mut s, |sim| sim).is_none() {
            break;
        }
    }
    out.note("ops_per_s: simulated events per host second inside FlowSim::run_for");
    out.note(format!(
        "step_ms: one {CHUNK}-event run_for chunk; phase_s: one uninterrupted FlowSim::run"
    ));
    s.report(out);
}

fn traced_stress(scale: &FlowScale, out: &mut Outcome) {
    // The counts come from a run of their own, untimed: the metrics hub
    // and the counting observer make the simulator emit its trace stream,
    // which the bare flow-stress configuration never pays for.
    let hub = MetricsHub::new();
    let counts = Rc::new(RefCell::new([0u64; 4]));
    let observer = Tally { counts: counts.clone(), recorder: None, record_ns: Rc::default() };
    let counted = new_sim(scale).map(|sim| sim.with_metrics(hub.clone()).with_observer(observer));
    if let Some(report) = out.op("FlowSim::run", counted.and_then(FlowSim::run)) {
        let events = hub.value("engine_events_handled").unwrap_or(0);
        check_report(out, "counted run", scale, events, &report);
    }
    engine_metrics(out, &hub);
    behavior_metrics(out, &counts.borrow());

    // The timings come from the bare pass flow-stress measures, with spans
    // and nothing else around it.
    let mut s = Samples::default();
    let (_, overhead) = spans::with_overhead(|traced| {
        let samples = if traced { &mut s } else { &mut Samples::default() };
        stress_pass(scale, out, samples, |sim| sim)
    });
    sim_metrics(out, &s.steps_ms, scale.events);
    out.metric("host.trace_overhead_pct", overhead);
}

/// Trace events of one run, tallied by kind.
fn behavior_metrics(out: &mut Outcome, c: &[u64; 4]) {
    out.metric("behavior.task_starts", c[TASK_STARTS] as f64);
    out.metric("behavior.task_ends", c[TASK_ENDS] as f64);
    out.metric("behavior.transfer_attempts", c[TRANSFER_ATTEMPTS] as f64);
    out.metric("behavior.queue_depth_changes", c[QUEUE_DEPTH_CHANGES] as f64);
}

/// Engine high-water marks as the metrics hub saw them at the end of the
/// last run it was attached to.
fn engine_metrics(out: &mut Outcome, hub: &MetricsHub) {
    let gauge = |name| hub.value(name).unwrap_or(0) as f64;
    out.metric("engine.events_handled", gauge("engine_events_handled"));
    out.metric("engine.peak_pending", gauge("engine_peak_pending"));
    out.metric("engine.slab_high_water", gauge("engine_slab_high_water"));
}

/// `sim.*` and `alloc.per_event` from the traced pass's spans, which made
/// one stepped run of `events` events.
fn sim_metrics(out: &mut Outcome, chunk_ms: &[f64], events: u64) {
    let (new_ms, _) = spans::durations_ms("sim.new");
    let (_, run_for_allocs) = spans::durations_ms("sim.run_for");
    out.metric("sim.new_ms", median(&new_ms));
    out.metric("sim.chunk_ms_p50", percentile(chunk_ms, 0.5).0);
    out.metric("sim.chunk_ms_p90", percentile(chunk_ms, 0.9).0);
    out.note_samples("sim.chunk_ms", chunk_ms, 0.9);
    out.metric("alloc.per_event", run_for_allocs as f64 / events as f64);
}

// ---------------------------------------------------------------------------
// flow-durable

/// Seeded snapshot marks: distinct chunk boundaries strictly inside the run
/// (fewer than `MARKS` only when the run has fewer inner boundaries).
fn snapshot_marks(seed: u64, scale: &FlowScale) -> Vec<u64> {
    let chunks = (scale.events / CHUNK).max(2);
    let mut rng = Rng::new(seed, "snapshot-marks");
    let mut marks = Vec::new();
    while marks.len() < MARKS.min(chunks as usize - 1) {
        let m = (1 + rng.below(chunks - 1)) * CHUNK;
        if !marks.contains(&m) {
            marks.push(m);
        }
    }
    marks.sort_unstable();
    marks
}

/// A stress simulator with every attachment flow-durable uses but the run
/// journal: the configuration a snapshot resumes into, and what flow-durable
/// counts as set-up. Opening the journal fsyncs its header, and the host's
/// disk latency moved the median of that by 30% between sweeps, so it is
/// timed only in the traced run (`durable.with_journal`).
fn durable_sim(
    scale: &FlowScale,
    hub: &MetricsHub,
    observer: impl Observer + 'static,
) -> CoreResult<FlowSim> {
    Ok(new_sim(scale)?
        .with_metrics(hub.clone())
        .with_observer(observer)
        .with_snapshot_policy(SnapshotPolicy::EveryEvents(SNAPSHOT_EVERY)))
}

/// One flow-durable pass: run journaled with metrics and trace attached,
/// snapshot at each mark, export (the pass's phase sample), then restart
/// from every snapshot several times (the pass's steps). With `verify`,
/// the first run restarted from each mark also finishes and must match
/// `reference`. Returns the exported trace bytes and the `run_for` chunk
/// times.
#[allow(clippy::too_many_arguments)]
fn durable_pass(
    scale: &FlowScale,
    marks: &[u64],
    work: &Path,
    reference: &SimReport,
    verify: bool,
    out: &mut Outcome,
    s: &mut Samples,
    tally: Option<&Rc<RefCell<[u64; 4]>>>,
) -> Option<(u64, Vec<f64>)> {
    let hub = MetricsHub::new();
    let recorder = TraceRecorder::new();
    let record_ns = Rc::new(Cell::new(0));
    let journal = work.join("run.journal");
    let t = Instant::now();
    let sim = match tally {
        Some(counts) => {
            let observer = Tally {
                counts: counts.clone(),
                recorder: Some(recorder.clone()),
                record_ns: record_ns.clone(),
            };
            durable_sim(scale, &hub, observer)
        }
        None => durable_sim(scale, &hub, recorder.clone()),
    };
    let sim = out.op("FlowSim::new", sim)?;
    s.setup_s.push(t.elapsed().as_secs_f64());
    let journaled = span("durable.with_journal", || sim.with_journal(&journal));
    let mut sim = out.op("FlowSim::with_journal", journaled)?;
    let snap = |i: usize| work.join(format!("mark{i}.snap"));
    let traced_ns = tally.map(|_| &*record_ns);
    let mut chunks = Samples::default();
    let events = run_chunks(&mut sim, out, &mut chunks, traced_ns, |sim, out| {
        let handled = sim.events_handled();
        if let Some(i) = marks.iter().position(|&m| m == handled) {
            out.op(
                "FlowSim::snapshot_to",
                span("durable.snapshot_to", || sim.snapshot_to(snap(i))),
            );
        }
    });
    s.work += chunks.work;
    s.busy_s += chunks.busy_s;
    let report = out.op("FlowSim::run", span("sim.run", || sim.run()))?;
    check_report(out, "durable run", scale, events, &report);
    out.check("attachments leave the report as the bare run's", report == *reference);
    if tally.is_some() {
        engine_metrics(out, &hub);
        out.metric("trace.events", recorder.len() as f64);
        out.metric(
            "trace.record_ns_per_event",
            spans::durations_ms("trace.record").0.iter().sum::<f64>() * 1e6
                / recorder.len().max(1) as f64,
        );
        out.metric(
            "durable.snapshot_frames",
            hub.value("snapshot_frames_total").unwrap_or(0) as f64,
        );
        out.metric(
            "durable.snapshot_bytes",
            hub.histogram_sum("snapshot_bytes").unwrap_or(0) as f64,
        );
        out.metric("obs.series", hub.len() as f64);
    }

    let t = Instant::now();
    let jsonl_len = span("trace.jsonl", || recorder.jsonl().len());
    let chrome_len = span("trace.chrome", || recorder.chrome_trace().len());
    let metrics_len =
        span("obs.render", || hub.render_json().len() + hub.render_prometheus().len());
    s.phase_s.push(t.elapsed().as_secs_f64());
    drop(recorder);
    out.check("export renders every format", jsonl_len > 0 && chrome_len > 0 && metrics_len > 0);

    for i in 0..marks.len() {
        for restart in 0..RESTARTS_PER_MARK {
            let fresh = out
                .op("FlowSim::new", durable_sim(scale, &MetricsHub::new(), TraceRecorder::new()))?;
            let t = Instant::now();
            let resumed = span("durable.restart", || {
                let mut sim = span("durable.resume_from", || fresh.resume_from(snap(i)))?;
                span("sim.first_event", || sim.run_for(1)).map(|_| sim)
            });
            let elapsed = ms_since(t);
            let resumed = out.op("FlowSim::resume_from", resumed)?;
            s.steps_ms.push(elapsed);
            if verify && restart == 0 {
                let finished = out.op("FlowSim::run", resumed.run());
                out.check(
                    format!("run resumed from mark {i} reports as the uninterrupted run"),
                    finished.is_some_and(|r| r == *reference),
                );
            }
        }
    }
    s.end_pass();
    Some(((jsonl_len + chrome_len) as u64, chunks.steps_ms))
}

pub fn flow_durable(cfg: &Config, scale: &FlowScale, out: &mut Outcome) {
    check_paper_flows(out);
    let marks = snapshot_marks(cfg.seed, scale);
    out.note(format!("snapshot marks (events): {marks:?}"));
    let work = cfg.work.as_path();
    let Some(reference) = out.op("FlowSim::run", new_sim(scale).and_then(FlowSim::run)) else {
        return;
    };
    if cfg.trace {
        return traced_durable(scale, &marks, work, &reference, out);
    }
    let hub = MetricsHub::new();
    let mut s = Samples::default();
    let deadline = Instant::now() + cfg.duration();
    while s.passes() < scale.min_passes || Instant::now() < deadline {
        s.setup_s.extend(setup_samples(SETUP_BATCH, || {
            durable_sim(scale, &hub, TraceRecorder::new()).ok()
        }));
        let verify = s.passes() == 0;
        if durable_pass(scale, &marks, work, &reference, verify, out, &mut s, None).is_none() {
            break;
        }
    }
    out.note("ops_per_s: simulated events per host second inside FlowSim::run_for");
    out.note(
        "step_ms: one restart (resume_from until the first event after it) [restart_ms]; \
         phase_s: export (JSONL and Chrome traces, JSON and Prometheus metrics)",
    );
    s.report(out);
}

/// Events per second inside `run_for` for the durable shape with one
/// attachment; the attachment ladder compares these.
fn ladder_rate(scale: &FlowScale, rung: &str, work: &Path, out: &mut Outcome) -> f64 {
    let Some(sim) = out.op("FlowSim::new", new_sim(scale)) else { return 0.0 };
    let mut sim = match rung {
        "metrics" => sim.with_metrics(MetricsHub::new()),
        "journal" => {
            let sim = sim.with_snapshot_policy(SnapshotPolicy::EveryEvents(SNAPSHOT_EVERY));
            let journaled = sim.with_journal(work.join("ladder.journal"));
            let Some(sim) = out.op("FlowSim::with_journal", journaled) else { return 0.0 };
            sim
        }
        "trace" => sim.with_observer(TraceRecorder::new()),
        _ => sim,
    };
    let mut s = Samples::default();
    run_chunks(&mut sim, out, &mut s, None, |_, _| {});
    s.work / s.busy_s
}

fn traced_durable(
    scale: &FlowScale,
    marks: &[u64],
    work: &Path,
    reference: &SimReport,
    out: &mut Outcome,
) {
    // Attachment ladder, untraced and interleaved: bare, then each
    // attachment alone.
    let rungs = ["bare", "metrics", "journal", "trace"];
    let mut rates = vec![Vec::new(); rungs.len()];
    for _ in 0..3 {
        for (i, rung) in rungs.iter().enumerate() {
            rates[i].push(ladder_rate(scale, rung, work, out));
        }
    }
    let bare = median(&rates[0]);
    for (i, layer) in [(1, "obs"), (2, "durable"), (3, "trace")] {
        out.metric(&format!("{layer}.overhead_pct"), (bare / median(&rates[i]) - 1.0) * 100.0);
    }

    let counts = Rc::new(RefCell::new([0u64; 4]));
    let (pass, overhead) = spans::with_overhead(|traced| {
        let s = &mut Samples::default();
        durable_pass(scale, marks, work, reference, false, out, s, traced.then_some(&counts))
    });
    let (export_bytes, chunk_ms) = pass.unwrap_or_default();
    behavior_metrics(out, &counts.borrow());
    sim_metrics(out, &chunk_ms, scale.events);
    let p50 = |name| median(&spans::durations_ms(name).0);
    out.metric("trace.jsonl_ms", p50("trace.jsonl"));
    out.metric("trace.chrome_ms", p50("trace.chrome"));
    out.metric("obs.render_ms", p50("obs.render"));
    out.metric("durable.snapshot_to_ms_p50", p50("durable.snapshot_to"));
    out.metric("durable.resume_ms_p50", p50("durable.resume_from"));
    out.metric("durable.restart_ms_p50", p50("durable.restart"));
    out.metric("trace.export_bytes", export_bytes as f64);
    out.metric("host.trace_overhead_pct", overhead);
}
