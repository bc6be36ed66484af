//! Measurement helpers: timing statistics, the seeded input generator,
//! peak RSS, run provenance, and the result a workload hands back.

use std::time::Instant;

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of `xs` (mean of the middle pair for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` (0 < q <= 1) of `xs`, with the number of
/// samples above that rank; `(0, 0)` when empty.
pub fn percentile(xs: &[f64], q: f64) -> (f64, usize) {
    let s = sorted(xs);
    if s.is_empty() {
        return (0.0, 0);
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    (s[rank - 1], s.len() - rank)
}

/// Arithmetic mean of `xs`; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// SplitMix64: the only source of randomness in the benchmark. Every input
/// a workload draws comes from one of these, seeded from `--seed` and a
/// per-purpose label, so the same seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, label: &str) -> Self {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One named metric with its unit, as printed in the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run hands back: its metrics, its operation counts,
/// the outcome of every output check, and free-form notes (sample counts,
/// per-workload names of the generic metrics) printed above the result.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks by name: times passed, times run.
    pub checks: Vec<(String, u64, u64)>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric; `finish` gives it the unit from the metric tables.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push(Metric { name: name.to_string(), value, unit: "" });
    }

    /// Record an output check. A failed check counts as a failed operation
    /// and never aborts the run.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        self.attempted += 1;
        self.failed += u64::from(!ok);
        match self.checks.iter_mut().find(|c| c.0 == name) {
            Some(c) => {
                c.1 += u64::from(ok);
                c.2 += 1;
            }
            None => self.checks.push((name, u64::from(ok), 1)),
        }
    }

    /// Count one call into the program; a returned error counts as failed
    /// and yields `None`.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.notes.push(format!("{what} failed: {e}"));
                None
            }
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Note the sample count behind a percentile and how many samples lie
    /// beyond it.
    pub fn note_samples(&mut self, name: &str, xs: &[f64], q: f64) {
        let (_, beyond) = percentile(xs, q);
        self.note(format!("{name}: n={} samples, {beyond} beyond the percentile", xs.len()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, passed, total)| passed == total)
    }
}

/// What a workload's measuring loop collects, pass by pass, and how it
/// becomes the end-to-end metrics.
///
/// The shared host this benchmark was tuned on runs for stretches of a
/// fraction of a second to a few seconds up to 1.6x slower than in between.
/// A sample taken inside one stretch belongs to the fast or the slow mode,
/// and a median pooled over all samples jumps from one mode to the other
/// when the share of slow time in a run crosses one half. So the central
/// figures average over the run instead: throughput is total work over
/// total busy time, `step_ms_p50` and `step_ms_p90` are the means of each
/// pass's median and 90th-percentile step, and `phase_s` the mean over
/// passes. Each still moves in proportion to a real change. (A pooled 90th
/// percentile jumps to the slow mode once slow steps pass a tenth of the
/// run.) `setup_s` is total build time over the number of builds, with a
/// batch of builds in every pass, so that it samples the host's modes in
/// the same mix as the figures beside it.
#[derive(Default)]
pub struct Samples {
    /// Seconds per build of the workload's system under test, for builds
    /// spread over every pass of the run.
    pub setup_s: Vec<f64>,
    /// Every step of the closed loop, in milliseconds.
    pub steps_ms: Vec<f64>,
    /// The median and 90th-percentile step of each finished pass, and the
    /// steps beyond the latter, summed over passes.
    pass_p50: Vec<f64>,
    pass_p90: Vec<f64>,
    beyond_p90: usize,
    pass_start: usize,
    /// Operations completed inside the timed calls, and the seconds spent
    /// in those calls.
    pub work: f64,
    pub busy_s: f64,
    /// One sample of the workload's one-shot phase per pass.
    pub phase_s: Vec<f64>,
}

impl Samples {
    /// Close the current pass: its steps get their own percentiles.
    pub fn end_pass(&mut self) {
        let steps = &self.steps_ms[self.pass_start..];
        if !steps.is_empty() {
            let (p90, beyond) = percentile(steps, 0.9);
            self.pass_p50.push(median(steps));
            self.pass_p90.push(p90);
            self.beyond_p90 += beyond;
        }
        self.pass_start = self.steps_ms.len();
    }

    pub fn passes(&self) -> usize {
        self.pass_p50.len()
    }

    /// Emit the end-to-end metrics this loop measured, with their sample
    /// counts.
    pub fn report(&self, out: &mut Outcome) {
        out.note(format!(
            "passes: {}; setup_s: n={}; phase_s: n={}",
            self.passes(),
            self.setup_s.len(),
            self.phase_s.len()
        ));
        out.note(format!(
            "step_ms: n={} samples, {} beyond their pass's 90th percentile",
            self.steps_ms.len(),
            self.beyond_p90
        ));
        out.metric("setup_s", mean(&self.setup_s));
        out.metric("ops_per_s", self.work / self.busy_s.max(f64::MIN_POSITIVE));
        out.metric("step_ms_p50", mean(&self.pass_p50));
        out.metric("step_ms_p90", mean(&self.pass_p90));
        out.metric("phase_s", mean(&self.phase_s));
    }
}
