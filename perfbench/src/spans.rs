//! The traced run's instruments: in-memory spans around each call into a
//! layer, and a counting global allocator. Both are off unless the run was
//! started with `--trace 1`; end-to-end metrics always come from a run
//! with them off.
//!
//! A span's name is `<layer>.<call>`; a layer's self time is the summed
//! duration of its spans minus the part their child spans cover.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counting allocator

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Net bytes allocated since counting started (frees of older blocks can
/// push it below zero), and its high-water mark.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Forwards to the system allocator and, while counting is on, tallies
/// allocations and the net bytes they hold. The counters are statistics
/// published to nothing else, so `Relaxed` suffices (the benchmark is
/// single-threaded anyway).
pub struct CountingAlloc;

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(now, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` pass straight through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which got it from `System`.
        unsafe { System.dealloc(ptr, layout) };
        if COUNTING.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` via this allocator; the caller
        // guarantees `layout` and `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// High-water mark of net bytes allocated since tracing started.
pub fn alloc_peak_bytes() -> u64 {
    PEAK.load(Relaxed).max(0) as u64
}

// ---------------------------------------------------------------------------
// Spans

/// One closed span: offsets in nanoseconds from when tracing started, the
/// index of the span that was open when it began, and the allocations made
/// inside it (children included).
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    allocs: u64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Turn on span recording and allocation counting for the rest of the
/// process.
pub fn enable() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer { origin: Instant::now(), spans: Vec::new(), open: vec![] })
    });
    COUNTING.store(true, Relaxed);
}

/// Run `f` with span recording and allocation counting off, then turn
/// them back on: an untraced pass inside a traced run, for comparison.
pub fn suspended<T>(f: impl FnOnce() -> T) -> T {
    let tracer = TRACER.with(|t| t.borrow_mut().take());
    let counting = COUNTING.swap(false, Relaxed);
    let out = f();
    TRACER.with(|t| *t.borrow_mut() = tracer);
    COUNTING.store(counting, Relaxed);
    out
}

/// Run `pass` untraced twice, traced once, then untraced twice more, and
/// return the traced pass's result with the host-time cost of tracing it:
/// its time over the median untraced time, minus one, in percent. The
/// untraced passes surround the traced one so that a slow stretch of the
/// host does not fall on one side only. Tracing stays on afterwards.
pub fn with_overhead<T>(mut pass: impl FnMut(bool) -> T) -> (T, f64) {
    let mut plain_ms = Vec::new();
    let mut plain = |pass: &mut dyn FnMut(bool) -> T| {
        let t = Instant::now();
        suspended(|| pass(false));
        plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
    };
    plain(&mut pass);
    plain(&mut pass);
    if !enabled() {
        enable();
    }
    let t = Instant::now();
    let result = span("host.pass", || pass(true));
    let traced_ms = t.elapsed().as_secs_f64() * 1e3;
    plain(&mut pass);
    plain(&mut pass);
    (result, (traced_ms / crate::measure::median(&plain_ms) - 1.0) * 100.0)
}

pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

fn now_ns(t: &Tracer) -> u64 {
    t.origin.elapsed().as_nanos() as u64
}

/// Run `f` inside a span named `name` (a no-op wrapper while tracing is
/// off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let t = guard.as_mut()?;
        let idx = t.spans.len();
        let start = now_ns(t);
        let parent = t.open.last().copied();
        t.spans.push(Span { name, start, end: start, parent, allocs: allocs() });
        t.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = opened {
        TRACER.with(|t| {
            let mut guard = t.borrow_mut();
            let t = guard.as_mut().expect("tracing stays on once enabled");
            let end = now_ns(t);
            let s = &mut t.spans[idx];
            s.end = end;
            s.allocs = allocs() - s.allocs;
            t.open.pop();
        });
    }
    out
}

/// Record `ns` of time spent in many short calls (too many to keep one
/// span each) as one child of the innermost open span, ending now.
pub fn aggregate(name: &'static str, ns: u64) {
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let Some(t) = guard.as_mut() else { return };
        let end = now_ns(t);
        let parent = t.open.last().copied();
        t.spans.push(Span { name, start: end.saturating_sub(ns), end, parent, allocs: 0 });
    });
}

/// Durations in milliseconds of every closed span named `name`, and the
/// allocations made inside them.
pub fn durations_ms(name: &str) -> (Vec<f64>, u64) {
    TRACER.with(|t| {
        let guard = t.borrow();
        let Some(t) = guard.as_ref() else { return (Vec::new(), 0) };
        let hits = t.spans.iter().filter(|s| s.name == name);
        let allocs = hits.clone().map(|s| s.allocs).sum();
        (hits.map(|s| (s.end - s.start) as f64 / 1e6).collect(), allocs)
    })
}

/// Self time per layer in milliseconds: each span's duration minus the
/// durations of its direct children, summed by the part of the name before
/// the first `.`.
pub fn self_ms_by_layer() -> BTreeMap<String, f64> {
    TRACER.with(|t| {
        let guard = t.borrow();
        let mut out = BTreeMap::new();
        let Some(t) = guard.as_ref() else { return out };
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        for (s, covered) in t.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            let own = (s.end - s.start).saturating_sub(covered);
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    })
}

/// Write every span as one JSON line: name, start and end offsets in
/// nanoseconds, parent index, and allocations inside it.
pub fn write_jsonl(path: &Path, header: &str) -> std::io::Result<()> {
    TRACER.with(|t| {
        let guard = t.borrow();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        if let Some(t) = guard.as_ref() {
            for (i, s) in t.spans.iter().enumerate() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    w,
                    "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"allocs\":{}}}",
                    s.name, s.start, s.end, s.allocs
                )?;
            }
        }
        w.flush()
    })
}
