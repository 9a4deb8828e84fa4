//! The benchmark's own tracing: spans recorded in memory around each call
//! into a layer's public functions, and a counting allocator that counts
//! only while a traced run has switched it on.
//!
//! A span's *self time* is its duration minus the durations of its child
//! spans. Spans nest strictly within one [`Recorder`] (one thread), so the
//! children of a span never overlap and their durations can be summed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus an allocation counter that is live only while
/// [`counting`] allocations; elsewhere each call pays one relaxed load.
pub struct CountingAlloc;

// SAFETY: every call defers to the system allocator with the caller's
// arguments unchanged; the counter is a statistic with no safety role.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations (and reallocations) made by every thread while `f` runs.
/// Only traced runs call this, around the calls whose allocations they
/// report, so the shared counter slows nothing that is timed.
pub fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call`, e.g. `tape.format.write_tape`.
    pub name: &'static str,
    /// Nanoseconds since the trace epoch.
    pub start: u64,
    /// Nanoseconds since the trace epoch.
    pub end: u64,
    /// Index of the enclosing span in the same [`Trace`].
    pub parent: Option<usize>,
    /// Request id shared by the spans of one request (batch, session, run).
    pub req: u64,
    /// Which recorder (thread) produced the span.
    pub thread: u32,
}

/// A per-thread span recorder. When off, [`Recorder::span`] only calls
/// the closure, so the untraced and traced runs share one code path.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder for `thread` with a shared time origin.
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Recorder {
        Recorder {
            on,
            epoch,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `req`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            req,
            thread: self.thread,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.now();
        out
    }
}

/// All spans of a run, merged from the recorders.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Appends a finished recorder's spans.
    pub fn absorb(&mut self, rec: Recorder) {
        self.extend(Trace { spans: rec.spans });
    }

    /// Appends another trace's spans, re-basing parent indices.
    pub fn extend(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time (ns) and count of every span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end - s.start).saturating_sub(c) as f64;
            e.1 += 1;
        }
        out
    }

    /// Durations (ns) of the spans named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{},\"thread\":{}}}",
                s.name, s.start, s.end, parent, s.req, s.thread
            )?;
        }
        out.flush()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}
