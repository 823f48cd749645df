//! The bench-side span recorder.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer; nothing here lives inside the crates under test, so
//! their determinism-taint pass stays clean. Each thread records into
//! its own buffer (no lock on the hot path) and deposits it when its
//! work ends; the deposits are merged and written out when the
//! benchmark ends.
//!
//! A span's name is `layer.operation`; the text before the first dot is
//! the layer its self time is charged to.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use serde::Serialize;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the process-wide trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open on this thread when this one
    /// started, or [`NO_PARENT`].
    pub parent: u32,
    /// The pass the span belongs to: spans of one pass share it.
    pub iter: u32,
    pub thread: u8,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Whether the current phase of the run is traced. A plain statistic
/// switch: it publishes no other data, so `Relaxed` is enough.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Buffers handed in by threads whose work has ended.
static DEPOSITS: Mutex<Vec<(u8, Vec<Span>)>> = Mutex::new(Vec::new());

#[derive(Default)]
struct Recorder {
    iter: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn span recording on or off for every thread.
pub fn enable(on: bool) {
    now_ns();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` with recording off: for the benchmark's own bookkeeping
/// between passes, which must not be charged to a layer. Only for
/// phases in which one thread is running.
pub fn untraced<R>(f: impl FnOnce() -> R) -> R {
    let was = enabled();
    ENABLED.store(false, Ordering::Relaxed);
    let out = f();
    ENABLED.store(was, Ordering::Relaxed);
    out
}

/// Spans this thread records from now on belong to pass `iter`.
pub fn set_iter(iter: u32) {
    REC.with(|r| r.borrow_mut().iter = iter);
}

/// The pass this thread's spans currently belong to.
pub fn current_iter() -> u32 {
    REC.with(|r| r.borrow().iter)
}

/// Run `f` as a span named `name`. When tracing is off the cost is one
/// relaxed load.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let idx = r.spans.len() as u32;
        let span = Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: r.open.last().copied().unwrap_or(NO_PARENT),
            iter: r.iter,
            thread: 0,
        };
        r.spans.push(span);
        r.open.push(idx);
        idx
    });
    let out = f();
    let end = now_ns();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.spans[idx as usize].end_ns = end;
        r.open.pop();
    });
    out
}

/// Hand in the spans this thread recorded, as thread `thread`.
pub fn deposit(thread: u8) {
    let spans = REC.with(|r| std::mem::take(&mut r.borrow_mut().spans));
    if !spans.is_empty() {
        DEPOSITS
            .lock()
            .expect("no thread panics while depositing")
            .push((thread, spans));
    }
}

/// Merge everything deposited so far into one trace.
pub fn collect() -> Trace {
    let mut t = Trace::default();
    let deposits =
        std::mem::take(&mut *DEPOSITS.lock().expect("no thread panics while depositing"));
    for (thread, spans) in deposits {
        t.absorb(spans, thread);
    }
    t
}

/// The spans of a whole run, all threads.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Append one thread's buffer, re-basing its parent links.
    pub fn absorb(&mut self, spans: Vec<Span>, thread: u8) {
        let base = self.spans.len() as u32;
        self.spans.extend(spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s.thread = thread;
            s
        }));
    }

    /// Self time per span: its duration minus the part its child spans
    /// cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Per-name aggregates, of one thread's spans or of all.
    pub fn summary(&self, thread: Option<u8>) -> Summary {
        let mut by_name: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            if thread.is_some_and(|t| t != s.thread) {
                continue;
            }
            let e = by_name.entry(s.name).or_default();
            e.durations_ns.push(s.duration_ns());
            e.self_ns += self_ns;
        }
        Summary { by_name }
    }

    /// One JSON object per line, in recording order per thread.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        #[derive(Serialize)]
        struct Row {
            name: &'static str,
            thread: u8,
            iter: u32,
            parent: Option<u32>,
            start_ns: u64,
            end_ns: u64,
            self_ns: u64,
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let row = Row {
                name: s.name,
                thread: s.thread,
                iter: s.iter,
                parent: (s.parent != NO_PARENT).then_some(s.parent),
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                self_ns,
            };
            let line = serde_json::to_string(&row).map_err(std::io::Error::other)?;
            writeln!(w, "{line}")?;
        }
        w.flush()
    }
}

#[derive(Debug, Default)]
struct NameStats {
    durations_ns: Vec<u64>,
    self_ns: u64,
}

/// Per-name aggregates of a trace.
#[derive(Debug, Default)]
pub struct Summary {
    by_name: BTreeMap<&'static str, NameStats>,
}

impl Summary {
    /// Durations of every span called `name`, in the unit `per_ns`
    /// nanoseconds (1e3 for µs, 1e6 for ms).
    pub fn durations(&self, name: &str, per_ns: f64) -> Vec<f64> {
        self.by_name
            .get(name)
            .map(|s| s.durations_ns.iter().map(|&d| d as f64 / per_ns).collect())
            .unwrap_or_default()
    }

    pub fn count(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, |s| s.durations_ns.len())
    }

    /// Total (not self) nanoseconds spent in spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.by_name
            .get(name)
            .map_or(0, |s| s.durations_ns.iter().sum())
    }

    /// Self nanoseconds of every span whose name starts with `prefix`.
    pub fn self_ns(&self, prefix: &str) -> u64 {
        self.by_name
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, s)| s.self_ns)
            .sum()
    }

    /// Each layer's share of all recorded self time.
    pub fn layer_shares(&self) -> BTreeMap<&'static str, f64> {
        let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (name, s) in &self.by_name {
            let layer = name.split('.').next().unwrap_or(name);
            *by_layer.entry(layer).or_default() += s.self_ns;
        }
        let total: u64 = by_layer.values().sum();
        by_layer
            .into_iter()
            .map(|(l, ns)| (l, ns as f64 / total.max(1) as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            iter: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0,100) has siblings a [10,30) and b [40,90); b has a
        // nested child c [50,60).
        let t = Trace {
            spans: vec![
                sp("bench.root", 0, 100, NO_PARENT),
                sp("infod.a", 10, 30, 0),
                sp("infod.b", 40, 90, 0),
                sp("predict.c", 50, 60, 2),
            ],
        };
        assert_eq!(t.self_ns(), vec![30, 20, 40, 10]);
        let s = t.summary(None);
        assert_eq!(s.self_ns("infod."), 60);
        assert_eq!(s.total_ns("infod.b"), 50);
        let shares = s.layer_shares();
        assert!((shares["bench"] - 0.3).abs() < 1e-12);
        assert!((shares["infod"] - 0.6).abs() < 1e-12);
        assert!((shares["predict"] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn recorder_links_parents_and_merges_threads() {
        assert_eq!(span("bench.off", || 1), 1);
        enable(true);
        set_iter(3);
        span("bench.outer", || {
            span("infod.inner", || ());
            span("infod.inner", || ());
        });
        deposit(0);
        std::thread::spawn(|| {
            set_iter(3);
            span("bench.writer", || span("infod.refresh", || ()));
            deposit(1);
        })
        .join()
        .unwrap();
        enable(false);
        span("bench.off", || ());
        deposit(0);

        let t = collect();
        assert_eq!(t.spans.len(), 5, "nothing is recorded while disabled");
        assert_eq!(t.spans[0].parent, NO_PARENT);
        assert_eq!((t.spans[1].parent, t.spans[2].parent), (0, 0));
        assert!(t
            .spans
            .iter()
            .all(|s| s.iter == 3 && s.end_ns >= s.start_ns));
        assert_eq!(t.spans[4].parent, 3, "re-based onto the merged list");
        assert_eq!((t.spans[3].thread, t.spans[4].thread), (1, 1));
        assert_eq!(t.summary(None).count("infod.inner"), 2);
        assert_eq!(t.summary(Some(1)).count("infod.inner"), 0);
        assert_eq!(t.summary(Some(1)).count("infod.refresh"), 1);
    }
}
