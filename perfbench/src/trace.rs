//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each of its own calls into a crate in [`span`]:
//! name, start, end, parent span and job id are kept in a per-thread
//! buffer, merged by [`flush`] and written out once the run ends. With
//! tracing off, [`span`] is a plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Job id of spans that belong to no job.
pub const NO_JOB: u64 = u64::MAX;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.synthesize`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the merged list.
    pub parent: Option<usize>,
    /// The job this span worked for, or [`NO_JOB`].
    pub job: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

// Only a switch: it publishes no other data.
static ENABLED: AtomicBool = AtomicBool::new(false);
static MERGED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[derive(Default)]
struct Local {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Turn recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` inside a span named `name` for `job`.
pub fn span<R>(name: &'static str, job: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let idx = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().copied();
        let idx = l.spans.len();
        l.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            job,
        });
        l.stack.push(idx);
        idx
    });
    let out = f();
    let end = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.stack.pop();
        l.spans[idx].end_ns = end;
    });
    out
}

/// Move this thread's closed spans into the merged list. Call once per
/// thread, after its last span has closed.
pub fn flush() {
    let spans = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        assert!(l.stack.is_empty(), "flush inside an open span");
        std::mem::take(&mut l.spans)
    });
    if spans.is_empty() {
        return;
    }
    let mut merged = MERGED.lock().expect("span list poisoned");
    let base = merged.len();
    merged.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Flush this thread and take every merged span.
pub fn take() -> Vec<Span> {
    flush();
    std::mem::take(&mut *MERGED.lock().expect("span list poisoned"))
}

/// Totals for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus time covered by child spans), ns.
    pub self_ns: u64,
}

/// Per-name totals, with self time computed from the parent links.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
    }
    out
}

/// Durations (ns) of every span named `name`, in record order.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// Measured cost of recording one span, ns: times a burst of empty spans
/// and discards them.
pub fn calibrate() -> f64 {
    const N: u64 = 20_000;
    let was = enabled();
    set_enabled(true);
    let before = LOCAL.with(|l| l.borrow().spans.len());
    let t0 = Instant::now();
    for _ in 0..N {
        span("trace.calibrate", NO_JOB, || std::hint::black_box(()));
    }
    let per = t0.elapsed().as_nanos() as f64 / N as f64;
    LOCAL.with(|l| l.borrow_mut().spans.truncate(before));
    set_enabled(was);
    per
}

/// Spans as JSON lines (one object per span).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let job = if s.job == NO_JOB {
            "null".to_owned()
        } else {
            s.job.to_string()
        };
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{job}}}\n",
            s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "outer",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                job: 1,
            },
            Span {
                name: "inner",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                job: 1,
            },
            Span {
                name: "inner",
                start_ns: 50,
                end_ns: 70,
                parent: Some(0),
                job: 1,
            },
        ];
        let t = summarize(&spans);
        assert_eq!(
            t["outer"],
            Totals {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            t["inner"],
            Totals {
                count: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
    }
}
