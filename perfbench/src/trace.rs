//! The benchmark's own spans. Each span wraps one call into a layer and
//! records its name, start, end, parent and request id. Spans are kept
//! in memory and written out when the run ends; with tracing off a span
//! costs one branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

/// Whether an enabled tracer records new spans (see [`set_recording`]).
static RECORDING: AtomicBool = AtomicBool::new(true);

thread_local! {
    /// Open spans on this thread, innermost last: the parent of a new span.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on for the rest of the process.
pub fn enable() {
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    });
}

/// Pauses (`false`) or resumes span recording, to time the same work
/// with and without the benchmark's spans.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::SeqCst);
}

/// An open span; it closes when dropped.
pub struct Span {
    open: Option<(u64, Option<u64>, &'static str, u64, Instant)>,
}

/// Opens a span named `name` for request `req`, nested under the
/// innermost span open on this thread.
pub fn span(name: &'static str, req: u64) -> Span {
    let Some(tracer) = TRACER.get().filter(|_| RECORDING.load(Ordering::Relaxed)) else {
        return Span { open: None };
    };
    let id = tracer.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    Span {
        open: Some((id, parent, name, req, Instant::now())),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((id, parent, name, req, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        let Some(tracer) = TRACER.get() else {
            return;
        };
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&o| o == id) {
                open.truncate(pos);
            }
        });
        let ns = |t: Instant| t.saturating_duration_since(tracer.epoch).as_nanos() as u64;
        let rec = SpanRec {
            id,
            parent,
            name,
            req,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        if let Ok(mut spans) = tracer.spans.lock() {
            spans.push(rec);
        }
    }
}

/// Runs `f` inside a span.
pub fn timed<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    let _span = span(name, req);
    f()
}

/// Every span closed so far.
pub fn spans() -> Vec<SpanRec> {
    TRACER
        .get()
        .map(|t| t.spans.lock().expect("span list lock").clone())
        .unwrap_or_default()
}

/// Time spent under one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Total and self time per span name. A span's self time is its
/// duration minus the part of its interval that its children cover
/// (overlapping children are counted once; parts of a child outside
/// its parent are ignored).
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, NameTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get(&s.id)
            .map(|c| covered_ns(s.start_ns, s.end_ns, c))
            .unwrap_or(0);
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered.min(dur);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Writes the spans as JSON lines, one span per line.
pub fn write_jsonl(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            req: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // pass [0,100) holds parse [10,40) and write [50,70); parse
        // holds intern [20,25).
        let spans = [
            rec(1, None, "pass", 0, 100),
            rec(2, Some(1), "parse", 10, 40),
            rec(3, Some(2), "intern", 20, 25),
            rec(4, Some(1), "write", 50, 70),
        ];
        let t = self_times(&spans);
        assert_eq!(t["pass"].total_ns, 100);
        assert_eq!(t["pass"].self_ns, 50);
        assert_eq!(t["parse"].self_ns, 25);
        assert_eq!(t["intern"].self_ns, 5);
        assert_eq!(t["write"].self_ns, 20);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two children on other threads overlap each other and one
        // runs past its parent's end.
        let spans = [
            rec(1, None, "query", 0, 100),
            rec(2, Some(1), "decode", 10, 60),
            rec(3, Some(1), "decode", 40, 130),
        ];
        let t = self_times(&spans);
        assert_eq!(t["query"].self_ns, 10);
        assert_eq!(t["decode"].calls, 2);
        assert_eq!(t["decode"].total_ns, 140);
    }

    #[test]
    fn repeated_names_aggregate() {
        let spans = [
            rec(1, None, "step", 0, 10),
            rec(2, None, "step", 20, 50),
            rec(3, Some(2), "render", 30, 35),
        ];
        let t = self_times(&spans);
        assert_eq!(t["step"].calls, 2);
        assert_eq!(t["step"].total_ns, 40);
        assert_eq!(t["step"].self_ns, 35);
    }

    #[test]
    fn live_spans_nest_by_thread() {
        enable();
        {
            let _outer = span("outer-test", 7);
            let _inner = span("inner-test", 7);
        }
        let spans = spans();
        let outer = spans.iter().find(|s| s.name == "outer-test").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner-test").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!((outer.req, inner.req), (7, 7));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
