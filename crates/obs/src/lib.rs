//! # st-obs — pipeline-wide structured tracing, metrics, and profiling
//!
//! The paper's premise is that observability (syscall traces → DFGs) is
//! how you diagnose an opaque system; this crate gives the reproduction
//! its *own* measurement plane so a real run can answer "where did this
//! query spend its time and bytes?" without ad-hoc `eprintln!`s.
//!
//! ## Model
//!
//! Three primitives, all no-ops unless [`set_enabled`]`(true)` was
//! called (the disabled path is one relaxed atomic load per site):
//!
//! - **Spans** — [`span()`] / [`span!`] return an RAII guard; nested
//!   guards form a tree keyed by `/`-joined name paths
//!   (`session/pushdown/store.decode_block`). Guards must be dropped
//!   in LIFO order, which scoping gives you for free.
//! - **Counters** — [`add`] bumps a named monotonic counter,
//!   attributed to the innermost open span on the calling thread.
//! - **Contexts** — [`context`] captures the current span path so
//!   worker threads can [`Context::attach`] it and have their spans
//!   nest under the spawning stage instead of floating at the root.
//!
//! Collection is thread-local (an unsynchronized stack + aggregate
//! map per thread) and merges into a process-global table when a
//! thread exits or a report is taken, so instrumented hot loops never
//! contend on a lock.
//!
//! ## Reports
//!
//! [`mark`] snapshots the current totals; [`report_since`] returns a
//! [`PipelineReport`] covering everything after a mark — a stage tree
//! with wall/self times and per-stage counters, renderable as a text
//! tree, stable JSON (`"st-obs/1"`), or a Chrome trace-event file
//! ([`chrome_since`]) loadable in `about:tracing` / Perfetto.
//!
//! ## Overhead contract
//!
//! Disabled: one `AtomicBool` relaxed load + branch per site; the
//! parse+dfg hot path must stay within 5% of an uninstrumented build
//! (guarded by the `obs_overhead` bench test and the `bench_snapshot`
//! "obs" section). Enabled: one heap path string per span plus an
//! entry in a bounded event buffer ([`MAX_EVENTS`]; overflow is
//! counted, never reallocated past the cap). A long-lived process that
//! only reads aggregates switches the buffer off with
//! [`set_timeline`]`(false)`.

#![warn(missing_docs)]

pub mod report;

pub use report::{PipelineReport, StageNode, SCHEMA};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Cap on buffered raw span events (for Chrome trace output). Spans
/// beyond the cap still aggregate into the stage tree; only the
/// per-event timeline entry is dropped (and counted in
/// [`PipelineReport::dropped_events`]).
pub const MAX_EVENTS: usize = 1 << 18;

/// Path separator between nested span names. Span names themselves
/// use dots (`store.decode_block`), so `/` is reserved for nesting.
pub const PATH_SEP: char = '/';

static ENABLED: AtomicBool = AtomicBool::new(false);
static TIMELINE: AtomicBool = AtomicBool::new(true);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Returns whether collection is currently enabled. One relaxed
/// atomic load — this is the entire cost of every disabled call site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on or off process-wide. Spans opened while
/// enabled still close correctly if collection is disabled mid-flight.
pub fn set_enabled(on: bool) {
    if on {
        let _ = EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Turns the raw span timeline (the events behind [`chrome_since`]) on
/// or off process-wide; it is on by default. Spans aggregate into the
/// stage tree either way. While it is off, no span keeps an event, and
/// none counts as dropped.
pub fn set_timeline(on: bool) {
    TIMELINE.store(on, Ordering::Relaxed);
}

/// Clears all collected state (aggregates, events, drop counts) for
/// the current process. Existing [`Mark`]s become meaningless.
/// Intended for benches and tests that reuse one process.
pub fn reset() {
    flush_current_thread();
    let mut g = global();
    g.agg.clear();
    g.events.clear();
    g.dropped = 0;
}

// ---------------------------------------------------------------------------
// collection internals

#[derive(Default, Clone)]
struct StageAgg {
    calls: u64,
    wall_ns: u64,
    counters: BTreeMap<&'static str, u64>,
}

#[derive(Clone)]
pub(crate) struct RawEvent {
    pub(crate) path: String,
    pub(crate) args: Option<String>,
    pub(crate) tid: u64,
    pub(crate) start_ns: u64,
    pub(crate) dur_ns: u64,
}

struct Frame {
    path: String,
    args: Option<String>,
    start: Instant,
}

#[derive(Default)]
struct Local {
    stack: Vec<Frame>,
    base: String,
    agg: BTreeMap<String, StageAgg>,
    events: Vec<RawEvent>,
    tid: u64,
}

struct LocalCell(RefCell<Local>);

impl Drop for LocalCell {
    fn drop(&mut self) {
        // Thread exit: fold this thread's aggregates into the global
        // table. Note `std::thread::scope` can return before a scoped
        // thread's TLS destructors run (rust-lang/rust#98498), so
        // scoped workers must not rely on this alone — dropping a
        // [`ContextGuard`] inside the closure flushes deterministically.
        let local = self.0.get_mut();
        merge_local(local);
    }
}

thread_local! {
    static LOCAL: LocalCell = LocalCell(RefCell::new(Local::default()));
}

#[derive(Default)]
struct Global {
    agg: BTreeMap<String, StageAgg>,
    events: Vec<RawEvent>,
    dropped: u64,
}

static GLOBAL: OnceLock<Mutex<Global>> = OnceLock::new();

fn global() -> MutexGuard<'static, Global> {
    GLOBAL
        .get_or_init(|| Mutex::new(Global::default()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn merge_local(local: &mut Local) {
    if local.agg.is_empty() && local.events.is_empty() {
        return;
    }
    let mut g = global();
    for (path, agg) in std::mem::take(&mut local.agg) {
        let slot = g.agg.entry(path).or_default();
        slot.calls += agg.calls;
        slot.wall_ns += agg.wall_ns;
        for (k, v) in agg.counters {
            *slot.counters.entry(k).or_insert(0) += v;
        }
    }
    for ev in local.events.drain(..) {
        if g.events.len() < MAX_EVENTS {
            g.events.push(ev);
        } else {
            g.dropped += 1;
        }
    }
}

/// Folds the calling thread's pending aggregates into the global
/// table. Reports call this implicitly; long-lived threads that never
/// exit (e.g. a daemon accept loop) may call it at quiescent points.
pub fn flush_current_thread() {
    LOCAL.with(|cell| merge_local(&mut cell.0.borrow_mut()));
}

// ---------------------------------------------------------------------------
// spans

/// RAII guard returned by [`span()`] / [`span!`]. Records a stage's
/// wall time from construction to drop. Not `Send`: a guard must be
/// dropped on the thread that opened it, in LIFO order.
#[must_use = "a span measures the scope it is alive for; binding it to `_` drops it immediately"]
pub struct Span {
    active: bool,
    _not_send: PhantomData<*const ()>,
}

/// Opens a span named `name` nested under the thread's innermost open
/// span (or its attached [`Context`], or the root). Returns a no-op
/// guard when collection is disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span {
            active: false,
            _not_send: PhantomData,
        };
    }
    open_span(name, None)
}

/// Like [`span()`], with a lazily-built annotation string recorded on
/// the span's timeline event (visible in Chrome trace output). The
/// closure runs only when collection is enabled.
#[inline]
pub fn span_with<F: FnOnce() -> String>(name: &'static str, args: F) -> Span {
    if !enabled() {
        return Span {
            active: false,
            _not_send: PhantomData,
        };
    }
    open_span(name, Some(args()))
}

fn open_span(name: &'static str, args: Option<String>) -> Span {
    let _ = EPOCH.get_or_init(Instant::now);
    LOCAL.with(|cell| {
        let mut local = cell.0.borrow_mut();
        let parent: &str = match local.stack.last() {
            Some(f) => &f.path,
            None => &local.base,
        };
        let path = if parent.is_empty() {
            name.to_string()
        } else {
            let mut p = String::with_capacity(parent.len() + 1 + name.len());
            p.push_str(parent);
            p.push(PATH_SEP);
            p.push_str(name);
            p
        };
        local.stack.push(Frame {
            path,
            args,
            start: Instant::now(),
        });
    });
    Span {
        active: true,
        _not_send: PhantomData,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        LOCAL.with(|cell| {
            let mut local = cell.0.borrow_mut();
            let Some(frame) = local.stack.pop() else {
                return;
            };
            let dur_ns = frame.start.elapsed().as_nanos() as u64;
            let agg = local.agg.entry(frame.path.clone()).or_default();
            agg.calls += 1;
            agg.wall_ns += dur_ns;
            if TIMELINE.load(Ordering::Relaxed) && local.events.len() < MAX_EVENTS {
                if local.tid == 0 {
                    local.tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
                }
                let epoch = *EPOCH.get_or_init(Instant::now);
                let start_ns = frame.start.saturating_duration_since(epoch).as_nanos() as u64;
                let tid = local.tid;
                local.events.push(RawEvent {
                    path: frame.path,
                    args: frame.args,
                    tid,
                    start_ns,
                    dur_ns,
                });
            }
        });
    }
}

/// Opens a span; extra arguments become a `key=value` annotation on
/// the span's timeline event, formatted only when collection is
/// enabled. Values must implement `Display`.
///
/// ```
/// let _guard = st_obs::span!("store.decode_block");
/// let (cid, block) = ("a", 3);
/// let _guard = st_obs::span!("store.decode_block", cid, block);
/// let _guard = st_obs::span!("query.scan", cases = 12);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(,)?) => {
        $crate::span($name)
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        $crate::span_with($name, || {
            let mut s = String::new();
            $(
                {
                    use std::fmt::Write as _;
                    let _ = write!(s, concat!(stringify!($key), "={} "), $val);
                }
            )+
            s.truncate(s.trim_end().len());
            s
        })
    };
    ($name:expr, $($val:expr),+ $(,)?) => {
        $crate::span_with($name, || {
            let mut s = String::new();
            $(
                {
                    use std::fmt::Write as _;
                    let _ = write!(s, concat!(stringify!($val), "={} "), $val);
                }
            )+
            s.truncate(s.trim_end().len());
            s
        })
    };
}

// ---------------------------------------------------------------------------
// counters

/// Adds `n` to the named monotonic counter, attributed to the
/// innermost open span on this thread (or the attached context path,
/// or the root bucket). No-op when collection is disabled.
#[inline]
pub fn add(counter: &'static str, n: u64) {
    if !enabled() || n == 0 {
        return;
    }
    LOCAL.with(|cell| {
        let mut local = cell.0.borrow_mut();
        let path = match local.stack.last() {
            Some(f) => f.path.clone(),
            None => local.base.clone(),
        };
        let agg = local.agg.entry(path).or_default();
        *agg.counters.entry(counter).or_insert(0) += n;
    });
}

// ---------------------------------------------------------------------------
// context propagation

/// A captured span path, used to parent worker-thread spans under the
/// stage that spawned them. Obtained from [`context`]; cheap to clone
/// and `Send`.
#[derive(Clone, Debug, Default)]
pub struct Context(Option<String>);

/// Captures the calling thread's innermost open span path (or its
/// attached base). Returns an empty context when disabled.
pub fn context() -> Context {
    if !enabled() {
        return Context(None);
    }
    LOCAL.with(|cell| {
        let local = cell.0.borrow();
        let path = match local.stack.last() {
            Some(f) => f.path.clone(),
            None => local.base.clone(),
        };
        if path.is_empty() {
            Context(None)
        } else {
            Context(Some(path))
        }
    })
}

impl Context {
    /// Installs this context as the calling thread's root path; spans
    /// opened while the guard lives nest under it. Returns a no-op
    /// guard when collection is disabled.
    ///
    /// Dropping the guard also folds the thread's pending aggregates
    /// into the global table. Worker closures drop it before they
    /// return, which orders their collected data before the spawning
    /// `thread::scope` completes — `scope` does **not** wait for TLS
    /// destructors (rust-lang/rust#98498), so a report taken right
    /// after the scope would otherwise race with the workers' merges.
    pub fn attach(&self) -> ContextGuard {
        if !enabled() {
            return ContextGuard {
                prev: None,
                active: false,
            };
        }
        let prev = self.0.as_ref().map(|path| {
            LOCAL.with(|cell| {
                let mut local = cell.0.borrow_mut();
                std::mem::replace(&mut local.base, path.clone())
            })
        });
        ContextGuard { prev, active: true }
    }
}

/// RAII guard from [`Context::attach`]; restores the thread's
/// previous base path and flushes the thread's aggregates on drop.
pub struct ContextGuard {
    prev: Option<String>,
    active: bool,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        LOCAL.with(|cell| {
            let mut local = cell.0.borrow_mut();
            if let Some(prev) = self.prev.take() {
                local.base = prev;
            }
            merge_local(&mut local);
        });
    }
}

// ---------------------------------------------------------------------------
// marks and reports

/// A snapshot of collected totals, used to scope a report to "what
/// happened after this point" ([`report_since`]). Invalidated by
/// [`reset`].
pub struct Mark {
    agg: BTreeMap<String, StageAgg>,
    events_len: usize,
    dropped: u64,
}

/// Snapshots current totals (flushing the calling thread first).
pub fn mark() -> Mark {
    flush_current_thread();
    let g = global();
    Mark {
        agg: g.agg.clone(),
        events_len: g.events.len(),
        dropped: g.dropped,
    }
}

/// Builds a [`PipelineReport`] covering everything collected since
/// `since`. Spans still open at call time are not included (they have
/// no wall time yet); close the guard first.
pub fn report_since(since: &Mark) -> PipelineReport {
    flush_current_thread();
    let g = global();
    let mut delta: Vec<(String, u64, u64, BTreeMap<String, u64>)> = Vec::new();
    for (path, agg) in &g.agg {
        let base = since.agg.get(path);
        let calls = agg.calls - base.map_or(0, |b| b.calls);
        let wall = agg.wall_ns - base.map_or(0, |b| b.wall_ns);
        let mut counters = BTreeMap::new();
        for (k, v) in &agg.counters {
            let prev = base.and_then(|b| b.counters.get(k)).copied().unwrap_or(0);
            if *v > prev {
                counters.insert((*k).to_string(), *v - prev);
            }
        }
        if calls > 0 || !counters.is_empty() {
            delta.push((path.clone(), calls, wall, counters));
        }
    }
    let dropped = g.dropped - since.dropped;
    drop(g);
    report::build(delta, dropped, enabled())
}

/// Builds a [`PipelineReport`] covering everything collected since
/// process start (or the last [`reset`]).
pub fn report() -> PipelineReport {
    report_since(&Mark {
        agg: BTreeMap::new(),
        events_len: 0,
        dropped: 0,
    })
}

/// Renders the raw span timeline collected since `since` as a Chrome
/// trace-event JSON document (`{"traceEvents":[...]}`), loadable in
/// `about:tracing` or [Perfetto](https://ui.perfetto.dev).
pub fn chrome_since(since: &Mark) -> String {
    flush_current_thread();
    let g = global();
    let events = &g.events[since.events_len.min(g.events.len())..];
    report::render_chrome(events, g.dropped - since.dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // Obs state is process-global; serialize tests touching it.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        let g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        set_timeline(true);
        reset();
        g
    }

    #[test]
    fn disabled_sites_are_inert() {
        let _g = locked();
        set_enabled(false);
        reset();
        {
            let _s = span!("never");
            add("ghost", 7);
        }
        let r = report();
        assert!(r.stages.is_empty());
        assert_eq!(r.counter("ghost"), 0);
        assert!(!r.enabled);
    }

    #[test]
    fn spans_nest_and_counters_attribute() {
        let _g = locked();
        {
            let _a = span!("outer");
            add("bytes", 10);
            {
                let _b = span!("inner", detail = 42);
                add("bytes", 5);
            }
            {
                let _b = span!("inner");
            }
        }
        let r = report();
        assert_eq!(r.stages.len(), 1);
        let outer = &r.stages[0];
        assert_eq!(outer.path, "outer");
        assert_eq!(outer.calls, 1);
        assert_eq!(outer.counters.get("bytes"), Some(&10));
        assert_eq!(outer.children.len(), 1);
        let inner = &outer.children[0];
        assert_eq!(inner.path, "outer/inner");
        assert_eq!(inner.calls, 2);
        assert_eq!(inner.counters.get("bytes"), Some(&5));
        assert_eq!(r.counter("bytes"), 15);
        assert!(outer.wall_ns >= inner.wall_ns);
        assert!(outer.self_ns <= outer.wall_ns);
    }

    #[test]
    fn context_parents_worker_spans() {
        let _g = locked();
        {
            let _a = span!("stage");
            let cx = context();
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let _attach = cx.attach();
                    let _w = span!("worker");
                    add("done", 1);
                });
            });
        }
        let r = report();
        let stage = &r.stages[0];
        assert_eq!(stage.path, "stage");
        assert_eq!(stage.children.len(), 1);
        assert_eq!(stage.children[0].path, "stage/worker");
        assert_eq!(stage.children[0].counters.get("done"), Some(&1));
    }

    #[test]
    fn mark_scopes_reports_to_a_delta() {
        let _g = locked();
        {
            let _s = span!("before");
            add("n", 1);
        }
        let m = mark();
        {
            let _s = span!("after");
            add("n", 2);
        }
        let r = report_since(&m);
        assert_eq!(r.stages.len(), 1);
        assert_eq!(r.stages[0].path, "after");
        assert_eq!(r.counter("n"), 2);
        let full = report();
        assert_eq!(full.counter("n"), 3);
    }

    #[test]
    fn chrome_trace_has_complete_events() {
        let _g = locked();
        let m = mark();
        {
            let _s = span!("traced", kind = "x");
        }
        let doc = chrome_since(&m);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"name\":\"traced\""));
        assert!(doc.contains("kind=x"));
    }

    #[test]
    fn timeline_off_keeps_aggregates_and_no_events() {
        let _g = locked();
        set_timeline(false);
        let m = mark();
        {
            let _s = span!("quiet");
            add("n", 1);
        }
        let r = report_since(&m);
        assert_eq!(r.stages[0].path, "quiet");
        assert_eq!(r.stages[0].calls, 1);
        assert_eq!(r.counter("n"), 1);
        assert_eq!(r.dropped_events, 0);
        assert!(!chrome_since(&m).contains("\"name\":\"quiet\""));
        set_timeline(true);
    }

    #[test]
    fn json_report_is_stable_shape() {
        let _g = locked();
        {
            let _s = span!("stage");
            add("bytes_read", 3);
        }
        let mut r = report();
        r.set_note("route", "seq");
        let json = r.render_json();
        assert!(json.starts_with(&format!("{{\"schema\":\"{SCHEMA}\"")));
        assert!(json.contains("\"bytes_read\":3"));
        assert!(json.contains("\"route\":\"seq\""));
    }
}
