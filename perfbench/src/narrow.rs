//! `narrow`: the paper's Sec. V-B slicing. Set-up builds a v2 store
//! from IOR MPI-IO (cid `g`) and POSIX with `lseek` (cid `r`) whose
//! decoded size is at least five times the decoded-block cache budget.
//! The timed part is a closed loop of seeded sessions: one cold
//! pushdown query, then three `refilter` steps toward a hot time
//! window, rendering statistics or a DFG after every step.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use st_core::render::{render_dfg_dot, render_stats_text};
use st_ior::Api;
use st_model::{Event, EventLog, Micros};
use st_query::{CallClass, Predicate};
use st_sim::TraceFilter;
use st_source::{Inspector, Session};
use st_store::{
    BlockCache, BlockDir, BlockRead, CachedBlockRead, CaseDir, ColumnSet, CountingSegment,
    FileSegment, SegmentReader, StoreBuilder, StoreError, DEFAULT_CACHE_BUDGET,
};

use crate::report::Metrics;
use crate::stats::{mean, median, ms, tail};
use crate::trace::{span, timed};
use crate::{analysis_columns, ior_log, measure, Checks, Ctx, Outcome, SplitMix};

/// IOR segments per rank: enough events that the decoded store is at
/// least [`MIN_BUDGET_MULTIPLE`] times the cache budget, so full scans
/// overflow the cache while the refinement windows hold far fewer
/// events than it.
const SEGMENTS: u64 = 600;

/// Decoded store size ÷ cache budget the set-up must reach.
const MIN_BUDGET_MULTIPLE: f64 = 5.0;

/// The cold query of each session in the cycle the closed loop repeats:
/// filter family (0 time window, 1 rank range, 2 path glob, 3 call or
/// class) and selectivity level (0 ~0.1 %, 1 ~10 %, 2 100 %). Full
/// scans render the whole store and dominate a cycle's time, so two in
/// twelve; half the sessions sit at ~10 %, so the reported median cold
/// query falls inside one level, not between two. The order interleaves
/// levels.
const SESSIONS: [(usize, usize); 12] = [
    (0, 1),
    (1, 0),
    (2, 1),
    (1, 2),
    (3, 1),
    (0, 0),
    (1, 1),
    (2, 0),
    (0, 1),
    (3, 2),
    (1, 1),
    (3, 0),
];

/// Refinement windows as shares of the cold query's events.
const REFINE_WIDTHS: [f64; 3] = [0.1, 0.03, 0.01];

/// The cache charges each entry its decoded events plus this much
/// bookkeeping (`st_store::cache`); the probe mirrors it to turn misses
/// into inserted bytes.
const CACHE_ENTRY_OVERHEAD: u64 = 64;

/// Sessions replayed through a counting reader in the traced run.
const PROBE_SESSIONS: usize = 4;

struct Step {
    pred: Predicate,
    expected: usize,
    dfg: bool,
}

/// A session: the cold query, then its refinements.
type Plan = Vec<Step>;

pub struct Input {
    store: PathBuf,
    events: usize,
    cases: usize,
    store_bytes: u64,
    decoded_bytes: u64,
    plans: Vec<Plan>,
    /// Mean matched share of the cold queries per level.
    selectivity: [f64; 3],
}

/// A time window `[from, to)` (or `[from, to]` when it reaches the
/// last event).
#[derive(Clone, Copy)]
struct Window {
    from: u64,
    to: u64,
    inclusive_end: bool,
}

impl Window {
    /// The window holding the share `[from, from + len)` of `starts`
    /// (sorted event start times): sizing windows by events rather than
    /// by time keeps a query's work the same whatever the seed.
    fn over(starts: &[u64], from: f64, len: f64) -> Window {
        let n = starts.len();
        let at = |q: f64| starts[((q.clamp(0.0, 1.0) * n as f64) as usize).min(n - 1)];
        let to = from + len;
        Window {
            from: at(from),
            to: at(to),
            inclusive_end: to >= 1.0,
        }
    }

    fn pred(self) -> Predicate {
        Predicate::TimeWindow {
            from: Micros(self.from),
            to: Micros(self.to),
            inclusive_end: self.inclusive_end,
            absolute: true,
        }
    }

    fn contains(self, t: Micros) -> bool {
        t.0 >= self.from && (t.0 < self.to || (self.inclusive_end && t.0 == self.to))
    }
}

/// The cold query of filter `family` at selectivity `level`. A filter
/// that needs narrowing to reach its level is joined with a window
/// holding a fixed share of the events that filter matches, so the
/// window never falls where the filter has nothing.
fn cold_query(
    family: usize,
    level: usize,
    log: &EventLog,
    rids: &[u32],
    rng: &mut SplitMix,
) -> Predicate {
    let within = |rng: &mut SplitMix, base: Predicate, share: f64| {
        let view = st_query::scan_par(log, &base, 0);
        let mut starts: Vec<u64> = view.iter_events().map(|(_, e)| e.start.0).collect();
        starts.sort_unstable();
        let window = Window::over(&starts, rng.unit() * (1.0 - share), share);
        base.and(window.pred())
    };
    let all = || Predicate::True;
    match (family, level) {
        // Time windows.
        (0, 0) => within(rng, all(), 0.001),
        (0, 1) => within(rng, all(), 0.1),
        (0, _) => within(rng, all(), 1.0),
        // Rank ranges: one rank in a tenth of its run, a tenth of the
        // ranks, every rank on both hosts.
        (1, 0) => {
            let rid = rids[rng.below(rids.len())];
            within(rng, Predicate::Rid(rid), 0.1)
        }
        (1, 1) => {
            let n = rids.len() / 10;
            let first = rng.below(rids.len() - n + 1);
            let ranks = rids[first..first + n].iter().map(|&r| Predicate::Rid(r));
            Predicate::Or(ranks.collect())
        }
        (1, _) => Predicate::Or(vec![
            Predicate::Host("jwc01".into()),
            Predicate::Host("jwc02".into()),
        ]),
        // Path globs.
        (2, 0) => Predicate::PathGlob("/p/home/*".into()),
        (2, 1) => within(rng, Predicate::PathGlob("/p/scratch/*".into()), 0.1),
        (2, _) => Predicate::PathGlob("*".into()),
        // Calls and call classes.
        (_, 0) => within(rng, Predicate::Call("pwrite64".into()), 0.006),
        (_, 1) => within(rng, Predicate::Class(CallClass::Write), 0.3),
        (_, _) => Predicate::Not(Box::new(Predicate::Call("openat".into()))),
    }
}

pub fn setup(ctx: &Ctx) -> Input {
    let log = ior_log(
        ctx.seed,
        &TraceFilter::experiment_b(),
        &[("g", false, Api::Mpiio), ("r", false, Api::Posix)],
        SEGMENTS,
    );
    let decoded_bytes = (log.total_events() * std::mem::size_of::<Event>()) as u64;
    assert!(
        decoded_bytes as f64 >= MIN_BUDGET_MULTIPLE * DEFAULT_CACHE_BUDGET as f64,
        "narrow store decodes to {decoded_bytes} bytes, under {MIN_BUDGET_MULTIPLE}x the cache budget"
    );
    let store = ctx.work.join("narrow.stlog");
    let mut builder = StoreBuilder::create(&store, log.interner().clone()).expect("create store");
    builder.push_log(&log).expect("write store");
    builder.finish().expect("publish store");

    let mut rids: Vec<u32> = log.cases().iter().map(|c| c.meta.rid).collect();
    rids.sort_unstable();
    rids.dedup();

    // Family and level are fixed by the session's place in the cycle,
    // so every seed runs the same mix; the seed picks the windows,
    // ranks and hot spots.
    let mut rng = SplitMix::new(ctx.seed ^ 0x6e61_7272_6f77);
    let mut plans = Vec::with_capacity(SESSIONS.len());
    let mut shares: [Vec<f64>; 3] = Default::default();
    for (i, (family, level)) in SESSIONS.into_iter().enumerate() {
        let cold = cold_query(family, level, &log, &rids, &mut rng);
        let cold_view = st_query::scan_par(&log, &cold, 0);
        let mut steps = vec![Step {
            pred: cold.clone(),
            expected: cold_view.event_count(),
            dfg: i % 2 == 1,
        }];
        // Refinements: the cold filter and a shrinking window around a
        // hot spot, each holding a fixed share of the cold result; their
        // reference count is the cold scan's events in that window.
        let mut cold_starts: Vec<u64> = cold_view.iter_events().map(|(_, e)| e.start.0).collect();
        cold_starts.sort_unstable();
        let hot = 0.05 + 0.9 * rng.unit();
        for (k, w) in REFINE_WIDTHS.into_iter().enumerate() {
            let window = Window::over(&cold_starts, hot - w / 2.0, w);
            steps.push(Step {
                pred: cold.clone().and(window.pred()),
                expected: cold_view
                    .iter_events()
                    .filter(|(_, e)| window.contains(e.start))
                    .count(),
                dfg: (i + k) % 2 == 0,
            });
        }
        shares[level].push(steps[0].expected as f64 / log.total_events() as f64);
        plans.push(steps);
    }
    Input {
        store_bytes: std::fs::metadata(&store).map(|m| m.len()).unwrap_or(0),
        store,
        events: log.total_events(),
        cases: log.case_count(),
        decoded_bytes,
        plans,
        selectivity: [mean(&shares[0]), mean(&shares[1]), mean(&shares[2])],
    }
}

fn render(session: &Session, dfg: bool, req: u64) -> usize {
    let mapped = timed("core.map", req, || session.mapped());
    let view = session.view();
    timed("core.render", req, || {
        if dfg {
            render_dfg_dot(&mapped, &view).len()
        } else {
            render_stats_text(&mapped, &view).len()
        }
    })
}

#[derive(Default)]
struct Samples {
    cold_ms: Vec<f64>,
    refine_ms: Vec<f64>,
    /// Per step: disk bytes, decoded bytes, scheduled workers, resident
    /// cache bytes after the step.
    bytes_read: Vec<f64>,
    cold_read_fraction: Vec<f64>,
    bytes_decoded: Vec<f64>,
    workers: Vec<f64>,
    resident: Vec<f64>,
}

fn note_step(s: &mut Samples, session: &Session, store_bytes: u64, cold: bool) {
    if let Some(p) = session.pushdown() {
        s.bytes_read.push(p.bytes_read as f64);
        s.bytes_decoded.push(p.bytes_decoded as f64);
        if cold {
            s.cold_read_fraction
                .push(p.bytes_read as f64 / store_bytes.max(1) as f64);
        }
    }
    if let Some(w) = session
        .report()
        .note("route.workers")
        .and_then(|w| w.parse().ok())
    {
        s.workers.push(w);
    }
    if let Some(c) = session.cache_stats() {
        s.resident.push(c.bytes as f64);
    }
}

/// One session: the cold query and its refinements, each rendered.
fn session(input: &Input, plan: &Plan, req: u64, s: &mut Samples, checks: &mut Checks) {
    let spec = input.store.display().to_string();
    let _session = span("session", req);
    let first = &plan[0];
    let t = Instant::now();
    let opened = timed("source.session", req, || {
        Inspector::open(&spec).and_then(|i| {
            i.requery(true)
                .columns(analysis_columns())
                .filter(first.pred.clone())
                .session()
        })
    });
    let mut current = match opened {
        Ok(session) => session,
        Err(e) => return checks.fail(format!("cold session: {e}")),
    };
    render(&current, first.dfg, req);
    s.cold_ms.push(ms(t.elapsed()));
    note_step(s, &current, input.store_bytes, true);
    checks.check(current.events_matched() == first.expected, || {
        format!(
            "cold query matched {} events, scan over the resident log {}",
            current.events_matched(),
            first.expected
        )
    });
    for step in &plan[1..] {
        let t = Instant::now();
        let refined = timed("source.refilter", req, || {
            current.refilter(step.pred.clone())
        });
        current = match refined {
            Ok(session) => session,
            Err(e) => return checks.fail(format!("refilter: {e}")),
        };
        render(&current, step.dfg, req);
        s.refine_ms.push(ms(t.elapsed()));
        note_step(s, &current, input.store_bytes, false);
        checks.check(current.events_matched() == step.expected, || {
            format!(
                "refilter matched {} events, scan over the resident log {}",
                current.events_matched(),
                step.expected
            )
        });
    }
}

/// A block reader between the seek reader and the cache: every decode
/// that reaches it is a cache miss, and it adds up what the cache is
/// charged for storing the result.
struct MissCharge<'a> {
    inner: &'a SegmentReader,
    inserted: AtomicU64,
}

impl BlockRead for MissCharge<'_> {
    fn strings(&self) -> &[String] {
        BlockRead::strings(self.inner)
    }

    fn directory(&self) -> Option<&[CaseDir]> {
        BlockRead::directory(self.inner)
    }

    fn decode_block(
        &self,
        block: &BlockDir,
        cols: ColumnSet,
        out: &mut Vec<Event>,
    ) -> Result<usize, StoreError> {
        let base = out.len();
        let parsed = self.inner.decode_block(block, cols, out)?;
        let cost =
            ((out.len() - base) * std::mem::size_of::<Event>()) as u64 + CACHE_ENTRY_OVERHEAD;
        if cost <= DEFAULT_CACHE_BUDGET {
            self.inserted.fetch_add(cost, Ordering::Relaxed);
        }
        Ok(parsed)
    }

    fn bytes_read(&self) -> u64 {
        BlockRead::bytes_read(self.inner)
    }
}

/// Replays the first sessions through a counting segment and a cache of
/// the sessions' budget: fetches per cold query and bytes evicted per
/// session. Counts only — its time is not measured.
fn probe(input: &Input) -> Result<(f64, f64), StoreError> {
    let (mut fetches, mut evicted) = (0u64, 0u64);
    let n = PROBE_SESSIONS.min(input.plans.len());
    for plan in &input.plans[..n] {
        let segment = Arc::new(CountingSegment::new(Arc::new(FileSegment::open(
            &input.store,
        )?)));
        let counters = segment.counters();
        let reader = SegmentReader::from_source(segment)?;
        let charge = MissCharge {
            inner: &reader,
            inserted: AtomicU64::new(0),
        };
        let cache = BlockCache::with_budget(DEFAULT_CACHE_BUDGET);
        let cached = CachedBlockRead::new(&charge, &cache, cache.register());
        for (i, step) in plan.iter().enumerate() {
            st_query::read_pruned_par(&cached, &step.pred, analysis_columns(), 0)?;
            if i == 0 {
                fetches += counters.fetches();
            }
        }
        evicted += charge.inserted.load(Ordering::Relaxed) - cache.stats().bytes;
    }
    Ok((fetches as f64 / n as f64, evicted as f64 / n as f64))
}

pub fn run(ctx: &Ctx, input: &Input) -> Outcome {
    let mut checks = Checks::default();
    let mut samples = Samples::default();
    let (sessions, overhead) = measure(
        ctx,
        |d: &f64| *d,
        |budget: Duration, req0| {
            samples = Samples::default();
            let start = Instant::now();
            let mut per_session = Vec::new();
            let mut req = req0;
            // Whole cycles only, so every measured mix is the same; stop
            // at the cycle end nearest the budget.
            for cycle in 1.. {
                for plan in &input.plans {
                    req += 1;
                    let t = Instant::now();
                    session(input, plan, req, &mut samples, &mut checks);
                    per_session.push(ms(t.elapsed()));
                }
                let per_cycle = start.elapsed() / cycle;
                if start.elapsed() + per_cycle / 2 >= budget {
                    break;
                }
            }
            per_session
        },
    );

    let mut detail = Metrics::default();
    // The gated latencies are means over the whole cycles: the mix spans
    // three selectivity levels on purpose, and a median over it would
    // jump between levels from one run to the next.
    let cold_mean = mean(&samples.cold_ms);
    let refine_mean = mean(&samples.refine_ms);
    let cold_p50 = median(&samples.cold_ms).unwrap_or(f64::NAN);
    let refine_p50 = median(&samples.refine_ms).unwrap_or(f64::NAN);
    detail.put("query_cold_mean_ms", cold_mean, "ms");
    detail.put("refine_mean_ms", refine_mean, "ms");
    detail.put("query_cold_p50_ms", cold_p50, "ms");
    detail.put_tail("query_cold_tail_ms", tail(&samples.cold_ms), "ms");
    detail.put("refine_p50_ms", refine_p50, "ms");
    detail.put_tail("refine_tail_ms", tail(&samples.refine_ms), "ms");
    detail.put("sessions", sessions.len() as f64, "count");

    let mut per_layer = Metrics::default();
    if ctx.trace {
        per_layer.put("store.bytes_read", mean(&samples.bytes_read), "bytes");
        per_layer.put(
            "store.read_fraction",
            mean(&samples.cold_read_fraction),
            "ratio",
        );
        per_layer.put("query.bytes_decoded", mean(&samples.bytes_decoded), "bytes");
        per_layer.put("query.sched_workers", mean(&samples.workers), "count");
        per_layer.put("cache.resident_bytes", mean(&samples.resident), "bytes");
        // The replay must not add to the program's stage times.
        st_obs::set_enabled(false);
        match probe(input) {
            Ok((fetches, evicted)) => {
                per_layer.put("store.fetches", fetches, "count");
                per_layer.put("cache.evicted_bytes", evicted, "bytes");
            }
            Err(e) => checks.fail(format!("counting probe: {e}")),
        }
        per_layer.put("obs.overhead_ratio", overhead, "ratio");
    }
    Outcome {
        checks,
        gate: [("step1_ms", cold_mean), ("step2_ms", refine_mean)],
        detail,
        per_layer,
        sizes: vec![
            ("events", input.events as f64),
            ("cases", input.cases as f64),
            ("store_bytes", input.store_bytes as f64),
            ("decoded_bytes", input.decoded_bytes as f64),
            ("cache_budget_bytes", DEFAULT_CACHE_BUDGET as f64),
            ("sessions_planned", input.plans.len() as f64),
            ("cold_selectivity_low", input.selectivity[0]),
            ("cold_selectivity_mid", input.selectivity[1]),
            ("cold_selectivity_full", input.selectivity[2]),
        ],
    }
}
