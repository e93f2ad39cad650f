//! [`Inspector`] — the builder-style session over any [`TraceSource`].
//!
//! An inspector is the paper's Fig. 6 pipeline as one object: name an
//! input, optionally narrow it with a predicate, pick an activity
//! mapping, and materialize a [`Session`] holding exactly the matching
//! events plus everything the front-ends need (projection views, DFG,
//! statistics, pruning accounting, structured warnings).
//!
//! The planner picks the cheapest evaluation route per source:
//!
//! * **STLOG v2 store** — opened **out-of-core** by the reader
//!   ([`st_store::SegmentReader`]): only the container head (header,
//!   string table, directory) is fetched up front, and the predicate is
//!   pushed down into the reader ([`st_query::read_pruned_par`]) —
//!   zone-mapped blocks that provably cannot match are never even read
//!   off disk, surviving blocks fan out to the scoped-worker pool, and
//!   only the columns the predicate + the caller's
//!   [`columns`](Inspector::columns) request are parsed. Stores larger
//!   than RAM stay queryable on every route.
//! * **STLOG v1 store** — full decode ([`st_store::legacy::read_v1`]),
//!   then a (parallel) scan, like any materialized log.
//! * **strace directory / file** — the parallel line-at-a-time loader
//!   ([`st_strace::load_dir`] / [`st_strace::load_files`]) under the
//!   [`threads`](Inspector::threads) budget, then a scan; per-file
//!   parse warnings land in the session's warning channel instead of
//!   on stderr.
//! * **`sim:` spec** — the table-driven workload backend
//!   ([`crate::sim::workload_log`]), then a scan.
//! * **`live:` spec** — the sealed container of a running ingest
//!   service: routed like a store when a checkpoint exists at the path
//!   (pushdown, seek, re-query — the atomic-rename sealing discipline
//!   guarantees the open always sees a complete container), and as an
//!   empty snapshot before the first checkpoint (route `live-empty`).
//!
//! Every route produces the same observable result for the same input:
//! the session's log holds exactly the events a full load followed by
//! [`st_query::scan`] would keep.

use std::sync::Arc;

use st_core::{CallTopDirs, Dfg, IoStatistics, MappedLog, Mapping};
use st_model::{EventLog, Interner, LogView};
use st_obs::PipelineReport;
use st_query::pushdown::ColumnSet;
use st_query::{scan_par, Predicate, PushdownStats};
use st_store::{
    BlockCache, CacheStats, CachedBlockRead, CorruptKind, SalvageReport, SegmentReader, StoreError,
    DEFAULT_CACHE_BUDGET,
};
use st_strace::{load_dir, load_files, LoadOptions};

use crate::error::Error;
use crate::sim;
use crate::spec::TraceSource;
use crate::warning::SourceWarning;

/// How a store container that fails validation is handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Any corruption fails the session (the default): analyses never
    /// silently run over partial data.
    #[default]
    Strict,
    /// Recover every event the per-block checksums vouch for
    /// ([`st_store::salvage`]); each quarantined block surfaces as a
    /// [`SourceWarning::Store`] and the loss report is kept on the
    /// session ([`Session::salvage`]). Inert on non-store sources —
    /// there is nothing to salvage in strace text or a simulation.
    Salvage,
}

/// Everything a [`Session`] retains to serve [`Session::refilter`]: the
/// still-open container reader, the decoded-block cache populated by
/// the queries run so far, and the plan inputs that must stay fixed
/// across refinements so a refilter is observably a fresh session over
/// the same inspector configuration.
struct RequeryState {
    reader: SegmentReader,
    cache: Arc<BlockCache>,
    token: u64,
    columns: ColumnSet,
    threads: usize,
    spec: String,
    deny_warnings: bool,
}

/// The worker plan for a session's parallel stages (block decode,
/// parallel scan, trace loading): the effective worker budget plus a
/// human-readable reason, recorded in the session's
/// [`PipelineReport`] as `route.workers` / `route.reason`.
///
/// On a single-core host the planner always chooses the sequential
/// route — even for an explicit `threads > 1` request — because
/// scoped workers only add thread spawns and per-unit buffers when
/// there is no second core to run them (the `pushdown_par4_ns`
/// regression). Library callers going straight to
/// [`st_query::read_pruned_par`] / [`st_query::scan_par`] keep full
/// control of the worker count.
fn plan_workers(threads: usize) -> (usize, String) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores <= 1 {
        let reason = if threads > 1 {
            format!("seq: 1 core available ({threads} workers requested)")
        } else {
            "seq: 1 core available".to_string()
        };
        (1, reason)
    } else if threads == 0 {
        (cores, format!("par: {cores} cores available"))
    } else if threads == 1 {
        (1, "seq: 1 worker requested".to_string())
    } else {
        (
            threads,
            format!("par: {threads} workers requested ({cores} cores available)"),
        )
    }
}

/// Warning totals for the report: `(emitted, suppressed)`. Emitted
/// counts the warnings actually carried by the session; suppressed
/// sums the per-file overflow beyond [`st_strace::WARNING_CAP`]
/// (each [`st_strace::Warning::Suppressed`] trailer's count).
fn warning_counts(warnings: &[SourceWarning]) -> (u64, u64) {
    let mut suppressed = 0u64;
    for w in warnings {
        if let SourceWarning::Trace {
            warning: st_strace::Warning::Suppressed { count },
            ..
        } = w
        {
            suppressed += *count as u64;
        }
    }
    (warnings.len() as u64, suppressed)
}

/// Completes a materialized session: closes the session span, scopes
/// a [`PipelineReport`] to everything collected since the session
/// began, annotates it with the planned route, folds the external
/// accounting (pushdown stats, salvage losses, warning totals) into
/// the counters, and applies the `deny_warnings` promotion.
///
/// Counter folding uses [`PipelineReport::merge_counter`] (keep-max
/// semantics): when collection is enabled the instrumented stages
/// already carry the same totals and the merge changes nothing; when
/// disabled it fills the totals in, so [`Session::report`] stays
/// meaningful without any tracing overhead.
fn finalize_session(
    mut session: Session,
    span: st_obs::Span,
    mark: st_obs::Mark,
    route: String,
    workers: usize,
    reason: String,
    deny_warnings: bool,
) -> Result<Session, Error> {
    drop(span);
    let mut report = st_obs::report_since(&mark);
    report.set_note("source", session.source.to_string());
    report.set_note("route", route);
    report.set_note("route.workers", workers.to_string());
    report.set_note("route.reason", reason);
    if let Some(stats) = &session.pushdown {
        report.merge_counter("bytes_read", stats.bytes_read);
        report.merge_counter("bytes_total", stats.bytes_total);
        report.merge_counter("bytes_decoded", stats.bytes_decoded);
        report.merge_counter("cases_total", stats.cases_total as u64);
        report.merge_counter("cases_pruned", stats.cases_pruned as u64);
        report.merge_counter("blocks_total", stats.blocks_total as u64);
        report.merge_counter("blocks_pruned", stats.blocks_pruned as u64);
        report.merge_counter("events_decoded", stats.events_decoded);
        report.merge_counter("events_matched", stats.events_matched);
    }
    if let Some(cache) = &session.cache {
        report.merge_counter("cache.hits", cache.hits);
        report.merge_counter("cache.misses", cache.misses);
        report.merge_counter("cache.bytes", cache.bytes);
    }
    if let Some(salvage) = &session.salvage {
        report.merge_counter("blocks_lost", salvage.losses.len() as u64);
        report.merge_counter(
            "events_lost",
            salvage
                .events_total
                .saturating_sub(salvage.events_recovered),
        );
    }
    let (emitted, suppressed) = warning_counts(&session.warnings);
    report.merge_counter("warnings", emitted);
    report.merge_counter("warnings_suppressed", suppressed);
    session.report = report;
    if deny_warnings && !session.warnings.is_empty() {
        return Err(Error::WarningsDenied {
            spec: session.source.to_string(),
            count: session.warnings.len(),
            first: session.warnings[0].to_string(),
        });
    }
    Ok(session)
}

/// Converts a salvage report into session warnings: one
/// [`SourceWarning::Store`] per quarantined block, plus one note when
/// the directory itself took damage.
fn note_salvage(
    spec: &str,
    path: &std::path::Path,
    report: &SalvageReport,
    warnings: &mut Vec<SourceWarning>,
) {
    for loss in &report.losses {
        warnings.push(SourceWarning::Store {
            path: path.to_path_buf(),
            loss: loss.clone(),
        });
    }
    if report.cases_lost > 0 || report.orphan_blocks > 0 || report.unaccounted_bytes > 0 {
        warnings.push(SourceWarning::Note(format!(
            "{spec}: salvage: directory damage — {} case entr{} \
             unparseable, {} orphan block frame(s) ({} bytes) found \
             past directory knowledge, {} byte(s) unaccounted for",
            report.cases_lost,
            if report.cases_lost == 1 { "y" } else { "ies" },
            report.orphan_blocks,
            report.orphan_bytes,
            report.unaccounted_bytes,
        )));
    }
}

/// Builder for one inspection session over a [`TraceSource`].
///
/// See the module docs above for the planning rules. Construction is
/// cheap — nothing is read until [`session`](Inspector::session) (or a
/// terminal like [`dfg`](Inspector::dfg)) runs.
pub struct Inspector {
    source: TraceSource,
    pred: Option<Predicate>,
    mapping: Option<Box<dyn Mapping + Send + Sync>>,
    threads: usize,
    columns: ColumnSet,
    strict_names: bool,
    recovery: RecoveryPolicy,
    deny_warnings: bool,
    requery: bool,
}

impl Inspector {
    /// Opens an input spec (see [`TraceSource`]'s `FromStr`
    /// implementation for the accepted spellings).
    pub fn open(spec: &str) -> Result<Inspector, Error> {
        Ok(Inspector::from_source(spec.parse()?))
    }

    /// Builds an inspector over an already-resolved source.
    pub fn from_source(source: TraceSource) -> Inspector {
        Inspector {
            source,
            pred: None,
            mapping: None,
            threads: 0,
            columns: ColumnSet::ALL,
            strict_names: false,
            recovery: RecoveryPolicy::default(),
            deny_warnings: false,
            requery: false,
        }
    }

    /// The source this inspector reads.
    pub fn source(&self) -> &TraceSource {
        &self.source
    }

    /// Narrows the session to the events matching `pred` (conjunction
    /// with any previously set filter).
    pub fn filter(mut self, pred: Predicate) -> Inspector {
        self.pred = Some(match self.pred.take() {
            Some(prev) => prev.and(pred),
            None => pred,
        });
        self
    }

    /// Narrows the session by a filter expression in the
    /// [`st_query::parse_expr`] grammar (`pid=42 path~"*.h5" ok=false`).
    pub fn filter_expr(self, expr: &str) -> Result<Inspector, Error> {
        Ok(self.filter(st_query::parse_expr(expr)?))
    }

    /// Sets the event → activity mapping the session's projections use
    /// (default: [`CallTopDirs`] with depth 2, the paper's Eq. 4).
    pub fn map(mut self, mapping: impl Mapping + Send + 'static) -> Inspector {
        self.mapping = Some(Box::new(mapping));
        self
    }

    /// Sets an already-boxed mapping (the form runtime mapping
    /// dispatch — e.g. a CLI `--map` choice — produces).
    pub fn map_boxed(mut self, mapping: Box<dyn Mapping + Send + Sync>) -> Inspector {
        self.mapping = Some(mapping);
        self
    }

    /// Worker budget for parallel routes (block decode, parallel scan,
    /// trace loading); `0` (the default) uses available parallelism.
    pub fn threads(mut self, threads: usize) -> Inspector {
        self.threads = threads;
        self
    }

    /// The event columns the session's consumers need (default: all).
    /// On the pushdown route, columns outside `emit ∪ predicate ∪
    /// identity` are skipped without parsing; unrequested fields take
    /// neutral defaults.
    pub fn columns(mut self, emit: ColumnSet) -> Inspector {
        self.columns = emit;
        self
    }

    /// Fails strace-text loads on file names that do not follow the
    /// `<cid>_<host>_<rid>.st` convention (default: off, a fallback
    /// identity is synthesized; see [`LoadOptions::strict_names`]).
    /// [`session`](Inspector::session) rejects it with a spec error when
    /// the source is not strace text — it would otherwise be silently
    /// inert.
    pub fn strict_names(mut self, strict: bool) -> Inspector {
        self.strict_names = strict;
        self
    }

    /// Sets how a corrupt store container is handled (default:
    /// [`RecoveryPolicy::Strict`]). With [`RecoveryPolicy::Salvage`],
    /// damaged blocks are quarantined into [`SourceWarning::Store`]
    /// warnings and the session runs over every event the checksums
    /// vouch for.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Inspector {
        self.recovery = policy;
        self
    }

    /// Enables hot re-querying (default: off). On the store pushdown
    /// route the session then keeps the container open, routes every
    /// block decode through a byte-budgeted decoded-block cache
    /// ([`st_store::BlockCache`]), and supports
    /// [`Session::refilter`] — refined queries re-plan pushdown against
    /// the already-loaded directory and serve previously decoded
    /// blocks from memory instead of disk. Off by default because
    /// populating the cache costs one event memcpy per decoded block,
    /// which a one-shot query never earns back. Inert on non-store
    /// sources and on v1 stores, which decode whole
    /// ([`Session::refilter`] then reports
    /// [`Error::RequeryUnavailable`]).
    pub fn requery(mut self, enabled: bool) -> Inspector {
        self.requery = enabled;
        self
    }

    /// Promotes any collected [`SourceWarning`] to a hard
    /// [`Error::WarningsDenied`]: the session fails instead of
    /// materializing with non-fatal oddities (for pipelines that must
    /// not run over partial or suspect data).
    pub fn deny_warnings(mut self, deny: bool) -> Inspector {
        self.deny_warnings = deny;
        self
    }

    /// Materializes the session: resolves the source, runs the planned
    /// route, and collects warnings.
    pub fn session(self) -> Result<Session, Error> {
        let Inspector {
            source,
            pred,
            mapping,
            threads,
            columns,
            strict_names,
            recovery,
            deny_warnings,
            requery,
        } = self;
        let spec = source.to_string();
        let mapping = mapping.unwrap_or_else(|| Box::new(CallTopDirs::new(2)));
        // Strict file naming shapes how strace text is read; on any
        // other source it would be silently inert, so it is rejected
        // rather than ignored.
        if strict_names && !source.is_trace_text() {
            return Err(Error::Spec {
                spec,
                reason: "strict file naming applies only to strace text inputs \
                         (a directory or file); this input is not strace text"
                    .to_string(),
            });
        }
        // The worker plan: on a single-core host every parallel stage
        // degrades to the sequential route (recorded in the report),
        // so the scoped-worker fan-out never pays for workers that
        // cannot run concurrently.
        let (eff_threads, plan_reason) = plan_workers(threads);
        let load = LoadOptions {
            threads: eff_threads,
            strict_names,
        };
        let obs_mark = st_obs::mark();
        let session_span = st_obs::span!("session");
        let mut warnings: Vec<SourceWarning> = Vec::new();
        let mut salvage: Option<SalvageReport> = None;

        let mut route = "sim";
        let log = match &source {
            TraceSource::Sim { workload, paper } => {
                let _span = st_obs::span!("sim.generate");
                sim::workload_log(workload, *paper)?
            }
            TraceSource::TraceDir(path) => {
                route = "trace-load";
                let result = load_dir(path, Interner::new_shared(), &load).map_err(|source| {
                    Error::Strace {
                        spec: spec.clone(),
                        source,
                    }
                })?;
                warnings.extend(
                    result
                        .warnings
                        .into_iter()
                        .map(|(file, warning)| SourceWarning::Trace { file, warning }),
                );
                result.log
            }
            TraceSource::TraceFile(path) => {
                route = "trace-load";
                let result = load_files(std::slice::from_ref(path), Interner::new_shared(), &load)
                    .map_err(|source| Error::Strace {
                        spec: spec.clone(),
                        source,
                    })?;
                warnings.extend(
                    result
                        .warnings
                        .into_iter()
                        .map(|(file, warning)| SourceWarning::Trace { file, warning }),
                );
                result.log
            }
            // A live container before its first checkpoint: the daemon
            // has sealed nothing yet, so the snapshot is the empty log
            // (recorded in the route note) rather than a spec error.
            TraceSource::Live(path) if !path.is_file() => {
                route = "live-empty";
                EventLog::with_new_interner()
            }
            TraceSource::Store { path, .. } | TraceSource::Live(path) => 'store: {
                route = if source.is_live() {
                    "live-store-read"
                } else {
                    "store-read"
                };
                // v2 containers open out-of-core: only the head is
                // fetched up front and every later byte comes from an
                // exact-extent positioned read. A v1 container has no
                // directory to open it through; it decodes whole and
                // takes the scan route like any materialized log.
                let store_err = |source| Error::Store {
                    spec: spec.clone(),
                    source,
                };
                let opened = match recovery {
                    RecoveryPolicy::Strict => SegmentReader::open(path),
                    RecoveryPolicy::Salvage => st_store::open_salvage_seek(path).map(|salvaged| {
                        salvage = Some(salvaged.report);
                        salvaged.reader
                    }),
                };
                if let Some(report) = &salvage {
                    note_salvage(&spec, path, report, &mut warnings);
                }
                let reader = match opened {
                    Ok(reader) => reader,
                    Err(StoreError::Corrupt(CorruptKind::V1Seek)) => {
                        let log = st_store::legacy::read_v1(path).map_err(store_err)?;
                        if recovery == RecoveryPolicy::Salvage {
                            salvage = Some(SalvageReport::clean_v1(log.total_events() as u64));
                        }
                        // A filter against a v1 container cannot be
                        // pushed down — note the degraded route rather
                        // than silently scanning.
                        if pred.is_some() {
                            warnings.push(SourceWarning::Note(format!(
                                "{spec}: filter evaluated by full scan — v1 containers carry \
                                 no block directory for pushdown (re-encode with the current \
                                 tools to enable it)"
                            )));
                        }
                        break 'store log;
                    }
                    Err(e) => return Err(store_err(e)),
                };
                // Pushdown route: prune, decode survivors in
                // parallel, and return — the pruned log already
                // holds exactly the matching events, and pruned-away
                // blocks are never read off disk at all.
                // `threads == 0` hands the worker choice to the
                // library's cost-aware scheduler (block count ×
                // estimated decode bytes); an explicit request keeps
                // the planner's single-core forcing.
                let pred = pred.unwrap_or(Predicate::True);
                let sched_threads = if threads == 0 { 0 } else { eff_threads };
                let cache =
                    requery.then(|| Arc::new(BlockCache::with_budget(DEFAULT_CACHE_BUDGET)));
                let pruned = match &cache {
                    Some(cache) => {
                        let token = cache.register();
                        let cached = CachedBlockRead::new(&reader, cache, token);
                        st_query::read_pruned_par(&cached, &pred, columns, sched_threads)
                            .map(|pruned| (pruned, token))
                    }
                    None => st_query::read_pruned_par(&reader, &pred, columns, sched_threads)
                        .map(|pruned| (pruned, 0)),
                };
                let (pruned, token) = pruned.map_err(store_err)?;
                let pushdown_route = if source.is_live() {
                    "live-store-pushdown-seek"
                } else {
                    "store-pushdown-seek"
                };
                let workers = pruned.sched.workers;
                let sched_reason = pruned.sched.reason.clone();
                let cache_stats = cache.as_ref().map(|cache| cache.stats());
                let requery_state = cache.map(|cache| RequeryState {
                    reader,
                    cache,
                    token,
                    columns,
                    threads: sched_threads,
                    spec: spec.clone(),
                    deny_warnings,
                });
                return finalize_session(
                    Session {
                        source,
                        events_total: pruned.stats.events_total as usize,
                        cases_total: pruned.stats.cases_total,
                        pushdown: Some(pruned.stats),
                        log: pruned.log,
                        warnings,
                        salvage,
                        mapping,
                        report: PipelineReport::default(),
                        cache: cache_stats,
                        requery: requery_state,
                    },
                    session_span,
                    obs_mark,
                    pushdown_route.to_string(),
                    workers,
                    sched_reason,
                    deny_warnings,
                );
            }
        };

        // Scan route: the whole log is materialized; a filter narrows it
        // through the (parallel) scan, which is property-identical to
        // the sequential one.
        let events_total = log.total_events();
        let cases_total = log.case_count();
        let scanned = pred.is_some();
        let log = match &pred {
            Some(pred) => scan_par(&log, pred, eff_threads).to_event_log(),
            None => log,
        };
        let route = if scanned {
            format!("{route}+scan")
        } else {
            route.to_string()
        };
        finalize_session(
            Session {
                source,
                log,
                events_total,
                cases_total,
                pushdown: None,
                warnings,
                salvage,
                mapping,
                report: PipelineReport::default(),
                cache: None,
                requery: None,
            },
            session_span,
            obs_mark,
            route,
            eff_threads,
            plan_reason,
            deny_warnings,
        )
    }

    /// Terminal: materializes the session and returns its event log
    /// (exactly the matching events).
    pub fn log(self) -> Result<EventLog, Error> {
        self.session().map(Session::into_log)
    }

    /// Terminal: materializes the session and builds the DFG of the
    /// slice under the configured mapping.
    pub fn dfg(self) -> Result<Dfg, Error> {
        let session = self.session()?;
        Ok(session.dfg())
    }

    /// Terminal: materializes the session and computes the per-activity
    /// I/O statistics of the slice under the configured mapping.
    pub fn stats(self) -> Result<IoStatistics, Error> {
        let session = self.session()?;
        Ok(session.stats())
    }
}

impl std::fmt::Debug for Inspector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inspector")
            .field("source", &self.source)
            .field("pred", &self.pred)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

/// A materialized inspection session: the matching events plus the
/// plan's accounting, ready for any number of projections.
pub struct Session {
    source: TraceSource,
    log: EventLog,
    events_total: usize,
    cases_total: usize,
    pushdown: Option<PushdownStats>,
    warnings: Vec<SourceWarning>,
    salvage: Option<SalvageReport>,
    mapping: Box<dyn Mapping + Send + Sync>,
    report: PipelineReport,
    /// Cache effectiveness of *this* query (hit/miss deltas, resident
    /// bytes after) when the session ran through a decoded-block cache.
    cache: Option<CacheStats>,
    requery: Option<RequeryState>,
}

impl Session {
    /// The source the session was materialized from.
    pub fn source(&self) -> &TraceSource {
        &self.source
    }

    /// The session's event log: exactly the events that matched the
    /// filter (every event of the source when no filter was set).
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Consumes the session, returning the owned event log.
    pub fn into_log(self) -> EventLog {
        self.log
    }

    /// The identity view over the session's log — the starting point
    /// for further narrowing ([`LogView::refine`]) or grouping
    /// ([`st_query::group_by`]).
    pub fn view(&self) -> LogView<'_> {
        LogView::full(&self.log)
    }

    /// The session's log under the configured activity mapping (one
    /// mapping pass; reuse the returned [`MappedLog`] for any number of
    /// slices and projections).
    pub fn mapped(&self) -> MappedLog<'_> {
        MappedLog::new(&self.log, self.mapping.as_ref())
    }

    /// The configured event → activity mapping.
    pub fn mapping(&self) -> &(dyn Mapping + Send + Sync) {
        self.mapping.as_ref()
    }

    /// Builds the DFG of the session's slice.
    pub fn dfg(&self) -> Dfg {
        Dfg::from_mapped(&self.mapped())
    }

    /// Computes the per-activity I/O statistics of the session's slice.
    pub fn stats(&self) -> IoStatistics {
        IoStatistics::compute(&self.mapped())
    }

    /// Events in the source before filtering.
    pub fn events_total(&self) -> usize {
        self.events_total
    }

    /// Cases in the source before filtering.
    pub fn cases_total(&self) -> usize {
        self.cases_total
    }

    /// Events that matched the filter.
    pub fn events_matched(&self) -> usize {
        self.log.total_events()
    }

    /// Cases with at least one matching event.
    pub fn cases_matched(&self) -> usize {
        self.log.case_count()
    }

    /// Pruning accounting when the session took the pushdown route
    /// (`None` on scan routes).
    pub fn pushdown(&self) -> Option<&PushdownStats> {
        self.pushdown.as_ref()
    }

    /// The session's pipeline report: the planned route (notes
    /// `route`, `route.workers`, `route.reason`), counter totals
    /// (bytes read, blocks pruned, events scanned, warnings), and —
    /// when [`st_obs`] collection is enabled — the timed stage tree
    /// covering exactly this session's materialization. Subsumes
    /// [`Session::pushdown`]: the same accounting appears as report
    /// counters on every route.
    pub fn report(&self) -> &PipelineReport {
        &self.report
    }

    /// The structured warnings collected while materializing.
    pub fn warnings(&self) -> &[SourceWarning] {
        &self.warnings
    }

    /// The salvage loss report when the session opened a store under
    /// [`RecoveryPolicy::Salvage`] (`None` on strict opens and
    /// non-store sources).
    pub fn salvage(&self) -> Option<&SalvageReport> {
        self.salvage.as_ref()
    }

    /// Narrows the session to the cases carrying command id `cid`
    /// (e.g. splitting an `ior-ssf-fpp` log into its SSF half). `side`
    /// labels the input in the error when nothing matches (`A`/`B` for
    /// the two sides of a diff).
    pub fn select_cid(mut self, cid: &str, side: &str) -> Result<Session, Error> {
        let (selected, _rest) = self.log.partition_by_cid(cid);
        if selected.is_empty() {
            return Err(Error::NoCasesWithCid {
                cid: cid.to_string(),
                side: side.to_string(),
            });
        }
        self.log = selected;
        Ok(self)
    }

    /// Whether this session can serve [`Session::refilter`] — i.e. it
    /// was materialized with [`Inspector::requery`] enabled on the
    /// store pushdown route and still holds the container open.
    pub fn can_refilter(&self) -> bool {
        self.requery.is_some()
    }

    /// Cache effectiveness of the query that produced this session
    /// (`None` when re-querying is off): hits/misses counted over this
    /// query alone, plus the bytes resident after it. The same totals
    /// appear in [`Session::report`] as `cache.hits` / `cache.misses` /
    /// `cache.bytes`.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache
    }

    /// Re-runs the session's query with `pred` as the **full
    /// replacement predicate**, reusing the open container and the
    /// decoded-block cache.
    ///
    /// The refinement re-plans pushdown against the already-loaded
    /// directory — no header, string-table or directory bytes are
    /// fetched again — re-reads only the blocks the new plan admits,
    /// and serves every block the previous queries already decoded
    /// straight from the cache (zero disk fetches, zero varint
    /// decodes). The result is observably identical to a fresh
    /// [`Inspector::session`] over the same source with `pred` as the
    /// filter (property-tested in `tests/props_requery.rs`); only the
    /// evaluation cost differs.
    ///
    /// The returned session retains the re-query state, so refinements
    /// chain: each call's [`Session::report`] carries per-query
    /// `bytes_read` (disk traffic of *this* refinement alone) and
    /// `cache.*` counters, under route `store-requery-seek` (the store
    /// routes are `store-pushdown-seek`, `store-requery-seek`, and
    /// `store-read` — plus `+scan` when filtered — for v1 containers,
    /// which decode whole; `live:` sources prefix `live-`).
    ///
    /// Fails with [`Error::RequeryUnavailable`] when the session
    /// retained no re-query state ([`Inspector::requery`] off, or a
    /// route without pushdown: a v1 store or a non-store source).
    pub fn refilter(mut self, pred: Predicate) -> Result<Session, Error> {
        let Some(state) = self.requery.take() else {
            let reason = if self.pushdown.is_some() {
                "session was materialized without Inspector::requery(true)"
            } else {
                "session did not take the store pushdown route \
                 (re-querying needs an open container with a block directory)"
            };
            return Err(Error::RequeryUnavailable {
                spec: self.source.to_string(),
                reason: reason.to_string(),
            });
        };
        let obs_mark = st_obs::mark();
        let session_span = st_obs::span!("session.refilter");
        let cache_before = state.cache.stats();
        let bytes_before = state.reader.bytes_read();
        let cached = CachedBlockRead::new(&state.reader, &state.cache, state.token);
        let pruned = st_query::read_pruned_par(&cached, &pred, state.columns, state.threads);
        let mut pruned = pruned.map_err(|source| Error::Store {
            spec: state.spec.clone(),
            source,
        })?;
        // The reader's fetch counter is cumulative across the session's
        // whole life; the report should account this refinement alone.
        pruned.stats.bytes_read = pruned.stats.bytes_read.saturating_sub(bytes_before);
        let cache_after = state.cache.stats();
        let cache_stats = CacheStats {
            hits: cache_after.hits - cache_before.hits,
            misses: cache_after.misses - cache_before.misses,
            bytes: cache_after.bytes,
        };
        let workers = pruned.sched.workers;
        let sched_reason = pruned.sched.reason.clone();
        let deny_warnings = state.deny_warnings;
        finalize_session(
            Session {
                source: self.source,
                events_total: pruned.stats.events_total as usize,
                cases_total: pruned.stats.cases_total,
                pushdown: Some(pruned.stats),
                log: pruned.log,
                warnings: self.warnings,
                salvage: self.salvage,
                mapping: self.mapping,
                report: PipelineReport::default(),
                cache: Some(cache_stats),
                requery: Some(state),
            },
            session_span,
            obs_mark,
            "store-requery-seek".to_string(),
            workers,
            sched_reason,
            deny_warnings,
        )
    }

    /// [`Session::refilter`] by a filter expression in the
    /// [`st_query::parse_expr`] grammar.
    pub fn refilter_expr(self, expr: &str) -> Result<Session, Error> {
        let pred = st_query::parse_expr(expr)?;
        self.refilter(pred)
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("source", &self.source)
            .field("events_matched", &self.events_matched())
            .field("events_total", &self.events_total)
            .field("pushdown", &self.pushdown.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_query::parse_expr;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("st-source-insp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sim_session_builds_dfg_and_stats() {
        let session = Inspector::open("sim:ls").unwrap().session().unwrap();
        assert_eq!(session.cases_matched(), 6);
        assert_eq!(session.events_total(), session.events_matched());
        assert!(session.pushdown().is_none());
        let dfg = session.dfg();
        assert!(dfg.activity_node_count() > 0);
        let stats = session.stats();
        assert!(!stats.is_empty());
    }

    /// The log's events as interner-independent CSV rows, sorted, so
    /// logs loaded through different string tables compare by value.
    fn sorted_rows(log: &EventLog) -> Vec<String> {
        let mut rows: Vec<String> = st_strace::to_csv(log).lines().map(str::to_string).collect();
        rows.sort();
        rows
    }

    #[test]
    fn filter_narrows_identically_across_routes() {
        // The same filtered slice must fall out of the sim route, the
        // store pushdown route, and the strace-text load + scan route.
        let dir = tmpdir("routes");
        let log = sim::workload_log("ls", false).unwrap();
        let store = dir.join("ls.stlog");
        st_store::write_store(&log, &store).unwrap();
        let spec = store.to_str().unwrap();
        let pred = parse_expr("class=read").unwrap();

        let via_sim = Inspector::open("sim:ls")
            .unwrap()
            .filter(pred.clone())
            .log()
            .unwrap();
        let via_pushdown = Inspector::open(spec)
            .unwrap()
            .filter(pred.clone())
            .session()
            .unwrap();
        assert!(via_pushdown.pushdown().is_some());
        let traces = dir.join("traces");
        st_strace::write_log_to_dir(&log, &traces, &st_strace::WriteOptions::default()).unwrap();
        let via_text = Inspector::open(traces.to_str().unwrap())
            .unwrap()
            .filter(pred)
            .session()
            .unwrap();
        assert_eq!(via_text.report().note("route"), Some("trace-load+scan"));

        assert_eq!(via_sim.cases(), via_pushdown.log().cases());
        assert_eq!(sorted_rows(&via_sim), sorted_rows(via_text.log()));

        // The same filter against a v1 container scans identically but
        // notes the degraded route through the warning channel.
        let v1 = dir.join("ls-v1.stlog");
        std::fs::write(&v1, st_store::to_bytes_v1(&log).unwrap()).unwrap();
        let via_v1 = Inspector::open(v1.to_str().unwrap())
            .unwrap()
            .filter(parse_expr("class=read").unwrap())
            .session()
            .unwrap();
        assert!(via_v1.pushdown().is_none());
        assert_eq!(via_sim.cases(), via_v1.log().cases());
        assert!(
            via_v1
                .warnings()
                .iter()
                .any(|w| matches!(w, SourceWarning::Note(n) if n.contains("full scan"))),
            "{:?}",
            via_v1.warnings()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v2_sessions_read_out_of_core() {
        // A selective filter over a v2 store must not pull the whole
        // container off disk: the seek route's pushdown stats account
        // the bytes actually fetched, which stay below the file size
        // when blocks are pruned.
        let dir = tmpdir("ooc");
        let log = sim::workload_log("ior-ssf-fpp", false).unwrap();
        let store = dir.join("ior.stlog");
        st_store::write_store(&log, &store).unwrap();
        let image_len = std::fs::metadata(&store).unwrap().len();

        let session = Inspector::open(store.to_str().unwrap())
            .unwrap()
            .filter(parse_expr("pid=999999").unwrap())
            .session()
            .unwrap();
        let stats = session
            .pushdown()
            .expect("v2 store takes the pushdown route");
        assert_eq!(session.events_matched(), 0);
        assert!(stats.blocks_pruned > 0, "{stats:?}");
        assert!(
            stats.bytes_read < image_len,
            "seek route fetched {} of {image_len} bytes",
            stats.bytes_read
        );

        // An unfiltered session still decodes everything.
        let full = Inspector::open(store.to_str().unwrap())
            .unwrap()
            .session()
            .unwrap();
        assert_eq!(full.events_matched(), log.total_events());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_dir_and_single_file_sessions_carry_warnings() {
        let dir = tmpdir("warn");
        let trace = dir.join("a_h_1.st");
        std::fs::write(
            &trace,
            "garbage\n9 08:00:00.000001 read(3</x>, \"\", 10) = 0 <0.000001>\n",
        )
        .unwrap();
        let from_dir = Inspector::open(dir.to_str().unwrap())
            .unwrap()
            .session()
            .unwrap();
        assert_eq!(from_dir.events_matched(), 1);
        assert_eq!(from_dir.warnings().len(), 1);
        assert!(from_dir.warnings()[0].to_string().contains("a_h_1.st"));

        let from_file = Inspector::open(trace.to_str().unwrap())
            .unwrap()
            .session()
            .unwrap();
        assert_eq!(from_file.events_matched(), 1);
        assert_eq!(from_file.cases_matched(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn live_route_is_empty_before_first_checkpoint_then_tracks_the_store() {
        let dir = tmpdir("live");
        let store = dir.join("live.stlog");
        let spec = format!("live:{}", store.display());

        // No checkpoint yet: a valid, empty snapshot — not an error.
        let empty = Inspector::open(&spec).unwrap().session().unwrap();
        assert_eq!(empty.events_matched(), 0);
        assert_eq!(empty.report().note("route"), Some("live-empty"));

        // After the daemon seals a checkpoint, the same spec routes
        // like a store (pushdown + seek) and sees the sealed events.
        let log = sim::workload_log("ls", false).unwrap();
        st_store::write_store(&log, &store).unwrap();
        let live = Inspector::open(&spec)
            .unwrap()
            .filter(parse_expr("class=read").unwrap())
            .session()
            .unwrap();
        assert!(live.pushdown().is_some());
        assert_eq!(
            live.report().note("route"),
            Some("live-store-pushdown-seek")
        );
        let offline = Inspector::open(store.to_str().unwrap())
            .unwrap()
            .filter(parse_expr("class=read").unwrap())
            .session()
            .unwrap();
        assert_eq!(live.log().cases(), offline.log().cases());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn select_cid_narrows_or_errors() {
        let session = Inspector::open("sim:ls").unwrap().session().unwrap();
        let narrowed = session.select_cid("a", "A").unwrap();
        assert_eq!(narrowed.cases_matched(), 3);
        let session = Inspector::open("sim:ls").unwrap().session().unwrap();
        let err = session.select_cid("zzz", "B").unwrap_err();
        assert!(err.to_string().contains("no cases with cid"), "{err}");
    }

    /// Writes a sim:ls v2 store and flips one byte inside its first
    /// block, returning the store path.
    fn damaged_store(dir: &std::path::Path) -> std::path::PathBuf {
        let log = sim::workload_log("ls", false).unwrap();
        let image = st_store::to_bytes(&log).unwrap();
        let reader = st_store::SegmentReader::from_source(std::sync::Arc::new(
            st_store::BytesSegment::new(image.clone()),
        ))
        .unwrap();
        let dirs = reader.directory();
        let blocks_len: usize = dirs
            .iter()
            .flat_map(|c| &c.blocks)
            .map(|b| b.len as usize)
            .sum();
        let mut damaged = image.to_vec();
        let at = damaged.len() - blocks_len + 2; // inside block 0 of case 0
        damaged[at] ^= 0x08;
        let path = dir.join("damaged.stlog");
        std::fs::write(&path, &damaged).unwrap();
        path
    }

    #[test]
    fn salvage_policy_recovers_what_strict_rejects() {
        let dir = tmpdir("salvage");
        let store = damaged_store(&dir);
        let spec = store.to_str().unwrap();

        // Strict (the default) fails the session.
        let err = Inspector::open(spec).unwrap().session().unwrap_err();
        assert!(matches!(err, Error::Store { .. }), "{err}");

        // Salvage materializes the surviving events, reports each loss
        // as a warning, and keeps the report on the session.
        let full_events = sim::workload_log("ls", false).unwrap().total_events();
        let salvaged = Inspector::open(spec)
            .unwrap()
            .recovery(RecoveryPolicy::Salvage)
            .session()
            .unwrap();
        let report = salvaged.salvage().expect("salvage report");
        assert_eq!(report.losses.len(), 1);
        assert!(salvaged.events_matched() < full_events);
        assert_eq!(salvaged.events_matched() as u64, report.events_recovered);
        assert!(
            salvaged
                .warnings()
                .iter()
                .any(|w| matches!(w, SourceWarning::Store { .. })),
            "{:?}",
            salvaged.warnings()
        );

        // A filtered salvage session pushes the filter down and keeps
        // exactly what a scan of the recovered events keeps.
        let pred = parse_expr("class=read").unwrap();
        let filtered = Inspector::open(spec)
            .unwrap()
            .recovery(RecoveryPolicy::Salvage)
            .filter(pred.clone())
            .session()
            .unwrap();
        assert!(filtered.pushdown().is_some());
        assert_eq!(filtered.salvage().unwrap().losses.len(), 1);
        assert!(filtered.events_matched() > 0);
        assert_eq!(
            filtered.log().cases(),
            st_query::scan(salvaged.log(), &pred).to_event_log().cases()
        );

        // A pristine store under salvage policy: clean report, nothing
        // lost, no warnings.
        let log = sim::workload_log("ls", false).unwrap();
        let clean = dir.join("clean.stlog");
        st_store::write_store(&log, &clean).unwrap();
        let session = Inspector::open(clean.to_str().unwrap())
            .unwrap()
            .recovery(RecoveryPolicy::Salvage)
            .session()
            .unwrap();
        assert!(session.salvage().unwrap().is_clean());
        assert!(session.warnings().is_empty());
        assert_eq!(session.events_matched(), full_events);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deny_warnings_promotes_to_error() {
        let dir = tmpdir("deny");
        // A trace file with one unparsable line: session warns...
        let trace = dir.join("a_h_1.st");
        std::fs::write(
            &trace,
            "garbage\n9 08:00:00.000001 read(3</x>, \"\", 10) = 0 <0.000001>\n",
        )
        .unwrap();
        let ok = Inspector::open(trace.to_str().unwrap())
            .unwrap()
            .session()
            .unwrap();
        assert_eq!(ok.warnings().len(), 1);
        // ...and deny_warnings turns exactly that into a hard error.
        let err = Inspector::open(trace.to_str().unwrap())
            .unwrap()
            .deny_warnings(true)
            .session()
            .unwrap_err();
        assert!(
            matches!(err, Error::WarningsDenied { count: 1, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("denied"), "{err}");

        // Salvage losses are warnings too, so salvage + deny fails on a
        // damaged store while a clean session stays unaffected.
        let store = damaged_store(&dir);
        let err = Inspector::open(store.to_str().unwrap())
            .unwrap()
            .recovery(RecoveryPolicy::Salvage)
            .deny_warnings(true)
            .session()
            .unwrap_err();
        assert!(matches!(err, Error::WarningsDenied { .. }), "{err}");
        let clean = Inspector::open("sim:ls")
            .unwrap()
            .deny_warnings(true)
            .session()
            .unwrap();
        assert!(clean.warnings().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn session_report_records_route_and_counters() {
        // Reports are built even with metrics collection disabled:
        // route notes are always present and the external accounting
        // (PushdownStats, warning totals) fills the counter totals.
        let session = Inspector::open("sim:ls").unwrap().session().unwrap();
        let report = session.report();
        assert_eq!(report.note("route"), Some("sim"));
        assert!(report.note("route.workers").is_some());
        assert!(report.note("route.reason").is_some());
        assert_eq!(report.counter("warnings"), 0);

        let dir = tmpdir("report");
        let log = sim::workload_log("ls", false).unwrap();
        let store = dir.join("ls.stlog");
        st_store::write_store(&log, &store).unwrap();
        let session = Inspector::open(store.to_str().unwrap())
            .unwrap()
            .filter(parse_expr("class=read").unwrap())
            .session()
            .unwrap();
        let report = session.report();
        assert_eq!(report.note("route"), Some("store-pushdown-seek"));
        let stats = session.pushdown().unwrap();
        assert_eq!(report.counter("bytes_read"), stats.bytes_read);
        assert_eq!(report.counter("blocks_pruned"), stats.blocks_pruned as u64);
        assert_eq!(report.counter("events_matched"), stats.events_matched);

        // An explicit single-worker request routes sequential and says
        // so in the plan reason.
        let seq = Inspector::open(store.to_str().unwrap())
            .unwrap()
            .threads(1)
            .session()
            .unwrap();
        assert_eq!(seq.report().note("route.workers"), Some("1"));
        assert!(
            seq.report().note("route.reason").unwrap().contains("seq"),
            "{:?}",
            seq.report().note("route.reason")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refilter_reuses_cache_and_matches_fresh_session() {
        let dir = tmpdir("requery");
        let log = sim::workload_log("ior-ssf-fpp", false).unwrap();
        let store = dir.join("ior.stlog");
        st_store::write_store(&log, &store).unwrap();
        let spec = store.to_str().unwrap();
        let broad = parse_expr("class=read").unwrap();
        let narrow = parse_expr("class=read ok=true").unwrap();

        let session = Inspector::open(spec)
            .unwrap()
            .requery(true)
            .filter(broad)
            .session()
            .unwrap();
        assert!(session.can_refilter());
        let cold = session
            .cache_stats()
            .expect("requery session has cache stats");
        assert!(cold.misses > 0, "{cold:?}");
        assert_eq!(cold.hits, 0, "{cold:?}");
        assert!(cold.bytes > 0, "{cold:?}");

        let refined = session.refilter(narrow.clone()).unwrap();
        let warm = refined.cache_stats().unwrap();
        assert!(
            warm.hits > 0,
            "refinement re-visits cached blocks: {warm:?}"
        );
        assert_eq!(
            refined.pushdown().unwrap().bytes_read,
            0,
            "every admitted block was already decoded — no disk traffic"
        );
        let report = refined.report();
        assert_eq!(report.note("route"), Some("store-requery-seek"));
        assert_eq!(report.counter("cache.hits"), warm.hits);
        assert_eq!(report.counter("cache.misses"), warm.misses);
        assert_eq!(report.counter("cache.bytes"), warm.bytes);
        assert_eq!(
            report.counter("bytes_read"),
            0,
            "report carries the per-refinement disk delta"
        );

        // Observably identical to a fresh session with the same filter.
        let fresh = Inspector::open(spec)
            .unwrap()
            .filter(narrow)
            .session()
            .unwrap();
        assert!(refined.events_matched() > 0);
        assert_eq!(fresh.log().cases(), refined.log().cases());

        // Refinements chain: a further narrowing still works.
        let emptied = refined.refilter(parse_expr("pid=999999").unwrap()).unwrap();
        assert_eq!(emptied.events_matched(), 0);
        assert!(emptied.can_refilter());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refilter_errors_without_requery_state() {
        // Pushdown route without requery(true): no retained state.
        let dir = tmpdir("requery-err");
        let log = sim::workload_log("ls", false).unwrap();
        let store = dir.join("ls.stlog");
        st_store::write_store(&log, &store).unwrap();
        let session = Inspector::open(store.to_str().unwrap())
            .unwrap()
            .session()
            .unwrap();
        assert!(!session.can_refilter());
        let err = session
            .refilter(parse_expr("class=read").unwrap())
            .unwrap_err();
        assert!(matches!(err, Error::RequeryUnavailable { .. }), "{err}");
        assert!(err.to_string().contains("requery"), "{err}");

        // Scan route (sim source): requery is inert, refilter reports why.
        let session = Inspector::open("sim:ls")
            .unwrap()
            .requery(true)
            .session()
            .unwrap();
        let err = session
            .refilter(parse_expr("class=read").unwrap())
            .unwrap_err();
        assert!(matches!(err, Error::RequeryUnavailable { .. }), "{err}");
        assert!(err.to_string().contains("pushdown route"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn filter_expr_surfaces_parse_errors() {
        let err = Inspector::open("sim:ls")
            .unwrap()
            .filter_expr("frob=1")
            .unwrap_err();
        assert!(err.to_string().contains("unknown key"), "{err}");
    }
}
