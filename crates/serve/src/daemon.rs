//! The `stinspectd` daemon: concurrent strace ingest over TCP/HTTP,
//! incrementally maintained DFGs, periodic durable sealing into a v2
//! store, and the full st-query filter grammar over HTTP.
//!
//! # Architecture
//!
//! One accept-loop thread, blocked in `accept()`, plus one thread per
//! connection (`std::net`, no async runtime); shutdown wakes the
//! blocked accept with a single self-connect. Each ingest connection
//! streams its POST body line-at-a-time through
//! [`st_strace::StreamParser`] and folds mapped activities into a
//! per-stream [`DfgAccumulator`]; `GET /dfg` merges
//! the per-stream partials by name-aligned vector addition
//! ([`DfgAccumulator::merge`]), so the live graph is a merge, never a
//! rescan.
//!
//! Completed streams are pushed into a shared [`StoreBuilder`] and
//! published with [`StoreBuilder::checkpoint`]: fsync + atomic rename,
//! so a crash or SIGTERM loses at most the unsealed tail and never
//! corrupts the container. `GET /query` opens the published container
//! through the session layer (`live:` route) with re-query enabled, so
//! consecutive filters at the same checkpoint generation ride the
//! decoded-block cache instead of rescanning.
//!
//! # Endpoints
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /ingest/<cid>_<host>_<rid>.st` | stream one strace trace (chunked or `Content-Length`) |
//! | `GET /query?filter=EXPR&emit=events\|stats\|dfg` | filtered view of the sealed store (CLI-identical bodies) |
//! | `GET /stats?filter=EXPR` | `emit=stats` shorthand |
//! | `GET /dfg` | live DFG over *all* ingested events (sealed + in-flight) |
//! | `GET /tail?since=N&timeout_ms=T` | long-poll the live event feed (TSV rows) |
//! | `GET /metrics` | `PipelineReport` JSON since daemon start |
//! | `GET /status` | one-line liveness summary |
//! | `POST /shutdown` | graceful drain: seal everything, finish the store |

use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use st_core::mapping::{CallTopDirs, MapCtx, Mapping};
use st_core::render::{render_dot_plain, render_events_tsv, render_stats_text};
use st_core::DfgAccumulator;
use st_model::{CaseMeta, Event, Interner, InternerSnapshot};
use st_source::{Inspector, Session, TraceSource};
use st_store::{ColumnSet, StoreBuilder};
use st_strace::StreamParser;

use crate::http::{read_request, write_response, Body, Request};

/// Tuning knobs for one daemon instance. Start from
/// [`ServeConfig::new`] and override fields as needed.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Target path of the sealed v2 container.
    pub store_path: PathBuf,
    /// Concurrent-connection cap; connections past it are answered
    /// `503` and counted in `serve.conns_rejected`.
    pub max_conns: usize,
    /// Events per store block (the pushdown pruning granule).
    pub block_events: usize,
    /// Publish a checkpoint after this many completed streams.
    pub checkpoint_cases: usize,
    /// Per-connection ingest cap; a stream exceeding it is answered
    /// `413` and discarded (backpressure, not silent truncation).
    pub max_stream_events: usize,
    /// Ring-buffer capacity of the `/tail` feed, in events.
    pub tail_capacity: usize,
    /// Socket read/write timeout, so dead peers release their slot.
    pub io_timeout_ms: u64,
    /// Whether SIGTERM/SIGINT also shut the daemon down, via a watcher
    /// thread off the request path (used by the CLI; tests drive
    /// shutdown through the API or `POST /shutdown`).
    pub handle_signals: bool,
    /// Enable st-obs at startup so `/metrics` has data. If collection
    /// was off, the daemon turns it on for aggregates only, with no
    /// span timeline ([`st_obs::set_timeline`]).
    pub metrics: bool,
}

impl ServeConfig {
    /// Defaults: loopback ephemeral port, 32-connection cap, default
    /// block size, checkpoint after every completed stream.
    pub fn new(store_path: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            store_path: store_path.into(),
            max_conns: 32,
            block_events: st_store::DEFAULT_BLOCK_EVENTS,
            checkpoint_cases: 1,
            max_stream_events: 8_000_000,
            tail_capacity: 1024,
            io_timeout_ms: 30_000,
            handle_signals: false,
            metrics: true,
        }
    }
}

/// SIGTERM/SIGINT → shutdown-flag binding, kept minimal: no `libc`
/// crate, just the two constants and glibc's `signal(2)` wrapper.
#[cfg(unix)]
pub mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by the handler; polled by the signal-watcher thread of
    /// daemons started with
    /// [`ServeConfig::handle_signals`](super::ServeConfig::handle_signals).
    pub static TRIGGERED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_sig: i32) {
        // Only async-signal-safe work here: one atomic store.
        TRIGGERED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Routes SIGTERM and SIGINT to the [`TRIGGERED`] flag.
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

/// Sealing state: the store builder plus checkpoint bookkeeping.
struct Sealer {
    builder: Option<StoreBuilder>,
    cases_since_checkpoint: usize,
    cases_sealed: u64,
}

/// Live (not-yet-rescanned) DFG state: the merged accumulator of all
/// completed streams plus a registry of per-stream partials still
/// being fed by their connections.
struct LiveDfg {
    sealed: DfgAccumulator,
    open: Vec<Arc<Mutex<DfgAccumulator>>>,
}

/// The `/tail` ring: monotonically numbered rendered event rows.
struct Tail {
    next_seq: u64,
    lines: VecDeque<(u64, String)>,
}

/// One cached warm-query session, valid for a single checkpoint
/// generation (a checkpoint replaces the container inode, so the
/// session's open handles go stale the moment generation bumps).
struct CachedQuery {
    generation: u64,
    session: Session,
}

struct Shared {
    config: ServeConfig,
    /// The bound listener address; [`request_shutdown`] connects here.
    addr: SocketAddr,
    interner: Arc<Interner>,
    shutdown: AtomicBool,
    active_conns: AtomicUsize,
    conns_rejected: AtomicU64,
    streams_sealed: AtomicU64,
    events_ingested: AtomicU64,
    /// Number of published container images (checkpoints + final seal).
    generation: AtomicU64,
    sealer: Mutex<Sealer>,
    live: Mutex<LiveDfg>,
    tail: Mutex<Tail>,
    tail_cv: Condvar,
    query: Mutex<Option<CachedQuery>>,
    finish_error: Mutex<Option<String>>,
    mark: st_obs::Mark,
}

/// A running daemon. Dropping the handle shuts the daemon down and
/// seals the store; prefer an explicit [`Handle::shutdown`] +
/// [`Handle::join`] to observe errors.
pub struct Handle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    /// The signal watcher, when [`ServeConfig::handle_signals`] is set.
    signals: Option<JoinHandle<()>>,
}

impl Handle {
    /// The bound socket address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.shared.addr.port()
    }

    /// Requests shutdown: the accept loop stops taking connections,
    /// drains in-flight ones, then seals and finishes the store.
    /// Returns immediately; [`Handle::join`] observes completion.
    pub fn shutdown(&self) {
        request_shutdown(&self.shared);
    }

    /// Waits for the daemon to exit (after [`Handle::shutdown`],
    /// `POST /shutdown`, or a handled signal) and surfaces any error
    /// from the final store seal.
    pub fn join(mut self) -> std::io::Result<()> {
        if let Some(h) = self.accept.take() {
            h.join()
                .map_err(|_| std::io::Error::other("accept thread panicked"))?;
        }
        if let Some(h) = self.signals.take() {
            h.join()
                .map_err(|_| std::io::Error::other("signal watcher panicked"))?;
        }
        match self.shared.finish_error.lock().expect("lock").take() {
            Some(msg) => Err(std::io::Error::other(msg)),
            None => Ok(()),
        }
    }
}

impl Drop for Handle {
    fn drop(&mut self) {
        if let Some(h) = self.accept.take() {
            request_shutdown(&self.shared);
            let _ = h.join();
        }
        if let Some(h) = self.signals.take() {
            let _ = h.join();
        }
    }
}

/// Namespace for starting the service (see [`Daemon::start`]).
pub struct Daemon;

impl Daemon {
    /// Binds `config.addr` and spawns the accept loop. Returns once the
    /// socket is listening; the [`Handle`] controls the daemon's life.
    pub fn start(config: ServeConfig) -> std::io::Result<Handle> {
        if config.metrics && !st_obs::enabled() {
            // `/metrics` reads aggregates only: without a caller that
            // collects a timeline, the daemon keeps none, which would
            // otherwise grow to `MAX_EVENTS` span events over its life.
            st_obs::set_timeline(false);
            st_obs::set_enabled(true);
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let interner = Arc::new(Interner::new());
        let builder =
            StoreBuilder::create_blocked(&config.store_path, interner.clone(), config.block_events)
                .map_err(|e| std::io::Error::other(format!("store builder: {e}")))?;
        let tail_capacity = config.tail_capacity;
        let shared = Arc::new(Shared {
            config,
            addr,
            interner,
            shutdown: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            conns_rejected: AtomicU64::new(0),
            streams_sealed: AtomicU64::new(0),
            events_ingested: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            sealer: Mutex::new(Sealer {
                builder: Some(builder),
                cases_since_checkpoint: 0,
                cases_sealed: 0,
            }),
            live: Mutex::new(LiveDfg {
                sealed: DfgAccumulator::new(),
                open: Vec::new(),
            }),
            tail: Mutex::new(Tail {
                next_seq: 0,
                lines: VecDeque::with_capacity(tail_capacity),
            }),
            tail_cv: Condvar::new(),
            query: Mutex::new(None),
            finish_error: Mutex::new(None),
            mark: st_obs::mark(),
        });
        let accept_shared = shared.clone();
        let accept = std::thread::Builder::new()
            .name("st-serve-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;
        #[allow(unused_mut)] // only unix has a signal watcher
        let mut handle = Handle {
            shared,
            accept: Some(accept),
            signals: None,
        };
        #[cfg(unix)]
        if handle.shared.config.handle_signals {
            let watch_shared = handle.shared.clone();
            // On failure, dropping `handle` shuts the daemon down again.
            handle.signals = Some(
                std::thread::Builder::new()
                    .name("st-serve-signals".to_string())
                    .spawn(move || watch_signals(&watch_shared))?,
            );
        }
        Ok(handle)
    }
}

/// Requests shutdown: sets the flag, wakes `/tail` long-polls, and
/// wakes the accept loop out of its blocking `accept()` by connecting
/// to the listener once (loopback when bound to an unspecified IP).
/// The accept loop drops that connection unanswered. Only the first
/// request connects; later ones find the flag already set.
fn request_shutdown(shared: &Shared) {
    let already = shared.shutdown.swap(true, Ordering::SeqCst);
    shared.tail_cv.notify_all();
    if already {
        return;
    }
    let mut wake = shared.addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(5));
}

/// Turns a caught SIGTERM/SIGINT into [`request_shutdown`]. Runs on
/// its own thread so signal latency never sits on the request path;
/// exits once the daemon is shutting down for any reason.
#[cfg(unix)]
fn watch_signals(shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        if sig::TRIGGERED.load(Ordering::SeqCst) {
            request_shutdown(shared);
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Decrements the active-connection gauge when a worker exits, even on
/// a panicking request handler.
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.active_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    // The `serve` span stays open for the daemon's lifetime; its
    // context is attached by every connection thread so their spans
    // and counters attribute under `serve/...`.
    let serve_span = st_obs::span("serve");
    let ctx = st_obs::context();
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    for accepted in listener.incoming() {
        // Whatever arrives after shutdown was requested — the wake-up
        // self-connect, or a client racing the drain — is dropped
        // unanswered.
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match accepted {
            Ok(stream) => stream,
            Err(e) => {
                // A peer that reset before we took it, or an interrupted
                // call, is retried at once. Anything else (fd or buffer
                // exhaustion) persists until a connection closes, so
                // back off rather than spin on it.
                if !matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionAborted
                        | std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::Interrupted
                ) {
                    std::thread::sleep(Duration::from_millis(10));
                }
                continue;
            }
        };
        if shared.active_conns.load(Ordering::SeqCst) >= shared.config.max_conns {
            reject_over_cap(&shared, stream);
        } else {
            shared.active_conns.fetch_add(1, Ordering::SeqCst);
            let conn_shared = shared.clone();
            let conn_ctx = ctx.clone();
            let worker = std::thread::Builder::new()
                .name("st-serve-conn".to_string())
                .spawn(move || {
                    let _guard = ConnGuard(conn_shared.clone());
                    let _attached = conn_ctx.attach();
                    handle_connection(&conn_shared, stream);
                });
            match worker {
                Ok(h) => workers.push(h),
                Err(_) => {
                    // Spawn failure: the guard never ran, release
                    // the slot and drop the connection.
                    shared.active_conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
            workers.retain(|h| !h.is_finished());
        }
        // Between connections this long-lived thread is quiescent:
        // publish its counters (`serve.conns_rejected` among them) so
        // `/metrics` is current without waiting for shutdown.
        st_obs::flush_current_thread();
    }
    // Drain in-flight connections, then seal the container for good.
    for h in workers {
        let _ = h.join();
    }
    drop(serve_span);
    let mut sealer = shared.sealer.lock().expect("sealer lock");
    if let Some(builder) = sealer.builder.take() {
        match builder.finish() {
            Ok(_) => {
                shared.generation.fetch_add(1, Ordering::SeqCst);
            }
            Err(e) => {
                *shared.finish_error.lock().expect("lock") = Some(format!("store finish: {e}"));
            }
        }
    }
    drop(sealer);
    st_obs::flush_current_thread();
    shared.tail_cv.notify_all();
}

/// Answers a connection past `max_conns` with `503` on the accept
/// thread and counts it.
fn reject_over_cap(shared: &Shared, mut stream: TcpStream) {
    shared.conns_rejected.fetch_add(1, Ordering::SeqCst);
    st_obs::add("serve.conns_rejected", 1);
    let _ = write_response(
        &mut stream,
        503,
        "text/plain",
        &[],
        b"connection limit reached, retry later\n",
    );
    // Drain whatever request bytes the peer already sent before
    // closing: unread data at close turns the FIN into an RST and the
    // peer may never see the 503.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut scratch = [0u8; 1024];
    while matches!(std::io::Read::read(&mut stream, &mut scratch), Ok(n) if n > 0) {}
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _span = st_obs::span("serve.conn");
    let timeout = Duration::from_millis(shared.config.io_timeout_ms.max(1));
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let req = match read_request(&mut reader) {
        Ok(Some(r)) => r,
        Ok(None) => return,
        Err(e) => {
            respond_text(&mut writer, 400, &format!("bad request: {e}\n"));
            return;
        }
    };
    st_obs::add("serve.requests", 1);
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", path) if path.starts_with("/ingest/") => {
            handle_ingest(shared, &req, &mut reader, &mut writer);
        }
        ("GET", "/query") => {
            let emit = req.query_param("emit").unwrap_or("events");
            respond_query(shared, &req, emit, &mut writer);
        }
        ("GET", "/stats") => respond_query(shared, &req, "stats", &mut writer),
        ("GET", "/dfg") => {
            let body = render_live_dfg(shared);
            let _ = write_response(&mut writer, 200, "text/vnd.graphviz", &[], body.as_bytes());
        }
        ("GET", "/tail") => handle_tail(shared, &req, &mut writer),
        ("GET", "/metrics") => {
            let mut report = st_obs::report_since(&shared.mark);
            report.set_note("service", "stinspectd");
            report.set_note(
                "generation",
                shared.generation.load(Ordering::SeqCst).to_string(),
            );
            let body = report.render_json();
            let _ = write_response(&mut writer, 200, "application/json", &[], body.as_bytes());
        }
        ("GET", "/status") => {
            let body = format!(
                "ok streams_sealed={} events_ingested={} conns_active={} conns_rejected={} generation={}\n",
                shared.streams_sealed.load(Ordering::SeqCst),
                shared.events_ingested.load(Ordering::SeqCst),
                shared.active_conns.load(Ordering::SeqCst),
                shared.conns_rejected.load(Ordering::SeqCst),
                shared.generation.load(Ordering::SeqCst),
            );
            respond_text(&mut writer, 200, &body);
        }
        ("POST", "/shutdown") => {
            respond_text(&mut writer, 200, "shutting down\n");
            request_shutdown(shared);
        }
        (_, "/query" | "/stats" | "/dfg" | "/tail" | "/metrics" | "/status" | "/shutdown") => {
            respond_text(&mut writer, 405, "method not allowed\n");
        }
        _ => respond_text(&mut writer, 404, "no such route\n"),
    }
}

fn respond_text(writer: &mut TcpStream, status: u16, body: &str) {
    let _ = write_response(writer, status, "text/plain", &[], body.as_bytes());
}

/// Renders one live event as the same TSV row `--emit events` uses, so
/// `/tail` output lines up with `/query?emit=events` bodies.
fn tail_line(meta: &CaseMeta, e: &Event, snap: &InternerSnapshot) -> String {
    let call = match e.call {
        st_model::Syscall::Other(sym) => snap.resolve(sym).to_string(),
        named => named.static_name().unwrap_or("?").to_string(),
    };
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        snap.resolve(meta.cid),
        snap.resolve(meta.host),
        meta.rid,
        e.pid,
        call,
        e.start.format_time_of_day(),
        e.dur.format_duration(),
        snap.resolve(e.path),
        e.size
            .map(|s| s.to_string())
            .unwrap_or_else(|| "-".to_string()),
        e.ok,
    )
}

fn handle_ingest(
    shared: &Arc<Shared>,
    req: &Request,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
) {
    let _span = st_obs::span("serve.ingest");
    let name = &req.path["/ingest/".len()..];
    let Some(meta) = CaseMeta::parse_trace_file_name(name, &shared.interner) else {
        respond_text(
            writer,
            400,
            "ingest path must be /ingest/<cid>_<host>_<rid>.st\n",
        );
        return;
    };
    if req.content_length().is_none() && !req.is_chunked() {
        respond_text(
            writer,
            400,
            "ingest needs a Content-Length or chunked body\n",
        );
        return;
    }

    // Register this stream's DFG partial so /dfg can merge it while
    // the connection is still feeding lines.
    let acc = Arc::new(Mutex::new(DfgAccumulator::new()));
    shared
        .live
        .lock()
        .expect("live lock")
        .open
        .push(acc.clone());
    let deregister = |drop_partial: bool| {
        let mut live = shared.live.lock().expect("live lock");
        if !drop_partial {
            let sealed_ref = acc.lock().expect("acc lock");
            live.sealed.merge(&sealed_ref);
        }
        live.open.retain(|a| !Arc::ptr_eq(a, &acc));
    };

    let mapping = CallTopDirs::new(2);
    let mut parser = StreamParser::new(shared.interner.clone());
    let mut body = BufReader::new(Body::for_request(req, reader));
    let mut line = String::new();
    let mut batch_budget = 0usize;
    loop {
        line.clear();
        let n = match body.read_line(&mut line) {
            Ok(n) => n,
            Err(e) => {
                deregister(true);
                respond_text(writer, 400, &format!("ingest read failed: {e}\n"));
                return;
            }
        };
        if n == 0 {
            break;
        }
        parser.feed_line(&line);
        batch_budget += 1;
        if batch_budget >= 256 {
            batch_budget = 0;
            drain_new_events(shared, &meta, &mut parser, &acc, &mapping);
            if parser.events_parsed() > shared.config.max_stream_events {
                deregister(true);
                respond_text(writer, 413, "stream exceeds max_stream_events\n");
                return;
            }
        }
    }
    drain_new_events(shared, &meta, &mut parser, &acc, &mapping);
    let lines_fed = parser.lines_fed();
    let parsed = parser.finish();
    acc.lock().expect("acc lock").close_trace();
    deregister(false);

    // Seal: append the completed, start-sorted case and (by default)
    // publish a checkpoint so the data is durable and queryable.
    let seal_result = {
        let mut sealer = shared.sealer.lock().expect("sealer lock");
        match sealer.builder.as_mut() {
            None => Err("daemon is shutting down".to_string()),
            Some(builder) => builder
                .push_case(meta, &parsed.events)
                .map_err(|e| e.to_string())
                .and_then(|()| {
                    sealer.cases_since_checkpoint += 1;
                    sealer.cases_sealed += 1;
                    if sealer.cases_since_checkpoint >= shared.config.checkpoint_cases {
                        let builder = sealer.builder.as_mut().expect("builder present");
                        builder.checkpoint().map_err(|e| e.to_string())?;
                        sealer.cases_since_checkpoint = 0;
                        shared.generation.fetch_add(1, Ordering::SeqCst);
                        st_obs::add("serve.checkpoints", 1);
                    }
                    Ok(())
                }),
        }
    };
    match seal_result {
        Ok(()) => {
            // Count only seals that reached a published checkpoint (or
            // are pending the next one), so `/status` never reports a
            // stream that failed to seal.
            shared.streams_sealed.fetch_add(1, Ordering::SeqCst);
            st_obs::add("serve.streams_sealed", 1);
            let body = format!(
                "ingested {} events ({} warnings) from {} lines\n",
                parsed.events.len(),
                parsed.warnings.len(),
                lines_fed,
            );
            respond_text(writer, 200, &body);
        }
        Err(e) => respond_text(writer, 500, &format!("seal failed: {e}\n")),
    }
}

/// Folds newly parsed events into the stream's DFG partial and the
/// `/tail` ring. One interner snapshot per batch.
fn drain_new_events(
    shared: &Arc<Shared>,
    meta: &CaseMeta,
    parser: &mut StreamParser,
    acc: &Arc<Mutex<DfgAccumulator>>,
    mapping: &CallTopDirs,
) {
    let snap = shared.interner.snapshot();
    let ctx = MapCtx { snapshot: &snap };
    let mut activity = String::new();
    let mut tail_lines: Vec<String> = Vec::new();
    let mut count = 0u64;
    {
        let mut acc = acc.lock().expect("acc lock");
        for e in parser.poll_events() {
            count += 1;
            if mapping.write_activity(&ctx, meta, e, &mut activity) {
                acc.observe(&activity);
            }
            tail_lines.push(tail_line(meta, e, &snap));
        }
    }
    if count == 0 {
        return;
    }
    shared.events_ingested.fetch_add(count, Ordering::SeqCst);
    st_obs::add("serve.events_ingested", count);
    let mut tail = shared.tail.lock().expect("tail lock");
    for l in tail_lines {
        let seq = tail.next_seq;
        tail.next_seq += 1;
        tail.lines.push_back((seq, l));
        while tail.lines.len() > shared.config.tail_capacity {
            tail.lines.pop_front();
        }
    }
    drop(tail);
    shared.tail_cv.notify_all();
}

/// Merges the sealed accumulator with every in-flight stream partial
/// and renders the result — vector addition, never a rescan.
fn render_live_dfg(shared: &Arc<Shared>) -> String {
    let _span = st_obs::span("serve.dfg");
    let live = shared.live.lock().expect("live lock");
    let mut total = DfgAccumulator::new();
    total.merge(&live.sealed);
    for stream in &live.open {
        total.merge(&stream.lock().expect("acc lock"));
    }
    drop(live);
    render_dot_plain(&total.to_dfg())
}

/// The event columns the query projections read — identical to the
/// CLI's `analysis_columns` so response bodies match byte-for-byte.
fn analysis_columns() -> ColumnSet {
    ColumnSet::ALL.without(ColumnSet::REQUESTED | ColumnSet::OFFSET)
}

fn fresh_session(
    shared: &Arc<Shared>,
    pred: Option<st_query::Predicate>,
) -> Result<Session, (u16, String)> {
    let mut inspector = Inspector::from_source(TraceSource::Live(shared.config.store_path.clone()))
        .map_boxed(Box::new(CallTopDirs::new(2)))
        .columns(analysis_columns())
        .requery(true);
    if let Some(p) = pred {
        inspector = inspector.filter(p);
    }
    inspector
        .session()
        .map_err(|e| (500, format!("session: {e}\n")))
}

fn respond_query(shared: &Arc<Shared>, req: &Request, emit: &str, writer: &mut TcpStream) {
    let _span = st_obs::span("serve.query");
    st_obs::add("serve.queries", 1);
    let filter = req.query_param("filter");
    let pred = match filter {
        Some(expr) => match st_query::parse_expr(expr) {
            Ok(p) => Some(p),
            Err(e) => {
                respond_text(writer, 400, &format!("filter: {e}\n"));
                return;
            }
        },
        None => None,
    };
    let generation = shared.generation.load(Ordering::SeqCst);
    // Warm path: at an unchanged checkpoint generation, re-filter the
    // cached session through its decoded-block cache instead of
    // reopening and rescanning the container.
    let mut cache = shared.query.lock().expect("query lock");
    let cached = cache.take();
    let session = match (cached, &pred) {
        (Some(c), Some(p)) if c.generation == generation && c.session.can_refilter() => {
            match c.session.refilter(p.clone()) {
                Ok(s) => Ok(s),
                Err(_) => fresh_session(shared, pred.clone()),
            }
        }
        _ => fresh_session(shared, pred.clone()),
    };
    let session = match session {
        Ok(s) => s,
        Err((status, msg)) => {
            drop(cache);
            respond_text(writer, status, &msg);
            return;
        }
    };
    let (body, content_type) = match emit {
        "events" => {
            let snap = session.log().snapshot();
            (
                render_events_tsv(&session.view(), &snap),
                "text/tab-separated-values",
            )
        }
        "stats" => {
            let mapped = session.mapped();
            (render_stats_text(&mapped, &session.view()), "text/plain")
        }
        "dfg" => {
            let mapped = session.mapped();
            (
                st_core::render::render_dfg_dot(&mapped, &session.view()),
                "text/vnd.graphviz",
            )
        }
        other => {
            drop(cache);
            respond_text(
                writer,
                400,
                &format!("emit must be events|stats|dfg, got {other}\n"),
            );
            return;
        }
    };
    *cache = Some(CachedQuery {
        generation,
        session,
    });
    drop(cache);
    let _ = write_response(writer, 200, content_type, &[], body.as_bytes());
}

fn handle_tail(shared: &Arc<Shared>, req: &Request, writer: &mut TcpStream) {
    let _span = st_obs::span("serve.tail");
    let since: u64 = req
        .query_param("since")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let timeout_ms: u64 = req
        .query_param("timeout_ms")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000)
        .min(30_000);
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    let mut tail = shared.tail.lock().expect("tail lock");
    let (body, next) = loop {
        if tail.next_seq > since {
            let mut body = String::new();
            for (seq, line) in &tail.lines {
                if *seq >= since {
                    body.push_str(line);
                    body.push('\n');
                }
            }
            break (body, tail.next_seq);
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break (String::new(), tail.next_seq);
        }
        let now = Instant::now();
        if now >= deadline {
            break (String::new(), tail.next_seq);
        }
        let (guard, _timeout) = shared
            .tail_cv
            .wait_timeout(tail, deadline - now)
            .expect("tail wait");
        tail = guard;
    };
    drop(tail);
    let next = next.to_string();
    let _ = write_response(
        writer,
        200,
        "text/tab-separated-values",
        &[("x-st-next", &next)],
        body.as_bytes(),
    );
}
