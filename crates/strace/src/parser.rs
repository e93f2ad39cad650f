//! Whole-file trace parsing: turning a stream of strace lines into the
//! sorted event sequence of one case (Sec. III).
//!
//! # Architecture
//!
//! One sequential assembler and one parallel pipeline:
//!
//! * [`parse_str`] — the sequential assembler, fed the lines of an
//!   in-memory trace. The same owned, line-at-a-time state machine runs
//!   behind [`StreamParser`] (lines pushed by a live service) and behind
//!   the directory loader (lines read from a file one at a time, so a
//!   file's text is never held whole). It interns each string at the
//!   line that completes its call: a complete call at its own line, a
//!   merged `<unfinished ...>`/`resumed` pair at the resumed line.
//! * [`parse_par`] — the chunked parallel pipeline: the input is split
//!   at line boundaries into one byte-range chunk per worker; each
//!   worker parses its chunk into a local event vector (complete calls
//!   only — `<unfinished ...>`/`resumed` records are deferred), interning
//!   into a thread-local [`LocalInterner`] so the shared interner's lock
//!   is never touched from a worker. A sequential merge then replays the
//!   deferred records across chunk boundaries (FIFO per `(pid, name)`,
//!   exactly like the sequential assembler), publishes every
//!   thread-local string table through a single
//!   [`Interner::intern_many`] batch, and k-way merges the per-chunk
//!   event runs by `(start, line)`.
//!
//! # Determinism
//!
//! `parse_par` produces output *identical* to `parse_str` — the same
//! `Event` values including interned [`Symbol`] ids (when both start
//! from interners in the same state), and the same warnings in the same
//! order. Two properties make this work:
//!
//! 1. events are ordered by `(start, completing line)`, which equals the
//!    sequential assembler's sort over completion-ordered events,
//!    regardless of how the input was chunked;
//! 2. strings are published to the shared interner in first-use order of
//!    a walk over complete and merged events in global completing-line
//!    order (syscall name before path) — the order in which the
//!    sequential assembler interns them.
//!
//! Unfinished calls are matched by `(pid, name)` with FIFO queues (O(1)
//! per record). In `parse_par` the pending records borrow argument
//! slices from the input text; the sequential assembler copies them,
//! since its lines need not outlive a read buffer.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead};
use std::sync::Arc;

use st_model::{Event, Interner, LocalInterner, Micros, Pid, Symbol, Syscall};

use crate::error::{Warning, WARNING_CAP};
use crate::record::{parse_line, Line, ParsedCall, ReturnValue};
use crate::scan;

/// The result of parsing one trace file.
#[derive(Debug)]
pub struct ParsedTrace {
    /// Events sorted by start timestamp (Eq. 2).
    pub events: Vec<Event>,
    /// Non-fatal oddities encountered.
    pub warnings: Vec<Warning>,
}

/// Where newly seen strings go during parsing. Parser and loader workers
/// intern locally; [`parse_str`] and [`StreamParser`] intern straight
/// into the shared table.
trait Intern {
    fn intern_str(&mut self, s: &str) -> Symbol;
}

struct SharedIntern<'i>(&'i Interner);

impl Intern for SharedIntern<'_> {
    #[inline]
    fn intern_str(&mut self, s: &str) -> Symbol {
        self.0.intern(s)
    }
}

impl Intern for LocalInterner {
    #[inline]
    fn intern_str(&mut self, s: &str) -> Symbol {
        self.intern(s)
    }
}

/// An `<unfinished ...>` record waiting for its `resumed` counterpart,
/// borrowing its argument slices from the input text.
#[derive(Debug)]
struct Pending<'a> {
    start: Micros,
    args: Vec<&'a str>,
    /// Insertion order, for deterministic never-resumed reporting.
    seq: usize,
}

/// A deferred unfinished/resumed record, replayed in order by the merge
/// phase (possibly across chunk boundaries).
#[derive(Debug)]
enum AsyncRecord<'a> {
    Unfinished {
        pid_key: u32,
        start: Micros,
        name: &'a str,
        args: Vec<&'a str>,
    },
    Resumed {
        line: usize,
        pid: Option<u32>,
        name: &'a str,
        args: Vec<&'a str>,
        ret: ReturnValue<'a>,
        dur: Option<Micros>,
    },
}

/// One chunk's parse output. Lines are chunk-local (1-based) until the
/// caller applies the chunk's global line offset.
struct ChunkParse<'a> {
    /// Complete-call events, in line order, tagged with their line.
    events: Vec<(usize, Event)>,
    /// Warnings raised inside the chunk, in line order (lines local),
    /// capped at [`WARNING_CAP`] exemplars.
    warnings: Vec<Warning>,
    /// Warnings raised beyond the cap and dropped. A non-strace input
    /// raises one warning per line; retaining them all is an OOM
    /// hazard, and the first [`WARNING_CAP`] per chunk are provably a
    /// superset of whatever the final global truncation keeps.
    suppressed: usize,
    /// Deferred unfinished/resumed records, in line order.
    asyncs: Vec<AsyncRecord<'a>>,
    /// Number of lines in the chunk.
    line_count: usize,
}

/// Appends `w`, or counts it as suppressed once the exemplar cap is
/// reached. Callers push in line order, so the retained prefix is the
/// `WARNING_CAP` lowest-line warnings of the stream.
fn push_capped(warnings: &mut Vec<Warning>, suppressed: &mut usize, w: Warning) {
    if warnings.len() < WARNING_CAP {
        warnings.push(w);
    } else {
        *suppressed += 1;
    }
}

/// `parse_par`'s final warning assembly: order by line,
/// truncate to the exemplar cap, and surface the total overflow as one
/// [`Warning::Suppressed`] entry (sorting last by construction).
fn finalize_warnings(mut warnings: Vec<Warning>, mut suppressed: usize) -> Vec<Warning> {
    warnings.sort_by_key(warning_line);
    if warnings.len() > WARNING_CAP {
        suppressed += warnings.len() - WARNING_CAP;
        warnings.truncate(WARNING_CAP);
    }
    if suppressed > 0 {
        warnings.push(Warning::Suppressed { count: suppressed });
    }
    warnings
}

/// Parses every line of `chunk` into `local`, deferring
/// unfinished/resumed records (`parse_par`'s map step).
fn parse_chunk<'a>(chunk: &'a str, local: &mut LocalInterner) -> ChunkParse<'a> {
    let mut out = ChunkParse {
        events: Vec::new(),
        warnings: Vec::new(),
        suppressed: 0,
        asyncs: Vec::new(),
        line_count: 0,
    };
    for (idx, line) in chunk.lines().enumerate() {
        let lineno = idx + 1;
        out.line_count = lineno;
        match parse_line(line) {
            Some(Line::Empty) | Some(Line::Signal) | Some(Line::Exit { .. }) => {}
            Some(Line::Restarted) => {
                push_capped(
                    &mut out.warnings,
                    &mut out.suppressed,
                    Warning::Restarted { line: lineno },
                );
            }
            Some(Line::Unfinished {
                pid,
                start,
                name,
                args,
            }) => {
                out.asyncs.push(AsyncRecord::Unfinished {
                    pid_key: pid.unwrap_or(0),
                    start,
                    name,
                    args,
                });
            }
            Some(Line::Resumed {
                pid,
                name,
                args,
                ret,
                dur,
                ..
            }) => {
                out.asyncs.push(AsyncRecord::Resumed {
                    line: lineno,
                    pid,
                    name,
                    args,
                    ret,
                    dur,
                });
            }
            Some(Line::Call(call)) => {
                if let Some(ev) = call_to_event(&call, local) {
                    out.events.push((lineno, ev));
                }
            }
            None => push_capped(
                &mut out.warnings,
                &mut out.suppressed,
                Warning::UnparsableLine {
                    line: lineno,
                    text: truncate(line, 160),
                },
            ),
        }
    }
    out
}

/// Replays deferred records (in global order) against the keyed FIFO
/// pending table, producing merged events and orphan/never-resumed
/// warnings. `offsets[i]` is the line offset of chunk `i`.
fn merge_asyncs<'a>(
    chunks: &[ChunkParse<'a>],
    offsets: &[usize],
    local: &mut LocalInterner,
) -> (Vec<(usize, Event)>, Vec<Warning>) {
    let mut pending: HashMap<(u32, &'a str), VecDeque<Pending<'a>>> = HashMap::new();
    let mut seq = 0usize;
    let mut events = Vec::new();
    let mut warnings = Vec::new();
    for (chunk, &offset) in chunks.iter().zip(offsets) {
        for record in &chunk.asyncs {
            match record {
                AsyncRecord::Unfinished {
                    pid_key,
                    start,
                    name,
                    args,
                } => {
                    pending
                        .entry((*pid_key, name))
                        .or_default()
                        .push_back(Pending {
                            start: *start,
                            args: args.clone(),
                            seq,
                        });
                    seq += 1;
                }
                AsyncRecord::Resumed {
                    line,
                    pid,
                    name,
                    args,
                    ret,
                    dur,
                } => {
                    let pid_key = pid.unwrap_or(0);
                    let matched = pending
                        .get_mut(&(pid_key, name))
                        .and_then(|queue| queue.pop_front());
                    match matched {
                        Some(p) => {
                            // Merge: prefix args from the unfinished
                            // record, suffix args plus return info from
                            // the resumed one (Sec. III: duration and
                            // transfer size live on the resumed record).
                            let mut merged = p.args;
                            merged.extend(args.iter().copied());
                            let call = ParsedCall {
                                pid: *pid,
                                start: p.start,
                                name,
                                args: merged,
                                ret: *ret,
                                dur: *dur,
                            };
                            if let Some(ev) = call_to_event(&call, local) {
                                events.push((offset + line, ev));
                            }
                        }
                        None => warnings.push(Warning::OrphanResumed {
                            line: offset + line,
                            pid: pid_key,
                        }),
                    }
                }
            }
        }
    }
    // Outstanding unfinished calls never resumed before EOF, in
    // insertion order.
    let mut leftovers: Vec<(usize, u32, &str)> = pending
        .into_iter()
        .flat_map(|((pid, name), queue)| queue.into_iter().map(move |p| (p.seq, pid, name)))
        .collect();
    leftovers.sort_unstable_by_key(|(seq, _, _)| *seq);
    for (_, pid, name) in leftovers {
        warnings.push(Warning::NeverResumed {
            pid,
            call: name.to_string(),
        });
    }
    (events, warnings)
}

/// The sort key reproducing the sequential path's stable sort by start:
/// completion line breaks ties.
#[inline]
fn event_order(entry: &(usize, Event)) -> (Micros, usize) {
    (entry.1.start, entry.0)
}

/// Line number a warning is anchored to, for deterministic ordering
/// (never-resumed warnings sort last, preserving insertion order).
fn warning_line(w: &Warning) -> usize {
    match w {
        Warning::UnparsableLine { line, .. }
        | Warning::OrphanResumed { line, .. }
        | Warning::Restarted { line } => *line,
        Warning::NeverResumed { .. } | Warning::Suppressed { .. } => usize::MAX,
    }
}

fn shift_warning(mut w: Warning, offset: usize) -> Warning {
    match &mut w {
        Warning::UnparsableLine { line, .. }
        | Warning::OrphanResumed { line, .. }
        | Warning::Restarted { line } => *line += offset,
        Warning::NeverResumed { .. } | Warning::Suppressed { .. } => {}
    }
    w
}

/// Parses a whole trace file held in memory, line by line through the
/// sequential assembler.
///
/// ```
/// use st_model::{Interner, Syscall};
/// use st_strace::parse_str;
///
/// let interner = Interner::new_shared();
/// let trace = "100 10:00:00.000001 read(3</usr/lib/libc.so>, \"\\177ELF\"..., 832) = 832 <0.000203>\n";
/// let parsed = parse_str(trace, &interner);
/// assert!(parsed.warnings.is_empty());
/// assert_eq!(parsed.events.len(), 1);
/// let event = &parsed.events[0];
/// assert_eq!(event.call, Syscall::Read);
/// assert_eq!(&*interner.resolve(event.path), "/usr/lib/libc.so");
/// assert_eq!(event.size, Some(832));
/// ```
pub fn parse_str(text: &str, interner: &Interner) -> ParsedTrace {
    let _span = st_obs::span!("strace.parse", bytes = text.len());
    let symbols_before = interner.len();
    let mut state = ReaderState::default();
    let mut sink = SharedIntern(interner);
    for line in text.lines() {
        state.feed(line, &mut sink);
    }
    let parsed = state.finish();
    st_obs::add("events_parsed", parsed.events.len() as u64);
    st_obs::add("symbols_interned", (interner.len() - symbols_before) as u64);
    parsed
}

/// Splits `text` into `n` byte-range chunks cut at line boundaries.
/// Chunks may be empty when the text is short; together they cover the
/// text exactly.
fn split_chunks(text: &str, n: usize) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut chunks = Vec::with_capacity(n);
    let mut start = 0usize;
    for i in 1..=n {
        let end = if i == n {
            bytes.len()
        } else {
            let mut e = ((bytes.len() * i) / n).max(start);
            while e < bytes.len() && bytes[e] != b'\n' {
                e += 1;
            }
            if e < bytes.len() {
                e += 1; // keep the newline with its line
            }
            e
        };
        chunks.push(&text[start..end]);
        start = end;
    }
    chunks
}

/// Worker-local symbols renumbered into one candidate table in
/// first-use order, so the whole table publishes in a single
/// [`Interner::intern_many`] batch.
#[derive(Default)]
struct Candidates<'l> {
    strings: Vec<&'l str>,
    index: HashMap<&'l str, u32>,
}

impl<'l> Candidates<'l> {
    /// Rewrites the symbols of `ev` (which reference `local`) into
    /// candidate ids, the syscall name before the path — the order in
    /// which `call_to_event` interns them. `cache` memoizes per local
    /// symbol.
    fn rewrite(&mut self, ev: &mut Event, local: &'l LocalInterner, cache: &mut [Option<u32>]) {
        if let Syscall::Other(sym) = ev.call {
            ev.call = Syscall::Other(self.candidate(sym, local, cache));
        }
        ev.path = self.candidate(ev.path, local, cache);
    }

    fn candidate(
        &mut self,
        sym: Symbol,
        local: &'l LocalInterner,
        cache: &mut [Option<u32>],
    ) -> Symbol {
        let id = match cache[sym.index()] {
            Some(id) => id,
            None => {
                let s = local.resolve(sym);
                let id = *self.index.entry(s).or_insert_with(|| {
                    self.strings.push(s);
                    (self.strings.len() - 1) as u32
                });
                cache[sym.index()] = Some(id);
                id
            }
        };
        Symbol(id)
    }
}

/// Rewrites the symbols of `ev` through `shared` (old id → new symbol).
fn remap(ev: &mut Event, shared: &[Symbol]) {
    if let Syscall::Other(sym) = ev.call {
        ev.call = Syscall::Other(shared[sym.index()]);
    }
    ev.path = shared[ev.path.index()];
}

/// Parses a whole in-memory trace on `threads` worker threads
/// (`0` = the machine's available parallelism).
///
/// Produces exactly what [`parse_str`] produces — same events (including
/// interned symbol ids, given equal starting interner state) and same
/// warnings in the same order. See the module docs for how chunking,
/// cross-chunk `<unfinished ...>`/`resumed` merging, and deterministic
/// symbol publication fit together.
///
/// ```
/// use st_model::Interner;
/// use st_strace::{parse_par, parse_str};
///
/// let trace = "\
/// 100 10:00:00.000001 read(3</data/a>, \"\", 10) = 10 <0.000002>
/// 100 10:00:00.000009 write(4</data/b>, \"\", 10) = 10 <0.000003>
/// 200 10:00:00.000005 read(3</data/a>, \"\", 10) = 10 <0.000001>
/// ";
/// let sequential = parse_str(trace, &Interner::new_shared());
/// let parallel = parse_par(trace, &Interner::new_shared(), 3);
/// assert_eq!(parallel.events, sequential.events);
/// ```
pub fn parse_par(text: &str, interner: &Interner, threads: usize) -> ParsedTrace {
    let workers = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    if workers <= 1 {
        return parse_str(text, interner);
    }

    let _span = st_obs::span!("strace.parse.par", workers = workers, bytes = text.len());
    let chunks = split_chunks(text, workers);

    // Map: parse chunks in parallel, each into a thread-local interner.
    let obs_cx = st_obs::context();
    let parsed: Vec<(ChunkParse<'_>, LocalInterner, Vec<usize>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let obs_cx = obs_cx.clone();
                scope.spawn(move || {
                    let _obs = obs_cx.attach();
                    let _chunk_span = st_obs::span!("strace.parse.chunk", bytes = chunk.len());
                    let mut local = LocalInterner::new();
                    let parsed = parse_chunk(chunk, &mut local);
                    // Pre-sorted run for the final k-way merge.
                    let mut order: Vec<usize> = (0..parsed.events.len()).collect();
                    order.sort_unstable_by_key(|&i| event_order(&parsed.events[i]));
                    (parsed, local, order)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parser worker panicked"))
            .collect()
    });

    let (mut chunk_parses, locals, orders): (Vec<_>, Vec<_>, Vec<_>) = {
        let mut cps = Vec::with_capacity(parsed.len());
        let mut ls = Vec::with_capacity(parsed.len());
        let mut os = Vec::with_capacity(parsed.len());
        for (cp, l, o) in parsed {
            cps.push(cp);
            ls.push(l);
            os.push(o);
        }
        (cps, ls, os)
    };

    // Global line offsets per chunk.
    let mut offsets = Vec::with_capacity(chunk_parses.len());
    let mut total_lines = 0usize;
    for chunk in &chunk_parses {
        offsets.push(total_lines);
        total_lines += chunk.line_count;
    }

    // Reduce 1: replay deferred unfinished/resumed records across chunk
    // boundaries (FIFO per (pid, name), global order).
    let mut merge_local = LocalInterner::new();
    let (mut merged_events, async_warnings) =
        merge_asyncs(&chunk_parses, &offsets, &mut merge_local);

    // Reduce 2: publish the thread-local string tables to the shared
    // interner with one batched `intern_many` call. Candidates are
    // collected by walking complete and merged events in global line
    // order — the order in which the sequential assembler interns.
    let intern_span = st_obs::span!("strace.intern.merge");
    let mut candidates = Candidates::default();
    let mut merged_cache = vec![None; merge_local.len()];
    let mut next_merged = 0usize;
    for ((chunk, local), &offset) in chunk_parses.iter_mut().zip(&locals).zip(&offsets) {
        let mut cache = vec![None; local.len()];
        for (line, ev) in chunk.events.iter_mut() {
            while let Some((_, merged)) = merged_events
                .get_mut(next_merged)
                .filter(|(merged_line, _)| *merged_line < offset + *line)
            {
                candidates.rewrite(merged, &merge_local, &mut merged_cache);
                next_merged += 1;
            }
            candidates.rewrite(ev, local, &mut cache);
        }
    }
    for (_, merged) in &mut merged_events[next_merged..] {
        candidates.rewrite(merged, &merge_local, &mut merged_cache);
    }
    let shared = interner.intern_many(&candidates.strings);
    st_obs::add("symbols_interned", shared.len() as u64);
    let all_events = chunk_parses.iter_mut().flat_map(|c| c.events.iter_mut());
    for (_, ev) in all_events.chain(merged_events.iter_mut()) {
        remap(ev, &shared);
    }
    drop(intern_span);

    // Reduce 3: k-way merge the pre-sorted per-chunk runs (plus the
    // merged-event run) by (start, global line).
    merged_events.sort_unstable_by_key(event_order);
    let mut runs: Vec<Box<dyn Iterator<Item = (Micros, usize, Event)>>> = Vec::new();
    for ((chunk, order), &offset) in chunk_parses.iter().zip(&orders).zip(&offsets) {
        runs.push(Box::new(order.iter().map(move |&i| {
            let (line, ev) = &chunk.events[i];
            (ev.start, offset + line, *ev)
        })));
    }
    runs.push(Box::new(
        merged_events.iter().map(|&(line, ev)| (ev.start, line, ev)),
    ));
    let events = kway_merge(runs, total_events(&chunk_parses) + merged_events.len());

    // Warnings: per-chunk warnings shifted to global lines, orphan /
    // never-resumed warnings from the merge, ordered by line. Any
    // warning among the first WARNING_CAP globally is among the first
    // WARNING_CAP of its own chunk, so the per-chunk cap loses nothing
    // the global truncation would keep and the output matches
    // `parse_str` exactly.
    let mut warnings = Vec::new();
    let mut suppressed = 0usize;
    for (chunk, &offset) in chunk_parses.iter_mut().zip(&offsets) {
        warnings.extend(chunk.warnings.drain(..).map(|w| shift_warning(w, offset)));
        suppressed += chunk.suppressed;
    }
    warnings.extend(async_warnings);

    st_obs::add("events_parsed", events.len() as u64);
    ParsedTrace {
        events,
        warnings: finalize_warnings(warnings, suppressed),
    }
}

fn total_events(chunks: &[ChunkParse<'_>]) -> usize {
    chunks.iter().map(|c| c.events.len()).sum()
}

/// Merges pre-sorted `(start, line, event)` runs into one event vector.
fn kway_merge(
    runs: Vec<Box<dyn Iterator<Item = (Micros, usize, Event)> + '_>>,
    capacity: usize,
) -> Vec<Event> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut events = Vec::with_capacity(capacity);
    let mut runs = runs;
    let mut heap: BinaryHeap<Reverse<(Micros, usize, usize)>> = BinaryHeap::new();
    let mut heads: Vec<Option<Event>> = Vec::with_capacity(runs.len());
    for (idx, run) in runs.iter_mut().enumerate() {
        match run.next() {
            Some((start, line, ev)) => {
                heap.push(Reverse((start, line, idx)));
                heads.push(Some(ev));
            }
            None => heads.push(None),
        }
    }
    while let Some(Reverse((_, _, idx))) = heap.pop() {
        events.push(heads[idx].take().expect("head present"));
        if let Some((start, line, ev)) = runs[idx].next() {
            heap.push(Reverse((start, line, idx)));
            heads[idx] = Some(ev);
        }
    }
    events
}

/// Parses a trace from `reader` one line at a time into the worker-local
/// table `local` — the loader's per-file route, which never holds more
/// of the file's text than one line. [`publish_local`] then moves the
/// symbols into the shared interner.
pub(crate) fn parse_lines_local<R: BufRead>(
    mut reader: R,
    local: &mut LocalInterner,
) -> io::Result<ParsedTrace> {
    let _span = st_obs::span!("strace.parse");
    let mut state = ReaderState::default();
    let mut buf = String::new();
    while reader.read_line(&mut buf)? > 0 {
        state.feed(strip_line_end(&buf), local);
        buf.clear();
    }
    let parsed = state.finish();
    st_obs::add("events_parsed", parsed.events.len() as u64);
    Ok(parsed)
}

/// Rewrites the symbols of `parsed` (which reference `local`) into
/// `interner`, publishing the whole local table in one
/// [`Interner::intern_many`] batch. `local` numbered its strings in
/// first-use order, the order in which [`parse_str`] interns them, so
/// the result equals `parse_str` over the same lines from the same
/// interner state.
pub(crate) fn publish_local(parsed: &mut ParsedTrace, local: &LocalInterner, interner: &Interner) {
    let _span = st_obs::span!("strace.intern.publish");
    let symbols_before = interner.len();
    let keys: Vec<&str> = (0..local.len() as u32)
        .map(|id| local.resolve(Symbol(id)))
        .collect();
    let shared = interner.intern_many(&keys);
    st_obs::add("symbols_interned", (interner.len() - symbols_before) as u64);
    parsed.events.iter_mut().for_each(|ev| remap(ev, &shared));
}

/// Strips one line terminator exactly as [`str::lines`] does (`\n` or
/// `\r\n`; a bare trailing `\r` stays), so the line-at-a-time routes
/// see the same lines as [`parse_str`].
fn strip_line_end(line: &str) -> &str {
    match line.strip_suffix('\n') {
        Some(line) => line.strip_suffix('\r').unwrap_or(line),
        None => line,
    }
}

/// Incremental line-at-a-time parser for live ingest.
///
/// A long-running service does not own an input loop — lines arrive on
/// sockets, interleaved across connections, and the parser must hand
/// back events *as they complete* so a live DFG can grow between lines.
/// `StreamParser` exposes the sequential assembler behind [`parse_str`]
/// (unfinished/resumed merging, capped warnings, final start-sort)
/// behind a push API:
///
/// ```
/// # use std::sync::Arc;
/// # use st_model::Interner;
/// # use st_strace::StreamParser;
/// let interner = Interner::new_shared();
/// let mut p = StreamParser::new(Arc::clone(&interner));
/// p.feed_line("9054 00:00:00.000100 openat(AT_FDCWD, \"/etc/ld.so.cache\", O_RDONLY) = 3 <0.000012>");
/// assert_eq!(p.poll_events().count(), 1); // completed since last poll
/// let parsed = p.finish(); // start-sorted events + warnings
/// assert_eq!(parsed.events.len(), 1);
/// ```
///
/// Events surfaced by [`StreamParser::poll_events`] are in *completion*
/// order (the order strace emitted them); [`StreamParser::finish`]
/// re-sorts by start time exactly like the batch paths, so the final
/// [`ParsedTrace`] matches [`parse_str`] over the same lines.
pub struct StreamParser {
    interner: Arc<Interner>,
    state: ReaderState,
    polled: usize,
    symbols_before: usize,
}

impl StreamParser {
    /// Starts a parser that interns symbols into `interner`.
    pub fn new(interner: Arc<Interner>) -> StreamParser {
        let symbols_before = interner.len();
        StreamParser {
            interner,
            state: ReaderState::default(),
            polled: 0,
            symbols_before,
        }
    }

    /// Feeds one trace line (one trailing `\n` or `\r\n` is stripped,
    /// as [`str::lines`] does; line numbers for warnings count from 1
    /// in feed order).
    pub fn feed_line(&mut self, line: &str) {
        self.state
            .feed(strip_line_end(line), &mut SharedIntern(&self.interner));
    }

    /// Iterates over events completed since the previous poll, in
    /// completion order. Purely observational — `finish()` returns the
    /// full sorted trace regardless of polling.
    pub fn poll_events(&mut self) -> impl Iterator<Item = &Event> {
        let from = self.polled;
        self.polled = self.state.events.len();
        self.state.events[from..].iter().map(|(_, e)| e)
    }

    /// Lines fed so far.
    pub fn lines_fed(&self) -> usize {
        self.state.lines
    }

    /// Events completed so far (polled or not).
    pub fn events_parsed(&self) -> usize {
        self.state.events.len()
    }

    /// Ends the stream: drains never-resumed calls into warnings and
    /// returns the start-sorted trace, identical to [`parse_str`] over
    /// the same lines and interner.
    pub fn finish(self) -> ParsedTrace {
        let parsed = self.state.finish();
        st_obs::add("events_parsed", parsed.events.len() as u64);
        st_obs::add(
            "symbols_interned",
            (self.interner.len() - self.symbols_before) as u64,
        );
        parsed
    }
}

impl std::fmt::Debug for StreamParser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamParser")
            .field("lines_fed", &self.state.lines)
            .field("events_parsed", &self.state.events.len())
            .finish_non_exhaustive()
    }
}

/// An owned `<unfinished ...>` record waiting for its `resumed`
/// counterpart (lines need not outlive the read buffer, so argument
/// slices are copied).
#[derive(Debug)]
struct OwnedPending {
    start: Micros,
    args: Vec<String>,
    seq: usize,
}

/// The sequential assembler: one line in, at most one event out.
#[derive(Default)]
struct ReaderState {
    /// Lines fed so far; warnings count lines from 1.
    lines: usize,
    /// Completed events tagged with their completing line, in
    /// completion order.
    events: Vec<(usize, Event)>,
    /// Warnings in line order, capped at [`WARNING_CAP`] exemplars —
    /// the stream arrives pre-sorted, so the cap keeps exactly what
    /// `parse_par`'s sort-then-truncate keeps.
    warnings: Vec<Warning>,
    /// Warnings dropped beyond the cap.
    suppressed: usize,
    /// Outstanding unfinished calls, keyed by `(pid, name)` with FIFO
    /// queues — strace resumes a pid's calls in emission order.
    pending: HashMap<(u32, String), VecDeque<OwnedPending>>,
    seq: usize,
}

impl ReaderState {
    /// Assembles one line (terminator already stripped), interning the
    /// strings of the call it completes, if any, into `sink`.
    fn feed<I: Intern>(&mut self, line: &str, sink: &mut I) {
        self.lines += 1;
        let lineno = self.lines;
        match parse_line(line) {
            Some(Line::Empty) | Some(Line::Signal) | Some(Line::Exit { .. }) => {}
            Some(Line::Restarted) => {
                push_capped(
                    &mut self.warnings,
                    &mut self.suppressed,
                    Warning::Restarted { line: lineno },
                );
            }
            Some(Line::Unfinished {
                pid,
                start,
                name,
                args,
            }) => {
                self.pending
                    .entry((pid.unwrap_or(0), name.to_string()))
                    .or_default()
                    .push_back(OwnedPending {
                        start,
                        args: args.iter().map(|s| s.to_string()).collect(),
                        seq: self.seq,
                    });
                self.seq += 1;
            }
            Some(Line::Resumed {
                pid,
                name,
                args,
                ret,
                dur,
                ..
            }) => {
                let pid_key = pid.unwrap_or(0);
                let matched = self
                    .pending
                    .get_mut(&(pid_key, name.to_string()))
                    .and_then(|queue| queue.pop_front());
                match matched {
                    Some(p) => {
                        let mut merged: Vec<&str> = p.args.iter().map(|s| s.as_str()).collect();
                        merged.extend(args.iter().copied());
                        let call = ParsedCall {
                            pid,
                            start: p.start,
                            name,
                            args: merged,
                            ret,
                            dur,
                        };
                        if let Some(ev) = call_to_event(&call, sink) {
                            self.events.push((lineno, ev));
                        }
                    }
                    None => push_capped(
                        &mut self.warnings,
                        &mut self.suppressed,
                        Warning::OrphanResumed {
                            line: lineno,
                            pid: pid_key,
                        },
                    ),
                }
            }
            Some(Line::Call(call)) => {
                if let Some(ev) = call_to_event(&call, sink) {
                    self.events.push((lineno, ev));
                }
            }
            None => push_capped(
                &mut self.warnings,
                &mut self.suppressed,
                Warning::UnparsableLine {
                    line: lineno,
                    text: truncate(line, 160),
                },
            ),
        }
    }

    fn finish(mut self) -> ParsedTrace {
        let mut leftovers: Vec<(usize, u32, String)> = self
            .pending
            .drain()
            .flat_map(|((pid, name), queue)| {
                queue.into_iter().map(move |p| (p.seq, pid, name.clone()))
            })
            .collect();
        leftovers.sort_unstable_by_key(|(seq, _, _)| *seq);
        for (_, pid, call) in leftovers {
            push_capped(
                &mut self.warnings,
                &mut self.suppressed,
                Warning::NeverResumed { pid, call },
            );
        }
        if self.suppressed > 0 {
            self.warnings.push(Warning::Suppressed {
                count: self.suppressed,
            });
        }
        // strace emits records in completion order; merged unfinished
        // records re-enter at their *start* time, so re-sort.
        self.events.sort_unstable_by_key(event_order);
        ParsedTrace {
            events: self.events.into_iter().map(|(_, e)| e).collect(),
            warnings: self.warnings,
        }
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_string()
    } else {
        let mut end = max;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

/// Converts a complete (or merged) call record into an [`Event`].
///
/// Returns `None` only for records that carry no usable timestamp
/// semantics (currently never — unknown calls are kept with interned
/// names so arbitrary `-e` selections survive).
fn call_to_event<I: Intern>(call: &ParsedCall<'_>, sink: &mut I) -> Option<Event> {
    let syscall = Syscall::from_known_name(call.name)
        .unwrap_or_else(|| Syscall::Other(sink.intern_str(call.name)));
    let ok = !call.ret.is_error();

    // File-path resolution (Sec. III item 5): `-y` annotates fd arguments
    // with paths; for open/openat the path is the quoted argument, and on
    // success also annotates the returned descriptor.
    let path: &str = if syscall.is_open_like() {
        call.ret
            .annotation_path()
            .or_else(|| {
                let arg_idx = if syscall == Syscall::Openat { 1 } else { 0 };
                call.args
                    .get(arg_idx)
                    .and_then(|a| scan::quoted_contents(a))
            })
            .unwrap_or("")
    } else {
        // `-y` annotates whichever argument is a descriptor — the first
        // for read/write/lseek, the fifth for mmap, both for dup3; take
        // the first annotated one.
        call.args
            .iter()
            .find_map(|a| scan::fd_annotation_path(a))
            .or_else(|| call.ret.annotation_path())
            .unwrap_or("")
    };

    // Transfer size (Sec. III item 6): return value, read/write variants
    // only.
    let size = if syscall.transfers_data() && ok {
        call.ret.value().filter(|v| *v >= 0).map(|v| v as u64)
    } else {
        None
    };

    // Requested bytes: the count argument. For `p{read,write}64` the
    // count is the second-to-last argument (the last is the offset); for
    // vectored I/O the argument is an iovec count, not bytes, so it is
    // not a byte request.
    let requested = match syscall {
        Syscall::Read | Syscall::Write => call.args.last().and_then(|a| scan::numeric_arg(a)),
        Syscall::Pread64 | Syscall::Pwrite64 => {
            let n = call.args.len();
            call.args
                .get(n.wrapping_sub(2))
                .and_then(|a| scan::numeric_arg(a))
        }
        _ => None,
    };

    // Offset, for calls that carry one.
    let offset = match syscall {
        Syscall::Lseek => {
            if ok {
                call.ret.value().filter(|v| *v >= 0).map(|v| v as u64)
            } else {
                call.args.get(1).and_then(|a| scan::numeric_arg(a))
            }
        }
        Syscall::Pread64 | Syscall::Pwrite64 => call.args.last().and_then(|a| scan::numeric_arg(a)),
        _ => None,
    };

    let mut event = Event::new(
        Pid(call.pid.unwrap_or(0)),
        syscall,
        call.start,
        call.dur.unwrap_or(Micros::ZERO),
        sink.intern_str(path),
    );
    event.size = size;
    event.requested = requested;
    event.offset = offset;
    event.ok = ok;
    Some(event)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG2A: &str = "\
9054  08:55:54.153994 read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, \"...\", 832) = 832 <0.000203>
9054  08:55:54.156640 read(3</usr/lib/x86_64-linux-gnu/libc.so.6>, \"...\", 832) = 832 <0.000079>
9054  08:55:54.159294 read(3</usr/lib/x86_64-linux-gnu/libpcre2-8.so.0.10.4>, \"...\", 832) = 832 <0.000087>
9054  08:55:54.162874 read(3</proc/filesystems>, \"...\", 1024) = 478 <0.000052>
9054  08:55:54.163049 read(3</proc/filesystems>, \"\", 1024) = 0 <0.000040>
9054  08:55:54.163560 read(3</etc/locale.alias>, \"...\", 4096) = 2996 <0.000041>
9054  08:55:54.163679 read(3</etc/locale.alias>, \"\", 4096) = 0 <0.000044>
9054  08:55:54.176260 write(1</dev/pts/7>, \"...\", 50) = 50 <0.000111>
";

    #[test]
    fn parses_fig2a_trace() {
        let i = Interner::new();
        let parsed = parse_str(FIG2A, &i);
        assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
        assert_eq!(parsed.events.len(), 8);
        let snap = i.snapshot();
        let paths: Vec<&str> = parsed.events.iter().map(|e| snap.resolve(e.path)).collect();
        assert_eq!(paths[0], "/usr/lib/x86_64-linux-gnu/libselinux.so.1");
        assert_eq!(paths[7], "/dev/pts/7");
        assert_eq!(parsed.events[0].size, Some(832));
        assert_eq!(parsed.events[0].requested, Some(832));
        assert_eq!(parsed.events[3].size, Some(478));
        assert_eq!(parsed.events[3].requested, Some(1024));
        assert_eq!(parsed.events[4].size, Some(0));
        assert_eq!(parsed.events[7].call, Syscall::Write);
        assert!(parsed.events.windows(2).all(|w| w[0].start <= w[1].start));
        // Total transferred matches the figure: 3x832 + 478 + 0 + 2996 + 0 + 50.
        let total: u64 = parsed.events.iter().filter_map(|e| e.size).sum();
        assert_eq!(total, 3 * 832 + 478 + 2996 + 50);
    }

    #[test]
    fn merges_unfinished_resumed_pair() {
        // Fig. 2c: the unfinished read resumes 229 us later.
        let text = "\
77423  16:56:40.452431 read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, <unfinished ...>
77424  16:56:40.452500 read(4</etc/passwd>, \"...\", 100) = 100 <0.000020>
77423  16:56:40.452660 <... read resumed> \"...\", 405) = 404 <0.000223>
";
        let i = Interner::new();
        let parsed = parse_str(text, &i);
        assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
        assert_eq!(parsed.events.len(), 2);
        // The merged event starts at the unfinished timestamp...
        let merged = parsed.events.iter().find(|e| e.pid == Pid(77423)).unwrap();
        assert_eq!(
            merged.start,
            Micros::parse_time_of_day("16:56:40.452431").unwrap()
        );
        // ...and takes duration/size from the resumed record.
        assert_eq!(merged.dur, Micros(223));
        assert_eq!(merged.size, Some(404));
        assert_eq!(merged.requested, Some(405));
        let snap = i.snapshot();
        assert_eq!(
            snap.resolve(merged.path),
            "/usr/lib/x86_64-linux-gnu/libselinux.so.1"
        );
        // Events re-sorted by start: merged comes first.
        assert_eq!(parsed.events[0].pid, Pid(77423));
    }

    #[test]
    fn stream_parser_matches_parse_str_line_for_line() {
        let text = format!(
            "{}77423  16:56:40.452431 read(3</usr/lib/x>, <unfinished ...>\ngarbage line\n",
            FIG2A
        );
        let reference = parse_str(&text, &Interner::new());
        let mut sp = StreamParser::new(Interner::new_shared());
        let mut polled = 0usize;
        for line in text.lines() {
            sp.feed_line(line);
            polled += sp.poll_events().count();
        }
        assert_eq!(polled, sp.events_parsed());
        assert_eq!(sp.lines_fed(), text.lines().count());
        let streamed = sp.finish();
        assert_eq!(streamed.events, reference.events);
        assert_eq!(streamed.warnings, reference.warnings);
    }

    #[test]
    fn orphan_resumed_is_a_warning() {
        let text = "9  08:00:00.000002 <... read resumed> \"...\", 10) = 10 <0.000001>\n";
        let i = Interner::new();
        let parsed = parse_str(text, &i);
        assert!(parsed.events.is_empty());
        assert_eq!(
            parsed.warnings,
            vec![Warning::OrphanResumed { line: 1, pid: 9 }]
        );
    }

    #[test]
    fn never_resumed_is_a_warning() {
        let text = "9  08:00:00.000002 read(3</x>, <unfinished ...>\n";
        let i = Interner::new();
        let parsed = parse_str(text, &i);
        assert!(parsed.events.is_empty());
        assert_eq!(
            parsed.warnings,
            vec![Warning::NeverResumed {
                pid: 9,
                call: "read".into()
            }]
        );
    }

    #[test]
    fn erestartsys_records_are_dropped_with_warning() {
        let text = "9  08:00:00.000002 read(3</x>, \"\", 10) = ? ERESTARTSYS (To be restarted)\n\
9  08:00:00.000005 read(3</x>, \"\", 10) = 0 <0.000001>\n";
        let i = Interner::new();
        let parsed = parse_str(text, &i);
        assert_eq!(parsed.events.len(), 1);
        assert_eq!(parsed.warnings, vec![Warning::Restarted { line: 1 }]);
    }

    #[test]
    fn garbage_lines_become_warnings() {
        let text = "complete garbage\n9  08:00:00.000005 read(3</x>, \"\", 10) = 0 <0.000001>\n";
        let i = Interner::new();
        let parsed = parse_str(text, &i);
        assert_eq!(parsed.events.len(), 1);
        assert!(matches!(
            parsed.warnings[0],
            Warning::UnparsableLine { line: 1, .. }
        ));
    }

    #[test]
    fn openat_success_and_failure_paths() {
        let text = "\
9 08:00:00.000001 openat(AT_FDCWD, \"/opt/sw/lib/libfoo.so\", O_RDONLY|O_CLOEXEC) = -1 ENOENT (No such file or directory) <0.000006>
9 08:00:00.000010 openat(AT_FDCWD, \"/usr/lib/libfoo.so\", O_RDONLY|O_CLOEXEC) = 3</usr/lib/libfoo.so> <0.000014>
";
        let i = Interner::new();
        let parsed = parse_str(text, &i);
        assert_eq!(parsed.events.len(), 2);
        let snap = i.snapshot();
        assert_eq!(snap.resolve(parsed.events[0].path), "/opt/sw/lib/libfoo.so");
        assert!(!parsed.events[0].ok);
        assert_eq!(parsed.events[0].size, None);
        assert_eq!(snap.resolve(parsed.events[1].path), "/usr/lib/libfoo.so");
        assert!(parsed.events[1].ok);
        assert_eq!(parsed.events[1].size, None); // openat is not a transfer
    }

    #[test]
    fn lseek_offset_and_pwrite_offset() {
        let text = "\
9 08:00:00.000001 lseek(3</scratch/t>, 16777216, SEEK_SET) = 16777216 <0.000002>
9 08:00:00.000010 pwrite64(3</scratch/t>, \"...\"..., 1048576, 33554432) = 1048576 <0.000300>
";
        let i = Interner::new();
        let parsed = parse_str(text, &i);
        assert_eq!(parsed.events[0].offset, Some(16777216));
        assert_eq!(parsed.events[0].size, None);
        assert_eq!(parsed.events[1].offset, Some(33554432));
        assert_eq!(parsed.events[1].requested, Some(1048576));
        assert_eq!(parsed.events[1].size, Some(1048576));
    }

    #[test]
    fn exit_and_signal_lines_are_skipped_silently() {
        let text = "\
9 08:00:00.000001 read(3</x>, \"\", 10) = 0 <0.000001>
9 08:00:00.000002 --- SIGCHLD {si_signo=SIGCHLD} ---
9 08:00:00.000003 +++ exited with 0 +++
";
        let i = Interner::new();
        let parsed = parse_str(text, &i);
        assert_eq!(parsed.events.len(), 1);
        assert!(parsed.warnings.is_empty());
    }

    #[test]
    fn unknown_syscalls_are_kept() {
        let text = "9 08:00:00.000001 statx(AT_FDCWD, \"/x\", 0, STATX_ALL, {stx_mask=4095}) = 0 <0.000002>\n";
        let i = Interner::new();
        let parsed = parse_str(text, &i);
        assert_eq!(parsed.events.len(), 1);
        match parsed.events[0].call {
            Syscall::Other(sym) => assert_eq!(&*i.resolve(sym), "statx"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn split_chunks_cuts_at_line_boundaries_and_covers_text() {
        let text = "line one\nline two\nline three\nline four\n";
        for n in 1..=8 {
            let chunks = split_chunks(text, n);
            assert_eq!(chunks.len(), n);
            assert_eq!(chunks.concat(), text, "n={n}");
            for chunk in &chunks {
                assert!(
                    chunk.is_empty()
                        || chunk.ends_with('\n')
                        || !chunk.contains('\n')
                        || *chunk == &text[text.len() - chunk.len()..]
                );
            }
        }
        // Trailing partial line (no final newline).
        let no_nl = "a\nb\nc";
        for n in 1..=4 {
            assert_eq!(split_chunks(no_nl, n).concat(), no_nl);
        }
        assert_eq!(split_chunks("", 4).concat(), "");
    }

    #[test]
    fn parse_par_matches_parse_str_on_fig2a() {
        for threads in [2, 3, 8, 17] {
            let i1 = Interner::new();
            let i2 = Interner::new();
            let seq = parse_str(FIG2A, &i1);
            let par = parse_par(FIG2A, &i2, threads);
            // Byte-for-byte: same events including symbol ids, because
            // both paths intern in the same canonical order.
            assert_eq!(seq.events, par.events, "threads={threads}");
            assert_eq!(seq.warnings, par.warnings);
        }
    }

    #[test]
    fn parse_par_merges_unfinished_across_chunks() {
        // Enough filler that the unfinished/resumed pair straddles chunk
        // boundaries for every thread count.
        let mut text =
            String::from("7  08:00:00.000001 read(3</straddle/first>, <unfinished ...>\n");
        for k in 0..40 {
            text.push_str(&format!(
                "9  08:00:00.{:06} read(3</filler/f{}>, \"...\", 64) = 64 <0.000002>\n",
                100 + k,
                k % 5
            ));
        }
        text.push_str("7  08:00:00.000500 <... read resumed> \"...\", 405) = 404 <0.000223>\n");
        for threads in [2, 3, 5, 8] {
            let i1 = Interner::new();
            let i2 = Interner::new();
            let seq = parse_str(&text, &i1);
            let par = parse_par(&text, &i2, threads);
            assert_eq!(seq.events, par.events, "threads={threads}");
            assert_eq!(seq.warnings, par.warnings);
            // The merged event exists, starts first, carries resumed data.
            assert_eq!(par.events.len(), 41);
            assert_eq!(par.events[0].pid, Pid(7));
            assert_eq!(par.events[0].size, Some(404));
            let snap = i2.snapshot();
            assert_eq!(snap.resolve(par.events[0].path), "/straddle/first");
        }
    }

    #[test]
    fn parse_par_warning_lines_are_global() {
        let mut text = String::new();
        for k in 0..30 {
            text.push_str(&format!(
                "9  08:00:00.{:06} read(3</f{}>, \"\", 8) = 0 <0.000001>\n",
                k + 1,
                k % 3
            ));
        }
        text.push_str("garbage at line 31\n");
        text.push_str("9  08:00:00.000100 <... write resumed> \"\", 8) = 8 <0.000001>\n");
        text.push_str("9  08:00:00.000200 openat(AT_FDCWD, <unfinished ...>\n");
        for threads in [2, 4, 7] {
            let i = Interner::new();
            let par = parse_par(&text, &i, threads);
            assert_eq!(
                par.warnings,
                vec![
                    Warning::UnparsableLine {
                        line: 31,
                        text: "garbage at line 31".into()
                    },
                    Warning::OrphanResumed { line: 32, pid: 9 },
                    Warning::NeverResumed {
                        pid: 9,
                        call: "openat".into()
                    },
                ],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parse_par_fifo_matching_spans_chunks() {
        // Two outstanding reads for the same pid; sequential semantics
        // match them first-in-first-out even when the pendings sit in
        // different chunks than their resumptions.
        let mut text = String::from("5  08:00:00.000001 read(3</fifo/a>, <unfinished ...>\n");
        for k in 0..20 {
            text.push_str(&format!(
                "9  08:00:00.{:06} write(1</dev/pts/7>, \"...\", 8) = 8 <0.000001>\n",
                100 + k
            ));
        }
        text.push_str("5  08:00:00.000300 read(4</fifo/b>, <unfinished ...>\n");
        for k in 0..20 {
            text.push_str(&format!(
                "9  08:00:00.{:06} write(1</dev/pts/7>, \"...\", 8) = 8 <0.000001>\n",
                400 + k
            ));
        }
        text.push_str("5  08:00:00.000600 <... read resumed> \"...\", 10) = 10 <0.000001>\n");
        text.push_str("5  08:00:00.000700 <... read resumed> \"...\", 20) = 20 <0.000001>\n");
        for threads in [1, 2, 3, 6] {
            let i = Interner::new();
            let parsed = parse_par(&text, &i, threads);
            assert!(
                parsed.warnings.is_empty(),
                "threads={threads}: {:?}",
                parsed.warnings
            );
            let snap = i.snapshot();
            let reads: Vec<(&str, Option<u64>)> = parsed
                .events
                .iter()
                .filter(|e| e.pid == Pid(5))
                .map(|e| (snap.resolve(e.path), e.size))
                .collect();
            // FIFO: the first resumed completes /fifo/a, the second /fifo/b.
            assert_eq!(
                reads,
                vec![("/fifo/a", Some(10)), ("/fifo/b", Some(20))],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parse_par_zero_threads_uses_available_parallelism() {
        let i = Interner::new();
        let parsed = parse_par(FIG2A, &i, 0);
        assert_eq!(parsed.events.len(), 8);
    }

    /// A non-trace input: every line raises a warning; interleave a few
    /// real events so the parse itself still produces output.
    fn flood_text(lines: usize) -> String {
        let mut text = String::new();
        for k in 0..lines {
            if k % 50 == 7 {
                text.push_str(&format!(
                    "9  08:00:00.{:06} read(3</f{}>, \"\", 8) = 0 <0.000001>\n",
                    k + 1,
                    k % 3
                ));
            } else {
                text.push_str(&format!("this is not strace output, line {}\n", k + 1));
            }
        }
        text
    }

    #[test]
    fn warning_flood_is_capped_with_summary() {
        let lines = 1000;
        let i = Interner::new();
        let parsed = parse_str(&flood_text(lines), &i);
        let raised = lines - lines / 50; // every 50th line is a real event
        assert_eq!(parsed.warnings.len(), WARNING_CAP + 1);
        // First WARNING_CAP warnings are the lowest-line exemplars…
        for w in &parsed.warnings[..WARNING_CAP] {
            match w {
                Warning::UnparsableLine { line, .. } => assert!(*line <= WARNING_CAP + 3),
                other => panic!("unexpected {other:?}"),
            }
        }
        // …and the trailer keeps the full count.
        assert_eq!(
            parsed.warnings[WARNING_CAP],
            Warning::Suppressed {
                count: raised - WARNING_CAP
            }
        );
        let rendered = parsed.warnings[WARNING_CAP].to_string();
        assert!(rendered.contains("more warnings suppressed"), "{rendered}");
    }

    #[test]
    fn capped_warnings_are_identical_across_parse_paths() {
        let text = flood_text(700);
        for threads in [2, 3, 8] {
            let i1 = Interner::new();
            let i2 = Interner::new();
            let seq = parse_str(&text, &i1);
            let par = parse_par(&text, &i2, threads);
            assert_eq!(seq.events, par.events, "threads={threads}");
            assert_eq!(seq.warnings, par.warnings, "threads={threads}");
        }
        let seq = parse_str(&text, &Interner::new());
        let mut local = LocalInterner::new();
        let mut streamed = parse_lines_local(text.as_bytes(), &mut local).unwrap();
        publish_local(&mut streamed, &local, &Interner::new());
        assert_eq!(seq.warnings, streamed.warnings);
        assert_eq!(seq.events, streamed.events);
    }

    #[test]
    fn cap_boundary_has_no_spurious_summary() {
        // Exactly WARNING_CAP warnings: all retained, no Suppressed row.
        let mut text = String::new();
        for k in 0..WARNING_CAP {
            text.push_str(&format!("garbage {k}\n"));
        }
        let i = Interner::new();
        let parsed = parse_str(&text, &i);
        assert_eq!(parsed.warnings.len(), WARNING_CAP);
        assert!(!parsed
            .warnings
            .iter()
            .any(|w| matches!(w, Warning::Suppressed { .. })));
        // One past the cap: WARNING_CAP exemplars + a count of 1.
        text.push_str("garbage overflow\n");
        let parsed = parse_str(&text, &Interner::new());
        assert_eq!(parsed.warnings.len(), WARNING_CAP + 1);
        assert_eq!(
            parsed.warnings[WARNING_CAP],
            Warning::Suppressed { count: 1 }
        );
    }
}
