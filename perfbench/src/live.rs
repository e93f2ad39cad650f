//! `live`: `stinspectd` started in-process on loopback with the default
//! `ServeConfig`. One generator thread POSTs ~200 IOR strace streams
//! back to back, one connection at a time (closed loop; the daemon
//! serves one request per connection). A second thread sends
//! `/query?…&emit=stats` and `/dfg` on an open-loop schedule at a fixed
//! rate and times each request from when it was due. When ingest ends,
//! a read-only stepped sweep over fixed rates finds the highest rate
//! whose tail meets the limit without a growing backlog.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use st_core::render::render_stats_text;
use st_core::CallTopDirs;
use st_ior::Api;
use st_query::parse_expr;
use st_serve::{Daemon, ServeConfig};
use st_sim::TraceFilter;
use st_source::Inspector;

use crate::report::Metrics;
use crate::stats::{mean, median, ms, open_loop_sample, schedule_gap, tail, OpenLoopSample};
use crate::trace::{self, span};
use crate::{analysis_columns, enable_tracing, ior_log, Checks, Ctx, Outcome, SplitMix};

/// Query rate while ingest runs (requests per second).
const INGEST_PHASE_HZ: f64 = 20.0;

/// Ingest rounds, each on a fresh daemon: ingest is bound by the accept
/// poll to ~5 s a round, and two rounds give the reads beside it enough
/// samples for a steady mean.
const ROUNDS: u64 = 2;

/// Share of `--seconds` the read-only sweep takes.
const SWEEP_SHARE: f64 = 0.4;

/// Shortest sweep step: enough for 25 requests at the lowest rate, so
/// every step has a tail.
const SWEEP_STEP_MIN_S: f64 = 2.5;

/// Read-only sweep rates, lowest first.
const SWEEP_HZ: [f64; 4] = [10.0, 20.0, 40.0, 80.0];

/// A sweep step passes when its tail latency stays within this limit.
const TAIL_LIMIT_MS: f64 = 50.0;

/// Filters the query generator rotates through; `/dfg` requests
/// alternate with them.
const FILTERS: [&str; 3] = [
    "class=write",
    "cid=s class=read",
    "path~\"/p/scratch/*\" size>=1m",
];

pub struct Input {
    /// `(file name, strace text, events in the stream)`.
    streams: Vec<(String, Vec<u8>, usize)>,
    lines: u64,
    events: usize,
}

pub fn setup(ctx: &Ctx) -> Input {
    // The paper's own scale (`-s 3`): ~400 strace lines per stream.
    let log = ior_log(
        ctx.seed,
        &TraceFilter::experiment_a(),
        &[("s", false, Api::Posix), ("f", true, Api::Posix)],
        3,
    );
    let interner = log.interner().clone();
    let streams: Vec<(String, Vec<u8>, usize)> = log
        .cases()
        .iter()
        .map(|case| {
            let mut text = Vec::new();
            st_strace::write_case(case, &interner, &mut text, &Default::default())
                .expect("render strace text");
            (
                case.meta.trace_file_name(&interner),
                text,
                case.events.len(),
            )
        })
        .collect();
    let lines = streams
        .iter()
        .map(|(_, t, _)| t.iter().filter(|&&b| b == b'\n').count() as u64)
        .sum();
    Input {
        streams,
        lines,
        events: log.total_events(),
    }
}

/// One HTTP exchange as the client saw it.
struct Exchange {
    status: u16,
    body: Vec<u8>,
    connect: Duration,
    /// From the request being written to the first response byte.
    ttfb: Duration,
    /// From the start of connect to the end of the response.
    total: Duration,
}

fn exchange(addr: SocketAddr, head: &str, body: &[u8]) -> std::io::Result<Exchange> {
    let t0 = Instant::now();
    let mut s = TcpStream::connect(addr)?;
    let connect = t0.elapsed();
    s.write_all(head.as_bytes())?;
    s.write_all(body)?;
    let sent = Instant::now();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut ttfb = None;
    loop {
        let n = s.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        ttfb.get_or_insert_with(|| sent.elapsed());
        buf.extend_from_slice(&chunk[..n]);
    }
    let total = t0.elapsed();
    let status = std::str::from_utf8(buf.get(9..12).unwrap_or_default())
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = match buf.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(i) => buf.split_off(i + 4),
        None => Vec::new(),
    };
    Ok(Exchange {
        status,
        body,
        connect,
        ttfb: ttfb.unwrap_or_default(),
        total,
    })
}

fn get(addr: SocketAddr, target: &str) -> std::io::Result<Exchange> {
    exchange(
        addr,
        &format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n"),
        &[],
    )
}

/// Percent-encodes a query-string value.
fn encode(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || b"-_.~".contains(&b) {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// The `i`-th request target of the generator.
fn target(i: u64) -> (String, Option<usize>) {
    if i % 2 == 1 {
        return ("/dfg".to_string(), None);
    }
    let f = (i / 2) as usize % FILTERS.len();
    (
        format!("/query?filter={}&emit=stats", encode(FILTERS[f])),
        Some(f),
    )
}

/// What the query generator observed.
#[derive(Default)]
struct Reads {
    samples: Vec<OpenLoopSample>,
    connect_ms: Vec<f64>,
    ttfb_query_ms: Vec<f64>,
    ttfb_dfg_ms: Vec<f64>,
    /// Client time of `/query` requests, from connecting to the last byte.
    query_service_ms: Vec<f64>,
}

/// The first `/query` body served per filter, and whether every later
/// one matched it.
struct Bodies {
    first: [Option<Vec<u8>>; 3],
    agree: bool,
}

/// Runs the open-loop generator — jittered arrivals at `rate_hz` from
/// `seed` — until `stop(due)` says so. `/query` bodies go to `bodies`
/// when given, for the offline comparison.
fn generate(
    addr: SocketAddr,
    rate_hz: f64,
    seed: u64,
    stop: impl Fn(Instant) -> bool,
    mut bodies: Option<&mut Bodies>,
    req0: u64,
    checks: &mut Checks,
) -> Reads {
    let mut reads = Reads::default();
    let mut rng = SplitMix::new(seed);
    let mut due = Instant::now();
    let mut i = 0u64;
    loop {
        due += schedule_gap(rate_hz, rng.unit());
        if stop(due) {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let (target, filter) = target(i);
        let sent = Instant::now();
        let _span = span("serve.get", req0 + i);
        match get(addr, &target) {
            Ok(x) if x.status == 200 && !x.body.is_empty() => {
                checks.pass();
                reads
                    .samples
                    .push(open_loop_sample(due, sent, Instant::now()));
                reads.connect_ms.push(ms(x.connect));
                match filter {
                    Some(f) => {
                        reads.ttfb_query_ms.push(ms(x.ttfb));
                        reads.query_service_ms.push(ms(x.total));
                        if let Some(b) = bodies.as_deref_mut() {
                            match &b.first[f] {
                                Some(first) => b.agree &= *first == x.body,
                                None => b.first[f] = Some(x.body),
                            }
                        }
                    }
                    None => reads.ttfb_dfg_ms.push(ms(x.ttfb)),
                }
            }
            Ok(x) => checks.fail(format!("GET {target}: status {}", x.status)),
            Err(e) => checks.fail(format!("GET {target}: {e}")),
        }
        i += 1;
    }
    reads
}

/// One sweep step's verdict.
struct Step {
    rate_hz: f64,
    tail_ms: f64,
    backlog_ok: bool,
}

/// Whether lateness grew over a step: the median lateness of its last
/// quarter exceeds that of its first quarter by more than one period.
fn backlog_grew(samples: &[OpenLoopSample], rate_hz: f64) -> bool {
    let q = samples.len() / 4;
    if q == 0 {
        return false;
    }
    let late = |s: &[OpenLoopSample]| {
        median(&s.iter().map(|x| ms(x.lateness)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    late(&samples[samples.len() - q..]) - late(&samples[..q]) > 1e3 / rate_hz
}

/// `ok streams_sealed=N ...` → N.
fn streams_sealed(status_body: &[u8]) -> Option<u64> {
    std::str::from_utf8(status_body)
        .ok()?
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("streams_sealed="))?
        .parse()
        .ok()
}

/// The offline `/query?emit=stats` body for `filter` over the sealed
/// store.
fn offline_stats(store: &str, filter: &str) -> Result<Vec<u8>, String> {
    let session = Inspector::open(store)
        .and_then(|i| {
            Ok(i.map(CallTopDirs::new(2))
                .columns(analysis_columns())
                .requery(true)
                .filter(parse_expr(filter)?))
        })
        .and_then(|i| i.session())
        .map_err(|e| e.to_string())?;
    Ok(render_stats_text(&session.mapped(), &session.view()).into_bytes())
}

/// What one ingest phase observed.
#[derive(Default)]
struct Ingest {
    post_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    checkpoint_bytes: u64,
    warnings: u64,
    reads: Reads,
    seconds: f64,
}

/// POSTs every stream back to back while the generator reads at
/// [`INGEST_PHASE_HZ`]; the two run on their own threads.
fn ingest_phase(
    ctx: &Ctx,
    input: &Input,
    addr: SocketAddr,
    store: &Path,
    round: u64,
) -> (Ingest, Checks) {
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let (mut ingest, checks) = std::thread::scope(|scope| {
        let posts = scope.spawn(|| {
            let mut checks = Checks::default();
            let mut ingest = Ingest::default();
            for (i, (name, text, events)) in input.streams.iter().enumerate() {
                let _span = span("serve.post", round * 1_000_000 + i as u64);
                let head = format!(
                    "POST /ingest/{name} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
                    text.len()
                );
                match exchange(addr, &head, text) {
                    Ok(x) if x.status == 200 => {
                        let reply = String::from_utf8_lossy(&x.body);
                        let mut words = reply.split_whitespace();
                        let got = words.nth(1).and_then(|n| n.parse::<usize>().ok());
                        ingest.warnings += words
                            .next()
                            .and_then(|w| w.strip_prefix('('))
                            .and_then(|w| w.parse::<u64>().ok())
                            .unwrap_or(0);
                        checks.check(got == Some(*events), || {
                            format!("POST {name}: {reply:?}, expected {events} events")
                        });
                        ingest.post_ms.push(ms(x.total));
                        ingest.connect_ms.push(ms(x.connect));
                        ingest.checkpoint_bytes +=
                            std::fs::metadata(store).map(|m| m.len()).unwrap_or(0);
                    }
                    Ok(x) => checks.fail(format!("POST {name}: status {}", x.status)),
                    Err(e) => checks.fail(format!("POST {name}: {e}")),
                }
            }
            done.store(true, Ordering::SeqCst);
            (ingest, checks)
        });
        let mut read_checks = Checks::default();
        let reads = generate(
            addr,
            INGEST_PHASE_HZ,
            ctx.seed ^ (round << 32),
            |_| done.load(Ordering::SeqCst),
            None,
            (round + 1) * 10_000_000,
            &mut read_checks,
        );
        let (mut ingest, mut checks) = posts.join().expect("ingest thread");
        ingest.reads = reads;
        checks.absorb(read_checks);
        (ingest, checks)
    });
    ingest.seconds = start.elapsed().as_secs_f64();
    (ingest, checks)
}

/// Shuts a daemon down and checks what it sealed: `/status` and
/// `/metrics` answer, `streams_sealed` equals the streams sent and the
/// store passes fsck.
fn finish(handle: st_serve::Handle, input: &Input, store: &Path, checks: &mut Checks) {
    let addr = handle.addr();
    let status = get(addr, "/status");
    let metrics_ok = get(addr, "/metrics")
        .map(|x| x.status == 200 && x.body.starts_with(b"{\"schema\":\"st-obs/1\""))
        .unwrap_or(false);
    checks.check(metrics_ok, || "/metrics is not st-obs/1 JSON".into());
    handle.shutdown();
    let joined = handle.join();
    checks.check(joined.is_ok(), || format!("daemon shutdown: {joined:?}"));
    match status {
        Ok(x) => {
            let sealed = streams_sealed(&x.body);
            checks.check(sealed == Some(input.streams.len() as u64), || {
                format!(
                    "streams_sealed {sealed:?}, streams sent {}",
                    input.streams.len()
                )
            });
        }
        Err(e) => checks.fail(format!("/status: {e}")),
    }
    let fsck = st_store::open_salvage_seek(store);
    checks.check(matches!(&fsck, Ok(s) if s.report.is_clean()), || {
        "sealed store does not pass fsck".into()
    });
}

pub fn run(ctx: &Ctx, input: &Input) -> Outcome {
    let mut checks = Checks::default();
    if ctx.trace {
        enable_tracing();
    }
    // Each round starts a fresh daemon and ingests every stream; the
    // read-only sweep follows the last one.
    let mut rounds = Vec::new();
    let mut store = PathBuf::new();
    let mut steps = Vec::new();
    let mut bodies = Bodies {
        first: Default::default(),
        agree: true,
    };
    let mut sweep_query_ms = Vec::new();
    let mut overhead = 1.0;
    for round in 0..ROUNDS {
        store = ctx.work.join(format!("live-{round}.stlog2"));
        let handle = Daemon::start(ServeConfig::new(&store)).expect("start daemon");
        let addr = handle.addr();
        let (ingest, round_checks) = ingest_phase(ctx, input, addr, &store, round);
        checks.absorb(round_checks);
        rounds.push(ingest);
        if round + 1 < ROUNDS {
            finish(handle, input, &store, &mut checks);
            continue;
        }

        // Read-only sweep.
        let step_len = Duration::from_secs_f64(
            (ctx.seconds * SWEEP_SHARE / SWEEP_HZ.len() as f64).max(SWEEP_STEP_MIN_S),
        );
        for (k, rate) in SWEEP_HZ.into_iter().enumerate() {
            let start = Instant::now();
            let r = generate(
                addr,
                rate,
                ctx.seed ^ (k as u64 + 1),
                |due| due >= start + step_len,
                Some(&mut bodies),
                100_000_000 + 100_000 * k as u64,
                &mut checks,
            );
            let latencies: Vec<f64> = r.samples.iter().map(|s| ms(s.latency)).collect();
            steps.push(Step {
                rate_hz: rate,
                tail_ms: tail(&latencies).map_or(f64::INFINITY, |t| t.value),
                backlog_ok: !backlog_grew(&r.samples, rate),
            });
            sweep_query_ms.extend_from_slice(&r.query_service_ms);
        }

        // Tracing overhead: one read-only step at the lowest rate with
        // the benchmark's spans off, then on (the daemon's own st-obs
        // stays on in both, as its default configuration has it).
        if ctx.trace {
            let mut pair = [0.0f64; 2];
            for (k, on) in [false, true].into_iter().enumerate() {
                trace::set_recording(on);
                let start = Instant::now();
                let r = generate(
                    addr,
                    SWEEP_HZ[0],
                    !ctx.seed,
                    |due| due >= start + step_len,
                    None,
                    200_000_000,
                    &mut checks,
                );
                let latencies: Vec<f64> = r.samples.iter().map(|s| ms(s.latency)).collect();
                pair[k] = median(&latencies).unwrap_or(0.0);
                sweep_query_ms.extend_from_slice(&r.query_service_ms);
            }
            overhead = pair[1] / pair[0];
        }
        finish(handle, input, &store, &mut checks);
    }
    let max_hz = steps
        .iter()
        .take_while(|s| s.tail_ms <= TAIL_LIMIT_MS && s.backlog_ok)
        .last()
        .map_or(0.0, |s| s.rate_hz);

    // The served bodies against the offline render of the sealed store.
    checks.check(bodies.agree, || {
        "a /query body changed between requests with no ingest between them".into()
    });
    let spec = store.display().to_string();
    for (f, body) in FILTERS.iter().zip(&bodies.first) {
        let Some(body) = body else { continue };
        let offline = offline_stats(&spec, f);
        checks.check(offline.as_ref() == Ok(body), || {
            format!("/query filter {f:?} differs from the offline render")
        });
    }

    let all = |f: fn(&Ingest) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let post_ms = all(|r| &r.post_ms);
    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.reads.samples.iter().map(|s| ms(s.latency)))
        .collect();
    let ingest_s = rounds.iter().map(|r| r.seconds).sum::<f64>() / rounds.len() as f64;
    // The gated latencies are means: every read waits a uniformly
    // distributed part of the accept poll, and POST latencies are
    // quantized by it, so a mean is the steadier statistic of the same
    // samples.
    let post_mean = mean(&post_ms);
    let query_mean = mean(&latencies);
    let mut detail = Metrics::default();
    detail.put(
        "ingest_mlines_per_s",
        input.lines as f64 / ingest_s / 1e6,
        "Mlines/s",
    );
    detail.put(
        "live_query_p50_ms",
        median(&latencies).unwrap_or(f64::NAN),
        "ms",
    );
    detail.put_tail("live_query_tail_ms", tail(&latencies), "ms");
    detail.put("live_query_mean_ms", query_mean, "ms");
    detail.put("live_max_query_hz", max_hz, "req/s");
    detail.put(
        "ingest_post_p50_ms",
        median(&post_ms).unwrap_or(f64::NAN),
        "ms",
    );
    detail.put("ingest_post_mean_ms", post_mean, "ms");
    for s in &steps {
        detail.put(&format!("sweep_{}hz_tail_ms", s.rate_hz), s.tail_ms, "ms");
    }

    let mut per_layer = Metrics::default();
    if ctx.trace {
        let report = st_obs::report();
        let n = ROUNDS as f64;
        let counter = |c: &str| report.totals.get(c).copied().unwrap_or(0) as f64;
        let mut connects = all(|r| &r.connect_ms);
        connects.extend(
            rounds
                .iter()
                .flat_map(|r| r.reads.connect_ms.iter().copied()),
        );
        let checkpoint_bytes = rounds.iter().map(|r| r.checkpoint_bytes).sum::<u64>() as f64 / n;
        let final_bytes = std::fs::metadata(&store).map_or(0, |m| m.len());
        per_layer.put("strace.lines", input.lines as f64, "count");
        per_layer.put("strace.events", input.events as f64, "count");
        per_layer.put(
            "strace.warnings",
            rounds.iter().map(|r| r.warnings).sum::<u64>() as f64 / n,
            "count",
        );
        per_layer.put("serve.connect_ms", mean(&connects), "ms");
        let reads = |f: fn(&Reads) -> &Vec<f64>| -> Vec<f64> {
            rounds
                .iter()
                .flat_map(|r| f(&r.reads).iter().copied())
                .collect()
        };
        per_layer.put(
            "serve.ttfb_query_ms",
            mean(&reads(|r| &r.ttfb_query_ms)),
            "ms",
        );
        per_layer.put("serve.ttfb_dfg_ms", mean(&reads(|r| &r.ttfb_dfg_ms)), "ms");
        per_layer.put("serve.ingest_post_ms", post_mean, "ms");
        per_layer.put("serve.rejected", counter("serve.conns_rejected"), "count");
        per_layer.put("store.bytes_written", checkpoint_bytes, "bytes");
        per_layer.put(
            "store.bytes_per_event",
            final_bytes as f64 / input.events as f64,
            "bytes",
        );
        per_layer.put(
            "serve.checkpoints",
            counter("serve.checkpoints") / n,
            "count",
        );
        per_layer.put("serve.checkpoint_bytes_written", checkpoint_bytes, "bytes");
        let span_ms = crate::obs_stage_times(&report)
            .get("serve.query")
            .filter(|t| t.calls > 0)
            .map_or(0.0, |t| t.total_ns as f64 / t.calls as f64 / 1e6);
        let mut query_ms = reads(|r| &r.query_service_ms);
        query_ms.extend(sweep_query_ms);
        per_layer.put("serve.unattributed_ms", mean(&query_ms) - span_ms, "ms");
        let lateness: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.reads.samples.iter().map(|s| ms(s.lateness)))
            .collect();
        per_layer.put(
            "gen.lag_tail_ms",
            tail(&lateness).map_or(f64::NAN, |t| t.value),
            "ms",
        );
        per_layer.put("obs.overhead_ratio", overhead, "ratio");
    }
    Outcome {
        checks,
        gate: [("step1_ms", post_mean), ("step2_ms", query_mean)],
        detail,
        per_layer,
        sizes: vec![
            ("streams", input.streams.len() as f64),
            ("lines", input.lines as f64),
            ("events", input.events as f64),
            ("rounds", ROUNDS as f64),
            ("ingest_phase_query_hz", INGEST_PHASE_HZ),
            ("ingest_s", ingest_s),
        ],
    }
}
