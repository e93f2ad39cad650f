//! `perfbench` — one benchmark for the st-inspector pipeline and the
//! live daemon.
//!
//! ```text
//! perfbench --workload ior-batch|narrow|live --seed N --seconds S --trace 0|1 [--out-dir DIR]
//! ```
//!
//! Set-up builds the workload's inputs from the seed at least three
//! times and reports the median as `setup_s`. The untraced run (`--trace 0`)
//! measures the end-to-end metrics. The traced run (`--trace 1`) records
//! the benchmark's own spans around every call into a layer, turns on
//! st-obs so the program's existing spans are collected too, and
//! reports the per-layer metrics. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. A
//! result record with the host stamp, input sizes and every metric goes
//! to `<out-dir>/results/`, and the traced run's spans to
//! `<out-dir>/spans/`.

mod ior_batch;
mod live;
mod narrow;
mod report;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use report::{jstr, num, Metrics};

/// Set-ups per run: at least `SETUP_MIN`, and more while they have
/// taken under `SETUP_FLOOR_S` in all (up to `SETUP_MAX`), so a set-up
/// of a fraction of a second still gives a steady median.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 15;
const SETUP_FLOOR_S: f64 = 2.0;

/// Every per-layer metric with its unit, in print order. A traced run
/// reports all of them; a layer a workload does no work in reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("strace.parse_ms", "ms"),
    ("strace.lines", "count"),
    ("strace.events", "count"),
    ("strace.warnings", "count"),
    ("store.write_ms", "ms"),
    ("store.bytes_written", "bytes"),
    ("store.bytes_per_event", "bytes"),
    ("store.open_ms", "ms"),
    ("store.bytes_read", "bytes"),
    ("store.fetches", "count"),
    ("store.read_fraction", "ratio"),
    ("query.plan_ms", "ms"),
    ("query.pruned_read_ms", "ms"),
    ("query.blocks_pruned_ratio", "ratio"),
    ("query.bytes_decoded", "bytes"),
    ("query.sched_workers", "count"),
    ("source.session_ms", "ms"),
    ("source.refilter_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evicted_bytes", "bytes"),
    ("cache.resident_bytes", "bytes"),
    ("core.map_ms", "ms"),
    ("core.dfg_ms", "ms"),
    ("core.stats_ms", "ms"),
    ("core.diff_ms", "ms"),
    ("core.render_ms", "ms"),
    ("serve.connect_ms", "ms"),
    ("serve.ttfb_query_ms", "ms"),
    ("serve.ttfb_dfg_ms", "ms"),
    ("serve.ingest_post_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.query_span_ms", "ms"),
    ("serve.ingest_span_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("serve.checkpoints", "count"),
    ("serve.checkpoint_bytes_written", "bytes"),
    ("gen.lag_tail_ms", "ms"),
    ("obs.overhead_ratio", "ratio"),
];

/// Per-layer times taken from spans: the metric, then the span names
/// that feed it — the benchmark's own span first, then the program's
/// st-obs stages. The first name with any calls wins; the value is the
/// mean wall time per call.
const SPAN_TIMES: &[(&str, &[&str])] = &[
    ("strace.parse_ms", &["strace.parse"]),
    (
        "store.write_ms",
        &["store.write", "store.stream.checkpoint"],
    ),
    ("store.open_ms", &["store.open.seek"]),
    ("query.plan_ms", &["query.pushdown.plan"]),
    ("query.pruned_read_ms", &["query.pushdown"]),
    ("source.session_ms", &["source.session", "session"]),
    (
        "source.refilter_ms",
        &["source.refilter", "session.refilter"],
    ),
    ("core.map_ms", &["core.map", "map.apply"]),
    ("core.dfg_ms", &["core.dfg", "dfg.build.view", "dfg.build"]),
    (
        "core.stats_ms",
        &["core.stats", "stats.compute.view", "stats.compute"],
    ),
    ("core.diff_ms", &["core.diff"]),
    ("core.render_ms", &["core.render"]),
    ("serve.query_span_ms", &["serve.query"]),
    ("serve.ingest_span_ms", &["serve.ingest"]),
];

/// The event columns the analyses read — the CLI's and the daemon's
/// projection, so rendered bodies match theirs byte for byte.
pub fn analysis_columns() -> st_store::ColumnSet {
    st_store::ColumnSet::ALL.without(st_store::ColumnSet::REQUESTED | st_store::ColumnSet::OFFSET)
}

/// Simulates IOR runs at the paper's 96 ranks on 2 hosts with `-s
/// segments`, one `(cid, file per process, interface)` per run, into one
/// log; the seed drives the simulator's jitter.
pub fn ior_log(
    seed: u64,
    filter: &st_sim::TraceFilter,
    runs: &[(&str, bool, st_ior::Api)],
    segments: u64,
) -> st_model::EventLog {
    let config = st_sim::SimConfig {
        seed,
        ..st_sim::SimConfig::default()
    };
    let mut log = st_model::EventLog::with_new_interner();
    for &(cid, fpp, api) in runs {
        let subdir = if fpp { "fpp" } else { "ssf" };
        let mut opts = st_ior::IorOptions::paper_experiment(
            fpp,
            api,
            &format!("{}/{subdir}/test", config.paths.scratch),
        );
        opts.segments = segments;
        let profile = st_ior::workload::StartupProfile::default();
        st_ior::run_ior(cid, &opts, &profile, &config, filter, &mut log);
    }
    log
}

/// A small seeded generator (SplitMix64) for the workloads' choices.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// What a run was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for the run's inputs and stores; removed at exit.
    pub work: PathBuf,
}

/// Operations attempted and failed, with the first few failures.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(why.into());
        }
    }

    /// Adds another tally's operations and failures to this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }

    /// Counts one operation that passed when `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if ok {
            self.pass();
        } else {
            self.fail(why());
        }
    }
}

/// One workload's measurements.
pub struct Outcome {
    pub checks: Checks,
    /// The two end-to-end latencies BENCHMARK.json gates (see README).
    pub gate: [(&'static str, f64); 2],
    /// Every end-to-end metric the workload defines, by its own name.
    pub detail: Metrics,
    /// Per-layer values only the workload knows (traced run).
    pub per_layer: Metrics,
    /// Input sizes, for the record.
    pub sizes: Vec<(&'static str, f64)>,
}

/// Runs the measured part. Untraced: `f` runs for the whole budget.
/// Traced: `f` runs untraced for a third of the budget (the baseline of
/// `obs.overhead_ratio`), then with tracing on for the rest; each call
/// starts the workload's operation sequence from the top. Returns the
/// measured results and the traced ÷ untraced ratio of `key` summed
/// over the operations both segments ran (1 when untraced).
pub fn measure<T>(
    ctx: &Ctx,
    key: impl Fn(&T) -> f64,
    mut f: impl FnMut(Duration, u64) -> Vec<T>,
) -> (Vec<T>, f64) {
    let budget = Duration::from_secs_f64(ctx.seconds);
    if !ctx.trace {
        return (f(budget, 0), 1.0);
    }
    let baseline = f(budget / 3, 1_000_000);
    enable_tracing();
    let traced = f(budget - budget / 3, 0);
    let common = traced.len().min(baseline.len());
    let sum = |v: &[T]| v[..common].iter().map(&key).sum::<f64>();
    let ratio = sum(&traced) / sum(&baseline);
    (traced, ratio)
}

/// Turns on the benchmark's spans and st-obs collection.
pub fn enable_tracing() {
    trace::enable();
    st_obs::set_enabled(true);
    st_obs::reset();
}

/// Aggregated st-obs stage times by stage name, over the whole tree.
pub fn obs_stage_times(report: &st_obs::PipelineReport) -> BTreeMap<String, trace::NameTime> {
    fn walk(nodes: &[st_obs::StageNode], out: &mut BTreeMap<String, trace::NameTime>) {
        for n in nodes {
            let t = out.entry(n.name.clone()).or_default();
            t.calls += n.calls;
            t.total_ns += n.wall_ns;
            t.self_ns += n.self_ns;
            walk(&n.children, out);
        }
    }
    let mut out = BTreeMap::new();
    walk(&report.stages, &mut out);
    out
}

/// The full per-layer list: span times and st-obs counter ratios, with
/// the workload's own values taking precedence; anything unset or not
/// measurable is 0.
fn per_layer(outcome: &Outcome, report: &st_obs::PipelineReport) -> Metrics {
    let mine = trace::self_times(&trace::spans());
    let obs = obs_stage_times(report);
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (metric, names) in SPAN_TIMES {
        let found = names.iter().find_map(|n| {
            mine.get(n)
                .copied()
                .or_else(|| obs.get(*n).copied())
                .filter(|t| t.calls > 0)
        });
        if let Some(t) = found {
            values.insert(metric, t.total_ns as f64 / t.calls as f64 / 1e6);
        }
    }
    let counter = |name: &str| report.totals.get(name).copied().unwrap_or(0) as f64;
    let (hits, misses) = (counter("cache.hits"), counter("cache.misses"));
    if hits + misses > 0.0 {
        values.insert("cache.hit_ratio", hits / (hits + misses));
    }
    if counter("blocks_total") > 0.0 {
        values.insert(
            "query.blocks_pruned_ratio",
            counter("blocks_pruned") / counter("blocks_total"),
        );
    }
    if let Some(reads) = obs.get("query.pushdown").filter(|t| t.calls > 0) {
        let per_read = |c: &str| counter(c) / reads.calls as f64;
        values.insert("store.bytes_read", per_read("bytes_read"));
        values.insert("query.bytes_decoded", per_read("bytes_decoded"));
    }
    for m in &outcome.per_layer.0 {
        values.insert(m.name.as_str(), m.value);
    }
    let mut out = Metrics::default();
    for (name, unit) in PER_LAYER {
        let value = values.get(name).copied().filter(|v| v.is_finite());
        out.put(name, value.unwrap_or(0.0), unit);
    }
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["ior-batch", "narrow", "live"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (ior-batch, narrow, live)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir: out_dir.unwrap_or_else(|| PathBuf::from(".bench_build/perfbench")),
    })
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Times repeated set-ups, reports their median and keeps the last
/// one's input. The peak RSS is reset afterwards, so `peak_rss_mib`
/// covers the measured part (with the input resident) and not the
/// set-up.
fn set_up<I>(ctx: &Ctx, setup: impl Fn(&Ctx) -> I) -> (I, f64) {
    let mut times: Vec<f64> = Vec::new();
    let mut input = None;
    while times.len() < SETUP_MIN
        || (times.len() < SETUP_MAX && times.iter().sum::<f64>() < SETUP_FLOOR_S)
    {
        drop(input.take());
        let t = Instant::now();
        input = Some(setup(ctx));
        times.push(t.elapsed().as_secs_f64());
    }
    report::reset_peak_rss();
    (
        input.expect("at least one set-up"),
        stats::median(&times).expect("set-up times"),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = args.out_dir.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("create scratch directory");
    let _cleanup = WorkDir(work.clone());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work,
    };
    // The daemon turns st-obs on by default; everything else starts off.
    st_obs::set_enabled(false);

    let (outcome, setup_s) = match args.workload.as_str() {
        "ior-batch" => {
            let (input, s) = set_up(&ctx, ior_batch::setup);
            (ior_batch::run(&ctx, &input), s)
        }
        "narrow" => {
            let (input, s) = set_up(&ctx, narrow::setup);
            (narrow::run(&ctx, &input), s)
        }
        _ => {
            let (input, s) = set_up(&ctx, live::setup);
            (live::run(&ctx, &input), s)
        }
    };
    let rss = report::peak_rss_mib();
    let checks = &outcome.checks;
    let failed_ratio = stats::failed_ratio(checks.failed, checks.attempted);

    let mut gate = Metrics::default();
    gate.put("setup_s", setup_s, "s");
    for (name, value) in outcome.gate {
        gate.put(name, value, "ms");
    }

    let mut detail = Metrics::default();
    detail.put("setup_s", setup_s, "s");
    detail.0.extend(outcome.detail.0.iter().cloned());
    detail.put("failed_ratio", failed_ratio, "ratio");
    detail.put("peak_rss_mib", rss, "MiB");

    let obs_report = st_obs::report();
    let layers = ctx.trace.then(|| per_layer(&outcome, &obs_report));
    // Traced runs also record the time under every span name: the
    // benchmark's own spans and the program's st-obs stages.
    let span_table = |times: Vec<(String, trace::NameTime)>| -> String {
        let rows: Vec<String> = times
            .into_iter()
            .map(|(name, t)| {
                format!(
                    "{}: {{\"calls\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                    jstr(&name),
                    t.calls,
                    num(t.total_ns as f64 / 1e6),
                    num(t.self_ns as f64 / 1e6)
                )
            })
            .collect();
        format!("{{{}}}", rows.join(", "))
    };
    let (bench_spans, obs_stages) = if ctx.trace {
        let mine = trace::self_times(&trace::spans());
        (
            span_table(mine.into_iter().map(|(n, t)| (n.to_string(), t)).collect()),
            span_table(obs_stage_times(&obs_report).into_iter().collect()),
        )
    } else {
        ("null".to_string(), "null".to_string())
    };

    let host = report::host_stamp();
    let correct = checks.failed == 0;
    println!("host: {host}");
    println!(
        "workload {} seed {} trace {}: {} operations attempted, {} failed",
        args.workload, args.seed, args.trace as u8, checks.attempted, checks.failed
    );
    for m in &checks.messages {
        println!("FAILED: {m}");
    }
    print!("{}", detail.lines("  "));
    if let Some(layers) = &layers {
        print!("{}", layers.lines("  layer "));
    }

    // The record: everything above plus the input sizes.
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let tag = format!(
        "{}-seed{}-trace{}-{stamp}",
        args.workload, args.seed, args.trace as u8
    );
    let sizes: Vec<String> = outcome
        .sizes
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
        .collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {host}, \
         \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \
         \"sizes\": {{{}}}, \"end_to_end\": {}, \"gate\": {}, \"per_layer\": {}, \
         \"spans\": {bench_spans}, \"obs_stages\": {obs_stages}}}\n",
        jstr(&args.workload),
        args.seed,
        num(args.seconds),
        args.trace as u8,
        checks.attempted,
        checks.failed,
        checks
            .messages
            .iter()
            .map(|m| jstr(m))
            .collect::<Vec<_>>()
            .join(", "),
        sizes.join(", "),
        detail.json(),
        gate.json(),
        layers.as_ref().map_or("null".to_string(), Metrics::json),
    );
    let results = args.out_dir.join("results");
    if std::fs::create_dir_all(&results).is_ok() {
        let _ = std::fs::write(results.join(format!("{tag}.json")), record);
    }
    if ctx.trace {
        let spans_dir = args.out_dir.join("spans");
        if std::fs::create_dir_all(&spans_dir).is_ok() {
            let _ = trace::write_jsonl(&spans_dir.join(format!("{tag}.jsonl")), &trace::spans());
        }
    }

    let metrics = layers.as_ref().unwrap_or(&gate).json();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        checks.attempted, checks.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
