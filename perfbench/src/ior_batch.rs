//! `ior-batch`: the paper's Sec. V-A offline loop. IOR SSF (cid `s`)
//! and FPP (cid `f`) each run 96 ranks on 2 hosts; set-up writes their
//! 192 strace files. Each timed pass ingests the directory into a
//! published v2 store and then compares `s` against `f`: per-cid DFG and
//! statistics, `diff`, and the text and DOT renders.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use st_core::render::{render_diff_dot, render_diff_report, render_diff_stats, RenderOptions};
use st_core::{diff, CallTopDirs, Dfg, IoStatistics, MappedLog};
use st_ior::Api;
use st_model::EventLog;
use st_query::Predicate;
use st_sim::TraceFilter;
use st_source::Inspector;
use st_store::{SegmentReader, StoreBuilder};

use crate::report::Metrics;
use crate::stats::{median, ms};
use crate::trace::{span, timed};
use crate::{analysis_columns, ior_log, measure, Checks, Ctx, Outcome};

/// IOR segments per rank (`-s`). The paper's 3 give 77 k lines, which
/// parse in ~80 ms — too short to hold steady; 160 give ~1 M lines.
const SEGMENTS: u64 = 160;

/// The set-up's output: the strace directory and what a pass must
/// reproduce from it.
pub struct Input {
    dir: PathBuf,
    files: usize,
    lines: u64,
    text_bytes: u64,
    events: usize,
    cases: usize,
    /// The compare output computed from the resident simulated logs.
    expected: String,
}

pub fn setup(ctx: &Ctx) -> Input {
    let log = ior_log(
        ctx.seed,
        &TraceFilter::experiment_a(),
        &[("s", false, Api::Posix), ("f", true, Api::Posix)],
        SEGMENTS,
    );
    let dir = ctx.work.join("ior-batch-traces");
    let _ = std::fs::remove_dir_all(&dir);
    let files = st_strace::write_log_to_dir(&log, &dir, &st_strace::WriteOptions::default())
        .expect("write strace files");
    let (mut lines, mut text_bytes) = (0u64, 0u64);
    for f in &files {
        let text = std::fs::read(f).expect("read back strace file");
        lines += text.iter().filter(|&&b| b == b'\n').count() as u64;
        text_bytes += text.len() as u64;
    }
    let (s, _) = log.partition_by_cid("s");
    let (f, _) = log.partition_by_cid("f");
    let expected = {
        let (ms_, mf) = (map(&s), map(&f));
        let (ds, df) = (Dfg::from_mapped(&ms_), Dfg::from_mapped(&mf));
        render_compare(
            &diff(&ds, &df),
            &IoStatistics::compute(&ms_),
            &IoStatistics::compute(&mf),
        )
    };
    Input {
        dir,
        files: files.len(),
        lines,
        text_bytes,
        events: log.total_events(),
        cases: log.case_count(),
        expected,
    }
}

fn map(log: &EventLog) -> MappedLog<'_> {
    MappedLog::new(log, &CallTopDirs::new(2))
}

/// The compare pass's output: the diff report, the per-activity
/// statistics diff and the annotated DOT.
fn render_compare(d: &st_core::DfgDiff, a: &IoStatistics, b: &IoStatistics) -> String {
    let options = RenderOptions {
        graph_name: "DFG diff".to_string(),
        show_stats: false,
        ..Default::default()
    };
    let mut out = render_diff_report(d);
    out.push_str(&render_diff_stats(d, a, b));
    out.push_str(&render_diff_dot(d, &options));
    out
}

struct Pass {
    ingest: Duration,
    compare: Duration,
    warnings: usize,
    bytes_written: u64,
}

/// One timed pass. Returns its timings, or why its output is wrong.
fn pass(input: &Input, store: &Path, req: u64) -> Result<Pass, String> {
    let _pass = span("pass", req);
    let t0 = Instant::now();
    let parsed = timed("strace.parse", req, || {
        Inspector::open(&input.dir.display().to_string())
            .and_then(|i| i.session())
            .map_err(|e| format!("ingest: {e}"))
    })?;
    let warnings = parsed.warnings().len();
    let log = parsed.into_log();
    timed("store.write", req, || {
        let mut builder = StoreBuilder::create(store, log.interner().clone())?;
        for case in log.cases() {
            builder.push_case(case.meta, &case.events)?;
        }
        builder.finish()
    })
    .map_err(|e| format!("store write: {e}"))?;
    let ingest = t0.elapsed();

    let t1 = Instant::now();
    let spec = store.display().to_string();
    let mut sides = Vec::new();
    for cid in ["s", "f"] {
        let session = timed("source.session", req, || {
            Inspector::open(&spec).map(|i| {
                i.filter(Predicate::Cid(cid.to_string()))
                    .columns(analysis_columns())
                    .session()
            })
        })
        .and_then(|s| s)
        .map_err(|e| format!("compare session {cid}: {e}"))?;
        sides.push(session);
    }
    let mapped: Vec<MappedLog<'_>> = sides
        .iter()
        .map(|s| timed("core.map", req, || s.mapped()))
        .collect();
    let dfgs: Vec<Dfg> = mapped
        .iter()
        .map(|m| timed("core.dfg", req, || Dfg::from_mapped(m)))
        .collect();
    let stats: Vec<IoStatistics> = mapped
        .iter()
        .map(|m| timed("core.stats", req, || IoStatistics::compute(m)))
        .collect();
    let d = timed("core.diff", req, || diff(&dfgs[0], &dfgs[1]));
    let out = timed("core.render", req, || {
        render_compare(&d, &stats[0], &stats[1])
    });
    let compare = t1.elapsed();

    // Checks, outside the timed part.
    let stored = SegmentReader::open(store)
        .map_err(|e| format!("reopen store: {e}"))?
        .total_events();
    if log.total_events() != input.events || stored != input.events as u64 {
        return Err(format!(
            "event count: simulated {}, parsed {}, stored {stored}",
            input.events,
            log.total_events()
        ));
    }
    for (m, g) in mapped.iter().zip(&dfgs) {
        let cases = m.log().cases().iter().filter(|c| !c.is_empty()).count();
        let want = (m.mapped_events() + cases) as u64;
        if g.total_edge_observations() != want {
            return Err(format!(
                "DFG edge observations {} != mapped events + cases {want}",
                g.total_edge_observations()
            ));
        }
    }
    if out != input.expected {
        return Err("compare output differs from a fresh diff of the resident logs".into());
    }
    let bytes_written = std::fs::metadata(store).map(|m| m.len()).unwrap_or(0);
    Ok(Pass {
        ingest,
        compare,
        warnings,
        bytes_written,
    })
}

/// Runs passes until `budget` has passed; returns the pass timings.
fn loop_passes(
    input: &Input,
    ctx: &Ctx,
    budget: Duration,
    req0: u64,
    checks: &mut Checks,
) -> Vec<Pass> {
    let store = ctx.work.join("ior-batch.stlog");
    let mut passes = Vec::new();
    let start = Instant::now();
    let mut req = req0;
    while start.elapsed() < budget || passes.is_empty() {
        req += 1;
        let result = pass(input, &store, req);
        match result {
            Ok(p) => {
                checks.pass();
                passes.push(p);
            }
            Err(e) => checks.fail(e),
        }
        if checks.failed > 0 && passes.is_empty() {
            break;
        }
    }
    passes
}

pub fn run(ctx: &Ctx, input: &Input) -> Outcome {
    let mut checks = Checks::default();
    let mut detail = Metrics::default();
    let mut per_layer = Metrics::default();

    let (passes, overhead) = measure(
        ctx,
        |p: &Pass| ms(p.ingest + p.compare),
        |budget, req0| loop_passes(input, ctx, budget, req0, &mut checks),
    );
    let ingest_ms: Vec<f64> = passes.iter().map(|p| ms(p.ingest)).collect();
    let compare_ms: Vec<f64> = passes.iter().map(|p| ms(p.compare)).collect();
    let ingest_p50 = median(&ingest_ms).unwrap_or(f64::NAN);
    let compare_p50 = median(&compare_ms).unwrap_or(f64::NAN);
    detail.put(
        "ingest_mlines_per_s",
        input.lines as f64 / (ingest_p50 / 1e3) / 1e6,
        "Mlines/s",
    );
    detail.put("compare_s", compare_p50 / 1e3, "s");
    detail.put("passes", passes.len() as f64, "count");

    if ctx.trace {
        let n = passes.len().max(1) as f64;
        let warnings: usize = passes.iter().map(|p| p.warnings).sum();
        let written: u64 = passes.iter().map(|p| p.bytes_written).sum();
        per_layer.put("strace.lines", input.lines as f64, "count");
        per_layer.put("strace.events", input.events as f64, "count");
        per_layer.put("strace.warnings", warnings as f64 / n, "count");
        per_layer.put("store.bytes_written", written as f64 / n, "bytes");
        per_layer.put(
            "store.bytes_per_event",
            written as f64 / n / input.events as f64,
            "bytes",
        );
        per_layer.put("obs.overhead_ratio", overhead, "ratio");
    }
    Outcome {
        checks,
        gate: [("step1_ms", ingest_p50), ("step2_ms", compare_p50)],
        detail,
        per_layer,
        sizes: vec![
            ("strace_files", input.files as f64),
            ("cases", input.cases as f64),
            ("lines", input.lines as f64),
            ("text_bytes", input.text_bytes as f64),
            ("events", input.events as f64),
        ],
    }
}
