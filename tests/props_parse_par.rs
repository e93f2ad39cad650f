//! Property-based equivalence of the trace parsers: `parse_par` must
//! produce exactly what `parse_str` produces — same events (including
//! interned symbol ids when both start from fresh interners) and same
//! warnings in the same order — for any thread count and any input,
//! including traces whose `<unfinished ...>` / `resumed` pairs straddle
//! chunk boundaries. The daemon's line-at-a-time `StreamParser` must
//! match `parse_str` too. Inputs mix well-formed records with arbitrary bytes
//! and damaged (truncated, byte-flipped) records; no parser may panic,
//! and warnings stay capped.

use std::sync::Arc;

use proptest::prelude::*;
use st_inspector::model::Interner;
use st_inspector::strace::{parse_par, parse_str, StreamParser, WARNING_CAP};

/// One generated trace record. Delays on split calls schedule the
/// `resumed` line several records later, so pairs regularly land in
/// different chunks under `parse_par`.
#[derive(Debug, Clone)]
enum TraceOp {
    /// A complete call record.
    Complete {
        pid: u32,
        write: bool,
        path: &'static str,
        size: u64,
    },
    /// A call the crate has no named variant for (exercises
    /// `Syscall::Other` symbol interning).
    Unknown { pid: u32, path: &'static str },
    /// An `<unfinished ...>` record whose `resumed` follows after
    /// `delay` further records.
    Split {
        pid: u32,
        write: bool,
        path: &'static str,
        size: u64,
        delay: usize,
    },
    /// An `<unfinished ...>` record that never resumes.
    NeverResumed { pid: u32, path: &'static str },
    /// A `resumed` record with (usually) no outstanding unfinished call.
    OrphanResumed { pid: u32, write: bool },
    /// An unparsable line.
    Garbage,
    /// A signal stop / process exit record (silently skipped).
    Noise { pid: u32, exit: bool },
    /// An `ERESTARTSYS`-interrupted record.
    Restarted { pid: u32 },
    /// A single-line record damaged in transit: bytes XOR-flipped
    /// (`(position, mask)`, positions modulo the line length), then cut
    /// to `cut` bytes (modulo the length + 1) when set.
    Mangled {
        base: Box<TraceOp>,
        flips: Vec<(usize, u8)>,
        cut: Option<usize>,
    },
    /// Arbitrary bytes, decoded lossily to UTF-8; may hold line breaks.
    Bytes(Vec<u8>),
    /// A run of unparsable lines, enough to trip the warning cap.
    Flood(usize),
}

fn pid_strategy() -> impl Strategy<Value = u32> {
    prop::sample::select(vec![7u32, 9, 11, 42])
}

fn path_strategy() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "/usr/lib/libc.so.6",
        "/etc/passwd",
        "/scratch/run1/out.bin",
        "/dev/pts/7",
        "/proc/filesystems",
    ])
}

/// The ops that render as exactly one line, damaged by `Mangled`.
fn record_strategy() -> impl Strategy<Value = TraceOp> {
    prop_oneof![
        (
            pid_strategy(),
            prop::bool::ANY,
            path_strategy(),
            0u64..10_000
        )
            .prop_map(|(pid, write, path, size)| TraceOp::Complete {
                pid,
                write,
                path,
                size
            }),
        (pid_strategy(), path_strategy()).prop_map(|(pid, path)| TraceOp::Unknown { pid, path }),
        (pid_strategy(), path_strategy())
            .prop_map(|(pid, path)| TraceOp::NeverResumed { pid, path }),
        (pid_strategy(), prop::bool::ANY)
            .prop_map(|(pid, write)| TraceOp::OrphanResumed { pid, write }),
        pid_strategy().prop_map(|pid| TraceOp::Restarted { pid }),
    ]
}

/// Any byte, or one of the bytes strace records are built from (so
/// random runs regularly look almost like records). `\r` is weighted
/// up so `\r\r\n`-style line ends, where terminator handling can
/// differ between parsers, come up in most runs.
fn byte_strategy() -> impl Strategy<Value = u8> {
    prop_oneof![
        0u8..=255,
        prop::sample::select(b"\n\r\r\r\r\t (),<>\"=.:?+-_/09 AZaz\x7f\xc3\xff".to_vec()),
    ]
}

fn op_strategy() -> impl Strategy<Value = TraceOp> {
    prop_oneof![
        (
            pid_strategy(),
            prop::bool::ANY,
            path_strategy(),
            0u64..10_000
        )
            .prop_map(|(pid, write, path, size)| TraceOp::Complete {
                pid,
                write,
                path,
                size
            }),
        (pid_strategy(), path_strategy()).prop_map(|(pid, path)| TraceOp::Unknown { pid, path }),
        (
            pid_strategy(),
            prop::bool::ANY,
            path_strategy(),
            0u64..10_000,
            0usize..40
        )
            .prop_map(|(pid, write, path, size, delay)| TraceOp::Split {
                pid,
                write,
                path,
                size,
                delay
            }),
        (pid_strategy(), path_strategy())
            .prop_map(|(pid, path)| TraceOp::NeverResumed { pid, path }),
        (pid_strategy(), prop::bool::ANY)
            .prop_map(|(pid, write)| TraceOp::OrphanResumed { pid, write }),
        Just(TraceOp::Garbage),
        (pid_strategy(), prop::bool::ANY).prop_map(|(pid, exit)| TraceOp::Noise { pid, exit }),
        pid_strategy().prop_map(|pid| TraceOp::Restarted { pid }),
        (
            record_strategy(),
            prop::collection::vec((0usize..512, 1u8..0x80), 0..3),
            prop::option::of(0usize..512)
        )
            .prop_map(|(base, flips, cut)| TraceOp::Mangled {
                base: Box::new(base),
                flips,
                cut
            }),
        prop::collection::vec(byte_strategy(), 0..48).prop_map(TraceOp::Bytes),
        (0usize..24).prop_map(TraceOp::Flood),
    ]
}

fn call_name(write: bool) -> &'static str {
    if write {
        "write"
    } else {
        "read"
    }
}

/// Renders a single-line op at time of day `t`.
fn record_line(op: &TraceOp, t: &str) -> String {
    match op {
        TraceOp::Complete {
            pid,
            write,
            path,
            size,
        } => format!(
            "{pid}  {t} {}(3<{path}>, \"...\", 8192) = {size} <0.000203>",
            call_name(*write)
        ),
        TraceOp::Unknown { pid, path } => {
            format!("{pid}  {t} statx(AT_FDCWD, \"{path}\", 0, 4095) = 0 <0.000004>")
        }
        TraceOp::NeverResumed { pid, path } => {
            format!("{pid}  {t} read(3<{path}>, <unfinished ...>")
        }
        TraceOp::OrphanResumed { pid, write } => format!(
            "{pid}  {t} <... {} resumed> \"...\", 64) = 64 <0.000009>",
            call_name(*write)
        ),
        TraceOp::Restarted { pid } => {
            format!("{pid}  {t} read(3</x>, \"\", 10) = ? ERESTARTSYS (To be restarted)")
        }
        other => unreachable!("not a single-line record: {other:?}"),
    }
}

/// Renders ops into strace text. Timestamps advance by 0–2 µs so equal
/// start times occur regularly (exercising the `(start, line)` order
/// tie-break).
fn materialize(ops: &[TraceOp]) -> String {
    let mut lines: Vec<String> = Vec::new();
    // Scheduled resumed lines: (emit once lines.len() >= due, text).
    let mut scheduled: Vec<(usize, String)> = Vec::new();
    let mut clock = 8 * 3600 * 1_000_000u64;
    let flush = |lines: &mut Vec<String>, scheduled: &mut Vec<(usize, String)>| {
        while let Some(pos) = scheduled.iter().position(|(due, _)| *due <= lines.len()) {
            let (_, line) = scheduled.remove(pos);
            lines.push(line);
        }
    };
    for (i, op) in ops.iter().enumerate() {
        clock += (i as u64 * 7) % 3; // 0..=2 µs steps, duplicates included
        let t = st_inspector::model::Micros(clock).format_time_of_day();
        match op {
            TraceOp::Complete { .. }
            | TraceOp::Unknown { .. }
            | TraceOp::NeverResumed { .. }
            | TraceOp::OrphanResumed { .. }
            | TraceOp::Restarted { .. } => lines.push(record_line(op, &t)),
            TraceOp::Split {
                pid,
                write,
                path,
                size,
                delay,
            } => {
                lines.push(format!(
                    "{pid}  {t} {}(3<{path}>, <unfinished ...>",
                    call_name(*write)
                ));
                let resumed = format!(
                    "{pid}  {t} <... {} resumed> \"...\", 8192) = {size} <0.000223>",
                    call_name(*write)
                );
                scheduled.push((lines.len() + delay, resumed));
            }
            TraceOp::Garbage => lines.push("not a trace record at all".to_string()),
            TraceOp::Noise { pid, exit } => {
                if *exit {
                    lines.push(format!("{pid}  {t} +++ exited with 0 +++"));
                } else {
                    lines.push(format!("{pid}  {t} --- SIGCHLD {{si_signo=SIGCHLD}} ---"));
                }
            }
            TraceOp::Mangled { base, flips, cut } => {
                // Records are ASCII and masks stay below 0x80, so the
                // damaged line is still valid UTF-8.
                let mut bytes = record_line(base, &t).into_bytes();
                for &(pos, mask) in flips {
                    let at = pos % bytes.len();
                    bytes[at] ^= mask;
                }
                if let Some(cut) = cut {
                    bytes.truncate(cut % (bytes.len() + 1));
                }
                lines.push(String::from_utf8(bytes).expect("ASCII stays ASCII"));
            }
            TraceOp::Bytes(bytes) => lines.push(String::from_utf8_lossy(bytes).into_owned()),
            TraceOp::Flood(n) => {
                lines.extend((0..*n).map(|k| format!("flood line {k}")));
            }
        }
        flush(&mut lines, &mut scheduled);
    }
    // Remaining scheduled resumptions drain at EOF, in schedule order.
    while !scheduled.is_empty() {
        let (_, line) = scheduled.remove(0);
        lines.push(line);
    }
    let mut text = lines.join("\n");
    if !text.is_empty() {
        text.push('\n');
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `parse_par` at any thread count reproduces `parse_str` exactly:
    /// identical event vectors (symbol ids included — both interners
    /// start empty) and identical warning lists.
    #[test]
    fn parse_par_equals_parse_str(ops in prop::collection::vec(op_strategy(), 0..120), threads in 2usize..10) {
        let text = materialize(&ops);
        let seq_interner = Interner::new();
        let par_interner = Interner::new();
        let seq = parse_str(&text, &seq_interner);
        let par = parse_par(&text, &par_interner, threads);
        prop_assert_eq!(&seq.events, &par.events, "threads={} text:\n{}", threads, text);
        prop_assert_eq!(&seq.warnings, &par.warnings, "threads={} text:\n{}", threads, text);
        // Symbol parity implies resolved-string parity; spot-check it.
        let seq_snap = seq_interner.snapshot();
        let par_snap = par_interner.snapshot();
        prop_assert_eq!(seq_snap.len(), par_snap.len());
        for (a, b) in seq.events.iter().zip(&par.events) {
            prop_assert_eq!(seq_snap.resolve(a.path), par_snap.resolve(b.path));
        }
    }

    /// Chunk boundaries never affect the result: the same text parsed
    /// with different thread counts yields identical outputs.
    #[test]
    fn thread_count_is_irrelevant(ops in prop::collection::vec(op_strategy(), 0..80), a in 2usize..9, b in 2usize..9) {
        let text = materialize(&ops);
        let ia = Interner::new();
        let ib = Interner::new();
        let ra = parse_par(&text, &ia, a);
        let rb = parse_par(&text, &ib, b);
        prop_assert_eq!(&ra.events, &rb.events, "threads {} vs {}", a, b);
        prop_assert_eq!(&ra.warnings, &rb.warnings);
    }

    /// The line-at-a-time `StreamParser` agrees with `parse_str` on every
    /// input, damaged or not: the same events and the same warnings,
    /// which stay within the exemplar cap plus one `Suppressed` trailer.
    #[test]
    fn line_parsers_match_parse_str_on_damaged_input(ops in prop::collection::vec(op_strategy(), 0..120)) {
        let text = materialize(&ops);
        // One interner, filled by the batch parse first: equal symbols
        // then mean equal strings, whatever order each parser interns in.
        let interner = Interner::new_shared();
        let batch = parse_str(&text, &interner);
        // The daemon feeds one `\n`-terminated line at a time.
        let mut stream = StreamParser::new(Arc::clone(&interner));
        for line in text.split_inclusive('\n') {
            stream.feed_line(line);
        }
        let stream = stream.finish();
        prop_assert_eq!(&batch.events, &stream.events, "StreamParser text:\n{}", text);
        prop_assert_eq!(&batch.warnings, &stream.warnings, "StreamParser text:\n{}", text);
        prop_assert!(batch.warnings.len() <= WARNING_CAP + 1, "{} warnings", batch.warnings.len());
    }
}
