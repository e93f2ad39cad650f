//! Loading directories of trace files into an [`EventLog`].
//!
//! The paper's setup produces one trace file per MPI process (Fig. 1);
//! production runs produce hundreds of files (96 ranks per IOR mode in
//! Sec. V). Parsing is embarrassingly parallel across files, so the
//! loader fans the file list out to a pool of worker threads. Each
//! worker reads its file one line at a time into a worker-local string
//! table, so no file's text is ever held whole; the calling thread then
//! publishes each file's table into the shared [`Interner`] in file
//! order, one batch per file, which makes the result independent of the
//! worker count down to the symbol ids. When the files are too few to
//! use the worker budget (e.g. one huge trace), the spare parallelism is
//! spent *inside* each file via [`crate::parse_par`] instead, which
//! reads the file whole.

use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use st_model::{Case, CaseMeta, EventLog, Interner, LocalInterner};

use crate::error::{StraceError, Warning};
use crate::parser::{parse_lines_local, parse_par, publish_local, ParsedTrace};

/// The extension [`load_dir`] picks trace files by
/// (`<cid>_<host>_<rid>.st`).
const TRACE_EXTENSION: &str = "st";

/// Options for [`load_dir`] / [`load_files`].
#[derive(Debug, Clone, Default)]
pub struct LoadOptions {
    /// Worker count; `0` uses the machine's available parallelism and
    /// `1` parses one file at a time.
    pub threads: usize,
    /// Fail on file names that do not follow the `<cid>_<host>_<rid>.st`
    /// convention. When `false`, a fallback identity (cid = file stem,
    /// host = `local`, rid = position) is synthesized.
    pub strict_names: bool,
}

/// A loaded event log plus per-file warnings.
#[derive(Debug)]
pub struct LoadResult {
    /// The assembled log (one case per file, sorted by file name).
    pub log: EventLog,
    /// Warnings keyed by originating file.
    pub warnings: Vec<(PathBuf, Warning)>,
}

/// Loads every `*.st` trace file in `dir` (non-recursive), in
/// deterministic (name-sorted) case order.
pub fn load_dir(
    dir: &Path,
    interner: Arc<Interner>,
    opts: &LoadOptions,
) -> Result<LoadResult, StraceError> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|source| StraceError::Io {
            path: dir.to_path_buf(),
            source,
        })?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == TRACE_EXTENSION))
        .collect();
    files.sort();
    load_files(&files, interner, opts)
}

/// Loads an explicit list of trace files, preserving list order.
pub fn load_files(
    files: &[PathBuf],
    interner: Arc<Interner>,
    opts: &LoadOptions,
) -> Result<LoadResult, StraceError> {
    let _span = st_obs::span!("strace.load", files = files.len());
    // Resolve case identities up front so naming errors surface before
    // any parsing work.
    let mut metas = Vec::with_capacity(files.len());
    for (idx, path) in files.iter().enumerate() {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        match CaseMeta::parse_trace_file_name(name, &interner) {
            Some(meta) => metas.push(meta),
            None if opts.strict_names => {
                return Err(StraceError::BadFileName {
                    name: name.to_string(),
                })
            }
            None => {
                let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
                metas.push(CaseMeta {
                    cid: interner.intern(stem),
                    host: interner.intern("local"),
                    rid: idx as u32,
                });
            }
        }
    }

    let requested = if opts.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        opts.threads
    };
    let parsed: Vec<ParsedTrace> = if files.len() * 2 <= requested {
        // Fewer files than workers can fill: spend the parallelism
        // *inside* each file (chunked parse) instead of across files.
        files
            .iter()
            .map(|path| {
                let _span = file_span(path);
                let text = std::fs::read_to_string(path).map_err(io_error(path))?;
                Ok(parse_par(&text, &interner, requested))
            })
            .collect::<Result<_, StraceError>>()?
    } else {
        let workers = requested.min(files.len()).max(1);
        parse_files_local(files, workers)?
            .into_iter()
            .map(|(mut parsed, local)| {
                publish_local(&mut parsed, &local, &interner);
                parsed
            })
            .collect()
    };

    let mut log = EventLog::new(interner);
    let mut warnings = Vec::new();
    for ((path, meta), parsed) in files.iter().zip(metas).zip(parsed) {
        warnings.extend(parsed.warnings.into_iter().map(|w| (path.clone(), w)));
        log.push_case(Case {
            meta,
            events: parsed.events,
        });
    }
    Ok(LoadResult { log, warnings })
}

/// Parses every file into its own [`LocalInterner`] on `workers`
/// threads, returning the results in file order.
fn parse_files_local(
    files: &[PathBuf],
    workers: usize,
) -> Result<Vec<(ParsedTrace, LocalInterner)>, StraceError> {
    let mut slots: Vec<Option<(ParsedTrace, LocalInterner)>> =
        (0..files.len()).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    let obs_cx = st_obs::context();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let obs_cx = obs_cx.clone();
            scope.spawn(move || {
                let _obs = obs_cx.attach();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= files.len() {
                        break;
                    }
                    if tx.send((idx, parse_file_local(&files[idx]))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (idx, result) in rx {
            slots[idx] = Some(result?);
        }
        Ok::<(), StraceError>(())
    })?;
    Ok(slots
        .into_iter()
        .map(|slot| slot.expect("every file parsed"))
        .collect())
}

/// Reads `path` one line at a time into a fresh [`LocalInterner`].
fn parse_file_local(path: &Path) -> Result<(ParsedTrace, LocalInterner), StraceError> {
    let _span = file_span(path);
    let file = std::fs::File::open(path).map_err(io_error(path))?;
    let mut local = LocalInterner::new();
    let parsed = parse_lines_local(BufReader::with_capacity(1 << 16, file), &mut local)
        .map_err(io_error(path))?;
    Ok((parsed, local))
}

fn file_span(path: &Path) -> st_obs::Span {
    st_obs::span_with("strace.file", || path.display().to_string())
}

fn io_error(path: &Path) -> impl Fn(std::io::Error) -> StraceError + '_ {
    move |source| StraceError::Io {
        path: path.to_path_buf(),
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn write_tmp_traces(dir: &Path) {
        std::fs::create_dir_all(dir).unwrap();
        for (name, pid) in [
            ("a_host1_9042.st", 9054),
            ("a_host1_9043.st", 9055),
            ("b_host1_9157.st", 9173),
        ] {
            let mut f = std::fs::File::create(dir.join(name)).unwrap();
            writeln!(
                f,
                "{pid}  08:55:54.153994 read(3</usr/lib/libc.so.6>, \"...\", 832) = 832 <0.000203>"
            )
            .unwrap();
            writeln!(
                f,
                "{pid}  08:55:54.176260 write(1</dev/pts/7>, \"...\", 50) = 50 <0.000111>"
            )
            .unwrap();
            writeln!(f, "{pid}  08:55:54.200000 +++ exited with 0 +++").unwrap();
        }
        // A decoy file that must be ignored by extension filtering.
        std::fs::write(dir.join("notes.txt"), "not a trace").unwrap();
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("st-loader-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn loads_directory_in_name_order() {
        let dir = tmpdir("order");
        write_tmp_traces(&dir);
        let interner = Interner::new_shared();
        let result = load_dir(&dir, Arc::clone(&interner), &LoadOptions::default()).unwrap();
        assert_eq!(result.log.case_count(), 3);
        assert_eq!(result.log.total_events(), 6);
        assert!(result.warnings.is_empty());
        let labels: Vec<String> = result
            .log
            .cases()
            .iter()
            .map(|c| c.meta.label(&interner))
            .collect();
        assert_eq!(labels, vec!["a9042", "a9043", "b9157"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Twelve files with per-file path sets, unknown syscalls and
    /// unfinished/resumed pairs, so each file's strings and the order
    /// they are first used in differ.
    fn write_mixed_traces(dir: &Path) {
        std::fs::create_dir_all(dir).unwrap();
        for f in 0..12u32 {
            let pid = 9000 + f;
            let mut body = String::new();
            body.push_str(&format!(
                "{pid}  08:00:00.000001 read(3</data/f{f}/held>, <unfinished ...>\n"
            ));
            for k in 0..30u32 {
                let path = match k % 3 {
                    0 => "/usr/lib/libc.so.6".to_string(),
                    1 => format!("/data/f{f}/p{}", k % 5),
                    _ => format!("/scratch/r{}", (k + f) % 7),
                };
                body.push_str(&format!(
                    "{pid}  08:00:00.{:06} write(4<{path}>, \"...\", 64) = 64 <0.000002>\n",
                    10 + k
                ));
                if k == 12 {
                    body.push_str(&format!(
                        "{pid}  08:00:00.000050 <... read resumed> \"...\", 405) = 404 <0.000223>\n"
                    ));
                    body.push_str(&format!(
                        "{pid}  08:00:00.000051 statx(AT_FDCWD, \"/etc/f{f}\", <unfinished ...>\n"
                    ));
                }
            }
            body.push_str(&format!(
                "{pid}  08:00:00.000090 <... statx resumed> 0, STATX_ALL, {{stx_mask=4095}}) = 0 <0.000002>\n"
            ));
            let name = format!("{}_host1_{}.st", ["a", "b", "c"][f as usize % 3], 100 + f);
            std::fs::write(dir.join(name), body).unwrap();
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        // Every worker budget and every run must build the same log and
        // the same interner string table, in the same order.
        let dir = tmpdir("par");
        write_mixed_traces(&dir);
        let load = |threads: usize| {
            let interner = Interner::new_shared();
            let result = load_dir(
                &dir,
                Arc::clone(&interner),
                &LoadOptions {
                    threads,
                    ..Default::default()
                },
            )
            .unwrap();
            let snap = interner.snapshot();
            let table: Vec<String> = (0..snap.len() as u32)
                .map(|id| snap.resolve(st_model::Symbol(id)).to_string())
                .collect();
            (result, table)
        };
        let (seq, seq_table) = load(1);
        assert_eq!(seq.log.case_count(), 12);
        assert!(seq.warnings.is_empty(), "{:?}", seq.warnings);
        assert!(seq.log.cases().iter().all(|c| c.events.len() == 32));
        // 8 workers over 12 files fan out across files; 32 spend the
        // budget inside each file.
        for threads in [1, 2, 8, 32] {
            for run in 0..3 {
                let (par, par_table) = load(threads);
                assert_eq!(par_table, seq_table, "threads={threads} run={run}");
                assert_eq!(par.log.case_count(), seq.log.case_count());
                for (a, b) in seq.log.cases().iter().zip(par.log.cases()) {
                    assert_eq!(a.meta, b.meta, "threads={threads} run={run}");
                    assert_eq!(a.events, b.events, "threads={threads} run={run}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_large_file_takes_the_chunked_path() {
        // One file with a big worker budget routes through parse_par
        // (files.len() * 2 <= requested) and must match the sequential
        // load event-for-event.
        let dir = tmpdir("chunked");
        std::fs::create_dir_all(&dir).unwrap();
        let mut body = String::new();
        for k in 0..200 {
            body.push_str(&format!(
                "9  08:00:00.{:06} read(3</lib/f{}>, \"...\", 64) = 64 <0.000002>\n",
                k + 1,
                k % 7
            ));
        }
        std::fs::write(dir.join("a_h_1.st"), &body).unwrap();
        let seq = load_dir(
            &dir,
            Interner::new_shared(),
            &LoadOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let par = load_dir(
            &dir,
            Interner::new_shared(),
            &LoadOptions {
                threads: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(par.log.total_events(), 200);
        for (a, b) in seq.log.cases().iter().zip(par.log.cases()) {
            assert_eq!(a.events, b.events);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strict_names_rejects_nonconforming() {
        let dir = tmpdir("strict");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("badname.st"), "").unwrap();
        let err = load_dir(
            &dir,
            Interner::new_shared(),
            &LoadOptions {
                strict_names: true,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, StraceError::BadFileName { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lenient_names_synthesize_identity() {
        let dir = tmpdir("lenient");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("badname.st"),
            "9 08:00:00.000001 read(3</x>, \"\", 10) = 0 <0.000001>\n",
        )
        .unwrap();
        let interner = Interner::new_shared();
        let result = load_dir(&dir, Arc::clone(&interner), &LoadOptions::default()).unwrap();
        assert_eq!(result.log.case_count(), 1);
        let meta = result.log.cases()[0].meta;
        assert_eq!(&*interner.resolve(meta.cid), "badname");
        assert_eq!(&*interner.resolve(meta.host), "local");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_io_error() {
        let err = load_dir(
            Path::new("/nonexistent/st-inspector-test"),
            Interner::new_shared(),
            &LoadOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, StraceError::Io { .. }));
    }

    #[test]
    fn per_file_warning_flood_is_bounded() {
        // Two non-trace files: each contributes at most WARNING_CAP
        // exemplars plus one Suppressed trailer carrying the overflow
        // count, so loading a directory of garbage cannot balloon
        // memory with warning text.
        use crate::error::WARNING_CAP;
        let dir = tmpdir("flood");
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["a_h_1.st", "b_h_2.st"] {
            let mut body = String::new();
            for k in 0..500 {
                body.push_str(&format!("not a trace line {k}\n"));
            }
            std::fs::write(dir.join(name), &body).unwrap();
        }
        let result = load_dir(&dir, Interner::new_shared(), &LoadOptions::default()).unwrap();
        assert_eq!(result.warnings.len(), 2 * (WARNING_CAP + 1));
        for file in ["a_h_1.st", "b_h_2.st"] {
            let ours: Vec<&Warning> = result
                .warnings
                .iter()
                .filter(|(p, _)| p.ends_with(file))
                .map(|(_, w)| w)
                .collect();
            assert_eq!(ours.len(), WARNING_CAP + 1);
            assert_eq!(
                *ours[WARNING_CAP],
                Warning::Suppressed {
                    count: 500 - WARNING_CAP
                }
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warnings_carry_file_attribution() {
        let dir = tmpdir("warn");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("a_h_1.st"),
            "garbage line\n9 08:00:00.000001 read(3</x>, \"\", 10) = 0 <0.000001>\n",
        )
        .unwrap();
        let result = load_dir(&dir, Interner::new_shared(), &LoadOptions::default()).unwrap();
        assert_eq!(result.warnings.len(), 1);
        assert!(result.warnings[0].0.ends_with("a_h_1.st"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
