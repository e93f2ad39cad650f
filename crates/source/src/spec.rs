//! [`TraceSource`] — a typed description of any pipeline input.
//!
//! Every `stinspect` subcommand (and every library caller) names its
//! input the same way: a store container file, a directory of strace
//! files, a single strace file, or a `sim:<workload>[:paper]` spec.
//! `TraceSource` parses that spelling once ([`FromStr`]), classifies
//! the input (directories by the filesystem, files by sniffing the
//! `STLOG` magic) and exposes *capability flags* so the session planner
//! can pick the cheapest evaluation route per source — predicate
//! pushdown on v2 stores, parallel line-at-a-time parsing on trace
//! text.

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

use crate::error::Error;
use crate::sim;

/// A typed, parsed description of one pipeline input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceSource {
    /// An STLOG container file; `version` is sniffed from the header
    /// (1 or 2; unknown future versions still parse here and fail with
    /// `UnsupportedVersion` when the store is actually opened, and `0`
    /// marks a file consistent with a truncated container header, which
    /// the open then rejects as corrupt).
    Store {
        /// Path of the container file.
        path: PathBuf,
        /// Header format version.
        version: u32,
    },
    /// A directory of strace text files (one case per file).
    TraceDir(PathBuf),
    /// A single strace text file (a one-case log).
    TraceFile(PathBuf),
    /// An in-memory simulated workload, spelled `sim:<name>[:paper]`.
    Sim {
        /// Workload name (see [`sim::workload_names`]).
        workload: String,
        /// Run at the paper's full scale (96 ranks) instead of the
        /// small default.
        paper: bool,
    },
    /// The sealed container of a **live ingest service**, spelled
    /// `live:<path>` — the store a `stinspect serve` daemon checkpoints
    /// while ingest continues. Unlike a bare path, the spec parses even
    /// when the file does not exist yet (the daemon may not have sealed
    /// its first block): the session then opens as an empty log instead
    /// of a spec error, so queries are valid at any point of the
    /// container's life.
    Live(PathBuf),
}

impl TraceSource {
    /// Whether the session planner can push a predicate *into* the
    /// reader for this source (zone-mapped block pruning, read
    /// out-of-core): true only for STLOG v2 containers, whose block
    /// directory carries the zone maps pruning needs.
    pub fn supports_pushdown(&self) -> bool {
        match self {
            TraceSource::Store { version: 2, .. } => true,
            // A live container's capabilities follow what the daemon
            // has sealed *so far*: sniffed at ask time, not parse time.
            TraceSource::Live(path) => sniff_store_version(path) == Some(2),
            _ => false,
        }
    }

    /// Whether this source is a live-service container (`live:<path>`):
    /// the store may be rewritten (atomically) or not exist yet, and
    /// sessions over it represent a point-in-time snapshot of whatever
    /// the daemon had sealed.
    pub fn is_live(&self) -> bool {
        matches!(self, TraceSource::Live(_))
    }

    /// Whether the source is strace text (and therefore honors
    /// [`st_strace::LoadOptions`]); stores and simulated logs
    /// materialize whole structures instead.
    pub fn is_trace_text(&self) -> bool {
        matches!(self, TraceSource::TraceDir(_) | TraceSource::TraceFile(_))
    }
}

impl fmt::Display for TraceSource {
    /// Renders the spec in the spelling [`FromStr`] accepts, so error
    /// messages and logs round-trip.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceSource::Store { path, .. } => write!(f, "{}", path.display()),
            TraceSource::TraceDir(path) | TraceSource::TraceFile(path) => {
                write!(f, "{}", path.display())
            }
            TraceSource::Sim { workload, paper } => {
                write!(f, "sim:{workload}{}", if *paper { ":paper" } else { "" })
            }
            TraceSource::Live(path) => write!(f, "live:{}", path.display()),
        }
    }
}

impl FromStr for TraceSource {
    type Err = Error;

    /// Parses an input spec.
    ///
    /// `sim:` specs validate their workload name against the simulation
    /// table; paths are classified by the filesystem (directory → trace
    /// dir; file → store if it carries the `STLOG` magic, strace text
    /// otherwise). A path that names nothing is an error carrying the
    /// spec.
    ///
    /// ```
    /// use st_source::TraceSource;
    ///
    /// let src: TraceSource = "sim:ssf".parse().unwrap();
    /// assert_eq!(src, TraceSource::Sim { workload: "ssf".into(), paper: false });
    /// assert!(!src.supports_pushdown()); // pushdown needs a v2 store
    /// assert!("sim:frobnicate".parse::<TraceSource>().is_err());
    ///
    /// let paper: TraceSource = "sim:ior-mpiio:paper".parse().unwrap();
    /// assert_eq!(paper.to_string(), "sim:ior-mpiio:paper");
    /// ```
    fn from_str(spec: &str) -> Result<TraceSource, Error> {
        if let Some(rest) = spec.strip_prefix("sim:") {
            let (name, paper) = match rest.strip_suffix(":paper") {
                Some(name) => (name, true),
                None => (rest, false),
            };
            if !sim::is_workload(name) {
                return Err(sim::unknown_workload(spec, name));
            }
            return Ok(TraceSource::Sim {
                workload: name.to_string(),
                paper,
            });
        }
        if let Some(rest) = spec.strip_prefix("live:") {
            if rest.is_empty() {
                return Err(Error::Spec {
                    spec: spec.to_string(),
                    reason: "live: needs a container path (live:<path>)".to_string(),
                });
            }
            // Deliberately no existence check: the daemon may not have
            // sealed its first checkpoint yet.
            return Ok(TraceSource::Live(PathBuf::from(rest)));
        }
        let path = PathBuf::from(spec);
        if path.is_dir() {
            return Ok(TraceSource::TraceDir(path));
        }
        if path.is_file() {
            return Ok(match sniff_store_version(&path) {
                Some(version) => TraceSource::Store { path, version },
                None => TraceSource::TraceFile(path),
            });
        }
        Err(Error::Spec {
            spec: spec.to_string(),
            reason: "no such file or directory (expected a store file, an strace \
                     file or directory, or a sim:<workload>[:paper] spec)"
                .to_string(),
        })
    }
}

/// Reads the first 12 bytes of `path`; `Some(version)` when they carry
/// an `STLOG` magic, and `Some(0)` when the file is *consistent with a
/// truncated container* (shorter than a full header but a prefix of
/// the magic, including the empty file) — classifying those as stores
/// makes the real open surface `BadMagic`/`Corrupt` instead of the
/// strace route silently parsing container bytes as an empty trace.
/// I/O errors on the probe classify as "not a store"; whichever route
/// then opens the file reports them with full context.
pub(crate) fn sniff_store_version(path: &std::path::Path) -> Option<u32> {
    use std::io::Read as _;
    let mut head = [0u8; 12];
    let mut file = std::fs::File::open(path).ok()?;
    let mut n = 0;
    loop {
        match file.read(&mut head[n..]) {
            Ok(0) => break,
            Ok(got) => n += got,
            Err(_) => return None,
        }
        if n == head.len() {
            break;
        }
    }
    if n == head.len() && head.starts_with(b"STLOG") {
        return Some(u32::from_le_bytes([head[8], head[9], head[10], head[11]]));
    }
    let prefix = n.min(5);
    (n < head.len() && head[..prefix] == b"STLOG"[..prefix]).then_some(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_specs_parse_and_roundtrip() {
        for (spec, name, paper) in [
            ("sim:ls", "ls", false),
            ("sim:ior-ssf-fpp:paper", "ior-ssf-fpp", true),
            ("sim:fpp", "fpp", false),
        ] {
            let src: TraceSource = spec.parse().unwrap();
            assert_eq!(
                src,
                TraceSource::Sim {
                    workload: name.to_string(),
                    paper
                }
            );
            assert_eq!(src.to_string(), spec);
            assert!(!src.supports_pushdown());
            assert!(!src.is_trace_text());
        }
    }

    #[test]
    fn live_specs_parse_without_existence_and_sniff_capabilities() {
        // Parses even though nothing exists at the path.
        let spec = "live:/nonexistent/st-live-test.stlog";
        let src: TraceSource = spec.parse().unwrap();
        assert_eq!(
            src,
            TraceSource::Live(PathBuf::from("/nonexistent/st-live-test.stlog"))
        );
        assert_eq!(src.to_string(), spec);
        assert!(src.is_live());
        // No container yet → no pushdown/seek capabilities yet.
        assert!(!src.supports_pushdown());
        assert!(!src.is_trace_text());

        // Once a v2 container appears at the path, capabilities follow.
        let dir = std::env::temp_dir().join(format!("st-source-live-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("live.stlog");
        let log = st_model::EventLog::with_new_interner();
        std::fs::write(&store, st_store::to_bytes(&log).unwrap()).unwrap();
        let live: TraceSource = format!("live:{}", store.display()).parse().unwrap();
        assert!(live.supports_pushdown());

        assert!("live:".parse::<TraceSource>().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_workload_is_a_spec_error() {
        let err = "sim:nope".parse::<TraceSource>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown workload"), "{msg}");
        assert!(msg.contains("sim:nope"), "{msg}");
    }

    #[test]
    fn missing_path_is_a_spec_error() {
        let err = "/nonexistent/st-source-test"
            .parse::<TraceSource>()
            .unwrap_err();
        assert!(err.to_string().contains("/nonexistent/st-source-test"));
    }

    #[test]
    fn files_classify_by_magic() {
        let dir = std::env::temp_dir().join(format!("st-source-spec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let as_dir: TraceSource = dir.to_str().unwrap().parse().unwrap();
        assert_eq!(as_dir, TraceSource::TraceDir(dir.clone()));

        let trace = dir.join("a_h_1.st");
        std::fs::write(
            &trace,
            "9 08:00:00.000001 read(3</x>, \"\", 1) = 0 <0.000001>\n",
        )
        .unwrap();
        let as_file: TraceSource = trace.to_str().unwrap().parse().unwrap();
        assert_eq!(as_file, TraceSource::TraceFile(trace.clone()));
        assert!(as_file.is_trace_text() && !as_file.supports_pushdown());

        let store = dir.join("x.stlog");
        let log = st_model::EventLog::with_new_interner();
        std::fs::write(&store, st_store::to_bytes(&log).unwrap()).unwrap();
        let as_store: TraceSource = store.to_str().unwrap().parse().unwrap();
        assert_eq!(
            as_store,
            TraceSource::Store {
                path: store.clone(),
                version: 2
            }
        );
        assert!(as_store.supports_pushdown());

        std::fs::write(&store, st_store::to_bytes_v1(&log).unwrap()).unwrap();
        let as_v1: TraceSource = store.to_str().unwrap().parse().unwrap();
        assert!(matches!(as_v1, TraceSource::Store { version: 1, .. }));
        assert!(!as_v1.supports_pushdown());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_container_headers_classify_as_stores() {
        // A container cut below its 12-byte header (or an empty file)
        // must stay on the store route, where the open surfaces
        // BadMagic/Corrupt — never on the strace route, which would
        // silently parse the bytes as an empty trace.
        let dir = std::env::temp_dir().join(format!("st-source-trunc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cut.stlog");
        for head in [&b""[..], b"S", b"STL", b"STLOG", b"STLOG2\0\0\x02"] {
            std::fs::write(&path, head).unwrap();
            let src: TraceSource = path.to_str().unwrap().parse().unwrap();
            assert!(
                matches!(src, TraceSource::Store { version: 0, .. }),
                "{head:?} -> {src:?}"
            );
        }
        // A short non-container file still classifies as strace text.
        std::fs::write(&path, b"garbage").unwrap();
        let src: TraceSource = path.to_str().unwrap().parse().unwrap();
        assert!(matches!(src, TraceSource::TraceFile(_)), "{src:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
