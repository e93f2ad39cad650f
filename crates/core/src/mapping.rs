//! Mappings `f : E ⇀ A_f` — the partial functions that turn events into
//! activities (Sec. IV "Mapping and Activity").
//!
//! A mapping is *partial*: returning `false` from
//! [`Mapping::write_activity`] leaves the event unmapped, which is how
//! the paper restricts synthesis to a section of the event log (the
//! `/usr/lib` query of Fig. 4). Mappings write the activity name into a
//! caller-provided buffer to avoid per-event allocation in the hot loop.
//!
//! Provided mappings:
//!
//! | type | paper counterpart |
//! |------|-------------------|
//! | [`CallTopDirs`] | `f̂` (Eq. 4): call + path truncated to top-k directory levels |
//! | [`SiteMap`] | `f̄` (Sec. V): call + site variable (`$SCRATCH`, `$HOME`, …) |
//! | [`PathFilter`] | `f₁` (Fig. 4): restrict any mapping to paths containing a substring |
//! | [`PathSuffix`] | Fig. 4 node names: call + path remainder after the matched prefix |
//! | [`CallOnly`] | coarsest query: one activity per syscall |
//! | [`FnMapping`] | arbitrary user closure (Fig. 6 step 2a) |

use st_model::{CaseMeta, Event, InternerSnapshot};

use std::fmt::Write as _;

/// Context handed to mappings: a lock-free interner view for resolving
/// path symbols.
pub struct MapCtx<'a> {
    /// Snapshot of the event log's interner.
    pub snapshot: &'a InternerSnapshot,
}

impl<'a> MapCtx<'a> {
    /// Resolves an event's file path.
    #[inline]
    pub fn path(&self, event: &Event) -> &str {
        self.snapshot.try_resolve(event.path).unwrap_or("")
    }

    /// Resolves an event's syscall name (named calls resolve statically;
    /// `Other` calls resolve through the snapshot).
    #[inline]
    pub fn call_name(&self, event: &Event) -> &str {
        match event.call {
            st_model::Syscall::Other(sym) => self.snapshot.try_resolve(sym).unwrap_or("?"),
            named => named.static_name().unwrap_or("?"),
        }
    }
}

/// A partial function from events to activity names.
///
/// Implementations must be deterministic and `Sync` (one instance may be
/// shared across threads).
pub trait Mapping: Sync {
    /// Writes the activity name for `event` into `out` and returns
    /// `true`, or returns `false` to leave the event unmapped. `out`
    /// arrives cleared.
    fn write_activity(
        &self,
        ctx: &MapCtx<'_>,
        meta: &CaseMeta,
        event: &Event,
        out: &mut String,
    ) -> bool;

    /// Convenience: maps one event to an owned name.
    fn activity_name(&self, ctx: &MapCtx<'_>, meta: &CaseMeta, event: &Event) -> Option<String> {
        let mut buf = String::new();
        if self.write_activity(ctx, meta, event, &mut buf) {
            Some(buf)
        } else {
            None
        }
    }

    /// Whether this mapping's result (including the unmapped case) is a
    /// pure function of the event's `(call, path)` symbols — independent
    /// of the case meta and of every other event attribute.
    ///
    /// Returning `true` lets [`MappedLog`](crate::MappedLog) memoize
    /// activity resolution per distinct `(call, path)` pair, skipping
    /// path resolution, name formatting and table hashing for repeated
    /// symbols — the common case, since traces touch a handful of files
    /// millions of times. Every built-in mapping qualifies (they read
    /// only the call and the path); [`FnMapping`] conservatively keeps
    /// the default `false` because its closure may read anything.
    fn keyed_by_call_path(&self) -> bool {
        false
    }
}

/// Truncates `path` to at most its top `levels` components, the
/// truncation of Eq. 4 / Fig. 6 step 2a (`/usr/lib/x86_64-linux-gnu/…` →
/// `/usr/lib` for `levels = 2`).
pub fn truncate_path(path: &str, levels: usize) -> &str {
    if !path.starts_with('/') {
        return path;
    }
    let mut seen = 0usize;
    for (idx, byte) in path.bytes().enumerate().skip(1) {
        if byte == b'/' {
            seen += 1;
            if seen == levels {
                return &path[..idx];
            }
        }
    }
    path
}

/// The paper's mapping `f̂` (Eq. 4): `"<call>:<path truncated to top-k
/// directory levels>"`.
#[derive(Debug, Clone)]
pub struct CallTopDirs {
    levels: usize,
}

impl CallTopDirs {
    /// Creates the mapping; the paper uses `levels = 2`.
    pub fn new(levels: usize) -> Self {
        CallTopDirs { levels }
    }
}

impl Default for CallTopDirs {
    fn default() -> Self {
        Self::new(2)
    }
}

impl Mapping for CallTopDirs {
    fn keyed_by_call_path(&self) -> bool {
        true
    }

    fn write_activity(
        &self,
        ctx: &MapCtx<'_>,
        _meta: &CaseMeta,
        event: &Event,
        out: &mut String,
    ) -> bool {
        let path = ctx.path(event);
        if path.is_empty() {
            return false;
        }
        let _ = write!(
            out,
            "{}:{}",
            ctx.call_name(event),
            truncate_path(path, self.levels)
        );
        true
    }
}

/// One activity per syscall name, ignoring paths.
#[derive(Debug, Clone, Default)]
pub struct CallOnly;

impl Mapping for CallOnly {
    fn keyed_by_call_path(&self) -> bool {
        true
    }

    fn write_activity(
        &self,
        ctx: &MapCtx<'_>,
        _meta: &CaseMeta,
        event: &Event,
        out: &mut String,
    ) -> bool {
        out.push_str(ctx.call_name(event));
        true
    }
}

/// Restricts an inner mapping to events whose path contains a substring
/// — the query-narrowing of Fig. 4 (`f₁` maps an event only if the file
/// path contains `/usr/lib`).
pub struct PathFilter<M> {
    needle: String,
    inner: M,
}

impl<M: Mapping> PathFilter<M> {
    /// Wraps `inner`, mapping only events whose path contains `needle`.
    pub fn new(needle: impl Into<String>, inner: M) -> Self {
        PathFilter {
            needle: needle.into(),
            inner,
        }
    }
}

impl<M: Mapping> Mapping for PathFilter<M> {
    fn keyed_by_call_path(&self) -> bool {
        self.inner.keyed_by_call_path()
    }

    fn write_activity(
        &self,
        ctx: &MapCtx<'_>,
        meta: &CaseMeta,
        event: &Event,
        out: &mut String,
    ) -> bool {
        if !ctx.path(event).contains(self.needle.as_str()) {
            return false;
        }
        self.inner.write_activity(ctx, meta, event, out)
    }
}

/// `"<call>:<path remainder after a prefix>"` — the node naming of
/// Fig. 4, where `/usr/lib/x86_64-linux-gnu/libselinux.so.1` renders as
/// `x86_64-linux-gnu/libselinux.so.1` once the synthesis is restricted
/// to `/usr/lib`. Events whose path lacks the prefix are unmapped.
#[derive(Debug, Clone)]
pub struct PathSuffix {
    prefix: String,
}

impl PathSuffix {
    /// Creates the mapping for the given path prefix.
    pub fn new(prefix: impl Into<String>) -> Self {
        PathSuffix {
            prefix: prefix.into(),
        }
    }
}

impl Mapping for PathSuffix {
    fn keyed_by_call_path(&self) -> bool {
        true
    }

    fn write_activity(
        &self,
        ctx: &MapCtx<'_>,
        _meta: &CaseMeta,
        event: &Event,
        out: &mut String,
    ) -> bool {
        let path = ctx.path(event);
        let Some(pos) = path.find(self.prefix.as_str()) else {
            return false;
        };
        let suffix = path[pos + self.prefix.len()..].trim_start_matches('/');
        let shown = if suffix.is_empty() { path } else { suffix };
        let _ = write!(out, "{}:{}", ctx.call_name(event), shown);
        true
    }
}

/// A site rule for [`SiteMap`]: paths starting with `prefix` are
/// abstracted to `alias`.
#[derive(Debug, Clone)]
pub struct SiteRule {
    /// Path prefix to match (longest match wins).
    pub prefix: String,
    /// Site variable shown instead (e.g. `$SCRATCH`).
    pub alias: String,
}

/// The experiments' mapping `f̄` (Sec. V): like Eq. 4 but with file paths
/// abstracted by site-specific variables — `/p/scratch/<user>/…` becomes
/// `$SCRATCH`, `/p/software/…` becomes `$SOFTWARE`, node-local paths
/// (`/dev/shm`, `/tmp`) become `Node Local`.
///
/// `extra_levels` keeps that many path components after the alias, which
/// is how Fig. 8b distinguishes `$SCRATCH/ssf` from `$SCRATCH/fpp`.
#[derive(Debug, Clone)]
pub struct SiteMap {
    rules: Vec<SiteRule>,
    /// Components kept after the alias.
    pub extra_levels: usize,
    /// Truncation depth (Eq. 4) for paths matching no rule.
    pub fallback_levels: usize,
}

impl SiteMap {
    /// Creates a site map from `(prefix, alias)` pairs.
    pub fn new(rules: impl IntoIterator<Item = (String, String)>) -> Self {
        let mut rules: Vec<SiteRule> = rules
            .into_iter()
            .map(|(prefix, alias)| SiteRule { prefix, alias })
            .collect();
        // Longest prefix first so overlapping rules resolve as expected.
        rules.sort_by_key(|r| std::cmp::Reverse(r.prefix.len()));
        SiteMap {
            rules,
            extra_levels: 0,
            fallback_levels: 2,
        }
    }

    /// Keeps `levels` path components after the alias (Fig. 8b uses 1).
    pub fn with_extra_levels(mut self, levels: usize) -> Self {
        self.extra_levels = levels;
        self
    }

    /// Sets the Eq. 4 truncation depth for unmatched paths.
    pub fn with_fallback_levels(mut self, levels: usize) -> Self {
        self.fallback_levels = levels;
        self
    }

    fn rewrite(&self, path: &str, out: &mut String) {
        for rule in &self.rules {
            if let Some(rest) = path.strip_prefix(rule.prefix.as_str()) {
                out.push_str(&rule.alias);
                if self.extra_levels > 0 {
                    let rest = rest.trim_start_matches('/');
                    for (i, comp) in rest.split('/').enumerate() {
                        if i >= self.extra_levels || comp.is_empty() {
                            break;
                        }
                        out.push('/');
                        out.push_str(comp);
                    }
                }
                return;
            }
        }
        out.push_str(truncate_path(path, self.fallback_levels));
    }
}

impl Mapping for SiteMap {
    fn keyed_by_call_path(&self) -> bool {
        true
    }

    fn write_activity(
        &self,
        ctx: &MapCtx<'_>,
        _meta: &CaseMeta,
        event: &Event,
        out: &mut String,
    ) -> bool {
        let path = ctx.path(event);
        if path.is_empty() {
            return false;
        }
        let _ = write!(out, "{}:", ctx.call_name(event));
        self.rewrite(path, out);
        true
    }
}

/// Mapping from an arbitrary closure — the Rust analogue of handing a
/// Python function to `apply_mapping_fn` (Fig. 6 step 2b).
pub struct FnMapping<F>(pub F)
where
    F: Fn(&MapCtx<'_>, &CaseMeta, &Event) -> Option<String> + Sync;

impl<F> Mapping for FnMapping<F>
where
    F: Fn(&MapCtx<'_>, &CaseMeta, &Event) -> Option<String> + Sync,
{
    fn write_activity(
        &self,
        ctx: &MapCtx<'_>,
        meta: &CaseMeta,
        event: &Event,
        out: &mut String,
    ) -> bool {
        match (self.0)(ctx, meta, event) {
            Some(name) => {
                out.push_str(&name);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_model::{Event, Interner, Micros, Pid, Syscall};

    fn fixture(path: &str) -> (Interner, Event, CaseMeta) {
        let i = Interner::new();
        let meta = CaseMeta {
            cid: i.intern("a"),
            host: i.intern("h"),
            rid: 1,
        };
        let e = Event::new(Pid(1), Syscall::Read, Micros(0), Micros(1), i.intern(path));
        (i, e, meta)
    }

    fn apply(m: &dyn Mapping, i: &Interner, meta: &CaseMeta, e: &Event) -> Option<String> {
        let snap = i.snapshot();
        let ctx = MapCtx { snapshot: &snap };
        m.activity_name(&ctx, meta, e)
    }

    #[test]
    fn truncate_path_matches_fig6_python() {
        // The paper's Python: split('/'); if len > 2 keep /dirs[1]/dirs[2].
        assert_eq!(
            truncate_path("/usr/lib/x86_64-linux-gnu/libselinux.so.1", 2),
            "/usr/lib"
        );
        assert_eq!(truncate_path("/etc/locale.alias", 2), "/etc/locale.alias");
        assert_eq!(truncate_path("/proc/filesystems", 2), "/proc/filesystems");
        assert_eq!(truncate_path("/dev/pts/7", 2), "/dev/pts");
        assert_eq!(truncate_path("/single", 2), "/single");
        assert_eq!(truncate_path("/a/b/c", 1), "/a");
        assert_eq!(truncate_path("relative/path", 2), "relative/path");
    }

    #[test]
    fn call_top_dirs_is_eq4() {
        let (i, e, meta) = fixture("/usr/lib/x86_64-linux-gnu/libselinux.so.1");
        let name = apply(&CallTopDirs::new(2), &i, &meta, &e).unwrap();
        assert_eq!(name, "read:/usr/lib");
    }

    #[test]
    fn call_top_dirs_skips_pathless_events() {
        let (i, e, meta) = fixture("");
        assert_eq!(apply(&CallTopDirs::new(2), &i, &meta, &e), None);
    }

    #[test]
    fn call_only_ignores_paths() {
        let (i, e, meta) = fixture("/any/path");
        assert_eq!(apply(&CallOnly, &i, &meta, &e).unwrap(), "read");
    }

    #[test]
    fn path_filter_restricts_domain() {
        let m = PathFilter::new("/usr/lib", CallTopDirs::new(2));
        let (i, e, meta) = fixture("/usr/lib/libc.so.6");
        assert_eq!(apply(&m, &i, &meta, &e).unwrap(), "read:/usr/lib");
        let (i, e, meta) = fixture("/etc/passwd");
        assert_eq!(apply(&m, &i, &meta, &e), None);
    }

    #[test]
    fn path_suffix_matches_fig4_names() {
        let m = PathSuffix::new("/usr/lib");
        let (i, e, meta) = fixture("/usr/lib/x86_64-linux-gnu/libselinux.so.1");
        assert_eq!(
            apply(&m, &i, &meta, &e).unwrap(),
            "read:x86_64-linux-gnu/libselinux.so.1"
        );
        let (i, e, meta) = fixture("/etc/passwd");
        assert_eq!(apply(&m, &i, &meta, &e), None);
    }

    #[test]
    fn site_map_abstracts_prefixes() {
        let m = SiteMap::new([
            ("/p/scratch/user1".to_string(), "$SCRATCH".to_string()),
            ("/p/software".to_string(), "$SOFTWARE".to_string()),
            ("/dev/shm".to_string(), "Node Local".to_string()),
            ("/tmp".to_string(), "Node Local".to_string()),
        ]);
        let (i, e, meta) = fixture("/p/scratch/user1/ssf/testfile");
        assert_eq!(apply(&m, &i, &meta, &e).unwrap(), "read:$SCRATCH");
        let (i, e, meta) = fixture("/dev/shm/mpi_shmem_0");
        assert_eq!(apply(&m, &i, &meta, &e).unwrap(), "read:Node Local");
        // Fallback truncation for unmatched paths.
        let (i, e, meta) = fixture("/usr/lib/x/y.so");
        assert_eq!(apply(&m, &i, &meta, &e).unwrap(), "read:/usr/lib");
    }

    #[test]
    fn site_map_extra_levels_distinguishes_subdirs() {
        // Fig. 8b: $SCRATCH/ssf vs $SCRATCH/fpp.
        let m = SiteMap::new([("/p/scratch/user1".to_string(), "$SCRATCH".to_string())])
            .with_extra_levels(1);
        let (i, e, meta) = fixture("/p/scratch/user1/ssf/testfile");
        assert_eq!(apply(&m, &i, &meta, &e).unwrap(), "read:$SCRATCH/ssf");
        let (i, e, meta) = fixture("/p/scratch/user1/fpp/testfile.00000042");
        assert_eq!(apply(&m, &i, &meta, &e).unwrap(), "read:$SCRATCH/fpp");
    }

    #[test]
    fn site_map_longest_prefix_wins() {
        let m = SiteMap::new([
            ("/p".to_string(), "$P".to_string()),
            ("/p/scratch".to_string(), "$SCRATCH".to_string()),
        ]);
        let (i, e, meta) = fixture("/p/scratch/x");
        assert_eq!(apply(&m, &i, &meta, &e).unwrap(), "read:$SCRATCH");
        let (i, e, meta) = fixture("/p/other/x");
        assert_eq!(apply(&m, &i, &meta, &e).unwrap(), "read:$P");
    }

    #[test]
    fn fn_mapping_closure() {
        let m = FnMapping(|ctx: &MapCtx<'_>, _meta: &CaseMeta, e: &Event| {
            let p = ctx.path(e);
            p.ends_with(".so.6").then(|| format!("lib:{p}"))
        });
        let (i, e, meta) = fixture("/usr/lib/libc.so.6");
        assert_eq!(apply(&m, &i, &meta, &e).unwrap(), "lib:/usr/lib/libc.so.6");
        let (i, e, meta) = fixture("/etc/passwd");
        assert_eq!(apply(&m, &i, &meta, &e), None);
    }

    #[test]
    fn other_syscalls_resolve_names() {
        let i = Interner::new();
        let meta = CaseMeta {
            cid: i.intern("a"),
            host: i.intern("h"),
            rid: 1,
        };
        let e = Event::new(
            Pid(1),
            Syscall::Other(i.intern("statx")),
            Micros(0),
            Micros(1),
            i.intern("/x/y"),
        );
        let snap = i.snapshot();
        let ctx = MapCtx { snapshot: &snap };
        assert_eq!(
            CallTopDirs::new(2).activity_name(&ctx, &meta, &e).unwrap(),
            "statx:/x/y"
        );
    }
}
