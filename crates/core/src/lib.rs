//! # st-core — Directly-Follows-Graph synthesis of I/O system-call traces
//!
//! This crate implements the methodology of Sec. IV of *"Inspection of
//! I/O Operations from System Call Traces using Directly-Follows-Graph"*
//! (Sankaran, Zhukov, Frings, Bientinesi — SC'24, arXiv:2408.07378): the
//! paper's primary contribution.
//!
//! The pipeline mirrors the paper's Fig. 6 workflow step by step:
//!
//! ```
//! use st_core::prelude::*;
//! use st_model::EventLog;
//! # fn demo(event_log: EventLog) {
//! // 1) filter the event log (Fig. 6 step 1)
//! let event_log = event_log.filter_path_contains("/usr/lib");
//! // 2) map events to activities (Eq. 4: call + top-2 directory levels)
//! let mapped = MappedLog::new(&event_log, &CallTopDirs::new(2));
//! // 3) construct the DFG (Sec. IV-A)
//! let dfg = Dfg::from_mapped(&mapped);
//! // 4) compute I/O statistics (Sec. IV-B)
//! let stats = IoStatistics::compute(&mapped);
//! // 5a) statistics-based coloring (Sec. IV-C.1)
//! let dot = DfgViewer::new(&dfg)
//!     .with_stats(&stats)
//!     .with_styler(StatisticsColoring::by_load(&stats))
//!     .render_dot();
//! # let _ = dot;
//! # }
//! ```
//!
//! Modules:
//!
//! * [`activity`] — activity identities and the activity name table;
//! * [`mapping`] — the partial functions `f : E ⇀ A_f` of Sec. IV
//!   ([`mapping::CallTopDirs`] is the paper's Eq. 4, [`mapping::SiteMap`]
//!   the site-variable abstraction `f̄` of Sec. V);
//! * [`mapped`] — [`mapped::MappedLog`]: the event log with its activity
//!   column materialized (Fig. 6 step 2), shared by everything below;
//! * [`activity_log`] — the multiset of activity traces
//!   `L_f(C) ∈ B(A_f*)`;
//! * [`dfg`] — DFG construction (one O(n) pass over the mapped log,
//!   plus the mergeable live accumulator);
//! * [`diff`](mod@diff) — cross-run DFG comparison: name-aligned structural diff
//!   with frequency normalization (the Sec. V inspection loop —
//!   SSF vs FPP, MPI-IO vs POSIX — as an operation);
//! * [`stats`] — relative duration, bytes moved, process data rate,
//!   max-concurrency (Eqs. 6–17);
//! * [`concurrency`] — the `get_max_concurrency` interval algorithms;
//! * [`timeline`] — the per-case interval plot of Fig. 5;
//! * [`color`] — statistics-based and partition-based coloring
//!   (Sec. IV-C);
//! * [`render`] — Graphviz DOT emission with the paper's node label
//!   semantics (Fig. 3a) plus plain-text summary tables;
//! * [`viewer`] — the `DFGViewer` facade of Fig. 6.

#![warn(missing_docs)]

pub mod activity;
pub mod activity_log;
pub mod color;
pub mod concurrency;
pub mod dfg;
pub mod diff;
pub mod mapped;
pub mod mapping;
pub mod render;
pub mod stats;
pub mod timeline;
pub mod viewer;

pub use activity::{ActivityId, ActivityTable};
pub use activity_log::ActivityLog;
pub use color::{PartitionColoring, Rgb, StatisticsColoring, Styler};
pub use dfg::{Dfg, DfgAccumulator, Node};
pub use diff::{diff, DfgDiff, DiffSummary, EdgeDiff, NodeDiff, Presence};
pub use mapped::MappedLog;
pub use mapping::{CallOnly, CallTopDirs, FnMapping, Mapping, PathFilter, PathSuffix, SiteMap};
pub use render::{
    render_dfg_dot, render_diff_dot, render_diff_report, render_diff_stats, render_dot,
    render_events_tsv, render_stats_text, render_summary, RenderOptions,
};
pub use stats::{ActivityStats, IoStatistics};
pub use timeline::Timeline;
pub use viewer::DfgViewer;

/// Convenience re-exports for the full Fig. 6 pipeline.
pub mod prelude {
    pub use crate::activity::{ActivityId, ActivityTable};
    pub use crate::activity_log::ActivityLog;
    pub use crate::color::{NoColoring, PartitionColoring, StatisticsColoring, Styler};
    pub use crate::dfg::{Dfg, DfgAccumulator, Node};
    pub use crate::diff::{diff, DfgDiff, DiffSummary, EdgeDiff, NodeDiff, Presence};
    pub use crate::mapped::MappedLog;
    pub use crate::mapping::{
        CallOnly, CallTopDirs, FnMapping, Mapping, PathFilter, PathSuffix, SiteMap,
    };
    pub use crate::render::{
        render_diff_dot, render_diff_report, render_diff_stats, render_dot, render_summary,
        RenderOptions,
    };
    pub use crate::stats::{ActivityStats, IoStatistics};
    pub use crate::timeline::Timeline;
    pub use crate::viewer::DfgViewer;
}
