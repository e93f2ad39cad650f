//! # st-source — unified trace-source resolution and the `Inspector`
//! # session API
//!
//! The paper's workflow (Fig. 6) is one pipeline — traces → event log
//! → mapping → DFG → statistics/rendering — iterated over progressively
//! narrowed slices. This crate is that pipeline's single entry point:
//!
//! * [`TraceSource`] — a typed, `FromStr`-parsed description of any
//!   input (store file, strace directory, single strace file,
//!   `sim:<workload>[:paper]` spec) with capability flags
//!   ([`supports_pushdown`](TraceSource::supports_pushdown),
//!   [`is_trace_text`](TraceSource::is_trace_text));
//! * [`Inspector`] — a builder-style session that plans the cheapest
//!   evaluation route per source (predicate pushdown on v2 stores,
//!   parallel line-at-a-time loading for strace text, the table-driven
//!   simulation backend for `sim:` specs) and materializes a
//!   [`Session`] for any number of projections;
//! * [`Error`] — the workspace-wide input-resolution error, wrapping
//!   store/strace/query/sim failures with the offending spec;
//! * [`SourceWarning`] — the structured warning channel replacing
//!   ad-hoc stderr prints.
//!
//! Every future backend (seek-based store reader, mmap, remote shards)
//! plugs in behind [`TraceSource`] without touching any front-end.
//! Architecture notes: DESIGN.md §8.
//!
//! ```
//! use st_core::CallTopDirs;
//! use st_query::parse_expr;
//! use st_source::Inspector;
//!
//! // The SSF run's failing calls, as a call+top-dirs DFG — one chain.
//! let dfg = Inspector::open("sim:ssf")?
//!     .filter(parse_expr("ok=false")?)
//!     .map(CallTopDirs::new(2))
//!     .dfg()?;
//! assert!(dfg.activity_node_count() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod error;
mod inspector;
pub mod sim;
mod spec;
mod warning;

pub use error::Error;
pub use inspector::{Inspector, RecoveryPolicy, Session};
pub use spec::TraceSource;
pub use warning::SourceWarning;
