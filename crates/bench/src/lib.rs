//! # st-bench — experiment presets and the figure-regeneration harness
//!
//! One preset per evaluation artifact of the paper (see DESIGN.md §5):
//!
//! * [`experiments::ls_experiment`] — the Fig. 1 setup (3 MPI ranks ×
//!   {`ls`, `ls -l`}) behind Figs. 2, 3, 4, 5;
//! * [`experiments::ior_ssf_fpp`] — Sec. V-A (Fig. 8a/8b): IOR single
//!   shared file vs file per process;
//! * [`experiments::ior_mpiio`] — Sec. V-B (Fig. 9): IOR with vs without
//!   the MPI-IO interface;
//! * [`synth`] — synthetic event-log generation for the complexity
//!   benches (mapping O(n), DFG O(n), stats O(n log n), render O(m²)).
//!
//! The `figures` binary (`cargo run -p st-bench --bin figures`)
//! regenerates every figure: the DOT graphs, the per-node statistics
//! rows, and the edge-count series the paper reports.

#![warn(missing_docs)]

pub mod experiments;
pub mod synth;
