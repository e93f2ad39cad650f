//! Property-based tests of the DFG synthesis invariants (Sec. IV-A).

use proptest::prelude::*;
use st_inspector::prelude::*;

mod common;
use common::{build_log, dfg_edges_by_name, log_strategy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flow conservation: per activity node, in-flow = out-flow =
    /// occurrence count; start out-flow = end in-flow = contributing
    /// cases.
    #[test]
    fn dfg_flow_conservation(specs in log_strategy(8, 40)) {
        let log = build_log(&specs);
        let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
        let dfg = Dfg::from_mapped(&mapped);
        prop_assert!(dfg.check_invariants().is_ok());
        // Start out-flow equals the number of cases with >=1 mapped event.
        let contributing = specs.iter().filter(|c| !c.is_empty()).count() as u64;
        prop_assert_eq!(dfg.case_count(), contributing);
    }

    /// Union additivity: G[L(Ca ∪ Cb)] edge counts are the sums of the
    /// partition DFGs' counts (the property partition coloring relies
    /// on).
    #[test]
    fn union_additivity(specs in log_strategy(8, 30)) {
        let log = build_log(&specs);
        let mapping = CallTopDirs::new(2);
        let (ca, cb) = log.partition_by_cid("a");
        let full = Dfg::from_mapped(&MappedLog::new(&log, &mapping));
        let da = Dfg::from_mapped(&MappedLog::new(&ca, &mapping));
        let db = Dfg::from_mapped(&MappedLog::new(&cb, &mapping));
        for (from, to, count) in full.edges() {
            let f = full.node_name(from);
            let t = full.node_name(to);
            prop_assert_eq!(
                count,
                da.edge_count_named(f, t) + db.edge_count_named(f, t),
                "edge {} -> {}", f, t
            );
        }
        prop_assert_eq!(full.case_count(), da.case_count() + db.case_count());
    }

    /// Partition coloring is an exact 3-way split: every activity of the
    /// full DFG is green-only, red-only, or common — and the color
    /// agrees with which sub-log contains it.
    #[test]
    fn partition_coloring_is_exact(specs in log_strategy(8, 30)) {
        let log = build_log(&specs);
        let mapping = CallTopDirs::new(2);
        let (ca, cb) = log.partition_by_cid("a");
        let full = Dfg::from_mapped(&MappedLog::new(&log, &mapping));
        let da = Dfg::from_mapped(&MappedLog::new(&ca, &mapping));
        let db = Dfg::from_mapped(&MappedLog::new(&cb, &mapping));
        let styler = PartitionColoring::new(&da, &db);
        for node in full.nodes() {
            let Some(act) = node.activity() else { continue };
            let name = full.table().name(act);
            let in_a = da.has_activity(name);
            let in_b = db.has_activity(name);
            prop_assert!(in_a || in_b, "{} in neither partition", name);
            let fill = styler.node_style(name).fill;
            match (in_a, in_b) {
                (true, false) => prop_assert_eq!(fill, Some(st_inspector::core::color::Rgb::GREEN)),
                (false, true) => prop_assert_eq!(fill, Some(st_inspector::core::color::Rgb::RED)),
                (true, true) => prop_assert_eq!(fill, None),
                (false, false) => unreachable!(),
            }
        }
    }

    /// The activity-log multiset accounts for every contributing case
    /// exactly once, and rebuilding the DFG from it matches the direct
    /// construction.
    #[test]
    fn activity_log_multiset_consistency(specs in log_strategy(8, 25)) {
        let log = build_log(&specs);
        let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
        let alog = ActivityLog::from_mapped(&mapped);
        let contributing = (0..log.case_count())
            .filter(|&i| !mapped.trace_of(i).is_empty())
            .count();
        prop_assert_eq!(alog.total_traces(), contributing);
        // Every case index appears exactly once across entries.
        let mut seen = std::collections::HashSet::new();
        for entry in alog.entries() {
            prop_assert_eq!(entry.cases.len(), entry.multiplicity);
            for &c in &entry.cases {
                prop_assert!(seen.insert(c));
            }
        }
        let direct = Dfg::from_mapped(&mapped);
        let via = Dfg::from_activity_log(&alog, mapped.table());
        prop_assert_eq!(dfg_edges_by_name(&direct), dfg_edges_by_name(&via));
    }

    /// Statistics normalization: relative durations sum to 1 (when any
    /// time was spent) and byte totals match the raw log.
    #[test]
    fn statistics_normalization(specs in log_strategy(8, 30)) {
        let log = build_log(&specs);
        let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
        let stats = IoStatistics::compute(&mapped);
        let total_load: f64 = stats.iter().map(|(_, _, s)| s.rel_dur).sum();
        if stats.total_dur().as_micros() > 0 {
            prop_assert!((total_load - 1.0).abs() < 1e-9, "loads sum to {}", total_load);
        }
        let stat_bytes: u64 = stats.iter().map(|(_, _, s)| s.bytes).sum();
        prop_assert_eq!(stat_bytes, log.total_bytes());
        for (_, _, s) in stats.iter() {
            prop_assert!(s.max_concurrency >= s.max_concurrency_exact);
            prop_assert!(s.case_concurrency <= s.max_concurrency_exact);
            prop_assert!(u64::from(s.max_concurrency) <= s.events);
        }
    }

    /// Filtering then mapping equals mapping with a filtering mapping
    /// (the two ways Fig. 6 lets you restrict a query).
    #[test]
    fn filter_then_map_equals_partial_mapping(specs in log_strategy(6, 25), needle in "[a-z]{1,4}") {
        let log = build_log(&specs);
        let filtered = log.filter_path_contains(&needle);
        let direct = Dfg::from_mapped(&MappedLog::new(&filtered, &CallTopDirs::new(2)));
        let partial = PathFilter::new(needle.clone(), CallTopDirs::new(2));
        let via_mapping = Dfg::from_mapped(&MappedLog::new(&log, &partial));
        prop_assert_eq!(dfg_edges_by_name(&direct), dfg_edges_by_name(&via_mapping));
    }
}
