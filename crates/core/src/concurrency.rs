//! Interval concurrency analysis (Eq. 14–16).
//!
//! The paper's `get_max_concurrency` "first sorts `t_f` according to
//! increasing start timestamps, iterates through the sorted `t_f`, and
//! determines the maximum number of consecutive events that could be
//! identified such that the end time of the first event is greater than
//! the start time of the last event."
//!
//! That windowed criterion is an upper bound on the *pointwise*
//! concurrency — the largest number of intervals that overlap a single
//! instant (the classic sweep-line) — because a window's middle
//! intervals need not overlap each other. [`max_concurrency`] computes
//! both, plus the number of distinct cases active at one instant, from
//! one start sort and one end sort: O(n log n) per activity. The
//! statistics module reports the paper's windowed value as `mc_f` and
//! keeps the other two beside it.

use st_model::Micros;

/// Max-concurrency of one activity's `(start, end, case)` intervals:
/// `(windowed, exact, cases)`.
///
/// * `windowed` — the paper's Eq. 16: the longest run `[i..j]` of the
///   `(start, end)`-sorted intervals with `end_i > start_j`, and 1 for
///   any non-empty set;
/// * `exact` — the most intervals covering one instant;
/// * `cases` — the most distinct cases covering one instant (`Ranks:`,
///   Fig. 3c).
///
/// Coverage is half-open, `[start, end.max(start))`: an interval ending
/// exactly when another starts does not overlap it, and a zero-length
/// interval covers no instant.
///
/// Sorts `intervals` in place. `open` is the per-case counter: it must
/// hold a zero for every case id in `intervals` (so its length bounds
/// the case ids; a larger one panics), and is all zeros again on return,
/// so one buffer serves every activity of a log.
pub fn max_concurrency(
    intervals: &mut [(Micros, Micros, usize)],
    open: &mut [i32],
) -> (u32, u32, u32) {
    if intervals.is_empty() {
        return (0, 0, 0);
    }
    // Sort by (start, end): the paper only specifies increasing start
    // timestamps, but breaking start ties by end makes the windowed
    // value independent of input order.
    intervals.sort_unstable_by_key(|&(s, e, _)| (s, e));
    let mut windowed = 1;
    for (i, &(start, end, _)) in intervals.iter().enumerate() {
        // The window opening at i runs to the first start at or after
        // `end`; a zero-length interval's window is empty.
        if end <= start {
            continue;
        }
        // Windows are short: gallop forward from i to bracket that
        // boundary, then binary-search only the bracket.
        let rest = &intervals[i + 1..];
        let mut hi = 1;
        while hi < rest.len() && rest[hi - 1].0 < end {
            hi *= 2;
        }
        let hi = hi.min(rest.len());
        windowed = windowed.max(1 + rest[..hi].partition_point(|&(s, _, _)| s < end));
    }

    let mut ends: Vec<(Micros, usize)> = intervals.iter().map(|&(s, e, c)| (e.max(s), c)).collect();
    ends.sort_unstable_by_key(|&(t, _)| t);
    let mut ends = ends.into_iter().peekable();
    let (mut active, mut exact) = (0i64, 0i64);
    let (mut cases, mut max_cases) = (0u32, 0u32);
    for &(start, _, case) in intervals.iter() {
        // Every end at `start` closes before any start at `start` opens,
        // zero-length intervals included; a counter may dip below zero
        // until its own start arrives.
        while let Some((_, c)) = ends.next_if(|&(t, _)| t <= start) {
            active -= 1;
            open[c] -= 1;
            if open[c] == 0 {
                cases -= 1;
            }
        }
        active += 1;
        exact = exact.max(active);
        open[case] += 1;
        if open[case] == 1 {
            cases += 1;
            max_cases = max_cases.max(cases);
        }
    }
    for &(_, _, c) in intervals.iter() {
        open[c] = 0;
    }
    (windowed as u32, exact as u32, max_cases)
}

/// Brute-force reference for the `exact` value of [`max_concurrency`]:
/// for every interval start, count the intervals covering it. Only for
/// testing/verification (O(n²)).
pub fn max_concurrency_brute(intervals: &[(Micros, Micros)]) -> u32 {
    intervals
        .iter()
        .map(|&(t, _)| intervals.iter().filter(|&&(s, e)| s <= t && t < e).count() as u32)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Triples = [(u64, u64, usize)];

    /// `(windowed, exact, cases)` of `(start, end, case)` triples.
    fn mc(triples: &Triples) -> (u32, u32, u32) {
        let mut ivs: Vec<_> = triples
            .iter()
            .map(|&(s, e, c)| (Micros(s), Micros(e), c))
            .collect();
        let mut open = vec![0; 8];
        let out = max_concurrency(&mut ivs, &mut open);
        assert!(open.iter().all(|&c| c == 0), "counters not reset: {open:?}");
        out
    }

    #[test]
    fn known_shapes() {
        let shapes: [(&Triples, (u32, u32, u32)); 13] = [
            (&[], (0, 0, 0)),
            (&[(0, 10, 3)], (1, 1, 1)),
            // Disjoint.
            (&[(0, 5, 0), (10, 15, 1), (20, 25, 2)], (1, 1, 1)),
            (&[(0, 100, 0), (1, 99, 1), (2, 98, 2)], (3, 3, 3)),
            // Like the paper's Fig. 5: at most two of three ranks read
            // /usr/lib at the same time.
            (&[(0, 10, 0), (8, 20, 1), (25, 30, 2)], (2, 2, 2)),
            // Touching endpoints do not overlap, in any of the three.
            (&[(0, 10, 0), (10, 20, 1)], (1, 1, 1)),
            // (0,10) spans (1,2) and (5,6), but those two never overlap
            // each other: the window exceeds the exact value.
            (&[(0, 10, 0), (1, 2, 1), (5, 6, 2)], (3, 2, 2)),
            (
                &[
                    (0, 100, 0),
                    (10, 20, 1),
                    (30, 40, 2),
                    (50, 60, 3),
                    (99, 100, 4),
                ],
                (5, 2, 2),
            ),
            (&[(0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 1, 3)], (4, 4, 4)),
            (&[(0, 4, 0), (1, 5, 1), (2, 6, 2), (3, 7, 3)], (4, 4, 4)),
            // Zero-length intervals cover no instant; their end at 5
            // closes before the starts at 5 open.
            (&[(5, 5, 0), (5, 5, 1)], (1, 0, 0)),
            (&[(5, 5, 0), (5, 10, 0), (5, 8, 1)], (2, 2, 2)),
            // Overlapping events of one case count as one case.
            (&[(0, 100, 0), (10, 90, 0), (200, 300, 1)], (2, 2, 1)),
        ];
        for (triples, want) in shapes {
            assert_eq!(mc(triples), want, "{triples:?}");
        }
    }

    #[test]
    fn exact_matches_brute_force() {
        let triples = [
            (0, 10, 0),
            (2, 3, 1),
            (2, 8, 2),
            (9, 12, 3),
            (11, 15, 4),
            (14, 14, 5),
        ];
        let ivs: Vec<_> = triples
            .iter()
            .map(|&(s, e, _)| (Micros(s), Micros(e)))
            .collect();
        assert_eq!(mc(&triples).1, max_concurrency_brute(&ivs));
    }
}
