//! Property tests of the max-concurrency kernel (Eqs. 14–16), pinned
//! against O(n²) oracles.

use proptest::prelude::*;
use st_inspector::core::concurrency::{max_concurrency, max_concurrency_brute};
use st_inspector::model::Micros;

/// Case ids are drawn below this.
const CASES: usize = 6;

type Interval = (Micros, Micros, usize);

/// Crowded `(start, end, case)` intervals: starts from a narrow range
/// (so equal starts are common), zero-length intervals about half the
/// time, and some intervals repeated verbatim.
fn intervals_strategy() -> impl Strategy<Value = Vec<Interval>> {
    let dur = prop_oneof![Just(0u64), 0u64..80];
    prop::collection::vec((0u64..300, dur, 0..CASES, prop::bool::ANY), 0..60).prop_map(|v| {
        let mut out = Vec::new();
        for (s, d, case, dup) in v {
            let iv = (Micros(s), Micros(s + d), case);
            out.push(iv);
            if dup {
                out.push(iv);
            }
        }
        out
    })
}

/// The kernel on a copy, checking it hands back a zeroed counter.
fn kernel(ivs: &[Interval]) -> (u32, u32, u32) {
    let mut sorted = ivs.to_vec();
    let mut open = vec![0; CASES];
    let out = max_concurrency(&mut sorted, &mut open);
    assert!(open.iter().all(|&c| c == 0), "counters not reset: {open:?}");
    out
}

/// Eq. 16 without the sort: the window opening at interval i holds every
/// interval ordered at or after it by `(start, end)` that starts before
/// `end_i`; a non-empty set has a window of at least 1.
fn windowed_oracle(ivs: &[Interval]) -> u32 {
    ivs.iter()
        .map(|&(si, ei, _)| {
            ivs.iter()
                .filter(|&&(s, e, _)| (s, e) >= (si, ei) && s < ei)
                .count() as u32
        })
        .max()
        .map_or(0, |w| w.max(1))
}

/// The most distinct cases covering one interval start, half-open.
fn cases_oracle(ivs: &[Interval]) -> u32 {
    ivs.iter()
        .map(|&(t, _, _)| {
            let mut seen = [false; CASES];
            for &(s, e, c) in ivs {
                seen[c] |= s <= t && t < e;
            }
            seen.iter().filter(|&&b| b).count() as u32
        })
        .max()
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The exact sweep agrees with the O(n²) brute force.
    #[test]
    fn exact_matches_brute_force(ivs in intervals_strategy()) {
        let pairs: Vec<_> = ivs.iter().map(|&(s, e, _)| (s, e)).collect();
        prop_assert_eq!(kernel(&ivs).1, max_concurrency_brute(&pairs));
    }

    /// The windowed value is Eq. 16 as the paper states it.
    #[test]
    fn windowed_matches_oracle(ivs in intervals_strategy()) {
        prop_assert_eq!(kernel(&ivs).0, windowed_oracle(&ivs));
    }

    /// The case count is the most distinct cases active at one instant.
    #[test]
    fn cases_match_oracle(ivs in intervals_strategy()) {
        prop_assert_eq!(kernel(&ivs).2, cases_oracle(&ivs));
    }

    /// The paper's windowed algorithm upper-bounds the exact value,
    /// which bounds the distinct-case count; the window never exceeds
    /// the interval count.
    #[test]
    fn windowed_bounds(ivs in intervals_strategy()) {
        let (w, e, c) = kernel(&ivs);
        prop_assert!(w >= e, "windowed {} < exact {}", w, e);
        prop_assert!(e >= c, "exact {} < cases {}", e, c);
        prop_assert!(w as usize <= ivs.len());
        prop_assert_eq!(w >= 1, !ivs.is_empty());
    }

    /// Concurrency is invariant under interval reordering.
    #[test]
    fn order_invariance(ivs in intervals_strategy(), seed in 0u64..1000) {
        let mut shuffled = ivs.clone();
        // Simple deterministic shuffle.
        let n = shuffled.len();
        if n > 1 {
            for i in 0..n {
                let j = ((seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % n;
                shuffled.swap(i, j);
            }
        }
        prop_assert_eq!(kernel(&ivs), kernel(&shuffled));
    }

    /// Adding an interval never decreases any of the three values.
    #[test]
    fn monotone_under_insertion(
        ivs in intervals_strategy(),
        s in 0u64..300,
        d in 0u64..80,
        case in 0..CASES,
    ) {
        let (w, e, c) = kernel(&ivs);
        let mut extended = ivs.clone();
        extended.push((Micros(s), Micros(s + d), case));
        let (w2, e2, c2) = kernel(&extended);
        prop_assert!(w2 >= w && e2 >= e && c2 >= c);
    }
}
