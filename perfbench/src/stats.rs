//! The benchmark's own arithmetic: means, medians, the tail percentile,
//! open-loop timing from the due time, and the failure ratio.

use std::time::{Duration, Instant};

/// Percentiles a tail may be reported at, highest first. A fixed
/// ladder keeps the reported percentile the same across runs whose
/// sample counts differ a little.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported as
/// the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency: the value at `pct`, with the sample count it was
/// taken from and how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// Nearest-rank percentile of sorted samples: the smallest sample with
/// at least `pct`% of the samples at or below it. Returns the value and
/// its 1-based rank.
fn nearest_rank(sorted: &[f64], pct: f64) -> (f64, usize) {
    let n = sorted.len();
    // The epsilon keeps float error in `pct / 100 * n` from bumping an
    // exact rank (999 of 1000 at p99.9) to the next one.
    let rank = (pct / 100.0 * n as f64 - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    (sorted[rank - 1], rank)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for even counts); `None`
/// when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; NaN when there are no samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The highest percentile on [`TAIL_LADDER`] that still has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it; `None` when even the median
/// does not (fewer than 20 samples).
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    TAIL_LADDER.iter().find_map(|&pct| {
        let (value, rank) = nearest_rank(&v, pct);
        let beyond = n - rank;
        (beyond >= TAIL_MIN_BEYOND).then_some(Tail {
            pct,
            value,
            samples: n,
            beyond,
        })
    })
}

/// Failed operations as a share of attempted ones. Every operation the
/// benchmark tried counts in the base — failed, refused and wrong ones
/// included — so the ratio is never taken over successes only.
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    assert!(
        failed <= attempted,
        "failed operations are among the attempted ones"
    );
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// One open-loop request as the generator saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSample {
    /// Latency from when the request was due to when its reply was
    /// complete: includes any wait a stall imposed on the generator.
    pub latency: Duration,
    /// How late the generator sent it (zero when it was on time).
    pub lateness: Duration,
}

/// Times an open-loop request from its due time rather than from when
/// it was sent, so a stall that delays later requests is charged to
/// them.
pub fn open_loop_sample(due: Instant, sent: Instant, done: Instant) -> OpenLoopSample {
    OpenLoopSample {
        latency: done.saturating_duration_since(due),
        lateness: sent.saturating_duration_since(due),
    }
}

/// The gap to the next request of an open-loop schedule at `rate_hz`,
/// from `u` uniform in `[0, 1)`: the period ±25 %. The jitter keeps the
/// requests from locking onto a period of the server (its accept poll)
/// while the mean rate stays fixed; unlike exponential gaps it never
/// sends two requests back to back, so a slow sender does not queue
/// behind itself at rates the server sustains.
pub fn schedule_gap(rate_hz: f64, u: f64) -> Duration {
    Duration::from_secs_f64((0.75 + 0.5 * u) / rate_hz)
}

/// Duration in milliseconds as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mean() {
        assert!(mean(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        // 1..=1000: p99 is the 990th sample with 10 beyond it.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&s).unwrap();
        assert_eq!(
            (t.pct, t.value, t.samples, t.beyond),
            (99.0, 990.0, 1000, 10)
        );

        // 999 samples: p99 leaves only 9 beyond, so the tail drops to p95.
        let t = tail(&s[..999]).unwrap();
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.value, 950.0);
        assert!(t.beyond >= TAIL_MIN_BEYOND);

        // p99.9 needs 10 000 samples.
        let s: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&s).unwrap();
        assert_eq!((t.pct, t.beyond), (99.9, 10));
    }

    #[test]
    fn tail_is_absent_below_twenty_samples() {
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&s), None);
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&s).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10));
    }

    #[test]
    fn tail_ignores_sample_order() {
        let mut s: Vec<f64> = (1..=200).map(f64::from).collect();
        s.reverse();
        let t = tail(&s).unwrap();
        assert_eq!((t.pct, t.value), (95.0, 190.0));
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let due = Instant::now();
        // A stall held the generator 20 ms past the due time; the reply
        // took 5 ms after sending. The user waited 25 ms, not 5.
        let sent = due + Duration::from_millis(20);
        let done = sent + Duration::from_millis(5);
        let s = open_loop_sample(due, sent, done);
        assert_eq!(s.latency, Duration::from_millis(25));
        assert_eq!(s.lateness, Duration::from_millis(20));
        // Sent on time: no lateness, latency is the service time.
        let s = open_loop_sample(due, due, due + Duration::from_millis(5));
        assert_eq!(s.lateness, Duration::ZERO);
        assert_eq!(s.latency, Duration::from_millis(5));
    }

    #[test]
    fn schedule_gaps_keep_the_mean_rate() {
        // At 20 req/s the period is 50 ms; gaps stay within ±25 % of it.
        assert_eq!(schedule_gap(20.0, 0.0), Duration::from_secs_f64(0.0375));
        assert_eq!(schedule_gap(20.0, 0.5), Duration::from_secs_f64(0.05));
        assert!(schedule_gap(20.0, 0.999_999) < Duration::from_secs_f64(0.0625));
        // Over an even grid of u the mean gap is the period.
        let n = 1000;
        let total: f64 = (0..n)
            .map(|k| schedule_gap(20.0, (k as f64 + 0.5) / n as f64).as_secs_f64())
            .sum();
        assert!((total / n as f64 - 0.05).abs() < 1e-9);
    }

    #[test]
    fn failed_ratio_is_over_attempted_operations() {
        assert_eq!(failed_ratio(0, 0), 0.0);
        assert_eq!(failed_ratio(0, 50), 0.0);
        // 1 failed of 4 attempted is 0.25, not 1 of 3 successes.
        assert_eq!(failed_ratio(1, 4), 0.25);
        assert_eq!(failed_ratio(4, 4), 1.0);
    }

    #[test]
    #[should_panic]
    fn failed_ratio_rejects_more_failures_than_attempts() {
        failed_ratio(5, 4);
    }
}
