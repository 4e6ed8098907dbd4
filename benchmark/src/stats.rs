//! The reporting arithmetic: medians, the tail-percentile rule, rep
//! interleaving and the open-loop clock. Pure functions, unit-tested
//! below, so the rules the README states are the rules the run applies.

use std::time::Duration;

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median; the mean of the two middle values for an even count.
///
/// # Panics
/// Panics on an empty sample: every metric the run prints has at least
/// one sample, so an empty one is a bug in the run.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// 1-based nearest rank of percentile `q` (0 < q ≤ 100) among `n`
/// samples: the smallest rank with at least `q`% of the samples at or
/// below it.
fn nearest_rank(n: usize, q: f64) -> usize {
    // The epsilon keeps 0.9 × 100 = 90.00000000000001 at rank 90.
    (((q / 100.0) * n as f64) - 1e-9).ceil().max(1.0) as usize
}

/// Samples strictly beyond the nearest-rank `q`-th percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q).min(n)
}

/// Nearest-rank percentile `q` of `xs`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (p90 needs at least 100).
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || beyond(xs.len(), q) < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[nearest_rank(v.len(), q) - 1])
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the default "exclusive" method) — the spread the
/// comparison protocol uses.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() as f64 + 1.0;
    let at = |j: f64| {
        let pos = j * m / 4.0;
        let i = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - i as f64;
        v[i - 1] + (v[i] - v[i - 1]) * frac
    };
    (at(1.0), at(3.0))
}

/// Run order for `reps` repetitions of each workload, interleaved
/// (w1, w2, …, w1, w2, …) so slow drift of the machine spreads over
/// every workload instead of landing on one.
pub fn interleaved<T: Copy>(workloads: &[T], reps: usize) -> Vec<(T, usize)> {
    (0..reps)
        .flat_map(|r| workloads.iter().map(move |&w| (w, r)))
        .collect()
}

/// When job `i` of an open loop at `rate` jobs/s is due, measured from
/// the loop's start.
pub fn scheduled_at(i: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// Open-loop latency in ms: from when the job was *due*, not when the
/// generator got round to sending it, so a stall is charged to every job
/// it delayed.
pub fn latency_ms(due: Duration, done: Duration) -> f64 {
    done.saturating_sub(due).as_secs_f64() * 1e3
}

/// How late the generator sent a job, in ms (0 when on time).
pub fn lag_ms(due: Duration, sent: Duration) -> f64 {
    sent.saturating_sub(due).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n, so sorting is exercised.
        (0..n).map(|i| ((i * 37) % n + 1) as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[0.25]), 0.25);
    }

    #[test]
    fn setup_median_ignores_one_slow_sample() {
        // Five setup samples with one cold outlier: the median is a
        // middle sample, the mean would not be.
        let setup = [0.101, 0.099, 0.350, 0.100, 0.102];
        assert_eq!(median(&setup), 0.101);
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(120), 90.0), Some(108.0));
    }

    #[test]
    fn median_is_reportable_from_twenty_samples() {
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), (1.25, 7.0));
    }

    #[test]
    fn reps_interleave_across_workloads() {
        let order = interleaved(&["a", "b", "c"], 2);
        assert_eq!(
            order,
            vec![("a", 0), ("b", 0), ("c", 0), ("a", 1), ("b", 1), ("c", 1)]
        );
        assert!(interleaved(&["a"], 0).is_empty());
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let due = scheduled_at(10, 20.0);
        assert_eq!(due, Duration::from_millis(500));
        // Sent 30 ms late, done 80 ms after sending: the job waited
        // 110 ms from when it was due.
        let sent = due + Duration::from_millis(30);
        let done = sent + Duration::from_millis(80);
        assert!((latency_ms(due, done) - 110.0).abs() < 1e-9);
        assert!((lag_ms(due, sent) - 30.0).abs() < 1e-9);
        // An early send is no lag.
        assert_eq!(lag_ms(due, due - Duration::from_millis(1)), 0.0);
    }
}
