//! Percentile rules for latency samples.
//!
//! A timing is reported as its median plus a tail: the highest percentile
//! of a fixed ladder that still has at least ten samples beyond it. Under
//! forty samples that percentile would be no tail, so the median stands
//! alone. The samples are one per request of a round: each request's best
//! time over the run's rounds (see [`best_of_rounds`]), so every run of a
//! workload summarises the same requests and reports the same percentile.

/// Percentiles a tail may be taken at, highest last.
pub const LADDER: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// Fewest samples for which a tail is reported at all.
pub const MIN_TAIL_SAMPLES: usize = 40;

/// Samples that must lie beyond a tail percentile.
pub const BEYOND: usize = 10;

/// The highest ladder percentile with at least [`BEYOND`] of `n` samples
/// beyond it, or `None` under [`MIN_TAIL_SAMPLES`] samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n < MIN_TAIL_SAMPLES {
        return None;
    }
    LADDER.iter().copied().rev().find(|&p| carries(n, p))
}

/// Whether `n` samples leave at least [`BEYOND`] beyond percentile `p`.
fn carries(n: usize, p: f64) -> bool {
    n >= MIN_TAIL_SAMPLES && n - rank(n, p) >= BEYOND
}

/// Nearest rank (1-based) of percentile `p` among `n` samples, in integer
/// arithmetic on tenths of a percent so that e.g. p90 of 100 is rank 90.
fn rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100, in tenths) of `sorted`, which
/// must be sorted ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Median (nearest-rank p50) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// A sorted copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median and tail of one latency population, with the sample count and
/// the percentile the tail was taken at.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    /// `(percentile, value)`; `None` when the samples are too few to
    /// carry the tail.
    pub tail: Option<(f64, f64)>,
}

/// Summarises `samples`, taking the tail at `tail_p` (a workload's fixed
/// choice, so all its runs agree on it) if the samples carry it.
pub fn summarize(samples: &[f64], tail_p: Option<f64>) -> Summary {
    let s = sorted(samples);
    Summary {
        samples: s.len(),
        p50: if s.is_empty() {
            0.0
        } else {
            percentile(&s, 50.0)
        },
        tail: tail_p
            .filter(|&p| carries(s.len(), p))
            .map(|p| (p, percentile(&s, p))),
    }
}

/// Each request's best time over the rounds: `rounds[r][i]` is request
/// `i`'s time in round `r`, `None` if it failed. Every round replays the
/// same requests on a fresh session, so they are the same work each
/// time. The host this benchmark runs on switches between a fast and a
/// slow speed every few seconds, and a run's share of slow rounds varies;
/// a request's best round is where the host least slowed it.
pub fn best_of_rounds(rounds: &[Vec<Option<f64>>]) -> Vec<Option<f64>> {
    let n = rounds.iter().map(Vec::len).max().unwrap_or(0);
    (0..n)
        .map(|i| {
            rounds
                .iter()
                .filter_map(|r| r.get(i).copied().flatten())
                .min_by(f64::total_cmp)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_alone_under_forty_samples() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(39), None);
        let s = summarize(&(1..=39).map(f64::from).collect::<Vec<_>>(), Some(75.0));
        assert_eq!(s.samples, 39);
        assert_eq!(s.p50, 20.0);
        assert_eq!(s.tail, None);
    }

    #[test]
    fn tail_is_highest_ladder_step_with_ten_beyond() {
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [40, 77, 100, 250, 1234, 20_000] {
            let p = tail_percentile(n).unwrap();
            let values: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let t = percentile(&values, p);
            let beyond = values.iter().filter(|&&v| v > t).count();
            assert!(beyond >= 10, "n={n} p={p}: only {beyond} beyond");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn summary_keeps_fixed_percentile_and_drops_unsupported_tail() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        let s = summarize(&v, Some(90.0));
        assert_eq!(s.p50, 200.0);
        assert_eq!(s.tail, Some((90.0, 360.0)));
        // p99.9 of 400 samples has fewer than ten beyond it.
        assert_eq!(summarize(&v, Some(99.9)).tail, None);
        assert_eq!(summarize(&v, None).tail, None);
    }

    #[test]
    fn best_of_rounds_takes_each_requests_fastest_round() {
        let rounds = vec![
            vec![Some(5.0), Some(9.0), None],
            vec![Some(3.0), Some(12.0), None],
            vec![Some(4.0), None, Some(7.0)],
        ];
        assert_eq!(
            best_of_rounds(&rounds),
            vec![Some(3.0), Some(9.0), Some(7.0)]
        );
        // A slow stretch of the host covering some rounds does not move
        // the result, as long as each request had one round outside it.
        let slow: Vec<Vec<Option<f64>>> = (0..10)
            .map(|r| {
                let f = if r % 3 == 0 { 1.0 } else { 1.8 };
                (1..=50).map(|i| Some(f * i as f64)).collect()
            })
            .collect();
        let best: Vec<f64> = best_of_rounds(&slow).into_iter().flatten().collect();
        assert_eq!(best, (1..=50).map(f64::from).collect::<Vec<_>>());
        assert!(best_of_rounds(&[]).is_empty());
    }
}
