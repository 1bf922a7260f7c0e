//! Percentiles computed from raw samples.
//!
//! Every timing the benchmark reports comes from the full list of measured
//! values, never from a bucketed histogram: a bucket floor can read several
//! percent low, which is a large share of a 10 % regression bound.

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` sorted samples: the
/// smallest rank with at least `p` % of the samples at or below it.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100] of `sorted` (ascending, non-empty).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] of `n`
/// samples strictly after its rank, or `None` when even the median has
/// fewer.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

/// Median, tail and count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// Percentile the tail was taken at (see [`tail_percentile`]); the
    /// median when there are too few samples for any tail.
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes raw samples; `None` when there are none.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(sorted.len()).unwrap_or(50.0);
        Some(Summary {
            count: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p90: percentile(&sorted, 90.0),
            tail_pct,
            tail: percentile(&sorted, tail_pct),
            max: sorted[sorted.len() - 1],
        })
    }

    /// Human-readable form with the sample count, in the samples' unit.
    #[must_use]
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.4} {unit}, p90 {:.4} {unit}, p{} {:.4} {unit}, max {:.4} {unit} (n={})",
            self.p50, self.p90, self.tail_pct, self.tail, self.max, self.count
        )
    }
}

/// Nearest-rank median of `samples`, or 0 when there are none.
#[must_use]
pub fn median_or_zero(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50)
}

/// Samples a block needs before it counts.
const MIN_BLOCK_SAMPLES: usize = 50;

/// The lowest value `stat` takes over the blocks of a series.
///
/// `samples` holds `(seconds since the start, value)`. They are cut into
/// consecutive blocks of `block_s` seconds by their time; `stat` is
/// applied to the values of every block with at least
/// [`MIN_BLOCK_SAMPLES`] samples, and the lowest result is returned, or
/// `None` when no block has enough samples.
///
/// This is the floor estimator for a shared host: other tenants' load
/// slows it by up to 1.7× in stretches from milliseconds to minutes, so a
/// statistic of the whole run moves with the share of the run spent slow,
/// while the least disturbed short block of a run reads nearly the same
/// from run to run.
#[must_use]
pub fn floor_over_blocks(
    samples: &[(f64, f64)],
    block_s: f64,
    stat: impl Fn(&[f64]) -> f64,
) -> Option<f64> {
    let mut blocks: std::collections::BTreeMap<u64, Vec<f64>> = std::collections::BTreeMap::new();
    for &(t, v) in samples {
        let block = (t.max(0.0) / block_s) as u64;
        blocks.entry(block).or_default().push(v);
    }
    blocks
        .values()
        .filter(|b| b.len() >= MIN_BLOCK_SAMPLES)
        .map(|b| stat(b))
        .min_by(f64::total_cmp)
}

/// The fastest repetition of each position: element `i` of the result is
/// the lowest `reps[r][i]` over every repetition `r` that has an element
/// `i`. Repetitions of the same work on a shared host differ only by how
/// much other tenants' load slowed them, so the lowest is the floor.
#[must_use]
pub fn fastest_per_position(reps: &[Vec<f64>]) -> Vec<f64> {
    let mut out: Vec<f64> = Vec::new();
    for rep in reps {
        for (i, &v) in rep.iter().enumerate() {
            match out.get_mut(i) {
                Some(best) => *best = best.min(v),
                None => out.push(v),
            }
        }
    }
    out
}

/// Nearest-rank percentile `p` of unsorted, non-empty `samples`.
#[must_use]
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// Arithmetic mean of non-empty `samples`.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.1), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Odd count: the median is the middle sample, not an average.
        assert_eq!(percentile(&ramp(5), 50.0), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        // 20 samples: rank 10 leaves exactly ten beyond the median.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn summary_is_order_independent_and_exact() {
        let mut s = ramp(1000);
        s.reverse();
        let sum = Summary::of(&s).expect("samples");
        assert_eq!(sum.count, 1000);
        assert_eq!(sum.p50, 500.0);
        assert_eq!(sum.p90, 900.0);
        assert_eq!(sum.tail_pct, 99.0);
        assert_eq!(sum.tail, 990.0);
        assert_eq!(sum.max, 1000.0);
        // No bucketing: a value just above a power of two stays exact.
        let odd = Summary::of(&[4097.0; 30]).expect("samples");
        assert_eq!(odd.p50, 4097.0);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median_or_zero(&[]), 0.0);
    }

    #[test]
    fn block_floor_takes_the_least_disturbed_block() {
        // Three one-second blocks: fast, slow (twice as slow), fast again
        // but slightly slower than the first.
        let mut s = Vec::new();
        for i in 0..100 {
            let t = f64::from(i) / 100.0;
            let v = f64::from(i % 10) / 100.0;
            s.push((t, 1.0 + v));
            s.push((1.0 + t, 2.0 + v));
            s.push((2.0 + t, 1.1 + v));
        }
        let p50 = floor_over_blocks(&s, 1.0, |b| percentile_of(b, 50.0));
        assert_eq!(p50, Some(1.0 + 4.0 / 100.0));
        let p90 = floor_over_blocks(&s, 1.0, |b| percentile_of(b, 90.0));
        assert_eq!(p90, Some(1.0 + 8.0 / 100.0));
        // A mean per block: the first block's.
        let m = floor_over_blocks(&s, 1.0, mean).expect("blocks");
        assert!((m - 1.045).abs() < 1e-12, "{m}");
        // Half-second blocks split each second in two; the same floor.
        assert_eq!(
            floor_over_blocks(&s, 0.5, |b| percentile_of(b, 50.0)),
            Some(1.0 + 4.0 / 100.0)
        );
        // Order of the samples does not matter.
        s.reverse();
        assert_eq!(
            floor_over_blocks(&s, 1.0, |b| percentile_of(b, 50.0)),
            Some(1.0 + 4.0 / 100.0)
        );
    }

    #[test]
    fn fastest_per_position_takes_each_minimum() {
        let reps = vec![
            vec![3.0, 5.0, 9.0],
            vec![4.0, 2.0],
            vec![6.0, 7.0, 8.0, 1.0],
        ];
        assert_eq!(fastest_per_position(&reps), vec![3.0, 2.0, 8.0, 1.0]);
        assert!(fastest_per_position(&[]).is_empty());
    }

    #[test]
    fn sparse_blocks_do_not_count() {
        // A block with fewer than MIN_BLOCK_SAMPLES samples is skipped,
        // however fast it is; a block ends just before the next second.
        let mut s: Vec<(f64, f64)> = vec![(0.0, 5.0), (0.999, 5.0)];
        s.extend(vec![(0.5, 5.0); MIN_BLOCK_SAMPLES - 2]);
        s.extend(vec![(1.0, 0.5); MIN_BLOCK_SAMPLES - 1]);
        assert_eq!(floor_over_blocks(&s, 1.0, mean), Some(5.0));
        s.truncate(MIN_BLOCK_SAMPLES - 1);
        assert_eq!(floor_over_blocks(&s, 1.0, mean), None);
        assert_eq!(floor_over_blocks(&[], 1.0, mean), None);
    }

    #[test]
    fn too_few_samples_fall_back_to_the_median() {
        let sum = Summary::of(&[3.0, 1.0, 2.0]).expect("samples");
        assert_eq!(sum.tail_pct, 50.0);
        assert_eq!(sum.tail, 2.0);
    }
}
