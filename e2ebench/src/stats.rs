//! Order statistics over timing samples, and ratios of counters.

/// The `q`-quantile of `samples` by nearest rank (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Consecutive blocks a run's samples are cut into by
/// [`block_quantile`].
pub const BLOCKS: usize = 5;

/// The median over [`BLOCKS`] consecutive, equal blocks of `samples` (in
/// time order) of each block's `q`-quantile. On a shared machine an
/// episode of contention covers part of a run; it moves one block's
/// quantile, not the median of five.
pub fn block_quantile(samples: &[f64], q: f64) -> f64 {
    if samples.len() < BLOCKS {
        return quantile(samples, q);
    }
    let per_block: Vec<f64> = (0..BLOCKS)
        .map(|b| {
            let lo = b * samples.len() / BLOCKS;
            let hi = (b + 1) * samples.len() / BLOCKS;
            quantile(&samples[lo..hi], q)
        })
        .collect();
    median(&per_block)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn one_slow_block_does_not_move_the_median_of_blocks() {
        let mut v: Vec<f64> = (0..100).map(|i| 10.0 + (i % 3) as f64).collect();
        for x in &mut v[20..40] {
            *x *= 2.0;
        }
        assert_eq!(block_quantile(&v, 0.99), 12.0);
        assert_eq!(block_quantile(&[1.0, 2.0], 0.5), 1.0);
    }
}
