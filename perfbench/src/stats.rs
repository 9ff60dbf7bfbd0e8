//! Order statistics, the tail-percentile rule and the state digest.

use hypar_telemetry::statehash::{hash_hex, StateHasher};

/// Candidate tail percentiles, in thousandths of a percent.
const LADDER_MILLI: [u64; 6] = [50_000, 90_000, 99_000, 99_900, 99_990, 99_999];

/// Samples a percentile needs beyond it to be reported as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p_milli` (thousandths of a
/// percent) among `n` samples.
fn rank(p_milli: u64, n: usize) -> usize {
    let n = n as u64;
    let rank = (p_milli * n).div_ceil(100_000);
    rank.clamp(1, n.max(1)) as usize
}

/// The nearest-rank percentile `p_milli` of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p_milli: u64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(p_milli, sorted.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest rank of
/// percentile `p_milli`.
pub fn beyond(p_milli: u64, n: usize) -> usize {
    n.saturating_sub(rank(p_milli, n))
}

/// The highest ladder percentile (thousandths of a percent) with at
/// least [`TAIL_MIN_BEYOND`] of `n` samples beyond it; the median when
/// no ladder step qualifies.
pub fn tail_percentile(n: usize) -> u64 {
    LADDER_MILLI
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(p, n) >= TAIL_MIN_BEYOND)
        .unwrap_or(LADDER_MILLI[0])
}

/// Renders thousandths of a percent as `p99.9`.
pub fn percentile_label(p_milli: u64) -> String {
    let whole = p_milli / 1000;
    let frac = p_milli % 1000;
    if frac == 0 {
        format!("p{whole}")
    } else {
        let digits = format!("{frac:03}");
        format!("p{whole}.{}", digits.trim_end_matches('0'))
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default `exclusive` method).  `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    // Python's exact integer steps; `delta` turns negative when `j` is
    // clamped up, which extrapolates below the lowest value as Python does.
    let (n, m, ld) = (4i64, ld as i64 + 1, ld as i64);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (data[j as usize - 1], data[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    Some(out)
}

/// Folds per-reply state hashes, in order, into one digest.
pub fn fold_digest<'a>(hashes: impl IntoIterator<Item = &'a str>) -> String {
    let mut h = StateHasher::new();
    h.write_str("perfbench-state-digest/v1");
    for hash in hashes {
        h.write_str(hash);
    }
    hash_hex(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // p90 needs 100 samples for ten beyond; p99 needs 1,000.
        assert_eq!(tail_percentile(99), 50_000);
        assert_eq!(tail_percentile(100), 90_000);
        assert_eq!(tail_percentile(999), 90_000);
        assert_eq!(tail_percentile(1_000), 99_000);
        assert_eq!(tail_percentile(9_999), 99_000);
        assert_eq!(tail_percentile(10_000), 99_900);
        assert_eq!(tail_percentile(27_000), 99_900);
        assert_eq!(tail_percentile(100_000), 99_990);
        assert_eq!(tail_percentile(5), 50_000);
        for n in [100, 450, 1_000, 27_000, 100_000, 2_000_000] {
            let p = tail_percentile(n);
            assert!(beyond(p, n) >= TAIL_MIN_BEYOND, "n={n}");
            let higher = LADDER_MILLI.iter().find(|&&q| q > p);
            if let Some(&q) = higher {
                assert!(beyond(q, n) < TAIL_MIN_BEYOND, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50_000), 50.0);
        assert_eq!(percentile(&sorted, 90_000), 90.0);
        assert_eq!(percentile(&sorted, 99_900), 100.0);
        assert_eq!(percentile(&[3.0], 99_000), 3.0);
        assert_eq!(percentile_label(99_900), "p99.9");
        assert_eq!(percentile_label(90_000), "p90");
        assert_eq!(percentile_label(99_990), "p99.99");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn digest_fold_is_order_sensitive() {
        let ab = fold_digest(["aaaa", "bbbb"]);
        let ba = fold_digest(["bbbb", "aaaa"]);
        assert_ne!(ab, ba);
        assert_eq!(ab, fold_digest(["aaaa", "bbbb"]));
        // Length-prefixed: moving a boundary changes the digest too.
        assert_ne!(fold_digest(["aa", "aabbbb"]), fold_digest(["aaaa", "bbbb"]));
        assert_eq!(ab.len(), 16);
    }
}
