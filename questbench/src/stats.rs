//! Exact order statistics over raw samples. Nothing here buckets: every
//! percentile is read off the sorted samples themselves.

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least a `q` share of all samples at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly above the `q` percentile — the support a
/// tail percentile rests on.
pub fn beyond(sorted: &[u64], q: f64) -> usize {
    match percentile(sorted, q) {
        Some(p) => sorted.len() - sorted.partition_point(|&v| v <= p),
        None => 0,
    }
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Completions per second in each whole `window_ns` window of a phase
/// `span_ns` long, given each completion's offset from the phase start.
/// A trailing partial window is dropped, so every rate covers the same time.
pub fn window_rates(done_ns: &[u64], window_ns: u64, span_ns: u64) -> Vec<f64> {
    let windows = (span_ns / window_ns) as usize;
    let mut counts = vec![0u64; windows];
    for &t in done_ns {
        let w = (t / window_ns) as usize;
        if w < windows {
            counts[w] += 1;
        }
    }
    let per_sec = 1e9 / window_ns as f64;
    counts.iter().map(|&c| c as f64 * per_sec).collect()
}

/// The `q` percentile of each whole `window_ns` window of a phase
/// `span_ns` long, given `(offset, value)` samples. Windows without samples
/// are skipped.
pub fn window_percentiles(
    samples: &[(u64, u64)],
    window_ns: u64,
    span_ns: u64,
    q: f64,
) -> Vec<f64> {
    let windows = (span_ns / window_ns) as usize;
    let mut per_window = vec![Vec::new(); windows];
    for &(t, v) in samples {
        let w = (t / window_ns) as usize;
        if w < windows {
            per_window[w].push(v);
        }
    }
    per_window
        .into_iter()
        .filter_map(|mut v| {
            v.sort_unstable();
            percentile(&v, q).map(|p| p as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), Some(50));
        assert_eq!(percentile(&s, 0.9), Some(90));
        assert_eq!(percentile(&s, 0.99), Some(99));
        assert_eq!(percentile(&s, 1.0), Some(100));
        assert_eq!(percentile(&s, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
        // 10 samples: p50 is the 5th, p90 the 9th
        let s: Vec<u64> = (10..20).collect();
        assert_eq!(percentile(&s, 0.5), Some(14));
        assert_eq!(percentile(&s, 0.9), Some(18));
    }

    #[test]
    fn beyond_counts_the_tail() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(beyond(&s, 0.99), 10);
        assert_eq!(beyond(&s, 0.9), 100);
        // ties at the percentile are not beyond it
        assert_eq!(beyond(&[1, 2, 2, 2], 0.5), 0);
        assert_eq!(beyond(&[], 0.5), 0);
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn window_percentiles_are_per_window_and_skip_the_partial_one() {
        // window 0 holds 1..=10, window 1 holds 101..=110, a straggler
        // lands in the dropped partial window
        let mut samples: Vec<(u64, u64)> = (1..=10).map(|v| (v, v)).collect();
        samples.extend((101..=110).map(|v| (1000 + v, v)));
        samples.push((2500, 9999));
        assert_eq!(
            window_percentiles(&samples, 1000, 2600, 0.9),
            vec![9.0, 109.0]
        );
        assert_eq!(
            window_percentiles(&samples, 1000, 2600, 0.5),
            vec![5.0, 105.0]
        );
        // an empty window is skipped, not read as zero
        assert_eq!(window_percentiles(&[(2100, 7)], 1000, 3000, 0.5), vec![7.0]);
        // one slow window does not move the median across windows
        let mut samples = Vec::new();
        for w in 0..5u64 {
            let v = if w == 3 { 5000 } else { 100 };
            samples.extend((0..10).map(|k| (w * 1000 + k, v)));
        }
        let p = window_percentiles(&samples, 1000, 5000, 0.9);
        assert_eq!(median(&p), Some(100.0));
    }

    #[test]
    fn window_rates_drop_the_partial_window_and_ignore_stragglers() {
        // 1 s windows over 2.5 s: two whole windows
        let done = [
            100,
            200,
            900_000_000,
            1_000_000_000,
            1_500_000_000,
            2_200_000_000,
        ];
        let rates = window_rates(&done, 1_000_000_000, 2_500_000_000);
        assert_eq!(rates, vec![3.0, 2.0]);
        // 250 ms windows scale counts to per-second rates
        let rates = window_rates(&[0, 1, 2], 250_000_000, 500_000_000);
        assert_eq!(rates, vec![12.0, 0.0]);
        // the median over windows ignores one stalled window
        let mut done = Vec::new();
        for w in 0..5u64 {
            let n = if w == 2 { 1 } else { 10 };
            done.extend((0..n).map(|k| w * 1000 + k));
        }
        let rates = window_rates(&done, 1000, 5000);
        assert_eq!(median(&rates), Some(10.0 * 1e6));
    }
}
