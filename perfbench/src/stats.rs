//! Small numeric helpers shared by the workloads and the traced rig.

use std::time::Instant;

use pmnet::sim::stats::LatencyHistogram;

/// The median of `values` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The smallest of `values`: the fastest of repeated host timings of the
/// same work. The other tenants of a shared host only ever slow a run
/// down, and on such a host the speed of the same code drifts by tens of
/// percent over tens of seconds, so the fastest of many short repetitions
/// is a steadier reading of the program's own speed than their median.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of no values");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Host time of one campaign's set-up samples: calls of `build` are
/// timed until this budget is spent (at least one call).
const BUILD_BUDGET_S: f64 = 0.02;

/// Appends the host seconds of a few calls of `build` to `times`, as many
/// as fit in [`BUILD_BUDGET_S`] (at least one). The chaos workload, whose
/// campaigns build their systems out of sight, calls this once per
/// campaign, so set-up is sampled across the whole run rather than at one
/// moment, and `setup_s` is the fastest sample. What `build` returns is
/// dropped outside the timed region.
pub fn time_builds<T>(times: &mut Vec<f64>, mut build: impl FnMut() -> T) {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let built = build();
        times.push(t.elapsed().as_secs_f64());
        drop(built);
        if start.elapsed().as_secs_f64() >= BUILD_BUDGET_S {
            return;
        }
    }
}

/// Nearest-rank `q`-quantile of exact samples (`sorted` ascending).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The `q`-quantile of a log-bucketed histogram in µs, interpolated
/// linearly within the bucket that holds the nearest-rank sample.
///
/// The histogram reports the upper edge of that bucket, so quantiles of
/// latencies that vary less than a bucket width (1/128 of an octave) would
/// read the same value on every seed. Interpolating by the rank's position
/// among the bucket's samples keeps the estimate inside the same bucket
/// while following the data. The bucket's rank range is found with
/// `percentile` queries, the histogram's only view of its counts.
///
/// # Panics
///
/// Panics on an empty histogram.
pub fn interpolated_quantile_us(h: &mut LatencyHistogram, q: f64) -> f64 {
    let n = h.len() as u64;
    let at_rank = |h: &mut LatencyHistogram, rank: u64| {
        h.percentile((rank as f64 - 0.5) / n as f64).as_nanos()
    };
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let v = at_rank(h, rank);
    // First and last rank reporting the same value: the bucket's samples.
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at_rank(h, mid) < v {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if at_rank(h, mid) > v {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    // Each octave splits into 1/MAX_RELATIVE_ERROR buckets; values below
    // that many ns are exact, and above, a bucket spans 2^(e-bits) ns
    // where 2^e <= v.
    let subs = (1.0 / LatencyHistogram::MAX_RELATIVE_ERROR).round() as u64;
    if v < subs {
        return v as f64 / 1e3;
    }
    let width = 1u64 << (63 - v.leading_zeros() - subs.trailing_zeros());
    // The reported value is the bucket's upper edge clamped to the
    // observed range; interpolate over the bucket's span within that range.
    let lower = (v - v % width).max(h.min().as_nanos());
    let upper = (v - v % width + width).min(h.max().as_nanos() + 1);
    let pos = (rank - first) as f64 + 0.5;
    let count = (last - first + 1) as f64;
    (lower as f64 + pos / count * (upper - lower) as f64) / 1e3
}

/// `num / den`, or 0 when nothing was counted (a layer the workload never
/// exercises reports zero work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), read from
/// `/proc/self/status`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 0.5), 50);
        assert_eq!(nearest_rank(&s, 0.99), 99);
        assert_eq!(nearest_rank(&s, 0.999), 100);
        assert_eq!(nearest_rank(&[7], 0.5), 7);
    }

    #[test]
    fn interpolated_quantile_stays_in_the_nearest_rank_bucket() {
        use pmnet::sim::Dur;
        let mut h = LatencyHistogram::new();
        for ns in 20_000..30_000u64 {
            h.record(Dur::nanos(ns));
        }
        for q in [0.01, 0.5, 0.99, 0.999] {
            let exact = 20_000.0 + (q * 10_000.0f64).ceil() - 1.0;
            let est = interpolated_quantile_us(&mut h, q) * 1e3;
            let bucket = h.percentile(q).as_nanos() as f64;
            assert!(
                est <= bucket + 1.0,
                "q={q}: {est} above its bucket edge {bucket}"
            );
            assert!((est - exact).abs() <= 3.0, "q={q}: {est} vs exact {exact}");
        }
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
