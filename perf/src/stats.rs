//! Estimators and `/proc` readers.
//!
//! Everything a metric is computed with lives here so it can be unit
//! tested without running a workload: nearest-rank percentiles, the
//! per-index minimum merge behind the quiet-pass estimator, and the
//! process CPU / peak-RSS readers.

/// Sentinel latency of an operation that failed: it has no latency, and
/// the merge must never let it win a minimum.
pub const FAILED: u64 = u64::MAX;

/// Nearest-rank percentile (`p` in 0..=100) of an ascending-sorted slice:
/// the smallest value with at least `p` percent of the samples at or
/// below it. Always returns a value that was measured — no interpolation.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy and takes the nearest-rank percentile.
pub fn percentile(values: &[u64], p: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    percentile_sorted(&sorted, p)
}

/// Median of floats (mean of the two middle values for even counts).
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Minimum of floats.
pub fn min_f64(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The quiet-pass merge: `q[i] = min over passes of t[pass][i]`.
///
/// Query `i` does bit-identical work in every pass (one client, work-based
/// cost model), so the passes differ only by what the machine added —
/// preemption, steal, cache pollution — and noise only ever adds time.
/// The minimum over passes is therefore the best available estimate of
/// the query's own cost. A [`FAILED`] sample never wins; an index that
/// failed in every pass stays [`FAILED`].
pub fn min_merge(passes: &[&[u64]]) -> Vec<u64> {
    let n = passes.first().map_or(0, |p| p.len());
    assert!(
        passes.iter().all(|p| p.len() == n),
        "passes must replay the same stream"
    );
    (0..n)
        .map(|i| passes.iter().map(|p| p[i]).min().unwrap_or(FAILED))
        .collect()
}

/// Interquartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) — the
/// spread the benchmark contract is judged by.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let quantile = |k: usize| {
        let pos = k as f64 * (sorted.len() + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, sorted.len() - 1);
        let frac = pos - lo as f64;
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    };
    let median = median_f64(&sorted);
    if median == 0.0 {
        return 0.0;
    }
    (quantile(3) - quantile(1)) / median.abs()
}

/// Whole-process CPU time (user + system, every thread) in microseconds,
/// from `/proc/self/stat` fields 14 and 15. The daemon, router and peer
/// threads all live in this process, so one read covers the fleet.
pub fn process_cpu_us() -> Option<u64> {
    parse_stat_cpu_us(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// `utime + stime` of a `/proc/<pid>/stat` line, in microseconds. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the *last* `)`. Linux reports these in
/// `USER_HZ` ticks, which is 100 on every supported architecture.
pub fn parse_stat_cpu_us(stat: &str) -> Option<u64> {
    const USER_HZ: u64 = 100;
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime/stime are 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000 / USER_HZ))
}

/// Peak resident set size of this process in KiB (`VmHWM`).
pub fn peak_rss_kib() -> Option<u64> {
    parse_status_kib(&std::fs::read_to_string("/proc/self/status").ok()?, "VmHWM")
}

/// The `<key>:   <n> kB` line of a `/proc/<pid>/status` text.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_measured_values() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        // 2 700 samples leave 27 beyond p99.
        let v: Vec<u64> = (0..2700).collect();
        let p99 = percentile(&v, 99.0);
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 27);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(min_f64(&[4.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn min_merge_is_per_index_and_skips_failures() {
        let merged = min_merge(&[&[5, 9, FAILED], &[7, 3, FAILED], &[6, FAILED, 8]]);
        assert_eq!(merged, vec![5, 3, 8]);
        assert_eq!(min_merge(&[&[FAILED], &[FAILED]]), vec![FAILED]);
        assert!(min_merge(&[]).is_empty());
    }

    /// The property the estimator exists for: one pass that ran 10× slower
    /// on a random 30 % of its queries (a steal burst) moves neither the
    /// median nor the throughput of the merged profile.
    #[test]
    fn a_noisy_pass_does_not_move_the_merged_profile() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let truth: Vec<u64> = (0..3000).map(|_| 20_000 + next() % 400_000).collect();
        let jitter = |next: &mut dyn FnMut() -> u64| -> Vec<u64> {
            truth.iter().map(|t| t + next() % 50).collect()
        };
        let quiet: Vec<Vec<u64>> = (0..4).map(|_| jitter(&mut next)).collect();
        let mut noisy = jitter(&mut next);
        for t in noisy.iter_mut() {
            if next() % 10 < 3 {
                *t *= 10;
            }
        }
        let mut with_noise = quiet.clone();
        with_noise.insert(2, noisy);

        let qps = |q: &[u64]| q.len() as f64 / q.iter().sum::<u64>() as f64;
        let slices = |passes: &[Vec<u64>]| -> Vec<u64> {
            min_merge(&passes.iter().map(Vec::as_slice).collect::<Vec<_>>())
        };
        let clean = slices(&quiet);
        let dirty = slices(&with_noise);
        let p50 = |q: &[u64]| percentile(q, 50.0) as f64;
        assert!((p50(&dirty) / p50(&clean) - 1.0).abs() < 1e-3);
        assert!((qps(&dirty) / qps(&clean) - 1.0).abs() < 1e-3);
        // A plain mean over passes would have moved by tens of percent.
        let mean: Vec<u64> = (0..truth.len())
            .map(|i| with_noise.iter().map(|p| p[i]).sum::<u64>() / with_noise.len() as u64)
            .collect();
        assert!(qps(&clean) / qps(&mean) > 1.3);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let line = "4242 (gc) serve) R 1 1 1 0 -1 4194304 100 0 0 0 \
                    37 5 0 0 20 0 3 0 100 1000 10 18446744073709551615";
        assert_eq!(parse_stat_cpu_us(line), Some((37 + 5) * 10_000));
        assert_eq!(parse_stat_cpu_us("no parenthesis here"), None);
    }

    #[test]
    fn status_parser_reads_vmhwm() {
        let status = "Name:\tperf\nVmPeak:\t  900 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(12345));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
    }

    #[test]
    fn proc_readers_work_on_this_process() {
        assert!(peak_rss_kib().unwrap() > 0);
        assert!(process_cpu_us().is_some());
    }
}
